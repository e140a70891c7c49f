//! `oa-router` — the fabric coordinator.
//!
//! Speaks the `oa-serve` NDJSON protocol to clients and fans requests
//! out to shard backends by consistent-hash placement over topology
//! ids. Responses are byte-identical to a single `oa-serve`; the only
//! fabric-specific frames are the local `shard_map` answer and the
//! typed `{"error":{"kind":…}}` pushback frames.

use std::process::exit;

use oa_fault::{FaultConfig, Faults};
use oa_router::{start, Fabric, RouterConfig, DEFAULT_VNODES};

const USAGE: &str = "\
oa-router — sharded eval fabric coordinator for the INTO-OA design space

USAGE:
    oa-router --shards HOST:PORT,HOST:PORT,... [OPTIONS]
    oa-router --spawn N [OPTIONS]

OPTIONS:
    --shards LIST      Comma-separated shard backend addresses (each an
                       oa-serve, ideally started with --shard I/N)
    --spawn N          Instead of external backends, spawn N in-process
                       shards on free ports (stores under
                       $OA_STORE_DIR/shard<I>/ or results/store/shard<I>/)
    --addr HOST:PORT   Bind address (default 127.0.0.1:7800; port 0 picks
                       a free port)
    --vnodes N         Virtual nodes per shard on the hash ring
                       (default 128)
    --max-inflight N   Client requests in flight before load shedding
                       with {\"error\":{\"kind\":\"overloaded\"}} (default 1024)
    --fault-seed N     CHAOS TESTING ONLY: seeded router storm (shard
                       link drops, response write stalls). Never use in
                       production.
    -h, --help         Print this help

PROTOCOL:
    The oa-serve protocol, unchanged, plus the \"shard_map\" op (placement
    census and backend health) and \"stats\" with \"shards\":true (summed
    fabric counters plus the per-shard breakdown). See DESIGN.md §11.

ENVIRONMENT:
    OA_STORE_DIR       Store directory root for --spawn shards
";

fn fail(message: &str) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut shards: Vec<String> = Vec::new();
    let mut spawn: Option<u32> = None;
    let mut addr = "127.0.0.1:7800".to_owned();
    let mut vnodes = DEFAULT_VNODES;
    let mut max_inflight = 1024usize;
    let mut faults = Faults::none();

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            return;
        }
        let Some(value) = args.get(i + 1) else {
            fail(&format!("flag '{flag}' needs a value"));
        };
        match flag {
            "--shards" => {
                shards = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                if shards.is_empty() {
                    fail("--shards needs at least one address");
                }
            }
            "--spawn" => match value.parse::<u32>() {
                Ok(n) if n >= 1 => spawn = Some(n),
                _ => fail("--spawn needs a positive shard count"),
            },
            "--addr" => addr = value.clone(),
            "--vnodes" => match value.parse::<u32>() {
                Ok(n) if n >= 1 => vnodes = n,
                _ => fail("--vnodes needs a positive integer"),
            },
            "--max-inflight" => match value.parse::<usize>() {
                Ok(n) => max_inflight = n,
                _ => fail("--max-inflight needs an unsigned integer"),
            },
            "--fault-seed" => match value.parse::<u64>() {
                Ok(seed) => faults = Faults::seeded(seed, FaultConfig::router_storm()),
                _ => fail("--fault-seed needs an unsigned integer"),
            },
            other => fail(&format!("unknown flag '{other}'")),
        }
        i += 2;
    }

    match (spawn, shards.is_empty()) {
        (Some(_), false) => fail("--spawn and --shards are mutually exclusive"),
        (None, true) => fail("one of --shards or --spawn is required"),
        _ => {}
    }

    if let Some(n) = spawn {
        let store_dir = oa_serve::default_store_dir();
        let fabric = match Fabric::spawn(n, &store_dir, |config| {
            config.addr = addr.clone();
            config.vnodes = vnodes;
            config.max_inflight = max_inflight;
            config.faults = faults.clone();
        }) {
            Ok(fabric) => fabric,
            Err(e) => {
                eprintln!("error: failed to spawn fabric: {e}");
                exit(1);
            }
        };
        // Exact line format is load-bearing: scripts scrape the address
        // (port 0 resolves here).
        println!("oa-router listening on {}", fabric.router.addr());
        println!(
            "  shards: {} (spawned in-process), vnodes: {vnodes}, store: {}",
            n,
            store_dir.display()
        );
        for (i, backend) in fabric.shard_addrs.iter().enumerate() {
            println!("  shard {i}: {backend}");
        }
        let Fabric {
            router,
            shards: _backends,
            ..
        } = fabric;
        // `_backends` stays alive for as long as the router runs.
        router.join();
        return;
    }

    let config = RouterConfig {
        addr,
        shards: shards.clone(),
        vnodes,
        max_inflight,
        max_resend: 8,
        faults,
    };
    match start(config) {
        Ok(router) => {
            println!("oa-router listening on {}", router.addr());
            println!("  shards: {}, vnodes: {vnodes}", shards.len());
            for (i, backend) in shards.iter().enumerate() {
                println!("  shard {i}: {backend}");
            }
            router.join();
        }
        Err(e) => {
            eprintln!("error: failed to start: {e}");
            exit(1);
        }
    }
}
