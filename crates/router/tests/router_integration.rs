//! Fabric integration tests against a live two-shard router.
//!
//! * The checked-in golden NDJSON fixture replays through a two-shard
//!   fabric and must come back byte-identical — the acceptance bar for
//!   the router's transparency on a *multi*-shard fabric.
//! * `stats` sums counters across shards, with the per-shard breakdown
//!   opt-in via `"shards":true`.
//! * Load beyond `max_inflight` is shed with the typed
//!   `{"error":{"kind":"overloaded"}}` frame.
//! * A killed shard fails over (requests keep getting answered) and
//!   rejoins after restart, observable through `shard_map`.
//! * A client that stops reading is dropped once its unsent responses
//!   pass `MAX_WRITE_BUFFER`, and never delays another client.

use std::fs;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use oa_fault::{Faults, RetryPolicy};
use oa_router::net::MAX_WRITE_BUFFER;
use oa_router::{start, Fabric, RouterConfig};
use oa_serve::{request, serve, Client, ClientConfig, Json};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "oa_router_it_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// A patient retrying client profile for the failover test.
fn resilient() -> ClientConfig {
    ClientConfig {
        retry: RetryPolicy {
            max_attempts: 12,
            base_millis: 2,
            cap_millis: 20,
        },
        timeout_millis: Some(2_000),
    }
}

/// Zeroes every `"micros":<number>` — same canonicalization as the
/// golden protocol fixture.
fn canonicalize(line: &str) -> String {
    let marker = "\"micros\":";
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(marker) {
        let (head, tail) = rest.split_at(at + marker.len());
        out.push_str(head);
        out.push('0');
        let digits = tail
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(tail.len());
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// Parses `tests/golden/protocol.txt` (`> request` / `< response` pairs).
fn golden_pairs() -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../serve/tests/golden/protocol.txt");
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden fixture {} unreadable: {e}", path.display()));
    let mut pairs = Vec::new();
    let mut pending: Option<String> = None;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(req) = line.strip_prefix("> ") {
            pending = Some(req.to_owned());
        } else if let Some(resp) = line.strip_prefix("< ") {
            let req = pending.take().expect("fixture response without request");
            pairs.push((req, resp.to_owned()));
        }
    }
    pairs
}

#[test]
fn golden_fixture_passes_unchanged_through_a_two_shard_fabric() {
    let dir = temp_dir("golden");
    let _ = fs::remove_dir_all(&dir);
    // Same session limit as the fixture's direct harness
    // (GOLDEN_SESSION_LIMIT in oa-serve's golden_protocol test), so the
    // scripted `session_limit` overflow reproduces on every shard.
    let fabric = Fabric::spawn_with(2, &dir, |_| {}, |shard| shard.session_limit = 3)
        .expect("fabric starts");
    let mut client = Client::connect(fabric.router.addr()).expect("connect");
    for (i, (req, expected)) in golden_pairs().into_iter().enumerate() {
        let actual = canonicalize(&client.request(&req).expect("request"));
        assert_eq!(
            expected, actual,
            "golden pair {i} ({req}): two-shard fabric response diverged"
        );
    }
    drop(client);
    fabric.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stats_sum_across_shards_with_optional_breakdown() {
    let dir = temp_dir("stats");
    let _ = fs::remove_dir_all(&dir);
    let fabric = Fabric::spawn(2, &dir, |_| {}).expect("fabric starts");
    let mut client = Client::connect(fabric.router.addr()).expect("connect");

    // Sims spread over topologies that land on both shards.
    let mut sims = 0u64;
    for (i, topology) in [0usize, 97, 1031, 4_444, 17_001].into_iter().enumerate() {
        let line = request::eval(i as u64, "S-1", topology, &x_for(topology));
        let response = client.request(&line).expect("eval");
        assert!(response.contains("\"ok\":true"), "eval failed: {response}");
        sims += 1;
    }

    // Summed view: counters add, the per-shard identity field is gone.
    let summed = client.request(&request::stats(50)).expect("stats");
    let parsed = Json::parse(&summed).expect("stats parses");
    let result = parsed.get("result").expect("result");
    assert_eq!(result.get("sims").and_then(Json::as_u64), Some(sims));
    assert_eq!(
        result
            .get("endpoints")
            .and_then(|e| e.get("eval"))
            .and_then(|e| e.get("count"))
            .and_then(Json::as_u64),
        Some(sims)
    );
    assert!(result.get("shard").is_none(), "identity must be dropped");
    assert!(result.get("shards").is_none(), "breakdown is opt-in");

    // Breakdown view: the same sums plus the raw per-shard objects.
    let detailed = client
        .request(r#"{"id":51,"op":"stats","shards":true}"#)
        .expect("stats breakdown");
    let parsed = Json::parse(&detailed).expect("breakdown parses");
    let result = parsed.get("result").expect("result");
    assert_eq!(result.get("sims").and_then(Json::as_u64), Some(sims));
    let shards = result
        .get("shards")
        .and_then(Json::as_arr)
        .expect("breakdown array");
    assert_eq!(shards.len(), 2);
    for (i, shard) in shards.iter().enumerate() {
        let identity = shard.get("shard").expect("per-shard identity");
        assert_eq!(identity.get("index").and_then(Json::as_u64), Some(i as u64));
        assert_eq!(identity.get("count").and_then(Json::as_u64), Some(2));
    }
    let per_shard_sims: u64 = shards
        .iter()
        .map(|s| s.get("sims").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    assert_eq!(per_shard_sims, sims, "breakdown must add up to the sum");

    drop(client);
    fabric.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn overload_is_shed_with_a_typed_frame() {
    let dir = temp_dir("shed");
    let _ = fs::remove_dir_all(&dir);
    // max_inflight = 0: every request is pushback.
    let fabric = Fabric::spawn(1, &dir, |config| config.max_inflight = 0).expect("fabric starts");
    let mut client = Client::connect(fabric.router.addr()).expect("connect");
    let response = client
        .request(&request::eval(7, "S-1", 0, &x_for(0)))
        .expect("request");
    assert_eq!(
        response,
        r#"{"id":7,"ok":false,"error":{"kind":"overloaded"}}"#
    );
    drop(client);
    fabric.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn killed_shard_fails_over_and_rejoins() {
    let dir = temp_dir("failover");
    let _ = fs::remove_dir_all(&dir);
    let mut fabric = Fabric::spawn(2, &dir, |_| {}).expect("fabric starts");
    let mut client = Client::connect_with(fabric.router.addr(), resilient()).expect("connect");

    // Baseline answers with both shards up.
    let topologies = [0usize, 97, 1031, 4_444, 17_001];
    let lines: Vec<String> = topologies
        .iter()
        .enumerate()
        .map(|(i, &t)| request::eval(i as u64, "S-1", t, &x_for(t)))
        .collect();
    let baseline: Vec<String> = lines
        .iter()
        .map(|l| client.request_with_retry(l).expect("baseline eval"))
        .collect();

    // Kill shard 1. Every request must still be answered — and
    // byte-identically, because failover stand-ins recompute the same
    // deterministic results (the stores differ; the bytes cannot).
    let victim = fabric.shards.remove(1);
    let addr = fabric.shard_addrs[1].clone();
    victim.kill();
    for (line, expected) in lines.iter().zip(&baseline) {
        let response = client.request_with_retry(line).expect("failover eval");
        assert_eq!(&response, expected, "failover diverged for {line}");
    }
    // Routability must read as degraded while the shard is away.
    let map = client
        .request(r#"{"id":90,"op":"shard_map"}"#)
        .expect("shard_map");
    assert!(map.contains("\"up\":false"), "dead link must show: {map}");

    // Restart on the same port over the same store; the background
    // redial pacing rejoins the link without any request traffic.
    let restarted = restart_on(&addr, &dir, 1);
    fabric.shards.insert(1, restarted);
    let mut rejoined = false;
    for _ in 0..500 {
        let map = client
            .request(r#"{"id":91,"op":"shard_map"}"#)
            .expect("shard_map");
        if !map.contains("\"up\":false") {
            rejoined = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(rejoined, "restarted shard never rejoined the fabric");

    // Post-rejoin traffic is served (store-backed, still byte-identical).
    for (line, expected) in lines.iter().zip(&baseline) {
        let response = client.request_with_retry(line).expect("post-rejoin eval");
        assert_eq!(&response, expected, "post-rejoin diverged for {line}");
    }

    drop(client);
    fabric.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_client_that_stops_reading_is_dropped_without_delaying_others() {
    let dir = temp_dir("slow");
    let _ = fs::remove_dir_all(&dir);
    let fabric = Fabric::spawn(2, &dir, |_| {}).expect("fabric starts");
    let addr = fabric.router.addr();
    let patient = ClientConfig {
        retry: RetryPolicy::disabled(),
        timeout_millis: Some(10_000),
    };
    let mut good = Client::connect_with(addr, patient).expect("connect");
    let map_line = r#"{"id":1,"op":"shard_map"}"#;
    let frame_len = good.request(map_line).expect("shard_map").len() + 1;
    let topologies = [0usize, 97, 1031];
    let lines: Vec<String> = topologies
        .iter()
        .enumerate()
        .map(|(i, &t)| request::eval(i as u64, "S-1", t, &x_for(t)))
        .collect();
    let expected: Vec<String> = lines
        .iter()
        .map(|l| good.request(l).expect("warm eval"))
        .collect();

    // The slow client pipelines shard_map requests in batches and never
    // reads; each batch also carries one eval, whose answer a shard-link
    // thread delivers. After each batch it hands over to the good client
    // and waits for an eval round to complete, so those rounds run while
    // the slow client's unanswered backlog grows toward the cap. Its
    // writes fail once the router has dropped it.
    const BATCH: usize = 2_000;
    let batch = format!("{map_line}\n").repeat(BATCH - 1) + &lines[0] + "\n";
    let batch_bytes = (BATCH - 1) * frame_len + expected[0].len() + 1;
    let (batch_tx, batch_rx) = mpsc::channel::<bool>();
    let (round_tx, round_rx) = mpsc::channel::<()>();
    let slow = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("slow client connects");
        let mut batches = 0usize;
        loop {
            if stream.write_all(batch.as_bytes()).is_err() {
                let _ = batch_tx.send(false);
                return batches;
            }
            batches += 1;
            if batch_tx.send(true).is_err() || round_rx.recv().is_err() {
                return batches;
            }
        }
    });
    let mut rounds = 0usize;
    // The slow client's writes only stall if the router stops reading
    // it, i.e. if its unread answers back up into the router itself.
    while batch_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the router kept reading the slow client")
    {
        for (line, want) in lines.iter().zip(&expected) {
            let got = good.request(line).expect("eval during the flood");
            assert_eq!(&got, want, "eval diverged while another client stalled");
        }
        rounds += 1;
        round_tx.send(()).expect("slow client waits for the round");
    }
    let batches = slow.join().expect("slow client thread");
    assert!(
        batches * batch_bytes > MAX_WRITE_BUFFER,
        "dropped after {batches} batches ({} response bytes), before its \
         backlog could pass MAX_WRITE_BUFFER",
        batches * batch_bytes
    );
    assert!(rounds > 0);
    // The good client is still served after the drop.
    for (line, want) in lines.iter().zip(&expected) {
        assert_eq!(&good.request(line).expect("eval after the drop"), want);
    }
    drop(good);
    fabric.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn shard_map_census_covers_the_design_space() {
    let dir = temp_dir("census");
    let _ = fs::remove_dir_all(&dir);
    let fabric = Fabric::spawn(3, &dir, |_| {}).expect("fabric starts");
    let mut client = Client::connect(fabric.router.addr()).expect("connect");
    let map = client
        .request(r#"{"id":1,"op":"shard_map"}"#)
        .expect("shard_map");
    let parsed = Json::parse(&map).expect("shard_map parses");
    let result = parsed.get("result").expect("result");
    assert_eq!(result.get("shards").and_then(Json::as_u64), Some(3));
    let backends = result
        .get("backends")
        .and_then(Json::as_arr)
        .expect("backends");
    assert_eq!(backends.len(), 3);
    let owned: u64 = backends
        .iter()
        .map(|b| b.get("owned").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    assert_eq!(
        owned,
        oa_circuit::DESIGN_SPACE_SIZE as u64,
        "census must partition the whole design space"
    );
    drop(client);
    fabric.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn router_requires_at_least_one_shard() {
    assert!(start(RouterConfig::loopback(Vec::new())).is_err());
}

/// An in-range parameter vector for `topology`.
fn x_for(topology: usize) -> Vec<f64> {
    use oa_circuit::{ParamSpace, Topology};
    let t = Topology::from_index(topology).expect("test topology in range");
    let dim = ParamSpace::for_topology(&t).dim();
    (0..dim)
        .map(|j| 0.25 + 0.5 * (j as f64) / dim.max(1) as f64)
        .collect()
}

/// Restarts a killed shard on its old concrete address over the same
/// store directory, retrying while the dead listener drains.
fn restart_on(addr: &str, store_dir: &std::path::Path, index: u32) -> oa_serve::Server {
    use oa_router::fabric::shard_config;
    for _ in 0..50 {
        if let Ok(server) = serve(shard_config(addr, store_dir, index, 2, Faults::none())) {
            return server;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("could not rebind {addr} after shard kill");
}
