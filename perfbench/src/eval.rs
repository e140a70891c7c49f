//! `eval_open` and `eval_hit`: independent `eval` clients through the
//! fabric, open loop.
//!
//! Requests follow a fixed schedule at [`RATE`] per second and each is
//! timed from its due time, so a stall is charged to every request it
//! delays. In `eval_open` about 3 in 4 requests repeat a key set-up
//! already served (store hits); the rest are fresh points that simulate,
//! fingerprint and append. In `eval_hit` every request is a store hit, so
//! the simulator, WL fingerprint and appends never run. Hit keys recur
//! only after every other hit key, so no key is ever in flight twice.
//! After the open-loop stream, a closed-loop phase with the same mix
//! measures the fabric's capacity, printed as a diagnostic beside the
//! offered rate. `ops_per_s` is the open loop's completion rate: it
//! equals the offered rate unless the fabric falls behind, so it is
//! pinned by design and moves only when the program cannot keep up.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use into_oa::{EvalHandle, Evaluator, Spec};
use oa_circuit::Topology;
use oa_graph::WlFeaturizer;
use oa_router::Fabric;
use oa_serve::{eval_result_json, process_fingerprint, request, wl_fingerprint, Client, Service};
use oa_store::{EvalKey, EvalKind, Store};

use crate::common::{
    copy_stores, is_ok, ms_since, ratio, repeated_setup, replicate_shard0, result_bytes, ring,
    shard_log, spawn_fabric, stat, stats_result, us_since, work_counters, AFTER_LOAD, BEFORE_LOAD,
};
use crate::gen::Rng;
use crate::ledger::{Ledger, Probe, PROBE_REPS};
use crate::stats::{median, min, percentile};
use crate::trace::Tracer;
use crate::{end_to_end, Args, Outcome, SetupStat};

/// Which eval workload: the share of fresh points in its streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `eval_open`: about 1 in 4 requests is a fresh point.
    Open,
    /// `eval_hit`: every request is a store hit.
    Hit,
}

impl Mix {
    /// How many in four requests are fresh points.
    fn fresh_in_4(self) -> u64 {
        match self {
            Mix::Open => 1,
            Mix::Hit => 0,
        }
    }
}

/// Offered load, requests per second. The capacity phase below measured
/// 4,400–12,300/s (median 9,300/s) for `eval_open` on a 2-core x86-64
/// host, swinging with host phases; this is half the lowest figure, so
/// the fabric stays below saturation in slow phases and the latencies
/// measure service, not a growing queue. Lower rates are not steadier:
/// the router's idle pacing then sleeps longer between requests, and a
/// response that misses one wake-up waits for a doubled sleep.
const RATE: f64 = 2200.0;
/// Requests in the closed-loop capacity phase, split over two
/// connections (about 2 s at capacity).
const CAPACITY_REQUESTS: usize = 20000;
/// Requests each capacity connection keeps in flight.
const CAPACITY_WINDOW: usize = 4;
/// Distinct keys in the starting log; the stream's hits repeat them.
const HIT_KEYS: usize = 512;
/// In `eval_open` fresh points are a quarter of the stream, so p90 lies
/// on the miss path; in `eval_hit` it is the hit path's tail.
const TAIL_P: f64 = 90.0;
/// Responses re-derived in process per run for the byte-equality check.
const CHECKED: usize = 64;
/// Requests in the ledger's eval stream.
const PROBE_REQUESTS: usize = 1000;

#[derive(Clone)]
struct EvalReq {
    spec: usize,
    topology: Topology,
    x: Vec<f64>,
    hit: bool,
}

impl EvalReq {
    fn line(&self, id: u64) -> String {
        request::eval(
            id,
            Spec::all()[self.spec].name,
            self.topology.index(),
            &self.x,
        )
    }
}

fn handles() -> Vec<EvalHandle> {
    Spec::all()
        .into_iter()
        .map(|spec| Evaluator::new(spec).into_handle())
        .collect()
}

/// A point its spec's evaluator accepts, so no request of the workload
/// fails.
fn valid_point(rng: &mut Rng, handles: &[EvalHandle], hit: bool) -> EvalReq {
    loop {
        let spec = rng.below(handles.len() as u64) as usize;
        let topology = rng.topology();
        let x = rng.point(&topology);
        if handles[spec].eval(&topology, &x).is_ok() {
            return EvalReq {
                spec,
                topology,
                x,
                hit,
            };
        }
    }
}

fn hit_keys(seed: u64, handles: &[EvalHandle]) -> Vec<EvalReq> {
    let mut rng = Rng::stream(seed, 0xE7A1_0001);
    (0..HIT_KEYS)
        .map(|_| valid_point(&mut rng, handles, true))
        .collect()
}

/// A request stream (`tag` picks which) with `mix`'s share of fresh
/// points; the other requests repeat a hit key, cycling through a fixed
/// permutation.
fn stream(
    seed: u64,
    tag: u64,
    n: usize,
    mix: Mix,
    hits: &[EvalReq],
    handles: &[EvalHandle],
) -> Vec<EvalReq> {
    let mut rng = Rng::stream(seed, tag);
    let mut order: Vec<usize> = (0..hits.len()).collect();
    rng.shuffle(&mut order);
    let mut next_hit = 0;
    (0..n)
        .map(|_| {
            if rng.below(4) < mix.fresh_in_4() {
                valid_point(&mut rng, handles, false)
            } else {
                next_hit += 1;
                hits[order[(next_hit - 1) % order.len()]].clone()
            }
        })
        .collect()
}

/// Writes the starting log: every hit key evaluated once, the same on
/// every shard.
fn prepare(golden: &Path, hits: &[EvalReq]) -> Result<(), String> {
    let store = Store::open(shard_log(golden, 0)).map_err(|e| format!("store: {e}"))?;
    let service = Service::new(store);
    for (i, req) in hits.iter().enumerate() {
        let response = service.handle_line(&req.line(i as u64));
        if !is_ok(&response) {
            return Err(format!("hit key failed: {response}"));
        }
    }
    drop(service);
    replicate_shard0(golden)
}

/// Set-up's cache warm-up: every hit key once, direct to the shard the
/// ring places it on, one at a time; then one hit per shard through the
/// router, so the router has dialled every shard. (Through the router,
/// each closed-loop exchange waits out the router's idle pacing, which
/// made set-up time swing 2x between runs; pipelined, whole batches of
/// responses sometimes waited on delayed ACKs.)
fn warm_up(fabric: &Fabric, hits: &[EvalReq]) -> Result<(), String> {
    let ring = ring();
    let mut shards: Vec<Client> = fabric
        .shard_addrs
        .iter()
        .map(|a| Client::connect(a.as_str()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<_, _>>()?;
    let mut via_router =
        Client::connect(fabric.router.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut dialled = vec![false; shards.len()];
    let exchange = |client: &mut Client, line: &str| -> Result<(), String> {
        let response = client.request(line).map_err(|e| format!("warm-up: {e}"))?;
        if is_ok(&response) {
            Ok(())
        } else {
            Err(format!("warm-up eval failed: {response}"))
        }
    };
    for (i, hit) in hits.iter().enumerate() {
        let owner = ring.route(hit.topology.index() as u64).unwrap_or(0) as usize;
        let shard = shards
            .get_mut(owner)
            .ok_or_else(|| format!("no shard {owner}"))?;
        let line = hit.line(i as u64);
        exchange(shard, &line)?;
        if !dialled[owner] {
            dialled[owner] = true;
            exchange(&mut via_router, &line)?;
        }
    }
    Ok(())
}

fn lines_of(reqs: &[EvalReq]) -> Vec<String> {
    reqs.iter()
        .enumerate()
        .map(|(i, r)| r.line(i as u64))
        .collect()
}

fn stats_of(addr: SocketAddr) -> Result<oa_serve::Json, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let response = client
        .request(&request::stats(0))
        .map_err(|e| format!("stats: {e}"))?;
    stats_result(&response)
}

struct OpenLoop {
    /// Per request, from its due time to its response.
    latency_ms: Vec<f64>,
    /// Per request, how late the generator sent it.
    late_ms: Vec<f64>,
    responses: Vec<String>,
    wall_s: f64,
}

/// Sleeps until shortly before `due`, then spins, so requests leave close
/// to their due time without burning a core between them.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(50);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn response_id(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Sends `lines` (ids `0..n`) on one connection at `rate` per second from
/// a sender thread while a receiver thread collects responses.
fn open_loop(addr: SocketAddr, lines: &[String], rate: f64) -> Result<OpenLoop, String> {
    let n = lines.len();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    let wire: Vec<Vec<u8>> = lines
        .iter()
        .map(|l| format!("{l}\n").into_bytes())
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let (sent, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || -> Result<Vec<(usize, Instant, String)>, String> {
            let mut reader = BufReader::new(reader);
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => return Err("fabric closed the connection".to_owned()),
                    Ok(_) => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
                let at = Instant::now();
                let line = line.trim_end().to_owned();
                let id = response_id(&line)
                    .filter(|&id| id < n)
                    .ok_or_else(|| format!("response without a request id: {line}"))?;
                out.push((id, at, line));
            }
            Ok(out)
        });
        let mut late_ms = Vec::with_capacity(n);
        let mut writer = &stream;
        let mut sent = Ok(());
        for (i, bytes) in wire.iter().enumerate() {
            let due_at = due(i);
            wait_until(due_at);
            if let Err(e) = writer.write_all(bytes) {
                sent = Err(format!("write: {e}"));
                let _ = stream.shutdown(Shutdown::Both);
                break;
            }
            late_ms.push(ms_since(due_at));
        }
        let received = receiver
            .join()
            .unwrap_or_else(|_| Err("receiver panicked".to_owned()));
        (sent.map(|()| late_ms), received)
    });
    let late_ms = sent?;
    let received = received?;
    let mut latency_ms = vec![f64::NAN; n];
    let mut responses = vec![String::new(); n];
    let mut last = start;
    for (id, at, line) in received {
        latency_ms[id] = at.duration_since(due(id)).as_secs_f64() * 1e3;
        responses[id] = line;
        last = last.max(at);
    }
    Ok(OpenLoop {
        latency_ms,
        late_ms,
        responses,
        wall_s: last.duration_since(start).as_secs_f64(),
    })
}

/// One capacity connection: sends `lines[i]` for every `i` in `ids`,
/// keeping up to `window` in flight, and collects the responses by id.
fn windowed(
    addr: SocketAddr,
    lines: &[String],
    ids: &[usize],
    window: usize,
) -> Result<Vec<(usize, String)>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = &stream;
    let mut out = Vec::with_capacity(ids.len());
    let mut sent = 0;
    while out.len() < ids.len() {
        while sent < ids.len() && sent - out.len() < window {
            writer
                .write_all(format!("{}\n", lines[ids[sent]]).as_bytes())
                .map_err(|e| format!("write: {e}"))?;
            sent += 1;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Err("fabric closed the connection".to_owned()),
            Ok(_) => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        let line = line.trim_end().to_owned();
        let id = response_id(&line)
            .filter(|&id| id < lines.len())
            .ok_or_else(|| format!("response without a request id: {line}"))?;
        out.push((id, line));
    }
    Ok(out)
}

/// The capacity phase: `lines` (ids `0..n`) over two connections, closed
/// loop, [`CAPACITY_WINDOW`] in flight on each. Returns the responses by
/// id and the completed requests per second.
fn capacity(addr: SocketAddr, lines: &[String]) -> Result<(Vec<String>, f64), String> {
    let started = Instant::now();
    let per_conn: Vec<Result<Vec<(usize, String)>, String>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2)
            .map(|conn| {
                let ids: Vec<usize> = (conn..lines.len()).step_by(2).collect();
                scope.spawn(move || windowed(addr, lines, &ids, CAPACITY_WINDOW))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut responses = vec![String::new(); lines.len()];
    for conn in per_conn {
        for (id, line) in conn? {
            responses[id] = line;
        }
    }
    Ok((responses, lines.len() as f64 / wall_s))
}

/// What the service must answer for `req`: the direct evaluation plus its
/// WL fingerprint, rendered exactly as the service renders it.
fn expected_result(handles: &[EvalHandle], req: &EvalReq) -> String {
    let design = handles[req.spec]
        .eval(&req.topology, &req.x)
        .expect("stream points are pre-validated");
    let mut wl = WlFeaturizer::new();
    eval_result_json(&design, wl_fingerprint(&mut wl, &req.topology))
}

/// Counts non-ok responses and byte-checks every `stride`-th one against
/// `expected(i)`.
fn check_responses(
    responses: &[String],
    stride: usize,
    mut expected: impl FnMut(usize) -> String,
    problems: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for (i, response) in responses.iter().enumerate() {
        if !is_ok(response) {
            failed += 1;
            problems.push(format!("eval {i} failed: {response}"));
        } else if i % stride == 0 && result_bytes(response) != Some(expected(i).as_str()) {
            problems.push(format!(
                "eval {i} differs from the direct evaluation: {response}"
            ));
        }
    }
    failed
}

pub fn run(args: &Args, work: &Path, mix: Mix) -> Result<Outcome, String> {
    let handles = handles();
    let hits = hit_keys(args.seed, &handles);
    let n = (RATE * args.seconds as f64).round() as usize;
    let reqs = stream(args.seed, 0xE7A1_0002, n, mix, &hits, &handles);
    let closed = stream(
        args.seed,
        0xE7A1_0003,
        CAPACITY_REQUESTS,
        mix,
        &hits,
        &handles,
    );
    let golden = work.join("golden");
    prepare(&golden, &hits)?;
    let setup_dir = |rep: usize| work.join(format!("setup{rep}"));
    let mut before = |rep| copy_stores(&golden, &setup_dir(rep));
    let mut start = |rep| {
        let fabric = spawn_fabric(&setup_dir(rep))?;
        warm_up(&fabric, &hits)?;
        Ok(fabric)
    };
    let (fabric, mut setup_s) =
        repeated_setup(BEFORE_LOAD, &mut before, &mut start, Fabric::shutdown)?;
    let addr = fabric.router.addr();
    let load = open_loop(addr, &lines_of(&reqs), RATE);
    let closed_loop = load
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|_| capacity(addr, &lines_of(&closed)));
    let stats = stats_of(addr);
    fabric.shutdown();
    let (last, after) = repeated_setup(AFTER_LOAD, &mut before, &mut start, Fabric::shutdown)?;
    last.shutdown();
    setup_s.extend(after);
    let load = load?;
    let (closed_responses, capacity_per_s) = closed_loop?;
    let stats = stats?;

    let mut outcome = Outcome {
        attempted: (n + closed.len()) as u64,
        ..Outcome::default()
    };
    let stride = (n / CHECKED).max(1);
    outcome.failed = check_responses(
        &load.responses,
        stride,
        |i| expected_result(&handles, &reqs[i]),
        &mut outcome.problems,
    );
    outcome.failed += check_responses(
        &closed_responses,
        (closed.len() / CHECKED).max(1),
        |i| expected_result(&handles, &closed[i]),
        &mut outcome.problems,
    );
    println!(
        "  gen.late_ms_p99 = {:.4} ms; offered {RATE}/s; {} of {n} requests fresh",
        percentile(&load.late_ms, 99.0),
        reqs.iter().filter(|r| !r.hit).count()
    );
    println!(
        "  layers (stats): store.hit_ratio={:.4} sims={} graph.wl_hit_ratio={:.4} plan_hit_ratio={:.4}",
        ratio(stat(&stats, &["store", "hits"]), stat(&stats, &["store", "misses"])),
        stat(&stats, &["sims"]),
        ratio(stat(&stats, &["wl", "hits"]), stat(&stats, &["wl", "misses"])),
        ratio(stat(&stats, &["plan", "hits"]), stat(&stats, &["plan", "misses"])),
    );
    outcome.counters = Some(work_counters(&stats));
    end_to_end(
        &mut outcome,
        "eval",
        (SetupStat::Median, &setup_s),
        &load.latency_ms,
        TAIL_P,
        n as f64 / load.wall_s,
    );
    println!(
        "  eval.capacity_per_s = {capacity_per_s:.1} (diagnostic: {} closed-loop requests, {CAPACITY_WINDOW} in flight on each of 2 connections)",
        closed.len()
    );
    Ok(outcome)
}

/// `Service`'s store-through eval path re-composed from the layers'
/// public functions (key → store get → simulate → WL fingerprint →
/// render → store put), traced per layer, over a fresh store in `dir`.
/// Returns the spans, the wall time and the result bytes of every request.
fn replica(
    dir: &Path,
    reqs: &[EvalReq],
    handles: &[EvalHandle],
    on: bool,
) -> Result<(Tracer, f64, Vec<String>), String> {
    let tracer = Tracer::new(on);
    let mut store = Store::open(shard_log(dir, 0)).map_err(|e| format!("store: {e}"))?;
    let process_hash = process_fingerprint(handles[0].evaluator());
    let mut wl = WlFeaturizer::new();
    let mut out = Vec::with_capacity(reqs.len());
    let started = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        let id = i as u64;
        let handle = &handles[req.spec];
        let key = tracer.time("serve", "key", id, || {
            EvalKey {
                kind: EvalKind::Eval,
                topology_code: req.topology.index() as u64,
                x_bits: req.x.iter().map(|v| v.to_bits()).collect(),
                spec_id: handle.spec().name.to_owned(),
                process_hash,
                seed: 0,
            }
            .encode()
        });
        let result = match tracer.time("store", "get", id, || store.get(&key)) {
            Some(bytes) => {
                String::from_utf8(bytes).map_err(|_| "corrupt store value".to_owned())?
            }
            None => {
                let design = tracer
                    .time("sim", "eval", id, || handle.eval(&req.topology, &req.x))
                    .map_err(|e| format!("eval: {e}"))?;
                let fingerprint = tracer.time("graph", "wl_fingerprint", id, || {
                    wl_fingerprint(&mut wl, &req.topology)
                });
                let text = tracer.time("serve", "render", id, || {
                    eval_result_json(&design, fingerprint)
                });
                tracer
                    .time("store", "put", id, || store.put(&key, text.as_bytes()))
                    .map_err(|e| format!("store put: {e}"))?;
                text
            }
        };
        out.push(result);
    }
    Ok((tracer, ms_since(started), out))
}

/// Round trip (ms) of every request of `reqs`, one at a time, through a
/// fresh fabric over the stores in `dir`: via the router, or `direct` to
/// the shard the ring places the request on.
fn round_trips(
    dir: &Path,
    reqs: &[EvalReq],
    direct: bool,
    ledger: &mut Ledger,
) -> Result<Vec<f64>, String> {
    let fabric = spawn_fabric(dir)?;
    let connect = |addr: &str| Client::connect(addr).map_err(|e| format!("connect: {e}"));
    let clients: Result<Vec<Client>, String> = if direct {
        fabric.shard_addrs.iter().map(|a| connect(a)).collect()
    } else {
        connect(&fabric.router.addr().to_string()).map(|c| vec![c])
    };
    let ring = ring();
    let timed = clients.and_then(|mut clients| {
        let mut rtt_ms = Vec::with_capacity(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            let owner = if direct {
                ring.route(req.topology.index() as u64).unwrap_or(0) as usize
            } else {
                0
            };
            let client = clients
                .get_mut(owner)
                .ok_or_else(|| format!("no shard {owner}"))?;
            let started = Instant::now();
            let response = client
                .request(&req.line(i as u64))
                .map_err(|e| format!("socket: {e}"))?;
            rtt_ms.push(ms_since(started));
            if !is_ok(&response) {
                ledger.failed += 1;
                ledger
                    .problems
                    .push(format!("probe eval failed: {response}"));
            }
        }
        Ok(rtt_ms)
    });
    fabric.shutdown();
    ledger.attempted += reqs.len() as u64;
    timed
}

/// Hit-request entries of `values`, in stream order.
fn hits_of(reqs: &[EvalReq], values: &[f64]) -> Vec<f64> {
    reqs.iter()
        .zip(values)
        .filter(|(r, _)| r.hit)
        .map(|(_, v)| *v)
        .collect()
}

/// The eval layers' ledger. Store recovery; then [`PROBE_REPS`] times,
/// each over fresh store copies: the stream through `Service::handle_line`
/// in process, through the fabric via the router (the end-to-end time:
/// summed round trips), direct to the owning shards, and the traced
/// in-process replica (serve, store, sim, graph). The router's share is
/// via-router minus direct round trips; transport's is direct round trips
/// minus `handle_line`. Last, one open-loop pass through the fabric
/// (generator lateness, `stats` counters, response bytes).
///
/// The stream is `eval_open`'s mix whichever the workload, so hit and
/// miss paths are both measured. `own` is the workload when it is an eval
/// workload: its replica also runs untraced, and for `eval_hit` the
/// end-to-end time and the named layers count only the stream's hits.
pub fn probe(
    seed: u64,
    work: &Path,
    own: Option<Mix>,
    ledger: &mut Ledger,
) -> Result<Probe, String> {
    let handles = handles();
    let hits = hit_keys(seed, &handles);
    let reqs = stream(
        seed,
        0xE7A1_0002,
        PROBE_REQUESTS,
        Mix::Open,
        &hits,
        &handles,
    );
    let counted: Vec<bool> = reqs
        .iter()
        .map(|r| own != Some(Mix::Hit) || r.hit)
        .collect();
    let counted_sum = |values: &[f64]| -> f64 {
        values
            .iter()
            .zip(&counted)
            .filter(|(_, &c)| c)
            .map(|(v, _)| v)
            .sum()
    };
    let golden = work.join("eval-golden");
    prepare(&golden, &hits)?;
    let fresh = |name: String| -> Result<PathBuf, String> {
        let dir = work.join(name);
        copy_stores(&golden, &dir)?;
        Ok(dir)
    };

    let recover: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let opened = Store::open(shard_log(&golden, 0)).map(|s| s.len());
            let elapsed = ms_since(started);
            std::hint::black_box(opened.is_ok());
            elapsed
        })
        .collect();
    ledger.put("store.recover_ms", median(&recover), "ms");

    let (mut handled_ms, mut via_router_ms, mut direct_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hit_us, mut miss_us, mut router_hit_ms, mut direct_hit_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut untraced_ms, mut best) = (Vec::new(), None::<(Tracer, f64, Vec<String>)>);
    for rep in 0..PROBE_REPS {
        let dir = fresh(format!("eval-serve{rep}"))?;
        let service =
            Service::new(Store::open(shard_log(&dir, 0)).map_err(|e| format!("store: {e}"))?);
        let mut handled_us = Vec::with_capacity(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            let line = req.line(i as u64);
            let started = Instant::now();
            let response = service.handle_line(&line);
            let elapsed = us_since(started);
            handled_us.push(elapsed);
            if req.hit { &mut hit_us } else { &mut miss_us }.push(elapsed);
            if !is_ok(&response) {
                ledger.failed += 1;
                ledger
                    .problems
                    .push(format!("in-process eval failed: {response}"));
            }
        }
        drop(service);
        ledger.attempted += reqs.len() as u64;
        handled_ms.push(counted_sum(&handled_us) / 1e3);

        let rtt = round_trips(&fresh(format!("eval-router{rep}"))?, &reqs, false, ledger)?;
        via_router_ms.push(counted_sum(&rtt));
        router_hit_ms.extend(hits_of(&reqs, &rtt));
        let rtt = round_trips(&fresh(format!("eval-direct{rep}"))?, &reqs, true, ledger)?;
        direct_ms.push(counted_sum(&rtt));
        direct_hit_ms.extend(hits_of(&reqs, &rtt));

        if own.is_some() {
            let dir = fresh(format!("eval-untraced{rep}"))?;
            untraced_ms.push(replica(&dir, &reqs, &handles, false)?.1);
        }
        let traced = replica(&fresh(format!("eval-replica{rep}"))?, &reqs, &handles, true)?;
        ledger.attempted += reqs.len() as u64;
        if best.as_ref().is_none_or(|b| traced.1 < b.1) {
            best = Some(traced);
        }
    }
    let Some((tracer, traced_ms, replica_results)) = best else {
        unreachable!("PROBE_REPS is positive")
    };
    let handle_hit_us = median(&hit_us);
    ledger.put("serve.handle_hit_us_p50", handle_hit_us, "us");
    ledger.put("serve.handle_miss_us_p50", median(&miss_us), "us");
    let direct_hit_p50 = median(&direct_hit_ms);
    ledger.put(
        "router.hop_ms_p50",
        median(&router_hit_ms) - direct_hit_p50,
        "ms",
    );
    ledger.put(
        "serve.transport_us_p50",
        direct_hit_p50 * 1e3 - handle_hit_us,
        "us",
    );
    ledger.put(
        "store.get_us_p50",
        median(&tracer.durations_us("store", "get")),
        "us",
    );
    ledger.put(
        "store.put_us_p50",
        median(&tracer.durations_us("store", "put")),
        "us",
    );
    let featurize_us: Vec<f64> = reqs
        .iter()
        .filter(|r| !r.hit)
        .map(|r| {
            let mut featurizer = WlFeaturizer::new();
            let started = Instant::now();
            std::hint::black_box(featurizer.featurize_topology(&r.topology, 2));
            us_since(started)
        })
        .collect();
    ledger.put("graph.featurize_us_p50", median(&featurize_us), "us");

    let fabric = spawn_fabric(&fresh("eval-fabric".to_owned())?)?;
    let through_fabric = fabric_pass(&fabric, &hits, &lines_of(&reqs), ledger);
    fabric.shutdown();
    let responses = through_fabric?;
    ledger.attempted += reqs.len() as u64;
    ledger.failed += check_responses(
        &responses,
        1,
        |i| replica_results[i].clone(),
        &mut ledger.problems,
    );

    let (e2e_ms, direct, handled) = (min(&via_router_ms), min(&direct_ms), min(&handled_ms));
    Ok(Probe {
        e2e: match own {
            Some(Mix::Hit) => "store-hit eval round trips via the router",
            _ => "eval round trips via the router",
        },
        e2e_ms,
        traced_ms,
        untraced_ms: own.map(|_| min(&untraced_ms)),
        derived: vec![("router", e2e_ms - direct), ("transport", direct - handled)],
        tracer,
        counted: Some(counted),
    })
}

/// Warm-up, the open-loop stream and `stats`. Returns the stream's
/// responses.
fn fabric_pass(
    fabric: &oa_router::Fabric,
    hits: &[EvalReq],
    lines: &[String],
    ledger: &mut Ledger,
) -> Result<Vec<String>, String> {
    let addr = fabric.router.addr();
    warm_up(fabric, hits)?;
    let load = open_loop(addr, lines, RATE)?;
    ledger.put("gen.late_ms_p99", percentile(&load.late_ms, 99.0), "ms");
    let stats = stats_of(addr)?;
    ledger.put(
        "store.hit_ratio",
        ratio(
            stat(&stats, &["store", "hits"]),
            stat(&stats, &["store", "misses"]),
        ),
        "ratio",
    );
    ledger.put(
        "store.appended_records",
        stat(&stats, &["store", "appended_records"]),
        "count",
    );
    ledger.put(
        "store.log_bytes",
        stat(&stats, &["store", "log_bytes"]),
        "bytes",
    );
    ledger.put("sim.calls", stat(&stats, &["sims"]), "count");
    ledger.put(
        "sim.plan_hit_ratio",
        ratio(
            stat(&stats, &["plan", "hits"]),
            stat(&stats, &["plan", "misses"]),
        ),
        "ratio",
    );
    ledger.put(
        "graph.wl_hit_ratio",
        ratio(
            stat(&stats, &["wl", "hits"]),
            stat(&stats, &["wl", "misses"]),
        ),
        "ratio",
    );
    Ok(load.responses)
}
