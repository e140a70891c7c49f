//! `session_warm`: BO-as-a-service tenants through the fabric, closed
//! loop, warm-started from a spec family.
//!
//! Two connections each run back-to-back fixed-length sessions opened as
//! `open_session{specs:[S-1,S-2,S-3]}` with the serving defaults (4 init
//! draws, pool 64, 4+8 sizing). The starting log holds `size_opt`
//! records for S-2 and S-3, so every session seeds its WL-GP from them.
//! Session ids are picked with the router's ring so the two live
//! sessions sit on different shards. Topology BO and the WL-GP fits are
//! nearly all of a step; sizing and simulation are a few percent.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use into_oa::{EvalHandle, Evaluator, Spec};
use oa_bo::{BoSession, TopoBoConfig};
use oa_circuit::ParamSpace;
use oa_gp::WlGp;
use oa_graph::WlFeaturizer;
use oa_router::Fabric;
use oa_serve::{
    observation_from_perf, process_fingerprint, request, size_opt_result_json, Client, Json,
    Service,
};
use oa_store::{EvalKey, EvalKind, Store};

use crate::common::{
    copy_stores, is_ok, ms_since, repeated_setup, replicate_shard0, ring, shard_log, spawn_fabric,
    stat, stats_result, work_counters, AFTER_LOAD, BEFORE_LOAD, SHARDS,
};
use crate::gen::Rng;
use crate::ledger::{Ledger, Probe, PROBE_REPS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{end_to_end, Args, Outcome, SetupStat};

/// Target first, then the warm family.
const SPECS: [&str; 3] = ["S-1", "S-2", "S-3"];
/// Family `size_opt` records per family spec in the starting log.
const FAMILY_RECORDS_PER_SPEC: usize = 40;
/// Serving defaults of `open_session`.
const N_INIT: usize = 4;
const POOL: usize = 64;
const SIZE_INIT: usize = 4;
const SIZE_ITER: usize = 8;
const WL_LEVELS: usize = 4;
/// Steps per session: 4 init draws, then BO proposals.
const STEPS: u64 = 16;
/// Wall seconds one session takes on a 2-core x86-64 host; sets how many
/// sessions per connection fill `--seconds`.
const SESSION_SECONDS: f64 = 2.3;
const TAIL_P: f64 = 90.0;

pub struct Plan {
    id: u64,
    seed: u64,
}

/// `count` sessions for connection `conn`, every id placed on shard
/// `conn` by the ring. The first is set-up's warm-up session.
fn plans(seed: u64, conn: u32, count: usize) -> Vec<Plan> {
    let ring = ring();
    let mut rng = Rng::stream(seed, 0x5E55_0000 + conn as u64);
    let mut out: Vec<Plan> = Vec::with_capacity(count);
    while out.len() < count {
        let id = rng.wire_u64();
        if ring.route(id) == Some(conn) && !out.iter().any(|p| p.id == id) {
            out.push(Plan {
                id,
                seed: rng.wire_u64(),
            });
        }
    }
    out
}

fn open_line(id: u64, plan: &Plan) -> String {
    request::open_session(
        id, plan.id, &SPECS, plan.seed, N_INIT, POOL, SIZE_INIT, SIZE_ITER,
    )
}

fn session_config(seed: u64) -> TopoBoConfig {
    TopoBoConfig {
        n_init: N_INIT,
        n_iter: 0,
        pool_size: POOL,
        mutation_fraction: 0.5,
        elite_count: 5,
        wl_levels: WL_LEVELS,
        seed,
    }
}

/// Writes the starting log: family `size_opt` records for S-2 and S-3,
/// the same on every shard. The family is a fixed fixture (seed 0): the
/// benchmark seed picks the tenants, so every run warm-starts from the
/// same records and spread comes from the sessions alone.
fn prepare(golden: &Path) -> Result<(), String> {
    let store = Store::open(shard_log(golden, 0)).map_err(|e| format!("store: {e}"))?;
    let service = Service::new(store);
    let mut rng = Rng::stream(0, 0xFA51);
    let mut id = 0;
    for spec in &SPECS[1..] {
        for _ in 0..FAMILY_RECORDS_PER_SPEC {
            id += 1;
            let topology = rng.topology().index();
            let line = request::size_opt(id, spec, topology, rng.wire_u64(), SIZE_INIT, SIZE_ITER);
            let response = service.handle_line(&line);
            if !is_ok(&response) {
                return Err(format!("family record failed: {response}"));
            }
        }
    }
    drop(service);
    replicate_shard0(golden)
}

/// The served step's topology, checking the frame is an ok step `step`.
fn step_topology(response: &str, step: u64) -> Result<u64, String> {
    let parsed = Json::parse(response).map_err(|e| format!("step response: {e}"))?;
    let result = parsed
        .get("result")
        .filter(|_| parsed.get("ok").and_then(Json::as_bool) == Some(true))
        .ok_or_else(|| format!("step {step} failed: {response}"))?;
    if result.get("step").and_then(Json::as_u64) != Some(step) {
        return Err(format!("step counter is not {step}: {response}"));
    }
    result
        .get("topology")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("step {step} proposed nothing: {response}"))
}

fn exchange(client: &mut Client, line: &str) -> Result<String, String> {
    client.request(line).map_err(|e| format!("socket: {e}"))
}

/// Set-up's cache warm-up: open and close one session per shard, so each
/// shard has run its warm-start scan once. Connection `i`'s sessions live
/// on shard `i`, so they go direct to it: through the router each
/// exchange would wait out its idle pacing (up to 5 ms), which made
/// set-up time swing 10-24 ms between repetitions.
fn warm_up(fabric: &Fabric, plans: &[Vec<Plan>]) -> Result<(), String> {
    for (i, conn_plans) in plans.iter().enumerate() {
        let addr = fabric
            .shard_addrs
            .get(i)
            .ok_or_else(|| format!("no shard {i}"))?;
        let mut client = Client::connect(addr.as_str()).map_err(|e| format!("connect: {e}"))?;
        let plan = &conn_plans[0];
        for line in [
            open_line(i as u64, plan),
            request::close_session(i as u64, plan.id),
        ] {
            let response = exchange(&mut client, &line)?;
            if !is_ok(&response) {
                return Err(format!("warm-up failed: {response}"));
            }
        }
    }
    Ok(())
}

#[derive(Default)]
struct Served {
    step_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// One connection's closed loop: each session opens, steps `STEPS`
/// times, closes. Only the step exchanges are timed.
fn drive(addr: SocketAddr, sessions: &[Plan]) -> Result<Served, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = Served::default();
    let mut id = 0u64;
    for plan in sessions {
        for step in 0..=STEPS + 1 {
            id += 1;
            let line = match step {
                0 => open_line(id, plan),
                s if s > STEPS => request::close_session(id, plan.id),
                _ => request::step(id, plan.id),
            };
            let started = Instant::now();
            let response = exchange(&mut client, &line)?;
            let elapsed = ms_since(started);
            out.attempted += 1;
            let checked = if (1..=STEPS).contains(&step) {
                out.step_ms.push(elapsed);
                step_topology(&response, step).map(drop)
            } else if is_ok(&response) {
                Ok(())
            } else {
                Err(format!("session op failed: {response}"))
            };
            if let Err(e) = checked {
                out.failed += 1;
                out.problems.push(e);
            }
        }
    }
    Ok(out)
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let golden = work.join("golden");
    prepare(&golden)?;
    let per_conn = ((args.seconds as f64 / SESSION_SECONDS).round() as usize).max(1);
    let plans: Vec<Vec<Plan>> = (0..SHARDS)
        .map(|conn| plans(args.seed, conn, per_conn + 1))
        .collect();
    let setup_dir = |rep: usize| work.join(format!("setup{rep}"));
    let mut before = |rep| copy_stores(&golden, &setup_dir(rep));
    let mut start = |rep| {
        let fabric = spawn_fabric(&setup_dir(rep))?;
        warm_up(&fabric, &plans)?;
        Ok(fabric)
    };
    let (fabric, mut setup_s) =
        repeated_setup(BEFORE_LOAD, &mut before, &mut start, Fabric::shutdown)?;
    let addr = fabric.router.addr();
    let started = Instant::now();
    let served: Vec<Result<Served, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|p| scope.spawn(move || drive(addr, &p[1..])))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let stats = Client::connect(addr)
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut c| exchange(&mut c, &request::stats(0)))
        .and_then(|r| stats_result(&r));
    fabric.shutdown();
    let (last, after) = repeated_setup(AFTER_LOAD, &mut before, &mut start, Fabric::shutdown)?;
    last.shutdown();
    setup_s.extend(after);

    let mut outcome = Outcome::default();
    let mut step_ms = Vec::new();
    for conn in served {
        let conn = conn?;
        step_ms.extend(conn.step_ms);
        outcome.attempted += conn.attempted;
        outcome.failed += conn.failed;
        outcome.problems.extend(conn.problems);
    }
    let stats = stats?;
    println!(
        "  layers (stats): sims={} plan_hit_ratio={:.4} session_ops={} store.appended_records={}",
        stat(&stats, &["sims"]),
        crate::common::ratio(
            stat(&stats, &["plan", "hits"]),
            stat(&stats, &["plan", "misses"])
        ),
        stat(&stats, &["endpoints", "session", "count"]),
        stat(&stats, &["store", "appended_records"]),
    );
    outcome.counters = Some(work_counters(&stats));
    let steps = step_ms.len() as f64;
    end_to_end(
        &mut outcome,
        "step",
        (SetupStat::Median, &setup_s),
        &step_ms,
        TAIL_P,
        steps / wall_s,
    );
    Ok(outcome)
}

/// The first load session of connection 0, re-composed in process from
/// the layers' public functions as a shard serves it: the store's warm
/// scan, `BoSession` propose/observe, and per step the store-through
/// `size_opt` (key → store get → `EvalHandle::size_opt` → render → store
/// put) and `observation_from_perf`. It runs one step at a time, so the
/// probe can interleave it with the served session.
struct Replica {
    tracer: Tracer,
    /// Time spent inside [`Replica::open`] and [`Replica::step`].
    wall_ms: f64,
    topologies: Vec<u64>,
    /// Per BO-phase step: proposal time and GP training-set size.
    propose_ms: Vec<f64>,
    train_points: Vec<usize>,
    bo: BoSession,
    store: Store,
    spec: Spec,
    handle: EvalHandle,
    process_hash: u64,
    seed: u64,
}

impl Replica {
    /// The session's open: warm scan and seeding.
    fn open(service: &Service, store: Store, plan: &Plan, on: bool) -> Replica {
        let tracer = Tracer::new(on);
        let spec = Spec::s1();
        let handle = Evaluator::new(spec).into_handle();
        let process_hash = process_fingerprint(handle.evaluator());
        let family: Vec<String> = SPECS[1..].iter().map(|s| s.to_string()).collect();
        let started = Instant::now();
        let warm = tracer.time("store", "warm_scan", 0, || {
            service.warm_observations(SPECS[0], &family)
        });
        let mut bo = BoSession::new(session_config(plan.seed));
        tracer.time("bo", "seed_observation", 0, || {
            for (topology, observation) in warm {
                bo.seed_observation(topology, observation);
            }
        });
        Replica {
            wall_ms: ms_since(started),
            tracer,
            topologies: Vec::new(),
            propose_ms: Vec::new(),
            train_points: Vec::new(),
            bo,
            store,
            spec,
            handle,
            process_hash,
            seed: plan.seed,
        }
    }

    fn step(&mut self, step: u64) {
        let started = Instant::now();
        let Replica {
            tracer,
            bo,
            store,
            spec,
            handle,
            ..
        } = self;
        let in_bo = !bo.in_init_phase();
        let train = bo.warm().len() + bo.history().len();
        let proposed_at = Instant::now();
        let proposal = tracer.time("bo", "propose", step, || bo.propose_default());
        if in_bo {
            self.propose_ms.push(ms_since(proposed_at));
            self.train_points.push(train);
        }
        if let Some(topology) = proposal {
            let key = tracer.time("serve", "key", step, || {
                EvalKey {
                    kind: EvalKind::SizeOpt,
                    topology_code: topology.index() as u64,
                    x_bits: vec![SIZE_INIT as u64, SIZE_ITER as u64],
                    spec_id: spec.name.to_owned(),
                    process_hash: self.process_hash,
                    seed: self.seed,
                }
                .encode()
            });
            let stored = tracer.time("store", "get", step, || store.get(&key));
            let design = match stored {
                // A session's topologies are new to the store (the family
                // records belong to other specs and a session proposes each
                // topology once), so a hit means the replica drifted: it
                // then observes nothing and the transcript check fails.
                Some(_) => None,
                None => {
                    let (design, sims) = tracer.time("core", "size_opt", step, || {
                        handle.size_opt(&topology, self.seed, SIZE_INIT, SIZE_ITER)
                    });
                    let text = tracer.time("serve", "render", step, || {
                        let x = design
                            .as_ref()
                            .map(|d| ParamSpace::for_topology(&d.topology).encode(&d.values))
                            .unwrap_or_default();
                        size_opt_result_json(&design, sims, &x)
                    });
                    let put =
                        tracer.time("store", "put", step, || store.put(&key, text.as_bytes()));
                    if let Err(e) = put {
                        eprintln!("oa-perfbench: replica store put: {e}");
                    }
                    design
                }
            };
            let observation = tracer.time("serve", "observation", step, || {
                design
                    .as_ref()
                    .map(|d| observation_from_perf(spec, &d.performance))
            });
            tracer.time("bo", "observe", step, || bo.observe(topology, observation));
            self.topologies.push(topology.index() as u64);
        }
        self.wall_ms += ms_since(started);
    }
}

/// One session served through a fresh fabric.
struct ServedSession {
    topologies: Vec<u64>,
    /// Summed round trips of the open and every step.
    rtt_ms: f64,
    /// The shards' own time for those operations (`stats` session
    /// `micros`), and how many there were.
    server_ms: f64,
    ops: f64,
}

/// Serves one session through the router and, right after each served
/// step, runs the same step of every replica.
fn served_session(
    addr: SocketAddr,
    plan: &Plan,
    replicas: &mut [Replica],
    ledger: &mut Ledger,
) -> Result<ServedSession, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut call = |line: String, ledger: &mut Ledger| -> Result<(String, f64), String> {
        ledger.attempted += 1;
        let started = Instant::now();
        let response = exchange(&mut client, &line)?;
        let elapsed = ms_since(started);
        if !is_ok(&response) {
            return Err(format!("probe session op failed: {response}"));
        }
        Ok((response, elapsed))
    };
    let before = stats_result(&call(request::stats(1), ledger)?.0)?;
    let (_, mut rtt_ms) = call(open_line(2, plan), ledger)?;
    let mut topologies = Vec::new();
    for step in 1..=STEPS {
        let (response, elapsed) = call(request::step(2 + step, plan.id), ledger)?;
        rtt_ms += elapsed;
        topologies.push(step_topology(&response, step)?);
        for replica in replicas.iter_mut() {
            replica.step(step);
        }
    }
    let after = stats_result(&call(request::stats(99), ledger)?.0)?;
    call(request::close_session(100, plan.id), ledger)?;
    let delta = |field: &str| {
        stat(&after, &["endpoints", "session", field])
            - stat(&before, &["endpoints", "session", field])
    };
    Ok(ServedSession {
        topologies,
        rtt_ms,
        server_ms: delta("micros") / 1e3,
        ops: delta("count"),
    })
}

/// One probe repetition: a served session and the replicas interleaved
/// with it step by step, so all sample the same host phase.
struct Rep {
    served: ServedSession,
    traced: Replica,
    untraced_ms: Option<f64>,
}

impl Rep {
    /// The named layers' time (replica spans plus the router's share) as
    /// a share of this repetition's served round trips.
    fn coverage(&self) -> f64 {
        let spans: f64 = self.traced.tracer.self_ms().values().sum();
        (spans + self.served.rtt_ms - self.served.server_ms) / self.served.rtt_ms
    }
}

/// The session layers' ledger. [`PROBE_REPS`] times: one session served
/// through a fresh fabric (the end-to-end time: open plus every step),
/// with its in-process replica (bo, core, store, serve spans) run right
/// after each served step, traced and, for the workload's own probe,
/// untraced. The router's share (router plus transport) is the served
/// round trips minus the shards' own session time. Interleaving step by
/// step keeps the served session and its replica in the same host phase
/// (whole sessions run one after the other differed by up to 25%, which
/// reads as a missing or double-counted layer); every figure then comes
/// from the repetition with the median coverage. WL-GP fits are replayed
/// on the replica's training sets.
pub fn probe(
    seed: u64,
    work: &Path,
    repeat_untraced: bool,
    ledger: &mut Ledger,
) -> Result<Probe, String> {
    let golden = work.join("session-golden");
    prepare(&golden)?;
    let plan = plans(seed, 0, 2).swap_remove(1);
    let service =
        Service::new(Store::open(shard_log(&golden, 0)).map_err(|e| format!("store: {e}"))?);
    let replica_in = |name: String, on: bool| -> Result<Replica, String> {
        let dir = work.join(name);
        copy_stores(&golden, &dir)?;
        let store = Store::open(shard_log(&dir, 0)).map_err(|e| format!("store: {e}"))?;
        Ok(Replica::open(&service, store, &plan, on))
    };

    let mut reps = Vec::with_capacity(PROBE_REPS);
    for rep in 0..PROBE_REPS {
        let dir = work.join(format!("session-fabric{rep}"));
        copy_stores(&golden, &dir)?;
        let fabric = spawn_fabric(&dir)?;
        let mut replicas = vec![replica_in(format!("session-replica{rep}"), true)?];
        if repeat_untraced {
            replicas.push(replica_in(format!("session-untraced{rep}"), false)?);
        }
        let served = served_session(fabric.router.addr(), &plan, &mut replicas, ledger);
        fabric.shutdown();
        let served = served?;
        let untraced_ms = (replicas.len() > 1).then(|| replicas.swap_remove(1).wall_ms);
        let traced = replicas.swap_remove(0);
        ledger.attempted += STEPS;
        if traced.topologies != served.topologies {
            ledger.problems.push(format!(
                "session replica proposed {:?}, the fabric served {:?}",
                traced.topologies, served.topologies
            ));
        }
        reps.push(Rep {
            served,
            traced,
            untraced_ms,
        });
    }
    let coverages: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.1}%", r.coverage() * 100.0))
        .collect();
    println!(
        "  session probe coverage per repetition: {}",
        coverages.join(" ")
    );
    reps.sort_by(|a, b| a.coverage().total_cmp(&b.coverage()));
    let Rep {
        served,
        traced: out,
        untraced_ms,
    } = reps.swap_remove(reps.len() / 2);
    let router_ms = served.rtt_ms - served.server_ms;
    ledger.put("router.step_overhead_ms", router_ms / served.ops, "ms");
    ledger.put("bo.propose_ms_p50", median(&out.propose_ms), "ms");
    let train: Vec<f64> = out.train_points.iter().map(|&n| n as f64).collect();
    ledger.put("bo.train_points_p50", median(&train), "count");
    ledger.put("bo.rejected", out.bo.rejected() as f64, "count");

    let family: Vec<String> = SPECS[1..].iter().map(|s| s.to_string()).collect();
    let scans: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(service.warm_observations(SPECS[0], &family));
            ms_since(started)
        })
        .collect();
    ledger.put("store.warm_scan_ms", median(&scans), "ms");

    // WL-GP objective fits on exactly the training sets the BO steps saw
    // (warm records first, then the session's own history).
    let mut featurizer = WlFeaturizer::new();
    let records: Vec<_> = out
        .bo
        .warm()
        .iter()
        .chain(out.bo.history())
        .map(|r| {
            (
                featurizer.featurize_topology(&r.topology, WL_LEVELS),
                r.observation.objective,
            )
        })
        .collect();
    let fits: Vec<f64> = out
        .train_points
        .iter()
        .map(|&n| {
            let feats = records[..n].iter().map(|(f, _)| f.clone()).collect();
            let y = records[..n].iter().map(|(_, y)| *y).collect();
            let started = Instant::now();
            let fitted = WlGp::fit(feats, y);
            let elapsed = ms_since(started);
            std::hint::black_box(fitted.is_ok());
            elapsed
        })
        .collect();
    ledger.put("gp.wl_fit_ms_p50", median(&fits), "ms");
    Ok(Probe {
        e2e: "served open + step round trips",
        e2e_ms: served.rtt_ms,
        traced_ms: out.wall_ms,
        untraced_ms,
        derived: vec![("router", router_ms)],
        tracer: out.tracer,
        counted: None,
    })
}
