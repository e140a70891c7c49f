//! `batch_paper`: the offline optimizer in process, single-threaded, run
//! back to back over a fixed set of (spec, seed) pairs in a seeded order,
//! at the quick outer budget (8 init + 22 iterations, pool 100) with the
//! paper's sizing budget (10 + 30). Sizing is most of the time and the
//! simulator a few percent of that; no router, serve or store code runs.

use std::sync::Arc;
use std::time::Instant;

use into_oa::{
    optimize, EvaluatedTopology, Evaluator, IntoOaConfig, OptimizationRun, SizedDesign, Spec,
};
use oa_bo::{
    maximize_constrained_anchored, topology_bo, BoConfig, Observation, TopoBoConfig,
    TopoObservation,
};
use oa_circuit::{DeviceValues, ParamKind, ParamSpace, Topology};
use oa_gp::GpRegressor;
use oa_sim::OpAmpPerformance;

use crate::common::{ms_since, us_since};
use crate::gen::Rng;
use crate::ledger::{Ledger, Probe, PROBE_REPS};
use crate::stats::{median, min};
use crate::trace::Tracer;
use crate::{end_to_end, Args, Outcome, SetupStat};

/// Wall seconds one optimization run takes on a 2-core x86-64 host; sets
/// how many (spec, seed) pairs fill `--seconds`.
const RUN_SECONDS: f64 = 1.3;
const TAIL_P: f64 = 75.0;
/// Runs of each (spec, seed) pair, as the program and as the
/// re-composition. Each timing keeps its fastest run (per sizing, for
/// the re-composition): host noise only ever slows this single-threaded
/// work down, by up to 1.6x for seconds at a time.
const TIMES: usize = 2;

fn config(seed: u64) -> IntoOaConfig {
    IntoOaConfig {
        topo: TopoBoConfig {
            n_init: 8,
            n_iter: 22,
            pool_size: 100,
            seed,
            ..TopoBoConfig::default()
        },
        sizing: BoConfig {
            n_init: 10,
            n_iter: 30,
            n_candidates: 100,
            seed,
        },
        ..IntoOaConfig::default()
    }
}

/// `count` (spec, seed) pairs in an order the benchmark seed picks. The
/// pairs themselves are fixed (specs cycle, run seeds from a fixed
/// stream), so runs of every seed do the same work and spread measures
/// the host, not the mix of topologies a seed's runs happen to size.
fn pairs(seed: u64, count: usize) -> Vec<(Spec, u64)> {
    let mut fixed = Rng::stream(0, 0xBA7C);
    let specs = Spec::all();
    let mut out: Vec<(Spec, u64)> = (0..count)
        .map(|i| (specs[i % specs.len()], fixed.wire_u64()))
        .collect();
    Rng::stream(seed, 0xBA7C).shuffle(&mut out);
    out
}

fn evaluator_for(spec: &Spec, config: &IntoOaConfig) -> Evaluator {
    Evaluator::with_options(*spec, config.process, config.ac)
}

/// `into_oa::optimize` re-composed from its public parts around a
/// caller-supplied sizing oracle, so the oracle can be timed or traced.
/// With `Evaluator::size` as the oracle it is the same run, record for
/// record (checked against `optimize` on every run).
fn optimize_with(
    evaluator: &Evaluator,
    config: &IntoOaConfig,
    mut size: impl FnMut(&Topology) -> (Option<SizedDesign>, usize),
) -> OptimizationRun {
    let spec = *evaluator.spec();
    let topo = TopoBoConfig {
        mutation_fraction: config.strategy.mutation_fraction(),
        ..config.topo
    };
    let mut records = Vec::new();
    let mut cum_sims = 0usize;
    let result = topology_bo(&topo, |t| {
        let (design, sims) = size(t);
        cum_sims += sims;
        let design = design?;
        let observation = TopoObservation {
            objective: design.fom.max(1.0).log10(),
            constraints: spec.constraints(&design.performance),
            metrics: vec![
                design.performance.gain_db,
                design.performance.gbw_hz,
                design.performance.pm_deg,
                design.performance.power_w,
                design.fom,
            ],
        };
        records.push(EvaluatedTopology {
            design,
            sims_used: sims,
            cum_sims,
        });
        Some(observation)
    });
    OptimizationRun {
        spec,
        strategy: config.strategy,
        records,
        best: result.best,
        featurizer: result.featurizer,
        total_sims: cum_sims,
    }
}

/// Bit-exact comparison (`{:?}` prints every f64 in shortest round-trip
/// form).
fn same_run(a: &OptimizationRun, b: &OptimizationRun) -> bool {
    format!("{:?}{:?}{}", a.records, a.best, a.total_sims)
        == format!("{:?}{:?}{}", b.records, b.best, b.total_sims)
}

/// Every evaluated `(x, observation)` of one sizing run.
type SizingHistory = Vec<(Vec<f64>, Observation)>;

/// `Evaluator::size` re-composed from `maximize_constrained_anchored`
/// with the simulation as a caller-supplied black box, so simulator time
/// separates from surrogate time. Returns the design, the simulations
/// spent and the sizing history.
fn size_with(
    evaluator: &Evaluator,
    topology: &Topology,
    config: &BoConfig,
    mut simulate: impl FnMut(&DeviceValues) -> Option<OpAmpPerformance>,
) -> (Option<SizedDesign>, usize, SizingHistory) {
    let space = ParamSpace::for_topology(topology);
    let seeded = BoConfig {
        seed: config.seed ^ (topology.index() as u64).wrapping_mul(0x9e37_79b9),
        ..*config
    };
    let anchor = |gm: f64, r: f64, c: f64| -> Vec<f64> {
        space
            .params()
            .iter()
            .map(|p| match p.kind {
                ParamKind::StageGm | ParamKind::Gm => gm,
                ParamKind::Res => r,
                ParamKind::Cap => c,
            })
            .collect()
    };
    let anchors = [
        anchor(0.5, 0.5, 0.5),
        anchor(0.5, 0.5, 0.85),
        anchor(0.25, 0.6, 0.7),
        anchor(0.75, 0.4, 0.6),
    ];
    let spec = *evaluator.spec();
    let mut sims = 0usize;
    let mut best: Option<SizedDesign> = None;
    let result = maximize_constrained_anchored(space.dim(), &anchors, &seeded, |x| {
        sims += 1;
        let values = space.decode(x).ok()?;
        let perf = simulate(&values)?;
        let design = evaluator.design_from(*topology, values, perf);
        let observation = Observation {
            objective: design.fom.max(1.0).log10(),
            constraints: spec.constraints(&perf),
        };
        let replace = match &best {
            None => true,
            Some(current) => match (design.feasible, current.feasible) {
                (true, false) => true,
                (false, true) => false,
                (true, true) => design.fom > current.fom,
                (false, false) => {
                    observation.violation()
                        < spec
                            .constraints(&current.performance)
                            .iter()
                            .map(|c| c.max(0.0))
                            .sum()
                }
            },
        };
        if replace {
            best = Some(design);
        }
        Some(observation)
    });
    (best, sims, result.history)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Whole cycles over the five specs; each pair runs `TIMES` times as
    // the program and as many as the timed re-composition.
    let cycles = (args.seconds as f64 / (5.0 * 2.0 * TIMES as f64 * RUN_SECONDS))
        .round()
        .max(1.0) as usize;
    let pairs = pairs(args.seed, 5 * cycles);
    // Set-up: evaluator construction plus one warm-up sizing at the
    // paper's budget. It runs twice before the load and after every
    // optimization run, so its repetitions sample the same host phases as
    // the load.
    let warm_up = config(0);
    let set_up = |setup_s: &mut Vec<f64>| {
        let started = Instant::now();
        let evaluator = evaluator_for(&Spec::s1(), &warm_up);
        std::hint::black_box(evaluator.size(&Topology::bare_cascade(), &warm_up.sizing));
        setup_s.push(started.elapsed().as_secs_f64());
    };
    let mut setup_s = Vec::new();
    set_up(&mut setup_s);
    set_up(&mut setup_s);

    let mut outcome = Outcome::default();
    let mut size_ms = Vec::new();
    let (mut optimize_s, mut records, mut total_sims) = (0.0, 0usize, 0usize);
    let (mut plan_hits, mut plan_misses) = (0u64, 0u64);
    for (spec, seed) in &pairs {
        let cfg = config(*seed);
        let (mut fastest_s, mut fastest_ms) = (f64::INFINITY, Vec::<f64>::new());
        for time in 0..TIMES {
            // Throughput: the program's own `into_oa::optimize`.
            let started = Instant::now();
            let run = optimize(spec, &cfg);
            fastest_s = fastest_s.min(started.elapsed().as_secs_f64());
            set_up(&mut setup_s);
            // Per-sizing latency: the same run re-composed around a timed
            // `Evaluator::size`, which must reproduce it bit for bit.
            let evaluator = evaluator_for(spec, &cfg);
            let mut call = 0;
            let copy = optimize_with(&evaluator, &cfg, |t| {
                let sized_at = Instant::now();
                let sized = evaluator.size(t, &cfg.sizing);
                let ms = ms_since(sized_at);
                match fastest_ms.get_mut(call) {
                    Some(fastest) => *fastest = fastest.min(ms),
                    None => fastest_ms.push(ms),
                }
                call += 1;
                sized
            });
            outcome.attempted += call as u64;
            if !same_run(&copy, &run) {
                outcome.problems.push(format!(
                    "re-composed run of ({}, {seed}) differs from into_oa::optimize",
                    spec.name
                ));
            }
            let plans = evaluator.plan_cache_stats();
            plan_hits += plans.hits;
            plan_misses += plans.misses;
            if time == 0 {
                records += run.records.len();
                total_sims += run.total_sims;
            }
            set_up(&mut setup_s);
        }
        optimize_s += fastest_s;
        size_ms.extend(fastest_ms);
    }

    outcome.counters = Some(format!(
        "{{\"runs\":{},\"oracle_calls\":{},\"records\":{records},\"total_sims\":{total_sims},\
         \"plan\":{{\"hits\":{plan_hits},\"misses\":{plan_misses}}}}}",
        pairs.len(),
        size_ms.len()
    ));
    end_to_end(
        &mut outcome,
        "size",
        (SetupStat::Fastest, &setup_s),
        &size_ms,
        TAIL_P,
        records as f64 / optimize_s,
    );
    println!(
        "  topologies_per_s = ops_per_s: {records} records over {} (spec, seed) pairs, fastest of {TIMES} into_oa::optimize runs each: {optimize_s:.3} s",
        pairs.len()
    );
    Ok(outcome)
}

/// One traced re-composition of the probe's run.
struct TracedRun {
    tracer: Tracer,
    wall_ms: f64,
    run: OptimizationRun,
    size_ms: Vec<f64>,
    sim_us: Vec<f64>,
    histories: Vec<SizingHistory>,
}

/// The probe's run re-composed with a traced sizing loop: a `core` span
/// per oracle call and a `sim` span per `Evaluator::simulate` inside it.
/// Topology BO has no span of its own: its time is the wall time minus
/// the oracle's.
fn traced_run(spec: &Spec, cfg: &IntoOaConfig, on: bool) -> TracedRun {
    let tracer = Tracer::new(on);
    let evaluator = evaluator_for(spec, cfg);
    let (mut size_ms, mut sim_us, mut histories) = (Vec::new(), Vec::new(), Vec::new());
    let mut call = 0u64;
    let started = Instant::now();
    let run = optimize_with(&evaluator, cfg, |t| {
        call += 1;
        let id = call;
        let sized_at = Instant::now();
        let entered = tracer.enter("core", "size", id);
        let (design, sims, history) = size_with(&evaluator, t, &cfg.sizing, |values| {
            let simulated_at = Instant::now();
            let perf = tracer.time("sim", "simulate", id, || evaluator.simulate(t, values).ok());
            sim_us.push(us_since(simulated_at));
            perf
        });
        tracer.exit(entered);
        size_ms.push(ms_since(sized_at));
        histories.push(history);
        (design, sims)
    });
    TracedRun {
        wall_ms: ms_since(started),
        tracer,
        run,
        size_ms,
        sim_us,
        histories,
    }
}

/// The batch layers' ledger. The first (spec, seed) pair of the workload
/// runs [`PROBE_REPS`] times as the program's `into_oa::optimize` (the
/// end-to-end time) and as the traced re-composition (bo → core → sim),
/// checked against each other and against `Evaluator::size`; RBF-GP fits
/// are replayed on the sizing histories.
pub fn probe(seed: u64, repeat_untraced: bool, ledger: &mut Ledger) -> Probe {
    let (spec, run_seed) = pairs(seed, 1)[0];
    let cfg = config(run_seed);
    let (mut e2e_ms, mut untraced_ms, mut best): (Vec<f64>, Vec<f64>, Option<TracedRun>) =
        (Vec::new(), Vec::new(), None);
    let mut reference = None;
    for _ in 0..PROBE_REPS {
        let started = Instant::now();
        let run = optimize(&spec, &cfg);
        e2e_ms.push(ms_since(started));
        reference = Some(run);
        if repeat_untraced {
            untraced_ms.push(traced_run(&spec, &cfg, false).wall_ms);
        }
        let traced = traced_run(&spec, &cfg, true);
        if best.as_ref().is_none_or(|b| traced.wall_ms < b.wall_ms) {
            best = Some(traced);
        }
    }
    let (Some(traced), Some(reference)) = (best, reference) else {
        unreachable!("PROBE_REPS is positive")
    };
    ledger.attempted += (PROBE_REPS * traced.size_ms.len()) as u64;
    if !same_run(&traced.run, &reference) {
        ledger.problems.push(format!(
            "re-composed batch run of ({}, {run_seed}) differs from into_oa::optimize",
            spec.name
        ));
    }
    let evaluator = evaluator_for(&spec, &cfg);
    for record in traced.run.records.iter().take(3) {
        let t = record.design.topology;
        let direct = evaluator.size(&t, &cfg.sizing);
        let (design, sims, _) = size_with(&evaluator, &t, &cfg.sizing, |v| {
            evaluator.simulate(&t, v).ok()
        });
        if format!("{direct:?}") != format!("{:?}", (design, sims)) {
            ledger.problems.push(format!(
                "re-composed sizing of topology {} differs from Evaluator::size",
                t.index()
            ));
        }
    }

    let calls = traced.size_ms.len() as f64;
    let spans_ms: f64 = traced.tracer.self_ms().values().sum();
    let bo_ms = traced.wall_ms - spans_ms;
    let size_total: f64 = traced.size_ms.iter().sum();
    let sim_total_ms: f64 = traced.sim_us.iter().sum::<f64>() / 1e3;
    ledger.put(
        "bo.topo_ms_per_iter",
        (traced.wall_ms - size_total) / calls,
        "ms",
    );
    ledger.put("core.size_ms_p50", median(&traced.size_ms), "ms");
    ledger.put(
        "core.sims_per_size",
        traced.run.total_sims as f64 / calls,
        "count",
    );
    ledger.put(
        "core.surrogate_share",
        1.0 - sim_total_ms / size_total,
        "ratio",
    );
    ledger.put("sim.simulate_us_p50", median(&traced.sim_us), "us");
    let fits: Vec<f64> = traced
        .histories
        .iter()
        .filter(|h| !h.is_empty())
        .map(|history| {
            let xs = Arc::new(history.iter().map(|(x, _)| x.clone()).collect::<Vec<_>>());
            let y = history.iter().map(|(_, o)| o.objective).collect();
            let started = Instant::now();
            std::hint::black_box(GpRegressor::fit_shared(xs, y).is_ok());
            ms_since(started)
        })
        .collect();
    ledger.put("gp.rbf_fit_ms_p50", median(&fits), "ms");
    Probe {
        e2e: "into_oa::optimize wall time",
        e2e_ms: min(&e2e_ms),
        traced_ms: traced.wall_ms,
        untraced_ms: repeat_untraced.then(|| min(&untraced_ms)),
        derived: vec![("bo", bo_ms)],
        tracer: traced.tracer,
        counted: None,
    }
}
