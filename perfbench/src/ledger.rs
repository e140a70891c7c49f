//! The traced run (`--trace 1`): every per-layer metric, whatever the
//! workload. Each workload's layers are measured by its probe: the
//! workload's end-to-end operation on a short slice of the same seeded
//! load, timed as the program runs it, and an in-process replica
//! re-composed from the layers' public functions with a span around each
//! call, plus replays and by-difference timings. All three probes run so
//! every metric is always reported. The workload's own probe also runs
//! its replica untraced (the difference is `trace.overhead`), and its
//! named layers' times must sum to within a tenth of its end-to-end time
//! (`trace.coverage`).

use std::collections::BTreeMap;
use std::path::Path;

use crate::trace::Tracer;
use crate::{batch, eval, session, Args, Metric, Outcome, Workload};

/// Every per-layer metric, in report order.
const PER_LAYER: [&str; 31] = [
    "router.hop_ms_p50",
    "router.step_overhead_ms",
    "serve.transport_us_p50",
    "serve.handle_hit_us_p50",
    "serve.handle_miss_us_p50",
    "bo.propose_ms_p50",
    "bo.train_points_p50",
    "bo.rejected",
    "bo.topo_ms_per_iter",
    "gp.wl_fit_ms_p50",
    "gp.rbf_fit_ms_p50",
    "core.size_ms_p50",
    "core.sims_per_size",
    "core.surrogate_share",
    "sim.simulate_us_p50",
    "sim.calls",
    "sim.plan_hit_ratio",
    "graph.wl_hit_ratio",
    "graph.featurize_us_p50",
    "store.recover_ms",
    "store.get_us_p50",
    "store.put_us_p50",
    "store.hit_ratio",
    "store.appended_records",
    "store.log_bytes",
    "store.warm_scan_ms",
    "gen.late_ms_p99",
    "trace.overhead",
    "trace.coverage",
    "trace.layers_ms",
    "trace.e2e_ms",
];

/// How far the named layers' summed time may stray from the end-to-end
/// time, as a share of it.
const COVERAGE_TOLERANCE: f64 = 0.1;
/// Repetitions of each probe's timed parts. The batch and eval probes keep
/// each part's fastest; the session probe keeps its median repetition.
/// Either way a slow host phase in one repetition does not skew the
/// comparison.
pub const PROBE_REPS: usize = 5;

#[derive(Default)]
pub struct Ledger {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }
}

/// What a probe measured, beyond its ledger entries.
pub struct Probe {
    /// What the end-to-end time is.
    pub e2e: &'static str,
    /// The workload's end-to-end operations on the probe's slice, as the
    /// program runs them.
    pub e2e_ms: f64,
    /// The replica's wall time, traced, and untraced when asked for.
    pub traced_ms: f64,
    pub untraced_ms: Option<f64>,
    /// Layer times taken by difference rather than from spans.
    pub derived: Vec<(&'static str, f64)>,
    /// The replica's spans.
    pub tracer: Tracer,
    /// Per request id, whether its spans count toward the layers; every
    /// span counts when `None`.
    pub counted: Option<Vec<bool>>,
}

impl Probe {
    /// Time per named layer: span self times plus the derived layers.
    fn layers_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut layers = self.tracer.self_ms_of(|request| {
            self.counted
                .as_ref()
                .is_none_or(|c| c.get(request as usize) == Some(&true))
        });
        for &(layer, ms) in &self.derived {
            *layers.entry(layer).or_insert(0.0) += ms;
        }
        layers
    }
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut ledger = Ledger::default();
    let own = |w: Workload| args.workload == w;
    let own_mix = match args.workload {
        Workload::EvalOpen => Some(eval::Mix::Open),
        Workload::EvalHit => Some(eval::Mix::Hit),
        Workload::SessionWarm | Workload::BatchPaper => None,
    };
    let probes = [
        session::probe(args.seed, work, own(Workload::SessionWarm), &mut ledger)?,
        batch::probe(args.seed, own(Workload::BatchPaper), &mut ledger),
        eval::probe(args.seed, work, own_mix, &mut ledger)?,
    ];

    let spans_dir = Path::new(".bench_work").join("spans");
    let spans = spans_dir.join(format!("{}-s{}.ndjson", args.workload.name(), args.seed));
    let _ = std::fs::create_dir_all(&spans_dir);
    let _ = std::fs::remove_file(&spans);
    for (probe, name) in probes.iter().zip(["session", "batch", "eval"]) {
        probe
            .tracer
            .append_ndjson(&spans, name)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        let table: Vec<String> = probe
            .layers_ms()
            .iter()
            .map(|(layer, ms)| format!("{layer}={ms:.2}"))
            .collect();
        println!(
            "  {name} probe layer ms: {} (end to end: {} {:.2} ms)",
            table.join(" "),
            probe.e2e,
            probe.e2e_ms
        );
    }

    let probe = match args.workload {
        Workload::SessionWarm => &probes[0],
        Workload::BatchPaper => &probes[1],
        Workload::EvalOpen | Workload::EvalHit => &probes[2],
    };
    let layers_ms: f64 = probe.layers_ms().values().sum();
    let coverage = layers_ms / probe.e2e_ms;
    if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        ledger.problems.push(format!(
            "named layers sum to {:.1}% of the end-to-end time (need {:.0}%..{:.0}%)",
            coverage * 100.0,
            (1.0 - COVERAGE_TOLERANCE) * 100.0,
            (1.0 + COVERAGE_TOLERANCE) * 100.0
        ));
    }
    let untraced = probe.untraced_ms.unwrap_or(f64::NAN);
    ledger.put("trace.overhead", probe.traced_ms / untraced - 1.0, "ratio");
    ledger.put("trace.coverage", coverage, "ratio");
    ledger.put("trace.layers_ms", layers_ms, "ms");
    ledger.put("trace.e2e_ms", probe.e2e_ms, "ms");
    println!(
        "  {}: end to end {:.2} ms, named layers {:.2} ms ({:.1}%); replica traced {:.2} ms, untraced {:.2} ms",
        args.workload.name(),
        probe.e2e_ms,
        layers_ms,
        coverage * 100.0,
        probe.traced_ms,
        untraced
    );

    let mut outcome = Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        problems: ledger.problems,
        ..Outcome::default()
    };
    for name in PER_LAYER {
        match ledger.metrics.get(name) {
            Some(&(value, unit)) => {
                println!("  {name} = {value:.6} {unit}");
                outcome.metrics.push(Metric { name, value, unit });
            }
            None => outcome
                .problems
                .push(format!("per-layer metric {name} was not measured")),
        }
    }
    Ok(outcome)
}
