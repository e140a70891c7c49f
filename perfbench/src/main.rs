//! `oa-perfbench`: the INTO-OA stack measured end to end and layer by
//! layer. `README.md` beside this crate explains the workloads, the
//! metrics and which layer each metric should move.
//!
//! ```text
//! oa-perfbench --workload <session_warm|batch_paper|eval_open|eval_hit> \
//!              --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload and reports the end-to-end metrics;
//! `--trace 1` runs the per-layer ledger instead. The last stdout line is
//! one JSON object `{"correct","attempted","failed","metrics"}`; the exit
//! code is non-zero when any correctness, tail or work-counter check
//! fails.

mod batch;
mod common;
mod eval;
mod gen;
mod ledger;
mod session;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::summarize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SessionWarm,
    BatchPaper,
    EvalOpen,
    EvalHit,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "session_warm" => Some(Workload::SessionWarm),
            "batch_paper" => Some(Workload::BatchPaper),
            "eval_open" => Some(Workload::EvalOpen),
            "eval_hit" => Some(Workload::EvalHit),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SessionWarm => "session_warm",
            Workload::BatchPaper => "batch_paper",
            Workload::EvalOpen => "eval_open",
            Workload::EvalHit => "eval_hit",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Exact work counters, compared across runs of one seed.
    pub counters: Option<String>,
}

/// How a run's set-up repetitions become `setup_s`.
#[derive(Debug, Clone, Copy)]
pub enum SetupStat {
    /// For set-ups that start threads and sockets, whose noise goes both
    /// ways.
    Median,
    /// For compute-only set-ups: host noise only slows them down.
    Fastest,
}

/// The end-to-end metrics every workload reports. `op` names the
/// workload's operation (a session step, one topology sizing, one eval);
/// `alias` is that metric family's name in the workload's own terms.
pub fn end_to_end(
    outcome: &mut Outcome,
    alias: &str,
    (setup_stat, setup_s): (SetupStat, &[f64]),
    op_ms: &[f64],
    tail_p: f64,
    ops_per_s: f64,
) {
    let setup = match setup_stat {
        SetupStat::Median => stats::median(setup_s),
        SetupStat::Fastest => stats::min(setup_s),
    };
    let reps: Vec<String> = setup_s.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    println!(
        "  setup_s = {setup:.4} s ({setup_stat:?} of {} set-ups: {} ms)",
        setup_s.len(),
        reps.join(" ")
    );
    match summarize(op_ms, tail_p) {
        Ok(s) => {
            println!("  op_ms_p50 = {alias}_ms_p50 = {:.4} ms (n={})", s.p50, s.n);
            println!(
                "  op_ms_tail = {alias}_ms_tail = {:.4} ms (p{} over n={}, {} samples beyond)",
                s.tail, s.tail_p, s.n, s.beyond
            );
            outcome.metrics.push(Metric {
                name: "op_ms_p50",
                value: s.p50,
                unit: "ms",
            });
            outcome.metrics.push(Metric {
                name: "op_ms_tail",
                value: s.tail,
                unit: "ms",
            });
        }
        Err(e) => outcome.problems.push(format!("tail guard: {e}")),
    }
    println!("  ops_per_s = {ops_per_s:.4} 1/s");
    outcome.metrics.insert(
        0,
        Metric {
            name: "setup_s",
            value: setup,
            unit: "s",
        },
    );
    outcome.metrics.push(Metric {
        name: "ops_per_s",
        value: ops_per_s,
        unit: "1/s",
    });
}

fn result_json(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("oa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let work =
        PathBuf::from(".bench_work").join(format!("{name}-s{}-{}", args.seed, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("oa-perfbench: mkdir {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    println!(
        "{name}: seed {} seconds {} trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    let host_before = common::host_ref_ms();
    let result = if args.trace {
        ledger::run(&args, &work)
    } else {
        match args.workload {
            Workload::SessionWarm => session::run(&args, &work),
            Workload::BatchPaper => batch::run(&args),
            Workload::EvalOpen => eval::run(&args, &work, eval::Mix::Open),
            Workload::EvalHit => eval::run(&args, &work, eval::Mix::Hit),
        }
    };
    let host_after = common::host_ref_ms();
    let _ = std::fs::remove_dir_all(&work);
    println!("  host.ref_ms = {host_before:.3} before, {host_after:.3} after (diagnostic)");
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("oa-perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(counters) = &outcome.counters {
        println!("  counters: {counters}");
        let key = format!("{name}-s{}-t{}", args.seed, args.seconds);
        if let Err(e) = common::check_counters(&key, counters) {
            outcome.problems.push(e);
        }
    }
    println!(
        "  attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    if outcome.failed > 0 {
        outcome
            .problems
            .push(format!("{} operations failed", outcome.failed));
    }
    for metric in &outcome.metrics {
        if !metric.value.is_finite() {
            outcome
                .problems
                .push(format!("metric {} is not finite", metric.name));
        }
    }
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    println!("{}", result_json(correct, &outcome));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
