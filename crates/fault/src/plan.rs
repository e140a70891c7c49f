//! The seeded fault schedule: sites, decisions, plan state and the
//! shareable [`Faults`] handle.

use std::fmt;
use std::sync::{Arc, Mutex};

/// Where in the stack a fault can be injected.
///
/// Each site corresponds to one instrumented operation in `oa-store`,
/// `oa-serve` or `oa-router`; the site a decision was made for is part
/// of the recorded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// `oa-store::Store::put` — the record append (torn/short write).
    StoreWrite,
    /// `oa-store::Store::put` — the fsync after a successful append.
    StoreSync,
    /// `oa-store::Store::compact` — the rewrite of the new log file
    /// (torn tail in the *new* file, before the atomic rename).
    StoreCompact,
    /// `oa-serve` connection reader — one decoded request line
    /// (dropped or stalled connection).
    ConnRead,
    /// `oa-serve` response writer — one encoded response frame
    /// (mid-frame disconnect).
    ConnWrite,
    /// `oa-serve` connection loop — once per request, drawn on the
    /// connection thread before any work (a worker dying mid-request:
    /// a `Panic` decision leaves the request unanswered).
    WorkerJob,
    /// `oa-serve` `eval_batch` — one item of a batch (typed per-item
    /// evaluation error).
    EvalItem,
    /// `oa-router` backend forward — the router's connection to a shard,
    /// decided immediately before a sub-request is written (dropping it
    /// forces the failover path: mark down, re-dispatch, reconnect).
    ShardDrop,
    /// `oa-router` response writer — one response frame to a client
    /// (stalled write: decided under the routing lock, slept by the
    /// deciding thread after it releases the lock, before the frame is
    /// handed to the client's writer).
    RouterWrite,
    /// `oa-serve` session `step` — decided at the top of the handler,
    /// before any session state mutates, so a failed step is
    /// state-preserving: the client re-requests and receives exactly
    /// the step the fault displaced.
    SessionStep,
}

impl Site {
    /// Stable lowercase name used in traces.
    pub fn name(self) -> &'static str {
        match self {
            Site::StoreWrite => "store_write",
            Site::StoreSync => "store_sync",
            Site::StoreCompact => "store_compact",
            Site::ConnRead => "conn_read",
            Site::ConnWrite => "conn_write",
            Site::WorkerJob => "worker_job",
            Site::EvalItem => "eval_item",
            Site::ShardDrop => "shard_drop",
            Site::RouterWrite => "router_write",
            Site::SessionStep => "session_step",
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What the plan tells an injection point to do.
///
/// Injection points interpret decisions mechanically and must not make
/// further random choices of their own — every random quantity (how many
/// bytes of a torn write land, how long a stall lasts) is already fixed
/// in the decision, so the trace alone replays the failure byte-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// No fault: perform the operation normally.
    Pass,
    /// Write only the first `keep` bytes of the frame, then fail as if
    /// the process crashed mid-write. `keep` is strictly less than the
    /// frame length.
    TornWrite {
        /// Bytes of the frame that reach the file.
        keep: u64,
    },
    /// Perform the write but fail the following fsync (the bytes may or
    /// may not be durable — exactly the ambiguity a real sync failure
    /// leaves behind).
    FailSync,
    /// Close the connection immediately.
    DropConn,
    /// Stall the operation for `millis` before continuing normally.
    Stall {
        /// Injected delay in milliseconds.
        millis: u64,
    },
    /// Panic the current worker thread.
    Panic,
    /// Fail this batch item with a typed injected error.
    FailItem,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Decision::Pass => f.write_str("pass"),
            Decision::TornWrite { keep } => write!(f, "torn({keep})"),
            Decision::FailSync => f.write_str("fail_sync"),
            Decision::DropConn => f.write_str("drop_conn"),
            Decision::Stall { millis } => write!(f, "stall({millis})"),
            Decision::Panic => f.write_str("panic"),
            Decision::FailItem => f.write_str("fail_item"),
        }
    }
}

/// Per-site injection probabilities, in per-mille (0 = never,
/// 1000 = always). All-zero ([`FaultConfig::default`]) injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Probability of a torn (short) record append.
    pub torn_write_per_mille: u16,
    /// Probability of a failed fsync after a complete append.
    pub fail_sync_per_mille: u16,
    /// Probability of a torn tail in the new file during compaction.
    pub compact_tear_per_mille: u16,
    /// Probability of dropping a connection at a request read.
    pub drop_read_per_mille: u16,
    /// Probability of a mid-frame disconnect while writing a response.
    pub drop_write_per_mille: u16,
    /// Probability of stalling a request read.
    pub stall_per_mille: u16,
    /// Upper bound (exclusive of 0) for injected stalls, milliseconds.
    pub stall_max_millis: u64,
    /// Probability of panicking a worker before it runs a job.
    pub worker_panic_per_mille: u16,
    /// Probability of failing one `eval_batch` item with a typed error.
    pub item_error_per_mille: u16,
    /// Probability of the router dropping a shard connection right
    /// before forwarding a sub-request.
    pub shard_drop_per_mille: u16,
    /// Probability of stalling a router response write (bounded by
    /// `stall_max_millis`).
    pub router_stall_per_mille: u16,
    /// Probability of failing one session `step` with a typed injected
    /// error before any state mutates.
    pub session_step_per_mille: u16,
}

impl FaultConfig {
    /// Aggressive store-only profile: frequent torn writes, failed
    /// syncs, and compaction tears. Used by the store chaos matrix.
    pub fn store_storm() -> FaultConfig {
        FaultConfig {
            torn_write_per_mille: 250,
            fail_sync_per_mille: 100,
            compact_tear_per_mille: 500,
            ..FaultConfig::default()
        }
    }

    /// Aggressive serve-side profile: dropped/stalled connections,
    /// mid-frame disconnects, worker panics and per-item errors. Store
    /// faults stay off so the serve invariants are isolated.
    pub fn serve_storm() -> FaultConfig {
        FaultConfig {
            drop_read_per_mille: 100,
            drop_write_per_mille: 150,
            stall_per_mille: 100,
            stall_max_millis: 5,
            worker_panic_per_mille: 150,
            item_error_per_mille: 200,
            ..FaultConfig::default()
        }
    }

    /// Router-side profile: frequent shard-connection drops (failover
    /// exercise) and stalled response writes. Shard backends stay
    /// fault-free so the router invariants are isolated.
    pub fn router_storm() -> FaultConfig {
        FaultConfig {
            shard_drop_per_mille: 120,
            router_stall_per_mille: 80,
            stall_max_millis: 3,
            ..FaultConfig::default()
        }
    }

    /// Session-trial profile: frequent mid-step failures on the shard
    /// side. Everything else stays off so session chaos trials compose
    /// it with [`FaultConfig::router_storm`] on the router — the step
    /// failures exercise the client's retry path while the router storm
    /// and the trial's shard kill exercise failover and replay.
    pub fn session_storm() -> FaultConfig {
        FaultConfig {
            session_step_per_mille: 200,
            ..FaultConfig::default()
        }
    }

    /// Everything at once — the full chaos matrix profile.
    pub fn storm() -> FaultConfig {
        FaultConfig {
            torn_write_per_mille: 150,
            fail_sync_per_mille: 80,
            compact_tear_per_mille: 300,
            drop_read_per_mille: 80,
            drop_write_per_mille: 100,
            stall_per_mille: 80,
            stall_max_millis: 5,
            worker_panic_per_mille: 100,
            item_error_per_mille: 150,
            shard_drop_per_mille: 120,
            router_stall_per_mille: 80,
            session_step_per_mille: 150,
        }
    }
}

/// One recorded decision: the `seq`-th call of the plan, at `site`,
/// yielding `decision`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// 0-based position in the plan's decision sequence.
    pub seq: u64,
    /// The injection point that asked.
    pub site: Site,
    /// What the plan decided.
    pub decision: Decision,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.seq, self.site, self.decision)
    }
}

/// Counters over a plan's decisions so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total `decide` calls.
    pub decisions: u64,
    /// Decisions other than [`Decision::Pass`].
    pub injected: u64,
}

/// The mutable schedule state: seeded rng, config, and the trace.
///
/// Normally owned by a [`Faults`] handle behind a mutex; exposed for
/// tests that want single-threaded, handle-free access.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    state: u64,
    config: FaultConfig,
    seq: u64,
    injected: u64,
    trace: Vec<TraceEvent>,
}

impl FaultPlan {
    /// Creates a plan from a seed and per-site probabilities.
    pub fn new(seed: u64, config: FaultConfig) -> FaultPlan {
        FaultPlan {
            // xorshift needs a nonzero state; fold the seed through a
            // splitmix-style scramble so 0 and 1 diverge immediately.
            state: scramble(seed),
            config,
            seq: 0,
            injected: 0,
            trace: Vec::new(),
        }
    }

    /// One xorshift64* draw.
    fn draw(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Rolls a per-mille probability.
    fn roll(&mut self, per_mille: u16) -> bool {
        // Drawing unconditionally (even for 0-probability sites) keeps
        // the stream position a function of the call sequence alone, so
        // changing one probability never shifts unrelated decisions.
        let d = self.draw() % 1000;
        d < u64::from(per_mille.min(1000))
    }

    /// Decides what happens at `site`. `ctx` carries the frame length
    /// in bytes for write sites (so torn writes can pick an exact torn
    /// point) and is ignored elsewhere.
    pub fn decide(&mut self, site: Site, ctx: u64) -> Decision {
        let decision = self.sample(site, ctx);
        let event = TraceEvent {
            seq: self.seq,
            site,
            decision,
        };
        self.seq += 1;
        if decision != Decision::Pass {
            self.injected += 1;
        }
        self.trace.push(event);
        decision
    }

    /// Every site consumes a *fixed* number of draws per call — rolls
    /// and payload draws (torn byte counts, stall durations) happen
    /// unconditionally — so whether a fault triggers never shifts the
    /// stream positions later sites see.
    fn sample(&mut self, site: Site, ctx: u64) -> Decision {
        match site {
            Site::StoreWrite => {
                let torn = self.roll(self.config.torn_write_per_mille);
                let keep = self.draw() % ctx.max(1);
                if torn {
                    Decision::TornWrite { keep }
                } else {
                    Decision::Pass
                }
            }
            Site::StoreSync => {
                if self.roll(self.config.fail_sync_per_mille) {
                    Decision::FailSync
                } else {
                    Decision::Pass
                }
            }
            Site::StoreCompact => {
                let torn = self.roll(self.config.compact_tear_per_mille);
                let keep = self.draw() % ctx.max(1);
                if torn {
                    Decision::TornWrite { keep }
                } else {
                    Decision::Pass
                }
            }
            Site::ConnRead => {
                let dropped = self.roll(self.config.drop_read_per_mille);
                let stalled = self.roll(self.config.stall_per_mille);
                let millis = 1 + self.draw() % self.config.stall_max_millis.max(1);
                if dropped {
                    Decision::DropConn
                } else if stalled {
                    Decision::Stall { millis }
                } else {
                    Decision::Pass
                }
            }
            Site::ConnWrite => {
                if self.roll(self.config.drop_write_per_mille) {
                    Decision::DropConn
                } else {
                    Decision::Pass
                }
            }
            Site::WorkerJob => {
                if self.roll(self.config.worker_panic_per_mille) {
                    Decision::Panic
                } else {
                    Decision::Pass
                }
            }
            Site::EvalItem => {
                if self.roll(self.config.item_error_per_mille) {
                    Decision::FailItem
                } else {
                    Decision::Pass
                }
            }
            Site::ShardDrop => {
                if self.roll(self.config.shard_drop_per_mille) {
                    Decision::DropConn
                } else {
                    Decision::Pass
                }
            }
            Site::RouterWrite => {
                let stalled = self.roll(self.config.router_stall_per_mille);
                let millis = 1 + self.draw() % self.config.stall_max_millis.max(1);
                if stalled {
                    Decision::Stall { millis }
                } else {
                    Decision::Pass
                }
            }
            Site::SessionStep => {
                if self.roll(self.config.session_step_per_mille) {
                    Decision::FailItem
                } else {
                    Decision::Pass
                }
            }
        }
    }

    /// The recorded decision sequence.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            decisions: self.seq,
            injected: self.injected,
        }
    }

    /// FNV-1a hash over the formatted trace — two plans with equal
    /// hashes made identical decisions in identical order.
    pub fn trace_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for event in &self.trace {
            for b in event.to_string().bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= u64::from(b'\n');
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// SplitMix64 finalizer: seeds the xorshift state non-degenerately.
fn scramble(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let z = z ^ (z >> 31);
    // xorshift cycles on 0 forever; any fixed nonzero fallback keeps
    // seed-distinctness for every other input.
    if z == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        z
    }
}

/// The shareable injection handle threaded through `oa-store`,
/// `oa-serve` and `oa-router`.
///
/// [`Faults::none`] (and `Default`) is the disabled handle: every
/// [`Faults::decide`] returns [`Decision::Pass`] after a single `None`
/// check. A seeded handle shares one [`FaultPlan`] behind a mutex, so
/// clones injected into different layers draw from one global schedule.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    inner: Option<Arc<Mutex<FaultPlan>>>,
}

impl Faults {
    /// The disabled handle — injects nothing, records nothing.
    pub fn none() -> Faults {
        Faults { inner: None }
    }

    /// A seeded handle over a fresh [`FaultPlan`].
    pub fn seeded(seed: u64, config: FaultConfig) -> Faults {
        Faults {
            inner: Some(Arc::new(Mutex::new(FaultPlan::new(seed, config)))),
        }
    }

    /// Whether this handle can inject at all.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Decides what happens at `site` (see [`FaultPlan::decide`]).
    /// Disabled handles always return [`Decision::Pass`].
    pub fn decide(&self, site: Site, ctx: u64) -> Decision {
        match &self.inner {
            None => Decision::Pass,
            Some(plan) => {
                let mut plan = plan.lock().unwrap_or_else(|p| p.into_inner());
                plan.decide(site, ctx)
            }
        }
    }

    /// The formatted trace lines recorded so far (empty when disabled).
    pub fn trace(&self) -> Vec<String> {
        match &self.inner {
            None => Vec::new(),
            Some(plan) => {
                let plan = plan.lock().unwrap_or_else(|p| p.into_inner());
                plan.trace().iter().map(TraceEvent::to_string).collect()
            }
        }
    }

    /// The trace hash (see [`FaultPlan::trace_hash`]; a fixed constant
    /// when disabled).
    pub fn trace_hash(&self) -> u64 {
        match &self.inner {
            None => 0xcbf2_9ce4_8422_2325,
            Some(plan) => {
                let plan = plan.lock().unwrap_or_else(|p| p.into_inner());
                plan.trace_hash()
            }
        }
    }

    /// Counters so far (zeros when disabled).
    pub fn stats(&self) -> FaultStats {
        match &self.inner {
            None => FaultStats::default(),
            Some(plan) => {
                let plan = plan.lock().unwrap_or_else(|p| p.into_inner());
                plan.stats()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(faults: &Faults, n: usize) {
        for i in 0..n {
            let site = match i % 7 {
                0 => Site::StoreWrite,
                1 => Site::StoreSync,
                2 => Site::StoreCompact,
                3 => Site::ConnRead,
                4 => Site::ConnWrite,
                5 => Site::WorkerJob,
                _ => Site::EvalItem,
            };
            let _ = faults.decide(site, 128);
        }
    }

    #[test]
    fn disabled_handle_is_pass_only_and_traceless() {
        let faults = Faults::none();
        for _ in 0..50 {
            assert_eq!(faults.decide(Site::StoreWrite, 64), Decision::Pass);
        }
        assert!(faults.trace().is_empty());
        assert_eq!(faults.stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_same_trace_hash() {
        let a = Faults::seeded(7, FaultConfig::storm());
        let b = Faults::seeded(7, FaultConfig::storm());
        drive(&a, 500);
        drive(&b, 500);
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.trace_hash(), b.trace_hash());
        assert!(a.stats().injected > 0, "storm must inject");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = Faults::seeded(1, FaultConfig::storm());
        let b = Faults::seeded(2, FaultConfig::storm());
        drive(&a, 500);
        drive(&b, 500);
        assert_ne!(a.trace_hash(), b.trace_hash());
    }

    #[test]
    fn zero_and_nonzero_seeds_are_distinct() {
        let a = Faults::seeded(0, FaultConfig::storm());
        let b = Faults::seeded(1, FaultConfig::storm());
        drive(&a, 100);
        drive(&b, 100);
        assert_ne!(a.trace_hash(), b.trace_hash());
    }

    #[test]
    fn torn_writes_keep_fewer_bytes_than_the_frame() {
        let faults = Faults::seeded(3, FaultConfig::store_storm());
        let mut torn = 0;
        for _ in 0..2000 {
            if let Decision::TornWrite { keep } = faults.decide(Site::StoreWrite, 200) {
                assert!(keep < 200, "torn write must be short: {keep}");
                torn += 1;
            }
        }
        assert!(torn > 100, "storm profile tears writes ({torn})");
    }

    #[test]
    fn stalls_respect_the_configured_bound() {
        let config = FaultConfig {
            stall_per_mille: 1000,
            stall_max_millis: 3,
            ..FaultConfig::default()
        };
        let faults = Faults::seeded(9, config);
        for _ in 0..200 {
            match faults.decide(Site::ConnRead, 0) {
                Decision::Stall { millis } => assert!((1..=3).contains(&millis)),
                other => panic!("stall-only profile produced {other}"),
            }
        }
    }

    #[test]
    fn probability_changes_do_not_shift_unrelated_sites() {
        // Turning one site's probability off must not change the
        // decisions other sites see (the stream position per call is
        // fixed). Compare EvalItem decisions with and without tears.
        let with = Faults::seeded(11, FaultConfig::storm());
        let without = Faults::seeded(
            11,
            FaultConfig {
                torn_write_per_mille: 0,
                ..FaultConfig::storm()
            },
        );
        // Identical call sequences, alternating the two sites.
        let mut with_items = Vec::new();
        let mut without_items = Vec::new();
        for _ in 0..300 {
            let _ = with.decide(Site::StoreWrite, 64);
            with_items.push(with.decide(Site::EvalItem, 0));
            let _ = without.decide(Site::StoreWrite, 64);
            without_items.push(without.decide(Site::EvalItem, 0));
        }
        assert_eq!(with_items, without_items);
    }

    #[test]
    fn router_storm_drops_shards_and_stalls_writes_within_bounds() {
        let faults = Faults::seeded(17, FaultConfig::router_storm());
        let (mut drops, mut stalls) = (0, 0);
        for i in 0..2000 {
            match faults.decide(Site::ShardDrop, i % 4) {
                Decision::DropConn => drops += 1,
                Decision::Pass => {}
                other => panic!("shard_drop produced {other}"),
            }
            match faults.decide(Site::RouterWrite, 128) {
                Decision::Stall { millis } => {
                    assert!((1..=3).contains(&millis));
                    stalls += 1;
                }
                Decision::Pass => {}
                other => panic!("router_write produced {other}"),
            }
        }
        assert!(drops > 100, "router storm must drop shard links ({drops})");
        assert!(stalls > 50, "router storm must stall writes ({stalls})");
    }

    #[test]
    fn session_storm_fails_steps_without_other_sites() {
        let faults = Faults::seeded(19, FaultConfig::session_storm());
        let mut failed = 0;
        for _ in 0..1000 {
            match faults.decide(Site::SessionStep, 0) {
                Decision::FailItem => failed += 1,
                Decision::Pass => {}
                other => panic!("session_step produced {other}"),
            }
            assert_eq!(faults.decide(Site::StoreWrite, 64), Decision::Pass);
        }
        assert!(failed > 100, "session storm must fail steps ({failed})");
    }

    #[test]
    fn trace_events_format_stably() {
        let mut plan = FaultPlan::new(5, FaultConfig::default());
        let d = plan.decide(Site::ConnWrite, 0);
        assert_eq!(d, Decision::Pass);
        let trace = plan.trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.first().map(TraceEvent::to_string).as_deref(), {
            Some("0 conn_write pass")
        });
    }

    #[test]
    fn clones_share_one_schedule() {
        let a = Faults::seeded(13, FaultConfig::storm());
        let b = a.clone();
        let _ = a.decide(Site::StoreWrite, 64);
        let _ = b.decide(Site::ConnRead, 0);
        assert_eq!(a.stats().decisions, 2);
        assert_eq!(a.trace(), b.trace());
    }
}
