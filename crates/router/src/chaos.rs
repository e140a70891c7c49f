//! Seeded fabric chaos trials: a shard is killed and restarted
//! mid-workload while the router runs a seeded storm of link drops and
//! write stalls, and the client-visible responses must stay
//! byte-identical to a fault-free fabric.
//!
//! The trial shape mirrors `oa_serve::chaos`: the same workload runs
//! twice — once on a fault-free two-shard fabric (the baseline), once on
//! a fabric whose *router* runs [`FaultConfig::router_storm`]
//! (injected [`oa_fault::Site::ShardDrop`] link loss, [`oa_fault::Site::RouterWrite`]
//! stalls) while shard 0's process is additionally killed outright
//! mid-corpus ([`oa_serve::Server::kill`] severs its connections) and restarted on
//! the same port over the same store. Every disruption is handled by the
//! production paths: ring-walk failover with blind resends (safe —
//! endpoints are deterministic and store-backed), on-demand redial, and
//! the client's reconnect/backoff.
//!
//! On replay: the fault *schedule* is a pure function of the seed, and
//! the trial reports its decision-trace hash for forensics. Unlike the
//! single-node serve trial, the hash is not asserted equal across runs —
//! a real process kill races the link thread's EOF detection, so the
//! *number* of decisions consulted can differ run to run even though
//! every decision sequence is seed-determined. The bar that matters —
//! and the one asserted — is byte-identity of what clients saw.
//!
//! The `oa-chaos` binary drives these over the pinned corpus in
//! `tests/seeds/chaos_router.txt`.

use std::io;
use std::path::Path;
use std::time::Duration;

use oa_circuit::{ParamSpace, Topology};
use oa_fault::{FaultConfig, FaultStats, Faults, RetryPolicy};
use oa_serve::{request, serve, Client, ClientConfig, Server, SessionDriver};

use crate::fabric::{shard_config, Fabric};
use crate::ring::{HashRing, DEFAULT_VNODES};

/// Shards in every trial fabric.
const TRIAL_SHARDS: u32 = 2;

/// Requests in the trial workload.
const WORKLOAD_EVALS: usize = 12;

/// Attempts to rebind the killed shard's port on restart (the dead
/// listener's socket lingers briefly on some kernels).
const MAX_REBIND_ATTEMPTS: usize = 50;

/// The client profile for the faulty run: patient enough to ride out a
/// router write stall plus a shard failover, aggressive enough to keep
/// trials fast.
fn trial_client_config() -> ClientConfig {
    ClientConfig {
        retry: RetryPolicy {
            max_attempts: 12,
            base_millis: 2,
            cap_millis: 20,
        },
        timeout_millis: Some(2_000),
    }
}

/// The outcome of one seeded router trial.
#[derive(Debug, Clone)]
pub struct RouterTrial {
    /// The seed the router's fault plan ran under.
    pub seed: u64,
    /// The request lines, in issue order (paired with `responses` —
    /// protocol-conformance replays feed on the pairs).
    pub requests: Vec<String>,
    /// Responses from the faulty fabric, in request order.
    pub responses: Vec<String>,
    /// Whether every response byte-matches the fault-free baseline —
    /// the trial's pass/fail verdict.
    pub matches_baseline: bool,
    /// Hash of the recorded decision trace (forensics; see the module
    /// docs for why this is not a cross-run invariant here).
    pub trace_hash: u64,
    /// Decision counters.
    pub stats: FaultStats,
}

/// The trial workload: evals across topologies spread over both shards,
/// plus two `eval_batch` lines (one early, one after the kill point) so
/// scatter/merge is exercised on both sides of the restart. No `stats`
/// lines — their counters depend on retry counts, not just the store,
/// so they are not byte-deterministic under faults.
fn trial_requests(seed: u64) -> Vec<String> {
    let mut lines = Vec::new();
    let mut items = Vec::new();
    for i in 0..WORKLOAD_EVALS {
        let index = ((seed
            .wrapping_mul(2_654_435_761)
            .wrapping_add(i as u64 * 977)) as usize)
            % oa_circuit::DESIGN_SPACE_SIZE;
        let t = Topology::from_index(index).unwrap_or_else(|_| Topology::bare_cascade());
        let dim = ParamSpace::for_topology(&t).dim();
        let x: Vec<f64> = (0..dim)
            .map(|j| 0.2 + 0.6 * (j as f64) / dim.max(1) as f64)
            .collect();
        lines.push(request::eval(i as u64, "S-1", t.index(), &x));
        if items.len() < 4 {
            items.push((t.index(), x));
        }
    }
    lines.insert(3, request::eval_batch(90, "S-1", &items));
    lines.push(request::eval_batch(91, "S-1", &items));
    lines.push(request::size_opt(92, "S-1", 0, seed ^ 0x5EED, 4, 6));
    lines
}

/// Restarts a killed shard on its old (now concrete) address over the
/// same store, retrying the bind while the dead listener drains.
fn restart_shard(addr: &str, store_dir: &Path, index: u32) -> io::Result<Server> {
    let mut last = None;
    for _ in 0..MAX_REBIND_ATTEMPTS {
        match serve(shard_config(
            addr,
            store_dir,
            index,
            TRIAL_SHARDS,
            Faults::none(),
        )) {
            Ok(server) => return Ok(server),
            Err(e) => last = Some(e),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err(last.unwrap_or_else(|| io::Error::other("rebind retries exhausted")))
}

/// Runs one seeded router trial under `dir` (created; caller removes).
///
/// # Errors
///
/// Bind/store failures outside the injected schedule, or a request
/// still failing after the client's bounded retry budget.
pub fn router_trial(dir: &Path, seed: u64) -> io::Result<RouterTrial> {
    router_trial_opts(dir, seed, true)
}

/// [`router_trial`] with the mid-corpus shard kill made optional.
///
/// With `kill: false` the trial is the pure router storm — no process
/// death, so the router consults the fault schedule the same number
/// of times every run and `trace_hash` *is* a cross-run invariant
/// (asserted in tests; the kill variant only gets byte-identity, see
/// the module docs).
///
/// # Errors
///
/// Bind/store failures outside the injected schedule, or a request
/// still failing after the client's bounded retry budget.
pub fn router_trial_opts(dir: &Path, seed: u64, kill: bool) -> io::Result<RouterTrial> {
    let requests = trial_requests(seed);

    // Baseline: fault-free fabric, plain client, serial requests.
    let baseline_fabric = Fabric::spawn(TRIAL_SHARDS, &dir.join("baseline"), |_| {})?;
    let mut base_client = Client::connect(baseline_fabric.router.addr())?;
    let mut baseline = Vec::with_capacity(requests.len());
    for line in &requests {
        baseline.push(base_client.request(line)?);
    }
    drop(base_client);
    baseline_fabric.shutdown();

    // Faulty run: router storm + a real shard kill/restart mid-corpus.
    let faults = Faults::seeded(seed, FaultConfig::router_storm());
    let store_dir = dir.join("chaos");
    let mut fabric = Fabric::spawn(TRIAL_SHARDS, &store_dir, |config| {
        config.faults = faults.clone();
    })?;
    let kill_at = requests.len() / 2;
    let mut client = Client::connect_with(fabric.router.addr(), trial_client_config())?;
    let mut responses = Vec::with_capacity(requests.len());
    for (i, line) in requests.iter().enumerate() {
        if kill && i == kill_at {
            // Kill shard 0 between requests: its router link and store
            // go dark at once; in-flight state is empty (serial client)
            // so what this exercises is routing around the hole and the
            // rejoin after restart.
            let victim = fabric.shards.remove(0);
            let addr = fabric.shard_addrs[0].clone();
            victim.kill();
            let restarted = restart_shard(&addr, &store_dir, 0)?;
            fabric.shards.insert(0, restarted);
        }
        responses.push(client.request_with_retry(line)?);
    }
    drop(client);
    fabric.shutdown();

    let matches_baseline = responses == baseline;
    Ok(RouterTrial {
        seed,
        requests,
        responses,
        matches_baseline,
        trace_hash: faults.trace_hash(),
        stats: faults.stats(),
    })
}

/// Steps in the session trial workload.
const SESSION_STEPS: usize = 5;

/// The outcome of one seeded session chaos trial.
#[derive(Debug, Clone)]
pub struct SessionTrial {
    /// The seed the fault plans ran under.
    pub seed: u64,
    /// The logical request lines, in issue order (open, steps, stats,
    /// close — paired with `responses` for conformance replays).
    pub requests: Vec<String>,
    /// The session's logical response stream from the faulty fabric
    /// (open, steps, stats, close — after driver-side retries/replays).
    pub responses: Vec<String>,
    /// Whether every response byte-matches the fault-free baseline.
    pub matches_baseline: bool,
    /// Decision counters of the router-side storm.
    pub router_stats: FaultStats,
    /// Decision counters of the shard-side session storm.
    pub shard_stats: FaultStats,
}

/// The session workload: open, `SESSION_STEPS` steps, a `session_stats`
/// probe, close. Single-spec on purpose — warm-start scans the *local*
/// shard store, and a failover moves the session to a shard with a
/// different store, so only a warm-free session is shard-independent
/// (the documented deployment rule for sessions behind a fabric; see
/// DESIGN.md §13).
fn session_requests(session: u64, seed: u64) -> (String, Vec<String>, String, String) {
    let open = request::open_session(100, session, &["S-1"], seed, 2, 8, 2, 1);
    let steps = (0..SESSION_STEPS)
        .map(|i| request::step(101 + i as u64, session))
        .collect();
    let stats = request::session_stats(120, session);
    let close = request::close_session(121, session);
    (open, steps, stats, close)
}

/// Runs one seeded session chaos trial under `dir` (created; caller
/// removes): the same session workload runs on a fault-free fabric and
/// on a fabric whose router runs [`FaultConfig::router_storm`] and whose
/// shards run [`FaultConfig::session_storm`] (injected step failures),
/// while the shard that *owns* the session — computed from the same
/// consistent-hash ring the router routes by — is killed outright and
/// restarted mid-workload. The [`SessionDriver`] rides it out: injected
/// errors are resent, and the restarted (state-less) owner's
/// `unknown_session` answer triggers a replay of the recorded request
/// prefix, which the driver verifies frame-by-frame. The trial's verdict
/// is byte-identity of the logical response stream.
///
/// # Errors
///
/// Bind/store failures outside the injected schedule, an exhausted
/// driver budget, or a divergent replay.
pub fn session_trial(dir: &Path, seed: u64) -> io::Result<SessionTrial> {
    let session = 0x5E55_0000 ^ seed;
    let (open, steps, stats, close) = session_requests(session, seed);

    // Baseline: fault-free fabric, plain driver (no faults to absorb).
    let baseline_fabric = Fabric::spawn(TRIAL_SHARDS, &dir.join("baseline"), |_| {})?;
    let mut base_client = Client::connect(baseline_fabric.router.addr())?;
    let mut base_driver = SessionDriver::new();
    let mut baseline = Vec::new();
    baseline.push(base_driver.open(&mut base_client, &open)?);
    for line in &steps {
        baseline.push(base_driver.step(&mut base_client, line)?);
    }
    baseline.push(base_driver.call(&mut base_client, &stats)?);
    baseline.push(base_driver.call(&mut base_client, &close)?);
    drop(base_client);
    baseline_fabric.shutdown();

    // Faulty run: router storm + shard session storms + owner kill.
    let router_faults = Faults::seeded(seed, FaultConfig::router_storm());
    let shard_faults = Faults::seeded(seed ^ 0xF00D, FaultConfig::session_storm());
    let store_dir = dir.join("chaos");
    let mut fabric = {
        let shard_faults = shard_faults.clone();
        Fabric::spawn_with(
            TRIAL_SHARDS,
            &store_dir,
            |config| config.faults = router_faults.clone(),
            move |config| config.faults = shard_faults.clone(),
        )?
    };
    // The owner is where the router pins the session: ring-route of the
    // session id under the fabric's (default) ring parameters.
    let owner = HashRing::new(TRIAL_SHARDS, DEFAULT_VNODES)
        .route(session)
        .unwrap_or(0) as usize;

    let mut client = Client::connect_with(fabric.router.addr(), trial_client_config())?;
    let mut driver = SessionDriver::new();
    let mut responses = Vec::new();
    responses.push(driver.open(&mut client, &open)?);
    let kill_at = steps.len() / 2;
    for (i, line) in steps.iter().enumerate() {
        if i == kill_at {
            // Kill the session's owner between steps: its BO state dies
            // with it. The restarted instance answers `unknown_session`
            // and the driver replays the recorded prefix.
            let victim = fabric.shards.remove(owner);
            let addr = fabric.shard_addrs[owner].clone();
            victim.kill();
            let restarted = restart_shard(&addr, &store_dir, owner as u32)?;
            fabric.shards.insert(owner, restarted);
        }
        responses.push(driver.step(&mut client, line)?);
    }
    responses.push(driver.call(&mut client, &stats)?);
    responses.push(driver.call(&mut client, &close)?);
    drop(client);
    fabric.shutdown();

    let matches_baseline = responses == baseline;
    let mut requests = Vec::with_capacity(steps.len() + 3);
    requests.push(open);
    requests.extend(steps);
    requests.push(stats);
    requests.push(close);
    Ok(SessionTrial {
        seed,
        requests,
        responses,
        matches_baseline,
        router_stats: router_faults.stats(),
        shard_stats: shard_faults.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "oa_router_chaos_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn trial_requests_are_seed_deterministic() {
        assert_eq!(trial_requests(11), trial_requests(11));
        assert_ne!(trial_requests(11), trial_requests(12));
    }

    #[test]
    fn router_trial_survives_storm_and_shard_kill_byte_identically() {
        let dir = temp_dir("trial");
        let trial = router_trial(&dir, 42).unwrap();
        assert!(
            trial.matches_baseline,
            "faulty fabric diverged from baseline: {:?}",
            trial.responses
        );
        assert!(trial.stats.injected > 0, "storm must inject");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_kill_trial_trace_hash_is_a_cross_run_invariant() {
        // Without a process kill there is no EOF race: the router
        // consults the schedule identically every run, so the decision
        // trace (not just the bytes) must replay.
        let dir_a = temp_dir("nokill_a");
        let dir_b = temp_dir("nokill_b");
        let a = router_trial_opts(&dir_a, 7, false).unwrap();
        let b = router_trial_opts(&dir_b, 7, false).unwrap();
        assert!(a.matches_baseline, "{:?}", a.responses);
        assert!(b.matches_baseline, "{:?}", b.responses);
        assert_eq!(
            a.trace_hash, b.trace_hash,
            "decision trace diverged across runs"
        );
        assert_eq!(a.requests, b.requests);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}
