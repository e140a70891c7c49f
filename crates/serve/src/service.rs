//! Protocol semantics: request decoding, store-backed evaluation,
//! statistics.
//!
//! [`Service`] is transport-agnostic — [`Service::handle_line`] maps one
//! request line to one response line, and the TCP layer in
//! [`crate::server`] only shuttles lines. That makes the whole protocol
//! testable in-process, and is what the integration tests use to prove
//! the server byte-matches direct evaluator calls.
//!
//! ## Determinism contract
//!
//! For `eval`, `eval_batch` and `size_opt`, the response `result` is a
//! pure function of `(request, store contents)`, and the store only ever
//! holds values that the same pure computation produced — so *same
//! request + same seed → byte-identical `result`*, whether it was
//! simulated or served from the store, before or after a daemon restart.
//! Responses deliberately carry no cached/latency markers; cache
//! behavior is observable through `stats` only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use into_oa::{EvalError, EvalHandle, Evaluator, PlanCacheStats, SizedDesign, Spec};
use oa_bo::{BoSession, TopoBoConfig, TopoObservation};
use oa_circuit::Topology;
use oa_fault::{Decision, Faults, Site};
use oa_graph::WlFeaturizer;
use oa_store::{hash_f64s, EvalKey, EvalKind, Store, Unsynced};

use crate::json::Json;
use crate::session::{
    close_result_json, observation_from_size_opt, open_result_json, session_id, session_stats_json,
    step_result_json, OpError, OpenParams, SessionCore, SessionManager, DEFAULT_SESSION_LIMIT,
};

/// WL refinement depth used for response fingerprints.
const WL_FINGERPRINT_H: usize = 2;

/// Default sizing-BO budget for `size_opt` (the paper's setup).
const DEFAULT_SIZE_OPT_INIT: usize = 10;
/// Default sizing-BO iterations for `size_opt`.
const DEFAULT_SIZE_OPT_ITER: usize = 30;

/// Identity of one shard in an `oa-router` fabric: `index` of `count`
/// backends. Reported verbatim in `stats` (appended at the end of the
/// object, so single-node response bytes are unchanged when absent) and
/// in the daemon startup banner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardIdentity {
    /// Zero-based shard index.
    pub index: u32,
    /// Total shard count in the fabric.
    pub count: u32,
}

/// Fingerprint of the process constants and AC options baked into an
/// evaluator — part of every [`EvalKey`], so results measured under
/// different processes can never alias in the store.
pub fn process_fingerprint(evaluator: &Evaluator) -> u64 {
    let p = evaluator.process();
    hash_f64s([
        p.vdd,
        p.gm_over_id,
        p.intrinsic_gain,
        p.parasitic_tau,
        p.co_floor,
        p.gm_ft_hz,
        p.gmin,
    ])
}

/// Deterministic WL fingerprint of a topology: the self-kernel of its
/// depth-`2` WL features, mixed with the canonical code. Computing it
/// through a shared [`WlFeaturizer`] exercises the feature memoization,
/// whose hit/miss counters the `stats` endpoint reports.
pub fn wl_fingerprint(wl: &mut WlFeaturizer, topology: &Topology) -> u64 {
    let features = wl.featurize_topology(topology, WL_FINGERPRINT_H);
    let self_kernel = features.kernel(&features, WL_FINGERPRINT_H);
    hash_f64s([self_kernel, topology.index() as f64])
}

/// Renders an eval result object — the exact bytes stored and served.
/// Public so tests can state the byte-identity acceptance criterion
/// against direct [`Evaluator`] calls.
pub fn eval_result_json(design: &SizedDesign, wl_fingerprint: u64) -> String {
    Json::Obj(vec![
        ("topology".into(), Json::num(design.topology.index() as f64)),
        ("gain_db".into(), Json::num(design.performance.gain_db)),
        ("gbw_hz".into(), Json::num(design.performance.gbw_hz)),
        ("pm_deg".into(), Json::num(design.performance.pm_deg)),
        ("power_w".into(), Json::num(design.performance.power_w)),
        ("fom".into(), Json::num(design.fom)),
        ("feasible".into(), Json::Bool(design.feasible)),
        ("wl".into(), Json::str(format!("{wl_fingerprint:016x}"))),
    ])
    .encode()
    // lint: allow(panic, encode fails only on non-finite floats; Performance fields are finite by construction)
    .expect("measured performance is finite")
}

/// Renders a typed per-item error frame for `eval_batch`:
/// `{"error":{"kind":"...","detail":"..."}}`. The `kind` is the stable
/// wire contract ([`into_oa::EvalErrorKind::code`]); `detail` is
/// human-readable context.
pub fn eval_error_json(err: &EvalError) -> String {
    Json::Obj(vec![(
        "error".into(),
        Json::Obj(vec![
            ("kind".into(), Json::str(err.kind.code())),
            ("detail".into(), Json::str(err.detail.clone())),
        ]),
    )])
    .encode()
    // lint: allow(panic, an error frame holds only strings so encode cannot fail)
    .expect("strings encode")
}

/// Renders a size_opt result object.
pub fn size_opt_result_json(design: &Option<SizedDesign>, sims: usize, x: &[f64]) -> String {
    let mut fields = vec![
        ("found".into(), Json::Bool(design.is_some())),
        ("sims".into(), Json::num(sims as f64)),
    ];
    if let Some(d) = design {
        fields.push((
            "x".into(),
            Json::Arr(x.iter().map(|&v| Json::num(v)).collect()),
        ));
        fields.push(("topology".into(), Json::num(d.topology.index() as f64)));
        fields.push(("gain_db".into(), Json::num(d.performance.gain_db)));
        fields.push(("gbw_hz".into(), Json::num(d.performance.gbw_hz)));
        fields.push(("pm_deg".into(), Json::num(d.performance.pm_deg)));
        fields.push(("power_w".into(), Json::num(d.performance.power_w)));
        fields.push(("fom".into(), Json::num(d.fom)));
        fields.push(("feasible".into(), Json::Bool(d.feasible)));
    }
    Json::Obj(fields)
        .encode()
        // lint: allow(panic, encode fails only on non-finite floats; sized-design fields are finite by construction)
        .expect("measured performance is finite")
}

#[derive(Debug, Default)]
struct EndpointCounters {
    count: AtomicU64,
    errors: AtomicU64,
    micros: AtomicU64,
}

impl EndpointCounters {
    fn record(&self, started: Instant, ok: bool) {
        self.count.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.micros
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    fn json(&self) -> Json {
        Json::Obj(vec![
            (
                "count".into(),
                Json::num(self.count.load(Ordering::Relaxed) as f64),
            ),
            (
                "errors".into(),
                Json::num(self.errors.load(Ordering::Relaxed) as f64),
            ),
            (
                "micros".into(),
                Json::num(self.micros.load(Ordering::Relaxed) as f64),
            ),
        ])
    }
}

/// What [`Service::stage`] made of one request line.
#[derive(Debug)]
pub(crate) enum Staged {
    /// The response, finished in the cheap stage: a store hit, or a
    /// request that failed before reaching any work.
    Answered(String),
    /// Work for [`Service::compute`].
    Deferred(Deferred),
}

/// A request the cheap stage handed on to the compute stage: the parsed
/// request, its id, the endpoint clock and what is left to do.
#[derive(Debug)]
pub(crate) struct Deferred {
    request: Json,
    id: Json,
    started: Instant,
    task: Task,
}

/// The compute-stage work of one deferred request.
#[derive(Debug)]
enum Task {
    EvalMiss(EvalMiss),
    EvalBatch,
    SizeOpt,
    Stats,
    OpenSession,
    Step,
    SessionStats,
    CloseSession,
}

/// An `eval` whose key missed the store: everything the simulation and
/// the append need.
#[derive(Debug)]
struct EvalMiss {
    handle: EvalHandle,
    topology: Topology,
    x: Vec<f64>,
    key: Vec<u8>,
}

/// The outcome of an `eval`'s one store probe.
enum Probe {
    Hit(String),
    Miss(EvalMiss),
}

/// The evaluation service: one [`EvalHandle`] per spec, a persistent
/// [`Store`], a shared WL featurizer, and traffic counters. Shared
/// across worker threads behind an `Arc`.
pub struct Service {
    handles: Vec<EvalHandle>,
    store: Mutex<Store>,
    wl: Mutex<WlFeaturizer>,
    faults: Faults,
    shard: Option<ShardIdentity>,
    process_hash: u64,
    sims: AtomicU64,
    sessions: SessionManager,
    eval_counters: EndpointCounters,
    batch_counters: EndpointCounters,
    size_opt_counters: EndpointCounters,
    stats_counters: EndpointCounters,
    session_counters: EndpointCounters,
}

impl Service {
    /// Builds a service over an open store, with evaluators for every
    /// spec in Table I and fault injection disabled.
    pub fn new(store: Store) -> Service {
        Self::with_faults(store, Faults::none())
    }

    /// Like [`Service::new`], threading a fault plan through the
    /// per-item `eval_batch` path ([`oa_fault::Site::EvalItem`]). The
    /// store's own fault sites are configured when the store is opened
    /// ([`oa_store::Store::open_with_faults`]); pass the same handle for
    /// one shared schedule.
    pub fn with_faults(store: Store, faults: Faults) -> Service {
        let handles: Vec<EvalHandle> = Spec::all()
            .into_iter()
            .map(|spec| Evaluator::new(spec).into_handle())
            .collect();
        // Spec::all() is never empty, so handles[0] exists.
        let process_hash = process_fingerprint(handles[0].evaluator());
        Service {
            handles,
            store: Mutex::new(store),
            wl: Mutex::new(WlFeaturizer::new()),
            faults,
            shard: None,
            process_hash,
            sims: AtomicU64::new(0),
            sessions: SessionManager::new(DEFAULT_SESSION_LIMIT),
            eval_counters: EndpointCounters::default(),
            batch_counters: EndpointCounters::default(),
            size_opt_counters: EndpointCounters::default(),
            stats_counters: EndpointCounters::default(),
            session_counters: EndpointCounters::default(),
        }
    }

    /// Tags this service with a shard identity (builder style). `stats`
    /// then reports a trailing `"shard":{"index":I,"count":N}` field.
    pub fn with_shard(mut self, shard: Option<ShardIdentity>) -> Service {
        self.shard = shard;
        self
    }

    /// Caps concurrently open sessions (builder style). New
    /// `open_session` requests beyond the cap fail with a typed
    /// `session_limit` error; re-opening an existing id never counts.
    pub fn with_session_limit(mut self, limit: usize) -> Service {
        self.sessions.set_limit(limit);
        self
    }

    /// Simulations actually run (store misses) since startup.
    pub fn sims(&self) -> u64 {
        self.sims.load(Ordering::Relaxed)
    }

    /// Live records currently in the store.
    pub fn store_len(&self) -> usize {
        let store = self.store.lock().unwrap_or_else(|p| p.into_inner());
        store.len()
    }

    /// Maps one request line to one response line (no trailing newline).
    /// Never panics on malformed input — every failure becomes an
    /// `"ok":false` response carrying the request id when one was
    /// readable. The composition of the cheap stage (`Service::stage`)
    /// and the compute stage (`Service::compute`), which the TCP front
    /// end runs on different threads. Every store append the request
    /// made is fsynced before this returns; the TCP front end runs that
    /// fsync after writing the response instead.
    pub fn handle_line(&self, line: &str) -> String {
        match self.stage(line) {
            Staged::Answered(response) => response,
            Staged::Deferred(deferred) => {
                let (response, pending) = self.compute(deferred);
                sync_appends(pending);
                response
            }
        }
    }

    /// The cheap stage of [`Service::handle_line`]: parses the line,
    /// derives an `eval`'s store key and probes the store once. A store
    /// hit, or a request that fails before any work, is answered here;
    /// everything else (`eval` misses, `eval_batch`, `size_opt`, `stats`
    /// and the session ops) is deferred to [`Service::compute`]. The TCP
    /// front end runs this stage on the connection thread and only the
    /// compute stage on the worker pool.
    pub(crate) fn stage(&self, line: &str) -> Staged {
        let request = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                let response = error_response(&Json::Null, &format!("bad request JSON: {e}"));
                return Staged::Answered(response);
            }
        };
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        // Determinism audit: `started` flows only into
        // `EndpointCounters::record`, whose totals surface exclusively
        // through the `stats` endpoint — which the byte-determinism
        // contract (see module docs) explicitly excludes. No eval,
        // eval_batch or size_opt response byte depends on it.
        // lint: allow(wall_clock, elapsed time feeds stats counters only, never response bytes)
        let started = Instant::now();
        // Requests the cheap stage finishes all count as `eval`s.
        let answered =
            |outcome| Staged::Answered(answer(&id, started, &self.eval_counters, outcome));
        let task = match request.get("op").and_then(Json::as_str) {
            Some("eval") => match self.probe_eval(&request) {
                Ok(Probe::Miss(miss)) => Task::EvalMiss(miss),
                Ok(Probe::Hit(result)) => return answered(Ok(result)),
                Err(message) => return answered(Err(OpError::Plain(message))),
            },
            Some("eval_batch") => Task::EvalBatch,
            Some("size_opt") => Task::SizeOpt,
            Some("stats") => Task::Stats,
            Some("open_session") => Task::OpenSession,
            Some("step") => Task::Step,
            Some("session_stats") => Task::SessionStats,
            Some("close_session") => Task::CloseSession,
            Some(other) => {
                return answered(Err(OpError::plain(format!(
                    "unknown op '{other}' (expected eval, eval_batch, size_opt, stats, \
                     open_session, step, session_stats or close_session)"
                ))))
            }
            None => return answered(Err(OpError::plain("missing string field 'op'"))),
        };
        Staged::Deferred(Deferred {
            request,
            id,
            started,
            task,
        })
    }

    /// The compute stage of [`Service::handle_line`]: runs a request
    /// [`Service::stage`] deferred and renders its response. An `eval`
    /// miss goes straight to the simulator — the cheap stage already
    /// counted its one store probe. Every record the request appended is
    /// written and published before this returns; their one pending
    /// fsync comes back with the response, for `sync_appends` to run
    /// once the response is on its way.
    pub(crate) fn compute(&self, deferred: Deferred) -> (String, Option<Unsynced>) {
        let Deferred {
            request,
            id,
            started,
            task,
        } = deferred;
        let mut pending = None;
        let (outcome, counters): (Result<String, OpError>, _) = match task {
            Task::EvalMiss(miss) => (
                self.eval_miss(&miss, &mut pending)
                    .map_err(|e| OpError::Plain(e.detail)),
                &self.eval_counters,
            ),
            Task::EvalBatch => (
                self.op_eval_batch(&request, &mut pending)
                    .map_err(OpError::Plain),
                &self.batch_counters,
            ),
            Task::SizeOpt => (
                self.op_size_opt(&request, &mut pending)
                    .map_err(OpError::Plain),
                &self.size_opt_counters,
            ),
            Task::Stats => (Ok(self.op_stats()), &self.stats_counters),
            Task::OpenSession => (self.op_open_session(&request), &self.session_counters),
            Task::Step => (self.op_step(&request, &mut pending), &self.session_counters),
            Task::SessionStats => (self.op_session_stats(&request), &self.session_counters),
            Task::CloseSession => (self.op_close_session(&request), &self.session_counters),
        };
        (answer(&id, started, counters, outcome), pending)
    }

    fn handle_for(&self, request: &Json) -> Result<&EvalHandle, String> {
        let name = request
            .get("spec")
            .and_then(Json::as_str)
            .ok_or("missing string field 'spec'")?;
        self.handles
            .iter()
            .find(|h| h.spec().name == name)
            .ok_or_else(|| format!("unknown spec '{name}' (expected S-1..S-5)"))
    }

    fn topology_from(value: Option<&Json>) -> Result<Topology, String> {
        let code = value
            .and_then(Json::as_u64)
            .ok_or("missing integer field 'topology'")?;
        Topology::from_index(code as usize).map_err(|e| format!("bad topology code {code}: {e}"))
    }

    fn x_from(value: Option<&Json>) -> Result<Vec<f64>, String> {
        let arr = value
            .and_then(Json::as_arr)
            .ok_or("missing array field 'x'")?;
        arr.iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| "non-numeric entry in 'x'".to_owned())
            })
            .collect()
    }

    /// The store key of one evaluation.
    fn eval_key(&self, handle: &EvalHandle, topology: &Topology, x: &[f64]) -> Vec<u8> {
        EvalKey {
            kind: EvalKind::Eval,
            topology_code: topology.index() as u64,
            x_bits: x.iter().map(|v| v.to_bits()).collect(),
            spec_id: handle.spec().name.to_owned(),
            process_hash: self.process_hash,
            seed: 0,
        }
        .encode()
    }

    /// Store-through single evaluation for `eval_batch` items. Returns
    /// the result JSON text.
    fn eval_via_store(
        &self,
        handle: &EvalHandle,
        topology: &Topology,
        x: &[f64],
        pending: &mut Option<Unsynced>,
    ) -> Result<String, EvalError> {
        let key = self.eval_key(handle, topology, x);
        match self.store_get(&key) {
            Some(bytes) => stored_text(bytes),
            None => self.eval_miss(
                &EvalMiss {
                    handle: handle.clone(),
                    topology: *topology,
                    x: x.to_vec(),
                    key,
                },
                pending,
            ),
        }
    }

    /// The cheap half of `eval`: validates the request and probes the
    /// store once under the evaluation key. The top-level `eval` error
    /// is the plain detail text; typed kinds are a per-item concern of
    /// `eval_batch`.
    fn probe_eval(&self, request: &Json) -> Result<Probe, String> {
        let handle = self.handle_for(request)?;
        let topology = Self::topology_from(request.get("topology"))?;
        let x = Self::x_from(request.get("x"))?;
        let key = self.eval_key(handle, &topology, &x);
        match self.store_get(&key) {
            Some(bytes) => stored_text(bytes).map(Probe::Hit).map_err(|e| e.detail),
            None => Ok(Probe::Miss(EvalMiss {
                handle: handle.clone(),
                topology,
                x,
                key,
            })),
        }
    }

    /// Simulates an evaluation the store does not hold and appends the
    /// result under its key.
    fn eval_miss(
        &self,
        miss: &EvalMiss,
        pending: &mut Option<Unsynced>,
    ) -> Result<String, EvalError> {
        let design = miss
            .handle
            .eval(&miss.topology, &miss.x)
            .map_err(EvalError::from)?;
        self.sims.fetch_add(1, Ordering::Relaxed);
        let fingerprint = {
            let mut wl = self.wl.lock().unwrap_or_else(|p| p.into_inner());
            wl_fingerprint(&mut wl, &miss.topology)
        };
        let result = eval_result_json(&design, fingerprint);
        self.store_append(&miss.key, result.as_bytes(), pending);
        Ok(result)
    }

    fn op_eval_batch(
        &self,
        request: &Json,
        pending: &mut Option<Unsynced>,
    ) -> Result<String, String> {
        let handle = self.handle_for(request)?;
        let items = request
            .get("items")
            .and_then(Json::as_arr)
            .ok_or("missing array field 'items'")?;
        let mut parts = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            // Graceful degradation: items evaluate independently, and a
            // failed item — malformed, unsimulatable, or failed on
            // purpose by the fault plan — becomes a typed error frame
            // while its siblings still return results.
            let part = if let Decision::FailItem = self.faults.decide(Site::EvalItem, i as u64) {
                Err(EvalError::injected(format!(
                    "batch item {i} failed by the fault plan"
                )))
            } else {
                Self::topology_from(item.get("topology"))
                    .and_then(|t| Self::x_from(item.get("x")).map(|x| (t, x)))
                    .map_err(EvalError::bad_request)
                    .and_then(|(t, x)| self.eval_via_store(handle, &t, &x, pending))
            };
            match part {
                Ok(result) => parts.push(result),
                Err(err) => parts.push(eval_error_json(&err)),
            }
        }
        Ok(format!(
            "{{\"n\":{},\"items\":[{}]}}",
            parts.len(),
            parts.join(",")
        ))
    }

    fn op_size_opt(
        &self,
        request: &Json,
        pending: &mut Option<Unsynced>,
    ) -> Result<String, String> {
        let handle = self.handle_for(request)?;
        let topology = Self::topology_from(request.get("topology"))?;
        let seed = request.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let n_init = request
            .get("n_init")
            .and_then(Json::as_u64)
            .unwrap_or(DEFAULT_SIZE_OPT_INIT as u64) as usize;
        let n_iter = request
            .get("n_iter")
            .and_then(Json::as_u64)
            .unwrap_or(DEFAULT_SIZE_OPT_ITER as u64) as usize;
        self.size_opt_via_store(handle, &topology, seed, n_init, n_iter, pending)
    }

    /// Store-through sizing-BO run; shared by `size_opt` and the
    /// session `step` evaluation. Returns the result JSON text — the
    /// exact bytes stored, so a step replayed over its own records
    /// reconstructs identical observations.
    fn size_opt_via_store(
        &self,
        handle: &EvalHandle,
        topology: &Topology,
        seed: u64,
        n_init: usize,
        n_iter: usize,
        pending: &mut Option<Unsynced>,
    ) -> Result<String, String> {
        let key = EvalKey {
            kind: EvalKind::SizeOpt,
            topology_code: topology.index() as u64,
            x_bits: vec![n_init as u64, n_iter as u64],
            spec_id: handle.spec().name.to_owned(),
            process_hash: self.process_hash,
            seed,
        }
        .encode();
        if let Some(bytes) = self.store_get(&key) {
            return String::from_utf8(bytes).map_err(|_| "corrupt store value".to_owned());
        }
        let (design, sims) = handle.size_opt(topology, seed, n_init, n_iter);
        self.sims.fetch_add(sims as u64, Ordering::Relaxed);
        let x = design
            .as_ref()
            .map(|d| oa_circuit::ParamSpace::for_topology(&d.topology).encode(&d.values))
            .unwrap_or_default();
        let result = size_opt_result_json(&design, sims, &x);
        self.store_append(&key, result.as_bytes(), pending);
        Ok(result)
    }

    /// Warm-start observations for a session targeting `target`: every
    /// well-formed `size_opt` record in the store whose spec is in
    /// `family` (and is **not** the target — a session's own appends
    /// must never change its replay), re-scored under the target spec.
    /// Order follows store key order, so the scan is deterministic for
    /// a given store snapshot. Public so the warm-start differential
    /// test can state its claim against the exact serving scan.
    pub fn warm_observations(
        &self,
        target: &str,
        family: &[String],
    ) -> Vec<(Topology, TopoObservation)> {
        let Some(spec) = self
            .handles
            .iter()
            .find(|h| h.spec().name == target)
            .map(|h| *h.spec())
        else {
            return Vec::new();
        };
        let store = self.store.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = Vec::new();
        for (key_bytes, value) in store.iter() {
            let Some(key) = EvalKey::decode(key_bytes) else {
                continue;
            };
            if key.kind != EvalKind::SizeOpt
                || key.process_hash != self.process_hash
                || key.spec_id == target
                || !family.contains(&key.spec_id)
            {
                continue;
            }
            let Ok(text) = std::str::from_utf8(value) else {
                continue;
            };
            let Ok(record) = Json::parse(text) else {
                continue;
            };
            let (Some(observation), _) = observation_from_size_opt(&spec, &record) else {
                continue;
            };
            let Ok(topology) = Topology::from_index(key.topology_code as usize) else {
                continue;
            };
            out.push((topology, observation));
        }
        out
    }

    fn op_open_session(&self, request: &Json) -> Result<String, OpError> {
        let params = OpenParams::parse(request)?;
        for name in &params.spec_names {
            if !self.handles.iter().any(|h| h.spec().name == name) {
                return Err(OpError::spec_invalid(format!(
                    "unknown spec '{name}' (expected S-1..S-5)"
                )));
            }
        }
        let Some(target) = params.spec_names.first().cloned() else {
            return Err(OpError::spec_invalid("'specs' must be non-empty"));
        };
        let config = TopoBoConfig {
            n_init: params.n_init,
            n_iter: 0, // sessions are open-ended; the driver budget is unused
            pool_size: params.pool_size,
            mutation_fraction: params.mutation_fraction,
            elite_count: params.elite_count,
            wl_levels: params.wl_levels,
            seed: params.seed,
        };
        let mut bo = BoSession::new(config);
        let mut warm = 0usize;
        let family = params.spec_names.get(1..).unwrap_or(&[]);
        if params.warm_start && !family.is_empty() {
            for (topology, observation) in self.warm_observations(&target, family) {
                bo.seed_observation(topology, observation);
                warm += 1;
            }
        }
        let target_idx = self
            .handles
            .iter()
            .position(|h| h.spec().name == target)
            .ok_or_else(|| OpError::plain("internal: target spec vanished"))?;
        let core = SessionCore {
            spec_names: params.spec_names,
            target: target_idx,
            seed: params.seed,
            size_init: params.size_init,
            size_iter: params.size_iter,
            warm,
            steps: 0,
            bo,
        };
        let result = open_result_json(params.session, &core);
        self.sessions.open(params.session, core)?;
        Ok(result)
    }

    fn op_step(&self, request: &Json, pending: &mut Option<Unsynced>) -> Result<String, OpError> {
        let session = session_id(request)?;
        let slot = self
            .sessions
            .get(session)
            .ok_or_else(|| OpError::unknown_session(session))?;
        // The fault decision comes before any state mutation: a failed
        // step leaves the session exactly as it was, so the client's
        // retry re-runs the same iterate and the transcript stays
        // byte-identical to an uninjected run.
        if let Decision::FailItem = self.faults.decide(Site::SessionStep, session) {
            return Err(OpError::injected(format!(
                "session {session} step failed by the fault plan"
            )));
        }
        let mut core = slot.lock().unwrap_or_else(|p| p.into_inner());
        let phase = if core.bo.in_init_phase() {
            "init"
        } else {
            "bo"
        };
        core.steps += 1;
        let step = core.steps;
        self.sessions.record_step();
        let Some(topology) = core.bo.propose_default() else {
            return Ok(step_result_json(session, step, phase, None, &core));
        };
        let handle = self
            .handles
            .get(core.target)
            .ok_or_else(|| OpError::plain("internal: session spec handle missing"))?;
        let result = self
            .size_opt_via_store(
                handle,
                &topology,
                core.seed,
                core.size_init,
                core.size_iter,
                pending,
            )
            .map_err(OpError::Plain)?;
        let record = Json::parse(&result)
            .map_err(|e| OpError::plain(format!("corrupt store value: {e}")))?;
        let (observation, sims) = observation_from_size_opt(handle.spec(), &record);
        core.bo.observe(topology, observation.clone());
        Ok(step_result_json(
            session,
            step,
            phase,
            Some((topology, observation.as_ref(), sims)),
            &core,
        ))
    }

    fn op_session_stats(&self, request: &Json) -> Result<String, OpError> {
        let session = session_id(request)?;
        let slot = self
            .sessions
            .get(session)
            .ok_or_else(|| OpError::unknown_session(session))?;
        let core = slot.lock().unwrap_or_else(|p| p.into_inner());
        Ok(session_stats_json(session, &core))
    }

    fn op_close_session(&self, request: &Json) -> Result<String, OpError> {
        let session = session_id(request)?;
        let slot = self
            .sessions
            .close(session)
            .ok_or_else(|| OpError::unknown_session(session))?;
        let core = slot.lock().unwrap_or_else(|p| p.into_inner());
        Ok(close_result_json(session, &core))
    }

    /// Symbolic-plan cache counters summed over every spec's evaluator
    /// (the caches are per-evaluator; the capacity story is their total).
    fn plan_cache_totals(&self) -> PlanCacheStats {
        self.handles.iter().map(|h| h.plan_cache_stats()).fold(
            PlanCacheStats::default(),
            |acc, s| PlanCacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
            },
        )
    }

    fn op_stats(&self) -> String {
        let store = {
            let store = self.store.lock().unwrap_or_else(|p| p.into_inner());
            store.stats()
        };
        let wl = {
            let wl = self.wl.lock().unwrap_or_else(|p| p.into_inner());
            wl.cache_stats()
        };
        let plan = self.plan_cache_totals();
        let mut fields = vec![
            (
                "store".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::num(store.hits as f64)),
                    ("misses".into(), Json::num(store.misses as f64)),
                    ("live_records".into(), Json::num(store.live_records as f64)),
                    (
                        "appended_records".into(),
                        Json::num(store.appended_records as f64),
                    ),
                    ("log_bytes".into(), Json::num(store.log_bytes as f64)),
                    (
                        "recovered_tail_bytes".into(),
                        Json::num(store.recovered_tail_bytes as f64),
                    ),
                ]),
            ),
            (
                "wl".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::num(wl.hits as f64)),
                    ("misses".into(), Json::num(wl.misses as f64)),
                ]),
            ),
            (
                "plan".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::num(plan.hits as f64)),
                    ("misses".into(), Json::num(plan.misses as f64)),
                ]),
            ),
            ("sims".into(), Json::num(self.sims() as f64)),
            (
                "endpoints".into(),
                Json::Obj(vec![
                    ("eval".into(), self.eval_counters.json()),
                    ("eval_batch".into(), self.batch_counters.json()),
                    ("size_opt".into(), self.size_opt_counters.json()),
                    ("stats".into(), self.stats_counters.json()),
                    ("session".into(), self.session_counters.json()),
                ]),
            ),
            ("sessions".into(), self.sessions.stats_json()),
        ];
        // Appended last so an un-sharded instance's stats bytes are
        // exactly the pre-shard-era shape (the golden fixture relies on
        // this, and the router strips it before summing).
        if let Some(shard) = self.shard {
            fields.push((
                "shard".into(),
                Json::Obj(vec![
                    ("index".into(), Json::num(shard.index as f64)),
                    ("count".into(), Json::num(shard.count as f64)),
                ]),
            ));
        }
        Json::Obj(fields)
            .encode()
            // lint: allow(panic, counters are u64/f64 means of finite samples; never NaN or infinite)
            .expect("counters are finite")
    }

    fn store_get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let store = self.store.lock().unwrap_or_else(|p| p.into_inner());
        store.get(key)
    }

    /// Writes and publishes one record, keeping its fsync in `pending`
    /// (the latest pending sync covers every earlier append).
    fn store_append(&self, key: &[u8], value: &[u8], pending: &mut Option<Unsynced>) {
        // The lock covers only the write, never a simulation or a disk
        // flush. Two concurrent misses on the same key both simulate
        // and both append; the records are byte-identical, so
        // last-write-wins is harmless and responses stay deterministic.
        let appended = {
            let mut store = self.store.lock().unwrap_or_else(|p| p.into_inner());
            store.append(key, value)
        };
        match appended {
            Ok(unsynced) => *pending = Some(unsynced),
            // The store is an optimization; serving continues without it.
            Err(e) => eprintln!("oa-serve: store append failed: {e}"),
        }
    }
}

/// Runs a request's pending store fsync. A failed flush is reported
/// like a failed append and otherwise ignored: the record stays
/// published, and serving continues.
pub(crate) fn sync_appends(pending: Option<Unsynced>) {
    if let Some(Err(e)) = pending.map(Unsynced::sync) {
        eprintln!("oa-serve: store sync failed: {e}");
    }
}

/// Records an endpoint outcome and renders its response frame.
fn answer(
    id: &Json,
    started: Instant,
    counters: &EndpointCounters,
    outcome: Result<String, OpError>,
) -> String {
    counters.record(started, outcome.is_ok());
    match outcome {
        Ok(result) => {
            let id_txt = id.encode().unwrap_or_else(|_| "null".to_owned());
            format!("{{\"id\":{id_txt},\"ok\":true,\"result\":{result}}}")
        }
        Err(OpError::Plain(message)) => error_response(id, &message),
        Err(OpError::Typed { kind, detail }) => typed_error_response(id, kind, &detail),
    }
}

/// A stored eval result as text.
fn stored_text(bytes: Vec<u8>) -> Result<String, EvalError> {
    String::from_utf8(bytes).map_err(|_| EvalError::internal("corrupt store value"))
}

/// Renders the canonical `{"id":ID,"ok":false,"error":"msg"}` frame.
/// Public because `oa-router` answers protocol-level failures (a line
/// that doesn't parse, load shedding) locally and must produce the
/// byte-exact shape a shard would.
pub fn error_response(id: &Json, message: &str) -> String {
    let id_txt = id.encode().unwrap_or_else(|_| "null".to_owned());
    // lint: allow(panic, Json::str never contains floats so encode cannot fail)
    let msg = Json::str(message).encode().expect("strings encode");
    format!("{{\"id\":{id_txt},\"ok\":false,\"error\":{msg}}}")
}

/// Renders a typed `{"id":ID,"ok":false,"error":{"kind":K,"detail":D}}`
/// frame — the session-op failure shape (`unknown_session`,
/// `session_limit`, `spec_invalid`, `injected`). Public for the same
/// reason as [`error_response`]: clients and the router match on the
/// exact bytes a shard would produce.
pub fn typed_error_response(id: &Json, kind: &str, detail: &str) -> String {
    let id_txt = id.encode().unwrap_or_else(|_| "null".to_owned());
    let err = Json::Obj(vec![
        ("kind".into(), Json::str(kind)),
        ("detail".into(), Json::str(detail)),
    ])
    .encode()
    // lint: allow(panic, an error object holds only strings so encode cannot fail)
    .expect("strings encode");
    format!("{{\"id\":{id_txt},\"ok\":false,\"error\":{err}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_circuit::ParamSpace;
    use std::path::PathBuf;

    fn temp_store(tag: &str) -> (Service, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "oa_serve_svc_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("results.log");
        (Service::new(Store::open(&path).unwrap()), dir)
    }

    fn eval_line(id: u64, topology: usize, x: &[f64]) -> String {
        let xs: Vec<String> = x.iter().map(|v| format!("{v:.17e}")).collect();
        format!(
            "{{\"id\":{id},\"op\":\"eval\",\"spec\":\"S-1\",\"topology\":{topology},\"x\":[{}]}}",
            xs.join(",")
        )
    }

    #[test]
    fn eval_matches_direct_evaluator_and_hits_store_on_repeat() {
        let (service, dir) = temp_store("eval");
        let t = Topology::bare_cascade();
        let x = vec![0.5; ParamSpace::for_topology(&t).dim()];

        let first = service.handle_line(&eval_line(1, t.index(), &x));
        assert_eq!(service.sims(), 1);
        let second = service.handle_line(&eval_line(1, t.index(), &x));
        assert_eq!(
            second, first,
            "store-served response must be byte-identical"
        );
        assert_eq!(service.sims(), 1, "repeat must not simulate");

        // The measured numbers equal a direct in-process evaluation.
        let direct = Evaluator::new(Spec::s1()).simulate_sized(&t, &x).unwrap();
        let parsed = Json::parse(&first).unwrap();
        let result = parsed.get("result").unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            result.get("gain_db").unwrap().as_f64().unwrap().to_bits(),
            direct.performance.gain_db.to_bits()
        );
        assert_eq!(
            result.get("fom").unwrap().as_f64().unwrap().to_bits(),
            direct.fom.to_bits()
        );
        assert_eq!(
            result.get("feasible").unwrap().as_bool().unwrap(),
            direct.feasible
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_miss_is_served_from_the_store_before_its_sync_runs() {
        let (service, dir) = temp_store("unsynced");
        let t = Topology::bare_cascade();
        let line = eval_line(1, t.index(), &vec![0.5; ParamSpace::for_topology(&t).dim()]);
        let Staged::Deferred(deferred) = service.stage(&line) else {
            panic!("a fresh eval must reach the compute stage");
        };
        let (first, pending) = service.compute(deferred);
        assert!(
            pending.is_some(),
            "the append's fsync is left to the caller"
        );
        // The response is out and the fsync has not run: the record is
        // already written and published.
        let Staged::Answered(second) = service.stage(&line) else {
            panic!("the repeat must be answered from the store");
        };
        assert_eq!(second, first);
        assert_eq!(service.sims(), 1);
        sync_appends(pending);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_requests_get_error_responses() {
        let (service, dir) = temp_store("bad");
        for (line, expect_id) in [
            ("not json at all", "null"),
            ("{\"id\":9}", "9"),
            ("{\"id\":10,\"op\":\"warp\"}", "10"),
            ("{\"id\":11,\"op\":\"eval\",\"spec\":\"S-9\"}", "11"),
            (
                "{\"id\":12,\"op\":\"eval\",\"spec\":\"S-1\",\"topology\":4,\"x\":[0.5]}",
                "12", // wrong dimension
            ),
            (
                "{\"id\":13,\"op\":\"eval\",\"spec\":\"S-1\",\"topology\":99999999,\"x\":[]}",
                "13", // out-of-range topology
            ),
        ] {
            let resp = service.handle_line(line);
            let parsed = Json::parse(&resp).expect("error responses are valid JSON");
            assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)), "{line}");
            assert_eq!(parsed.get("id").unwrap().encode().unwrap(), expect_id);
            assert!(parsed.get("error").unwrap().as_str().is_some());
        }
        assert_eq!(service.sims(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_mixes_results_and_per_item_errors() {
        let (service, dir) = temp_store("batch");
        let t = Topology::bare_cascade();
        let dim = ParamSpace::for_topology(&t).dim();
        let good = format!(
            "{{\"topology\":{},\"x\":[{}]}}",
            t.index(),
            vec!["0.5"; dim].join(",")
        );
        let bad = format!("{{\"topology\":{},\"x\":[0.5]}}", t.index());
        let line =
            format!("{{\"id\":1,\"op\":\"eval_batch\",\"spec\":\"S-2\",\"items\":[{good},{bad}]}}");
        let resp = service.handle_line(&line);
        let parsed = Json::parse(&resp).unwrap();
        let items = parsed.get("result").unwrap().get("items").unwrap();
        let items = items.as_arr().unwrap();
        assert_eq!(items.len(), 2);
        assert!(items[0].get("fom").is_some());
        let error = items[1].get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("bad_request"));
        assert!(error.get("detail").unwrap().as_str().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_item_faults_degrade_batches_gracefully() {
        use oa_fault::{FaultConfig, Faults};
        let dir = std::env::temp_dir().join(format!(
            "oa_serve_svc_inject_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        // Every item fails by plan: the batch still succeeds at the
        // protocol level, each item carrying a typed `injected` error.
        let config = FaultConfig {
            item_error_per_mille: 1000,
            ..FaultConfig::default()
        };
        let service = Service::with_faults(
            Store::open(dir.join("results.log")).unwrap(),
            Faults::seeded(7, config),
        );
        let t = Topology::bare_cascade();
        let dim = ParamSpace::for_topology(&t).dim();
        let item = format!(
            "{{\"topology\":{},\"x\":[{}]}}",
            t.index(),
            vec!["0.5"; dim].join(",")
        );
        let line = format!(
            "{{\"id\":4,\"op\":\"eval_batch\",\"spec\":\"S-1\",\"items\":[{item},{item}]}}"
        );
        let resp = service.handle_line(&line);
        let parsed = Json::parse(&resp).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        let items = parsed.get("result").unwrap().get("items").unwrap();
        for item in items.as_arr().unwrap() {
            let error = item.get("error").unwrap();
            assert_eq!(error.get("kind").unwrap().as_str(), Some("injected"));
        }
        assert_eq!(service.sims(), 0, "failed-by-plan items must not simulate");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_opt_is_seed_deterministic_and_cached() {
        let (service, dir) = temp_store("sizeopt");
        let line = |id: u64, seed: u64| {
            format!(
                "{{\"id\":{id},\"op\":\"size_opt\",\"spec\":\"S-1\",\"topology\":4,\
                 \"seed\":{seed},\"n_init\":3,\"n_iter\":2}}"
            )
        };
        let a = service.handle_line(&line(1, 7));
        let sims_after_first = service.sims();
        assert!(sims_after_first > 0);
        let b = service.handle_line(&line(1, 7));
        assert_eq!(a, b, "same seed must serve from store");
        assert_eq!(service.sims(), sims_after_first);
        // A different seed is a different key: it must re-run the
        // optimizer (a store miss), even if it lands on the same optimum.
        let _ = service.handle_line(&line(1, 8));
        assert!(
            service.sims() > sims_after_first,
            "different seed must miss the store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_reports_traffic() {
        let (service, dir) = temp_store("stats");
        let t = Topology::bare_cascade();
        let x = vec![0.5; ParamSpace::for_topology(&t).dim()];
        let _ = service.handle_line(&eval_line(1, t.index(), &x));
        let _ = service.handle_line(&eval_line(2, t.index(), &x));
        let resp = service.handle_line("{\"id\":3,\"op\":\"stats\"}");
        let parsed = Json::parse(&resp).unwrap();
        let result = parsed.get("result").unwrap();
        let store = result.get("store").unwrap();
        assert_eq!(store.get("hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(store.get("misses").unwrap().as_f64(), Some(1.0));
        assert_eq!(result.get("sims").unwrap().as_f64(), Some(1.0));
        let wl = result.get("wl").unwrap();
        assert_eq!(wl.get("misses").unwrap().as_f64(), Some(1.0));
        // One simulation → one symbolic analysis; the store-served repeat
        // never touches the simulator, so the plan counters stay put.
        let plan = result.get("plan").unwrap();
        assert_eq!(plan.get("misses").unwrap().as_f64(), Some(1.0));
        assert_eq!(plan.get("hits").unwrap().as_f64(), Some(0.0));
        let eval = result.get("endpoints").unwrap().get("eval").unwrap();
        assert_eq!(eval.get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(eval.get("errors").unwrap().as_f64(), Some(0.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_survive_service_restart_byte_identically() {
        let (service, dir) = temp_store("restart");
        let path = {
            let store = service.store.lock().unwrap();
            store.path().to_path_buf()
        };
        let t = Topology::bare_cascade();
        let x = vec![0.25; ParamSpace::for_topology(&t).dim()];
        let first = service.handle_line(&eval_line(5, t.index(), &x));
        drop(service);

        let revived = Service::new(Store::open(&path).unwrap());
        let second = revived.handle_line(&eval_line(5, t.index(), &x));
        assert_eq!(second, first);
        assert_eq!(revived.sims(), 0, "restart must serve from the store");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
