//! The coordinator: request routing, scatter/gather bookkeeping, shard
//! failover, backpressure, and the threads that drive it all.
//!
//! ## Byte-identity contract
//!
//! For any request the router forwards, the response bytes delivered to
//! the client are exactly the bytes a single `oa-serve` would have
//! produced for the same request line: forwarding rewrites only the `id`
//! field (to an internal sub-request id, spliced back on the way out),
//! payloads are merged as raw substrings ([`crate::frame`]), and
//! protocol-level failures the router answers locally (unparseable JSON)
//! reuse `oa-serve`'s own renderer ([`oa_serve::error_response`]).
//! Router-originated failures — load shedding, no shard reachable — use
//! typed frames (`{"error":{"kind":"overloaded"}}`) that a single node
//! never emits, so clients can tell fabric pushback from eval errors.
//!
//! ## Placement
//!
//! Requests route by topology id over the [`HashRing`]; requests with no
//! usable topology (malformed, unknown op — anything a shard must still
//! count and answer) route by a hash of the raw line. `eval_batch`
//! splits per shard only when its items actually straddle shards;
//! single-shard batches forward whole, byte-for-byte. `stats` broadcasts
//! and sums; `shard_map` answers locally from the ring.
//!
//! ## Threads
//!
//! One acceptor thread; per client connection a reader thread and a
//! writer thread; per shard link one thread that dials, reads, and
//! redials. All routing state is one [`RouterState`] behind one
//! `Mutex`. A thread holds that lock only to decide: every socket write,
//! close and injected stall it decides is queued as an [`Effect`] and
//! performed after the lock is released, so no thread reads, writes,
//! dials or sleeps while holding it — which `oa_lint`'s
//! `lock_across_blocking` rule checks, since every lock site is written
//! out where the guard's scope is visible. Fault draws stay under the
//! lock, in each request's causal order.
//!
//! ## Failover
//!
//! A lost shard connection (EOF, write failure, injected
//! [`Site::ShardDrop`]) orphans its in-flight sub-requests, and each is
//! dispatched again. The link's thread redials at once; while it dials
//! the shard keeps its keys and parts bound for it wait. Only a failed
//! dial marks the shard down: its parts then re-route to the next live
//! shard on the ring walk, and the thread redials after a doubling
//! delay. Blind resends are safe because every endpoint is
//! deterministic and store-backed — a stand-in computes the
//! byte-identical response the dead shard would have produced. With
//! every shard down a part fails `unavailable`.

use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use oa_fault::{Decision, Faults, Site};
use oa_serve::wire_kinds::{OVERLOADED, UNAVAILABLE};
use oa_serve::{error_response, FrameReader, Json};

use crate::frame;
use crate::net::{dial, Outbound};
use crate::ring::{HashRing, DEFAULT_VNODES};

/// Delay before the first redial after a failed dial; it doubles with
/// each further failure up to [`REDIAL_CAP`].
const REDIAL_BASE: Duration = Duration::from_millis(5);

/// Cap on the delay between redials of a down shard.
const REDIAL_CAP: Duration = Duration::from_millis(200);

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Shard backend addresses (texts, re-resolved on every dial).
    pub shards: Vec<String>,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: u32,
    /// Maximum client requests in flight; beyond it new requests are
    /// shed with `{"error":{"kind":"overloaded"}}`.
    pub max_inflight: usize,
    /// Failover re-dispatches per sub-request before it fails with
    /// `{"error":{"kind":"unavailable"}}`.
    pub max_resend: u32,
    /// Fault plan ([`Site::ShardDrop`], [`Site::RouterWrite`]).
    pub faults: Faults,
}

impl RouterConfig {
    /// Loopback defaults over the given shard addresses.
    pub fn loopback(shards: Vec<String>) -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards,
            vnodes: DEFAULT_VNODES,
            max_inflight: 1024,
            max_resend: 8,
            faults: Faults::none(),
        }
    }
}

/// Where a shard link stands.
#[derive(Debug)]
enum LinkState {
    /// Connected: `out` writes connection `gen` of this link.
    Up { gen: u64, out: Arc<Outbound> },
    /// The link thread is dialing; parts bound for the shard wait.
    Dialing,
    /// The last dial failed; the link thread is backing off and the
    /// ring walk routes around the shard.
    Down,
}

/// One shard link: address text plus the state of its connection.
#[derive(Debug)]
struct ShardLink {
    addr: String,
    state: LinkState,
    /// Generation of the newest connection (0 before the first).
    gen: u64,
}

/// What a sub-request's completion feeds.
#[derive(Debug)]
enum PendingKind {
    /// One forwarded line; the response passes through id-rewritten.
    Single,
    /// A split batch: part `p` covers original item indices
    /// `item_of_part[p]`; answered when every slot is filled.
    Batch {
        item_of_part: Vec<Vec<usize>>,
        slots: Vec<Option<String>>,
    },
    /// A stats broadcast: one part per shard, summed when complete.
    Stats {
        parts: Vec<Option<String>>,
        breakdown: bool,
    },
}

/// One in-flight client request.
#[derive(Debug)]
struct Pending {
    client: u64,
    /// Canonical id text to echo (the `Json` re-encoding a shard would
    /// itself produce).
    id_txt: String,
    kind: PendingKind,
    outstanding: usize,
    /// Answered early (failure path); late parts are discarded.
    done: bool,
}

/// Where a sub-request may go.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// The ring walk from this key, past shards that are down.
    Ring(u64),
    /// Only this shard (a stats part: a shard's stats are its own).
    Pinned(u32),
}

/// One forwarded wire line awaiting its shard response.
#[derive(Debug)]
struct SubRequest {
    req: u64,
    part: usize,
    /// The forwarded line (sub-id already baked in) — kept for blind
    /// resend on failover.
    line: String,
    target: Target,
    /// The shard whose live connection carries the line; `None` until
    /// sent and while waiting for a link.
    on: Option<u32>,
    resends: u32,
}

/// Socket work decided under the routing lock and performed after it
/// is released.
#[derive(Debug)]
enum Effect {
    /// An injected [`Site::RouterWrite`] stall, slept before the
    /// effects after it.
    Stall(u64),
    /// One frame, newline included, for a connection.
    Send(Arc<Outbound>, String),
    /// A connection the router dropped.
    Close(Arc<Outbound>),
}

/// Everything the router threads share, behind one `Mutex`.
struct RouterState {
    ring: HashRing,
    faults: Faults,
    max_inflight: usize,
    max_resend: u32,
    shards: Vec<ShardLink>,
    clients: BTreeMap<u64, Arc<Outbound>>,
    pending: BTreeMap<u64, Pending>,
    subs: BTreeMap<u64, SubRequest>,
    /// Sub-requests waiting for a link that is dialing.
    parked: BTreeSet<u64>,
    next_client: u64,
    next_req: u64,
    next_sub: u64,
    /// Pre-computed keys-per-shard census for `shard_map`.
    census: Vec<u64>,
    /// Decided socket work, taken and performed by the thread that
    /// decided it once the lock is released.
    effects: Vec<Effect>,
    /// Set by [`Router::shutdown`]: threads exit instead of accepting
    /// or dialing.
    stopping: bool,
}

/// How one declared op travels through the fabric. The classes mirror
/// the `route=` attribute in `crates/serve/protocol.spec`; the
/// `oa_lint wire` pass extracts [`route_of`] and cross-checks the two
/// tables in both directions (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Answered by the router itself; no shard is consulted.
    Local,
    /// Forwarded whole to one shard, keyed by topology id (falling
    /// back to a hash of the raw line).
    Key,
    /// Split per item and scattered across shards; the responses are
    /// spliced back into one frame.
    Scatter,
    /// Sent to every shard; the responses are merged.
    Broadcast,
    /// Forwarded whole to the one shard that owns the session id —
    /// sticky pinning, the anti-fork obligation of DESIGN.md §13.
    Session,
    /// Not a declared op: forwarded whole so a shard can answer with
    /// its canonical error bytes.
    Unknown,
}

/// The routing table: one arm per declared op. Client dispatch is
/// driven off this classification, so the match below *is* the
/// fabric's op coverage — adding an op to oa-serve without extending
/// it fails the `wire_router_coverage` lint rule, which is exactly how
/// a session fork is born.
fn route_of(op: &str) -> Route {
    match op {
        "shard_map" => Route::Local,
        "eval" => Route::Key,
        "size_opt" => Route::Key,
        "eval_batch" => Route::Scatter,
        "stats" => Route::Broadcast,
        "open_session" | "step" | "session_stats" | "close_session" => Route::Session,
        _ => Route::Unknown,
    }
}

/// A running router. Dropping it (or [`Router::shutdown`]) closes every
/// connection and joins every router thread.
pub struct Router {
    addr: SocketAddr,
    shared: Arc<Mutex<RouterState>>,
    acceptor: Option<JoinHandle<()>>,
    links: Vec<JoinHandle<()>>,
}

impl Router {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Closes every client and shard connection and joins every router
    /// thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the router threads exit (daemon mode: forever).
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Joins the acceptor (which joins every client thread) and the
    /// link threads.
    fn join_threads(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for handle in self.links.drain(..) {
            let _ = handle.join();
        }
    }

    fn stop(&mut self) {
        let open: Vec<Arc<Outbound>> = {
            let mut state = self.shared.lock().unwrap_or_else(|p| p.into_inner());
            state.stopping = true;
            let links = state.shards.iter().filter_map(|link| match &link.state {
                LinkState::Up { out, .. } => Some(Arc::clone(out)),
                _ => None,
            });
            links.chain(state.clients.values().cloned()).collect()
        };
        // Closing wakes every reader with EOF and every writer; a throwaway
        // connection wakes the acceptor, and an unpark a backing-off link.
        for out in open {
            out.close();
        }
        let _ = TcpStream::connect(self.addr);
        for handle in &self.links {
            handle.thread().unpark();
        }
        self.join_threads();
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds the listener, builds the ring, and starts the acceptor and one
/// thread per shard link. Links dial in the background — a backend may
/// come up after the router; requests for it wait for the dial.
///
/// # Errors
///
/// Bind failures, an empty shard list, or thread-spawn failures.
pub fn start(config: RouterConfig) -> std::io::Result<Router> {
    if config.shards.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a router needs at least one shard backend",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let ring = HashRing::new(config.shards.len() as u32, config.vnodes);
    let census = ring.census(oa_circuit::DESIGN_SPACE_SIZE as u64);
    let shard_count = config.shards.len() as u32;
    let shared = Arc::new(Mutex::new(RouterState {
        ring,
        faults: config.faults,
        max_inflight: config.max_inflight,
        max_resend: config.max_resend,
        shards: config
            .shards
            .into_iter()
            .map(|addr| ShardLink {
                addr,
                state: LinkState::Dialing,
                gen: 0,
            })
            .collect(),
        clients: BTreeMap::new(),
        pending: BTreeMap::new(),
        subs: BTreeMap::new(),
        parked: BTreeSet::new(),
        next_client: 0,
        next_req: 0,
        next_sub: 0,
        census,
        effects: Vec::new(),
        stopping: false,
    }));
    let acceptor = {
        let shared = Arc::clone(&shared);
        spawn("oa-router-accept", move || accept_loop(&listener, &shared))?
    };
    let mut router = Router {
        addr,
        shared,
        acceptor: Some(acceptor),
        links: Vec::new(),
    };
    for shard in 0..shard_count {
        let shared = Arc::clone(&router.shared);
        // On failure `router` drops here, stopping what already runs.
        router
            .links
            .push(spawn("oa-router-link", move || link_loop(&shared, shard))?);
    }
    Ok(router)
}

fn spawn(name: &str, body: impl FnOnce() + Send + 'static) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(body)
}

/// Performs socket work decided under the routing lock. Callers release
/// the lock first — they take `effects` out of the state in a block that
/// ends the guard — so `oa_lint`'s `lock_across_blocking` rule can see
/// that nothing here runs while the lock is held.
fn perform(effects: Vec<Effect>) {
    for effect in effects {
        match effect {
            Effect::Stall(millis) => std::thread::sleep(Duration::from_millis(millis)),
            Effect::Send(out, frame) => out.enqueue(frame.as_bytes()),
            Effect::Close(out) => out.close(),
        }
    }
}

/// The acceptor thread: starts a reader and a writer thread per client
/// connection, and joins them all once the router stops. Registered as
/// a panic-reachability entry point in `oa-analyze`.
fn accept_loop(listener: &TcpListener, shared: &Arc<Mutex<RouterState>>) {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.lock().unwrap_or_else(|p| p.into_inner()).stopping {
            break;
        }
        let Ok(stream) = stream else { continue };
        if let Ok(pair) = open_client(shared, stream) {
            threads.extend(pair);
        }
        let (finished, running) = threads.into_iter().partition(|h| h.is_finished());
        threads = running;
        for handle in finished {
            let _ = handle.join();
        }
    }
    for handle in threads {
        let _ = handle.join();
    }
}

/// Starts the writer and reader threads of one client connection.
fn open_client(
    shared: &Arc<Mutex<RouterState>>,
    stream: TcpStream,
) -> std::io::Result<[JoinHandle<()>; 2]> {
    stream.set_nodelay(true)?;
    let out = Arc::new(Outbound::new(stream.try_clone()?));
    let writer = {
        let out = Arc::clone(&out);
        spawn("oa-router-write", move || out.write_loop())?
    };
    out.set_writer(writer.thread().clone());
    let reader = {
        let shared = Arc::clone(shared);
        let out = Arc::clone(&out);
        spawn("oa-router-read", move || client_loop(&shared, stream, &out))
    };
    match reader {
        Ok(reader) => Ok([writer, reader]),
        Err(e) => {
            out.close();
            let _ = writer.join();
            Err(e)
        }
    }
}

/// A client connection's reader thread: routes each frame as it
/// arrives; at EOF the client is forgotten (responses still in flight
/// for it are dropped) and its writer stops. Registered as a
/// panic-reachability entry point in `oa-analyze`.
fn client_loop(shared: &Mutex<RouterState>, stream: TcpStream, out: &Arc<Outbound>) {
    let client = {
        let mut state = shared.lock().unwrap_or_else(|p| p.into_inner());
        state.add_client(out)
    };
    if let Some(client) = client {
        let mut reader = FrameReader::new(stream);
        while let Some(frames) = reader.read_frames() {
            let effects = {
                let mut state = shared.lock().unwrap_or_else(|p| p.into_inner());
                for line in &frames {
                    state.handle_client_line(client, line);
                }
                std::mem::take(&mut state.effects)
            };
            perform(effects);
        }
        let mut state = shared.lock().unwrap_or_else(|p| p.into_inner());
        state.clients.remove(&client);
    }
    out.close();
}

/// A shard link's thread: dials, reads responses until the connection
/// ends, and dials again — at once after a lost connection (an injected
/// drop leaves a healthy backend), after a doubling delay after a failed
/// dial. Registered as a panic-reachability entry point in
/// `oa-analyze`.
fn link_loop(shared: &Mutex<RouterState>, shard: u32) {
    let mut failures = 0u32;
    loop {
        let addr = {
            let mut state = shared.lock().unwrap_or_else(|p| p.into_inner());
            state.dialing(shard)
        };
        let Some(addr) = addr else { return };
        let Ok((stream, out)) = dial(&addr).and_then(|stream| {
            let out = Arc::new(Outbound::new(stream.try_clone()?));
            Ok((stream, out))
        }) else {
            let effects = {
                let mut state = shared.lock().unwrap_or_else(|p| p.into_inner());
                state.dial_failed(shard);
                std::mem::take(&mut state.effects)
            };
            perform(effects);
            let delay = REDIAL_BASE.saturating_mul(1 << failures.min(6));
            failures += 1;
            std::thread::park_timeout(delay.min(REDIAL_CAP));
            continue;
        };
        failures = 0;
        let (gen, effects) = {
            let mut state = shared.lock().unwrap_or_else(|p| p.into_inner());
            (
                state.link_up(shard, &out),
                std::mem::take(&mut state.effects),
            )
        };
        perform(effects);
        let Some(gen) = gen else {
            out.close();
            return;
        };
        let mut reader = FrameReader::new(stream);
        while let Some(frames) = reader.read_frames() {
            let effects = {
                let mut state = shared.lock().unwrap_or_else(|p| p.into_inner());
                for text in &frames {
                    state.handle_shard_frame(shard, gen, text);
                }
                std::mem::take(&mut state.effects)
            };
            perform(effects);
        }
        let effects = {
            let mut state = shared.lock().unwrap_or_else(|p| p.into_inner());
            state.link_lost(shard, gen);
            std::mem::take(&mut state.effects)
        };
        perform(effects);
        out.close();
    }
}

impl RouterState {
    /// Registers a client connection; `None` once the router stops.
    fn add_client(&mut self, out: &Arc<Outbound>) -> Option<u64> {
        if self.stopping {
            return None;
        }
        let id = self.next_client;
        self.next_client += 1;
        self.clients.insert(id, Arc::clone(out));
        Some(id)
    }

    /// Marks `shard`'s link as dialing and returns the address to dial;
    /// `None` once the router stops.
    fn dialing(&mut self, shard: u32) -> Option<String> {
        if self.stopping {
            return None;
        }
        let link = self.shards.get_mut(shard as usize)?;
        link.state = LinkState::Dialing;
        Some(link.addr.clone())
    }

    /// A dial succeeded: the link is up as a new connection generation,
    /// and parts waiting for a link are dispatched. `None` once the
    /// router stops.
    fn link_up(&mut self, shard: u32, out: &Arc<Outbound>) -> Option<u64> {
        if self.stopping {
            return None;
        }
        let link = self.shards.get_mut(shard as usize)?;
        link.gen += 1;
        let gen = link.gen;
        link.state = LinkState::Up {
            gen,
            out: Arc::clone(out),
        };
        self.redispatch_parked();
        Some(gen)
    }

    /// A dial failed: the link is down until the next attempt, and
    /// parts that were waiting for it go elsewhere or fail.
    fn dial_failed(&mut self, shard: u32) {
        if let Some(link) = self.shards.get_mut(shard as usize) {
            link.state = LinkState::Down;
        }
        self.redispatch_parked();
    }

    /// Connection `gen` of `shard`'s link ended. An EOF from a
    /// connection the router already dropped is stale and changes
    /// nothing.
    fn link_lost(&mut self, shard: u32, gen: u64) {
        if self.link_gen(shard) == Some(gen) {
            self.lose_link(shard);
        }
    }

    /// The generation of `shard`'s live connection, if it is up.
    fn link_gen(&self, shard: u32) -> Option<u64> {
        match self.shards.get(shard as usize)?.state {
            LinkState::Up { gen, .. } => Some(gen),
            _ => None,
        }
    }

    /// The health view the ring walk excludes: shards whose last dial
    /// failed. A link that is dialing — after a lost connection, or at
    /// startup — keeps its keys, and parts bound for it wait for the
    /// dial, so placement (and with it store locality and the number of
    /// fault draws) never depends on how fast a redial was.
    fn down_view(&self) -> Vec<bool> {
        self.shards
            .iter()
            .map(|link| matches!(link.state, LinkState::Down))
            .collect()
    }

    /// Dispatches every parked part again, in sub-request order.
    fn redispatch_parked(&mut self) {
        for sub_id in std::mem::take(&mut self.parked) {
            self.dispatch(sub_id);
        }
    }

    /// Queues a response frame to a client (newline appended), through
    /// the [`Site::RouterWrite`] fault point: an injected stall is
    /// decided here and slept before the frame is handed to the
    /// client's writer.
    fn respond(&mut self, client: u64, frame: &str) {
        if let Decision::Stall { millis } =
            self.faults.decide(Site::RouterWrite, frame.len() as u64)
        {
            self.effects.push(Effect::Stall(millis));
        }
        if let Some(out) = self.clients.get(&client) {
            self.effects
                .push(Effect::Send(Arc::clone(out), format!("{frame}\n")));
        }
    }

    /// A router-originated typed failure frame (never produced by a
    /// shard): `{"id":ID,"ok":false,"error":{"kind":KIND}}`.
    fn typed_failure(id_txt: &str, kind: &str) -> String {
        format!("{{\"id\":{id_txt},\"ok\":false,\"error\":{{\"kind\":\"{kind}\"}}}}")
    }

    /// Deterministic fallback ring key for requests without a routable
    /// topology: FNV-1a over the raw line.
    fn line_key(line: &str) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in line.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    fn topology_key(value: Option<&Json>) -> Option<u64> {
        let code = value?.as_u64()?;
        (code < oa_circuit::DESIGN_SPACE_SIZE as u64).then_some(code)
    }

    /// One client request line → local answer, single forward, batch
    /// scatter, or stats broadcast.
    fn handle_client_line(&mut self, client: u64, line: &str) {
        let request = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                // Same renderer, same message, same bytes as a shard.
                let frame = error_response(&Json::Null, &format!("bad request JSON: {e}"));
                self.respond(client, &frame);
                return;
            }
        };
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        let id_txt = id.encode().unwrap_or_else(|_| "null".to_owned());

        if self.pending.len() >= self.max_inflight {
            let frame = Self::typed_failure(&id_txt, OVERLOADED);
            self.respond(client, &frame);
            return;
        }

        let op = request.get("op").and_then(Json::as_str).unwrap_or("");
        match route_of(op) {
            Route::Local => {
                let frame = self.shard_map_response(&id_txt);
                self.respond(client, &frame);
            }
            Route::Broadcast => self.broadcast_stats(client, line, &request, id_txt),
            Route::Scatter => self.scatter_batch(client, line, &request, id_txt),
            Route::Session => {
                // Sticky session pinning: the session id is the ring
                // key, so every op of one session lands on the same
                // shard — the one holding its BO state. The fallback
                // (no usable `session` field) routes by line so the
                // shard can answer with its canonical error bytes.
                let key = request
                    .get("session")
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| Self::line_key(line));
                self.forward_single(client, line, key, id_txt);
            }
            Route::Key | Route::Unknown => {
                // eval, size_opt, and every malformed-but-parseable
                // request a shard must count and answer.
                let key = Self::topology_key(request.get("topology"))
                    .unwrap_or_else(|| Self::line_key(line));
                self.forward_single(client, line, key, id_txt);
            }
        }
    }

    /// Forwards one whole line (id rewritten) to the key's shard.
    fn forward_single(&mut self, client: u64, line: &str, key: u64, id_txt: String) {
        let sub_id = self.next_sub;
        let Some(wire) = frame::rewrite_request_id(line, sub_id) else {
            // Parsed JSON but not an object: answer as a shard would.
            let frame = error_response(&Json::Null, "missing string field 'op'");
            self.respond(client, &frame);
            return;
        };
        self.next_sub += 1;
        let req = self.next_req;
        self.next_req += 1;
        self.pending.insert(
            req,
            Pending {
                client,
                id_txt,
                kind: PendingKind::Single,
                outstanding: 1,
                done: false,
            },
        );
        self.subs.insert(
            sub_id,
            SubRequest {
                req,
                part: 0,
                line: wire,
                target: Target::Ring(key),
                on: None,
                resends: 0,
            },
        );
        self.dispatch(sub_id);
    }

    /// Splits an `eval_batch` across the shards its items live on. A
    /// batch whose items share one shard forwards whole (byte-identical
    /// passthrough, counted once like a single node would).
    fn scatter_batch(&mut self, client: u64, line: &str, request: &Json, id_txt: String) {
        let ranges = frame::split_array(line, "items");
        let spec = frame::top_level_value(line, "spec");
        let items = request.get("items").and_then(Json::as_arr);
        let (Some(ranges), Some(spec), Some(items)) = (ranges, spec, items) else {
            // Structurally off: a shard produces the canonical error.
            let key = Self::line_key(line);
            self.forward_single(client, line, key, id_txt);
            return;
        };
        let down = self.down_view();
        let keys: Vec<Option<u32>> = items
            .iter()
            .map(|item| {
                Self::topology_key(item.get("topology"))
                    .and_then(|k| self.ring.route_excluding(k, &down))
            })
            .collect();
        // Unroutable items (bad topology — the shard answers them with
        // a typed per-item error) attach to the batch's default shard.
        let default_shard = keys
            .iter()
            .flatten()
            .copied()
            .next()
            .or_else(|| self.ring.route_excluding(Self::line_key(line), &down));
        let Some(default_shard) = default_shard else {
            let frame = Self::typed_failure(&id_txt, UNAVAILABLE);
            self.respond(client, &frame);
            return;
        };
        let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            groups
                .entry(key.unwrap_or(default_shard))
                .or_default()
                .push(i);
        }
        if groups.len() <= 1 {
            // One shard owns every item: whole-line passthrough keeps
            // the response — and the shard's endpoint counters —
            // byte-identical to a single node.
            let key = items
                .iter()
                .find_map(|item| Self::topology_key(item.get("topology")))
                .unwrap_or_else(|| Self::line_key(line));
            self.forward_single(client, line, key, id_txt);
            return;
        }

        let req = self.next_req;
        self.next_req += 1;
        // The range came from the scanner, so it is always in bounds.
        let spec_raw = line.get(spec).unwrap_or_default();
        let mut item_of_part = Vec::with_capacity(groups.len());
        let mut sub_ids = Vec::with_capacity(groups.len());
        for (part, (_shard, indices)) in groups.into_iter().enumerate() {
            let sub_id = self.next_sub;
            self.next_sub += 1;
            let joined: Vec<&str> = indices
                .iter()
                .filter_map(|&i| ranges.get(i).and_then(|r| line.get(r.clone())))
                .collect();
            let wire = format!(
                "{{\"id\":{sub_id},\"op\":\"eval_batch\",\"spec\":{spec_raw},\"items\":[{}]}}",
                joined.join(",")
            );
            // Route the sub-batch by its first item's key so failover
            // re-walks the same ring neighborhood.
            let key = indices
                .iter()
                .find_map(|&i| Self::topology_key(items.get(i)?.get("topology")))
                .unwrap_or_else(|| Self::line_key(&wire));
            self.subs.insert(
                sub_id,
                SubRequest {
                    req,
                    part,
                    line: wire,
                    target: Target::Ring(key),
                    on: None,
                    resends: 0,
                },
            );
            item_of_part.push(indices);
            sub_ids.push(sub_id);
        }
        self.pending.insert(
            req,
            Pending {
                client,
                id_txt,
                kind: PendingKind::Batch {
                    item_of_part,
                    slots: vec![None; items.len()],
                },
                outstanding: sub_ids.len(),
                done: false,
            },
        );
        for sub_id in sub_ids {
            self.dispatch(sub_id);
        }
    }

    /// Broadcasts a stats request to every shard; parts sum on arrival.
    fn broadcast_stats(&mut self, client: u64, line: &str, request: &Json, id_txt: String) {
        let breakdown = request.get("shards") == Some(&Json::Bool(true));
        let shard_count = self.shards.len();
        let req = self.next_req;
        self.next_req += 1;
        let mut sub_ids = Vec::with_capacity(shard_count);
        for part in 0..shard_count {
            let sub_id = self.next_sub;
            self.next_sub += 1;
            let Some(wire) = frame::rewrite_request_id(line, sub_id) else {
                let frame = error_response(&Json::Null, "missing string field 'op'");
                self.respond(client, &frame);
                return;
            };
            self.subs.insert(
                sub_id,
                SubRequest {
                    req,
                    part,
                    line: wire,
                    // Pinned: a shard's stats are its own.
                    target: Target::Pinned(part as u32),
                    on: None,
                    resends: 0,
                },
            );
            sub_ids.push(sub_id);
        }
        self.pending.insert(
            req,
            Pending {
                client,
                id_txt,
                kind: PendingKind::Stats {
                    parts: vec![None; shard_count],
                    breakdown,
                },
                outstanding: shard_count,
                done: false,
            },
        );
        for sub_id in sub_ids {
            self.dispatch(sub_id);
        }
    }

    /// Sends one sub-request to its shard, walking the ring past shards
    /// that are down. A part whose shard is dialing waits for the dial;
    /// with every shard down it fails `unavailable`. Injected link drops
    /// consume the resend budget.
    fn dispatch(&mut self, sub_id: u64) {
        loop {
            let Some(sub) = self.subs.get(&sub_id) else {
                return;
            };
            let down = self.down_view();
            let target = match sub.target {
                Target::Ring(key) => self.ring.route_excluding(key, &down),
                Target::Pinned(shard) => {
                    (!down.get(shard as usize).copied().unwrap_or(true)).then_some(shard)
                }
            };
            let Some(target) = target else {
                self.fail_sub(sub_id, UNAVAILABLE);
                return;
            };
            let out = match self.shards.get(target as usize).map(|link| &link.state) {
                Some(LinkState::Up { out, .. }) => Arc::clone(out),
                _ => {
                    self.parked.insert(sub_id);
                    return;
                }
            };
            // Injected shard-link loss right before forwarding: the link
            // goes down and every sub on it is dispatched again, this one
            // included; they wait for the link's thread, which sees the
            // close as a stale EOF and redials.
            if let Decision::DropConn = self.faults.decide(Site::ShardDrop, sub_id) {
                self.lose_link(target);
                if !self.consume_resend(sub_id) {
                    return;
                }
                continue;
            }
            let Some(sub) = self.subs.get_mut(&sub_id) else {
                return;
            };
            sub.on = Some(target);
            let line = format!("{}\n", sub.line);
            self.effects.push(Effect::Send(out, line));
            return;
        }
    }

    /// Burns one resend; fails the sub with `unavailable` when the
    /// budget is gone. Returns whether the sub may be retried.
    fn consume_resend(&mut self, sub_id: u64) -> bool {
        let Some(sub) = self.subs.get_mut(&sub_id) else {
            return false;
        };
        sub.resends += 1;
        if sub.resends > self.max_resend {
            self.fail_sub(sub_id, UNAVAILABLE);
            return false;
        }
        true
    }

    /// Fails one sub-request's whole client request with a typed frame.
    fn fail_sub(&mut self, sub_id: u64, kind: &str) {
        let Some(sub) = self.subs.remove(&sub_id) else {
            return;
        };
        let Some(pending) = self.pending.get_mut(&sub.req) else {
            return;
        };
        pending.outstanding = pending.outstanding.saturating_sub(1);
        let finished = pending.outstanding == 0;
        let was_done = pending.done;
        pending.done = true;
        let client = pending.client;
        let id_txt = pending.id_txt.clone();
        if finished {
            self.pending.remove(&sub.req);
        }
        if !was_done {
            let frame = Self::typed_failure(&id_txt, kind);
            self.respond(client, &frame);
        }
    }

    /// Takes `shard`'s live link down — closing its connection — and
    /// re-dispatches everything in flight on it. Its thread redials.
    fn lose_link(&mut self, shard: u32) {
        let Some(link) = self.shards.get_mut(shard as usize) else {
            return;
        };
        let out = match &link.state {
            LinkState::Up { out, .. } => Arc::clone(out),
            _ => return,
        };
        self.effects.push(Effect::Close(out));
        link.state = LinkState::Dialing;
        let orphans: Vec<u64> = self
            .subs
            .iter()
            .filter(|(_, s)| s.on == Some(shard))
            .map(|(&id, _)| id)
            .collect();
        for sub_id in orphans {
            if let Some(sub) = self.subs.get_mut(&sub_id) {
                sub.on = None;
            }
            if self.consume_resend(sub_id) {
                self.dispatch(sub_id);
            }
        }
    }

    /// One frame from connection `gen` of `shard`'s link: match it to
    /// its sub-request and feed the pending scatter/gather state. Frames
    /// from a connection the router already dropped are ignored — its
    /// sub-requests were re-dispatched when it went.
    fn handle_shard_frame(&mut self, shard: u32, gen: u64, text: &str) {
        if self.link_gen(shard) != Some(gen) {
            return;
        }
        let Some(split) = frame::split_response(text) else {
            return; // protocol violation from a backend; drop the frame
        };
        let Ok(sub_id) = split.id.parse::<u64>() else {
            return;
        };
        let Some(sub) = self.subs.remove(&sub_id) else {
            return; // late duplicate after a failover resend
        };
        // Splices the original request id over the shard's sub-id;
        // every other byte stays the shard's own.
        let splice = |id_txt: &str| {
            // split_response verified the prefix, so the offset holds.
            let tail = text
                .get("{\"id\":".len() + split.id.len()..)
                .unwrap_or_default();
            format!("{{\"id\":{id_txt}{tail}")
        };
        let (client, response, finished) = {
            let Some(pending) = self.pending.get_mut(&sub.req) else {
                return;
            };
            pending.outstanding = pending.outstanding.saturating_sub(1);
            let finished = pending.outstanding == 0;
            let client = pending.client;
            if pending.done {
                (client, None, finished)
            } else {
                let id_txt = pending.id_txt.clone();
                match &mut pending.kind {
                    PendingKind::Single => (client, Some(splice(&id_txt)), finished),
                    PendingKind::Batch {
                        item_of_part,
                        slots,
                    } => {
                        if !split.ok {
                            // A batch-level shard error (single-node
                            // shape): propagate it for the whole batch.
                            pending.done = true;
                            (client, Some(splice(&id_txt)), finished)
                        } else {
                            let indices = item_of_part.get(sub.part).cloned().unwrap_or_default();
                            let parts =
                                frame::split_array(split.payload, "items").unwrap_or_default();
                            if parts.len() != indices.len() {
                                pending.done = true;
                                let frame = format!(
                                    "{{\"id\":{id_txt},\"ok\":false,\"error\":\
                                     \"shard returned a short batch (fabric protocol violation)\"}}"
                                );
                                (client, Some(frame), finished)
                            } else {
                                for (slot, range) in indices.into_iter().zip(parts) {
                                    if let (Some(out), Some(part)) =
                                        (slots.get_mut(slot), split.payload.get(range))
                                    {
                                        *out = Some(part.to_owned());
                                    }
                                }
                                if finished {
                                    let items: Vec<String> = slots
                                        .iter()
                                        .map(|s| s.clone().unwrap_or_else(|| "null".to_owned()))
                                        .collect();
                                    let frame = format!(
                                        "{{\"id\":{id_txt},\"ok\":true,\"result\":\
                                         {{\"n\":{},\"items\":[{}]}}}}",
                                        items.len(),
                                        items.join(",")
                                    );
                                    (client, Some(frame), true)
                                } else {
                                    (client, None, false)
                                }
                            }
                        }
                    }
                    PendingKind::Stats { parts, breakdown } => {
                        if !split.ok {
                            pending.done = true;
                            (client, Some(splice(&id_txt)), finished)
                        } else {
                            if let Some(slot) = parts.get_mut(sub.part) {
                                *slot = Some(split.payload.to_owned());
                            }
                            if finished {
                                let texts: Vec<String> = parts.iter().flatten().cloned().collect();
                                let frame = merge_stats(&id_txt, &texts, *breakdown)
                                    .unwrap_or_else(|| Self::typed_failure(&id_txt, UNAVAILABLE));
                                (client, Some(frame), true)
                            } else {
                                (client, None, false)
                            }
                        }
                    }
                }
            }
        };
        if finished {
            self.pending.remove(&sub.req);
        }
        if let Some(frame) = response {
            self.respond(client, &frame);
        }
    }

    /// The local `shard_map` answer: ring parameters, per-backend
    /// ownership census, and link health.
    fn shard_map_response(&self, id_txt: &str) -> String {
        let backends: Vec<Json> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, link)| {
                Json::Obj(vec![
                    ("addr".into(), Json::str(link.addr.clone())),
                    (
                        "owned".into(),
                        Json::num(self.census.get(i).copied().unwrap_or(0) as f64),
                    ),
                    (
                        "up".into(),
                        Json::Bool(matches!(link.state, LinkState::Up { .. })),
                    ),
                ])
            })
            .collect();
        let result = Json::Obj(vec![
            ("shards".into(), Json::num(self.shards.len() as f64)),
            ("vnodes".into(), Json::num(self.ring.vnodes() as f64)),
            (
                "space".into(),
                Json::num(oa_circuit::DESIGN_SPACE_SIZE as f64),
            ),
            ("backends".into(), Json::Arr(backends)),
        ]);
        let result = result
            .encode()
            // lint: allow(panic, the shard map holds counts and strings; never non-finite)
            .expect("shard map encodes");
        format!("{{\"id\":{id_txt},\"ok\":true,\"result\":{result}}}")
    }
}

/// Sums per-shard stats objects into the single-fabric view: numbers
/// add field-wise (recursively, shapes being identical by protocol),
/// the per-shard `shard` identity field is dropped, and with
/// `breakdown` the raw per-shard objects ride along under `"shards"`.
/// Returns `None` when a part fails to parse.
fn merge_stats(id_txt: &str, parts: &[String], breakdown: bool) -> Option<String> {
    let parsed: Vec<Json> = parts
        .iter()
        .map(|p| Json::parse(p).ok())
        .collect::<Option<_>>()?;
    let mut merged = sum_json(&parsed)?;
    if breakdown {
        if let Json::Obj(fields) = &mut merged {
            fields.push(("shards".into(), Json::Arr(parsed.clone())));
        }
    }
    let text = merged.encode().ok()?;
    Some(format!("{{\"id\":{id_txt},\"ok\":true,\"result\":{text}}}"))
}

/// Field-wise recursive sum over same-shaped JSON values. Objects merge
/// by the first part's key order (`shard` skipped), numbers add, and
/// anything else keeps the first part's value.
fn sum_json(parts: &[Json]) -> Option<Json> {
    let first = parts.first()?;
    match first {
        Json::Num(_) => {
            let mut total = 0.0;
            for p in parts {
                total += p.as_f64()?;
            }
            Some(Json::Num(total))
        }
        Json::Obj(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (key, _) in fields {
                if key == "shard" {
                    continue;
                }
                let slice: Vec<Json> = parts.iter().filter_map(|p| p.get(key).cloned()).collect();
                out.push((key.clone(), sum_json(&slice)?));
            }
            Some(Json::Obj(out))
        }
        other => Some(other.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_failure_frames_have_the_documented_shape() {
        assert_eq!(
            RouterState::typed_failure("7", "overloaded"),
            r#"{"id":7,"ok":false,"error":{"kind":"overloaded"}}"#
        );
        assert_eq!(
            RouterState::typed_failure("null", "unavailable"),
            r#"{"id":null,"ok":false,"error":{"kind":"unavailable"}}"#
        );
    }

    #[test]
    fn line_key_is_deterministic_and_spreads() {
        let a = RouterState::line_key("{\"op\":\"stats\"}");
        let b = RouterState::line_key("{\"op\":\"stats\"}");
        let c = RouterState::line_key("{\"op\":\"stats\" }");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sum_json_adds_numbers_and_drops_shard_identity() {
        let a =
            Json::parse(r#"{"sims":2,"store":{"hits":1},"shard":{"index":0,"count":2}}"#).unwrap();
        let b =
            Json::parse(r#"{"sims":3,"store":{"hits":4},"shard":{"index":1,"count":2}}"#).unwrap();
        let merged = sum_json(&[a, b]).unwrap();
        assert_eq!(merged.encode().unwrap(), r#"{"sims":5,"store":{"hits":5}}"#);
    }

    #[test]
    fn merge_stats_appends_breakdown_when_asked() {
        let parts = vec![r#"{"sims":1}"#.to_owned(), r#"{"sims":2}"#.to_owned()];
        let plain = merge_stats("9", &parts, false).unwrap();
        assert_eq!(plain, r#"{"id":9,"ok":true,"result":{"sims":3}}"#);
        let detailed = merge_stats("9", &parts, true).unwrap();
        assert_eq!(
            detailed,
            r#"{"id":9,"ok":true,"result":{"sims":3,"shards":[{"sims":1},{"sims":2}]}}"#
        );
    }
}
