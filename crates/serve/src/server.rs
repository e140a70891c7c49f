//! The TCP front end: newline-delimited JSON over a bounded worker pool.
//!
//! One acceptor thread, one reader thread per connection, and a shared
//! [`oa_par::Pool`]. The connection thread reads frames with a
//! [`FrameReader`], so a request longer than [`crate::MAX_FRAME`] closes
//! the connection instead of growing a buffer without limit. It runs
//! the cheap stage of each request (`Service::stage`): a store hit, or
//! a request that fails before any work, is answered right there.
//! Everything else — store misses, `eval_batch`, `size_opt`, `stats`,
//! session ops — goes to the pool; the reader blocks in
//! [`oa_par::Pool::submit`] when the queue is full, so overload turns
//! into TCP backpressure instead of unbounded memory. A pool job
//! replies first and fsyncs the records its request appended second:
//! the records are written and published before the reply, so a
//! process crash loses nothing answered, and only the disk flush waits
//! behind the socket write. Responses are written as each one finishes
//! — **possibly out of request order** — and carry the request `id`,
//! so clients can pipeline freely. Accepted sockets run with
//! `TCP_NODELAY`: a frame is one write, and Nagle would hold a second
//! reply on a pipelined link until the first is acknowledged.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use oa_fault::{Decision, Faults, Site};
use oa_par::Pool;
use oa_store::Store;

use crate::framing::FrameReader;
use crate::service::{sync_appends, Service, ShardIdentity, Staged};

/// Live connection registry: stream clones keyed by a connection id, so
/// [`Server::kill`] can sever every peer. Connection threads remove
/// their own entry on exit, keeping the map bounded by live connections.
type ConnRegistry = Arc<Mutex<BTreeMap<u64, TcpStream>>>;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads evaluating requests.
    pub workers: usize,
    /// Bounded job-queue capacity (requests decoded but not yet
    /// evaluating; beyond this, readers block → TCP backpressure).
    pub queue: usize,
    /// Path of the persistent result-store log.
    pub store_path: PathBuf,
    /// Fault-injection plan shared by the store, the connection loops,
    /// the worker pool and the per-item batch path. [`Faults::none`]
    /// (the default) disables every site at the cost of one branch.
    pub faults: Faults,
    /// Shard identity when this instance is one backend of an
    /// `oa-router` fabric (`oa-serve --shard I/N`). Purely
    /// introspective: it is reported in `stats` (and the startup banner)
    /// so operators and the router's per-shard breakdown can tell
    /// instances apart. `None` (the default) changes nothing.
    pub shard: Option<ShardIdentity>,
    /// Cap on concurrently open optimization sessions
    /// ([`crate::DEFAULT_SESSION_LIMIT`] by default); `open_session`
    /// requests for new ids beyond it fail with a typed `session_limit`
    /// error.
    pub session_limit: usize,
}

impl ServerConfig {
    /// Loopback defaults: free port, `oa_par::jobs()` workers, queue of
    /// 256, store under `OA_STORE_DIR` (default `results/store`), no
    /// fault injection.
    pub fn loopback() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: oa_par::jobs(),
            queue: 256,
            store_path: default_store_dir().join("results.log"),
            faults: Faults::none(),
            shard: None,
            session_limit: crate::DEFAULT_SESSION_LIMIT,
        }
    }
}

/// The store directory from `OA_STORE_DIR`, defaulting to
/// `results/store`.
pub fn default_store_dir() -> PathBuf {
    PathBuf::from(std::env::var("OA_STORE_DIR").unwrap_or_else(|_| "results/store".to_owned()))
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// accepting, drains queued jobs and joins the workers; connection
/// readers exit when their clients disconnect.
pub struct Server {
    addr: SocketAddr,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    conns: ConnRegistry,
}

impl Server {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (tests use this to read counters in-process).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stops accepting and joins the acceptor thread. Established
    /// connections keep being served until their clients disconnect —
    /// the graceful drain.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    /// Hard kill: stops accepting **and severs every live connection**,
    /// so connected peers observe EOF immediately. This is what "the
    /// shard died" means to an `oa-router` front-end — the chaos harness
    /// uses it to take shards down mid-storm, and a restarted instance
    /// over the same store then serves byte-identical responses.
    pub fn kill(mut self) {
        self.stop_accepting();
        let conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
        for stream in conns.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Blocks until the acceptor exits (daemon mode: forever).
    pub fn join(mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// Opens the store, binds the listener and starts serving.
///
/// # Errors
///
/// Store-open or bind failures.
pub fn serve(config: ServerConfig) -> std::io::Result<Server> {
    let faults = config.faults.clone();
    let store = Store::open_with_faults(&config.store_path, faults.clone())?;
    let service = Arc::new(
        Service::with_faults(store, faults.clone())
            .with_shard(config.shard)
            .with_session_limit(config.session_limit),
    );
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let pool = Arc::new(Pool::new(config.workers, config.queue));
    let stop = Arc::new(AtomicBool::new(false));
    let conns: ConnRegistry = Arc::new(Mutex::new(BTreeMap::new()));

    let acceptor = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let conns = Arc::clone(&conns);
        let next_conn_id = AtomicU64::new(0);
        std::thread::Builder::new()
            .name("oa-serve-acceptor".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Responses are whole frames written at once; Nagle
                    // would hold a second reply on a pipelined link until
                    // the first is acknowledged.
                    let _ = stream.set_nodelay(true);
                    let conn_id = next_conn_id.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        let mut map = conns.lock().unwrap_or_else(|p| p.into_inner());
                        map.insert(conn_id, clone);
                    }
                    let service = Arc::clone(&service);
                    let pool = Arc::clone(&pool);
                    let faults = faults.clone();
                    let registry = Arc::clone(&conns);
                    let spawned = std::thread::Builder::new()
                        .name("oa-serve-conn".to_owned())
                        .spawn(move || {
                            connection_loop(stream, &service, &pool, &faults);
                            let mut map = registry.lock().unwrap_or_else(|p| p.into_inner());
                            map.remove(&conn_id);
                        });
                    if spawned.is_err() {
                        // Nobody serves this stream: forget its clone, so
                        // the map stays bounded by live connections and
                        // the dropped clone closes the socket.
                        let mut map = conns.lock().unwrap_or_else(|p| p.into_inner());
                        map.remove(&conn_id);
                    }
                }
                // `pool` drops with the acceptor once all connection
                // threads have released their clones, joining workers.
            })?
    };

    Ok(Server {
        addr,
        service,
        stop,
        acceptor: Some(acceptor),
        conns,
    })
}

fn connection_loop(stream: TcpStream, service: &Arc<Service>, pool: &Pool, faults: &Faults) {
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(ResponseWriter::new(w)),
        Err(_) => return,
    };
    let mut reader = FrameReader::new(stream);
    while let Some(lines) = reader.read_frames() {
        for line in lines {
            // Read-side faults: a dropped connection closes the socket
            // with the request unanswered; a stall delays it (latency,
            // not bytes).
            match faults.decide(Site::ConnRead, line.len() as u64) {
                Decision::DropConn => return,
                Decision::Stall { millis } => std::thread::sleep(Duration::from_millis(millis)),
                _ => {}
            }
            // The worker-panic site, drawn once per request before any
            // work: the request dies unanswered and the client sees a
            // timeout, exactly like a worker panicking between dequeue
            // and reply.
            if let Decision::Panic = faults.decide(Site::WorkerJob, 0) {
                continue;
            }
            // Store hits and requests that fail before any work are
            // answered here; only the compute stage waits for a pool
            // worker.
            let deferred = match service.stage(&line) {
                Staged::Answered(response) => {
                    writer.reply(faults, response);
                    continue;
                }
                Staged::Deferred(deferred) => deferred,
            };
            let service = Arc::clone(service);
            let writer = Arc::clone(&writer);
            let faults = faults.clone();
            let submitted = pool.submit(move || {
                let (response, pending) = service.compute(deferred);
                writer.reply(&faults, response);
                sync_appends(pending);
            });
            if submitted.is_err() {
                return;
            }
        }
    }
}

/// Response bytes queued on one connection and not yet written.
#[derive(Debug, Default)]
struct Unsent {
    bytes: Vec<u8>,
    /// A torn frame is queued: the socket shuts down once it is written,
    /// and later responses are discarded.
    torn: bool,
}

/// One connection's response writer. The connection thread (store hits)
/// and pool workers (everything else) both answer on it: each response
/// queues under a short lock, and whichever thread holds the write token
/// writes the queue outside that lock, so frames stay whole and no
/// thread holds a lock while a slow peer blocks the write.
#[derive(Debug)]
struct ResponseWriter {
    stream: TcpStream,
    unsent: Mutex<Unsent>,
    /// The write token: taken with `Acquire` and released with
    /// `Release`, so one thread at a time writes the stream.
    writing: AtomicBool,
}

impl ResponseWriter {
    fn new(stream: TcpStream) -> ResponseWriter {
        ResponseWriter {
            stream,
            unsent: Mutex::new(Unsent::default()),
            writing: AtomicBool::new(false),
        }
    }

    /// Queues one response frame (newline appended) and gets it written.
    fn reply(&self, faults: &Faults, mut response: String) {
        response.push('\n');
        {
            let mut unsent = self.unsent.lock().unwrap_or_else(|p| p.into_inner());
            // Write-side fault, drawn in write order for every response:
            // a mid-frame disconnect sends a torn prefix (no newline) and
            // shuts the socket down, so the client sees a half frame
            // followed by EOF — the worst failure a real peer can observe.
            let tear = faults.decide(Site::ConnWrite, response.len() as u64) == Decision::DropConn;
            if unsent.torn {
                return;
            }
            if tear {
                let torn = response.len() / 2;
                unsent.bytes.extend_from_slice(&response.as_bytes()[..torn]);
                unsent.torn = true;
            } else {
                unsent.bytes.extend_from_slice(response.as_bytes());
            }
        }
        self.write_queued();
    }

    /// Writes the queue until it is empty, unless another thread holds
    /// the write token — it then writes these bytes too.
    fn write_queued(&self) {
        while self
            .writing
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            loop {
                let (bytes, torn) = {
                    let mut unsent = self.unsent.lock().unwrap_or_else(|p| p.into_inner());
                    (std::mem::take(&mut unsent.bytes), unsent.torn)
                };
                if bytes.is_empty() {
                    break;
                }
                let _ = (&self.stream).write_all(&bytes);
                if torn {
                    let _ = self.stream.shutdown(Shutdown::Both);
                }
            }
            self.writing.store(false, Ordering::Release);
            // A response queued between the last take and the release
            // saw the token held and left its bytes for us.
            if self
                .unsent
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .bytes
                .is_empty()
            {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::json::Json;
    use oa_circuit::{ParamSpace, Topology};
    use std::io::ErrorKind;

    fn temp_config(tag: &str) -> (ServerConfig, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "oa_serve_tcp_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue: 8,
            store_path: dir.join("results.log"),
            faults: Faults::none(),
            shard: None,
            session_limit: crate::DEFAULT_SESSION_LIMIT,
        };
        (config, dir)
    }

    #[test]
    fn pipelined_requests_come_back_with_matching_ids() {
        let (config, dir) = temp_config("pipeline");
        let server = serve(config).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();

        let t = Topology::bare_cascade();
        let dim = ParamSpace::for_topology(&t).dim();
        let lines: Vec<String> = (0..20)
            .map(|i| {
                let x: Vec<String> = (0..dim)
                    .map(|d| format!("{:.17e}", 0.3 + 0.02 * ((i + d) % 10) as f64))
                    .collect();
                format!(
                    "{{\"id\":{i},\"op\":\"eval\",\"spec\":\"S-1\",\"topology\":{},\"x\":[{}]}}",
                    t.index(),
                    x.join(",")
                )
            })
            .collect();
        let responses = client.pipeline(&lines).unwrap();
        assert_eq!(responses.len(), 20);
        let mut seen: Vec<u64> = responses
            .iter()
            .map(|r| {
                let v = Json::parse(r).unwrap();
                assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{r}");
                v.get("id").unwrap().as_u64().unwrap()
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<u64>>());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One S-1 eval of the bare cascade at a sizing that varies with `i`.
    fn eval_line(i: usize) -> String {
        let t = Topology::bare_cascade();
        let dim = ParamSpace::for_topology(&t).dim();
        let x = vec![format!("{:.17e}", 0.2 + 0.05 * i as f64); dim];
        format!(
            "{{\"id\":{i},\"op\":\"eval\",\"spec\":\"S-1\",\"topology\":{},\"x\":[{}]}}",
            t.index(),
            x.join(",")
        )
    }

    #[test]
    fn each_fresh_eval_is_in_the_log_before_its_response() {
        let (config, dir) = temp_config("write_before_reply");
        let log = config.store_path.clone();
        let server = serve(config).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let mut before = std::fs::metadata(&log).unwrap().len();
        for i in 0..4 {
            let response = client.request(&eval_line(i)).unwrap();
            // Read before the next request is sent: the reply alone
            // orders this after the append.
            let bytes = std::fs::read(&log).unwrap();
            let result = response
                .strip_suffix('}')
                .and_then(|r| r.split_once("\"result\":"))
                .map(|(_, result)| result)
                .unwrap_or_else(|| panic!("not a result: {response}"));
            assert!(bytes.len() as u64 > before, "eval {i} appended nothing");
            assert!(
                bytes.ends_with(result.as_bytes()),
                "eval {i}: the log must end with the answered record"
            );
            before = bytes.len() as u64;
        }
        assert_eq!(server.service().sims(), 4);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_endless_frame_closes_only_its_own_connection() {
        use std::io::Read;
        let (config, dir) = temp_config("endless_frame");
        let server = serve(config).unwrap();
        let mut flood = TcpStream::connect(server.addr()).unwrap();
        flood
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut sender = flood.try_clone().unwrap();
        let writer = std::thread::spawn(move || {
            // The server stops reading once it gives up, so the write
            // may fail partway; either way the frame never completes.
            let _ = sender.write_all(&vec![b'x'; crate::MAX_FRAME + 2]);
        });
        let mut client = Client::connect(server.addr()).unwrap();
        for i in 0..3 {
            let response = client.request(&eval_line(i)).unwrap();
            assert!(response.contains("\"ok\":true"), "{response}");
        }
        let mut byte = [0u8; 1];
        match flood.read(&mut byte) {
            Ok(0) => {}
            Ok(_) => panic!("no response was due on the flooding connection"),
            Err(e) => assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "the flooding connection must be closed, not left open: {e}"
            ),
        }
        writer.join().unwrap();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multiple_connections_share_one_store() {
        let (config, dir) = temp_config("multi");
        let server = serve(config).unwrap();
        let t = Topology::bare_cascade();
        let dim = ParamSpace::for_topology(&t).dim();
        let line = format!(
            "{{\"id\":1,\"op\":\"eval\",\"spec\":\"S-3\",\"topology\":{},\"x\":[{}]}}",
            t.index(),
            vec!["0.5"; dim].join(",")
        );
        let mut a = Client::connect(server.addr()).unwrap();
        let mut b = Client::connect(server.addr()).unwrap();
        let ra = a.request(&line).unwrap();
        let rb = b.request(&line).unwrap();
        assert_eq!(ra, rb, "second connection must be served from the store");
        assert_eq!(server.service().sims(), 1);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
