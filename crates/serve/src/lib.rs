//! **oa-serve** — a concurrent evaluation service for the INTO-OA
//! design space.
//!
//! The ROADMAP's north star is serving heavy traffic; this crate is the
//! serving layer. It exposes the 30 625-topology op-amp space behind a
//! uniform network API (in the spirit of circuit-benchmark suites like
//! CktGNN's OCB) so many optimizers can hit one evaluator concurrently
//! and share one persistent result store:
//!
//! * **Wire protocol** — newline-delimited JSON over TCP ([`json`] is
//!   hand-rolled and property-tested; the crate is std-only), read by
//!   the [`FrameReader`] that `oa-router` shares, which caps a frame at
//!   [`MAX_FRAME`]. Requests carry an `id` echoed in the response, so
//!   clients pipeline; see DESIGN.md §7 for the schema.
//! * **Endpoints** — `eval` (simulate one sized topology), `eval_batch`,
//!   `size_opt` (sizing BO under an explicit per-request seed), `stats`,
//!   and the session family `open_session` / `step` / `session_stats` /
//!   `close_session` (multi-tenant topology-BO sessions; DESIGN.md §13).
//! * **Concurrency** — store hits are answered on the connection
//!   thread; everything else flows through a bounded queue into an
//!   [`oa_par::Pool`], so overload becomes TCP backpressure.
//! * **Persistence** — results are served from [`oa_store`] when the
//!   evaluation key matches; only misses simulate. Same request + same
//!   seed → byte-identical response, across restarts. A fresh result is
//!   written and published before its response is sent and fsynced
//!   after it.
//! * **Failure model** — a seeded [`oa_fault::Faults`] plan
//!   ([`ServerConfig::faults`], `oa-serve --fault-seed`) injects dropped
//!   and stalled connections, mid-frame disconnects, worker panics and
//!   per-item batch errors; clients harden with [`ClientConfig`]
//!   (timeouts + deterministic bounded retry). See DESIGN.md §9.
//!
//! Binaries: `oa-serve` (daemon) and `oa-cli` (submit request files,
//! print TSV). In-process use:
//!
//! ```no_run
//! use oa_serve::{serve, Client, ServerConfig};
//!
//! let server = serve(ServerConfig::loopback()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let line = oa_serve::request::eval(1, "S-1", 0, &[0.5; 4]);
//! let response = client.request(&line).unwrap();
//! println!("{response}");
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod client;
mod framing;
pub mod json;
mod server;
mod service;
mod session;
pub mod wire_kinds;

pub use client::{request, resolve, Client, ClientConfig, SessionDriver};
pub use framing::{FrameReader, MAX_FRAME};
pub use json::{Json, JsonError};
pub use server::{default_store_dir, serve, Server, ServerConfig};
pub use service::{
    error_response, eval_error_json, eval_result_json, process_fingerprint, size_opt_result_json,
    typed_error_response, wl_fingerprint, Service, ShardIdentity,
};
pub use session::{observation_from_perf, DEFAULT_SESSION_LIMIT};
