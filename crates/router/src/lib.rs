//! **oa-router** — a sharded multi-node eval fabric for the INTO-OA
//! serving stack.
//!
//! One coordinator speaks the existing NDJSON protocol to clients and
//! fans requests out to N `oa-serve` shard backends. The 30 625-topology
//! design space shards cleanly by topology id, so placement is a
//! consistent-hash ring over topology codes ([`HashRing`]): deterministic,
//! balanced, minimal movement when the fleet grows, introspectable via
//! the `shard_map` op. The coordinator runs blocking std sockets with a
//! thread per connection ([`net`]): a reader per client and per shard
//! link, and a writer per client, so a frame is routed the moment it
//! arrives and an idle connection costs a parked thread, not a poll.
//!
//! What the fabric guarantees (DESIGN.md §11):
//!
//! * **Byte identity** — a request routed through the fabric yields the
//!   exact bytes a single `oa-serve` would have produced; only the `id`
//!   field is ever rewritten in flight ([`frame`]).
//! * **Coalescing** — `eval_batch` items split per owning shard and
//!   re-merge in request order, typed per-item errors preserved;
//!   single-shard batches forward whole.
//! * **Backpressure** — bounded in-flight requests; excess load is shed
//!   with an explicit `{"error":{"kind":"overloaded"}}` frame rather
//!   than unbounded queueing.
//! * **Failover** — dead shard links re-dispatch their in-flight
//!   sub-requests along the ring walk; blind resends are safe because
//!   every endpoint is deterministic and store-backed. The chaos
//!   harness ([`chaos`]) kills and restarts shards mid-storm and holds
//!   recovery to the byte-identical bar.
//! * **Aggregation** — `stats` broadcasts to every shard and sums
//!   counters field-wise (per-shard breakdown under `"shards":[...]`
//!   on request).
//!
//! Binary: `oa-router --shards host:port,...` (or `--spawn N` for an
//! ephemeral in-process fabric). In-process use:
//!
//! ```no_run
//! use oa_router::{start, RouterConfig};
//!
//! let router = start(RouterConfig::loopback(vec![
//!     "127.0.0.1:7878".to_owned(),
//!     "127.0.0.1:7879".to_owned(),
//! ]))
//! .unwrap();
//! println!("fabric at {}", router.addr());
//! router.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod fabric;
pub mod frame;
pub mod net;
mod ring;
mod router;

pub use fabric::Fabric;
pub use ring::{HashRing, DEFAULT_VNODES};
pub use router::{start, Router, RouterConfig};
