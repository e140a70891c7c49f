//! **oa-store** — a content-addressed, crash-safe persistent result store.
//!
//! The serving layer (`oa-serve`) and the experiment harness (`oa-bench`)
//! both need the same thing: a durable map from an *evaluation key* (what
//! was asked) to the measured result (what came back), so identical
//! requests are never re-simulated — across threads, processes and
//! daemon restarts.
//!
//! The store is an **append-only record log** ([`Store`]):
//!
//! * every [`Store::put`] appends one checksummed record and fsyncs it
//!   before publishing it — a record is either fully on disk or not at
//!   all; [`Store::append`] writes and publishes the same record at once
//!   and hands its fsync to the returned [`Unsynced`], so a server can
//!   answer before the disk flush: a process crash then loses nothing
//!   written, an OS crash at most the records whose sync had not
//!   returned;
//! * opening scans the log, verifies each record's magic, bounds and
//!   FNV-1a checksum, and rebuilds the in-memory index; a torn final
//!   record (a crash mid-append) is **dropped, not fatal** — the file is
//!   truncated back to the last intact record and appends continue from
//!   there;
//! * keys are opaque bytes; the last record for a key wins, so updates
//!   are plain appends and [`Store::compact`] rewrites the log with only
//!   the live records (atomic rename).
//!
//! [`EvalKey`] is the canonical key for simulator results: topology code,
//! sizing-vector bits, spec id, process hash, and the per-request seed
//! for stochastic endpoints. The crate is std-only; its one dependency
//! is the workspace's `oa-fault` injection layer ([`Store::open_with_faults`]
//! threads a seeded fault plan through appends and compactions — the
//! default [`Store::open`] handle is disabled and costs one branch).
//! Values are opaque bytes (callers serialize — `oa-serve` stores the
//! response JSON, `oa-bench` stores the TSV run summary).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eval;
mod log;

pub use eval::{EvalKey, EvalKind};
pub use log::{Store, StoreStats, Unsynced};

/// 64-bit FNV-1a hash — the store's checksum and the conventional way to
/// derive [`EvalKey::process_hash`] from process-constant bit patterns.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes a sequence of `f64`s by bit pattern (order-sensitive), for
/// process/option fingerprints. `NaN`s with different payloads hash
/// differently; `-0.0` and `0.0` hash differently — the fingerprint is
/// over representations, not values.
pub fn hash_f64s<I: IntoIterator<Item = f64>>(values: I) -> u64 {
    let mut bytes = Vec::new();
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn f64_hash_is_order_and_bit_sensitive() {
        assert_ne!(hash_f64s([1.0, 2.0]), hash_f64s([2.0, 1.0]));
        assert_ne!(hash_f64s([0.0]), hash_f64s([-0.0]));
        assert_eq!(hash_f64s([1.5, 2.5]), hash_f64s([1.5, 2.5]));
    }
}
