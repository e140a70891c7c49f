//! Deterministic scoped worker pool built on `std::thread` only.
//!
//! The experiment matrices (fig5/table2/table3) and the BO candidate-pool
//! scoring are embarrassingly parallel: independent items, no shared
//! mutable state. This crate provides [`par_map`], which fans such work
//! out over a scoped pool and returns results **in input order**, so the
//! output is indistinguishable from a serial `map` — parallelism never
//! changes what the suite computes, only how fast.
//!
//! Degree of parallelism comes from [`jobs`]: the `OA_JOBS` environment
//! variable when set (clamped to at least 1), otherwise
//! [`std::thread::available_parallelism`]. `OA_JOBS=1` bypasses thread
//! spawning entirely and runs the closure inline on the caller's thread.
//!
//! Work distribution is a shared atomic cursor: each worker claims the
//! next unclaimed index, computes it, and stores the result into its own
//! `(index, value)` list. The lists are merged by index after the scope
//! joins. No locks, no `unsafe`, no ordering sensitivity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{Pool, PoolError};

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The configured degree of parallelism.
///
/// Reads `OA_JOBS` (values `< 1` or unparsable fall back to the detected
/// core count; there is no way to ask for zero workers).
pub fn jobs() -> usize {
    match std::env::var("OA_JOBS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => detected_parallelism(),
        },
        Err(_) => detected_parallelism(),
    }
}

fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` with up to `jobs` worker threads, returning
/// results in input order.
///
/// `jobs <= 1` (or a single item) runs serially on the calling thread —
/// no threads are spawned, so single-job runs behave exactly like the
/// pre-parallel code path.
///
/// # Panics
///
/// If `f` panics on any item, **every** worker is still joined — the
/// remaining items keep being claimed and computed by the surviving
/// workers, the shared cursor never wedges — and then the *first*
/// panic payload (by worker index) is re-raised on the caller's thread.
/// No result slot is ever silently dropped: either the full, correctly
/// ordered `Vec<R>` comes back, or the call panics.
pub fn par_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let workers = jobs.min(items.len());
    let cursor = AtomicUsize::new(0);
    let items_ref = &items;
    let f_ref = &f;
    let mut collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= items_ref.len() {
                            break;
                        }
                        local.push((idx, f_ref(&items_ref[idx])));
                    }
                    local
                })
            })
            .collect();
        // Join every worker before propagating anything: a panic in one
        // worker must not short-circuit the joins (the old code called
        // `resume_unwind` mid-iteration, leaving later workers to be
        // reaped by the scope's own unwind path instead of ours).
        let mut locals = Vec::with_capacity(workers);
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(local) => locals.push(local),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        locals
    });
    // Merge worker-local results back into input order.
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for local in collected.drain(..) {
        for (idx, value) in local {
            debug_assert!(slots[idx].is_none(), "index {idx} produced twice");
            slots[idx] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 4, 7] {
            let got = par_map(items.clone(), jobs, |x| x * x);
            assert_eq!(got, expected, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(empty, 4, |x| *x).is_empty());
        assert_eq!(par_map(vec![9u32], 4, |x| x + 1), vec![10]);
    }

    #[test]
    fn more_jobs_than_items() {
        let got = par_map(vec![1u8, 2, 3], 64, |x| x * 2);
        assert_eq!(got, vec![2, 4, 6]);
    }

    #[test]
    fn parallel_matches_serial_on_stateless_work() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(items.clone(), 1, |&seed| {
            // Cheap deterministic hash stands in for a real run.
            let mut h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 29;
            h
        });
        let parallel = par_map(items, 4, |&seed| {
            let mut h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 29;
            h
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        let _ = par_map(items, 2, |&x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn panicking_item_does_not_wedge_cursor_or_drop_other_items() {
        // Regression: a panicking worker used to short-circuit the join
        // loop. The contract is that every *other* item is still claimed
        // and computed (the cursor keeps advancing past the panicked
        // index) and the panic reaches the caller only after all workers
        // joined.
        let completed = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(items, 3, |&x| {
                if x == 11 {
                    panic!("wedge check");
                }
                completed.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "wedge check");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            63,
            "all non-panicking items must still be computed"
        );
    }

    #[test]
    fn first_panic_wins_when_several_workers_panic() {
        let items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(items, 4, |&x| {
                if x % 2 == 0 {
                    panic!("even {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        // Some worker's payload comes through intact (formatted panics
        // downcast to String).
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.starts_with("even "), "unexpected payload {msg:?}");
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs() >= 1);
    }
}
