//! A long-lived, bounded-queue worker pool.
//!
//! [`par_map`](crate::par_map) fans a known batch out and joins; a
//! *service* needs the dual shape: workers that outlive any one request,
//! fed through a bounded queue so a flood of requests exerts
//! backpressure on the submitter instead of growing memory without
//! bound. `oa-serve` pushes every decoded request through a [`Pool`];
//! the TCP reader blocks in [`Pool::submit`] when the queue is full,
//! which propagates backpressure all the way to the client socket.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The queue is full (only from [`Pool::try_submit`]).
    QueueFull,
    /// The pool is shutting down and accepts no more jobs.
    Closed,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::QueueFull => write!(f, "worker pool queue is full"),
            PoolError::Closed => write!(f, "worker pool is closed"),
        }
    }
}

impl std::error::Error for PoolError {}

/// A fixed set of worker threads draining a bounded job queue.
///
/// Jobs are `FnOnce() + Send` closures. A panicking job is contained:
/// the worker catches the unwind and moves on, so one poisoned request
/// cannot take a service worker down (the job itself is responsible for
/// reporting its failure — `oa-serve` replies with an error frame before
/// any code that can panic runs). Dropping the pool closes the queue and
/// joins every worker, running all already-queued jobs first.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = oa_par::Pool::new(4, 16);
/// let counter = Arc::new(AtomicUsize::new(0));
/// for _ in 0..32 {
///     let counter = Arc::clone(&counter);
///     pool.submit(move || {
///         counter.fetch_add(1, Ordering::SeqCst);
///     })
///     .unwrap();
/// }
/// drop(pool); // joins workers; all queued jobs ran
/// assert_eq!(counter.load(Ordering::SeqCst), 32);
/// ```
#[derive(Debug)]
pub struct Pool {
    sender: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool with `workers` threads (at least 1) and a queue
    /// holding up to `queue` pending jobs (at least 1).
    pub fn new(workers: usize, queue: usize) -> Pool {
        let (sender, receiver) = std::sync::mpsc::sync_channel::<Job>(queue.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..workers.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("oa-par-worker-{i}"))
                    .spawn(move || worker_loop(&receiver))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            sender: Some(sender),
            workers,
        }
    }

    /// Submits a job, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// [`PoolError::Closed`] if every worker has exited (only possible
    /// during teardown).
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), PoolError> {
        self.sender
            .as_ref()
            .ok_or(PoolError::Closed)?
            .send(Box::new(job))
            .map_err(|_| PoolError::Closed)
    }

    /// Submits a job without blocking.
    ///
    /// # Errors
    ///
    /// [`PoolError::QueueFull`] when the queue is at capacity,
    /// [`PoolError::Closed`] during teardown.
    pub fn try_submit<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), PoolError> {
        match self
            .sender
            .as_ref()
            .ok_or(PoolError::Closed)?
            .try_send(Box::new(job))
        {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(PoolError::QueueFull),
            Err(TrySendError::Disconnected(_)) => Err(PoolError::Closed),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Closing the channel lets each worker's `recv` return `Err`
        // once the queue drains.
        self.sender = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the lock only for the dequeue, never while running a job.
        let job = match receiver.lock() {
            // lint: allow(lock_across_blocking, the queue mutex IS the dequeue handoff; exactly one idle worker parks in recv while holding it)
            Ok(guard) => guard.recv(),
            // lint: allow(lock_across_blocking, same handoff on the poisoned-lock recovery path)
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        match job {
            Ok(job) => {
                // Contain per-job panics; the worker lives on.
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn all_submitted_jobs_run_before_drop_returns() {
        let pool = Pool::new(3, 4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        let pool = Pool::new(2, 8);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..20 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                if i % 3 == 0 {
                    panic!("job {i} poisoned");
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        drop(pool);
        // 20 jobs, 7 panicked (0,3,6,9,12,15,18): the other 13 all ran.
        assert_eq!(done.load(Ordering::SeqCst), 13);
    }

    #[test]
    fn try_submit_reports_full_queue() {
        let pool = Pool::new(1, 1);
        let gate = Arc::new(AtomicUsize::new(0));
        // Occupy the single worker until we release it.
        let g = Arc::clone(&gate);
        pool.submit(move || {
            while g.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        })
        .unwrap();
        // Fill the single queue slot, then the next try must report Full.
        let mut saw_full = false;
        for _ in 0..100 {
            match pool.try_submit(|| {}) {
                Ok(()) => {}
                Err(PoolError::QueueFull) => {
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(saw_full, "bounded queue never reported full");
        gate.store(1, Ordering::SeqCst);
        drop(pool);
    }

    #[test]
    fn zero_sizes_are_clamped() {
        let pool = Pool::new(0, 0);
        assert_eq!(pool.workers(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.submit(move || {
            d.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
