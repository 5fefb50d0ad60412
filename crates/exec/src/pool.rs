//! The worker pool: one scoped round of chunk jobs per call.
//!
//! ## Rounds
//!
//! A [`WorkerPool`] is a lightweight handle: an [`ExecPolicy`] plus the
//! [`PoolStats`] counters.  It owns no threads.  Each
//! [`WorkerPool::run_chunks`] call is one round on [`std::thread::scope`]
//! (workers may borrow the caller's data): it spawns `min(workers, chunks)`
//! workers, each builds its scratch state with `init` once and then claims
//! chunk indices from a shared atomic cursor until none are left, so a
//! worker that finishes early takes the next chunk instead of idling behind
//! a static partition.  The round ends when every worker has joined — the
//! one barrier [`PoolStats::barriers`] counts.
//!
//! When the policy (or the chunk count) resolves to a single worker the
//! round runs inline on the caller's thread with zero spawn cost and the
//! same results.
//!
//! ## Determinism
//!
//! Results are slotted by chunk index, never by completion order, so a
//! round's output is a pure function of `(items, chunk_size, f)` — never of
//! the worker count or scheduling order — as long as `f`'s result does not
//! depend on what earlier chunks left in the worker's scratch.
//! Chunk-to-worker assignment is scheduling-dependent, so scratch must be
//! invalidated wholesale between chunks (cleared buffers, generation
//! stamps); state that accumulates numerical drift (an incrementally
//! patched matrix) belongs inside `f`.
//!
//! ## Panics
//!
//! A panic inside a job ends its worker; the others finish the remaining
//! chunks.  After every worker has joined, [`WorkerPool::run_chunks`]
//! re-raises the first worker's payload on the caller.  The handle itself
//! is unaffected and can run the next round.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::ExecPolicy;

/// What a generation driver does with a panic caught inside one fault's
/// job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PanicPolicy {
    /// Let the panic unwind to the caller.
    #[default]
    FailFast,
    /// Catch the panic and confine it to the job that raised it.
    Isolate,
}

/// Lifetime counters of a [`WorkerPool`], for tests and diagnostics.
///
/// All counters accumulate over the pool's lifetime (across rounds) and are
/// updated with relaxed atomics — read them only from the thread that
/// drives the pool, between rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads spawned: `min(workers, chunks)` per threaded round.
    /// Serial rounds spawn nothing.
    pub spawns: u64,
    /// Chunk jobs executed (on workers or inline on the serial path).
    pub jobs: u64,
    /// Rounds completed: one per [`WorkerPool::run_chunks`] call with at
    /// least one chunk.
    pub barriers: u64,
}

/// A worker-pool handle: an [`ExecPolicy`] plus lifetime [`PoolStats`].
///
/// The handle itself owns no threads — see the [module docs](self).  One
/// pool can be threaded through every stage of a larger flow (the
/// mixed-signal ATPG passes a single pool to every stage) so the stats
/// describe the whole run.
///
/// # Example
///
/// ```
/// use msatpg_exec::{ExecPolicy, WorkerPool};
///
/// let pool = WorkerPool::new(ExecPolicy::Threads(2));
/// let sums = pool.run_chunks(
///     &[1u32, 2, 3, 4],
///     2,                                  // items per chunk
///     || (),                              // per-worker scratch
///     |(), _chunk, _offset, items| items.iter().sum::<u32>(),
/// );
/// assert_eq!(sums, vec![3, 7]);           // chunk order, not completion order
/// assert_eq!(pool.stats().spawns, 2);     // one worker per chunk, at most 2
/// ```
pub struct WorkerPool {
    policy: ExecPolicy,
    spawns: AtomicU64,
    jobs: AtomicU64,
    barriers: AtomicU64,
}

impl WorkerPool {
    /// Creates a pool handle executing under `policy`.
    pub fn new(policy: ExecPolicy) -> Self {
        WorkerPool {
            policy,
            spawns: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            barriers: AtomicU64::new(0),
        }
    }

    /// The policy this pool resolves workers from.
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            spawns: self.spawns.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
        }
    }

    /// Maps fixed-size chunks of `items` through `f` in one round and
    /// returns the chunk results in chunk order.
    ///
    /// `f` receives `(&mut scratch, chunk_index, item_offset, chunk)`, where
    /// `item_offset` is the index of `chunk[0]` within `items` and the
    /// scratch comes from `init`, called once per worker (once in all on
    /// the serial path).  An empty `items` runs no round at all.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.  Re-raises a panic from `f` (or
    /// `init`) after every worker has joined.
    pub fn run_chunks<T, S, R>(
        &self,
        items: &[T],
        chunk_size: usize,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize, usize, &[T]) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let n_chunks = items.len().div_ceil(chunk_size);
        if n_chunks == 0 {
            return Vec::new();
        }
        let job = |scratch: &mut S, ci: usize| {
            self.jobs.fetch_add(1, Ordering::Relaxed);
            let offset = ci * chunk_size;
            let end = (offset + chunk_size).min(items.len());
            f(scratch, ci, offset, &items[offset..end])
        };
        let workers = self.policy.workers().min(n_chunks);
        let results = if workers <= 1 {
            let mut scratch = init();
            (0..n_chunks).map(|ci| job(&mut scratch, ci)).collect()
        } else {
            self.spawns.fetch_add(workers as u64, Ordering::Relaxed);
            scoped_round(workers, n_chunks, &init, &job)
        };
        self.barriers.fetch_add(1, Ordering::Relaxed);
        results
    }
}

/// The threaded round behind [`WorkerPool::run_chunks`]: `workers` scoped
/// threads claim chunks `0..n_chunks` from one cursor, and the results are
/// put back in chunk order once every worker has joined.
fn scoped_round<S, R>(
    workers: usize,
    n_chunks: usize,
    init: &(impl Fn() -> S + Sync),
    job: &(impl Fn(&mut S, usize) -> R + Sync),
) -> Vec<R>
where
    R: Send,
{
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut scratch = init();
        let mut done = Vec::new();
        loop {
            let ci = cursor.fetch_add(1, Ordering::Relaxed);
            if ci >= n_chunks {
                return done;
            }
            done.push((ci, job(&mut scratch, ci)));
        }
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().map(|handle| handle.join()).collect()
    });
    let mut slotted = Vec::with_capacity(n_chunks);
    for outcome in joined {
        match outcome {
            Ok(done) => slotted.extend(done),
            Err(payload) => resume_unwind(payload),
        }
    }
    slotted.sort_unstable_by_key(|&(ci, _)| ci);
    slotted.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;

    #[test]
    fn serial_session_spawns_nothing() {
        // A serial round runs inline: one scratch, every chunk in order, no
        // thread.
        let pool = WorkerPool::new(ExecPolicy::Serial);
        let out = pool.run_chunks(
            &[7u64, 8, 9],
            1,
            || 0u64,
            |calls, _, _, chunk| {
                *calls += 1;
                chunk[0] * 10 + *calls
            },
        );
        assert_eq!(out, vec![71, 82, 93], "one scratch, reused in chunk order");
        let stats = pool.stats();
        assert_eq!(stats.spawns, 0);
        assert_eq!(stats.jobs, 3);
        assert_eq!(stats.barriers, 1);
    }

    #[test]
    fn barrier_publishes_driver_updates_to_workers() {
        // The caller mutates shared state between rounds; every job of the
        // next round must observe the latest value, and each round counts
        // one barrier.
        let knob = AtomicUsize::new(0);
        let pool = WorkerPool::new(ExecPolicy::Threads(3));
        let items = [(); 6];
        for round in 0..20 {
            knob.store(round, Ordering::Relaxed);
            let seen =
                pool.run_chunks(&items, 1, || (), |(), _, _, _| knob.load(Ordering::Relaxed));
            assert!(
                seen.iter().all(|&v| v == round),
                "round {round} observed {seen:?}"
            );
        }
        let stats = pool.stats();
        assert_eq!(stats.barriers, 20);
        assert_eq!(stats.spawns, 60, "three workers per round");
        assert_eq!(stats.jobs, 120);
    }

    #[test]
    fn zero_chunk_rounds_complete_immediately() {
        let pool = WorkerPool::new(ExecPolicy::Threads(2));
        let empty: Vec<usize> = pool.run_chunks(&[0u8; 0], 4, || (), |(), ci, _, _| ci);
        assert!(empty.is_empty());
        assert_eq!(pool.stats(), PoolStats::default(), "no round ran");
        let full = pool.run_chunks(&[0u8; 3], 1, || (), |(), ci, _, _| ci);
        assert_eq!(full, vec![0, 1, 2]);
    }

    #[test]
    fn worker_panic_is_reraised_at_the_barrier() {
        // Chunk 0 is claimed first and is slow; the payload of chunk 4
        // reaches the caller only after that worker has joined.
        let pool = WorkerPool::new(ExecPolicy::Threads(3));
        let slow_done = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunks(
                &[(); 6],
                1,
                || (),
                |(), ci, _, _| {
                    match ci {
                        0 => {
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            slow_done.store(true, Ordering::Relaxed);
                        }
                        4 => panic!("chunk 4 exploded"),
                        _ => {}
                    }
                    ci
                },
            )
        }));
        let payload = caught.expect_err("the job panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 4 exploded"));
        assert!(
            slow_done.load(Ordering::Relaxed),
            "re-raised before every worker joined"
        );
    }

    #[test]
    fn session_survives_a_caught_job_panic() {
        // A caller that catches the relayed panic keeps using the pool, on
        // the serial and on the threaded path.
        for policy in [ExecPolicy::Serial, ExecPolicy::Threads(3)] {
            let pool = WorkerPool::new(policy);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.run_chunks(
                    &[(); 6],
                    1,
                    || (),
                    |(), ci, _, _| {
                        if ci == 2 {
                            panic!("round 0 exploded");
                        }
                        ci
                    },
                )
            }));
            assert!(caught.is_err(), "{policy:?}");
            let out = pool.run_chunks(&[(); 6], 1, || (), |(), ci, _, _| 10 + ci);
            assert_eq!(out, vec![10, 11, 12, 13, 14, 15], "{policy:?}");
            assert_eq!(
                pool.stats().barriers,
                1,
                "{policy:?}: only the completed round counts"
            );
        }
    }

    #[test]
    fn width_caps_the_worker_set() {
        let pool = WorkerPool::new(ExecPolicy::Threads(16));
        let out = pool.run_chunks(&[(); 2], 1, || (), |(), ci, _, _| ci);
        assert_eq!(out, vec![0, 1]);
        assert_eq!(
            pool.stats().spawns,
            2,
            "spawning more workers than chunks could never help"
        );
    }

    #[test]
    fn run_chunks_matches_manual_chunking() {
        let items: Vec<u32> = (0..103).collect();
        let pool = WorkerPool::new(ExecPolicy::Threads(3));
        let sums = pool.run_chunks(
            &items,
            10,
            || (),
            |(), _ci, _off, chunk: &[u32]| chunk.iter().sum::<u32>(),
        );
        let expected: Vec<u32> = items.chunks(10).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, expected);
    }
}
