//! # msatpg-exec — the workspace's one concurrency story
//!
//! A std-only **worker pool** with chunked, self-scheduling parallel
//! iteration, plus the cooperative [`CancelToken`] and the deterministic
//! [`ChaosInjector`] the governed ATPG uses.  One production stage runs on
//! the pool: the per-(parameter, element) rows of the analog worst-case
//! deviation analysis.  Digital test generation and fault simulation are
//! serial; each fault costs microseconds there, and threads lost to the
//! serial loop wherever they were tried.
//!
//! ## Design
//!
//! * **No external dependencies.**  The container builds offline, so the
//!   pool is built on [`std::thread::scope`] (workers may borrow the
//!   caller's data) and an atomic claim cursor.
//! * **One round per call.**  [`WorkerPool::run_chunks`] spawns
//!   `min(workers, chunks)` workers, runs every chunk and joins them: the
//!   one barrier of the round.  [`PoolStats`] counts spawns, jobs and
//!   barriers.  See the [`pool`] module docs.
//! * **Work stealing by chunk self-scheduling.**  Idle workers claim the
//!   next unprocessed chunk from the shared cursor, so a worker that
//!   finishes early takes the next chunk instead of idling behind a static
//!   partition.
//! * **Deterministic ordered results.**  Every chunk's result is slotted by
//!   chunk index, so the output of [`WorkerPool::run_chunks`] is a pure
//!   function of `(items, chunk_size, f)` — never of the scheduling order
//!   or the worker count — and [`ExecPolicy::Serial`], `Threads(2)`,
//!   `Threads(8)`, … give **byte-identical** results.
//! * **One policy knob.**  [`ExecPolicy`] is plumbed through the public
//!   options of the analog and core crates; `Serial` runs inline on the
//!   caller's thread with zero setup cost.  `Auto` honors the
//!   `MSATPG_THREADS` environment variable so CI can matrix thread counts
//!   without code changes.
//!
//! ## Example
//!
//! ```
//! use msatpg_exec::{ExecPolicy, WorkerPool};
//!
//! let items: Vec<u64> = (0..1000).collect();
//! let sum = |_: &mut (), _, _, c: &[u64]| c.iter().sum::<u64>();
//! let serial = WorkerPool::new(ExecPolicy::Serial).run_chunks(&items, 64, || (), sum);
//! let threaded = WorkerPool::new(ExecPolicy::Threads(4)).run_chunks(&items, 64, || (), sum);
//! assert_eq!(serial, threaded); // deterministic ordered results
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod chaos;
pub mod pool;

pub use cancel::{CancelReason, CancelToken};
pub use chaos::{ChaosEvent, ChaosInjector};
pub use pool::{PanicPolicy, PoolStats, WorkerPool};

/// Name of the environment variable [`ExecPolicy::Auto`] consults before
/// falling back to [`std::thread::available_parallelism`].
///
/// # Value grammar
///
/// The value is trimmed and parsed as a positive decimal integer; exactly
/// the values accepted by `usize::from_str` with the result `>= 1` override
/// the hardware thread count.  **Anything else is silently ignored** — the
/// empty string, `"0"`, `"abc"`, `"-2"`, `"1.5"`, unparsable garbage — and
/// [`ExecPolicy::Auto`] falls back to
/// [`std::thread::available_parallelism`].  A malformed value never panics
/// and never serializes the run to one thread: robustness of a campaign
/// must not hinge on a typo in a CI environment block.
pub const THREADS_ENV_VAR: &str = "MSATPG_THREADS";

/// How a parallelizable loop is executed.
///
/// The default everywhere in the workspace is [`ExecPolicy::Serial`]: every
/// parallel entry point produces byte-identical output across policies, so
/// enabling threads is purely a wall-clock decision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecPolicy {
    /// Run inline on the caller's thread (no pool, no spawn overhead).
    #[default]
    Serial,
    /// Run on a scoped pool of exactly `n` workers (`0` and `1` degrade to
    /// the inline serial path).
    Threads(usize),
    /// Run on one worker per hardware thread: the `MSATPG_THREADS`
    /// environment variable when set to a positive integer (so CI can
    /// matrix thread counts without code changes), otherwise
    /// [`std::thread::available_parallelism`].
    Auto,
}

impl ExecPolicy {
    /// The number of workers this policy resolves to on the current host.
    pub fn workers(self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Threads(n) => n.max(1),
            ExecPolicy::Auto => env_threads().unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
        }
    }

    /// `true` when the policy resolves to the inline serial path.
    pub fn is_serial(self) -> bool {
        self.workers() <= 1
    }
}

/// Reads `MSATPG_THREADS`: a positive integer overrides the hardware
/// thread count for [`ExecPolicy::Auto`]; anything else is ignored.
fn env_threads() -> Option<usize> {
    parse_thread_override(&std::env::var(THREADS_ENV_VAR).ok()?)
}

/// The value grammar of `MSATPG_THREADS`, kept pure so it is testable
/// without mutating the process environment (concurrent `setenv`/`getenv`
/// from parallel test threads is undefined behavior on glibc; the live env
/// path is exercised by the CI determinism matrix, which sets the variable
/// before the test process starts).
fn parse_thread_override(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn auto_policy_honors_msatpg_threads_values() {
        // The value grammar is tested through the pure parser —
        // `Auto.workers()` re-reads the variable on every call, so CI can
        // matrix thread counts by setting the environment alone (which the
        // determinism matrix does), and no test mutates the process
        // environment from a parallel test thread.
        assert_eq!(parse_thread_override("3"), Some(3));
        assert_eq!(parse_thread_override(" 8 "), Some(8));
        assert_eq!(parse_thread_override("1"), Some(1));
        // Invalid values fall back to the hardware thread count: the
        // documented grammar of THREADS_ENV_VAR ignores anything that is
        // not a positive decimal integer, and never panics.
        for invalid in ["abc", "0", "-2", "lots", "", " ", "1.5", "0x4", "+"] {
            assert_eq!(parse_thread_override(invalid), None, "value {invalid:?}");
        }
        // Whatever the ambient environment says, Auto resolves to >= 1.
        assert!(ExecPolicy::Auto.workers() >= 1);
    }

    #[test]
    fn policy_resolution() {
        assert_eq!(ExecPolicy::Serial.workers(), 1);
        assert!(ExecPolicy::Serial.is_serial());
        assert_eq!(ExecPolicy::Threads(0).workers(), 1);
        assert!(ExecPolicy::Threads(1).is_serial());
        assert_eq!(ExecPolicy::Threads(8).workers(), 8);
        assert!(!ExecPolicy::Threads(8).is_serial());
        assert!(ExecPolicy::Auto.workers() >= 1);
        assert_eq!(ExecPolicy::default(), ExecPolicy::Serial);
    }

    /// One round of `f` over `items` on a fresh pool under `policy`.
    fn map_chunks<T: Sync, R: Send>(
        policy: ExecPolicy,
        items: &[T],
        chunk_size: usize,
        f: impl Fn(usize, usize, &[T]) -> R + Sync,
    ) -> Vec<R> {
        WorkerPool::new(policy).run_chunks(items, chunk_size, || (), |(), ci, off, c| f(ci, off, c))
    }

    #[test]
    fn chunk_indices_and_offsets_are_consistent() {
        let items: Vec<u32> = (0..103).collect();
        for policy in [ExecPolicy::Serial, ExecPolicy::Threads(3)] {
            let spans = map_chunks(policy, &items, 10, |ci, off, chunk| {
                assert_eq!(off, ci * 10);
                assert_eq!(chunk[0], off as u32);
                (ci, off, chunk.len())
            });
            assert_eq!(spans.len(), 11);
            assert_eq!(spans[10], (10, 100, 3), "last chunk is the remainder");
            let total: usize = spans.iter().map(|&(_, _, n)| n).sum();
            assert_eq!(total, items.len());
        }
    }

    #[test]
    fn results_are_ordered_and_policy_independent() {
        let items: Vec<u64> = (0..4096).map(|i| i * 7 + 3).collect();
        let square_sum = |_, _, c: &[u64]| c.iter().map(|&x| x.wrapping_mul(x)).sum::<u64>();
        let reference = map_chunks(ExecPolicy::Serial, &items, 33, square_sum);
        for threads in [2, 5, 8] {
            let parallel = map_chunks(ExecPolicy::Threads(threads), &items, 33, square_sum);
            assert_eq!(parallel, reference, "{threads} threads");
        }
    }

    #[test]
    fn every_item_is_visited_exactly_once() {
        let items: Vec<usize> = (0..1000).collect();
        let visits = AtomicU64::new(0);
        let chunks = map_chunks(ExecPolicy::Threads(7), &items, 13, |_, _, c| {
            visits.fetch_add(c.len() as u64, Ordering::Relaxed);
            c.to_vec()
        });
        assert_eq!(visits.load(Ordering::Relaxed), 1000);
        let flat: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, items, "concatenated chunks reproduce the input order");
    }

    #[test]
    fn worker_state_is_initialized_per_worker_and_reused() {
        // Count init() calls: the serial path creates one state, a threaded
        // round exactly one per spawned worker.
        let items: Vec<u8> = vec![0; 64];
        for (policy, workers) in [(ExecPolicy::Serial, 1), (ExecPolicy::Threads(3), 3)] {
            let inits = AtomicU64::new(0);
            let lens = WorkerPool::new(policy).run_chunks(
                &items,
                4,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u8>::new()
                },
                |scratch, _, _, c| {
                    scratch.clear();
                    scratch.extend_from_slice(c);
                    scratch.len()
                },
            );
            assert_eq!(lens, vec![4; 16]);
            assert_eq!(inits.load(Ordering::Relaxed), workers, "{policy:?}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u8; 0] = [];
        let out = map_chunks(ExecPolicy::Threads(4), &items, 8, |_, _, c| c.len());
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_never_exceeds_chunk_count() {
        // 2 chunks, 16 requested workers: two workers, chunks in order.
        let items: Vec<u32> = (0..20).collect();
        let pool = WorkerPool::new(ExecPolicy::Threads(16));
        let out = pool.run_chunks(
            &items,
            10,
            || (),
            |(), ci, _, c| (ci, c.iter().sum::<u32>()),
        );
        assert_eq!(out, vec![(0, 45), (1, 145)]);
        assert_eq!(pool.stats().spawns, 2);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let items = [1u8, 2, 3];
        let _ = map_chunks(ExecPolicy::Serial, &items, 0, |_, _, c| c.len());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            map_chunks(ExecPolicy::Threads(4), &items, 8, |_, off, _| {
                if off == 40 {
                    panic!("boom at 40");
                }
                off
            })
        });
        let payload = result.expect_err("the job panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom at 40"));
    }
}
