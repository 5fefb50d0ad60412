//! # msatpg-exec — the workspace's one concurrency story
//!
//! A std-only **persistent worker pool** with chunked, self-scheduling
//! parallel iteration and block-boundary barriers.  The hot layers of the
//! mixed-signal ATPG flow — PPSFP fault re-evaluation, per-fault test
//! generation without fault dropping, per-parameter worst-case deviation
//! rows, per-element analog tests — all run on one execution substrate
//! instead of ad-hoc threading.
//!
//! ## Design
//!
//! * **No external dependencies.**  The container builds offline, so the
//!   pool is built on [`std::thread::scope`] (workers may borrow the
//!   caller's data), a mutex/condvar round descriptor and an atomic claim
//!   cursor.
//! * **Persistent workers, round barriers.**  [`WorkerPool::session`]
//!   spawns one worker set for a whole campaign; work is submitted in
//!   rounds through a channel-free injector, and [`Session::wait`] is the
//!   barrier at which the driver reads the round's results and updates
//!   shared state (fault-dropping sets) before the next round.  [`PoolStats`] counts spawns, jobs and barriers so tests can
//!   assert the amortization (one spawn set per campaign, not one per
//!   64-pattern block).  See the [`pool`] module docs for the lifecycle.
//! * **Work stealing by chunk self-scheduling.**  Idle workers claim the
//!   next unprocessed chunk of the current round with a compare-and-swap on
//!   the shared cursor, so a worker that finishes early immediately steals
//!   the next chunk instead of idling behind a static partition.
//! * **Deterministic ordered reduction.**  Every chunk's result is slotted
//!   by chunk index and merged in chunk order, so the output of
//!   [`par_map_chunks`] / [`par_reduce`] / [`Session::wait`] is a pure
//!   function of `(items, chunk_size, f)` — never of the scheduling order
//!   or the worker count.  Callers that keep per-item work
//!   schedule-independent (see [`par_map_chunks_with`]) therefore get
//!   **byte-identical** results for [`ExecPolicy::Serial`], `Threads(2)`,
//!   `Threads(8)`, … — the property the workspace's determinism suite
//!   asserts.
//! * **One policy knob.**  [`ExecPolicy`] is plumbed through the public
//!   options structs of the digital, analog and core crates; `Serial` runs
//!   inline on the caller's thread with zero setup cost.  `Auto` honors the
//!   `MSATPG_THREADS` environment variable so CI can matrix thread counts
//!   without code changes.
//!
//! ## Example
//!
//! ```
//! use msatpg_exec::{par_map_chunks, ExecPolicy};
//!
//! let items: Vec<u64> = (0..1000).collect();
//! let serial = par_map_chunks(ExecPolicy::Serial, &items, 64, |_, _, c| {
//!     c.iter().sum::<u64>()
//! });
//! let threaded = par_map_chunks(ExecPolicy::Threads(4), &items, 64, |_, _, c| {
//!     c.iter().sum::<u64>()
//! });
//! assert_eq!(serial, threaded); // deterministic ordered reduction
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod chaos;
pub mod pool;

pub use cancel::{CancelReason, CancelToken};
pub use chaos::{ChaosEvent, ChaosInjector};
pub use pool::{ChunkPanic, PanicPolicy, PoolStats, Session, WorkerPool};

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

/// Maps fixed-size chunks of `items` through `f`, possibly in parallel, and
/// returns the chunk results **in chunk order**.
///
/// `f` receives `(chunk_index, item_offset, chunk)` where `item_offset` is
/// the index of `chunk[0]` within `items`.  Because results are slotted by
/// chunk index, the output is independent of the execution policy as long as
/// `f` itself is a pure function of its arguments.
///
/// # Panics
///
/// Panics if `chunk_size` is zero, or propagates a panic raised by `f` on
/// any worker.
pub fn par_map_chunks<T, R, F>(policy: ExecPolicy, items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &[T]) -> R + Sync,
{
    par_map_chunks_with(
        policy,
        items,
        chunk_size,
        || (),
        |(), ci, off, chunk| f(ci, off, chunk),
    )
}

/// Like [`par_map_chunks`], but each worker carries a scratch state created
/// by `init` and reused across every chunk that worker claims.
///
/// # Determinism contract
///
/// The scratch exists to avoid per-chunk allocations (simulation buffers, LU
/// workspaces).  `f`'s **result** must not depend on what previous chunks
/// left in the scratch — chunk-to-worker assignment is scheduling-dependent,
/// so any result that reads stale scratch state would differ from run to
/// run.  State that is invalidated wholesale between items (generation
/// stamps, cleared buffers) satisfies the contract; state that accumulates
/// numerical drift (e.g. an incrementally patched matrix) does not — create
/// such state *inside* `f` instead.
///
/// # Panics
///
/// Panics if `chunk_size` is zero, or propagates a panic raised by `f` on
/// any worker.
pub fn par_map_chunks_with<T, S, R, I, F>(
    policy: ExecPolicy,
    items: &[T],
    chunk_size: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, usize, &[T]) -> R + Sync,
{
    WorkerPool::new(policy).run_chunks(items, chunk_size, init, f)
}

/// Maps chunks in parallel with `map`, then folds the chunk results **in
/// chunk order** on the caller's thread.
///
/// The fold is sequential and ordered, so non-commutative accumulators
/// (ordered vectors, first-hit searches, floating-point sums) behave exactly
/// as in a serial loop regardless of the policy.
///
/// # Panics
///
/// Same conditions as [`par_map_chunks`].
pub fn par_reduce<T, R, A, M, F>(
    policy: ExecPolicy,
    items: &[T],
    chunk_size: usize,
    map: M,
    acc: A,
    fold: F,
) -> A
where
    T: Sync,
    R: Send,
    M: Fn(usize, usize, &[T]) -> R + Sync,
    F: FnMut(A, R) -> A,
{
    par_map_chunks(policy, items, chunk_size, map)
        .into_iter()
        .fold(acc, fold)
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

    #[test]
    fn chunk_indices_and_offsets_are_consistent() {
        let items: Vec<u32> = (0..103).collect();
        for policy in [ExecPolicy::Serial, ExecPolicy::Threads(3)] {
            let spans = par_map_chunks(policy, &items, 10, |ci, off, chunk| {
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
        let reference = par_map_chunks(ExecPolicy::Serial, &items, 33, |_, _, c| {
            c.iter().map(|&x| x.wrapping_mul(x)).sum::<u64>()
        });
        for threads in [2, 5, 8] {
            let parallel = par_map_chunks(ExecPolicy::Threads(threads), &items, 33, |_, _, c| {
                c.iter().map(|&x| x.wrapping_mul(x)).sum::<u64>()
            });
            assert_eq!(parallel, reference, "{threads} threads");
        }
    }

    #[test]
    fn every_item_is_visited_exactly_once() {
        let items: Vec<usize> = (0..1000).collect();
        let visits = AtomicU64::new(0);
        let chunks = par_map_chunks(ExecPolicy::Threads(7), &items, 13, |_, _, c| {
            visits.fetch_add(c.len() as u64, Ordering::Relaxed);
            c.to_vec()
        });
        assert_eq!(visits.load(Ordering::Relaxed), 1000);
        let flat: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, items, "concatenated chunks reproduce the input order");
    }

    #[test]
    fn par_reduce_matches_serial_fold() {
        let items: Vec<i64> = (0..500).map(|i| i - 250).collect();
        let expected: i64 = items.iter().map(|&x| x * 3).sum();
        for policy in [ExecPolicy::Serial, ExecPolicy::Threads(4), ExecPolicy::Auto] {
            let got = par_reduce(
                policy,
                &items,
                17,
                |_, _, c| c.iter().map(|&x| x * 3).sum::<i64>(),
                0i64,
                |a, r| a + r,
            );
            assert_eq!(got, expected, "{policy:?}");
        }
    }

    #[test]
    fn worker_state_is_initialized_per_worker_and_reused() {
        // Count init() calls: the serial path creates one state, a threaded
        // run at most `workers` states (fewer if some workers never claim a
        // chunk before the cursor drains).
        let items: Vec<u8> = vec![0; 64];
        let inits = AtomicU64::new(0);
        let _ = par_map_chunks_with(
            ExecPolicy::Serial,
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
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        inits.store(0, Ordering::Relaxed);
        let _ = par_map_chunks_with(
            ExecPolicy::Threads(3),
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
        let n = inits.load(Ordering::Relaxed);
        assert!((1..=3).contains(&n), "workers initialized {n} states");
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u8; 0] = [];
        let out = par_map_chunks(ExecPolicy::Threads(4), &items, 8, |_, _, c| c.len());
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_never_exceeds_chunk_count() {
        // 2 chunks, 16 requested workers: must not deadlock or misbehave.
        let items: Vec<u32> = (0..20).collect();
        let out = par_map_chunks(ExecPolicy::Threads(16), &items, 10, |ci, _, c| {
            (ci, c.iter().sum::<u32>())
        });
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 0);
        assert_eq!(out[1].0, 1);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let items = [1u8, 2, 3];
        let _ = par_map_chunks(ExecPolicy::Serial, &items, 0, |_, _, c| c.len());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_chunks(ExecPolicy::Threads(4), &items, 8, |_, off, _| {
                if off == 40 {
                    panic!("boom at 40");
                }
                off
            })
        });
        assert!(result.is_err());
    }
}
