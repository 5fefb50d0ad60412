//! The persistent worker pool: spawn once, submit rounds, sync at barriers.
//!
//! ## Pool lifecycle
//!
//! A [`WorkerPool`] is a lightweight handle: an [`ExecPolicy`] plus the
//! [`PoolStats`] counters.  Threads live inside a **session**
//! ([`WorkerPool::session`]): the worker set is spawned exactly once when the
//! session opens, stays parked between rounds, and is joined when the session
//! closes.  A campaign that previously paid one `std::thread::scope` spawn
//! per 64-pattern block (≈150 spawns per worker on a 10k-pattern run) now
//! pays exactly one worker set per campaign — [`PoolStats::spawns`] makes
//! that assertable.
//!
//! ## Rounds and barriers
//!
//! Work is submitted in **rounds**: [`Session::submit`] publishes a round
//! input plus a chunk count through a channel-free injector (a mutex-guarded
//! round descriptor plus an atomic `(round, chunk)` claim cursor — no queue,
//! no allocation per job), and wakes the parked workers.  Idle workers claim
//! chunk indices with a compare-and-swap on the packed cursor, so a worker
//! that finishes early immediately steals the next chunk.  [`Session::wait`]
//! is the **block-boundary barrier**: it blocks the driver until every chunk
//! of the in-flight round has completed and returns the chunk results in
//! chunk-index order (deterministic ordered reduction — never in completion
//! order).  Between `wait` and the next `submit` the driver owns the world:
//! it may update any shared state (fault-dropping flags, covered sets)
//! without synchronization hazards, because every worker is parked on the
//! round condvar.  The mutex handshake of `submit` establishes the
//! happens-before edge that publishes those updates to the workers.
//!
//! At most one round may be in flight per session, but `submit` returns
//! without waiting: a driver can overlap its own serial work (fault-dropping
//! replay, good-circuit simulation of the next block) with the workers'
//! current round, then `wait` at the barrier — the pipelining used by the
//! PPSFP campaign loop.
//!
//! ## Determinism
//!
//! Results are slotted by chunk index and the per-round input is immutable
//! while the round runs, so a session's outputs are a pure function of
//! `(inputs, chunk counts, job)` — never of the worker count or scheduling
//! order.  Worker scratch (created once per worker by `init`) must not leak
//! state between chunks in a way that changes results; see the determinism
//! contract on [`crate::par_map_chunks_with`].
//!
//! ## Panics
//!
//! A panic inside a job is caught on the worker; what happens next is the
//! pool's [`PanicPolicy`]:
//!
//! * [`PanicPolicy::FailFast`] (default) — the panic is relayed through the
//!   round descriptor and re-raised on the driver at the next barrier,
//!   aborting the round early.
//! * [`PanicPolicy::Isolate`] — the panic is converted into a per-chunk
//!   [`ChunkPanic`] record, the worker re-initializes its scratch state
//!   (whatever the job left behind is suspect) and keeps claiming chunks;
//!   the driver reads per-chunk `Result`s at the
//!   [`Session::wait_results`] barrier and decides fault-level outcomes
//!   itself.  One poisoned chunk never unwinds the campaign.
//!
//! Under either policy the session shuts its workers down cleanly even when
//! the driver itself unwinds.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, RwLock};

use crate::ExecPolicy;

/// What a session does with a panic caught inside a chunk job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PanicPolicy {
    /// Relay the panic to the driver and re-raise it at the next barrier,
    /// abandoning the rest of the round (the pre-existing behavior).
    #[default]
    FailFast,
    /// Record the panic as a per-chunk [`ChunkPanic`], re-initialize the
    /// worker's scratch state, and finish the round; the driver reads
    /// per-chunk `Result`s from [`Session::wait_results`].
    Isolate,
}

/// A panic caught inside one chunk job under [`PanicPolicy::Isolate`].
///
/// Carries the chunk index and the panic message (stringified payload), not
/// the payload itself, so it is `Clone` and safe to store in reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkPanic {
    /// Chunk index (within its round) whose job panicked.
    pub chunk: usize,
    /// Stringified panic payload (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for ChunkPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chunk {} panicked: {}", self.chunk, self.message)
    }
}

impl std::error::Error for ChunkPanic {}

/// Stringifies a caught panic payload (the conventional `&str` / `String`
/// payloads verbatim; anything else gets a placeholder).
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Lifetime counters of a [`WorkerPool`], for tests and diagnostics.
///
/// All counters accumulate over the pool's lifetime (across sessions) and
/// are updated with relaxed atomics — read them only from the thread that
/// drives the pool, after the sessions of interest have closed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads spawned.  One session spawns its worker set exactly
    /// once, so a whole PPSFP campaign contributes `workers` here no matter
    /// how many 64-pattern blocks (rounds) it runs.  Serial sessions spawn
    /// nothing.
    pub spawns: u64,
    /// Chunk jobs executed (on workers or inline on the serial path).
    pub jobs: u64,
    /// Round barriers completed ([`Session::wait`] returns).
    pub barriers: u64,
}

/// A persistent worker-pool handle: an [`ExecPolicy`] plus lifetime
/// [`PoolStats`].
///
/// The handle itself owns no threads — see the [module docs](self) for the
/// session lifecycle.  One pool can be threaded through every stage of a
/// larger flow (the mixed-signal ATPG passes a single pool to the digital,
/// analog and conversion stages) so the stats describe the whole run.
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
/// assert_eq!(pool.stats().spawns, 2);     // one worker set for the session
/// ```
pub struct WorkerPool {
    policy: ExecPolicy,
    panic_policy: PanicPolicy,
    spawns: AtomicU64,
    jobs: AtomicU64,
    barriers: AtomicU64,
}

impl WorkerPool {
    /// Creates a pool handle executing under `policy` (with the default
    /// [`PanicPolicy::FailFast`]).
    pub fn new(policy: ExecPolicy) -> Self {
        WorkerPool {
            policy,
            panic_policy: PanicPolicy::FailFast,
            spawns: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            barriers: AtomicU64::new(0),
        }
    }

    /// Sets the pool's [`PanicPolicy`] (builder style).
    pub fn with_panic_policy(mut self, panic_policy: PanicPolicy) -> Self {
        self.panic_policy = panic_policy;
        self
    }

    /// The policy this pool resolves workers from.
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// How this pool's sessions treat panics caught inside chunk jobs.
    pub fn panic_policy(&self) -> PanicPolicy {
        self.panic_policy
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            spawns: self.spawns.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
        }
    }

    /// Opens a session: spawns one worker set (at most `width` workers, and
    /// never more than the policy resolves to), runs `driver` with a
    /// [`Session`] handle for submitting rounds, then drains and joins the
    /// workers.
    ///
    /// * `width` — an upper bound on the chunks any round of this session
    ///   will carry; spawning more workers than that could never help.
    /// * `init` — builds one worker-local scratch state per worker (called
    ///   once per worker, or once lazily on the inline path).
    /// * `job` — executes chunk `ci` of the current round against the round
    ///   input; must be a pure function of `(&mut scratch, input, ci)` for
    ///   the session output to be policy-independent.
    /// * `driver` — runs on the calling thread and submits rounds.
    ///
    /// When the policy (or `width`) resolves to a single worker the session
    /// runs inline on the caller's thread with zero spawn cost and identical
    /// semantics (minus the submit/wait overlap).
    ///
    /// # Panics
    ///
    /// Re-raises a panic from any job at the barrier, and propagates driver
    /// panics; in both cases the workers are shut down and joined first.
    pub fn session<I, R, S, Out>(
        &self,
        width: usize,
        init: impl Fn() -> S + Sync,
        job: impl Fn(&mut S, &I, usize) -> R + Sync,
        driver: impl FnOnce(&mut Session<'_, I, R>) -> Out,
    ) -> Out
    where
        I: Send + Sync,
        R: Send,
    {
        let workers = self.policy.workers().min(width.max(1));
        let panic_policy = self.panic_policy;
        if workers <= 1 {
            let mut scratch: Option<S> = None;
            let mut run = |input: I, n_chunks: usize| -> Vec<Result<R, ChunkPanic>> {
                (0..n_chunks)
                    .map(|ci| {
                        self.jobs.fetch_add(1, Ordering::Relaxed);
                        if panic_policy == PanicPolicy::Isolate {
                            let state = scratch.get_or_insert_with(&init);
                            match catch_unwind(AssertUnwindSafe(|| job(state, &input, ci))) {
                                Ok(result) => Ok(result),
                                Err(payload) => {
                                    // The job may have left the scratch in an
                                    // inconsistent state; rebuild it.
                                    scratch = None;
                                    Err(ChunkPanic {
                                        chunk: ci,
                                        message: payload_message(payload.as_ref()),
                                    })
                                }
                            }
                        } else {
                            Ok(job(scratch.get_or_insert_with(&init), &input, ci))
                        }
                    })
                    .collect()
            };
            let mut session = Session {
                pool: self,
                inner: SessionInner::Inline {
                    run: &mut run,
                    pending: None,
                },
            };
            let out = driver(&mut session);
            session.drain();
            return out;
        }
        let shared: Shared<I, R> = Shared {
            state: Mutex::new(RoundState {
                round: 0,
                n_chunks: 0,
                remaining: 0,
                results: Vec::new(),
                shutdown: false,
                panic: None,
            }),
            input: RwLock::new(None),
            cursor: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            panic_policy,
            to_workers: Condvar::new(),
            to_driver: Condvar::new(),
        };
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| worker_loop(&shared, &init, &job, &self.jobs));
            }
            self.spawns.fetch_add(workers as u64, Ordering::Relaxed);
            // The guard shuts the workers down even when `driver` (or a
            // relayed job panic) unwinds, so the scope join below never
            // deadlocks.
            let _guard = ShutdownGuard(&shared);
            let mut session = Session {
                pool: self,
                inner: SessionInner::Threaded {
                    shared: &shared,
                    in_flight: false,
                },
            };
            let out = driver(&mut session);
            session.drain();
            out
        })
    }

    /// Maps fixed-size chunks of `items` through `f` on one single-round
    /// session and returns the chunk results in chunk order.
    ///
    /// This is the persistent-pool backend of [`crate::par_map_chunks_with`]
    /// — same signature semantics, but charged to this pool's stats and
    /// worker set.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero, or propagates a panic raised by `f`.
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
        if items.is_empty() {
            return Vec::new();
        }
        let n_chunks = items.len().div_ceil(chunk_size);
        self.session(
            n_chunks,
            init,
            |state, _input: &(), ci| {
                let offset = ci * chunk_size;
                let end = (offset + chunk_size).min(items.len());
                f(state, ci, offset, &items[offset..end])
            },
            |session| session.run((), n_chunks),
        )
    }
}

/// Handle for submitting rounds to a session's worker set.
///
/// Obtained inside [`WorkerPool::session`]; see the [module docs](self) for
/// round/barrier semantics.
pub struct Session<'a, I, R> {
    pool: &'a WorkerPool,
    inner: SessionInner<'a, I, R>,
}

enum SessionInner<'a, I, R> {
    /// Serial fallback: rounds execute inline at the barrier.
    Inline {
        run: &'a mut (dyn FnMut(I, usize) -> Vec<Result<R, ChunkPanic>> + 'a),
        pending: Option<(I, usize)>,
    },
    Threaded {
        shared: &'a Shared<I, R>,
        in_flight: bool,
    },
}

impl<I, R> Session<'_, I, R> {
    /// Publishes a round of `n_chunks` chunk jobs over `input` to the worker
    /// set and returns immediately; the caller may overlap its own work with
    /// the round and must eventually [`Session::wait`] for it.
    ///
    /// # Panics
    ///
    /// Panics if a round is already in flight (at most one is allowed).
    pub fn submit(&mut self, input: I, n_chunks: usize) {
        match &mut self.inner {
            SessionInner::Inline { pending, .. } => {
                assert!(pending.is_none(), "a round is already in flight");
                *pending = Some((input, n_chunks));
            }
            SessionInner::Threaded { shared, in_flight } => {
                assert!(!*in_flight, "a round is already in flight");
                *write(&shared.input) = Some(input);
                let mut st = lock(&shared.state);
                // A previous round may have ended in a relayed panic; this
                // submit happens in the driver-owned window (no worker is
                // claiming), so clearing the abort flag here lets a driver
                // that survived the panic keep using the session.
                shared.aborted.store(false, Ordering::SeqCst);
                st.round += 1;
                st.n_chunks = n_chunks;
                st.remaining = n_chunks;
                st.results.clear();
                st.results.resize_with(n_chunks, || None);
                // Publish the claim cursor for the new round while holding
                // the lock: a worker can only observe the round number after
                // the cursor (and the input above) are in place.
                shared.cursor.store(st.round << 32, Ordering::SeqCst);
                drop(st);
                shared.to_workers.notify_all();
                *in_flight = true;
            }
        }
    }

    /// The block-boundary barrier: waits for the in-flight round and returns
    /// its chunk results in chunk-index order.
    ///
    /// # Panics
    ///
    /// Panics if no round is in flight.  Re-raises any panic a job of the
    /// round produced — under [`PanicPolicy::FailFast`] the original payload
    /// relayed from the worker, under [`PanicPolicy::Isolate`] a fresh panic
    /// naming the first [`ChunkPanic`] (drivers that opted into isolation
    /// should read [`Session::wait_results`] instead).
    pub fn wait(&mut self) -> Vec<R> {
        self.wait_results()
            .into_iter()
            .map(|slot| match slot {
                Ok(result) => result,
                Err(chunk_panic) => panic!("{chunk_panic}"),
            })
            .collect()
    }

    /// The panic-isolating barrier: waits for the in-flight round and
    /// returns one `Result` per chunk in chunk-index order —
    /// `Err(ChunkPanic)` for chunks whose job panicked under
    /// [`PanicPolicy::Isolate`].
    ///
    /// # Panics
    ///
    /// Panics if no round is in flight.  Under [`PanicPolicy::FailFast`] a
    /// job panic is still re-raised here (isolation is a pool policy, not a
    /// per-barrier choice), so every returned slot is `Ok` under that
    /// policy.
    pub fn wait_results(&mut self) -> Vec<Result<R, ChunkPanic>> {
        let results = match &mut self.inner {
            SessionInner::Inline { run, pending } => {
                let (input, n_chunks) = pending.take().expect("no round is in flight");
                run(input, n_chunks)
            }
            SessionInner::Threaded { shared, in_flight } => {
                assert!(*in_flight, "no round is in flight");
                *in_flight = false;
                let mut st = lock(&shared.state);
                loop {
                    if let Some(payload) = st.panic.take() {
                        drop(st);
                        resume_unwind(payload);
                    }
                    if st.remaining == 0 {
                        break;
                    }
                    st = wait_cv(&shared.to_driver, st);
                }
                let slots = std::mem::take(&mut st.results);
                drop(st);
                // Every chunk is finished, so no worker holds a read guard;
                // drop the round input at the barrier.
                *write(&shared.input) = None;
                slots
                    .into_iter()
                    .map(|slot| slot.expect("every chunk of the round completed"))
                    .collect()
            }
        };
        self.pool.barriers.fetch_add(1, Ordering::Relaxed);
        results
    }

    /// Submits a round and immediately waits at its barrier.
    pub fn run(&mut self, input: I, n_chunks: usize) -> Vec<R> {
        self.submit(input, n_chunks);
        self.wait()
    }

    /// Submits a round and immediately waits at its panic-isolating barrier.
    pub fn run_results(&mut self, input: I, n_chunks: usize) -> Vec<Result<R, ChunkPanic>> {
        self.submit(input, n_chunks);
        self.wait_results()
    }

    /// `true` while a submitted round has not been waited for.
    pub fn in_flight(&self) -> bool {
        match &self.inner {
            SessionInner::Inline { pending, .. } => pending.is_some(),
            SessionInner::Threaded { in_flight, .. } => *in_flight,
        }
    }

    /// Completes any in-flight round (discarding its results, including any
    /// isolated [`ChunkPanic`]s) so the session can close; called
    /// automatically when the driver returns.
    fn drain(&mut self) {
        if self.in_flight() {
            let _ = self.wait_results();
        }
    }
}

struct Shared<I, R> {
    state: Mutex<RoundState<R>>,
    /// The current round's input; written by the driver strictly between
    /// barriers, read-locked by workers only while executing a claimed chunk.
    input: RwLock<Option<I>>,
    /// Packed claim cursor: `round << 32 | next_chunk`.  The round tag makes
    /// a stale worker's claim attempt fail instead of claiming a chunk of a
    /// newer round with an outdated chunk count.
    cursor: AtomicU64,
    /// Set when a job panicked under [`PanicPolicy::FailFast`]: workers stop
    /// claiming, the driver re-raises.
    aborted: AtomicBool,
    /// How workers treat panics caught inside jobs.
    panic_policy: PanicPolicy,
    to_workers: Condvar,
    to_driver: Condvar,
}

struct RoundState<R> {
    round: u64,
    n_chunks: usize,
    remaining: usize,
    results: Vec<Option<Result<R, ChunkPanic>>>,
    shutdown: bool,
    panic: Option<Box<dyn Any + Send>>,
}

struct ShutdownGuard<'a, I, R>(&'a Shared<I, R>);

impl<I, R> Drop for ShutdownGuard<'_, I, R> {
    fn drop(&mut self) {
        let mut st = lock(&self.0.state);
        st.shutdown = true;
        drop(st);
        self.0.to_workers.notify_all();
    }
}

/// Locks a mutex, recovering from poisoning (no invariant of ours can be
/// broken by a poisoned lock: user jobs never run while a lock is held).
fn lock<'m, T>(mutex: &'m Mutex<T>) -> MutexGuard<'m, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn wait_cv<'m, T>(cv: &Condvar, guard: MutexGuard<'m, T>) -> MutexGuard<'m, T> {
    cv.wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn write<'l, T>(rw: &'l RwLock<T>) -> std::sync::RwLockWriteGuard<'l, T> {
    rw.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn read<'l, T>(rw: &'l RwLock<T>) -> std::sync::RwLockReadGuard<'l, T> {
    rw.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn worker_loop<I, R, S>(
    shared: &Shared<I, R>,
    init: &(impl Fn() -> S + Sync),
    job: &(impl Fn(&mut S, &I, usize) -> R + Sync),
    jobs: &AtomicU64,
) where
    I: Send + Sync,
    R: Send,
{
    let mut scratch = init();
    let mut seen = 0u64;
    loop {
        // Park until a new round is published (or shutdown).
        let (round, n_chunks) = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.round > seen {
                    break (st.round, st.n_chunks);
                }
                st = wait_cv(&shared.to_workers, st);
            }
        };
        seen = round;
        // Claim chunks of this round until its cursor drains.
        loop {
            if shared.aborted.load(Ordering::Relaxed) {
                break;
            }
            let cur = shared.cursor.load(Ordering::SeqCst);
            if cur >> 32 != round || (cur & 0xFFFF_FFFF) as usize >= n_chunks {
                break;
            }
            if shared
                .cursor
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue;
            }
            let ci = (cur & 0xFFFF_FFFF) as usize;
            let outcome = {
                let guard = read(&shared.input);
                let input = guard.as_ref().expect("input is set for the active round");
                catch_unwind(AssertUnwindSafe(|| job(&mut scratch, input, ci)))
            };
            jobs.fetch_add(1, Ordering::Relaxed);
            if outcome.is_err() && shared.panic_policy == PanicPolicy::Isolate {
                // The job may have left the scratch inconsistent; rebuild it
                // before claiming the next chunk.
                scratch = init();
            }
            let mut st = lock(&shared.state);
            if st.round != round {
                // The driver already abandoned this round (it advances early
                // when a sibling job panicked) and submitted a new one; this
                // straggler's result must not land in the new round's slots.
                break;
            }
            match outcome {
                Ok(result) => st.results[ci] = Some(Ok(result)),
                Err(payload) => match shared.panic_policy {
                    PanicPolicy::Isolate => {
                        st.results[ci] = Some(Err(ChunkPanic {
                            chunk: ci,
                            message: payload_message(payload.as_ref()),
                        }));
                    }
                    PanicPolicy::FailFast => {
                        shared.aborted.store(true, Ordering::Relaxed);
                        if st.panic.is_none() {
                            st.panic = Some(payload);
                        }
                    }
                },
            }
            st.remaining = st.remaining.saturating_sub(1);
            if st.remaining == 0 || st.panic.is_some() {
                shared.to_driver.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn one_spawn_set_across_many_rounds() {
        let pool = WorkerPool::new(ExecPolicy::Threads(4));
        let per_round = pool.session(
            8,
            || (),
            |(), input: &u64, ci| input * 100 + ci as u64,
            |session| {
                (0..10u64)
                    .map(|round| session.run(round, 8))
                    .collect::<Vec<_>>()
            },
        );
        for (round, results) in per_round.iter().enumerate() {
            let expected: Vec<u64> = (0..8).map(|ci| round as u64 * 100 + ci).collect();
            assert_eq!(results, &expected, "round {round}");
        }
        let stats = pool.stats();
        assert_eq!(stats.spawns, 4, "one worker set for the whole session");
        assert_eq!(stats.barriers, 10, "one barrier per round");
        assert_eq!(stats.jobs, 80, "8 chunks x 10 rounds");
    }

    #[test]
    fn serial_session_spawns_nothing() {
        let pool = WorkerPool::new(ExecPolicy::Serial);
        let out = pool.session(
            4,
            || 0u64,
            |state, input: &u64, ci| {
                *state += 1;
                input + ci as u64
            },
            |session| session.run(7, 3),
        );
        assert_eq!(out, vec![7, 8, 9]);
        let stats = pool.stats();
        assert_eq!(stats.spawns, 0);
        assert_eq!(stats.jobs, 3);
        assert_eq!(stats.barriers, 1);
    }

    #[test]
    fn barrier_publishes_driver_updates_to_workers() {
        // The driver mutates shared state strictly between barriers; every
        // job of the following round must observe the latest value.
        let knob = AtomicUsize::new(0);
        let pool = WorkerPool::new(ExecPolicy::Threads(3));
        pool.session(
            6,
            || (),
            |(), _input: &(), _ci| knob.load(Ordering::Relaxed),
            |session| {
                for round in 0..20 {
                    knob.store(round, Ordering::Relaxed);
                    let seen = session.run((), 6);
                    assert!(
                        seen.iter().all(|&v| v == round),
                        "round {round} observed {seen:?}"
                    );
                }
            },
        );
        assert_eq!(pool.stats().barriers, 20);
    }

    #[test]
    fn submit_overlaps_driver_work_and_wait_orders_results() {
        let pool = WorkerPool::new(ExecPolicy::Threads(2));
        let total = pool.session(
            4,
            || (),
            |(), input: &Vec<u64>, ci| input[ci] * 2,
            |session| {
                let mut acc = 0u64;
                let mut pending: Option<Vec<u64>> = Some(vec![1, 2, 3, 4]);
                let mut next = 5u64;
                while let Some(input) = pending.take() {
                    session.submit(input, 4);
                    // Driver-side work while the round runs.
                    if next <= 13 {
                        pending = Some((next..next + 4).collect());
                        next += 4;
                    }
                    let results = session.wait();
                    acc += results.iter().sum::<u64>();
                }
                acc
            },
        );
        // 2 * (1 + 2 + ... + 16)
        assert_eq!(total, 2 * (16 * 17) / 2);
    }

    #[test]
    fn zero_chunk_rounds_complete_immediately() {
        let pool = WorkerPool::new(ExecPolicy::Threads(2));
        let out = pool.session(
            4,
            || (),
            |(), _: &(), ci| ci,
            |session| {
                let empty = session.run((), 0);
                let full = session.run((), 3);
                (empty, full)
            },
        );
        assert!(out.0.is_empty());
        assert_eq!(out.1, vec![0, 1, 2]);
    }

    #[test]
    fn worker_panic_is_reraised_at_the_barrier() {
        let pool = WorkerPool::new(ExecPolicy::Threads(3));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.session(
                6,
                || (),
                |(), _: &(), ci| {
                    if ci == 4 {
                        panic!("chunk 4 exploded");
                    }
                    ci
                },
                |session| session.run((), 6),
            )
        }));
        assert!(caught.is_err(), "the job panic must reach the driver");
        // The pool handle survives a panicked session.
        let ok = pool.session(2, || (), |(), _: &(), ci| ci, |s| s.run((), 2));
        assert_eq!(ok, vec![0, 1]);
    }

    #[test]
    fn session_survives_a_caught_job_panic() {
        // A driver that catches the relayed panic may keep using the same
        // session: the abort flag resets at the next submit and straggler
        // results from the abandoned round are discarded.
        let pool = WorkerPool::new(ExecPolicy::Threads(3));
        let out = pool.session(
            6,
            || (),
            |(), round: &u64, ci| {
                if *round == 0 && ci == 2 {
                    panic!("round 0 exploded");
                }
                round * 10 + ci as u64
            },
            |session| {
                let first = catch_unwind(AssertUnwindSafe(|| session.run(0u64, 6)));
                assert!(first.is_err(), "round 0's panic reaches the barrier");
                session.run(1u64, 6)
            },
        );
        assert_eq!(out, vec![10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn isolate_records_chunk_panics_and_finishes_the_round() {
        for policy in [ExecPolicy::Serial, ExecPolicy::Threads(3)] {
            let pool = WorkerPool::new(policy).with_panic_policy(PanicPolicy::Isolate);
            let out = pool.session(
                6,
                || (),
                |(), _: &(), ci| {
                    if ci == 2 || ci == 4 {
                        panic!("chunk {ci} exploded");
                    }
                    ci * 10
                },
                |session| session.run_results((), 6),
            );
            assert_eq!(out.len(), 6, "{policy:?}: the round runs to completion");
            for (ci, slot) in out.iter().enumerate() {
                if ci == 2 || ci == 4 {
                    let err = slot.as_ref().expect_err("panicked chunk");
                    assert_eq!(err.chunk, ci);
                    assert_eq!(err.message, format!("chunk {ci} exploded"));
                } else {
                    assert_eq!(slot.as_ref().copied(), Ok(ci * 10), "{policy:?}");
                }
            }
        }
    }

    #[test]
    fn isolate_session_is_reusable_after_a_chunk_panic() {
        // Same shape as session_survives_a_caught_job_panic, but without the
        // driver-side catch_unwind: isolation turns the panic into data.
        let pool = WorkerPool::new(ExecPolicy::Threads(3)).with_panic_policy(PanicPolicy::Isolate);
        let out = pool.session(
            6,
            || 0u32,
            |hits, round: &u64, ci| {
                *hits += 1;
                if *round == 0 && ci == 2 {
                    panic!("round 0 exploded");
                }
                round * 10 + ci as u64
            },
            |session| {
                let first = session.run_results(0u64, 6);
                assert_eq!(first.iter().filter(|r| r.is_err()).count(), 1);
                // The next round reuses the same worker set and every chunk
                // succeeds (the panicked worker's scratch was re-initialized).
                session.run(1u64, 6)
            },
        );
        assert_eq!(out, vec![10, 11, 12, 13, 14, 15]);
        assert_eq!(pool.stats().spawns, 3, "no respawn after the panic");
    }

    #[test]
    fn isolate_reinitializes_the_scratch_of_a_panicked_worker() {
        // Serial path so the chunk-to-worker assignment is deterministic:
        // the scratch counter must restart after the panicked chunk.
        let pool = WorkerPool::new(ExecPolicy::Serial).with_panic_policy(PanicPolicy::Isolate);
        let out = pool.session(
            4,
            || 0u32,
            |count, _: &(), ci| {
                *count += 1;
                if ci == 1 {
                    panic!("poisoned");
                }
                *count
            },
            |session| session.run_results((), 4),
        );
        assert_eq!(out[0].as_ref().copied(), Ok(1));
        assert!(out[1].is_err());
        assert_eq!(out[2].as_ref().copied(), Ok(1), "fresh scratch after panic");
        assert_eq!(out[3].as_ref().copied(), Ok(2));
    }

    #[test]
    fn failfast_wait_results_still_reraises() {
        let pool = WorkerPool::new(ExecPolicy::Threads(2));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.session(
                4,
                || (),
                |(), _: &(), ci| {
                    if ci == 1 {
                        panic!("fail fast");
                    }
                    ci
                },
                |session| session.run_results((), 4),
            )
        }));
        assert!(
            caught.is_err(),
            "FailFast is a pool policy, not a barrier choice"
        );
    }

    #[test]
    fn isolate_wait_panics_with_the_chunk_message() {
        // A driver that opted into isolation but reads the plain barrier
        // still gets a panic naming the chunk.
        let pool = WorkerPool::new(ExecPolicy::Serial).with_panic_policy(PanicPolicy::Isolate);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.session(
                2,
                || (),
                |(), _: &(), ci| {
                    if ci == 0 {
                        panic!("boom");
                    }
                    ci
                },
                |session| session.run((), 2),
            )
        }));
        let payload = caught.expect_err("must re-raise");
        let message = payload_message(payload.as_ref());
        assert!(message.contains("chunk 0"), "got {message:?}");
        assert!(message.contains("boom"), "got {message:?}");
    }

    #[test]
    fn width_caps_the_worker_set() {
        let pool = WorkerPool::new(ExecPolicy::Threads(16));
        let out = pool.session(2, || (), |(), _: &(), ci| ci, |session| session.run((), 2));
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
