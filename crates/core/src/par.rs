//! Order-preserving parallel map on a persistent worker pool.
//!
//! The pipeline's one parallel stage — batched incident evaluation in
//! `Evaluator::rank_memoized` (distinct-matrix builds, then per-incident
//! scoring) — is CPU-bound and deterministic; what it needs from a thread
//! pool is *nothing but* index-stable fan-out. Spawning fresh scoped
//! threads on every [`parallel_map`] call would put an OS thread creation
//! on every ranking. The [`WorkerPool`] keeps one set of workers alive for
//! the life of the process instead: jobs are chunks of a map call, fed
//! through a queue, with results written to index-stable slots so the
//! output stays byte-identical to the sequential map at any worker count.
//!
//! [`parallel_map`] is a thin facade over the process-wide
//! [`shared_pool`]: it keeps the exact chunking of the scoped-thread
//! version (contiguous chunks of `ceil(n / workers)` items, concatenated
//! in input order), so every existing call site keeps byte-identical
//! output ordering. Panics in the mapped closure propagate to the caller
//! after the call's remaining chunks have finished, and the workers
//! survive to serve the next call.
//!
//! Everything here is std-only — no runtime dependency — but the pool
//! needs one carefully-fenced `unsafe` block to erase the borrow lifetime
//! of a chunk job before it rides the `'static` queue (see
//! [`WorkerPool::run`] for the guarantee that makes it sound), which is
//! why `skynet-core` downgraded `#![forbid(unsafe_code)]` to
//! `#![deny(unsafe_code)]` with a scoped `allow` in this module.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A queued unit of work: one chunk of a [`WorkerPool::run`] call,
/// lifetime-erased so it can sit in the pool's `'static` queue.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, ignoring poisoning: the pool's shared state (a job
/// queue, completion counters, a panic slot) stays consistent across a
/// panicking job because jobs run outside the lock and are wrapped in
/// `catch_unwind`.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_ready: Condvar,
}

/// Per-call completion latch: counts finished chunks and carries the first
/// panic payload, if any, back to the submitting thread.
struct Latch {
    done: Mutex<usize>,
    all_done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    fn new() -> Self {
        Latch {
            done: Mutex::new(0),
            all_done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn complete(&self) {
        *lock(&self.done) += 1;
        self.all_done.notify_all();
    }

    fn poison(&self, payload: Box<dyn Any + Send>) {
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        lock(&self.panic).take()
    }

    fn wait_for(&self, n: usize) {
        let mut done = lock(&self.done);
        while *done < n {
            done = self
                .all_done
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Blocks until every submitted chunk of one `run` call has completed —
/// on the normal path *and* while unwinding. This drop-wait is what makes
/// the lifetime erasure in [`WorkerPool::run`] sound: the borrowed
/// closure, slots and latch cannot be deallocated while a worker might
/// still touch them.
struct SubmitGuard<'a> {
    latch: &'a Latch,
    submitted: usize,
}

impl Drop for SubmitGuard<'_> {
    fn drop(&mut self) {
        self.latch.wait_for(self.submitted);
    }
}

thread_local! {
    /// Set inside pool workers so a nested [`WorkerPool::run`] (a mapped
    /// closure that itself calls into the pool) degrades to the sequential
    /// map instead of deadlocking on the already-busy queue.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn worker_loop(shared: &PoolShared, jobs_completed: &AtomicU64) {
    IN_POOL_WORKER.with(|flag| flag.set(true));
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break Some(job);
                }
                if queue.shutdown {
                    break None;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };
        job();
        jobs_completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A persistent pool of worker threads executing chunked, order-preserving
/// map calls. Created once (see [`shared_pool`]) and reused by every
/// `parallel_map` call — the evaluator's matrix prebuild and scoring — with
/// no per-call thread spawning.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: usize,
    jobs_completed: Arc<AtomicU64>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("jobs_completed", &self.jobs_completed())
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `threads` workers (clamped to at least 1). Workers are
    /// spawned eagerly and live until the pool is dropped.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let jobs_completed = Arc::new(AtomicU64::new(0));
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let completed = Arc::clone(&jobs_completed);
                std::thread::Builder::new()
                    .name(format!("skynet-pool-{i}"))
                    .spawn(move || worker_loop(&shared, &completed))
                    .expect("spawning a worker-pool thread")
            })
            .collect();
        WorkerPool {
            shared,
            threads,
            jobs_completed,
            handles,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Chunk jobs executed by the pool so far (across all map calls).
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed.load(Ordering::Relaxed)
    }

    /// Maps `f` over `items` on the pool's persistent workers, preserving
    /// input order. The input is split into contiguous chunks of
    /// `ceil(n / max_chunks)` items — the same boundaries the old
    /// scoped-thread `parallel_map` used — and results are written to
    /// index-stable slots, so the output is byte-identical to the
    /// sequential map regardless of pool size or execution interleaving.
    ///
    /// `max_chunks <= 1` (or a single item) degenerates to the plain
    /// sequential map on the calling thread, as does a nested call from
    /// inside a pool worker (which would otherwise deadlock waiting for
    /// itself). A panic in `f` propagates to the caller once the call's
    /// remaining chunks have drained; the workers survive for the next
    /// call.
    pub fn run<T, U, F>(&self, items: Vec<T>, max_chunks: usize, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let n = items.len();
        let max_chunks = max_chunks.clamp(1, n.max(1));
        if max_chunks <= 1 || IN_POOL_WORKER.with(|flag| flag.get()) {
            return items.into_iter().map(f).collect();
        }

        // Contiguous chunks keep results index-stable under concatenation;
        // the chunk length must stay identical to the scoped-thread
        // implementation for byte-identical chunk boundaries.
        let chunk_len = n.div_ceil(max_chunks);
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(max_chunks);
        let mut it = items.into_iter();
        loop {
            let chunk: Vec<T> = it.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }

        let slots: Vec<Mutex<Option<Vec<U>>>> =
            (0..chunks.len()).map(|_| Mutex::new(None)).collect();
        let latch = Latch::new();
        let submitted = chunks.len();
        let f = &f;
        let slots_ref = &slots;
        let latch_ref = &latch;
        let mut jobs: Vec<Job> = Vec::with_capacity(submitted);
        for (i, chunk) in chunks.into_iter().enumerate() {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    chunk.into_iter().map(f).collect::<Vec<U>>()
                }));
                match result {
                    Ok(mapped) => *lock(&slots_ref[i]) = Some(mapped),
                    Err(payload) => latch_ref.poison(payload),
                }
                latch_ref.complete();
            });
            // SAFETY: the job borrows `f`, `slots` and `latch`, all of
            // which outlive it: every erased job counts the latch up
            // exactly once (also on the panic path, via `catch_unwind`),
            // and `SubmitGuard` below blocks — on the normal path and
            // during unwinding — until the count reaches `submitted`, so
            // this stack frame cannot be left while any job is pending.
            #[allow(unsafe_code)]
            let job: Job = unsafe { erase_job(job) };
            jobs.push(job);
        }

        // From here on the guard guarantees we wait for every job before
        // returning or unwinding out of this frame.
        let guard = SubmitGuard {
            latch: &latch,
            submitted,
        };
        {
            let mut queue = lock(&self.shared.queue);
            queue.jobs.extend(jobs);
        }
        self.shared.work_ready.notify_all();
        drop(guard); // blocks until all chunks have completed

        if let Some(payload) = latch.take_panic() {
            resume_unwind(payload);
        }
        let mut out: Vec<U> = Vec::with_capacity(n);
        for slot in slots {
            let mapped = lock(&slot).take().expect("completed chunk left no result");
            out.extend(mapped);
        }
        out
    }
}

/// Erases the borrow lifetime of a chunk job so it can ride the pool's
/// `'static` queue. See the SAFETY comment at the call site in
/// [`WorkerPool::run`].
#[allow(unsafe_code)]
unsafe fn erase_job(job: Box<dyn FnOnce() + Send + '_>) -> Job {
    // SAFETY: deferred to the caller — the job must be executed (or the
    // queue never drained) while the borrowed data is still live, which
    // `SubmitGuard`'s drop-wait enforces.
    unsafe { std::mem::transmute(job) }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = lock(&self.shared.queue);
            queue.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The process-wide pool behind [`parallel_map`]: created on first use,
/// sized to the machine's available parallelism, and reused by every
/// parallel stage for the life of the process.
pub fn shared_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        WorkerPool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Maps `f` over `items` on up to `workers` pool workers, preserving input
/// order. `workers <= 1` (or a single item) degenerates to the plain
/// sequential map on the calling thread. A panic in any chunk propagates
/// to the caller. The output — ordering and chunk boundaries — is
/// byte-identical to the sequential map and to the earlier scoped-thread
/// implementation at any worker count.
pub fn parallel_map<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    if workers.clamp(1, n.max(1)) <= 1 {
        return items.into_iter().map(f).collect();
    }
    shared_pool().run(items, workers, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn preserves_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [0, 1, 2, 3, 7, 16, 2000] {
            let got = parallel_map(items.clone(), workers, |x| x * 3 + 1);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u64> = parallel_map(Vec::<u64>::new(), 4, |x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(vec![1u32, 2, 3, 4], 2, |x| {
                assert!(x != 3, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn pool_survives_a_panicking_call() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![1u32, 2, 3, 4], 4, |x| {
                assert!(x != 3, "boom");
                x
            })
        }));
        assert!(result.is_err());
        // The same workers serve the next call.
        let got = pool.run((0..100u64).collect(), 4, |x| x + 1);
        assert_eq!(got, (1..=100u64).collect::<Vec<_>>());
    }

    #[test]
    fn pool_reuses_threads_across_calls() {
        let pool = WorkerPool::new(3);
        let seen: StdMutex<HashSet<std::thread::ThreadId>> = StdMutex::new(HashSet::new());
        for _ in 0..20 {
            let out = pool.run((0..60u32).collect(), 3, |x| {
                seen.lock().unwrap().insert(std::thread::current().id());
                x * 2
            });
            assert_eq!(out, (0..60u32).map(|x| x * 2).collect::<Vec<_>>());
        }
        let distinct = seen.lock().unwrap().len();
        assert!(
            distinct <= 3,
            "pool grew threads across calls: {distinct} distinct ids"
        );
        assert!(pool.jobs_completed() >= 20);
    }

    #[test]
    fn nested_calls_run_inline_instead_of_deadlocking() {
        let pool = WorkerPool::new(2);
        let pool_ref = &pool;
        let out = pool_ref.run(vec![10u64, 20], 2, |base| {
            let inner = pool_ref.run((0..5u64).collect(), 2, move |x| x + base);
            inner.iter().sum::<u64>()
        });
        assert_eq!(out, vec![10 + 11 + 12 + 13 + 14, 20 + 21 + 22 + 23 + 24]);
    }

    #[test]
    fn facade_matches_sequential_map_for_strings() {
        let items: Vec<String> = (0..257).map(|i| format!("line-{i}")).collect();
        let expected: Vec<usize> = items.iter().map(|s| s.len()).collect();
        for workers in [2, 4, 5] {
            let got = parallel_map(items.clone(), workers, |s| s.len());
            assert_eq!(got, expected);
        }
    }
}
