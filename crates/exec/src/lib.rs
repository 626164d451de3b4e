//! Deterministic fan-out for the epoch pipeline on a **persistent** worker
//! pool.
//!
//! The offline build environment has no rayon; this crate provides the
//! small slice of it Skute needs, designed around one invariant: **results
//! never depend on the thread count or on worker scheduling**.
//!
//! Three pieces:
//!
//! - [`WorkerPool`]: a long-lived pool of parked workers. Construction
//!   spawns `threads - 1` OS threads once; they park on a condvar between
//!   dispatches, so a parallel phase costs one queue handoff instead of a
//!   `std::thread::scope` spawn storm per phase (PR 3 opened 3–5 scopes
//!   per epoch). Jobs are **owned** (`'static`) closures over owned task
//!   data — the workspace denies `unsafe_code`, so borrowed-job handoff to
//!   long-lived threads (the rayon/crossbeam trick) is out; callers move
//!   task data in and get it back from [`WorkerPool::run_tasks`], whose
//!   result vector is ordered by task index, never by completion order.
//!   Dropping the pool shuts the workers down and joins them.
//! - [`ShardAccounts`]: per-chunk delta accumulators whose merge replays
//!   deltas in (shard, insertion) order — a deterministic sequence fixed
//!   by the chunk decomposition, not by which worker finished first. The
//!   merge is bit-identical to the sequential left fold over the items.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// An owned unit of work queued on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its parked workers.
struct Shared {
    /// Pending jobs; workers and the dispatching caller both pop from the
    /// front (the caller participates, so a pool of budget *n* runs *n*
    /// jobs concurrently with only *n − 1* spawned threads).
    queue: Mutex<VecDeque<Job>>,
    /// Signals queued work (or shutdown) to parked workers.
    work_ready: Condvar,
    /// Set once by [`WorkerPool::drop`]; workers exit when they see it
    /// with an empty queue.
    shutdown: AtomicBool,
    /// Workers currently alive (spawned and not yet exited).
    live: AtomicUsize,
}

/// A persistent fork-join worker pool with a fixed thread budget.
///
/// Workers are spawned once at construction and parked between dispatches;
/// [`WorkerPool::run_tasks`] hands them owned tasks and returns the owned
/// results in task order. With a budget of one (or zero/one tasks)
/// everything runs inline on the caller's stack — zero queue traffic, zero
/// synchronization — which is also why an explicit `threads = 1` budget is
/// the bit-exact sequential reference at no overhead.
pub struct WorkerPool {
    threads: usize,
    /// `None` for a sequential pool (no workers, everything inline).
    shared: Option<Arc<Shared>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("live_workers", &self.live_workers())
            .finish()
    }
}

impl WorkerPool {
    /// A pool running `threads` workers per parallel region; `0` asks the
    /// OS for the available parallelism. Budgets above one spawn
    /// `threads - 1` parked worker threads immediately (the calling thread
    /// is always worker 0 of a dispatch).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        if threads <= 1 {
            return Self {
                threads: 1,
                shared: None,
                workers: Vec::new(),
            };
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                shared.live.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        Self {
            threads,
            shared: Some(shared),
            workers,
        }
    }

    /// A pool that always runs inline on the caller's thread.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The resolved worker budget (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Worker threads currently alive (spawned and not yet exited);
    /// `threads() - 1` for a healthy parallel pool, `0` for a sequential
    /// one — and, after the pool is dropped, provably `0` again: drop
    /// signals shutdown and joins every worker before returning.
    pub fn live_workers(&self) -> usize {
        self.shared
            .as_ref()
            .map(|s| s.live.load(Ordering::SeqCst))
            .unwrap_or(0)
    }

    /// Runs `f(task_index, task)` over the owned `tasks`, in parallel when
    /// the pool has more than one thread and there is more than one task,
    /// and returns the results **in task order** (never completion order).
    ///
    /// `f` must be order-independent across tasks (tasks never observe each
    /// other); shared inputs travel inside `f` (typically as `Arc`s) and
    /// every `Arc` clone handed to a job is dropped before its result is
    /// published, so once `run_tasks` returns the caller can reclaim a
    /// uniquely-held context with `Arc::try_unwrap`.
    ///
    /// A panicking task is caught on the worker, and the panic resumes on
    /// the calling thread after the dispatch drains.
    pub fn run_tasks<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let shared = match &self.shared {
            Some(shared) if n > 1 => shared,
            _ => {
                // Inline: task order, caller's stack, zero synchronization.
                return tasks
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| f(i, t))
                    .collect();
            }
        };
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();
        {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            for (i, task) in tasks.into_iter().enumerate() {
                let f = Arc::clone(&f);
                let tx = tx.clone();
                queue.push_back(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| f(i, task)));
                    // Drop the function handle (and the shared context it
                    // carries) *before* publishing the result, so that
                    // "all results received" implies "no job still holds
                    // a context Arc".
                    drop(f);
                    let _ = tx.send((i, result));
                }));
            }
            shared.work_ready.notify_all();
        }
        drop(tx);
        let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        let mut received = 0usize;
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        let record =
            |slot: (usize, std::thread::Result<R>),
             results: &mut Vec<Option<R>>,
             panic_payload: &mut Option<Box<dyn std::any::Any + Send>>| {
                let (i, r) = slot;
                match r {
                    Ok(r) => results[i] = Some(r),
                    Err(p) => {
                        panic_payload.get_or_insert(p);
                    }
                }
            };
        while received < n {
            // Drain whatever results are already published.
            match rx.try_recv() {
                Ok(slot) => {
                    record(slot, &mut results, &mut panic_payload);
                    received += 1;
                    continue;
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => break,
            }
            // Participate: run one queued job (possibly ours, possibly a
            // concurrent dispatch's — either way it makes progress), or
            // block for the next result when the queue is dry.
            let job = shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front();
            match job {
                Some(job) => job(),
                None => match rx.recv() {
                    Ok(slot) => {
                        record(slot, &mut results, &mut panic_payload);
                        received += 1;
                    }
                    Err(_) => break,
                },
            }
        }
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|r| r.expect("every task publishes exactly one result"))
            .collect()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::sequential()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            // Flag shutdown *while holding the queue mutex*: a worker
            // between its shutdown check and its condvar wait still holds
            // the lock, so taking it here guarantees every worker either
            // has not checked yet (and will see the flag) or is already
            // waiting (and receives the notify) — without it, a notify
            // landing in that window is lost and the join below hangs.
            let guard = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.work_ready.notify_all();
            drop(guard);
        }
        for handle in self.workers.drain(..) {
            // A worker that panicked outside a job already exited; joining
            // it still reaps the thread.
            let _ = handle.join();
        }
    }
}

/// The parked-worker loop: pop a job or sleep on the condvar; exit when
/// shutdown is flagged and the queue is drained.
fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        match job {
            Some(job) => job(),
            None => break,
        }
    }
    shared.live.fetch_sub(1, Ordering::SeqCst);
}

/// Number of chunks `chunk_size` splits `items` into (the shard count of a
/// parallel region). Depends only on the two arguments — never on the
/// thread count — so shard-indexed state is deterministic.
pub fn chunk_count(items: usize, chunk_size: usize) -> usize {
    items.div_ceil(chunk_size.max(1))
}

/// Splits owned `items` into contiguous chunks of `chunk_size` (the last
/// may be shorter), preserving order — the owned-task counterpart of
/// `slice::chunks` for [`WorkerPool::run_tasks`] dispatches. The
/// decomposition depends only on the arguments, never on the thread count.
pub fn split_chunks<T>(items: Vec<T>, chunk_size: usize) -> Vec<Vec<T>> {
    let chunk_size = chunk_size.max(1);
    let mut out = Vec::with_capacity(chunk_count(items.len(), chunk_size));
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<T> = it.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        out.push(chunk);
    }
    out
}

/// Per-shard delta accumulators with a deterministic, scheduling-blind
/// merge.
///
/// A parallel phase hands shard `i`'s `Vec` to task `i` (moved through
/// [`WorkerPool::run_tasks`] and moved back); workers push `(key, delta)`
/// pairs in item order. Merging replays every delta in **(shard,
/// insertion) order** — with contiguous chunks that is exactly the
/// original item order, so a floating-point fold produces the same bits as
/// the sequential loop the phase replaced, at any thread count and under
/// any chunk decomposition.
#[derive(Debug, Clone)]
pub struct ShardAccounts<K, V> {
    shards: Vec<Vec<(K, V)>>,
}

impl<K, V> Default for ShardAccounts<K, V> {
    fn default() -> Self {
        Self { shards: Vec::new() }
    }
}

impl<K: Ord + Copy, V> ShardAccounts<K, V> {
    /// An accumulator with no shards; size it with [`ShardAccounts::reset`].
    pub fn new() -> Self {
        Self { shards: Vec::new() }
    }

    /// Clears all shards and resizes to `shards` of them, keeping the
    /// allocation of every retained shard.
    pub fn reset(&mut self, shards: usize) {
        self.shards.truncate(shards);
        for s in &mut self.shards {
            s.clear();
        }
        while self.shards.len() < shards {
            self.shards.push(Vec::new());
        }
    }

    /// The per-shard delta buffers, for moving into a parallel region.
    pub fn shards_mut(&mut self) -> &mut [Vec<(K, V)>] {
        &mut self.shards
    }

    /// Total recorded deltas across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// True when no delta is recorded.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(Vec::is_empty)
    }

    /// Drains every delta in (shard, insertion) order.
    pub fn drain_in_order(&mut self, mut f: impl FnMut(K, V)) {
        for shard in &mut self.shards {
            for (k, v) in shard.drain(..) {
                f(k, v);
            }
        }
    }

    /// Drains the deltas into `out`, a key-sorted accumulator vector:
    /// each delta either lands on its key's existing slot via `combine` or
    /// inserts a fresh `init()` slot first. Deltas of one key are combined
    /// in (shard, insertion) order; keys end up sorted ascending.
    pub fn merge_into_sorted<A>(
        &mut self,
        out: &mut Vec<(K, A)>,
        mut init: impl FnMut() -> A,
        mut combine: impl FnMut(&mut A, V),
    ) {
        self.drain_in_order(|k, v| match out.binary_search_by(|(ok, _)| ok.cmp(&k)) {
            Ok(pos) => combine(&mut out[pos].1, v),
            Err(pos) => {
                out.insert(pos, (k, init()));
                combine(&mut out[pos].1, v);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn inline_and_parallel_tasks_agree() {
        let compute = |pool: &WorkerPool, chunk: usize| {
            let chunks = split_chunks((0u64..1000).collect(), chunk);
            let out = pool.run_tasks(chunks, |i, mut c: Vec<u64>| {
                for v in c.iter_mut() {
                    *v = v.wrapping_mul(2654435761).rotate_left((i % 7) as u32);
                }
                c
            });
            out.into_iter().flatten().collect::<Vec<u64>>()
        };
        let seq_pool = WorkerPool::sequential();
        let seq = compute(&seq_pool, 64);
        for threads in [2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let par = compute(&pool, 64);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn results_come_back_in_task_order() {
        let pool = WorkerPool::new(4);
        // Tasks with index-dependent work: later-queued tasks finish first
        // under contention, but the result vector is index-ordered.
        let out = pool.run_tasks((0..64usize).collect(), |i, v| {
            assert_eq!(i, v);
            let mut acc = v as u64;
            for _ in 0..(64 - v) * 500 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (v, acc & 1)
        });
        for (i, (v, _)) in out.iter().enumerate() {
            assert_eq!(i, *v);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let chunks = split_chunks(vec![1u8; 257], 16);
        assert_eq!(chunks.len(), 17);
        let pool = WorkerPool::new(8);
        let c = Arc::clone(&counter);
        pool.run_tasks(chunks, move |_, chunk: Vec<u8>| {
            c.fetch_add(chunk.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(chunk_count(257, 16), 17);
        assert_eq!(chunk_count(0, 16), 0);
        assert_eq!(chunk_count(16, 16), 1);
        assert_eq!(chunk_count(17, 0), 17, "chunk size is clamped to 1");
        assert!(split_chunks(Vec::<u8>::new(), 4).is_empty());
        assert_eq!(
            split_chunks(vec![1, 2, 3], 0),
            vec![vec![1], vec![2], vec![3]]
        );
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(WorkerPool::new(0).threads() >= 1);
        assert_eq!(WorkerPool::sequential().threads(), 1);
        assert_eq!(WorkerPool::default().threads(), 1);
    }

    #[test]
    fn pool_spawns_workers_once_and_joins_them_on_drop() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.live_workers(), 3, "threads - 1 parked workers");
        // Two dispatches on the same workers: the census does not grow.
        for _ in 0..2 {
            let sum: u64 = pool
                .run_tasks((0..32u64).collect(), |_, v| v * 2)
                .into_iter()
                .sum();
            assert_eq!(sum, 2 * (31 * 32 / 2));
            assert_eq!(pool.live_workers(), 3);
        }
        // Drop signals shutdown and joins every worker before returning:
        // a leaked worker would keep `live` nonzero (and a stuck one would
        // hang the join, failing the test by timeout).
        let shared = Arc::clone(pool.shared.as_ref().unwrap());
        drop(pool);
        assert_eq!(
            shared.live.load(Ordering::SeqCst),
            0,
            "no worker survives drop"
        );
        assert_eq!(
            Arc::strong_count(&shared),
            1,
            "no worker still holds the pool state"
        );
    }

    #[test]
    fn sequential_pool_has_no_workers() {
        let pool = WorkerPool::sequential();
        assert_eq!(pool.live_workers(), 0);
        let out = pool.run_tasks(vec![1, 2, 3], |_, v: i32| v + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn task_panic_propagates_to_the_caller() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_tasks((0..16usize).collect(), |_, v| {
                assert!(v != 7, "boom");
                v
            })
        }));
        assert!(result.is_err(), "the task panic must resume on the caller");
        // The pool survives a panicked dispatch.
        let out = pool.run_tasks(vec![1u32, 2], |_, v| v);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn shared_context_is_reclaimable_after_dispatch() {
        // The pipeline's take/restore contract: every context Arc handed to
        // jobs is dropped by the time run_tasks returns.
        let pool = WorkerPool::new(4);
        let ctx = Arc::new(vec![1u64; 1024]);
        let ctx2 = Arc::clone(&ctx);
        let sums = pool.run_tasks((0..8usize).collect(), move |_, i| {
            ctx2.iter().sum::<u64>() + i as u64
        });
        assert_eq!(sums[0], 1024);
        let owned = Arc::try_unwrap(ctx).expect("no job still holds the context");
        assert_eq!(owned.len(), 1024);
    }

    #[test]
    fn merge_into_sorted_replays_item_order_per_key() {
        // Two shards, overlapping keys: deltas of key 7 combine in
        // (shard, insertion) order — 1.0 then 2.0 then 4.0.
        let mut acc: ShardAccounts<u32, f64> = ShardAccounts::new();
        acc.reset(2);
        acc.shards_mut()[0].extend([(7u32, 1.0f64), (3, 10.0), (7, 2.0)]);
        acc.shards_mut()[1].extend([(7, 4.0), (1, 0.5)]);
        assert_eq!(acc.len(), 5);
        let mut out: Vec<(u32, Vec<f64>)> = Vec::new();
        acc.merge_into_sorted(&mut out, Vec::new, |slot, v| slot.push(v));
        assert!(acc.is_empty());
        assert_eq!(
            out,
            vec![(1, vec![0.5]), (3, vec![10.0]), (7, vec![1.0, 2.0, 4.0]),]
        );
    }

    #[test]
    fn reset_keeps_allocations_and_clears_contents() {
        let mut acc: ShardAccounts<u32, u32> = ShardAccounts::new();
        acc.reset(3);
        acc.shards_mut()[2].push((1, 1));
        acc.reset(2);
        assert_eq!(acc.shards_mut().len(), 2);
        assert!(acc.is_empty());
        acc.reset(4);
        assert_eq!(acc.shards_mut().len(), 4);
    }

    /// Fills `acc` from `items` on `pool`, one shard per contiguous chunk,
    /// moving the shard buffers through the dispatch and back.
    fn fill_sharded(
        pool: &WorkerPool,
        acc: &mut ShardAccounts<u32, f64>,
        items: &[(u32, f64)],
        chunk_size: usize,
    ) {
        type Deltas = Vec<(u32, f64)>;
        let chunks = split_chunks(items.to_vec(), chunk_size);
        acc.reset(chunks.len());
        let tasks: Vec<(Deltas, Deltas)> = chunks
            .into_iter()
            .zip(acc.shards_mut().iter_mut().map(std::mem::take))
            .collect();
        let filled = pool.run_tasks(tasks, |_, (chunk, mut shard)| {
            shard.extend(chunk);
            shard
        });
        for (slot, shard) in acc.shards_mut().iter_mut().zip(filled) {
            *slot = shard;
        }
    }

    proptest! {
        /// The contract behind the pipeline's bitwise determinism: merging
        /// ShardAccounts filled from a chunk decomposition equals the
        /// sequential left fold over the items — for any chunk size and
        /// regardless of the order in which shards were filled (i.e. of
        /// which worker finished first).
        #[test]
        fn prop_sharded_merge_equals_sequential_fold(
            items in proptest::collection::vec((0u32..8, -1e3f64..1e3), 0..120),
            chunk_size in 1usize..40,
            fill_order_seed in 0u64..1000,
        ) {
            // Sequential reference: left fold in item order.
            let mut reference: Vec<(u32, f64)> = Vec::new();
            for &(k, v) in &items {
                match reference.binary_search_by(|(ok, _)| ok.cmp(&k)) {
                    Ok(p) => reference[p].1 += v,
                    Err(p) => reference.insert(p, (k, v)),
                }
            }
            // Sharded: contiguous chunks, filled in a permuted order.
            let chunks = chunk_count(items.len(), chunk_size);
            let mut acc: ShardAccounts<u32, f64> = ShardAccounts::new();
            acc.reset(chunks);
            let mut order: Vec<usize> = (0..chunks).collect();
            order.shuffle(&mut StdRng::seed_from_u64(fill_order_seed));
            for &shard in &order {
                let lo = shard * chunk_size;
                let hi = (lo + chunk_size).min(items.len());
                acc.shards_mut()[shard].extend(items[lo..hi].iter().copied());
            }
            let mut merged: Vec<(u32, f64)> = Vec::new();
            acc.merge_into_sorted(&mut merged, || 0.0, |slot, v| *slot += v);
            // Bitwise equality, not approximate: same fold order, same bits.
            prop_assert_eq!(reference.len(), merged.len());
            for (a, b) in reference.iter().zip(&merged) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }

        /// A pool **reused across many dispatches** accumulates exactly the
        /// same ShardAccounts merge as a fresh pool per dispatch: parked
        /// workers carry no state between dispatches that could leak into
        /// results.
        #[test]
        fn prop_reused_pool_matches_fresh_pool_per_dispatch(
            rounds in proptest::collection::vec(
                (proptest::collection::vec((0u32..6, -1e2f64..1e2), 1..60), 1usize..16),
                1..6,
            ),
        ) {
            let reused = WorkerPool::new(4);
            let mut acc_reused: ShardAccounts<u32, f64> = ShardAccounts::new();
            let mut acc_fresh: ShardAccounts<u32, f64> = ShardAccounts::new();
            let mut merged_reused: Vec<(u32, f64)> = Vec::new();
            let mut merged_fresh: Vec<(u32, f64)> = Vec::new();
            for (items, chunk_size) in &rounds {
                fill_sharded(&reused, &mut acc_reused, items, *chunk_size);
                acc_reused.merge_into_sorted(&mut merged_reused, || 0.0, |s, v| *s += v);
                let fresh = WorkerPool::new(4);
                fill_sharded(&fresh, &mut acc_fresh, items, *chunk_size);
                acc_fresh.merge_into_sorted(&mut merged_fresh, || 0.0, |s, v| *s += v);
                drop(fresh);
                prop_assert_eq!(merged_reused.len(), merged_fresh.len());
                for (a, b) in merged_reused.iter().zip(&merged_fresh) {
                    prop_assert_eq!(a.0, b.0);
                    prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
            prop_assert_eq!(reused.live_workers(), 3, "dispatches never leak workers");
        }
    }
}
