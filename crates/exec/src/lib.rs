//! Deterministic fan-out for the epoch pipeline's plan passes.
//!
//! The offline build environment has no rayon; this crate provides the
//! small slice of it Skute needs, designed around one invariant: **results
//! never depend on the thread count or on worker scheduling**.
//!
//! [`WorkerPool`] is a thread *budget*, not a set of threads: every
//! [`WorkerPool::run_tasks`] call opens one [`std::thread::scope`], so
//! tasks and the task function may borrow from the caller's stack, and
//! nothing outlives the call.

use std::panic::resume_unwind;

/// A fork-join thread budget for [`WorkerPool::run_tasks`].
#[derive(Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A budget of `threads` workers per dispatch; `0` asks the OS for the
    /// available parallelism.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        Self { threads }
    }

    /// The resolved worker budget (≥ 1).
    #[cfg(test)]
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(task_index, task)` over `tasks` and returns the results **in
    /// task order** (never completion order). `f` must be order-independent
    /// across tasks (tasks never observe each other).
    ///
    /// The tasks split into `min(threads, tasks)` contiguous groups, one
    /// per worker; the caller is worker 0 and the others are scoped spawns
    /// joined before the call returns, so with a budget of one, or at most
    /// one task, everything runs on the caller's thread with no spawn and
    /// no synchronization.
    ///
    /// A task's panic resumes on the caller with the task's own payload
    /// (the first one in worker order) once every worker has been joined.
    /// Tasks only ever borrow, so what a panicking dispatch leaves behind
    /// is whatever its tasks had written so far — nothing is moved out of
    /// the caller for the duration of a dispatch.
    pub fn run_tasks<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = tasks.len();
        let workers = self.threads.min(n);
        let mut tasks = tasks.into_iter().enumerate();
        if workers <= 1 {
            return tasks.map(|(i, task)| f(i, task)).collect();
        }
        let run = |group: Vec<(usize, T)>| -> Vec<R> {
            group.into_iter().map(|(i, task)| f(i, task)).collect()
        };
        // Worker `w` takes tasks `[n·w / workers, n·(w + 1) / workers)`.
        let mut group = |w: usize| -> Vec<(usize, T)> {
            let len = n * (w + 1) / workers - n * w / workers;
            tasks.by_ref().take(len).collect()
        };
        std::thread::scope(|scope| {
            let mine = group(0);
            let run = &run;
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    let theirs = group(w);
                    scope.spawn(move || run(theirs))
                })
                .collect();
            // A panic here unwinds through the scope, which joins the
            // spawned workers and resumes this payload.
            let mut results = run(mine);
            results.reserve_exact(n - results.len());
            let mut panicked = None;
            for handle in handles {
                match handle.join() {
                    Ok(theirs) => results.extend(theirs),
                    Err(payload) => {
                        panicked.get_or_insert(payload);
                    }
                }
            }
            match panicked {
                Some(payload) => resume_unwind(payload),
                None => results,
            }
        })
    }
}

impl Default for WorkerPool {
    /// A budget of one: every dispatch runs on the caller's thread.
    fn default() -> Self {
        Self::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn borrowed_chunks_match_the_sequential_map_at_every_budget() {
        // Tasks are `&mut` chunks of a stack vector and `f` reads a
        // stack-local slice: neither is `'static`.
        let salt: Vec<u64> = (0..7).map(|i| 0x9E37_79B9 + i).collect();
        let salt = &salt[..];
        let mix = |i: usize, v: u64| v.wrapping_mul(2654435761) ^ salt[i % salt.len()];
        let expected: Vec<u64> = (0u64..1000)
            .enumerate()
            .map(|(k, v)| mix(k / 64, v))
            .collect();
        for threads in [1, 2, 3, 8] {
            let mut data: Vec<u64> = (0..1000).collect();
            let lens = WorkerPool::new(threads).run_tasks(
                data.chunks_mut(64).collect(),
                |i, chunk: &mut [u64]| {
                    for v in chunk.iter_mut() {
                        *v = mix(i, *v);
                    }
                    chunk.len()
                },
            );
            assert_eq!(data, expected, "threads = {threads}");
            assert_eq!(lens.iter().sum::<usize>(), 1000);
            assert_eq!(lens.len(), 16);
        }
    }

    #[test]
    fn results_come_back_in_task_order() {
        // Index-dependent work: early tasks take longest, so workers
        // finish out of order, but the result vector is index-ordered.
        let out = WorkerPool::new(4).run_tasks((0..64usize).collect(), |i, v| {
            assert_eq!(i, v);
            let mut acc = v as u64;
            for _ in 0..(64 - v) * 500 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (v, acc & 1)
        });
        assert_eq!(out.len(), 64);
        for (i, (v, _)) in out.iter().enumerate() {
            assert_eq!(i, *v);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        // More tasks than threads (uneven groups) and more threads than
        // tasks (one task per worker).
        for (threads, tasks) in [(3, 16), (8, 17), (8, 3), (2, 2), (4, 1), (4, 0)] {
            let runs: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            let out = WorkerPool::new(threads).run_tasks((0..tasks).collect(), |i, t: usize| {
                runs[t].fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(out, (0..tasks).collect::<Vec<_>>());
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "threads = {threads}, tasks = {tasks}"
            );
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(WorkerPool::new(0).threads() >= 1);
        assert_eq!(WorkerPool::new(5).threads(), 5);
        assert_eq!(WorkerPool::default().threads(), 1);
    }

    #[test]
    fn one_thread_or_one_task_stays_on_the_caller() {
        let caller = std::thread::current().id();
        let on = |threads: usize, tasks: usize| {
            WorkerPool::new(threads).run_tasks(vec![(); tasks], |_, ()| std::thread::current().id())
        };
        assert_eq!(on(1, 9), vec![caller; 9]);
        assert_eq!(on(8, 1), vec![caller]);
        assert!(on(8, 0).is_empty());
        // Worker 0 of a real fan-out is the caller too; the rest are not.
        let fanned = on(2, 2);
        assert_eq!(fanned[0], caller);
        assert_ne!(fanned[1], caller);
    }

    #[test]
    fn task_panic_reaches_the_caller_with_its_payload() {
        let pool = WorkerPool::new(4);
        // Task 13 runs on a spawned worker, task 0 on the caller.
        for bad in [13usize, 0] {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                pool.run_tasks((0..16usize).collect(), |_, v| {
                    if v == bad {
                        panic!("boom");
                    }
                    v
                })
            }))
            .expect_err("the task panic must resume on the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        }
        // The budget dispatches again afterwards.
        assert_eq!(pool.run_tasks(vec![1u32, 2], |_, v| v), vec![1, 2]);
    }
}
