//! A std-only thread pool.
//!
//! No external crates (the testkit precedent): workers take tasks from one
//! shared FIFO queue and park on a condvar while it is empty.
//!
//! [`ThreadPool::run_all`] is the one entry point: it runs a batch of
//! independent tasks and returns their results in submission order. The
//! pipeline submits one task per sweep cell, which does the whole cell in
//! sequence. Panics inside tasks are caught, the lowest-index one is
//! re-raised to the caller of [`ThreadPool::run_all`] once the whole
//! batch finished, and they never wedge the pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    state: Mutex<State>,
    /// Signalled when tasks are queued or the pool shuts down.
    wakeup: Condvar,
}

struct State {
    queue: VecDeque<Task>,
    shutdown: bool,
}

/// The thread pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` workers; `0` selects the machine's
    /// available parallelism.
    #[must_use]
    pub fn new(threads: usize) -> ThreadPool {
        let threads = if threads == 0 {
            default_parallelism()
        } else {
            threads
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            wakeup: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("vericomp-pipeline-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs a batch of independent tasks to completion and returns their
    /// results in submission order.
    ///
    /// # Panics
    ///
    /// After every task finished, re-raises the panic of the lowest-index
    /// task that panicked.
    pub fn run_all<T: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        let n = tasks.len();
        let (done, results) = mpsc::channel();
        {
            let mut state = self.shared.state.lock().expect("pool state lock");
            for (i, task) in tasks.into_iter().enumerate() {
                let done = done.clone();
                // a panic is caught and sent like a result, so the waiter
                // always receives `n` messages
                state.queue.push_back(Box::new(move || {
                    let _ = done.send((i, catch_unwind(AssertUnwindSafe(task))));
                }));
            }
        }
        self.shared.wakeup.notify_all();
        drop(done);

        let mut slots: Vec<Option<thread::Result<T>>> = (0..n).map(|_| None).collect();
        for (i, result) in results.iter().take(n) {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| match slot.expect("every task sent its result") {
                Ok(value) => value,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        if let Ok(mut state) = self.shared.state.lock() {
            state.shutdown = true;
        }
        self.shared.wakeup.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn default_parallelism() -> usize {
    thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut state = shared.state.lock().expect("pool state lock");
            loop {
                if let Some(task) = state.queue.pop_front() {
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state = shared.wakeup.wait(state).expect("pool condvar wait");
            }
        };
        // run_all wraps every task in catch_unwind, so this never unwinds
        task();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_preserves_order_and_runs_everything() {
        let pool = ThreadPool::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64usize)
            .map(|i| Box::new(move || i * 2) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = pool.run_all(tasks);
        assert_eq!(out, (0..64usize).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = ThreadPool::new(1);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8u32)
            .map(|i| Box::new(move || i + 1) as Box<dyn FnOnce() -> u32 + Send>)
            .collect();
        assert_eq!(pool.run_all(tasks), (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate_without_wedging() {
        let pool = ThreadPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("first deliberate test panic")),
            Box::new(|| 3),
            Box::new(|| panic!("second deliberate test panic")),
        ];
        let payload =
            catch_unwind(AssertUnwindSafe(|| pool.run_all(tasks))).expect_err("a task panicked");
        // the lowest-index panic is the one re-raised, whatever finished first
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"first deliberate test panic")
        );
        // pool still usable afterwards
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 7)];
        assert_eq!(pool.run_all(tasks), vec![7]);
    }
}
