//! A persistent worker-pool executor shared by every parallel layer of
//! the workspace: the fleet's partition lanes and retry waves, the GA's
//! population evaluation, and the experiment engine's system sweeps.
//!
//! Before this module, each of those layers span up a fresh
//! [`std::thread::scope`] per call — one spawn/join cycle per fleet
//! *epoch*, per GA *generation*, per sweep *point*. At fleet-epoch rates
//! that is thousands of thread spawns per second of replay, all on the
//! hot path. [`WorkerPool`] replaces them with long-lived workers parked
//! on a [`Condvar`] behind a shared injector queue, in the style of
//! parallel multi-channel readout systems: lanes stay up, events stream
//! through.
//!
//! ## Execution model
//!
//! A pool executes *batches* of independent closures via
//! [`WorkerPool::run`] (or the order-preserving [`WorkerPool::map`] /
//! [`WorkerPool::map_chunks`] built on top). `run` submits every task to
//! the injector, then the **calling thread helps**: it drains its own
//! batch's tasks from the queue until none remain, and only then blocks
//! waiting for stragglers executing on other workers. This "help-first"
//! rule is what makes nesting safe: a task running *on* the pool may
//! itself call [`WorkerPool::run`] — the inner call makes progress on
//! the caller's own thread even when every worker is busy, so the pool
//! cannot deadlock however deep the nesting (sweep → fleet → lanes).
//!
//! ## Determinism
//!
//! The pool is an executor, not a scheduler of effects: every
//! composition in this workspace writes results back by index (or into
//! disjoint `&mut` chunks), so the outcome is bit-identical to running
//! the same closures sequentially — for any pool width, any requested
//! chunking width, and any interleaving. Parallelism changes wall-clock
//! time only. The fleet/GA determinism suites pin this end to end.
//!
//! ## Lifetimes and panics
//!
//! Tasks may borrow the caller's stack (they are `'scope`, not
//! `'static`): [`WorkerPool::run`] erases the lifetime internally and is
//! sound because it never returns — not even by unwinding — before every
//! submitted task has finished. A panicking task is caught on the worker,
//! carried back, and re-raised on the calling thread after the batch
//! drains, mirroring [`std::thread::scope`]'s behaviour.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A lifetime-erased queued closure. Soundness: see [`WorkerPool::run`].
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One entry of the injector queue: the batch it belongs to (so a
/// helping caller can pick out its own work) plus the closure.
struct QueuedJob {
    batch: usize,
    job: Job,
}

/// Injector state shared between the workers and submitting threads.
struct Injector {
    queue: Mutex<InjectorState>,
    /// Signalled when work arrives or the pool shuts down.
    work_ready: Condvar,
}

struct InjectorState {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
}

/// Completion latch of one [`WorkerPool::run`] batch.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new(remaining: usize) -> Arc<Latch> {
        Arc::new(Latch {
            state: Mutex::new(LatchState {
                remaining,
                panic: None,
            }),
            done: Condvar::new(),
        })
    }

    /// Marks one task finished, capturing the first panic payload.
    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.remaining -= 1;
        if state.panic.is_none() {
            state.panic = panic;
        }
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every task of the batch has completed, then re-raises
    /// the first captured panic, if any.
    fn wait(&self) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while state.remaining > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            resume_unwind(payload);
        }
    }
}

/// A persistent pool of worker threads executing batches of borrowed
/// closures. See the [module docs](self) for the execution model; most
/// callers want the process-wide [`WorkerPool::global`] instance.
pub struct WorkerPool {
    injector: Arc<Injector>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Monotonic batch ids so helping threads can identify their own
    /// queued work.
    next_batch: std::sync::atomic::AtomicUsize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// A pool of exactly `workers` long-lived threads (`0` = one per
    /// available core, see [`available_workers`]). A pool of width 1 is
    /// valid and still useful: batches run correctly (mostly on the
    /// calling thread, via helping), they just do not overlap.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let count = if workers == 0 {
            available_workers()
        } else {
            workers
        };
        let injector = Arc::new(Injector {
            queue: Mutex::new(InjectorState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (0..count)
            .map(|i| {
                let injector = Arc::clone(&injector);
                std::thread::Builder::new()
                    .name(format!("tagio-pool-{i}"))
                    .spawn(move || worker_loop(&injector))
                    .expect("spawning a pool worker")
            })
            .collect();
        WorkerPool {
            injector,
            workers,
            next_batch: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// The process-wide shared pool, created on first use with one
    /// worker per available core. Every parallel layer of the workspace
    /// (fleet lanes and retry waves, GA population evaluation, the
    /// experiment engine's sweeps) runs on this one instance, so nested
    /// compositions share a single set of long-lived threads instead of
    /// spawning per call.
    #[must_use]
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(0))
    }

    /// Runs a batch of independent closures to completion, helping from
    /// the calling thread. Tasks may borrow the caller's stack; `run`
    /// returns (or unwinds, re-raising the first task panic) only after
    /// every task has finished, which is what makes the internal
    /// lifetime erasure sound.
    ///
    /// Nesting is safe: a task may itself call `run` on the same pool —
    /// the inner call drains its own work inline when no worker is free
    /// (see the module docs for the no-deadlock argument).
    pub fn run<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.is_empty() {
            return;
        }
        if tasks.len() == 1 {
            // Nothing to overlap with: run inline, no queue round-trip.
            let mut tasks = tasks;
            (tasks.pop().expect("one task"))();
            return;
        }
        let batch = self
            .next_batch
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let latch = Latch::new(tasks.len());
        {
            let mut state = self
                .injector
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for task in tasks {
                let latch = Arc::clone(&latch);
                // The unwind trap wraps only the user closure; the latch
                // is signalled exactly once per task whether it ran on a
                // worker or on the helping caller.
                let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(task));
                    latch.complete(outcome.err());
                });
                // SAFETY: the job borrows data that outlives `'scope`.
                // `run` does not return or unwind before `latch.wait()`
                // observes every task complete, so no borrow escapes the
                // caller's frame. `Box<dyn FnOnce + Send>` has the same
                // layout for both lifetimes; only the bound is erased.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
                state.jobs.push_back(QueuedJob { batch, job });
            }
            drop(state);
            self.injector.work_ready.notify_all();
        }
        // Help-first: drain this batch's own jobs on the calling thread
        // until the queue holds none of them, then wait for stragglers
        // in flight on the workers. No new jobs of this batch can appear
        // after submission, so one drain loop suffices.
        loop {
            let own = {
                let mut state = self
                    .injector
                    .queue
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                take_batch_job(&mut state.jobs, batch)
            };
            match own {
                Some(job) => job(),
                None => break,
            }
        }
        latch.wait();
    }

    /// Maps `f` over `items` on the pool, preserving order: results are
    /// written back by index, so the output is identical to the serial
    /// `items.iter().map(f)` for any pool width (given a pure `f`).
    ///
    /// `width` is the *chunking* width — how many parallel tasks the
    /// input is split into — clamped to `[1, items.len()]`; `0` means
    /// one chunk per available core. The pool's worker count bounds how
    /// many chunks actually overlap; neither number affects the result.
    pub fn map<T, R, F>(&self, items: &[T], width: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let width = resolve_width(width).clamp(1, items.len());
        if width == 1 {
            return items.iter().map(f).collect();
        }
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        let chunk = items.len().div_ceil(width);
        let f = &f;
        self.map_chunks(
            out.chunks_mut(chunk)
                .zip(items.chunks(chunk))
                .map(|(slots, values)| {
                    move || {
                        for (slot, item) in slots.iter_mut().zip(values) {
                            *slot = Some(f(item));
                        }
                    }
                }),
        );
        out.into_iter()
            .map(|r| r.expect("all slots filled"))
            .collect()
    }

    /// Runs an iterator of independent closures (typically one per
    /// disjoint `&mut` chunk of some caller-owned state) to completion
    /// on the pool. The building block under [`WorkerPool::map`] and the
    /// fleet's lane/wave evaluation.
    pub fn map_chunks<'scope, F>(&self, chunks: impl Iterator<Item = F>)
    where
        F: FnOnce() + Send + 'scope,
    {
        let tasks: Vec<Box<dyn FnOnce() + Send + 'scope>> = chunks
            .map(|chunk| Box::new(chunk) as Box<dyn FnOnce() + Send + 'scope>)
            .collect();
        self.run(tasks);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self
                .injector
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.shutdown = true;
        }
        self.injector.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Removes one job belonging to `batch` from the queue, if any.
fn take_batch_job(jobs: &mut VecDeque<QueuedJob>, batch: usize) -> Option<Job> {
    let index = jobs.iter().position(|j| j.batch == batch)?;
    jobs.remove(index).map(|j| j.job)
}

fn worker_loop(injector: &Injector) {
    loop {
        let job = {
            let mut state = injector
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(queued) = state.jobs.pop_front() {
                    break Some(queued.job);
                }
                if state.shutdown {
                    break None;
                }
                state = injector
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match job {
            // The job wrapper traps unwinds itself, but a second trap
            // here keeps a worker alive even if a wrapper invariant is
            // ever broken — the pool must survive any payload.
            Some(job) => {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            None => return,
        }
    }
}

/// The worker count `0` resolves to, everywhere in the workspace: one
/// per available core, falling back to 1 when parallelism cannot be
/// queried. Every `threads: 0` knob (`--threads`, `GaConfig::threads`,
/// `FleetConfig::threads`) resolves through this single function so the
/// semantics cannot drift between layers.
///
/// The `TAGIO_POOL_WORKERS` environment variable, when set to a
/// positive integer, overrides the detected core count — the hook CI
/// uses to replay the determinism suites at a pinned pool width without
/// touching any code path (parallelism may only change wall-clock time,
/// so every suite must pass under any value). Unset, empty, zero and
/// non-numeric values all fall through to detection.
#[must_use]
pub fn available_workers() -> usize {
    if let Some(n) = std::env::var("TAGIO_POOL_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Resolves a requested chunking width: `0` = one per available core.
#[must_use]
pub fn resolve_width(width: usize) -> usize {
    if width == 0 {
        available_workers()
    } else {
        width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_matches_serial_for_any_width_and_pool_size() {
        let items: Vec<u64> = (0..197).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for pool_width in [1, 2, 4] {
            let pool = WorkerPool::new(pool_width);
            for width in [0, 1, 2, 5, 7, 196, 197, 1000] {
                assert_eq!(pool.map(&items, width, |x| x * 3 + 1), serial);
            }
        }
    }

    #[test]
    fn empty_and_single_inputs_take_the_inline_path() {
        let pool = WorkerPool::new(2);
        let empty: [u64; 0] = [];
        assert!(pool.map(&empty, 8, |x| *x).is_empty());
        assert_eq!(pool.map(&[7u64], 8, |x| x + 1), vec![8]);
        pool.run(Vec::new());
    }

    #[test]
    fn tasks_borrow_the_callers_stack() {
        let pool = WorkerPool::new(2);
        let mut slots = [0u64; 8];
        let chunk_len = 2;
        pool.map_chunks(slots.chunks_mut(chunk_len).enumerate().map(|(i, chunk)| {
            move || {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = (i * chunk_len + j) as u64 * 10;
                }
            }
        }));
        assert_eq!(slots, [0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        // Depth-2 nesting wider than the pool: every level must make
        // progress by helping from its own thread.
        let pool = WorkerPool::new(2);
        let outer: Vec<u64> = (0..8).collect();
        let result = pool.map(&outer, 8, |x| {
            let inner: Vec<u64> = (0..6).collect();
            pool.map(&inner, 6, |y| x * 100 + y).iter().sum::<u64>()
        });
        let expected: Vec<u64> = (0..8).map(|x| (0..6).map(|y| x * 100 + y).sum()).collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn global_pool_is_shared_and_reused() {
        let a = WorkerPool::global() as *const WorkerPool;
        let b = WorkerPool::global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(!WorkerPool::global().workers.is_empty());
        let items: Vec<u64> = (0..32).collect();
        let doubled = WorkerPool::global().map(&items, 4, |x| x * 2);
        assert_eq!(doubled, (0..32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn workers_persist_across_batches() {
        // The whole point of the pool: repeated batches reuse the same
        // threads instead of spawning. Count distinct worker identities
        // over many batches — they must stay within the pool width even
        // though far more batches than workers were run.
        let pool = WorkerPool::new(2);
        let seen = Mutex::new(std::collections::BTreeSet::new());
        for _ in 0..50 {
            let items: Vec<u64> = (0..4).collect();
            pool.map(&items, 4, |x| {
                if std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with("tagio-pool-"))
                {
                    seen.lock()
                        .unwrap()
                        .insert(format!("{:?}", std::thread::current().id()));
                }
                *x
            });
        }
        assert!(seen.lock().unwrap().len() <= 2, "workers were respawned");
    }

    #[test]
    fn a_panicking_task_propagates_after_the_batch_drains() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let items: Vec<u64> = (0..8).collect();
            pool.map(&items, 8, |x| {
                if *x == 3 {
                    panic!("boom");
                }
                completed.fetch_add(1, Ordering::SeqCst);
                *x
            });
        }));
        assert!(result.is_err(), "panic must reach the caller");
        // Every non-panicking task still ran (no early unwind while
        // borrows were live), and the pool stays usable afterwards.
        assert_eq!(completed.load(Ordering::SeqCst), 7);
        let items: Vec<u64> = (0..4).collect();
        assert_eq!(pool.map(&items, 2, |x| x + 1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn zero_resolves_to_available_cores_everywhere() {
        assert_eq!(resolve_width(0), available_workers());
        assert_eq!(resolve_width(3), 3);
        assert!(available_workers() >= 1);
        assert!(!WorkerPool::new(0).workers.is_empty());
    }

    /// Exercised in a subprocess: the env var is process-global, and the
    /// other tests in this binary run concurrently with width-0 pools.
    #[test]
    fn pool_workers_env_var_pins_the_detected_width() {
        if std::env::var_os("TAGIO_POOL_WORKERS_SUBTEST").is_some() {
            // Child: TAGIO_POOL_WORKERS is set by the parent below.
            assert_eq!(available_workers(), 3);
            assert_eq!(resolve_width(0), 3);
            return;
        }
        let this = std::env::current_exe().expect("test binary path");
        for (value, should_pin) in [("3", true), ("0", false), ("cores", false), (" 3 ", true)] {
            let out = std::process::Command::new(&this)
                .arg("pool::tests::pool_workers_env_var_pins_the_detected_width")
                .arg("--exact")
                .env("TAGIO_POOL_WORKERS", value)
                .env("TAGIO_POOL_WORKERS_SUBTEST", "1")
                .output()
                .expect("re-running the test binary");
            assert_eq!(
                out.status.success(),
                should_pin || available_workers() == 3,
                "TAGIO_POOL_WORKERS={value:?}: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
}
