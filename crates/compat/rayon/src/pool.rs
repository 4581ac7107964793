//! The work-stealing thread pool.
//!
//! Architecture: a pool owns `threads − 1` OS worker threads (the
//! caller of a parallel operation is always the `threads`-th
//! participant) and a **global injector** — a mutex-protected FIFO of
//! type-erased jobs that workers block on. Data-parallel operations do
//! not queue one job per item; instead a *drive* publishes a single
//! shared chunk counter and enough job handles to invite the workers,
//! and every participant (caller included) **steals chunks** from that
//! counter with a lock-free `fetch_add` until the range is exhausted.
//! This "injector + cooperative chunk stealing" scheme gives the
//! load-balancing benefit of per-worker deques for the regular
//! iteration spaces this workspace parallelizes, with no allocation
//! per task and no unbounded queues.
//!
//! Determinism: chunk boundaries depend only on the *length* of the
//! iteration space (never on the thread count — see [`chunking`]), and
//! per-chunk partial results are always combined in chunk order, so
//! every parallel result — including floating-point reductions — is
//! bit-identical across thread counts, including `threads = 1`.
//!
//! Panic policy: a panic inside any task is caught on the executing
//! worker, the operation is cancelled (no further chunks are dealt),
//! and the payload is re-thrown on the calling thread once every
//! in-flight participant has retired — matching rayon's contract.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// A queued unit of work. `run` is invoked at most once per queue
/// entry; shared state (chunk counters, result slots) lives behind the
/// `Arc` so multiple entries may cooperate on one logical operation.
trait Job: Send + Sync {
    fn run(self: Arc<Self>);
}

/// Erases the borrow lifetime of a job so it can sit in the 'static
/// injector queue.
///
/// # Safety
/// The caller must not return (releasing the borrows the job captures)
/// until the job is *resolved*: either executed to completion, or
/// marked expired/claimed such that any later `run` is a no-op that
/// never dereferences the borrowed data.
unsafe fn erase_job<'a>(job: Arc<dyn Job + 'a>) -> Arc<dyn Job + 'static> {
    std::mem::transmute(job)
}

// ---------------------------------------------------------------------------
// Registry: the shared core of a pool (injector queue + worker parking).
// ---------------------------------------------------------------------------

struct Registry {
    queue: Mutex<QueueState>,
    /// Workers park here when the injector is empty.
    work_cv: Condvar,
    /// Logical parallelism: worker threads + the calling thread.
    threads: usize,
}

struct QueueState {
    jobs: VecDeque<Arc<dyn Job>>,
    shutdown: bool,
}

impl Registry {
    fn new(threads: usize) -> Self {
        Self {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            threads,
        }
    }

    fn push(&self, job: Arc<dyn Job>) {
        self.queue.lock().unwrap().jobs.push_back(job);
        self.work_cv.notify_one();
    }

    /// Enqueues `n` handles to the same cooperative job.
    fn push_copies(&self, job: &Arc<dyn Job>, n: usize) {
        if n == 0 {
            return;
        }
        let mut q = self.queue.lock().unwrap();
        for _ in 0..n {
            q.jobs.push_back(Arc::clone(job));
        }
        drop(q);
        self.work_cv.notify_all();
    }

    fn try_pop(&self) -> Option<Arc<dyn Job>> {
        self.queue.lock().unwrap().jobs.pop_front()
    }

    /// Worker main loop: drain the injector, park when it is empty,
    /// exit once shut down *and* drained.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(j) = q.jobs.pop_front() {
                        break Some(j);
                    }
                    if q.shutdown {
                        break None;
                    }
                    q = self.work_cv.wait(q).unwrap();
                }
            };
            match job {
                Some(j) => j.run(),
                None => return,
            }
        }
    }
}

thread_local! {
    /// The pool the current thread belongs to (worker threads) or has
    /// `install`ed (caller threads). `None` ⇒ the global pool.
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

fn current_registry() -> Arc<Registry> {
    CURRENT.with(|c| c.borrow().clone()).unwrap_or_else(|| {
        Arc::clone(
            &GLOBAL
                .get_or_init(|| ThreadPool::new(default_thread_count()))
                .registry,
        )
    })
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// Parses a `RAYON_NUM_THREADS`-style value: a positive integer wins,
/// anything else (including `0`, rayon's "use the default") is ignored.
fn parse_thread_env(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// The default pool size: `RAYON_NUM_THREADS` if set to a positive
/// integer, otherwise the hardware parallelism.
pub fn default_thread_count() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .as_deref()
        .and_then(parse_thread_env)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Number of logical threads in the current (installed or global) pool.
pub fn current_num_threads() -> usize {
    current_registry().threads
}

// ---------------------------------------------------------------------------
// ThreadPool + builder.
// ---------------------------------------------------------------------------

/// Error from [`ThreadPoolBuilder::build`].
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    msg: &'static str,
}

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.msg)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builds [`ThreadPool`]s; mirrors rayon's builder surface.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the logical thread count; `0` (the default) means
    /// `RAYON_NUM_THREADS` / hardware parallelism.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    fn resolve(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            default_thread_count()
        }
    }

    /// Builds a standalone pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool::new(self.resolve()))
    }
}

/// A work-stealing thread pool (see the module docs for the scheme).
pub struct ThreadPool {
    registry: Arc<Registry>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.registry.threads)
            .finish()
    }
}

impl ThreadPool {
    fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let registry = Arc::new(Registry::new(threads));
        let handles = (0..threads - 1)
            .map(|i| {
                let reg = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("shim-rayon-{i}"))
                    .spawn(move || {
                        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&reg)));
                        reg.worker_loop();
                    })
                    .expect("shim-rayon: failed to spawn worker thread")
            })
            .collect();
        Self { registry, handles }
    }

    /// Logical parallelism of this pool.
    pub fn current_num_threads(&self) -> usize {
        self.registry.threads
    }

    /// Runs `f` with this pool as the current pool: every parallel
    /// operation inside (including nested ones) executes here.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<Registry>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.registry)));
        let _restore = Restore(prev);
        f()
    }

    /// [`join`] on this pool.
    pub fn join<A, B, RA, RB>(&self, oper_a: A, oper_b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        self.install(|| join(oper_a, oper_b))
    }

    /// [`scope`] on this pool.
    pub fn scope<'scope, OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R + Send,
        R: Send,
    {
        self.install(|| scope(op))
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.queue.lock().unwrap().shutdown = true;
        self.registry.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Chunked drives: the engine under every parallel iterator.
// ---------------------------------------------------------------------------

/// Upper bound on chunks per drive; plenty for any realistic thread
/// count while keeping the dealing overhead to a few hundred atomic
/// increments.
const MAX_CHUNKS: usize = 256;

/// Length-only chunk policy: `(n_chunks, chunk_size)`. Independent of
/// the thread count so that per-chunk partial results combined in
/// chunk order are deterministic for a given input length.
pub fn chunking(len: usize) -> (usize, usize) {
    if len == 0 {
        return (0, 1);
    }
    let chunk = len.div_ceil(len.min(MAX_CHUNKS));
    (len.div_ceil(chunk), chunk)
}

/// Type-erased chunk body pointer (`'static`-laundered; guarded by the
/// expiry protocol in [`run_chunked`]).
struct BodyPtr(*const (dyn Fn(usize, Range<usize>) + Sync));
// SAFETY: the pointee is `Sync` and outlives every dereference — workers
// check the drive's expiry under its lock before touching the pointer,
// and `run_chunked` only returns once `active == 0`.
unsafe impl Send for BodyPtr {}
// SAFETY: same expiry protocol as `Send` above; shared access is to a
// `Sync` closure.
unsafe impl Sync for BodyPtr {}

struct DriveState {
    /// Workers currently inside [`drive_help`] for this drive.
    active: usize,
    /// Chunks fully processed.
    completed: usize,
    /// First panic payload from any chunk.
    panic: Option<PanicPayload>,
    /// Set by the caller once the drive is over; late-popped job
    /// handles must not touch `body` after this.
    expired: bool,
}

struct DriveShared {
    state: Mutex<DriveState>,
    cv: Condvar,
    /// Next chunk to deal (lock-free).
    next: AtomicUsize,
    n_chunks: usize,
    chunk: usize,
    len: usize,
    body: BodyPtr,
}

struct DriveJob {
    shared: Arc<DriveShared>,
}

impl Job for DriveJob {
    fn run(self: Arc<Self>) {
        let d = &self.shared;
        {
            let mut st = d.state.lock().unwrap();
            if st.expired {
                return;
            }
            st.active += 1;
        }
        drive_help(d);
        let mut st = d.state.lock().unwrap();
        st.active -= 1;
        drop(st);
        d.cv.notify_all();
    }
}

/// Steals and executes chunks until the counter is exhausted (or a
/// panic cancels the drive). Runs on workers *and* the caller.
fn drive_help(d: &DriveShared) {
    loop {
        let c = d.next.fetch_add(1, Ordering::Relaxed);
        if c >= d.n_chunks {
            return;
        }
        let start = c * d.chunk;
        let end = (start + d.chunk).min(d.len);
        // Safety: `expired` is false while any participant is inside
        // this loop (workers register in `active` first; the caller
        // only expires after `active == 0`), so the borrow is live.
        let body = unsafe { &*d.body.0 };
        let result = catch_unwind(AssertUnwindSafe(|| body(c, start..end)));
        let mut st = d.state.lock().unwrap();
        match result {
            Ok(()) => st.completed += 1,
            Err(p) => {
                if st.panic.is_none() {
                    st.panic = Some(p);
                }
                // Cancel: stop dealing the remaining chunks.
                d.next.fetch_max(d.n_chunks, Ordering::Relaxed);
                st.completed += 1;
            }
        }
        let finished = st.completed;
        let cancelled = st.panic.is_some();
        drop(st);
        if finished == d.n_chunks || cancelled {
            d.cv.notify_all();
        }
    }
}

/// Runs `body(chunk_index, item_range)` over `0..len`, split by
/// [`chunking`], across the current pool. Blocks until every chunk
/// either ran or was cancelled by a panic, then propagates the first
/// panic. With one logical thread (or a single chunk) the chunks run
/// inline on the caller — same chunk structure, same results.
pub fn run_chunked(len: usize, body: &(dyn Fn(usize, Range<usize>) + Sync)) {
    let (n_chunks, chunk) = chunking(len);
    if n_chunks == 0 {
        return;
    }
    let reg = current_registry();
    let helpers = reg.threads.saturating_sub(1).min(n_chunks - 1);
    if helpers == 0 {
        for c in 0..n_chunks {
            let start = c * chunk;
            body(c, start..(start + chunk).min(len));
        }
        return;
    }

    let body_static: &'static (dyn Fn(usize, Range<usize>) + Sync) =
        // SAFETY: the lifetime launder is sound because this function
        // does not return until `active == 0` and the drive is marked
        // expired, so no worker can dereference `body` after the
        // borrow ends.
        unsafe { std::mem::transmute(body) };
    let shared = Arc::new(DriveShared {
        state: Mutex::new(DriveState {
            active: 0,
            completed: 0,
            panic: None,
            expired: false,
        }),
        cv: Condvar::new(),
        next: AtomicUsize::new(0),
        n_chunks,
        chunk,
        len,
        body: BodyPtr(body_static as *const _),
    });
    let job: Arc<dyn Job> = Arc::new(DriveJob {
        shared: Arc::clone(&shared),
    });
    reg.push_copies(&job, helpers);

    drive_help(&shared);

    let mut st = shared.state.lock().unwrap();
    while !(st.active == 0 && (st.completed == n_chunks || st.panic.is_some())) {
        st = shared.cv.wait(st).unwrap();
    }
    st.expired = true;
    let panic = st.panic.take();
    drop(st);
    if let Some(p) = panic {
        resume_unwind(p);
    }
}

// ---------------------------------------------------------------------------
// join
// ---------------------------------------------------------------------------

struct JoinState<B, RB> {
    /// `Some` until a worker (or the reclaiming caller) takes it.
    func: Option<B>,
    result: Option<std::thread::Result<RB>>,
}

struct JoinJob<B, RB> {
    state: Mutex<JoinState<B, RB>>,
    cv: Condvar,
}

impl<B, RB> Job for JoinJob<B, RB>
where
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    fn run(self: Arc<Self>) {
        let func = self.state.lock().unwrap().func.take();
        if let Some(f) = func {
            let r = catch_unwind(AssertUnwindSafe(f));
            self.state.lock().unwrap().result = Some(r);
            self.cv.notify_all();
        }
    }
}

/// Runs both closures, potentially in parallel, and returns both
/// results. `oper_b` is offered to the pool; the caller runs `oper_a`
/// inline and then either *reclaims* `oper_b` (if no worker picked it
/// up — so `join` never waits on a saturated queue) or waits for the
/// worker to finish it. Panics in either closure propagate to the
/// caller, `oper_a`'s taking precedence.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let reg = current_registry();
    if reg.threads <= 1 {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    }

    let job = Arc::new(JoinJob {
        state: Mutex::new(JoinState {
            func: Some(oper_b),
            result: None,
        }),
        cv: Condvar::new(),
    });
    // Safety: resolved before return — the caller below either
    // reclaims `func` or waits for `result`; after that the queued
    // handle's `run` is a no-op on `None`.
    reg.push(unsafe { erase_job(Arc::clone(&job) as Arc<dyn Job + '_>) });

    let ra = catch_unwind(AssertUnwindSafe(oper_a));

    let rb = {
        let mut st = job.state.lock().unwrap();
        if let Some(f) = st.func.take() {
            drop(st);
            catch_unwind(AssertUnwindSafe(f))
        } else {
            while st.result.is_none() {
                st = job.cv.wait(st).unwrap();
            }
            st.result.take().unwrap()
        }
    };

    match (ra, rb) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(p), _) => resume_unwind(p),
        (Ok(_), Err(p)) => resume_unwind(p),
    }
}

// ---------------------------------------------------------------------------
// scope
// ---------------------------------------------------------------------------

struct ScopeShared {
    registry: Arc<Registry>,
    state: Mutex<ScopeState>,
    cv: Condvar,
}

struct ScopeState {
    pending: usize,
    panic: Option<PanicPayload>,
}

/// A fork-join scope: tasks spawned on it may borrow anything that
/// outlives `'scope`; [`scope`] does not return until all of them
/// completed.
pub struct Scope<'scope> {
    shared: Arc<ScopeShared>,
    _marker: std::marker::PhantomData<fn(&'scope ()) -> &'scope ()>,
}

struct SpawnJob {
    task: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    scope: Arc<ScopeShared>,
}

impl Job for SpawnJob {
    fn run(self: Arc<Self>) {
        let task = self.task.lock().unwrap().take();
        if let Some(t) = task {
            let r = catch_unwind(AssertUnwindSafe(t));
            let mut st = self.scope.state.lock().unwrap();
            if let Err(p) = r {
                if st.panic.is_none() {
                    st.panic = Some(p);
                }
            }
            st.pending -= 1;
            drop(st);
            self.scope.cv.notify_all();
        }
    }
}

impl<'scope> Scope<'scope> {
    /// Spawns a task onto the pool. On a single-thread pool the task
    /// runs immediately, inline.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        let shared = Arc::clone(&self.shared);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let inner = Scope {
                shared: Arc::clone(&shared),
                _marker: std::marker::PhantomData,
            };
            body(&inner);
        });
        if self.shared.registry.threads <= 1 {
            // No workers: run inline (the scope lifetime is live here).
            task();
            return;
        }
        self.shared.state.lock().unwrap().pending += 1;
        // Safety: `scope()` blocks until `pending == 0`, i.e. until
        // this boxed task (whose captures live at least `'scope`) has
        // been executed; a queued handle left behind afterwards holds
        // only a `None` slot.
        let task_static: Box<dyn FnOnce() + Send> = unsafe { std::mem::transmute(task) };
        let job = Arc::new(SpawnJob {
            task: Mutex::new(Some(task_static)),
            scope: Arc::clone(&self.shared),
        });
        self.shared.registry.push(job);
    }
}

/// Creates a scope in the current pool, runs `op` in it, and waits for
/// every spawned task. While waiting, the caller helps drain the
/// injector queue. Panics from `op` or any task are propagated (`op`'s
/// first).
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let reg = current_registry();
    let shared = Arc::new(ScopeShared {
        registry: Arc::clone(&reg),
        state: Mutex::new(ScopeState {
            pending: 0,
            panic: None,
        }),
        cv: Condvar::new(),
    });
    let s = Scope {
        shared: Arc::clone(&shared),
        _marker: std::marker::PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| op(&s)));

    // Wait for spawned tasks, lending a hand to the queue meanwhile.
    loop {
        if shared.state.lock().unwrap().pending == 0 {
            break;
        }
        if let Some(job) = reg.try_pop() {
            job.run();
            continue;
        }
        let st = shared.state.lock().unwrap();
        if st.pending == 0 {
            break;
        }
        // Re-checked under the lock, so a completion between the
        // `try_pop` and here cannot be missed.
        let _unused = shared.cv.wait(st).unwrap();
    }

    let task_panic = shared.state.lock().unwrap().panic.take();
    match result {
        Err(p) => resume_unwind(p),
        Ok(r) => {
            if let Some(p) = task_panic {
                resume_unwind(p);
            }
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunking_is_length_only_and_covers() {
        for len in [0usize, 1, 2, 7, 255, 256, 257, 1000, 100_000] {
            let (n, c) = chunking(len);
            if len == 0 {
                assert_eq!(n, 0);
                continue;
            }
            assert!(n <= MAX_CHUNKS);
            assert!((n - 1) * c < len && n * c >= len, "len={len} n={n} c={c}");
        }
    }

    #[test]
    fn run_chunked_visits_every_index_once() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            let len = 10_000;
            let hits: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
            run_chunked(len, &|_, range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn run_chunked_propagates_panic() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                run_chunked(1000, &|_, range| {
                    if range.contains(&500) {
                        panic!("boom at 500");
                    }
                });
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom at 500");
    }

    #[test]
    fn join_runs_both_and_nests() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(pool.install(|| fib(16)), 987);
    }

    #[test]
    fn join_propagates_b_panic() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| join(|| 1 + 1, || -> u32 { panic!("b failed") }))
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn scope_completes_all_spawns() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let count = AtomicUsize::new(0);
        pool.install(|| {
            scope(|s| {
                for _ in 0..64 {
                    s.spawn(|s2| {
                        count.fetch_add(1, Ordering::Relaxed);
                        s2.spawn(|_| {
                            count.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                }
            })
        });
        assert_eq!(count.load(Ordering::Relaxed), 128);
    }

    #[test]
    fn scope_propagates_task_panic() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| scope(|s| s.spawn(|_| panic!("task died"))))
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        assert_eq!(pool.current_num_threads(), 1);
        pool.install(|| {
            let (a, b) = join(|| 2, || 3);
            assert_eq!(a + b, 5);
            let n = AtomicUsize::new(0);
            scope(|s| {
                s.spawn(|_| {
                    n.fetch_add(1, Ordering::Relaxed);
                })
            });
            assert_eq!(n.load(Ordering::Relaxed), 1);
        });
    }

    #[test]
    fn install_sets_current_num_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 5);
    }

    #[test]
    fn env_parse_rules() {
        assert_eq!(parse_thread_env("4"), Some(4));
        assert_eq!(parse_thread_env(" 8 "), Some(8));
        assert_eq!(parse_thread_env("0"), None);
        assert_eq!(parse_thread_env("lots"), None);
    }

    #[test]
    fn pool_drop_joins_workers_cleanly() {
        for _ in 0..10 {
            let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
            pool.install(|| {
                run_chunked(100, &|_, _range| {});
            });
            drop(pool);
        }
    }
}
