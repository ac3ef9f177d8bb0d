//! The traced pass's instruments, all benchmark-side:
//!
//! * [`TimedCost`] — a [`CostModel`] wrapper that forwards every hook to
//!   the wrapped model and charges the host time since the previous hook
//!   to that hook's role, building a per-layer ledger of the discrete
//!   engine without touching `engine.rs`;
//! * [`timed_recompiler`] — a [`Recompiler`] wrapper timing the time
//!   spent inside the recompiler closure;
//! * [`CountingAlloc`] — a global allocator that counts allocations while
//!   [`ArmedAllocCounter`] is held.
//!
//! [`active`] says whether any of them is live; the end-to-end pass
//! asserts it is not before every timed run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mssp_core::{CoreRole, CostModel, Recompiler};
use mssp_machine::StepInfo;

/// Live [`TimedCost`]s and timed recompilers.
static LIVE_INSTRUMENTS: AtomicUsize = AtomicUsize::new(0);
/// Whether [`CountingAlloc`] is counting.
static ALLOC_ARMED: AtomicBool = AtomicBool::new(false);
/// Allocations counted while armed.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Hooks served by every [`TimedCost`] dropped so far.
static HOOKS_SERVED: AtomicU64 = AtomicU64::new(0);

/// Whether any traced-pass instrument is live: a [`TimedCost`], a timed
/// recompiler, or an armed allocation counter.
#[must_use]
pub fn active() -> bool {
    // why: Relaxed — plain flags and counters, publishing no other data.
    ALLOC_ARMED.load(Ordering::Relaxed) || LIVE_INSTRUMENTS.load(Ordering::Relaxed) > 0
}

/// Allocations counted while armed, process-wide, since start.
#[must_use]
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Cost-model hooks served by every dropped [`TimedCost`], since start.
#[must_use]
pub fn hooks_served() -> u64 {
    HOOKS_SERVED.load(Ordering::Relaxed)
}

/// Registers a live instrument for [`active`] until dropped.
#[derive(Debug)]
struct Live;

impl Live {
    fn new() -> Live {
        LIVE_INSTRUMENTS.fetch_add(1, Ordering::Relaxed);
        Live
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        LIVE_INSTRUMENTS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A global allocator forwarding to [`System`] that counts `alloc`,
/// `alloc_zeroed` and `realloc` calls from every thread while an
/// [`ArmedAllocCounter`] exists. Disarmed it costs one relaxed load per
/// allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

fn count_allocation() {
    if ALLOC_ARMED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards unchanged arguments to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Counts allocations (if [`CountingAlloc`] is the global allocator)
/// until dropped.
#[derive(Debug)]
pub struct ArmedAllocCounter {
    start: u64,
}

impl ArmedAllocCounter {
    /// Starts counting.
    ///
    /// # Panics
    ///
    /// Panics if a counter is already armed (counts would overlap).
    #[must_use]
    pub fn arm() -> ArmedAllocCounter {
        let was = ALLOC_ARMED.swap(true, Ordering::Relaxed);
        assert!(!was, "allocation counter armed twice");
        ArmedAllocCounter {
            start: allocations(),
        }
    }

    /// Allocations counted since [`ArmedAllocCounter::arm`].
    #[must_use]
    pub fn count(&self) -> u64 {
        allocations() - self.start
    }
}

impl Drop for ArmedAllocCounter {
    fn drop(&mut self) {
        ALLOC_ARMED.store(false, Ordering::Relaxed);
    }
}

/// Whether [`CountingAlloc`] is this process's global allocator.
#[must_use]
pub fn counting_alloc_installed() -> bool {
    let armed = ArmedAllocCounter::arm();
    drop(std::hint::black_box(Box::new(0_u64)));
    armed.count() > 0
}

/// Host time charged to one role, and how many events it covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Nanoseconds charged.
    pub ns: u64,
    /// Events (instructions, tasks, squashes) the time covers.
    pub events: u64,
}

impl Bucket {
    /// Nanoseconds per event; `0` if there was none.
    #[must_use]
    pub fn ns_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.ns as f64 / self.events as f64
        }
    }

    fn add(&mut self, other: Bucket) {
        self.ns += other.ns;
        self.events += other.events;
    }
}

/// The discrete engine's host time, split by the cost hook that ended
/// each stretch. Every step, spawn, verify and commit of `engine.rs`
/// passes through a hook, so the stretch before a hook is the work that
/// hook accounts for (plus any idle polling since the previous hook).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Master steps of the distilled program (`instr_cost(Master)`).
    pub master: Bucket,
    /// Slave steps of speculative tasks (`instr_cost(Slave)`).
    pub slave: Bucket,
    /// Sequential recovery steps (`instr_cost(Recovery)`).
    pub recovery: Bucket,
    /// Spawns: checkpoint and task creation (`dispatch_latency` plus
    /// `spawn_overhead`; events count spawns).
    pub spawn: Bucket,
    /// Verify and commit application (`verify_cost`; events count
    /// committed tasks). `verify_and_commit` applies the commit before
    /// the hook, so commit application lands here.
    pub verify: Bucket,
    /// Commit bookkeeping between `verify_cost` and `commit_cost`.
    pub commit: Bucket,
    /// Squash detection and flush (`squash_penalty`, `on_squash`;
    /// events count squashes).
    pub squash: Bucket,
    /// Time inside the wrapped model's hooks (the cost model itself).
    pub cost_model_ns: u64,
    /// Hooks served.
    pub hooks: u64,
}

impl Ledger {
    /// Adds another run's ledger into this one.
    pub fn add(&mut self, other: &Ledger) {
        self.master.add(other.master);
        self.slave.add(other.slave);
        self.recovery.add(other.recovery);
        self.spawn.add(other.spawn);
        self.verify.add(other.verify);
        self.commit.add(other.commit);
        self.squash.add(other.squash);
        self.cost_model_ns += other.cost_model_ns;
        self.hooks += other.hooks;
    }
}

/// Time spent inside a [`timed_recompiler`]: the running total, and the
/// part no [`TimedCost`] has subtracted from its ledger yet.
#[derive(Debug, Default)]
pub struct RecompileClock {
    total_ns: AtomicU64,
    unclaimed_ns: AtomicU64,
}

impl RecompileClock {
    /// Total nanoseconds spent recompiling.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }
}

/// Wraps a recompiler so the time spent inside it accrues to `clock`.
#[must_use]
pub fn timed_recompiler(mut inner: Recompiler, clock: Arc<RecompileClock>) -> Recompiler {
    let live = Live::new();
    Box::new(move |profile, tier| {
        let _live = &live;
        let t = Instant::now();
        let out = inner(profile, tier);
        let ns = nanos(t.elapsed());
        clock.total_ns.fetch_add(ns, Ordering::Relaxed);
        clock.unclaimed_ns.fetch_add(ns, Ordering::Relaxed);
        out
    })
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Which bucket a hook charges, and whether it counts an event.
#[derive(Clone, Copy)]
enum Charge {
    Role(CoreRole),
    Dispatch,
    Spawn,
    Verify,
    Commit,
    SquashPenalty,
    SquashFlush,
}

/// A [`CostModel`] that forwards to `C` and keeps a [`Ledger`].
///
/// Costs returned are exactly the wrapped model's, so cycles and every
/// engine statistic match an unwrapped run (the `cost_identity` test
/// checks this on every workload).
#[derive(Debug)]
pub struct TimedCost<C> {
    inner: C,
    last: Instant,
    recompiles: Option<Arc<RecompileClock>>,
    ledger: Ledger,
    _live: Live,
}

impl<C: CostModel> TimedCost<C> {
    /// Wraps `inner`; the clock starts now.
    #[must_use]
    pub fn new(inner: C) -> TimedCost<C> {
        TimedCost {
            inner,
            last: Instant::now(),
            recompiles: None,
            ledger: Ledger::default(),
            _live: Live::new(),
        }
    }

    /// Keeps time spent in a synchronous recompiler (which runs between
    /// hooks) out of the ledger.
    #[must_use]
    pub fn excluding(mut self, clock: Arc<RecompileClock>) -> TimedCost<C> {
        self.recompiles = Some(clock);
        self
    }

    /// The ledger so far.
    #[must_use]
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn charge<R>(&mut self, what: Charge, forward: impl FnOnce(&mut C) -> R) -> R {
        let start = Instant::now();
        let mut ns = nanos(start - self.last);
        if let Some(clock) = &self.recompiles {
            ns = ns.saturating_sub(clock.unclaimed_ns.swap(0, Ordering::Relaxed));
        }
        let l = &mut self.ledger;
        let (bucket, event) = match what {
            Charge::Role(CoreRole::Master) => (&mut l.master, true),
            Charge::Role(CoreRole::Slave(_)) => (&mut l.slave, true),
            Charge::Role(CoreRole::Recovery(_)) => (&mut l.recovery, true),
            Charge::Dispatch => (&mut l.spawn, false),
            Charge::Spawn => (&mut l.spawn, true),
            Charge::Verify => (&mut l.verify, true),
            Charge::Commit => (&mut l.commit, true),
            Charge::SquashPenalty => (&mut l.squash, true),
            Charge::SquashFlush => (&mut l.squash, false),
        };
        bucket.ns += ns;
        bucket.events += u64::from(event);
        let out = forward(&mut self.inner);
        let end = Instant::now();
        self.ledger.cost_model_ns += nanos(end - start);
        self.ledger.hooks += 1;
        self.last = end;
        out
    }
}

impl<C> Drop for TimedCost<C> {
    fn drop(&mut self) {
        HOOKS_SERVED.fetch_add(self.ledger.hooks, Ordering::Relaxed);
    }
}

impl<C: CostModel> CostModel for TimedCost<C> {
    fn instr_cost(&mut self, role: CoreRole, info: &StepInfo) -> u64 {
        self.charge(Charge::Role(role), |c| c.instr_cost(role, info))
    }

    fn spawn_overhead(&mut self, cells: usize) -> u64 {
        self.charge(Charge::Spawn, |c| c.spawn_overhead(cells))
    }

    fn dispatch_latency(&mut self, cells: usize) -> u64 {
        self.charge(Charge::Dispatch, |c| c.dispatch_latency(cells))
    }

    fn verify_cost(&mut self, live_ins: usize) -> u64 {
        self.charge(Charge::Verify, |c| c.verify_cost(live_ins))
    }

    fn commit_cost(&mut self, live_outs: usize) -> u64 {
        self.charge(Charge::Commit, |c| c.commit_cost(live_outs))
    }

    fn squash_penalty(&mut self) -> u64 {
        self.charge(Charge::SquashPenalty, CostModel::squash_penalty)
    }

    fn on_squash(&mut self, role: CoreRole) {
        self.charge(Charge::SquashFlush, |c| c.on_squash(role));
    }
}
