//! A threaded MSSP executor: slaves run on real OS threads.
//!
//! This is the second driver of the protocol core (`protocol.rs`); the
//! discrete-time [`crate::Engine`] is the first. Every spawn, commit,
//! squash, recovery, throttle and hot-swap decision — and every counter
//! the two share — lives in that core. This module supplies the mechanism
//! on real parallel hardware: the slave tasks run on worker threads, and
//! the calling thread runs both the master interpreter and the in-order
//! verify/commit unit — rings, epochs, the commit log, the pre-verified
//! fast-path verdict and snapshot/delta publishing.
//!
//! The master runs in slices between result drains: up to its next task
//! boundary or [`MASTER_SLICE_STEPS`] distilled instructions. The spawn
//! a boundary arms is taken at the start of the next slice, the same
//! place that takes the spawn a restart arms, so one site serves both.
//! A spawn goes straight to dispatch, a commit prunes the master's
//! overlay segments directly, and a recovery or hot-swap rebuilds the
//! master in place. In the paper spawn and commit are hardware hand-offs
//! inside one CMP; a separate master thread would instead put an
//! OS-level park/wake round trip on both, which costs more than the
//! master's own work per task. The price: master and verify/commit work
//! run one after the other on this thread, so with many workers their
//! sum per task caps throughput.
//!
//! # Contention-free hot path
//!
//! Prophet's analysis (and our own profiles) say commit bandwidth and
//! communication — not slave count — cap CMP speculation, so the
//! steady-state dispatch/execute/commit cycle takes **no mutex and
//! performs no heap allocation**:
//!
//! * **Lock-free rings.** Each worker owns a bounded SPSC ring
//!   ([`crate::ring::spsc`]) the coordinator dispatches into; results
//!   and thread obituaries flow back through one bounded MPSC ring
//!   ([`crate::ring::mpsc`]). Dispatch and draining are batched: one
//!   ring publish covers every task bound for a worker in a flush, and
//!   the coordinator pops results in batches.
//!
//! * **Delta recycling.** Task live-in/write buffers, the shipped
//!   committed view, and commit-log entries are plain [`Delta`]s cycled
//!   through a [`DeltaArena`] — buffers travel coordinator → worker →
//!   coordinator inside the work/result messages and return to the pool
//!   at commit or squash, so after warm-up the task cycle allocates
//!   nothing. (The master still allocates its per-spawn prediction
//!   overlay; that is the prediction path, not the dispatch/commit
//!   path.)
//!
//! # O(delta) verify/commit
//!
//! The verify/commit unit is MSSP's serialization point, so everything on
//! the coordinator is sized by the *task's footprint*, never by machine
//! state:
//!
//! * **Worker-side pre-verification.** After finishing a task, the worker
//!   re-checks the recorded live-ins against the immutable snapshot +
//!   committed-view it executed from and ships the set of failing
//!   cells with the result. The coordinator then re-checks only (a) those
//!   failures and (b) live-ins intersecting cells written by tasks
//!   committed *after* the task's spawn sequence number — found by
//!   probing the commit log's suffix with [`Delta::intersects`]. A task
//!   whose re-check set is empty commits without the coordinator reading
//!   a single cell of architected state.
//!
//! * **Incremental snapshot publishing.** Committing no longer clones
//!   architected state. The committed write [`Delta`] is pushed onto an
//!   append-only [`CommitLog`]; the coordinator folds the log suffix
//!   into a running view delta and ships each spawned task the last
//!   materialized base snapshot plus a pooled clone of that view for
//!   the [`crate::task::TaskStorage`] committed layer. A fresh full
//!   snapshot is materialized only when the view crosses a length/size
//!   threshold or on squash.
//!
//! * **Batched commit application.** Commits are applied to architected
//!   state as one [`MachineState::apply_batch`] superimposition over the
//!   unapplied log suffix, deferred until something actually needs to
//!   *read* architected state (a live-in re-check, a squash, a snapshot
//!   materialization, or run end).
//!
//! Soundness is unchanged from the paper's memoization test. A live-in
//! passing pre-verification matched the architected value as of spawn
//! sequence `s` (snapshot + committed view ≡ architected state at `s`,
//! since recovery always bumps the epoch and discards in-flight work).
//! If no commit in `[s, now)` wrote the cell, the architected value at
//! commit time is byte-identical to the value pre-verification compared
//! against, so skipping the re-check returns exactly the oracle's
//! verdict; if any commit did write it, the cell is in the log suffix
//! intersection and is re-checked. A task whose spawn sequence predates
//! the retained window is re-checked in full — the suffix probe cannot
//! prove freshness for commits that were compacted away.
//! The verdict is this driver's own; what follows from it (commit and
//! squash accounting, recovery, restart) is the protocol core's.
//! [`verify_and_commit`], the discrete engine's verdict, is the oracle —
//! `EngineConfig::cross_check_commits` re-runs it on a cloned state for
//! every decision and panics on divergence, which the differential test
//! suite exercises at 1/2/4/8 workers.
//!
//! Reading a slightly stale snapshot can never corrupt state — recorded
//! live-ins are checked against architected state at commit, so a stale
//! read is a squash (a performance event), not a correctness event.
//! Staleness is bounded by the epoch counter: workers abandon tasks from
//! squashed epochs at entry, at every task boundary crossing, and every
//! 64 instructions.
//!
//! Wall-clock timing is nondeterministic, but the committed architected
//! state is not: verification forces every interleaving to the sequential
//! result, which the test suite asserts against [`crate::Engine`] and the
//! sequential machine.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use mssp_analysis::Profile;
use mssp_distill::{Distilled, Tier};
use mssp_isa::Program;
use mssp_machine::{expand_mask, Cell, Delta, DeltaArena, MachineState};

use crate::adaptive::{AdaptiveController, AdaptiveReport, Recompiler};
use crate::master::{Master, MasterStall};
use crate::protocol::Protocol;
use crate::ring::{self, MpscReceiver, MpscSender, SpscReceiver, SpscSender};
use crate::task::{BoundarySet, SegmentRules, Task, TaskEnd, TaskId};
use crate::{verify_and_commit, VerifyOutcome};
use crate::{EngineConfig, EngineError, EngineStats, SquashReason};

/// Commit-log length after which the coordinator materializes a fresh
/// base snapshot instead of letting the committed view grow unboundedly.
const MAX_PENDING_DELTAS: u64 = 32;

/// Total cells across pending deltas after which a fresh base snapshot is
/// materialized (bounds view-clone cost for write-heavy tasks).
const MAX_PENDING_CELLS: usize = 1024;

/// Per-worker task ring capacity. Round-robin dispatch over a
/// `2 × slaves` speculation window keeps per-worker queues tiny; the
/// headroom absorbs stale items queued across a squash.
const WORK_RING_CAP: usize = 64;

/// Most distilled instructions the master runs between two result
/// drains; a slice also ends at the master's next task boundary.
const MASTER_SLICE_STEPS: u64 = 128;

/// Result messages popped per coordinator drain cycle.
const DRAIN_BATCH: usize = 64;

/// How a threaded run can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadedError {
    /// The protocol itself failed — see [`EngineError`].
    Engine(EngineError),
    /// A worker thread or the background recompiler panicked, or the
    /// master or the inline recompiler panicked on the coordinator thread.
    WorkerDied,
}

impl From<EngineError> for ThreadedError {
    fn from(e: EngineError) -> ThreadedError {
        ThreadedError::Engine(e)
    }
}

impl std::fmt::Display for ThreadedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadedError::Engine(e) => write!(f, "{e}"),
            ThreadedError::WorkerDied => write!(f, "a worker thread died mid-run"),
        }
    }
}

impl std::error::Error for ThreadedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ThreadedError::Engine(e) => Some(e),
            ThreadedError::WorkerDied => None,
        }
    }
}

/// Result of a threaded MSSP run.
#[derive(Debug)]
pub struct ThreadedRun {
    /// The final architected state (always equals sequential execution).
    pub state: MachineState,
    /// Statistics (cycle fields are zero: wall-clock is not simulated).
    pub stats: EngineStats,
    /// Wall-clock duration of the run.
    pub elapsed: std::time::Duration,
    /// Adaptive re-distillation summary, when the run used
    /// [`run_threaded_adaptive`].
    pub adaptive: Option<AdaptiveReport>,
}

struct WorkItem {
    /// Epoch the task was spawned in; bumped on every squash.
    epoch: u64,
    /// Last materialized base snapshot.
    base: Arc<MachineState>,
    /// Folded writes committed after `base` was materialized; pooled.
    /// `base` + `view` ≡ architected state as of the task's spawn
    /// sequence number (which the coordinator tracks in `in_flight`).
    view: Delta,
    task: Task,
}

struct WorkResult {
    epoch: u64,
    task: Task,
    end: TaskEnd,
    /// Pre-verification outcome: live-in cells that did *not* match the
    /// spawn-time view (`None` when the task overran or faulted, which
    /// squashes before any live-in is consulted).
    failed: Option<Vec<Cell>>,
    /// The committed view handed out at dispatch, riding back for
    /// recycling.
    view: Delta,
}

/// Everything the coordinator can hear from the workers: results and
/// thread obituaries, over one MPSC ring. Results travel inline in the
/// ring slot; boxing them would cost an allocation per task.
#[allow(clippy::large_enum_variant)]
enum CoordMsg {
    Result(WorkResult),
    ThreadDied,
}

/// Notifies the coordinator if a worker thread unwinds, so it returns
/// [`ThreadedError::WorkerDied`] instead of blocking forever on a result
/// that will never arrive. Normal exits send nothing.
struct DeadManSwitch {
    tx: MpscSender<CoordMsg>,
}

impl Drop for DeadManSwitch {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.tx.send(CoordMsg::ThreadDied);
        }
    }
}

/// The append-only commit log: a sliding window over the sequence of
/// committed write deltas. `start` is the sequence number of the oldest
/// retained entry; entries below it have been compacted away (their
/// buffers returned to the arena) once no in-flight task or base
/// snapshot could still need them.
struct CommitLog {
    deltas: VecDeque<Delta>,
    start: u64,
}

impl CommitLog {
    fn new() -> CommitLog {
        CommitLog {
            deltas: VecDeque::new(),
            start: 0,
        }
    }

    /// Sequence number the *next* commit will get (= commits so far).
    fn seq(&self) -> u64 {
        self.start + self.deltas.len() as u64
    }

    fn push(&mut self, delta: Delta) {
        self.deltas.push_back(delta);
    }

    /// Entries committed at sequence `seq` or later.
    fn suffix(&self, seq: u64) -> impl Iterator<Item = &Delta> + '_ {
        let skip = seq.saturating_sub(self.start).min(self.deltas.len() as u64) as usize;
        self.deltas.iter().skip(skip)
    }

    /// Drops entries below sequence `keep`, recycling their buffers.
    fn compact(&mut self, keep: u64, arena: &mut DeltaArena) {
        while self.start < keep {
            let Some(d) = self.deltas.pop_front() else {
                break;
            };
            arena.put(d);
            self.start += 1;
        }
    }

    /// Empties the window (squash/recovery: every retained delta is now
    /// folded into the materialized base). Sequence numbers keep rising.
    fn clear_window(&mut self, arena: &mut DeltaArena) {
        self.start += self.deltas.len() as u64;
        for d in self.deltas.drain(..) {
            arena.put(d);
        }
    }
}

/// The coordinator's conflict check: which live-in cells must be
/// re-checked against architected state before trusting a pre-verify
/// summary taken at sequence `seq`.
///
/// Always includes the worker-reported failures; adds every live-in
/// intersecting a delta committed at or after `seq` (the summary could
/// not have seen those commits, so it is stale for exactly those cells).
/// An empty return means the summary alone decides the memoization test.
///
/// A `seq` older than the log's retained window demands a **full**
/// re-check: commits in `[seq, start)` are gone, so the suffix probe can
/// no longer prove any live-in fresh. (Compaction keeps the window at or
/// below every in-flight spawn seq, but this function must not silently
/// clamp if that invariant is ever violated — clamping skipped exactly
/// the commits the task never saw.)
fn cells_to_recheck(live_ins: &Delta, failed: &[Cell], log: &CommitLog, seq: u64) -> Vec<Cell> {
    if seq < log.start {
        return live_ins.iter_masked().map(|(c, _)| c).collect();
    }
    if failed.is_empty() && !log.suffix(seq).any(|d| live_ins.intersects(d)) {
        return Vec::new();
    }
    let mut cells: Vec<Cell> = failed.to_vec();
    for delta in log.suffix(seq) {
        cells.extend(live_ins.intersecting_cells(delta));
    }
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// Worker-side pre-verification: compares each recorded live-in against
/// the view the task executed from (`view` = folded committed deltas
/// over `base`), returning the cells whose bytes disagree.
///
/// Live-ins satisfied from the master's *prediction* overlay usually land
/// here (the view has no reason to agree with a prediction) — that is
/// conservative, not wasteful: the coordinator re-checks exactly those
/// cells, which is the check the paper's verify unit performs anyway.
fn pre_verify(live_ins: &Delta, view: Option<&Delta>, base: &MachineState) -> Vec<Cell> {
    let mut failed = Vec::new();
    for (cell, m) in live_ins.iter_masked() {
        let mut out = 0u64;
        let mut need = m.mask;
        if let Some(p) = view.and_then(|v| v.get_masked(cell)) {
            let take = need & p.mask;
            out |= p.value & expand_mask(take);
            need &= !take;
        }
        if need != 0 {
            out |= base.read_cell(cell) & expand_mask(need);
        }
        if out != m.value {
            failed.push(cell);
        }
    }
    failed
}

/// Non-blocking dispatch of every per-worker outbox into its ring, one
/// publish per worker. Relies on [`SpscSender::try_send_batch`]'s
/// partial-progress contract: a short send (full ring) leaves the unsent
/// tasks queued — in order, none dropped — for the caller's next flush.
///
/// # Errors
///
/// [`ThreadedError::WorkerDied`] when a worker's ring is disconnected;
/// the undispatched tasks stay in their outbox for the caller to unwind.
fn flush_outboxes<T: Send>(
    outboxes: &mut [VecDeque<T>],
    txs: &mut [SpscSender<T>],
) -> Result<(), ThreadedError> {
    for (queue, tx) in outboxes.iter_mut().zip(txs.iter_mut()) {
        if !queue.is_empty() && tx.try_send_batch(queue).is_err() {
            return Err(ThreadedError::WorkerDied);
        }
    }
    Ok(())
}

/// The background recompile thread's half of the adaptive control
/// plane: request receiver, result sender, and the recompiler to run.
type RecompileWorker = (
    mpsc::Receiver<(Profile, Tier)>,
    mpsc::Sender<(Tier, Result<Distilled, String>)>,
    Recompiler,
);

/// The coordinator's half of background recompilation: it ships
/// `(profile snapshot, tier)` to the recompile thread and harvests the
/// candidate at a later task boundary, so the hot path never waits. The
/// channels are plain std `mpsc` — recompiles are rare control-plane
/// events, not dispatch/commit traffic.
struct BackgroundRecompile {
    req_tx: mpsc::Sender<(Profile, Tier)>,
    res_rx: mpsc::Receiver<(Tier, Result<Distilled, String>)>,
    /// When the in-flight request was sent; also gates new sends (the
    /// controller's `Pending` phase means at most one).
    sent_at: Option<Instant>,
}

/// Runs the MSSP protocol with `config.num_slaves` worker threads; the
/// calling thread runs both the master and the verify/commit
/// coordinator.
///
/// # Errors
///
/// Returns [`ThreadedError::Engine`] if the original program faults
/// during non-speculative recovery or a recovery segment exceeds its cap,
/// and [`ThreadedError::WorkerDied`] if a worker thread or the master
/// panics.
///
/// # Panics
///
/// Panics only when `config.cross_check_commits` detects the fast path
/// diverging from the [`verify_and_commit`] oracle (a bug, not an input
/// condition).
pub fn run_threaded(
    original: &Program,
    distilled: &Distilled,
    config: EngineConfig,
) -> Result<ThreadedRun, ThreadedError> {
    run_threaded_inner(original, distilled, config, None)
}

/// [`run_threaded`] with online adaptive re-distillation: `controller`
/// watches the run for divergence from the training profile and
/// `recompiler` produces candidate distilled programs from the live
/// profile (callers wire it to `mssp-lint`'s `redistill_validated`, so
/// every installed program passed the soundness gate). Candidates are
/// installed at commit/recovery task boundaries by bumping the squash
/// epoch — in-flight speculation is abandoned exactly like a squash, and
/// the master restarts on the new program from architected state.
///
/// With `synchronous` set, recompilation runs inline on the coordinator
/// at the requesting boundary — deterministic, for differential testing
/// against the discrete engine. Otherwise a background recompile thread
/// keeps it off the hot path.
///
/// # Errors
///
/// Same as [`run_threaded`]; a panicking recompiler also surfaces as
/// [`ThreadedError::WorkerDied`], in either mode.
pub fn run_threaded_adaptive(
    original: &Program,
    distilled: &Distilled,
    config: EngineConfig,
    controller: AdaptiveController,
    recompiler: Recompiler,
    synchronous: bool,
) -> Result<ThreadedRun, ThreadedError> {
    run_threaded_inner(
        original,
        distilled,
        config,
        Some((controller, recompiler, synchronous)),
    )
}

fn run_threaded_inner(
    original: &Program,
    distilled: &Distilled,
    config: EngineConfig,
    adaptive: Option<(AdaptiveController, Recompiler, bool)>,
) -> Result<ThreadedRun, ThreadedError> {
    assert!(config.num_slaves > 0, "MSSP needs at least one slave");
    let start_time = std::time::Instant::now();
    let mut protocol = Protocol::new(distilled, config);
    let boundaries = Arc::clone(&protocol.boundaries);
    let crossings_per_task = protocol.crossings_per_task;
    let current_epoch = Arc::new(AtomicU64::new(0));

    // Result ring sized far above the speculation window so workers
    // never meet a full ring in practice.
    let coord_cap = (config.num_slaves * 8).max(1024);
    let (coord_tx, coord_rx) = ring::mpsc::<CoordMsg>(coord_cap);
    let mut work_txs = Vec::with_capacity(config.num_slaves);
    let mut work_rxs = Vec::with_capacity(config.num_slaves);
    for _ in 0..config.num_slaves {
        let (tx, rx) = ring::spsc::<WorkItem>(WORK_RING_CAP);
        work_txs.push(tx);
        work_rxs.push(rx);
    }
    let mut background = None;
    let mut recompile_worker: Option<RecompileWorker> = None;
    if let Some((ctl, rec, synchronous)) = adaptive {
        if synchronous {
            protocol.enable_adaptive(ctl, Some(rec));
        } else {
            protocol.enable_adaptive(ctl, None);
            let (req_tx, req_rx) = mpsc::channel();
            let (res_tx, res_rx) = mpsc::channel();
            background = Some(BackgroundRecompile {
                req_tx,
                res_rx,
                sent_at: None,
            });
            recompile_worker = Some((req_rx, res_tx, rec));
        }
    }

    std::thread::scope(|scope| -> Result<ThreadedRun, ThreadedError> {
        // ---- workers ----
        let mut workers = Vec::with_capacity(config.num_slaves);
        for mut work_rx in work_rxs {
            let coord_tx = coord_tx.clone();
            let boundaries = Arc::clone(&boundaries);
            let current_epoch = Arc::clone(&current_epoch);
            let original = &*original;
            let max_task = config.max_task_instrs;
            workers.push(scope.spawn(move || {
                let _guard = DeadManSwitch {
                    tx: coord_tx.clone(),
                };
                worker_loop(
                    original,
                    &boundaries,
                    crossings_per_task,
                    max_task,
                    &current_epoch,
                    &mut work_rx,
                    &coord_tx,
                );
            }));
        }

        // ---- background recompiler (adaptive async mode) ----
        let recompile_handle = recompile_worker.map(|(req_rx, res_tx, mut rec)| {
            scope.spawn(move || {
                while let Ok((profile, tier)) = req_rx.recv() {
                    if res_tx.send((tier, rec(&profile, tier))).is_err() {
                        return;
                    }
                }
            })
        });
        drop(coord_tx); // coordinator keeps only the receiver

        // ---- coordinator: the master and the in-order verify/commit unit ----
        let arch = MachineState::boot(original);
        protocol.stats.snapshots_materialized += 1;
        let mut coordinator = Coordinator {
            original,
            cross_check: config.cross_check_commits,
            current_epoch: &current_epoch,
            outbox: work_txs.iter().map(|_| VecDeque::new()).collect(),
            work_txs,
            coord_rx,
            seat: MasterSeat {
                offline: distilled,
                swapped: None,
                master: None,
                window: config.num_slaves * 2,
                runahead: config.master_runahead,
                last_spawned: None,
                next_id: 0,
                steps_since_spawn: 0,
                instructions: 0,
                vetoes: 0,
            },
            protocol,
            background,
            arena: DeltaArena::new(),
            virt_pc: arch.pc(),
            base: Arc::new(arch.clone()),
            arch,
            base_seq: 0,
            applied_seq: 0,
            log: CommitLog::new(),
            folded: Delta::new(),
            pending_cells: 0,
            epoch: 0,
            in_flight: VecDeque::new(),
            done: Vec::new(),
            inbox: Vec::with_capacity(DRAIN_BATCH),
            next_worker: 0,
        };
        let outcome = coordinator.run();

        // Shut down regardless of outcome: stragglers abandon at the next
        // epoch poll, closed rings end every loop (the recompile thread's
        // with the request sender), and joining here consumes any panic
        // so the scope does not re-raise it.
        // why: Relaxed; the epoch is an advisory abandon hint — correctness
        // comes from the epoch tag carried inside each message, and the
        // ring close below is what actually ends the loops.
        current_epoch.store(u64::MAX, Ordering::Relaxed);
        let (state, protocol) = coordinator.finish();
        let mut thread_died = false;
        for handle in workers.into_iter().chain(recompile_handle) {
            thread_died |= handle.join().is_err();
        }
        outcome?;
        if thread_died {
            return Err(ThreadedError::WorkerDied);
        }
        let run = protocol.into_run(0, state);
        Ok(ThreadedRun {
            state: run.state,
            stats: run.stats,
            elapsed: start_time.elapsed(),
            adaptive: run.adaptive,
        })
    })
}

/// Worker thread body: execute tasks against their spawn-time view, then
/// pre-verify the recorded live-ins against that same view. The loop is
/// allocation-free: every buffer it touches arrives in the work item and
/// leaves in the result.
fn worker_loop(
    original: &Program,
    boundaries: &BoundarySet,
    crossings_per_task: u64,
    max_instrs: u64,
    current_epoch: &AtomicU64,
    work_rx: &mut SpscReceiver<WorkItem>,
    coord_tx: &MpscSender<CoordMsg>,
) {
    let rules = SegmentRules {
        boundaries,
        crossings_per_task,
        max_instrs,
    };
    while let Ok(WorkItem {
        epoch,
        base,
        view,
        mut task,
    }) = work_rx.recv()
    {
        // The committed view layers *below* the master's prediction
        // segments (committed state is older than any prediction) and
        // *above* the base snapshot, reproducing architected state as of
        // the spawn sequence number.
        let committed = if view.is_empty() { None } else { Some(&view) };
        // The hot loop: no lock, no shared mutable state. The closure
        // polls the epoch so squashed work is dropped at entry, at
        // boundary crossings, and every 64 instructions.
        let end = task.run_segment_with_view(original, &base, committed, &rules, || {
            // why: Relaxed; a stale read only delays the abandon by one
            // poll interval — squash correctness rests on the coordinator
            // discarding results whose epoch tag mismatches, not on when
            // the worker notices.
            current_epoch.load(Ordering::Relaxed) != epoch
        });
        let failed = match end {
            TaskEnd::Boundary(_) | TaskEnd::Halted(_) => {
                Some(pre_verify(&task.live_ins, committed, &base))
            }
            // Overruns/faults squash before live-ins are consulted.
            TaskEnd::Overrun | TaskEnd::Fault => None,
        };
        // The coordinator never reads the overlay; drop it here to spare
        // the commit path the refcount churn.
        task.overlay = Vec::new();
        let result = WorkResult {
            epoch,
            task,
            end,
            failed,
            view,
        };
        if coord_tx.send(CoordMsg::Result(result)).is_err() {
            return;
        }
    }
}

/// The master's seat on the coordinator thread: the live master, the
/// program it runs, and the spawn bookkeeping that outlives restarts.
struct MasterSeat<'a> {
    offline: &'a Distilled,
    /// The latest hot-swapped program; `None` means the offline one.
    swapped: Option<Arc<Distilled>>,
    /// `None` while the throttle keeps the master offline.
    master: Option<Master>,
    /// Uncommitted spawned tasks the master may run ahead by: the same
    /// `2 × slaves` speculation window the discrete engine uses.
    window: usize,
    runahead: u64,
    last_spawned: Option<u64>,
    next_id: u64,
    steps_since_spawn: u64,
    /// Distilled instructions executed, summed across restarts.
    instructions: u64,
    /// Spawn-guard vetoes, drained from the master after every slice.
    vetoes: u64,
}

/// What one master slice produced.
enum Slice {
    /// Nothing: the master is offline, stalled, or its window is full.
    Idle,
    /// Distilled instructions ran, but no spawn was taken.
    Ran,
    /// A spawn to dispatch: task id, start PC and prediction overlay.
    Spawn(u64, u64, Vec<Arc<Delta>>),
}

impl MasterSeat<'_> {
    /// Rebuilds the master at original-space `pc` over a private copy of
    /// architected state, first installing `swap` if one is given.
    fn restart(&mut self, pc: u64, base: MachineState, swap: Option<Arc<Distilled>>) {
        if swap.is_some() {
            self.swapped = swap;
        }
        let program = self.swapped.as_deref().unwrap_or(self.offline);
        self.master = Some(Master::restart_at(program, pc, true, base));
        self.last_spawned = None;
        self.steps_since_spawn = 0;
    }

    fn active(&self) -> bool {
        self.master
            .as_ref()
            .is_some_and(|m| m.status() == MasterStall::Active)
    }

    /// Takes the master's pending spawn if the window has room; otherwise
    /// runs it up to its next task boundary or [`MASTER_SLICE_STEPS`]
    /// instructions. The spawn a boundary arms is taken by the next
    /// slice, so this one site takes both boundary spawns and the spawn
    /// a restart arms. A master that runs
    /// [`EngineConfig::master_runahead`] instructions without a spawn is
    /// marked lost.
    fn slice(&mut self) -> Slice {
        let Some(master) = &mut self.master else {
            return Slice::Idle;
        };
        if master.pending_spawn().is_some() {
            if master.live_segment_count() >= self.window {
                return Slice::Idle;
            }
            let (start_pc, overlay) = master.take_spawn(self.last_spawned);
            let id = self.next_id;
            self.next_id += 1;
            self.last_spawned = Some(id);
            self.steps_since_spawn = 0;
            return Slice::Spawn(id, start_pc, overlay);
        }
        let program = self.swapped.as_deref().unwrap_or(self.offline);
        let mut ran = 0;
        while ran < MASTER_SLICE_STEPS && master.step(program).is_some() {
            ran += 1;
            self.steps_since_spawn += 1;
            if self.steps_since_spawn > self.runahead {
                master.mark_lost();
            }
            if master.pending_spawn().is_some() {
                break;
            }
        }
        self.instructions += ran;
        self.vetoes += master.take_vetoed_spawns();
        if ran == 0 {
            Slice::Idle
        } else {
            Slice::Ran
        }
    }
}

/// Why the coordinator abandons the current epoch.
enum Reset {
    /// A squash, or a master starved of work: run a recovery segment.
    Recover,
    /// A validated hot-swap candidate to restart the master on.
    Install(Arc<Distilled>),
}

/// The coordinator: runs the master in slices, dispatches its spawns to
/// workers, owns architected state, and commits results in order doing
/// O(write-set) work per task with no steady-state allocation. Every
/// protocol decision and shared counter lives in `protocol`; this struct
/// is the mechanism — rings, epochs, the commit log and the fast-path
/// verdict.
struct Coordinator<'a> {
    original: &'a Program,
    cross_check: bool,
    current_epoch: &'a AtomicU64,
    work_txs: Vec<SpscSender<WorkItem>>,
    coord_rx: MpscReceiver<CoordMsg>,
    seat: MasterSeat<'a>,
    protocol: Protocol,
    background: Option<BackgroundRecompile>,
    arena: DeltaArena,
    arch: MachineState,
    /// The logical architected PC: `arch` itself may lag behind by the
    /// unapplied commit-log suffix, but `virt_pc` never does, so the
    /// wrong-path check needs no flush.
    virt_pc: u64,
    base: Arc<MachineState>,
    base_seq: u64,
    /// Commits at or above this sequence are not yet applied to `arch`.
    applied_seq: u64,
    log: CommitLog,
    /// Superimposition of log entries in [base_seq, seq): the committed
    /// view cloned into every spawn. Maintained incrementally per commit.
    folded: Delta,
    pending_cells: usize,
    epoch: u64,
    /// (task id, spawn sequence number), in spawn = commit order.
    in_flight: VecDeque<(u64, u64)>,
    /// Finished-but-uncommitted results; the window is tiny (≤ 2×slaves),
    /// so a linear scan beats a map and reuses its capacity forever.
    done: Vec<(u64, WorkResult)>,
    inbox: Vec<CoordMsg>,
    outbox: Vec<VecDeque<WorkItem>>,
    next_worker: usize,
}

impl Coordinator<'_> {
    fn run(&mut self) -> Result<(), ThreadedError> {
        self.seat.restart(self.virt_pc, self.arch.clone(), None);
        while !self.protocol.halted() {
            let progressed = self.master_slice()?;
            // Batched dispatch: one ring publish per worker. Short sends
            // (full ring) keep the unsent tasks queued for the next flush
            // instead of blocking here or dropping them; a full ring means
            // that worker already holds a ring-capacity backlog, so its
            // next result is guaranteed to wake a blocked receive.
            flush_outboxes(&mut self.outbox, &mut self.work_txs)?;
            self.receive(progressed)?;
            self.commit_ready()?;
            // Starved (nothing in flight, and the master lost, halted or
            // offline): sequential recovery, then reseed the master.
            if !self.protocol.halted() && self.in_flight.is_empty() && !self.seat.active() {
                self.reset(Reset::Recover)?;
            }
            // Compact the commit log: keep entries any in-flight task's
            // conflict check or the unapplied/unfolded suffix could still
            // reference. `base_seq ≤ applied_seq` always, so the keep
            // bound also protects the flush suffix.
            let keep = self
                .in_flight
                .front()
                .map_or_else(|| self.log.seq(), |&(_, seq)| seq)
                .min(self.base_seq);
            self.log.compact(keep, &mut self.arena);
        }
        Ok(())
    }

    /// Final architected state, and the protocol's counters and reports.
    /// Consuming the coordinator closes every ring it holds.
    fn finish(mut self) -> (MachineState, Protocol) {
        self.flush();
        self.protocol.stats.master_instructions = self.seat.instructions;
        self.protocol.stats.spawn_vetoes = self.seat.vetoes;
        (self.arch, self.protocol)
    }

    /// Runs one master slice and dispatches its spawn, if any. Returns
    /// whether the master made progress. A panic in master code ends the
    /// run as [`ThreadedError::WorkerDied`], like a dead worker.
    fn master_slice(&mut self) -> Result<bool, ThreadedError> {
        let seat = &mut self.seat;
        let slice = panic::catch_unwind(AssertUnwindSafe(|| seat.slice()))
            .map_err(|_| ThreadedError::WorkerDied)?;
        Ok(match slice {
            Slice::Idle => false,
            Slice::Ran => true,
            Slice::Spawn(id, start_pc, overlay) => {
                self.dispatch(id, start_pc, overlay);
                true
            }
        })
    }

    /// Receives one batch of worker results. Blocks for the first only
    /// when the master made no progress and the oldest in-flight task has
    /// no result yet: then nothing can move until that result (or a
    /// thread obituary) arrives, and it is guaranteed to. A starved run
    /// has nothing in flight, so it never blocks here.
    fn receive(&mut self, master_progressed: bool) -> Result<(), ThreadedError> {
        let mut inbox = std::mem::take(&mut self.inbox);
        let waiting = self
            .in_flight
            .front()
            .is_some_and(|&(id, _)| !self.done.iter().any(|&(d, _)| d == id));
        if waiting && !master_progressed {
            inbox.push(
                self.coord_rx
                    .recv()
                    .map_err(|_| ThreadedError::WorkerDied)?,
            );
        }
        let room = DRAIN_BATCH - inbox.len();
        self.coord_rx.recv_batch(&mut inbox, room);
        for msg in inbox.drain(..) {
            match msg {
                CoordMsg::Result(r) => {
                    // Results still in flight at shutdown are never
                    // received, so they are not counted.
                    self.protocol.stats.slave_instructions += r.task.executed;
                    if r.epoch == self.epoch {
                        self.done.push((r.task.id.0, r));
                    } else {
                        self.discard(r);
                    }
                }
                CoordMsg::ThreadDied => return Err(ThreadedError::WorkerDied),
            }
        }
        self.inbox = inbox;
        Ok(())
    }

    /// Queues a current-epoch spawn for the next worker, round-robin.
    fn dispatch(&mut self, id: u64, start_pc: u64, mut overlay: Vec<Arc<Delta>>) {
        let predicted = self.protocol.spawn(start_pc, &mut overlay);
        self.in_flight.push_back((id, self.log.seq()));
        let mut view = self.arena.take();
        view.clone_from(&self.folded);
        let mut task = Task::with_buffers(
            TaskId(id),
            start_pc,
            self.next_worker,
            overlay,
            self.arena.take(),
            self.arena.take(),
        );
        task.predicted = predicted;
        self.outbox[self.next_worker].push_back(WorkItem {
            epoch: self.epoch,
            base: Arc::clone(&self.base),
            view,
            task,
        });
        self.next_worker = (self.next_worker + 1) % self.work_txs.len();
    }

    /// Verifies and commits finished results in order, up to the first
    /// unfinished task, a squash, or a hot-swap.
    fn commit_ready(&mut self) -> Result<(), ThreadedError> {
        while let Some(&(oldest_id, task_seq)) = self.in_flight.front() {
            let Some(pos) = self.done.iter().position(|&(id, _)| id == oldest_id) else {
                break;
            };
            let (_, result) = self.done.swap_remove(pos);
            self.in_flight.pop_front();
            let verdict = self.verdict(&result, task_seq);

            // Differential-testing mode: replay the decision through the
            // shared oracle on a clone and demand bit-identical results.
            let oracle = self.cross_check.then(|| {
                self.flush();
                let mut shadow = self.arch.clone();
                let oracle_verdict = verify_and_commit(&mut shadow, &result.task, result.end);
                assert_eq!(
                    verdict, oracle_verdict,
                    "threaded fast path diverged from verify_and_commit oracle on task {}",
                    result.task.id.0
                );
                shadow
            });

            match verdict {
                VerifyOutcome::Commit { end_pc, halted } => {
                    self.commit(result, end_pc, halted, oracle.as_ref());
                    if halted {
                        break;
                    }
                    let abandoned = self.in_flight.len() as u64;
                    if let Some(d) = self.pump(abandoned)? {
                        // Install at this commit boundary: abandon
                        // in-flight speculation exactly like a squash —
                        // but with no recovery segment, because
                        // architected state already sits at the task
                        // boundary just committed.
                        return self.reset(Reset::Install(d));
                    }
                }
                VerifyOutcome::Squash(reason) => {
                    // Squash everything younger and run recovery.
                    self.flush();
                    let killed = 1 + self.in_flight.len() as u64;
                    self.protocol
                        .squash(reason, &result.task, &self.arch, killed);
                    self.discard(result);
                    return self.reset(Reset::Recover);
                }
            }
        }
        Ok(())
    }

    /// The fast-path verdict: O(write-set) work, same precedence as the
    /// oracle (wrong path, then overrun/fault, then the memoization test
    /// over exactly the stale/failed cells).
    fn verdict(&mut self, result: &WorkResult, task_seq: u64) -> VerifyOutcome {
        let task = &result.task;
        if task.start_pc != self.virt_pc {
            return VerifyOutcome::Squash(SquashReason::WrongPath);
        }
        let (end_pc, halted) = match result.end {
            TaskEnd::Overrun => return VerifyOutcome::Squash(SquashReason::Overrun),
            TaskEnd::Fault => return VerifyOutcome::Squash(SquashReason::Fault),
            TaskEnd::Boundary(pc) => (pc, false),
            TaskEnd::Halted(pc) => (pc, true),
        };
        let recheck = match &result.failed {
            Some(f) => cells_to_recheck(&task.live_ins, f, &self.log, task_seq),
            // No summary shipped (defensive: cannot happen for a
            // boundary/halt end) — re-check everything.
            None => task.live_ins.iter_masked().map(|(c, _)| c).collect(),
        };
        let stats = &mut self.protocol.stats;
        stats.live_ins_rechecked += recheck.len() as u64;
        stats.live_ins_skipped += (task.live_ins.len() as u64).saturating_sub(recheck.len() as u64);
        if recheck.is_empty() {
            stats.pre_verified_tasks += 1;
        } else {
            self.flush();
            for &cell in &recheck {
                let Some(m) = task.live_ins.get_masked(cell) else {
                    continue; // a failed cell later overwritten? impossible, but harmless
                };
                if self.arch.read_cell(cell) & expand_mask(m.mask) != m.value {
                    return VerifyOutcome::Squash(SquashReason::LiveInMismatch);
                }
            }
        }
        VerifyOutcome::Commit { end_pc, halted }
    }

    /// Commits a verified result: its writes join the commit log and the
    /// folded view (applied to `arch` lazily), and the master prunes its
    /// overlay segments up to it.
    fn commit(
        &mut self,
        result: WorkResult,
        end_pc: u64,
        halted: bool,
        oracle: Option<&MachineState>,
    ) {
        let WorkResult { mut task, view, .. } = result;
        self.protocol.commit(&task, end_pc, halted);
        self.pending_cells += task.writes.len();
        self.folded.superimpose_in_place(&task.writes);
        self.log.push(std::mem::take(&mut task.writes));
        self.arena.put(std::mem::take(&mut task.live_ins));
        self.arena.put(view);
        self.virt_pc = end_pc;
        if let Some(shadow) = oracle {
            self.flush();
            assert_eq!(
                &self.arch, shadow,
                "threaded fast path committed state diverged from oracle"
            );
        }
        if let Some(master) = &mut self.seat.master {
            master.on_commit(task.id.0);
        }
        if self.log.seq() - self.base_seq >= MAX_PENDING_DELTAS
            || self.pending_cells >= MAX_PENDING_CELLS
        {
            self.materialize_base();
        } else {
            self.protocol.stats.deltas_published += 1;
        }
    }

    /// Abandons the current epoch — every in-flight task and finished
    /// result — and republishes architected state as a fresh base. A
    /// [`Reset::Recover`] first runs a recovery segment, after which the
    /// master restarts unless the run halted or the throttle keeps it
    /// offline; a [`Reset::Install`] restarts it on the new program.
    /// Either way the old master is dropped: it ran ahead on the
    /// abandoned speculation.
    fn reset(&mut self, why: Reset) -> Result<(), ThreadedError> {
        self.epoch += 1;
        // why: Relaxed; advisory abandon hint — stale results are filtered
        // by their message epoch tag regardless.
        self.current_epoch.store(self.epoch, Ordering::Relaxed);
        self.in_flight.clear();
        while let Some((_, r)) = self.done.pop() {
            self.discard(r);
        }
        self.flush();
        let (restart, swap) = match why {
            Reset::Recover => {
                let mut seg = self.protocol.begin_recovery(self.arch.pc());
                while !self
                    .protocol
                    .step_recovery(&mut seg, self.original, &self.arch)?
                    .1
                {}
                // False when halted, or throttled: starvation recovery
                // carries execution until the master may restart.
                (self.protocol.finish_recovery(seg, &mut self.arch), None)
            }
            Reset::Install(d) => (true, Some(d)),
        };
        self.virt_pc = self.arch.pc();
        self.log.clear_window(&mut self.arena);
        self.materialize_base();
        if !restart {
            self.seat.master = None;
            return Ok(());
        }
        // After a recovery the epoch is already bumped and speculation
        // already abandoned: a pending swap rides the restart for free.
        let swap = match swap {
            Some(d) => Some(d),
            None => self.pump(0)?,
        };
        self.seat.restart(self.virt_pc, self.arch.clone(), swap);
        Ok(())
    }

    /// Pumps the adaptive loop at a task boundary with `abandoned` tasks
    /// in flight: harvests a finished background recompile, serves a new
    /// request, and returns a validated candidate to install. A panic in
    /// an inline recompiler ends the run as [`ThreadedError::WorkerDied`],
    /// as a panic on the background recompile thread does.
    fn pump(&mut self, abandoned: u64) -> Result<Option<Arc<Distilled>>, ThreadedError> {
        let Some(bg) = &mut self.background else {
            let protocol = &mut self.protocol;
            return panic::catch_unwind(AssertUnwindSafe(|| protocol.recompile_inline(abandoned)))
                .map_err(|_| ThreadedError::WorkerDied);
        };
        if let Some(started) = bg.sent_at {
            if let Ok((tier, result)) = bg.res_rx.try_recv() {
                bg.sent_at = None;
                let installed = self.protocol.install(tier, result, started, abandoned);
                if installed.is_some() {
                    return Ok(installed);
                }
            }
        }
        let Some((tier, profile)) = self.protocol.recompile_request() else {
            return Ok(None);
        };
        if bg.sent_at.is_none() {
            if bg.req_tx.send((profile.clone(), tier)).is_ok() {
                bg.sent_at = Some(Instant::now());
            } else {
                // Recompile thread is gone; re-arm so the run can keep
                // going on the installed program.
                let gone = Err("recompile thread is gone".to_string());
                self.protocol.install(tier, gone, Instant::now(), abandoned);
            }
        }
        Ok(None)
    }

    /// Returns a discarded result's delta buffers to the arena; its slave
    /// work was wasted.
    fn discard(&mut self, r: WorkResult) {
        let WorkResult { mut task, view, .. } = r;
        self.protocol.stats.wasted_slave_instructions += task.executed;
        self.arena.put(view);
        self.arena.put(std::mem::take(&mut task.live_ins));
        self.arena.put(std::mem::take(&mut task.writes));
    }

    /// Applies the unapplied commit-log suffix as one superimposition and
    /// restores the logical PC. Safe to call redundantly.
    fn flush(&mut self) {
        if self.applied_seq < self.log.seq() {
            self.arch.apply_batch(self.log.suffix(self.applied_seq));
            self.applied_seq = self.log.seq();
        }
        self.arch.set_pc(self.virt_pc);
    }

    /// Publishes architected state as a fresh base snapshot for spawns.
    fn materialize_base(&mut self) {
        self.flush();
        self.base = Arc::new(self.arch.clone());
        self.base_seq = self.log.seq();
        self.folded.clear();
        self.pending_cells = 0;
        self.protocol.stats.snapshots_materialized += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveConfig;
    use crate::UnitCost;
    use mssp_analysis::Profile;
    use mssp_distill::{distill, redistill, DistillConfig};
    use mssp_isa::asm::assemble;
    use mssp_isa::Reg;
    use mssp_machine::SeqMachine;

    fn fixture() -> (Program, Distilled) {
        let p = assemble(
            "main:  addi s0, zero, 2000
             loop:  add  s1, s1, s0
                    mul  t0, s0, s0
                    add  s1, s1, t0
                    sd   s1, -8(sp)
                    addi s0, s0, -1
                    bnez s0, loop
                    halt",
        )
        .unwrap();
        let profile = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
        (p, d)
    }

    fn delta(pairs: &[(Cell, u64)]) -> Delta {
        pairs.iter().copied().collect()
    }

    /// Regression test for the outbox dispatch contract: a short send
    /// (full worker ring) must keep every undispatched task queued in
    /// order, and a later flush must deliver them — nothing dropped,
    /// nothing reordered. (Before `try_send_batch`, the coordinator's
    /// `send_batch(box_.drain(..))` destroyed the queued tasks whenever
    /// the send ended early.)
    #[test]
    fn outbox_flush_survives_full_ring_without_dropping() {
        let (tx_a, mut rx_a) = ring::spsc::<u32>(4);
        let (tx_b, mut rx_b) = ring::spsc::<u32>(4);
        let mut txs = vec![tx_a, tx_b];
        let mut outboxes: Vec<VecDeque<u32>> = vec![(0..7).collect(), (100..103).collect()];

        // First flush: worker A's ring fills at 4, worker B's takes all 3.
        flush_outboxes(&mut outboxes, &mut txs).unwrap();
        assert_eq!(
            outboxes[0].iter().copied().collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert!(outboxes[1].is_empty());

        // A second flush against the still-full ring is a no-op, not a loss.
        flush_outboxes(&mut outboxes, &mut txs).unwrap();
        assert_eq!(outboxes[0].len(), 3);

        // Worker A drains; the next flush delivers the retained tasks.
        let mut got = Vec::new();
        rx_a.recv_batch(&mut got, 100);
        flush_outboxes(&mut outboxes, &mut txs).unwrap();
        assert!(outboxes[0].is_empty());
        rx_a.recv_batch(&mut got, 100);
        assert_eq!(got, (0..7).collect::<Vec<_>>(), "FIFO across short sends");
        let mut got_b = Vec::new();
        rx_b.recv_batch(&mut got_b, 100);
        assert_eq!(got_b, (100..103).collect::<Vec<_>>());
    }

    /// A disconnected worker ring surfaces as `WorkerDied` and leaves the
    /// outbox contents intact for the caller to unwind.
    #[test]
    fn outbox_flush_reports_dead_worker_and_keeps_tasks() {
        let (tx, rx) = ring::spsc::<u32>(4);
        drop(rx);
        let mut txs = vec![tx];
        let mut outboxes: Vec<VecDeque<u32>> = vec![(0..3).collect()];
        assert_eq!(
            flush_outboxes(&mut outboxes, &mut txs),
            Err(ThreadedError::WorkerDied)
        );
        assert_eq!(
            outboxes[0].iter().copied().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn threaded_matches_sequential() {
        let (p, d) = fixture();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        let run = run_threaded(&p, &d, EngineConfig::default()).unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
        assert!(run.stats.committed_instructions > 0);
    }

    #[test]
    fn threaded_matches_discrete_engine() {
        let (p, d) = fixture();
        let reference = crate::Engine::new(&p, &d, EngineConfig::default(), UnitCost)
            .run()
            .unwrap();
        let run = run_threaded(&p, &d, EngineConfig::default()).unwrap();
        assert_eq!(run.state.reg(Reg::S1), reference.state.reg(Reg::S1));
    }

    #[test]
    fn threaded_with_two_workers_repeats_deterministically_in_state() {
        let (p, d) = fixture();
        let cfg = EngineConfig {
            num_slaves: 2,
            ..EngineConfig::default()
        };
        let a = run_threaded(&p, &d, cfg).unwrap();
        let b = run_threaded(&p, &d, cfg).unwrap();
        // Wall-clock and task counts may differ; committed state may not.
        assert_eq!(a.state.reg(Reg::S1), b.state.reg(Reg::S1));
    }

    #[test]
    fn cross_check_mode_agrees_with_oracle_end_to_end() {
        let (p, d) = fixture();
        let cfg = EngineConfig {
            num_slaves: 2,
            cross_check_commits: true,
            ..EngineConfig::default()
        };
        let run = run_threaded(&p, &d, cfg).unwrap();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
    }

    #[test]
    fn fast_path_skips_live_ins_and_publishes_deltas() {
        let (p, d) = fixture();
        let run = run_threaded(&p, &d, EngineConfig::default()).unwrap();
        // Live-ins resolved from the unchanging base (e.g. SP) are proven
        // by pre-verification and never re-checked.
        assert!(run.stats.live_ins_skipped > 0, "{:?}", run.stats);
        // Most commits ride the log; snapshots only at thresholds.
        assert!(run.stats.deltas_published > 0, "{:?}", run.stats);
        assert!(
            run.stats.snapshots_materialized < run.stats.committed_tasks,
            "{:?}",
            run.stats
        );
        assert!(run.stats.recheck_ratio() < 1.0, "{:?}", run.stats);
    }

    #[test]
    fn commit_log_is_a_sliding_window_with_monotonic_seq() {
        let mut arena = DeltaArena::new();
        let mut log = CommitLog::new();
        assert_eq!(log.seq(), 0);
        log.push(delta(&[(Cell::Mem(0), 1)]));
        log.push(delta(&[(Cell::Mem(1), 2)]));
        log.push(delta(&[(Cell::Mem(2), 3)]));
        assert_eq!(log.seq(), 3);
        assert_eq!(log.suffix(1).count(), 2);
        log.compact(2, &mut arena);
        assert_eq!(log.seq(), 3); // seq unaffected by compaction
        assert_eq!(log.suffix(2).count(), 1);
        assert_eq!(arena.pooled(), 2, "compacted entries return to the pool");
        log.clear_window(&mut arena);
        assert_eq!(log.seq(), 3);
        assert_eq!(log.suffix(3).count(), 0);
        assert_eq!(arena.pooled(), 3);
    }

    #[test]
    fn stale_preverify_summary_is_rechecked_never_trusted() {
        // A task pre-verified at sequence 0; afterwards a commit wrote
        // one of its live-in cells. The clean summary must not be
        // trusted for that cell.
        let live_ins: Delta = [(Cell::Mem(1), 5), (Cell::Reg(Reg::A0), 2)]
            .into_iter()
            .collect();
        let mut log = CommitLog::new();
        log.push(delta(&[(Cell::Mem(1), 9)])); // conflicting commit, seq 0
        assert_eq!(
            cells_to_recheck(&live_ins, &[], &log, 0),
            vec![Cell::Mem(1)],
            "summary older than a conflicting commit must be re-checked"
        );
        // A summary taken *after* that commit saw it: nothing to re-check.
        assert!(cells_to_recheck(&live_ins, &[], &log, 1).is_empty());
        // Worker-reported failures are re-checked regardless of staleness.
        assert_eq!(
            cells_to_recheck(&live_ins, &[Cell::Reg(Reg::A0)], &log, 1),
            vec![Cell::Reg(Reg::A0)]
        );
        // Both sources merge, sorted and deduplicated.
        let both = cells_to_recheck(&live_ins, &[Cell::Mem(1), Cell::Reg(Reg::A0)], &log, 0);
        assert_eq!(both, vec![Cell::Reg(Reg::A0), Cell::Mem(1)]);
    }

    #[test]
    fn window_pruned_past_task_forces_full_recheck() {
        // Regression: a task spawned at seq 0, then the window is
        // compacted to start = 2 — dropping a seq-1 commit that wrote one
        // of the task's live-ins. The old `saturating_sub` clamped the
        // suffix probe to the window head, found no intersection in the
        // *retained* entries, and trusted a summary that never saw the
        // conflicting commit.
        let live_ins: Delta = [(Cell::Mem(1), 5), (Cell::Reg(Reg::A0), 2)]
            .into_iter()
            .collect();
        let mut arena = DeltaArena::new();
        let mut log = CommitLog::new();
        log.push(delta(&[(Cell::Mem(7), 1)])); // seq 0: disjoint
        log.push(delta(&[(Cell::Mem(1), 9)])); // seq 1: conflicts!
        log.push(delta(&[(Cell::Mem(8), 2)])); // seq 2: disjoint
        log.compact(2, &mut arena); // prune past the in-flight task

        // seq 0 predates the window: every live-in must be re-checked
        // even though the retained suffix intersects none of them.
        assert_eq!(
            cells_to_recheck(&live_ins, &[], &log, 0),
            vec![Cell::Reg(Reg::A0), Cell::Mem(1)],
            "a spawn seq below the window start demands a full re-check"
        );
        // At the window start the precise suffix probe still applies.
        assert!(cells_to_recheck(&live_ins, &[], &log, 2).is_empty());
    }

    #[test]
    fn pre_verify_resolves_view_over_base() {
        let mut base = MachineState::new();
        base.store_word(1, 10);
        base.store_word(2, 20);
        let view: Delta = [(Cell::Mem(2), 22)].into_iter().collect();
        // Live-ins matching view-over-base pass.
        let ok: Delta = [(Cell::Mem(1), 10), (Cell::Mem(2), 22)]
            .into_iter()
            .collect();
        assert!(pre_verify(&ok, Some(&view), &base).is_empty());
        // A live-in holding the *base* value of a view-overridden cell
        // fails: the task could not have read 20 from this view.
        let stale: Delta = [(Cell::Mem(2), 20)].into_iter().collect();
        assert_eq!(pre_verify(&stale, Some(&view), &base), vec![Cell::Mem(2)]);
        assert!(pre_verify(&stale, None, &base).is_empty());
    }

    /// A recompiler for tests: re-runs the pinned-boundary pipeline on
    /// the live profile at the requested tier.
    fn test_recompiler(p: &Program, d: &Distilled) -> Recompiler {
        let program = p.clone();
        let dcfg = DistillConfig::default();
        let boundaries = d.boundaries().clone();
        let crossings = d.crossings_per_task().max(1);
        Box::new(move |profile, tier| {
            redistill(
                &program,
                profile,
                &tier.apply(&dcfg),
                &boundaries,
                crossings,
            )
            .map_err(|e| e.to_string())
        })
    }

    #[test]
    fn adaptive_stationary_run_recompiles_nothing() {
        let (p, d) = fixture();
        let profile = Profile::collect(&p, u64::MAX).unwrap();
        let ctl = AdaptiveController::new(AdaptiveConfig::default(), &d, &profile);
        // A recompiler that must never run: stationary behaviour matching
        // the training profile gives the controller no reason to act.
        let rec: Recompiler = Box::new(|_, _| Err("recompiled a stationary run".into()));
        let run = run_threaded_adaptive(&p, &d, EngineConfig::default(), ctl, rec, true).unwrap();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
        let report = run.adaptive.expect("adaptive run carries a report");
        assert_eq!(report.recompilations(), 0, "{report:?}");
        assert_eq!(report.recompile_failures, 0, "{report:?}");
        assert_eq!(run.stats.swaps_installed, 0);
    }

    #[test]
    fn adaptive_forced_swap_installs_and_preserves_state() {
        let (p, d) = fixture();
        let profile = Profile::collect(&p, u64::MAX).unwrap();
        let config = AdaptiveConfig {
            force_swap_at: vec![(5, Tier::Fast), (10, Tier::Full)],
            ..AdaptiveConfig::default()
        };
        let ctl = AdaptiveController::new(config, &d, &profile);
        let rec = test_recompiler(&p, &d);
        let run = run_threaded_adaptive(&p, &d, EngineConfig::default(), ctl, rec, true).unwrap();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
        assert_eq!(run.stats.swaps_installed, 2, "{:?}", run.stats);
        assert_eq!(run.stats.recompilations_fast, 1);
        assert_eq!(run.stats.recompilations_full, 1);
        let report = run.adaptive.unwrap();
        assert_eq!(report.swaps.len(), 2);
        assert_eq!(report.swaps[0].tier, Tier::Fast);
        assert_eq!(report.swaps[0].at_committed_tasks, 5);
        assert_eq!(report.swaps[1].tier, Tier::Full);
    }

    #[test]
    fn adaptive_async_mode_stays_correct() {
        let (p, d) = fixture();
        let profile = Profile::collect(&p, u64::MAX).unwrap();
        let config = AdaptiveConfig {
            force_swap_at: vec![(5, Tier::Fast)],
            ..AdaptiveConfig::default()
        };
        let ctl = AdaptiveController::new(config, &d, &profile);
        let rec = test_recompiler(&p, &d);
        // Background recompilation: the swap may or may not land before
        // the run halts, but committed state is invariant either way.
        let run = run_threaded_adaptive(&p, &d, EngineConfig::default(), ctl, rec, false).unwrap();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
        assert!(run.adaptive.is_some());
    }

    /// A panicking recompiler ends the run with `WorkerDied` in both
    /// modes: on the background thread (async) and inline on the
    /// coordinator thread (synchronous), with every worker joined.
    #[test]
    fn panicking_recompiler_surfaces_as_worker_died_in_both_modes() {
        let (p, d) = fixture();
        let profile = Profile::collect(&p, u64::MAX).unwrap();
        for synchronous in [true, false] {
            let config = AdaptiveConfig {
                force_swap_at: vec![(5, Tier::Fast)],
                ..AdaptiveConfig::default()
            };
            let ctl = AdaptiveController::new(config, &d, &profile);
            let rec: Recompiler =
                Box::new(|_, _| -> Result<Distilled, String> { panic!("recompiler exploded") });
            let cfg = EngineConfig {
                num_slaves: 2,
                ..EngineConfig::default()
            };
            let err = run_threaded_adaptive(&p, &d, cfg, ctl, rec, synchronous).unwrap_err();
            assert_eq!(
                err,
                ThreadedError::WorkerDied,
                "synchronous = {synchronous}"
            );
        }
    }

    #[test]
    fn worker_panic_surfaces_as_worker_died() {
        let (tx, mut rx) = ring::mpsc::<CoordMsg>(8);
        std::thread::spawn(move || {
            let _guard = DeadManSwitch { tx };
            panic!("worker exploded");
        })
        .join()
        .unwrap_err();
        match rx.recv() {
            Ok(CoordMsg::ThreadDied) => {}
            _ => panic!("expected a ThreadDied obituary"),
        }
    }

    #[test]
    fn threaded_error_formats_and_converts() {
        let e: ThreadedError = EngineError::RecoveryLimit.into();
        assert_eq!(e, ThreadedError::Engine(EngineError::RecoveryLimit));
        assert!(e.to_string().contains("recovery"));
        assert!(ThreadedError::WorkerDied.to_string().contains("worker"));
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(ThreadedError::WorkerDied.source().is_none());
    }
}
