//! The MSSP engine: orchestrates master, slaves, and the verify/commit
//! unit.
//!
//! The engine is a deterministic discrete-time simulation. Components act
//! in a fixed priority order (recovery, verify unit, slaves, master) and
//! the cost model prices each event; under [`crate::UnitCost`] this
//! degenerates to a functional interleaving whose committed state — like
//! that of *any* cost model — equals the sequential machine's (the jumping
//! refinement of the formal model).
//!
//! The engine is the discrete driver of the protocol core (`protocol.rs`),
//! which the threaded executor drives too. The engine keeps only the
//! mechanism: the cost-model clock, the slave contexts, the task queue and
//! the [`verify_and_commit`] oracle verdict. Live-in prediction, commit
//! and squash accounting, recovery stepping, the throttle and hot-swap
//! decisions are the core's.
//!
//! ## Protocol summary
//!
//! * The **master** executes the distilled program; when it crosses a task
//!   boundary it spawns a task (start PC + predicted-write overlay) onto a
//!   free slave, stalling if none is free.
//! * **Slaves** execute original-program tasks against layered storage,
//!   recording live-ins, until they reach any boundary PC, `halt`, a
//!   fault, or the instruction cap.
//! * The **verify unit** processes tasks strictly in spawn order. The
//!   oldest task commits iff its start PC equals the architected PC and
//!   every recorded live-in matches architected state; its writes are then
//!   superimposed atomically. Any failure squashes the failed task, all
//!   younger tasks, and the master.
//! * **Recovery** re-executes the failed segment non-speculatively from
//!   architected state (buffered, committed atomically at the next
//!   boundary), and the master restarts from that consistent point —
//!   guaranteeing forward progress no matter how wrong the master is.

use std::collections::VecDeque;
use std::sync::Arc;

use mssp_distill::Distilled;
use mssp_isa::Program;
use mssp_machine::{step, Fault, MachineState};

use crate::adaptive::{AdaptiveController, AdaptiveReport, Recompiler};
use crate::master::{Master, MasterStall};
use crate::predictor::PredictorReport;
use crate::protocol::{Protocol, RecoverySegment};
use crate::task::{RegLayer, Task, TaskEnd, TaskId, TaskStatus};
use crate::{CoreRole, CostModel};

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of slave processors (the paper's CMP had one master plus
    /// slaves; 8 cores total is the reference configuration).
    pub num_slaves: usize,
    /// Hard cap on a task's instruction count; exceeding it marks the
    /// task overrun (squashed at verification).
    pub max_task_instrs: u64,
    /// Master instructions allowed without crossing a boundary before the
    /// master is declared lost (bounds run-away distilled loops).
    pub master_runahead: u64,
    /// Simulated-cycle budget; exceeding it aborts the run.
    pub max_cycles: u64,
    /// Instruction cap for a single recovery segment (a backstop against
    /// boundary-free infinite loops; the sequential program would not
    /// terminate either).
    pub max_recovery_instrs: u64,
    /// Ablation switch: degrade live-in tracking to whole-word granularity
    /// (recreates false sharing between tasks writing adjacent bytes).
    pub word_granular_live_ins: bool,
    /// Adaptive sequential fallback (the paper's dual-mode operation): if
    /// more than this many squash events occur within
    /// [`EngineConfig::throttle_window`] committed+squashed tasks, the
    /// master is kept offline for [`EngineConfig::throttle_duration`]
    /// recovery segments. `0` disables throttling.
    pub throttle_threshold: u32,
    /// Task window over which squashes are counted for throttling.
    pub throttle_window: u64,
    /// Recovery segments to run sequentially once throttled.
    pub throttle_duration: u64,
    /// Differential-testing aid for the threaded executor: cross-check
    /// every fast-path verify/commit decision against the
    /// [`verify_and_commit`] oracle on a cloned architected state and
    /// panic on any divergence (verdict or committed state). Expensive —
    /// it re-clones architected state per task — and therefore off by
    /// default; the discrete [`Engine`] ignores it (it *is* the oracle).
    pub cross_check_commits: bool,
    /// Live-in value prediction: when a per-(boundary, register) component
    /// predictor is confident, its value is injected into the spawned
    /// task's overlay, overriding the master's checkpoint for that cell.
    /// Injected values are read as live-ins and verified at commit, so a
    /// wrong prediction costs a squash, never correctness. The predictor
    /// trains only on architected values observed at verify time.
    pub enable_predictor: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            num_slaves: 7,
            max_task_instrs: 1 << 14,
            master_runahead: 1 << 17,
            max_cycles: u64::MAX / 2,
            max_recovery_instrs: u64::MAX / 2,
            word_granular_live_ins: false,
            throttle_threshold: 0,
            throttle_window: 64,
            throttle_duration: 16,
            cross_check_commits: false,
            enable_predictor: true,
        }
    }
}

/// Why a squash happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashReason {
    /// The oldest task's start PC did not match the architected PC (the
    /// master predicted the wrong next task).
    WrongPath,
    /// A recorded live-in disagreed with architected state.
    LiveInMismatch,
    /// The task exceeded its instruction cap.
    Overrun,
    /// The task faulted (illegal PC).
    Fault,
}

/// The outcome of presenting the oldest finished task to the verify
/// unit — see [`verify_and_commit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The task passed the memoization test: its writes were superimposed
    /// onto architected state and the PC advanced to `end_pc`.
    Commit {
        /// PC the architected state advanced to (the task's end PC).
        end_pc: u64,
        /// Whether the committed task executed `halt`.
        halted: bool,
    },
    /// The task failed verification; architected state is untouched.
    Squash(SquashReason),
}

/// The paper's verify/commit step, shared by the discrete-time [`Engine`]
/// and the threaded executor so the two stay behaviorally identical.
///
/// The oldest task commits iff it started at the architected PC, ended at
/// a boundary or `halt`, and every recorded live-in matches architected
/// state (the memoization test). On success the task's writes are applied
/// as one superimposition and the PC advances; on any failure `arch` is
/// left untouched and the caller must squash all younger tasks and run
/// recovery.
pub fn verify_and_commit(arch: &mut MachineState, task: &Task, end: TaskEnd) -> VerifyOutcome {
    if task.start_pc != arch.pc() {
        return VerifyOutcome::Squash(SquashReason::WrongPath);
    }
    match end {
        TaskEnd::Overrun => VerifyOutcome::Squash(SquashReason::Overrun),
        TaskEnd::Fault => VerifyOutcome::Squash(SquashReason::Fault),
        TaskEnd::Boundary(end_pc) | TaskEnd::Halted(end_pc) => {
            // Squash diagnostics need only one offending cell; the
            // iterator-based first-mismatch probe short-circuits without
            // allocating the full mismatch report (callers that want the
            // whole set — `Engine::enable_mismatch_samples` — still use
            // `mismatches_against`).
            if task.live_ins.first_mismatch_against(arch).is_some() {
                return VerifyOutcome::Squash(SquashReason::LiveInMismatch);
            }
            arch.apply(&task.writes);
            arch.set_pc(end_pc);
            VerifyOutcome::Commit {
                end_pc,
                halted: matches!(end, TaskEnd::Halted(_)),
            }
        }
    }
}

/// Aggregate statistics of one MSSP run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tasks spawned by the master.
    pub spawned_tasks: u64,
    /// Tasks that verified and committed.
    pub committed_tasks: u64,
    /// Instructions committed via tasks or recovery segments (equals the
    /// sequential instruction count of the program).
    pub committed_instructions: u64,
    /// Tasks squashed (all reasons).
    pub squashed_tasks: u64,
    /// Squash events caused by wrong-path task starts.
    pub squashes_wrong_path: u64,
    /// Squash events caused by live-in mismatches.
    pub squashes_live_in: u64,
    /// Of which events where a predictor-injected cell was among the
    /// mismatches (the predictor guessed wrong).
    pub squashes_live_in_predicted: u64,
    /// Of which events with no predictor involvement (the master's
    /// checkpoint was stale on its own).
    pub squashes_live_in_stale: u64,
    /// Squash events caused by task overruns.
    pub squashes_overrun: u64,
    /// Squash events caused by task faults.
    pub squashes_fault: u64,
    /// Non-speculative recovery segments executed.
    pub recovery_segments: u64,
    /// Instructions executed in recovery segments.
    pub recovery_instructions: u64,
    /// Distilled instructions executed by the master.
    pub master_instructions: u64,
    /// Original-program instructions executed speculatively by slaves.
    /// The threaded executor counts them from every result the
    /// coordinator receives; results still in flight at shutdown are not
    /// counted.
    pub slave_instructions: u64,
    /// Speculative slave instructions discarded by squashes and hot-swaps
    /// (threaded executor: by the results it discards).
    pub wasted_slave_instructions: u64,
    /// Sum over committed tasks of live-in cells (bandwidth proxy).
    pub live_in_cells: u64,
    /// Of which register cells.
    pub live_in_reg_cells: u64,
    /// Of which memory cells.
    pub live_in_mem_cells: u64,
    /// Sum over committed tasks of live-out cells.
    pub live_out_cells: u64,
    /// Largest committed live-in set.
    pub max_live_in_cells: u64,
    /// Cycles the master spent executing or spawning.
    pub master_busy_cycles: u64,
    /// Cycles slaves spent executing task instructions.
    pub slave_busy_cycles: u64,
    /// Cycles spent in recovery execution.
    pub recovery_busy_cycles: u64,
    /// Cycles the verify unit spent verifying and committing.
    pub verify_busy_cycles: u64,
    /// Times the adaptive throttle took the master offline.
    pub throttle_events: u64,
    /// Tasks committed entirely on worker pre-verification — the
    /// coordinator re-checked **zero** live-ins against architected state
    /// (threaded executor fast path).
    pub pre_verified_tasks: u64,
    /// Live-in cells the verify unit re-checked against architected
    /// state. The discrete engine re-checks every recorded live-in; the
    /// threaded fast path re-checks only pre-verification failures and
    /// cells dirtied by commits after the task's spawn snapshot.
    pub live_ins_rechecked: u64,
    /// Live-in cells the verify unit skipped because worker-side
    /// pre-verification already proved them (threaded executor only).
    pub live_ins_skipped: u64,
    /// Full architected-state snapshots materialized for publication
    /// (threaded executor; squashes and chain-threshold crossings).
    pub snapshots_materialized: u64,
    /// Commits published to workers as an incremental write delta on the
    /// commit log instead of a fresh snapshot (threaded executor).
    pub deltas_published: u64,
    /// Live-in cells whose checkpoint value was overridden by the value
    /// predictor at spawn.
    pub predictor_overrides: u64,
    /// Predictor-injected cells that a committed task actually read (the
    /// prediction survived verification).
    pub predictor_hits: u64,
    /// Predictor-injected cells found among the mismatches of a live-in
    /// squash (the prediction was wrong).
    pub predictor_misses: u64,
    /// Spawns the master suppressed because a spawn-guard slice resolved
    /// an asserted branch against its assertion inside the task window
    /// (each veto hands the window to a sequential recovery segment).
    pub spawn_vetoes: u64,
    /// Fast-tier (DCE-only) adaptive recompilations that produced a
    /// valid, installed candidate.
    pub recompilations_fast: u64,
    /// Full-pipeline adaptive recompilations that produced a valid,
    /// installed candidate.
    pub recompilations_full: u64,
    /// Distilled-program hot-swaps installed at task boundaries.
    pub swaps_installed: u64,
    /// In-flight tasks abandoned by hot-swaps (counted separately from
    /// squashes: a swap is not a misprediction, and the squash-rate
    /// gates must not see it as one).
    pub swap_abandoned_tasks: u64,
}

impl EngineStats {
    /// Fraction of speculative slave work that was wasted.
    #[must_use]
    pub fn waste_fraction(&self) -> f64 {
        if self.slave_instructions == 0 {
            0.0
        } else {
            self.wasted_slave_instructions as f64 / self.slave_instructions as f64
        }
    }

    /// Fraction of verified predictor injections that turned out correct
    /// (`hits / (hits + misses)`); `0.0` when nothing was ever verified.
    /// Never NaN, for the same gate-comparison reason as
    /// [`EngineStats::recheck_ratio`].
    #[must_use]
    pub fn predictor_accuracy(&self) -> f64 {
        let verified = self.predictor_hits + self.predictor_misses;
        if verified == 0 {
            0.0
        } else {
            self.predictor_hits as f64 / verified as f64
        }
    }

    /// Total squash events.
    #[must_use]
    pub fn squash_events(&self) -> u64 {
        self.squashes_wrong_path
            + self.squashes_live_in
            + self.squashes_overrun
            + self.squashes_fault
    }

    /// Fraction of committed instructions that came from (sequential)
    /// recovery segments rather than parallel tasks.
    #[must_use]
    pub fn recovery_fraction(&self) -> f64 {
        if self.committed_instructions == 0 {
            0.0
        } else {
            self.recovery_instructions as f64 / self.committed_instructions as f64
        }
    }

    /// Verify-unit occupancy: the fraction of presented live-in cells the
    /// coordinator actually re-checked against architected state
    /// (re-checked / (re-checked + skipped)). `1.0` for the discrete
    /// engine, which re-checks everything; the threaded fast path drives
    /// this down toward the true cross-task conflict rate.
    ///
    /// A run that presented no live-ins at all (zero committed tasks, or
    /// squash-only runs where every task died before verification)
    /// reports `0.0`: no re-check work happened. This must never be NaN —
    /// the benchmark gates compare it with `<=`, and NaN would make a
    /// `--max-recheck-ratio` gate silently pass or fail on IEEE
    /// comparison semantics rather than on the measurement.
    #[must_use]
    pub fn recheck_ratio(&self) -> f64 {
        let presented = self.live_ins_rechecked + self.live_ins_skipped;
        if presented == 0 {
            0.0
        } else {
            self.live_ins_rechecked as f64 / presented as f64
        }
    }
}

/// Result of a completed MSSP run.
#[derive(Debug, Clone)]
pub struct MsspRun {
    /// Simulated cycles from boot to architectural halt.
    pub cycles: u64,
    /// The final architected state.
    pub state: MachineState,
    /// Run statistics.
    pub stats: EngineStats,
    /// Architected PCs at each commit point, if tracing was enabled with
    /// [`Engine::enable_commit_trace`]. The jumping-refinement property:
    /// this is always a subsequence of the sequential machine's PC trace.
    pub commit_trace: Option<Vec<u64>>,
    /// Live-in mismatch samples, if enabled with
    /// [`Engine::enable_mismatch_samples`].
    pub mismatch_samples: Option<Vec<MismatchSample>>,
    /// All-cause squash samples, if enabled with
    /// [`Engine::enable_squash_samples`].
    pub squash_samples: Option<Vec<SquashSample>>,
    /// Committed task sizes, if enabled with
    /// [`Engine::enable_task_size_trace`].
    pub task_sizes: Option<Vec<u64>>,
    /// Final accuracy summary of the live-in value predictor (all zeros
    /// when the predictor was disabled or never trained).
    pub predictor_report: PredictorReport,
    /// Adaptive re-distillation summary, if enabled with
    /// [`Engine::enable_adaptive`].
    pub adaptive: Option<AdaptiveReport>,
}

/// Engine failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// Exceeded [`EngineConfig::max_cycles`].
    CycleLimit,
    /// The *original* program faulted during non-speculative recovery —
    /// a genuine program error, not a speculation artifact.
    RecoveryFault(Fault),
    /// A recovery segment exceeded [`EngineConfig::max_recovery_instrs`].
    RecoveryLimit,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::CycleLimit => write!(f, "simulated cycle budget exceeded"),
            EngineError::RecoveryFault(fault) => {
                write!(f, "original program faulted in recovery: {fault}")
            }
            EngineError::RecoveryLimit => write!(f, "recovery segment exceeded instruction cap"),
        }
    }
}

impl std::error::Error for EngineError {}

#[derive(Debug)]
struct SlaveCtx {
    busy_until: u64,
    task: Option<TaskId>,
    /// The slave's register file: the register layer of its current task.
    regs: RegLayer,
}

/// The MSSP machine.
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_analysis::Profile;
/// use mssp_distill::{distill, DistillConfig};
/// use mssp_core::{Engine, EngineConfig, UnitCost};
/// use mssp_machine::SeqMachine;
///
/// let p = assemble(
///     "main: addi s0, zero, 200
///      loop: add  s1, s1, s0
///            addi s0, s0, -1
///            bnez s0, loop
///            halt",
/// ).unwrap();
/// let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
/// let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
///
/// let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
///     .run()
///     .unwrap();
///
/// // MSSP's committed state equals the sequential machine's.
/// let mut seq = SeqMachine::boot(&p);
/// seq.run(u64::MAX).unwrap();
/// assert_eq!(run.state.reg(mssp_isa::Reg::S1), seq.state().reg(mssp_isa::Reg::S1));
/// ```
#[derive(Debug)]
pub struct Engine<'a, C> {
    original: &'a Program,
    distilled: &'a Distilled,
    config: EngineConfig,
    cost: C,

    now: u64,
    arch: MachineState,

    master: Master,
    master_busy_until: u64,
    master_since_spawn: u64,
    last_spawned: Option<u64>,

    tasks: VecDeque<Task>,
    slaves: Vec<SlaveCtx>,
    recovery: Option<RecoverySegment>,
    recovery_busy_until: u64,
    verify_busy_until: u64,

    next_task_id: u64,
    /// Every protocol decision and shared counter; this driver supplies
    /// the cost-model clock and the oracle verdict.
    protocol: Protocol,
    /// The currently hot-swapped distilled program; `None` means the
    /// offline program the engine was built with is still installed.
    swapped: Option<Arc<Distilled>>,
}

/// A recorded live-in verification failure (diagnostics).
#[derive(Debug, Clone)]
pub struct MismatchSample {
    /// The failing task's start PC (original space).
    pub start_pc: u64,
    /// Instructions the task had executed.
    pub executed: u64,
    /// Mismatching cells: `(cell, predicted, architected)`.
    pub cells: Vec<(mssp_machine::Cell, u64, u64)>,
}

/// A recorded squash event of any cause (diagnostics): what the verify
/// unit saw when it killed the task window. Richer than
/// [`MismatchSample`] — wrong-path events carry the architected PC the
/// master failed to predict, which is what the next-task predictor
/// trains on.
#[derive(Debug, Clone)]
pub struct SquashSample {
    /// Why the squash happened.
    pub reason: SquashReason,
    /// The failing task's start PC (original space).
    pub task_start_pc: u64,
    /// The architected PC at squash time (where execution really was).
    pub arch_pc: u64,
    /// Instructions the failing task had executed.
    pub executed: u64,
    /// Mismatching live-in cells `(cell, predicted, architected)`;
    /// non-empty only for [`SquashReason::LiveInMismatch`].
    pub cells: Vec<(mssp_machine::Cell, u64, u64)>,
}

impl<'a, C: CostModel> Engine<'a, C> {
    /// Creates an engine booted at the original program's entry.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_slaves` is zero.
    #[must_use]
    pub fn new(
        original: &'a Program,
        distilled: &'a Distilled,
        config: EngineConfig,
        cost: C,
    ) -> Engine<'a, C> {
        assert!(config.num_slaves > 0, "MSSP needs at least one slave");
        let arch = MachineState::boot(original);
        let master = Master::restart_at(distilled, arch.pc(), true, arch.clone());
        Engine {
            original,
            distilled,
            config,
            cost,
            now: 0,
            arch,
            master,
            master_busy_until: 0,
            master_since_spawn: 0,
            last_spawned: None,
            tasks: VecDeque::new(),
            slaves: (0..config.num_slaves)
                .map(|_| SlaveCtx {
                    busy_until: 0,
                    task: None,
                    regs: RegLayer::default(),
                })
                .collect(),
            recovery: None,
            recovery_busy_until: 0,
            verify_busy_until: 0,
            next_task_id: 0,
            protocol: Protocol::new(distilled, config),
            swapped: None,
        }
    }

    /// Enables online adaptive re-distillation: `controller` detects
    /// divergence and paces the tier state machine, `recompiler`
    /// produces candidate programs from the live profile (callers wire
    /// it to `mssp-lint`'s `redistill_validated`, so every candidate
    /// passes the soundness gate). The discrete engine recompiles
    /// synchronously at the requesting task boundary — deterministically,
    /// for differential testing against the threaded executor.
    pub fn enable_adaptive(&mut self, controller: AdaptiveController, recompiler: Recompiler) {
        self.protocol.enable_adaptive(controller, Some(recompiler));
    }

    /// The distilled program the master is currently running (the latest
    /// hot-swap, or the offline program).
    #[must_use]
    pub fn current_distilled(&self) -> &Distilled {
        self.swapped.as_deref().unwrap_or(self.distilled)
    }

    /// Enables recording of every committed task's instruction count (for
    /// task-size distribution studies).
    pub fn enable_task_size_trace(&mut self) {
        self.protocol.task_sizes = Some(Vec::new());
    }

    /// Enables recording of live-in mismatch samples (first `cap` squash
    /// events), for distillation diagnostics.
    pub fn enable_mismatch_samples(&mut self, cap: usize) {
        self.protocol.mismatch_samples = Some(Vec::with_capacity(cap.min(1024)));
    }

    /// Enables recording of all-cause squash samples (first `cap` squash
    /// events), for squash-attribution diagnostics.
    pub fn enable_squash_samples(&mut self, cap: usize) {
        self.protocol.squash_samples = Some(Vec::with_capacity(cap.min(1024)));
    }

    /// Enables recording of the architected PC at every commit point.
    /// Used by the jumping-refinement tests: the recorded sequence must be
    /// a subsequence of the sequential machine's PC trace.
    pub fn enable_commit_trace(&mut self) {
        self.protocol.commit_trace = Some(vec![self.arch.pc()]);
    }

    /// The recorded commit trace, if enabled.
    #[must_use]
    pub fn commit_trace(&self) -> Option<&[u64]> {
        self.protocol.commit_trace.as_deref()
    }

    /// The recorded mismatch samples, if enabled (drain before `run`
    /// consumes the engine via [`MsspRun::mismatch_samples`]).
    #[must_use]
    pub fn mismatch_samples(&self) -> Option<&[MismatchSample]> {
        self.protocol.mismatch_samples.as_deref()
    }

    /// Runs the machine to architectural halt.
    ///
    /// # Errors
    ///
    /// See [`EngineError`].
    pub fn run(self) -> Result<MsspRun, EngineError> {
        self.run_returning_cost().map(|(run, _)| run)
    }

    /// Like [`Engine::run`], additionally returning the cost model so
    /// callers can read the microarchitectural counters it accumulated.
    ///
    /// # Errors
    ///
    /// See [`EngineError`].
    pub fn run_returning_cost(mut self) -> Result<(MsspRun, C), EngineError> {
        while !self.protocol.halted() {
            if self.now > self.config.max_cycles {
                return Err(EngineError::CycleLimit);
            }
            let mut acted = false;
            acted |= self.act_recovery()?;
            if !self.protocol.halted() {
                acted |= self.act_verify();
            }
            if !self.protocol.halted() {
                for s in 0..self.slaves.len() {
                    acted |= self.act_slave(s);
                }
                acted |= self.act_master();
            }
            if !acted && !self.protocol.halted() {
                self.advance_time();
            }
        }
        self.protocol.stats.spawn_vetoes += self.master.take_vetoed_spawns();
        Ok((self.protocol.into_run(self.now, self.arch), self.cost))
    }

    // ---- components -----------------------------------------------------

    fn act_recovery(&mut self) -> Result<bool, EngineError> {
        let Some(seg) = &mut self.recovery else {
            return Ok(false);
        };
        if self.now < self.recovery_busy_until {
            return Ok(false);
        }
        let (info, done) = self
            .protocol
            .step_recovery(seg, self.original, &self.arch)?;
        let cost = self.cost.instr_cost(CoreRole::Recovery(0), &info).max(1);
        self.recovery_busy_until = self.now + cost;
        self.protocol.stats.recovery_busy_cycles += cost;
        if done {
            let seg = self.recovery.take().expect("recovery active");
            // Restart the master at this *consistent* architected point.
            // (Restarting it at squash time, concurrently with recovery,
            // lets the master lazily read a torn mixture of pre- and
            // post-recovery architected values and desynchronize by one
            // segment on every squash.)
            if self.protocol.finish_recovery(seg, &mut self.arch) {
                if self.master.status() != MasterStall::Active {
                    self.restart_master();
                }
                // A recovery end is a consistent task boundary — the
                // second swap point (alongside commits).
                self.try_adaptive_swap();
            }
        }
        Ok(true)
    }

    fn act_verify(&mut self) -> bool {
        if self.recovery.is_some() || self.now < self.verify_busy_until {
            return false;
        }
        let Some(task) = self.tasks.front() else {
            return false;
        };
        // Wrong-path detection does not wait for the task to finish.
        let reason = if task.start_pc == self.arch.pc() {
            let TaskStatus::Done { end, done_at } = task.status else {
                return false;
            };
            if self.now < done_at {
                return false;
            }
            match verify_and_commit(&mut self.arch, task, end) {
                VerifyOutcome::Squash(reason) => reason,
                VerifyOutcome::Commit { end_pc, halted } => {
                    self.commit(end_pc, halted);
                    return true;
                }
            }
        } else {
            SquashReason::WrongPath
        };
        let killed = self.tasks.len() as u64;
        self.protocol.squash(reason, task, &self.arch, killed);
        self.squash_and_recover();
        true
    }

    /// Accounts for the oldest task, whose writes `verify_and_commit` has
    /// just superimposed onto architected state.
    fn commit(&mut self, end_pc: u64, halted: bool) {
        let task = self.tasks.pop_front().expect("front exists");
        let vcost = self.cost.verify_cost(task.live_ins.len());
        let ccost = self.cost.commit_cost(task.writes.len());
        self.verify_busy_until = self.now + vcost + ccost;
        self.protocol.stats.verify_busy_cycles += vcost + ccost;
        // The discrete verify unit re-checks every recorded live-in (no
        // worker-side pre-verification here).
        self.protocol.stats.live_ins_rechecked += task.live_ins.len() as u64;
        self.protocol.commit(&task, end_pc, halted);
        self.master.on_commit(task.id.0);
        self.slaves[task.slave].task = None;
        if !halted {
            // Commits are the primary swap point: architected state sits
            // at a consistent task boundary.
            self.try_adaptive_swap();
        }
    }

    fn act_slave(&mut self, s: usize) -> bool {
        if self.now < self.slaves[s].busy_until {
            return false;
        }
        let Some(tid) = self.slaves[s].task else {
            return false;
        };
        let task = self
            .tasks
            .iter_mut()
            .find(|t| t.id == tid)
            .expect("slave task exists");
        if task.is_done() {
            return false;
        }
        let pc = task.pc;
        let word_granular = self.config.word_granular_live_ins;
        let slave = &mut self.slaves[s];
        let result = {
            let mut storage =
                task.storage_with_granularity(&mut slave.regs, &self.arch, word_granular);
            step(&mut storage, self.original, pc)
        };
        match result {
            Err(_) => {
                // A fault on a speculative path is a task outcome, not an
                // engine error.
                task.finish(&mut slave.regs, TaskEnd::Fault, self.now + 1);
                slave.busy_until = self.now + 1;
                true
            }
            Ok(info) => {
                let cost = self.cost.instr_cost(CoreRole::Slave(s), &info).max(1);
                slave.busy_until = self.now + cost;
                self.protocol.stats.slave_busy_cycles += cost;
                if info.halted {
                    task.finish(&mut slave.regs, TaskEnd::Halted(pc), slave.busy_until);
                    return true;
                }
                task.executed += 1;
                task.pc = info.next_pc;
                self.protocol.stats.slave_instructions += 1;
                if self.protocol.boundaries.contains(info.next_pc) {
                    task.crossings += 1;
                }
                if task.crossings >= self.protocol.crossings_per_task {
                    let end = TaskEnd::Boundary(info.next_pc);
                    task.finish(&mut slave.regs, end, slave.busy_until);
                } else if task.executed >= self.config.max_task_instrs {
                    task.finish(&mut slave.regs, TaskEnd::Overrun, slave.busy_until);
                }
                true
            }
        }
    }

    fn act_master(&mut self) -> bool {
        if self.now < self.master_busy_until || self.master.status() != MasterStall::Active {
            return false;
        }
        if self.master.pending_spawn().is_some() {
            let Some(slave) = self.free_slave() else {
                return false; // stall until a slave frees up
            };
            let (start, mut overlay) = self.master.take_spawn(self.last_spawned);
            let cells: usize = overlay.first().map(|d| d.len()).unwrap_or(0);
            let predicted = self.protocol.spawn(start, &mut overlay);
            let id = TaskId(self.next_task_id);
            self.next_task_id += 1;
            let mut task = Task::new(id, start, slave, overlay);
            task.predicted = predicted;
            self.tasks.push_back(task);
            let dispatch = self.cost.dispatch_latency(cells);
            self.slaves[slave].task = Some(id);
            self.slaves[slave].regs = RegLayer::default();
            self.slaves[slave].busy_until = self.now + dispatch;
            let spawn = self.cost.spawn_overhead(cells);
            self.master_busy_until = self.now + spawn;
            self.protocol.stats.master_busy_cycles += spawn;
            self.last_spawned = Some(id.0);
            self.master_since_spawn = 0;
            return true;
        }
        if self.master_since_spawn > self.config.master_runahead {
            self.master.mark_lost();
            return true;
        }
        match self
            .master
            .step(self.swapped.as_deref().unwrap_or(self.distilled))
        {
            Some(info) => {
                let cost = self.cost.instr_cost(CoreRole::Master, &info).max(1);
                self.master_busy_until = self.now + cost;
                self.protocol.stats.master_busy_cycles += cost;
                self.protocol.stats.master_instructions += 1;
                self.master_since_spawn += 1;
                true
            }
            None => false,
        }
    }

    // ---- squash, recovery & hot-swap -------------------------------------

    fn squash_and_recover(&mut self) {
        self.abandon_tasks();
        self.cost.on_squash(CoreRole::Master);
        let penalty = self.cost.squash_penalty();
        self.verify_busy_until = self.now + penalty;
        self.protocol.stats.verify_busy_cycles += penalty;
        // The master stays down until recovery reaches the next boundary
        // and reseeds it from the then-consistent architected state.
        self.master.mark_lost();
        self.master_busy_until = self.now + penalty;
        self.master_since_spawn = 0;
        self.last_spawned = None;
        self.start_recovery(self.now + penalty);
    }

    /// Drops every in-flight task (a squash or a hot-swap), freeing the
    /// slaves; their executed instructions were wasted.
    fn abandon_tasks(&mut self) {
        for task in &self.tasks {
            self.protocol.stats.wasted_slave_instructions += task.executed;
        }
        for (i, slave) in self.slaves.iter_mut().enumerate() {
            if slave.task.take().is_some() {
                self.cost.on_squash(CoreRole::Slave(i));
                slave.busy_until = self.now;
            }
        }
        self.tasks.clear();
    }

    fn start_recovery(&mut self, busy_until: u64) {
        self.recovery = Some(self.protocol.begin_recovery(self.arch.pc()));
        self.recovery_busy_until = busy_until;
    }

    fn restart_master(&mut self) {
        self.protocol.stats.spawn_vetoes += self.master.take_vetoed_spawns();
        let cur = self.swapped.as_deref().unwrap_or(self.distilled);
        self.master = Master::restart_at(cur, self.arch.pc(), true, self.arch.clone());
        self.master_busy_until = self.now;
        self.master_since_spawn = 0;
        self.last_spawned = None;
    }

    /// Serves an outstanding recompile request inline and installs a
    /// validated candidate at this task boundary: in-flight tasks are
    /// abandoned like a squash (their predictions came from the outgoing
    /// program) and the master restarts on the new program. No recovery
    /// segment is needed — architected state already sits at a consistent
    /// task boundary.
    fn try_adaptive_swap(&mut self) {
        let abandoned = self.tasks.len() as u64;
        if let Some(d) = self.protocol.recompile_inline(abandoned) {
            self.abandon_tasks();
            self.swapped = Some(d);
            self.restart_master();
        }
    }

    // ---- time ------------------------------------------------------------

    fn free_slave(&self) -> Option<usize> {
        self.slaves.iter().position(|s| s.task.is_none())
    }

    fn advance_time(&mut self) {
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            next = Some(match next {
                Some(n) => n.min(t),
                None => t,
            });
        };
        if self.recovery.is_some() {
            consider(self.recovery_busy_until);
        } else if let Some(task) = self.tasks.front() {
            match task.status {
                TaskStatus::Done { done_at, .. } => {
                    consider(self.verify_busy_until.max(done_at));
                }
                TaskStatus::Running if task.start_pc != self.arch.pc() => {
                    consider(self.verify_busy_until);
                }
                TaskStatus::Running => {}
            }
        }
        for slave in &self.slaves {
            if let Some(tid) = slave.task {
                let running = self
                    .tasks
                    .iter()
                    .find(|t| t.id == tid)
                    .is_some_and(|t| !t.is_done());
                if running {
                    consider(slave.busy_until);
                }
            }
        }
        if self.master.status() == MasterStall::Active {
            let can_spawn = self.master.pending_spawn().is_none() || self.free_slave().is_some();
            if can_spawn {
                consider(self.master_busy_until);
            }
        }
        match next {
            Some(t) => self.now = self.now.max(t).max(self.now + 1),
            // No tasks, no recovery, master unable to produce work:
            // execute the next segment non-speculatively.
            None => self.start_recovery(self.now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitCost;
    use mssp_analysis::Profile;
    use mssp_distill::{distill, DistillConfig, DistillLevel, Distilled};
    use mssp_isa::asm::assemble;
    use mssp_isa::Reg;
    use mssp_machine::SeqMachine;
    use std::collections::{BTreeMap, BTreeSet};

    fn seq_state(p: &Program) -> MachineState {
        let mut m = SeqMachine::boot(p);
        m.run(u64::MAX).unwrap();
        let mut s = m.into_state();
        // The engine's final state has the halt PC; SeqMachine leaves the
        // PC at the halt instruction as well.
        let pc = s.pc();
        s.set_pc(pc);
        s
    }

    fn mssp_run(p: &Program, d: &Distilled, slaves: usize) -> MsspRun {
        let config = EngineConfig {
            num_slaves: slaves,
            ..EngineConfig::default()
        };
        Engine::new(p, d, config, UnitCost).run().unwrap()
    }

    const SUM: &str = "
        main: addi s0, zero, 300
        loop: add  s1, s1, s0
              addi s0, s0, -1
              bnez s0, loop
              halt";

    #[test]
    fn matches_sequential_on_simple_loop() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let run = mssp_run(&p, &d, 4);
        let seq = seq_state(&p);
        assert_eq!(run.state.reg(Reg::S1), seq.reg(Reg::S1));
        assert!(run.stats.committed_tasks > 1, "{:?}", run.stats);
        assert_eq!(run.stats.squash_events(), 0);
    }

    #[test]
    fn commits_equal_sequential_instruction_count() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let run = mssp_run(&p, &d, 4);
        let mut m = SeqMachine::boot(&p);
        m.run(u64::MAX).unwrap();
        assert_eq!(run.stats.committed_instructions, m.instructions());
    }

    #[test]
    fn works_with_single_slave() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let run = mssp_run(&p, &d, 1);
        assert_eq!(run.state.reg(Reg::S1), seq_state(&p).reg(Reg::S1));
    }

    #[test]
    fn conservative_and_aggressive_levels_agree_on_state() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        for level in DistillLevel::all() {
            let d = distill(&p, &prof, &DistillConfig::at_level(level)).unwrap();
            let run = mssp_run(&p, &d, 4);
            assert_eq!(
                run.state.reg(Reg::S1),
                seq_state(&p).reg(Reg::S1),
                "level {level}"
            );
        }
    }

    /// An adversarial master: the distilled "program" is complete garbage
    /// (it writes wrong values everywhere and spawns at the right
    /// boundary). Correctness must be unaffected — only performance.
    #[test]
    fn garbage_master_cannot_corrupt_architected_state() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let honest = distill(&p, &prof, &DistillConfig::default()).unwrap();

        // Build a lying master: same boundary set, but the code just
        // scribbles wrong values into the loop registers forever.
        let loop_pc = p.symbol("loop").unwrap();
        let evil_src = "
            main: addi s1, zero, 123
            evil: addi s0, zero, 77
                  addi s1, s1, 13
                  j evil";
        let evil = assemble(evil_src).unwrap();
        // Remap: entry -> evil entry, loop boundary -> the `evil` block.
        let evil_block = evil.symbol("evil").unwrap();
        let mut map = BTreeMap::new();
        map.insert(p.entry(), evil.entry());
        map.insert(loop_pc, evil_block);
        let d = Distilled::from_parts(evil, honest.boundaries().clone(), map);
        let run = mssp_run(&p, &d, 4);
        let seq = seq_state(&p);
        assert_eq!(run.state.reg(Reg::S1), seq.reg(Reg::S1));
        assert_eq!(run.state.reg(Reg::S0), seq.reg(Reg::S0));
        // The lying master caused squashes and recovery did the work.
        assert!(run.stats.squash_events() > 0 || run.stats.recovery_segments > 0);
    }

    /// A master that halts immediately: everything must fall back to
    /// sequential recovery segments.
    #[test]
    fn dead_master_degrades_to_sequential() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let honest = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let dead = assemble("main: halt").unwrap();
        let mut map = BTreeMap::new();
        map.insert(p.entry(), dead.entry());
        let d = Distilled::from_parts(dead, honest.boundaries().clone(), map);
        let run = mssp_run(&p, &d, 4);
        assert_eq!(run.state.reg(Reg::S1), seq_state(&p).reg(Reg::S1));
        assert!(run.stats.recovery_instructions > 0);
    }

    /// No boundaries at all: the first (and only) task runs from entry
    /// clear to `halt` and commits — MSSP degenerates gracefully.
    #[test]
    fn empty_boundary_set_still_terminates_correctly() {
        let p = assemble(SUM).unwrap();
        let dead = assemble("main: halt").unwrap();
        let mut map = BTreeMap::new();
        map.insert(p.entry(), dead.entry());
        let d = Distilled::from_parts(dead, BTreeSet::new(), map);
        let run = mssp_run(&p, &d, 2);
        assert_eq!(run.state.reg(Reg::S1), seq_state(&p).reg(Reg::S1));
    }

    #[test]
    fn commit_trace_is_subsequence_of_seq_trace() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let mut engine = Engine::new(
            &p,
            &d,
            EngineConfig {
                num_slaves: 3,
                ..EngineConfig::default()
            },
            UnitCost,
        );
        engine.enable_commit_trace();
        let run = engine.run().unwrap();

        // Jumping refinement: commit points appear in order within the
        // sequential trace (and final state matches). The typed checker
        // reports `CommitOutOfOrder` instead of panicking mid-test.
        crate::check_refinement(&p, &run).expect("commit trace refines SEQ");
        let trace = run.commit_trace.expect("tracing enabled");
        assert!(trace.len() > 2, "expected several commit points");
    }

    #[test]
    fn memory_carrying_loop_matches_sequential() {
        // Tasks communicate through memory (a running prefix sum), so
        // every task's live-ins include the previous task's stores.
        let src = "
            main:  li   s2, 0x200000
                   addi s0, zero, 120
            loop:  ld   s1, 0(s2)
                   add  s1, s1, s0
                   sd   s1, 0(s2)
                   sd   s1, 8(s2)
                   addi s2, s2, 8
                   addi s0, s0, -1
                   bnez s0, loop
                   halt";
        let p = assemble(src).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let run = mssp_run(&p, &d, 4);
        let seq = seq_state(&p);
        assert_eq!(run.state.reg(Reg::S1), seq.reg(Reg::S1));
        // Compare the written memory region too.
        for w in (0x200000u64 >> 3)..((0x200000u64 >> 3) + 130) {
            assert_eq!(run.state.load_word(w), seq.load_word(w), "word {w:#x}");
        }
    }

    #[test]
    fn cycle_limit_reported() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let config = EngineConfig {
            max_cycles: 10,
            ..EngineConfig::default()
        };
        let err = Engine::new(&p, &d, config, UnitCost).run().unwrap_err();
        assert_eq!(err, EngineError::CycleLimit);
    }

    #[test]
    fn stats_waste_and_recovery_fractions_bounded() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let run = mssp_run(&p, &d, 4);
        assert!((0.0..=1.0).contains(&run.stats.waste_fraction()));
        assert!((0.0..=1.0).contains(&run.stats.recovery_fraction()));
    }

    #[test]
    fn recheck_ratio_is_zero_not_nan_when_nothing_was_presented() {
        // Regression: with no live-ins presented (zero-task or
        // squash-only runs) the ratio used to be the 0/0 branch; it must
        // be exactly 0.0 — never NaN, never a placeholder 1.0 — so
        // `--max-recheck-ratio` gates compare a real number.
        let stats = EngineStats::default();
        assert_eq!(stats.live_ins_rechecked + stats.live_ins_skipped, 0);
        let ratio = stats.recheck_ratio();
        assert!(!ratio.is_nan());
        assert_eq!(ratio, 0.0);
        // And a populated run still reports the true fraction.
        let populated = EngineStats {
            live_ins_rechecked: 1,
            live_ins_skipped: 3,
            ..EngineStats::default()
        };
        assert_eq!(populated.recheck_ratio(), 0.25);
    }

    #[test]
    fn predictor_rescues_commits_from_a_clobbering_master() {
        // The master clobbers s2 inside the loop while the original
        // holds it at 9: every checkpoint is wrong on s2, so every task
        // live-in-mismatches until the last-value predictor saturates on
        // the constant architected value and overrides the checkpoint at
        // spawn — from then on tasks commit on the injected prediction.
        let p = assemble(
            "main: addi s2, zero, 9
                   addi s0, zero, 200
             loop: add  t0, s2, s0
                   sd   t0, -8(sp)
                   addi s0, s0, -1
                   bnez s0, loop
                   ld   s1, -8(sp)
                   halt",
        )
        .unwrap();
        let wrong = assemble(
            "main: addi s2, zero, 9
                   addi s0, zero, 200
             loop: addi s2, zero, 77
                   addi s0, s0, -1
                   j    loop",
        )
        .unwrap();
        let boundary = p.symbol("loop").unwrap();
        let d = Distilled::from_parts(
            wrong.clone(),
            BTreeSet::from([boundary]),
            BTreeMap::from([
                (p.entry(), wrong.entry()),
                (boundary, wrong.symbol("loop").unwrap()),
            ]),
        );

        let run = mssp_run(&p, &d, 4);
        assert_eq!(run.state.reg(Reg::S1), seq_state(&p).reg(Reg::S1));
        assert!(
            run.stats.predictor_hits > 0,
            "prediction must rescue commits: {:?}",
            run.stats
        );
        assert!(run.stats.predictor_overrides >= run.stats.predictor_hits);
        assert!(run.stats.squashes_live_in_stale > 0);
        // Attribution partitions live-in squashes exactly.
        assert_eq!(
            run.stats.squashes_live_in,
            run.stats.squashes_live_in_predicted + run.stats.squashes_live_in_stale
        );
        assert!(run.predictor_report.observations > 0);
        assert!(run.predictor_report.last_value_correct > 0);

        // Same fixture, predictor off: the squash storm runs unchecked.
        let off = Engine::new(
            &p,
            &d,
            EngineConfig {
                num_slaves: 4,
                enable_predictor: false,
                ..EngineConfig::default()
            },
            UnitCost,
        )
        .run()
        .unwrap();
        assert_eq!(off.state.reg(Reg::S1), seq_state(&p).reg(Reg::S1));
        assert_eq!(off.stats.predictor_overrides, 0);
        assert!(
            off.stats.squashes_live_in > run.stats.squashes_live_in,
            "off {} vs on {}",
            off.stats.squashes_live_in,
            run.stats.squashes_live_in
        );
        assert_eq!(off.predictor_report.observations, 0);
    }

    #[test]
    fn spawn_guard_vetoes_the_doomed_spawn_at_loop_exit() {
        use mssp_distill::{Slice, SliceKind};
        // The master asserts phase A's back-edge forever; once the
        // architected run moves on to phase B, every further spawn
        // starts at the A boundary and is a guaranteed wrong-path
        // squash. The guard re-evaluates the exit condition over the
        // task window at spawn time and vetoes instead, stalling the
        // master into sequential recovery — squash avoided, state exact.
        let p = assemble(
            "main:  addi s0, zero, 30
             loopa: addi s1, s1, 1
                    addi s0, s0, -1
                    bnez s0, loopa
                    addi s0, zero, 30
             loopb: addi s2, s2, 2
                    addi s0, s0, -1
                    bnez s0, loopb
                    halt",
        )
        .unwrap();
        let wrong = assemble(
            "main:  addi s0, zero, 30
             loopa: addi s1, s1, 1
                    addi s0, s0, -1
                    j    loopa",
        )
        .unwrap();
        let boundary = p.symbol("loopa").unwrap();
        // loopb is a boundary too (so the architected run keeps crossing
        // boundaries after the phase transition, exposing the master's
        // stray loopa spawns as wrong-path) but is deliberately left out
        // of the master's image: once vetoed/squashed there, the master
        // goes Lost and starvation recovery carries phase B.
        let d = Distilled::from_parts(
            wrong.clone(),
            BTreeSet::from([boundary, p.symbol("loopb").unwrap()]),
            BTreeMap::from([
                (p.entry(), wrong.entry()),
                (boundary, wrong.symbol("loopa").unwrap()),
            ]),
        );
        let unguarded = mssp_run(&p, &d, 2);
        assert_eq!(unguarded.state.reg(Reg::S2), seq_state(&p).reg(Reg::S2));
        assert!(
            unguarded.stats.squashes_wrong_path > 0,
            "fixture must be doomed without the guard: {:?}",
            unguarded.stats
        );

        // A stride-seeded guard: the bare exit branch with s0 declared
        // at stride -1 per crossing. Probing absolute crossings (with
        // lookback, since nothing is fed back) means a master that has
        // already run past the exit still sees the probe hit zero and
        // vetoes — a fed-back decrement would count down *through* zero
        // and miss it.
        let guard = Slice {
            kind: SliceKind::SpawnGuard {
                asserted_taken: true,
            },
            program: assemble("main: bnez s0, main").unwrap(),
            inputs: vec![(Reg::S0, -1)],
            window: 1,
            home_pc: boundary + 8,
        };
        let d = d.with_slices(BTreeMap::from([(boundary, vec![guard])]));
        let guarded = mssp_run(&p, &d, 2);
        assert_eq!(guarded.state.reg(Reg::S1), seq_state(&p).reg(Reg::S1));
        assert_eq!(guarded.state.reg(Reg::S2), seq_state(&p).reg(Reg::S2));
        assert_eq!(guarded.state.pc(), seq_state(&p).pc());
        assert!(
            guarded.stats.spawn_vetoes > 0,
            "the guard must veto: {:?}",
            guarded.stats
        );
        assert_eq!(
            guarded.stats.squashes_wrong_path, 0,
            "a veto must replace the wrong-path squash: {:?}",
            guarded.stats
        );
    }
}
