//! The protocol core: every spawn, commit, squash, recovery and swap
//! decision the two executors share, and every counter they both keep.
//!
//! The paper's contract is one verify/commit/squash/recovery protocol:
//! the master may be arbitrarily wrong, and committed state still depends
//! only on the original program. [`Protocol`] is that protocol with the
//! mechanism taken out. It is deterministic and does no I/O: no clock, no
//! threads, no cost model. A driver feeds it, in commit order,
//!
//! * each spawn, which may get confident live-in predictions injected
//!   ([`Protocol::spawn`]);
//! * the verdict on the oldest task ([`Protocol::commit`] or
//!   [`Protocol::squash`]), which trains the predictor, feeds the
//!   adaptive controller and drives the throttle;
//! * recovery segments, one verified instruction at a time
//!   ([`Protocol::begin_recovery`], [`Protocol::step_recovery`],
//!   [`Protocol::finish_recovery`]);
//! * recompilation requests and their candidates
//!   ([`Protocol::recompile_request`], [`Protocol::install`]).
//!
//! The return values say what to do next: restart the master or leave it
//! offline, install a new distilled program or not. The drivers keep the
//! mechanism. The discrete [`crate::Engine`] keeps the cost-model clock,
//! slave contexts, task queue and the [`crate::verify_and_commit`]
//! oracle verdict; the threaded executor keeps threads, rings, epochs,
//! the commit log and its pre-verified fast-path verdict.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use mssp_analysis::Profile;
use mssp_distill::{Distilled, Tier};
use mssp_isa::{Program, Reg};
use mssp_machine::{step, Cell, Delta, MachineState, StepInfo};

use crate::adaptive::{AdaptiveController, Recompiler};
use crate::predictor::Predictor;
use crate::task::{BoundarySet, RecoveryStorage, RegLayer, Task};
use crate::{
    EngineConfig, EngineError, EngineStats, MismatchSample, MsspRun, SquashReason, SquashSample,
};

/// A non-speculative recovery segment in progress. It re-executes the
/// original program from architected state to the next task end and
/// buffers its writes for one atomic commit.
#[derive(Debug)]
pub(crate) struct RecoverySegment {
    pc: u64,
    regs: RegLayer,
    writes: Delta,
    executed: u64,
    crossings: u64,
    halted: bool,
}

/// The protocol state machine (see the module docs).
pub(crate) struct Protocol {
    /// Task-boundary PCs of the installed distillation (hot-swaps keep
    /// them pinned).
    pub(crate) boundaries: Arc<BoundarySet>,
    /// A task or recovery segment ends at this many boundary crossings.
    pub(crate) crossings_per_task: u64,
    config: EngineConfig,
    /// Run counters. Drivers add their mechanism counters (cycles,
    /// re-checks, snapshots, master instructions) here directly.
    pub(crate) stats: EngineStats,
    halted: bool,
    /// Live-in value predictor, trained only on architected values.
    predictor: Predictor,
    adaptive: Option<AdaptiveController>,
    /// The recompiler to run inline at the requesting task boundary;
    /// `None` when the driver ships requests elsewhere.
    recompiler: Option<Recompiler>,
    /// Tasks processed (committed or squashed): the throttle's clock.
    tasks_processed: u64,
    /// Squash times (on the throttle's clock) inside the window.
    recent_squashes: VecDeque<u64>,
    /// Recovery segments left to run with the master offline.
    throttle_remaining: u64,
    pub(crate) commit_trace: Option<Vec<u64>>,
    pub(crate) mismatch_samples: Option<Vec<MismatchSample>>,
    pub(crate) squash_samples: Option<Vec<SquashSample>>,
    pub(crate) task_sizes: Option<Vec<u64>>,
}

impl std::fmt::Debug for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Protocol")
            .field("stats", &self.stats)
            .field("adaptive", &self.adaptive)
            .finish_non_exhaustive()
    }
}

impl Protocol {
    pub(crate) fn new(distilled: &Distilled, config: EngineConfig) -> Protocol {
        Protocol {
            boundaries: Arc::new(BoundarySet::new(distilled.boundaries().iter().copied())),
            crossings_per_task: distilled.crossings_per_task().max(1),
            config,
            stats: EngineStats::default(),
            halted: false,
            predictor: Predictor::new(),
            adaptive: None,
            recompiler: None,
            tasks_processed: 0,
            recent_squashes: VecDeque::new(),
            throttle_remaining: 0,
            commit_trace: None,
            mismatch_samples: None,
            squash_samples: None,
            task_sizes: None,
        }
    }

    /// Arms online re-distillation. With `inline` set,
    /// [`Protocol::recompile_inline`] runs it at the requesting task
    /// boundary; otherwise the driver takes requests with
    /// [`Protocol::recompile_request`] and runs the recompiler elsewhere.
    pub(crate) fn enable_adaptive(&mut self, ctl: AdaptiveController, inline: Option<Recompiler>) {
        self.adaptive = Some(ctl);
        self.recompiler = inline;
    }

    /// Whether architected state has committed a `halt`.
    pub(crate) fn halted(&self) -> bool {
        self.halted
    }

    /// Counts a spawn at `start_pc` and injects the predictor's confident
    /// values at the front of `overlay`. Index 0 wins layered reads, so a
    /// prediction overrides the master's checkpoint for exactly that cell
    /// and, like any overlay-sourced read, is recorded as a live-in and
    /// verified at commit. Returns the injected cells.
    pub(crate) fn spawn(&mut self, start_pc: u64, overlay: &mut Vec<Arc<Delta>>) -> Vec<Cell> {
        self.stats.spawned_tasks += 1;
        if !self.config.enable_predictor {
            return Vec::new();
        }
        let predictions = self.predictor.predict(start_pc);
        if predictions.is_empty() {
            return Vec::new();
        }
        let mut delta = Delta::new();
        for &(reg, value) in &predictions {
            delta.set(Cell::Reg(reg), value);
        }
        overlay.insert(0, Arc::new(delta));
        self.stats.predictor_overrides += predictions.len() as u64;
        predictions.iter().map(|&(reg, _)| Cell::Reg(reg)).collect()
    }

    /// Accounts for a task the driver's verify unit committed, ending at
    /// `end_pc`. A committed `halt` ends the run; it is observed like any
    /// other commit.
    pub(crate) fn commit(&mut self, task: &Task, end_pc: u64, halted: bool) {
        let s = &mut self.stats;
        let live_ins = task.live_ins.len() as u64;
        s.committed_tasks += 1;
        s.committed_instructions += task.executed;
        s.live_in_cells += live_ins;
        s.live_in_reg_cells += task.live_ins.reg_cells() as u64;
        s.live_in_mem_cells += task.live_ins.mem_cells() as u64;
        s.max_live_in_cells = s.max_live_in_cells.max(live_ins);
        s.live_out_cells += task.writes.len() as u64;
        // A predicted cell the committed task actually read is a verified
        // hit; injections it never read count as neither hit nor miss.
        s.predictor_hits += task
            .predicted
            .iter()
            .filter(|&&c| task.live_ins.contains(c))
            .count() as u64;
        self.tasks_processed += 1;
        if let Some(sizes) = &mut self.task_sizes {
            sizes.push(task.executed);
        }
        if let Some(trace) = &mut self.commit_trace {
            trace.push(end_pc);
        }
        if let Some(ctl) = &mut self.adaptive {
            ctl.observe_commit(task.executed);
        }
        self.halted = halted;
    }

    /// Accounts for a squash: `task`, the oldest, failed verification for
    /// `reason`, killing `killed` tasks in all. `arch` must be current
    /// architected state — a live-in mismatch is read from it, and the
    /// predictor trains on those verified values only.
    pub(crate) fn squash(
        &mut self,
        reason: SquashReason,
        task: &Task,
        arch: &MachineState,
        killed: u64,
    ) {
        match reason {
            SquashReason::WrongPath => self.stats.squashes_wrong_path += 1,
            SquashReason::LiveInMismatch => self.stats.squashes_live_in += 1,
            SquashReason::Overrun => self.stats.squashes_overrun += 1,
            SquashReason::Fault => self.stats.squashes_fault += 1,
        }
        self.stats.squashed_tasks += killed;
        let mut cells: Vec<(Cell, u64, u64)> = Vec::new();
        if reason == SquashReason::LiveInMismatch {
            if self.config.enable_predictor
                || self.adaptive.is_some()
                || self.mismatch_samples.is_some()
                || self.squash_samples.is_some()
            {
                cells = task.live_ins.mismatches_against(arch);
            }
            if let Some(samples) = &mut self.mismatch_samples {
                if samples.len() < samples.capacity() {
                    samples.push(MismatchSample {
                        start_pc: task.start_pc,
                        executed: task.executed,
                        cells: cells.clone(),
                    });
                }
            }
            // Did a predictor injection take part in the failure, or was
            // the master's checkpoint stale on its own?
            let misses = task
                .predicted
                .iter()
                .filter(|p| cells.iter().any(|(c, _, _)| c == *p))
                .count() as u64;
            if misses > 0 {
                self.stats.squashes_live_in_predicted += 1;
                self.stats.predictor_misses += misses;
            } else {
                self.stats.squashes_live_in_stale += 1;
            }
            if self.config.enable_predictor {
                // Register cells only: memory live-in footprints depend on
                // executor timing, register live-ins do not.
                for &(cell, _, value) in &cells {
                    if let Cell::Reg(r) = cell {
                        self.predictor.train(task.start_pc, r, value);
                    }
                }
            }
        }
        if let Some(ctl) = &mut self.adaptive {
            let regs: Vec<Reg> = cells
                .iter()
                .filter_map(|&(c, _, _)| match c {
                    Cell::Reg(r) => Some(r),
                    _ => None,
                })
                .collect();
            ctl.observe_squash(reason, arch.pc(), &regs);
        }
        if let Some(samples) = &mut self.squash_samples {
            if samples.len() < samples.capacity() {
                samples.push(SquashSample {
                    reason,
                    task_start_pc: task.start_pc,
                    arch_pc: arch.pc(),
                    executed: task.executed,
                    cells,
                });
            }
        }
        // The paper's revert-to-sequential dual mode: more than
        // `throttle_threshold` squashes within `throttle_window` tasks take
        // the master offline for `throttle_duration` recovery segments.
        self.tasks_processed += 1;
        if self.config.throttle_threshold > 0 {
            self.recent_squashes.push_back(self.tasks_processed);
            while matches!(
                self.recent_squashes.front(),
                Some(&t) if t + self.config.throttle_window < self.tasks_processed
            ) {
                self.recent_squashes.pop_front();
            }
            if self.recent_squashes.len() as u32 > self.config.throttle_threshold
                && self.throttle_remaining == 0
            {
                self.throttle_remaining = self.config.throttle_duration;
                self.stats.throttle_events += 1;
                self.recent_squashes.clear();
            }
        }
    }

    /// Starts a recovery segment at the architected PC.
    pub(crate) fn begin_recovery(&mut self, pc: u64) -> RecoverySegment {
        self.stats.recovery_segments += 1;
        RecoverySegment {
            pc,
            regs: RegLayer::default(),
            writes: Delta::new(),
            executed: 0,
            crossings: 0,
            halted: false,
        }
    }

    /// Executes the segment's next instruction over `arch` (untouched:
    /// writes stay buffered) and returns it, with whether the segment is
    /// now complete.
    ///
    /// # Errors
    ///
    /// A fault of the original program, or a segment longer than
    /// [`EngineConfig::max_recovery_instrs`].
    pub(crate) fn step_recovery(
        &mut self,
        seg: &mut RecoverySegment,
        original: &Program,
        arch: &MachineState,
    ) -> Result<(StepInfo, bool), EngineError> {
        let mut storage = RecoveryStorage {
            regs: &mut seg.regs,
            writes: &mut seg.writes,
            arch,
        };
        let info = step(&mut storage, original, seg.pc).map_err(EngineError::RecoveryFault)?;
        if let Some(ctl) = &mut self.adaptive {
            // Recovery is verified execution: it feeds the live profile
            // and the cold-code divergence signal.
            ctl.observe_recovery_step(&info);
        }
        if info.halted {
            seg.halted = true;
            return Ok((info, true));
        }
        seg.executed += 1;
        seg.pc = info.next_pc;
        if seg.executed > self.config.max_recovery_instrs {
            return Err(EngineError::RecoveryLimit);
        }
        if self.boundaries.contains(seg.pc) {
            seg.crossings += 1;
        }
        Ok((info, seg.crossings >= self.crossings_per_task))
    }

    /// Commits a completed segment onto `arch` as one superimposition.
    /// Returns whether the driver should restart the master there: not
    /// once the run has halted, nor while the throttle keeps the master
    /// offline (starvation recovery then carries execution).
    pub(crate) fn finish_recovery(
        &mut self,
        mut seg: RecoverySegment,
        arch: &mut MachineState,
    ) -> bool {
        seg.regs.fold_into(&mut seg.writes);
        arch.apply(&seg.writes);
        arch.set_pc(seg.pc);
        self.stats.recovery_instructions += seg.executed;
        self.stats.committed_instructions += seg.executed;
        if let Some(trace) = &mut self.commit_trace {
            trace.push(seg.pc);
        }
        if let Some(ctl) = &mut self.adaptive {
            ctl.observe_recovery_segment();
        }
        if seg.halted {
            self.halted = true;
            return false;
        }
        if self.throttle_remaining > 0 {
            self.throttle_remaining -= 1;
            return false;
        }
        true
    }

    /// Takes the adaptive controller's outstanding recompile request: the
    /// tier and the live profile to compile from.
    pub(crate) fn recompile_request(&mut self) -> Option<(Tier, &Profile)> {
        let ctl = self.adaptive.as_mut()?;
        let tier = ctl.take_request()?;
        Some((tier, ctl.live_profile()))
    }

    /// Serves an outstanding request with the inline recompiler, at a task
    /// boundary with `abandoned` tasks in flight; see [`Protocol::install`].
    pub(crate) fn recompile_inline(&mut self, abandoned: u64) -> Option<Arc<Distilled>> {
        let recompiler = self.recompiler.as_mut()?;
        let ctl = self.adaptive.as_mut()?;
        let tier = ctl.take_request()?;
        let started = Instant::now();
        let candidate = recompiler(ctl.live_profile(), tier);
        self.install(tier, candidate, started, abandoned)
    }

    /// Takes a finished recompilation at a task boundary with `abandoned`
    /// tasks in flight. A candidate that keeps the pinned task
    /// segmentation is counted as installed, its in-flight tasks as
    /// abandoned, and returned for the driver to install; anything else is
    /// counted and dropped, and the controller re-arms.
    pub(crate) fn install(
        &mut self,
        tier: Tier,
        candidate: Result<Distilled, String>,
        started: Instant,
        abandoned: u64,
    ) -> Option<Arc<Distilled>> {
        let ctl = self.adaptive.as_mut()?;
        let d = match candidate {
            Ok(d) if ctl.validate_candidate(&d) => d,
            Ok(_) => {
                ctl.note_candidate_rejected(tier);
                return None;
            }
            Err(_) => {
                ctl.note_recompiled(tier, false);
                return None;
            }
        };
        ctl.note_recompiled(tier, true);
        self.stats.swap_abandoned_tasks += abandoned;
        self.stats.swaps_installed += 1;
        match tier {
            Tier::Fast => self.stats.recompilations_fast += 1,
            Tier::Full => self.stats.recompilations_full += 1,
        }
        let latency = started.elapsed().as_micros() as u64;
        ctl.note_swap_installed(tier, latency, self.stats);
        Some(Arc::new(d))
    }

    /// The run's outputs, with the final architected state.
    pub(crate) fn into_run(self, cycles: u64, state: MachineState) -> MsspRun {
        MsspRun {
            cycles,
            state,
            stats: self.stats,
            commit_trace: self.commit_trace,
            mismatch_samples: self.mismatch_samples,
            squash_samples: self.squash_samples,
            task_sizes: self.task_sizes,
            predictor_report: self.predictor.report(),
            adaptive: self.adaptive.map(AdaptiveController::into_report),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use mssp_isa::asm::assemble;

    use super::*;
    use crate::adaptive::AdaptiveConfig;
    use crate::task::TaskId;

    const SUM: &str = "
        main: addi s0, zero, 30
        loop: add  s1, s1, s0
              addi s0, s0, -1
              bnez s0, loop
              halt";

    /// The honest one-boundary distillation of [`SUM`], plus its loop PC.
    fn fixture() -> (Program, Distilled, u64) {
        let p = assemble(SUM).unwrap();
        let lp = p.symbol("loop").unwrap();
        let map = BTreeMap::from([(p.entry(), p.entry()), (lp, lp)]);
        let d = Distilled::from_parts(p.clone(), BTreeSet::from([lp]), map);
        (p, d, lp)
    }

    /// A task at `start_pc` that read `live_ins`.
    fn task(start_pc: u64, live_ins: &[(Reg, u64)]) -> Task {
        let mut t = Task::new(TaskId(0), start_pc, 0, Vec::new());
        for &(r, v) in live_ins {
            t.live_ins.set(Cell::Reg(r), v);
        }
        t
    }

    /// Squashes three tasks that read a stale `s2 = 77` at `lp` while
    /// architected `s2` is 9: the predictor becomes confident in 9.
    fn train_s2(p: &mut Protocol, lp: u64) -> MachineState {
        let mut arch = MachineState::new();
        arch.set_reg(Reg::S2, 9);
        for _ in 0..3 {
            p.squash(
                SquashReason::LiveInMismatch,
                &task(lp, &[(Reg::S2, 77)]),
                &arch,
                1,
            );
        }
        arch
    }

    /// Arms `p` with a controller pinned to `d`'s segmentation whose
    /// inline recompiler always returns `candidate`.
    fn adaptive(p: &mut Protocol, d: &Distilled, candidate: Distilled, config: AdaptiveConfig) {
        let profile = Profile::collect(&assemble(SUM).unwrap(), u64::MAX).unwrap();
        let recompile: Recompiler = Box::new(move |_, _| Ok(candidate.clone()));
        p.enable_adaptive(
            AdaptiveController::new(config, d, &profile),
            Some(recompile),
        );
    }

    #[test]
    fn confident_prediction_then_commit_counts_a_hit() {
        let (_, d, lp) = fixture();
        let mut p = Protocol::new(&d, EngineConfig::default());
        train_s2(&mut p, lp);
        let mut overlay = Vec::new();
        let predicted = p.spawn(lp, &mut overlay);
        assert_eq!(predicted, vec![Cell::Reg(Reg::S2)]);
        assert_eq!(overlay[0].get(Cell::Reg(Reg::S2)), Some(9));
        assert_eq!(p.stats.predictor_overrides, 1);

        let mut t = task(lp, &[(Reg::S2, 9)]);
        t.predicted = predicted;
        p.commit(&t, lp, false);
        assert_eq!(p.stats.predictor_hits, 1);
        assert_eq!(p.stats.committed_tasks, 1);
    }

    #[test]
    fn live_in_squash_splits_predicted_from_stale() {
        let (_, d, lp) = fixture();
        let mut p = Protocol::new(&d, EngineConfig::default());
        let mut arch = train_s2(&mut p, lp);
        assert_eq!(p.stats.squashes_live_in_stale, 3);

        // The prediction (9) is wrong once architected s2 moves on.
        arch.set_reg(Reg::S2, 10);
        let mut t = task(lp, &[(Reg::S2, 9)]);
        t.predicted = p.spawn(lp, &mut Vec::new());
        p.squash(SquashReason::LiveInMismatch, &t, &arch, 1);
        assert_eq!(p.stats.squashes_live_in_predicted, 1);
        assert_eq!(p.stats.predictor_misses, 1);

        // A mismatch on a cell the predictor never touched is stale.
        let t = task(lp, &[(Reg::S3, 5)]);
        p.squash(SquashReason::LiveInMismatch, &t, &arch, 1);
        assert_eq!(p.stats.squashes_live_in_stale, 4);
        assert_eq!(p.stats.squashes_live_in_predicted, 1);
        assert_eq!(p.stats.squashes_live_in, 5);
    }

    #[test]
    fn candidate_with_other_boundaries_is_rejected_not_installed() {
        let (prog, d, lp) = fixture();
        let mut p = Protocol::new(&d, EngineConfig::default());
        let other = Distilled::from_parts(prog.clone(), BTreeSet::new(), BTreeMap::new());
        let config = AdaptiveConfig {
            force_swap_at: vec![(1, Tier::Fast)],
            ..AdaptiveConfig::default()
        };
        adaptive(&mut p, &d, other, config);
        p.commit(&task(lp, &[]), lp, false);
        assert!(p.recompile_inline(0).is_none());
        assert_eq!(p.stats.swaps_installed, 0);
        let report = p.into_run(0, MachineState::new()).adaptive.unwrap();
        assert_eq!(report.candidates_rejected, 1);
        assert!(report.swaps.is_empty());
    }

    #[test]
    fn throttle_takes_the_master_offline_then_restores_it() {
        let (_, d, lp) = fixture();
        let config = EngineConfig {
            throttle_threshold: 2,
            throttle_window: 16,
            throttle_duration: 2,
            ..EngineConfig::default()
        };
        let mut p = Protocol::new(&d, config);
        let mut arch = MachineState::new();
        let mut recover = |p: &mut Protocol| {
            let seg = p.begin_recovery(lp);
            p.finish_recovery(seg, &mut arch)
        };
        // Two squashes stay under the threshold: the master restarts.
        for _ in 0..2 {
            p.squash(
                SquashReason::WrongPath,
                &task(0, &[]),
                &MachineState::new(),
                1,
            );
            assert!(recover(&mut p));
        }
        // The third within the window throttles for two segments: its own
        // recovery and one starvation recovery.
        p.squash(
            SquashReason::WrongPath,
            &task(0, &[]),
            &MachineState::new(),
            1,
        );
        assert_eq!(p.stats.throttle_events, 1);
        assert!(!recover(&mut p));
        assert!(!recover(&mut p));
        assert!(recover(&mut p));
        assert_eq!(p.stats.throttle_events, 1);
        assert!(!p.halted());
    }

    #[test]
    fn halting_commit_is_observed() {
        let (_, d, lp) = fixture();
        let mut p = Protocol::new(&d, EngineConfig::default());
        let config = AdaptiveConfig {
            window_tasks: 1,
            ..AdaptiveConfig::default()
        };
        adaptive(&mut p, &d, d.clone(), config);
        p.commit(&task(lp, &[]), lp, true);
        assert!(p.halted());
        let report = p.into_run(0, MachineState::new()).adaptive.unwrap();
        assert_eq!(report.windows, 1, "the halting commit closes a window");
    }
}
