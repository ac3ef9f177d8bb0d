//! The master processor: executes the distilled program and generates
//! checkpoints.
//!
//! The master is deliberately untrusted — the engine treats it as a black
//! box emitting (start-PC, overlay) predictions. Its state is:
//!
//! * `dpc` — program counter in *distilled* space;
//! * `segment` — writes since the last spawn (becomes the next overlay
//!   segment);
//! * `live_segments` — one predicted-write set per in-flight task, pruned
//!   as tasks commit (committed values are visible in architected state).
//!
//! The master reads and writes a **private copy of architected state
//! taken at restart** — its cache view. Reading *live* architected state
//! instead would let the verify pipeline (which can run ahead of a
//! cache-cold master) feed the master values from its own future,
//! desynchronizing it by a segment on every such race; the private copy
//! makes the master's view time-consistent, and staleness is resolved
//! the MSSP way (squash and reseed).
//!
//! The copy is copy-on-write ([`MachineState`] memory pages are
//! reference-counted): a restart costs one refcount bump per resident
//! page, and the master copies a page only when it first writes to it.
//! A memory write also lands in `segment`. A register write only marks
//! a dirty mask; at a spawn point the master binds the dirty registers'
//! current values into `segment`, and only after that do live-in slices
//! write their corrections there, so a correction wins over the master's
//! own value.
//!
//! Indirect jumps land on *original*-space targets (the distiller
//! preserves the original register/memory image), which the master
//! translates back to distilled space via the distiller's PC map; an
//! untranslatable target marks the master *lost* until the engine restarts
//! it at the next recovery point.

use std::collections::VecDeque;
use std::sync::Arc;

use mssp_distill::{Distilled, SliceKind, MAX_SLICE_LEN};
use mssp_isa::Reg;
use mssp_machine::{eval_slice, step, Cell, Delta, MachineState, StepInfo, Storage};

/// Why the master is not currently producing predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterStall {
    /// Executing normally.
    Active,
    /// Executed the distilled program's `halt`.
    Halted,
    /// Jumped somewhere untranslatable or faulted; waiting for restart.
    Lost,
}

/// The master processor state.
#[derive(Debug, Clone)]
pub struct Master {
    dpc: u64,
    /// Architected state as of this master's restart, plus every write
    /// since: the master's private copy-on-write view.
    state: MachineState,
    /// Writes since the last spawn (becomes the next overlay segment);
    /// registers reach it from `dirty` at the spawn point.
    segment: Delta,
    /// Registers written since the last spawn point, bit per index.
    dirty: u32,
    live_segments: VecDeque<(u64, Arc<Delta>)>,
    status: MasterStall,
    instructions: u64,
    /// Boundary crossings since the last spawn trigger.
    crossings: u64,
    /// Boundary crossings since restart — bounds how far back a spawn
    /// guard may probe (the restart snapshot is architecturally true, so
    /// no divergence can predate it).
    crossings_since_restart: u64,
    /// Crossings that make one task (from the distiller).
    crossings_per_task: u64,
    /// Pending spawn: original-space start PC for the next task.
    pending_spawn: Option<u64>,
    /// Spawns suppressed by a spawn-guard slice since the last
    /// [`Master::take_vetoed_spawns`] (each one also marks the master
    /// lost, handing the window to sequential recovery).
    vetoed_spawns: u64,
}

impl Master {
    /// Creates a master restarted at original-space PC `orig_pc`, seeded
    /// with `base` (a snapshot of architected state at a consistent
    /// point) and spawning its first task there. `base` becomes the
    /// master's private view: its writes land there directly.
    ///
    /// If `orig_pc` has no distilled image the master starts lost (the
    /// engine will fall back to sequential recovery segments).
    #[must_use]
    pub fn restart_at(
        distilled: &Distilled,
        orig_pc: u64,
        spawn_first: bool,
        base: MachineState,
    ) -> Master {
        let (dpc, status) = match distilled.to_dist(orig_pc) {
            Some(d) => (d, MasterStall::Active),
            None => (0, MasterStall::Lost),
        };
        Master {
            dpc,
            state: base,
            segment: Delta::new(),
            dirty: 0,
            live_segments: VecDeque::new(),
            status,
            instructions: 0,
            crossings: 0,
            crossings_since_restart: 0,
            crossings_per_task: distilled.crossings_per_task(),
            pending_spawn: if spawn_first && status == MasterStall::Active {
                Some(orig_pc)
            } else {
                None
            },
            vetoed_spawns: 0,
        }
    }

    /// Current status.
    #[must_use]
    pub fn status(&self) -> MasterStall {
        self.status
    }

    /// Whether the master wants to spawn a task and is waiting for a free
    /// slave. While pending, the master does not execute.
    #[must_use]
    pub fn pending_spawn(&self) -> Option<u64> {
        self.pending_spawn
    }

    /// Total distilled instructions executed since restart.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Number of in-flight predicted segments (diagnostic).
    #[must_use]
    pub fn live_segment_count(&self) -> usize {
        self.live_segments.len()
    }

    /// Spawn-guard vetoes since the last call (reset on read).
    pub fn take_vetoed_spawns(&mut self) -> u64 {
        std::mem::take(&mut self.vetoed_spawns)
    }

    /// Completes a pending spawn: closes the current segment under
    /// `prev_task` (the last task spawned before this one, if any) and
    /// returns `(start_pc, overlay)` for the new task.
    ///
    /// # Panics
    ///
    /// Panics if no spawn is pending.
    pub fn take_spawn(&mut self, prev_task: Option<u64>) -> (u64, Vec<Arc<Delta>>) {
        let start = self.pending_spawn.take().expect("spawn must be pending");
        if let Some(prev) = prev_task {
            let seg = Arc::new(std::mem::take(&mut self.segment));
            self.live_segments.push_back((prev, seg));
        }
        // Overlay: newest segment first.
        let overlay: Vec<Arc<Delta>> = self
            .live_segments
            .iter()
            .rev()
            .map(|(_, d)| Arc::clone(d))
            .collect();
        (start, overlay)
    }

    /// Marks the master lost (used by the engine's run-ahead bound). A
    /// lost master produces nothing until restarted at a recovery point.
    pub fn mark_lost(&mut self) {
        self.status = MasterStall::Lost;
        self.pending_spawn = None;
    }

    /// Prunes predicted segments for tasks up to and including `task_id`.
    /// This trims only the overlays handed to *future* tasks (committed
    /// results are visible to them in architected state); the master's own
    /// private view is unaffected.
    pub fn on_commit(&mut self, task_id: u64) {
        while matches!(self.live_segments.front(), Some((id, _)) if *id <= task_id) {
            self.live_segments.pop_front();
        }
    }

    /// Executes one distilled instruction. Returns the step info, or
    /// `None` if the master is stalled (halted/lost/pending spawn).
    /// Landing on a task boundary arms a pending spawn, which also stalls
    /// the master until the engine dispatches it.
    pub fn step(&mut self, distilled: &Distilled) -> Option<StepInfo> {
        if self.status != MasterStall::Active || self.pending_spawn.is_some() {
            return None;
        }
        let mut storage = MasterStorage {
            state: &mut self.state,
            segment: &mut self.segment,
            dirty: &mut self.dirty,
        };
        let info = match step(&mut storage, distilled.program(), self.dpc) {
            Ok(info) => info,
            Err(_) => {
                self.status = MasterStall::Lost;
                return None;
            }
        };
        self.instructions += 1;
        if info.halted {
            self.status = MasterStall::Halted;
            return Some(info);
        }
        let mut next = info.next_pc;
        if info.instr.is_indirect_jump() {
            // Indirect targets are original-space addresses (preserved
            // image); translate back into distilled space.
            match distilled.to_dist(next) {
                Some(d) => next = d,
                None => {
                    self.status = MasterStall::Lost;
                    return Some(info);
                }
            }
        }
        self.dpc = next;
        if let Some(orig_pc) = distilled.boundary_at_dist(next) {
            self.crossings += 1;
            self.crossings_since_restart += 1;
            if self.crossings >= self.crossings_per_task {
                self.crossings = 0;
                self.flush_dirty_regs();
                if self.spawn_allowed(distilled, orig_pc) {
                    self.pending_spawn = Some(orig_pc);
                } else {
                    // A guard says the asserted path breaks inside this
                    // window: spawning would feed verify a doomed task.
                    // Go lost instead — the engine's recovery machinery
                    // runs the window sequentially and restarts us.
                    self.vetoed_spawns += 1;
                    self.status = MasterStall::Lost;
                }
            }
        }
        Some(info)
    }

    /// Binds every register written since the last spawn point into the
    /// segment, with its current value. Runs at the spawn point, before
    /// live-in slices write their corrections into the same segment.
    fn flush_dirty_regs(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        while dirty != 0 {
            let r = Reg::new(dirty.trailing_zeros() as u8);
            self.segment.set(Cell::Reg(r), self.state.reg(r));
            dirty &= dirty - 1;
        }
    }

    /// The master's current value of `r` — the view a spawned task's
    /// checkpoint ships.
    fn view(&self, r: Reg) -> u64 {
        self.state.reg(r)
    }

    /// Runs the pre-computation slices attached to boundary `orig_pc`.
    ///
    /// Spawn guards probe the asserted branch over every crossing of the
    /// upcoming window (seeding each input with its per-crossing stride);
    /// any resolution against the asserted direction vetoes the spawn.
    /// Live-in slices recompute their target from spawn-available values
    /// and write the result into the *segment only* — correcting the
    /// checkpoint handed to the new task without perturbing the master's
    /// own read view. An inconclusive slice (fault, budget) is ignored:
    /// slices steer performance, never correctness.
    fn spawn_allowed(&mut self, distilled: &Distilled, orig_pc: u64) -> bool {
        let slices = distilled.slices_at(orig_pc);
        if slices.is_empty() {
            return true;
        }
        let budget = MAX_SLICE_LEN as u64 + 1;
        let mut inputs: Vec<(Reg, u64)> = Vec::new();
        // Guards first: a vetoed spawn must not ship live-in corrections.
        for slice in slices {
            let SliceKind::SpawnGuard { asserted_taken } = slice.kind else {
                continue;
            };
            // Inputs the slice itself redefines (loop induction updates,
            // pointer-chase loads) are fed back across probes: probe `j+1`
            // starts from probe `j`'s result. The rest advance by their
            // statically recovered per-crossing stride.
            let defs: std::collections::BTreeSet<Reg> = slice
                .program
                .iter_pcs()
                .filter_map(|(_, i)| i.def_reg())
                .collect();
            let mut fed: Vec<(Reg, u64)> = slice
                .inputs
                .iter()
                .filter(|&&(r, _)| defs.contains(&r))
                .map(|&(r, _)| (r, self.view(r)))
                .collect();
            // Retrospective probes: the rare path may have fallen *behind*
            // the master already — an asserted branch deviating at crossing
            // -k leaves the master silently diverged, and every task it
            // spawns from here is doomed. Probing the recent past (bounded
            // by the restart point, which is architecturally true) turns
            // that into a veto, and the recovery restart heals the
            // divergence. Only stride-recoverable inputs can rewind;
            // slices with fed-back inputs probe forward only.
            let lookback = if fed.is_empty() {
                slice.window.min(self.crossings_since_restart) as i64
            } else {
                0
            };
            'probe: for j in -lookback..=slice.window as i64 {
                inputs.clear();
                for &(r, stride) in &slice.inputs {
                    let v = match fed.iter().find(|&&(fr, _)| fr == r) {
                        Some(&(_, v)) => v,
                        None => self.view(r).wrapping_add_signed(stride.wrapping_mul(j)),
                    };
                    inputs.push((r, v));
                }
                let eval = eval_slice(&slice.program, &inputs, budget, |widx| {
                    self.state.load_word(widx)
                });
                let Some(eval) = eval else { break };
                match eval.taken {
                    Some(taken) if taken != asserted_taken => return false,
                    Some(_) => {}
                    None => break 'probe,
                }
                for (r, v) in &mut fed {
                    *v = eval.reg(*r);
                }
            }
        }
        for slice in slices {
            let SliceKind::LiveIn { target } = slice.kind else {
                continue;
            };
            inputs.clear();
            inputs.extend(slice.inputs.iter().map(|&(r, _)| (r, self.view(r))));
            let eval = eval_slice(&slice.program, &inputs, budget, |widx| {
                self.state.load_word(widx)
            });
            if let Some(eval) = eval {
                self.segment.set(Cell::Reg(target), eval.reg(target));
            }
        }
        true
    }
}

/// The master's storage: its private copy-on-write view of architected
/// state, read and written directly. A memory write also lands in the
/// current segment (the next task's overlay); a register write marks the
/// dirty mask, which [`Master::flush_dirty_regs`] binds into the segment
/// at the spawn point.
struct MasterStorage<'a> {
    state: &'a mut MachineState,
    segment: &'a mut Delta,
    dirty: &'a mut u32,
}

impl Storage for MasterStorage<'_> {
    fn read_reg(&mut self, r: Reg) -> u64 {
        self.state.reg(r)
    }

    fn write_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.state.set_reg(r, value);
            *self.dirty |= 1 << r.index();
        }
    }

    fn load_word(&mut self, widx: u64) -> u64 {
        self.state.load_word(widx)
    }

    fn store_word(&mut self, widx: u64, value: u64) {
        self.state.store_word(widx, value);
        self.segment.set(Cell::Mem(widx), value);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use mssp_analysis::Profile;
    use mssp_distill::{distill, DistillConfig, DistillLevel};
    use mssp_isa::asm::assemble;

    fn setup(src: &str, target: u64) -> (mssp_isa::Program, Distilled) {
        let p = assemble(src).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let cfg = DistillConfig {
            target_task_size: target,
            ..DistillConfig::at_level(DistillLevel::None)
        };
        (p.clone(), distill(&p, &prof, &cfg).unwrap())
    }

    const LOOP: &str = "
        main: addi s0, zero, 40
        loop: addi s1, s1, 1
              addi s0, s0, -1
              bnez s0, loop
              halt";

    #[test]
    fn master_spawns_at_entry_then_at_boundaries() {
        let (p, d) = setup(LOOP, 10);
        let arch = MachineState::boot(&p);
        let mut m = Master::restart_at(&d, p.entry(), true, arch.clone());
        assert_eq!(m.pending_spawn(), Some(p.entry()));
        let (start, overlay) = m.take_spawn(None);
        assert_eq!(start, p.entry());
        assert!(overlay.is_empty());

        // Run until the next spawn trigger.
        let mut steps = 0;
        while m.pending_spawn().is_none() && m.status() == MasterStall::Active {
            m.step(&d).unwrap();
            steps += 1;
            assert!(steps < 1000);
        }
        let next = m.pending_spawn().unwrap();
        assert!(d.boundaries().contains(&next));
    }

    #[test]
    fn overlay_accumulates_segments_in_flight() {
        let (p, d) = setup(LOOP, 10);
        let arch = MachineState::boot(&p);
        let mut m = Master::restart_at(&d, p.entry(), true, arch.clone());
        let (_, ov0) = m.take_spawn(None);
        assert!(ov0.is_empty());

        let mut last_task = 0u64;
        let mut overlays = Vec::new();
        for task_id in 1..=3u64 {
            while m.pending_spawn().is_none() {
                assert!(m.step(&d).is_some());
            }
            let (_, ov) = m.take_spawn(Some(last_task));
            last_task = task_id;
            overlays.push(ov);
        }
        assert_eq!(overlays[0].len(), 1);
        assert_eq!(overlays[1].len(), 2);
        assert_eq!(overlays[2].len(), 3);
        // Newest-first: the first overlay entry of the last spawn holds
        // the most recent s0 value.
        let newest = &overlays[2][0];
        let oldest = &overlays[2][2];
        let newest_s0 = newest.get(Cell::Reg(Reg::S0)).unwrap();
        let oldest_s0 = oldest.get(Cell::Reg(Reg::S0)).unwrap();
        assert!(newest_s0 < oldest_s0, "{newest_s0} vs {oldest_s0}");
    }

    #[test]
    fn commit_prunes_old_segments() {
        let (p, d) = setup(LOOP, 10);
        let arch = MachineState::boot(&p);
        let mut m = Master::restart_at(&d, p.entry(), true, arch.clone());
        let _ = m.take_spawn(None);
        let mut last = 0u64;
        for id in 1..=3u64 {
            while m.pending_spawn().is_none() {
                m.step(&d);
            }
            let _ = m.take_spawn(Some(last));
            last = id;
        }
        assert_eq!(m.live_segment_count(), 3);
        m.on_commit(0);
        assert_eq!(m.live_segment_count(), 2);
        m.on_commit(2);
        assert_eq!(m.live_segment_count(), 0);
    }

    #[test]
    fn master_halts_with_program() {
        let (p, d) = setup(LOOP, 10);
        let arch = MachineState::boot(&p);
        let mut m = Master::restart_at(&d, p.entry(), false, arch.clone());
        for _ in 0..10_000 {
            if m.pending_spawn().is_some() {
                let _ = m.take_spawn(None);
            }
            if m.step(&d).is_none() {
                break;
            }
        }
        assert_eq!(m.status(), MasterStall::Halted);
    }

    /// [`LOOP`] with one boundary at `loop`, mapped to itself, plus
    /// `slices` attached there.
    fn looped(slices: Vec<mssp_distill::Slice>) -> (mssp_isa::Program, Distilled, u64) {
        let p = assemble(LOOP).unwrap();
        let lp = p.symbol("loop").unwrap();
        let map = BTreeMap::from([(p.entry(), p.entry()), (lp, lp)]);
        let d = Distilled::from_parts(p.clone(), BTreeSet::from([lp]), map)
            .with_slices(BTreeMap::from([(lp, slices)]));
        (p, d, lp)
    }

    /// Steps `m` to its next spawn point and takes the spawn.
    fn next_spawn(m: &mut Master, d: &Distilled, prev: u64) -> Vec<Arc<Delta>> {
        while m.pending_spawn().is_none() {
            assert!(m.step(d).is_some());
        }
        m.take_spawn(Some(prev)).1
    }

    #[test]
    fn live_in_slice_correction_wins_over_the_masters_write() {
        let slice = mssp_distill::Slice {
            kind: SliceKind::LiveIn { target: Reg::S1 },
            program: assemble("main: li s1, 999\n halt").unwrap(),
            inputs: Vec::new(),
            window: 1,
            home_pc: 0,
        };
        let (p, d, _) = looped(vec![slice]);
        let mut m = Master::restart_at(&d, p.entry(), true, MachineState::boot(&p));
        let _ = m.take_spawn(None);
        // Task 1 covers main -> loop (s0 = 40). Task 2 covers one loop
        // iteration: the master writes s1 = 1 in that window, and the
        // slice at the closing boundary says 999.
        let _ = next_spawn(&mut m, &d, 0);
        let overlay = next_spawn(&mut m, &d, 1);
        assert_eq!(overlay[0].get(Cell::Reg(Reg::S1)), Some(999));
        assert_eq!(overlay[0].get(Cell::Reg(Reg::S0)), Some(39));
        // The correction is for the task only: the master keeps its value.
        assert_eq!(m.view(Reg::S1), 1);
    }

    #[test]
    fn master_reads_its_writes_after_their_segments_are_pruned() {
        let (p, d, _) = looped(Vec::new());
        let mut m = Master::restart_at(&d, p.entry(), true, MachineState::boot(&p));
        let _ = m.take_spawn(None);
        let _ = next_spawn(&mut m, &d, 0); // task 1: s0 = 40
        let _ = next_spawn(&mut m, &d, 1); // task 2: s1 = 1, s0 = 39
        m.on_commit(1);
        assert_eq!(m.live_segment_count(), 0);
        // The next window reads s0 and s1 from the pruned segments' values.
        let overlay = next_spawn(&mut m, &d, 2);
        assert_eq!(overlay.len(), 1);
        assert_eq!(overlay[0].get(Cell::Reg(Reg::S1)), Some(2));
        assert_eq!(overlay[0].get(Cell::Reg(Reg::S0)), Some(38));
    }

    #[test]
    fn unmapped_restart_is_lost() {
        let (_, d) = setup(LOOP, 10);
        let m = Master::restart_at(&d, 0xDEAD_BEE0, true, MachineState::new());
        assert_eq!(m.status(), MasterStall::Lost);
        assert_eq!(m.pending_spawn(), None);
    }
}
