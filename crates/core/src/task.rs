//! Tasks: the unit of speculative work, with live-in/live-out capture.
//!
//! A task executes a segment of the **original** program on a slave,
//! reading through a layered view of machine state:
//!
//! 0. for registers, the executing core's dense [`RegLayer`]: 32 values
//!    plus a known mask, which serves every register read after the
//!    first and takes every register write (dirty registers are folded
//!    into the write set when the segment ends, so layers 1 and 2 hold
//!    exactly what they would if every access had gone through them);
//! 1. its own writes (the live-out set under construction),
//! 2. previously recorded live-ins (so re-reads are repeatable even while
//!    older tasks commit underneath),
//! 3. the master's checkpoint overlay (predicted values for cells the
//!    master believes it modified since the last committed point),
//! 4. optionally a *committed view* — one folded [`Delta`] of writes
//!    committed after the base snapshot was taken (the threaded
//!    executor ships this instead of a chain of per-commit deltas), and
//! 5. the architected state.
//!
//! Every read satisfied below layer 1 is recorded as a live-in `(cell,
//! value)` — for a register, on its first read, before layer 0 caches
//! it. At commit time, the verify unit re-checks each recorded value
//! against architected state — the memoization test of the paper — which
//! makes the task's execution *safe* in the formal sense: consistency +
//! completeness ⇒ committing it advances architected state exactly as the
//! sequential machine would (Theorem 2).

use std::sync::Arc;

use mssp_isa::{PcSet, Program, Reg, NUM_REGS};
use mssp_machine::{expand_mask, step, Cell, Delta, MachineState, Storage};

/// Unique task identity, increasing in spawn (= program) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

/// How a finished task ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskEnd {
    /// Reached a task-boundary PC; carries the end PC (the expected start
    /// of the next task).
    Boundary(u64),
    /// Executed `halt`; carries the halt PC.
    Halted(u64),
    /// Exceeded the task instruction cap without reaching a boundary
    /// (typically a mis-steered task); always squashes.
    Overrun,
    /// Faulted (e.g. jumped outside the text segment after consuming a
    /// garbage prediction); always squashes.
    Fault,
}

/// Execution status of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Still executing on its slave.
    Running,
    /// Finished; result available at `done_at` (simulated time).
    Done {
        /// How it ended.
        end: TaskEnd,
        /// Simulated cycle at which the result reached the verify unit.
        done_at: u64,
    },
}

/// A speculative task.
#[derive(Debug, Clone)]
pub struct Task {
    /// Task identity (spawn order).
    pub id: TaskId,
    /// Original-program PC the task starts at.
    pub start_pc: u64,
    /// Current PC while running.
    pub pc: u64,
    /// Slave core executing this task.
    pub slave: usize,
    /// Master-predicted overlay, newest segment first.
    pub overlay: Vec<Arc<Delta>>,
    /// Cells whose overlay values were injected by the live-in value
    /// predictor rather than produced by the master (metrics only: the
    /// verify unit treats them like any other overlay-sourced live-in).
    pub predicted: Vec<Cell>,
    /// Recorded live-ins.
    pub live_ins: Delta,
    /// Accumulated writes (live-outs). Register writes reach it when the
    /// segment ends ([`Task::finish`], or the return of
    /// [`Task::run_segment`]); until then they live in the executing
    /// core's [`RegLayer`].
    pub writes: Delta,
    /// Instructions executed so far.
    pub executed: u64,
    /// Boundary crossings seen so far (a task ends at the Nth).
    pub crossings: u64,
    /// Execution status.
    pub status: TaskStatus,
}

impl Task {
    /// Creates a freshly spawned task.
    #[must_use]
    pub fn new(id: TaskId, start_pc: u64, slave: usize, overlay: Vec<Arc<Delta>>) -> Task {
        Task::with_buffers(id, start_pc, slave, overlay, Delta::new(), Delta::new())
    }

    /// Creates a freshly spawned task reusing pooled live-in/write
    /// buffers (the threaded executor's allocation-free dispatch path
    /// takes them from a [`mssp_machine::DeltaArena`]). Both buffers
    /// must be empty; their backing capacity is what gets recycled.
    #[must_use]
    pub fn with_buffers(
        id: TaskId,
        start_pc: u64,
        slave: usize,
        overlay: Vec<Arc<Delta>>,
        live_ins: Delta,
        writes: Delta,
    ) -> Task {
        debug_assert!(live_ins.is_empty() && writes.is_empty());
        Task {
            id,
            start_pc,
            pc: start_pc,
            slave,
            overlay,
            predicted: Vec::new(),
            live_ins,
            writes,
            executed: 0,
            crossings: 0,
            status: TaskStatus::Running,
        }
    }

    /// Whether the task has finished (successfully or not).
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.status, TaskStatus::Done { .. })
    }

    /// Ends a task stepped through [`Task::storage`]: folds `regs`, the
    /// register layer it ran with, into [`Task::writes`] and marks the
    /// task done, with its result reaching the verify unit at `done_at`.
    pub fn finish(&mut self, regs: &mut RegLayer, end: TaskEnd, done_at: u64) {
        regs.fold_into(&mut self.writes);
        self.status = TaskStatus::Done { end, done_at };
    }

    /// A [`Storage`] view for executing one instruction of this task
    /// against the given architected state. `regs` is the register layer
    /// of the core running the task: start it at [`RegLayer::default`],
    /// keep it for every instruction of the task, and hand it to
    /// [`Task::finish`] at the end.
    pub fn storage<'a>(
        &'a mut self,
        regs: &'a mut RegLayer,
        arch: &'a MachineState,
    ) -> TaskStorage<'a> {
        self.storage_with_granularity(regs, arch, false)
    }

    /// Runs this task to its natural end against an **immutable snapshot**
    /// of architected state — the checkpoint the coordinator published
    /// when the task was spawned. This is the threaded executor's hot
    /// loop: it touches no shared state at all (the snapshot is a plain
    /// `&MachineState`, typically borrowed out of an `Arc`), so workers
    /// execute entire segments with zero lock traffic.
    ///
    /// `abandon` is polled at the points where holding on to doomed work
    /// costs the most: once on entry (immediately after the snapshot was
    /// captured — a squash may already have invalidated this epoch), at
    /// every boundary crossing, and every 64 instructions. Returning
    /// `true` ends the task as [`TaskEnd::Overrun`], which always
    /// squashes; a stale task's result is discarded by epoch anyway, so
    /// no dedicated "abandoned" variant is needed.
    pub fn run_segment(
        &mut self,
        program: &Program,
        snapshot: &MachineState,
        rules: &SegmentRules<'_>,
        abandon: impl FnMut() -> bool,
    ) -> TaskEnd {
        self.run_segment_with_view(program, snapshot, None, rules, abandon)
    }

    /// [`Task::run_segment`] with an optional *committed view*: one
    /// folded delta of everything committed after `snapshot` was taken,
    /// layered between the prediction overlay and the snapshot. Reads
    /// satisfied from it are recorded as live-ins exactly like snapshot
    /// reads, so verification semantics are unchanged — the view merely
    /// keeps the task's picture of architected state fresh without
    /// materializing a new snapshot.
    pub fn run_segment_with_view(
        &mut self,
        program: &Program,
        snapshot: &MachineState,
        committed: Option<&Delta>,
        rules: &SegmentRules<'_>,
        abandon: impl FnMut() -> bool,
    ) -> TaskEnd {
        let mut regs = RegLayer::default();
        let end = self.run_until_end(&mut regs, program, snapshot, committed, rules, abandon);
        regs.fold_into(&mut self.writes);
        end
    }

    /// The interpreter loop of [`Task::run_segment_with_view`], which
    /// folds `regs` once this returns.
    fn run_until_end(
        &mut self,
        regs: &mut RegLayer,
        program: &Program,
        snapshot: &MachineState,
        committed: Option<&Delta>,
        rules: &SegmentRules<'_>,
        mut abandon: impl FnMut() -> bool,
    ) -> TaskEnd {
        if abandon() {
            return TaskEnd::Overrun;
        }
        loop {
            let pc = self.pc;
            let result = {
                let mut storage = self.storage_with_view(regs, snapshot, committed, false);
                step(&mut storage, program, pc)
            };
            match result {
                Err(_) => return TaskEnd::Fault,
                Ok(info) => {
                    if info.halted {
                        return TaskEnd::Halted(pc);
                    }
                    self.executed += 1;
                    self.pc = info.next_pc;
                    if rules.boundaries.contains(info.next_pc) {
                        self.crossings += 1;
                        if abandon() {
                            return TaskEnd::Overrun;
                        }
                        if self.crossings >= rules.crossings_per_task {
                            return TaskEnd::Boundary(info.next_pc);
                        }
                    }
                    if self.executed >= rules.max_instrs {
                        return TaskEnd::Overrun;
                    }
                    if self.executed.is_multiple_of(64) && abandon() {
                        return TaskEnd::Overrun;
                    }
                }
            }
        }
    }

    /// Like [`Task::storage`], optionally degrading live-in tracking to
    /// whole-word granularity (the ablation of byte masking: sub-word
    /// stores read-modify-write their containing word and record it
    /// entirely as a live-in, recreating false sharing between adjacent
    /// tasks).
    pub fn storage_with_granularity<'a>(
        &'a mut self,
        regs: &'a mut RegLayer,
        arch: &'a MachineState,
        word_granular: bool,
    ) -> TaskStorage<'a> {
        self.storage_with_view(regs, arch, None, word_granular)
    }

    /// The fully general storage view: register layer, architected
    /// snapshot, optional committed-view delta, and the granularity
    /// ablation switch.
    pub fn storage_with_view<'a>(
        &'a mut self,
        regs: &'a mut RegLayer,
        arch: &'a MachineState,
        committed: Option<&'a Delta>,
        word_granular: bool,
    ) -> TaskStorage<'a> {
        TaskStorage {
            regs,
            writes: &mut self.writes,
            live_ins: &mut self.live_ins,
            overlay: &self.overlay,
            committed,
            arch,
            word_granular,
        }
    }
}

/// When a task segment ends: the boundary-crossing quota and the
/// instruction cap, shared by speculative execution and recovery.
#[derive(Debug, Clone, Copy)]
pub struct SegmentRules<'a> {
    /// Task-boundary PCs of the distilled program.
    pub boundaries: &'a BoundarySet,
    /// A task ends at its Nth boundary crossing.
    pub crossings_per_task: u64,
    /// Instruction cap; exceeding it is an overrun (always squashes).
    pub max_instrs: u64,
}

/// The layered, live-in-recording storage a slave executes against.
///
/// See the crate documentation for the read path. Writes go only
/// to the task's private write buffer — slaves can never touch architected
/// state, which is the structural reason the fast path cannot compromise
/// correctness.
#[derive(Debug)]
pub struct TaskStorage<'a> {
    regs: &'a mut RegLayer,
    writes: &'a mut Delta,
    live_ins: &'a mut Delta,
    overlay: &'a [Arc<Delta>],
    committed: Option<&'a Delta>,
    arch: &'a MachineState,
    word_granular: bool,
}

impl TaskStorage<'_> {
    /// Gathers the requested bytes of `cell`, layer by layer, recording
    /// as live-ins exactly the bytes that had to come from below the
    /// task's own writes.
    fn read_cell_masked(&mut self, cell: Cell, mask: u8) -> u64 {
        let mut out = 0u64;
        let mut need = mask;
        if let Some(w) = self.writes.get_masked(cell) {
            let take = need & w.mask;
            out |= w.value & expand_mask(take);
            need &= !take;
        }
        if need != 0 {
            if let Some(r) = self.live_ins.get_masked(cell) {
                let take = need & r.mask;
                out |= r.value & expand_mask(take);
                need &= !take;
            }
        }
        if need != 0 {
            for seg in self.overlay {
                let Some(p) = seg.get_masked(cell) else {
                    continue;
                };
                let take = need & p.mask;
                if take != 0 {
                    let bytes = p.value & expand_mask(take);
                    out |= bytes;
                    self.live_ins.record_bytes(cell, bytes, take);
                    need &= !take;
                }
                if need == 0 {
                    break;
                }
            }
        }
        if need != 0 {
            if let Some(cm) = self.committed.and_then(|c| c.get_masked(cell)) {
                let take = need & cm.mask;
                if take != 0 {
                    let bytes = cm.value & expand_mask(take);
                    out |= bytes;
                    self.live_ins.record_bytes(cell, bytes, take);
                    need &= !take;
                }
            }
        }
        if need != 0 {
            let bytes = self.arch.read_cell(cell) & expand_mask(need);
            out |= bytes;
            self.live_ins.record_bytes(cell, bytes, need);
        }
        out
    }
}

impl Storage for TaskStorage<'_> {
    fn read_reg(&mut self, r: Reg) -> u64 {
        if let Some(v) = self.regs.get(r) {
            return v;
        }
        let v = self.read_cell_masked(Cell::Reg(r), 0xFF);
        self.regs.fill(r, v);
        v
    }

    fn write_reg(&mut self, r: Reg, value: u64) {
        self.regs.write(r, value);
    }

    fn load_word(&mut self, widx: u64) -> u64 {
        self.read_cell_masked(Cell::Mem(widx), 0xFF)
    }

    fn load_word_masked(&mut self, widx: u64, mask: u8) -> u64 {
        let mask = if self.word_granular { 0xFF } else { mask };
        self.read_cell_masked(Cell::Mem(widx), mask)
    }

    fn store_word(&mut self, widx: u64, value: u64) {
        self.writes.set(Cell::Mem(widx), value);
    }

    fn store_word_masked(&mut self, widx: u64, value: u64, mask: u8) {
        if self.word_granular && mask != 0xFF {
            // Ablation mode: classic read-modify-write of the whole word,
            // recording a full-word live-in (false sharing included).
            let em = mssp_machine::expand_mask(mask);
            let old = self.read_cell_masked(Cell::Mem(widx), 0xFF);
            self.writes.set(Cell::Mem(widx), (old & !em) | (value & em));
        } else {
            // Byte-masked buffering: no read of the underlying word, hence
            // no false live-in on bytes this task never touches.
            self.writes.set_bytes(Cell::Mem(widx), value, mask);
        }
    }
}

/// The dense register layer of a task or recovery segment: 32 values, a
/// mask of registers whose value the segment knows (read or written), and
/// a mask of registers it wrote.
///
/// It belongs to the core running the segment — a slave's register file —
/// not to the [`Task`], which travels by value through the threaded
/// executor's rings and stays small.
///
/// The layer caches; it does not decide. A register's first read resolves
/// through the segment's layered view, which records the live-in exactly
/// as if there were no layer, and every later access is an array index.
/// [`RegLayer::fold_into`] moves the dirty registers into the segment's
/// write set when it ends, so every [`Delta`] the verify unit, the
/// committed view and the statistics see is unchanged by the layer.
#[derive(Debug, Clone)]
pub struct RegLayer {
    vals: [u64; NUM_REGS],
    /// Bit `r`: `vals[r]` is this segment's value of register `r`.
    known: u32,
    /// Bit `r`: the segment wrote `r` since the last fold.
    dirty: u32,
}

impl Default for RegLayer {
    /// An empty layer, except that the zero register is known (as zero).
    fn default() -> RegLayer {
        RegLayer {
            vals: [0; NUM_REGS],
            known: 1 << Reg::ZERO.index(),
            dirty: 0,
        }
    }
}

impl RegLayer {
    /// The segment's value of `r`, if it has read or written it.
    #[inline]
    #[must_use]
    pub fn get(&self, r: Reg) -> Option<u64> {
        let i = r.index();
        (self.known & (1 << i) != 0).then(|| self.vals[i])
    }

    /// Caches `value`, just resolved from below, as `r`'s value.
    #[inline]
    pub fn fill(&mut self, r: Reg, value: u64) {
        let i = r.index();
        self.vals[i] = value;
        self.known |= 1 << i;
    }

    /// Records a write of `value` to `r` (discarded for the zero register).
    #[inline]
    pub fn write(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            let i = r.index();
            self.vals[i] = value;
            self.known |= 1 << i;
            self.dirty |= 1 << i;
        }
    }

    /// Binds every register written since the last fold into `writes`
    /// and clears the dirty mask (the values stay known).
    pub fn fold_into(&mut self, writes: &mut Delta) {
        let mut dirty = self.dirty;
        while dirty != 0 {
            let i = dirty.trailing_zeros() as usize;
            writes.set(Cell::Reg(Reg::new(i as u8)), self.vals[i]);
            dirty &= dirty - 1;
        }
        self.dirty = 0;
    }
}

/// Storage for a non-speculative recovery segment: reads see the
/// segment's own writes over architected state directly (no prediction
/// overlay, no live-in recording — the values *are* correct by
/// construction), writes are buffered for one atomic commit at segment
/// end. Registers go through the same [`RegLayer`] as a task's; fold it
/// into `writes` before the commit.
#[derive(Debug)]
pub struct RecoveryStorage<'a> {
    /// The recovery segment's register layer.
    pub regs: &'a mut RegLayer,
    /// The recovery segment's private memory write buffer.
    pub writes: &'a mut Delta,
    /// The architected state being read through.
    pub arch: &'a MachineState,
}

impl Storage for RecoveryStorage<'_> {
    fn read_reg(&mut self, r: Reg) -> u64 {
        if let Some(v) = self.regs.get(r) {
            return v;
        }
        let v = self.arch.reg(r);
        self.regs.fill(r, v);
        v
    }

    fn write_reg(&mut self, r: Reg, value: u64) {
        self.regs.write(r, value);
    }

    fn load_word(&mut self, widx: u64) -> u64 {
        self.writes
            .get(Cell::Mem(widx))
            .unwrap_or_else(|| self.arch.load_word(widx))
    }

    fn store_word(&mut self, widx: u64, value: u64) {
        self.writes.set(Cell::Mem(widx), value);
    }
}

/// A static set of task-boundary PCs with the end-of-task test.
///
/// The test runs once per interpreted instruction, so the set is a dense
/// [`PcSet`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoundarySet {
    pcs: PcSet,
}

impl BoundarySet {
    /// Creates a boundary set from original-program PCs.
    #[must_use]
    pub fn new(pcs: impl IntoIterator<Item = u64>) -> BoundarySet {
        BoundarySet {
            pcs: PcSet::new(pcs),
        }
    }

    /// Whether `pc` is a task boundary.
    #[inline]
    #[must_use]
    pub fn contains(&self, pc: u64) -> bool {
        self.pcs.contains(pc)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn delta(pairs: &[(Cell, u64)]) -> Arc<Delta> {
        Arc::new(pairs.iter().copied().collect())
    }

    #[test]
    fn reads_layer_in_priority_order() {
        let mut arch = MachineState::new();
        arch.store_word(1, 100);
        arch.store_word(2, 200);
        arch.store_word(3, 300);
        let overlay = vec![
            delta(&[(Cell::Mem(2), 222)]),                      // newest segment
            delta(&[(Cell::Mem(2), 211), (Cell::Mem(3), 333)]), // older
        ];
        let mut task = Task::new(TaskId(0), 0x100, 0, overlay);
        let mut regs = RegLayer::default();
        let mut st = task.storage(&mut regs, &arch);
        assert_eq!(st.load_word(1), 100); // from arch
        assert_eq!(st.load_word(2), 222); // newest overlay wins
        assert_eq!(st.load_word(3), 333); // older overlay
        st.store_word(1, 111);
        assert_eq!(st.load_word(1), 111); // own write wins
    }

    #[test]
    fn live_ins_record_first_observed_value() {
        let mut arch = MachineState::new();
        arch.store_word(5, 50);
        let mut task = Task::new(TaskId(0), 0, 0, Vec::new());
        let mut regs = RegLayer::default();
        {
            let mut st = task.storage(&mut regs, &arch);
            assert_eq!(st.load_word(5), 50);
        }
        // Architected state changes (an older task committed).
        arch.store_word(5, 51);
        {
            let mut st = task.storage(&mut regs, &arch);
            // The task re-reads its recorded live-in, not the new value:
            // its view stays internally consistent.
            assert_eq!(st.load_word(5), 50);
        }
        assert_eq!(task.live_ins.get(Cell::Mem(5)), Some(50));
        // ...and verification against the *current* state now fails.
        assert!(!task.live_ins.consistent_with_state(&arch));
    }

    #[test]
    fn committed_view_layers_between_overlay_and_arch() {
        let mut arch = MachineState::new();
        arch.store_word(1, 100);
        arch.store_word(2, 200);
        let overlay = vec![delta(&[(Cell::Mem(2), 222)])];
        let committed: Delta = [(Cell::Mem(1), 111), (Cell::Mem(2), 211)]
            .into_iter()
            .collect();
        let mut task = Task::new(TaskId(0), 0, 0, overlay);
        let mut regs = RegLayer::default();
        {
            let mut st = task.storage_with_view(&mut regs, &arch, Some(&committed), false);
            assert_eq!(st.load_word(2), 222); // prediction overlay wins
            assert_eq!(st.load_word(1), 111); // committed view over arch
            assert_eq!(st.load_word(3), 0); // falls through to arch
        }
        // View reads are live-ins: they face the memoization test like
        // any other read from below the task's own writes.
        assert_eq!(task.live_ins.get(Cell::Mem(1)), Some(111));
        assert_eq!(task.live_ins.get(Cell::Mem(2)), Some(222));
    }

    #[test]
    fn own_writes_are_not_live_ins() {
        let arch = MachineState::new();
        let mut task = Task::new(TaskId(0), 0, 0, Vec::new());
        let mut regs = RegLayer::default();
        {
            let mut st = task.storage(&mut regs, &arch);
            st.write_reg(Reg::A0, 9);
            assert_eq!(st.read_reg(Reg::A0), 9);
        }
        assert!(task.live_ins.is_empty());
        // Register writes stay in the register layer until the task ends.
        assert!(task.writes.is_empty());
        task.finish(&mut regs, TaskEnd::Boundary(0), 0);
        assert_eq!(task.writes.get(Cell::Reg(Reg::A0)), Some(9));
    }

    #[test]
    fn register_reread_sees_first_value_after_arch_moves() {
        let mut arch = MachineState::new();
        arch.set_reg(Reg::A1, 3);
        let mut task = Task::new(TaskId(0), 0, 0, Vec::new());
        let mut regs = RegLayer::default();
        assert_eq!(task.storage(&mut regs, &arch).read_reg(Reg::A1), 3);
        // An older task commits a new value underneath.
        arch.set_reg(Reg::A1, 4);
        assert_eq!(task.storage(&mut regs, &arch).read_reg(Reg::A1), 3);
        assert_eq!(task.live_ins.get(Cell::Reg(Reg::A1)), Some(3));
        assert!(!task.live_ins.consistent_with_state(&arch));
    }

    #[test]
    fn fold_keeps_values_known_and_refolds_later_writes() {
        let mut regs = RegLayer::default();
        let mut writes = Delta::new();
        regs.write(Reg::S0, 1);
        regs.fold_into(&mut writes);
        assert_eq!(regs.get(Reg::S0), Some(1));
        regs.fold_into(&mut writes);
        regs.write(Reg::S0, 2);
        regs.write(Reg::ZERO, 7);
        regs.fold_into(&mut writes);
        assert_eq!(writes.get(Cell::Reg(Reg::S0)), Some(2));
        assert_eq!(writes.len(), 1);
        assert_eq!(regs.get(Reg::ZERO), Some(0));
        assert_eq!(regs.get(Reg::S1), None);
    }

    #[test]
    fn overlay_reads_are_recorded_as_live_ins() {
        let arch = MachineState::new();
        let overlay = vec![delta(&[(Cell::Reg(Reg::A1), 7)])];
        let mut task = Task::new(TaskId(0), 0, 0, overlay);
        let mut regs = RegLayer::default();
        {
            let mut st = task.storage(&mut regs, &arch);
            assert_eq!(st.read_reg(Reg::A1), 7);
        }
        // The predicted value is a live-in: it must match architected
        // state at commit or the task squashes.
        assert_eq!(task.live_ins.get(Cell::Reg(Reg::A1)), Some(7));
        assert!(!task.live_ins.consistent_with_state(&arch)); // arch has 0
    }

    #[test]
    fn zero_register_is_never_recorded() {
        let arch = MachineState::new();
        let mut task = Task::new(TaskId(0), 0, 0, Vec::new());
        let mut regs = RegLayer::default();
        {
            let mut st = task.storage(&mut regs, &arch);
            assert_eq!(st.read_reg(Reg::ZERO), 0);
            st.write_reg(Reg::ZERO, 5);
        }
        task.finish(&mut regs, TaskEnd::Boundary(0), 0);
        assert!(task.live_ins.is_empty());
        assert!(task.writes.is_empty());
    }

    #[test]
    fn recovery_storage_reads_through_and_buffers_writes() {
        let mut arch = MachineState::new();
        arch.set_reg(Reg::A0, 4);
        let mut regs = RegLayer::default();
        let mut writes = Delta::new();
        let mut st = RecoveryStorage {
            regs: &mut regs,
            writes: &mut writes,
            arch: &arch,
        };
        assert_eq!(st.read_reg(Reg::A0), 4);
        st.write_reg(Reg::A0, 5);
        assert_eq!(st.read_reg(Reg::A0), 5);
        // Arch untouched until the atomic commit.
        assert_eq!(arch.reg(Reg::A0), 4);
        regs.fold_into(&mut writes);
        assert_eq!(writes.get(Cell::Reg(Reg::A0)), Some(5));
    }

    #[test]
    fn boundary_set_membership() {
        let b = BoundarySet::new(BTreeSet::from([0x100, 0x200]));
        assert!(b.contains(0x100));
        assert!(b.contains(0x200));
        assert!(!b.contains(0x104));
    }
}
