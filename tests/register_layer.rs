//! Property tests of the dense register layer tasks and recovery segments
//! read and write registers through.
//!
//! The layer caches a register's value after its first read and buffers
//! register writes until the segment ends. It must not change what any
//! `Delta` holds: a task run from snapshot `S` with no overlay and no
//! committed view must write exactly the sequential machine's cumulative
//! writes `Δ(S, n)`, record live-ins consistent with `S`, and record a
//! register as a live-in exactly when it was read before being written.
//! The threaded executor's `run_segment` and the discrete engine's
//! per-instruction `storage()` must agree on both sets.
//!
//! Random structured programs come from the shared `arb_loop_nest`
//! generator, seeded with `mssp-testkit`; a failing case prints its seed.

mod common;

use std::collections::BTreeSet;

use common::arb_loop_nest;
use mssp::core::{BoundarySet, RecoveryStorage, RegLayer, SegmentRules, Task, TaskEnd, TaskId};
use mssp::isa::asm::assemble;
use mssp::isa::{Program, Reg, INSTR_BYTES};
use mssp::machine::{
    cumulative_writes, expand_mask, step, Cell, Delta, MachineState, SeqMachine, Storage,
};
use mssp_testkit::{check, Rng};

/// A random program, a state `S` some way into its run, and random task
/// boundaries across its text.
fn arb_case(rng: &mut Rng) -> (Program, MachineState, BTreeSet<u64>) {
    let program = assemble(&arb_loop_nest(rng)).expect("generated programs assemble");
    let mut seq = SeqMachine::boot(&program);
    for _ in 0..rng.gen_range(0, 3_000) {
        if seq.halted() {
            break;
        }
        seq.step().expect("generated programs do not fault");
    }
    let s = seq.into_state();
    let boundaries = (0..rng.gen_range(1, 6))
        .map(|_| program.text_base() + rng.gen_range(0, program.len() as u64) * INSTR_BYTES)
        .collect();
    (program, s, boundaries)
}

/// Sequential storage that notes which registers were read before the
/// first write to them: the register live-ins of the run.
struct FirstTouch<'a> {
    state: &'a mut MachineState,
    written: u32,
    read_first: u32,
}

impl Storage for FirstTouch<'_> {
    fn read_reg(&mut self, r: Reg) -> u64 {
        let bit = 1 << r.index();
        if !r.is_zero() && self.written & bit == 0 {
            self.read_first |= bit;
        }
        self.state.reg(r)
    }

    fn write_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.written |= 1 << r.index();
        }
        self.state.set_reg(r, value);
    }

    fn load_word(&mut self, widx: u64) -> u64 {
        self.state.load_word(widx)
    }

    fn store_word(&mut self, widx: u64, value: u64) {
        self.state.store_word(widx, value);
    }
}

/// The registers read before written in the first `n` steps from `s`.
fn read_before_written(program: &Program, mut s: MachineState, n: u64) -> BTreeSet<Reg> {
    let mut touch = FirstTouch {
        state: &mut s,
        written: 0,
        read_first: 0,
    };
    let mut pc = touch.state.pc();
    for _ in 0..n {
        let info = step(&mut touch, program, pc).expect("no faults");
        if info.halted {
            break;
        }
        pc = info.next_pc;
    }
    (0..32u8)
        .filter(|&i| touch.read_first & (1 << i) != 0)
        .map(Reg::new)
        .collect()
}

/// `Δ(S, n)` without the PC cell (tasks carry their end PC separately).
fn cumulative(program: &Program, s: &MachineState, n: u64) -> Delta {
    let mut cum = cumulative_writes(program, s.clone(), n).expect("no faults");
    cum.remove(Cell::Pc);
    cum
}

/// Runs a task from `s` one instruction at a time through
/// [`Task::storage`], for exactly `n` instructions, and ends it.
fn run_per_step(program: &Program, s: &MachineState, n: u64, end: TaskEnd) -> Task {
    let mut task = Task::new(TaskId(0), s.pc(), 0, Vec::new());
    let mut regs = RegLayer::default();
    for _ in 0..n {
        let pc = task.pc;
        let info = step(&mut task.storage(&mut regs, s), program, pc).expect("no faults");
        task.executed += 1;
        task.pc = info.next_pc;
    }
    if matches!(end, TaskEnd::Halted(_)) {
        let pc = task.pc;
        step(&mut task.storage(&mut regs, s), program, pc).expect("halt executes");
    }
    task.finish(&mut regs, end, 0);
    task
}

#[test]
fn register_layer_matches_sequential_semantics() {
    check(0x4E61_0001, 64, |rng| {
        let (program, s, pcs) = arb_case(rng);
        let boundaries = BoundarySet::new(pcs);
        let rules = SegmentRules {
            boundaries: &boundaries,
            crossings_per_task: rng.gen_range(1, 4),
            max_instrs: rng.gen_range(1, 2_000),
        };
        let mut task = Task::new(TaskId(0), s.pc(), 0, Vec::new());
        let end = task.run_segment(&program, &s, &rules, || false);
        assert_ne!(end, TaskEnd::Fault);
        let n = task.executed;

        // Writes: registers exactly, memory on the bytes the task bound
        // (a byte store binds one byte; `Δ` holds the whole word).
        let cum = cumulative(&program, &s, n);
        let cells = |d: &Delta| d.iter_masked().map(|(c, _)| c).collect::<Vec<_>>();
        assert_eq!(cells(&task.writes), cells(&cum));
        for (cell, m) in task.writes.iter_masked() {
            let want = cum.get(cell).expect("cell written");
            assert_eq!(m.value, want & expand_mask(m.mask), "{cell}");
            if cell.is_reg() {
                assert!(m.is_full(), "{cell}");
            }
        }

        // Live-ins: consistent with S; registers exactly those read
        // before written.
        assert!(task.live_ins.consistent_with_state(&s));
        let reg_live_ins: BTreeSet<Reg> = task
            .live_ins
            .iter()
            .filter_map(|(c, _)| match c {
                Cell::Reg(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(reg_live_ins, read_before_written(&program, s.clone(), n));

        // The discrete engine's per-step path records the same sets.
        let stepped = run_per_step(&program, &s, n, end);
        assert_eq!(stepped.writes, task.writes);
        assert_eq!(stepped.live_ins, task.live_ins);
    });
}

#[test]
fn recovery_register_layer_commits_sequential_writes() {
    check(0x4E61_0002, 64, |rng| {
        let (program, s, _) = arb_case(rng);
        let n = rng.gen_range(1, 2_000);
        let mut regs = RegLayer::default();
        let mut writes = Delta::new();
        let mut pc = s.pc();
        let mut executed = 0;
        while executed < n {
            let mut storage = RecoveryStorage {
                regs: &mut regs,
                writes: &mut writes,
                arch: &s,
            };
            let info = step(&mut storage, &program, pc).expect("no faults");
            if info.halted {
                break;
            }
            executed += 1;
            pc = info.next_pc;
        }
        regs.fold_into(&mut writes);
        assert_eq!(writes, cumulative(&program, &s, executed));
        let mut committed = s.clone();
        committed.apply(&writes);
        committed.set_pc(pc);
        let mut seq = SeqMachine::resume(&program, s.clone());
        for _ in 0..executed {
            seq.step().expect("no faults");
        }
        assert_eq!(&committed, seq.state());
    });
}
