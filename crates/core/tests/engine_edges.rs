//! Engine edge-path tests: overrun, fault, master run-ahead, recovery
//! caps, diagnostics APIs — the squash/recovery machinery under hostile
//! configurations.

use std::collections::{BTreeMap, BTreeSet};

use mssp_analysis::Profile;
use mssp_core::{run_threaded, Engine, EngineConfig, EngineError, EngineStats, UnitCost};
use mssp_distill::{distill, DistillConfig, Distilled};
use mssp_isa::asm::assemble;
use mssp_isa::{Program, Reg};
use mssp_machine::SeqMachine;

const SUM: &str = "
    main: addi s0, zero, 120
    loop: add  s1, s1, s0
          addi s0, s0, -1
          bnez s0, loop
          halt";

fn seq_s1(p: &Program) -> u64 {
    let mut m = SeqMachine::boot(p);
    m.run(u64::MAX).unwrap();
    m.state().reg(Reg::S1)
}

fn honest(p: &Program) -> Distilled {
    let profile = Profile::collect(p, u64::MAX).unwrap();
    distill(p, &profile, &DistillConfig::default()).unwrap()
}

#[test]
fn tiny_task_cap_forces_overruns_but_stays_correct() {
    let p = assemble(SUM).unwrap();
    let d = honest(&p);
    let cfg = EngineConfig {
        max_task_instrs: 4, // absurdly small: every multi-crossing task overruns
        ..EngineConfig::default()
    };
    let run = Engine::new(&p, &d, cfg, UnitCost).run().unwrap();
    assert_eq!(run.state.reg(Reg::S1), seq_s1(&p));
}

/// A master that spins without ever crossing a boundary.
fn spinning_master(p: &Program) -> Distilled {
    let spin = assemble("main: j main").unwrap();
    let mut map = BTreeMap::new();
    map.insert(p.entry(), spin.entry());
    Distilled::from_parts(spin, BTreeSet::from([p.entry() + 4]), map)
}

#[test]
fn master_runahead_cap_marks_master_lost_but_stays_correct() {
    let p = assemble(SUM).unwrap();
    let d = spinning_master(&p);
    let cfg = EngineConfig {
        master_runahead: 100,
        ..EngineConfig::default()
    };
    let run = Engine::new(&p, &d, cfg, UnitCost).run().unwrap();
    assert_eq!(run.state.reg(Reg::S1), seq_s1(&p));
    // Work flowed through starvation recovery (spin master spawned one
    // task at entry; everything after came from recovery segments).
    assert!(run.stats.recovery_instructions > 0);
}

/// Runs `d` under the threaded executor at 1 and 4 workers: the result
/// is sequential and recovery segments carried work.
fn threaded_starvation_recovers(
    p: &Program,
    d: &Distilled,
    master_runahead: u64,
) -> [EngineStats; 2] {
    [1, 4].map(|workers| {
        let cfg = EngineConfig {
            num_slaves: workers,
            master_runahead,
            ..EngineConfig::default()
        };
        let run = run_threaded(p, d, cfg).unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq_s1(p), "{workers} workers");
        assert!(run.stats.recovery_instructions > 0, "{workers} workers");
        run.stats
    })
}

#[test]
fn threaded_runahead_cap_marks_spinning_master_lost() {
    let p = assemble(SUM).unwrap();
    threaded_starvation_recovers(&p, &spinning_master(&p), 100);
}

/// A master whose PC map lacks the entry PC restarts straight into
/// `Lost` without running an instruction. The threaded run must neither
/// block waiting on it nor lose work: recovery reaches the loop head,
/// where the (otherwise faithful) master takes over.
#[test]
fn threaded_master_restarting_into_lost_does_not_hang() {
    let p = assemble(SUM).unwrap();
    let copy = assemble(SUM).unwrap();
    let map: BTreeMap<u64, u64> = (1..p.len() as u64)
        .map(|i| (p.entry() + 4 * i, copy.entry() + 4 * i))
        .collect();
    let d = Distilled::from_parts(copy, BTreeSet::from([p.entry() + 4]), map);
    let runahead = EngineConfig::default().master_runahead;
    for s in threaded_starvation_recovers(&p, &d, runahead) {
        assert!(s.committed_tasks > 0, "{s:?}");
    }
}

#[test]
fn recovery_cap_reports_engine_error() {
    // A program that loops forever with no boundary: recovery cannot end.
    let p = assemble("main: j main").unwrap();
    let dead = assemble("main: halt").unwrap();
    let mut map = BTreeMap::new();
    map.insert(p.entry(), dead.entry());
    let d = Distilled::from_parts(dead, BTreeSet::new(), map);
    let cfg = EngineConfig {
        max_recovery_instrs: 1_000,
        max_task_instrs: 100,
        ..EngineConfig::default()
    };
    let err = Engine::new(&p, &d, cfg, UnitCost).run().unwrap_err();
    assert_eq!(err, EngineError::RecoveryLimit);
}

#[test]
fn wild_jump_in_original_program_faults_recovery() {
    // The original program itself jumps outside the text segment: that is
    // a genuine program error and must surface as RecoveryFault, not hang.
    let p = assemble("main: li t0, 0x40000\n jalr zero, 0(t0)\n halt").unwrap();
    let dead = assemble("main: halt").unwrap();
    let mut map = BTreeMap::new();
    map.insert(p.entry(), dead.entry());
    let d = Distilled::from_parts(dead, BTreeSet::new(), map);
    let err = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
        .run()
        .unwrap_err();
    assert!(matches!(err, EngineError::RecoveryFault(_)));
}

#[test]
fn mismatch_samples_capture_failing_cells() {
    let p = assemble(SUM).unwrap();
    // A lying master: predicts wrong s1 at the loop boundary.
    let liar = assemble(
        "main: addi s1, zero, 9999
         spin: addi s1, s1, 9999
               j spin",
    )
    .unwrap();
    let loop_pc = p.symbol("loop").unwrap();
    let mut map = BTreeMap::new();
    map.insert(p.entry(), liar.entry());
    map.insert(loop_pc, liar.symbol("spin").unwrap());
    let d = Distilled::from_parts(liar, BTreeSet::from([loop_pc]), map);
    let mut engine = Engine::new(&p, &d, EngineConfig::default(), UnitCost);
    engine.enable_mismatch_samples(16);
    let run = engine.run().unwrap();
    assert_eq!(run.state.reg(Reg::S1), seq_s1(&p));
    let samples = run.mismatch_samples.unwrap();
    assert!(!samples.is_empty(), "lying master must produce samples");
    // The mismatching cell is s1 with the liar's arithmetic progression.
    assert!(samples[0]
        .cells
        .iter()
        .any(|(c, _, _)| matches!(c, mssp_machine::Cell::Reg(r) if *r == Reg::S1)));
}

#[test]
fn task_size_trace_sums_to_committed_instructions() {
    let p = assemble(SUM).unwrap();
    let d = honest(&p);
    let mut engine = Engine::new(&p, &d, EngineConfig::default(), UnitCost);
    engine.enable_task_size_trace();
    let run = engine.run().unwrap();
    let sizes = run.task_sizes.unwrap();
    let from_tasks: u64 = sizes.iter().sum();
    assert_eq!(
        from_tasks + run.stats.recovery_instructions,
        run.stats.committed_instructions
    );
}

#[test]
fn stats_helper_functions() {
    let p = assemble(SUM).unwrap();
    let d = honest(&p);
    let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
        .run()
        .unwrap();
    let s = run.stats;
    assert_eq!(
        s.squash_events(),
        s.squashes_wrong_path + s.squashes_live_in + s.squashes_overrun + s.squashes_fault
    );
    assert!(s.waste_fraction() >= 0.0 && s.waste_fraction() <= 1.0);
    assert!(s.recovery_fraction() >= 0.0 && s.recovery_fraction() <= 1.0);
}

#[test]
fn single_instruction_program() {
    let p = assemble("main: halt").unwrap();
    let profile = Profile::collect(&p, u64::MAX).unwrap();
    let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
    let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
        .run()
        .unwrap();
    assert_eq!(run.stats.committed_instructions, 0);
}

#[test]
fn boundary_on_entry_pc_is_harmless() {
    let p = assemble(SUM).unwrap();
    let dead = assemble("main: halt").unwrap();
    let mut map = BTreeMap::new();
    map.insert(p.entry(), dead.entry());
    // Entry itself is a boundary: the first task must still make progress.
    let d = Distilled::from_parts(dead, BTreeSet::from([p.entry()]), map);
    let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
        .run()
        .unwrap();
    assert_eq!(run.state.reg(Reg::S1), seq_s1(&p));
}

#[test]
fn word_granular_mode_is_correct_but_squashier() {
    // Byte-writing loop where adjacent tasks share words.
    let p = assemble(
        "main:  li   s2, 0x300000
                addi s0, zero, 2000
         loop:  andi t0, s0, 127
                add  t1, s2, s0
                sb   t0, 0(t1)
                add  s1, s1, t0
                addi s0, s0, -1
                bnez s0, loop
                halt",
    )
    .unwrap();
    let profile = Profile::collect(&p, u64::MAX).unwrap();
    let dcfg = DistillConfig {
        target_task_size: 24,
        ..DistillConfig::default()
    };
    let d = distill(&p, &profile, &dcfg).unwrap();
    let byte_cfg = EngineConfig::default();
    let word_cfg = EngineConfig {
        word_granular_live_ins: true,
        ..EngineConfig::default()
    };
    let byte_run = Engine::new(&p, &d, byte_cfg, UnitCost).run().unwrap();
    let word_run = Engine::new(&p, &d, word_cfg, UnitCost).run().unwrap();
    // Both are CORRECT — granularity is a performance knob only.
    assert_eq!(byte_run.state.reg(Reg::S1), seq_s1(&p));
    assert_eq!(word_run.state.reg(Reg::S1), seq_s1(&p));
    // But word granularity false-shares.
    assert!(
        word_run.stats.squash_events() > byte_run.stats.squash_events(),
        "word {} vs byte {}",
        word_run.stats.squash_events(),
        byte_run.stats.squash_events()
    );
}

/// A liar master spawning wrong predictions at the loop boundary.
fn liar(p: &Program) -> Distilled {
    let liar = assemble(
        "main: addi s1, zero, 77
         spin: addi s1, s1, 77
               j spin",
    )
    .unwrap();
    let loop_pc = p.symbol("loop").unwrap();
    let mut map = BTreeMap::new();
    map.insert(p.entry(), liar.entry());
    map.insert(loop_pc, liar.symbol("spin").unwrap());
    Distilled::from_parts(liar, BTreeSet::from([loop_pc]), map)
}

/// Throttles after more than 2 squashes in 16 tasks, for 8 recovery
/// segments.
fn throttled_config() -> EngineConfig {
    EngineConfig {
        throttle_threshold: 2,
        throttle_window: 16,
        throttle_duration: 8,
        ..EngineConfig::default()
    }
}

#[test]
fn throttling_reduces_wasted_work_under_a_bad_master() {
    let p = assemble(SUM).unwrap();
    let d = liar(&p);
    let plain = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
        .run()
        .unwrap();
    let throttled = Engine::new(&p, &d, throttled_config(), UnitCost)
        .run()
        .unwrap();
    assert_eq!(plain.state.reg(Reg::S1), seq_s1(&p));
    assert_eq!(throttled.state.reg(Reg::S1), seq_s1(&p));
    assert!(throttled.stats.throttle_events > 0);
    assert!(
        throttled.stats.wasted_slave_instructions < plain.stats.wasted_slave_instructions,
        "throttled waste {} vs plain {}",
        throttled.stats.wasted_slave_instructions,
        plain.stats.wasted_slave_instructions
    );
}

#[test]
fn threaded_executor_honours_the_throttle() {
    let p = assemble(SUM).unwrap();
    let d = liar(&p);
    let mut seq = SeqMachine::boot(&p);
    seq.run(u64::MAX).unwrap();
    for workers in [1usize, 2] {
        let cfg = EngineConfig {
            num_slaves: workers,
            ..throttled_config()
        };
        let run = run_threaded(&p, &d, cfg).unwrap();
        assert!(
            run.stats.throttle_events > 0,
            "{workers} workers: {:?}",
            run.stats
        );
        // With the master offline, starvation recovery carries execution:
        // more recovery segments than squashes.
        assert!(
            run.stats.recovery_segments > run.stats.squash_events(),
            "{workers} workers: {:?}",
            run.stats
        );
        assert_eq!(run.state, *seq.state(), "{workers} workers");
    }
}
