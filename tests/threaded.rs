//! The threaded executor (real OS-thread slaves) must commit exactly the
//! sequential state for every workload, any worker count — MSSP's
//! correctness does not depend on scheduling.

use mssp::core::{run_threaded, EngineConfig};
use mssp::prelude::*;

#[test]
fn threaded_matches_sequential_for_all_workloads() {
    for w in workloads() {
        let program = w.program(1_000);
        let mut seq = SeqMachine::boot(&program);
        seq.run(u64::MAX).unwrap();
        let profile = Profile::collect(&program, u64::MAX).unwrap();
        let d = distill(&program, &profile, &DistillConfig::default()).unwrap();
        let run = run_threaded(&program, &d, EngineConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(
            run.state.reg(CHECKSUM_REG),
            seq.state().reg(CHECKSUM_REG),
            "{} diverged under the threaded executor",
            w.name
        );
    }
}

#[test]
fn threaded_worker_count_does_not_affect_state() {
    let w = Workload::by_name("vortex_like").unwrap();
    let program = w.program(2_000);
    let mut seq = SeqMachine::boot(&program);
    seq.run(u64::MAX).unwrap();
    let expected = seq.state().reg(CHECKSUM_REG);
    let profile = Profile::collect(&program, u64::MAX).unwrap();
    let d = distill(&program, &profile, &DistillConfig::default()).unwrap();
    for workers in [1usize, 2, 4, 8] {
        let cfg = EngineConfig {
            num_slaves: workers,
            ..EngineConfig::default()
        };
        let run = run_threaded(&program, &d, cfg).unwrap();
        assert_eq!(run.state.reg(CHECKSUM_REG), expected, "{workers} workers");
    }
}

#[test]
fn threaded_survives_garbage_master() {
    use std::collections::{BTreeMap, BTreeSet};
    let program = assemble(
        "main: addi s0, zero, 400
         loop: add  s1, s1, s0
               addi s0, s0, -1
               bnez s0, loop
               halt",
    )
    .unwrap();
    let mut seq = SeqMachine::boot(&program);
    seq.run(u64::MAX).unwrap();
    let garbage = assemble("main: addi s1, s1, 1\n evil: addi s0, s0, 3\n j evil").unwrap();
    let mut map = BTreeMap::new();
    map.insert(program.entry(), garbage.entry());
    map.insert(program.entry() + 4, garbage.symbol("evil").unwrap());
    let d = Distilled::from_parts(garbage, BTreeSet::from([program.entry() + 4]), map);
    let run = run_threaded(&program, &d, EngineConfig::default()).unwrap();
    assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
}

#[test]
fn both_drivers_fill_the_live_in_split_and_slave_counters() {
    let w = Workload::by_name("mcf_like").unwrap();
    let program = w.program(500);
    let profile = Profile::collect(&program, u64::MAX).unwrap();
    let d = distill(&program, &profile, &DistillConfig::default()).unwrap();
    let cfg = EngineConfig {
        num_slaves: 2,
        ..EngineConfig::default()
    };
    let discrete = Engine::new(&program, &d, cfg, UnitCost)
        .run()
        .unwrap()
        .stats;
    let threaded = run_threaded(&program, &d, cfg).unwrap().stats;
    for (driver, s) in [("discrete", discrete), ("threaded", threaded)] {
        assert_eq!(
            s.live_in_reg_cells + s.live_in_mem_cells,
            s.live_in_cells,
            "{driver}: {s:?}"
        );
        assert!(s.live_in_mem_cells > 0, "{driver}: {s:?}");
        assert!(s.max_live_in_cells > 0, "{driver}: {s:?}");
        // Every committed task's instructions ran on a slave first.
        assert!(
            s.slave_instructions >= s.committed_instructions - s.recovery_instructions,
            "{driver}: {s:?}"
        );
        assert!(
            s.wasted_slave_instructions <= s.slave_instructions,
            "{driver}: {s:?}"
        );
    }
}
