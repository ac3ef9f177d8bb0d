//! The timing `CostModel` wrapper must be invisible to the engine: on
//! every workload, a discrete run through `TimedCost<CmpCost>` (with the
//! timed recompiler on the adaptive workload) reports exactly the cycles
//! and `EngineStats` of a plain `CmpCost` run, and `TimedCost<UnitCost>`
//! exactly those of a plain `UnitCost` run.

use std::sync::Arc;

use mssp_core::UnitCost;
use mssp_timing::CmpCost;
use perfbench::e2e::sim_run;
use perfbench::ledger::{RecompileClock, TimedCost};
use perfbench::traced::discrete;
use perfbench::{prepare, Setup, SPECS};

/// Small scales: a few hundred tasks each, phase B still squashing.
fn small(name: &str) -> Setup {
    let spec = SPECS
        .iter()
        .find(|s| s.name == name)
        .expect("known workload");
    let scale = match name {
        "steady_crafty" => 400,
        "pointer_mcf" => 512,
        _ => 1_500,
    };
    prepare(&spec.with_scale(scale), 7).expect("small set-up succeeds")
}

#[test]
fn timed_cost_leaves_cycles_and_stats_bit_identical() {
    for spec in SPECS {
        let setup = small(spec.name);
        let (_, _, cycles, stats) = sim_run(&setup).expect("plain CmpCost run");
        let clock = Arc::new(RecompileClock::default());
        let cost = TimedCost::new(CmpCost::new(&setup.timing_config())).excluding(clock.clone());
        let (_, traced, cost) = discrete(&setup, cost, Some(clock.clone())).expect("traced run");
        assert_eq!(
            traced.cycles, cycles,
            "{}: timing.mssp_cycles moved",
            spec.name
        );
        assert_eq!(traced.stats, stats, "{}: EngineStats moved", spec.name);
        assert!(cost.ledger().hooks > 0, "{}: no hook was timed", spec.name);
        if spec.adaptive {
            assert!(stats.swaps_installed > 0, "{}: no swap to time", spec.name);
            assert!(clock.total_ns() > 0, "{}: recompiler not timed", spec.name);
        }

        let (_, plain, _) = discrete(&setup, UnitCost, None).expect("plain UnitCost run");
        let (_, traced, _) =
            discrete(&setup, TimedCost::new(UnitCost), None).expect("traced UnitCost run");
        assert_eq!(
            traced.cycles, plain.cycles,
            "{}: unit cycles moved",
            spec.name
        );
        assert_eq!(traced.stats, plain.stats, "{}: unit stats moved", spec.name);
    }
}
