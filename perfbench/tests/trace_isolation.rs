//! The traced pass's instruments — `TimedCost` hooks, the timed
//! recompiler and the counting allocator — are never active while the
//! end-to-end pass times a run. One test function, so no other test in
//! this process touches the global counters meanwhile.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mssp_core::UnitCost;
use perfbench::ledger::{self, CountingAlloc, TimedCost};
use perfbench::{e2e, prepare, traced, Spec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn end_to_end_timing_runs_with_every_instrument_off() {
    assert!(ledger::counting_alloc_installed());
    for name in ["steady_crafty", "adaptive_flip"] {
        let spec = Spec::by_name(name).expect("known workload").with_scale(600);
        let setup = prepare(&spec, 3).expect("small set-up succeeds");

        // End-to-end: nothing counted, no hook served.
        let (allocs, hooks) = (ledger::allocations(), ledger::hooks_served());
        let report = e2e::measure(&setup, 0.2);
        assert!(report.correct(), "{name}: {:?}", report.notes);
        assert_eq!(ledger::allocations(), allocs, "{name}: allocator armed");
        assert_eq!(ledger::hooks_served(), hooks, "{name}: a TimedCost ran");
        assert!(!ledger::active());

        // The traced pass does use them, so the check above has teeth.
        let report = traced::measure(&setup, 0.2);
        assert!(report.correct(), "{name}: {:?}", report.notes);
        assert!(ledger::allocations() > allocs, "{name}: nothing counted");
        assert!(ledger::hooks_served() > hooks, "{name}: no hook served");
        assert!(!ledger::active(), "{name}: an instrument outlived its pass");

        // A live instrument stops the end-to-end pass before it times.
        let live = TimedCost::new(UnitCost);
        let refused = catch_unwind(AssertUnwindSafe(|| e2e::measure(&setup, 0.1)));
        assert!(refused.is_err(), "{name}: timed with a TimedCost live");
        drop(live);
    }
}
