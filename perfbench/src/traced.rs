//! The traced pass: per-layer metrics, timed from outside.
//!
//! * Set-up stages are timed one call at a time (in [`crate::prepare`]).
//! * The discrete `Engine` runs through [`TimedCost`], giving host time
//!   per master step, spawn, slave step, verify, commit and recovery step
//!   — once over `UnitCost` (protocol compute alone; its wall-clock
//!   against an unwrapped run is the tracing overhead) and once over
//!   `CmpCost` (the cost model's own host time).
//! * Threaded runs alternate with sequential ones, recording process CPU
//!   time, the executor's counters and, for the adaptive workload, the
//!   time spent in the timed recompiler. One more threaded run counts
//!   allocations.
//! * `mssp_core::ring::spsc` is timed in a two-thread ping-pong.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mssp_core::{ring, CostModel, Engine, EngineStats, MsspRun, UnitCost};
use mssp_timing::CmpCost;

use crate::e2e::{mssp_run, seq_run, sim_run};
use crate::ledger::{timed_recompiler, ArmedAllocCounter, Ledger, RecompileClock, TimedCost};
use crate::report::{Report, Samples};
use crate::{host, ledger, Setup, StageTimes};

/// Set-ups timed stage by stage: at least this many, for at least this
/// long.
const SETUP_REPS: usize = 5;
const SETUP_TIME: Duration = Duration::from_millis(500);
/// Discrete-engine runs per variant (untraced and traced `UnitCost`).
const DISCRETE_REPS: usize = 3;
/// `MachineState::clone` repetitions.
const CLONE_REPS: usize = 200;
/// Ring round trips per timed batch, and batches.
const RING_TRIPS: u32 = 2_000;
const RING_BATCHES: usize = 15;
/// Sequential/threaded pairs measured even when time runs out.
const MIN_PAIRS: usize = 3;

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// One discrete engine run over `cost`, timed around `run_returning_cost`;
/// an adaptive workload gets its recompiler, timed into `clock` if given.
///
/// # Errors
///
/// A description if the engine failed or ended in a wrong state.
pub fn discrete<C: CostModel>(
    setup: &Setup,
    cost: C,
    clock: Option<Arc<RecompileClock>>,
) -> Result<(Duration, MsspRun, C), String> {
    let b = &setup.built;
    let mut engine = Engine::new(&b.program, &b.distilled, setup.engine_config(), cost);
    if setup.spec.adaptive {
        let (ctl, rec) = setup.adaptive_parts();
        let rec = match clock {
            Some(clock) => timed_recompiler(rec, clock),
            None => rec,
        };
        engine.enable_adaptive(ctl, rec);
    }
    let t = Instant::now();
    let (run, cost) = engine
        .run_returning_cost()
        .map_err(|e| format!("discrete engine: {e}"))?;
    let elapsed = t.elapsed();
    if run.state != setup.expected {
        return Err("discrete engine: final state differs from SeqMachine's".into());
    }
    Ok((elapsed, run, cost))
}

/// A traced discrete run must match the plain one bit for bit.
fn same_run(a: &MsspRun, b: &MsspRun) -> bool {
    a.cycles == b.cycles && a.stats == b.stats
}

/// Median round trip of one `u64` through two `ring::spsc` rings and an
/// echo thread, in nanoseconds.
#[must_use]
pub fn spsc_roundtrip_ns() -> Samples {
    let (mut to_echo, mut echo_rx) = ring::spsc::<u32>(64);
    let (mut echo_tx, mut back) = ring::spsc::<u32>(64);
    let mut samples = Samples::default();
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(v) = echo_rx.recv() {
                if echo_tx.send(v).is_err() {
                    break;
                }
            }
        });
        for _ in 0..RING_BATCHES {
            let t = Instant::now();
            for i in 0..RING_TRIPS {
                let sent = to_echo.send(i);
                let got = back.recv();
                assert!(sent.is_ok() && got == Ok(i), "echo ring broke");
            }
            samples.push(t.elapsed().as_nanos() as f64 / f64::from(RING_TRIPS));
        }
        drop(to_echo);
    });
    samples
}

/// Per-run figures of one traced threaded run.
struct ThreadedSample {
    stats: EngineStats,
    cpu: Duration,
    recompile: Duration,
    first_swap_at: u64,
}

/// Measures the per-layer metrics, spending about `seconds` in all.
#[must_use]
pub fn measure(setup: &Setup, seconds: f64) -> Report {
    let start = Instant::now();
    let mut r = Report::new();
    let b = &setup.built;

    // ---- set-up stages ----
    let mut builds = vec![setup.first_build];
    while builds.len() < SETUP_REPS || start.elapsed() < SETUP_TIME {
        match setup.rebuild() {
            Ok(times) => builds.push(times),
            Err(e) => {
                r.check(false, || e.to_string());
                break;
            }
        }
    }
    let stage = |f: fn(&StageTimes) -> Duration| {
        let mut s = Samples::default();
        for t in &builds {
            s.push_secs(f(t));
        }
        s
    };
    r.timing("isa.assemble_s", "s", &stage(|t| t.assemble));
    r.timing("analysis.profile_s", "s", &stage(|t| t.profile));
    r.timing("distill.distill_s", "s", &stage(|t| t.distill));
    r.timing("lint.gate_s", "s", &stage(|t| t.lint));
    let ds = b.distilled.stats();
    let static_ratio = per(ds.distilled_static as u64, ds.original_static as u64);
    r.value("distill.static_ratio", "ratio", static_ratio);
    r.value(
        "distill.asserted_branches",
        "count",
        ds.asserted_branches as f64,
    );

    // ---- the interpreter and architected state ----
    let mut seq = Samples::default();
    for _ in 0..DISCRETE_REPS {
        let run = seq_run(setup);
        r.check(run.is_some(), || "sequential run: wrong final state".into());
        if let Some(t) = run {
            seq.push(t.as_secs_f64() * 1e9 / setup.seq_instructions as f64);
        }
    }
    r.timing("machine.seq_ns_per_instr", "ns/instr", &seq);
    let pages = setup.expected.mem().resident_pages();
    r.value("machine.resident_pages", "count", pages as f64);
    let mut clone = Samples::default();
    for _ in 0..CLONE_REPS {
        let t = Instant::now();
        let copy = black_box(setup.expected.clone());
        clone.push(t.elapsed().as_secs_f64() * 1e6);
        drop(copy);
    }
    r.timing("machine.snapshot_clone_us", "us", &clone);

    // ---- discrete engine: protocol compute, then the cost model ----
    let mut unit_wall = Samples::default();
    let mut traced_wall = Samples::default();
    let mut unit_ledger = Ledger::default();
    for _ in 0..DISCRETE_REPS {
        let plain = discrete(setup, UnitCost, None);
        let clock = Arc::new(RecompileClock::default());
        let cost = TimedCost::new(UnitCost).excluding(Arc::clone(&clock));
        let traced = discrete(setup, cost, Some(clock));
        match (plain, traced) {
            (Ok((pt, plain, _)), Ok((tt, traced, cost))) => {
                unit_wall.push_secs(pt);
                traced_wall.push_secs(tt);
                unit_ledger.add(cost.ledger());
                r.check(same_run(&plain, &traced), || {
                    "TimedCost<UnitCost> changed the discrete run".into()
                });
            }
            (p, t) => {
                let err = p.err().or(t.err()).unwrap_or_default();
                r.check(false, || err);
            }
        }
    }
    let l = &unit_ledger;
    r.value(
        "core.master.ns_per_instr",
        "ns/instr",
        l.master.ns_per_event(),
    );
    r.value("core.master.spawn_ns", "ns/task", l.spawn.ns_per_event());
    r.value("core.task.ns_per_instr", "ns/instr", l.slave.ns_per_event());
    r.value(
        "core.verify.verify_ns_per_task",
        "ns/task",
        l.verify.ns_per_event(),
    );
    r.value(
        "core.verify.commit_ns_per_task",
        "ns/task",
        l.commit.ns_per_event(),
    );
    r.value(
        "core.verify.recovery_ns_per_instr",
        "ns/instr",
        l.recovery.ns_per_event(),
    );
    r.timing("core.engine.unit_wall_s", "s", &unit_wall);
    r.value(
        "trace.overhead_s",
        "s",
        traced_wall.median() - unit_wall.median(),
    );

    let tcfg = setup.timing_config();
    let plain = sim_run(setup);
    let clock = Arc::new(RecompileClock::default());
    let cost = TimedCost::new(CmpCost::new(&tcfg)).excluding(Arc::clone(&clock));
    let traced = discrete(setup, cost, Some(clock));
    let mut model = (0, 0, 0.0, EngineStats::default());
    match (plain, traced) {
        (Ok((_, base, cycles, stats)), Ok((_, run, cost))) => {
            let cost_s = cost.ledger().cost_model_ns as f64 / 1e9;
            model = (base, cycles, cost_s, stats);
            r.check(run.cycles == cycles && run.stats == stats, || {
                "TimedCost<CmpCost> changed the modeled run".into()
            });
        }
        (p, t) => {
            let err = p.err().or(t.err()).unwrap_or_default();
            r.check(false, || err);
        }
    }
    let (base, cycles, cost_s, stats) = model;
    let committed = stats.committed_tasks;
    r.value(
        "core.task.live_ins_per_task",
        "cells/task",
        per(stats.live_in_cells, committed),
    );
    r.value(
        "core.task.mem_live_ins_per_task",
        "cells/task",
        per(stats.live_in_mem_cells, committed),
    );
    r.value(
        "core.task.live_outs_per_task",
        "cells/task",
        per(stats.live_out_cells, committed),
    );
    r.value(
        "core.verify.waste_fraction",
        "ratio",
        stats.waste_fraction(),
    );
    r.value("timing.baseline_cycles", "cycles", base as f64);
    r.value("timing.mssp_cycles", "cycles", cycles as f64);
    r.value("timing.cost_model_s", "s", cost_s);
    r.notes.push(format!(
        "modeled_speedup (traced pass) {:?}",
        mssp_timing::speedup(base, cycles)
    ));

    // ---- threaded executor, alternating with SeqMachine ----
    let mut seq_wall = Samples::default();
    let mut mssp_wall = Samples::default();
    let mut runs: Vec<ThreadedSample> = Vec::new();
    while runs.len() < MIN_PAIRS || start.elapsed().as_secs_f64() < seconds {
        let s = seq_run(setup);
        r.check(s.is_some(), || "sequential run: wrong final state".into());
        if let Some(t) = s {
            seq_wall.push_secs(t);
        }
        let clock = Arc::new(RecompileClock::default());
        let cpu0 = host::process_cpu_time();
        let run = mssp_run(setup, |rec| timed_recompiler(rec, Arc::clone(&clock)));
        let cpu = host::process_cpu_time().saturating_sub(cpu0);
        r.check(run.is_ok(), || {
            run.as_ref().err().cloned().unwrap_or_default()
        });
        let Ok((t, run)) = run else { continue };
        mssp_wall.push_secs(t);
        let first_swap_at = run
            .adaptive
            .as_ref()
            .and_then(|a| a.swaps.first())
            .map_or(0, |m| m.at_committed_tasks);
        runs.push(ThreadedSample {
            stats: run.stats,
            cpu,
            recompile: Duration::from_nanos(clock.total_ns()),
            first_swap_at,
        });
        if runs.len() > 10_000 {
            break;
        }
    }
    let med = |f: &dyn Fn(&ThreadedSample) -> f64| {
        let mut s = Samples::default();
        for run in &runs {
            s.push(f(run));
        }
        s.median()
    };
    let committed = med(&|t| t.stats.committed_tasks as f64);
    r.value(
        "core.master.dyn_ratio",
        "ratio",
        med(&|t| per(t.stats.master_instructions, t.stats.committed_instructions)),
    );
    r.value(
        "core.threaded.recheck_ratio",
        "ratio",
        med(&|t| t.stats.recheck_ratio()),
    );
    r.value(
        "core.threaded.pre_verified_fraction",
        "ratio",
        med(&|t| per(t.stats.pre_verified_tasks, t.stats.committed_tasks)),
    );
    r.value(
        "core.threaded.snapshots_per_1k_tasks",
        "count/1k",
        med(&|t| 1000.0 * per(t.stats.snapshots_materialized, t.stats.committed_tasks)),
    );
    r.value(
        "core.threaded.deltas_per_task",
        "count/task",
        med(&|t| per(t.stats.deltas_published, t.stats.committed_tasks)),
    );
    r.value(
        "core.verify.squash_per_1k_tasks",
        "count/1k",
        med(&|t| mssp_bench::squash_per_1k_tasks(&t.stats)),
    );
    r.value(
        "core.verify.recovery_fraction",
        "ratio",
        med(&|t| t.stats.recovery_fraction()),
    );
    let overhead = (mssp_wall.median() - seq_wall.median()) / committed.max(1.0);
    r.value(
        "core.threaded.overhead_us_per_task",
        "us/task",
        overhead * 1e6,
    );
    r.value("core.threaded.cpu_s", "s", med(&|t| t.cpu.as_secs_f64()));
    r.value(
        "core.predictor.overrides",
        "count",
        med(&|t| t.stats.predictor_overrides as f64),
    );
    r.value(
        "core.predictor.accuracy",
        "ratio",
        med(&|t| t.stats.predictor_accuracy()),
    );
    r.value(
        "core.adaptive.recompile_s",
        "s",
        med(&|t| t.recompile.as_secs_f64()),
    );
    r.value(
        "core.adaptive.swaps_installed",
        "count",
        med(&|t| t.stats.swaps_installed as f64),
    );
    r.value(
        "core.adaptive.swap_abandoned_tasks",
        "count",
        med(&|t| t.stats.swap_abandoned_tasks as f64),
    );
    r.value(
        "core.adaptive.first_swap_at_tasks",
        "count",
        med(&|t| t.first_swap_at as f64),
    );

    // ---- allocations of one threaded run, then the transport ring ----
    if !ledger::counting_alloc_installed() {
        r.notes
            .push("counting allocator not installed: allocs_per_task reads 0".into());
    }
    let counter = ArmedAllocCounter::arm();
    let run = mssp_run(setup, |rec| rec);
    let allocs = counter.count();
    drop(counter);
    r.check(run.is_ok(), || {
        run.as_ref().err().cloned().unwrap_or_default()
    });
    let tasks = run.map_or(0, |(_, run)| run.stats.committed_tasks);
    r.value(
        "core.threaded.allocs_per_task",
        "count/task",
        per(allocs, tasks),
    );
    r.timing("core.ring.spsc_roundtrip_ns", "ns", &spsc_roundtrip_ns());
    r.value(
        "host.available_parallelism",
        "count",
        host::available_parallelism() as f64,
    );
    r
}
