//! The end-to-end pass, tracing off.
//!
//! One closed loop, one run outstanding: sequential and threaded runs
//! alternate in pairs (the order flips every pair, so drift hits both
//! sides alike). Discrete timing simulations are interleaved so that
//! they take about a quarter of the measured time, and repeated set-ups
//! a twentieth, so that `setup_s` samples the host over the whole run
//! rather than in one burst. Every run's final
//! `MachineState` is compared with `SeqMachine`'s.
//!
//! The result carries ratios of interleaved runs, which the host's speed
//! cancels out of: `speedup_vs_seq` is the mean sequential time over the
//! mean threaded time across the pairs, `sim_vs_seq` the mean simulation
//! time over the mean sequential time. On a shared host the
//! interpreter's speed flips between a fast and a slow mode for seconds
//! at a time; a ratio of means moves smoothly with the share of time
//! spent in each mode, where a median of per-pair ratios jumps between
//! the modes. Absolute times are printed for context.

use std::time::{Duration, Instant};

use mssp_core::{run_threaded, run_threaded_adaptive, EngineStats, ThreadedRun};
use mssp_machine::SeqMachine;
use mssp_timing::{run_baseline, run_mssp, run_mssp_with_engine_setup, speedup};

use crate::host;
use crate::report::{Report, Samples};
use crate::{ledger, Setup, STEP_CAP};

/// Share of the measured time given to the discrete timing simulation.
const SIM_SHARE: f64 = 0.25;
/// Share of the measured time given to repeated set-ups.
const SETUP_SHARE: f64 = 0.05;
/// Pairs measured even when `--seconds` is shorter than they take.
const MIN_PAIRS: usize = 3;

/// One timed `SeqMachine` run; `None` if it faulted, did not halt, or
/// ended in another state than the reference.
pub fn seq_run(setup: &Setup) -> Option<Duration> {
    let program = &setup.built.program;
    let t = Instant::now();
    let mut m = SeqMachine::boot(program);
    let halted = m.run_to_halt(STEP_CAP).is_ok();
    let elapsed = t.elapsed();
    (halted && *m.state() == setup.expected).then_some(elapsed)
}

/// One threaded MSSP run, timed around the `run_threaded` (or, for an
/// adaptive workload, `run_threaded_adaptive` with background
/// recompilation) call. `wrap` may instrument the recompiler (the traced
/// pass times it; the end-to-end pass passes it through).
///
/// # Errors
///
/// A description if the run returned an error or ended in another state
/// than the reference.
pub fn mssp_run(
    setup: &Setup,
    wrap: impl FnOnce(mssp_core::Recompiler) -> mssp_core::Recompiler,
) -> Result<(Duration, ThreadedRun), String> {
    let b = &setup.built;
    let config = setup.engine_config();
    let adaptive = setup
        .spec
        .adaptive
        .then(|| setup.adaptive_parts())
        .map(|(ctl, rec)| (ctl, wrap(rec)));
    let t = Instant::now();
    let run = match adaptive {
        Some((ctl, rec)) => {
            run_threaded_adaptive(&b.program, &b.distilled, config, ctl, rec, false)
        }
        None => run_threaded(&b.program, &b.distilled, config),
    };
    let elapsed = t.elapsed();
    let run = run.map_err(|e| format!("threaded run: {e}"))?;
    if run.state != setup.expected {
        return Err("threaded run: final state differs from SeqMachine's".into());
    }
    Ok((elapsed, run))
}

/// One discrete timing simulation: `run_baseline` then `run_mssp` (the
/// adaptive engine for an adaptive workload) under the CMP cost model.
/// Returns the host time, baseline cycles, MSSP cycles and engine stats.
///
/// # Errors
///
/// A description if either run failed or ended in a wrong state.
pub fn sim_run(setup: &Setup) -> Result<(Duration, u64, u64, EngineStats), String> {
    let b = &setup.built;
    let tcfg = setup.timing_config();
    let parts = setup.spec.adaptive.then(|| setup.adaptive_parts());
    let t = Instant::now();
    let base = run_baseline(&b.program, &tcfg, STEP_CAP).map_err(|e| format!("baseline: {e}"))?;
    let mssp = match parts {
        Some((ctl, rec)) => {
            run_mssp_with_engine_setup(&b.program, &b.distilled, &tcfg, tcfg.engine, |e| {
                e.enable_adaptive(ctl, rec);
            })
        }
        None => run_mssp(&b.program, &b.distilled, &tcfg),
    }
    .map_err(|e| format!("modeled mssp: {e}"))?;
    let elapsed = t.elapsed();
    if base.state != setup.expected || mssp.run.state != setup.expected {
        return Err("timing simulation: final state differs from SeqMachine's".into());
    }
    Ok((elapsed, base.cycles, mssp.run.cycles, mssp.run.stats))
}

/// Measures the end-to-end metrics for about `seconds` of runs.
///
/// # Panics
///
/// Panics if a traced-pass instrument is live (see [`ledger::active`]).
#[must_use]
pub fn measure(setup: &Setup, seconds: f64) -> Report {
    let mut r = Report::new();
    let mut setup_s = Samples::default();
    setup_s.push_secs(setup.first_build.total());
    let mut seq = Samples::default();
    let mut mssp = Samples::default();
    let mut ratio = Samples::default();
    let mut sim = Samples::default();
    let mut rss = Samples::default();
    let mut modeled: Option<(u64, u64)> = None;

    // Warm-up pair: lazy allocation and page faults, not timed.
    seq_run(setup);
    let _ = mssp_run(setup, |rec| rec);

    let start = Instant::now();
    let (mut sim_time, mut setup_time) = (Duration::ZERO, Duration::ZERO);
    let mut pairs = 0_usize;
    while pairs < MIN_PAIRS || start.elapsed().as_secs_f64() < seconds {
        assert!(!ledger::active(), "a traced-pass instrument is live");
        if sim_time.as_secs_f64() <= SIM_SHARE * start.elapsed().as_secs_f64() {
            let t0 = Instant::now();
            let run = sim_run(setup);
            sim_time += t0.elapsed();
            match run {
                Ok((t, base, cycles, _)) => {
                    sim.push_secs(t);
                    let same = *modeled.get_or_insert((base, cycles)) == (base, cycles);
                    r.check(same, || {
                        "modeled cycles differ between identical runs".into()
                    });
                }
                Err(e) => r.check(false, || e),
            }
            continue;
        }
        if setup_time.as_secs_f64() <= SETUP_SHARE * start.elapsed().as_secs_f64() {
            let t0 = Instant::now();
            let built = setup.rebuild();
            setup_time += t0.elapsed();
            r.check(built.is_ok(), || {
                built
                    .as_ref()
                    .err()
                    .map(ToString::to_string)
                    .unwrap_or_default()
            });
            if let Ok(times) = built {
                setup_s.push_secs(times.total());
            }
            continue;
        }
        let pair = timed_pair(setup, pairs % 2 == 1, &mut r);
        if let Some((s, m, peak)) = pair {
            seq.push_secs(s);
            mssp.push_secs(m);
            ratio.push(s.as_secs_f64() / m.as_secs_f64());
            rss.push(peak as f64 / 1e6);
        }
        pairs += 1;
    }

    // Absolute wall-clock times follow the host's speed, which drifts by
    // a quarter and more between runs minutes apart; they are printed,
    // and the result carries the ratios of interleaved runs instead.
    r.context_timing("mssp_wall_s", "s", &mssp);
    r.context_timing("seq_wall_s", "s", &seq);
    r.context_timing("sim_wall_s", "s", &sim);
    r.value("speedup_vs_seq", "x", seq.mean() / mssp.mean());
    let (base, cycles) = modeled.unwrap_or_default();
    r.value("modeled_speedup", "x", speedup(base, cycles));
    r.value("sim_vs_seq", "x", sim.mean() / seq.mean());
    r.timing("setup_s", "s", &setup_s);
    r.timing("peak_rss_mb", "MB", &rss);
    r.notes.push(format!(
        "per-pair seq/threaded ratio: median {:.6}, n={}; modeled cycles: baseline {base}, mssp {cycles}; available_parallelism {}",
        ratio.median(),
        ratio.len(),
        host::available_parallelism()
    ));
    r
}

/// One sequential and one threaded run, threaded first if
/// `threaded_first`; returns both times and the threaded run's peak RSS,
/// or `None` (after recording the failure) if either run failed.
fn timed_pair(
    setup: &Setup,
    threaded_first: bool,
    r: &mut Report,
) -> Option<(Duration, Duration, u64)> {
    let threaded = || -> Result<(Duration, u64), String> {
        host::reset_peak_rss().map_err(|e| format!("clear_refs: {e}"))?;
        let (t, _) = mssp_run(setup, |rec| rec)?;
        let peak = host::peak_rss_bytes().map_err(|e| format!("VmHWM: {e}"))?;
        Ok((t, peak))
    };
    let (m, s) = if threaded_first {
        let m = threaded();
        (m, seq_run(setup))
    } else {
        let s = seq_run(setup);
        (threaded(), s)
    };
    r.check(s.is_some(), || "sequential run: wrong final state".into());
    r.check(m.is_ok(), || m.clone().err().unwrap_or_default());
    let (s, (m, peak)) = (s?, m.ok()?);
    Some((s, m, peak))
}
