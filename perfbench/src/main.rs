//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric, then, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 0 only if every checked run ended in `SeqMachine`'s final state.

use std::process::ExitCode;

use perfbench::ledger::CountingAlloc;
use perfbench::report::Report;
use perfbench::{e2e, host, prepare, ref_seed, traced, Spec, SPECS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {value} ({e})");
        match flag.as_str() {
            "--workload" => {
                spec = Some(Spec::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let spec = spec.ok_or("--workload is required")?;
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let spec = &args.spec;
    println!(
        "perfbench: workload {} scale {} seed {} (reference input seed {:#x}), {} s, {} pass, available_parallelism {}",
        spec.name,
        spec.scale,
        args.seed,
        ref_seed(args.seed),
        args.seconds,
        if args.trace { "traced" } else { "end-to-end" },
        host::available_parallelism()
    );
    let report = match prepare(spec, args.seed) {
        Ok(setup) if args.trace => traced::measure(&setup, args.seconds),
        Ok(setup) => e2e::measure(&setup, args.seconds),
        Err(e) => {
            let mut r = Report::new();
            r.check(false, || e.to_string());
            r
        }
    };
    print!("{}", report.render_human());
    println!("{}", report.render_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
