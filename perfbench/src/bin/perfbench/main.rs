//! `perfbench` — the repository benchmark.
//!
//! Starts a real `tg-serve` server in this process over a memory-only
//! registry, drives one workload at it over TCP from closed-loop client
//! threads (at most `nproc`, at most 2), checks every response, and
//! prints the metrics as the last line of stdout:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tg-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` is a separate
//! run that sends the same kind of traffic, then replays each request's
//! work through the layers' public functions under spans, and reports
//! per-layer self times and counts; the spans are written to
//! `perfbench/out/`. `--write-manifest` writes `BENCHMARK.json` into the
//! working directory. The line before the result carries run facts:
//! `nproc`, scale, seed, per-phase request counts, sample counts and the
//! workload's own latency percentiles.
//!
//! The program under test sees only generated request bodies; the
//! benchmark reads no environment knobs.

mod cold_collect;
mod harness;
mod ledger;
mod manifest;
mod select;
mod serve_mix;
mod stats;
mod tg_sweep;
mod trace;
mod wire;

use std::process::ExitCode;

use tg_json::JsonObject;

use harness::{Metric, Outcome, SCALE};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--write-manifest" {
            std::fs::write("BENCHMARK.json", manifest::render())
                .map_err(|e| format!("writing BENCHMARK.json: {e}"))?;
            return Ok(None);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(manifest::RUN_SECONDS).max(1),
        trace: trace.unwrap_or(false),
    }))
}

/// Writes a traced run's spans under `perfbench/out/`.
pub(crate) fn write_trace(tr: &trace::Tracer, workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{workload}-seed{seed}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "[perfbench] {} spans written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("[perfbench] could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <n>] [--trace 0|1] | --write-manifest",
                manifest::WORKLOADS.map(|w| w.0).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "tg-sweep" => tg_sweep::run,
        "serve-mix" => serve_mix::run,
        "cold-collect" => cold_collect::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let Outcome {
        tally,
        metrics,
        info,
    } = run(args.seed, args.seconds, args.trace);

    let expected = if args.trace {
        &manifest::PER_LAYER[..]
    } else {
        &manifest::END_TO_END[..]
    };
    let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let wanted: Vec<&str> = expected.iter().map(|d| d.name).collect();
    let mut sorted = (names.clone(), wanted.clone());
    sorted.0.sort_unstable();
    sorted.1.sort_unstable();
    if sorted.0 != sorted.1 {
        eprintln!("perfbench: reported metrics {names:?} differ from the manifest's {wanted:?}");
        return ExitCode::from(2);
    }
    let non_finite: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if !non_finite.is_empty() {
        eprintln!("[perfbench] FAIL: metrics {non_finite:?} are not finite");
    }

    let facts = JsonObject::new()
        .str("workload", &args.workload)
        .u64("seed", args.seed)
        .u64("seconds", args.seconds)
        .bool("trace", args.trace)
        .usize("nproc", harness::nproc())
        .str("scale", SCALE)
        .u64("attempted", tally.attempted)
        .u64("succeeded", tally.attempted.saturating_sub(tally.failed))
        .u64("failed", tally.failed)
        .strs("failures", &tally.reasons)
        .object("run", info);
    println!("{}", facts.render_compact());
    for reason in &tally.reasons {
        eprintln!("[perfbench] FAIL: {reason}");
    }

    let correct = tally.failed == 0 && tally.attempted > 0 && non_finite.is_empty();
    let mut values = JsonObject::new();
    for Metric { name, value, unit } in &metrics {
        values = values.object(
            name,
            JsonObject::new().f64("value", *value).str("unit", unit),
        );
    }
    let result = JsonObject::new()
        .bool("correct", correct)
        .u64("attempted", tally.attempted)
        .u64("failed", tally.failed)
        .object("metrics", values);
    println!("{}", result.render_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
