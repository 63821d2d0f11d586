//! The CNFET simulator benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <device_iv|tran_array|tran_stacks|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). A traced run also prints per-layer self time and the
//! tracing overhead, and writes its spans to `perfbench/out/`. See
//! `perfbench/README.md` for what each workload and metric means.

mod checks;
mod counter;
mod deckjob;
mod device_iv;
mod harness;
mod serve;
mod stats;
mod trace;
mod tran;

use harness::{Ctx, Metric, Outcome};
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics every untraced run prints, with their units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ginstr", "Ginstr"),
    ("peak_rss_mb", "MB"),
    ("iv_points_per_s", "1/s"),
    ("ref_points_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p99", "ms"),
];

/// Per-layer metrics every traced run prints, with their units. A
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("core.fit_ms", "ms"),
    ("core.eval_ns", "ns"),
    ("core.eval_instr", "instr"),
    ("reference.point_us", "us"),
    ("reference.point_kinstr", "kinstr"),
    ("deck.parse_ms", "ms"),
    ("deck.build_ms", "ms"),
    ("deck.run_ms", "ms"),
    ("deck.model_hits", "count"),
    ("deck.model_misses", "count"),
    ("deck.engine_hits", "count"),
    ("deck.engine_misses", "count"),
    ("engine.factorizations", "count"),
    ("engine.full_refactorizations", "count"),
    ("engine.partial_refactorizations", "count"),
    ("engine.columns_recomputed", "count"),
    ("engine.columns_total", "count"),
    ("engine.device_evals", "count"),
    ("engine.device_bypasses", "count"),
    ("engine.limiter_clamps", "count"),
    ("engine.armijo_backtracks", "count"),
    ("engine.ptc_stages", "count"),
    ("transient.steps", "count"),
    ("transient.step_ms_p50", "ms"),
    ("transient.step_ms_max", "ms"),
    ("transient.evals_per_step", "evals/step"),
    ("server.ping_us", "us"),
    ("server.first_event_ms_p50", "ms"),
    ("server.result_wait_ms_p50", "ms"),
    ("server.encode_us", "us"),
    ("server.jobs_done", "count"),
    ("server.jobs_failed", "count"),
];

const USAGE: &str = "usage: perfbench --workload <device_iv|tran_array|tran_stacks|serve_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    // Open the counter before any thread exists, so it counts them all.
    let instructions = counter::Instructions::open();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let instructions = match instructions {
        Ok(c) => Some(c),
        Err(e) => {
            eprintln!("perfbench: cannot open the instruction counter ({e}); ginstr and the instruction metrics are left out");
            None
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        instructions,
        epoch: Instant::now(),
    };
    let mut out: Outcome = match args.workload.as_str() {
        "device_iv" => device_iv::run(&ctx),
        "tran_array" => tran::run(&ctx, false),
        "tran_stacks" => tran::run(&ctx, true),
        "serve_mix" => serve::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !out.end_to_end.iter().any(|m| m.name == "peak_rss_mb") {
        out.e2e("peak_rss_mb", counter::peak_rss_mb(), "MB");
    }

    let wanted: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let have = if ctx.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        match have.iter().find(|m| m.name == name) {
            Some(m) => metrics.push(m.clone()),
            None if ctx.trace => metrics.push(Metric {
                name,
                value: 0.0,
                unit,
            }),
            None if name == "ginstr" && ctx.instructions.is_none() => {}
            None => out.problems.push(format!("metric {name} was not measured")),
        }
    }

    if let Some(spans) = out.spans.take().filter(|_| ctx.trace) {
        println!("self time by layer ({} spans):", spans.spans().len());
        for (layer, (ns, count)) in spans.self_time_by_layer() {
            println!(
                "  {layer:<10} {:>12.3} ms over {count} spans",
                ns as f64 / 1e6
            );
        }
        println!("  engine work inside accepted transient steps is attributed to transient");
        let path = format!(
            "perfbench/out/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        );
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, spans.to_json_lines()));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    for problem in &out.problems {
        eprintln!("perfbench: FAILED CHECK: {problem}");
    }
    let correct = out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
