//! What every workload shares: the run context, the timed round loop,
//! repeated set-up, and the metric record.

use crate::counter::Instructions;
use crate::stats::{low_decile, median};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Settings and process-wide instruments of one benchmark run.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// How long the timed phase runs (whole rounds; at least one).
    pub seconds: f64,
    /// Traced run: per-layer metrics and spans instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// The instruction counter, when the kernel granted one.
    pub instructions: Option<Instructions>,
    /// Common time origin of every span.
    pub epoch: Instant,
}

impl Ctx {
    /// Instructions retired so far (0 without a counter).
    pub fn instructions_now(&self) -> u64 {
        self.instructions.as_ref().map_or(0, Instructions::read)
    }

    /// A span recorder on this run's epoch, initially off.
    pub fn tracer(&self) -> Tracer {
        Tracer::new(false, self.epoch)
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (jobs) attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed with a named known fault.
    pub failed: u64,
    /// Every failed check and every unexpected failure; any entry
    /// makes the run incorrect.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the result (traced runs:
    /// self time per layer and the tracing overhead).
    pub notes: Vec<String>,
    /// Spans of a traced run, written out at the end.
    pub spans: Option<Tracer>,
}

impl Outcome {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }
}

/// The fewest times each run sets its workload up.
pub const SETUPS: usize = 7;
/// A run keeps setting up until this many seconds have gone to it, so
/// the median does not rest on one short stretch of the machine's load.
const SETUP_BUDGET_S: f64 = 1.0;
/// Set-ups are timed one by one and summed into batches of at least this
/// many seconds; a set-up of microseconds counts through its batch's mean.
const SETUP_BATCH_S: f64 = 0.002;

/// Runs `setup` at least [`SETUPS`] times and until [`SETUP_BUDGET_S`]
/// have passed, and returns the last result with the median over
/// batches of the mean set-up wall time in seconds. Each earlier result
/// is handed to `teardown`, outside the timing, before the next set-up
/// starts.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut batches = Vec::new();
    let (mut batch_s, mut batch_n, mut setups) = (0.0, 0u32, 0);
    let mut last = None;
    let started = Instant::now();
    while setups < SETUPS || started.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let start = Instant::now();
        last = Some(setup());
        batch_s += start.elapsed().as_secs_f64();
        batch_n += 1;
        setups += 1;
        if batch_s >= SETUP_BATCH_S {
            batches.push(batch_s / f64::from(batch_n));
            (batch_s, batch_n) = (0.0, 0);
        }
    }
    if batch_n > 0 {
        batches.push(batch_s / f64::from(batch_n));
    }
    (last.expect("at least one set-up"), median(&batches))
}

/// Wall time and instructions of one round of the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct RoundSample {
    /// Wall time, s.
    pub wall_s: f64,
    /// User-space instructions retired by every thread.
    pub instructions: u64,
    /// Whether spans were recorded during the round.
    pub traced: bool,
}

/// Runs whole rounds until `ctx.seconds` have passed (at least one;
/// in a traced run at least two, alternating untraced and traced so
/// the difference is the tracing overhead). `round` receives the round
/// index and the tracer, already switched on or off.
pub fn timed_rounds(
    ctx: &Ctx,
    tracer: &mut Tracer,
    mut round: impl FnMut(usize, &mut Tracer),
) -> Vec<RoundSample> {
    let budget = Duration::from_secs_f64(ctx.seconds);
    let min_rounds = if ctx.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_rounds || start.elapsed() < budget {
        let traced = ctx.trace && samples.len() % 2 == 1;
        tracer.set_enabled(traced);
        let (t0, i0) = (Instant::now(), ctx.instructions_now());
        round(samples.len(), tracer);
        let (i1, wall_s) = (ctx.instructions_now(), t0.elapsed().as_secs_f64());
        samples.push(RoundSample {
            wall_s,
            instructions: i1 - i0,
            traced,
        });
    }
    tracer.set_enabled(false);
    samples
}

/// The lower decile of round wall times and the median of round
/// instruction counts, over the rounds with the given `traced` flag.
pub fn round_figures(samples: &[RoundSample], traced: bool) -> (f64, f64) {
    let pick = |f: fn(&RoundSample) -> f64| {
        samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(f)
            .collect::<Vec<_>>()
    };
    (
        low_decile(&pick(|s| s.wall_s)),
        median(&pick(|s| s.instructions as f64)),
    )
}

/// Adds `run_s` and `ginstr` (over untraced rounds) to an untraced
/// outcome, or the tracing-overhead note to a traced one.
pub fn report_rounds(ctx: &Ctx, samples: &[RoundSample], out: &mut Outcome) {
    let (wall, instr) = round_figures(samples, false);
    if ctx.trace {
        let (twall, tinstr) = round_figures(samples, true);
        out.notes.push(overhead_note(
            wall,
            twall,
            instr,
            tinstr,
            ctx.instructions.is_some(),
        ));
    } else {
        out.e2e("run_s", wall, "s");
        if ctx.instructions.is_some() {
            out.e2e("ginstr", instr / 1e9, "Ginstr");
        }
    }
}

/// The tracing-overhead line: traced minus untraced, per round.
pub fn overhead_note(wall: f64, twall: f64, instr: f64, tinstr: f64, counted: bool) -> String {
    let mut note = format!(
        "tracing overhead: {:.4} s per round traced vs {:.4} s untraced ({:+.2}%)",
        twall,
        wall,
        100.0 * (twall - wall) / wall
    );
    if counted {
        note.push_str(&format!(
            "; {:.6} vs {:.6} Ginstr ({:+.3}%)",
            tinstr / 1e9,
            instr / 1e9,
            100.0 * (tinstr - instr) / instr
        ));
    }
    note
}
