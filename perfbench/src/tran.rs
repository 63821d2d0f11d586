//! `tran_array` and `tran_stacks`: cold transients through the same
//! entry points as `cntfet-sim` (`Deck::parse`, then `Deck::run`, no
//! shared caches), one deck after another.

use crate::checks;
use crate::deckjob::{add_stats, csv_text, run_deck, Fault, Ran};
use crate::harness::{repeated_setup, report_rounds, timed_rounds, Ctx, Outcome};
use crate::stats::{low_decile, median, quantile, Rng};
use cntfet_circuit::deck::generate::Workload;
use cntfet_circuit::deck::{CardStats, RunContext};

const ADDER2: &str = include_str!("../../examples/decks/adder2.cir");
const NAND_STACK: &str = include_str!("../../examples/decks/torture/nand_stack.cir");
const NOR_STACK: &str = include_str!("../../examples/decks/torture/nor_stack.cir");
const XGATE_CHAIN: &str = include_str!("../../examples/decks/torture/xgate_chain.cir");

/// How a job's output is checked.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// Inverter array of this many stages per row.
    Ring { stages: usize, vdd: f64 },
    /// `--flat` twin: CSV byte-identical to the job with this label.
    Twin { of: &'static str },
    /// 2-bit adder sums.
    Adder2,
    /// NAND3/NOR3 with tied inputs.
    TiedGate,
    /// The run must complete; no output property is checked.
    Completes,
}

/// One deck of a workload round.
struct Job {
    label: &'static str,
    text: String,
    fault: Option<Fault>,
    check: Check,
}

fn generated(
    label: &'static str,
    w: Workload,
    flat: bool,
    fault: Option<Fault>,
    check: Check,
) -> Job {
    Job {
        label,
        text: w.deck(flat),
        fault,
        check,
    }
}

fn ring(rows: usize, stages: usize) -> Workload {
    Workload::RingArray { rows, stages }
}

/// `cntfet-gen` inverter ring arrays of three sizes, a `--flat` twin,
/// and one 24-stage chain that hits the chain DC fault.
fn array_jobs() -> Vec<Job> {
    let r = |stages| Check::Ring { stages, vdd: 0.9 };
    vec![
        generated("ring-array 2 10", ring(2, 10), false, None, r(10)),
        generated("ring-array 5 16", ring(5, 16), false, None, r(16)),
        generated(
            "ring-array 5 16 --flat",
            ring(5, 16),
            true,
            None,
            Check::Twin {
                of: "ring-array 5 16",
            },
        ),
        generated("ring-array 10 20", ring(10, 20), false, None, r(20)),
        generated(
            "ring-array 1 24",
            ring(1, 24),
            false,
            Some(Fault::ChainDcOp),
            r(24),
        ),
    ]
}

/// Decks with bare series-stack nodes, and the 4-stage shift register
/// that hits the NAND-stack fault.
fn stack_jobs() -> Vec<Job> {
    let file = |label, text: &str, check| Job {
        label,
        text: text.to_string(),
        fault: None,
        check,
    };
    vec![
        file("adder2", ADDER2, Check::Adder2),
        generated(
            "shift-register 2",
            Workload::ShiftRegister { bits: 2 },
            false,
            None,
            Check::Completes,
        ),
        file("torture/nand_stack", NAND_STACK, Check::TiedGate),
        file("torture/nor_stack", NOR_STACK, Check::TiedGate),
        file("torture/xgate_chain", XGATE_CHAIN, Check::Completes),
        generated(
            "shift-register 4",
            Workload::ShiftRegister { bits: 4 },
            false,
            Some(Fault::NandStackNode),
            Check::Completes,
        ),
    ]
}

/// Judges one finished job: `Ok(true)` when it failed with its known
/// fault, `Ok(false)` when it ran and passed its check, `Err` for any
/// other failure or a failed check.
fn judge(job: &Job, ran: &Ran, twins: &[(&'static str, String)]) -> Result<bool, String> {
    let run = match (&ran.result, job.fault) {
        (Err(e), Some(fault)) if fault.matches(e) => return Ok(true),
        (Err(e), _) => return Err(format!("{}: {}", job.label, e.lines().next().unwrap_or(e))),
        (Ok(run), _) => run,
    };
    let rows = |i: usize| run.reports.get(i).map(|r| r.rows.as_slice()).unwrap_or(&[]);
    let checked = match job.check {
        Check::Ring { stages, vdd } => checks::ring_rows(rows(0), stages, vdd),
        Check::Adder2 => checks::adder2_sums(rows(0), 0.9),
        Check::TiedGate => checks::tied_gate_truth(rows(0), 0.8),
        Check::Twin { of } => match twins.iter().find(|(l, _)| *l == of) {
            Some((_, csv)) if *csv == csv_text(run) => Ok(()),
            Some(_) => Err(format!("CSV differs from its hierarchical twin '{of}'")),
            None => Err(format!("twin '{of}' did not run")),
        },
        Check::Completes => Ok(()),
    };
    checked
        .map(|()| false)
        .map_err(|e| format!("{}: {e}", job.label))
}

/// Per-round tallies of the deck, engine and transient layers.
#[derive(Debug, Default)]
pub struct Tally {
    /// Solver counters summed over the round's decks.
    pub stats: CardStats,
    /// Model cache hits and misses, warm-engine hits and misses.
    pub caches: [u64; 4],
    /// Device evaluations and accepted steps of `.tran` cards.
    pub tran_evals: u64,
    /// Accepted transient steps.
    pub tran_steps: u64,
    /// Parse, build and run seconds summed over the round's decks.
    pub phases: [f64; 3],
    /// Decks run.
    pub decks: u64,
    /// Wall time of each accepted transient step, ms (traced rounds).
    pub steps_ms: Vec<f64>,
}

impl Tally {
    /// Folds one deck run in.
    pub fn add(&mut self, ran: &Ran) {
        add_stats(&mut self.stats, &ran.stats());
        let (evals, steps) = ran.transient_evals_and_steps();
        self.tran_evals += evals;
        self.tran_steps += steps;
        if let Ok(run) = &ran.result {
            let c = run.caches;
            for (slot, v) in self.caches.iter_mut().zip([
                c.models.hits,
                c.models.misses,
                c.engines.hits,
                c.engines.misses,
            ]) {
                *slot += v;
            }
        }
        if let Some(p) = ran.phases {
            for (slot, v) in self.phases.iter_mut().zip([p.parse, p.build, p.run]) {
                *slot += v;
            }
        }
        self.steps_ms.extend_from_slice(&ran.steps_ms);
        self.decks += 1;
    }

    /// The deck, engine and transient per-layer metrics of traced
    /// rounds: counters of the first (they repeat exactly from round to
    /// round), and the median over rounds of per-deck phase times and of
    /// each round's step-time median and maximum.
    pub fn report_traced(rounds: &[&Tally], out: &mut Outcome) {
        let Some(first) = rounds.first() else { return };
        let across =
            |f: &dyn Fn(&Tally) -> f64| median(&rounds.iter().map(|t| f(t)).collect::<Vec<_>>());
        let per_deck_ms = |t: &Tally, i: usize| t.phases[i] / t.decks.max(1) as f64 * 1e3;
        out.layer("deck.parse_ms", across(&|t| per_deck_ms(t, 0)), "ms");
        out.layer("deck.build_ms", across(&|t| per_deck_ms(t, 1)), "ms");
        out.layer("deck.run_ms", across(&|t| per_deck_ms(t, 2)), "ms");
        for (name, v) in [
            "deck.model_hits",
            "deck.model_misses",
            "deck.engine_hits",
            "deck.engine_misses",
        ]
        .into_iter()
        .zip(first.caches)
        {
            out.layer(name, v as f64, "count");
        }
        let s = &first.stats;
        for (name, v) in [
            ("engine.factorizations", s.factorizations),
            ("engine.full_refactorizations", s.full_refactorizations),
            (
                "engine.partial_refactorizations",
                s.partial_refactorizations,
            ),
            ("engine.columns_recomputed", s.columns_recomputed),
            ("engine.columns_total", s.columns_total),
            ("engine.device_evals", s.device_evals),
            ("engine.device_bypasses", s.device_bypasses),
            ("engine.limiter_clamps", s.limiter_clamps),
            ("engine.armijo_backtracks", s.armijo_backtracks),
            ("engine.ptc_stages", s.ptc_steps),
        ] {
            out.layer(name, v as f64, "count");
        }
        out.layer("transient.steps", first.tran_steps as f64, "count");
        out.layer(
            "transient.step_ms_p50",
            across(&|t| quantile(&t.steps_ms, 0.5)),
            "ms",
        );
        out.layer(
            "transient.step_ms_max",
            across(&|t| quantile(&t.steps_ms, 1.0)),
            "ms",
        );
        out.layer(
            "transient.evals_per_step",
            first.tran_evals as f64 / first.tran_steps.max(1) as f64,
            "evals/step",
        );
    }
}

/// Runs `tran_array` (`stacks == false`) or `tran_stacks`.
pub fn run(ctx: &Ctx, stacks: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = ctx.tracer();
    let (jobs, setup_s) = repeated_setup(
        || {
            let mut jobs = if stacks { stack_jobs() } else { array_jobs() };
            Rng::new(ctx.seed, 3).shuffle(&mut jobs);
            jobs
        },
        drop,
    );
    let n = jobs.len() as u64;
    let mut tallies: Vec<Tally> = Vec::new();
    let mut failed = 0u64;
    let run_ctx = RunContext::default();
    let samples = timed_rounds(ctx, &mut tracer, |round, tracer| {
        let mut tally = Tally::default();
        let mut twins: Vec<(&'static str, String)> = Vec::new();
        let mut finished = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let ran = run_deck(&job.text, &run_ctx, tracer, round as u64 * n + i as u64);
            tally.add(&ran);
            if let Ok(run) = &ran.result {
                twins.push((job.label, csv_text(run)));
            }
            finished.push(ran);
        }
        for (job, ran) in jobs.iter().zip(&finished) {
            match judge(job, ran, &twins) {
                Ok(true) => failed += 1,
                Ok(false) => {}
                Err(e) => out.problems.push(e),
            }
        }
        tallies.push(tally);
    });
    out.attempted = n * samples.len() as u64;
    out.failed = failed;

    if ctx.trace {
        let traced = samples
            .iter()
            .zip(&tallies)
            .filter(|(s, _)| s.traced)
            .map(|(_, t)| t);
        Tally::report_traced(&traced.collect::<Vec<_>>(), &mut out);
    } else {
        let round_s = low_decile(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>());
        // Device evaluations repeat exactly from round to round.
        let evals = tallies.first().map_or(0, |t| t.stats.device_evals);
        out.e2e("setup_s", setup_s, "s");
        out.e2e("iv_points_per_s", evals as f64 / round_s, "1/s");
        // Every metric is printed on every workload. The ones the
        // workload has no figure of its own for mirror `run_s`, in decks.
        out.e2e("ref_points_per_s", n as f64 / round_s, "1/s");
        out.e2e("jobs_per_s", n as f64 / round_s, "1/s");
        out.e2e("job_ms_p50", round_s / n as f64 * 1e3, "ms");
        out.e2e("job_ms_p99", round_s / n as f64 * 1e3, "ms");
    }
    report_rounds(ctx, &samples, &mut out);
    out.spans = Some(tracer);
    out
}
