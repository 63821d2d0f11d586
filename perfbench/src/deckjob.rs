//! One deck run through the deck layer's public entry points, as
//! `cntfet-sim` makes it (`Deck::parse`, then run), with the known
//! faults told apart from every other failure.
//!
//! Traced runs go through `Deck::run_streaming` and turn its progress
//! events into spans: `deck.build` up to the first card, `engine.solve`
//! for each non-transient card and for a transient's initial operating
//! point, one `transient.step` per accepted step, and for a run that
//! fails mid-transient a `transient.failed_step` up to the error.

use crate::trace::Tracer;
use cntfet_circuit::deck::{CardStats, Deck, DeckRun, RunContext, RunEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A fault of the program that makes one benchmark job fail on every
/// run. A job expecting one counts as failed only with this error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The always-on voltage limiter stops the DC operating point of
    /// CNFET inverter chains of 22 or more stages, worst at `vdd`.
    ChainDcOp,
    /// The bare NAND-stack node of a 4-stage shift register.
    NandStackNode,
}

impl Fault {
    /// Whether `error` is this fault's named error: Newton's failure to
    /// converge, with the worst unknown at `vdd` for the chain, and at
    /// a NAND stack's bare internal node (`xd<k>.xm<j>.mid`) for the
    /// shift register. With the limiter off the shift register fails at
    /// `xd3.xm4.mid` instead of `xd4.xm1.mid`, so any such node matches.
    pub fn matches(self, error: &str) -> bool {
        let Some((_, after)) = error.split_once("newton failed to converge") else {
            return false;
        };
        let Some((_, worst)) = after.split_once("worst unknown ") else {
            return false;
        };
        let node = worst.split(' ').next().unwrap_or("");
        match self {
            Fault::ChainDcOp => node == "vdd",
            Fault::NandStackNode => {
                let parts: Vec<&str> = node.split('.').collect();
                let indexed = |p: &str, prefix: &str| {
                    p.strip_prefix(prefix)
                        .is_some_and(|k| !k.is_empty() && k.bytes().all(|b| b.is_ascii_digit()))
                };
                parts.len() == 3
                    && indexed(parts[0], "xd")
                    && indexed(parts[1], "xm")
                    && parts[2] == "mid"
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Fault;

    #[test]
    fn faults_match_only_their_named_errors() {
        let chain =
            "deck:38:1: newton failed to converge after 434 iterations (residual 8.100e-4); \
                     worst unknown vdd (|F| = 8.100e-4), strategies tried: newton";
        let stack =
            "deck:34:1: newton failed to converge after 2577 iterations (residual 6.687e-3); \
                     worst unknown xd4.xm1.mid (|F| = 6.687e-3)";
        assert!(Fault::ChainDcOp.matches(chain));
        assert!(!Fault::NandStackNode.matches(chain));
        assert!(Fault::NandStackNode.matches(stack));
        assert!(Fault::NandStackNode.matches(&stack.replace("xd4.xm1", "xd3.xm4")));
        assert!(!Fault::ChainDcOp.matches(stack));
        assert!(!Fault::ChainDcOp.matches("panic: index out of bounds"));
        assert!(!Fault::NandStackNode.matches("deck:3:1: unknown card 'xd4.xm1.mid'"));
        assert!(!Fault::NandStackNode.matches(&stack.replace("xd4.xm1.mid", "xd4.xm1.out")));
    }
}

/// Phase times of one traced deck run, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `Deck::parse`.
    pub parse: f64,
    /// Run call to the first card's start: model fits or cache
    /// lookups, lowering, engine set-up.
    pub build: f64,
    /// First card's start to the run's return.
    pub run: f64,
}

/// The result of one deck job.
#[derive(Debug)]
pub struct Ran {
    /// The run, or the error text (parse error, run error or panic).
    pub result: Result<DeckRun, String>,
    /// Phase times (traced runs only).
    pub phases: Option<Phases>,
    /// Wall time of each accepted transient step, ms (traced runs only).
    pub steps_ms: Vec<f64>,
}

impl Ran {
    /// Solver counters summed over every card.
    pub fn stats(&self) -> CardStats {
        let mut sum = CardStats::default();
        if let Ok(run) = &self.result {
            for r in &run.reports {
                add_stats(&mut sum, &r.stats);
            }
        }
        sum
    }

    /// Device evaluations and accepted steps of the `.tran` cards.
    pub fn transient_evals_and_steps(&self) -> (u64, u64) {
        let Ok(run) = &self.result else { return (0, 0) };
        run.reports
            .iter()
            .filter(|r| r.label.starts_with(".tran"))
            .fold((0, 0), |(e, s), r| {
                (
                    e + r.stats.device_evals,
                    s + r.rows.len().saturating_sub(1) as u64,
                )
            })
    }
}

/// Adds `b`'s counters into `a`.
pub fn add_stats(a: &mut CardStats, b: &CardStats) {
    a.factorizations += b.factorizations;
    a.full_refactorizations += b.full_refactorizations;
    a.partial_refactorizations += b.partial_refactorizations;
    a.columns_recomputed += b.columns_recomputed;
    a.columns_total += b.columns_total;
    a.device_evals += b.device_evals;
    a.device_bypasses += b.device_bypasses;
    a.limiter_clamps += b.limiter_clamps;
    a.armijo_backtracks += b.armijo_backtracks;
    a.ptc_steps += b.ptc_steps;
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    let what = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    format!("panic: {what}")
}

/// Parses and runs `text` against the shared caches of `run_ctx`
/// (a cold run for the default context).
pub fn run_deck(text: &str, run_ctx: &RunContext<'_>, tracer: &mut Tracer, job: u64) -> Ran {
    if !tracer.enabled() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let deck = Deck::parse(text).map_err(|e| e.to_string())?;
            deck.run_with(run_ctx).map_err(|e| e.to_string())
        }))
        .unwrap_or_else(|p| Err(panic_text(p)));
        return Ran {
            result,
            phases: None,
            steps_ms: Vec::new(),
        };
    }
    let mut phases = Phases::default();
    let mut steps_ms = Vec::new();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let span = tracer.enter("deck.parse", job);
        let parsed = Deck::parse(text);
        tracer.exit(span);
        let t1 = Instant::now();
        phases.parse = (t1 - t0).as_secs_f64();
        let deck = parsed.map_err(|e| e.to_string())?;

        let span = tracer.enter("deck.run", job);
        let mut first_card: Option<Instant> = None;
        let mut card_start = t1;
        let mut tran = false;
        let mut last_row: Option<Instant> = None;
        let result = deck.run_streaming(run_ctx, None, &mut |event| {
            let now = Instant::now();
            match event {
                RunEvent::ReportStart(header) => {
                    if first_card.is_none() {
                        first_card = Some(now);
                        tracer.record("deck.build", job, t1, now);
                    }
                    card_start = now;
                    tran = header.label.starts_with(".tran");
                    last_row = None;
                }
                RunEvent::Rows { .. } if tran => {
                    match last_row {
                        None => tracer.record("engine.solve", job, card_start, now),
                        Some(prev) => {
                            tracer.record("transient.step", job, prev, now);
                            steps_ms.push((now - prev).as_secs_f64() * 1e3);
                        }
                    }
                    last_row = Some(now);
                }
                RunEvent::Rows { .. } => {}
                RunEvent::ReportEnd { .. } => {
                    if !tran {
                        tracer.record("engine.solve", job, card_start, now);
                    }
                }
            }
        });
        let t2 = Instant::now();
        if result.is_err() && first_card.is_some() {
            // The failed card's last stretch: its initial solve when no
            // row landed, else the step attempt that never got accepted.
            match last_row {
                None => tracer.record("engine.solve", job, card_start, t2),
                Some(prev) => tracer.record("transient.failed_step", job, prev, t2),
            }
        }
        tracer.exit(span);
        let build_end = first_card.unwrap_or(t2);
        phases.build = (build_end - t1).as_secs_f64();
        phases.run = (t2 - build_end).as_secs_f64();
        result.map_err(|e| e.to_string())
    }))
    .unwrap_or_else(|p| Err(panic_text(p)));
    Ran {
        result,
        phases: Some(phases),
        steps_ms,
    }
}

/// The run rendered as `cntfet-sim --csv` prints it.
pub fn csv_text(run: &DeckRun) -> String {
    let mut out = format!("* {}\n", run.title);
    for report in &run.reports {
        out.push_str(&format!("\n* {}\n", report.label));
        out.push_str(&report.to_csv());
    }
    out
}
