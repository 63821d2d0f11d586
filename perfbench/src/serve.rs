//! `serve_mix`: a closed loop of two client connections against an
//! in-process `cntfet-serve` with two workers, fed a seeded mix of
//! small decks. Each client submits a job, streams its events, fetches
//! its result, and only then submits the next.
//!
//! Per round of [`ROUND`] jobs: value-perturbed variants of five small
//! decks (warm-engine hits) and [`MISSES`] small inverter arrays, each
//! with an element order never seen before (warm-engine misses).
//!
//! The timed phase does no deck work of its own: variant texts and the
//! miss templates are made in set-up, a miss deck is a line shuffle of
//! its template, and served results are compared with cold runs after
//! the phase ends.

use crate::checks;
use crate::counter::peak_rss_mb;
use crate::deckjob::run_deck;
use crate::harness::{overhead_note, repeated_setup, Ctx, Outcome};
use crate::stats::{low_decile, median, quantile, Rng};
use crate::trace::Tracer;
use crate::tran::Tally;
use cntfet_circuit::deck::generate::Workload;
use cntfet_circuit::deck::{Deck, ElementCard, EnginePool, ModelCache, RunContext};
use cntfet_circuit::element::Waveform;
use cntfet_server::client::Client;
use cntfet_server::hub::render_result;
use cntfet_server::json::Json;
use cntfet_server::server::{RunningServer, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const BASES: [(&str, &str); 5] = [
    ("divider", include_str!("../../examples/decks/divider.cir")),
    (
        "rc_lowpass",
        include_str!("../../examples/decks/rc_lowpass.cir"),
    ),
    (
        "inverter",
        include_str!("../../examples/decks/inverter.cir"),
    ),
    (
        "ring_oscillator",
        include_str!("../../examples/decks/ring_oscillator.cir"),
    ),
    (
        "xgate_chain",
        include_str!("../../examples/decks/torture/xgate_chain.cir"),
    ),
];
/// Value variants per base deck.
const VARIANTS: usize = 8;
/// Warm-engine misses per round. The repository holds no record of real
/// traffic; its one example of a server's cache counters, the `stats`
/// transcript in `docs/SERVER.md`, reads 40 engine hits to 3 misses, and
/// a round keeps that ratio (40 variants, 3 misses).
const MISSES: usize = 3;
/// Jobs per round.
const ROUND: usize = BASES.len() * VARIANTS + MISSES;
/// Client connections, and server workers.
const CLIENTS: usize = 2;
/// Each client pings the server once every this many jobs.
const PING_EVERY: u64 = 16;
/// `peak_rss_mb` is read once this many rounds have completed, and the
/// timed phase runs at least this many. The warm-engine pool keeps every
/// topology it is given, so the process grows with each miss served; a
/// read after a fixed number of jobs keeps the figure from following
/// throughput.
const RSS_ROUNDS: u64 = 64;

/// `base` with every resistor and capacitor value scaled by a seeded
/// factor in [0.95, 1.05]: same topology, different values.
fn variant(base: &str, rng: &mut Rng) -> String {
    let mut deck = Deck::parse(base).expect("example decks parse");
    for card in &mut deck.elements {
        match card {
            ElementCard::Resistor(r) => r.ohms *= rng.uniform(0.95, 1.05),
            ElementCard::Capacitor(c) => c.farads *= rng.uniform(0.95, 1.05),
            _ => {}
        }
    }
    deck.to_text()
}

/// A `--flat` inverter array whose element cards a miss deck reorders.
struct MissTemplate {
    lines: Vec<String>,
    /// Which lines are element cards (not the title or a `.` card).
    is_card: Vec<bool>,
}

impl MissTemplate {
    fn new(rows: usize, stages: usize) -> MissTemplate {
        let lines: Vec<String> = Workload::RingArray { rows, stages }
            .deck(true)
            .lines()
            .map(str::to_string)
            .collect();
        let is_card = (0..lines.len())
            .map(|i| i > 0 && !lines[i].starts_with('.'))
            .collect();
        MissTemplate { lines, is_card }
    }

    /// The deck with its element cards in the order `rng` draws: the
    /// same circuit, with a wiring order (so a topology) of its own.
    fn shuffled(&self, rng: &mut Rng) -> String {
        let mut cards: Vec<&str> = (0..self.lines.len())
            .filter(|&i| self.is_card[i])
            .map(|i| self.lines[i].as_str())
            .collect();
        rng.shuffle(&mut cards);
        let mut cards = cards.into_iter();
        let mut text = String::new();
        for (line, &card) in self.lines.iter().zip(&self.is_card) {
            let line = if card {
                cards.next().unwrap_or(line)
            } else {
                line
            };
            text.push_str(line);
            text.push('\n');
        }
        text
    }
}

/// The seeded inputs: variant texts, miss templates, and the order of a
/// round's slots.
struct Mix {
    seed: u64,
    variants: Vec<String>,
    /// Inverter arrays of 1–2 rows × 3–4 stages (11 to 26 element
    /// cards, so two misses of a run practically never draw one order).
    misses: Vec<MissTemplate>,
    order: Vec<usize>,
}

/// Cold `Deck::run`s of served texts, rendered with the server's own
/// encoder (timed as `server.encode`): what every served result must
/// equal.
struct ColdRuns<'a> {
    tracer: &'a mut Tracer,
    encode_us: Vec<f64>,
}

impl ColdRuns<'_> {
    fn result(&mut self, text: &str, job: u64) -> Result<Json, String> {
        let deck = Deck::parse(text).map_err(|e| e.to_string())?;
        let run = deck.run().map_err(|e| e.to_string())?;
        let start = Instant::now();
        let span = self.tracer.enter("server.encode", job);
        let rendered = render_result(&run);
        self.tracer.exit(span);
        self.encode_us.push(start.elapsed().as_secs_f64() * 1e6);
        Ok(rendered)
    }
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut rng = Rng::new(seed, 4);
        let variants = (0..BASES.len() * VARIANTS)
            .map(|v| variant(BASES[v % BASES.len()].1, &mut rng))
            .collect();
        let misses = [(1, 3), (1, 4), (2, 3), (2, 4)]
            .map(|(rows, stages)| MissTemplate::new(rows, stages))
            .into();
        let mut order: Vec<usize> = (0..ROUND).collect();
        rng.shuffle(&mut order);
        Mix {
            seed,
            variants,
            misses,
            order,
        }
    }

    /// Global job `j`: the variant index it serves, or `None` for a miss.
    fn slot(&self, j: u64) -> Option<usize> {
        let slot = self.order[(j % ROUND as u64) as usize];
        (slot < self.variants.len()).then_some(slot)
    }

    /// The deck text of global job `j`; a miss is one of the templates
    /// with its cards in an order seeded by `j`.
    fn text(&self, j: u64) -> String {
        match self.slot(j) {
            Some(v) => self.variants[v].clone(),
            None => {
                let mut rng = Rng::new(self.seed, 1_000_000 + j);
                self.misses[rng.below(self.misses.len())].shuffled(&mut rng)
            }
        }
    }
}

/// One job as the client saw it. Miss results are kept for a cold run
/// after the timed phase; hit results are kept once per distinct
/// result, in [`Served`].
struct Record {
    job: u64,
    /// Submit and result times, s since the phase started.
    span_s: (f64, f64),
    latency_ms: f64,
    first_event_ms: f64,
    wait_ms: f64,
    ping_us: Option<f64>,
    device_evals: u64,
    problem: Option<String>,
    miss_result: Option<Json>,
}

/// The distinct results served per variant, each with the first job
/// that received it. Hits are checked against the cold runs after the
/// phase; a correct server serves one result per variant, so this stays
/// small however long the phase runs.
type Served = Vec<Vec<(u64, Json)>>;

/// Folds one served hit into `served`. Results count as distinct when
/// their reports differ (label, columns or CSV text; the per-run solver
/// counters and cache figures may differ between equal results).
fn keep_distinct(served: &mut Served, variant: usize, job: u64, result: Json) {
    let seen = served[variant]
        .iter()
        .any(|(_, r)| checks::same_reports(r, &result).is_ok());
    if !seen {
        served[variant].push((job, result));
    }
}

/// One closed-loop phase.
struct Phase {
    records: Vec<Record>,
    served: Served,
    wall_s: f64,
    instructions: u64,
    rounds: u64,
    /// `VmHWM` once [`RSS_ROUNDS`] rounds had completed, when asked for.
    peak_rss_mb: Option<f64>,
    tracer: Tracer,
}

impl Phase {
    /// Each round's span: first submit to last result of its jobs (the
    /// two clients overlap neighbouring rounds only at the boundary).
    fn round_spans(&self) -> Vec<f64> {
        self.records
            .chunks(ROUND)
            .filter(|c| c.len() == ROUND)
            .map(|c| {
                let start = c.iter().map(|r| r.span_s.0).fold(f64::INFINITY, f64::min);
                let end = c.iter().map(|r| r.span_s.1).fold(0.0, f64::max);
                end - start
            })
            .collect()
    }
}

/// Job counters the clients of one phase share.
struct Progress {
    /// The next global job to submit.
    next: AtomicU64,
    /// The first global job not to submit (`u64::MAX` until the
    /// deadline passes).
    end: AtomicU64,
    /// Jobs completed in the phase.
    done: AtomicU64,
    /// `VmHWM` (f64 bits) read when `done` reached `rss_jobs`.
    rss_bits: AtomicU64,
    /// Jobs after which `VmHWM` is read and before which the phase does
    /// not stop (0: no read, no minimum).
    rss_jobs: u64,
}

fn client_loop(
    socket: &PathBuf,
    mix: &Mix,
    progress: &Progress,
    (first, started, deadline): (u64, Instant, Instant),
    tracer: &mut Tracer,
) -> Result<(Vec<Record>, Served), String> {
    let mut client = Client::connect(socket).map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    let mut served: Served = vec![Vec::new(); mix.variants.len()];
    let Progress { next, end, .. } = progress;
    loop {
        let j = next.fetch_add(1, Ordering::SeqCst);
        if j >= end.load(Ordering::SeqCst) {
            return Ok((records, served));
        }
        let text = mix.text(j);
        let ping_us = (j - first).is_multiple_of(PING_EVERY).then(|| {
            let span = tracer.enter("server.ping", j);
            let start = Instant::now();
            let ok = client.ping();
            tracer.exit(span);
            ok.map(|()| start.elapsed().as_secs_f64() * 1e6)
        });
        let ping_us = ping_us.transpose().map_err(|e| e.to_string())?;
        let job_span = tracer.enter("server.job", j);
        let start = Instant::now();
        let outcome = (|| {
            let span = tracer.enter("server.submit", j);
            let id = client.submit(&text);
            tracer.exit(span);
            let id = id?;
            let mut first_event = None;
            let span = tracer.enter("server.stream", j);
            let streamed = client.stream(id, 0, &mut |_| {
                first_event.get_or_insert_with(Instant::now);
            });
            tracer.exit(span);
            streamed?;
            let wait_start = Instant::now();
            let span = tracer.enter("server.result", j);
            let result = client.wait_result(id);
            tracer.exit(span);
            Ok::<_, cntfet_server::client::ClientError>((result?, first_event, wait_start))
        })();
        let end_at = Instant::now();
        tracer.exit(job_span);
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        let mut record = Record {
            job: j,
            span_s: (
                (start - started).as_secs_f64(),
                (end_at - started).as_secs_f64(),
            ),
            latency_ms: ms(start, end_at),
            first_event_ms: ms(start, end_at),
            wait_ms: 0.0,
            ping_us,
            device_evals: 0,
            problem: None,
            miss_result: None,
        };
        match outcome {
            Ok((result, first_event, wait_start)) => {
                record.first_event_ms = ms(start, first_event.unwrap_or(end_at));
                record.wait_ms = ms(wait_start, end_at);
                record.device_evals = result
                    .get("reports")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|r| r.get("stats")?.get("device_evals")?.as_u64())
                    .sum();
                match mix.slot(j) {
                    Some(v) => keep_distinct(&mut served, v, j, result),
                    None => record.miss_result = Some(result),
                }
            }
            Err(e) => record.problem = Some(format!("failed: {e}")),
        }
        records.push(record);
        let done = progress.done.fetch_add(1, Ordering::SeqCst) + 1;
        if done == progress.rss_jobs {
            progress
                .rss_bits
                .store(peak_rss_mb().to_bits(), Ordering::SeqCst);
        }
        if Instant::now() >= deadline
            && done >= progress.rss_jobs
            && end.load(Ordering::SeqCst) == u64::MAX
        {
            // Stop at the end of the round in progress.
            let round_end = next.load(Ordering::SeqCst).div_ceil(ROUND as u64) * ROUND as u64;
            let _ = end.compare_exchange(u64::MAX, round_end, Ordering::SeqCst, Ordering::SeqCst);
        }
    }
}

/// Runs whole rounds for `seconds`, starting at global job `first`;
/// with `read_rss`, at least [`RSS_ROUNDS`] rounds, reading `VmHWM`
/// after them.
fn closed_loop(
    ctx: &Ctx,
    socket: &PathBuf,
    mix: &Mix,
    first: u64,
    seconds: f64,
    (traced, read_rss): (bool, bool),
) -> Result<Phase, String> {
    let progress = Progress {
        next: AtomicU64::new(first),
        end: AtomicU64::new(u64::MAX),
        done: AtomicU64::new(0),
        rss_bits: AtomicU64::new(0),
        rss_jobs: if read_rss {
            RSS_ROUNDS * ROUND as u64
        } else {
            0
        },
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let i0 = ctx.instructions_now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut tracer = ctx.tracer();
                    tracer.set_enabled(traced);
                    let records = client_loop(
                        socket,
                        mix,
                        &progress,
                        (first, start, deadline),
                        &mut tracer,
                    );
                    if records.is_err() {
                        // Let the other client finish its round.
                        let next = progress.next.load(Ordering::SeqCst);
                        progress.end.store(next, Ordering::SeqCst);
                    }
                    records.map(|(r, served)| (r, served, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let instructions = ctx.instructions_now() - i0;
    let mut tracer = ctx.tracer();
    let mut records = Vec::new();
    let mut served: Served = vec![Vec::new(); mix.variants.len()];
    for r in results {
        let (mut recs, client_served, t) = r?;
        records.append(&mut recs);
        for (v, results) in client_served.into_iter().enumerate() {
            for (job, result) in results {
                keep_distinct(&mut served, v, job, result);
            }
        }
        tracer.absorb(t);
    }
    records.sort_by_key(|r| r.job);
    let rounds = records.len() as u64 / ROUND as u64;
    let rss_bits = progress.rss_bits.load(Ordering::SeqCst);
    Ok(Phase {
        records,
        served,
        wall_s,
        instructions,
        rounds,
        peak_rss_mb: (read_rss && rss_bits != 0).then(|| f64::from_bits(rss_bits)),
        tracer,
    })
}

/// A started server with both warm caches filled: the fitted models,
/// and two shelved engines per base topology, so two concurrent jobs
/// of one topology both hit. A run shelves its engine when it ends, so
/// the first engine is held out of the pool while a second run builds
/// the second.
fn start_server(socket: &PathBuf) -> Result<RunningServer, String> {
    let server = Server::start(ServerConfig::new(socket, CLIENTS)).map_err(|e| e.to_string())?;
    let hub = server.hub();
    let run_ctx = RunContext {
        models: Some(&hub.models),
        engines: Some(&hub.engines),
    };
    for (_, text) in BASES {
        let deck = Deck::parse(text).map_err(|e| e.to_string())?;
        let topology = deck.topology_hash();
        let mut held = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            deck.run_with(&run_ctx).map_err(|e| e.to_string())?;
            held.extend(hub.engines.take(topology));
        }
        if held.len() != CLIENTS {
            return Err("a warm-up run did not shelve its engine".into());
        }
        for engine in held {
            hub.engines.put(topology, engine);
        }
    }
    Ok(server)
}

fn stop_server(server: RunningServer) {
    server.shutdown(false);
    server.wait();
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dir = PathBuf::from("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.problems
            .push(format!("cannot create {}: {e}", dir.display()));
        return out;
    }
    let socket = dir.join(format!("serve-{}.sock", std::process::id()));
    let mut setup_tracer = ctx.tracer();
    setup_tracer.set_enabled(ctx.trace);
    let ((mix, server), setup_s) = repeated_setup(
        || (Mix::new(ctx.seed), start_server(&socket)),
        |(_, server)| {
            if let Ok(server) = server {
                stop_server(server);
            }
        },
    );
    let server = match server {
        Ok(server) => server,
        Err(e) => {
            out.problems.push(format!("serve_mix set-up: {e}"));
            return out;
        }
    };

    // What every hit must equal, computed apart from the server and
    // outside both set-up and the timed phase.
    let mut tracer = setup_tracer;
    let mut cold = ColdRuns {
        tracer: &mut tracer,
        encode_us: Vec::new(),
    };
    let mut expected = Vec::with_capacity(mix.variants.len());
    for (v, text) in mix.variants.iter().enumerate() {
        match cold.result(text, v as u64) {
            Ok(json) => {
                if v % BASES.len() == 0 {
                    if let Err(e) = divider_check(text, &json) {
                        out.problems
                            .push(format!("serve_mix divider variant {v}: {e}"));
                    }
                }
                expected.push(json);
            }
            Err(e) => {
                out.problems
                    .push(format!("serve_mix cold run of variant {v}: {e}"));
                stop_server(server);
                return out;
            }
        }
    }

    // Traced runs measure an untraced and a traced half back to back;
    // the difference is the tracing overhead.
    let mut phases = Vec::new();
    let plan: &[bool] = if ctx.trace { &[false, true] } else { &[false] };
    let mut first = 0;
    for &traced in plan {
        match closed_loop(
            ctx,
            &socket,
            &mix,
            first,
            ctx.seconds / plan.len() as f64,
            (traced, !ctx.trace),
        ) {
            Ok(phase) => {
                first += phase.records.len() as u64;
                phases.push(phase);
            }
            Err(e) => out.problems.push(format!("serve_mix client: {e}")),
        }
    }
    let stats = Client::connect(&socket).and_then(|mut c| c.stats()).ok();
    stop_server(server);
    if phases.len() != plan.len() {
        return out;
    }
    let records: Vec<&Record> = phases.iter().flat_map(|p| &p.records).collect();
    out.attempted = records.len() as u64;

    for phase in &phases {
        for (v, results) in phase.served.iter().enumerate() {
            for (job, served) in results {
                if let Err(e) = checks::same_reports(served, &expected[v]) {
                    out.problems.push(format!("serve_mix job {job}: {e}"));
                }
            }
        }
    }
    for r in &records {
        if let Some(problem) = &r.problem {
            out.problems
                .push(format!("serve_mix job {}: {problem}", r.job));
        }
        if let Some(served) = &r.miss_result {
            let checked = cold
                .result(&mix.text(r.job), r.job)
                .and_then(|c| checks::same_reports(served, &c));
            if let Err(e) = checked {
                out.problems.push(format!("serve_mix job {}: {e}", r.job));
            }
        }
    }
    out.layer("server.encode_us", median(&cold.encode_us), "us");

    if ctx.trace {
        let (a, b) = (&phases[0], &phases[1]);
        let per_round = |p: &Phase| {
            (
                low_decile(&p.round_spans()),
                p.instructions as f64 / p.rounds as f64,
            )
        };
        let ((wall, instr), (twall, tinstr)) = (per_round(a), per_round(b));
        out.notes.push(overhead_note(
            wall,
            twall,
            instr,
            tinstr,
            ctx.instructions.is_some(),
        ));
        let traced: Vec<&Record> = b.records.iter().collect();
        let pick = |f: fn(&Record) -> f64| traced.iter().map(|r| f(r)).collect::<Vec<_>>();
        let pings: Vec<f64> = traced.iter().filter_map(|r| r.ping_us).collect();
        out.layer("server.ping_us", median(&pings), "us");
        out.layer(
            "server.first_event_ms_p50",
            median(&pick(|r| r.first_event_ms)),
            "ms",
        );
        out.layer(
            "server.result_wait_ms_p50",
            median(&pick(|r| r.wait_ms)),
            "ms",
        );
        let jobs = |key: &str| {
            stats
                .as_ref()
                .and_then(|s| s.get("jobs"))
                .and_then(|j| j.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        out.layer("server.jobs_done", jobs("done"), "count");
        out.layer("server.jobs_failed", jobs("failed"), "count");
        replay_round(&mix, &mut tracer, &mut out);
        let mut spans = std::mem::replace(&mut tracer, ctx.tracer());
        for phase in phases {
            spans.absorb(phase.tracer);
        }
        out.spans = Some(spans);
    } else {
        let p = &phases[0];
        let latencies: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
        let evals: u64 = records.iter().map(|r| r.device_evals).sum();
        let jobs_per_s = records.len() as f64 / p.wall_s;
        out.e2e("setup_s", setup_s, "s");
        // Every metric is printed on every workload. The ones the
        // workload has no figure of its own for mirror `jobs_per_s`.
        out.e2e("run_s", p.wall_s / p.rounds as f64, "s");
        if ctx.instructions.is_some() {
            out.e2e(
                "ginstr",
                p.instructions as f64 / p.rounds as f64 / 1e9,
                "Ginstr",
            );
        }
        match p.peak_rss_mb {
            Some(mb) => out.e2e("peak_rss_mb", mb, "MB"),
            None => out.problems.push(format!(
                "serve_mix ran fewer than {RSS_ROUNDS} rounds, so peak_rss_mb was not read"
            )),
        }
        out.e2e("iv_points_per_s", evals as f64 / p.wall_s, "1/s");
        out.e2e("ref_points_per_s", jobs_per_s, "1/s");
        out.e2e("jobs_per_s", jobs_per_s, "1/s");
        out.e2e("job_ms_p50", quantile(&latencies, 0.5), "ms");
        out.e2e("job_ms_p99", quantile(&latencies, 0.99), "ms");
    }
    out
}

/// The divider check on a cold result: `R1`, `R2` and the DC value of
/// `V1` come from the variant's own text.
fn divider_check(text: &str, result: &Json) -> Result<(), String> {
    let deck = Deck::parse(text).map_err(|e| e.to_string())?;
    let ohms = |name: &str| {
        deck.elements.iter().find_map(|c| match c {
            ElementCard::Resistor(r) if r.name.eq_ignore_ascii_case(name) => Some(r.ohms),
            _ => None,
        })
    };
    let v_dc = deck.elements.iter().find_map(|c| match c {
        ElementCard::Voltage(v) => match v.waveform {
            Waveform::Dc(v) => Some(v),
            _ => None,
        },
        _ => None,
    });
    let (Some(r1), Some(r2), Some(v_dc)) = (ohms("R1"), ohms("R2"), v_dc) else {
        return Err("divider variant lacks R1, R2 or a DC V1".into());
    };
    let rows = |i: usize| -> Vec<Vec<f64>> {
        let csv = result
            .get("reports")
            .and_then(Json::as_arr)
            .and_then(|r| r.get(i))
            .and_then(|r| r.get("csv"))
            .and_then(Json::as_str)
            .unwrap_or("");
        csv.lines()
            .skip(1)
            .map(|l| l.split(',').filter_map(|c| c.parse().ok()).collect())
            .collect()
    };
    checks::divider_outputs(&rows(0), &rows(1), v_dc, r1, r2)
}

/// Replays the first round of the served mix through the deck layer directly, sequentially, against
/// caches warmed the way the server's were: the deck, engine and
/// transient work of a round, with none of the server around it.
fn replay_round(mix: &Mix, tracer: &mut Tracer, out: &mut Outcome) {
    let (models, engines) = (ModelCache::new(), EnginePool::new());
    let run_ctx = RunContext {
        models: Some(&models),
        engines: Some(&engines),
    };
    tracer.set_enabled(false);
    for (_, text) in BASES {
        let _ = run_deck(text, &run_ctx, tracer, 0);
    }
    tracer.set_enabled(true);
    let mut tally = Tally::default();
    for j in 0..ROUND as u64 {
        let ran = run_deck(&mix.text(j), &run_ctx, tracer, j);
        if let Err(e) = &ran.result {
            out.problems
                .push(format!("serve_mix replay of job {j}: {e}"));
        }
        tally.add(&ran);
    }
    tracer.set_enabled(false);
    Tally::report_traced(&[&tally], out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_decks_reorder_cards_into_new_topologies() {
        let template = MissTemplate::new(1, 3);
        let a = template.shuffled(&mut Rng::new(1, 0));
        let b = template.shuffled(&mut Rng::new(2, 0));
        let sorted = |text: &str| {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.sort_unstable();
            lines.join("\n")
        };
        assert_eq!(sorted(&a), sorted(&template.lines.join("\n")));
        for (i, line) in a.lines().enumerate() {
            if !template.is_card[i] {
                assert_eq!(line, template.lines[i], "line {i} moved");
            }
        }
        let (da, db) = (Deck::parse(&a).unwrap(), Deck::parse(&b).unwrap());
        assert_ne!(da.topology_hash(), db.topology_hash());
    }
}
