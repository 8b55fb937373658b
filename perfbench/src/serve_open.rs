//! `serve-open`: open-loop `/predict` + `/explain` traffic against an
//! in-process event-loop server with the library-default `ServeConfig`.
//!
//! Set-up (repeated, median reported): simulate a small campaign, fit a
//! GBDT on a 70% split drawn from the seed, persist it, start the server
//! and get one answer. The timed part alternates segments at a fixed
//! base rate with climbs of a fixed ladder of rates, each climb ending at
//! the first rate that misses the 1 ms p99 limit, fails a request, or
//! outruns the generator.

use crate::campaign;
use crate::gen::{lateness_grows, plan, row_body, wires_for, Conns, PhaseResult, Route};
use crate::report::{peak_rss_mb, Ctx, Outcome};
use crate::stats::{median, Summary};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wdt_bench::CampaignSpec;
use wdt_model::{build_dataset, FitConfig, FittedModel, ModelKind, PredictScratch};
use wdt_serve::{
    AnyServer, Frontend, HttpClient, ModelRegistry, RequestParser, ServeConfig, ServeSchema,
};

/// Sizes of one `serve-open` run.
#[derive(Debug, Clone)]
pub struct Scale {
    pub days: f64,
    pub heavy_edges: usize,
    pub sparse_edges: usize,
    pub setups: usize,
    pub base_rate: f64,
    /// Fraction of the run spent at the base rate.
    pub base_share: f64,
    pub step_s: f64,
    pub ladder: Vec<f64>,
    /// The ladder rung the first climb starts at.
    pub first_rung: usize,
    /// Base-rate segments, each followed by ladder climbs for its share
    /// of the time; `max_rps` is the median climb.
    pub slots: usize,
    pub pool_rows: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            days: 3.0,
            heavy_edges: 10,
            sparse_edges: 40,
            setups: 7,
            base_rate: 10_000.0,
            base_share: 0.3,
            step_s: 0.4,
            // 10.1k to 157k req/s; the first climb starts at 25k.
            ladder: (-23..48).map(|i| (25_000.0 * 1.04f64.powi(i)).round()).collect(),
            first_rung: 23,
            slots: 3,
            pool_rows: 4096,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale {
            days: 1.0,
            heavy_edges: 2,
            sparse_edges: 6,
            setups: 2,
            base_rate: 2_000.0,
            base_share: 0.5,
            step_s: 0.2,
            ladder: vec![6_000.0, 8_000.0],
            first_rung: 0,
            slots: 1,
            pool_rows: 256,
        }
    }
}

/// p99 limit a ladder rate must meet, µs.
pub const P99_LIMIT_US: f64 = 1_000.0;
/// Rungs below the highest rung the previous climb passed at which a
/// climb starts (1.04⁴: 15% below).
pub const WARM_START_RUNGS: usize = 4;
/// Lateness growth over a phase that marks the generator as behind, µs.
pub const LATE_SLACK_US: f64 = 500.0;

/// Whether a ladder rung keeps the service level: no failed request, the
/// generator kept pace (a rate it did not offer proves nothing), and the
/// chunked p99 within [`P99_LIMIT_US`] (`NaN` — too few samples — fails).
pub fn rung_verdict(
    failed: usize,
    chunked_p99_us: f64,
    late_ns: &[u64],
) -> Result<(), &'static str> {
    if failed > 0 {
        return Err("failed requests");
    }
    if lateness_grows(late_ns, LATE_SLACK_US) {
        return Err("generator fell behind");
    }
    if chunked_p99_us.is_nan() || chunked_p99_us > P99_LIMIT_US {
        return Err("p99 over the limit");
    }
    Ok(())
}

/// Request accounting. A failed request at the base rate fails the run;
/// one on a ladder rung only rejects that rung, since the ladder probes
/// past the service level on purpose (the server sheds with 503 when its
/// queue is full).
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub rung_failed: u64,
}

impl Ledger {
    pub fn base(&mut self, sent: usize, failed: usize) {
        self.attempted += sent as u64;
        self.failed += failed as u64;
    }

    /// Account a rung attempt and give its verdict ([`rung_verdict`]).
    pub fn rung(
        &mut self,
        sent: usize,
        failed: usize,
        chunked_p99_us: f64,
        late_ns: &[u64],
    ) -> Result<(), &'static str> {
        self.attempted += sent as u64;
        self.rung_failed += failed as u64;
        rung_verdict(failed, chunked_p99_us, late_ns)
    }

    pub fn settle(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
    }
}

/// How a climb of the ladder ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Climb {
    /// The highest rung passed (index, answered rate).
    Reached(usize, f64),
    /// No rung passed, down to the ladder's first.
    Nothing,
    /// The time ran out first; the highest rung passed so far, if any.
    Cut(Option<(usize, f64)>),
}

/// Climb a ladder of `rungs` rungs from rung `start`: up while rungs
/// pass, or, when `start` itself fails, down until one passes.
/// `attempt(i)` runs rung `i` and gives `None` when the time is spent,
/// `Some(Some(answered rate))` on a pass and `Some(None)` on a reject.
pub fn climb(
    start: usize,
    rungs: usize,
    mut attempt: impl FnMut(usize) -> Option<Option<f64>>,
) -> Climb {
    let mut best = match attempt(start) {
        None => return Climb::Cut(None),
        Some(Some(rate)) => (start, rate),
        Some(None) => {
            for i in (0..start).rev() {
                match attempt(i) {
                    None => return Climb::Cut(None),
                    Some(Some(rate)) => return Climb::Reached(i, rate),
                    Some(None) => {}
                }
            }
            return Climb::Nothing;
        }
    };
    for i in start + 1..rungs {
        match attempt(i) {
            None => return Climb::Cut(Some(best)),
            Some(Some(rate)) => best = (i, rate),
            Some(None) => break,
        }
    }
    Climb::Reached(best.0, best.1)
}

struct Setup {
    server: AnyServer,
    offline: FittedModel,
    names: Vec<String>,
    rows: Vec<Vec<f64>>,
    mdape: f64,
    model_json: String,
}

fn set_up(ctx: &Ctx, scale: &Scale, dir: &std::path::Path) -> Setup {
    let spec = CampaignSpec {
        seed: campaign::WORLD_SEED,
        days: scale.days,
        heavy_edges: scale.heavy_edges,
        sparse_edges: scale.sparse_edges,
        ..Default::default()
    };
    let t = &ctx.tracer;
    let root = t.begin("setup", None, 0);
    let log = campaign::log(&spec, t, root.id());
    let feats = wdt_features::extract_features(&log);
    let data = build_dataset(&feats, false);
    let (train, test) = data.split(0.7, ctx.seed ^ 0x5E7E);
    let model = FittedModel::fit(&train, ModelKind::Gbdt, &FitConfig::default())
        .expect("GBDT fit on the set-up log");
    let mdape = model.evaluate(&test).mdape;
    let model_json = model.to_json();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("model directory");
    std::fs::write(dir.join("v0001.json"), &model_json).expect("persist model");
    let registry =
        Arc::new(ModelRegistry::open(dir, ServeSchema::prediction()).expect("open registry"));
    let names = registry.schema().names().to_vec();
    let server = AnyServer::start(registry, ServeConfig::default(), Frontend::EventLoop)
        .expect("start server");
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let body = row_body(&names, &test.x[0]);
    let (status, _) = client.post("/predict", &body).expect("first request");
    assert_eq!(status, 200, "first prediction failed");
    t.end(root);
    let offline = FittedModel::from_json(&model_json).expect("reload persisted model");
    let rows = test.x.iter().chain(&train.x).take(scale.pool_rows).cloned().collect();
    Setup { server, offline, names, rows, mdape, model_json }
}

/// Checks every answer of a phase against the offline model: `rate`
/// bitwise equal to `predict_row` of the row sent, the served version,
/// and (for `/explain`) the fold. Returns the number of mismatches.
fn mismatches(res: &PhaseResult, plan: &[(u32, Route)], expect: &[u64], version: &str) -> usize {
    res.answers
        .iter()
        .filter(|a| a.status == 200)
        .filter(|a| {
            let row = plan[a.k as usize].0 as usize / 2;
            a.rate_bits != expect[row]
                || !a.fold_ok
                || res.versions.get(a.version as usize).map(String::as_str) != Some(version)
        })
        .count()
}

pub fn run(ctx: &Ctx, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    let dir = ctx.work.join("serve-open-models");

    // Set-up, several times; the last one stays up.
    let mut setup_s = Vec::new();
    let mut setup = None;
    let mut models = Vec::new();
    for _ in 0..scale.setups.max(1) {
        if let Some(old) = setup.take() {
            let old: Setup = old;
            old.server.shutdown();
        }
        let t0 = Instant::now();
        let s = set_up(ctx, scale, &dir);
        setup_s.push(t0.elapsed().as_secs_f64());
        models.push(s.model_json.clone());
        setup = Some(s);
    }
    let s = setup.expect("at least one set-up");
    out.check(
        "set-up is deterministic (identical model each time)",
        models.windows(2).all(|w| w[0] == w[1]),
    );

    let expect: Vec<u64> = s.rows.iter().map(|r| s.offline.predict_row(r).to_bits()).collect();
    let wires = wires_for(&s.names, &s.rows);

    // Traced runs sample the batcher's queue depth every millisecond.
    let stop = AtomicBool::new(false);
    let depth_max = AtomicU64::new(0);
    let mut conns = Conns::open(s.server.addr(), 2).expect("open generator connections");
    let drain = Duration::from_secs(2);
    let mut bad = 0usize;
    let mut ledger = Ledger::default();
    // Base-rate samples (in due order), pooled over the base segments.
    let mut pred: Vec<f64> = Vec::new();
    let mut expl: Vec<f64> = Vec::new();
    let mut late_base: Vec<f64> = Vec::new();
    let mut climbs: Vec<f64> = Vec::new();
    let mut cut: Vec<f64> = Vec::new();
    let mut start = scale.first_rung;
    let mut ladder_log = Vec::new();
    std::thread::scope(|sc| {
        if ctx.traced() {
            sc.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let d = s.server.metrics().queue_depth.get().max(0.0) as u64;
                    depth_max.fetch_max(d, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        let mut phase = |idx: u64, rate: f64, secs: f64, conns: &mut Conns| {
            let n = ((rate * secs) as usize).max(1);
            let p = plan(ctx.seed, idx, n, s.rows.len());
            let span = ctx.tracer.begin("gen.phase", None, idx);
            let res = conns.run_phase(&wires, &p, rate, drain);
            ctx.tracer.end(span);
            bad += mismatches(&res, &p, &expect, "v0001");
            if res.transport_errors > 0 || res.unanswered > 0 {
                let _ = conns.reopen();
            }
            (res, p)
        };
        let (res, p) = phase(0, scale.base_rate, 0.5_f64.min(ctx.seconds * 0.05), &mut conns);
        ledger.base(p.len(), res.failed());
        // Each slot of climbs follows a segment at the base rate, so the
        // base-rate latencies sample the whole run rather than one
        // stretch of it.
        let base_s = ctx.seconds * scale.base_share / scale.slots as f64;
        let climb_s = ctx.seconds * (1.0 - scale.base_share) / scale.slots as f64;
        let mut n_climbs = 0u64;
        for slot in 0..scale.slots as u64 {
            let (res, p) = phase(1 + 10 * slot, scale.base_rate, base_s, &mut conns);
            ledger.base(p.len(), res.failed());
            pred.extend(res.latencies_us(&p, Route::Predict));
            expl.extend(res.latencies_us(&p, Route::Explain));
            late_base.extend(res.late_ns.iter().map(|&l| l as f64 / 1e3));
            if ctx.traced() {
                if let Some(start) = res.start {
                    for a in &res.answers {
                        let due = a.recv_ns - a.latency_ns;
                        ctx.tracer.record("serve.request", None, a.k as u64, start, due, a.recv_ns);
                    }
                }
            }
            // Climbs repeat until the slot's time is spent. One the time
            // cuts short only bounds `max_rps` from below, so it counts
            // only if no climb completes. A climb starts a few rungs below
            // the highest rung the previous one passed, so the time does
            // not cap a fast host's climbs.
            let started = Instant::now();
            while started.elapsed().as_secs_f64() + scale.step_s <= climb_s {
                let ended = climb(start, scale.ladder.len(), |i| {
                    if started.elapsed().as_secs_f64() + scale.step_s > climb_s {
                        return None;
                    }
                    // A rate passes if either of two attempts does, so
                    // one stray scheduling hiccup on the shared host does
                    // not end the climb.
                    let rate = scale.ladder[i];
                    for attempt in 0..2u64 {
                        let idx = 1000 * (n_climbs + 1) + 100 * attempt + i as u64;
                        let (res, p) = phase(idx, rate, scale.step_s, &mut conns);
                        let mut lat = res.latencies_us(&p, Route::Predict);
                        let sum = Summary::of(&mut lat);
                        let verdict =
                            ledger.rung(p.len(), res.failed(), sum.chunked_p99, &res.late_ns);
                        let (late0, late1) = res.lateness_trend_us();
                        ladder_log.push(format!(
                            "climb {n_climbs} {rate:>8.0} req/s: predict {}, late {late0:.0}→{late1:.0} us, failed {} → {}",
                            sum.describe("us"),
                            res.failed(),
                            verdict.map_or_else(|why| format!("reject ({why})"), |()| "pass".into())
                        ));
                        if verdict.is_ok() {
                            return Some(Some(res.achieved_rate()));
                        }
                    }
                    Some(None)
                });
                ladder_log.push(format!("climb {n_climbs}: {ended:?}"));
                match ended {
                    Climb::Reached(i, rate) => {
                        climbs.push(rate);
                        start = i.saturating_sub(WARM_START_RUNGS);
                    }
                    Climb::Nothing => climbs.push(0.0),
                    Climb::Cut(Some((i, rate))) => {
                        cut.push(rate);
                        start = i.saturating_sub(WARM_START_RUNGS);
                    }
                    Climb::Cut(None) => {}
                }
                n_climbs += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let max_rps = median(if climbs.is_empty() { &cut } else { &climbs });
    ledger.settle(&mut out);

    let pred = Summary::of(&mut pred);
    let expl = Summary::of(&mut expl);
    let late = Summary::of(&mut late_base);
    out.check("every answer bitwise equals offline predict_row; /explain folds", bad == 0);

    let setup_med = median(&setup_s);
    let rss = peak_rss_mb();
    out.e2e.insert("setup_s", setup_med);
    out.e2e.insert("throughput_per_s", max_rps);
    out.e2e.insert("predict_p50_us", pred.p50);
    out.e2e.insert("peak_rss_mb", rss);
    for (k, v) in [
        ("setup_s", setup_med),
        ("predict_p50_us", pred.p50),
        ("predict_p99_us", pred.p99),
        ("explain_p99_us", expl.p99),
        ("max_rps", max_rps),
        ("mdape_pct", s.mdape),
        ("peak_rss_mb", rss),
    ] {
        out.reported.insert(k, v);
    }
    out.notes.push(format!("base {:.0} req/s: predict {}", scale.base_rate, pred.describe("us")));
    out.notes.push(format!("base {:.0} req/s: explain {}", scale.base_rate, expl.describe("us")));
    out.notes.push(format!("base generator lateness {}", late.describe("us")));
    out.notes.extend(ladder_log);
    out.notes.push(format!(
        "ladder: {} failed requests on probing rungs (they reject the rung, not the run)",
        ledger.rung_failed
    ));
    out.notes.push(format!(
        "max_rps: answered rate of the highest passing rung, per complete climb {:?} (cut short: {:?}), median {max_rps:.1}",
        climbs.iter().map(|c| c.round()).collect::<Vec<_>>(),
        cut.iter().map(|c| c.round()).collect::<Vec<_>>()
    ));

    if ctx.traced() {
        let l = &mut out.layer;
        l.insert("workload.generate_s", median(&ctx.tracer.durations_s("workload.generate")));
        l.insert("gen.late_us.p99", late.p99);
        l.insert("serve.batch_size.p50", s.server.metrics().batch_size.quantile(0.5) as f64);
        l.insert("serve.queue_depth.max", depth_max.load(Ordering::Relaxed) as f64);
        let batch = (s.server.metrics().batch_size.quantile(0.5) as usize).max(1);
        l.insert("model.predict_ns_per_row", predict_ns_per_row(&s.offline, &s.rows, batch));
        l.insert("model.explain_ns_per_row", explain_ns_per_row(&s.offline, &s.rows));
        l.insert("http.parse_ns_per_req", parse_ns_per_req(&wires));
        l.insert("model.mdape_pct", s.mdape);
        l.insert("traced.throughput_per_s", max_rps);
        l.insert("traced.predict_p50_us", pred.p50);
    }
    s.server.shutdown();
    out
}

/// `FittedModel::predict_into` at the server's observed batch size.
pub fn predict_ns_per_row(model: &FittedModel, rows: &[Vec<f64>], batch: usize) -> f64 {
    let mut scratch = PredictScratch::default();
    let mut outv = Vec::new();
    let batches: Vec<&[Vec<f64>]> = rows.chunks(batch.min(rows.len()).max(1)).collect();
    let t0 = Instant::now();
    let mut n = 0usize;
    while t0.elapsed() < Duration::from_millis(200) {
        for b in &batches {
            model.predict_into(std::hint::black_box(b), &mut outv, &mut scratch);
            std::hint::black_box(&outv);
            n += b.len();
        }
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// `FittedModel::explain_row_into` per row.
pub fn explain_ns_per_row(model: &FittedModel, rows: &[Vec<f64>]) -> f64 {
    let mut scratch = PredictScratch::default();
    let mut contribs = Vec::new();
    let t0 = Instant::now();
    let mut n = 0usize;
    while t0.elapsed() < Duration::from_millis(200) {
        for r in rows {
            std::hint::black_box(model.explain_row_into(
                std::hint::black_box(r),
                &mut contribs,
                &mut scratch,
            ));
            n += 1;
        }
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// `RequestParser` over the exact request bytes the workload sends,
/// pushed in one pipelined burst and framed one request at a time.
pub fn parse_ns_per_req(wires: &[Vec<u8>]) -> f64 {
    let burst: Vec<u8> = wires.concat();
    let t0 = Instant::now();
    let mut n = 0usize;
    while t0.elapsed() < Duration::from_millis(200) {
        let mut p = RequestParser::new();
        p.push(&burst);
        while let Ok(Some(frame)) = p.peek() {
            std::hint::black_box(frame.body(p.window()).len());
            p.consume(frame.wire_len());
            n += 1;
        }
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rejects_a_rate_the_generator_fell_behind_on() {
        let steady: Vec<u64> = (0..10_000).map(|k| 3_000 + (k % 5) * 500).collect();
        assert_eq!(rung_verdict(0, 180.0, &steady), Ok(()));
        // Latency looks fine, but the sender drifted 1.5 ms behind
        // schedule: the rate was not offered, so the rung fails.
        let behind: Vec<u64> = (0..10_000).map(|k| 3_000 + k * 150).collect();
        assert_eq!(rung_verdict(0, 180.0, &behind), Err("generator fell behind"));
        assert_eq!(rung_verdict(1, 180.0, &steady), Err("failed requests"));
        assert_eq!(rung_verdict(0, 1_000.5, &steady), Err("p99 over the limit"));
        assert_eq!(rung_verdict(0, f64::NAN, &steady), Err("p99 over the limit"));
    }

    #[test]
    fn climbs_go_up_while_rungs_pass_and_down_from_a_failing_start() {
        // Rungs 0..=5 pass, 6 and above fail.
        let pass_to = |top: usize| move |i: usize| Some((i <= top).then_some(i as f64));
        assert_eq!(climb(2, 10, pass_to(5)), Climb::Reached(5, 5.0));
        assert_eq!(climb(8, 10, pass_to(5)), Climb::Reached(5, 5.0));
        assert_eq!(climb(0, 10, pass_to(9)), Climb::Reached(9, 9.0));
        assert_eq!(climb(3, 10, |_| Some(None)), Climb::Nothing);
        // The time runs out on the third rung tried.
        let mut tried = 0;
        let timed = |i: usize| {
            tried += 1;
            (tried < 3).then_some(Some(i as f64))
        };
        assert_eq!(climb(4, 10, timed), Climb::Cut(Some((5, 5.0))));
    }

    #[test]
    fn a_shedding_rung_ends_the_climb_but_not_the_run() {
        let steady: Vec<u64> = vec![3_000; 10_000];
        let mut ledger = Ledger::default();
        ledger.base(10_000, 0);
        assert_eq!(ledger.rung(10_000, 0, 180.0, &steady), Ok(()));
        // The next rung: the server sheds 37 requests with 503.
        assert_eq!(ledger.rung(10_000, 37, 180.0, &steady), Err("failed requests"));
        let mut out = Outcome::default();
        ledger.settle(&mut out);
        assert_eq!((out.attempted, out.failed, ledger.rung_failed), (30_000, 0, 37));
        assert!(out.correct());
        // A failure at the base rate still fails the run.
        ledger.base(10_000, 1);
        let mut out = Outcome::default();
        ledger.settle(&mut out);
        assert!(!out.correct());
    }
}
