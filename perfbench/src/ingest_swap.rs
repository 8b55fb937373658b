//! `ingest-swap`: streaming ingest with continuous retraining and model
//! hot-swap, beside a live read path.
//!
//! Set-up (repeated, median reported; not timed in the run): generate
//! and simulate a campaign log, fit a first model on its head, and start
//! an in-process event-loop server on that model. The timed part replays
//! the log through `IngestPipeline` (on-disk `SegmentStore`,
//! `FeatureWindow`, `RetrainDriver` writing versioned artifacts into the
//! server's model directory); the swap hook sends `POST /reload`. One
//! open-loop connection keeps sending `/predict` (and about 1 in 16
//! `/explain`) at a low fixed rate the whole time.

use crate::campaign;
use crate::gen::{plan, row_body, wires_for, Conns, PhaseResult, Route};
use crate::report::{peak_rss_mb, Ctx, Outcome};
use crate::stats::{median, Summary};
use std::io;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wdt_bench::CampaignSpec;
use wdt_ingest::{
    Backpressure, FeatureWindow, IngestConfig, IngestPipeline, IngestReport, LogStore,
    RetrainConfig, RetrainDriver, SegmentStore, SwapEvent,
};
use wdt_model::{build_dataset, FitConfig, FittedModel, ModelKind};
use wdt_serve::{AnyServer, Frontend, HttpClient, ModelRegistry, ServeConfig, ServeSchema};
use wdt_types::TransferRecord;

/// Sizes of one `ingest-swap` run.
#[derive(Debug, Clone)]
pub struct Scale {
    pub spec: CampaignSpec,
    pub window: usize,
    pub chunk: usize,
    pub refit_every: usize,
    pub min_train: usize,
    pub probe_rate: f64,
    pub setups: usize,
    pub pool_rows: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            spec: CampaignSpec { seed: campaign::WORLD_SEED, days: 6.0, ..Default::default() },
            window: 12_000,
            chunk: 1_000,
            // One refit per round, on a full window: each reload stalls the
            // probe's shard for a few hundred ms, and more swaps per round
            // put the probe's median inside those stalls on some runs and
            // not on others.
            refit_every: 20_000,
            min_train: 12_000,
            probe_rate: 4_000.0,
            setups: 3,
            pool_rows: 2048,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale {
            spec: CampaignSpec {
                seed: campaign::WORLD_SEED,
                days: 2.0,
                heavy_edges: 4,
                sparse_edges: 10,
                ..Default::default()
            },
            window: 600,
            chunk: 100,
            refit_every: 300,
            min_train: 200,
            probe_rate: 1_000.0,
            setups: 2,
            pool_rows: 128,
        }
    }
}

struct Setup {
    log: Vec<TransferRecord>,
    server: AnyServer,
    rows: Vec<Vec<f64>>,
    names: Vec<String>,
    first_model: String,
}

fn set_up(ctx: &Ctx, scale: &Scale, models: &Path) -> Setup {
    let t = &ctx.tracer;
    let root = t.begin("setup", None, 0);
    let mut log = campaign::log(&scale.spec, t, root.id());
    // A live log grows as transfers complete.
    log.sort_by(|a, b| a.end.cmp(&b.end).then(a.id.cmp(&b.id)));
    let head = build_dataset(
        &wdt_features::extract_features(&log[..scale.min_train.min(log.len())]),
        false,
    );
    let model =
        FittedModel::fit(&head, ModelKind::Gbdt, &FitConfig::default()).expect("first model");
    let first_model = model.to_json();
    let _ = std::fs::remove_dir_all(models);
    std::fs::create_dir_all(models).expect("model directory");
    std::fs::write(models.join("v000000.json"), &first_model).expect("persist first model");
    let registry =
        Arc::new(ModelRegistry::open(models, ServeSchema::prediction()).expect("open registry"));
    let names = registry.schema().names().to_vec();
    // One poller shard: the event loop answers `/reload` on its poller
    // thread, and with two shards `SO_REUSEPORT` hashing would decide per
    // run whether the probe shares the stalled shard (a bimodal tail).
    let cfg = ServeConfig { acceptors: 1, ..ServeConfig::default() };
    let server = AnyServer::start(registry, cfg, Frontend::EventLoop).expect("start server");
    let data = build_dataset(&wdt_features::extract_features(&log), false);
    let rows: Vec<Vec<f64>> = data.x.into_iter().take(scale.pool_rows).collect();
    let body = row_body(&names, &rows[0]);
    let (status, _) = HttpClient::connect(server.addr())
        .and_then(|mut c| c.post("/predict", &body))
        .expect("first request");
    assert_eq!(status, 200, "first prediction failed");
    t.end(root);
    Setup { log, server, rows, names, first_model }
}

/// A `SegmentStore` that times each append (traced runs only).
struct TimedStore {
    inner: SegmentStore,
    nanos: Arc<Mutex<(u64, u64)>>,
}

impl LogStore for TimedStore {
    fn append(&mut self, r: &TransferRecord) -> io::Result<()> {
        let before = self.inner.bytes();
        let t0 = Instant::now();
        let res = self.inner.append(r);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut acc = self.nanos.lock().expect("append timer poisoned");
        acc.0 += ns;
        acc.1 += self.inner.bytes() - before;
        res
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn bytes(&self) -> u64 {
        self.inner.bytes()
    }
    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

/// Plan label of the probe's request stream.
const PROBE_PHASE: u64 = 0x1A6E57;

/// A swap the hook saw: when, which version, and the `/reload` round trip.
#[derive(Debug, Clone)]
struct Swap {
    at: Instant,
    version: String,
    reload_ms: f64,
    reload_ok: bool,
    refit_ms: f64,
}

pub fn run(ctx: &Ctx, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    let models = ctx.work.join("ingest-models");
    let segments = ctx.work.join("ingest-segments");

    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    let mut firsts = Vec::new();
    for _ in 0..scale.setups.max(1) {
        if let Some(old) = setup.take() {
            old.server.shutdown();
        }
        let t0 = Instant::now();
        let s = set_up(ctx, scale, &models);
        setup_s.push(t0.elapsed().as_secs_f64());
        firsts.push(s.first_model.clone());
        setup = Some(s);
    }
    let s = setup.expect("at least one set-up");
    out.check(
        "set-up is deterministic (identical first model each time)",
        firsts.windows(2).all(|w| w[0] == w[1]),
    );
    let _ = std::fs::remove_dir_all(&segments);

    let wires = wires_for(&s.names, &s.rows);
    let max_probe = (scale.probe_rate * (ctx.seconds * 3.0 + 10.0)) as usize;
    let plan = plan(ctx.seed, PROBE_PHASE, max_probe, s.rows.len());

    let cfg = IngestConfig {
        queue_cap: 4_096,
        backpressure: Backpressure::Block,
        window: scale.window,
        chunk: scale.chunk,
        // Scheduled refits only: drift-forced ones would tie the amount
        // of work in a run to the deployed model's error, so a change to
        // fitting could move throughput by changing the number of refits.
        retrain: RetrainConfig {
            refit_every: scale.refit_every,
            min_train: scale.min_train,
            drift_threshold_pct: f64::INFINITY,
            ..RetrainConfig::default()
        },
    };
    let append = Arc::new(Mutex::new((0u64, 0u64)));
    let swaps: Arc<Mutex<Vec<Swap>>> = Arc::new(Mutex::new(Vec::new()));
    let reloader = Arc::new(Mutex::new(HttpClient::connect(s.server.addr()).ok()));
    let hook = || {
        let swaps = swaps.clone();
        let reloader = reloader.clone();
        Box::new(move |ev: &SwapEvent| {
            let at = Instant::now();
            let ok = reloader
                .lock()
                .expect("reload client poisoned")
                .as_mut()
                .is_some_and(|c| matches!(c.post("/reload", ""), Ok((200, _))));
            let reload_ms = at.elapsed().as_secs_f64() * 1e3;
            swaps.lock().expect("swap log poisoned").push(Swap {
                at,
                version: ev.version.clone().unwrap_or_default(),
                reload_ms,
                reload_ok: ok,
                refit_ms: ev.latency_ms,
            });
        }) as wdt_ingest::SwapHook
    };

    // Rounds: the log is replayed through a fresh pipeline (new store,
    // new driver; artifact versions keep counting up) until the run's
    // seconds are spent, while the probe runs throughout.
    let stop = AtomicBool::new(false);
    let mut conns = Conns::open(s.server.addr(), 1).expect("open probe connection");
    let mut offer_us: Vec<f64> = Vec::new();
    let mut probe: Option<PhaseResult> = None;
    let mut rounds: Vec<Round> = Vec::new();
    std::thread::scope(|sc| {
        let prober = sc.spawn(|| {
            conns.run_phase_until(&wires, &plan, scale.probe_rate, Duration::from_secs(2), &stop)
        });
        // Let the probe settle before the writes start.
        std::thread::sleep(Duration::from_millis(100));
        let timed = Instant::now();
        // No round starts that would end more than half a round late.
        let mut round_s = 0.0;
        while rounds.is_empty() || timed.elapsed().as_secs_f64() + round_s / 2.0 < ctx.seconds {
            let dir = segments.join(format!("round{}", rounds.len()));
            let inner = SegmentStore::open(&dir).expect("open segment store");
            let store: Box<dyn LogStore> = if ctx.traced() {
                Box::new(TimedStore { inner, nanos: append.clone() })
            } else {
                Box::new(inner)
            };
            let driver = RetrainDriver::new(cfg.retrain.clone(), Some(models.clone()))
                .expect("retrain driver");
            let t0 = Instant::now();
            let handle = IngestPipeline::start(cfg.clone(), store, driver, Some(hook()));
            let span = ctx.tracer.begin("ingest.round", None, rounds.len() as u64);
            for r in &s.log {
                if ctx.traced() {
                    let t = Instant::now();
                    handle.offer(r.clone());
                    offer_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                } else {
                    handle.offer(r.clone());
                }
            }
            let report = handle.finish();
            ctx.tracer.end(span);
            let wall_s = t0.elapsed().as_secs_f64();
            round_s = wall_s;
            let replay = SegmentStore::open(&dir).and_then(|mut st| st.replay());
            let replay_ok = matches!(&replay, Ok(v) if v[..] == s.log[..]);
            rounds.push(Round { report, wall_s, replay_ok });
        }
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        probe = Some(prober.join().expect("probe thread panicked"));
    });
    let probe = probe.expect("probe ran");
    let swaps = swaps.lock().expect("swap log poisoned").clone();
    let reports: Vec<&IngestReport> =
        rounds.iter().filter_map(|r| r.report.as_ref().ok()).collect();
    for r in &rounds {
        if let Err(e) = &r.report {
            out.check(format!("ingest pipeline finished without I/O error ({e})"), false);
        }
    }
    let Some(last) = reports.last().copied() else {
        out.attempted = (s.log.len() * rounds.len()) as u64;
        out.failed = out.attempted;
        s.server.shutdown();
        return out;
    };

    // Correctness.
    let n = s.log.len() as u64;
    out.check(
        "SegmentStore::replay returns exactly the ingested records, every round",
        rounds.iter().all(|r| r.replay_ok),
    );
    out.check(
        "every record ingested, none shed, every round",
        reports.len() == rounds.len() && reports.iter().all(|r| r.ingested == n && r.shed == 0),
    );
    out.check(
        "every round reproduces the same rolling MdAPE",
        reports.iter().all(|r| r.rolling_mdape.to_bits() == last.rolling_mdape.to_bits()),
    );
    out.check("at least two hot swaps", swaps.len() >= 2);
    out.check("every /reload answered 200", swaps.iter().all(|w| w.reload_ok));
    let last_version = swaps.last().map(|w| w.version.clone()).unwrap_or_default();
    out.check(
        "server's final version is the last SwapEvent's",
        s.server.registry().current().version == last_version && !last_version.is_empty(),
    );
    // Each answer must equal, bitwise, the offline prediction of the
    // artifact whose version it reports.
    let mut offline: Vec<Option<FittedModel>> = Vec::new();
    for v in &probe.versions {
        let m = std::fs::read_to_string(models.join(format!("{v}.json")))
            .ok()
            .and_then(|j| FittedModel::from_json(&j).ok());
        offline.push(m);
    }
    let bad = probe
        .answers
        .iter()
        .filter(|a| a.status == 200)
        .filter(|a| {
            let row = plan[a.k as usize].0 as usize / 2;
            let model = offline.get(a.version as usize).and_then(Option::as_ref);
            !a.fold_ok || model.is_none_or(|m| m.predict_row(&s.rows[row]).to_bits() != a.rate_bits)
        })
        .count();
    out.check("every probe answer bitwise equals its version's offline predict_row", bad == 0);
    out.check("the probe saw the swapped versions", probe.versions.len() >= 2);

    // swap_visible: from the hook firing to the first answer carrying the
    // new version.
    let start = probe.start.expect("phase start");
    let mut visible_ms = Vec::new();
    for w in &swaps {
        let Some(vi) = probe.versions.iter().position(|v| *v == w.version) else { continue };
        let first =
            probe.answers.iter().filter(|a| a.version as usize == vi).map(|a| a.recv_ns).min();
        if let Some(ns) = first {
            let at = start + Duration::from_nanos(ns);
            visible_ms.push(at.saturating_duration_since(w.at).as_secs_f64() * 1e3);
        }
    }
    out.check("every swap became visible to the probe", visible_ms.len() == swaps.len());

    let ingested: u64 = reports.iter().map(|r| r.ingested + r.shed).sum();
    let shed: u64 = reports.iter().map(|r| r.shed).sum();
    out.attempted = ingested + probe.planned as u64 + swaps.len() as u64;
    out.failed =
        shed + probe.failed() as u64 + swaps.iter().filter(|w| !w.reload_ok).count() as u64;

    let rates: Vec<f64> = rounds
        .iter()
        .filter_map(|r| Some(r.report.as_ref().ok()?.ingested as f64 / r.wall_s))
        .collect();
    let records_per_s = median(&rates);
    let mut pred = probe.latencies_us(&plan, Route::Predict);
    let mut expl = probe.latencies_us(&plan, Route::Explain);
    let pred = Summary::of(&mut pred);
    let expl = Summary::of(&mut expl);
    let setup_med = median(&setup_s);
    let rss = peak_rss_mb();
    let visible = median(&visible_ms);
    out.e2e.insert("setup_s", setup_med);
    out.e2e.insert("throughput_per_s", records_per_s);
    out.e2e.insert("predict_p50_us", pred.p50);
    out.e2e.insert("peak_rss_mb", rss);
    for (k, v) in [
        ("setup_s", setup_med),
        ("predict_p50_us", pred.p50),
        ("explain_p99_us", expl.p99),
        ("records_per_s", records_per_s),
        ("mdape_pct", last.rolling_mdape),
        ("peak_rss_mb", rss),
        ("swap_p99_us", pred.p99),
        ("swap_visible_ms", visible),
    ] {
        out.reported.insert(k, v);
    }
    for (r, round) in rounds.iter().enumerate() {
        if let Ok(rep) = &round.report {
            out.notes.push(format!(
                "round {r}: {} records in {:.3} s, {} refits ({} drift), rolling MdAPE {:.4}% (frozen first model {:.4}%)",
                rep.ingested, round.wall_s, rep.refits, rep.drift_refits, rep.rolling_mdape, rep.stale_mdape
            ));
        }
    }
    out.notes.push(format!("{} swaps over {} rounds", swaps.len(), rounds.len()));
    out.notes.push(format!("probe {:.0} req/s: predict {}", scale.probe_rate, pred.describe("us")));
    out.notes.push(format!("probe explain {}", expl.describe("us")));
    let mut vis = visible_ms.clone();
    out.notes.push(format!("swap visible {}", Summary::of(&mut vis).describe("ms")));

    if ctx.traced() {
        let l = &mut out.layer;
        l.insert("workload.generate_s", median(&ctx.tracer.durations_s("workload.generate")));
        let (push_ns, features_s) = window_costs(&s.log, scale);
        l.insert("window.push_ns", push_ns);
        l.insert("window.features_s", features_s);
        let refit: Vec<f64> = swaps.iter().map(|w| w.refit_ms).collect();
        l.insert("retrain.refit_ms.p50", median(&refit));
        l.insert("retrain.refits", last.refits as f64);
        l.insert("model.mdape_pct", last.rolling_mdape);
        l.insert("serve.reload_ms", median(&swaps.iter().map(|w| w.reload_ms).collect::<Vec<_>>()));
        l.insert("swap.visible_ms.p50", visible);
        let mut late: Vec<f64> = probe.late_ns.iter().map(|&n| n as f64 / 1e3).collect();
        l.insert("gen.late_us.p99", Summary::of(&mut late).p99);
        l.insert("ingest.offer_wait_us.p99", Summary::of(&mut offer_us).p99);
        l.insert("ingest.shed", shed as f64);
        let (ns, bytes) = *append.lock().expect("append timer poisoned");
        l.insert("store.append_mb_per_s", bytes as f64 / 1e6 / (ns as f64 * 1e-9).max(1e-12));
        l.insert("serve.batch_size.p50", s.server.metrics().batch_size.quantile(0.5) as f64);
        l.insert("traced.throughput_per_s", records_per_s);
        l.insert("traced.predict_p50_us", pred.p50);
    }
    s.server.shutdown();
    out
}

/// One replay of the log through a fresh pipeline.
struct Round {
    report: io::Result<IngestReport>,
    wall_s: f64,
    replay_ok: bool,
}
/// The feature window's own costs on this log, replayed outside the
/// pipeline with the pipeline's cadence: ns per `push`, and total seconds
/// in `features()` at each refit point.
fn window_costs(log: &[TransferRecord], scale: &Scale) -> (f64, f64) {
    let mut w = FeatureWindow::new(scale.window);
    let mut push_ns = 0u128;
    let mut features_s = 0.0;
    for (i, r) in log.iter().enumerate() {
        let t0 = Instant::now();
        w.push(r.clone());
        push_ns += t0.elapsed().as_nanos();
        if (i + 1) % scale.refit_every == 0 && w.len() >= scale.min_train {
            let t1 = Instant::now();
            std::hint::black_box(w.features());
            features_s += t1.elapsed().as_secs_f64();
        }
    }
    (push_ns as f64 / log.len().max(1) as f64, features_s)
}
