//! `campaign-fit`: the paper's offline pipeline on the default fleet
//! shape — simulate a `CampaignSpec` (45 heavy + 400 sparse edges, 4
//! shards on rayon's pool), extract features, fit the per-edge LR + GBDT
//! prediction and explanation models on the top 30 edges, and score the
//! held-out rows one at a time.
//!
//! Set-up generates the workload (repeated, median reported); the log
//! must hold one record per generated request. The timed part repeats
//! the pipeline until the run's seconds are spent: untraced through the
//! library (`CampaignSpec::simulate`, `extract_features`, `run_per_edge`),
//! traced through `campaign`'s decomposition of it. Every pass must give
//! the stored log digest and the same MdAPE. The run seed draws the
//! per-edge train/test splits.

use crate::campaign;
use crate::report::{peak_rss_mb, Ctx, Outcome};
use crate::stats::{median, Summary};
use rayon::prelude::*;
use std::time::Instant;
use wdt_bench::{CampaignOutput, CampaignSpec};
use wdt_check::TraceDigest;
use wdt_features::{threshold_filter, TransferFeatures};
use wdt_model::{
    build_dataset, run_per_edge, EdgeExperiment, EvalReport, FittedModel, ModelKind, PerEdgeConfig,
    PredictScratch,
};
use wdt_types::{EdgeId, TransferRecord};

/// The run seed whose MdAPE is stored with the log digest.
pub const DEFAULT_SEED: u64 = 2017;
const GOLDEN: &str = include_str!("../golden/campaign-fit-seed2017.digest");

/// A gross-accuracy guard that holds for every seed: the paper's per-edge
/// GBDTs reach about 5% median error, this fleet 3–4.5%.
pub const MDAPE_GUARD_PCT: f64 = 10.0;

/// Sizes of one `campaign-fit` run.
#[derive(Debug, Clone)]
pub struct Scale {
    pub spec: CampaignSpec,
    pub per_edge: PerEdgeConfig,
    pub setups: usize,
    /// Checks whose expected values hold at full size only: the stored
    /// digest, the MdAPE guard, and the stored MdAPE when the run seed is
    /// the default.
    pub reference_checks: bool,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            spec: CampaignSpec { seed: campaign::WORLD_SEED, days: 6.0, ..Default::default() },
            per_edge: PerEdgeConfig::default(),
            setups: 41,
            reference_checks: true,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Scale {
        let mut per_edge = PerEdgeConfig { min_transfers: 40, max_edges: 3, ..Default::default() };
        per_edge.fit.gbdt.n_rounds = 20;
        Scale {
            spec: CampaignSpec {
                seed: campaign::WORLD_SEED,
                days: 2.0,
                heavy_edges: 4,
                sparse_edges: 10,
                ..Default::default()
            },
            per_edge,
            setups: 2,
            reference_checks: false,
        }
    }
}

/// The per-edge configuration of a run: the scale's, with the split seed
/// drawn from the run seed.
fn per_edge_for(scale: &Scale, seed: u64) -> PerEdgeConfig {
    PerEdgeConfig { seed: scale.per_edge.seed ^ seed, ..scale.per_edge.clone() }
}

/// The median per-edge GBDT held-out MdAPE.
fn median_mdape<'a>(evals: impl Iterator<Item = &'a EvalReport>) -> f64 {
    median(&evals.map(|e| e.mdape).collect::<Vec<_>>())
}

/// One pass of the pipeline through the library: `CampaignSpec::simulate`,
/// `extract_features`, `run_per_edge`.
struct LibraryPass {
    log: CampaignOutput,
    feats: Vec<TransferFeatures>,
    experiments: Vec<EdgeExperiment>,
    sim_s: f64,
    features_s: f64,
    fit_s: f64,
}

fn library_pass(scale: &Scale, seed: u64) -> LibraryPass {
    let t0 = Instant::now();
    let log = scale.spec.simulate();
    let sim_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let feats = wdt_features::extract_features(&log.records);
    let features_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let experiments = run_per_edge(&feats, &per_edge_for(scale, seed));
    let fit_s = t2.elapsed().as_secs_f64();
    LibraryPass { log, feats, experiments, sim_s, features_s, fit_s }
}

/// The log digest and median MdAPE of the library's pipeline for `seed`,
/// as the stored digest file holds them.
pub fn golden_text(scale: &Scale, seed: u64) -> String {
    let p = library_pass(scale, seed);
    let mdape = median_mdape(p.experiments.iter().map(|e| &e.xgb));
    let header = format!(
        "campaign-fit log: CampaignSpec {{ seed: {}, days: {} }}, default fleet\nMdAPE of run seed {seed}\nmdape_pct_bits {:016x}\nmdape_pct {mdape}",
        scale.spec.seed,
        scale.spec.days,
        mdape.to_bits()
    );
    TraceDigest::from_records(&p.log.records).to_text(&header)
}

/// One pass of the pipeline, whichever way it ran.
struct Pass {
    wall_s: f64,
    sim_s: f64,
    features_s: f64,
    fit_s: f64,
    records: usize,
    digest: TraceDigest,
    mdape: f64,
    events: u64,
    reallocations: u64,
    features_ok: bool,
    /// The features and each fitted edge's held-out score; kept from the
    /// first pass only, to rebuild the held-out models.
    feats: Vec<TransferFeatures>,
    fitted: Vec<(EdgeId, EvalReport)>,
    /// Traced passes only.
    shards: Vec<campaign::ShardRun>,
    rows_fitted: usize,
}

fn untraced_pass(scale: &Scale, seed: u64) -> Pass {
    let t0 = Instant::now();
    let p = library_pass(scale, seed);
    let wall_s = t0.elapsed().as_secs_f64();
    Pass {
        wall_s,
        sim_s: p.sim_s,
        features_s: p.features_s,
        fit_s: p.fit_s,
        records: p.log.records.len(),
        digest: TraceDigest::from_records(&p.log.records),
        mdape: median_mdape(p.experiments.iter().map(|e| &e.xgb)),
        events: p.log.stats.events,
        reallocations: p.log.stats.reallocations,
        features_ok: features_ok(&p.log.records, &p.feats),
        feats: p.feats,
        fitted: p.experiments.into_iter().map(|e| (e.edge, e.xgb)).collect(),
        shards: Vec::new(),
        rows_fitted: 0,
    }
}

/// The same pass decomposed (see `campaign`), with a span per layer.
fn traced_pass(ctx: &Ctx, scale: &Scale, i: u64) -> Pass {
    let t = &ctx.tracer;
    let root = t.begin("campaign.pass", None, i);
    let t0 = Instant::now();
    let sim = t.span("sim.campaign", root.id(), i, |p| {
        let workload = campaign::generate(&scale.spec, t, p);
        campaign::simulate(&scale.spec, &workload, t, p)
    });
    let sim_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let feats =
        t.span("features.extract", root.id(), i, |_| wdt_features::extract_features(&sim.records));
    let features_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let per_edge = per_edge_for(scale, ctx.seed);
    let fits = t.span("model.fit", root.id(), i, |p| campaign::fit_edges(&feats, &per_edge, t, p));
    let fit_s = t2.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    t.end(root);
    Pass {
        wall_s,
        sim_s,
        features_s,
        fit_s,
        records: sim.records.len(),
        digest: TraceDigest::from_records(&sim.records),
        mdape: median_mdape(fits.iter().map(|f| &f.xgb_eval)),
        events: sim.shards.iter().map(|s| s.stats.events).sum(),
        reallocations: sim.shards.iter().map(|s| s.stats.reallocations).sum(),
        features_ok: features_ok(&sim.records, &feats),
        feats,
        rows_fitted: fits.iter().map(|f| f.rows_fitted).sum(),
        fitted: fits.into_iter().map(|f| (f.edge, f.xgb_eval)).collect(),
        shards: sim.shards,
    }
}

/// One feature row per record, and every transfer ends after it starts.
fn features_ok(log: &[TransferRecord], feats: &[TransferFeatures]) -> bool {
    feats.len() == log.len() && log.iter().all(|r| r.end > r.start)
}

/// An edge's GBDT prediction model and its held-out rows.
struct HeldOutModel {
    xgb: FittedModel,
    test_x: Vec<Vec<f64>>,
}

/// Refit each fitted edge's GBDT prediction model on its training split
/// (not timed), for answering its held-out rows. Also returns whether
/// every refit scores exactly the pass's held-out result for its edge.
fn held_out_models(
    feats: &[TransferFeatures],
    cfg: &PerEdgeConfig,
    fitted: &[(EdgeId, EvalReport)],
) -> (Vec<HeldOutModel>, bool) {
    let filtered = threshold_filter(feats, cfg.threshold);
    let models: Vec<Option<(HeldOutModel, bool)>> = fitted
        .par_iter()
        .map(|(edge, eval)| {
            let data = build_dataset(&campaign::edge_features(&filtered, *edge), false);
            let (train, test) = data
                .split(cfg.train_frac, cfg.seed ^ edge.src.0 as u64 ^ (edge.dst.0 as u64) << 32);
            let xgb = FittedModel::fit(&train, ModelKind::Gbdt, &cfg.fit)?;
            let same = xgb.evaluate(&test) == *eval;
            Some((HeldOutModel { xgb, test_x: test.x }, same))
        })
        .collect();
    let all = models.iter().all(Option::is_some);
    let (models, same): (Vec<HeldOutModel>, Vec<bool>) = models.into_iter().flatten().unzip();
    (models, all && same.iter().all(|&s| s))
}

/// Held-out latency samples, one list per row; every pass (the passes
/// are identical) adds one sweep. A row's latency is its fastest sweep:
/// each timing is the row's own cost plus whatever else the shared host
/// did to the core and its caches at that moment, and the sweeps, spread
/// over the whole run, give the row as many chances to show its cost.
#[derive(Default)]
struct HeldOut {
    pred: Vec<Vec<f64>>,
    expl: Vec<Vec<f64>>,
    folds: bool,
    sweeps: usize,
}

/// Fewest sweeps a run takes, adding sweeps after the last pass if the
/// passes were fewer.
const MIN_SWEEPS: usize = 5;

impl HeldOut {
    /// Answer every held-out row from its edge's GBDT, one row at a time:
    /// `predict_into` with a one-row batch and `explain_row_into` (µs), and
    /// check that each explanation folds bitwise to the prediction.
    fn sweep(&mut self, fits: &[HeldOutModel]) {
        let rows: Vec<(&HeldOutModel, &Vec<f64>)> =
            fits.iter().flat_map(|f| f.test_x.iter().map(move |r| (f, r))).collect();
        if self.sweeps == 0 {
            self.pred = vec![Vec::new(); rows.len()];
            self.expl = vec![Vec::new(); rows.len()];
            self.folds = true;
        }
        self.folds &= rows.len() == self.pred.len();
        let mut contribs = Vec::new();
        let mut scratch = PredictScratch::default();
        let mut one = Vec::with_capacity(1);
        for (i, (f, row)) in rows.iter().enumerate().take(self.pred.len()) {
            let t0 = Instant::now();
            f.xgb.predict_into(
                std::hint::black_box(std::slice::from_ref(*row)),
                &mut one,
                &mut scratch,
            );
            let p = std::hint::black_box(one[0]);
            self.pred[i].push(t0.elapsed().as_nanos() as f64 / 1e3);
            let t1 = Instant::now();
            let (bias, e) =
                f.xgb.explain_row_into(std::hint::black_box(row), &mut contribs, &mut scratch);
            self.expl[i].push(t1.elapsed().as_nanos() as f64 / 1e3);
            let fold = contribs.iter().fold(bias, |a, &c| a + c);
            self.folds &= fold.to_bits() == p.to_bits()
                && e.to_bits() == p.to_bits()
                && p.to_bits() == f.xgb.predict_row(row).to_bits();
        }
        self.sweeps += 1;
    }

    /// Per-row fastest sweep, in row order.
    fn fastest(&self) -> (Vec<f64>, Vec<f64>) {
        let min = |v: &Vec<f64>| v.iter().copied().fold(f64::INFINITY, f64::min);
        (self.pred.iter().map(min).collect(), self.expl.iter().map(min).collect())
    }
}

/// The stored digest and MdAPE for the default seed.
pub fn golden() -> (TraceDigest, f64) {
    let digest = TraceDigest::from_text(GOLDEN).expect("stored digest parses");
    let mdape = GOLDEN
        .lines()
        .find_map(|l| l.strip_prefix("# mdape_pct_bits "))
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
        .map(f64::from_bits)
        .expect("stored digest carries mdape_pct_bits");
    (digest, mdape)
}

pub fn run(ctx: &Ctx, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is a few milliseconds, so one moment of the shared host's
    // load would decide its median: a third of the generations run before
    // the passes, the rest are spread between them.
    let mut setup_s = Vec::new();
    let mut set_up = |n: usize| {
        let mut workload = None;
        for _ in 0..n {
            let t0 = Instant::now();
            workload = Some(campaign::generate(&scale.spec, &ctx.tracer, None));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        workload
    };
    let workload = set_up(scale.setups.div_ceil(3)).expect("at least one set-up");

    let timed = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut models: Option<Vec<HeldOutModel>> = None;
    let mut held_out = HeldOut::default();
    while passes.is_empty() || timed.elapsed().as_secs_f64() < ctx.seconds {
        let i = passes.len() as u64;
        let mut p =
            if ctx.traced() { traced_pass(ctx, scale, i) } else { untraced_pass(scale, ctx.seed) };
        let feats = std::mem::take(&mut p.feats);
        let models = models.get_or_insert_with(|| {
            let (m, same) = held_out_models(&feats, &per_edge_for(scale, ctx.seed), &p.fitted);
            out.check("held-out models score exactly the pass's per-edge results", same);
            m
        });
        drop(feats);
        held_out.sweep(models);
        passes.push(p);
        out.attempted += 1;
        set_up(scale.setups / 12);
    }
    let models = models.expect("one pass");
    while held_out.sweeps < MIN_SWEEPS {
        held_out.sweep(&models);
    }
    let last = passes.last().expect("one pass");
    let (mut pred, mut expl) = held_out.fastest();
    let folds = held_out.folds;

    let same =
        passes.iter().all(|p| p.digest == last.digest && p.mdape.to_bits() == last.mdape.to_bits());
    out.check("every pass gives the same log digest and MdAPE", same);
    out.check(
        "one record per generated request, one feature row per record; every transfer ends after it starts",
        passes.iter().all(|p| p.features_ok && p.records == workload.requests.len()),
    );
    out.check("at least one edge fitted", !last.fitted.is_empty());
    out.check("held-out answers equal predict_row; explanations fold bitwise", folds);
    if scale.reference_checks {
        let (digest, mdape) = golden();
        let diff = digest.diff(&last.digest);
        out.check("log digest matches the stored seed-2017 digest", diff.is_empty());
        out.notes.extend(diff.into_iter().take(5).map(|d| format!("digest diff: {d}")));
        out.check(
            format!("median per-edge GBDT MdAPE below {MDAPE_GUARD_PCT}%"),
            last.mdape < MDAPE_GUARD_PCT,
        );
        if ctx.seed == DEFAULT_SEED {
            out.check(
                "MdAPE reproduces the value stored for run seed 2017",
                mdape.to_bits() == last.mdape.to_bits(),
            );
        }
    }
    out.failed = passes.iter().filter(|p| p.digest != last.digest).count() as u64;

    let rates: Vec<f64> = passes.iter().map(|p| p.records as f64 / p.wall_s).collect();
    let records_per_s = median(&rates);
    let pred_sum = Summary::of(&mut pred);
    let expl_sum = Summary::of(&mut expl);
    let setup_med = median(&setup_s);
    let rss = peak_rss_mb();
    out.e2e.insert("setup_s", setup_med);
    out.e2e.insert("throughput_per_s", records_per_s);
    out.e2e.insert("predict_p50_us", pred_sum.p50);
    out.e2e.insert("peak_rss_mb", rss);
    for (k, v) in [
        ("setup_s", setup_med),
        ("predict_p50_us", pred_sum.p50),
        ("predict_p99_us", pred_sum.p99),
        ("explain_p99_us", expl_sum.p99),
        ("records_per_s", records_per_s),
        ("mdape_pct", last.mdape),
        ("peak_rss_mb", rss),
    ] {
        out.reported.insert(k, v);
    }
    for p in &passes {
        out.notes.push(format!(
            "pass: {} records in {:.3} s (sim {:.3} s, {} events, {} reallocations; features {:.3} s; fit {:.3} s), {} edges, MdAPE {:.4}%, digest {:016x}",
            p.records,
            p.wall_s,
            p.sim_s,
            p.events,
            p.reallocations,
            p.features_s,
            p.fit_s,
            p.fitted.len(),
            p.mdape,
            p.digest.hash()
        ));
    }
    out.notes.push(format!("held-out predict_row {}", pred_sum.describe("us")));
    out.notes.push(format!("held-out explain_row_into {}", expl_sum.describe("us")));

    if ctx.traced() {
        let l = &mut out.layer;
        let walls: Vec<f64> = last.shards.iter().map(|s| s.wall_s).collect();
        let max = walls.iter().copied().fold(0.0, f64::max);
        let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
        let events = last.events;
        let realloc: f64 = last.shards.iter().map(|s| s.stats.realloc_time_s).sum();
        l.insert("workload.generate_s", median(&ctx.tracer.durations_s("workload.generate")));
        l.insert("sim.shard_s.max", max);
        l.insert("sim.shard_s.p50", median(&walls));
        l.insert("sim.straggler_ratio", if mean > 0.0 { max / mean } else { 0.0 });
        l.insert("sim.events", events as f64);
        l.insert("sim.reallocations", last.reallocations as f64);
        l.insert("sim.events_per_s", events as f64 / last.sim_s);
        l.insert("sim.realloc_share", realloc / walls.iter().sum::<f64>().max(1e-12));
        l.insert(
            "sim.tail_days",
            last.shards.iter().map(|s| s.tail_s).fold(0.0, f64::max) / 86_400.0,
        );
        l.insert("features.extract_s", last.features_s);
        l.insert("model.fit_s", last.fit_s);
        let edge_max = ctx.tracer.durations_s("model.fit_edge").into_iter().fold(0.0, f64::max);
        l.insert("model.fit_edge_s.max", edge_max);
        l.insert("ml.fit_rows_per_s", last.rows_fitted as f64 / last.fit_s);
        l.insert("model.predict_ns_per_row", pred_sum.p50 * 1e3);
        l.insert("model.explain_ns_per_row", expl_sum.p50 * 1e3);
        l.insert("model.mdape_pct", last.mdape);
        l.insert("traced.throughput_per_s", records_per_s);
        l.insert("traced.predict_p50_us", pred_sum.p50);
        for (i, s) in last.shards.iter().enumerate() {
            out.notes.push(format!(
                "shard {i}: {:.3} s, {} events, {} reallocations, {} records, tail {:.2} days",
                s.wall_s,
                s.stats.events,
                s.stats.reallocations,
                s.records,
                s.tail_s / 86_400.0
            ));
        }
    }
    out
}
