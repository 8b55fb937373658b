//! The campaign pipeline, run through the library or decomposed into its
//! public pieces.
//!
//! Every workload simulates the same *world*: `CampaignSpec` with the
//! repository's standard seed, [`WORLD_SEED`]. Its log is therefore fixed
//! and its digest is checked on every run; the run seed varies what is
//! drawn from the log (train/test splits, request plans). Different
//! random fleets differ far more in size and load than any change a later
//! commit would make, so a fixed world is what lets two commits be
//! compared.
//!
//! Untraced runs call the library: [`log`] is `CampaignSpec::simulate`
//! and `campaign-fit` fits with `wdt_model::run_per_edge`. Traced runs
//! need per-shard wall time, per-shard engine counters and per-edge fit
//! times, which the library merges away, so they run [`simulate`] and
//! [`fit_edges`] instead: the same public calls in the same order, which
//! the tests below pin to the library's output.

use crate::trace::Tracer;
use rayon::prelude::*;
use std::time::Instant;
use wdt_bench::CampaignSpec;
use wdt_features::{eligible_edges, threshold_filter, TransferFeatures};
use wdt_model::{build_dataset, EvalReport, FittedModel, ModelKind, PerEdgeConfig};
use wdt_sim::{SimConfig, SimStats, Simulator};
use wdt_types::{EdgeId, SeedSeq, TransferRecord, TransferRequest};
use wdt_workload::Workload;

/// The repository's standard seed: the fleet, requests and simulator
/// streams every workload simulates.
pub const WORLD_SEED: u64 = 2017;

/// The spec's log, from `CampaignSpec::simulate`, in a `sim.campaign`
/// span. Traced runs also time the workload generation the call does
/// inside (a second, separate generation), for `workload.generate_s`.
pub fn log(spec: &CampaignSpec, tracer: &Tracer, parent: Option<u64>) -> Vec<TransferRecord> {
    if tracer.enabled() {
        generate(spec, tracer, parent);
    }
    tracer.span("sim.campaign", parent, 0, |_| spec.simulate().records)
}

/// One simulated time shard.
#[derive(Debug, Clone)]
pub struct ShardRun {
    pub wall_s: f64,
    pub stats: SimStats,
    pub records: usize,
    /// Seconds the last completion ran past the shard's arrival window.
    pub tail_s: f64,
}

/// A simulated campaign: the merged log plus per-shard measurements.
pub struct SimRun {
    pub records: Vec<TransferRecord>,
    pub shards: Vec<ShardRun>,
}

/// Generate the spec's workload inside a `workload.generate` span.
pub fn generate(spec: &CampaignSpec, tracer: &Tracer, parent: Option<u64>) -> Workload {
    tracer.span("workload.generate", parent, 0, |_| spec.workload())
}

/// `CampaignSpec::simulate` on an already generated `workload`, shard by
/// shard on rayon's pool, keeping each shard's wall time and counters.
pub fn simulate(
    spec: &CampaignSpec,
    workload: &Workload,
    tracer: &Tracer,
    parent: Option<u64>,
) -> SimRun {
    let runs = spec.runs.max(1);
    let window = spec.days * 86_400.0 / runs as f64;
    let mut shards: Vec<Vec<TransferRequest>> = vec![Vec::new(); runs];
    for req in &workload.requests {
        let idx =
            if window > 0.0 { ((req.submit.as_secs() / window) as usize).min(runs - 1) } else { 0 };
        shards[idx].push(req.clone());
    }
    let outs: Vec<(ShardRun, Vec<TransferRecord>)> = shards
        .par_iter()
        .enumerate()
        .map(|(run, requests)| {
            tracer.span("sim.shard", parent, run as u64, |_| {
                let t0 = Instant::now();
                let root = SeedSeq::new(spec.seed);
                let seed = SeedSeq::new(root.derive_indexed("campaign-run", run as u64));
                let mut sim =
                    Simulator::new(workload.endpoints.clone(), SimConfig::default(), &seed);
                sim.add_default_background(spec.bg_per_endpoint, spec.bg_intensity);
                for req in requests {
                    sim.submit(req.clone());
                }
                let out = sim.run();
                let window_end = (run + 1) as f64 * window;
                let last = out.records.iter().map(|r| r.end.as_secs()).fold(0.0, f64::max);
                let shard = ShardRun {
                    wall_s: t0.elapsed().as_secs_f64(),
                    stats: out.stats,
                    records: out.records.len(),
                    tail_s: (last - window_end).max(0.0),
                };
                (shard, out.records)
            })
        })
        .collect();
    tracer.span("sim.merge", parent, 0, |_| {
        let mut records = Vec::new();
        let mut shards = Vec::new();
        for (shard, recs) in outs {
            records.extend(recs);
            shards.push(shard);
        }
        records.sort_by(|a, b| a.start.cmp(&b.start).then(a.id.cmp(&b.id)));
        SimRun { records, shards }
    })
}

/// What the traced fit of one edge keeps.
pub struct EdgeFit {
    pub edge: EdgeId,
    pub xgb_eval: EvalReport,
    /// Significance of each explanation model's kept features (LR, GBDT):
    /// computed because `run_one_edge` computes it, read only by the test
    /// that pins this decomposition to the library.
    #[allow(dead_code)]
    pub significance: [Vec<(String, f64)>; 2],
    /// Rows fitted across the edge's four models.
    pub rows_fitted: usize,
}

/// The work of `wdt_model::run_one_edge`: LR + GBDT prediction models on
/// a 70/30 split, scored on the 30%, and LR + GBDT explanation models on
/// all rows with their significance.
pub fn fit_edge(edge: EdgeId, feats: &[TransferFeatures], cfg: &PerEdgeConfig) -> Option<EdgeFit> {
    if feats.is_empty() {
        return None;
    }
    let data = build_dataset(feats, false);
    let (train, test) =
        data.split(cfg.train_frac, cfg.seed ^ edge.src.0 as u64 ^ (edge.dst.0 as u64) << 32);
    let lr = FittedModel::fit(&train, ModelKind::Linear, &cfg.fit)?;
    let xgb = FittedModel::fit(&train, ModelKind::Gbdt, &cfg.fit)?;
    let _ = lr.evaluate(&test);
    let xgb_eval = xgb.evaluate(&test);
    let explain = build_dataset(feats, true);
    let lr_explain = FittedModel::fit(&explain, ModelKind::Linear, &cfg.fit)?;
    let xgb_explain = FittedModel::fit(&explain, ModelKind::Gbdt, &cfg.fit)?;
    Some(EdgeFit {
        edge,
        xgb_eval,
        significance: [lr_explain.significance(), xgb_explain.significance()],
        rows_fitted: 2 * train.x.len() + 2 * explain.x.len(),
    })
}

/// The transfers of `edge` that `run_per_edge` fits on.
pub fn edge_features(filtered: &[TransferFeatures], edge: EdgeId) -> Vec<TransferFeatures> {
    filtered.iter().filter(|f| f.edge == edge).cloned().collect()
}

/// `wdt_model::run_per_edge`'s edge selection and parallel fitting, with
/// an `model.fit_edge` span per edge.
pub fn fit_edges(
    features: &[TransferFeatures],
    cfg: &PerEdgeConfig,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Vec<EdgeFit> {
    let filtered = threshold_filter(features, cfg.threshold);
    let mut edges = eligible_edges(features, cfg.threshold, cfg.min_transfers);
    edges.truncate(cfg.max_edges);
    let fits: Vec<Option<EdgeFit>> = edges
        .par_iter()
        .enumerate()
        .map(|(i, &(edge, _))| {
            tracer.span("model.fit_edge", parent, i as u64, |_| {
                fit_edge(edge, &edge_features(&filtered, edge), cfg)
            })
        })
        .collect();
    fits.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignSpec {
        CampaignSpec { seed: 11, days: 2.0, heavy_edges: 3, sparse_edges: 10, ..Default::default() }
    }

    #[test]
    fn decomposed_campaign_equals_library_campaign() {
        let spec = tiny();
        let tracer = Tracer::new(true);
        let w = generate(&spec, &tracer, None);
        let run = simulate(&spec, &w, &tracer, None);
        let lib = spec.simulate();
        assert_eq!(run.records, lib.records);
        let events: u64 = run.shards.iter().map(|s| s.stats.events).sum();
        assert_eq!(events, lib.stats.events);
        let realloc: u64 = run.shards.iter().map(|s| s.stats.reallocations).sum();
        assert_eq!(realloc, lib.stats.reallocations);
        assert_eq!(run.shards.len(), spec.runs);
        assert_eq!(tracer.durations_s("sim.shard").len(), spec.runs);
        assert_eq!(log(&spec, &Tracer::new(false), None), lib.records);
    }

    /// The stored seed-2017 digest is the library's own campaign.
    #[test]
    fn stored_digest_is_the_library_campaign() {
        let spec = crate::campaign_fit::Scale::full().spec;
        assert_eq!(spec.seed, WORLD_SEED);
        let lib = wdt_check::TraceDigest::from_records(&spec.simulate().records);
        let (stored, _) = crate::campaign_fit::golden();
        assert_eq!(stored.diff(&lib), Vec::<String>::new());
        assert_eq!(stored.hash(), lib.hash());
    }

    #[test]
    fn edge_fits_match_run_per_edge() {
        let spec = CampaignSpec { days: 3.0, heavy_edges: 4, sparse_edges: 10, ..tiny() };
        let log = spec.simulate().records;
        let feats = wdt_features::extract_features(&log);
        let mut cfg = PerEdgeConfig { min_transfers: 60, max_edges: 3, ..Default::default() };
        cfg.fit.gbdt.n_rounds = 30;
        let lib = wdt_model::run_per_edge(&feats, &cfg);
        let ours = fit_edges(&feats, &cfg, &Tracer::new(false), None);
        assert!(!ours.is_empty());
        assert_eq!(ours.len(), lib.len());
        for (a, b) in ours.iter().zip(&lib) {
            assert_eq!(a.xgb_eval, b.xgb);
            let kept = |full: &[(String, Option<f64>)]| -> Vec<(String, f64)> {
                full.iter().filter_map(|(n, v)| Some((n.clone(), (*v)?))).collect()
            };
            let mut lr = a.significance[0].clone();
            let mut xgb = a.significance[1].clone();
            let order = |v: &mut Vec<(String, f64)>, full: &[(String, Option<f64>)]| {
                v.sort_by_key(|(n, _)| full.iter().position(|(m, _)| m == n));
            };
            order(&mut lr, &b.lr_significance);
            order(&mut xgb, &b.xgb_importance);
            assert_eq!(lr, kept(&b.lr_significance));
            assert_eq!(xgb, kept(&b.xgb_importance));
        }
    }
}
