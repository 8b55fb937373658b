//! The repository benchmark. One workload per process:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-open|campaign-fit|ingest-swap --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`). Exits
//! non-zero when a correctness check fails, an operation fails, or the
//! watchdog stops an overrunning run. See NOTES.md.

mod campaign;
mod campaign_fit;
mod gen;
mod ingest_swap;
mod report;
mod serve_open;
mod stats;
mod trace;

use report::{Ctx, Outcome};
use std::path::PathBuf;
use std::time::Duration;

pub const WORKLOADS: [&str; 3] = ["serve-open", "campaign-fit", "ingest-swap"];

/// Wall-clock budget of one run beyond its measured seconds; a run still
/// going past it is stopped and reported as failed.
const WATCHDOG_SLACK_S: f64 = 120.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: 2017,
        seconds: 10.0,
        trace: false,
        write_golden: false,
    };
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = val()?,
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--write-golden" => args.write_golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// Where the benchmark may write: the build directory inside the checkout.
fn build_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
}

fn run_workload(ctx: &Ctx, workload: &str) -> Outcome {
    match workload {
        "serve-open" => serve_open::run(ctx, &serve_open::Scale::full()),
        "campaign-fit" => campaign_fit::run(ctx, &campaign_fit::Scale::full()),
        "ingest-swap" => ingest_swap::run(ctx, &ingest_swap::Scale::full()),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// Compare this traced run's own end-to-end numbers with the untraced
/// run of the same workload and seed, if one left its result behind.
fn overhead_lines(results: &std::path::Path, out: &Outcome) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(results) else {
        return vec!["tracing overhead: no untraced result for this workload and seed yet".into()];
    };
    let untraced: std::collections::BTreeMap<String, f64> = text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect();
    [("throughput_per_s", "traced.throughput_per_s"), ("predict_p50_us", "traced.predict_p50_us")]
        .iter()
        .filter_map(|(e2e, traced)| {
            let u = *untraced.get(*e2e)?;
            let t = *out.layer.get(traced)?;
            Some(format!(
                "tracing overhead: {e2e} untraced {u:.3}, traced {t:.3} ({:+.2}%)",
                (t / u - 1.0) * 100.0
            ))
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    assert!(report::catalogue_is_valid(), "metric catalogue breaks the naming rules");
    let build = build_dir();
    let work =
        build.join("perfbench-work").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::create_dir_all(&work);

    // The watchdog: an overrunning run is reported as failed, never dropped.
    let budget = args.seconds + WATCHDOG_SLACK_S;
    {
        let work = work.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs_f64(budget));
            let out = Outcome { attempted: 1, failed: 1, ..Default::default() };
            println!("perfbench: watchdog stopped the run after {budget:.0} s");
            println!("{}", out.result_json(args.trace));
            let _ = std::fs::remove_dir_all(&work);
            std::process::exit(3);
        });
    }

    let ctx = Ctx::new(args.seed, args.seconds, args.trace, work.clone());
    if args.write_golden {
        print!("{}", campaign_fit::golden_text(&campaign_fit::Scale::full(), args.seed));
        let _ = std::fs::remove_dir_all(&work);
        return;
    }

    let out = run_workload(&ctx, &args.workload);
    let results =
        build.join("perfbench-results").join(format!("{}-seed{}.txt", args.workload, args.seed));
    let mut lines = out.human(&args.workload);
    if args.trace {
        let spans = ctx.tracer.spans();
        let path = build
            .join("perfbench-traces")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        match ctx.tracer.write_json(&path) {
            Ok(()) => lines.push(format!("  {} spans written to {}", spans.len(), path.display())),
            Err(e) => lines.push(format!("  could not write spans: {e}")),
        }
        for (name, s) in trace::self_times(&spans) {
            lines.push(format!("  self time {name:<22} {s:>10.4} s"));
        }
        for (name, _) in report::PER_LAYER {
            lines.push(format!(
                "  layer {name:<28} {:>14.4}",
                out.layer.get(name).copied().unwrap_or(0.0)
            ));
        }
        lines.extend(overhead_lines(&results, &out).into_iter().map(|l| format!("  {l}")));
    } else {
        let text: String = out.e2e.iter().map(|(k, v)| format!("{k} {v:?}\n")).collect();
        let _ = std::fs::create_dir_all(results.parent().expect("results dir"));
        let _ = std::fs::write(&results, text);
    }
    let _ = std::fs::remove_dir_all(&work);
    for l in lines {
        println!("{l}");
    }
    println!("{}", out.result_json(args.trace));
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod smoke {
    //! Tiny-size runs of each workload through the same code paths.
    use super::*;

    fn ctx(name: &str, trace: bool) -> Ctx {
        let work =
            std::env::temp_dir().join(format!("perfbench-smoke-{name}-{}", std::process::id()));
        Ctx::new(5, 1.0, trace, work)
    }

    fn assert_complete(out: &Outcome, trace: bool) {
        for (name, ok) in &out.checks {
            assert!(ok, "check failed: {name}");
        }
        assert!(out.correct(), "attempted {} failed {}", out.attempted, out.failed);
        let line = out.result_json(trace);
        let v = wdt_types::JsonValue::parse(&line).expect("result line is JSON");
        let list = if trace { report::PER_LAYER } else { report::END_TO_END };
        for (name, _) in list {
            let value = v.field("metrics").unwrap().field(name).unwrap().field("value").unwrap();
            assert!(value.as_f64().unwrap().is_finite(), "{name}");
        }
        if !trace {
            for (name, _) in report::END_TO_END {
                assert!(out.e2e[name] > 0.0, "{name} must be positive");
            }
        }
    }

    #[test]
    fn serve_open_tiny() {
        let c = ctx("serve", true);
        let out = serve_open::run(&c, &serve_open::Scale::tiny());
        assert_complete(&out, true);
        assert!(out.layer["http.parse_ns_per_req"] > 0.0);
        let _ = std::fs::remove_dir_all(&c.work);
    }

    #[test]
    fn campaign_fit_tiny() {
        for trace in [false, true] {
            let c = ctx("campaign", trace);
            let out = campaign_fit::run(&c, &campaign_fit::Scale::tiny());
            assert_complete(&out, trace);
        }
    }

    #[test]
    fn ingest_swap_tiny() {
        let c = ctx("ingest", true);
        let out = ingest_swap::run(&c, &ingest_swap::Scale::tiny());
        assert_complete(&out, true);
        assert!(out.layer["retrain.refits"] >= 2.0);
        let _ = std::fs::remove_dir_all(&c.work);
    }
}
