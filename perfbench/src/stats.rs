//! Exact-sample statistics and metric-name rules.
//!
//! Latencies are kept as exact per-request samples rather than in a
//! bucketed histogram: power-of-two buckets can be off by up to 2× at a
//! quantile, which cannot resolve a 10% change.

/// Nearest-rank quantile of an ascending-sorted sample: the smallest
/// value with at least `q·n` samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = rank_of(q, sorted.len());
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// 1-based nearest rank `⌈q·n⌉`, tolerant of `q·n` landing a hair above
/// an integer through decimal-to-binary rounding (0.99 · 2000).
fn rank_of(q: f64, n: usize) -> usize {
    (q * n as f64 - 1e-9).ceil() as usize
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5).unwrap_or(f64::NAN)
}

/// The highest of the standard reporting percentiles that still has at
/// least ten samples strictly beyond its rank, for `n` samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.95, 0.9, 0.75, 0.5].into_iter().find(|&q| n >= 10 + rank_of(q, n))
}

/// A timing sample reduced for reporting: the median, a named quantile,
/// the highest quantile the sample supports, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// `(q, value)` for [`supported_tail`]; `None` under 20 samples.
    pub tail: Option<(f64, f64)>,
    /// [`chunked_p99`] of the samples in the order given.
    pub chunked_p99: f64,
}

impl Summary {
    /// Summarise exact samples given in due order (sorted in place).
    pub fn of(samples: &mut [f64]) -> Summary {
        let chunked_p99 = chunked_p99(samples);
        samples.sort_by(f64::total_cmp);
        let q = |p| nearest_rank(samples, p).unwrap_or(f64::NAN);
        Summary {
            n: samples.len(),
            p50: q(0.5),
            p90: q(0.9),
            p99: q(0.99),
            tail: supported_tail(samples.len()).map(|t| (t, q(t))),
            chunked_p99,
        }
    }

    /// One human-readable line: `p50 …, p99 …, p99.9 … (n = …)`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!(", p{} {v:.1}{unit}", trim_pct(q)),
            None => String::new(),
        };
        format!(
            "p50 {:.1}{unit}, p90 {:.1}{unit}, p99 {:.1}{unit}{tail}, chunked p99 {:.1}{unit} (n = {})",
            self.p50, self.p90, self.p99, self.chunked_p99, self.n
        )
    }
}

/// The p99 a run typically sees: samples (in due-time order) are cut
/// into consecutive chunks of at least [`CHUNK_MIN`] samples (at most
/// [`CHUNKS_MAX`] chunks), each chunk's nearest-rank p99 is taken, and
/// the median of those is returned. One scheduling stall on the shared
/// host moves one or two chunks, not the result; a slower request path
/// moves every chunk. `NaN` when there are fewer than `CHUNK_MIN` samples.
pub fn chunked_p99(in_due_order: &[f64]) -> f64 {
    let n = in_due_order.len();
    if n < CHUNK_MIN {
        return f64::NAN;
    }
    let chunks = (n / CHUNK_MIN).clamp(1, CHUNKS_MAX);
    let per = n / chunks;
    let p99s: Vec<f64> = (0..chunks)
        .map(|c| {
            let end = if c + 1 == chunks { n } else { (c + 1) * per };
            let mut v = in_due_order[c * per..end].to_vec();
            v.sort_by(f64::total_cmp);
            nearest_rank(&v, 0.99).expect("chunk is not empty")
        })
        .collect();
    median(&p99s)
}

/// Smallest chunk for [`chunked_p99`]: ten samples beyond its p99.
pub const CHUNK_MIN: usize = 1000;
/// Most chunks [`chunked_p99`] cuts a sample into.
pub const CHUNKS_MAX: usize = 20;

fn trim_pct(q: f64) -> String {
    let s = format!("{:.2}", q * 100.0);
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Metric names: start with a letter or digit, at most 64 characters of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: at most 16 characters of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 0.991), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Odd length: the middle element, never an interpolation.
        assert_eq!(nearest_rank(&[1.0, 2.0, 10.0], 0.5), Some(2.0));
        assert_eq!(median(&[10.0, 1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(100_000), Some(0.9999));
        for n in [20usize, 57, 999, 1000, 1001, 12_345, 250_000] {
            let q = supported_tail(n).unwrap();
            let beyond = n - rank_of(q, n);
            assert!(beyond >= 10, "n = {n}, q = {q}, beyond = {beyond}");
        }
    }

    #[test]
    fn summary_is_exact_on_samples() {
        let mut s: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let sum = Summary::of(&mut s);
        assert_eq!(sum.n, 2000);
        assert_eq!(sum.p50, 999.0);
        assert_eq!(sum.p99, 1979.0);
        assert_eq!(sum.tail, Some((0.99, 1979.0)));
        let mut few = vec![3.0; 50];
        assert_eq!(Summary::of(&mut few).tail, Some((0.75, 3.0)));
    }

    #[test]
    fn chunked_p99_ignores_one_stalled_chunk() {
        // 10 chunks of 1000: flat 100 µs, except one chunk where a stall
        // pushed 15% of its requests to 5 ms — enough to move the p99 of
        // the whole sample, but not the chunked one.
        let mut v = vec![100.0; 10_000];
        for x in v[3_000..3_150].iter_mut() {
            *x = 5_000.0;
        }
        assert_eq!(chunked_p99(&v), 100.0);
        let mut whole = v.clone();
        assert_eq!(Summary::of(&mut whole).p99, 5_000.0);
        // A slower path moves every chunk.
        let slow: Vec<f64> = (0..10_000).map(|i| if i % 50 == 0 { 900.0 } else { 100.0 }).collect();
        assert_eq!(chunked_p99(&slow), 900.0);
        assert!(chunked_p99(&v[..999]).is_nan());
        // Chunk count is capped; the tail chunk takes the remainder.
        assert_eq!(chunked_p99(&vec![7.0; 100_123]), 7.0);
    }

    #[test]
    fn metric_names_follow_the_rules() {
        for ok in ["setup_s", "sim.shard_s.max", "gen.late_us.p99", "9lives", "a-b_c.d"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".lead", "sp ace", "sla/sh", "pct%", long.as_str(), "é"] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB/s", "ns"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-per-thing", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
