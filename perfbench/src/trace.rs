//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! the crates' public functions; nothing inside the crates is touched.
//! A span carries its name, start and end (ns since the recorder was
//! created), its parent span and a shared group id (one per request,
//! shard or edge). Spans stay in memory until [`Tracer::write_json`].
//! When the tracer is disabled every call is a cheap no-op, so the
//! untraced run executes the same code.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// A finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder: disabled (no-op) or collecting.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU64,
}

/// An open span; [`Tracer::end`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    group: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: std::sync::atomic::AtomicU64::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under `parent`, in `group`.
    pub fn begin(&self, name: &'static str, parent: Option<u64>, group: u64) -> Open {
        if !self.enabled {
            return Open { id: 0, parent, group, name, start_ns: 0 };
        }
        let id = self.next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Open { id, parent, group, name, start_ns: self.now_ns() }
    }

    /// Close an open span and keep it.
    pub fn end(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            group: open.group,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span list poisoned by a panicking recorder").push(span);
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        group: u64,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        let open = self.begin(name, parent, group);
        let out = f(open.id());
        self.end(open);
        out
    }

    /// Every recorded span, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned by a panicking recorder").clone()
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans().iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * 1e-9).collect()
    }

    /// Keep a span whose times were taken elsewhere: `start_ns`/`end_ns`
    /// are relative to `base`.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        group: u64,
        base: Instant,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let off = base.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id = self.next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let span = Span { id, parent, group, name, start_ns: off + start_ns, end_ns: off + end_ns };
        self.spans.lock().expect("span list poisoned by a panicking recorder").push(span);
    }

    /// Write every span as a JSON array of objects.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let lines: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.id, s.group, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of its interval covered by its children (children's overlapping
/// intervals are merged first, so parallel children are not subtracted
/// twice).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let (mut cur_lo, mut cur_hi) = (0u64, 0u64);
            let mut any = false;
            for &(lo, hi) in kids.iter() {
                let (lo, hi) = (lo.max(s.start_ns), hi.min(s.end_ns));
                if hi <= lo {
                    continue;
                }
                if any && lo <= cur_hi {
                    cur_hi = cur_hi.max(hi);
                } else {
                    if any {
                        covered += cur_hi - cur_lo;
                    }
                    (cur_lo, cur_hi, any) = (lo, hi, true);
                }
            }
            if any {
                covered += cur_hi - cur_lo;
            }
        }
        *out.entry(s.name).or_default() += s.dur_ns().saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span { id, parent, group: 0, name, start_ns: a, end_ns: b }
    }

    #[test]
    fn self_time_subtracts_merged_child_cover() {
        let spans = vec![
            span(1, None, "root", 0, 1000),
            // Two overlapping parallel children cover [100, 600).
            span(2, Some(1), "kid", 100, 400),
            span(3, Some(1), "kid", 300, 600),
            // A grandchild is the kid's business, not the root's.
            span(4, Some(2), "leaf", 150, 250),
        ];
        let st = self_times(&spans);
        assert!((st["root"] - 500e-9).abs() < 1e-15);
        assert!((st["kid"] - (200e-9 + 300e-9)).abs() < 1e-15);
        assert!((st["leaf"] - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, 0, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.span("outer", None, 3, |id| t.span("inner", id, 3, |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }
}
