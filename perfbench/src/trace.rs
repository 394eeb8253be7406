//! In-memory span recorder for the traced run. Spans are taken around
//! calls into the program's public functions from this benchmark's own
//! code; nothing is recorded inside the program.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `name` is `layer::function`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split("::").next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Reserves a span id, for a span whose children are recorded before it
    /// ends.
    pub fn open(&self) -> (u64, Instant) {
        (self.next_id.fetch_add(1, Ordering::Relaxed), Instant::now())
    }

    /// Records a span opened with [`Self::open`], ending now.
    pub fn close(
        &self,
        (id, start): (u64, Instant),
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
    ) {
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        };
        self.spans.lock().expect("span log lock").push(span);
    }

    /// Runs `f` inside a span; `f` receives the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let opened = self.open();
        let out = f(opened.0);
        self.close(opened, name, parent, request);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Total wall time, in seconds, of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// Durations, in microseconds, of the spans called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-3)
            .collect()
    }

    /// Self time per layer in seconds: each span's duration minus the part
    /// of its interval covered by its children. Children running in
    /// parallel are merged before subtracting, so a layer's self time is
    /// thread time and can exceed wall time when its spans overlap.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut by_layer = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            *by_layer.entry(s.layer()).or_insert(0.0) += (s.duration_ns() - covered) as f64 * 1e-9;
        }
        by_layer
    }

    /// Writes every span as a tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                opt(s.parent),
                opt(s.request),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_coverage_merges_overlaps_and_clips() {
        let mut iv = vec![(10, 20), (15, 30), (40, 50), (95, 120)];
        assert_eq!(covered_ns(&mut iv, 0, 100), 20 + 10 + 5);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let t = Tracer::default();
        t.span("outer::run", None, None, |id| {
            t.span("inner::a", Some(id), Some(1), |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let by_layer = t.self_time_by_layer();
        assert!(by_layer["inner"] >= 0.02);
        assert!(by_layer["outer"] < by_layer["inner"]);
        assert_eq!(t.durations_us("inner::a").len(), 1);
    }
}
