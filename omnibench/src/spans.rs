//! In-memory span recorder for the staged (traced) replica.
//!
//! A span is `(name, start, end, parent, step)`. Names are
//! `<layer>.<operation>`; the layer is the crate the call lands in. Spans
//! nest by stack discipline on the single driver thread. A *probe* span
//! times the same inputs replayed through an inner layer's public door
//! after the opaque outer call returned (see `staged.rs`): it is recorded
//! as a child of that outer span so self-time subtraction charges the
//! outer layer only for what its children do not explain.
//!
//! Spans stay in memory until the run ends and are written as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Step (or refresh position) the span belongs to; spans of one
    /// pipeline cycle share it.
    pub step: u32,
    pub probe: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The crate the call landed in: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u32,
}

/// Cloneable handle; the scrape and delivery closures hold clones.
#[derive(Clone)]
pub struct Recorder {
    epoch: Instant,
    inner: Arc<Mutex<Inner>>,
}

/// Closes its span when dropped.
pub struct SpanGuard {
    rec: Recorder,
    id: usize,
}

impl SpanGuard {
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        let mut g = self.rec.lock();
        g.spans[self.id].end_ns = end;
        if let Some(pos) = g.open.iter().rposition(|&i| i == self.id) {
            g.open.remove(pos);
        }
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            inner: Arc::new(Mutex::new(Inner { spans: Vec::new(), open: Vec::new(), step: 0 })),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panicking holder leaves plain vectors behind: still consistent.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Every span opened from now on belongs to `step`.
    pub fn set_step(&self, step: u32) {
        self.lock().step = step;
    }

    /// Open a span under the innermost open span.
    pub fn enter(&self, name: &'static str) -> SpanGuard {
        self.open(name, None, false)
    }

    /// Open a probe span as a child of `parent` (a span that has already
    /// closed: the probe replays its inputs through an inner door).
    pub fn probe(&self, name: &'static str, parent: usize) -> SpanGuard {
        self.open(name, Some(parent), true)
    }

    /// Open a probe span with no parent: a measurement taken beside the
    /// run that explains no recorded call, so it is left out of every
    /// self-time sum.
    pub fn probe_detached(&self, name: &'static str) -> SpanGuard {
        self.open(name, None, true)
    }

    fn open(&self, name: &'static str, parent: Option<usize>, probe: bool) -> SpanGuard {
        let mut g = self.lock();
        let parent = if probe { parent } else { g.open.last().copied() };
        let id = g.spans.len();
        let step = g.step;
        g.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, step, probe });
        g.open.push(id);
        drop(g);
        // Stamp the start last so the bookkeeping above is not charged.
        let start = self.now_ns();
        self.lock().spans[id].start_ns = start;
        SpanGuard { rec: self.clone(), id }
    }

    /// Time `f` inside a span; returns the span id with the result.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (usize, T) {
        let guard = self.enter(name);
        let id = guard.id;
        let out = f();
        drop(guard);
        (id, out)
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

/// The noise-floor trace of several staged replicas. Replicas of one
/// `(workload, seed)` record the same spans in the same order, so span `i`
/// is a position like any other: its floor duration is the minimum over
/// replicas (see `series.rs`). Names, parents and start times are the
/// first replica's; `end_ns` becomes `start_ns` plus the floor duration.
/// A parent's floor is never below the sum of its nested children's.
pub fn floor_trace(replicas: &[Vec<Span>]) -> Result<Vec<Span>, String> {
    let Some((first, rest)) = replicas.split_first() else {
        return Err("no staged replica ran".to_string());
    };
    let mut floor = first.clone();
    for other in rest {
        let same = other.len() == first.len()
            && other.iter().zip(first).all(|(a, b)| (a.name, a.parent) == (b.name, b.parent));
        if !same {
            return Err(format!(
                "staged replicas recorded different spans ({} vs {})",
                other.len(),
                first.len()
            ));
        }
        for (f, o) in floor.iter_mut().zip(other) {
            f.end_ns = f.start_ns + f.dur_ns().min(o.dur_ns());
        }
    }
    Ok(floor)
}

/// Self time of every span: its duration minus the durations of its
/// direct children (probe children included), floored at zero.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.dur_ns();
        }
    }
    spans.iter().zip(child_sum).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}

/// Self time summed per layer, in nanoseconds (detached probes excluded).
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        if !(s.probe && s.parent.is_none()) {
            *out.entry(s.layer()).or_insert(0) += own;
        }
    }
    out
}

/// Total duration of the spans called `name`, and how many there were.
pub fn total_ns(spans: &[Span], name: &str) -> (u64, usize) {
    spans.iter().filter(|s| s.name == name).fold((0, 0), |(sum, n), s| (sum + s.dur_ns(), n + 1))
}

/// Durations of the spans called `name`, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
}

/// One JSON object per line: `{"id":0,"name":"loki.tick","start_ns":..}`.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"step":{},"probe":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.step, s.probe
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, step: 0, probe: false }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 { a 10..40 { a1 15..25 } , b 50..90 }
        let spans = vec![
            span("stack.root", 0, 100, None),
            span("loki.a", 10, 40, Some(0)),
            span("logql.a1", 15, 25, Some(1)),
            span("tsdb.b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let by_layer = self_ns_by_layer(&spans);
        assert_eq!(by_layer["stack"], 30);
        assert_eq!(by_layer["loki"], 20);
        assert_eq!(by_layer["logql"], 10);
        assert_eq!(by_layer["tsdb"], 40);
        // Self times partition the root exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn probe_children_lie_outside_the_parent_interval_and_still_subtract() {
        let mut probe = span("bus.fetch", 200, 230, Some(0));
        probe.probe = true;
        let spans = vec![span("bridge.log_pump", 0, 100, None), probe];
        assert_eq!(self_times_ns(&spans), vec![70, 30]);
    }

    #[test]
    fn floor_trace_takes_each_span_from_its_fastest_replica() {
        let a = vec![span("stack.step", 0, 100, None), span("loki.tick", 10, 60, Some(0))];
        let b = vec![span("stack.step", 5, 95, None), span("loki.tick", 20, 80, Some(0))];
        let floor = floor_trace(&[a.clone(), b]).unwrap();
        assert_eq!(floor.iter().map(Span::dur_ns).collect::<Vec<_>>(), vec![90, 50]);
        assert_eq!(floor[1].start_ns, 10, "layout is the first replica's");
        let diverged = vec![span("stack.step", 0, 1, None), span("loki.offload", 0, 1, Some(0))];
        assert!(floor_trace(&[a.clone(), diverged]).is_err());
        assert!(floor_trace(&[a, vec![]]).is_err());
        assert!(floor_trace(&[]).is_err());
    }

    #[test]
    fn children_longer_than_the_parent_floor_at_zero() {
        let spans = vec![span("bridge.x", 0, 10, None), span("bus.y", 20, 50, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn recorder_nests_by_stack_discipline_and_tags_steps() {
        let rec = Recorder::new();
        rec.set_step(7);
        let (outer, _) = rec.span("loki.outer", || {
            rec.span("logql.inner", || ());
        });
        rec.span("tsdb.sibling", || ());
        drop(rec.probe("bus.probe", outer));
        let spans = rec.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!((spans[3].parent, spans[3].probe), (Some(0), true));
        assert!(spans.iter().all(|s| s.step == 7 && s.end_ns >= s.start_ns));
        assert_eq!(spans[1].layer(), "logql");
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let spans = vec![span("loki.tick", 1, 5, None), span("loki.seal", 2, 3, Some(0))];
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = omni_json::parse(lines[1]).unwrap();
        assert_eq!(v.get("name").and_then(omni_json::Json::as_str), Some("loki.seal"));
        assert_eq!(v.get("parent").and_then(omni_json::Json::as_f64), Some(0.0));
    }
}
