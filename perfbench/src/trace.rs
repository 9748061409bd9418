//! In-memory span recording for the traced run.
//!
//! The benchmark records one span around each call it makes into a layer
//! of the program: a name, the layer, start and end, the parent span and
//! the request the call belongs to. Spans stay in memory and are written
//! out as JSON lines when the run ends. A layer's self time is the time
//! its spans cover minus the part of that time their child spans cover.

use std::time::Instant;

/// The program layers the traced run attributes time to, plus `Bench`
/// for the benchmark's own bookkeeping between calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own code between calls (request roots).
    Bench,
    /// `noc-cli` option handling and request building.
    Cli,
    /// `noc-service`: protocol decode and job execution.
    Service,
    /// `noc-search` strategies.
    Search,
    /// `noc-mapping` objectives.
    Mapping,
    /// `noc-energy`.
    Energy,
    /// `noc-sim`.
    Sim,
    /// `noc-model` route providers.
    Model,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Bench,
        Layer::Cli,
        Layer::Service,
        Layer::Search,
        Layer::Mapping,
        Layer::Energy,
        Layer::Sim,
        Layer::Model,
    ];

    /// Lower-case layer name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Cli => "cli",
            Layer::Service => "service",
            Layer::Search => "search",
            Layer::Mapping => "mapping",
            Layer::Energy => "energy",
            Layer::Sim => "sim",
            Layer::Model => "model",
        }
    }
}

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer the call enters.
    pub layer: Layer,
    /// Request (invocation or job) the call serves.
    pub request: usize,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span store with an implicit parent stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    clock_ns: f64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            clock_ns: clock_read_ns(),
        }
    }

    /// Cost of one clock read in nanoseconds, measured when the tracer
    /// was made; timing wrappers subtract it per read they add.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The tracer's clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span of `layer` named `name`, nested under the
    /// innermost open span.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        request: usize,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            request,
            parent: self.open.last().copied(),
            start: self.now(),
            end: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Adds a finished span recorded elsewhere (for example by a timing
    /// wrapper the program calls into) under `parent`.
    pub fn push(
        &mut self,
        layer: Layer,
        name: &'static str,
        request: usize,
        parent: Option<SpanId>,
        start: u64,
        end: u64,
    ) {
        self.spans.push(Span {
            name,
            layer,
            request,
            parent,
            start,
            end,
        });
    }

    /// Id the next span will get.
    pub fn next_id(&self) -> SpanId {
        self.spans.len()
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name,
                s.layer.name(),
                s.request,
                s.start,
                s.end
            ));
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Median cost of one `Instant::now()` over a few batches, in ns.
fn clock_read_ns() -> f64 {
    const READS: u32 = 20_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    crate::stats::median(&batches)
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(span.end));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, in [`Layer::ALL`] order.
pub fn layer_self_times(spans: &[Span]) -> Vec<(Layer, u64)> {
    let selfs = self_times(spans);
    Layer::ALL
        .iter()
        .map(|&layer| {
            let total = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.layer == layer)
                .map(|(_, &t)| t)
                .sum();
            (layer, total)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name: "t",
            layer,
            request: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(Layer::Bench, None, 0, 100),
            // Two overlapping children cover 10..40 (30 ns), a third
            // 50..60, and one sticks out past the parent's end.
            span(Layer::Search, Some(0), 10, 30),
            span(Layer::Search, Some(0), 20, 40),
            span(Layer::Energy, Some(0), 50, 60),
            span(Layer::Sim, Some(0), 90, 120),
            // A grandchild only reduces its own parent.
            span(Layer::Mapping, Some(1), 12, 18),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 30 - 10 - 10);
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[5], 6);
        let by_layer = layer_self_times(&spans);
        let get = |l: Layer| by_layer.iter().find(|(k, _)| *k == l).unwrap().1;
        assert_eq!(get(Layer::Bench), 50);
        assert_eq!(get(Layer::Search), 34);
        assert_eq!(get(Layer::Mapping), 6);
        assert_eq!(get(Layer::Sim), 30);
        assert_eq!(get(Layer::Cli), 0);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut tracer = Tracer::new();
        tracer.span(Layer::Bench, "request", 3, |t| {
            t.span(Layer::Cli, "load", 3, |_| ());
            t.span(Layer::Search, "run", 3, |t| {
                t.span(Layer::Mapping, "cost", 3, |_| ());
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.end >= s.start && s.request == 3));
        assert_eq!(tracer.to_json_lines().lines().count(), 4);
    }
}
