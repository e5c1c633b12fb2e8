//! Spans recorded by the benchmark around calls into the program's
//! layers, kept in memory and written out when the run ends.
//!
//! A span covers a run of consecutive calls into one layer (a chunk of
//! pushes, one batch line's conversions); `work_ns` is the sum of those
//! calls' own durations, which can be less than `end - start` when the
//! span interleaves calls into other layers.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: usize,
    /// The span this one ran inside.
    pub parent: Option<usize>,
    /// Layer function, `layer.operation`.
    pub name: &'static str,
    /// Start, relative to the run's start.
    pub start: Duration,
    /// End, relative to the run's start.
    pub end: Duration,
    /// Time spent inside the layer's calls.
    pub work: Duration,
    /// Calls (or events) the span covers.
    pub count: u64,
}

/// A per-thread span recorder sharing the run's clock.
pub struct Tracer {
    origin: Instant,
    next_id: usize,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose ids start at `first_id` (one range per thread).
    pub fn new(origin: Instant, first_id: usize) -> Tracer {
        Tracer {
            origin,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    /// Records a span from `start` to now whose work is its whole
    /// extent.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        count: u64,
    ) -> usize {
        let now = Instant::now();
        self.record(name, parent, start, now, now - start, count)
    }

    /// Records a span with explicit extent and work.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        work: Duration,
        count: u64,
    ) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start: start - self.origin,
            end: end - self.origin,
            work,
            count,
        });
        id
    }

    /// Reserves an id for a span recorded later with [`Tracer::close`],
    /// so children can name it as parent.
    pub fn open(&mut self) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records the span reserved as `id`.
    pub fn close(
        &mut self,
        id: usize,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        count: u64,
    ) {
        let now = Instant::now();
        self.spans.push(Span {
            id,
            parent,
            name,
            start: start - self.origin,
            end: now - self.origin,
            work: now - start,
            count,
        });
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Total work of the spans named `name`.
    pub fn work(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.work)
            .sum()
    }

    /// Total count of the spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start, s.id));
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work_ns\":{},\"count\":{}}}",
                s.id,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.work.as_nanos(),
                s.count
            )
            .map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())
    }
}
