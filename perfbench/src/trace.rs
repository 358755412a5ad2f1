//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a layer; nothing
//! inside the program is instrumented.  A span has a name, a start and an end (nanoseconds from
//! the tracer's epoch), the span that was open when it began (its parent), and the op it belongs
//! to, so the spans of one frame, query or request share an identifier.  Spans stay in memory
//! until [`Tracer::write`] writes them out as JSON lines when the run ends.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub op: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, closed by [`Tracer::end`].
#[must_use]
#[derive(Debug)]
pub struct Open(usize);

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Tracer {
            epoch,
            thread,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            op,
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(id as usize)
    }

    /// Closes a span and returns its duration in milliseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.0];
        span.end_ns = end_ns;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(open.0 as u32), "spans close in LIFO order");
        span.duration_ns() as f64 * 1e-6
    }

    /// Records a span that was timed elsewhere (e.g. derived from a queue's own timestamps).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            op,
            thread: self.thread,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.timed(name, op, f).0
    }

    /// Runs `f` inside a span and also returns the span's duration in milliseconds.
    pub fn timed<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name, op);
        let result = f();
        (result, self.end(open))
    }

    /// Durations in milliseconds of every span with the given name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.durations(name, 1e-6)
    }

    /// Durations in microseconds of every span with the given name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.durations(name, 1e-3)
    }

    fn durations(&self, name: &str, scale: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 * scale)
            .collect()
    }

    /// Moves another thread's spans into this tracer (ids are renumbered).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|span| Span {
            id: span.id + offset,
            parent: span.parent.map(|parent| parent + offset),
            ..span
        }));
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |parent| parent.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"op\": {}, \"thread\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                span.id, span.name, span.op, span.thread, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Writes the run's spans under `dir` and says where.
pub fn save(tracer: &Tracer, dir: &Path, workload: &str, seed: u64) -> Result<(), String> {
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    tracer
        .write(&path)
        .map_err(|error| format!("writing {}: {error}", path.display()))?;
    println!(
        "trace: {} spans written to {}",
        tracer.spans.len(),
        path.display()
    );
    Ok(())
}
