//! The benchmark-side span recorder.
//!
//! Spans are recorded around the benchmark's own calls into the program's public
//! functions (the program's internal instrumentation stays off), kept in memory, and
//! turned into per-layer numbers when the traced pass ends. A disabled recorder keeps
//! nothing, so untraced passes pay one branch per span.

use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.flow`.
    pub name: &'static str,
    /// Wall-clock duration in seconds.
    pub dur_s: f64,
    /// Counts and program-reported figures read at the span's end.
    pub attrs: Vec<(&'static str, f64)>,
}

/// An open span; pass it to [`Tracer::close`].
#[must_use]
pub struct Open {
    name: &'static str,
    started: Instant,
}

/// The recorder.
pub struct Tracer {
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span.
    pub fn open(&self, name: &'static str) -> Open {
        Open {
            name,
            started: Instant::now(),
        }
    }

    /// Closes `span`, attaching `attrs`.
    pub fn close(&self, span: Open, attrs: &[(&'static str, f64)]) {
        if !self.enabled {
            return;
        }
        let record = Span {
            name: span.name,
            dur_s: span.started.elapsed().as_secs_f64(),
            attrs: attrs.to_vec(),
        };
        self.spans.lock().expect("span list").push(record);
    }

    /// Every finished span named `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list")
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Total duration of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).iter().map(|s| s.dur_s).sum()
    }

    /// Sum of attribute `attr` over the spans named `name`.
    pub fn attr_sum(&self, name: &str, attr: &str) -> f64 {
        self.named(name)
            .iter()
            .flat_map(|s| s.attrs.iter())
            .filter(|(k, _)| *k == attr)
            .map(|(_, v)| v)
            .sum()
    }
}
