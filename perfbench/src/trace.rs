//! Spans recorded from the benchmark's own code, around its calls into
//! each layer's public functions.
//!
//! Each thread owns a [`Recorder`] (no shared lock on the hot path);
//! [`Trace::merge`] joins them when the traced phase ends. A span's
//! layer is its name up to the first `.`; a span's self time is its
//! duration minus its children's (children nest strictly on one
//! thread, so they never overlap). Spans named `bench.*` are the
//! benchmark's own glue: their self time is the part of the traced
//! wall time no layer accounts for.

use irlt_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Job or request index the span belongs to.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub thread: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Recorder {
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: usize) -> Recorder {
        Recorder {
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans `f` opens become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let k = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            thread: self.thread,
        });
        self.stack.push(k);
        self.spans[k].start_ns = self.now_ns();
        let out = f(self);
        self.spans[k].end_ns = self.now_ns();
        self.stack.pop();
        out
    }

    /// Records a child of the innermost open span whose duration was
    /// measured elsewhere (the server-reported `wall_ms` of a request).
    /// It is placed at the end of the interval `[start_ns, end_ns]`.
    pub fn child(&mut self, name: &'static str, id: u64, start_ns: u64, end_ns: u64, dur_ns: u64) {
        self.spans.push(Span {
            name,
            id,
            start_ns: end_ns.saturating_sub(dur_ns).max(start_ns),
            end_ns,
            parent: self.stack.last().copied(),
            thread: self.thread,
        });
    }
}

/// Runs `f` inside a span when a recorder is given, bare otherwise.
pub fn maybe_span<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(r) => r.span(name, id, |_| f()),
        None => f(),
    }
}

/// All spans of a traced phase.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

/// Self time of one layer.
pub struct LayerRow {
    pub layer: &'static str,
    pub self_ns: u64,
    pub spans: usize,
}

impl Trace {
    pub fn merge(recorders: Vec<Recorder>) -> Trace {
        let mut spans = Vec::new();
        for r in recorders {
            let base = spans.len();
            spans.extend(r.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        Trace { spans }
    }

    /// Appends another trace's spans (parents re-indexed).
    pub fn extend(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Durations of every span with this name, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Σ duration of the root spans: the traced wall time, summed over
    /// the threads that did the work.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    pub fn layers(&self) -> Vec<LayerRow> {
        let own = self.self_ns();
        let mut by: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            let e = by.entry(s.layer()).or_default();
            e.0 += ns;
            e.1 += 1;
        }
        by.into_iter()
            .map(|(layer, (self_ns, spans))| LayerRow {
                layer,
                self_ns,
                spans,
            })
            .collect()
    }

    /// Share of the traced wall time that named layers (everything but
    /// the benchmark's own `bench.*` glue) account for.
    pub fn coverage(&self) -> f64 {
        let attributed: u64 = self
            .layers()
            .iter()
            .filter(|r| r.layer != "bench")
            .map(|r| r.self_ns)
            .sum();
        attributed as f64 / self.root_ns().max(1) as f64
    }

    pub fn layer_table_json(&self) -> Json {
        let root = self.root_ns().max(1) as f64;
        Json::Array(
            self.layers()
                .iter()
                .map(|r| {
                    Json::Object(vec![
                        ("layer".into(), Json::Str(r.layer.into())),
                        ("self_ms".into(), Json::Float(r.self_ns as f64 / 1e6)),
                        ("share".into(), Json::Float(r.self_ns as f64 / root)),
                        ("spans".into(), Json::Int(r.spans as i64)),
                    ])
                })
                .collect(),
        )
    }

    pub fn spans_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    Json::Object(vec![
                        ("name".into(), Json::Str(s.name.into())),
                        ("id".into(), Json::Int(s.id as i64)),
                        ("start_ns".into(), Json::Int(s.start_ns as i64)),
                        ("end_ns".into(), Json::Int(s.end_ns as i64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("thread".into(), Json::Int(s.thread as i64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_layers_sum_to_roots() {
        let mut r = Recorder::new(Instant::now(), 0);
        r.span("bench.worker", 0, |r| {
            r.span("opt.search", 1, |r| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                let (a, b) = (r.now_ns(), r.now_ns());
                r.child("core.apply", 1, a, b, 0);
            });
        });
        let t = Trace::merge(vec![r]);
        let total: u64 = t.layers().iter().map(|l| l.self_ns).sum();
        assert_eq!(total, t.root_ns());
        assert!(t.coverage() > 0.9, "{}", t.coverage());
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
