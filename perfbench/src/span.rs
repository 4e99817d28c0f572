//! In-memory spans, written out when the run ends.

use crate::stats::obj;
use serde_json::Value as Json;
use std::time::Instant;

/// One timed interval: `parent` indexes the span that caused it, and
/// spans of one request share `req`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Span recorder with a fixed origin.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record `[start, end]`; returns its index for children.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let t0 = Instant::now();
        let out = f();
        let id = self.record(name, t0, Instant::now(), parent, req);
        (out, id)
    }

    /// Total self time per span name, in nanoseconds: each span's
    /// duration minus the part its children cover, with its count.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]);
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some((_, total, count)) => {
                    *total += own;
                    *count += 1;
                }
                None => out.push((s.name, own, 1)),
            }
        }
        out
    }

    /// Self time of `name` summed over its spans (ns).
    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_times()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, ns, _)| ns)
            .unwrap_or(0)
    }

    /// Append `other`'s spans, re-based on this recorder's origin.
    pub fn absorb(&mut self, other: Spans) {
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let base = self.spans.len();
        for mut s in other.spans {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    pub fn json(&self, limit: usize) -> Json {
        let rows: Vec<Json> = self
            .spans
            .iter()
            .take(limit)
            .enumerate()
            .map(|(i, s)| {
                obj(vec![
                    ("id", Json::from(i)),
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("req", Json::from(s.req)),
                ])
            })
            .collect();
        let written = rows.len();
        obj(vec![
            ("spans", Json::Array(rows)),
            ("total", Json::from(self.spans.len())),
            ("written", Json::from(written)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut s = Spans::new(t0);
        let p = s.record("outer", t0, t0 + Duration::from_nanos(100), None, 1);
        s.record(
            "inner",
            t0 + Duration::from_nanos(10),
            t0 + Duration::from_nanos(40),
            Some(p),
            1,
        );
        assert_eq!(s.self_ns("outer"), 70);
        assert_eq!(s.self_ns("inner"), 30);
    }
}
