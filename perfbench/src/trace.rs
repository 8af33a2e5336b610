//! Per-layer self times from the relational layer's profiler events.
//!
//! An [`OpEvent`] carries only its duration, so [`Sink`] stamps each event
//! on arrival and derives `start = arrival - nanos`. Events arrive when
//! their operation ends, so a parent always arrives after its children:
//! when an event arrives, every still-unparented span that ended after the
//! new event started is one of its children. A layer's self time is its
//! duration minus its children's.
//!
//! Two quirks of the event stream are absorbed here:
//! - Points-to nests fixpoints, so inner `fixpoint-round` events lie inside
//!   outer ones; raw sums would count them twice. Nesting does not.
//! - `Relation::compose_batch` and `Fixpoint::compose_rules` split one
//!   jointly measured batch evenly across their jobs, so N events with the
//!   same op and the same `nanos` arrive back to back. They are merged
//!   into one span of N times that length before nesting.
//!
//! Spans stay in memory; [`Sink::finish`] turns them into a [`Breakdown`]
//! once the traced call has returned.

use jedd_core::{OpEvent, ProfileSink, Universe};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Self-time categories, in report order. Every span lands in exactly one.
pub const CATEGORIES: [&str; 10] = [
    "core.replace_s",
    "core.join_s",
    "core.compose_s",
    "core.setop_s",
    "core.other_s",
    "fixpoint.rule_s",
    "fixpoint.self_s",
    "analyses.self_s",
    "exec.self_s",
    "trace.glue_s",
];

/// The category of a span by its op name. Benchmark-side spans use the
/// `analysis` and `exec-rule` ops; the rest are the relational layer's.
fn category(op: &str) -> &'static str {
    match op {
        "replace" => "core.replace_s",
        "join" => "core.join_s",
        "compose" => "core.compose_s",
        "union" | "intersect" | "minus" => "core.setop_s",
        "fixpoint-rule" => "fixpoint.rule_s",
        "fixpoint-round" | "fixpoint-delta" => "fixpoint.self_s",
        "analysis" => "analyses.self_s",
        "exec-rule" => "exec.self_s",
        _ => "core.other_s",
    }
}

#[derive(Clone, Copy, Debug)]
struct Span {
    op: &'static str,
    end: Instant,
    nanos: u64,
}

/// Collects stamped spans; install with [`Sink::install`].
#[derive(Default)]
pub struct Sink {
    spans: RefCell<Vec<Span>>,
}

impl ProfileSink for Sink {
    fn record(&self, event: &OpEvent) {
        let end = Instant::now();
        self.push(event.op, end, event.nanos);
    }
}

impl Sink {
    /// Installs a fresh sink as `u`'s profiler and returns a handle to it.
    pub fn install(u: &Universe) -> Rc<Sink> {
        let sink = Rc::new(Sink::default());
        u.set_profiler(Some(sink.clone()));
        sink
    }

    /// Records a benchmark-side span that ended now.
    pub fn span(&self, op: &'static str, nanos: u64) {
        self.push(op, Instant::now(), nanos);
    }

    fn push(&self, op: &'static str, end: Instant, nanos: u64) {
        if nanos > 0 {
            self.spans.borrow_mut().push(Span { op, end, nanos });
        }
    }

    /// Nests the recorded spans under the root span `[start, start +
    /// total_s]` (the traced call as the benchmark timed it) and sums self
    /// times per category.
    pub fn finish(&self, start: Instant, total_s: f64) -> Breakdown {
        let spans = merge_split_batches(&self.spans.borrow());
        let mut self_s: BTreeMap<&'static str, f64> =
            CATEGORIES.iter().map(|&c| (c, 0.0)).collect();
        let mut rounds = 0u64;
        // Spans not yet adopted by a parent, in arrival order.
        let mut pending: Vec<(Instant, f64)> = Vec::new();
        for s in &spans {
            let dur = s.nanos as f64 * 1e-9;
            let begin = s.end - std::time::Duration::from_nanos(s.nanos);
            let mut children = 0.0;
            while let Some(&(end, d)) = pending.last() {
                if end <= begin {
                    break;
                }
                children += d;
                pending.pop();
            }
            *self_s.get_mut(category(s.op)).expect("known category") += dur - children;
            if s.op == "fixpoint-round" {
                rounds += 1;
            }
            pending.push((s.end, dur));
        }
        let top: f64 = pending
            .iter()
            .filter(|&&(end, _)| end > start)
            .map(|&(_, d)| d)
            .sum();
        *self_s.get_mut("trace.glue_s").expect("known category") += total_s - top;
        Breakdown {
            total_s,
            self_s,
            fixpoint_rounds: rounds,
        }
    }
}

/// Merges each run of back-to-back events with the same op and the same
/// `nanos` — an evenly split batch — into one span covering the batch.
fn merge_split_batches(spans: &[Span]) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::with_capacity(spans.len());
    let mut run_nanos = 0u64;
    for s in spans {
        match out.last_mut() {
            Some(last) if last.op == s.op && run_nanos == s.nanos => {
                last.nanos += s.nanos;
                last.end = s.end;
            }
            _ => {
                out.push(*s);
                run_nanos = s.nanos;
            }
        }
    }
    out
}

/// Self times of one traced call.
#[derive(Clone, Debug)]
pub struct Breakdown {
    /// The traced call's wall time, seconds.
    pub total_s: f64,
    /// Self time per category of [`CATEGORIES`], seconds. Negative self
    /// times mean children overlapped their parent.
    pub self_s: BTreeMap<&'static str, f64>,
    /// `fixpoint-round` events seen (an exact count).
    pub fixpoint_rounds: u64,
}

impl Breakdown {
    /// Sum of all self times over the traced wall time; 1 when the spans
    /// nest cleanly. Overlapping siblings would push it away from 1.
    pub fn self_sum_ratio(&self) -> f64 {
        let positive: f64 = self.self_s.values().map(|v| v.max(0.0)).sum();
        positive / self.total_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn nested_rounds_are_not_double_counted() {
        let base = Instant::now();
        let sink = Sink::default();
        // inner round [10, 30] holds a join [12, 20]; outer round [5, 40].
        sink.push("join", at(base, 20), 8_000_000);
        sink.push("fixpoint-round", at(base, 30), 20_000_000);
        sink.push("fixpoint-round", at(base, 40), 35_000_000);
        let b = sink.finish(base, 0.050);
        assert!((b.self_s["core.join_s"] - 0.008).abs() < 1e-9);
        assert!((b.self_s["fixpoint.self_s"] - 0.027).abs() < 1e-9);
        assert!((b.self_s["trace.glue_s"] - 0.015).abs() < 1e-9);
        assert!((b.self_sum_ratio() - 1.0).abs() < 1e-9);
        assert_eq!(b.fixpoint_rounds, 2);
    }

    #[test]
    fn split_batches_merge_into_one_span() {
        let base = Instant::now();
        let sink = Sink::default();
        // A 3-job batch of 30 ms reported as 3 x 10 ms at its end, inside
        // a 3-rule group reported as 3 x 11 ms.
        for _ in 0..3 {
            sink.push("compose", at(base, 40), 10_000_000);
        }
        for _ in 0..3 {
            sink.push("fixpoint-rule", at(base, 41), 11_000_000);
        }
        let b = sink.finish(base, 0.050);
        assert!((b.self_s["core.compose_s"] - 0.030).abs() < 1e-9);
        assert!((b.self_s["fixpoint.rule_s"] - 0.003).abs() < 1e-9);
        assert!((b.self_sum_ratio() - 1.0).abs() < 1e-9);
    }
}
