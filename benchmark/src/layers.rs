//! Per-layer numbers from traced rounds.
//!
//! A traced round runs under an `axqa_obs` recorder. Its spans form one
//! tree per request on the client thread: the request span (`summarize`,
//! `load`, `estimate`), the benchmark's span around each library call,
//! and the spans the crates already open inside (`TSBUILD`,
//! `CREATEPOOL`, `EVALQUERY`, …). A span's self time is its duration
//! minus its children's; self times are summed per layer, a span the
//! table does not name inherits its parent's layer, and the request
//! spans' own self time is the unattributed remainder, so the rows add
//! up to the traced requests' wall time exactly. Spans on TSBUILD's
//! scoring workers overlap the client thread's `CREATEPOOL` and are left
//! out of the table; the `parallel.*` counters report them.

use std::collections::{BTreeMap, HashMap};

use axqa_obs::{Snapshot, SpanRecord};

use crate::requests::REQUEST_SPANS;
use crate::{percentile, Metric};

const UNATTRIBUTED: &str = "unattributed";

/// Rows of the self-time table, in print order.
const ROWS: [&str; 13] = [
    "xml",
    "synopsis",
    "core.build.createpool",
    "core.build.merge_score",
    "core.build.merge_apply",
    "core.build.merge_loop",
    "core.build.to_sketch",
    "core.build",
    "core.io",
    "query",
    "core.eval",
    "core.selectivity",
    UNATTRIBUTED,
];

/// The table row of a span name, `None` for names that inherit their
/// parent's row.
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "xml.parse_document" => "xml",
        "synopsis.build_stable" => "synopsis",
        "core.try_ts_build" => "core.build",
        "CREATEPOOL" => "core.build.createpool",
        "TSBUILD.merge_loop" => "core.build.merge_loop",
        "TSBUILD.merge_loop.score" => "core.build.merge_score",
        "TSBUILD.merge_loop.apply" => "core.build.merge_apply",
        "TSBUILD.to_sketch" => "core.build.to_sketch",
        "core.io.to_text" | "core.io.from_text" => "core.io",
        "query.parse_twig" => "query",
        "core.eval" => "core.eval",
        "core.selectivity" => "core.selectivity",
        name if REQUEST_SPANS.contains(&name) => UNATTRIBUTED,
        _ => return None,
    })
}

/// Spans of the first traced round kept for the Chrome trace, so the
/// file stays small.
const TRACE_SPANS: usize = 5_000;

/// What the traced rounds recorded, summed.
#[derive(Default)]
pub(crate) struct Layers {
    /// Self time per table row, µs.
    self_us: BTreeMap<&'static str, u64>,
    /// Wall time of the traced requests, µs.
    wall_us: u64,
    /// Duration of every client-thread span, µs, per span name.
    durations: BTreeMap<&'static str, Vec<u64>>,
    /// Self time per span name, µs.
    own_us: BTreeMap<&'static str, u64>,
    /// Allocation events per span name, children included.
    allocs: BTreeMap<&'static str, u64>,
    counters: BTreeMap<String, u64>,
    first: Option<Snapshot>,
}

/// Facts about the run that the spans do not carry.
pub(crate) struct Context {
    pub xml_bytes: usize,
    pub classes: usize,
    pub sketch_bytes: usize,
    pub rel_error_pct: f64,
    pub empty_answers_per_round: f64,
    pub trace_overhead_pct: f64,
}

fn duration(span: &SpanRecord) -> u64 {
    span.end_us.saturating_sub(span.start_us)
}

impl Layers {
    /// Keeps the sketch loads of the traced set-up passes: on a
    /// workload that serves one sketch, set-up is the only place it is
    /// loaded.
    pub fn fold_setup(&mut self, snapshot: &Snapshot) {
        let loads = snapshot
            .spans
            .iter()
            .filter(|span| span.name == "core.io.from_text")
            .map(duration);
        self.durations
            .entry("core.io.from_text")
            .or_default()
            .extend(loads);
    }

    /// Adds one traced round.
    pub fn fold(&mut self, snapshot: &Snapshot) {
        if self.first.is_none() {
            let mut first = snapshot.clone();
            first.spans.truncate(TRACE_SPANS);
            self.first = Some(first);
        }
        for (name, value) in &snapshot.counters {
            *self.counters.entry(name.clone()).or_default() += value;
        }
        let Some(client) = snapshot
            .spans
            .iter()
            .find(|span| span.parent.is_none() && REQUEST_SPANS.contains(&span.name))
            .map(|span| span.tid)
        else {
            return;
        };
        // Sorted by start: a parent precedes its children.
        let spans: Vec<&SpanRecord> = snapshot
            .spans
            .iter()
            .filter(|span| span.tid == client)
            .collect();
        let position: HashMap<u64, usize> = spans
            .iter()
            .enumerate()
            .map(|(i, span)| (span.id, i))
            .collect();
        let parent: Vec<Option<usize>> = spans
            .iter()
            .map(|span| span.parent.and_then(|id| position.get(&id).copied()))
            .collect();
        let mut child_us = vec![0u64; spans.len()];
        let mut allocs: Vec<u64> = spans.iter().map(|span| span.alloc_count).collect();
        for i in (0..spans.len()).rev() {
            if let Some(p) = parent[i] {
                child_us[p] += duration(spans[i]);
                allocs[p] += allocs[i];
            }
        }
        let mut layer: Vec<&'static str> = Vec::with_capacity(spans.len());
        for (i, span) in spans.iter().enumerate() {
            let row = layer_of(span.name)
                .or_else(|| parent[i].and_then(|p| layer.get(p).copied()))
                .unwrap_or(UNATTRIBUTED);
            layer.push(row);
            let own = duration(span).saturating_sub(child_us[i]);
            *self.self_us.entry(row).or_default() += own;
            *self.own_us.entry(span.name).or_default() += own;
            *self.allocs.entry(span.name).or_default() += allocs[i];
            self.durations
                .entry(span.name)
                .or_default()
                .push(duration(span));
            if parent[i].is_none() {
                self.wall_us += duration(span);
            }
        }
    }

    /// The per-layer metrics, each listed in `BENCHMARK.json`. A layer
    /// the workload never calls reports 0.
    pub fn metrics(&self, context: &Context) -> Vec<Metric> {
        let calls = |name: &str| self.durations.get(name).map_or(0, Vec::len) as f64;
        let total = |name: &str| {
            self.durations
                .get(name)
                .map_or(0, |d| d.iter().sum::<u64>()) as f64
        };
        let p_us = |name: &str, p: f64| {
            let samples: Vec<f64> = self
                .durations
                .get(name)
                .map(|d| d.iter().map(|&us| us as f64).collect())
                .unwrap_or_default();
            percentile(&samples, p)
        };
        let counter = |name: &str| self.counters.get(name).copied().unwrap_or(0) as f64;
        let allocs = |name: &str| self.allocs.get(name).copied().unwrap_or(0) as f64;
        let own = |name: &str| self.own_us.get(name).copied().unwrap_or(0) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        let builds = calls("core.try_ts_build");
        let queries = calls("core.eval");
        let merges = counter("tsbuild.merges");
        let candidates = counter("tsbuild.candidates_scored");
        let score = total("TSBUILD.merge_loop.score");
        let apply = total("TSBUILD.merge_loop.apply");
        let per_build_ms = |us: f64| ratio(us, builds) / 1e3;
        let metric = Metric::new;
        vec![
            metric(
                "xml.parse_ms_p50",
                "ms",
                p_us("xml.parse_document", 0.5) / 1e3,
            ),
            metric(
                "xml.parse_mb_per_s",
                "MB/s",
                ratio(
                    context.xml_bytes as f64 * calls("xml.parse_document"),
                    total("xml.parse_document"),
                ),
            ),
            metric(
                "xml.parse_allocs",
                "count",
                ratio(allocs("xml.parse_document"), calls("xml.parse_document")),
            ),
            metric(
                "synopsis.build_stable_ms_p50",
                "ms",
                p_us("synopsis.build_stable", 0.5) / 1e3,
            ),
            metric(
                "synopsis.allocs",
                "count",
                ratio(
                    allocs("synopsis.build_stable"),
                    calls("synopsis.build_stable"),
                ),
            ),
            metric(
                "synopsis.classes",
                "count",
                if calls("synopsis.build_stable") > 0.0 {
                    context.classes as f64
                } else {
                    0.0
                },
            ),
            metric(
                "build.ts_build_ms_p50",
                "ms",
                p_us("core.try_ts_build", 0.5) / 1e3,
            ),
            metric(
                "build.createpool_ms",
                "ms",
                per_build_ms(total("CREATEPOOL")),
            ),
            metric("build.merge_score_ms", "ms", per_build_ms(score)),
            metric("build.merge_apply_ms", "ms", per_build_ms(apply)),
            metric(
                "build.to_sketch_ms",
                "ms",
                per_build_ms(total("TSBUILD.to_sketch")),
            ),
            metric(
                "build.merge_loop_self_ms",
                "ms",
                per_build_ms(own("TSBUILD.merge_loop")),
            ),
            metric("build.merges", "count", ratio(merges, builds)),
            metric(
                "build.pool_rebuilds",
                "count",
                ratio(counter("tsbuild.pool_rebuilds"), builds),
            ),
            metric(
                "build.candidates_scored",
                "count",
                ratio(candidates, builds),
            ),
            metric(
                "build.reevals",
                "count",
                ratio(counter("tsbuild.reevals"), builds),
            ),
            metric(
                "build.stale_skipped",
                "count",
                ratio(counter("tsbuild.stale_skipped"), builds),
            ),
            metric(
                "build.merges_per_candidate",
                "ratio",
                ratio(merges, candidates),
            ),
            metric(
                "build.apply_allocs_per_merge",
                "count",
                ratio(allocs("TSBUILD.merge_loop.apply"), merges),
            ),
            metric(
                "build.parallel_utilization_pct",
                "%",
                100.0 * ratio(counter("parallel.busy_us"), counter("parallel.capacity_us")),
            ),
            metric("io.save_ms_p50", "ms", p_us("core.io.to_text", 0.5) / 1e3),
            metric("io.load_ms_p50", "ms", p_us("core.io.from_text", 0.5) / 1e3),
            metric("io.sketch_bytes", "bytes", context.sketch_bytes as f64),
            metric(
                "query.parse_twig_us_p50",
                "us",
                p_us("query.parse_twig", 0.5),
            ),
            metric("eval.evalquery_us_p50", "us", p_us("core.eval", 0.5)),
            metric("eval.evalquery_us_p99", "us", p_us("core.eval", 0.99)),
            metric(
                "eval.automaton_states_per_query",
                "count",
                ratio(counter("evalquery.automaton_states"), queries),
            ),
            metric(
                "eval.embeddings_per_query",
                "count",
                ratio(counter("evalquery.embeddings_expanded"), queries),
            ),
            metric(
                "eval.allocs_per_query",
                "count",
                ratio(allocs("core.eval"), queries),
            ),
            metric(
                "eval.empty_answers",
                "count",
                context.empty_answers_per_round,
            ),
            metric("selectivity.us_p50", "us", p_us("core.selectivity", 0.5)),
            metric(
                "summarize.unattributed_ms",
                "ms",
                ratio(own("summarize"), calls("summarize")) / 1e3,
            ),
            metric(
                "estimate.unattributed_us",
                "us",
                ratio(own("estimate"), calls("estimate")),
            ),
            metric("trace.overhead_pct", "%", context.trace_overhead_pct),
            metric("rel_error_pct", "%", context.rel_error_pct),
        ]
    }

    /// The self-time table: one row per layer plus the unattributed
    /// row; the rows sum to the traced requests' wall time.
    pub fn table(&self) -> String {
        let requests: usize = REQUEST_SPANS
            .iter()
            .map(|name| self.durations.get(name).map_or(0, Vec::len))
            .sum();
        let share = |us: u64| 100.0 * us as f64 / self.wall_us.max(1) as f64;
        let mut out = format!(
            "self time over {requests} traced requests\n{:<24} {:>12} {:>7}\n",
            "layer", "self ms", "share"
        );
        let mut sum = 0u64;
        for row in ROWS {
            let us = self.self_us.get(row).copied().unwrap_or(0);
            sum += us;
            out += &format!("{row:<24} {:>12.3} {:>6.2}%\n", us as f64 / 1e3, share(us));
        }
        out += &format!(
            "{:<24} {:>12.3} {:>6.2}%  (measured wall {:.3} ms)\n",
            "sum of rows",
            sum as f64 / 1e3,
            share(sum),
            self.wall_us as f64 / 1e3
        );
        out
    }

    /// Chrome `trace_event` JSON of the first traced round.
    pub fn chrome_trace(&self) -> Option<String> {
        self.first.as_ref().map(axqa_obs::export::chrome_trace)
    }
}
