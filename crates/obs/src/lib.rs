// Tests opt back into panicking extractors (workspace lint table,
// DESIGN.md "Static analysis & invariants").
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # axqa-obs — dependency-free tracing and metrics (DESIGN.md §9)
//!
//! A zero-cost-when-disabled observability layer for the TreeSketch
//! pipeline: thread-safe [`Recorder`] with spans (monotonic start/stop,
//! parent tracking, per-thread buffers merged at drain), named
//! counters, and fixed-bucket histograms, plus two exporters —
//! Chrome `trace_event` JSON ([`export::chrome_trace`], loadable in
//! `chrome://tracing`/Perfetto) and a flat metrics snapshot
//! ([`export::metrics_json`], schema `axqa-obs/1`).
//!
//! Instrumentation sites call the free functions [`span`], [`counter`]
//! and [`observe`]. When no recorder is installed each call compiles to
//! a single branch on a relaxed atomic load and returns immediately —
//! the disabled-overhead smoke bench (`crates/bench/benches/
//! obs_overhead.rs`) asserts this stays within noise of uninstrumented
//! code. When a recorder is installed, events accumulate in per-thread
//! buffers (no contention on the hot path) and merge into the shared
//! recorder when a top-level span closes, a buffer fills, or a thread
//! exits; [`Recorder::drain`] collects the merged totals.
//!
//! Span names follow the paper's algorithm names so traces read like
//! the pseudo-code: `TSBUILD` (Fig. 5), `CREATEPOOL` (Fig. 6),
//! `EVALQUERY` (Fig. 7), `BUILDSTABLE` (Fig. 4).
//!
//! ```
//! let recorder = axqa_obs::Recorder::new();
//! recorder.install();
//! {
//!     let _span = axqa_obs::span_with("TSBUILD", "budget_bytes", 1024);
//!     axqa_obs::counter("tsbuild.merges", 3);
//! }
//! axqa_obs::uninstall();
//! let snapshot = recorder.drain();
//! assert_eq!(snapshot.counter("tsbuild.merges"), 3);
//! assert_eq!(snapshot.span_count("TSBUILD"), 1);
//! let trace = axqa_obs::export::chrome_trace(&snapshot);
//! assert!(trace.contains("\"ph\": \"B\""));
//! ```
//!
//! This crate is the workspace's single monotonic-clock authority:
//! clippy.toml bans raw `Instant::now`/`SystemTime::now` everywhere else,
//! and other crates route wall-clock timing through [`Stopwatch`]
//! instead. It is also the single allocation-accounting authority:
//! binaries install [`alloc::CountingAlloc`] as the global allocator
//! (`std::alloc::System` is banned elsewhere, and `unsafe_code =
//! "forbid"` rules out another `GlobalAlloc` impl), and every span then
//! carries the allocation count / bytes / peak-live delta of the work it
//! timed — see [`SpanRecord`] and
//! DESIGN.md §12.

pub mod alloc;
pub mod export;
mod recorder;

pub use recorder::{
    monotonic_micros, uninstall, Histogram, Recorder, Snapshot, SpanGuard, SpanRecord,
    HISTOGRAM_BUCKETS,
};

use std::time::{Duration, Instant};

/// Whether a recorder is currently installed — one relaxed atomic load,
/// the entire cost of disabled instrumentation.
#[inline]
pub fn enabled() -> bool {
    recorder::gate_enabled()
}

/// Opens a span named `name`; the span closes (and records its stop
/// time) when the returned guard drops. Bind the guard (`let _span =
/// …`) — `let _ = …` drops it immediately, recording an empty span.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    recorder::begin_span(name, None)
}

/// [`span`] carrying one numeric argument (e.g. the byte budget or a
/// cluster count), exported into the Chrome trace's `args` object.
#[inline]
pub fn span_with(name: &'static str, key: &'static str, value: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    recorder::begin_span(name, Some((key, value)))
}

/// Adds `delta` to the named counter (saturating).
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        recorder::add_counter(name, delta);
    }
}

/// Records one observation into the named fixed-bucket histogram.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        recorder::record_value(name, value);
    }
}

/// Flushes the calling thread's buffered events into the installed
/// recorder.
///
/// Buffers flush eagerly when a top-level span closes and once more
/// when the thread exits — but a joined scope can return *before* the
/// worker's thread-local destructors have run, so events recorded
/// after the worker's last span (end-of-lane counters like
/// `parallel.busy_us`) would race with the joining thread's `drain`.
/// Worker closures that record such tail events must call this before
/// returning.
pub fn flush() {
    recorder::flush_current_thread();
}

/// Monotonic stopwatch — the sanctioned wall-clock timing primitive
/// (clippy.toml bans raw `Instant::now` outside this crate so all timing
/// flows through the recorder's clock).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[allow(clippy::disallowed_methods)] // this crate owns the clock
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed milliseconds as a float (bench-report convention).
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1_000.0
    }

    /// Elapsed whole microseconds, saturating — the unit the
    /// `parallel.*` utilization counters are kept in (DESIGN.md §12).
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// Process-wide observability state (recorder gate, alloc tracking) is
/// shared by unit tests across modules; they all serialize on this.
#[cfg(test)]
pub(crate) static TEST_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    use crate::TEST_GATE as GATE;

    #[test]
    fn disabled_instrumentation_records_nothing() {
        let _gate = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let recorder = Recorder::new();
        // Not installed: everything is a no-op.
        {
            let _span = span("noop");
            counter("noop.counter", 5);
            observe("noop.hist", 9);
        }
        let snapshot = recorder.drain();
        assert!(snapshot.spans.is_empty());
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.histograms.is_empty());
        assert!(!enabled());
    }

    #[test]
    fn spans_nest_with_parent_tracking() {
        let _gate = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let recorder = Recorder::new();
        recorder.install();
        {
            let _outer = span_with("outer", "budget_bytes", 64);
            {
                let _inner = span("inner");
            }
            let _sibling = span("sibling");
        }
        uninstall();
        let snapshot = recorder.drain();
        assert_eq!(snapshot.spans.len(), 3);
        let outer = snapshot
            .spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer span");
        assert_eq!(outer.parent, None);
        assert_eq!(outer.arg, Some(("budget_bytes", 64)));
        for child in ["inner", "sibling"] {
            let span = snapshot.spans.iter().find(|s| s.name == child).unwrap();
            assert_eq!(span.parent, Some(outer.id), "{child}");
            assert_eq!(span.tid, outer.tid);
            assert!(span.start_us >= outer.start_us);
            assert!(span.end_us <= outer.end_us);
        }
    }

    #[test]
    fn concurrent_recording_merges_thread_buffers_at_drain() {
        let _gate = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let recorder = Recorder::new();
        recorder.install();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _span = span("worker");
                    for _ in 0..100 {
                        counter("work.items", 1);
                    }
                    observe("work.batch", 100);
                });
            }
        });
        uninstall();
        let snapshot = recorder.drain();
        assert_eq!(snapshot.counter("work.items"), 400);
        assert_eq!(snapshot.span_count("worker"), 4);
        // Every worker ran on its own thread: 4 distinct thread ids.
        let tids: std::collections::HashSet<u64> = snapshot
            .spans
            .iter()
            .filter(|s| s.name == "worker")
            .map(|s| s.tid)
            .collect();
        assert_eq!(tids.len(), 4);
        let (_, hist) = &snapshot.histograms[0];
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 400);
        assert_eq!(hist.max, 100);
    }

    #[test]
    fn counters_saturate_and_histograms_bucket_by_magnitude() {
        let _gate = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let recorder = Recorder::new();
        recorder.install();
        counter("sat", u64::MAX);
        counter("sat", u64::MAX);
        observe("h", 0);
        observe("h", 1);
        observe("h", 2);
        observe("h", 3);
        observe("h", u64::MAX);
        uninstall();
        let snapshot = recorder.drain();
        assert_eq!(snapshot.counter("sat"), u64::MAX);
        let hist = &snapshot
            .histograms
            .iter()
            .find(|(n, _)| n == "h")
            .expect("histogram h")
            .1;
        assert_eq!(hist.count, 5);
        assert_eq!(hist.buckets[0], 1); // the zero value
        assert_eq!(hist.buckets[1], 1); // value 1 in [1, 2)
        assert_eq!(hist.buckets[2], 2); // values 2 and 3 in [2, 4)
        assert_eq!(hist.buckets[HISTOGRAM_BUCKETS - 1], 1); // u64::MAX overflow bucket
        assert_eq!(hist.max, u64::MAX);
    }

    #[test]
    fn stopwatch_measures_monotonic_time() {
        let watch = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(watch.elapsed() >= Duration::from_millis(2));
        assert!(watch.elapsed_ms() >= 2.0);
        let earlier = monotonic_micros();
        assert!(monotonic_micros() >= earlier);
    }
}
