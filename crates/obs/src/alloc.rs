//! The counting global allocator (DESIGN.md §12): every heap
//! allocation in a binary that installs [`CountingAlloc`] is tallied
//! into thread-local cells, and [`crate::SpanGuard`] attributes the
//! deltas to the innermost open span — the *dynamic* counterpart of the
//! static `hot-path-alloc` reachability analysis (DESIGN.md §11).
//!
//! Install it once per binary (harness, xtask, benches, the runtime
//! allocation tests):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: axqa_obs::alloc::CountingAlloc = axqa_obs::alloc::CountingAlloc;
//! ```
//!
//! Cost model: with tracking off (no recorder installed) every
//! allocator hook is one relaxed atomic load on top of the system
//! allocator. With tracking on, the hooks touch four thread-local
//! `Cell`s — no atomics, no locks, no reentrancy (the cells live
//! outside the recorder's `RefCell` buffers precisely so the allocator
//! can run *inside* recorder bookkeeping without re-borrowing).
//!
//! clippy.toml bans `std::alloc::System` and the workspace lint table
//! forbids `unsafe_code` in every other crate, so this module stays the
//! single point where allocation accounting can be installed or
//! bypassed.
#![allow(unsafe_code, clippy::disallowed_types)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Gate for the counting hooks: flipped by [`crate::Recorder::install`]
/// and [`crate::uninstall`] alongside the span/counter gate. Off means
/// each hook is a single relaxed load.
static TRACKING: AtomicBool = AtomicBool::new(false);

pub(crate) fn set_tracking(on: bool) {
    TRACKING.store(on, Ordering::Relaxed);
}

/// Per-thread allocation tallies. Plain `Cell`s (const-initialized, no
/// lazy TLS setup) so the allocator hooks never allocate and never
/// conflict with the recorder's `RefCell` buffers.
struct Cells {
    /// Cumulative allocation events (alloc/alloc_zeroed/realloc).
    allocs: Cell<u64>,
    /// Cumulative bytes requested by those events.
    bytes: Cell<u64>,
    /// Live heap bytes (allocated − freed, clamped at 0 for memory
    /// allocated before tracking switched on).
    live: Cell<u64>,
    /// High-water mark of `live` since the innermost open span window
    /// was opened (spans reset and restore it, see `begin_window`).
    peak: Cell<u64>,
}

thread_local! {
    static CELLS: Cells = const {
        Cells {
            allocs: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
    /// Suspension depth: while nonzero, the hooks skip the tallies on
    /// this thread. The recorder suspends around its own bookkeeping
    /// (span pushes, buffer flushes, counter-map inserts) so observer
    /// cost is never attributed to any span — without it, a mid-loop
    /// buffer flush would charge its allocations to whichever hot-path
    /// span happens to be open.
    static SUSPEND: Cell<u32> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let size = u64::try_from(size).unwrap_or(u64::MAX);
    // try_with: a no-op during thread teardown, when TLS is gone.
    let _ = SUSPEND.try_with(|s| {
        if s.get() != 0 {
            return;
        }
        let _ = CELLS.try_with(|c| {
            c.allocs.set(c.allocs.get().saturating_add(1));
            c.bytes.set(c.bytes.get().saturating_add(size));
            let live = c.live.get().saturating_add(size);
            c.live.set(live);
            if live > c.peak.get() {
                c.peak.set(live);
            }
        });
    });
}

fn note_dealloc(size: usize) {
    let size = u64::try_from(size).unwrap_or(u64::MAX);
    let _ = SUSPEND.try_with(|s| {
        if s.get() != 0 {
            return;
        }
        let _ = CELLS.try_with(|c| {
            c.live.set(c.live.get().saturating_sub(size));
        });
    });
}

/// RAII guard suspending allocation tracking on the current thread;
/// nests (a counter, not a flag). Construction and drop never allocate.
#[derive(Debug)]
pub(crate) struct SuspendGuard;

pub(crate) fn suspend_tracking() -> SuspendGuard {
    let _ = SUSPEND.try_with(|s| s.set(s.get().saturating_add(1)));
    SuspendGuard
}

impl Drop for SuspendGuard {
    fn drop(&mut self) {
        let _ = SUSPEND.try_with(|s| s.set(s.get().saturating_sub(1)));
    }
}

/// The workspace's global allocator: the system allocator plus
/// thread-local tallies when tracking is on. Zero-sized, `const`
/// constructible, installed with `#[global_allocator]`.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: every method delegates the actual memory management to
// `System` unchanged; the wrapper only updates thread-local counters
// (which never allocate, never unwind, and never touch the pointers).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() && TRACKING.load(Ordering::Relaxed) {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() && TRACKING.load(Ordering::Relaxed) {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if TRACKING.load(Ordering::Relaxed) {
            note_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() && TRACKING.load(Ordering::Relaxed) {
            // One event for the new block; the old block's bytes leave
            // the live tally. Growth in place still counts as a fresh
            // allocation event — reallocation is the cost being traced.
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        new_ptr
    }
}

/// Point-in-time copy of the calling thread's allocation tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Allocation events since tracking started on this thread.
    pub allocs: u64,
    /// Bytes requested by those events.
    pub bytes: u64,
    /// Live heap bytes attributed to this thread.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` in the current span window.
    pub peak_live_bytes: u64,
}

/// Reads the calling thread's tallies (all zero when the counting
/// allocator is not installed or tracking never ran on this thread).
pub fn thread_snapshot() -> AllocSnapshot {
    CELLS
        .try_with(|c| AllocSnapshot {
            allocs: c.allocs.get(),
            bytes: c.bytes.get(),
            live_bytes: c.live.get(),
            peak_live_bytes: c.peak.get(),
        })
        .unwrap_or_default()
}

/// A span's allocation window: the counter values at open, plus the
/// enclosing window's peak so nesting restores correctly.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AllocWindow {
    allocs_at_open: u64,
    bytes_at_open: u64,
    live_at_open: u64,
    outer_peak: u64,
}

/// Opens an allocation window: snapshots the cumulative counters and
/// resets the running peak to the current live size, so the window
/// observes its *own* high-water mark. Windows must close LIFO (the
/// span stack guarantees it).
pub(crate) fn begin_window() -> AllocWindow {
    CELLS
        .try_with(|c| {
            let live = c.live.get();
            let outer_peak = c.peak.get();
            c.peak.set(live);
            AllocWindow {
                allocs_at_open: c.allocs.get(),
                bytes_at_open: c.bytes.get(),
                live_at_open: live,
                outer_peak,
            }
        })
        .unwrap_or_default()
}

/// What a closed window observed: total (child-inclusive) event count
/// and bytes, and how far live memory rose above its open point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WindowDelta {
    pub allocs: u64,
    pub bytes: u64,
    pub peak_live_delta: u64,
}

/// Closes an allocation window, restoring the enclosing window's peak
/// (the outer window's high-water mark includes everything this one
/// saw).
pub(crate) fn end_window(window: AllocWindow) -> WindowDelta {
    CELLS
        .try_with(|c| {
            let window_peak = c.peak.get();
            c.peak.set(window.outer_peak.max(window_peak));
            WindowDelta {
                allocs: c.allocs.get().saturating_sub(window.allocs_at_open),
                bytes: c.bytes.get().saturating_sub(window.bytes_at_open),
                peak_live_delta: window_peak.saturating_sub(window.live_at_open),
            }
        })
        .unwrap_or_default()
}

/// Probes whether the counting allocator is actually installed as the
/// process's global allocator: briefly forces tracking on, performs a
/// heap allocation, and checks whether the thread tally moved. Binaries
/// that forget the `#[global_allocator]` line report `false`, which the
/// bench report surfaces as `"tracked": false` instead of silently
/// all-zero allocation profiles.
pub fn counting_allocator_active() -> bool {
    let was_on = TRACKING.swap(true, Ordering::Relaxed);
    let before = thread_snapshot().allocs;
    let probe: Vec<u8> = Vec::with_capacity(64);
    std::hint::black_box(&probe);
    let after = thread_snapshot().allocs;
    drop(probe);
    TRACKING.store(was_on, Ordering::Relaxed);
    after > before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_GATE as GATE;

    // The obs test binary installs the counting allocator so the
    // windowed attribution below observes real heap traffic.
    #[global_allocator]
    static TEST_ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn probe_detects_the_installed_allocator() {
        let _gate = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(counting_allocator_active());
    }

    #[test]
    fn windows_observe_allocations_and_nest() {
        let _gate = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_tracking(true);
        let outer = begin_window();
        let first: Vec<u8> = std::hint::black_box(Vec::with_capacity(1024));
        let inner = begin_window();
        let second: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
        drop(second);
        let inner_delta = end_window(inner);
        drop(first);
        let outer_delta = end_window(outer);
        set_tracking(false);
        assert!(inner_delta.allocs >= 1);
        assert!(inner_delta.bytes >= 4096);
        assert!(inner_delta.peak_live_delta >= 4096);
        // The outer window saw the inner's events too (inclusive).
        assert!(outer_delta.allocs > inner_delta.allocs);
        assert!(outer_delta.bytes >= inner_delta.bytes + 1024);
        // Outer peak: both vecs were briefly live together.
        assert!(outer_delta.peak_live_delta >= 1024 + 4096);
    }

    #[test]
    fn dealloc_shrinks_live_but_not_totals() {
        let _gate = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_tracking(true);
        let window = begin_window();
        let buf: Vec<u8> = std::hint::black_box(Vec::with_capacity(512));
        let mid = thread_snapshot();
        drop(buf);
        let end = thread_snapshot();
        let delta = end_window(window);
        set_tracking(false);
        assert!(mid.live_bytes >= end.live_bytes + 512);
        assert_eq!(mid.allocs, end.allocs, "dealloc is not an event");
        assert!(delta.bytes >= 512);
    }

    #[test]
    fn tracking_off_freezes_the_tallies() {
        let _gate = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_tracking(false);
        let before = thread_snapshot();
        let buf: Vec<u8> = std::hint::black_box(Vec::with_capacity(2048));
        drop(buf);
        let after = thread_snapshot();
        assert_eq!(before.allocs, after.allocs);
        assert_eq!(before.bytes, after.bytes);
    }
}
