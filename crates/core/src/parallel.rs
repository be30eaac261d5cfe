//! The claim loop: the index-parallel fan-out behind CREATEPOOL scoring
//! (§4.2, Fig. 6) and the harness's maps (DESIGN.md §4.6).
//!
//! Lanes, the calling thread among them, claim runs of indices from a
//! shared cursor until none are left, so a slow lane costs at most one
//! claim of imbalance. Threads are started by
//! [`axqa_xml::threads::fan_out`], so a thread the OS refuses costs one
//! lane, not the call. Every multi-lane region records the `parallel.*`
//! utilization telemetry of DESIGN.md §12.

use axqa_xml::threads::{fan_out, Joined};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `body(state, i)` for every `i < n`, one lane per element of
/// `states`: the calling thread works with `states[0]` and a thread of
/// its own with each other one, so every lane's state is built by the
/// caller. Lanes claim `per_claim` consecutive indices at a time from
/// a shared cursor. With one state the indices run in order on the
/// calling thread and nothing is recorded; with none, nothing runs.
///
/// Each lane runs under a span `span` carrying its lane number
/// (`worker`, 0 for the calling thread) and records its busy time
/// (`parallel.busy_us`) and claims (`parallel.worker_items`); a
/// region records `parallel.regions`, `parallel.wall_us` and
/// `parallel.capacity_us` (wall time × lanes that ran). A refused
/// thread is one lane fewer: the others claim its share.
///
/// # Panics
///
/// When `body` panics in a lane, the panic is re-raised on the calling
/// thread, with its own payload, once every lane has ended.
pub fn claim_loop<S, F>(span: &'static str, states: &mut [S], n: usize, per_claim: usize, body: F)
where
    S: Send,
    F: Fn(&mut S, usize) + Sync,
{
    let Some((first, others)) = states.split_first_mut() else {
        return;
    };
    if others.is_empty() {
        for i in 0..n {
            body(first, i);
        }
        return;
    }
    let per_claim = per_claim.max(1);
    let region = axqa_obs::Stopwatch::start();
    let cursor = AtomicUsize::new(0);
    let lane = |t: usize, state: &mut S| {
        // One span per lane: the lanes show side by side, each on its
        // own thread id, in a Chrome trace.
        let _span = axqa_obs::span_with(span, "worker", t as u64);
        let busy = axqa_obs::Stopwatch::start();
        let mut claims = 0u64;
        loop {
            let start = cursor.fetch_add(per_claim, Ordering::Relaxed);
            if start >= n {
                break;
            }
            for i in start..n.min(start.saturating_add(per_claim)) {
                body(state, i);
            }
            claims = claims.saturating_add(1);
        }
        axqa_obs::counter("parallel.busy_us", busy.elapsed_us());
        axqa_obs::observe("parallel.worker_items", claims);
    };
    let lane = &lane;
    let ((), joined) = fan_out(
        others.iter_mut().enumerate().map(|(t, state)| {
            move || {
                lane(t + 1, state);
                // A joined scope can return before this thread's
                // exit-time flush has run (DESIGN.md §12). Without a
                // recorder there is nothing to flush, and the thread's
                // event buffer is never created.
                if axqa_obs::enabled() {
                    axqa_obs::flush();
                }
            }
        }),
        || lane(0, first),
    );
    let mut lanes = 1u64;
    for job in joined {
        match job {
            Joined::Finished(()) => lanes = lanes.saturating_add(1),
            Joined::Panicked(payload) => std::panic::resume_unwind(payload),
            Joined::Refused => {}
        }
    }
    let wall_us = region.elapsed_us();
    axqa_obs::counter("parallel.regions", 1);
    axqa_obs::counter("parallel.wall_us", wall_us);
    axqa_obs::counter("parallel.capacity_us", wall_us.saturating_mul(lanes));
}

/// `f(state, i)` for every `i < n`, in index order, computed on the
/// [`claim_loop`] one index per claim, with lane spans named
/// `parallel.map`. States beyond the `n`th are left unused, so no
/// thread starts without an index to claim. Each lane keeps its
/// results until the loop ends; they are then put in index order on
/// the calling thread.
///
/// # Panics
///
/// Re-raises a panic of `f`, as [`claim_loop`] does.
///
/// ```
/// use axqa_core::parallel::map_indexed;
///
/// // Two lanes, each with a scratch vector of its own.
/// let mut scratches = vec![Vec::new(), Vec::new()];
/// let squares = map_indexed(&mut scratches, 5, |scratch: &mut Vec<usize>, i| {
///     scratch.push(i);
///     i * i
/// });
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn map_indexed<S, T, F>(states: &mut [S], n: usize, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut lanes: Vec<(&mut S, Vec<(usize, T)>)> = states
        .iter_mut()
        .take(n)
        .map(|state| (state, Vec::new()))
        .collect();
    claim_loop("parallel.map", &mut lanes, n, 1, |(state, out), i| {
        out.push((i, f(state, i)));
    });
    let mut results: Vec<(usize, T)> = lanes.into_iter().flat_map(|(_, out)| out).collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use axqa_xml::threads::SPAWNS_LEFT;

    #[test]
    fn parallel_map_matches_serial_and_preserves_order() {
        let serial: Vec<usize> = map_indexed(&mut [()], 100, |_, i| i * i);
        let parallel: Vec<usize> = map_indexed(&mut [(); 4], 100, |_, i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
        let empty: Vec<usize> = map_indexed(&mut [(); 4], 0, |_, i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn parallel_map_with_state_matches_stateless() {
        // Worker-local scratch must not change results or their order.
        let stateless: Vec<usize> = map_indexed(&mut [(); 4], 64, |_, i| i * 3);
        let mut scratches = vec![Vec::<usize>::new(); 4];
        let stateful: Vec<usize> = map_indexed(&mut scratches, 64, |scratch, i| {
            scratch.push(i); // scratch persists across a worker's items
            i * 3
        });
        assert_eq!(stateless, stateful);
        let inline: Vec<usize> = map_indexed(&mut [0usize], 8, |acc, i| {
            *acc += i;
            *acc
        });
        assert_eq!(inline, vec![0, 1, 3, 6, 10, 15, 21, 28]);
    }

    #[test]
    fn parallel_claims_cover_every_index_once() {
        // Uneven last claim, more lanes than claims.
        for (lanes, n, per_claim) in [(2, 101, 32), (4, 3, 32), (3, 64, 1), (2, 0, 8)] {
            let mut seen = vec![Vec::new(); lanes];
            claim_loop("test.lane", &mut seen, n, per_claim, |seen, i| seen.push(i));
            let mut all: Vec<usize> = seen.concat();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "{lanes} lanes, {n} items");
        }
    }

    #[test]
    fn parallel_map_with_refused_threads_is_the_serial_map() {
        // Refused threads are lanes fewer; the calling thread claims
        // their share, so every index is still computed, in order.
        let expected: Vec<usize> = (0..50).map(|i| i * 7).collect();
        for allowed in 0..=3 {
            SPAWNS_LEFT.set(allowed);
            let mut lanes = vec![0usize; 4];
            let out = map_indexed(&mut lanes, 50, |count, i| {
                *count += 1;
                i * 7
            });
            assert_eq!(out, expected, "{allowed} threads allowed");
            // Only the lanes that ran claimed anything.
            assert!(lanes[allowed + 1..].iter().all(|&count| count == 0));
            assert_eq!(lanes.iter().sum::<usize>(), 50);
        }
        SPAWNS_LEFT.set(usize::MAX);
    }

    #[test]
    #[should_panic(expected = "worker lane panicked at index")]
    fn parallel_claim_panic_keeps_its_payload() {
        // The worker lane panics on the first index it claims; the
        // calling thread's lane waits for that claim before it claims
        // on, so the panic the caller re-raises is the worker's.
        let (claimed, wait) = std::sync::mpsc::channel();
        let mut states = [(None, Some(wait)), (Some(claimed), None)];
        claim_loop("test.lane", &mut states, 64, 1, |(worker, caller), i| {
            if let Some(claimed) = worker {
                let _ = claimed.send(());
                panic!("worker lane panicked at index {i}");
            }
            if let Some(wait) = caller.take() {
                let _ = wait.recv_timeout(std::time::Duration::from_secs(60));
            }
        });
    }
}
