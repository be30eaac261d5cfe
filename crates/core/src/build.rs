//! `TSBUILD` and `CREATEPOOL` (§4.2, Figures 5 and 6).
//!
//! TSBUILD starts from the count-stable summary and greedily applies the
//! merge with the best marginal-gain ratio `errd / sized` until the
//! synopsis fits the space budget. The candidate pool is bounded (`Uh`)
//! and regenerated whenever it drains below `Lh`; pool generation walks
//! node depths bottom-up, mirroring the paper's observation that good
//! merges happen near the leaves first.
//!
//! Deviations from the pseudo-code, all behavior-preserving:
//!
//! * Instead of eagerly re-evaluating `affected(h, m)` after each merge,
//!   heap entries carry the stats *versions* of their two clusters and
//!   are lazily re-evaluated (and re-inserted) when popped stale; merged
//!   clusters forward to their successor, implementing the paper's
//!   "replace `m'` by a merge with `u_m`" rule. Every applied merge is
//!   therefore ranked by its *current* ratio, as in the paper.
//! * Stale re-evaluation itself is served by the
//!   [`crate::queue::MergeQueue`] score memo (DESIGN.md §13): only pops
//!   *adjacent* to an applied merge — endpoints whose merge-generation
//!   stamps moved — re-run `evaluate_merge`; every other stale pop
//!   re-pushes its memoized, bit-identical score
//!   (`tsbuild.stale_skipped`). [`ts_build_eager`] preserves the
//!   pre-memo loop as the reference oracle that
//!   `tests/proptest_lazy_queue.rs` pins the production path against.
//! * Within one `(label, depth)` group, `CREATEPOOL` evaluates all pairs
//!   only while the group is small; for large groups it sorts members by
//!   a cheap structural key and proposes sliding-window neighbor pairs.
//!   This keeps pool generation near-linear on documents whose stable
//!   summaries have thousands of same-label classes (the paper's own
//!   `Uh` bound plays the same cost-control role).
//! * Candidate scoring fans out to [`BuildConfig::threads`] workers, the
//!   calling thread among them. A level's candidate pairs are listed
//!   once; the workers claim fixed-size runs of the list from a shared
//!   cursor and score them into local bounded worst-first heaps, with
//!   scratches the build keeps across levels and pool rebuilds. The
//!   local heaps are merged under the candidates' *total* order (ratio
//!   via `f64::total_cmp`, ties broken on the pair ids), so the
//!   surviving top-`Uh` set — and therefore the whole build — is
//!   bit-identical to the serial run. See DESIGN.md §4.6 for the
//!   determinism argument.

use crate::cluster::{ClusterState, ScoreScratch};
use crate::parallel;
use crate::queue::{MergeCandidate, MergeQueue, QueueStats};
use crate::sketch::TreeSketch;
use axqa_synopsis::{SizeModel, StableSummary};
use axqa_xml::fxhash::FxHashMap;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Tuning knobs of TSBUILD.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Target synopsis size in bytes (the paper's `S`).
    pub budget_bytes: usize,
    /// Max candidate-pool size (the paper's `Uh`; experiments use 10000).
    pub heap_upper: usize,
    /// Pool-regeneration threshold (the paper's `Lh`; experiments use 100).
    pub heap_lower: usize,
    /// Byte-accounting model.
    pub size_model: SizeModel,
    /// Groups up to this size get all-pairs candidates; larger groups use
    /// the sorted sliding window.
    pub group_all_pairs_cap: usize,
    /// Window width for large groups.
    pub window: usize,
    /// Worker threads for `CREATEPOOL` candidate scoring: `0` =
    /// available parallelism, `1` = the serial code path. Any value
    /// produces bit-identical output.
    pub threads: usize,
    /// Record every applied merge into [`BuildReport::merge_log`].
    /// Off by default: the log is test/diagnostic machinery (the
    /// lazy-vs-eager equivalence oracle compares full sequences) and
    /// recording it would allocate inside the merge loop.
    pub record_merges: bool,
}

impl BuildConfig {
    /// The paper's experimental settings (§6) with the given byte budget.
    pub fn with_budget(budget_bytes: usize) -> BuildConfig {
        BuildConfig {
            budget_bytes,
            heap_upper: 10_000,
            heap_lower: 100,
            size_model: SizeModel::TREESKETCH,
            group_all_pairs_cap: 48,
            window: 4,
            threads: 0,
            record_merges: false,
        }
    }

    /// Resolved worker count for the §4.2 `CREATEPOOL` scoring shards:
    /// `threads` if positive, otherwise the machine's available
    /// parallelism.
    pub fn effective_threads(&self) -> usize {
        axqa_xml::threads::resolve(self.threads)
    }
}

/// What TSBUILD did and produced.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// The constructed synopsis.
    pub sketch: TreeSketch,
    /// Number of merges applied.
    pub merges: usize,
    /// Number of CREATEPOOL invocations.
    pub pool_rebuilds: usize,
    /// Whether the budget was reached (false ⇒ the label-split floor was
    /// hit first).
    pub reached_budget: bool,
    /// Final size in bytes under the configured model.
    pub final_bytes: usize,
    /// Final squared error `sq(T S)`.
    pub squared_error: f64,
    /// Stable-class → sketch-node assignment (value layer, diagnostics).
    pub stable_assignment: Vec<u32>,
    /// Applied merges in order (resolved pair ids), recorded only when
    /// [`BuildConfig::record_merges`] is set; empty otherwise.
    pub merge_log: Vec<(u32, u32)>,
}

/// `TSBUILD` (Fig. 5): compress the stable summary of a document to
/// `config.budget_bytes`.
///
/// ```
/// use axqa_xml::parse_document;
/// use axqa_synopsis::build_stable;
/// use axqa_core::{ts_build, BuildConfig};
///
/// let doc = parse_document(
///     "<r><b><c/></b><b><c/><c/><c/></b><b><c/></b></r>",
/// ).unwrap();
/// let stable = build_stable(&doc);
/// // Compress below the exact size: similar b-classes merge.
/// let report = ts_build(&stable, &BuildConfig::with_budget(48));
/// assert!(report.merges >= 1);
/// assert!(report.sketch.len() < stable.len());
/// assert_eq!(report.sketch.total_elements(), doc.len() as u64);
/// ```
///
/// # Panics
///
/// Panics if `config.budget_bytes` is 0 — no synopsis fits in zero
/// bytes. Use [`try_ts_build`] to get a typed
/// [`crate::error::AxqaError::InvalidBudget`] instead.
pub fn ts_build(stable: &StableSummary, config: &BuildConfig) -> BuildReport {
    let mut state = ClusterState::new(stable, config.size_model);
    match ts_build_state(&mut state, config) {
        Ok(report) => report,
        // The error Display already carries the "ts_build" context.
        Err(error) => panic!("{error}"),
    }
}

/// Fallible `TSBUILD` (Fig. 5): like [`ts_build`], but rejects an empty
/// stable summary with [`crate::error::AxqaError::EmptySynopsis`], and a
/// zero byte budget with [`crate::error::AxqaError::InvalidBudget`],
/// instead of building a degenerate synopsis with no root (or
/// panicking).
pub fn try_ts_build(
    stable: &StableSummary,
    config: &BuildConfig,
) -> Result<BuildReport, crate::error::AxqaError> {
    if stable.is_empty() {
        return Err(crate::error::AxqaError::EmptySynopsis {
            context: "ts_build",
        });
    }
    let mut state = ClusterState::new(stable, config.size_model);
    ts_build_state(&mut state, config)
}

/// TSBUILD (Fig. 5) over a caller-provided state (lets tests inspect
/// the state). A zero budget is rejected with
/// [`crate::error::AxqaError::InvalidBudget`] up front: the merge loop
/// would otherwise run to the label-split floor and silently report
/// `reached_budget: false`, masking what is always a caller bug
/// (budgets are byte *capacities*).
pub fn ts_build_state(
    state: &mut ClusterState<'_>,
    config: &BuildConfig,
) -> Result<BuildReport, crate::error::AxqaError> {
    let budget_bytes = config.budget_bytes;
    if budget_bytes == 0 {
        return Err(crate::error::AxqaError::InvalidBudget {
            context: "ts_build",
        });
    }
    let run = merge_loop(state, config, &[budget_bytes], |_, _| {});
    let final_bytes = state.size_bytes();
    let (sketch, stable_assignment) = state.to_sketch_with_assignment();
    Ok(BuildReport {
        sketch,
        merges: run.merges,
        pool_rebuilds: run.pool_rebuilds,
        reached_budget: final_bytes <= budget_bytes,
        final_bytes,
        squared_error: state.squared_error(),
        stable_assignment,
        merge_log: run.merge_log,
    })
}

/// What one run of [`merge_loop`] did.
struct Trajectory {
    merges: usize,
    pool_rebuilds: usize,
    merge_log: Vec<(u32, u32)>,
}

/// The TSBUILD merge loop (Fig. 5), the one every build and budget
/// sweep runs: CREATEPOOL rounds drained through the lazy
/// [`MergeQueue`] until the size fits the last, smallest of `budgets`
/// (nonzero, in descending order) or the label-split floor stops it.
///
/// `fits(k, state)` is called once per budget, in order: where the
/// size first fits `budgets[k]`, or on the final state for the budgets
/// left at the floor. The budgets are only stopping points — pool
/// generation and the queue never read them — so the state handed out
/// at `budgets[k]` is the one an independent build at `budgets[k]`
/// ends with: up to that point both loops take the same steps.
fn merge_loop(
    state: &mut ClusterState<'_>,
    config: &BuildConfig,
    budgets: &[usize],
    mut fits: impl FnMut(usize, &ClusterState<'_>),
) -> Trajectory {
    let smallest = budgets.last().copied().unwrap_or(0);
    let _span = axqa_obs::span_with("TSBUILD", "budget_bytes", smallest as u64);
    let mut merges = 0usize;
    let mut pool_rebuilds = 0usize;
    let mut queue_stats = QueueStats::default();
    let mut merge_log: Vec<(u32, u32)> = Vec::new();
    // One scratch serves every lazy re-evaluation of this build and the
    // calling thread's CREATEPOOL share; the other CREATEPOOL workers
    // keep theirs for the whole build too.
    let mut scratch = ScoreScratch::new();
    let mut worker_scratches: Vec<ScoreScratch> = Vec::new();
    // The stop test: hands out every budget the state now fits, and
    // holds while one is left (with one budget, `size > budget`).
    let mut handed = 0usize;
    let mut pending = |state: &ClusterState<'_>| {
        while let Some(&budget) = budgets.get(handed) {
            if state.size_bytes() > budget {
                return true;
            }
            fits(handed, state);
            handed += 1;
        }
        false
    };

    while pending(state) {
        let pool = create_pool(state, config, &mut scratch, &mut worker_scratches);
        pool_rebuilds += 1;
        if pool.is_empty() {
            break; // label-split floor: nothing left to merge
        }
        // Small pools are drained completely; big ones down to Lh.
        let lower = if pool.len() > config.heap_lower {
            config.heap_lower
        } else {
            0
        };
        // Queue construction (heapify + score-memo seeding) allocates,
        // so it happens before the merge_loop span opens: the loop
        // itself stays allocation-free (tests/alloc_free.rs), with the
        // remaining evaluate_merge scratch growth and memo inserts
        // attributed to the merge_loop.score stretch span.
        let mut queue = MergeQueue::from_pool(pool, state);
        let _merge_span = axqa_obs::span_with("TSBUILD.merge_loop", "pool", queue.len() as u64);
        let merges_before = merges;
        while pending(state) {
            let Some((a, b)) = queue.next_merge(state, &mut scratch, lower) else {
                break; // drained to Lh without a fresh applicable merge
            };
            let _apply_span = axqa_obs::span("TSBUILD.merge_loop.apply");
            state.apply_merge(a, b);
            merges += 1;
            if config.record_merges {
                merge_log.push((a, b));
            }
        }
        let round = queue.stats();
        queue_stats.reevals = queue_stats.reevals.saturating_add(round.reevals);
        queue_stats.stale_skipped = queue_stats
            .stale_skipped
            .saturating_add(round.stale_skipped);
        queue_stats.adjacent_rescored = queue_stats
            .adjacent_rescored
            .saturating_add(round.adjacent_rescored);
        if merges == merges_before {
            break; // pool yielded no applicable merge: avoid spinning
        }
    }
    // The label-split floor stopped the loop: the budgets left get the
    // final state.
    for k in handed..budgets.len() {
        fits(k, state);
    }

    // The eager loop's tsbuild.reevals was reevals + stale_skipped: the
    // memo converts the skipped share into heap re-pushes with no
    // evaluate_merge behind them.
    axqa_obs::counter("tsbuild.reevals", queue_stats.reevals);
    axqa_obs::counter("tsbuild.stale_skipped", queue_stats.stale_skipped);
    axqa_obs::counter("tsbuild.adjacent_rescored", queue_stats.adjacent_rescored);
    axqa_obs::counter("tsbuild.merges", merges as u64);
    axqa_obs::counter("tsbuild.pool_rebuilds", pool_rebuilds as u64);
    Trajectory {
        merges,
        pool_rebuilds,
        merge_log,
    }
}

/// The pre-memo eager TSBUILD merge loop (paper §4.2, Fig. 6),
/// preserved verbatim as the reference oracle: every stale pop re-runs
/// `evaluate_merge` immediately, with no score memo in between. `tests/proptest_lazy_queue.rs` pins the
/// production [`try_ts_build`] path bitwise against this function —
/// same merge sequence ([`BuildReport::merge_log`] under
/// [`BuildConfig::record_merges`]), same `squared_error` bits, same
/// final bytes — under random documents × budgets.
///
/// Not on the production path and deliberately unobserved: it emits no
/// `TSBUILD` spans or `tsbuild.*` counters of its own (the `CREATEPOOL`
/// spans and counters of the shared pool generation still fire), so
/// running the oracle next to a measured build does not skew the
/// build's metrics.
///
/// # Errors
///
/// Rejects an empty stable summary
/// ([`crate::error::AxqaError::EmptySynopsis`]) and a zero byte budget
/// ([`crate::error::AxqaError::InvalidBudget`]), exactly like
/// [`try_ts_build`].
pub fn ts_build_eager(
    stable: &StableSummary,
    config: &BuildConfig,
) -> Result<BuildReport, crate::error::AxqaError> {
    if stable.is_empty() {
        return Err(crate::error::AxqaError::EmptySynopsis {
            context: "ts_build",
        });
    }
    let budget_bytes = config.budget_bytes;
    if budget_bytes == 0 {
        return Err(crate::error::AxqaError::InvalidBudget {
            context: "ts_build",
        });
    }
    let mut state = ClusterState::new(stable, config.size_model);
    let mut merges = 0usize;
    let mut pool_rebuilds = 0usize;
    let mut merge_log: Vec<(u32, u32)> = Vec::new();
    let mut scratch = ScoreScratch::new();
    let mut worker_scratches: Vec<ScoreScratch> = Vec::new();

    while state.size_bytes() > budget_bytes {
        let pool = create_pool(&state, config, &mut scratch, &mut worker_scratches);
        pool_rebuilds += 1;
        if pool.is_empty() {
            break;
        }
        let lower = if pool.len() > config.heap_lower {
            config.heap_lower
        } else {
            0
        };
        let mut heap: BinaryHeap<MergeCandidate> = pool.into();
        let merges_before = merges;
        while state.size_bytes() > budget_bytes && heap.len() > lower {
            let Some(cand) = heap.pop() else { break };
            let a = state.resolve(cand.a);
            let b = state.resolve(cand.b);
            if a == b {
                continue;
            }
            let fresh = a == cand.a
                && b == cand.b
                && state.version_of(a) == cand.version_a
                && state.version_of(b) == cand.version_b;
            if !fresh {
                let delta = state.evaluate_merge(a, b, &mut scratch);
                heap.push(MergeCandidate {
                    ratio: delta.ratio(),
                    a,
                    b,
                    version_a: state.version_of(a),
                    version_b: state.version_of(b),
                });
                continue;
            }
            state.apply_merge(a, b);
            merges += 1;
            if config.record_merges {
                merge_log.push((a, b));
            }
        }
        if merges == merges_before {
            break;
        }
    }

    let final_bytes = state.size_bytes();
    let (sketch, stable_assignment) = state.to_sketch_with_assignment();
    Ok(BuildReport {
        sketch,
        merges,
        pool_rebuilds,
        reached_budget: final_bytes <= budget_bytes,
        final_bytes,
        squared_error: state.squared_error(),
        stable_assignment,
        merge_log,
    })
}

/// Budget sweep: one TSBUILD (Fig. 5) run toward the smallest budget,
/// with a sketch taken where the size first fits each budget (or, for
/// the budgets left, at the label-split floor). Each sketch is the one
/// an independent [`ts_build`] at its budget returns, because a budget
/// only says where the merge loop stops; the sweep pays the
/// construction cost once. Returns sketches aligned with the input
/// order.
///
/// # Panics
///
/// Panics if any budget in `budgets` is 0 (see [`ts_build`]), before
/// any merge.
pub fn ts_build_sweep(
    stable: &StableSummary,
    budgets: &[usize],
    config: &BuildConfig,
) -> Vec<TreeSketch> {
    if budgets.contains(&0) {
        let error = crate::error::AxqaError::InvalidBudget {
            context: "ts_build",
        };
        panic!("ts_build_sweep: {error}");
    }
    let mut order: Vec<usize> = (0..budgets.len()).collect();
    order.sort_unstable_by(|&a, &b| budgets[b].cmp(&budgets[a])); // descending
    let descending: Vec<usize> = order.iter().map(|&i| budgets[i]).collect();
    let mut state = ClusterState::new(stable, config.size_model);
    let mut sketches: Vec<Option<TreeSketch>> = vec![None; budgets.len()];
    merge_loop(&mut state, config, &descending, |k, state| {
        let _span = axqa_obs::span("TSBUILD.to_sketch");
        sketches[order[k]] = Some(state.to_sketch());
    });
    sketches.into_iter().flatten().collect()
}

/// Minimum clusters at a level before scoring fans out; below this,
/// thread-spawn overhead dominates the evaluate_merge work.
const PARALLEL_LEVEL_MIN: usize = 32;

/// Candidate pairs a scoring worker claims at a time. A level fans out
/// only when it has more than one claim's worth.
const PAIRS_PER_CLAIM: usize = 32;

/// `CREATEPOOL` (Fig. 6): bottom-up (by node depth) generation of at most
/// `Uh` candidate merges, keeping the best ratios seen.
///
/// Each level's candidate pairs are listed once. On a large level,
/// [`BuildConfig::threads`] workers (the calling thread among them)
/// claim fixed-size runs of the list from a shared cursor and score
/// them into local bounded worst-first heaps, each with a scratch the
/// build keeps (`scratch` for the calling thread, `workers` for the
/// others); the local heaps are then merged under the candidates' total
/// order. Because keeping the `Uh` smallest elements of a set under a
/// total order is independent of visit order, the merged pool is
/// identical to the serial one, and the level-by-level early exit (the
/// paper's loop guard) is preserved by the per-level barrier.
fn create_pool(
    state: &ClusterState<'_>,
    config: &BuildConfig,
    scratch: &mut ScoreScratch,
    workers: &mut Vec<ScoreScratch>,
) -> Vec<MergeCandidate> {
    let threads = config.effective_threads().max(1);
    let _span = axqa_obs::span_with("CREATEPOOL", "threads", threads as u64);
    // Group live clusters by label; count clusters per depth so levels
    // with no work are skipped.
    let mut by_label: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    let mut max_depth = 0u32;
    let mut level_counts: Vec<usize> = Vec::new();
    for id in state.alive_ids() {
        let cluster = state.cluster(id);
        by_label.entry(cluster.label.0).or_default().push(id);
        max_depth = max_depth.max(cluster.depth);
        let depth = usize::try_from(cluster.depth).unwrap_or(usize::MAX);
        if level_counts.len() <= depth {
            level_counts.resize(depth + 1, 0);
        }
        level_counts[depth] += 1;
    }
    let groups: Vec<Vec<u32>> = by_label.into_values().collect();
    workers.resize_with(threads - 1, ScoreScratch::new);

    // Worst-ratio-on-top heap keeping the best `Uh` candidates.
    let mut best: BinaryHeap<WorstFirst> = BinaryHeap::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for level in 0..=max_depth {
        let at_level = usize::try_from(level)
            .ok()
            .and_then(|l| level_counts.get(l).copied())
            .unwrap_or(0);
        if at_level == 0 {
            continue; // no cluster has max(depth) == level here
        }
        pairs.clear();
        for group in &groups {
            level_pairs(state, config, level, group, &mut pairs);
        }
        if threads > 1 && at_level >= PARALLEL_LEVEL_MIN && pairs.len() > PAIRS_PER_CLAIM {
            score_level_parallel(state, config, &pairs, scratch, workers, &mut best);
        } else {
            let _score_span = axqa_obs::span_with("CREATEPOOL.score", "level", u64::from(level));
            for &(a, b) in &pairs {
                score_pair(state, config, &mut best, a, b, scratch);
            }
        }
        if best.len() >= config.heap_upper {
            break; // pool full and level exhausted (paper's loop guard)
        }
    }
    // Sorted, because the heap's layout depends on which worker scored
    // which pair, and `MergeQueue::from_pool` heapifies the pool as
    // given: ties between its candidates and later re-evaluations of the
    // same pair would otherwise pop in a timing-dependent order.
    best.into_sorted_vec().into_iter().map(|w| w.0).collect()
}

/// One level of Fig. 6 scoring on the claim loop: the calling thread
/// (with `scratch`) and one worker per scratch in `workers` claim
/// [`PAIRS_PER_CLAIM`] pairs at a time until the list is done, each
/// into a local bounded heap, and the local heaps are merged into
/// `best`.
fn score_level_parallel(
    state: &ClusterState<'_>,
    config: &BuildConfig,
    pairs: &[(u32, u32)],
    scratch: &mut ScoreScratch,
    workers: &mut [ScoreScratch],
    best: &mut BinaryHeap<WorstFirst>,
) {
    let mut lanes: Vec<(&mut ScoreScratch, BinaryHeap<WorstFirst>)> = std::iter::once(scratch)
        .chain(workers)
        .map(|scratch| (scratch, BinaryHeap::new()))
        .collect();
    parallel::claim_loop(
        "CREATEPOOL.score",
        &mut lanes,
        pairs.len(),
        PAIRS_PER_CLAIM,
        |(scratch, local), i| {
            if let Some(&(a, b)) = pairs.get(i) {
                score_pair(state, config, local, a, b, scratch);
            }
        },
    );
    for (_, local) in lanes {
        for worst in local {
            bounded_push(best, config.heap_upper, worst.0);
        }
    }
}

/// Lists one label group's candidate pairs at one level (Fig. 6 inner
/// loop) into `pairs`: all pairs while the group is small, sliding-window
/// neighbor pairs over the structural-key order otherwise.
fn level_pairs(
    state: &ClusterState<'_>,
    config: &BuildConfig,
    level: u32,
    group: &[u32],
    pairs: &mut Vec<(u32, u32)>,
) {
    // Pairs with max(depth) == level: one side at `level`, the other at
    // ≤ `level`.
    let at: Vec<u32> = group
        .iter()
        .copied()
        .filter(|&id| state.cluster(id).depth == level)
        .collect();
    if at.is_empty() {
        return;
    }
    let below: Vec<u32> = group
        .iter()
        .copied()
        .filter(|&id| state.cluster(id).depth < level)
        .collect();
    if at.len() + below.len() <= config.group_all_pairs_cap {
        for (i, &a) in at.iter().enumerate() {
            pairs.extend(at[i + 1..].iter().map(|&b| (a, b)));
            pairs.extend(below.iter().map(|&b| (a, b)));
        }
    } else {
        // Large group: sort by a cheap structural key, pair within a
        // sliding window. The cached sort computes each 4-word key once
        // per cluster instead of O(n log n) times.
        let mut sorted: Vec<u32> = at.iter().chain(below.iter()).copied().collect();
        sorted.sort_by_cached_key(|&id| structural_key(state, id));
        for (i, &a) in sorted.iter().enumerate() {
            for &b in sorted[i + 1..].iter().take(config.window) {
                // Skip pairs entirely below the level (they were
                // proposed at their own level).
                if state.cluster(a).depth.max(state.cluster(b).depth) == level {
                    pairs.push((a, b));
                }
            }
        }
    }
}

/// Evaluates one candidate pair and offers it to a bounded heap.
fn score_pair(
    state: &ClusterState<'_>,
    config: &BuildConfig,
    best: &mut BinaryHeap<WorstFirst>,
    a: u32,
    b: u32,
    scratch: &mut ScoreScratch,
) {
    axqa_obs::counter("tsbuild.candidates_scored", 1);
    let delta = state.evaluate_merge(a, b, scratch);
    let cand = MergeCandidate {
        ratio: delta.ratio(),
        a,
        b,
        version_a: state.version_of(a),
        version_b: state.version_of(b),
    };
    bounded_push(best, config.heap_upper, cand);
}

/// Keeps the `cap` smallest candidates under the total order. Eviction
/// compares the full `(ratio, a, b)` key, so the retained set is a pure
/// function of the offered *set* — the property the parallel shard
/// merge relies on.
fn bounded_push(best: &mut BinaryHeap<WorstFirst>, cap: usize, cand: MergeCandidate) {
    if cap == 0 {
        return;
    }
    if best.len() < cap {
        best.push(WorstFirst(cand));
    } else if let Some(top) = best.peek() {
        if cand.order_key(&top.0) == Ordering::Less {
            best.pop();
            best.push(WorstFirst(cand));
        }
    }
}

/// Cheap sort key grouping structurally similar clusters: first targets
/// and rounded average counts.
fn structural_key(state: &ClusterState<'_>, id: u32) -> [u64; 4] {
    let cluster = state.cluster(id);
    let n = cluster.elem_count as f64;
    let mut key = [0u64; 4];
    key[0] = cluster.stats.len() as u64;
    for (slot, &(target, stat)) in cluster.stats.iter().take(3).enumerate() {
        let avg = axqa_xml::f64_to_u64((stat.sum / n * 16.0).round()).min(u64::from(u32::MAX));
        key[slot + 1] = ((target as u64) << 32) | avg;
    }
    key
}

/// Max-heap wrapper: worst (largest) candidate under the total order on
/// top, for the bounded pool.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WorstFirst(MergeCandidate);
impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.order_key(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axqa_synopsis::build_stable;
    use axqa_xml::parse_document;
    use axqa_xml::threads::SPAWNS_LEFT;

    fn t1_doc() -> axqa_xml::Document {
        parse_document(
            "<r><a><b><c/></b><b><c/><c/><c/><c/></b></a>\
             <a><b><c/></b><b><c/><c/><c/><c/></b></a></r>",
        )
        .unwrap()
    }

    #[test]
    fn build_with_roomy_budget_keeps_stable_summary() {
        let doc = t1_doc();
        let stable = build_stable(&doc);
        let exact_bytes = SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges());
        let report = ts_build(&stable, &BuildConfig::with_budget(exact_bytes));
        assert_eq!(report.merges, 0);
        assert_eq!(report.sketch.len(), stable.len());
        assert_eq!(report.squared_error, 0.0);
        assert!(report.reached_budget);
    }

    #[test]
    fn build_compresses_to_budget() {
        let doc = t1_doc();
        let stable = build_stable(&doc);
        // Force merging the two b-classes: budget below the stable size.
        let exact_bytes = SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges());
        let report = ts_build(&stable, &BuildConfig::with_budget(exact_bytes - 1));
        assert!(report.merges >= 1);
        assert!(report.final_bytes < exact_bytes);
        assert!(report.squared_error > 0.0);
        assert_eq!(report.sketch.total_elements(), doc.len() as u64);
    }

    #[test]
    fn floor_is_label_split_graph() {
        let doc = t1_doc();
        let stable = build_stable(&doc);
        let report = ts_build(&stable, &BuildConfig::with_budget(1));
        // 4 labels → 4 clusters; cannot go lower.
        assert_eq!(report.sketch.len(), 4);
        assert!(!report.reached_budget);
        // Label-split of T1: b cluster holds both b classes; each element
        // of b has avg (1+4)/2 = 2.5 children in c.
        let b_label = doc.labels().get("b").unwrap();
        let b = report.sketch.nodes_with_label(b_label).next().unwrap();
        let b_node = report.sketch.node(b);
        assert_eq!(b_node.count, 4);
        assert_eq!(b_node.edges.len(), 1);
        assert!((b_node.edges[0].1 - 2.5).abs() < 1e-9);
        // sq error: 4 elements with counts {1,1,4,4} around 2.5 →
        // Σ(c−2.5)² = 2·(1.5²)+2·(1.5²) = 9.
        assert!((report.squared_error - 9.0).abs() < 1e-9);
    }

    #[test]
    fn merge_order_prefers_cheap_merges() {
        // Two near-identical b classes (counts 3 and 4) and one very
        // different (count 50): the first merge must pair 3 with 4.
        let mut src = String::from("<r>");
        for k in [3usize, 4, 50] {
            src.push_str("<a><b>");
            src.push_str(&"<c/>".repeat(k));
            src.push_str("</b></a>");
        }
        src.push_str("</r>");
        let doc = parse_document(&src).unwrap();
        let stable = build_stable(&doc);
        let model = SizeModel::TREESKETCH;
        let exact = model.graph_bytes(stable.len(), stable.num_edges());
        // Budget that exactly one merge can satisfy.
        let mut config = BuildConfig::with_budget(exact - 1);
        config.size_model = model;
        let report = ts_build(&stable, &config);
        assert_eq!(report.merges, 1);
        // sq error of merging {3,4}: mean 3.5, Σ = 0.25+0.25 = 0.5 per
        // element... elements: one each → 0.5. Merging {3,50} or {4,50}
        // would cost ≥ 1000. Also the parent a-classes merge error.
        assert!(report.squared_error < 10.0, "err={}", report.squared_error);
    }

    #[test]
    fn nan_ratio_candidates_sort_last_and_deterministically() {
        // A degenerate 0/0 merge delta yields ratio = NaN. Under the old
        // partial_cmp(..).unwrap_or(Equal) ordering a NaN silently
        // scrambled the heap; total_cmp sorts it *after* every finite
        // ratio, so it is popped last and evicted first.
        let mk = |ratio: f64, a: u32, b: u32| MergeCandidate {
            ratio,
            a,
            b,
            version_a: 0,
            version_b: 0,
        };
        let nan = f64::NAN;
        let mut heap: BinaryHeap<MergeCandidate> = BinaryHeap::new();
        heap.push(mk(nan, 7, 8));
        heap.push(mk(1.0, 3, 4));
        heap.push(mk(-2.0, 1, 2));
        heap.push(mk(1.0, 2, 9)); // ratio tie: id tie-break decides
        let popped: Vec<(u32, u32)> =
            std::iter::from_fn(|| heap.pop().map(|c| (c.a, c.b))).collect();
        // Min ratio first; among the two 1.0 ratios the smaller (a, b)
        // pair comes first; the NaN candidate is last.
        assert_eq!(popped, vec![(1, 2), (2, 9), (3, 4), (7, 8)]);

        // Bounded pools evict the NaN before any finite candidate.
        let mut best: BinaryHeap<WorstFirst> = BinaryHeap::new();
        bounded_push(&mut best, 2, mk(nan, 7, 8));
        bounded_push(&mut best, 2, mk(5.0, 3, 4));
        bounded_push(&mut best, 2, mk(1.0, 1, 2));
        let kept: Vec<(u32, u32)> = best.into_iter().map(|w| (w.0.a, w.0.b)).collect();
        assert_eq!(kept.len(), 2);
        assert!(kept.contains(&(3, 4)) && kept.contains(&(1, 2)), "{kept:?}");
    }

    /// A document whose stable summary has enough same-label classes to
    /// overflow `group_all_pairs_cap` and exercise every scoring path.
    pub(crate) fn many_class_doc() -> axqa_xml::Document {
        let mut src = String::from("<r>");
        for k in 1..=40 {
            src.push_str("<p>");
            src.push_str(&"<k/>".repeat(k));
            src.push_str(&"<m/>".repeat(k % 5 + 1));
            src.push_str("</p>");
        }
        for k in 1..=20 {
            src.push_str("<q><p>");
            src.push_str(&"<k/>".repeat(k * 2));
            src.push_str("</p></q>");
        }
        src.push_str("</r>");
        parse_document(&src).unwrap()
    }

    /// Worker count for the parallel side of the serial-vs-parallel
    /// oracles. CI's determinism-smoke job overrides it
    /// (`AXQA_TEST_THREADS=2`) so the oracle is exercised with a second
    /// thread topology off the reference host.
    pub(crate) fn test_threads() -> usize {
        std::env::var("AXQA_TEST_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(4)
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let doc = many_class_doc();
        let stable = build_stable(&doc);
        let exact = SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges());
        for budget in [exact / 2, exact / 4, 1] {
            let mut serial = BuildConfig::with_budget(budget);
            serial.threads = 1;
            let mut parallel = serial.clone();
            parallel.threads = test_threads();
            let s = ts_build(&stable, &serial);
            let p = ts_build(&stable, &parallel);
            assert_eq!(s.merges, p.merges, "budget {budget}");
            assert_eq!(s.pool_rebuilds, p.pool_rebuilds, "budget {budget}");
            assert_eq!(s.final_bytes, p.final_bytes, "budget {budget}");
            assert!(
                s.squared_error == p.squared_error, // bitwise: same merge sequence
                "budget {budget}: {} vs {}",
                s.squared_error,
                p.squared_error
            );
            assert_eq!(s.stable_assignment, p.stable_assignment, "budget {budget}");
            assert_eq!(s.sketch.len(), p.sketch.len());
            for (sn, pn) in s.sketch.nodes().iter().zip(p.sketch.nodes()) {
                assert_eq!(sn, pn, "budget {budget}");
            }
        }
    }

    #[test]
    fn pool_order_does_not_depend_on_threads() {
        // MergeQueue::from_pool heapifies the pool as given, so the
        // vector, not only its set of candidates, must be the serial one.
        let doc = many_class_doc();
        let stable = build_stable(&doc);
        let state = ClusterState::new(&stable, SizeModel::TREESKETCH);
        let mut serial = BuildConfig::with_budget(1);
        serial.threads = 1;
        let mut parallel = serial.clone();
        parallel.threads = test_threads();
        let pool = |config: &BuildConfig| -> Vec<(u64, u32, u32, u64, u64)> {
            create_pool(&state, config, &mut ScoreScratch::new(), &mut Vec::new())
                .iter()
                .map(|c| (c.ratio.to_bits(), c.a, c.b, c.version_a, c.version_b))
                .collect()
        };
        let expected = pool(&serial);
        assert!(expected.len() > PAIRS_PER_CLAIM);
        for _ in 0..8 {
            assert_eq!(pool(&parallel), expected);
        }
    }

    #[test]
    fn parallel_pool_with_refused_threads_is_the_serial_pool() {
        // With every scoring worker refused, the calling thread claims
        // the whole level alone, and the pool vector is the serial one.
        let doc = many_class_doc();
        let stable = build_stable(&doc);
        let state = ClusterState::new(&stable, SizeModel::TREESKETCH);
        let mut serial = BuildConfig::with_budget(1);
        serial.threads = 1;
        let mut parallel = serial.clone();
        parallel.threads = test_threads().max(2);
        let pool = |config: &BuildConfig| -> Vec<(u64, u32, u32, u64, u64)> {
            create_pool(&state, config, &mut ScoreScratch::new(), &mut Vec::new())
                .iter()
                .map(|c| (c.ratio.to_bits(), c.a, c.b, c.version_a, c.version_b))
                .collect()
        };
        let expected = pool(&serial);
        assert!(expected.len() > PAIRS_PER_CLAIM);
        SPAWNS_LEFT.set(1 << 20);
        assert_eq!(pool(&parallel), expected);
        assert!(SPAWNS_LEFT.get() < 1 << 20, "a level fans out");
        SPAWNS_LEFT.set(0);
        assert_eq!(pool(&parallel), expected);
        SPAWNS_LEFT.set(usize::MAX);
    }

    #[test]
    fn parallel_build_matches_serial_on_windowed_groups() {
        // Force the sliding-window path AND make levels large enough to
        // trigger the parallel shard (PARALLEL_LEVEL_MIN).
        let doc = many_class_doc();
        let stable = build_stable(&doc);
        let exact = SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges());
        let mut serial = BuildConfig::with_budget(exact / 3);
        serial.group_all_pairs_cap = 4;
        serial.window = 2;
        serial.threads = 1;
        let mut parallel = serial.clone();
        parallel.threads = test_threads();
        let s = ts_build(&stable, &serial);
        let p = ts_build(&stable, &parallel);
        assert!(s.merges >= 1, "windowed path produced no merges");
        assert_eq!(s.merges, p.merges);
        assert_eq!(s.final_bytes, p.final_bytes);
        assert!(s.squared_error == p.squared_error);
        assert_eq!(s.stable_assignment, p.stable_assignment);
    }

    #[test]
    fn large_group_window_path_reaches_budget() {
        // > group_all_pairs_cap same-label classes: CREATEPOOL must fall
        // back to the sliding window and still drive the build down.
        let doc = many_class_doc();
        let stable = build_stable(&doc);
        let exact = SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges());
        let mut config = BuildConfig::with_budget(exact / 2);
        config.group_all_pairs_cap = 8; // 40+ p-classes blow past this
        config.window = 3;
        let report = ts_build(&stable, &config);
        assert!(report.reached_budget, "window path failed to compress");
        assert!(report.merges >= 1);
        assert!(report.final_bytes <= exact / 2);
        assert_eq!(report.sketch.total_elements(), doc.len() as u64);
    }

    #[test]
    fn state_invariants_hold_through_building() {
        let doc = parse_document(
            "<r><a><b/><b/><c/></a><a><b/><c/><c/></a><a><b/><b/><b/></a>\
             <d><a><b/></a></d><d><a><c/></a></d></r>",
        )
        .unwrap();
        let stable = build_stable(&doc);
        let mut state = ClusterState::new(&stable, SizeModel::TREESKETCH);
        let config = BuildConfig::with_budget(1);
        let _ = ts_build_state(&mut state, &config).unwrap();
        state.verify().unwrap();
    }

    #[test]
    fn zero_budget_is_a_typed_error() {
        let doc = parse_document("<r><a/><a/></r>").unwrap();
        let stable = build_stable(&doc);

        let err = try_ts_build(&stable, &BuildConfig::with_budget(0)).unwrap_err();
        assert!(matches!(
            err,
            crate::error::AxqaError::InvalidBudget {
                context: "ts_build"
            }
        ));
        assert!(err.to_string().contains("at least 1 byte"));

        let mut state = ClusterState::new(&stable, SizeModel::TREESKETCH);
        let err = ts_build_state(&mut state, &BuildConfig::with_budget(0)).unwrap_err();
        assert!(matches!(err, crate::error::AxqaError::InvalidBudget { .. }));
    }

    #[test]
    #[should_panic(expected = "ts_build: synopsis byte budget")]
    fn infallible_ts_build_panics_on_zero_budget() {
        let doc = parse_document("<r><a/></r>").unwrap();
        let stable = build_stable(&doc);
        let _ = ts_build(&stable, &BuildConfig::with_budget(0));
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
    use axqa_synopsis::build_stable;
    use axqa_xml::parse_document;
    use axqa_xml::threads::SPAWNS_LEFT;

    /// Asserts that every swept sketch is, byte for byte, the one an
    /// independent `ts_build` at its budget returns.
    fn assert_sweep_is_independent(
        stable: &StableSummary,
        budgets: &[usize],
        config: &BuildConfig,
    ) {
        let sweep = ts_build_sweep(stable, budgets, config);
        assert_eq!(sweep.len(), budgets.len());
        for (&budget, swept) in budgets.iter().zip(&sweep) {
            let mut single = config.clone();
            single.budget_bytes = budget;
            let independent = ts_build(stable, &single).sketch;
            assert_eq!(
                crate::io::to_text(swept),
                crate::io::to_text(&independent),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn sweep_matches_independent_builds() {
        let doc = parse_document(
            "<r><a><b/><b/><c/></a><a><b/><c/><c/></a><a><b/><b/><b/></a>\
             <a><c/></a><d><a><b/></a></d><d><a><c/><c/></a></d></r>",
        )
        .unwrap();
        let stable = build_stable(&doc);
        let exact = SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges());
        let budgets = [exact / 2, exact * 3 / 4, exact / 4];
        assert_sweep_is_independent(&stable, &budgets, &BuildConfig::with_budget(0));
    }

    #[test]
    fn sweep_equals_independent_builds_at_two_budgets() {
        let doc = parse_document(
            "<r><a><b/><b/><b/></a><a><b/></a><a><b/><b/></a>\
             <c><a><b/><b/><b/><b/></a></c><c><a/></c></r>",
        )
        .unwrap();
        let stable = build_stable(&doc);
        let exact = SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges());
        let budgets = [exact * 2 / 3, exact / 3];
        let mut config = BuildConfig::with_budget(0);
        config.threads = super::tests::test_threads();
        assert_sweep_is_independent(&stable, &budgets, &config);
    }

    #[test]
    fn parallel_sweep_equals_independent_builds_on_many_classes() {
        // Enough classes that each budget stops mid-round: a sweep that
        // restarted CREATEPOOL at every budget would drift from the
        // independent builds here.
        let stable = build_stable(&super::tests::many_class_doc());
        let exact = SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges());
        let budgets = [exact / 2, exact / 3, exact / 4];
        let mut config = BuildConfig::with_budget(0);
        config.threads = super::tests::test_threads();
        assert_sweep_is_independent(&stable, &budgets, &config);
    }

    #[test]
    fn parallel_sweep_with_refused_threads_matches_serial() {
        // Every scoring worker refused: the calling thread scores each
        // CREATEPOOL level alone, and the sketches are the one-thread
        // sweep's, byte for byte.
        let doc = super::tests::many_class_doc();
        let stable = build_stable(&doc);
        let exact = SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges());
        let budgets = [exact / 2, exact / 3, exact / 4];
        let mut serial = BuildConfig::with_budget(0);
        serial.threads = 1;
        let mut parallel = serial.clone();
        parallel.threads = super::tests::test_threads().max(2);
        let sweep = |config: &BuildConfig| -> Vec<String> {
            ts_build_sweep(&stable, &budgets, config)
                .iter()
                .map(crate::io::to_text)
                .collect()
        };
        let expected = sweep(&serial);
        SPAWNS_LEFT.set(1 << 20);
        assert_eq!(sweep(&parallel), expected);
        assert!(SPAWNS_LEFT.get() < 1 << 20, "the sweep fans out");
        SPAWNS_LEFT.set(0);
        assert_eq!(sweep(&parallel), expected);
        SPAWNS_LEFT.set(usize::MAX);
    }

    #[test]
    #[should_panic(expected = "ts_build_sweep: ts_build: synopsis byte budget")]
    fn sweep_rejects_a_zero_budget() {
        let doc = parse_document("<r><a><b/></a><a><b/><b/></a></r>").unwrap();
        let _ = ts_build_sweep(
            &build_stable(&doc),
            &[64, 0, 32],
            &BuildConfig::with_budget(0),
        );
    }

    #[test]
    fn sweep_preserves_input_order() {
        let doc = parse_document("<r><a><b/></a><a><b/><b/></a><a><b/><b/><b/></a></r>").unwrap();
        let stable = build_stable(&doc);
        // Unsorted budgets: results must align with the inputs.
        let budgets = [64usize, 512, 128];
        let sweep = ts_build_sweep(&stable, &budgets, &BuildConfig::with_budget(0));
        assert_eq!(sweep.len(), 3);
        let model = SizeModel::TREESKETCH;
        assert!(sweep[1].size_bytes(&model) >= sweep[2].size_bytes(&model));
        assert!(sweep[2].size_bytes(&model) >= sweep[0].size_bytes(&model));
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;
    use axqa_synopsis::build_stable;
    use axqa_xml::parse_document;

    /// A document with many same-label classes (distinct keyword counts).
    fn wide_doc() -> axqa_xml::Document {
        let mut src = String::from("<r>");
        for k in 1..=30 {
            src.push_str("<p>");
            src.push_str(&"<k/>".repeat(k));
            src.push_str("</p>");
        }
        src.push_str("</r>");
        parse_document(&src).unwrap()
    }

    #[test]
    fn heap_upper_bound_is_respected() {
        let doc = wide_doc();
        let stable = build_stable(&doc);
        let mut config = BuildConfig::with_budget(1);
        config.heap_upper = 5;
        config.heap_lower = 1;
        // Must still reach the label-split floor despite the tiny pool.
        let report = ts_build(&stable, &config);
        assert_eq!(report.sketch.len(), doc.labels().len());
    }

    #[test]
    fn windowed_and_all_pairs_reach_the_same_floor() {
        let doc = wide_doc();
        let stable = build_stable(&doc);
        let mut windowed = BuildConfig::with_budget(1);
        windowed.group_all_pairs_cap = 4;
        windowed.window = 2;
        let mut all_pairs = BuildConfig::with_budget(1);
        all_pairs.group_all_pairs_cap = usize::MAX;
        let a = ts_build(&stable, &windowed);
        let b = ts_build(&stable, &all_pairs);
        assert_eq!(a.sketch.len(), b.sketch.len());
        // Full compression is partition-identical (label-split), so the
        // squared errors agree exactly.
        assert!((a.squared_error - b.squared_error).abs() < 1e-6);
    }

    #[test]
    fn all_pairs_never_loses_to_window_at_midrange_budgets() {
        let doc = wide_doc();
        let stable = build_stable(&doc);
        let exact = SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges());
        let budget = exact / 2;
        let mut windowed = BuildConfig::with_budget(budget);
        windowed.group_all_pairs_cap = 4;
        windowed.window = 2;
        let mut all_pairs = BuildConfig::with_budget(budget);
        all_pairs.group_all_pairs_cap = usize::MAX;
        let w = ts_build(&stable, &windowed);
        let a = ts_build(&stable, &all_pairs);
        // The exhaustive pool sees every candidate the window sees, so at
        // matched size its greedy result should not be (much) worse; the
        // window may pay a small quality price for its speed.
        assert!(
            a.squared_error <= w.squared_error * 1.5 + 1e-9,
            "all-pairs {} vs windowed {}",
            a.squared_error,
            w.squared_error
        );
    }
}
