//! Mutable clustering state over a count-stable skeleton.
//!
//! §4.2 describes TSBUILD as greedy agglomerative clustering whose
//! "sufficient statistics" (per-edge sums and sums of squares of child
//! counts) allow squared-error deltas to be computed without touching
//! base data — except for the cross terms that appear when two *target*
//! clusters merge, for which the paper admits "a small subset" of the
//! count-stable summary must be consulted. This module makes that
//! precise:
//!
//! * A TreeSketch under construction is a **partition of stable nodes**.
//!   Count stability means every element of a stable node `s` has the
//!   same child count `K(s, w) = Σ_{t ∈ w} k(s → t)` into any cluster
//!   `w`, so per-element statistics aggregate exactly from per-stable-node
//!   values weighted by extents.
//! * Each cluster `u` keeps, per child cluster `w`, the pair
//!   `(Σ_s n_s·K(s,w), Σ_s n_s·K(s,w)²)`; the squared error contribution
//!   of the direction `(u, w)` is `sum2 − sum²/N_u` and `sq(T S)` is the
//!   grand total.
//! * Merging clusters `a, b` updates only: the merged cluster's own map
//!   (pointwise sums), and the maps of clusters with edges *into* `a` or
//!   `b`, whose `K(s,a)` and `K(s,b)` values collapse into
//!   `K(s,a)+K(s,b)` — the cross term `2Σ n_s K(s,a) K(s,b)` is computed
//!   exactly by scanning the (typically short) incoming stable-node
//!   lists. This is the paper's `affected(h, m)` locality.

use crate::sketch::{TreeSketch, TsNode, TsNodeId};
use axqa_synopsis::{SizeModel, StableSummary, SynNodeId};
use axqa_xml::fxhash::FxHashMap;
use axqa_xml::LabelId;

/// Per-direction sufficient statistics: `Σ n_s·K` and `Σ n_s·K²`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EdgeStat {
    /// Weighted sum of per-element child counts.
    pub sum: f64,
    /// Weighted sum of squared per-element child counts.
    pub sum2: f64,
}

impl EdgeStat {
    #[inline]
    fn err(&self, n: f64) -> f64 {
        // Clamp tiny negative values produced by floating-point noise.
        (self.sum2 - self.sum * self.sum / n).max(0.0)
    }

    #[inline]
    fn add(&mut self, other: EdgeStat) {
        self.sum += other.sum;
        self.sum2 += other.sum2;
    }
}

/// One cluster of stable nodes.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Common label.
    pub label: LabelId,
    /// Whether the cluster is part of the current partition.
    pub alive: bool,
    /// Member stable nodes.
    pub members: Vec<u32>,
    /// `N_u`: total elements (Σ member extents).
    pub elem_count: u64,
    /// Max leafward depth over members (static under merges).
    pub depth: u32,
    /// Sorted `(child cluster, stats)` pairs.
    pub stats: Vec<(u32, EdgeStat)>,
}

impl Cluster {
    fn stat(&self, target: u32) -> EdgeStat {
        self.stats
            .binary_search_by_key(&target, |&(t, _)| t)
            .map(|i| self.stats[i].1)
            .unwrap_or_default()
    }

    fn err_total(&self) -> f64 {
        let n = self.elem_count as f64;
        self.stats.iter().map(|(_, s)| s.err(n)).sum()
    }
}

/// Outcome of evaluating a candidate merge without applying it.
///
/// `errd` is usually positive (coarser clustering), but can be
/// *negative* on the parent side: when elements have anti-correlated
/// child counts into the two merged targets, `Var(A+B) =
/// Var(A)+Var(B)+2Cov(A,B)` shrinks. Such merges are free quality wins
/// and rank first in the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeDelta {
    /// Change in `sq(T S)` (the paper's `m.errd`).
    pub errd: f64,
    /// Decrease in synopsis bytes (the paper's `m.sized`), > 0.
    pub sized: usize,
}

impl MergeDelta {
    /// The marginal-gain ratio the candidate heap is ordered by.
    pub fn ratio(&self) -> f64 {
        self.errd / self.sized as f64
    }
}

/// Reusable allocation-free workspace for [`ClusterState::evaluate_merge`].
///
/// TSBUILD scores hundreds of thousands of candidates per build, and the
/// original kernel allocated two fresh hash maps per candidate (cross
/// terms, parent dedup). The scratch replaces both with dense arrays
/// indexed by cluster id and stamped by a generation counter: an entry is
/// live iff its stamp equals the current generation, so "clearing"
/// between candidates is a single counter bump. The arrays grow with
/// power-of-two headroom over the cluster-id space and then stay put —
/// steady-state scoring performs zero heap allocation (the
/// `tsbuild.scratch_reuses` counter tracks exactly that).
///
/// Create one per `CREATEPOOL` scoring worker plus one for the merge
/// loop's lazy re-evaluations, and pass it to every `evaluate_merge`
/// call.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    /// Current generation; entries stamped differently are dead.
    generation: u64,
    /// Cross-term mass per parent cluster id.
    cross: Vec<f64>,
    /// Stamps validating `cross` entries.
    cross_stamp: Vec<u64>,
    /// Parent-side dedup stamps (the set `parents_seen` used to fake
    /// with a `FxHashMap<u32, ()>`).
    seen_stamp: Vec<u64>,
    /// Binary searches performed by the current evaluation; flushed to
    /// the `tsbuild.stat_bsearch` counter once per call.
    bsearches: u64,
    /// Epoch of the [`ClusterState`] the persistent caches below were
    /// filled from; a scratch reused against a *different* state drops
    /// them wholesale (cluster ids are only meaningful per state).
    epoch: u64,
    /// Cached `Cluster::err_total` per cluster id — the `old_child_err`
    /// term every evaluation of a cluster recomputes otherwise.
    err_cache: Vec<f64>,
    /// Stamps validating `err_cache`: the cluster's stats version + 1
    /// (0 = empty), so any stats change invalidates the entry for free.
    err_stamp: Vec<u64>,
    /// Structure-of-arrays child-side buffers: the merge-join writes the
    /// combined `(sum, sum2)` pairs of non-self targets into these two
    /// dense lanes, and a separate in-order pass folds the per-target
    /// errors. Splitting the join from the arithmetic keeps the error
    /// pass a branch-free stream over contiguous `f64`s (SIMD-friendly)
    /// without changing the fold order the bitwise oracles pin.
    child_sum: Vec<f64>,
    /// Second SoA lane (see `child_sum`).
    child_sum2: Vec<f64>,
}

impl ScoreScratch {
    /// A fresh scratch; the arrays grow on first use.
    pub fn new() -> ScoreScratch {
        ScoreScratch::default()
    }

    /// Opens a new generation able to address cluster ids `< n`, bound
    /// to the state identified by `epoch`.
    fn begin(&mut self, n: usize, epoch: u64) {
        self.generation = self.generation.wrapping_add(1);
        self.bsearches = 0;
        if self.epoch != epoch {
            // Scratch moved across ClusterStates: the err cache is keyed
            // by cluster id and would alias between states.
            self.epoch = epoch;
            for stamp in &mut self.err_stamp {
                *stamp = 0;
            }
        }
        if self.cross.len() < n {
            // Power-of-two headroom: a handful of growths per build,
            // every later call is a pure reuse.
            let cap = n.next_power_of_two();
            self.cross.resize(cap, 0.0);
            self.cross_stamp.resize(cap, 0);
            self.seen_stamp.resize(cap, 0);
            self.err_cache.resize(cap, 0.0);
            self.err_stamp.resize(cap, 0);
        } else {
            axqa_obs::counter("tsbuild.scratch_reuses", 1);
        }
        self.child_sum.clear();
        self.child_sum2.clear();
    }

    #[inline]
    fn add_cross(&mut self, parent: u32, value: f64) {
        let i = parent as usize;
        if self.cross_stamp[i] == self.generation {
            self.cross[i] += value;
        } else {
            self.cross_stamp[i] = self.generation;
            self.cross[i] = value;
        }
    }

    /// Cross-term mass accumulated for `parent` this generation.
    #[inline]
    fn cross_of(&self, parent: u32) -> f64 {
        let i = parent as usize;
        if self.cross_stamp[i] == self.generation {
            self.cross[i]
        } else {
            0.0
        }
    }

    /// True the first time `parent` is seen this generation.
    #[inline]
    fn first_visit(&mut self, parent: u32) -> bool {
        let i = parent as usize;
        if self.seen_stamp[i] == self.generation {
            false
        } else {
            self.seen_stamp[i] = self.generation;
            true
        }
    }
}

/// The mutable clustering state TSBUILD and the top-down ablation operate
/// on.
pub struct ClusterState<'a> {
    stable: &'a StableSummary,
    model: SizeModel,
    /// stable node → cluster id (always resolved / alive).
    cluster_of: Vec<u32>,
    clusters: Vec<Cluster>,
    /// Per stable node: sorted `(cluster, K)` with `K ≥ 1` — its exact
    /// child counts into current clusters.
    child_k: Vec<Vec<(u32, u64)>>,
    /// Per cluster: sorted stable nodes with ≥ 1 edge into it.
    incoming: Vec<Vec<u32>>,
    /// Forwarding chain for dead clusters.
    merged_into: Vec<u32>,
    /// Stats version per cluster, for lazy heap invalidation.
    version: Vec<u64>,
    /// Merge-generation stamp per cluster: bumped whenever *any* input
    /// of an `evaluate_merge` involving the cluster can have changed —
    /// its own stats changed (superset of `version` bumps) or a parent
    /// cluster of it died in a merge. Two evaluations of the same pair
    /// at equal stamps are therefore bitwise identical, which is the
    /// score-memo invariant the lazy merge queue relies on
    /// (DESIGN.md §13).
    merge_gen: Vec<u64>,
    /// Identity of this state for cross-state scratch reuse (see
    /// [`ScoreScratch::begin`]); unique per constructed state.
    epoch: u64,
    alive: usize,
    total_edges: usize,
    total_sq: f64,
    /// Reusable `(target, visit order, stat)` buffer for
    /// [`Self::recompute_stats`]; grows to the largest recomputed
    /// cluster once, then recomputations are allocation-free.
    raw_scratch: Vec<(u32, usize, EdgeStat)>,
}

impl<'a> ClusterState<'a> {
    /// Initial state: one cluster per stable node (the exact TreeSketch,
    /// squared error 0).
    pub fn new(stable: &'a StableSummary, model: SizeModel) -> ClusterState<'a> {
        let n = stable.len();
        let mut clusters = Vec::with_capacity(n);
        let mut child_k = Vec::with_capacity(n);
        let mut incoming = vec![Vec::new(); n];
        let mut total_edges = 0usize;
        for (i, node) in stable.nodes().iter().enumerate() {
            let n_s = node.extent as f64;
            let stats: Vec<(u32, EdgeStat)> = node
                .children
                .iter()
                .map(|&(t, k)| {
                    let k = k as f64;
                    (
                        t.0,
                        EdgeStat {
                            sum: n_s * k,
                            sum2: n_s * k * k,
                        },
                    )
                })
                .collect();
            total_edges += stats.len();
            child_k.push(
                node.children
                    .iter()
                    .map(|&(t, k)| (t.0, k as u64))
                    .collect::<Vec<_>>(),
            );
            for &(t, _) in &node.children {
                incoming[t.index()].push(axqa_xml::dense_id(i));
            }
            clusters.push(Cluster {
                label: node.label,
                alive: true,
                members: vec![axqa_xml::dense_id(i)],
                elem_count: node.extent,
                depth: node.depth,
                stats,
            });
        }
        // A process-unique epoch per state: lets a reused ScoreScratch
        // detect that its id-keyed caches belong to another state.
        static NEXT_EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        ClusterState {
            stable,
            model,
            cluster_of: (0..axqa_xml::dense_id(n)).collect(),
            clusters,
            child_k,
            incoming,
            merged_into: (0..axqa_xml::dense_id(n)).collect(),
            version: vec![0; n],
            merge_gen: vec![0; n],
            epoch: NEXT_EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            alive: n,
            total_edges,
            total_sq: 0.0,
            raw_scratch: Vec::new(),
        }
    }

    /// The stable skeleton.
    pub fn stable(&self) -> &'a StableSummary {
        self.stable
    }

    /// The size model in effect.
    pub fn model(&self) -> &SizeModel {
        &self.model
    }

    /// Number of alive clusters.
    pub fn num_alive(&self) -> usize {
        self.alive
    }

    /// Current total squared error `sq(T S)`.
    pub fn squared_error(&self) -> f64 {
        self.total_sq
    }

    /// Current synopsis size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.model.graph_bytes(self.alive, self.total_edges)
    }

    /// The live cluster a (possibly dead) id forwards to.
    pub fn resolve(&self, mut id: u32) -> u32 {
        while self.merged_into[id as usize] != id {
            id = self.merged_into[id as usize];
        }
        id
    }

    /// [`Self::resolve`] with path halving: every visited entry is
    /// re-pointed at its grandparent, so forwarding chains built up over
    /// tens of thousands of merges amortize toward length one. Returns
    /// the same root as `resolve` — halving only shortcuts *along* the
    /// chain, never past the current root, so a later redirect of that
    /// root (`apply_split`) still reaches everything behind it.
    pub fn resolve_compress(&mut self, mut id: u32) -> u32 {
        loop {
            let parent = self.merged_into[id as usize];
            if parent == id {
                return id;
            }
            let grand = self.merged_into[parent as usize];
            self.merged_into[id as usize] = grand;
            id = grand;
        }
    }

    /// Whether `id` names a live cluster.
    pub fn is_alive(&self, id: u32) -> bool {
        self.clusters[id as usize].alive
    }

    /// The cluster with id `id`.
    pub fn cluster(&self, id: u32) -> &Cluster {
        &self.clusters[id as usize]
    }

    /// Stats version of a cluster (for lazy invalidation).
    pub fn version_of(&self, id: u32) -> u64 {
        self.version[id as usize]
    }

    /// Merge-generation stamp of a cluster. Invariant: between two
    /// moments at which `merge_gen_of(a)` *and* `merge_gen_of(b)` are
    /// unchanged, `evaluate_merge(a, b, _)` returns bitwise-identical
    /// results — the stamp is bumped for every cluster whose own stats
    /// changed and for every child of a merged pair (whose parent-side
    /// inputs changed). The lazy merge queue keys its score memo on
    /// these stamps.
    pub fn merge_gen_of(&self, id: u32) -> u64 {
        self.merge_gen[id as usize]
    }

    /// Ids of all live clusters.
    pub fn alive_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.alive)
            .map(|(i, _)| axqa_xml::dense_id(i))
    }

    /// The cluster currently containing `stable_node`.
    pub fn cluster_of(&self, stable_node: SynNodeId) -> u32 {
        self.cluster_of[stable_node.index()]
    }

    /// Cross terms `Σ_p Σ_{s∈p} n_s·K(s,a)·K(s,b)` grouped by the parent
    /// cluster `p`, computed by scanning the shorter incoming list.
    ///
    /// Accumulates into `scratch` (stamped dense array) instead of a
    /// per-call hash map; the per-parent accumulation order is the scan
    /// order of the probe list, exactly as it was with the hash map, so
    /// the sums are bitwise identical to
    /// [`Self::cross_terms_reference`].
    fn cross_terms(&self, a: u32, b: u32, scratch: &mut ScoreScratch) {
        let (probe, other) = if self.incoming[a as usize].len() <= self.incoming[b as usize].len() {
            (a, b)
        } else {
            (b, a)
        };
        for &s in &self.incoming[probe as usize] {
            scratch.bsearches = scratch.bsearches.wrapping_add(1);
            let ka = self.k_of(s, probe);
            if ka == 0 {
                continue;
            }
            scratch.bsearches = scratch.bsearches.wrapping_add(1);
            let kb = self.k_of(s, other);
            if kb == 0 {
                continue;
            }
            let n_s = self.stable.node(SynNodeId(s)).extent as f64;
            scratch.add_cross(self.cluster_of[s as usize], n_s * ka as f64 * kb as f64);
        }
    }

    /// Reference implementation of the cross-term computation, retained
    /// from the pre-scratch kernel: a per-call hash-map accumulation.
    /// The merge-kernel proptests pin the scratch-based path against it;
    /// it is not on any hot path.
    pub fn cross_terms_reference(&self, a: u32, b: u32) -> FxHashMap<u32, f64> {
        let mut cross: FxHashMap<u32, f64> = FxHashMap::default();
        let (probe, other) = if self.incoming[a as usize].len() <= self.incoming[b as usize].len() {
            (a, b)
        } else {
            (b, a)
        };
        for &s in &self.incoming[probe as usize] {
            let ka = self.k_of(s, probe);
            if ka == 0 {
                continue;
            }
            let kb = self.k_of(s, other);
            if kb == 0 {
                continue;
            }
            let n_s = self.stable.node(SynNodeId(s)).extent as f64;
            *cross.entry(self.cluster_of[s as usize]).or_insert(0.0) += n_s * ka as f64 * kb as f64;
        }
        cross
    }

    #[inline]
    fn k_of(&self, stable_node: u32, cluster: u32) -> u64 {
        let list = &self.child_k[stable_node as usize];
        list.binary_search_by_key(&cluster, |&(c, _)| c)
            .map(|i| list[i].1)
            .unwrap_or(0)
    }

    /// `Cluster::err_total` through the scratch's per-cluster cache: the
    /// recomputation (an in-order fold over the cluster's stats) only
    /// runs when the cluster's stats version moved since the cached
    /// fold, so repeated evaluations touching the same clusters — the
    /// common case in both CREATEPOOL groups and the merge loop — skip
    /// the O(|stats|) scan. The cached value is the bitwise result of
    /// the fold it replaces.
    fn err_total_cached(&self, id: u32, scratch: &mut ScoreScratch) -> f64 {
        let slot = id as usize;
        let stamp = self.version[slot].wrapping_add(1);
        if scratch.err_stamp[slot] == stamp {
            scratch.err_cache[slot]
        } else {
            let err = self.clusters[slot].err_total();
            scratch.err_stamp[slot] = stamp;
            scratch.err_cache[slot] = err;
            err
        }
    }

    /// Evaluates the merge of live clusters `a` and `b` (same label)
    /// without applying it. The caller provides a [`ScoreScratch`];
    /// steady-state evaluation performs no heap allocation.
    ///
    /// # Panics
    /// Panics (debug) if the clusters are dead, equal, or differ in label.
    pub fn evaluate_merge(&self, a: u32, b: u32, scratch: &mut ScoreScratch) -> MergeDelta {
        debug_assert!(a != b && self.is_alive(a) && self.is_alive(b));
        debug_assert_eq!(
            self.clusters[a as usize].label,
            self.clusters[b as usize].label
        );
        let ca = &self.clusters[a as usize];
        let cb = &self.clusters[b as usize];
        let na = ca.elem_count as f64;
        let nb = cb.elem_count as f64;
        let nc = na + nb;

        scratch.begin(self.clusters.len(), self.epoch);
        self.cross_terms(a, b, scratch);

        // --- Child side: err of the merged cluster vs err(a) + err(b).
        // Merge the two sorted stats lists, collapsing targets a and b
        // into the future cluster c. Non-self targets stream their
        // combined (sum, sum2) pairs into the scratch's SoA lanes; the
        // error arithmetic runs as a separate pass below.
        let mut self_stat = EdgeStat::default(); // target c after rename
        let mut has_self = false;
        {
            let mut i = 0;
            let mut j = 0;
            let sa = &ca.stats;
            let sb = &cb.stats;
            let mut handle = |target: u32, stat: EdgeStat, scratch: &mut ScoreScratch| {
                if target == a || target == b {
                    self_stat.add(stat);
                    has_self = true;
                } else {
                    scratch.child_sum.push(stat.sum);
                    scratch.child_sum2.push(stat.sum2);
                }
            };
            while i < sa.len() || j < sb.len() {
                if j >= sb.len() || (i < sa.len() && sa[i].0 < sb[j].0) {
                    handle(sa[i].0, sa[i].1, scratch);
                    i += 1;
                } else if i >= sa.len() || sb[j].0 < sa[i].0 {
                    handle(sb[j].0, sb[j].1, scratch);
                    j += 1;
                } else {
                    let mut merged = sa[i].1;
                    merged.add(sb[j].1);
                    handle(sa[i].0, merged, scratch);
                    i += 1;
                    j += 1;
                }
            }
        }
        // SoA error pass: per lane `(sum2 − sum²/nc).max(0)` — the exact
        // per-target expression of `EdgeStat::err`, folded in the same
        // (target) order the inline version used, so the total is
        // bitwise identical while the elementwise arithmetic runs over
        // two contiguous f64 streams.
        let mut new_child_err = 0.0f64;
        for (&sum, &sum2) in scratch.child_sum.iter().zip(scratch.child_sum2.iter()) {
            new_child_err += (sum2 - sum * sum / nc).max(0.0);
        }
        let mut new_child_edges = scratch.child_sum.len();
        if has_self {
            // Self-loop target: members of a∪b with edges into a or b;
            // K values combine, adding the exact cross term.
            let self_cross = scratch.cross_of(a) + scratch.cross_of(b);
            self_stat.sum2 += 2.0 * self_cross;
            new_child_err += self_stat.err(nc);
            new_child_edges += 1;
        }
        let old_child_err = self.err_total_cached(a, scratch) + self.err_total_cached(b, scratch);
        let mut errd = new_child_err - old_child_err;
        let child_edges_removed = ca.stats.len() + cb.stats.len() - new_child_edges;

        // --- Parent side: clusters (≠ a, b) with edges into a or b,
        //     deduplicated by generation stamp.
        let mut parent_edges_removed = 0usize;
        for list in [&self.incoming[a as usize], &self.incoming[b as usize]] {
            for &s in list.iter() {
                let p = self.cluster_of[s as usize];
                if p == a || p == b {
                    continue;
                }
                if !scratch.first_visit(p) {
                    continue;
                }
                let cp = &self.clusters[p as usize];
                let np = cp.elem_count as f64;
                scratch.bsearches = scratch.bsearches.wrapping_add(2);
                let stat_a = cp.stat(a);
                let stat_b = cp.stat(b);
                let had_a = stat_a.sum > 0.0;
                let had_b = stat_b.sum > 0.0;
                if had_a && had_b {
                    parent_edges_removed += 1;
                }
                let old = stat_a.err(np) + stat_b.err(np);
                let mut merged = stat_a;
                merged.add(stat_b);
                merged.sum2 += 2.0 * scratch.cross_of(p);
                errd += merged.err(np) - old;
            }
        }
        axqa_obs::counter("tsbuild.stat_bsearch", scratch.bsearches);

        let sized = self.model.node_bytes
            + self.model.edge_bytes * (child_edges_removed + parent_edges_removed);
        MergeDelta { errd, sized }
    }

    /// Reference implementation of [`Self::evaluate_merge`], retained
    /// from the pre-scratch kernel (per-call hash maps instead of
    /// stamped arrays). Produces a bitwise-identical [`MergeDelta`]; the
    /// proptests in `tests/proptest_merge_kernel.rs` enforce exactly
    /// that. Not on any hot path.
    pub fn evaluate_merge_reference(&self, a: u32, b: u32) -> MergeDelta {
        debug_assert!(a != b && self.is_alive(a) && self.is_alive(b));
        debug_assert_eq!(
            self.clusters[a as usize].label,
            self.clusters[b as usize].label
        );
        let ca = &self.clusters[a as usize];
        let cb = &self.clusters[b as usize];
        let na = ca.elem_count as f64;
        let nb = cb.elem_count as f64;
        let nc = na + nb;

        let cross = self.cross_terms_reference(a, b);

        // --- Child side: err of the merged cluster vs err(a) + err(b).
        let mut new_child_err = 0.0f64;
        let mut new_child_edges = 0usize;
        let mut self_stat = EdgeStat::default(); // target c after rename
        let mut has_self = false;
        {
            let mut i = 0;
            let mut j = 0;
            let sa = &ca.stats;
            let sb = &cb.stats;
            let mut handle = |target: u32, stat: EdgeStat| {
                if target == a || target == b {
                    self_stat.add(stat);
                    has_self = true;
                } else {
                    new_child_err += stat.err(nc);
                    new_child_edges += 1;
                }
            };
            while i < sa.len() || j < sb.len() {
                if j >= sb.len() || (i < sa.len() && sa[i].0 < sb[j].0) {
                    handle(sa[i].0, sa[i].1);
                    i += 1;
                } else if i >= sa.len() || sb[j].0 < sa[i].0 {
                    handle(sb[j].0, sb[j].1);
                    j += 1;
                } else {
                    let mut merged = sa[i].1;
                    merged.add(sb[j].1);
                    handle(sa[i].0, merged);
                    i += 1;
                    j += 1;
                }
            }
        }
        if has_self {
            let self_cross =
                cross.get(&a).copied().unwrap_or(0.0) + cross.get(&b).copied().unwrap_or(0.0);
            self_stat.sum2 += 2.0 * self_cross;
            new_child_err += self_stat.err(nc);
            new_child_edges += 1;
        }
        let old_child_err = ca.err_total() + cb.err_total();
        let mut errd = new_child_err - old_child_err;
        let child_edges_removed = ca.stats.len() + cb.stats.len() - new_child_edges;

        // --- Parent side: clusters (≠ a, b) with edges into a or b.
        let mut parent_edges_removed = 0usize;
        let mut parents_seen: FxHashMap<u32, ()> = FxHashMap::default();
        for list in [&self.incoming[a as usize], &self.incoming[b as usize]] {
            for &s in list.iter() {
                let p = self.cluster_of[s as usize];
                if p == a || p == b {
                    continue;
                }
                if parents_seen.insert(p, ()).is_some() {
                    continue;
                }
                let cp = &self.clusters[p as usize];
                let np = cp.elem_count as f64;
                let stat_a = cp.stat(a);
                let stat_b = cp.stat(b);
                let had_a = stat_a.sum > 0.0;
                let had_b = stat_b.sum > 0.0;
                if had_a && had_b {
                    parent_edges_removed += 1;
                }
                let old = stat_a.err(np) + stat_b.err(np);
                let mut merged = stat_a;
                merged.add(stat_b);
                merged.sum2 += 2.0 * cross.get(&p).copied().unwrap_or(0.0);
                errd += merged.err(np) - old;
            }
        }

        let sized = self.model.node_bytes
            + self.model.edge_bytes * (child_edges_removed + parent_edges_removed);
        MergeDelta { errd, sized }
    }

    /// Applies the merge of `a` and `b`, returning the new cluster id.
    pub fn apply_merge(&mut self, a: u32, b: u32) -> u32 {
        debug_assert!(a != b && self.is_alive(a) && self.is_alive(b));
        let c = axqa_xml::dense_id(self.clusters.len());

        // -- Capture the error/edge mass the merge will replace. The
        //    accounting is O(affected): a's and b's own contributions
        //    (which the merge consumes anyway) plus, per parent, only
        //    its entries for targets a and b — never a full `err_total`
        //    scan over a parent's untouched entries. Parent stats list
        //    lengths are O(1) reads whose unchanged part cancels in the
        //    edge delta below.
        let incoming_ab: Vec<u32> = {
            let mut v = self.incoming[a as usize].clone();
            v.extend_from_slice(&self.incoming[b as usize]);
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut parent_set: Vec<u32> = incoming_ab
            .iter()
            .map(|&s| self.cluster_of[s as usize])
            .filter(|&p| p != a && p != b)
            .collect();
        parent_set.sort_unstable();
        parent_set.dedup();
        let mut old_contrib =
            self.clusters[a as usize].err_total() + self.clusters[b as usize].err_total();
        let mut old_edges =
            self.clusters[a as usize].stats.len() + self.clusters[b as usize].stats.len();
        for &p in &parent_set {
            let cp = &self.clusters[p as usize];
            let np = cp.elem_count as f64;
            old_contrib += cp.stat(a).err(np) + cp.stat(b).err(np);
            old_edges += cp.stats.len();
        }

        // -- 1. Create cluster c, reassign membership.
        let label = self.clusters[a as usize].label;
        let depth = self.clusters[a as usize]
            .depth
            .max(self.clusters[b as usize].depth);
        let elem_count = self.clusters[a as usize]
            .elem_count
            .saturating_add(self.clusters[b as usize].elem_count);
        let mut members = std::mem::take(&mut self.clusters[a as usize].members);
        members.append(&mut self.clusters[b as usize].members);
        for &s in &members {
            self.cluster_of[s as usize] = c;
        }

        // -- 2. c's stats: pointwise union of a's and b's (targets a and b
        //       stay keyed as-is; step 3 renames them).
        let stats_a = std::mem::take(&mut self.clusters[a as usize].stats);
        let stats_b = std::mem::take(&mut self.clusters[b as usize].stats);
        let mut stats_c: Vec<(u32, EdgeStat)> = Vec::with_capacity(stats_a.len() + stats_b.len());
        {
            let mut i = 0;
            let mut j = 0;
            while i < stats_a.len() || j < stats_b.len() {
                if j >= stats_b.len() || (i < stats_a.len() && stats_a[i].0 < stats_b[j].0) {
                    stats_c.push(stats_a[i]);
                    i += 1;
                } else if i >= stats_a.len() || stats_b[j].0 < stats_a[i].0 {
                    stats_c.push(stats_b[j]);
                    j += 1;
                } else {
                    let mut merged = stats_a[i].1;
                    merged.add(stats_b[j].1);
                    stats_c.push((stats_a[i].0, merged));
                    i += 1;
                    j += 1;
                }
            }
        }
        self.clusters.push(Cluster {
            label,
            alive: true,
            members,
            elem_count,
            depth,
            stats: stats_c,
        });
        self.clusters[a as usize].alive = false;
        self.clusters[b as usize].alive = false;
        self.merged_into.push(c);
        self.merged_into[a as usize] = c;
        self.merged_into[b as usize] = c;
        self.version.push(0);
        self.merge_gen.push(0); // stamped in step 5 with the final stats
        self.alive -= 1;

        // -- 3. Rewrite child_k entries of stable nodes with edges into a
        //       or b, adjusting the stats of their (current) clusters.
        for &s in &incoming_ab {
            let ka = self.k_of(s, a);
            let kb = self.k_of(s, b);
            let kc = ka.saturating_add(kb);
            debug_assert!(kc > 0);
            let p = self.cluster_of[s as usize];
            let n_s = self.stable.node(SynNodeId(s)).extent as f64;
            // Remove old stat mass, add new.
            let stats = &mut self.clusters[p as usize].stats;
            if ka > 0 {
                Self::stat_sub(stats, a, n_s * ka as f64, n_s * ka as f64 * ka as f64);
            }
            if kb > 0 {
                Self::stat_sub(stats, b, n_s * kb as f64, n_s * kb as f64 * kb as f64);
            }
            Self::stat_add(stats, c, n_s * kc as f64, n_s * kc as f64 * kc as f64);
            // Rewrite child_k[s]: drop a/b entries, add c.
            let list = &mut self.child_k[s as usize];
            list.retain(|&(t, _)| t != a && t != b);
            let pos = list.partition_point(|&(t, _)| t < c);
            list.insert(pos, (c, kc));
        }

        // -- 4. Incoming list of c; a and b become garbage.
        self.incoming.push(incoming_ab);
        self.incoming[a as usize] = Vec::new();
        self.incoming[b as usize] = Vec::new();

        // -- 5. Refresh global accounting from the per-entry deltas and
        //       bump version stamps. Each parent contributes only its
        //       (new) entry for target c; the debug cross-check below
        //       guards the incremental bookkeeping against drift.
        let mut new_contrib = self.clusters[c as usize].err_total();
        let mut new_edges = self.clusters[c as usize].stats.len();
        for &p in &parent_set {
            // Parents may since have been remapped? No — parent clusters
            // are untouched by membership changes (only a, b died), but a
            // parent could *be* c only if it was a or b, which the set
            // excludes.
            let cp = &self.clusters[p as usize];
            let np = cp.elem_count as f64;
            new_contrib += cp.stat(c).err(np);
            new_edges += cp.stats.len();
            self.version[p as usize] = self.version[p as usize].wrapping_add(1);
            self.merge_gen[p as usize] = self.merge_gen[p as usize].wrapping_add(1);
        }
        // Children of the merged pair keep their own stats, but their
        // parent-side evaluate_merge inputs changed (a parent cluster
        // died, its stats collapsed into c): bump their merge-gen so
        // memoized scores involving them are invalidated. c's stats
        // targets are exactly those children (plus possibly c itself).
        for &(t, _) in &self.clusters[c as usize].stats {
            if t != c {
                self.merge_gen[t as usize] = self.merge_gen[t as usize].wrapping_add(1);
            }
        }
        self.version[c as usize] = 1;
        self.merge_gen[c as usize] = self.merge_gen[c as usize].max(1);
        self.total_sq += new_contrib - old_contrib;
        self.total_sq = self.total_sq.max(0.0);
        self.total_edges = self.total_edges + new_edges - old_edges;
        self.debug_check_aggregates("apply_merge");
        c
    }

    /// Subtracts stat mass from an entry, removing it when it empties.
    fn stat_sub(stats: &mut Vec<(u32, EdgeStat)>, target: u32, sum: f64, sum2: f64) {
        if let Ok(i) = stats.binary_search_by_key(&target, |&(t, _)| t) {
            stats[i].1.sum -= sum;
            stats[i].1.sum2 -= sum2;
            if stats[i].1.sum <= 1e-9 {
                stats.remove(i);
            }
        } else {
            debug_assert!(false, "subtracting from a missing stat entry");
        }
    }

    /// Adds stat mass to an entry, creating it if needed.
    fn stat_add(stats: &mut Vec<(u32, EdgeStat)>, target: u32, sum: f64, sum2: f64) {
        match stats.binary_search_by_key(&target, |&(t, _)| t) {
            Ok(i) => {
                stats[i].1.sum += sum;
                stats[i].1.sum2 += sum2;
            }
            Err(i) => stats.insert(i, (target, EdgeStat { sum, sum2 })),
        }
    }

    /// Recomputes a stable node's child counts from the skeleton (used
    /// after splits, where incremental rewriting is not worthwhile).
    ///
    /// Rebuilds the sorted list in place — push raw `(cluster, k)`
    /// pairs, sort by cluster id, coalesce adjacent runs — so the hot
    /// path needs no hash-map accumulation and, once the list has
    /// capacity, no allocation.
    fn recompute_child_k(&mut self, s: u32) {
        let Self {
            stable,
            cluster_of,
            child_k,
            ..
        } = self;
        let list = &mut child_k[s as usize];
        list.clear();
        for &(t, k) in &stable.node(SynNodeId(s)).children {
            list.push((cluster_of[t.index()], u64::from(k)));
        }
        list.sort_unstable_by_key(|&(t, _)| t);
        list.dedup_by(|cur, acc| {
            if cur.0 == acc.0 {
                acc.1 = acc.1.saturating_add(cur.1);
                true
            } else {
                false
            }
        });
    }

    /// Reference recomputation of a stable node's child counts via
    /// hash-map accumulation (the pre-merge-join implementation);
    /// proptest oracle for the sort-and-coalesce rewrite.
    pub fn recompute_child_k_reference(&self, s: u32) -> Vec<(u32, u64)> {
        let mut acc: FxHashMap<u32, u64> = FxHashMap::default();
        for &(t, k) in &self.stable.node(SynNodeId(s)).children {
            let slot = acc.entry(self.cluster_of[t.index()]).or_insert(0);
            *slot = slot.saturating_add(u64::from(k));
        }
        let mut list: Vec<(u32, u64)> = acc.into_iter().collect();
        list.sort_unstable_by_key(|&(t, _)| t);
        list
    }

    /// Recomputes a cluster's stats from its members' child counts via
    /// a sort over `(target, visit order)` pairs followed by a coalesce:
    /// the per-target accumulation order equals the member-iteration
    /// order of the hash-map version
    /// ([`Self::recompute_stats_reference`]), so the resulting sums are
    /// bitwise identical.
    ///
    /// Allocation-free once warm: the raw pair list lives in
    /// `self.raw_scratch` and the coalesced output reuses the cluster's
    /// existing stats vector (both grow by amortized `push` only).
    fn recompute_stats(&mut self, id: u32) {
        let members = std::mem::take(&mut self.clusters[id as usize].members);
        let mut raw = std::mem::take(&mut self.raw_scratch);
        raw.clear();
        for &s in &members {
            let n_s = self.stable.node(SynNodeId(s)).extent as f64;
            for &(t, k) in &self.child_k[s as usize] {
                raw.push((
                    t,
                    raw.len(),
                    EdgeStat {
                        sum: n_s * k as f64,
                        sum2: n_s * k as f64 * k as f64,
                    },
                ));
            }
        }
        raw.sort_unstable_by_key(|&(t, seq, _)| (t, seq));
        let mut stats = std::mem::take(&mut self.clusters[id as usize].stats);
        stats.clear();
        for &(t, _, stat) in &raw {
            match stats.last_mut() {
                Some(last) if last.0 == t => last.1.add(stat),
                _ => stats.push((t, stat)),
            }
        }
        self.raw_scratch = raw;
        self.clusters[id as usize].members = members;
        self.clusters[id as usize].stats = stats;
        self.version[id as usize] = self.version[id as usize].wrapping_add(1);
        self.merge_gen[id as usize] = self.merge_gen[id as usize].wrapping_add(1);
    }

    /// Reference recomputation of a cluster's stats via hash-map
    /// accumulation (the pre-merge-join implementation); proptest
    /// oracle for [`Self::recompute_stats`]'s sort-and-coalesce rewrite.
    pub fn recompute_stats_reference(&self, id: u32) -> Vec<(u32, EdgeStat)> {
        let mut acc: FxHashMap<u32, EdgeStat> = FxHashMap::default();
        for &s in &self.clusters[id as usize].members {
            let n_s = self.stable.node(SynNodeId(s)).extent as f64;
            for &(t, k) in &self.child_k[s as usize] {
                let e = acc.entry(t).or_default();
                e.sum += n_s * k as f64;
                e.sum2 += n_s * k as f64 * k as f64;
            }
        }
        let mut stats: Vec<(u32, EdgeStat)> = acc.into_iter().collect();
        stats.sort_unstable_by_key(|&(t, _)| t);
        stats
    }

    /// Splits a live cluster into two new clusters along a member
    /// partition (the top-down ablation's primitive). `part` must be a
    /// non-empty proper subset of the cluster's members. Returns the two
    /// new cluster ids.
    pub fn apply_split(&mut self, id: u32, part: &[u32]) -> (u32, u32) {
        debug_assert!(self.is_alive(id));
        let members = std::mem::take(&mut self.clusters[id as usize].members);
        debug_assert!(!part.is_empty() && part.len() < members.len());
        // Sorted-slice membership: one sort of the (small) part plus a
        // binary search per member, instead of hashing every member.
        let mut in_part: Vec<u32> = part.to_vec();
        in_part.sort_unstable();
        let (m1, m2): (Vec<u32>, Vec<u32>) = members
            .into_iter()
            .partition(|s| in_part.binary_search(s).is_ok());

        // Global error is recomputed for the affected clusters; capture
        // old contributions first. Affected: id itself and the clusters
        // of stable parents of id's members (their child_k changes).
        let incoming_old = std::mem::take(&mut self.incoming[id as usize]);
        let mut affected: Vec<u32> = incoming_old
            .iter()
            .map(|&s| self.cluster_of[s as usize])
            .filter(|&p| p != id)
            .collect();
        affected.sort_unstable();
        affected.dedup();
        let mut old_contrib = self.clusters[id as usize].err_total();
        let mut old_edges = self.clusters[id as usize].stats.len();
        for &p in &affected {
            old_contrib += self.clusters[p as usize].err_total();
            old_edges += self.clusters[p as usize].stats.len();
        }

        let label = self.clusters[id as usize].label;
        let mk = |state: &mut Self, ms: Vec<u32>| -> u32 {
            let new_id = axqa_xml::dense_id(state.clusters.len());
            let elem_count = ms
                .iter()
                .map(|&s| state.stable.node(SynNodeId(s)).extent)
                .sum();
            let depth = ms
                .iter()
                .map(|&s| state.stable.node(SynNodeId(s)).depth)
                .max()
                .unwrap_or(0);
            for &s in &ms {
                state.cluster_of[s as usize] = new_id;
            }
            state.clusters.push(Cluster {
                label,
                alive: true,
                members: ms,
                elem_count,
                depth,
                stats: Vec::new(),
            });
            state.merged_into.push(new_id);
            state.version.push(0);
            state.merge_gen.push(0);
            state.incoming.push(Vec::new());
            new_id
        };
        let u1 = mk(self, m1);
        let u2 = mk(self, m2);
        self.clusters[id as usize].alive = false;
        self.clusters[id as usize].stats = Vec::new();
        // A dead-by-split cluster forwards to the first half (callers of
        // resolve get *a* live cluster; split users track both halves).
        self.merged_into[id as usize] = u1;
        self.alive += 1; // one died, two born

        // Rewrite child counts of stable parents (K into id splits).
        let mut parent_clusters: Vec<u32> = Vec::new();
        for &s in &incoming_old {
            self.recompute_child_k(s);
            let p = self.cluster_of[s as usize];
            parent_clusters.push(p);
            // Maintain incoming lists of the new halves.
            for half in [u1, u2] {
                if self.k_of(s, half) > 0 {
                    self.incoming[half as usize].push(s);
                }
            }
        }
        for half in [u1, u2] {
            self.incoming[half as usize].sort_unstable();
            self.incoming[half as usize].dedup();
        }
        parent_clusters.sort_unstable();
        parent_clusters.dedup();

        // Recompute stats for the new halves and every affected parent.
        self.recompute_stats(u1);
        self.recompute_stats(u2);
        for &p in &parent_clusters {
            if p != u1 && p != u2 {
                self.recompute_stats(p);
            }
        }
        // Children of the split cluster see their parent identity change
        // (id died, the halves took over its edges): bump their
        // merge-gen like apply_merge does for the merged pair's children.
        for half in [u1, u2] {
            for index in 0..self.clusters[half as usize].stats.len() {
                let t = self.clusters[half as usize].stats[index].0;
                self.merge_gen[t as usize] = self.merge_gen[t as usize].wrapping_add(1);
            }
        }

        // Refresh accounting. New affected set: halves + parents.
        let mut new_contrib =
            self.clusters[u1 as usize].err_total() + self.clusters[u2 as usize].err_total();
        let mut new_edges =
            self.clusters[u1 as usize].stats.len() + self.clusters[u2 as usize].stats.len();
        for &p in &parent_clusters {
            if p != u1 && p != u2 {
                new_contrib += self.clusters[p as usize].err_total();
                new_edges += self.clusters[p as usize].stats.len();
            }
        }
        // `affected` (old parents) and `parent_clusters` (new parents)
        // contain the same live clusters: splitting only re-keys targets.
        debug_assert_eq!(
            affected
                .iter()
                .filter(|&&p| p != u1 && p != u2)
                .collect::<Vec<_>>(),
            parent_clusters
                .iter()
                .filter(|&&p| p != u1 && p != u2)
                .collect::<Vec<_>>()
        );
        self.total_sq += new_contrib - old_contrib;
        self.total_sq = self.total_sq.max(0.0);
        self.total_edges = self.total_edges + new_edges - old_edges;
        self.debug_check_aggregates("apply_split");
        (u1, u2)
    }

    /// The current per-cluster child counts of a stable node (sorted by
    /// cluster id) — diagnostics and test oracles.
    pub fn child_counts(&self, stable_node: u32) -> &[(u32, u64)] {
        &self.child_k[stable_node as usize]
    }

    /// Debug-build cross-check of the incrementally-maintained
    /// `total_sq`/`total_edges` aggregates against full recomputation.
    /// Skipped on larger states to keep debug test suites fast; the
    /// randomized determinism tests cover long merge/split sequences
    /// explicitly.
    fn debug_check_aggregates(&self, context: &str) {
        if !cfg!(debug_assertions) || self.stable.len() > 512 {
            return;
        }
        let slow = self.squared_error_slow();
        debug_assert!(
            (slow - self.total_sq).abs() <= 1e-6 * slow.abs().max(1.0),
            "{context}: incremental total_sq {} drifted from recomputed {}",
            self.total_sq,
            slow
        );
        let edges: usize = self
            .clusters
            .iter()
            .filter(|c| c.alive)
            .map(|c| c.stats.len())
            .sum();
        debug_assert_eq!(
            self.total_edges, edges,
            "{context}: incremental total_edges drifted from recount"
        );
    }

    /// Extracts the current partition as an immutable [`TreeSketch`]
    /// plus the stable-class → sketch-node assignment (used by the
    /// value layer and other per-extent annotations).
    pub fn to_sketch_with_assignment(&self) -> (TreeSketch, Vec<u32>) {
        let _span = axqa_obs::span("TSBUILD.to_sketch");
        let (sketch, dense) = self.sketch_and_numbering();
        let assignment = self.cluster_of.iter().map(|&c| dense[c as usize]).collect();
        (sketch, assignment)
    }

    /// Extracts the current partition as an immutable [`TreeSketch`].
    pub fn to_sketch(&self) -> TreeSketch {
        self.sketch_and_numbering().0
    }

    /// The one partition → sketch materialization: alive clusters
    /// numbered densely in ascending id order, centroid edges `sum / N`
    /// sorted per node. Returns the cluster id → node numbering too.
    fn sketch_and_numbering(&self) -> (TreeSketch, Vec<u32>) {
        let mut dense = vec![u32::MAX; self.clusters.len()];
        let mut nodes: Vec<TsNode> = Vec::with_capacity(self.alive);
        for (i, cluster) in self.clusters.iter().enumerate() {
            if cluster.alive {
                dense[i] = axqa_xml::dense_id(nodes.len());
                nodes.push(TsNode {
                    label: cluster.label,
                    count: cluster.elem_count,
                    edges: Vec::with_capacity(cluster.stats.len()),
                    depth: cluster.depth,
                });
            }
        }
        for (i, cluster) in self.clusters.iter().enumerate() {
            if !cluster.alive {
                continue;
            }
            let n = cluster.elem_count as f64;
            let node = &mut nodes[dense[i] as usize];
            node.edges = cluster
                .stats
                .iter()
                .map(|&(t, stat)| (TsNodeId(dense[t as usize]), stat.sum / n))
                .collect();
            node.edges.sort_unstable_by_key(|&(t, _)| t);
        }
        let root = TsNodeId(dense[self.cluster_of[self.stable.root().index()] as usize]);
        let sketch =
            TreeSketch::from_parts(self.stable.labels().clone(), nodes, root, self.total_sq);
        (sketch, dense)
    }

    /// From-scratch recomputation of `sq(T S)` — O(stable edges); test
    /// oracle for the incremental accounting.
    pub fn squared_error_slow(&self) -> f64 {
        let mut total = 0.0;
        for cluster in self.clusters.iter().filter(|c| c.alive) {
            let n = cluster.elem_count as f64;
            let mut acc: FxHashMap<u32, EdgeStat> = FxHashMap::default();
            for &s in &cluster.members {
                let n_s = self.stable.node(SynNodeId(s)).extent as f64;
                for &(t, k) in &self.child_k[s as usize] {
                    let e = acc.entry(t).or_default();
                    e.sum += n_s * k as f64;
                    e.sum2 += n_s * k as f64 * k as f64;
                }
            }
            // Summation order must not depend on the map's iteration
            // order: float addition is non-associative.
            let mut stats: Vec<(u32, EdgeStat)> = acc.into_iter().collect();
            stats.sort_unstable_by_key(|&(t, _)| t);
            total += stats.iter().map(|(_, e)| e.err(n)).sum::<f64>();
        }
        total
    }

    /// Verifies every internal invariant against the stable skeleton —
    /// O(stable size); used by tests and debug assertions.
    pub fn verify(&self) -> Result<(), String> {
        // Membership is a partition of stable nodes into live clusters.
        let mut seen = vec![false; self.stable.len()];
        for (i, cluster) in self.clusters.iter().enumerate() {
            if !cluster.alive {
                continue;
            }
            let mut elems = 0u64;
            for &s in &cluster.members {
                if seen[s as usize] {
                    return Err(format!("stable node {s} in two clusters"));
                }
                seen[s as usize] = true;
                if self.cluster_of[s as usize] != axqa_xml::dense_id(i) {
                    return Err(format!("cluster_of[{s}] inconsistent"));
                }
                if self.stable.node(SynNodeId(s)).label != cluster.label {
                    return Err(format!("label mismatch in cluster {i}"));
                }
                elems = elems.saturating_add(self.stable.node(SynNodeId(s)).extent);
            }
            if elems != cluster.elem_count {
                return Err(format!("cluster {i} elem_count drift"));
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("some stable node is unassigned".into());
        }
        // child_k matches the skeleton.
        for s in 0..self.stable.len() {
            let mut acc: FxHashMap<u32, u64> = FxHashMap::default();
            for &(t, k) in &self.stable.node(SynNodeId(axqa_xml::dense_id(s))).children {
                let slot = acc.entry(self.cluster_of[t.index()]).or_insert(0);
                *slot = slot.saturating_add(u64::from(k));
            }
            let mut expected: Vec<(u32, u64)> = acc.into_iter().collect();
            expected.sort_unstable_by_key(|&(t, _)| t);
            if expected != self.child_k[s] {
                return Err(format!("child_k[{s}] drift"));
            }
        }
        // Stats match a recomputation; total_sq and total_edges agree.
        let mut edges = 0usize;
        for (i, cluster) in self.clusters.iter().enumerate() {
            if !cluster.alive {
                continue;
            }
            edges += cluster.stats.len();
            let mut acc: FxHashMap<u32, EdgeStat> = FxHashMap::default();
            for &s in &cluster.members {
                let n_s = self.stable.node(SynNodeId(s)).extent as f64;
                for &(t, k) in &self.child_k[s as usize] {
                    let e = acc.entry(t).or_default();
                    e.sum += n_s * k as f64;
                    e.sum2 += n_s * k as f64 * k as f64;
                }
            }
            if acc.len() != cluster.stats.len() {
                return Err(format!("cluster {i} stats entry-count drift"));
            }
            for &(t, stat) in &cluster.stats {
                let expect = acc.get(&t).copied().unwrap_or_default();
                if (expect.sum - stat.sum).abs() > 1e-6 * expect.sum.abs().max(1.0)
                    || (expect.sum2 - stat.sum2).abs() > 1e-6 * expect.sum2.abs().max(1.0)
                {
                    return Err(format!("cluster {i} target {t} stat drift"));
                }
            }
        }
        if edges != self.total_edges {
            return Err(format!(
                "total_edges drift: {} vs {}",
                self.total_edges, edges
            ));
        }
        let slow = self.squared_error_slow();
        if (slow - self.total_sq).abs() > 1e-6 * slow.abs().max(1.0) {
            return Err(format!("total_sq drift: {} vs {}", self.total_sq, slow));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axqa_synopsis::{build_stable, SizeModel};
    use axqa_xml::parse_document;

    /// Merges every same-label cluster pair step by step, verifying all
    /// invariants after each merge. The document has nested recursion so
    /// merges create self-loops — the hardest case for the cross-term
    /// bookkeeping.
    #[test]
    fn invariants_through_recursive_merges() {
        let doc = parse_document(
            "<r>\
               <l><l><l/></l></l>\
               <l><l><l/><l/></l></l>\
               <l><t/></l>\
               <l><l><t/></l></l>\
             </r>",
        )
        .unwrap();
        let stable = build_stable(&doc);
        let mut state = ClusterState::new(&stable, SizeModel::TREESKETCH);
        state.verify().unwrap();
        let mut scratch = ScoreScratch::new();
        loop {
            // Find any live same-label pair and merge it.
            let ids: Vec<u32> = state.alive_ids().collect();
            let mut merged = false;
            'outer: for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    if state.cluster(a).label == state.cluster(b).label {
                        let delta = state.evaluate_merge(a, b, &mut scratch);
                        let before = state.squared_error();
                        let before_size = state.size_bytes();
                        let c = state.apply_merge(a, b);
                        state.verify().unwrap_or_else(|e| {
                            panic!("invariant broken after merging {a},{b} -> {c}: {e}")
                        });
                        // The pre-computed delta matches what happened.
                        let err_jump = state.squared_error() - before;
                        assert!(
                            (err_jump - delta.errd).abs() < 1e-6 * delta.errd.max(1.0),
                            "errd mismatch: predicted {} observed {}",
                            delta.errd,
                            err_jump
                        );
                        let size_drop = before_size - state.size_bytes();
                        assert_eq!(size_drop, delta.sized, "sized mismatch");
                        merged = true;
                        break 'outer;
                    }
                }
            }
            if !merged {
                break;
            }
        }
        // Fully merged: the label-split graph (labels r, l, t).
        assert_eq!(state.num_alive(), 3);
        let sketch = state.to_sketch();
        assert_eq!(sketch.total_elements(), doc.len() as u64);
        // The l cluster has a self-loop after merging the nesting chain.
        let l = sketch.labels().get("l").unwrap();
        let l_node = sketch
            .nodes_with_label(l)
            .map(|id| sketch.node(id))
            .next()
            .unwrap();
        assert!(
            l_node.edges.iter().any(|&(t, _)| sketch.node(t).label == l),
            "expected an l → l self-loop"
        );
    }

    /// evaluate_merge must be side-effect free.
    #[test]
    fn evaluate_merge_is_pure() {
        let doc = parse_document("<r><a><b/></a><a><b/><b/></a><a><b/><b/><b/></a></r>").unwrap();
        let stable = build_stable(&doc);
        let state = ClusterState::new(&stable, SizeModel::TREESKETCH);
        let ids: Vec<u32> = state.alive_ids().collect();
        let a_label = doc.labels().get("a").unwrap();
        let a_clusters: Vec<u32> = ids
            .iter()
            .copied()
            .filter(|&id| state.cluster(id).label == a_label)
            .collect();
        let before = state.squared_error();
        let mut scratch = ScoreScratch::new();
        let d1 = state.evaluate_merge(a_clusters[0], a_clusters[1], &mut scratch);
        let d2 = state.evaluate_merge(a_clusters[0], a_clusters[1], &mut scratch);
        assert_eq!(d1, d2);
        // The scratch path is bitwise-identical to the retained
        // hash-map reference implementation.
        let d3 = state.evaluate_merge_reference(a_clusters[0], a_clusters[1]);
        assert_eq!(d1.errd.to_bits(), d3.errd.to_bits());
        assert_eq!(d1.sized, d3.sized);
        assert_eq!(state.squared_error(), before);
        state.verify().unwrap();
    }

    /// Merging identical-signature clusters costs zero error.
    #[test]
    fn zero_error_merges_exist() {
        // Two a-classes distinguished only by position (1-index would
        // split them; count stability does not — so force the split via
        // distinct child labels then re-merge the *parents*).
        let doc = parse_document("<r><p><a><b/></a></p><q><a><b/></a></q></r>").unwrap();
        let stable = build_stable(&doc);
        let state = ClusterState::new(&stable, SizeModel::TREESKETCH);
        // p and q have different labels — not mergeable; but the two
        // a-subtrees collapsed into one class already. So pick the only
        // possible same-label pair count: none. Verify nothing to merge:
        let mut same_label_pairs = 0;
        let ids: Vec<u32> = state.alive_ids().collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                if state.cluster(a).label == state.cluster(b).label {
                    same_label_pairs += 1;
                }
            }
        }
        assert_eq!(same_label_pairs, 0, "identical subtrees share a class");
    }
}
