//! `EVALQUERY` and `EVALEMBED` (§4.3, Figures 7 and 8): approximate twig
//! answering over a TreeSketch.
//!
//! The algorithm processes query variables top-down. For every binding
//! node `uQ(u, q)` and child variable `qc` it enumerates the *embeddings*
//! of the main path of `path(q, qc)` in the synopsis starting from `u`,
//! estimates the per-element descendant count of each embedding as the
//! product of the traversed average edge counts, scales by the branch
//! predicates' selectivities, and aggregates counts per endpoint
//! (Fig. 7, lines 4–13). Branch selectivity uses the inclusion–exclusion
//! principle over per-embedding-endpoint fractions: with independence,
//! `s = 1 − Π(1 − k_l)` — the closed form of the paper's line 11 — and
//! `s = 1` as soon as some endpoint count reaches 1 (lines 8–9).
//!
//! Compressed synopses can be cyclic (recursive markup merged into one
//! cluster), so descendant-axis enumeration is bounded by a path-length
//! cap (defaulting to the synopsis height, the longest real downward
//! path) and prunes embeddings whose accumulated count drops below a
//! small ε (DESIGN.md §4.3).

use crate::sketch::{TreeSketch, TsNodeId};
use axqa_query::{Axis, QVar, ResolvedPath, ResolvedStep, TwigQuery};
use axqa_xml::fxhash::FxHashMap;
use axqa_xml::{LabelId, LabelTable};
use std::collections::hash_map::Entry;

/// Evaluation knobs.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Max synopsis edges a single descendant step may traverse; `None`
    /// uses the synopsis height + 1.
    pub max_descendant_depth: Option<u32>,
    /// Embeddings whose accumulated count falls below this are pruned.
    pub epsilon: f64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            max_descendant_depth: None,
            epsilon: 1e-9,
        }
    }
}

/// One node of a result sketch: elements of TreeSketch node `ts` bound to
/// query variable `var`.
#[derive(Debug, Clone)]
pub struct RNode {
    /// Source synopsis node.
    pub ts: TsNodeId,
    /// Query variable the elements bind to.
    pub var: QVar,
    /// Label (copied from the synopsis node).
    pub label: LabelId,
    /// Estimated number of bindings (extent of this result node).
    pub ext: f64,
    /// Outgoing edges `(result node, average descendant count)`.
    pub edges: Vec<(u32, f64)>,
}

/// The result TreeSketch `T S_Q`: a synopsis of the nesting tree.
///
/// Nodes are keyed by `(synopsis node, query variable)` — at most
/// `O(|T S| · |Q|)` of them (§4.3) — and form a DAG because variables
/// strictly deepen along edges.
#[derive(Debug, Clone)]
pub struct ResultSketch {
    labels: LabelTable,
    nodes: Vec<RNode>,
    /// `bind[q]` — result nodes holding bindings of each variable.
    by_var: Vec<Vec<u32>>,
}

impl ResultSketch {
    /// The root binding `(root cluster, q0)` (§4.3: `q0` binds the
    /// document root).
    pub fn root(&self) -> u32 {
        0
    }

    /// All result nodes of the §4.3 result sketch (index 0 is the root).
    pub fn nodes(&self) -> &[RNode] {
        &self.nodes
    }

    /// Result nodes binding `var` (§4.3).
    pub fn bindings(&self, var: QVar) -> &[u32] {
        &self.by_var[var.index()]
    }

    /// The label table (shared vocabulary with the §3.2 synopsis).
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// Estimated total bindings of `var` (Σ ext over its nodes, §4.4).
    pub fn estimated_bindings(&self, var: QVar) -> f64 {
        self.by_var[var.index()]
            .iter()
            .map(|&i| self.nodes[i as usize].ext)
            .sum()
    }

    /// Renders the §4.3 result sketch readably for tests and examples.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let _ = write!(
                out,
                "r{} {}({:.3}) {}",
                i,
                self.labels.name(node.label),
                node.ext,
                node.var
            );
            for &(t, k) in &node.edges {
                let _ = write!(out, " -{k:.3}-> r{t}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Insertion-ordered weight accumulator: an `FxHashMap` keyed index
/// into a dense entry vector. Iteration follows first-insertion order,
/// so pooled reuse across queries cannot perturb accumulation order
/// (and therefore float results) the way reusing a raw hash map's
/// capacity-dependent iteration order would.
#[derive(Debug)]
struct WeightMap<K> {
    index: FxHashMap<K, u32>,
    entries: Vec<(K, f64)>,
}

impl<K> Default for WeightMap<K> {
    fn default() -> Self {
        WeightMap {
            index: FxHashMap::default(),
            entries: Vec::new(),
        }
    }
}

impl<K: std::hash::Hash + Eq + Copy> WeightMap<K> {
    fn add(&mut self, key: K, weight: f64) {
        match self.index.entry(key) {
            Entry::Occupied(slot) => {
                self.entries[*slot.get() as usize].1 += weight;
            }
            Entry::Vacant(slot) => {
                slot.insert(axqa_xml::dense_id(self.entries.len()));
                self.entries.push((key, weight));
            }
        }
    }

    fn clear(&mut self) {
        self.index.clear();
        self.entries.clear();
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn entries(&self) -> &[(K, f64)] {
        &self.entries
    }
}

/// Reusable workspace for [`eval_query_with_scratch`]: the result-graph
/// buffers plus pools of the subset-automaton frontier/endpoint maps, so
/// a serving loop evaluating many twigs over one synopsis (§4.3) stops
/// paying per-query allocation once the buffers reach steady state.
#[derive(Debug, Default)]
pub struct EvalScratch {
    nodes: Vec<RNode>,
    by_var: Vec<Vec<u32>>,
    node_index: FxHashMap<(u32, u32), u32>,
    sorted: Vec<(TsNodeId, f64)>,
    keep: Vec<bool>,
    alive: Vec<bool>,
    remap: Vec<u32>,
    /// Pooled `(node, state-set) -> weight` frontier maps. The pattern
    /// walk is re-entrant (branch predicates recurse into
    /// `path_counts`), so maps are acquired/released rather than owned.
    state_pool: Vec<WeightMap<(TsNodeId, u64)>>,
    /// Pooled per-endpoint count maps (`path_counts` results).
    count_pool: Vec<WeightMap<TsNodeId>>,
    /// Pooled uncertain-advance buffers (`consume_edge` locals).
    uncertain_pool: Vec<Vec<(u64, f64)>>,
}

impl EvalScratch {
    /// Fresh, empty workspace for the §4.3 serving loop.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    fn begin(&mut self, num_vars: usize) {
        self.nodes.clear();
        self.node_index.clear();
        for list in &mut self.by_var {
            list.clear();
        }
        self.by_var.resize_with(num_vars, Vec::new);
    }

    fn acquire_states(&mut self) -> WeightMap<(TsNodeId, u64)> {
        self.state_pool.pop().unwrap_or_default()
    }

    fn release_states(&mut self, mut map: WeightMap<(TsNodeId, u64)>) {
        map.clear();
        self.state_pool.push(map);
    }

    fn acquire_counts(&mut self) -> WeightMap<TsNodeId> {
        self.count_pool.pop().unwrap_or_default()
    }

    fn release_counts(&mut self, mut map: WeightMap<TsNodeId>) {
        map.clear();
        self.count_pool.push(map);
    }

    fn acquire_uncertain(&mut self) -> Vec<(u64, f64)> {
        self.uncertain_pool.pop().unwrap_or_default()
    }

    fn release_uncertain(&mut self, mut buf: Vec<(u64, f64)>) {
        buf.clear();
        self.uncertain_pool.push(buf);
    }
}

/// `EVALQUERY` (Fig. 7): evaluates `query` over `sketch`, returning the
/// result sketch, or `None` when a required variable ends up with no
/// bindings (lines 15–16: the approximate answer is empty).
///
/// ```
/// use axqa_xml::parse_document;
/// use axqa_synopsis::build_stable;
/// use axqa_core::{eval_query, EvalConfig, TreeSketch};
/// use axqa_query::{parse_twig, QVar};
///
/// let doc = parse_document("<r><a><k/></a><a><k/><k/></a></r>").unwrap();
/// let sketch = TreeSketch::from_stable(&build_stable(&doc));
/// let query = parse_twig("q1: q0 //a\nq2: q1 /k").unwrap();
/// let result = eval_query(&sketch, &query, &EvalConfig::default()).unwrap();
/// assert_eq!(result.estimated_bindings(QVar(2)), 3.0); // exact on stable
/// ```
pub fn eval_query(
    sketch: &TreeSketch,
    query: &TwigQuery,
    config: &EvalConfig,
) -> Option<ResultSketch> {
    eval_query_with_values(sketch, query, config, None)
}

/// [`eval_query`] with a value layer: steps carrying value predicates
/// (`[. > c]`) are scaled by the endpoint cluster's value selectivity.
/// Without a [`ValueIndex`](crate::values::ValueIndex) value predicates
/// are ignored (the §4.3 structural upper bound).
pub fn eval_query_with_values(
    sketch: &TreeSketch,
    query: &TwigQuery,
    config: &EvalConfig,
    values: Option<&crate::values::ValueIndex>,
) -> Option<ResultSketch> {
    let mut scratch = EvalScratch::new();
    eval_query_with_scratch(sketch, query, config, values, &mut scratch)
}

/// [`eval_query_with_values`] over a caller-owned [`EvalScratch`]: one
/// workspace amortizes the §4.3 evaluation buffers (result graph,
/// automaton frontiers, endpoint maps) across a whole query workload.
pub fn eval_query_with_scratch(
    sketch: &TreeSketch,
    query: &TwigQuery,
    config: &EvalConfig,
    values: Option<&crate::values::ValueIndex>,
    scratch: &mut EvalScratch,
) -> Option<ResultSketch> {
    let _span = axqa_obs::span_with("EVALQUERY", "vars", query.num_vars() as u64);
    let labels = sketch.labels();
    let resolved: Vec<ResolvedPath> = query
        .vars()
        .skip(1)
        .map(|v| query.node(v).path.resolve(labels))
        .collect();
    let max_depth = config
        .max_descendant_depth
        .unwrap_or_else(|| sketch.height().saturating_add(1));
    let walker = Walker {
        sketch,
        epsilon: config.epsilon,
        max_depth,
        values,
    };

    scratch.begin(query.num_vars());
    scratch.nodes.push(RNode {
        ts: sketch.root(),
        var: QVar::ROOT,
        label: sketch.node(sketch.root()).label,
        ext: 1.0,
        edges: Vec::new(),
    });
    scratch.by_var[0].push(0);
    scratch.node_index.insert((sketch.root().0, 0), 0);

    // Pre-order over variables: numeric order is parent-before-child.
    // Iteration is by index because the inner body appends bindings of
    // the strictly deeper variable `qc` (never `var`).
    for var in query.vars() {
        for qc in query.children(var) {
            let path = &resolved[qc.index() - 1];
            for bi in 0..scratch.by_var[var.index()].len() {
                let uq = scratch.by_var[var.index()][bi];
                let context = scratch.nodes[uq as usize].ts;
                let counts = walker.path_counts(context, &path.steps, scratch);
                let src_ext = scratch.nodes[uq as usize].ext;
                let mut sorted = std::mem::take(&mut scratch.sorted);
                sorted.clear();
                sorted.extend_from_slice(counts.entries());
                scratch.release_counts(counts);
                sorted.sort_unstable_by_key(|&(v, _)| v);
                for &(v, k) in &sorted {
                    if k <= config.epsilon {
                        continue;
                    }
                    let key = (v.0, qc.0);
                    let vq = match scratch.node_index.get(&key) {
                        Some(&vq) => vq,
                        None => {
                            let vq = axqa_xml::dense_id(scratch.nodes.len());
                            scratch.nodes.push(RNode {
                                ts: v,
                                var: qc,
                                label: sketch.node(v).label,
                                ext: 0.0,
                                edges: Vec::new(),
                            });
                            scratch.node_index.insert(key, vq);
                            scratch.by_var[qc.index()].push(vq);
                            vq
                        }
                    };
                    scratch.nodes[vq as usize].ext += src_ext * k;
                    // count(uQ, vQ) += k (Fig. 7 line 12).
                    let edges = &mut scratch.nodes[uq as usize].edges;
                    match edges.iter_mut().find(|(t, _)| *t == vq) {
                        Some((_, c)) => *c += k,
                        None => edges.push((vq, k)),
                    }
                }
                scratch.sorted = sorted;
            }
        }
    }

    // Lines 15–16 generalized: prune result nodes that contribute no
    // complete binding tuple (a binding with no match for some required
    // child variable). On a count-stable synopsis classes are
    // homogeneous, so this reproduces the exact nesting tree's
    // bottom-up pruning; the paper's global emptiness check is the
    // root-level special case.
    let mut keep = std::mem::take(&mut scratch.keep);
    keep.clear();
    keep.resize(scratch.nodes.len(), true);
    for i in (0..scratch.nodes.len()).rev() {
        let node = &scratch.nodes[i];
        for qc in query.children(node.var) {
            if query.node(qc).optional {
                continue;
            }
            let mass: f64 = node
                .edges
                .iter()
                .filter(|&&(t, _)| scratch.nodes[t as usize].var == qc && keep[t as usize])
                .map(|&(_, k)| k)
                .sum();
            if mass <= config.epsilon {
                keep[i] = false;
                break;
            }
        }
    }
    if !keep[0] {
        scratch.keep = keep;
        return None;
    }
    // Compact: keep only nodes that survive pruning *and* stay
    // reachable from the root through surviving nodes (a survivor can
    // hang under a pruned ancestor). Nodes are parent-before-child and
    // edges point forward, so one forward pass settles reachability.
    let mut alive = std::mem::take(&mut scratch.alive);
    alive.clear();
    alive.resize(scratch.nodes.len(), false);
    alive[0] = true;
    for i in 0..scratch.nodes.len() {
        if !alive[i] {
            continue;
        }
        for &(t, _) in &scratch.nodes[i].edges {
            if keep[t as usize] {
                alive[t as usize] = true;
            }
        }
    }
    let mut remap = std::mem::take(&mut scratch.remap);
    remap.clear();
    remap.resize(scratch.nodes.len(), u32::MAX);
    let mut compact: Vec<RNode> = Vec::new();
    for (i, node) in scratch.nodes.iter().enumerate() {
        if !alive[i] {
            continue;
        }
        remap[i] = axqa_xml::dense_id(compact.len());
        compact.push(RNode {
            ts: node.ts,
            var: node.var,
            label: node.label,
            ext: 0.0,
            edges: node
                .edges
                .iter()
                .filter(|&&(t, _)| alive[t as usize])
                .map(|&(t, k)| (t, k))
                .collect(),
        });
    }
    for node in &mut compact {
        for (t, _) in &mut node.edges {
            *t = remap[*t as usize];
        }
    }
    scratch.keep = keep;
    scratch.alive = alive;
    scratch.remap = remap;
    // Recompute binding extents top-down over the pruned graph.
    compact[0].ext = 1.0;
    for i in 0..compact.len() {
        let ext = compact[i].ext;
        for e in 0..compact[i].edges.len() {
            let (t, k) = compact[i].edges[e];
            compact[t as usize].ext += ext * k;
        }
    }
    let mut final_by_var: Vec<Vec<u32>> = vec![Vec::new(); query.num_vars()];
    for (i, node) in compact.iter().enumerate() {
        final_by_var[node.var.index()].push(axqa_xml::dense_id(i));
    }
    for var in query.vars().skip(1) {
        if query.effectively_required(var) && final_by_var[var.index()].is_empty() {
            return None;
        }
    }

    Some(ResultSketch {
        labels: labels.clone(),
        nodes: compact,
        by_var: final_by_var,
    })
}

/// Path walker implementing `EVALEMBED` aggregation.
struct Walker<'a> {
    sketch: &'a TreeSketch,
    epsilon: f64,
    max_depth: u32,
    values: Option<&'a crate::values::ValueIndex>,
}

/// Patterns longer than this cannot be tracked in the `u64` state-set
/// bitmask; such paths match nothing (far beyond any realistic twig).
const MAX_PATTERN_STATES: usize = 62;

/// Predicate-carrying state advances beyond this many per edge are
/// resolved pessimistically instead of enumerating `2^n` outcomes.
const MAX_UNCERTAIN_ADVANCES: usize = 12;

/// One subset-automaton pass over a step pattern: the immutable pattern
/// tables plus the accumulators every consumed edge writes into.
struct PatternRun<'p> {
    /// The step pattern being matched.
    steps: &'p [ResolvedStep],
    /// Bitmask of the accepting automaton position (`1 << steps.len()`).
    accept: u64,
    /// Surviving partial paths for the next frontier level.
    next: WeightMap<(TsNodeId, u64)>,
    /// Accepted path weight per endpoint.
    out: WeightMap<TsNodeId>,
    /// Embeddings reaching the accepting position (EVALEMBED work,
    /// accumulated locally and flushed to `evalquery.embeddings_expanded`
    /// once per pattern run — no per-edge counter traffic).
    expanded: u64,
}

impl Walker<'_> {
    /// Per-endpoint counts of `steps` from `from`, keyed by the final
    /// node of the path (Fig. 7 lines 5–8).
    ///
    /// Paths are enumerated with a weighted *subset automaton* over the
    /// step pattern: every synopsis path is consumed edge by edge while
    /// tracking the set of pattern positions it could be parsed up to,
    /// and its weight (the product of average edge counts) is credited
    /// to the endpoint exactly once when the accepting position is
    /// reached. Intermediate steps are therefore existential — a path
    /// with several ways to embed the pattern (e.g. `//a//b` across
    /// nested `a`s) still counts each endpoint element once, matching
    /// the exact evaluator's binding semantics and keeping estimates
    /// exact on count-stable synopses (Theorem 4.2).
    fn path_counts(
        &self,
        from: TsNodeId,
        steps: &[ResolvedStep],
        scratch: &mut EvalScratch,
    ) -> WeightMap<TsNodeId> {
        let mut out = scratch.acquire_counts();
        if steps.is_empty() {
            out.add(from, 1.0);
            return out;
        }
        let m = steps.len();
        if m > MAX_PATTERN_STATES {
            return out;
        }
        let accept: u64 = 1u64 << m;
        // Total path-length budget: one edge per child step, up to
        // `max_depth` filler edges per descendant step. On acyclic
        // synopses this never truncates (no downward path exceeds the
        // height); on compressed cyclic synopses it bounds the walk.
        // Summed in u64, because a loaded sketch's depths are the
        // file's: at most MAX_PATTERN_STATES u32 terms cannot overflow.
        let budget: u64 = steps
            .iter()
            .map(|s| match s.axis {
                Axis::Child => 1,
                Axis::Descendant => u64::from(self.max_depth.max(1)),
            })
            .sum();

        // Frontier of partial paths, merged by (node, state set).
        let mut frontier = scratch.acquire_states();
        frontier.add((from, 1), 1.0);
        let mut run = PatternRun {
            steps,
            accept,
            next: scratch.acquire_states(),
            out,
            expanded: 0,
        };
        let mut states: u64 = 0;
        for _ in 0..budget {
            if frontier.is_empty() {
                break;
            }
            states = states.saturating_add(frontier.len() as u64);
            for fi in 0..frontier.len() {
                let ((u, set), weight) = frontier.entries()[fi];
                for &(v, c) in &self.sketch.node(u).edges {
                    let base = weight * c;
                    if base <= self.epsilon {
                        continue;
                    }
                    self.consume_edge(v, set, base, &mut run, scratch);
                }
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut run.next);
        }
        axqa_obs::counter("evalquery.automaton_states", states);
        axqa_obs::counter("evalquery.embeddings_expanded", run.expanded);
        let PatternRun { next, out, .. } = run;
        scratch.release_states(frontier);
        scratch.release_states(next);
        out
    }

    /// Advances the subset-automaton state `set` across one synopsis
    /// edge into `v`, crediting accepted paths to `run.out` and
    /// surviving partial paths to `run.next`.
    fn consume_edge(
        &self,
        v: TsNodeId,
        set: u64,
        base: f64,
        run: &mut PatternRun<'_>,
        scratch: &mut EvalScratch,
    ) {
        let label = self.sketch.node(v).label;
        let steps = run.steps;
        // `stay`: positions whose next step is a descendant axis keep
        // consuming filler edges. `certain`: advances that always
        // succeed. `uncertain`: advances gated by a fractional branch /
        // value selectivity — each splits the path flow in two.
        let mut stay: u64 = 0;
        let mut certain: u64 = 0;
        let mut uncertain = scratch.acquire_uncertain();
        for (i, step) in steps.iter().enumerate() {
            if set & (1u64 << i) == 0 {
                continue;
            }
            if step.axis == Axis::Descendant {
                stay |= 1u64 << i;
            }
            if step.label == Some(label) {
                let s = self.step_selectivity(v, step, scratch);
                let advanced = 1u64 << (i + 1);
                if s >= 1.0 {
                    certain |= advanced;
                } else if s > self.epsilon {
                    uncertain.push((advanced, s));
                }
            }
        }
        if uncertain.len() > MAX_UNCERTAIN_ADVANCES {
            // Degenerate pattern (many predicate-gated advances on one
            // edge): instead of enumerating 2^n joint outcomes, emit the
            // single all-succeed outcome weighted by the joint
            // probability. This under-weights paths that only needed
            // some of the advances, which is acceptable for a bound
            // this far outside realistic queries.
            let mut joint = 1.0f64;
            for &(bits, s) in &uncertain {
                certain |= bits;
                joint *= s;
            }
            scratch.release_uncertain(uncertain);
            self.emit(v, stay | certain, base * joint, run);
            return;
        }
        // Enumerate the joint success/failure outcomes of the
        // uncertain advances (independence across predicates, §4.3).
        let outcomes = 1usize << uncertain.len();
        for outcome in 0..outcomes {
            let mut new_set = stay | certain;
            let mut p = 1.0f64;
            for (j, &(bits, s)) in uncertain.iter().enumerate() {
                if outcome & (1usize << j) != 0 {
                    new_set |= bits;
                    p *= s;
                } else {
                    p *= 1.0 - s;
                }
            }
            self.emit(v, new_set, base * p, run);
        }
        scratch.release_uncertain(uncertain);
    }

    /// Records one partial-path outcome: credit acceptance, then keep
    /// the path alive for further extension.
    fn emit(&self, v: TsNodeId, set: u64, weight: f64, run: &mut PatternRun<'_>) {
        if weight <= self.epsilon {
            return;
        }
        if set & run.accept != 0 {
            run.out.add(v, weight);
            run.expanded = run.expanded.saturating_add(1);
        }
        // The accepting position has no outgoing transitions; drop it
        // from the live set before extending.
        let live = set & !run.accept;
        if live != 0 {
            run.next.add((v, live), weight);
        }
    }

    /// Product of the step's branch selectivities at `node` (independence
    /// across predicates, §4.3).
    fn step_selectivity(
        &self,
        node: TsNodeId,
        step: &ResolvedStep,
        scratch: &mut EvalScratch,
    ) -> f64 {
        let mut s = 1.0;
        if !step.value_preds.is_empty() {
            if let Some(values) = self.values {
                s *= values.selectivity(node, &step.value_preds);
                if s <= self.epsilon {
                    return 0.0;
                }
            }
        }
        for predicate in &step.predicates {
            s *= self.branch_selectivity(node, predicate, scratch);
            if s <= self.epsilon {
                return 0.0;
            }
        }
        s
    }

    /// `EVALEMBED` lines 2–13: selectivity of one branching predicate at
    /// `node`.
    fn branch_selectivity(
        &self,
        node: TsNodeId,
        predicate: &ResolvedPath,
        scratch: &mut EvalScratch,
    ) -> f64 {
        let counts = self.path_counts(node, &predicate.steps, scratch);
        let result = if counts.is_empty() {
            0.0
        } else if counts.entries().iter().any(|&(_, k)| k >= 1.0) {
            1.0 // lines 8–9: some embedding guarantees a match
        } else {
            // Line 11: inclusion–exclusion over independent per-endpoint
            // fractions = 1 − Π(1 − k_l).
            let miss: f64 = counts
                .entries()
                .iter()
                .map(|&(_, k)| 1.0 - k.clamp(0.0, 1.0))
                .product();
            (1.0 - miss).clamp(0.0, 1.0)
        };
        scratch.release_counts(counts);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{TreeSketch, TsNode};
    use axqa_query::parse_twig;
    use axqa_synopsis::build_stable;
    use axqa_xml::{parse_document, LabelTable};

    /// Hand-builds the synopsis of the paper's Figure 9(b):
    ///
    /// ```text
    /// r(1) -10-> A; A -5-> B, -0.2-> E, -2-> D;
    /// D -0.5-> F, -0.6-> G1, -0.7-> G2; F -1.5-> C; B -2-> F
    /// ```
    fn figure9_sketch() -> TreeSketch {
        let mut labels = LabelTable::new();
        let l = |labels: &mut LabelTable, s: &str| labels.intern(s);
        let (lr, la, lb, le, ld, lf, lg, lc) = (
            l(&mut labels, "r"),
            l(&mut labels, "a"),
            l(&mut labels, "b"),
            l(&mut labels, "e"),
            l(&mut labels, "d"),
            l(&mut labels, "f"),
            l(&mut labels, "g"),
            l(&mut labels, "c"),
        );
        // ids: 0 r, 1 A, 2 B, 3 E, 4 D, 5 F, 6 G1, 7 G2, 8 C
        let n = |label, count, edges: Vec<(u32, f64)>, depth| TsNode {
            label,
            count,
            edges: edges.into_iter().map(|(t, c)| (TsNodeId(t), c)).collect(),
            depth,
        };
        let nodes = vec![
            n(lr, 1, vec![(1, 10.0)], 4),
            n(la, 10, vec![(2, 5.0), (3, 0.2), (4, 2.0)], 3),
            n(lb, 50, vec![(5, 2.0)], 2),
            n(le, 2, vec![(5, 5.0)], 2),
            n(ld, 20, vec![(5, 0.5), (6, 0.6), (7, 0.7)], 2),
            n(lf, 100, vec![(8, 1.5)], 1),
            n(lg, 12, vec![], 0),
            n(lg, 14, vec![], 0),
            n(lc, 150, vec![], 0),
        ];
        TreeSketch::from_parts(labels, nodes, TsNodeId(0), 0.0)
    }

    #[test]
    fn figure9_walkthrough() {
        let ts = figure9_sketch();
        // q1: //a ; q3: q1 d[/g]//f  (Example 4.1's numbers).
        let query = parse_twig("q1: q0 //a\nq2: q1 /d[/g]//f").unwrap();
        let result = eval_query(&ts, &query, &EvalConfig::default()).unwrap();
        // rQ -10-> AQ.
        let root = &result.nodes()[result.root() as usize];
        assert_eq!(root.edges.len(), 1);
        assert!((root.edges[0].1 - 10.0).abs() < 1e-9);
        let aq = &result.nodes()[root.edges[0].0 as usize];
        assert_eq!(result.labels().name(aq.label), "a");
        assert!((aq.ext - 10.0).abs() < 1e-9);
        // Example 4.1: nt = 2·0.5 = 1; branch [/g]: embeddings G1 (0.6)
        // and G2 (0.7) → s = 0.6+0.7−0.42 = 0.88; count = 0.88.
        let fq_edge = aq
            .edges
            .iter()
            .find(|&&(t, _)| result.labels().name(result.nodes()[t as usize].label) == "f")
            .expect("edge to f bindings");
        assert!((fq_edge.1 - 0.88).abs() < 1e-9, "got {}", fq_edge.1);
    }

    #[test]
    fn branch_count_ge_one_saturates_selectivity() {
        let ts = figure9_sketch();
        // [//f] from d: embeddings: d/f with count 0.5 → but also no
        // other f path; 0.5 < 1 → selectivity 0.5. [/g] from a? none.
        // Use //b[//f]: from B count to F is 2 ≥ 1 → selectivity 1.
        let query = parse_twig("q1: q0 //b[//f]").unwrap();
        let result = eval_query(&ts, &query, &EvalConfig::default()).unwrap();
        let root = &result.nodes()[0];
        // //b from r: r→a→b product 10·5 = 50.
        assert!((root.edges[0].1 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn descendant_axis_sums_over_paths() {
        let ts = figure9_sketch();
        // //f from root: embeddings r/a/b/f (10·5·2 = 100),
        // r/a/e/f (10·0.2·5 = 10), r/a/d/f (10·2·0.5 = 10) → 120 into F.
        let query = parse_twig("q1: q0 //f").unwrap();
        let result = eval_query(&ts, &query, &EvalConfig::default()).unwrap();
        let root = &result.nodes()[0];
        assert_eq!(root.edges.len(), 1);
        assert!((root.edges[0].1 - 120.0).abs() < 1e-9);
    }

    #[test]
    fn required_empty_binding_empties_answer() {
        let ts = figure9_sketch();
        let query = parse_twig("q1: q0 //zzz").unwrap();
        assert!(eval_query(&ts, &query, &EvalConfig::default()).is_none());
        let optional = parse_twig("q1: q0 //a\nq2: q1 ? //zzz").unwrap();
        assert!(eval_query(&ts, &optional, &EvalConfig::default()).is_some());
    }

    #[test]
    fn exact_on_stable_synopsis() {
        // On an uncompressed (count-stable) synopsis the estimates are
        // exact: compare bindings against the exact evaluator.
        let doc = parse_document(
            "<d><a><p><k/></p><p><k/><k/></p><n/></a>\
             <a><n/><p><k/></p><b><t/></b></a></d>",
        )
        .unwrap();
        let stable = build_stable(&doc);
        let ts = TreeSketch::from_stable(&stable);
        let query = parse_twig("q1: q0 //a[//b]\nq2: q1 //p\nq3: q2 //k").unwrap();
        let result = eval_query(&ts, &query, &EvalConfig::default()).unwrap();
        use axqa_eval::{evaluate, DocIndex};
        let index = DocIndex::build(&doc);
        let nt = evaluate(&doc, &index, &query).unwrap();
        for var in [QVar(1), QVar(2), QVar(3)] {
            let exact = nt.bindings(var).len() as f64;
            let approx = result.estimated_bindings(var);
            assert!(
                (exact - approx).abs() < 1e-9,
                "{var}: exact {exact} vs approx {approx}"
            );
        }
    }

    #[test]
    fn cyclic_synopsis_terminates() {
        // A self-loop with count > 1 would diverge without the depth cap.
        let mut labels = LabelTable::new();
        let lr = labels.intern("r");
        let ll = labels.intern("l");
        let nodes = vec![
            TsNode {
                label: lr,
                count: 1,
                edges: vec![(TsNodeId(1), 2.0)],
                depth: 5,
            },
            TsNode {
                label: ll,
                count: 10,
                edges: vec![(TsNodeId(1), 1.5)],
                depth: 4,
            },
        ];
        let ts = TreeSketch::from_parts(labels, nodes, TsNodeId(0), 1.0);
        let query = parse_twig("q1: q0 //l").unwrap();
        let result = eval_query(&ts, &query, &EvalConfig::default()).unwrap();
        let total = result.estimated_bindings(QVar(1));
        assert!(total.is_finite() && total > 0.0);
    }
}
