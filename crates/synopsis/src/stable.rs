//! Count-stable summaries and the `BUILDSTABLE` algorithm (§4.1, Fig. 4).

use axqa_xml::fxhash::FxHashMap;
use axqa_xml::{Document, LabelId, LabelTable, NodeId};
use std::fmt;

/// Identifier of a synopsis node (an equivalence class of elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SynNodeId(pub u32);

impl SynNodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SynNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One node of a count-stable summary.
///
/// Because the partition is count-stable, *every* element of the extent
/// has exactly `count` children in each child class — so the per-element
/// child structure is stored once, exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct StableNode {
    /// Common label of all extent elements.
    pub label: LabelId,
    /// Extent size `|extent(u)|`.
    pub extent: u64,
    /// `(child class, k)` pairs with `k ≥ 1`, sorted by child class.
    /// Children classes always have smaller ids than their parents
    /// (classes are created in post-order), so the summary is a DAG.
    pub children: Vec<(SynNodeId, u32)>,
    /// The paper's *depth* (§4.2): 0 for leaf classes, else
    /// `1 + max(child depth)` — identical for all extent elements of a
    /// count-stable class.
    pub depth: u32,
}

impl StableNode {
    /// Per-element child count into `target`, 0 when there is no edge.
    pub fn count_to(&self, target: SynNodeId) -> u32 {
        self.children
            .binary_search_by_key(&target, |&(t, _)| t)
            .map(|i| self.children[i].1)
            .unwrap_or(0)
    }

    /// Per-element total number of children.
    pub fn fanout(&self) -> u64 {
        self.children.iter().map(|&(_, k)| k as u64).sum()
    }
}

/// The unique minimal count-stable summary of a document (Lemma 3.1),
/// plus the element → class assignment that witnesses it.
#[derive(Debug, Clone)]
pub struct StableSummary {
    labels: LabelTable,
    nodes: Vec<StableNode>,
    /// `assignment[element]` = class of the element.
    assignment: Vec<SynNodeId>,
    /// Total number of document elements (Σ extents).
    total_elements: u64,
}

impl StableSummary {
    /// All synopsis nodes, indexed by [`SynNodeId`].
    pub fn nodes(&self) -> &[StableNode] {
        &self.nodes
    }

    /// The node with id `id`.
    pub fn node(&self, id: SynNodeId) -> &StableNode {
        &self.nodes[id.index()]
    }

    /// Number of synopsis nodes (equivalence classes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A summary always has at least the root class.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total synopsis edges.
    pub fn num_edges(&self) -> usize {
        self.nodes.iter().map(|n| n.children.len()).sum()
    }

    /// The class of the document root. The root's subtree strictly
    /// contains every other subtree, so its class is a singleton and is
    /// created last by the post-order construction.
    pub fn root(&self) -> SynNodeId {
        SynNodeId(axqa_xml::dense_id(self.nodes.len()).saturating_sub(1))
    }

    /// The label table (shared vocabulary with the source document).
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// Class of a document element.
    pub fn class_of(&self, element: NodeId) -> SynNodeId {
        self.assignment[element.index()]
    }

    /// Total document elements summarized.
    pub fn total_elements(&self) -> u64 {
        self.total_elements
    }

    /// Maximum class depth (== document height measured leaf-up).
    pub fn height(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Ids of all classes carrying `label`.
    pub fn classes_with_label(&self, label: LabelId) -> impl Iterator<Item = SynNodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(_, n)| n.label == label)
            .map(|(i, _)| SynNodeId(axqa_xml::dense_id(i)))
    }

    /// Parent adjacency: for every node, the list of `(parent, k)` edges
    /// pointing at it. Computed on demand (TSBUILD keeps its own).
    pub fn parents(&self) -> Vec<Vec<(SynNodeId, u32)>> {
        let mut parents = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &(child, k) in &node.children {
                parents[child.index()].push((SynNodeId(axqa_xml::dense_id(i)), k));
            }
        }
        parents
    }

    /// Reassembles a summary from parts (deserialization); the
    /// per-element assignment is empty, so [`StableSummary::class_of`]
    /// must not be called on the result.
    pub fn from_parts(
        labels: LabelTable,
        nodes: Vec<StableNode>,
        total_elements: u64,
    ) -> Result<StableSummary, String> {
        if nodes.is_empty() {
            return Err("a summary has at least one node".into());
        }
        for (i, node) in nodes.iter().enumerate() {
            if node.label.index() >= labels.len() {
                return Err(format!("node s{i} has out-of-range label"));
            }
            for &(child, k) in &node.children {
                if child.index() >= i {
                    return Err(format!("node s{i} edge target {child} not before it"));
                }
                if k == 0 {
                    return Err(format!("node s{i} has a 0-count edge"));
                }
            }
        }
        Ok(StableSummary {
            labels,
            nodes,
            assignment: Vec::new(),
            total_elements,
        })
    }

    /// Checks Definition 3.1 against the source document: every element
    /// of every class has exactly the class's `k` children in each child
    /// class, and labels agree. Used by tests and debug assertions.
    pub fn verify_against(&self, doc: &Document) -> Result<(), String> {
        if doc.len() != self.assignment.len() {
            return Err(format!(
                "assignment covers {} elements, document has {}",
                self.assignment.len(),
                doc.len()
            ));
        }
        let mut extent_check = vec![0u64; self.nodes.len()];
        for element in doc.node_ids() {
            let class = self.class_of(element);
            let node = self.node(class);
            extent_check[class.index()] = extent_check[class.index()].saturating_add(1);
            if doc.label(element) != node.label {
                return Err(format!(
                    "element {element:?} label differs from class {class}"
                ));
            }
            let mut counts: FxHashMap<SynNodeId, u32> = FxHashMap::default();
            for child in doc.children(element) {
                let slot = counts.entry(self.class_of(child)).or_insert(0);
                *slot = slot.saturating_add(1);
            }
            let mut expected: Vec<(SynNodeId, u32)> = counts.into_iter().collect();
            expected.sort_unstable_by_key(|&(t, _)| t);
            if expected != node.children {
                return Err(format!(
                    "element {element:?} child signature {expected:?} ≠ class {class} signature {:?}",
                    node.children
                ));
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if extent_check[i] != node.extent {
                return Err(format!(
                    "class s{i} extent {} but {} elements assigned",
                    node.extent, extent_check[i]
                ));
            }
        }
        Ok(())
    }
}

/// `BUILDSTABLE` (Fig. 4): builds the minimal count-stable summary in one
/// post-order pass, hashing each element's `(label, child signature)`.
///
/// Classes are numbered in first-seen post-order. The pass allocates
/// per class, not per element: a leaf's class is looked up by label in
/// a table, and an internal element's signature is written as a flat
/// `[label, class₁, k₁, …]` into one reused buffer and looked up by
/// slice, so its key is boxed only when it starts a new class.
///
/// ```
/// use axqa_xml::parse_document;
/// use axqa_synopsis::build_stable;
///
/// // Two structurally identical authors collapse into one class.
/// let doc = parse_document("<bib><a><p/></a><a><p/></a></bib>").unwrap();
/// let summary = build_stable(&doc);
/// assert_eq!(summary.len(), 3); // p, a(p), bib
/// assert_eq!(summary.total_elements(), 5);
/// summary.verify_against(&doc).unwrap();
/// ```
pub fn build_stable(doc: &Document) -> StableSummary {
    let _span = axqa_obs::span_with("BUILDSTABLE", "elements", doc.len() as u64);
    let mut nodes: Vec<StableNode> = Vec::new();
    let mut assignment = vec![SynNodeId(0); doc.len()];
    // H[label, ∅] of the paper: the class of a leaf with each label.
    let mut leaf_class: Vec<Option<SynNodeId>> = vec![None; doc.labels().len()];
    // H[label, C] for internal elements: flat signature → class id.
    let mut table: FxHashMap<Box<[u32]>, SynNodeId> = FxHashMap::default();
    // Reused scratch: the children's classes, then the flat signature.
    let mut child_classes: Vec<u32> = Vec::new();
    let mut signature: Vec<u32> = Vec::new();

    for element in doc.post_order() {
        let label = doc.label(element);
        // A label outside the document's table takes the hashed path.
        let leaf_slot = if doc.is_leaf(element) {
            leaf_class.get_mut(label.index())
        } else {
            None
        };
        let class = match leaf_slot {
            Some(&mut Some(class)) => class,
            Some(slot) => {
                let id = push_class(&mut nodes, label, Vec::new());
                *slot = Some(id);
                id
            }
            None => {
                child_classes.clear();
                child_classes.extend(doc.children(element).map(|c| assignment[c.index()].0));
                child_classes.sort_unstable();
                // Collapse duplicates into (class, count) pairs.
                signature.clear();
                signature.push(label.0);
                let mut previous = None;
                for &class in &child_classes {
                    if previous == Some(class) {
                        if let Some(k) = signature.last_mut() {
                            *k = k.saturating_add(1);
                        }
                    } else {
                        signature.extend([class, 1]);
                        previous = Some(class);
                    }
                }
                match table.get(signature.as_slice()) {
                    Some(&class) => class,
                    None => {
                        let children = signature[1..]
                            .chunks_exact(2)
                            .map(|pair| (SynNodeId(pair[0]), pair[1]))
                            .collect();
                        let id = push_class(&mut nodes, label, children);
                        table.insert(signature.as_slice().into(), id);
                        id
                    }
                }
            }
        };
        let extent = &mut nodes[class.index()].extent;
        *extent = extent.saturating_add(1);
        assignment[element.index()] = class;
    }

    StableSummary {
        labels: doc.labels().clone(),
        total_elements: doc.len() as u64,
        nodes,
        assignment,
    }
}

/// Appends a class with an empty extent to `nodes` and returns its id.
fn push_class(
    nodes: &mut Vec<StableNode>,
    label: LabelId,
    children: Vec<(SynNodeId, u32)>,
) -> SynNodeId {
    let id = SynNodeId(axqa_xml::dense_id(nodes.len()));
    let depth = children
        .iter()
        .map(|&(t, _)| nodes[t.index()].depth.saturating_add(1))
        .max()
        .unwrap_or(0);
    nodes.push(StableNode {
        label,
        extent: 0,
        children,
        depth,
    });
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use axqa_xml::parse_document;

    /// Figure 3(a): document T1 — a1 has b(1c) and b(4c), a2 likewise.
    fn doc_t1() -> Document {
        parse_document(
            "<r><a><b><c/></b><b><c/><c/><c/><c/></b></a>\
               <a><b><c/></b><b><c/><c/><c/><c/></b></a></r>",
        )
        .unwrap()
    }

    /// Figure 3(b): document T2 — a1 has b(1c) and b(1c), a2 has b(4c) twice.
    fn doc_t2() -> Document {
        parse_document(
            "<r><a><b><c/></b><b><c/></b></a>\
               <a><b><c/><c/><c/><c/></b><b><c/><c/><c/><c/></b></a></r>",
        )
        .unwrap()
    }

    #[test]
    fn figure3_t1_stable_summary() {
        // Paper Fig. 3(f), left: r →2 a; a →1 b1, →1 b4; b1 →1 c; b4 →4 c.
        let doc = doc_t1();
        let s = build_stable(&doc);
        s.verify_against(&doc).unwrap();
        // Classes: c, b(1c), b(4c), a, r = 5.
        assert_eq!(s.len(), 5);
        let root = s.node(s.root());
        assert_eq!(s.labels().name(root.label), "r");
        assert_eq!(root.extent, 1);
        assert_eq!(root.children.len(), 1);
        let (a_class, k) = root.children[0];
        assert_eq!(k, 2);
        let a = s.node(a_class);
        assert_eq!(a.extent, 2);
        assert_eq!(a.children.len(), 2);
        // a has one b-with-1-c and one b-with-4-c child each.
        let counts: Vec<u32> = a.children.iter().map(|&(_, k)| k).collect();
        assert_eq!(counts, vec![1, 1]);
        let b_ks: Vec<u32> = a
            .children
            .iter()
            .map(|&(b, _)| s.node(b).children[0].1)
            .collect();
        let mut sorted = b_ks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 4]);
    }

    #[test]
    fn figure3_t2_stable_summary() {
        // Paper Fig. 3(f), right: r →1 a1, →1 a2; a1 →2 b1; a2 →2 b4.
        let doc = doc_t2();
        let s = build_stable(&doc);
        s.verify_against(&doc).unwrap();
        // Classes: c, b(1c), b(4c), a(2×b1), a(2×b4), r = 6.
        assert_eq!(s.len(), 6);
        let root = s.node(s.root());
        assert_eq!(root.children.len(), 2);
        for &(a_class, k) in &root.children {
            assert_eq!(k, 1);
            let a = s.node(a_class);
            assert_eq!(a.extent, 1);
            assert_eq!(a.children.len(), 1);
            assert_eq!(a.children[0].1, 2);
        }
    }

    #[test]
    fn distinct_structures_get_distinct_classes() {
        let doc = parse_document("<r><a><x/></a><a><y/></a><a><x/></a></r>").unwrap();
        let s = build_stable(&doc);
        s.verify_against(&doc).unwrap();
        let a = doc.labels().get("a").unwrap();
        let a_classes: Vec<_> = s.classes_with_label(a).collect();
        assert_eq!(a_classes.len(), 2);
        let extents: Vec<u64> = a_classes.iter().map(|&c| s.node(c).extent).collect();
        let mut sorted = extents.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
    }

    #[test]
    fn depth_is_leafward() {
        let doc = parse_document("<r><a><b><c/></b></a><d/></r>").unwrap();
        let s = build_stable(&doc);
        assert_eq!(s.node(s.root()).depth, 3);
        assert_eq!(s.height(), 3);
        let d = doc.labels().get("d").unwrap();
        let d_class = s.classes_with_label(d).next().unwrap();
        assert_eq!(s.node(d_class).depth, 0);
    }

    #[test]
    fn summary_is_a_dag_with_children_before_parents() {
        let doc = doc_t1();
        let s = build_stable(&doc);
        for (i, node) in s.nodes().iter().enumerate() {
            for &(child, _) in &node.children {
                assert!(child.index() < i, "child class after parent class");
            }
        }
    }

    #[test]
    fn extents_sum_to_document_size() {
        for doc in [doc_t1(), doc_t2()] {
            let s = build_stable(&doc);
            let total: u64 = s.nodes().iter().map(|n| n.extent).sum();
            assert_eq!(total, doc.len() as u64);
            assert_eq!(s.total_elements(), doc.len() as u64);
        }
    }

    #[test]
    fn recursive_markup() {
        let doc = parse_document("<r><l><l><l/></l></l><l><l><l/></l></l></r>").unwrap();
        let s = build_stable(&doc);
        s.verify_against(&doc).unwrap();
        // Three distinct l-classes by nesting depth.
        let l = doc.labels().get("l").unwrap();
        assert_eq!(s.classes_with_label(l).count(), 3);
    }

    #[test]
    fn parents_adjacency() {
        let doc = doc_t1();
        let s = build_stable(&doc);
        let parents = s.parents();
        let c = doc.labels().get("c").unwrap();
        let c_class = s.classes_with_label(c).next().unwrap();
        // c is pointed at by both b classes.
        assert_eq!(parents[c_class.index()].len(), 2);
        assert!(parents[s.root().index()].is_empty());
    }

    #[test]
    fn count_to_and_fanout() {
        let doc = doc_t1();
        let s = build_stable(&doc);
        let root = s.node(s.root());
        let (a_class, _) = root.children[0];
        assert_eq!(root.count_to(a_class), 2);
        assert_eq!(root.count_to(SynNodeId(0)), 0);
        assert_eq!(root.fanout(), 2);
    }
}

/// `BUILDSTABLE` as it was before signatures became flat slices: one
/// collapsed `Vec` per element, hashed with its label as a tuple key.
/// The differential tests below hold [`build_stable`] to its output.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn build_stable(doc: &Document) -> StableSummary {
        let mut nodes: Vec<StableNode> = Vec::new();
        let mut assignment = vec![SynNodeId(0); doc.len()];
        let mut table: FxHashMap<(LabelId, Vec<(SynNodeId, u32)>), SynNodeId> =
            FxHashMap::default();
        let mut signature: Vec<(SynNodeId, u32)> = Vec::new();

        for element in doc.post_order() {
            signature.clear();
            for child in doc.children(element) {
                signature.push((assignment[child.index()], 0));
            }
            signature.sort_unstable_by_key(|&(t, _)| t);
            let mut collapsed: Vec<(SynNodeId, u32)> = Vec::with_capacity(signature.len());
            for &(class, _) in signature.iter() {
                match collapsed.last_mut() {
                    Some(last) if last.0 == class => last.1 = last.1.saturating_add(1),
                    _ => collapsed.push((class, 1)),
                }
            }
            let label = doc.label(element);
            let key = (label, collapsed);
            let class = match table.get(&key) {
                Some(&class) => {
                    nodes[class.index()].extent = nodes[class.index()].extent.saturating_add(1);
                    class
                }
                None => {
                    let id = SynNodeId(axqa_xml::dense_id(nodes.len()));
                    let depth = key
                        .1
                        .iter()
                        .map(|&(t, _)| nodes[t.index()].depth.saturating_add(1))
                        .max()
                        .unwrap_or(0);
                    nodes.push(StableNode {
                        label,
                        extent: 1,
                        children: key.1.clone(),
                        depth,
                    });
                    table.insert(key, id);
                    id
                }
            };
            assignment[element.index()] = class;
        }

        StableSummary {
            labels: doc.labels().clone(),
            total_elements: doc.len() as u64,
            nodes,
            assignment,
        }
    }
}

#[cfg(test)]
mod differential_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random tree over a three-label alphabet with small fanouts, so
    /// that equal subtrees (shared classes) are common.
    fn random_document(rng: &mut StdRng) -> Document {
        let mut doc = Document::new("r");
        let mut frontier = vec![(doc.root(), 0u32)];
        while let Some((node, depth)) = frontier.pop() {
            let fanout = if depth >= 5 {
                0
            } else {
                rng.gen_range(0..5usize)
            };
            for _ in 0..fanout {
                let name = ["a", "b", "c"][rng.gen_range(0..3usize)];
                let child = doc.add_child_named(node, name);
                frontier.push((child, depth + 1));
            }
        }
        doc
    }

    fn assert_same(doc: &Document) {
        let new = build_stable(doc);
        let old = reference::build_stable(doc);
        assert_eq!(new.nodes(), old.nodes());
        for element in doc.node_ids() {
            assert_eq!(new.class_of(element), old.class_of(element));
        }
        assert_eq!(new.total_elements(), old.total_elements());
        new.verify_against(doc).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn build_stable_matches_reference(seed in any::<u64>()) {
            let doc = random_document(&mut StdRng::seed_from_u64(seed));
            assert_same(&doc);
        }
    }
}
