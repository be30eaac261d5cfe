//! Count-stable summaries and the `BUILDSTABLE` algorithm (§4.1, Fig. 4).

use axqa_xml::fxhash::{FxHashMap, FxHasher};
use axqa_xml::threads;
use axqa_xml::{Document, LabelId, LabelTable, NodeId};
use std::fmt;
use std::hash::{Hash, Hasher};

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

/// The class slot of an element not classified yet.
const UNSEEN: SynNodeId = SynNodeId(u32::MAX);

/// Classes the split's worker has room for before its table grows (the
/// second half of 2M-element XMark holds about 7,400); room not used
/// stays untouched address space.
const WORKER_CLASSES: usize = 1 << 16;

/// Elements below which BUILDSTABLE runs on one thread. On two cores the
/// split won every measured round against the serial walk on 1.6M-element
/// DBLP and 2M-element XMark and on 524k-element DBLP, was within 10% of
/// it either way from 131k to 393k elements, and lost below 100k on DBLP
/// (DESIGN.md §15).
const SPLIT_MIN_ELEMENTS: usize = 1 << 19;

/// `BUILDSTABLE` (Fig. 4): builds the minimal count-stable summary in one
/// post-order pass, hashing each element's `(label, child signature)`.
///
/// Classes are numbered in first-seen post-order. The pass allocates
/// per class, not per element: a leaf's class is looked up by label in
/// a table, and an internal element's signature is written as a flat
/// `[label, class₁, k₁, …]` into one reused buffer and looked up by its
/// hash, so only a new class stores it.
///
/// A large document is classified in two halves at once, whole subtrees
/// on each side of the middle id, and the halves' classes are merged in
/// post-order (DESIGN.md §15); the summary is the same as one thread's.
/// The parser and `DocumentBuilder` number elements in document order,
/// which keeps each subtree's ids on one side.
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
    let split = doc.len() >= SPLIT_MIN_ELEMENTS && threads::cores() >= 2;
    split
        .then(|| build_split(doc, doc.len() / 2))
        .flatten()
        .unwrap_or_else(|| build_serial(doc))
}

/// The one-thread pass over the whole document.
fn build_serial(doc: &Document) -> StableSummary {
    let mut classes = Classes::new(doc, 0);
    let mut assignment = vec![UNSEEN; doc.len()];
    for element in doc.post_order() {
        let label = doc.label(element);
        let class = if doc.is_leaf(element) {
            classes.leaf(label)
        } else {
            classes
                .children
                .extend(doc.children(element).map(|c| assignment[c.index()].0));
            classes.internal(label)
        };
        classes.add_to_extent(class);
        assignment[element.index()] = class;
    }
    classes.into_summary(doc, assignment)
}

/// `BUILDSTABLE` on two threads, with the id range split at `cut`
/// (DESIGN.md §15). The *spine* is the set of the cut element's
/// ancestors. Each side classifies whole subtrees of spine elements'
/// children with the serial pass's loop, [`classify_subtree`]. The
/// calling thread takes the subtrees that the serial post-order visits
/// before the cut element, so its classes keep their ids. A worker takes
/// the cut element's subtree and the later subtrees into a table of its
/// own, noting how many of its classes it has seen where each spine
/// element closes. The merge then replays the serial order: those
/// classes translated into the calling thread's table, interleaved with
/// the spine elements.
///
/// `None` when an element a side classifies lies outside that side's id
/// range (`[0, cut)` for the calling thread and the spine, `[cut, n)`
/// for the worker), or when the worker's thread was refused or panicked.
fn build_split(doc: &Document, cut: usize) -> Option<StableSummary> {
    let cut_id = NodeId(u32::try_from(cut).ok().filter(|_| cut < doc.len())?);
    let mut spine: Vec<NodeId> = std::iter::successors(doc.parent(cut_id), |&a| doc.parent(a))
        .take(doc.len())
        .collect();
    spine.reverse();
    let mut assignment = vec![UNSEEN; doc.len()];
    let (before, after) = assignment.split_at_mut(cut);
    // The worker's side is reserved here, on the calling thread: memory a
    // worker allocates stays with its allocator arena after the thread
    // ends.
    let mut tail = Side::new(doc, spine.len(), WORKER_CLASSES);
    let worker = || {
        tail.classify_child(doc, cut_id, after, cut)?;
        let mut inner = cut_id;
        for &element in spine.iter().rev() {
            for child in doc.children(element).skip_while(|&c| c != inner).skip(1) {
                tail.classify_child(doc, child, after, cut)?;
            }
            tail.close();
            inner = element;
        }
        Some(tail)
    };
    let (head, tail) = threads::fan_out([worker], || {
        let mut head = Side::new(doc, spine.len(), 0);
        let inner = spine.iter().skip(1).chain([&cut_id]);
        for (&element, &inner) in spine.iter().zip(inner) {
            for child in doc.children(element).take_while(|&c| c != inner) {
                head.classify_child(doc, child, before, 0)?;
            }
            head.close();
        }
        Some(head)
    });
    let (mut head, tail) = (head?, tail.into_iter().next()?.finished()??);

    // Replay: the worker's classes first seen before each spine element
    // closes, then that element, innermost first. A spine element's
    // children are its spine child and the ones the sides counted.
    let mut map: Vec<SynNodeId> = Vec::with_capacity(tail.classes.class_count());
    for (closed, depth) in (0..spine.len()).rev().enumerate() {
        let &(_, mark) = tail.closes.get(closed)?;
        while map.len() < mark.min(tail.classes.class_count()) {
            map.push(head.classes.translate(&tail.classes, map.len(), &map)?);
        }
        let mut children = head.children_of(depth).to_vec();
        for &(local, k) in tail.children_of(closed) {
            children.push((map.get(local as usize)?.0, k));
        }
        if let Some(inner) = spine.get(depth + 1) {
            children.push((before.get(inner.index())?.0, 1));
        }
        let element = spine[depth];
        let class = head.classes.sign(doc.label(element), children);
        head.classes.add_to_extent(class);
        *before.get_mut(element.index())? = class;
    }
    for (&class, &extent) in map.iter().zip(&tail.classes.extents) {
        let total = &mut head.classes.extents[class.index()];
        *total = total.saturating_add(extent);
    }
    for class in after.iter_mut() {
        *class = *map.get(class.index())?;
    }
    Some(head.classes.into_summary(doc, assignment))
}

/// The serial pass's loop over the subtree of `root`: classifies its
/// elements in post-order into `classes`, with `classes_of` holding the
/// classes of the elements from id `offset` on. Returns `root`'s class,
/// or `None` when an element of the subtree lies outside `classes_of`.
fn classify_subtree(
    doc: &Document,
    root: NodeId,
    classes: &mut Classes,
    classes_of: &mut [SynNodeId],
    offset: usize,
) -> Option<SynNodeId> {
    let slot = |element: NodeId| element.index().checked_sub(offset);
    for element in doc.subtree_post_order(root) {
        let label = doc.label(element);
        let class = if doc.is_leaf(element) {
            classes.leaf(label)
        } else {
            for child in doc.children(element) {
                classes.children.push(classes_of.get(slot(child)?)?.0);
            }
            classes.internal(label)
        };
        classes.add_to_extent(class);
        *classes_of.get_mut(slot(element)?)? = class;
    }
    classes_of.get(slot(root)?).copied()
}

/// One side of the split: its class table and, for each spine element
/// whose children it took, in the order it took them, those children's
/// classes with their counts.
struct Side {
    classes: Classes,
    /// Per class, its count among the children of the spine element
    /// being taken; zero again once that element is closed.
    counts: Vec<u32>,
    /// `(class, count)` pairs, back to back per closed spine element.
    /// The element being taken has its classes here, in the order they
    /// were first counted, with their counts filled in at its close.
    pairs: Vec<(u32, u32)>,
    /// Per closed spine element: where its pairs end, and how many
    /// classes the side had then.
    closes: Vec<(usize, usize)>,
}

impl Side {
    /// A side for a spine of `spine` elements, with room for `classes`
    /// classes before any vector grows.
    fn new(doc: &Document, spine: usize, classes: usize) -> Self {
        Side {
            classes: Classes::new(doc, classes),
            counts: Vec::with_capacity(classes),
            pairs: Vec::with_capacity(classes),
            closes: Vec::with_capacity(spine),
        }
    }

    /// Classifies the subtree of `child`, a child of the spine element
    /// being taken, and counts its class.
    fn classify_child(
        &mut self,
        doc: &Document,
        child: NodeId,
        classes_of: &mut [SynNodeId],
        offset: usize,
    ) -> Option<()> {
        let class = classify_subtree(doc, child, &mut self.classes, classes_of, offset)?;
        if self.counts.len() <= class.index() {
            self.counts.resize(class.index() + 1, 0);
        }
        let count = &mut self.counts[class.index()];
        if *count == 0 {
            self.pairs.push((class.0, 0));
        }
        *count = count.saturating_add(1);
        Some(())
    }

    /// Closes the spine element being taken: its pairs get their counts.
    fn close(&mut self) {
        let start = self.closes.last().map_or(0, |&(end, _)| end);
        for (class, count) in &mut self.pairs[start..] {
            *count = std::mem::take(&mut self.counts[*class as usize]);
        }
        self.closes
            .push((self.pairs.len(), self.classes.class_count()));
    }

    /// The pairs of the `closed`-th spine element closed.
    fn children_of(&self, closed: usize) -> &[(u32, u32)] {
        let start = closed.checked_sub(1).map_or(0, |i| self.closes[i].0);
        &self.pairs[start..self.closes[closed].0]
    }
}

/// The classes found so far and the table `H` of Fig. 4 that finds
/// them. A class's signature `[label, class₁, k₁, …]` is stored back to
/// back with the others in `signatures`, so a new class allocates
/// nothing but the growth of these vectors, and the `StableNode`s are
/// built once at the end. The split's worker gets its vectors reserved
/// by the calling thread and so allocates next to nothing (DESIGN.md
/// §15).
struct Classes {
    /// Signatures, back to back: class `i`'s ends at `ends[i]`.
    signatures: Vec<u32>,
    ends: Vec<usize>,
    depths: Vec<u32>,
    extents: Vec<u64>,
    /// `H[label, ∅]`: the class of a leaf with each label.
    leaf_class: Vec<Option<SynNodeId>>,
    /// `H[label, C]`: a signature's hash → the newest class with that
    /// hash; `older[i]` is the class before `i` with the same hash.
    table: FxHashMap<u64, u32>,
    older: Vec<u32>,
    /// The next element's children's classes, in any order.
    children: Vec<u32>,
    /// Reused scratch: the flat signature `[label, class₁, k₁, …]`.
    signature: Vec<u32>,
}

/// No class: the end of an `older` chain.
const NO_CLASS: u32 = u32::MAX;

impl Classes {
    /// An empty table with room for `classes` classes of the document's
    /// labels before any vector grows.
    fn new(doc: &Document, classes: usize) -> Self {
        Classes {
            signatures: Vec::with_capacity(classes.saturating_mul(3)),
            ends: Vec::with_capacity(classes),
            depths: Vec::with_capacity(classes),
            extents: Vec::with_capacity(classes),
            leaf_class: vec![None; doc.labels().len()],
            // The hash table's control bytes are written when it is
            // allocated, so it starts smaller.
            table: FxHashMap::with_capacity_and_hasher(classes.min(1 << 14), Default::default()),
            older: Vec::with_capacity(classes),
            children: Vec::with_capacity(256),
            signature: Vec::with_capacity(256),
        }
    }

    fn class_count(&self) -> usize {
        self.ends.len()
    }

    /// The signature of class `class`.
    fn signature_of(&self, class: usize) -> &[u32] {
        let start = class.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.signatures[start..self.ends[class]]
    }

    /// Counts one more element into `class`'s extent.
    #[inline]
    fn add_to_extent(&mut self, class: SynNodeId) {
        let extent = &mut self.extents[class.index()];
        *extent = extent.saturating_add(1);
    }

    /// The class of an internal element labeled `label` whose children's
    /// classes are in `self.children` (which it empties), new if unseen.
    fn internal(&mut self, label: LabelId) -> SynNodeId {
        self.children.sort_unstable();
        // Collapse duplicates into (class, count) pairs.
        self.signature.clear();
        self.signature.push(label.0);
        let mut previous = None;
        for &class in &self.children {
            if previous == Some(class) {
                if let Some(k) = self.signature.last_mut() {
                    *k = k.saturating_add(1);
                }
            } else {
                self.signature.extend([class, 1]);
                previous = Some(class);
            }
        }
        self.children.clear();
        self.intern()
    }

    /// The class in this table of class `class` of `other`, whose
    /// classes map through `map`; its extent is left for the caller.
    fn translate(&mut self, other: &Classes, class: usize, map: &[SynNodeId]) -> Option<SynNodeId> {
        let signature = other.signature_of(class);
        let label = LabelId(*signature.first()?);
        let mut children = Vec::with_capacity(signature.len() / 2);
        for pair in signature[1..].chunks_exact(2) {
            children.push((map.get(pair[0] as usize)?.0, pair[1]));
        }
        Some(self.sign(label, children))
    }

    /// The class of `label` over `children` (`(class, count)` pairs),
    /// new if unseen.
    fn sign(&mut self, label: LabelId, mut children: Vec<(u32, u32)>) -> SynNodeId {
        if children.is_empty() {
            return self.leaf(label);
        }
        children.sort_unstable();
        self.signature.clear();
        self.signature.push(label.0);
        for (class, k) in children {
            match self.signature.len() {
                len if len > 1 && self.signature[len - 2] == class => {
                    self.signature[len - 1] = self.signature[len - 1].saturating_add(k);
                }
                _ => self.signature.extend([class, k]),
            }
        }
        self.intern()
    }

    /// The class of a leaf labeled `label`, new if unseen.
    fn leaf(&mut self, label: LabelId) -> SynNodeId {
        match self.leaf_class.get(label.index()) {
            Some(&Some(class)) => class,
            Some(None) => {
                self.signature.clear();
                self.signature.push(label.0);
                let id = self.push_class();
                self.leaf_class[label.index()] = Some(id);
                id
            }
            None => {
                // A label outside the document's table takes the hashed
                // path.
                self.signature.clear();
                self.signature.push(label.0);
                self.intern()
            }
        }
    }

    /// The class of the signature in `self.signature`, new if unseen.
    fn intern(&mut self) -> SynNodeId {
        let mut hasher = FxHasher::default();
        self.signature.hash(&mut hasher);
        let hash = hasher.finish();
        let mut candidate = self.table.get(&hash).copied().unwrap_or(NO_CLASS);
        while candidate != NO_CLASS {
            if self.signature_of(candidate as usize) == self.signature.as_slice() {
                return SynNodeId(candidate);
            }
            candidate = self.older[candidate as usize];
        }
        let id = self.push_class();
        self.older[id.index()] = self.table.insert(hash, id.0).unwrap_or(NO_CLASS);
        id
    }

    /// Appends the class of `self.signature`, with an empty extent.
    fn push_class(&mut self) -> SynNodeId {
        let id = SynNodeId(axqa_xml::dense_id(self.class_count()));
        let depth = self.signature[1..]
            .chunks_exact(2)
            .map(|pair| self.depths[pair[0] as usize].saturating_add(1))
            .max()
            .unwrap_or(0);
        self.signatures.extend_from_slice(&self.signature);
        self.ends.push(self.signatures.len());
        self.depths.push(depth);
        self.extents.push(0);
        self.older.push(NO_CLASS);
        id
    }

    /// The summary of `doc` with these classes and `assignment`.
    fn into_summary(self, doc: &Document, assignment: Vec<SynNodeId>) -> StableSummary {
        let nodes = (0..self.class_count())
            .map(|class| {
                let signature = self.signature_of(class);
                StableNode {
                    label: LabelId(signature[0]),
                    extent: self.extents[class],
                    children: signature[1..]
                        .chunks_exact(2)
                        .map(|pair| (SynNodeId(pair[0]), pair[1]))
                        .collect(),
                    depth: self.depths[class],
                }
            })
            .collect();
        StableSummary {
            labels: doc.labels().clone(),
            total_elements: doc.len() as u64,
            nodes,
            assignment,
        }
    }
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
    use axqa_xml::threads::SPAWNS_LEFT;
    use axqa_xml::{parse_document, DocumentBuilder};
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

    /// Grows random children under the open element of `b`, in the
    /// shape [`random_document`] draws.
    fn grow(rng: &mut StdRng, b: &mut DocumentBuilder, depth: u32) {
        let fanout = if depth >= 5 {
            0
        } else {
            rng.gen_range(0..5usize)
        };
        for _ in 0..fanout {
            b.open(["a", "b", "c"][rng.gen_range(0..3usize)]);
            grow(rng, b, depth + 1);
            b.close();
        }
    }

    /// A tree shaped as [`random_document`]'s, numbered in document
    /// order as the parser and `DocumentBuilder` number elements.
    fn random_ordered_document(rng: &mut StdRng) -> Document {
        let mut b = DocumentBuilder::new("r");
        grow(rng, &mut b, 0);
        b.finish()
    }

    fn assert_same(doc: &Document) {
        assert_equal(&build_stable(doc), doc);
    }

    /// `summary` is the reference pass's summary of `doc`.
    fn assert_equal(summary: &StableSummary, doc: &Document) {
        let old = reference::build_stable(doc);
        assert_eq!(summary.nodes(), old.nodes());
        for element in doc.node_ids() {
            assert_eq!(summary.class_of(element), old.class_of(element));
        }
        assert_eq!(summary.total_elements(), old.total_elements());
        summary.verify_against(doc).unwrap();
    }

    #[test]
    fn split_is_serial_at_every_cut() {
        let mut rng = StdRng::seed_from_u64(0x5B1D);
        let mut docs = vec![parse_document("<r><a/></r>").unwrap()];
        docs.extend((0..64).map(|_| random_ordered_document(&mut rng)));
        // A deep spine: each level has a child before and after the next.
        let mut b = DocumentBuilder::new("r");
        for _ in 0..200 {
            b.leaf("a");
            b.open("b");
        }
        for _ in 0..200 {
            b.close();
            b.leaf("c");
        }
        docs.push(b.finish());
        for doc in &docs {
            for cut in 1..doc.len() {
                let split = build_split(doc, cut).expect("document order takes the split");
                assert_equal(&split, doc);
            }
            assert!(build_split(doc, doc.len()).is_none());
        }
    }

    #[test]
    fn out_of_order_trees_split_where_each_side_holds_its_subtrees() {
        // expand adds an element's children together, and random_document
        // numbers them in frontier order, so a subtree's ids need not be
        // one range: a cut splits only where every element a side
        // classifies lies in that side's range, and then exactly.
        let source = parse_document("<r><a><b><c/></b><b/></a><a><b/><c/></a><c/></r>").unwrap();
        let mut docs = vec![crate::expand(&build_stable(&source))];
        let mut rng = StdRng::seed_from_u64(0xF207);
        docs.extend((0..64).map(|_| random_document(&mut rng)));
        let mut splits = 0;
        for doc in &docs {
            assert_same(doc);
            for cut in 1..doc.len() {
                if let Some(split) = build_split(doc, cut) {
                    assert_equal(&split, doc);
                    splits += 1;
                }
            }
        }
        assert!(splits > 0, "no cut split");
    }

    #[test]
    fn refused_thread_takes_the_serial_path() {
        let doc = parse_document("<r><a><b/></a><a><b/><c/></a><c/></r>").unwrap();
        SPAWNS_LEFT.set(0);
        assert!(build_split(&doc, 3).is_none());
        SPAWNS_LEFT.set(usize::MAX);
        assert!(build_split(&doc, 3).is_some());
    }

    #[test]
    fn large_documents_match_the_reference() {
        // Past SPLIT_MIN_ELEMENTS, so build_stable splits on a multi-core
        // host.
        let mut rng = StdRng::seed_from_u64(0xB16);
        let mut b = DocumentBuilder::new("r");
        while b.len() < SPLIT_MIN_ELEMENTS + 1000 {
            b.open("p");
            grow(&mut rng, &mut b, 1);
            b.close();
        }
        let doc = b.finish();
        assert_same(&doc);
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
