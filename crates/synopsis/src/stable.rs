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
/// A large document whose ids are in document order (as the parser and
/// `DocumentBuilder` number them) is walked in two halves at once and
/// the halves' classes are merged in post-order (DESIGN.md §15); the
/// summary is the same as one thread's.
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
/// ancestors. The calling thread walks the elements before the cut,
/// which in document order are the serial post-order's first stretch,
/// so their classes keep their ids. A worker walks the cut element's
/// subtree and the later subtrees into a table of its own, noting how
/// many of its classes it has seen when each spine element closes. The
/// merge then replays the serial order: those classes translated into
/// the calling thread's table, interleaved with the spine elements.
///
/// `None` when the ids are not in document order (a walk met an
/// element outside its range, or an element out of post-order), or
/// when the worker's thread was refused or panicked.
fn build_split(doc: &Document, cut: usize) -> Option<StableSummary> {
    let cut_id = NodeId(u32::try_from(cut).ok().filter(|_| cut < doc.len())?);
    let mut spine: Vec<NodeId> = std::iter::successors(doc.parent(cut_id), |&a| doc.parent(a))
        .take(doc.len())
        .collect();
    spine.reverse();
    if spine.is_empty() || spine.iter().any(|a| a.index() >= cut) {
        return None;
    }
    let mut assignment = vec![UNSEEN; doc.len()];
    let (before, after) = assignment.split_at_mut(cut);
    // The worker's class table is reserved here, on the calling thread:
    // memory a worker allocates stays with its allocator arena after the
    // thread ends.
    let tail = Walk::new(doc, &spine, spine.clone(), cut, WORKER_CLASSES);
    let (head, tail) = threads::fan_out([|| walk_after(tail, after)], || {
        walk_before(doc, &spine, cut_id, before)
    });
    let (head, tail) = (head?, tail.into_iter().next()?.finished()??);
    let head_children = head.spine_children.finish();
    let tail_children = tail.spine_children.finish();
    let mut classes = head.classes;

    // Replay: the worker's classes first seen before each spine element
    // closes, then that element, innermost first. A spine element's
    // children are its spine child and the ones the walks counted.
    let mut map: Vec<SynNodeId> = Vec::with_capacity(tail.classes.class_count());
    for (depth, &mark) in (0..spine.len()).rev().zip(&tail.marks) {
        while map.len() < mark.min(tail.classes.class_count()) {
            map.push(classes.translate(&tail.classes, map.len(), &map)?);
        }
        let mut children = head_children[depth].clone();
        for &(local, k) in &tail_children[depth] {
            children.push((map.get(local as usize)?.0, k));
        }
        if let Some(inner) = spine.get(depth + 1) {
            children.push((before[inner.index()].0, 1));
        }
        let element = spine[depth];
        let class = classes.classify_counted(doc.label(element), children);
        before[element.index()] = class;
    }
    for (&class, &extent) in map.iter().zip(&tail.classes.extents) {
        let total = &mut classes.extents[class.index()];
        *total = total.saturating_add(extent);
    }
    for class in after.iter_mut() {
        *class = *map.get(class.index())?;
    }
    Some(classes.into_summary(doc, assignment))
}

/// The classes of the spine elements' children that a walk met, with
/// their counts. A walk meets the children of one spine element after
/// another, so they are counted densely by class for the current one
/// and set aside as `(class, count)` pairs when it changes.
struct SpineChildren {
    /// Per spine element, from the root in: the pairs set aside.
    pairs: Vec<Vec<(u32, u32)>>,
    /// The spine element being counted.
    depth: usize,
    /// Its count per class.
    counts: Vec<u32>,
    /// The classes with a nonzero count.
    touched: Vec<u32>,
}

impl SpineChildren {
    /// Counts for `spine`, with room for `classes` classes.
    fn new(spine: &[NodeId], classes: usize) -> Self {
        SpineChildren {
            pairs: vec![Vec::new(); spine.len()],
            depth: 0,
            counts: Vec::with_capacity(classes),
            touched: Vec::with_capacity(classes),
        }
    }

    /// Counts a child of class `class` of the spine element at `depth`.
    fn count_child(&mut self, depth: usize, class: SynNodeId) {
        if depth != self.depth {
            self.set_aside();
            self.depth = depth;
        }
        if self.counts.len() <= class.index() {
            self.counts.resize(class.index() + 1, 0);
        }
        let count = &mut self.counts[class.index()];
        if *count == 0 {
            self.touched.push(class.0);
        }
        *count = count.saturating_add(1);
    }

    fn set_aside(&mut self) {
        for &class in &self.touched {
            let count = std::mem::take(&mut self.counts[class as usize]);
            self.pairs[self.depth].push((class, count));
        }
        self.touched.clear();
    }

    /// The pairs per spine element, from the root in.
    fn finish(mut self) -> Vec<Vec<(u32, u32)>> {
        self.set_aside();
        self.pairs
    }
}

/// Walks the elements before the cut in post-order, all but the spine:
/// the serial pass's first stretch, when ids are in document order.
/// `classes_of` holds their classes.
fn walk_before<'a>(
    doc: &'a Document,
    spine: &'a [NodeId],
    cut: NodeId,
    classes_of: &mut [SynNodeId],
) -> Option<Walk<'a>> {
    let mut walk = Walk::new(doc, spine, Vec::new(), 0, 0);
    for id in 0..cut.0 {
        walk.visit(NodeId(id), classes_of, false)?;
    }
    walk.visit(cut, classes_of, true)?;
    // Left open: the spine, then the cut element, and no spine element
    // closed before it.
    let ordered = walk.marks.is_empty() && walk.open.split_last() == Some((&cut, spine));
    ordered.then_some(walk)
}

/// Walks the elements from the cut on in post-order, with `walk`'s
/// spine open at the start and closing on the way. `classes_of` holds
/// their classes, the cut element's first.
fn walk_after<'a>(mut walk: Walk<'a>, classes_of: &mut [SynNodeId]) -> Option<Walk<'a>> {
    for id in walk.offset..walk.offset + classes_of.len() {
        walk.visit(NodeId(u32::try_from(id).ok()?), classes_of, false)?;
    }
    walk.close_to(None, classes_of)?;
    Some(walk)
}

/// One side of the cut, walked in id order. When ids are in document
/// order, closing the open elements that are not the next element's
/// parent visits the elements in post-order. Elements are classified
/// into a table of the walk's own; the spine elements are not, but
/// their children are counted, and so is each spine element's closing.
struct Walk<'a> {
    doc: &'a Document,
    spine: &'a [NodeId],
    /// Id of the first element the walk classifies (`classes_of[0]`).
    offset: usize,
    classes: Classes,
    spine_children: SpineChildren,
    /// Open elements, outermost first: at a depth below the spine's
    /// length, a spine element is at its own depth.
    open: Vec<NodeId>,
    /// The number of classes seen when each spine element closed,
    /// innermost first.
    marks: Vec<usize>,
}

impl<'a> Walk<'a> {
    /// A walk from id `offset` with `open` open, with room reserved for
    /// `classes` classes.
    fn new(
        doc: &'a Document,
        spine: &'a [NodeId],
        mut open: Vec<NodeId>,
        offset: usize,
        classes: usize,
    ) -> Self {
        open.reserve(1 << 10);
        Walk {
            doc,
            spine,
            offset,
            classes: Classes::new(doc, classes),
            spine_children: SpineChildren::new(spine, classes),
            open,
            marks: Vec::with_capacity(spine.len()),
        }
    }

    /// Takes element `id`: closes the open elements down to its parent,
    /// then closes it at once if it is a leaf and not `last`, or opens
    /// it. `None` when its parent is not open (ids out of document
    /// order).
    fn visit(&mut self, id: NodeId, classes_of: &mut [SynNodeId], last: bool) -> Option<()> {
        let parent = self.doc.parent(id);
        self.close_to(parent, classes_of)?;
        if self.open.is_empty() != parent.is_none() {
            return None;
        }
        if self.doc.is_leaf(id) && !last {
            self.close(id, classes_of)
        } else {
            self.open.push(id);
            Some(())
        }
    }

    /// Closes open elements until `parent` is the innermost (all of
    /// them for `None`).
    fn close_to(&mut self, parent: Option<NodeId>, classes_of: &mut [SynNodeId]) -> Option<()> {
        while let Some(&top) = self.open.last().filter(|&&top| Some(top) != parent) {
            self.open.pop();
            if self.spine.get(self.open.len()) == Some(&top) {
                self.marks.push(self.classes.class_count());
            } else {
                self.close(top, classes_of)?;
            }
        }
        Some(())
    }

    /// Classifies `element`, whose parent is the innermost open element.
    fn close(&mut self, element: NodeId, classes_of: &mut [SynNodeId]) -> Option<()> {
        let class = self
            .classes
            .close(self.doc, element, classes_of, self.offset)?;
        let depth = self.open.len().wrapping_sub(1);
        if self.spine.get(depth).is_some() && self.spine.get(depth) == self.open.last() {
            self.spine_children.count_child(depth, class);
        }
        Some(())
    }
}

/// The classes found so far and the table `H` of Fig. 4 that finds
/// them. A class's signature `[label, class₁, k₁, …]` is stored back to
/// back with the others in `signatures`, so a new class allocates
/// nothing but the growth of these vectors, and the `StableNode`s are
/// built once at the end. A walk's worker gets its vectors reserved by
/// the calling thread and so allocates next to nothing (DESIGN.md §15).
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

    /// Classifies `element` as a walk closes it: `classes_of` holds the
    /// classes of the elements from id `offset` on, and `None` means a
    /// child outside it or not yet classified (ids out of document
    /// order).
    fn close(
        &mut self,
        doc: &Document,
        element: NodeId,
        classes_of: &mut [SynNodeId],
        offset: usize,
    ) -> Option<SynNodeId> {
        let label = doc.label(element);
        let class = if doc.is_leaf(element) {
            self.leaf(label)
        } else {
            for child in doc.children(element) {
                let class = *classes_of.get(child.index().checked_sub(offset)?)?;
                if class == UNSEEN {
                    return None;
                }
                self.children.push(class.0);
            }
            self.internal(label)
        };
        self.add_to_extent(class);
        *classes_of.get_mut(element.index().checked_sub(offset)?)? = class;
        Some(class)
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

    /// The class of an element labeled `label` with `children` as
    /// `(class, count)` pairs, a class possibly in several, new if
    /// unseen; counts the element into its extent.
    fn classify_counted(&mut self, label: LabelId, children: Vec<(u32, u32)>) -> SynNodeId {
        let class = self.sign(label, children);
        self.add_to_extent(class);
        class
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
        for doc in &docs {
            for cut in 1..doc.len() {
                let split = build_split(doc, cut).expect("document order takes the split");
                assert_equal(&split, doc);
            }
            assert!(build_split(doc, doc.len()).is_none());
        }
    }

    #[test]
    fn expand_output_takes_the_serial_path() {
        // expand adds an element's children together, so its ids are not
        // in document order once two siblings have children.
        let source = parse_document("<r><a><b><c/></b><b/></a><a><b/><c/></a><c/></r>").unwrap();
        let doc = crate::expand(&build_stable(&source));
        assert_same(&doc);
        for cut in 1..doc.len() {
            assert!(build_split(&doc, cut).is_none(), "cut {cut}");
        }
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
