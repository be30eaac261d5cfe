//! Arena-allocated node-labeled tree (the paper's `T(V, E)`).
//!
//! Nodes live in a single `Vec`; sibling lists are intrusive
//! (`first_child` / `last_child` / `next_sibling` links) so appending a
//! child is O(1) and traversal allocates nothing. Every node stores its
//! parent, which the nesting-tree machinery and the ESD metric both need.

use crate::label::{LabelId, LabelTable};

/// Identifier of a node inside one [`Document`]; also its pre-order rank
/// when the document was built top-down (as parser and generators do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An absent link.
pub(crate) const NONE: u32 = u32::MAX;

/// One arena slot: `[label, parent, first child, last child, next
/// sibling]`, indexed by the constants below, with [`NONE`] for an
/// absent link. Plain `u32`s rather than a struct so that an arena can
/// be allocated zeroed (`vec![[0; 5]; n]`, one `calloc`): its pages are
/// then first touched by whichever thread fills them (DESIGN.md §15).
pub(crate) type NodeData = [u32; 5];
pub(crate) const LABEL: usize = 0;
pub(crate) const PARENT: usize = 1;
pub(crate) const FIRST_CHILD: usize = 2;
pub(crate) const LAST_CHILD: usize = 3;
pub(crate) const NEXT_SIBLING: usize = 4;

/// Appends node `id` (a fresh slot already holding its label) to the
/// children of `parent`. Both are ids of the arena whose first slot is
/// `nodes[0]` = id `base`.
#[inline]
pub(crate) fn link_child(nodes: &mut [NodeData], base: u32, parent: u32, id: u32) {
    let slot = |node: u32| (node - base) as usize;
    nodes[slot(id)][PARENT] = parent;
    let pdata = &mut nodes[slot(parent)];
    let prev = pdata[LAST_CHILD];
    pdata[LAST_CHILD] = id;
    if prev == NONE {
        pdata[FIRST_CHILD] = id;
    } else {
        nodes[slot(prev)][NEXT_SIBLING] = id;
    }
}

/// A node-labeled ordered tree with interned labels.
///
/// Leaf elements may carry a numeric *value* (the paper's §1 scopes
/// values out of the core study; this substrate supports them for the
/// value-predicate extension). Values are stored sparsely.
#[derive(Debug, Clone)]
pub struct Document {
    labels: LabelTable,
    nodes: Vec<NodeData>,
    /// Sparse numeric leaf values, sorted by node id.
    values: Vec<(u32, f64)>,
}

impl Document {
    /// Creates a document containing only a root labeled `root_label`.
    pub fn new(root_label: &str) -> Self {
        let mut labels = LabelTable::new();
        let label = labels.intern(root_label);
        Document {
            labels,
            nodes: vec![[label.0, NONE, NONE, NONE, NONE]],
            values: Vec::new(),
        }
    }

    /// A document over a filled arena whose node 0 is the root; `values`
    /// must be sorted by node id.
    pub(crate) fn from_parts(
        labels: LabelTable,
        nodes: Vec<NodeData>,
        values: Vec<(u32, f64)>,
    ) -> Self {
        Document {
            labels,
            nodes,
            values,
        }
    }

    /// The arena slots, for tests that compare documents bit for bit.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> &[NodeData] {
        &self.nodes
    }

    /// The label table, for interning through a cache in front of it.
    pub(crate) fn labels_mut(&mut self) -> &mut LabelTable {
        &mut self.labels
    }

    /// The numeric value of `node`, if one was assigned.
    pub fn value(&self, node: NodeId) -> Option<f64> {
        self.values
            .binary_search_by_key(&node.0, |&(n, _)| n)
            .ok()
            .map(|i| self.values[i].1)
    }

    /// Assigns (or overwrites) the numeric value of `node`.
    pub fn set_value(&mut self, node: NodeId, value: f64) {
        match self.values.binary_search_by_key(&node.0, |&(n, _)| n) {
            Ok(i) => self.values[i].1 = value,
            Err(i) => self.values.insert(i, (node.0, value)),
        }
    }

    /// Number of nodes carrying a value.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// The root node (always `NodeId(0)`).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of element nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the document holds only its root. (A document is never
    /// entirely empty.)
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The label table.
    #[inline]
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// Interns a tag in this document's label table.
    pub fn intern(&mut self, name: &str) -> LabelId {
        self.labels.intern(name)
    }

    /// The label id of `node`.
    #[inline]
    pub fn label(&self, node: NodeId) -> LabelId {
        LabelId(self.nodes[node.index()][LABEL])
    }

    /// The tag string of `node`.
    #[inline]
    pub fn label_name(&self, node: NodeId) -> &str {
        self.labels.name(self.label(node))
    }

    /// The parent of `node`, or `None` for the root.
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let p = self.nodes[node.index()][PARENT];
        (p != NONE).then_some(NodeId(p))
    }

    /// Whether `node` has no children.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.nodes[node.index()][FIRST_CHILD] == NONE
    }

    /// Appends a child labeled `label` under `parent`, returning its id.
    ///
    /// # Panics
    ///
    /// If the document already holds `u32::MAX` nodes — the arena
    /// addresses nodes with `u32` ids.
    pub fn add_child(&mut self, parent: NodeId, label: LabelId) -> NodeId {
        let id = match u32::try_from(self.nodes.len()) {
            Ok(next) => next,
            // The arena addresses nodes with u32; beyond that the tree is
            // unrepresentable and aborting beats aliasing node ids.
            Err(_) => panic!("document overflow: more than u32::MAX nodes"),
        };
        self.nodes.push([label.0, NONE, NONE, NONE, NONE]);
        link_child(&mut self.nodes, 0, parent.0, id);
        NodeId(id)
    }

    /// Appends a child by tag string (interning it first).
    pub fn add_child_named(&mut self, parent: NodeId, name: &str) -> NodeId {
        let label = self.labels.intern(name);
        self.add_child(parent, label)
    }

    /// Iterates the children of `node` in document order.
    #[inline]
    pub fn children(&self, node: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.nodes[node.index()][FIRST_CHILD],
        }
    }

    /// Number of children of `node` (O(children)).
    pub fn child_count(&self, node: NodeId) -> usize {
        self.children(node).count()
    }

    /// Pre-order traversal of the whole document.
    pub fn pre_order(&self) -> PreOrder<'_> {
        PreOrder {
            doc: self,
            stack: vec![self.root()],
        }
    }

    /// Pre-order traversal of the subtree rooted at `node` (inclusive).
    pub fn subtree(&self, node: NodeId) -> PreOrder<'_> {
        PreOrder {
            doc: self,
            stack: vec![node],
        }
    }

    /// Post-order traversal of the whole document. `BUILDSTABLE` (§4.1)
    /// visits elements in exactly this order.
    pub fn post_order(&self) -> PostOrder<'_> {
        self.subtree_post_order(self.root())
    }

    /// Post-order traversal of the subtree rooted at `node` (inclusive),
    /// which ends with `node`.
    pub fn subtree_post_order(&self, node: NodeId) -> PostOrder<'_> {
        PostOrder {
            doc: self,
            next: self.leftmost_leaf(node.0),
            last: node.0,
        }
    }

    /// Number of nodes in the subtree rooted at `node` (inclusive).
    pub fn subtree_size(&self, node: NodeId) -> usize {
        self.subtree(node).count()
    }

    /// Depth of every node (root = 0), indexed by `NodeId`.
    pub fn depths(&self) -> Vec<u32> {
        let mut depths = vec![0u32; self.nodes.len()];
        for node in self.pre_order() {
            if let Some(parent) = self.parent(node) {
                depths[node.index()] = depths[parent.index()] + 1;
            }
        }
        depths
    }

    /// Height of the tree: the maximum node depth.
    pub fn height(&self) -> u32 {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// The paper's *depth* of an element (§4.2, CREATEPOOL): 0 for a leaf,
    /// else `1 + max(depth of children)` — i.e. the longest downward path
    /// to a leaf. Returned for every node, indexed by `NodeId`.
    pub fn leaf_depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.nodes.len()];
        for node in self.post_order() {
            let best = self
                .children(node)
                .map(|c| depth[c.index()] + 1)
                .max()
                .unwrap_or(0);
            depth[node.index()] = best;
        }
        depth
    }

    /// The first node of `node`'s subtree in post-order.
    fn leftmost_leaf(&self, mut node: u32) -> u32 {
        while let Some(&[_, _, first_child, _, _]) = self.nodes.get(node as usize) {
            if first_child == NONE {
                break;
            }
            node = first_child;
        }
        node
    }

    /// Iterates all node ids in arena order (== creation order).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..u32::try_from(self.nodes.len()).unwrap_or(u32::MAX)).map(NodeId)
    }
}

/// Iterator over the children of a node.
pub struct Children<'a> {
    doc: &'a Document,
    next: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.next == NONE {
            return None;
        }
        let id = NodeId(self.next);
        self.next = self.doc.nodes[id.index()][NEXT_SIBLING];
        Some(id)
    }
}

/// Pre-order (document-order) traversal.
pub struct PreOrder<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for PreOrder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let node = self.stack.pop()?;
        // Push children in reverse so the leftmost pops first.
        let base = self.stack.len();
        self.stack.extend(self.doc.children(node));
        self.stack[base..].reverse();
        Some(node)
    }
}

/// Post-order traversal of a subtree (children before parents), walked
/// along the tree's own links: down first-child links to a leaf, then on
/// to the next sibling's leftmost leaf, or up to the parent when there is
/// no next sibling. It keeps no stack, so it allocates nothing.
pub struct PostOrder<'a> {
    doc: &'a Document,
    /// The node `next` yields; `NONE` once `last` was yielded.
    next: u32,
    /// The subtree's root, yielded last.
    last: u32,
}

impl Iterator for PostOrder<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let node = self.next;
        let &[_, parent, _, _, next_sibling] = self.doc.nodes.get(node as usize)?;
        self.next = if node == self.last {
            NONE
        } else if next_sibling == NONE {
            parent
        } else {
            self.doc.leftmost_leaf(next_sibling)
        };
        Some(NodeId(node))
    }
}

/// Stack-based builder for constructing documents top-down, used by the
/// dataset generators.
///
/// ```
/// use axqa_xml::DocumentBuilder;
/// let mut b = DocumentBuilder::new("bib");
/// b.open("author");
/// b.leaf("name");
/// b.close();
/// let doc = b.finish();
/// assert_eq!(doc.len(), 3);
/// ```
#[derive(Debug)]
pub struct DocumentBuilder {
    doc: Document,
    stack: Vec<NodeId>,
}

impl DocumentBuilder {
    /// Starts a document whose root is labeled `root_label`; the root is
    /// the initially open element.
    pub fn new(root_label: &str) -> Self {
        let doc = Document::new(root_label);
        let root = doc.root();
        DocumentBuilder {
            doc,
            stack: vec![root],
        }
    }

    /// Opens a new element under the current one; it becomes current.
    pub fn open(&mut self, name: &str) -> NodeId {
        let parent = self.current();
        let id = self.doc.add_child_named(parent, name);
        self.stack.push(id);
        id
    }

    /// Adds an empty element under the current one (open + close).
    pub fn leaf(&mut self, name: &str) -> NodeId {
        let parent = self.current();
        self.doc.add_child_named(parent, name)
    }

    /// Adds a leaf carrying a numeric value.
    pub fn leaf_with_value(&mut self, name: &str, value: f64) -> NodeId {
        let id = self.leaf(name);
        self.doc.set_value(id, value);
        id
    }

    /// Closes the current element.
    ///
    /// # Panics
    /// Panics on an attempt to close the root.
    pub fn close(&mut self) {
        assert!(self.stack.len() > 1, "cannot close the document root");
        self.stack.pop();
    }

    /// Depth of the currently open element (root = 0).
    pub fn depth(&self) -> usize {
        self.stack.len() - 1
    }

    /// The currently open element.
    ///
    /// # Panics
    ///
    /// If the element stack is empty — unreachable in practice, since
    /// the stack starts with the root and `close` refuses to pop it.
    pub fn current(&self) -> NodeId {
        match self.stack.last() {
            Some(&id) => id,
            // The stack starts with the root and `close` refuses to pop it.
            None => unreachable!("builder stack never empty"),
        }
    }

    /// Nodes built so far.
    pub fn len(&self) -> usize {
        self.doc.len()
    }

    /// Whether only the root exists so far.
    pub fn is_empty(&self) -> bool {
        self.doc.is_empty()
    }

    /// Finishes the document, implicitly closing any open elements.
    pub fn finish(self) -> Document {
        self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the example bibliography document of the paper's Figure 1.
    pub(crate) fn figure1_document() -> Document {
        let mut b = DocumentBuilder::new("d");
        // a1: p(y,t,k), p(y,t,k,k), n
        b.open("a");
        b.open("p");
        b.leaf("y");
        b.leaf("t");
        b.leaf("k");
        b.close();
        b.open("p");
        b.leaf("y");
        b.leaf("t");
        b.leaf("k");
        b.leaf("k");
        b.close();
        b.leaf("n");
        b.close();
        // a2: n, p(y,t,k), b(t)
        b.open("a");
        b.leaf("n");
        b.open("p");
        b.leaf("y");
        b.leaf("t");
        b.leaf("k");
        b.close();
        b.open("b");
        b.leaf("t");
        b.close();
        b.close();
        // a3: n, p(y,t,k), b(t)
        b.open("a");
        b.leaf("n");
        b.open("p");
        b.leaf("y");
        b.leaf("t");
        b.leaf("k");
        b.close();
        b.open("b");
        b.leaf("t");
        b.close();
        b.close();
        b.finish()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let doc = figure1_document();
        // d + 3 a + 4 p + 3 y+3 t(p)+5 k + 3 n + 2 b + 2 t(b) ... count:
        // a1: a,p,y,t,k,p,y,t,k,k,n = 11
        // a2: a,n,p,y,t,k,b,t = 8
        // a3: 8  → total 1 + 11 + 8 + 8 = 28
        assert_eq!(doc.len(), 28);
        let root = doc.root();
        assert_eq!(doc.label_name(root), "d");
        assert_eq!(doc.child_count(root), 3);
        for a in doc.children(root) {
            assert_eq!(doc.label_name(a), "a");
            assert_eq!(doc.parent(a), Some(root));
        }
    }

    #[test]
    fn children_in_document_order() {
        let mut doc = Document::new("r");
        let l = doc.intern("x");
        let c1 = doc.add_child(doc.root(), l);
        let c2 = doc.add_child(doc.root(), l);
        let c3 = doc.add_child(doc.root(), l);
        let kids: Vec<_> = doc.children(doc.root()).collect();
        assert_eq!(kids, vec![c1, c2, c3]);
    }

    #[test]
    fn pre_order_visits_parent_before_children() {
        let doc = figure1_document();
        let order: Vec<_> = doc.pre_order().collect();
        assert_eq!(order.len(), doc.len());
        let mut position = vec![0usize; doc.len()];
        for (i, n) in order.iter().enumerate() {
            position[n.index()] = i;
        }
        for n in doc.node_ids() {
            if let Some(p) = doc.parent(n) {
                assert!(position[p.index()] < position[n.index()]);
            }
        }
    }

    #[test]
    fn post_order_visits_children_before_parent() {
        let doc = figure1_document();
        let order: Vec<_> = doc.post_order().collect();
        assert_eq!(order.len(), doc.len());
        let mut position = vec![0usize; doc.len()];
        for (i, n) in order.iter().enumerate() {
            position[n.index()] = i;
        }
        for n in doc.node_ids() {
            if let Some(p) = doc.parent(n) {
                assert!(position[p.index()] > position[n.index()]);
            }
        }
        assert_eq!(*order.last().unwrap(), doc.root());
    }

    #[test]
    fn traversals_match_their_recursive_definitions() {
        fn pre(doc: &Document, n: NodeId, out: &mut Vec<NodeId>) {
            out.push(n);
            for c in doc.children(n) {
                pre(doc, c, out);
            }
        }
        fn post(doc: &Document, n: NodeId, out: &mut Vec<NodeId>) {
            for c in doc.children(n) {
                post(doc, c, out);
            }
            out.push(n);
        }
        // Children added level by level, so ids are not pre-order ranks.
        let mut shuffled = Document::new("r");
        let l = shuffled.intern("x");
        let root = shuffled.root();
        let [a, b, c] = [(); 3].map(|()| shuffled.add_child(root, l));
        let a1 = shuffled.add_child(a, l);
        shuffled.add_child(c, l);
        shuffled.add_child(a, l);
        shuffled.add_child(b, l);
        shuffled.add_child(a1, l);
        for doc in [figure1_document(), shuffled, Document::new("r")] {
            for node in doc.node_ids() {
                let mut expected = Vec::new();
                pre(&doc, node, &mut expected);
                assert_eq!(doc.subtree(node).collect::<Vec<_>>(), expected);
                expected.clear();
                post(&doc, node, &mut expected);
                assert_eq!(doc.subtree_post_order(node).collect::<Vec<_>>(), expected);
            }
            let mut expected = Vec::new();
            post(&doc, doc.root(), &mut expected);
            assert_eq!(doc.post_order().collect::<Vec<_>>(), expected);
            let root: Vec<_> = doc.subtree_post_order(doc.root()).collect();
            assert_eq!(root, expected);
        }
    }

    #[test]
    fn subtree_sizes_and_height() {
        let doc = figure1_document();
        assert_eq!(doc.subtree_size(doc.root()), 28);
        let first_a = doc.children(doc.root()).next().unwrap();
        assert_eq!(doc.subtree_size(first_a), 11);
        assert_eq!(doc.height(), 3); // d → a → p → y
    }

    #[test]
    fn leaf_depths_match_paper_definition() {
        let doc = figure1_document();
        let depth = doc.leaf_depths();
        assert_eq!(depth[doc.root().index()], 3);
        for n in doc.node_ids() {
            if doc.is_leaf(n) {
                assert_eq!(depth[n.index()], 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot close the document root")]
    fn closing_root_panics() {
        let mut b = DocumentBuilder::new("r");
        b.close();
    }
}
