//! The multi-core path of [`super::parse_document`] (DESIGN.md §15).
//!
//! The input is cut into chunks, each starting at an open tag (`<`
//! followed by a name byte). The calling thread parses the first chunk
//! from byte 0; every other worker parses its chunk as a *fragment*: a
//! piece that may close elements opened before it, and whose top-level
//! elements are children of those elements. All of them write into one
//! node arena, allocated zeroed and sized from the chunks' open-tag
//! counts, each into its own range of it.
//!
//! The calling thread is authoritative and every other worker's output
//! is speculative: the stitch takes the fragments in order and uses one
//! only after checking that the serial parser, at the fragment's start
//! and in the state the earlier chunks left, would have done exactly
//! what the fragment did. At the first fragment that fails (a worker
//! erred, a close tag does not match, a second root, or the previous
//! chunk's last event ran past the boundary because the cut fell inside
//! a comment, CDATA section, processing instruction or tag), the serial
//! parser takes over from there with the stitched state, so errors and
//! their offsets are the serial ones.

use super::{is_name_byte, next_event, parse_serial, Event, TagCache};
use crate::error::XmlError;
use crate::label::LabelTable;
use crate::threads::{fan_out, Joined};
use crate::tree::{link_child, Document, NodeData, NodeId};
use crate::tree::{FIRST_CHILD, LABEL, LAST_CHILD, NEXT_SIBLING, NONE, PARENT};

/// Bytes the calling thread parses before the other workers start, so
/// that they can seed their label tables with the document's first
/// labels. Labels seeded this way get their final ids in every chunk,
/// and when all of a chunk's labels do, its nodes need no relabelling.
const SEED_BYTES: usize = 1 << 16;

/// Parses `input` in chunks that start at the first open tag at or
/// after each of the ascending byte offsets `cuts`.
pub(super) fn parse(input: &str, cuts: &[usize]) -> Result<Document, XmlError> {
    let bytes = input.as_bytes();
    let mut starts = vec![0];
    for &cut in cuts {
        let Some(start) = next_open_tag(bytes, cut) else {
            break;
        };
        if starts.last().is_some_and(|&last| start > last) {
            starts.push(start);
        }
    }
    if starts.len() < 2 {
        return parse_serial(input, 0, None, Vec::new());
    }
    let ends: Vec<usize> = starts[1..].iter().copied().chain([bytes.len()]).collect();
    let chunks: Vec<(usize, usize)> = starts.iter().copied().zip(ends).collect();

    // Every element starts with an open tag, so a chunk's open-tag count
    // bounds the nodes it creates.
    let (first, counts) = fan_out(
        chunks[1..]
            .iter()
            .map(|&(start, end)| move || count_open_tags(bytes, start, end)),
        || count_open_tags(bytes, chunks[0].0, chunks[0].1),
    );
    let bounds: Option<Vec<usize>> = [Some(first)]
        .into_iter()
        .chain(counts.into_iter().map(Joined::finished))
        .collect();
    let Some(bounds) = bounds else {
        return parse_serial(input, 0, None, Vec::new());
    };
    let total: usize = bounds.iter().sum();
    if u32::try_from(total).map_or(true, |total| total == NONE) {
        // Beyond the id space: the serial parser reports it.
        return parse_serial(input, 0, None, Vec::new());
    }

    // Zeroed, so that each worker takes the first-touch page faults of
    // its own range.
    let mut arena: Vec<NodeData> = vec![[0; 5]; total];
    let mut jobs = Vec::with_capacity(chunks.len());
    let (mut rest, mut base) = (arena.as_mut_slice(), 0);
    for (&bound, &(start, end)) in bounds.iter().zip(&chunks) {
        let (nodes, tail) = rest.split_at_mut(bound);
        jobs.push((Fragment::new(start, base), end, nodes));
        (rest, base) = (tail, base + bound);
    }
    let mut jobs = jobs.into_iter();
    let Some((Some(mut head), head_end, head_nodes)) = jobs.next() else {
        return parse_serial(input, 0, None, Vec::new());
    };
    let seed_end = next_open_tag(bytes, SEED_BYTES).map_or(head_end, |p| p.min(head_end));
    let seeded = head.parse(input, seed_end, head_nodes).is_some();
    let jobs: Vec<_> = jobs
        .map(|(fragment, end, nodes)| {
            let seed = head.labels.clone();
            move || {
                let mut fragment = fragment?;
                fragment.labels = seed;
                fragment.parse(input, end, nodes)?;
                Some(fragment)
            }
        })
        .collect();
    let (head, others) = fan_out(jobs, || {
        let ok = seeded && head.parse(input, head_end, head_nodes).is_some();
        ok.then_some(head)
    });
    let mut fragments =
        std::iter::once(head).chain(others.into_iter().map(|job| job.finished().flatten()));

    let mut stitch = Stitch::default();
    let mut resume = input.len();
    for &(start, end) in &chunks {
        let fragment = fragments.next().flatten();
        let Some(fragment) = fragment.filter(|f| stitch.accepts(f)) else {
            resume = start;
            break;
        };
        let stop = fragment.pos;
        stitch.apply(&mut arena, fragment);
        if stop != end {
            // The last event ran past the next chunk's start.
            resume = stop;
            break;
        }
    }
    arena.truncate(stitch.len);
    let doc = stitch
        .has_root
        .then(|| Document::from_parts(stitch.labels, arena, stitch.values));
    let open = stitch
        .open
        .into_iter()
        .map(|(id, tag)| (NodeId(id), tag))
        .collect();
    parse_serial(input, resume, doc, open)
}

/// The first open tag (`<` and a name byte) at or after `from`.
fn next_open_tag(bytes: &[u8], from: usize) -> Option<usize> {
    let tail = bytes.get(from..)?;
    tail.windows(2)
        .position(|w| w[0] == b'<' && is_name_byte(w[1]))
        .map(|i| from + i)
}

/// An upper bound on the open tags starting in `bytes[start..end]`:
/// the `<`s not followed by `/`, `!` or `?`. Counted in blocks of 255
/// into a `u8`, which the compiler turns into wide compares.
fn count_open_tags(bytes: &[u8], start: usize, end: usize) -> usize {
    // A '<' in the last byte opens nothing.
    let end = end.min(bytes.len().saturating_sub(1)).max(start);
    let (here, next) = (&bytes[start..end], &bytes[start + 1..end + 1]);
    here.chunks(255)
        .zip(next.chunks(255))
        .map(|(here, next)| {
            let block: u8 = here
                .iter()
                .zip(next)
                .map(|(&b, &n)| u8::from((b == b'<') & (n != b'/') & (n != b'!') & (n != b'?')))
                .sum();
            usize::from(block)
        })
        .sum()
}

/// One chunk parsed as a fragment.
struct Fragment<'a> {
    /// Id of the first slot of the worker's range.
    base: u32,
    /// Where parsing stands. At the end: the chunk's end, or past it
    /// when the last event ran over the next chunk's start.
    pos: usize,
    /// Start of the text run since the last markup event.
    text_start: Option<usize>,
    /// Nodes written to the front of the worker's range.
    len: usize,
    /// The chunk's label table: the seed's labels, then the chunk's
    /// others in first-occurrence order. The nodes' label slots hold
    /// its ids.
    labels: LabelTable,
    tags: TagCache,
    /// Ids of the top-level elements, in order.
    tops: Vec<u32>,
    /// Where each run of top-level elements starts in `tops`: run `j`
    /// follows the `j`th unmatched close tag, and its elements are
    /// linked as siblings.
    runs: Vec<usize>,
    /// Unmatched close tags: the name, and the text right before it
    /// read as a number (the closed element's value if it is a leaf).
    closes: Vec<(&'a str, Option<f64>)>,
    /// Elements still open, outermost first.
    open: Vec<(u32, &'a str)>,
    /// Values of the leaves closed in the chunk, in id order.
    values: Vec<(u32, f64)>,
}

impl<'a> Fragment<'a> {
    /// A fragment starting at byte `start` that fills a range whose
    /// first slot has id `base`.
    fn new(start: usize, base: usize) -> Option<Self> {
        Some(Fragment {
            base: u32::try_from(base).ok()?,
            pos: start,
            text_start: None,
            len: 0,
            labels: LabelTable::new(),
            tags: TagCache::default(),
            tops: Vec::new(),
            runs: vec![0],
            closes: Vec::new(),
            open: Vec::new(),
            values: Vec::new(),
        })
    }

    /// Run `j` of the top-level elements.
    fn run(&self, j: usize) -> &[u32] {
        let end = self.runs.get(j + 1).copied().unwrap_or(self.tops.len());
        &self.tops[self.runs[j]..end]
    }

    /// Parses on until `end`, writing nodes into `nodes` (the worker's
    /// range). `None` when the chunk holds an error of its own; whether
    /// the fragment fits what comes before it is the stitch's question.
    fn parse(&mut self, input: &'a str, end: usize, nodes: &mut [NodeData]) -> Option<()> {
        let base = self.base;
        while self.pos < end {
            let pos = self.pos;
            let (event, next) = next_event(input, pos).ok()?;
            self.pos = next;
            match event {
                Event::Text => {
                    self.text_start = Some(pos);
                    continue;
                }
                Event::Skip => {}
                Event::Close(tag) => {
                    let text = self.text_start.map(|start| input[start..pos].trim());
                    match self.open.pop() {
                        Some((node, expected)) => {
                            if expected != tag {
                                return None;
                            }
                            let leaf = nodes[(node - base) as usize][FIRST_CHILD] == NONE;
                            if let Some(text) = text.filter(|_| leaf) {
                                if let Ok(v) = text.parse::<f64>() {
                                    self.values.push((node, v));
                                }
                            }
                        }
                        None => {
                            self.closes.push((tag, text.and_then(|t| t.parse().ok())));
                            self.runs.push(self.tops.len());
                        }
                    }
                }
                Event::Open { tag, self_closing } => {
                    let slot = nodes.get_mut(self.len)?;
                    let id = base + u32::try_from(self.len).ok()?;
                    let label = self.tags.intern(&mut self.labels, tag);
                    *slot = [label.0, NONE, NONE, NONE, NONE];
                    self.len += 1;
                    match self.open.last() {
                        Some(&(parent, _)) => link_child(nodes, base, parent, id),
                        None => {
                            if let Some(&prev) = self.run(self.runs.len() - 1).last() {
                                nodes[(prev - base) as usize][NEXT_SIBLING] = id;
                            }
                            self.tops.push(id);
                        }
                    }
                    if !self_closing {
                        self.open.push((id, tag));
                    }
                }
            }
            self.text_start = None;
        }
        Some(())
    }
}

/// The document as stitched so far: the serial parser's state at the
/// start of the next chunk.
#[derive(Default)]
struct Stitch<'a> {
    labels: LabelTable,
    values: Vec<(u32, f64)>,
    /// Open elements, outermost first.
    open: Vec<(u32, &'a str)>,
    /// Nodes stitched: the arena's valid prefix.
    len: usize,
    has_root: bool,
}

impl<'a> Stitch<'a> {
    /// Whether the serial parser, in this state, would parse `f`'s chunk
    /// without an error of its own: each unmatched close names the
    /// innermost open element, and every top-level element has an open
    /// parent or is the root (the first element, alone in its run).
    fn accepts(&self, f: &Fragment<'a>) -> bool {
        let mut depth = self.open.len();
        let mut has_root = self.has_root;
        for j in 0..f.runs.len() {
            let run = f.run(j);
            if !run.is_empty() && depth == 0 {
                if has_root || run.len() != 1 {
                    return false;
                }
                has_root = true;
            }
            if let Some(&(tag, _)) = f.closes.get(j) {
                match depth.checked_sub(1) {
                    Some(inner) if self.open[inner].1 == tag => depth = inner,
                    _ => return false,
                }
            }
        }
        true
    }

    /// Appends an accepted fragment: moves its nodes down over any gap
    /// the earlier chunks' bounds left, maps its labels into the
    /// document's table (new labels in the chunk's first-occurrence
    /// order, which is the serial order), hangs its top-level runs under
    /// the open elements and takes over the elements it leaves open.
    fn apply(&mut self, arena: &mut [NodeData], f: Fragment<'a>) {
        let (base, at) = (f.base as usize, self.len);
        let shift = f.base - u32::try_from(at).unwrap_or(f.base);
        if shift > 0 {
            arena.copy_within(base..base + f.len, at);
        }
        let labels: Vec<u32> = f
            .labels
            .iter()
            .map(|(_, name)| self.labels.intern(name).0)
            .collect();
        let same_labels = labels.iter().enumerate().all(|(i, &l)| l as usize == i);
        let moved = |id: u32| if id == NONE { NONE } else { id - shift };
        if shift > 0 || !same_labels {
            for node in &mut arena[at..at + f.len] {
                node[LABEL] = labels[node[LABEL] as usize];
                for link in &mut node[PARENT..] {
                    *link = moved(*link);
                }
            }
        }

        for j in 0..f.runs.len() {
            let run = f.run(j);
            if let (Some(&first), Some(&last)) = (run.first(), run.last()) {
                match self.open.last() {
                    Some(&(parent, _)) => {
                        for &top in run {
                            arena[moved(top) as usize][PARENT] = parent;
                        }
                        append_children(arena, parent, moved(first), moved(last));
                    }
                    None => self.has_root = true,
                }
            }
            if let Some(&(_, value)) = f.closes.get(j) {
                if let Some((node, _)) = self.open.pop() {
                    if let Some(v) = value {
                        if arena[node as usize][FIRST_CHILD] == NONE {
                            insert_value(&mut self.values, node, v);
                        }
                    }
                }
            }
        }
        self.open
            .extend(f.open.iter().map(|&(id, tag)| (moved(id), tag)));
        if self.values.is_empty() && shift == 0 {
            self.values = f.values;
        } else {
            for &(node, v) in &f.values {
                insert_value(&mut self.values, moved(node), v);
            }
        }
        self.len += f.len;
    }
}

/// Appends the sibling chain `first ..= last`, whose parent links are
/// set, to the children of `parent`.
fn append_children(arena: &mut [NodeData], parent: u32, first: u32, last: u32) {
    let pdata = &mut arena[parent as usize];
    let prev = pdata[LAST_CHILD];
    pdata[LAST_CHILD] = last;
    if prev == NONE {
        pdata[FIRST_CHILD] = first;
    } else {
        arena[prev as usize][NEXT_SIBLING] = first;
    }
}

/// Sets `node`'s value in the id-sorted `values`: an append, when ids
/// arrive in order as they do.
fn insert_value(values: &mut Vec<(u32, f64)>, node: u32, v: f64) {
    match values.last() {
        Some(&(last, _)) if last >= node => match values.binary_search_by_key(&node, |&(n, _)| n) {
            Ok(i) => values[i].1 = v,
            Err(i) => values.insert(i, (node, v)),
        },
        _ => values.push((node, v)),
    }
}
