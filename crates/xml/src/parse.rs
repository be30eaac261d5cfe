//! Minimal XML parser for the structural subset the paper needs.
//!
//! Supported: elements (with attributes, which are skipped), self-closing
//! tags, character data (skipped — values are out of scope per §1/§2),
//! comments, processing instructions, an XML declaration, CDATA sections
//! and a DOCTYPE line (all skipped). Namespaces are treated as part of the
//! tag string. Anything structurally ill-formed is an [`XmlError`].
//!
//! Inputs of one MiB or more are parsed in chunks on every core
//! (`parse/chunked.rs`, DESIGN.md §15); the result is the serial parse's, bit
//! for bit, errors included.

mod chunked;

use crate::error::XmlError;
use crate::label::{LabelId, LabelTable};
use crate::tree::{Document, NodeId};

/// Input bytes per parse worker, at the least. On two cores the chunked
/// parse won every measured round against the serial one from 1.1 MiB of
/// input up, was mixed from 0.4 to 0.9 MiB and lost at 0.2 MiB
/// (DESIGN.md §15).
const BYTES_PER_WORKER: usize = 1 << 19;

/// Parses `input` into a [`Document`] holding the element structure.
///
/// Nothing is allocated per element: tag names stay slices of `input`,
/// a close tag is matched by comparing bytes with the innermost open
/// name, and only an [`XmlError`] builds `String`s. An input of at
/// least one MiB is split into up to one chunk per available core (one
/// per 512 KiB at most); the chunks are parsed at once and stitched in
/// order, and the result is the same as one thread's, errors included.
///
/// ```
/// use axqa_xml::parse_document;
///
/// let doc = parse_document("<bib><book id='1'>text</book></bib>").unwrap();
/// assert_eq!(doc.len(), 2); // values and attributes carry no structure
/// assert_eq!(doc.label_name(doc.root()), "bib");
/// ```
pub fn parse_document(input: &str) -> Result<Document, XmlError> {
    // Size first: asking for the core count reads the cgroup files.
    let workers = match input.len() / BYTES_PER_WORKER {
        0 | 1 => 1,
        most => std::thread::available_parallelism().map_or(1, |n| n.get().min(most)),
    };
    if workers < 2 {
        return parse_serial(input, 0, None, Vec::new());
    }
    let step = input.len() / workers;
    let cuts: Vec<usize> = (1..workers).map(|i| i * step).collect();
    chunked::parse(input, &cuts)
}

/// The serial parse from byte `pos`, given the document built so far
/// (`None` before the root) and the elements open at `pos`, outermost
/// first. `pos` must be where an event starts.
fn parse_serial<'a>(
    input: &'a str,
    mut pos: usize,
    mut doc: Option<Document>,
    mut open: Vec<(NodeId, &'a str)>,
) -> Result<Document, XmlError> {
    let mut tags = TagCache::default();
    // Start of the text run since the last markup event (numeric leaf
    // text becomes the element's value; everything else is skipped).
    let mut text_start: Option<usize> = None;

    while pos < input.len() {
        let (event, next) = next_event(input, pos)?;
        match event {
            Event::Text => {
                // Character data: remembered only to check for a numeric
                // leaf value at the next closing tag.
                text_start = Some(pos);
                pos = next;
                continue;
            }
            Event::Skip => {}
            Event::Close(tag) => {
                let Some((node, expected)) = open.pop() else {
                    return Err(XmlError::Malformed {
                        message: format!("closing tag </{tag}> with no open element"),
                        offset: pos,
                    });
                };
                if expected != tag {
                    return Err(XmlError::MismatchedTag {
                        expected: expected.to_owned(),
                        found: tag.to_owned(),
                        offset: pos,
                    });
                }
                let Some(d) = doc.as_mut() else {
                    return Err(XmlError::Malformed {
                        message: "closing tag before any element".into(),
                        offset: pos,
                    });
                };
                // Numeric text directly inside a leaf becomes its value
                // (the value-content extension).
                if let Some(start) = text_start {
                    if d.is_leaf(node) {
                        if let Ok(v) = input[start..pos].trim().parse::<f64>() {
                            d.set_value(node, v);
                        }
                    }
                }
            }
            Event::Open { tag, self_closing } => {
                let node = match doc.as_mut() {
                    None => {
                        let root = Document::new(tag);
                        let id = root.root();
                        doc = Some(root);
                        id
                    }
                    Some(d) => {
                        // An empty stack after the root: it was closed.
                        let Some(&(parent, _)) = open.last() else {
                            return Err(XmlError::MultipleRoots { offset: pos });
                        };
                        let label = tags.intern(d.labels_mut(), tag);
                        d.add_child(parent, label)
                    }
                };
                if !self_closing {
                    open.push((node, tag));
                }
            }
        }
        pos = next;
        text_start = None;
    }

    let doc = doc.ok_or(XmlError::EmptyDocument)?;
    if let Some(&(_, tag)) = open.last() {
        return Err(XmlError::UnexpectedEof {
            open_tag: Some(tag.to_owned()),
        });
    }
    Ok(doc)
}

/// One lexical event of the input.
#[derive(Debug, Clone, Copy)]
enum Event<'a> {
    /// Character data, up to the next `<` or the end.
    Text,
    /// A comment, CDATA section, declaration or processing instruction.
    Skip,
    /// A closing tag.
    Close(&'a str),
    /// An opening or self-closing tag.
    Open { tag: &'a str, self_closing: bool },
}

/// Reads the event starting at `pos` (`pos < input.len()`) and returns
/// it with the position just past it. Markup is dispatched on its
/// second byte; a text run is skipped with `str::find('<')`.
#[inline(always)]
fn next_event(input: &str, pos: usize) -> Result<(Event<'_>, usize), XmlError> {
    let bytes = input.as_bytes();
    let rest = &bytes[pos..];
    if rest[0] != b'<' {
        let end = input[pos..].find('<').map_or(bytes.len(), |i| pos + i);
        return Ok((Event::Text, end));
    }
    let end = match rest.get(1) {
        Some(b'!') if rest.starts_with(b"<!--") => {
            skip_until(input, pos + 4, "-->", "unterminated comment")?
        }
        Some(b'!') if rest.starts_with(b"<![CDATA[") => {
            skip_until(input, pos + 9, "]]>", "unterminated CDATA section")?
        }
        Some(b'!') => {
            // DOCTYPE or other declaration: skip to the matching '>'.
            skip_until(input, pos + 2, ">", "unterminated declaration")?
        }
        Some(b'?') => skip_until(input, pos + 2, "?>", "unterminated processing instruction")?,
        Some(b'/') => {
            let (tag, end) = read_name(input, pos + 2)?;
            let close_at = find_gt(input, end)?;
            return Ok((Event::Close(tag), close_at + 1));
        }
        _ => {
            let (tag, after_name) = read_name(input, pos + 1)?;
            let gt = find_gt(input, after_name)?;
            let self_closing = bytes[gt - 1] == b'/';
            return Ok((Event::Open { tag, self_closing }, gt + 1));
        }
    };
    Ok((Event::Skip, end))
}

/// Slots of the [`TagCache`]: a document's tag vocabulary is small.
const TAG_CACHE_SLOTS: usize = 256;

/// A direct-mapped cache of recent tag names in front of
/// [`Document::intern`], which hashes the whole name and probes a map.
/// A slot is picked from the name's length and its first, second,
/// middle and last bytes, and a hit is confirmed by comparing the name
/// with the label's, so a collision only costs a fall-back to `intern`.
struct TagCache {
    slots: [Option<LabelId>; TAG_CACHE_SLOTS],
}

impl Default for TagCache {
    fn default() -> Self {
        TagCache {
            slots: [None; TAG_CACHE_SLOTS],
        }
    }
}

impl TagCache {
    /// The label of `name` in `labels`, interning it on a miss.
    fn intern(&mut self, labels: &mut LabelTable, name: &str) -> LabelId {
        let bytes = name.as_bytes();
        let byte = |i: usize| u64::from(bytes.get(i).copied().unwrap_or(0));
        let len = bytes.len();
        let key = byte(0) | byte(1) << 8 | byte(len / 2) << 16 | byte(len.wrapping_sub(1)) << 24;
        let mixed = (key | (len as u64) << 32).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let slot = &mut self.slots[usize::from(mixed.to_be_bytes()[0])];
        match *slot {
            Some(label) if labels.name(label) == name => label,
            _ => {
                let label = labels.intern(name);
                *slot = Some(label);
                label
            }
        }
    }
}

/// Skips forward from `from` to just past the next occurrence of `needle`.
fn skip_until(input: &str, from: usize, needle: &str, what: &str) -> Result<usize, XmlError> {
    match input[from..].find(needle) {
        Some(i) => Ok(from + i + needle.len()),
        None => Err(malformed(what, from)),
    }
}

/// A [`XmlError::Malformed`], built off the hot path.
#[cold]
fn malformed(message: &str, offset: usize) -> XmlError {
    XmlError::Malformed {
        message: message.to_owned(),
        offset,
    }
}

/// Whether `b` may appear in a tag name.
#[inline]
fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')
}

/// Reads a tag name starting at `from`; returns (name, position after it).
fn read_name(input: &str, from: usize) -> Result<(&str, usize), XmlError> {
    let bytes = input.as_bytes();
    let mut end = from;
    while end < bytes.len() && is_name_byte(bytes[end]) {
        end += 1;
    }
    if end == from {
        return Err(malformed("expected tag name", from));
    }
    Ok((&input[from..end], end))
}

/// Finds the closing `>` of a tag, respecting quoted attribute values.
fn find_gt(input: &str, from: usize) -> Result<usize, XmlError> {
    let bytes = input.as_bytes();
    let mut pos = from;
    let mut quote: Option<u8> = None;
    while pos < bytes.len() {
        let b = bytes[pos];
        match quote {
            Some(q) => {
                if b == q {
                    quote = None;
                }
            }
            None => match b {
                b'"' | b'\'' => quote = Some(b),
                b'>' => return Ok(pos),
                b'<' => return Err(malformed("'<' inside tag", pos)),
                _ => {}
            },
        }
        pos += 1;
    }
    Err(XmlError::UnexpectedEof { open_tag: None })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_nesting() {
        let doc = parse_document("<a><b><c/></b><b/></a>").unwrap();
        assert_eq!(doc.len(), 4);
        assert_eq!(doc.label_name(doc.root()), "a");
        let kids: Vec<_> = doc
            .children(doc.root())
            .map(|n| doc.label_name(n).to_owned())
            .collect();
        assert_eq!(kids, vec!["b", "b"]);
    }

    #[test]
    fn skips_text_attributes_comments_pis() {
        let src = r#"<?xml version="1.0"?>
<!DOCTYPE bib>
<bib year="2004">
  <!-- a comment with <b> inside -->
  <paper id="1">Approximate <em>XML</em> answers</paper>
  <![CDATA[<not><elements>]]>
</bib>"#;
        let doc = parse_document(src).unwrap();
        // bib, paper, em
        assert_eq!(doc.len(), 3);
        assert_eq!(doc.label_name(doc.root()), "bib");
    }

    #[test]
    fn self_closing_root() {
        let doc = parse_document("<only/>").unwrap();
        assert_eq!(doc.len(), 1);
        assert!(doc.is_leaf(doc.root()));
    }

    #[test]
    fn quoted_gt_in_attribute() {
        let doc = parse_document(r#"<a title="x > y"><b/></a>"#).unwrap();
        assert_eq!(doc.len(), 2);
    }

    #[test]
    fn mismatched_tag_is_reported() {
        let err = parse_document("<a><b></a></b>").unwrap_err();
        match err {
            XmlError::MismatchedTag {
                expected, found, ..
            } => {
                assert_eq!(expected, "b");
                assert_eq!(found, "a");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unclosed_element_is_reported() {
        let err = parse_document("<a><b>").unwrap_err();
        assert_eq!(
            err,
            XmlError::UnexpectedEof {
                open_tag: Some("b".into())
            }
        );
    }

    #[test]
    fn multiple_roots_rejected() {
        let err = parse_document("<a/><b/>").unwrap_err();
        assert!(matches!(err, XmlError::MultipleRoots { .. }));
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(
            parse_document("  \n ").unwrap_err(),
            XmlError::EmptyDocument
        );
    }

    #[test]
    fn stray_close_rejected() {
        assert!(matches!(
            parse_document("</a>"),
            Err(XmlError::Malformed { .. })
        ));
    }

    #[test]
    fn namespaced_tags_kept_verbatim() {
        let doc = parse_document("<ns:a><ns:b/></ns:a>").unwrap();
        assert_eq!(doc.label_name(doc.root()), "ns:a");
    }
}

#[cfg(test)]
mod value_tests {
    use super::*;
    use crate::write::write_document;

    #[test]
    fn numeric_leaf_text_becomes_value() {
        let doc = parse_document("<p><year>2004</year><title>XML answers</title></p>").unwrap();
        let year = doc
            .node_ids()
            .find(|&n| doc.label_name(n) == "year")
            .unwrap();
        let title = doc
            .node_ids()
            .find(|&n| doc.label_name(n) == "title")
            .unwrap();
        assert_eq!(doc.value(year), Some(2004.0));
        assert_eq!(doc.value(title), None); // non-numeric text skipped
    }

    #[test]
    fn values_roundtrip_through_writer() {
        let src = "<r><price>19.5</price><qty>3</qty><note/></r>";
        let doc = parse_document(src).unwrap();
        assert_eq!(write_document(&doc), src);
        let reparsed = parse_document(&write_document(&doc)).unwrap();
        assert_eq!(reparsed.num_values(), 2);
    }

    #[test]
    fn internal_text_never_becomes_a_value() {
        // Mixed content around a child: the parent is not a leaf.
        let doc = parse_document("<a>12<b/>34</a>").unwrap();
        assert_eq!(doc.value(doc.root()), None);
    }

    #[test]
    fn negative_and_float_values() {
        let doc = parse_document("<r><t>-2.75</t></r>").unwrap();
        let t = doc.node_ids().find(|&n| doc.label_name(n) == "t").unwrap();
        assert_eq!(doc.value(t), Some(-2.75));
    }
}

/// The parser before tag names became input slices: one `String` per
/// open and close tag, built through a top-down builder. The
/// differential tests below hold [`parse_document`] to its results,
/// errors included.
#[cfg(test)]
mod reference {
    use super::{find_gt, skip_until};
    use crate::error::XmlError;
    use crate::tree::{Document, NodeId};

    /// The builder calls the old parser made, on a plain node stack.
    struct DocumentBuilder {
        doc: Document,
        stack: Vec<NodeId>,
    }

    impl DocumentBuilder {
        fn new(root_label: &str) -> Self {
            let doc = Document::new(root_label);
            let stack = vec![doc.root()];
            DocumentBuilder { doc, stack }
        }

        fn current(&self) -> NodeId {
            *self.stack.last().unwrap()
        }

        fn open(&mut self, name: &str) {
            let id = self.doc.add_child_named(self.current(), name);
            self.stack.push(id);
        }

        fn leaf(&mut self, name: &str) {
            self.doc.add_child_named(self.current(), name);
        }

        fn set_current_value(&mut self, value: f64) {
            self.doc.set_value(self.current(), value);
        }

        fn current_is_leaf(&self) -> bool {
            self.doc.is_leaf(self.current())
        }

        fn close(&mut self) {
            assert!(self.stack.len() > 1, "cannot close the document root");
            self.stack.pop();
        }

        fn finish(self) -> Document {
            self.doc
        }
    }

    fn read_name(input: &str, from: usize) -> Result<(String, usize), XmlError> {
        super::read_name(input, from).map(|(name, end)| (name.to_owned(), end))
    }

    pub(super) fn parse_document(input: &str) -> Result<Document, XmlError> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let mut builder: Option<DocumentBuilder> = None;
        let mut open: Vec<String> = Vec::new();
        let mut root_closed = false;
        let mut text_start: Option<usize> = None;

        while pos < bytes.len() {
            if bytes[pos] != b'<' {
                if text_start.is_none() {
                    text_start = Some(pos);
                }
                pos += 1;
                continue;
            }
            if input[pos..].starts_with("<!--") {
                pos = skip_until(input, pos + 4, "-->", "unterminated comment")?;
            } else if input[pos..].starts_with("<![CDATA[") {
                pos = skip_until(input, pos + 9, "]]>", "unterminated CDATA section")?;
            } else if input[pos..].starts_with("<!") {
                pos = skip_until(input, pos + 2, ">", "unterminated declaration")?;
            } else if input[pos..].starts_with("<?") {
                pos = skip_until(input, pos + 2, "?>", "unterminated processing instruction")?;
            } else if input[pos..].starts_with("</") {
                let (tag, end) = read_name(input, pos + 2)?;
                let close_at = find_gt(input, end)?;
                match open.pop() {
                    Some(expected) if expected == tag => {
                        let Some(b) = builder.as_mut() else {
                            return Err(XmlError::Malformed {
                                message: "closing tag before any element".into(),
                                offset: pos,
                            });
                        };
                        if let Some(start) = text_start {
                            if b.current_is_leaf() {
                                if let Ok(v) = input[start..pos].trim().parse::<f64>() {
                                    b.set_current_value(v);
                                }
                            }
                        }
                        if open.is_empty() {
                            root_closed = true;
                        } else {
                            b.close();
                        }
                    }
                    Some(expected) => {
                        return Err(XmlError::MismatchedTag {
                            expected,
                            found: tag,
                            offset: pos,
                        });
                    }
                    None => {
                        return Err(XmlError::Malformed {
                            message: format!("closing tag </{tag}> with no open element"),
                            offset: pos,
                        });
                    }
                }
                pos = close_at + 1;
            } else {
                let (tag, after_name) = read_name(input, pos + 1)?;
                let gt = find_gt(input, after_name)?;
                let self_closing = bytes[gt - 1] == b'/';
                if root_closed {
                    return Err(XmlError::MultipleRoots { offset: pos });
                }
                match builder.as_mut() {
                    None => {
                        builder = Some(DocumentBuilder::new(&tag));
                        if self_closing {
                            root_closed = true;
                        } else {
                            open.push(tag);
                        }
                    }
                    Some(b) => {
                        if open.is_empty() {
                            return Err(XmlError::MultipleRoots { offset: pos });
                        }
                        if self_closing {
                            b.leaf(&tag);
                        } else {
                            b.open(&tag);
                            open.push(tag);
                        }
                    }
                }
                pos = gt + 1;
            }
            text_start = None;
        }

        match builder {
            None => Err(XmlError::EmptyDocument),
            Some(b) => {
                if let Some(tag) = open.pop() {
                    return Err(XmlError::UnexpectedEof {
                        open_tag: Some(tag),
                    });
                }
                Ok(b.finish())
            }
        }
    }
}

/// Differential and no-panic tests: [`parse_document`] against the
/// [`reference`] parser on random documents and their mutations.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use crate::write::write_document;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Label names and arena rows (every link of the node, and its value
    /// bits) in creation order: together they pin structure, sibling
    /// order, label ids and values (NaN included).
    type Shape = (Vec<String>, Vec<([u32; 5], Option<u64>)>);

    fn shape(doc: &Document) -> Shape {
        let labels = doc.labels().iter().map(|(_, n)| n.to_owned()).collect();
        let rows = doc
            .slots()
            .iter()
            .zip(doc.node_ids())
            .map(|(&slot, n)| (slot, doc.value(n).map(f64::to_bits)))
            .collect();
        (labels, rows)
    }

    /// Parses `input` with both parsers and requires the same `Result`:
    /// the same document, or the same error variant, message and offset.
    fn assert_same(input: &str) {
        let new = parse_document(input).map(|d| shape(&d));
        let old = reference::parse_document(input).map(|d| shape(&d));
        assert_eq!(new, old, "parsers disagree on {input:?}");
    }

    /// Parses `input` in chunks cut at `cuts` and requires the serial
    /// parser's `Result`, which `assert_same` holds to the reference.
    fn assert_chunked_same(input: &str, cuts: &[usize]) {
        let chunked = chunked::parse(input, cuts).map(|d| shape(&d));
        let serial = parse_serial(input, 0, None, Vec::new()).map(|d| shape(&d));
        assert_eq!(chunked, serial, "cuts {cuts:?} disagree on {input:?}");
    }

    const NAMES: [&str; 6] = ["a", "ab", "b", "x", "ns:t", "a.b-c_1"];
    const LEAF_TEXT: [&str; 10] = [
        "2004",
        " -2.75 ",
        "1e3",
        "NaN",
        "inf",
        "+7",
        "12 b",
        "text",
        "1<!--c-->2",
        "",
    ];

    /// A random ASCII document: elements over a small alphabet with
    /// attributes, comments, CDATA, processing instructions, mixed text
    /// and numeric leaves.
    fn random_xml(rng: &mut StdRng) -> String {
        let mut out = String::new();
        if rng.gen_bool(0.3) {
            out.push_str("<?xml version=\"1.0\"?>\n");
        }
        if rng.gen_bool(0.2) {
            out.push_str("<!DOCTYPE r>");
        }
        element(rng, &mut out, 0);
        if rng.gen_bool(0.2) {
            out.push_str("<!-- tail -->\n");
        }
        out
    }

    fn element(rng: &mut StdRng, out: &mut String, depth: u32) {
        let name = NAMES[rng.gen_range(0..NAMES.len())];
        out.push('<');
        out.push_str(name);
        for _ in 0..rng.gen_range(0..3usize) {
            let value = ["1", "x > y", "a/b", "'q'"][rng.gen_range(0..4usize)];
            let quote = if value.contains('\'') { '"' } else { '\'' };
            out.push_str(&format!(" k{depth}={quote}{value}{quote}"));
        }
        if depth >= 4 || rng.gen_bool(0.25) {
            out.push_str(if rng.gen_bool(0.5) { "/>" } else { " />" });
            return;
        }
        out.push('>');
        let children = rng.gen_range(0..4usize);
        if children == 0 {
            out.push_str(LEAF_TEXT[rng.gen_range(0..LEAF_TEXT.len())]);
        }
        for _ in 0..children {
            match rng.gen_range(0..6u32) {
                0 => out.push_str("some text"),
                1 => out.push_str("<!-- <c/> -->"),
                2 => out.push_str("<![CDATA[<not/>]]>"),
                3 => out.push_str("<?pi x?>"),
                _ => {}
            }
            element(rng, out, depth + 1);
        }
        if children > 0 && rng.gen_bool(0.3) {
            // Numeric text after a child is no value: the element is internal.
            out.push_str(LEAF_TEXT[rng.gen_range(0..LEAF_TEXT.len())]);
        }
        out.push_str("</");
        out.push_str(name);
        out.push('>');
    }

    /// One random ASCII mutation of `text`: a truncation, a byte
    /// replaced, an insertion, or a splice with `other`.
    fn mutate(rng: &mut StdRng, text: &str, other: &str) -> String {
        let at = rng.gen_range(0..=text.len());
        match rng.gen_range(0..4u32) {
            0 => text[..at].to_owned(),
            1 if at < text.len() => {
                let pool = b"<>/!?\"'= a1";
                let mut bytes = text.as_bytes().to_vec();
                bytes[at] = pool[rng.gen_range(0..pool.len())];
                String::from_utf8(bytes).unwrap()
            }
            2 => {
                let insert = ["<!--", "]]>", "</x>"][rng.gen_range(0..3usize)];
                format!("{}{insert}{}", &text[..at], &text[at..])
            }
            _ => {
                let from = rng.gen_range(0..=other.len());
                format!("{}{}", &text[..at], &other[from..])
            }
        }
    }

    #[test]
    fn pinned_inputs_match_the_reference() {
        for input in [
            "<ab></a>",
            "<a></ab>",
            "<a></a >",
            "<a></a x=\"1\">",
            "</a>",
            "<a/><b/>",
            "<a>1<!--c-->2</a>",
            "<r><t>NaN</t></r>",
        ] {
            assert_same(input);
        }
        assert_eq!(
            parse_document("<ab></a>").unwrap_err(),
            XmlError::MismatchedTag {
                expected: "ab".into(),
                found: "a".into(),
                offset: 4,
            }
        );
        assert_eq!(
            parse_document("<a></ab>").unwrap_err(),
            XmlError::MismatchedTag {
                expected: "a".into(),
                found: "ab".into(),
                offset: 3,
            }
        );
        assert_eq!(parse_document("<a></a >").unwrap().len(), 1);
        assert_eq!(parse_document("<a></a x=\"1\">").unwrap().len(), 1);
        assert_eq!(
            parse_document("</a>").unwrap_err(),
            XmlError::Malformed {
                message: "closing tag </a> with no open element".into(),
                offset: 0,
            }
        );
        assert_eq!(
            parse_document("<a/><b/>").unwrap_err(),
            XmlError::MultipleRoots { offset: 4 }
        );
        let doc = parse_document("<a>1<!--c-->2</a>").unwrap();
        assert_eq!(doc.value(doc.root()), Some(2.0));
        let doc = parse_document("<r><t>NaN</t></r>").unwrap();
        assert!(doc.value(NodeId(1)).unwrap().is_nan());
    }

    #[test]
    fn tag_cache_collisions_fall_back_to_intern() {
        // Far more distinct names than cache slots, each used twice, so
        // slots are overwritten and every hit must check the bytes.
        let mut src = String::from("<r>");
        for round in 0..2 {
            for i in 0..600 {
                src.push_str(&format!("<t{i}/>"));
            }
            src.push_str(&format!("<t{round}/>"));
        }
        src.push_str("</r>");
        assert_same(&src);
        let doc = parse_document(&src).unwrap();
        assert_eq!(doc.labels().len(), 601);
        for (n, i) in doc.children(doc.root()).zip((0..600).chain([0])) {
            assert_eq!(doc.label_name(n), format!("t{i}"));
        }
    }

    #[test]
    fn chunked_parse_is_serial_at_every_cut() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut inputs = vec![
            "<r><a x='<b>'>1</a><!-- <c/> --><![CDATA[<a/>]]><?p <q?><b/></r>".to_owned(),
            "<?xml version=\"1.0\"?><!DOCTYPE r><r/>".to_owned(),
            "<r><t>NaN</t><t>2004</t><u><v>7</v></u></r>".to_owned(),
            "<a><b></a></b>".to_owned(),
            "<a/><b/>".to_owned(),
            "<a><b>".to_owned(),
        ];
        inputs.extend((0..48).map(|_| random_xml(&mut rng)));
        for input in &inputs {
            assert_same(input);
            for cut in 0..=input.len() {
                assert_chunked_same(input, &[cut]);
            }
        }
    }

    #[test]
    fn refused_threads_fall_back_to_the_serial_parse() {
        // Three chunks: the counting pass spawns two threads, then the
        // parse two more. Refusing each in turn leaves the serial result.
        let input = "<r><a x='1'>2</a><b><c/>3</b><a/><b><c/><c/></b><d>4</d></r>";
        let cuts = [input.len() / 3, 2 * input.len() / 3];
        for allowed in 0..=4 {
            chunked::SPAWNS_LEFT.with(|left| left.set(allowed));
            assert_chunked_same(input, &cuts);
            // The counter ran out: the fan-outs asked for at least
            // `allowed` threads.
            assert_eq!(chunked::SPAWNS_LEFT.with(|left| left.get()), 0);
        }
        chunked::SPAWNS_LEFT.with(|left| left.set(usize::MAX));
    }

    #[test]
    fn large_inputs_parse_in_chunks() {
        // Past one MiB, so parse_document cuts it on a multi-core host.
        let mut src = String::from("<r>");
        let mut i = 0u32;
        while src.len() < 5 << 20 {
            src.push_str(&format!(
                "<p id='{i}'><y>{}</y><t>x</t><!-- <k/> --><n{}/></p>",
                i % 97,
                i % 13
            ));
            i += 1;
        }
        src.push_str("</r>");
        let doc = parse_document(&src).unwrap();
        assert_eq!(doc.len(), 1 + 4 * i as usize);
        assert_eq!(
            shape(&doc),
            shape(&parse_serial(&src, 0, None, Vec::new()).unwrap())
        );
        let truncated = &src[..src.len() - 2];
        assert_eq!(
            parse_document(truncated).unwrap_err(),
            parse_serial(truncated, 0, None, Vec::new()).unwrap_err()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn chunked_parse_is_serial_on_mutated_documents(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let text = random_xml(&mut rng);
            let other = random_xml(&mut rng);
            let mut inputs = vec![text.clone()];
            if let Ok(doc) = parse_document(&text) {
                inputs.push(write_document(&doc));
            }
            for input in &inputs {
                for _ in 0..16 {
                    let mutated = mutate(&mut rng, input, &other);
                    let chunks = rng.gen_range(2..=5usize);
                    let mut cuts: Vec<usize> = (1..chunks)
                        .map(|_| rng.gen_range(0..=mutated.len()))
                        .collect();
                    cuts.sort_unstable();
                    assert_chunked_same(&mutated, &cuts);
                }
            }
        }

        #[test]
        fn parse_matches_reference_on_mutated_documents(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let text = random_xml(&mut rng);
            let other = random_xml(&mut rng);
            assert_same(&text);
            let mut inputs = vec![text.clone()];
            // The writer's form of the same document mutates differently:
            // no attributes or comments, values written back as text.
            if let Ok(doc) = parse_document(&text) {
                inputs.push(write_document(&doc));
            }
            for input in &inputs {
                for _ in 0..16 {
                    let mutated = mutate(&mut rng, input, &other);
                    prop_assert!(mutated.is_ascii());
                    assert_same(&mutated);
                }
            }
        }
    }
}
