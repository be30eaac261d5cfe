//! Minimal XML parser for the structural subset the paper needs.
//!
//! Supported: elements (with attributes, which are skipped), self-closing
//! tags, character data (skipped — values are out of scope per §1/§2),
//! comments, processing instructions, an XML declaration, CDATA sections
//! and a DOCTYPE line (all skipped). Namespaces are treated as part of the
//! tag string. Anything structurally ill-formed is an [`XmlError`].

use crate::error::XmlError;
use crate::label::LabelId;
use crate::tree::{Document, NodeId};

/// Parses `input` into a [`Document`] holding the element structure.
///
/// Nothing is allocated per element: tag names stay slices of `input`,
/// a close tag is matched by comparing bytes with the innermost open
/// name, and only an [`XmlError`] builds `String`s.
///
/// ```
/// use axqa_xml::parse_document;
///
/// let doc = parse_document("<bib><book id='1'>text</book></bib>").unwrap();
/// assert_eq!(doc.len(), 2); // values and attributes carry no structure
/// assert_eq!(doc.label_name(doc.root()), "bib");
/// ```
pub fn parse_document(input: &str) -> Result<Document, XmlError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let mut doc: Option<Document> = None;
    let mut tags = TagCache::default();
    // Elements currently open, innermost last, with their tag names.
    let mut open: Vec<(NodeId, &str)> = Vec::new();
    let mut root_closed = false;

    // Start of the text run since the last markup event (numeric leaf
    // text becomes the element's value; everything else is skipped).
    let mut text_start: Option<usize> = None;

    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest[0] != b'<' {
            // Character data: remembered only to check for a numeric
            // leaf value at the next closing tag.
            text_start = Some(pos);
            pos = input[pos..].find('<').map_or(bytes.len(), |i| pos + i);
            continue;
        }
        match rest.get(1) {
            Some(b'!') if rest.starts_with(b"<!--") => {
                pos = skip_until(input, pos + 4, "-->", "unterminated comment")?;
            }
            Some(b'!') if rest.starts_with(b"<![CDATA[") => {
                pos = skip_until(input, pos + 9, "]]>", "unterminated CDATA section")?;
            }
            Some(b'!') => {
                // DOCTYPE or other declaration: skip to the matching '>'.
                pos = skip_until(input, pos + 2, ">", "unterminated declaration")?;
            }
            Some(b'?') => {
                pos = skip_until(input, pos + 2, "?>", "unterminated processing instruction")?;
            }
            Some(b'/') => {
                let (tag, end) = read_name(input, pos + 2)?;
                let close_at = find_gt(input, end)?;
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
                root_closed = open.is_empty();
                pos = close_at + 1;
            }
            _ => {
                // Opening or self-closing tag.
                let (tag, after_name) = read_name(input, pos + 1)?;
                let gt = find_gt(input, after_name)?;
                let self_closing = bytes[gt - 1] == b'/';
                if root_closed {
                    return Err(XmlError::MultipleRoots { offset: pos });
                }
                let node = match doc.as_mut() {
                    None => {
                        let root = Document::new(tag);
                        let id = root.root();
                        doc = Some(root);
                        id
                    }
                    Some(d) => {
                        let Some(&(parent, _)) = open.last() else {
                            return Err(XmlError::MultipleRoots { offset: pos });
                        };
                        let label = tags.intern(d, tag);
                        d.add_child(parent, label)
                    }
                };
                if !self_closing {
                    open.push((node, tag));
                } else if open.is_empty() {
                    root_closed = true;
                }
                pos = gt + 1;
            }
        }
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
    /// The label of `name` in `doc`, interning it on a miss.
    fn intern(&mut self, doc: &mut Document, name: &str) -> LabelId {
        let bytes = name.as_bytes();
        let byte = |i: usize| u64::from(bytes.get(i).copied().unwrap_or(0));
        let len = bytes.len();
        let key = byte(0) | byte(1) << 8 | byte(len / 2) << 16 | byte(len.wrapping_sub(1)) << 24;
        let mixed = (key | (len as u64) << 32).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let slot = &mut self.slots[usize::from(mixed.to_be_bytes()[0])];
        match *slot {
            Some(label) if doc.labels().name(label) == name => label,
            _ => {
                let label = doc.intern(name);
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
        None => Err(XmlError::Malformed {
            message: what.to_owned(),
            offset: from,
        }),
    }
}

/// Reads a tag name starting at `from`; returns (name, position after it).
fn read_name(input: &str, from: usize) -> Result<(&str, usize), XmlError> {
    let bytes = input.as_bytes();
    let mut end = from;
    while end < bytes.len() {
        let b = bytes[end];
        let is_name = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':');
        if !is_name {
            break;
        }
        end += 1;
    }
    if end == from {
        return Err(XmlError::Malformed {
            message: "expected tag name".to_owned(),
            offset: from,
        });
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
                b'<' => {
                    return Err(XmlError::Malformed {
                        message: "'<' inside tag".to_owned(),
                        offset: pos,
                    });
                }
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

    /// Label names, arena rows `(label, parent, value bits)` in creation
    /// order: together they pin structure, sibling order, label ids and
    /// values (NaN included).
    type Shape = (Vec<String>, Vec<(u32, Option<u32>, Option<u64>)>);

    fn shape(doc: &Document) -> Shape {
        let labels = doc.labels().iter().map(|(_, n)| n.to_owned()).collect();
        let rows = doc
            .node_ids()
            .map(|n| {
                (
                    doc.label(n).0,
                    doc.parent(n).map(|p| p.0),
                    doc.value(n).map(f64::to_bits),
                )
            })
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

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
