// Tests opt back into panicking extractors; library code returns errors
// (workspace lint table, DESIGN.md "Static analysis & invariants").
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]

//! # axqa-xml — node-labeled XML tree substrate
//!
//! The paper (§2) models an XML document as a large node-labeled tree
//! `T(V, E)`: every node is an element with a label drawn from an alphabet
//! of string literals, and edges capture element containment. Values and
//! attributes are out of scope — the paper studies the *structural* part of
//! approximate answering — so this crate stores structure only.
//!
//! The crate provides:
//!
//! * [`LabelTable`] / [`LabelId`] — an interner mapping element tags to
//!   dense integer ids so that all downstream algorithms work on `u32`s.
//! * [`Document`] / [`NodeId`] — an arena-allocated tree with O(1) child
//!   append, parent links, and allocation-free traversal iterators.
//! * [`parse`] / [`write`](mod@write) — a minimal well-formed-subset XML
//!   parser and writer (elements, the five predefined entities; comments,
//!   PIs and CDATA are tolerated and skipped; text content carries no
//!   structure).
//! * [`stats`] — document statistics used by the experiment harness.
//! * [`threads`] — the workspace's one way to start threads: scoped
//!   jobs beside the calling thread, with refused threads reported
//!   instead of panicking, and the one "`0` = all cores" resolution.
//! * [`fxhash`] — a tiny Fx-style hasher for integer-keyed maps (the
//!   performance guide recommends a fast non-cryptographic hasher; the
//!   crate implements the well-known `FxHasher` algorithm directly since
//!   `rustc-hash` is not in the allowed dependency set).

pub mod error;
pub mod fxhash;
pub mod label;
pub mod parse;
pub mod stats;
pub mod threads;
pub mod tree;
pub mod write;

pub use error::XmlError;

/// Converts a container length into a dense `u32` id.
///
/// Every arena in the workspace (document nodes, synopsis nodes, nesting
/// trees, answer trees) addresses entries with `u32`; beyond that the
/// structure is unrepresentable and aborting beats silently aliasing ids.
///
/// # Panics
/// Panics if `len` exceeds `u32::MAX`.
#[inline]
#[must_use]
pub fn dense_id(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(id) => id,
        Err(_) => panic!("id space overflow: {len} does not fit in u32"),
    }
}

/// Converts an estimated (floating-point) count to an integer count by
/// truncation toward zero, clamping NaN and negatives to `0` and values
/// beyond `u64::MAX` to the maximum.
///
/// This is the single audited float→count conversion in the workspace;
/// the cast lints are allowed here precisely because the clamping makes
/// the `as` conversion total.
#[inline]
#[must_use]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub fn f64_to_u64(value: f64) -> u64 {
    if value.is_nan() || value <= 0.0 {
        0
    } else if value >= 18_446_744_073_709_551_615.0 {
        u64::MAX
    } else {
        value as u64
    }
}
pub use fxhash::{FxHashMap, FxHashSet};
pub use label::{LabelId, LabelTable};
pub use parse::parse_document;
pub use stats::DocStats;
pub use tree::{Document, DocumentBuilder, NodeId};
pub use write::{write_document, write_document_pretty};
