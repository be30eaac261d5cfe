// Count-carrying crate (ISSUE 1; DESIGN.md "Static analysis & invariants"):
// lossy casts and unchecked arithmetic on element/edge counts, and exact
// float equality, are denied outside tests, on top of the workspace lint
// table.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::arithmetic_side_effects,
        clippy::float_cmp
    )
)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]

//! # axqa-synopsis — graph synopses and count-stable summaries
//!
//! §3.1 of the paper defines a *graph synopsis* `S_R(T)` for an XML tree
//! `T`: a label-respecting partitioning of the element nodes, with one
//! synopsis node per equivalence class (its *extent*) and an edge
//! `(u, v)` whenever some element of `extent(u)` has a child in
//! `extent(v)`. §3.2 refines this with *count stability*: the pair
//! `(u, v)` is `k`-stable iff **every** element of `u` has exactly `k`
//! children in `v`, and a synopsis is count-stable iff every pair is
//! `k`-stable for some `k ≥ 0`.
//!
//! This crate implements:
//!
//! * [`StableSummary`] — the unique minimal count-stable summary, built
//!   by the linear-time post-order [`build_stable`] (the paper's
//!   `BUILDSTABLE`, Fig. 4), together with the element → class
//!   assignment.
//! * [`expand`] — the `Expand` function of Lemma 3.1, materializing an
//!   XML tree isomorphic (as an unordered tree) to the original document.
//! * [`SizeModel`] — the byte-accounting model used for all synopsis
//!   space budgets (the paper states budgets in KB without a layout; see
//!   DESIGN.md §4.1).
//! * [`io`] — a line-oriented text serialization for stable summaries.

pub mod expand;
pub mod io;
pub mod pathindex;
pub mod size;
pub mod stable;

pub use expand::expand;
pub use pathindex::{ak_index, one_index, Partition};
pub use size::SizeModel;
pub use stable::{build_stable, StableNode, StableSummary, SynNodeId};
