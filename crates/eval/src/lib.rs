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

//! # axqa-eval — exact twig evaluation (ground truth)
//!
//! The experiments of §6 need, for every workload query, the *true*
//! nesting tree `NT(Q)` (to measure the ESD of an approximate answer) and
//! the *true* number of binding tuples (to measure selectivity-estimation
//! error). This crate evaluates twig queries exactly over a document:
//!
//! * [`DocIndex`] — pre-order ranks, subtree extents and per-label
//!   position lists supporting O(log n) descendant-with-label lookups
//!   (the classic structural-join index).
//! * [`PathMatcher`] — evaluation of the XPath subset (child/descendant
//!   steps, existential branch predicates) with set semantics.
//! * [`NestingTree`] — the paper's binding representation (§2, Fig. 2(c)):
//!   a tree of `(element, variable)` bindings preserving the
//!   ancestor/descendant relationships the query paths specify.
//! * [`evaluate`] / [`selectivity`] — full query evaluation with
//!   bottom-up pruning of bindings that complete no tuple, and
//!   binding-tuple counting (optional edges contribute `max(Σ, 1)`).

pub mod answer;
pub mod counting;
pub mod index;
pub mod matching;
pub mod nesting;

pub use answer::{AnswerNode, AnswerTree};
pub use counting::count_binding_tuples;
pub use index::DocIndex;
pub use matching::PathMatcher;
pub use nesting::{evaluate, selectivity, NestingTree, NtNodeId};
