//! # addchain — shift-add addition chains for multiplication by constants
//!
//! §5 of the ASPLOS'87 paper generalises Knuth's addition chains to the rule
//! set the HP Precision Architecture executes in one cycle each:
//!
//! ```text
//! aᵢ = aⱼ + aₖ          (ADD)
//! aᵢ = 2aⱼ + aₖ         (SH1ADD)
//! aᵢ = 4aⱼ + aₖ         (SH2ADD)
//! aᵢ = 8aⱼ + aₖ         (SH3ADD)
//! aᵢ = aⱼ - aₖ          (SUB)
//! aᵢ = aⱼ << k          (shift)
//! ```
//!
//! with `a₋₁ = 0` (the hardwired `r0`) and `a₀ = 1` (the multiplicand).
//! The chain length `l(n)` is the dynamic instruction count of the
//! compiled multiply-by-`n`.
//!
//! This crate provides:
//!
//! * [`Chain`] — the sequence representation with evaluation, the paper's
//!   *monotonicity* (overflow-safety) predicate, and the *temporary register*
//!   predicate from §5 *Register Use*;
//! * [`find_chain`] — the **rule-based searcher** (memoized factor/binary
//!   decomposition in the spirit of the paper's "rule-based program");
//! * [`optimal_chain`]/[`optimal_len`] — per-target **exhaustive search**
//!   (iterative deepening with a closing-step oracle), the optimality
//!   baseline the paper compares its rules against;
//! * [`Frontier`] — the breadth-first sweep that regenerates **Figure 1**
//!   (least `n` with `l(n) = r`) and exact `l(n)` tables;
//! * [`temp_free_lengths`] — shortest chains restricted to use only the
//!   previous element and `a₀`, which reproduces the §5 claim that below 100
//!   only 59, 87 and 94 require a temporary register;
//! * [`monotonic`] — shortest *monotonic* add/shift-and-add chains, the
//!   overflow-detecting variant (multiplication by 15 in 2 steps, 31 in 3).
//!
//! ## Example
//!
//! ```
//! use addchain::{find_chain, Chain};
//!
//! let chain = find_chain(10);
//! assert_eq!(chain.target(), 10);
//! assert!(chain.len() <= 2); // the paper's example: a1 = 5, a2 = 10
//! assert_eq!(chain.eval().last().copied(), Some(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod exhaustive;
mod frontier;
pub mod monotonic;
mod rules;
mod tempfree;

pub use chain::{Chain, ChainError, Ref, Step, StepMix};
pub use exhaustive::{optimal_chain, optimal_len, SearchLimits};
pub use frontier::{Frontier, FrontierConfig};
pub use rules::{
    find_chain, find_chain_minimal, find_chain_with, MulHasher, RuleConfig, RuleSearcher,
};
pub use tempfree::temp_free_lengths;

/// Builds the [`telemetry::Event::ChainSearch`] record for a finished chain.
pub(crate) fn chain_search_event(
    chain: &Chain,
    target: i64,
    nodes_expanded: Option<u64>,
    source: &'static str,
) -> telemetry::Event {
    let mix = chain.step_mix();
    telemetry::Event::ChainSearch {
        target,
        len: chain.len(),
        shift_adds: mix.shift_adds,
        adds: mix.adds,
        subs: mix.subs,
        shifts: mix.shifts,
        nodes_expanded,
        source,
    }
}
