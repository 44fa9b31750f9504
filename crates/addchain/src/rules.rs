//! The rule-based chain generator.
//!
//! §5 of the paper: *"We have written a rule-based program that searches for
//! chains in this manner. The chains generated by this program compare quite
//! well to those generated by a program that exhaustively searches for all
//! possible chains. They are generated in much less time and, for all numbers
//! less than 10000, are of minimal length in all but 12 cases."*
//!
//! This module is that program: a memoized decomposition search over the
//! paper's chain rules —
//!
//! * powers of two by shifting (doubling adds when shifts are disallowed);
//! * splitting out trailing zeros;
//! * `n → n ∓ 1` and `n → n - 2ᵏ` for `k ≤ 3` (one `ADD`/`SHxADD` with the
//!   untouched `a₀`);
//! * `n = 2ᵏ·m + 1` for `k ≤ 3` (one `SHxADD m,a₀`);
//! * the **factor method**: `n = p·m` compiles as the chain for `p` followed
//!   by the chain for `m` *rebased* so its `a₀` means `p` — this one rule
//!   subsumes the paper's ×3/×5/×9 and ×(2ᵏ±1) rules, because those factors
//!   themselves have 1- and 2-step chains.
//!
//! The produced chains are validated ([`Chain::new`]) and compared against
//! the exhaustive searcher in the E4 experiment.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::chain::{Chain, Ref, Step};

/// Configuration for [`find_chain_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleConfig {
    /// Allow subtraction steps (disable for overflow-detecting chains:
    /// Pascal needs traps, C does not — §5 *Overflow*).
    pub allow_sub: bool,
    /// Allow plain shift steps (disable for overflow-detecting chains).
    pub allow_shl: bool,
    /// Bound on the trial-division search for the factor method.
    pub max_divisor_search: u64,
    /// Allow the `n ∓ {3,5,9}` split rules. They buy a step on many targets
    /// but produce chains holding three values live at once; disable them
    /// when the consumer (e.g. multi-word division codegen) is register
    /// constrained.
    pub allow_splits: bool,
}

impl Default for RuleConfig {
    fn default() -> RuleConfig {
        RuleConfig {
            allow_sub: true,
            allow_shl: true,
            max_divisor_search: 1 << 20,
            allow_splits: true,
        }
    }
}

impl RuleConfig {
    /// The restricted rule set whose chains are always monotonic and use only
    /// trapping-capable operations, so the compiled multiply detects
    /// overflow.
    #[must_use]
    pub fn overflow_safe() -> RuleConfig {
        RuleConfig {
            allow_sub: false,
            allow_shl: false,
            ..RuleConfig::default()
        }
    }
}

/// Finds a chain for `n` with the default rule set.
///
/// Negative `n` get the chain for `|n|` plus one final `aᵢ = 0 - aⱼ`
/// negation, matching the paper's "-n in no more than one more step".
///
/// # Example
///
/// ```
/// let c = addchain::find_chain(45);
/// assert_eq!(c.target(), 45);
/// assert_eq!(c.len(), 2); // 45 = 9·5: two shift-and-adds
/// ```
#[must_use]
pub fn find_chain(n: i64) -> Chain {
    find_chain_with(n, &RuleConfig::default())
}

/// Finds a chain for `n` under the given rule configuration.
#[must_use]
pub fn find_chain_with(n: i64, config: &RuleConfig) -> Chain {
    RuleSearcher::new(*config).find(n)
}

/// Memo entries a search may hold before the rules go lean (see
/// `RuleSearcher::cost`).
const MEMO_BUDGET: usize = 100_000;

/// The rule-based searcher behind [`find_chain_with`], with a memo that
/// outlives one target.
///
/// Targets whose decompositions overlap reuse each other's sub-results: the
/// derived-division multipliers `⌊2^s/y⌋` of one divisor satisfy
/// `a_{s+1} ∈ {2a_s, 2a_s + 1}`. Every chain equals what [`find_chain_with`]
/// returns for the same target and rules. A memo entry depends only on its
/// key and the rule set, except that the rules go lean once the memo holds
/// more than its node budget; so a search that ends over budget on a
/// non-empty memo is redone on an empty one, and a memo over budget is
/// dropped.
///
/// # Example
///
/// ```
/// use addchain::{find_chain_with, RuleConfig, RuleSearcher};
///
/// // The multipliers ⌊2^s/7⌋ that dividing by 7 tries.
/// let rules = RuleConfig::default();
/// let mut searcher = RuleSearcher::new(rules);
/// for s in 33..=40 {
///     let a = (1i64 << s) / 7;
///     assert_eq!(searcher.find(a), find_chain_with(a, &rules));
/// }
/// ```
#[derive(Debug)]
pub struct RuleSearcher {
    config: RuleConfig,
    memo: Memo,
}

/// Best cost and move per target, keyed by a multiplicative hash: the keys
/// are the search's own sub-targets, so SipHash's flooding resistance buys
/// nothing.
type Memo = HashMap<u64, (u32, Move), BuildHasherDefault<MulHasher>>;

/// A hasher for keys that are a program's own small integers, where
/// SipHash's flooding resistance buys nothing: one folded 64×64→128-bit
/// multiply per integer written (a derived `Hash` writes one per field and
/// one per enum discriminant). Shared with the `hppa-muldiv` compile cache.
#[derive(Debug, Default)]
pub struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl RuleSearcher {
    /// A searcher over `config` with an empty memo.
    #[must_use]
    pub fn new(config: RuleConfig) -> RuleSearcher {
        RuleSearcher {
            config,
            memo: Memo::default(),
        }
    }

    /// Finds a chain for `n`; see [`find_chain`] for negative `n`.
    pub fn find(&mut self, n: i64) -> Chain {
        let magnitude = n.unsigned_abs();
        if magnitude == 1 && n > 0 {
            return Chain::identity();
        }
        let mut steps = Vec::new();
        if magnitude == 0 {
            steps.push(Step::Sub {
                j: Ref::One,
                k: Ref::One,
            });
        } else {
            let shared = !self.memo.is_empty();
            self.cost(magnitude);
            if shared && self.memo.len() > MEMO_BUDGET {
                // The lean switch may have fired sooner than on an empty
                // memo; `Memo::default()` because `clear` keeps capacity.
                self.memo = Memo::default();
                self.cost(magnitude);
            }
            self.emit(magnitude, Ref::One, &mut steps);
            if self.memo.len() > MEMO_BUDGET {
                self.memo = Memo::default();
            }
        }
        if n < 0 {
            let last = if steps.is_empty() {
                Ref::One
            } else {
                Ref::Step(steps.len() as u32)
            };
            steps.push(Step::Sub {
                j: Ref::Zero,
                k: last,
            });
        }
        let chain = Chain::new(i128::from(n), steps).expect("rule-generated chains are valid");
        telemetry::emit(|| crate::chain_search_event(&chain, n, None, "rules"));
        chain
    }
}

#[derive(Debug, Clone, Copy)]
enum Move {
    /// `n = 2^shift`.
    Pow2 { shift: u32 },
    /// `n = 2ᵏ·m`, `m` odd.
    Shift { m: u64, k: u32 },
    /// `n = m + 1`.
    AddOne { m: u64 },
    /// `n = m - 1` (subtract).
    SubOne { m: u64 },
    /// `n = m + 2ᵏ`, `k ≤ 3` (`SHxADD a₀,m`).
    AddPow2 { m: u64, k: u32 },
    /// `n = 2ᵏ·m + 1`, `k ≤ 3` (`SHxADD m,a₀`).
    ShAddOne { m: u64, sh: u32 },
    /// `n = m + b` for a one-step `b ∈ {3,5,9}` (build `b`, add; needs a temp).
    AddSmall { m: u64, b: u64 },
    /// `n = m - b` for a one-step `b ∈ {3,5,9}` or `b ∈ {2,4,8}`.
    SubSmall { m: u64, b: u64 },
    /// `n = p·m`: chain for `p`, then the chain for `m` rebased onto it.
    Factor { p: u64, m: u64 },
}

impl RuleSearcher {
    fn shift_cost(&self, k: u32) -> u32 {
        if self.config.allow_shl {
            k.div_ceil(31)
        } else {
            k // doubling via ADD, one per bit
        }
    }

    fn cost(&mut self, n: u64) -> u32 {
        debug_assert!(n >= 1);
        if n == 1 {
            return 0;
        }
        if let Some(&(c, _)) = self.memo.get(&n) {
            return c;
        }
        // Sentinel against re-entrancy (the rules strictly decrease after at
        // most one growth step, but the guard is cheap).
        self.memo
            .insert(n, (u32::MAX / 2, Move::AddOne { m: n - 1 }));

        let tz = n.trailing_zeros();
        let mut best: (u32, Move);

        if n.is_power_of_two() {
            best = (self.shift_cost(tz), Move::Pow2 { shift: tz });
            self.memo.insert(n, best);
            return best.0;
        }
        if tz > 0 {
            let m = n >> tz;
            best = (self.cost(m) + self.shift_cost(tz), Move::Shift { m, k: tz });
        } else {
            best = (self.cost(n - 1) + 1, Move::AddOne { m: n - 1 });
            if self.config.allow_sub {
                let c = self.cost(n + 1) + 1;
                if c < best.0 {
                    best = (c, Move::SubOne { m: n + 1 });
                }
            }
        }
        // Beyond the range any real multiply/divide constant occupies — or
        // once the memo shows the search tree has stopped collapsing — fall
        // back to the binary rules alone: the richer candidate set branches
        // ~17 ways per odd value.
        let lean = n > (1 << 44) || self.memo.len() > MEMO_BUDGET;
        for k in 1..=3u32 {
            if lean {
                break;
            }
            // n - 2ᵏ, guarded to expose more trailing zeros than it spends
            // (otherwise odd n would walk down two at a time).
            if let Some(m) = n.checked_sub(1 << k) {
                if m > 1 && m.trailing_zeros() > k.max(tz) {
                    let c = self.cost(m) + 1;
                    if c < best.0 {
                        best = (c, Move::AddPow2 { m, k });
                    }
                }
            }
            // n = 2ᵏ·m + 1 (m = 1 yields the one-step 3/5/9); odd n only.
            if tz == 0 && (n - 1).trailing_zeros() >= k {
                let m = (n - 1) >> k;
                let c = self.cost(m) + 1;
                if c < best.0 {
                    best = (c, Move::ShAddOne { m, sh: k });
                }
            }
        }
        // Split off a one-step neighbour (3/5/9 away, or a subtracted
        // 2/4/8), guarded to expose trailing zeros. These splits need a
        // temporary register but buy a step on many targets. Gated with the
        // unrestricted rule set: the out-of-order small addend breaks
        // monotonicity for overflow-safe chains.
        if self.config.allow_sub && self.config.allow_splits && !lean {
            for b in [3u64, 5, 9] {
                if let Some(m) = n.checked_sub(b) {
                    if m > 1 && m.trailing_zeros() >= tz.max(1) + 2 {
                        let c = self.cost(m) + 2;
                        if c < best.0 {
                            best = (c, Move::AddSmall { m, b });
                        }
                    }
                }
            }
            for b in [2u64, 3, 4, 5, 8, 9] {
                let m = n + b;
                if m.trailing_zeros() >= tz.max(1) + 2 {
                    let c = self.cost(m) + 2;
                    if c < best.0 {
                        best = (c, Move::SubSmall { m, b });
                    }
                }
            }
        }
        // Factor method over all odd divisors (composites included: 81 is
        // better split 9·9 than 3·27 because l(9) = l(3) = 1). The search
        // radius shrinks for huge targets: the interesting big constants
        // (division magic numbers, ≤ 2^40) factor over ≤ 2^17 (65537), while
        // beyond that trial division would dominate the runtime for no
        // realistic gain.
        if tz == 0 && !lean {
            if n < (1 << 20) {
                // Full odd-divisor scan: cheap below 2^20 and needed for
                // completeness claims (81 = 9·9, not 3·27).
                let radius = self.config.max_divisor_search;
                let mut d = 3u64;
                while d * d <= n && d <= radius {
                    if n.is_multiple_of(d) {
                        let c = self.cost(d) + self.cost(n / d);
                        if c < best.0 {
                            best = (c, Move::Factor { p: d, m: n / d });
                        }
                    }
                    d += 2;
                }
            } else {
                // Big targets (division magic numbers live here): only the
                // divisors that matter for bit-pattern replication — small
                // primes and 2ᵏ ± 1 — keep the memoised tree cheap.
                const SMALL_PRIMES: [u64; 13] = [3, 5, 7, 11, 13, 19, 23, 29, 37, 41, 43, 47, 53];
                for d in SMALL_PRIMES {
                    if d <= self.config.max_divisor_search && n.is_multiple_of(d) {
                        let c = self.cost(d) + self.cost(n / d);
                        if c < best.0 {
                            best = (c, Move::Factor { p: d, m: n / d });
                        }
                    }
                }
                for k in 2..=17u32 {
                    for d in [(1u64 << k) - 1, (1u64 << k) + 1] {
                        if d > 1
                            && d < n
                            && d <= self.config.max_divisor_search
                            && n.is_multiple_of(d)
                        {
                            let c = self.cost(d) + self.cost(n / d);
                            if c < best.0 {
                                best = (c, Move::Factor { p: d, m: n / d });
                            }
                        }
                    }
                }
            }
        }

        self.memo.insert(n, best);
        best.0
    }

    /// Appends steps computing `n · value(base)`; the chain's last element
    /// then holds that product.
    fn emit(&mut self, n: u64, base: Ref, steps: &mut Vec<Step>) {
        if n == 1 {
            return;
        }
        let (_, mv) = *self.memo.get(&n).expect("cost() ran first");
        let last = |steps: &[Step]| -> Ref {
            if steps.is_empty() {
                Ref::One
            } else {
                Ref::Step(steps.len() as u32)
            }
        };
        match mv {
            Move::Pow2 { shift } => self.emit_shift(base, shift, steps),
            Move::Shift { m, k } => {
                self.emit(m, base, steps);
                let l = last(steps);
                self.emit_shift(l, k, steps);
            }
            Move::AddOne { m } => {
                self.emit(m, base, steps);
                let l = last(steps);
                steps.push(Step::Add { j: l, k: base });
            }
            Move::SubOne { m } => {
                self.emit(m, base, steps);
                let l = last(steps);
                steps.push(Step::Sub { j: l, k: base });
            }
            Move::AddPow2 { m, k } => {
                self.emit(m, base, steps);
                let l = last(steps);
                steps.push(Step::ShAdd {
                    sh: k,
                    j: base,
                    k: l,
                });
            }
            Move::ShAddOne { m, sh } => {
                self.emit(m, base, steps);
                let l = last(steps);
                steps.push(Step::ShAdd { sh, j: l, k: base });
            }
            Move::AddSmall { m, b } => {
                self.emit(m, base, steps);
                let lm = last(steps);
                // b ∈ {3,5,9}: one SHxADD a₀,a₀ with sh = log2(b-1).
                steps.push(Step::ShAdd {
                    sh: (b - 1).trailing_zeros(),
                    j: base,
                    k: base,
                });
                let lb = last(steps);
                steps.push(Step::Add { j: lm, k: lb });
            }
            Move::SubSmall { m, b } => {
                self.emit(m, base, steps);
                let lm = last(steps);
                if b.is_power_of_two() {
                    steps.push(Step::Shl {
                        j: base,
                        amount: b.trailing_zeros(),
                    });
                } else {
                    steps.push(Step::ShAdd {
                        sh: (b - 1).trailing_zeros(),
                        j: base,
                        k: base,
                    });
                }
                let lb = last(steps);
                steps.push(Step::Sub { j: lm, k: lb });
            }
            Move::Factor { p, m } => {
                self.emit(p, base, steps);
                let l = last(steps);
                self.emit(m, l, steps);
            }
        }
    }

    fn emit_shift(&self, mut from: Ref, mut k: u32, steps: &mut Vec<Step>) {
        if self.config.allow_shl {
            while k > 0 {
                let take = k.min(31);
                steps.push(Step::Shl {
                    j: from,
                    amount: take,
                });
                from = Ref::Step(steps.len() as u32);
                k -= take;
            }
        } else {
            for _ in 0..k {
                steps.push(Step::Add { j: from, k: from });
                from = Ref::Step(steps.len() as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_zero() {
        assert_eq!(find_chain(1).len(), 0);
        let z = find_chain(0);
        assert_eq!(z.target(), 0);
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn single_step_values() {
        // Figure 1 row 1: 2,3,4,5,8,9,16,… in one step.
        for n in [2i64, 3, 4, 5, 8, 9, 16, 32, 64, 128, 256, 512, 1 << 20] {
            assert_eq!(find_chain(n).len(), 1, "n = {n}");
        }
    }

    #[test]
    fn paper_two_step_examples() {
        // Figure 1 row 2 values must come out in ≤2 steps.
        for n in [6i64, 7, 10, 11, 12, 13, 15, 17, 18, 19, 20, 21] {
            let c = find_chain(n);
            assert!(c.len() <= 2, "n = {n}, got {} steps:\n{c}", c.len());
        }
    }

    #[test]
    fn row3_values_within_three() {
        for n in [14i64, 22, 23, 26, 28, 29, 30, 35, 38, 39, 42] {
            let c = find_chain(n);
            assert!(c.len() <= 3, "n = {n}, got {} steps:\n{c}", c.len());
        }
    }

    #[test]
    fn chains_are_valid_up_to_4096() {
        for n in 0..=4096i64 {
            let c = find_chain(n);
            assert_eq!(c.target(), i128::from(n));
        }
    }

    #[test]
    fn negative_targets() {
        let c = find_chain(-10);
        assert_eq!(c.target(), -10);
        assert_eq!(c.eval().last(), Some(&-10));
        assert_eq!(find_chain(-1).len(), 1);
    }

    #[test]
    fn overflow_safe_config_produces_safe_chains() {
        let cfg = RuleConfig::overflow_safe();
        for n in 1..=512i64 {
            let c = find_chain_with(n, &cfg);
            assert!(c.is_overflow_safe(), "n = {n}\n{c}");
            assert_eq!(c.target(), i128::from(n));
        }
    }

    #[test]
    fn paper_overflow_penalty_for_31() {
        // §5: 31 needs 2 steps unrestricted ((1<<5) - 1) but 3 monotonic.
        assert_eq!(find_chain(31).len(), 2);
        let safe = find_chain_with(31, &RuleConfig::overflow_safe());
        assert_eq!(safe.len(), 3);
        assert!(safe.is_overflow_safe());
    }

    #[test]
    fn magic_constant_patterns() {
        // The derived-division multipliers from Figure 6 must compile to
        // short chains (replication patterns): 0x55555555 = 5·17·257·65537.
        for (a, bound) in [
            (0x5555_5555i64, 7), // 5·17·257·65537: 1+2+2+2
            (0x3333_3333, 7),    // 3·0x11111111
            (0x4924_9249, 7),    // (2^33-1)/7 pattern
            (0xF0F_0F0F, 6),
            (0x1111_1111, 6), // 17·257·65537
        ] {
            let c = find_chain(a);
            assert!(c.len() <= bound, "{a:#x}: got {} steps:\n{c}", c.len());
        }
    }

    #[test]
    fn large_targets_terminate() {
        for n in [i64::MAX, (1 << 36) + 12345, 0xD794_35E5, 0x1_745D_1745] {
            let c = find_chain(n);
            assert_eq!(c.target(), i128::from(n));
        }
    }

    #[test]
    fn factor_method_beats_binary() {
        // 39·53 = 2067 has no special-form factors; the factor method still
        // finds l ≤ l(39) + l(53).
        let c39 = find_chain(39).len();
        let c53 = find_chain(53).len();
        assert!(find_chain(2067).len() <= c39 + c53);
    }

    #[test]
    fn generally_four_or_fewer_below_10000() {
        // §8 summary: "multiplications by compile-time constants can
        // generally be performed in four or fewer instructions".
        // Under a *uniform* distribution most n < 10000 need 5-6 steps even
        // optimally (Figure 1: l(n) = 5 first at 466); the paper's "generally
        // four or fewer" is about the small constants programs actually use.
        // Check both views: all of 1..512 in ≤4, and the uniform tail bounded.
        for n in 1..512i64 {
            assert!(find_chain(n).len() <= 5, "n = {n}");
        }
        let mut over = 0usize;
        for n in 1..10_000i64 {
            if find_chain(n).len() > 6 {
                over += 1;
            }
        }
        assert!(over < 500, "{over} of 10000 exceed 6 steps");
    }
}

/// The paper's production configuration: rule-based generation backed by a
/// budgeted exhaustive search — *"by remembering these exceptions, minimal
/// length chains may be generated in reasonable time for most constants."*
///
/// For targets within `limits` the exhaustive searcher verifies (or beats)
/// the rule-based chain; outside them, or when the node budget runs dry, the
/// rule-based chain is returned as-is. With the default limits this brings
/// the E4 experiment's miss count close to the paper's "all but 12 cases".
///
/// # Example
///
/// ```
/// use addchain::{find_chain, find_chain_minimal, SearchLimits};
///
/// // 87 is one of the hard DAG-reuse constants: rules give 4 steps,
/// // the hybrid recovers the minimal 3.
/// assert_eq!(find_chain(87).len(), 4);
/// assert_eq!(find_chain_minimal(87, &SearchLimits::default()).len(), 3);
/// ```
#[must_use]
pub fn find_chain_minimal(n: i64, limits: &crate::SearchLimits) -> Chain {
    let ruled = find_chain(n);
    let magnitude = n.unsigned_abs();
    if magnitude <= 1 || magnitude > limits.value_cap {
        return ruled;
    }
    // The exhaustive search only needs to look *below* the ruled length.
    let tighter = crate::SearchLimits {
        max_len: (ruled.len() as u32).saturating_sub(u32::from(n >= 0)),
        ..*limits
    };
    if tighter.max_len == 0 {
        return ruled;
    }
    match crate::optimal_chain(magnitude, &tighter) {
        Some(exact) if n >= 0 && exact.len() < ruled.len() => exact,
        Some(exact) if n < 0 && exact.len() + 1 < ruled.len() => {
            // Re-attach the negation step.
            let mut steps = exact.steps().to_vec();
            let last = if steps.is_empty() {
                Ref::One
            } else {
                Ref::Step(steps.len() as u32)
            };
            steps.push(Step::Sub {
                j: Ref::Zero,
                k: last,
            });
            Chain::new(i128::from(n), steps).expect("negated minimal chain is valid")
        }
        _ => ruled,
    }
}

#[cfg(test)]
mod hybrid_tests {
    use super::*;
    use crate::SearchLimits;

    fn limits() -> SearchLimits {
        SearchLimits {
            max_len: 6,
            value_cap: 1 << 13,
            max_shift: 13,
            node_budget: 20_000_000,
        }
    }

    #[test]
    fn recovers_the_dag_reuse_constants() {
        for (n, minimal) in [(87i64, 3), (94, 3), (103, 3), (107, 3), (113, 3)] {
            let c = find_chain_minimal(n, &limits());
            assert_eq!(c.len(), minimal, "n = {n}");
            assert_eq!(c.target(), i128::from(n));
        }
    }

    #[test]
    fn never_worse_than_rules() {
        let l = limits();
        for n in 1..=512i64 {
            let hybrid = find_chain_minimal(n, &l);
            let ruled = find_chain(n);
            assert!(hybrid.len() <= ruled.len(), "n = {n}");
            assert_eq!(hybrid.target(), i128::from(n));
        }
    }

    #[test]
    fn negative_targets_keep_negation() {
        let c = find_chain_minimal(-87, &limits());
        assert_eq!(c.target(), -87);
        assert!(c.len() <= find_chain(-87).len());
        assert_eq!(c.eval().last(), Some(&-87));
    }

    #[test]
    fn out_of_range_targets_fall_back() {
        let l = limits();
        let big = find_chain_minimal(0x5555_5555, &l);
        assert_eq!(big.len(), find_chain(0x5555_5555).len());
    }
}

#[cfg(test)]
mod searcher_tests {
    use super::*;
    use std::collections::HashMap;

    /// The rule sets divconst scans magic multipliers with.
    fn divconst_rule_sets() -> [RuleConfig; 3] {
        let no_splits = RuleConfig {
            allow_splits: false,
            ..RuleConfig::default()
        };
        let binary = RuleConfig {
            max_divisor_search: 1,
            ..no_splits
        };
        [RuleConfig::default(), no_splits, binary]
    }

    /// `a = ⌊2^s/y⌋` for the first eight exponents `s ≥ 32` whose dividend
    /// reach `(K+1)·y`, `K = ⌊(a + r - 1)/r⌋ = ⌈a/r⌉`, covers `need`
    /// (odd `y ≥ 3`, so `r = 2^s mod y ≥ 1`).
    fn magic_multipliers(y: u64, need: u128) -> Vec<i64> {
        (32..=63u32)
            .filter_map(|s| {
                let z = 1u128 << s;
                let (a, r) = (z / u128::from(y), z % u128::from(y));
                ((a.div_ceil(r) + 1) * u128::from(y) >= need).then_some(a as i64)
            })
            .take(8)
            .collect()
    }

    fn fresh_memo_len(n: i64, rules: RuleConfig) -> usize {
        let mut searcher = RuleSearcher::new(rules);
        searcher.find(n);
        searcher.memo.len()
    }

    #[test]
    fn shared_memo_matches_fresh_search_over_each_exponent_scan() {
        let mut fresh: HashMap<(i64, usize), Chain> = HashMap::new();
        for y in (3..=255u64).step_by(2) {
            // Unsigned and signed dividends need different reaches.
            for need in [1u128 << 32, (1 << 31) + 1] {
                for (r, rules) in divconst_rule_sets().into_iter().enumerate() {
                    let mut searcher = RuleSearcher::new(rules);
                    for a in magic_multipliers(y, need) {
                        let expect = fresh
                            .entry((a, r))
                            .or_insert_with(|| find_chain_with(a, &rules));
                        assert_eq!(&searcher.find(a), expect, "y = {y}, a = {a:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn node_budget_holds_across_targets() {
        let rules = RuleConfig::default();
        // On its own, 2^40 - 1 outgrows the budget, so its memo is dropped.
        let over = (1i64 << 40) - 1;
        let mut searcher = RuleSearcher::new(rules);
        assert_eq!(searcher.find(over), find_chain_with(over, &rules));
        assert!(searcher.memo.is_empty());

        // The magic multipliers of /673 and /723 at z = 2^48 fit the budget
        // one at a time but not together.
        let (a, b) = ((1i64 << 48) / 673, (1i64 << 48) / 723);
        let (len_a, len_b) = (fresh_memo_len(a, rules), fresh_memo_len(b, rules));
        assert!(len_a <= MEMO_BUDGET && len_b <= MEMO_BUDGET);
        let mut union = RuleSearcher::new(rules);
        union.find(a);
        union.cost(b as u64);
        assert!(union.memo.len() > MEMO_BUDGET);

        // So b is redone on an empty memo and keeps exactly its own.
        assert_eq!(searcher.find(a), find_chain_with(a, &rules));
        assert_eq!(searcher.memo.len(), len_a);
        assert_eq!(searcher.find(b), find_chain_with(b, &rules));
        assert_eq!(searcher.memo.len(), len_b);
        // A target over budget on a shared memo is redone, then dropped.
        assert_eq!(searcher.find(over), find_chain_with(over, &rules));
        assert!(searcher.memo.is_empty());
    }
}
