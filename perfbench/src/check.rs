//! Output checks against arithmetic made apart from the program.
//!
//! Expected values come from native Rust integer operations, or from
//! `oracle::reference` for the trap semantics of checked multiplies. A
//! mismatch is either one of the two known faults, counted as a failed
//! operation, or a wrong output, which fails the run.

use hppa_muldiv::sim::TrapKind;
use hppa_muldiv::Error;

/// What one operation must produce, as a 32-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Value(u32),
    /// An overflow trap.
    Trap,
}

/// A known fault, reproduced on every run on inputs that do not depend on
/// the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Known {
    /// `mul_const_checked(-1)` negates with a non-trapping `SUB`, so
    /// `i32::MIN · -1` returns `i32::MIN` instead of trapping.
    F1,
    /// `mul_const_checked(0)` is refused as not overflow-safe.
    F2,
}

#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    wrong: u64,
    first_wrong: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts a mismatch: a failed operation when it is a known fault,
    /// otherwise a wrong output.
    pub fn mismatch(&mut self, known: Option<Known>, what: impl FnOnce() -> String) {
        if known.is_some() {
            self.failed += 1;
        } else {
            self.wrong(what());
        }
    }

    /// Records a wrong output or a failed in-run consistency check.
    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        if self.first_wrong.len() < 8 {
            self.first_wrong.push(what);
        }
    }

    /// Checks one result; `known` names the fault a mismatch here would be.
    pub fn check(
        &mut self,
        got: &Result<u32, Error>,
        want: Expect,
        known: Option<Known>,
        what: impl FnOnce() -> String,
    ) {
        if !matches(got, want) {
            self.mismatch(known, || format!("{}: got {got:?}, want {want:?}", what()));
        }
    }

    /// Checks a batch's values element by element.
    pub fn check_values(&mut self, got: &[u32], want: &[u32], what: impl Fn() -> String) {
        if got.len() != want.len() {
            self.wrong(format!(
                "{}: {} values, want {}",
                what(),
                got.len(),
                want.len()
            ));
            return;
        }
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if g != w {
                self.wrong(format!("{} [{i}]: got {g:#x}, want {w:#x}", what()));
            }
        }
    }

    pub fn is_correct(&self) -> bool {
        self.wrong == 0
    }

    /// Prints the first wrong outputs to stderr.
    pub fn report(&self) {
        if self.wrong > 0 {
            eprintln!("{} wrong outputs or failed checks; first:", self.wrong);
            for w in &self.first_wrong {
                eprintln!("  {w}");
            }
        }
    }
}

pub fn matches(got: &Result<u32, Error>, want: Expect) -> bool {
    match (got, want) {
        (Ok(v), Expect::Value(w)) => *v == w,
        (Err(Error::Trapped(TrapKind::Overflow)), Expect::Trap) => true,
        _ => false,
    }
}

/// Feeds the output checks one deliberately wrong result each (a single
/// value and one element of a batch) and returns whether both were
/// flagged. `real` is a value the program actually produced.
pub fn self_test(real: u32) -> bool {
    let mut single = Tally::default();
    single.check(&Ok(real ^ 1), Expect::Value(real), None, || {
        "self-test".into()
    });
    let mut batch = Tally::default();
    let want = [real, real.wrapping_add(7), real.wrapping_mul(3)];
    let mut got = want;
    got[1] = got[1].wrapping_add(1);
    batch.check_values(&got, &want, || "self-test batch".into());
    !single.is_correct() && !batch.is_correct()
}
