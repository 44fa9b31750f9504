//! Always-cheap run statistics: per-opcode histograms and per-label cycle
//! attribution.
//!
//! Collection is opt-in via [`ExecConfig::stats`](crate::ExecConfig); when it
//! (and trace and profile) is off a run takes the bare instantiation of the
//! run loop, which has no per-slot instrumentation code and allocates
//! nothing, and cycle counts are bit-identical either way.

use std::collections::BTreeMap;

use pa_isa::{Program, OPCODE_COUNT, OPCODE_NAMES};

/// Cycle attribution for one labelled region of a program.
///
/// A region covers the instructions from its label up to (but excluding) the
/// next label; instructions before the first label belong to the synthetic
/// `"<entry>"` region. Millicode routines label every loop head and shared
/// tail, so this recovers the paper's per-phase cycle breakdown (prologue
/// vs. nibble loop vs. correction tail) directly from a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionCycles {
    /// The label opening the region (`"<entry>"` for the unlabelled prefix).
    pub label: String,
    /// Cycles spent in the region (executed + nullified slots).
    pub cycles: u64,
    /// Instructions executed in the region.
    pub executed: u64,
    /// Slots nullified in the region.
    pub nullified: u64,
    /// Taken branches whose branch instruction sits in the region (a subset
    /// of `executed`; millicode returns through `Blr`/`Bv` count here too).
    pub taken_branches: u64,
}

/// Per-opcode and per-region statistics from one run (see
/// [`RunResult::stats`](crate::RunResult)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStats {
    /// Executed-instruction count per opcode class, indexed by
    /// [`pa_isa::Op::opcode_index`].
    pub executed_by_op: [u64; OPCODE_COUNT],
    /// Nullified-slot count per opcode class (the opcode that *would have*
    /// executed in the annulled slot).
    pub nullified_by_op: [u64; OPCODE_COUNT],
    /// Traps raised (overflow or `BREAK`); at most 1 per run.
    pub traps: u64,
    /// Wild vectored-branch faults; at most 1 per run.
    pub faults: u64,
    /// Per-label cycle attribution, in program order; regions never entered
    /// are omitted.
    pub regions: Vec<RegionCycles>,
}

impl Default for SimStats {
    fn default() -> SimStats {
        SimStats::new()
    }
}

impl SimStats {
    fn new() -> SimStats {
        SimStats {
            executed_by_op: [0; OPCODE_COUNT],
            nullified_by_op: [0; OPCODE_COUNT],
            traps: 0,
            faults: 0,
            regions: Vec::new(),
        }
    }

    /// Total executed instructions (equals `RunResult::executed`).
    #[must_use]
    pub fn executed_total(&self) -> u64 {
        self.executed_by_op.iter().sum()
    }

    /// Total nullified slots (equals `RunResult::nullified`).
    #[must_use]
    pub fn nullified_total(&self) -> u64 {
        self.nullified_by_op.iter().sum()
    }

    /// Executed counts as a `mnemonic → count` map (zero entries omitted).
    #[must_use]
    pub fn per_opcode(&self) -> BTreeMap<&'static str, u64> {
        Self::named(&self.executed_by_op)
    }

    /// Nullified counts as a `mnemonic → count` map (zero entries omitted).
    #[must_use]
    pub fn nullified_per_opcode(&self) -> BTreeMap<&'static str, u64> {
        Self::named(&self.nullified_by_op)
    }

    fn named(counts: &[u64; OPCODE_COUNT]) -> BTreeMap<&'static str, u64> {
        counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (OPCODE_NAMES[i], n))
            .collect()
    }

    /// Merges another run's statistics into this one (summing histograms;
    /// regions are matched by label and appended when new).
    pub fn merge(&mut self, other: &SimStats) {
        for (dst, src) in self.executed_by_op.iter_mut().zip(&other.executed_by_op) {
            *dst += src;
        }
        for (dst, src) in self.nullified_by_op.iter_mut().zip(&other.nullified_by_op) {
            *dst += src;
        }
        self.traps += other.traps;
        self.faults += other.faults;
        for region in &other.regions {
            match self.regions.iter_mut().find(|r| r.label == region.label) {
                Some(mine) => {
                    mine.cycles += region.cycles;
                    mine.executed += region.executed;
                    mine.nullified += region.nullified;
                    mine.taken_branches += region.taken_branches;
                }
                None => self.regions.push(region.clone()),
            }
        }
    }
}

/// The in-loop collector: owns the stats being built plus the `pc → region`
/// map precomputed from the program's label table. The stats are boxed from
/// the start, so moving the recorder and returning the result copies no
/// histograms.
#[derive(Debug)]
pub(crate) struct StatsRecorder {
    stats: Box<SimStats>,
    region_of: Vec<u32>,
    region_scratch: Vec<RegionCycles>,
}

impl StatsRecorder {
    pub(crate) fn new(program: &Program) -> StatsRecorder {
        let len = program.len();
        let labels: Vec<(usize, &str)> = program.names().filter(|&(idx, _)| idx < len).collect();
        let mut regions = Vec::with_capacity(labels.len() + 1);
        regions.push(RegionCycles {
            label: "<entry>".to_string(),
            cycles: 0,
            executed: 0,
            nullified: 0,
            taken_branches: 0,
        });
        let mut region_of = vec![0u32; len];
        let mut next_label = 0usize;
        let mut current = 0u32;
        for (pc, slot) in region_of.iter_mut().enumerate() {
            while next_label < labels.len() && labels[next_label].0 == pc {
                regions.push(RegionCycles {
                    label: labels[next_label].1.to_string(),
                    cycles: 0,
                    executed: 0,
                    nullified: 0,
                    taken_branches: 0,
                });
                current = (regions.len() - 1) as u32;
                next_label += 1;
            }
            *slot = current;
        }
        StatsRecorder {
            stats: Box::new(SimStats::new()),
            region_of,
            region_scratch: regions,
        }
    }

    /// Accounts one fetched slot.
    pub(crate) fn record(&mut self, opcode_index: usize, pc: usize, nullified: bool) {
        if nullified {
            self.stats.nullified_by_op[opcode_index] += 1;
        } else {
            self.stats.executed_by_op[opcode_index] += 1;
        }
        if let Some(&rid) = self.region_of.get(pc) {
            let region = &mut self.region_scratch[rid as usize];
            region.cycles += 1;
            if nullified {
                region.nullified += 1;
            } else {
                region.executed += 1;
            }
        }
    }

    /// Accounts one taken branch, attributed to the region holding the
    /// branch instruction at `pc` (called after [`Self::record`] for the
    /// same slot, so the instruction is already in `executed`).
    pub(crate) fn record_branch(&mut self, pc: usize) {
        if let Some(&rid) = self.region_of.get(pc) {
            self.region_scratch[rid as usize].taken_branches += 1;
        }
    }

    pub(crate) fn record_trap(&mut self) {
        self.stats.traps += 1;
    }

    pub(crate) fn record_fault(&mut self) {
        self.stats.faults += 1;
    }

    /// Finalises: regions that never ran are dropped, the rest keep program
    /// order.
    pub(crate) fn finish(mut self) -> Box<SimStats> {
        self.stats.regions = self
            .region_scratch
            .into_iter()
            .filter(|r| r.cycles > 0)
            .collect();
        self.stats
    }
}
