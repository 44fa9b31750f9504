//! Run statistics: per-opcode histograms and per-label cycle attribution.
//!
//! Collection is opt-in via [`ExecConfig::stats`](crate::ExecConfig); when it
//! (and trace and profile) is off a run takes the bare instantiation of the
//! run loop, which has no per-slot instrumentation code and allocates
//! nothing, and cycle counts are bit-identical either way.
//!
//! Collection has two halves. The per-program half is a region table: the
//! region of every instruction and the region labels. A
//! [`PreparedProgram`](crate::PreparedProgram) prepared with stats on
//! builds it once, and every run of it or of its clones, on any thread and
//! under any armed fault plan, shares it; [`run`](crate::run) builds one
//! per run. The per-run half borrows the table and counts: the opcode
//! histograms, one counter row per region, and at the end one
//! [`RegionCycles`] per region entered, whose label shares its text with
//! the table. So a stats-on run of a prepared program does no work per
//! instruction of the program and copies no label text; beyond its slots
//! it pays three allocations (the boxed [`SimStats`], the counter rows and
//! the region list), a pass over the counter rows and a reference-count
//! increment per entered region's label.

use std::collections::BTreeMap;
use std::sync::Arc;

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
    /// The label opening the region (`"<entry>"` for the unlabelled prefix),
    /// shared with every other run of the same program.
    pub label: Arc<str>,
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

/// The per-program half of statistics collection: the region each
/// instruction belongs to, and the region labels, `"<entry>"` first. It
/// depends only on the program, so a [`PreparedProgram`] builds it once and
/// shares it behind an `Arc`; [`run`](crate::run), which has no prepared
/// program, builds one per run.
///
/// [`PreparedProgram`]: crate::PreparedProgram
#[derive(Debug, Clone)]
pub(crate) struct RegionTable {
    /// Index into `labels` for every instruction.
    region_of: Box<[u32]>,
    labels: Box<[Arc<str>]>,
}

impl RegionTable {
    pub(crate) fn new(program: &Program) -> RegionTable {
        let len = program.len();
        let mut labels: Vec<Arc<str>> = vec![Arc::from("<entry>")];
        let mut region_of = Vec::with_capacity(len);
        // Names come in index order, at most one per instruction; one at
        // `len` labels the exit and opens no region.
        for (start, name) in program.names().filter(|&(pc, _)| pc < len) {
            region_of.resize(start, (labels.len() - 1) as u32);
            labels.push(Arc::from(name));
        }
        region_of.resize(len, (labels.len() - 1) as u32);
        RegionTable {
            region_of: region_of.into_boxed_slice(),
            labels: labels.into_boxed_slice(),
        }
    }
}

/// One region's counters during a run (its cycles are `executed +
/// nullified`).
#[derive(Debug, Clone, Copy, Default)]
struct RegionCounts {
    executed: u64,
    nullified: u64,
    taken_branches: u64,
}

/// The in-loop collector: the stats being built, plus one counter row per
/// region of the borrowed [`RegionTable`]. The stats are boxed from the
/// start, so moving the recorder and returning the result copies no
/// histograms.
#[derive(Debug)]
pub(crate) struct StatsRecorder<'t> {
    table: &'t RegionTable,
    stats: Box<SimStats>,
    counts: Vec<RegionCounts>,
}

impl<'t> StatsRecorder<'t> {
    pub(crate) fn new(table: &'t RegionTable) -> StatsRecorder<'t> {
        StatsRecorder {
            table,
            stats: Box::new(SimStats::new()),
            counts: vec![RegionCounts::default(); table.labels.len()],
        }
    }

    /// Accounts one fetched slot. `opcode_index` is the executed
    /// instruction's, which a decode-corrupted slot changes.
    pub(crate) fn record(&mut self, opcode_index: usize, pc: usize, nullified: bool) {
        let region = &mut self.counts[self.table.region_of[pc] as usize];
        if nullified {
            self.stats.nullified_by_op[opcode_index] += 1;
            region.nullified += 1;
        } else {
            self.stats.executed_by_op[opcode_index] += 1;
            region.executed += 1;
        }
    }

    /// Accounts one taken branch, attributed to the region holding the
    /// branch instruction at `pc` (called after [`Self::record`] for the
    /// same slot, so the instruction is already in `executed`).
    pub(crate) fn record_branch(&mut self, pc: usize) {
        self.counts[self.table.region_of[pc] as usize].taken_branches += 1;
    }

    pub(crate) fn record_trap(&mut self) {
        self.stats.traps += 1;
    }

    pub(crate) fn record_fault(&mut self) {
        self.stats.faults += 1;
    }

    /// Finalises: only the regions that ran are reported, in program
    /// order, each sharing its label with the table.
    pub(crate) fn finish(mut self) -> Box<SimStats> {
        let entered = self.counts.iter().filter(|c| c.executed + c.nullified > 0);
        let mut regions = Vec::with_capacity(entered.count());
        for (label, c) in self.table.labels.iter().zip(&self.counts) {
            let cycles = c.executed + c.nullified;
            if cycles > 0 {
                regions.push(RegionCycles {
                    label: Arc::clone(label),
                    cycles,
                    executed: c.executed,
                    nullified: c.nullified,
                    taken_branches: c.taken_branches,
                });
            }
        }
        self.stats.regions = regions;
        self.stats
    }
}
