//! Execution helpers shared by the workloads.

use hppa_muldiv::isa::Reg;
use hppa_muldiv::sim::{ExecConfig, Machine, PreparedProgram, Termination};
use hppa_muldiv::{BatchOutcome, CompiledOp, Error, Result};

/// Entries one shard of a default compile cache holds (128 over 8 shards).
/// At most this many constants compiled into one compiler cannot evict one
/// another, however they hash.
pub const SHARD_CAPACITY: usize = 16;

pub fn to_u32(out: BatchOutcome<i32>) -> BatchOutcome<u32> {
    BatchOutcome {
        values: out.values.into_iter().map(|v| v as u32).collect(),
        rems: None,
        cycles: out.cycles,
    }
}

/// The routine prepared again with simulator statistics on.
pub fn with_stats(op: &CompiledOp) -> PreparedProgram {
    let config = ExecConfig {
        stats: true,
        ..op.prepared().config().clone()
    };
    PreparedProgram::new(op.program(), config)
}

/// Runs a prepared constant routine over `xs` with the façade's argument
/// and result registers.
pub fn run_prepared(
    p: &PreparedProgram,
    machine: &mut Machine,
    xs: impl Iterator<Item = u32>,
) -> Result<BatchOutcome<u32>> {
    let (mut values, mut cycles) = (Vec::new(), 0);
    for x in xs {
        machine.reset();
        machine.set_reg(Reg::R26, x);
        let run = p.run(machine);
        if !matches!(run.termination, Termination::Completed) {
            return Err(Error::DidNotComplete);
        }
        values.push(machine.reg(Reg::R28));
        cycles += run.cycles;
    }
    Ok(BatchOutcome {
        values,
        rems: None,
        cycles,
    })
}
