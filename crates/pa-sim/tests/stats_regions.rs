//! What `SimStats` counts at the edges of a run: labels at the exit, a
//! program with no labels, trapping and faulting terminations, and a
//! decode-corrupted slot. Each case runs through both `run_fn` and a
//! stats-prepared `PreparedProgram`, which must agree.

use pa_isa::{Cond, Program, ProgramBuilder, Reg};
use pa_sim::fault::FaultPlan;
use pa_sim::{run_fn, ExecConfig, Machine, PreparedProgram, RunResult, SimStats, Termination};

/// Runs `p` with stats on, through the reference entry point and through a
/// prepared program, and returns the (identical) result.
fn observed(p: &Program, inputs: &[(Reg, u32)], config: ExecConfig) -> RunResult {
    let config = config.with_stats();
    let (m_ref, r_ref) = run_fn(p, inputs, &config);
    let mut m = Machine::with_regs(inputs);
    let r = PreparedProgram::new(p, config).run(&mut m);
    assert_eq!(m, m_ref, "machine state");
    assert_eq!(r, r_ref, "prepared and reference results");
    r
}

fn stats(r: &RunResult) -> &SimStats {
    r.stats.as_deref().expect("stats were on")
}

fn labels(s: &SimStats) -> Vec<&str> {
    s.regions.iter().map(|r| &*r.label).collect()
}

#[test]
fn a_label_at_the_exit_opens_no_region() {
    let mut b = ProgramBuilder::new();
    b.ldi(1, Reg::R1);
    b.here("body");
    let exit = b.named_label("exit");
    b.comb(Cond::Eq, Reg::R0, Reg::R0, exit);
    b.nop();
    b.bind(exit);
    let p = b.build().unwrap();
    assert_eq!(p.resolve_name("exit"), Some(p.len()));

    let r = observed(&p, &[], ExecConfig::default());
    assert!(r.termination.is_completed());
    let s = stats(&r);
    assert_eq!(labels(s), ["<entry>", "body"]);
    assert_eq!(s.regions[1].cycles, 1, "the branch to the exit");
    assert_eq!(s.regions[1].taken_branches, 1);
    let cycles: u64 = s.regions.iter().map(|reg| reg.cycles).sum();
    assert_eq!(cycles, r.cycles);
}

#[test]
fn a_label_free_program_is_one_entry_region() {
    let mut b = ProgramBuilder::new();
    b.ldi(5, Reg::R1);
    b.comclr(Cond::Eq, Reg::R0, Reg::R0, Reg::R0);
    b.addi(1, Reg::R1, Reg::R1);
    b.add(Reg::R1, Reg::R1, Reg::R2);
    let p = b.build().unwrap();
    assert_eq!(p.names().count(), 0);

    let r = observed(&p, &[], ExecConfig::default());
    let s = stats(&r);
    assert_eq!(labels(s), ["<entry>"]);
    let entry = &s.regions[0];
    assert_eq!(
        (entry.cycles, entry.executed, entry.nullified),
        (r.cycles, r.executed, r.nullified)
    );
    assert_eq!((r.cycles, r.nullified), (4, 1));
}

#[test]
fn a_trapping_run_counts_one_trap_and_the_trapping_instruction() {
    let mut b = ProgramBuilder::new();
    b.ldi(1, Reg::R25);
    b.addo(Reg::R26, Reg::R25, Reg::R1);
    b.ldi(2, Reg::R2);
    let p = b.build().unwrap();

    let r = observed(&p, &[(Reg::R26, i32::MAX as u32)], ExecConfig::default());
    assert_eq!(r.termination.trap().map(|t| t.at), Some(1));
    let s = stats(&r);
    assert_eq!((s.traps, s.faults), (1, 0));
    assert_eq!(s.per_opcode().get("addo"), Some(&1));
    assert_eq!(s.executed_total(), 2, "the slot after the trap never runs");
    assert_eq!(r.executed, 2);
}

#[test]
fn a_wild_vectored_branch_counts_one_fault() {
    let mut b = ProgramBuilder::new();
    b.ldi(100, Reg::R1);
    let table = b.named_label("table");
    b.blr(Reg::R1, table);
    b.nop();
    b.bind(table);
    b.nop();
    b.nop();
    let p = b.build().unwrap();

    let r = observed(&p, &[], ExecConfig::default());
    assert!(matches!(r.termination, Termination::Faulted(f) if f.at == 1));
    let s = stats(&r);
    assert_eq!((s.traps, s.faults), (0, 1));
    assert_eq!(s.per_opcode().get("blr"), Some(&1));
    assert_eq!(labels(s), ["<entry>"]);
}

#[test]
fn a_decode_corrupted_slot_counts_the_opcode_that_ran() {
    // Seed 1 flips the shift-amount field of slot 0: `sh1add` decodes as
    // `sh3add`, a different opcode class.
    let mut b = ProgramBuilder::new();
    b.here("top");
    b.sh1add(Reg::R26, Reg::R26, Reg::R28);
    b.add(Reg::R28, Reg::R28, Reg::R28);
    let p = b.build().unwrap();
    let plan = FaultPlan::DecodeCorrupt { slot: 0, seed: 1 };

    let (r, events) = telemetry::collect(|| {
        observed(
            &p,
            &[(Reg::R26, 7)],
            ExecConfig::default().with_fault_plan(plan),
        )
    });
    let injected: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            telemetry::Event::FaultInjected { target, .. } => Some(target.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(
        injected,
        [
            "slot 0: shadd: shift-amount bit",
            "slot 0: shadd: shift-amount bit"
        ],
        "one injection per run"
    );
    let s = stats(&r);
    assert_eq!(s.per_opcode().get("sh3add"), Some(&1), "the corrupted slot");
    assert_eq!(s.per_opcode().get("sh1add"), None, "the original opcode");
    assert_eq!(s.per_opcode().get("add"), Some(&1));
    assert_eq!(labels(s), ["top"]);
}
