//! One failing program per verifier defect class, plus the proof that all
//! six shipped walkers verify clean under `--deny-warnings`.
//!
//! Structural classes (table integrity, terminators, bounds) are built by
//! hand because [`assemble`] already rejects them at compile time; the
//! semantic classes assemble fine and only the verifier catches them.

use xcache_isa::asm::assemble;
use xcache_isa::verify::{verify, verify_with, DefectClass, Severity, VerifyLimits};
use xcache_isa::{
    Action, EventId, Operand, Reg, Routine, RoutineId, RoutineTable, StateId, WalkerProgram,
};

/// Assembles `src` and asserts the verifier reports `class` at error
/// severity.
fn assert_error(src: &str, class: DefectClass) {
    let p = assemble(src).expect("program assembles; only the verifier rejects it");
    let report = verify(&p);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.class == class && d.severity == Severity::Error),
        "expected an `{}` error, got: {:?}",
        class.code(),
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
}

/// A hand-built skeleton the structural tests mutate: one launch entry
/// (`allocR; fault`) and a 1×3 table dispatching `(Default, Miss)` to it.
fn skeleton() -> WalkerProgram {
    let mut table = RoutineTable::new(1, 3);
    table.set(StateId::DEFAULT, EventId::MISS, RoutineId(0));
    WalkerProgram {
        name: "skeleton".into(),
        state_names: vec!["Default".into()],
        event_names: vec!["Miss".into(), "Fill".into(), "Update".into()],
        regs: 1,
        param_names: Vec::new(),
        routines: vec![Routine {
            name: "start".into(),
            actions: vec![Action::AllocR, Action::Fault],
        }],
        table,
    }
}

// ---- class 1: table-integrity -------------------------------------------

#[test]
fn dangling_table_entry() {
    let mut p = skeleton();
    p.table.set(StateId::DEFAULT, EventId::FILL, RoutineId(7));
    let report = verify(&p);
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.class == DefectClass::TableIntegrity
            && d.severity == Severity::Error
            && d.message.contains("rtn#7")));
}

#[test]
fn missing_miss_handler() {
    let mut p = skeleton();
    p.table = RoutineTable::new(1, 3); // wipe the launch entry
    let report = verify(&p);
    assert!(report.has_class(DefectClass::TableIntegrity));
    assert!(report.has_errors());
}

#[test]
fn table_dimension_mismatch() {
    let mut p = skeleton();
    p.state_names.push("Phantom".into()); // 2 declared, table has 1 row
    let report = verify(&p);
    assert!(report.has_class(DefectClass::TableIntegrity));
}

// ---- class 2: terminator ------------------------------------------------

#[test]
fn empty_routine() {
    let mut p = skeleton();
    p.routines[0].actions.clear();
    let report = verify(&p);
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.class == DefectClass::Terminator
            && d.severity == Severity::Error
            && d.message.contains("empty")));
}

#[test]
fn path_runs_past_routine_end() {
    let mut p = skeleton();
    p.routines[0].actions.pop(); // drop the Fault
    let report = verify(&p);
    assert!(report.has_class(DefectClass::Terminator));
    assert!(report.has_errors());
}

#[test]
fn dead_tail_after_terminator() {
    let mut p = skeleton();
    p.routines[0].actions.push(Action::Retire); // after Fault
    let report = verify(&p);
    assert!(report.has_class(DefectClass::Terminator));
}

#[test]
fn branch_outside_routine() {
    let mut p = skeleton();
    p.routines[0].actions.insert(
        1,
        Action::Branch {
            cond: xcache_isa::Cond::Miss,
            a: Operand::Imm(0),
            b: Operand::Imm(0),
            target: 42,
        },
    );
    let report = verify(&p);
    assert!(report.has_class(DefectClass::Terminator));
}

// ---- class 3: bounds ----------------------------------------------------

#[test]
fn register_out_of_declared_range() {
    let mut p = skeleton();
    p.routines[0].actions.insert(
        1,
        Action::Mov {
            dst: Reg(5),
            a: Operand::Key,
        },
    );
    let report = verify(&p);
    assert!(report.has_class(DefectClass::Bounds));
    assert!(report.has_errors());
}

#[test]
fn param_out_of_declared_range() {
    let mut p = skeleton();
    p.routines[0].actions.insert(
        1,
        Action::Mov {
            dst: Reg(0),
            a: Operand::Param(3),
        },
    );
    let report = verify(&p);
    assert!(report.has_class(DefectClass::Bounds));
}

#[test]
fn yield_to_undeclared_state() {
    let mut p = skeleton();
    p.routines[0].actions = vec![
        Action::AllocR,
        Action::DramRead {
            addr: Operand::Key,
            len: Operand::Imm(8),
        },
        Action::Yield { state: StateId(9) },
    ];
    let report = verify(&p);
    assert!(report.has_class(DefectClass::Bounds));
}

#[test]
fn hash_and_post_to_undeclared_events() {
    let mut p = skeleton();
    p.routines[0].actions = vec![
        Action::AllocR,
        Action::Hash {
            done: EventId(5),
            a: Operand::Key,
        },
        Action::PostEvent {
            event: EventId(6),
            delay: 1,
            payload: Operand::Imm(0),
        },
        Action::Fault,
    ];
    let report = verify(&p);
    for (pc, event) in [(1, "E5"), (2, "E6")] {
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.class == DefectClass::Bounds
                    && d.severity == Severity::Error
                    && d.pc == Some(pc)
                    && d.message.contains(event)),
            "no bounds error for {event} at @{pc}: {:?}",
            report.diagnostics
        );
    }
}

// ---- class 4: use-before-def --------------------------------------------

#[test]
fn read_with_no_definition() {
    assert_error(
        r"
        walker bad
        states Default
        regs 2
        routine start {
            allocR
            add r0, r1, 1
            fault
        }
        on Default, Miss -> start
        ",
        DefectClass::UseBeforeDef,
    );
}

#[test]
fn definition_missing_on_one_path() {
    assert_error(
        r"
        walker bad
        states Default
        regs 2
        routine start {
            allocR
            beq key, 0, @skip
            mov r1, 7
        skip:
            mov r0, r1
            fault
        }
        on Default, Miss -> start
        ",
        DefectClass::UseBeforeDef,
    );
}

#[test]
fn definition_not_carried_when_absent_before_yield() {
    // r1 is only defined in the *fill* routine; the launch entry reads it
    // defined-nowhere. The cross-yield carry must not invent definitions.
    assert_error(
        r"
        walker bad
        states Default, Wait
        regs 2
        routine start {
            allocR
            allocM
            dram_read key, 8
            yield Wait
        }
        routine fill {
            add r0, r1, 1
            mov r1, 0
            retire
        }
        on Default, Miss -> start
        on Wait, Fill -> fill
        ",
        DefectClass::UseBeforeDef,
    );
}

// ---- class 5: stage-legality --------------------------------------------

#[test]
fn alloc_r_not_first_in_launch_entry() {
    assert_error(
        r"
        walker bad
        states Default
        regs 1
        routine start {
            mov r0, key
            allocR
            fault
        }
        on Default, Miss -> start
        ",
        DefectClass::StageLegality,
    );
}

#[test]
fn alloc_r_outside_launch_entry() {
    assert_error(
        r"
        walker bad
        states Default, Wait
        regs 1
        routine start {
            allocR
            dram_read key, 8
            yield Wait
        }
        routine fill {
            allocR
            retire
        }
        on Default, Miss -> start
        on Wait, Fill -> fill
        ",
        DefectClass::StageLegality,
    );
}

#[test]
fn fill_consumer_in_miss_routine() {
    // `filld` consumes the DRAM fill payload; a Miss dispatch has none.
    assert_error(
        r"
        walker bad
        states Default
        regs 1
        routine start {
            allocR
            allocD r0, 1
            filld r0, 4
            fault
        }
        on Default, Miss -> start
        ",
        DefectClass::StageLegality,
    );
}

// ---- class 6: missed-yield ----------------------------------------------

#[test]
fn agen_after_dram_issue() {
    assert_error(
        r"
        walker bad
        states Default, Wait
        regs 1
        routine start {
            allocR
            mov r0, key
            dram_read r0, 8
            add r0, r0, 8
            yield Wait
        }
        routine fill {
            retire
        }
        on Default, Miss -> start
        on Wait, Fill -> fill
        ",
        DefectClass::MissedYield,
    );
}

#[test]
fn data_ram_read_after_dram_issue() {
    assert_error(
        r"
        walker bad
        states Default, Wait
        regs 2
        routine start {
            allocR
            allocD r1, 1
            dram_read key, 8
            readd r0, r1, 0
            yield Wait
        }
        routine fill {
            retire
        }
        on Default, Miss -> start
        on Wait, Fill -> fill
        ",
        DefectClass::MissedYield,
    );
}

// ---- class 7: queue-imbalance -------------------------------------------

#[test]
fn two_dram_issues_in_one_activation() {
    assert_error(
        r"
        walker bad
        states Default, Wait
        regs 1
        routine start {
            allocR
            dram_read key, 8
            dram_read key, 16
            yield Wait
        }
        routine fill {
            retire
        }
        on Default, Miss -> start
        on Wait, Fill -> fill
        ",
        DefectClass::QueueImbalance,
    );
}

#[test]
fn data_ram_allocation_over_capacity() {
    let p = assemble(
        r"
        walker bad
        states Default
        regs 1
        routine start {
            allocR
            allocD r0, 64
            fault
        }
        on Default, Miss -> start
        ",
    )
    .expect("assembles");
    let tight = VerifyLimits {
        data_sectors: 16,
        ..VerifyLimits::default()
    };
    let report = verify_with(&p, &tight);
    assert!(report.has_class(DefectClass::QueueImbalance));
    assert!(report.has_errors());
    // The same program is fine under the default (much larger) capacity.
    assert!(!verify(&p).has_class(DefectClass::QueueImbalance));
}

#[test]
fn posted_events_over_capacity() {
    let p = assemble(
        r"
        walker bad
        states Default, Wait
        events Tick
        regs 1
        routine start {
            allocR
            post Tick, 1, 0
            post Tick, 2, 0
            yield Wait
        }
        routine tick {
            retire
        }
        on Default, Miss -> start
        on Wait, Tick -> tick
        ",
    )
    .expect("assembles");
    let tight = VerifyLimits {
        events_per_activation: 1,
        ..VerifyLimits::default()
    };
    let report = verify_with(&p, &tight);
    assert!(report.has_class(DefectClass::QueueImbalance));
}

// ---- class 8: unhandled-completion --------------------------------------

#[test]
fn fill_arrives_in_state_with_no_handler() {
    // The yielded-to state handles a custom event but not the Fill the
    // DRAM read will deliver: the walker parks forever.
    assert_error(
        r"
        walker bad
        states Default, Wait
        events Custom
        regs 1
        routine start {
            allocR
            dram_read key, 8
            yield Wait
        }
        routine other {
            retire
        }
        on Default, Miss -> start
        on Wait, Custom -> other
        ",
        DefectClass::UnhandledCompletion,
    );
}

#[test]
fn yield_with_nothing_outstanding() {
    assert_error(
        r"
        walker bad
        states Default, Wait
        regs 1
        routine start {
            allocR
            yield Wait
        }
        routine fill {
            retire
        }
        on Default, Miss -> start
        on Wait, Fill -> fill
        ",
        DefectClass::UnhandledCompletion,
    );
}

#[test]
fn retire_with_outstanding_completion_warns() {
    let p = assemble(
        r"
        walker sloppy
        states Default
        regs 1
        routine start {
            allocR
            dram_read key, 8
            retire
        }
        on Default, Miss -> start
        ",
    )
    .expect("assembles");
    let report = verify(&p);
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.class == DefectClass::UnhandledCompletion && d.severity == Severity::Warning));
    assert!(!report.has_errors());
}

// ---- class 9: unreachable (warning) -------------------------------------

#[test]
fn orphan_routine_warns() {
    let p = assemble(
        r"
        walker orphaned
        states Default
        regs 1
        routine start {
            allocR
            fault
        }
        routine dead {
            retire
        }
        on Default, Miss -> start
        ",
    )
    .expect("assembles");
    let report = verify(&p);
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.class == DefectClass::Unreachable && d.severity == Severity::Warning));
    assert!(!report.has_errors());
    assert!(report.check(true).is_err());
}

// ---- shipped walkers are clean ------------------------------------------

#[test]
fn all_shipped_walkers_verify_clean() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../walkers");
    let mut checked = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("walkers/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "xw"))
        .collect();
    entries.sort();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("readable");
        let program = assemble(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let report = verify(&program);
        assert!(
            report.check(true).is_ok(),
            "{} has findings: {:?}",
            path.display(),
            report
                .diagnostics
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
        checked += 1;
    }
    assert_eq!(checked, 6, "expected the six shipped walkers in {dir:?}");
}
