//! Static routine→access-stream effect extraction.
//!
//! The analytical oracle (`xcache-oracle`) replays a pure access stream:
//! for each load it needs to know what the walker *would* install on a
//! miss. For walkers whose fill path is statically simple (the fuzz
//! generator's programs, the Widx chain walker) that answer is readable
//! off the microcode without executing it: find the retiring fill
//! routine, take its `allocD` immediate. [`extract`] performs that
//! analysis; the cross-validation harness (`xcache-bench/src/crossval.rs`)
//! uses it to build oracle streams instead of hard-coding per-walker
//! constants, and to refuse programs whose install size is genuinely
//! dynamic (the SpGEMM row walker sizes its `allocD` from a register, so
//! its stream must be derived from the workload instead).

use crate::{Action, Operand, WalkerProgram};

/// What a static scan of the routine table can say about a walker's
/// effect on the meta-tag array and data RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramEffects {
    /// Sectors every successful (respond+retire) fill path installs, when
    /// that is a static constant consistent across all such paths.
    /// `None` when any fill path sizes its allocation from a register or
    /// when no retiring fill path exists.
    pub install_sectors: Option<u64>,
    /// Whether any routine performs speculative side-inserts (`insertM`).
    pub has_side_inserts: bool,
}

/// Statically extracts [`ProgramEffects`] from `program`.
///
/// The analysis is intentionally syntactic: a routine "installs" when it
/// contains `allocD` + `updateM` + `respond` + `retire`. The sector count
/// is the `allocD` immediate, cross-checked against the `updateM` span
/// when that span is also immediate; a register-sized allocation yields
/// `install_sectors: None`.
#[must_use]
pub fn extract(program: &WalkerProgram) -> ProgramEffects {
    let mut install: Option<Option<u64>> = None; // None = no fill path seen
    let mut has_side_inserts = false;

    for routine in program.routines() {
        let mut alloc_imm: Option<Option<u64>> = None; // inner None = register-sized
        let mut responds = false;
        let mut retires = false;
        let mut updates_meta = false;
        for action in &routine.actions {
            match action {
                Action::AllocD { count, .. } => {
                    alloc_imm = Some(match count {
                        Operand::Imm(n) => Some(*n),
                        _ => None,
                    });
                }
                Action::UpdateM { .. } => updates_meta = true,
                Action::Respond => responds = true,
                Action::Retire => retires = true,
                Action::InsertM { .. } => has_side_inserts = true,
                _ => {}
            }
        }
        if responds && retires && updates_meta {
            let this = alloc_imm.unwrap_or(None);
            install = Some(match install {
                None => this,
                // Conflicting static sizes across fill paths: dynamic.
                Some(prev) if prev == this => prev,
                Some(_) => None,
            });
        }
    }

    ProgramEffects {
        install_sectors: install.flatten(),
        has_side_inserts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn fuzz_generated_programs_install_one_sector() {
        for seed in 0..64u64 {
            let p = crate::gen::generate(seed);
            let fx = extract(&p);
            assert_eq!(
                fx.install_sectors,
                Some(1),
                "seed {seed}: fuzz finish routines allocate exactly one sector"
            );
        }
    }

    #[test]
    fn register_sized_alloc_is_dynamic() {
        let p = assemble(
            r#"
            walker dyn
            states Default, Wait
            regs 3
            routine start {
                allocR
                allocM
                mov r0, key
                dram_read r0, 16
                yield Wait
            }
            routine fill {
                peek r1, 0
                allocD r2, r1
                filld r2, 4
                updatem r2, r2
                respond
                retire
            }
            on Default, Miss -> start
            on Wait, Fill -> fill
        "#,
        )
        .expect("valid");
        let fx = extract(&p);
        assert_eq!(fx.install_sectors, None);
        assert!(!fx.has_side_inserts);
    }

    #[test]
    fn faults_and_side_inserts_are_detected() {
        let p = assemble(
            r#"
            walker spotted
            states Default, Wait
            regs 3
            routine start {
                allocR
                allocM
                mov r0, key
                dram_read r0, 16
                yield Wait
            }
            routine fill {
                peek r1, 0
                beq r1, 0, @notfound
                insertm r1, 2
                allocD r2, 1
                filld r2, 2
                updatem r2, r2
                respond
                retire
            notfound:
                fault
            }
            on Default, Miss -> start
            on Wait, Fill -> fill
        "#,
        )
        .expect("valid");
        // The fault tail leaves the install size static.
        let fx = extract(&p);
        assert_eq!(fx.install_sectors, Some(1));
        assert!(fx.has_side_inserts);
    }
}
