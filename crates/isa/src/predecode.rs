//! Pre-decoded ("direct-threaded") form of a verified walker program.
//!
//! The executor's hot loop would otherwise re-match the full [`Action`]
//! enum — nested operand enums included — for every executed action, every
//! cycle. Pre-decoding flattens each routine once at build time:
//!
//! * one [`DecKind`] per *specialised* operation — each ALU op and each
//!   branch condition gets its own opcode, so the engine never matches on
//!   an inner `AluOp`/`Cond` at run time;
//! * [`Operand::Param`] folded to an immediate (parameters are fixed at
//!   configuration time);
//! * `MsgWord` indices pre-masked to the message width, removing the
//!   per-access modulo.
//!
//! The execution engine (`xcache-core`) maps each `DecKind` to a handler
//! function pointer, so dispatch becomes one indexed load plus an indirect
//! call — the software analogue of the decoded-µop RAM a hardware
//! controller would use. Decoding happens *after* verification; the
//! decoded program is semantically identical to the [`Action`] form by
//! construction (see the round-trip tests below).

use crate::{Action, ActionCategory, AluOp, Cond, EventId, Operand, StateId, WalkerProgram};

/// A decoded operand: like [`Operand`] but with `Param` folded away and
/// `MsgWord` pre-masked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecOperand {
    /// X-register index (the raw `Reg.0`).
    Reg(u8),
    /// Immediate (literal, or a folded configuration parameter).
    Imm(u64),
    /// The walker's access key.
    Key,
    /// Message payload word, already reduced modulo the message width.
    MsgWord(u8),
    /// First data-RAM sector of the walker's meta entry.
    MetaSector,
    /// Operand slot unused by this operation.
    None,
}

/// Specialised opcode: one variant per (action, inner-op) combination the
/// engine must distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecKind {
    AluAdd,
    AluSub,
    AluAnd,
    AluOr,
    AluXor,
    AluShl,
    AluSrl,
    AluSra,
    AluMul,
    Mov,
    AllocR,
    Hash,
    DramRead,
    DramWrite,
    PostEvent,
    Peek,
    Respond,
    AllocM,
    DeallocM,
    PinM,
    InsertM,
    UpdateM,
    BrEq,
    BrNe,
    BrLt,
    BrGe,
    BrLe,
    BrMiss,
    BrHit,
    Yield,
    Retire,
    Fault,
    AllocD,
    DeallocD,
    ReadD,
    WriteD,
    FillD,
}

/// One decoded microcode word. All fields are flat and `Copy`; operations
/// that need fewer operands leave the rest as [`DecOperand::None`] /
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecOp {
    /// Specialised opcode.
    pub kind: DecKind,
    /// Stat category of the source action (Figure 8 grouping).
    pub category: ActionCategory,
    /// First operand (addr / key / payload / condition LHS / sector …).
    pub a: DecOperand,
    /// Second operand (len / words / condition RHS / word index …).
    pub b: DecOperand,
    /// Third operand (`DramWrite` len, `WriteD` value).
    pub c: DecOperand,
    /// Destination X-register, for ops that write one.
    pub dst: u8,
    /// Branch target (action index), `PostEvent` delay, or the pre-masked
    /// `Peek` word index.
    pub aux: u32,
    /// Event id for `Hash`/`PostEvent`.
    pub event: EventId,
    /// Target state for `Yield`.
    pub state: StateId,
}

impl DecOp {
    fn new(kind: DecKind, category: ActionCategory) -> Self {
        DecOp {
            kind,
            category,
            a: DecOperand::None,
            b: DecOperand::None,
            c: DecOperand::None,
            dst: 0,
            aux: 0,
            event: EventId(0),
            state: StateId(0),
        }
    }
}

/// A fully pre-decoded program: routine `r`, action `pc` is
/// `routines[r][pc]`, with the same indexing as
/// [`WalkerProgram::routines`] (branch targets carry over unchanged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedProgram {
    /// Decoded routines in microcode-RAM order.
    pub routines: Vec<Box<[DecOp]>>,
}

fn dec_operand(op: Operand, params: &[u64], msg_words: usize) -> DecOperand {
    match op {
        Operand::Reg(r) => DecOperand::Reg(r.0),
        Operand::Imm(v) => DecOperand::Imm(v),
        Operand::Key => DecOperand::Key,
        Operand::MsgWord(i) => DecOperand::MsgWord((usize::from(i) % msg_words) as u8),
        // Parameters are configuration-time constants; core validates that
        // every referenced index exists before decoding.
        Operand::Param(i) => DecOperand::Imm(params.get(usize::from(i)).copied().unwrap_or(0)),
        Operand::MetaSector => DecOperand::MetaSector,
    }
}

#[allow(clippy::too_many_lines)]
fn dec_action(action: Action, params: &[u64], msg_words: usize) -> DecOp {
    let cat = action.category();
    let ev = |o: Operand| dec_operand(o, params, msg_words);
    match action {
        Action::Alu { op, dst, a, b } => {
            let kind = match op {
                AluOp::Add => DecKind::AluAdd,
                AluOp::Sub => DecKind::AluSub,
                AluOp::And => DecKind::AluAnd,
                AluOp::Or => DecKind::AluOr,
                AluOp::Xor => DecKind::AluXor,
                AluOp::Shl => DecKind::AluShl,
                AluOp::Srl => DecKind::AluSrl,
                AluOp::Sra => DecKind::AluSra,
                AluOp::Mul => DecKind::AluMul,
            };
            DecOp {
                a: ev(a),
                b: ev(b),
                dst: dst.0,
                ..DecOp::new(kind, cat)
            }
        }
        Action::Mov { dst, a } => DecOp {
            a: ev(a),
            dst: dst.0,
            ..DecOp::new(DecKind::Mov, cat)
        },
        Action::AllocR => DecOp::new(DecKind::AllocR, cat),
        Action::Hash { done, a } => DecOp {
            a: ev(a),
            event: done,
            ..DecOp::new(DecKind::Hash, cat)
        },
        Action::DramRead { addr, len } => DecOp {
            a: ev(addr),
            b: ev(len),
            ..DecOp::new(DecKind::DramRead, cat)
        },
        Action::DramWrite { addr, sector, len } => DecOp {
            a: ev(addr),
            b: ev(sector),
            c: ev(len),
            ..DecOp::new(DecKind::DramWrite, cat)
        },
        Action::PostEvent {
            event,
            delay,
            payload,
        } => DecOp {
            a: ev(payload),
            aux: u32::from(delay),
            event,
            ..DecOp::new(DecKind::PostEvent, cat)
        },
        Action::Peek { dst, word } => DecOp {
            dst: dst.0,
            aux: (usize::from(word) % msg_words) as u32,
            ..DecOp::new(DecKind::Peek, cat)
        },
        Action::Respond => DecOp::new(DecKind::Respond, cat),
        Action::AllocM => DecOp::new(DecKind::AllocM, cat),
        Action::DeallocM => DecOp::new(DecKind::DeallocM, cat),
        Action::PinM => DecOp::new(DecKind::PinM, cat),
        Action::InsertM { key, words } => DecOp {
            a: ev(key),
            b: ev(words),
            ..DecOp::new(DecKind::InsertM, cat)
        },
        Action::UpdateM { start, end } => DecOp {
            a: ev(start),
            b: ev(end),
            ..DecOp::new(DecKind::UpdateM, cat)
        },
        Action::Branch { cond, a, b, target } => {
            let kind = match cond {
                Cond::Eq => DecKind::BrEq,
                Cond::Ne => DecKind::BrNe,
                Cond::Lt => DecKind::BrLt,
                Cond::Ge => DecKind::BrGe,
                Cond::Le => DecKind::BrLe,
                Cond::Miss => DecKind::BrMiss,
                Cond::Hit => DecKind::BrHit,
            };
            DecOp {
                a: ev(a),
                b: ev(b),
                aux: u32::from(target),
                ..DecOp::new(kind, cat)
            }
        }
        Action::Yield { state } => DecOp {
            state,
            ..DecOp::new(DecKind::Yield, cat)
        },
        Action::Retire => DecOp::new(DecKind::Retire, cat),
        Action::Fault => DecOp::new(DecKind::Fault, cat),
        Action::AllocD { dst, count } => DecOp {
            a: ev(count),
            dst: dst.0,
            ..DecOp::new(DecKind::AllocD, cat)
        },
        Action::DeallocD => DecOp::new(DecKind::DeallocD, cat),
        Action::ReadD { dst, sector, word } => DecOp {
            a: ev(sector),
            b: ev(word),
            dst: dst.0,
            ..DecOp::new(DecKind::ReadD, cat)
        },
        Action::WriteD {
            sector,
            word,
            value,
        } => DecOp {
            a: ev(sector),
            b: ev(word),
            c: ev(value),
            ..DecOp::new(DecKind::WriteD, cat)
        },
        Action::FillD { sector, words } => DecOp {
            a: ev(sector),
            b: ev(words),
            ..DecOp::new(DecKind::FillD, cat)
        },
    }
}

/// Pre-decodes `program` against a concrete parameter block and message
/// width. Call after the verifier's structural pass
/// ([`verify_structure`](crate::verify::verify_structure)); indexing
/// mirrors `program.routines` exactly.
#[must_use]
pub fn predecode(program: &WalkerProgram, params: &[u64], msg_words: usize) -> DecodedProgram {
    assert!(msg_words > 0, "message width must be nonzero");
    DecodedProgram {
        routines: program
            .routines
            .iter()
            .map(|r| {
                r.actions
                    .iter()
                    .map(|&a| dec_action(a, params, msg_words))
                    .collect()
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    #[test]
    fn params_fold_to_immediates() {
        let op = dec_action(
            Action::Mov {
                dst: Reg(0),
                a: Operand::Param(1),
            },
            &[10, 77],
            4,
        );
        assert_eq!(op.kind, DecKind::Mov);
        assert_eq!(op.a, DecOperand::Imm(77));
    }

    #[test]
    fn msgword_premasked() {
        let op = dec_action(
            Action::Peek {
                dst: Reg(2),
                word: 9,
            },
            &[],
            4,
        );
        assert_eq!(op.aux, 1);
        assert_eq!(op.dst, 2);
        let op = dec_action(
            Action::Mov {
                dst: Reg(0),
                a: Operand::MsgWord(6),
            },
            &[],
            4,
        );
        assert_eq!(op.a, DecOperand::MsgWord(2));
    }

    #[test]
    fn alu_and_branch_specialise() {
        let op = dec_action(
            Action::Alu {
                op: AluOp::Xor,
                dst: Reg(1),
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(3),
            },
            &[],
            4,
        );
        assert_eq!(op.kind, DecKind::AluXor);
        assert_eq!(op.a, DecOperand::Reg(0));
        assert_eq!(op.b, DecOperand::Imm(3));
        let op = dec_action(
            Action::Branch {
                cond: Cond::Miss,
                a: Operand::Imm(0),
                b: Operand::Imm(0),
                target: 5,
            },
            &[],
            4,
        );
        assert_eq!(op.kind, DecKind::BrMiss);
        assert_eq!(op.aux, 5);
    }

    #[test]
    fn categories_carry_over() {
        let op = dec_action(Action::AllocM, &[], 4);
        assert_eq!(op.category, Action::AllocM.category());
    }
}
