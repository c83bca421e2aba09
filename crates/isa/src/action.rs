//! The microcode action set (Figure 8).
//!
//! "We adopt actions that can be implemented atomically in hardware with
//! fixed latency in 1 cycle. There are five different categories of actions
//! targeting each hardware module: address generation, message queue,
//! Meta-tag, control flow, and data RAMs." (§4.1 ⑤)
//!
//! Operands can be *explicit* (an immediate), *implicit* (the walker's own
//! meta key, the message at the head of its queue), or *DSA-specific*
//! (a parameter from the generator configuration) — mirroring the paper.

use std::fmt;

use crate::{EventId, StateId};

/// An X-register index within a walker's temporary register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// An X-register (walker temporary).
    Reg(Reg),
    /// An explicit immediate.
    Imm(u64),
    /// The meta key of the access that launched this walker (implicit).
    Key,
    /// Word `i` of the payload accompanying the waking event (implicit).
    MsgWord(u8),
    /// DSA-specific parameter `i` from the generator configuration
    /// (e.g. a table base address or element size).
    Param(u8),
    /// The first data-RAM sector recorded in this walker's meta-tag entry
    /// (implicit) — lets Update routines address the cached data.
    MetaSector,
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
            Operand::Key => write!(f, "key"),
            Operand::MsgWord(i) => write!(f, "msg{i}"),
            Operand::Param(i) => write!(f, "p{i}"),
            Operand::MetaSector => write!(f, "sector"),
        }
    }
}

/// ALU operation for the AGEN category.
///
/// Covers the paper's `add, and, or, xor, addi, inc, dec, shl, shr, sra,
/// srl, not` — immediates are folded into [`Operand::Imm`], so `addi`/`inc`/
/// `dec` are `Add` with an immediate operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `dst = a + b`
    Add,
    /// `dst = a - b`
    Sub,
    /// `dst = a & b`
    And,
    /// `dst = a | b`
    Or,
    /// `dst = a ^ b`
    Xor,
    /// `dst = a << b`
    Shl,
    /// `dst = a >> b` (logical, the paper's `srl`/`shr`)
    Srl,
    /// `dst = a >> b` (arithmetic)
    Sra,
    /// `dst = a * b` — used by address generation for element sizes.
    Mul,
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Mul => "mul",
        };
        f.write_str(s)
    }
}

/// Branch condition for the control-flow category
/// (`bmiss, bhit, beq, bnz, blt, bge, ble`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Taken if `a == b` (`beq`).
    Eq,
    /// Taken if `a != b` (`bnz` generalised to two operands).
    Ne,
    /// Taken if `a < b` (`blt`).
    Lt,
    /// Taken if `a >= b` (`bge`).
    Ge,
    /// Taken if `a <= b` (`ble`).
    Le,
    /// Taken if the walker's key probe missed the meta-tags (`bmiss`).
    Miss,
    /// Taken if the walker's key probe hit the meta-tags (`bhit`).
    Hit,
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Le => "ble",
            Cond::Miss => "bmiss",
            Cond::Hit => "bhit",
        };
        f.write_str(s)
    }
}

/// The five hardware modules an action can target (Figure 8's table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionCategory {
    /// ALU / address generation.
    Agen,
    /// Message queues (DRAM request queue, internal event queue, datapath
    /// response queue).
    Queue,
    /// Meta-tag array management.
    MetaTag,
    /// Control flow within a routine + terminators.
    Control,
    /// Data RAM (sector) management.
    DataRam,
}

/// One single-cycle microcode action.
///
/// Every action is atomic and fixed-latency; long-latency work (DRAM fills,
/// hashes) is *initiated* by an action and *completed* by a later event,
/// with the walker yielding in between — that is the coroutine discipline
/// of §4.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    // ---- AGEN ----
    /// `dst = op(a, b)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination X-register.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// `dst = a` (register move / load immediate / latch the key).
    Mov {
        /// Destination X-register.
        dst: Reg,
        /// Source.
        a: Operand,
    },
    /// Claims the walker's X-register file; occupancy is charged from this
    /// point (the paper's `allocR`).
    AllocR,
    /// Starts the DSA-specific hash unit on `a`; the result arrives with a
    /// `HashDone`-style custom event whose payload word 0 is the digest.
    /// The unit's latency is a generator parameter (60 cycles for Widx's
    /// string keys, §8.1).
    Hash {
        /// Event to post on completion.
        done: EventId,
        /// Value to hash.
        a: Operand,
    },

    // ---- Queue ----
    /// Enqueues a DRAM read of `len` bytes at address `addr`; the response
    /// wakes this walker with [`EventId::FILL`] (`enq` toward memory).
    DramRead {
        /// Byte address.
        addr: Operand,
        /// Transfer length in bytes.
        len: Operand,
    },
    /// Enqueues a DRAM write of `len` bytes at `addr`, data taken from the
    /// data RAM starting at sector `sector`.
    DramWrite {
        /// Byte address.
        addr: Operand,
        /// Source sector pointer.
        sector: Operand,
        /// Transfer length in bytes.
        len: Operand,
    },
    /// Posts internal event `event` to this walker after `delay` cycles
    /// (self-wakeup; models dependence chains like AGEN→use).
    PostEvent {
        /// Event to post.
        event: EventId,
        /// Cycles until delivery.
        delay: u16,
        /// Payload word 0 carried with the event.
        payload: Operand,
    },
    /// `dst = payload word i` of the event that woke this routine
    /// (the paper's `peek`/`read-data`).
    Peek {
        /// Destination X-register.
        dst: Reg,
        /// Payload word index.
        word: u8,
    },
    /// Delivers the walker's data (the sectors recorded in its meta-tag
    /// entry) to the DSA datapath, completing the original meta access
    /// (`write-data` toward the compute datapath).
    Respond,

    // ---- Meta-tag ----
    /// Allocates a meta-tag entry for the walker's key (`allocM`). The
    /// entry starts with no sectors and the walker's current state.
    AllocM,
    /// Frees the walker's meta-tag entry (`deallocM`) — e.g. a failed walk.
    DeallocM,
    /// Pins the walker's meta-tag entry: it can never be evicted. Used for
    /// entries whose data exists only on-chip (GraphPulse event payloads).
    PinM,
    /// Best-effort side-insert: caches the first `words` words of the
    /// current fill payload under the *computed* tag `key` (not the
    /// walker's own key). Lets a chain walk cache every node it touches
    /// under that node's key — "X-Cache caches the actual nodes in the
    /// hash table and tags them with the hash keys" (§5). Skipped
    /// silently when the tag set or data RAM has no idle capacity.
    InsertM {
        /// The tag to insert under.
        key: Operand,
        /// Payload words to copy from the current fill.
        words: Operand,
    },
    /// Writes the sector span `[start, end)` into the meta-tag entry
    /// (`update`).
    UpdateM {
        /// First data-RAM sector.
        start: Operand,
        /// One past the last sector.
        end: Operand,
    },

    // ---- Control ----
    /// Conditional branch to action index `target` within this routine.
    Branch {
        /// Condition.
        cond: Cond,
        /// Left comparand (ignored for `Miss`/`Hit`).
        a: Operand,
        /// Right comparand (ignored for `Miss`/`Hit`).
        b: Operand,
        /// Target action index within the routine.
        target: u8,
    },
    /// Terminator: record `state` in the meta-tag entry and yield the
    /// pipeline until the next event for this walker (the paper's `state`
    /// update ending every routine).
    Yield {
        /// Next coroutine state.
        state: StateId,
    },
    /// Terminator: the walk succeeded; release the X-registers. The
    /// meta-tag entry remains valid (the data is now cached).
    Retire,
    /// Terminator: the walk failed; release the X-registers *and* the
    /// meta-tag entry, and answer the datapath with "not found".
    Fault,

    // ---- Data RAM ----
    /// Allocates `count` sectors; `dst` receives the first sector index
    /// (`allocD`). May evict a victim entry (and its meta-tag) if full.
    AllocD {
        /// Destination X-register for the sector pointer.
        dst: Reg,
        /// Number of sectors.
        count: Operand,
    },
    /// Frees the sectors held by the walker's meta-tag entry (`deallocD`).
    DeallocD,
    /// `dst = word `word` of sector `sector`` (`read`).
    ReadD {
        /// Destination X-register.
        dst: Reg,
        /// Sector index.
        sector: Operand,
        /// Word offset within the sector.
        word: Operand,
    },
    /// Writes `value` into word `word` of sector `sector` (`write`).
    WriteD {
        /// Sector index.
        sector: Operand,
        /// Word offset within the sector.
        word: Operand,
        /// Value to store.
        value: Operand,
    },
    /// Copies `words` words of the waking DRAM response into the data RAM
    /// starting at sector `sector` ("the miss walkers copy the DRAM
    /// response sector-by-sector into the data RAM", §4.1 ⑥).
    FillD {
        /// Destination sector pointer.
        sector: Operand,
        /// Number of payload words to copy.
        words: Operand,
    },
}

impl Action {
    /// The hardware module this action drives.
    #[must_use]
    pub fn category(&self) -> ActionCategory {
        match self {
            Action::Alu { .. } | Action::Mov { .. } | Action::AllocR | Action::Hash { .. } => {
                ActionCategory::Agen
            }
            Action::DramRead { .. }
            | Action::DramWrite { .. }
            | Action::PostEvent { .. }
            | Action::Peek { .. }
            | Action::Respond => ActionCategory::Queue,
            Action::AllocM
            | Action::DeallocM
            | Action::PinM
            | Action::UpdateM { .. }
            | Action::InsertM { .. } => ActionCategory::MetaTag,
            Action::Branch { .. } | Action::Yield { .. } | Action::Retire | Action::Fault => {
                ActionCategory::Control
            }
            Action::AllocD { .. }
            | Action::DeallocD
            | Action::ReadD { .. }
            | Action::WriteD { .. }
            | Action::FillD { .. } => ActionCategory::DataRam,
        }
    }

    /// Whether this action ends its routine.
    #[must_use]
    pub fn is_terminator(&self) -> bool {
        matches!(self, Action::Yield { .. } | Action::Retire | Action::Fault)
    }

    /// Every source operand, in field order. This is the one per-variant
    /// operand list: [`reads`](Self::reads), the verifier's bounds checks
    /// and the controller's parameter check all derive from it.
    #[must_use]
    pub fn operands(&self) -> Vec<Operand> {
        match *self {
            Action::Alu { a, b, .. }
            | Action::DramRead { addr: a, len: b }
            | Action::UpdateM { start: a, end: b }
            | Action::InsertM { key: a, words: b }
            | Action::Branch { a, b, .. }
            | Action::ReadD {
                sector: a, word: b, ..
            }
            | Action::FillD {
                sector: a,
                words: b,
            } => vec![a, b],
            Action::Mov { a, .. }
            | Action::Hash { a, .. }
            | Action::PostEvent { payload: a, .. }
            | Action::AllocD { count: a, .. } => vec![a],
            Action::DramWrite {
                addr: a,
                sector: b,
                len: c,
            }
            | Action::WriteD {
                sector: a,
                word: b,
                value: c,
            } => vec![a, b, c],
            Action::AllocR
            | Action::Peek { .. }
            | Action::Respond
            | Action::AllocM
            | Action::DeallocM
            | Action::PinM
            | Action::Yield { .. }
            | Action::Retire
            | Action::Fault
            | Action::DeallocD => Vec::new(),
        }
    }

    /// The X-registers this action reads.
    #[must_use]
    pub fn reads(&self) -> Vec<Reg> {
        self.operands()
            .into_iter()
            .filter_map(|o| match o {
                Operand::Reg(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    /// The X-register this action writes, if any.
    #[must_use]
    pub fn writes(&self) -> Option<Reg> {
        match self {
            Action::Alu { dst, .. }
            | Action::Mov { dst, .. }
            | Action::Peek { dst, .. }
            | Action::AllocD { dst, .. }
            | Action::ReadD { dst, .. } => Some(*dst),
            _ => None,
        }
    }
}

/// The names an action's text gives events, states and parameters: a
/// program's own (the disassembler's), or none, which spells each by its
/// numeric id (`Display`).
#[derive(Default)]
pub(crate) struct Names<'a> {
    pub(crate) events: &'a [String],
    pub(crate) states: &'a [String],
    pub(crate) params: &'a [String],
}

/// A name from [`Names`], or the numeric spelling of an id it lacks.
enum Word<'a, T> {
    Name(&'a str),
    Id(T),
}

impl<T: fmt::Display> fmt::Display for Word<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Word::Name(name) => f.write_str(name),
            Word::Id(id) => id.fmt(f),
        }
    }
}

impl<'a> Names<'a> {
    fn word<T>(names: &'a [String], i: usize, id: T) -> Word<'a, T> {
        names.get(i).map_or(Word::Id(id), |n| Word::Name(n))
    }

    fn event(&self, e: EventId) -> Word<'a, EventId> {
        Self::word(self.events, e.index(), e)
    }

    fn state(&self, s: StateId) -> Word<'a, StateId> {
        Self::word(self.states, s.index(), s)
    }

    fn operand(&self, o: Operand) -> Word<'a, Operand> {
        match o {
            Operand::Param(i) => Self::word(self.params, usize::from(i), o),
            _ => Word::Id(o),
        }
    }
}

impl Action {
    /// Writes the action in the assembler's syntax, spelling its events,
    /// states and parameters by `names`.
    pub(crate) fn write(&self, out: &mut dyn fmt::Write, names: &Names<'_>) -> fmt::Result {
        let o = |x: &Operand| names.operand(*x);
        match self {
            Action::Alu { op, dst, a, b } => write!(out, "{op} {dst}, {}, {}", o(a), o(b)),
            Action::Mov { dst, a } => write!(out, "mov {dst}, {}", o(a)),
            Action::AllocR => out.write_str("allocR"),
            Action::Hash { done, a } => write!(out, "hash {}, {}", names.event(*done), o(a)),
            Action::DramRead { addr, len } => write!(out, "dram_read {}, {}", o(addr), o(len)),
            Action::DramWrite { addr, sector, len } => {
                write!(out, "dram_write {}, {}, {}", o(addr), o(sector), o(len))
            }
            Action::PostEvent {
                event,
                delay,
                payload,
            } => write!(out, "post {}, {delay}, {}", names.event(*event), o(payload)),
            Action::Peek { dst, word } => write!(out, "peek {dst}, {word}"),
            Action::Respond => out.write_str("respond"),
            Action::AllocM => out.write_str("allocM"),
            Action::DeallocM => out.write_str("deallocM"),
            Action::PinM => out.write_str("pinm"),
            Action::InsertM { key, words } => write!(out, "insertm {}, {}", o(key), o(words)),
            Action::UpdateM { start, end } => write!(out, "updatem {}, {}", o(start), o(end)),
            Action::Branch {
                cond: cond @ (Cond::Miss | Cond::Hit),
                target,
                ..
            } => write!(out, "{cond} @{target}"),
            Action::Branch { cond, a, b, target } => {
                write!(out, "{cond} {}, {}, @{target}", o(a), o(b))
            }
            Action::Yield { state } => write!(out, "yield {}", names.state(*state)),
            Action::Retire => out.write_str("retire"),
            Action::Fault => out.write_str("fault"),
            Action::AllocD { dst, count } => write!(out, "allocD {dst}, {}", o(count)),
            Action::DeallocD => out.write_str("deallocD"),
            Action::ReadD { dst, sector, word } => {
                write!(out, "readd {dst}, {}, {}", o(sector), o(word))
            }
            Action::WriteD {
                sector,
                word,
                value,
            } => write!(out, "writed {}, {}, {}", o(sector), o(word), o(value)),
            Action::FillD { sector, words } => write!(out, "filld {}, {}", o(sector), o(words)),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, &Names::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_cover_all_modules() {
        assert_eq!(
            Action::Alu {
                op: AluOp::Add,
                dst: Reg(0),
                a: Operand::Key,
                b: Operand::Imm(1)
            }
            .category(),
            ActionCategory::Agen
        );
        assert_eq!(
            Action::DramRead {
                addr: Operand::Reg(Reg(0)),
                len: Operand::Imm(64)
            }
            .category(),
            ActionCategory::Queue
        );
        assert_eq!(Action::AllocM.category(), ActionCategory::MetaTag);
        assert_eq!(Action::Retire.category(), ActionCategory::Control);
        assert_eq!(Action::DeallocD.category(), ActionCategory::DataRam);
    }

    #[test]
    fn terminators_detected() {
        assert!(Action::Yield {
            state: StateId::DEFAULT
        }
        .is_terminator());
        assert!(Action::Retire.is_terminator());
        assert!(Action::Fault.is_terminator());
        assert!(!Action::AllocM.is_terminator());
    }

    #[test]
    fn read_write_sets() {
        let a = Action::Alu {
            op: AluOp::Add,
            dst: Reg(2),
            a: Operand::Reg(Reg(0)),
            b: Operand::Reg(Reg(1)),
        };
        assert_eq!(a.reads(), vec![Reg(0), Reg(1)]);
        assert_eq!(a.writes(), Some(Reg(2)));
        assert_eq!(Action::Respond.reads(), vec![]);
        assert_eq!(Action::Respond.writes(), None);

        // `operands` lists every source in field order; `reads` keeps the
        // registers.
        let insert = Action::InsertM {
            key: Operand::Param(1),
            words: Operand::Imm(4),
        };
        assert_eq!(insert.operands(), vec![Operand::Param(1), Operand::Imm(4)]);
        assert_eq!(insert.reads(), vec![]);
        let write = Action::DramWrite {
            addr: Operand::Reg(Reg(0)),
            sector: Operand::MetaSector,
            len: Operand::Reg(Reg(1)),
        };
        assert_eq!(
            write.operands(),
            vec![
                Operand::Reg(Reg(0)),
                Operand::MetaSector,
                Operand::Reg(Reg(1))
            ]
        );
        assert_eq!(write.reads(), vec![Reg(0), Reg(1)]);
        assert_eq!(Action::Retire.operands(), vec![]);
    }

    #[test]
    fn display_round_readable() {
        let a = Action::Branch {
            cond: Cond::Eq,
            a: Operand::Reg(Reg(1)),
            b: Operand::Key,
            target: 5,
        };
        assert_eq!(a.to_string(), "beq r1, key, @5");
        // `bhit`/`bmiss` take no operands in the assembler's syntax.
        let hit = Action::Branch {
            cond: Cond::Hit,
            a: Operand::Imm(0),
            b: Operand::Imm(0),
            target: 5,
        };
        assert_eq!(hit.to_string(), "bhit @5");
        assert_eq!(
            Action::Mov {
                dst: Reg(0),
                a: Operand::Param(2)
            }
            .to_string(),
            "mov r0, p2"
        );
    }
}
