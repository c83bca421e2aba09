//! # xcache-isa
//!
//! The X-Cache microcode ISA (Sedaghati et al., ISCA 2022, §4).
//!
//! X-Cache's controller is programmable: each DSA's *walker* is expressed
//! as a table-driven coroutine. A `(state, event)` pair indexes the
//! [`RoutineTable`] and yields a pointer into the microcode RAM; the
//! [`Routine`] found there is a short, run-to-completion sequence of
//! single-cycle [`Action`]s ending in a terminator that either updates the
//! walker's state and yields (waiting for the next event) or retires the
//! walker.
//!
//! This crate is pure data + tooling:
//!
//! * [`Action`], [`Operand`], [`Cond`], [`AluOp`] — the action set of
//!   Figure 8 (five categories: address generation, message queues,
//!   meta-tags, control flow, data RAM).
//! * [`Routine`], [`RoutineTable`], [`WalkerProgram`] — the compiled form.
//! * [`verify`] — every check a program must pass: the structural pass
//!   the assembler runs, and the §4.2 coroutine discipline.
//! * [`asm`] — the textual walker language and its compiler, the analogue
//!   of the paper's "table-driven template" the designer fills in.
//! * [`encode`]/[`decode`] — a fixed-width binary encoding, used to size
//!   the routine RAM for the energy/area models.
//!
//! Execution semantics (the interpreter/pipeline) live in `xcache-core`;
//! this crate defines *what* a walker says, not *how* the hardware runs it.
//!
//! ```
//! use xcache_isa::asm::assemble;
//!
//! let program = assemble(r#"
//!     walker demo
//!     states Default, Wait
//!     events Miss, Fill
//!     regs 2
//!
//!     routine on_miss {
//!         allocR
//!         allocM
//!         mov r0, key
//!         dram_read r0, 64
//!         yield Wait
//!     }
//!     routine on_fill {
//!         allocD r1, 1
//!         filld r1, 8
//!         updatem r1, r1
//!         respond
//!         retire
//!     }
//!
//!     on Default, Miss -> on_miss
//!     on Wait, Fill -> on_fill
//! "#).expect("valid walker");
//! assert_eq!(program.routines().len(), 2);
//! ```

pub mod asm;
pub mod effects;
pub mod gen;
pub mod predecode;
pub mod verify;

mod action;
mod encode;
mod ids;
mod program;

pub use action::{Action, ActionCategory, AluOp, Cond, Operand, Reg};
pub use encode::{decode, encode, DecodeError, ACTION_BITS};
pub use ids::{EventId, StateId};
pub use program::{Routine, RoutineId, RoutineTable, WalkerProgram};
