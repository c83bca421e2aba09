//! Compiled walker programs: routines and the routine table. Their
//! checks live in [`verify`](crate::verify).

use std::fmt;

use crate::{Action, EventId, StateId};

/// Index of a routine in the microcode RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoutineId(pub u16);

impl fmt::Display for RoutineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rtn#{}", self.0)
    }
}

/// A named, run-to-completion sequence of actions.
#[derive(Debug, Clone, PartialEq)]
pub struct Routine {
    /// Human-readable name (from the assembler source).
    pub name: String,
    /// Actions in program order; the last reachable action on every path
    /// must be a terminator.
    pub actions: Vec<Action>,
}

impl Routine {
    /// Number of actions (microcode words).
    #[must_use]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the routine has no actions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// The two-dimensional `(state, event) → routine` dispatch table (§4.1 ③).
///
/// "The rows of the routine table correspond to the coroutine states; the
/// columns correspond to the events that can occur. Each entry is a pointer
/// to a routine in the microcode RAM."
#[derive(Debug, Clone, PartialEq)]
pub struct RoutineTable {
    states: u8,
    events: u8,
    entries: Vec<Option<RoutineId>>, // states × events, row-major
}

impl RoutineTable {
    /// Creates an empty table with `states` rows and `events` columns.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(states: u8, events: u8) -> Self {
        assert!(states > 0 && events > 0, "table dimensions must be nonzero");
        RoutineTable {
            states,
            events,
            entries: vec![None; states as usize * events as usize],
        }
    }

    /// Number of state rows.
    #[must_use]
    pub fn states(&self) -> u8 {
        self.states
    }

    /// Number of event columns.
    #[must_use]
    pub fn events(&self) -> u8 {
        self.events
    }

    fn idx(&self, state: StateId, event: EventId) -> Option<usize> {
        (state.0 < self.states && event.0 < self.events)
            .then(|| state.index() * self.events as usize + event.index())
    }

    /// Installs `routine` at `(state, event)`, replacing any previous entry.
    ///
    /// # Panics
    ///
    /// Panics if `state`/`event` are outside the table dimensions.
    pub fn set(&mut self, state: StateId, event: EventId, routine: RoutineId) {
        let i = self
            .idx(state, event)
            .unwrap_or_else(|| panic!("({state}, {event}) outside table"));
        self.entries[i] = Some(routine);
    }

    /// The routine triggered by `event` in `state`, if any.
    ///
    /// A `None` means the event is not expected in that state — the
    /// hardware equivalent is a protocol error, which the controller
    /// reports as a fault.
    #[must_use]
    pub fn lookup(&self, state: StateId, event: EventId) -> Option<RoutineId> {
        self.idx(state, event).and_then(|i| self.entries[i])
    }

    /// Number of populated cells.
    #[must_use]
    pub fn populated(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }
}

/// A complete walker: routines + dispatch table + declarations.
///
/// This is what the assembler produces and what the controller in
/// `xcache-core` loads into its routine RAM.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkerProgram {
    /// Walker name (from the `walker` directive).
    pub name: String,
    /// State names, indexed by [`StateId`]. Index 0 is `Default`.
    pub state_names: Vec<String>,
    /// Event names, indexed by [`EventId`]. Indices 0..3 are the
    /// architectural `Miss`, `Fill`, `Update`.
    pub event_names: Vec<String>,
    /// Number of X-registers each walker instance needs.
    pub regs: u8,
    /// DSA-specific parameter names, indexed by `Operand::Param`.
    pub param_names: Vec<String>,
    /// Microcode RAM contents.
    pub routines: Vec<Routine>,
    /// Dispatch table.
    pub table: RoutineTable,
}

impl WalkerProgram {
    /// The microcode RAM image (all routines, in id order).
    #[must_use]
    pub fn routines(&self) -> &[Routine] {
        &self.routines
    }

    /// Total number of microcode words (actions) across all routines —
    /// "the structures implicitly scale up or down based on walker FSM
    /// complexity" (§7.1 ⑤).
    #[must_use]
    pub fn microcode_words(&self) -> usize {
        self.routines.iter().map(Routine::len).sum()
    }

    /// Resolves a state name to its id.
    #[must_use]
    pub fn state(&self, name: &str) -> Option<StateId> {
        self.state_names
            .iter()
            .position(|n| n == name)
            .map(|i| StateId(i as u8))
    }

    /// Resolves an event name to its id.
    #[must_use]
    pub fn event(&self, name: &str) -> Option<EventId> {
        self.event_names
            .iter()
            .position(|n| n == name)
            .map(|i| EventId(i as u8))
    }

    /// Resolves a parameter name to its `Operand::Param` index.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<u8> {
        self.param_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_structure, DefectClass, VerifyReport};
    use crate::{AluOp, Operand, Reg};

    /// Asserts the structural pass rejects `p` with a `class` error.
    fn rejected(p: &WalkerProgram, class: DefectClass) -> VerifyReport {
        let report = verify_structure(p);
        assert!(
            report.has_errors() && report.has_class(class),
            "expected a `{}` error, got: {:?}",
            class.code(),
            report.diagnostics
        );
        report
    }

    fn minimal_program() -> WalkerProgram {
        let mut table = RoutineTable::new(2, 3);
        table.set(StateId::DEFAULT, EventId::MISS, RoutineId(0));
        table.set(StateId(1), EventId::FILL, RoutineId(1));
        WalkerProgram {
            name: "test".into(),
            state_names: vec!["Default".into(), "Wait".into()],
            event_names: vec!["Miss".into(), "Fill".into(), "Update".into()],
            regs: 2,
            param_names: vec!["base".into()],
            routines: vec![
                Routine {
                    name: "start".into(),
                    actions: vec![
                        Action::AllocR,
                        Action::AllocM,
                        Action::Mov {
                            dst: Reg(0),
                            a: Operand::Key,
                        },
                        Action::DramRead {
                            addr: Operand::Reg(Reg(0)),
                            len: Operand::Imm(64),
                        },
                        Action::Yield { state: StateId(1) },
                    ],
                },
                Routine {
                    name: "finish".into(),
                    actions: vec![
                        Action::AllocD {
                            dst: Reg(1),
                            count: Operand::Imm(1),
                        },
                        Action::FillD {
                            sector: Operand::Reg(Reg(1)),
                            words: Operand::Imm(8),
                        },
                        Action::UpdateM {
                            start: Operand::Reg(Reg(1)),
                            end: Operand::Reg(Reg(1)),
                        },
                        Action::Respond,
                        Action::Retire,
                    ],
                },
            ],
            table,
        }
    }

    #[test]
    fn minimal_program_validates() {
        assert_eq!(verify_structure(&minimal_program()).diagnostics, vec![]);
    }

    #[test]
    fn lookup_resolves_and_misses() {
        let p = minimal_program();
        assert_eq!(
            p.table.lookup(StateId::DEFAULT, EventId::MISS),
            Some(RoutineId(0))
        );
        assert_eq!(p.table.lookup(StateId::DEFAULT, EventId::FILL), None);
        assert_eq!(p.table.lookup(StateId(9), EventId::MISS), None);
        assert_eq!(p.table.populated(), 2);
    }

    #[test]
    fn name_resolution() {
        let p = minimal_program();
        assert_eq!(p.state("Wait"), Some(StateId(1)));
        assert_eq!(p.event("Fill"), Some(EventId::FILL));
        assert_eq!(p.param("base"), Some(0));
        assert_eq!(p.state("nope"), None);
        assert_eq!(p.microcode_words(), 10);
    }

    #[test]
    fn missing_terminator_detected() {
        let mut p = minimal_program();
        p.routines[0].actions.pop(); // drop the Yield
        rejected(&p, DefectClass::Terminator);
    }

    #[test]
    fn empty_routine_detected() {
        let mut p = minimal_program();
        p.routines[0].actions.clear();
        rejected(&p, DefectClass::Terminator);
    }

    #[test]
    fn branch_out_of_range_detected() {
        let mut p = minimal_program();
        p.routines[0].actions.insert(
            0,
            Action::Branch {
                cond: crate::Cond::Miss,
                a: Operand::Imm(0),
                b: Operand::Imm(0),
                target: 99,
            },
        );
        rejected(&p, DefectClass::Terminator);
    }

    #[test]
    fn register_overflow_detected() {
        let mut p = minimal_program();
        p.routines[0].actions.insert(
            2,
            Action::Mov {
                dst: Reg(7),
                a: Operand::Key,
            },
        );
        let report = rejected(&p, DefectClass::Bounds);
        assert!(report.diagnostics.iter().any(|d| d.message.contains("r7")));
    }

    #[test]
    fn dangling_routine_detected() {
        let mut p = minimal_program();
        p.table.set(StateId(1), EventId::UPDATE, RoutineId(9));
        rejected(&p, DefectClass::TableIntegrity);
    }

    #[test]
    fn missing_miss_handler_detected() {
        let mut p = minimal_program();
        p.table = RoutineTable::new(2, 3);
        p.table.set(StateId(1), EventId::FILL, RoutineId(1));
        rejected(&p, DefectClass::TableIntegrity);
    }

    #[test]
    fn unreachable_tail_detected() {
        let mut p = minimal_program();
        p.routines[1].actions.push(Action::Respond); // after Retire
        rejected(&p, DefectClass::Terminator);
    }

    #[test]
    fn conditional_next_state_both_paths_validate() {
        // "the match condition determines the next state" — a routine with
        // two terminators reached via a branch.
        let mut p = minimal_program();
        p.routines[1].actions = vec![
            Action::Peek {
                dst: Reg(0),
                word: 0,
            },
            Action::Branch {
                cond: crate::Cond::Eq,
                a: Operand::Reg(Reg(0)),
                b: Operand::Key,
                target: 4,
            },
            Action::Alu {
                op: AluOp::Add,
                dst: Reg(0),
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(8),
            },
            Action::Yield { state: StateId(1) },
            Action::Retire,
        ];
        assert_eq!(verify_structure(&p).diagnostics, vec![]);
    }

    #[test]
    #[should_panic(expected = "outside table")]
    fn table_set_out_of_range_panics() {
        let mut t = RoutineTable::new(1, 1);
        t.set(StateId(1), EventId(0), RoutineId(0));
    }
}
