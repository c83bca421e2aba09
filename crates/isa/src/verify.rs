//! Static verification of walker programs.
//!
//! This module is the one home of every walker-program check. Checks 1
//! and 2 below, with the id bounds (every register, state, event and
//! parameter an action names is declared), form the *structural* pass,
//! [`verify_structure`]: [`assemble`](crate::asm::assemble) and the
//! controller's unchecked build reject on it. [`verify`] runs that pass
//! and then proves the deeper coroutine discipline of §4.2 before the
//! controller ever runs an action:
//!
//! 1. **Table integrity** — every `(state, event)` entry points at a real
//!    routine, the table dimensions match the declared state/event names,
//!    and `(Default, Miss)` is populated.
//! 2. **Terminator coverage** — every path through every reachable routine
//!    ends in `yield`/`retire`/`fault` (no fall-off-the-end, no dead tail,
//!    no branch outside the routine).
//! 3. **X-Reg def-before-use** — a register read must be dominated by a
//!    definition on *every* path, including values carried across
//!    yield/wake boundaries (the analysis walks the whole state machine,
//!    intersecting definitely-defined sets at routine entries).
//! 4. **Stage legality** — `allocR` claims the register file and may only
//!    open a launch entry; `filld`/`insertm` consume a DRAM fill payload
//!    and are only legal in routines dispatched by `Fill`.
//! 5. **Yield-before-long-latency** — after a DRAM issue, no AGEN or
//!    data-RAM action may run in the same routine activation; the routine
//!    must yield and let the completion event resume it.
//! 6. **Queue push/pop balance** — per-activation DRAM issues and posted
//!    events are bounded by the declared capacities in [`VerifyLimits`],
//!    cumulative data-RAM allocation cannot exceed the sector capacity,
//!    every completion event pending at a `yield` has a handler in the
//!    yielded-to state (else the walker parks forever), and a `yield` with
//!    nothing outstanding can never be woken.
//! 7. **Reachability** — routines the state machine can never dispatch are
//!    reported as warnings.
//!
//! The verifier is conservative: it rejects only programs with a path it
//! can prove defective under the model above, and every diagnostic carries
//! its source location (routine name, action index, rendered action).

use std::collections::BTreeSet;
use std::fmt;

use crate::{Action, ActionCategory, EventId, Operand, Routine, StateId, WalkerProgram};

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but runnable (e.g. dead routines).
    Warning,
    /// The program is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The defect classes the verifier distinguishes (one negative test each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DefectClass {
    /// Dispatch-table defects: dangling routine ids, dimension mismatches,
    /// missing `(Default, Miss)` handler.
    TableIntegrity,
    /// A reachable path can run past the routine's end, or actions can
    /// never execute.
    Terminator,
    /// A register, state, event, or parameter id outside the declared
    /// range.
    Bounds,
    /// An X-register may be read before any definition on some path
    /// (across yield/wake boundaries included).
    UseBeforeDef,
    /// An action is placed in a pipeline stage where it is not legal
    /// (`allocR` outside a launch entry, fill consumers outside a `Fill`
    /// dispatch).
    StageLegality,
    /// An AGEN or data-RAM action follows a DRAM issue in the same
    /// routine activation without an intervening yield.
    MissedYield,
    /// Queue pushes outrun the declared capacities (DRAM issues, posted
    /// events, data-RAM sectors).
    QueueImbalance,
    /// A completion event cannot be consumed: the yielded-to state has no
    /// handler for it, or a yield has nothing outstanding to wake it.
    UnhandledCompletion,
    /// The state machine can never dispatch this routine.
    Unreachable,
}

impl DefectClass {
    /// Stable kebab-case code, used in rendered diagnostics.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            DefectClass::TableIntegrity => "table-integrity",
            DefectClass::Terminator => "terminator",
            DefectClass::Bounds => "bounds",
            DefectClass::UseBeforeDef => "use-before-def",
            DefectClass::StageLegality => "stage-legality",
            DefectClass::MissedYield => "missed-yield",
            DefectClass::QueueImbalance => "queue-imbalance",
            DefectClass::UnhandledCompletion => "unhandled-completion",
            DefectClass::Unreachable => "unreachable",
        }
    }
}

/// One verifier finding, located at `routine`/`pc` when it concerns a
/// specific action (table-level findings have no location).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Defect class.
    pub class: DefectClass,
    /// Error or warning.
    pub severity: Severity,
    /// Routine name, if the finding is inside a routine.
    pub routine: Option<String>,
    /// Action index within the routine, if applicable.
    pub pc: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.class.code())?;
        match (&self.routine, self.pc) {
            (Some(r), Some(pc)) => write!(f, " routine `{r}` @{pc}")?,
            (Some(r), None) => write!(f, " routine `{r}`")?,
            _ => {}
        }
        write!(f, ": {}", self.message)
    }
}

/// Declared capacities the balance checks verify against. The controller
/// passes its geometry here; standalone tools use the defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyLimits {
    /// DRAM requests one routine activation may leave outstanding
    /// (the coroutine discipline: issue, then yield).
    pub dram_per_activation: u32,
    /// Internal events (hash results, posted events) one activation may
    /// leave outstanding.
    pub events_per_activation: u32,
    /// Total data-RAM sectors (the declared capacity a single walk's
    /// cumulative `allocD` must fit in).
    pub data_sectors: u32,
}

impl Default for VerifyLimits {
    fn default() -> Self {
        VerifyLimits {
            dram_per_activation: 1,
            events_per_activation: 4,
            data_sectors: 16 * 1024,
        }
    }
}

/// The verdict: all diagnostics, in discovery order, deduplicated.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Everything found.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// The error-severity findings.
    #[must_use]
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    /// The warning-severity findings.
    #[must_use]
    pub fn warnings(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .collect()
    }

    /// Whether any error-severity finding exists.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Whether a given defect class was reported (any severity).
    #[must_use]
    pub fn has_class(&self, class: DefectClass) -> bool {
        self.diagnostics.iter().any(|d| d.class == class)
    }

    /// Converts the report into a pass/fail result.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] carrying the offending diagnostics when
    /// any error (or, with `deny_warnings`, any finding at all) exists.
    pub fn check(&self, deny_warnings: bool) -> Result<(), VerifyError> {
        let bad: Vec<Diagnostic> = self
            .diagnostics
            .iter()
            .filter(|d| deny_warnings || d.severity == Severity::Error)
            .cloned()
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(VerifyError { diagnostics: bad })
        }
    }
}

/// A rejected program: the typed error the controller and `xasm` surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The findings that caused the rejection.
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} verifier finding(s)", self.diagnostics.len())?;
        for d in &self.diagnostics {
            write!(f, "; {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// Verifies `program` under the default [`VerifyLimits`].
#[must_use]
pub fn verify(program: &WalkerProgram) -> VerifyReport {
    verify_with(program, &VerifyLimits::default())
}

/// Verifies `program` against explicit declared capacities.
#[must_use]
pub fn verify_with(program: &WalkerProgram, limits: &VerifyLimits) -> VerifyReport {
    Verifier::new(program, limits).run()
}

/// Runs only the structural pass: table integrity, terminators and id
/// bounds. Every finding is an error; a program that passes is safe to
/// predecode and dispatch, though it may still break the coroutine
/// discipline [`verify`] checks.
#[must_use]
pub fn verify_structure(program: &WalkerProgram) -> VerifyReport {
    let mut v = Verifier::new(program, &VerifyLimits::default());
    v.structural_pass();
    v.report()
}

/// A dataflow fact at one program point of one routine activation.
///
/// `defs` is a *must* set (meet = intersection); everything else is a
/// *may*/max summary (meet = union / maximum), so the checks stay
/// conservative in the rejecting direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fact {
    /// Bit `i` set ⇒ `r_i` is defined on every path here.
    defs: u64,
    /// Bit `e` set ⇒ completion event `e` may be outstanding.
    pending: u64,
    /// Max DRAM issues so far in this activation (saturating).
    dram: u32,
    /// Max posted internal events so far in this activation (saturating).
    posted: u32,
    /// A DRAM issue may have happened earlier in this activation.
    issued: bool,
    /// Max cumulative data-RAM sectors allocated over the whole walk
    /// (saturating at the capacity + 1).
    sectors: u32,
}

impl Fact {
    fn entry(defs: u64, sectors: u32) -> Self {
        Fact {
            defs,
            pending: 0,
            dram: 0,
            posted: 0,
            issued: false,
            sectors,
        }
    }

    fn meet(self, other: Fact) -> Fact {
        Fact {
            defs: self.defs & other.defs,
            pending: self.pending | other.pending,
            dram: self.dram.max(other.dram),
            posted: self.posted.max(other.posted),
            issued: self.issued || other.issued,
            sectors: self.sectors.max(other.sectors),
        }
    }
}

/// The launch events the trigger stage can start a walker with: loads
/// launch with `Miss`, stores with `Update` (entries rest in `Default`).
const LAUNCH_EVENTS: [EventId; 2] = [EventId::MISS, EventId::UPDATE];

struct Verifier<'p> {
    program: &'p WalkerProgram,
    limits: VerifyLimits,
    diags: Vec<Diagnostic>,
    /// Per-routine structural soundness (dataflow only runs on sound CFGs).
    sound: Vec<bool>,
    /// Per-routine entry fact, `None` until proven reachable.
    entry: Vec<Option<Fact>>,
}

impl<'p> Verifier<'p> {
    fn new(program: &'p WalkerProgram, limits: &VerifyLimits) -> Self {
        Verifier {
            program,
            limits: limits.clone(),
            diags: Vec::new(),
            sound: vec![false; program.routines.len()],
            entry: vec![None; program.routines.len()],
        }
    }

    fn run(mut self) -> VerifyReport {
        self.structural_pass();
        self.check_stage_legality();
        self.propagate();
        self.check_dataflow();
        self.check_reachability();
        self.report()
    }

    /// The structural pass: table integrity, terminators and id bounds.
    fn structural_pass(&mut self) {
        self.check_table();
        for i in 0..self.program.routines.len() {
            self.sound[i] = self.check_structure(i);
        }
    }

    fn report(mut self) -> VerifyReport {
        // Deduplicate (fixpoint passes can revisit a program point).
        let mut seen = BTreeSet::new();
        self.diags.retain(|d| seen.insert(d.to_string()));
        VerifyReport {
            diagnostics: self.diags,
        }
    }

    fn diag(
        &mut self,
        class: DefectClass,
        severity: Severity,
        routine: Option<usize>,
        pc: Option<usize>,
        message: String,
    ) {
        self.diags.push(Diagnostic {
            class,
            severity,
            routine: routine.map(|r| self.program.routines[r].name.clone()),
            pc,
            message,
        });
    }

    /// Located error with the offending action rendered into the message.
    fn action_error(&mut self, class: DefectClass, r: usize, pc: usize, what: &str) {
        let a = self.program.routines[r].actions[pc];
        self.diag(
            class,
            Severity::Error,
            Some(r),
            Some(pc),
            format!("`{a}`: {what}"),
        );
    }

    // ---- check 1: table integrity ---------------------------------------

    fn check_table(&mut self) {
        let p = self.program;
        if usize::from(p.table.states()) != p.state_names.len() {
            self.diag(
                DefectClass::TableIntegrity,
                Severity::Error,
                None,
                None,
                format!(
                    "table has {} state rows but {} states are declared",
                    p.table.states(),
                    p.state_names.len()
                ),
            );
        }
        if usize::from(p.table.events()) != p.event_names.len() {
            self.diag(
                DefectClass::TableIntegrity,
                Severity::Error,
                None,
                None,
                format!(
                    "table has {} event columns but {} events are declared",
                    p.table.events(),
                    p.event_names.len()
                ),
            );
        }
        for s in 0..p.table.states() {
            for e in 0..p.table.events() {
                if let Some(rid) = p.table.lookup(StateId(s), EventId(e)) {
                    if usize::from(rid.0) >= p.routines.len() {
                        self.diag(
                            DefectClass::TableIntegrity,
                            Severity::Error,
                            None,
                            None,
                            format!(
                                "table entry ({}, {}) points at missing routine {rid}",
                                self.state_name(StateId(s)),
                                self.event_name(EventId(e)),
                            ),
                        );
                    }
                }
            }
        }
        if p.table.lookup(StateId::DEFAULT, EventId::MISS).is_none() {
            self.diag(
                DefectClass::TableIntegrity,
                Severity::Error,
                None,
                None,
                "no routine handles (Default, Miss); the walker can never start".into(),
            );
        }
    }

    fn state_name(&self, s: StateId) -> String {
        self.program
            .state_names
            .get(s.index())
            .cloned()
            .unwrap_or_else(|| format!("S{}", s.0))
    }

    fn event_name(&self, e: EventId) -> String {
        self.program
            .event_names
            .get(e.index())
            .cloned()
            .unwrap_or_else(|| format!("E{}", e.0))
    }

    // ---- check 2: terminator coverage + operand bounds ------------------

    /// Returns whether the routine's CFG is sound enough for dataflow.
    fn check_structure(&mut self, r: usize) -> bool {
        let routine = &self.program.routines[r];
        let n = routine.actions.len();
        if n == 0 {
            self.diag(
                DefectClass::Terminator,
                Severity::Error,
                Some(r),
                None,
                "routine is empty".into(),
            );
            return false;
        }
        let mut sound = true;
        let mut reachable = vec![false; n];
        let mut stack = vec![0usize];
        while let Some(pc) = stack.pop() {
            if pc >= n {
                continue;
            }
            if std::mem::replace(&mut reachable[pc], true) {
                continue;
            }
            let a = &routine.actions[pc];
            if let Action::Branch { target, .. } = a {
                if usize::from(*target) >= n {
                    self.action_error(
                        DefectClass::Terminator,
                        r,
                        pc,
                        "branch target outside the routine",
                    );
                    sound = false;
                } else {
                    stack.push(usize::from(*target));
                }
            }
            if a.is_terminator() {
                continue;
            }
            if pc + 1 >= n {
                self.action_error(
                    DefectClass::Terminator,
                    r,
                    pc,
                    "a path can run past the routine's end without a terminator",
                );
                sound = false;
            } else {
                stack.push(pc + 1);
            }
        }
        if let Some(dead) = reachable.iter().position(|x| !x) {
            self.diag(
                DefectClass::Terminator,
                Severity::Error,
                Some(r),
                Some(dead),
                format!("actions from index {dead} can never execute"),
            );
        }
        // Id bounds.
        let p = self.program;
        let (regs, states, events, params) = (
            p.regs,
            p.state_names.len(),
            p.event_names.len(),
            p.param_names.len(),
        );
        for (pc, a) in routine.actions.iter().enumerate() {
            for reg in a.reads().into_iter().chain(a.writes()) {
                if reg.0 >= regs {
                    self.action_error(
                        DefectClass::Bounds,
                        r,
                        pc,
                        &format!("references {reg} but only {regs} register(s) are declared"),
                    );
                }
            }
            for op in a.operands() {
                if let Operand::Param(i) = op {
                    if usize::from(i) >= params {
                        self.action_error(
                            DefectClass::Bounds,
                            r,
                            pc,
                            &format!("references p{i} but only {params} parameter(s) are declared"),
                        );
                    }
                }
            }
            match a {
                Action::Yield { state } if state.index() >= states => {
                    self.action_error(
                        DefectClass::Bounds,
                        r,
                        pc,
                        &format!("yields to undeclared state S{}", state.0),
                    );
                    sound = false; // its table row does not exist
                }
                Action::Hash { done: e, .. } | Action::PostEvent { event: e, .. }
                    if e.index() >= events =>
                {
                    self.action_error(
                        DefectClass::Bounds,
                        r,
                        pc,
                        &format!("posts undeclared event E{}", e.0),
                    );
                }
                _ => {}
            }
        }
        sound
    }

    // ---- check 4: action-category legality per stage --------------------

    /// The dispatch events each routine can be entered with, per the table
    /// (launch entries additionally dispatch on `Miss`/`Update`).
    fn dispatch_events(&self) -> Vec<Vec<EventId>> {
        let p = self.program;
        let mut by_routine: Vec<Vec<EventId>> = vec![Vec::new(); p.routines.len()];
        for s in 0..p.table.states() {
            for e in 0..p.table.events() {
                if let Some(rid) = p.table.lookup(StateId(s), EventId(e)) {
                    if let Some(v) = by_routine.get_mut(usize::from(rid.0)) {
                        if !v.contains(&EventId(e)) {
                            v.push(EventId(e));
                        }
                    }
                }
            }
        }
        by_routine
    }

    fn launch_entries(&self) -> Vec<usize> {
        let mut v = Vec::new();
        for e in LAUNCH_EVENTS {
            if let Some(rid) = self.program.table.lookup(StateId::DEFAULT, e) {
                if usize::from(rid.0) < self.program.routines.len()
                    && !v.contains(&(rid.0 as usize))
                {
                    v.push(usize::from(rid.0));
                }
            }
        }
        v
    }

    fn check_stage_legality(&mut self) {
        let entries = self.launch_entries();
        let dispatch = self.dispatch_events();
        for (r, disp) in dispatch.iter().enumerate() {
            if !self.sound[r] || self.program.routines[r].is_empty() {
                continue;
            }
            let is_entry = entries.contains(&r);
            if is_entry && self.program.routines[r].actions[0] != Action::AllocR {
                self.diag(
                    DefectClass::StageLegality,
                    Severity::Error,
                    Some(r),
                    Some(0),
                    "launch entry must begin with `allocR` (the register-file claim)".into(),
                );
            }
            let fill_only = !is_entry && disp.iter().all(|e| *e == EventId::FILL);
            for (pc, a) in self.program.routines[r].actions.iter().enumerate() {
                match a {
                    Action::AllocR if !(is_entry && pc == 0) => {
                        self.action_error(
                            DefectClass::StageLegality,
                            r,
                            pc,
                            "only legal as the first action of a launch entry",
                        );
                    }
                    Action::FillD { .. } | Action::InsertM { .. }
                        if !fill_only && !disp.is_empty() =>
                    {
                        self.action_error(
                            DefectClass::StageLegality,
                            r,
                            pc,
                            "consumes a DRAM fill payload but the routine can be \
                             dispatched by a non-Fill event",
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    // ---- interprocedural dataflow (checks 3, 5, 6) ----------------------

    /// Intra-routine forward dataflow from `entry`; returns the fact *at*
    /// each pc (before the action executes), or `None` for unreachable pcs.
    fn flow(&self, r: usize, entry: Fact) -> Vec<Option<Fact>> {
        let routine = &self.program.routines[r];
        let n = routine.actions.len();
        let mut facts: Vec<Option<Fact>> = vec![None; n];
        facts[0] = Some(entry);
        let mut work = vec![0usize];
        while let Some(pc) = work.pop() {
            let fact = facts[pc].expect("queued pcs have facts");
            let out = self.transfer(&routine.actions[pc], fact);
            for succ in successors(routine, pc) {
                let merged = match facts[succ] {
                    Some(prev) => prev.meet(out),
                    None => out,
                };
                if facts[succ] != Some(merged) {
                    facts[succ] = Some(merged);
                    work.push(succ);
                }
            }
        }
        facts
    }

    fn transfer(&self, a: &Action, mut f: Fact) -> Fact {
        let cap = |v: u32, limit: u32| v.min(limit.saturating_add(1));
        match a {
            Action::DramRead { .. } | Action::DramWrite { .. } => {
                f.dram = cap(f.dram + 1, self.limits.dram_per_activation);
                f.issued = true;
                f.pending |= event_bit(EventId::FILL);
            }
            Action::Hash { done: e, .. } | Action::PostEvent { event: e, .. } => {
                f.posted = cap(f.posted + 1, self.limits.events_per_activation);
                f.pending |= event_bit(*e);
            }
            Action::AllocD { count, .. } => {
                f.sectors = cap(
                    f.sectors.saturating_add(alloc_sectors(count)),
                    self.limits.data_sectors,
                );
            }
            // Both release every sector recorded in the walker's entry.
            Action::DeallocD | Action::DeallocM => f.sectors = 0,
            _ => {}
        }
        if let Some(dst) = a.writes() {
            if u32::from(dst.0) < 64 {
                f.defs |= 1u64 << dst.0;
            }
        }
        f
    }

    /// Fixpoint over the routine graph: launch entries seed the analysis;
    /// every yield propagates its defined set (and sector usage) to the
    /// routines its pending completion events can dispatch.
    fn propagate(&mut self) {
        let p = self.program;
        for r in self.launch_entries() {
            if self.sound[r] {
                self.entry[r] = Some(Fact::entry(0, 0));
            }
        }
        let mut work: Vec<usize> = self
            .entry
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|_| i))
            .collect();
        while let Some(r) = work.pop() {
            let Some(entry) = self.entry[r] else { continue };
            let facts = self.flow(r, entry);
            for (pc, fact) in facts.iter().enumerate() {
                let (Some(fact), Action::Yield { state }) = (fact, &p.routines[r].actions[pc])
                else {
                    continue;
                };
                let out = self.transfer(&p.routines[r].actions[pc], *fact);
                for e in pending_events(out.pending) {
                    let Some(rid) = p.table.lookup(*state, e) else {
                        continue;
                    };
                    let succ = usize::from(rid.0);
                    if succ >= p.routines.len() || !self.sound[succ] {
                        continue;
                    }
                    let seed = Fact::entry(out.defs, out.sectors);
                    let merged = match self.entry[succ] {
                        Some(prev) => Fact {
                            defs: prev.defs & seed.defs,
                            sectors: prev.sectors.max(seed.sectors),
                            ..prev
                        },
                        None => seed,
                    };
                    if self.entry[succ] != Some(merged) {
                        self.entry[succ] = Some(merged);
                        work.push(succ);
                    }
                }
            }
        }
    }

    /// Emits the dataflow-dependent diagnostics for every reachable
    /// routine, using the post-fixpoint entry facts.
    fn check_dataflow(&mut self) {
        for r in 0..self.program.routines.len() {
            let Some(entry) = self.entry[r] else { continue };
            if !self.sound[r] {
                continue;
            }
            let facts = self.flow(r, entry);
            for (pc, fact) in facts.iter().enumerate() {
                let Some(fact) = *fact else { continue };
                self.check_action(r, pc, fact);
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn check_action(&mut self, r: usize, pc: usize, fact: Fact) {
        let a = self.program.routines[r].actions[pc];
        // Check 3: def-before-use (must-defined set, carried across yields).
        for reg in a.reads() {
            if reg.0 < self.program.regs && u32::from(reg.0) < 64 && fact.defs & (1 << reg.0) == 0 {
                self.action_error(
                    DefectClass::UseBeforeDef,
                    r,
                    pc,
                    &format!("{reg} may be read before any definition"),
                );
            }
        }
        // Check 5: yield-before-long-latency discipline.
        if fact.issued && matches!(a.category(), ActionCategory::Agen | ActionCategory::DataRam) {
            self.action_error(
                DefectClass::MissedYield,
                r,
                pc,
                "runs after a DRAM issue in the same routine without an \
                 intervening yield",
            );
        }
        // Check 6: queue push/pop balance against declared capacities.
        match a {
            Action::DramRead { .. } | Action::DramWrite { .. }
                if fact.dram + 1 > self.limits.dram_per_activation =>
            {
                let cap = self.limits.dram_per_activation;
                self.action_error(
                    DefectClass::QueueImbalance,
                    r,
                    pc,
                    &format!(
                        "more than {cap} outstanding DRAM request(s) in one \
                         routine activation"
                    ),
                );
            }
            Action::Hash { .. } | Action::PostEvent { .. }
                if fact.posted + 1 > self.limits.events_per_activation =>
            {
                let cap = self.limits.events_per_activation;
                self.action_error(
                    DefectClass::QueueImbalance,
                    r,
                    pc,
                    &format!("more than {cap} posted event(s) in one routine activation"),
                );
            }
            Action::AllocD { count, .. }
                if fact.sectors.saturating_add(alloc_sectors(&count))
                    > self.limits.data_sectors =>
            {
                let cap = self.limits.data_sectors;
                self.action_error(
                    DefectClass::QueueImbalance,
                    r,
                    pc,
                    &format!(
                        "cumulative data-RAM allocation exceeds the declared \
                         capacity of {cap} sector(s)"
                    ),
                );
            }
            Action::Yield { state } => {
                let out = self.transfer(&a, fact);
                if out.pending == 0 {
                    self.action_error(
                        DefectClass::UnhandledCompletion,
                        r,
                        pc,
                        "yields with no outstanding completion; nothing can \
                         ever wake this walker",
                    );
                }
                for e in pending_events(out.pending) {
                    if state.index() < self.program.state_names.len()
                        && self.program.table.lookup(state, e).is_none()
                    {
                        let (sn, en) = (self.state_name(state), self.event_name(e));
                        self.action_error(
                            DefectClass::UnhandledCompletion,
                            r,
                            pc,
                            &format!(
                                "outstanding `{en}` completion has no handler in \
                                 state `{sn}`; the walker would park forever"
                            ),
                        );
                    }
                }
            }
            Action::Retire | Action::Fault if fact.pending != 0 => {
                let names: Vec<String> = pending_events(fact.pending)
                    .map(|e| self.event_name(e))
                    .collect();
                let what = format!(
                    "terminates with outstanding completion(s) [{}] that will \
                     be discarded",
                    names.join(", ")
                );
                self.diag(
                    DefectClass::UnhandledCompletion,
                    Severity::Warning,
                    Some(r),
                    Some(pc),
                    format!("`{a}`: {what}"),
                );
            }
            _ => {}
        }
    }

    // ---- check 7: reachability ------------------------------------------

    fn check_reachability(&mut self) {
        for r in 0..self.program.routines.len() {
            if self.entry[r].is_none() && self.sound[r] {
                self.diag(
                    DefectClass::Unreachable,
                    Severity::Warning,
                    Some(r),
                    None,
                    "the state machine can never dispatch this routine".into(),
                );
            }
        }
    }
}

/// CFG successors of `pc` within `routine` (indices past the end are
/// dropped; the structural pass has already reported them).
fn successors(routine: &Routine, pc: usize) -> Vec<usize> {
    let n = routine.actions.len();
    let a = &routine.actions[pc];
    if a.is_terminator() {
        return Vec::new();
    }
    let mut v = Vec::with_capacity(2);
    if let Action::Branch { target, .. } = a {
        if usize::from(*target) < n {
            v.push(usize::from(*target));
        }
    }
    if pc + 1 < n {
        v.push(pc + 1);
    }
    v
}

fn event_bit(e: EventId) -> u64 {
    if e.0 < 64 {
        1u64 << e.0
    } else {
        0
    }
}

fn pending_events(mask: u64) -> impl Iterator<Item = EventId> {
    (0..64u8).filter_map(move |i| (mask & (1 << i) != 0).then_some(EventId(i)))
}

/// Statically-known sector count of an `allocD` (unknown counts are
/// assumed minimal — the verifier never rejects what it cannot prove).
fn alloc_sectors(count: &Operand) -> u32 {
    match count {
        Operand::Imm(v) => u32::try_from(*v).unwrap_or(u32::MAX),
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn clean(src: &str) {
        let p = assemble(src).expect("assembles");
        let report = verify(&p);
        assert!(
            report.diagnostics.is_empty(),
            "expected a clean report, got: {:?}",
            report
                .diagnostics
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn array_walker_is_clean() {
        clean(
            r#"
            walker array
            states Default, Wait
            regs 2
            params base
            routine start {
                allocR
                allocM
                mul r0, key, 32
                add r0, r0, base
                dram_read r0, 32
                yield Wait
            }
            routine fill {
                allocD r1, 1
                filld r1, 4
                updatem r1, r1
                respond
                retire
            }
            on Default, Miss -> start
            on Wait, Fill -> fill
        "#,
        );
    }

    #[test]
    fn cross_yield_defs_are_carried() {
        // `fill` reads r0, defined only in `start` before the yield: the
        // interprocedural pass must carry the definition across the
        // yield/wake boundary.
        clean(
            r#"
            walker carry
            states Default, Wait
            regs 2
            params base
            routine start {
                allocR
                allocM
                mul r0, key, 8
                add r0, r0, base
                dram_read r0, 8
                yield Wait
            }
            routine fill {
                allocD r1, 1
                filld r1, 1
                writed r1, 1, r0
                updatem r1, r1
                respond
                retire
            }
            on Default, Miss -> start
            on Wait, Fill -> fill
        "#,
        );
    }

    #[test]
    fn loops_converge_with_intersection() {
        // A chain chase re-enters `check` through its own yield; the meet
        // over both predecessors must converge and keep r0 defined.
        clean(
            r#"
            walker chase
            states Default, Probe
            regs 3
            params base
            routine start {
                allocR
                allocM
                mul r0, key, 8
                add r0, r0, base
                dram_read r0, 8
                yield Probe
            }
            routine check {
                peek r1, 0
                beq r1, 0, @done
                add r0, r0, 8
                dram_read r0, 8
                yield Probe
            done:
                allocD r2, 1
                filld r2, 1
                updatem r2, r2
                respond
                retire
            }
            on Default, Miss -> start
            on Probe, Fill -> check
        "#,
        );
    }

    #[test]
    fn use_before_def_flagged_per_path() {
        // r1 is defined on the fallthrough path only; the merged read
        // must be flagged.
        let p = assemble(
            r#"
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
        "#,
        )
        .expect("assembles");
        let report = verify(&p);
        assert!(report.has_class(DefectClass::UseBeforeDef));
        assert!(report.has_errors());
    }

    #[test]
    fn report_check_respects_deny_warnings() {
        // An unreachable routine is a warning: ok normally, an error under
        // deny-warnings.
        let p = assemble(
            r#"
            walker warn
            states Default
            regs 1
            routine start {
                allocR
                fault
            }
            routine orphan {
                retire
            }
            on Default, Miss -> start
        "#,
        )
        .expect("assembles");
        let report = verify(&p);
        assert!(!report.has_errors());
        assert!(report.has_class(DefectClass::Unreachable));
        assert!(report.check(false).is_ok());
        let err = report.check(true).expect_err("deny-warnings fails");
        assert_eq!(err.diagnostics.len(), 1);
        assert!(err.to_string().contains("unreachable"));
    }

    #[test]
    fn diagnostics_render_with_location() {
        let d = Diagnostic {
            class: DefectClass::UseBeforeDef,
            severity: Severity::Error,
            routine: Some("check".into()),
            pc: Some(3),
            message: "`mov r0, r1`: r1 may be read before any definition".into(),
        };
        assert_eq!(
            d.to_string(),
            "error[use-before-def] routine `check` @3: `mov r0, r1`: r1 may be read before any definition"
        );
    }
}
