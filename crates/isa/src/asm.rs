//! The walker assembly language and its compiler.
//!
//! This is the reproduction of the paper's walker toolflow (§7.1): "a
//! compiler that combines DSA-specific walking and cache management FSMs,
//! and translates them into a microcode binary that runs on a programmable
//! controller". The designer writes a table-driven description — states,
//! events, routines, and the `(state, event) → routine` transitions — and
//! [`assemble`] produces a structurally checked [`WalkerProgram`].
//!
//! # Language
//!
//! ```text
//! walker widx                       ; walker name
//! states Default, Data              ; state 0 must be Default
//! events HashDone                   ; Miss/Fill/Update are built in
//! regs 4                            ; X-registers per walker
//! params table_base, node_bytes     ; DSA-specific parameters
//!
//! routine start {
//!     allocR
//!     allocM
//!     hash HashDone, key            ; long-latency: start hash, then...
//!     yield Default                 ; ...yield until HashDone
//! }
//!
//! routine probe {
//!     peek r0, 0                    ; r0 = hash digest
//!     mul r1, r0, node_bytes
//!     add r1, r1, table_base
//!     dram_read r1, node_bytes
//!     yield Data
//! }
//!
//! routine check {
//!     peek r2, 0                    ; node's key
//!     beq r2, key, @found
//!     peek r1, 1                    ; node's next pointer
//!     dram_read r1, node_bytes
//!     yield Data
//! found:
//!     allocD r3, 1
//!     filld r3, 4
//!     updatem r3, r3
//!     respond
//!     retire
//! }
//!
//! on Default, Miss -> start
//! on Default, HashDone -> probe
//! on Data, Fill -> check
//! ```
//!
//! Comments run from `;` or `#` to end of line. Branch targets are labels
//! (`name:` on its own line) or absolute action indices (`@3`). Operands
//! are registers (`r0`), immediates (decimal or `0x…`), the implicit `key`,
//! event-payload words (`msg0`), or declared parameter names.

use std::collections::HashMap;
use std::fmt;

use crate::action::Names;
use crate::verify::verify_structure;
use crate::{
    Action, AluOp, Cond, EventId, Operand, Reg, Routine, RoutineId, RoutineTable, StateId,
    WalkerProgram,
};

/// An assembly error with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line of the problem (0 for file-level problems).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for AsmError {}

impl AsmError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        AsmError {
            line,
            message: message.into(),
        }
    }
}

/// Architectural event names always present, in id order.
const BUILTIN_EVENTS: [&str; 3] = ["Miss", "Fill", "Update"];

#[derive(Default)]
struct Ctx {
    name: String,
    states: Vec<String>,
    events: Vec<String>,
    regs: u8,
    params: Vec<String>,
    routines: Vec<Routine>,
    routine_ids: HashMap<String, RoutineId>,
    transitions: Vec<(usize, String, String, String)>, // line, state, event, routine
}

impl Ctx {
    fn state_id(&self, name: &str, line: usize) -> Result<StateId, AsmError> {
        self.states
            .iter()
            .position(|s| s == name)
            .map(|i| StateId(i as u8))
            .ok_or_else(|| AsmError::at(line, format!("unknown state `{name}`")))
    }

    fn event_id(&self, name: &str, line: usize) -> Result<EventId, AsmError> {
        self.events
            .iter()
            .position(|s| s == name)
            .map(|i| EventId(i as u8))
            .ok_or_else(|| AsmError::at(line, format!("unknown event `{name}`")))
    }

    fn operand(&self, tok: &str, line: usize) -> Result<Operand, AsmError> {
        if tok == "key" {
            return Ok(Operand::Key);
        }
        if tok == "sector" {
            return Ok(Operand::MetaSector);
        }
        if let Some(rest) = tok.strip_prefix('r') {
            if let Ok(n) = rest.parse::<u8>() {
                return Ok(Operand::Reg(Reg(n)));
            }
        }
        if let Some(rest) = tok.strip_prefix("msg") {
            if let Ok(n) = rest.parse::<u8>() {
                return Ok(Operand::MsgWord(n));
            }
        }
        if let Some(rest) = tok.strip_prefix("0x") {
            if let Ok(v) = u64::from_str_radix(rest, 16) {
                return Ok(Operand::Imm(v));
            }
        }
        if let Ok(v) = tok.parse::<u64>() {
            return Ok(Operand::Imm(v));
        }
        if let Some(i) = self.params.iter().position(|p| p == tok) {
            return Ok(Operand::Param(i as u8));
        }
        Err(AsmError::at(line, format!("cannot parse operand `{tok}`")))
    }

    fn reg(&self, tok: &str, line: usize) -> Result<Reg, AsmError> {
        match self.operand(tok, line)? {
            Operand::Reg(r) => Ok(r),
            _ => Err(AsmError::at(
                line,
                format!("expected a register, got `{tok}`"),
            )),
        }
    }
}

fn split_csv(s: &str) -> Vec<String> {
    s.split(',')
        .map(|t| t.trim().to_owned())
        .filter(|t| !t.is_empty())
        .collect()
}

fn strip_comment(line: &str) -> &str {
    let cut = line.find([';', '#']).unwrap_or(line.len());
    line[..cut].trim()
}

/// A branch target before label resolution.
enum PendingTarget {
    Index(u8),
    Label(String),
}

/// Assembles walker source text into a [`WalkerProgram`], rejecting any
/// program the structural pass ([`verify_structure`]) flags.
///
/// # Errors
///
/// Returns the first syntax error encountered, or (after a syntactically
/// clean parse) the structural pass's findings joined into one message.
pub fn assemble(source: &str) -> Result<WalkerProgram, AsmError> {
    let mut ctx = Ctx {
        events: BUILTIN_EVENTS.iter().map(|s| (*s).to_owned()).collect(),
        regs: 4,
        ..Ctx::default()
    };

    let mut lines = source.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lno = idx + 1;
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        let (kw, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match kw {
            "walker" => ctx.name = rest.to_owned(),
            "states" => {
                ctx.states = split_csv(rest);
                if ctx.states.first().map(String::as_str) != Some("Default") {
                    return Err(AsmError::at(lno, "state 0 must be named `Default`"));
                }
            }
            "events" => {
                for e in split_csv(rest) {
                    if !ctx.events.contains(&e) {
                        ctx.events.push(e);
                    }
                }
            }
            "regs" => {
                ctx.regs = rest
                    .parse()
                    .map_err(|_| AsmError::at(lno, "regs expects an integer"))?;
            }
            "params" => ctx.params = split_csv(rest),
            "routine" => {
                let name = rest
                    .strip_suffix('{')
                    .map(str::trim)
                    .ok_or_else(|| AsmError::at(lno, "expected `routine <name> {`"))?
                    .to_owned();
                if name.is_empty() {
                    return Err(AsmError::at(lno, "routine needs a name"));
                }
                if ctx.routine_ids.contains_key(&name) {
                    return Err(AsmError::at(lno, format!("duplicate routine `{name}`")));
                }
                let mut actions: Vec<(usize, Action, Option<PendingTarget>)> = Vec::new();
                let mut labels: HashMap<String, u8> = HashMap::new();
                let mut closed = false;
                for (bidx, braw) in lines.by_ref() {
                    let blno = bidx + 1;
                    let bline = strip_comment(braw);
                    if bline.is_empty() {
                        continue;
                    }
                    if bline == "}" {
                        closed = true;
                        break;
                    }
                    if let Some(label) = bline.strip_suffix(':') {
                        let label = label.trim();
                        if labels
                            .insert(label.to_owned(), actions.len() as u8)
                            .is_some()
                        {
                            return Err(AsmError::at(blno, format!("duplicate label `{label}`")));
                        }
                        continue;
                    }
                    let (action, pending) = parse_instruction(&ctx, bline, blno)?;
                    actions.push((blno, action, pending));
                }
                if !closed {
                    return Err(AsmError::at(lno, format!("routine `{name}` missing `}}`")));
                }
                // Resolve labels.
                let mut resolved = Vec::with_capacity(actions.len());
                for (alno, mut action, pending) in actions {
                    if let Some(p) = pending {
                        let t = match p {
                            PendingTarget::Index(i) => i,
                            PendingTarget::Label(l) => *labels.get(&l).ok_or_else(|| {
                                AsmError::at(alno, format!("unknown label `{l}`"))
                            })?,
                        };
                        if let Action::Branch { target, .. } = &mut action {
                            *target = t;
                        }
                    }
                    resolved.push(action);
                }
                ctx.routine_ids
                    .insert(name.clone(), RoutineId(ctx.routines.len() as u16));
                ctx.routines.push(Routine {
                    name,
                    actions: resolved,
                });
            }
            "on" => {
                // on State, Event -> routine
                let (pair, routine) = rest
                    .split_once("->")
                    .ok_or_else(|| AsmError::at(lno, "expected `on State, Event -> routine`"))?;
                let parts = split_csv(pair);
                if parts.len() != 2 {
                    return Err(AsmError::at(lno, "expected `on State, Event -> routine`"));
                }
                ctx.transitions.push((
                    lno,
                    parts[0].clone(),
                    parts[1].clone(),
                    routine.trim().to_owned(),
                ));
            }
            other => {
                return Err(AsmError::at(lno, format!("unknown directive `{other}`")));
            }
        }
    }

    if ctx.states.is_empty() {
        return Err(AsmError::at(0, "no `states` directive"));
    }
    let mut table = RoutineTable::new(ctx.states.len() as u8, ctx.events.len() as u8);
    for (lno, s, e, r) in &ctx.transitions {
        let sid = ctx.state_id(s, *lno)?;
        let eid = ctx.event_id(e, *lno)?;
        let rid = *ctx
            .routine_ids
            .get(r)
            .ok_or_else(|| AsmError::at(*lno, format!("unknown routine `{r}`")))?;
        table.set(sid, eid, rid);
    }

    let program = WalkerProgram {
        name: ctx.name,
        state_names: ctx.states,
        event_names: ctx.events,
        regs: ctx.regs,
        param_names: ctx.params,
        routines: ctx.routines,
        table,
    };
    verify_structure(&program).check(false).map_err(|e| {
        let msgs: Vec<String> = e.diagnostics.iter().map(ToString::to_string).collect();
        AsmError::at(0, msgs.join("; "))
    })?;
    Ok(program)
}

fn parse_target(tok: &str, line: usize) -> Result<PendingTarget, AsmError> {
    let t = tok
        .strip_prefix('@')
        .ok_or_else(|| AsmError::at(line, format!("branch target must start with @: `{tok}`")))?;
    if let Ok(i) = t.parse::<u8>() {
        Ok(PendingTarget::Index(i))
    } else {
        Ok(PendingTarget::Label(t.to_owned()))
    }
}

#[allow(clippy::too_many_lines)]
fn parse_instruction(
    ctx: &Ctx,
    line: &str,
    lno: usize,
) -> Result<(Action, Option<PendingTarget>), AsmError> {
    let (mn, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    let args = split_csv(rest);
    let argc = args.len();
    let wrong =
        |want: usize| AsmError::at(lno, format!("`{mn}` expects {want} operand(s), got {argc}"));

    let alu = |op: AluOp| -> Result<(Action, Option<PendingTarget>), AsmError> {
        if argc != 3 {
            return Err(wrong(3));
        }
        Ok((
            Action::Alu {
                op,
                dst: ctx.reg(&args[0], lno)?,
                a: ctx.operand(&args[1], lno)?,
                b: ctx.operand(&args[2], lno)?,
            },
            None,
        ))
    };
    let branch =
        |cond: Cond, operands: bool| -> Result<(Action, Option<PendingTarget>), AsmError> {
            if operands {
                if argc != 3 {
                    return Err(wrong(3));
                }
                Ok((
                    Action::Branch {
                        cond,
                        a: ctx.operand(&args[0], lno)?,
                        b: ctx.operand(&args[1], lno)?,
                        target: 0,
                    },
                    Some(parse_target(&args[2], lno)?),
                ))
            } else {
                if argc != 1 {
                    return Err(wrong(1));
                }
                Ok((
                    Action::Branch {
                        cond,
                        a: Operand::Imm(0),
                        b: Operand::Imm(0),
                        target: 0,
                    },
                    Some(parse_target(&args[0], lno)?),
                ))
            }
        };

    match mn {
        "add" => alu(AluOp::Add),
        "sub" => alu(AluOp::Sub),
        "and" => alu(AluOp::And),
        "or" => alu(AluOp::Or),
        "xor" => alu(AluOp::Xor),
        "shl" => alu(AluOp::Shl),
        "srl" | "shr" => alu(AluOp::Srl),
        "sra" => alu(AluOp::Sra),
        "mul" => alu(AluOp::Mul),
        "mov" => {
            if argc != 2 {
                return Err(wrong(2));
            }
            Ok((
                Action::Mov {
                    dst: ctx.reg(&args[0], lno)?,
                    a: ctx.operand(&args[1], lno)?,
                },
                None,
            ))
        }
        "allocR" | "allocr" => Ok((Action::AllocR, None)),
        "hash" => {
            if argc != 2 {
                return Err(wrong(2));
            }
            Ok((
                Action::Hash {
                    done: ctx.event_id(&args[0], lno)?,
                    a: ctx.operand(&args[1], lno)?,
                },
                None,
            ))
        }
        "dram_read" => {
            if argc != 2 {
                return Err(wrong(2));
            }
            Ok((
                Action::DramRead {
                    addr: ctx.operand(&args[0], lno)?,
                    len: ctx.operand(&args[1], lno)?,
                },
                None,
            ))
        }
        "dram_write" => {
            if argc != 3 {
                return Err(wrong(3));
            }
            Ok((
                Action::DramWrite {
                    addr: ctx.operand(&args[0], lno)?,
                    sector: ctx.operand(&args[1], lno)?,
                    len: ctx.operand(&args[2], lno)?,
                },
                None,
            ))
        }
        "post" => {
            if argc != 3 {
                return Err(wrong(3));
            }
            let delay: u16 = args[1]
                .parse()
                .map_err(|_| AsmError::at(lno, "post delay must be an integer"))?;
            Ok((
                Action::PostEvent {
                    event: ctx.event_id(&args[0], lno)?,
                    delay,
                    payload: ctx.operand(&args[2], lno)?,
                },
                None,
            ))
        }
        "peek" => {
            if argc != 2 {
                return Err(wrong(2));
            }
            let word: u8 = args[1]
                .parse()
                .map_err(|_| AsmError::at(lno, "peek word must be an integer"))?;
            Ok((
                Action::Peek {
                    dst: ctx.reg(&args[0], lno)?,
                    word,
                },
                None,
            ))
        }
        "respond" => Ok((Action::Respond, None)),
        "allocM" | "allocm" => Ok((Action::AllocM, None)),
        "deallocM" | "deallocm" => Ok((Action::DeallocM, None)),
        "pinm" => Ok((Action::PinM, None)),
        "insertm" => {
            if argc != 2 {
                return Err(wrong(2));
            }
            Ok((
                Action::InsertM {
                    key: ctx.operand(&args[0], lno)?,
                    words: ctx.operand(&args[1], lno)?,
                },
                None,
            ))
        }
        "updatem" => {
            if argc != 2 {
                return Err(wrong(2));
            }
            Ok((
                Action::UpdateM {
                    start: ctx.operand(&args[0], lno)?,
                    end: ctx.operand(&args[1], lno)?,
                },
                None,
            ))
        }
        "beq" => branch(Cond::Eq, true),
        "bne" | "bnz" => branch(Cond::Ne, true),
        "blt" => branch(Cond::Lt, true),
        "bge" => branch(Cond::Ge, true),
        "ble" => branch(Cond::Le, true),
        "bmiss" => branch(Cond::Miss, false),
        "bhit" => branch(Cond::Hit, false),
        "yield" => {
            if argc != 1 {
                return Err(wrong(1));
            }
            Ok((
                Action::Yield {
                    state: ctx.state_id(&args[0], lno)?,
                },
                None,
            ))
        }
        "retire" => Ok((Action::Retire, None)),
        "fault" => Ok((Action::Fault, None)),
        "allocD" | "allocd" => {
            if argc != 2 {
                return Err(wrong(2));
            }
            Ok((
                Action::AllocD {
                    dst: ctx.reg(&args[0], lno)?,
                    count: ctx.operand(&args[1], lno)?,
                },
                None,
            ))
        }
        "deallocD" | "deallocd" => Ok((Action::DeallocD, None)),
        "readd" => {
            if argc != 3 {
                return Err(wrong(3));
            }
            Ok((
                Action::ReadD {
                    dst: ctx.reg(&args[0], lno)?,
                    sector: ctx.operand(&args[1], lno)?,
                    word: ctx.operand(&args[2], lno)?,
                },
                None,
            ))
        }
        "writed" => {
            if argc != 3 {
                return Err(wrong(3));
            }
            Ok((
                Action::WriteD {
                    sector: ctx.operand(&args[0], lno)?,
                    word: ctx.operand(&args[1], lno)?,
                    value: ctx.operand(&args[2], lno)?,
                },
                None,
            ))
        }
        "filld" => {
            if argc != 2 {
                return Err(wrong(2));
            }
            Ok((
                Action::FillD {
                    sector: ctx.operand(&args[0], lno)?,
                    words: ctx.operand(&args[1], lno)?,
                },
                None,
            ))
        }
        other => Err(AsmError::at(lno, format!("unknown mnemonic `{other}`"))),
    }
}

/// Renders a program back to assembly text (the disassembler).
///
/// The output round-trips: `assemble(disassemble(p))` produces an
/// equivalent program (branch targets become absolute indices).
#[must_use]
pub fn disassemble(p: &WalkerProgram) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "walker {}", p.name);
    let _ = writeln!(out, "states {}", p.state_names.join(", "));
    let custom: Vec<&str> = p
        .event_names
        .iter()
        .skip(BUILTIN_EVENTS.len())
        .map(String::as_str)
        .collect();
    if !custom.is_empty() {
        let _ = writeln!(out, "events {}", custom.join(", "));
    }
    let _ = writeln!(out, "regs {}", p.regs);
    if !p.param_names.is_empty() {
        let _ = writeln!(out, "params {}", p.param_names.join(", "));
    }
    // Events, states and parameters by name, so the output reassembles.
    let names = Names {
        events: &p.event_names,
        states: &p.state_names,
        params: &p.param_names,
    };
    for r in &p.routines {
        let _ = writeln!(out, "\nroutine {} {{", r.name);
        for a in &r.actions {
            out.push_str("    ");
            let _ = a.write(&mut out, &names);
            out.push('\n');
        }
        let _ = writeln!(out, "}}");
    }
    let _ = writeln!(out);
    for s in 0..p.table.states() {
        for e in 0..p.table.events() {
            if let Some(rid) = p.table.lookup(StateId(s), EventId(e)) {
                let _ = writeln!(
                    out,
                    "on {}, {} -> {}",
                    p.state_names[s as usize],
                    p.event_names[e as usize],
                    p.routines[rid.0 as usize].name
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIDX_LIKE: &str = r#"
        walker widx
        states Default, Data
        events HashDone
        regs 4
        params table_base, node_bytes

        routine start {
            allocR
            allocM
            hash HashDone, key
            yield Default
        }

        routine probe {
            peek r0, 0
            mul r1, r0, node_bytes
            add r1, r1, table_base
            dram_read r1, node_bytes
            yield Data
        }

        routine check {
            peek r2, 0
            beq r2, key, @found
            peek r1, 1
            dram_read r1, node_bytes
            yield Data
        found:
            allocD r3, 1
            filld r3, 4
            updatem r3, r3
            respond
            retire
        }

        on Default, Miss -> start
        on Default, HashDone -> probe
        on Data, Fill -> check
    "#;

    #[test]
    fn assembles_widx_like_walker() {
        let p = assemble(WIDX_LIKE).unwrap();
        assert_eq!(p.name, "widx");
        assert_eq!(p.routines.len(), 3);
        assert_eq!(p.state_names, vec!["Default", "Data"]);
        // Miss/Fill/Update builtin + HashDone.
        assert_eq!(p.event_names.len(), 4);
        assert_eq!(p.param("node_bytes"), Some(1));
        // Label `found` resolved to index 5 of `check`.
        let check = &p.routines[2];
        match check.actions[1] {
            Action::Branch { target, .. } => assert_eq!(target, 5),
            ref other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn dispatch_table_populated() {
        let p = assemble(WIDX_LIKE).unwrap();
        assert_eq!(
            p.table.lookup(StateId::DEFAULT, EventId::MISS),
            Some(RoutineId(0))
        );
        let hash_done = p.event("HashDone").unwrap();
        assert_eq!(
            p.table.lookup(StateId::DEFAULT, hash_done),
            Some(RoutineId(1))
        );
        let data = p.state("Data").unwrap();
        assert_eq!(p.table.lookup(data, EventId::FILL), Some(RoutineId(2)));
    }

    #[test]
    fn disassemble_round_trips() {
        let p1 = assemble(WIDX_LIKE).unwrap();
        let text = disassemble(&p1);
        let p2 = assemble(&text).unwrap();
        assert_eq!(p1.routines, p2.routines);
        assert_eq!(p1.table, p2.table);
        assert_eq!(p1.param_names, p2.param_names);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble(
            "walker w\nstates Default ; only one\n# comment\nregs 1\n\nroutine r {\n  allocR ; claim\n  retire\n}\non Default, Miss -> r\n",
        )
        .unwrap();
        assert_eq!(p.routines[0].actions.len(), 2);
    }

    #[test]
    fn error_unknown_mnemonic_with_line() {
        let err = assemble(
            "walker w\nstates Default\nroutine r {\n  frobnicate r0\n  retire\n}\non Default, Miss -> r\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("frobnicate"));
    }

    #[test]
    fn error_unknown_label() {
        let err = assemble(
            "walker w\nstates Default\nroutine r {\n  bmiss @nowhere\n  retire\n}\non Default, Miss -> r\n",
        )
        .unwrap_err();
        assert!(err.message.contains("nowhere"));
    }

    #[test]
    fn error_default_not_first() {
        let err = assemble("walker w\nstates A, Default\n").unwrap_err();
        assert!(err.message.contains("Default"));
    }

    #[test]
    fn error_duplicate_routine() {
        let src = "walker w\nstates Default\nroutine r {\n retire\n}\nroutine r {\n retire\n}\non Default, Miss -> r\n";
        let err = assemble(src).unwrap_err();
        assert!(err.message.contains("duplicate routine"));
    }

    #[test]
    fn error_missing_close_brace() {
        let err = assemble("walker w\nstates Default\nroutine r {\n retire\n").unwrap_err();
        assert!(err.message.contains("missing `}`"));
    }

    #[test]
    fn error_validation_surfaces() {
        // Routine falls off the end.
        let err =
            assemble("walker w\nstates Default\nroutine r {\n  allocR\n}\non Default, Miss -> r\n")
                .unwrap_err();
        assert!(err.message.contains("terminator"));
    }

    #[test]
    fn hex_and_decimal_immediates() {
        let p = assemble(
            "walker w\nstates Default\nregs 1\nroutine r {\n  mov r0, 0x40\n  mov r0, 64\n  retire\n}\non Default, Miss -> r\n",
        )
        .unwrap();
        assert_eq!(
            p.routines[0].actions[0],
            Action::Mov {
                dst: Reg(0),
                a: Operand::Imm(0x40)
            }
        );
        assert_eq!(p.routines[0].actions[0], p.routines[0].actions[1]);
    }

    #[test]
    fn operand_kinds_parse() {
        let p = assemble(
            "walker w\nstates Default\nregs 2\nparams base\nroutine r {\n  add r1, key, base\n  mov r0, msg3\n  retire\n}\non Default, Miss -> r\n",
        )
        .unwrap();
        assert_eq!(
            p.routines[0].actions[0],
            Action::Alu {
                op: AluOp::Add,
                dst: Reg(1),
                a: Operand::Key,
                b: Operand::Param(0)
            }
        );
        assert_eq!(
            p.routines[0].actions[1],
            Action::Mov {
                dst: Reg(0),
                a: Operand::MsgWord(3)
            }
        );
    }

    #[test]
    fn numeric_branch_targets() {
        let p = assemble(
            "walker w\nstates Default\nregs 1\nroutine r {\n  bhit @2\n  yield Default\n  retire\n}\non Default, Miss -> r\n",
        )
        .unwrap();
        match p.routines[0].actions[0] {
            Action::Branch { target, .. } => assert_eq!(target, 2),
            ref other => panic!("{other:?}"),
        }
    }
}
