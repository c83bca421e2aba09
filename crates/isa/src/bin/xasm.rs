//! `xasm` — the X-Cache walker compiler CLI.
//!
//! The paper open-sources "a compiler to translate walkers to microcode";
//! this is that tool: assemble walker source to a binary microcode image,
//! disassemble it back, check programs, and print the routine table.
//! Every command assembles first, and the assembler runs the verifier's
//! structural pass: a structurally broken file fails to load (exit 1).
//!
//! ```sh
//! xasm check  walker.xw           # assemble, print a summary
//! xasm build  walker.xw out.bin   # assemble to the binary image
//! xasm dump   walker.xw           # routine table + microcode listing
//! xasm disasm walker.xw           # canonical round-trip source
//! ```
//!
//! `check` and `build` additionally accept `--verify` (run the static
//! verifier; its diagnostics go to stderr and a failure exits with code 2)
//! and `--deny-warnings` (with `--verify`, warnings also fail).

use std::process::ExitCode;

use xcache_isa::asm::{assemble, disassemble};
use xcache_isa::verify::verify;
use xcache_isa::{encode, EventId, StateId, WalkerProgram};

/// Exit code for load failures: IO, parse, or the structural pass.
const EXIT_LOAD: u8 = 1;
/// Exit code for static-verifier rejections.
const EXIT_VERIFY: u8 = 2;

#[derive(Default, Clone, Copy)]
struct Flags {
    verify: bool,
    deny_warnings: bool,
}

enum CmdError {
    Load(String),
    Verify(String),
}

fn main() -> ExitCode {
    let mut flags = Flags::default();
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| match a.as_str() {
            "--verify" => {
                flags.verify = true;
                false
            }
            "--deny-warnings" => {
                flags.deny_warnings = true;
                false
            }
            _ => true,
        })
        .collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match (cmd, rest) {
        ("check", [src]) => cmd_check(src, flags),
        ("build", [src, out]) => cmd_build(src, out, flags),
        ("dump", [src]) => cmd_dump(src),
        ("disasm", [src]) => cmd_disasm(src),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CmdError::Load(e)) => {
            eprintln!("xasm: {e}");
            ExitCode::from(EXIT_LOAD)
        }
        Err(CmdError::Verify(e)) => {
            eprintln!("xasm: {e}");
            ExitCode::from(EXIT_VERIFY)
        }
    }
}

const USAGE: &str = "usage:
  xasm check  [--verify] [--deny-warnings] <walker.xw>
                                     assemble and summarise a walker
  xasm build  [--verify] [--deny-warnings] <walker.xw> <out.bin>
                                     assemble to binary microcode
  xasm dump   <walker.xw>            print routine table + microcode
  xasm disasm <walker.xw>            print canonical source

  --verify         run the static verifier (exit code 2 on findings)
  --deny-warnings  treat verifier warnings as errors";

fn load(path: &str) -> Result<WalkerProgram, CmdError> {
    let src = std::fs::read_to_string(path).map_err(|e| CmdError::Load(format!("{path}: {e}")))?;
    assemble(&src).map_err(|e| CmdError::Load(format!("{path}: {e}")))
}

/// Runs the verifier when requested; prints every diagnostic to stderr and
/// converts failing reports into the exit-code-2 error.
fn run_verifier(path: &str, p: &WalkerProgram, flags: Flags) -> Result<(), CmdError> {
    if !flags.verify {
        return Ok(());
    }
    let report = verify(p);
    for d in &report.diagnostics {
        eprintln!("{path}: {d}");
    }
    report.check(flags.deny_warnings).map_err(|e| {
        CmdError::Verify(format!(
            "{path}: verification failed with {} finding(s)",
            e.diagnostics.len()
        ))
    })?;
    if !report.diagnostics.is_empty() {
        eprintln!(
            "{path}: verified with {} warning(s)",
            report.diagnostics.len()
        );
    }
    Ok(())
}

fn cmd_check(src: &str, flags: Flags) -> Result<(), CmdError> {
    let p = load(src)?;
    run_verifier(src, &p, flags)?;
    println!(
        "ok: walker `{}` — {} states, {} events, {} routines, {} microcode words, {} X-regs",
        p.name,
        p.state_names.len(),
        p.event_names.len(),
        p.routines().len(),
        p.microcode_words(),
        p.regs
    );
    Ok(())
}

fn cmd_build(src: &str, out: &str, flags: Flags) -> Result<(), CmdError> {
    let p = load(src)?;
    run_verifier(src, &p, flags)?;
    let mut image: Vec<u8> = Vec::new();
    // Header: routine count, then per-routine word offsets, then words.
    let mut offsets = Vec::new();
    let mut words: Vec<u64> = Vec::new();
    for r in p.routines() {
        offsets.push(words.len() as u64);
        words.extend(encode(&r.actions).map_err(|e| CmdError::Load(e.to_string()))?);
    }
    image.extend_from_slice(&(p.routines().len() as u64).to_le_bytes());
    for o in &offsets {
        image.extend_from_slice(&o.to_le_bytes());
    }
    for w in &words {
        image.extend_from_slice(&w.to_le_bytes());
    }
    std::fs::write(out, &image).map_err(|e| CmdError::Load(format!("{out}: {e}")))?;
    println!(
        "wrote {out}: {} bytes ({} routines, {} microinstructions)",
        image.len(),
        p.routines().len(),
        words.len() / 2
    );
    Ok(())
}

fn cmd_dump(src: &str) -> Result<(), CmdError> {
    let p = load(src)?;
    println!("walker {}", p.name);
    println!(
        "\nroutine table ({} states x {} events):",
        p.table.states(),
        p.table.events()
    );
    print!("{:>12}", "");
    for e in 0..p.table.events() {
        print!(" {:>12}", p.event_names[e as usize]);
    }
    println!();
    for s in 0..p.table.states() {
        print!("{:>12}", p.state_names[s as usize]);
        for e in 0..p.table.events() {
            match p.table.lookup(StateId(s), EventId(e)) {
                Some(rid) => print!(" {:>12}", p.routines()[rid.0 as usize].name),
                None => print!(" {:>12}", "-"),
            }
        }
        println!();
    }
    println!("\nmicrocode:");
    for (i, r) in p.routines().iter().enumerate() {
        println!("  [{i}] {}:", r.name);
        for (pc, a) in r.actions.iter().enumerate() {
            println!("    {pc:>3}: {a}");
        }
    }
    Ok(())
}

fn cmd_disasm(src: &str) -> Result<(), CmdError> {
    let p = load(src)?;
    print!("{}", disassemble(&p));
    Ok(())
}
