//! The entry type, selection and `main` shared by the two registry
//! binaries: `xpaper` runs [`paper::EXPERIMENTS`](crate::paper::EXPERIMENTS)
//! and `xcheck` runs [`checks::CHECKS`](crate::checks::CHECKS).
//!
//! ```text
//! <bin> <name>...    # the named entries, in argument order
//! <bin> all          # every entry, in registry order
//! ```
//!
//! With no argument, or an unknown name, the binary exits 2 and lists
//! every name. Otherwise it parses every knob once ([`Knobs::from_env`];
//! a malformed value exits 2 before any output) and runs the entries, a
//! blank line between two; an entry that fails prints `error: <name>:
//! <reason>` and exits 1.

use std::process::ExitCode;

use crate::{restart_timing, Knobs};

/// One named entry: a table, figure or ablation of the evaluation, or a
/// check.
pub struct Entry {
    /// The name the binary runs it by, and the stem of its `results/`
    /// files.
    pub name: &'static str,
    pub(crate) run: fn(&Knobs, &str) -> Result<(), String>,
}

impl Entry {
    /// Prints the entry's output and writes its dumps. The meta
    /// envelope's timing fields restart here.
    ///
    /// # Errors
    ///
    /// Why the entry failed: a check that found a fault, or a requested
    /// dump that could not be written, naming its path.
    pub fn run(&self, knobs: &Knobs) -> Result<(), String> {
        restart_timing();
        (self.run)(knobs, self.name)
    }
}

/// Registers each function under its own name, which it is passed as the
/// stem of its dumps.
macro_rules! entries {
    ($($module:ident::$name:ident),* $(,)?) => {
        [$($crate::registry::Entry { name: stringify!($name), run: $module::$name }),*]
    };
}
pub(crate) use entries;

/// A registry and the binary that runs it.
pub struct Registry {
    /// The binary's name, for its usage text.
    pub bin: &'static str,
    /// What the usage text calls the entries (`experiments`, `checks`).
    pub noun: &'static str,
    /// Every entry, in `all` order.
    pub entries: &'static [Entry],
}

impl Registry {
    /// The entries `args` name, in argument order; `all` stands for every
    /// entry in registry order.
    ///
    /// # Errors
    ///
    /// The usage text, listing every name, when `args` is empty or names
    /// an unknown entry.
    pub fn select(&self, args: &[String]) -> Result<Vec<&'static Entry>, String> {
        let mut picked = Vec::new();
        for arg in args {
            match self.entries.iter().find(|e| e.name == arg) {
                Some(e) => picked.push(e),
                None if arg == "all" => picked.extend(self.entries),
                None => return Err(self.usage(&format!("unknown name `{arg}`\n"))),
            }
        }
        if picked.is_empty() {
            return Err(self.usage(""));
        }
        Ok(picked)
    }

    fn usage(&self, problem: &str) -> String {
        let names: String = self
            .entries
            .iter()
            .map(|e| format!("  {}\n", e.name))
            .collect();
        let Registry { bin, noun, .. } = self;
        format!("{problem}usage: {bin} <name>... | {bin} all\n{noun}:\n{names}")
    }

    /// The binary's `main`: selects the entries named on the command
    /// line, parses the knobs and runs each entry (see the module docs).
    #[must_use]
    pub fn main(&self) -> ExitCode {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let entries = match self.select(&args) {
            Ok(entries) => entries,
            Err(usage) => {
                eprint!("{usage}");
                return ExitCode::from(2);
            }
        };
        let knobs = Knobs::from_env();
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                println!();
            }
            if let Err(err) = e.run(&knobs) {
                eprintln!("error: {}: {err}", e.name);
                return ExitCode::FAILURE;
            }
        }
        ExitCode::SUCCESS
    }
}
