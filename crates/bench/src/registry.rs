//! The entry type, its report and renderer, selection and `main` shared
//! by the two registry binaries: `xpaper` runs
//! [`paper::EXPERIMENTS`](crate::paper::EXPERIMENTS) and `xcheck` runs
//! [`checks::CHECKS`](crate::checks::CHECKS).
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
//!
//! An entry computes a [`Report`] and writes nothing to stdout or
//! `results/` itself (a check's `FAIL` lines on stderr and its failure
//! artifact aside). [`Entry::run`] is the one renderer: it prints the
//! report and, when `XCACHE_JSON` is on, writes its `results/<name>*.json`
//! dumps under one meta envelope, which times the entry alone.

use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use xcache_sim::json::{json_str, Value};

use crate::{
    counters_value, json_object, merge_snapshots, render_table, run_report_value, sim_cycles,
    string_array, write_file, DsaRun, Knobs,
};

/// One named entry: a table, figure or ablation of the evaluation, or a
/// check.
pub struct Entry {
    /// The name the binary runs it by, and the stem of its `results/`
    /// files.
    pub name: &'static str,
    pub(crate) run: fn(&Knobs) -> Result<Report, String>,
}

/// What an entry found: the text it prints, and the data it dumps to
/// `results/<name><stem>.json`, `<name>` being the entry's.
#[derive(Debug, Default)]
pub struct Report {
    /// Everything the entry prints, its tables rendered in place.
    pub text: String,
    /// Figure 14's clusters, dumped under `"runs"` (each report with its
    /// full counter map) beside an `"aggregate"` of the X-Cache counters.
    pub runs: Option<Vec<DsaRun>>,
    /// The tables, each dumped under `"table"`.
    pub tables: Vec<Table>,
    /// JSON arrays, each dumped to `results/<name>.json` under its key,
    /// one element per line.
    pub json: Vec<(&'static str, Vec<Value>)>,
}

/// A table of a [`Report`]: `rows` under `headers`.
#[derive(Debug)]
pub struct Table {
    /// The dump's suffix to the entry name (`""` for most).
    pub stem: String,
    /// The column headers.
    pub headers: &'static [&'static str],
    /// The rows, one cell per header.
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// A report whose text opens with the line `title` and a blank line.
    pub(crate) fn titled(title: impl Display) -> Report {
        Report::default().text(&format!("{title}\n\n"))
    }

    /// A report whose text is `lines`, each ended by a newline.
    pub(crate) fn lines(lines: &[String]) -> Report {
        Report::default().text(&(lines.join("\n") + "\n"))
    }

    /// Appends `text`.
    pub(crate) fn text(mut self, text: &str) -> Report {
        self.text.push_str(text);
        self
    }

    /// Appends `rows` under `headers`, printed as an aligned table and
    /// dumped with suffix `stem`.
    pub(crate) fn table(
        mut self,
        stem: &str,
        headers: &'static [&'static str],
        rows: Vec<Vec<String>>,
    ) -> Report {
        self.text.push_str(&render_table(headers, &rows));
        let stem = stem.to_owned();
        self.tables.push(Table {
            stem,
            headers,
            rows,
        });
        self
    }
}

impl Entry {
    /// Runs the entry, then prints its report and writes its dumps under
    /// the one meta envelope of this run: the wall time and the simulated
    /// cycles ([`note_sim_cycles`](crate::note_sim_cycles)) the entry
    /// spent itself.
    ///
    /// # Errors
    ///
    /// Why the entry failed: a check that found a fault, or a requested
    /// dump that could not be written, naming its path.
    pub fn run(&self, knobs: &Knobs) -> Result<(), String> {
        let (started, cycles) = (Instant::now(), sim_cycles());
        let report = (self.run)(knobs)?;
        let (wall, cycles) = (started.elapsed(), sim_cycles() - cycles);
        print!("{}", report.text);
        if !knobs.json {
            return Ok(());
        }
        let meta = knobs.meta_json(self.name, wall, cycles);
        let dump = |stem: &str, key: &str, body: &str| {
            let path = Path::new("results").join(format!("{}{stem}.json", self.name));
            let key = json_str(key);
            write_file(
                &path,
                &format!("{{\n\"meta\": {meta},\n{key}: {body}\n}}\n"),
            )
        };
        if let Some(runs) = &report.runs {
            dump("", "runs", &runs_json(runs))?;
        }
        for t in &report.tables {
            dump(&t.stem, "table", &table_json(t))?;
        }
        for (key, items) in &report.json {
            dump("", key, &one_per_line(items))?;
        }
        Ok(())
    }
}

/// `items` as a JSON array with one element per line, indented: the
/// dumps' layout, which keeps a diff of two dumps row by row.
fn one_per_line(items: &[Value]) -> String {
    let rows: Vec<String> = items.iter().map(|v| format!("  {}", v.render())).collect();
    let end = if rows.is_empty() { "" } else { "\n" };
    format!("[\n{}{end}]", rows.join(",\n"))
}

/// A table as `{"headers": [...], "rows": [...]}`, one row per line: the
/// machine-readable twin of what was printed.
fn table_json(t: &Table) -> String {
    let rows: Vec<Value> = t.rows.iter().map(|row| string_array(row)).collect();
    format!(
        "{{\"headers\": {}, \"rows\": {}}}",
        string_array(t.headers).render(),
        one_per_line(&rows)
    )
}

/// The runs' dump: their array, then the `aggregate` key, so the body
/// slots into the envelope as `"runs": [...], "aggregate": {...}`.
fn runs_json(runs: &[DsaRun]) -> String {
    let rows: Vec<Value> = runs
        .iter()
        .map(|r| {
            json_object([
                ("name", Value::Str(r.name.clone())),
                ("xcache", run_report_value(&r.xcache)),
                ("addr", run_report_value(&r.addr)),
                ("baseline", run_report_value(&r.baseline)),
            ])
        })
        .collect();
    let aggregate = counters_value(&merge_snapshots(runs.iter().map(|r| &r.xcache.stats)));
    format!(
        "{},\n\"aggregate\": {{\"xcache_counters\": {}}}",
        one_per_line(&rows),
        aggregate.render()
    )
}

/// Registers each function under its own name.
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
