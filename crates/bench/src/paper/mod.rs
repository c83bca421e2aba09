//! The paper's evaluation as one registry: Tables 1–4, Figures 4, 7 and
//! 14–20, and four ablations, one [`Experiment`] per EXPERIMENTS.md row.
//!
//! `xpaper <name>...` runs entries by name and `xpaper all` runs every
//! entry in registry order. An entry prints its table(s) to stdout and,
//! with `XCACHE_JSON` set, writes `results/<name>*.json`; its stdout at
//! the default scale is committed as `results/<name>.txt`.

mod ablations;
mod figures;
mod tables;

use xcache_core::XCacheConfig;
use xcache_dsa::widx::WidxWorkload;
use xcache_workloads::QueryClass;

use crate::{render_table, restart_timing, widx_geometry, widx_workload, Knobs, Scenario};

/// One table, figure or ablation of the evaluation.
pub struct Experiment {
    /// The name `xpaper` runs it by, and the stem of its `results/` files.
    pub name: &'static str,
    run: fn(&Knobs, &str) -> Result<(), String>,
}

impl Experiment {
    /// Prints the experiment's table(s) and writes its dumps. The meta
    /// envelope's timing fields restart here.
    ///
    /// # Errors
    ///
    /// A requested dump that could not be written, naming its path.
    pub fn run(&self, knobs: &Knobs) -> Result<(), String> {
        restart_timing();
        (self.run)(knobs, self.name)
    }
}

/// Registers each function under its own name, which it is passed as the
/// stem of its dumps.
macro_rules! registry {
    ($($module:ident::$name:ident),* $(,)?) => {
        [$(Experiment { name: stringify!($name), run: $module::$name }),*]
    };
}

/// Every experiment, in EXPERIMENTS.md order.
pub static EXPERIMENTS: [Experiment; 17] = registry![
    tables::tab01_taxonomy,
    tables::tab02_features,
    tables::tab03_geometry,
    tables::tab04_energy_params,
    figures::fig04_load_to_use,
    figures::fig07_occupancy,
    figures::fig14_speedup,
    figures::fig15_power_total,
    figures::fig16_power_breakdown,
    figures::fig17_residency_sweep,
    figures::fig18_param_sweep,
    tables::fig19_fpga_synthesis,
    tables::fig20_asic_area,
    ablations::abl01_replacement,
    ablations::abl02_hierarchy,
    ablations::abl03_insertm,
    ablations::abl04_prefetch,
];

/// The experiments `args` name, in argument order; `all` stands for
/// every entry in registry order.
///
/// # Errors
///
/// The usage text, listing every name, when `args` is empty or names an
/// unknown experiment.
pub fn select(args: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let mut picked = Vec::new();
    for arg in args {
        match EXPERIMENTS.iter().find(|e| e.name == arg) {
            Some(e) => picked.push(e),
            None if arg == "all" => picked.extend(&EXPERIMENTS),
            None => return Err(usage(&format!("unknown experiment `{arg}`\n"))),
        }
    }
    if picked.is_empty() {
        return Err(usage(""));
    }
    Ok(picked)
}

fn usage(problem: &str) -> String {
    let names: String = EXPERIMENTS
        .iter()
        .map(|e| format!("  {}\n", e.name))
        .collect();
    format!("{problem}usage: xpaper <name>... | xpaper all\nexperiments:\n{names}")
}

/// Prints `rows` under `headers` and dumps them to `results/<name>.json`.
fn emit(k: &Knobs, name: &str, headers: &[&str], rows: &[Vec<String>]) -> Result<(), String> {
    print!("{}", render_table(headers, rows));
    k.dump_table(name, headers, rows)
}

/// One runner cell per TPC-H query class: `row` gets the class's Widx
/// workload and geometry at `scale` and renders the columns after the
/// class name.
fn query_cells(
    scale: u32,
    row: fn(&WidxWorkload, XCacheConfig) -> Vec<String>,
) -> Vec<Scenario<'static, Vec<String>>> {
    QueryClass::all()
        .into_iter()
        .map(|class| {
            Scenario::new(class.name(), move || {
                let w = widx_workload(class, scale, 7);
                [vec![class.name().to_owned()], row(&w, widx_geometry(scale))].concat()
            })
        })
        .collect()
}
