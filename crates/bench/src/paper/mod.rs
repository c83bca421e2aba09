//! The paper's evaluation as one registry: Tables 1–4, Figures 4, 7 and
//! 14–20, and four ablations, one [`Entry`] per EXPERIMENTS.md row.
//!
//! `xpaper <name>...` runs entries by name and `xpaper all` runs every
//! entry in registry order. An entry returns its title, table(s) and
//! notes as a [`Report`](crate::registry::Report), which
//! [`Entry::run`] prints and, with `XCACHE_JSON` set, dumps to
//! `results/<name>*.json`; the printed report at the default scale is
//! committed as `results/<name>.txt`. Figures 14, 15 and 16 are three
//! views of one sweep, [`Knobs::dsa_sweep`](crate::Knobs::dsa_sweep):
//! the first of them to run fills it and the others read it.

mod ablations;
mod figures;
mod tables;

use xcache_core::XCacheConfig;
use xcache_dsa::widx::WidxWorkload;
use xcache_workloads::QueryClass;

use crate::registry::{entries, Entry, Registry};
use crate::{widx_geometry, widx_workload, Scenario};

/// Every experiment, in EXPERIMENTS.md order.
pub static EXPERIMENTS: [Entry; 17] = entries![
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

/// The registry `xpaper` runs.
pub static XPAPER: Registry = Registry {
    bin: "xpaper",
    noun: "experiments",
    entries: &EXPERIMENTS,
};

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
