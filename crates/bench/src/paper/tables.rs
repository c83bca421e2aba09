//! The static entries: Tables 1–4 and the synthesis models of Figures
//! 19 and 20. None simulates, so each builds its rows directly.

use xcache_core::{XCacheConfig, TAXONOMY};
use xcache_dsa::{Coupling, FEATURES};
use xcache_energy::area::{asic_area, fpga_utilization, reference_config};
use xcache_energy::EnergyParams;

use super::emit;
use crate::{pct, Knobs};

/// Table 1: X-Cache vs. state-of-the-art storage idioms.
pub(super) fn tab01_taxonomy(k: &Knobs, name: &str) -> Result<(), String> {
    const HEADERS: [&str; 6] = [
        "Property",
        "Caches",
        "Scratch+DMA",
        "Scratch+AE",
        "FIFOs",
        "X-Cache",
    ];
    println!("Table 1: X-Cache vs. state-of-the-art storage idioms\n");
    let rows: Vec<Vec<String>> = TAXONOMY
        .iter()
        .map(|r| {
            [
                r.property,
                r.caches,
                r.scratch_dma,
                r.scratch_ae,
                r.fifos,
                r.xcache,
            ]
            .map(str::to_owned)
            .to_vec()
        })
        .collect();
    emit(k, name, &HEADERS, &rows)
}

/// Table 2: X-Cache features benefiting DSAs.
pub(super) fn tab02_features(k: &Knobs, name: &str) -> Result<(), String> {
    const HEADERS: [&str; 6] = ["DSA", "Tag", "Preload", "Coupling", "Data", "DS"];
    println!("Table 2: X-Cache features benefiting DSAs\n");
    let rows: Vec<Vec<String>> = FEATURES
        .iter()
        .map(|f| {
            [
                f.dsa,
                f.tag,
                if f.preload { "Yes" } else { "No" },
                match f.coupling {
                    Coupling::Coupled => "Coupled",
                    Coupling::Decoupled => "Decoupl.",
                },
                f.data,
                f.data_structure,
            ]
            .map(str::to_owned)
            .to_vec()
        })
        .collect();
    emit(k, name, &HEADERS, &rows)
}

/// Table 3: X-Cache design parameters per DSA.
pub(super) fn tab03_geometry(k: &Knobs, name: &str) -> Result<(), String> {
    const HEADERS: [&str; 6] = ["DSA", "#Active", "#Exe", "#Way", "#Set", "#Word"];
    println!("Table 3: X-Cache design parameters per DSA\n");
    let rows: Vec<Vec<String>> = [
        ("Widx", XCacheConfig::widx()),
        ("DASX(Hash)", XCacheConfig::dasx()),
        ("SpArch", XCacheConfig::sparch()),
        ("Gamma", XCacheConfig::gamma()),
        ("GraphPulse", XCacheConfig::graphpulse()),
    ]
    .into_iter()
    .map(|(name, c)| {
        vec![
            name.to_owned(),
            c.active.to_string(),
            c.exe.to_string(),
            c.ways.to_string(),
            c.sets.to_string(),
            c.words_per_sector.to_string(),
        ]
    })
    .collect();
    emit(k, name, &HEADERS, &rows)
}

/// Table 4: energy parameters (timing: 1 GHz).
pub(super) fn tab04_energy_params(k: &Knobs, name: &str) -> Result<(), String> {
    const HEADERS: [&str; 2] = ["Component", "Energy [pJ]"];
    println!("Table 4: Power usage per bit [pJ] (timing: 1 GHz)\n");
    let p = EnergyParams::paper_table4();
    let rows: Vec<Vec<String>> = [
        ("Register", format!("{:.1e}", p.register_pj_per_bit)),
        ("Add", format!("{:.1e}", p.add_pj_per_bit)),
        ("Mul", format!("{}", p.mul_pj_per_bit)),
        ("Bitwise Op", format!("{:.1e}", p.bitwise_pj_per_bit)),
        ("Shift", format!("{:.1e}", p.shift_pj_per_bit)),
        ("Tag", format!("{} / Byte", p.tag_pj_per_byte)),
        ("L1 Cache", format!("{} / 32 Bytes", p.l1_pj_per_32b)),
    ]
    .into_iter()
    .map(|(name, value)| vec![name.to_owned(), value])
    .collect();
    emit(k, name, &HEADERS, &rows)
}

/// Figure 19: FPGA synthesis (register and logic utilisation breakdown),
/// at the paper's synthesis point #Exe=4, #Active=8 on a Cyclone IV.
pub(super) fn fig19_fpga_synthesis(k: &Knobs, name: &str) -> Result<(), String> {
    const HEADERS: [&str; 5] = ["Component", "Regs", "Reg %", "Logic", "Logic %"];
    println!("Figure 19: FPGA synthesis breakdown (#Exe=4, #Active=8)\n");
    let r = fpga_utilization(&reference_config());
    let rows: Vec<Vec<String>> = r
        .components
        .iter()
        .map(|c| {
            vec![
                c.name.to_owned(),
                format!("{:.0}", c.regs),
                pct(c.regs / r.total_regs),
                format!("{:.0}", c.logic),
                pct(c.logic / r.total_logic),
            ]
        })
        .collect();
    emit(k, name, &HEADERS, &rows)?;
    println!();
    println!("Total registers        : {:.0}", r.total_regs);
    println!("Total logic elements   : {:.0}", r.total_logic);
    println!(
        "Cyclone IV EP4CGX150 utilisation: {}",
        pct(r.device_logic_fraction)
    );
    Ok(())
}

/// Figure 20: ASIC layout (45 nm, OpenROAD flow in the paper; calibrated
/// analytical model here) at #Exe=4, #Active=8.
pub(super) fn fig20_asic_area(k: &Knobs, name: &str) -> Result<(), String> {
    const HEADERS: [&str; 4] = ["DSA", "data KiB", "RAM mm^2", "controller mm^2"];
    println!("Figure 20: ASIC layout, 45 nm (#Exe=4, #Active=8)\n");
    let a = asic_area(&reference_config());
    println!("Controller area (no RAMs): {:.3} mm^2", a.controller_mm2);
    println!("Controller cells         : {:.0}", a.controller_cells);
    println!("RAM area (data + tags)   : {:.3} mm^2", a.ram_mm2);
    println!();
    println!("Per-DSA geometry RAM areas:");
    let rows: Vec<Vec<String>> = [
        ("Widx", XCacheConfig::widx()),
        ("DASX", XCacheConfig::dasx()),
        ("SpArch", XCacheConfig::sparch()),
        ("Gamma", XCacheConfig::gamma()),
        ("GraphPulse", XCacheConfig::graphpulse()),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        let r = asic_area(&cfg);
        vec![
            name.to_owned(),
            (cfg.data_capacity_bytes() / 1024).to_string(),
            format!("{:.3}", r.ram_mm2),
            format!("{:.3}", r.controller_mm2),
        ]
    })
    .collect();
    for row in &rows {
        println!(
            "  {:<11} data {:>7} KiB -> RAM {} mm^2, controller {} mm^2",
            row[0], row[1], row[2], row[3]
        );
    }
    k.dump_table(name, &HEADERS, &rows)
}
