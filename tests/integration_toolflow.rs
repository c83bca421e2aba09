//! Cross-crate integration: the full toolflow from walker source text to
//! a running cache instance to an energy report — the paper's Figure 12
//! pipeline, end to end.

use xcache_core::{MetaAccess, MetaKey, XCache, XCacheConfig};
use xcache_energy::EnergyModel;
use xcache_isa::asm::{assemble, disassemble};
use xcache_isa::verify::verify_structure;
use xcache_mem::{DramConfig, DramModel};
use xcache_sim::Cycle;

const WALKER_SRC: &str = r#"
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
"#;

fn run_keys(keys: &[u64]) -> (XCache<DramModel>, u64) {
    let program = assemble(WALKER_SRC).expect("assembles");
    let mut dram = DramModel::new(DramConfig::default());
    for k in 0..64u64 {
        dram.memory_mut().write_u64(0x1000 + k * 32, 500 + k);
    }
    let cfg = XCacheConfig::test_tiny().with_params(vec![0x1000]);
    let mut xc = XCache::new(cfg, program, dram).expect("builds");
    let mut now = Cycle(0);
    for (id, &k) in keys.iter().enumerate() {
        xc.try_access(
            now,
            MetaAccess::Load {
                id: id as u64,
                key: MetaKey::new(k),
            },
        )
        .expect("queued");
        loop {
            xc.tick(now);
            if let Some(r) = xc.take_response(now) {
                assert!(r.found);
                assert_eq!(r.data[0], 500 + k);
                break;
            }
            now = now.next();
        }
    }
    let cycles = now.raw();
    (xc, cycles)
}

#[test]
fn source_to_silicon_pipeline() {
    // Assemble → validate → disassemble → reassemble → binary encode →
    // decode: every stage of the toolflow agrees with itself.
    let p1 = assemble(WALKER_SRC).expect("assembles");
    assert!(verify_structure(&p1).check(false).is_ok());
    let p2 = assemble(&disassemble(&p1)).expect("round trip");
    assert_eq!(p1.routines, p2.routines);
    for r in &p1.routines {
        let words = xcache_isa::encode(&r.actions).expect("encodes");
        assert_eq!(xcache_isa::decode(&words).expect("decodes"), r.actions);
    }
}

#[test]
fn run_then_energy_report() {
    let keys: Vec<u64> = (0..32).map(|i| i % 8).collect();
    let (xc, cycles) = run_keys(&keys);
    assert!(cycles > 0);
    let model = EnergyModel::new();
    let breakdown = model.xcache_energy(&xc.stats().snapshot(), xc.config());
    assert!(breakdown.total_pj() > 0.0);
    // Repeated keys mean hits dominate: data + tags should outweigh the
    // controller for this access mix.
    assert!(breakdown.data_ram_pj + breakdown.meta_tag_pj > breakdown.controller_pj());
    // Every component named by Figure 16 is populated.
    assert!(breakdown.routine_ram_pj > 0.0);
    assert!(breakdown.xreg_pj > 0.0);
    assert!(breakdown.agen_pj > 0.0);
}

#[test]
fn determinism_across_runs() {
    let keys: Vec<u64> = (0..64).map(|i| (i * 13) % 16).collect();
    let (xc1, c1) = run_keys(&keys);
    let (xc2, c2) = run_keys(&keys);
    assert_eq!(c1, c2, "cycle counts must be reproducible");
    assert_eq!(
        xc1.stats().snapshot(),
        xc2.stats().snapshot(),
        "statistics must be reproducible"
    );
}

#[test]
fn area_report_consistent_with_geometry() {
    let cfg = XCacheConfig::test_tiny();
    let fpga = xcache_energy::fpga_utilization(&cfg);
    let asic = xcache_energy::asic_area(&cfg);
    assert!(fpga.total_regs > 0.0);
    assert!(asic.controller_mm2 > 0.0);
    // Bigger geometry, bigger area.
    let big = XCacheConfig {
        active: cfg.active * 4,
        exe: cfg.exe * 4,
        ..cfg
    };
    assert!(xcache_energy::fpga_utilization(&big).total_logic > fpga.total_logic);
}
