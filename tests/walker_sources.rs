//! The shipped walker sources under `walkers/` are the microcode the DSA
//! models and `examples/custom_walker.rs` load (the paper open-sources its
//! five cache designs). `dasx.xw` documents that DASX runs Widx's program.

use xcache_isa::asm::assemble;
use xcache_isa::verify::verify_structure;

fn load(name: &str) -> xcache_isa::WalkerProgram {
    let path = format!("{}/walkers/{name}.xw", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assemble(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn dasx_source_shares_widx_structure() {
    // DASX reuses the Widx microcode (same physical controller, §5); the
    // shipped file documents that by carrying identical routines.
    let dasx = load("dasx");
    let widx = load("widx");
    assert_eq!(dasx.routines, widx.routines);
    assert_eq!(dasx.table, widx.table);
}

#[test]
fn all_shipped_walkers_encode_to_binary() {
    for name in [
        "widx",
        "dasx",
        "graphpulse",
        "graphpulse_min",
        "spgemm_row",
        "open_addressing",
    ] {
        let p = load(name);
        assert!(verify_structure(&p).check(false).is_ok(), "{name} invalid");
        for r in p.routines() {
            let words =
                xcache_isa::encode(&r.actions).unwrap_or_else(|e| panic!("{name}/{}: {e}", r.name));
            assert_eq!(
                xcache_isa::decode(&words).expect("decodes"),
                r.actions,
                "{name}/{} round trip",
                r.name
            );
        }
    }
}
