//! Golden-snapshot tests of the binary encoding.
//!
//! Each shipped walker assembles to a microcode image that must stay
//! byte-identical to its snapshot under `tests/snapshots/golden_walkers/`
//! — any encoding drift (field widths, opcode numbering, image layout)
//! fails here before it can silently invalidate the energy/area model's
//! RAM sizing. Re-record the snapshots after an *intentional* format
//! change with:
//!
//! ```sh
//! XCACHE_BLESS=1 cargo test -p xcache-isa --test golden_walkers
//! ```
//!
//! The roundtrip property closes the other direction: whatever the
//! generator can emit, `decode(encode(x)) == x`.

#[path = "../../../tests/support/snapshot.rs"]
mod snapshot;

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use xcache_isa::asm::assemble;
use xcache_isa::{decode, encode, gen, WalkerProgram};

fn walkers_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../walkers")
}

/// The same image layout `xasm build` writes: routine count, per-routine
/// word offsets, then the encoded words, all little-endian u64.
fn image(p: &WalkerProgram) -> Vec<u8> {
    let mut offsets = Vec::new();
    let mut words: Vec<u64> = Vec::new();
    for r in p.routines() {
        offsets.push(words.len() as u64);
        words.extend(encode(&r.actions).expect("encodes"));
    }
    let mut image = Vec::new();
    image.extend_from_slice(&(p.routines().len() as u64).to_le_bytes());
    for o in &offsets {
        image.extend_from_slice(&o.to_le_bytes());
    }
    for w in &words {
        image.extend_from_slice(&w.to_le_bytes());
    }
    image
}

/// Hex with 32 bytes per line — fixture diffs localize to the routine
/// that changed instead of rewriting one giant line.
fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::new();
    for chunk in bytes.chunks(32) {
        for b in chunk {
            s.push_str(&format!("{b:02x}"));
        }
        s.push('\n');
    }
    s
}

#[test]
fn shipped_walker_images_match_fixtures() {
    let mut sources: Vec<_> = std::fs::read_dir(walkers_dir())
        .expect("walkers/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "xw"))
        .collect();
    sources.sort();
    assert_eq!(sources.len(), 6, "expected the six shipped walkers");
    for src_path in sources {
        let stem = src_path
            .file_stem()
            .expect("has stem")
            .to_str()
            .expect("utf8")
            .to_string();
        let src = std::fs::read_to_string(&src_path).expect("readable");
        let program = assemble(&src).unwrap_or_else(|e| panic!("{stem}: {e}"));
        snapshot::check(&stem, &to_hex(&image(&program)));
    }
}

/// Every snapshot names a shipped walker. With the test above, which
/// reads one snapshot per walker, the two sets correspond one-to-one.
#[test]
fn fixture_set_has_no_strays() {
    for e in std::fs::read_dir(snapshot::dir()).expect("snapshot dir committed") {
        let path = e.expect("dir entry").path();
        let stem = path.file_stem().expect("stem").to_str().expect("utf8");
        assert!(
            walkers_dir().join(format!("{stem}.xw")).is_file(),
            "{}: no shipped walker `{stem}.xw` matches this snapshot",
            path.display()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every program the fuzz generator can emit survives an
    /// encode→decode roundtrip action-for-action.
    #[test]
    fn generated_programs_roundtrip_through_encoding(seed in any::<u64>()) {
        let program = gen::generate(seed);
        for r in program.routines() {
            let words = encode(&r.actions).expect("encodes");
            let back = decode(&words).expect("decodes");
            prop_assert_eq!(&back, &r.actions);
        }
    }
}
