//! Authoring a brand-new DSA cache with the X-Cache toolflow.
//!
//! The paper's headline is reusability: a designer gets a domain-specific
//! cache by writing a table-driven walker, not RTL. This example builds a
//! cache for a data structure *not* in the paper — an **open-addressing
//! (linear-probing) hash table** — entirely from the public API:
//!
//! * slots of 32 bytes `[key, value, pad, pad]` at `base + slot * 32`;
//! * probe sequence `h(key), h(key)+1, …` (wrapping), empty slot = key 0.
//!
//! The walker (`walkers/open_addressing.xw`) hashes once, then chases
//! consecutive slots; every slot load is one DRAM access and a
//! data-dependent branch — exactly the dynamic pattern §2 says
//! scratchpads cannot express.
//!
//! ```sh
//! cargo run --release --example custom_walker
//! ```

use xcache_core::{splitmix64, MetaAccess, MetaKey, XCache, XCacheConfig};
use xcache_isa::asm::assemble;
use xcache_mem::{DramConfig, DramModel};
use xcache_sim::Cycle;

const SLOTS: u64 = 1024; // power of two
const SLOT_BYTES: u64 = 32;
const BASE: u64 = 0x20_0000;

fn main() {
    let program =
        assemble(include_str!("../walkers/open_addressing.xw")).expect("custom walker assembles");
    println!(
        "new DSA cache compiled: {} states x {} events, {} microcode words\n",
        program.state_names.len(),
        program.event_names.len(),
        program.microcode_words()
    );

    // Build the table in simulated DRAM with the same probing discipline.
    let mut dram = DramModel::new(DramConfig::default());
    let mask = SLOTS - 1;
    let mut stored = Vec::new();
    for n in 1..=400u64 {
        let key = n * 7919; // nonzero keys
        let mut slot = splitmix64(key) & mask;
        loop {
            let addr = BASE + slot * SLOT_BYTES;
            if dram.memory().read_u64(addr) == 0 {
                dram.memory_mut().write_u64(addr, key);
                dram.memory_mut().write_u64(addr + 8, 100_000 + n);
                break;
            }
            slot = (slot + 1) & mask;
        }
        stored.push((key, 100_000 + n));
    }

    let cfg = XCacheConfig {
        sets: 64,
        ways: 4,
        data_sectors: 256,
        hash_latency: 8,
        ..XCacheConfig::default()
    }
    .with_params(vec![BASE, mask]);
    let mut xc = XCache::new(cfg, program, dram).expect("valid instance");

    // Probe every stored key twice, plus some absent keys.
    let mut now = Cycle(0);
    let mut lookups = 0u64;
    let mut found = 0u64;
    let mut run = |xc: &mut XCache<DramModel>, key: u64, expect: Option<u64>| {
        let id = lookups;
        lookups += 1;
        xc.try_access(
            now,
            MetaAccess::Load {
                id,
                key: MetaKey::new(key),
            },
        )
        .expect("queue has room");
        let resp = loop {
            xc.tick(now);
            if let Some(r) = xc.take_response(now) {
                break r;
            }
            now = now.next();
        };
        match expect {
            Some(v) => {
                assert!(resp.found, "key {key} must be found");
                assert_eq!(resp.data[1], v, "wrong value for key {key}");
                found += 1;
            }
            None => assert!(!resp.found, "absent key {key} must not be found"),
        }
    };
    for &(key, value) in &stored {
        run(&mut xc, key, Some(value));
    }
    for &(key, value) in stored.iter().rev() {
        run(&mut xc, key, Some(value)); // second pass: meta-tag hits
    }
    for n in 1..=50u64 {
        run(&mut xc, n * 7919 + 3, None);
    }

    println!("lookups: {lookups} ({found} found, all values verified)");
    println!(
        "meta-tag hits: {} | walker launches: {} | DRAM transactions: {}",
        xc.stats().get("xcache.hit"),
        xc.stats().get("xcache.walker_launch"),
        xc.stats().get("xcache.dram_req"),
    );
    println!("\nA new domain-specific cache, no RTL written — that is the X-Cache idiom.");
}
