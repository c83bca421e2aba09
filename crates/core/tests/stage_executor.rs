//! Executor-stage behaviour through the public API: ALU chains, data-RAM
//! writes, discipline-independence of computed results, and the
//! one-action-per-lane-per-cycle timing of the back-end (§4.3).

use xcache_core::{MetaAccess, MetaKey, WalkerDiscipline, XCache, XCacheConfig};
use xcache_isa::asm::assemble;
use xcache_mem::{DramConfig, DramModel};
use xcache_sim::Cycle;

/// A walker exercising ALU ops, branches, and data-RAM actions with a
/// result the test can check end to end: responds with
/// `((key * 3) + p0) ^ 5` written through the data RAM. `pad` extra
/// `add r0, r0, 0` actions follow the `xor`: straight-line, register-only
/// and result-preserving, so they cost exactly their issue cycles.
fn alu_walker(pad: usize) -> xcache_isa::WalkerProgram {
    let padding = "            add r0, r0, 0\n".repeat(pad);
    assemble(&format!(
        r#"
        walker alu
        states Default
        regs 2
        params bias
        routine start {{
            allocR
            allocM
            mul r0, key, 3
            add r0, r0, bias
            xor r0, r0, 5
{padding}            allocD r1, 1
            writed r1, 0, r0
            updatem r1, r1
            respond
            retire
        }}
        on Default, Miss -> start
    "#
    ))
    .expect("valid")
}

/// One load through a fresh controller running `alu_walker(pad)`, ticked
/// every cycle: the response word, the cycle it was taken, and the
/// controller's `xcache.ucode_read` count at that point.
fn run_one(discipline: WalkerDiscipline, key: u64, bias: u64, pad: usize) -> (u64, Cycle, u64) {
    let dram = DramModel::new(DramConfig::test_tiny());
    let cfg = XCacheConfig {
        discipline,
        ..XCacheConfig::test_tiny()
    }
    .with_params(vec![bias]);
    let mut xc = XCache::new(cfg, alu_walker(pad), dram).expect("builds");
    xc.try_access(
        Cycle(0),
        MetaAccess::Load {
            id: 1,
            key: MetaKey::new(key),
        },
    )
    .expect("queue empty");
    let mut now = Cycle(0);
    loop {
        xc.tick(now);
        if let Some(r) = xc.take_response(now) {
            assert!(r.found);
            return (r.data[0], now, xc.stats().get("xcache.ucode_read"));
        }
        now = now.next();
        assert!(now.raw() < 100_000, "executor deadlocked");
    }
}

#[test]
fn alu_chain_computes_through_data_ram() {
    for key in [0u64, 1, 7, 13] {
        let want = ((key * 3) + 100) ^ 5;
        assert_eq!(run_one(WalkerDiscipline::Coroutine, key, 100, 0).0, want);
    }
}

#[test]
fn both_disciplines_compute_identical_results() {
    for key in [2u64, 9] {
        assert_eq!(
            run_one(WalkerDiscipline::Coroutine, key, 40, 0).0,
            run_one(WalkerDiscipline::BlockingThread, key, 40, 0).0,
        );
    }
}

#[test]
fn each_action_takes_exactly_one_cycle() {
    for discipline in [
        WalkerDiscipline::Coroutine,
        WalkerDiscipline::BlockingThread,
    ] {
        let (data, at, reads) = run_one(discipline, 7, 100, 0);
        for k in [1usize, 2, 5, 12] {
            let (padded_data, padded_at, padded_reads) = run_one(discipline, 7, 100, k);
            assert_eq!(
                padded_data, data,
                "{discipline:?}: padding changed the result"
            );
            assert_eq!(
                padded_at.since(at),
                k as u64,
                "{discipline:?}: {k} extra actions must delay the response {k} cycles"
            );
            assert_eq!(
                padded_reads - reads,
                k as u64,
                "{discipline:?}: {k} extra actions must cost {k} microcode reads"
            );
        }
    }
}
