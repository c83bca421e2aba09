//! Property-based tests (proptest) over the core data structures and the
//! toolchain invariants.

use proptest::prelude::*;

use xcache_core::{DataRam, MetaKey, MetaTagArray, XRegPool};
use xcache_isa::{decode, encode, Action, AluOp, Cond, EventId, Operand, Reg, StateId};
use xcache_mem::MainMemory;
use xcache_sim::{Cycle, Histogram, MsgQueue, Stats};
use xcache_workloads::{CsrMatrix, HashIndex, SparsePattern};

// ---------------------------------------------------------------------
// ISA encoding
// ---------------------------------------------------------------------

fn arb_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        (0u8..16).prop_map(|r| Operand::Reg(Reg(r))),
        (0u64..(1 << 24)).prop_map(Operand::Imm),
        Just(Operand::Key),
        (0u8..4).prop_map(Operand::MsgWord),
        (0u8..8).prop_map(Operand::Param),
        Just(Operand::MetaSector),
    ]
}

fn arb_action() -> impl Strategy<Value = Action> {
    let alu = prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Mul),
    ];
    let cond = prop_oneof![
        Just(Cond::Eq),
        Just(Cond::Ne),
        Just(Cond::Lt),
        Just(Cond::Ge),
        Just(Cond::Le),
        Just(Cond::Miss),
        Just(Cond::Hit),
    ];
    prop_oneof![
        (alu, 0u8..16, arb_operand(), arb_operand()).prop_map(|(op, d, a, b)| Action::Alu {
            op,
            dst: Reg(d),
            a,
            b
        }),
        (0u8..16, arb_operand()).prop_map(|(d, a)| Action::Mov { dst: Reg(d), a }),
        Just(Action::AllocR),
        (0u8..16, arb_operand()).prop_map(|(e, a)| Action::Hash {
            done: EventId(e),
            a
        }),
        (arb_operand(), arb_operand()).prop_map(|(addr, len)| Action::DramRead { addr, len }),
        (arb_operand(), arb_operand(), arb_operand())
            .prop_map(|(addr, sector, len)| Action::DramWrite { addr, sector, len }),
        (0u8..16, 0u16..1000, arb_operand()).prop_map(|(e, d, p)| Action::PostEvent {
            event: EventId(e),
            delay: d,
            payload: p
        }),
        (0u8..16, 0u8..4).prop_map(|(d, w)| Action::Peek {
            dst: Reg(d),
            word: w
        }),
        Just(Action::Respond),
        Just(Action::AllocM),
        Just(Action::DeallocM),
        Just(Action::PinM),
        (arb_operand(), arb_operand()).prop_map(|(k, w)| Action::InsertM { key: k, words: w }),
        (arb_operand(), arb_operand()).prop_map(|(s, e)| Action::UpdateM { start: s, end: e }),
        (cond, arb_operand(), arb_operand(), 0u8..64).prop_map(|(c, a, b, t)| Action::Branch {
            cond: c,
            a,
            b,
            target: t
        }),
        (0u8..16).prop_map(|s| Action::Yield { state: StateId(s) }),
        Just(Action::Retire),
        Just(Action::Fault),
        (0u8..16, arb_operand()).prop_map(|(d, c)| Action::AllocD {
            dst: Reg(d),
            count: c
        }),
        Just(Action::DeallocD),
        (0u8..16, arb_operand(), arb_operand()).prop_map(|(d, s, w)| Action::ReadD {
            dst: Reg(d),
            sector: s,
            word: w
        }),
        (arb_operand(), arb_operand(), arb_operand()).prop_map(|(s, w, v)| Action::WriteD {
            sector: s,
            word: w,
            value: v
        }),
        (arb_operand(), arb_operand()).prop_map(|(s, w)| Action::FillD {
            sector: s,
            words: w
        }),
    ]
}

proptest! {
    #[test]
    fn microcode_encoding_round_trips(actions in prop::collection::vec(arb_action(), 1..64)) {
        let words = encode(&actions).expect("all generated operands are encodable");
        prop_assert_eq!(words.len(), actions.len() * 2);
        prop_assert_eq!(decode(&words).expect("decodes"), actions);
    }

    // -----------------------------------------------------------------
    // Memory
    // -----------------------------------------------------------------

    #[test]
    fn main_memory_reads_back_writes(
        writes in prop::collection::vec((0u64..1 << 20, prop::collection::vec(any::<u8>(), 1..128)), 1..20)
    ) {
        let mut mem = MainMemory::new();
        let mut shadow: std::collections::BTreeMap<u64, u8> = std::collections::BTreeMap::new();
        for (addr, bytes) in &writes {
            mem.write(*addr, bytes);
            for (i, b) in bytes.iter().enumerate() {
                shadow.insert(addr + i as u64, *b);
            }
        }
        for (addr, bytes) in &writes {
            let got = mem.read_vec(*addr, bytes.len());
            for (i, g) in got.iter().enumerate() {
                prop_assert_eq!(*g, shadow[&(addr + i as u64)]);
            }
        }
    }

    // -----------------------------------------------------------------
    // Simulation primitives
    // -----------------------------------------------------------------

    #[test]
    fn msg_queue_is_fifo_and_lossless(
        latency in 0u64..10,
        values in prop::collection::vec(any::<u32>(), 1..50)
    ) {
        let mut q = MsgQueue::new("prop", values.len(), latency);
        for (i, v) in values.iter().enumerate() {
            q.push(Cycle(i as u64), *v).expect("capacity == len");
        }
        let mut out = Vec::new();
        let mut now = Cycle(0);
        while out.len() < values.len() {
            if let Some(v) = q.pop(now) {
                out.push(v);
            } else {
                now = now.next();
            }
            prop_assert!(now.raw() < values.len() as u64 + latency + 2);
        }
        prop_assert_eq!(out, values);
    }

    #[test]
    fn histogram_moments_are_consistent(samples in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.sum(), samples.iter().sum::<u64>());
        prop_assert_eq!(h.min(), samples.iter().min().copied());
        prop_assert_eq!(h.max(), samples.iter().max().copied());
        let p50 = h.percentile(0.5).expect("nonempty");
        let p95 = h.percentile(0.95).expect("nonempty");
        prop_assert!(p50 <= p95);
        prop_assert!(p95 >= h.max().expect("nonempty") / 2);
    }

    // -----------------------------------------------------------------
    // Controller structures
    // -----------------------------------------------------------------

    #[test]
    fn dataram_alloc_free_never_leaks(ops in prop::collection::vec((1usize..8, any::<bool>()), 1..100)) {
        let mut ram = DataRam::new(64, 4);
        let mut held: Vec<(u32, u32)> = Vec::new();
        let mut stats = Stats::new();
        for (count, free_first) in ops {
            if free_first && !held.is_empty() {
                let (start, n) = held.swap_remove(0);
                ram.free(start, n);
            }
            if let Some(start) = ram.alloc(count, &mut stats) {
                held.push((start, count as u32));
            }
            let held_total: u32 = held.iter().map(|(_, n)| n).sum();
            prop_assert_eq!(ram.free_sectors() as u32 + held_total, 64);
        }
        // Freeing everything restores full capacity.
        for (start, n) in held.drain(..) {
            ram.free(start, n);
        }
        prop_assert_eq!(ram.free_sectors(), 64);
    }

    #[test]
    fn metatag_probe_finds_exactly_what_was_allocated(keys in prop::collection::vec(0u64..5000, 1..64)) {
        let mut tags = MetaTagArray::new(64, 4);
        let mut stats = Stats::new();
        let mut inserted = std::collections::HashSet::new();
        for &k in &keys {
            if tags.peek(MetaKey(k)).is_none() {
                if let Some((r, evicted)) = tags.alloc(MetaKey(k), StateId::DEFAULT, &mut stats) {
                    tags.update_entry(r, |e| e.active = false);
                    inserted.insert(k);
                    if let Some(v) = evicted {
                        inserted.remove(&v.key.0);
                    }
                }
            }
        }
        for k in inserted {
            prop_assert!(tags.probe(MetaKey(k), &mut stats).is_some(), "lost key {}", k);
        }
    }

    #[test]
    fn xreg_pool_conserves_files(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut pool = XRegPool::new(8, 4, 4);
        let mut held = Vec::new();
        let mut stats = Stats::new();
        let mut now = Cycle(0);
        for alloc in ops {
            now = now.next();
            if alloc {
                if let Some(f) = pool.alloc(now) {
                    held.push(f);
                }
            } else if let Some(f) = held.pop() {
                pool.release(f, now, &mut stats);
            }
            prop_assert_eq!(pool.in_use(), held.len());
            prop_assert!(held.len() <= 8);
        }
    }

    // -----------------------------------------------------------------
    // Workloads
    // -----------------------------------------------------------------

    #[test]
    fn hash_index_layout_walks_like_the_oracle(
        keys in prop::collection::vec(1u64..1_000_000, 1..80),
        probes in prop::collection::vec(1u64..1_000_000, 1..40)
    ) {
        let mut idx = HashIndex::new(16);
        for (i, &k) in keys.iter().enumerate() {
            if idx.get(k).is_none() {
                idx.insert(k, i as u64);
            }
        }
        let layout = idx.layout(0x10_0000);
        for &p in keys.iter().chain(probes.iter()) {
            prop_assert_eq!(layout.lookup_in_image(p), idx.get(p), "key {}", p);
        }
    }

    #[test]
    fn spgemm_reference_is_bilinear(seed in 0u64..1000) {
        // (A + A) x B == 2 * (A x B) for our integer-valued matrices.
        let a = CsrMatrix::generate(24, 24, 80, SparsePattern::ErdosRenyi, seed);
        let b = CsrMatrix::generate(24, 24, 80, SparsePattern::ErdosRenyi, seed + 1);
        let doubled: Vec<(u32, u32, f64)> = a.triples().map(|(i, j, v)| (i, j, 2.0 * v)).collect();
        let a2 = CsrMatrix::from_triples(24, 24, &doubled);
        let c1 = a2.multiply(&b);
        let c2 = a.multiply(&b);
        prop_assert_eq!(c1.nnz(), c2.nnz());
        for ((i1, j1, v1), (i2, j2, v2)) in c1.triples().zip(c2.triples()) {
            prop_assert_eq!((i1, j1), (i2, j2));
            prop_assert!((v1 - 2.0 * v2).abs() < 1e-9);
        }
    }

    #[test]
    fn csr_csc_round_trip_preserves_matrix(seed in 0u64..1000, nnz in 1usize..300) {
        let m = CsrMatrix::generate(48, 32, nnz, SparsePattern::RMat, seed);
        prop_assert_eq!(m.to_csc().to_csr(), m);
    }
}

proptest! {
    /// The assembler is total: arbitrary input text yields `Ok` or a
    /// located `Err`, never a panic.
    #[test]
    fn assembler_never_panics(src in "[ -~\\n]{0,400}") {
        let _ = xcache_isa::asm::assemble(&src);
    }

    /// Mutating one byte of valid walker source still never panics, and
    /// any program that does assemble also validates (assemble's
    /// postcondition).
    #[test]
    fn assembler_handles_mutated_valid_source(pos in 0usize..500, byte in 32u8..127) {
        const VALID: &str = "walker t\nstates Default, W\nregs 2\nroutine r {\n    allocR\n    allocM\n    mov r0, key\n    dram_read r0, 32\n    yield W\n}\nroutine f {\n    allocD r1, 1\n    filld r1, 4\n    updatem r1, r1\n    respond\n    retire\n}\non Default, Miss -> r\non W, Fill -> f\n";
        let mut bytes = VALID.as_bytes().to_vec();
        if pos < bytes.len() {
            bytes[pos] = byte;
        }
        if let Ok(text) = String::from_utf8(bytes) {
            if let Ok(program) = xcache_isa::asm::assemble(&text) {
                prop_assert!(
                    xcache_isa::verify::verify_structure(&program).check(false).is_ok(),
                    "assemble returned an invalid program"
                );
            }
        }
    }
}
