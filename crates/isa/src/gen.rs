//! Seeded generation of random-but-verifier-valid walker programs.
//!
//! The fuzz/differential harness in `xcache-bench` needs an open-ended
//! supply of walker programs that (a) pass the static verifier with zero
//! findings — errors *and* warnings — and (b) run to completion on an
//! arbitrary key stream against a zero-filled memory. [`generate`] builds
//! such programs correct-by-construction, deterministically from a `u64`
//! seed:
//!
//! * a launch entry (`allocR; allocM; …`) that masks the key into a
//!   bounded address, optionally via a hash prologue, issues one DRAM
//!   read, and yields;
//! * 1–3 chained hop routines dispatched on `Fill`, each recomputing a
//!   masked address (mixing in the fill payload via `peek`), optionally
//!   guarded by a forward branch to a `fault` tail, issuing the next read
//!   and yielding;
//! * a final routine that allocates a data sector, fills it from the DRAM
//!   response, publishes it via `updatem`, responds, and retires;
//! * optionally a store handler on `(Default, Update)`.
//!
//! Every address a generated program can compute is `base + masked ⋅
//! stride`, so any key stream is safe; every `yield` leaves exactly one
//! completion outstanding with a handler in the yielded-to state. The
//! generator asserts its own output clean under
//! [`verify`](crate::verify::verify) with warnings denied.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::verify::verify;
use crate::{
    Action, AluOp, Cond, EventId, Operand, Reg, Routine, RoutineId, RoutineTable, StateId,
    WalkerProgram,
};

/// Register assignments used by every generated program (`regs = 4`).
const R_SCRATCH: Reg = Reg(0); // peek target / guard operand
const R_ADDR: Reg = Reg(1); // address under construction
const R_TMP: Reg = Reg(2); // extra ALU traffic
const R_SECTOR: Reg = Reg(3); // allocD result

/// Generates a verifier-clean walker program from `seed`.
///
/// The same seed always yields the same program (the generator draws from
/// the vendored deterministic `StdRng`). The produced program declares one
/// parameter, `base`: instantiate it with the base address of whatever
/// memory region the driver considers safe — all generated accesses land
/// in `[base, base + 64 KiB)`.
#[must_use]
pub fn generate(seed: u64) -> WalkerProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let hops = rng.gen_range(1..4usize);
    let hashed = rng.gen_bool(0.4);
    let with_store = rng.gen_bool(0.5);

    // States: Default, optionally Hashed, then one Wait state per DRAM
    // issue (entry + each non-final hop).
    let mut state_names = vec!["Default".to_string()];
    let hash_state = hashed.then(|| {
        state_names.push("Hashed".into());
        StateId(u8::try_from(state_names.len() - 1).expect("few states"))
    });
    let mut wait_states = Vec::new();
    for i in 0..hops {
        state_names.push(format!("Wait{i}"));
        wait_states.push(StateId(
            u8::try_from(state_names.len() - 1).expect("few states"),
        ));
    }

    let mut event_names: Vec<String> = vec!["Miss".into(), "Fill".into(), "Update".into()];
    let hash_done = hashed.then(|| {
        event_names.push("HashDone".into());
        EventId(u8::try_from(event_names.len() - 1).expect("few events"))
    });

    let mut routines = Vec::new();
    let mut table = RoutineTable::new(
        u8::try_from(state_names.len()).expect("few states"),
        u8::try_from(event_names.len()).expect("few events"),
    );

    // Launch entry: claim resources, then either hash the key and wait for
    // the digest, or go straight to the first address.
    let mut entry = vec![Action::AllocR, Action::AllocM];
    if let (Some(done), Some(hs)) = (hash_done, hash_state) {
        entry.push(Action::Hash {
            done,
            a: Operand::Key,
        });
        entry.push(Action::Yield { state: hs });
        let rid = push_routine(&mut routines, "start", entry);
        table.set(StateId::DEFAULT, EventId::MISS, rid);
        // The digest arrives as msg word 0; the address hop consumes it.
        let mut addr = vec![Action::Peek {
            dst: R_SCRATCH,
            word: 0,
        }];
        addr.extend(address_from(&mut rng, Operand::Reg(R_SCRATCH)));
        addr.push(dram_read(&mut rng));
        addr.push(Action::Yield {
            state: wait_states[0],
        });
        let rid = push_routine(&mut routines, "hashed", addr);
        table.set(hs, done, rid);
    } else {
        entry.extend(address_from(&mut rng, Operand::Key));
        entry.push(dram_read(&mut rng));
        entry.push(Action::Yield {
            state: wait_states[0],
        });
        let rid = push_routine(&mut routines, "start", entry);
        table.set(StateId::DEFAULT, EventId::MISS, rid);
    }

    // Chained hops: each consumes the previous fill and issues the next
    // read. The last Fill dispatch lands in the finishing routine instead.
    for hop in 0..hops.saturating_sub(1) {
        let mut actions = vec![Action::Peek {
            dst: R_SCRATCH,
            word: 0,
        }];
        actions.extend(address_from(&mut rng, Operand::Reg(R_SCRATCH)));
        let guarded = rng.gen_bool(0.5);
        if guarded {
            // Forward branch to a fault tail appended after the yield —
            // the same not-found idiom the shipped hash walkers use. The
            // sentinel is the widest encodable immediate (24 bits).
            actions.push(Action::Branch {
                cond: Cond::Eq,
                a: Operand::Reg(R_SCRATCH),
                b: Operand::Imm((1 << 24) - 1),
                target: u8::try_from(actions.len() + 3).expect("short routine"),
            });
        }
        actions.push(dram_read(&mut rng));
        actions.push(Action::Yield {
            state: wait_states[hop + 1],
        });
        if guarded {
            actions.push(Action::Fault);
        }
        let rid = push_routine(&mut routines, &format!("hop{hop}"), actions);
        table.set(wait_states[hop], EventId::FILL, rid);
    }

    // Finish: install 1–4 words of the final fill and answer the datapath.
    let words = rng.gen_range(1..5u64);
    let finish = vec![
        Action::AllocD {
            dst: R_SECTOR,
            count: Operand::Imm(1),
        },
        Action::FillD {
            sector: Operand::Reg(R_SECTOR),
            words: Operand::Imm(words),
        },
        Action::UpdateM {
            start: Operand::Reg(R_SECTOR),
            end: Operand::Reg(R_SECTOR),
        },
        Action::Respond,
        Action::Retire,
    ];
    let rid = push_routine(&mut routines, "finish", finish);
    table.set(wait_states[hops - 1], EventId::FILL, rid);

    if with_store {
        // Stores acknowledge without walking (retire auto-acks).
        let rid = push_routine(&mut routines, "store", vec![Action::AllocR, Action::Retire]);
        table.set(StateId::DEFAULT, EventId::UPDATE, rid);
    }

    let program = WalkerProgram {
        name: format!("fuzz_{seed:016x}"),
        state_names,
        event_names,
        regs: 4,
        param_names: vec!["base".into()],
        routines,
        table,
    };
    debug_assert!(
        verify(&program).check(true).is_ok(),
        "generator produced verifier findings for seed {seed}: {:?}",
        verify(&program)
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    program
}

fn push_routine(routines: &mut Vec<Routine>, name: &str, actions: Vec<Action>) -> RoutineId {
    routines.push(Routine {
        name: name.into(),
        actions,
    });
    RoutineId(u16::try_from(routines.len() - 1).expect("few routines"))
}

/// Address construction: `R_ADDR = base + ((src ⊕/±/… mix) & mask) ⋅
/// stride`, with masks and strides bounded so every result stays within
/// 64 KiB of `base` regardless of `src`.
fn address_from(rng: &mut StdRng, src: Operand) -> Vec<Action> {
    let mask = [0x3F, 0xFF, 0x3FF][rng.gen_range(0..3usize)];
    let stride = [8u64, 16, 32, 64][rng.gen_range(0..4usize)];
    debug_assert!((mask + 1) * stride <= 64 * 1024);
    let mut v = vec![Action::Mov {
        dst: R_ADDR,
        a: src,
    }];
    // Optional extra ALU traffic: a self-contained mix on a scratch reg
    // (defined here, so def-before-use holds on every path).
    if rng.gen_bool(0.5) {
        v.push(Action::Mov {
            dst: R_TMP,
            a: Operand::Imm(rng.gen_range(1..1024u64)),
        });
        let op = [AluOp::Add, AluOp::Xor, AluOp::Or][rng.gen_range(0..3usize)];
        v.push(Action::Alu {
            op,
            dst: R_ADDR,
            a: Operand::Reg(R_ADDR),
            b: Operand::Reg(R_TMP),
        });
    }
    v.push(Action::Alu {
        op: AluOp::And,
        dst: R_ADDR,
        a: Operand::Reg(R_ADDR),
        b: Operand::Imm(mask),
    });
    v.push(Action::Alu {
        op: AluOp::Mul,
        dst: R_ADDR,
        a: Operand::Reg(R_ADDR),
        b: Operand::Imm(stride),
    });
    v.push(Action::Alu {
        op: AluOp::Add,
        dst: R_ADDR,
        a: Operand::Reg(R_ADDR),
        b: Operand::Param(0),
    });
    v
}

fn dram_read(rng: &mut StdRng) -> Action {
    Action::DramRead {
        addr: Operand::Reg(R_ADDR),
        len: Operand::Imm([8u64, 16, 32][rng.gen_range(0..3usize)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(generate(7), generate(7));
        assert_ne!(generate(7), generate(8));
    }

    #[test]
    fn first_256_seeds_are_verifier_clean() {
        for seed in 0..256u64 {
            let p = generate(seed);
            let report = verify(&p);
            assert!(
                report.check(true).is_ok(),
                "seed {seed}: {:?}",
                report
                    .diagnostics
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn seeds_cover_the_shape_space() {
        let mut hashed = 0usize;
        let mut stores = 0usize;
        let mut max_routines = 0usize;
        for seed in 0..64u64 {
            let p = generate(seed);
            hashed += usize::from(p.event_names.iter().any(|e| e == "HashDone"));
            stores += usize::from(p.table.lookup(StateId::DEFAULT, EventId::UPDATE).is_some());
            max_routines = max_routines.max(p.routines.len());
        }
        assert!(hashed > 5, "hash prologues too rare: {hashed}/64");
        assert!(stores > 10, "store handlers too rare: {stores}/64");
        assert!(
            max_routines >= 4,
            "chains never exceed {max_routines} routines"
        );
    }
}
