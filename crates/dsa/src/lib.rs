//! # xcache-dsa
//!
//! Cycle-level models of the five DSAs the X-Cache paper evaluates (§5,
//! §7.2), each in (up to) three storage configurations:
//!
//! | Module | DSA | X-Cache tag | Workload |
//! |---|---|---|---|
//! | [`widx`] | Widx (MICRO'13) | hash key | TPC-H hash-join probes |
//! | [`dasx`] | DASX (ICS'15) | hash key | hash-table iteration |
//! | [`graphpulse`] | GraphPulse (MICRO'20) | vertex id | PageRank events |
//! | [`spgemm`] | SpArch (HPCA'20) + Gamma (ASPLOS'21) | B-row id | sparse GEMM |
//!
//! Every `run_xcache` verifies its result against a functional oracle
//! (hash-index lookups, reference PageRank, exact SpGEMM), so the timing
//! numbers always come from runs that computed the right answer.
//!
//! ## Entry points
//!
//! [`widx`], [`graphpulse`] and [`spgemm`] each have one unchecked drive
//! per X-Cache topology, `drive_xcache` (one controller) and
//! `drive_xcache_sharded`, which return `Err` instead of panicking: on a
//! hang, a GraphPulse requeue livelock, or a Widx or SpGEMM response for
//! a request never issued or already answered. The checked wrappers
//! (`run_xcache`, `run_xcache_sharded`, `widx::run_xcache_with_walker`)
//! are a drive, an `expect` and the oracle check; the chaos harness
//! calls the drives directly, since faults may legitimately change
//! results.
//!
//! The single-controller run is not the sharded run with one shard: that
//! topology still crosses 32-cycle crossbar links, wraps DRAM in a
//! `BankGroup`, handles responses at horizon boundaries and, for SpGEMM,
//! routes A's elements over the crossbar instead of through the stream
//! engine. On the small test cells `run_xcache` vs
//! `run_xcache_sharded(.., 1)` gives 28,839 vs 28,863 cycles for Widx
//! (Q19/10, 2,000 probes), 6,957 vs 5,270 cycles and 252 vs 164 DRAM
//! accesses for Gamma (96×96, 700 nnz), and 1,407 vs 1,905 cycles for
//! GraphPulse (`Tiny`). The two SpGEMM drives also differ in one
//! modelling detail: the single run charges MAC occupancy for a cached
//! row's sector-padding pairs, the sharded run only for real pairs. With
//! the two-pair sectors the walker requires, padding adds at most one
//! pair to an odd row, which never changes the four-MACs-per-cycle
//! charge.
//!
//! The `run_address_cache` variants implement §8's comparison point: an
//! address-tagged cache of identical capacity with an *ideal* walker
//! (zero-cost orchestration decisions), and `run_baseline` the original
//! hardwired designs.

pub mod common;
pub mod dasx;
pub mod features;
pub mod graphpulse;
pub mod spgemm;
pub mod widx;

pub use common::{ProbeEngine, ProbeTask, RunReport, TaskStep};
pub use features::{Coupling, DsaFeatures, FEATURES};

#[cfg(test)]
mod tests {
    /// The workload builder and the controller's hash unit must agree on
    /// the hash function, or walkers search the wrong buckets.
    #[test]
    fn hash_functions_pinned_together() {
        for x in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            assert_eq!(
                xcache_core::splitmix64(x),
                xcache_workloads::hashidx::hash64(x)
            );
        }
    }
}
