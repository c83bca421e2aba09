//! # xcache-core
//!
//! The X-Cache programmable domain-specific cache controller — the primary
//! contribution of Sedaghati et al., "X-Cache: A Modular Architecture for
//! Domain-Specific Caches" (ISCA 2022) — as a cycle-level Rust model.
//!
//! Three ideas from the paper, and where they live here:
//!
//! * **Meta-tags** ([`MetaTagArray`], [`MetaKey`]): the cache is tagged by
//!   DSA metadata (row ids, hash keys, vertex ids), not addresses. Hits
//!   short-circuit metadata→address translation entirely.
//! * **X-Routines / X-Actions** (crate `xcache-isa`, executed by
//!   [`XCache`]): misses trigger table-driven coroutine walkers made of
//!   single-cycle microcode actions.
//! * **A DSA-agnostic controller** ([`XCache`]): a front-end event loop
//!   multiplexes many walkers over a few executor lanes; walkers yield at
//!   long-latency events. The blocking-thread alternative
//!   ([`WalkerDiscipline::BlockingThread`]) is implemented for the paper's
//!   occupancy ablation (Figure 7).
//!
//! ## The controller pipeline (Figure 8)
//!
//! ```text
//!                 ┌───────────── front-end ─────────────┐ ┌────────── back-end ──────────┐
//!  DSA datapath ──▶ access queue ─▶ trigger stage ──┐    │ │  executor lanes (#Exe)       │
//!  (meta loads /   (replay queue)   per-key hazards │    │ │  1 action / lane / cycle     │
//!   stores/takes)                   + window sched  │    │ │   AGEN · queue · meta-tag    │
//!                                                   ▼    │ │   control · data-RAM actions │
//!     meta-tag array ◀──────── (state,event) ─▶ routine  │ │          │                   │
//!     sets × ways             dispatch table     table ──┼─▶ microcode RAM ──▶ X-regs     │
//!     key|state|sectors                                  │ │  (#Active files)             │
//!          │ hit: dedicated read port                    │ └──────────┬───────────────────┘
//!          ▼                                             │            ▼
//!     data RAM (sectors) ──▶ response queue ──▶ DSA      │   DRAM request queue ──▶ memory
//! ```
//!
//! Walkers *yield* at long-latency events (`dram_read`, `hash`): the lane
//! frees, the walker's state is recorded in its meta-tag entry, and the
//! next event (`Fill`, `HashDone`) re-dispatches it through the table.
//!
//! ## Quickstart
//!
//! ```
//! use xcache_core::{MetaAccess, MetaKey, XCache, XCacheConfig};
//! use xcache_isa::asm::assemble;
//! use xcache_mem::{DramConfig, DramModel, MemoryPort};
//! use xcache_sim::Cycle;
//!
//! // A walker that fetches 32 bytes at address `base + key * 32`.
//! let program = assemble(r#"
//!     walker array
//!     states Default, Wait
//!     regs 2
//!     params base
//!
//!     routine start {
//!         allocR
//!         allocM
//!         mul r0, key, 32
//!         add r0, r0, base
//!         dram_read r0, 32
//!         yield Wait
//!     }
//!     routine fill {
//!         allocD r1, 1
//!         filld r1, 4
//!         updatem r1, r1
//!         respond
//!         retire
//!     }
//!
//!     on Default, Miss -> start
//!     on Wait, Fill -> fill
//! "#).expect("valid walker");
//!
//! let mut dram = DramModel::new(DramConfig::default());
//! dram.memory_mut().write_u64(0x1000 + 5 * 32, 777);
//! let cfg = XCacheConfig::test_tiny().with_params(vec![0x1000]);
//! let mut xc = XCache::new(cfg, program, dram).expect("valid instance");
//!
//! xc.try_access(Cycle(0), MetaAccess::Load { id: 1, key: MetaKey::new(5) }).unwrap();
//! let mut now = Cycle(0);
//! let resp = loop {
//!     xc.tick(now);
//!     if let Some(r) = xc.take_response(now) { break r; }
//!     now = now.next();
//! };
//! assert!(resp.found);
//! assert_eq!(resp.data[0], 777);
//! ```

mod config;
mod controller;
mod dataram;
mod metatag;
mod msg;
mod shard;
mod stream;
mod taxonomy;
mod xreg;

pub mod hierarchy;

pub use config::{WalkerDiscipline, XCacheConfig};
pub use controller::{splitmix64, BuildError, SimError, XCache};
pub use dataram::DataRam;
pub use metatag::{EntryRef, LaunchProbe, MetaEntry, MetaTagArray, SetCounters};
pub use msg::{MetaAccess, MetaKey, MetaResp};
pub use shard::{
    horizon_target, owner_of, shard_geometry, ShardCell, DEFAULT_HORIZON, DEFAULT_LINK_LATENCY,
};
pub use stream::{StreamConfig, StreamReader};
pub use taxonomy::{IdiomRow, TAXONOMY};
pub use xreg::{XRegFile, XRegPool};
