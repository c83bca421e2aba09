//! # xcache-mem
//!
//! Memory substrate for the X-Cache reproduction: a functional
//! byte-addressable backing store ([`MainMemory`]), a banked DRAM timing
//! model ([`DramModel`], standing in for the paper's DRAMsim2), and the
//! baseline set-associative address-based cache ([`AddressCache`]) that
//! X-Cache is compared against in §8.
//!
//! All timing components speak the same [`MemoryPort`] protocol: bounded
//! request/response queues with explicit back-pressure, so they compose into
//! the hierarchies of §6 (X-Cache over DRAM, X-Cache over an address cache,
//! multi-level X-Cache).
//!
//! ```
//! use xcache_mem::{DramConfig, DramModel, MemReq, MemoryPort};
//! use xcache_sim::Cycle;
//!
//! let mut dram = DramModel::new(DramConfig::default());
//! dram.memory_mut().write_u64(0x100, 42);
//! dram.try_request(Cycle(0), MemReq::read(1, 0x100, 8)).unwrap();
//! let mut now = Cycle(0);
//! let resp = loop {
//!     dram.tick(now);
//!     if let Some(r) = dram.take_response(now) { break r; }
//!     now = now.next();
//! };
//! assert_eq!(u64::from_le_bytes(resp.data[..8].try_into().unwrap()), 42);
//! ```

mod address_cache;
mod bank;
mod dram;
mod interconnect;
mod memory;
mod port;
mod shared;

pub use address_cache::{AddressCache, CacheConfig, ReplacementPolicy};
pub use bank::{BankGroup, BankGroupConfig};
pub use dram::{DramConfig, DramModel};
pub use interconnect::Link;
pub use memory::MainMemory;
pub use port::{MemReq, MemReqKind, MemResp, MemoryPort, ReqId};
pub use shared::{PortHandle, SharedPort};

/// A rejected component configuration: which config type failed and why.
///
/// Returned by the constructors of [`AddressCache`], [`BankGroup`] and
/// [`DramModel::try_new`] (whose panicking `DramModel::new` wrapper
/// remains for infallible call sites).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The configuration type that failed validation.
    pub component: &'static str,
    /// The first validation failure, as reported by `validate()`.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {}: {}", self.component, self.reason)
    }
}

impl std::error::Error for ConfigError {}
