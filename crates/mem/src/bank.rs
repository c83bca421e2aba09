//! Shared banked DRAM beneath a sharded topology.
//!
//! Each shard owns a [`BankGroup`]: a full [`DramModel`] timing pipe plus
//! a global *bank-ownership* overlay. DRAM banks are assigned to shards
//! round-robin (`bank % shards`); a request whose bank belongs to another
//! shard still completes locally (every shard sees the same functional
//! memory image) but is staged `remote_penalty` extra cycles first — the
//! crossbar hop plus arbitration a real shared-DRAM organization would
//! charge. The staging queue is strictly FIFO with head-of-line blocking,
//! so a penalized request also delays later local ones, exactly like a
//! contended bank port.
//!
//! The PR 4 fault injector hooks this layer through `bank_conflict_storm`:
//! a hit stages the request `magnitude` additional cycles, modelling a
//! pathological row-conflict burst. Decisions are pure per-request hashes
//! on the request id, preserving structural determinism.

use std::collections::VecDeque;
use std::sync::Arc;

use xcache_sim::{counter, Cycle, FaultKind, FaultPlan, Stats};

use crate::{ConfigError, DramModel, MemReq, MemResp, MemoryPort};

/// Bank-ownership parameters for one shard's [`BankGroup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankGroupConfig {
    /// Total shards in the topology.
    pub shards: usize,
    /// This group's shard id (`< shards`).
    pub shard_id: usize,
    /// Extra staging cycles for a request to a bank owned by another
    /// shard.
    pub remote_penalty: u64,
    /// Staging-queue capacity; `can_accept` reflects it.
    pub staging_depth: usize,
}

impl Default for BankGroupConfig {
    fn default() -> Self {
        BankGroupConfig {
            shards: 1,
            shard_id: 0,
            remote_penalty: 6,
            staging_depth: 16,
        }
    }
}

impl BankGroupConfig {
    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shards must be nonzero".into());
        }
        if self.shard_id >= self.shards {
            return Err(format!(
                "shard_id {} out of range for {} shards",
                self.shard_id, self.shards
            ));
        }
        if self.staging_depth == 0 {
            return Err("staging_depth must be nonzero".into());
        }
        Ok(())
    }
}

/// One shard's view of the shared banked DRAM.
#[derive(Debug)]
pub struct BankGroup {
    cfg: BankGroupConfig,
    dram: DramModel,
    /// FIFO of (ready-to-forward cycle, request); head-of-line blocking.
    staged: VecDeque<(Cycle, MemReq)>,
    stats: Stats,
    fault: Option<Arc<FaultPlan>>,
}

impl BankGroup {
    /// Wraps `dram` with the bank-ownership overlay described by `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the first [`BankGroupConfig::validate`] failure.
    pub fn new(cfg: BankGroupConfig, dram: DramModel) -> Result<Self, ConfigError> {
        cfg.validate().map_err(|reason| ConfigError {
            component: "BankGroupConfig",
            reason,
        })?;
        Ok(BankGroup {
            cfg,
            dram,
            staged: VecDeque::new(),
            stats: Stats::new(),
            fault: FaultPlan::current(),
        })
    }

    /// The shard that owns the bank holding `addr`.
    #[must_use]
    pub fn owner_shard(&self, addr: u64) -> usize {
        self.dram.config().bank_of(addr) % self.cfg.shards
    }

    /// The wrapped DRAM timing model.
    #[must_use]
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// This overlay's counters (`bank.*`); the wrapped model keeps its own.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Merges the overlay's and the wrapped DRAM's counters into `out` —
    /// what sharded drivers call per cell when assembling a run report.
    pub fn merge_stats_into(&self, out: &mut Stats) {
        out.merge(&self.stats);
        out.merge(self.dram.stats());
    }

    fn forward_staged(&mut self, now: Cycle) {
        while let Some(&(ready, _)) = self.staged.front() {
            if ready > now || !self.dram.can_accept() {
                break;
            }
            let (_, req) = self.staged.pop_front().expect("front checked");
            self.dram
                .try_request(now, req)
                .expect("can_accept checked before forwarding");
        }
    }
}

impl MemoryPort for BankGroup {
    fn try_request(&mut self, now: Cycle, req: MemReq) -> Result<(), MemReq> {
        if !self.can_accept() {
            self.stats.incr_id(counter!("bank.stall"));
            return Err(req);
        }
        let mut delay = 0u64;
        if self.owner_shard(req.addr) == self.cfg.shard_id {
            self.stats.incr_id(counter!("bank.local"));
        } else {
            self.stats.incr_id(counter!("bank.remote"));
            delay += self.cfg.remote_penalty;
        }
        if let Some(hit) = self
            .fault
            .as_ref()
            .and_then(|p| p.decide(FaultKind::BankConflictStorm, req.id.0))
        {
            self.stats.incr_id(counter!("bank.fault.conflict_storm"));
            delay += hit.magnitude;
        }
        if delay == 0 && self.staged.is_empty() && self.dram.can_accept() {
            self.dram.try_request(now, req)
        } else {
            self.staged.push_back((now + delay, req));
            Ok(())
        }
    }

    fn can_accept(&self) -> bool {
        self.staged.len() < self.cfg.staging_depth
    }

    fn take_response(&mut self, now: Cycle) -> Option<MemResp> {
        self.dram.take_response(now)
    }

    fn tick(&mut self, now: Cycle) {
        self.forward_staged(now);
        self.dram.tick(now);
    }

    fn busy(&self) -> bool {
        !self.staged.is_empty() || self.dram.busy()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let staged = self.staged.front().map(|&(ready, _)| ready.max(now.next()));
        let dram = self.dram.next_event(now);
        match (staged, dram) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DramConfig, MainMemory};
    use xcache_sim::with_fault_plan;

    fn drain_one(group: &mut BankGroup, mut now: Cycle) -> (MemResp, Cycle) {
        loop {
            group.tick(now);
            if let Some(resp) = group.take_response(now) {
                return (resp, now);
            }
            assert!(now.raw() < 100_000, "bank group hung");
            now = now.next();
        }
    }

    fn group(shards: usize, shard_id: usize) -> BankGroup {
        let mut mem = MainMemory::default();
        for addr in (0..1 << 16).step_by(8) {
            mem.write_u64(addr, addr ^ 0xABCD);
        }
        BankGroup::new(
            BankGroupConfig {
                shards,
                shard_id,
                ..BankGroupConfig::default()
            },
            DramModel::with_memory(DramConfig::default(), mem),
        )
        .expect("valid config")
    }

    #[test]
    fn local_requests_bypass_staging() {
        let mut g = group(2, 0);
        // Find an address whose bank this shard owns.
        let addr = (0..1u64 << 16)
            .step_by(64)
            .find(|&a| g.owner_shard(a) == 0)
            .unwrap();
        g.try_request(Cycle(0), MemReq::read(1, addr, 8)).unwrap();
        let (resp, _) = drain_one(&mut g, Cycle(0));
        assert_eq!(
            u64::from_le_bytes(resp.data[..8].try_into().unwrap()),
            addr ^ 0xABCD
        );
        assert_eq!(g.stats().get("bank.local"), 1);
        assert_eq!(g.stats().get("bank.remote"), 0);
    }

    #[test]
    fn remote_bank_pays_the_penalty() {
        let mut local = group(2, 0);
        let mut remote = group(2, 1);
        let addr = (0..1u64 << 16)
            .step_by(64)
            .find(|&a| local.owner_shard(a) == 0)
            .unwrap();
        local
            .try_request(Cycle(0), MemReq::read(1, addr, 8))
            .unwrap();
        remote
            .try_request(Cycle(0), MemReq::read(1, addr, 8))
            .unwrap();
        let (_, local_done) = drain_one(&mut local, Cycle(0));
        let (_, remote_done) = drain_one(&mut remote, Cycle(0));
        assert_eq!(remote.stats().get("bank.remote"), 1);
        assert_eq!(
            remote_done.raw() - local_done.raw(),
            remote.cfg.remote_penalty,
            "remote access should cost exactly the configured penalty"
        );
    }

    #[test]
    fn staging_preserves_fifo_and_backpressure() {
        let mut g = group(4, 0);
        let mut addrs: Vec<u64> = Vec::new();
        let mut a = 0u64;
        while addrs.len() < 20 {
            if g.owner_shard(a) != 0 {
                addrs.push(a);
            }
            a += 64;
        }
        let mut accepted = 0u64;
        for (i, &addr) in addrs.iter().enumerate() {
            if g.can_accept() {
                g.try_request(Cycle(0), MemReq::read(i as u64, addr, 8))
                    .unwrap();
                accepted += 1;
            }
        }
        assert_eq!(accepted, g.cfg.staging_depth as u64);
        assert!(!g.can_accept());
        let mut now = Cycle(0);
        let mut next_id = 0u64;
        while next_id < accepted {
            if let Some(resp) = {
                g.tick(now);
                g.take_response(now)
            } {
                assert_eq!(resp.id.0, next_id, "responses must retire in FIFO order");
                next_id += 1;
            }
            assert!(now.raw() < 100_000, "drain hung");
            now = now.next();
        }
    }

    #[test]
    fn conflict_storm_fault_stages_and_counts() {
        let plan = Arc::new(FaultPlan::parse("bank_conflict_storm=1.0:50", 5).unwrap());
        with_fault_plan(Some(plan), || {
            let mut faulty = group(1, 0);
            let mut clean = with_fault_plan(None, || group(1, 0));
            faulty
                .try_request(Cycle(0), MemReq::read(9, 128, 8))
                .unwrap();
            clean
                .try_request(Cycle(0), MemReq::read(9, 128, 8))
                .unwrap();
            let (_, slow) = drain_one(&mut faulty, Cycle(0));
            let (_, fast) = drain_one(&mut clean, Cycle(0));
            assert_eq!(faulty.stats().get("bank.fault.conflict_storm"), 1);
            assert_eq!(slow.raw() - fast.raw(), 50);
        });
    }

    #[test]
    fn next_event_covers_staged_head() {
        let mut g = group(2, 1);
        let addr = (0..1u64 << 16)
            .step_by(64)
            .find(|&a| g.owner_shard(a) == 0)
            .unwrap();
        g.try_request(Cycle(0), MemReq::read(1, addr, 8)).unwrap();
        let wake = g.next_event(Cycle(0)).expect("staged work pending");
        assert!(wake > Cycle(0));
        assert!(wake <= Cycle(g.cfg.remote_penalty));
        assert!(g.busy());
    }

    #[test]
    fn rejects_bad_config() {
        let bad = BankGroupConfig {
            shards: 2,
            shard_id: 2,
            ..BankGroupConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(BankGroupConfig::default().validate().is_ok());
        let err = BankGroup::new(bad, DramModel::new(DramConfig::default()))
            .expect_err("shard_id out of range");
        assert_eq!(err.component, "BankGroupConfig");
    }
}
