//! Baseline set-associative, address-tagged cache.
//!
//! This is the comparison point of §8.1: "the best-performing address-based
//! cache for each DSA", with the same geometry as the X-Cache it is compared
//! against. It is a conventional non-blocking cache: set-associative tags,
//! MSHRs that coalesce secondary misses, write-back with write-allocate,
//! and a pluggable replacement policy.
//!
//! The *ideal walker* assumption of §8 (the walker makes the same
//! orchestration decisions as X-Cache but costs zero cycles) lives in the
//! DSA adapters in `xcache-dsa`: they compute which addresses a walk
//! touches and replay them through this cache, charging no cycles for the
//! decision logic itself — all measured differences come from address tags.

use std::collections::VecDeque;

use bytes::Bytes;

use xcache_sim::{counter, Cycle, FxHashMap, MsgQueue, Stats};

use crate::{ConfigError, MemReq, MemReqKind, MemResp, MemoryPort, ReqId};

/// Victim selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way.
    #[default]
    Lru,
    /// Evict the way filled longest ago.
    Fifo,
    /// Evict a deterministic pseudo-random way (xorshift, seeded).
    Random(u64),
}

/// Geometry and timing of an [`AddressCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Block size in bytes (power of two).
    pub block_bytes: u64,
    /// Cycles from accepted request to hit response.
    pub hit_latency: u64,
    /// Number of miss-status holding registers.
    pub mshrs: usize,
    /// Victim selection.
    pub policy: ReplacementPolicy,
    /// Requests accepted from the input queue per cycle.
    pub ports: usize,
    /// Tagged next-line prefetch: a demand miss on block *B* also fills
    /// *B+1* when absent (strengthens this baseline on streaming walks).
    pub prefetch_next: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            sets: 1024,
            ways: 8,
            block_bytes: 64,
            hit_latency: 3,
            mshrs: 16,
            policy: ReplacementPolicy::Lru,
            ports: 1,
            prefetch_next: false,
        }
    }
}

impl CacheConfig {
    /// Total data capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.block_bytes
    }

    /// Validates geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.sets == 0 || !self.sets.is_power_of_two() {
            return Err("sets must be a nonzero power of two".into());
        }
        if self.ways == 0 {
            return Err("ways must be nonzero".into());
        }
        if self.block_bytes == 0 || !self.block_bytes.is_power_of_two() {
            return Err("block_bytes must be a nonzero power of two".into());
        }
        if self.mshrs == 0 {
            return Err("mshrs must be nonzero".into());
        }
        if self.ports == 0 {
            return Err("ports must be nonzero".into());
        }
        Ok(())
    }

    fn set_of(&self, block_addr: u64) -> usize {
        (block_addr as usize / self.block_bytes as usize) & (self.sets - 1)
    }

    fn block_of(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes - 1)
    }
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64, // block address
    valid: bool,
    dirty: bool,
    last_used: u64,
    filled_at: u64,
    data: Vec<u8>,
}

#[derive(Debug)]
struct Mshr {
    waiters: Vec<MemReq>,
}

/// A non-blocking set-associative cache stacked on a downstream
/// [`MemoryPort`] (DRAM or another cache level).
///
/// Implements [`MemoryPort`] itself, so hierarchies compose by ownership:
/// `AddressCache<AddressCache<DramModel>>` is a two-level hierarchy.
#[derive(Debug)]
pub struct AddressCache<D> {
    cfg: CacheConfig,
    lines: Vec<Line>, // sets * ways, row-major by set
    input: MsgQueue<MemReq>,
    resp: MsgQueue<MemResp>,
    mshrs: FxHashMap<u64, Mshr>, // keyed by block address
    pending_down: Vec<MemReq>,   // requests refused downstream, to retry
    /// Responses refused by a full response queue, re-offered (in order,
    /// ahead of fresh responses) every tick — backpressure, not a crash.
    resp_spill: VecDeque<MemResp>,
    downstream: D,
    use_counter: u64,
    rng_state: u64,
    next_internal_id: u64,
    /// Maps our internal downstream-read ids to the block address filled.
    inflight_fills: FxHashMap<ReqId, u64>,
    stats: Stats,
}

impl<D: MemoryPort> AddressCache<D> {
    /// Builds a cache over `downstream`.
    ///
    /// # Errors
    ///
    /// Returns the first [`CacheConfig::validate`] failure.
    pub fn new(cfg: CacheConfig, downstream: D) -> Result<Self, ConfigError> {
        cfg.validate().map_err(|reason| ConfigError {
            component: "CacheConfig",
            reason,
        })?;
        let lines = (0..cfg.sets * cfg.ways)
            .map(|_| Line {
                tag: 0,
                valid: false,
                dirty: false,
                last_used: 0,
                filled_at: 0,
                data: vec![0; cfg.block_bytes as usize],
            })
            .collect();
        let rng_seed = match cfg.policy {
            ReplacementPolicy::Random(s) => s | 1,
            _ => 1,
        };
        Ok(AddressCache {
            input: MsgQueue::new("cache.in", 16, 1),
            resp: MsgQueue::new("cache.resp", 64, cfg.hit_latency.max(1)),
            lines,
            mshrs: FxHashMap::default(),
            pending_down: Vec::new(),
            resp_spill: VecDeque::new(),
            downstream,
            use_counter: 0,
            rng_state: rng_seed,
            next_internal_id: 1 << 48, // distinct from issuer id space
            inflight_fills: FxHashMap::default(),
            stats: Stats::new(),
            cfg,
        })
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics (hits, misses, evictions, tag/data accesses).
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The downstream memory level.
    #[must_use]
    pub fn downstream(&self) -> &D {
        &self.downstream
    }

    /// The downstream memory level, mutably (workload setup).
    pub fn downstream_mut(&mut self) -> &mut D {
        &mut self.downstream
    }

    /// Hit ratio so far, or `None` before any access.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let h = self.stats.get("cache.hits");
        let m = self.stats.get("cache.misses");
        (h + m > 0).then(|| h as f64 / (h + m) as f64)
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn find_way(&self, set: usize, block: u64) -> Option<usize> {
        let base = set * self.cfg.ways;
        (0..self.cfg.ways).find(|w| {
            let l = &self.lines[base + w];
            l.valid && l.tag == block
        })
    }

    fn pick_victim(&mut self, set: usize) -> usize {
        let base = set * self.cfg.ways;
        // Prefer an invalid way.
        if let Some(w) = (0..self.cfg.ways).find(|w| !self.lines[base + w].valid) {
            return w;
        }
        match self.cfg.policy {
            ReplacementPolicy::Lru => (0..self.cfg.ways)
                .min_by_key(|w| self.lines[base + w].last_used)
                .expect("ways > 0"),
            ReplacementPolicy::Fifo => (0..self.cfg.ways)
                .min_by_key(|w| self.lines[base + w].filled_at)
                .expect("ways > 0"),
            ReplacementPolicy::Random(_) => (self.next_rand() % self.cfg.ways as u64) as usize,
        }
    }

    /// Serves `req` from the (valid) line at `set`/`way`.
    fn serve_hit(&mut self, now: Cycle, set: usize, way: usize, req: &MemReq) {
        self.use_counter += 1;
        let counter = self.use_counter;
        let block_bytes = self.cfg.block_bytes;
        let line = &mut self.lines[set * self.cfg.ways + way];
        line.last_used = counter;
        let off = (req.addr - line.tag) as usize;
        debug_assert!(off as u64 + u64::from(req.len) <= block_bytes);
        let data = match req.kind {
            MemReqKind::Read => {
                self.stats.incr_id(counter!("cache.data_reads"));
                Bytes::copy_from_slice(&line.data[off..off + req.len as usize])
            }
            MemReqKind::Write => {
                self.stats.incr_id(counter!("cache.data_writes"));
                line.data[off..off + req.len as usize].copy_from_slice(&req.data);
                line.dirty = true;
                Bytes::new()
            }
        };
        let resp = MemResp {
            id: req.id,
            addr: req.addr,
            data,
            completed_at: now + self.cfg.hit_latency,
        };
        // The response queue is sized for the MSHR count, so a refusal is
        // exceptional — but it is backpressure, not a crash: spill the
        // response and re-offer it (in order) on subsequent ticks.
        if let Err(e) = self.resp.try_push(now, resp) {
            self.stats.incr_id(counter!("cache.fault.resp_overflow"));
            self.resp_spill.push_back(e.0);
        }
    }

    /// Installs `block` data into its set and serves all MSHR waiters.
    fn fill(&mut self, now: Cycle, block: u64, data: &[u8]) {
        let set = self.cfg.set_of(block);
        let way = self.pick_victim(set);
        let base = set * self.cfg.ways;
        // Write back a dirty victim.
        let victim = &self.lines[base + way];
        if victim.valid && victim.dirty {
            self.stats.incr_id(counter!("cache.writebacks"));
            let wb = MemReq::write(
                self.next_internal_id,
                victim.tag,
                Bytes::copy_from_slice(&victim.data),
            );
            self.next_internal_id += 1;
            self.pending_down.push(wb);
        }
        if self.lines[base + way].valid {
            self.stats.incr_id(counter!("cache.evictions"));
        }
        self.use_counter += 1;
        let counter = self.use_counter;
        let line = &mut self.lines[base + way];
        line.tag = block;
        line.valid = true;
        line.dirty = false;
        line.last_used = counter;
        line.filled_at = counter;
        line.data[..data.len()].copy_from_slice(data);
        self.stats.incr_id(counter!("cache.fills"));

        if let Some(mshr) = self.mshrs.remove(&block) {
            for req in mshr.waiters {
                self.serve_hit(now, set, way, &req);
            }
        }
    }

    /// Best-effort next-line prefetch: fills `block` if it is neither
    /// resident nor already in flight. Dropped silently on any resource
    /// shortage (a prefetch must never stall demand traffic).
    fn issue_prefetch(&mut self, now: Cycle, block: u64) {
        let set = self.cfg.set_of(block);
        if self.find_way(set, block).is_some()
            || self.mshrs.contains_key(&block)
            || self.mshrs.len() >= self.cfg.mshrs
        {
            return;
        }
        let fill_id = self.next_internal_id;
        let fill = MemReq::read(fill_id, block, self.cfg.block_bytes as u32);
        if self.downstream.try_request(now, fill).is_ok() {
            self.next_internal_id += 1;
            self.inflight_fills.insert(ReqId(fill_id), block);
            self.mshrs.insert(
                block,
                Mshr {
                    waiters: Vec::new(),
                },
            );
            self.stats.incr_id(counter!("cache.prefetches"));
        }
    }

    /// Issues everything waiting for the downstream port, in order, until
    /// the first refusal.
    fn drain_pending_down(&mut self, now: Cycle) {
        while let Some(req) = self.pending_down.first() {
            match self.downstream.try_request(now, req.clone()) {
                Ok(()) => {
                    self.pending_down.remove(0);
                }
                Err(_) => break, // keep order; retry next cycle
            }
        }
    }
}

impl<D: MemoryPort> MemoryPort for AddressCache<D> {
    fn try_request(&mut self, now: Cycle, req: MemReq) -> Result<(), MemReq> {
        assert!(
            self.cfg.block_of(req.addr)
                == self.cfg.block_of(req.addr + u64::from(req.len.max(1)) - 1),
            "request {:?} crosses a cache block boundary",
            req
        );
        self.input.push(now, req).map_err(|e| {
            self.stats.incr_id(counter!("cache.input_stall"));
            e.0
        })
    }

    fn can_accept(&self) -> bool {
        !self.input.is_full()
    }

    fn take_response(&mut self, now: Cycle) -> Option<MemResp> {
        self.resp.pop(now)
    }

    fn tick(&mut self, now: Cycle) {
        // 0a. Re-offer spilled responses ahead of fresh ones (FIFO).
        while let Some(resp) = self.resp_spill.pop_front() {
            if let Err(e) = self.resp.try_push(now, resp) {
                self.resp_spill.push_front(e.0);
                break;
            }
        }

        // 0b. Retry refused downstream transactions (writebacks, fills).
        self.drain_pending_down(now);

        // 1. Accept downstream responses: fills complete.
        while let Some(resp) = self.downstream.take_response(now) {
            if let Some(block) = self.inflight_fills.remove(&resp.id) {
                let data = resp.data.clone();
                self.fill(now, block, &data);
            }
            // Write acks for writebacks need no action.
        }

        // 2. Process up to `ports` input requests.
        for _ in 0..self.cfg.ports {
            let Some(req) = self.input.peek(now) else {
                break;
            };
            let block = self.cfg.block_of(req.addr);
            let set = self.cfg.set_of(block);
            self.stats.incr_id(counter!("cache.tag_reads"));
            if let Some(way) = self.find_way(set, block) {
                let Some(req) = self.input.try_pop(now) else {
                    self.stats.incr_id(counter!("cache.fault.underflow"));
                    break;
                };
                self.stats.incr_id(counter!("cache.hits"));
                self.serve_hit(now, set, way, &req);
                continue;
            }
            // Miss path.
            if self.mshrs.contains_key(&block) {
                // Secondary miss: coalesce.
                let Some(req) = self.input.try_pop(now) else {
                    self.stats.incr_id(counter!("cache.fault.underflow"));
                    break;
                };
                self.stats.incr_id(counter!("cache.misses"));
                self.stats.incr_id(counter!("cache.mshr_coalesced"));
                if let Some(mshr) = self.mshrs.get_mut(&block) {
                    mshr.waiters.push(req);
                }
                continue;
            }
            if self.mshrs.len() >= self.cfg.mshrs {
                self.stats.incr_id(counter!("cache.mshr_stall"));
                break; // structural hazard: stall the input queue
            }
            let fill_id = self.next_internal_id;
            let fill = MemReq::read(fill_id, block, self.cfg.block_bytes as u32);
            match self.downstream.try_request(now, fill) {
                Ok(()) => {
                    let Some(req) = self.input.try_pop(now) else {
                        self.stats.incr_id(counter!("cache.fault.underflow"));
                        break;
                    };
                    self.stats.incr_id(counter!("cache.misses"));
                    self.next_internal_id += 1;
                    self.inflight_fills.insert(ReqId(fill_id), block);
                    self.mshrs.insert(block, Mshr { waiters: vec![req] });
                    if self.cfg.prefetch_next {
                        self.issue_prefetch(now, block + self.cfg.block_bytes);
                    }
                }
                Err(_) => {
                    self.stats.incr_id(counter!("cache.downstream_stall"));
                    break;
                }
            }
        }

        // 3. Tick the level below.
        self.downstream.tick(now);
    }

    fn busy(&self) -> bool {
        !self.input.is_empty()
            || !self.resp.is_empty()
            || !self.resp_spill.is_empty()
            || !self.mshrs.is_empty()
            || !self.pending_down.is_empty()
            || self.downstream.busy()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next = Cycle::NEVER;
        let mut wake = |t: Cycle| next = next.min(t);

        // A visible input head is re-examined every tick (MSHR or
        // downstream stalls are counted per tick), so it pins the wake-up
        // to the next cycle; an in-flight head wakes us when it arrives.
        if let Some(ready) = self.input.next_ready() {
            wake(ready.max(now.next()));
        }
        // Spilled responses are re-offered every tick until they land.
        if !self.resp_spill.is_empty() {
            wake(now.next());
        }
        // Refused downstream transactions are retried every tick (and each
        // refusal counts a stall in the downstream's registry).
        if !self.pending_down.is_empty() {
            wake(now.next());
        }
        if let Some(ready) = self.resp.next_ready() {
            wake(ready.max(now.next()));
        }
        if let Some(t) = self.downstream.next_event(now) {
            wake(t.max(now.next()));
        }
        if next == Cycle::NEVER {
            // Outstanding work with no scheduled wake-up (e.g. an MSHR whose
            // downstream model gave no report): fall back to single-stepping.
            return self.busy().then(|| now.next());
        }
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DramConfig, DramModel};

    fn small_cache() -> AddressCache<DramModel> {
        let cfg = CacheConfig {
            sets: 4,
            ways: 2,
            block_bytes: 32,
            hit_latency: 2,
            mshrs: 4,
            policy: ReplacementPolicy::Lru,
            ports: 1,
            prefetch_next: false,
        };
        AddressCache::new(cfg, DramModel::new(DramConfig::test_tiny())).expect("valid config")
    }

    fn run_read(
        cache: &mut AddressCache<DramModel>,
        id: u64,
        addr: u64,
        len: u32,
    ) -> (MemResp, u64) {
        let mut now = Cycle(0);
        loop {
            if cache.try_request(now, MemReq::read(id, addr, len)).is_ok() {
                break;
            }
            cache.tick(now);
            now = now.next();
        }
        loop {
            cache.tick(now);
            if let Some(r) = cache.take_response(now) {
                return (r, now.raw());
            }
            now = now.next();
            assert!(now.raw() < 100_000, "cache deadlock");
        }
    }

    #[test]
    fn miss_then_hit_returns_data_faster() {
        let mut c = small_cache();
        c.downstream_mut().memory_mut().write_u64(0x40, 99);
        let (r1, t_miss) = run_read(&mut c, 1, 0x40, 8);
        assert_eq!(u64::from_le_bytes(r1.data[..8].try_into().unwrap()), 99);
        assert_eq!(c.stats().get("cache.misses"), 1);
        let (r2, t_hit) = run_read(&mut c, 2, 0x40, 8);
        assert_eq!(r2.data, r1.data);
        assert_eq!(c.stats().get("cache.hits"), 1);
        assert!(t_hit < t_miss, "hit {t_hit} !< miss {t_miss}");
    }

    #[test]
    fn spatial_locality_within_block() {
        let mut c = small_cache();
        c.downstream_mut().memory_mut().write_u64(0x48, 7);
        let _ = run_read(&mut c, 1, 0x40, 8); // brings in block 0x40..0x60
        let (r, _) = run_read(&mut c, 2, 0x48, 8);
        assert_eq!(u64::from_le_bytes(r.data[..8].try_into().unwrap()), 7);
        assert_eq!(c.stats().get("cache.hits"), 1);
        assert_eq!(c.stats().get("cache.misses"), 1);
    }

    #[test]
    fn write_hit_sets_dirty_and_write_back_on_evict() {
        let mut c = small_cache();
        // Fill block A, dirty it, then evict by filling the same set.
        let _ = run_read(&mut c, 1, 0x0, 8);
        let mut now = Cycle(0);
        c.try_request(
            now,
            MemReq::write(2, 0x0, Bytes::copy_from_slice(&5u64.to_le_bytes())),
        )
        .unwrap();
        while c.busy() {
            c.tick(now);
            let _ = c.take_response(now);
            now = now.next();
        }
        // Two more blocks mapping to set 0 (block=32B, sets=4 → stride 128).
        let _ = run_read(&mut c, 3, 128, 8);
        let _ = run_read(&mut c, 4, 256, 8);
        let mut now = Cycle(0);
        while c.busy() {
            c.tick(now);
            let _ = c.take_response(now);
            now = now.next();
        }
        assert_eq!(c.stats().get("cache.writebacks"), 1);
        // The dirty data must have reached DRAM.
        assert_eq!(c.downstream().memory().read_u64(0x0), 5);
    }

    #[test]
    fn mshr_coalesces_same_block() {
        let mut c = small_cache();
        let now = Cycle(0);
        c.try_request(now, MemReq::read(1, 0x40, 8)).unwrap();
        c.try_request(now, MemReq::read(2, 0x48, 8)).unwrap();
        let mut now = now;
        let mut got = 0;
        while got < 2 {
            c.tick(now);
            while c.take_response(now).is_some() {
                got += 1;
            }
            now = now.next();
            assert!(now.raw() < 10_000);
        }
        assert_eq!(c.stats().get("cache.mshr_coalesced"), 1);
        // Only one fill went to DRAM.
        assert_eq!(c.downstream().stats().get("dram.reads"), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache();
        // Set 0 can hold 2 blocks: 0 and 128. Touch 0, 128, re-touch 0,
        // then 256 must evict 128 (LRU), leaving 0 resident.
        let _ = run_read(&mut c, 1, 0, 8);
        let _ = run_read(&mut c, 2, 128, 8);
        let _ = run_read(&mut c, 3, 0, 8);
        let _ = run_read(&mut c, 4, 256, 8);
        let hits_before = c.stats().get("cache.hits");
        let _ = run_read(&mut c, 5, 0, 8); // should still hit
        assert_eq!(c.stats().get("cache.hits"), hits_before + 1);
    }

    #[test]
    fn fifo_policy_differs_from_lru() {
        let mk = |policy| {
            let cfg = CacheConfig {
                sets: 1,
                ways: 2,
                block_bytes: 32,
                hit_latency: 1,
                mshrs: 2,
                policy,
                ports: 1,
                prefetch_next: false,
            };
            AddressCache::new(cfg, DramModel::new(DramConfig::test_tiny())).expect("valid config")
        };
        // Access pattern: A B A C A — LRU keeps A, FIFO evicts A at C.
        let pattern = [0u64, 32, 0, 64, 0];
        let mut results = vec![];
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
            let mut c = mk(policy);
            for (i, &a) in pattern.iter().enumerate() {
                let _ = run_read(&mut c, i as u64, a, 8);
            }
            results.push(c.stats().get("cache.hits"));
        }
        assert!(
            results[0] > results[1],
            "LRU {} !> FIFO {}",
            results[0],
            results[1]
        );
    }

    #[test]
    fn random_policy_is_deterministic() {
        let run = |seed| {
            let cfg = CacheConfig {
                sets: 2,
                ways: 2,
                block_bytes: 32,
                hit_latency: 1,
                mshrs: 2,
                policy: ReplacementPolicy::Random(seed),
                ports: 1,
                prefetch_next: false,
            };
            let mut c = AddressCache::new(cfg, DramModel::new(DramConfig::test_tiny()))
                .expect("valid config");
            for i in 0..32u64 {
                let _ = run_read(&mut c, i, (i * 37 % 8) * 32, 8);
            }
            c.stats().get("cache.hits")
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    #[should_panic(expected = "crosses a cache block boundary")]
    fn rejects_block_straddling_request() {
        let mut c = small_cache();
        let _ = c.try_request(Cycle(0), MemReq::read(1, 30, 8));
    }

    #[test]
    fn capacity_and_validation() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.capacity_bytes(), 1024 * 8 * 64);
        let mut bad = cfg.clone();
        bad.sets = 3;
        assert!(bad.validate().is_err());
        let mut bad = cfg;
        bad.mshrs = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn new_rejects_an_invalid_config() {
        let cfg = CacheConfig {
            sets: 3,
            ..CacheConfig::default()
        };
        let err = AddressCache::new(cfg, DramModel::new(DramConfig::test_tiny()))
            .expect_err("3 sets is not a power of two");
        assert_eq!(err.component, "CacheConfig");
    }

    #[test]
    fn hit_rate_reports_ratio() {
        let mut c = small_cache();
        assert!(c.hit_rate().is_none());
        let _ = run_read(&mut c, 1, 0, 8);
        let _ = run_read(&mut c, 2, 0, 8);
        assert!((c.hit_rate().unwrap() - 0.5).abs() < 1e-9);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use crate::{DramConfig, DramModel};

    fn cache(prefetch: bool) -> AddressCache<DramModel> {
        let cfg = CacheConfig {
            sets: 8,
            ways: 2,
            block_bytes: 32,
            hit_latency: 1,
            mshrs: 4,
            policy: ReplacementPolicy::Lru,
            ports: 1,
            prefetch_next: prefetch,
        };
        AddressCache::new(cfg, DramModel::new(DramConfig::test_tiny())).expect("valid config")
    }

    fn read(c: &mut AddressCache<DramModel>, now: &mut Cycle, id: u64, addr: u64) -> u64 {
        c.try_request(*now, MemReq::read(id, addr, 8))
            .expect("queued");
        loop {
            c.tick(*now);
            if c.take_response(*now).is_some() {
                return now.raw();
            }
            *now = now.next();
            assert!(now.raw() < 100_000);
        }
    }

    #[test]
    fn prefetch_turns_sequential_misses_into_hits() {
        let mut c = cache(true);
        let mut now = Cycle(0);
        let _ = read(&mut c, &mut now, 1, 0); // miss, prefetches block 32
                                              // Let the prefetch land.
        for _ in 0..200 {
            c.tick(now);
            let _ = c.take_response(now);
            now = now.next();
        }
        let _ = read(&mut c, &mut now, 2, 32);
        // Only the demand miss prefetched (hits do not re-trigger).
        assert_eq!(c.stats().get("cache.prefetches"), 1);
        assert_eq!(c.stats().get("cache.hits"), 1, "next line was prefetched");
    }

    #[test]
    fn prefetch_disabled_by_default() {
        let mut c = cache(false);
        let mut now = Cycle(0);
        let _ = read(&mut c, &mut now, 1, 0);
        for _ in 0..200 {
            c.tick(now);
            let _ = c.take_response(now);
            now = now.next();
        }
        let _ = read(&mut c, &mut now, 2, 32);
        assert_eq!(c.stats().get("cache.prefetches"), 0);
        assert_eq!(c.stats().get("cache.hits"), 0);
    }

    #[test]
    fn prefetch_never_blocks_demand() {
        // With a single MSHR left, prefetch must be dropped, not stall.
        let mut c = cache(true);
        let mut now = Cycle(0);
        // Saturate MSHRs with demand misses to distinct blocks.
        for (i, blk) in [0u64, 64, 128, 192].iter().enumerate() {
            let _ = c.try_request(now, MemReq::read(i as u64, *blk, 8));
        }
        let mut got = 0;
        while got < 4 {
            c.tick(now);
            while c.take_response(now).is_some() {
                got += 1;
            }
            now = now.next();
            assert!(now.raw() < 100_000, "demand starved by prefetch");
        }
    }
}
