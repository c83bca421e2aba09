//! X-Cache hierarchies (§6).
//!
//! Three compositions:
//!
//! * **MX** (multi-level X-Cache): [`MetaL1`] is an upstream X-Cache level
//!   *without a walker* — "similar to a conventional cache, it requests a
//!   meta-tag at a time from the downstream X-Cache. Only the last-level
//!   X-Cache includes a walker and address-translation." Metadata is a
//!   global namespace, so the same [`MetaKey`] indexes every level.
//! * **MXA** (X-Cache over an address cache): already expressed by the
//!   type system — `XCache<AddressCache<DramModel>>`. The X-Cache walks and
//!   generates addresses at the boundary; the address cache sees a stream
//!   of line requests and is non-inclusive (different namespaces).
//! * **MXS** (X-Cache + streaming): an [`XCache`](crate::XCache) and a
//!   [`StreamReader`](crate::StreamReader) sharing DRAM through
//!   [`SharedPort`](xcache_mem::SharedPort) handles.
//!
//! The [`MetaPort`] trait is the meta-access analogue of
//! [`MemoryPort`](xcache_mem::MemoryPort): it is what lets levels stack.

use std::collections::{HashMap, VecDeque};

use xcache_mem::MemoryPort;
use xcache_sim::{counter, Cycle, MsgQueue, Stats};

use crate::{
    dataram::DataRam, metatag::MetaTagArray, MetaAccess, MetaKey, MetaResp, XCache, XCacheConfig,
};

/// A component that accepts meta accesses and produces meta responses —
/// implemented by [`XCache`] (the last level, with walkers) and by
/// [`MetaL1`] (upstream, walker-less), so hierarchies stack.
pub trait MetaPort {
    /// Offers an access; hands it back on back-pressure.
    ///
    /// # Errors
    ///
    /// Returns `Err(access)` when the input queue is full this cycle.
    fn try_access(&mut self, now: Cycle, access: MetaAccess) -> Result<(), MetaAccess>;

    /// Whether [`try_access`](Self::try_access) would currently be
    /// accepted. Polite drivers check before offering so refusals are
    /// never charged as stalls.
    fn can_accept(&self) -> bool;

    /// Removes one ready response, if any.
    fn take_response(&mut self, now: Cycle) -> Option<MetaResp>;

    /// Advances one cycle.
    fn tick(&mut self, now: Cycle);

    /// Whether work is outstanding.
    fn busy(&self) -> bool;

    /// Earliest cycle strictly after `now` at which `tick` could do
    /// observable work, or `None` when idle with nothing scheduled. The
    /// `next_event` contract on [`fast_forward`](xcache_sim::fast_forward).
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now.next())
    }
}

impl<D: MemoryPort> MetaPort for XCache<D> {
    fn try_access(&mut self, now: Cycle, access: MetaAccess) -> Result<(), MetaAccess> {
        XCache::try_access(self, now, access)
    }
    fn can_accept(&self) -> bool {
        XCache::can_accept(self)
    }
    fn take_response(&mut self, now: Cycle) -> Option<MetaResp> {
        XCache::take_response(self, now)
    }
    fn tick(&mut self, now: Cycle) {
        XCache::tick(self, now);
    }
    fn busy(&self) -> bool {
        XCache::busy(self)
    }
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        XCache::next_event(self, now)
    }
}

/// Geometry of a [`MetaL1`] level.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaL1Config {
    /// Meta-tag sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Words per sector.
    pub words_per_sector: usize,
    /// Data sectors.
    pub data_sectors: usize,
    /// Hit load-to-use latency.
    pub hit_latency: u64,
    /// Access/response queue depth.
    pub queue_depth: usize,
}

impl Default for MetaL1Config {
    fn default() -> Self {
        MetaL1Config {
            sets: 64,
            ways: 2,
            words_per_sector: 4,
            data_sectors: 256,
            hit_latency: 1,
            queue_depth: 16,
        }
    }
}

/// An upstream X-Cache level with no walker (the MX hierarchy's L1).
///
/// Loads that hit are served locally at `hit_latency`; misses forward the
/// key — one meta-tag at a time — to the downstream [`MetaPort`] and fill
/// on response. Stores and takes are forwarded unconditionally (the L1
/// entry is invalidated so merge semantics stay at the owning level).
#[derive(Debug)]
pub struct MetaL1<L> {
    cfg: MetaL1Config,
    tags: MetaTagArray,
    data: DataRam,
    access_q: MsgQueue<MetaAccess>,
    resp_q: MsgQueue<MetaResp>,
    /// Responses waiting for a slot in `resp_q`, oldest first: a fill
    /// answers all its waiters at once, and none is ever dropped.
    held: VecDeque<MetaResp>,
    /// key → upstream accesses waiting on a downstream fill.
    outstanding: HashMap<MetaKey, Vec<MetaAccess>>,
    /// Ids of accesses we forwarded verbatim (stores/takes): their
    /// responses pass through without filling.
    passthrough: HashMap<u64, ()>,
    downstream: L,
    next_fill_id: u64,
    stats: Stats,
}

impl MetaL1Config {
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
        if self.words_per_sector == 0 || self.data_sectors == 0 {
            return Err("data geometry must be nonzero".into());
        }
        if self.queue_depth == 0 {
            return Err("queue_depth must be nonzero".into());
        }
        Ok(())
    }
}

impl<L: MetaPort> MetaL1<L> {
    /// Builds an L1 over `downstream`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MetaL1Config::validate`].
    #[must_use]
    pub fn new(cfg: MetaL1Config, downstream: L) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid MetaL1Config: {e}");
        }
        MetaL1 {
            tags: MetaTagArray::new(cfg.sets, cfg.ways),
            data: DataRam::new(cfg.data_sectors, cfg.words_per_sector),
            access_q: MsgQueue::new("metal1.access", cfg.queue_depth, 1),
            resp_q: MsgQueue::new("metal1.resp", cfg.queue_depth * 4, cfg.hit_latency.max(1)),
            held: VecDeque::new(),
            outstanding: HashMap::new(),
            passthrough: HashMap::new(),
            downstream,
            next_fill_id: 1 << 40,
            stats: Stats::new(),
            cfg,
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The level below.
    #[must_use]
    pub fn downstream(&self) -> &L {
        &self.downstream
    }

    /// The level below, mutably.
    pub fn downstream_mut(&mut self) -> &mut L {
        &mut self.downstream
    }

    /// L1 hit ratio so far, or `None` before any load.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let h = self.stats.get("metal1.hit");
        let m = self.stats.get("metal1.miss");
        (h + m > 0).then(|| h as f64 / (h + m) as f64)
    }

    /// Queues `resp` behind any held responses, or holds it while
    /// `resp_q` is full.
    fn respond(&mut self, now: Cycle, resp: MetaResp) {
        if !self.held.is_empty() {
            self.held.push_back(resp);
        } else if let Err(full) = self.resp_q.push(now, resp) {
            self.held.push_back(full.0);
        }
    }

    fn fill_local(&mut self, key: MetaKey, words: &[u64]) {
        let sectors = words.len().div_ceil(self.cfg.words_per_sector).max(1);
        // Make room: evict idle entries while allocation fails.
        let start = loop {
            if let Some(s) = self.data.alloc(sectors, &mut self.stats) {
                break Some(s);
            }
            match self.tags.idle_victim() {
                Some(r) => {
                    let e = self.tags.invalidate(r, &mut self.stats);
                    self.data.free(e.sector_start, e.sector_count);
                    self.stats.incr_id(counter!("metal1.capacity_evict"));
                }
                None => break None,
            }
        };
        let Some(start) = start else {
            return; // cannot cache; serve uncached
        };
        let Some((r, evicted)) =
            self.tags
                .alloc(key, xcache_isa::StateId::DEFAULT, &mut self.stats)
        else {
            self.data.free(start, sectors as u32);
            return;
        };
        if let Some(v) = evicted {
            if v.sector_count > 0 {
                self.data.free(v.sector_start, v.sector_count);
            }
        }
        for (i, w) in words.iter().enumerate() {
            self.data.write_word(
                start + (i / self.cfg.words_per_sector) as u32,
                (i % self.cfg.words_per_sector) as u32,
                *w,
                &mut self.stats,
            );
        }
        self.tags.update_entry(r, |e| {
            e.sector_start = start;
            e.sector_count = sectors as u32;
            e.active = false;
        });
    }
}

impl<L: MetaPort> MetaPort for MetaL1<L> {
    fn try_access(&mut self, now: Cycle, access: MetaAccess) -> Result<(), MetaAccess> {
        self.access_q.push(now, access).map_err(|e| e.0)
    }

    fn can_accept(&self) -> bool {
        !self.access_q.is_full()
    }

    fn take_response(&mut self, now: Cycle) -> Option<MetaResp> {
        self.resp_q.pop(now)
    }

    fn tick(&mut self, now: Cycle) {
        self.downstream.tick(now);

        // Held responses take the slots the upstream freed, oldest first.
        while let Some(resp) = self.held.pop_front() {
            if let Err(full) = self.resp_q.push(now, resp) {
                self.held.push_front(full.0);
                break;
            }
        }

        // Downstream responses: fills or passthroughs.
        while let Some(resp) = self.downstream.take_response(now) {
            if self.passthrough.remove(&resp.id).is_some() {
                self.respond(now, resp);
                continue;
            }
            // A fill we issued: satisfy all waiters and cache locally.
            if let Some(waiters) = self.outstanding.remove(&resp.key) {
                if resp.found {
                    self.fill_local(resp.key, &resp.data);
                }
                for w in waiters {
                    self.respond(
                        now,
                        MetaResp {
                            id: w.id(),
                            key: resp.key,
                            found: resp.found,
                            data: resp.data.clone(),
                        },
                    );
                }
            }
        }

        // One access per cycle (single tag port).
        let Some(&access) = self.access_q.peek(now) else {
            return;
        };
        match access {
            MetaAccess::Load { id, key } => {
                // Coalesce onto an outstanding downstream fill.
                if let Some(waiters) = self.outstanding.get_mut(&key) {
                    waiters.push(access);
                    self.access_q.pop(now);
                    self.stats.incr_id(counter!("metal1.coalesced"));
                    return;
                }
                // A hit needs a response slot; without one the tag port stalls.
                let hit = self.tags.peek(key);
                if hit.is_some() && (!self.held.is_empty() || self.resp_q.is_full()) {
                    self.stats.incr_id(counter!("metal1.resp_stall"));
                    return;
                }
                if let Some(r) = self.tags.probe_at(hit, &mut self.stats) {
                    let e = *self.tags.entry(r);
                    self.access_q.pop(now);
                    self.stats.incr_id(counter!("metal1.hit"));
                    let data = self
                        .data
                        .gather(e.sector_start, e.sector_count, &mut self.stats);
                    self.respond(
                        now,
                        MetaResp {
                            id,
                            key,
                            found: true,
                            data,
                        },
                    );
                    return;
                }
                // Miss: request the meta-tag from the level below.
                let fill_id = self.next_fill_id;
                match self
                    .downstream
                    .try_access(now, MetaAccess::Load { id: fill_id, key })
                {
                    Ok(()) => {
                        self.access_q.pop(now);
                        self.next_fill_id += 1;
                        self.stats.incr_id(counter!("metal1.miss"));
                        self.outstanding.insert(key, vec![access]);
                    }
                    Err(_) => {
                        self.stats.incr_id(counter!("metal1.downstream_stall"));
                    }
                }
            }
            MetaAccess::Store { id, key, .. } | MetaAccess::Take { id, key } => {
                // Forward; invalidate any local copy so the owning level's
                // merge/drain semantics stay authoritative.
                match self.downstream.try_access(now, access) {
                    Ok(()) => {
                        self.access_q.pop(now);
                        if let Some(r) = self.tags.peek(key) {
                            let e = self.tags.invalidate(r, &mut self.stats);
                            if e.sector_count > 0 {
                                self.data.free(e.sector_start, e.sector_count);
                            }
                            self.stats.incr_id(counter!("metal1.inval"));
                        }
                        self.passthrough.insert(id, ());
                        self.stats.incr_id(counter!("metal1.forward"));
                    }
                    Err(_) => {
                        self.stats.incr_id(counter!("metal1.downstream_stall"));
                    }
                }
            }
        }
    }

    fn busy(&self) -> bool {
        !self.access_q.is_empty()
            || !self.resp_q.is_empty()
            || !self.held.is_empty()
            || !self.outstanding.is_empty()
            || !self.passthrough.is_empty()
            || self.downstream.busy()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next = Cycle::NEVER;
        let mut wake = |t: Cycle| next = next.min(t);
        // A visible head access is processed (or counted as a
        // downstream stall) every cycle; an in-flight head wakes us when
        // it becomes visible.
        if let Some(ready) = self.access_q.next_ready() {
            wake(ready.max(now.next()));
        }
        if let Some(ready) = self.resp_q.next_ready() {
            wake(ready.max(now.next()));
        }
        // A held response moves into a slot the upstream frees.
        if !self.held.is_empty() {
            wake(now.next());
        }
        if let Some(t) = self.downstream.next_event(now) {
            wake(t.max(now.next()));
        }
        if next == Cycle::NEVER {
            return self.busy().then(|| now.next());
        }
        Some(next)
    }
}

/// Convenience alias: a two-level MX hierarchy over any memory level.
pub type Mx<D> = MetaL1<XCache<D>>;

/// Builds an MX hierarchy: `l1_cfg` on top of an [`XCache`] generated from
/// `cfg`/`program` over `downstream`.
///
/// # Errors
///
/// Propagates [`BuildError`](crate::BuildError) from the last-level
/// X-Cache generator.
pub fn build_mx<D: MemoryPort>(
    l1_cfg: MetaL1Config,
    cfg: XCacheConfig,
    program: xcache_isa::WalkerProgram,
    downstream: D,
) -> Result<Mx<D>, crate::BuildError> {
    Ok(MetaL1::new(l1_cfg, XCache::new(cfg, program, downstream)?))
}
