//! Banked DRAM timing model.
//!
//! Stands in for the DRAMsim2 instance the paper attaches to the TSIM
//! driver (§7). The model captures the first-order behaviour the evaluation
//! depends on:
//!
//! * **Latency structure** — row-buffer hits are cheap (CAS only), closed
//!   rows pay activate + CAS, and conflicts additionally pay precharge.
//! * **Bank-level parallelism** — independent banks service requests
//!   concurrently, which is what X-Cache's many in-flight walkers exploit.
//! * **Bandwidth** — a single shared data bus serialises transfers at a
//!   fixed bytes/cycle, so request *count* (Figure 14's second axis)
//!   translates into runtime when bandwidth-bound.
//!
//! Transfers longer than one burst occupy the bus for multiple beats, which
//! models SpArch/Gamma row refills fetching whole matrix rows.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;

use xcache_sim::{counter, Cycle, FaultKind, FaultPlan, MsgQueue, Stats};

use crate::{ConfigError, MainMemory, MemReq, MemReqKind, MemResp, MemoryPort};

/// DRAM geometry and timing parameters (in controller cycles @ 1 GHz).
///
/// Defaults approximate DDR3-1600 as configured in DRAMsim2's shipped
/// `ini` files, rounded to integer controller cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels, each with its own data bus; banks
    /// are striped across channels.
    pub channels: usize,
    /// Number of independent banks.
    pub banks: usize,
    /// Bytes per row (row-buffer size).
    pub row_bytes: u64,
    /// Column access latency (row already open).
    pub t_cas: u64,
    /// Row activate latency (row closed).
    pub t_rcd: u64,
    /// Precharge latency (different row open).
    pub t_rp: u64,
    /// Data-bus throughput in bytes per cycle.
    pub bus_bytes_per_cycle: u64,
    /// Burst granularity: a transfer is split into bursts of this size.
    pub burst_bytes: u64,
    /// Refresh interval in cycles (`tREFI`); 0 disables refresh.
    pub t_refi: u64,
    /// Refresh duration in cycles (`tRFC`): all banks blocked, rows closed.
    pub t_rfc: u64,
    /// Per-bank request queue depth.
    pub bank_queue_depth: usize,
    /// Input queue depth (controller front-end).
    pub input_queue_depth: usize,
    /// Response queue depth.
    pub resp_queue_depth: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 1,
            banks: 8,
            row_bytes: 2048,
            t_cas: 14,
            t_rcd: 14,
            t_rp: 14,
            bus_bytes_per_cycle: 8,
            burst_bytes: 64,
            t_refi: 7_800,
            t_rfc: 160,
            bank_queue_depth: 8,
            input_queue_depth: 16,
            resp_queue_depth: 64,
        }
    }
}

impl DramConfig {
    /// A small/fast configuration for unit tests (single-digit latencies).
    #[must_use]
    pub fn test_tiny() -> Self {
        DramConfig {
            channels: 1,
            banks: 2,
            row_bytes: 256,
            t_cas: 2,
            t_rcd: 3,
            t_rp: 3,
            bus_bytes_per_cycle: 8,
            burst_bytes: 32,
            t_refi: 0, // refresh disabled for unit tests
            t_rfc: 0,
            bank_queue_depth: 2,
            input_queue_depth: 4,
            resp_queue_depth: 8,
        }
    }

    /// Bank index for a byte address.
    #[must_use]
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.row_bytes) % self.banks as u64) as usize
    }

    /// Channel index for a byte address (banks striped round-robin).
    #[must_use]
    pub fn channel_of(&self, addr: u64) -> usize {
        self.bank_of(addr) % self.channels.max(1)
    }

    /// Row index (within its bank) for a byte address.
    #[must_use]
    pub fn row_of(&self, addr: u64) -> u64 {
        addr / (self.row_bytes * self.banks as u64)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || !self.channels.is_power_of_two() {
            return Err("channels must be a nonzero power of two".into());
        }
        if self.banks == 0 {
            return Err("banks must be nonzero".into());
        }
        if self.banks < self.channels {
            return Err("banks must be >= channels".into());
        }
        if !self.banks.is_power_of_two() {
            return Err("banks must be a power of two".into());
        }
        if self.banks > 128 {
            return Err("banks must be at most 128 (the width of the bank masks)".into());
        }
        if self.row_bytes == 0 || !self.row_bytes.is_power_of_two() {
            return Err("row_bytes must be a nonzero power of two".into());
        }
        if self.bus_bytes_per_cycle == 0 {
            return Err("bus_bytes_per_cycle must be nonzero".into());
        }
        if self.burst_bytes == 0 {
            return Err("burst_bytes must be nonzero".into());
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Bank {
    open_row: Option<u64>,
    queue: VecDeque<MemReq>,
    /// Bank busy until this cycle (activation/precharge occupancy).
    busy_until: Cycle,
    /// Request currently being serviced, with its completion time.
    in_service: Option<(MemReq, Cycle)>,
}

impl Bank {
    fn new(depth: usize) -> Self {
        Bank {
            open_row: None,
            queue: VecDeque::with_capacity(depth),
            busy_until: Cycle::ZERO,
            in_service: None,
        }
    }
}

/// The banked DRAM timing + functional model.
///
/// Owns a [`MainMemory`] so reads return real data and writes persist —
/// DSA models verify functional results end-to-end, not just timing.
///
/// The tick is event-driven: two due times say when a bank next needs a
/// visit, so a tick with nothing due visits no bank, and `next_event`
/// folds five cycles (refresh, input head, the two due times, response
/// head) without reading a bank. Debug builds re-fold every bank after
/// each tick and assert the masks and due times.
#[derive(Debug)]
pub struct DramModel {
    cfg: DramConfig,
    memory: MainMemory,
    input: MsgQueue<MemReq>,
    resp: MsgQueue<MemResp>,
    banks: Vec<Bank>,
    /// Banks with a transaction in service, one bit per bank
    /// ([`DramConfig::validate`] caps `banks` at 128, the mask width).
    /// `busy()` reads the two masks, and the tick's loops visit their
    /// bits in ascending order, the order of a plain `0..banks` scan.
    svc_mask: u128,
    /// Banks with a non-empty request queue.
    q_mask: u128,
    /// Earliest completion among in-service transactions
    /// ([`Cycle::NEVER`] when none is in service). Lowered where service
    /// starts; re-folded over `svc_mask` by the tick's retire pass, which
    /// runs only once it is due and which retires, drops or holds (behind
    /// a full response queue) each due transaction. A held one keeps it
    /// at or below `now`, so the next tick retries.
    svc_due: Cycle,
    /// Earliest `busy_until` among idle banks with queued requests
    /// ([`Cycle::NEVER`] when there is none). Lowered where a retire or a
    /// dropped fill frees a bank with a queue and where a request lands
    /// in the empty queue of an idle bank; raised to at least `now + t_rfc`
    /// by a refresh (every bank's `busy_until` rises to at least that);
    /// re-folded by the tick's start pass, which runs only once it is due.
    start_due: Cycle,
    /// Per-channel data bus free-from time.
    bus_free_at: Vec<Cycle>,
    /// Next scheduled refresh (Cycle::NEVER when disabled).
    next_refresh: Cycle,
    /// Fault plan captured at construction; `None` = injection off.
    fault: Option<Arc<FaultPlan>>,
    stats: Stats,
}

impl DramModel {
    /// Builds a model from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`DramConfig::validate`]. Fallible callers
    /// should prefer [`try_new`](Self::try_new).
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a model from a configuration, reporting an invalid one as a
    /// structured [`ConfigError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first [`DramConfig::validate`] failure.
    pub fn try_new(cfg: DramConfig) -> Result<Self, ConfigError> {
        cfg.validate().map_err(|reason| ConfigError {
            component: "DramConfig",
            reason,
        })?;
        let banks = (0..cfg.banks)
            .map(|_| Bank::new(cfg.bank_queue_depth))
            .collect();
        let next_refresh = if cfg.t_refi > 0 {
            Cycle(cfg.t_refi)
        } else {
            Cycle::NEVER
        };
        Ok(DramModel {
            input: MsgQueue::new("dram.in", cfg.input_queue_depth, 1),
            resp: MsgQueue::new("dram.resp", cfg.resp_queue_depth, 1),
            banks,
            svc_mask: 0,
            q_mask: 0,
            svc_due: Cycle::NEVER,
            start_due: Cycle::NEVER,
            bus_free_at: vec![Cycle::ZERO; cfg.channels],
            next_refresh,
            memory: MainMemory::new(),
            fault: FaultPlan::current(),
            stats: Stats::new(),
            cfg,
        })
    }

    /// Builds a model around an existing memory image.
    #[must_use]
    pub fn with_memory(cfg: DramConfig, memory: MainMemory) -> Self {
        let mut m = Self::new(cfg);
        m.memory = memory;
        m
    }

    /// Pure per-transaction fault decision (see [`FaultPlan::decide`]).
    fn fault_hit(&self, kind: FaultKind, salt: u64) -> Option<xcache_sim::FaultHit> {
        self.fault.as_ref().and_then(|p| p.decide(kind, salt))
    }

    /// The functional backing store (read-only).
    #[must_use]
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// The functional backing store, for workload setup.
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.memory
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Computes the service latency of `req` on `bank` and updates the row
    /// buffer + stats. Returns the completion cycle.
    fn service(&mut self, bank_idx: usize, req: &MemReq, now: Cycle) -> Cycle {
        let row = self.cfg.row_of(req.addr);
        let bank = &mut self.banks[bank_idx];
        let row_latency = match bank.open_row {
            Some(open) if open == row => {
                self.stats.incr_id(counter!("dram.row_hit"));
                self.cfg.t_cas
            }
            Some(_) => {
                self.stats.incr_id(counter!("dram.row_conflict"));
                self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
            }
            None => {
                self.stats.incr_id(counter!("dram.row_miss"));
                self.cfg.t_rcd + self.cfg.t_cas
            }
        };
        bank.open_row = Some(row);

        // Bus occupancy: the transfer is serialised on its channel's bus.
        let channel = bank_idx % self.cfg.channels;
        let bytes = u64::from(req.len.max(1));
        let bursts = bytes.div_ceil(self.cfg.burst_bytes);
        let beats_per_burst = self.cfg.burst_bytes.div_ceil(self.cfg.bus_bytes_per_cycle);
        let transfer = bursts * beats_per_burst;
        let data_ready = now + row_latency;
        let bus_start = data_ready.max(self.bus_free_at[channel]);
        let mut done = bus_start + transfer;
        self.bus_free_at[channel] = done;
        self.stats.add_id(counter!("dram.bytes"), bytes);
        self.stats
            .add_id(counter!("dram.bus_busy_cycles"), transfer);
        // Injected fill faults that stretch latency are applied once,
        // here, where each transaction is serviced exactly once. Both
        // model a response held back: `dram_delay` inside the device,
        // `resp_stall` as response-queue backpressure.
        if req.kind == MemReqKind::Read {
            if let Some(h) = self.fault_hit(FaultKind::DramDelayFill, req.id.0) {
                self.stats.incr_id(counter!("dram.fault.delayed_fill"));
                done += h.magnitude.max(1);
            }
            if let Some(h) = self.fault_hit(FaultKind::RespBackpressure, req.id.0) {
                self.stats.incr_id(counter!("dram.fault.resp_stall"));
                done += h.magnitude.max(1);
            }
        }
        done
    }

    /// Retires bank `b`'s due in-service transaction (tick step 1, one
    /// bank): drops its fill, holds it behind a full response queue, or
    /// delivers its response.
    fn retire_bank(&mut self, b: usize, now: Cycle) {
        let Some((req, done)) = self.banks[b].in_service.take() else {
            return;
        };
        debug_assert!(done <= now, "bank {b} retired before its completion");
        // Injected fill drop: the transaction completes (bank frees)
        // but its response is never delivered. Pure per-id decision,
        // so every retry/replay of the same id agrees.
        if req.kind == MemReqKind::Read
            && self.fault_hit(FaultKind::DramDropFill, req.id.0).is_some()
        {
            self.stats.incr_id(counter!("dram.fault.dropped_fill"));
            self.free_bank(b);
            return;
        }
        if self.resp.is_full() {
            self.stats.incr_id(counter!("dram.resp_stall"));
            // Hold in service until the response queue drains.
            self.banks[b].in_service = Some((req, done));
            return;
        }
        let data = match req.kind {
            MemReqKind::Read => {
                self.stats.incr_id(counter!("dram.reads"));
                let mut bytes = self.memory.read_vec(req.addr, req.len as usize);
                // Injected ECC flip: one payload bit, chosen by the
                // decision's auxiliary hash.
                if let Some(h) = self.fault_hit(FaultKind::DramEccFlip, req.id.0) {
                    if !bytes.is_empty() {
                        let bit = (h.aux as usize) % (bytes.len() * 8);
                        bytes[bit / 8] ^= 1u8 << (bit % 8);
                        self.stats.incr_id(counter!("dram.fault.ecc_flip"));
                    }
                }
                Bytes::from(bytes)
            }
            MemReqKind::Write => {
                self.stats.incr_id(counter!("dram.writes"));
                self.memory.write(req.addr, &req.data);
                Bytes::new()
            }
        };
        let resp = MemResp {
            id: req.id,
            addr: req.addr,
            data,
            completed_at: done,
        };
        // Full-queue case handled above; if the push is ever refused
        // anyway, hold the transaction in service (backpressure)
        // instead of crashing.
        if self.resp.push(now, resp).is_err() {
            self.stats.incr_id(counter!("dram.fault.resp_overflow"));
            self.banks[b].in_service = Some((req, done));
            return;
        }
        self.free_bank(b);
    }

    /// Marks bank `b`, whose transaction just left service, idle: a bank
    /// with queued requests becomes a start candidate from `busy_until`.
    fn free_bank(&mut self, b: usize) {
        self.svc_mask &= !(1 << b);
        if (self.q_mask & (1 << b)) != 0 {
            self.start_due = self.start_due.min(self.banks[b].busy_until);
        }
    }

    /// Starts servicing the head of idle bank `b`'s queue (tick step 2,
    /// one bank whose `busy_until` has passed).
    fn start_bank(&mut self, b: usize, now: Cycle) {
        let Some(req) = self.banks[b].queue.pop_front() else {
            return;
        };
        let done = self.service(b, &req, now);
        let bank = &mut self.banks[b];
        bank.in_service = Some((req, done));
        bank.busy_until = done;
        self.svc_mask |= 1 << b;
        if bank.queue.is_empty() {
            self.q_mask &= !(1 << b);
        }
        self.svc_due = self.svc_due.min(done);
    }

    /// Re-folds every bank and checks the masks and due times against
    /// the fold: a mismatch means a site that changes a bank's service,
    /// queue or `busy_until` lacks its update.
    #[cfg(debug_assertions)]
    fn assert_due_times(&self, now: Cycle) {
        let (mut svc, mut queued) = (0u128, 0u128);
        let (mut svc_due, mut start_due) = (Cycle::NEVER, Cycle::NEVER);
        for (b, bank) in self.banks.iter().enumerate() {
            if !bank.queue.is_empty() {
                queued |= 1 << b;
            }
            match &bank.in_service {
                Some((_, done)) => {
                    svc |= 1 << b;
                    svc_due = svc_due.min(*done);
                }
                None if !bank.queue.is_empty() => start_due = start_due.min(bank.busy_until),
                None => {}
            }
        }
        assert_eq!(
            (self.svc_mask, self.q_mask),
            (svc, queued),
            "DramModel bank masks (in service, queued) stale after the tick at {now}"
        );
        assert_eq!(
            (self.svc_due, self.start_due),
            (svc_due, start_due),
            "DramModel due times (svc_due, start_due) stale after the tick at {now}"
        );
    }
}

impl MemoryPort for DramModel {
    fn try_request(&mut self, now: Cycle, req: MemReq) -> Result<(), MemReq> {
        // Injected port stall: the port accepts the transaction but holds
        // it on the wire `magnitude` extra cycles before it becomes
        // serviceable (`next_ready` keeps fast-forwarded runs honest).
        // Refusing the push instead would break the `can_accept` contract
        // polite drivers rely on. Keyed purely by request id, so the
        // stall is identical in both skip modes and at any job count.
        let extra = self
            .fault_hit(FaultKind::DramPortStall, req.id.0)
            .map_or(0, |h| h.magnitude.max(1));
        let pushed = self.input.push_after(now, extra, req);
        match pushed {
            Ok(()) => {
                if extra > 0 {
                    self.stats.incr_id(counter!("dram.fault.port_stall"));
                }
                Ok(())
            }
            Err(e) => {
                self.stats.incr_id(counter!("dram.input_stall"));
                Err(e.0)
            }
        }
    }

    fn can_accept(&self) -> bool {
        !self.input.is_full()
    }

    fn take_response(&mut self, now: Cycle) -> Option<MemResp> {
        self.resp.pop(now)
    }

    fn tick(&mut self, now: Cycle) {
        // 0. Refresh: periodically block every bank for tRFC and close
        //    the row buffers (in-flight transfers complete normally).
        if now >= self.next_refresh {
            self.stats.incr_id(counter!("dram.refresh"));
            let until = now + self.cfg.t_rfc;
            for b in &mut self.banks {
                b.busy_until = b.busy_until.max(until);
                b.open_row = None;
            }
            // The earliest of the raised `busy_until`s is the old
            // earliest raised the same way.
            if self.start_due != Cycle::NEVER {
                self.start_due = self.start_due.max(until);
            }
            self.next_refresh += self.cfg.t_refi;
        }

        // 1. Retire due bank transactions into the response queue.
        // 2. Start servicing the head of each idle bank's queue.
        // Each pass runs only once its due time has come, visits only
        // the banks its mask names, and re-folds its due time from what
        // it leaves; bit order is ascending, so the scan order (and with
        // it the bus and response order) matches a plain 0..banks loop.
        if self.svc_due <= now {
            let mut due = Cycle::NEVER;
            let mut m = self.svc_mask;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                if matches!(&self.banks[b].in_service, Some((_, done)) if *done <= now) {
                    self.retire_bank(b, now);
                }
                if let Some((_, done)) = &self.banks[b].in_service {
                    due = due.min(*done);
                }
            }
            self.svc_due = due;
        }
        if self.start_due <= now {
            let mut due = Cycle::NEVER;
            let mut m = self.q_mask & !self.svc_mask;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                let free_at = self.banks[b].busy_until;
                if free_at <= now {
                    self.start_bank(b, now);
                } else {
                    due = due.min(free_at);
                }
            }
            self.start_due = due;
        }

        // 3. Move input-queue requests into bank queues.
        while let Some(req) = self.input.peek(now) {
            let b = self.cfg.bank_of(req.addr);
            if self.banks[b].queue.len() >= self.cfg.bank_queue_depth {
                self.stats.incr_id(counter!("dram.bank_queue_stall"));
                break; // preserve FIFO order from the input queue
            }
            let Some(req) = self.input.pop(now) else {
                // Defensive: the head was peekable above; never panic.
                self.stats.incr_id(counter!("dram.fault.underflow"));
                break;
            };
            self.stats.incr_id(counter!("dram.requests"));
            let bank = &mut self.banks[b];
            if bank.queue.is_empty() && bank.in_service.is_none() {
                self.start_due = self.start_due.min(bank.busy_until);
            }
            bank.queue.push_back(req);
            self.q_mask |= 1 << b;
        }

        #[cfg(debug_assertions)]
        self.assert_due_times(now);
    }

    fn busy(&self) -> bool {
        !self.input.is_empty() || !self.resp.is_empty() || (self.svc_mask | self.q_mask) != 0
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // Candidates, all un-clamped state (the `max(now + 1)` clamp
        // distributes over the fold):
        //
        // * Refresh is a hard event even when idle: it must fire at
        //   exactly `next_refresh` because bank blocking is computed as
        //   `max(busy_until, now + tRFC)` — firing late would diverge.
        // * The input head moves into a bank queue when it becomes
        //   visible; a visible head blocked on a full bank queue counts a
        //   stall every tick, so it pins the wake-up to the next cycle.
        // * `svc_due`: an in-service transaction retires at `done`;
        //   `done <= now` means the retire was held back by a full
        //   response queue this tick (counted per tick), so re-evaluate
        //   next cycle.
        // * `start_due`: a queued request starts service once its bank
        //   frees up.
        // * The head response becoming poppable is the consumer's wake.
        let next = [self.next_refresh, self.svc_due, self.start_due]
            .into_iter()
            .chain(self.input.next_ready())
            .chain(self.resp.next_ready())
            .fold(Cycle::NEVER, Cycle::min);
        (next != Cycle::NEVER).then(|| next.max(now.next()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(dram: &mut DramModel, req: MemReq) -> (MemResp, u64) {
        let start = Cycle(0);
        dram.try_request(start, req).unwrap();
        let mut now = start;
        loop {
            dram.tick(now);
            if let Some(r) = dram.take_response(now) {
                return (r, now.raw());
            }
            now = now.next();
            assert!(now.raw() < 10_000, "dram deadlock");
        }
    }

    #[test]
    fn read_returns_stored_data() {
        let mut d = DramModel::new(DramConfig::test_tiny());
        d.memory_mut().write_u64(0x40, 0xfeed);
        let (resp, _) = run_one(&mut d, MemReq::read(1, 0x40, 8));
        assert_eq!(
            u64::from_le_bytes(resp.data[..8].try_into().unwrap()),
            0xfeed
        );
    }

    #[test]
    fn write_persists_and_acks() {
        let mut d = DramModel::new(DramConfig::test_tiny());
        let (resp, _) = run_one(
            &mut d,
            MemReq::write(2, 0x100, Bytes::copy_from_slice(&7u64.to_le_bytes())),
        );
        assert!(resp.data.is_empty());
        assert_eq!(d.memory().read_u64(0x100), 7);
        assert_eq!(d.stats().get("dram.writes"), 1);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let cfg = DramConfig::test_tiny();
        let mut d = DramModel::new(cfg.clone());
        let (_, t_miss) = run_one(&mut d, MemReq::read(1, 0, 8));
        // Same row again: only CAS, no activate. Time keeps advancing
        // monotonically from the first transaction.
        let start = Cycle(t_miss + 1);
        d.try_request(start, MemReq::read(2, 8, 8)).unwrap();
        let mut now = start;
        let t_hit = loop {
            d.tick(now);
            if d.take_response(now).is_some() {
                break now.since(start);
            }
            now = now.next();
            assert!(now.raw() < 10_000);
        };
        assert!(t_hit < t_miss, "row hit {t_hit} !< row miss {t_miss}");
        assert_eq!(d.stats().get("dram.row_hit"), 1);
        assert_eq!(d.stats().get("dram.row_miss"), 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let cfg = DramConfig::test_tiny();
        let row_stride = cfg.row_bytes * cfg.banks as u64; // same bank, next row
        let mut d = DramModel::new(cfg);
        let (_, _t0) = run_one(&mut d, MemReq::read(1, 0, 8));
        let (_, _t1) = run_one(&mut d, MemReq::read(2, row_stride, 8));
        assert_eq!(d.stats().get("dram.row_conflict"), 1);
    }

    #[test]
    fn banks_service_in_parallel() {
        let cfg = DramConfig::test_tiny();
        let bank_stride = cfg.row_bytes; // consecutive rows land in different banks
        let mut d = DramModel::new(cfg.clone());
        // Two requests to different banks issued together.
        d.try_request(Cycle(0), MemReq::read(1, 0, 8)).unwrap();
        d.try_request(Cycle(0), MemReq::read(2, bank_stride, 8))
            .unwrap();
        let mut now = Cycle(0);
        let mut done = vec![];
        while done.len() < 2 {
            d.tick(now);
            while let Some(r) = d.take_response(now) {
                done.push((r.id, now.raw()));
            }
            now = now.next();
            assert!(now.raw() < 1_000);
        }
        // With parallel banks the second finishes well before 2x the
        // single-request latency (bus transfer is the only serial part).
        let t_last = done.iter().map(|(_, t)| *t).max().unwrap();
        let mut serial = DramModel::new(cfg);
        let (_, t_one) = run_one(&mut serial, MemReq::read(1, 0, 8));
        assert!(
            t_last < 2 * t_one,
            "no bank parallelism: {t_last} vs {t_one}"
        );
    }

    #[test]
    fn long_transfer_occupies_bus_longer() {
        let cfg = DramConfig::test_tiny();
        let mut d_small = DramModel::new(cfg.clone());
        let (_, t_small) = run_one(&mut d_small, MemReq::read(1, 0, 8));
        let mut d_big = DramModel::new(cfg);
        let (_, t_big) = run_one(&mut d_big, MemReq::read(1, 0, 1024));
        assert!(t_big > t_small);
        assert_eq!(d_big.stats().get("dram.bytes"), 1024);
    }

    #[test]
    fn back_pressure_reports_input_stall() {
        let mut cfg = DramConfig::test_tiny();
        cfg.input_queue_depth = 1;
        let mut d = DramModel::new(cfg);
        d.try_request(Cycle(0), MemReq::read(1, 0, 8)).unwrap();
        let err = d.try_request(Cycle(0), MemReq::read(2, 64, 8));
        assert!(err.is_err());
        assert_eq!(d.stats().get("dram.input_stall"), 1);
    }

    #[test]
    fn busy_reflects_outstanding_work() {
        let mut d = DramModel::new(DramConfig::test_tiny());
        assert!(!d.busy());
        d.try_request(Cycle(0), MemReq::read(1, 0, 8)).unwrap();
        assert!(d.busy());
        let mut now = Cycle(0);
        while d.busy() {
            d.tick(now);
            let _ = d.take_response(now);
            now = now.next();
            assert!(now.raw() < 1_000);
        }
    }

    #[test]
    fn config_validation_rejects_bad_geometry() {
        let mut cfg = DramConfig {
            banks: 3,
            ..DramConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.banks = 4;
        cfg.row_bytes = 100;
        assert!(cfg.validate().is_err());
        cfg.row_bytes = 128;
        assert!(cfg.validate().is_ok());
        cfg.banks = 256;
        assert!(cfg.validate().is_err(), "more banks than the masks hold");
        cfg.banks = 128;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn address_mapping_is_consistent() {
        let cfg = DramConfig::default();
        // Addresses one row apart land in adjacent banks.
        assert_ne!(cfg.bank_of(0), cfg.bank_of(cfg.row_bytes));
        // Addresses a full bank-stride apart land in the same bank, next row.
        let stride = cfg.row_bytes * cfg.banks as u64;
        assert_eq!(cfg.bank_of(0), cfg.bank_of(stride));
        assert_eq!(cfg.row_of(0) + 1, cfg.row_of(stride));
    }
}

#[cfg(test)]
mod refresh_tests {
    use super::*;

    #[test]
    fn refresh_fires_periodically_and_closes_rows() {
        let mut cfg = DramConfig::test_tiny();
        cfg.t_refi = 50;
        cfg.t_rfc = 10;
        let mut d = DramModel::new(cfg);
        // Open a row, then tick past two refresh intervals.
        d.try_request(Cycle(0), MemReq::read(1, 0, 8)).unwrap();
        let mut now = Cycle(0);
        while now.raw() < 120 {
            d.tick(now);
            let _ = d.take_response(now);
            now = now.next();
        }
        assert_eq!(d.stats().get("dram.refresh"), 2);
        // A post-refresh access to the previously open row re-activates.
        d.try_request(now, MemReq::read(2, 8, 8)).unwrap();
        while d.busy() {
            d.tick(now);
            let _ = d.take_response(now);
            now = now.next();
        }
        assert_eq!(d.stats().get("dram.row_hit"), 0, "refresh closed the row");
        assert_eq!(d.stats().get("dram.row_miss"), 2);
    }

    #[test]
    fn refresh_blocks_service_for_trfc() {
        let mut cfg = DramConfig::test_tiny();
        cfg.t_refi = 100;
        cfg.t_rfc = 30;
        let mut d = DramModel::new(cfg);
        // Issue right after the first refresh fires.
        let mut now = Cycle(0);
        while now.raw() <= 100 {
            d.tick(now);
            now = now.next();
        }
        d.try_request(now, MemReq::read(1, 0, 8)).unwrap();
        let start = now;
        loop {
            d.tick(now);
            if d.take_response(now).is_some() {
                break;
            }
            now = now.next();
            assert!(now.raw() < 1_000);
        }
        // The access had to wait out the tail of the 30-cycle tRFC.
        assert!(now.since(start) >= 25, "only took {}", now.since(start));
    }

    /// A refresh longer than its interval keeps the banks blocked: the
    /// transaction in flight completes, the one queued behind it never
    /// starts. Each refresh after the first finds that idle bank still
    /// blocked by the one before, the case where the refresh must raise
    /// `start_due` (debug builds check it after every tick).
    #[test]
    fn overlapping_refreshes_hold_queued_requests() {
        let mut cfg = DramConfig::test_tiny();
        cfg.t_refi = 10;
        cfg.t_rfc = 25;
        let mut d = DramModel::new(cfg);
        d.try_request(Cycle(0), MemReq::read(1, 0, 8)).unwrap();
        d.try_request(Cycle(0), MemReq::read(2, 8, 8)).unwrap();
        let mut got = Vec::new();
        for c in 0..100 {
            d.tick(Cycle(c));
            got.extend(d.take_response(Cycle(c)).map(|r| r.id.0));
        }
        assert_eq!(got, vec![1]);
        assert_eq!(d.stats().get("dram.refresh"), 9);
        assert!(d.busy(), "request 2 still queued");
    }

    #[test]
    fn zero_trefi_never_refreshes() {
        let mut d = DramModel::new(DramConfig::test_tiny());
        for c in 0..10_000 {
            d.tick(Cycle(c));
        }
        assert_eq!(d.stats().get("dram.refresh"), 0);
    }
}

#[cfg(test)]
mod channel_tests {
    use super::*;

    fn run_bulk(channels: usize, reqs: usize) -> u64 {
        let mut cfg = DramConfig::test_tiny();
        cfg.channels = channels;
        cfg.banks = 4;
        cfg.bank_queue_depth = 8;
        cfg.input_queue_depth = 64;
        cfg.resp_queue_depth = 64;
        let mut d = DramModel::new(cfg.clone());
        // Large transfers to adjacent banks: bus-bound workload.
        let mut now = Cycle(0);
        let mut issued = 0usize;
        let mut done = 0usize;
        while done < reqs {
            while issued < reqs {
                let addr = issued as u64 * cfg.row_bytes;
                if d.try_request(now, MemReq::read(issued as u64, addr, 256))
                    .is_err()
                {
                    break;
                }
                issued += 1;
            }
            d.tick(now);
            while d.take_response(now).is_some() {
                done += 1;
            }
            now = now.next();
            assert!(now.raw() < 1_000_000);
        }
        now.raw()
    }

    #[test]
    fn more_channels_more_bandwidth() {
        let one = run_bulk(1, 32);
        let two = run_bulk(2, 32);
        let four = run_bulk(4, 32);
        assert!(two < one, "2 channels {two} !< 1 channel {one}");
        assert!(four <= two, "4 channels {four} !<= 2 channels {two}");
    }

    #[test]
    fn channel_mapping_covers_all_channels() {
        let cfg = DramConfig {
            channels: 2,
            ..DramConfig::default()
        };
        let used: std::collections::HashSet<usize> = (0..16u64)
            .map(|i| cfg.channel_of(i * cfg.row_bytes))
            .collect();
        assert_eq!(used.len(), 2);
    }

    #[test]
    fn validation_rejects_bad_channel_counts() {
        let mut cfg = DramConfig {
            channels: 3,
            ..DramConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.channels = 16;
        cfg.banks = 8;
        assert!(cfg.validate().is_err(), "channels > banks");
    }
}

#[cfg(test)]
mod fault_tests {
    use std::sync::Arc;

    use xcache_sim::{with_fault_plan, FaultPlan};

    use super::*;

    /// Drives `reqs` reads to completion, returning (model, final cycle).
    fn drain(mut d: DramModel, reqs: usize) -> (DramModel, u64) {
        let mut now = Cycle(0);
        let mut issued = 0usize;
        let mut done = 0usize;
        let mut held: Option<MemReq> = None;
        while done < reqs {
            while issued < reqs || held.is_some() {
                let req = held
                    .take()
                    .unwrap_or_else(|| MemReq::read(issued as u64 + 1, issued as u64 * 64, 8));
                match d.try_request(now, req) {
                    Ok(()) => issued += 1,
                    Err(r) => {
                        held = Some(r);
                        break;
                    }
                }
            }
            d.tick(now);
            while d.take_response(now).is_some() {
                done += 1;
            }
            now = now.next();
            assert!(now.raw() < 200_000, "dram chaos deadlock at {done}/{reqs}");
        }
        (d, now.raw())
    }

    /// Satellite regression: a full response queue is back-pressure — the
    /// retire is held (counted per tick) and re-offered, never a panic.
    #[test]
    fn full_resp_queue_backpressures_instead_of_crashing() {
        let mut cfg = DramConfig::test_tiny();
        cfg.resp_queue_depth = 1;
        cfg.input_queue_depth = 16;
        cfg.bank_queue_depth = 8;
        let mut d = DramModel::new(cfg);
        for i in 0..6u64 {
            d.try_request(Cycle(0), MemReq::read(i + 1, i * 64, 8))
                .unwrap();
        }
        // Consume only every 8th cycle so retires pile up behind the
        // single-entry response queue.
        let mut now = Cycle(0);
        let mut got = 0usize;
        while got < 6 {
            d.tick(now);
            if now.raw().is_multiple_of(8) {
                while d.take_response(now).is_some() {
                    got += 1;
                }
            }
            now = now.next();
            assert!(now.raw() < 10_000, "backpressure hang");
        }
        assert!(
            d.stats().get("dram.resp_stall") > 0,
            "expected held retires to be counted"
        );
    }

    #[test]
    fn injected_faults_count_and_never_hang_the_model() {
        let plan = Arc::new(
            FaultPlan::parse(
                "dram_drop=0.2,dram_delay=0.3:40,dram_ecc=0.3,port_stall=0.2:3,resp_stall=0.2:16",
                7,
            )
            .unwrap(),
        );
        let dropped = with_fault_plan(Some(plan), || {
            // Issue 64 reads but only require the non-dropped ones back.
            let mut cfg = DramConfig::test_tiny();
            cfg.input_queue_depth = 16;
            let mut d = DramModel::new(cfg);
            let mut now = Cycle(0);
            let mut issued = 0usize;
            let mut held: Option<MemReq> = None;
            let mut got = 0usize;
            while issued < 64 || d.busy() {
                while issued < 64 || held.is_some() {
                    let req = held
                        .take()
                        .unwrap_or_else(|| MemReq::read(issued as u64 + 1, issued as u64 * 64, 8));
                    match d.try_request(now, req) {
                        Ok(()) => issued += 1,
                        Err(r) => {
                            held = Some(r);
                            break;
                        }
                    }
                }
                d.tick(now);
                while d.take_response(now).is_some() {
                    got += 1;
                }
                now = now.next();
                assert!(now.raw() < 500_000, "fault chaos hang at {got}/64");
            }
            let injected = d.stats().get("dram.fault.dropped_fill")
                + d.stats().get("dram.fault.delayed_fill")
                + d.stats().get("dram.fault.ecc_flip")
                + d.stats().get("dram.fault.port_stall")
                + d.stats().get("dram.fault.resp_stall");
            assert!(injected > 0, "aggressive plan injected nothing");
            assert_eq!(
                got as u64 + d.stats().get("dram.fault.dropped_fill"),
                64,
                "responses + drops must conserve transactions"
            );
            d.stats().get("dram.fault.dropped_fill")
        });
        assert!(dropped > 0, "drop=0.2 over 64 reads never fired");
    }

    /// Dropped fills consume the transaction without a response: the
    /// upper layer's watchdog is the recovery path, not a DRAM hang.
    #[test]
    fn dropped_fill_loses_exactly_the_decided_responses() {
        let plan = Arc::new(FaultPlan::parse("dram_drop=1.0", 11).unwrap());
        with_fault_plan(Some(plan), || {
            let mut d = DramModel::new(DramConfig::test_tiny());
            d.try_request(Cycle(0), MemReq::read(1, 0, 8)).unwrap();
            for c in 0..200 {
                d.tick(Cycle(c));
                assert!(d.take_response(Cycle(c)).is_none(), "drop=1.0 responded");
            }
            assert_eq!(d.stats().get("dram.fault.dropped_fill"), 1);
            assert!(!d.busy(), "dropped transaction still pending");
        });
    }

    /// Same seed, same traffic: identical stats. Different seed: the
    /// injection pattern moves.
    #[test]
    fn fault_injection_is_seed_deterministic() {
        let run = |seed: u64| {
            let plan = Arc::new(FaultPlan::parse("dram_delay=0.3:24,dram_ecc=0.2", seed).unwrap());
            with_fault_plan(Some(plan), || {
                let (d, end) = drain(DramModel::new(DramConfig::test_tiny()), 48);
                (format!("{:?}", d.stats().snapshot()), end)
            })
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn no_plan_means_no_fault_counters() {
        let (d, _) = with_fault_plan(None, || drain(DramModel::new(DramConfig::test_tiny()), 32));
        for key in [
            "dram.fault.dropped_fill",
            "dram.fault.delayed_fill",
            "dram.fault.ecc_flip",
            "dram.fault.port_stall",
            "dram.fault.resp_overflow",
            "dram.fault.underflow",
        ] {
            assert_eq!(d.stats().get(key), 0, "{key} fired with no plan");
        }
    }

    #[test]
    fn try_new_reports_config_error_instead_of_panicking() {
        let cfg = DramConfig {
            banks: 3,
            ..DramConfig::default()
        };
        let err = DramModel::try_new(cfg).expect_err("must reject");
        assert_eq!(err.component, "DramConfig");
        assert!(err.to_string().starts_with("invalid DramConfig:"));
    }
}
