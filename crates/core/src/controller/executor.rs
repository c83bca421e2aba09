//! Executor stage (back-end, §4.3).
//!
//! `#Exe` executor lanes each run one action of a woken routine per cycle.
//! Routines are *direct-threaded*: at build time every verified routine is
//! pre-decoded ([`xcache_isa::predecode`]) and paired with a handler
//! function pointer per action, so the per-cycle fetch is one indexed load
//! plus an indirect call — no re-decoding of the `Action` enum on the hot
//! path. Handlers evaluate operands against the walker's X-register file
//! and the shared structural state (meta-tag array, data RAM, downstream
//! port); their [`Outcome`] advances, redirects, stalls, or ends the
//! routine.
//!
//! Action execution is fallible: walker-context accesses go through the
//! checked [`wk`](XCache::wk)/[`wk_mut`](XCache::wk_mut) accessors, and
//! any [`SimError`] faults the offending walker (counted in
//! `xcache.walker_error`) instead of panicking the simulation.

use bytes::Bytes;

use xcache_isa::predecode::{DecKind, DecOp, DecOperand, DecodedProgram};
use xcache_isa::ActionCategory;
use xcache_mem::{MemReq, MemoryPort};
use xcache_sim::{counter, CounterId, Cycle, TraceKind};

use crate::{splitmix64, MetaAccess, MetaKey};

use super::{SimError, XCache, HAZARD_RETRY, STALL_LIMIT};

/// How one executed action leaves its lane.
pub(super) enum Outcome {
    Advance,
    Jump(usize),
    Stall,
    /// Stalled on a resource held by another walker (see [`HAZARD_RETRY`]).
    StallHazard,
    YieldLane,
    FreeLane,
}

/// An action handler: executes one decoded op for the walker in `slot`.
type Handler<D> = fn(&mut XCache<D>, Cycle, usize, &DecOp) -> Result<Outcome, SimError>;

/// One word of the direct-threaded dispatch table: the decoded op, its
/// handler, and its pre-resolved stat category counter.
pub(crate) struct OpEntry<D> {
    handler: Handler<D>,
    op: DecOp,
    category: CounterId,
}

// Manual impls: `#[derive]` would put a bound on `D`, which only appears
// behind a fn pointer here.
impl<D> Clone for OpEntry<D> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<D> Copy for OpEntry<D> {}

impl<D> std::fmt::Debug for OpEntry<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpEntry").field("op", &self.op).finish()
    }
}

/// Builds the dispatch table for a pre-decoded program: `table[r][pc]`
/// mirrors `program.routines[r].actions[pc]` (branch targets carry over).
pub(super) fn build_dispatch<D: MemoryPort>(decoded: &DecodedProgram) -> Vec<Box<[OpEntry<D>]>> {
    decoded
        .routines
        .iter()
        .map(|r| {
            r.iter()
                .map(|&op| OpEntry {
                    handler: handler_for::<D>(op.kind),
                    op,
                    category: category_counter(op.category),
                })
                .collect()
        })
        .collect()
}

fn handler_for<D: MemoryPort>(kind: DecKind) -> Handler<D> {
    match kind {
        DecKind::AluAdd => h_alu_add,
        DecKind::AluSub => h_alu_sub,
        DecKind::AluAnd => h_alu_and,
        DecKind::AluOr => h_alu_or,
        DecKind::AluXor => h_alu_xor,
        DecKind::AluShl => h_alu_shl,
        DecKind::AluSrl => h_alu_srl,
        DecKind::AluSra => h_alu_sra,
        DecKind::AluMul => h_alu_mul,
        DecKind::Mov => h_mov,
        DecKind::AllocR => h_alloc_r,
        DecKind::Hash => h_hash,
        DecKind::DramRead => h_dram_read,
        DecKind::DramWrite => h_dram_write,
        DecKind::PostEvent => h_post_event,
        DecKind::Peek => h_peek,
        DecKind::Respond => h_respond,
        DecKind::AllocM => h_alloc_m,
        DecKind::DeallocM => h_dealloc_m,
        DecKind::PinM => h_pin_m,
        DecKind::InsertM => h_insert_m,
        DecKind::UpdateM => h_update_m,
        DecKind::BrEq => h_br_eq,
        DecKind::BrNe => h_br_ne,
        DecKind::BrLt => h_br_lt,
        DecKind::BrGe => h_br_ge,
        DecKind::BrLe => h_br_le,
        DecKind::BrMiss => h_br_miss,
        DecKind::BrHit => h_br_hit,
        DecKind::Yield => h_yield,
        DecKind::Retire => h_retire,
        DecKind::Fault => h_fault,
        DecKind::AllocD => h_alloc_d,
        DecKind::DeallocD => h_dealloc_d,
        DecKind::ReadD => h_read_d,
        DecKind::WriteD => h_write_d,
        DecKind::FillD => h_fill_d,
    }
}

impl<D: MemoryPort> XCache<D> {
    /// Runs every active lane for one cycle: each lane not parked on a
    /// yield executes exactly one action of its routine.
    pub(super) fn execute(&mut self, now: Cycle) {
        for lane_idx in 0..self.lanes.len() {
            let Some(mut lane) = self.lanes[lane_idx] else {
                continue;
            };
            if lane.waiting {
                continue;
            }
            if !self.arena.is_live(lane.slot) {
                // Walker faulted earlier this cycle.
                self.lanes[lane_idx] = None;
                continue;
            }
            // Copy the table word out: entries are small and `Copy`, and
            // handlers need `&mut self`.
            let entry = self.dispatch[lane.routine.0 as usize][lane.pc];
            self.stats.incr_id(counter!("xcache.ucode_read"));
            self.stats.incr_id(entry.category);
            let outcome = match (entry.handler)(self, now, lane.slot, &entry.op) {
                Ok(o) => o,
                Err(mut e) => {
                    e.routine = Some(self.program.routines[lane.routine.0 as usize].name.clone());
                    self.runtime_error(now, &e)
                }
            };
            match outcome {
                Outcome::Advance => {
                    lane.pc += 1;
                    lane.stall_cycles = 0;
                    self.lanes[lane_idx] = Some(lane);
                    self.note_progress(now, lane.slot);
                }
                Outcome::Jump(pc) => {
                    lane.pc = pc;
                    lane.stall_cycles = 0;
                    self.lanes[lane_idx] = Some(lane);
                    self.note_progress(now, lane.slot);
                }
                Outcome::Stall => {
                    lane.stall_cycles += 1;
                    self.stats.incr_id(counter!("xcache.exec_stall"));
                    if lane.stall_cycles > STALL_LIMIT {
                        self.stats.incr_id(counter!("xcache.walker_timeout"));
                        self.lanes[lane_idx] = None;
                        self.fault_walker(now, lane.slot);
                    } else {
                        self.lanes[lane_idx] = Some(lane);
                    }
                }
                Outcome::StallHazard => {
                    lane.stall_cycles += 1;
                    self.stats.incr_id(counter!("xcache.exec_stall"));
                    if lane.stall_cycles > HAZARD_RETRY {
                        self.lanes[lane_idx] = None;
                        self.abort_and_replay(now, lane.slot);
                    } else {
                        self.lanes[lane_idx] = Some(lane);
                    }
                }
                Outcome::YieldLane => {
                    if self.yield_holds_lane {
                        lane.waiting = true;
                        self.lanes[lane_idx] = Some(lane);
                    } else {
                        // A freed lane can unblock a refused launch.
                        self.wait.wake_lane();
                        self.lanes[lane_idx] = None;
                        self.arena.in_lane[lane.slot] = false;
                    }
                    self.trace.emit_with(now, TraceKind::Yield, "xcache", || {
                        format!("slot {}", lane.slot)
                    });
                    self.note_progress(now, lane.slot);
                }
                Outcome::FreeLane => {
                    self.lanes[lane_idx] = None;
                }
            }
        }
    }

    /// Records forward progress for the watchdog: the walker in `slot`
    /// advanced at `now`. Stalled outcomes deliberately do *not* count —
    /// a lane spinning on a hazard is exactly what the watchdog exists
    /// to interrupt.
    fn note_progress(&mut self, now: Cycle, slot: usize) {
        self.global_progress = now;
        if self.arena.is_live(slot) {
            self.arena.last_progress[slot] = now;
        }
    }

    /// Evaluates a decoded operand for the walker in `slot`.
    fn dval(&mut self, now: Cycle, slot: usize, op: DecOperand) -> Result<u64, SimError> {
        Ok(match op {
            DecOperand::Reg(r) => {
                self.xregs
                    .read(crate::xreg::XRegFile(slot as u16), r, &mut self.stats)
            }
            DecOperand::Imm(v) => v,
            DecOperand::Key => self.wk(slot, now)?.key.0,
            DecOperand::MsgWord(i) => {
                self.wk(slot, now)?;
                self.arena.msg[slot][usize::from(i)]
            }
            DecOperand::MetaSector => {
                let r = self
                    .wk(slot, now)?
                    .entry
                    .ok_or_else(|| SimError::new(slot, now, "MetaSector without meta entry"))?;
                u64::from(self.tags.entry(r).sector_start)
            }
            DecOperand::None => 0,
        })
    }

    fn write_reg(&mut self, slot: usize, reg: u8, value: u64) {
        self.xregs.write(
            crate::xreg::XRegFile(slot as u16),
            reg,
            value,
            &mut self.stats,
        );
    }
}

macro_rules! alu_handlers {
    ($($name:ident: |$x:ident, $y:ident| $e:expr;)*) => {
        $(
            fn $name<D: MemoryPort>(
                xc: &mut XCache<D>,
                now: Cycle,
                slot: usize,
                op: &DecOp,
            ) -> Result<Outcome, SimError> {
                let $x = xc.dval(now, slot, op.a)?;
                let $y = xc.dval(now, slot, op.b)?;
                xc.write_reg(slot, op.dst, $e);
                Ok(Outcome::Advance)
            }
        )*
    };
}

alu_handlers! {
    h_alu_add: |x, y| x.wrapping_add(y);
    h_alu_sub: |x, y| x.wrapping_sub(y);
    h_alu_and: |x, y| x & y;
    h_alu_or:  |x, y| x | y;
    h_alu_xor: |x, y| x ^ y;
    h_alu_shl: |x, y| x.wrapping_shl(y as u32);
    h_alu_srl: |x, y| x.wrapping_shr(y as u32);
    h_alu_sra: |x, y| ((x as i64).wrapping_shr(y as u32)) as u64;
    h_alu_mul: |x, y| x.wrapping_mul(y);
}

macro_rules! branch_handlers {
    ($($name:ident: |$x:ident, $y:ident| $e:expr;)*) => {
        $(
            fn $name<D: MemoryPort>(
                xc: &mut XCache<D>,
                now: Cycle,
                slot: usize,
                op: &DecOp,
            ) -> Result<Outcome, SimError> {
                let $x = xc.dval(now, slot, op.a)?;
                let $y = xc.dval(now, slot, op.b)?;
                Ok(if $e {
                    Outcome::Jump(op.aux as usize)
                } else {
                    Outcome::Advance
                })
            }
        )*
    };
}

branch_handlers! {
    h_br_eq: |x, y| x == y;
    h_br_ne: |x, y| x != y;
    h_br_lt: |x, y| x < y;
    h_br_ge: |x, y| x >= y;
    h_br_le: |x, y| x <= y;
}

fn h_br_miss<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    Ok(if xc.wk(slot, now)?.probe_hit {
        Outcome::Advance
    } else {
        Outcome::Jump(op.aux as usize)
    })
}

fn h_br_hit<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    Ok(if xc.wk(slot, now)?.probe_hit {
        Outcome::Jump(op.aux as usize)
    } else {
        Outcome::Advance
    })
}

fn h_mov<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    let v = xc.dval(now, slot, op.a)?;
    xc.write_reg(slot, op.dst, v);
    Ok(Outcome::Advance)
}

fn h_alloc_r<D: MemoryPort>(
    _xc: &mut XCache<D>,
    _now: Cycle,
    _slot: usize,
    _op: &DecOp,
) -> Result<Outcome, SimError> {
    // File claimed at launch.
    Ok(Outcome::Advance)
}

fn h_hash<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    let v = xc.dval(now, slot, op.a)?;
    let digest = splitmix64(v);
    xc.wk(slot, now)?;
    let gen = xc.arena.gen[slot];
    xc.delayed.schedule(
        now + xc.cfg.hash_latency,
        (slot, gen, op.event, [digest, 0, 0, 0]),
    );
    xc.stats.incr_id(counter!("xcache.hash_issue"));
    Ok(Outcome::Advance)
}

fn h_dram_read<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    let a = xc.dval(now, slot, op.a)?;
    let l = xc.dval(now, slot, op.b)?;
    let id = xc.next_req_id;
    let req = MemReq::read(id, a, l as u32);
    match xc.downstream.try_request(now, req) {
        Ok(()) => {
            xc.next_req_id += 1;
            xc.ds_dirty = true;
            xc.wk(slot, now)?;
            let gen = xc.arena.gen[slot];
            xc.inflight.insert(id, (slot, gen));
            xc.stats.incr_id(counter!("xcache.dram_req"));
            xc.stats.add_id(counter!("xcache.dram_req_bytes"), l);
            xc.trace.emit_with(now, TraceKind::DramIssue, "xcache", || {
                format!("slot {slot} addr {a:#x} len {l}")
            });
            Ok(Outcome::Advance)
        }
        Err(_) => Ok(Outcome::Stall),
    }
}

fn h_dram_write<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    let a = xc.dval(now, slot, op.a)?;
    let s = xc.dval(now, slot, op.b)?;
    let l = xc.dval(now, slot, op.c)?;
    let sectors = (l as usize).div_ceil(xc.data.words_per_sector() * 8);
    let mut words = xc.take_buf();
    xc.data
        .gather_into(s as u32, sectors as u32, &mut words, &mut xc.stats);
    let mut bytes = Vec::with_capacity(l as usize);
    for w in &words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes.truncate(l as usize);
    xc.give_buf(words);
    let id = xc.next_req_id;
    match xc
        .downstream
        .try_request(now, MemReq::write(id, a, Bytes::from(bytes)))
    {
        Ok(()) => {
            xc.next_req_id += 1;
            xc.ds_dirty = true;
            xc.wk(slot, now)?;
            let gen = xc.arena.gen[slot];
            xc.inflight.insert(id, (slot, gen));
            xc.stats.incr_id(counter!("xcache.dram_req"));
            xc.stats.add_id(counter!("xcache.dram_req_bytes"), l);
            Ok(Outcome::Advance)
        }
        Err(_) => Ok(Outcome::Stall),
    }
}

fn h_post_event<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    let v = xc.dval(now, slot, op.a)?;
    xc.wk(slot, now)?;
    let gen = xc.arena.gen[slot];
    xc.delayed
        .schedule(now + u64::from(op.aux), (slot, gen, op.event, [v, 0, 0, 0]));
    Ok(Outcome::Advance)
}

fn h_peek<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    xc.wk(slot, now)?;
    let v = xc.arena.msg[slot][op.aux as usize];
    xc.write_reg(slot, op.dst, v);
    Ok(Outcome::Advance)
}

fn h_respond<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    _op: &DecOp,
) -> Result<Outcome, SimError> {
    let (key, origin_id, entry) = {
        let w = xc.wk(slot, now)?;
        (w.key, w.origin.id(), w.entry)
    };
    let r = entry.ok_or_else(|| SimError::new(slot, now, "Respond without meta entry"))?;
    let e = *xc.tags.entry(r);
    let mut data = xc.take_buf();
    xc.data
        .gather_into(e.sector_start, e.sector_count, &mut data, &mut xc.stats);
    let mut waiters: Vec<MetaAccess> = std::mem::take(&mut xc.wk_mut(slot, now)?.waiters);
    // Origin first, then waiters in arrival order; the last response
    // consumes the gathered buffer, the rest draw copies from the pool.
    if waiters.is_empty() {
        xc.respond(now, origin_id, key, true, data);
    } else {
        let mut buf = xc.take_buf();
        buf.extend_from_slice(&data);
        xc.respond(now, origin_id, key, true, buf);
        let last = waiters.len() - 1;
        for (i, wa) in waiters.drain(..).enumerate() {
            if i == last {
                xc.respond(now, wa.id(), key, true, std::mem::take(&mut data));
            } else {
                let mut buf = xc.take_buf();
                buf.extend_from_slice(&data);
                xc.respond(now, wa.id(), key, true, buf);
            }
        }
    }
    let w = xc.wk_mut(slot, now)?;
    w.waiters = waiters;
    w.responded = true;
    Ok(Outcome::Advance)
}

fn h_alloc_m<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    _op: &DecOp,
) -> Result<Outcome, SimError> {
    let (key, state) = {
        let w = xc.wk(slot, now)?;
        (w.key, w.state)
    };
    match xc.tags.alloc(key, state, &mut xc.stats) {
        Some((r, evicted)) => {
            // The set's tags changed: re-check refused accesses in it.
            xc.wait.wake_set(r.set);
            if let Some(v) = evicted {
                if v.sector_count > 0 {
                    xc.data.free(v.sector_start, v.sector_count);
                }
            }
            let w = xc.wk_mut(slot, now)?;
            w.entry = Some(r);
            w.owns_entry = true;
            Ok(Outcome::Advance)
        }
        // Set full: if every way is pinned and idle the stall can never
        // clear — fault so the datapath can drain and retry (its overflow
        // path). Otherwise a walker will retire and free a way: stall.
        None if xc.tags.set_unevictable(key) => {
            xc.stats.incr_id(counter!("xcache.set_pinned_full"));
            xc.fault_walker(now, slot);
            Ok(Outcome::FreeLane)
        }
        None => Ok(Outcome::StallHazard),
    }
}

fn h_dealloc_m<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    _op: &DecOp,
) -> Result<Outcome, SimError> {
    let r = xc
        .wk_mut(slot, now)?
        .entry
        .take()
        .ok_or_else(|| SimError::new(slot, now, "DeallocM without meta entry"))?;
    let e = xc.tags.invalidate(r, &mut xc.stats);
    // A freed way can unblock a refused launch in its set.
    xc.wait.wake_set(r.set);
    if e.sector_count > 0 {
        xc.data.free(e.sector_start, e.sector_count);
    }
    Ok(Outcome::Advance)
}

fn h_pin_m<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    _op: &DecOp,
) -> Result<Outcome, SimError> {
    let r = xc
        .wk(slot, now)?
        .entry
        .ok_or_else(|| SimError::new(slot, now, "PinM without meta entry"))?;
    xc.tags.update_entry(r, |e| e.pinned = true);
    // The set's tags changed: re-check refused accesses in it.
    xc.wait.wake_set(r.set);
    Ok(Outcome::Advance)
}

fn h_insert_m<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    let k = xc.dval(now, slot, op.a)?;
    let n = xc.dval(now, slot, op.b)?;
    let k = MetaKey(k);
    // Best-effort: skip when already cached, being walked by another
    // walker (it will install its own entry), or when there is no idle
    // capacity.
    if xc.tags.peek(k).is_some() || xc.launching.contains_key(&k) {
        return Ok(Outcome::Advance);
    }
    let data = xc
        .wk(slot, now)?
        .fill_data
        .clone()
        .ok_or_else(|| SimError::new(slot, now, "InsertM without a DRAM response"))?;
    let bytes = (n as usize * 8).min(data.len());
    let sectors = bytes.div_ceil(xc.data.words_per_sector() * 8).max(1);
    let Some(start) = xc.data.alloc(sectors, &mut xc.stats) else {
        xc.stats.incr_id(counter!("xcache.insertm_skip"));
        return Ok(Outcome::Advance);
    };
    let Some((r, evicted)) = xc
        .tags
        .alloc(k, xcache_isa::StateId::DEFAULT, &mut xc.stats)
    else {
        xc.data.free(start, sectors as u32);
        xc.stats.incr_id(counter!("xcache.insertm_skip"));
        return Ok(Outcome::Advance);
    };
    // A newly resident key can turn a refused load in its set into a
    // hit.
    xc.wait.wake_set(r.set);
    if let Some(v) = evicted {
        if v.sector_count > 0 {
            xc.data.free(v.sector_start, v.sector_count);
        }
    }
    xc.data.fill_bytes(start, &data[..bytes], &mut xc.stats);
    xc.tags.update_entry(r, |entry| {
        entry.sector_start = start;
        entry.sector_count = sectors as u32;
        entry.active = false;
    });
    // Speculative insert: lowest replacement priority so it cannot
    // displace proven-hot keys.
    xc.tags.demote(r);
    xc.stats.incr_id(counter!("xcache.insertm"));
    Ok(Outcome::Advance)
}

fn h_update_m<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    let s = xc.dval(now, slot, op.a)?;
    let e = xc.dval(now, slot, op.b)?;
    let r = xc
        .wk(slot, now)?
        .entry
        .ok_or_else(|| SimError::new(slot, now, "UpdateM without meta entry"))?;
    xc.stats.incr_id(counter!("xcache.tag_write"));
    xc.tags.update_entry(r, |entry| {
        entry.sector_start = s as u32;
        entry.sector_count = (e.saturating_sub(s) + 1) as u32;
    });
    Ok(Outcome::Advance)
}

fn h_yield<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    let state = op.state;
    let w = xc.wk_mut(slot, now)?;
    w.state = state;
    if let Some(r) = w.entry {
        xc.tags.update_entry(r, |e| e.state = state);
    }
    Ok(Outcome::YieldLane)
}

fn h_retire<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    _op: &DecOp,
) -> Result<Outcome, SimError> {
    xc.retire_walker(now, slot);
    Ok(Outcome::FreeLane)
}

fn h_fault<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    _op: &DecOp,
) -> Result<Outcome, SimError> {
    xc.fault_walker(now, slot);
    Ok(Outcome::FreeLane)
}

fn h_alloc_d<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    let n = xc.dval(now, slot, op.a)? as usize;
    if n == 0 {
        return Err(SimError::new(slot, now, "AllocD of zero sectors"));
    }
    loop {
        if let Some(start) = xc.data.alloc(n, &mut xc.stats) {
            xc.write_reg(slot, op.dst, u64::from(start));
            return Ok(Outcome::Advance);
        }
        // Capacity pressure: evict an idle entry and retry.
        if !xc.evict_one_idle() {
            xc.stats.incr_id(counter!("xcache.dataram_full_stall"));
            return Ok(Outcome::StallHazard);
        }
    }
}

fn h_dealloc_d<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    _op: &DecOp,
) -> Result<Outcome, SimError> {
    let r = xc
        .wk(slot, now)?
        .entry
        .ok_or_else(|| SimError::new(slot, now, "DeallocD without meta entry"))?;
    let (s, c) = xc.tags.update_entry(r, |entry| {
        let sc = (entry.sector_start, entry.sector_count);
        entry.sector_count = 0;
        sc
    });
    if c > 0 {
        xc.data.free(s, c);
    }
    Ok(Outcome::Advance)
}

fn h_read_d<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    let s = xc.dval(now, slot, op.a)?;
    let wd = xc.dval(now, slot, op.b)?;
    let v = xc.data.read_word(s as u32, wd as u32, &mut xc.stats);
    xc.write_reg(slot, op.dst, v);
    Ok(Outcome::Advance)
}

fn h_write_d<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    let s = xc.dval(now, slot, op.a)?;
    let wd = xc.dval(now, slot, op.b)?;
    let v = xc.dval(now, slot, op.c)?;
    xc.data.write_word(s as u32, wd as u32, v, &mut xc.stats);
    Ok(Outcome::Advance)
}

fn h_fill_d<D: MemoryPort>(
    xc: &mut XCache<D>,
    now: Cycle,
    slot: usize,
    op: &DecOp,
) -> Result<Outcome, SimError> {
    let s = xc.dval(now, slot, op.a)?;
    let n = xc.dval(now, slot, op.b)?;
    let data = xc
        .wk(slot, now)?
        .fill_data
        .clone()
        .ok_or_else(|| SimError::new(slot, now, "FillD without a DRAM response"))?;
    let bytes = (n as usize * 8).min(data.len());
    xc.data.fill_bytes(s as u32, &data[..bytes], &mut xc.stats);
    Ok(Outcome::Advance)
}

fn category_counter(c: ActionCategory) -> CounterId {
    match c {
        ActionCategory::Agen => counter!("xcache.action.agen"),
        ActionCategory::Queue => counter!("xcache.action.queue"),
        ActionCategory::MetaTag => counter!("xcache.action.metatag"),
        ActionCategory::Control => counter!("xcache.action.control"),
        ActionCategory::DataRam => counter!("xcache.action.dataram"),
    }
}
