//! Sparse GEMM DSAs: SpArch (outer product, Zhang et al. HPCA'20) and
//! Gamma (Gustavson, Zhang et al. ASPLOS'21), §5/§7.2.
//!
//! Both compute `C = A × B` with matrix A *streamed* from DRAM (the MXS
//! hierarchy, §6) while the rows of matrix B are fetched dynamically: each
//! streamed A-element `(i, k, a)` needs row `k` of B. The X-Cache meta-tag
//! is the row id of B; the walker reads `B.row_ptr[k]`, sizes the refill,
//! and fetches the whole row — "the data fill fetches an entire row of
//! matrix B, which consists of multiple elements" (§5).
//!
//! The two DSAs share the physical X-Cache and walker — "both SpArch and
//! Gamma can use the same X-Cache microarchitecture, i.e., we only had to
//! reprogram [nothing]; only the access *order* differs" — which is the
//! portability claim the module demonstrates:
//!
//! * [`Algorithm::OuterProduct`] (SpArch): A in CSC, streamed
//!   column-major; every non-zero of column `k` reuses row `k` back to
//!   back (tile-local reuse).
//! * [`Algorithm::Gustavson`] (Gamma): A in CSR, streamed row-major; row
//!   `k` of B is reused whenever column `k` reappears in later A rows
//!   (dynamic input-dependent reuse).

use std::collections::VecDeque;

use bytes::Bytes;

use xcache_core::{
    horizon_target, owner_of, MetaAccess, MetaKey, StreamConfig, StreamReader, XCache,
    XCacheConfig, DEFAULT_HORIZON,
};
use xcache_isa::asm::assemble;
use xcache_isa::WalkerProgram;
use xcache_mem::{
    AddressCache, DramConfig, DramModel, MainMemory, MemReq, MemoryPort, PortHandle, SharedPort,
};
use xcache_sim::{run_horizons, Cycle, FxHashMap, Stats};
use xcache_workloads::{CsrMatrix, MatrixLayout, SparsePattern};

use crate::common::{
    apply_image, shard_cells, shard_stats, Answered, ProbeTask, RunReport, TaskStep,
};
use crate::widx::matched_address_cache_config;

/// Which SpGEMM dataflow drives the access order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// SpArch: outer product, A streamed column-major (CSC).
    OuterProduct,
    /// Gamma: Gustavson, A streamed row-major (CSR).
    Gustavson,
}

impl Algorithm {
    /// Paper-style display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::OuterProduct => "SpArch",
            Algorithm::Gustavson => "Gamma",
        }
    }

    /// `geometry`, or this DSA's Table 3 geometry when `None`.
    fn geometry(self, geometry: Option<XCacheConfig>) -> XCacheConfig {
        geometry.unwrap_or_else(|| match self {
            Algorithm::OuterProduct => XCacheConfig::sparch(),
            Algorithm::Gustavson => XCacheConfig::gamma(),
        })
    }
}

/// A SpGEMM workload: `C = A × B`.
#[derive(Debug, Clone)]
pub struct SpgemmWorkload {
    /// Left operand (streamed).
    pub a: CsrMatrix,
    /// Right operand (walked via X-Cache).
    pub b: CsrMatrix,
    /// Dataflow.
    pub algorithm: Algorithm,
}

impl SpgemmWorkload {
    /// The paper's input: `A × A` on a p2p-Gnutella31-sized matrix
    /// (N = 67K, NNZ = 147K), scaled by `1/scale` for quick runs.
    #[must_use]
    pub fn paper_like(algorithm: Algorithm, scale: u32, seed: u64) -> Self {
        let n = 67_000 / scale.max(1);
        let nnz = (147_000 / scale.max(1)) as usize;
        let a = CsrMatrix::generate(n, n, nnz, SparsePattern::RMat, seed);
        SpgemmWorkload {
            b: a.clone(),
            a,
            algorithm,
        }
    }

    /// The stream of `(b_row, a_value)` work items in dataflow order.
    #[must_use]
    pub fn element_stream(&self) -> Vec<(u32, u32, f64)> {
        match self.algorithm {
            // Gustavson: row-major A; item = (i, k, a) → needs B row k.
            Algorithm::Gustavson => self.a.triples().collect(),
            // Outer product: column-major A; each column k's non-zeros
            // (i, k, a) all need B row k, consecutively.
            Algorithm::OuterProduct => {
                let csc = self.a.to_csc();
                let mut v = Vec::with_capacity(self.a.nnz());
                for k in 0..csc.cols {
                    let (s, e) = csc.col_range(k);
                    for idx in s..e {
                        v.push((csc.row_idx[idx], k, csc.values[idx]));
                    }
                }
                v
            }
        }
    }

    /// Functional oracle: checksum over the exact product (values are
    /// small integers, so f64 arithmetic is exact regardless of order).
    #[must_use]
    pub fn oracle_checksum(&self) -> u64 {
        let c = self.a.multiply(&self.b);
        product_checksum(c.triples())
    }
}

fn product_checksum(triples: impl Iterator<Item = (u32, u32, f64)>) -> u64 {
    triples.fold(0u64, |acc, (i, j, v)| {
        acc.wrapping_add(
            (u64::from(i) << 40 | u64::from(j))
                .wrapping_mul(0x0001_0000_0001)
                .wrapping_add(v as i64 as u64),
        )
    })
}

/// The row-fetch walker shared by SpArch and Gamma
/// (`walkers/spgemm_row.xw`).
///
/// `Default,Miss`: read `row_ptr[k]` and `row_ptr[k+1]` (one 16-byte
/// access — "an extra DRAM access is required to load the start pointer of
/// the Row", §8.1). `Meta,Fill`: size the refill and fetch the whole row.
/// `Data,Fill`: copy it sector-by-sector, publish the sector span and
/// respond. X-registers persist across yields, so the row size computed in
/// `setup` (r0) is still live in `fill`.
#[must_use]
pub fn walker() -> WalkerProgram {
    assemble(include_str!("../../../walkers/spgemm_row.xw")).expect("spgemm walker is well-formed")
}

const IMAGE_BASE: u64 = 0x100_0000;
const A_STREAM_BASE: u64 = 0x4000_0000;

fn layout_b(b: &CsrMatrix) -> MatrixLayout {
    b.layout(IMAGE_BASE)
}

/// One DRAM holding B's image and A's element stream, serialised as
/// 24-byte `(row, col, value-bits)` records, and the stream engine that
/// feeds those elements to the datapath, 8 per fetch.
fn streamed_a(
    layout: &MatrixLayout,
    items: &[(u32, u32, f64)],
) -> (SharedPort<DramModel>, StreamReader<PortHandle<DramModel>>) {
    let mut stream_img = Vec::with_capacity(items.len() * 24);
    for &(i, k, a) in items {
        stream_img.extend_from_slice(&u64::from(i).to_le_bytes());
        stream_img.extend_from_slice(&u64::from(k).to_le_bytes());
        stream_img.extend_from_slice(&a.to_bits().to_le_bytes());
    }
    let mut mem = MainMemory::new();
    apply_image(&mut mem, &layout.segments);
    mem.write(A_STREAM_BASE, &stream_img);
    let shared = SharedPort::new(DramModel::with_memory(DramConfig::default(), mem));
    let stream = StreamReader::new(
        StreamConfig {
            base: A_STREAM_BASE,
            len: stream_img.len() as u64,
            chunk_bytes: 192,
            lookahead: 4,
        },
        shared.handle(),
    );
    (shared, stream)
}

/// The controller configuration for B's `layout` on geometry `cfg`: the
/// walker's parameters. Rows larger than 1/8 of the data RAM bypass the
/// cache (SpArch caps its cached tile size); the datapath fetches them
/// directly from DRAM.
fn controller_config(cfg: XCacheConfig, layout: &MatrixLayout) -> XCacheConfig {
    let sector_bytes = cfg.sector_bytes();
    let max_row_bytes = (cfg.data_capacity_bytes() / 8).max(sector_bytes * 4);
    let cfg = cfg.with_params(vec![
        layout.row_ptr_base,
        layout.pairs_base,
        sector_bytes,
        max_row_bytes,
    ]);
    assert_eq!(
        cfg.sector_bytes(),
        32,
        "walker's srl #5 assumes 32-byte sectors"
    );
    cfg
}

/// The extent `(start, end)` of a B row in the pair array, decoded from
/// the 16-byte `row_ptr[k..=k+1]` read.
fn row_extent(ptrs: &[u8]) -> (u64, u64) {
    let start = u64::from_le_bytes(ptrs[0..8].try_into().expect("ptr"));
    let end = u64::from_le_bytes(ptrs[8..16].try_into().expect("ptr"));
    (start, end)
}

/// The `(col, value)` pairs of a B row as DRAM holds it: 16-byte
/// `[col, value-bits]` records.
fn dram_row_pairs(row: &[u8]) -> impl Iterator<Item = (u32, f64)> + '_ {
    row.chunks(16).map(|pair| {
        let j = u64::from_le_bytes(pair[0..8].try_into().expect("col")) as u32;
        let bv = f64::from_bits(u64::from_le_bytes(pair[8..16].try_into().expect("val")));
        (j, bv)
    })
}

/// The `(col, value)` pairs of a B row as the cache returns it: sector
/// words `[col, value-bits]`. Sector rounding pads the tail with zero
/// words; real pairs always have nonzero value bits.
fn sector_row_pairs(words: &[u64]) -> impl Iterator<Item = (u32, f64)> + '_ {
    words
        .chunks(2)
        .filter(|pair| pair.len() == 2 && pair[1] != 0)
        .map(|pair| (pair[0] as u32, f64::from_bits(pair[1])))
}

/// The datapath's MAC units: the C accumulator, and the cycle until which
/// the four MACs per cycle are busy.
#[derive(Default)]
struct Macs {
    acc: FxHashMap<(u32, u32), f64>,
    busy_until: Cycle,
}

impl Macs {
    /// Accumulates `a × B[k][j]` into `C[i][j]` for every `(j, B[k][j])`
    /// pair of a B row, returning the number of pairs.
    fn accumulate(&mut self, i: u32, a: f64, pairs: impl Iterator<Item = (u32, f64)>) -> u64 {
        let mut n = 0u64;
        for (j, bv) in pairs {
            *self.acc.entry((i, j)).or_insert(0.0) += a * bv;
            n += 1;
        }
        n
    }

    /// Occupies the MACs with `pairs` multiplies from `at` on, four per
    /// cycle.
    fn occupy(&mut self, at: Cycle, pairs: u64) {
        self.busy_until = self.busy_until.max(at) + pairs.div_ceil(4);
    }

    /// The checksum of the accumulated product.
    fn checksum(&self) -> u64 {
        product_checksum(
            self.acc
                .iter()
                .filter(|(_, v)| **v != 0.0)
                .map(|(&(i, j), &v)| (i, j, v)),
        )
    }
}

/// SpArch's row buffer: the last few bypassed rows stay resident in the
/// datapath, so back-to-back elements of the same column do not refetch a
/// hub row.
#[derive(Default)]
struct RowBuffer(VecDeque<(u64, Bytes)>);

impl RowBuffer {
    const ENTRIES: usize = 4;

    /// Holds row `k`, evicting the oldest row when full.
    fn insert(&mut self, k: u64, row: Bytes) {
        if self.0.len() == Self::ENTRIES {
            self.0.pop_front();
        }
        self.0.push_back((k, row));
    }

    /// Row `k`, if the buffer holds it.
    fn get(&self, k: u64) -> Option<Bytes> {
        self.0
            .iter()
            .find(|(rk, _)| *rk == k)
            .map(|(_, row)| row.clone())
    }
}

/// A bypass-path DRAM read in flight, naming the element (an index into
/// the element stream) whose B row it fetches.
enum Bypass {
    /// The row's `row_ptr[k..=k+1]`.
    Ptr(usize),
    /// The row's pairs.
    Row(usize),
}

/// Reads `row_ptr[k..=k+1]`.
fn row_ptr_read(id: u64, layout: &MatrixLayout, k: u32) -> MemReq {
    MemReq::read(id, layout.row_ptr_base + u64::from(k) * 8, 16)
}

/// Reads the pairs `start..end` of a row.
fn row_read(id: u64, layout: &MatrixLayout, start: u64, end: u64) -> MemReq {
    MemReq::read(
        id,
        layout.pairs_base + start * 16,
        ((end - start) * 16) as u32,
    )
}

/// The bypass path for rows the cache refuses (empty or oversized): a
/// driver-side DRAM port reads the row's `row_ptr`, then its pairs.
///
/// Both drives issue in one order: row reads whose pointers are already
/// resolved go first, pointer reads after. A resolved read that meets a
/// full port is held, not re-read. Under outer product every waiter on a
/// hub column faults at once, so hundreds of elements queue here; if
/// their pointers were re-read, pointer reads would keep the port full
/// and no row read would ever issue.
struct BypassPath {
    /// Reads in flight, by request id.
    inflight: FxHashMap<u64, Bypass>,
    /// Elements whose pointer read waits for port room.
    ptr_reads: Vec<usize>,
    /// Resolved row reads waiting for port room: (element, start, end).
    row_reads: Vec<(usize, u64, u64)>,
    next_id: u64,
}

impl BypassPath {
    fn new() -> Self {
        BypassPath {
            inflight: FxHashMap::default(),
            ptr_reads: Vec::new(),
            row_reads: Vec::new(),
            next_id: 1 << 32,
        }
    }

    /// Queues element `id`'s row fetch.
    fn fetch(&mut self, id: usize) {
        self.ptr_reads.push(id);
    }

    /// Whether reads wait for port room.
    fn queued(&self) -> bool {
        !self.ptr_reads.is_empty() || !self.row_reads.is_empty()
    }

    /// Whether nothing is queued or in flight.
    fn idle(&self) -> bool {
        self.inflight.is_empty() && !self.queued()
    }

    /// Issues queued reads while `port` has room, held row reads first.
    fn issue(
        &mut self,
        port: &mut impl MemoryPort,
        now: Cycle,
        layout: &MatrixLayout,
        items: &[(u32, u32, f64)],
    ) {
        while !self.row_reads.is_empty() && port.can_accept() {
            let (id, s, e) = self.row_reads.swap_remove(0);
            let req = row_read(self.next_id, layout, s, e);
            self.send(port, now, req, Bypass::Row(id));
        }
        while !self.ptr_reads.is_empty() && port.can_accept() {
            let id = self.ptr_reads.swap_remove(0);
            let req = row_ptr_read(self.next_id, layout, items[id].1);
            self.send(port, now, req, Bypass::Ptr(id));
        }
    }

    fn send(&mut self, port: &mut impl MemoryPort, now: Cycle, req: MemReq, read: Bypass) {
        port.try_request(now, req).expect("can_accept checked");
        self.inflight.insert(self.next_id, read);
        self.next_id += 1;
    }

    /// Takes every response `port` has ready at `now`. A pointer response
    /// issues its row read, or holds it when the port is full. `fetched`
    /// gets each element whose fetch finished, with its row (`None` for an
    /// empty row) and the response's completion cycle.
    fn take(
        &mut self,
        port: &mut impl MemoryPort,
        now: Cycle,
        layout: &MatrixLayout,
        mut fetched: impl FnMut(usize, Option<Bytes>, Cycle),
    ) {
        while let Some(resp) = port.take_response(now) {
            match self.inflight.remove(&resp.id.0) {
                Some(Bypass::Ptr(id)) => {
                    let (s, e) = row_extent(&resp.data);
                    if s == e {
                        fetched(id, None, resp.completed_at);
                    } else if port.can_accept() {
                        let req = row_read(self.next_id, layout, s, e);
                        self.send(port, now, req, Bypass::Row(id));
                    } else {
                        self.row_reads.push((id, s, e));
                    }
                }
                Some(Bypass::Row(id)) => fetched(id, Some(resp.data), resp.completed_at),
                None => {}
            }
        }
    }

    /// The path's queue depths, for a hang report.
    fn describe(&self) -> String {
        format!(
            "bypass in-flight {}, bypass retry {}, row reads held {}",
            self.inflight.len(),
            self.ptr_reads.len(),
            self.row_reads.len()
        )
    }
}

/// Every counter of `stats` as `name=value` pairs, for a hang report.
fn counter_dump(stats: &Stats) -> String {
    stats
        .counters()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs the X-Cache (MXS) configuration ([`drive_xcache`]) and checks its
/// product against the SpGEMM oracle.
///
/// # Panics
///
/// Panics if the drive fails or the product diverges from the oracle.
#[must_use]
pub fn run_xcache(workload: &SpgemmWorkload, geometry: Option<XCacheConfig>) -> RunReport {
    let report = drive_xcache(workload, geometry).expect("spgemm x-cache run failed");
    assert_eq!(
        report.checksum,
        workload.oracle_checksum(),
        "{} x-cache run diverged from the SpGEMM oracle",
        workload.algorithm.name()
    );
    report
}

/// Drives the single-controller X-Cache topology without checking the
/// product: A is streamed from DRAM by the stream engine, and the
/// datapath requests each element's B row from the X-Cache and MACs it
/// into C. MAC occupancy counts a cached row's sector padding as pairs,
/// unlike [`drive_xcache_sharded`].
///
/// # Errors
///
/// Returns `Err` when the controller cannot be built, answers an element
/// twice or one never issued, or the run exceeds its cycle bound.
#[allow(clippy::too_many_lines)]
pub fn drive_xcache(
    workload: &SpgemmWorkload,
    geometry: Option<XCacheConfig>,
) -> Result<RunReport, String> {
    let layout = layout_b(&workload.b);
    let items = workload.element_stream();
    let (shared, mut stream) = streamed_a(&layout, &items);
    let cfg = controller_config(workload.algorithm.geometry(geometry), &layout);
    let mut xc: XCache<PortHandle<DramModel>> =
        XCache::new(cfg, walker(), shared.handle()).map_err(|e| e.to_string())?;

    // The datapath: pops (i, k, a) elements, requests B row k, MACs the
    // returned row into the accumulator. Loads are issued ahead of the
    // MAC units draining (decoupled preload); a load's id is its
    // element's index in the stream.
    let total = items.len();
    let mut answered = Answered::new(total);
    let mut macs = Macs::default();
    let mut issued = 0usize;
    let mut pending_row: Option<u64> = None; // B row of the popped element
    let mut now = Cycle(0);
    let mut done = 0usize;
    let max_cycles = 10_000 * total as u64 + 2_000_000;

    let mut bypass_port = shared.handle();
    let mut bypass = BypassPath::new();
    let mut row_buffer = RowBuffer::default();

    while done < total {
        {
            xcache_sim::prof_scope!("driver.ports");
            stream.tick(now);
            bypass_port.tick(now);
        }
        bypass.issue(&mut bypass_port, now, &layout, &items);
        bypass.take(&mut bypass_port, now, &layout, |id, row, _| {
            if let Some(row) = row {
                let (i, k, a) = items[id];
                let pairs = macs.accumulate(i, a, dram_row_pairs(&row));
                macs.occupy(now, pairs);
                row_buffer.insert(u64::from(k), row);
            }
            done += 1;
        });
        // Pop the next element (3 words) when available; its row and
        // value are read back from `items` when the answer arrives.
        if pending_row.is_none() && stream.pop_word().is_some() {
            pending_row = Some(stream.pop_word().expect("stream element is 3 words"));
            stream.pop_word().expect("stream element is 3 words");
        }
        if let Some(k) = pending_row {
            if xc.can_accept() {
                let access = MetaAccess::Load {
                    id: issued as u64,
                    key: MetaKey::new(k),
                };
                xc.try_access(now, access).expect("can_accept checked");
                issued += 1;
                pending_row = None;
            }
        }
        xc.tick(now);
        {
            xcache_sim::prof_scope!("driver.resp");
            while let Some(resp) = xc.take_response(now) {
                answered.record(resp.id, issued)?;
                let id = resp.id as usize;
                let (i, k, a) = items[id];
                if resp.found {
                    macs.accumulate(i, a, sector_row_pairs(&resp.data));
                    // MAC occupancy counts the sector padding as pairs
                    // here; the sharded drive counts only real pairs.
                    // Two-pair (32-byte) sectors pad an odd row by one
                    // pair, which never changes the four-per-cycle
                    // charge, so the two agree today.
                    macs.occupy(now, resp.data.len() as u64 / 2);
                    done += 1;
                } else if let Some(row) = row_buffer.get(u64::from(k)) {
                    // Cache refused (empty or oversized row), but the
                    // datapath's row buffer still holds it.
                    let pairs = macs.accumulate(i, a, dram_row_pairs(&row));
                    macs.occupy(now, pairs);
                    done += 1;
                } else {
                    bypass.fetch(id);
                }
                xc.recycle(resp);
            }
        }
        xcache_sim::prof_scope!("driver.wake");
        now = if done >= total {
            now.next() // same end-cycle as the single-stepped loop
        } else {
            // Cheap checks first: when more work is issuable right now the
            // wake is the next cycle regardless, so the (comparatively
            // expensive) component next-event queries can be skipped.
            let issuable = (pending_row.is_some() || stream.word_ready()) && xc.can_accept();
            let retryable = bypass.queued() && bypass_port.can_accept();
            if issuable || retryable {
                now.next()
            } else {
                let mut wake = xc.next_event(now);
                wake = xcache_sim::earliest(wake, stream.next_event(now));
                wake = xcache_sim::earliest(wake, bypass_port.next_event(now));
                xcache_sim::fast_forward(now, wake)
            }
        };
        if now.raw() >= max_cycles {
            return Err(format!(
                "spgemm x-cache run exceeded {max_cycles} cycles with {done}/{total} elements \
                 done (element pending {}, {} issued, {} answered, {}); controller \
                 counters: {}",
                pending_row.is_some(),
                issued,
                answered.count(),
                bypass.describe(),
                counter_dump(xc.stats())
            ));
        }
    }
    let end = now.max(macs.busy_until);

    let mut stats = xc.stats().clone();
    stats.merge(stream.stats());
    shared.with(|d| stats.merge(d.stats()));
    Ok(RunReport {
        label: "xcache".into(),
        cycles: end.raw(),
        stats: stats.snapshot(),
        checksum: macs.checksum(),
    })
}

/// Runs the sharded X-Cache topology ([`drive_xcache_sharded`]) and checks
/// its product against the SpGEMM oracle.
///
/// # Panics
///
/// Panics if the drive fails or the product diverges from the oracle.
#[must_use]
pub fn run_xcache_sharded(
    workload: &SpgemmWorkload,
    geometry: Option<XCacheConfig>,
    shards: usize,
) -> RunReport {
    let report = drive_xcache_sharded(workload, geometry, shards)
        .expect("sharded spgemm x-cache run failed");
    assert_eq!(
        report.checksum,
        workload.oracle_checksum(),
        "{} sharded x-cache run diverged from the SpGEMM oracle",
        workload.algorithm.name()
    );
    report
}

/// Drives the sharded X-Cache topology without checking the product: B's
/// row space is interleaved across `shards` controller instances by
/// [`owner_of`], each over its [`BankGroup`](xcache_mem::BankGroup) view
/// of the banked DRAM; the element stream is routed to owners over
/// crossbar links, replacing the stream engine as the pacing element.
/// Oversized/empty rows still bypass to a driver-side DRAM port, serviced
/// at horizon boundaries. MAC occupancy counts only a row's real pairs,
/// unlike [`drive_xcache`].
///
/// # Errors
///
/// Returns `Err` when a shard cannot be built, an element is answered
/// twice or was never issued, or the run exceeds its cycle bound.
#[allow(clippy::too_many_lines)]
pub fn drive_xcache_sharded(
    workload: &SpgemmWorkload,
    geometry: Option<XCacheConfig>,
    shards: usize,
) -> Result<RunReport, String> {
    let shards = shards.max(1);
    let base = workload.algorithm.geometry(geometry);
    let layout = layout_b(&workload.b);
    let items = workload.element_stream();

    let mut mem = MainMemory::new();
    apply_image(&mut mem, &layout.segments);
    let mut cells = shard_cells(&base, shards, &mem, walker, |cfg| {
        controller_config(cfg, &layout)
    })?;

    // Route every element to its row's owner shard up front; per-shard
    // issue order is the dataflow order restricted to owned rows, so
    // column-local (SpArch) and Gustavson reuse survive sharding.
    for (idx, &(_, k, _)) in items.iter().enumerate() {
        let owner = owner_of(MetaKey::new(u64::from(k)), shards);
        cells[owner].send(
            Cycle::ZERO,
            MetaAccess::Load {
                id: idx as u64,
                key: MetaKey::new(u64::from(k)),
            },
        );
    }

    let total = items.len();
    let max_cycles = 10_000 * total as u64 + 2_000_000;
    let mut answered = Answered::new(total);
    let mut macs = Macs::default();
    let mut done = 0usize;
    let mut end = Cycle::ZERO;
    let mut err = None;

    // Bypass path for rows the cache refuses (empty or oversized): a
    // driver-side DRAM port over the same image, serviced once per
    // horizon boundary — coarse but deterministic in both engines.
    let mut bypass_port = DramModel::with_memory(DramConfig::default(), mem);
    let mut bypass = BypassPath::new();
    let mut row_buffer = RowBuffer::default();

    let cells = run_horizons(cells, Cycle::ZERO, |cells, t| {
        bypass_port.tick(t);
        bypass.issue(&mut bypass_port, t, &layout, &items);
        bypass.take(&mut bypass_port, t, &layout, |id, row, completed_at| {
            let at = completed_at.max(t);
            if let Some(row) = row {
                let (i, k, a) = items[id];
                let pairs = macs.accumulate(i, a, dram_row_pairs(&row));
                macs.occupy(at, pairs);
                row_buffer.insert(u64::from(k), row);
            }
            done += 1;
            end = end.max(at);
        });
        for cell in cells {
            let mut cell = cell.lock().expect("shard cell poisoned");
            while let Some((at, resp)) = cell.recv_response(t) {
                if let Err(e) = answered.record(resp.id, total) {
                    err = Some(e);
                    return None;
                }
                let id = resp.id as usize;
                let (i, k, a) = items[id];
                end = end.max(at);
                if resp.found {
                    let pairs = macs.accumulate(i, a, sector_row_pairs(&resp.data));
                    macs.occupy(at, pairs);
                    done += 1;
                } else if let Some(row) = row_buffer.get(u64::from(k)) {
                    let pairs = macs.accumulate(i, a, dram_row_pairs(&row));
                    macs.occupy(at, pairs);
                    done += 1;
                } else {
                    bypass.fetch(id);
                }
            }
        }
        if done >= total {
            return None;
        }
        if t.raw() >= max_cycles {
            err = Some(format!(
                "sharded spgemm run exceeded {max_cycles} cycles with {done}/{total} elements \
                 done at {t} ({}; bypass port busy {}, next event {:?}, can accept {}); \
                 bypass port counters: {}",
                bypass.describe(),
                bypass_port.busy(),
                bypass_port.next_event(t),
                bypass_port.can_accept(),
                counter_dump(bypass_port.stats())
            ));
            return None;
        }
        let target = horizon_target(cells, t, DEFAULT_HORIZON);
        if bypass.idle() {
            Some(target)
        } else {
            // Bypass work only progresses at boundaries, and the DRAM
            // model advances on exact next-event cycles — land on them.
            let mut dense = t + DEFAULT_HORIZON;
            if let Some(w) = bypass_port.next_event(t) {
                if w > t && w != Cycle::NEVER {
                    dense = dense.min(w);
                }
            }
            Some(target.min(dense))
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    let end = end.max(macs.busy_until);

    let mut stats = shard_stats(&cells);
    stats.merge(bypass_port.stats());
    Ok(RunReport {
        label: format!("xcache-sharded{shards}"),
        cycles: end.raw(),
        stats: stats.snapshot(),
        checksum: macs.checksum(),
    })
}

/// One row-fetch through the address cache (ideal walker): read
/// `row_ptr[k]`+`row_ptr[k+1]`, then the row's pairs in 64-byte blocks.
struct RowFetch {
    row: u32,
    row_ptr_base: u64,
    pairs_base: u64,
    state: RowState,
}

enum RowState {
    PtrLo,
    PtrHi {
        start: u64,
    },
    Blocks {
        next_addr: u64,
        end_addr: u64,
        sum: u64,
    },
}

impl ProbeTask for RowFetch {
    fn advance(&mut self, last: Option<&[u8]>) -> TaskStep {
        match &mut self.state {
            RowState::PtrLo => match last {
                None => TaskStep::Read {
                    addr: self.row_ptr_base + u64::from(self.row) * 8,
                    len: 8,
                },
                Some(d) => {
                    let start = u64::from_le_bytes(d[0..8].try_into().expect("ptr"));
                    self.state = RowState::PtrHi { start };
                    TaskStep::Read {
                        addr: self.row_ptr_base + (u64::from(self.row) + 1) * 8,
                        len: 8,
                    }
                }
            },
            RowState::PtrHi { start } => match last {
                // Re-entry after port back-pressure: re-issue the read.
                None => TaskStep::Read {
                    addr: self.row_ptr_base + (u64::from(self.row) + 1) * 8,
                    len: 8,
                },
                Some(d) => {
                    let s = *start;
                    let e = u64::from_le_bytes(d[0..8].try_into().expect("ptr"));
                    if s == e {
                        return TaskStep::Done(0);
                    }
                    let start_addr = self.pairs_base + s * 16;
                    let end_addr = self.pairs_base + e * 16;
                    // Block-align the row fetch.
                    let first_block = start_addr & !63;
                    self.state = RowState::Blocks {
                        next_addr: first_block,
                        end_addr,
                        sum: 0,
                    };
                    TaskStep::Read {
                        addr: first_block,
                        len: 64,
                    }
                }
            },
            RowState::Blocks {
                next_addr,
                end_addr,
                sum,
            } => {
                if let Some(d) = last {
                    *sum = sum.wrapping_add(d.iter().map(|&b| u64::from(b)).sum::<u64>());
                    *next_addr += 64;
                }
                if *next_addr >= *end_addr {
                    TaskStep::Done(1 + *sum % 7) // nonzero completion token
                } else {
                    TaskStep::Read {
                        addr: *next_addr,
                        len: 64,
                    }
                }
            }
        }
    }
}

/// Runs the address-cache configuration with an ideal walker.
///
/// The datapath is the same dataflow (matrix A streamed from the same
/// shared DRAM, same element order, same MLP); only the storage idiom for
/// matrix B differs: every element's row fetch pays the `row_ptr` access
/// and per-block reads, even when the row is resident.
#[must_use]
pub fn run_address_cache(workload: &SpgemmWorkload, geometry: Option<XCacheConfig>) -> RunReport {
    let g = workload.algorithm.geometry(geometry);
    let layout = layout_b(&workload.b);
    let items = workload.element_stream();
    let (shared, mut stream) = streamed_a(&layout, &items);
    let cache = AddressCache::new(matched_address_cache_config(&g), shared.handle())
        .expect("matched address-cache config is valid");
    let total = items.len();
    let mut engine = crate::common::ProbeEngine::new(cache, Vec::new(), g.active);
    let mut now = Cycle(0);
    let max_cycles = 10_000 * total as u64 + 2_000_000;
    while engine.completed() < total {
        stream.tick(now);
        // Each streamed element gates one row-fetch task, exactly like the
        // X-Cache datapath's issue loop.
        if let Some(_i) = stream.pop_word() {
            let k = stream.pop_word().expect("stream element is 3 words");
            let _a = stream.pop_word().expect("stream element is 3 words");
            engine.push_task(RowFetch {
                row: k as u32,
                row_ptr_base: layout.row_ptr_base,
                pairs_base: layout.pairs_base,
                state: RowState::PtrLo,
            });
        }
        engine.tick(now);
        now = if engine.completed() >= total {
            now.next() // same end-cycle as the single-stepped loop
        } else {
            let mut wake = xcache_sim::earliest(engine.next_event(now), stream.next_event(now));
            if stream.word_ready() {
                wake = Some(now.next()); // next element gates a task next cycle
            }
            xcache_sim::fast_forward(now, wake)
        };
        assert!(now.raw() < max_cycles, "spgemm addr-cache run deadlocked");
    }
    let mut stats = Stats::new();
    stats.merge(engine.stats());
    stats.merge(stream.stats());
    stats.merge(engine.port().stats());
    shared.with(|d| stats.merge(d.stats()));
    RunReport {
        label: "addr-cache".into(),
        cycles: now.raw(),
        stats: stats.snapshot(),
        // Timing-only model: functional correctness is established by the
        // X-Cache run; reuse the oracle checksum for report symmetry.
        checksum: workload.oracle_checksum(),
    }
}

/// Runs the hardwired baseline: the DSA's custom row buffer with row-id
/// tags. Modelled as the same structural cache with the programmability
/// tax removed — every executor resource is as wide as the walker count
/// and the dispatch pipeline is free (see DESIGN.md §5, ablations).
#[must_use]
pub fn run_baseline(workload: &SpgemmWorkload, geometry: Option<XCacheConfig>) -> RunReport {
    let mut g = workload.algorithm.geometry(geometry);
    g.exe = g.active; // a lane per hardwired fill unit: no contention
    let mut r = run_xcache(workload, Some(g));
    r.label = "baseline".into();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(algorithm: Algorithm) -> SpgemmWorkload {
        let a = CsrMatrix::generate(96, 96, 700, SparsePattern::RMat, 11);
        SpgemmWorkload {
            b: a.clone(),
            a,
            algorithm,
        }
    }

    fn small_geometry() -> XCacheConfig {
        XCacheConfig {
            sets: 32,
            ways: 4,
            active: 8,
            exe: 4,
            data_sectors: 512,
            ..XCacheConfig::sparch()
        }
    }

    #[test]
    fn gustavson_matches_oracle() {
        let w = small(Algorithm::Gustavson);
        let r = run_xcache(&w, Some(small_geometry()));
        assert_eq!(r.checksum, w.oracle_checksum());
        assert!(r.stats.get("xcache.hit") > 0, "column reuse must hit");
    }

    #[test]
    fn outer_product_matches_oracle_with_high_reuse() {
        let w = small(Algorithm::OuterProduct);
        let r = run_xcache(&w, Some(small_geometry()));
        assert_eq!(r.checksum, w.oracle_checksum());
        // Within a column every element after the first hits row k.
        let hits = r.stats.get("xcache.hit") + r.stats.get("xcache.waiter");
        let misses = r.stats.get("xcache.miss");
        assert!(
            hits > misses,
            "outer product should mostly reuse ({hits} hits vs {misses} misses)"
        );
    }

    #[test]
    fn outer_product_finishes_on_a_small_data_ram() {
        // Hub columns fault every waiter at once, so hundreds of elements
        // queue for the bypass port; resolved row reads must still issue
        // ahead of the pointer re-reads or the port never frees.
        let w = small(Algorithm::OuterProduct);
        for data_sectors in [96, 128, 192] {
            let g = XCacheConfig {
                data_sectors,
                ..small_geometry()
            };
            let r = run_xcache(&w, Some(g));
            assert!(r.stats.get("xcache.walker_fault") > 0, "{data_sectors}");
        }
    }

    #[test]
    fn sharded_run_matches_oracle_and_modes_agree() {
        use xcache_sim::{with_par_mode, with_par_threads, ParMode};
        for algorithm in [Algorithm::Gustavson, Algorithm::OuterProduct] {
            let w = small(algorithm);
            let fingerprint = |r: &RunReport| (r.cycles, r.checksum, r.stats.clone());
            let seq = with_par_mode(ParMode::Seq, || {
                run_xcache_sharded(&w, Some(small_geometry()), 3)
            });
            assert!(seq.cycles > 0);
            let par = with_par_mode(ParMode::Par, || {
                with_par_threads(3, || run_xcache_sharded(&w, Some(small_geometry()), 3))
            });
            assert_eq!(
                fingerprint(&par),
                fingerprint(&seq),
                "par diverged from seq"
            );
        }
    }

    #[test]
    fn same_walker_program_both_algorithms() {
        // The portability claim: one microcode image serves both DSAs.
        let w1 = run_xcache(&small(Algorithm::Gustavson), Some(small_geometry()));
        let w2 = run_xcache(&small(Algorithm::OuterProduct), Some(small_geometry()));
        assert!(w1.cycles > 0 && w2.cycles > 0);
    }

    #[test]
    fn xcache_beats_address_cache() {
        let w = small(Algorithm::Gustavson);
        let x = run_xcache(&w, Some(small_geometry()));
        let a = run_address_cache(&w, Some(small_geometry()));
        assert!(
            x.speedup_over(&a) > 1.1,
            "meta-tags should beat per-block row walks (got {:.2})",
            x.speedup_over(&a)
        );
    }

    #[test]
    fn baseline_competitive_with_xcache() {
        let w = small(Algorithm::Gustavson);
        let x = run_xcache(&w, Some(small_geometry()));
        let b = run_baseline(&w, Some(small_geometry()));
        let ratio = b.cycles as f64 / x.cycles as f64;
        assert!(
            (0.5..=1.05).contains(&ratio),
            "hardwired baseline should be ≤ x-cache but close (ratio {ratio:.2})"
        );
    }

    #[test]
    fn empty_rows_fault_cleanly() {
        // A matrix with guaranteed-empty B rows: banded A times itself.
        let a = CsrMatrix::from_triples(8, 8, &[(0, 3, 2.0), (1, 3, 4.0), (5, 6, 1.0)]);
        let w = SpgemmWorkload {
            b: a.clone(),
            a,
            algorithm: Algorithm::Gustavson,
        };
        let r = run_xcache(&w, Some(small_geometry()));
        assert_eq!(r.checksum, w.oracle_checksum());
        assert!(r.stats.get("xcache.walker_fault") > 0);
    }
}
