//! Decoupled sequential stream engine.
//!
//! "X-Cache with streaming (MXS) is perhaps the most common [hierarchy].
//! The DSA explicitly partitions the data based on the access pattern"
//! (§6): the dense, affine-ordered structure (SpArch's matrix A) is
//! *streamed*; the dynamically-accessed one (matrix B) goes through
//! X-Cache. [`StreamReader`] is that stream side: it runs ahead fetching
//! fixed-size chunks with bounded lookahead and hands words to the
//! datapath strictly in order.

use std::collections::BTreeMap;

use bytes::Bytes;

use xcache_mem::{MemReq, MemoryPort};
use xcache_sim::{counter, Cycle, Stats};

/// Configuration of a [`StreamReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// First byte of the streamed region.
    pub base: u64,
    /// Region length in bytes.
    pub len: u64,
    /// Fetch granularity in bytes.
    pub chunk_bytes: u32,
    /// Maximum chunks in flight (decoupling depth).
    pub lookahead: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            base: 0,
            len: 0,
            chunk_bytes: 64,
            lookahead: 4,
        }
    }
}

impl StreamConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.chunk_bytes == 0 {
            return Err("chunk_bytes must be nonzero".into());
        }
        if self.lookahead == 0 {
            return Err("lookahead must be nonzero".into());
        }
        Ok(())
    }
}

/// A decoupled, in-order stream over `[base, base + len)`.
#[derive(Debug)]
pub struct StreamReader<P> {
    cfg: StreamConfig,
    port: P,
    next_issue_chunk: u64,
    total_chunks: u64,
    inflight: usize,
    /// Out-of-order arrivals parked until their turn.
    arrived: BTreeMap<u64, Bytes>,
    /// Chunk currently being consumed.
    current: Option<(Bytes, usize)>,
    next_deliver_chunk: u64,
    stats: Stats,
}

impl<P: MemoryPort> StreamReader<P> {
    /// Creates a stream over `port`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`StreamConfig::validate`].
    #[must_use]
    pub fn new(cfg: StreamConfig, port: P) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid StreamConfig: {e}");
        }
        let total_chunks = cfg.len.div_ceil(u64::from(cfg.chunk_bytes));
        StreamReader {
            port,
            next_issue_chunk: 0,
            total_chunks,
            inflight: 0,
            arrived: BTreeMap::new(),
            current: None,
            next_deliver_chunk: 0,
            stats: Stats::new(),
            cfg,
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The underlying port.
    #[must_use]
    pub fn port(&self) -> &P {
        &self.port
    }

    /// Advances one cycle: issues lookahead fetches and collects arrivals.
    pub fn tick(&mut self, now: Cycle) {
        self.port.tick(now);
        while let Some(resp) = self.port.take_response(now) {
            self.arrived.insert(resp.id.0, resp.data);
            self.inflight -= 1;
        }
        while self.inflight < self.cfg.lookahead && self.next_issue_chunk < self.total_chunks {
            let idx = self.next_issue_chunk;
            let addr = self.cfg.base + idx * u64::from(self.cfg.chunk_bytes);
            let remaining = self.cfg.len - idx * u64::from(self.cfg.chunk_bytes);
            let len = u64::from(self.cfg.chunk_bytes).min(remaining) as u32;
            match self.port.try_request(now, MemReq::read(idx, addr, len)) {
                Ok(()) => {
                    self.inflight += 1;
                    self.next_issue_chunk += 1;
                    self.stats.incr_id(counter!("stream.fetch"));
                    self.stats.add_id(counter!("stream.bytes"), u64::from(len));
                }
                Err(_) => {
                    self.stats.incr_id(counter!("stream.port_stall"));
                    break;
                }
            }
        }
    }

    /// Pops the next 8-byte word of the stream, or `None` if it has not
    /// arrived yet (the datapath stalls) or the stream is exhausted.
    pub fn pop_word(&mut self) -> Option<u64> {
        loop {
            if let Some((chunk, off)) = &mut self.current {
                if *off < chunk.len() {
                    let end = (*off + 8).min(chunk.len());
                    let mut b = [0u8; 8];
                    b[..end - *off].copy_from_slice(&chunk[*off..end]);
                    *off += 8;
                    return Some(u64::from_le_bytes(b));
                }
                self.current = None;
                self.next_deliver_chunk += 1;
            }
            if self.next_deliver_chunk >= self.total_chunks {
                return None; // exhausted
            }
            match self.arrived.remove(&self.next_deliver_chunk) {
                Some(chunk) => self.current = Some((chunk, 0)),
                None => return None, // not arrived yet
            }
        }
    }

    /// Whether [`pop_word`](Self::pop_word) would currently return a word.
    /// This is the datapath-readiness signal drivers fold into their
    /// fast-forward wake-up (see [`next_event`](Self::next_event)).
    #[must_use]
    pub fn word_ready(&self) -> bool {
        match &self.current {
            Some((chunk, off)) if *off < chunk.len() => true,
            // Current chunk exhausted (or absent): the next in-order chunk
            // must already have arrived.
            Some(_) => self.arrived.contains_key(&(self.next_deliver_chunk + 1)),
            None => self.arrived.contains_key(&self.next_deliver_chunk),
        }
    }

    /// Whether every word of the stream has been delivered.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.next_deliver_chunk >= self.total_chunks
            && self.current.as_ref().is_none_or(|(c, off)| *off >= c.len())
    }

    /// Whether fetches are outstanding.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.inflight > 0 || !self.arrived.is_empty() || self.port.busy()
    }

    /// Earliest cycle strictly after `now` at which `tick` could do
    /// observable work (the `next_event` contract on
    /// [`fast_forward`](xcache_sim::fast_forward)).
    /// Arrived-but-unconsumed words do not count: consuming them is the
    /// datapath's move, so the *driver* must fold its own readiness in.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // More chunks to issue with lookahead room: `tick` issues (or
        // counts a port stall) every cycle.
        if self.next_issue_chunk < self.total_chunks && self.inflight < self.cfg.lookahead {
            return Some(now.next());
        }
        self.port.next_event(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcache_mem::{DramConfig, DramModel};

    fn setup(words: u64) -> StreamReader<DramModel> {
        let mut dram = DramModel::new(DramConfig::test_tiny());
        for i in 0..words {
            dram.memory_mut().write_u64(0x2000 + i * 8, 100 + i);
        }
        StreamReader::new(
            StreamConfig {
                base: 0x2000,
                len: words * 8,
                chunk_bytes: 32,
                lookahead: 2,
            },
            dram,
        )
    }

    #[test]
    fn delivers_all_words_in_order() {
        let mut s = setup(20);
        let mut got = Vec::new();
        let mut now = Cycle(0);
        while got.len() < 20 {
            s.tick(now);
            while let Some(w) = s.pop_word() {
                got.push(w);
            }
            now = now.next();
            assert!(now.raw() < 100_000, "stream stalled");
        }
        assert_eq!(got, (0..20).map(|i| 100 + i).collect::<Vec<_>>());
        assert!(s.exhausted());
    }

    #[test]
    fn lookahead_bounds_inflight() {
        let mut s = setup(100);
        s.tick(Cycle(0));
        assert!(s.inflight <= 2);
        assert_eq!(s.stats().get("stream.fetch"), 2);
    }

    #[test]
    fn pop_before_arrival_returns_none() {
        let mut s = setup(4);
        assert_eq!(s.pop_word(), None);
        assert!(!s.exhausted());
    }

    #[test]
    fn partial_tail_chunk() {
        // 5 words = 40 bytes; chunks of 32 → tail chunk of 8 bytes.
        let mut s = setup(5);
        let mut got = Vec::new();
        let mut now = Cycle(0);
        while !s.exhausted() {
            s.tick(now);
            while let Some(w) = s.pop_word() {
                got.push(w);
            }
            now = now.next();
            assert!(now.raw() < 100_000);
        }
        assert_eq!(got.len(), 5);
        assert_eq!(got[4], 104);
    }

    #[test]
    #[should_panic(expected = "invalid StreamConfig")]
    fn zero_lookahead_panics() {
        let dram = DramModel::new(DramConfig::test_tiny());
        let _ = StreamReader::new(
            StreamConfig {
                lookahead: 0,
                ..StreamConfig::default()
            },
            dram,
        );
    }
}
