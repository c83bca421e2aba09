//! Functional byte-addressable backing store.

use xcache_sim::FxHashMap;

/// Log2 of the page size used for sparse allocation.
const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// A sparse, functional model of main memory contents.
///
/// Timing lives in [`DramModel`](crate::DramModel); `MainMemory` only stores
/// bytes. Storage is allocated in 4 KiB pages on first touch, so simulating
/// a multi-gigabyte address space costs only what is actually written.
/// Reads of untouched memory return zeroes, which keeps workload layouts
/// simple and deterministic.
///
/// ```
/// use xcache_mem::MainMemory;
/// let mut m = MainMemory::new();
/// m.write_u64(0xdead_0000, 7);
/// assert_eq!(m.read_u64(0xdead_0000), 7);
/// assert_eq!(m.read_u64(0xbeef_0000), 0); // untouched => zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    pages: FxHashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl MainMemory {
    /// Creates an empty memory (all zeroes).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of 4 KiB pages currently materialised.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Bytes of backing storage currently materialised.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr + pos as u64;
            let page = a >> PAGE_SHIFT;
            let off = (a & (PAGE_SIZE as u64 - 1)) as usize;
            let n = (PAGE_SIZE - off).min(buf.len() - pos);
            match self.pages.get(&page) {
                Some(p) => buf[pos..pos + n].copy_from_slice(&p[off..off + n]),
                None => buf[pos..pos + n].fill(0),
            }
            pos += n;
        }
    }

    /// Writes all of `data` starting at `addr`, materialising pages as
    /// needed.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let mut pos = 0usize;
        while pos < data.len() {
            let a = addr + pos as u64;
            let page = a >> PAGE_SHIFT;
            let off = (a & (PAGE_SIZE as u64 - 1)) as usize;
            let n = (PAGE_SIZE - off).min(data.len() - pos);
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            p[off..off + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }

    /// Reads a little-endian `u64` at `addr`.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32` at `addr`.
    #[must_use]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32` at `addr`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads an `f64` at `addr` (little-endian bit pattern).
    #[must_use]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` at `addr` (little-endian bit pattern).
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Reads `len` bytes at `addr` into a fresh buffer.
    #[must_use]
    pub fn read_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = MainMemory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u32(1 << 40), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trips_scalars() {
        let mut m = MainMemory::new();
        m.write_u64(8, 0x0123_4567_89ab_cdef);
        m.write_u32(100, 0xdead_beef);
        m.write_f64(200, -1.5);
        assert_eq!(m.read_u64(8), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u32(100), 0xdead_beef);
        assert_eq!(m.read_f64(200), -1.5);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MainMemory::new();
        let addr = PAGE_SIZE as u64 - 3; // straddles the first page boundary
        m.write_u64(addr, u64::MAX);
        assert_eq!(m.read_u64(addr), u64::MAX);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bulk_read_write() {
        let mut m = MainMemory::new();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        m.write(12345, &data);
        assert_eq!(m.read_vec(12345, data.len()), data);
    }

    #[test]
    fn footprint_tracks_pages() {
        let mut m = MainMemory::new();
        m.write_u64(0, 1);
        m.write_u64(1 << 30, 1);
        assert_eq!(m.footprint_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn partial_overwrite_preserves_neighbours() {
        let mut m = MainMemory::new();
        m.write(0, &[1, 2, 3, 4]);
        m.write(1, &[9, 9]);
        assert_eq!(m.read_vec(0, 4), vec![1, 9, 9, 4]);
    }
}
