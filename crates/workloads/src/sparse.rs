//! Sparse matrices: CSR/CSC containers, non-zero-pattern generators, a
//! reference SpGEMM, and byte-image layout for the simulated heap.
//!
//! SpArch streams matrix A in CSC and walks matrix B in CSR (§5); Gamma
//! (Gustavson) streams A's rows and walks B's rows. Both walkers consume
//! the [`MatrixLayout`] produced here: a `row_ptr` array of `u64` and an
//! interleaved `(col, value)` pair array, so fetching row *i* is one
//! contiguous DRAM transfer of `nnz(i) × 16` bytes — exactly the variable
//! "tile" the paper's preload walker refills.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Non-zero placement patterns for the generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparsePattern {
    /// R-MAT (recursive matrix) power-law pattern, the standard synthetic
    /// stand-in for SNAP graphs. Probabilities follow the Graph500
    /// defaults (a=0.57, b=0.19, c=0.19).
    RMat,
    /// Uniform (Erdős–Rényi) placement.
    ErdosRenyi,
    /// Non-zeros within `bandwidth` of the diagonal (stencil-like).
    Banded {
        /// Half-bandwidth.
        bandwidth: u32,
    },
}

/// A compressed-sparse-row matrix with `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Row count.
    pub rows: u32,
    /// Column count.
    pub cols: u32,
    /// `rows + 1` offsets into `col_idx`/`values`.
    pub row_ptr: Vec<u32>,
    /// Column of each non-zero.
    pub col_idx: Vec<u32>,
    /// Value of each non-zero.
    pub values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from (row, col, value) triples (need not be
    /// sorted; duplicates collapse by addition).
    #[must_use]
    pub fn from_triples(rows: u32, cols: u32, triples: &[(u32, u32, f64)]) -> Self {
        let mut sorted: Vec<(u32, u32, f64)> = triples.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut dedup: Vec<(u32, u32, f64)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match dedup.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => dedup.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0u32; rows as usize + 1];
        for &(r, _, _) in &dedup {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..rows as usize {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx: dedup.iter().map(|&(_, c, _)| c).collect(),
            values: dedup.iter().map(|&(_, _, v)| v).collect(),
        }
    }

    /// Generates an `rows × cols` matrix with ~`nnz` non-zeros.
    ///
    /// Deterministic given `seed`. The exact non-zero count can fall
    /// slightly short of `nnz` when the pattern saturates (duplicates are
    /// re-drawn a bounded number of times).
    #[must_use]
    pub fn generate(rows: u32, cols: u32, nnz: usize, pattern: SparsePattern, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cells: BTreeSet<(u32, u32)> = BTreeSet::new();
        let budget = nnz * 8;
        let mut attempts = 0;
        while cells.len() < nnz && attempts < budget {
            attempts += 1;
            let (r, c) = match pattern {
                SparsePattern::RMat => rmat_cell(rows, cols, &mut rng),
                SparsePattern::ErdosRenyi => (rng.gen_range(0..rows), rng.gen_range(0..cols)),
                SparsePattern::Banded { bandwidth } => {
                    let r = rng.gen_range(0..rows);
                    let lo = r.saturating_sub(bandwidth);
                    let hi = (r + bandwidth + 1).min(cols);
                    (r, rng.gen_range(lo..hi.max(lo + 1)))
                }
            };
            cells.insert((r, c));
        }
        let triples: Vec<(u32, u32, f64)> = cells
            .into_iter()
            .map(|(r, c)| (r, c, f64::from(rng.gen_range(1..100))))
            .collect();
        Self::from_triples(rows, cols, &triples)
    }

    /// Number of stored non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Non-zeros of row `r` as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row(&self, r: u32) -> &[u32] {
        let (a, b) = self.row_range(r);
        &self.col_idx[a..b]
    }

    /// `(start, end)` of row `r` in the value/index arrays.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row_range(&self, r: u32) -> (usize, usize) {
        assert!(r < self.rows, "row {r} out of range");
        (
            self.row_ptr[r as usize] as usize,
            self.row_ptr[r as usize + 1] as usize,
        )
    }

    /// Iterates the `(row, col, value)` triples in row-major order.
    pub fn triples(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (a, b) = self.row_range(r);
            (a..b).map(move |i| (r, self.col_idx[i], self.values[i]))
        })
    }

    /// Transposes into CSC (same numerical content).
    #[must_use]
    pub fn to_csc(&self) -> CscMatrix {
        let t: Vec<(u32, u32, f64)> = self.triples().map(|(r, c, v)| (c, r, v)).collect();
        let csr_t = CsrMatrix::from_triples(self.cols, self.rows, &t);
        CscMatrix {
            rows: self.rows,
            cols: self.cols,
            col_ptr: csr_t.row_ptr,
            row_idx: csr_t.col_idx,
            values: csr_t.values,
        }
    }

    /// Reference SpGEMM (`self × rhs`) by Gustavson's algorithm — the
    /// functional oracle the DSA simulations are checked against.
    ///
    /// Each output row accumulates in a dense `rhs.cols`-wide buffer plus
    /// a list of the columns it touched, emitted in column order. Every
    /// entry sums its products in `(k, j)` scan order.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn multiply(&self, rhs: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        let mut acc = vec![0.0f64; rhs.cols as usize];
        let mut seen = vec![false; rhs.cols as usize];
        let mut touched: Vec<u32> = Vec::new();
        let mut row_ptr = Vec::with_capacity(self.rows as usize + 1);
        row_ptr.push(0u32);
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for i in 0..self.rows {
            let (a, b) = self.row_range(i);
            for k in a..b {
                let (ka, kb) = rhs.row_range(self.col_idx[k]);
                let va = self.values[k];
                for j in ka..kb {
                    let c = rhs.col_idx[j] as usize;
                    if !seen[c] {
                        seen[c] = true;
                        touched.push(c as u32);
                    }
                    acc[c] += va * rhs.values[j];
                }
            }
            touched.sort_unstable();
            for c in touched.drain(..) {
                col_idx.push(c);
                values.push(std::mem::take(&mut acc[c as usize]));
                seen[c as usize] = false;
            }
            row_ptr.push(col_idx.len() as u32);
        }
        CsrMatrix {
            rows: self.rows,
            cols: rhs.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Lays the matrix out as a byte image at `base` (see
    /// [`MatrixLayout`]).
    #[must_use]
    pub fn layout(&self, base: u64) -> MatrixLayout {
        let row_ptr_base = base;
        let row_ptr_bytes = (self.rows as u64 + 1) * 8;
        let pairs_base = (row_ptr_base + row_ptr_bytes + 63) & !63; // align
        let mut segments = Vec::new();
        let mut rp = Vec::with_capacity(self.row_ptr.len() * 8);
        for &p in &self.row_ptr {
            rp.extend_from_slice(&u64::from(p).to_le_bytes());
        }
        segments.push((row_ptr_base, rp));
        let mut pairs = Vec::with_capacity(self.nnz() * 16);
        for i in 0..self.nnz() {
            pairs.extend_from_slice(&u64::from(self.col_idx[i]).to_le_bytes());
            pairs.extend_from_slice(&self.values[i].to_bits().to_le_bytes());
        }
        segments.push((pairs_base, pairs));
        MatrixLayout {
            row_ptr_base,
            pairs_base,
            pair_bytes: 16,
            rows: self.rows,
            nnz: self.nnz() as u64,
            segments,
        }
    }
}

/// A compressed-sparse-column matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    /// Row count.
    pub rows: u32,
    /// Column count.
    pub cols: u32,
    /// `cols + 1` offsets into `row_idx`/`values`.
    pub col_ptr: Vec<u32>,
    /// Row of each non-zero (column-major order).
    pub row_idx: Vec<u32>,
    /// Value of each non-zero.
    pub values: Vec<f64>,
}

impl CscMatrix {
    /// Number of stored non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// `(start, end)` of column `c` in the value/index arrays.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    #[must_use]
    pub fn col_range(&self, c: u32) -> (usize, usize) {
        assert!(c < self.cols, "col {c} out of range");
        (
            self.col_ptr[c as usize] as usize,
            self.col_ptr[c as usize + 1] as usize,
        )
    }

    /// Transposes back into CSR.
    #[must_use]
    pub fn to_csr(&self) -> CsrMatrix {
        let mut triples = Vec::with_capacity(self.nnz());
        for c in 0..self.cols {
            let (a, b) = self.col_range(c);
            for i in a..b {
                triples.push((self.row_idx[i], c, self.values[i]));
            }
        }
        CsrMatrix::from_triples(self.rows, self.cols, &triples)
    }
}

/// The simulated-heap image of a CSR matrix.
///
/// Two arrays, mirroring the paper's walker description ("accessing the
/// `B.row_ptr` array to determine which elements from the `B.value` array
/// should be loaded"):
///
/// * `row_ptr_base`: `rows + 1` little-endian `u64` element offsets;
/// * `pairs_base`: `nnz` interleaved `(col: u64, value: f64)` pairs of
///   `pair_bytes` each.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixLayout {
    /// Address of the `row_ptr` array.
    pub row_ptr_base: u64,
    /// Address of the `(col, value)` pair array.
    pub pairs_base: u64,
    /// Bytes per pair (16).
    pub pair_bytes: u64,
    /// Row count.
    pub rows: u32,
    /// Non-zero count.
    pub nnz: u64,
    /// `(address, bytes)` segments to copy into the simulated memory.
    pub segments: Vec<(u64, Vec<u8>)>,
}

impl MatrixLayout {
    /// Total bytes of the image.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|(_, b)| b.len() as u64).sum()
    }

    /// First byte past the image (for placing the next structure).
    #[must_use]
    pub fn end(&self) -> u64 {
        self.segments
            .iter()
            .map(|(a, b)| a + b.len() as u64)
            .max()
            .unwrap_or(self.row_ptr_base)
    }
}

fn rmat_cell<R: Rng + ?Sized>(rows: u32, cols: u32, rng: &mut R) -> (u32, u32) {
    // Graph500 R-MAT: a=0.57, b=0.19, c=0.19, d=0.05, with noise.
    let bits = 32 - (rows.max(cols).max(2) - 1).leading_zeros();
    let (mut r, mut c) = (0u32, 0u32);
    for _ in 0..bits {
        let u: f64 = rng.gen();
        let (dr, dc) = if u < 0.57 {
            (0, 0)
        } else if u < 0.76 {
            (0, 1)
        } else if u < 0.95 {
            (1, 0)
        } else {
            (1, 1)
        };
        r = (r << 1) | dr;
        c = (c << 1) | dc;
    }
    (r % rows, c % cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triples_sorts_and_collapses() {
        let m = CsrMatrix::from_triples(3, 3, &[(2, 1, 1.0), (0, 0, 2.0), (2, 1, 3.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row_ptr, vec![0, 1, 1, 2]);
        assert_eq!(m.row(2), &[1]);
        assert_eq!(m.values[1], 4.0);
    }

    #[test]
    fn generate_hits_nnz_target() {
        // Banded with half-bandwidth 8 has ~17 cells/row = ~4300 possible,
        // so a 2000-nnz target is reachable for all three patterns.
        for pattern in [
            SparsePattern::RMat,
            SparsePattern::ErdosRenyi,
            SparsePattern::Banded { bandwidth: 8 },
        ] {
            let m = CsrMatrix::generate(256, 256, 2000, pattern, 1);
            assert!(m.nnz() >= 1800, "{pattern:?} produced only {} nnz", m.nnz());
            assert!(m.nnz() <= 2000);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CsrMatrix::generate(64, 64, 500, SparsePattern::RMat, 9);
        let b = CsrMatrix::generate(64, 64, 500, SparsePattern::RMat, 9);
        assert_eq!(a, b);
        let c = CsrMatrix::generate(64, 64, 500, SparsePattern::RMat, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_is_skewed() {
        let m = CsrMatrix::generate(1024, 1024, 10_000, SparsePattern::RMat, 3);
        let mut degrees: Vec<usize> = (0..m.rows).map(|r| m.row(r).len()).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top = degrees.iter().take(103).sum::<usize>(); // top 10%
        assert!(
            top * 2 > m.nnz(),
            "R-MAT should concentrate ≥50% of nnz in top 10% rows (got {top}/{})",
            m.nnz()
        );
    }

    #[test]
    fn csc_round_trip() {
        let m = CsrMatrix::generate(50, 70, 400, SparsePattern::ErdosRenyi, 5);
        let back = m.to_csc().to_csr();
        assert_eq!(m, back);
    }

    #[test]
    fn multiply_matches_dense_reference() {
        // (rows, inner, cols, nnz(A), nnz(B), pattern): square and
        // non-square shapes; R-MAT leaves empty rows and columns.
        let cases = [
            (16, 12, 10, 60, 50, SparsePattern::ErdosRenyi),
            (9, 30, 50, 40, 300, SparsePattern::ErdosRenyi),
            (40, 40, 40, 200, 200, SparsePattern::RMat),
            (33, 64, 17, 150, 120, SparsePattern::RMat),
            (48, 48, 48, 200, 200, SparsePattern::Banded { bandwidth: 3 }),
        ];
        for (m, n, p, nnz_a, nnz_b, pattern) in cases {
            for seed in 0..4u64 {
                let a = CsrMatrix::generate(m, n, nnz_a, pattern, 2 * seed + 7);
                let b = CsrMatrix::generate(n, p, nnz_b, pattern, 2 * seed + 8);
                if pattern == SparsePattern::RMat {
                    assert!((0..m).any(|r| a.row(r).is_empty()), "no empty row");
                }
                let c = a.multiply(&b);
                // Canonical CSR: each row sorted by column, no duplicates.
                let triples: Vec<_> = c.triples().collect();
                assert_eq!(c, CsrMatrix::from_triples(m, p, &triples));
                // Dense check; the values are small integers, so exact.
                let mut dense = vec![vec![0.0f64; p as usize]; m as usize];
                for (i, k, va) in a.triples() {
                    for (kk, j, vb) in b.triples() {
                        if k == kk {
                            dense[i as usize][j as usize] += va * vb;
                        }
                    }
                }
                for (i, j, v) in triples {
                    assert_eq!(dense[i as usize][j as usize], v, "mismatch at ({i},{j})");
                    dense[i as usize][j as usize] = 0.0;
                }
                for row in dense {
                    for v in row {
                        assert_eq!(v, 0.0, "product missing a non-zero");
                    }
                }
            }
        }
    }

    #[test]
    fn layout_encodes_rows_contiguously() {
        let m = CsrMatrix::from_triples(2, 4, &[(0, 1, 2.5), (0, 3, 1.5), (1, 0, 4.0)]);
        let l = m.layout(0x1000);
        assert_eq!(l.row_ptr_base, 0x1000);
        assert_eq!(l.pairs_base % 64, 0);
        assert_eq!(l.nnz, 3);
        // row_ptr contents.
        let rp = &l.segments[0].1;
        let p1 = u64::from_le_bytes(rp[8..16].try_into().unwrap());
        assert_eq!(p1, 2); // row 0 has 2 nnz
                           // First pair is (col=1, 2.5).
        let pairs = &l.segments[1].1;
        assert_eq!(u64::from_le_bytes(pairs[0..8].try_into().unwrap()), 1);
        assert_eq!(
            f64::from_bits(u64::from_le_bytes(pairs[8..16].try_into().unwrap())),
            2.5
        );
        assert!(l.end() > l.pairs_base);
        assert_eq!(l.total_bytes(), (3 * 8) + (3 * 16));
    }

    #[test]
    fn banded_respects_bandwidth() {
        let m = CsrMatrix::generate(128, 128, 1000, SparsePattern::Banded { bandwidth: 2 }, 2);
        for (r, c, _) in m.triples() {
            assert!(
                (i64::from(r) - i64::from(c)).abs() <= 2,
                "({r},{c}) outside band"
            );
        }
    }
}
