//! Dense row-major `f32` matrix with the handful of BLAS-like kernels the
//! autograd tape needs. Everything is CPU-only and single-threaded. All
//! three products (`matmul`, `matmul_tn`, `matmul_nt`) run one
//! register-blocked GEMM kernel whose accumulation order is fixed, so its
//! output is bit-identical to the plain ikj loop it replaced.

use crate::mathf;
use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from an explicit row-major buffer. Panics if sizes disagree.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            rows * cols,
            data.len(),
            "buffer length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// A 1x1 matrix holding a scalar.
    pub fn scalar(v: f32) -> Self {
        Matrix::from_vec(1, 1, vec![v])
    }

    /// A 1xN row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Matrix {
            rows: 1,
            cols,
            data,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a zero-element matrix.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The row-major backing buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the row-major backing buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    /// Element at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    /// Write element at `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// The value of a 1x1 matrix.
    pub fn item(&self) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (1, 1),
            "item() on non-scalar {:?}",
            self.shape()
        );
        self.data[0]
    }

    /// `self @ other` through the register-blocked `gemm` kernel.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} @ {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        Matrix {
            rows: m,
            cols: n,
            data: gemm(&self.data, &other.data, false, m, k, n),
        }
    }

    /// `self^T @ other`: packs `self^T` row-major, then runs `gemm`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn shape mismatch: {:?}^T @ {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.cols, self.rows, other.cols);
        Matrix {
            rows: m,
            cols: n,
            data: gemm(&self.transpose().data, &other.data, false, m, k, n),
        }
    }

    /// `self @ other^T`: `gemm` packs each panel of `other^T` from `other`'s
    /// rows as it goes, so `other` is never copied transposed.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_nt shape mismatch: {:?} @ {:?}^T",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        Matrix {
            rows: m,
            cols: n,
            data: gemm(&self.data, &other.data, true, m, k, n),
        }
    }

    /// Materialized transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// `self + row`, with the `(1, C)` matrix `row` added to every row.
    pub(crate) fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(
            row.shape(),
            (1, self.cols),
            "add_row_broadcast shape mismatch"
        );
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, &x) in out.row_mut(r).iter_mut().zip(&row.data) {
                *v += x;
            }
        }
        out
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += c * other`.
    pub fn add_scaled_assign(&mut self, other: &Matrix, c: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled_assign shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += c * b;
        }
    }

    /// Elementwise `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, c: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * c).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Apply `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean norm of the whole buffer.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Row-wise softmax (numerically stable).
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            softmax_in_place(out.row_mut(r));
        }
        out
    }

    /// Row-wise layer normalization: each row less its mean, times its
    /// inverse standard deviation (both from `layer_norm_stats`), then
    /// times `gamma` plus `beta`, both `(1, C)`.
    pub(crate) fn layer_norm(&self, gamma: &Matrix, beta: &Matrix, eps: f32) -> Matrix {
        assert!(
            gamma.shape() == (1, self.cols) && beta.shape() == (1, self.cols),
            "layer_norm gain/bias must be (1,C)"
        );
        let mut data = Vec::with_capacity(self.len());
        for r in 0..self.rows {
            let row = self.row(r);
            let (mean, istd) = layer_norm_stats(row, eps);
            let affine = row.iter().zip(&gamma.data).zip(&beta.data);
            data.extend(affine.map(|((&x, &g), &b)| (x - mean) * istd * g + b));
        }
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Stack matrices vertically. All inputs must share the column count.
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack of nothing");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Stack matrices horizontally. All inputs must share the row count.
    pub fn hstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hstack of nothing");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for p in parts {
                assert_eq!(p.rows, rows, "hstack row mismatch");
                data.extend_from_slice(p.row(r));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Copy of rows `[start, start+len)`.
    pub fn slice_rows(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.rows, "slice_rows out of range");
        let data = self.data[start * self.cols..(start + len) * self.cols].to_vec();
        Matrix {
            rows: len,
            cols: self.cols,
            data,
        }
    }

    /// Copy of columns `[start, start+len)`.
    pub fn slice_cols(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.cols, "slice_cols out of range");
        let mut data = Vec::with_capacity(self.rows * len);
        for r in 0..self.rows {
            data.extend_from_slice(&self.row(r)[start..start + len]);
        }
        Matrix {
            rows: self.rows,
            cols: len,
            data,
        }
    }

    /// Gather rows by index (duplicates allowed).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &i in idx {
            assert!(
                i < self.rows,
                "gather_rows index {} out of {}",
                i,
                self.rows
            );
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: idx.len(),
            cols: self.cols,
            data,
        }
    }

    /// Mean over rows, producing a 1xC row vector.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        let inv = 1.0 / self.rows as f32;
        for o in &mut out {
            *o *= inv;
        }
        Matrix {
            rows: 1,
            cols: self.cols,
            data: out,
        }
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

/// Numerically stable in-place softmax over a slice. The `exp` pass is
/// branch-free and vectorizes. The sum stays one sequential ascending
/// loop: that order fixes the result's bits.
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for v in row.iter_mut() {
        *v = mathf::exp(*v - max);
    }
    let mut sum = 0.0f32;
    for &v in row.iter() {
        sum += v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// The mean of `row` and its inverse standard deviation
/// `1 / sqrt(var + eps)`: the statistics [`Matrix::layer_norm`] normalizes
/// by, which the tape's LayerNorm backward recomputes from the input.
pub(crate) fn layer_norm_stats(row: &[f32], eps: f32) -> (f32, f32) {
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    (mean, 1.0 / (var + eps).sqrt())
}

/// One element of an inverted-dropout mask: `scale` with probability
/// `keep`, else 0, from exactly one `gen::<f32>()` draw. Both tape
/// executors draw every element through this in row-major order and
/// multiply `x * m`, so their dropout outputs and RNG states agree.
#[inline(always)]
pub(crate) fn dropout_mask_elem(rng: &mut impl rand::Rng, keep: f32, scale: f32) -> f32 {
    if rng.gen::<f32>() < keep {
        scale
    } else {
        0.0
    }
}

/// Output rows per register tile.
const MR: usize = 4;
/// Output columns per register tile: two 8-lane AVX2 vectors.
const NR: usize = 16;

/// `a (m×k) @ b (k×n)`, both row-major: the one kernel behind every
/// matrix product. Output is tiled `MR × NR`; each tile's accumulators
/// stay in registers while `p` runs over `0..k` in ascending order with
/// a separately rounded `acc + a·b` per step — exactly the sum the plain
/// ikj loop formed, so the result is bit-identical to it on finite
/// inputs (DESIGN §15). With `b_t`, `b` is stored transposed (`n×k`),
/// and each `k × NR` panel is packed from `NR` of its rows: the same
/// sums, without a transposed copy of `b` (DESIGN §18).
fn gemm(a: &[f32], b: &[f32], b_t: bool, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    if m == 0 || k == 0 || n == 0 {
        return out;
    }
    // A packed `k × NR` panel: every panel when `b_t`, else only the
    // column tail. Zero-padded to full width, so the tail runs the same
    // kernel; its padding columns are computed and discarded.
    let mut packed = Vec::new();
    for j0 in (0..n).step_by(NR) {
        let width = NR.min(n - j0);
        let (panel, ldb) = if width == NR && !b_t {
            (&b[j0..], n)
        } else {
            packed.resize(k * NR, 0.0f32);
            if width < NR {
                packed.fill(0.0);
            }
            if b_t {
                for (c, src) in b[j0 * k..(j0 + width) * k].chunks_exact(k).enumerate() {
                    for (p, &v) in src.iter().enumerate() {
                        packed[p * NR + c] = v;
                    }
                }
            } else {
                for (dst, src) in packed.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
                    dst[..width].copy_from_slice(&src[j0..j0 + width]);
                }
            }
            (&packed[..], NR)
        };
        let mut store = |i0: usize, acc: &[[f32; NR]]| {
            for (r, acc_row) in acc.iter().enumerate() {
                let at = (i0 + r) * n + j0;
                out[at..at + width].copy_from_slice(&acc_row[..width]);
            }
        };
        let mut i0 = 0;
        for rows in a.chunks_exact(MR * k) {
            store(i0, &tile::<MR>(rows, k, panel, ldb));
            i0 += MR;
        }
        // MR = 4 leaves a remainder of at most three rows.
        let rest = &a[i0 * k..];
        match m - i0 {
            0 => {}
            1 => store(i0, &tile::<1>(rest, k, panel, ldb)),
            2 => store(i0, &tile::<2>(rest, k, panel, ldb)),
            _ => store(i0, &tile::<3>(rest, k, panel, ldb)),
        }
    }
    out
}

/// One `R × NR` output tile: `acc[r][c] = Σ_p rows[r][p] · panel[p][c]`
/// over `p` ascending, where `rows` holds `R` row-major rows of length
/// `k` and `panel` row `p` starts at `p * ldb`. The loop-nest shape
/// (pre-sliced rows, the `a` column gathered into an array, loops over
/// fixed-size arrays) is what lets LLVM keep `acc` in registers;
/// indexing `rows` directly per step spills it to memory.
#[inline(always)]
fn tile<const R: usize>(rows: &[f32], k: usize, panel: &[f32], ldb: usize) -> [[f32; NR]; R] {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &rows[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; NR]; R];
    for p in 0..k {
        let mut brow = [0.0f32; NR];
        brow.copy_from_slice(&panel[p * ldb..p * ldb + NR]);
        let acol: [f32; R] = std::array::from_fn(|r| arows[r][p]);
        for (acc_row, &av) in acc.iter_mut().zip(&acol) {
            for (o, &bv) in acc_row.iter_mut().zip(&brow) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// The plain loops [`gemm`] and [`softmax_in_place`] replaced, kept as
/// bit-exactness oracles.
#[cfg(test)]
pub(crate) mod oracle {
    use super::Matrix;

    /// Softmax in one loop over libm `exp`, summing as it goes.
    pub fn softmax_in_place(row: &mut [f32]) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }

    /// `a @ b`: the ikj loop, skipping zero `a` terms.
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows, a.cols, b.cols);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a.data[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b.data[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        Matrix::from_vec(m, n, out)
    }

    /// `a^T @ b`: the pki loop, skipping zero `a` terms.
    pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.cols, a.rows, b.cols);
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let arow = &a.data[p * m..(p + 1) * m];
            let brow = &b.data[p * n..(p + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        Matrix::from_vec(m, n, out)
    }

    /// `a @ b^T`: one dot product per output element.
    pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows, a.cols, b.rows);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a.data[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow.iter()) {
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
        Matrix::from_vec(m, n, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Values in `[-2, 2)` with about a quarter exact zeros (both signs),
    /// so the oracle's zero skip is exercised on both operands.
    fn gemm_operand(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec((0u8..8, -2.0f32..2.0), rows * cols).prop_map(move |cells| {
            let data = cells
                .into_iter()
                .map(|(kind, v)| match kind {
                    0 => 0.0,
                    1 => -0.0,
                    _ => v,
                })
                .collect();
            Matrix::from_vec(rows, cols, data)
        })
    }

    /// Shapes spanning 1..=70 per dimension: rows below and across the
    /// tile height, columns below, at, and off multiples of the tile
    /// width, and `k = 1`.
    fn gemm_shape() -> impl Strategy<Value = (usize, usize, usize)> {
        (0u8..4, 1usize..71, 1usize..71, 1usize..71).prop_map(|(kind, m, k, n)| match kind {
            0 => (m % MR + 1, k, n),
            1 => (m, 1, n),
            2 => (m, k, n % NR + 1),
            _ => (m, k, n),
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn gemm_kernels_match_the_oracle_bit_for_bit(
            (m, k, n) in gemm_shape(),
            seed in 0u32..u32::MAX,
        ) {
            let mut rng = proptest::test_runner::TestRng::for_case("gemm_operands", seed);
            let a = gemm_operand(m, k).generate(&mut rng);
            let b = gemm_operand(k, n).generate(&mut rng);
            let at = gemm_operand(k, m).generate(&mut rng);
            let bt = gemm_operand(n, k).generate(&mut rng);
            prop_assert_eq!(bits(&a.matmul(&b)), bits(&oracle::matmul(&a, &b)));
            prop_assert_eq!(bits(&at.matmul_tn(&b)), bits(&oracle::matmul_tn(&at, &b)));
            prop_assert_eq!(bits(&a.matmul_nt(&bt)), bits(&oracle::matmul_nt(&a, &bt)));
        }
    }

    #[test]
    fn matmul_matches_by_hand() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(4, 5, |r, c| (r + c) as f32 * 0.25);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(5, 3, |r, c| (r + 2 * c) as f32 * 0.25);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_is_involutive() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let total: f32 = s.row(r).iter().sum();
            assert!((total - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_values() {
        let a = Matrix::from_vec(1, 3, vec![1000., 1000., 1000.]);
        let s = a.softmax_rows();
        for &v in s.data() {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_matches_the_single_loop_oracle_bit_for_bit() {
        let wide: Vec<f32> = (0..37)
            .map(|i| ((i * 29 % 41) as f32 * 0.37).sin() * 6.0)
            .collect();
        let rows: [&[f32]; 6] = [
            // Attention rows with -1e9 mask columns.
            &[0.3, -1e9, 1.7, -1e9, -0.2],
            &[-1e9, 2.0, -1e9],
            // Ties at the max.
            &[2.5, -1.0, 2.5, 2.5, 0.75],
            &[-7.25],
            // Scores whose exp is subnormal, 2⁻¹⁴⁹ or +0.
            &[0.0, -87.5, -90.0, -100.0, -103.5, -103.9, -104.5],
            // Longer than a vector register, with a tail.
            &wide,
        ];
        for row in rows {
            let mut got = row.to_vec();
            softmax_in_place(&mut got);
            let mut want = row.to_vec();
            oracle::softmax_in_place(&mut want);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "row {row:?}");
        }
    }

    #[test]
    fn stack_and_slice_roundtrip() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let b = Matrix::from_fn(1, 3, |_, c| 100.0 + c as f32);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.slice_rows(0, 2), a);
        assert_eq!(v.slice_rows(2, 1), b);

        let c = Matrix::from_fn(2, 2, |r, _| r as f32);
        let h = Matrix::hstack(&[&a, &c]);
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h.slice_cols(0, 3), a);
        assert_eq!(h.slice_cols(3, 2), c);
    }

    #[test]
    fn gather_rows_duplicates() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), a.row(2));
        assert_eq!(g.row(1), a.row(0));
        assert_eq!(g.row(2), a.row(2));
    }

    #[test]
    fn mean_rows_is_columnwise_mean() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let m = a.mean_rows();
        assert_eq!(m.data(), &[2., 3.]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
