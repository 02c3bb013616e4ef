use crate::kcount::{self, Kernel};
use crate::Tensor;

// Declared memory traffic is bytes read + written at f32 width; FLOP counts
// follow the usual dense-kernel conventions (multiply-add = 2 FLOPs).
fn n64(n: usize) -> u64 {
    n as u64
}

impl Tensor {
    /// Elementwise addition; shapes must match.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction; shapes must match.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product; shapes must match.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// In-place elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        let _k = kcount::scope(Kernel::Elementwise, n64(self.numel()), 12 * n64(self.numel()));
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in axpy");
        let _k = kcount::scope(Kernel::Elementwise, 2 * n64(self.numel()), 12 * n64(self.numel()));
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Tensor {
        let _k = kcount::scope(Kernel::Elementwise, n64(self.numel()), 8 * n64(self.numel()));
        Tensor::from_vec(self.shape().to_vec(), self.data().iter().map(|x| x * scalar).collect())
    }

    /// In-place multiplication by a scalar.
    pub fn scale_assign(&mut self, scalar: f32) {
        let _k = kcount::scope(Kernel::Elementwise, n64(self.numel()), 8 * n64(self.numel()));
        for x in self.data_mut() {
            *x *= scalar;
        }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let _k = kcount::scope(Kernel::Elementwise, n64(self.numel()), 8 * n64(self.numel()));
        Tensor::from_vec(self.shape().to_vec(), self.data().iter().map(|&x| f(x)).collect())
    }

    /// Sets every element to zero, preserving the allocation.
    pub fn fill_zero(&mut self) {
        self.data_mut().fill(0.0);
    }

    /// 2-D matrix multiply: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Bit-exact with the textbook ikj loop; see [`gemm`] for the contract.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().len(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape().len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        matmul_strided(self.data(), k, 1, other.data(), m, k, n)
    }

    /// Transposed-left matrix multiply: `selfᵀ · other`, i.e.
    /// `[k, m]ᵀ x [k, n] -> [m, n]`, without building the transpose.
    ///
    /// Bit-identical to `self.transpose2().matmul(other)`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().len(), 2, "matmul_tn lhs must be 2-D");
        assert_eq!(other.shape().len(), 2, "matmul_tn rhs must be 2-D");
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_tn inner dimensions differ: {k} vs {k2}");
        matmul_strided(self.data(), 1, m, other.data(), m, k, n)
    }

    /// Transpose of a 2-D tensor.
    pub fn transpose2(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let _k = kcount::scope(Kernel::Transpose, 0, 8 * n64(m) * n64(n));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for (j, &v) in self.row(i).iter().enumerate() {
                out[j * m + i] = v;
            }
        }
        Tensor::from_vec(vec![n, m], out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        let _k = kcount::scope(Kernel::Norm, 2 * n64(self.numel()), 4 * n64(self.numel()));
        self.data().iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Euclidean distance between two same-shape tensors, flattened.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn l2_distance(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "l2_distance shape mismatch");
        crate::norms::l2_distance_slice(self.data(), other.data()) as f32
    }

    /// Column sums of a 2-D tensor: `[m, n] -> [n]`.
    pub fn sum_axis0(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; n];
        for r in 0..m {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        Tensor::from_vec(vec![n], out)
    }

    /// Maximum element (NaN-free input assumed).
    pub fn max(&self) -> f32 {
        self.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (NaN-free input assumed).
    pub fn min(&self) -> f32 {
        self.data().iter().cloned().fold(f32::INFINITY, f32::min)
    }

    /// Elementwise clamp into `[lo, hi]`.
    pub fn clip(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "invalid clip range");
        self.map(|x| x.clamp(lo, hi))
    }

    /// Dot product of two tensors of identical shape.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in dot");
        let _k = kcount::scope(Kernel::Elementwise, 2 * n64(self.numel()), 8 * n64(self.numel()));
        self.data().iter().zip(other.data()).map(|(a, b)| a * b).sum()
    }

    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in elementwise op");
        let _k = kcount::scope(Kernel::Elementwise, n64(self.numel()), 12 * n64(self.numel()));
        let data = self.data().iter().zip(other.data()).map(|(&a, &b)| f(a, b)).collect();
        Tensor::from_vec(self.shape().to_vec(), data)
    }
}

/// Rows of the register tile.
const MR: usize = 4;
/// Columns of the register tile; the autovectoriser lifts this loop.
const NR: usize = 8;

/// Accounts for and runs one [`gemm`] into a fresh `[m, n]` tensor.
fn matmul_strided(
    a: &[f32],
    row_stride: usize,
    col_stride: usize,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Tensor {
    let _k = kcount::scope(
        Kernel::Matmul,
        2 * n64(m) * n64(n) * n64(k),
        4 * (n64(m) * n64(k) + n64(k) * n64(n) + n64(m) * n64(n)),
    );
    let mut out = vec![0.0f32; m * n];
    gemm(a, row_stride, col_stride, b, &mut out, m, k, n);
    Tensor::from_vec(vec![m, n], out)
}

/// `out = A · b` for a strided `A(i, p) = a[i * row_stride + p * col_stride]`
/// of shape `[m, k]`, a row-major `b: [k, n]` and a zeroed row-major
/// `out: [m, n]`.
///
/// The kernel contract, which makes every result bit-identical to the
/// textbook ikj loop:
/// - each output element starts from `+0.0` and adds its `A(i, p) * b[p, j]`
///   terms one at a time in increasing `p`;
/// - a term whose left entry is `== 0.0` (either sign) is skipped, so a
///   zero row entry never turns a NaN or ±∞ in `b` into a NaN, and a `-0.0`
///   sum keeps its sign;
/// - no fused multiply-add and no reassociation.
///
/// Which elements are computed together is free; the order within one
/// element is not. Outputs at most `2 × NR` columns wide are computed in
/// full `MR × NR` tiles that keep their accumulators in registers across
/// the whole `p` loop: on such narrow rows the ikj loop spends more on
/// per-term loop overhead and `out` traffic than on arithmetic. Wider
/// outputs, and the edge rows and columns, run the ikj loop, which
/// amortizes that overhead over the row and whose one zero test per
/// `(i, p)` skips a whole row segment (on ReLU-sparse operands a tile
/// would re-test, and mispredict, the same zero once per tile).
#[allow(clippy::too_many_arguments)]
fn gemm(
    a: &[f32],
    row_stride: usize,
    col_stride: usize,
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let m_tiled = m - m % MR;
    let n_tiled = if n <= 2 * NR { n - n % NR } else { 0 };
    for i in (0..m_tiled).step_by(MR) {
        for j in (0..n_tiled).step_by(NR) {
            let mut acc = [[0.0f32; NR]; MR];
            for p in 0..k {
                let brow = &b[p * n + j..p * n + j + NR];
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = a[(i + r) * row_stride + p * col_stride];
                    if av == 0.0 {
                        continue;
                    }
                    for (o, &bv) in acc_row.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(acc_row);
            }
        }
    }
    for i in 0..m {
        let cols = if i < m_tiled { n_tiled..n } else { 0..n };
        if cols.is_empty() {
            continue;
        }
        let out_row = &mut out[i * n + cols.start..i * n + cols.end];
        for p in 0..k {
            let av = a[i * row_stride + p * col_stride];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n + cols.start..p * n + cols.end];
            for (o, &bv) in out_row.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The textbook ikj loop that [`gemm`] must match bit for bit.
    fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, n) = (a.rows(), b.cols());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &aip) in a.row(i).iter().enumerate() {
                if aip == 0.0 {
                    continue;
                }
                for (o, &bv) in orow.iter_mut().zip(b.row(p)) {
                    *o += aip * bv;
                }
            }
        }
        Tensor::from_vec(vec![m, n], out)
    }

    /// A matrix of values spread over several magnitudes (so a reordered
    /// sum rounds differently), with `0.0` and `-0.0` entries and, when
    /// `special`, NaN and ±∞ too.
    fn mixed(rows: usize, cols: usize, special: bool, rng: &mut StdRng) -> Tensor {
        let data = (0..rows * cols)
            .map(|_| match rng.random_range(0..40u32) {
                0..=5 => 0.0,
                6..=8 => -0.0,
                9 if special => f32::NAN,
                10 if special => f32::INFINITY,
                11 if special => f32::NEG_INFINITY,
                e => rng.random_range(-1.0f32..1.0) * 2f32.powi(e as i32 % 13 - 6),
            })
            .collect();
        Tensor::from_vec(vec![rows, cols], data)
    }

    fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (idx, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {idx} is {g}, want {w}");
        }
    }

    #[test]
    fn tiled_kernels_are_bit_identical_to_the_ikj_loop() {
        // Every combination of sizes below: at and around the 4x8 tile edges
        // and the 16-column limit of the tiled path.
        const DIMS: [usize; 10] = [1, 3, 4, 5, 7, 8, 9, 16, 17, 75];
        let mut rng = StdRng::seed_from_u64(0x6e6d);
        for &m in &DIMS {
            for &k in &DIMS {
                for &n in &DIMS {
                    let special = rng.random_range(0..2u32) == 1;
                    let what = format!("m={m} k={k} n={n} special={special}");
                    let a = mixed(m, k, special, &mut rng);
                    let b = mixed(k, n, special, &mut rng);
                    let want = reference_matmul(&a, &b);
                    assert_same_bits(&a.matmul(&b), &want, &format!("matmul {what}"));
                    let at = a.transpose2();
                    assert_same_bits(&at.matmul_tn(&b), &want, &format!("matmul_tn {what}"));
                }
            }
        }
    }

    #[test]
    fn zero_lhs_entries_keep_nan_and_inf_out_of_the_sum() {
        // 0 * NaN and 0 * ±inf are NaN; the skip keeps them out of the sum.
        let a = t(&[5, 2], &[0.0, 1.0, -0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]);
        let mut b = t(&[2, 9], &[f32::NAN; 18]);
        b.data_mut()[1] = f32::INFINITY;
        b.data_mut()[2] = f32::NEG_INFINITY;
        b.data_mut()[9..].fill(-0.0);
        for c in [a.matmul(&b), a.transpose2().matmul_tn(&b)] {
            assert!(c.data().iter().all(|v| v.to_bits() == 0.0f32.to_bits()), "{c:?}");
        }
    }

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), data.to_vec())
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let b = t(&[2, 2], &[4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(a.sub(&b).data(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 6.0, 6.0, 4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[3], &[1.0, 1.0, 1.0]);
        let b = t(&[3], &[1.0, 2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[3, 2], &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let i = t(&[2, 2], &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_bad_dims() {
        let a = t(&[2, 3], &[0.0; 6]);
        let b = t(&[2, 3], &[0.0; 6]);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_tn_rejects_bad_dims() {
        let a = t(&[2, 3], &[0.0; 6]);
        let b = t(&[3, 2], &[0.0; 6]);
        let _ = a.matmul_tn(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose2().transpose2(), a);
        assert_eq!(a.transpose2().at2(2, 1), 6.0);
    }

    #[test]
    fn sum_axis0_sums_columns() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sum_axis0().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn min_max_clip_dot() {
        let a = t(&[4], &[-2.0, 0.5, 3.0, 1.0]);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.clip(-1.0, 1.0).data(), &[-1.0, 0.5, 1.0, 1.0]);
        let b = t(&[4], &[1.0, 2.0, 0.0, -1.0]);
        assert_eq!(a.dot(&b), -2.0 + 1.0 + 0.0 - 1.0);
    }

    #[test]
    fn reductions() {
        let a = t(&[4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.l2_norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }
}
