//! Dense kernels: matmul, elementwise maps, broadcasts and reductions.
//!
//! These are plain forward-math functions; the autograd crate pairs each with
//! its adjoint. Kernels take references and return fresh matrices — the
//! training-loop hot paths are the matmuls (forward [`matmul`], backward
//! [`matmul_tn`]/[`matmul_nt`]), the gradient accumulator [`axpy`], and the
//! sparse product [`spmm`]. [`matmul_into`] is the one write-into kernel:
//! it continues a product into a given accumulator.
//!
//! ## One body per kernel
//!
//! Every kernel has exactly one single-threaded body. The matmul fold
//! behind [`matmul`], [`matmul_into`] and [`repeat_concat_matmul`] keeps a
//! register tile: each output row is cut into column tiles of constant
//! width (48, then one of 40/32/24/16/8, then an exact 1–7 tail), and a
//! tile stays in a local array across the whole `k` loop, so the row is
//! loaded and stored once instead of once per `k`. The other mul-add
//! kernels ([`matmul_tn`], [`spmm`], [`axpy`]) run their inner loop through
//! [`crate::simd::fma_row`]. Both forms only regroup independent output
//! elements: each element sees the same `o += a * b` sequence, in
//! ascending `k`, from the same starting value, as a plain scalar loop
//! would, so the bits do not depend on the tiling. Reductions
//! ([`matmul_nt`]'s dot products, segment pooling) keep their scalar order,
//! because chunking them would reassociate a float sum. The unit tests
//! check each kernel bitwise against a test-local scalar loop with that
//! per-element order, the matmul fold at every output width from 1 to 65.
//! Parallelism lives above the kernels: the serve workers score requests
//! concurrently, and a single engine call (at most a few thousand rows at
//! the paper's D = 40) has too little work to split.

use crate::csr::Csr;
use crate::profile::{timed, Kernel};
use crate::simd;
use crate::{shape, Matrix};
use std::ops::Range;

/// `a (m×k) · b (k×n) → (m×n)`: [`matmul_into`] from a zero accumulator.
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let _ = shape::matmul(a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_into(&mut out, a, b, 0..b.rows());
    out
}

/// `acc (m×n) += a (m×k) · b[b_rows] (k×n)`: continues each output row's
/// fold over the `k` consecutive rows `b_rows` of `b`, from the values
/// already in `acc`.
///
/// This is [`matmul`]'s one fold body. Element `(i, j)` gets one
/// `o += a[i][kk] · b[kk][j]` per nonzero `a[i][kk]`, in ascending `kk`, so
/// a product whose inner dimension is cut into consecutive row ranges of
/// `b` gives [`matmul`]'s bits when each range continues from the
/// accumulator the previous range left ([`repeat_concat_matmul`]).
///
/// # Panics
/// Panics if `b_rows` does not lie in `b`, if `a.cols() != b_rows.len()`,
/// or if `acc` is not `a.rows() × b.cols()`.
pub fn matmul_into(acc: &mut Matrix, a: &Matrix, b: &Matrix, b_rows: Range<usize>) {
    let (m, k) = a.shape();
    let n = b.cols();
    assert!(
        b_rows.start <= b_rows.end && b_rows.end <= b.rows() && b_rows.len() == k,
        "matmul_into: rows {b_rows:?} of a {}x{n} b against a {m}x{k} a",
        b.rows()
    );
    assert_eq!(acc.shape(), (m, n), "matmul_into: accumulator {:?} for a {m}x{n} product", acc.shape());
    timed(Kernel::MatMul, || fold_rows(acc.as_mut_slice(), a.as_slice(), k, &b.as_slice()[b_rows.start * n..b_rows.end * n]));
}

/// Widest column tile [`fold_rows`] keeps in registers: 48 `f32`s are 12
/// SSE registers, which leaves room for the broadcast `a` value and the
/// `b` loads among x86-64's 16.
const TILE: usize = 48;

/// The fold body of [`matmul_into`] on raw rows: `acc` rows of width `n`
/// continue over the `k`-wide rows of `a` against the `k × n` rows `bs`.
///
/// Each output row is cut into column tiles of constant width: as many
/// [`TILE`]-wide ones as fit, then one of 40/32/24/16/8, then an exact tail
/// of 1–7, so no width runs columns one at a time. [`fold_tile`] holds a
/// tile in a local array across the whole `k` loop and writes it back
/// once, instead of loading and storing the output row once per `k`.
fn fold_rows(acc: &mut [f32], a: &[f32], k: usize, bs: &[f32]) {
    if k == 0 || acc.is_empty() {
        return; // empty inner dimension: nothing to add
    }
    let n = bs.len() / k;
    let (wide, mid, tail) = (n - n % TILE, n - n % 8, n % 8);
    for (orow, arow) in acc.chunks_mut(n).zip(a.chunks(k)) {
        for j in (0..wide).step_by(TILE) {
            fold_tile::<TILE>(orow, arow, bs, j);
        }
        match mid - wide {
            0 => {}
            8 => fold_tile::<8>(orow, arow, bs, wide),
            16 => fold_tile::<16>(orow, arow, bs, wide),
            24 => fold_tile::<24>(orow, arow, bs, wide),
            32 => fold_tile::<32>(orow, arow, bs, wide),
            _ => fold_tile::<40>(orow, arow, bs, wide),
        }
        match tail {
            0 => {}
            1 => fold_tile::<1>(orow, arow, bs, mid),
            2 => fold_tile::<2>(orow, arow, bs, mid),
            3 => fold_tile::<3>(orow, arow, bs, mid),
            4 => fold_tile::<4>(orow, arow, bs, mid),
            5 => fold_tile::<5>(orow, arow, bs, mid),
            6 => fold_tile::<6>(orow, arow, bs, mid),
            _ => fold_tile::<7>(orow, arow, bs, mid),
        }
    }
}

/// `orow[j..j + T] += Σ_k arow[k] · b[k][j..j + T]` in ascending `k`, with
/// the tile held in a local `[f32; T]` from its first multiply-add to its
/// one write-back.
///
/// Per element this is the same `o += a·b` sequence, in the same order,
/// from the same starting value, as one [`simd::fma_row`] per `k` over the
/// whole row: a tile only regroups independent output elements, and Rust
/// never contracts `a * b + c` into a fused multiply-add. So the bits are
/// unchanged.
#[inline(always)]
fn fold_tile<const T: usize>(orow: &mut [f32], arow: &[f32], bs: &[f32], j: usize) {
    let n = orow.len();
    let out: &mut [f32; T] = (&mut orow[j..j + T]).try_into().expect("tile inside the row");
    let mut tile = *out;
    for (&av, brow) in arow.iter().zip(bs.chunks_exact(n)) {
        // IEEE deviation: skipping the whole b-row when `av == 0.0`
        // masks a non-finite value in `b` where strict IEEE 754 would
        // propagate it (0·NaN = NaN, 0·∞ = NaN). Checked tapes
        // compensate by scanning both operands before eval
        // (`Graph::record` in agnn-autograd), so the audit still sees
        // what the fast path hides.
        if av == 0.0 {
            continue;
        }
        let b: &[f32; T] = brow[j..j + T].try_into().expect("tile inside the row");
        for l in 0..T {
            tile[l] += av * b[l];
        }
    }
    *out = tile;
}

/// `[repeat_rows(t, g) | nb] · w`: each row of `t` (`B × d`) beside each of
/// its `g` rows of `nb` (`(B·g) × e`, target `i`'s at `i·g .. (i+1)·g`),
/// times `w` (`(d + e) × n`), without building the repeat or the concat.
///
/// `t · w[0..d]` is folded once per target row by [`matmul_into`]. Each
/// partial row is repeated `g` times as the starting accumulator, and
/// `matmul_into`'s fold body continues it with `nb · w[d..]`, one target's
/// `g` rows at a time. Per element that is the same multiply-adds, in the
/// same `k` order, from the same zero start as [`matmul`] on the
/// concatenated operand, so the bits agree; a repeated row is a copy of
/// the bits every one of its `g` rows would have folded.
/// At `g = 10` it saves `(g − 1)/2g` (45%) of the multiply-adds.
///
/// # Panics
/// Panics if `w.rows() != t.cols() + nb.cols()`, if
/// `nb.rows() != t.rows() · g`, or if `g == 0`.
pub fn repeat_concat_matmul(t: &Matrix, nb: &Matrix, g: usize, w: &Matrix) -> Matrix {
    assert!(g > 0, "repeat_concat_matmul: zero group size");
    let d = t.cols();
    assert_eq!(
        w.rows(),
        d + nb.cols(),
        "repeat_concat_matmul: w has {} rows for {d} + {} input columns",
        w.rows(),
        nb.cols()
    );
    assert_eq!(nb.rows(), t.rows() * g, "repeat_concat_matmul: {} neighbor rows for {} targets × {g}", nb.rows(), t.rows());
    let (n, e) = (w.cols(), nb.cols());
    let mut head = Matrix::zeros(t.rows(), n);
    matmul_into(&mut head, t, w, 0..d);
    let mut out = Matrix::zeros(nb.rows(), n);
    if out.is_empty() {
        return out;
    }
    let tail = &w.as_slice()[d * n..];
    // One target's g rows at a time, so its block is still in cache when
    // the fold continues over it.
    timed(Kernel::MatMul, || {
        for (i, (block, hrow)) in out.as_mut_slice().chunks_mut(g * n).zip(head.as_slice().chunks(n)).enumerate() {
            for orow in block.chunks_mut(n) {
                orow.copy_from_slice(hrow);
            }
            fold_rows(block, &nb.as_slice()[i * g * e..(i + 1) * g * e], e, tail);
        }
    });
    out
}

/// `aᵀ (k×m) · b (k×n) → (m×n)` without materializing the transpose.
///
/// This is the weight-gradient kernel of the backward pass (`∂L/∂W` for
/// `y = x·W`). It iterates `k` in the outer loop, so every output element
/// accumulates over `k` in ascending order.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m) = a.shape();
    let (_, n) = b.shape();
    let _ = shape::matmul_tn(a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    timed(Kernel::MatMulTn, || {
        let mut out = Matrix::zeros(m, n);
        if out.is_empty() || k == 0 {
            return out;
        }
        for (arow, brow) in a.as_slice().chunks(m).zip(b.as_slice().chunks(n)) {
            for (orow, &av) in out.as_mut_slice().chunks_mut(n).zip(arow) {
                // Same IEEE deviation as matmul: 0·NaN is skipped.
                if av == 0.0 {
                    continue;
                }
                simd::fma_row(orow, av, brow);
            }
        }
        out
    })
}

/// `a (m×k) · bᵀ (n×k) → (m×n)` without materializing the transpose.
///
/// The input-gradient kernel of the backward pass (`∂L/∂x` for `y = x·W`).
/// Each output element is one [`dot`]; chunking that reduction would change
/// its accumulation order, so this kernel stays scalar.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, n) = (a.rows(), b.rows());
    let _ = shape::matmul_nt(a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    timed(Kernel::MatMulNt, || {
        let mut out = Matrix::zeros(m, n);
        if out.is_empty() {
            return out;
        }
        for (i, orow) in out.as_mut_slice().chunks_mut(n).enumerate() {
            let arow = a.row(i);
            for (j, o) in orow.iter_mut().enumerate() {
                *o = dot(arow, b.row(j));
            }
        }
        out
    })
}

/// Sparse × dense: `a (m×k, CSR) · b (k×n) → (m×n)`.
///
/// Each output row accumulates `a`'s stored entries in ascending column
/// order — exactly the columns dense [`matmul`] visits after its zero-skip,
/// in the same order, so `spmm(&Csr::from_dense(a), b)` is bit-identical to
/// `matmul(a, b)`. It shares the zero-skip IEEE deviation: columns absent
/// from the CSR contribute nothing even where `b` holds non-finite values.
///
/// For a [`Csr::multi_hot`] left operand every stored value is `1.0`, and
/// `1.0 · x` is exact for all non-NaN `x`, so the product equals a
/// gather + variable-segment sum over the same index lists bit-for-bit —
/// this is the tape-free attribute-encoder path in `agnn-infer`.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn spmm(a: &Csr, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "spmm: inner dims {} vs {}", a.cols(), b.rows());
    let (m, n) = (a.rows(), b.cols());
    timed(Kernel::Spmm, || {
        let mut out = Matrix::zeros(m, n);
        if out.is_empty() {
            return out;
        }
        let bs = b.as_slice();
        for (i, orow) in out.as_mut_slice().chunks_mut(n).enumerate() {
            let (cols, vals) = a.row_entries(i);
            for (&c, &v) in cols.iter().zip(vals) {
                simd::fma_row(orow, v, &bs[c as usize * n..(c as usize + 1) * n]);
            }
        }
        out
    })
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Transpose, tile by tile so both the source column reads and the
/// destination row writes stay cache-resident.
pub fn transpose(a: &Matrix) -> Matrix {
    let (m, n) = a.shape();
    timed(Kernel::Transpose, || {
        let mut out = Matrix::zeros(n, m);
        let (src, dst) = (a.as_slice(), out.as_mut_slice());
        for r0 in (0..n).step_by(TRANSPOSE_TILE) {
            for c0 in (0..m).step_by(TRANSPOSE_TILE) {
                for r in r0..(r0 + TRANSPOSE_TILE).min(n) {
                    let orow = &mut dst[r * m..(r + 1) * m];
                    for c in c0..(c0 + TRANSPOSE_TILE).min(m) {
                        orow[c] = src[c * n + r];
                    }
                }
            }
        }
        out
    })
}

const TRANSPOSE_TILE: usize = 32;

fn zip_map(a: &Matrix, b: &Matrix, what: &'static str, f: impl Fn(f32, f32) -> f32) -> Matrix {
    let _ = shape::elementwise(what, a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    let data = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| f(x, y)).collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// Elementwise sum.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    zip_map(a, b, "add", |x, y| x + y)
}

/// Elementwise difference.
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    zip_map(a, b, "sub", |x, y| x - y)
}

/// Elementwise (Hadamard) product.
pub fn mul(a: &Matrix, b: &Matrix) -> Matrix {
    zip_map(a, b, "mul", |x, y| x * y)
}

/// Elementwise quotient.
pub fn div(a: &Matrix, b: &Matrix) -> Matrix {
    zip_map(a, b, "div", |x, y| x / y)
}

/// In-place `a += scale · b` — the optimizer's parameter-update kernel.
pub fn axpy(a: &mut Matrix, scale: f32, b: &Matrix) {
    let _ = shape::elementwise("axpy", a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    timed(Kernel::Axpy, || simd::fma_row(a.as_mut_slice(), scale, b.as_slice()));
}

/// In-place `a += b`. The gradient-accumulation kernel: unlike [`add`] it
/// allocates nothing, which matters on the tape hot path where every node's
/// adjoint lands in `accum`.
pub fn add_assign(a: &mut Matrix, b: &Matrix) {
    let _ = shape::elementwise("add_assign", a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
}

/// In-place `a *= b` (Hadamard). Allocation-free counterpart of [`mul`] for
/// adjoints that scale an owned upstream gradient by a mask or activation.
pub fn mul_assign(a: &mut Matrix, b: &Matrix) {
    let _ = shape::elementwise("mul_assign", a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x *= y;
    }
}

/// In-place `a *= s`. Allocation-free counterpart of [`scale`].
pub fn scale_assign(a: &mut Matrix, s: f32) {
    for x in a.as_mut_slice() {
        *x *= s;
    }
}

/// Elementwise map by an arbitrary function.
pub fn map(a: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
    Matrix::from_vec(a.rows(), a.cols(), a.as_slice().iter().map(|&x| f(x)).collect())
}

/// Multiplies every element by `s`.
pub fn scale(a: &Matrix, s: f32) -> Matrix {
    map(a, |x| x * s)
}

/// Adds a `1 × n` row vector to every row of an `m × n` matrix.
pub fn add_row_broadcast(a: &Matrix, row: &Matrix) -> Matrix {
    let _ = shape::row_broadcast("add_row_broadcast", a.shape(), row.shape()).unwrap_or_else(|e| panic!("{e}"));
    let mut out = a.clone();
    let r = row.row(0);
    for orow in out.as_mut_slice().chunks_mut(a.cols()) {
        for (o, &v) in orow.iter_mut().zip(r) {
            *o += v;
        }
    }
    out
}

/// Multiplies every row of `a` elementwise by a `1 × n` row vector.
pub fn mul_row_broadcast(a: &Matrix, row: &Matrix) -> Matrix {
    let _ = shape::row_broadcast("mul_row_broadcast", a.shape(), row.shape()).unwrap_or_else(|e| panic!("{e}"));
    let mut out = a.clone();
    let r = row.row(0);
    for orow in out.as_mut_slice().chunks_mut(a.cols()) {
        for (o, &v) in orow.iter_mut().zip(r) {
            *o *= v;
        }
    }
    out
}

/// Sum of all elements.
pub fn sum_all(a: &Matrix) -> f32 {
    a.as_slice().iter().sum()
}

/// Mean of all elements (0 for an empty matrix).
pub fn mean_all(a: &Matrix) -> f32 {
    if a.is_empty() {
        0.0
    } else {
        sum_all(a) / a.len() as f32
    }
}

/// Column sums as a `1 × n` row vector.
pub fn sum_rows(a: &Matrix) -> Matrix {
    let mut out = vec![0.0f32; a.cols()];
    for row in a.rows_iter() {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
    let out = Matrix::row_vector(out);
    assert_eq!(out.shape(), (1, a.cols()), "sum_rows: reduction shape drifted");
    out
}

/// Row sums as an `m × 1` column vector.
pub fn sum_cols(a: &Matrix) -> Matrix {
    let out = Matrix::col_vector(a.rows_iter().map(|r| r.iter().sum()).collect());
    assert_eq!(out.shape(), (a.rows(), 1), "sum_cols: reduction shape drifted");
    out
}

/// Averages each consecutive group of `g` rows: `(m·g) × n → m × n`.
///
/// This is the fixed-fan-out neighborhood pooling primitive (DESIGN.md §5.2).
pub fn segment_mean_rows(a: &Matrix, g: usize) -> Matrix {
    let _ = shape::segment_rows("segment_mean_rows", a.shape(), g).unwrap_or_else(|e| panic!("{e}"));
    timed(Kernel::SegmentMeanRows, || segment_pool_rows(a, g, true))
}

/// Sums each consecutive group of `g` rows: `(m·g) × n → m × n`.
pub fn segment_sum_rows(a: &Matrix, g: usize) -> Matrix {
    let _ = shape::segment_rows("segment_sum_rows", a.shape(), g).unwrap_or_else(|e| panic!("{e}"));
    timed(Kernel::SegmentSumRows, || segment_pool_rows(a, g, false))
}

/// Pools each consecutive group of `g` source rows into one output row,
/// accumulating the group's rows in ascending order.
fn segment_pool_rows(a: &Matrix, g: usize, mean: bool) -> Matrix {
    let n = a.cols();
    let mut out = Matrix::zeros(a.rows() / g, n);
    if out.is_empty() {
        return out;
    }
    for (orow, agroup) in out.as_mut_slice().chunks_mut(n).zip(a.as_slice().chunks(g * n)) {
        for arow in agroup.chunks(n) {
            for (o, &v) in orow.iter_mut().zip(arow) {
                *o += v;
            }
        }
        if mean {
            for o in orow.iter_mut() {
                *o /= g as f32;
            }
        }
    }
    out
}

/// Sums each variable-length row segment `offsets[i]..offsets[i+1]`.
///
/// `offsets` is a monotone prefix array whose last entry equals `a.rows()`;
/// the output has `offsets.len() - 1` rows. Empty segments yield zero rows.
/// This is the forward kernel behind the autograd tape's variable-segment
/// ops *and* the tape-free inference path — both routes call this one
/// implementation, so their outputs are bit-identical by construction.
pub fn segment_sum_rows_var(a: &Matrix, offsets: &[usize]) -> Matrix {
    segment_reduce_rows_var(a, offsets, false)
}

/// Averages each variable-length row segment `offsets[i]..offsets[i+1]`.
/// See [`segment_sum_rows_var`] for the offsets contract.
pub fn segment_mean_rows_var(a: &Matrix, offsets: &[usize]) -> Matrix {
    segment_reduce_rows_var(a, offsets, true)
}

/// Serial reduction shared by the variable-segment kernels. Rows accumulate
/// in ascending source order within each segment; output rows are
/// independent, so any future parallel path must partition whole segments.
fn segment_reduce_rows_var(a: &Matrix, offsets: &[usize], mean: bool) -> Matrix {
    assert!(offsets.len() >= 2 || (offsets.len() == 1 && a.rows() == 0), "segment offsets too short: {}", offsets.len());
    let n = offsets.len() - 1;
    assert_eq!(*offsets.last().expect("non-empty offsets"), a.rows(), "offsets end {} != {} rows", offsets.last().expect("non-empty offsets"), a.rows());
    let cols = a.cols();
    let mut out = Matrix::zeros(n, cols);
    for i in 0..n {
        let (lo, hi) = (offsets[i], offsets[i + 1]);
        assert!(lo <= hi, "offsets not monotone at {i}: {lo} > {hi}");
        if lo == hi {
            continue;
        }
        let orow = out.row_mut(i);
        for r in lo..hi {
            for (o, &v) in orow.iter_mut().zip(a.row(r)) {
                *o += v;
            }
        }
        if mean {
            let inv = 1.0 / (hi - lo) as f32;
            for o in orow.iter_mut() {
                *o *= inv;
            }
        }
    }
    out
}

/// Multiplies each row `i` of an `m × n` matrix by the scalar `col[i]` of an `m × 1` column.
pub fn mul_col_broadcast(a: &Matrix, col: &Matrix) -> Matrix {
    let _ = shape::col_broadcast("mul_col_broadcast", a.shape(), col.shape()).unwrap_or_else(|e| panic!("{e}"));
    let mut out = a.clone();
    for (i, orow) in out.as_mut_slice().chunks_mut(a.cols()).enumerate() {
        let s = col.get(i, 0);
        for o in orow.iter_mut() {
            *o *= s;
        }
    }
    out
}

/// Repeats each row `g` times: `m × n → (m·g) × n` (adjoint of segment sum).
pub fn repeat_rows(a: &Matrix, g: usize) -> Matrix {
    let _ = shape::repeat_rows(a.shape(), g).unwrap_or_else(|e| panic!("{e}"));
    timed(Kernel::RepeatRows, || {
        let n = a.cols();
        let mut out = Matrix::zeros(a.rows() * g, n);
        if out.is_empty() {
            return out;
        }
        for (oblock, arow) in out.as_mut_slice().chunks_mut(g * n).zip(a.as_slice().chunks(n)) {
            for orow in oblock.chunks_mut(n) {
                orow.copy_from_slice(arow);
            }
        }
        out
    })
}

/// Row-wise softmax (each row sums to 1). Numerically stabilized.
pub fn softmax_rows(a: &Matrix) -> Matrix {
    let mut out = a.clone();
    for row in out.as_mut_slice().chunks_mut(a.cols().max(1)) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Softmax over each consecutive group of `g` entries of an `(m·g) × 1` column.
pub fn segment_softmax_col(a: &Matrix, g: usize) -> Matrix {
    let _ = shape::segment_softmax_col(a.shape(), g).unwrap_or_else(|e| panic!("{e}"));
    let reshaped = a.reshape(a.rows() / g, g);
    softmax_rows(&reshaped).into_reshape(a.rows(), 1)
}

// --- activations -----------------------------------------------------------

/// LeakyReLU with the paper's slope default of 0.01.
pub fn leaky_relu(a: &Matrix, slope: f32) -> Matrix {
    map(a, |x| if x >= 0.0 { x } else { slope * x })
}

/// Logistic sigmoid.
pub fn sigmoid(a: &Matrix) -> Matrix {
    map(a, sigmoid_scalar)
}

/// Scalar logistic sigmoid, numerically stable on both tails.
#[inline]
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Hyperbolic tangent.
pub fn tanh(a: &Matrix) -> Matrix {
    map(a, f32::tanh)
}

/// ReLU.
pub fn relu(a: &Matrix) -> Matrix {
    map(a, |x| x.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    fn assert_bits(what: &str, got: &Matrix, want: &Matrix) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape diverged");
        let same = got.as_slice().iter().zip(want.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what}: diverged from the scalar reference");
    }

    // Scalar references: plain loops with each kernel's per-element order
    // (ascending k, the matmul family's zero-skip, rows pooled in order).

    fn ref_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        ref_matmul_from(Matrix::zeros(a.rows(), b.cols()), a, b)
    }

    /// [`ref_matmul`] continued from the accumulator `out`.
    fn ref_matmul_from(mut out: Matrix, a: &Matrix, b: &Matrix) -> Matrix {
        for i in 0..a.rows() {
            for kk in 0..a.cols() {
                let av = a.get(i, kk);
                if av == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out.set(i, j, out.get(i, j) + av * b.get(kk, j));
                }
            }
        }
        out
    }

    fn ref_matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for kk in 0..a.rows() {
            for i in 0..a.cols() {
                let av = a.get(kk, i);
                if av == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out.set(i, j, out.get(i, j) + av * b.get(kk, j));
                }
            }
        }
        out
    }

    fn ref_matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| (0..a.cols()).map(|kk| a.get(i, kk) * b.get(j, kk)).sum())
    }

    fn ref_segment_rows(a: &Matrix, g: usize, mean: bool) -> Matrix {
        let mut out = Matrix::zeros(a.rows() / g, a.cols());
        for i in 0..out.rows() {
            for r in i * g..(i + 1) * g {
                for j in 0..a.cols() {
                    out.set(i, j, out.get(i, j) + a.get(r, j));
                }
            }
            if mean {
                for j in 0..a.cols() {
                    out.set(i, j, out.get(i, j) / g as f32);
                }
            }
        }
        out
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_nt_match_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 7 + c * 3) as f32 * 0.1);
        let b = Matrix::from_fn(4, 5, |r, c| (r + c) as f32 * 0.2 - 0.5);
        let tn = matmul_tn(&a, &b);
        let expected = matmul(&transpose(&a), &b);
        assert!(tn.max_abs_diff(&expected) < 1e-5);

        let c = Matrix::from_fn(5, 3, |r, c| (r as f32 - c as f32) * 0.3);
        let a2 = Matrix::from_fn(2, 3, |r, c| (r * c) as f32 + 1.0);
        let nt = matmul_nt(&a2, &c);
        let expected2 = matmul(&a2, &transpose(&c));
        assert!(nt.max_abs_diff(&expected2) < 1e-5);
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Against a naive dot-product loop, which sums in a different order,
        // so the comparison is by tolerance rather than bits.
        let a = Matrix::from_fn(80, 70, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.1 - 0.5);
        let b = Matrix::from_fn(70, 90, |r, c| ((r * 11 + c * 7) % 17) as f32 * 0.05 - 0.3);
        let big = matmul(&a, &b);
        // Serial reference.
        let mut refm = Matrix::zeros(80, 90);
        for i in 0..80 {
            for j in 0..90 {
                let mut s = 0.0;
                for k in 0..70 {
                    s += a.get(i, k) * b.get(k, j);
                }
                refm.set(i, j, s);
            }
        }
        assert!(big.max_abs_diff(&refm) < 1e-3);
    }

    #[test]
    fn kernels_match_scalar_reference_bitwise() {
        // Sprinkle exact zeros so the zero-skip fast path fires.
        let a = Matrix::from_fn(37, 23, |r, c| {
            if (r + c) % 5 == 0 {
                0.0
            } else {
                ((r * 31 + c * 17) % 13) as f32 * 0.1 - 0.5
            }
        });
        let b = Matrix::from_fn(23, 29, |r, c| ((r * 11 + c * 7) % 17) as f32 * 0.05 - 0.3);
        let tall = Matrix::from_fn(37, 41, |r, c| ((r * 13 + c * 5) % 19) as f32 * 0.07 - 0.6);
        assert_bits("matmul", &matmul(&a, &b), &ref_matmul(&a, &b));
        assert_bits("matmul_tn", &matmul_tn(&a, &tall), &ref_matmul_tn(&a, &tall));
        let bt = Matrix::from_fn(29, 23, |r, c| b.get(c, r));
        assert_bits("transpose", &transpose(&b), &bt);
        assert_bits("matmul_nt", &matmul_nt(&a, &bt), &ref_matmul_nt(&a, &bt));
        let seg = Matrix::from_fn(36, 7, |r, c| (r as f32 - c as f32) * 0.25);
        assert_bits("segment_mean_rows", &segment_mean_rows(&seg, 4), &ref_segment_rows(&seg, 4, true));
        assert_bits("segment_sum_rows", &segment_sum_rows(&seg, 4), &ref_segment_rows(&seg, 4, false));
        assert_bits("repeat_rows", &repeat_rows(&b, 3), &Matrix::from_fn(69, 29, |r, c| b.get(r / 3, c)));
        assert_bits("spmm", &spmm(&Csr::from_dense(&a), &b), &ref_matmul(&a, &b));
        let y = Matrix::from_fn(37, 41, |r, c| ((r + 2 * c) % 7) as f32 * 0.4);
        let mut x = tall.clone();
        axpy(&mut x, -0.75, &y);
        assert_bits("axpy", &x, &Matrix::from_fn(37, 41, |r, c| tall.get(r, c) + -0.75 * y.get(r, c)));
    }

    #[test]
    fn single_row_matmul_matches_scalar_reference() {
        let a = Matrix::from_fn(1, 300, |_, c| ((c * 7) % 23) as f32 * 0.1 - 1.0);
        let b = Matrix::from_fn(300, 90, |r, c| ((r * 3 + c * 11) % 29) as f32 * 0.05 - 0.7);
        assert_bits("matmul 1×k", &matmul(&a, &b), &ref_matmul(&a, &b));
        let bt = transpose(&b);
        assert_bits("matmul_nt 1×k", &matmul_nt(&a, &bt), &ref_matmul_nt(&a, &bt));
    }

    /// A `rows × cols` operand with exact zeros and `-0.0` sprinkled in,
    /// where a skipped or reordered multiply-add would show.
    fn zero_sprinkled(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| match (r * 7 + c * 3 + salt) % 6 {
            0 => 0.0,
            1 => -0.0,
            v => ((r * 31 + c * 17 + salt) % 13) as f32 * 0.13 - 0.7 + v as f32 * 0.01,
        })
    }

    #[test]
    fn matmul_into_continues_the_fold_of_matmul_bitwise() {
        // 13 output columns: an 8-wide tile and a 5-wide tail.
        let a = zero_sprinkled(5, 9, 0);
        let b = zero_sprinkled(9, 13, 1);
        let mut acc = Matrix::zeros(5, 13);
        matmul_into(&mut acc, &a, &b, 0..9);
        assert_bits("zeros + matmul_into", &acc, &matmul(&a, &b));
        assert_bits("matmul", &acc, &ref_matmul(&a, &b));
        // The same fold cut at every k, continued from the first part's
        // accumulator.
        for cut in 0..=9 {
            let (head, tail) = (Matrix::from_fn(5, cut, |r, c| a.get(r, c)), Matrix::from_fn(5, 9 - cut, |r, c| a.get(r, cut + c)));
            let mut acc = Matrix::zeros(5, 13);
            matmul_into(&mut acc, &head, &b, 0..cut);
            matmul_into(&mut acc, &tail, &b, cut..9);
            assert_bits(&format!("matmul_into cut at {cut}"), &acc, &matmul(&a, &b));
        }
    }

    #[test]
    fn every_tile_width_matches_the_scalar_reference_bitwise() {
        // Widths 1..=65 run every tile arm of `fold_rows` (48, 40, 32, 24,
        // 16, 8) and every exact tail (1–7), alone and after wider tiles.
        for k in [0, 1, 7, 40, 80] {
            for n in 1..=65 {
                // One row: other tests cover the row walk, this one the
                // column ladder, small enough to run under miri.
                let mut a = zero_sprinkled(1, k, n);
                let mut b = zero_sprinkled(k, n, n + 1);
                if k > 0 {
                    // A NaN and an ∞ behind a's −0.0 first and 0.0 last
                    // columns: a dropped zero skip would leak them.
                    a.set(0, 0, -0.0);
                    a.set(0, k - 1, 0.0);
                    b.set(0, n / 2, f32::NAN);
                    b.set(k - 1, n - 1, f32::INFINITY);
                }
                let start = zero_sprinkled(1, n, n + 2);
                let want = ref_matmul_from(start.clone(), &a, &b);
                assert!(want.all_finite(), "a masked non-finite value leaked into the reference at {k}x{n}");
                assert_bits(&format!("matmul {k}x{n}"), &matmul(&a, &b), &ref_matmul(&a, &b));
                let mut acc = start.clone();
                matmul_into(&mut acc, &a, &b, 0..k);
                assert_bits(&format!("matmul_into {k}x{n}"), &acc, &want);
                // The same continuation cut at every k; at the wide inner
                // dimensions only for the engine's width, 40.
                if k > 7 && n != 40 {
                    continue;
                }
                for cut in 0..=k {
                    let head = Matrix::from_fn(1, cut, |r, c| a.get(r, c));
                    let tail = Matrix::from_fn(1, k - cut, |r, c| a.get(r, cut + c));
                    let mut cont = start.clone();
                    matmul_into(&mut cont, &head, &b, 0..cut);
                    matmul_into(&mut cont, &tail, &b, cut..k);
                    assert_bits(&format!("matmul_into {k}x{n} cut at {cut}"), &cont, &want);
                }
            }
        }
    }

    #[test]
    fn repeat_concat_matmul_matches_hconcat_then_matmul_bitwise() {
        let unsplit = |t: &Matrix, nb: &Matrix, g: usize, w: &Matrix| {
            matmul(&Matrix::hconcat(&[&repeat_rows(t, g), nb]), w)
        };
        // D = 13 (an 8-wide tile and a 5-wide tail) for the gate's D × D and GAT's 1 column;
        // g = 1 is the filter gate; B = 0 and D = 0 are the empty cases.
        for (b, d, n, g) in [(3, 13, 13, 4), (2, 13, 1, 3), (4, 5, 5, 1), (0, 13, 13, 4), (3, 0, 6, 2), (2, 13, 0, 3)] {
            let mut t = zero_sprinkled(b, d, 2);
            let mut nb = zero_sprinkled(b * g, d, 3);
            let mut w = zero_sprinkled(2 * d, n, 4);
            if d > 0 && n > 0 {
                // A NaN behind t's all-zero column 1 and an ∞ behind nb's
                // all-zero column 2: the zero skip must mask both, on both
                // paths.
                for r in 0..b {
                    t.set(r, 1, if r % 2 == 0 { 0.0 } else { -0.0 });
                }
                for r in 0..b * g {
                    nb.set(r, 2, 0.0);
                }
                w.set(1, 0, f32::NAN);
                w.set(d + 2, n - 1, f32::INFINITY);
            }
            let out = repeat_concat_matmul(&t, &nb, g, &w);
            assert_eq!(out.shape(), (b * g, n));
            assert!(out.all_finite(), "a masked non-finite weight leaked at {:?}", (b, d, n, g));
            assert_bits(&format!("split {:?}", (b, d, n, g)), &out, &unsplit(&t, &nb, g, &w));
        }
    }

    #[test]
    #[should_panic(expected = "repeat_concat_matmul: zero group size")]
    fn repeat_concat_matmul_rejects_a_zero_group_size() {
        let _ = repeat_concat_matmul(&Matrix::zeros(2, 3), &Matrix::zeros(0, 3), 0, &Matrix::zeros(6, 3));
    }

    #[test]
    #[should_panic(expected = "repeat_concat_matmul: w has 7 rows")]
    fn repeat_concat_matmul_rejects_a_weight_of_the_wrong_height() {
        let _ = repeat_concat_matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 3), 2, &Matrix::zeros(7, 3));
    }

    #[test]
    fn degenerate_shapes_keep_their_shape() {
        let e = Matrix::zeros(0, 5);
        assert_eq!(matmul(&e, &Matrix::zeros(5, 3)).shape(), (0, 3));
        assert_eq!(matmul_tn(&Matrix::zeros(5, 0), &Matrix::zeros(5, 3)).shape(), (0, 3));
        assert_eq!(matmul_nt(&e, &Matrix::zeros(3, 5)).shape(), (0, 3));
        assert_eq!(transpose(&e).shape(), (5, 0));
        assert_eq!(segment_sum_rows(&Matrix::zeros(6, 0), 2).shape(), (3, 0));
        assert_eq!(repeat_rows(&Matrix::zeros(0, 4), 3).shape(), (0, 4));
        assert_eq!(spmm(&Csr::from_dense(&e), &Matrix::zeros(5, 3)).shape(), (0, 3));
        let mut empty = Matrix::zeros(0, 4);
        axpy(&mut empty, 2.0, &Matrix::zeros(0, 4));
        assert_eq!(empty.shape(), (0, 4));
    }

    #[test]
    fn spmm_matches_dense_matmul_bitwise() {
        let a = Matrix::from_fn(19, 31, |r, c| {
            if (r * 31 + c) % 3 != 0 {
                0.0 // two thirds sparse
            } else {
                ((r * 13 + c * 7) % 11) as f32 * 0.3 - 1.2
            }
        });
        let b = Matrix::from_fn(31, 17, |r, c| ((r * 5 + c * 3) % 23) as f32 * 0.11 - 1.0);
        let dense = matmul(&a, &b);
        let sparse = spmm(&Csr::from_dense(&a), &b);
        assert_eq!(dense.shape(), sparse.shape());
        let same = dense.as_slice().iter().zip(sparse.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "spmm diverged from dense matmul");
    }

    #[test]
    fn spmm_multi_hot_matches_gather_segment_sum() {
        // The infer attribute-encoder equivalence: multi-hot spmm must equal
        // gather + variable-segment sum bit-for-bit.
        let table = Matrix::from_fn(9, 6, |r, c| ((r * 17 + c * 29) % 31) as f32 * 0.17 - 2.0);
        let offsets = [0usize, 3, 3, 5, 6];
        let flat = [0usize, 4, 7, 1, 8, 6];
        let gathered = table.gather_rows(&flat);
        let reference = segment_sum_rows_var(&gathered, &offsets);
        let hot = Csr::multi_hot(table.rows(), &offsets, &flat);
        let via_spmm = spmm(&hot, &table);
        assert_eq!(reference.shape(), via_spmm.shape());
        let same = reference.as_slice().iter().zip(via_spmm.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "multi-hot spmm diverged from gather + segment sum");
    }

    #[test]
    fn broadcast_ops() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let r = Matrix::row_vector(vec![10., 20.]);
        assert_eq!(add_row_broadcast(&a, &r).as_slice(), &[11., 22., 13., 24.]);
        assert_eq!(mul_row_broadcast(&a, &r).as_slice(), &[10., 40., 30., 80.]);
    }

    #[test]
    fn reductions() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(sum_all(&a), 21.);
        assert!((mean_all(&a) - 3.5).abs() < 1e-6);
        assert_eq!(sum_rows(&a).as_slice(), &[5., 7., 9.]);
        assert_eq!(sum_cols(&a).as_slice(), &[6., 15.]);
    }

    #[test]
    fn reductions_on_zero_column_matrix_keep_shape() {
        // Regression: rows_iter on m×0 used to yield 0 rows, so sum_cols
        // returned 0×1 instead of m×1.
        let a = Matrix::zeros(3, 0);
        assert_eq!(sum_cols(&a).shape(), (3, 1));
        assert_eq!(sum_cols(&a).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(sum_rows(&a).shape(), (1, 0));
    }

    #[test]
    fn segment_mean_and_repeat() {
        let a = m(4, 2, &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let pooled = segment_mean_rows(&a, 2);
        assert_eq!(pooled.as_slice(), &[2., 3., 6., 7.]);
        let rep = repeat_rows(&pooled, 2);
        assert_eq!(rep.rows(), 4);
        assert_eq!(rep.row(0), rep.row(1));
        assert_eq!(rep.row(0), &[2., 3.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = m(2, 3, &[1., 2., 3., -1., 0., 100.]);
        let s = softmax_rows(&a);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large logit dominates without NaN.
        assert!(s.get(1, 2) > 0.999);
        assert!(s.all_finite());
    }

    #[test]
    fn segment_softmax_groups() {
        let a = Matrix::col_vector(vec![0., 0., 1., 1.]);
        let s = segment_softmax_col(&a, 2);
        assert!((s.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((s.get(2, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn activations_basic() {
        let a = m(1, 3, &[-2., 0., 2.]);
        assert_eq!(leaky_relu(&a, 0.01).as_slice(), &[-0.02, 0., 2.]);
        assert_eq!(relu(&a).as_slice(), &[0., 0., 2.]);
        let s = sigmoid(&a);
        assert!((s.get(0, 1) - 0.5).abs() < 1e-6);
        assert!(s.get(0, 0) < 0.5 && s.get(0, 2) > 0.5);
        // Stability on extreme inputs.
        let extreme = sigmoid(&m(1, 2, &[-100., 100.]));
        assert!(extreme.all_finite());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = m(1, 2, &[1., 1.]);
        axpy(&mut a, 2.0, &m(1, 2, &[3., 4.]));
        assert_eq!(a.as_slice(), &[7., 9.]);
    }

    #[test]
    fn in_place_variants_match_allocating_ops() {
        let a = m(2, 2, &[1., -2., 3., 4.]);
        let b = m(2, 2, &[5., 6., -7., 8.]);
        let mut x = a.clone();
        add_assign(&mut x, &b);
        assert_eq!(x.as_slice(), add(&a, &b).as_slice());
        let mut y = a.clone();
        mul_assign(&mut y, &b);
        assert_eq!(y.as_slice(), mul(&a, &b).as_slice());
        let mut z = a.clone();
        scale_assign(&mut z, -1.5);
        assert_eq!(z.as_slice(), scale(&a, -1.5).as_slice());
    }

    #[test]
    #[should_panic(expected = "add_assign")]
    fn add_assign_shape_mismatch_panics() {
        let mut a = Matrix::zeros(2, 2);
        add_assign(&mut a, &Matrix::zeros(2, 3));
    }
}
