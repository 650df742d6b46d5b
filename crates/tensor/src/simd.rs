//! Fixed-width chunked inner loops for the row-at-a-time mul-add kernels:
//! `matmul_tn`, `spmm` and `axpy`. The matmul fold (`ops::fold_rows`) keeps
//! its output row in a register tile across `k` instead, and does not call
//! [`fma_row`].
//!
//! `rustc` will not auto-vectorize the scalar `for (o, &b) in ...` form of a
//! row-wise mul-add reliably — the iterator chain obscures the trip count.
//! Splitting the row into `chunks_exact(LANES)` gives the optimizer a
//! constant-length inner loop it unrolls into SIMD lanes, while the
//! remainder falls back to the scalar tail.
//!
//! ## Bit-identity
//!
//! Each output element still sees exactly one `o[j] += a * b[j]` per call —
//! the same operation, in the same per-element order, as the scalar loop.
//! Chunking only regroups *independent* elements; it never reassociates an
//! accumulation chain, and Rust never contracts `a * b + c` into a fused
//! multiply-add without an explicit `mul_add` call. The kernels built on
//! [`fma_row`] are therefore bit-identical to a scalar loop by construction,
//! which the `ops` unit tests and the tensor property tests enforce.

/// Chunk width, in `f32` lanes. Eight lanes = one AVX2 register; narrower
/// targets split each chunk across registers and still vectorize.
pub(crate) const LANES: usize = 8;

/// `orow[j] += av * brow[j]` for every `j`, chunked by [`LANES`].
#[inline]
pub(crate) fn fma_row(orow: &mut [f32], av: f32, brow: &[f32]) {
    debug_assert_eq!(orow.len(), brow.len());
    let mut oc = orow.chunks_exact_mut(LANES);
    let mut bc = brow.chunks_exact(LANES);
    for (o, b) in oc.by_ref().zip(bc.by_ref()) {
        for l in 0..LANES {
            o[l] += av * b[l];
        }
    }
    for (o, &b) in oc.into_remainder().iter_mut().zip(bc.remainder()) {
        *o += av * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_row_matches_scalar_loop_bitwise() {
        for len in [0, 1, 7, 8, 9, 16, 23, 64] {
            let brow: Vec<f32> = (0..len).map(|j| (j as f32) * 0.37 - 1.5).collect();
            let mut simd: Vec<f32> = (0..len).map(|j| (j as f32) * -0.11 + 0.2).collect();
            let mut scalar = simd.clone();
            let av = 0.3f32;
            fma_row(&mut simd, av, &brow);
            for (o, &b) in scalar.iter_mut().zip(&brow) {
                *o += av * b;
            }
            let same = simd.iter().zip(&scalar).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "fma_row diverged from scalar at len {len}");
        }
    }
}
