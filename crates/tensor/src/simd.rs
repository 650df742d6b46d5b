//! Vector inner loops.
//!
//! - [`fma_row`]: fixed-width chunked mul-add for the row-at-a-time kernels
//!   `matmul_tn`, `spmm` and `axpy`. The matmul fold (`ops::fold_rows`)
//!   keeps its output row in a register tile across `k` instead, and does
//!   not call it.
//! - [`exp_map`]: elementwise `exp` and logistic sigmoid, behind
//!   `ops::exp` and `ops::sigmoid`.
//!
//! ## `fma_row`
//!
//! `rustc` will not auto-vectorize the scalar `for (o, &b) in ...` form of a
//! row-wise mul-add reliably — the iterator chain obscures the trip count.
//! Splitting the row into `chunks_exact(LANES)` gives the optimizer a
//! constant-length inner loop it unrolls into SIMD lanes, while the
//! remainder falls back to the scalar tail.
//!
//! Each output element still sees exactly one `o[j] += a * b[j]` per call —
//! the same operation, in the same per-element order, as the scalar loop.
//! Chunking only regroups *independent* elements; it never reassociates an
//! accumulation chain, and Rust never contracts `a * b + c` into a fused
//! multiply-add without an explicit `mul_add` call. The kernels built on
//! [`fma_row`] are therefore bit-identical to a scalar loop by construction,
//! which the `ops` unit tests and the tensor property tests enforce.
//!
//! ## `exp_map`: two bodies, picked the way glibc picks `expf`
//!
//! `f32::exp` is a call into the host's libm `expf`, one element at a time.
//! Its bits are whatever that libm computes, so a vector body can only give
//! the same bits by running the same algorithm. On x86-64 glibc, `expf` is
//! an ifunc: on a CPU with AVX2 and FMA it resolves to `__expf_fma`, the
//! FMA build of glibc 2.28+'s table-driven `__expf` (a 32-entry table of
//! `2^(i/32)` and a cubic in `f64`). [`exp_map`] mirrors that choice. On
//! such a host it runs `glibc_fma`, an AVX2 + FMA copy of that build,
//! step for step, four `f64` lanes per register. Every other host runs the
//! scalar body: `f32::exp` and `ops::sigmoid_scalar` per element, because
//! there only the host's own `expf` gives the host's bits. Lanes outside
//! the copied main path (`|x| ≥ 88`, ∞, NaN) are recomputed by the scalar
//! body, so overflow, underflow and NaN payloads are libm's. Under Miri the
//! gate reads false, so Miri interprets the scalar body.
//!
//! The sigmoid is `ops::sigmoid_scalar`'s two branches folded into one:
//! `e = exp(−|x|)`, then `1 / (1 + e)` where `x ≥ 0` and `e / (1 + e)`
//! elsewhere, the same `f32` divide operands as the branchy scalar form.
//! The tests compare both bodies with libm over a strided sweep of all
//! 2^32 inputs, and exhaustively under `--ignored`.

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

/// Which elementwise function [`exp_map`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExpFn {
    /// `f32::exp`.
    Exp,
    /// `ops::sigmoid_scalar`.
    Sigmoid,
}

impl ExpFn {
    /// The scalar body: what every element must equal, bit for bit.
    pub(crate) fn scalar(self) -> fn(f32) -> f32 {
        match self {
            ExpFn::Exp => f32::exp,
            ExpFn::Sigmoid => crate::ops::sigmoid_scalar,
        }
    }
}

/// Whether this host's libm `expf` is glibc's `__expf_fma`, which the
/// vector body copies: x86-64 Linux glibc on a CPU with AVX2 and FMA.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
pub(crate) fn glibc_fma_expf() -> bool {
    !cfg!(miri) && is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

/// Whether this host's libm `expf` is glibc's `__expf_fma`: never off
/// x86-64 Linux glibc.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
pub(crate) fn glibc_fma_expf() -> bool {
    false
}

/// `out[i] = f(x[i])` for every `i`, bit for bit [`ExpFn::scalar`]: the
/// vector body where [`glibc_fma_expf`] holds, the scalar body elsewhere.
///
/// # Panics
/// Panics if `x` and `out` differ in length.
pub(crate) fn exp_map(f: ExpFn, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "exp_map: {} inputs for {} outputs", x.len(), out.len());
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if glibc_fma_expf() {
        // SAFETY: the CPU has AVX2 and FMA.
        return unsafe { glibc_fma::exp_map(f, x, out) };
    }
    let scalar = f.scalar();
    for (o, &v) in out.iter_mut().zip(x) {
        *o = scalar(v);
    }
}

/// An AVX2 + FMA copy of glibc's `__expf_fma` (glibc 2.28+,
/// `sysdeps/ieee754/flt-32/e_expf.c` built with FMA contraction).
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod glibc_fma {
    use super::ExpFn;
    use std::arch::x86_64::*;

    /// `__exp2f_data.tab`: `T[i] = asuint64(2^(i/32)) − (i << 47)`, so that
    /// adding `ki << 47` to `T[ki % 32]` gives the bits of `2^(ki/32)`.
    static T: [u64; 32] = [
        0x3ff0000000000000,
        0x3fefd9b0d3158574,
        0x3fefb5586cf9890f,
        0x3fef9301d0125b51,
        0x3fef72b83c7d517b,
        0x3fef54873168b9aa,
        0x3fef387a6e756238,
        0x3fef1e9df51fdee1,
        0x3fef06fe0a31b715,
        0x3feef1a7373aa9cb,
        0x3feedea64c123422,
        0x3feece086061892d,
        0x3feebfdad5362a27,
        0x3feeb42b569d4f82,
        0x3feeab07dd485429,
        0x3feea47eb03a5585,
        0x3feea09e667f3bcd,
        0x3fee9f75e8ec5f74,
        0x3feea11473eb0187,
        0x3feea589994cce13,
        0x3feeace5422aa0db,
        0x3feeb737b0cdc5e5,
        0x3feec49182a3f090,
        0x3feed503b23e255d,
        0x3feee89f995ad3ad,
        0x3feeff76f2fb5e47,
        0x3fef199bdd85529c,
        0x3fef3720dcef9069,
        0x3fef5818dcfba487,
        0x3fef7c97337b9b5f,
        0x3fefa4afa2a490da,
        0x3fefd0765b6e4540,
    ];
    /// `32 / ln 2`.
    const INV_LN2_N: u64 = 0x40471547652b82fe;
    /// The cubic's coefficients, scaled by powers of `1/32`.
    const C0: u64 = 0x3ebc6af84b912394;
    const C1: u64 = 0x3f2ebfce50fac4f3;
    const C2: u64 = 0x3f962e42ff0c52d6;
    /// `0x1.8p52`: adding it rounds to an integer, ties to even.
    const SHIFT: u64 = 0x4338000000000000;
    /// `asuint(88.0f)`: glibc's main path takes `|x|` below this.
    const MAIN_PATH_END: i32 = 0x42b0_0000;

    /// Where [`glibc_fma_expf`](super::glibc_fma_expf) holds, `out[i] =
    /// f(x[i])` in 8-lane blocks, the last block padded.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_map(f: ExpFn, x: &[f32], out: &mut [f32]) {
        match f {
            ExpFn::Exp => map_blocks::<false>(x, out),
            ExpFn::Sigmoid => map_blocks::<true>(x, out),
        }
    }

    /// [`exp_map`] for one function.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn map_blocks<const SIGMOID: bool>(x: &[f32], out: &mut [f32]) {
        let mut xs = x.chunks_exact(8);
        let mut os = out.chunks_exact_mut(8);
        for (xb, ob) in xs.by_ref().zip(os.by_ref()) {
            ob.copy_from_slice(&block::<SIGMOID>(xb));
        }
        let (xr, or) = (xs.remainder(), os.into_remainder());
        if !xr.is_empty() {
            let mut padded = [0.0f32; 8];
            padded[..xr.len()].copy_from_slice(xr);
            or.copy_from_slice(&block::<SIGMOID>(&padded)[..xr.len()]);
        }
    }

    /// One 8-lane block: [`main_path`], then the scalar body for each lane
    /// off it.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn block<const SIGMOID: bool>(x: &[f32]) -> [f32; 8] {
        let mut out = main_path::<SIGMOID>(x);
        // `|x| ≥ 88`, ∞ or NaN: glibc leaves the main path, and so does this.
        let abs = _mm256_and_si256(_mm256_castps_si256(_mm256_loadu_ps(x.as_ptr())), _mm256_set1_epi32(i32::MAX));
        let off = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(MAIN_PATH_END - 1));
        let mut lanes = _mm256_movemask_ps(_mm256_castsi256_ps(off)) as u32;
        while lanes != 0 {
            let l = lanes.trailing_zeros() as usize;
            out[l] = if SIGMOID { crate::ops::sigmoid_scalar(x[l]) } else { x[l].exp() };
            lanes &= lanes - 1;
        }
        out
    }

    /// `exp` (or the sigmoid) of 8 lanes by glibc's main path alone: libm's
    /// bits wherever `|x| < 88`, unspecified elsewhere.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn main_path<const SIGMOID: bool>(x: &[f32]) -> [f32; 8] {
        assert_eq!(x.len(), 8, "main_path: one 8-lane block");
        let v = _mm256_loadu_ps(x.as_ptr());
        let y = if SIGMOID {
            // −|x|, so exp never overflows on the main path.
            let e = exp8(_mm256_or_ps(v, _mm256_set1_ps(-0.0)));
            let one = _mm256_set1_ps(1.0);
            let num = _mm256_blendv_ps(e, one, _mm256_cmp_ps::<_CMP_GE_OQ>(v, _mm256_setzero_ps()));
            _mm256_div_ps(num, _mm256_add_ps(one, e))
        } else {
            exp8(v)
        };
        let mut out = [0.0f32; 8];
        _mm256_storeu_ps(out.as_mut_ptr(), y);
        out
    }

    /// `__expf_fma`'s main path on 8 lanes, as two halves of 4 `f64` lanes.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp8(x: __m256) -> __m256 {
        let lo = exp4(_mm256_castps256_ps128(x));
        let hi = exp4(_mm256_extractf128_ps::<1>(x));
        _mm256_set_m128(hi, lo)
    }

    /// `__expf_fma`'s main path on 4 lanes, step for step.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp4(x: __m128) -> __m128 {
        let (inv_ln2_n, shift) = (splat(INV_LN2_N), splat(SHIFT));
        let xd = _mm256_cvtps_pd(x);
        // x·32/ln2 = k + r, k rounded to an integer, |r| ≤ 1/2.
        let kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
        // s = 2^(k/32): the table entry plus k's integer part in the exponent.
        let t = _mm256_i64gather_epi64::<8>(T.as_ptr().cast(), _mm256_and_si256(ki, _mm256_set1_epi64x(31)));
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        // 2^(r/32) ≈ C0·r³ + C1·r² + C2·r + 1.
        let z = _mm256_fmadd_pd(splat(C0), r, splat(C1));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(splat(C2), r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }

    /// Four `f64` lanes of the given bits.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn splat(bits: u64) -> __m256d {
        _mm256_castsi256_pd(_mm256_set1_epi64x(bits as i64))
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

    // `exp_map` against libm. Miri does not run these: its gate reads false,
    // so there is no vector body to compare, and its libm shims need not
    // give the host libm's bits.

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    extern "C" {
        /// The host libm's `expf`, which `f32::exp` calls.
        fn expf(x: f32) -> f32;
    }

    /// The scalar bodies, with `exp` taken straight from libm where the host
    /// is glibc, so a host whose libm differs from `f32::exp` fails too.
    fn reference(f: ExpFn, x: f32) -> f32 {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        if f == ExpFn::Exp {
            // SAFETY: `expf` is a pure libm function of one float.
            let libm = unsafe { expf(x) };
            assert_eq!(libm.to_bits(), x.exp().to_bits(), "libm expf and f32::exp differ at {:#010x}", x.to_bits());
        }
        f.scalar()(x)
    }

    /// The 64 main-path inputs whose exact `f64` result `y·s` lies nearest
    /// an `f32` rounding midpoint, hardest first, from an exhaustive scan of
    /// glibc's algorithm. A change to the `f64` arithmetic shows here first:
    /// of the five `fma`s, only splitting `r`'s into a multiply and a
    /// subtract changes any output, on exactly two inputs (`0x4202_422f`,
    /// `0xc27c_65d9`), and a strided sweep alone misses both.
    const HARDEST_TO_ROUND: [u32; 64] = [
        0x3e73_ade2, 0xbfde_3004, 0xb300_0000, 0xbbe8_61b2, 0x3d89_32e8, 0x400d_98c7, 0x3b37_991a, 0xba25_3b54,
        0x337f_ffff, 0x3380_0000, 0x343f_ffff, 0x34df_fffd, 0x37ff_7f01, 0x356f_fff9, 0x3b0b_4517, 0x3fbe_11a6,
        0x4014_3eb5, 0x4202_422f, 0x35f7_fff1, 0xc0d7_626b, 0x367b_ffe1, 0x40c1_2c37, 0x4197_276c, 0xba92_1bd7,
        0xbeae_4609, 0xc1d2_107a, 0x36fd_ffc1, 0xbb37_8639, 0x387e_be05, 0xb9fb_ab76, 0xbe14_c82c, 0x377e_ff81,
        0x38fd_dc11, 0xb2ff_ffff, 0xc068_da36, 0xb9a5_6aae, 0xbf0f_a174, 0x3b50_125a, 0x337f_fffe, 0x3d10_3181,
        0x40a6_3bf9, 0xbc70_a558, 0x3b8f_4138, 0xb300_0001, 0xb3c0_0001, 0xb420_0001, 0xbac7_5bcb, 0xbc3f_2901,
        0xb4b0_0002, 0xbd3e_69a5, 0x3a29_cdeb, 0xb8df_930d, 0xb5d4_000b, 0xc27c_65d9, 0xb616_000b, 0xbb57_a63b,
        0xbeb7_bdad, 0xc263_3f4c, 0x3998_e24b, 0x3df0_cb95, 0xc23d_d581, 0xb6b5_0020, 0xbab8_080f, 0xb2ff_fffe,
    ];

    /// Inputs at the edges of glibc's paths: signed zeros, infinities, NaNs
    /// of both signs with payloads, subnormals, both sides of the
    /// `|x| = 88` main-path cut and glibc's overflow/underflow thresholds
    /// (`0x1.62e42ep6`, `−0x1.9d1d9ep6`, `−0x1.9fe368p6`), each with its
    /// neighbours; then [`HARDEST_TO_ROUND`] with both signs, since the
    /// sigmoid takes `exp(−|x|)`.
    fn edge_inputs() -> Vec<f32> {
        let mut bits = vec![
            0x0000_0000,
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0000,
            0xffc0_0000,
            0x7fc1_2345,
            0xffc5_4321,
            0x7f80_0001,
            0xffa0_0001,
            0x7fff_ffff,
            0xffff_ffff,
            0x0000_0001,
            0x0000_0002,
            0x007f_ffff,
            0x8000_0001,
            0x807f_ffff,
            0x0080_0000,
            0x8080_0000,
            0x3f80_0000,
            0xbf80_0000,
            0x7f7f_ffff,
            0xff7f_ffff,
        ];
        for centre in [0x42b0_0000u32, 0xc2b0_0000, 0x42b1_7217, 0xc2ce_8ecf, 0xc2cf_f1b4] {
            bits.extend((centre - 2)..=(centre + 2));
        }
        bits.extend(HARDEST_TO_ROUND.iter().flat_map(|&b| [b, b ^ 0x8000_0000]));
        bits.into_iter().map(f32::from_bits).collect()
    }

    /// Every `stride`-th bit pattern of all 2^32, then [`edge_inputs`].
    fn strided_inputs(stride: usize) -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=u32::MAX).step_by(stride).map(f32::from_bits).collect();
        xs.extend(edge_inputs());
        xs
    }

    fn assert_exp_map_matches(f: ExpFn, xs: &[f32]) {
        let mut out = vec![0.0; xs.len()];
        exp_map(f, xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            let want = reference(f, x);
            assert_eq!(y.to_bits(), want.to_bits(), "{f:?}({:#010x}): {:#010x}, libm {:#010x}", x.to_bits(), y.to_bits(), want.to_bits());
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "no vector body under Miri; its libm shims are not the host libm")]
    fn exp_map_matches_libm_on_a_strided_sweep_and_edges() {
        let xs = strided_inputs(4093);
        assert_exp_map_matches(ExpFn::Exp, &xs);
        assert_exp_map_matches(ExpFn::Sigmoid, &xs);
    }

    #[test]
    #[cfg_attr(miri, ignore = "no vector body under Miri; its libm shims are not the host libm")]
    fn exp_map_matches_libm_at_every_row_width() {
        // Widths 0–17 take every tail length; off-path lanes sit at varying
        // positions within the blocks.
        let pool = strided_inputs(1 << 24);
        for width in 0..=17 {
            for start in 0..pool.len() - width {
                assert_exp_map_matches(ExpFn::Exp, &pool[start..start + width]);
                assert_exp_map_matches(ExpFn::Sigmoid, &pool[start..start + width]);
            }
        }
    }

    /// The copied main path alone, on every input where glibc takes it.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    fn assert_main_path_matches(xs: &[f32]) {
        if !glibc_fma_expf() {
            eprintln!("this host's expf is not glibc's FMA build: only the scalar body runs here");
            return;
        }
        let on_path: Vec<f32> = xs.iter().copied().filter(|x| x.abs() < 88.0).collect();
        for block in on_path.chunks(8) {
            let mut lanes = [0.0f32; 8];
            lanes[..block.len()].copy_from_slice(block);
            // SAFETY: `glibc_fma_expf` holds, so the CPU has AVX2 and FMA.
            let (exp, sigmoid) = unsafe { (glibc_fma::main_path::<false>(&lanes), glibc_fma::main_path::<true>(&lanes)) };
            for (l, &x) in block.iter().enumerate() {
                let (want_exp, want_sigmoid) = (reference(ExpFn::Exp, x), reference(ExpFn::Sigmoid, x));
                assert_eq!(exp[l].to_bits(), want_exp.to_bits(), "exp main path at {:#010x}", x.to_bits());
                assert_eq!(sigmoid[l].to_bits(), want_sigmoid.to_bits(), "sigmoid main path at {:#010x}", x.to_bits());
            }
        }
    }

    #[test]
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    #[cfg_attr(miri, ignore = "no vector body under Miri; its libm shims are not the host libm")]
    fn main_path_matches_libm_on_a_strided_sweep() {
        assert_main_path_matches(&strided_inputs(4093));
    }

    /// All 2^32 inputs through `exp_map`, in 2^16-element rows. Both ignored
    /// tests together take about 90 s in release on 2 vCPUs: `cargo test
    /// --release -p agnn-tensor --lib -- --ignored`.
    #[test]
    #[ignore = "exhaustive: run with --release -- --ignored"]
    fn exp_map_matches_libm_on_every_input() {
        let mut row = vec![0.0f32; 1 << 16];
        for hi in 0..=u16::MAX {
            for (lo, x) in row.iter_mut().enumerate() {
                *x = f32::from_bits(u32::from(hi) << 16 | lo as u32);
            }
            assert_exp_map_matches(ExpFn::Exp, &row);
            assert_exp_map_matches(ExpFn::Sigmoid, &row);
        }
    }

    /// Every main-path input (`|x| < 88`, 2,237,661,184 of them) through the
    /// copied main path alone.
    #[test]
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    #[ignore = "exhaustive: run with --release -- --ignored"]
    fn main_path_matches_libm_on_every_input() {
        let mut row = vec![0.0f32; 1 << 16];
        for hi in 0..=u16::MAX {
            for (lo, x) in row.iter_mut().enumerate() {
                *x = f32::from_bits(u32::from(hi) << 16 | lo as u32);
            }
            assert_main_path_matches(&row);
        }
    }
}
