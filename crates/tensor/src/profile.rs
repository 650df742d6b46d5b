//! Op-level wall-clock profiling registry (DESIGN.md §5.4).
//!
//! Every dense kernel routes through the crate-private `timed` wrapper,
//! which buckets call counts and elapsed nanoseconds per [`Kernel`] into a
//! process-global registry of atomics. A **runtime flag** ([`set_profiling`]) gates the clock reads,
//! so while it is off a kernel call costs one relaxed atomic load more.
//!
//! `agnn-train` drains the registry once per epoch ([`take`]) and forwards
//! the snapshot to `TrainHook::on_op_profile`; `agnn bench --kernels` uses
//! the same clock to time each kernel.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The kernels the registry distinguishes. One bucket per hot dense kernel,
/// plus the sigmoid: one `expf` and one divide per element cost more than a
/// D = 40 matmul of the same shape, and the gated GNN takes one per
/// (target, neighbour) element of every hop. The other elementwise maps
/// are unbucketed: they are memory-bound, and a timer per `add`/`mul`
/// would cost more than it measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Kernel {
    /// Forward product `a · b`.
    MatMul,
    /// Backward weight-gradient product `aᵀ · b`.
    MatMulTn,
    /// Backward input-gradient product `a · bᵀ`.
    MatMulNt,
    /// Cache-tiled transpose.
    Transpose,
    /// Fixed-fanout neighborhood mean pooling.
    SegmentMeanRows,
    /// Fixed-fanout neighborhood sum pooling.
    SegmentSumRows,
    /// Row repetition (adjoint of segment pooling).
    RepeatRows,
    /// In-place scaled accumulation `a += s·b` (optimizer/gradient hot path).
    Axpy,
    /// Sparse×dense product over a CSR left operand.
    Spmm,
    /// Elementwise logistic sigmoid (the gates of the gated GNN).
    Sigmoid,
}

impl Kernel {
    /// Every bucket, in display order.
    pub const ALL: [Kernel; 10] = [
        Kernel::MatMul,
        Kernel::MatMulTn,
        Kernel::MatMulNt,
        Kernel::Transpose,
        Kernel::SegmentMeanRows,
        Kernel::SegmentSumRows,
        Kernel::RepeatRows,
        Kernel::Axpy,
        Kernel::Spmm,
        Kernel::Sigmoid,
    ];

    /// Stable snake_case name used in profiles and `BENCH_kernels.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::MatMul => "matmul",
            Kernel::MatMulTn => "matmul_tn",
            Kernel::MatMulNt => "matmul_nt",
            Kernel::Transpose => "transpose",
            Kernel::SegmentMeanRows => "segment_mean_rows",
            Kernel::SegmentSumRows => "segment_sum_rows",
            Kernel::RepeatRows => "repeat_rows",
            Kernel::Axpy => "axpy",
            Kernel::Spmm => "spmm",
            Kernel::Sigmoid => "sigmoid",
        }
    }
}

/// Number of distinct kernel buckets; sizes the registry arrays.
pub const N_KERNELS: usize = Kernel::ALL.len();

// `AtomicU64` is not `Copy`; a const item makes the repeat-expression legal.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static CALLS: [AtomicU64; N_KERNELS] = [ZERO; N_KERNELS];
static NANOS: [AtomicU64; N_KERNELS] = [ZERO; N_KERNELS];
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns runtime collection on or off.
pub fn set_profiling(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether kernel timings are being collected right now
/// ([`set_profiling`]`(true)`).
pub fn profiling_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds one call of `k` taking `nanos` to the registry.
pub fn record(k: Kernel, nanos: u64) {
    CALLS[k as usize].fetch_add(1, Ordering::Relaxed);
    NANOS[k as usize].fetch_add(nanos, Ordering::Relaxed);
}

/// Zeroes every bucket.
pub fn reset() {
    for i in 0..N_KERNELS {
        CALLS[i].store(0, Ordering::Relaxed);
        NANOS[i].store(0, Ordering::Relaxed);
    }
}

/// Copies the current buckets (kernels with zero calls are omitted).
pub fn snapshot() -> OpProfile {
    let entries = Kernel::ALL
        .iter()
        .filter_map(|&k| {
            let calls = CALLS[k as usize].load(Ordering::Relaxed);
            (calls > 0).then(|| OpTiming { kernel: k.name(), calls, nanos: NANOS[k as usize].load(Ordering::Relaxed) })
        })
        .collect();
    OpProfile { entries }
}

/// [`snapshot`] followed by [`reset`] — the per-epoch drain the trainer uses.
pub fn take() -> OpProfile {
    let s = snapshot();
    reset();
    s
}

/// One registry drain: wall-clock totals per kernel since the last reset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// Kernels observed at least once, in [`Kernel::ALL`] order.
    pub entries: Vec<OpTiming>,
}

impl OpProfile {
    /// Total nanoseconds across every bucket.
    pub fn total_nanos(&self) -> u64 {
        self.entries.iter().map(|e| e.nanos).sum()
    }

    /// Folds another drain into this one (used to aggregate across epochs).
    pub fn merge(&mut self, other: &OpProfile) {
        for e in &other.entries {
            match self.entries.iter_mut().find(|x| x.kernel == e.kernel) {
                Some(x) => {
                    x.calls += e.calls;
                    x.nanos += e.nanos;
                }
                None => self.entries.push(e.clone()),
            }
        }
    }
}

/// Aggregate timing for one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTiming {
    /// Kernel name as in [`Kernel::name`].
    pub kernel: &'static str,
    /// Number of invocations.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those invocations.
    pub nanos: u64,
}

/// Wraps a kernel body, recording its wall-clock into the registry when
/// profiling is live.
#[inline]
pub(crate) fn timed<T>(k: Kernel, f: impl FnOnce() -> T) -> T {
    if profiling_enabled() {
        let t = std::time::Instant::now();
        let out = f();
        record(k, t.elapsed().as_nanos() as u64);
        return out;
    }
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_buckets() {
        let mut a = OpProfile {
            entries: vec![OpTiming { kernel: "matmul", calls: 2, nanos: 100 }],
        };
        let b = OpProfile {
            entries: vec![
                OpTiming { kernel: "matmul", calls: 1, nanos: 50 },
                OpTiming { kernel: "transpose", calls: 3, nanos: 30 },
            ],
        };
        a.merge(&b);
        assert_eq!(a.total_nanos(), 180);
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.entries[0].calls, 3);
    }

    #[test]
    fn registry_roundtrip() {
        reset();
        record(Kernel::MatMulTn, 42);
        record(Kernel::MatMulTn, 8);
        let snap = take();
        let e = snap.entries.iter().find(|e| e.kernel == "matmul_tn").expect("bucket recorded");
        assert_eq!(e.calls, 2);
        assert_eq!(e.nanos, 50);
        // take() reset the registry; matmul_tn may race with other tests
        // only through explicit record() calls, which this module owns.
        assert!(snapshot().entries.iter().all(|e| e.kernel != "matmul_tn" || e.calls < 2));
    }
}
