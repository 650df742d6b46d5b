//! Kernel benchmark behind `agnn bench --kernels`.
//!
//! Times every dense kernel in `agnn-tensor` across representative AGNN
//! shapes (batch × fanout × embed: the sampled neighborhood tensor is
//! `(batch·fanout) × embed`). Each row reports p50/p99 wall clock under the
//! `p50_ns`/`p99_ns` keys that `bench --compare` guards; the result renders
//! as both a table and the `BENCH_kernels.json` perf baseline.

use crate::harness::{artifact_json, time_reps, Sweep};
use crate::percentile;
use agnn_tensor::ops;
use agnn_tensor::profile::Kernel;
use agnn_tensor::{Csr, Matrix};

/// One AGNN-representative workload: a mini-batch of `batch` target nodes,
/// `fanout` sampled neighbors each, `embed`-dimensional embeddings.
#[derive(Debug, Clone, Copy)]
pub struct KernelShape {
    /// Mini-batch size (target nodes).
    pub batch: usize,
    /// Sampled neighbors per node.
    pub fanout: usize,
    /// Embedding width.
    pub embed: usize,
}

impl KernelShape {
    /// Rows of the neighborhood tensor: `batch · fanout`.
    pub fn rows(&self) -> usize {
        self.batch * self.fanout
    }
}

/// Benchmark configuration: shapes to sweep and repetition counts.
#[derive(Debug, Clone)]
pub struct KernelBenchConfig {
    /// Shapes to time each kernel at.
    pub shapes: Vec<KernelShape>,
    /// Timed repetitions per (kernel, shape).
    pub reps: usize,
    /// Untimed warmup repetitions per (kernel, shape).
    pub warmup: usize,
}

impl KernelBenchConfig {
    /// Full sweep at the paper's training shapes plus the engine's largest
    /// call: the 5,120×40 neighbour level of a 512-pair scoring chunk at
    /// fanout 10.
    pub fn representative() -> Self {
        Self {
            shapes: vec![
                KernelShape { batch: 64, fanout: 8, embed: 32 },
                KernelShape { batch: 128, fanout: 16, embed: 40 },
                KernelShape { batch: 512, fanout: 10, embed: 40 },
                KernelShape { batch: 256, fanout: 64, embed: 64 },
            ],
            reps: 15,
            warmup: 2,
        }
    }

    /// Tiny shapes for CI: times every kernel in well under a second.
    pub fn smoke() -> Self {
        Self {
            shapes: vec![KernelShape { batch: 16, fanout: 4, embed: 16 }, KernelShape { batch: 32, fanout: 8, embed: 40 }],
            reps: 2,
            warmup: 1,
        }
    }
}

/// Measurements for one kernel at one shape.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// Kernel name (matches `agnn_tensor::profile::Kernel::name`).
    pub kernel: &'static str,
    /// The workload shape this row was measured at.
    pub shape: KernelShape,
    /// Sorted per-call wall clock, nanoseconds.
    pub ns: Vec<u64>,
}

impl KernelTiming {
    /// Median call latency.
    pub fn p50_ns(&self) -> u64 {
        percentile(&self.ns, 500)
    }

    /// 99th-percentile call latency.
    pub fn p99_ns(&self) -> u64 {
        percentile(&self.ns, 990)
    }
}

/// Everything `agnn bench --kernels` measured.
#[derive(Debug, Clone)]
pub struct KernelBenchReport {
    /// Timed repetitions behind each row.
    pub reps: usize,
    /// One row per (kernel, shape).
    pub results: Vec<KernelTiming>,
    /// Op-profile drain of the whole sweep (`tensor.<kernel>.calls` /
    /// `.nanos` counters), collected into a private registry so parallel
    /// test threads cannot pollute the artifact.
    pub metrics: agnn_obs::metrics::Snapshot,
}

impl KernelBenchReport {
    /// The `BENCH_kernels.json` document.
    pub fn to_json(&self) -> String {
        let rows: Vec<_> = self
            .results
            .iter()
            .map(|r| {
                vec![
                    ("kernel", format!("\"{}\"", r.kernel)),
                    ("batch", r.shape.batch.to_string()),
                    ("fanout", r.shape.fanout.to_string()),
                    ("embed", r.shape.embed.to_string()),
                    ("p50_ns", r.p50_ns().to_string()),
                    ("p99_ns", r.p99_ns().to_string()),
                ]
            })
            .collect();
        artifact_json(Sweep::Kernels, &[("reps", self.reps.to_string())], &self.metrics, &rows)
    }

    /// Human-readable table for stdout.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "kernel bench · {} rep(s)\n{:<18} {:>6} {:>6} {:>6} {:>10} {:>10}\n",
            self.reps, "kernel", "batch", "fanout", "embed", "p50_us", "p99_us"
        );
        for r in &self.results {
            out.push_str(&format!(
                "{:<18} {:>6} {:>6} {:>6} {:>10.1} {:>10.1}\n",
                r.kernel,
                r.shape.batch,
                r.shape.fanout,
                r.shape.embed,
                r.p50_ns() as f64 / 1e3,
                r.p99_ns() as f64 / 1e3
            ));
        }
        out
    }
}

/// Deterministic operand hash (no RNG: the bench must produce the same
/// operands in every build and environment).
fn cell_hash(r: usize, c: usize, salt: usize) -> usize {
    r.wrapping_mul(31).wrapping_add(c.wrapping_mul(17)).wrapping_add(salt.wrapping_mul(101))
}

/// Deterministic dense test matrix.
fn pattern(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = cell_hash(r, c, salt);
        // ~1/8 exact zeros so the matmul zero-skip fast path is exercised.
        if h % 8 == 0 {
            0.0
        } else {
            ((h % 29) as f32) * 0.07 - 1.0
        }
    })
}

/// Deterministic multi-hot operand (~1/8 density — the attribute regime
/// `spmm` exists for), built without a dense `rows × cols` intermediate.
fn sparse_pattern(rows: usize, cols: usize, salt: usize) -> Csr {
    let mut offsets = vec![0];
    let mut indices = Vec::new();
    for r in 0..rows {
        indices.extend((0..cols).filter(|&c| cell_hash(r, c, salt) % 8 == 0));
        offsets.push(indices.len());
    }
    Csr::multi_hot(cols, &offsets, &indices)
}

/// Builds the benchmark closure for one kernel at one shape.
fn kernel_op(kernel: Kernel, shape: KernelShape) -> Box<dyn Fn() -> Matrix> {
    let rows = shape.rows();
    let d = shape.embed;
    let fanout = shape.fanout;
    match kernel {
        // Forward projection: nbr · W.
        Kernel::MatMul => {
            let nbr = pattern(rows, d, 1);
            let w = pattern(d, d, 2);
            Box::new(move || ops::matmul(&nbr, &w))
        }
        // Backward weight grad: nbrᵀ · grad (k = batch·fanout is the long axis).
        Kernel::MatMulTn => {
            let nbr = pattern(rows, d, 1);
            let grad = pattern(rows, d, 3);
            Box::new(move || ops::matmul_tn(&nbr, &grad))
        }
        // Backward input grad: grad · Wᵀ.
        Kernel::MatMulNt => {
            let grad = pattern(rows, d, 3);
            let w = pattern(d, d, 2);
            Box::new(move || ops::matmul_nt(&grad, &w))
        }
        Kernel::Transpose => {
            let nbr = pattern(rows, d, 1);
            Box::new(move || ops::transpose(&nbr))
        }
        Kernel::SegmentMeanRows => {
            let nbr = pattern(rows, d, 1);
            Box::new(move || ops::segment_mean_rows(&nbr, fanout))
        }
        Kernel::SegmentSumRows => {
            let nbr = pattern(rows, d, 1);
            Box::new(move || ops::segment_sum_rows(&nbr, fanout))
        }
        Kernel::RepeatRows => {
            let pooled = pattern(shape.batch, d, 4);
            Box::new(move || ops::repeat_rows(&pooled, fanout))
        }
        // Optimizer update: grad accumulated into a parameter clone, whose
        // cost rides along in every timing.
        Kernel::Axpy => {
            let param = pattern(rows, d, 3);
            let grad = pattern(rows, d, 1);
            Box::new(move || {
                let mut x = param.clone();
                ops::axpy(&mut x, 0.37, &grad);
                x
            })
        }
        // Sparse attribute rows × dense table.
        Kernel::Spmm => {
            let attrs = sparse_pattern(rows, rows, 5);
            let table = pattern(rows, d, 1);
            Box::new(move || ops::spmm(&attrs, &table))
        }
    }
}

/// Runs the full sweep: every kernel at every configured shape.
pub fn run_kernel_bench(cfg: &KernelBenchConfig) -> KernelBenchReport {
    // Profile the sweep so the artifact carries an op-level drain alongside
    // the timings (same `tensor.*` namespace as `--metrics-out`).
    let profile_was = agnn_tensor::profile::profiling_enabled();
    agnn_tensor::profile::reset();
    agnn_tensor::profile::set_profiling(true);
    let mut results = Vec::new();
    for &shape in &cfg.shapes {
        for kernel in Kernel::ALL {
            let (ns, _) = time_reps(cfg.reps, cfg.warmup, kernel_op(kernel, shape));
            results.push(KernelTiming { kernel: kernel.name(), shape, ns });
        }
    }
    agnn_tensor::profile::set_profiling(profile_was);
    let reg = agnn_obs::metrics::Registry::new();
    agnn_obs::bridge::record_op_profile_into(&reg, &agnn_tensor::profile::take());
    KernelBenchReport { reps: cfg.reps, results, metrics: reg.snapshot() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_times_every_kernel() {
        let report = run_kernel_bench(&KernelBenchConfig::smoke());
        // 9 kernels × 2 shapes, each with one sample per timed rep.
        assert_eq!(report.results.len(), 18);
        assert!(report.results.iter().all(|r| r.ns.len() == 2 && r.p50_ns() <= r.p99_ns()));
        // The sweep's op-profile drain lands in the artifact snapshot.
        assert!(report.metrics.counter("tensor.matmul.calls").unwrap_or(0) > 0, "{:?}", report.metrics);
        assert!(report.metrics.counter("tensor.spmm.calls").unwrap_or(0) > 0, "{:?}", report.metrics);
        assert!(!agnn_tensor::profile::profiling_enabled(), "profiling switch must be restored");
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let report = KernelBenchReport {
            reps: 3,
            results: vec![KernelTiming {
                kernel: "matmul_tn",
                shape: KernelShape { batch: 2, fanout: 2, embed: 2 },
                ns: vec![50, 80, 100],
            }],
            metrics: Default::default(),
        };
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"kernels\""));
        assert!(json.contains("\"p50_ns\": 80, \"p99_ns\": 100"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = report.render_table();
        assert!(table.contains("matmul_tn"), "{table}");
    }
}
