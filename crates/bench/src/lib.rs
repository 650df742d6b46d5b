//! Experiment harness for the AGNN reproduction.
//!
//! One binary per table/figure (see DESIGN.md §4):
//!
//! | binary | regenerates |
//! |---|---|
//! | `exp_table1` | Table 1 (dataset statistics) |
//! | `exp_table2` | Table 2 (main comparison, 13 systems × 3 datasets × ICS/UCS/WS) |
//! | `exp_table3` | Table 3 (ablation study) |
//! | `exp_table4` | Table 4 (replacement study) |
//! | `exp_fig5`   | Fig. 5 (latent dimension sweep) |
//! | `exp_fig6`   | Fig. 6 (λ sweep) |
//! | `exp_fig7`   | Fig. 7 (candidate threshold `p` sweep) |
//! | `exp_fig8`   | Fig. 8 (strict-cold-start ratio sweep) |
//! | `exp_fig9`   | Fig. 9 (training curves) |
//! | `exp_complexity` | §5.2 (linear scaling in interactions / D) |
//!
//! All binaries accept `--scale <f>` (multiplies the per-dataset default
//! scales), `--epochs <n>`, `--seed <n>`, and `--datasets a,b,c`; each
//! prints a paper-shaped table to stdout and appends JSON rows to
//! `results/<exp>.jsonl`. Figs. 5–7 are one call each of
//! [`runner::run_knob_sweep`] (one AGNN knob under ICS and UCS), and
//! Tables 3–4 one call each of [`runner::run_variant_table`].
//!
//! The `agnn bench` sweeps share the [`harness`] module: one fitted
//! fixture ([`FixtureSpec`]) for `--infer`, `--topk` and `--serve`, one
//! timing loop, one metrics collector, one `BENCH_*.json` writer, and
//! [`Sweep`], which runs any of the four and hands the CLI its artifact,
//! table and bit-identity verdict.
//!
//! The [`kernels`] module is the kernel benchmark behind
//! `agnn bench --kernels`: per-(kernel, shape) p50/p99 latency (rows
//! `bench --compare` guards), written to the `BENCH_kernels.json` perf
//! baseline. The [`infer`] module
//! is the serving-throughput benchmark behind `agnn bench --infer`: tape vs
//! tape-free scoring latency (p50/p99), requests/sec, and one more
//! bit-identity gate, written to `BENCH_infer.json`. The [`topk`] module is
//! the retrieval benchmark behind `agnn bench --topk`: per-k p50/p99
//! latency of exhaustive top-K (rows `bench --compare` guards), written to
//! `BENCH_topk.json`, gated on `top_k` matching the `score_batch` argsort
//! bit for bit. The [`serve`] module is the open-loop
//! TCP load generator behind `agnn bench --serve`: offered-QPS rows against
//! the in-process `agnn-serve` server with exact client-side p50/p99/p999
//! and a byte-identity gate (every coalesced TCP response vs its one-shot
//! `score_batch` answer), written to `BENCH_serve.json`. The [`compare`]
//! module is the regression guard behind `agnn bench --compare OLD,NEW`:
//! it diffs the latency quantiles of two same-kind artifacts and exits
//! nonzero when any drifts past the threshold.

pub mod args;
pub mod compare;
pub mod harness;
pub mod infer;
pub mod kernels;
pub mod runner;
pub mod serve;
pub mod table;
pub mod topk;

pub use args::HarnessArgs;
pub use compare::{run_compare, CompareConfig, CompareReport, DriftRow};
pub use harness::{Fixture, FixtureInfo, FixtureSpec, Sweep, SweepOutput};
pub use infer::{run_infer_bench, InferBenchConfig, InferBenchReport, InferTiming};
pub use serve::{run_serve_bench, ServeBenchConfig, ServeBenchReport, ServeTiming};
pub use topk::{run_topk_bench, TopKBenchConfig, TopKBenchReport, TopKTiming};
pub use kernels::{run_kernel_bench, KernelBenchConfig, KernelBenchReport, KernelShape, KernelTiming};
pub use runner::{run_cell, CellResult, CellSpec};

/// The exact-sample `per_mille`-th percentile of an ascending slice: the
/// `len·per_mille/1000`-th sample, clamped to the last; 0 when empty.
pub(crate) fn percentile(sorted: &[u64], per_mille: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() * per_mille) / 1000).min(sorted.len() - 1)]
}

/// Serializes the unit tests that run a whole bench: each one resets and
/// snapshots the process-wide metrics registry, so two running at once
/// would wipe each other's counters.
#[cfg(test)]
pub(crate) fn metrics_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentiles_index_exact_samples() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 500), 501);
        assert_eq!(percentile(&sorted, 990), 991);
        assert_eq!(percentile(&sorted, 999), 1000);
        assert_eq!(percentile(&[], 500), 0);
    }
}
