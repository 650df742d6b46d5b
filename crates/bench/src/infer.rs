//! Inference throughput benchmark behind `agnn bench --infer`.
//!
//! Fits one AGNN model on a generated strict-cold-start split, snapshots
//! it, and times scoring the same pair batches two ways: through the
//! training tape (`Agnn::predict_batch`) and through the tape-free
//! [`agnn_infer::InferenceEngine`] with materialized embeddings — the
//! serving configuration. Each row reports p50/p99 latency for both paths,
//! the engine's requests/sec, the tape→engine speedup, and whether the two
//! paths agreed bit for bit (they must; CI gates on it).

use crate::harness::{artifact_json, collect_metrics, time_reps, Fixture, FixtureInfo, FixtureSpec, Sweep};
use crate::percentile;
use agnn_core::RatingModel;
use std::time::Instant;

/// Benchmark configuration: the fixture and the batch-size sweep.
#[derive(Debug, Clone)]
pub struct InferBenchConfig {
    /// The fitted model the sweep scores with.
    pub fixture: FixtureSpec,
    /// Request batch sizes to sweep.
    pub batch_sizes: Vec<usize>,
    /// Timed repetitions per (path, batch size); percentiles come from these.
    pub reps: usize,
    /// Untimed warmup repetitions per (path, batch size).
    pub warmup: usize,
}

impl InferBenchConfig {
    /// Full sweep: serving-shaped batches from single pairs up to chunks.
    pub fn representative() -> Self {
        Self { fixture: FixtureSpec::REPRESENTATIVE, batch_sizes: vec![1, 16, 64, 256], reps: 30, warmup: 3 }
    }

    /// Tiny sweep for CI: exercises both paths and the bit-identity gate
    /// in a few seconds.
    pub fn smoke() -> Self {
        Self { fixture: FixtureSpec::SMOKE, batch_sizes: vec![1, 16], reps: 5, warmup: 1 }
    }
}

/// Measurements for one request batch size.
#[derive(Debug, Clone)]
pub struct InferTiming {
    /// Pairs per request.
    pub batch: usize,
    /// Sorted per-rep wall clock of the tape path, nanoseconds.
    pub tape_ns: Vec<u64>,
    /// Sorted per-rep wall clock of the tape-free engine, nanoseconds.
    pub free_ns: Vec<u64>,
    /// Whether tape and engine scores matched bitwise.
    pub identical: bool,
}

impl InferTiming {
    /// Median tape latency.
    pub fn tape_p50(&self) -> u64 {
        percentile(&self.tape_ns, 500)
    }

    /// Tail tape latency.
    pub fn tape_p99(&self) -> u64 {
        percentile(&self.tape_ns, 990)
    }

    /// Median engine latency.
    pub fn free_p50(&self) -> u64 {
        percentile(&self.free_ns, 500)
    }

    /// Tail engine latency.
    pub fn free_p99(&self) -> u64 {
        percentile(&self.free_ns, 990)
    }

    /// Scored pairs per second through the engine, at median latency.
    pub fn requests_per_sec(&self) -> f64 {
        self.batch as f64 / (self.free_p50().max(1) as f64 / 1e9)
    }

    /// Tape median over engine median (> 1: the engine is faster).
    pub fn speedup(&self) -> f64 {
        self.tape_p50() as f64 / self.free_p50().max(1) as f64
    }
}

/// Everything `agnn bench --infer` measured.
#[derive(Debug, Clone)]
pub struct InferBenchReport {
    /// Dataset the model was fitted on, and the host.
    pub fixture: FixtureInfo,
    /// Timed repetitions behind each percentile.
    pub reps: usize,
    /// Wall-clock cost of [`agnn_infer::InferenceEngine::materialize`],
    /// nanoseconds.
    pub materialize_ns: u64,
    /// One row per batch size.
    pub results: Vec<InferTiming>,
    /// Engine-side metric snapshot of the materialize + sweep phase
    /// (`infer.*` counters and latency histograms).
    pub metrics: agnn_obs::metrics::Snapshot,
}

impl InferBenchReport {
    /// True when the engine matched the tape bitwise at every batch size.
    /// CI fails the bench job on `false`.
    pub fn all_identical(&self) -> bool {
        self.results.iter().all(|r| r.identical)
    }

    /// The `BENCH_infer.json` document.
    pub fn to_json(&self) -> String {
        let mut header = self.fixture.header();
        header.extend([
            ("reps", self.reps.to_string()),
            ("materialize_ns", self.materialize_ns.to_string()),
            ("all_identical", self.all_identical().to_string()),
        ]);
        let rows: Vec<_> = self
            .results
            .iter()
            .map(|r| {
                vec![
                    ("batch", r.batch.to_string()),
                    ("tape_p50_ns", r.tape_p50().to_string()),
                    ("tape_p99_ns", r.tape_p99().to_string()),
                    ("free_p50_ns", r.free_p50().to_string()),
                    ("free_p99_ns", r.free_p99().to_string()),
                    ("requests_per_sec", format!("{:.1}", r.requests_per_sec())),
                    ("speedup", format!("{:.3}", r.speedup())),
                    ("identical", r.identical.to_string()),
                ]
            })
            .collect();
        artifact_json(Sweep::Infer, &header, &self.metrics, &rows)
    }

    /// Human-readable table for stdout.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "infer bench · {} · {} thread(s) · {} rep(s) · materialize {:.1}ms\n{:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}  {}\n",
            self.fixture.title(),
            self.fixture.threads,
            self.reps,
            self.materialize_ns as f64 / 1e6,
            "batch",
            "tape_p50_us",
            "tape_p99_us",
            "free_p50_us",
            "free_p99_us",
            "req_per_s",
            "speedup",
            "identical"
        );
        for r in &self.results {
            out.push_str(&format!(
                "{:>6} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.0} {:>7.2}x  {}\n",
                r.batch,
                r.tape_p50() as f64 / 1e3,
                r.tape_p99() as f64 / 1e3,
                r.free_p50() as f64 / 1e3,
                r.free_p99() as f64 / 1e3,
                r.requests_per_sec(),
                r.speedup(),
                r.identical
            ));
        }
        out
    }
}

/// A deterministic pair batch: walks the user×item grid with a stride so
/// consecutive pairs hit different rows of both sides (no RNG — the bench
/// must issue the same requests in every build and environment).
fn pair_batch(n: usize, users: usize, items: usize) -> Vec<(u32, u32)> {
    (0..n)
        .map(|k| {
            let u = (k.wrapping_mul(7) + 3) % users;
            let i = (k.wrapping_mul(11) + 5) % items;
            (u as u32, i as u32)
        })
        .collect()
}

/// Fits the model, materializes the engine, and runs the sweep.
pub fn run_infer_bench(cfg: &InferBenchConfig) -> Result<InferBenchReport, String> {
    let Fixture { data, model, mut engine } = cfg.fixture.build()?;
    // Collect the engine's own instrumentation over materialize + sweep so
    // the artifact records cache traffic and per-stage latency next to the
    // end-to-end numbers. Enabled after the fit, so training noise stays
    // out; the tape path is uninstrumented either way.
    let ((materialize_ns, results), metrics) = collect_metrics(|| {
        let t = Instant::now();
        engine.materialize();
        let materialize_ns = t.elapsed().as_nanos() as u64;
        let results = cfg
            .batch_sizes
            .iter()
            .map(|&batch| {
                let pairs = pair_batch(batch, data.num_users, data.num_items);
                let (tape_ns, tape_out) = time_reps(cfg.reps, cfg.warmup, || model.predict_batch(&pairs));
                let (free_ns, free_out) = time_reps(cfg.reps, cfg.warmup, || engine.score_batch(&pairs));
                let identical = tape_out.len() == free_out.len()
                    && tape_out.iter().zip(&free_out).all(|(a, b)| a.to_bits() == b.to_bits());
                InferTiming { batch, tape_ns, free_ns, identical }
            })
            .collect();
        (materialize_ns, results)
    });
    Ok(InferBenchReport { fixture: FixtureInfo::of(&data), reps: cfg.reps, materialize_ns, results, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_runs_and_paths_agree() {
        let _metrics = crate::metrics_test_lock();
        let report = run_infer_bench(&InferBenchConfig::smoke()).expect("smoke bench runs");
        assert_eq!(report.results.len(), 2);
        assert!(report.all_identical(), "tape vs engine divergence: {report:?}");
        assert!(report.results.iter().all(|r| r.requests_per_sec() > 0.0));
        // The engine's instrumentation landed in the artifact snapshot.
        assert!(report.metrics.counter("infer.score.pairs").unwrap_or(0) > 0, "{:?}", report.metrics);
        assert!(report.metrics.histogram("infer.score.chunk_ns").is_some());
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let report = InferBenchReport {
            fixture: FixtureInfo { dataset: "unit".into(), users: 3, items: 4, threads: 2 },
            reps: 3,
            materialize_ns: 1000,
            results: vec![InferTiming { batch: 16, tape_ns: vec![100, 200, 300], free_ns: vec![50, 60, 70], identical: true }],
            metrics: Default::default(),
        };
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"infer\""));
        assert!(json.contains("\"speedup\": 3.333"));
        assert!(json.contains("\"all_identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = report.render_table();
        assert!(table.contains("speedup"), "{table}");
    }

    #[test]
    fn percentiles_read_sorted_reps() {
        let t = InferTiming { batch: 1, tape_ns: vec![10, 20, 30, 40], free_ns: vec![1, 2, 3, 4], identical: true };
        assert_eq!(t.tape_p50(), 30);
        assert_eq!(t.tape_p99(), 40);
        assert_eq!(t.free_p50(), 3);
        assert_eq!(t.free_p99(), 4);
    }
}
