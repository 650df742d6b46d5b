//! Top-K retrieval benchmark behind `agnn bench --topk`.
//!
//! Fits one AGNN model on a generated strict-cold-start split, materializes
//! the inference engine, and sweeps k over a fixed set of evaluation users,
//! timing [`agnn_infer::InferenceEngine::top_k`] (full catalog scored,
//! bounded-heap select). Each row reports p50/p99 latency under the `p50_ns`/`p99_ns`
//! keys that `bench --compare` guards, and whether the result matched the
//! argsort of `score_batch` over all items bit for bit (it must; CI gates
//! on it).

use crate::harness::{artifact_json, collect_metrics, time_reps, Fixture, FixtureInfo, FixtureSpec, Sweep};
use crate::percentile;
use agnn_tensor::select;

/// Benchmark configuration: the fixture and the k sweep.
#[derive(Debug, Clone)]
pub struct TopKBenchConfig {
    /// The fitted model the sweep retrieves with.
    pub fixture: FixtureSpec,
    /// Retrieval depths to sweep.
    pub ks: Vec<usize>,
    /// How many distinct users the sweep averages over (deterministic
    /// stride over the user space).
    pub eval_users: usize,
    /// Timed repetitions per (k, user); percentiles pool all users.
    pub reps: usize,
    /// Untimed warmup repetitions per (k, user).
    pub warmup: usize,
}

impl TopKBenchConfig {
    /// Full sweep: the k ∈ {10, 50, 100} curve committed as
    /// `BENCH_topk.json`.
    pub fn representative() -> Self {
        Self { fixture: FixtureSpec::REPRESENTATIVE, ks: vec![10, 50, 100], eval_users: 8, reps: 15, warmup: 2 }
    }

    /// Tiny sweep for CI: exercises the argsort-identity gate in a few
    /// seconds.
    pub fn smoke() -> Self {
        Self { fixture: FixtureSpec::SMOKE, ks: vec![5, 10], eval_users: 3, reps: 3, warmup: 1 }
    }
}

/// Measurements for one retrieval depth `k`.
#[derive(Debug, Clone)]
pub struct TopKTiming {
    /// Retrieval depth.
    pub k: usize,
    /// Sorted per-call wall clock, nanoseconds (pooled across users and
    /// reps).
    pub ns: Vec<u64>,
    /// Whether `top_k` equaled the argsort of `score_batch` over all
    /// items — ids and score bits — for every evaluation user.
    pub identical: bool,
}

impl TopKTiming {
    /// Median latency.
    pub fn p50(&self) -> u64 {
        percentile(&self.ns, 500)
    }

    /// Tail latency.
    pub fn p99(&self) -> u64 {
        percentile(&self.ns, 990)
    }
}

/// Everything `agnn bench --topk` measured.
#[derive(Debug, Clone)]
pub struct TopKBenchReport {
    /// Dataset the model was fitted on, and the host.
    pub fixture: FixtureInfo,
    /// Timed repetitions per (k, user).
    pub reps: usize,
    /// Users the sweep averaged over.
    pub eval_users: Vec<u32>,
    /// One row per k.
    pub results: Vec<TopKTiming>,
    /// Engine-side metric snapshot of the sweep (`infer.topk.*` counters
    /// and scoring histograms).
    pub metrics: agnn_obs::metrics::Snapshot,
}

impl TopKBenchReport {
    /// True when `top_k` matched the `score_batch` argsort at every k for
    /// every user. CI fails the bench job on `false`.
    pub fn all_identical(&self) -> bool {
        self.results.iter().all(|r| r.identical)
    }

    /// The `BENCH_topk.json` document.
    pub fn to_json(&self) -> String {
        let ids: Vec<String> = self.eval_users.iter().map(u32::to_string).collect();
        let mut header = self.fixture.header();
        header.extend([
            ("reps", self.reps.to_string()),
            ("eval_users", format!("[{}]", ids.join(", "))),
            ("all_identical", self.all_identical().to_string()),
        ]);
        let rows: Vec<_> = self
            .results
            .iter()
            .map(|r| {
                vec![
                    ("k", r.k.to_string()),
                    ("p50_ns", r.p50().to_string()),
                    ("p99_ns", r.p99().to_string()),
                    ("identical", r.identical.to_string()),
                ]
            })
            .collect();
        artifact_json(Sweep::TopK, &header, &self.metrics, &rows)
    }

    /// Human-readable table for stdout.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "topk bench · {} · {} thread(s) · {} rep(s) · {} eval user(s)\n{:>6} {:>12} {:>12}  {}\n",
            self.fixture.title(),
            self.fixture.threads,
            self.reps,
            self.eval_users.len(),
            "k",
            "p50_us",
            "p99_us",
            "identical"
        );
        for r in &self.results {
            out.push_str(&format!(
                "{:>6} {:>12.1} {:>12.1}  {}\n",
                r.k,
                r.p50() as f64 / 1e3,
                r.p99() as f64 / 1e3,
                r.identical
            ));
        }
        out
    }
}

/// Deterministic evaluation users: a stride over the user space so the
/// sweep touches spread-out rows without any RNG.
fn eval_user_ids(n: usize, num_users: usize) -> Vec<u32> {
    (0..n.min(num_users)).map(|j| ((j * 13 + 1) % num_users) as u32).collect()
}

/// Fits the model, materializes the engine, and runs the k sweep.
pub fn run_topk_bench(cfg: &TopKBenchConfig) -> Result<TopKBenchReport, String> {
    let Fixture { data, mut engine, .. } = cfg.fixture.build()?;
    engine.materialize();
    let users = eval_user_ids(cfg.eval_users, data.num_users);
    // Instrument the sweep itself (not the fit): the artifact records the
    // retrieval counters — requests, items scored — next to the latencies.
    let (results, metrics) = collect_metrics(|| {
        cfg.ks
            .iter()
            .map(|&k| {
                let mut ns = Vec::new();
                let mut identical = true;
                for &u in &users {
                    let (times, got) = time_reps(cfg.reps, cfg.warmup, || engine.top_k(u, k));
                    ns.extend(times);
                    // top_k must be the argsort of score_batch over the full
                    // catalog: same ids, same score bits, same tie order.
                    let pairs: Vec<(u32, u32)> = (0..data.num_items as u32).map(|i| (u, i)).collect();
                    let full = engine.score_batch(&pairs);
                    let reference: Vec<(u32, f32)> =
                        select::rank_descending(&full).into_iter().take(k).map(|i| (i as u32, full[i])).collect();
                    identical &= got.len() == reference.len()
                        && got.iter().zip(&reference).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
                }
                ns.sort_unstable();
                TopKTiming { k, ns, identical }
            })
            .collect()
    });
    Ok(TopKBenchReport { fixture: FixtureInfo::of(&data), reps: cfg.reps, eval_users: users, results, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_runs_and_exhaustive_matches_argsort() {
        let _metrics = crate::metrics_test_lock();
        let report = run_topk_bench(&TopKBenchConfig::smoke()).expect("smoke bench runs");
        assert_eq!(report.results.len(), 2);
        assert!(report.all_identical(), "top_k diverged from score_batch argsort: {report:?}");
        assert!(report.results.iter().all(|r| r.p50() > 0 && r.p99() >= r.p50()), "{report:?}");
        assert!(report.metrics.counter("infer.topk.requests").unwrap_or(0) > 0, "{:?}", report.metrics);
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let report = TopKBenchReport {
            fixture: FixtureInfo { dataset: "unit".into(), users: 5, items: 9, threads: 2 },
            reps: 3,
            eval_users: vec![1, 4],
            results: vec![TopKTiming { k: 3, ns: vec![100, 200, 300], identical: true }],
            metrics: Default::default(),
        };
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"topk\""));
        assert!(json.contains("{\"k\": 3, \"p50_ns\": 200, \"p99_ns\": 300, \"identical\": true}"), "{json}");
        assert!(json.contains("\"all_identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = report.render_table();
        assert!(table.contains("p50_us"), "{table}");
    }

    #[test]
    fn eval_users_are_deterministic_and_in_range() {
        let ids = eval_user_ids(8, 5);
        assert_eq!(ids, eval_user_ids(8, 5));
        assert_eq!(ids.len(), 5);
        assert!(ids.iter().all(|&u| (u as usize) < 5));
    }
}
