//! What the `agnn bench` sweeps share: the fitted fixture the `--infer`,
//! `--topk` and `--serve` sweeps run against, the timing loop, the metrics
//! collector, the `BENCH_*.json` writer, and [`Sweep`], the one entry point
//! the CLI drives.

use crate::{
    run_infer_bench, run_kernel_bench, run_serve_bench, run_topk_bench, InferBenchConfig, KernelBenchConfig,
    ServeBenchConfig, TopKBenchConfig,
};
use agnn_core::{Agnn, AgnnConfig, RatingModel};
use agnn_data::{ColdStartKind, Dataset, Preset, Split, SplitConfig};
use agnn_infer::InferenceEngine;
use agnn_obs::metrics::Snapshot;
use std::time::Instant;

/// Size, fit length and seed of the fixture a sweep fits. The model shape
/// is fixed: D 16, latent 8, fanout 5, batch 64, on the ICS split of an
/// ML-100K-like dataset.
#[derive(Debug, Clone, Copy)]
pub struct FixtureSpec {
    /// Dataset scale passed to [`Preset::Ml100k`] generation.
    pub scale: f64,
    /// Training epochs (the sweeps need trained-shaped weights, not a good
    /// model).
    pub epochs: usize,
    /// Seed for generation, split and fit.
    pub seed: u64,
}

impl FixtureSpec {
    /// The fixture behind the committed `BENCH_*.json` baselines.
    pub const REPRESENTATIVE: Self = Self { scale: 0.1, epochs: 2, seed: 7 };

    /// A seconds-scale fixture for CI and tests.
    pub const SMOKE: Self = Self { scale: 0.05, epochs: 1, seed: 7 };

    /// Generates the data, fits AGNN on its ICS split, and resolves an
    /// engine (not yet materialized) from the fitted model's snapshot.
    pub fn build(&self) -> Result<Fixture, String> {
        let data = Preset::Ml100k.generate(self.scale, self.seed);
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictItem, self.seed));
        let mut model = Agnn::new(AgnnConfig {
            embed_dim: 16,
            vae_latent_dim: 8,
            fanout: 5,
            epochs: self.epochs,
            batch_size: 64,
            seed: self.seed,
            ..AgnnConfig::default()
        });
        model.fit(&data, &split);
        let snap = model.export_snapshot().map_err(|e| format!("bench: snapshot export: {e}"))?;
        let engine = InferenceEngine::from_snapshot(&snap).map_err(|e| format!("bench: snapshot: {e}"))?;
        Ok(Fixture { data, model, engine })
    }
}

/// A fitted model and the serving engine resolved from its snapshot.
pub struct Fixture {
    /// The generated dataset.
    pub data: Dataset,
    /// The fitted model (the training-tape path).
    pub model: Agnn,
    /// The tape-free engine, not yet materialized.
    pub engine: InferenceEngine,
}

/// The dataset a sweep ran on and the host that ran it.
#[derive(Debug, Clone)]
pub struct FixtureInfo {
    /// Dataset name.
    pub dataset: String,
    /// User count.
    pub users: usize,
    /// Item count.
    pub items: usize,
    /// Hardware threads on the host that ran the sweep.
    pub threads: usize,
}

impl FixtureInfo {
    /// The facts about `data` and this host an artifact records.
    pub fn of(data: &Dataset) -> Self {
        Self {
            dataset: data.name.clone(),
            users: data.num_users,
            items: data.num_items,
            threads: std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1),
        }
    }

    /// The artifact's leading header fields.
    pub(crate) fn header(&self) -> Vec<(&'static str, String)> {
        vec![
            ("dataset", format!("\"{}\"", self.dataset)),
            ("users", self.users.to_string()),
            ("items", self.items.to_string()),
            ("threads", self.threads.to_string()),
        ]
    }

    /// `name (U users × I items)` for a table title.
    pub(crate) fn title(&self) -> String {
        format!("{} ({} users × {} items)", self.dataset, self.users, self.items)
    }
}

/// Calls `f` `warmup` times untimed, then `reps` times (at least once)
/// timed; returns the sorted per-call nanoseconds and the last output.
pub(crate) fn time_reps<T>(reps: usize, warmup: usize, mut f: impl FnMut() -> T) -> (Vec<u64>, T) {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut ns = Vec::with_capacity(reps.max(1));
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        ns.push(t.elapsed().as_nanos() as u64);
        last = Some(out);
    }
    ns.sort_unstable();
    (ns, last.expect("at least one timed rep"))
}

/// Runs `f` with the process-wide metrics registry cleared and switched
/// on, and returns its output with everything it recorded. The switch is
/// restored and the registry cleared again afterwards.
pub(crate) fn collect_metrics<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let was = agnn_obs::metrics::enabled();
    agnn_obs::metrics::reset();
    agnn_obs::metrics::set_enabled(true);
    let out = f();
    agnn_obs::metrics::set_enabled(was);
    let metrics = agnn_obs::metrics::snapshot();
    agnn_obs::metrics::reset();
    (out, metrics)
}

/// `{"k": v, "k2": v2}` from already-rendered JSON values.
pub(crate) fn inline_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(key, value)| format!("\"{key}\": {value}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// The layout of every `BENCH_*.json` file: `"bench": <kind>`, then the
/// `header` fields one per line, the metric snapshot, and one `results`
/// row per line. Values are already-rendered JSON, so each artifact's keys
/// and number formats stay exactly as its report writes them.
pub(crate) fn artifact_json(
    kind: Sweep,
    header: &[(&str, String)],
    metrics: &Snapshot,
    rows: &[Vec<(&str, String)>],
) -> String {
    let mut out = format!("{{\n  \"bench\": \"{}\",\n", kind.name());
    for (key, value) in header {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str(&format!("  \"metrics\": {},\n", metrics.render_json()));
    out.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("    {}{comma}\n", inline_object(row)));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One `agnn bench` sweep, named by its CLI flag and artifact kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// `--kernels`: per-(kernel, shape) latency.
    Kernels,
    /// `--infer`: tape vs engine scoring latency.
    Infer,
    /// `--topk`: exhaustive top-K latency per k.
    TopK,
    /// `--serve`: open-loop TCP load.
    Serve,
}

/// What a finished sweep hands the CLI.
#[derive(Debug, Clone)]
pub struct SweepOutput {
    /// The `BENCH_<kind>.json` document.
    pub json: String,
    /// The human-readable table for stdout.
    pub table: String,
    /// Set when a bit-identity gate failed: why the artifact must not ship.
    pub divergence: Option<&'static str>,
}

impl Sweep {
    /// Every sweep, in CLI order.
    pub const ALL: [Self; 4] = [Self::Kernels, Self::Infer, Self::TopK, Self::Serve];

    /// The CLI flag, which is also the artifact's `"bench"` kind.
    pub fn name(self) -> &'static str {
        match self {
            Self::Kernels => "kernels",
            Self::Infer => "infer",
            Self::TopK => "topk",
            Self::Serve => "serve",
        }
    }

    /// The default artifact path, `BENCH_<kind>.json`.
    pub fn default_out(self) -> String {
        format!("BENCH_{}.json", self.name())
    }

    /// Runs the representative sweep, or the smoke one, and renders it.
    pub fn run(self, smoke: bool) -> Result<SweepOutput, String> {
        let output = |json, table, identical: bool, divergence| SweepOutput {
            json,
            table,
            divergence: (!identical).then_some(divergence),
        };
        Ok(match self {
            Self::Kernels => {
                let r = run_kernel_bench(&if smoke {
                    KernelBenchConfig::smoke()
                } else {
                    KernelBenchConfig::representative()
                });
                output(r.to_json(), r.render_table(), true, "")
            }
            Self::Infer => {
                let r = run_infer_bench(&if smoke {
                    InferBenchConfig::smoke()
                } else {
                    InferBenchConfig::representative()
                })?;
                output(
                    r.to_json(),
                    r.render_table(),
                    r.all_identical(),
                    "tape/engine DIVERGENCE — the tape-free path is wrong, do not ship",
                )
            }
            Self::TopK => {
                let r =
                    run_topk_bench(&if smoke { TopKBenchConfig::smoke() } else { TopKBenchConfig::representative() })?;
                output(
                    r.to_json(),
                    r.render_table(),
                    r.all_identical(),
                    "exhaustive top-K DIVERGENCE from the score_batch argsort — the select path is wrong, do not ship",
                )
            }
            Self::Serve => {
                let r = run_serve_bench(&if smoke {
                    ServeBenchConfig::smoke()
                } else {
                    ServeBenchConfig::representative()
                })?;
                output(
                    r.to_json(),
                    r.render_table(),
                    r.all_identical(),
                    "coalesced serving DIVERGENCE — a TCP response differed from its one-shot answer, do not ship",
                )
            }
        })
    }
}
