//! The `generate` / `train` / `predict` / `serve` / `check` / `bench` /
//! `lint` subcommands.

use crate::opts::{parse_pairs, Opts};
use agnn_baselines::common::BaselineConfig;
use agnn_baselines::{build_baseline, BaselineKind};
use agnn_core::model::{evaluate, RatingModel};
use agnn_core::{Agnn, AgnnConfig};
use agnn_data::{ColdStartKind, Dataset, Preset, Split, SplitConfig};
use agnn_obs::Field;
use agnn_train::{EarlyStopping, HookList, LossLogger, OpProfiler, PreflightAudit};
use agnn_autograd::Ops;

/// CLI failure.
#[derive(Debug)]
pub enum CliError {
    /// A user-facing message, printed to stderr as `error: <message>`.
    Message(String),
    /// A failing machine-readable report (`check --json`, `lint --json`),
    /// printed as is on stdout so a parser reads it without a prefix.
    Report(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Message(text) | CliError::Report(text) => f.write_str(text),
        }
    }
}
impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError::Message(s)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Message(e.to_string())
    }
}

/// Process-wide telemetry switches shared by `train` and `serve`:
/// `--log-level` sets the log facade threshold, `--telemetry <path.jsonl>`
/// installs a structured trace sink, and `--metrics-out <path>` (or a
/// command-side need such as `serve --stats-every`) turns on global metric
/// collection. [`Telemetry::finish`] flushes the sink and writes the
/// Prometheus-style metrics file; `Drop` guarantees the global backends go
/// back off even on an error path (important for in-process tests).
struct Telemetry {
    tracing: bool,
    collecting: bool,
    metrics_out: Option<String>,
}

fn telemetry_start(opts: &Opts, need_metrics: bool) -> Result<Telemetry, CliError> {
    if let Some(spec) = opts.get("log-level") {
        let level: agnn_obs::log::Level = spec.parse().map_err(CliError::Message)?;
        agnn_obs::log::set_level(level);
    }
    let tracing = match opts.get("telemetry") {
        Some(path) => {
            agnn_obs::trace::open_jsonl(std::path::Path::new(path))?;
            true
        }
        None => false,
    };
    let metrics_out = opts.get("metrics-out").map(String::from);
    let collecting = metrics_out.is_some() || need_metrics;
    if collecting {
        agnn_obs::metrics::reset();
        agnn_obs::metrics::set_enabled(true);
    }
    Ok(Telemetry { tracing, collecting, metrics_out })
}

impl Telemetry {
    /// Tears the backends down; returns a `wrote metrics to <path>` note
    /// when `--metrics-out` was given.
    fn finish(&mut self) -> Result<Option<String>, CliError> {
        if self.tracing {
            agnn_obs::trace::shutdown();
            self.tracing = false;
        }
        let mut note = None;
        if self.collecting {
            agnn_obs::metrics::set_enabled(false);
            self.collecting = false;
            let snap = agnn_obs::metrics::snapshot();
            agnn_obs::metrics::reset();
            if let Some(path) = &self.metrics_out {
                std::fs::write(path, snap.render_prometheus())?;
                note = Some(format!("wrote metrics to {path}"));
            }
        }
        Ok(note)
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        if self.tracing {
            agnn_obs::trace::shutdown();
        }
        if self.collecting {
            agnn_obs::metrics::set_enabled(false);
        }
    }
}

/// Runs the CLI against parsed options; returns the text to print.
pub fn run(opts: &Opts) -> Result<String, CliError> {
    match opts.command.as_str() {
        "generate" => generate(opts),
        "train" => train(opts),
        "predict" => predict(opts),
        "serve" => serve(opts),
        "check" => check(opts),
        "bench" => bench(opts),
        "lint" => lint(opts),
        other => Err(CliError::Message(format!(
            "unknown subcommand {other:?}; expected generate | train | predict | serve | check | bench | lint"
        ))),
    }
}

fn load_dataset(opts: &Opts) -> Result<Dataset, CliError> {
    let path = opts.required("data")?;
    let text = std::fs::read_to_string(path)?;
    crate::datafile::from_json(&text).map_err(|e| CliError::Message(format!("{path}: {e}")))
}

fn scenario(opts: &Opts) -> Result<ColdStartKind, CliError> {
    Ok(match opts.get("scenario").unwrap_or("ws") {
        "ws" | "warm" => ColdStartKind::WarmStart,
        "ics" | "item" => ColdStartKind::StrictItem,
        "ucs" | "user" => ColdStartKind::StrictUser,
        other => return Err(CliError::Message(format!("unknown --scenario {other:?} (ws | ics | ucs)"))),
    })
}

fn build_model(opts: &Opts) -> Result<Box<dyn RatingModel + Send>, CliError> {
    let name = opts.get("model").unwrap_or("agnn");
    let epochs: usize = opts.parse_or("epochs", 8usize)?;
    let seed: u64 = opts.parse_or("seed", 7u64)?;
    let lr: f32 = opts.parse_or("lr", 2e-3f32)?;
    if name.eq_ignore_ascii_case("agnn") {
        return Ok(Box::new(Agnn::new(AgnnConfig { epochs, seed, lr, ..AgnnConfig::default() })));
    }
    for kind in BaselineKind::ALL {
        if kind.label().eq_ignore_ascii_case(name) {
            let cfg = BaselineConfig { epochs, seed, lr, ..BaselineConfig::default() };
            return Ok(build_baseline(kind, cfg));
        }
    }
    Err(CliError::Message(format!(
        "unknown --model {name:?}; expected agnn or one of {:?}",
        BaselineKind::ALL.map(|k| k.label())
    )))
}

fn generate(opts: &Opts) -> Result<String, CliError> {
    opts.assert_known(&["preset", "scale", "seed", "out"])?;
    let preset = Preset::from_name(opts.get("preset").unwrap_or("ml-100k"))
        .ok_or_else(|| CliError::Message("unknown --preset (ml-100k | ml-1m | yelp)".into()))?;
    let scale: f64 = opts.parse_or("scale", 0.2f64)?;
    let seed: u64 = opts.parse_or("seed", 7u64)?;
    let data = preset.generate(scale, seed);
    let stats = data.stats();
    let out = opts.required("out")?;
    std::fs::write(out, crate::datafile::to_json(&data))?;
    Ok(format!(
        "wrote {out}: {} users, {} items, {} ratings (sparsity {:.2}%)",
        stats.users,
        stats.items,
        stats.ratings,
        stats.sparsity * 100.0
    ))
}

fn train(opts: &Opts) -> Result<String, CliError> {
    opts.assert_known(&[
        "data", "model", "scenario", "epochs", "seed", "lr", "test-fraction", "report", "patience", "log-every",
        "profile-ops", "save", "telemetry", "metrics-out", "log-level",
    ])?;
    let data = load_dataset(opts)?;
    let kind = scenario(opts)?;
    let frac: f64 = opts.parse_or("test-fraction", 0.2f64)?;
    let seed: u64 = opts.parse_or("seed", 7u64)?;
    let split = Split::create(&data, SplitConfig { kind, test_fraction: frac, seed });
    split.validate();
    let mut model = build_model(opts)?;
    let mut tele = telemetry_start(opts, false)?;
    let profile_ops = opts.get("profile-ops") == Some("true");
    // When metric collection is live the op-profile drain feeds the
    // `tensor.*` counters too, so kernel time shows up in --metrics-out
    // next to the loss gauges without also asking for --profile-ops.
    let profile = profile_ops || agnn_obs::metrics::enabled();
    let mut profiler = OpProfiler::new();
    // Optional training-engine hooks: early stopping, loss logging,
    // per-kernel op profiling, and telemetry emission (the TelemetryHook is
    // always registered — with both obs backends off it is a no-op).
    let mut hooks = HookList::new();
    if let Some(patience) = opts.get("patience") {
        let patience: usize = patience.parse().map_err(|_| format!("--patience: cannot parse {patience:?}"))?;
        hooks.push(EarlyStopping::new(patience));
    }
    if let Some(every) = opts.get("log-every") {
        let every: usize = every.parse().map_err(|_| format!("--log-every: cannot parse {every:?}"))?;
        hooks.push(LossLogger::every(every));
    }
    if profile {
        agnn_tensor::profile::reset();
        agnn_tensor::profile::set_profiling(true);
    }
    if profile_ops {
        hooks.push(&mut profiler);
    }
    hooks.push(agnn_train::TelemetryHook::new());
    let report = model.fit_with(&data, &split, &mut hooks);
    drop(hooks);
    if profile {
        agnn_tensor::profile::set_profiling(false);
    }
    let result = evaluate(model.as_ref(), &data, &split.test).finish();
    let (name, scenario) = (model.name(), kind.abbrev());
    if let Some(path) = opts.get("report") {
        let json = Field::Object(vec![
            ("model", name.as_str().into()),
            ("scenario", scenario.into()),
            ("rmse", result.rmse.into()),
            ("mae", result.mae.into()),
            ("n", result.n.into()),
            ("train_seconds", report.train_seconds.into()),
            ("stopped_early", report.stopped_early.into()),
            ("epoch_pred_loss", Field::List(report.epochs.iter().map(|e| e.prediction.into()).collect())),
            ("epoch_recon_loss", Field::List(report.epochs.iter().map(|e| e.reconstruction.into()).collect())),
        ]);
        std::fs::write(path, json.to_json())?;
    }
    agnn_obs::trace::event(
        "train.done",
        &[
            ("model", Field::from(name.as_str())),
            ("scenario", Field::from(scenario)),
            ("epochs", Field::from(report.epochs.len())),
            ("rmse", Field::from(result.rmse)),
            ("mae", Field::from(result.mae)),
        ],
    );
    let mut msg = format!(
        "{name} on {} [{scenario}]: RMSE {:.4}  MAE {:.4}  (n = {}, {:.1}s train)",
        data.name, result.rmse, result.mae, result.n, report.train_seconds
    );
    if profile_ops {
        msg.push('\n');
        msg.push_str(&profiler.render());
    }
    if let Some(note) = tele.finish()? {
        msg.push('\n');
        msg.push_str(&note);
    }
    if let Some(path) = opts.get("save") {
        let snap = model
            .snapshot()
            .ok_or_else(|| CliError::Message(format!("--save: model {name} does not export snapshots (only agnn does)")))?;
        snap.save(std::path::Path::new(path)).map_err(|e| CliError::Message(e.to_string()))?;
        msg.push_str(&format!("\nsaved snapshot to {path}"));
    }
    Ok(msg)
}

/// `agnn serve --model <snapshot.json>` — tape-free batched scoring.
///
/// Loads a [`agnn_core::ModelSnapshot`] written by `train --save`, builds
/// the [`agnn_infer::InferenceEngine`] (no autograd tape), materializes the
/// embedding cache unless `--no-materialize`, and scores `user:item` pairs
/// either one-shot (`--pairs 0:5,3:12`, a direct `score_batch` call) or as
/// a request server over one of two transports: `--stdin` (request lines
/// on stdin, replies on stdout) or `--listen ADDR` (TCP). Scores are
/// clamped to the snapshot's rating scale and printed in the same
/// `user U item I: S` shape as `predict`.
///
/// Both transports run the same `agnn-serve` request core (reader → bounded
/// queue → worker pool → in-order writer) and speak one line grammar: one
/// `u:i,u:i` pair list per line, or with `--topk K` one **user id** per
/// line answered with the K best items of the full catalog; the admin
/// commands `health`/`stats`/`metrics`/`metrics json`; `shutdown` to stop;
/// a blank line or EOF ends the session. Every request line gets exactly
/// one reply: untrusted lines are never fatal and are answered in-band
/// with `error: ...` — unparseable or over-long (64 KiB) lines count in
/// `serve.parse_errors`, out-of-range ids are dropped and counted in
/// `serve.range_errors`, both warned about while serving continues.
///
/// Stdin is one ordered connection served by one worker, one request at a
/// time. `--listen` is multi-threaded with request coalescing: worker-pool
/// answers are bit-identical, per request, to the one-shot `--pairs` path.
/// `--batch-window-us`/`--max-batch` shape the coalescing window,
/// `--workers` sizes the pool, and `listening on ADDR` (with `:0`
/// resolved) is printed on stdout before blocking so parent processes can
/// connect. `--trace-slow-ms N` emits a full stage-breakdown trace event
/// (`serve.slow_request`) through the `--telemetry` sink for any request
/// whose end-to-end latency reaches `N` ms (`0` traces every request).
/// `--admin ADDR` opens a second listener speaking only the admin grammar,
/// announced as `admin on ADDR`. These five flags apply to `--listen` only.
///
/// Observability: `--stats-every N` prints a `p50/p90/p99` latency line
/// (from `serve.request.latency_ns`, or `serve.topk.latency_ns` with
/// `--topk`) every `N` requests plus a final summary;
/// `--telemetry`/`--metrics-out`/`--log-level` behave as on `train`.
fn serve(opts: &Opts) -> Result<String, CliError> {
    opts.assert_known(&[
        "model", "pairs", "stdin", "no-materialize", "stats-every", "telemetry", "metrics-out", "log-level", "topk",
        "listen", "batch-window-us", "max-batch", "workers", "trace-slow-ms", "admin",
    ])?;
    let listen = opts.get("listen");
    let stdin = opts.get("stdin") == Some("true");
    let pairs = opts.get("pairs");
    if listen.is_none() {
        for flag in ["batch-window-us", "max-batch", "workers", "trace-slow-ms", "admin"] {
            if opts.get(flag).is_some() {
                return Err(CliError::Message(format!("serve: --{flag} only applies to --listen network serving")));
            }
        }
    } else if stdin || pairs.is_some() {
        return Err(CliError::Message("serve: --listen is exclusive with --stdin/--pairs".into()));
    }
    let topk: usize = opts.parse_or("topk", 0usize)?;
    if topk > 0 && pairs.is_some() {
        return Err(CliError::Message("serve: --topk and --pairs are mutually exclusive".into()));
    }
    if pairs.is_none() && listen.is_none() && !stdin {
        return Err(CliError::Message(if topk > 0 {
            "serve: --topk K needs --stdin or --listen (one user id per request line)".into()
        } else {
            "serve: pass --pairs u:i,u:i for one-shot scoring, or --stdin / --listen ADDR to serve requests".into()
        }));
    }
    let stats_every: usize = opts.parse_or("stats-every", 0usize)?;
    // The admin plane answers `stats`/`metrics` from the global registry,
    // so a dedicated admin listener forces collection on.
    let mut tele = telemetry_start(opts, stats_every > 0 || opts.get("admin").is_some())?;
    let path = opts.required("model")?;
    let snap = agnn_core::ModelSnapshot::load(std::path::Path::new(path)).map_err(|e| CliError::Message(e.to_string()))?;
    let mut engine = agnn_infer::InferenceEngine::from_snapshot(&snap).map_err(|e| CliError::Message(e.to_string()))?;
    if opts.get("no-materialize") != Some("true") {
        engine.materialize();
    }
    let mut out = match pairs {
        Some(spec) => {
            let pairs = parse_pairs(spec)?;
            for &(u, i) in &pairs {
                if u as usize >= engine.num_users() || i as usize >= engine.num_items() {
                    return Err(CliError::Message(format!(
                        "pair {u}:{i} out of range ({} users, {} items)",
                        engine.num_users(),
                        engine.num_items()
                    )));
                }
            }
            agnn_serve::protocol::format_pair_lines(&pairs, &engine.score_batch(&pairs), |s| engine.clamp(s))
        }
        None => serve_requests(opts, engine, listen, topk, stats_every)?,
    };
    if let Some(note) = tele.finish()? {
        out.push('\n');
        out.push_str(&note);
    }
    Ok(out)
}

/// Runs the `agnn-serve` request core over TCP (`listen`) or stdin until
/// the session ends, and returns the closing summary line.
fn serve_requests(
    opts: &Opts,
    engine: agnn_infer::InferenceEngine,
    listen: Option<&str>,
    topk: usize,
    stats_every: usize,
) -> Result<String, CliError> {
    let default_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).clamp(2, 8);
    let mut cfg = agnn_serve::ServeConfig {
        batch_window: std::time::Duration::from_micros(opts.parse_or("batch-window-us", 200u64)?),
        max_batch: opts.parse_or("max-batch", 64usize)?,
        workers: opts.parse_or("workers", default_workers)?,
        topk: (topk > 0).then_some(topk),
        stats_every,
        trace_slow: match opts.get("trace-slow-ms") {
            // `0` means "trace every request" — an exemplar per response.
            Some(_) => Some(std::time::Duration::from_millis(opts.parse_or("trace-slow-ms", 0u64)?)),
            None => None,
        },
        admin: opts.get("admin").map(String::from),
        ..agnn_serve::ServeConfig::default()
    };
    if listen.is_none() {
        // Stdin is one ordered connection: one worker scoring one request
        // at a time. More workers or coalesced batches raise peak memory.
        cfg.workers = 1;
        cfg.max_batch = 1;
    }
    let transport = match listen {
        Some(_) => format!(
            "over TCP — {} worker(s), batch window {}us, max batch {}",
            cfg.workers.max(1),
            cfg.batch_window.as_micros(),
            cfg.max_batch
        ),
        None => "on stdin — blank line to stop".to_string(),
    };
    agnn_obs::log::info(format!(
        "serving {} snapshot ({} users × {} items, cache {}) {transport}{}",
        engine.dataset(),
        engine.num_users(),
        engine.num_items(),
        if engine.is_materialized() { "materialized" } else { "off" },
        match cfg.topk {
            Some(k) => format!(", top-{k} retrieval"),
            None => String::new(),
        }
    ));
    let engine = std::sync::Arc::new(engine);
    let summary = match listen {
        Some(listen) => {
            let server = agnn_serve::Server::start(engine, listen, cfg).map_err(CliError::Message)?;
            // Announce the resolved address *flushed* before blocking, so a
            // parent process (tests, the load generator) can parse the
            // ephemeral port.
            println!("listening on {}", server.local_addr());
            if let Some(admin) = server.admin_addr() {
                println!("admin on {admin}");
            }
            use std::io::Write;
            std::io::stdout().flush()?;
            server.wait()
        }
        None => agnn_serve::serve_stdio(engine, cfg)?,
    };
    Ok(match listen {
        Some(_) => format!(
            "served {} request(s) ({} pair(s)) over {} connection(s)",
            summary.requests, summary.served_pairs, summary.connections
        ),
        None if topk > 0 => format!("answered {} top-{topk} request(s)", summary.requests),
        None => format!("served {} pair(s)", summary.served_pairs),
    })
}

/// `agnn bench --kernels | --infer | --topk | --serve` — perf sweeps.
///
/// `--kernels` times every `agnn-tensor` kernel across representative AGNN
/// shapes and writes per-(kernel, shape) p50/p99 rows to `--out` (default
/// `BENCH_kernels.json`). `--infer` times tape vs tape-free scoring across
/// request batch sizes, writes `BENCH_infer.json`, and fails on any
/// tape/engine bit divergence. `--topk` sweeps retrieval depth k, writes
/// per-k p50/p99 latency rows to `BENCH_topk.json`, and fails if top-K is
/// not the bit-exact argsort of `score_batch`. `--serve` drives the TCP
/// server under open-loop load and writes `BENCH_serve.json`. CI runs each
/// in `--smoke` mode.
///
/// `--compare OLD.json,NEW.json` is the regression guard: it diffs the
/// latency quantiles of two same-kind `BENCH_*.json` artifacts (per-row
/// `p50_ns`/`p99_ns` plus the serve artifact's per-stage quantiles) and
/// fails when any grows past `--threshold` (a ratio, default 0.25 =
/// +25%) by more than the absolute jitter floor.
fn bench(opts: &Opts) -> Result<String, CliError> {
    opts.assert_known(&["kernels", "infer", "topk", "serve", "smoke", "out", "compare", "threshold"])?;
    if let Some(spec) = opts.get("compare") {
        for flag in ["kernels", "infer", "topk", "serve", "smoke", "out"] {
            if opts.get(flag).is_some() {
                return Err(CliError::Message(format!("bench: --compare is exclusive with --{flag}")));
            }
        }
        let Some((old, new)) = spec.split_once(',') else {
            return Err(CliError::Message("bench: --compare takes OLD.json,NEW.json (one comma-separated value)".into()));
        };
        let cfg = agnn_bench::CompareConfig {
            old_path: old.trim().to_string(),
            new_path: new.trim().to_string(),
            threshold: opts.parse_or("threshold", agnn_bench::CompareConfig::DEFAULT_THRESHOLD)?,
        };
        if cfg.threshold <= 0.0 || !cfg.threshold.is_finite() {
            return Err(CliError::Message(format!("bench: --threshold must be a positive ratio, got {}", cfg.threshold)));
        }
        let report = agnn_bench::run_compare(&cfg).map_err(CliError::Message)?;
        let text = report.render_table();
        return if report.regressions() == 0 { Ok(text) } else { Err(CliError::Message(text)) };
    }
    if opts.get("threshold").is_some() {
        return Err(CliError::Message("bench: --threshold only applies to --compare".into()));
    }
    let chosen: Vec<agnn_bench::Sweep> =
        agnn_bench::Sweep::ALL.into_iter().filter(|s| opts.get(s.name()) == Some("true")).collect();
    let [sweep] = chosen[..] else {
        return Err(CliError::Message(
            "bench: pass exactly one of --kernels | --infer | --topk | --serve | --compare".into(),
        ));
    };
    let output = sweep.run(opts.get("smoke") == Some("true")).map_err(CliError::Message)?;
    let out = opts.get("out").map_or_else(|| sweep.default_out(), String::from);
    std::fs::write(&out, &output.json)?;
    let text = format!("{}wrote {out}", output.table);
    match output.divergence {
        None => Ok(text),
        Some(why) => Err(CliError::Message(format!("{text}\n{why}"))),
    }
}

/// `agnn check` — static shape/flow audit of every model's autograd tape.
///
/// Dry-runs each model's fit on the 2-user/2-item tracer dataset with an
/// [`agnn_train::PreflightAudit`] hook attached: the training engine builds
/// the first batches on a checked tape, `agnn-check` audits them (shape
/// violations, non-finite ops, dead parameters, orphan nodes), and the
/// collected [`agnn_check::AuditReport`]s decide the exit code. Any
/// error-severity finding makes the command fail, so CI can gate on it;
/// a failing `--json` report still prints as bare JSON on stdout.
fn check(opts: &Opts) -> Result<String, CliError> {
    opts.assert_known(&["model", "json", "seed", "fixture"])?;
    let seed: u64 = opts.parse_or("seed", 7u64)?;
    if let Some(fixture) = opts.get("fixture") {
        return check_fixture(fixture, seed, opts.get("json") == Some("true"));
    }

    let data = agnn_data::tracer::dataset();
    let split = agnn_data::tracer::split(&data);
    let filter = opts.get("model");
    let matches = |name: &str| filter.is_none_or(|f| f.eq_ignore_ascii_case(name));

    let mut reports = Vec::new();
    if matches("agnn") {
        let mut model = Agnn::new(AgnnConfig { epochs: 1, seed, ..AgnnConfig::default() });
        reports.push(audit_model(&mut model, &data, &split));
    }
    for kind in BaselineKind::ALL {
        if matches(kind.label()) {
            let cfg = BaselineConfig { epochs: 1, seed, ..BaselineConfig::default() };
            let mut model = build_baseline(kind, cfg);
            reports.push(audit_model(model.as_mut(), &data, &split));
        }
    }
    if matches("mf") {
        reports.push(audit_biased_mf(&split, seed));
    }
    if reports.is_empty() {
        return Err(CliError::Message(format!(
            "--model {:?} matched nothing; expected agnn, mf, or one of {:?}",
            filter.unwrap_or(""),
            BaselineKind::ALL.map(|k| k.label())
        )));
    }
    finish_check(reports, opts.get("json") == Some("true"))
}

fn audit_model(
    model: &mut dyn RatingModel,
    data: &Dataset,
    split: &Split,
) -> agnn_check::AuditReport {
    let name = model.name();
    let mut audit = PreflightAudit::new();
    let mut hooks = HookList::new().with(&mut audit);
    model.fit_with(data, split, &mut hooks);
    drop(hooks);
    audit.finish(name)
}

fn audit_biased_mf(split: &Split, seed: u64) -> agnn_check::AuditReport {
    use agnn_autograd::ParamStore;
    use agnn_baselines::mf::BiasedMf;
    use rand::{rngs::StdRng, SeedableRng};
    let data = agnn_data::tracer::dataset();
    let cfg = BaselineConfig { epochs: 1, seed, ..BaselineConfig::default() };
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mf = BiasedMf::new(&mut store, data.num_users, data.num_items, split.train_mean(), &cfg, &mut rng);
    let mut audit = PreflightAudit::new();
    let mut hooks = HookList::new().with(&mut audit);
    mf.fit_with(&mut store, split, &cfg, 1, &mut hooks);
    drop(hooks);
    audit.finish("BiasedMF")
}

/// Seeded broken models proving the gate trips: `dead-param` registers a
/// parameter the loss never touches; `misshaped` multiplies mismatched
/// matrices (the checked tape reports *every* violation with an op trace).
fn check_fixture(fixture: &str, seed: u64, json: bool) -> Result<String, CliError> {
    use agnn_autograd::ParamStore;
    use agnn_tensor::Matrix;
    use agnn_train::{StepLosses, TrainConfig, Trainer};
    use rand::{rngs::StdRng, SeedableRng};

    let samples: Vec<agnn_data::Rating> =
        (0..8).map(|i| agnn_data::Rating { user: i as u32 % 2, item: i as u32 % 2, value: 3.0 }).collect();
    let cfg = TrainConfig { epochs: 1, batch_size: 4, lr: 1e-2, seed, ..TrainConfig::default() };
    let mut store = ParamStore::new();
    let w = store.add("w_live", Matrix::from_fn(2, 3, |_, _| 0.1));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut audit = PreflightAudit::new();
    let mut hooks = HookList::new().with(&mut audit);
    match fixture {
        "dead-param" => {
            store.add("w_dead", Matrix::from_fn(2, 3, |_, _| 0.1));
            Trainer::new(cfg).fit(&mut store, &samples, &mut rng, &mut hooks, |g, store, _ctx| {
                let wv = g.param_full(store, w);
                let sq = g.square(wv);
                let l = g.sum_all(sq);
                StepLosses::prediction_only(g, l)
            });
        }
        "misshaped" => {
            Trainer::new(cfg).fit(&mut store, &samples, &mut rng, &mut hooks, |g, store, _ctx| {
                let wv = g.param_full(store, w);
                let bad = g.constant(Matrix::from_fn(2, 4, |_, _| 1.0));
                let p = g.matmul(wv, bad); // inner dims 3 vs 2
                let q = g.add(p, wv); // and a second violation on the same tape
                let l = g.sum_all(q);
                StepLosses::prediction_only(g, l)
            });
        }
        other => return Err(CliError::Message(format!("unknown --fixture {other:?} (dead-param | misshaped)"))),
    }
    drop(hooks);
    finish_check(vec![audit.finish(format!("fixture:{fixture}"))], json)
}

fn finish_check(reports: Vec<agnn_check::AuditReport>, json: bool) -> Result<String, CliError> {
    let failed = reports.iter().any(|r| r.has_errors());
    let out = if json {
        Field::List(reports.iter().map(report_json).collect()).to_json()
    } else {
        let mut text: String = reports.iter().map(|r| r.render()).collect();
        let (errors, models): (usize, usize) =
            (reports.iter().map(|r| r.counts().0).sum(), reports.len());
        text.push_str(&format!("checked {models} model(s): {errors} error(s)\n"));
        text.trim_end().to_string()
    };
    verdict(!failed, json, out)
}

/// A gate's exit: its rendered report on success; on failure the report as
/// the error, on stdout unprefixed when it is JSON.
fn verdict(passed: bool, json: bool, rendered: String) -> Result<String, CliError> {
    match (passed, json) {
        (true, _) => Ok(rendered),
        (false, false) => Err(CliError::Message(rendered)),
        (false, true) => Err(CliError::Report(rendered)),
    }
}

/// One `check --json` entry: `{model, tapes_audited, ops_audited,
/// params_audited, issues: [{rule, severity, subject, message, trace}]}`,
/// `severity` as `"Error"`/`"Warning"` and `trace` `null` when absent.
fn report_json(r: &agnn_check::AuditReport) -> Field {
    let issue = |i: &agnn_check::AuditIssue| {
        Field::Object(vec![
            ("rule", i.rule.into()),
            ("severity", match i.severity {
                agnn_check::Severity::Error => "Error",
                agnn_check::Severity::Warning => "Warning",
            }
            .into()),
            ("subject", i.subject.as_str().into()),
            ("message", i.message.as_str().into()),
            ("trace", i.trace.as_deref().into()),
        ])
    };
    Field::Object(vec![
        ("model", r.model.as_str().into()),
        ("tapes_audited", r.tapes_audited.into()),
        ("ops_audited", r.ops_audited.into()),
        ("params_audited", r.params_audited.into()),
        ("issues", Field::List(r.issues.iter().map(issue).collect())),
    ])
}

/// `agnn lint` — source-level invariant analysis over the workspace
/// (DESIGN.md §5b8): the telemetry-name registry and serve-path panic
/// safety.
///
/// `--root <dir>` points at the workspace checkout (default `.`), `--json`
/// renders the machine-readable report instead of the table, and
/// `--out <path>` additionally writes the JSON report there regardless of
/// render mode (the CI artifact). Exits non-zero when any violation is
/// found, with the rendered report as the error text (a JSON report on
/// stdout, unprefixed) — mirroring `check`.
fn lint(opts: &Opts) -> Result<String, CliError> {
    opts.assert_known(&["root", "json", "out"])?;
    let root = opts.get("root").unwrap_or(".");
    let json = opts.get("json") == Some("true");
    let report = agnn_lint::lint_workspace(std::path::Path::new(root)).map_err(CliError::Message)?;
    if let Some(path) = opts.get("out") {
        std::fs::write(path, report.to_json())?;
    }
    let rendered = if json { report.to_json() } else { report.to_table() };
    verdict(report.is_clean(), json, rendered.trim_end().to_string())
}

fn predict(opts: &Opts) -> Result<String, CliError> {
    opts.assert_known(&["data", "model", "scenario", "epochs", "seed", "lr", "test-fraction", "pairs"])?;
    let data = load_dataset(opts)?;
    let kind = scenario(opts)?;
    let frac: f64 = opts.parse_or("test-fraction", 0.2f64)?;
    let seed: u64 = opts.parse_or("seed", 7u64)?;
    let split = Split::create(&data, SplitConfig { kind, test_fraction: frac, seed });
    let pairs = parse_pairs(opts.required("pairs")?)?;
    for &(u, i) in &pairs {
        if u as usize >= data.num_users || i as usize >= data.num_items {
            return Err(CliError::Message(format!("pair {u}:{i} out of range ({} users, {} items)", data.num_users, data.num_items)));
        }
    }
    let mut model = build_model(opts)?;
    model.fit(&data, &split);
    let preds = model.predict_batch(&pairs);
    let mut out = String::new();
    for (&(u, i), p) in pairs.iter().zip(preds) {
        out.push_str(&format!("user {u} item {i}: {:.2}\n", data.clamp_rating(p)));
    }
    Ok(out.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Opts;
    use agnn_core::jsonio::{put, read_list, read_object, Parser};

    fn opts(s: &str) -> Opts {
        Opts::parse(std::iter::once("agnn".into()).chain(s.split_whitespace().map(String::from))).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("agnn-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    #[test]
    fn generate_then_train_then_predict_roundtrip() {
        let data_path = tmp("roundtrip.json");
        let msg = run(&opts(&format!("generate --preset ml-100k --scale 0.05 --seed 3 --out {data_path}"))).unwrap();
        assert!(msg.contains("users"), "{msg}");

        let report_path = tmp("report.json");
        let msg = run(&opts(&format!(
            "train --data {data_path} --model agnn --scenario ics --epochs 1 --report {report_path}"
        )))
        .unwrap();
        assert!(msg.contains("RMSE"), "{msg}");
        let report = std::fs::read_to_string(&report_path).unwrap();
        let (mut model, mut scenario, mut rmse, mut stopped_early, mut epochs) = (None, None, None, None, None);
        let mut p = Parser::new(&report);
        read_object(&mut p, |p, key| match key {
            "model" => put(&mut model, p.string()?.into_owned()),
            "scenario" => put(&mut scenario, p.string()?.into_owned()),
            "rmse" => put(&mut rmse, p.f32()?),
            "stopped_early" => put(&mut stopped_early, p.bool()?),
            "epoch_pred_loss" => put(&mut epochs, read_list(p, Parser::skip)?.len()),
            _ => p.skip(),
        })
        .unwrap();
        p.finish().unwrap();
        assert_eq!((model.as_deref(), scenario.as_deref()), (Some("AGNN"), Some("ICS")));
        assert!(rmse.unwrap().is_finite());
        assert_eq!((stopped_early, epochs), (Some(false), Some(1)));

        let msg = run(&opts(&format!(
            "predict --data {data_path} --model agnn --scenario ics --epochs 1 --pairs 0:1,2:3"
        )))
        .unwrap();
        assert!(msg.lines().count() == 2, "{msg}");

        // train --save writes a snapshot the tape-free serve path can score.
        let snap_path = tmp("roundtrip-snap.json");
        let msg = run(&opts(&format!(
            "train --data {data_path} --model agnn --scenario ics --epochs 1 --save {snap_path}"
        )))
        .unwrap();
        assert!(msg.contains(&format!("saved snapshot to {snap_path}")), "{msg}");
        let msg = run(&opts(&format!("serve --model {snap_path} --pairs 0:1,2:3"))).unwrap();
        assert!(msg.lines().count() == 2, "{msg}");
        assert!(msg.contains("user 0 item 1"), "{msg}");
    }

    /// Serve coverage without a dataset file: fit on the tracer dataset
    /// directly, snapshot, then drive the subcommand.
    #[test]
    fn serve_scores_saved_snapshot_tape_free() {
        use agnn_core::variants::VariantName;
        let data = agnn_data::tracer::dataset();
        let split = agnn_data::tracer::split(&data);
        let mut model = Agnn::new(AgnnConfig {
            embed_dim: 8,
            vae_latent_dim: 4,
            fanout: 3,
            epochs: 1,
            batch_size: 2,
            variant: VariantName::Full.variant(),
            ..AgnnConfig::default()
        });
        model.fit(&data, &split);
        let snap_path = tmp("serve-snap.json");
        model.snapshot().unwrap().save(std::path::Path::new(&snap_path)).unwrap();

        let msg = run(&opts(&format!("serve --model {snap_path} --pairs 0:0,0:1,1:0,1:1"))).unwrap();
        assert_eq!(msg.lines().count(), 4, "{msg}");
        assert!(msg.contains("user 1 item 0: "), "{msg}");
        // --no-materialize computes embeddings per request — same scores.
        let lazy = run(&opts(&format!("serve --model {snap_path} --pairs 0:0,0:1,1:0,1:1 --no-materialize"))).unwrap();
        assert_eq!(msg, lazy);

        // Graceful errors: out-of-range pair, missing snapshot, no input mode.
        let err = run(&opts(&format!("serve --model {snap_path} --pairs 9:0"))).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert!(run(&opts("serve --model /nonexistent-snap.json --pairs 0:0")).is_err());
        let err = run(&opts(&format!("serve --model {snap_path}"))).unwrap_err();
        assert!(err.to_string().contains("--pairs"), "{err}");
    }

    /// The `--topk` retrieval mode needs a request transport (`--stdin` or
    /// `--listen`) and excludes one-shot `--pairs`; every other combination
    /// must fail fast with an actionable message.
    #[test]
    fn serve_rejects_bad_topk_flag_combinations() {
        use agnn_core::variants::VariantName;
        let data = agnn_data::tracer::dataset();
        let split = agnn_data::tracer::split(&data);
        let mut model = Agnn::new(AgnnConfig {
            embed_dim: 8,
            vae_latent_dim: 4,
            fanout: 3,
            epochs: 1,
            batch_size: 2,
            variant: VariantName::Full.variant(),
            ..AgnnConfig::default()
        });
        model.fit(&data, &split);
        let snap_path = tmp("topk-flags-snap.json");
        model.snapshot().unwrap().save(std::path::Path::new(&snap_path)).unwrap();

        let err = run(&opts(&format!("serve --model {snap_path} --topk 2"))).unwrap_err();
        assert!(err.to_string().contains("needs --stdin"), "{err}");
        let err = run(&opts(&format!("serve --model {snap_path} --topk 2 --stdin --pairs 0:0"))).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        assert!(run(&opts(&format!("serve --model {snap_path} --topk bogus --stdin"))).is_err());
    }

    #[test]
    fn train_works_for_baseline_names() {
        let data_path = tmp("baseline.json");
        run(&opts(&format!("generate --preset ml-100k --scale 0.05 --seed 4 --out {data_path}"))).unwrap();
        let msg = run(&opts(&format!("train --data {data_path} --model NFM --scenario ws --epochs 1"))).unwrap();
        assert!(msg.starts_with("NFM"), "{msg}");
    }

    #[test]
    fn train_accepts_engine_hook_flags() {
        let data_path = tmp("hooks.json");
        run(&opts(&format!("generate --preset ml-100k --scale 0.05 --seed 6 --out {data_path}"))).unwrap();
        let msg = run(&opts(&format!(
            "train --data {data_path} --model NFM --scenario ws --epochs 3 --patience 1 --log-every 10 --profile-ops"
        )))
        .unwrap();
        assert!(msg.contains("RMSE"), "{msg}");
        // --profile-ops appends the per-kernel timing table.
        assert!(msg.contains("kernel"), "{msg}");
        assert!(run(&opts(&format!(
            "train --data {data_path} --model NFM --scenario ws --epochs 1 --patience bogus"
        )))
        .is_err());
    }

    #[test]
    fn lint_runs_clean_and_writes_json_artifact() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let msg = run(&opts(&format!("lint --root {root}"))).unwrap();
        assert!(msg.contains("clean"), "{msg}");

        let out_path = tmp("lint-report.json");
        let msg = run(&opts(&format!("lint --root {root} --json --out {out_path}"))).unwrap();
        assert!(msg.contains("\"violations\":0"), "{msg}");
        let artifact = std::fs::read_to_string(&out_path).unwrap();
        assert!(artifact.starts_with("{\"tool\":\"agnn-lint\",\"version\":1,"), "{artifact}");

        let err = run(&opts("lint --root /nonexistent-workspace")).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
    }

    #[test]
    fn check_audits_single_model_clean() {
        let msg = run(&opts("check --model NFM")).unwrap();
        assert!(msg.contains("audit NFM"), "{msg}");
        assert!(msg.contains("0 error(s)"), "{msg}");
        assert!(msg.contains("checked 1 model(s)"), "{msg}");
    }

    #[test]
    fn check_gate_trips_on_dead_param_fixture() {
        let err = run(&opts("check --fixture dead-param")).unwrap_err();
        assert!(err.to_string().contains("dead-parameter"), "{err}");
        assert!(err.to_string().contains("w_dead"), "{err}");
        assert!(!err.to_string().contains("w_live"), "{err}");
    }

    #[test]
    fn check_reports_every_shape_violation_with_provenance() {
        let err = run(&opts("check --fixture misshaped")).unwrap_err();
        assert!(err.to_string().contains("shape-mismatch"), "{err}");
        assert!(err.to_string().contains("matmul"), "{err}");
        // Both injected violations survive to the report — no first-panic.
        assert!(err.to_string().matches("shape-mismatch").count() >= 2, "{err}");
    }

    /// Reads a `check --json` array: per report, its keys in order, its
    /// model and its audited-tape count; `issue` sees each issue's keys
    /// with the parser at their values.
    fn read_check_reports(
        text: &str,
        mut issue: impl FnMut(&mut Parser, &str) -> Result<(), String>,
    ) -> Vec<(Vec<String>, String, usize)> {
        let mut reports = Vec::new();
        let mut p = Parser::new(text);
        p.array(|p| {
            let (mut keys, mut model, mut tapes) = (Vec::new(), String::new(), 0);
            p.object(|p, key| {
                keys.push(key.to_string());
                match key {
                    "model" => model = p.string()?.into_owned(),
                    "tapes_audited" => tapes = p.num()?,
                    "issues" => p.array(|p| p.object(&mut issue))?,
                    _ => p.skip()?,
                }
                Ok(())
            })?;
            reports.push((keys, model, tapes));
            Ok(())
        })
        .unwrap();
        p.finish().unwrap();
        reports
    }

    #[test]
    fn check_json_keeps_the_report_shape() {
        // A failing report is the bare JSON, printed on stdout.
        let CliError::Report(err) = run(&opts("check --fixture misshaped --json")).unwrap_err() else {
            panic!("a failing --json check is a report")
        };
        // A `trace` is a string or null.
        for rest in err.split("\"trace\":").skip(1) {
            assert!(rest.trim_start().starts_with('"') || rest.trim_start().starts_with("null"), "{rest:.40}");
        }
        let (mut issue_keys, mut rule, mut shape_mismatches) = (Vec::new(), String::new(), 0);
        let reports = read_check_reports(&err, |p, key| {
            issue_keys.push(key.to_string());
            match key {
                "rule" => rule = p.string()?.into_owned(),
                "severity" => assert!(matches!(&*p.string()?, "Error" | "Warning"), "{err}"),
                // A shape mismatch carries its op trace.
                "trace" if rule == "shape-mismatch" => {
                    p.string()?;
                    shape_mismatches += 1;
                }
                _ => p.skip()?,
            }
            Ok(())
        });
        assert_eq!(reports.len(), 1, "{err}");
        let (keys, model, tapes) = &reports[0];
        assert_eq!(keys, &["model", "tapes_audited", "ops_audited", "params_audited", "issues"]);
        assert_eq!((model.as_str(), *tapes > 0), ("fixture:misshaped", true));
        for keys in issue_keys.chunks(5) {
            assert_eq!(keys, ["rule", "severity", "subject", "message", "trace"]);
        }
        assert_eq!(issue_keys.len() % 5, 0, "{issue_keys:?}");
        assert!(shape_mismatches >= 2, "{err}");
        assert!(err.contains("matmul"), "{err}");

        let clean = run(&opts("check --model NFM --json")).unwrap();
        assert_eq!(read_check_reports(&clean, |p, _| p.skip())[0].1, "NFM");
    }

    #[test]
    fn generated_dataset_file_loads_back_exactly() {
        let path = tmp("generate-load.json");
        run(&opts(&format!("generate --preset ml-100k --scale 0.05 --seed 3 --out {path}"))).unwrap();
        let loaded = load_dataset(&opts(&format!("train --data {path}"))).unwrap();
        let data = Preset::Ml100k.generate(0.05, 3);
        let bits = |d: &Dataset| -> Vec<(u32, u32, u32)> {
            d.ratings.iter().map(|r| (r.user, r.item, r.value.to_bits())).collect()
        };
        assert_eq!(bits(&loaded), bits(&data));
        assert_eq!(loaded.rating_scale, data.rating_scale);
        assert_eq!((&loaded.name, loaded.num_users, loaded.num_items), (&data.name, data.num_users, data.num_items));
        assert_eq!(loaded.user_attrs, data.user_attrs);
        assert_eq!(loaded.item_attrs, data.item_attrs);
        assert_eq!(loaded.user_schema, data.user_schema);
        assert_eq!(loaded.item_schema, data.item_schema);
    }

    #[test]
    fn malformed_dataset_file_is_an_error_not_a_panic() {
        let path = tmp("malformed.json");
        run(&opts(&format!("generate --preset ml-100k --scale 0.05 --seed 3 --out {path}"))).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // A rating for a user beyond `num_users` used to reach the
        // panicking `Dataset::validate`.
        let extra = r#""ratings":[{"user":99999,"item":0,"value":3},"#;
        std::fs::write(&path, text.replacen(r#""ratings":["#, extra, 1)).unwrap();
        let err = run(&opts(&format!("train --data {path} --epochs 1"))).unwrap_err();
        assert!(err.to_string().starts_with(&format!("{path}: ")), "{err}");
        assert!(err.to_string().contains("user 99999 out of range"), "{err}");
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(run(&opts(&format!("predict --data {path} --pairs 0:0"))).is_err());
    }

    #[test]
    fn check_rejects_unknown_model_and_fixture() {
        assert!(run(&opts("check --model bogus")).is_err());
        assert!(run(&opts("check --fixture bogus")).is_err());
    }

    #[test]
    fn bench_kernels_smoke_writes_baseline() {
        let out = tmp("bench_kernels.json");
        let msg = run(&opts(&format!("bench --kernels --smoke --out {out}"))).unwrap();
        assert!(msg.contains("matmul_tn"), "{msg}");
        assert!(msg.contains(&format!("wrote {out}")), "{msg}");
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"bench\": \"kernels\""), "{json}");
        // Every kernel × 2 smoke shapes, each with the quantiles `--compare` guards.
        let rows = agnn_tensor::profile::Kernel::ALL.len() * 2;
        assert_eq!(json.matches("\"kernel\":").count(), rows, "{json}");
        assert_eq!(json.matches("\"p99_ns\":").count(), rows, "{json}");
    }

    #[test]
    fn serve_rejects_the_removed_policy_flag() {
        let err = run(&opts("serve --model snap.json --policy x")).unwrap_err();
        assert!(err.to_string().contains("unknown flag --policy"), "{err}");
    }

    #[test]
    fn bench_infer_smoke_writes_baseline() {
        let out = tmp("bench_infer.json");
        let msg = run(&opts(&format!("bench --infer --smoke --out {out}"))).unwrap();
        assert!(msg.contains("speedup"), "{msg}");
        assert!(msg.contains(&format!("wrote {out}")), "{msg}");
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"bench\": \"infer\""), "{json}");
        assert!(json.contains("\"all_identical\": true"), "{json}");
        // Two smoke batch sizes.
        assert_eq!(json.matches("\"batch\":").count(), 2, "{json}");
    }

    #[test]
    fn bench_requires_exactly_one_surface_and_rejects_typos() {
        assert!(run(&opts("bench")).is_err());
        assert!(run(&opts("bench --kernels --infer")).is_err());
        assert!(run(&opts("bench --kernels --calibrate")).is_err());
        assert!(run(&opts("bench --kernels --bogus")).is_err());
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&opts("explode")).is_err());
        assert!(run(&opts("train --data /nonexistent.json")).is_err());
        let data_path = tmp("err.json");
        run(&opts(&format!("generate --preset ml-100k --scale 0.05 --seed 5 --out {data_path}"))).unwrap();
        assert!(run(&opts(&format!("train --data {data_path} --model bogus"))).is_err());
        assert!(run(&opts(&format!("train --data {data_path} --scenario bogus"))).is_err());
        assert!(run(&opts(&format!("predict --data {data_path} --pairs 99999:0 --epochs 1"))).is_err());
    }
}
