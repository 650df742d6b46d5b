//! Bench regression guard behind `agnn bench --compare OLD.json,NEW.json`.
//!
//! Reads two `BENCH_*.json` artifacts of the same kind and diffs every
//! latency quantile they share: per-row `p50_ns`/`p99_ns` (the inference
//! bench's engine rows carry them as `free_p50_ns`/`free_p99_ns`; rows are
//! matched by position) and, when present, the per-stage quantiles under
//! `"stages"`.
//! A quantile *regresses* when the new value exceeds the old by more than
//! `threshold` (a ratio: 0.25 means +25%) *and* by more than an absolute
//! floor — sub-floor jitter on a microsecond-scale stage is noise, not a
//! regression. The CLI exits nonzero when any quantile regresses, so the
//! comparator can gate CI directly.
//!
//! Each artifact is pull-read through the workspace's JSON reader
//! ([`agnn_core::jsonio::Parser`]): only the `bench` kind and the
//! `ROW_KEYS` / `STAGE_KEYS` quantiles are kept, and every other member
//! is passed over with [`Parser::skip`].

use agnn_core::jsonio::{need, put, read_list, read_object, Parser};

/// Quantile keys compared inside each `results` row, in report order.
/// `free_*` are the tape-free engine's quantiles in `BENCH_infer.json`.
const ROW_KEYS: [&str; 4] = ["p50_ns", "p99_ns", "free_p50_ns", "free_p99_ns"];

/// Quantile keys compared inside each `stages` entry.
const STAGE_KEYS: [&str; 2] = ["p50_ns", "p99_ns"];

/// Below this many nanoseconds of absolute growth a drift ratio is
/// treated as scheduler jitter and never flagged (50µs).
const ABS_FLOOR_NS: u64 = 50_000;

/// Knobs for one comparison run.
#[derive(Clone, Debug)]
pub struct CompareConfig {
    /// Baseline artifact path (the committed `BENCH_*.json`).
    pub old_path: String,
    /// Candidate artifact path (the freshly regenerated one).
    pub new_path: String,
    /// Allowed growth ratio before a quantile counts as regressed
    /// (`0.25` = new may be up to 25% above old).
    pub threshold: f64,
}

impl CompareConfig {
    /// Default drift allowance. Generous enough for same-machine rerun
    /// noise on bucketed quantiles; override with `--threshold` for
    /// cross-machine comparisons.
    pub const DEFAULT_THRESHOLD: f64 = 0.25;
}

/// One compared quantile.
#[derive(Clone, Debug)]
pub struct DriftRow {
    /// Where the quantile lives (`results[1]` or `stages.score`).
    pub context: String,
    /// The compared key (`p50_ns`, `p99_ns`).
    pub key: String,
    /// Baseline value.
    pub old: u64,
    /// Candidate value.
    pub new: u64,
    /// Signed growth ratio (`(new - old) / old`; 0 when both are 0).
    pub drift: f64,
    /// Whether this quantile trips the guard.
    pub regressed: bool,
}

/// Everything one comparison produced.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// The shared `"bench"` kind of both artifacts.
    pub kind: String,
    /// The threshold the guard ran with.
    pub threshold: f64,
    /// Every compared quantile, in artifact order.
    pub rows: Vec<DriftRow>,
}

impl CompareReport {
    /// Number of quantiles that tripped the guard.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }

    /// Human-readable diff table plus a one-line verdict.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "bench compare · kind {} · threshold +{:.0}% (abs floor {}us)\n{:<24} {:>8} {:>12} {:>12} {:>9}  flag\n",
            self.kind,
            self.threshold * 100.0,
            ABS_FLOOR_NS / 1000,
            "context",
            "key",
            "old_ns",
            "new_ns",
            "drift"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<24} {:>8} {:>12} {:>12} {:>8.1}%  {}\n",
                r.context,
                r.key,
                r.old,
                r.new,
                r.drift * 100.0,
                if r.regressed { "REGRESSED" } else { "ok" }
            ));
        }
        let n = self.regressions();
        if n == 0 {
            out.push_str(&format!("ok: {} quantile(s) within threshold\n", self.rows.len()));
        } else {
            out.push_str(&format!("FAIL: {n} of {} quantile(s) regressed\n", self.rows.len()));
        }
        out
    }
}

fn drift_of(old: u64, new: u64) -> f64 {
    if old == 0 && new == 0 {
        return 0.0;
    }
    // A zero baseline with a nonzero candidate is infinite relative growth;
    // the absolute floor is what decides whether it matters.
    if old == 0 {
        return f64::INFINITY;
    }
    (new as f64 - old as f64) / old as f64
}

/// What the comparator keeps of one artifact.
struct Artifact {
    kind: String,
    results: Vec<Vec<Option<u64>>>,
    /// Stages in artifact order; empty when the artifact has none.
    stages: Vec<(String, Vec<Option<u64>>)>,
}

/// Reads one row or stage: the value of each of `keys`, in `keys` order,
/// `None` where the object does not carry it.
fn read_quantiles(p: &mut Parser, keys: &[&str]) -> Result<Vec<Option<u64>>, String> {
    let mut out = vec![None; keys.len()];
    read_object(p, |p, key| match keys.iter().position(|k| *k == key) {
        Some(i) => put(&mut out[i], p.num()?),
        None => p.skip(),
    })?;
    Ok(out)
}

fn read_artifact(text: &str) -> Result<Artifact, String> {
    let mut p = Parser::new(text);
    let (mut kind, mut results, mut stages) = (None, None, None);
    read_object(&mut p, |p, key| match key {
        "bench" => put(&mut kind, p.string()?.into_owned()),
        "results" => put(&mut results, read_list(p, |p| read_quantiles(p, &ROW_KEYS))?),
        "stages" => {
            let mut named = Vec::new();
            read_object(p, |p, stage| {
                named.push((stage.to_string(), read_quantiles(p, &STAGE_KEYS)?));
                Ok(())
            })?;
            put(&mut stages, named)
        }
        _ => p.skip(),
    })?;
    p.finish()?;
    let (kind, results) = (need(kind, "bench")?, need(results, "results")?);
    Ok(Artifact { kind, results, stages: stages.unwrap_or_default() })
}

/// Appends a row for every key both sides carry; not every artifact kind
/// carries every quantile.
fn compare_quantiles(
    rows: &mut Vec<DriftRow>,
    context: String,
    keys: &[&str],
    old: &[Option<u64>],
    new: &[Option<u64>],
    threshold: f64,
) {
    for ((key, &old), &new) in keys.iter().zip(old).zip(new) {
        if let (Some(old), Some(new)) = (old, new) {
            let drift = drift_of(old, new);
            let regressed = drift > threshold && new.saturating_sub(old) > ABS_FLOOR_NS;
            rows.push(DriftRow { context: context.clone(), key: key.to_string(), old, new, drift, regressed });
        }
    }
}

/// Diffs two artifacts' texts. Exposed separately from [`run_compare`] so
/// tests can compare in-memory documents without touching the filesystem.
pub fn compare_reports(old: &str, new: &str, threshold: f64) -> Result<CompareReport, String> {
    let old = read_artifact(old).map_err(|e| format!("old artifact: {e}"))?;
    let new = read_artifact(new).map_err(|e| format!("new artifact: {e}"))?;
    if old.kind != new.kind {
        return Err(format!("bench kinds differ: old is {:?}, new is {:?}", old.kind, new.kind));
    }
    if old.results.len() != new.results.len() {
        return Err(format!(
            "result row counts differ: old has {}, new has {} (rows are matched by position)",
            old.results.len(),
            new.results.len()
        ));
    }
    let mut rows = Vec::new();
    for (i, (o, n)) in old.results.iter().zip(&new.results).enumerate() {
        compare_quantiles(&mut rows, format!("results[{i}]"), &ROW_KEYS, o, n, threshold);
    }

    // Per-stage quantiles (serve artifacts). Stages are matched by name;
    // a stage present on only one side is skipped (schema growth must not
    // fail old baselines).
    for (stage, o) in &old.stages {
        let Some((_, n)) = new.stages.iter().find(|(name, _)| name == stage) else { continue };
        compare_quantiles(&mut rows, format!("stages.{stage}"), &STAGE_KEYS, o, n, threshold);
    }

    if rows.is_empty() {
        return Err(format!("no comparable quantiles found in {:?} artifacts", old.kind));
    }
    Ok(CompareReport { kind: old.kind, threshold, rows })
}

/// Reads and diffs the two artifact files.
pub fn run_compare(cfg: &CompareConfig) -> Result<CompareReport, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("compare: read {path}: {e}"));
    compare_reports(&read(&cfg.old_path)?, &read(&cfg.new_path)?, cfg.threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(p50: u64, p99: u64, score_p99: u64) -> String {
        format!(
            r#"{{"bench": "serve",
                 "stages": {{"score": {{"count": 9, "p50_ns": 1000, "p99_ns": {score_p99}}}}},
                 "results": [{{"qps": 400, "p50_ns": {p50}, "p99_ns": {p99}, "identical": true}}]}}"#
        )
    }

    #[test]
    fn self_compare_has_zero_drift_and_passes() {
        let a = artifact(100_000, 900_000, 400_000);
        let report = compare_reports(&a, &a, CompareConfig::DEFAULT_THRESHOLD).expect("comparable");
        assert_eq!(report.regressions(), 0);
        assert_eq!(report.rows.len(), 4, "{report:?}");
        assert!(report.rows.iter().all(|r| r.drift == 0.0));
        assert!(report.render_table().contains("ok: 4 quantile(s) within threshold"));
    }

    #[test]
    fn drift_beyond_threshold_and_floor_is_flagged() {
        let old = artifact(100_000, 900_000, 400_000);
        // p99 grows 2x (+900us): regression. p50 grows 2x but only +100us
        // over a 100us base — above the floor too, so also flagged.
        let new = artifact(200_000, 1_800_000, 400_000);
        let report = compare_reports(&old, &new, 0.25).expect("comparable");
        assert_eq!(report.regressions(), 2, "{}", report.render_table());
        assert!(report.render_table().contains("REGRESSED"));
        // The untouched stage quantiles stay clean.
        assert!(report.rows.iter().filter(|r| r.context == "stages.score").all(|r| !r.regressed));
    }

    #[test]
    fn sub_floor_jitter_is_never_a_regression() {
        let old = artifact(10_000, 20_000, 5_000);
        let new = artifact(40_000, 60_000, 30_000); // huge ratios, tiny absolutes
        let report = compare_reports(&old, &new, 0.25).expect("comparable");
        assert_eq!(report.regressions(), 0, "{}", report.render_table());
    }

    #[test]
    fn kind_and_shape_mismatches_are_errors() {
        let serve = artifact(1, 2, 3);
        let kernels = r#"{"bench": "kernels", "results": []}"#;
        assert!(compare_reports(&serve, kernels, 0.25).unwrap_err().contains("kinds differ"));
        let two_rows = r#"{"bench": "serve", "results": [{"p50_ns": 1, "p99_ns": 2}, {"p50_ns": 1, "p99_ns": 2}]}"#;
        assert!(compare_reports(&serve, two_rows, 0.25).unwrap_err().contains("row counts differ"));
    }

    #[test]
    fn infer_rows_compare_on_the_engine_quantiles() {
        let infer =
            r#"{"bench": "infer", "results": [{"batch": 1, "tape_p50_ns": 9, "free_p50_ns": 100000, "free_p99_ns": 200000}]}"#;
        let report = compare_reports(infer, infer, 0.25).expect("comparable");
        let keys: Vec<&str> = report.rows.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["free_p50_ns", "free_p99_ns"]);
        assert_eq!(report.regressions(), 0);
    }

    #[test]
    fn zero_baseline_uses_the_absolute_floor() {
        let old = r#"{"bench": "serve", "results": [{"p50_ns": 0, "p99_ns": 0}]}"#;
        let small = r#"{"bench": "serve", "results": [{"p50_ns": 1000, "p99_ns": 2000}]}"#;
        let big = r#"{"bench": "serve", "results": [{"p50_ns": 1000, "p99_ns": 90000000}]}"#;
        assert_eq!(compare_reports(old, small, 0.25).expect("ok").regressions(), 0);
        assert_eq!(compare_reports(old, big, 0.25).expect("ok").regressions(), 1);
    }

    #[test]
    fn malformed_and_hostile_artifacts_are_errors() {
        let ok = artifact(1, 2, 3);
        let deep = format!(r#"{{"bench": "serve", "extra": {}}}"#, "[".repeat(100_000));
        for (bad, msg) in [
            (r#"{"results": []}"#, "missing field `bench`"),
            (r#"{"bench": "serve", "results": [{"p50_ns": -1}]}"#, "bad number"),
            (r#"{"bench": "serve", "results": [{"p50_ns": 1, "p50_ns": 1}]}"#, "duplicate field"),
            (r#"{"bench": "serve", "results": []} x"#, "trailing data"),
            (deep.as_str(), "nesting"),
        ] {
            assert!(compare_reports(&ok, bad, 0.25).unwrap_err().contains(msg), "{bad:.60}");
        }
    }
}
