//! Fit/evaluate driver for one experiment cell, with JSON logging, and
//! the two experiment bodies several binaries share: the Fig. 5–7 knob
//! sweep and the Table 3–4 variant table.

use crate::table::render_metric_table;
use crate::HarnessArgs;
use agnn_core::model::{evaluate, RatingModel, TrainReport};
use agnn_core::variants::VariantName;
use agnn_core::{Agnn, AgnnConfig};
use agnn_data::{ColdStartKind, Dataset, Split, SplitConfig};
use agnn_metrics::EvalAccumulator;
use agnn_obs::Field;
use agnn_train::HookList;
use std::fmt::Display;
use std::io::Write;

/// The strict cold-start scenarios Figs. 5–7 and Tables 3–4 report.
const STRICT: [ColdStartKind; 2] = [ColdStartKind::StrictItem, ColdStartKind::StrictUser];

/// Identity of one (model, dataset, scenario) cell.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Model label as the paper prints it.
    pub model: String,
    /// Dataset label.
    pub dataset: String,
    /// Scenario label (`ICS`/`UCS`/`WS`).
    pub scenario: String,
}

/// Result of one cell.
#[derive(Debug)]
pub struct CellResult {
    /// Cell identity.
    pub spec: CellSpec,
    /// RMSE on the held-out set.
    pub rmse: f64,
    /// MAE on the held-out set.
    pub mae: f64,
    /// Per-example errors, retained for significance testing.
    pub accumulator: EvalAccumulator,
    /// The training report (loss curves, wall-clock).
    pub report: TrainReport,
}

/// Fits a model on the given split and evaluates it.
pub fn run_cell(
    model: &mut (impl RatingModel + ?Sized),
    dataset: &Dataset,
    split: &Split,
    scenario: ColdStartKind,
) -> CellResult {
    run_cell_with(model, dataset, split, scenario, &mut HookList::new())
}

/// Like [`run_cell`], but with training-engine hooks (loss logging,
/// early stopping, ...) attached to the fit.
pub fn run_cell_with(
    model: &mut (impl RatingModel + ?Sized),
    dataset: &Dataset,
    split: &Split,
    scenario: ColdStartKind,
    hooks: &mut HookList<'_>,
) -> CellResult {
    let report = model.fit_with(dataset, split, hooks);
    let accumulator = evaluate(model, dataset, &split.test);
    let r = accumulator.finish();
    CellResult {
        spec: CellSpec {
            model: model.name(),
            dataset: dataset.name.clone(),
            scenario: scenario.abbrev().to_string(),
        },
        rmse: r.rmse,
        mae: r.mae,
        accumulator,
        report,
    }
}

/// Creates the paper-default 20% split for a scenario (seeded).
pub fn paper_split(dataset: &Dataset, kind: ColdStartKind, seed: u64) -> Split {
    let split = Split::create(dataset, SplitConfig::paper_default(kind, seed));
    split.validate();
    split
}

/// Appends one JSON object per call, keys in the given order, as a line
/// of `<out_dir>/<exp>.jsonl`.
pub fn log_json(out_dir: &str, exp: &str, row: &[(&str, Field)]) {
    std::fs::create_dir_all(out_dir).expect("create results dir");
    let path = format!("{out_dir}/{exp}.jsonl");
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(&path).expect("open results file");
    let mut line = String::new();
    agnn_obs::trace::push_object(&mut line, row.iter().map(|(k, v)| (*k, v)));
    writeln!(file, "{line}").expect("write results row");
}

/// Fig. `figure`: RMSE of AGNN under ICS and UCS for each of `values` of
/// one knob, which `set` writes into the harness-default config. Prints
/// one table per dataset (the knob column headed `key`, the title naming
/// it `symbol`) and appends a `{dataset, scenario, key, rmse, mae}` row
/// per cell to `fig<figure>.jsonl`.
pub fn run_knob_sweep<T: Copy + Display + Into<Field>>(
    args: &HarnessArgs,
    figure: u8,
    key: &str,
    symbol: &str,
    values: &[T],
    set: impl Fn(&mut AgnnConfig, T),
) {
    let exp = format!("fig{figure}");
    // The knob column is two wider than its label, and at least 6.
    let w = (key.len() + 2).max(6);
    for &preset in &args.datasets {
        let data = args.generate(preset);
        println!("== Fig. {figure} — {} (RMSE vs {symbol}) ==", preset.name());
        println!("{key:>w$} {:>10} {:>10}", "ICS", "UCS");
        for &value in values {
            let mut row = Vec::new();
            for scenario in STRICT {
                let split = paper_split(&data, scenario, args.seed);
                let mut cfg =
                    AgnnConfig { epochs: args.epochs, seed: args.seed, lr: args.lr_for(preset), ..AgnnConfig::default() };
                set(&mut cfg, value);
                let cell = run_cell(&mut Agnn::new(cfg), &data, &split, scenario);
                log_json(&args.out_dir, &exp, &[
                    ("dataset", preset.name().into()),
                    ("scenario", scenario.abbrev().into()),
                    (key, value.into()),
                    ("rmse", cell.rmse.into()),
                    ("mae", cell.mae.into()),
                ]);
                row.push(cell.rmse);
            }
            println!("{value:>w$} {:>10.4} {:>10.4}", row[0], row[1]);
        }
    }
}

/// Table `table`: RMSE and MAE of each of `variants` under ICS and UCS,
/// printed as one `Table <table> (<study>)` per dataset, with a progress
/// line per cell on stderr and a `{variant, dataset, scenario, rmse, mae}`
/// row per cell appended to `table<table>.jsonl`.
pub fn run_variant_table(args: &HarnessArgs, table: u8, study: &str, variants: &[VariantName]) {
    let exp = format!("table{table}");
    for &preset in &args.datasets {
        let data = args.generate(preset);
        let mut columns = Vec::new();
        let mut rows: Vec<(String, Vec<Option<f64>>)> =
            variants.iter().map(|v| (v.label().to_string(), Vec::new())).collect();
        for scenario in STRICT {
            let split = paper_split(&data, scenario, args.seed);
            for (vi, variant) in variants.iter().enumerate() {
                let cfg = AgnnConfig { epochs: args.epochs, seed: args.seed, lr: args.lr_for(preset), ..AgnnConfig::default() };
                let mut model = variant.build(cfg);
                let cell = run_cell(&mut model, &data, &split, scenario);
                eprintln!(
                    "[{exp}] {} {} {}: rmse {:.4} mae {:.4}",
                    preset.name(),
                    scenario.abbrev(),
                    variant.label(),
                    cell.rmse,
                    cell.mae
                );
                log_json(&args.out_dir, &exp, &[
                    ("variant", variant.label().into()),
                    ("dataset", preset.name().into()),
                    ("scenario", scenario.abbrev().into()),
                    ("rmse", cell.rmse.into()),
                    ("mae", cell.mae.into()),
                ]);
                rows[vi].1.push(Some(cell.rmse));
                rows[vi].1.push(Some(cell.mae));
            }
            columns.push(format!("{} RMSE", scenario.abbrev()));
            columns.push(format!("{} MAE", scenario.abbrev()));
        }
        let title = format!("Table {table} ({study}) — {}", preset.name());
        println!("\n{}", render_metric_table(&title, &columns, &rows));
    }
}

impl CellResult {
    /// The `table2.jsonl` row: cell identity, RMSE, MAE, test-set size and
    /// training seconds.
    pub fn json_row(&self) -> [(&'static str, Field); 7] {
        [
            ("model", self.spec.model.as_str().into()),
            ("dataset", self.spec.dataset.as_str().into()),
            ("scenario", self.spec.scenario.as_str().into()),
            ("rmse", self.rmse.into()),
            ("mae", self.mae.into()),
            ("n", self.accumulator.len().into()),
            ("train_seconds", self.report.train_seconds.into()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_core::jsonio::{read_object, Parser};
    use agnn_data::Preset;

    struct Mean(f32);
    impl RatingModel for Mean {
        fn name(&self) -> String {
            "Mean".into()
        }
        fn fit(&mut self, _d: &Dataset, s: &Split) -> TrainReport {
            self.0 = s.train_mean();
            TrainReport::default()
        }
        fn predict_batch(&self, pairs: &[(u32, u32)]) -> Vec<f32> {
            vec![self.0; pairs.len()]
        }
    }

    #[test]
    fn cell_runs_and_logs() {
        let data = Preset::Ml100k.generate(0.06, 3);
        let split = paper_split(&data, ColdStartKind::WarmStart, 3);
        let mut m = Mean(0.0);
        let mut cell = run_cell(&mut m, &data, &split, ColdStartKind::WarmStart);
        assert_eq!(cell.spec.scenario, "WS");
        assert!(cell.rmse > 0.0);
        cell.report.train_seconds = 0.85917043; // as in results/table2.jsonl
        let dir = std::env::temp_dir().join("agnn-bench-test");
        let dir = dir.to_str().unwrap();
        let _ = std::fs::remove_dir_all(dir);
        log_json(dir, "unit", &cell.json_row());
        log_json(dir, "unit", &[("lambda", 0.01f32.into()), ("D", 40usize.into())]);
        let content = std::fs::read_to_string(format!("{dir}/unit.jsonl")).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2, "{content}");
        // Keys in call order, every float in its shortest round-trip form.
        let expected = format!(
            r#"{{"model":"Mean","dataset":"{}","scenario":"WS","rmse":{},"mae":{},"n":{},"train_seconds":0.85917043}}"#,
            data.name,
            cell.rmse,
            cell.mae,
            cell.accumulator.len()
        );
        assert_eq!(lines[0], expected);
        let (mut p, mut model) = (Parser::new(lines[0]), String::new());
        read_object(&mut p, |p, key| {
            match key {
                "model" => model = p.string()?.into_owned(),
                _ => p.skip()?,
            }
            Ok(())
        })
        .unwrap();
        p.finish().unwrap();
        assert_eq!(model, "Mean");
        // An f32 is written in its own shortest form, not widened to
        // 0.009999999776482582.
        assert_eq!(lines[1], r#"{"lambda":0.01,"D":40}"#);
        let _ = std::fs::remove_dir_all(dir);
    }
}
