//! Library backing the `agnn` command-line tool.
//!
//! The subcommands cover the zero-to-serving path a downstream user walks,
//! plus the static-analysis gate CI runs:
//!
//! ```text
//! agnn generate --preset ml-100k --scale 0.2 --seed 7 --out data.json
//! agnn train    --data data.json --model agnn --scenario ics --epochs 8 --save model.json
//! agnn predict  --data data.json --model agnn --scenario ics --pairs "0:5,0:12,3:5"
//! agnn serve    --model model.json --pairs "0:5,0:12,3:5"   # tape-free; --stdin/--listen to serve
//! agnn check                       # audit every model's tape; --model NFM for one
//! agnn bench    --kernels          # perf baselines; --infer for the serving sweep
//! agnn lint     --json             # source-level invariant analysis of the workspace
//! ```
//!
//! `check` dry-runs AGNN, all twelve registry baselines, and the standalone
//! biased-MF on a tiny tracer dataset and reports shape violations,
//! non-finite ops, dead parameters, and orphan nodes (see `agnn-check`);
//! it exits non-zero on any error-severity finding.
//!
//! `lint` is `check`'s source-tree counterpart (see `agnn-lint` and
//! DESIGN.md §5b8): it enforces the telemetry-name registry and
//! serve-path panic safety,
//! and exits non-zero on any violation not carrying a justified
//! `// lint:allow(<rule>): <why>` comment.
//!
//! `train` and `serve` additionally accept the telemetry flags
//! `--telemetry <path.jsonl>` (structured span/event stream),
//! `--metrics-out <path>` (Prometheus-style text exposition on exit), and
//! `--log-level quiet|normal|verbose`; `serve --stats-every N`
//! prints periodic p50/p99 request-latency lines. All of it is
//! observation-only: scores and losses are bit-identical with telemetry on
//! or off (locked by the `telemetry` integration test).
//!
//! Datasets travel as JSON (the layout in [`datafile`]), so users can bring
//! their own data by emitting the same schema.

pub mod commands;
pub mod datafile;
pub mod opts;

pub use commands::{run, CliError};
