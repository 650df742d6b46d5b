//! Open-loop TCP serving benchmark behind `agnn bench --serve`.
//!
//! Fits a small model, starts the real `agnn-serve` server in-process on an
//! ephemeral port, then drives it with open-loop clients: request `i` of a
//! row is *scheduled* at `t0 + i/qps` regardless of how fast earlier
//! responses came back, so latency includes any queueing the offered rate
//! induces (the coordinated-omission-free measurement). Each response is
//! byte-compared against the answer a one-shot `score_batch` produces for
//! the same pairs — the row is only `identical` when every coalesced TCP
//! response matched exactly, which makes `BENCH_serve.json` a conformance
//! artifact as much as a perf baseline.

use crate::harness::{artifact_json, collect_metrics, inline_object, Fixture, FixtureInfo, FixtureSpec, Sweep};
use crate::percentile;
use agnn_infer::InferenceEngine;
use agnn_serve::protocol;
use agnn_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs for the serving bench.
#[derive(Clone, Debug)]
pub struct ServeBenchConfig {
    /// The fitted model the server scores with; its seed also seeds the
    /// request sampling.
    pub fixture: FixtureSpec,
    /// Offered request rates; one result row per entry.
    pub qps: Vec<u64>,
    /// Concurrent client connections per row.
    pub connections: usize,
    /// Total requests per row (spread round-robin over connections).
    pub requests: usize,
    /// Pairs per request line.
    pub pairs_per_request: usize,
    /// Scheduler knobs forwarded to [`ServeConfig`].
    pub batch_window_us: u64,
    /// Most requests coalesced into one scoring batch.
    pub max_batch: usize,
    /// Scoring worker threads.
    pub workers: usize,
}

impl ServeBenchConfig {
    /// The committed-baseline configuration (`BENCH_serve.json`).
    pub fn representative() -> Self {
        Self {
            fixture: FixtureSpec::REPRESENTATIVE,
            qps: vec![500, 2000, 8000],
            connections: 8,
            requests: 400,
            pairs_per_request: 2,
            batch_window_us: 200,
            max_batch: 64,
            workers: 4,
        }
    }

    /// A seconds-scale configuration for CI and tests.
    pub fn smoke() -> Self {
        Self {
            fixture: FixtureSpec::SMOKE,
            qps: vec![400],
            connections: 4,
            requests: 60,
            pairs_per_request: 2,
            batch_window_us: 200,
            max_batch: 32,
            workers: 2,
        }
    }
}

/// One offered-rate row: exact client-side latencies plus conformance.
#[derive(Clone, Debug)]
pub struct ServeTiming {
    /// Offered rate (requests scheduled per second).
    pub qps: u64,
    /// Rate actually completed (`requests / row wall time`).
    pub achieved_qps: f64,
    /// Scheduled-send → response-complete, sorted ascending. Exact
    /// client-side samples — percentiles here are not bucketed.
    pub latency_ns: Vec<u64>,
    /// Mean coalesced batch size the workers saw during this row.
    pub batch_mean: f64,
    /// Scoring batches the workers ran during this row.
    pub batches: u64,
    /// Every TCP response byte-matched its one-shot `score_batch` answer.
    pub identical: bool,
}

impl ServeTiming {
    pub fn p50(&self) -> u64 {
        percentile(&self.latency_ns, 500)
    }

    pub fn p99(&self) -> u64 {
        percentile(&self.latency_ns, 990)
    }

    pub fn p999(&self) -> u64 {
        percentile(&self.latency_ns, 999)
    }

    pub fn max(&self) -> u64 {
        self.latency_ns.last().copied().unwrap_or(0)
    }
}

/// Everything `BENCH_serve.json` records.
#[derive(Clone, Debug)]
pub struct ServeBenchReport {
    /// Dataset the model was fitted on, and the host.
    pub fixture: FixtureInfo,
    /// Scoring worker threads the server ran with.
    pub workers: usize,
    /// Concurrent client connections per row.
    pub connections: usize,
    /// Requests per row.
    pub requests: usize,
    /// Pairs per request line.
    pub pairs_per_request: usize,
    /// Coalescing window in microseconds.
    pub batch_window_us: u64,
    /// Coalescing cap.
    pub max_batch: usize,
    /// One row per offered rate.
    pub results: Vec<ServeTiming>,
    /// Server-side metric snapshot of the whole sweep (`serve.*` counters
    /// and histograms).
    pub metrics: agnn_obs::metrics::Snapshot,
}

impl ServeBenchReport {
    /// True when every response of every row byte-matched its one-shot
    /// answer. CI fails the serve-load job on `false`.
    pub fn all_identical(&self) -> bool {
        self.results.iter().all(|r| r.identical)
    }

    /// Server-side per-stage latency histograms (`serve.stage.*`) present
    /// in the metric snapshot, in pipeline order. Log-linear bucket
    /// quantiles, at most 12.5% above the value, unlike the exact
    /// client-side row latencies — the split tells you *where* a p99 lives
    /// (queue vs batch-form vs score vs write), not a second opinion on
    /// its exact value.
    fn stage_rows(&self) -> Vec<(&'static str, &agnn_obs::metrics::Histogram)> {
        [
            ("queue_wait", "serve.stage.queue_wait_ns"),
            ("batch_form", "serve.stage.batch_form_ns"),
            ("score", "serve.stage.score_ns"),
            ("write", "serve.stage.write_ns"),
        ]
        .iter()
        .filter_map(|&(label, name)| self.metrics.histogram(name).map(|h| (label, h)))
        .collect()
    }

    /// The `BENCH_serve.json` document.
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stage_rows()
            .iter()
            .map(|(label, h)| {
                let quantiles = inline_object(&[
                    ("count", h.count().to_string()),
                    ("p50_ns", h.p50_ns().to_string()),
                    ("p90_ns", h.p90_ns().to_string()),
                    ("p99_ns", h.p99_ns().to_string()),
                    ("max_ns", h.max_ns().to_string()),
                ]);
                format!("    \"{label}\": {quantiles}")
            })
            .collect();
        let stages = if stages.is_empty() { "{\n  }".to_string() } else { format!("{{\n{}\n  }}", stages.join(",\n")) };
        let mut header = self.fixture.header();
        header.extend([
            ("workers", self.workers.to_string()),
            ("connections", self.connections.to_string()),
            ("requests_per_row", self.requests.to_string()),
            ("pairs_per_request", self.pairs_per_request.to_string()),
            ("batch_window_us", self.batch_window_us.to_string()),
            ("max_batch", self.max_batch.to_string()),
            ("all_identical", self.all_identical().to_string()),
            ("stages", stages),
        ]);
        let rows: Vec<_> = self
            .results
            .iter()
            .map(|r| {
                vec![
                    ("qps", r.qps.to_string()),
                    ("achieved_qps", format!("{:.1}", r.achieved_qps)),
                    ("p50_ns", r.p50().to_string()),
                    ("p99_ns", r.p99().to_string()),
                    ("p999_ns", r.p999().to_string()),
                    ("max_ns", r.max().to_string()),
                    ("batch_mean", format!("{:.2}", r.batch_mean)),
                    ("batches", r.batches.to_string()),
                    ("identical", r.identical.to_string()),
                ]
            })
            .collect();
        artifact_json(Sweep::Serve, &header, &self.metrics, &rows)
    }

    /// Human-readable table for stdout.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "serve bench · {} · {} worker(s) · {} connection(s) · {} req/row × {} pair(s) · window {}us · max-batch {}\n{:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}  {}\n",
            self.fixture.title(),
            self.workers,
            self.connections,
            self.requests,
            self.pairs_per_request,
            self.batch_window_us,
            self.max_batch,
            "qps",
            "achieved",
            "p50_us",
            "p99_us",
            "p999_us",
            "max_us",
            "batch",
            "identical"
        );
        for r in &self.results {
            out.push_str(&format!(
                "{:>8} {:>12.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.2}  {}\n",
                r.qps,
                r.achieved_qps,
                r.p50() as f64 / 1e3,
                r.p99() as f64 / 1e3,
                r.p999() as f64 / 1e3,
                r.max() as f64 / 1e3,
                r.batch_mean,
                r.identical
            ));
        }
        for (label, h) in self.stage_rows() {
            out.push_str(&format!(
                "stage {label:>10}: p50 {:>9.1}us  p90 {:>9.1}us  p99 {:>9.1}us  max {:>9.1}us  ({} obs)\n",
                h.p50_ns() as f64 / 1e3,
                h.p90_ns() as f64 / 1e3,
                h.p99_ns() as f64 / 1e3,
                h.max_ns() as f64 / 1e3,
                h.count()
            ));
        }
        out
    }
}

/// One request of a row: the line the client sends, the exact response
/// body the server must return, and its scheduled send offset.
struct PlannedRequest {
    line: String,
    expected: String,
    offset: Duration,
    /// Response lines the client must read back (pair responses span one
    /// line per pair).
    response_lines: usize,
}

/// Draws the row's request set and precomputes every expected response
/// through the one-shot path the conformance suite trusts.
fn plan_requests(engine: &InferenceEngine, cfg: &ServeBenchConfig, qps: u64, rng: &mut StdRng) -> Vec<PlannedRequest> {
    let (nu, ni) = (engine.num_users(), engine.num_items());
    let mut planned = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        let pairs: Vec<(u32, u32)> = (0..cfg.pairs_per_request.max(1))
            .map(|_| (rng.gen_range(0..nu as u32), rng.gen_range(0..ni as u32)))
            .collect();
        let line: Vec<String> = pairs.iter().map(|&(u, it)| format!("{u}:{it}")).collect();
        let scores = engine.score_batch(&pairs);
        let expected = protocol::format_pair_lines(&pairs, &scores, |s| engine.clamp(s));
        planned.push(PlannedRequest {
            line: line.join(","),
            response_lines: pairs.len(),
            expected,
            offset: Duration::from_nanos(i as u64 * 1_000_000_000 / qps.max(1)),
        });
    }
    planned
}

/// Drives one connection: a sender thread fires each request at its
/// scheduled offset (never waiting for responses — open loop), while this
/// thread reads responses back in order and stamps completion times.
fn run_connection(
    addr: std::net::SocketAddr,
    t0: Instant,
    requests: Vec<PlannedRequest>,
) -> Result<(Vec<u64>, bool), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("bench: connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("bench: set_nodelay: {e}"))?;
    let write_half = stream.try_clone().map_err(|e| format!("bench: clone stream: {e}"))?;
    let lines: Vec<(String, Duration)> = requests.iter().map(|r| (r.line.clone(), r.offset)).collect();
    let sender = std::thread::spawn(move || -> Result<(), String> {
        let mut out = write_half;
        for (line, offset) in lines {
            let target = t0 + offset;
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
            out.write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .and_then(|()| out.flush())
                .map_err(|e| format!("bench: send: {e}"))?;
        }
        Ok(())
    });
    let mut reader = BufReader::new(stream);
    let mut latencies = Vec::with_capacity(requests.len());
    let mut identical = true;
    let mut buf = String::new();
    for request in &requests {
        let mut got = String::new();
        for li in 0..request.response_lines {
            buf.clear();
            let n = reader.read_line(&mut buf).map_err(|e| format!("bench: read: {e}"))?;
            if n == 0 {
                return Err("bench: server closed connection mid-response".into());
            }
            if li > 0 {
                got.push('\n');
            }
            got.push_str(buf.trim_end_matches(['\n', '\r']));
        }
        let done = Instant::now();
        let scheduled = t0 + request.offset;
        latencies.push(done.saturating_duration_since(scheduled).as_nanos() as u64);
        identical &= got == request.expected;
    }
    match sender.join() {
        Ok(result) => result?,
        Err(_) => return Err("bench: sender thread panicked".into()),
    }
    Ok((latencies, identical))
}

/// Fits the model, then runs one open-loop row per offered rate against a
/// fresh in-process server.
pub fn run_serve_bench(cfg: &ServeBenchConfig) -> Result<ServeBenchReport, String> {
    let Fixture { data, mut engine, .. } = cfg.fixture.build()?;
    engine.materialize();
    let engine = Arc::new(engine);
    // Instrument the rows themselves (not the fit): the artifact records
    // the server's batch/connection counters next to the latencies.
    let (results, metrics) = collect_metrics(|| run_rows(cfg, &engine));
    Ok(ServeBenchReport {
        fixture: FixtureInfo::of(&data),
        workers: cfg.workers,
        connections: cfg.connections,
        requests: cfg.requests,
        pairs_per_request: cfg.pairs_per_request,
        batch_window_us: cfg.batch_window_us,
        max_batch: cfg.max_batch,
        results: results?,
        metrics,
    })
}

fn run_rows(cfg: &ServeBenchConfig, engine: &Arc<InferenceEngine>) -> Result<Vec<ServeTiming>, String> {
    let mut rng = StdRng::seed_from_u64(cfg.fixture.seed ^ 0xbe7c);
    let mut results = Vec::with_capacity(cfg.qps.len());
    for &qps in &cfg.qps {
        let planned = plan_requests(engine, cfg, qps, &mut rng);
        let serve_cfg = ServeConfig {
            batch_window: Duration::from_micros(cfg.batch_window_us),
            max_batch: cfg.max_batch.max(1),
            workers: cfg.workers.max(1),
            ..ServeConfig::default()
        };
        let server = Server::start(Arc::clone(engine), "127.0.0.1:0", serve_cfg)?;
        let addr = server.local_addr();

        let before = agnn_obs::metrics::snapshot();
        let (batches_before, size_sum_before) =
            before.histogram("serve.batch.size").map(|h| (h.count(), h.sum())).unwrap_or((0, 0));

        // Spread requests round-robin so every connection's stream is an
        // interleaved slice of the global open-loop schedule.
        let conns = cfg.connections.max(1);
        let mut per_conn: Vec<Vec<PlannedRequest>> = (0..conns).map(|_| Vec::new()).collect();
        for (i, request) in planned.into_iter().enumerate() {
            per_conn[i % conns].push(request);
        }
        // Connect-before-start would skew the first scheduled sends, so
        // the schedule origin is stamped after a short connect allowance.
        let t0 = Instant::now() + Duration::from_millis(50);
        let clients: Vec<_> = per_conn
            .into_iter()
            .map(|requests| std::thread::spawn(move || run_connection(addr, t0, requests)))
            .collect();
        let mut latencies = Vec::with_capacity(cfg.requests);
        let mut identical = true;
        for client in clients {
            let (lat, ok) = client.join().map_err(|_| "bench: client thread panicked".to_string())??;
            latencies.extend(lat);
            identical &= ok;
        }
        let wall = (Instant::now() - t0).as_secs_f64();
        server.begin_shutdown();
        let summary = server.wait();
        if summary.requests != cfg.requests as u64 {
            return Err(format!(
                "bench: server answered {} of {} requests at {qps} qps",
                summary.requests, cfg.requests
            ));
        }

        let after = agnn_obs::metrics::snapshot();
        let (batches_after, size_sum_after) =
            after.histogram("serve.batch.size").map(|h| (h.count(), h.sum())).unwrap_or((0, 0));
        let batches = batches_after.saturating_sub(batches_before);
        let batch_mean = size_sum_after.saturating_sub(size_sum_before) as f64 / batches.max(1) as f64;

        latencies.sort_unstable();
        results.push(ServeTiming {
            qps,
            achieved_qps: cfg.requests as f64 / wall.max(1e-9),
            latency_ns: latencies,
            batch_mean,
            batches,
            identical,
        });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_serves_identically() {
        let mut cfg = ServeBenchConfig::smoke();
        cfg.requests = 24;
        let _metrics = crate::metrics_test_lock();
        let report = run_serve_bench(&cfg).expect("smoke bench runs");
        assert_eq!(report.results.len(), 1);
        assert!(report.all_identical(), "a TCP response diverged from score_batch: {report:?}");
        let row = &report.results[0];
        assert_eq!(row.latency_ns.len(), 24);
        assert!(row.p50() > 0 && row.p99() >= row.p50() && row.p999() >= row.p99(), "{row:?}");
        assert!(row.batches > 0 && row.batch_mean >= 1.0, "{row:?}");
        assert!(report.metrics.counter("serve.requests").unwrap_or(0) >= 24, "{:?}", report.metrics);
        // Every request leaves one observation in each stage histogram.
        for stage in ["queue_wait", "batch_form", "score", "write"] {
            let name = format!("serve.stage.{stage}_ns");
            let h = report.metrics.histogram(&name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(h.count(), 24, "{name} count");
        }
        assert!(report.to_json().contains("\"queue_wait\": {\"count\": 24"), "stages block missing");
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let report = ServeBenchReport {
            fixture: FixtureInfo { dataset: "unit".into(), users: 5, items: 9, threads: 2 },
            workers: 2,
            connections: 3,
            requests: 12,
            pairs_per_request: 2,
            batch_window_us: 200,
            max_batch: 16,
            results: vec![ServeTiming {
                qps: 400,
                achieved_qps: 390.5,
                latency_ns: vec![100, 200, 300, 400],
                batch_mean: 2.5,
                batches: 6,
                identical: true,
            }],
            metrics: Default::default(),
        };
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"serve\""));
        assert!(json.contains("\"all_identical\": true"));
        assert!(json.contains("\"qps\": 400"));
        assert!(json.contains("\"p999_ns\": 400"));
        assert!(json.contains("\"stages\": {"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = report.render_table();
        assert!(table.contains("p999_us"), "{table}");
    }
}
