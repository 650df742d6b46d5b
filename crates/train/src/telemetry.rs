//! [`TelemetryHook`]: bridges the training loop into `agnn-obs`.
//!
//! One hook wires all three observability surfaces at once:
//!
//! - **Spans** — each epoch becomes a `train.epoch` span carrying the
//!   epoch index, mean losses, and batch count (inert unless a trace sink
//!   is installed).
//! - **Metrics** — `train.epoch.pred_loss` / `train.epoch.recon_loss`
//!   gauges, a `train.epoch.count` counter, a `train.epoch.duration_ns`
//!   histogram, and a `train.batch.grad_norm` gauge fed from
//!   [`BatchStats::grad_norm`] (no-ops unless global collection is on).
//! - **Op profiles** — per-epoch kernel drains fold into the
//!   `tensor.<kernel>.*` counter namespace via `agnn_obs::bridge`, so
//!   `--metrics-out` shows training losses and kernel time side by side.
//!
//! The hook only *observes*: it never touches the graph, the parameter
//! store, or the rng, so registering it cannot change a run's losses. The
//! conformance test below locks that in bit-for-bit.

use crate::hooks::{BatchStats, EpochStats, Signal, TrainHook};
use agnn_autograd::ParamStore;
use agnn_obs::metrics;
use agnn_obs::trace;
use agnn_tensor::profile::OpProfile;
use std::time::Instant;

/// Emits per-epoch spans and training metrics. Register one (typically via
/// `agnn train --telemetry/--metrics-out`) after enabling the relevant
/// `agnn-obs` backends; with both backends off every callback is a cheap
/// no-op.
#[derive(Default)]
pub struct TelemetryHook {
    span: Option<trace::SpanGuard>,
    epoch_started: Option<Instant>,
}

impl TelemetryHook {
    /// A fresh hook.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TrainHook for TelemetryHook {
    fn on_epoch_start(&mut self, epoch: usize) {
        self.span = Some(trace::span("train.epoch").with_field("epoch", epoch));
        if metrics::enabled() {
            self.epoch_started = Some(Instant::now());
        }
    }

    fn on_batch_end(&mut self, stats: &BatchStats) {
        if let Some(gn) = stats.grad_norm {
            metrics::gauge_set("train.batch.grad_norm", gn);
        }
    }

    fn on_epoch_end(&mut self, stats: &EpochStats, _store: &ParamStore) -> Signal {
        if let Some(mut span) = self.span.take() {
            span.field("pred_loss", stats.prediction);
            span.field("recon_loss", stats.reconstruction);
            span.field("batches", stats.batches);
            drop(span);
        }
        metrics::gauge_set("train.epoch.pred_loss", stats.prediction);
        metrics::gauge_set("train.epoch.recon_loss", stats.reconstruction);
        metrics::counter_add("train.epoch.count", 1);
        if let Some(t) = self.epoch_started.take() {
            metrics::observe("train.epoch.duration_ns", t.elapsed().as_nanos() as u64);
        }
        Signal::Continue
    }

    fn on_op_profile(&mut self, _epoch: usize, profile: &OpProfile) {
        agnn_obs::bridge::record_op_profile(profile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_autograd::Ops;
    use crate::config::TrainConfig;
    use crate::hooks::HookList;
    use crate::step::StepLosses;
    use crate::trainer::Trainer;
    use agnn_autograd::loss;
    use agnn_data::Rating;
    use agnn_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    #[derive(Clone)]
    struct Buf(Arc<Mutex<Vec<u8>>>);
    impl Write for Buf {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn fit_toy(cfg: TrainConfig, hooks: &mut HookList<'_>) -> crate::report::TrainReport {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(1, 1));
        let samples: Vec<Rating> =
            (0..40).map(|i| Rating { user: i as u32, item: 0, value: (i % 5) as f32 }).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        Trainer::new(cfg).fit(&mut store, &samples, &mut rng, hooks, |g, store, ctx| {
            let x = g.constant(Matrix::col_vector(ctx.batch.iter().map(|r| r.user as f32 / 40.0).collect()));
            let target = g.constant(Matrix::col_vector(ctx.batch.iter().map(|r| r.value).collect()));
            let wv = g.param_full(store, w);
            let w_rows = g.repeat_rows(wv, ctx.batch.len());
            let pred = g.mul(x, w_rows);
            let l = loss::mse(g, pred, target);
            StepLosses::prediction_only(g, l)
        })
    }

    #[test]
    fn epoch_spans_and_metrics_flow_through() {
        let _serial = crate::epoch_loop_lock();
        let buf = Buf(Arc::new(Mutex::new(Vec::new())));
        trace::install_sink(Box::new(buf.clone()));
        metrics::reset();
        metrics::set_enabled(true);
        let mut hook = TelemetryHook::new();
        let mut hooks = HookList::new().with(&mut hook);
        let cfg = TrainConfig { epochs: 3, batch_size: 8, lr: 1e-2, ..TrainConfig::default() };
        fit_toy(cfg, &mut hooks);
        drop(hooks);
        metrics::set_enabled(false);
        trace::shutdown();

        let bytes = buf.0.lock().unwrap().clone();
        let out = String::from_utf8(bytes).unwrap();
        let epoch_spans: Vec<&str> = out.lines().filter(|l| l.contains("\"name\":\"train.epoch\"")).collect();
        assert_eq!(epoch_spans.len(), 3, "{out}");
        for (i, line) in epoch_spans.iter().enumerate() {
            assert!(line.contains(&format!("\"epoch\":{i}")), "{line}");
            assert!(line.contains("\"pred_loss\":"), "{line}");
        }

        let snap = metrics::snapshot();
        assert_eq!(snap.counter("train.epoch.count"), Some(3));
        assert!(snap.gauge("train.epoch.pred_loss").is_some());
        assert!(snap.gauge("train.batch.grad_norm").is_some());
        let h = snap.histogram("train.epoch.duration_ns").expect("duration histogram");
        assert_eq!(h.count(), 3);
        metrics::reset();
    }

    #[test]
    fn telemetry_is_observation_only() {
        // A fit with live telemetry reproduces a plain fit bit-for-bit.
        let _serial = crate::epoch_loop_lock();
        let cfg = TrainConfig { epochs: 4, batch_size: 8, lr: 1e-2, ..TrainConfig::default() };
        let plain = fit_toy(cfg, &mut HookList::new());

        let buf = Buf(Arc::new(Mutex::new(Vec::new())));
        trace::install_sink(Box::new(buf.clone()));
        metrics::reset();
        metrics::set_enabled(true);
        let mut hooks = HookList::new().with(TelemetryHook::new());
        let traced = fit_toy(cfg, &mut hooks);
        drop(hooks);
        metrics::set_enabled(false);
        trace::shutdown();
        metrics::reset();

        assert_eq!(plain.epochs.len(), traced.epochs.len());
        for (a, b) in plain.epochs.iter().zip(&traced.epochs) {
            assert_eq!(a.prediction.to_bits(), b.prediction.to_bits());
            assert_eq!(a.reconstruction.to_bits(), b.reconstruction.to_bits());
        }
    }
}
