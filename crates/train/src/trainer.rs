//! The training-loop driver.

use crate::config::TrainConfig;
use crate::hooks::{BatchStats, EpochStats, HookList, Signal};
use crate::report::{EpochLosses, TrainReport};
use crate::step::{StepCtx, StepLosses, TrainStep};
use agnn_autograd::optim::Adam;
use agnn_autograd::{Graph, ParamStore};
use agnn_check::audit_tape;
use agnn_data::batch::BatchIter;
use rand::rngs::StdRng;
use std::time::Instant;

/// Epoch-0 batches built on a checked tape ([`Graph::new_checked`]) and
/// audited via [`audit_tape`] before the driver drops back to the fast
/// unchecked tape. Four batches catch per-batch structure variation
/// (ragged last batch, epoch-0 mode switches) at negligible cost.
const PREFLIGHT_BATCHES: usize = 4;

/// Drives a [`TrainStep`] over shuffled mini-batches: per batch it builds a
/// fresh graph, runs the step, backpropagates, optionally clips the global
/// gradient norm, and takes an Adam step; per epoch it folds losses into a
/// [`TrainReport`] and fires the hooks.
///
/// The driver holds the optimizer so a model can call
/// [`Trainer::fit`] more than once within a fit (MetaEmb/DropoutNet
/// pre-train then fine-tune) while keeping or resetting Adam state as it
/// chooses.
pub struct Trainer {
    cfg: TrainConfig,
    opt: Adam,
}

impl Trainer {
    /// A driver for `cfg`, with a fresh Adam optimizer at `cfg.lr` and
    /// `cfg.weight_decay`.
    pub fn new(cfg: TrainConfig) -> Self {
        cfg.validate();
        let mut opt = Adam::with_lr(cfg.lr);
        if cfg.weight_decay != 0.0 {
            opt = opt.with_weight_decay(cfg.weight_decay);
        }
        Self { cfg, opt }
    }

    /// The config the driver runs under.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// The optimizer (step count is observable via `Adam::steps`).
    pub fn optimizer(&self) -> &Adam {
        &self.opt
    }

    /// Trains a step closure. Equivalent to [`Trainer::run`], but monomorphic
    /// over the closure so type inference works at call sites.
    pub fn fit<T, F>(
        &mut self,
        store: &mut ParamStore,
        samples: &[T],
        rng: &mut StdRng,
        hooks: &mut HookList<'_>,
        mut step: F,
    ) -> TrainReport
    where
        T: Copy,
        F: FnMut(&mut Graph, &ParamStore, StepCtx<'_, '_, T>) -> StepLosses,
    {
        self.run(store, samples, rng, hooks, &mut step)
    }

    /// Trains a [`TrainStep`] for `cfg.epochs` epochs over `samples`.
    ///
    /// Determinism contract: the driver consumes `rng` only to shuffle each
    /// epoch's batch order (one cumulative shuffle per epoch, exactly as the
    /// pre-engine loops did) and lends it to the step for in-batch sampling,
    /// so a fixed seed reproduces losses bit-for-bit.
    pub fn run<T: Copy>(
        &mut self,
        store: &mut ParamStore,
        samples: &[T],
        rng: &mut StdRng,
        hooks: &mut HookList<'_>,
        step: &mut dyn TrainStep<T>,
    ) -> TrainReport {
        let start = Instant::now();
        let mut batches = BatchIter::new(samples, self.cfg.batch_size);
        let mut report = TrainReport::default();
        let mut warned_disconnected = false;
        'training: for epoch in 0..self.cfg.epochs {
            hooks.epoch_start(epoch);
            let mut pred_sum = 0.0f64;
            let mut recon_sum = 0.0f64;
            let mut n = 0usize;
            for (batch_index, batch) in batches.epoch(&mut *rng).enumerate() {
                let preflight = epoch == 0 && batch_index < PREFLIGHT_BATCHES;
                let mut g = if preflight { Graph::new_checked() } else { Graph::new() };
                let ctx = StepCtx { epoch, batch_index, batch: &batch, rng: &mut *rng };
                let losses = step.step(&mut g, &*store, ctx);

                if !g.issues().is_empty() {
                    // The tape is broken (shape violations or non-finite
                    // ops); `backward` would refuse it. Let a hook stop the
                    // run gracefully, else fail with the full findings.
                    let audit = audit_tape(&g, store, None);
                    if hooks.preflight_audit(&audit) == Signal::Stop {
                        report.stopped_early = true;
                        break 'training;
                    }
                    panic!(
                        "trainer preflight: broken tape at epoch {epoch} batch {batch_index}:\n{}",
                        audit.issues.iter().map(|i| i.to_string()).collect::<Vec<_>>().join("\n")
                    );
                }

                let connected = g.requires_grad(losses.total);
                if connected {
                    g.backward(losses.total);
                }
                if preflight && hooks.preflight_audit(&audit_tape(&g, store, Some(losses.total))) == Signal::Stop {
                    report.stopped_early = true;
                    break 'training;
                }
                let mut grad_norm = None;
                if connected {
                    g.grads_into(&mut *store);
                    // The norm pass is observation-only and costs a full
                    // parameter sweep, so it only runs while telemetry is
                    // live. Reads happen before clipping mutates gradients,
                    // keeping the optimizer path byte-identical either way.
                    if agnn_obs::telemetry_enabled() {
                        grad_norm = Some(f64::from(store.grad_norm()));
                    }
                    if let Some(clip) = self.cfg.grad_clip_norm {
                        store.clip_grad_norm(clip);
                    }
                    self.opt.step(&mut *store);
                } else if !warned_disconnected {
                    warned_disconnected = true;
                    agnn_obs::log::warn(format!(
                        "trainer: loss depends on no trainable leaf (epoch {epoch} batch {batch_index}); \
                         skipping optimizer steps — run `agnn check` for the audit"
                    ));
                }
                pred_sum += losses.prediction;
                recon_sum += losses.reconstruction;
                n += 1;
                hooks.batch_end(&BatchStats {
                    epoch,
                    batch_index,
                    prediction: losses.prediction,
                    reconstruction: losses.reconstruction,
                    grad_norm,
                });
            }
            let denom = n.max(1) as f64;
            let stats = EpochStats { epoch, prediction: pred_sum / denom, reconstruction: recon_sum / denom, batches: n };
            report.epochs.push(EpochLosses { prediction: stats.prediction, reconstruction: stats.reconstruction });
            let stop = hooks.epoch_end(&stats, &*store) == Signal::Stop;
            // Drain the kernel-timing registry once per epoch while
            // profiling is live, so hooks see per-epoch buckets instead of
            // one run-wide smear. No-op (single atomic load) otherwise.
            if agnn_tensor::profile::profiling_enabled() {
                let profile = agnn_tensor::profile::take();
                if !profile.entries.is_empty() {
                    hooks.op_profile(epoch, &profile);
                }
            }
            if stop {
                report.stopped_early = true;
                break;
            }
        }
        report.train_seconds = start.elapsed().as_secs_f64();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_autograd::Ops;
    use crate::hooks::{EarlyStopping, TrainHook, Validation};
    use agnn_autograd::loss;
    use agnn_data::Rating;
    use agnn_tensor::Matrix;
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn toy_samples(n: usize) -> Vec<Rating> {
        (0..n).map(|i| Rating { user: i as u32, item: 0, value: (i % 5) as f32 }).collect()
    }

    /// Fits `pred = w · x` on the toy data and returns the report.
    fn fit_toy(cfg: TrainConfig, hooks: &mut HookList<'_>) -> TrainReport {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(1, 1));
        let samples = toy_samples(40);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut trainer = Trainer::new(cfg);
        trainer.fit(&mut store, &samples, &mut rng, hooks, |g, store, ctx| {
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
    fn profiling_drains_into_hooks_each_epoch() {
        let _serial = crate::epoch_loop_lock();
        use crate::hooks::OpProfiler;
        agnn_tensor::profile::reset();
        agnn_tensor::profile::set_profiling(true);
        let mut profiler = OpProfiler::new();
        let mut hooks = HookList::new().with(&mut profiler);
        let cfg = TrainConfig { epochs: 3, batch_size: 8, lr: 1e-2, ..TrainConfig::default() };
        fit_toy(cfg, &mut hooks);
        drop(hooks);
        agnn_tensor::profile::set_profiling(false);
        // One drain per epoch, and the toy step's repeat_rows shows up with
        // real timings in the rendered table.
        assert_eq!(profiler.epochs, 3);
        assert!(
            profiler.totals.entries.iter().any(|e| e.kernel == "repeat_rows" && e.calls > 0),
            "expected repeat_rows in {:?}",
            profiler.totals.entries
        );
        assert!(profiler.render().contains("repeat_rows"), "{}", profiler.render());
    }

    #[test]
    fn same_seed_gives_bit_identical_losses() {
        let _serial = crate::epoch_loop_lock();
        let cfg = TrainConfig { epochs: 5, batch_size: 8, lr: 1e-2, ..TrainConfig::default() };
        let a = fit_toy(cfg, &mut HookList::new());
        let b = fit_toy(cfg, &mut HookList::new());
        assert_eq!(a.epochs.len(), 5);
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(ea.prediction.to_bits(), eb.prediction.to_bits());
            assert_eq!(ea.reconstruction.to_bits(), eb.reconstruction.to_bits());
        }
        assert!(!a.stopped_early);
    }

    #[test]
    fn different_seed_changes_losses() {
        let _serial = crate::epoch_loop_lock();
        let cfg = TrainConfig { epochs: 3, batch_size: 8, lr: 1e-2, ..TrainConfig::default() };
        let a = fit_toy(cfg, &mut HookList::new());
        let b = fit_toy(TrainConfig { seed: 18, ..cfg }, &mut HookList::new());
        // Shuffled batch composition differs, so per-epoch means differ.
        assert!(a.epochs.iter().zip(&b.epochs).any(|(x, y)| x.prediction != y.prediction));
    }

    #[test]
    fn early_stopping_ends_run_at_patience() {
        let _serial = crate::epoch_loop_lock();
        // Constant target with lr = 0 makes every batch's loss exactly 9.0
        // regardless of shuffle, so after the epoch-0 "improvement" from
        // infinity the patience-2 stop must fire at epoch 2.
        let cfg = TrainConfig { epochs: 50, batch_size: 8, lr: 0.0, ..TrainConfig::default() };
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(1, 1));
        let samples = toy_samples(40);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut stopper = EarlyStopping::new(2);
        let mut hooks = HookList::new().with(&mut stopper);
        let report = Trainer::new(cfg).fit(&mut store, &samples, &mut rng, &mut hooks, |g, store, ctx| {
            let wv = g.param_full(store, w);
            let pred = g.repeat_rows(wv, ctx.batch.len());
            let target = g.constant(Matrix::col_vector(vec![3.0; ctx.batch.len()]));
            let l = loss::mse(g, pred, target);
            StepLosses::prediction_only(g, l)
        });
        drop(hooks);
        assert!(report.stopped_early);
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(stopper.stopped_at, Some(2));
        assert!((report.epochs[2].prediction - 9.0).abs() < 1e-9);
    }

    /// Records every hook event as a string for order assertions.
    struct Recorder {
        name: &'static str,
        log: Rc<RefCell<Vec<String>>>,
    }

    impl TrainHook for Recorder {
        fn on_epoch_start(&mut self, epoch: usize) {
            self.log.borrow_mut().push(format!("{}:start:{epoch}", self.name));
        }
        fn on_batch_end(&mut self, stats: &BatchStats) {
            self.log.borrow_mut().push(format!("{}:batch:{}:{}", self.name, stats.epoch, stats.batch_index));
        }
        fn on_epoch_end(&mut self, stats: &EpochStats, _store: &ParamStore) -> Signal {
            self.log.borrow_mut().push(format!("{}:end:{}", self.name, stats.epoch));
            Signal::Continue
        }
    }

    #[test]
    fn hooks_fire_in_documented_order() {
        let _serial = crate::epoch_loop_lock();
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut hooks = HookList::new()
            .with(Recorder { name: "a", log: Rc::clone(&log) })
            .with(Recorder { name: "b", log: Rc::clone(&log) });
        let cfg = TrainConfig { epochs: 2, batch_size: 20, lr: 1e-2, ..TrainConfig::default() };
        fit_toy(cfg, &mut hooks);
        let got = log.borrow().clone();
        // 40 samples / batch 20 = 2 batches per epoch; both hooks fire per
        // event in registration order.
        let expect = [
            "a:start:0", "b:start:0", "a:batch:0:0", "b:batch:0:0", "a:batch:0:1", "b:batch:0:1", "a:end:0", "b:end:0",
            "a:start:1", "b:start:1", "a:batch:1:0", "b:batch:1:0", "a:batch:1:1", "b:batch:1:1", "a:end:1", "b:end:1",
        ];
        assert_eq!(got, expect);
    }

    #[test]
    fn validation_hook_sees_live_params() {
        let _serial = crate::epoch_loop_lock();
        let cfg = TrainConfig { epochs: 5, batch_size: 8, lr: 1e-2, ..TrainConfig::default() };
        let mut validation = Validation::new(toy_samples(4), 2, |store: &ParamStore, holdout: &[Rating]| {
            // Metric: |w| misfit proxy — just proves we see live params.
            let id = store.ids().next().expect("toy model registers w");
            let w = store.value(id).get(0, 0) as f64;
            w.abs() + holdout.len() as f64
        });
        let mut hooks = HookList::new().with(&mut validation);
        fit_toy(cfg, &mut hooks);
        drop(hooks);
        let epochs: Vec<usize> = validation.history.iter().map(|&(e, _)| e).collect();
        assert_eq!(epochs, vec![0, 2, 4]);
    }

    /// A named `TrainStep` implementation exercising `Trainer::run`.
    struct ConstStep;
    impl TrainStep<Rating> for ConstStep {
        fn step(&mut self, g: &mut Graph, _store: &ParamStore, ctx: StepCtx<'_, '_, Rating>) -> StepLosses {
            let x = g.constant(Matrix::col_vector(vec![1.0; ctx.batch.len()]));
            let t = g.constant(Matrix::col_vector(vec![0.0; ctx.batch.len()]));
            let l = loss::mse(g, x, t);
            StepLosses::prediction_only(g, l)
        }
    }

    #[test]
    fn run_accepts_named_step_impls() {
        let _serial = crate::epoch_loop_lock();
        // ConstStep's loss touches no parameter: the driver must skip the
        // optimizer instead of panicking in backward, and still report both
        // epochs' losses.
        let cfg = TrainConfig { epochs: 2, batch_size: 8, ..TrainConfig::default() };
        let mut store = ParamStore::new();
        store.add("unused", Matrix::zeros(1, 1));
        let samples = toy_samples(16);
        let mut rng = StdRng::seed_from_u64(0);
        let mut step = ConstStep;
        let mut trainer = Trainer::new(cfg);
        let report = trainer.run(&mut store, &samples, &mut rng, &mut HookList::new(), &mut step);
        assert_eq!(report.epochs.len(), 2);
        assert!((report.epochs[0].prediction - 1.0).abs() < 1e-9);
        assert_eq!(trainer.optimizer().steps(), 0, "disconnected loss must not step the optimizer");
    }

    #[test]
    fn preflight_audit_hook_stops_misshaped_model_gracefully() {
        let _serial = crate::epoch_loop_lock();
        use crate::hooks::PreflightAudit;
        let cfg = TrainConfig { epochs: 3, batch_size: 8, ..TrainConfig::default() };
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(2, 3));
        let samples = toy_samples(16);
        let mut rng = StdRng::seed_from_u64(0);
        let mut audit = PreflightAudit::new();
        let mut hooks = HookList::new().with(&mut audit);
        let report = Trainer::new(cfg).fit(&mut store, &samples, &mut rng, &mut hooks, |g, store, _ctx| {
            let wv = g.param_full(store, w);
            let bad = g.constant(Matrix::zeros(2, 4));
            let p = g.matmul(wv, bad); // inner dims 3 vs 2
            let l = g.sum_all(p);
            StepLosses { total: l, prediction: 0.0, reconstruction: 0.0 }
        });
        drop(hooks);
        assert!(report.stopped_early, "broken tape must end the run");
        assert!(report.epochs.is_empty(), "no epoch completed");
        let final_report = audit.finish("misshaped");
        assert!(final_report.has_errors());
        assert!(final_report.issues.iter().any(|i| i.rule == "shape-mismatch"), "{}", final_report.render());
    }

    #[test]
    #[should_panic(expected = "trainer preflight: broken tape")]
    fn unhandled_broken_tape_panics_with_findings() {
        let _serial = crate::epoch_loop_lock();
        let cfg = TrainConfig { epochs: 1, batch_size: 8, ..TrainConfig::default() };
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(2, 3));
        let samples = toy_samples(8);
        let mut rng = StdRng::seed_from_u64(0);
        Trainer::new(cfg).fit(&mut store, &samples, &mut rng, &mut HookList::new(), |g, store, _ctx| {
            let wv = g.param_full(store, w);
            let bad = g.constant(Matrix::zeros(2, 4));
            let p = g.matmul(wv, bad);
            let l = g.sum_all(p);
            StepLosses { total: l, prediction: 0.0, reconstruction: 0.0 }
        });
    }

    #[test]
    fn preflight_audits_healthy_fit_clean() {
        let _serial = crate::epoch_loop_lock();
        use crate::hooks::PreflightAudit;
        let cfg = TrainConfig { epochs: 2, batch_size: 8, lr: 1e-2, ..TrainConfig::default() };
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(1, 1));
        let samples = toy_samples(40);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut audit = PreflightAudit::new();
        let mut hooks = HookList::new().with(&mut audit);
        let report = Trainer::new(cfg).fit(&mut store, &samples, &mut rng, &mut hooks, |g, store, ctx| {
            let x = g.constant(Matrix::col_vector(ctx.batch.iter().map(|r| r.user as f32 / 40.0).collect()));
            let target = g.constant(Matrix::col_vector(ctx.batch.iter().map(|r| r.value).collect()));
            let wv = g.param_full(store, w);
            let w_rows = g.repeat_rows(wv, ctx.batch.len());
            let pred = g.mul(x, w_rows);
            let l = loss::mse(g, pred, target);
            StepLosses::prediction_only(g, l)
        });
        drop(hooks);
        assert!(!report.stopped_early);
        // 40 samples / batch 8 = 5 batches; only the first 4 are audited.
        assert_eq!(audit.tapes(), 4);
        let final_report = audit.finish("toy");
        assert!(!final_report.has_errors(), "{}", final_report.render());
        assert_eq!(final_report.params_audited, 1);
    }

    #[test]
    fn preflight_does_not_change_losses() {
        let _serial = crate::epoch_loop_lock();
        // The checked-tape window must be numerically invisible: a fit's
        // loss trajectory with the audit hook registered is bit-identical
        // to one without.
        let cfg = TrainConfig { epochs: 3, batch_size: 8, lr: 1e-2, ..TrainConfig::default() };
        let plain = fit_toy(cfg, &mut HookList::new());
        let mut audit = crate::hooks::PreflightAudit::new();
        let mut hooks = HookList::new().with(&mut audit);
        let audited = fit_toy(cfg, &mut hooks);
        drop(hooks);
        for (a, b) in plain.epochs.iter().zip(&audited.epochs) {
            assert_eq!(a.prediction.to_bits(), b.prediction.to_bits());
        }
    }

    #[test]
    fn empty_samples_yield_zero_loss_epochs() {
        let _serial = crate::epoch_loop_lock();
        let cfg = TrainConfig { epochs: 2, batch_size: 8, ..TrainConfig::default() };
        let mut store = ParamStore::new();
        store.add("unused", Matrix::zeros(1, 1));
        let samples: Vec<Rating> = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut step = ConstStep;
        let report = Trainer::new(cfg).run(&mut store, &samples, &mut rng, &mut HookList::new(), &mut step);
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.epochs[0].prediction, 0.0);
    }
}
