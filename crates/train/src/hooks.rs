//! Observer callbacks on the training loop.
//!
//! Firing order per epoch is documented and tested:
//! `on_epoch_start` → `on_batch_end` (once per batch) → `on_epoch_end`,
//! and within each event hooks fire in registration order. `on_epoch_end`
//! is always delivered to *every* hook, even if an earlier one asked to
//! stop; any [`Signal::Stop`] then ends training after that epoch.

use agnn_autograd::ParamStore;
use agnn_check::{AuditAccumulator, AuditReport, TapeAudit};
use agnn_data::Rating;
use agnn_tensor::profile::OpProfile;
use std::time::Instant;

/// What a hook's `on_epoch_end` tells the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Signal {
    /// Keep training.
    Continue,
    /// End training after this epoch (sets `TrainReport::stopped_early`).
    Stop,
}

/// Per-batch loss snapshot handed to `on_batch_end`.
#[derive(Clone, Copy, Debug)]
pub struct BatchStats {
    /// Epoch index, 0-based.
    pub epoch: usize,
    /// Batch index within the epoch, 0-based.
    pub batch_index: usize,
    /// This batch's prediction loss.
    pub prediction: f64,
    /// This batch's reconstruction loss.
    pub reconstruction: f64,
    /// Global gradient L2 norm before clipping. Only populated while
    /// telemetry is live (the extra norm pass is skipped otherwise) and the
    /// loss reached a trainable leaf.
    pub grad_norm: Option<f64>,
}

/// Per-epoch loss snapshot handed to `on_epoch_end`.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index, 0-based.
    pub epoch: usize,
    /// Mean prediction loss over the epoch's batches.
    pub prediction: f64,
    /// Mean reconstruction loss over the epoch's batches.
    pub reconstruction: f64,
    /// Number of batches in the epoch.
    pub batches: usize,
}

/// Observer interface on the training loop. All methods default to no-ops
/// so hooks implement only what they watch.
pub trait TrainHook {
    /// Fires before the epoch's first batch.
    fn on_epoch_start(&mut self, _epoch: usize) {}
    /// Fires after each optimizer step.
    fn on_batch_end(&mut self, _stats: &BatchStats) {}
    /// Fires after the epoch's losses are folded into the report; return
    /// [`Signal::Stop`] to end training.
    fn on_epoch_end(&mut self, _stats: &EpochStats, _store: &ParamStore) -> Signal {
        Signal::Continue
    }
    /// Fires with the tape audit of each pre-flight batch (the driver audits
    /// the first few batches of epoch 0); return [`Signal::Stop`] to end
    /// training. When the tape is broken and *no* hook stops, the driver
    /// panics with the rendered findings, so register a [`PreflightAudit`]
    /// to handle broken models gracefully.
    fn on_preflight_audit(&mut self, _audit: &TapeAudit) -> Signal {
        Signal::Continue
    }
    /// Fires after `on_epoch_end` with the epoch's per-kernel wall-clock
    /// drain when op profiling is live
    /// (`agnn_tensor::profile::set_profiling(true)`); never fires otherwise.
    fn on_op_profile(&mut self, _epoch: usize, _profile: &OpProfile) {}
}

/// Lets callers register `&mut hook` and read the hook's state afterwards.
impl<H: TrainHook + ?Sized> TrainHook for &mut H {
    fn on_epoch_start(&mut self, epoch: usize) {
        (**self).on_epoch_start(epoch);
    }
    fn on_batch_end(&mut self, stats: &BatchStats) {
        (**self).on_batch_end(stats);
    }
    fn on_epoch_end(&mut self, stats: &EpochStats, store: &ParamStore) -> Signal {
        (**self).on_epoch_end(stats, store)
    }
    fn on_preflight_audit(&mut self, audit: &TapeAudit) -> Signal {
        (**self).on_preflight_audit(audit)
    }
    fn on_op_profile(&mut self, epoch: usize, profile: &OpProfile) {
        (**self).on_op_profile(epoch, profile);
    }
}

/// An ordered collection of hooks, fired in registration order.
#[derive(Default)]
pub struct HookList<'h> {
    hooks: Vec<Box<dyn TrainHook + 'h>>,
}

impl<'h> HookList<'h> {
    /// An empty list.
    pub fn new() -> Self {
        Self { hooks: Vec::new() }
    }

    /// Registers a hook (register `&mut hook` to keep access to its state).
    pub fn push(&mut self, hook: impl TrainHook + 'h) {
        self.hooks.push(Box::new(hook));
    }

    /// Builder-style [`HookList::push`].
    pub fn with(mut self, hook: impl TrainHook + 'h) -> Self {
        self.push(hook);
        self
    }

    /// Number of registered hooks.
    pub fn len(&self) -> usize {
        self.hooks.len()
    }

    /// True when no hooks are registered.
    pub fn is_empty(&self) -> bool {
        self.hooks.is_empty()
    }

    pub(crate) fn epoch_start(&mut self, epoch: usize) {
        for h in &mut self.hooks {
            h.on_epoch_start(epoch);
        }
    }

    pub(crate) fn batch_end(&mut self, stats: &BatchStats) {
        for h in &mut self.hooks {
            h.on_batch_end(stats);
        }
    }

    pub(crate) fn epoch_end(&mut self, stats: &EpochStats, store: &ParamStore) -> Signal {
        let mut signal = Signal::Continue;
        for h in &mut self.hooks {
            if h.on_epoch_end(stats, store) == Signal::Stop {
                signal = Signal::Stop;
            }
        }
        signal
    }

    pub(crate) fn preflight_audit(&mut self, audit: &TapeAudit) -> Signal {
        let mut signal = Signal::Continue;
        for h in &mut self.hooks {
            if h.on_preflight_audit(audit) == Signal::Stop {
                signal = Signal::Stop;
            }
        }
        signal
    }

    pub(crate) fn op_profile(&mut self, epoch: usize, profile: &OpProfile) {
        for h in &mut self.hooks {
            h.on_op_profile(epoch, profile);
        }
    }

    /// A hook that forwards **only** `on_preflight_audit` back to this list.
    ///
    /// Models with an internal pre-training stage (DropoutNet, MetaEmb)
    /// register this on the stage's own hook list, so a [`PreflightAudit`]
    /// sees every phase — dead-parameter verdicts union across phases —
    /// without exposing the stage to the caller's loss/stopping hooks.
    pub fn preflight_forwarder(&mut self) -> PreflightForwarder<'_, 'h> {
        PreflightForwarder(self)
    }
}

/// See [`HookList::preflight_forwarder`].
pub struct PreflightForwarder<'a, 'h>(&'a mut HookList<'h>);

impl TrainHook for PreflightForwarder<'_, '_> {
    fn on_preflight_audit(&mut self, audit: &TapeAudit) -> Signal {
        self.0.preflight_audit(audit)
    }
}

/// Collects every pre-flight [`TapeAudit`] the driver produces into an
/// [`AuditAccumulator`] and stops training on the first hard error, so a
/// broken model yields a readable [`AuditReport`] instead of a panic.
///
/// Register `&mut hook` (like [`Validation`]) across every phase of a fit,
/// then call [`PreflightAudit::finish`] — dead-parameter verdicts need the
/// union of all phases (pre-train + fine-tune fits legitimately leave some
/// parameters untouched per phase).
#[derive(Default)]
pub struct PreflightAudit {
    acc: AuditAccumulator,
}

impl PreflightAudit {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tapes absorbed so far.
    pub fn tapes(&self) -> usize {
        self.acc.tapes()
    }

    /// Settles cross-phase verdicts into the final report for `model`.
    pub fn finish(self, model: impl Into<String>) -> AuditReport {
        self.acc.finish(model)
    }
}

impl TrainHook for PreflightAudit {
    fn on_preflight_audit(&mut self, audit: &TapeAudit) -> Signal {
        self.acc.absorb(audit);
        if audit.has_errors() { Signal::Stop } else { Signal::Continue }
    }
}

/// Logs epoch losses every `every` epochs via the `agnn-obs` log facade
/// (suppressed at `--log-level quiet`).
pub struct LossLogger {
    every: usize,
}

impl LossLogger {
    /// Logs every `every`-th epoch (clamped to at least 1).
    pub fn every(every: usize) -> Self {
        Self { every: every.max(1) }
    }
}

impl TrainHook for LossLogger {
    fn on_epoch_end(&mut self, stats: &EpochStats, _store: &ParamStore) -> Signal {
        if stats.epoch % self.every == 0 {
            agnn_obs::log::info(format!(
                "epoch {:>4}  pred {:.6}  recon {:.6}",
                stats.epoch, stats.prediction, stats.reconstruction
            ));
        }
        Signal::Continue
    }
}

/// Records wall-clock seconds per epoch.
#[derive(Default)]
pub struct Timing {
    started: Option<Instant>,
    /// Seconds each completed epoch took.
    pub epoch_seconds: Vec<f64>,
}

impl Timing {
    /// An empty timer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TrainHook for Timing {
    fn on_epoch_start(&mut self, _epoch: usize) {
        self.started = Some(Instant::now());
    }
    fn on_epoch_end(&mut self, _stats: &EpochStats, _store: &ParamStore) -> Signal {
        let secs = self.started.take().map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0);
        self.epoch_seconds.push(secs);
        Signal::Continue
    }
}

/// Stops training when the prediction loss has not improved (by more than
/// `min_delta`) for `patience` consecutive epochs.
pub struct EarlyStopping {
    patience: usize,
    min_delta: f64,
    best: f64,
    since_best: usize,
    /// The epoch the stop fired at, once it has.
    pub stopped_at: Option<usize>,
}

impl EarlyStopping {
    /// Stop after `patience` epochs without improvement.
    pub fn new(patience: usize) -> Self {
        Self::with_min_delta(patience, 0.0)
    }

    /// Like [`EarlyStopping::new`], requiring improvements to exceed
    /// `min_delta` to reset the counter.
    pub fn with_min_delta(patience: usize, min_delta: f64) -> Self {
        assert!(patience > 0, "patience must be positive");
        Self { patience, min_delta, best: f64::INFINITY, since_best: 0, stopped_at: None }
    }
}

impl TrainHook for EarlyStopping {
    fn on_epoch_end(&mut self, stats: &EpochStats, _store: &ParamStore) -> Signal {
        if stats.prediction < self.best - self.min_delta {
            self.best = stats.prediction;
            self.since_best = 0;
            return Signal::Continue;
        }
        self.since_best += 1;
        if self.since_best >= self.patience {
            self.stopped_at = Some(stats.epoch);
            return Signal::Stop;
        }
        Signal::Continue
    }
}

/// Evaluates a held-out split every `every` epochs via a caller-supplied
/// metric closure, recording `(epoch, value)` pairs.
///
/// The closure sees the live [`ParamStore`], so a model's `fit` can close
/// over its modules and score the holdout mid-training.
pub struct Validation<'v> {
    holdout: Vec<Rating>,
    every: usize,
    #[allow(clippy::type_complexity)]
    eval: Box<dyn FnMut(&ParamStore, &[Rating]) -> f64 + 'v>,
    /// `(epoch, metric)` pairs in evaluation order.
    pub history: Vec<(usize, f64)>,
}

impl<'v> Validation<'v> {
    /// Evaluates `holdout` with `eval` every `every`-th epoch (clamped to
    /// at least 1), starting at epoch 0.
    pub fn new(holdout: Vec<Rating>, every: usize, eval: impl FnMut(&ParamStore, &[Rating]) -> f64 + 'v) -> Self {
        Self { holdout, every: every.max(1), eval: Box::new(eval), history: Vec::new() }
    }

    /// Best (lowest) metric observed so far.
    pub fn best(&self) -> Option<(usize, f64)> {
        self.history.iter().copied().fold(None, |best, cur| match best {
            Some((_, b)) if b <= cur.1 => best,
            _ => Some(cur),
        })
    }
}

impl TrainHook for Validation<'_> {
    fn on_epoch_end(&mut self, stats: &EpochStats, store: &ParamStore) -> Signal {
        if stats.epoch % self.every == 0 {
            let value = (self.eval)(store, &self.holdout);
            self.history.push((stats.epoch, value));
        }
        Signal::Continue
    }
}

/// Collects the final report for callers that only get hook access (the
/// CLI registers one to surface loss curves without touching the model).
#[derive(Default)]
pub struct ReportCollector {
    /// Epoch stats observed so far.
    pub epochs: Vec<EpochStats>,
}

impl ReportCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TrainHook for ReportCollector {
    fn on_epoch_end(&mut self, stats: &EpochStats, _store: &ParamStore) -> Signal {
        self.epochs.push(*stats);
        Signal::Continue
    }
}

/// Accumulates per-kernel wall-clock drains across epochs (register `&mut
/// hook` and read [`OpProfiler::totals`] after the fit). Only receives data
/// when op profiling is live — see [`TrainHook::on_op_profile`]; the CLI's
/// `agnn train --profile-ops` wires the whole path up.
#[derive(Default)]
pub struct OpProfiler {
    /// Merged kernel totals across every epoch observed so far.
    pub totals: OpProfile,
    /// Number of epochs that delivered a (non-empty) profile.
    pub epochs: usize,
}

impl OpProfiler {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders the totals as an aligned per-kernel table, slowest first.
    pub fn render(&self) -> String {
        let mut entries = self.totals.entries.clone();
        entries.sort_by_key(|e| std::cmp::Reverse(e.nanos));
        let total = self.totals.total_nanos().max(1);
        let mut out = String::from("kernel               calls       total_ms     share\n");
        for e in &entries {
            let ms = e.nanos as f64 / 1e6;
            let share = 100.0 * e.nanos as f64 / total as f64;
            out.push_str(&format!("{:<18} {:>8} {:>13.3} {:>8.1}%\n", e.kernel, e.calls, ms, share));
        }
        out
    }
}

impl TrainHook for OpProfiler {
    fn on_op_profile(&mut self, _epoch: usize, profile: &OpProfile) {
        self.totals.merge(profile);
        self.epochs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(epoch: usize, prediction: f64) -> EpochStats {
        EpochStats { epoch, prediction, reconstruction: 0.0, batches: 1 }
    }

    #[test]
    fn early_stopping_counts_patience() {
        let store = ParamStore::new();
        let mut hook = EarlyStopping::new(2);
        assert_eq!(hook.on_epoch_end(&stats(0, 1.0), &store), Signal::Continue);
        assert_eq!(hook.on_epoch_end(&stats(1, 1.0), &store), Signal::Continue);
        assert_eq!(hook.on_epoch_end(&stats(2, 1.0), &store), Signal::Stop);
        assert_eq!(hook.stopped_at, Some(2));
    }

    #[test]
    fn early_stopping_resets_on_improvement() {
        let store = ParamStore::new();
        let mut hook = EarlyStopping::new(2);
        assert_eq!(hook.on_epoch_end(&stats(0, 1.0), &store), Signal::Continue);
        assert_eq!(hook.on_epoch_end(&stats(1, 1.0), &store), Signal::Continue);
        assert_eq!(hook.on_epoch_end(&stats(2, 0.5), &store), Signal::Continue);
        assert_eq!(hook.on_epoch_end(&stats(3, 0.5), &store), Signal::Continue);
        assert_eq!(hook.on_epoch_end(&stats(4, 0.5), &store), Signal::Stop);
    }

    #[test]
    fn min_delta_requires_meaningful_improvement() {
        let store = ParamStore::new();
        let mut hook = EarlyStopping::with_min_delta(1, 0.1);
        assert_eq!(hook.on_epoch_end(&stats(0, 1.0), &store), Signal::Continue);
        // 0.95 improves by < min_delta: counts as stagnation.
        assert_eq!(hook.on_epoch_end(&stats(1, 0.95), &store), Signal::Stop);
    }

    #[test]
    fn validation_tracks_best() {
        let store = ParamStore::new();
        let mut hook = Validation::new(vec![], 1, |_, _| 0.0);
        hook.history = vec![(0, 2.0), (1, 1.0), (2, 1.5)];
        assert_eq!(hook.best(), Some((1, 1.0)));
        let _ = hook.on_epoch_end(&stats(3, 0.0), &store);
        assert_eq!(hook.history.len(), 4);
    }

    #[test]
    fn hooklist_aggregates_stop_from_any_hook() {
        let store = ParamStore::new();
        let mut hooks = HookList::new().with(Timing::new()).with(EarlyStopping::new(1));
        assert_eq!(hooks.len(), 2);
        assert_eq!(hooks.epoch_end(&stats(0, 1.0), &store), Signal::Continue);
        assert_eq!(hooks.epoch_end(&stats(1, 1.0), &store), Signal::Stop);
    }

    #[test]
    fn op_profiler_merges_epoch_drains() {
        use agnn_tensor::profile::OpTiming;
        let mut prof = OpProfiler::new();
        let epoch0 = OpProfile { entries: vec![OpTiming { kernel: "matmul_tn", calls: 4, nanos: 4000 }] };
        let epoch1 = OpProfile {
            entries: vec![
                OpTiming { kernel: "matmul_tn", calls: 2, nanos: 1000 },
                OpTiming { kernel: "transpose", calls: 1, nanos: 500 },
            ],
        };
        {
            let mut hooks = HookList::new().with(&mut prof);
            hooks.op_profile(0, &epoch0);
            hooks.op_profile(1, &epoch1);
        }
        assert_eq!(prof.epochs, 2);
        assert_eq!(prof.totals.total_nanos(), 5500);
        let table = prof.render();
        // Slowest kernel leads the table.
        let first_data_line = table.lines().nth(1).unwrap();
        assert!(first_data_line.starts_with("matmul_tn"), "{table}");
    }
}
