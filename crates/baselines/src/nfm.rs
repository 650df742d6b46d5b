//! NFM — Neural Factorization Machines (He & Chua, SIGIR'17).
//!
//! Each rating instance is a sparse feature vector concatenating the user's
//! and the item's multi-hot attributes plus their one-hot ids. NFM scores it
//! with a global bias, a first-order linear term, and an MLP over the
//! Bi-Interaction pooling of the active features' embeddings. Ids of strict
//! cold start nodes are dropped from the feature set (their embeddings are
//! untrained), which is exactly why NFM degrades under strict cold start:
//! only the attribute features remain.

use crate::common::{BaselineConfig, Degrees};
use agnn_autograd::nn::{Activation, Mlp};
use agnn_autograd::{loss, Graph, Ops, ParamId, ParamStore, Var};
use agnn_core::model::{RatingModel, TrainReport};
use agnn_data::batch::unzip_batch;
use agnn_data::{Dataset, Split};
use agnn_tensor::{init, Matrix};
use agnn_train::{HookList, StepLosses, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::time::Instant;

struct Modules {
    table: ParamId,
    linear: ParamId,
    global: ParamId,
    mlp: Mlp,
    user_feats: Vec<Vec<usize>>,
    item_feats: Vec<Vec<usize>>,
}

struct Fitted {
    store: ParamStore,
    m: Modules,
}

/// The NFM baseline.
pub struct Nfm {
    cfg: BaselineConfig,
    fitted: Option<Fitted>,
}

impl Nfm {
    /// Creates an unfitted model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, fitted: None }
    }

    /// Per-node global feature index lists: attrs for everyone, id features
    /// only for warm nodes.
    fn feature_lists(dataset: &Dataset, deg: &Degrees) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let ku = dataset.user_schema.total_dim();
        let ki = dataset.item_schema.total_dim();
        let id_user_base = ku + ki;
        let id_item_base = ku + ki + dataset.num_users;
        let users = (0..dataset.num_users)
            .map(|u| {
                let mut f: Vec<usize> = dataset.user_attrs[u].indices().iter().map(|&i| i as usize).collect();
                if deg.user[u] > 0 {
                    f.push(id_user_base + u);
                }
                f
            })
            .collect();
        let items = (0..dataset.num_items)
            .map(|i| {
                let mut f: Vec<usize> =
                    dataset.item_attrs[i].indices().iter().map(|&x| ku + x as usize).collect();
                if deg.item[i] > 0 {
                    f.push(id_item_base + i);
                }
                f
            })
            .collect();
        (users, items)
    }

    fn score(
        g: &mut Graph,
        store: &ParamStore,
        m: &Modules,
        users: &[usize],
        items: &[usize],
        dropout_rng: Option<&mut StdRng>,
    ) -> Var {
        // Flatten pair feature lists.
        let mut flat = Vec::new();
        let mut offsets = Vec::with_capacity(users.len() + 1);
        offsets.push(0usize);
        for (&u, &i) in users.iter().zip(items) {
            flat.extend_from_slice(&m.user_feats[u]);
            flat.extend_from_slice(&m.item_feats[i]);
            offsets.push(flat.len());
        }
        let flat = Rc::new(flat);
        let offsets = Rc::new(offsets);

        // First-order term.
        let w = g.param_rows(store, m.linear, flat.clone());
        let first = g.segment_sum_rows_var(w, offsets.clone()); // B × 1

        // Bi-Interaction pooling over value embeddings.
        let v = g.param_rows(store, m.table, flat);
        let sum = g.segment_sum_rows_var(v, offsets.clone());
        let vsq = g.square(v);
        let sumsq = g.segment_sum_rows_var(vsq, offsets);
        let sum2 = g.square(sum);
        let diff = g.sub(sum2, sumsq);
        let mut bi = g.scale(diff, 0.5);
        // He & Chua regularize the Bi-Interaction vector with dropout.
        if let Some(rng) = dropout_rng {
            bi = g.dropout(bi, 0.5, rng);
        }
        let deep = m.mlp.forward(g, store, bi); // B × 1

        let global = g.param_full(store, m.global);
        let global_rows = g.repeat_rows(global, users.len());
        let s = g.add(first, deep);
        g.add(s, global_rows)
    }
}

impl RatingModel for Nfm {
    fn name(&self) -> String {
        "NFM".into()
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) -> TrainReport {
        self.fit_with(dataset, split, &mut HookList::new())
    }

    fn fit_with(&mut self, dataset: &Dataset, split: &Split, hooks: &mut HookList<'_>) -> TrainReport {
        let cfg = self.cfg;
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let deg = Degrees::from_split(dataset, split);
        let (user_feats, item_feats) = Self::feature_lists(dataset, &deg);
        let total_feats =
            dataset.user_schema.total_dim() + dataset.item_schema.total_dim() + dataset.num_users + dataset.num_items;

        let mut store = ParamStore::new();
        let table = store.add("nfm.table", init::normal(total_feats, cfg.embed_dim, 0.05, &mut rng));
        let linear = store.add("nfm.linear", Matrix::zeros(total_feats, 1));
        let global = store.add("nfm.global", Matrix::full(1, 1, split.train_mean()));
        let mlp = Mlp::new(&mut store, "nfm.mlp", &[cfg.embed_dim, cfg.embed_dim, 1], Activation::LeakyRelu(0.01), &mut rng);
        let m = Modules { table, linear, global, mlp, user_feats, item_feats };

        let mut trainer = Trainer::new(cfg.train_config().with_weight_decay(5e-4));
        let mut report = trainer.fit(&mut store, &split.train, &mut rng, hooks, |g, store, ctx| {
            let (users, items, values) = unzip_batch(ctx.batch);
            let scores = Self::score(g, store, &m, &users, &items, Some(&mut *ctx.rng));
            let target = g.constant(Matrix::col_vector(values));
            let l = loss::mse(g, scores, target);
            StepLosses::prediction_only(g, l)
        });
        report.train_seconds = start.elapsed().as_secs_f64();

        self.fitted = Some(Fitted { store, m });
        report
    }

    fn predict_batch(&self, pairs: &[(u32, u32)]) -> Vec<f32> {
        let f = self.fitted.as_ref().expect("predict before fit");
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(1024) {
            let users: Vec<usize> = chunk.iter().map(|&(u, _)| u as usize).collect();
            let items: Vec<usize> = chunk.iter().map(|&(_, i)| i as usize).collect();
            let mut g = Graph::new();
            let s = Self::score(&mut g, &f.store, &f.m, &users, &items, None);
            out.extend(g.value(s).as_slice().iter().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_autograd::optim::Adam;
    use agnn_core::model::{evaluate, fit_and_evaluate};
    use agnn_data::batch::BatchIter;
    use agnn_data::{ColdStartKind, Preset, SplitConfig};

    fn cfg() -> BaselineConfig {
        BaselineConfig { embed_dim: 16, epochs: 10, lr: 3e-3, ..BaselineConfig::default() }
    }

    #[test]
    fn warm_start_beats_constant() {
        // NFM needs enough data for its id features not to overfit; the
        // harness-scale dataset (≈12k ratings) is the realistic regime.
        let data = Preset::Ml100k.generate(0.35, 21);
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::WarmStart, 21));
        let mut model = Nfm::new(cfg());
        let (_, acc) = fit_and_evaluate(&mut model, &data, &split);
        let rmse = acc.finish().rmse;
        let mean = split.train_mean();
        let mut base = agnn_metrics::EvalAccumulator::new();
        for r in &split.test {
            base.push(mean, r.value);
        }
        assert!(rmse < base.finish().rmse, "NFM {rmse}");
    }

    #[test]
    fn cold_start_predictions_finite() {
        let data = Preset::Ml100k.generate(0.08, 22);
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictItem, 22));
        let mut model = Nfm::new(cfg());
        model.fit(&data, &split);
        let r = evaluate(&model, &data, &split.test).finish();
        assert!(r.rmse < 2.0, "ICS rmse {}", r.rmse);
    }

    /// Migration equivalence: the engine-driven fit must reproduce the
    /// pre-refactor hand-rolled loop bit-for-bit under the same seed. The
    /// replica below is a faithful copy of the old `Nfm::fit` body.
    #[test]
    fn migrated_fit_matches_legacy_loop_bitwise() {
        let data = Preset::Ml100k.generate(0.08, 23);
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::WarmStart, 23));
        let cfg = BaselineConfig { embed_dim: 8, epochs: 4, batch_size: 64, lr: 3e-3, ..BaselineConfig::default() };

        // Engine-driven run.
        let mut model = Nfm::new(cfg);
        let report = model.fit(&data, &split);

        // Hand-rolled replica of the pre-refactor loop, same seed.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let deg = Degrees::from_split(&data, &split);
        let (user_feats, item_feats) = Nfm::feature_lists(&data, &deg);
        let total_feats =
            data.user_schema.total_dim() + data.item_schema.total_dim() + data.num_users + data.num_items;
        let mut store = ParamStore::new();
        let table = store.add("nfm.table", init::normal(total_feats, cfg.embed_dim, 0.05, &mut rng));
        let linear = store.add("nfm.linear", Matrix::zeros(total_feats, 1));
        let global = store.add("nfm.global", Matrix::full(1, 1, split.train_mean()));
        let mlp =
            Mlp::new(&mut store, "nfm.mlp", &[cfg.embed_dim, cfg.embed_dim, 1], Activation::LeakyRelu(0.01), &mut rng);
        let m = Modules { table, linear, global, mlp, user_feats, item_feats };

        let mut opt = Adam::with_lr(cfg.lr).with_weight_decay(5e-4);
        let mut batches = BatchIter::new(&split.train, cfg.batch_size);
        let mut legacy = Vec::new();
        for _ in 0..cfg.epochs {
            let mut sum = 0.0;
            let mut n = 0usize;
            let batch_list: Vec<_> = batches.epoch(&mut rng).collect();
            for batch in batch_list {
                let (users, items, values) = unzip_batch(&batch);
                let mut g = Graph::new();
                let scores = Nfm::score(&mut g, &store, &m, &users, &items, Some(&mut rng));
                let target = g.constant(Matrix::col_vector(values));
                let l = loss::mse(&mut g, scores, target);
                sum += g.scalar(l) as f64;
                n += 1;
                g.backward(l);
                g.grads_into(&mut store);
                opt.step(&mut store);
            }
            legacy.push(sum / n.max(1) as f64);
        }

        assert_eq!(report.epochs.len(), legacy.len());
        for (engine, legacy) in report.epochs.iter().zip(&legacy) {
            assert_eq!(engine.prediction.to_bits(), legacy.to_bits(), "loss curves diverged");
        }
    }
}
