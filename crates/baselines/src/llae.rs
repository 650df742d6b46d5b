//! LLAE — from zero-shot learning to cold-start recommendation
//! (Li et al., AAAI'19).
//!
//! A *linear low-rank auto-encoder* maps a user's attribute vector to the
//! user's **entire behaviour vector over all items** (and symmetrically for
//! items). That is the right objective for top-N recommendation of
//! behaviours, but — as §4.2 stresses — the wrong scale for rating
//! prediction: the reconstruction approximates a 0/1 interaction indicator,
//! not a 1–5 star value, so its RMSE collapses. We reproduce the method
//! faithfully (including optimizing only the reconstruction objective) and
//! therefore reproduce the failure.

use crate::common::BaselineConfig;
use agnn_autograd::nn::Linear;
use agnn_autograd::{loss, Graph, Ops, ParamStore};
use agnn_core::model::{EpochLosses, RatingModel, TrainReport};
use agnn_data::{Dataset, Split};
use agnn_tensor::{Matrix, SparseVec};
use agnn_train::{HookList, StepLosses, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Side {
    enc: Linear,
    dec: Linear,
    /// Dense attribute rows (input).
    attrs: Vec<SparseVec>,
    /// Binary behaviour rows (target), from the training split.
    behaviour: Vec<SparseVec>,
}

struct Fitted {
    store: ParamStore,
    user: Side,
    item: Side,
}

/// The LLAE baseline.
pub struct Llae {
    cfg: BaselineConfig,
    fitted: Option<Fitted>,
}

impl Llae {
    /// Creates an unfitted model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, fitted: None }
    }

    fn dense_rows(vecs: &[SparseVec], rows: &[usize]) -> Matrix {
        let dim = vecs.first().map_or(0, SparseVec::dim);
        let mut m = Matrix::zeros(rows.len(), dim);
        for (out_row, &r) in rows.iter().enumerate() {
            for (i, v) in vecs[r].iter() {
                m.set(out_row, i as usize, v);
            }
        }
        m
    }

    /// Trains one side's auto-encoder (attrs → behaviour) through the
    /// engine, batching over node indices. LLAE uses 4× the shared lr.
    fn fit_side(
        side: &Side,
        store: &mut ParamStore,
        cfg: &BaselineConfig,
        rng: &mut StdRng,
        hooks: &mut HookList<'_>,
    ) -> TrainReport {
        let nodes: Vec<usize> = (0..side.attrs.len()).collect();
        let mut trainer = Trainer::new(cfg.train_config().with_lr(cfg.lr * 4.0));
        trainer.fit(store, &nodes, rng, hooks, |g, store, ctx| {
            let x = Self::dense_rows(&side.attrs, ctx.batch);
            let b = Self::dense_rows(&side.behaviour, ctx.batch);
            let xv = g.constant(x);
            let z = side.enc.forward(g, store, xv);
            let recon = side.dec.forward(g, store, z);
            let target = g.constant(b);
            let l = loss::mse(g, recon, target);
            StepLosses { total: l, prediction: 0.0, reconstruction: g.scalar(l) as f64 }
        })
    }

    /// Behaviour-reconstruction score for one (row, column) query.
    fn side_scores(&self, user_side: bool, rows: &[usize], cols: &[usize]) -> Vec<f32> {
        let f = self.fitted.as_ref().expect("predict before fit");
        let side = if user_side { &f.user } else { &f.item };
        let x = Self::dense_rows(&side.attrs, rows);
        let mut g = Graph::new();
        let xv = g.constant(x);
        let z = side.enc.forward(&mut g, &f.store, xv);
        let recon = side.dec.forward(&mut g, &f.store, z);
        cols.iter().enumerate().map(|(r, &c)| g.value(recon).get(r, c)).collect()
    }
}

impl RatingModel for Llae {
    fn name(&self) -> String {
        "LLAE".into()
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) -> TrainReport {
        self.fit_with(dataset, split, &mut HookList::new())
    }

    fn fit_with(&mut self, dataset: &Dataset, split: &Split, hooks: &mut HookList<'_>) -> TrainReport {
        let cfg = self.cfg;
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();

        // Binary behaviour targets from the training interactions.
        let binarize = |v: &SparseVec| {
            SparseVec::from_pairs(v.dim(), v.iter().map(|(i, _)| (i, 1.0)))
        };
        let user_behaviour: Vec<SparseVec> =
            dataset.user_preference_vectors(&split.train).iter().map(binarize).collect();
        let item_behaviour: Vec<SparseVec> =
            dataset.item_preference_vectors(&split.train).iter().map(binarize).collect();

        let k = cfg.embed_dim;
        let user = Side {
            enc: Linear::new_no_bias(&mut store, "ll.uenc", dataset.user_schema.total_dim(), k, &mut rng),
            dec: Linear::new_no_bias(&mut store, "ll.udec", k, dataset.num_items, &mut rng),
            attrs: dataset.user_attrs.clone(),
            behaviour: user_behaviour,
        };
        let item = Side {
            enc: Linear::new_no_bias(&mut store, "ll.ienc", dataset.item_schema.total_dim(), k, &mut rng),
            dec: Linear::new_no_bias(&mut store, "ll.idec", k, dataset.num_users, &mut rng),
            attrs: dataset.item_attrs.clone(),
            behaviour: item_behaviour,
        };

        // The two sides train sequentially on one rng stream; hooks observe
        // the user side's epochs first, then the item side's.
        let u_report = Self::fit_side(&user, &mut store, &cfg, &mut rng, hooks);
        let i_report = Self::fit_side(&item, &mut store, &cfg, &mut rng, hooks);
        let mut report = TrainReport::default();
        for (u, i) in u_report.epochs.iter().zip(&i_report.epochs) {
            report.epochs.push(EpochLosses {
                prediction: 0.0,
                reconstruction: u.reconstruction + i.reconstruction,
            });
        }
        report.stopped_early = u_report.stopped_early || i_report.stopped_early;
        report.train_seconds = start.elapsed().as_secs_f64();
        self.fitted = Some(Fitted { store, user, item });
        report
    }

    fn predict_batch(&self, pairs: &[(u32, u32)]) -> Vec<f32> {
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(256) {
            let users: Vec<usize> = chunk.iter().map(|&(u, _)| u as usize).collect();
            let items: Vec<usize> = chunk.iter().map(|&(_, i)| i as usize).collect();
            // The behaviour reconstruction *is* the predicted rating — the
            // scale mismatch is LLAE's documented failure mode.
            let su = self.side_scores(true, &users, &items);
            let si = self.side_scores(false, &items, &users);
            out.extend(su.iter().zip(&si).map(|(a, b)| (a + b) * 0.5));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_core::model::evaluate;
    use agnn_data::{ColdStartKind, Preset, SplitConfig};

    #[test]
    fn reconstruction_scale_mismatch_reproduced() {
        let data = Preset::Ml100k.generate(0.08, 45);
        let cfg = BaselineConfig { embed_dim: 16, epochs: 4, ..BaselineConfig::default() };
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictUser, 45));
        let mut model = Llae::new(cfg);
        model.fit(&data, &split);
        let r = evaluate(&model, &data, &split.test).finish();
        // Predictions live near 0–1, ratings near 3.6: RMSE far above any
        // real rating model (paper reports ≈3.3 unclamped; our harness
        // clamps to the scale, so ≳2 is the failure signature).
        assert!(r.rmse > 1.8, "LLAE should fail at rating scale, rmse {}", r.rmse);
    }

    #[test]
    fn predictions_deterministic() {
        let data = Preset::Ml100k.generate(0.06, 46);
        let cfg = BaselineConfig { embed_dim: 8, epochs: 2, ..BaselineConfig::default() };
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictItem, 46));
        let mut model = Llae::new(cfg);
        model.fit(&data, &split);
        assert_eq!(model.predict_batch(&[(0, 1)]), model.predict_batch(&[(0, 1)]));
    }
}
