//! MetaHIN — meta-learning on heterogeneous information networks
//! (Lu, Fang & Shi, KDD'20), reduced to its optimization-based core.
//!
//! The global (prior) model scores a pair from attribute embeddings plus an
//! item free embedding. At prediction time each task (= user) *adapts* the
//! prior using its **support set** — the user's training ratings — via a
//! closed-form per-user bias/scale correction (a first-order stand-in for
//! the inner MAML step over semantic-context parameters). The mechanism the
//! paper's §4.2 discusses survives intact: a strict cold start user has an
//! empty support set, no adaptation happens, and performance drops to the
//! unadapted prior.

use crate::common::{rowwise_dot, AttrEmbed, BaselineConfig, BiasTerms, Degrees};
use agnn_autograd::nn::Embedding;
use agnn_autograd::{loss, Graph, Ops, ParamStore, Var};
use agnn_core::interaction::AttrLists;
use agnn_core::model::{RatingModel, TrainReport};
use agnn_data::batch::unzip_batch;
use agnn_data::{Dataset, Split};
use agnn_tensor::Matrix;
use agnn_train::{HookList, StepLosses, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::time::Instant;

struct Modules {
    user_attr: AttrEmbed,
    item_attr: AttrEmbed,
    item_emb: Embedding,
    biases: BiasTerms,
    user_attrs: AttrLists,
    item_attrs: AttrLists,
    /// Per-user adaptation `(offset, weight)` fitted on the support set;
    /// identity `(0, 1)` for users without support (strict cold start).
    adaptation: Vec<(f32, f32)>,
    item_cold: Vec<bool>,
}

struct Fitted {
    store: ParamStore,
    m: Modules,
}

/// The MetaHIN baseline.
pub struct MetaHin {
    cfg: BaselineConfig,
    fitted: Option<Fitted>,
}

impl MetaHin {
    /// Creates an unfitted model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, fitted: None }
    }

    fn prior_score(g: &mut Graph, store: &ParamStore, m: &Modules, users: &[usize], items: &[usize]) -> Var {
        let hu = m.user_attr.forward(g, store, &m.user_attrs, users);
        let ia = m.item_attr.forward(g, store, &m.item_attrs, items);
        let ie = m.item_emb.lookup(g, store, Rc::new(items.to_vec()));
        let mask = crate::common::warm_col(g, &m.item_cold, items);
        let ie = g.mul_col_broadcast(ie, mask);
        let hi = g.add(ia, ie);
        let dot = rowwise_dot(g, hu, hi);
        m.biases.apply(g, store, dot, users, items)
    }
}

impl RatingModel for MetaHin {
    fn name(&self) -> String {
        "MetaHIN".into()
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) -> TrainReport {
        self.fit_with(dataset, split, &mut HookList::new())
    }

    fn fit_with(&mut self, dataset: &Dataset, split: &Split, hooks: &mut HookList<'_>) -> TrainReport {
        let cfg = self.cfg;
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let deg = Degrees::from_split(dataset, split);
        let mut store = ParamStore::new();
        let mut m = Modules {
            user_attr: AttrEmbed::new(&mut store, "mh.uattr", dataset.user_schema.total_dim(), cfg.embed_dim, &mut rng),
            item_attr: AttrEmbed::new(&mut store, "mh.iattr", dataset.item_schema.total_dim(), cfg.embed_dim, &mut rng),
            item_emb: Embedding::new(&mut store, "mh.item", dataset.num_items, cfg.embed_dim, &mut rng),
            biases: BiasTerms::new(&mut store, dataset.num_users, dataset.num_items, split.train_mean(), &mut rng),
            user_attrs: AttrLists::from_sparse(&dataset.user_attrs),
            item_attrs: AttrLists::from_sparse(&dataset.item_attrs),
            adaptation: vec![(0.0, 1.0); dataset.num_users],
            item_cold: deg.item_cold(),
        };

        // Meta-train the prior (first-order: ordinary training of the
        // globally-shared parameters).
        let mut trainer = Trainer::new(cfg.train_config());
        let mut report = trainer.fit(&mut store, &split.train, &mut rng, hooks, |g, store, ctx| {
            let (users, items, values) = unzip_batch(ctx.batch);
            let scores = Self::prior_score(g, store, &m, &users, &items);
            let target = g.constant(Matrix::col_vector(values));
            let l = loss::mse(g, scores, target);
            StepLosses::prediction_only(g, l)
        });

        // Task adaptation: per-user ridge fit of prediction → rating on the
        // support set (shrunk toward identity for small supports). This is a
        // closed-form post-training pass, so it stays outside the engine.
        let mut per_user: Vec<Vec<(u32, f32)>> = vec![Vec::new(); dataset.num_users];
        for r in &split.train {
            per_user[r.user as usize].push((r.item, r.value));
        }
        for (u, support) in per_user.iter().enumerate() {
            if support.is_empty() {
                continue; // strict cold start: prior only
            }
            let items: Vec<usize> = support.iter().map(|&(i, _)| i as usize).collect();
            let users = vec![u; items.len()];
            let mut g = Graph::new();
            let s = Self::prior_score(&mut g, &store, &m, &users, &items);
            let preds = g.value(s).as_slice().to_vec();
            let truths: Vec<f32> = support.iter().map(|&(_, v)| v).collect();
            // Shrunk least squares for r ≈ w·p + o.
            let n = preds.len() as f32;
            let shrink = 4.0; // pseudo-observations pinning (w, o) = (1, 0)
            let mp = preds.iter().sum::<f32>() / n;
            let mt = truths.iter().sum::<f32>() / n;
            let cov: f32 = preds.iter().zip(&truths).map(|(p, t)| (p - mp) * (t - mt)).sum();
            let var: f32 = preds.iter().map(|p| (p - mp) * (p - mp)).sum();
            let w = (cov + shrink) / (var + shrink);
            let o = (mt - w * mp) * (n / (n + shrink));
            m.adaptation[u] = (o, w);
        }
        report.train_seconds = start.elapsed().as_secs_f64();

        self.fitted = Some(Fitted { store, m });
        report
    }

    fn predict_batch(&self, pairs: &[(u32, u32)]) -> Vec<f32> {
        let f = self.fitted.as_ref().expect("predict before fit");
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(512) {
            let users: Vec<usize> = chunk.iter().map(|&(u, _)| u as usize).collect();
            let items: Vec<usize> = chunk.iter().map(|&(_, i)| i as usize).collect();
            let mut g = Graph::new();
            let s = Self::prior_score(&mut g, &f.store, &f.m, &users, &items);
            for (row, &u) in users.iter().enumerate() {
                let (o, w) = f.m.adaptation[u];
                out.push(w * g.value(s).get(row, 0) + o);
            }
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
    fn adaptation_identity_for_cold_users() {
        let data = Preset::Ml100k.generate(0.08, 41);
        let cfg = BaselineConfig { embed_dim: 16, epochs: 4, lr: 3e-3, ..BaselineConfig::default() };
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictUser, 41));
        let mut model = MetaHin::new(cfg);
        model.fit(&data, &split);
        let f = model.fitted.as_ref().unwrap();
        for &u in split.cold_users.iter().take(10) {
            assert_eq!(f.m.adaptation[u as usize], (0.0, 1.0), "cold user {u} adapted");
        }
        let r = evaluate(&model, &data, &split.test).finish();
        assert!(r.rmse < 2.0, "UCS rmse {}", r.rmse);
    }

    #[test]
    fn warm_start_learns() {
        let data = Preset::Ml100k.generate(0.08, 42);
        let cfg = BaselineConfig { embed_dim: 16, epochs: 5, lr: 3e-3, ..BaselineConfig::default() };
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::WarmStart, 42));
        let mut model = MetaHin::new(cfg);
        model.fit(&data, &split);
        let r = evaluate(&model, &data, &split.test).finish();
        assert!(r.rmse < 1.3, "WS rmse {}", r.rmse);
    }
}
