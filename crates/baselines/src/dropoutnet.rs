//! DropoutNet — addressing cold start with input dropout
//! (Volkovs, Yu & Poutanen, NeurIPS'17).
//!
//! Stage 1 pre-trains biased matrix factorization; stage 2 trains DNNs
//! `f_u = MLP([U_u ; attr_u])`, `f_v = MLP([V_v ; attr_v])` whose dot
//! product matches the ratings, while **randomly zeroing the preference
//! inputs** `U_u`/`V_v` so the network learns to fall back on content. At
//! test time a strict cold start node supplies exactly that zero vector.
//! The paper's critique carries over: everything rests on the pre-trained
//! MF embeddings, which the cold nodes never had.

use crate::common::{AttrEmbed, BaselineConfig, Degrees};
use crate::mf::BiasedMf;
use agnn_autograd::nn::{Activation, Mlp};
use agnn_autograd::{loss, Graph, Ops, ParamStore, Var};
use agnn_core::interaction::AttrLists;
use agnn_core::model::{RatingModel, TrainReport};
use agnn_data::batch::unzip_batch;
use agnn_data::{Dataset, Split};
use agnn_tensor::Matrix;
use agnn_train::{HookList, StepLosses, Trainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;
use std::time::Instant;

struct Modules {
    mf: BiasedMf,
    user_attr: AttrEmbed,
    item_attr: AttrEmbed,
    user_head: Mlp,
    item_head: Mlp,
    user_attrs: AttrLists,
    item_attrs: AttrLists,
    user_cold: Vec<bool>,
    item_cold: Vec<bool>,
    train_mean: f32,
}

struct Fitted {
    store: ParamStore,
    m: Modules,
}

/// The DropoutNet baseline.
pub struct DropoutNet {
    cfg: BaselineConfig,
    fitted: Option<Fitted>,
}

impl DropoutNet {
    /// Creates an unfitted model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, fitted: None }
    }

    /// `f = MLP([pref(zeroed for cold/dropped) ; attrs])`.
    fn side_forward(
        g: &mut Graph,
        store: &ParamStore,
        m: &Modules,
        user_side: bool,
        nodes: &[usize],
        dropout: Option<(&mut StdRng, f32)>,
    ) -> Var {
        let (emb, attr, lists, cold, head) = if user_side {
            (&m.mf.user_emb, &m.user_attr, &m.user_attrs, &m.user_cold, &m.user_head)
        } else {
            (&m.mf.item_emb, &m.item_attr, &m.item_attrs, &m.item_cold, &m.item_head)
        };
        let pref = emb.lookup(g, store, Rc::new(nodes.to_vec()));
        let keep: Vec<f32> = match dropout {
            Some((rng, rate)) => nodes
                .iter()
                .map(|&n| if cold[n] || rng.gen::<f32>() < rate { 0.0 } else { 1.0 })
                .collect(),
            None => nodes.iter().map(|&n| if cold[n] { 0.0 } else { 1.0 }).collect(),
        };
        let keep_col = g.constant(Matrix::col_vector(keep));
        let pref = g.mul_col_broadcast(pref, keep_col);
        let attrs = attr.forward(g, store, lists, nodes);
        let cat = g.concat(&[pref, attrs]);
        head.forward(g, store, cat)
    }

    fn score(
        g: &mut Graph,
        store: &ParamStore,
        m: &Modules,
        users: &[usize],
        items: &[usize],
        mut dropout: Option<(&mut StdRng, f32)>,
    ) -> Var {
        let hu = Self::side_forward(g, store, m, true, users, dropout.as_mut().map(|(r, p)| (&mut **r, *p)));
        let hv = Self::side_forward(g, store, m, false, items, dropout.as_mut().map(|(r, p)| (&mut **r, *p)));
        let dot = crate::common::rowwise_dot(g, hu, hv);
        let mu = g.constant(Matrix::full(users.len(), 1, m.train_mean));
        g.add(dot, mu)
    }
}

impl RatingModel for DropoutNet {
    fn name(&self) -> String {
        "DropoutNet".into()
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) -> TrainReport {
        self.fit_with(dataset, split, &mut HookList::new())
    }

    fn fit_with(&mut self, dataset: &Dataset, split: &Split, hooks: &mut HookList<'_>) -> TrainReport {
        let cfg = self.cfg;
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let deg = Degrees::from_split(dataset, split);
        let d = cfg.embed_dim;
        let mut store = ParamStore::new();
        let mf = BiasedMf::new(&mut store, dataset.num_users, dataset.num_items, split.train_mean(), &cfg, &mut rng);
        // Stage 1: pre-train MF. Only the pre-flight audit event reaches the
        // caller's hooks (the audit must union gradient flow across stages);
        // loss/stopping hooks observe stage 2 alone.
        mf.fit_with(&mut store, split, &cfg, cfg.epochs.max(4), &mut HookList::new().with(hooks.preflight_forwarder()));
        // Freeze the MF factors; stage 2 trains the heads only (DropoutNet
        // treats the preference inputs as fixed).
        store.set_frozen(mf.user_emb.table, true);
        store.set_frozen(mf.item_emb.table, true);

        let m = Modules {
            mf,
            user_attr: AttrEmbed::new(&mut store, "do.uattr", dataset.user_schema.total_dim(), d, &mut rng),
            item_attr: AttrEmbed::new(&mut store, "do.iattr", dataset.item_schema.total_dim(), d, &mut rng),
            user_head: Mlp::new(&mut store, "do.uhead", &[2 * d, d], Activation::Tanh, &mut rng),
            item_head: Mlp::new(&mut store, "do.ihead", &[2 * d, d], Activation::Tanh, &mut rng),
            user_attrs: AttrLists::from_sparse(&dataset.user_attrs),
            item_attrs: AttrLists::from_sparse(&dataset.item_attrs),
            user_cold: deg.user_cold(),
            item_cold: deg.item_cold(),
            train_mean: split.train_mean(),
        };

        let mut trainer = Trainer::new(cfg.train_config().with_lr(cfg.lr * 2.0));
        let mut report = trainer.fit(&mut store, &split.train, &mut rng, hooks, |g, store, ctx| {
            let (users, items, values) = unzip_batch(ctx.batch);
            let scores = Self::score(g, store, &m, &users, &items, Some((&mut *ctx.rng, 0.5)));
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
        for chunk in pairs.chunks(512) {
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
    use agnn_core::model::evaluate;
    use agnn_data::{ColdStartKind, Preset, SplitConfig};

    #[test]
    fn stage2_learns_with_dropout() {
        let data = Preset::Ml100k.generate(0.08, 43);
        let cfg = BaselineConfig { embed_dim: 16, epochs: 5, lr: 2e-3, ..BaselineConfig::default() };
        for kind in [ColdStartKind::WarmStart, ColdStartKind::StrictUser] {
            let split = Split::create(&data, SplitConfig::paper_default(kind, 43));
            let mut model = DropoutNet::new(cfg);
            model.fit(&data, &split);
            let r = evaluate(&model, &data, &split.test).finish();
            assert!(r.rmse < 2.0, "{kind:?} rmse {}", r.rmse);
        }
    }

    #[test]
    fn frozen_mf_factors_do_not_move_in_stage2() {
        let data = Preset::Ml100k.generate(0.06, 44);
        let cfg = BaselineConfig { embed_dim: 8, epochs: 2, lr: 2e-3, ..BaselineConfig::default() };
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::WarmStart, 44));
        let mut model = DropoutNet::new(cfg);
        model.fit(&data, &split);
        let f = model.fitted.as_ref().unwrap();
        assert!(f.store.is_frozen(f.m.mf.user_emb.table));
    }
}
