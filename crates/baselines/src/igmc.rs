//! IGMC — inductive graph-based matrix completion (Zhang & Chen, ICLR'20).
//!
//! IGMC predicts from the *enclosing subgraph* of a (user, item) pair — the
//! items the user rated, the users who rated the item, and the rating labels
//! on those edges — with no global node ids, so it is inductive. We keep
//! that structure: each side is summarized by an MLP over
//! `[own attributes ; mean over rated edges of (counterpart attributes +
//! rating-level embedding)]`. For a strict cold start node the edge set of
//! its enclosing subgraph is empty (paper §4.2: "it still requires some
//! interactions to construct subgraph"), so only the attribute half
//! survives.

use crate::common::{AttrEmbed, BaselineConfig};
use crate::gcmc::rated_neighbor_ids;
use agnn_autograd::nn::{Activation, Mlp};
use agnn_autograd::{loss, Graph, Ops, ParamId, ParamStore, Var};
use agnn_core::interaction::AttrLists;
use agnn_core::model::{RatingModel, TrainReport};
use agnn_data::batch::unzip_batch;
use agnn_data::{Dataset, Split};
use agnn_graph::BipartiteGraph;
use agnn_tensor::Matrix;
use agnn_train::{HookList, StepLosses, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::time::Instant;

struct Modules {
    user_attr: AttrEmbed,
    item_attr: AttrEmbed,
    rating_emb: ParamId,
    user_head: Mlp,
    item_head: Mlp,
    pair_head: Mlp,
    global: ParamId,
    bip: BipartiteGraph,
    user_attrs: AttrLists,
    item_attrs: AttrLists,
    rating_lo: f32,
    rating_levels: usize,
}

struct Fitted {
    store: ParamStore,
    m: Modules,
}

/// The IGMC baseline.
pub struct Igmc {
    cfg: BaselineConfig,
    fitted: Option<Fitted>,
}

impl Igmc {
    /// Creates an unfitted model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, fitted: None }
    }

    fn rating_level(m: &Modules, v: f32) -> usize {
        ((v - m.rating_lo).round() as isize).clamp(0, m.rating_levels as isize - 1) as usize
    }

    /// Side summary from the enclosing-subgraph edges.
    fn side_forward(
        g: &mut Graph,
        store: &ParamStore,
        m: &Modules,
        cfg: &BaselineConfig,
        user_side: bool,
        nodes: &[usize],
        rng: Option<&mut StdRng>,
    ) -> Var {
        let (own_attr, own_lists, cross_attr, cross_lists) = if user_side {
            (&m.user_attr, &m.user_attrs, &m.item_attr, &m.item_attrs)
        } else {
            (&m.item_attr, &m.item_attrs, &m.user_attr, &m.user_attrs)
        };
        let own = own_attr.forward(g, store, own_lists, nodes);
        let (ids, mask) = rated_neighbor_ids(&m.bip, user_side, nodes, cfg.fanout, rng);
        let counter = cross_attr.forward(g, store, cross_lists, &ids);
        // Rating-level embeddings of the sampled edges.
        let levels: Vec<usize> = nodes
            .iter()
            .flat_map(|&n| {
                let edges: Vec<f32> = if user_side {
                    m.bip.items_of(n as u32).map(|(_, r)| r).collect()
                } else {
                    m.bip.users_of(n as u32).map(|(_, r)| r).collect()
                };
                // Align sampled edge ratings approximately: reuse the mean
                // rating level for all of a node's sampled edges — IGMC's
                // labeled-edge signal at pooled granularity.
                let level = if edges.is_empty() {
                    0
                } else {
                    Self::rating_level(m, edges.iter().sum::<f32>() / edges.len() as f32)
                };
                std::iter::repeat(level).take(cfg.fanout)
            })
            .collect();
        let rate = g.param_rows(store, m.rating_emb, Rc::new(levels));
        let edge_feat = g.add(counter, rate);
        let pooled = g.segment_mean_rows(edge_feat, cfg.fanout);
        let mask_col = g.constant(Matrix::col_vector(mask));
        let pooled = g.mul_col_broadcast(pooled, mask_col);
        let cat = g.concat(&[own, pooled]);
        let head = if user_side { &m.user_head } else { &m.item_head };
        head.forward(g, store, cat)
    }

    #[allow(clippy::too_many_arguments)]
    fn score(
        g: &mut Graph,
        store: &ParamStore,
        m: &Modules,
        cfg: &BaselineConfig,
        users: &[usize],
        items: &[usize],
        rng: Option<&mut StdRng>,
    ) -> Var {
        let mut rng = rng;
        let hu = Self::side_forward(g, store, m, cfg, true, users, rng.as_deref_mut());
        let hi = Self::side_forward(g, store, m, cfg, false, items, rng);
        let cat = g.concat(&[hu, hi]);
        let raw = m.pair_head.forward(g, store, cat);
        let mu = g.param_full(store, m.global);
        let mu_rows = g.repeat_rows(mu, users.len());
        g.add(raw, mu_rows)
    }
}

impl RatingModel for Igmc {
    fn name(&self) -> String {
        "IGMC".into()
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) -> TrainReport {
        self.fit_with(dataset, split, &mut HookList::new())
    }

    fn fit_with(&mut self, dataset: &Dataset, split: &Split, hooks: &mut HookList<'_>) -> TrainReport {
        let cfg = self.cfg;
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let d = cfg.embed_dim;
        let levels = ((dataset.rating_scale.1 - dataset.rating_scale.0).round() as usize) + 1;
        let mut store = ParamStore::new();
        let m = Modules {
            user_attr: AttrEmbed::new(&mut store, "ig.uattr", dataset.user_schema.total_dim(), d, &mut rng),
            item_attr: AttrEmbed::new(&mut store, "ig.iattr", dataset.item_schema.total_dim(), d, &mut rng),
            rating_emb: store.add("ig.rating", agnn_tensor::init::normal(levels, d, 0.1, &mut rng)),
            user_head: Mlp::new(&mut store, "ig.uhead", &[2 * d, d], Activation::LeakyRelu(0.01), &mut rng),
            item_head: Mlp::new(&mut store, "ig.ihead", &[2 * d, d], Activation::LeakyRelu(0.01), &mut rng),
            pair_head: Mlp::new(&mut store, "ig.pair", &[2 * d, d, 1], Activation::LeakyRelu(0.01), &mut rng),
            global: store.add("ig.global", Matrix::full(1, 1, split.train_mean())),
            bip: BipartiteGraph::from_ratings(dataset.num_users, dataset.num_items, &Dataset::rating_triples(&split.train)),
            user_attrs: AttrLists::from_sparse(&dataset.user_attrs),
            item_attrs: AttrLists::from_sparse(&dataset.item_attrs),
            rating_lo: dataset.rating_scale.0,
            rating_levels: levels,
        };

        let mut trainer = Trainer::new(cfg.train_config());
        let mut report = trainer.fit(&mut store, &split.train, &mut rng, hooks, |g, store, ctx| {
            let (users, items, values) = unzip_batch(ctx.batch);
            let scores = Self::score(g, store, &m, &cfg, &users, &items, Some(&mut *ctx.rng));
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
        let cfg = &self.cfg;
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(512) {
            let users: Vec<usize> = chunk.iter().map(|&(u, _)| u as usize).collect();
            let items: Vec<usize> = chunk.iter().map(|&(_, i)| i as usize).collect();
            let mut g = Graph::new();
            let s = Self::score(&mut g, &f.store, &f.m, cfg, &users, &items, None);
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
    fn inductive_scoring_all_scenarios() {
        let data = Preset::Ml100k.generate(0.08, 40);
        let cfg = BaselineConfig { embed_dim: 16, epochs: 5, lr: 3e-3, fanout: 5, ..BaselineConfig::default() };
        for kind in [ColdStartKind::WarmStart, ColdStartKind::StrictItem, ColdStartKind::StrictUser] {
            let split = Split::create(&data, SplitConfig::paper_default(kind, 40));
            let mut model = Igmc::new(cfg);
            model.fit(&data, &split);
            let r = evaluate(&model, &data, &split.test).finish();
            assert!(r.rmse < 2.0, "{kind:?} rmse {}", r.rmse);
        }
    }
}
