//! DANSER — dual graph attention networks for social recommendation
//! (Wu et al., WWW'19).
//!
//! GAT layers run over a user–user graph (social / attribute-kNN) and an
//! item–item graph built from **co-click similarity** — the number of users
//! who rated both items. The co-click construction is the weak point the
//! paper exploits: a strict cold start item was rated by nobody, its
//! co-click neighborhood is empty, and the GAT degenerates to a self-loop
//! over an untrained embedding (poor ICS).

use crate::common::{batch_neighbors, knn_pools, pools_from_csr, rowwise_dot, warm_col, AttrEmbed, BaselineConfig, BiasTerms, Degrees};
use agnn_autograd::nn::Embedding;
use agnn_autograd::{loss, Graph, Ops, ParamStore, Var};
use agnn_core::config::GnnKind;
use agnn_core::gnn::GnnLayer;
use agnn_core::interaction::AttrLists;
use agnn_core::model::{RatingModel, TrainReport};
use agnn_data::batch::unzip_batch;
use agnn_data::{Dataset, Split};
use agnn_graph::{construction, BipartiteGraph, CandidatePools};
use agnn_tensor::Matrix;
use agnn_train::{HookList, StepLosses, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::time::Instant;

struct Modules {
    user_emb: Embedding,
    item_emb: Embedding,
    user_attr: AttrEmbed,
    item_attr: AttrEmbed,
    user_gat: GnnLayer,
    item_gat: GnnLayer,
    biases: BiasTerms,
    user_pools: CandidatePools,
    item_pools: CandidatePools,
    user_attrs: AttrLists,
    item_attrs: AttrLists,
    user_cold: Vec<bool>,
    item_cold: Vec<bool>,
}

struct Fitted {
    store: ParamStore,
    m: Modules,
}

/// The DANSER baseline.
pub struct Danser {
    cfg: BaselineConfig,
    fitted: Option<Fitted>,
}

impl Danser {
    /// Creates an unfitted model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, fitted: None }
    }

    fn node_embed(
        g: &mut Graph,
        store: &ParamStore,
        m: &Modules,
        user_side: bool,
        nodes: &[usize],
    ) -> Var {
        let (emb, attr, lists, cold) = if user_side {
            (&m.user_emb, &m.user_attr, &m.user_attrs, &m.user_cold)
        } else {
            (&m.item_emb, &m.item_attr, &m.item_attrs, &m.item_cold)
        };
        let free = emb.lookup(g, store, Rc::new(nodes.to_vec()));
        let mask = warm_col(g, cold, nodes);
        let masked = g.mul_col_broadcast(free, mask);
        let attrs = attr.forward(g, store, lists, nodes);
        g.add(masked, attrs)
    }

    fn side_forward(
        g: &mut Graph,
        store: &ParamStore,
        m: &Modules,
        cfg: &BaselineConfig,
        user_side: bool,
        nodes: &[usize],
        rng: Option<&mut StdRng>,
    ) -> Var {
        let target = Self::node_embed(g, store, m, user_side, nodes);
        let pools = if user_side { &m.user_pools } else { &m.item_pools };
        let neighbor_ids = batch_neighbors(pools, nodes, cfg.fanout, rng);
        let neighbors = Self::node_embed(g, store, m, user_side, &neighbor_ids);
        let gat = if user_side { &m.user_gat } else { &m.item_gat };
        gat.forward(g, store, target, neighbors, cfg.fanout)
    }
}

impl RatingModel for Danser {
    fn name(&self) -> String {
        "DANSER".into()
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) -> TrainReport {
        self.fit_with(dataset, split, &mut HookList::new())
    }

    fn fit_with(&mut self, dataset: &Dataset, split: &Split, hooks: &mut HookList<'_>) -> TrainReport {
        let cfg = self.cfg;
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let deg = Degrees::from_split(dataset, split);
        let bip = BipartiteGraph::from_ratings(dataset.num_users, dataset.num_items, &Dataset::rating_triples(&split.train));
        let mut store = ParamStore::new();
        let m = Modules {
            user_emb: Embedding::new(&mut store, "da.user", dataset.num_users, cfg.embed_dim, &mut rng),
            item_emb: Embedding::new(&mut store, "da.item", dataset.num_items, cfg.embed_dim, &mut rng),
            user_attr: AttrEmbed::new(&mut store, "da.uattr", dataset.user_schema.total_dim(), cfg.embed_dim, &mut rng),
            item_attr: AttrEmbed::new(&mut store, "da.iattr", dataset.item_schema.total_dim(), cfg.embed_dim, &mut rng),
            user_gat: GnnLayer::new(&mut store, "da.ugat", cfg.embed_dim, GnnKind::Gat, 0.01, &mut rng),
            item_gat: GnnLayer::new(&mut store, "da.igat", cfg.embed_dim, GnnKind::Gat, 0.01, &mut rng),
            biases: BiasTerms::new(&mut store, dataset.num_users, dataset.num_items, split.train_mean(), &mut rng),
            user_pools: knn_pools(&dataset.user_attrs, cfg.fanout),
            item_pools: pools_from_csr(&construction::item_coengagement_graph(&bip, 1, 50)),
            user_attrs: AttrLists::from_sparse(&dataset.user_attrs),
            item_attrs: AttrLists::from_sparse(&dataset.item_attrs),
            user_cold: deg.user_cold(),
            item_cold: deg.item_cold(),
        };

        let mut trainer = Trainer::new(cfg.train_config());
        let mut report = trainer.fit(&mut store, &split.train, &mut rng, hooks, |g, store, ctx| {
            let (users, items, values) = unzip_batch(ctx.batch);
            let hu = Self::side_forward(g, store, &m, &cfg, true, &users, Some(&mut *ctx.rng));
            let hi = Self::side_forward(g, store, &m, &cfg, false, &items, Some(&mut *ctx.rng));
            let dot = rowwise_dot(g, hu, hi);
            let scores = m.biases.apply(g, store, dot, &users, &items);
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
            let hu = Self::side_forward(&mut g, &f.store, &f.m, cfg, true, &users, None);
            let hi = Self::side_forward(&mut g, &f.store, &f.m, cfg, false, &items, None);
            let dot = rowwise_dot(&mut g, hu, hi);
            let s = f.m.biases.apply(&mut g, &f.store, dot, &users, &items);
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

    fn cfg() -> BaselineConfig {
        BaselineConfig { embed_dim: 16, epochs: 5, lr: 3e-3, fanout: 5, ..BaselineConfig::default() }
    }

    #[test]
    fn trains_and_predicts_all_scenarios() {
        let data = Preset::Ml100k.generate(0.08, 33);
        for kind in [ColdStartKind::WarmStart, ColdStartKind::StrictItem, ColdStartKind::StrictUser] {
            let split = Split::create(&data, SplitConfig::paper_default(kind, 33));
            let mut model = Danser::new(cfg());
            model.fit(&data, &split);
            let r = evaluate(&model, &data, &split.test).finish();
            assert!(r.rmse < 2.0, "{kind:?} rmse {}", r.rmse);
        }
    }

    #[test]
    fn cold_item_pools_are_empty_in_coclick_graph() {
        let data = Preset::Ml100k.generate(0.08, 34);
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictItem, 34));
        let bip = BipartiteGraph::from_ratings(data.num_users, data.num_items, &Dataset::rating_triples(&split.train));
        let pools = pools_from_csr(&construction::item_coengagement_graph(&bip, 1, 50));
        for &i in split.cold_items.iter().take(10) {
            assert!(pools.pool(i).is_empty(), "cold item {i} has co-click neighbors");
        }
    }
}
