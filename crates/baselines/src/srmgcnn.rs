//! sRMGCNN — separable recurrent multi-graph CNN for matrix completion
//! (Monti et al., NeurIPS'17), simplified to its separable core.
//!
//! Free user/item factor matrices are smoothed by graph convolutions over
//! user–user and item–item kNN graphs *built in attribute space*. Crucially
//! — and this is the weakness §4.2 calls out — the attributes only shape the
//! graph; they are **not** part of the convolved signal, so a strict cold
//! node contributes an untrained factor row and relies entirely on graph
//! smoothing. (The original Chebyshev implementation also cannot scale to
//! Yelp; the harness reproduces that as a dash in Table 2.)

use crate::common::{batch_neighbors, knn_pools, rowwise_dot, warm_col, BaselineConfig, BiasTerms, Degrees};
use agnn_autograd::nn::Embedding;
use agnn_autograd::{loss, Graph, Ops, ParamStore, Var};
use agnn_core::config::GnnKind;
use agnn_core::gnn::GnnLayer;
use agnn_core::model::{RatingModel, TrainReport};
use agnn_data::batch::unzip_batch;
use agnn_data::{Dataset, Split};
use agnn_graph::CandidatePools;
use agnn_tensor::Matrix;
use agnn_train::{HookList, StepLosses, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::time::Instant;

struct Modules {
    user_emb: Embedding,
    item_emb: Embedding,
    user_gcn: GnnLayer,
    item_gcn: GnnLayer,
    biases: BiasTerms,
    user_pools: CandidatePools,
    item_pools: CandidatePools,
    user_cold: Vec<bool>,
    item_cold: Vec<bool>,
}

struct Fitted {
    store: ParamStore,
    m: Modules,
}

/// The sRMGCNN baseline.
pub struct SRmgcnn {
    cfg: BaselineConfig,
    fitted: Option<Fitted>,
}

impl SRmgcnn {
    /// Creates an unfitted model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, fitted: None }
    }

    fn side_forward(
        g: &mut Graph,
        store: &ParamStore,
        m: &Modules,
        cfg: &BaselineConfig,
        user_side: bool,
        nodes: &[usize],
    ) -> Var {
        let (emb, cold, pools, gcn) = if user_side {
            (&m.user_emb, &m.user_cold, &m.user_pools, &m.user_gcn)
        } else {
            (&m.item_emb, &m.item_cold, &m.item_pools, &m.item_gcn)
        };
        let free = emb.lookup(g, store, Rc::new(nodes.to_vec()));
        let mask = warm_col(g, cold, nodes);
        let target = g.mul_col_broadcast(free, mask);
        let neighbor_ids = batch_neighbors(pools, nodes, cfg.fanout, None);
        let n_free = emb.lookup(g, store, Rc::new(neighbor_ids.clone()));
        let n_mask = warm_col(g, cold, &neighbor_ids);
        let neighbors = g.mul_col_broadcast(n_free, n_mask);
        gcn.forward(g, store, target, neighbors, cfg.fanout)
    }
}

impl RatingModel for SRmgcnn {
    fn name(&self) -> String {
        "sRMGCNN".into()
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
        let m = Modules {
            user_emb: Embedding::new(&mut store, "sr.user", dataset.num_users, cfg.embed_dim, &mut rng),
            item_emb: Embedding::new(&mut store, "sr.item", dataset.num_items, cfg.embed_dim, &mut rng),
            user_gcn: GnnLayer::new(&mut store, "sr.ugcn", cfg.embed_dim, GnnKind::Gcn, 0.01, &mut rng),
            item_gcn: GnnLayer::new(&mut store, "sr.igcn", cfg.embed_dim, GnnKind::Gcn, 0.01, &mut rng),
            biases: BiasTerms::new(&mut store, dataset.num_users, dataset.num_items, split.train_mean(), &mut rng),
            user_pools: knn_pools(&dataset.user_attrs, cfg.fanout),
            item_pools: knn_pools(&dataset.item_attrs, cfg.fanout),
            user_cold: deg.user_cold(),
            item_cold: deg.item_cold(),
        };

        let mut trainer = Trainer::new(cfg.train_config());
        let mut report = trainer.fit(&mut store, &split.train, &mut rng, hooks, |g, store, ctx| {
            let (users, items, values) = unzip_batch(ctx.batch);
            let hu = Self::side_forward(g, store, &m, &cfg, true, &users);
            let hi = Self::side_forward(g, store, &m, &cfg, false, &items);
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
            let hu = Self::side_forward(&mut g, &f.store, &f.m, cfg, true, &users);
            let hi = Self::side_forward(&mut g, &f.store, &f.m, cfg, false, &items);
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

    #[test]
    fn trains_and_cold_start_is_weak_but_finite() {
        let data = Preset::Ml100k.generate(0.08, 35);
        let cfg = BaselineConfig { embed_dim: 16, epochs: 5, lr: 3e-3, fanout: 5, ..BaselineConfig::default() };
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictItem, 35));
        let mut model = SRmgcnn::new(cfg);
        model.fit(&data, &split);
        let r = evaluate(&model, &data, &split.test).finish();
        assert!(r.rmse.is_finite() && r.rmse < 2.5, "ICS rmse {}", r.rmse);
    }
}
