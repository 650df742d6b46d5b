//! HERS — modeling influential contexts with heterogeneous relations
//! (Hu et al., AAAI'19).
//!
//! HERS models users and items through their *relational contexts*: a
//! user–user graph (social links, or common attributes when unavailable)
//! and an item–item graph (common tags → common attributes here, K = 10,
//! §4.1.4). A node's representation mixes its own free embedding with the
//! aggregated embeddings of its influential neighbors; a **strict cold
//! start node is represented purely by neighbor aggregation** — the paper's
//! critique is precisely that the node's own attributes never enter the
//! representation, so HERS "might recommend the popular item to the new
//! user".

use crate::common::{batch_neighbors, knn_pools, rowwise_dot, warm_col, BaselineConfig, BiasTerms, Degrees};
use agnn_autograd::nn::{Embedding, Linear};
use agnn_autograd::{loss, Graph, Ops, ParamStore, Var};
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
    user_rel: Linear,
    item_rel: Linear,
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

/// The HERS baseline.
pub struct Hers {
    cfg: BaselineConfig,
    fitted: Option<Fitted>,
}

impl Hers {
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
        rng: Option<&mut StdRng>,
    ) -> Var {
        let (emb, pools, cold, rel) = if user_side {
            (&m.user_emb, &m.user_pools, &m.user_cold, &m.user_rel)
        } else {
            (&m.item_emb, &m.item_pools, &m.item_cold, &m.item_rel)
        };
        let own = emb.lookup(g, store, Rc::new(nodes.to_vec()));
        let own_mask = warm_col(g, cold, nodes);
        let own = g.mul_col_broadcast(own, own_mask);
        let neighbor_ids = batch_neighbors(pools, nodes, cfg.fanout, rng);
        let nb = emb.lookup(g, store, Rc::new(neighbor_ids.clone()));
        let nb_mask = warm_col(g, cold, &neighbor_ids);
        let nb = g.mul_col_broadcast(nb, nb_mask);
        let ctx = g.segment_mean_rows(nb, cfg.fanout);
        let ctx = rel.forward(g, store, ctx);
        let mixed = g.add(own, ctx);
        g.tanh(mixed)
    }
}

impl RatingModel for Hers {
    fn name(&self) -> String {
        "HERS".into()
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
            user_emb: Embedding::new(&mut store, "he.user", dataset.num_users, cfg.embed_dim, &mut rng),
            item_emb: Embedding::new(&mut store, "he.item", dataset.num_items, cfg.embed_dim, &mut rng),
            user_rel: Linear::new(&mut store, "he.urel", cfg.embed_dim, cfg.embed_dim, &mut rng),
            item_rel: Linear::new(&mut store, "he.irel", cfg.embed_dim, cfg.embed_dim, &mut rng),
            biases: BiasTerms::new(&mut store, dataset.num_users, dataset.num_items, split.train_mean(), &mut rng),
            user_pools: knn_pools(&dataset.user_attrs, cfg.fanout),
            item_pools: knn_pools(&dataset.item_attrs, cfg.fanout),
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

    #[test]
    fn relational_aggregation_works_all_scenarios() {
        let data = Preset::Ml100k.generate(0.08, 47);
        let cfg = BaselineConfig { embed_dim: 16, epochs: 5, lr: 3e-3, fanout: 5, ..BaselineConfig::default() };
        for kind in [ColdStartKind::WarmStart, ColdStartKind::StrictItem, ColdStartKind::StrictUser] {
            let split = Split::create(&data, SplitConfig::paper_default(kind, 47));
            let mut model = Hers::new(cfg);
            model.fit(&data, &split);
            let r = evaluate(&model, &data, &split.test).finish();
            assert!(r.rmse < 2.0, "{kind:?} rmse {}", r.rmse);
        }
    }
}
