//! DiffNet — neural influence diffusion over the user–user graph
//! (Wu et al., SIGIR'19).
//!
//! Users get a free latent embedding fused with their attribute embedding;
//! a layer-wise diffusion adds the (mean-pooled) neighborhood embedding on
//! the user–user graph (social links on Yelp, attribute-kNN on MovieLens,
//! per §4.1.4). Items have free + attribute embeddings but *no* graph —
//! which is why DiffNet holds up better under strict **user** cold start
//! (the graph supplies a cold user's embedding) than under item cold start.

use crate::common::{batch_neighbors, knn_pools, rowwise_dot, warm_col, AttrEmbed, BaselineConfig, BiasTerms, Degrees};
use agnn_autograd::nn::Embedding;
use agnn_autograd::{loss, Graph, Ops, ParamStore, Var};
use agnn_core::interaction::AttrLists;
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
    user_attr: AttrEmbed,
    item_attr: AttrEmbed,
    biases: BiasTerms,
    pools: CandidatePools,
    user_attrs: AttrLists,
    item_attrs: AttrLists,
    user_cold: Vec<bool>,
    item_cold: Vec<bool>,
}

struct Fitted {
    store: ParamStore,
    m: Modules,
}

/// The DiffNet baseline.
pub struct DiffNet {
    cfg: BaselineConfig,
    fitted: Option<Fitted>,
}

impl DiffNet {
    /// Creates an unfitted model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, fitted: None }
    }

    /// Layer-0 user embedding: (cold-masked) free embedding + attributes.
    fn user_layer0(g: &mut Graph, store: &ParamStore, m: &Modules, nodes: &[usize]) -> Var {
        let free = m.user_emb.lookup(g, store, Rc::new(nodes.to_vec()));
        let mask = warm_col(g, &m.user_cold, nodes);
        let masked = g.mul_col_broadcast(free, mask);
        let attr = m.user_attr.forward(g, store, &m.user_attrs, nodes);
        g.add(masked, attr)
    }

    /// One diffusion layer: `h ← h + mean(neighbors' layer-0 embeddings)`.
    fn user_final(
        g: &mut Graph,
        store: &ParamStore,
        m: &Modules,
        cfg: &BaselineConfig,
        nodes: &[usize],
        rng: Option<&mut StdRng>,
    ) -> Var {
        let h0 = Self::user_layer0(g, store, m, nodes);
        let neighbor_ids = batch_neighbors(&m.pools, nodes, cfg.fanout, rng);
        let hn = Self::user_layer0(g, store, m, &neighbor_ids);
        let agg = g.segment_mean_rows(hn, cfg.fanout);
        g.add(h0, agg)
    }

    fn item_final(g: &mut Graph, store: &ParamStore, m: &Modules, nodes: &[usize]) -> Var {
        let free = m.item_emb.lookup(g, store, Rc::new(nodes.to_vec()));
        let mask = warm_col(g, &m.item_cold, nodes);
        let masked = g.mul_col_broadcast(free, mask);
        let attr = m.item_attr.forward(g, store, &m.item_attrs, nodes);
        g.add(masked, attr)
    }
}

impl RatingModel for DiffNet {
    fn name(&self) -> String {
        "DiffNet".into()
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
            user_emb: Embedding::new(&mut store, "dn.user", dataset.num_users, cfg.embed_dim, &mut rng),
            item_emb: Embedding::new(&mut store, "dn.item", dataset.num_items, cfg.embed_dim, &mut rng),
            user_attr: AttrEmbed::new(&mut store, "dn.uattr", dataset.user_schema.total_dim(), cfg.embed_dim, &mut rng),
            item_attr: AttrEmbed::new(&mut store, "dn.iattr", dataset.item_schema.total_dim(), cfg.embed_dim, &mut rng),
            biases: BiasTerms::new(&mut store, dataset.num_users, dataset.num_items, split.train_mean(), &mut rng),
            pools: knn_pools(&dataset.user_attrs, cfg.fanout),
            user_attrs: AttrLists::from_sparse(&dataset.user_attrs),
            item_attrs: AttrLists::from_sparse(&dataset.item_attrs),
            user_cold: deg.user_cold(),
            item_cold: deg.item_cold(),
        };

        let mut trainer = Trainer::new(cfg.train_config());
        let mut report = trainer.fit(&mut store, &split.train, &mut rng, hooks, |g, store, ctx| {
            let (users, items, values) = unzip_batch(ctx.batch);
            let hu = Self::user_final(g, store, &m, &cfg, &users, Some(&mut *ctx.rng));
            let hi = Self::item_final(g, store, &m, &items);
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
            let hu = Self::user_final(&mut g, &f.store, &f.m, cfg, &users, None);
            let hi = Self::item_final(&mut g, &f.store, &f.m, &items);
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
    use agnn_core::model::{evaluate, fit_and_evaluate};
    use agnn_data::{ColdStartKind, Preset, SplitConfig};

    fn cfg() -> BaselineConfig {
        BaselineConfig { embed_dim: 16, epochs: 6, lr: 3e-3, fanout: 5, ..BaselineConfig::default() }
    }

    #[test]
    fn warm_start_learns() {
        let data = Preset::Ml100k.generate(0.1, 31);
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::WarmStart, 31));
        let mut model = DiffNet::new(cfg());
        let (report, acc) = fit_and_evaluate(&mut model, &data, &split);
        assert!(report.epochs.last().unwrap().prediction < report.epochs[0].prediction);
        assert!(acc.finish().rmse < 1.3);
    }

    #[test]
    fn user_cold_start_uses_graph() {
        let data = Preset::Ml100k.generate(0.08, 32);
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictUser, 32));
        let mut model = DiffNet::new(cfg());
        model.fit(&data, &split);
        let r = evaluate(&model, &data, &split.test).finish();
        assert!(r.rmse < 1.8, "UCS rmse {}", r.rmse);
    }
}
