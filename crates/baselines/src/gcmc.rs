//! GC-MC — graph convolutional matrix completion (van den Berg et al., 2018).
//!
//! One graph-convolution layer over the **user–item interaction graph**:
//! a user's hidden state is a projected mean of the free embeddings of the
//! items they rated (and symmetrically for items). Side information enters
//! only through a dense layer *added after* the convolution — the paper's
//! §4.2 notes this late fusion limits it. A strict cold node has no rated
//! neighbors, so its convolution term is exactly zero and prediction falls
//! back to the dense attribute path + biases.

use crate::common::{rowwise_dot, AttrEmbed, BaselineConfig, BiasTerms};
use agnn_autograd::nn::{Embedding, Linear};
use agnn_autograd::{loss, Graph, Ops, ParamStore, Var};
use agnn_core::interaction::AttrLists;
use agnn_core::model::{RatingModel, TrainReport};
use agnn_data::batch::unzip_batch;
use agnn_data::{Dataset, Split};
use agnn_graph::BipartiteGraph;
use agnn_tensor::Matrix;
use agnn_train::{HookList, StepLosses, Trainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;
use std::time::Instant;

struct Modules {
    user_emb: Embedding,
    item_emb: Embedding,
    user_conv: Linear,
    item_conv: Linear,
    user_dense: AttrEmbed,
    item_dense: AttrEmbed,
    biases: BiasTerms,
    bip: BipartiteGraph,
    user_attrs: AttrLists,
    item_attrs: AttrLists,
}

struct Fitted {
    store: ParamStore,
    m: Modules,
}

/// The GC-MC baseline.
pub struct GcMc {
    cfg: BaselineConfig,
    fitted: Option<Fitted>,
}

/// Samples `fanout` rated counterparts per node from the interaction graph;
/// nodes with no ratings get placeholder id 0 and a zero mask entry. Shared
/// with STAR-GCN, which convolves the same graph.
pub(crate) fn rated_neighbor_ids(
    bip: &BipartiteGraph,
    user_side: bool,
    nodes: &[usize],
    fanout: usize,
    rng: Option<&mut StdRng>,
) -> (Vec<usize>, Vec<f32>) {
    let mut ids = Vec::with_capacity(nodes.len() * fanout);
    let mut mask = Vec::with_capacity(nodes.len());
    let mut rng = rng;
    for &n in nodes {
        let rated: Vec<u32> = if user_side {
            bip.items_of(n as u32).map(|(i, _)| i).collect()
        } else {
            bip.users_of(n as u32).map(|(u, _)| u).collect()
        };
        if rated.is_empty() {
            ids.extend(std::iter::repeat(0usize).take(fanout));
            mask.push(0.0);
        } else {
            for k in 0..fanout {
                let pick = match rng.as_deref_mut() {
                    Some(r) => rated[r.gen_range(0..rated.len())],
                    None => rated[k % rated.len()],
                };
                ids.push(pick as usize);
            }
            mask.push(1.0);
        }
    }
    (ids, mask)
}

impl GcMc {
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
        let (ids, mask) = rated_neighbor_ids(&m.bip, user_side, nodes, cfg.fanout, rng);
        let counter_emb = if user_side { &m.item_emb } else { &m.user_emb };
        let nb = counter_emb.lookup(g, store, Rc::new(ids));
        let pooled = g.segment_mean_rows(nb, cfg.fanout);
        let mask_col = g.constant(Matrix::col_vector(mask));
        let pooled = g.mul_col_broadcast(pooled, mask_col);
        let conv_w = if user_side { &m.user_conv } else { &m.item_conv };
        let conv = conv_w.forward(g, store, pooled);
        let conv = g.leaky_relu(conv, 0.01);
        // Dense side-information path, added after convolution.
        let (dense, lists) = if user_side { (&m.user_dense, &m.user_attrs) } else { (&m.item_dense, &m.item_attrs) };
        let attr = dense.forward(g, store, lists, nodes);
        g.add(conv, attr)
    }
}

impl RatingModel for GcMc {
    fn name(&self) -> String {
        "GC-MC".into()
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) -> TrainReport {
        self.fit_with(dataset, split, &mut HookList::new())
    }

    fn fit_with(&mut self, dataset: &Dataset, split: &Split, hooks: &mut HookList<'_>) -> TrainReport {
        let cfg = self.cfg;
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let m = Modules {
            user_emb: Embedding::new(&mut store, "gc.user", dataset.num_users, cfg.embed_dim, &mut rng),
            item_emb: Embedding::new(&mut store, "gc.item", dataset.num_items, cfg.embed_dim, &mut rng),
            user_conv: Linear::new(&mut store, "gc.uconv", cfg.embed_dim, cfg.embed_dim, &mut rng),
            item_conv: Linear::new(&mut store, "gc.iconv", cfg.embed_dim, cfg.embed_dim, &mut rng),
            user_dense: AttrEmbed::new(&mut store, "gc.udense", dataset.user_schema.total_dim(), cfg.embed_dim, &mut rng),
            item_dense: AttrEmbed::new(&mut store, "gc.idense", dataset.item_schema.total_dim(), cfg.embed_dim, &mut rng),
            biases: BiasTerms::new(&mut store, dataset.num_users, dataset.num_items, split.train_mean(), &mut rng),
            bip: BipartiteGraph::from_ratings(dataset.num_users, dataset.num_items, &Dataset::rating_triples(&split.train)),
            user_attrs: AttrLists::from_sparse(&dataset.user_attrs),
            item_attrs: AttrLists::from_sparse(&dataset.item_attrs),
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
    fn warm_learns_cold_survives() {
        let data = Preset::Ml100k.generate(0.08, 36);
        let cfg = BaselineConfig { embed_dim: 16, epochs: 5, lr: 3e-3, fanout: 5, ..BaselineConfig::default() };
        for kind in [ColdStartKind::WarmStart, ColdStartKind::StrictItem] {
            let split = Split::create(&data, SplitConfig::paper_default(kind, 36));
            let mut model = GcMc::new(cfg);
            model.fit(&data, &split);
            let r = evaluate(&model, &data, &split.test).finish();
            assert!(r.rmse < 2.0, "{kind:?} rmse {}", r.rmse);
        }
    }

    #[test]
    fn cold_node_conv_is_masked() {
        let data = Preset::Ml100k.generate(0.06, 37);
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictItem, 37));
        let bip = BipartiteGraph::from_ratings(data.num_users, data.num_items, &Dataset::rating_triples(&split.train));
        let cold = *split.cold_items.iter().next().expect("has cold items") as usize;
        let (_, mask) = rated_neighbor_ids(&bip, false, &[cold], 4, None);
        assert_eq!(mask, vec![0.0]);
    }
}
