//! STAR-GCN — stacked and reconstructed graph convolutional networks
//! (Zhang et al., IJCAI'19).
//!
//! Nodes carry `concat(free embedding, attribute embedding)` projected to
//! width `D`; a graph convolution block runs over the **interaction graph**
//! and a decoder *reconstructs* the free embeddings of nodes whose inputs
//! were masked by a learned token during training — the "mask technique"
//! that helps normal cold start. Per §4.1.4 we do **not** give strict cold
//! start nodes any test-time interactions (no ask-to-rate), so their
//! convolution input is empty and only the masked-token + attribute path
//! remains, which is why STAR-GCN shines in warm start but not in
//! ICS/UCS.

use crate::common::{rowwise_dot, AttrEmbed, BaselineConfig, BiasTerms, Degrees};
use agnn_autograd::nn::{Embedding, Linear};
use agnn_autograd::{loss, Graph, Ops, ParamId, ParamStore, Var};
use agnn_core::evae::EVae;
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
    user_attr: AttrEmbed,
    item_attr: AttrEmbed,
    user_in: Linear,
    item_in: Linear,
    user_conv: Linear,
    item_conv: Linear,
    user_dec: Linear,
    item_dec: Linear,
    user_token: ParamId,
    item_token: ParamId,
    biases: BiasTerms,
    bip: BipartiteGraph,
    user_attrs: AttrLists,
    item_attrs: AttrLists,
    user_cold: Vec<bool>,
    item_cold: Vec<bool>,
}

struct Fitted {
    store: ParamStore,
    m: Modules,
}

/// The STAR-GCN baseline.
pub struct StarGcn {
    cfg: BaselineConfig,
    fitted: Option<Fitted>,
}

impl StarGcn {
    /// Creates an unfitted model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, fitted: None }
    }

    /// Input embedding with masking: masked/cold rows use the learned token
    /// instead of the free embedding. Returns `(input, free, mask_rows)`.
    #[allow(clippy::too_many_arguments)]
    fn input_embed(
        g: &mut Graph,
        store: &ParamStore,
        m: &Modules,
        user_side: bool,
        nodes: &[usize],
        train: bool,
        rng: Option<&mut StdRng>,
    ) -> (Var, Var, Vec<f32>) {
        let (emb, attr, lists, cold, token_id, input_w) = if user_side {
            (&m.user_emb, &m.user_attr, &m.user_attrs, &m.user_cold, m.user_token, &m.user_in)
        } else {
            (&m.item_emb, &m.item_attr, &m.item_attrs, &m.item_cold, m.item_token, &m.item_in)
        };
        let free = emb.lookup(g, store, Rc::new(nodes.to_vec()));
        let mut rng = rng;
        let mut masked_flags: Vec<f32> = nodes
            .iter()
            .map(|&n| {
                if cold[n] {
                    1.0
                } else if train {
                    rng.as_deref_mut()
                        .map_or(0.0, |r| if r.gen::<f32>() < 0.2 { 1.0 } else { 0.0 })
                } else {
                    0.0
                }
            })
            .collect();
        // Guarantee at least one masked *warm* row per training batch: the
        // reconstruction decoder only learns from warm masked rows, and a
        // small batch can sample none, leaving it without gradient signal.
        if train && !nodes.iter().zip(&masked_flags).any(|(&n, &f)| f == 1.0 && !cold[n]) {
            if let Some(i) = nodes.iter().position(|&n| !cold[n]) {
                masked_flags[i] = 1.0;
            }
        }
        let token = g.param_full(store, token_id);
        let zeros = g.constant(Matrix::zeros(nodes.len(), g.value(free).cols()));
        let token_rows = g.add_row_broadcast(zeros, token);
        let keep: Vec<f32> = masked_flags.iter().map(|&m| 1.0 - m).collect();
        let used = agnn_core::evae::blend_preference(g, free, token_rows, &keep);
        let attrs = attr.forward(g, store, lists, nodes);
        let cat = g.concat(&[used, attrs]);
        let input = input_w.forward(g, store, cat);
        let input = g.leaky_relu(input, 0.01);
        (input, free, masked_flags)
    }

    /// Convolution over sampled rated counterparts (input embeddings).
    #[allow(clippy::too_many_arguments)]
    fn side_forward(
        g: &mut Graph,
        store: &ParamStore,
        m: &Modules,
        cfg: &BaselineConfig,
        user_side: bool,
        nodes: &[usize],
        train: bool,
        mut rng: Option<&mut StdRng>,
    ) -> (Var, Var, Vec<f32>) {
        let (h0, free, masked) = Self::input_embed(g, store, m, user_side, nodes, train, rng.as_deref_mut());
        let (ids, has) = crate::gcmc::rated_neighbor_ids(&m.bip, user_side, nodes, cfg.fanout, rng);
        let (nb0, _, _) = Self::input_embed(g, store, m, !user_side, &ids, false, None);
        let pooled = g.segment_mean_rows(nb0, cfg.fanout);
        let has_col = g.constant(Matrix::col_vector(has));
        let pooled = g.mul_col_broadcast(pooled, has_col);
        let conv_w = if user_side { &m.user_conv } else { &m.item_conv };
        let conv = conv_w.forward(g, store, pooled);
        let conv = g.leaky_relu(conv, 0.01);
        let h = g.add(h0, conv);
        (h, free, masked)
    }
}

impl RatingModel for StarGcn {
    fn name(&self) -> String {
        "STAR-GCN".into()
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
        let m = Modules {
            user_emb: Embedding::new(&mut store, "sg.user", dataset.num_users, d, &mut rng),
            item_emb: Embedding::new(&mut store, "sg.item", dataset.num_items, d, &mut rng),
            user_attr: AttrEmbed::new(&mut store, "sg.uattr", dataset.user_schema.total_dim(), d, &mut rng),
            item_attr: AttrEmbed::new(&mut store, "sg.iattr", dataset.item_schema.total_dim(), d, &mut rng),
            user_in: Linear::new(&mut store, "sg.uin", 2 * d, d, &mut rng),
            item_in: Linear::new(&mut store, "sg.iin", 2 * d, d, &mut rng),
            user_conv: Linear::new(&mut store, "sg.uconv", d, d, &mut rng),
            item_conv: Linear::new(&mut store, "sg.iconv", d, d, &mut rng),
            user_dec: Linear::new(&mut store, "sg.udec", d, d, &mut rng),
            item_dec: Linear::new(&mut store, "sg.idec", d, d, &mut rng),
            user_token: store.add("sg.utoken", agnn_tensor::init::normal(1, d, 0.1, &mut rng)),
            item_token: store.add("sg.itoken", agnn_tensor::init::normal(1, d, 0.1, &mut rng)),
            biases: BiasTerms::new(&mut store, dataset.num_users, dataset.num_items, split.train_mean(), &mut rng),
            bip: BipartiteGraph::from_ratings(dataset.num_users, dataset.num_items, &Dataset::rating_triples(&split.train)),
            user_attrs: AttrLists::from_sparse(&dataset.user_attrs),
            item_attrs: AttrLists::from_sparse(&dataset.item_attrs),
            user_cold: deg.user_cold(),
            item_cold: deg.item_cold(),
        };

        let mut trainer = Trainer::new(cfg.train_config());
        let mut report = trainer.fit(&mut store, &split.train, &mut rng, hooks, |g, store, ctx| {
            let (users, items, values) = unzip_batch(ctx.batch);
            let (hu, ufree, umask) = Self::side_forward(g, store, &m, &cfg, true, &users, true, Some(&mut *ctx.rng));
            let (hi, ifree, imask) = Self::side_forward(g, store, &m, &cfg, false, &items, true, Some(&mut *ctx.rng));
            let dot = rowwise_dot(g, hu, hi);
            let scores = m.biases.apply(g, store, dot, &users, &items);
            let target = g.constant(Matrix::col_vector(values));
            let pred_loss = loss::mse(g, scores, target);

            // Reconstruct masked free embeddings from the encoded state.
            let urec = m.user_dec.forward(g, store, hu);
            let irec = m.item_dec.forward(g, store, hi);
            // Only warm masked rows have meaningful targets.
            let u_targets: Vec<f32> = users.iter().zip(&umask).map(|(&u, &mk)| if mk == 1.0 && !m.user_cold[u] { 1.0 } else { 0.0 }).collect();
            let i_targets: Vec<f32> = items.iter().zip(&imask).map(|(&i, &mk)| if mk == 1.0 && !m.item_cold[i] { 1.0 } else { 0.0 }).collect();
            let l_urec = EVae::approximation_loss(g, urec, ufree, &u_targets);
            let l_irec = EVae::approximation_loss(g, irec, ifree, &i_targets);
            let total = loss::weighted_sum(g, &[(1.0, pred_loss), (0.1, l_urec), (0.1, l_irec)]);

            StepLosses {
                total,
                prediction: g.scalar(pred_loss) as f64,
                reconstruction: (g.scalar(l_urec) + g.scalar(l_irec)) as f64,
            }
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
            let (hu, _, _) = Self::side_forward(&mut g, &f.store, &f.m, cfg, true, &users, false, None);
            let (hi, _, _) = Self::side_forward(&mut g, &f.store, &f.m, cfg, false, &items, false, None);
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
    fn warm_start_is_strong() {
        let data = Preset::Ml100k.generate(0.1, 38);
        let cfg = BaselineConfig { embed_dim: 16, epochs: 6, lr: 3e-3, fanout: 5, ..BaselineConfig::default() };
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::WarmStart, 38));
        let mut model = StarGcn::new(cfg);
        model.fit(&data, &split);
        let r = evaluate(&model, &data, &split.test).finish();
        assert!(r.rmse < 1.2, "WS rmse {}", r.rmse);
    }

    #[test]
    fn strict_cold_runs_without_test_interactions() {
        let data = Preset::Ml100k.generate(0.08, 39);
        let cfg = BaselineConfig { embed_dim: 16, epochs: 4, lr: 3e-3, fanout: 5, ..BaselineConfig::default() };
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictItem, 39));
        let mut model = StarGcn::new(cfg);
        model.fit(&data, &split);
        let r = evaluate(&model, &data, &split.test).finish();
        assert!(r.rmse < 2.0, "ICS rmse {}", r.rmse);
    }
}
