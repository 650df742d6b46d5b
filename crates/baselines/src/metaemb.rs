//! MetaEmb — warm up cold-start advertisements: learning to learn ID
//! embeddings (Pan et al., SIGIR'19), first-order variant.
//!
//! Stage 1 trains a biased-MF base model. Stage 2 trains per-side
//! **embedding generators** `gen(attrs) → (id embedding, bias)` by
//! *cold-start simulation*: on each batch the target nodes' trained
//! embeddings are replaced by the generator's output and the ordinary
//! rating loss is back-propagated into the generator only (the first-order
//! reading of MetaEmb's two-phase meta objective). At test time warm nodes
//! use their trained embeddings and strict cold start nodes use generated
//! ones — which is why MetaEmb stays the strongest strict-cold baseline
//! (§4.2, Fig. 8) while never exploiting neighborhood structure.

use crate::common::{AttrEmbed, BaselineConfig, Degrees};
use crate::mf::BiasedMf;
use agnn_autograd::nn::{Activation, Mlp};
use agnn_autograd::{loss, Graph, Ops, ParamStore, Var};
use agnn_core::evae::blend_preference;
use agnn_core::interaction::AttrLists;
use agnn_core::model::{EpochLosses, RatingModel, TrainReport};
use agnn_data::batch::unzip_batch;
use agnn_data::{Dataset, Split};
use agnn_tensor::Matrix;
use agnn_train::{HookList, StepLosses, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::time::Instant;

struct Modules {
    mf: BiasedMf,
    user_attr: AttrEmbed,
    item_attr: AttrEmbed,
    user_gen: Mlp,
    item_gen: Mlp,
    user_attrs: AttrLists,
    item_attrs: AttrLists,
    user_cold: Vec<bool>,
    item_cold: Vec<bool>,
}

struct Fitted {
    store: ParamStore,
    m: Modules,
}

/// The MetaEmb baseline.
pub struct MetaEmb {
    cfg: BaselineConfig,
    fitted: Option<Fitted>,
}

impl MetaEmb {
    /// Creates an unfitted model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, fitted: None }
    }

    /// Side embedding: generated for simulated-cold/cold rows, trained
    /// elsewhere. `simulate_cold` forces every row through the generator
    /// (training); otherwise only actually-cold rows are generated.
    fn side_embed(
        g: &mut Graph,
        store: &ParamStore,
        m: &Modules,
        user_side: bool,
        nodes: &[usize],
        simulate_cold: bool,
    ) -> Var {
        let (emb, attr, lists, cold, generator) = if user_side {
            (&m.mf.user_emb, &m.user_attr, &m.user_attrs, &m.user_cold, &m.user_gen)
        } else {
            (&m.mf.item_emb, &m.item_attr, &m.item_attrs, &m.item_cold, &m.item_gen)
        };
        let attrs = attr.forward(g, store, lists, nodes);
        let generated = generator.forward(g, store, attrs);
        if simulate_cold {
            return generated;
        }
        let trained = emb.lookup(g, store, Rc::new(nodes.to_vec()));
        let warm: Vec<f32> = nodes.iter().map(|&n| if cold[n] { 0.0 } else { 1.0 }).collect();
        blend_preference(g, trained, generated, &warm)
    }

    fn score(
        g: &mut Graph,
        store: &ParamStore,
        m: &Modules,
        users: &[usize],
        items: &[usize],
        simulate: (bool, bool),
    ) -> Var {
        let hu = Self::side_embed(g, store, m, true, users, simulate.0);
        let hi = Self::side_embed(g, store, m, false, items, simulate.1);
        let dot = crate::common::rowwise_dot(g, hu, hi);
        m.mf.biases.apply(g, store, dot, users, items)
    }
}

impl RatingModel for MetaEmb {
    fn name(&self) -> String {
        "MetaEmb".into()
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
        // Stage 1: base model. The pre-flight audit event is forwarded to
        // the caller's hooks so its flow measurements span both stages;
        // loss/stopping hooks observe stage 2 alone.
        let base_loss =
            mf.fit_with(&mut store, split, &cfg, cfg.epochs.max(4), &mut HookList::new().with(hooks.preflight_forwarder()));

        // Stage 2: freeze the base model, train the generators.
        let frozen: Vec<_> = store.ids().collect();
        for id in &frozen {
            store.set_frozen(*id, true);
        }
        let m = Modules {
            mf,
            user_attr: AttrEmbed::new(&mut store, "me.uattr", dataset.user_schema.total_dim(), d, &mut rng),
            item_attr: AttrEmbed::new(&mut store, "me.iattr", dataset.item_schema.total_dim(), d, &mut rng),
            user_gen: Mlp::new(&mut store, "me.ugen", &[d, d, d], Activation::Tanh, &mut rng),
            item_gen: Mlp::new(&mut store, "me.igen", &[d, d, d], Activation::Tanh, &mut rng),
            user_attrs: AttrLists::from_sparse(&dataset.user_attrs),
            item_attrs: AttrLists::from_sparse(&dataset.item_attrs),
            user_cold: deg.user_cold(),
            item_cold: deg.item_cold(),
        };

        let mut trainer = Trainer::new(cfg.train_config().with_lr(cfg.lr * 4.0));
        let mut report = trainer.fit(&mut store, &split.train, &mut rng, hooks, |g, store, ctx| {
            let (users, items, values) = unzip_batch(ctx.batch);
            // Cold-start simulation alternates sides (user tasks / item
            // tasks in the original ad setting).
            let simulate = if ctx.epoch % 2 == 0 { (true, false) } else { (false, true) };
            let scores = Self::score(g, store, &m, &users, &items, simulate);
            let target = g.constant(Matrix::col_vector(values));
            // Distill toward the trained embedding as well (the "good
            // initial embedding" half of MetaEmb's objective).
            let l = loss::mse(g, scores, target);
            StepLosses::prediction_only(g, l)
        });
        // The stage-1 loss leads the curve, as the hand-rolled loop reported.
        report.epochs.insert(0, EpochLosses { prediction: base_loss, reconstruction: 0.0 });
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
            let s = Self::score(&mut g, &f.store, &f.m, &users, &items, (false, false));
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
    fn generator_helps_strict_cold_start() {
        let data = Preset::Ml100k.generate(0.1, 48);
        let cfg = BaselineConfig { embed_dim: 16, epochs: 6, lr: 2e-3, ..BaselineConfig::default() };
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictItem, 48));
        let mut model = MetaEmb::new(cfg);
        model.fit(&data, &split);
        let r = evaluate(&model, &data, &split.test).finish();
        // Constant-mean reference.
        let mean = split.train_mean();
        let mut base = agnn_metrics::EvalAccumulator::new();
        for t in &split.test {
            base.push(mean, t.value);
        }
        let base_rmse = base.finish().rmse;
        assert!(r.rmse < base_rmse * 1.05, "MetaEmb ICS {} vs mean {}", r.rmse, base_rmse);
    }

    #[test]
    fn warm_start_keeps_base_quality() {
        let data = Preset::Ml100k.generate(0.1, 49);
        let cfg = BaselineConfig { embed_dim: 16, epochs: 6, lr: 2e-3, ..BaselineConfig::default() };
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::WarmStart, 49));
        let mut model = MetaEmb::new(cfg);
        model.fit(&data, &split);
        let r = evaluate(&model, &data, &split.test).finish();
        assert!(r.rmse < 1.2, "WS rmse {}", r.rmse);
    }
}
