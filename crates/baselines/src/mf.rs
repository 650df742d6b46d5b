//! Biased matrix factorization — the pre-training stage DropoutNet and
//! MetaEmb build on, and a component of several other baselines.

use crate::common::{rowwise_dot, BaselineConfig, BiasTerms};
use agnn_autograd::nn::Embedding;
use agnn_autograd::{loss, Graph, Ops, ParamStore, Var};
use agnn_data::batch::unzip_batch;
use agnn_data::Split;
use agnn_train::{HookList, StepLosses, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

/// `r̂ = p_u·q_i + b_u + b_i + μ`, trained with Adam on squared loss.
pub struct BiasedMf {
    /// User factor table.
    pub user_emb: Embedding,
    /// Item factor table.
    pub item_emb: Embedding,
    /// Bias terms.
    pub biases: BiasTerms,
}

impl BiasedMf {
    /// Registers parameters in `store`.
    pub fn new(store: &mut ParamStore, num_users: usize, num_items: usize, train_mean: f32, cfg: &BaselineConfig, rng: &mut StdRng) -> Self {
        Self {
            user_emb: Embedding::new(store, "mf.user", num_users, cfg.embed_dim, rng),
            item_emb: Embedding::new(store, "mf.item", num_items, cfg.embed_dim, rng),
            biases: BiasTerms::new(store, num_users, num_items, train_mean, rng),
        }
    }

    /// Scores a batch of `(users, items)` index slices.
    pub fn score(&self, g: &mut Graph, store: &ParamStore, users: &[usize], items: &[usize]) -> Var {
        let p = self.user_emb.lookup(g, store, Rc::new(users.to_vec()));
        let q = self.item_emb.lookup(g, store, Rc::new(items.to_vec()));
        let dot = rowwise_dot(g, p, q);
        self.biases.apply(g, store, dot, users, items)
    }

    /// Trains in place on `split.train`; returns the last epoch's MSE.
    ///
    /// Uses its own derived seed so the pre-training stage's rng stream is
    /// independent of the caller's (as the hand-rolled loop always did).
    pub fn fit(&self, store: &mut ParamStore, split: &Split, cfg: &BaselineConfig, epochs: usize) -> f64 {
        self.fit_with(store, split, cfg, epochs, &mut HookList::new())
    }

    /// [`BiasedMf::fit`] with observer hooks attached to the training loop
    /// (the `agnn check` gate audits the standalone MF through this).
    pub fn fit_with(
        &self,
        store: &mut ParamStore,
        split: &Split,
        cfg: &BaselineConfig,
        epochs: usize,
        hooks: &mut HookList<'_>,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(31).wrapping_add(1));
        let mut trainer = Trainer::new(cfg.train_config().with_epochs(epochs));
        let report = trainer.fit(store, &split.train, &mut rng, hooks, |g, store, ctx| {
            let (users, items, values) = unzip_batch(ctx.batch);
            let scores = self.score(g, store, &users, &items);
            let target = g.constant(agnn_tensor::Matrix::col_vector(values));
            let l = loss::mse(g, scores, target);
            StepLosses::prediction_only(g, l)
        });
        report.final_prediction().unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_data::{ColdStartKind, Preset, Split, SplitConfig};

    #[test]
    fn mf_learns_warm_start() {
        let data = Preset::Ml100k.generate(0.1, 9);
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::WarmStart, 9));
        let cfg = BaselineConfig { embed_dim: 16, lr: 5e-3, ..BaselineConfig::default() };
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mf = BiasedMf::new(&mut store, data.num_users, data.num_items, split.train_mean(), &cfg, &mut rng);
        let final_mse = mf.fit(&mut store, &split, &cfg, 6);
        // Must fit train data substantially better than variance (~1.0).
        assert!(final_mse < 0.9, "final train MSE {final_mse}");
        // And score finite values.
        let mut g = Graph::new();
        let s = mf.score(&mut g, &store, &[0, 1], &[0, 1]);
        assert!(g.value(s).all_finite());
    }
}
