//! Building blocks shared by the baselines: attribute encoders, bias terms,
//! degree bookkeeping, and a common hyper-parameter bundle.

use agnn_autograd::nn::Embedding;
use agnn_autograd::{Graph, Ops, ParamId, ParamStore, Var};
use agnn_core::interaction::AttrLists;
use agnn_tensor::{init, Matrix};
use rand::Rng;
use std::rc::Rc;

/// Hyper-parameters shared by every baseline (aligned with AGNN's §4.1.4
/// settings so Table 2 compares models, not budgets).
#[derive(Clone, Copy, Debug)]
pub struct BaselineConfig {
    /// Embedding dimension `D`.
    pub embed_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Neighborhood fan-out for graph-based baselines.
    pub fanout: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self { embed_dim: 40, epochs: 10, batch_size: 128, lr: 5e-4, fanout: 10, seed: 17 }
    }
}

impl BaselineConfig {
    /// The training-loop slice of these knobs, for the `agnn-train` engine.
    /// Baselines historically train unclipped, so no gradient clipping;
    /// models that scale the shared lr (LLAE ×4, DropoutNet ×2) or add
    /// weight decay do so via the `TrainConfig` builders.
    pub fn train_config(&self) -> agnn_train::TrainConfig {
        agnn_train::TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            weight_decay: 0.0,
            grad_clip_norm: None,
            seed: self.seed,
        }
    }
}

/// Mean-of-value-embeddings attribute encoder (the plain feature projection
/// most baselines use; AGNN's Bi-Interaction variant lives in `agnn-core`).
#[derive(Clone, Debug)]
pub struct AttrEmbed {
    /// Value-embedding table, `K × D`.
    pub table: ParamId,
    dim: usize,
}

impl AttrEmbed {
    /// Registers the table.
    pub fn new(store: &mut ParamStore, name: &str, attr_dim: usize, embed_dim: usize, rng: &mut impl Rng) -> Self {
        let table = store.add(name, init::normal(attr_dim.max(1), embed_dim, 0.1, rng));
        Self { table, dim: embed_dim }
    }

    /// Output width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Mean of the active values' embeddings per node (zero row when a node
    /// has no attributes).
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, lists: &AttrLists, nodes: &[usize]) -> Var {
        let (flat, offsets) = lists.flatten(nodes);
        if flat.is_empty() {
            return g.constant(Matrix::zeros(nodes.len(), self.dim));
        }
        let v = g.param_rows(store, self.table, flat);
        g.segment_mean_rows_var(v, offsets)
    }
}

/// `b_u + b_i + μ` terms used by every rating head.
#[derive(Clone, Debug)]
pub struct BiasTerms {
    user_bias: Embedding,
    item_bias: Embedding,
    global: ParamId,
}

impl BiasTerms {
    /// Registers biases; the global bias starts at the training mean and
    /// the per-node biases at zero (cold nodes then contribute no bias
    /// noise).
    pub fn new(store: &mut ParamStore, num_users: usize, num_items: usize, train_mean: f32, rng: &mut impl Rng) -> Self {
        let _ = rng;
        Self {
            user_bias: Embedding::new_zeros(store, "bias.user", num_users, 1),
            item_bias: Embedding::new_zeros(store, "bias.item", num_items, 1),
            global: store.add("bias.global", Matrix::full(1, 1, train_mean)),
        }
    }

    /// Adds `b_u + b_i + μ` to a `B × 1` score column.
    pub fn apply(&self, g: &mut Graph, store: &ParamStore, score: Var, users: &[usize], items: &[usize]) -> Var {
        let bu = self.user_bias.lookup(g, store, Rc::new(users.to_vec()));
        let bi = self.item_bias.lookup(g, store, Rc::new(items.to_vec()));
        let mu = g.param_full(store, self.global);
        let mu_rows = g.repeat_rows(mu, users.len());
        let s = g.add(score, bu);
        let s = g.add(s, bi);
        g.add(s, mu_rows)
    }
}

// Degree counting moved into `agnn-data` (AGNN needs it too); re-exported
// here so existing `crate::common::Degrees` imports keep working.
pub use agnn_data::Degrees;

/// Static attribute-kNN candidate pools (the construction DiffNet, DANSER,
/// sRMGCNN and HERS use when no social graph exists, with K = 10 per
/// §4.1.4).
pub fn knn_pools(attrs: &[agnn_tensor::SparseVec], k: usize) -> agnn_graph::CandidatePools {
    use agnn_graph::{CandidatePools, PoolConfig, ProximityMode};
    let cfg = PoolConfig { top_percent: 100.0, mode: ProximityMode::AttributeOnly, bucket_cap: 512, min_pool: 1 };
    CandidatePools::build(attrs, None, cfg).to_knn_pools(k)
}

/// Candidate pools from a CSR graph's adjacency (edge weights as scores).
pub fn pools_from_csr(graph: &agnn_graph::CsrGraph) -> agnn_graph::CandidatePools {
    use agnn_graph::{CandidatePools, PoolConfig};
    let pools = (0..graph.num_nodes() as u32).map(|n| graph.edges_of(n).collect()).collect();
    CandidatePools::from_scored(pools, PoolConfig::default())
}

/// Samples a fixed-fanout neighborhood id list for a node batch from pools
/// (deterministic top-k when `rng` is `None`).
pub fn batch_neighbors(
    pools: &agnn_graph::CandidatePools,
    nodes: &[usize],
    fanout: usize,
    rng: Option<&mut rand::rngs::StdRng>,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(nodes.len() * fanout);
    match rng {
        Some(rng) => {
            for &n in nodes {
                pools.sample_neighbors_into(n as u32, fanout, rng, &mut out);
            }
        }
        None => {
            for &n in nodes {
                out.extend(pools.top_neighbors(n as u32, fanout));
            }
        }
    }
    out
}

/// Rowwise dot product `Σ_d a[r][d]·b[r][d]` as a `B × 1` node.
pub fn rowwise_dot(g: &mut Graph, a: Var, b: Var) -> Var {
    let prod = g.mul(a, b);
    g.sum_cols(prod)
}

/// 0/1 column mask from per-node cold flags over a node batch
/// (1 = warm). Multiply an embedding by it to zero cold rows.
pub fn warm_col(g: &mut Graph, cold: &[bool], nodes: &[usize]) -> Var {
    g.constant(Matrix::col_vector(
        nodes.iter().map(|&n| if cold[n] { 0.0 } else { 1.0 }).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_data::{ColdStartKind, Preset, Split, SplitConfig};
    use agnn_tensor::SparseVec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn attr_embed_means_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let enc = AttrEmbed::new(&mut store, "a", 4, 3, &mut rng);
        let lists = AttrLists::from_sparse(&[
            SparseVec::multi_hot(4, [0u32, 1]),
            SparseVec::multi_hot(4, [] as [u32; 0]),
        ]);
        let mut g = Graph::new();
        let x = enc.forward(&mut g, &store, &lists, &[0, 1]);
        let t = store.value(enc.table);
        for d in 0..3 {
            let expect = (t.get(0, d) + t.get(1, d)) / 2.0;
            assert!((g.value(x).get(0, d) - expect).abs() < 1e-6);
            assert_eq!(g.value(x).get(1, d), 0.0);
        }
    }

    #[test]
    fn bias_terms_add_up() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let biases = BiasTerms::new(&mut store, 3, 3, 3.5, &mut rng);
        let mut g = Graph::new();
        let zero = g.constant(Matrix::zeros(2, 1));
        let s = biases.apply(&mut g, &store, zero, &[0, 1], &[2, 0]);
        // bias embeddings init N(0, 0.1): result ≈ 3.5 within ~0.5.
        for r in 0..2 {
            assert!((g.value(s).get(r, 0) - 3.5).abs() < 0.6);
        }
    }

    #[test]
    fn degrees_reexport_still_resolves() {
        let data = Preset::Ml100k.generate(0.06, 5);
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictItem, 5));
        // `Degrees` lives in `agnn-data` now; this exercises the compat path.
        let deg = Degrees::from_split(&data, &split);
        assert_eq!(deg.user.iter().sum::<usize>(), split.train.len());
    }

    #[test]
    fn rowwise_dot_matches_manual() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = g.constant(Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]));
        let d = rowwise_dot(&mut g, a, b);
        assert_eq!(g.value(d).as_slice(), &[17.0, 53.0]);
    }
}
