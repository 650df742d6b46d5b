//! The attribute interaction layer (§3.3.2, Eqs. 2–4).
//!
//! Every node carries a multi-hot attribute encoding. The layer embeds each
//! active attribute value, combines them with Bi-Interaction pooling
//! (second-order interactions) plus a linear combination, and mixes both
//! through a fully-connected LeakyReLU layer:
//!
//! ```text
//! f_BI(a) = Σ_{i<j} v_i ⊙ v_j = ½[(Σ v_i)² − Σ v_i²]
//! f_L(a)  = Σ v_i
//! x       = LeakyReLU(W₁ f_BI + W₀ f_L + b)
//! ```
//!
//! Nodes have ragged attribute lists, so both sums pool over one flat list
//! of attribute indices per batch ([`Ops::attr_sums`]).

use agnn_autograd::nn::Linear;
use agnn_autograd::{Ops, ParamId, Registry};
use agnn_tensor::{init, Matrix, SparseVec};
use rand::Rng;
use std::rc::Rc;

/// Precomputed per-node active-attribute index lists.
#[derive(Clone, Debug)]
pub struct AttrLists {
    lists: Vec<Vec<u32>>,
    dim: usize,
}

impl AttrLists {
    /// Extracts index lists from multi-hot encodings.
    pub fn from_sparse(attrs: &[SparseVec]) -> Self {
        let dim = attrs.first().map_or(0, SparseVec::dim);
        let lists = attrs
            .iter()
            .map(|a| {
                assert_eq!(a.dim(), dim, "AttrLists: inconsistent dims");
                a.indices().to_vec()
            })
            .collect();
        Self { lists, dim }
    }

    /// Rebuilds from raw per-node index lists (snapshot deserialization);
    /// an index outside the encoding dimensionality is an error.
    pub fn try_from_lists(lists: Vec<Vec<u32>>, dim: usize) -> Result<Self, String> {
        for (n, list) in lists.iter().enumerate() {
            if let Some(i) = list.iter().find(|&&i| i as usize >= dim) {
                return Err(format!("node {n} attribute {i} >= dim {dim}"));
            }
        }
        Ok(Self { lists, dim })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.lists.len()
    }

    /// Attribute-encoding dimensionality `K`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Active indices of one node.
    pub fn of(&self, node: usize) -> &[u32] {
        &self.lists[node]
    }

    /// Flattens the lists of a node batch into `(flat_rows, offsets)` for
    /// the variable-segment ops.
    pub fn flatten(&self, nodes: &[usize]) -> (Rc<Vec<usize>>, Rc<Vec<usize>>) {
        let mut flat = Vec::new();
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0);
        for &n in nodes {
            flat.extend(self.lists[n].iter().map(|&i| i as usize));
            offsets.push(flat.len());
        }
        (Rc::new(flat), Rc::new(offsets))
    }
}

/// Parameters of one side's (user or item) attribute interaction layer.
#[derive(Clone, Debug)]
pub struct AttrInteraction {
    /// Attribute-value embedding table, `K × D`.
    pub table: ParamId,
    w_bi: Linear,
    w_lin: Linear,
    bias: ParamId,
    embed_dim: usize,
    leaky_slope: f32,
}

impl AttrInteraction {
    /// Registers the layer's parameters.
    pub fn new(
        store: &mut impl Registry,
        name: &str,
        attr_dim: usize,
        embed_dim: usize,
        leaky_slope: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let table =
            store.register(format!("{name}.attr_table"), attr_dim, embed_dim, || init::normal(attr_dim, embed_dim, 0.1, rng));
        let w_bi = Linear::new_no_bias(store, &format!("{name}.w_bi"), embed_dim, embed_dim, rng);
        let w_lin = Linear::new_no_bias(store, &format!("{name}.w_lin"), embed_dim, embed_dim, rng);
        let bias = store.register(format!("{name}.bias"), 1, embed_dim, || Matrix::zeros(1, embed_dim));
        Self { table, w_bi, w_lin, bias, embed_dim, leaky_slope }
    }

    /// Output width `D`.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// Computes attribute embeddings `x` for a node batch (Eqs. 2–4).
    ///
    /// Nodes with zero active attributes produce `LeakyReLU(b)` — the bias
    /// acts as the "unknown attributes" embedding.
    pub fn forward<O: Ops>(&self, o: &mut O, params: &O::Params, lists: &AttrLists, nodes: &[usize]) -> O::Value {
        let (flat, offsets) = lists.flatten(nodes);
        let total = if flat.is_empty() {
            // Entire batch attribute-less: bias rows only.
            o.constant(Matrix::zeros(nodes.len(), self.embed_dim))
        } else {
            let (sum, sum_sq) = o.attr_sums(params, self.table, flat, offsets); // n × D each (sum = f_L)
            let sum2 = o.square(sum.clone());
            let diff = o.sub(sum2, sum_sq);
            let f_bi = o.scale(diff, 0.5);

            let proj_bi = self.w_bi.forward(o, params, f_bi);
            let proj_lin = self.w_lin.forward(o, params, sum);
            o.add(proj_bi, proj_lin)
        };
        let b = o.param(params, self.bias);
        let biased = o.add_row_broadcast(total, b);
        o.leaky_relu(biased, self.leaky_slope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_autograd::gradcheck::check_all_params;
    use agnn_autograd::{Graph, ParamStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lists() -> AttrLists {
        AttrLists::from_sparse(&[
            SparseVec::multi_hot(6, [0u32, 2]),
            SparseVec::multi_hot(6, [1u32]),
            SparseVec::multi_hot(6, [] as [u32; 0]),
            SparseVec::multi_hot(6, [3u32, 4, 5]),
        ])
    }

    #[test]
    fn flatten_offsets() {
        let l = lists();
        let (flat, off) = l.flatten(&[0, 2, 3]);
        assert_eq!(*flat, vec![0, 2, 3, 4, 5]);
        assert_eq!(*off, vec![0, 2, 2, 5]);
    }

    #[test]
    fn forward_shapes_and_finite() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = AttrInteraction::new(&mut store, "u", 6, 8, 0.01, &mut rng);
        let l = lists();
        let mut g = Graph::new();
        let x = layer.forward(&mut g, &store, &l, &[0, 1, 2, 3]);
        assert_eq!(g.value(x).shape(), (4, 8));
        assert!(g.value(x).all_finite());
    }

    #[test]
    fn attributeless_node_gets_bias_embedding() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = AttrInteraction::new(&mut store, "u", 6, 4, 0.01, &mut rng);
        let l = lists();
        let mut g = Graph::new();
        let x = layer.forward(&mut g, &store, &l, &[2, 2]);
        // Bias initializes to zero → LeakyReLU(0) = 0.
        assert_eq!(g.value(x).as_slice(), &[0.0; 8]);
    }

    #[test]
    fn bi_interaction_identity_holds() {
        // For a node with exactly one attribute, f_BI must be 0:
        // the pairwise sum over i<j is empty.
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let layer = AttrInteraction::new(&mut store, "u", 6, 4, 0.01, &mut rng);
        // Zero the linear weights so output isolates the BI path.
        let wlin = store.ids().nth(2).unwrap();
        store.value_mut(wlin).as_mut_slice().fill(0.0);
        let l = lists();
        let mut g = Graph::new();
        let x = layer.forward(&mut g, &store, &l, &[1]); // node 1: single attr
        // W1·0 + 0 + b(=0) → LeakyReLU(0) = 0.
        assert!(g.value(x).as_slice().iter().all(|v| v.abs() < 1e-6), "{:?}", g.value(x));
    }

    #[test]
    fn same_attrs_same_embedding() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let layer = AttrInteraction::new(&mut store, "u", 6, 4, 0.01, &mut rng);
        let l = lists();
        let mut g = Graph::new();
        let x = layer.forward(&mut g, &store, &l, &[0, 0]);
        assert_eq!(g.value(x).row(0), g.value(x).row(1));
    }

    #[test]
    fn gradcheck_through_layer() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let layer = AttrInteraction::new(&mut store, "u", 6, 3, 0.01, &mut rng);
        let l = lists();
        check_all_params(&mut store, 2e-3, 3e-2, move |g, s| {
            let x = layer.forward(g, s, &l, &[0, 1, 3]);
            let sq = g.square(x);
            g.sum_all(sq)
        });
    }
}
