//! Neural-network building blocks shared by AGNN and every baseline. Each
//! layer's forward is written once over [`Ops`], so it runs on the training
//! tape and in the serving engine alike.

use crate::{Graph, Ops, ParamId, ParamStore, Registry, Var};
use agnn_tensor::{init, Matrix};
use rand::Rng;
use std::rc::Rc;

/// Pointwise nonlinearity applied between layers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Activation {
    /// No nonlinearity.
    Identity,
    /// ReLU.
    Relu,
    /// LeakyReLU with the given negative slope (paper default 0.01).
    LeakyRelu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation.
    pub fn apply<O: Ops>(self, o: &mut O, x: O::Value) -> O::Value {
        match self {
            Activation::Identity => x,
            Activation::Relu => o.relu(x),
            Activation::LeakyRelu(slope) => o.leaky_relu(x, slope),
            Activation::Sigmoid => o.sigmoid(x),
            Activation::Tanh => o.tanh(x),
        }
    }
}

/// Affine map `x·W + b` with `W: in × out`, `b: 1 × out`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight handle.
    pub w: ParamId,
    /// Bias handle (`None` for bias-free layers).
    pub b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a Xavier-initialized layer in `store`.
    pub fn new(store: &mut impl Registry, name: &str, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let w = store.register(format!("{name}.w"), in_dim, out_dim, || init::xavier_uniform(in_dim, out_dim, rng));
        let b = Some(store.register(format!("{name}.b"), 1, out_dim, || Matrix::zeros(1, out_dim)));
        Self { w, b, in_dim, out_dim }
    }

    /// Registers a bias-free layer.
    pub fn new_no_bias(store: &mut impl Registry, name: &str, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let w = store.register(format!("{name}.w"), in_dim, out_dim, || init::xavier_uniform(in_dim, out_dim, rng));
        Self { w, b: None, in_dim, out_dim }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to a `batch × in` value.
    pub fn forward<O: Ops>(&self, o: &mut O, params: &O::Params, x: O::Value) -> O::Value {
        let width = o.value(&x).cols();
        assert_eq!(width, self.in_dim, "Linear::forward: input width {width} != layer in_dim {}", self.in_dim);
        let w = o.param(params, self.w);
        let wx = o.matmul(x, w);
        self.add_bias(o, params, wx)
    }

    /// Applies the layer to `[repeat_rows(target, g) | neighbors]` through
    /// [`Ops::repeat_concat_matmul`], so the engine never builds that input.
    pub fn forward_repeat_concat<O: Ops>(
        &self,
        o: &mut O,
        params: &O::Params,
        target: O::Value,
        neighbors: O::Value,
        g: usize,
    ) -> O::Value {
        let width = o.value(&target).cols() + o.value(&neighbors).cols();
        assert_eq!(width, self.in_dim, "Linear::forward_repeat_concat: input width {width} != layer in_dim {}", self.in_dim);
        let wx = o.repeat_concat_matmul(params, target, neighbors, g, self.w);
        self.add_bias(o, params, wx)
    }

    fn add_bias<O: Ops>(&self, o: &mut O, params: &O::Params, wx: O::Value) -> O::Value {
        match self.b {
            Some(b) => {
                let bv = o.param(params, b);
                o.add_row_broadcast(wx, bv)
            }
            None => wx,
        }
    }
}

/// A stack of [`Linear`] layers with a shared hidden activation.
///
/// The output layer is linear (no activation) unless `output_activation`
/// is set.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[in, hidden, out]`.
    pub fn new(
        store: &mut impl Registry,
        name: &str,
        dims: &[usize],
        hidden_activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp::new: need at least [in, out] dims, got {dims:?}");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.l{i}"), w[0], w[1], rng))
            .collect();
        Self { layers, hidden_activation, output_activation: Activation::Identity }
    }

    /// Sets an activation on the final layer (builder style).
    pub fn with_output_activation(mut self, act: Activation) -> Self {
        self.output_activation = act;
        self
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Applies every layer.
    pub fn forward<O: Ops>(&self, o: &mut O, params: &O::Params, mut x: O::Value) -> O::Value {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(o, params, x);
            x = if i < last {
                self.hidden_activation.apply(o, x)
            } else {
                self.output_activation.apply(o, x)
            };
        }
        x
    }
}

/// A `rows × dim` embedding table looked up by row index.
#[derive(Clone, Debug)]
pub struct Embedding {
    /// Table handle.
    pub table: ParamId,
    rows: usize,
    dim: usize,
}

impl Embedding {
    /// Registers a table initialized `N(0, 0.1)`.
    pub fn new(store: &mut impl Registry, name: &str, rows: usize, dim: usize, rng: &mut impl Rng) -> Self {
        let table = store.register(name.into(), rows, dim, || init::normal(rows, dim, 0.1, rng));
        Self { table, rows, dim }
    }

    /// Registers a zero-initialized table. Use for bias tables: rows that
    /// never train (strict cold start nodes) then contribute exactly
    /// nothing instead of frozen noise.
    pub fn new_zeros(store: &mut impl Registry, name: &str, rows: usize, dim: usize) -> Self {
        let table = store.register(name.into(), rows, dim, || Matrix::zeros(rows, dim));
        Self { table, rows, dim }
    }

    /// Number of rows in the table.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up a batch of row indices; gradients scatter back sparsely.
    pub fn lookup(&self, g: &mut Graph, store: &ParamStore, rows: Rc<Vec<usize>>) -> Var {
        debug_assert!(rows.iter().all(|&r| r < self.rows), "Embedding::lookup out of range");
        g.param_rows(store, self.table, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 3, 2, &mut rng);
        assert_eq!(lin.in_dim(), 3);
        assert_eq!(lin.out_dim(), 2);
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(4, 3));
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (4, 2));
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn linear_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 3, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(4, 5));
        let _ = lin.forward(&mut g, &store, x);
    }

    #[test]
    fn mlp_stacks_and_activates() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[4, 8, 1], Activation::LeakyRelu(0.01), &mut rng)
            .with_output_activation(Activation::Sigmoid);
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 1);
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(2, 4));
        let y = mlp.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (2, 1));
        // Sigmoid output in (0, 1).
        assert!(g.value(y).as_slice().iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn embedding_lookup_gathers_and_grads_scatter() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 5, 3, &mut rng);
        let mut g = Graph::new();
        let rows = Rc::new(vec![4usize, 0, 4]);
        let x = emb.lookup(&mut g, &store, rows);
        assert_eq!(g.value(x).shape(), (3, 3));
        assert_eq!(g.value(x).row(0), store.value(emb.table).row(4));
        let l = g.sum_all(x);
        g.backward(l);
        g.grads_into(&mut store);
        // Row 4 appears twice → grad 2, row 0 once → grad 1, others 0.
        assert_eq!(store.grad(emb.table).row(4), &[2.0, 2.0, 2.0]);
        assert_eq!(store.grad(emb.table).row(0), &[1.0, 1.0, 1.0]);
        assert_eq!(store.grad(emb.table).row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn activations_dispatch() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row_vector(vec![-1.0, 1.0]));
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::LeakyRelu(0.1),
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            let y = act.apply(&mut g, x);
            assert!(g.value(y).all_finite());
        }
    }
}
