//! One forward body for training and serving (DESIGN.md §5b5).
//!
//! [`Ops`] is how models build their forward: one method per [`Op`], plus
//! parameter access by [`ParamId`]. A layer written over it (`Linear`,
//! `Mlp`, AGNN's layers in `agnn-core`) has one body that runs in two
//! places. [`Graph`] records each op on the tape so gradients can flow;
//! the serving engine (`agnn-infer`) evaluates each op at once. Both run
//! [`eval`], the one kernel table, so every op gives the same bits in
//! either place.
//!
//! Where the engine computes a step with other kernels on purpose, the
//! trait has a coarse op whose two bodies each state why they agree bit for
//! bit. There are two:
//!
//! - [`Ops::attr_sums`], the attribute encoder's `(Σ v, Σ v²)`: the tape
//!   gathers the table rows and segment-sums them; the engine multiplies a
//!   multi-hot CSR against the table and its square, which visits the same
//!   rows in the same order with `1.0 · x == x`.
//! - [`Ops::repeat_concat_matmul`], every neighbourhood gate's
//!   `[repeat_rows(t, g) | nb] · W`: the tape records the repeat, concat and
//!   matmul; the engine folds `t · W[..d]` once per target and continues
//!   each repeated partial row with `nb · W[d..]`, the same multiply-adds
//!   in the same `k` order from the same zero start.
//!
//! [`Graph`]: crate::Graph
//! [`eval`]: crate::graph::eval

use crate::graph::Op;
use crate::ParamId;
use agnn_tensor::Matrix;
use rand::Rng;
use std::rc::Rc;

/// Builds a forward: on the training tape, or eagerly.
pub trait Ops {
    /// A value of the forward: a tape handle, or a matrix.
    type Value: Clone;
    /// Where parameter values come from.
    type Params;

    /// Evaluates (or records) one op.
    fn run(&mut self, op: Op<Self::Value>) -> Self::Value;

    /// The matrix behind `v`.
    fn value<'v>(&'v self, v: &'v Self::Value) -> &'v Matrix;

    /// A constant leaf: no gradient is tracked through it.
    fn constant(&mut self, value: Matrix) -> Self::Value;

    /// A parameter's full value.
    fn param(&mut self, params: &Self::Params, id: ParamId) -> Self::Value;

    /// Selected rows of a parameter (an embedding lookup).
    fn param_rows(&mut self, params: &Self::Params, id: ParamId, rows: &[usize]) -> Self::Value;

    /// Coarse op: `(Σ v, Σ v²)` over the rows of `table` each node's
    /// attribute list names. Node `i`'s indices are
    /// `flat[offsets[i]..offsets[i + 1]]`, ascending; an empty list sums to
    /// a zero row.
    fn attr_sums(
        &mut self,
        params: &Self::Params,
        table: ParamId,
        flat: Rc<Vec<usize>>,
        offsets: Rc<Vec<usize>>,
    ) -> (Self::Value, Self::Value);

    /// Coarse op: `[repeat_rows(target, g) | neighbors] · W` for the
    /// parameter `w`, the product every neighbourhood gate takes. Target row
    /// `i`'s neighbours are rows `i·g .. (i+1)·g`; `g = 1` pairs row for row.
    fn repeat_concat_matmul(
        &mut self,
        params: &Self::Params,
        target: Self::Value,
        neighbors: Self::Value,
        g: usize,
        w: ParamId,
    ) -> Self::Value;

    /// `a · b`.
    fn matmul(&mut self, a: Self::Value, b: Self::Value) -> Self::Value {
        self.run(Op::MatMul(a, b))
    }

    /// Elementwise `a + b`.
    fn add(&mut self, a: Self::Value, b: Self::Value) -> Self::Value {
        self.run(Op::Add(a, b))
    }

    /// Elementwise `a - b`.
    fn sub(&mut self, a: Self::Value, b: Self::Value) -> Self::Value {
        self.run(Op::Sub(a, b))
    }

    /// Elementwise (Hadamard) `a ⊙ b`.
    fn mul(&mut self, a: Self::Value, b: Self::Value) -> Self::Value {
        self.run(Op::Mul(a, b))
    }

    /// `s · a`.
    fn scale(&mut self, a: Self::Value, s: f32) -> Self::Value {
        self.run(Op::Scale(a, s))
    }

    /// `a + s` elementwise.
    fn add_scalar(&mut self, a: Self::Value, s: f32) -> Self::Value {
        self.run(Op::AddScalar(a, s))
    }

    /// Adds the `1 × n` row vector `row` to every row of `a`.
    fn add_row_broadcast(&mut self, a: Self::Value, row: Self::Value) -> Self::Value {
        self.run(Op::AddRowBroadcast(a, row))
    }

    /// Multiplies every row of `a` elementwise by the `1 × n` row vector.
    fn mul_row_broadcast(&mut self, a: Self::Value, row: Self::Value) -> Self::Value {
        self.run(Op::MulRowBroadcast(a, row))
    }

    /// Multiplies row `i` of `a` by the scalar `col[i]` of an `m × 1` column.
    fn mul_col_broadcast(&mut self, a: Self::Value, col: Self::Value) -> Self::Value {
        self.run(Op::MulColBroadcast(a, col))
    }

    /// Horizontal concatenation `[a₁; a₂; …]` along columns.
    fn concat(&mut self, parts: &[Self::Value]) -> Self::Value {
        assert!(!parts.is_empty(), "concat of zero vars");
        self.run(Op::Concat(parts.to_vec()))
    }

    /// Gathers rows of `a` by index (rows may repeat).
    fn gather_rows(&mut self, a: Self::Value, rows: Rc<Vec<usize>>) -> Self::Value {
        self.run(Op::GatherRows(a, rows))
    }

    /// Mean over each consecutive group of `g` rows.
    fn segment_mean_rows(&mut self, a: Self::Value, g: usize) -> Self::Value {
        self.run(Op::SegmentMeanRows(a, g))
    }

    /// Sum over each consecutive group of `g` rows.
    fn segment_sum_rows(&mut self, a: Self::Value, g: usize) -> Self::Value {
        self.run(Op::SegmentSumRows(a, g))
    }

    /// Sums rows over *variable-length* segments. `offsets` has `n+1`
    /// monotone entries with `offsets[n] == a.rows()`; segment `i` covers
    /// rows `offsets[i]..offsets[i+1]` (possibly empty → zero row).
    ///
    /// This is the ragged-pooling primitive for per-node attribute lists.
    fn segment_sum_rows_var(&mut self, a: Self::Value, offsets: Rc<Vec<usize>>) -> Self::Value {
        self.run(Op::SegmentSumRowsVar(a, offsets))
    }

    /// Means rows over variable-length segments (empty segments → zero row).
    fn segment_mean_rows_var(&mut self, a: Self::Value, offsets: Rc<Vec<usize>>) -> Self::Value {
        self.run(Op::SegmentMeanRowsVar(a, offsets))
    }

    /// Repeats each row `g` times.
    fn repeat_rows(&mut self, a: Self::Value, g: usize) -> Self::Value {
        self.run(Op::RepeatRows(a, g))
    }

    /// LeakyReLU with the given negative slope.
    fn leaky_relu(&mut self, a: Self::Value, slope: f32) -> Self::Value {
        self.run(Op::LeakyRelu(a, slope))
    }

    /// ReLU.
    fn relu(&mut self, a: Self::Value) -> Self::Value {
        self.run(Op::Relu(a))
    }

    /// Logistic sigmoid.
    fn sigmoid(&mut self, a: Self::Value) -> Self::Value {
        self.run(Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    fn tanh(&mut self, a: Self::Value) -> Self::Value {
        self.run(Op::Tanh(a))
    }

    /// Elementwise `exp`.
    fn exp(&mut self, a: Self::Value) -> Self::Value {
        self.run(Op::Exp(a))
    }

    /// Elementwise natural log (inputs must be positive).
    fn ln(&mut self, a: Self::Value) -> Self::Value {
        self.run(Op::Ln(a))
    }

    /// Elementwise `sqrt(x + eps)`; the epsilon keeps the adjoint finite at 0.
    fn sqrt_eps(&mut self, a: Self::Value, eps: f32) -> Self::Value {
        assert!(eps >= 0.0, "sqrt_eps: negative eps {eps}");
        self.run(Op::SqrtEps(a, eps))
    }

    /// Elementwise square.
    fn square(&mut self, a: Self::Value) -> Self::Value {
        self.run(Op::Square(a))
    }

    /// Elementwise absolute value.
    fn abs(&mut self, a: Self::Value) -> Self::Value {
        self.run(Op::Abs(a))
    }

    /// `-a`.
    fn neg(&mut self, a: Self::Value) -> Self::Value {
        self.run(Op::Neg(a))
    }

    /// Inverted dropout: zeroes each element with probability `p` and scales
    /// survivors by `1/(1-p)` so the expectation is unchanged.
    fn dropout(&mut self, a: Self::Value, p: f32, rng: &mut impl Rng) -> Self::Value {
        assert!((0.0..1.0).contains(&p), "dropout: p={p} outside [0,1)");
        if p == 0.0 {
            return a;
        }
        let keep = 1.0 - p;
        let (r, c) = self.value(&a).shape();
        let mask = Matrix::from_fn(r, c, |_, _| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 });
        self.dropout_with_mask(a, Rc::new(mask))
    }

    /// Dropout with an explicit mask (used by tests and masked-reconstruction
    /// baselines that must reuse a mask).
    fn dropout_with_mask(&mut self, a: Self::Value, mask: Rc<Matrix>) -> Self::Value {
        self.run(Op::Dropout(a, mask))
    }

    /// Sum of all elements as a `1 × 1` node.
    fn sum_all(&mut self, a: Self::Value) -> Self::Value {
        self.run(Op::SumAll(a))
    }

    /// Mean of all elements as a `1 × 1` node.
    fn mean_all(&mut self, a: Self::Value) -> Self::Value {
        self.run(Op::MeanAll(a))
    }

    /// Column sums as a `1 × n` node.
    fn sum_rows(&mut self, a: Self::Value) -> Self::Value {
        self.run(Op::SumRows(a))
    }

    /// Row sums as an `m × 1` node.
    fn sum_cols(&mut self, a: Self::Value) -> Self::Value {
        self.run(Op::SumCols(a))
    }

    /// Softmax over each consecutive group of `g` entries of a column vector
    /// (attention over fixed fan-out neighborhoods).
    fn segment_softmax_col(&mut self, a: Self::Value, g: usize) -> Self::Value {
        self.run(Op::SegmentSoftmaxCol(a, g))
    }

    /// Reshape preserving row-major element order.
    fn reshape(&mut self, a: Self::Value, rows: usize, cols: usize) -> Self::Value {
        self.run(Op::Reshape(a, rows, cols))
    }
}
