//! The engine's [`Ops`]: every op is evaluated at once, on matrices, with
//! no tape.
//!
//! [`Eager::run`] evaluates an op through `agnn_autograd::graph::eval`,
//! the kernel table the tape evaluates the same op with, so each op gives
//! the tape's bits. Values are shared matrices: a parameter is handed out
//! without copying it, and a result is freed as soon as the layer code
//! drops it.

use agnn_autograd::graph::eval;
use agnn_autograd::{Op, Ops, ParamId, ParamTable};
use agnn_tensor::{ops, Csr, Matrix};
use std::rc::Rc;
use std::sync::Arc;

/// The engine's parameters: the resolved values, and the element-wise
/// square of each attribute table (for [`Ops::attr_sums`]).
pub(crate) struct EngineParams {
    values: ParamTable,
    squares: Vec<(ParamId, Matrix)>,
}

impl EngineParams {
    /// Squares the `attr_tables` once, at load.
    pub(crate) fn new(values: ParamTable, attr_tables: &[ParamId]) -> Self {
        let squares = attr_tables.iter().map(|&id| (id, ops::map(values.value(id), |x| x * x))).collect();
        Self { values, squares }
    }
}

/// Eager evaluation of a forward.
pub(crate) struct Eager;

/// The matrix a forward's value ends with, moved out when no other handle
/// holds it.
pub(crate) fn into_matrix(v: Arc<Matrix>) -> Matrix {
    Arc::try_unwrap(v).unwrap_or_else(|shared| (*shared).clone())
}

impl Ops for Eager {
    type Value = Arc<Matrix>;
    type Params = EngineParams;

    fn run(&mut self, op: Op<Arc<Matrix>>) -> Arc<Matrix> {
        Arc::new(eval(&op, |v| &**v))
    }

    fn value<'v>(&'v self, v: &'v Arc<Matrix>) -> &'v Matrix {
        v
    }

    fn constant(&mut self, value: Matrix) -> Arc<Matrix> {
        Arc::new(value)
    }

    fn param(&mut self, params: &EngineParams, id: ParamId) -> Arc<Matrix> {
        Arc::clone(params.values.value(id))
    }

    fn param_rows(&mut self, params: &EngineParams, id: ParamId, rows: &[usize]) -> Arc<Matrix> {
        Arc::new(params.values.value(id).gather_rows(rows))
    }

    /// The batch's attribute lists become a multi-hot [`Csr`], and both
    /// sums are sparse × dense products against the table and its
    /// precomputed square, skipping the tape's `T × D` gather. The bits
    /// match the tape's gather + segment sum because the CSR keeps each
    /// node's attribute order (ascending, the `AttrLists` invariant),
    /// `spmm` accumulates in that same order, `1.0·x == x` bitwise for
    /// finite `x`, and squaring the table before or after row selection is
    /// the same `f32` multiply. Locked by `ops::tests::
    /// spmm_multi_hot_matches_gather_segment_sum` and the conformance suite.
    fn attr_sums(
        &mut self,
        params: &EngineParams,
        table: ParamId,
        flat: Rc<Vec<usize>>,
        offsets: Rc<Vec<usize>>,
    ) -> (Arc<Matrix>, Arc<Matrix>) {
        let values = params.values.value(table);
        // invariant: `EngineParams::new` squares every attribute table
        let (_, squared) = params.squares.iter().find(|(id, _)| *id == table).expect("attribute table squared at load");
        let attrs = Csr::multi_hot(values.rows(), &offsets, &flat);
        (Arc::new(ops::spmm(&attrs, values)), Arc::new(ops::spmm(&attrs, squared)))
    }

    /// [`ops::repeat_concat_matmul`]: `target · W[..d]` is folded once per
    /// target row by `ops::matmul_into`, and each partial row, repeated `g`
    /// times, is continued with `neighbors · W[d..]` by the same fold body,
    /// with no repeat or concat built. The bits match the tape's repeat +
    /// concat + matmul because each output element gets the same
    /// multiply-adds, in the same `k` order, from the same zero start, with
    /// the same zero skip; a repeated partial row is the bits each of its
    /// `g` copies would have folded. Locked by `ops::tests::
    /// repeat_concat_matmul_matches_hconcat_then_matmul_bitwise`,
    /// `every_gnn_kind_matches_the_tape_bitwise` and the conformance suite.
    fn repeat_concat_matmul(
        &mut self,
        params: &EngineParams,
        target: Arc<Matrix>,
        neighbors: Arc<Matrix>,
        g: usize,
        w: ParamId,
    ) -> Arc<Matrix> {
        Arc::new(ops::repeat_concat_matmul(&target, &neighbors, g, params.values.value(w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_autograd::{Graph, ParamStore};
    use agnn_core::gnn::GnnLayer;
    use agnn_core::interaction::{AttrInteraction, AttrLists};
    use agnn_core::GnnKind;
    use agnn_tensor::SparseVec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// The store's values as the engine holds them: pushed in registration
    /// order, so every `ParamId` names the same parameter in both.
    fn engine_params(store: &ParamStore, attr_tables: &[ParamId]) -> EngineParams {
        let mut table = ParamTable::default();
        for id in store.ids() {
            table.push(store.value(id).clone());
        }
        EngineParams::new(table, attr_tables)
    }

    #[test]
    fn attr_sums_match_the_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let layer = AttrInteraction::new(&mut store, "u", 6, 4, 0.01, &mut rng);
        // Exact zeros and a negative zero in the table, where a skipped or
        // reordered multiply would show.
        let table = layer.table;
        let values = store.value_mut(table).as_mut_slice();
        values[0] = 0.0;
        values[5] = -0.0;
        let params = engine_params(&store, &[table]);
        let lists = AttrLists::from_sparse(&[
            SparseVec::multi_hot(6, [0u32, 1, 5]),
            SparseVec::multi_hot(6, [] as [u32; 0]),
            SparseVec::multi_hot(6, [1u32]),
            SparseVec::multi_hot(6, [2u32, 3, 4, 5]),
        ]);
        for nodes in [vec![0, 1, 2, 3], vec![3, 3, 0], vec![1]] {
            let (flat, offsets) = lists.flatten(&nodes);
            let mut g = Graph::new();
            let (sum, sum_sq) = g.attr_sums(&store, table, Rc::clone(&flat), Rc::clone(&offsets));
            let (e_sum, e_sum_sq) = Eager.attr_sums(&params, table, flat, offsets);
            assert_eq!(bits(g.value(sum)), bits(&e_sum), "{nodes:?}");
            assert_eq!(bits(g.value(sum_sq)), bits(&e_sum_sq), "{nodes:?}");
            // The whole layer, around the coarse op.
            let x = layer.forward(&mut g, &store, &lists, &nodes);
            let e_x = layer.forward(&mut Eager, &params, &lists, &nodes);
            assert_eq!(bits(g.value(x)), bits(&e_x), "{nodes:?}");
        }
    }

    #[test]
    fn every_gnn_kind_matches_the_tape_bitwise() {
        let kinds = [
            GnnKind::Gated,
            GnnKind::GatedNoAggregateGate,
            GnnKind::GatedNoFilterGate,
            GnnKind::None,
            GnnKind::Gcn,
            GnnKind::Gat,
        ];
        let target = Matrix::from_fn(3, 4, |r, c| (r as f32 - c as f32) * 0.3 + 0.05);
        let neighbors = Matrix::from_fn(6, 4, |r, c| ((r * 4 + c) as f32 * 0.37).sin());
        for kind in kinds {
            let mut rng = StdRng::seed_from_u64(9);
            let mut store = ParamStore::new();
            let layer = GnnLayer::new(&mut store, "g", 4, kind, 0.01, &mut rng);
            let params = engine_params(&store, &[]);
            let mut g = Graph::new();
            let (t, n) = (g.constant(target.clone()), g.constant(neighbors.clone()));
            let out = layer.forward(&mut g, &store, t, n, 2);
            let e_out = layer.forward(&mut Eager, &params, Arc::new(target.clone()), Arc::new(neighbors.clone()), 2);
            assert_eq!(bits(g.value(out)), bits(&e_out), "{kind:?}");
        }
    }
}
