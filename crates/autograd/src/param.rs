//! Trainable parameters with their gradient and Adam state, and the
//! registration interface layer constructors declare them through.

use agnn_tensor::{ops, Matrix};
use std::sync::Arc;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

pub(crate) struct Param {
    name: String,
    value: Matrix,
    grad: Matrix,
    /// Adam first moment.
    pub(crate) m: Matrix,
    /// Adam second moment.
    pub(crate) v: Matrix,
    /// Frozen parameters keep their gradient but are skipped by optimizers
    /// (used by meta-learning baselines during adaptation phases).
    frozen: bool,
}

/// Where layer constructors declare their parameters. A [`ParamStore`]
/// initialises each one for training; a forward-only loader instead looks
/// it up by name and checks it has the declared shape, filling a
/// [`ParamTable`].
pub trait Registry {
    /// Declares the `rows × cols` parameter `name`; `init` draws its initial
    /// value (a loader does not call it).
    fn register(&mut self, name: String, rows: usize, cols: usize, init: impl FnOnce() -> Matrix) -> ParamId;
}

/// Parameter values by [`ParamId`], with no gradient or optimizer state:
/// what a forward-only consumer holds. Values are shared, so forwards on
/// any number of threads read them without copying.
#[derive(Default)]
pub struct ParamTable {
    values: Vec<Arc<Matrix>>,
}

impl ParamTable {
    /// Appends a value and returns its handle.
    pub fn push(&mut self, value: Matrix) -> ParamId {
        self.values.push(Arc::new(value));
        ParamId(self.values.len() - 1)
    }

    /// The value behind `id`.
    pub fn value(&self, id: ParamId) -> &Arc<Matrix> {
        &self.values[id.0]
    }
}

/// Owns every trainable matrix of a model plus per-parameter optimizer state.
#[derive(Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let (r, c) = value.shape();
        self.params.push(Param {
            name: name.into(),
            value,
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
            frozen: false,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True iff no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Handles of all registered parameters.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Current value.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable value (used by optimizers and by tests that perturb weights).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].value
    }

    /// Current accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].grad
    }

    /// Adds `delta` into the parameter's gradient.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &Matrix) {
        ops::axpy(&mut self.params[id.0].grad, 1.0, delta);
    }

    /// Scatter-adds `delta`'s rows into the gradient at `rows`.
    pub fn accumulate_grad_rows(&mut self, id: ParamId, rows: &[usize], delta: &Matrix) {
        self.params[id.0].grad.scatter_add_rows(rows, delta);
    }

    /// Zeroes every gradient (call after an optimizer step).
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.as_mut_slice().fill(0.0);
        }
    }

    /// Freezes/unfreezes a parameter for optimizer updates.
    pub fn set_frozen(&mut self, id: ParamId, frozen: bool) {
        self.params[id.0].frozen = frozen;
    }

    /// Whether a parameter is frozen.
    pub fn is_frozen(&self, id: ParamId) -> bool {
        self.params[id.0].frozen
    }

    /// Global L2 norm over all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| {
                let n = p.grad.frobenius_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Rescales all gradients so their global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for p in &mut self.params {
                for g in p.grad.as_mut_slice() {
                    *g *= s;
                }
            }
        }
    }

    /// Snapshot of every parameter value (for meta-learning rollbacks).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }

    /// Restores values from a [`ParamStore::snapshot`].
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        assert_eq!(snapshot.len(), self.params.len(), "restore: snapshot of {} params into store of {}", snapshot.len(), self.params.len());
        for (p, s) in self.params.iter_mut().zip(snapshot) {
            assert_eq!(p.value.shape(), s.shape(), "restore: shape mismatch for {}", p.name);
            p.value = s.clone();
        }
    }

}

impl Registry for ParamStore {
    fn register(&mut self, name: String, rows: usize, cols: usize, init: impl FnOnce() -> Matrix) -> ParamId {
        let value = init();
        assert_eq!(value.shape(), (rows, cols), "register: `{name}` initialised as {:?}", value.shape());
        self.add(name, value)
    }
}

impl Param {
    pub(crate) fn is_frozen(&self) -> bool {
        self.frozen
    }
    pub(crate) fn value_grad_mut(&mut self) -> (&mut Matrix, &Matrix, &mut Matrix, &mut Matrix) {
        (&mut self.value, &self.grad, &mut self.m, &mut self.v)
    }
}

impl ParamStore {
    pub(crate) fn params_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        self.params.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = ParamStore::new();
        let id = s.add("w", Matrix::ones(2, 2));
        assert_eq!(s.name(id), "w");
        assert_eq!(s.value(id).as_slice(), &[1.0; 4]);
        assert_eq!(s.grad(id).as_slice(), &[0.0; 4]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn grad_accumulation_and_zero() {
        let mut s = ParamStore::new();
        let id = s.add("w", Matrix::zeros(1, 2));
        s.accumulate_grad(id, &Matrix::row_vector(vec![1.0, 2.0]));
        s.accumulate_grad(id, &Matrix::row_vector(vec![1.0, 2.0]));
        assert_eq!(s.grad(id).as_slice(), &[2.0, 4.0]);
        s.zero_grads();
        assert_eq!(s.grad(id).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn rows_accumulation() {
        let mut s = ParamStore::new();
        let id = s.add("emb", Matrix::zeros(3, 2));
        s.accumulate_grad_rows(id, &[2, 2], &Matrix::from_vec(2, 2, vec![1., 1., 2., 2.]));
        assert_eq!(s.grad(id).row(2), &[3.0, 3.0]);
        assert_eq!(s.grad(id).row(0), &[0.0, 0.0]);
    }

    #[test]
    fn clip_caps_global_norm() {
        let mut s = ParamStore::new();
        let id = s.add("w", Matrix::zeros(1, 2));
        s.accumulate_grad(id, &Matrix::row_vector(vec![3.0, 4.0]));
        s.clip_grad_norm(1.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-5);
        // Clipping below the cap is a no-op.
        s.clip_grad_norm(10.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "`w` initialised as (2, 3)")]
    fn registration_checks_the_declared_shape() {
        let mut s = ParamStore::new();
        let id = s.register("b".into(), 1, 3, || Matrix::zeros(1, 3));
        assert_eq!(s.value(id).shape(), (1, 3));
        s.register("w".into(), 3, 2, || Matrix::zeros(2, 3));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = ParamStore::new();
        let id = s.add("w", Matrix::ones(1, 2));
        let snap = s.snapshot();
        s.value_mut(id).as_mut_slice().fill(9.0);
        s.restore(&snap);
        assert_eq!(s.value(id).as_slice(), &[1.0, 1.0]);
    }
}
