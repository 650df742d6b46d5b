//! First-order optimizers over a [`ParamStore`].

use crate::param::ParamStore;

/// Plain stochastic gradient descent with optional weight decay.
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// L2 weight decay coefficient (0 disables).
    pub weight_decay: f32,
}

impl Sgd {
    /// SGD with the given learning rate and no weight decay.
    pub fn with_lr(lr: f32) -> Self {
        Self { lr, weight_decay: 0.0 }
    }

    /// Applies one update `θ ← θ − lr·(g + wd·θ)` and zeroes gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        for p in store.params_mut() {
            if p.is_frozen() {
                continue;
            }
            let (value, grad, _, _) = p.value_grad_mut();
            for (v, &g) in value.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                *v -= self.lr * (g + self.weight_decay * *v);
            }
        }
        store.zero_grads();
    }
}

/// Adam (Kingma & Ba 2015) — the paper's optimizer, with its defaults
/// β₁=0.9, β₂=0.999, ε=1e-8 and the paper's learning rate 5e-4.
pub struct Adam {
    /// Learning rate (paper: 5e-4).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    /// L2 weight decay coefficient (0 disables).
    pub weight_decay: f32,
    t: u64,
}

impl Default for Adam {
    fn default() -> Self {
        Self::with_lr(5e-4)
    }
}

impl Adam {
    /// Adam with standard betas and the given learning rate.
    pub fn with_lr(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0, t: 0 }
    }

    /// Sets L2 weight decay (builder style).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one bias-corrected Adam update and zeroes gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in store.params_mut() {
            if p.is_frozen() {
                continue;
            }
            let (value, grad, m, v) = p.value_grad_mut();
            let (b1, b2, eps, lr, wd) = (self.beta1, self.beta2, self.eps, self.lr, self.weight_decay);
            for i in 0..value.len() {
                let g = grad.as_slice()[i] + wd * value.as_slice()[i];
                let mi = b1 * m.as_slice()[i] + (1.0 - b1) * g;
                let vi = b2 * v.as_slice()[i] + (1.0 - b2) * g * g;
                m.as_mut_slice()[i] = mi;
                v.as_mut_slice()[i] = vi;
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                value.as_mut_slice()[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ops;
    use crate::{loss, Graph};
    use agnn_tensor::Matrix;

    fn quadratic_loss(store: &ParamStore, id: crate::ParamId) -> (Graph, crate::Var) {
        // loss = sum((w - 3)^2)
        let mut g = Graph::new();
        let w = g.param_full(store, id);
        let target = g.constant(Matrix::full(1, 2, 3.0));
        let diff = g.sub(w, target);
        let sq = g.square(diff);
        let l = g.sum_all(sq);
        (g, l)
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::zeros(1, 2));
        let mut opt = Sgd::with_lr(0.1);
        for _ in 0..100 {
            let (mut g, l) = quadratic_loss(&store, id);
            g.backward(l);
            g.grads_into(&mut store);
            opt.step(&mut store);
        }
        assert!(store.value(id).as_slice().iter().all(|v| (v - 3.0).abs() < 1e-3));
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::zeros(1, 2));
        let mut opt = Adam::with_lr(0.2);
        for _ in 0..300 {
            let (mut g, l) = quadratic_loss(&store, id);
            g.backward(l);
            g.grads_into(&mut store);
            opt.step(&mut store);
        }
        assert!(store.value(id).as_slice().iter().all(|v| (v - 3.0).abs() < 1e-2), "{:?}", store.value(id));
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn frozen_params_do_not_move() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::zeros(1, 2));
        store.set_frozen(id, true);
        let mut opt = Adam::with_lr(0.5);
        let (mut g, l) = quadratic_loss(&store, id);
        g.backward(l);
        g.grads_into(&mut store);
        opt.step(&mut store);
        assert_eq!(store.value(id).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn adam_converges_on_linear_regression() {
        // y = 2x1 - x2 + 0.5, learn [w; b] by MSE.
        let mut store = ParamStore::new();
        let wid = store.add("w", Matrix::zeros(2, 1));
        let bid = store.add("b", Matrix::zeros(1, 1));
        let xs = Matrix::from_fn(32, 2, |r, c| ((r * 7 + c * 13) % 11) as f32 / 11.0 - 0.5);
        let ys = Matrix::col_vector(
            (0..32).map(|r| 2.0 * xs.get(r, 0) - xs.get(r, 1) + 0.5).collect(),
        );
        let mut opt = Adam::with_lr(0.05);
        for _ in 0..500 {
            let mut g = Graph::new();
            let x = g.constant(xs.clone());
            let w = g.param_full(&store, wid);
            let b = g.param_full(&store, bid);
            let wx = g.matmul(x, w);
            let pred = g.add_row_broadcast(wx, b);
            let t = g.constant(ys.clone());
            let l = loss::mse(&mut g, pred, t);
            g.backward(l);
            g.grads_into(&mut store);
            opt.step(&mut store);
        }
        let w = store.value(wid).as_slice();
        let b = store.value(bid).get(0, 0);
        assert!((w[0] - 2.0).abs() < 0.05, "w0={}", w[0]);
        assert!((w[1] + 1.0).abs() < 0.05, "w1={}", w[1]);
        assert!((b - 0.5).abs() < 0.05, "b={b}");
    }
}
