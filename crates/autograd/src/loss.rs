//! Composed loss functions.
//!
//! Each returns a `1 × 1` tape node; they are compositions of the primitive
//! ops in [`crate::graph`], so their adjoints come for free and are covered
//! by the same gradcheck machinery.

use crate::{Graph, Ops, Var};

/// Mean squared error between two `m × n` nodes.
pub fn mse(g: &mut Graph, pred: Var, target: Var) -> Var {
    let diff = g.sub(pred, target);
    let sq = g.square(diff);
    g.mean_all(sq)
}

/// Sum of squared errors (the paper's Eq. 16 uses an unscaled sum).
pub fn sse(g: &mut Graph, pred: Var, target: Var) -> Var {
    let diff = g.sub(pred, target);
    let sq = g.square(diff);
    g.sum_all(sq)
}

/// Mean absolute error.
pub fn mae(g: &mut Graph, pred: Var, target: Var) -> Var {
    let diff = g.sub(pred, target);
    let a = g.abs(diff);
    g.mean_all(a)
}

/// KL divergence `KL(N(μ, diag(σ²)) ‖ N(0, I))` summed over dims, averaged
/// over the batch. `logvar` parameterizes `log σ²` (the standard VAE trick).
///
/// Per element: `-0.5 · (1 + logvar − μ² − exp(logvar))`.
pub fn gaussian_kl(g: &mut Graph, mu: Var, logvar: Var) -> Var {
    let mu2 = g.square(mu);
    let evar = g.exp(logvar);
    let one_plus = g.add_scalar(logvar, 1.0);
    let t = g.sub(one_plus, mu2);
    let t = g.sub(t, evar);
    let per_row = g.sum_cols(t); // m × 1: sum over latent dims
    let total = g.mean_all(per_row); // average over batch
    g.scale(total, -0.5)
}

/// Mean over the batch of the row-wise Euclidean distance `‖a_i − b_i‖₂`
/// (the eVAE approximation term of Eq. 8).
pub fn mean_row_l2(g: &mut Graph, a: Var, b: Var) -> Var {
    let diff = g.sub(a, b);
    let sq = g.square(diff);
    let per_row = g.sum_cols(sq);
    let norms = g.sqrt_eps(per_row, 1e-8);
    g.mean_all(norms)
}

/// Gaussian reconstruction log-likelihood surrogate: mean squared error
/// between the reconstruction and its target (`-log p(x'|z)` up to constants
/// for a fixed-variance Gaussian decoder).
pub fn gaussian_recon_nll(g: &mut Graph, recon: Var, target: Var) -> Var {
    mse(g, recon, target)
}

/// Binary cross-entropy with logits, averaged over all elements.
///
/// Uses the numerically stable form
/// `max(x, 0) − x·t + ln(1 + exp(−|x|))`.
pub fn bce_with_logits(g: &mut Graph, logits: Var, targets: Var) -> Var {
    // max(x, 0) = relu(x)
    let relu_x = g.relu(logits);
    let xt = g.mul(logits, targets);
    let term1 = g.sub(relu_x, xt);
    // ln(1 + exp(-|x|))
    let absx = g.abs(logits);
    let neg_absx = g.neg(absx);
    let e = g.exp(neg_absx);
    let one_plus = g.add_scalar(e, 1.0);
    let log_term = g.ln(one_plus);
    let total = g.add(term1, log_term);
    g.mean_all(total)
}

/// Weighted sum of scalar losses: `Σ wᵢ·lᵢ`.
pub fn weighted_sum(g: &mut Graph, terms: &[(f32, Var)]) -> Var {
    assert!(!terms.is_empty(), "weighted_sum of zero terms");
    let mut acc = g.scale(terms[0].1, terms[0].0);
    for &(w, t) in &terms[1..] {
        let wt = g.scale(t, w);
        acc = g.add(acc, wt);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_tensor::Matrix;

    #[test]
    fn mse_and_mae_values() {
        let mut g = Graph::new();
        let p = g.leaf(Matrix::row_vector(vec![1.0, 2.0]));
        let t = g.constant(Matrix::row_vector(vec![0.0, 4.0]));
        let l1 = mse(&mut g, p, t);
        assert!((g.scalar(l1) - 2.5).abs() < 1e-6); // (1 + 4) / 2
        let l2 = mae(&mut g, p, t);
        assert!((g.scalar(l2) - 1.5).abs() < 1e-6); // (1 + 2) / 2
        let l3 = sse(&mut g, p, t);
        assert!((g.scalar(l3) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn kl_zero_at_standard_normal() {
        let mut g = Graph::new();
        let mu = g.leaf(Matrix::zeros(3, 4));
        let logvar = g.leaf(Matrix::zeros(3, 4));
        let kl = gaussian_kl(&mut g, mu, logvar);
        assert!(g.scalar(kl).abs() < 1e-6);
    }

    #[test]
    fn kl_positive_away_from_prior() {
        let mut g = Graph::new();
        let mu = g.leaf(Matrix::full(2, 3, 1.0));
        let logvar = g.leaf(Matrix::full(2, 3, -1.0));
        let kl = gaussian_kl(&mut g, mu, logvar);
        // closed form per element: -0.5(1 + (-1) - 1 - e^{-1}) = 0.5(1 + e^{-1})
        let expected = 3.0 * 0.5 * (1.0 + (-1.0f32).exp());
        assert!((g.scalar(kl) - expected).abs() < 1e-4, "{} vs {}", g.scalar(kl), expected);
    }

    #[test]
    fn mean_row_l2_matches_hand_computation() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]));
        let b = g.constant(Matrix::zeros(2, 2));
        let l = mean_row_l2(&mut g, a, b);
        assert!((g.scalar(l) - 2.5).abs() < 1e-4); // (5 + 0) / 2
    }

    #[test]
    fn bce_matches_reference() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row_vector(vec![0.0, 2.0, -3.0]));
        let t = g.constant(Matrix::row_vector(vec![1.0, 1.0, 0.0]));
        let l = bce_with_logits(&mut g, x, t);
        let reference = |x: f32, t: f32| x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
        let expected = (reference(0.0, 1.0) + reference(2.0, 1.0) + reference(-3.0, 0.0)) / 3.0;
        assert!((g.scalar(l) - expected).abs() < 1e-5);
        // BCE is stable on extreme logits.
        let mut g2 = Graph::new();
        let x2 = g2.leaf(Matrix::row_vector(vec![50.0, -50.0]));
        let t2 = g2.constant(Matrix::row_vector(vec![1.0, 0.0]));
        let l2 = bce_with_logits(&mut g2, x2, t2);
        assert!(g2.scalar(l2).is_finite());
        g2.backward(l2);
        assert!(g2.grad(x2).unwrap().all_finite());
    }

    #[test]
    fn weighted_sum_combines() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::full(1, 1, 2.0));
        let b = g.leaf(Matrix::full(1, 1, 3.0));
        let s = weighted_sum(&mut g, &[(1.0, a), (10.0, b)]);
        assert!((g.scalar(s) - 32.0).abs() < 1e-6);
    }
}
