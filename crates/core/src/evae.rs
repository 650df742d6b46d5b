//! The extended variational auto-encoder (§3.3.3, Fig. 3b, Eq. 8).
//!
//! Standard VAE over the attribute embedding `x` (inference network → latent
//! `z` → generation network → reconstruction `x'`), *extended* with an
//! approximation constraint pulling `x'` toward the node's preference
//! embedding `m`. At test time a strict cold node's preference embedding is
//! generated deterministically as `x' = decode(μ(x))`.

use agnn_autograd::nn::Linear;
use agnn_autograd::{loss, Graph, Ops, ParamStore, Registry, Var};
use agnn_tensor::{init, Matrix};
use rand::Rng;

/// eVAE parameters for one side (users or items).
#[derive(Clone, Debug)]
pub struct EVae {
    enc_mu: Linear,
    enc_logvar: Linear,
    dec: Linear,
    latent_dim: usize,
}

/// Training-time outputs of the eVAE.
pub struct EVaeForward {
    /// Reconstruction `x'` (one row per batch node).
    pub recon: Var,
    /// KL divergence term (scalar).
    pub kl: Var,
    /// Gaussian reconstruction term `‖x' − x‖²` (scalar).
    pub recon_nll: Var,
}

impl EVae {
    /// Registers encoder/decoder parameters.
    pub fn new(store: &mut impl Registry, name: &str, embed_dim: usize, latent_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            enc_mu: Linear::new(store, &format!("{name}.enc_mu"), embed_dim, latent_dim, rng),
            enc_logvar: Linear::new(store, &format!("{name}.enc_logvar"), embed_dim, latent_dim, rng),
            dec: Linear::new(store, &format!("{name}.dec"), latent_dim, embed_dim, rng),
            latent_dim,
        }
    }

    /// Latent width.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Encodes `x` into `(μ, logvar)`. The raw log-variance is squashed
    /// through `4·tanh(·/4)` — identity near 0 but bounded in (−4, 4), which
    /// keeps `exp(logvar)` finite early in training.
    pub fn encode(&self, g: &mut Graph, store: &ParamStore, x: Var) -> (Var, Var) {
        let mu = self.enc_mu.forward(g, store, x);
        let raw = self.enc_logvar.forward(g, store, x);
        let scaled = g.scale(raw, 0.25);
        let t = g.tanh(scaled);
        let logvar = g.scale(t, 4.0);
        (mu, logvar)
    }

    /// Decodes latent `z` into a reconstruction (linear output — preference
    /// embeddings are unbounded).
    pub fn decode(&self, g: &mut Graph, store: &ParamStore, z: Var) -> Var {
        self.dec.forward(g, store, z)
    }

    /// Full stochastic pass with the reparameterization trick
    /// `z = μ + ε ⊙ σ`, `ε ~ N(0, I)`.
    pub fn forward_train(&self, g: &mut Graph, store: &ParamStore, x: Var, rng: &mut impl Rng) -> EVaeForward {
        let (mu, logvar) = self.encode(g, store, x);
        let rows = g.value(mu).rows();
        let eps = g.constant(init::standard_normal(rows, self.latent_dim, rng));
        let half_logvar = g.scale(logvar, 0.5);
        let sigma = g.exp(half_logvar);
        let noise = g.mul(eps, sigma);
        let z = g.add(mu, noise);
        let recon = self.decode(g, store, z);
        let kl = loss::gaussian_kl(g, mu, logvar);
        let recon_nll = loss::gaussian_recon_nll(g, recon, x);
        EVaeForward { recon, kl, recon_nll }
    }

    /// Deterministic generation for inference: `x' = decode(μ(x))`. The
    /// log-variance head serves only training-time sampling and the KL
    /// term, so generation does not compute it.
    pub fn generate<O: Ops>(&self, o: &mut O, params: &O::Params, x: O::Value) -> O::Value {
        let mu = self.enc_mu.forward(o, params, x);
        self.dec.forward(o, params, mu)
    }

    /// The approximation term of Eq. 8, masked to warm rows: cold nodes'
    /// preference embeddings are untrained noise and must not act as
    /// targets. `warm` has one 0/1 entry per batch row; the result is the
    /// mean row-L2 distance over warm rows (0 if none are warm).
    pub fn approximation_loss(g: &mut Graph, recon: Var, preference: Var, warm: &[f32]) -> Var {
        let rows = g.value(recon).rows();
        assert_eq!(warm.len(), rows, "warm mask of {} for {} rows", warm.len(), rows);
        let warm_count: f32 = warm.iter().sum();
        if warm_count == 0.0 {
            return g.constant(Matrix::zeros(1, 1));
        }
        let mask = g.constant(Matrix::col_vector(warm.to_vec()));
        let diff = g.sub(recon, preference);
        let masked = g.mul_col_broadcast(diff, mask);
        let sq = g.square(masked);
        let per_row = g.sum_cols(sq);
        let norms = g.sqrt_eps(per_row, 1e-8);
        let total = g.sum_all(norms);
        g.scale(total, 1.0 / warm_count)
    }
}

/// Shared helper: a 0/1 warm-row mask from per-node cold flags.
pub fn warm_mask(cold: &[bool], nodes: &[usize]) -> Vec<f32> {
    nodes.iter().map(|&n| if cold[n] { 0.0 } else { 1.0 }).collect()
}

/// Shared helper: blends preference rows for warm nodes with generated rows
/// for cold nodes: `m ⊙ warm + gen ⊙ (1 − warm)` (column-broadcast masks).
pub fn blend_preference<O: Ops>(o: &mut O, preference: O::Value, generated: O::Value, warm: &[f32]) -> O::Value {
    let warm_col = o.constant(Matrix::col_vector(warm.to_vec()));
    let cold_col = o.constant(Matrix::col_vector(warm.iter().map(|w| 1.0 - w).collect()));
    let keep = o.mul_col_broadcast(preference, warm_col);
    let gen = o.mul_col_broadcast(generated, cold_col);
    o.add(keep, gen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::rc::Rc as StdRc;

    fn setup() -> (ParamStore, EVae) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let vae = EVae::new(&mut store, "u", 6, 3, &mut rng);
        (store, vae)
    }

    #[test]
    fn shapes_and_finiteness() {
        let (store, vae) = setup();
        let mut g = Graph::new();
        let x = g.constant(Matrix::from_fn(4, 6, |r, c| (r as f32 - c as f32) * 0.2));
        let mut rng = StdRng::seed_from_u64(1);
        let out = vae.forward_train(&mut g, &store, x, &mut rng);
        assert_eq!(g.value(out.recon).shape(), (4, 6));
        assert!(g.scalar(out.kl) >= -1e-5, "KL must be non-negative: {}", g.scalar(out.kl));
        assert!(g.scalar(out.recon_nll) >= 0.0);
    }

    #[test]
    fn generate_is_deterministic() {
        let (store, vae) = setup();
        let xm = Matrix::from_fn(2, 6, |r, c| (r + c) as f32 * 0.1);
        let run = || {
            let mut g = Graph::new();
            let x = g.constant(xm.clone());
            let out = vae.generate(&mut g, &store, x);
            g.value(out).clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn logvar_bounded() {
        let (store, vae) = setup();
        let mut g = Graph::new();
        // Extreme inputs cannot blow up exp(logvar).
        let x = g.constant(Matrix::full(2, 6, 1e4));
        let (_, logvar) = vae.encode(&mut g, &store, x);
        assert!(g.value(logvar).as_slice().iter().all(|v| v.abs() <= 4.0 + 1e-5));
    }

    #[test]
    fn approximation_masks_cold_rows() {
        let mut g = Graph::new();
        let recon = g.leaf(Matrix::from_vec(2, 2, vec![1.0, 0.0, 100.0, 100.0]));
        let pref = g.constant(Matrix::zeros(2, 2));
        // Row 1 is cold → its huge error must not contribute.
        let l = EVae::approximation_loss(&mut g, recon, pref, &[1.0, 0.0]);
        // Cold rows contribute only sqrt(eps) ≈ 1e-4 apiece.
        assert!((g.scalar(l) - 1.0).abs() < 1e-3, "loss {}", g.scalar(l));
        // All-cold batch: zero loss, no panic.
        let mut g2 = Graph::new();
        let recon2 = g2.leaf(Matrix::ones(2, 2));
        let pref2 = g2.constant(Matrix::zeros(2, 2));
        let l2 = EVae::approximation_loss(&mut g2, recon2, pref2, &[0.0, 0.0]);
        assert_eq!(g2.scalar(l2), 0.0);
    }

    #[test]
    fn blend_selects_rows() {
        let mut g = Graph::new();
        let pref = g.constant(Matrix::from_vec(2, 2, vec![1.0, 1.0, 2.0, 2.0]));
        let gen = g.constant(Matrix::from_vec(2, 2, vec![9.0, 9.0, 8.0, 8.0]));
        let out = blend_preference(&mut g, pref, gen, &[1.0, 0.0]);
        assert_eq!(g.value(out).row(0), &[1.0, 1.0]);
        assert_eq!(g.value(out).row(1), &[8.0, 8.0]);
    }

    #[test]
    fn gradcheck_evae_loss() {
        use agnn_autograd::gradcheck::check_all_params;
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let vae = EVae::new(&mut store, "u", 4, 2, &mut rng);
        let xm = Matrix::from_fn(3, 4, |r, c| ((r * 5 + c) as f32 * 0.37).sin());
        let pref = Matrix::from_fn(3, 4, |r, c| ((r + c) as f32 * 0.21).cos());
        let eps = init::standard_normal(3, 2, &mut rng);
        let eps = StdRc::new(eps);
        check_all_params(&mut store, 2e-3, 3e-2, move |g, s| {
            let x = g.constant(xm.clone());
            let (mu, logvar) = vae.encode(g, s, x);
            // Deterministic reparameterization with fixed eps.
            let e = g.constant((*eps).clone());
            let hl = g.scale(logvar, 0.5);
            let sigma = g.exp(hl);
            let noise = g.mul(e, sigma);
            let z = g.add(mu, noise);
            let recon = vae.decode(g, s, z);
            let kl = loss::gaussian_kl(g, mu, logvar);
            let nll = loss::gaussian_recon_nll(g, recon, x);
            let pv = g.constant(pref.clone());
            let approx = EVae::approximation_loss(g, recon, pv, &[1.0, 1.0, 0.0]);
            loss::weighted_sum(g, &[(1.0, kl), (1.0, nll), (1.0, approx)])
        });

    }
}
