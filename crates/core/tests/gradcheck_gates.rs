//! Dedicated finite-difference gradchecks for the gated-GNN gates and the
//! eVAE reparameterization / approximation terms.
//!
//! The in-module tests sweep whole layers with `check_all_params`; these
//! isolate each gate's parameters and hold them to a tighter tolerance
//! (`eps` 3e-3, `tol` 1e-2 vs the module-level 3e-2), so a subtly wrong
//! adjoint in one gate cannot hide behind another parameter's healthy
//! gradient. Inputs are offset away from the leaky-ReLU kink so central
//! differences stay on one side of it.

use agnn_autograd::gradcheck::check_param;
use agnn_autograd::{loss, Graph, Ops, ParamId, ParamStore, Var};
use agnn_core::evae::EVae;
use agnn_core::gnn::GnnLayer;
use agnn_core::GnnKind;
use agnn_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f32 = 3e-3;
const TOL: f32 = 1e-2;

fn param_id(store: &ParamStore, name: &str) -> ParamId {
    let ids: Vec<ParamId> = store.ids().collect();
    ids.into_iter()
        .find(|&id| store.name(id) == name)
        .unwrap_or_else(|| panic!("parameter {name} not registered"))
}

/// Gradchecks each named parameter against `build` at the tightened
/// tolerance and sanity-checks the reported error magnitudes.
fn check_named(store: &mut ParamStore, names: &[&str], build: impl Fn(&mut Graph, &ParamStore) -> Var) {
    for name in names {
        let id = param_id(store, name);
        let report = check_param(store, id, EPS, TOL, &build);
        assert!(report.max_abs_err.is_finite() && report.max_rel_err.is_finite(), "{name}: {report:?}");
    }
}

fn gnn_inputs() -> (Matrix, Matrix) {
    let target = Matrix::from_fn(2, 3, |r, c| (r as f32 - c as f32) * 0.3 + 0.07);
    let neighbors = Matrix::from_fn(6, 3, |r, c| ((r * 3 + c) as f32 * 0.31).sin() * 0.4 + 0.05);
    (target, neighbors)
}

fn gnn_loss(layer: &GnnLayer, target: &Matrix, neighbors: &Matrix) -> impl Fn(&mut Graph, &ParamStore) -> Var {
    let (layer, target, neighbors) = (layer.clone(), target.clone(), neighbors.clone());
    move |g: &mut Graph, s: &ParamStore| {
        let tv = g.constant(target.clone());
        let nv = g.constant(neighbors.clone());
        let out = layer.forward(g, s, tv, nv, 3);
        let sq = g.square(out);
        g.sum_all(sq)
    }
}

/// Aggregate gate in isolation (`−fgate` ablation): only `W_a` is live, so
/// any error in the sigmoid-gate → mul → segment-mean adjoint chain lands
/// squarely on these two parameters.
#[test]
fn aggregate_gate_gradients_are_exact() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let layer = GnnLayer::new(&mut store, "g", 3, GnnKind::GatedNoFilterGate, 0.01, &mut rng);
    let (t, n) = gnn_inputs();
    check_named(&mut store, &["g.agate.w", "g.agate.b"], gnn_loss(&layer, &t, &n));
}

/// Filter gate in isolation (`−agate` ablation): the `1 − σ(W_f[p; mean])`
/// modulation of the target embedding.
#[test]
fn filter_gate_gradients_are_exact() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut store = ParamStore::new();
    let layer = GnnLayer::new(&mut store, "g", 3, GnnKind::GatedNoAggregateGate, 0.01, &mut rng);
    let (t, n) = gnn_inputs();
    check_named(&mut store, &["g.fgate.w", "g.fgate.b"], gnn_loss(&layer, &t, &n));
}

/// Full gated layer: both gates live at once, each parameter checked
/// individually so cross-gate interactions in Eq. 13's sum are covered.
#[test]
fn combined_gates_gradients_are_exact() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut store = ParamStore::new();
    let layer = GnnLayer::new(&mut store, "g", 3, GnnKind::Gated, 0.01, &mut rng);
    let (t, n) = gnn_inputs();
    check_named(&mut store, &["g.agate.w", "g.agate.b", "g.fgate.w", "g.fgate.b"], gnn_loss(&layer, &t, &n));
}

/// Reparameterization trick `z = μ + ε ⊙ exp(logvar/2)` with fixed ε:
/// gradients flow to μ both directly and through the KL term, and to
/// logvar through σ, the KL, and the tanh squash — every encoder/decoder
/// parameter must agree with finite differences.
#[test]
fn evae_reparameterization_gradients_are_exact() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut store = ParamStore::new();
    let vae = EVae::new(&mut store, "u", 4, 2, &mut rng);
    let xm = Matrix::from_fn(3, 4, |r, c| ((r * 5 + c) as f32 * 0.37).sin());
    let eps_m = init::standard_normal(3, 2, &mut rng);
    let build = {
        let (vae, xm, eps_m) = (vae.clone(), xm.clone(), eps_m.clone());
        move |g: &mut Graph, s: &ParamStore| {
            let x = g.constant(xm.clone());
            let (mu, logvar) = vae.encode(g, s, x);
            let e = g.constant(eps_m.clone());
            let hl = g.scale(logvar, 0.5);
            let sigma = g.exp(hl);
            let noise = g.mul(e, sigma);
            let z = g.add(mu, noise);
            let recon = vae.decode(g, s, z);
            let kl = loss::gaussian_kl(g, mu, logvar);
            let nll = loss::gaussian_recon_nll(g, recon, x);
            loss::weighted_sum(g, &[(1.0, kl), (1.0, nll)])
        }
    };
    check_named(
        &mut store,
        &["u.enc_mu.w", "u.enc_mu.b", "u.enc_logvar.w", "u.enc_logvar.b", "u.dec.w", "u.dec.b"],
        build,
    );
}

/// The Eq. 8 approximation term alone, through the deterministic generate
/// path `decode(μ(x))` with a mixed warm/cold mask: the masked row-L2 with
/// its `sqrt(·+1e-8)` adjoint must match finite differences (logvar is
/// intentionally absent — generate never touches it).
#[test]
fn evae_approximation_term_gradients_are_exact() {
    let mut rng = StdRng::seed_from_u64(22);
    let mut store = ParamStore::new();
    let vae = EVae::new(&mut store, "u", 4, 2, &mut rng);
    let xm = Matrix::from_fn(3, 4, |r, c| ((r + 2 * c) as f32 * 0.23).cos());
    let pref = Matrix::from_fn(3, 4, |r, c| (r as f32 + 1.0) * 0.4 - c as f32 * 0.2);
    let build = {
        let (vae, xm, pref) = (vae.clone(), xm.clone(), pref.clone());
        move |g: &mut Graph, s: &ParamStore| {
            let x = g.constant(xm.clone());
            let recon = vae.generate(g, s, x);
            let pv = g.constant(pref.clone());
            EVae::approximation_loss(g, recon, pv, &[1.0, 0.0, 1.0])
        }
    };
    check_named(&mut store, &["u.enc_mu.w", "u.enc_mu.b", "u.dec.w", "u.dec.b"], build);
}
