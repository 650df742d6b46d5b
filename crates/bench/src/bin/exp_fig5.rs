//! Fig. 5 — impact of the latent vector dimension D ∈ {10, 20, 30, 40, 50}
//! on strict cold start RMSE (λ = 1, p = 5 fixed).

use agnn_bench::runner::run_knob_sweep;
use agnn_bench::HarnessArgs;

fn main() {
    let args = HarnessArgs::parse(std::env::args());
    run_knob_sweep(&args, 5, "D", "D", &[10usize, 20, 30, 40, 50], |cfg, d| {
        cfg.embed_dim = d;
        cfg.vae_latent_dim = (d / 2).max(2);
    });
}
