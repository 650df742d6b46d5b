//! Fig. 7 — impact of the candidate-pool threshold p ∈ {1, 5, 10, 15, 20}
//! (D = 40, λ = 1 fixed). The paper finds the curves essentially flat.

use agnn_bench::runner::run_knob_sweep;
use agnn_bench::HarnessArgs;

fn main() {
    let args = HarnessArgs::parse(std::env::args());
    run_knob_sweep(&args, 7, "p", "p", &[1.0f32, 5.0, 10.0, 15.0, 20.0], |cfg, p| cfg.top_percent = p);
}
