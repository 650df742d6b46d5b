//! Fig. 6 — impact of the reconstruction-loss weight λ ∈ {0, 0.01, 0.1, 1, 10}
//! (D = 40, p = 5 fixed).

use agnn_bench::runner::run_knob_sweep;
use agnn_bench::HarnessArgs;

fn main() {
    let args = HarnessArgs::parse(std::env::args());
    run_knob_sweep(&args, 6, "lambda", "λ", &[0.0f32, 0.01, 0.1, 1.0, 10.0], |cfg, lambda| cfg.lambda = lambda);
}
