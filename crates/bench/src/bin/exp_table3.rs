//! Table 3 — ablation study: proximity signals, gates, eVAE.

use agnn_bench::runner::run_variant_table;
use agnn_bench::HarnessArgs;
use agnn_core::variants::VariantName;

fn main() {
    run_variant_table(&HarnessArgs::parse(std::env::args()), 3, "ablation", &VariantName::TABLE3);
}
