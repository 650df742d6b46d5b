//! Table 4 — replacement study: graph constructions, aggregators, cold-start modules swapped for baseline techniques.

use agnn_bench::runner::run_variant_table;
use agnn_bench::HarnessArgs;
use agnn_core::variants::VariantName;

fn main() {
    run_variant_table(&HarnessArgs::parse(std::env::args()), 4, "replacement", &VariantName::TABLE4);
}
