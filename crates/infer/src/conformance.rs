//! Bit-identity conformance: the tape-free engine must reproduce the
//! training-tape forward **exactly** (`f32::to_bits`), for every model
//! variant, cached or not.
//!
//! The checks here fit a real model on the tracer dataset, export + JSON
//! round-trip a snapshot (the exact path `agnn serve` takes), and compare
//! `Agnn::predict_batch` against [`InferenceEngine::score_batch`] pairwise.
//! Approximate agreement would hide real bugs behind float noise; exact
//! agreement means the engine *is* the model.

use crate::InferenceEngine;
use agnn_core::variants::VariantName;
use agnn_core::{Agnn, AgnnConfig, ModelSnapshot, RatingModel};
use agnn_data::tracer;

/// Compares tape and tape-free scores bit for bit; `Err` describes the
/// first mismatch.
pub fn assert_bit_identical(model: &Agnn, engine: &InferenceEngine, pairs: &[(u32, u32)], label: &str) -> Result<(), String> {
    let tape = model.predict_batch(pairs);
    let free = engine.score_batch(pairs);
    if tape.len() != free.len() {
        return Err(format!("{label}: tape returned {} scores, engine {}", tape.len(), free.len()));
    }
    for (i, (t, f)) in tape.iter().zip(&free).enumerate() {
        if t.to_bits() != f.to_bits() {
            return Err(format!(
                "{label}: pair {:?} (index {i}): tape {t:?} ({:#010x}) vs engine {f:?} ({:#010x})",
                pairs[i],
                t.to_bits(),
                f.to_bits()
            ));
        }
    }
    Ok(())
}

/// A small config that exercises the full pipeline quickly on tracer.
pub fn tracer_config(variant: VariantName) -> AgnnConfig {
    AgnnConfig {
        embed_dim: 8,
        vae_latent_dim: 4,
        fanout: 3,
        epochs: 2,
        batch_size: 2,
        variant: variant.variant(),
        ..AgnnConfig::default()
    }
}

/// Fits `variant` on tracer, round-trips a snapshot through its JSON
/// encoding, and checks bit-identity for a multi-chunk pair batch — first
/// computing embeddings fresh per request, then again from the materialized
/// all-node cache.
pub fn check_tracer_variant(variant: VariantName) -> Result<(), String> {
    let data = tracer::dataset();
    let split = tracer::split(&data);
    let mut model = Agnn::new(tracer_config(variant));
    model.fit(&data, &split);

    let snap = model.export_snapshot().map_err(|e| e.to_string())?;
    let snap = ModelSnapshot::from_json_str(&snap.to_json_string()).map_err(|e| e.to_string())?;
    let mut engine = InferenceEngine::from_snapshot(&snap).map_err(|e| e.to_string())?;

    // Every user×item pair, tiled past the 512-pair chunk size so the
    // chunking logic and the rng stream across chunks are both exercised.
    let base: Vec<(u32, u32)> = (0..data.num_users as u32)
        .flat_map(|u| (0..data.num_items as u32).map(move |i| (u, i)))
        .collect();
    let pairs: Vec<(u32, u32)> = base.iter().cycle().take(520).copied().collect();

    let label = variant.label();
    for materialized in [false, true] {
        if materialized {
            engine.materialize();
        }
        let stage = if materialized { "cached" } else { "fresh" };
        assert_bit_identical(&model, &engine, &pairs, &format!("{label} [{stage}]"))?;
    }
    Ok(())
}
