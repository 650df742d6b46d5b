//! Never-panic sweep over a trained snapshot file: a truncated or
//! byte-edited file goes through `ModelSnapshot::from_json_str` and, when
//! that succeeds, `InferenceEngine::from_snapshot`, and each ends in `Ok`
//! or `Err`, never a panic. Config fields that lie about the layer shapes,
//! and parameters whose own shape lies, are load errors.

use agnn_core::variants::VariantName;
use agnn_core::{Agnn, AgnnConfig, ModelSnapshot, ParamEntry, RatingModel};
use agnn_data::tracer;
use agnn_infer::conformance::tracer_config;
use agnn_infer::InferenceEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn load(text: &str) -> Result<InferenceEngine, String> {
    let snap = ModelSnapshot::from_json_str(text).map_err(|e| e.to_string())?;
    InferenceEngine::from_snapshot(&snap).map_err(|e| e.to_string())
}

#[test]
fn truncated_and_edited_snapshots_load_or_fail_without_panicking() {
    let data = tracer::dataset();
    let mut model = Agnn::new(AgnnConfig { epochs: 0, ..tracer_config(VariantName::Full) });
    model.fit(&data, &tracer::split(&data));
    let text = model.export_snapshot().unwrap().to_json_string();
    assert!(text.is_ascii());
    load(&text).unwrap();

    let end = text.trim_end().len();
    for cut in (0..end).step_by(end / 600 + 1) {
        assert!(load(&text[..cut]).is_err(), "prefix of {cut} bytes loaded");
    }

    // Edits land outside the parameter `data` arrays, where the shapes,
    // ids, dims and flags the engine trusts are written (a cut or edit
    // inside a float list is a plain count or number error).
    let mut structural = Vec::new();
    let mut rest = 0;
    while let Some(open) = text[rest..].find("\"data\": [") {
        structural.extend(rest..rest + open);
        rest += open + text[rest + open..].find(']').expect("data arrays close");
    }
    structural.extend(rest..text.len());

    let alphabet = b"0123456789-+.eE,:[]{}\" tfnul\\";
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let mut loaded = 0;
    for _ in 0..3000 {
        let mut bytes = text.clone().into_bytes();
        let at = structural[next(structural.len())];
        let b = alphabet[next(alphabet.len())];
        match next(3) {
            0 => bytes[at] = b,
            1 => bytes.insert(at, b),
            _ => drop(bytes.remove(at)),
        }
        loaded += usize::from(load(std::str::from_utf8(&bytes).expect("ASCII edits of ASCII text")).is_ok());
    }
    // Some edits are harmless (a changed weight, whitespace), most are not.
    assert!(0 < loaded && loaded < 3000, "{loaded} of 3000 edited files loaded");
}

#[test]
fn configs_that_lie_are_load_errors() {
    let data = tracer::dataset();
    let mut model = Agnn::new(AgnnConfig { epochs: 0, ..tracer_config(VariantName::Full) });
    model.fit(&data, &tracer::split(&data));
    let snap = model.export_snapshot().unwrap();
    InferenceEngine::from_snapshot(&snap).unwrap();
    let with = |config: AgnnConfig| {
        let edited = ModelSnapshot { config, ..snap.clone() };
        // Through the text too: the edited file is what a server loads.
        load(&edited.to_json_string()).map(|_| ()).unwrap_err()
    };
    let cfg = snap.config;
    // A zero fanout used to panic in `repeat_rows` at `materialize`.
    assert!(with(AgnnConfig { fanout: 0, ..cfg }).contains("fanout is 0"));
    // A huge fanout used to abort on a level allocation of tens of GB.
    for fanout in [100_000_000, usize::MAX] {
        assert!(with(AgnnConfig { fanout, ..cfg }).contains("neighbor rows per 512-row chunk"), "fanout {fanout}");
    }
    assert!(with(AgnnConfig { gnn_layers: 64, ..cfg }).contains("neighbor rows per 512-row chunk"));
    // An embed_dim unlike the parameters' width used to load and serve.
    let wider = with(AgnnConfig { embed_dim: cfg.embed_dim + 1, ..cfg });
    assert!(wider.contains("wide for embed_dim 9"), "{wider}");
}

#[test]
fn misshaped_parameters_are_load_errors() {
    let data = tracer::dataset();
    let split = tracer::split(&data);
    let mut rng = StdRng::seed_from_u64(23);
    // Between them these variants register every layer kind: the gated
    // GNN's gates, GCN, GAT, the eVAE, the Mask token and decoder, the
    // linear auto-encoder, and every variant's attribute interaction,
    // fuse, embeddings, prediction MLP and global bias.
    for variant in [VariantName::Full, VariantName::Gcn, VariantName::Gat, VariantName::Mask, VariantName::Llae] {
        let mut model = Agnn::new(AgnnConfig { epochs: 0, ..tracer_config(variant) });
        model.fit(&data, &split);
        let snap = model.export_snapshot().unwrap();
        InferenceEngine::from_snapshot(&snap).unwrap();
        for (at, entry) in snap.params.iter().enumerate() {
            // One row or column more or fewer, never an empty matrix.
            let (rows, cols) = match rng.gen_range(0..4) {
                0 => (entry.rows + 1, entry.cols),
                1 if entry.rows > 1 => (entry.rows - 1, entry.cols),
                2 => (entry.rows, entry.cols + 1),
                _ if entry.cols > 1 => (entry.rows, entry.cols - 1),
                _ => (entry.rows + 1, entry.cols),
            };
            let mut params = snap.params.clone();
            params[at] = ParamEntry { name: entry.name.clone(), rows, cols, data: vec![0.25; rows * cols] };
            let edited = ModelSnapshot { params, ..snap.clone() };
            let err = load(&edited.to_json_string()).map(|_| ()).unwrap_err();
            // A preference table's row count is checked against the side's
            // node data first; every other error names the parameter.
            assert!(err.contains(&entry.name) || err.contains("preference rows"), "{variant:?} {}: {err}", entry.name);
        }
    }
}
