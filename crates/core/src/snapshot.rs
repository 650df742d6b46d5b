//! Trained-model snapshots: everything `agnn-infer` needs to score without
//! the autograd tape (DESIGN.md §5b5).
//!
//! A [`ModelSnapshot`] bundles the fitted parameter matrices (in
//! `ParamStore` insertion order, addressed by their stable names), the
//! candidate pools, attribute lists, cold flags and the config. Its
//! on-disk encoding is the hand-written JSON of
//! [`ModelSnapshot::to_json_string`]: fields in fixed order, floats in
//! shortest round-trip decimal. That makes the bytes a
//! pure function of the trained state — two identical training runs save
//! byte-identical files, and `save → load → score` is bit-exact.
//!
//! [`ModelSnapshot::from_json_str`] pull-reads that encoding through
//! [`crate::jsonio::Parser`] straight into the struct, with no tree in
//! between, and turns away what the writer would not have written.

use crate::config::{AgnnConfig, AgnnVariant, ColdStartModule, GnnKind, GraphKind};
use crate::interaction::AttrLists;
use crate::jsonio::{need, push_json_f32, put, read_f32_pair, read_list, read_object, Parser};
use agnn_autograd::{ParamId, ParamTable, Registry};
use agnn_obs::trace::push_json_str;
use agnn_graph::{CandidatePools, PoolConfig, ProximityMode};
use agnn_tensor::Matrix;

/// Bumped whenever the snapshot encoding changes shape.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// One named parameter matrix, row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamEntry {
    /// Stable parameter name (e.g. `user.evae.enc_mu.w`).
    pub name: String,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Row-major values, `rows × cols` of them.
    pub data: Vec<f32>,
}

impl ParamEntry {
    /// Rebuilds the dense matrix.
    pub fn matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.clone())
    }
}

/// A fitted AGNN model, detached from the training stack.
#[derive(Clone, Debug)]
pub struct ModelSnapshot {
    /// Encoding version ([`SNAPSHOT_FORMAT_VERSION`]).
    pub format_version: u32,
    /// Model family; currently always `"AGNN"`.
    pub model: String,
    /// Name of the dataset the model was fitted on.
    pub dataset: String,
    /// Rating scale `(lo, hi)` for clamping served scores.
    pub rating_scale: (f32, f32),
    /// The training configuration (hyper-parameters + variant switches).
    pub config: AgnnConfig,
    /// Every parameter, in `ParamStore` insertion order.
    pub params: Vec<ParamEntry>,
    /// User-side candidate pools.
    pub user_pools: CandidatePools,
    /// Item-side candidate pools.
    pub item_pools: CandidatePools,
    /// User attribute index lists.
    pub user_attrs: AttrLists,
    /// Item attribute index lists.
    pub item_attrs: AttrLists,
    /// Per-user strict-cold flags.
    pub user_cold: Vec<bool>,
    /// Per-item strict-cold flags.
    pub item_cold: Vec<bool>,
}

/// Snapshot encode/decode/lookup failure with a human-readable cause.
#[derive(Debug)]
pub struct SnapshotError(pub String);

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot error: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

impl From<String> for SnapshotError {
    fn from(s: String) -> Self {
        SnapshotError(s)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError(e.to_string())
    }
}

/// Loads parameters for forward-only use: run a model's registration code
/// (e.g. [`crate::agnn::AgnnModules::build`]) against it, and each declared
/// parameter is looked up by name and checked against the shape the
/// declaration implies. No gradient or optimizer state is allocated.
pub struct SnapshotParams<'s> {
    snap: &'s ModelSnapshot,
    values: ParamTable,
    error: Option<SnapshotError>,
}

impl<'s> SnapshotParams<'s> {
    /// Resolves against `snap`.
    pub fn new(snap: &'s ModelSnapshot) -> Self {
        Self { snap, values: ParamTable::default(), error: None }
    }

    /// The resolved values, or the first parameter that was missing or
    /// misshaped.
    pub fn finish(self) -> Result<ParamTable, SnapshotError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.values),
        }
    }
}

impl Registry for SnapshotParams<'_> {
    fn register(&mut self, name: String, rows: usize, cols: usize, _init: impl FnOnce() -> Matrix) -> ParamId {
        let value = match self.snap.param(&name) {
            Some(entry) if (entry.rows, entry.cols) == (rows, cols) => entry.matrix(),
            found => {
                let cause = match found {
                    Some(entry) => format!("parameter `{name}` is {}x{}, want {rows}x{cols}", entry.rows, entry.cols),
                    None => format!("parameter `{name}` not in snapshot (model `{}`)", self.snap.model),
                };
                self.error.get_or_insert(SnapshotError(cause));
                Matrix::zeros(0, 0)
            }
        };
        self.values.push(value)
    }
}

impl ModelSnapshot {
    /// The entry named `name`, if present.
    pub fn param(&self, name: &str) -> Option<&ParamEntry> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Canonical byte-stable JSON encoding. Panics (via debug assert) only
    /// on non-finite floats, which [`crate::Agnn::export_snapshot`] rejects.
    pub fn to_json_string(&self) -> String {
        let mut s = String::with_capacity(4096 + self.params.iter().map(|p| p.data.len() * 8).sum::<usize>());
        s.push_str("{\n");
        s.push_str(&format!("\"format_version\": {},\n", self.format_version));
        s.push_str("\"model\": ");
        push_json_str(&mut s, &self.model);
        s.push_str(",\n\"dataset\": ");
        push_json_str(&mut s, &self.dataset);
        s.push_str(",\n\"rating_scale\": [");
        push_json_f32(&mut s, self.rating_scale.0);
        s.push_str(", ");
        push_json_f32(&mut s, self.rating_scale.1);
        s.push_str("],\n\"config\": ");
        write_config(&mut s, &self.config);
        s.push_str(",\n\"params\": [\n");
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            s.push_str("{\"name\": ");
            push_json_str(&mut s, &p.name);
            s.push_str(&format!(", \"rows\": {}, \"cols\": {}, \"data\": [", p.rows, p.cols));
            for (j, &v) in p.data.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                push_json_f32(&mut s, v);
            }
            s.push_str("]}");
        }
        s.push_str("\n],\n\"user_pools\": ");
        write_pools(&mut s, &self.user_pools);
        s.push_str(",\n\"item_pools\": ");
        write_pools(&mut s, &self.item_pools);
        s.push_str(",\n\"user_attrs\": ");
        write_attrs(&mut s, &self.user_attrs);
        s.push_str(",\n\"item_attrs\": ");
        write_attrs(&mut s, &self.item_attrs);
        s.push_str(",\n\"user_cold\": ");
        write_bools(&mut s, &self.user_cold);
        s.push_str(",\n\"item_cold\": ");
        write_bools(&mut s, &self.item_cold);
        s.push_str("\n}\n");
        s
    }

    /// Parses the canonical encoding. As strict as the writer is fixed:
    /// an unknown, duplicate or missing field, trailing text, a number out
    /// of its type's range, an attribute index past its encoding dimension
    /// or a pool candidate past its side's node count is an error.
    pub fn from_json_str(text: &str) -> Result<Self, SnapshotError> {
        let mut p = Parser::new(text);
        let (mut format_version, mut model, mut dataset, mut rating_scale) = (None, None, None, None);
        let (mut config, mut params, mut user_pools, mut item_pools) = (None, None, None, None);
        let (mut user_attrs, mut item_attrs, mut user_cold, mut item_cold) = (None, None, None, None);
        read_object(&mut p, |p, key| match key {
            "format_version" => put(&mut format_version, read_version(p)?),
            "model" => put(&mut model, p.string()?.into_owned()),
            "dataset" => put(&mut dataset, p.string()?.into_owned()),
            "rating_scale" => put(&mut rating_scale, read_f32_pair(p)?),
            "config" => put(&mut config, read_config(p)?),
            "params" => put(&mut params, read_list(p, read_param)?),
            "user_pools" => put(&mut user_pools, read_pools(p)?),
            "item_pools" => put(&mut item_pools, read_pools(p)?),
            "user_attrs" => put(&mut user_attrs, read_attrs(p)?),
            "item_attrs" => put(&mut item_attrs, read_attrs(p)?),
            "user_cold" => put(&mut user_cold, read_list(p, Parser::bool)?),
            "item_cold" => put(&mut item_cold, read_list(p, Parser::bool)?),
            _ => Err("unknown field".into()),
        })?;
        p.finish()?;
        Ok(ModelSnapshot {
            format_version: need(format_version, "format_version")?,
            model: need(model, "model")?,
            dataset: need(dataset, "dataset")?,
            rating_scale: need(rating_scale, "rating_scale")?,
            config: need(config, "config")?,
            params: need(params, "params")?,
            user_pools: need(user_pools, "user_pools")?,
            item_pools: need(item_pools, "item_pools")?,
            user_attrs: need(user_attrs, "user_attrs")?,
            item_attrs: need(item_attrs, "item_attrs")?,
            user_cold: need(user_cold, "user_cold")?,
            item_cold: need(item_cold, "item_cold")?,
        })
    }

    /// Writes the canonical encoding to `path`.
    pub fn save(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_json_string())?;
        Ok(())
    }

    /// Reads a snapshot from `path`.
    pub fn load(path: &std::path::Path) -> Result<Self, SnapshotError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json_str(&text)
    }
}

fn write_bools(s: &mut String, flags: &[bool]) {
    s.push('[');
    for (i, &b) in flags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(if b { "true" } else { "false" });
    }
    s.push(']');
}

/// The version is the first field written, so a file from another
/// version is turned away before the rest of it is read.
fn read_version(p: &mut Parser) -> Result<u32, String> {
    let v = p.num()?;
    if v != SNAPSHOT_FORMAT_VERSION {
        return Err(format!("unsupported snapshot format_version {v} (this build reads {SNAPSHOT_FORMAT_VERSION})"));
    }
    Ok(v)
}

fn read_param(p: &mut Parser) -> Result<ParamEntry, String> {
    let (mut name, mut rows, mut cols, mut data) = (None, None, None, None);
    read_object(p, |p, key| match key {
        "name" => put(&mut name, p.string()?.into_owned()),
        "rows" => put(&mut rows, p.num()?),
        "cols" => put(&mut cols, p.num()?),
        "data" => put(&mut data, read_list(p, Parser::f32)?),
        _ => Err("unknown field".into()),
    })?;
    let (name, rows, cols, data): (String, usize, usize, Vec<f32>) =
        (need(name, "name")?, need(rows, "rows")?, need(cols, "cols")?, need(data, "data")?);
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(format!("param `{name}`: {} values for {rows}×{cols}", data.len()));
    }
    Ok(ParamEntry { name, rows, cols, data })
}

fn write_attrs(s: &mut String, attrs: &AttrLists) {
    s.push_str(&format!("{{\"dim\": {}, \"lists\": [", attrs.dim()));
    for n in 0..attrs.num_nodes() {
        if n > 0 {
            s.push(',');
        }
        s.push('[');
        for (i, &a) in attrs.of(n).iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&a.to_string());
        }
        s.push(']');
    }
    s.push_str("]}");
}

fn read_attrs(p: &mut Parser) -> Result<AttrLists, String> {
    let (mut dim, mut lists) = (None, None);
    read_object(p, |p, key| match key {
        "dim" => put(&mut dim, p.num()?),
        "lists" => put(&mut lists, read_list(p, |p| read_list(p, Parser::num))?),
        _ => Err("unknown field".into()),
    })?;
    AttrLists::try_from_lists(need(lists, "lists")?, need(dim, "dim")?)
}

fn write_pools(s: &mut String, pools: &CandidatePools) {
    let cfg = pools.config();
    s.push_str(&format!(
        "{{\"config\": {{\"top_percent\": {}, \"mode\": \"{}\", \"bucket_cap\": {}, \"min_pool\": {}}}, \"pools\": [",
        cfg.top_percent,
        proximity_tag(cfg.mode),
        cfg.bucket_cap,
        cfg.min_pool
    ));
    for n in 0..pools.num_nodes() {
        if n > 0 {
            s.push(',');
        }
        s.push('[');
        for (i, &(c, w)) in pools.pool(n as u32).iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{c},"));
            push_json_f32(s, w);
            s.push(']');
        }
        s.push(']');
    }
    s.push_str("]}");
}

/// Reads one side's pools. Candidates are nodes of the same side, so an id
/// past the number of pools is an error here rather than a panic once the
/// engine gathers that row.
fn read_pools(p: &mut Parser) -> Result<CandidatePools, String> {
    let (mut config, mut pools) = (None, None);
    read_object(p, |p, key| match key {
        "config" => put(&mut config, read_pool_config(p)?),
        "pools" => put(&mut pools, read_list(p, |p| read_list(p, read_pool_entry))?),
        _ => Err("unknown field".into()),
    })?;
    let pools: Vec<Vec<(u32, f32)>> = need(pools, "pools")?;
    for (node, pool) in pools.iter().enumerate() {
        if let Some((c, _)) = pool.iter().find(|&&(c, _)| c as usize >= pools.len()) {
            return Err(format!("`pools`: node {node} has candidate {c} past {} nodes", pools.len()));
        }
    }
    Ok(CandidatePools::from_scored(pools, need(config, "config")?))
}

fn read_pool_config(p: &mut Parser) -> Result<PoolConfig, String> {
    let (mut top_percent, mut mode, mut bucket_cap, mut min_pool) = (None, None, None, None);
    read_object(p, |p, key| match key {
        "top_percent" => put(&mut top_percent, p.f32()?),
        "mode" => put(&mut mode, parse_proximity(&p.string()?)?),
        "bucket_cap" => put(&mut bucket_cap, p.num()?),
        "min_pool" => put(&mut min_pool, p.num()?),
        _ => Err("unknown field".into()),
    })?;
    Ok(PoolConfig {
        top_percent: need(top_percent, "top_percent")?,
        mode: need(mode, "mode")?,
        bucket_cap: need(bucket_cap, "bucket_cap")?,
        min_pool: need(min_pool, "min_pool")?,
    })
}

/// One `[id, score]` pool entry.
fn read_pool_entry(p: &mut Parser) -> Result<(u32, f32), String> {
    let (mut id, mut score) = (None, None);
    p.array(|p| match (id, score) {
        (None, _) => put(&mut id, p.num()?),
        (Some(_), None) => put(&mut score, p.f32()?),
        _ => Err("pool entry must be [id, score]".into()),
    })?;
    id.zip(score).ok_or_else(|| "pool entry must be [id, score]".into())
}

fn proximity_tag(m: ProximityMode) -> &'static str {
    match m {
        ProximityMode::Both => "Both",
        ProximityMode::PreferenceOnly => "PreferenceOnly",
        ProximityMode::AttributeOnly => "AttributeOnly",
    }
}

fn parse_proximity(s: &str) -> Result<ProximityMode, String> {
    match s {
        "Both" => Ok(ProximityMode::Both),
        "PreferenceOnly" => Ok(ProximityMode::PreferenceOnly),
        "AttributeOnly" => Ok(ProximityMode::AttributeOnly),
        other => Err(format!("unknown proximity mode `{other}`")),
    }
}

fn gnn_tag(k: GnnKind) -> &'static str {
    match k {
        GnnKind::Gated => "Gated",
        GnnKind::GatedNoAggregateGate => "GatedNoAggregateGate",
        GnnKind::GatedNoFilterGate => "GatedNoFilterGate",
        GnnKind::None => "None",
        GnnKind::Gcn => "Gcn",
        GnnKind::Gat => "Gat",
    }
}

fn parse_gnn(s: &str) -> Result<GnnKind, String> {
    match s {
        "Gated" => Ok(GnnKind::Gated),
        "GatedNoAggregateGate" => Ok(GnnKind::GatedNoAggregateGate),
        "GatedNoFilterGate" => Ok(GnnKind::GatedNoFilterGate),
        "None" => Ok(GnnKind::None),
        "Gcn" => Ok(GnnKind::Gcn),
        "Gat" => Ok(GnnKind::Gat),
        other => Err(format!("unknown gnn kind `{other}`")),
    }
}

fn cold_tag(c: ColdStartModule) -> &'static str {
    match c {
        ColdStartModule::EVae => "EVae",
        ColdStartModule::Vae => "Vae",
        ColdStartModule::None => "None",
        ColdStartModule::Mask => "Mask",
        ColdStartModule::Dropout => "Dropout",
        ColdStartModule::Llae => "Llae",
        ColdStartModule::LlaePlus => "LlaePlus",
    }
}

fn parse_cold(s: &str) -> Result<ColdStartModule, String> {
    match s {
        "EVae" => Ok(ColdStartModule::EVae),
        "Vae" => Ok(ColdStartModule::Vae),
        "None" => Ok(ColdStartModule::None),
        "Mask" => Ok(ColdStartModule::Mask),
        "Dropout" => Ok(ColdStartModule::Dropout),
        "Llae" => Ok(ColdStartModule::Llae),
        "LlaePlus" => Ok(ColdStartModule::LlaePlus),
        other => Err(format!("unknown cold-start module `{other}`")),
    }
}

fn graph_tag(g: GraphKind) -> String {
    match g {
        GraphKind::Dynamic(m) => format!("Dynamic:{}", proximity_tag(m)),
        GraphKind::StaticKnn => "StaticKnn".to_string(),
        GraphKind::CoPurchase => "CoPurchase".to_string(),
    }
}

fn parse_graph(s: &str) -> Result<GraphKind, String> {
    if let Some(mode) = s.strip_prefix("Dynamic:") {
        return Ok(GraphKind::Dynamic(parse_proximity(mode)?));
    }
    match s {
        "StaticKnn" => Ok(GraphKind::StaticKnn),
        "CoPurchase" => Ok(GraphKind::CoPurchase),
        other => Err(format!("unknown graph kind `{other}`")),
    }
}

fn write_config(s: &mut String, c: &AgnnConfig) {
    s.push_str("{\"embed_dim\": ");
    s.push_str(&c.embed_dim.to_string());
    s.push_str(", \"vae_latent_dim\": ");
    s.push_str(&c.vae_latent_dim.to_string());
    s.push_str(", \"fanout\": ");
    s.push_str(&c.fanout.to_string());
    s.push_str(", \"gnn_layers\": ");
    s.push_str(&c.gnn_layers.to_string());
    s.push_str(", \"top_percent\": ");
    push_json_f32(s, c.top_percent);
    s.push_str(", \"lambda\": ");
    push_json_f32(s, c.lambda);
    s.push_str(", \"epochs\": ");
    s.push_str(&c.epochs.to_string());
    s.push_str(", \"batch_size\": ");
    s.push_str(&c.batch_size.to_string());
    s.push_str(", \"lr\": ");
    push_json_f32(s, c.lr);
    s.push_str(", \"leaky_slope\": ");
    push_json_f32(s, c.leaky_slope);
    s.push_str(", \"grad_clip_norm\": ");
    push_json_f32(s, c.grad_clip_norm);
    s.push_str(", \"mask_rate\": ");
    push_json_f32(s, c.mask_rate);
    s.push_str(", \"seed\": ");
    s.push_str(&c.seed.to_string());
    s.push_str(", \"variant\": {\"gnn\": \"");
    s.push_str(gnn_tag(c.variant.gnn));
    s.push_str("\", \"cold\": \"");
    s.push_str(cold_tag(c.variant.cold));
    s.push_str("\", \"graph\": \"");
    s.push_str(&graph_tag(c.variant.graph));
    s.push_str("\"}}");
}

fn read_config(p: &mut Parser) -> Result<AgnnConfig, String> {
    let (mut embed_dim, mut vae_latent_dim, mut fanout, mut gnn_layers) = (None, None, None, None);
    let (mut top_percent, mut lambda, mut epochs, mut batch_size, mut lr) = (None, None, None, None, None);
    let (mut leaky_slope, mut grad_clip_norm, mut mask_rate, mut seed, mut variant) = (None, None, None, None, None);
    read_object(p, |p, key| match key {
        "embed_dim" => put(&mut embed_dim, p.num()?),
        "vae_latent_dim" => put(&mut vae_latent_dim, p.num()?),
        "fanout" => put(&mut fanout, p.num()?),
        "gnn_layers" => put(&mut gnn_layers, p.num()?),
        "top_percent" => put(&mut top_percent, p.f32()?),
        "lambda" => put(&mut lambda, p.f32()?),
        "epochs" => put(&mut epochs, p.num()?),
        "batch_size" => put(&mut batch_size, p.num()?),
        "lr" => put(&mut lr, p.f32()?),
        "leaky_slope" => put(&mut leaky_slope, p.f32()?),
        "grad_clip_norm" => put(&mut grad_clip_norm, p.f32()?),
        "mask_rate" => put(&mut mask_rate, p.f32()?),
        "seed" => put(&mut seed, p.num()?),
        "variant" => put(&mut variant, read_variant(p)?),
        _ => Err("unknown field".into()),
    })?;
    Ok(AgnnConfig {
        embed_dim: need(embed_dim, "embed_dim")?,
        vae_latent_dim: need(vae_latent_dim, "vae_latent_dim")?,
        fanout: need(fanout, "fanout")?,
        gnn_layers: need(gnn_layers, "gnn_layers")?,
        top_percent: need(top_percent, "top_percent")?,
        lambda: need(lambda, "lambda")?,
        epochs: need(epochs, "epochs")?,
        batch_size: need(batch_size, "batch_size")?,
        lr: need(lr, "lr")?,
        leaky_slope: need(leaky_slope, "leaky_slope")?,
        grad_clip_norm: need(grad_clip_norm, "grad_clip_norm")?,
        mask_rate: need(mask_rate, "mask_rate")?,
        seed: need(seed, "seed")?,
        variant: need(variant, "variant")?,
    })
}

fn read_variant(p: &mut Parser) -> Result<AgnnVariant, String> {
    let (mut gnn, mut cold, mut graph) = (None, None, None);
    read_object(p, |p, key| match key {
        "gnn" => put(&mut gnn, parse_gnn(&p.string()?)?),
        "cold" => put(&mut cold, parse_cold(&p.string()?)?),
        "graph" => put(&mut graph, parse_graph(&p.string()?)?),
        _ => Err("unknown field".into()),
    })?;
    Ok(AgnnVariant { gnn: need(gnn, "gnn")?, cold: need(cold, "cold")?, graph: need(graph, "graph")? })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> ModelSnapshot {
        let cfg = AgnnConfig { embed_dim: 4, vae_latent_dim: 2, epochs: 1, ..AgnnConfig::default() };
        ModelSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            model: "AGNN".into(),
            dataset: "unit".into(),
            rating_scale: (1.0, 5.0),
            config: cfg,
            params: vec![
                ParamEntry { name: "user.pref".into(), rows: 2, cols: 4, data: vec![0.25, -0.5, 1.0 / 3.0, 5e-4, 0.0, 1.0, -2.0, 0.125] },
                ParamEntry { name: "global_bias".into(), rows: 1, cols: 1, data: vec![3.140625] },
            ],
            user_pools: CandidatePools::from_scored(vec![vec![(1, 0.5)], vec![(0, 0.25)]], PoolConfig::default()),
            item_pools: CandidatePools::from_scored(vec![vec![], vec![(0, 1.0)]], PoolConfig::default()),
            user_attrs: AttrLists::try_from_lists(vec![vec![0, 2], vec![1]], 3).unwrap(),
            item_attrs: AttrLists::try_from_lists(vec![vec![], vec![0]], 2).unwrap(),
            user_cold: vec![false, true],
            item_cold: vec![true, false],
        }
    }

    #[test]
    fn json_round_trip_is_bit_exact_and_byte_stable() {
        let snap = tiny_snapshot();
        let text = snap.to_json_string();
        let back = ModelSnapshot::from_json_str(&text).unwrap();
        assert_eq!(back.params, snap.params);
        assert_eq!(back.user_cold, snap.user_cold);
        assert_eq!(back.config.seed, snap.config.seed);
        assert_eq!(back.config.variant, snap.config.variant);
        assert_eq!(back.user_attrs.of(0), snap.user_attrs.of(0));
        assert_eq!(back.user_pools.pool(0), snap.user_pools.pool(0));
        assert_eq!(back.rating_scale, snap.rating_scale);
        // Re-encoding the parsed snapshot reproduces the bytes exactly.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn escaped_multi_byte_strings_re_encode_byte_for_byte() {
        let mut snap = tiny_snapshot();
        snap.dataset = "ml-1m → «strict cold»\t\"ucs\"\\20%\nnaïve 日本".into();
        snap.params[1].name = "global_bias·μ\"".into();
        let text = snap.to_json_string();
        let back = ModelSnapshot::from_json_str(&text).unwrap();
        assert_eq!(back.dataset, snap.dataset);
        assert_eq!(back.params[1].name, snap.params[1].name);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn param_lookup_by_name() {
        let snap = tiny_snapshot();
        let resolve = |name: &str, rows: usize, cols: usize| {
            let mut params = SnapshotParams::new(&snap);
            let id = params.register(name.into(), rows, cols, || unreachable!("loading initialises nothing"));
            params.finish().map(|table| table.value(id).get(0, 0))
        };
        assert_eq!(resolve("global_bias", 1, 1).unwrap(), 3.140625);
        let err = resolve("user.nope", 1, 1).unwrap_err();
        assert!(err.to_string().contains("`user.nope` not in snapshot"), "{err}");
        let err = resolve("global_bias", 1, 2).unwrap_err();
        assert!(err.to_string().contains("`global_bias` is 1x1, want 1x2"), "{err}");
    }

    #[test]
    fn version_mismatch_rejected() {
        let text = tiny_snapshot().to_json_string().replace("\"format_version\": 1", "\"format_version\": 99");
        let err = ModelSnapshot::from_json_str(&text).unwrap_err();
        assert!(err.to_string().contains("format_version 99"), "{err}");
    }

    /// One test per malformed snapshot: the tiny snapshot's text with one
    /// edit, read to an error that names the problem.
    macro_rules! rejects {
        ($($name:ident: $from:expr => $to:expr, $msg:expr;)*) => {$(
            #[test]
            fn $name() {
                let text = tiny_snapshot().to_json_string();
                assert!(text.contains($from), "edit does not apply");
                let err = ModelSnapshot::from_json_str(&text.replacen($from, $to, 1)).unwrap_err().to_string();
                assert!(err.contains($msg), "{err}");
            }
        )*};
    }

    rejects! {
        attr_index_past_dim: "\"lists\": [[0,2]" => "\"lists\": [[0,3]", "node 0 attribute 3 >= dim 3";
        pool_candidate_past_node_count: "[[[1,0.5]]" => "[[[999999,0.5]]", "candidate 999999 past 2 nodes";
        weight_beyond_f32: "\"data\": [0.25," => "\"data\": [1e39,", "out of f32 range";
        value_count_vs_shape: "\"rows\": 2" => "\"rows\": 3", "8 values for 3×4";
        shape_overflow: "\"rows\": 2" => "\"rows\": 18446744073709551615", "values for";
        bad_pool_entry: "[[[1,0.5]]" => "[[[1,0.5,2]]", "[id, score]";
        non_bool_cold_flag: "\"user_cold\": [false" => "\"user_cold\": [0", "bad literal";
        unknown_field: "\"model\":" => "\"extra\": 1, \"model\":", "`extra`: unknown field";
        duplicate_field: "\"dataset\":" => "\"dataset\": \"x\", \"dataset\":", "duplicate field";
        missing_field: ",\n\"item_cold\": [true,false]" => "", "missing field `item_cold`";
        trailing_text: "\n}\n" => "\n}\n{}", "trailing data";
    }

    /// Every prefix of the tiny snapshot short of its closing brace is an
    /// error, and a fixed budget of seeded byte edits reads to `Ok` or
    /// `Err`, never a panic.
    #[test]
    fn truncated_and_mutated_snapshots_never_panic() {
        let text = tiny_snapshot().to_json_string();
        for cut in 0..text.trim_end().len() {
            assert!(ModelSnapshot::from_json_str(&text[..cut]).is_err(), "prefix of {cut} bytes loaded");
        }
        let alphabet = b"0123456789-+.eE,:[]{}\" tfnul\\";
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for _ in 0..4000 {
            let mut bytes = text.clone().into_bytes();
            let at = next(bytes.len());
            let b = alphabet[next(alphabet.len())];
            match next(3) {
                0 => bytes[at] = b,
                1 => bytes.insert(at, b),
                _ => drop(bytes.remove(at)),
            }
            let _ = ModelSnapshot::from_json_str(std::str::from_utf8(&bytes).expect("ASCII edits of ASCII text"));
        }
    }

    #[test]
    fn graph_kind_tags_round_trip() {
        for g in [
            GraphKind::Dynamic(ProximityMode::Both),
            GraphKind::Dynamic(ProximityMode::PreferenceOnly),
            GraphKind::Dynamic(ProximityMode::AttributeOnly),
            GraphKind::StaticKnn,
            GraphKind::CoPurchase,
        ] {
            assert_eq!(parse_graph(&graph_tag(g)).unwrap(), g);
        }
    }
}
