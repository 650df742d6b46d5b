//! Model configuration and the variant space of Tables 3–4.

use agnn_graph::ProximityMode;

/// Which neighborhood aggregator runs (Table 3 gate ablations, Table 4
/// GCN/GAT replacements).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GnnKind {
    /// Full gated-GNN: aggregate gate + filter gate (Eqs. 9–13).
    Gated,
    /// `AGNN_-agate`: plain-mean aggregation, filter gate kept.
    GatedNoAggregateGate,
    /// `AGNN_-fgate`: aggregate gate kept, no filtering of the target.
    GatedNoFilterGate,
    /// `AGNN_-gGNN`: no neighborhood aggregation at all.
    None,
    /// `AGNN_GCN`: GC-MC-style mean convolution over self ∪ neighbors.
    Gcn,
    /// `AGNN_GAT`: node-level attention weights over neighbors.
    Gat,
}

/// How the missing preference embedding of a cold node is produced
/// (Table 3 eVAE ablations, Table 4 mask/dropout/LLAE replacements).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColdStartModule {
    /// The paper's eVAE: VAE + approximation term (Eq. 8).
    EVae,
    /// `AGNN_VAE`: standard VAE, approximation term removed.
    Vae,
    /// `AGNN_-eVAE`: nothing — cold nodes get a zero preference embedding.
    None,
    /// `AGNN_mask`: STAR-GCN-style masked reconstruction with a learned
    /// mask token and a post-GNN decoder.
    Mask,
    /// `AGNN_drop`: DropoutNet-style zeroing of preference embeddings.
    Dropout,
    /// `AGNN_LLAE`: linear auto-encoder from attribute to preference
    /// embedding (implies [`GnnKind::None`], as LLAE has no GNN).
    Llae,
    /// `AGNN_LLAE+`: the same auto-encoder but keeping the gated-GNN.
    LlaePlus,
}

/// How the user–user / item–item graphs are built (Table 4 graph
/// replacements).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// The paper's dynamic construction: top-`p%` candidate pool, proximity-
    /// proportional re-sampling each round. The [`ProximityMode`] encodes
    /// the `AGNN_PP` / `AGNN_AP` ablations.
    Dynamic(ProximityMode),
    /// `AGNN_knn`: static 10-NN in attribute space (RMGCNN/HERS style).
    StaticKnn,
    /// `AGNN_cop`: co-purchase/co-rate graphs (DANSER style).
    CoPurchase,
}

/// A full variant specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AgnnVariant {
    /// Aggregator choice.
    pub gnn: GnnKind,
    /// Cold-start module choice.
    pub cold: ColdStartModule,
    /// Graph construction choice.
    pub graph: GraphKind,
}

impl Default for AgnnVariant {
    fn default() -> Self {
        Self {
            gnn: GnnKind::Gated,
            cold: ColdStartModule::EVae,
            graph: GraphKind::Dynamic(ProximityMode::Both),
        }
    }
}

/// Hyper-parameters (§4.1.4 defaults).
#[derive(Clone, Copy, Debug)]
pub struct AgnnConfig {
    /// Embedding dimension `D` (paper: 40; Fig. 5 sweeps {10..50}).
    pub embed_dim: usize,
    /// eVAE latent width (we use `D/2`).
    pub vae_latent_dim: usize,
    /// Neighborhood fan-out `|N_u|` (paper §5.2: 10).
    pub fanout: usize,
    /// Number of stacked gated-GNN hops (paper: 1). Each extra hop expands
    /// the sampled neighborhood multiplicatively (`fanout^layers` nodes per
    /// target), trading compute for a wider receptive field — an extension
    /// beyond the paper, ablated in the benches.
    pub gnn_layers: usize,
    /// Candidate-pool threshold `p` in percent (paper: 5; Fig. 7 sweeps).
    pub top_percent: f32,
    /// Reconstruction-loss weight λ (paper: 1; Fig. 6 sweeps).
    pub lambda: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (paper: 128).
    pub batch_size: usize,
    /// Adam learning rate (paper: 5e-4).
    pub lr: f32,
    /// LeakyReLU slope (paper: 0.01).
    pub leaky_slope: f32,
    /// Global gradient-norm clip applied after backward (previously a
    /// hard-coded `20.0` inside the training loop).
    pub grad_clip_norm: f32,
    /// Mask/dropout rate for the Mask/Dropout cold-start replacements
    /// (paper §5.1.2: 20%).
    pub mask_rate: f32,
    /// RNG seed for init, sampling and shuffling.
    pub seed: u64,
    /// Variant switches.
    pub variant: AgnnVariant,
}

impl Default for AgnnConfig {
    fn default() -> Self {
        Self {
            embed_dim: 40,
            vae_latent_dim: 20,
            fanout: 10,
            gnn_layers: 1,
            top_percent: 5.0,
            lambda: 1.0,
            epochs: 10,
            batch_size: 128,
            lr: 5e-4,
            leaky_slope: 0.01,
            grad_clip_norm: 20.0,
            mask_rate: 0.2,
            seed: 17,
            variant: AgnnVariant::default(),
        }
    }
}

impl AgnnConfig {
    /// GNN hops a side forward runs: `gnn_layers`, or none for the no-GNN
    /// variant.
    pub fn gnn_hops(&self) -> usize {
        if self.variant.gnn == GnnKind::None {
            0
        } else {
            self.gnn_layers
        }
    }

    /// The training-loop slice of these knobs, for the `agnn-train` engine.
    pub fn train_config(&self) -> agnn_train::TrainConfig {
        agnn_train::TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            weight_decay: 0.0,
            grad_clip_norm: Some(self.grad_clip_norm),
            seed: self.seed,
        }
    }

    /// Validates internal consistency; called by the model constructor.
    pub fn validate(&self) {
        assert!(self.embed_dim > 0, "embed_dim must be positive");
        assert!(self.vae_latent_dim > 0, "vae_latent_dim must be positive");
        assert!(self.fanout > 0, "fanout must be positive");
        assert!(self.gnn_layers >= 1, "gnn_layers must be at least 1");
        assert!(self.gnn_layers <= 3, "gnn_layers > 3 explodes the sampled neighborhood (fanout^layers)");
        assert!(self.top_percent > 0.0, "top_percent must be positive");
        assert!(self.lambda >= 0.0, "lambda must be non-negative");
        assert!(self.batch_size > 0, "batch_size must be positive");
        assert!(self.grad_clip_norm > 0.0, "grad_clip_norm must be positive");
        assert!((0.0..1.0).contains(&self.mask_rate), "mask_rate must be in [0,1)");
        if self.variant.cold == ColdStartModule::Llae {
            assert_eq!(self.variant.gnn, GnnKind::None, "AGNN_LLAE removes the gated-GNN (use LlaePlus to keep it)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_gnn_variant_runs_no_hops() {
        let c = AgnnConfig { gnn_layers: 2, ..AgnnConfig::default() };
        assert_eq!(c.gnn_hops(), 2);
        let none = AgnnConfig { variant: AgnnVariant { gnn: GnnKind::None, ..c.variant }, ..c };
        assert_eq!(none.gnn_hops(), 0);
    }

    #[test]
    fn default_matches_paper() {
        let c = AgnnConfig::default();
        assert_eq!(c.embed_dim, 40);
        assert_eq!(c.fanout, 10);
        assert_eq!(c.top_percent, 5.0);
        assert_eq!(c.lambda, 1.0);
        assert_eq!(c.batch_size, 128);
        assert!((c.lr - 5e-4).abs() < 1e-9);
        assert_eq!(c.grad_clip_norm, 20.0);
        c.validate();
    }

    #[test]
    fn train_config_slice_carries_clip_and_seed() {
        let c = AgnnConfig { epochs: 3, seed: 9, ..AgnnConfig::default() };
        let t = c.train_config();
        assert_eq!(t.epochs, 3);
        assert_eq!(t.seed, 9);
        assert_eq!(t.grad_clip_norm, Some(20.0));
        t.validate();
    }

    #[test]
    #[should_panic(expected = "LLAE removes")]
    fn llae_requires_no_gnn() {
        let c = AgnnConfig {
            variant: AgnnVariant { cold: ColdStartModule::Llae, ..AgnnVariant::default() },
            ..AgnnConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "embed_dim")]
    fn zero_dim_rejected() {
        AgnnConfig { embed_dim: 0, ..AgnnConfig::default() }.validate();
    }
}
