//! AGNN — Attribute Graph Neural Networks for strict cold start
//! recommendation (Qian, Liang, Li & Xiong; TKDE 2022 / ICDE 2023).
//!
//! The model predicts ratings for users/items that have **no interactions at
//! all** — not in training, not at test — by operating on homogeneous
//! user–user and item–item *attribute graphs* instead of the user–item
//! interaction graph. Its pipeline (paper §3.3, Fig. 3):
//!
//! 1. **Input layer** — candidate pools from combined preference+attribute
//!    proximity with dynamic neighbor sampling ([`agnn_graph`]);
//! 2. **Attribute interaction layer** — Bi-Interaction pooling + linear
//!    combination + FC ([`interaction`]), fused with the ID preference
//!    embedding (Eq. 5);
//! 3. **eVAE** — a VAE over attribute embeddings whose reconstruction is
//!    additionally pulled toward the preference embedding, so a strict cold
//!    node's missing preference can be *generated* from its attributes
//!    ([`evae`], Eq. 8);
//! 4. **gated-GNN** — per-dimension aggregate and filter gates over the
//!    sampled neighborhood ([`gnn`], Eqs. 9–13);
//! 5. **Prediction layer** — `MLP([p̃;q̃]) + p̃·q̃ᵀ + b_u + b_i + μ` (Eq. 14).
//!
//! Every ablation (`AGNN_PP`, `AGNN_AP`, `−gGNN`, `−agate`, `−fgate`,
//! `−eVAE`, `VAE`) and replacement (`knn`, `cop`, `GCN`, `GAT`, `mask`,
//! `drop`, `LLAE`, `LLAE+`) from Tables 3–4 is expressible through
//! [`config::AgnnVariant`]; see [`variants`] for named constructors.
//!
//! # Quickstart
//!
//! ```
//! use agnn_core::{Agnn, config::AgnnConfig, model::{evaluate, RatingModel}};
//! use agnn_data::{ColdStartKind, Preset, Split, SplitConfig};
//!
//! let data = Preset::Ml100k.generate(0.05, 7);
//! let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictItem, 7));
//! let mut model = Agnn::new(AgnnConfig { epochs: 2, ..AgnnConfig::default() });
//! model.fit(&data, &split);
//! let result = evaluate(&model, &data, &split.test).finish();
//! assert!(result.rmse < 2.0, "sanity: rmse = {}", result.rmse);
//! ```

pub mod agnn;
pub mod config;
pub mod evae;
pub mod gnn;
pub mod interaction;
pub mod jsonio;
pub mod model;
pub mod snapshot;
pub mod variants;

pub use agnn::{eval_rng, Agnn, AgnnModules, AgnnSide, EVAL_CHUNK, EVAL_NEIGHBORHOOD_SAMPLES};
pub use config::{AgnnConfig, AgnnVariant, ColdStartModule, GnnKind, GraphKind};
pub use model::{evaluate, RatingModel, TrainReport};
pub use snapshot::{ModelSnapshot, ParamEntry, SnapshotError, SnapshotParams};
