//! The full AGNN model: fit / predict over every variant of Tables 3–4.
//!
//! [`AgnnModules`] (one [`AgnnSide`] per side plus the prediction layer)
//! writes the eval forward once, over [`Ops`]: `Agnn` runs it on the
//! training tape and `agnn-infer` in its tape-free engine. The eval protocol
//! both follow is [`EVAL_CHUNK`], [`EVAL_NEIGHBORHOOD_SAMPLES`] and
//! [`eval_rng`].

use crate::config::{AgnnConfig, ColdStartModule, GraphKind};
use crate::evae::{blend_preference, warm_mask, EVae};
use crate::gnn::GnnLayer;
use crate::interaction::{AttrInteraction, AttrLists};
use crate::model::{RatingModel, TrainReport};
use crate::snapshot::{ModelSnapshot, ParamEntry, SnapshotError, SNAPSHOT_FORMAT_VERSION};
use agnn_autograd::nn::{Activation, Embedding, Linear, Mlp};
use agnn_autograd::{loss, Graph, Ops, ParamId, ParamStore, Registry, Var};
use agnn_data::batch::unzip_batch;
use agnn_data::{Dataset, Degrees, Split};
use agnn_train::{HookList, StepLosses, Trainer};
use agnn_graph::{CandidatePools, PoolConfig, ProximityMode};
use agnn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;
use std::time::Instant;

/// Pairs per eval chunk; every pass of the neighborhood ensemble runs over
/// one chunk at a time.
pub const EVAL_CHUNK: usize = 512;

/// Sampled-neighborhood passes the eval ensemble averages in beside the
/// deterministic top-proximity pass. Dynamic neighborhood sampling is part
/// of the model (§3.3.1); averaging a few draws de-noises exactly the
/// variance it introduces.
pub const EVAL_NEIGHBORHOOD_SAMPLES: usize = 3;

/// The rng behind an eval call's sampled passes: a fixed seed, so repeated
/// calls agree exactly.
pub fn eval_rng(cfg: &AgnnConfig) -> StdRng {
    StdRng::seed_from_u64(cfg.seed ^ 0x5eed)
}

/// One side's (user or item) modules.
pub struct AgnnSide {
    emb: Embedding,
    attr: AttrInteraction,
    fuse: Linear,
    evae: Option<EVae>,
    /// Linear auto-encoder for the LLAE replacements: `(encoder, decoder)`.
    llae: Option<(Linear, Linear)>,
    /// Learned mask token for the Mask replacement.
    mask_token: Option<ParamId>,
    /// Post-GNN reconstruction decoder for the Mask replacement.
    mask_decoder: Option<Linear>,
    /// Stacked aggregators, outermost hop first (paper: one layer; none for
    /// the no-GNN variant).
    gnn: Vec<GnnLayer>,
    bias: Embedding,
}

/// AGNN's modules: both sides and the prediction layer (Eq. 14).
pub struct AgnnModules {
    /// User-side modules.
    pub user: AgnnSide,
    /// Item-side modules.
    pub item: AgnnSide,
    pred_mlp: Mlp,
    global_bias: ParamId,
}

/// Everything `predict` needs after training.
struct Fitted {
    store: ParamStore,
    modules: AgnnModules,
    user_pools: CandidatePools,
    item_pools: CandidatePools,
    user_attrs: AttrLists,
    item_attrs: AttrLists,
    user_cold: Vec<bool>,
    item_cold: Vec<bool>,
    /// Dataset identity captured at fit time, for snapshot export.
    dataset_name: String,
    rating_scale: (f32, f32),
}

/// The AGNN rating predictor. Construct with a config (variants included),
/// call [`RatingModel::fit`], then [`RatingModel::predict_batch`].
pub struct Agnn {
    cfg: AgnnConfig,
    fitted: Option<Fitted>,
}

/// Scalar loss terms a side contributes to `L_recon`, with their internal
/// weights. Eq. 8 writes the three eVAE terms unweighted; in practice the
/// KL and VAE-reconstruction terms must not drown the approximation term
/// (which is what actually teaches attribute→preference generation), so we
/// use standard β-style down-weighting for the first two. The external λ of
/// Eq. 15 multiplies the whole weighted sum.
struct SideLosses {
    terms: Vec<(f32, Var)>,
}

/// Internal eVAE term weights: (KL, VAE reconstruction, approximation).
const EVAE_WEIGHTS: (f32, f32, f32) = (0.1, 0.2, 1.0);

/// Output of embedding a node batch on one side.
struct SideEmbedding {
    /// `n × D` pre-GNN node embeddings (Eq. 5).
    p: Var,
    /// Pre-fusion preference part actually used (for the mask decoder target).
    losses: SideLosses,
    /// Rows that the Mask replacement masked this batch (targets only).
    masked_rows: Vec<f32>,
}

impl AgnnSide {
    /// Registers one side's parameters, in a fixed order.
    fn build(
        store: &mut impl Registry,
        name: &str,
        n_nodes: usize,
        attr_dim: usize,
        cfg: &AgnnConfig,
        rng: &mut StdRng,
    ) -> Self {
        let d = cfg.embed_dim;
        let evae = match cfg.variant.cold {
            ColdStartModule::EVae | ColdStartModule::Vae => {
                Some(EVae::new(store, &format!("{name}.evae"), d, cfg.vae_latent_dim, rng))
            }
            _ => None,
        };
        let llae = match cfg.variant.cold {
            ColdStartModule::Llae | ColdStartModule::LlaePlus => Some((
                Linear::new_no_bias(store, &format!("{name}.llae_enc"), d, cfg.vae_latent_dim, rng),
                Linear::new_no_bias(store, &format!("{name}.llae_dec"), cfg.vae_latent_dim, d, rng),
            )),
            _ => None,
        };
        let (mask_token, mask_decoder) = if cfg.variant.cold == ColdStartModule::Mask {
            (
                Some(store.register(format!("{name}.mask_token"), 1, d, || agnn_tensor::init::normal(1, d, 0.1, rng))),
                Some(Linear::new(store, &format!("{name}.mask_dec"), d, d, rng)),
            )
        } else {
            (None, None)
        };
        AgnnSide {
            emb: Embedding::new(store, &format!("{name}.pref"), n_nodes, d, rng),
            attr: AttrInteraction::new(store, &format!("{name}.attr"), attr_dim, d, cfg.leaky_slope, rng),
            fuse: Linear::new(store, &format!("{name}.fuse"), 2 * d, d, rng),
            evae,
            llae,
            mask_token,
            mask_decoder,
            gnn: (0..cfg.gnn_hops())
                .map(|l| GnnLayer::new(store, &format!("{name}.gnn{l}"), d, cfg.variant.gnn, cfg.leaky_slope, rng))
                .collect(),
            bias: Embedding::new_zeros(store, &format!("{name}.bias"), n_nodes, 1),
        }
    }

    /// The attribute-value embedding table.
    pub fn attr_table(&self) -> ParamId {
        self.attr.table
    }

    /// Whether a pass draws neighbors from the rng: only sampled passes of
    /// dynamic-graph variants with a GNN hop do. Every other pass takes the
    /// deterministic top-proximity neighbors.
    pub fn draws_rng(&self, cfg: &AgnnConfig, sample: bool) -> bool {
        sample && !self.gnn.is_empty() && matches!(cfg.variant.graph, GraphKind::Dynamic(_) | GraphKind::CoPurchase)
    }

    /// Pre-GNN embedding of a node batch at eval (Eq. 5): preference rows,
    /// attribute interaction, the cold-start module's substitute on cold
    /// rows, fuse.
    pub fn embed<O: Ops>(
        &self,
        o: &mut O,
        params: &O::Params,
        cfg: &AgnnConfig,
        attrs: &AttrLists,
        cold: &[bool],
        nodes: &[usize],
    ) -> O::Value {
        let m = o.param_rows(params, self.emb.table, nodes);
        let x = self.attr.forward(o, params, attrs, nodes);
        let generated = self.cold_substitute(o, params, cfg, x.clone(), nodes.len());
        self.fuse_rows(o, params, m, generated, &warm_mask(cold, nodes), x)
    }

    /// The rows the cold-start module substitutes for a preference
    /// embedding at eval. `None` and `Dropout` both substitute zeros
    /// (dropout never fires at eval); `Mask` its learned token.
    fn cold_substitute<O: Ops>(&self, o: &mut O, params: &O::Params, cfg: &AgnnConfig, x: O::Value, n: usize) -> O::Value {
        match cfg.variant.cold {
            ColdStartModule::EVae | ColdStartModule::Vae => {
                self.evae.as_ref().expect("evae built").generate(o, params, x)
            }
            ColdStartModule::None | ColdStartModule::Dropout => o.constant(Matrix::zeros(n, cfg.embed_dim)),
            ColdStartModule::Mask => {
                let token = o.param(params, self.mask_token.expect("mask token built"));
                let zeros = o.constant(Matrix::zeros(n, cfg.embed_dim));
                o.add_row_broadcast(zeros, token)
            }
            ColdStartModule::Llae | ColdStartModule::LlaePlus => {
                let (enc, dec) = self.llae.as_ref().expect("llae built");
                let z = enc.forward(o, params, x);
                dec.forward(o, params, z)
            }
        }
    }

    /// Eq. 5: keeps the preference rows `m` where `warm` is 1 and the
    /// generated ones elsewhere, then fuses them with the attribute
    /// embedding `x`.
    fn fuse_rows<O: Ops>(
        &self,
        o: &mut O,
        params: &O::Params,
        m: O::Value,
        generated: O::Value,
        warm: &[f32],
        x: O::Value,
    ) -> O::Value {
        let m_used = blend_preference(o, m, generated, warm);
        let cat = o.concat(&[m_used, x]);
        self.fuse.forward(o, params, cat)
    }

    /// Draws the neighborhood levels of a node batch: level 0 is the batch,
    /// level `l + 1` holds `fanout` neighbor ids per level-`l` row, in row
    /// order. Sampled from the pools when [`AgnnSide::draws_rng`], else the
    /// top-proximity neighbors, which read no rng.
    pub fn draw_levels(
        &self,
        cfg: &AgnnConfig,
        pools: &CandidatePools,
        nodes: &[usize],
        sample: bool,
        rng: &mut impl Rng,
    ) -> Vec<Vec<usize>> {
        let sampled = self.draws_rng(cfg, sample);
        let mut levels: Vec<Vec<usize>> = vec![nodes.to_vec()];
        for _ in 0..self.gnn.len() {
            // invariant: levels is seeded with one entry before the loop
            let frontier = levels.last().expect("non-empty");
            let mut ids = Vec::with_capacity(frontier.len() * cfg.fanout);
            for &node in frontier {
                if sampled {
                    pools.sample_neighbors_into(node as u32, cfg.fanout, rng, &mut ids);
                } else {
                    ids.extend(pools.top_neighbors(node as u32, cfg.fanout));
                }
            }
            levels.push(ids);
        }
        levels
    }

    /// Aggregates drawn levels into the level-0 `target` embeddings,
    /// deepest hop first, so each hop sees its children's aggregated state
    /// (GraphSAGE-style). `deeper[l]` holds level `l + 1`'s ids and `embed`
    /// gives a level's pre-GNN embedding.
    pub fn fold_hops<O: Ops, L: AsRef<[usize]>>(
        &self,
        o: &mut O,
        params: &O::Params,
        fanout: usize,
        target: O::Value,
        deeper: &[L],
        mut embed: impl FnMut(&mut O, &[usize]) -> O::Value,
    ) -> O::Value {
        let Some(deepest) = deeper.last() else { return target };
        let hops = deeper.len();
        let mut h = embed(o, deepest.as_ref());
        for l in (1..hops).rev() {
            let level = embed(o, deeper[l - 1].as_ref());
            h = self.gnn[hops - 1 - l].forward(o, params, level, h, fanout);
        }
        self.gnn[hops - 1].forward(o, params, target, h, fanout)
    }
}

impl AgnnModules {
    /// Registers every parameter, in the fixed order the snapshot lists
    /// them: the user side, the item side, the prediction MLP, the global
    /// bias (initialised to `rating_mean`). A side is `(nodes, attribute
    /// encoding dim)`.
    pub fn build(
        store: &mut impl Registry,
        cfg: &AgnnConfig,
        users: (usize, usize),
        items: (usize, usize),
        rating_mean: f32,
        rng: &mut StdRng,
    ) -> Self {
        let user = AgnnSide::build(store, "user", users.0, users.1, cfg, rng);
        let item = AgnnSide::build(store, "item", items.0, items.1, cfg, rng);
        let d = cfg.embed_dim;
        let pred_mlp = Mlp::new(store, "pred", &[2 * d, d, 1], Activation::LeakyRelu(cfg.leaky_slope), rng);
        let global_bias = store.register("global_bias".into(), 1, 1, || Matrix::full(1, 1, rating_mean));
        Self { user, item, pred_mlp, global_bias }
    }

    /// Prediction layer (Eq. 14) on aggregated embeddings:
    /// `MLP([p; q]) + p·qᵀ + b_u + b_i + μ`, one `B × 1` score column.
    pub fn predict<O: Ops>(
        &self,
        o: &mut O,
        params: &O::Params,
        p_user: O::Value,
        q_item: O::Value,
        users: &[usize],
        items: &[usize],
    ) -> O::Value {
        let cat = o.concat(&[p_user.clone(), q_item.clone()]);
        let mlp_out = self.pred_mlp.forward(o, params, cat); // B × 1
        let prod = o.mul(p_user, q_item);
        let dot = o.sum_cols(prod); // B × 1
        let bu = o.param_rows(params, self.user.bias.table, users);
        let bi = o.param_rows(params, self.item.bias.table, items);
        let mu = o.param(params, self.global_bias);
        let mu_rows = o.repeat_rows(mu, users.len());
        let s1 = o.add(mlp_out, dot);
        let s2 = o.add(bu, bi);
        let s3 = o.add(s1, s2);
        o.add(s3, mu_rows)
    }
}

impl Agnn {
    /// Creates an unfitted model; panics on an inconsistent config.
    pub fn new(cfg: AgnnConfig) -> Self {
        cfg.validate();
        Self { cfg, fitted: None }
    }

    /// The configuration.
    pub fn config(&self) -> &AgnnConfig {
        &self.cfg
    }

    /// Embeds a node batch on one side. At eval this is
    /// [`AgnnSide::embed`]; in training the cold-start module also
    /// sabotages warm rows (Mask/Dropout) or samples (eVAE), and emits its
    /// loss terms when `contribute_losses`.
    #[allow(clippy::too_many_arguments)]
    fn embed_nodes(
        cfg: &AgnnConfig,
        g: &mut Graph,
        store: &ParamStore,
        side: &AgnnSide,
        attrs: &AttrLists,
        cold: &[bool],
        nodes: &[usize],
        train: bool,
        contribute_losses: bool,
        rng: &mut StdRng,
    ) -> SideEmbedding {
        let n = nodes.len();
        let mut losses = SideLosses { terms: Vec::new() };
        let mut masked_rows = vec![0.0; n];
        if !train {
            return SideEmbedding { p: side.embed(g, store, cfg, attrs, cold, nodes), losses, masked_rows };
        }
        let m = side.emb.lookup(g, store, Rc::new(nodes.to_vec()));
        let x = side.attr.forward(g, store, attrs, nodes);
        let warm = warm_mask(cold, nodes);
        // Mask/Dropout training: drop warm rows at `mask_rate`.
        let sabotage = |rng: &mut StdRng| -> Vec<f32> {
            warm.iter().map(|&w| if w == 1.0 && rng.gen::<f32>() < cfg.mask_rate { 0.0 } else { w }).collect()
        };
        let (generated, effective) = match cfg.variant.cold {
            ColdStartModule::EVae | ColdStartModule::Vae => {
                let evae = side.evae.as_ref().expect("evae built");
                let out = evae.forward_train(g, store, x, rng);
                if contribute_losses {
                    losses.terms.push((EVAE_WEIGHTS.0, out.kl));
                    losses.terms.push((EVAE_WEIGHTS.1, out.recon_nll));
                    if cfg.variant.cold == ColdStartModule::EVae {
                        let approx = EVae::approximation_loss(g, out.recon, m, &warm);
                        losses.terms.push((EVAE_WEIGHTS.2, approx));
                    }
                }
                (out.recon, warm.clone())
            }
            ColdStartModule::None => (side.cold_substitute(g, store, cfg, x, n), warm.clone()),
            ColdStartModule::Dropout => {
                let effective = sabotage(rng);
                (side.cold_substitute(g, store, cfg, x, n), effective)
            }
            ColdStartModule::Mask => {
                let token_rows = side.cold_substitute(g, store, cfg, x, n);
                let effective = if contribute_losses { sabotage(rng) } else { warm.clone() };
                for (i, (&e, &w)) in effective.iter().zip(&warm).enumerate() {
                    if w == 1.0 && e == 0.0 {
                        masked_rows[i] = 1.0;
                    }
                }
                (token_rows, effective)
            }
            ColdStartModule::Llae | ColdStartModule::LlaePlus => {
                let gen = side.cold_substitute(g, store, cfg, x, n);
                if contribute_losses {
                    // Denoising-AE reconstruction toward the preference
                    // embedding, masked to warm rows.
                    let approx = EVae::approximation_loss(g, gen, m, &warm);
                    losses.terms.push((EVAE_WEIGHTS.2, approx));
                }
                (gen, warm.clone())
            }
        };
        SideEmbedding { p: side.fuse_rows(g, store, m, generated, &effective, x), losses, masked_rows }
    }

    /// Embeds targets, draws + embeds neighborhoods, aggregates. Returns the
    /// aggregated rows, the targets' loss terms and masked rows, and the
    /// targets' pre-GNN rows.
    #[allow(clippy::too_many_arguments)]
    fn side_forward(
        cfg: &AgnnConfig,
        g: &mut Graph,
        store: &ParamStore,
        side: &AgnnSide,
        attrs: &AttrLists,
        pools: &CandidatePools,
        cold: &[bool],
        nodes: &[usize],
        train: bool,
        sample_neighborhoods: bool,
        rng: &mut StdRng,
    ) -> (Var, SideLosses, Vec<f32>, Var) {
        let target = Self::embed_nodes(cfg, g, store, side, attrs, cold, nodes, train, train, rng);
        let levels = side.draw_levels(cfg, pools, nodes, sample_neighborhoods, rng);
        let h = side.fold_hops(g, store, cfg.fanout, target.p, &levels[1..], |g, level| {
            Self::embed_nodes(cfg, g, store, side, attrs, cold, level, train, false, rng).p
        });
        (h, target.losses, target.masked_rows, target.p)
    }

    /// Exports the fitted state as a [`ModelSnapshot`] for the tape-free
    /// inference engine. Parameters are emitted in `ParamStore` insertion
    /// order (deterministic: `build_side` registers them in a fixed
    /// sequence), addressed by their stable names. Errors before fit or on
    /// non-finite parameters — a snapshot must be exactly reloadable, and
    /// the JSON encoding has no representation for NaN/∞.
    pub fn export_snapshot(&self) -> Result<ModelSnapshot, SnapshotError> {
        let f = self
            .fitted
            .as_ref()
            .ok_or_else(|| SnapshotError("export_snapshot before fit".into()))?;
        let mut params = Vec::with_capacity(f.store.len());
        for id in f.store.ids() {
            let value = f.store.value(id);
            if !value.all_finite() {
                return Err(SnapshotError(format!("parameter `{}` has non-finite entries", f.store.name(id))));
            }
            params.push(ParamEntry {
                name: f.store.name(id).to_string(),
                rows: value.rows(),
                cols: value.cols(),
                data: value.as_slice().to_vec(),
            });
        }
        Ok(ModelSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            model: self.name(),
            dataset: f.dataset_name.clone(),
            rating_scale: f.rating_scale,
            config: self.cfg,
            params,
            user_pools: f.user_pools.clone(),
            item_pools: f.item_pools.clone(),
            user_attrs: f.user_attrs.clone(),
            item_attrs: f.item_attrs.clone(),
            user_cold: f.user_cold.clone(),
            item_cold: f.item_cold.clone(),
        })
    }

    fn build_pools(
        cfg: &AgnnConfig,
        dataset: &Dataset,
        split: &Split,
    ) -> (CandidatePools, CandidatePools) {
        match cfg.variant.graph {
            GraphKind::Dynamic(_) | GraphKind::StaticKnn => {
                let mode = if let GraphKind::Dynamic(m) = cfg.variant.graph { m } else { ProximityMode::AttributeOnly };
                let pool_cfg = PoolConfig { top_percent: cfg.top_percent, mode, ..PoolConfig::default() };
                let user_prefs = dataset.user_preference_vectors(&split.train);
                let item_prefs = dataset.item_preference_vectors(&split.train);
                let users = CandidatePools::build(&dataset.user_attrs, Some(&user_prefs), pool_cfg);
                let items = CandidatePools::build(&dataset.item_attrs, Some(&item_prefs), pool_cfg);
                if matches!(cfg.variant.graph, GraphKind::StaticKnn) {
                    (users.to_knn_pools(cfg.fanout), items.to_knn_pools(cfg.fanout))
                } else {
                    (users, items)
                }
            }
            GraphKind::CoPurchase => {
                let bip = agnn_graph::BipartiteGraph::from_ratings(
                    dataset.num_users,
                    dataset.num_items,
                    &Dataset::rating_triples(&split.train),
                );
                let user_graph = agnn_graph::construction::user_coengagement_graph(&bip, 1, 50);
                let item_graph = agnn_graph::construction::item_coengagement_graph(&bip, 1, 50);
                let to_pools = |csr: &agnn_graph::CsrGraph| {
                    let pools = (0..csr.num_nodes() as u32)
                        .map(|n| csr.edges_of(n).collect::<Vec<_>>())
                        .collect();
                    CandidatePools::from_scored(pools, PoolConfig { top_percent: cfg.top_percent, ..PoolConfig::default() })
                };
                (to_pools(&user_graph), to_pools(&item_graph))
            }
        }
    }

}

impl RatingModel for Agnn {
    fn name(&self) -> String {
        "AGNN".into()
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) -> TrainReport {
        self.fit_with(dataset, split, &mut HookList::new())
    }

    fn fit_with(&mut self, dataset: &Dataset, split: &Split, hooks: &mut HookList<'_>) -> TrainReport {
        let cfg = self.cfg;
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // --- input layer: graphs, attribute lists, cold flags -------------
        let (user_pools, item_pools) = Self::build_pools(&cfg, dataset, split);
        let user_attrs = AttrLists::from_sparse(&dataset.user_attrs);
        let item_attrs = AttrLists::from_sparse(&dataset.item_attrs);
        let deg = Degrees::from_split(dataset, split);
        let user_cold = deg.user_cold();
        let item_cold = deg.item_cold();

        // --- parameters ----------------------------------------------------
        let mut store = ParamStore::new();
        let modules = AgnnModules::build(
            &mut store,
            &cfg,
            (dataset.num_users, user_attrs.dim()),
            (dataset.num_items, item_attrs.dim()),
            split.train_mean(),
            &mut rng,
        );

        // --- training loop ---------------------------------------------------
        let mut trainer = Trainer::new(cfg.train_config());
        let mut report = trainer.fit(&mut store, &split.train, &mut rng, hooks, |g, store, ctx| {
            let (users, items, values) = unzip_batch(ctx.batch);
            let (pu, u_losses, u_masked, pu_init) = Self::side_forward(
                &cfg, g, store, &modules.user, &user_attrs, &user_pools, &user_cold, &users, true, true,
                &mut *ctx.rng,
            );
            let (qi, i_losses, i_masked, qi_init) = Self::side_forward(
                &cfg, g, store, &modules.item, &item_attrs, &item_pools, &item_cold, &items, true, true,
                &mut *ctx.rng,
            );
            let scores = modules.predict(g, store, pu, qi, &users, &items);
            let target = g.constant(Matrix::col_vector(values));
            let pred_loss = loss::mse(g, scores, target);

            let mut recon_terms: Vec<(f32, Var)> = Vec::new();
            recon_terms.extend(u_losses.terms);
            recon_terms.extend(i_losses.terms);
            // Mask replacement: post-GNN decoders reconstruct the
            // masked nodes' initial embeddings.
            if cfg.variant.cold == ColdStartModule::Mask {
                for (dec, aggregated, initial, masked) in [
                    (&modules.user.mask_decoder, pu, pu_init, &u_masked),
                    (&modules.item.mask_decoder, qi, qi_init, &i_masked),
                ] {
                    let dec = dec.as_ref().expect("mask decoder built");
                    if masked.iter().sum::<f32>() > 0.0 {
                        let recon = dec.forward(g, store, aggregated);
                        let l = EVae::approximation_loss(g, recon, initial, masked);
                        recon_terms.push((0.5, l));
                    }
                }
            }

            let total = if recon_terms.is_empty() || cfg.lambda == 0.0 {
                pred_loss
            } else {
                let weighted: Vec<(f32, Var)> = std::iter::once((1.0, pred_loss))
                    .chain(recon_terms.iter().map(|&(w, t)| (cfg.lambda * w, t)))
                    .collect();
                loss::weighted_sum(g, &weighted)
            };

            StepLosses {
                total,
                prediction: g.scalar(pred_loss) as f64,
                reconstruction: recon_terms.iter().map(|&(w, t)| (w * g.scalar(t)) as f64).sum::<f64>(),
            }
        });
        report.train_seconds = start.elapsed().as_secs_f64();

        self.fitted = Some(Fitted {
            store,
            modules,
            user_pools,
            item_pools,
            user_attrs,
            item_attrs,
            user_cold,
            item_cold,
            dataset_name: dataset.name.clone(),
            rating_scale: dataset.rating_scale,
        });
        report
    }

    fn predict_batch(&self, pairs: &[(u32, u32)]) -> Vec<f32> {
        let f = self.fitted.as_ref().expect("predict before fit");
        let cfg = &self.cfg;
        let mut out = Vec::with_capacity(pairs.len());
        let mut rng = eval_rng(cfg);
        for chunk in pairs.chunks(EVAL_CHUNK) {
            let users: Vec<usize> = chunk.iter().map(|&(u, _)| u as usize).collect();
            let items: Vec<usize> = chunk.iter().map(|&(_, i)| i as usize).collect();
            let mut acc = vec![0.0f32; chunk.len()];
            let passes = 1 + EVAL_NEIGHBORHOOD_SAMPLES;
            for pass in 0..passes {
                let sample = pass > 0;
                let mut g = Graph::new();
                let (pu, _, _, _) = Self::side_forward(
                    cfg, &mut g, &f.store, &f.modules.user, &f.user_attrs, &f.user_pools, &f.user_cold, &users,
                    false, sample, &mut rng,
                );
                let (qi, _, _, _) = Self::side_forward(
                    cfg, &mut g, &f.store, &f.modules.item, &f.item_attrs, &f.item_pools, &f.item_cold, &items,
                    false, sample, &mut rng,
                );
                let scores = f.modules.predict(&mut g, &f.store, pu, qi, &users, &items);
                for (a, &v) in acc.iter_mut().zip(g.value(scores).as_slice()) {
                    *a += v;
                }
            }
            out.extend(acc.into_iter().map(|v| v / passes as f32));
        }
        out
    }

    fn snapshot(&self) -> Option<ModelSnapshot> {
        self.export_snapshot().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{evaluate, fit_and_evaluate};
    use agnn_data::{ColdStartKind, Preset, SplitConfig};

    fn quick_cfg() -> AgnnConfig {
        AgnnConfig { embed_dim: 16, vae_latent_dim: 8, fanout: 5, epochs: 8, batch_size: 64, lr: 3e-3, ..AgnnConfig::default() }
    }

    fn data_and_split(kind: ColdStartKind) -> (Dataset, Split) {
        let data = Preset::Ml100k.generate(0.1, 42);
        let split = Split::create(&data, SplitConfig::paper_default(kind, 42));
        (data, split)
    }

    #[test]
    fn fits_and_beats_constant_on_warm_start() {
        let (data, split) = data_and_split(ColdStartKind::WarmStart);
        let mut model = Agnn::new(quick_cfg());
        let (report, acc) = fit_and_evaluate(&mut model, &data, &split);
        let result = acc.finish();
        // Constant-mean RMSE on this data ≈ rating std.
        let mean = split.train_mean();
        let const_rmse = {
            let mut a = agnn_metrics::EvalAccumulator::new();
            for r in &split.test {
                a.push(mean, r.value);
            }
            a.finish().rmse
        };
        assert!(result.rmse < const_rmse, "AGNN {} vs constant {}", result.rmse, const_rmse);
        assert_eq!(report.epochs.len(), 8);
        // Prediction loss decreases over training.
        assert!(report.epochs.last().unwrap().prediction < report.epochs[0].prediction);
    }

    #[test]
    fn strict_item_cold_start_predicts_finite_reasonable() {
        let (data, split) = data_and_split(ColdStartKind::StrictItem);
        split.validate();
        let mut model = Agnn::new(quick_cfg());
        model.fit(&data, &split);
        let result = evaluate(&model, &data, &split.test).finish();
        assert!(result.rmse < 1.6, "ICS rmse {}", result.rmse);
        assert!(result.n == split.test.len());
    }

    #[test]
    fn strict_user_cold_start_runs() {
        let (data, split) = data_and_split(ColdStartKind::StrictUser);
        let mut model = Agnn::new(quick_cfg());
        model.fit(&data, &split);
        let result = evaluate(&model, &data, &split.test).finish();
        assert!(result.rmse < 1.6, "UCS rmse {}", result.rmse);
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, split) = data_and_split(ColdStartKind::WarmStart);
        let run = || {
            let mut m = Agnn::new(quick_cfg());
            m.fit(&data, &split);
            m.predict_batch(&[(0, 0), (1, 2)])
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        let model = Agnn::new(quick_cfg());
        let _ = model.predict(0, 0);
    }

    #[test]
    fn lambda_zero_disables_recon_contribution() {
        let (data, split) = data_and_split(ColdStartKind::WarmStart);
        let mut cfg = quick_cfg();
        cfg.lambda = 0.0;
        cfg.epochs = 1;
        let mut model = Agnn::new(cfg);
        let report = model.fit(&data, &split);
        // Recon still measured for the report, but training ran.
        assert_eq!(report.epochs.len(), 1);
        assert!(report.epochs[0].prediction.is_finite());
    }

    #[test]
    fn every_snapshot_parameter_is_registered_and_resolves() {
        use crate::snapshot::SnapshotParams;
        use crate::variants::VariantName;
        let (data, split) = data_and_split(ColdStartKind::StrictItem);
        for variant in VariantName::TABLE3.into_iter().chain(VariantName::TABLE4) {
            let cfg = AgnnConfig { epochs: 0, embed_dim: 4, vae_latent_dim: 2, variant: variant.variant(), ..quick_cfg() };
            let mut model = Agnn::new(cfg);
            model.fit(&data, &split);
            let snap = model.export_snapshot().unwrap();
            let sides = ((data.num_users, data.user_attrs[0].dim()), (data.num_items, data.item_attrs[0].dim()));
            let mut resolver = SnapshotParams::new(&snap);
            AgnnModules::build(&mut resolver, &cfg, sides.0, sides.1, 0.0, &mut StdRng::seed_from_u64(0));
            assert!(resolver.finish().is_ok(), "{variant:?}");
            // Nothing in the snapshot goes unregistered (and so unchecked).
            let mut store = ParamStore::new();
            AgnnModules::build(&mut store, &cfg, sides.0, sides.1, 0.0, &mut StdRng::seed_from_u64(0));
            let names: Vec<&str> = store.ids().map(|id| store.name(id)).collect();
            let in_snapshot: Vec<&str> = snap.params.iter().map(|p| p.name.as_str()).collect();
            assert_eq!(names, in_snapshot, "{variant:?}");
        }
    }
}
