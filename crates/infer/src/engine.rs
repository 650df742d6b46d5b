//! The inference engine: snapshot loading, the embedding materializer and
//! the batched scorer.

use crate::eager::{into_matrix, Eager, EngineParams};
use agnn_core::interaction::AttrLists;
use agnn_core::{
    eval_rng, AgnnConfig, AgnnModules, AgnnSide, ModelSnapshot, SnapshotError, SnapshotParams, EVAL_CHUNK,
    EVAL_NEIGHBORHOOD_SAMPLES,
};
use agnn_graph::CandidatePools;
use agnn_obs::{metrics, trace};
use agnn_tensor::{select, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Which side of the bipartite problem a node batch belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// User nodes.
    User,
    /// Item nodes.
    Item,
}

/// One side's nodes: what the forward reads besides parameters, and the
/// tables [`InferenceEngine::materialize`] precomputes.
struct SideData {
    pools: CandidatePools,
    attrs: AttrLists,
    cold: Vec<bool>,
    /// Materialized pre-GNN embeddings (`n × D`), when precomputed.
    cache: Option<Matrix>,
    /// Materialized pass-0 output (`n × D`): every node's forward over its
    /// `top_neighbors` levels, when precomputed.
    pass0: Option<Matrix>,
}

/// Target rows per block when a side forward is split across threads.
const SPLIT_BLOCK: usize = EVAL_CHUNK / 2;

/// Most node ids the deepest level of one [`EVAL_CHUNK`]-row side forward
/// may hold (`EVAL_CHUNK · fanout^hops`): fanout 10 at three hops is
/// 512,000. A snapshot whose config asks for more is refused at load.
const MAX_LEVEL_ROWS: usize = 1 << 21;

/// Entries the top-K item memo keeps per (chunk round, sampled pass): one
/// per draw class of a one-hop model (the user's pool empty or not).
const ITEM_MEMO_ENTRIES: usize = 2;

/// Item-side rows of `top_k`'s sampled passes, keyed by (chunk round,
/// pass). Each entry holds the drawn levels (as `u32` ids, half the bytes
/// of `usize`) and the rows [`InferenceEngine::forward_levels`] returned
/// for them; that function is pure, so equal levels give equal rows bit
/// for bit.
type ItemMemo = Mutex<HashMap<(usize, usize), Vec<(Vec<Vec<u32>>, Matrix)>>>;

/// A tape-free AGNN scorer built from a [`ModelSnapshot`].
///
/// Construction runs AGNN's own parameter registration against the
/// snapshot, so every parameter is resolved by its stable name and
/// shape-checked; scoring runs the model's forward over eager ops and
/// touches no autograd tape. [`InferenceEngine::score_batch`] is
/// bit-identical to `Agnn::predict_batch` on the model the snapshot was
/// exported from, with or without [`InferenceEngine::materialize`].
pub struct InferenceEngine {
    cfg: AgnnConfig,
    modules: AgnnModules,
    params: EngineParams,
    user: SideData,
    item: SideData,
    rating_scale: (f32, f32),
    dataset: String,
    /// The top-K item memo, present while materialized.
    item_memo: Option<ItemMemo>,
    /// `available_parallelism()` at load: the most threads one scoring
    /// call may use.
    cores: usize,
    /// Scoring calls running on this engine; a side forward may use the
    /// cores they leave idle.
    in_flight: AtomicUsize,
}

/// Counts one scoring call in [`InferenceEngine::in_flight`] while alive.
struct InFlight<'a>(&'a AtomicUsize);

impl<'a> InFlight<'a> {
    fn enter(calls: &'a AtomicUsize) -> Self {
        calls.fetch_add(1, Ordering::Relaxed);
        Self(calls)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One side's node data, checked against its preference table: one cold
/// flag, attribute list and candidate pool per row, `embed_dim` wide.
fn side_data(snap: &ModelSnapshot, name: &str, side: Side) -> Result<SideData, SnapshotError> {
    let (pools, attrs, cold) = match side {
        Side::User => (snap.user_pools.clone(), snap.user_attrs.clone(), snap.user_cold.clone()),
        Side::Item => (snap.item_pools.clone(), snap.item_attrs.clone(), snap.item_cold.clone()),
    };
    let pref = snap
        .param(&format!("{name}.pref"))
        .ok_or_else(|| SnapshotError(format!("parameter `{name}.pref` not in snapshot (model `{}`)", snap.model)))?;
    let embed_dim = snap.config.embed_dim;
    if pref.cols != embed_dim {
        return Err(SnapshotError(format!("{name}.pref is {} wide for embed_dim {embed_dim}", pref.cols)));
    }
    let n = pref.rows;
    for (what, got) in [("cold flags", cold.len()), ("attribute lists", attrs.num_nodes()), ("candidate pools", pools.num_nodes())] {
        if got != n {
            return Err(SnapshotError(format!("{name} side: {got} {what} for {n} preference rows")));
        }
    }
    Ok(SideData { pools, attrs, cold, cache: None, pass0: None })
}

/// Runs `f` over the node ids `0..n` in [`EVAL_CHUNK`]-row batches and
/// stacks the results into one `n × dim` table.
fn by_chunks(n: usize, dim: usize, mut f: impl FnMut(&[usize]) -> Matrix) -> Matrix {
    let parts: Vec<Matrix> =
        (0..n).step_by(EVAL_CHUNK).map(|start| f(&(start..(start + EVAL_CHUNK).min(n)).collect::<Vec<usize>>())).collect();
    let refs: Vec<&Matrix> = parts.iter().collect();
    if refs.is_empty() {
        Matrix::zeros(0, dim)
    } else {
        Matrix::vstack(&refs)
    }
}

/// Pre-GNN embedding of a node batch, computed: [`AgnnSide::embed`] over
/// [`Eager`].
fn embed_rows(cfg: &AgnnConfig, params: &EngineParams, side: &AgnnSide, data: &SideData, nodes: &[usize]) -> Matrix {
    into_matrix(side.embed(&mut Eager, params, cfg, &data.attrs, &data.cold, nodes))
}

impl InferenceEngine {
    /// Builds an engine from a snapshot: checks the config's level sizes
    /// and each side's node data, then resolves every parameter AGNN
    /// registers by name and shape. Fails on anything missing or
    /// mismatched — a half-resolved scorer must never come into existence.
    pub fn from_snapshot(snap: &ModelSnapshot) -> Result<Self, SnapshotError> {
        if snap.model != "AGNN" {
            return Err(SnapshotError(format!("engine serves AGNN snapshots, got model `{}`", snap.model)));
        }
        let cfg = snap.config;
        let hops = cfg.gnn_hops();
        if hops > 0 && cfg.fanout == 0 {
            return Err(SnapshotError(format!("fanout is 0 for {hops} GNN hop(s)")));
        }
        let deepest =
            u32::try_from(hops).ok().and_then(|h| cfg.fanout.checked_pow(h)).and_then(|width| width.checked_mul(EVAL_CHUNK));
        if !matches!(deepest, Some(rows) if rows <= MAX_LEVEL_ROWS) {
            return Err(SnapshotError(format!(
                "fanout {} over {hops} GNN hop(s) draws more than {MAX_LEVEL_ROWS} neighbor rows per {EVAL_CHUNK}-row chunk",
                cfg.fanout
            )));
        }
        let user = side_data(snap, "user", Side::User)?;
        let item = side_data(snap, "item", Side::Item)?;
        let mut resolver = SnapshotParams::new(snap);
        // Loading calls no initialiser, so this rng is never drawn from.
        let modules = AgnnModules::build(
            &mut resolver,
            &cfg,
            (user.cold.len(), user.attrs.dim()),
            (item.cold.len(), item.attrs.dim()),
            0.0,
            &mut StdRng::seed_from_u64(0),
        );
        let params = EngineParams::new(resolver.finish()?, &[modules.user.attr_table(), modules.item.attr_table()]);
        let (rating_scale, dataset) = (snap.rating_scale, snap.dataset.clone());
        // Read once: on Linux this reads cgroup files.
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Ok(Self {
            cfg,
            modules,
            params,
            user,
            item,
            rating_scale,
            dataset,
            item_memo: None,
            cores,
            in_flight: AtomicUsize::new(0),
        })
    }

    /// The training configuration the snapshot carries.
    pub fn config(&self) -> &AgnnConfig {
        &self.cfg
    }

    /// Name of the dataset the model was fitted on.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// Rating scale `(lo, hi)` for [`InferenceEngine::clamp`].
    pub fn rating_scale(&self) -> (f32, f32) {
        self.rating_scale
    }

    /// Number of user nodes.
    pub fn num_users(&self) -> usize {
        self.user.cold.len()
    }

    /// Number of item nodes.
    pub fn num_items(&self) -> usize {
        self.item.cold.len()
    }

    /// Whether [`InferenceEngine::materialize`] has run.
    pub fn is_materialized(&self) -> bool {
        self.user.cache.is_some() && self.item.cache.is_some()
    }

    /// Clamps a served score onto the rating scale (same policy as
    /// `Dataset::clamp_rating` at evaluation).
    pub fn clamp(&self, score: f32) -> f32 {
        score.clamp(self.rating_scale.0, self.rating_scale.1)
    }

    /// True when either side of an (already range-checked) pair is a
    /// strict-cold-start node — the same classification the
    /// `infer.score.scs_pairs` counter uses. Exposed so the serving layer
    /// can stamp a warm/SCS mix onto slow-request exemplars.
    pub fn is_scs_pair(&self, user: u32, item: u32) -> bool {
        self.user.cold[user as usize] || self.item.cold[item as usize]
    }

    /// The modules and node data of `which` side.
    fn side(&self, which: Side) -> (&AgnnSide, &SideData) {
        match which {
            Side::User => (&self.modules.user, &self.user),
            Side::Item => (&self.modules.item, &self.item),
        }
    }

    /// Batch embedding: gathers from the materialized cache when present,
    /// otherwise computes. Bit-identical either way (every kernel on the
    /// embedding path is row-independent).
    fn embed(&self, which: Side, nodes: &[usize]) -> Matrix {
        let (side, data) = self.side(which);
        match &data.cache {
            Some(cache) => {
                metrics::counter_add("infer.embed.cache_hit_rows", nodes.len() as u64);
                cache.gather_rows(nodes)
            }
            None => {
                metrics::counter_add("infer.embed.cache_miss_rows", nodes.len() as u64);
                embed_rows(&self.cfg, &self.params, side, data, nodes)
            }
        }
    }

    /// Precomputes the pre-GNN embedding of **every** node on both sides —
    /// warm nodes from their trained preference rows, strict cold start
    /// ones through the generation path — and then each node's pass-0
    /// output, so scoring reduces to gathers plus the sampled passes and
    /// the prediction layer. Also opens an empty top-K item memo.
    ///
    /// Pass 0 draws `top_neighbors` levels and no rng, so its output for a
    /// node depends only on the node; every kernel on the forward path is
    /// row-independent, so a row of the table equals that row of any batch
    /// forward bit for bit.
    pub fn materialize(&mut self) {
        let cfg = self.cfg;
        let mut span = trace::span("infer.materialize");
        let mut total_rows = 0usize;
        let params = &self.params;
        for (side, data) in [(&self.modules.user, &mut self.user), (&self.modules.item, &mut self.item)] {
            let n = data.cold.len();
            total_rows += n;
            let cold_rows = data.cold.iter().filter(|&&c| c).count();
            metrics::counter_add("infer.materialize.rows", n as u64);
            metrics::counter_add("infer.materialize.cold_rows", cold_rows as u64);
            metrics::counter_add("infer.materialize.warm_rows", (n - cold_rows) as u64);
            data.cache = Some(by_chunks(n, cfg.embed_dim, |nodes| {
                metrics::timed("infer.materialize.chunk_ns", || embed_rows(&cfg, params, side, data, nodes))
            }));
        }
        let [user_pass0, item_pass0] = [Side::User, Side::Item].map(|which| {
            let (side, data) = self.side(which);
            let n = data.cold.len();
            metrics::counter_add("infer.materialize.pass0_rows", n as u64);
            // A pass-0 draw reads no rng; this one only fills the parameter.
            let mut rng = StdRng::seed_from_u64(0);
            by_chunks(n, cfg.embed_dim, |nodes| {
                self.forward_levels(which, &side.draw_levels(&cfg, &data.pools, nodes, false, &mut rng))
            })
        });
        self.user.pass0 = Some(user_pass0);
        self.item.pass0 = Some(item_pass0);
        self.item_memo = Some(ItemMemo::default());
        span.field("rows", total_rows);
    }

    /// Drops the materialized caches, the pass-0 tables and the top-K item
    /// memo (fresh-compute mode again).
    pub fn dematerialize(&mut self) {
        for data in [&mut self.user, &mut self.item] {
            data.cache = None;
            data.pass0 = None;
        }
        self.item_memo = None;
    }

    /// Runs the embedding + GNN aggregation over already-drawn levels
    /// ([`AgnnSide::fold_hops`]). Pure (no rng): embeds the level-0
    /// targets, then the deepest level, and folds hop by hop down to the
    /// targets, exactly as the tape's eval path does.
    fn forward_levels<L: AsRef<[usize]>>(&self, which: Side, levels: &[L]) -> Matrix {
        let Some((base, deeper)) = levels.split_first() else {
            return Matrix::zeros(0, self.cfg.embed_dim);
        };
        let target = Arc::new(self.embed(which, base.as_ref()));
        let (side, _) = self.side(which);
        let rows = side.fold_hops(&mut Eager, &self.params, self.cfg.fanout, target, deeper, |_, nodes| {
            Arc::new(self.embed(which, nodes))
        });
        into_matrix(rows)
    }

    /// Threads a side forward over `rows` targets runs on: one per
    /// [`SPLIT_BLOCK`]-row block, at most one plus the cores not taken by
    /// scoring calls in flight (this one included).
    fn split_threads(&self, rows: usize) -> usize {
        let helpers = self.cores.saturating_sub(self.in_flight.load(Ordering::Relaxed));
        rows.div_ceil(SPLIT_BLOCK).min(1 + helpers)
    }

    /// [`InferenceEngine::forward_levels`], split by rows across the cores
    /// other scoring calls leave idle.
    ///
    /// Level 0 is cut into contiguous [`SPLIT_BLOCK`]-row blocks; a block
    /// `[a, b)` takes rows `[a·fᴸ, b·fᴸ)` of level `L`, which are exactly
    /// its targets' neighbor blocks. Every kernel on the forward path is
    /// row-independent (the argument `materialize` relies on), so the
    /// stacked block outputs equal one whole forward bit for bit. The
    /// calling thread runs block 0 and every `threads`-th after it; helper
    /// `t` runs block `t` and its strides. With one thread, or one block,
    /// this is the plain forward.
    fn forward_split(&self, which: Side, levels: &[Vec<usize>]) -> Matrix {
        let rows = levels.first().map_or(0, Vec::len);
        let blocks = rows.div_ceil(SPLIT_BLOCK);
        let threads = self.split_threads(rows);
        if threads <= 1 {
            return self.forward_levels(which, levels);
        }
        metrics::counter_add("infer.score.forward_splits", 1);
        let fanout = self.cfg.fanout;
        let block = |b: usize| {
            let (start, end) = (b * SPLIT_BLOCK, ((b + 1) * SPLIT_BLOCK).min(rows));
            let mut width = 1;
            let slices: Vec<&[usize]> = levels
                .iter()
                .map(|level| {
                    let slice = &level[start * width..end * width];
                    width *= fanout;
                    slice
                })
                .collect();
            self.forward_levels(which, &slices)
        };
        let share = |t: usize| (t..blocks).step_by(threads).map(block).collect::<Vec<Matrix>>();
        let shares: Vec<Vec<Matrix>> = std::thread::scope(|s| {
            let spawned: Vec<_> =
                (1..threads).map(|t| (t, std::thread::Builder::new().spawn_scoped(s, move || share(t)))).collect();
            let mut shares = vec![share(0)];
            for (t, helper) in spawned {
                // A helper that could not start leaves its share to this thread.
                shares.push(match helper {
                    Ok(handle) => handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                    Err(_) => share(t),
                });
            }
            shares
        });
        // Block b is share b % threads, entry b / threads.
        let parts: Vec<&Matrix> = (0..blocks).map(|b| &shares[b % threads][b / threads]).collect();
        Matrix::vstack(&parts)
    }

    /// Prediction layer (Eq. 14) on aggregated embeddings.
    fn predict_scores(&self, p_user: Matrix, q_item: Matrix, users: &[usize], items: &[usize]) -> Matrix {
        let (p_user, q_item) = (Arc::new(p_user), Arc::new(q_item));
        into_matrix(self.modules.predict(&mut Eager, &self.params, p_user, q_item, users, items))
    }

    /// Scores `(user, item)` pairs: one request through
    /// [`InferenceEngine::score_coalesced`]. Protocol-identical to
    /// `Agnn::predict_batch`: [`EVAL_CHUNK`]-pair chunks, one [`eval_rng`]
    /// shared across the whole call, and per chunk one deterministic
    /// top-neighborhood pass plus [`EVAL_NEIGHBORHOOD_SAMPLES`] sampled
    /// passes, averaged. Panics on out-of-range ids.
    pub fn score_batch(&self, pairs: &[(u32, u32)]) -> Vec<f32> {
        // invariant: score_coalesced returns exactly one score vector per request
        self.score_coalesced(&[pairs]).pop().expect("one request in, one score vector out")
    }

    /// Scores several independent pair requests in one coalesced execution,
    /// returning one score vector per request, each bit-identical to what
    /// [`InferenceEngine::score_batch`] returns for that request alone.
    ///
    /// Naively concatenating the requests would **not** be bit-identical for
    /// dynamic-graph variants: the sampled passes of a merged batch would
    /// share one rng stream and shift every request's 512-pair chunk grid.
    /// Instead each request keeps its own rng (seeded like
    /// `Agnn::predict_batch`) and its own chunk grid; per (chunk round,
    /// ensemble pass) the per-request neighborhood levels are drawn from the
    /// owning request's rng in request order and concatenated level-wise,
    /// and one merged `forward_levels` + predict call
    /// computes all segments at once. Every kernel on that path is
    /// row-independent (the same argument `materialize` relies on), and each
    /// level keeps contiguous `fanout`-sized neighbor blocks per target row,
    /// so the concatenation never crosses a segment boundary: row `r` of the
    /// merged call equals row `r` of the per-request call bit for bit.
    ///
    /// Panics on out-of-range ids; the serving front end range-checks
    /// before enqueueing.
    pub fn score_coalesced(&self, requests: &[&[(u32, u32)]]) -> Vec<Vec<f32>> {
        self.score_rounds(requests, None)
    }

    /// The one chunk/pass scoring loop behind every entry point. With an
    /// `item_memo` (only `top_k` passes one), the item side of each sampled
    /// pass is looked up by its drawn levels before it is computed.
    fn score_rounds(&self, requests: &[&[(u32, u32)]], item_memo: Option<&ItemMemo>) -> Vec<Vec<f32>> {
        let (nu, ni) = (self.num_users(), self.num_items());
        for req in requests {
            for &(u, i) in *req {
                assert!((u as usize) < nu, "score_coalesced: user {u} out of range ({nu} users)");
                assert!((i as usize) < ni, "score_coalesced: item {i} out of range ({ni} items)");
            }
        }
        let _call = InFlight::enter(&self.in_flight);
        let total: usize = requests.iter().map(|r| r.len()).sum();
        let mut span = trace::span("infer.score_batch").with_field("pairs", total);
        span.field("materialized", self.is_materialized());
        span.field("coalesced_requests", requests.len());
        if metrics::enabled() {
            let scs = requests
                .iter()
                .flat_map(|r| r.iter())
                .filter(|&&(u, i)| self.user.cold[u as usize] || self.item.cold[i as usize])
                .count();
            metrics::counter_add("infer.score.pairs", total as u64);
            metrics::counter_add("infer.score.scs_pairs", scs as u64);
            metrics::counter_add("infer.score.warm_pairs", (total - scs) as u64);
        }
        let mut rngs: Vec<StdRng> =
            requests.iter().map(|_| eval_rng(&self.cfg)).collect();
        let mut outs: Vec<Vec<f32>> = requests.iter().map(|r| Vec::with_capacity(r.len())).collect();
        let rounds = requests.iter().map(|r| r.len().div_ceil(EVAL_CHUNK)).max().unwrap_or(0);
        let passes = 1 + EVAL_NEIGHBORHOOD_SAMPLES;
        for round in 0..rounds {
            metrics::timed("infer.score.chunk_ns", || {
                // The requests still alive in this chunk round, as
                // (request index, this round's chunk of it) segments.
                let segs: Vec<(usize, &[(u32, u32)])> = requests
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| round * EVAL_CHUNK < r.len())
                    .map(|(j, r)| (j, &r[round * EVAL_CHUNK..r.len().min((round + 1) * EVAL_CHUNK)]))
                    .collect();
                let users: Vec<usize> =
                    segs.iter().flat_map(|(_, c)| c.iter().map(|&(u, _)| u as usize)).collect();
                let items: Vec<usize> =
                    segs.iter().flat_map(|(_, c)| c.iter().map(|&(_, i)| i as usize)).collect();
                let mut acc = vec![0.0f32; users.len()];
                for pass in 0..passes {
                    let sample = pass > 0;
                    let pu = metrics::timed("infer.score.side_forward_ns", || {
                        self.coalesced_side(Side::User, &segs, &users, sample, &mut rngs, None)
                    });
                    let memo = item_memo.map(|m| (m, (round, pass)));
                    let qi = metrics::timed("infer.score.side_forward_ns", || {
                        self.coalesced_side(Side::Item, &segs, &items, sample, &mut rngs, memo)
                    });
                    let scores =
                        metrics::timed("infer.score.predict_ns", || self.predict_scores(pu, qi, &users, &items));
                    for (a, &v) in acc.iter_mut().zip(scores.as_slice()) {
                        *a += v;
                    }
                }
                let mut off = 0usize;
                for &(j, c) in &segs {
                    // invariant: segs only holds indices < outs.len(), offsets partition acc
                    outs[j].extend(acc[off..off + c.len()].iter().map(|v| v / passes as f32));
                    off += c.len();
                }
            });
        }
        outs
    }

    /// One side of a coalesced pass over the round's level-0 `nodes` (the
    /// segments' user or item ids, concatenated): draws each segment's
    /// levels from the owning request's rng (in segment order),
    /// concatenates the levels element-wise across segments, and runs one
    /// merged forward over them.
    ///
    /// A pass that draws no rng on this side is pass 0's computation, so
    /// when materialized it is a gather from the pass-0 table; skipping the
    /// draw leaves every request's rng stream untouched. With a memo slot,
    /// levels equal to a stored entry's return its rows; a miss computes
    /// the rows and stores them while the slot has room.
    fn coalesced_side(
        &self,
        which: Side,
        segs: &[(usize, &[(u32, u32)])],
        nodes: &[usize],
        sample: bool,
        rngs: &mut [StdRng],
        memo: Option<(&ItemMemo, (usize, usize))>,
    ) -> Matrix {
        let (side, data) = self.side(which);
        if let (false, Some(table)) = (side.draws_rng(&self.cfg, sample), &data.pass0) {
            return table.gather_rows(nodes);
        }
        let mut off = 0usize;
        let per_seg: Vec<Vec<Vec<usize>>> = segs
            .iter()
            .map(|&(j, chunk)| {
                let seg_nodes = &nodes[off..off + chunk.len()];
                off += chunk.len();
                // invariant: segs only holds indices < rngs.len(), offsets partition nodes
                side.draw_levels(&self.cfg, &data.pools, seg_nodes, sample, &mut rngs[j])
            })
            .collect();
        let depth = per_seg.iter().map(Vec::len).max().unwrap_or(1);
        let merged: Vec<Vec<usize>> = (0..depth)
            .map(|l| per_seg.iter().flat_map(|ls| ls.get(l).into_iter().flatten().copied()).collect())
            .collect();
        let Some((memo, key)) = memo else { return self.forward_split(which, &merged) };
        // Node ids are u32 on every interface, so this narrowing is exact.
        let drawn: Vec<Vec<u32>> = merged.iter().map(|l| l.iter().map(|&n| n as u32).collect()).collect();
        let lock = || memo.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, rows)) = lock().get(&key).and_then(|es| es.iter().find(|(levels, _)| *levels == drawn)) {
            metrics::counter_add("infer.topk.item_memo_hits", 1);
            return rows.clone();
        }
        metrics::counter_add("infer.topk.item_memo_misses", 1);
        let rows = self.forward_split(which, &merged);
        let mut slots = lock();
        let entries = slots.entry(key).or_default();
        if entries.len() < ITEM_MEMO_ENTRIES && !entries.iter().any(|(levels, _)| *levels == drawn) {
            entries.push((drawn, rows.clone()));
        }
        rows
    }

    /// Single-pair convenience wrapper.
    pub fn score(&self, user: u32, item: u32) -> f32 {
        // invariant: score_batch returns exactly one score per input pair
        self.score_batch(&[(user, item)])[0]
    }

    /// Scores one user against many items: [`InferenceEngine::score_batch`]
    /// over the `(user, i)` pairs. Panics on out-of-range ids.
    pub fn score_one_vs_many(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let pairs: Vec<(u32, u32)> = items.iter().map(|&i| (user, i)).collect();
        self.score_batch(&pairs)
    }

    /// Exhaustive top-K retrieval: scores `user` against **every** item
    /// through the scoring loop of [`InferenceEngine::score_batch`] and
    /// keeps the best `k` with a bounded-heap partial select
    /// (`agnn_tensor::select`). Returns `(item, score)` best-first —
    /// descending score under `total_cmp`, ties to the lower item id —
    /// exactly the head of an argsort of `score_batch` over all items.
    ///
    /// The item side of a sampled pass depends only on the levels the
    /// request's rng draws for the catalog. When materialized, the loop
    /// looks those levels up in the item memo, so the catalog's item side
    /// is forwarded once per draw class rather than once per request.
    pub fn top_k(&self, user: u32, k: usize) -> Vec<(u32, f32)> {
        let pairs: Vec<(u32, u32)> = (0..self.num_items() as u32).map(|i| (user, i)).collect();
        metrics::counter_add("infer.topk.requests", 1);
        metrics::counter_add("infer.topk.items_scored", pairs.len() as u64);
        // invariant: score_rounds returns exactly one score vector per request
        let scores = self.score_rounds(&[&pairs], self.item_memo.as_ref()).pop().expect("one request in, one score vector out");
        // Item ids are the 0..n index space, so the select's indices are ids.
        select::partial_top_k(&scores, k).into_iter().map(|(i, s)| (i as u32, s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_core::variants::VariantName;
    use agnn_core::{Agnn, AgnnVariant, RatingModel};
    use agnn_data::{ColdStartKind, Preset, Split, SplitConfig};

    /// Request sizes around the block and chunk edges.
    const SIZES: [usize; 8] = [1, 255, 256, 257, 459, 512, 513, 1100];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// An init-only engine of `variant` with `hops` GNN layers on a small
    /// strict-cold-user fixture.
    fn engine(variant: VariantName, hops: usize) -> InferenceEngine {
        let data = Preset::Ml100k.generate(0.2, 11);
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictUser, 11));
        let cfg = AgnnConfig {
            embed_dim: 4,
            vae_latent_dim: 2,
            fanout: 2,
            gnn_layers: hops,
            epochs: 0,
            seed: 11,
            variant: variant.variant(),
            ..AgnnConfig::default()
        };
        let mut model = Agnn::new(cfg);
        model.fit(&data, &split);
        InferenceEngine::from_snapshot(&model.export_snapshot().unwrap()).unwrap()
    }

    /// Pairs that walk both id spaces at different strides.
    fn pairs(engine: &InferenceEngine, n: usize) -> Vec<(u32, u32)> {
        let (nu, ni) = (engine.num_users(), engine.num_items());
        (0..n).map(|i| ((i * 7 % nu) as u32, (i * 13 % ni) as u32)).collect()
    }

    /// Every request size alone, all of them coalesced, and one top-K, as
    /// bits.
    fn answers(engine: &InferenceEngine) -> Vec<Vec<u32>> {
        let requests: Vec<Vec<(u32, u32)>> = SIZES.iter().map(|&n| pairs(engine, n)).collect();
        let refs: Vec<&[(u32, u32)]> = requests.iter().map(Vec::as_slice).collect();
        let mut out: Vec<Vec<u32>> = refs.iter().map(|r| bits(&engine.score_batch(r))).collect();
        out.extend(engine.score_coalesced(&refs).iter().map(|s| bits(s)));
        let top: Vec<(u32, f32)> = engine.top_k(1, 10);
        out.push(top.iter().flat_map(|&(i, s)| [i, s.to_bits()]).collect());
        out
    }

    /// Budgets of 1, 2 and 8 threads give the same bits, fresh and
    /// materialized, at 1 and 2 hops.
    fn check_budgets(variant: VariantName) {
        for hops in [1, 2] {
            let mut engine = engine(variant, hops);
            for materialized in [false, true] {
                if materialized {
                    engine.materialize();
                }
                engine.cores = 1;
                let serial = answers(&engine);
                for cores in [2, 8] {
                    engine.cores = cores;
                    assert_eq!(answers(&engine), serial, "{variant:?}, {hops} hop(s), materialized {materialized}, {cores} cores");
                }
            }
        }
    }

    #[test]
    fn thread_budgets_agree_gated() {
        check_budgets(VariantName::Full);
    }

    #[test]
    fn thread_budgets_agree_gated_no_aggregate_gate() {
        check_budgets(VariantName::NoAggregateGate);
    }

    #[test]
    fn thread_budgets_agree_gcn() {
        check_budgets(VariantName::Gcn);
    }

    #[test]
    fn thread_budgets_agree_gat() {
        check_budgets(VariantName::Gat);
    }

    #[test]
    fn thread_budgets_agree_no_gnn() {
        check_budgets(VariantName::NoGatedGnn);
    }

    #[test]
    fn split_budget_counts_calls_in_flight() {
        let mut engine = engine(VariantName::Full, 1);
        engine.cores = 2;
        let _call = InFlight::enter(&engine.in_flight);
        assert_eq!([0, 256, 257, 512, 1100].map(|rows| engine.split_threads(rows)), [0, 1, 2, 2, 2]);
        engine.cores = 8;
        assert_eq!([256, 512, 1100, 4096].map(|rows| engine.split_threads(rows)), [1, 2, 5, 8]);
        // With every core busy scoring, a forward gets no helper.
        let _others: Vec<InFlight> = (0..7).map(|_| InFlight::enter(&engine.in_flight)).collect();
        assert_eq!(engine.split_threads(4096), 1);
    }

    #[test]
    fn concurrent_calls_match_serial_bits() {
        let mut engine = engine(VariantName::Full, 1);
        engine.materialize();
        engine.cores = 1;
        let serial = answers(&engine);
        engine.cores = 2;
        let engine = &engine;
        std::thread::scope(|s| {
            let calls: Vec<_> = (0..4).map(|_| s.spawn(move || answers(engine))).collect();
            for call in calls {
                assert_eq!(call.join().unwrap(), serial);
            }
        });
    }

    /// Entries the item memo holds per (chunk round, pass), in key order.
    fn occupancy(engine: &InferenceEngine) -> Vec<((usize, usize), usize)> {
        let Some(memo) = &engine.item_memo else { return Vec::new() };
        let slots = memo.lock().unwrap_or_else(PoisonError::into_inner);
        let mut occupancy: Vec<((usize, usize), usize)> = slots.iter().map(|(&key, es)| (key, es.len())).collect();
        occupancy.sort_unstable();
        occupancy
    }

    #[test]
    fn top_k_memo_stays_bounded_over_mixed_calls() {
        // Scale 0.35 gives more than 512 items (two chunk rounds); `epochs: 0`
        // still builds the initialisation, the pools and the cold flags.
        let data = Preset::Ml100k.generate(0.35, 7);
        let split = Split::create(&data, SplitConfig::paper_default(ColdStartKind::StrictItem, 7));
        let cfg = AgnnConfig { embed_dim: 8, vae_latent_dim: 4, fanout: 3, epochs: 0, seed: 7, ..AgnnConfig::default() };
        assert_eq!(cfg.variant, AgnnVariant::default());
        let mut model = Agnn::new(cfg);
        model.fit(&data, &split);
        let snap = model.export_snapshot().unwrap();
        // Emptying one user's pool makes both item draw classes occur.
        let pools = &snap.user_pools;
        let empty = (0..pools.num_nodes() as u32).find(|&u| !pools.pool(u).is_empty()).unwrap();
        let edited = (0..pools.num_nodes() as u32)
            .map(|u| if u == empty { Vec::new() } else { pools.pool(u).to_vec() })
            .collect();
        let snap = ModelSnapshot { user_pools: CandidatePools::from_scored(edited, *pools.config()), ..snap.clone() };
        let mut engine = InferenceEngine::from_snapshot(&snap).unwrap();
        engine.materialize();
        for call in 0..50u32 {
            let user = if call % 3 == 0 { empty } else { call * 13 % data.num_users as u32 };
            let _ = engine.top_k(user, 1 + call as usize % 9);
        }
        // Both classes are stored: two entries per (round, sampled pass),
        // and never more.
        let rounds = data.num_items.div_ceil(EVAL_CHUNK);
        let want: Vec<((usize, usize), usize)> =
            (0..rounds).flat_map(|round| (1..=EVAL_NEIGHBORHOOD_SAMPLES).map(move |pass| ((round, pass), 2))).collect();
        assert_eq!(occupancy(&engine), want);
        engine.dematerialize();
        assert!(engine.item_memo.is_none());
    }
}
