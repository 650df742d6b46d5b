//! Neighborhood aggregators: the gated-GNN (§3.3.4, Eqs. 9–13) and the
//! GCN/GAT replacements of Table 4.
//!
//! Neighborhoods are batched at a fixed fan-out `g`: the target batch is
//! `B × D` and the neighbor batch `(B·g) × D` with neighbors of row `i`
//! occupying rows `i·g .. (i+1)·g`.

use crate::config::GnnKind;
use agnn_autograd::nn::Linear;
use agnn_autograd::{Ops, Registry};
use rand::Rng;

/// Parameters of one side's aggregator. Only the fields the configured
/// [`GnnKind`] needs are populated.
#[derive(Clone, Debug)]
pub struct GnnLayer {
    kind: GnnKind,
    /// Aggregate gate `W_a` over `[p_u; p_f]` (gated variants).
    w_agg: Option<Linear>,
    /// Filter gate `W_f` over `[p_u; mean(p_f)]` (gated variants).
    w_filter: Option<Linear>,
    /// GCN projection.
    w_gcn: Option<Linear>,
    /// GAT attention vector over `[p_u; p_f]`.
    w_attn: Option<Linear>,
    leaky_slope: f32,
}

impl GnnLayer {
    /// Registers the parameters the chosen aggregator needs.
    pub fn new(
        store: &mut impl Registry,
        name: &str,
        embed_dim: usize,
        kind: GnnKind,
        leaky_slope: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let mut layer = Self { kind, w_agg: None, w_filter: None, w_gcn: None, w_attn: None, leaky_slope };
        match kind {
            GnnKind::Gated => {
                layer.w_agg = Some(Linear::new(store, &format!("{name}.agate"), 2 * embed_dim, embed_dim, rng));
                layer.w_filter = Some(Linear::new(store, &format!("{name}.fgate"), 2 * embed_dim, embed_dim, rng));
            }
            GnnKind::GatedNoAggregateGate => {
                layer.w_filter = Some(Linear::new(store, &format!("{name}.fgate"), 2 * embed_dim, embed_dim, rng));
            }
            GnnKind::GatedNoFilterGate => {
                layer.w_agg = Some(Linear::new(store, &format!("{name}.agate"), 2 * embed_dim, embed_dim, rng));
            }
            GnnKind::None => {}
            GnnKind::Gcn => {
                layer.w_gcn = Some(Linear::new(store, &format!("{name}.gcn"), embed_dim, embed_dim, rng));
            }
            GnnKind::Gat => {
                layer.w_attn = Some(Linear::new(store, &format!("{name}.attn"), 2 * embed_dim, 1, rng));
            }
        }
        layer
    }

    /// Which aggregator this layer implements.
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// Aggregates `neighbors` into `target` (shapes `B×D` and `(B·g)×D`).
    pub fn forward<O: Ops>(
        &self,
        o: &mut O,
        params: &O::Params,
        target: O::Value,
        neighbors: O::Value,
        fanout: usize,
    ) -> O::Value {
        let b = o.value(&target).rows();
        let rows = o.value(&neighbors).rows();
        assert_eq!(rows, b * fanout, "GnnLayer::forward: {rows} neighbor rows for batch {b} × fanout {fanout}");
        match self.kind {
            GnnKind::None => target,
            GnnKind::Gated | GnnKind::GatedNoAggregateGate | GnnKind::GatedNoFilterGate => {
                // Aggregate side (Eqs. 9–10).
                let aggregated = if let Some(wa) = &self.w_agg {
                    let gate_logits = wa.forward_repeat_concat(o, params, target.clone(), neighbors.clone(), fanout);
                    let gate = o.sigmoid(gate_logits);
                    let gated = o.mul(neighbors.clone(), gate);
                    o.segment_mean_rows(gated, fanout)
                } else {
                    o.segment_mean_rows(neighbors.clone(), fanout)
                };
                // Filter side (Eqs. 11–12).
                let remaining = if let Some(wf) = &self.w_filter {
                    let nb_mean = o.segment_mean_rows(neighbors, fanout);
                    let gate_logits = wf.forward_repeat_concat(o, params, target.clone(), nb_mean, 1);
                    let fgate = o.sigmoid(gate_logits);
                    let neg = o.neg(fgate);
                    let one_minus = o.add_scalar(neg, 1.0);
                    o.mul(target, one_minus)
                } else {
                    target
                };
                // Eq. 13.
                let combined = o.add(remaining, aggregated);
                o.leaky_relu(combined, self.leaky_slope)
            }
            GnnKind::Gcn => {
                // GC-MC-style mean over self ∪ neighbors, then projection.
                let nb_mean = o.segment_mean_rows(neighbors, fanout);
                let gf = fanout as f32;
                let t_part = o.scale(target, 1.0 / (gf + 1.0));
                let n_part = o.scale(nb_mean, gf / (gf + 1.0));
                let avg = o.add(t_part, n_part);
                // invariant: `new` registers w_gcn whenever kind is Gcn
                let w = self.w_gcn.as_ref().expect("gcn weights");
                let proj = w.forward(o, params, avg);
                o.leaky_relu(proj, self.leaky_slope)
            }
            GnnKind::Gat => {
                // Node-level attention (DANSER-style), then residual sum.
                // invariant: `new` registers w_attn whenever kind is Gat
                let w = self.w_attn.as_ref().expect("attention weights");
                let scores = w.forward_repeat_concat(o, params, target.clone(), neighbors.clone(), fanout); // (B·g) × 1
                let scores = o.leaky_relu(scores, 0.2);
                let alpha = o.segment_softmax_col(scores, fanout);
                let weighted = o.mul_col_broadcast(neighbors, alpha);
                let agg = o.segment_sum_rows(weighted, fanout);
                let combined = o.add(target, agg);
                o.leaky_relu(combined, self.leaky_slope)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_autograd::gradcheck::check_all_params;
    use agnn_autograd::{Graph, ParamStore};
    use agnn_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ALL_KINDS: [GnnKind; 6] = [
        GnnKind::Gated,
        GnnKind::GatedNoAggregateGate,
        GnnKind::GatedNoFilterGate,
        GnnKind::None,
        GnnKind::Gcn,
        GnnKind::Gat,
    ];

    fn inputs() -> (Matrix, Matrix) {
        let target = Matrix::from_fn(2, 4, |r, c| (r as f32 + 1.0) * 0.2 - c as f32 * 0.1);
        let neighbors = Matrix::from_fn(6, 4, |r, c| ((r * 4 + c) as f32 * 0.29).sin() * 0.5);
        (target, neighbors)
    }

    #[test]
    fn all_kinds_produce_batch_shaped_finite_output() {
        for kind in ALL_KINDS {
            let mut rng = StdRng::seed_from_u64(0);
            let mut store = ParamStore::new();
            let layer = GnnLayer::new(&mut store, "g", 4, kind, 0.01, &mut rng);
            let (t, n) = inputs();
            let mut g = Graph::new();
            let tv = g.leaf(t);
            let nv = g.constant(n);
            let out = layer.forward(&mut g, &store, tv, nv, 3);
            assert_eq!(g.value(out).shape(), (2, 4), "kind {kind:?}");
            assert!(g.value(out).all_finite(), "kind {kind:?}");
        }
    }

    #[test]
    fn none_kind_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = GnnLayer::new(&mut store, "g", 4, GnnKind::None, 0.01, &mut rng);
        assert!(store.is_empty(), "None aggregator must register no params");
        let (t, n) = inputs();
        let mut g = Graph::new();
        let tv = g.leaf(t.clone());
        let nv = g.constant(n);
        let out = layer.forward(&mut g, &store, tv, nv, 3);
        assert_eq!(g.value(out), &t);
    }

    #[test]
    fn gated_differs_from_plain_mean() {
        // With the aggregate gate, dims are modulated; removing it must
        // change the output (unless gates are exactly 0.5 everywhere, which
        // random init makes measure-zero).
        let (t, n) = inputs();
        let run = |kind: GnnKind| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut store = ParamStore::new();
            let layer = GnnLayer::new(&mut store, "g", 4, kind, 0.01, &mut rng);
            let mut g = Graph::new();
            let tv = g.constant(t.clone());
            let nv = g.constant(n.clone());
            let out = layer.forward(&mut g, &store, tv, nv, 3);
            g.value(out).clone()
        };
        let gated = run(GnnKind::Gated);
        let no_agate = run(GnnKind::GatedNoAggregateGate);
        assert!(gated.max_abs_diff(&no_agate) > 1e-4);
    }

    #[test]
    fn gradcheck_every_kind() {
        for kind in ALL_KINDS {
            if kind == GnnKind::None {
                continue; // no params to check
            }
            let mut rng = StdRng::seed_from_u64(3);
            let mut store = ParamStore::new();
            let layer = GnnLayer::new(&mut store, "g", 3, kind, 0.01, &mut rng);
            let target = Matrix::from_fn(2, 3, |r, c| (r as f32 - c as f32) * 0.3 + 0.05);
            let neighbors = Matrix::from_fn(4, 3, |r, c| ((r + c) as f32 * 0.41).cos() * 0.4);
            check_all_params(&mut store, 2e-3, 3e-2, move |g, s| {
                let tv = g.constant(target.clone());
                let nv = g.constant(neighbors.clone());
                let out = layer.forward(g, s, tv, nv, 2);
                let sq = g.square(out);
                g.sum_all(sq)
            });
        }
    }

    #[test]
    #[should_panic(expected = "neighbor rows")]
    fn wrong_fanout_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let layer = GnnLayer::new(&mut store, "g", 4, GnnKind::Gated, 0.01, &mut rng);
        let (t, n) = inputs();
        let mut g = Graph::new();
        let tv = g.leaf(t);
        let nv = g.constant(n);
        let _ = layer.forward(&mut g, &store, tv, nv, 4); // 6 rows ≠ 2×4
    }
}
