//! Finite-difference verification of every autograd op's adjoint.
//!
//! Each test builds a small scalar loss through one (or a few) ops and checks
//! the analytic gradient of every parameter against central differences.
//! f32 arithmetic limits precision, so eps/tol are chosen accordingly.

use agnn_autograd::gradcheck::check_all_params;
use agnn_autograd::{loss, Graph, Ops, ParamStore, Var};
use agnn_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

const EPS: f32 = 5e-3;
const TOL: f32 = 2e-2;

fn store_with(seed: u64, shapes: &[(usize, usize)]) -> ParamStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    for (i, &(r, c)) in shapes.iter().enumerate() {
        store.add(format!("p{i}"), init::uniform(r, c, 0.8, &mut rng));
    }
    store
}

fn pid(store: &ParamStore, i: usize) -> agnn_autograd::ParamId {
    store.ids().nth(i).expect("param exists")
}

#[test]
fn gc_matmul() {
    let mut store = store_with(1, &[(3, 4), (4, 2)]);
    check_all_params(&mut store, EPS, TOL, |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let b = g.param_full(s, pid(s, 1));
        let c = g.matmul(a, b);
        g.sum_all(c)
    });
}

#[test]
fn gc_add_sub_mul() {
    let mut store = store_with(2, &[(3, 3), (3, 3)]);
    check_all_params(&mut store, EPS, TOL, |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let b = g.param_full(s, pid(s, 1));
        let x = g.add(a, b);
        let y = g.sub(x, b);
        let z = g.mul(y, a);
        g.mean_all(z)
    });
}

#[test]
fn gc_scale_add_scalar_neg() {
    let mut store = store_with(3, &[(2, 5)]);
    check_all_params(&mut store, EPS, TOL, |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let x = g.scale(a, 2.5);
        let y = g.add_scalar(x, -0.7);
        let z = g.neg(y);
        g.sum_all(z)
    });
}

#[test]
fn gc_row_broadcasts() {
    let mut store = store_with(4, &[(4, 3), (1, 3)]);
    check_all_params(&mut store, EPS, TOL, |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let row = g.param_full(s, pid(s, 1));
        let x = g.add_row_broadcast(a, row);
        let y = g.mul_row_broadcast(x, row);
        g.sum_all(y)
    });
}

#[test]
fn gc_col_broadcast() {
    let mut store = store_with(5, &[(4, 3), (4, 1)]);
    check_all_params(&mut store, EPS, TOL, |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let col = g.param_full(s, pid(s, 1));
        let x = g.mul_col_broadcast(a, col);
        g.sum_all(x)
    });
}

#[test]
fn gc_concat() {
    let mut store = store_with(6, &[(3, 2), (3, 4)]);
    check_all_params(&mut store, EPS, TOL, |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let b = g.param_full(s, pid(s, 1));
        let c = g.concat(&[a, b]);
        let sq = g.square(c);
        g.mean_all(sq)
    });
}

#[test]
fn gc_gather_rows_with_repeats() {
    let mut store = store_with(7, &[(5, 3)]);
    let rows = Rc::new(vec![0usize, 2, 2, 4]);
    check_all_params(&mut store, EPS, TOL, move |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let x = g.gather_rows(a, rows.clone());
        let sq = g.square(x);
        g.sum_all(sq)
    });
}

#[test]
fn gc_param_rows_path() {
    // The embedding path: param_rows gathers directly from the store.
    let mut store = store_with(8, &[(6, 3)]);
    let rows = Rc::new(vec![1usize, 1, 5]);
    check_all_params(&mut store, EPS, TOL, move |g, s| {
        let x = g.param_rows(s, pid(s, 0), rows.clone());
        let sq = g.square(x);
        g.sum_all(sq)
    });
}

#[test]
fn gc_segment_ops() {
    let mut store = store_with(9, &[(6, 3)]);
    check_all_params(&mut store, EPS, TOL, |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let m = g.segment_mean_rows(a, 2);
        let s2 = g.segment_sum_rows(a, 3);
        let m1 = g.sum_all(m);
        let m2 = g.sum_all(s2);
        let m2s = g.scale(m2, 0.3);
        g.add(m1, m2s)
    });
}

#[test]
fn gc_repeat_rows() {
    let mut store = store_with(10, &[(3, 2)]);
    check_all_params(&mut store, EPS, TOL, |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let r = g.repeat_rows(a, 3);
        let sq = g.square(r);
        g.mean_all(sq)
    });
}

#[test]
fn gc_activations() {
    // Shift values away from the ReLU kink (finite differences misbehave at 0).
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let mut m = init::uniform(3, 4, 0.9, &mut rng);
    for v in m.as_mut_slice() {
        if v.abs() < 0.05 {
            *v += 0.1;
        }
    }
    store.add("a", m);
    check_all_params(&mut store, 1e-3, TOL, |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let x = g.leaky_relu(a, 0.01);
        let y = g.relu(x);
        let z = g.sigmoid(y);
        let w = g.tanh(z);
        g.sum_all(w)
    });
}

#[test]
fn gc_exp_ln_sqrt_square_abs() {
    // Positive-only values for ln/sqrt; away from 0 for abs.
    let mut rng = StdRng::seed_from_u64(12);
    let mut store = ParamStore::new();
    let m = init::uniform(3, 3, 0.4, &mut rng);
    let shifted = agnn_tensor::ops::map(&m, |v| v.abs() + 0.5);
    store.add("a", shifted);
    check_all_params(&mut store, 1e-3, TOL, |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let e = g.exp(a);
        let l = g.ln(a);
        let sq = g.square(a);
        let sr = g.sqrt_eps(sq, 1e-8);
        let ab = g.abs(a);
        let t1 = g.add(e, l);
        let t2 = g.add(sr, ab);
        let t = g.add(t1, t2);
        g.mean_all(t)
    });
}

#[test]
fn gc_dropout_fixed_mask() {
    let mut store = store_with(13, &[(4, 4)]);
    let mask = Rc::new(Matrix::from_fn(4, 4, |r, c| if (r + c) % 3 == 0 { 0.0 } else { 1.5 }));
    check_all_params(&mut store, EPS, TOL, move |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let d = g.dropout_with_mask(a, mask.clone());
        let sq = g.square(d);
        g.sum_all(sq)
    });
}

#[test]
fn gc_reductions() {
    let mut store = store_with(14, &[(4, 3)]);
    check_all_params(&mut store, EPS, TOL, |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let sr = g.sum_rows(a); // 1 × 3
        let sc = g.sum_cols(a); // 4 × 1
        let m1 = g.square(sr);
        let m2 = g.square(sc);
        let t1 = g.sum_all(m1);
        let t2 = g.sum_all(m2);
        g.add(t1, t2)
    });
}

#[test]
fn gc_segment_softmax() {
    let mut store = store_with(15, &[(6, 1)]);
    check_all_params(&mut store, 1e-3, TOL, |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let sm = g.segment_softmax_col(a, 3);
        let w = g.constant(Matrix::col_vector(vec![1.0, -2.0, 0.5, 3.0, 0.0, 1.0]));
        let p = g.mul(sm, w);
        g.sum_all(p)
    });
}

#[test]
fn gc_reshape() {
    let mut store = store_with(16, &[(4, 6)]);
    check_all_params(&mut store, EPS, TOL, |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let r = g.reshape(a, 8, 3);
        let m = g.segment_mean_rows(r, 2);
        let sq = g.square(m);
        g.sum_all(sq)
    });
}

#[test]
fn gc_losses() {
    let mut store = store_with(17, &[(3, 4), (3, 4)]);
    let target = Matrix::from_fn(3, 4, |r, c| (r as f32 - c as f32) * 0.3);
    let t2 = target.clone();
    check_all_params(&mut store, EPS, TOL, move |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let b = g.param_full(s, pid(s, 1));
        let t = g.constant(t2.clone());
        let l1 = loss::mse(g, a, t);
        let l2 = loss::gaussian_kl(g, a, b);
        let l3 = loss::mean_row_l2(g, a, b);
        loss::weighted_sum(g, &[(1.0, l1), (0.5, l2), (0.25, l3)])
    });
}

#[test]
fn gc_bce_with_logits() {
    let mut store = store_with(18, &[(2, 5)]);
    let targets = Matrix::from_fn(2, 5, |r, c| ((r + c) % 2) as f32);
    check_all_params(&mut store, 1e-3, TOL, move |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let t = g.constant(targets.clone());
        loss::bce_with_logits(g, a, t)
    });
}

#[test]
fn gc_mlp_end_to_end() {
    use agnn_autograd::nn::{Activation, Mlp};
    let mut rng = StdRng::seed_from_u64(19);
    let mut store = ParamStore::new();
    let mlp = Mlp::new(&mut store, "m", &[3, 5, 1], Activation::Tanh, &mut rng);
    let x = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f32 * 0.17).sin());
    let y = Matrix::col_vector(vec![0.2, -0.4, 0.6, 0.1]);
    check_all_params(&mut store, 1e-3, TOL, move |g, s| {
        let xv = g.constant(x.clone());
        let pred = mlp.forward(g, s, xv);
        let t = g.constant(y.clone());
        loss::mse(g, pred, t)
    });
}

#[test]
fn gc_gated_aggregation_shape() {
    // A miniature of the paper's gated-GNN wiring (Eqs. 9–13) through the
    // generic ops: gates, segment mean, residual sum, LeakyReLU.
    let mut store = store_with(20, &[(2, 4), (6, 4), (8, 4)]);
    check_all_params(&mut store, 1e-3, 3e-2, |g, s| {
        let target = g.param_full(s, pid(s, 0)); // 2 nodes × 4 dims
        let neighbors = g.param_full(s, pid(s, 1)); // 2 × 3 neighbors × 4 dims
        let wa = g.param_full(s, pid(s, 2)); // gate weight 8 × 4
        let rep = g.repeat_rows(target, 3); // 6 × 4
        let cat = g.concat(&[rep, neighbors]); // 6 × 8
        let gate_in = g.matmul(cat, wa); // 6 × 4
        let gate = g.sigmoid(gate_in);
        let gated = g.mul(neighbors, gate);
        let agg = g.segment_mean_rows(gated, 3); // 2 × 4
        let combined = g.add(target, agg);
        let out = g.leaky_relu(combined, 0.01);
        let sq = g.square(out);
        g.sum_all(sq)
    });
}

/// The loss surface must be deterministic for a fixed store (regression test
/// for accidental global-RNG use inside ops).
#[test]
fn forward_is_deterministic() {
    let store = store_with(21, &[(3, 3)]);
    let run = |s: &ParamStore| {
        let mut g = Graph::new();
        let a = g.param_full(s, pid(s, 0));
        let x = g.sigmoid(a);
        let l: Var = g.sum_all(x);
        g.scalar(l)
    };
    assert_eq!(run(&store), run(&store));
}

#[test]
fn gc_segment_var_ops() {
    let mut store = store_with(22, &[(7, 3)]);
    // segments: [0,2), [2,2) empty, [2,5), [5,7)
    let offsets = Rc::new(vec![0usize, 2, 2, 5, 7]);
    let o2 = offsets.clone();
    check_all_params(&mut store, EPS, TOL, move |g, s| {
        let a = g.param_full(s, pid(s, 0));
        let sum = g.segment_sum_rows_var(a, offsets.clone());
        let mean = g.segment_mean_rows_var(a, o2.clone());
        let s1 = g.square(sum);
        let s2 = g.square(mean);
        let t1 = g.sum_all(s1);
        let t2 = g.sum_all(s2);
        g.add(t1, t2)
    });
}

#[test]
fn segment_var_forward_values() {
    let mut g = Graph::new();
    let a = g.leaf(Matrix::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]));
    let offsets = Rc::new(vec![0usize, 1, 1, 4]);
    let sum = g.segment_sum_rows_var(a, offsets.clone());
    assert_eq!(g.value(sum).row(0), &[1., 2.]);
    assert_eq!(g.value(sum).row(1), &[0., 0.]); // empty segment
    assert_eq!(g.value(sum).row(2), &[15., 18.]);
    let mean = g.segment_mean_rows_var(a, offsets);
    assert_eq!(g.value(mean).row(2), &[5., 6.]);
    assert_eq!(g.value(mean).row(1), &[0., 0.]);
}
