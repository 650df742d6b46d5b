//! Behavioral tests of the training machinery: optimizer dynamics,
//! gradient accumulation across micro-batches, clipping, and stability
//! under adversarial inputs.

use agnn_autograd::nn::{Activation, Mlp};
use agnn_autograd::optim::{Adam, Sgd};
use agnn_autograd::{loss, Graph, Ops, ParamStore};
use agnn_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn micro_batch_gradients_accumulate_like_one_batch() {
    // grads_into adds; two half-batches must equal one full batch exactly
    // (sum-of-squared-errors loss so the scaling matches).
    let mut rng = StdRng::seed_from_u64(0);
    let x = init::normal(8, 3, 1.0, &mut rng);
    let y = init::normal(8, 1, 1.0, &mut rng);

    let make_store = |rng: &mut StdRng| {
        let mut s = ParamStore::new();
        s.add("w", init::xavier_uniform(3, 1, rng));
        s
    };
    let sse_pass = |store: &mut ParamStore, xs: &Matrix, ys: &Matrix| {
        let w = store.ids().next().unwrap();
        let mut g = Graph::new();
        let xv = g.constant(xs.clone());
        let wv = g.param_full(store, w);
        let pred = g.matmul(xv, wv);
        let tv = g.constant(ys.clone());
        let l = loss::sse(&mut g, pred, tv);
        g.backward(l);
        g.grads_into(store);
    };

    let mut rng_a = StdRng::seed_from_u64(1);
    let mut full = make_store(&mut rng_a);
    sse_pass(&mut full, &x, &y);
    let g_full = full.grad(full.ids().next().unwrap()).clone();

    let mut rng_b = StdRng::seed_from_u64(1);
    let mut halves = make_store(&mut rng_b);
    let (x1, x2) = (x.gather_rows(&[0, 1, 2, 3]), x.gather_rows(&[4, 5, 6, 7]));
    let (y1, y2) = (y.gather_rows(&[0, 1, 2, 3]), y.gather_rows(&[4, 5, 6, 7]));
    sse_pass(&mut halves, &x1, &y1);
    sse_pass(&mut halves, &x2, &y2);
    let g_half = halves.grad(halves.ids().next().unwrap()).clone();

    assert!(g_full.max_abs_diff(&g_half) < 1e-4, "{:?} vs {:?}", g_full, g_half);
}

#[test]
fn weight_decay_shrinks_unused_parameters() {
    let mut store = ParamStore::new();
    let id = store.add("w", Matrix::full(1, 2, 1.0));
    let mut opt = Sgd { lr: 0.1, weight_decay: 0.5 };
    for _ in 0..10 {
        // No gradient at all: pure decay.
        opt.step(&mut store);
    }
    let v = store.value(id).get(0, 0);
    assert!(v < 0.7 && v > 0.0, "decayed value {v}");
}

#[test]
fn clipping_preserves_gradient_direction() {
    let mut store = ParamStore::new();
    let a = store.add("a", Matrix::zeros(1, 2));
    store.accumulate_grad(a, &Matrix::row_vector(vec![30.0, 40.0]));
    store.clip_grad_norm(5.0);
    let g = store.grad(a);
    assert!((g.get(0, 0) / g.get(0, 1) - 0.75).abs() < 1e-5, "direction changed");
    assert!((store.grad_norm() - 5.0).abs() < 1e-4);
}

#[test]
fn adam_is_scale_invariant_ish_where_sgd_is_not() {
    // Two quadratic bowls with very different curvature: Adam makes similar
    // per-step progress (normalized updates), SGD does not. This pins down
    // that the second-moment machinery actually works.
    let run = |scale: f32, adam: bool| -> f32 {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::full(1, 1, 1.0));
        let mut a = Adam::with_lr(0.05);
        let mut s = Sgd::with_lr(0.05);
        for _ in 0..20 {
            let mut g = Graph::new();
            let w = g.param_full(&store, id);
            let scaled = g.scale(w, scale);
            let sq = g.square(scaled);
            let l = g.sum_all(sq);
            g.backward(l);
            g.grads_into(&mut store);
            if adam {
                a.step(&mut store);
            } else {
                s.step(&mut store);
            }
        }
        store.value(id).get(0, 0)
    };
    let adam_small = run(0.1, true);
    let adam_large = run(3.0, true);
    assert!((adam_small - adam_large).abs() < 0.2, "Adam diverged across scales: {adam_small} vs {adam_large}");
    let sgd_small = run(0.1, false);
    let sgd_large = run(3.0, false);
    assert!((sgd_small - sgd_large).abs() > 0.2, "SGD should differ across scales: {sgd_small} vs {sgd_large}");
}

#[test]
fn mlp_fits_xor_with_enough_capacity() {
    // The classic non-linearly-separable check: a linear model cannot get
    // XOR below 0.25 MSE; an MLP must.
    let xs = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
    let ys = Matrix::col_vector(vec![0., 1., 1., 0.]);
    let mut rng = StdRng::seed_from_u64(3);
    let mut store = ParamStore::new();
    let mlp = Mlp::new(&mut store, "m", &[2, 8, 1], Activation::Tanh, &mut rng);
    let mut opt = Adam::with_lr(0.05);
    let mut final_loss = f32::MAX;
    for _ in 0..400 {
        let mut g = Graph::new();
        let x = g.constant(xs.clone());
        let pred = mlp.forward(&mut g, &store, x);
        let t = g.constant(ys.clone());
        let l = loss::mse(&mut g, pred, t);
        final_loss = g.scalar(l);
        g.backward(l);
        g.grads_into(&mut store);
        opt.step(&mut store);
    }
    assert!(final_loss < 0.05, "XOR not learned: mse {final_loss}");
}

#[test]
fn graph_reuse_across_batches_is_isolated() {
    // Values from one graph must not leak into another (fresh tapes).
    let mut store = ParamStore::new();
    let id = store.add("w", Matrix::full(1, 1, 2.0));
    let v1 = {
        let mut g = Graph::new();
        let w = g.param_full(&store, id);
        let s = g.square(w);
        g.scalar(s)
    };
    store.value_mut(id).as_mut_slice()[0] = 5.0;
    let v2 = {
        let mut g = Graph::new();
        let w = g.param_full(&store, id);
        let s = g.square(w);
        g.scalar(s)
    };
    assert_eq!(v1, 4.0);
    assert_eq!(v2, 25.0);
}
