//! Metrics integration: significance testing behaves sensibly on realistic
//! error distributions, and the evaluation driver composes with models.

use agnn_metrics::{paired_t_test, EvalAccumulator, Significance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two systems whose errors differ by a constant offset: at n = 5 the
/// difference is usually not significant, at n = 5000 it always is.
///
/// Every paired difference is 0.02 + U(−0.05, 0.05), so the effect is real
/// and "not significant at n = 5" holds only with a computable probability.
/// A two-sided Student-t test at 4 degrees of freedom (critical values
/// t₀.₉₇₅,₄ = 2.776445 and t₀.₉₉₅,₄ = 4.604095) rejects at p < 0.05 in
/// 0.1793 ± 0.0004 of draws and at p < 0.01 in 0.0543 (an independent
/// 10⁶-draw Monte Carlo with the same offset and noise); a normal
/// approximation (|t| > 1.96) would reject in 0.3519. Over K = 1000 draws
/// the count flagged at p < 0.05 is binomial with σ = √(1000 · 0.1793 ·
/// 0.8207) = 12.1, so the band 1000 · 0.1793 ± 5σ = [118, 240] fails a
/// correct test with probability below 10⁻⁶. It excludes the normal
/// approximation (≈ 352), a test that never flags (0) and one that always
/// flags (1000). At n = 5000 the noncentrality is ≈ 49, so p < 0.01 holds
/// to within f64.
#[test]
fn significance_emerges_with_sample_size() {
    let mut rng = StdRng::seed_from_u64(1);
    let gen = |n: usize, offset: f64, rng: &mut StdRng| -> (Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
        let b: Vec<f64> = a.iter().map(|x| x + offset + rng.gen_range(-0.05..0.05)).collect();
        (a, b)
    };
    // Tiny sample, small effect: significant at the Student-t rate only.
    let flagged = (0..1000)
        .filter(|_| {
            let (a, b) = gen(5, 0.02, &mut rng);
            paired_t_test(&a, &b).significance != Significance::None
        })
        .count();
    assert!((118..=240).contains(&flagged), "{flagged} of 1000 n = 5 draws significant, want 118..=240");
    // Large sample, same effect: significant.
    let (a, b) = gen(5000, 0.02, &mut rng);
    assert_eq!(paired_t_test(&a, &b).significance, Significance::P01);
}

#[test]
fn paired_test_controls_for_shared_difficulty() {
    // Two models with identical skill on examples of wildly varying
    // difficulty: an unpaired comparison would drown in variance, the
    // paired test must stay calm (t ≈ 0).
    let mut rng = StdRng::seed_from_u64(2);
    let difficulty: Vec<f64> = (0..2000).map(|_| rng.gen_range(0.1..5.0)).collect();
    let a: Vec<f64> = difficulty.iter().map(|d| d + rng.gen_range(-0.01..0.01)).collect();
    let b: Vec<f64> = difficulty.iter().map(|d| d + rng.gen_range(-0.01..0.01)).collect();
    let r = paired_t_test(&a, &b);
    assert_eq!(r.significance, Significance::None, "t = {}", r.t);
}

#[test]
fn accumulator_squared_and_absolute_views_consistent() {
    let mut acc = EvalAccumulator::new();
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..500 {
        let p = rng.gen_range(1.0f32..5.0);
        let t = rng.gen_range(1.0f32..5.0);
        acc.push(p, t);
    }
    for (sq, ab) in acc.squared_errors().iter().zip(acc.absolute_errors()) {
        assert!((sq.sqrt() - ab).abs() < 1e-9);
    }
    let r = acc.finish();
    assert!(r.rmse >= r.mae);
    assert_eq!(r.n, 500);
}

#[test]
fn table2_significance_pipeline_shape() {
    // Exactly the harness's Table-2 significance computation: two models'
    // per-example squared errors on the same test set.
    let mut rng = StdRng::seed_from_u64(4);
    let truth: Vec<f32> = (0..1000).map(|_| rng.gen_range(1.0f32..=5.0).round()).collect();
    let mut good = EvalAccumulator::new();
    let mut bad = EvalAccumulator::new();
    for &t in &truth {
        good.push(t + rng.gen_range(-0.7f32..0.7), t);
        bad.push(t + rng.gen_range(-0.95f32..0.95), t);
    }
    let r = paired_t_test(good.squared_errors(), bad.squared_errors());
    assert!(r.t > 0.0, "better model must have positive t against worse");
    assert_eq!(r.significance, Significance::P01);
    assert!(good.finish().rmse < bad.finish().rmse);
}
