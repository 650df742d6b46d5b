//! Paired t-test over per-example errors.
//!
//! Table 2 marks AGNN's improvement over the best baseline with `*`
//! (p < 0.01) and `†` (p < 0.05). We run the same two-sided paired test on
//! per-example squared (RMSE) or absolute (MAE) errors. The p-value uses an
//! incomplete-beta evaluation of the Student-t CDF; for the paper's test
//! sizes (thousands of pairs) this is effectively the normal approximation,
//! but small-sample correctness matters for unit tests.

/// Significance levels reported in the paper's tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Significance {
    /// p < 0.01 (`*` in Table 2).
    P01,
    /// p < 0.05 (`†` in Table 2).
    P05,
    /// Not significant at 0.05.
    None,
}

impl Significance {
    /// The paper's table marker.
    pub fn marker(self) -> &'static str {
        match self {
            Significance::P01 => "*",
            Significance::P05 => "†",
            Significance::None => "",
        }
    }
}

/// Output of a paired t-test.
#[derive(Clone, Copy, Debug)]
pub struct TTestResult {
    /// t statistic of the mean paired difference.
    pub t: f64,
    /// Degrees of freedom (`n − 1`).
    pub dof: usize,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Paper-style significance bucket.
    pub significance: Significance,
}

/// Two-sided paired t-test on per-example losses of two systems.
///
/// Returns `t > 0` when `b`'s losses exceed `a`'s (i.e. `a` is better).
///
/// # Panics
/// Panics if the slices differ in length or have fewer than 2 elements.
pub fn paired_t_test(a: &[f64], b: &[f64]) -> TTestResult {
    assert_eq!(a.len(), b.len(), "paired_t_test: {} vs {} samples", a.len(), b.len());
    assert!(a.len() >= 2, "paired_t_test: need ≥2 pairs, got {}", a.len());
    let n = a.len();
    let diffs: Vec<f64> = a.iter().zip(b).map(|(&x, &y)| y - x).collect();
    let mean = diffs.iter().sum::<f64>() / n as f64;
    let var = diffs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / (n - 1) as f64;
    let se = (var / n as f64).sqrt();
    let t = if se == 0.0 {
        if mean == 0.0 {
            0.0
        } else {
            mean.signum() * f64::INFINITY
        }
    } else {
        mean / se
    };
    let dof = n - 1;
    let p_value = two_sided_p(t, dof as f64);
    let significance = if p_value < 0.01 {
        Significance::P01
    } else if p_value < 0.05 {
        Significance::P05
    } else {
        Significance::None
    };
    TTestResult { t, dof, p_value, significance }
}

/// Two-sided p-value for a Student-t statistic.
fn two_sided_p(t: f64, dof: f64) -> f64 {
    if !t.is_finite() {
        return 0.0;
    }
    // P(|T| > t) = I_{dof/(dof+t²)}(dof/2, 1/2)
    let x = dof / (dof + t * t);
    incomplete_beta(dof / 2.0, 0.5, x).clamp(0.0, 1.0)
}

/// Regularized incomplete beta `I_x(a, b)` via the continued fraction
/// (Numerical Recipes `betacf`).
fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_beta = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b);
    let front = (ln_beta + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Lanczos approximation of `ln Γ(x)`.
fn ln_gamma(x: f64) -> f64 {
    // Coefficients kept verbatim from the published Lanczos (g=5) table; the
    // extra digits round to the same f64 values.
    #[allow(clippy::excessive_precision)]
    const G: [f64; 6] = [
        76.180091729471457,
        -86.505320329416776,
        24.014098240830911,
        -1.231739572450155,
        0.1208650973866179e-2,
        -0.5395239384953e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000000000190015;
    for g in G {
        y += 1.0;
        ser += g / y;
    }
    -tmp + (2.5066282746310005 * ser / x).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_not_significant() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let r = paired_t_test(&a, &a);
        assert_eq!(r.t, 0.0);
        assert_eq!(r.significance, Significance::None);
        assert!(r.p_value > 0.9);
    }

    #[test]
    fn clear_difference_is_significant() {
        let a: Vec<f64> = (0..200).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 0.5).collect();
        let r = paired_t_test(&a, &b);
        assert!(r.t > 10.0, "t = {}", r.t);
        assert_eq!(r.significance, Significance::P01);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn direction_of_t() {
        let a = vec![1.0, 1.1, 0.9, 1.0, 1.05, 0.95];
        let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
        // b worse than a → t positive.
        assert!(paired_t_test(&a, &b).t > 0.0);
        // a worse than b → t negative.
        assert!(paired_t_test(&b, &a).t < 0.0);
    }

    #[test]
    fn p_value_matches_known_quantiles() {
        // For dof = 10, t = 2.228 is the two-sided 5% critical value.
        let p = two_sided_p(2.228, 10.0);
        assert!((p - 0.05).abs() < 0.002, "p = {p}");
        // dof = 30, t = 2.042 → 5%.
        let p = two_sided_p(2.042, 30.0);
        assert!((p - 0.05).abs() < 0.002, "p = {p}");
        // dof = 10, t = 3.169 → 1%.
        let p = two_sided_p(3.169, 10.0);
        assert!((p - 0.01).abs() < 0.001, "p = {p}");
        // dof = 4, t = 2.776445 → 5%; t = 4.604095 → 1%.
        let p = two_sided_p(2.776445, 4.0);
        assert!((p - 0.05).abs() < 0.002, "p = {p}");
        let p = two_sided_p(4.604095, 4.0);
        assert!((p - 0.01).abs() < 0.001, "p = {p}");
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-10);
        assert!((ln_gamma(2.0)).abs() < 1e-10);
        assert!((ln_gamma(5.0) - (24.0f64).ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn zero_variance_identical_means() {
        let a = vec![2.0, 2.0, 2.0];
        let b = vec![2.0, 2.0, 2.0];
        let r = paired_t_test(&a, &b);
        assert_eq!(r.t, 0.0);
        assert_eq!(r.significance, Significance::None);
    }

    #[test]
    fn zero_variance_different_means_significant() {
        let a = vec![1.0, 1.0, 1.0];
        let b = vec![2.0, 2.0, 2.0];
        let r = paired_t_test(&a, &b);
        assert!(r.t.is_infinite() && r.t > 0.0);
        assert_eq!(r.significance, Significance::P01);
    }

    #[test]
    #[should_panic(expected = "need ≥2")]
    fn single_pair_panics() {
        let _ = paired_t_test(&[1.0], &[2.0]);
    }
}
