//! Small statistics helpers shared across the workspace.

/// Min–max normalizes a slice in place to `[0, 1]`.
///
/// Degenerate (constant) slices can't be rescaled, so they get a fixed
/// value instead of NaN: a constant *positive* slice maps to all ones — a
/// uniformly similar pool keeps full ranking weight (a single-candidate
/// pool in `score_all_candidates` is the common case) — while a constant
/// zero-or-negative slice maps to all zeros, so "no similarity at all"
/// still contributes nothing to the paper's summed proximity.
pub fn min_max_normalize(xs: &mut [f32]) {
    let Some((&min, &max)) = xs
        .iter()
        .fold(None, |acc: Option<(&f32, &f32)>, v| match acc {
            None => Some((v, v)),
            Some((lo, hi)) => Some((if v < lo { v } else { lo }, if v > hi { v } else { hi })),
        })
    else {
        return;
    };
    let range = max - min;
    if range <= f32::EPSILON {
        let fill = if max > 0.0 { 1.0 } else { 0.0 };
        xs.iter_mut().for_each(|v| *v = fill);
    } else {
        xs.iter_mut().for_each(|v| *v = (*v - min) / range);
    }
}

/// Arithmetic mean (0.0 for empty input).
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Unbiased sample variance (0.0 for fewer than two samples).
pub fn variance(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / (xs.len() - 1) as f32
}

/// Pearson correlation of two equal-length slices (0.0 if degenerate).
pub fn pearson(xs: &[f32], ys: &[f32]) -> f32 {
    assert_eq!(xs.len(), ys.len(), "pearson: length mismatch {} vs {}", xs.len(), ys.len());
    if xs.len() < 2 {
        return 0.0;
    }
    let (mx, my) = (mean(xs), mean(ys));
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mx) * (y - my);
        dx += (x - mx) * (x - mx);
        dy += (y - my) * (y - my);
    }
    let denom = (dx * dy).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        num / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_maps_to_unit_interval() {
        let mut xs = vec![2.0, 4.0, 6.0];
        min_max_normalize(&mut xs);
        assert_eq!(xs, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn min_max_constant_positive_maps_to_one() {
        // Regression: a constant positive slice used to map to all zeros,
        // erasing the ranking weight of uniformly-similar candidate pools.
        let mut xs = vec![3.0; 4];
        min_max_normalize(&mut xs);
        assert!(xs.iter().all(|&v| v == 1.0));
        let mut single = vec![0.25];
        min_max_normalize(&mut single);
        assert_eq!(single, vec![1.0]);
        let mut empty: Vec<f32> = vec![];
        min_max_normalize(&mut empty);
    }

    #[test]
    fn min_max_constant_nonpositive_maps_to_zero() {
        let mut zeros = vec![0.0; 3];
        min_max_normalize(&mut zeros);
        assert!(zeros.iter().all(|&v| v == 0.0));
        let mut negs = vec![-2.0; 3];
        min_max_normalize(&mut negs);
        assert!(negs.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-6);
        assert!((variance(&xs) - 5.0 / 3.0).abs() < 1e-5);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let xs = [1.0, 2.0, 3.0];
        assert!((pearson(&xs, &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-5);
        assert!((pearson(&xs, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-5);
        assert_eq!(pearson(&xs, &[5.0, 5.0, 5.0]), 0.0);
    }
}
