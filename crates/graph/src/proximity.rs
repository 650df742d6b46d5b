//! Pairwise proximities (Eq. 1) and inverted-index candidate generation.

use agnn_tensor::SparseVec;

/// Inverted index: for each feature dimension, the nodes carrying it.
///
/// Used to enumerate, for a node, every other node sharing at least one
/// non-zero dimension — the only pairs whose cosine similarity can exceed 0.
pub struct InvertedIndex {
    buckets: Vec<Vec<u32>>,
}

impl InvertedIndex {
    /// Builds the index over one vector per node.
    pub fn build(vecs: &[SparseVec]) -> Self {
        let dim = vecs.first().map_or(0, SparseVec::dim);
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); dim];
        for (node, v) in vecs.iter().enumerate() {
            assert_eq!(v.dim(), dim, "InvertedIndex: inconsistent dims {} vs {dim}", v.dim());
            for &idx in v.indices() {
                buckets[idx as usize].push(node as u32);
            }
        }
        Self { buckets }
    }

    /// Nodes sharing feature `idx`.
    pub fn bucket(&self, idx: u32) -> &[u32] {
        &self.buckets[idx as usize]
    }

    /// Distinct nodes (≠ `node`) sharing at least one feature with `node`.
    ///
    /// Buckets larger than `bucket_cap` are *strided-subsampled* — huge
    /// buckets (e.g. "category = Restaurants" on Yelp) would otherwise make
    /// candidate generation quadratic; a deterministic stride keeps the
    /// construction reproducible without an RNG.
    pub fn candidates_of(&self, node: u32, query: &SparseVec, bucket_cap: usize) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for &idx in query.indices() {
            let b = self.bucket(idx);
            if b.len() <= bucket_cap {
                out.extend(b.iter().copied().filter(|&n| n != node));
            } else {
                let stride = b.len().div_ceil(bucket_cap);
                // Rotate the phase by node id so different nodes see
                // different subsamples of a huge bucket.
                let phase = node as usize % stride;
                out.extend(
                    b.iter()
                        .copied()
                        .skip(phase)
                        .step_by(stride)
                        .filter(|&n| n != node),
                );
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A scored pair list for one node: `(neighbor, combined_proximity)`.
pub type ScoredCandidates = Vec<(u32, f32)>;

/// Computes, for every node, the candidates scored by combined proximity.
///
/// `attrs` drives candidate generation; `prefs` (historical rating vectors)
/// is optional — strict cold start nodes have none, and ablation
/// `AGNN_AP`/`AGNN_PP` toggle the two signals. Per the paper, each proximity
/// is min–max normalized before summation; we normalize over each node's
/// candidate set (a global normalization would need the full `n²` pair set
/// the pruning exists to avoid — the *ranking* within a node's pool, which
/// is all that sampling uses, is unaffected).
pub fn score_all_candidates(
    attrs: &[SparseVec],
    prefs: Option<&[SparseVec]>,
    use_attribute: bool,
    use_preference: bool,
    bucket_cap: usize,
) -> Vec<ScoredCandidates> {
    assert!(use_attribute || use_preference, "at least one proximity signal must be enabled");
    if let Some(p) = prefs {
        assert_eq!(p.len(), attrs.len(), "prefs/attrs length mismatch {} vs {}", p.len(), attrs.len());
    }
    let attr_index = InvertedIndex::build(attrs);
    let pref_index = prefs.map(InvertedIndex::build);

    (0..attrs.len() as u32)
        .map(|node| {
            let mut cands = attr_index.candidates_of(node, &attrs[node as usize], bucket_cap);
            if let (Some(pi), Some(pv)) = (&pref_index, prefs) {
                let extra = pi.candidates_of(node, &pv[node as usize], bucket_cap);
                cands.extend(extra);
                cands.sort_unstable();
                cands.dedup();
            }
            let mut attr_sims = Vec::with_capacity(cands.len());
            let mut pref_sims = Vec::with_capacity(cands.len());
            for &c in &cands {
                attr_sims.push(if use_attribute {
                    attrs[node as usize].cosine_similarity(&attrs[c as usize])
                } else {
                    0.0
                });
                pref_sims.push(match (use_preference, prefs) {
                    (true, Some(p)) => p[node as usize].cosine_similarity(&p[c as usize]),
                    _ => 0.0,
                });
            }
            agnn_tensor::stats::min_max_normalize(&mut attr_sims);
            agnn_tensor::stats::min_max_normalize(&mut pref_sims);
            cands
                .iter()
                .zip(attr_sims.iter().zip(&pref_sims))
                .map(|(&c, (&a, &p))| (c, a + p))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mh(dim: usize, idx: &[u32]) -> SparseVec {
        SparseVec::multi_hot(dim, idx.iter().copied())
    }

    #[test]
    fn inverted_index_finds_sharers() {
        let attrs = vec![mh(4, &[0, 1]), mh(4, &[1, 2]), mh(4, &[3])];
        let ix = InvertedIndex::build(&attrs);
        assert_eq!(ix.bucket(1), &[0, 1]);
        let c0 = ix.candidates_of(0, &attrs[0], 100);
        assert_eq!(c0, vec![1]); // node 2 shares nothing
        let c2 = ix.candidates_of(2, &attrs[2], 100);
        assert!(c2.is_empty());
    }

    #[test]
    fn bucket_cap_subsamples_deterministically() {
        let attrs: Vec<SparseVec> = (0..20).map(|_| mh(1, &[0])).collect();
        let ix = InvertedIndex::build(&attrs);
        let c = ix.candidates_of(0, &attrs[0], 5);
        assert!(c.len() <= 5, "cap violated: {}", c.len());
        let c_again = ix.candidates_of(0, &attrs[0], 5);
        assert_eq!(c, c_again);
    }

    #[test]
    fn scoring_ranks_similar_higher() {
        // node 0 shares 2 attrs with node 1, 1 attr with node 2.
        let attrs = vec![mh(6, &[0, 1, 2]), mh(6, &[0, 1, 5]), mh(6, &[2, 3, 4])];
        let scored = score_all_candidates(&attrs, None, true, false, 100);
        let s0 = &scored[0];
        let get = |n: u32| s0.iter().find(|&&(c, _)| c == n).map(|&(_, s)| s);
        assert!(get(1) > get(2), "{s0:?}");
    }

    #[test]
    fn preference_signal_changes_ranking() {
        let attrs = vec![mh(4, &[0]), mh(4, &[0]), mh(4, &[0])];
        // node 1 shares node 0's ratings, node 2 does not.
        let prefs = vec![
            SparseVec::from_pairs(5, vec![(0, 5.0), (1, 4.0)]),
            SparseVec::from_pairs(5, vec![(0, 5.0), (1, 4.0)]),
            SparseVec::from_pairs(5, vec![(3, 2.0)]),
        ];
        let scored = score_all_candidates(&attrs, Some(&prefs), true, true, 100);
        let s0 = &scored[0];
        let get = |n: u32| s0.iter().find(|&&(c, _)| c == n).map(|&(_, s)| s).unwrap();
        assert!(get(1) > get(2), "{s0:?}");
    }

    #[test]
    fn cold_node_without_prefs_still_gets_candidates() {
        let attrs = vec![mh(4, &[0, 1]), mh(4, &[0]), mh(4, &[1])];
        let prefs = vec![SparseVec::zeros(5), SparseVec::from_pairs(5, vec![(0, 5.0)]), SparseVec::zeros(5)];
        let scored = score_all_candidates(&attrs, Some(&prefs), true, true, 100);
        assert_eq!(scored[0].len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one proximity")]
    fn rejects_no_signal() {
        let attrs = vec![mh(2, &[0])];
        let _ = score_all_candidates(&attrs, None, false, false, 10);
    }

    #[test]
    fn single_candidate_pool_keeps_ranking_weight() {
        // Regression for the min_max_normalize degenerate-slice bug: node 0
        // has exactly one candidate, so its similarity slice is a constant
        // positive singleton. That used to normalize to 0.0, erasing the
        // pool's entire ranking weight; it must map to 1.0.
        let attrs = vec![mh(4, &[0, 1]), mh(4, &[0, 1]), mh(4, &[3])];
        let scored = score_all_candidates(&attrs, None, true, false, 100);
        assert_eq!(scored[0], vec![(1, 1.0)]);
    }

    #[test]
    fn uniformly_similar_pool_keeps_weight_and_zero_pref_stays_zero() {
        // All three nodes share attr 0 identically → each node's attr slice
        // is constant positive and must normalize to 1.0 for every
        // candidate. Preferences are pairwise disjoint → the pref slice is
        // constant *zero* and must stay 0.0 (no phantom weight).
        let attrs = vec![mh(4, &[0]), mh(4, &[0]), mh(4, &[0])];
        let prefs = vec![
            SparseVec::from_pairs(6, vec![(0, 5.0)]),
            SparseVec::from_pairs(6, vec![(1, 4.0)]),
            SparseVec::from_pairs(6, vec![(2, 3.0)]),
        ];
        let scored = score_all_candidates(&attrs, Some(&prefs), true, true, 100);
        for pool in &scored {
            assert_eq!(pool.len(), 2);
            for &(_, s) in pool {
                // attr contributes 1.0, pref contributes exactly 0.0
                assert_eq!(s, 1.0, "{scored:?}");
            }
        }
    }
}
