//! Greedy feed-forward feature selection (paper §5.2).
//!
//! Brute-forcing the power set of features is exponential; instead, each
//! round `r` evaluates all feature sets of size `r` built from the features
//! that appeared in the previous round's top-10% sets, and the search stops
//! when a round fails to beat the best cost found so far. The evaluator is
//! a callback: Houdini's implementation clusters the training workset,
//! builds per-cluster models from the validation workset, and scores
//! prediction accuracy on the testing workset.

/// Maps NaN above every real number for `f64::total_cmp`-based ascending
/// sorts, so a degenerate cost sorts last instead of crashing the search.
/// (`total_cmp` alone would rank negative NaN below -∞.)
fn nan_as_highest(c: f64) -> f64 {
    if c.is_nan() {
        f64::INFINITY
    } else {
        c
    }
}

/// Fraction of each round's best sets whose features survive (paper: top
/// 10%).
const SURVIVOR_FRAC: f64 = 0.10;

/// Cap on the feature-set size (rounds).
const MAX_ROUNDS: usize = 4;

/// Runs the feed-forward search over `features`, evaluating candidate sets
/// with `eval` (lower cost = better). Returns the best feature set found
/// (possibly empty if `features` is empty).
pub fn feed_forward_select<F>(features: &[usize], mut eval: F) -> Vec<usize>
where
    F: FnMut(&[usize]) -> f64,
{
    if features.is_empty() {
        return Vec::new();
    }
    let mut best_set: Vec<usize> = Vec::new();
    let mut best_cost = f64::INFINITY;
    let mut pool: Vec<usize> = features.to_vec();

    for r in 1..=MAX_ROUNDS {
        let candidates = sets_of_size(&pool, r);
        if candidates.is_empty() {
            break;
        }
        let mut scored: Vec<(f64, Vec<usize>)> =
            candidates.into_iter().map(|s| (eval(&s), s)).collect();
        // total_cmp with NaN pushed last: a degenerate cost (e.g. a
        // log-likelihood that went NaN on a pathological cluster) must not
        // abort the search, and must never be selected as the round best.
        scored.sort_by(|a, b| nan_as_highest(a.0).total_cmp(&nan_as_highest(b.0)));
        let round_best = scored[0].0;
        if round_best < best_cost {
            best_cost = round_best;
            best_set = scored[0].1.clone();
        } else {
            break; // no improvement over previous rounds: stop (§5.2)
        }
        // Features appearing in the top 10% of this round's sets survive
        // (always at least two sets, so the pool can keep growing).
        let keep = ((scored.len() as f64 * SURVIVOR_FRAC).ceil() as usize).max(2).min(scored.len());
        let mut survivors: Vec<usize> =
            scored[..keep].iter().flat_map(|(_, s)| s.iter().copied()).collect();
        survivors.sort_unstable();
        survivors.dedup();
        pool = survivors;
    }
    best_set
}

/// All subsets of `pool` with exactly `size` elements (lexicographic).
fn sets_of_size(pool: &[usize], size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(size);
    fn rec(
        pool: &[usize],
        size: usize,
        start: usize,
        cur: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if cur.len() == size {
            out.push(cur.clone());
            return;
        }
        for i in start..pool.len() {
            cur.push(pool[i]);
            rec(pool, size, i + 1, cur, out);
            cur.pop();
        }
    }
    rec(pool, size, 0, &mut cur, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsets_enumeration() {
        let s = sets_of_size(&[1, 2, 3], 2);
        assert_eq!(s, vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
        assert_eq!(sets_of_size(&[1, 2], 3).len(), 0);
    }

    #[test]
    fn finds_the_informative_pair() {
        // Cost is minimized by the set {2, 5}; single features 2 and 5 are
        // each better than the rest, so the greedy search finds the pair.
        let features: Vec<usize> = (0..8).collect();
        let cost = |s: &[usize]| -> f64 {
            let mut c = 10.0;
            if s.contains(&2) {
                c -= 4.0;
            }
            if s.contains(&5) {
                c -= 3.0;
            }
            c + s.len() as f64 * 0.1
        };
        let best = feed_forward_select(&features, cost);
        assert_eq!(best, vec![2, 5]);
    }

    #[test]
    fn stops_when_no_improvement() {
        // Adding features only hurts: best set is a single feature.
        let features: Vec<usize> = (0..5).collect();
        let mut evals = 0usize;
        let best = feed_forward_select(&features, |s| {
            evals += 1;
            s.len() as f64 + if s.contains(&3) { -0.5 } else { 0.0 }
        });
        assert_eq!(best, vec![3]);
        // Round 1: 5 evals; round 2 from survivors only; far below the
        // 2^5 - 1 brute-force evaluations.
        assert!(evals < 20, "evals = {evals}");
    }

    #[test]
    fn empty_features() {
        let best = feed_forward_select(&[], |_| 0.0);
        assert!(best.is_empty());
    }

    #[test]
    fn nan_costs_degrade_gracefully() {
        // Regression: the sort comparator `partial_cmp(..).expect(..)`
        // panicked on NaN costs. A NaN evaluation must neither abort the
        // search nor be chosen over a finite cost.
        let features: Vec<usize> = (0..6).collect();
        let best = feed_forward_select(&features, |s| {
            if s.contains(&1) {
                f64::NAN // pathological cluster
            } else if s.contains(&4) {
                1.0
            } else {
                5.0
            }
        });
        assert_eq!(best, vec![4], "finite best wins despite NaN candidates");
        // Every evaluation NaN: no panic, empty selection (nothing ever
        // beat the initial infinity).
        let none = feed_forward_select(&features, |_| f64::NAN);
        assert!(none.is_empty());
    }
}
