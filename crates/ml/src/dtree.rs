//! C4.5-style decision tree (paper §5.3).
//!
//! Trained on (feature vector → cluster label) pairs after clustering, the
//! tree lets Houdini route each incoming request to the Markov model of its
//! cluster with a handful of comparisons. Splits are chosen by gain ratio
//! over binary numeric thresholds, as C4.5 does.

use common::FxHashMap;
use serde::{Deserialize, Serialize};

/// A trained tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
    /// Number of decision nodes (diagnostics).
    pub splits: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf(usize),
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

impl DecisionTree {
    /// Routes a feature vector to its predicted label.
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(label) => return *label,
                Node::Split { feature, threshold, left, right } => {
                    node = if x[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Depth of the tree (diagnostics).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }
}

fn entropy(counts: &FxHashMap<usize, usize>, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &c in counts.values() {
        if c > 0 {
            let p = c as f64 / total as f64;
            h -= p * p.log2();
        }
    }
    h
}

fn majority(ys: &[usize]) -> usize {
    let mut counts: FxHashMap<usize, usize> = FxHashMap::default();
    for &y in ys {
        *counts.entry(y).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(label, c)| (c, usize::MAX - label))
        .map(|(label, _)| label)
        .unwrap_or(0)
}

/// Trains a tree on `xs -> ys` with gain-ratio splits, depth-capped.
pub fn train_tree(xs: &[Vec<f64>], ys: &[usize], max_depth: usize) -> DecisionTree {
    assert_eq!(xs.len(), ys.len());
    let mut splits = 0;
    let idx: Vec<usize> = (0..xs.len()).collect();
    let root = build(xs, ys, &idx, max_depth, &mut splits);
    DecisionTree { root, splits }
}

fn build(xs: &[Vec<f64>], ys: &[usize], idx: &[usize], depth: usize, splits: &mut usize) -> Node {
    let labels: Vec<usize> = idx.iter().map(|&i| ys[i]).collect();
    let first = labels.first().copied().unwrap_or(0);
    if depth == 0 || idx.len() < 4 || labels.iter().all(|&l| l == first) {
        return Node::Leaf(majority(&labels));
    }
    let dims = xs[idx[0]].len();
    let mut parent_counts: FxHashMap<usize, usize> = FxHashMap::default();
    for &l in &labels {
        *parent_counts.entry(l).or_insert(0) += 1;
    }
    let parent_h = entropy(&parent_counts, idx.len());

    let mut best: Option<(f64, usize, f64)> = None; // (gain_ratio, feature, threshold)
    #[allow(clippy::needless_range_loop)]
    for f in 0..dims {
        // Candidate thresholds: midpoints between distinct sorted values.
        let mut vals: Vec<f64> = idx.iter().map(|&i| xs[i][f]).collect();
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        for w in vals.windows(2) {
            let thr = (w[0] + w[1]) / 2.0;
            let mut lc: FxHashMap<usize, usize> = FxHashMap::default();
            let mut rc: FxHashMap<usize, usize> = FxHashMap::default();
            let (mut ln, mut rn) = (0usize, 0usize);
            for &i in idx {
                if xs[i][f] <= thr {
                    *lc.entry(ys[i]).or_insert(0) += 1;
                    ln += 1;
                } else {
                    *rc.entry(ys[i]).or_insert(0) += 1;
                    rn += 1;
                }
            }
            if ln == 0 || rn == 0 {
                continue;
            }
            let n = idx.len() as f64;
            let gain =
                parent_h - (ln as f64 / n) * entropy(&lc, ln) - (rn as f64 / n) * entropy(&rc, rn);
            // Split info for gain ratio (C4.5).
            let (pl, pr) = (ln as f64 / n, rn as f64 / n);
            let split_info = -(pl * pl.log2() + pr * pr.log2());
            let ratio = if split_info > 1e-9 { gain / split_info } else { 0.0 };
            if gain > 1e-9 && best.map(|(g, _, _)| ratio > g).unwrap_or(true) {
                best = Some((ratio, f, thr));
            }
        }
    }
    match best {
        None => Node::Leaf(majority(&labels)),
        Some((_, feature, threshold)) => {
            *splits += 1;
            let left_idx: Vec<usize> =
                idx.iter().copied().filter(|&i| xs[i][feature] <= threshold).collect();
            let right_idx: Vec<usize> =
                idx.iter().copied().filter(|&i| xs[i][feature] > threshold).collect();
            Node::Split {
                feature,
                threshold,
                left: Box::new(build(xs, ys, &left_idx, depth - 1, splits)),
                right: Box::new(build(xs, ys, &right_idx, depth - 1, splits)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_threshold() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let t = train_tree(&xs, &ys, 4);
        assert_eq!(t.predict(&[3.0]), 0);
        assert_eq!(t.predict(&[35.0]), 1);
        assert_eq!(t.splits, 1, "one clean split suffices");
    }

    #[test]
    fn learns_two_features() {
        // Label = (x0 >= 1) * 2 + (x1 >= 1): the Fig. 9 decision-tree shape
        // (hash of w_id, then array length).
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..20 {
                    xs.push(vec![a as f64, b as f64]);
                    ys.push(a * 2 + b);
                }
            }
        }
        let t = train_tree(&xs, &ys, 6);
        assert_eq!(t.predict(&[0.0, 0.0]), 0);
        assert_eq!(t.predict(&[0.0, 1.0]), 1);
        assert_eq!(t.predict(&[1.0, 0.0]), 2);
        assert_eq!(t.predict(&[1.0, 1.0]), 3);
    }

    #[test]
    fn pure_node_is_leaf() {
        let xs = vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0]];
        let ys = vec![7, 7, 7, 7];
        let t = train_tree(&xs, &ys, 4);
        assert_eq!(t.predict(&[99.0]), 7);
        assert_eq!(t.splits, 0);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn depth_cap_respected() {
        let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..64).map(|i| i % 4).collect(); // noisy
        let t = train_tree(&xs, &ys, 3);
        assert!(t.depth() <= 4);
    }
}
