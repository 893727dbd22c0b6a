//! Expectation-maximization clustering (paper §5.1).
//!
//! Diagonal Gaussian mixtures fitted by EM, with the number of clusters
//! chosen by BIC over `1..=MAX_K` — standing in for WEKA's EM, which the
//! paper chose because it "does not require one to specify the number of
//! clusters beforehand".

use common::seeded_rng;
use rand::Rng;

/// Largest cluster count considered.
const MAX_K: usize = 6;

/// EM iterations per candidate k.
const ITERS: u32 = 25;

/// RNG seed for initialization.
const SEED: u64 = 1;

/// A fitted mixture model.
#[derive(Debug, Clone)]
pub struct EmModel {
    /// Number of clusters.
    pub k: usize,
    /// Mixture weights.
    pub weights: Vec<f64>,
    /// Per-cluster means (one entry per feature dimension).
    pub means: Vec<Vec<f64>>,
    /// Per-cluster diagonal variances.
    pub vars: Vec<Vec<f64>>,
    /// BIC of the fit (lower is better).
    pub bic: f64,
}

const VAR_FLOOR: f64 = 1e-3;

impl EmModel {
    /// Log-density of `x` under cluster `c` (up to the shared constant).
    fn log_density(&self, c: usize, x: &[f64]) -> f64 {
        let mut ll = self.weights[c].max(1e-12).ln();
        for (d, &xv) in x.iter().enumerate() {
            let var = self.vars[c][d];
            let diff = xv - self.means[c][d];
            ll += -0.5 * (var.ln() + diff * diff / var);
        }
        ll
    }

    /// Hard assignment: the most likely cluster for `x`.
    pub fn assign(&self, x: &[f64]) -> usize {
        (0..self.k)
            .max_by(|&a, &b| {
                self.log_density(a, x)
                    .partial_cmp(&self.log_density(b, x))
                    .expect("finite log densities")
            })
            .unwrap_or(0)
    }
}

/// Fits a mixture for each k in `1..=MAX_K` and returns the BIC-best model.
/// Empty data yields a trivial single-cluster model.
pub fn fit_em(data: &[Vec<f64>]) -> EmModel {
    let dims = data.first().map(Vec::len).unwrap_or(0);
    if data.is_empty() || dims == 0 {
        return EmModel {
            k: 1,
            weights: vec![1.0],
            means: vec![vec![0.0; dims]],
            vars: vec![vec![1.0; dims]],
            bic: 0.0,
        };
    }
    let mut best: Option<EmModel> = None;
    for k in 1..=MAX_K {
        let model = fit_k(data, k);
        if best.as_ref().map(|b| model.bic < b.bic).unwrap_or(true) {
            best = Some(model);
        }
    }
    best.expect("at least one fit")
}

fn fit_k(data: &[Vec<f64>], k: usize) -> EmModel {
    let n = data.len();
    let dims = data[0].len();
    let mut rng = seeded_rng(SEED ^ (k as u64).wrapping_mul(0x9e37));
    // Init means from random distinct-ish points; variances from the data.
    let mut global_var = vec![0.0f64; dims];
    let mut global_mean = vec![0.0f64; dims];
    for x in data {
        for d in 0..dims {
            global_mean[d] += x[d];
        }
    }
    for g in &mut global_mean {
        *g /= n as f64;
    }
    for x in data {
        for d in 0..dims {
            let diff = x[d] - global_mean[d];
            global_var[d] += diff * diff;
        }
    }
    for g in &mut global_var {
        *g = (*g / n as f64).max(VAR_FLOOR);
    }
    let mut model = EmModel {
        k,
        weights: vec![1.0 / k as f64; k],
        means: (0..k).map(|_| data[rng.gen_range(0..n)].clone()).collect(),
        vars: vec![global_var.clone(); k],
        bic: f64::INFINITY,
    };

    let mut resp = vec![vec![0.0f64; k]; n];
    let mut log_likelihood = 0.0f64;
    for _ in 0..ITERS {
        // E step.
        log_likelihood = 0.0;
        for (i, x) in data.iter().enumerate() {
            let lls: Vec<f64> = (0..k).map(|c| model.log_density(c, x)).collect();
            let max = lls.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut denom = 0.0;
            for (c, ll) in lls.iter().enumerate() {
                resp[i][c] = (ll - max).exp();
                denom += resp[i][c];
            }
            for r in &mut resp[i] {
                *r /= denom;
            }
            log_likelihood += max + denom.ln();
        }
        // M step.
        for c in 0..k {
            let nc: f64 = resp.iter().map(|r| r[c]).sum();
            if nc < 1e-9 {
                continue; // dead cluster: leave as-is
            }
            model.weights[c] = nc / n as f64;
            for d in 0..dims {
                let mean: f64 = data.iter().zip(&resp).map(|(x, r)| r[c] * x[d]).sum::<f64>() / nc;
                model.means[c][d] = mean;
                let var: f64 = data
                    .iter()
                    .zip(&resp)
                    .map(|(x, r)| r[c] * (x[d] - mean) * (x[d] - mean))
                    .sum::<f64>()
                    / nc;
                model.vars[c][d] = var.max(VAR_FLOOR);
            }
        }
    }
    // BIC = -2 ln L + params ln n.
    let params = (k * (1 + 2 * dims)) as f64;
    model.bic = -2.0 * log_likelihood + params * (n as f64).ln();
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gaussian-ish noise (Irwin–Hall: sum of four uniforms). Uniform noise
    /// would make `single_blob_prefers_one_cluster` an init-lottery: a
    /// two-component mixture models a flat density genuinely better than
    /// one Gaussian (~0.18 nats/point), which can clear the BIC penalty
    /// whenever EM's random init converges well.
    fn blobs(centers: &[f64], per: usize) -> Vec<Vec<f64>> {
        let mut rng = seeded_rng(99);
        let mut data = Vec::new();
        for &c in centers {
            for _ in 0..per {
                let noise: f64 = (0..4).map(|_| rng.gen_range(-0.1..0.1)).sum();
                data.push(vec![c + noise]);
            }
        }
        data
    }

    #[test]
    fn finds_two_well_separated_clusters() {
        let data = blobs(&[0.0, 10.0], 60);
        let m = fit_em(&data);
        assert!(m.k >= 2, "k = {}", m.k);
        let a = m.assign(&[0.1]);
        let b = m.assign(&[9.9]);
        assert_ne!(a, b);
        // Same-side points agree.
        assert_eq!(m.assign(&[-0.3]), a);
        assert_eq!(m.assign(&[10.4]), b);
    }

    #[test]
    fn single_blob_prefers_one_cluster() {
        let data = blobs(&[5.0], 100);
        let m = fit_em(&data);
        assert_eq!(m.k, 1, "BIC should not over-segment");
    }

    #[test]
    fn empty_data_is_trivial() {
        let m = fit_em(&[]);
        assert_eq!(m.k, 1);
        assert_eq!(m.assign(&[]), 0);
    }

    #[test]
    fn deterministic() {
        let data = blobs(&[0.0, 8.0], 40);
        let m1 = fit_em(&data);
        let m2 = fit_em(&data);
        assert_eq!(m1.k, m2.k);
        assert_eq!(m1.means, m2.means);
    }

    #[test]
    fn discrete_features_cluster() {
        // Array lengths 1 and 5 (the NewOrder model-partitioning case).
        let mut data: Vec<Vec<f64>> = Vec::new();
        for _ in 0..50 {
            data.push(vec![1.0]);
            data.push(vec![5.0]);
        }
        let m = fit_em(&data);
        assert!(m.k >= 2);
        assert_ne!(m.assign(&[1.0]), m.assign(&[5.0]));
    }
}
