//! Probability distributions used by the workload models.
//!
//! These are implemented here (rather than pulled from an external crate) so
//! the exact sampling algorithms are pinned: the traffic a given seed
//! produces is part of the reproduction contract. Each sampler draws from an
//! [`RngStream`].

use crate::rng::RngStream;

/// A continuous distribution that can be sampled.
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut RngStream) -> f64;
}

/// Exponential distribution with the given rate (`lambda`, events per unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp {
    rate: f64,
}

impl Exp {
    /// Creates an exponential distribution with rate `lambda` (> 0).
    #[inline]
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "Exp rate must be positive");
        Exp { rate }
    }

    /// Creates an exponential distribution with the given mean (> 0).
    pub fn with_mean(mean: f64) -> Self {
        Exp::new(1.0 / mean)
    }

    /// The distribution mean, `1/lambda`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

impl Sample for Exp {
    #[inline]
    fn sample(&self, rng: &mut RngStream) -> f64 {
        -rng.next_f64_open().ln() / self.rate
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "Uniform requires lo < hi");
        Uniform { lo, hi }
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut RngStream) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }
}

/// Normal (Gaussian) distribution, sampled with the Marsaglia polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard deviation.
    #[inline]
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(std_dev >= 0.0 && std_dev.is_finite());
        Normal { mean, std_dev }
    }

    /// Draws a standard normal variate.
    #[inline]
    fn standard(rng: &mut RngStream) -> f64 {
        // Marsaglia polar method. We discard the second variate rather than
        // caching it, keeping the sampler stateless (stateless samplers keep
        // derived streams independent of call interleaving).
        loop {
            let u = 2.0 * rng.next_f64() - 1.0;
            let v = 2.0 * rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Sample for Normal {
    #[inline]
    fn sample(&self, rng: &mut RngStream) -> f64 {
        self.mean + self.std_dev * Normal::standard(rng)
    }
}

/// Log-normal distribution parameterized by the mean/σ of the underlying normal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// Creates a log-normal with underlying normal parameters `mu`, `sigma`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            norm: Normal::new(mu, sigma),
        }
    }

    /// Creates a log-normal with the given *distribution* mean and a shape
    /// parameter `sigma` of the underlying normal.
    ///
    /// Mean of LogNormal(mu, sigma) is `exp(mu + sigma^2/2)`; we solve for mu.
    pub fn with_mean(mean: f64, sigma: f64) -> Self {
        assert!(mean > 0.0);
        let mu = mean.ln() - sigma * sigma / 2.0;
        LogNormal::new(mu, sigma)
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        (self.norm.mean + self.norm.std_dev * self.norm.std_dev / 2.0).exp()
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut RngStream) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Pareto distribution (heavy-tailed), `P(X > x) = (xm / x)^alpha` for `x >= xm`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with scale `xm > 0` and shape `alpha > 0`.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0 && shape > 0.0);
        Pareto { scale, shape }
    }

    /// The distribution mean (infinite for shape <= 1).
    pub fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.shape * self.scale / (self.shape - 1.0)
        }
    }
}

impl Sample for Pareto {
    fn sample(&self, rng: &mut RngStream) -> f64 {
        self.scale / rng.next_f64_open().powf(1.0 / self.shape)
    }
}

/// A discrete distribution over `0..weights.len()` sampled in O(1) via the
/// Walker/Vose alias method. Used for empirical packet-size distributions.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds an alias table from non-negative weights (not all zero).
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        assert!(
            weights.iter().all(|&w| w >= 0.0 && w.is_finite()),
            "weights must be non-negative and finite"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Residual entries are exactly 1 up to rounding.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no categories (never constructible; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a category index.
    pub fn sample(&self, rng: &mut RngStream) -> usize {
        let i = rng.next_below(self.prob.len() as u64) as usize;
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// Builds an [`AliasTable`] over `0..n` with Zipf(s) popularity
/// (`weight(k) ∝ 1/(k+1)^s`) — the standard model for web-destination
/// popularity, used by the route-cache workloads.
pub fn zipf_table(n: usize, s: f64) -> AliasTable {
    assert!(n > 0 && s >= 0.0);
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    AliasTable::new(&weights)
}

/// Clamps a sampled value into `[lo, hi]` — used for physically-bounded
/// quantities like packet sizes.
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    x.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_and_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn exp_mean() {
        let d = Exp::with_mean(4.0);
        let mut rng = RngStream::new(1);
        let xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, _) = mean_and_var(&xs);
        assert!((mean - 4.0).abs() < 0.1, "mean = {mean}");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 6.0);
        let mut rng = RngStream::new(2);
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| (2.0..6.0).contains(&x)));
        let (mean, _) = mean_and_var(&xs);
        assert!((mean - 4.0).abs() < 0.05);
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 3.0);
        let mut rng = RngStream::new(3);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = mean_and_var(&xs);
        assert!((mean - 10.0).abs() < 0.05, "mean = {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "std = {}", var.sqrt());
    }

    #[test]
    fn lognormal_mean() {
        let d = LogNormal::with_mean(100.0, 0.5);
        let mut rng = RngStream::new(4);
        let n = 300_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean = {mean}");
        assert!((d.mean() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn pareto_tail() {
        let d = Pareto::new(1.0, 2.5);
        let mut rng = RngStream::new(5);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| x >= 1.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            (mean - d.mean()).abs() < 0.05,
            "mean = {mean} vs {}",
            d.mean()
        );
        // Tail check: P(X > 2) should be (1/2)^2.5 ≈ 0.177.
        let frac = xs.iter().filter(|&&x| x > 2.0).count() as f64 / xs.len() as f64;
        assert!((frac - 0.1768).abs() < 0.01, "tail frac = {frac}");
    }

    #[test]
    fn alias_table_frequencies() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&weights);
        assert_eq!(t.len(), 4);
        let mut rng = RngStream::new(6);
        let mut counts = [0u32; 4];
        let n = 200_000;
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = n as f64 * w / total;
            assert!(
                (counts[i] as f64 - expected).abs() < expected * 0.05,
                "category {i}: {} vs {expected}",
                counts[i]
            );
        }
    }

    #[test]
    fn alias_table_zero_weight_never_sampled() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0]);
        let mut rng = RngStream::new(7);
        for _ in 0..10_000 {
            assert_eq!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn alias_table_single() {
        let t = AliasTable::new(&[5.0]);
        let mut rng = RngStream::new(8);
        assert_eq!(t.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic]
    fn alias_table_rejects_all_zero() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn zipf_popularity_is_ordered() {
        let t = zipf_table(100, 1.0);
        let mut rng = RngStream::new(31);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[t.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[49]);
        // Zipf(1): rank-1 is ~10x rank-10.
        let ratio = f64::from(counts[0]) / f64::from(counts[9].max(1));
        assert!((6.0..16.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn zipf_s_zero_is_uniform() {
        let t = zipf_table(10, 0.0);
        let mut rng = RngStream::new(32);
        let mut counts = vec![0u32; 10];
        for _ in 0..50_000 {
            counts[t.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((4_000..6_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn clamp_bounds() {
        assert_eq!(clamp(5.0, 0.0, 10.0), 5.0);
        assert_eq!(clamp(-1.0, 0.0, 10.0), 0.0);
        assert_eq!(clamp(11.0, 0.0, 10.0), 10.0);
    }
}
