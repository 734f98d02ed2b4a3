//! Exact percentiles over recorded samples.
//!
//! Every timed call keeps its own sample, so a percentile is read from the
//! sorted samples themselves (nearest rank), never from a bucketed histogram.
//! A percentile `q` is only reported when at least ten samples lie beyond it,
//! which is where `p90` needs 100 samples and `p99` needs 1,000.

/// Fewest samples for which percentile `q` (in `(0, 1)`) has at least ten
/// samples beyond it.
pub fn min_samples(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// A set of recorded durations (nanoseconds).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty set with room for `n` samples.
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Sum of all samples.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `q` in `[0, 1]`, or `None` when fewer than
    /// [`min_samples`]`(q)` samples exist (the median needs 20).
    pub fn percentile(&mut self, q: f64) -> Option<u64> {
        if self.ns.is_empty() || (q > 0.0 && q < 1.0 && self.ns.len() < min_samples(q)) {
            return None;
        }
        self.sort();
        let rank = ((q * self.ns.len() as f64).ceil() as usize).clamp(1, self.ns.len());
        Some(self.ns[rank - 1])
    }
}

/// Median of a small set of values (mean of the two middle ones for an even
/// count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> Samples {
        let mut s = Samples::with_capacity(n as usize);
        // Push in reverse so the percentile has to sort.
        for v in (1..=n).rev() {
            s.push(v);
        }
        s
    }

    #[test]
    fn sample_floor_leaves_ten_beyond_the_percentile() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
    }

    #[test]
    fn nearest_rank_is_exact() {
        let mut s = filled(1000);
        assert_eq!(s.percentile(0.5), Some(500));
        assert_eq!(s.percentile(0.9), Some(900));
        assert_eq!(s.percentile(0.99), Some(990));
        assert_eq!(s.percentile(1.0), Some(1000));
        assert_eq!(s.percentile(0.0), Some(1));
    }

    #[test]
    fn too_few_samples_give_no_tail_percentile() {
        let mut s = filled(999);
        assert_eq!(s.percentile(0.99), None);
        assert_eq!(s.percentile(0.9), Some(900));
        let mut few = filled(99);
        assert_eq!(few.percentile(0.9), None);
        assert!(few.percentile(0.5).is_some());
        assert_eq!(Samples::default().percentile(0.5), None);
    }

    #[test]
    fn extend_merges_and_resorts() {
        let mut a = filled(10);
        let b = filled(20);
        a.extend(&b);
        assert_eq!(a.len(), 30);
        assert_eq!(a.total_ns(), 55 + 210);
        assert_eq!(a.percentile(1.0), Some(20));
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
