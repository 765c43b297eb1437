//! Exact quantiles over raw samples, and the median-and-quartiles summary
//! of a small set of repeated measurements.

/// Nearest-rank quantile of ascending `sorted`: the smallest sample with
/// at least a share `q` of the samples at or below it.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and quartiles of `xs` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so a spread
/// reported here matches one computed from the printed values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    pub fn of(xs: &[f64]) -> Quartiles {
        assert!(!xs.is_empty(), "quartiles of no values");
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        if v.len() == 1 {
            return Quartiles {
                q1: v[0],
                median: v[0],
                q3: v[0],
            };
        }
        let n = v.len();
        let cut = |i: usize| {
            // Python: j = i * m // 4 clamped to 1..=n-1, delta = i * m - j * 4
            // (negative or past 4 at the ends, which extrapolates).
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// Interquartile range as a share of the median (0 if the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    Quartiles::of(xs).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 0.999), 100);
        assert_eq!(quantile(&s, 0.0), 1);
        assert_eq!(quantile(&[7u32], 0.99), 7);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2, 3, 4, 5, 6], n=4) == [1.75, 3.5, 5.25]
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.75, 3.5, 5.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert_eq!(q.spread(), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(Quartiles::of(&[4.0]).spread(), 0.0);
    }
}
