//! Timing samples and the order statistics the benchmark reports.
//!
//! Every timing is kept as an exact integer-nanosecond histogram: one
//! counter per nanosecond up to [`EXACT_NS`], plus the exact values of
//! the rare samples beyond it. Percentiles are nearest-rank and exact,
//! memory stays fixed however many calls a traced pass times, and the
//! buffer is allocated and touched once, before any timed request.

/// Samples up to this many nanoseconds land in the dense counter array.
pub const EXACT_NS: usize = 1 << 16;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refused {
    /// Samples recorded.
    pub samples: u64,
    /// Samples that would lie beyond the requested percentile.
    pub beyond: u64,
}

impl std::fmt::Display for Refused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples, only {} beyond the percentile (need {MIN_BEYOND})",
            self.samples, self.beyond
        )
    }
}

/// Nearest-rank position (1-based) of quantile `q` among `n` samples,
/// and how many samples lie beyond it.
pub fn rank(q: f64, n: u64) -> (u64, u64) {
    assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
    let r = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
    (r, n.saturating_sub(r))
}

/// An exact histogram of nanosecond timings.
#[derive(Debug, Clone)]
pub struct Samples {
    dense: Vec<u32>,
    overflow: Vec<u64>,
    n: u64,
}

impl Default for Samples {
    fn default() -> Self {
        Self::new()
    }
}

impl Samples {
    /// An empty histogram whose dense array is already resident: it is
    /// written once with a non-zero value and then cleared, so no page
    /// is first touched during a timed phase.
    pub fn new() -> Self {
        let mut dense = vec![1u32; EXACT_NS];
        dense.fill(0);
        Samples {
            dense,
            overflow: Vec::new(),
            n: 0,
        }
    }

    /// Records one timing.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.dense.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.overflow.push(ns),
        }
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forgets every sample, keeping the buffer resident.
    pub fn clear(&mut self) {
        self.dense.fill(0);
        self.overflow.clear();
        self.n = 0;
    }

    /// The nearest-rank `q` quantile in nanoseconds, refused when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Result<u64, Refused> {
        let (r, beyond) = rank(q, self.n);
        if self.n == 0 || beyond < MIN_BEYOND {
            return Err(Refused {
                samples: self.n,
                beyond,
            });
        }
        let mut seen = 0u64;
        for (ns, &c) in self.dense.iter().enumerate() {
            seen += u64::from(c);
            if seen >= r {
                return Ok(ns as u64);
            }
        }
        let mut over = self.overflow.clone();
        over.sort_unstable();
        Ok(over[(r - seen - 1) as usize])
    }
}

/// Median of per-pass values (nearest rank, lower middle for an even
/// count), refused when fewer than [`MIN_BEYOND`] values lie above it.
pub fn median(values: &[f64]) -> Result<f64, Refused> {
    order_stat(values, 0.5, f64::total_cmp)
}

/// The per-pass value that a tenth of the passes beat: the nearest-rank
/// 0.9 quantile of `values` ordered from slowest to fastest, refused
/// when fewer than [`MIN_BEYOND`] passes are faster. `higher_is_faster`
/// is true for a rate and false for a time.
pub fn fast_decile(values: &[f64], higher_is_faster: bool) -> Result<f64, Refused> {
    if higher_is_faster {
        order_stat(values, 0.9, f64::total_cmp)
    } else {
        order_stat(values, 0.9, |a, b| b.total_cmp(a))
    }
}

/// The nearest-rank `q` quantile of `values` in the order `cmp` gives,
/// refused when fewer than [`MIN_BEYOND`] values follow it.
fn order_stat(
    values: &[f64],
    q: f64,
    cmp: impl Fn(&f64, &f64) -> std::cmp::Ordering,
) -> Result<f64, Refused> {
    let n = values.len() as u64;
    let (r, beyond) = rank(q, n);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(Refused { samples: n, beyond });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(cmp);
    Ok(sorted[(r - 1) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.record(v);
        }
        s
    }

    #[test]
    fn rank_is_nearest_rank_with_beyond_count() {
        assert_eq!(rank(0.5, 20), (10, 10));
        assert_eq!(rank(0.5, 21), (11, 10));
        assert_eq!(rank(0.99, 1000), (990, 10));
        assert_eq!(rank(0.99, 999), (990, 9));
        assert_eq!(rank(0.0, 5), (1, 4));
        assert_eq!(rank(1.0, 5), (5, 0));
        assert_eq!(rank(0.5, 0), (1, 0));
    }

    #[test]
    fn percentile_matches_a_sorted_vector() {
        // 1..=1000 shuffled by a fixed stride: p50 = 500, p99 = 990.
        let s = filled((0..1000u64).map(|i| (i * 7919) % 1000 + 1));
        assert_eq!(s.len(), 1000);
        assert_eq!(s.percentile(0.5), Ok(500));
        assert_eq!(s.percentile(0.99), Ok(990));
        assert_eq!(s.percentile(0.9), Ok(900));
    }

    #[test]
    fn percentile_is_refused_with_too_few_samples_beyond() {
        let s = filled(1..=999);
        assert_eq!(
            s.percentile(0.99),
            Err(Refused {
                samples: 999,
                beyond: 9
            })
        );
        assert!(s.percentile(0.5).is_ok());
        let small = filled(1..=19);
        assert_eq!(small.percentile(0.5).unwrap_err().beyond, 9);
        assert!(filled(1..=20).percentile(0.5).is_ok());
        assert!(Samples::new().percentile(0.5).is_err());
    }

    #[test]
    fn overflow_samples_keep_exact_order() {
        // 30 dense samples and 30 beyond the dense range.
        let big = EXACT_NS as u64;
        let s = filled((1..=30).chain((0..30).map(|i| big + 100 - i)));
        assert_eq!(s.len(), 60);
        assert_eq!(s.percentile(0.5), Ok(30));
        // Rank 31 is the smallest overflow value.
        assert_eq!(rank(0.51, 60).0, 31);
        assert_eq!(s.percentile(0.51), Ok(big + 71));
        assert_eq!(s.percentile(0.75), Ok(big + 85));
    }

    #[test]
    fn clear_forgets_every_sample() {
        let mut a = filled((1..=10).chain([EXACT_NS as u64 * 2]));
        a.clear();
        assert!(a.is_empty());
        assert!(a.percentile(0.5).is_err());
        for v in 1..=20 {
            a.record(v);
        }
        assert_eq!(a.len(), 20);
        assert_eq!(a.percentile(0.5), Ok(10));
    }

    #[test]
    fn median_of_pass_values() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(median(&v), Ok(10.0));
        let odd: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(median(&odd), Ok(11.0));
        assert_eq!(
            median(&[1.0, 2.0, 3.0]),
            Err(Refused {
                samples: 3,
                beyond: 1
            })
        );
    }

    #[test]
    fn fast_decile_has_a_tenth_of_the_passes_beyond() {
        // 100 passes: rank 90 of 100, with 10 passes faster.
        let rates: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(fast_decile(&rates, true), Ok(90.0));
        // For times the fast end is the low end: rank 90 counted from 100.
        assert_eq!(fast_decile(&rates, false), Ok(11.0));
        let shuffled: Vec<f64> = (0..100u32).map(|i| f64::from((i * 37) % 100 + 1)).collect();
        assert_eq!(fast_decile(&shuffled, true), Ok(90.0));
        assert_eq!(fast_decile(&shuffled, false), Ok(11.0));
        assert_eq!(
            fast_decile(&rates[..99], true),
            Err(Refused {
                samples: 99,
                beyond: 9
            })
        );
        assert!(fast_decile(&[], false).is_err());
    }
}
