//! Order statistics over timing samples.

/// Sorted copy of `samples` (ascending; NaN-free input assumed).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile `p ∈ [0, 100]` of ascending `sorted`
/// samples; 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Samples kept beyond the tail percentile: the tail is the highest
/// percentile that still has this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a timing distribution: its value and the percentile it
/// sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample with exactly [`TAIL_BEYOND`] samples above it (the
    /// maximum when there are fewer samples than that).
    pub value: f64,
    /// Which percentile that is, `100·(n − 10)/n`.
    pub percentile: f64,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
        };
    }
    if n <= TAIL_BEYOND {
        return Tail {
            value: s[n - 1],
            percentile: 100.0,
        };
    }
    Tail {
        value: s[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
    }
}

/// `count` consecutive, equally long slices of `samples` (in run
/// order); fewer samples than slices give one slice.
pub fn windows(samples: &[f64], count: usize) -> Vec<&[f64]> {
    let w = if samples.len() < count {
        1
    } else {
        count.max(1)
    };
    (0..w)
        .map(|i| &samples[i * samples.len() / w..(i + 1) * samples.len() / w])
        .collect()
}

/// `stat` of each of `count` [`windows`] of `samples`, and the lowest of
/// them: the figure of the run's calmest stretch.
///
/// CPU time taken by other guests of a shared host comes in bursts of
/// seconds and only ever adds time, so the calmest window is the one
/// closest to the program's own cost; a slower program slows every
/// window, this one included.
pub fn calmest(samples: &[f64], count: usize, stat: impl Fn(&[f64]) -> f64) -> (f64, Vec<f64>) {
    let per_window: Vec<f64> = windows(samples, count).into_iter().map(stat).collect();
    let lowest = per_window.iter().copied().fold(f64::INFINITY, f64::min);
    (lowest, per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn calmest_ignores_slow_windows() {
        let mut v: Vec<f64> = (0..50).map(|i| f64::from(i % 10)).collect();
        for x in &mut v[10..20] {
            *x += 100.0;
        }
        v[45] = 50.0;
        let max = |w: &[f64]| w.iter().copied().fold(0.0, f64::max);
        let (lowest, per_window) = calmest(&v, 5, max);
        assert_eq!(per_window, vec![9.0, 109.0, 9.0, 9.0, 50.0]);
        assert_eq!(lowest, 9.0);
        assert_eq!(calmest(&[2.0, 1.0], 5, max), (2.0, vec![2.0]));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        let few = tail(&[5.0, 1.0]);
        assert_eq!((few.value, few.percentile), (5.0, 100.0));
    }
}
