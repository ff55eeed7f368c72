//! Order statistics for timing samples.

/// Median, quartiles and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Inter-quartile distance as a share of the median — the spread the
    /// regression bounds are set against.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Summarises `values`.
///
/// # Panics
/// Panics if `values` is empty.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "cannot summarise an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    };
    let (q1, q3) = if n < 2 {
        (median, median)
    } else {
        (quantile(&v, 1), quantile(&v, 3))
    };
    Summary { median, q1, q3, n }
}

/// The median of `values` (see [`summarize`]).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Wall seconds of the consecutive, named chunks of one pass over a fixed
/// piece of work (the stages of a setup, the op repetitions of a sample).
pub type Chunks = Vec<(&'static str, f64)>;

/// The time of one pass, steadied against host noise: the sum, over the
/// chunks (only those called `name`, if given), of each chunk's **minimum
/// across the passes**. The noise of a shared host only ever adds time — a
/// busy sibling thread slows this one by up to half for seconds on end, and
/// nothing makes it faster than the idle machine — so the floor of a chunk is
/// what repeats from run to run, while its median depends on how much of the
/// run the neighbour was busy. Taking the floor chunk by chunk lets every
/// chunk pick its own quiet moment: no single pass need be quiet throughout.
///
/// # Panics
/// Panics if `passes` is empty or the passes are not chunked alike.
pub fn steady_total(passes: &[Chunks], name: Option<&str>) -> f64 {
    let first = &passes[0];
    (0..first.len())
        .filter(|&i| name.is_none_or(|n| n == first[i].0))
        .map(|i| {
            passes
                .iter()
                .map(|pass| {
                    assert_eq!(pass[i].0, first[i].0, "passes are chunked differently");
                    pass[i].1
                })
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The `i`-th quartile cut of sorted `v`, computed as Python's
/// `statistics.quantiles(v, n=4)` (the default *exclusive* method) does —
/// the acceptance check of this benchmark is stated in those terms.
fn quantile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 3));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.rel_iqr()), (4.0, 4.0, 4.0, 0.0));
    }

    #[test]
    fn steady_total_takes_every_chunk_at_its_quietest() {
        // Three passes over chunks a, b, a; each pass is slowed somewhere
        // else, the last one twice: the totals read 7, 7 and 8, the steady
        // total reads the clean 6.
        let passes: Vec<Chunks> = vec![
            vec![("a", 2.0), ("b", 2.0), ("a", 3.0)],
            vec![("a", 3.0), ("b", 2.0), ("a", 2.0)],
            vec![("a", 3.0), ("b", 3.0), ("a", 2.0)],
        ];
        assert_eq!(steady_total(&passes, None), 6.0);
        assert_eq!(steady_total(&passes, Some("a")), 4.0);
        assert_eq!(steady_total(&passes, Some("b")), 2.0);
        assert_eq!(steady_total(&passes, Some("c")), 0.0);
    }
}
