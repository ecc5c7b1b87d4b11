//! Order statistics for timings and the rule behind `max_query_rps`.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least ten samples beyond it, so a tail figure is never
//! read off one or two stray samples.

/// Candidate tail percentiles in basis points, highest first.
const TAILS_BP: [u64; 6] = [9_999, 9_990, 9_900, 9_500, 9_000, 7_500];

/// Samples a tail percentile must have strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `bp` in `n` samples.
fn rank(n: usize, bp: u64) -> usize {
    let n64 = n as u64;
    let r = (bp * n64).div_ceil(10_000);
    (r as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted slice, `bp` in basis
/// points (9 900 = p99).
pub fn percentile_bp(sorted: &[f64], bp: u64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), bp) - 1])
}

/// The median: the middle sample, or the mean of the two middle ones.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest candidate percentile (basis points) with at least
/// [`MIN_BEYOND`] samples beyond its rank, or `None` when `n` is too
/// small for any of them.
pub fn tail_bp(n: usize) -> Option<u64> {
    TAILS_BP
        .iter()
        .copied()
        .find(|&bp| n - rank(n, bp).min(n) >= MIN_BEYOND)
}

/// A timing summarized for reporting.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The reported tail percentile (basis points) and its value.
    pub tail: Option<(u64, f64)>,
}

/// Summarizes a sample set; `None` when it is empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p50 = median(&v)?;
    let tail = tail_bp(v.len()).and_then(|bp| percentile_bp(&v, bp).map(|x| (bp, x)));
    Some(Summary {
        n: v.len(),
        p50,
        tail,
    })
}

/// `p`-th percentile (basis points) of unsorted samples, only when the
/// sample count leaves at least [`MIN_BEYOND`] samples beyond it.
pub fn supported_percentile(values: &[f64], bp: u64) -> Option<f64> {
    let n = values.len();
    if n == 0 || n - rank(n, bp) < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_bp(&v, bp)
}

/// Samples per chunk for [`chunked_p99`]: the fewest that leave
/// [`MIN_BEYOND`] samples beyond a p99.
pub const P99_CHUNK: usize = 1_000;

/// The median, over consecutive chunks of [`P99_CHUNK`] samples (in
/// due-time order; a short last chunk is dropped), of each chunk's p99.
/// One burst of host noise then moves one chunk's p99, not the figure.
pub fn chunked_p99(in_due_order: &[f64]) -> Option<f64> {
    let per_chunk: Vec<f64> = in_due_order
        .chunks_exact(P99_CHUNK)
        .filter_map(|c| supported_percentile(c, 9_900))
        .collect();
    median(&per_chunk)
}

/// One rung of the offered-rate ladder, as measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Step {
    /// Offered query rate, requests per second.
    pub offered_rps: f64,
    /// Queries answered per second of the step's window.
    pub achieved_rps: f64,
    /// Query p99 latency from due time, ms, as [`chunked_p99`] gives
    /// it (`None`: too few samples).
    pub p99_ms: Option<f64>,
    /// Failed, refused or wrong replies.
    pub errors: usize,
    /// Requests due but not yet sent, the median over the step's chunk
    /// boundaries (see `load::backlog`).
    pub backlog: usize,
}

impl Step {
    /// Whether the step meets the latency limit with no errors and no
    /// growing backlog.
    pub fn passes(&self, limit_ms: f64, max_backlog: usize) -> bool {
        self.errors == 0
            && self.backlog <= max_backlog
            && self.p99_ms.is_some_and(|p| p <= limit_ms)
    }
}

/// The highest-rate step of the ladder that passes. A lower step may
/// fail: on a virtual machine, sparse requests wait on halted-vCPU
/// wake-ups that a busier step does not see.
pub fn max_passing(steps: &[Step], limit_ms: f64, max_backlog: usize) -> Option<&Step> {
    steps
        .iter()
        .filter(|s| s.passes(limit_ms, max_backlog))
        .max_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps))
}

/// 64-bit FNV-1a, used to compare report and trace digests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A seeded splitmix64 stream: the benchmark's only source of choice.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded from `seed` and a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_bp(5), None);
        assert_eq!(tail_bp(40), Some(7_500));
        assert_eq!(tail_bp(100), Some(9_000));
        assert_eq!(tail_bp(199), Some(9_000));
        assert_eq!(tail_bp(200), Some(9_500));
        assert_eq!(tail_bp(999), Some(9_500));
        assert_eq!(tail_bp(1_000), Some(9_900));
        assert_eq!(tail_bp(10_000), Some(9_990));
        assert_eq!(tail_bp(100_000), Some(9_999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile_bp(&v, 5_000), Some(500.0));
        assert_eq!(percentile_bp(&v, 9_900), Some(990.0));
        assert_eq!(percentile_bp(&[3.0], 9_900), Some(3.0));
        assert_eq!(percentile_bp(&[], 5_000), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[2.0, 9.0, 1.0]), Some(2.0));
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let v: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.n, 1_000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.tail, Some((9_900, 990.0)));
        assert_eq!(supported_percentile(&v, 9_900), Some(990.0));
        assert_eq!(supported_percentile(&v[..999], 9_900), None);
        assert_eq!(summarize(&[1.0, 2.0]).unwrap().tail, None);
    }

    fn step(rps: f64, p99: f64, errors: usize, backlog: usize) -> Step {
        Step {
            offered_rps: rps,
            achieved_rps: rps,
            p99_ms: Some(p99),
            errors,
            backlog,
        }
    }

    #[test]
    fn ladder_takes_the_highest_passing_step() {
        let limit = 10.0;
        let ok = vec![step(500.0, 1.0, 0, 0), step(1000.0, 2.0, 0, 1)];
        assert_eq!(max_passing(&ok, limit, 8).unwrap().offered_rps, 1000.0);

        // A lower step over the limit does not cap a higher one that
        // meets it; a higher step over the limit does not count.
        let dip = vec![
            step(500.0, 1.0, 0, 0),
            step(1000.0, 12.0, 0, 0),
            step(2000.0, 3.0, 0, 0),
            step(4000.0, 11.0, 0, 0),
        ];
        assert_eq!(max_passing(&dip, limit, 8).unwrap().offered_rps, 2000.0);

        // One error, or a growing backlog, fails a step.
        let err = vec![step(500.0, 1.0, 0, 0), step(1000.0, 1.0, 1, 0)];
        assert_eq!(max_passing(&err, limit, 8).unwrap().offered_rps, 500.0);
        let behind = vec![step(500.0, 1.0, 0, 9)];
        assert!(max_passing(&behind, limit, 8).is_none());

        // Too few samples for a p99 is not a pass.
        let mut thin = step(500.0, 1.0, 0, 0);
        thin.p99_ms = None;
        assert!(max_passing(&[thin], limit, 8).is_none());
    }

    #[test]
    fn chunked_p99_ignores_one_noisy_chunk() {
        // Three chunks of 1 000: two quiet (p99 = 1 ms), one with a
        // 50-sample stall at 90 ms.
        let mut v = vec![0.5; 3 * P99_CHUNK];
        for x in v.iter_mut().step_by(50) {
            *x = 1.0;
        }
        for x in &mut v[P99_CHUNK..P99_CHUNK + 50] {
            *x = 90.0;
        }
        // Over all samples the stall sets the p99; chunked, it does not.
        assert_eq!(supported_percentile(&v, 9_900), Some(90.0));
        assert_eq!(chunked_p99(&v), Some(1.0));
        // A chunk must be full to count.
        assert_eq!(chunked_p99(&v[..P99_CHUNK - 1]), None);
        // When every chunk is slow, so is the figure.
        let slow = vec![40.0; 2 * P99_CHUNK + 10];
        assert_eq!(chunked_p99(&slow), Some(40.0));
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c = SplitMix::new(8, 1).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
