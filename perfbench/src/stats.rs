//! The benchmark's own arithmetic: percentiles, open-loop latency, and a
//! small seeded generator. Everything here is pure and unit-tested.

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p`% of the sample at or below it. An empty sample reads 0,
/// like a layer the workload bypasses.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The tolerance keeps e.g. 99.9% of 10 000 at rank 9990: the float
    // product lands a hair above the integer.
    let x = p / 100.0 * n as f64;
    ((x - 1e-9 * x.max(1.0)).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The percentile ladder a tail is read from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A latency sample reduced to what the benchmark reports: the median and
/// the highest ladder percentile that still has at least ten samples
/// beyond it, each with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest percentile with ≥ 10 samples beyond it (`None` when the
    /// sample is too small for even the median to qualify).
    pub tail_p: Option<f64>,
    pub tail: f64,
}

impl Summary {
    pub fn of(mut v: Vec<f64>) -> Summary {
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail_p = TAIL_LADDER.iter().copied().find(|&p| beyond(n, p) >= 10);
        Summary {
            n,
            p50: percentile(&v, 50.0),
            p99: percentile(&v, 99.0),
            tail_p,
            tail: tail_p.map_or(0.0, |p| percentile(&v, p)),
        }
    }
}

/// Median of an unsorted sample (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// Mean of a sample (`0.0` when empty, so ratios over empty layers read 0).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One call of an open-loop client: it carried arrivals `first..end` and
/// returned (answered all of them) at `return_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    pub first: usize,
    pub end: usize,
    pub start_ns: u64,
    pub return_ns: u64,
}

/// Arrival-to-answer latency of every arrival, measured from its *due*
/// time (not from when the client got to it), so a slow call also charges
/// every arrival that came due while it ran and waited behind it.
pub fn open_loop_latencies(due_ns: &[u64], calls: &[Call]) -> Vec<u64> {
    let mut lat = vec![0u64; due_ns.len()];
    for c in calls {
        for i in c.first..c.end {
            lat[i] = c.return_ns.saturating_sub(due_ns[i]);
        }
    }
    lat
}

/// Due-to-call-start wait of every arrival (the queueing part of its
/// latency).
pub fn open_loop_waits(due_ns: &[u64], calls: &[Call]) -> Vec<u64> {
    let mut wait = vec![0u64; due_ns.len()];
    for c in calls {
        for i in c.first..c.end {
            wait[i] = c.start_ns.saturating_sub(due_ns[i]);
        }
    }
    wait
}

/// End of the batch a call starting at arrival `next` hands over at
/// `now_ns`: every arrival due by then (at least the one at `next`, which
/// the client waited for).
pub fn due_batch_end(due_ns: &[u64], next: usize, now_ns: u64) -> usize {
    let mut end = next + 1;
    while end < due_ns.len() && due_ns[end] <= now_ns {
        end += 1;
    }
    end
}

/// Arrivals still unanswered at the instant the last one came due — the
/// backlog the offered load leaves behind.
pub fn backlog_at_last_due(due_ns: &[u64], lat_ns: &[u64]) -> usize {
    let Some(&last) = due_ns.last() else { return 0 };
    due_ns.iter().zip(lat_ns).filter(|&(&d, &l)| d + l > last).count()
}

/// SplitMix64: a tiny seeded generator for tenants and schedule shuffles
/// (the repository's generators cover the queries).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fbe_7c4a_11ee)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Fold one id into a running hash (used by [`crate::check`]).
pub fn mix(x: u64) -> u64 {
    let mut r = Rng(x);
    r.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn summary_reports_median_and_tail_with_ten_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let s = Summary::of((1..=1000).rev().map(f64::from).collect());
        assert_eq!((s.n, s.p50, s.p99), (1000, 500.0, 990.0));
        assert_eq!(s.tail_p, Some(99.0));
        assert_eq!(s.tail, 990.0);
        // 10 000 samples: p99.9 qualifies.
        let s = Summary::of((1..=10_000).map(f64::from).collect());
        assert_eq!(s.tail_p, Some(99.9));
        assert_eq!(s.tail, 9990.0);
        // 200 samples: p95 is the highest with ≥ 10 beyond.
        let s = Summary::of((1..=200).map(f64::from).collect());
        assert_eq!(s.tail_p, Some(95.0));
        assert_eq!(s.tail, 190.0);
        // Too small for any tail.
        assert_eq!(Summary::of(vec![1.0; 12]).tail_p, None);
    }

    #[test]
    fn stalled_call_charges_arrivals_queued_behind_it() {
        // Arrivals due at 0, 1, 2, 3 ms. The first call carries only
        // arrival 0 and stalls until 5 ms; arrivals 1..4 came due during
        // the stall and ride the next call, which returns at 6 ms.
        let ms = 1_000_000;
        let due = [0, ms, 2 * ms, 3 * ms];
        let calls = [
            Call { first: 0, end: 1, start_ns: 0, return_ns: 5 * ms },
            Call { first: 1, end: 4, start_ns: 5 * ms, return_ns: 6 * ms },
        ];
        assert_eq!(open_loop_latencies(&due, &calls), [5 * ms, 5 * ms, 4 * ms, 3 * ms]);
        assert_eq!(open_loop_waits(&due, &calls), [0, 4 * ms, 3 * ms, 2 * ms]);
        // The client hands over everything due by the call start.
        assert_eq!(due_batch_end(&due, 1, 5 * ms), 4);
        assert_eq!(due_batch_end(&due, 0, 0), 1);
        assert_eq!(due_batch_end(&due, 1, ms + ms / 2), 2);
        // At the last due instant (3 ms) all four were still unanswered.
        assert_eq!(backlog_at_last_due(&due, &open_loop_latencies(&due, &calls)), 4);
        // With instant answers nothing is left behind.
        assert_eq!(backlog_at_last_due(&due, &[0, 0, 0, 0]), 0);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..8).scan(Rng::new(3), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(Rng::new(3), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..8).scan(Rng::new(4), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
