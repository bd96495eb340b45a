//! Summary rules the metrics are defined by.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles the tail rule chooses from, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// The tail of `xs`: the highest percentile of [`TAIL_LADDER`] with at
/// least ten samples beyond it, and its value. With fewer than twenty
/// samples no percentile qualifies and the median stands in.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let p = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        // The tolerance absorbs rounding in `100 − p` (e.g. 99.9).
        .find(|p| n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9)
        .unwrap_or(50.0);
    (p, percentile(xs, p))
}

/// One rung of a rate ladder as the fleet reported it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    pub rate_rps: f64,
    pub goodput_rps: f64,
    pub p99_latency_s: f64,
}

/// Share of the offered rate a rung must deliver as goodput to count
/// as sustained.
pub const SUSTAINED_SHARE: f64 = 0.9;

/// Highest offered rate at which goodput is at least 0.9 × the offered
/// rate and p99 latency is within `deadline_s`; 0 when no rung meets
/// both. Every rung that meets both counts, also one that recovers above
/// a collapsed rung. Past the last such rung of a run of passing rungs,
/// both limits are interpolated linearly towards the next rung and the
/// rate where the first one binds counts too: a rung ladder alone would
/// make the result jump by a whole rung when a knee moves by a hair.
pub fn max_sustained_rate(ladder: &[Rung], deadline_s: f64) -> f64 {
    let goodput_margin = |r: &Rung| r.goodput_rps - SUSTAINED_SHARE * r.rate_rps;
    let latency_margin = |r: &Rung| deadline_s - r.p99_latency_s;
    let passes = |r: &Rung| goodput_margin(r) >= 0.0 && latency_margin(r) >= 0.0;
    // Share of the way from `a` (≥ 0) towards `b` where a margin hits 0.
    let cross = |a: f64, b: f64| if b < 0.0 { a / (a - b) } else { 1.0 };
    let mut best: f64 = 0.0;
    for (i, r) in ladder.iter().enumerate() {
        if !passes(r) {
            continue;
        }
        best = best.max(r.rate_rps);
        if let Some(next) = ladder.get(i + 1).filter(|n| !passes(n)) {
            let t = cross(goodput_margin(r), goodput_margin(next))
                .min(cross(latency_margin(r), latency_margin(next)));
            best = best.max(r.rate_rps + t * (next.rate_rps - r.rate_rps));
        }
    }
    best
}

/// The request accounting a fleet report must satisfy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetTally {
    pub arrivals: u64,
    pub completed: u64,
    pub completed_in_slo: u64,
    pub failed: u64,
    pub incomplete: u64,
    pub p50_latency_s: f64,
    pub p99_latency_s: f64,
}

/// Conservation checks on one fleet run: every arrival is completed,
/// failed or still in flight; SLO completions are completions; and the
/// median does not exceed p99. Returns one message per broken rule.
pub fn fleet_violations(t: &FleetTally) -> Vec<String> {
    let mut out = Vec::new();
    if t.arrivals != t.completed + t.failed + t.incomplete {
        out.push(format!(
            "arrivals {} != completed {} + failed {} + incomplete {}",
            t.arrivals, t.completed, t.failed, t.incomplete
        ));
    }
    if t.completed_in_slo > t.completed {
        out.push(format!(
            "completed in SLO {} > completed {}",
            t.completed_in_slo, t.completed
        ));
    }
    if t.p50_latency_s > t.p99_latency_s {
        out.push(format!(
            "p50 {} s > p99 {} s",
            t.p50_latency_s, t.p99_latency_s
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        let samples = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // 31 steps: 15.5 beyond p50, 7.75 beyond p75.
        assert_eq!(tail(&samples(31)).0, 50.0);
        assert_eq!(tail(&samples(40)).0, 75.0);
        assert_eq!(tail(&samples(100)).0, 90.0);
        assert_eq!(tail(&samples(200)), (95.0, 190.0));
        assert_eq!(tail(&samples(1000)).0, 99.0);
        assert_eq!(tail(&samples(10_000)).0, 99.9);
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail(&samples(5)), (50.0, 3.0));
    }

    #[test]
    fn max_rate_judges_each_rung_on_a_non_monotone_ladder() {
        let rung = |rate, goodput, p99| Rung {
            rate_rps: rate,
            goodput_rps: goodput,
            p99_latency_s: p99,
        };
        let ladder = [
            rung(4.0, 4.0, 1.0),
            rung(8.0, 7.9, 2.0),
            // Collapse at 12: goodput binds 0.7 / 8.5 of the way there …
            rung(12.0, 3.0, 30.0),
            // … a recovery at 16 that meets both limits …
            rung(16.0, 15.0, 9.0),
            // … goodput met but p99 over the deadline, binding halfway …
            rung(20.0, 19.5, 11.0),
            // … and exactly at the share with p99 on the deadline, so
            // nothing is interpolated past it.
            rung(24.0, 0.9 * 24.0, 10.0),
            rung(28.0, 6.0, 40.0),
        ];
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(max_sustained_rate(&ladder, 10.0), 24.0));
        assert!(close(max_sustained_rate(&ladder[..5], 10.0), 18.0));
        assert!(close(
            max_sustained_rate(&ladder[..3], 10.0),
            8.0 + 4.0 * 0.7 / 8.5
        ));
        // Passing to the end of the ladder: the last rung.
        assert!(close(max_sustained_rate(&ladder[..2], 10.0), 8.0));
        assert_eq!(max_sustained_rate(&ladder[2..3], 10.0), 0.0);
        assert_eq!(max_sustained_rate(&[], 10.0), 0.0);
    }

    #[test]
    fn fleet_conservation() {
        let ok = FleetTally {
            arrivals: 100,
            completed: 90,
            completed_in_slo: 80,
            failed: 4,
            incomplete: 6,
            p50_latency_s: 1.0,
            p99_latency_s: 3.0,
        };
        assert!(fleet_violations(&ok).is_empty());
        let lost = FleetTally {
            incomplete: 5,
            ..ok
        };
        assert_eq!(fleet_violations(&lost).len(), 1);
        let slo = FleetTally {
            completed_in_slo: 91,
            ..ok
        };
        assert_eq!(fleet_violations(&slo).len(), 1);
        let order = FleetTally {
            p50_latency_s: 4.0,
            ..ok
        };
        assert_eq!(fleet_violations(&order).len(), 1);
    }
}
