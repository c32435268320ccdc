//! Derived metrics: small pure functions over raw counts and times.
//!
//! Each returns `None` ("absent") when an input is missing or the
//! quantity is undefined (a zero denominator), never a made-up zero.

/// Ratio `num / den`, absent when either is missing or `den` is not
/// positive.
pub fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d > 0.0 && n.is_finite() && d.is_finite() => Some(n / d),
        _ => None,
    }
}

/// Host nanoseconds the engine spent per dispatched event.
pub fn ns_per_event(engine_run_s: Option<f64>, events: Option<u64>) -> Option<f64> {
    ratio(engine_run_s.map(|s| s * 1e9), events.map(|e| e as f64))
}

/// Simulated events completed per host second.
pub fn events_per_s(events: Option<u64>, host_s: Option<f64>) -> Option<f64> {
    ratio(events.map(|e| e as f64), host_s)
}

/// Share of the runner's worker time spent inside jobs:
/// busy / (workers × wall).
pub fn busy_frac(busy_s: Option<f64>, workers: Option<usize>, wall_s: Option<f64>) -> Option<f64> {
    let capacity = match (workers, wall_s) {
        (Some(w), Some(s)) => Some(w as f64 * s),
        _ => None,
    };
    ratio(busy_s, capacity)
}

/// Bytes per simulated rank.
pub fn bytes_per_rank(bytes: Option<u64>, ranks: Option<usize>) -> Option<f64> {
    ratio(bytes.map(|b| b as f64), ranks.map(|r| r as f64))
}

/// Simulated joules per simulated second (mean cluster power, W).
pub fn j_per_sim_s(energy_j: Option<f64>, sim_s: Option<f64>) -> Option<f64> {
    ratio(energy_j, sim_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_values_from_complete_inputs() {
        assert_eq!(ns_per_event(Some(2.0), Some(4_000_000_000)), Some(0.5));
        assert_eq!(events_per_s(Some(300), Some(1.5)), Some(200.0));
        assert_eq!(busy_frac(Some(3.0), Some(2), Some(2.0)), Some(0.75));
        assert_eq!(bytes_per_rank(Some(1024), Some(8)), Some(128.0));
        assert_eq!(j_per_sim_s(Some(90.0), Some(3.0)), Some(30.0));
    }

    #[test]
    fn missing_inputs_are_absent_not_zero() {
        assert_eq!(ns_per_event(None, Some(10)), None);
        assert_eq!(ns_per_event(Some(1.0), None), None);
        assert_eq!(events_per_s(Some(10), None), None);
        assert_eq!(busy_frac(Some(1.0), None, Some(1.0)), None);
        assert_eq!(busy_frac(None, Some(2), Some(1.0)), None);
        assert_eq!(bytes_per_rank(None, Some(4)), None);
        assert_eq!(j_per_sim_s(Some(1.0), None), None);
    }

    #[test]
    fn zero_or_invalid_denominators_are_absent() {
        assert_eq!(ns_per_event(Some(1.0), Some(0)), None);
        assert_eq!(events_per_s(Some(5), Some(0.0)), None);
        assert_eq!(busy_frac(Some(1.0), Some(0), Some(1.0)), None);
        assert_eq!(bytes_per_rank(Some(5), Some(0)), None);
        assert_eq!(j_per_sim_s(Some(1.0), Some(f64::NAN)), None);
        assert_eq!(ratio(Some(f64::INFINITY), Some(1.0)), None);
    }
}
