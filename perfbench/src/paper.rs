//! The paper's published energy/delay points and the simulator's error
//! against them.
//!
//! Copied from the "Summary of headline comparisons" table in
//! EXPERIMENTS.md ("Paper E" and "Paper D" columns). That table has 16
//! rows; the Table 3 FT.B row lists best operating points rather than
//! an E/D pair, so 15 rows carry reference points. Values are normalized
//! to static 1400 MHz of the same workload, as in the paper.

/// One published point.
pub struct RefPoint {
    /// The EXPERIMENTS.md row it came from.
    pub row: &'static str,
    /// Workload name, as `Workload::parse_name` takes it.
    pub workload: &'static str,
    /// Strategy name, as `DvsStrategy::parse_name` takes it.
    pub strategy: &'static str,
    /// Normalized energy.
    pub energy: f64,
    /// Normalized delay.
    pub delay: f64,
}

const fn point(
    row: &'static str,
    workload: &'static str,
    strategy: &'static str,
    energy: f64,
    delay: f64,
) -> RefPoint {
    RefPoint {
        row,
        workload,
        strategy,
        energy,
        delay,
    }
}

/// The strategy every point is normalized against.
pub const BASELINE: &str = "static-1400";

pub const POINTS: [RefPoint; 15] = [
    point(
        "Fig. 3 FT.B 8 nodes | stat 600",
        "ft-b8",
        "static-600",
        0.655,
        1.068,
    ),
    point("Fig. 3 FT.B | cpuspeed", "ft-b8", "cpuspeed", 0.966, 0.988),
    point(
        "Fig. 4 FT.C 8 procs | stat 800",
        "ft-c8",
        "static-800",
        0.714,
        1.042,
    ),
    point(
        "Fig. 4 FT.C | stat 600",
        "ft-c8",
        "static-600",
        0.663,
        1.099,
    ),
    point(
        "Fig. 4 FT.C | dyn base 1400",
        "ft-c8",
        "dynamic-1400",
        0.674,
        1.078,
    ),
    point(
        "Fig. 4 FT.C | dyn base 1000",
        "ft-c8",
        "dynamic-1000",
        0.654,
        1.087,
    ),
    point("Fig. 4 FT.C | cpuspeed", "ft-c8", "cpuspeed", 0.876, 1.039),
    point(
        "Fig. 5 transpose 15 procs | stat 800",
        "transpose",
        "static-800",
        0.838,
        1.008,
    ),
    point(
        "Fig. 5 transpose | stat 600",
        "transpose",
        "static-600",
        0.803,
        1.024,
    ),
    point(
        "Fig. 5 transpose | cpuspeed",
        "transpose",
        "cpuspeed",
        0.981,
        0.992,
    ),
    point(
        "Fig. 6 memory micro | stat 600",
        "mem-micro",
        "static-600",
        0.593,
        1.054,
    ),
    point(
        "Fig. 7 CPU (L2) micro | stat 800",
        "cpu-micro",
        "static-800",
        0.900,
        1.750,
    ),
    point(
        "Fig. 7 CPU (L2) micro | stat 600",
        "cpu-micro",
        "static-600",
        1.020,
        2.340,
    ),
    point(
        "Fig. 8a 256 KB round trip | stat 600",
        "comm-256k",
        "static-600",
        0.699,
        1.060,
    ),
    point(
        "Fig. 8b 4 KB, 64 B stride | stat 600",
        "comm-4k",
        "static-600",
        0.640,
        1.040,
    ),
];

/// Each reference point with the simulated normalized `(energy,
/// delay)` at it. `lookup(workload, strategy)` returns the absolute
/// `(energy_j, delay_s)` of a simulated cell; the result is absent when
/// any needed cell is missing.
pub fn simulated(
    lookup: impl Fn(&str, &str) -> Option<(f64, f64)>,
) -> Option<Vec<(&'static RefPoint, f64, f64)>> {
    POINTS
        .iter()
        .map(|p| {
            let (base_e, base_d) = lookup(p.workload, BASELINE)?;
            let (e, d) = lookup(p.workload, p.strategy)?;
            Some((p, e / base_e, d / base_d))
        })
        .collect()
}

/// Mean relative error, in percent, of the simulated normalized E and D
/// over every reference point (see [`simulated`]).
pub fn paper_err_pct(lookup: impl Fn(&str, &str) -> Option<(f64, f64)>) -> Option<f64> {
    let points = simulated(lookup)?;
    let sum: f64 = points
        .iter()
        .map(|(p, e, d)| (e / p.energy - 1.0).abs() + (d / p.delay - 1.0).abs())
        .sum();
    Some(100.0 * sum / (2 * points.len()) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_paper_values_give_zero_error() {
        let err = paper_err_pct(|w, s| {
            if s == BASELINE {
                return Some((2.0, 4.0));
            }
            POINTS
                .iter()
                .find(|p| p.workload == w && p.strategy == s)
                .map(|p| (2.0 * p.energy, 4.0 * p.delay))
        });
        assert!(err.expect("every cell present").abs() < 1e-12);
    }

    #[test]
    fn uniform_ten_percent_energy_overshoot_is_five_percent_mean() {
        let err = paper_err_pct(|w, s| {
            if s == BASELINE {
                return Some((1.0, 1.0));
            }
            POINTS
                .iter()
                .find(|p| p.workload == w && p.strategy == s)
                .map(|p| (1.1 * p.energy, p.delay))
        });
        assert!((err.expect("every cell present") - 5.0).abs() < 1e-9);
    }

    #[test]
    fn a_missing_cell_makes_the_error_absent() {
        assert_eq!(paper_err_pct(|_, _| None), None);
        assert_eq!(
            paper_err_pct(|_, s| (s == BASELINE).then_some((1.0, 1.0))),
            None
        );
    }
}
