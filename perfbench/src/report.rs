//! What one invocation prints: a human-readable line per metric, then
//! the machine-readable result object as the last line of stdout.

use pwrperf::store::checksum64;
use pwrperf::{encode_run_result, RunResult};

use crate::layers::{Layers, PER_LAYER};
use crate::stats::{geomean, median, reportable_tail};
use crate::{derive, probe};

/// The gated end-to-end metrics: name, unit, better. Must match
/// `end_to_end` in BENCHMARK.json.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_geomean_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// One end-to-end reading.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
    /// Samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: Option<f64>, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        }
    }
}

/// Count a failed output check: 1 when `ok` is false, after saying on
/// stderr what failed.
pub fn check(ok: bool, what: impl FnOnce() -> String) -> u64 {
    if ok {
        0
    } else {
        eprintln!("check failed: {}", what());
        1
    }
}

/// A hash of a result's complete store encoding: two results are
/// bitwise equal exactly when their encodings are (up to a 64-bit
/// collision).
pub fn result_hash(result: &RunResult) -> u64 {
    checksum64(&encode_run_result(result))
}

/// One closed-loop unit of untraced work: a pass over the cells, or a
/// cycle of requests.
pub struct Unit {
    /// Host seconds of the host-speed probe run just before the unit.
    pub probe_s: f64,
    /// Host seconds the unit's ops took.
    pub wall_s: f64,
    /// Each op's latency.
    pub latency_ms: Vec<f64>,
    /// Engine events the unit's ops executed.
    pub events: u64,
}

/// The set-up metrics: `setup_s`, the median over repeated set-ups of
/// their host seconds read at reference host speed, and `raw_setup_s`,
/// the plain median. A set-up is one op, too few probes to smooth, so
/// its host speed is that of the whole run: `NOMINAL_S` over the median
/// of every probe the run took (`probe_s`).
pub fn setup_metrics(setup_s: &[f64], probe_s: &[f64]) -> Vec<Metric> {
    let speed = derive::ratio(Some(probe::NOMINAL_S), median(probe_s));
    let raw = median(setup_s);
    vec![
        Metric::new(
            "setup_s",
            "s",
            raw.zip(speed).map(|(s, v)| s * v),
            setup_s.len(),
        ),
        Metric::new("raw_setup_s", "s", raw, setup_s.len()),
    ]
}

/// The loop metrics every workload reports.
///
/// Rates and the typical latency are computed per unit. The gated ones
/// are read at reference host speed: a unit's rate is divided by, and
/// its latency multiplied by, the host speed its probes measured
/// ([`probe::speeds`]), and the median over units is reported. The same
/// medians without that correction are printed as `raw_*`. `op_p50_ms`
/// and the tail come from all ops, uncorrected.
pub fn loop_metrics(units: &[Unit]) -> Vec<Metric> {
    let probes: Vec<f64> = units.iter().map(|u| u.probe_s).collect();
    let speeds = probe::speeds(&probes);
    let over_units = |f: &dyn Fn(&Unit, Option<f64>) -> Option<f64>| {
        let values: Vec<f64> = units
            .iter()
            .zip(&speeds)
            .filter_map(|(u, speed)| f(u, *speed))
            .collect();
        median(&values)
    };
    let rate = |u: &Unit| derive::ratio(Some(u.latency_ms.len() as f64), Some(u.wall_s));
    let all: Vec<f64> = units
        .iter()
        .flat_map(|u| u.latency_ms.iter().copied())
        .collect();
    let n = units.len();
    let mut out = vec![
        Metric::new(
            "ops_per_s",
            "1/s",
            over_units(&|u, speed| derive::ratio(rate(u), speed)),
            n,
        ),
        Metric::new(
            "op_geomean_ms",
            "ms",
            over_units(&|u, speed| geomean(&u.latency_ms).zip(speed).map(|(g, v)| g * v)),
            n,
        ),
        Metric::new("raw_ops_per_s", "1/s", over_units(&|u, _| rate(u)), n),
        Metric::new(
            "raw_op_geomean_ms",
            "ms",
            over_units(&|u, _| geomean(&u.latency_ms)),
            n,
        ),
        Metric::new("host_speed", "ratio", over_units(&|_, speed| speed), n),
        Metric::new("op_p50_ms", "ms", median(&all), all.len()),
    ];
    // Only where the timed ops execute the engine (not on service-read).
    if units.iter().any(|u| u.events > 0) {
        out.push(Metric::new(
            "sim_events_per_s",
            "1/s",
            over_units(&|u, speed| {
                derive::ratio(derive::events_per_s(Some(u.events), Some(u.wall_s)), speed)
            }),
            n,
        ));
    }
    if let Some((p, v)) = reportable_tail(&all) {
        out.push(Metric::new(
            &format!("op_p{p}_ms"),
            "ms",
            Some(v),
            all.len(),
        ));
    }
    out
}

/// Everything a workload measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric that is meaningful on this workload; the
    /// gated ones ([`END_TO_END`]) are always present.
    pub end_to_end: Vec<Metric>,
    /// The traced run's per-layer totals and the number of ops traced.
    pub layers: Option<(Layers, usize)>,
}

fn fmt_value(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "absent".to_string(),
    }
}

fn json_entry(name: &str, unit: &str, value: Option<f64>) -> String {
    // A JSON number must be finite; an absent per-layer value reads 0.
    let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

/// Print the report for `workload`. With `trace`, the result object
/// carries the per-layer metrics, otherwise the gated end-to-end ones.
pub fn print(workload: &str, trace: bool, outcome: &Outcome) {
    for m in &outcome.end_to_end {
        println!(
            "{workload} end_to_end {} = {} {} (n={})",
            m.name,
            fmt_value(m.value),
            m.unit,
            m.samples
        );
    }
    let mut entries = Vec::new();
    if let Some((layers, ops)) = &outcome.layers {
        for (name, unit, _) in PER_LAYER {
            let value = layers.per_op(name, *ops);
            println!(
                "{workload} per_layer {name} = {} {unit} (ops={ops})",
                fmt_value(value)
            );
            if trace {
                entries.push(json_entry(name, unit, value));
            }
        }
    }
    if !trace {
        for (name, unit, _) in END_TO_END {
            let value = outcome
                .end_to_end
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.value);
            entries.push(json_entry(name, unit, value));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        entries.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names, units and directions the binary reports are exactly
    /// the ones BENCHMARK.json declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = |name: &str, unit: &str, better: &str| {
            json.contains(&format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\""
            ))
        };
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                declared(name, unit, better),
                "{name} not declared as {unit}/{better}"
            );
        }
        let entries = json.matches("\"better\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn loop_metrics_read_rates_at_reference_speed() {
        // The host halves its speed after five units: walls and probes
        // double together, so the corrected rate stays 2 ops/s.
        let units: Vec<Unit> = (0..10)
            .map(|k| {
                let slow = if k < 5 { 1.0 } else { 2.0 };
                Unit {
                    probe_s: probe::NOMINAL_S * slow,
                    wall_s: slow,
                    latency_ms: vec![500.0 * slow; 2],
                    events: 100,
                }
            })
            .collect();
        let m = loop_metrics(&units);
        let get = |name: &str| m.iter().find(|x| x.name == name).and_then(|x| x.value);
        let near = |a: Option<f64>, b: f64| a.is_some_and(|a| (a - b).abs() < 1e-9);
        assert!(near(get("ops_per_s"), 2.0), "{:?}", get("ops_per_s"));
        assert!(near(get("op_geomean_ms"), 500.0));
        assert!(near(get("sim_events_per_s"), 100.0));
        assert!(near(get("raw_ops_per_s"), 1.5));
        assert!(near(get("host_speed"), 0.75));
        assert_eq!(get("op_p50_ms"), Some(750.0));
    }

    #[test]
    fn setup_is_read_at_reference_speed() {
        // Set-ups on a host at half speed, one probe hiccup among many.
        let mut probes = vec![2.0 * probe::NOMINAL_S; 9];
        probes.push(9.0 * probe::NOMINAL_S);
        let m = setup_metrics(&[2.0, 2.0, 2.4], &probes);
        assert_eq!(m[0].value, Some(1.0));
        assert_eq!(m[1].value, Some(2.0));
    }
}
