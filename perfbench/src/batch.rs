//! The `paper-grid` and `scale-1024` workloads: passes of whole-cell
//! `Experiment::run`s on the batch runner's public parallel map.
//!
//! An op is one cell's run. A pass runs every cell once, in an order
//! the seed picks afresh for each pass, so which cells share the two
//! workers averages out over a run. The loop runs whole passes only, so
//! every run weighs every cell equally whatever the time budget. Closed
//! loop: the next pass starts when the previous one returns.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use pwrperf::{
    parallel_map_telemetry_with, DvsStrategy, EngineConfig, Experiment, Topology, Workload,
};

use crate::layers::{run_layered, CellTrace, Layers};
use crate::probe::Probe;
use crate::report::{check, loop_metrics, result_hash, setup_metrics, Metric, Outcome, Unit};
use crate::stats::SplitMix64;
use crate::{derive, host, paper, Args};

/// The eleven workloads of the paper's figures.
const PAPER_WORKLOADS: [&str; 11] = [
    "ft-b8",
    "ft-c8",
    "cg-b8",
    "mg-b8",
    "transpose",
    "swim",
    "mgrid",
    "mem-micro",
    "cpu-micro",
    "comm-256k",
    "comm-4k",
];

/// The ladder every static and dynamic strategy steps through.
const LADDER_MHZ: [u32; 5] = [1400, 1200, 1000, 800, 600];

/// Cluster power budget per node for the capped cell: below the
/// uncapped draw (about 25 W per busy node), above the 600 MHz floor.
const CAP_W_PER_NODE: usize = 20;

/// Set-up repetitions; `setup_s` is their median, read at reference
/// host speed.
const SETUP_REPS: usize = 11;

/// One grid cell by name: (workload, strategy).
type Label = (String, String);

/// `paper-grid`: 11 workloads × {static ×5, dynamic ×5, cpuspeed,
/// cap-<W>-redist} on 2 workers.
pub fn paper_grid(args: &Args) -> Outcome {
    let labels = || {
        let mut cells: Vec<Label> = Vec::new();
        for w in PAPER_WORKLOADS {
            let ranks = Workload::parse_name(w)
                .expect("paper workload names parse")
                .ranks();
            let mut strategies: Vec<String> = Vec::new();
            strategies.extend(LADDER_MHZ.iter().map(|mhz| format!("static-{mhz}")));
            strategies.extend(LADDER_MHZ.iter().map(|mhz| format!("dynamic-{mhz}")));
            strategies.push("cpuspeed".to_string());
            strategies.push(format!("cap-{}-redist", CAP_W_PER_NODE * ranks));
            cells.extend(strategies.into_iter().map(|s| (w.to_string(), s)));
        }
        cells
    };
    run(args, labels, EngineConfig::default(), 2, true)
}

/// `scale-1024`: one class-C FT iteration on 1024 ranks of a radix-16,
/// 2:1 oversubscribed fat-tree at static 1400 MHz, one thread. There is
/// one cell, so the seed has nothing to order.
pub fn scale_1024(args: &Args) -> Outcome {
    let engine = EngineConfig {
        topology: Topology::parse("fat-tree:radix=16,oversub=2").expect("valid topology spec"),
        shards: 1,
        ..EngineConfig::default()
    };
    let labels = || vec![("ft-scale-1024".to_string(), "static-1400".to_string())];
    run(args, labels, engine, 1, false)
}

fn experiment(label: &Label, engine: &EngineConfig) -> Experiment {
    let workload = Workload::parse_name(&label.0).expect("benchmark workload names parse");
    let strategy = DvsStrategy::parse_name(&label.1).expect("benchmark strategy names parse");
    Experiment::new(workload, strategy).with_engine(engine.clone())
}

fn run(
    args: &Args,
    labels_of: impl Fn() -> Vec<Label>,
    engine: EngineConfig,
    workers: usize,
    with_paper_err: bool,
) -> Outcome {
    // Set-up: generate the inputs and warm the lowering path.
    let probe = Probe::new();
    let (mut setup_s, mut setup_probe_s) = (Vec::new(), Vec::new());
    let mut labels = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPS {
        setup_probe_s.push(probe.time(1));
        let start = Instant::now();
        labels = labels_of();
        cells = labels.iter().map(|l| experiment(l, &engine)).collect();
        for e in &cells {
            black_box(e.workload.programs(e.strategy.wants_instrumentation()));
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }

    let run_pass = |order: &[usize], workers: usize| {
        parallel_map_telemetry_with(
            order,
            |&i| {
                let op = Instant::now();
                let result = cells[i].run();
                let op_s = op.elapsed().as_secs_f64();
                // Keep only what the checks need, so the pass does not
                // hold every result: peak memory is the runs' own.
                let summary = (
                    result.events,
                    result.total_energy_j(),
                    result.duration_secs(),
                );
                (i, result_hash(&result), summary, op_s)
            },
            Some(workers),
        )
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut order: Vec<usize> = (0..cells.len()).collect();

    // Warm-up: one pass on one worker in grid order, as `all_figures`
    // runs the grid single-threaded. Each cell's first result is the
    // reference every later op must reproduce, and `peak_rss_mb` is read
    // after this pass. The peak over the two-worker passes depends on
    // which heavy cells happen to overlap, and moved by up to 30 %
    // between runs; it is printed as `loop_peak_rss_mb`.
    let mut first: Vec<u64> = vec![0; cells.len()];
    let mut energy_delay: BTreeMap<Label, (f64, f64)> = BTreeMap::new();
    for (i, hash, (_, energy_j, delay_s), _) in run_pass(&order, 1).0 {
        attempted += 1;
        energy_delay.insert(labels[i].clone(), (energy_j, delay_s));
        first[i] = hash;
    }
    let before = host::usage();

    // Untraced passes: the user path the end-to-end metrics describe.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut units: Vec<Unit> = Vec::new();
    let mut rng = SplitMix64::new(args.seed);
    let start = Instant::now();
    while units.is_empty() || start.elapsed().as_secs_f64() < budget {
        let probe_s = probe.time(workers);
        rng.shuffle(&mut order);
        let (out, telemetry) = run_pass(&order, workers);
        let mut unit = Unit {
            probe_s,
            wall_s: telemetry.wall.as_secs_f64(),
            latency_ms: Vec::with_capacity(cells.len()),
            events: 0,
        };
        for (i, hash, (events, _, _), op_s) in out {
            attempted += 1;
            unit.latency_ms.push(op_s * 1e3);
            unit.events += events;
            failed += check(hash == first[i], || {
                format!(
                    "{:?}: pass {} differs from the first",
                    labels[i],
                    units.len() + 1
                )
            });
        }
        units.push(unit);
    }
    let after = host::usage();
    let untraced_ops = units.iter().map(|u| u.latency_ms.len()).sum::<usize>() as f64;

    // Layer-by-layer passes: the per-layer numbers with --trace 1, and
    // in every mode the reference each cell's first op must equal.
    let mut layers = Layers::default();
    let (mut traced_wall_s, mut traced_busy_s, mut traced_passes) = (0.0, 0.0, 0usize);
    let traced_start = Instant::now();
    loop {
        rng.shuffle(&mut order);
        let (traces, telemetry): (Vec<(usize, CellTrace, u64)>, _) = parallel_map_telemetry_with(
            &order,
            |&i| {
                let (trace, result) = run_layered(&cells[i]);
                (i, trace, result_hash(&result))
            },
            Some(workers),
        );
        traced_wall_s += telemetry.wall.as_secs_f64();
        traced_busy_s += telemetry
            .per_worker_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .sum::<f64>();
        for (i, cell, hash) in &traces {
            if args.trace {
                attempted += 1;
                layers.add_cell(cell);
            }
            failed += check(*hash == first[*i], || {
                format!("{:?}: layered run differs from the first op", labels[*i])
            });
        }
        traced_passes += 1;
        if !args.trace || traced_start.elapsed().as_secs_f64() >= budget {
            break;
        }
    }

    let untraced_wall_s: f64 = units.iter().map(|u| u.wall_s).sum();
    layers.set(
        "runner.busy_frac",
        derive::busy_frac(
            Some(traced_busy_s),
            Some(workers.min(cells.len())),
            Some(traced_wall_s),
        ),
    );
    layers.set(
        "host.cpu_s",
        Some((after.cpu_s - before.cpu_s) / untraced_ops),
    );
    layers.set(
        "host.minflt",
        Some(after.minflt.saturating_sub(before.minflt) as f64 / untraced_ops),
    );
    layers.set(
        "trace.overhead",
        derive::ratio(
            Some(traced_wall_s / traced_passes as f64),
            Some(untraced_wall_s / units.len() as f64),
        ),
    );

    setup_probe_s.extend(units.iter().map(|u| u.probe_s));
    let mut end_to_end = setup_metrics(&setup_s, &setup_probe_s);
    end_to_end.extend(loop_metrics(&units));
    end_to_end.push(Metric::new(
        "peak_rss_mb",
        "MB",
        Some(before.peak_rss_mb),
        1,
    ));
    end_to_end.push(Metric::new(
        "loop_peak_rss_mb",
        "MB",
        Some(after.peak_rss_mb),
        1,
    ));
    end_to_end.push(Metric::new(
        "failed_frac",
        "ratio",
        derive::ratio(Some(failed as f64), Some(attempted as f64)),
        attempted as usize,
    ));
    if with_paper_err {
        let lookup = |w: &str, s: &str| energy_delay.get(&(w.to_string(), s.to_string())).copied();
        for (p, e, d) in paper::simulated(lookup).unwrap_or_default() {
            println!(
                "paper-grid paper_point {} ({} {}): E {e:.3} vs paper {:.3}, D {d:.3} vs paper {:.3}",
                p.row, p.workload, p.strategy, p.energy, p.delay
            );
        }
        end_to_end.push(Metric::new(
            "paper_err_pct",
            "%",
            paper::paper_err_pct(lookup),
            2 * paper::POINTS.len(),
        ));
    }
    Outcome {
        attempted,
        failed,
        end_to_end,
        layers: args.trace.then_some((layers, traced_passes * cells.len())),
    }
}
