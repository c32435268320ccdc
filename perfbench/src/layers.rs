//! Layer-by-layer execution of one cell, timed from outside, and the
//! per-layer accumulator every workload reports through.
//!
//! [`run_layered`] performs exactly what `Experiment::run` does, but as
//! separate public calls — lowering (`Workload::programs`), engine
//! construction (`Engine::with_controller`) and the event loop
//! (`Engine::run`) — with engine metrics switched on, so each step gets
//! its own host time and the engine's own counters come back in
//! `RunResult::metrics`.

use std::collections::BTreeMap;
use std::time::Instant;

use cluster_sim::{Cluster, NodeConfig};
use mpi_sim::Engine;
use net_model::NetworkParams;
use obs::MetricsRegistry;
use pwrperf::{DvsStrategy, Experiment, RunResult};

use crate::derive;

/// Engine counters copied from `RunResult::metrics`, summed over cells.
const ENGINE_COUNTERS: [&str; 21] = [
    "engine.queue.pushed",
    "engine.queue.cancelled",
    "engine.events.phase_done",
    "engine.events.network_wake",
    "engine.events.delivered",
    "engine.events.governor_tick",
    "engine.events.transition_done",
    "engine.events.sample",
    "net.solver.invocations",
    "net.solver.rounds",
    "net.solver.domains_touched",
    "net.solver.domains_skipped",
    "net.rate_recomputes",
    "net.flows_completed",
    "engine.msgs.posted",
    "engine.msgs.bytes_posted",
    "engine.dvfs.decisions",
    "engine.dvfs.transitions",
    "controller.decisions",
    "controller.samples",
    "controller.wait_events",
];

/// Every per-layer metric the traced run reports: name, unit, and
/// whether higher or lower is better. Must match `per_layer` in
/// BENCHMARK.json.
pub const PER_LAYER: [(&str, &str, &str); 50] = [
    ("workloads.lower_ms", "ms", "lower"),
    ("workloads.ops", "count", "lower"),
    ("workloads.bytes_sent", "B", "lower"),
    ("workloads.bytes_per_rank", "B", "lower"),
    ("store.fingerprint_ms", "ms", "lower"),
    ("store.canonical_bytes", "B", "lower"),
    ("store.encode_ms", "ms", "lower"),
    ("store.decode_ms", "ms", "lower"),
    ("store.record_bytes", "B", "lower"),
    ("store.load_ms", "ms", "lower"),
    ("store.persist_ms", "ms", "lower"),
    ("sweep.plan_ms", "ms", "lower"),
    ("engine.build_ms", "ms", "lower"),
    ("engine.run_ms", "ms", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.ns_per_event", "ns", "lower"),
    ("engine.queue.pushed", "count", "lower"),
    ("engine.queue.cancelled", "count", "lower"),
    ("engine.queue.depth_hwm", "count", "lower"),
    ("engine.events.phase_done", "count", "lower"),
    ("engine.events.network_wake", "count", "lower"),
    ("engine.events.delivered", "count", "lower"),
    ("engine.events.governor_tick", "count", "lower"),
    ("engine.events.transition_done", "count", "lower"),
    ("engine.events.sample", "count", "lower"),
    ("net.solver.invocations", "count", "lower"),
    ("net.solver.rounds", "count", "lower"),
    ("net.solver.domains_touched", "count", "lower"),
    ("net.solver.domains_skipped", "count", "higher"),
    ("net.rate_recomputes", "count", "lower"),
    ("net.flows_completed", "count", "lower"),
    ("engine.msgs.posted", "count", "lower"),
    ("engine.msgs.bytes_posted", "B", "lower"),
    ("engine.dvfs.decisions", "count", "lower"),
    ("engine.dvfs.transitions", "count", "lower"),
    ("controller.decisions", "count", "lower"),
    ("controller.samples", "count", "lower"),
    ("controller.wait_events", "count", "lower"),
    ("sim.j_per_sim_s", "W", "lower"),
    ("runner.busy_frac", "ratio", "higher"),
    ("service.request_bytes", "B", "lower"),
    ("service.response_bytes", "B", "lower"),
    ("service.hits", "count", "higher"),
    ("service.misses", "count", "lower"),
    ("service.engine_runs", "count", "lower"),
    ("service.awaited", "count", "lower"),
    ("service.aggregate_ms", "ms", "lower"),
    ("host.cpu_s", "s", "lower"),
    ("host.minflt", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
];

/// Sums (and high-water marks) of per-layer quantities over the traced
/// part of a run. Times are kept in milliseconds.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    maxes: BTreeMap<&'static str, f64>,
    finals: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    /// Record a value that is already per op (or a whole-run ratio).
    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.finals.insert(name, v);
        }
    }

    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.maxes.entry(name).or_insert(value);
        *slot = slot.max(value);
    }

    /// Run `f`, charging its host time (ms) to `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    pub fn sum(&self, name: &str) -> Option<f64> {
        self.sums.get(name).copied()
    }

    /// Fold one layered cell run into the totals.
    pub fn add_cell(&mut self, cell: &CellTrace) {
        self.add("workloads.lower_ms", cell.lower_s * 1e3);
        self.add("workloads.ops", cell.ops as f64);
        self.add("workloads.bytes_sent", cell.bytes_sent as f64);
        self.add("workloads.ranks", cell.ranks as f64);
        self.add("engine.build_ms", cell.build_s * 1e3);
        self.add("engine.run_ms", cell.run_s * 1e3);
        self.add("engine.events", cell.events as f64);
        self.add("sim.energy_j", cell.energy_j);
        self.add("sim.seconds", cell.sim_s);
        if let Some(m) = &cell.metrics {
            for name in ENGINE_COUNTERS {
                self.add(name, m.counter(name).unwrap_or(0) as f64);
            }
            if let Some(hwm) = m.gauge("engine.queue.depth_hwm") {
                self.max("engine.queue.depth_hwm", hwm);
            }
        }
    }

    /// The value of per-layer metric `name` per op (`ops` ops were
    /// traced). High-water marks are reported as the maximum; derived
    /// metrics come from the summed raw inputs; `None` means absent.
    pub fn per_op(&self, name: &str, ops: usize) -> Option<f64> {
        if let Some(&v) = self.finals.get(name) {
            return Some(v);
        }
        match name {
            "engine.ns_per_event" => derive::ns_per_event(
                self.sum("engine.run_ms").map(|ms| ms / 1e3),
                self.sum("engine.events").map(|e| e as u64),
            ),
            "workloads.bytes_per_rank" => derive::bytes_per_rank(
                self.sum("workloads.bytes_sent").map(|b| b as u64),
                self.sum("workloads.ranks").map(|r| r as usize),
            ),
            "sim.j_per_sim_s" => {
                derive::j_per_sim_s(self.sum("sim.energy_j"), self.sum("sim.seconds"))
            }
            _ => match self.maxes.get(name) {
                Some(&hwm) => Some(hwm),
                // A layer this workload never calls did no work: 0.
                None => derive::ratio(Some(self.sum(name).unwrap_or(0.0)), Some(ops as f64)),
            },
        }
    }
}

/// What one layer-by-layer run of a cell measured.
pub struct CellTrace {
    pub lower_s: f64,
    pub build_s: f64,
    pub run_s: f64,
    /// Lowered ops over all ranks.
    pub ops: u64,
    /// Payload bytes the lowered programs send.
    pub bytes_sent: u64,
    pub ranks: usize,
    /// Engine events, simulated energy and simulated seconds.
    pub events: u64,
    pub energy_j: f64,
    pub sim_s: f64,
    /// The engine's metrics registry, split off the result.
    pub metrics: Option<MetricsRegistry>,
}

/// The cluster `Experiment::run` builds for an experiment without node
/// or network overrides.
fn cluster_for(experiment: &Experiment) -> Cluster {
    let ranks = experiment.workload.ranks();
    match (&experiment.node_config, &experiment.network) {
        (None, None) if ranks <= 16 => Cluster::paper_testbed(ranks),
        (node, net) => Cluster::homogeneous(
            ranks,
            node.clone().unwrap_or_else(NodeConfig::inspiron_8600),
            net.clone()
                .unwrap_or_else(NetworkParams::catalyst_2950_100m),
        ),
    }
}

/// Execute `experiment` layer by layer (see module docs). The result
/// comes back with `metrics` cleared, so it compares bitwise with an
/// untraced `Experiment::run`.
pub fn run_layered(experiment: &Experiment) -> (CellTrace, RunResult) {
    let start = Instant::now();
    let programs = experiment
        .workload
        .programs(experiment.strategy.wants_instrumentation());
    let lower_s = start.elapsed().as_secs_f64();
    let ops = programs.iter().map(|p| p.len() as u64).sum();
    let bytes_sent = programs.iter().map(|p| p.bytes_sent()).sum();
    let ranks = programs.len();

    let start = Instant::now();
    let cluster = cluster_for(experiment);
    let controller = experiment.strategy.controller(cluster.nodes());
    let mut config = experiment.engine.clone();
    config.metrics = true;
    if matches!(experiment.strategy, DvsStrategy::PowerCap { .. })
        && config.sample_interval.is_none()
    {
        config.sample_interval = Some(pwrperf::power_cap_default_sample());
    }
    let engine = Engine::with_controller(cluster, programs, controller, config);
    let build_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut result = engine.run();
    let run_s = start.elapsed().as_secs_f64();
    let trace = CellTrace {
        lower_s,
        build_s,
        run_s,
        ops,
        bytes_sent,
        ranks,
        events: result.events,
        energy_j: result.total_energy_j(),
        sim_s: result.duration_secs(),
        metrics: result.metrics.take(),
    };
    (trace, result)
}
