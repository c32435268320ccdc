//! The service workloads: one in-process daemon on a Unix socket with
//! one executor worker, one client connection, and a closed loop of
//! store-only queries and warm sweep re-submissions (hits) —
//! `service-read` — plus, on `service-mix`, sweeps of unseen fault
//! seeds (misses).
//!
//! Requests come in cycles. Every cycle sends, for each of six
//! subgrid workloads from small to large programs, one query, one hit
//! and (on `service-mix`) one single-cell miss, in a seeded order; the
//! seed also picks the strategies of each subgrid and the fault seeds.
//! Every cycle thus has the same composition, and the loop runs whole
//! cycles only.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use pwrperf::store::{canonical_experiment_bytes, checksum64};
use pwrperf::{
    aggregate, decode_run_result, encode_run_result, fingerprint_experiment, run_batch_with,
    Client, DvsStrategy, Experiment, FaultSpec, ProtocolError, QueryReply, Request, Response,
    Server, ServerConfig, ServiceError, StatusReply, SweepDone, SweepSpec, SweepStore, Workload,
};

use crate::layers::{run_layered, Layers};
use crate::probe::Probe;
use crate::report::{check, loop_metrics, result_hash, setup_metrics, Metric, Outcome, Unit};
use crate::stats::{median, SplitMix64};
use crate::{derive, host, Args};

/// Subgrid workloads, from small programs to large: a warm hit
/// re-lowers and hashes every cell, so program size sets its cost.
const WORKLOADS: [&str; 6] = [
    "cpu-micro",
    "comm-256k",
    "ft-b8",
    "transpose",
    "mg-b8",
    "cg-b8",
];

/// Strategies of the base grid the set-up stores.
const BASE_STRATEGIES: [&str; 5] = [
    "static-1400",
    "static-1000",
    "static-600",
    "dynamic-1400",
    "cpuspeed",
];

/// Strategies per query or hit subgrid, picked from the base grid.
const SUBGRID_STRATEGIES: usize = 3;

/// `∂` weightings every query asks the aggregation for.
const DELTAS: [f64; 2] = [0.0, 0.2];

/// Set-up repetitions (each a fresh daemon and a cold store fill);
/// `setup_s` is their median, read at reference host speed.
const SETUP_REPS: usize = 7;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Query,
    Hit,
    Miss,
}

struct Req {
    kind: Kind,
    spec: SweepSpec,
}

/// A grid cell by name: (workload, strategy, fault spec).
type CellKey = (String, String, String);

fn spec(workload: &str, strategies: Vec<String>, fault_specs: Vec<String>) -> SweepSpec {
    SweepSpec {
        workloads: vec![workload.to_string()],
        strategies,
        deltas: DELTAS.to_vec(),
        fault_specs,
        ..SweepSpec::default()
    }
}

/// The cells of `spec` in the row-major order its results come back in.
fn cell_keys(spec: &SweepSpec) -> Vec<CellKey> {
    let faults = if spec.fault_specs.is_empty() {
        vec![String::new()]
    } else {
        spec.fault_specs.clone()
    };
    let mut keys = Vec::new();
    for w in &spec.workloads {
        for f in &faults {
            for s in &spec.strategies {
                keys.push((w.clone(), s.clone(), f.clone()));
            }
        }
    }
    keys
}

/// One seeded cycle of requests; misses only `with_misses`.
fn cycle(rng: &mut SplitMix64, next_fault_seed: &mut u64, with_misses: bool) -> Vec<Req> {
    let subgrid = |rng: &mut SplitMix64| {
        let mut s: Vec<String> = BASE_STRATEGIES.iter().map(|s| s.to_string()).collect();
        rng.shuffle(&mut s);
        s.truncate(SUBGRID_STRATEGIES);
        s
    };
    let mut out = Vec::new();
    for w in WORKLOADS {
        out.push(Req {
            kind: Kind::Query,
            spec: spec(w, subgrid(rng), Vec::new()),
        });
        out.push(Req {
            kind: Kind::Hit,
            spec: spec(w, subgrid(rng), Vec::new()),
        });
        if with_misses {
            let strategy = BASE_STRATEGIES[rng.below(BASE_STRATEGIES.len())].to_string();
            out.push(Req {
                kind: Kind::Miss,
                spec: spec(w, vec![strategy], vec![format!("seed:{next_fault_seed}")]),
            });
            *next_fault_seed += 1;
        }
    }
    rng.shuffle(&mut out);
    out
}

/// An in-process daemon and its one client connection.
struct Daemon {
    dir: PathBuf,
    client: Client,
    serving: JoinHandle<Result<(), ServiceError>>,
}

impl Daemon {
    fn start(dir: &Path) -> Daemon {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create the daemon's directory");
        let store = SweepStore::open(dir.join("store")).expect("open store");
        let socket = dir.join("d.sock");
        let config = ServerConfig {
            workers: Some(1),
            ..ServerConfig::default()
        };
        let server = Server::bind_unix(store, config, &socket).expect("bind daemon socket");
        let serving = std::thread::spawn(move || server.serve());
        let client = Client::connect_unix(&socket).expect("connect to daemon");
        Daemon {
            dir: dir.to_path_buf(),
            client,
            serving,
        }
    }

    /// Shut the daemon down, wait for it, and delete its directory.
    /// False when any step failed.
    fn stop(mut self) -> bool {
        let acked = self.client.shutdown().is_ok();
        let served = matches!(self.serving.join(), Ok(Ok(())));
        let removed = std::fs::remove_dir_all(&self.dir).is_ok();
        acked && served && removed
    }
}

enum Reply {
    Query(QueryReply),
    Sweep(SweepDone),
}

fn send(client: &mut Client, req: &Req) -> Result<Reply, ProtocolError> {
    match req.kind {
        Kind::Query => client.query(&req.spec).map(Reply::Query),
        Kind::Hit | Kind::Miss => client.submit_sweep(&req.spec).map(Reply::Sweep),
    }
}

/// One sent request, as the checks see it.
struct Sent {
    kind: Kind,
    latency_ms: f64,
    /// What the protocol-level checks found wrong, if anything.
    problem: Option<String>,
    /// Each returned cell and the hash of its result bytes.
    cells: Vec<(CellKey, u64)>,
    /// Engine events of the cells this request executed.
    events: u64,
}

/// Check a reply against what its request must produce. Result bytes
/// are compared with direct runs after the loop.
fn check_reply(
    req: &Req,
    reply: &Result<Reply, ProtocolError>,
    tables: &mut BTreeMap<String, u64>,
) -> (Option<String>, Vec<(CellKey, u64)>, u64) {
    let keys = cell_keys(&req.spec);
    match (req.kind, reply) {
        (Kind::Query, Ok(Reply::Query(q))) => {
            let key = format!("{:?}", req.spec);
            let hash = checksum64(q.table.as_bytes());
            let consistent = *tables.entry(key).or_insert(hash) == hash;
            let ok = q.missing == 0 && q.rows == keys.len() as u64 && consistent;
            let problem = (!ok).then(|| {
                format!(
                    "query {:?}: {} rows, {} missing, table consistent: {consistent}",
                    req.spec.workloads, q.rows, q.missing
                )
            });
            (problem, Vec::new(), 0)
        }
        (kind @ (Kind::Hit | Kind::Miss), Ok(Reply::Sweep(done))) => {
            let runs = if kind == Kind::Hit {
                0
            } else {
                keys.len() as u64
            };
            let ok = done.report.engine_runs == runs && done.results.len() == keys.len();
            let problem = (!ok).then(|| {
                format!(
                    "sweep {keys:?}: {} engine runs (want {runs}), {} results",
                    done.report.engine_runs,
                    done.results.len()
                )
            });
            let events = if kind == Kind::Miss {
                done.results.iter().map(|r| r.events).sum()
            } else {
                0
            };
            let cells = keys
                .into_iter()
                .zip(&done.results)
                .map(|(k, r)| (k, result_hash(r)))
                .collect();
            (problem, cells, events)
        }
        (_, Err(e)) => (Some(format!("{:?}: {e}", req.spec)), Vec::new(), 0),
        _ => (Some("reply of the wrong kind".to_string()), Vec::new(), 0),
    }
}

/// Replay `req` layer by layer from outside the daemon, against the
/// daemon's own store directory: plan, fingerprint, load, codec, and
/// for a miss the engine and a durable write (to `scratch`, so the
/// daemon's store is not disturbed). Returns false when a miss's
/// layered run differs from the result the daemon sent.
fn replay(
    req: &Req,
    reply: &Sent,
    store: &mut SweepStore,
    scratch: &mut SweepStore,
    layers: &mut Layers,
    canonical: &mut BTreeMap<CellKey, usize>,
) -> bool {
    let sweep = req.spec.resolve().expect("benchmark specs resolve");
    if req.kind != Kind::Query {
        layers.time("sweep.plan_ms", || sweep.plan(store));
    }
    let mut same = true;
    for (experiment, key) in sweep.experiments().iter().zip(cell_keys(&req.spec)) {
        let fp = layers.time("store.fingerprint_ms", || {
            fingerprint_experiment(experiment)
        });
        let len = *canonical
            .entry(key.clone())
            .or_insert_with(|| canonical_experiment_bytes(experiment).len());
        layers.add("store.canonical_bytes", len as f64);
        let loaded = layers.time("store.load_ms", || store.load(fp));
        let result = if req.kind == Kind::Miss {
            let (cell, result) = run_layered(experiment);
            layers.add_cell(&cell);
            let persisted = layers.time("store.persist_ms", || scratch.store(fp, &result));
            let hash = result_hash(&result);
            same &= persisted.is_ok() && reply.cells.iter().any(|(k, h)| *k == key && *h == hash);
            Some(result)
        } else {
            loaded.ok().flatten()
        };
        if let Some(result) = result {
            let bytes = layers.time("store.encode_ms", || encode_run_result(&result));
            layers.add("store.record_bytes", bytes.len() as f64);
            same &= layers
                .time("store.decode_ms", || decode_run_result(&bytes))
                .is_ok();
        }
    }
    if req.kind == Kind::Query {
        same &= layers
            .time("service.aggregate_ms", || aggregate(store, &req.spec))
            .is_ok();
    }
    same
}

/// Direct `Experiment::run` of one cell.
fn direct(key: &CellKey) -> Experiment {
    let workload = Workload::parse_name(&key.0).expect("benchmark workload names parse");
    let strategy = DvsStrategy::parse_name(&key.1).expect("benchmark strategy names parse");
    let faults = FaultSpec::parse(&key.2).expect("benchmark fault specs parse");
    Experiment::new(workload, strategy).with_faults(faults)
}

/// `service-mix` (`with_misses`) or `service-read`.
pub fn service(args: &Args, with_misses: bool) -> Outcome {
    let root = Path::new(".perfbench").join(std::process::id().to_string());
    let base = SweepSpec {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        strategies: BASE_STRATEGIES.iter().map(|s| s.to_string()).collect(),
        deltas: DELTAS.to_vec(),
        ..SweepSpec::default()
    };
    let base_cells = cell_keys(&base).len() as u64;
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up: a fresh daemon and a cold fill of the base grid, repeated;
    // the last one serves the timed loop.
    let probe = Probe::new();
    let (mut setup_s, mut setup_probe_s) = (Vec::new(), Vec::new());
    let mut daemon: Option<Daemon> = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = daemon.take() {
            failed += check(previous.stop(), || "set-up daemon shutdown".to_string());
        }
        setup_probe_s.push(probe.time(1));
        let start = Instant::now();
        let mut d = Daemon::start(&root.join(format!("rep{rep}")));
        let fill = d.client.submit_sweep(&base);
        setup_s.push(start.elapsed().as_secs_f64());
        let runs = fill.map(|f| f.report.engine_runs);
        failed += check(matches!(runs, Ok(n) if n == base_cells), || {
            format!("cold fill ran {runs:?} cells, want {base_cells}")
        });
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up");

    let mut rng = SplitMix64::new(args.seed);
    let mut next_fault_seed = 1 + rng.next_u64() % 1_000_000 * 1_000;
    let mut tables = BTreeMap::new();
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };

    let mut run_cycles = |daemon: &mut Daemon,
                          traced: Option<(&mut SweepStore, &mut SweepStore, &mut Layers)>|
     -> (f64, u64, Vec<Sent>, Vec<f64>) {
        let mut traced = traced;
        let mut sent = Vec::new();
        let mut probes = Vec::new();
        let mut canonical = BTreeMap::new();
        let start = Instant::now();
        let (mut cycles, mut failed_replays) = (0usize, 0u64);
        while cycles == 0 || start.elapsed().as_secs_f64() < budget {
            if traced.is_none() {
                probes.push(probe.time(1));
            }
            for req in cycle(&mut rng, &mut next_fault_seed, with_misses) {
                let t = Instant::now();
                let reply = send(&mut daemon.client, &req);
                let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                let (problem, cells, events) = check_reply(&req, &reply, &mut tables);
                let op = Sent {
                    kind: req.kind,
                    latency_ms,
                    problem,
                    cells,
                    events,
                };
                if let Some((store, scratch, layers)) = traced.as_mut() {
                    let request = match req.kind {
                        Kind::Query => Request::Query(req.spec.clone()),
                        _ => Request::SubmitSweep(req.spec.clone()),
                    };
                    layers.add(
                        "service.request_bytes",
                        request.encode_payload().len() as f64,
                    );
                    let response = match reply {
                        Ok(Reply::Query(q)) => Response::QueryDone(q),
                        Ok(Reply::Sweep(s)) => Response::SweepDone(s),
                        Err(e) => Response::Error(e.to_string()),
                    };
                    layers.add(
                        "service.response_bytes",
                        response.encode_payload().len() as f64,
                    );
                    failed_replays += check(
                        replay(&req, &op, store, scratch, layers, &mut canonical),
                        || format!("layered replay of {:?} differs from the reply", req.spec),
                    );
                }
                sent.push(op);
            }
            cycles += 1;
        }
        (
            (start.elapsed().as_secs_f64() - probes.iter().sum::<f64>()) / cycles as f64,
            failed_replays,
            sent,
            probes,
        )
    };

    // Untraced cycles: the user path the end-to-end metrics describe.
    let before = host::usage();
    let (untraced_cycle_s, _, mut sent, probes) = run_cycles(&mut daemon, None);
    let after = host::usage();
    let untraced_ops = sent.len();

    // Traced cycles (--trace 1): the same requests, each followed by its
    // layer-by-layer replay.
    let mut layers = Layers::default();
    if args.trace {
        let status_before = daemon.client.status();
        let store_dir = daemon.dir.join("store");
        let mut store = SweepStore::open(&store_dir).expect("open the daemon's store");
        let mut scratch = SweepStore::open(daemon.dir.join("scratch")).expect("open scratch store");
        let (traced_cycle_s, failed_replays, traced, _) =
            run_cycles(&mut daemon, Some((&mut store, &mut scratch, &mut layers)));
        failed += failed_replays;
        sent.extend(traced);
        let status_after = daemon.client.status();
        if let (Ok(b), Ok(a)) = (&status_before, &status_after) {
            for name in [
                "service.hits",
                "service.misses",
                "service.engine_runs",
                "service.awaited",
            ] {
                let count = |s: &StatusReply| s.counter(name).unwrap_or(0) as f64;
                layers.add(name, count(a) - count(b));
            }
        }
        layers.set(
            "trace.overhead",
            derive::ratio(Some(traced_cycle_s), Some(untraced_cycle_s)),
        );
    }

    // Every warm hit ran nothing and every miss cell ran once.
    let misses = sent.iter().filter(|op| op.kind == Kind::Miss).count() as u64;
    let status = daemon.client.status();
    let engine_runs = status.map(|s| s.counter("service.engine_runs"));
    let want = base_cells + misses;
    failed += check(matches!(engine_runs, Ok(Some(n)) if n == want), || {
        format!("daemon ran {engine_runs:?} engine runs, want {want}")
    });
    failed += check(daemon.stop(), || "daemon shutdown".to_string());
    let _ = std::fs::remove_dir(&root);
    let _ = std::fs::remove_dir(".perfbench");

    // Every returned result must equal a direct run of its cell.
    let cells: BTreeSet<&CellKey> = sent
        .iter()
        .flat_map(|op| op.cells.iter().map(|(k, _)| k))
        .collect();
    let cells: Vec<&CellKey> = cells.into_iter().collect();
    let reference: BTreeMap<&CellKey, u64> = cells
        .iter()
        .copied()
        .zip(
            run_batch_with(cells.iter().map(|k| direct(k)).collect(), Some(2))
                .iter()
                .map(result_hash),
        )
        .collect();
    for op in &sent {
        attempted += 1;
        let differs: Vec<&CellKey> = op
            .cells
            .iter()
            .filter(|(k, h)| reference.get(k) != Some(h))
            .map(|(k, _)| k)
            .collect();
        failed += check(op.problem.is_none() && differs.is_empty(), || {
            format!(
                "{}; cells differing from a direct run: {differs:?}",
                op.problem.as_deref().unwrap_or("reply ok")
            )
        });
    }

    let untraced = &sent[..untraced_ops];
    let kinds = if with_misses { 3 } else { 2 };
    let units: Vec<Unit> = untraced
        .chunks(kinds * WORKLOADS.len())
        .zip(probes)
        .map(|(cycle, probe_s)| Unit {
            probe_s,
            wall_s: cycle.iter().map(|op| op.latency_ms).sum::<f64>() / 1e3,
            latency_ms: cycle.iter().map(|op| op.latency_ms).collect(),
            events: cycle.iter().map(|op| op.events).sum(),
        })
        .collect();
    let kind_p50 = |kind: Kind| -> (Option<f64>, usize) {
        let l: Vec<f64> = untraced
            .iter()
            .filter(|op| op.kind == kind)
            .map(|op| op.latency_ms)
            .collect();
        (median(&l), l.len())
    };

    let ops = untraced_ops as f64;
    layers.set("host.cpu_s", Some((after.cpu_s - before.cpu_s) / ops));
    layers.set(
        "host.minflt",
        Some(after.minflt.saturating_sub(before.minflt) as f64 / ops),
    );

    setup_probe_s.extend(units.iter().map(|u| u.probe_s));
    let mut end_to_end = setup_metrics(&setup_s, &setup_probe_s);
    end_to_end.extend(loop_metrics(&units));
    end_to_end.push(Metric::new("peak_rss_mb", "MB", Some(after.peak_rss_mb), 1));
    for (name, kind) in [
        ("query_p50_ms", Kind::Query),
        ("hit_sweep_p50_ms", Kind::Hit),
        ("miss_sweep_p50_ms", Kind::Miss),
    ] {
        let (v, n) = kind_p50(kind);
        if n == 0 {
            continue;
        }
        end_to_end.push(Metric::new(name, "ms", v, n));
    }
    end_to_end.push(Metric::new(
        "failed_frac",
        "ratio",
        derive::ratio(Some(failed as f64), Some(attempted as f64)),
        attempted as usize,
    ));
    let traced_ops = sent.len() - untraced_ops;
    Outcome {
        attempted,
        failed,
        end_to_end,
        layers: args.trace.then_some((layers, traced_ops)),
    }
}
