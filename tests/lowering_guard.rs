//! The store key describes a workload, not its lowered programs (see
//! `crates/core/src/store/fingerprint.rs`). That is sound only while
//! lowering stays a pure function of `(Workload, instrumentation)` whose
//! output changes together with `STORE_FORMAT_VERSION`. This file pins a
//! digest of every registry workload's expanded programs (the op stream
//! the engine executes, collectives expanded) so a lowering change cannot
//! slip past the format version, and pins the key's size so it stays
//! O(1) in program size.
//!
//! Regenerate after a deliberate lowering change (and a format bump)
//! with `BLESS=1 cargo test --test lowering_guard`.

use dvfs::AppSpeedRequest;
use mem_model::WorkUnit;
use mpi_sim::{Op, Program};
use pwrperf::store::{canonical_experiment_bytes, STORE_FORMAT_VERSION};
use pwrperf::{CapPolicy, DvsStrategy, Experiment, Workload};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/lowering_digests.txt"
);

/// Streaming 64-bit FNV-1a: local to this test so the guard shares no
/// code with the key it guards.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Every field of every op. No wildcard: a new op variant or field does
/// not compile until it is digested here.
fn digest_op(h: &mut Fnv, op: &Op) {
    match op {
        Op::Compute(WorkUnit {
            cpu_cycles,
            l2_accesses,
            dram_accesses,
        }) => {
            h.u64(0);
            h.f64(*cpu_cycles);
            h.f64(*l2_accesses);
            h.f64(*dram_accesses);
        }
        Op::Send { dst, bytes, tag } => {
            h.u64(1);
            h.u64(*dst as u64);
            h.u64(*bytes);
            h.u64(u64::from(*tag));
        }
        Op::Recv { src, tag } => {
            h.u64(2);
            h.u64(*src as u64);
            h.u64(u64::from(*tag));
        }
        Op::SendRecv {
            dst,
            send_bytes,
            send_tag,
            src,
            recv_tag,
        } => {
            h.u64(3);
            h.u64(*dst as u64);
            h.u64(*send_bytes);
            h.u64(u64::from(*send_tag));
            h.u64(*src as u64);
            h.u64(u64::from(*recv_tag));
        }
        Op::Isend { dst, bytes, tag } => {
            h.u64(4);
            h.u64(*dst as u64);
            h.u64(*bytes);
            h.u64(u64::from(*tag));
        }
        Op::Irecv { src, tag } => {
            h.u64(5);
            h.u64(*src as u64);
            h.u64(u64::from(*tag));
        }
        Op::WaitAll => h.u64(6),
        Op::SetSpeed(request) => {
            h.u64(7);
            match request {
                AppSpeedRequest::Lowest => h.u64(0),
                AppSpeedRequest::Highest => h.u64(1),
                AppSpeedRequest::Index(i) => {
                    h.u64(2);
                    h.u64(*i as u64);
                }
                AppSpeedRequest::Restore => h.u64(3),
            }
        }
        Op::PhaseBegin(name) => {
            h.u64(8);
            h.str(name);
        }
        Op::PhaseEnd(name) => {
            h.u64(9);
            h.str(name);
        }
        Op::Collective { .. } => unreachable!("expanded programs hold no collective ops"),
    }
}

fn digest_programs(programs: &[Program]) -> u64 {
    let mut h = Fnv::new();
    h.u64(programs.len() as u64);
    for program in programs {
        h.u64(program.expanded().count() as u64);
        for op in program.expanded() {
            digest_op(&mut h, &op);
        }
    }
    h.0
}

/// The registry minus the two largest scale workloads, left out to keep
/// the suite fast; `ft-scale-256` runs the same lowering code.
fn guarded_names() -> impl Iterator<Item = &'static str> {
    Workload::names()
        .iter()
        .copied()
        .filter(|name| !matches!(*name, "ft-scale-1024" | "ft-scale-4096"))
}

fn digest_table() -> String {
    let mut table = format!("store-format-version {STORE_FORMAT_VERSION}\n");
    for name in guarded_names() {
        let workload = Workload::parse_name(name).expect("registry name parses");
        for instrumented in [false, true] {
            let digest = digest_programs(&workload.programs(instrumented));
            table.push_str(&format!(
                "{name} instrumented={instrumented} {digest:016x}\n"
            ));
        }
    }
    table
}

#[test]
fn lowered_programs_match_the_pinned_digests() {
    let table = digest_table();
    let golden = std::fs::read_to_string(GOLDEN).ok();
    if std::env::var("BLESS").is_ok() {
        // Re-blessing a changed lowering under the same format version
        // would let old records replay for new programs.
        let header = format!("store-format-version {STORE_FORMAT_VERSION}\n");
        if let Some(golden) = &golden {
            assert!(
                golden == &table || !golden.starts_with(&header),
                "lowering changed: bump STORE_FORMAT_VERSION and re-bless \
                 (the pinned digests already belong to format {STORE_FORMAT_VERSION})"
            );
        }
        std::fs::write(GOLDEN, &table).expect("write golden");
        return;
    }
    let golden = golden.expect("golden file (BLESS=1 to generate)");
    assert_eq!(
        table, golden,
        "lowering changed: bump STORE_FORMAT_VERSION and re-bless \
         (BLESS=1 cargo test --test lowering_guard)"
    );
}

/// The key is a few hundred bytes for every registry workload, however
/// many ops it lowers to.
#[test]
fn store_key_size_is_independent_of_program_size() {
    let strategies = [
        DvsStrategy::StaticMhz(1400),
        DvsStrategy::DynamicBaseMhz(1400),
        DvsStrategy::PowerCap {
            watts: 80,
            policy: CapPolicy::Redistribute,
        },
    ];
    for name in Workload::names() {
        let workload = Workload::parse_name(name).expect("registry name parses");
        for strategy in strategies {
            let len =
                canonical_experiment_bytes(&Experiment::new(workload.clone(), strategy)).len();
            assert!(len <= 512, "{name} / {strategy:?}: key is {len} bytes");
        }
    }
}

/// Each collective is one compact op, so a rank's program size does not
/// grow with the job: the FT scale family lowers to the same number of
/// ops per rank at every size, under one pinned ceiling of program bytes
/// per rank.
#[test]
fn program_bytes_per_rank_do_not_grow_with_ranks() {
    const CEILING_BYTES_PER_RANK: usize = 1024;
    for instrumented in [false, true] {
        let mut ops_per_rank = Vec::new();
        for name in ["ft-scale-256", "ft-scale-1024", "ft-scale-4096"] {
            let workload = Workload::parse_name(name).expect("registry name parses");
            let programs = workload.programs(instrumented);
            assert_eq!(programs.len(), workload.ranks());
            let max_ops = programs.iter().map(Program::len).max().unwrap_or(0);
            let bytes = std::mem::size_of::<Program>() + max_ops * std::mem::size_of::<Op>();
            assert!(
                bytes <= CEILING_BYTES_PER_RANK,
                "{name} instrumented={instrumented}: {bytes} B per rank"
            );
            ops_per_rank.push(max_ops);
        }
        assert!(
            ops_per_rank.windows(2).all(|w| w[0] == w[1]),
            "compact ops per rank vary with job size: {ops_per_rank:?}"
        );
    }
}

/// `bytes_sent` counts every outgoing payload of the expanded stream
/// (sends, isends and sendrecv sends), for every registry workload. At
/// 4096 ranks a stride of ranks is checked: expanding every rank's
/// alltoall is O(n²) ops and the ranks run the same code.
#[test]
fn bytes_sent_is_the_sum_over_the_expanded_stream() {
    for name in Workload::names() {
        let workload = Workload::parse_name(name).expect("registry name parses");
        let stride = if workload.ranks() > 1024 { 97 } else { 1 };
        for program in workload.programs(false).iter().step_by(stride) {
            let expected: u64 = program
                .expanded()
                .map(|op| match op {
                    Op::Send { bytes, .. } | Op::Isend { bytes, .. } => bytes,
                    Op::SendRecv { send_bytes, .. } => send_bytes,
                    _ => 0,
                })
                .sum();
            assert_eq!(program.bytes_sent(), expected, "{name}");
        }
    }
}
