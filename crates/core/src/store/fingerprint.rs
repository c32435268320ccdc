//! Content-addressed experiment fingerprints.
//!
//! A fingerprint is a 128-bit digest of an experiment's *semantic
//! content*: the [`Workload`] description and whether the strategy asks
//! for dynamic-DVS instrumentation, the DVS strategy, the full
//! [`EngineConfig`] (wait policy, sampling, tracing, metrics, fault
//! spec), any cluster overrides, and a format-version tag. Identical
//! configurations collide by construction; changing any single field
//! changes the canonical byte stream and therefore the key.
//!
//! The key describes the workload, not its lowered programs: lowering is
//! a pure function of `(Workload, instrumentation)`, so the description
//! determines the programs, and the key stays a few hundred bytes however
//! large the programs grow. The price is a contract: a change to what a
//! workload lowers to must bump [`STORE_FORMAT_VERSION`], or old records
//! would replay for new programs. `tests/lowering_guard.rs` pins a digest
//! of every registry workload's programs to catch exactly that.
//!
//! The digest is SipHash-2-4 under two fixed keys, one per 64-bit half.
//! SipHash has no per-process state, so fingerprints are stable across
//! processes and machines — the property the on-disk cache stands on
//! (and that the golden-key test in `tests/sweepstore.rs` pins) — and,
//! unlike a multiply-rotate hash, it does not collide on structured
//! inputs such as consecutive fault seeds.

use std::hash::Hasher as _;

use cluster_sim::NodeConfig;
use dvfs::CapPolicy;
use mpi_sim::{EngineConfig, Topology, WaitPolicy};
use power_model::DvfsLadder;
use powerpack::{CommMicroConfig, MicroConfig};
use sim_core::hash::FxHasher;
use sim_core::Fault;
use workloads::{CgClass, FtClass, MgClass};

use super::codec::ByteWriter;
use crate::experiment::Experiment;
use crate::strategy::DvsStrategy;
use crate::workload::Workload;

/// Version tag mixed into every fingerprint and written into every
/// record header. Bump it whenever the canonical encoding, the record
/// payload layout, or what any workload lowers to changes; old cache
/// entries then miss (and are rejected) instead of decoding garbage or
/// replaying results of different programs.
///
/// v3: `RunResult` payloads gained the causal log and attribution
/// summary, and `EngineConfig::causal` joined the engine encoding.
///
/// v4: strategy frequencies are ladder-resolved before encoding (so
/// requests clamping to the same operating point share one record), and
/// the `PowerCap` controller strategy joined the strategy encoding.
///
/// v5: the key encodes the workload description instead of its lowered
/// programs, and the digest is SipHash-2-4 instead of FxHash.
pub const STORE_FORMAT_VERSION: u32 = 5;

const FINGERPRINT_MAGIC: &[u8; 4] = b"PWRF";
const SIP_KEY_LO: (u64, u64) = (0x5EED_CAFE_0000_0001, 0x5057_5246_4C4F_5F31);
const SIP_KEY_HI: (u64, u64) = (0x5EED_CAFE_0000_0002, 0x5057_5246_4849_5F32);
const SALT_CHECKSUM: u64 = 0x5EED_CAFE_0000_0003;

/// Deterministic 64-bit record checksum. It guards records against
/// torn writes and bit rot, not against adversaries, so the fast FxHash
/// is enough.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(SALT_CHECKSUM);
    h.write(bytes);
    h.finish()
}

/// SipHash internal state: four 64-bit words.
struct SipState {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
}

impl SipState {
    /// One SipRound (the SipHash paper's ARX mixing step).
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13) ^ self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16) ^ self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21) ^ self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17) ^ self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    /// Absorb one message word with two rounds (the "2" in 2-4).
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        self.round();
        self.round();
        self.v0 ^= m;
    }
}

/// SipHash-2-4 of `bytes` under the 128-bit key `(k0, k1)` (Aumasson &
/// Bernstein, "SipHash: a fast short-input PRF", 2012).
fn siphash24((k0, k1): (u64, u64), bytes: &[u8]) -> u64 {
    let mut s = SipState {
        v0: k0 ^ 0x736f_6d65_7073_6575,
        v1: k1 ^ 0x646f_7261_6e64_6f6d,
        v2: k0 ^ 0x6c79_6765_6e65_7261,
        v3: k1 ^ 0x7465_6462_7974_6573,
    };
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        s.compress(u64::from_le_bytes(word));
    }
    // Last block: the remaining bytes, zero-padded, length mod 256 on top.
    let rest = chunks.remainder();
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    s.compress(u64::from_le_bytes(tail) | ((bytes.len() as u64) << 56));
    s.v2 ^= 0xff;
    for _ in 0..4 {
        s.round();
    }
    s.v0 ^ s.v1 ^ s.v2 ^ s.v3
}

/// A 128-bit content digest; the hex form names the record on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    lo: u64,
    hi: u64,
}

impl Fingerprint {
    /// Digest a canonical byte stream.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        Fingerprint {
            lo: siphash24(SIP_KEY_LO, bytes),
            hi: siphash24(SIP_KEY_HI, bytes),
        }
    }

    /// 32 lowercase hex characters (the on-disk record stem).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.lo, self.hi)
    }

    /// The digest as 16 little-endian bytes (lo word first).
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        let (lo_half, hi_half) = out.split_at_mut(8);
        lo_half.copy_from_slice(&self.lo.to_le_bytes());
        hi_half.copy_from_slice(&self.hi.to_le_bytes());
        out
    }

    /// Parse the 32-hex-digit form produced by [`Fingerprint::to_hex`]
    /// (a record's file stem). `None` for anything else — compaction
    /// uses this to tell record files from strays.
    pub fn from_hex(hex: &str) -> Option<Self> {
        if hex.len() != 32 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        let lo = u64::from_str_radix(hex.get(..16)?, 16).ok()?;
        let hi = u64::from_str_radix(hex.get(16..)?, 16).ok()?;
        Some(Fingerprint { lo, hi })
    }

    /// Rebuild from [`Fingerprint::to_bytes`] output.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        let mut lo = [0u8; 8];
        let mut hi = [0u8; 8];
        let (lo_half, hi_half) = bytes.split_at(8);
        lo.copy_from_slice(lo_half);
        hi.copy_from_slice(hi_half);
        Fingerprint {
            lo: u64::from_le_bytes(lo),
            hi: u64::from_le_bytes(hi),
        }
    }
}

/// Fingerprint one experiment (the cache key for [`Experiment::run`]).
pub fn fingerprint_experiment(experiment: &Experiment) -> Fingerprint {
    Fingerprint::of_bytes(&canonical_experiment_bytes(experiment))
}

/// The canonical byte encoding [`fingerprint_experiment`] hashes.
/// Exposed so tests can assert the encoding itself is deterministic,
/// injective over single-field edits, and O(1) in program size.
pub fn canonical_experiment_bytes(experiment: &Experiment) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(FINGERPRINT_MAGIC);
    w.put_u32(STORE_FORMAT_VERSION);
    encode_strategy(&mut w, experiment.strategy, experiment.node_config.as_ref());
    encode_workload(&mut w, &experiment.workload);
    // The one lowering input besides the workload itself.
    w.put_bool(experiment.strategy.wants_instrumentation());
    encode_engine(&mut w, &experiment.engine);
    // Cluster overrides enter via their `Debug` form: Rust formats f64
    // with shortest-round-trip precision, so distinct parameter values
    // produce distinct strings, and the default (None) is encoded
    // distinctly from an explicit override that happens to match it.
    encode_debug_override(&mut w, experiment.node_config.as_ref());
    encode_debug_override(&mut w, experiment.network.as_ref());
    w.into_bytes()
}

fn encode_debug_override<T: std::fmt::Debug>(w: &mut ByteWriter, value: Option<&T>) {
    match value {
        None => w.put_u8(0),
        Some(v) => {
            w.put_u8(1);
            w.put_str(&format!("{v:?}"));
        }
    }
}

fn encode_strategy(w: &mut ByteWriter, strategy: DvsStrategy, node_config: Option<&NodeConfig>) {
    // Requested frequencies are snapped to the ladder the run will
    // actually use before encoding: `StaticMhz(5000)` and
    // `StaticMhz(1400)` execute identically on the Pentium-M ladder, so
    // they must share one cache record.
    let default_ladder;
    let ladder = match node_config {
        Some(config) => &config.ladder,
        None => {
            default_ladder = DvfsLadder::pentium_m_1400();
            &default_ladder
        }
    };
    match strategy.resolved(ladder) {
        DvsStrategy::Cpuspeed => w.put_u8(0),
        DvsStrategy::StaticMhz(mhz) => {
            w.put_u8(1);
            w.put_u32(mhz);
        }
        DvsStrategy::DynamicBaseMhz(mhz) => {
            w.put_u8(2);
            w.put_u32(mhz);
        }
        DvsStrategy::OnDemand => w.put_u8(3),
        DvsStrategy::Conservative => w.put_u8(4),
        DvsStrategy::PowerCap { watts, policy } => {
            w.put_u8(5);
            w.put_u32(watts);
            w.put_u8(match policy {
                CapPolicy::Uniform => 0,
                CapPolicy::Redistribute => 1,
            });
        }
    }
}

/// The workload *description*. Every variant and every class gets a
/// fixed tag, and the match has no wildcard, so a new variant does not
/// compile until it has an encoding.
fn encode_workload(w: &mut ByteWriter, workload: &Workload) {
    match workload {
        Workload::Ft { class, ranks } => {
            w.put_u8(0);
            w.put_u8(match class {
                FtClass::A => 0,
                FtClass::B => 1,
                FtClass::C => 2,
                FtClass::Test => 3,
            });
            w.put_usize(*ranks);
        }
        Workload::FtScale { ranks } => {
            w.put_u8(1);
            w.put_usize(*ranks);
        }
        Workload::Transpose { iterations } => {
            w.put_u8(2);
            w.put_u32(*iterations);
        }
        Workload::Cg { class, ranks } => {
            w.put_u8(3);
            w.put_u8(match class {
                CgClass::A => 0,
                CgClass::B => 1,
                CgClass::C => 2,
                CgClass::Test => 3,
            });
            w.put_usize(*ranks);
        }
        Workload::Mg { class, ranks } => {
            w.put_u8(4);
            w.put_u8(match class {
                MgClass::A => 0,
                MgClass::B => 1,
                MgClass::C => 2,
                MgClass::Test => 3,
            });
            w.put_usize(*ranks);
        }
        Workload::Swim => w.put_u8(5),
        Workload::Mgrid => w.put_u8(6),
        Workload::MemoryMicro(cfg) => {
            w.put_u8(7);
            encode_micro(w, cfg);
        }
        Workload::CpuMicro(cfg) => {
            w.put_u8(8);
            encode_micro(w, cfg);
        }
        Workload::RegisterMicro(cfg) => {
            w.put_u8(9);
            encode_micro(w, cfg);
        }
        Workload::Comm(cfg) => {
            w.put_u8(10);
            encode_comm(w, cfg);
        }
    }
}

fn encode_micro(w: &mut ByteWriter, cfg: &MicroConfig) {
    let MicroConfig { passes } = cfg;
    w.put_u64(*passes);
}

fn encode_comm(w: &mut ByteWriter, cfg: &CommMicroConfig) {
    let CommMicroConfig {
        message_bytes,
        assemble_stride,
        round_trips,
    } = cfg;
    w.put_u64(*message_bytes);
    match assemble_stride {
        None => w.put_u8(0),
        Some(stride) => {
            w.put_u8(1);
            w.put_u64(*stride);
        }
    }
    w.put_u64(*round_trips);
}

fn encode_engine(w: &mut ByteWriter, engine: &EngineConfig) {
    w.put_u64(engine.eager_threshold);
    match engine.wait_policy {
        WaitPolicy::BusyPoll => w.put_u8(0),
        WaitPolicy::PollThenBlock(window) => {
            w.put_u8(1);
            w.put_u64(window.0);
        }
    }
    match engine.sample_interval {
        None => w.put_u8(0),
        Some(interval) => {
            w.put_u8(1);
            w.put_u64(interval.0);
        }
    }
    w.put_usize(engine.trace_capacity);
    w.put_bool(engine.metrics);
    w.put_u64(engine.faults.seed);
    w.put_usize(engine.faults.faults.len());
    for fault in &engine.faults.faults {
        encode_fault(w, fault);
    }
    match engine.topology {
        Topology::Flat => w.put_u8(0),
        Topology::FatTree { radix, oversub } => {
            w.put_u8(1);
            w.put_usize(radix);
            w.put_f64(oversub);
        }
    }
    // Unlike `shards`, `causal` keys the cache: it leaves the simulated
    // bits untouched but adds the causal log and attribution to the
    // stored payload, so a causal run must not replay a record cached
    // without them (or vice versa).
    w.put_bool(engine.causal);
    // `engine.shards` is deliberately NOT part of the key: shard count
    // never changes the RunResult (the determinism suite enforces bit
    // identity), so a sharded sweep may reuse a sequentially-filled
    // cache and vice versa.
}

fn encode_fault(w: &mut ByteWriter, fault: &Fault) {
    match *fault {
        Fault::ComputeSlowdown { node, factor } => {
            w.put_u8(0);
            w.put_usize(node);
            w.put_f64(factor);
        }
        Fault::BatteryStuck { node, after_s } => {
            w.put_u8(1);
            w.put_usize(node);
            w.put_f64(after_s);
        }
        Fault::BatteryNoise {
            node,
            amplitude_mwh,
        } => {
            w.put_u8(2);
            w.put_usize(node);
            w.put_u64(amplitude_mwh);
        }
        Fault::MeterBias { node, factor } => {
            w.put_u8(3);
            w.put_usize(node);
            w.put_f64(factor);
        }
        Fault::SampleSkip { probability } => {
            w.put_u8(4);
            w.put_f64(probability);
        }
        Fault::DvfsFail { node, probability } => {
            w.put_u8(5);
            w.put_usize(node);
            w.put_f64(probability);
        }
        Fault::DvfsLatency { node, factor } => {
            w.put_u8(6);
            w.put_usize(node);
            w.put_f64(factor);
        }
        Fault::DegradedLink {
            node,
            bandwidth_factor,
        } => {
            w.put_u8(7);
            w.put_usize(node);
            w.put_f64(bandwidth_factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn experiment() -> Experiment {
        Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(800))
    }

    #[test]
    fn identical_experiments_collide() {
        assert_eq!(
            fingerprint_experiment(&experiment()),
            fingerprint_experiment(&experiment())
        );
    }

    #[test]
    fn strategy_and_engine_fields_change_the_key() {
        let base = fingerprint_experiment(&experiment());
        let other_strategy = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(600));
        assert_ne!(base, fingerprint_experiment(&other_strategy));

        let mut metrics_on = experiment();
        metrics_on.engine.metrics = true;
        assert_ne!(base, fingerprint_experiment(&metrics_on));
    }

    #[test]
    fn topology_changes_the_key_but_shards_do_not() {
        let base = fingerprint_experiment(&experiment());

        // The fabric shapes rates, so it must key the cache.
        let mut tree = experiment();
        tree.engine.topology = Topology::FatTree {
            radix: 4,
            oversub: 2.0,
        };
        assert_ne!(base, fingerprint_experiment(&tree));
        let mut wider = experiment();
        wider.engine.topology = Topology::FatTree {
            radix: 8,
            oversub: 2.0,
        };
        assert_ne!(
            fingerprint_experiment(&tree),
            fingerprint_experiment(&wider)
        );

        // Shard count never changes the result, so a sharded sweep may
        // replay a sequentially-filled cache: same key on purpose.
        let mut sharded = experiment();
        sharded.engine.shards = 8;
        assert_eq!(base, fingerprint_experiment(&sharded));

        // Causal recording changes the stored payload, so it must key.
        let mut causal = experiment();
        causal.engine.causal = true;
        assert_ne!(base, fingerprint_experiment(&causal));
    }

    #[test]
    fn requests_resolving_to_the_same_point_share_a_key() {
        // 5000 MHz clamps to the 1400 MHz ladder top; the two runs are
        // bit-identical, so the cache must serve one record for both.
        let requested = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(5000));
        let resolved = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(1400));
        assert_eq!(
            fingerprint_experiment(&requested),
            fingerprint_experiment(&resolved)
        );
        // Off-ladder dynamic bases snap too.
        let low = Experiment::new(Workload::ft_test(2), DvsStrategy::DynamicBaseMhz(100));
        let floor = Experiment::new(Workload::ft_test(2), DvsStrategy::DynamicBaseMhz(600));
        assert_eq!(fingerprint_experiment(&low), fingerprint_experiment(&floor));
        // Distinct resolved points still get distinct keys.
        let mid = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(1000));
        assert_ne!(
            fingerprint_experiment(&requested),
            fingerprint_experiment(&mid)
        );
    }

    #[test]
    fn power_cap_watts_and_policy_key_the_cache() {
        let cap = |watts, policy| {
            fingerprint_experiment(&Experiment::new(
                Workload::ft_test(2),
                DvsStrategy::PowerCap { watts, policy },
            ))
        };
        let base = cap(120, CapPolicy::Uniform);
        assert_eq!(base, cap(120, CapPolicy::Uniform));
        assert_ne!(base, cap(110, CapPolicy::Uniform));
        assert_ne!(base, cap(120, CapPolicy::Redistribute));
        assert_ne!(base, fingerprint_experiment(&experiment()));
    }

    #[test]
    fn hex_and_bytes_round_trip() {
        let fp = fingerprint_experiment(&experiment());
        assert_eq!(fp.to_hex().len(), 32);
        assert_eq!(Fingerprint::from_bytes(fp.to_bytes()), fp);
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(Fingerprint::from_hex("not-a-key"), None);
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()[..31]), None);
    }

    /// The SipHash paper's test vectors: key 00..0f, message 00..(len-1)
    /// (Appendix A of the paper is the 15-byte case).
    #[test]
    fn siphash_matches_the_reference_vectors() {
        let key = (0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908);
        let msg: Vec<u8> = (0u8..64).collect();
        for (len, want) in [
            (0, 0x726f_db47_dd0e_0e31),
            (1, 0x74f8_39c5_93dc_67fd),
            (2, 0x0d6c_8009_d9a9_4f5a),
            (7, 0xab02_00f5_8b01_d137),
            (8, 0x93f5_f579_9a93_2462),
            (15, 0xa129_ca61_49be_45e5),
            (63, 0x958a_324c_eb06_4572),
        ] {
            assert_eq!(siphash24(key, &msg[..len]), want, "length {len}");
        }
    }

    fn cg_b8_with_seed(strategy: DvsStrategy, seed: u64) -> Experiment {
        let mut e = Experiment::new(Workload::cg_b8(), strategy);
        e.engine.faults.seed = seed;
        e
    }

    /// Regression: under the FxHash digest these two cells shared
    /// `b6c931479d27951a485aafd8b54e5217`, so the store served one
    /// cell's record for the other.
    #[test]
    fn consecutive_fault_seeds_on_cg_b8_do_not_collide() {
        let a = cg_b8_with_seed(DvsStrategy::StaticMhz(1400), 224_713_102);
        let b = cg_b8_with_seed(DvsStrategy::StaticMhz(1400), 224_713_414);
        assert_ne!(fingerprint_experiment(&a), fingerprint_experiment(&b));
    }

    #[test]
    fn two_hundred_thousand_fault_seeds_get_distinct_keys() {
        let mut keys = Vec::new();
        for strategy in [
            DvsStrategy::StaticMhz(1400),
            DvsStrategy::DynamicBaseMhz(1400),
        ] {
            for seed in 224_700_000..224_900_000 {
                keys.push(fingerprint_experiment(&cg_b8_with_seed(strategy, seed)));
            }
        }
        let total = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), total, "fingerprint collision among fault seeds");
    }

    #[test]
    fn checksum_differs_from_fingerprint_words() {
        let bytes = canonical_experiment_bytes(&experiment());
        let fp = Fingerprint::of_bytes(&bytes);
        assert_ne!(checksum64(&bytes), fp.lo);
        assert_ne!(checksum64(&bytes), fp.hi);
    }
}
