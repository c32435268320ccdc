//! SweepStore: a persistent, content-addressed experiment result cache.
//!
//! The paper's figures re-run the same workload at every operating
//! point, every `∂`, and (in our extensions) every fault spec — and the
//! simulator is deterministic, so an identical configuration always
//! produces an identical [`mpi_sim::RunResult`]. That makes results
//! memoizable by *content*: [`fingerprint_experiment`] digests the
//! canonical byte encoding of everything that can influence a run
//! (workload description and instrumentation flag, strategy, engine
//! config, fault spec, cluster overrides, format version) with
//! SipHash-2-4, and [`SweepStore`] keeps one checksummed record per
//! digest. See DESIGN.md §12 for the format and invalidation rules,
//! and [`crate::sweep`] for the resumable planner built on top.

mod codec;
mod disk;
mod fingerprint;
mod run_codec;

pub use codec::{ByteReader, ByteWriter, DecodeError};
pub use disk::{StoreError, StoreStats, SweepStore};
pub use fingerprint::{
    canonical_experiment_bytes, checksum64, fingerprint_experiment, Fingerprint,
    STORE_FORMAT_VERSION,
};
pub use run_codec::{decode_run_result, encode_run_result};
