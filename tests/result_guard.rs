//! Engine optimisations must not move a simulated bit. This file pins a
//! checksum of the complete store encoding of every `RunResult` in a
//! small grid of flat-network cells: the DVFS ladder, a governor, a
//! power cap and the network solver all feed it, so a change in any of
//! them changes a digest.
//!
//! The digests are a fixed reference, not a record of the current code:
//! regenerate only after a deliberate change to simulated behaviour,
//! with `BLESS=1 cargo test --test result_guard`.

use pwrperf::store::checksum64;
use pwrperf::{encode_run_result, DvsStrategy, Experiment, Workload};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/result_digests.txt"
);

const WORKLOADS: [&str; 5] = ["ft-test4", "cg-a8", "mg-a8", "transpose", "comm-4k"];

/// The static top point, a dynamic base, the kernel governor, and a
/// redistributing cap at 20 W per rank.
fn strategies(ranks: usize) -> [String; 4] {
    [
        "static-1400".to_owned(),
        "dynamic-1000".to_owned(),
        "cpuspeed".to_owned(),
        format!("cap-{}-redist", 20 * ranks),
    ]
}

fn digest_table() -> String {
    let mut table = String::new();
    for name in WORKLOADS {
        let workload = Workload::parse_name(name).expect("registry name parses");
        for strategy in strategies(workload.ranks()) {
            let parsed = DvsStrategy::parse_name(&strategy).expect("strategy name parses");
            let result = Experiment::new(workload.clone(), parsed).run();
            let digest = checksum64(&encode_run_result(&result));
            table.push_str(&format!("{name} {strategy} {digest:016x}\n"));
        }
    }
    table
}

#[test]
fn run_results_match_the_pinned_digests() {
    let table = digest_table();
    if std::env::var("BLESS").is_ok() {
        std::fs::write(GOLDEN, &table).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file (BLESS=1 to generate)");
    assert_eq!(
        table, golden,
        "a RunResult changed bits (BLESS=1 cargo test --test result_guard \
         only after a deliberate change to simulated behaviour)"
    );
}
