//! Dataflow checks against the *real* workspace sources: prove the
//! shard-purity pass traverses the actual `plan_compute` call chain by
//! injecting a `&mut self` leak into one of its callees and watching the
//! analyzer catch it — and that the pristine sources stay clean.

use simlint::{analyze_sources, Config, Finding};
use std::path::{Path, PathBuf};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("simlint manifest dir has a workspace root two levels up")
}

fn read(rel: &str) -> (String, String) {
    let abs: PathBuf = workspace_root().join(rel);
    let src = std::fs::read_to_string(&abs).unwrap_or_else(|e| panic!("read {rel}: {e}"));
    (rel.to_string(), src)
}

fn purity_findings(files: &[(String, String)]) -> Vec<Finding> {
    analyze_sources(files, &Config::workspace_default())
        .into_iter()
        .filter(|f| f.rule == "shard-purity")
        .collect()
}

#[test]
fn injected_mut_self_leak_under_plan_compute_is_caught() {
    let engine = read("crates/mpi-sim/src/engine.rs");
    let (node_rel, node_src) = read("crates/cluster-sim/src/node.rs");

    // Baseline: the pristine pair is purity-clean.
    let clean = purity_findings(&[engine.clone(), (node_rel.clone(), node_src.clone())]);
    assert!(clean.is_empty(), "pristine sources not clean: {clean:?}");

    // Inject the leak: `Node::effective_dram_latency` (called from
    // `plan_compute`) grows a `&mut self` receiver.
    let leaked = node_src.replace(
        "pub fn effective_dram_latency(&self",
        "pub fn effective_dram_latency(&mut self",
    );
    assert_ne!(
        leaked, node_src,
        "node.rs no longer defines `effective_dram_latency(&self)` — update this test"
    );

    let found = purity_findings(&[engine, (node_rel, leaked)]);
    let hit = found
        .iter()
        .find(|f| f.message.contains("effective_dram_latency") && f.message.contains("&mut self"))
        .unwrap_or_else(|| panic!("leak not caught; purity findings: {found:?}"));
    // The report names the pure root and lands in the calling file.
    assert!(hit.message.contains("plan_compute"), "{hit:?}");
    assert_eq!(hit.file, "crates/mpi-sim/src/engine.rs", "{hit:?}");
}
