//! Flat-wire conformance: the netmodel subsystem must be invisible
//! unless a topology is installed. Every flat digest pinned here was
//! captured with `ppm-sim --digest` on the tree as of the commit that
//! introduced the network model — if one of these assertions fires,
//! the flat wire law (the default) changed observable behaviour, which
//! breaks replayability of every previously published run.
//!
//! Two more pins — the 64-host chain and `congestion.ppm` under the
//! `fat-tree` preset — were captured on the tree just before the three
//! backends' process code was folded into the shared host core
//! (`ppm_runtime::host`); they hold the simulator's process semantics,
//! deep relays and routed pricing in place alongside the flat pins.
//!
//! Two more — `chaos.ppm` under `crash_heal.fault` on `fat-tree`, and
//! the 256-host chain — were captured just before the simulator indexed
//! open connections per host and cached hop distances. They run host
//! crashes, restarts, link cuts and deep relays through both indices.
//!
//! The last two — `chaos.ppm` under `crash_heal.fault` on `last-mile`
//! (lossy-link drops and crash teardown) and `chaos_dual.ppm` under
//! `crash_heal.fault` on `fat-tree` — were captured just before the
//! socket rules of the three backends moved into the shared host core.
//!
//! The routed half of the suite pins determinism, not bytes: the same
//! topology run twice must agree with itself, and full-mesh must
//! differ from flat only because it *prices* the same sends through
//! the model (install trace line + `net.*` metrics).

use ppm::digest::{fnv1a, hex};
use ppm::scenario::{self, ExecOptions};
use ppm::simnet::fault::FaultPlan;
use ppm::simnet::topology::NetSpec;

fn scenario_file(name: &str) -> String {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Mirrors `ppm-sim --digest` byte for byte: same parse (file seed),
/// same execution options, same digest chunks.
fn run_digest(text: &str, faults: Option<&str>, topo: Option<&NetSpec>) -> String {
    let sc = scenario::parse(text).expect("scenario parses");
    let plan = faults.map(|t| FaultPlan::parse(t).expect("fault plan parses"));
    let mut out = String::new();
    let opts = ExecOptions {
        spans: false,
        faults: plan.as_ref(),
        topology: topo,
    };
    let h = scenario::execute_with(&sc, &mut out, opts).expect("scenario executes");
    let trace = h.world().core().trace().render(None);
    let metrics = h.metrics_report();
    hex(fnv1a(&[&out, &trace, &metrics]))
}

#[test]
fn flat_digests_match_the_pre_netmodel_tree() {
    for (file, want) in [
        ("demo.ppm", "a29138298feb7ae8"),
        ("chaos.ppm", "a5c4d4b360ed2ad9"),
        ("chaos_dual.ppm", "1f131bfea46b15ee"),
        ("nameserver.ppm", "bbd21583aa5b23d5"),
    ] {
        let got = run_digest(&scenario_file(file), None, None);
        assert_eq!(got, want, "{file}: flat digest drifted");
    }
}

#[test]
fn flat_faulted_digest_matches_the_pre_netmodel_tree() {
    let got = run_digest(
        &scenario_file("chaos.ppm"),
        Some(&scenario_file("crash_heal.fault")),
        None,
    );
    assert_eq!(
        got, "6f6adf90ba841ece",
        "chaos.ppm + crash_heal.fault: flat digest drifted"
    );
}

#[test]
fn flat_chain_digest_matches_the_pre_netmodel_tree() {
    let text = scenario::chain_scenario(24);
    let got = run_digest(&text, None, None);
    assert_eq!(got, "24d16adf4dd8624b", "chain-24: flat digest drifted");
}

#[test]
fn chain_64_digest_matches_the_pre_host_core_tree() {
    let text = scenario::chain_scenario(64);
    let got = run_digest(&text, None, None);
    assert_eq!(got, "defb42b1e399d76f", "chain-64: digest drifted");
}

/// The digest of a shipped scenario under a topology preset built over
/// its hosts, optionally with a shipped fault plan.
fn preset_digest(file: &str, preset: &str, faults: Option<&str>) -> String {
    let text = scenario_file(file);
    let sc = scenario::parse(&text).expect("parses");
    let hosts: Vec<String> = sc.hosts.iter().map(|(n, _)| n.clone()).collect();
    let spec = NetSpec::preset(preset, &hosts).expect("preset builds");
    let plan = faults.map(scenario_file);
    run_digest(&text, plan.as_deref(), Some(&spec))
}

#[test]
fn fat_tree_congestion_digest_matches_the_pre_host_core_tree() {
    assert_eq!(
        preset_digest("congestion.ppm", "fat-tree", None),
        "a523d084444969df",
        "congestion.ppm on fat-tree: digest drifted"
    );
}

#[test]
fn fat_tree_crash_heal_digest_matches_the_pre_index_tree() {
    assert_eq!(
        preset_digest("chaos.ppm", "fat-tree", Some("crash_heal.fault")),
        "8f3041ef07b0966e",
        "chaos.ppm + crash_heal.fault on fat-tree: digest drifted"
    );
}

#[test]
fn last_mile_crash_heal_digest_matches_the_pre_socket_layer_tree() {
    assert_eq!(
        preset_digest("chaos.ppm", "last-mile", Some("crash_heal.fault")),
        "505a580539d40086",
        "chaos.ppm + crash_heal.fault on last-mile: digest drifted"
    );
}

#[test]
fn fat_tree_dual_crash_heal_digest_matches_the_pre_socket_layer_tree() {
    assert_eq!(
        preset_digest("chaos_dual.ppm", "fat-tree", Some("crash_heal.fault")),
        "bfad17361b6cda96",
        "chaos_dual.ppm + crash_heal.fault on fat-tree: digest drifted"
    );
}

#[test]
fn chain_256_digest_matches_the_pre_index_tree() {
    let text = scenario::chain_scenario(256);
    let got = run_digest(&text, None, None);
    assert_eq!(got, "a22c584f702004dd", "chain-256: digest drifted");
}

#[test]
fn routed_runs_are_deterministic_and_distinct_from_flat() {
    let text = scenario_file("chaos.ppm");
    let sc = scenario::parse(&text).expect("parses");
    let hosts: Vec<String> = sc.hosts.iter().map(|(n, _)| n.clone()).collect();
    for preset in NetSpec::PRESETS {
        let spec = NetSpec::preset(preset, &hosts).expect("preset builds");
        let first = run_digest(&text, None, Some(&spec));
        let second = run_digest(&text, None, Some(&spec));
        assert_eq!(first, second, "{preset}: routed digest not reproducible");
        assert_ne!(
            first, "a5c4d4b360ed2ad9",
            "{preset}: routed run unexpectedly byte-identical to flat \
             (install trace + net.* metrics should differ)"
        );
    }
}
