//! Differential tests pinning the streaming-telemetry invariants.
//!
//! Two hard guarantees from DESIGN.md §17:
//!
//! * **Streaming never changes the simulation.** A run with a telemetry
//!   pipeline attached (JSONL file + in-process ring subscriber) must
//!   produce a byte-identical `merged_registry` JSON to the same seeded
//!   run with streaming off — on the serial harness (per-SE reference
//!   and SoA engines) and on the sharded coordinator at 1/2/4 workers, across
//!   dense, sparse+fault and churn scenarios.
//! * **The stream is lossless.** Folding the JSONL epochs
//!   ([`fold_jsonl`]) must reconstruct the final harness and fabric
//!   registries exactly — counters by signed-delta sums, sample
//!   sequences by window concatenation, gauges and accumulator
//!   summaries by last-value-wins.

use bluescale::element::PerSeEngine;
use bluescale::network::Engine;
use bluescale::soa::SoaCore;
use bluescale::BlueScaleInterconnect;
use bluescale_bench::invariants::{
    build_serial, build_sharded, config_for, light_churn_plan, sparse_config, sparse_fault_plan,
    task_sets,
};
use bluescale_interconnect::system::System;
use bluescale_rt::task::TaskSet;
use bluescale_telemetry::jsonl::fold_jsonl;
use bluescale_telemetry::{JsonlSink, Pipeline, RingSink, SloConfig};
use bluescale_workload::synthetic::SyntheticConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const SEED: u64 = 0x7E1E;
const HORIZON: u64 = 20_000;
const PERIOD: u64 = 1_024;

fn build_system<E: Engine>(sets: &[TaskSet]) -> System<BlueScaleInterconnect<E>> {
    build_serial(config_for(sets, true), sets)
}

fn jsonl_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "bluescale-telemetry-{tag}-{}-{}.jsonl",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn pipeline(path: &Path) -> Pipeline {
    let mut pipe = Pipeline::new(PERIOD, SloConfig::default());
    pipe.add_sink(JsonlSink::create(path).expect("create jsonl sink"));
    let (ring, _handle) = RingSink::new(64);
    pipe.add_sink(ring);
    pipe
}

/// Streaming on vs off on the serial harness: byte-identical registries,
/// and the JSONL fold must reconstruct both final registries exactly.
fn assert_serial_scenario<E: Engine>(
    sets: &[TaskSet],
    prepare: impl Fn(&mut System<BlueScaleInterconnect<E>>),
    label: &str,
) {
    let mut baseline = build_system::<E>(sets);
    prepare(&mut baseline);
    baseline.run(HORIZON);
    let expected = baseline.merged_registry().to_json();

    let mut streaming = build_system::<E>(sets);
    prepare(&mut streaming);
    let path = jsonl_path(label);
    streaming.attach_telemetry(pipeline(&path));
    streaming.run(HORIZON);
    streaming.finish_telemetry();
    assert!(
        streaming.telemetry_epochs() > 1,
        "{label}: the run must cross several flush boundaries"
    );
    assert_eq!(
        streaming.merged_registry().to_json(),
        expected,
        "{label}: streaming must not perturb the simulation"
    );

    let stream = std::fs::read_to_string(&path).expect("read jsonl");
    let folded = fold_jsonl(&stream).expect("stream folds");
    folded
        .matches_registry("harness", streaming.registry())
        .unwrap_or_else(|e| panic!("{label}: harness fold diverged: {e}"));
    folded
        .matches_registry("fabric", streaming.interconnect().metrics())
        .unwrap_or_else(|e| panic!("{label}: fabric fold diverged: {e}"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dense_serial_soa_streaming_is_invisible_and_lossless() {
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
    assert_serial_scenario::<SoaCore>(&sets, |_| {}, "dense-soa");
}

#[test]
fn dense_serial_legacy_streaming_is_invisible_and_lossless() {
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
    assert_serial_scenario::<PerSeEngine>(&sets, |_| {}, "dense-legacy");
}

#[test]
fn sparse_faulted_streaming_is_invisible_and_lossless() {
    // Fast-forward jumps interleave with flush boundaries here: the
    // chunked advance clamps jumps at each boundary, which must change
    // wall-clock only, never state.
    let sets = task_sets(&sparse_config(16), SEED);
    assert_serial_scenario::<SoaCore>(
        &sets,
        |sys| sys.set_fault_plan(sparse_fault_plan(SEED)),
        "sparse-faults",
    );
}

#[test]
fn churn_streaming_is_invisible_and_lossless() {
    let sets = task_sets(&sparse_config(16), SEED);
    assert_serial_scenario::<SoaCore>(
        &sets,
        |sys| sys.set_churn_plan(light_churn_plan(&sets, SEED)),
        "churn",
    );
}

#[test]
fn sharded_streaming_is_invisible_and_lossless_across_worker_counts() {
    // The coordinator flushes telemetry between spans; the worker count
    // must stay a pure wall-clock knob with streaming attached, and the
    // stream must fold to the coordinator's final registries.
    let sets = task_sets(&sparse_config(16), SEED);
    let mut expected: Option<String> = None;
    for &workers in &[1usize, 2, 4] {
        let mut baseline = build_sharded(config_for(&sets, true), &sets, workers);
        baseline.set_fault_plan(sparse_fault_plan(SEED));
        baseline.run(HORIZON);
        let off = baseline.merged_registry().to_json();
        match &expected {
            None => expected = Some(off.clone()),
            Some(e) => assert_eq!(
                &off, e,
                "streaming-off runs must agree at {workers} workers"
            ),
        }

        let mut streaming = build_sharded(config_for(&sets, true), &sets, workers);
        streaming.set_fault_plan(sparse_fault_plan(SEED));
        let path = jsonl_path(&format!("shard-{workers}w"));
        streaming.attach_telemetry(pipeline(&path));
        streaming.run(HORIZON);
        streaming.finish_telemetry();
        assert!(
            streaming.telemetry_epochs() > 1,
            "sharded run must cross several flush boundaries"
        );
        assert_eq!(
            streaming.merged_registry().to_json(),
            off,
            "streaming must not perturb the sharded simulation at {workers} workers"
        );

        let stream = std::fs::read_to_string(&path).expect("read jsonl");
        let folded = fold_jsonl(&stream).expect("stream folds");
        folded
            .matches_registry("harness", streaming.registry())
            .unwrap_or_else(|e| panic!("{workers}w: harness fold diverged: {e}"));
        folded
            .matches_registry("fabric", streaming.fabric_metrics())
            .unwrap_or_else(|e| panic!("{workers}w: fabric fold diverged: {e}"));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn windowed_samples_stream_losslessly_under_eviction() {
    // With a small sample window the registry evicts between flushes;
    // the fold can no longer match sequences bit-exact, but accounting
    // (folded + dropped == pushed) and the retained suffix must hold —
    // and streaming must still be invisible to the simulation.
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
    let mut baseline = build_system::<SoaCore>(&sets);
    baseline.registry_mut().set_sample_window(Some(32));
    baseline.run(HORIZON);
    let expected = baseline.merged_registry().to_json();

    let mut streaming = build_system::<SoaCore>(&sets);
    streaming.registry_mut().set_sample_window(Some(32));
    let path = jsonl_path("windowed");
    streaming.attach_telemetry(pipeline(&path));
    streaming.run(HORIZON);
    streaming.finish_telemetry();
    assert_eq!(
        streaming.merged_registry().to_json(),
        expected,
        "windowed streaming must not perturb the simulation"
    );
    let stream = std::fs::read_to_string(&path).expect("read jsonl");
    let folded = fold_jsonl(&stream).expect("stream folds");
    folded
        .matches_registry("harness", streaming.registry())
        .unwrap_or_else(|e| panic!("windowed harness fold diverged: {e}"));
    let _ = std::fs::remove_file(&path);
}
