#!/usr/bin/env bash
# Repository check: formatting, lints, and the tier-1 build + test gate.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (root package, tier-1)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> interface-selection bench (tuned kernel bit-identical to the seed selection)"
sel_out="$(mktemp)"
cargo run --release -q -p bluescale-bench --bin selection_bench -- --workloads 1 --out "$sel_out"
rm -f "$sel_out"

echo "==> metrics overhead smoke check"
overhead_out="$(mktemp)"
cargo run --release -q -p bluescale-bench --bin metrics_overhead -- --out "$overhead_out"
rm -f "$overhead_out"

echo "==> fault injection smoke check (request conservation)"
cargo run --release -q -p bluescale-bench --bin fault_smoke

echo "==> sharded-execution smoke check (4 workers, conservation + serial oracle)"
cargo run --release -q -p bluescale-bench --bin shard_smoke

echo "==> shard sweep at 4,096 clients (1/2/4 workers bit-identical at scale)"
sweep_out="$(mktemp)"
cargo run --release -q -p bluescale-bench --bin shard_sweep -- --clients 4096 --workers 1,2,4 --json "$sweep_out"
rm -f "$sweep_out"

echo "==> control-plane smoke check (faulted clients, conservation + recovery)"
cargo run --release -q -p bluescale-bench --bin ctl_smoke

echo "==> memory-policy smoke check (conservation under deferral, regulated isolation)"
cargo run --release -q -p bluescale-bench --bin mem_policy_smoke

echo "==> streaming-telemetry smoke check (live subscribers, shed-not-backpressure)"
cargo run --release -q -p bluescale-bench --bin telemetry_smoke

echo "==> churn sweep (reconfigure_client decides and selects as a fresh composition)"
churn_out="$(mktemp)"
cargo run --release -q -p bluescale-bench --bin churn -- --clients 16,64 --events 10 --out "$churn_out"
rm -f "$churn_out"

echo "==> churn differential (empty-plan inertness, zero disturbance, quarantine)"
cargo test -q --release --test churn_differential

echo "==> fast-forward differential (bit-identical to per-cycle stepping)"
cargo test -q --release --test fastforward_differential

echo "==> SoA differential (arena engine bit-identical to the per-SE reference)"
cargo test -q --release --test soa_differential

echo "==> scalability smoke (both stepping modes, small sweep points)"
cargo test -q --release --test scalability_smoke

echo "==> fast-forward sweep at 1,024 clients (both stepping modes match the eager per-SE engine)"
ff_out="$(mktemp)"
cargo run --release -q -p bluescale-bench --bin scalability -- --ff-only --clients 1024 --json "$ff_out"
rm -f "$ff_out"

echo "==> shard differential (1/2/4/8 workers bit-identical to serial)"
RUST_BACKTRACE=1 cargo test -q --release --test shard_differential -- --test-threads=1

echo "==> memory-policy differential (Unregulated bit-identical; active policies agree)"
RUST_BACKTRACE=1 cargo test -q --release --test mem_policy_differential -- --test-threads=1

echo "==> telemetry differential (streaming invisible + JSONL fold lossless)"
RUST_BACKTRACE=1 cargo test -q --release --test telemetry_differential -- --test-threads=1

echo "==> benchmark smoke (stepper fingerprint parity with System's call order)"
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "All checks passed."
