#!/usr/bin/env bash
# Repository check: formatting, lints, rustdoc, and the tier-1 build + test gate.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings denied: dangling intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (root package, tier-1)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> interface-selection bench (tuned kernel bit-identical to the seed selection, per client and on every SE of a 1,024-client shard tree)"
sel_out="$(mktemp)"
cargo run --release -q -p bluescale-bench --bin selection_bench -- --workloads 1 --out "$sel_out"
rm -f "$sel_out"

echo "==> metrics overhead smoke check"
overhead_out="$(mktemp)"
cargo run --release -q -p bluescale-bench --bin metrics_overhead -- --out "$overhead_out"
rm -f "$overhead_out"

echo "==> shard sweep at 4,096 clients (1/2/4 workers bit-identical at scale)"
sweep_out="$(mktemp)"
cargo run --release -q -p bluescale-bench --bin shard_sweep -- --clients 4096 --workers 1,2,4 --json "$sweep_out"
rm -f "$sweep_out"

echo "==> churn sweep (reconfigure_client decides and selects as a fresh composition)"
churn_out="$(mktemp)"
cargo run --release -q -p bluescale-bench --bin churn -- --clients 16,64 --events 10 --out "$churn_out"
rm -f "$churn_out"

echo "==> serial differentials in release (churn, fast-forward, SoA, faults, scalability points)"
cargo test -q --release --test churn_differential --test fastforward_differential \
    --test soa_differential --test fault_differential --test scalability_smoke

echo "==> sharded differentials in release (shard, memory-policy, telemetry; one test at a time)"
RUST_BACKTRACE=1 cargo test -q --release --test shard_differential \
    --test mem_policy_differential --test telemetry_differential -- --test-threads=1

echo "==> fast-forward sweep at 1,024 clients (both stepping modes match the eager per-SE engine)"
ff_out="$(mktemp)"
cargo run --release -q -p bluescale-bench --bin scalability -- --ff-only --clients 1024 --json "$ff_out"
rm -f "$ff_out"

echo "==> benchmark smoke (stepper fingerprint parity with System's call order)"
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "All checks passed."
