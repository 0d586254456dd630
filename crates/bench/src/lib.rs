//! Experiment harness for the BlueScale reproduction.
//!
//! One module per table/figure of the paper, each with a corresponding
//! binary target:
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Table 1 (hardware overhead) | [`table1`] | `cargo run -p bluescale-bench --bin table1` |
//! | Fig 5 (area/power/f_max vs η) | [`fig5`] | `... --bin fig5` |
//! | Fig 6 (blocking latency & miss ratio) | [`fig6`] | `... --bin fig6` |
//! | Fig 7 (case-study success ratio) | [`fig7`] | `... --bin fig7` |
//! | Design-choice ablations (extension) | [`ablation`] | `... --bin ablation` |
//! | DRAM service-jitter sensitivity (extension) | [`dram`] | `... --bin dram` |
//! | Scheduling scalability sweep (extension) | [`scalability`] | `... --bin scalability` |
//! | Worst-case vs average latency (extension) | [`wcrt`] | `... --bin wcrt` |
//! | Temporal isolation vs a rogue client (extension) | [`isolation`] | `... --bin isolation` |
//! | Isolation under fault injection (extension) | [`isolation_fault`] | `... --bin isolation_fault` |
//! | Online churn: reconfiguration cost and disturbance (extension) | [`churn`] | `... --bin churn` |
//! | Analytic admission-rate curve (extension) | [`admission`] | `... --bin admission` |
//! | Hierarchical EDP laxity sweep (extension) | [`edp_sweep`] | `... --bin edp_sweep` |
//! | Interface-selection fast path (extension) | [`interface_selection`] | `... --bin selection_bench` |
//! | Fault-tolerant control plane (extension) | [`control_plane`] | `... --bin control_plane` |
//! | Memory-policy zoo × faults (extension) | [`mem_policy`] | `... --bin mem_policy` |
//!
//! [`runner`] builds any of the six interconnects behind the common
//! [`bluescale_interconnect::Interconnect`] trait and runs seeded trials.
//! [`invariants`] defines the run fingerprint and conservation identities
//! every differential suite and sweep checks, plus their shared scenarios.

#![warn(missing_docs)]

pub mod ablation;
pub mod admission;
pub mod churn;
pub mod control_plane;
pub mod dram;
pub mod edp_sweep;
pub mod export;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod interface_selection;
pub mod invariants;
pub mod isolation;
pub mod isolation_fault;
pub mod mem_policy;
pub mod runner;
pub mod scalability;
pub mod table1;
pub mod wcrt;

/// Parses `--key value` style options from `std::env::args`-like input.
/// Unknown keys are ignored so binaries stay forward-compatible.
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses a `--key v1,v2,...` list of integers.
pub fn arg_usize_list(args: &[String], key: &str, default: &[usize]) -> Vec<usize> {
    arg_value(args, key)
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_else(|| default.to_vec())
}

/// Parses a `--key n` integer.
pub fn arg_usize(args: &[String], key: &str, default: usize) -> usize {
    arg_value(args, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses a `--key n` u64.
pub fn arg_u64(args: &[String], key: &str, default: u64) -> u64 {
    arg_value(args, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let a = args(&["prog", "--trials", "7", "--clients", "16,64"]);
        assert_eq!(arg_usize(&a, "--trials", 1), 7);
        assert_eq!(arg_usize(&a, "--missing", 3), 3);
        assert_eq!(arg_usize_list(&a, "--clients", &[4]), vec![16, 64]);
        assert_eq!(arg_usize_list(&a, "--nope", &[4]), vec![4]);
        assert_eq!(arg_u64(&a, "--trials", 0), 7);
    }

    #[test]
    fn arg_value_at_end_without_value() {
        let a = args(&["prog", "--flag"]);
        assert_eq!(arg_value(&a, "--flag"), None);
    }
}
