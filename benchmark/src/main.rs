//! The BlueScale benchmark: five seeded workloads, each checked before any
//! time is reported, with end-to-end metrics (tracing off) or a per-layer
//! split of host time (tracing on). See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds S] [--reps N]
//!           [--trace 0|1] [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed check exits
//! non-zero.

mod ctl;
mod report;
mod sim;
mod stepper;
mod trace;

use report::{json_str, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "fig6_dense",
    "fig6_observed",
    "sparse_1k",
    "shard_1k",
    "ctl_mixed",
];

const USAGE: &str =
    "usage: benchmark --workload <fig6_dense|fig6_observed|sparse_1k|shard_1k|ctl_mixed|all> \
                     [--seed N] [--seconds S] [--reps N] [--trace 0|1] [--out DIR]";

/// A checked command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// How long the timed repetitions run.
    pub seconds: f64,
    /// Fewest timed repetitions of a simulator workload, however long they
    /// take; a run also repeats until every input instance ran and
    /// instance 0 ran twice.
    pub reps: usize,
    pub trace: bool,
    /// Where trace files and scratch files go.
    pub out: PathBuf,
}

/// The seed of input instance `i` of a run; instance 0 uses the run's
/// seed. A run whose cost depends on the draw spreads its repetitions over
/// several instances, so its medians cover more than one draw.
pub fn instance_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Parses the command line; `Ok(None)` for `--bench`, which `cargo bench`
/// passes and which runs nothing.
fn parse_args(args: &[String]) -> Result<Option<Config>, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0xB1_5CA1E,
        seconds: 15.0,
        reps: 3,
        trace: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bench" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--reps" => cfg.reps = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => cfg.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.workload != "all" && !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    if cfg.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    Ok(Some(cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg.workload == "all" {
        return run_all(&cfg);
    }
    match run_workload(&cfg) {
        Ok(outcome) => {
            print!("{}", outcome.table(&cfg.workload));
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {}: check failed: {e}", cfg.workload);
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in this process. A failed check is an `Err`: no
/// time is reported for a run whose outputs are wrong.
pub fn run_workload(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out.display()))?;
    match sim::Kind::from_name(&cfg.workload) {
        Some(kind) => sim::run(&sim::Spec::full(kind), cfg),
        None => ctl::run(&ctl::Spec::full(), cfg),
    }
}

/// Runs every workload in a child process of its own, so each peak
/// resident set belongs to one workload, and prints their metrics. With
/// tracing on, the children's trace files are combined into `trace.json`.
fn run_all(cfg: &Config) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut combined = Vec::new();
    let mut ok = true;
    for name in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--reps", &cfg.reps.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&cfg.out)
            .output();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                eprintln!("benchmark: cannot run {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        if !output.status.success() || !result.starts_with('{') {
            eprintln!("benchmark: {name} failed ({})", output.status);
            ok = false;
            continue;
        }
        combined.push(format!("{}: {result}", json_str(name)));
    }
    if cfg.trace {
        if let Err(e) = combine_traces(cfg) {
            eprintln!("benchmark: {e}");
            ok = false;
        }
    }
    println!(
        "{{\"correct\": {ok}, \"seed\": {}, \"workloads\": {{{}}}}}",
        cfg.seed,
        combined.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn trace_path(cfg: &Config, workload: &str) -> PathBuf {
    cfg.out.join(format!("trace-{workload}.json"))
}

/// Writes one workload's per-layer metrics and spans to its trace file.
pub fn write_trace(
    cfg: &Config,
    workload: &str,
    outcome: &Outcome,
    tracer: &trace::Tracer,
) -> Result<(), String> {
    let path = trace_path(cfg, workload);
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"host_cpus\": {}, \"result\": {},\n  \"spans\": {}}}\n",
        json_str(workload),
        cfg.seed,
        host_cpus(),
        outcome.json(),
        tracer.to_json()
    );
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn combine_traces(cfg: &Config) -> Result<(), String> {
    let mut parts = Vec::new();
    for name in WORKLOADS {
        let path = trace_path(cfg, name);
        let body = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parts.push(format!("{}: {}", json_str(name), body.trim_end()));
    }
    let path = cfg.out.join("trace.json");
    std::fs::write(&path, format!("{{{}}}\n", parts.join(",\n")))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scratch directory for one run, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(out: &Path, tag: &str) -> Result<Self, String> {
        let dir = out.join(format!("work-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Every workload at toy size, untraced and traced, with every check
    /// the full run makes.
    #[test]
    fn every_workload_runs_and_checks_at_toy_size() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("smoke");
        let ctl = ctl::Spec {
            capacity: 16,
            history_ops: 40,
            history_tenants: 8,
            pool: 4,
            block_ops: 10,
            histories: 2,
            replay_ops: 50,
        };
        std::fs::create_dir_all(&out).expect("create the smoke output directory");
        for trace in [false, true] {
            for name in WORKLOADS {
                let cfg = Config {
                    workload: name.to_string(),
                    seed: 11,
                    seconds: 0.2,
                    reps: 2,
                    trace,
                    out: out.clone(),
                };
                let outcome = match sim::Kind::from_name(name) {
                    Some(kind) => {
                        let spec = sim::Spec {
                            kind,
                            clients: 16,
                            horizon: 4_096,
                            instances: 2,
                        };
                        sim::run(&spec, &cfg)
                    }
                    None => ctl::run(&ctl, &cfg),
                }
                .unwrap_or_else(|e| panic!("{name} (trace {trace}): {e}"));
                assert!(outcome.attempted > 0, "{name}: {outcome:?}");
                let json = outcome.json();
                assert!(
                    bluescale_telemetry::jsonl::parse_json(&json).is_ok(),
                    "{name}: result line is not JSON: {json}"
                );
                if !trace {
                    assert!(
                        outcome.metrics.iter().all(|&(_, v)| v > 0.0),
                        "{name}: {outcome:?}"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn command_line_is_checked() {
        let cfg = parse_args(&args(&[
            "--workload",
            "ctl_mixed",
            "--seed",
            "7",
            "--trace",
            "1",
        ]))
        .expect("valid")
        .expect("not --bench");
        assert_eq!((cfg.seed, cfg.trace, cfg.reps), (7, true, 3));
        assert!(parse_args(&args(&["--bench"])).expect("valid").is_none());
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "fig6_dense", "--trace", "2"],
            &["--workload", "fig6_dense", "--seed", "x"],
            &["--workload", "fig6_dense", "--frobnicate", "1"],
            &["--workload", "fig6_dense", "--reps", "0"],
            &["--workload"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }
}
