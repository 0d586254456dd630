//! Runs every experiment (paper tables/figures + extensions) with default
//! settings and writes the markdown outputs into `results/`.
//!
//! Usage: `cargo run --release -p bluescale-bench --bin report -- [--out DIR]`

use bluescale_bench::{
    ablation, admission, arg_value, churn, dram, export, fig5, fig6, fig7, isolation, scalability,
    table1, wcrt,
};
use bluescale_sim::metrics::MetricsRegistry;
use std::fs;
use std::path::Path;

fn write(dir: &Path, name: &str, contents: String) {
    let path = dir.join(name);
    match fs::write(&path, contents) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

fn write_json(dir: &Path, name: &str, registry: &mut MetricsRegistry) {
    let path = dir.join(name);
    match export::write_snapshot(&path, registry) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = arg_value(&args, "--out").unwrap_or_else(|| "results".to_owned());
    let dir = Path::new(&out);
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }

    write(dir, "table1.md", table1::render());
    write(dir, "fig5.md", fig5::render());
    let mut fig5_reg = MetricsRegistry::new();
    fig5::record_into(&mut fig5_reg);
    write_json(dir, "fig5_metrics.json", &mut fig5_reg);

    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut fig6_out = String::new();
    for clients in [16, 64] {
        let config = fig6::Fig6Config::new(clients);
        let (rows, mut registry) = fig6::run_with_threads_registry(&config, threads);
        fig6_out.push_str(&fig6::render(&config, &rows));
        fig6_out.push('\n');
        let name = if clients == 16 {
            "fig6_metrics.json".to_owned()
        } else {
            format!("fig6_{clients}_metrics.json")
        };
        write_json(dir, &name, &mut registry);
    }
    write(dir, "fig6.md", fig6_out);

    let mut fig7_out = String::new();
    for processors in [16, 64] {
        let config = fig7::Fig7Config::new(processors);
        let points = fig7::run(&config);
        fig7_out.push_str(&fig7::render(&config, &points));
        fig7_out.push('\n');
    }
    write(dir, "fig7.md", fig7_out);

    let config = ablation::AblationConfig::default();
    write(
        dir,
        "ablation.md",
        ablation::render(&config, &ablation::run(&config)),
    );

    let config = wcrt::WcrtConfig::default();
    write(dir, "wcrt.md", wcrt::render(&config, &wcrt::run(&config)));

    let config = dram::DramConfigSweep::default();
    write(dir, "dram.md", dram::render(&config, &dram::run(&config)));

    let config = scalability::ScalabilityConfig::default();
    write(
        dir,
        "scalability.md",
        scalability::render(&config, &scalability::run(&config)),
    );

    let config = isolation::IsolationConfig::default();
    let (rows, mut registry) = isolation::run_with_registry(&config);
    write(dir, "isolation.md", isolation::render(&config, &rows));
    write_json(dir, "isolation_metrics.json", &mut registry);

    let config = churn::ChurnConfig::default();
    write(
        dir,
        "reconfig.md",
        churn::render(
            &config,
            &churn::run(&config),
            &churn::run_disturbance(&config),
        ),
    );

    let config = admission::AdmissionConfig::default();
    write(
        dir,
        "admission.md",
        admission::render(&config, &admission::run(&config)),
    );

    println!("\nall experiments written to {}/", dir.display());
}
