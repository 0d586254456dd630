//! Scheduling scalability in action (paper, Section 3.2): when the tasks
//! on one client change, only the Scale Elements on that client's request
//! path refresh their server-task parameters — every other SE keeps its
//! configuration, so reconfiguration cost is O(tree depth), not O(clients).
//!
//! ```text
//! cargo run --example dynamic_reconfiguration
//! ```

use bluescale_repro::core::{BlueScaleConfig, BlueScaleInterconnect};
use bluescale_repro::interconnect::Interconnect;
use bluescale_repro::rt::task::{Task, TaskSet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 64 clients → 3 SE levels (1 + 4 + 16 = 21 elements).
    let task_sets: Vec<TaskSet> = (0..64)
        .map(|_| TaskSet::new(vec![Task::new(0, 3200, 4)?]))
        .collect::<Result<_, _>>()?;
    let mut ic = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(64), &task_sets)?;

    println!(
        "built 64-client BlueScale: {} SEs programmed, root bandwidth {:.3}",
        ic.composition().reprogrammed_elements,
        ic.composition().root_bandwidth
    );
    let before = ic.composition().interfaces.clone();

    // Client 37 suddenly hosts a heavy task: admission-test it and, once
    // admitted, reprogram the path at each server's replenishment boundary.
    let heavy = TaskSet::new(vec![Task::new(0, 3200, 4)?, Task::new(1, 400, 40)?])?;
    let outcome = ic.reconfigure_client(37, &heavy, 0);
    let report = ic.composition();
    println!(
        "\nclient 37 updated ({outcome:?}): {} SEs reprogrammed (tree depth = 3), \
         root bandwidth now {:.3}, schedulable = {}",
        report.reprogrammed_elements, report.root_bandwidth, report.schedulable
    );

    // Show exactly which SEs changed.
    let after = &ic.composition().interfaces;
    println!("\nchanged Scale Elements:");
    for depth in 0..before.len() {
        for order in 0..before[depth].len() {
            if before[depth][order] != after[depth][order] {
                println!(
                    "  SE({depth},{order}): {:?} → {:?}",
                    summarize(&before[depth][order]),
                    summarize(&after[depth][order]),
                );
            }
        }
    }
    println!("\nall other SEs kept their parameters bit-identically.");
    Ok(())
}

fn summarize(interfaces: &[Option<bluescale_repro::rt::supply::PeriodicResource>]) -> Vec<String> {
    interfaces
        .iter()
        .map(|i| match i {
            Some(r) => format!("{}per{}", r.budget(), r.period()),
            None => "idle".to_owned(),
        })
        .collect()
}
