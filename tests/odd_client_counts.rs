//! Edge cases: client counts that do not fill the quadtree (or binary
//! trees / meshes) exactly. Partially-populated leaf SEs, idle ports and
//! ragged topologies must behave identically to full ones.

use bluescale_repro::baselines::{AxiIcRt, BlueTree, GsmTree, SlotPolicy};
use bluescale_repro::core::{BlueScaleConfig, BlueScaleInterconnect};
use bluescale_repro::interconnect::system::System;
use bluescale_repro::interconnect::Interconnect;
use bluescale_repro::noc::NocMemoryInterconnect;
use bluescale_repro::rt::task::{Task, TaskSet};

fn sets(n: usize) -> Vec<TaskSet> {
    (0..n)
        .map(|i| TaskSet::new(vec![Task::new(0, 300 + 7 * i as u64, 3).unwrap()]).unwrap())
        .collect()
}

fn all(n: usize) -> Vec<Box<dyn Interconnect>> {
    let task_sets = sets(n);
    let weights = vec![1.0; n];
    let mut bs = BlueScaleConfig::for_clients(n);
    bs.work_conserving = true;
    vec![
        Box::new(AxiIcRt::new(n, 8, 1)),
        Box::new(BlueTree::new(n, 2, 1)),
        Box::new(GsmTree::new(n, SlotPolicy::Tdm, 1)),
        Box::new(GsmTree::new(n, SlotPolicy::Fbsp(weights), 1)),
        Box::new(BlueScaleInterconnect::new(bs, &task_sets).expect("valid build")),
        Box::new(NocMemoryInterconnect::new(n, 1)),
    ]
}

#[test]
fn odd_counts_run_clean() {
    for n in [1usize, 2, 3, 5, 7, 9, 13, 17, 33, 63, 65] {
        let task_sets = sets(n);
        for ic in all(n) {
            let name = ic.name();
            let mut system = System::new(ic, &task_sets);
            let m = system.run(6_000);
            assert!(m.issued() > 0, "{name} at {n} clients issued nothing");
            assert_eq!(
                m.completed() + system.in_flight() as u64 + m.backlog(),
                m.issued(),
                "{name} at {n} clients lost requests"
            );
            assert!(
                m.miss_ratio() < 0.05,
                "{name} at {n} clients missed {:.3}",
                m.miss_ratio()
            );
        }
    }
}

#[test]
fn bluescale_single_client() {
    let task_sets = sets(1);
    let ic = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(1), &task_sets)
        .expect("valid build");
    assert!(ic.composition().schedulable);
    let mut system = System::new(Box::new(ic) as Box<dyn Interconnect>, &task_sets);
    let m = system.run(5_000);
    assert!(m.success());
    assert!(m.completed() > 0);
}

#[test]
fn bluescale_17_clients_uses_three_levels() {
    // 17 clients overflows a 16-leaf quadtree: the third level appears and
    // most of it idles; everything must still compose and run.
    let task_sets = sets(17);
    let config = BlueScaleConfig::for_clients(17);
    assert_eq!(config.levels(), 3);
    let ic = BlueScaleInterconnect::new(config, &task_sets).expect("valid build");
    assert!(ic.composition().schedulable);
    let mut system = System::new(Box::new(ic) as Box<dyn Interconnect>, &task_sets);
    let m = system.run(8_000);
    assert!(m.success(), "missed {}", m.missed());
}

#[test]
fn update_tasks_on_ragged_tree() {
    // Reconfiguring a client on a partially-filled leaf must not disturb
    // its idle sibling ports.
    let task_sets = sets(5);
    let mut ic = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(5), &task_sets)
        .expect("valid build");
    let heavier = TaskSet::new(vec![Task::new(0, 200, 20).unwrap()]).unwrap();
    assert!(ic.reconfigure_client(4, &heavier, 0).applied(), "admitted");
    let reprogrammed = ic.composition().reprogrammed_elements;
    assert_eq!(reprogrammed, ic.config().levels());
    // Ports 1..3 of leaf SE 1 host no clients: they must stay idle.
    let leaf = &ic.composition().interfaces[ic.config().levels() - 1][1];
    assert!(leaf[0].is_some());
    assert!(leaf[1].is_none() && leaf[2].is_none() && leaf[3].is_none());
}
