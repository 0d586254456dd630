//! Tree-level differential for interface selection: every SE of a built
//! BlueScale tree carries exactly the interfaces the exhaustive reference
//! selects for that SE's parameter table under the same shared context.
//!
//! Each SE's table is rebuilt from public data: a leaf port holds its
//! client's tasks with the configuration's deflated analysis deadlines; an
//! inner port holds the child SE's interfaces as implicit-deadline server
//! tasks (`T = Π`, `C = Θ`, ids by child port).

use bluescale_repro::core::{BlueScaleConfig, BlueScaleInterconnect};
use bluescale_repro::rt::interface::{select_interface_exhaustive, SelectionContext};
use bluescale_repro::rt::rational::utilization_at_most_one;
use bluescale_repro::rt::task::{Task, TaskSet};
use bluescale_repro::sim::rng::SimRng;

fn single_task(period: u64, wcet: u64) -> TaskSet {
    TaskSet::new(vec![Task::new(0, period, wcet).expect("valid task")]).expect("one task")
}

/// One task per client, period in `[100n, 300n)`, two requests per job.
fn sparse_sets(clients: usize, rng: &mut SimRng) -> Vec<TaskSet> {
    let n = clients as u64;
    (0..clients)
        .map(|_| single_task(100 * n + rng.range_u64(0, 200 * n), 2))
        .collect()
}

/// One task per client carrying `0.9 / n`, period in `[n, 4n]`.
fn shard_sets(clients: usize, rng: &mut SimRng) -> Vec<TaskSet> {
    let n = clients as u64;
    let share = 0.9 / clients as f64;
    (0..clients)
        .map(|_| {
            let lo = n.max((1.0 / share).ceil() as u64);
            if lo > 4 * n {
                single_task(4 * n, 1)
            } else {
                let period = rng.range_u64(lo, 4 * n + 1);
                single_task(period, (share * period as f64).round().max(1.0) as u64)
            }
        })
        .collect()
}

/// The task set on `port` of SE `(depth, order)`, as the tree loads it.
fn port_set(ic: &BlueScaleInterconnect, depth: usize, order: usize, port: usize) -> TaskSet {
    let config = ic.config();
    let tasks = if depth + 1 == config.levels() {
        let client = order * config.branch + port;
        ic.client_tasks()
            .get(client)
            .map(|set| {
                set.iter()
                    .map(|t| {
                        let deadline = config.analysis_deadline(t.period(), t.wcet());
                        Task::with_deadline(t.id(), t.period(), deadline, t.wcet()).unwrap()
                    })
                    .collect()
            })
            .unwrap_or_default()
    } else {
        let child = &ic.composition().interfaces[depth + 1][order * config.branch + port];
        child
            .iter()
            .enumerate()
            .filter_map(|(q, r)| r.map(|r| Task::new(q as u32, r.period(), r.budget()).unwrap()))
            .collect()
    };
    TaskSet::new(tasks).expect("the tree's table is valid")
}

/// Asserts every SE that selects (rather than falling back on an
/// over-utilized table) matches the oracle; returns the SEs that fell back.
fn assert_tree_matches_exhaustive(sets: &[TaskSet], what: &str) -> Vec<(usize, usize)> {
    let ic = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(sets.len()), sets)
        .expect("build succeeds");
    let config = ic.config();
    let composition = ic.composition();
    let mut fell_back = Vec::new();
    for depth in (0..config.levels()).rev() {
        for order in 0..config.elements_at(depth) {
            let ports: Vec<TaskSet> = (0..config.branch)
                .map(|port| port_set(&ic, depth, order, port))
                .collect();
            if !utilization_at_most_one(
                ports
                    .iter()
                    .flat_map(TaskSet::iter)
                    .map(|t| (t.wcet(), t.period())),
            ) {
                fell_back.push((depth, order));
                continue;
            }
            let total: f64 = ports.iter().map(TaskSet::utilization).sum();
            let ctx =
                SelectionContext::shared(total).with_period_divisor(config.granularity_divisor);
            let oracle: Vec<_> = ports
                .iter()
                .map(|set| {
                    (!set.is_empty()).then(|| select_interface_exhaustive(set, &ctx).unwrap())
                })
                .collect();
            assert_eq!(
                composition.interfaces[depth][order], oracle,
                "{what}: SE ({depth}, {order}) diverged from the exhaustive reference"
            );
        }
    }
    assert_eq!(composition.analysis_ok, fell_back.is_empty(), "{what}");
    fell_back
}

#[test]
fn sparse_tree_selects_the_exhaustive_interfaces() {
    let sets = sparse_sets(64, &mut SimRng::seed_from(0x5BA5E));
    assert_eq!(
        assert_tree_matches_exhaustive(&sets, "sparse, 64 clients"),
        vec![]
    );
}

#[test]
fn shard_tree_selects_the_exhaustive_interfaces() {
    let sets = shard_sets(256, &mut SimRng::seed_from(0x5BA7D));
    // Bandwidth inflation over four levels over-subscribes the root, which
    // falls back; every SE below it selects and is compared.
    let fell_back = assert_tree_matches_exhaustive(&sets, "shard, 256 clients");
    assert!(
        fell_back.iter().all(|&(depth, _)| depth == 0),
        "{fell_back:?}"
    );
}
