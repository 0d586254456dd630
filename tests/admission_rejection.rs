//! Rejection-path tests for runtime reconfiguration: a rejected admission
//! must leave the interconnect exactly as it was — every interface at
//! every SE bit-identical — and malformed requests must surface as typed
//! rejections or errors, never panics — as must topology and buffer
//! settings no tree can be built from.

use bluescale::element::PerSeEngine;
use bluescale::{BlueScaleConfig, BlueScaleInterconnect, BuildError, InjectError, ShardedSystem};
use bluescale_interconnect::admission::ReconfigOutcome;
use bluescale_interconnect::{AccessKind, Interconnect, MemoryRequest};
use bluescale_rt::task::{Task, TaskSet};

fn sets(n: usize, period: u64, wcet: u64) -> Vec<TaskSet> {
    (0..n)
        .map(|_| TaskSet::new(vec![Task::new(0, period, wcet).unwrap()]).unwrap())
        .collect()
}

fn request(client: u32, id: u64) -> MemoryRequest {
    MemoryRequest {
        id,
        client,
        task: 0,
        addr: (client as u64) << 20,
        kind: AccessKind::Read,
        issued_at: 0,
        deadline: 400,
        blocked_cycles: 0,
    }
}

#[test]
fn rejected_admission_restores_every_interface_bit_identically() {
    let mut ic =
        BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4)).unwrap();
    assert!(ic.composition().schedulable);
    let before_interfaces = ic.composition().interfaces.clone();
    let before_tasks: Vec<TaskSet> = ic.client_tasks().to_vec();
    let before_bandwidth = ic.composition().root_bandwidth;

    // A hog that would blow the root budget: rejected, not an error.
    let hog = TaskSet::new(vec![Task::new(0, 100, 95).unwrap()]).unwrap();
    assert_eq!(ic.reconfigure_client(7, &hog, 0), ReconfigOutcome::Rejected);

    // The rejected trial left no trace anywhere — not just on client 7's
    // path.
    assert_eq!(ic.composition().interfaces, before_interfaces);
    assert_eq!(ic.client_tasks(), &before_tasks[..]);
    assert_eq!(ic.composition().root_bandwidth, before_bandwidth);
    assert!(ic.composition().schedulable);
}

#[test]
fn admission_for_unknown_client_is_a_typed_error() {
    let mut ic =
        BlueScaleInterconnect::new(BlueScaleConfig::for_clients(4), &sets(4, 100, 1)).unwrap();
    let before = ic.composition().interfaces.clone();
    let tasks = TaskSet::new(vec![Task::new(0, 100, 1).unwrap()]).unwrap();
    for client in [11, 99] {
        let outcome = ic.reconfigure_client(client, &tasks, 0);
        assert_eq!(outcome, ReconfigOutcome::Rejected, "client {client}");
    }
    // An out-of-range shed is rejected too, even on an unschedulable
    // fabric where an in-range shed skips the trial.
    let hogs = sets(4, 10, 4);
    let mut overloaded =
        BlueScaleInterconnect::new(BlueScaleConfig::for_clients(4), &hogs).unwrap();
    assert!(!overloaded.composition().schedulable);
    let outcome = overloaded.reconfigure_client(4, &TaskSet::empty(), 0);
    assert_eq!(outcome, ReconfigOutcome::Rejected);
    assert_eq!(ic.composition().interfaces, before, "untouched on error");
}

#[test]
fn malformed_task_parameters_leave_configuration_untouched() {
    let mut ic =
        BlueScaleInterconnect::new(BlueScaleConfig::for_clients(4), &sets(4, 100, 1)).unwrap();
    let before = ic.composition().interfaces.clone();
    // Duplicate task ids within one set: rejected by the analysis layer.
    let bad = TaskSet::new(vec![
        Task::new(0, 100, 1).unwrap(),
        Task::new(0, 200, 1).unwrap(),
    ]);
    // The task-set constructor may reject duplicates outright; either
    // layer catching it is fine, as long as nothing was mutated.
    if let Ok(set) = bad {
        assert_eq!(ic.reconfigure_client(1, &set, 0), ReconfigOutcome::Rejected);
    }
    assert_eq!(ic.composition().interfaces, before);
}

#[test]
fn inject_for_unknown_client_errors_instead_of_panicking() {
    let mut ic =
        BlueScaleInterconnect::new(BlueScaleConfig::for_clients(4), &sets(4, 100, 1)).unwrap();
    let err = ic.try_inject(request(42, 1), 0).unwrap_err();
    assert!(matches!(
        err,
        InjectError::UnknownClient {
            client: 42,
            num_clients: 4,
            ..
        }
    ));
    // The trait-level path degrades gracefully: the request comes back.
    let bounced = ic.inject(request(42, 2), 0).unwrap_err();
    assert_eq!(bounced.id, 2);
    assert_eq!(ic.pending(), 0);

    // And a valid client still works through both paths.
    ic.try_inject(request(3, 3), 0).unwrap();
    assert_eq!(ic.pending(), 1);
}

#[test]
fn port_full_is_distinguishable_from_malformed() {
    let mut ic =
        BlueScaleInterconnect::new(BlueScaleConfig::for_clients(4), &sets(4, 100, 1)).unwrap();
    let capacity = ic.config().buffer_capacity;
    for id in 0..capacity as u64 {
        ic.try_inject(request(0, id + 1), 0).unwrap();
    }
    let err = ic.try_inject(request(0, 999), 0).unwrap_err();
    match err {
        InjectError::PortFull(req) => assert_eq!(req.id, 999),
        other => panic!("expected PortFull, got {other:?}"),
    }
}

/// Builds `config` on both engines and the sharded harness, and returns
/// the one typed error all three must agree on.
fn build_error(config: BlueScaleConfig) -> BuildError {
    let sets = sets(config.num_clients, 100, 1);
    let soa = BlueScaleInterconnect::new(config.clone(), &sets).unwrap_err();
    let reference =
        BlueScaleInterconnect::<PerSeEngine>::with_engine(config.clone(), &sets).unwrap_err();
    let Err(sharded) = ShardedSystem::new(config, &sets, 2) else {
        panic!("the sharded harness built an invalid configuration");
    };
    assert_eq!(soa, reference, "both engines reject alike");
    assert_eq!(soa, sharded, "the sharded harness inherits the check");
    soa
}

fn with_branch(branch: usize) -> BlueScaleConfig {
    BlueScaleConfig {
        branch,
        ..BlueScaleConfig::for_clients(16)
    }
}

/// Asserts that `config` fails to build with `InvalidConfig { field, value }`
/// on every engine, and that the message names the field and its rule.
fn assert_invalid(config: BlueScaleConfig, field: &'static str, value: usize) {
    let err = build_error(config);
    assert_eq!(err, BuildError::InvalidConfig { field, value });
    let rule = if field == "branch" {
        "must be in 2..=64"
    } else {
        "must be at least 1"
    };
    assert!(
        err.to_string().ends_with(&format!("{field} {rule}")),
        "{err}"
    );
}

#[test]
fn branch_zero_is_a_typed_build_error() {
    assert_invalid(with_branch(0), "branch", 0);
}

#[test]
fn branch_one_is_a_typed_build_error_not_a_hang() {
    // A fan-in of 1 never covers two clients: the level count would loop
    // forever if the check did not come first.
    assert_invalid(with_branch(1), "branch", 1);
}

#[test]
fn branch_above_sixty_four_is_a_typed_build_error() {
    assert_invalid(with_branch(65), "branch", 65);
    // The widest legal fan-in still builds.
    BlueScaleInterconnect::new(with_branch(64), &sets(16, 100, 1)).expect("branch 64 builds");
}

#[test]
fn zero_buffer_capacity_is_a_typed_build_error() {
    let config = BlueScaleConfig {
        buffer_capacity: 0,
        ..BlueScaleConfig::for_clients(16)
    };
    assert_invalid(config, "buffer_capacity", 0);
}

#[test]
fn zero_granularity_divisor_is_a_typed_build_error() {
    let config = BlueScaleConfig {
        granularity_divisor: 0,
        ..BlueScaleConfig::for_clients(16)
    };
    assert_invalid(config, "granularity_divisor", 0);
}

#[test]
fn single_se_tree_is_rejected_by_the_sharded_harness_only() {
    // Four clients fit one SE: the serial engines build it, the sharded
    // harness has no subtree to shard.
    let four = BlueScaleConfig::for_clients(4);
    let few = sets(4, 100, 1);
    BlueScaleInterconnect::new(four.clone(), &few).expect("one SE serves four clients");
    let Err(err) = ShardedSystem::new(four, &few, 2) else {
        panic!("the sharded harness built a single-SE tree");
    };
    assert_eq!(
        err,
        BuildError::InvalidConfig {
            field: "num_clients",
            value: 4
        }
    );
    assert!(err.to_string().contains("must exceed branch"), "{err}");
}

#[test]
fn zero_workers_is_a_typed_build_error_for_the_sharded_harness() {
    // Sixteen clients shard fine; zero workers cannot step a shard.
    let sixteen = BlueScaleConfig::for_clients(16);
    let Err(err) = ShardedSystem::new(sixteen, &sets(16, 100, 1), 0) else {
        panic!("the sharded harness built with zero workers");
    };
    assert_eq!(
        err,
        BuildError::InvalidConfig {
            field: "workers",
            value: 0
        }
    );
    assert!(
        err.to_string().contains("workers must be at least 1"),
        "{err}"
    );
}
