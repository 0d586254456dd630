//! Differential test pinning the release calendar to the full client scan
//! it replaced.
//!
//! `System`'s client phase visits only the generators the calendar says
//! are due, in ascending client id. The oracle here is the scan written
//! against public APIs only: every generator, every cycle, released,
//! offered, and given back on a bounce. Both must inject the same requests
//! in the same order, so the counters and the per-response latency
//! sequence agree exactly — on BlueScale (dedicated leaf ports) and on
//! AXI-IC^RT, whose shared queue makes the injection order within a cycle
//! observable.

use bluescale_repro::baselines::AxiIcRt;
use bluescale_repro::core::{BlueScaleConfig, BlueScaleInterconnect};
use bluescale_repro::interconnect::client::TrafficGenerator;
use bluescale_repro::interconnect::system::System;
use bluescale_repro::interconnect::Interconnect;
use bluescale_repro::rt::task::TaskSet;
use bluescale_repro::sim::metrics::{ComponentId, Counter};
use bluescale_repro::sim::rng::SimRng;
use bluescale_repro::sim::Cycle;
use bluescale_repro::workload::synthetic::{generate, SyntheticConfig};

const HORIZON: Cycle = 12_000;

/// What both harnesses must agree on: issued, rejected and completed
/// counts plus the latency of every delivered response, in order.
#[derive(Debug, PartialEq)]
struct Outcome {
    issued: u64,
    rejected: u64,
    completed: u64,
    latencies: Vec<f64>,
}

/// The oracle: the full per-cycle scan over every generator.
fn scan(mut ic: Box<dyn Interconnect>, sets: &[TaskSet]) -> Outcome {
    let mut clients: Vec<TrafficGenerator> = sets
        .iter()
        .enumerate()
        .map(|(i, set)| TrafficGenerator::new(i as u32, set))
        .collect();
    let mut out = Outcome {
        issued: 0,
        rejected: 0,
        completed: 0,
        latencies: Vec::new(),
    };
    for now in 0..HORIZON {
        for client in &mut clients {
            client.on_cycle(now);
            if let Some(req) = client.take() {
                match ic.inject(req, now) {
                    Ok(()) => out.issued += 1,
                    Err(rejected) => {
                        out.rejected += 1;
                        client.give_back(rejected);
                    }
                }
            }
        }
        ic.step(now);
        while ic.pop_service_event().is_some() {}
        while let Some(resp) = ic.pop_response() {
            out.completed += 1;
            out.latencies.push(resp.latency() as f64);
        }
    }
    out
}

fn calendar(ic: Box<dyn Interconnect>, sets: &[TaskSet]) -> Outcome {
    let mut sys = System::new(ic, sets);
    let mut m = sys.run(HORIZON);
    let registry = sys.registry();
    Outcome {
        issued: registry.counter(ComponentId::System, Counter::Issued),
        rejected: registry.counter(ComponentId::System, Counter::Rejected),
        completed: m.completed(),
        latencies: m.latency().as_slice().to_vec(),
    }
}

fn assert_agree(build: impl Fn() -> Box<dyn Interconnect>, sets: &[TaskSet], label: &str) {
    let want = scan(build(), sets);
    let got = calendar(build(), sets);
    assert!(
        want.rejected > 0,
        "{label}: the workload must bounce offers"
    );
    assert!(want.completed > 1_000, "{label}: non-vacuous");
    assert_eq!(got, want, "{label}: the calendar must match the full scan");
}

fn fig6_sets(clients: usize) -> Vec<TaskSet> {
    generate(
        &SyntheticConfig::fig6(clients),
        &mut SimRng::seed_from(0xCA1E),
    )
}

#[test]
fn bluescale_client_phase_matches_the_full_scan() {
    let sets = fig6_sets(16);
    let build = || -> Box<dyn Interconnect> {
        let config = BlueScaleConfig::for_clients(sets.len());
        Box::new(BlueScaleInterconnect::new(config, &sets).expect("valid task sets"))
    };
    assert_agree(build, &sets, "bluescale");
}

#[test]
fn shared_queue_sees_the_same_injection_order() {
    let sets = fig6_sets(16);
    assert_agree(|| Box::new(AxiIcRt::new(sets.len(), 8, 1)), &sets, "axi");
}
