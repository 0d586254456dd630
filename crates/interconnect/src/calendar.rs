//! The release calendar: a harness's traffic generators, each filed under
//! the next cycle it can act.
//!
//! A generator does something in a client phase only when a job release
//! is due, it holds a backlog, or a request-burst fault opens for it; a
//! visit at any other cycle is a no-op. [`Clients`] keeps every generator
//! either on the *retry list* (it holds a backlog, so it offers again next
//! cycle) or in a min-heap keyed on `(next release, index)`, and a client
//! phase visits only the generators due at `now`. The per-cycle cost is
//! O(due · log n) instead of O(n), and the fast-forward probe reads the
//! next client event off the calendar's head instead of asking every
//! generator. A heap rather than a timing wheel because of that probe: a
//! heap answers "earliest filed cycle" in O(1), a wheel only by scanning
//! its buckets.
//!
//! Visits run in ascending client id within a cycle, whatever order the
//! generators were filed in, so a run injects exactly what a scan of
//! every generator would (pinned by `tests/calendar_differential.rs`).

use crate::client::TrafficGenerator;
use crate::{ClientId, MemoryRequest};
use bluescale_rt::task::TaskSet;
use bluescale_sim::fault::{FaultClass, FaultPlan};
use bluescale_sim::metrics::{ComponentId, Counter, Event, MetricsRegistry};
use bluescale_sim::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The traffic generators of one harness (consecutive client ids) plus
/// their release calendar.
#[derive(Debug)]
pub struct Clients {
    generators: Vec<TrafficGenerator>,
    /// Client id of `generators[0]`.
    base: ClientId,
    /// `(cycle, index)` for each generator without a backlog that has a
    /// release pending, earliest first. A retask files its generator again
    /// without removing the old entry; a stale entry costs one no-op visit
    /// (and can only make the head earlier, which is conservative).
    releases: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// Generators the last phase left with a backlog, ascending: due again
    /// next cycle.
    retry: Vec<u32>,
    /// One phase's due list, kept to avoid a per-cycle allocation.
    due: Vec<u32>,
}

impl Clients {
    /// Files `generators` under their first releases.
    ///
    /// # Panics
    ///
    /// Panics unless the generators carry consecutive ascending client ids.
    pub fn new(generators: Vec<TrafficGenerator>) -> Self {
        let base = generators.first().map_or(0, TrafficGenerator::client);
        assert!(
            generators
                .iter()
                .zip(base..)
                .all(|(g, id)| g.client() == id),
            "generators must carry consecutive ascending client ids"
        );
        let mut this = Self {
            generators,
            base,
            releases: BinaryHeap::new(),
            retry: Vec::new(),
            due: Vec::new(),
        };
        for i in 0..this.generators.len() {
            this.file(i as u32);
        }
        this
    }

    /// Number of generators.
    pub fn len(&self) -> usize {
        self.generators.len()
    }

    /// Whether there are no generators.
    pub fn is_empty(&self) -> bool {
        self.generators.is_empty()
    }

    /// The generators, in client-id order.
    pub fn iter(&self) -> std::slice::Iter<'_, TrafficGenerator> {
        self.generators.iter()
    }

    /// Confines every generator's address walk to its own DRAM bank stripe
    /// (see [`TrafficGenerator::set_bank_partition`]). Release timing is
    /// unaffected.
    pub fn set_bank_partition(&mut self, banks: u32, row_bytes: u64) {
        for generator in &mut self.generators {
            generator.set_bank_partition(banks, row_bytes);
        }
    }

    /// Retasks generator `index` from cycle `now` (see
    /// [`TrafficGenerator::set_tasks`]) and files it under `now`, when the
    /// new tasks release their first jobs.
    pub fn retask(&mut self, index: usize, tasks: &TaskSet, now: Cycle) {
        self.generators[index].set_tasks(tasks, now);
        if !tasks.is_empty() {
            self.releases.push(Reverse((now, index as u32)));
        }
    }

    /// Drains every generator's backlog through `f` (end-of-run
    /// accounting). A drained generator left on the retry list gets one
    /// no-op visit before it is filed under its next release.
    pub(crate) fn drain_backlogs(&mut self, mut f: impl FnMut(MemoryRequest)) {
        for generator in &mut self.generators {
            while let Some(request) = generator.take() {
                f(request);
            }
        }
    }

    /// The earliest cycle ≥ `now` at which some generator can act: `now`
    /// while any holds a backlog, otherwise the calendar's head
    /// ([`Cycle::MAX`] when nothing is filed). O(1) — the fast-forward
    /// probe's client term.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        if !self.retry.is_empty() {
            return now;
        }
        self.releases
            .peek()
            .map_or(Cycle::MAX, |&Reverse((at, _))| at.max(now))
    }

    /// The per-cycle client phase every engine shares: each generator due
    /// at `now`, in ascending client id, releases this cycle's jobs (demand
    /// scaled by any rogue-demand fault), takes any due request burst, then
    /// offers at most one request through `accept` — the engine's
    /// injection step. Acceptances count `Issued`; a bounced request goes
    /// back to its generator (retried next cycle) and counts `Rejected`.
    pub fn phase<F>(
        &mut self,
        faults: &FaultPlan,
        registry: &mut MetricsRegistry,
        now: Cycle,
        mut accept: F,
    ) where
        F: FnMut(MemoryRequest) -> Result<(), MemoryRequest>,
    {
        let have_faults = !faults.is_empty();
        if have_faults {
            for client in faults.burst_clients_at(now) {
                match client.checked_sub(self.base) {
                    Some(i) if (i as usize) < self.generators.len() => {
                        self.releases.push(Reverse((now, i)));
                    }
                    _ => {}
                }
            }
        }
        self.collect_due(now);
        let due = std::mem::take(&mut self.due);
        for &i in &due {
            let client = &mut self.generators[i as usize];
            if have_faults {
                let owner = client.client();
                client.on_cycle_with_factor(now, faults.demand_multiplier(owner, now));
                let burst = faults.burst_at(owner, now);
                if burst > 0 && client.inject_burst(now, burst) > 0 {
                    registry.inc(ComponentId::System, Counter::FaultsInjected);
                    registry.inc(ComponentId::Client(owner), Counter::FaultsInjected);
                    registry.record(
                        now,
                        Event::FaultInjected {
                            component: ComponentId::Client(owner),
                            class: FaultClass::RequestBurst,
                        },
                    );
                }
            } else {
                client.on_cycle(now);
            }
            if let Some(req) = client.take() {
                let owner = req.client;
                match accept(req) {
                    Ok(()) => {
                        registry.inc(ComponentId::System, Counter::Issued);
                        registry.inc(ComponentId::Client(owner), Counter::Issued);
                    }
                    Err(rejected) => {
                        client.give_back(rejected);
                        registry.inc(ComponentId::System, Counter::Rejected);
                        registry.inc(ComponentId::Client(owner), Counter::Rejected);
                    }
                }
            }
            self.file(i);
        }
        self.due = due;
    }

    /// Files generator `i` after a visit (or at construction): on the
    /// retry list while it holds a backlog, otherwise under its next
    /// release, which a visit has moved past the current cycle.
    fn file(&mut self, i: u32) {
        let generator = &self.generators[i as usize];
        if generator.backlog() > 0 {
            self.retry.push(i);
        } else if generator.next_release() != Cycle::MAX {
            self.releases.push(Reverse((generator.next_release(), i)));
        }
    }

    /// Fills `due` with the generators to visit at `now`, ascending and
    /// without repeats: the retry list merged with every entry filed at or
    /// before `now`.
    fn collect_due(&mut self, now: Cycle) {
        let due = &mut self.due;
        due.clear();
        let mut retry = self.retry.drain(..).peekable();
        while let Some(&Reverse((at, i))) = self.releases.peek() {
            if at > now {
                break;
            }
            self.releases.pop();
            while let Some(r) = retry.next_if(|&r| r < i) {
                due.push(r);
            }
            due.push(i);
        }
        due.extend(retry);
        // Entries filed under different past cycles (a retask dated before
        // the current cycle) pop in cycle order, not id order.
        if !due.is_sorted() {
            due.sort_unstable();
        }
        due.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluescale_rt::task::Task;
    use bluescale_sim::fault::{FaultKind, FaultWindow};

    fn set(period: u64, wcet: u64) -> TaskSet {
        TaskSet::new(vec![Task::new(0, period, wcet).unwrap()]).unwrap()
    }

    /// The scan the calendar replaces: every generator, every cycle.
    fn scan_phase(
        generators: &mut [TrafficGenerator],
        faults: &FaultPlan,
        now: Cycle,
        accept: &mut impl FnMut(MemoryRequest) -> Result<(), MemoryRequest>,
    ) {
        for client in generators {
            let owner = client.client();
            client.on_cycle_with_factor(now, faults.demand_multiplier(owner, now));
            let burst = faults.burst_at(owner, now);
            if burst > 0 {
                client.inject_burst(now, burst);
            }
            if let Some(req) = client.take() {
                if let Err(rejected) = accept(req) {
                    client.give_back(rejected);
                }
            }
        }
    }

    /// A port that bounces about a third of the offers, deterministically.
    fn flaky_port(
        log: &mut Vec<(Cycle, u64)>,
        now: Cycle,
        req: MemoryRequest,
    ) -> Result<(), MemoryRequest> {
        if (now + req.id).is_multiple_of(3) {
            return Err(req);
        }
        log.push((now, req.id));
        Ok(())
    }

    #[test]
    fn phases_match_the_full_scan_offer_for_offer() {
        // Mixed periods and phases, bounced offers (backlogs), a burst, a
        // rogue window and retasks — including one dated in the past and
        // one to the empty set — must offer exactly what the scan offers,
        // in the same order.
        let base = 40;
        let build = || -> Vec<TrafficGenerator> {
            (0..12u32)
                .map(|i| {
                    let s = set(10 + 7 * u64::from(i), 1 + u64::from(i % 3));
                    TrafficGenerator::with_offsets(base + i, &s, &[u64::from(i) * 5])
                })
                .collect()
        };
        let mut faults = FaultPlan::new(1);
        faults.push(
            FaultKind::RequestBurst {
                client: base + 3,
                requests: 4,
            },
            FaultWindow::new(57, 60),
        );
        faults.push(
            FaultKind::RogueDemand {
                client: base + 5,
                factor: 3,
            },
            FaultWindow::new(100, 180),
        );
        let retasks = [
            (90, 2usize, set(13, 2), 90),
            (140, 7, set(9, 1), 120),
            (150, 4, TaskSet::empty(), 150),
        ];

        let mut scanned = build();
        let mut calendar = Clients::new(build());
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let mut registry = MetricsRegistry::new();
        for now in 0..400 {
            for (at, i, tasks, dated) in &retasks {
                if *at == now {
                    scanned[*i].set_tasks(tasks, *dated);
                    calendar.retask(*i, tasks, *dated);
                }
            }
            scan_phase(&mut scanned, &faults, now, &mut |r| {
                flaky_port(&mut want, now, r)
            });
            calendar.phase(&faults, &mut registry, now, |r| {
                flaky_port(&mut got, now, r)
            });
        }
        assert!(want.len() > 200, "non-vacuous: {} offers", want.len());
        assert_eq!(got, want);
        let backlog =
            |g: &[TrafficGenerator]| g.iter().map(TrafficGenerator::backlog).collect::<Vec<_>>();
        assert_eq!(backlog(&calendar.generators), backlog(&scanned));
    }

    #[test]
    fn head_tracks_the_earliest_release_and_backlogs() {
        let generators = vec![
            TrafficGenerator::with_offsets(0, &set(50, 2), &[30]),
            TrafficGenerator::with_offsets(1, &set(40, 1), &[12]),
        ];
        let mut clients = Clients::new(generators);
        assert_eq!(clients.next_event(0), 12, "earliest first release");
        let mut registry = MetricsRegistry::new();
        let faults = FaultPlan::default();
        clients.phase(&faults, &mut registry, 12, |_| Ok(()));
        assert_eq!(
            clients.next_event(13),
            30,
            "client 1 drained, refiled at 52"
        );
        clients.phase(&faults, &mut registry, 30, |_| Ok(()));
        assert_eq!(clients.next_event(31), 31, "client 0 still holds a backlog");
        clients.phase(&faults, &mut registry, 31, |_| Ok(()));
        assert_eq!(clients.next_event(32), 52);
        clients.retask(0, &set(20, 1), 40);
        assert_eq!(
            clients.next_event(32),
            40,
            "a retask files its first release"
        );
        let empty = Clients::new(Vec::new());
        assert_eq!(empty.next_event(7), Cycle::MAX);
    }

    #[test]
    #[should_panic(expected = "consecutive ascending client ids")]
    fn gaps_in_client_ids_are_rejected() {
        let s = set(10, 1);
        let _ = Clients::new(vec![
            TrafficGenerator::new(0, &s),
            TrafficGenerator::new(2, &s),
        ]);
    }
}
