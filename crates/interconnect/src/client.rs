//! Traffic-generating clients.
//!
//! The paper's interconnect-level evaluation (Section 6.3) drives each
//! interconnect with *traffic generators* "simulating memory requests
//! without processing any data": periodic tasks whose jobs issue a burst of
//! memory transactions with an implicit deadline one period after release.
//! [`TrafficGenerator`] reproduces that: it wraps a [`TaskSet`], releases
//! `C` requests per job, and offers at most one request per cycle to its
//! client port (port width 1).

use crate::{AccessKind, ClientId, MemoryRequest};
use bluescale_rt::edf::EdfQueue;
use bluescale_rt::task::TaskSet;
use bluescale_sim::Cycle;

/// Per-task release bookkeeping inside a generator.
#[derive(Debug, Clone)]
struct TaskState {
    task_id: u32,
    period: Cycle,
    demand: u64,
    next_release: Cycle,
    next_addr: u64,
    addr_stride: u64,
}

/// A periodic traffic generator attached to one client port.
///
/// Pending requests are offered in EDF order: the paper's traffic
/// generators run a local scheduler that assigns request priorities with
/// GEDF (Section 6.3), so an urgent job released later overtakes a large
/// earlier burst *inside the client* before the interconnect even sees it.
///
/// # Example
///
/// ```
/// use bluescale_rt::task::{Task, TaskSet};
/// use bluescale_interconnect::client::TrafficGenerator;
///
/// let tasks = TaskSet::new(vec![Task::new(0, 100, 3)?])?;
/// let mut gen = TrafficGenerator::new(7, &tasks);
/// gen.on_cycle(0);
/// // The job released at cycle 0 carries 3 requests, offered one per cycle.
/// assert!(gen.peek().is_some());
/// let r = gen.take().expect("request pending");
/// assert_eq!(r.client, 7);
/// assert_eq!(r.deadline, 100);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TrafficGenerator {
    client: ClientId,
    tasks: Vec<TaskState>,
    pending: EdfQueue<MemoryRequest>,
    issued: u64,
    next_request_serial: u64,
    /// Earliest `next_release` across `tasks` ([`Cycle::MAX`] when
    /// taskless): lets [`on_cycle`](Self::on_cycle) return in one compare
    /// on the (vast majority of) cycles with no release due.
    earliest_release: Cycle,
    /// PALLOC-style bank partition `(banks, row_bytes)`: when set, this
    /// client's address walk stays inside DRAM bank `client % banks`
    /// under the modulo address map (`bank = (addr / row_bytes) % banks`).
    partition: Option<(u32, u64)>,
}

impl TrafficGenerator {
    /// Creates a generator for `client` running `tasks`. All tasks release
    /// their first job at cycle 0 (synchronous arrival — the worst case for
    /// contention, which is what the evaluation wants to expose).
    pub fn new(client: ClientId, tasks: &TaskSet) -> Self {
        let states = tasks
            .iter()
            .map(|t| TaskState {
                task_id: t.id(),
                period: t.period(),
                demand: t.wcet(),
                next_release: 0,
                // Give every (client, task) pair a distinct address region
                // so DRAM row locality differs between streams.
                next_addr: (client as u64) << 32 | (t.id() as u64) << 24,
                addr_stride: 64,
            })
            .collect();
        let mut this = Self {
            client,
            tasks: states,
            pending: EdfQueue::new(),
            issued: 0,
            next_request_serial: 0,
            earliest_release: 0,
            partition: None,
        };
        this.refresh_earliest_release();
        this
    }

    fn refresh_earliest_release(&mut self) {
        self.earliest_release = self
            .tasks
            .iter()
            .map(|t| t.next_release)
            .min()
            .unwrap_or(Cycle::MAX);
    }

    /// Creates a generator whose task `i` releases its first job at
    /// `offsets[i]` instead of cycle 0 — staggered phasing for
    /// steady-state studies (synchronous release is the contention worst
    /// case; real systems start de-phased).
    ///
    /// # Panics
    ///
    /// Panics if `offsets.len()` differs from the task count.
    pub fn with_offsets(client: ClientId, tasks: &TaskSet, offsets: &[Cycle]) -> Self {
        let mut this = Self::new(client, tasks);
        assert_eq!(
            offsets.len(),
            this.tasks.len(),
            "one offset per task required"
        );
        for (state, &offset) in this.tasks.iter_mut().zip(offsets) {
            state.next_release = offset;
        }
        this.refresh_earliest_release();
        this
    }

    /// Confines this client's address walk to DRAM bank `client % banks`
    /// under the modulo address map (`bank = (addr / row_bytes) % banks`)
    /// — software bank partitioning in the PALLOC style, the workload
    /// shape per-bank regulation assumes. Every task's stream is rebased
    /// onto the client's bank stripe; subsequent strides skip foreign
    /// banks' rows at each row crossing. The default layout
    /// (`client << 32 | task << 24`, stride 64) puts *every* stream in
    /// bank 0 of the default map — all clients collide on one bank — so
    /// bank-sensitive experiments opt in via this call.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `row_bytes` is zero, or if `row_bytes` is not
    /// a multiple of the address stride (the row-crossing skip must land
    /// exactly on a row boundary).
    pub fn set_bank_partition(&mut self, banks: u32, row_bytes: u64) {
        assert!(banks > 0, "at least one bank required");
        assert!(row_bytes > 0, "row size must be positive");
        self.partition = Some((banks, row_bytes));
        let client = self.client;
        for t in &mut self.tasks {
            assert!(
                row_bytes.is_multiple_of(t.addr_stride),
                "row size must be a multiple of the address stride"
            );
            let base = (client as u64) << 32 | (t.task_id as u64) << 24;
            t.next_addr = base + (client % banks) as u64 * row_bytes;
        }
    }

    /// One stride forward in a task's address stream, staying inside the
    /// client's bank stripe when a partition is set: a walk that just
    /// crossed a row boundary jumps over the other banks' rows.
    fn advance_addr(addr: u64, stride: u64, partition: Option<(u32, u64)>) -> u64 {
        let next = addr.wrapping_add(stride);
        match partition {
            Some((banks, row_bytes)) if next.is_multiple_of(row_bytes) => {
                next.wrapping_add((banks as u64 - 1) * row_bytes)
            }
            _ => next,
        }
    }

    /// Replaces the generator's task set from cycle `now` onward — the
    /// client-side half of a live reconfiguration (join, leave, task
    /// update). The request serial counter and the issued tally continue,
    /// so ids never collide with earlier traffic; requests already released
    /// under the old contract stay queued and drain normally; every new
    /// task releases its first job at `now` (a joining tenant's synchronous
    /// start). An empty set turns the generator silent once its backlog
    /// drains.
    pub fn set_tasks(&mut self, tasks: &TaskSet, now: Cycle) {
        self.tasks = tasks
            .iter()
            .map(|t| TaskState {
                task_id: t.id(),
                period: t.period(),
                demand: t.wcet(),
                next_release: now,
                // The full 32-bit client id occupies bits 32..64, so the
                // per-client 4 GiB windows stay disjoint for ids ≥ 65 536.
                next_addr: (self.client as u64) << 32 | (t.id() as u64) << 24,
                addr_stride: 64,
            })
            .collect();
        if let Some((banks, row_bytes)) = self.partition {
            self.set_bank_partition(banks, row_bytes);
        }
        self.refresh_earliest_release();
    }

    /// The client port this generator feeds.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Total requests released so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The longest deadline window across this generator's tasks: with
    /// implicit deadlines (absolute deadline = release + period) a request
    /// can legitimately stay outstanding for up to its task's period, so
    /// the maximum period bounds how long *any* healthy request may be in
    /// flight. Zero for a taskless generator. Guard validation compares
    /// watchdog timeouts against this value.
    pub fn longest_deadline_window(&self) -> Cycle {
        self.tasks.iter().map(|t| t.period).max().unwrap_or(0)
    }

    /// Requests released but not yet accepted by the interconnect.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// The next globally unique request id: the 32-bit client id in the
    /// high word, the per-client serial in the low word. The old layout
    /// packed the client into the top 16 bits (`client << 48`), so client
    /// ids ≥ 65 536 silently wrapped into the serial field and collided
    /// with other clients' ids; 32/32 keeps ids unique up to 2³² clients
    /// issuing 2³² requests each.
    fn next_id(client: ClientId, serial: &mut u64) -> u64 {
        debug_assert!(
            *serial < (1 << 32),
            "client {client} serial overflowed the 32-bit id field"
        );
        let id = ((client as u64) << 32) | *serial;
        *serial += 1;
        id
    }

    /// Advances task releases to cycle `now`, enqueueing the requests of
    /// every job released at this cycle. Call exactly once per cycle.
    pub fn on_cycle(&mut self, now: Cycle) {
        self.on_cycle_with_factor(now, 1);
    }

    /// Like [`on_cycle`](Self::on_cycle), but every released job's demand
    /// is multiplied by `extra_factor` — the hook a fault plan's rogue-demand
    /// fault uses to make the client exceed its declared parameters for a
    /// window of cycles without mutating the generator's own configuration.
    pub fn on_cycle_with_factor(&mut self, now: Cycle, extra_factor: u64) {
        if now < self.earliest_release {
            return;
        }
        for t in &mut self.tasks {
            while t.next_release <= now {
                let release = t.next_release;
                let deadline = release + t.period;
                for _ in 0..t.demand * extra_factor {
                    let id = Self::next_id(self.client, &mut self.next_request_serial);
                    self.issued += 1;
                    self.pending.push(
                        MemoryRequest {
                            id,
                            client: self.client,
                            task: t.task_id,
                            addr: t.next_addr,
                            kind: if self.next_request_serial.is_multiple_of(4) {
                                AccessKind::Write
                            } else {
                                AccessKind::Read
                            },
                            issued_at: release,
                            deadline,
                            blocked_cycles: 0,
                        },
                        deadline,
                    );
                    t.next_addr = Self::advance_addr(t.next_addr, t.addr_stride, self.partition);
                }
                t.next_release += t.period;
            }
        }
        self.refresh_earliest_release();
    }

    /// Enqueues `count` extra requests released *now*, modelled on the
    /// generator's first task (same stride and deadline window). This is
    /// the fault plan's request-burst hook: traffic the client never
    /// declared, appearing at a chosen cycle. Returns how many requests
    /// were actually enqueued (0 when the generator has no tasks).
    pub fn inject_burst(&mut self, now: Cycle, count: u64) -> u64 {
        let Some(t) = self.tasks.first() else {
            return 0;
        };
        let (task_id, period, stride) = (t.task_id, t.period, t.addr_stride);
        let mut addr = t.next_addr;
        for _ in 0..count {
            let id = Self::next_id(self.client, &mut self.next_request_serial);
            self.issued += 1;
            let deadline = now + period;
            self.pending.push(
                MemoryRequest {
                    id,
                    client: self.client,
                    task: task_id,
                    addr,
                    kind: if self.next_request_serial.is_multiple_of(4) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    issued_at: now,
                    deadline,
                    blocked_cycles: 0,
                },
                deadline,
            );
            addr = Self::advance_addr(addr, stride, self.partition);
        }
        self.tasks[0].next_addr = addr;
        count
    }

    /// The earliest cycle ≥ `now` at which this generator can act: `now`
    /// itself while a backlog is queued (it will offer a request every
    /// cycle), otherwise the earliest pending job release across its tasks
    /// ([`Cycle::MAX`] for a taskless generator). The release catch-up loop
    /// in [`on_cycle`](Self::on_cycle) already tolerates skipped cycles, so
    /// a harness may jump straight to the reported cycle.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        if !self.pending.is_empty() {
            return now;
        }
        self.earliest_release
    }

    /// The earliest pending job release across this generator's tasks
    /// ([`Cycle::MAX`] for a taskless generator), whatever its backlog.
    pub fn next_release(&self) -> Cycle {
        self.earliest_release
    }

    /// Borrows the next request to offer (earliest deadline first).
    pub fn peek(&self) -> Option<&MemoryRequest> {
        self.pending.peek()
    }

    /// Takes the next request to offer the interconnect (EDF order).
    pub fn take(&mut self) -> Option<MemoryRequest> {
        self.pending.pop().map(|(r, _)| r)
    }

    /// Returns a rejected request to the queue (the port was full this
    /// cycle; it competes again by deadline next cycle).
    pub fn give_back(&mut self, request: MemoryRequest) {
        let deadline = request.deadline;
        self.pending.push(request, deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluescale_rt::task::Task;

    fn gen(specs: &[(u64, u64)]) -> TrafficGenerator {
        let set = TaskSet::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(t, c))| Task::new(i as u32, t, c).unwrap())
                .collect(),
        )
        .unwrap();
        TrafficGenerator::new(3, &set)
    }

    #[test]
    fn request_ids_stay_unique_above_the_u16_client_boundary() {
        // Regression: ids used to pack the client into bits 48..64, so
        // client 65 536 collided with client 0's serials, 65 537 with
        // client 1's, and so on. Generators straddling the old boundary
        // must now produce fully disjoint id streams.
        let set = TaskSet::new(vec![Task::new(0, 10, 4).unwrap()]).unwrap();
        let clients: Vec<u32> = vec![0, 1, 65_535, 65_536, 65_537, 1_000_000];
        let mut ids = std::collections::HashSet::new();
        for &c in &clients {
            let mut g = TrafficGenerator::new(c, &set);
            for now in 0..40 {
                g.on_cycle(now);
                while let Some(r) = g.take() {
                    assert_eq!(r.client, c);
                    assert!(
                        ids.insert(r.id),
                        "duplicate request id {:#x} for client {c}",
                        r.id
                    );
                    assert_eq!(r.id >> 32, c as u64, "client field occupies bits 32..64");
                }
            }
        }
    }

    #[test]
    fn releases_demand_requests_per_job() {
        let mut g = gen(&[(10, 3)]);
        g.on_cycle(0);
        assert_eq!(g.backlog(), 3);
        assert_eq!(g.issued(), 3);
    }

    #[test]
    fn releases_periodically() {
        let mut g = gen(&[(10, 2)]);
        for now in 0..25 {
            g.on_cycle(now);
            while g.take().is_some() {}
        }
        // Releases at 0, 10, 20 → 6 requests.
        assert_eq!(g.issued(), 6);
    }

    #[test]
    fn deadline_is_release_plus_period() {
        let mut g = gen(&[(50, 1)]);
        g.on_cycle(0);
        assert_eq!(g.take().unwrap().deadline, 50);
        for now in 1..=50 {
            g.on_cycle(now);
        }
        let r = g.take().unwrap();
        assert_eq!(r.issued_at, 50);
        assert_eq!(r.deadline, 100);
    }

    #[test]
    fn catch_up_after_gap() {
        // If on_cycle is first called late, all missed releases appear.
        let mut g = gen(&[(10, 1)]);
        g.on_cycle(35);
        // Releases at 0, 10, 20, 30.
        assert_eq!(g.issued(), 4);
    }

    #[test]
    fn next_event_pins_backlog_and_reports_earliest_release() {
        let mut g = gen(&[(10, 1), (25, 1)]);
        assert_eq!(g.next_event(0), 0, "first releases are due at cycle 0");
        g.on_cycle(0);
        assert_eq!(g.next_event(1), 1, "backlogged generator is busy now");
        while g.take().is_some() {}
        assert_eq!(g.next_event(1), 10, "earliest of next releases 10 and 25");
        g.on_cycle(10);
        while g.take().is_some() {}
        assert_eq!(g.next_event(11), 20);
        let empty = TrafficGenerator::new(0, &TaskSet::new(vec![]).unwrap());
        assert_eq!(empty.next_event(5), Cycle::MAX);
    }

    #[test]
    fn bank_partition_confines_each_client_to_its_stripe() {
        const BANKS: u32 = 8;
        const ROW_BYTES: u64 = 8192;
        let bank_of = |addr: u64| ((addr / ROW_BYTES) % BANKS as u64) as u32;
        let set = TaskSet::new(vec![Task::new(0, 10, 4).unwrap()]).unwrap();
        for client in [0u32, 3, 9, 17] {
            let mut g = TrafficGenerator::new(client, &set);
            g.set_bank_partition(BANKS, ROW_BYTES);
            // Walk far enough to cross several row boundaries
            // (8192 / 64 = 128 requests per row).
            let mut banks_seen = std::collections::HashSet::new();
            for now in 0..1_000 {
                g.on_cycle(now);
                while let Some(r) = g.take() {
                    banks_seen.insert(bank_of(r.addr));
                }
            }
            assert_eq!(
                banks_seen.into_iter().collect::<Vec<_>>(),
                vec![client % BANKS],
                "client {client} must stay in its own bank"
            );
        }
    }

    #[test]
    fn unpartitioned_default_walk_shares_bank_zero() {
        // Documents the aliasing the partition exists to break: the default
        // layout puts every client's stream in bank 0 of the default map.
        let set = TaskSet::new(vec![Task::new(0, 10, 1).unwrap()]).unwrap();
        for client in [0u32, 5, 11] {
            let mut g = TrafficGenerator::new(client, &set);
            g.on_cycle(0);
            let addr = g.take().unwrap().addr;
            assert_eq!((addr / 8192) % 8, 0);
        }
    }

    #[test]
    fn bank_partition_survives_set_tasks_and_bursts() {
        const BANKS: u32 = 8;
        const ROW_BYTES: u64 = 8192;
        let bank_of = |addr: u64| ((addr / ROW_BYTES) % BANKS as u64) as u32;
        let set = TaskSet::new(vec![Task::new(0, 10, 2).unwrap()]).unwrap();
        let mut g = TrafficGenerator::new(5, &set);
        g.set_bank_partition(BANKS, ROW_BYTES);
        let replacement = TaskSet::new(vec![Task::new(1, 20, 2).unwrap()]).unwrap();
        g.set_tasks(&replacement, 40);
        g.inject_burst(40, 300); // crosses at least two row boundaries
        g.on_cycle(40);
        let mut banks_seen = std::collections::HashSet::new();
        while let Some(r) = g.take() {
            banks_seen.insert(bank_of(r.addr));
        }
        assert_eq!(banks_seen.into_iter().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn give_back_competes_by_deadline() {
        // Two tasks: the urgent one (period 10) and a lazy one (period 90).
        let mut g = gen(&[(10, 1), (90, 1)]);
        g.on_cycle(0);
        let urgent = g.take().unwrap();
        assert_eq!(urgent.deadline, 10);
        // Rejected by a full port: it must still beat the lazy request.
        g.give_back(urgent);
        assert_eq!(g.take().unwrap().deadline, 10);
        assert_eq!(g.take().unwrap().deadline, 90);
    }

    #[test]
    fn offsets_delay_first_release() {
        let set = TaskSet::new(vec![
            Task::new(0, 10, 1).unwrap(),
            Task::new(1, 20, 1).unwrap(),
        ])
        .unwrap();
        let mut g = TrafficGenerator::with_offsets(0, &set, &[3, 7]);
        g.on_cycle(0);
        assert_eq!(g.backlog(), 0, "nothing released before its offset");
        g.on_cycle(3);
        assert_eq!(g.backlog(), 1);
        g.on_cycle(7);
        assert_eq!(g.backlog(), 2);
        // Subsequent periods keep the phase: next releases at 13 and 27.
        g.on_cycle(13);
        assert_eq!(g.issued(), 3);
    }

    #[test]
    #[should_panic(expected = "one offset per task")]
    fn wrong_offset_count_panics() {
        let set = TaskSet::new(vec![Task::new(0, 10, 1).unwrap()]).unwrap();
        let _ = TrafficGenerator::with_offsets(0, &set, &[1, 2]);
    }

    #[test]
    fn rogue_generator_floods() {
        let mut g = gen(&[(10, 2)]);
        g.on_cycle_with_factor(0, 5);
        assert_eq!(g.backlog(), 10, "5× the declared demand");
    }

    #[test]
    fn burst_injects_undeclared_traffic_with_fresh_ids() {
        let mut g = gen(&[(10, 1)]);
        g.on_cycle(0);
        assert_eq!(g.inject_burst(5, 4), 4);
        assert_eq!(g.issued(), 5);
        let mut ids = Vec::new();
        while let Some(r) = g.take() {
            assert!(r.deadline == 10 || r.deadline == 15);
            ids.push(r.id);
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5, "burst ids never collide with releases");
    }

    #[test]
    fn burst_on_taskless_generator_is_a_noop() {
        let set = TaskSet::empty();
        let mut g = TrafficGenerator::new(0, &set);
        assert_eq!(g.inject_burst(0, 8), 0);
        assert_eq!(g.backlog(), 0);
    }

    #[test]
    fn set_tasks_preserves_serials_and_backlog() {
        let mut g = gen(&[(10, 2)]);
        g.on_cycle(0);
        let before = g.take().unwrap();
        let kept_backlog = g.backlog();
        assert_eq!(kept_backlog, 1, "one release still queued");
        let new_set = TaskSet::new(vec![Task::new(5, 20, 1).unwrap()]).unwrap();
        g.set_tasks(&new_set, 7);
        assert_eq!(g.backlog(), kept_backlog, "old backlog survives a retask");
        assert_eq!(g.next_event(7), 7, "backlogged generator is busy");
        g.on_cycle(7);
        assert_eq!(g.issued(), 3, "new task releases at the retask cycle");
        let mut ids = vec![before.id];
        while let Some(r) = g.take() {
            ids.push(r.id);
        }
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "serials continue across the retask");
        // Releases keep the new phase and period afterwards.
        while g.take().is_some() {}
        assert_eq!(g.next_event(8), 27);
        // The empty set silences the generator once drained.
        g.set_tasks(&TaskSet::empty(), 30);
        assert_eq!(g.next_event(30), Cycle::MAX);
    }

    #[test]
    fn urgent_job_overtakes_large_backlog() {
        // A 6-request burst with a late deadline is queued; an urgent job
        // released later must be offered first (client-side GEDF).
        let mut g = gen(&[(500, 6), (20, 1)]);
        g.on_cycle(0);
        // Drain the cycle-0 queue: the (20,1) request first, then bursts.
        assert_eq!(g.take().unwrap().deadline, 20);
        g.on_cycle(20); // next urgent release, burst still queued
        assert_eq!(g.take().unwrap().deadline, 40);
        assert_eq!(g.take().unwrap().deadline, 500);
    }

    #[test]
    fn request_ids_unique_across_tasks() {
        let mut g = gen(&[(10, 3), (20, 4)]);
        g.on_cycle(0);
        let mut ids = Vec::new();
        while let Some(r) = g.take() {
            ids.push(r.id);
        }
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn multiple_tasks_all_release() {
        let mut g = gen(&[(10, 1), (15, 2), (30, 3)]);
        g.on_cycle(0);
        assert_eq!(g.backlog(), 6);
    }

    #[test]
    fn address_regions_distinct_per_task() {
        let mut g = gen(&[(10, 1), (10, 1)]);
        g.on_cycle(0);
        let a = g.take().unwrap().addr;
        let b = g.take().unwrap().addr;
        assert_ne!(a >> 24, b >> 24);
    }
}
