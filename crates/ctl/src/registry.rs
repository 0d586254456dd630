//! The tenant registry: durable admission state over a live BlueScale
//! system.
//!
//! The registry owns a [`System`] sized for `capacity` client slots (all
//! initially idle) and maps tenant identities onto slots. Every admission
//! decision runs through the interconnect's real, deterministic admission
//! path — trial along the request path, exact rational root test, commit at
//! replenishment boundaries — so replaying the same operation sequence
//! from the same starting state reproduces the same decisions and the
//! same slot assignments bit-for-bit. That determinism is what makes the
//! journal a sufficient crash record: recovery is replay, not state
//! surgery.
//!
//! The **admission state** a recovery pins bit-identical is captured by
//! [`state_digest`](ControlRegistry::state_digest): the tenant table
//! (identity, class, slot, declared tasks) plus the free-slot set.
//! Sim-side metric streams (per-tenant miss/latency) are volatile and
//! restart empty after a crash — by design; they are measurements, not
//! reservations.

use crate::journal::{Op, Snapshot, SnapshotTenant};
use crate::proto::{RejectReason, TaskSpec, TenantClass, TenantStats};
use bluescale::{BlueScaleConfig, BlueScaleInterconnect, BuildError};
use bluescale_interconnect::admission::ReconfigOutcome;
use bluescale_interconnect::metrics::RunMetrics;
use bluescale_interconnect::system::System;
use bluescale_rt::task::{Task, TaskSet};
use bluescale_sim::metrics::{ComponentId, Counter};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One admitted tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantEntry {
    /// Service class, fixed at join.
    pub class: TenantClass,
    /// The client slot the tenant's traffic runs on.
    pub slot: u32,
    /// Currently-declared tasks.
    pub tasks: Vec<TaskSpec>,
}

/// Outcome of applying an admission operation at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// Applied; the caller journals the op and replies after the sync.
    Admitted {
        /// Slot the operation ran on.
        slot: u32,
        /// Mode-change transition latency from the interconnect.
        transition_cycles: u64,
    },
    /// Refused; nothing changed, nothing to journal.
    Rejected(RejectReason),
}

/// Replay of a journaled operation diverged from the journaled record —
/// the deterministic admission re-run rejected it or picked a different
/// slot. Either means the journal does not describe this code's history.
#[derive(Debug)]
pub struct ReplayDiverged {
    /// Journal sequence number of the divergent record (if known).
    pub seq: Option<u64>,
    /// The operation that failed to replay.
    pub op: Op,
    /// What the re-run produced.
    pub outcome: ApplyOutcome,
}

impl fmt::Display for ReplayDiverged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "journal replay diverged at seq {:?}: op for tenant {} slot {} re-ran to {:?}",
            self.seq,
            self.op.tenant(),
            self.op.slot(),
            self.outcome
        )
    }
}

impl std::error::Error for ReplayDiverged {}

/// The control plane's tenant registry over a live BlueScale system.
pub struct ControlRegistry {
    sys: System<BlueScaleInterconnect>,
    tenants: BTreeMap<u64, TenantEntry>,
    free: BTreeSet<u32>,
    capacity: usize,
}

impl ControlRegistry {
    /// Builds an empty registry with `capacity` tenant slots.
    pub fn new(capacity: usize) -> Result<Self, BuildError> {
        let sets = vec![TaskSet::empty(); capacity];
        let config = BlueScaleConfig::for_clients(capacity);
        let ic = BlueScaleInterconnect::new(config, &sets)?;
        Ok(ControlRegistry {
            sys: System::new(Box::new(ic), &sets),
            tenants: BTreeMap::new(),
            free: (0..capacity as u32).collect(),
            capacity,
        })
    }

    /// Total tenant slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently admitted tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The admitted entry for `tenant`, if any.
    pub fn tenant(&self, tenant: u64) -> Option<&TenantEntry> {
        self.tenants.get(&tenant)
    }

    fn install(&mut self, slot: u32, tasks: &TaskSet) -> ReconfigOutcome {
        let now = self.sys.now();
        self.sys.apply_reconfiguration(slot, tasks, now)
    }

    fn build_task_set(specs: &[TaskSpec]) -> Result<TaskSet, RejectReason> {
        if specs.is_empty() || specs.len() > crate::proto::MAX_TASKS as usize {
            return Err(RejectReason::InvalidTasks);
        }
        let mut tasks = Vec::with_capacity(specs.len());
        for (i, s) in specs.iter().enumerate() {
            tasks.push(
                Task::new(i as u32, s.period, s.wcet).map_err(|_| RejectReason::InvalidTasks)?,
            );
        }
        TaskSet::new(tasks).map_err(|_| RejectReason::InvalidTasks)
    }

    /// Admits `tenant` on the first free slot. Idempotent: a retry of an
    /// already-applied join with identical parameters re-reports success
    /// (transition 0) instead of failing, so a client whose response
    /// frame was lost can safely resend.
    pub fn try_join(
        &mut self,
        tenant: u64,
        class: TenantClass,
        specs: &[TaskSpec],
    ) -> ApplyOutcome {
        if let Some(e) = self.tenants.get(&tenant) {
            return if e.class == class && e.tasks == specs {
                ApplyOutcome::Admitted {
                    slot: e.slot,
                    transition_cycles: 0,
                }
            } else {
                ApplyOutcome::Rejected(RejectReason::AlreadyJoined)
            };
        }
        let Some(&slot) = self.free.iter().next() else {
            return ApplyOutcome::Rejected(RejectReason::CapacityFull);
        };
        let set = match Self::build_task_set(specs) {
            Ok(set) => set,
            Err(reason) => return ApplyOutcome::Rejected(reason),
        };
        match self.install(slot, &set) {
            ReconfigOutcome::Admitted { transition_cycles } => {
                self.free.remove(&slot);
                self.tenants.insert(
                    tenant,
                    TenantEntry {
                        class,
                        slot,
                        tasks: specs.to_vec(),
                    },
                );
                ApplyOutcome::Admitted {
                    slot,
                    transition_cycles,
                }
            }
            _ => ApplyOutcome::Rejected(RejectReason::Inadmissible),
        }
    }

    /// Replaces the tenant's declared task set, admission-tested.
    /// Idempotent on retries that match the installed set.
    pub fn try_renegotiate(&mut self, tenant: u64, specs: &[TaskSpec]) -> ApplyOutcome {
        let Some(entry) = self.tenants.get(&tenant) else {
            return ApplyOutcome::Rejected(RejectReason::UnknownTenant);
        };
        let slot = entry.slot;
        if entry.tasks == specs {
            return ApplyOutcome::Admitted {
                slot,
                transition_cycles: 0,
            };
        }
        let set = match Self::build_task_set(specs) {
            Ok(set) => set,
            Err(reason) => return ApplyOutcome::Rejected(reason),
        };
        match self.install(slot, &set) {
            ReconfigOutcome::Admitted { transition_cycles } => {
                self.tenants
                    .get_mut(&tenant)
                    .expect("looked up above")
                    .tasks = specs.to_vec();
                ApplyOutcome::Admitted {
                    slot,
                    transition_cycles,
                }
            }
            _ => ApplyOutcome::Rejected(RejectReason::Inadmissible),
        }
    }

    /// Releases the tenant's reservation. The leave runs the same
    /// admission trial as a join: the daemon installs only trialled sets,
    /// so its composition stays schedulable and a shed is expected to
    /// pass, but a rejected trial is reported as `Inadmissible`.
    pub fn try_leave(&mut self, tenant: u64) -> ApplyOutcome {
        let Some(entry) = self.tenants.get(&tenant) else {
            return ApplyOutcome::Rejected(RejectReason::UnknownTenant);
        };
        let slot = entry.slot;
        match self.install(slot, &TaskSet::empty()) {
            ReconfigOutcome::Admitted { transition_cycles } => {
                self.tenants.remove(&tenant);
                self.free.insert(slot);
                ApplyOutcome::Admitted {
                    slot,
                    transition_cycles,
                }
            }
            _ => ApplyOutcome::Rejected(RejectReason::Inadmissible),
        }
    }

    /// Re-applies one journaled operation during recovery. The re-run
    /// must admit on the journaled slot — anything else is divergence.
    /// Counts one `RecoveryReplays` per record.
    pub fn replay(&mut self, seq: u64, op: &Op) -> Result<(), ReplayDiverged> {
        let outcome = match op {
            Op::Join {
                tenant,
                class,
                tasks,
                ..
            } => self.try_join(*tenant, *class, tasks),
            Op::Renegotiate { tenant, tasks, .. } => self.try_renegotiate(*tenant, tasks),
            Op::Leave { tenant, .. } => self.try_leave(*tenant),
            Op::Quarantine { tenant, .. } => match self.quarantine(*tenant) {
                Some(slot) => ApplyOutcome::Admitted {
                    slot,
                    transition_cycles: 0,
                },
                None => ApplyOutcome::Rejected(RejectReason::UnknownTenant),
            },
        };
        match outcome {
            ApplyOutcome::Admitted { slot, .. } if slot == op.slot() => {
                self.count(Counter::RecoveryReplays);
                let now = self.sys.now();
                self.sys
                    .registry_mut()
                    .record(now, bluescale_sim::metrics::Event::RecoveryReplay { seq });
                Ok(())
            }
            other => Err(ReplayDiverged {
                seq: Some(seq),
                op: op.clone(),
                outcome: other,
            }),
        }
    }

    /// Restores the compacted tenant table, forcing the snapshot's slot
    /// assignments (compaction may leave slot holes that first-free
    /// assignment would not reproduce).
    ///
    /// Quarantined tenants are registered without re-installing their
    /// declared reservation: the demotion shed it, and later admissions
    /// may have consumed the freed capacity, so re-installing could fail
    /// the root test against state that was legal live.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), ReplayDiverged> {
        for t in &snapshot.tenants {
            if snapshot.quarantined.contains(&t.slot) {
                self.free.remove(&t.slot);
                self.tenants.insert(
                    t.tenant,
                    TenantEntry {
                        class: t.class,
                        slot: t.slot,
                        tasks: t.tasks.clone(),
                    },
                );
                continue;
            }
            let set = match Self::build_task_set(&t.tasks) {
                Ok(set) => set,
                Err(reason) => {
                    return Err(ReplayDiverged {
                        seq: None,
                        op: Op::Join {
                            tenant: t.tenant,
                            class: t.class,
                            slot: t.slot,
                            tasks: t.tasks.clone(),
                        },
                        outcome: ApplyOutcome::Rejected(reason),
                    })
                }
            };
            match self.install(t.slot, &set) {
                ReconfigOutcome::Admitted { .. } => {
                    self.free.remove(&t.slot);
                    self.tenants.insert(
                        t.tenant,
                        TenantEntry {
                            class: t.class,
                            slot: t.slot,
                            tasks: t.tasks.clone(),
                        },
                    );
                }
                outcome => {
                    return Err(ReplayDiverged {
                        seq: None,
                        op: Op::Join {
                            tenant: t.tenant,
                            class: t.class,
                            slot: t.slot,
                            tasks: t.tasks.clone(),
                        },
                        outcome: match outcome {
                            ReconfigOutcome::Admitted { .. } => unreachable!(),
                            _ => ApplyOutcome::Rejected(RejectReason::Inadmissible),
                        },
                    })
                }
            }
        }
        // Re-mark every demoted slot (owned or orphaned — a tenant may
        // have left after its demotion). The slots hold no reservation,
        // so the demotion's empty-set reconfiguration is a no-op shed.
        for &slot in &snapshot.quarantined {
            self.sys.quarantine_client(slot);
        }
        Ok(())
    }

    /// The compacted image of the current tenant table, slot-ascending.
    /// `next_seq` comes from the journal (the records folded in).
    pub fn snapshot(&self, next_seq: u64) -> Snapshot {
        let mut tenants: Vec<SnapshotTenant> = self
            .tenants
            .iter()
            .map(|(&tenant, e)| SnapshotTenant {
                tenant,
                class: e.class,
                slot: e.slot,
                tasks: e.tasks.clone(),
            })
            .collect();
        tenants.sort_by_key(|t| t.slot);
        Snapshot {
            next_seq,
            tenants,
            quarantined: self.sys.quarantined_clients(),
        }
    }

    /// FNV-1a digest over the admission state: capacity, the tenant
    /// table (identity, class, slot, tasks), the free-slot set and the
    /// quarantined-slot set (a demoted slot holds no reservation, so two
    /// states differing only in quarantine hold different capacity). Two
    /// registries with equal digests hold the same reservations — the
    /// recovery invariant asserts digest equality across a crash.
    pub fn state_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.capacity as u64);
        for (&tenant, e) in &self.tenants {
            eat(tenant);
            eat(match e.class {
                TenantClass::Guaranteed => 0,
                TenantClass::BestEffort => 1,
            });
            eat(e.slot as u64);
            eat(e.tasks.len() as u64);
            for t in &e.tasks {
                eat(t.period);
                eat(t.wcet);
            }
        }
        for &slot in &self.free {
            eat(slot as u64);
        }
        let quarantined = self.sys.quarantined_clients();
        eat(quarantined.len() as u64);
        for slot in quarantined {
            eat(slot as u64);
        }
        h
    }

    /// Advances the live simulation, driving tenant traffic through the
    /// admitted reservations (releases, arbitration, completions, the
    /// miss/latency streams Stats reads). With telemetry attached, due
    /// epochs are flushed after the batch — between simulated spans,
    /// never inside the cycle loop.
    pub fn step(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.sys.step();
        }
        self.sys.flush_telemetry_due();
    }

    /// Current simulation cycle.
    pub fn now(&self) -> u64 {
        self.sys.now()
    }

    /// The tenant's own miss/latency stream from the sim registry.
    pub fn stats_for(&self, tenant: u64) -> Option<TenantStats> {
        let slot = self.tenants.get(&tenant)?.slot;
        let mut m = RunMetrics::from_registry(self.sys.registry(), ComponentId::Client(slot));
        let p99 = m.latency().percentile(0.99).unwrap_or(0.0);
        Some(TenantStats {
            issued: m.issued(),
            completed: m.completed(),
            missed: m.missed(),
            p99_latency: p99,
        })
    }

    /// Trips the tenant into the guard quarantine path (the circuit
    /// breaker's demotion): the slot's reservation is shed through the
    /// admission-tested reconfiguration path. Returns the demoted slot,
    /// or `None` for unknown or already-quarantined tenants.
    ///
    /// The demotion changes durable admission capacity — later joins may
    /// fit only because of the freed reservation — so the caller must
    /// journal it ([`Op::Quarantine`]); [`replay`](Self::replay) re-sheds
    /// the slot to keep recovered capacity identical to live capacity.
    pub fn quarantine(&mut self, tenant: u64) -> Option<u32> {
        let entry = self.tenants.get(&tenant)?;
        let slot = entry.slot;
        self.sys.quarantine_client(slot).then_some(slot)
    }

    /// Increments a System-scope counter in the sim registry (the control
    /// plane's AdmissionTimeouts / Sheds / Retries / RecoveryReplays).
    pub fn count(&mut self, counter: Counter) {
        self.sys.registry_mut().inc(ComponentId::System, counter);
    }

    /// Adds to a System-scope counter in the sim registry.
    pub fn count_by(&mut self, counter: Counter, delta: u64) {
        self.sys
            .registry_mut()
            .add(ComponentId::System, counter, delta);
    }

    /// Reads a System-scope counter from the sim registry.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.sys.registry().counter(ComponentId::System, counter)
    }

    /// Slots demoted through the quarantine path.
    pub fn quarantined_slots(&self) -> Vec<u32> {
        self.sys.quarantined_clients()
    }

    /// The client slot backing `tenant`, if admitted.
    pub fn slot_of(&self, tenant: u64) -> Option<u32> {
        self.tenants.get(&tenant).map(|e| e.slot)
    }

    /// Attaches a telemetry pipeline to the live system (flushed from
    /// [`step`](Self::step) batch boundaries). Returns any previous one.
    pub fn attach_telemetry(
        &mut self,
        pipeline: bluescale_telemetry::Pipeline,
    ) -> Option<bluescale_telemetry::Pipeline> {
        self.sys.attach_telemetry(pipeline)
    }

    /// Final telemetry flush + sink finalization (no-op when detached).
    pub fn finish_telemetry(&mut self) {
        self.sys.finish_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(period: u64, wcet: u64) -> TaskSpec {
        TaskSpec { period, wcet }
    }

    #[test]
    fn join_renegotiate_leave_cycle_reuses_slots() {
        let mut reg = ControlRegistry::new(8).expect("build");
        let a = reg.try_join(100, TenantClass::Guaranteed, &[spec(400, 2)]);
        let ApplyOutcome::Admitted { slot: s0, .. } = a else {
            panic!("join must admit: {a:?}");
        };
        assert_eq!(s0, 0, "first free slot");
        assert!(matches!(
            reg.try_join(101, TenantClass::BestEffort, &[spec(1000, 3)]),
            ApplyOutcome::Admitted { slot: 1, .. }
        ));
        assert!(matches!(
            reg.try_renegotiate(100, &[spec(200, 2)]),
            ApplyOutcome::Admitted { slot: 0, .. }
        ));
        assert_eq!(reg.tenant(100).unwrap().tasks, vec![spec(200, 2)]);
        assert!(matches!(
            reg.try_leave(100),
            ApplyOutcome::Admitted { slot: 0, .. }
        ));
        assert_eq!(reg.tenant_count(), 1);
        // The freed slot is the next first-free choice.
        assert!(matches!(
            reg.try_join(102, TenantClass::Guaranteed, &[spec(500, 1)]),
            ApplyOutcome::Admitted { slot: 0, .. }
        ));
    }

    #[test]
    fn joins_are_idempotent_and_conflicts_rejected() {
        let mut reg = ControlRegistry::new(4).expect("build");
        let tasks = [spec(400, 2)];
        assert!(matches!(
            reg.try_join(7, TenantClass::Guaranteed, &tasks),
            ApplyOutcome::Admitted { slot: 0, .. }
        ));
        // Same request again: idempotent success (lost-response retry).
        assert!(matches!(
            reg.try_join(7, TenantClass::Guaranteed, &tasks),
            ApplyOutcome::Admitted {
                slot: 0,
                transition_cycles: 0
            }
        ));
        // Different parameters: a real conflict.
        assert!(matches!(
            reg.try_join(7, TenantClass::BestEffort, &tasks),
            ApplyOutcome::Rejected(RejectReason::AlreadyJoined)
        ));
    }

    #[test]
    fn unknown_and_invalid_requests_are_typed_rejections() {
        let mut reg = ControlRegistry::new(4).expect("build");
        assert!(matches!(
            reg.try_renegotiate(9, &[spec(100, 1)]),
            ApplyOutcome::Rejected(RejectReason::UnknownTenant)
        ));
        assert!(matches!(
            reg.try_leave(9),
            ApplyOutcome::Rejected(RejectReason::UnknownTenant)
        ));
        assert!(matches!(
            reg.try_join(9, TenantClass::Guaranteed, &[]),
            ApplyOutcome::Rejected(RejectReason::InvalidTasks)
        ));
        assert!(matches!(
            reg.try_join(9, TenantClass::Guaranteed, &[spec(10, 0)]),
            ApplyOutcome::Rejected(RejectReason::InvalidTasks)
        ));
    }

    #[test]
    fn capacity_exhaustion_is_reported() {
        let mut reg = ControlRegistry::new(4).expect("build");
        for t in 0..4u64 {
            assert!(matches!(
                reg.try_join(t, TenantClass::BestEffort, &[spec(4000, 1)]),
                ApplyOutcome::Admitted { .. }
            ));
        }
        assert!(matches!(
            reg.try_join(99, TenantClass::BestEffort, &[spec(4000, 1)]),
            ApplyOutcome::Rejected(RejectReason::CapacityFull)
        ));
    }

    #[test]
    fn overload_joins_are_rejected_by_the_root_test() {
        let mut reg = ControlRegistry::new(4).expect("build");
        // Three tenants at ~19% demand each fit under the root budget
        // (which also pays for the tree's request/response path); a 4th
        // identical tenant blows it and is refused.
        for t in 0..3u64 {
            assert!(matches!(
                reg.try_join(t, TenantClass::Guaranteed, &[spec(16, 3)]),
                ApplyOutcome::Admitted { .. }
            ));
        }
        assert!(matches!(
            reg.try_join(3, TenantClass::Guaranteed, &[spec(16, 3)]),
            ApplyOutcome::Rejected(RejectReason::Inadmissible)
        ));
        // Rejection mutated nothing: once a reservation frees, the same
        // tenant's identical demand fits again.
        assert!(matches!(reg.try_leave(0), ApplyOutcome::Admitted { .. }));
        assert!(matches!(
            reg.try_join(3, TenantClass::Guaranteed, &[spec(16, 3)]),
            ApplyOutcome::Admitted { .. }
        ));
    }

    #[test]
    fn digest_tracks_admission_state_exactly() {
        let mut a = ControlRegistry::new(8).expect("build");
        let mut b = ControlRegistry::new(8).expect("build");
        assert_eq!(a.state_digest(), b.state_digest());
        a.try_join(1, TenantClass::Guaranteed, &[spec(400, 2)]);
        assert_ne!(a.state_digest(), b.state_digest());
        b.try_join(1, TenantClass::Guaranteed, &[spec(400, 2)]);
        assert_eq!(a.state_digest(), b.state_digest());
        // Stepping the sim (metrics churn) must NOT move the digest:
        // admission state is reservations, not measurements.
        a.step(500);
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn replay_reproduces_state_and_counts() {
        let mut live = ControlRegistry::new(8).expect("build");
        live.try_join(1, TenantClass::Guaranteed, &[spec(400, 2)]);
        live.try_join(2, TenantClass::BestEffort, &[spec(1000, 5)]);
        live.try_renegotiate(1, &[spec(200, 2)]);
        live.try_leave(2);

        let ops = [
            Op::Join {
                tenant: 1,
                class: TenantClass::Guaranteed,
                slot: 0,
                tasks: vec![spec(400, 2)],
            },
            Op::Join {
                tenant: 2,
                class: TenantClass::BestEffort,
                slot: 1,
                tasks: vec![spec(1000, 5)],
            },
            Op::Renegotiate {
                tenant: 1,
                slot: 0,
                tasks: vec![spec(200, 2)],
            },
            Op::Leave { tenant: 2, slot: 1 },
        ];
        let mut recovered = ControlRegistry::new(8).expect("build");
        for (seq, op) in ops.iter().enumerate() {
            recovered.replay(seq as u64, op).expect("replay admits");
        }
        assert_eq!(recovered.state_digest(), live.state_digest());
        assert_eq!(recovered.counter(Counter::RecoveryReplays), 4);
    }

    #[test]
    fn restore_forces_snapshot_slots_across_holes() {
        let mut live = ControlRegistry::new(8).expect("build");
        live.try_join(1, TenantClass::Guaranteed, &[spec(400, 2)]);
        live.try_join(2, TenantClass::BestEffort, &[spec(1000, 5)]);
        live.try_join(3, TenantClass::Guaranteed, &[spec(500, 1)]);
        live.try_leave(2); // slot 1 becomes a hole

        let snap = live.snapshot(4);
        let mut recovered = ControlRegistry::new(8).expect("build");
        recovered.restore(&snap).expect("restore admits");
        assert_eq!(recovered.state_digest(), live.state_digest());
        assert_eq!(recovered.tenant(3).unwrap().slot, 2, "hole preserved");
    }

    #[test]
    fn quarantine_demotes_the_tenant_slot() {
        let mut reg = ControlRegistry::new(4).expect("build");
        reg.try_join(5, TenantClass::BestEffort, &[spec(400, 2)]);
        assert_eq!(reg.quarantine(5), Some(0));
        assert_eq!(reg.quarantine(5), None, "second trip is a no-op");
        assert_eq!(reg.quarantined_slots(), vec![0]);
        assert_eq!(reg.quarantine(99), None, "unknown tenant");
    }

    #[test]
    fn quarantine_moves_the_digest_and_replays() {
        // Two tenants saturating the root budget; quarantining one frees
        // capacity a third join consumes. Replay must reproduce that
        // sequence exactly — the regression this guards: an unjournaled
        // demotion made the post-demotion join replay as Rejected.
        let mut live = ControlRegistry::new(4).expect("build");
        for t in 0..3u64 {
            assert!(matches!(
                live.try_join(t, TenantClass::Guaranteed, &[spec(16, 3)]),
                ApplyOutcome::Admitted { .. }
            ));
        }
        let before = live.state_digest();
        assert_eq!(live.quarantine(1), Some(1));
        assert_ne!(
            live.state_digest(),
            before,
            "demotion changes capacity, so it must move the digest"
        );
        // The freed reservation admits a tenant that did not fit before.
        assert!(matches!(
            live.try_join(9, TenantClass::Guaranteed, &[spec(16, 3)]),
            ApplyOutcome::Admitted { slot: 3, .. }
        ));

        let ops = [
            Op::Join {
                tenant: 0,
                class: TenantClass::Guaranteed,
                slot: 0,
                tasks: vec![spec(16, 3)],
            },
            Op::Join {
                tenant: 1,
                class: TenantClass::Guaranteed,
                slot: 1,
                tasks: vec![spec(16, 3)],
            },
            Op::Join {
                tenant: 2,
                class: TenantClass::Guaranteed,
                slot: 2,
                tasks: vec![spec(16, 3)],
            },
            Op::Quarantine { tenant: 1, slot: 1 },
            Op::Join {
                tenant: 9,
                class: TenantClass::Guaranteed,
                slot: 3,
                tasks: vec![spec(16, 3)],
            },
        ];
        let mut recovered = ControlRegistry::new(4).expect("build");
        for (seq, op) in ops.iter().enumerate() {
            recovered.replay(seq as u64, op).expect("replay admits");
        }
        assert_eq!(recovered.state_digest(), live.state_digest());
        assert_eq!(recovered.quarantined_slots(), vec![1]);
    }

    #[test]
    fn restore_skips_quarantined_reservations() {
        // Live history: a big tenant joins, is quarantined (frees its
        // reservation), then other tenants consume the freed capacity.
        // Restoring the snapshot must NOT re-install the quarantined
        // reservation — doing so would fail the root test against
        // tenants that were legally admitted after the demotion.
        let mut live = ControlRegistry::new(4).expect("build");
        assert!(matches!(
            live.try_join(1, TenantClass::Guaranteed, &[spec(8, 3)]),
            ApplyOutcome::Admitted { slot: 0, .. }
        ));
        assert_eq!(live.quarantine(1), Some(0));
        for t in 2..=3u64 {
            assert!(matches!(
                live.try_join(t, TenantClass::Guaranteed, &[spec(16, 3)]),
                ApplyOutcome::Admitted { .. }
            ));
        }

        let snap = live.snapshot(3);
        assert_eq!(snap.quarantined, vec![0]);
        let mut recovered = ControlRegistry::new(4).expect("build");
        recovered.restore(&snap).expect("restore admits");
        assert_eq!(recovered.state_digest(), live.state_digest());
        assert_eq!(recovered.quarantined_slots(), vec![0]);
        assert_eq!(recovered.tenant_count(), 3);
    }
}
