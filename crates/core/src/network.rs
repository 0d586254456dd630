//! The complete BlueScale interconnect: a tree of Scale Elements between
//! the clients and the shared memory sub-system.
//!
//! Construction performs the paper's full analysis pipeline: the interface
//! selection problems are resolved level-by-level from the leaves (level
//! `L`) to the root (level 0), each level's chosen `(Π, Θ)` interfaces
//! becoming the server tasks of the level above; finally the root admission
//! test `Σ Θ/Π ≤ 1` decides system schedulability
//! ([`CompositionReport::schedulable`]).
//!
//! At run time each SE arbitrates independently per cycle; requests move one
//! level per cycle toward the memory controller and responses return through
//! a pipelined response path.

use crate::element::ScaleElement;
use crate::memory_side::{stuck_mask, MemorySide};
use crate::selector::TableRow;
use crate::soa::SoaCore;
use crate::topology::{BlueScaleConfig, SeIndex};
use bluescale_interconnect::admission::{CancelToken, ReconfigOutcome};
use bluescale_interconnect::{ClientId, Interconnect, MemoryRequest, MemoryResponse, ServiceEvent};
use bluescale_mem::ControllerStats;
use bluescale_rt::interface::root_admissible;
use bluescale_rt::supply::PeriodicResource;
use bluescale_rt::task::TaskSet;
use bluescale_rt::Error as RtError;
use bluescale_sim::fault::FaultPlan;
use bluescale_sim::metrics::{ComponentId, Counter, MetricsRegistry};
use bluescale_sim::Cycle;
use std::collections::VecDeque;
use std::fmt;

/// Errors raised while building (or reconfiguring) a BlueScale instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The number of task sets does not match the configured client count.
    WrongClientCount {
        /// Clients the configuration expects.
        expected: usize,
        /// Task sets supplied.
        got: usize,
    },
    /// A client index was out of range.
    UnknownClient {
        /// The offending index.
        client: usize,
    },
    /// The analysis rejected the task parameters outright (invalid task,
    /// duplicate ids).
    Analysis(RtError),
    /// Restoring the previous task set after a rejected admission failed;
    /// the affected request path may be left with fallback interfaces.
    /// Should be unreachable (the previous set was valid when installed)
    /// but is reported instead of panicking so a runtime manager can
    /// re-run admission.
    RollbackFailed {
        /// Client whose revert failed.
        client: usize,
        /// The underlying failure.
        source: Box<BuildError>,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::WrongClientCount { expected, got } => {
                write!(f, "expected {expected} client task sets, got {got}")
            }
            BuildError::UnknownClient { client } => {
                write!(f, "client {client} out of range")
            }
            BuildError::Analysis(e) => write!(f, "analysis error: {e}"),
            BuildError::RollbackFailed { client, source } => {
                write!(f, "rollback for client {client} failed: {source}")
            }
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Analysis(e) => Some(e),
            BuildError::RollbackFailed { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<RtError> for BuildError {
    fn from(e: RtError) -> Self {
        BuildError::Analysis(e)
    }
}

/// Errors raised when offering a request to the interconnect. Unlike the
/// [`Interconnect::inject`] trait method — which can only hand the request
/// back — these distinguish a transient full buffer from a malformed
/// request that no amount of retrying will fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectError {
    /// The request names a client port this interconnect does not have.
    UnknownClient {
        /// The out-of-range client id carried by the request.
        client: u32,
        /// How many client ports the interconnect has.
        num_clients: usize,
        /// The rejected request.
        request: MemoryRequest,
    },
    /// The client's leaf port buffer is full this cycle (retry later).
    PortFull(MemoryRequest),
}

impl InjectError {
    /// Recovers the rejected request (for re-queueing or logging).
    pub fn into_request(self) -> MemoryRequest {
        match self {
            InjectError::UnknownClient { request, .. } => request,
            InjectError::PortFull(request) => request,
        }
    }
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::UnknownClient {
                client,
                num_clients,
                ..
            } => write!(
                f,
                "request for unknown client {client} (interconnect has {num_clients} ports)"
            ),
            InjectError::PortFull(request) => {
                write!(f, "client {} port full this cycle", request.client)
            }
        }
    }
}

impl std::error::Error for InjectError {}

/// Result of resolving all interface-selection problems over the tree.
#[derive(Debug, Clone)]
pub struct CompositionReport {
    /// Whether the analysis succeeded at every SE **and** the root
    /// admission test passed — the paper's condition for guaranteed
    /// schedulability.
    pub schedulable: bool,
    /// Whether minimum-bandwidth selection succeeded everywhere (when
    /// false, over-utilized SEs fell back to utilization-proportional
    /// best-effort interfaces and `schedulable` is false).
    pub analysis_ok: bool,
    /// Total bandwidth demanded from the memory controller by the root's
    /// server tasks (`Σ Θ/Π` at level 1).
    pub root_bandwidth: f64,
    /// Selected interfaces, indexed `[depth][order][port]`.
    pub interfaces: Vec<Vec<Vec<Option<PeriodicResource>>>>,
    /// SEs whose parameters were rewritten by the most recent
    /// (re)configuration — the whole tree on construction, only the
    /// affected request path afterwards.
    pub reprogrammed_elements: usize,
}

/// The BlueScale memory interconnect.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct BlueScaleInterconnect {
    config: BlueScaleConfig,
    /// `elements[d]` holds the `branch^d` SEs of depth `d` (0 = root).
    /// With the SoA engine active these remain the home of the interface
    /// selectors and analysis tables; their runtime state (buffers, server
    /// counters) is live only on the legacy path.
    elements: Vec<Vec<ScaleElement>>,
    /// The structure-of-arrays runtime engine
    /// ([`BlueScaleConfig::soa_core`]); `None` runs the legacy per-SE
    /// engine, kept as the differential oracle.
    soa: Option<SoaCore>,
    /// The root's memory side: controller, memory policy and the
    /// interconnect-side fault plan (stuck grant ports, DRAM jitter,
    /// dropped responses). An empty plan and a passive policy keep `step`
    /// on the exact fault-free, policy-free code path.
    mem: MemorySide,
    ready: VecDeque<MemoryResponse>,
    service_events: VecDeque<ServiceEvent>,
    client_tasks: Vec<TaskSet>,
    composition: CompositionReport,
    /// Per-SE analysis outcome (`[depth][order]`): whether minimum-
    /// bandwidth selection succeeded there (false = fallback interfaces).
    se_analysis_ok: Vec<Vec<bool>>,
    metrics: MetricsRegistry,
}

/// One path SE's trial result: `(depth, order, selected interfaces)`.
pub(crate) type PathTrial = (usize, usize, Vec<Option<PeriodicResource>>);

/// Why a cancellable admission trial produced no path: a final analytical
/// rejection versus a caller-side cancellation that decided nothing (the
/// request may be retried). Both leave the fabric untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TrialAbort {
    /// The analysis rejected the update (infeasible path SE, off-path
    /// fallback, or root overshoot).
    Rejected,
    /// The caller's [`CancelToken`] fired mid-analysis.
    Cancelled,
}

impl BlueScaleInterconnect {
    /// Builds a BlueScale instance and resolves all interface-selection
    /// problems for the given per-client task sets.
    ///
    /// If some SE's clients are analytically over-utilized, construction
    /// still succeeds — the affected SEs get utilization-proportional
    /// fallback interfaces — but [`CompositionReport::schedulable`] is
    /// `false`. This mirrors deploying a system that fails admission: the
    /// hardware still runs, the guarantee is simply absent.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::WrongClientCount`] on a task-set count
    /// mismatch, or [`BuildError::Analysis`] if task parameters are
    /// malformed (zero periods, duplicate ids).
    pub fn new(config: BlueScaleConfig, task_sets: &[TaskSet]) -> Result<Self, BuildError> {
        if task_sets.len() != config.num_clients {
            return Err(BuildError::WrongClientCount {
                expected: config.num_clients,
                got: task_sets.len(),
            });
        }
        let levels = config.levels();
        let mut elements: Vec<Vec<ScaleElement>> = (0..levels)
            .map(|d| {
                (0..config.elements_at(d))
                    .map(|y| {
                        let mut se = ScaleElement::with_queue_policy(
                            SeIndex::new(d, y),
                            config.branch,
                            config.buffer_capacity,
                            config.work_conserving,
                            config.low_level_policy,
                        );
                        se.selector_mut()
                            .set_period_divisor(config.granularity_divisor);
                        se
                    })
                    .collect()
            })
            .collect();

        // Load the leaf parameter tables from the client task sets.
        for (client, set) in task_sets.iter().enumerate() {
            let (order, port) = config.attach_point(client);
            let leaf = &mut elements[levels - 1][order];
            for task in set {
                leaf.selector_mut().load(TableRow {
                    port: port as u8,
                    task_id: task.id(),
                    period: task.period(),
                    deadline: config.analysis_deadline(task.period(), task.wcet()),
                    wcet: task.wcet(),
                })?;
            }
        }

        let mut this = Self {
            mem: MemorySide::new(&config),
            ready: VecDeque::new(),
            service_events: VecDeque::new(),
            client_tasks: task_sets.to_vec(),
            se_analysis_ok: (0..levels)
                .map(|d| vec![true; config.elements_at(d)])
                .collect(),
            metrics: MetricsRegistry::new(),
            composition: CompositionReport {
                schedulable: false,
                analysis_ok: false,
                root_bandwidth: 0.0,
                interfaces: (0..levels)
                    .map(|d| vec![vec![None; config.branch]; config.elements_at(d)])
                    .collect(),
                reprogrammed_elements: 0,
            },
            config,
            elements,
            soa: None,
        };
        this.recompute_all()?;
        if this.config.soa_core {
            this.soa = Some(SoaCore::new(&this.config, &this.composition.interfaces));
        }
        Ok(this)
    }

    /// The static configuration.
    pub fn config(&self) -> &BlueScaleConfig {
        &self.config
    }

    /// The most recent composition (interface-selection) result.
    pub fn composition(&self) -> &CompositionReport {
        &self.composition
    }

    /// The task sets currently programmed per client.
    pub fn client_tasks(&self) -> &[TaskSet] {
        &self.client_tasks
    }

    /// The typed metrics registry. Counter tallies (per-SE grants,
    /// throttled cycles, forwards, memory-controller statistics) are always
    /// recorded; call [`MetricsRegistry::enable_detail`] to additionally
    /// record typed events and per-request latency breakdowns (bounded ring
    /// buffer — safe on long runs). Memory-controller counters are
    /// refreshed on each `metrics_mut` call.
    ///
    /// # Example
    ///
    /// ```
    /// # use bluescale::{BlueScaleConfig, BlueScaleInterconnect};
    /// # use bluescale_rt::task::{Task, TaskSet};
    /// # use bluescale_interconnect::Interconnect;
    /// # let sets: Vec<TaskSet> =
    /// #     vec![TaskSet::new(vec![Task::new(0, 100, 2).unwrap()]).unwrap(); 4];
    /// let mut ic =
    ///     BlueScaleInterconnect::new(BlueScaleConfig::for_clients(4), &sets)?;
    /// ic.metrics_mut().enable_detail();
    /// # Ok::<(), bluescale::BuildError>(())
    /// ```
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        self.mem.controller().record_metrics(&mut self.metrics);
        if let Some(soa) = self.soa.as_mut() {
            soa.flush_metrics(&mut self.metrics);
        }
        &mut self.metrics
    }

    /// Read access to the metrics registry. Memory-controller counters may
    /// lag behind [`MemoryController::stats`](bluescale_mem::MemoryController::stats)
    /// until the next [`metrics_mut`](Self::metrics_mut) call — that lag is
    /// a pinned part of the contract (a `&self` read cannot flush), and
    /// `metrics_mut` reconverges the mirror *exactly* (pinned by
    /// `registry_lag_reconverges_exactly`). Callers needing mid-run memory
    /// statistics without a flush read [`memory_stats`](Self::memory_stats),
    /// which never lags.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The memory controller's live statistics. Unlike the registry mirror
    /// (refreshed only on [`metrics_mut`](Self::metrics_mut)), this reads
    /// the controller directly and can never be stale.
    pub fn memory_stats(&self) -> ControllerStats {
        self.mem.controller().stats()
    }

    /// The active memory policy's stable name (bench/export labelling).
    pub fn memory_policy_name(&self) -> &'static str {
        self.mem.policy_name()
    }

    /// Per-SE forwarded-request counters, indexed `[depth][order]`
    /// (introspection for experiments; reads the registry's
    /// [`Counter::Forwarded`] tallies).
    pub fn forward_counts(&self) -> Vec<Vec<u64>> {
        (0..self.config.levels())
            .map(|depth| {
                (0..self.config.elements_at(depth))
                    .map(|order| {
                        // The SoA engine batches its tallies; merge the
                        // unflushed delta so mid-run reads stay exact.
                        self.metrics
                            .counter(ComponentId::Se { depth, order }, Counter::Forwarded)
                            + self
                                .soa
                                .as_ref()
                                .map_or(0, |s| s.pending_forwarded(depth, order))
                    })
                    .collect()
            })
            .collect()
    }

    /// Replaces one client's task set and refreshes server parameters
    /// **only along that client's request path** (leaf SE up to the root) —
    /// the scheduling-scalability property of Section 3.2. Returns the
    /// updated composition report.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownClient`] for an out-of-range client or
    /// [`BuildError::Analysis`] for malformed task parameters; in both
    /// cases the previous configuration is left untouched.
    pub fn update_client_tasks(
        &mut self,
        client: usize,
        tasks: TaskSet,
    ) -> Result<&CompositionReport, BuildError> {
        if client >= self.config.num_clients {
            return Err(BuildError::UnknownClient { client });
        }
        let levels = self.config.levels();
        let (leaf_order, port) = self.config.attach_point(client);
        let rows = self.leaf_rows(port, &tasks);
        self.elements[levels - 1][leaf_order]
            .selector_mut()
            .reload_port(port as u8, &rows)?;
        self.client_tasks[client] = tasks;

        // Walk the request path from the leaf to the root, recomputing and
        // reprogramming each SE and refreshing the parent's table row.
        let mut order = leaf_order;
        for depth in (0..levels).rev() {
            self.resolve_se(depth, order)?;
            order /= self.config.branch;
        }
        // Every other SE kept its parameters: refresh only the summary.
        self.refresh_summary(levels);
        Ok(&self.composition)
    }

    /// Admission control: applies `tasks` to `client` only if the updated
    /// composition stays schedulable; otherwise the previous configuration
    /// is restored and `Ok(false)` is returned. This is what a runtime
    /// manager calls before letting new software start on a client.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownClient`] or [`BuildError::Analysis`]
    /// for malformed inputs (the configuration is untouched in both
    /// cases), or [`BuildError::RollbackFailed`] if restoring the
    /// previous set after a rejection failed.
    pub fn admit_client_tasks(
        &mut self,
        client: usize,
        tasks: TaskSet,
    ) -> Result<bool, BuildError> {
        if client >= self.config.num_clients {
            return Err(BuildError::UnknownClient { client });
        }
        let previous = self.client_tasks[client].clone();
        let report = self.update_client_tasks(client, tasks)?;
        if report.schedulable {
            return Ok(true);
        }
        // Roll back: the previous set was valid when installed, so the
        // revert is expected to succeed — but surface a failure as an
        // error rather than a panic.
        if let Err(e) = self.update_client_tasks(client, previous) {
            return Err(BuildError::RollbackFailed {
                client,
                source: Box::new(e),
            });
        }
        Ok(false)
    }

    /// The table rows describing `tasks` at a leaf `port` (analysis
    /// deadlines deflated by the configured margin, as at construction).
    fn leaf_rows(&self, port: usize, tasks: &TaskSet) -> Vec<TableRow> {
        tasks
            .iter()
            .map(|t| TableRow {
                port: port as u8,
                task_id: t.id(),
                period: t.period(),
                deadline: self.config.analysis_deadline(t.period(), t.wcet()),
                wcet: t.wcet(),
            })
            .collect()
    }

    /// Admission-tests `tasks` for `client` without touching the live
    /// fabric: the interface-selection problems along the client's request
    /// path (leaf SE up to the root) are re-solved on *cloned* parameter
    /// tables, every other subtree reusing its cached interfaces from
    /// [`CompositionReport::interfaces`]. Returns the path's newly selected
    /// interfaces (leaf first) when the update is admissible:
    /// selection succeeded at every path SE, every off-path SE already held
    /// a valid analysis, and the root passes the **exact** admission test
    /// `Σ Θ/Π ≤ 1` ([`root_admissible`] — no floating-point tolerance, so
    /// a compositional overshoot of even one part in 2⁵³ is caught).
    /// The cancellation token (when supplied) is polled once per path SE —
    /// each `compute()` is the expensive unit of work — and an expired
    /// token aborts the trial with [`TrialAbort::Cancelled`]. The trial
    /// mutates nothing, so abandoning it mid-path needs no rollback.
    fn admission_trial_cancellable(
        &self,
        client: usize,
        tasks: &TaskSet,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<PathTrial>, TrialAbort> {
        let levels = self.config.levels();
        let (leaf_order, port) = self.config.attach_point(client);
        let mut trial: Vec<PathTrial> = Vec::with_capacity(levels);
        let mut order = leaf_order;
        let mut reload = port as u8;
        let mut child_ifaces: Option<Vec<Option<PeriodicResource>>> = None;
        for depth in (0..levels).rev() {
            if cancel.is_some_and(|c| c.is_cancelled()) {
                return Err(TrialAbort::Cancelled);
            }
            let rows = match &child_ifaces {
                None => self.leaf_rows(port, tasks),
                Some(ifaces) => Self::interface_rows(&self.config, reload, ifaces),
            };
            let mut sel = self.elements[depth][order].selector().clone();
            if sel.reload_port(reload, &rows).is_err() {
                return Err(TrialAbort::Rejected);
            }
            // Admission has no fallback: an analytically infeasible path
            // SE rejects the request outright.
            let Ok(ifaces) = sel.compute() else {
                return Err(TrialAbort::Rejected);
            };
            trial.push((depth, order, ifaces.clone()));
            reload = (order % self.config.branch) as u8;
            order /= self.config.branch;
            child_ifaces = Some(ifaces);
        }
        // Off-path SEs keep their parameters; if any of them is already on
        // fallback interfaces the system has no guarantee to extend.
        let path: Vec<(usize, usize)> = trial.iter().map(|(d, o, _)| (*d, *o)).collect();
        for (depth, row) in self.se_analysis_ok.iter().enumerate() {
            for (order, &ok) in row.iter().enumerate() {
                if !ok && !path.contains(&(depth, order)) {
                    return Err(TrialAbort::Rejected);
                }
            }
        }
        let (_, _, root) = trial.last().expect("levels >= 1");
        let root_ifaces: Vec<PeriodicResource> = root.iter().flatten().copied().collect();
        if root_admissible(&root_ifaces) {
            Ok(trial)
        } else {
            Err(TrialAbort::Rejected)
        }
    }

    /// Runs admission control for `client`/`tasks` and, when admitted,
    /// commits everything *except* runtime-engine programming: the leaf
    /// table rows, the cached interfaces and analysis flags along the
    /// request path, the parent table rows, and the refreshed composition
    /// summary. Returns the admitted path (leaf first) so the caller can
    /// program whichever runtime engine is live — the legacy per-SE
    /// engine, the whole-tree SoA core, or the sharded engine's per-subtree
    /// cores — or `None` when admission rejects (in which case nothing was
    /// written; a rejection is decided entirely on cloned tables).
    pub(crate) fn commit_reconfiguration(
        &mut self,
        client: usize,
        tasks: &TaskSet,
    ) -> Option<Vec<PathTrial>> {
        self.commit_reconfiguration_cancellable(client, tasks, None)
            .ok()
    }

    /// [`commit_reconfiguration`](Self::commit_reconfiguration) with the
    /// cancellation hook threaded through to the admission trial. A
    /// cancelled request commits nothing — cancellation is only ever
    /// observed on cloned tables, so no rollback exists to get wrong.
    pub(crate) fn commit_reconfiguration_cancellable(
        &mut self,
        client: usize,
        tasks: &TaskSet,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<PathTrial>, TrialAbort> {
        if client >= self.config.num_clients {
            return Err(TrialAbort::Rejected);
        }
        let trial = self.admission_trial_cancellable(client, tasks, cancel)?;
        // Commit: rewrite the table rows and cached interfaces along the
        // path, staging every changed server to swap at its replenishment
        // boundary. Rows re-validate trivially (the trial already loaded
        // identical rows into the clones).
        let levels = self.config.levels();
        let (leaf_order, port) = self.config.attach_point(client);
        let rows = self.leaf_rows(port, tasks);
        self.elements[levels - 1][leaf_order]
            .selector_mut()
            .reload_port(port as u8, &rows)
            .expect("rows validated by the admission trial");
        self.client_tasks[client] = tasks.clone();
        for (depth, order, ifaces) in &trial {
            self.se_analysis_ok[*depth][*order] = true;
            self.composition.interfaces[*depth][*order] = ifaces.clone();
            if *depth > 0 {
                let parent_order = order / self.config.branch;
                let parent_port = (order % self.config.branch) as u8;
                let parent_rows = Self::interface_rows(&self.config, parent_port, ifaces);
                self.elements[*depth - 1][parent_order]
                    .selector_mut()
                    .reload_port(parent_port, &parent_rows)
                    .expect("rows validated by the admission trial");
            }
        }
        self.refresh_summary(trial.len());
        // Deliberately no `Reconfigurations` tally here: churn accounting
        // (`Reconfigurations`/`Admitted`/`AdmissionRejected`) is owned by
        // the harness registry alone, so `merged_registry()` never double
        // counts an admitted transition.
        Ok(trial)
    }

    /// Programs whichever runtime engine is live along a committed path and
    /// returns the total transition latency (shared by both reconfiguration
    /// entry points).
    fn program_trial(&mut self, trial: &[PathTrial]) -> u64 {
        let mut transition_cycles = 0;
        for (depth, order, ifaces) in trial {
            transition_cycles += match self.soa.as_mut() {
                Some(soa) => soa.program_se_deferred(*depth, *order, ifaces),
                None => self.elements[*depth][*order].program_deferred(ifaces),
            };
        }
        transition_cycles
    }

    /// Offers a request at its client's port, with typed rejection: a
    /// transiently full buffer ([`InjectError::PortFull`]) is
    /// distinguished from a malformed request naming a nonexistent client
    /// ([`InjectError::UnknownClient`]), which retrying can never fix.
    /// The [`Interconnect::inject`] trait method routes through here, so
    /// a malformed request bounces as an error instead of panicking on an
    /// out-of-range attach point.
    ///
    /// # Errors
    ///
    /// See above; the rejected request is recoverable from either variant
    /// via [`InjectError::into_request`].
    pub fn try_inject(&mut self, request: MemoryRequest, now: Cycle) -> Result<(), InjectError> {
        if request.client as usize >= self.config.num_clients {
            return Err(InjectError::UnknownClient {
                client: request.client,
                num_clients: self.config.num_clients,
                request,
            });
        }
        let levels = self.config.levels();
        let (order, port) = self.config.attach_point(request.client as usize);
        let (id, client) = (request.id, request.client);
        match self.soa.as_mut() {
            Some(soa) => soa
                .try_accept(levels - 1, order, port, request)
                .map_err(InjectError::PortFull)?,
            None => self.elements[levels - 1][order]
                .try_accept(port, request)
                .map_err(InjectError::PortFull)?,
        }
        self.metrics
            .inc(ComponentId::Client(client), Counter::Enqueued);
        self.metrics.request_enqueued(
            now,
            id,
            client,
            ComponentId::Se {
                depth: levels - 1,
                order,
            },
        );
        Ok(())
    }

    /// Refreshes the composition summary (analysis verdict, root
    /// bandwidth, schedulability) after `reprogrammed` SEs changed, and
    /// mirrors the root bandwidth into the registry's gauge.
    fn refresh_summary(&mut self, reprogrammed: usize) {
        let c = &mut self.composition;
        c.analysis_ok = self.se_analysis_ok.iter().flatten().all(|&ok| ok);
        c.root_bandwidth = Self::bandwidth_sum(&c.interfaces[0][0]);
        c.schedulable = c.analysis_ok && c.root_bandwidth <= 1.0 + 1e-9;
        c.reprogrammed_elements = reprogrammed;
        self.metrics
            .set_gauge(ComponentId::System, "root_bandwidth", c.root_bandwidth);
    }

    fn bandwidth_sum(interfaces: &[Option<PeriodicResource>]) -> f64 {
        interfaces
            .iter()
            .flatten()
            .map(PeriodicResource::bandwidth)
            .sum()
    }

    fn interface_rows(
        _config: &BlueScaleConfig,
        port: u8,
        interfaces: &[Option<PeriodicResource>],
    ) -> Vec<TableRow> {
        interfaces
            .iter()
            .enumerate()
            .filter_map(|(q, iface)| {
                iface.map(|r| TableRow {
                    port,
                    task_id: q as u32,
                    period: r.period(),
                    // Inner levels keep implicit deadlines: end-to-end
                    // slack is reserved once, at the leaves.
                    deadline: r.period(),
                    wcet: r.budget(),
                })
            })
            .collect()
    }

    /// Runs the SE's interface selector; on analytical failure falls back
    /// to utilization-proportional interfaces (best effort, no guarantee).
    fn compute_or_fallback(element: &ScaleElement) -> (Vec<Option<PeriodicResource>>, bool) {
        match element.selector().compute() {
            Ok(ifaces) => (ifaces, true),
            Err(_) => (Self::fallback_interfaces(element), false),
        }
    }

    /// Utilization-proportional fallback: each non-idle port gets
    /// `Π = max(1, min_T/2)` and a budget proportional to its share of the
    /// total demand (normalized when demand exceeds capacity).
    fn fallback_interfaces(element: &ScaleElement) -> Vec<Option<PeriodicResource>> {
        let rows = element.selector().rows();
        let ports = element.ports();
        let mut util = vec![0.0f64; ports];
        let mut min_period = vec![u64::MAX; ports];
        for r in rows {
            let p = r.port as usize;
            util[p] += r.wcet as f64 / r.period as f64;
            min_period[p] = min_period[p].min(r.period);
        }
        let total: f64 = util.iter().sum();
        let scale = if total > 1.0 { 1.0 / total } else { 1.0 };
        (0..ports)
            .map(|p| {
                if util[p] == 0.0 {
                    return None;
                }
                let period = (min_period[p] / 2).max(1);
                let share = util[p] * scale;
                let budget = ((share * period as f64).round() as u64).clamp(1, period);
                PeriodicResource::new(period, budget)
            })
            .collect()
    }

    /// Resolves every interface-selection problem from the leaves to the
    /// root and programs all SEs (used at construction).
    fn recompute_all(&mut self) -> Result<(), BuildError> {
        for depth in (0..self.config.levels()).rev() {
            for order in 0..self.config.elements_at(depth) {
                self.resolve_se(depth, order)?;
            }
        }
        self.refresh_summary(self.elements.iter().map(Vec::len).sum());
        Ok(())
    }

    /// Resolves SE `(depth, order)`'s interface selection (falling back on
    /// analytical failure), programs the result into every live engine and
    /// reloads the parent's table row for this SE's port.
    fn resolve_se(&mut self, depth: usize, order: usize) -> Result<(), BuildError> {
        let (ifaces, ok) = Self::compute_or_fallback(&self.elements[depth][order]);
        self.se_analysis_ok[depth][order] = ok;
        self.elements[depth][order].program(&ifaces);
        if let Some(soa) = self.soa.as_mut() {
            soa.program_se(depth, order, &ifaces);
        }
        self.composition.interfaces[depth][order] = ifaces.clone();
        if depth > 0 {
            let branch = self.config.branch;
            let parent_port = (order % branch) as u8;
            let rows = Self::interface_rows(&self.config, parent_port, &ifaces);
            self.elements[depth - 1][order / branch]
                .selector_mut()
                .reload_port(parent_port, &rows)?;
        }
        Ok(())
    }

    /// One cycle on the structure-of-arrays engine — the four phases of
    /// the legacy [`Interconnect::step`] body, executed over the flat
    /// arena. Kept line-for-line parallel with the legacy path so the two
    /// stay bit-identical (the differential suites enforce it).
    fn step_soa(&mut self, now: Cycle) {
        let have_faults = !self.mem.faults().is_empty();
        let levels = self.config.levels();
        let branch = self.config.branch;
        // With detail recording off, arbitration runs on the batched fast
        // path (delta counters, fused tick sweep); detail runs take the
        // write-through `step_se` so typed events keep the legacy order.
        let detail = self.metrics.detail();
        let soa = self.soa.as_mut().expect("step_soa requires the SoA engine");
        // 1. Response path: leaves deliver first (bottom-up), so a response
        //    advances exactly one level per cycle.
        let (metrics, ready) = (&mut self.metrics, &mut self.ready);
        soa.route_responses(0, |request| {
            metrics.request_completed(now, request.id);
            ready.push_back(MemoryResponse {
                request,
                completed_at: now,
            });
        });
        // 2. Memory completions enter the root's demultiplexer.
        if let Some(done) = self.mem.complete(now, &mut self.metrics) {
            soa.accept_response(0, 0, done);
        }
        // 3. Root arbitration feeds the memory controller.
        let root_ready = self.mem.can_accept();
        let mask = self
            .mem
            .root_mask(now, root_ready, branch, &mut self.metrics, |port| {
                soa.peek_head(0, 0, port)
            });
        let granted = if detail {
            soa.step_se(0, 0, now, root_ready, mask.as_deref(), &mut self.metrics)
        } else {
            soa.step_se_batched(0, 0, now, root_ready, mask.as_deref())
        };
        if let Some(request) = granted {
            let event = self.mem.issue(request, now, &mut self.metrics);
            self.service_events.push_back(event);
        }
        // 4. Deeper levels forward one request per SE toward their parents.
        for depth in 1..levels {
            for order in 0..self.config.elements_at(depth) {
                let parent_order = order / branch;
                let port = order % branch;
                let ready = soa.can_accept(depth - 1, parent_order, port);
                let mask = if have_faults {
                    stuck_mask(
                        self.mem.faults(),
                        depth,
                        order,
                        branch,
                        now,
                        &mut self.metrics,
                    )
                } else {
                    None
                };
                let granted = if detail {
                    soa.step_se(depth, order, now, ready, mask.as_deref(), &mut self.metrics)
                } else {
                    soa.step_se_batched(depth, order, now, ready, mask.as_deref())
                };
                if let Some(request) = granted {
                    soa.try_accept(depth - 1, parent_order, port, request)
                        .expect("parent advertised a free slot");
                }
            }
        }
        // 5. Server countdowns for every SE, fused into one arena sweep.
        //    (Detail runs already ticked inside `step_se`, interleaved with
        //    their grant events in the legacy order.)
        if !detail {
            soa.tick_all();
        }
    }
}

impl Interconnect for BlueScaleInterconnect {
    fn name(&self) -> &'static str {
        "BlueScale"
    }

    fn num_clients(&self) -> usize {
        self.config.num_clients
    }

    fn inject(&mut self, request: MemoryRequest, now: Cycle) -> Result<(), MemoryRequest> {
        self.try_inject(request, now)
            .map_err(InjectError::into_request)
    }

    fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.mem.install_faults(plan);
    }

    fn demote_client(&mut self, client: u32) -> bool {
        // Best-effort demotion: clear the client's declared tasks, which
        // re-runs interface selection along its request path and leaves
        // its leaf port without a reserved interface. In work-conserving
        // mode the client still drains on slack cycles.
        self.update_client_tasks(client as usize, TaskSet::empty())
            .is_ok()
    }

    fn reconfigure_client(
        &mut self,
        client: ClientId,
        tasks: &TaskSet,
        _now: Cycle,
    ) -> ReconfigOutcome {
        let Some(trial) = self.commit_reconfiguration(client as usize, tasks) else {
            return ReconfigOutcome::Rejected;
        };
        // Program the runtime engine along the committed path. The
        // transition latency depends on live server state, so it must come
        // from whichever engine is actually running. No fabric-side
        // `TransitionCycles` tally: like the rest of churn accounting, the
        // counter is owned by the harness registry alone (fed through the
        // returned total), so `merged_registry()` counts each transition
        // exactly once.
        let transition_cycles = self.program_trial(&trial);
        ReconfigOutcome::Admitted { transition_cycles }
    }

    fn reconfigure_client_cancellable(
        &mut self,
        client: ClientId,
        tasks: &TaskSet,
        _now: Cycle,
        cancel: &CancelToken,
    ) -> ReconfigOutcome {
        // The token is polled at every path SE of the admission trial (one
        // poll per interface-selection solve), so a deadline that expires
        // mid-analysis aborts within one solve's worth of work instead of
        // after the whole leaf→root pass. Cancellation is decided entirely
        // on cloned tables: an aborted request leaves the fabric
        // bit-identical. Once the trial commits, the engines are programmed
        // unconditionally — admission already succeeded, and answering
        // `Cancelled` after mutating state would desynchronize the caller.
        match self.commit_reconfiguration_cancellable(client as usize, tasks, Some(cancel)) {
            Ok(trial) => {
                let transition_cycles = self.program_trial(&trial);
                ReconfigOutcome::Admitted { transition_cycles }
            }
            Err(TrialAbort::Rejected) => ReconfigOutcome::Rejected,
            Err(TrialAbort::Cancelled) => ReconfigOutcome::Cancelled,
        }
    }

    fn step(&mut self, now: Cycle) {
        let have_faults = !self.mem.faults().is_empty();
        if have_faults {
            self.mem.announce(now, &mut self.metrics);
        }
        if self.soa.is_some() {
            self.step_soa(now);
            return;
        }
        // 1. Response path: each SE's demultiplexer routes one response per
        //    cycle toward its client. Leaves deliver first (bottom-up), so
        //    a response advances exactly one level per cycle.
        let levels = self.config.levels();
        for depth in (0..levels).rev() {
            if depth == levels - 1 {
                for se in &mut self.elements[depth] {
                    if let Some(request) = se.pop_response() {
                        self.metrics.request_completed(now, request.id);
                        self.ready.push_back(MemoryResponse {
                            request,
                            completed_at: now,
                        });
                    }
                }
            } else {
                let (upper, lower) = self.elements.split_at_mut(depth + 1);
                let parents = &mut upper[depth];
                let children = &mut lower[0];
                for (order, parent) in parents.iter_mut().enumerate() {
                    if let Some(request) = parent.pop_response() {
                        // Route by client id: which child subtree owns it?
                        let leaf_order = request.client as usize / self.config.branch;
                        let child_order =
                            leaf_order / self.config.branch.pow((levels - 2 - depth) as u32);
                        debug_assert_eq!(
                            child_order / self.config.branch.max(1),
                            order,
                            "response routed through the wrong subtree"
                        );
                        children[child_order].accept_response(request);
                    }
                }
            }
        }
        // 2. Memory completions enter the root's demultiplexer.
        if let Some(done) = self.mem.complete(now, &mut self.metrics) {
            self.elements[0][0].accept_response(done);
        }
        // 3. Root arbitration feeds the memory controller.
        let root_ready = self.mem.can_accept();
        let mask = self.mem.root_mask(
            now,
            root_ready,
            self.config.branch,
            &mut self.metrics,
            |port| self.elements[0][0].peek_port(port),
        );
        let granted =
            self.elements[0][0].step_masked(now, root_ready, &mut self.metrics, mask.as_deref());
        if let Some(request) = granted {
            let event = self.mem.issue(request, now, &mut self.metrics);
            self.service_events.push_back(event);
        }
        // 4. Deeper levels forward one request per SE toward their parents.
        for depth in 1..self.config.levels() {
            let (upper, lower) = self.elements.split_at_mut(depth);
            let parents = &mut upper[depth - 1];
            for (order, se) in lower[0].iter_mut().enumerate() {
                let parent = &mut parents[order / self.config.branch];
                let port = order % self.config.branch;
                let ready = parent.can_accept(port);
                let mask = if have_faults {
                    let branch = self.config.branch;
                    stuck_mask(
                        self.mem.faults(),
                        depth,
                        order,
                        branch,
                        now,
                        &mut self.metrics,
                    )
                } else {
                    None
                };
                let granted = se.step_masked(now, ready, &mut self.metrics, mask.as_deref());
                if let Some(request) = granted {
                    parent
                        .try_accept(port, request)
                        .expect("parent advertised a free slot");
                }
            }
        }
    }

    fn pop_response(&mut self) -> Option<MemoryResponse> {
        self.ready.pop_front()
    }

    fn pop_service_event(&mut self) -> Option<ServiceEvent> {
        self.service_events.pop_front()
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        Some(BlueScaleInterconnect::metrics(self))
    }

    fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        Some(BlueScaleInterconnect::metrics_mut(self))
    }

    fn pending(&self) -> usize {
        let buffered: usize = match &self.soa {
            Some(soa) => soa.buffered() + soa.responses_queued(),
            None => self
                .elements
                .iter()
                .flatten()
                .map(|se| se.occupancy() + se.response_occupancy())
                .sum(),
        };
        let in_service = usize::from(!self.mem.can_accept());
        buffered + in_service + self.ready.len()
    }

    fn next_event_hint(&self, now: Cycle) -> Option<Cycle> {
        // Any request or response anywhere in the fabric means the next
        // step can grant, forward or route — busy, no jump. (Replenishments
        // alone never require stepping: an idle server replenishing cannot
        // cause a grant, because selection — work-conserving included —
        // requires a pending request; `advance_idle` replays the counter
        // arithmetic in closed form.)
        if !self.ready.is_empty() || !self.service_events.is_empty() {
            return Some(now);
        }
        let fabric_busy = match &self.soa {
            Some(soa) => !soa.is_quiescent(),
            None => self.elements.iter().flatten().any(|se| !se.is_quiescent()),
        };
        if fabric_busy {
            return Some(now);
        }
        Some(self.mem.idle_bound(now))
    }

    fn advance_idle(&mut self, _now: Cycle, delta: u64) {
        debug_assert!(
            !self.metrics.detail(),
            "fast-forward must be gated off while detail recording is on"
        );
        match self.soa.as_mut() {
            Some(soa) => soa.advance_idle(delta),
            None => {
                for se in self.elements.iter_mut().flatten() {
                    se.advance_idle(delta, &mut self.metrics);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluescale_interconnect::AccessKind;
    use bluescale_rt::task::Task;
    use bluescale_sim::fault::FaultKind;

    fn sets(n: usize, period: u64, wcet: u64) -> Vec<TaskSet> {
        (0..n)
            .map(|_| TaskSet::new(vec![Task::new(0, period, wcet).unwrap()]).unwrap())
            .collect()
    }

    fn request(client: u32, id: u64, now: Cycle, deadline: Cycle) -> MemoryRequest {
        MemoryRequest {
            id,
            client,
            task: 0,
            addr: (client as u64) << 20 | id,
            kind: AccessKind::Read,
            issued_at: now,
            deadline,
            blocked_cycles: 0,
        }
    }

    #[test]
    fn builds_16_client_quadtree() {
        let ic = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
            .unwrap();
        assert_eq!(ic.num_clients(), 16);
        let comp = ic.composition();
        assert!(comp.analysis_ok);
        assert!(comp.schedulable, "root bw = {}", comp.root_bandwidth);
        assert_eq!(comp.reprogrammed_elements, 5);
        // Every leaf port serving a client has an interface.
        for se in &comp.interfaces[1] {
            assert!(se.iter().all(Option::is_some));
        }
    }

    #[test]
    fn rejects_wrong_client_count() {
        let err = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(8, 100, 1))
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::WrongClientCount {
                expected: 16,
                got: 8
            }
        );
    }

    #[test]
    fn single_request_round_trip() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        ic.inject(request(5, 1, 0, 400), 0).unwrap();
        let mut got = None;
        for now in 0..100 {
            ic.step(now);
            if let Some(r) = ic.pop_response() {
                got = Some((now, r));
                break;
            }
        }
        let (when, resp) = got.expect("request must complete");
        assert_eq!(resp.request.id, 1);
        assert!(!resp.missed_deadline());
        // Two SE hops + 1 service + 2 response hops ≥ 5 cycles.
        assert!(when >= 4, "completed unrealistically fast at {when}");
        assert_eq!(ic.pending(), 0);
    }

    #[test]
    fn all_clients_round_trip() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 800, 2))
                .unwrap();
        for c in 0..16u32 {
            ic.inject(request(c, c as u64, 0, 800), 0).unwrap();
        }
        let mut done = 0;
        for now in 0..2000 {
            ic.step(now);
            while ic.pop_response().is_some() {
                done += 1;
            }
        }
        assert_eq!(done, 16);
        assert_eq!(ic.pending(), 0);
    }

    #[test]
    fn overutilized_clients_fall_back() {
        // Four clients each demanding 40% of the root: total 1.6 > 1.
        let ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(4), &sets(4, 10, 4)).unwrap();
        let comp = ic.composition();
        assert!(!comp.analysis_ok);
        assert!(!comp.schedulable);
    }

    #[test]
    fn update_client_reprograms_only_the_path() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(64), &sets(64, 800, 2))
                .unwrap();
        let before = ic.composition().interfaces.clone();
        let new_tasks = TaskSet::new(vec![Task::new(0, 200, 10).unwrap()]).unwrap();
        let report = ic.update_client_tasks(37, new_tasks).unwrap();
        // Path length = number of levels = 3.
        assert_eq!(report.reprogrammed_elements, 3);
        let after = &ic.composition().interfaces;
        // Client 37 → leaf SE (2, 9) → SE(1, 2) → root. Everything else
        // must be bit-identical.
        let path: Vec<(usize, usize)> = vec![(2, 9), (1, 2), (0, 0)];
        for depth in 0..3 {
            for order in 0..before[depth].len() {
                if path.contains(&(depth, order)) {
                    continue;
                }
                assert_eq!(
                    before[depth][order], after[depth][order],
                    "SE({depth},{order}) must be untouched"
                );
            }
        }
    }

    #[test]
    fn update_unknown_client_errors() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(4), &sets(4, 100, 1)).unwrap();
        let e = ic.update_client_tasks(9, TaskSet::empty()).unwrap_err();
        assert_eq!(e, BuildError::UnknownClient { client: 9 });
    }

    #[test]
    fn root_bandwidth_bounded_when_schedulable() {
        let ic = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
            .unwrap();
        let comp = ic.composition();
        assert!(comp.root_bandwidth <= 1.0 + 1e-9);
        assert!(comp.root_bandwidth > 0.0);
    }

    #[test]
    fn sixty_four_clients_build() {
        let ic = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(64), &sets(64, 6400, 4))
            .unwrap();
        assert_eq!(ic.composition().interfaces[2].len(), 16);
        assert!(ic.composition().schedulable);
    }

    #[test]
    fn admission_accepts_feasible_and_rejects_overload() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        assert!(ic.composition().schedulable);
        // A modest increase is admitted and takes effect.
        let ok = ic
            .admit_client_tasks(
                5,
                TaskSet::new(vec![Task::new(0, 400, 8).unwrap()]).unwrap(),
            )
            .unwrap();
        assert!(ok);
        assert_eq!(ic.client_tasks()[5].tasks()[0].wcet(), 8);
        // A hog that would blow the root budget is rejected and rolled
        // back.
        let hog = TaskSet::new(vec![Task::new(0, 100, 95).unwrap()]).unwrap();
        let admitted = ic.admit_client_tasks(5, hog).unwrap();
        assert!(!admitted);
        assert_eq!(ic.client_tasks()[5].tasks()[0].wcet(), 8, "rolled back");
        assert!(ic.composition().schedulable, "composition restored");
    }

    #[test]
    fn reconfigure_admits_feasible_update_with_deferred_swap() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        let outcome = ic.reconfigure_client(
            5,
            &TaskSet::new(vec![Task::new(0, 400, 8).unwrap()]).unwrap(),
            0,
        );
        let ReconfigOutcome::Admitted { transition_cycles } = outcome else {
            panic!("feasible update must be admitted, got {outcome:?}");
        };
        // Freshly built servers sit a full period away from their next
        // replenishment, so the staged swaps report a non-zero latency.
        assert!(transition_cycles > 0, "swap must wait for the boundary");
        assert_eq!(ic.client_tasks()[5].tasks()[0].wcet(), 8);
        assert!(ic.composition().schedulable);
        assert_eq!(ic.composition().reprogrammed_elements, 2, "path only");
        // Churn accounting lives in the harness registry, not the fabric's:
        // an admitted transition leaves the fabric tally untouched, so
        // `merged_registry()` never double-counts it.
        assert_eq!(
            ic.metrics()
                .counter(ComponentId::System, Counter::Reconfigurations),
            0
        );
    }

    #[test]
    fn reconfigure_rejects_hog_bit_identically() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        let interfaces = ic.composition().interfaces.clone();
        let tasks = ic.client_tasks().to_vec();
        let root_bandwidth = ic.composition().root_bandwidth;
        let hog = TaskSet::new(vec![Task::new(0, 100, 95).unwrap()]).unwrap();
        assert_eq!(ic.reconfigure_client(5, &hog, 7), ReconfigOutcome::Rejected);
        // The trial ran on cloned tables: nothing in the live fabric moved.
        assert_eq!(ic.composition().interfaces, interfaces);
        assert_eq!(ic.client_tasks(), tasks);
        assert_eq!(ic.composition().root_bandwidth, root_bandwidth);
        assert!(ic.composition().schedulable);
        assert_eq!(
            ic.metrics()
                .counter(ComponentId::System, Counter::Reconfigurations),
            0
        );
    }

    #[test]
    fn cancelled_reconfigure_leaves_fabric_bit_identical() {
        use bluescale_interconnect::admission::CancelToken;

        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        let interfaces = ic.composition().interfaces.clone();
        let tasks = ic.client_tasks().to_vec();
        let update = TaskSet::new(vec![Task::new(0, 400, 8).unwrap()]).unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        assert_eq!(
            ic.reconfigure_client_cancellable(5, &update, 0, &cancel),
            ReconfigOutcome::Cancelled
        );
        assert_eq!(ic.composition().interfaces, interfaces);
        assert_eq!(ic.client_tasks(), tasks);
        // A live token behaves exactly like the plain entry point.
        let outcome = ic.reconfigure_client_cancellable(5, &update, 0, &CancelToken::new());
        assert!(matches!(outcome, ReconfigOutcome::Admitted { .. }));
        assert_eq!(ic.client_tasks()[5].tasks()[0].wcet(), 8);
    }

    #[test]
    fn reconfigure_leave_and_rejoin_round_trip() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        let interfaces = ic.composition().interfaces.clone();
        // Leave: an empty task set vacates the slot...
        assert!(ic.reconfigure_client(3, &TaskSet::empty(), 10).applied());
        assert!(ic.client_tasks()[3].is_empty());
        // ...and rejoining with the original declaration is admitted.
        let rejoin = TaskSet::new(vec![Task::new(0, 400, 4).unwrap()]).unwrap();
        assert!(ic.reconfigure_client(3, &rejoin, 20).applied());
        assert_eq!(ic.composition().interfaces, interfaces, "state restored");
        assert_eq!(
            ic.reconfigure_client(99, &rejoin, 30),
            ReconfigOutcome::Rejected,
            "out-of-range client"
        );
    }

    #[test]
    fn typed_events_record_grant_path_when_detail_enabled() {
        use bluescale_sim::metrics::Event;

        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        // Detail off by default: no events, but counters still tally.
        ic.inject(request(2, 1, 0, 400), 0).unwrap();
        for now in 0..20 {
            ic.step(now);
        }
        assert!(ic.metrics().events().is_empty());
        assert_eq!(
            ic.metrics()
                .counter(ComponentId::Client(2), Counter::Enqueued),
            1
        );
        // Enabled: the grant path (leaf SE then root, then memory issue) is
        // recorded as typed events.
        ic.metrics_mut().enable_detail();
        ic.inject(request(2, 2, 20, 420), 20).unwrap();
        // Step past the server's replenishment period: the first request
        // consumed the port's budget under strict gating.
        for now in 20..420 {
            ic.step(now);
        }
        let events = ic.metrics().events();
        assert!(!events.is_empty());
        let leaf = ComponentId::Se { depth: 1, order: 0 };
        let root = ComponentId::Se { depth: 0, order: 0 };
        assert!(events.iter().any(|e| matches!(
            e.event,
            Event::Grant {
                component, request: 2, ..
            } if component == leaf
        )));
        assert!(events.iter().any(|e| matches!(
            e.event,
            Event::Grant {
                component, request: 2, ..
            } if component == root
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, Event::MemIssue { request: 2, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, Event::MemComplete { request: 2 })));
    }

    #[test]
    fn lifecycle_breakdown_sums_to_total_latency() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        ic.metrics_mut().enable_detail();
        ic.inject(request(5, 1, 0, 400), 0).unwrap();
        for now in 0..100 {
            ic.step(now);
            if ic.pop_response().is_some() {
                break;
            }
        }
        use bluescale_sim::metrics::SampleKind;
        let m = ic.metrics();
        let client = ComponentId::Client(5);
        let stages = [
            SampleKind::Queueing,
            SampleKind::NocTransit,
            SampleKind::Service,
            SampleKind::ResponseTransit,
        ];
        let sum: f64 = stages
            .iter()
            .map(|&k| m.samples(client, k).expect("breakdown recorded").as_slice()[0])
            .sum();
        // Every stage recorded exactly once and the service stage is the
        // DRAM's flat service time.
        assert!(
            m.samples(client, SampleKind::Service).unwrap().as_slice()[0] >= 1.0,
            "memory service takes time"
        );
        assert!(sum >= 4.0, "two hops + service + response: {sum}");
        assert_eq!(m.inflight(), 0, "lifecycle closed on delivery");
    }

    #[test]
    fn forward_counts_read_from_registry() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        ic.inject(request(3, 1, 0, 400), 0).unwrap();
        for now in 0..50 {
            ic.step(now);
        }
        let counts = ic.forward_counts();
        // Client 3 attaches to leaf SE(1,0): one forward there and one at
        // the root.
        assert_eq!(counts[1][0], 1);
        assert_eq!(counts[0][0], 1);
        assert_eq!(counts[1][1], 0);
    }

    #[test]
    fn malformed_client_is_a_typed_error_not_a_panic() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        let bogus = request(99, 1, 0, 400);
        match ic.try_inject(bogus.clone(), 0) {
            Err(InjectError::UnknownClient {
                client: 99,
                num_clients: 16,
                request,
            }) => assert_eq!(request, bogus),
            other => panic!("expected UnknownClient, got {other:?}"),
        }
        // The trait path degrades to handing the request back.
        let bounced = ic.inject(bogus.clone(), 0).unwrap_err();
        assert_eq!(bounced, bogus);
        assert_eq!(ic.pending(), 0, "nothing entered the tree");
    }

    #[test]
    fn inject_error_display_and_recovery() {
        let e = InjectError::UnknownClient {
            client: 7,
            num_clients: 4,
            request: request(7, 3, 0, 10),
        };
        assert!(e.to_string().contains("unknown client 7"));
        assert_eq!(e.into_request().id, 3);
        let full = InjectError::PortFull(request(1, 9, 0, 10));
        assert!(full.to_string().contains("full"));
        assert_eq!(full.into_request().id, 9);
    }

    #[test]
    fn drop_response_fault_swallows_completions() {
        use bluescale_sim::fault::{FaultPlan, FaultWindow};

        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        let mut plan = FaultPlan::new(3);
        plan.push(
            FaultKind::DropResponse {
                client: 5,
                every: 1,
            },
            FaultWindow::ALWAYS,
        );
        ic.install_fault_plan(&plan);
        ic.inject(request(5, 1, 0, 400), 0).unwrap();
        for now in 0..200 {
            ic.step(now);
            assert!(ic.pop_response().is_none(), "response must be dropped");
        }
        let m = BlueScaleInterconnect::metrics(&ic);
        assert_eq!(
            m.counter(ComponentId::Client(5), Counter::ResponsesDropped),
            1
        );
        assert_eq!(m.counter(ComponentId::System, Counter::FaultsInjected), 1);
    }

    #[test]
    fn stuck_grant_fault_holds_the_port_for_its_window() {
        use bluescale_sim::fault::{FaultPlan, FaultWindow};

        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        // Client 0 attaches to leaf SE(1,0) port 0; hold that grant port
        // low for the first 60 cycles.
        let mut plan = FaultPlan::new(4);
        plan.push(
            FaultKind::StuckGrant {
                depth: 1,
                order: 0,
                port: 0,
            },
            FaultWindow::new(0, 60),
        );
        ic.install_fault_plan(&plan);
        ic.inject(request(0, 1, 0, 400), 0).unwrap();
        let mut completed_at = None;
        for now in 0..300 {
            ic.step(now);
            if ic.pop_response().is_some() {
                completed_at = Some(now);
                break;
            }
        }
        let when = completed_at.expect("completes once the window closes");
        assert!(when >= 60, "held until cycle 60, completed at {when}");
        let m = BlueScaleInterconnect::metrics(&ic);
        assert_eq!(
            m.counter(
                ComponentId::Se { depth: 1, order: 0 },
                Counter::FaultsInjected
            ),
            60
        );
    }

    #[test]
    fn dram_jitter_fault_stretches_service() {
        use bluescale_sim::fault::{FaultPlan, FaultWindow};

        let drive = |jitter: bool| -> u64 {
            let mut ic =
                BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                    .unwrap();
            if jitter {
                let mut plan = FaultPlan::new(11);
                plan.push(
                    FaultKind::DramJitter {
                        bank: 0,
                        max_extra_cycles: 12,
                    },
                    FaultWindow::ALWAYS,
                );
                ic.install_fault_plan(&plan);
            }
            for id in 0..8u64 {
                ic.inject(request(0, id + 1, 0, 4000), 0).unwrap();
            }
            let mut total = 0;
            for now in 0..2_000 {
                ic.step(now);
                while let Some(e) = ic.pop_service_event() {
                    total += e.duration;
                }
            }
            total
        };
        let base = drive(false);
        let jittered = drive(true);
        assert!(
            jittered > base,
            "jitter must stretch total service: {jittered} vs {base}"
        );
        // Deterministic: the same seeded plan reproduces exactly.
        assert_eq!(drive(true), jittered);
    }

    #[test]
    fn demote_client_clears_its_reservation() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        let (order, port) = ic.config().attach_point(5);
        assert!(ic.composition().interfaces[1][order][port].is_some());
        assert!(ic.demote_client(5));
        assert!(
            ic.composition().interfaces[1][order][port].is_none(),
            "demoted client's leaf port has no reserved interface"
        );
        assert!(ic.client_tasks()[5].is_empty());
    }

    #[test]
    fn build_error_display() {
        let e = BuildError::WrongClientCount {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("expected 4"));
        assert!(BuildError::UnknownClient { client: 3 }
            .to_string()
            .contains('3'));
    }

    #[test]
    fn registry_lag_reconverges_exactly() {
        use bluescale_mem::DramConfig;
        for soa_core in [false, true] {
            let cfg = BlueScaleConfig {
                dram: Some(DramConfig::default()),
                soa_core,
                ..BlueScaleConfig::for_clients(16)
            };
            let mut ic = BlueScaleInterconnect::new(cfg, &sets(16, 400, 4)).unwrap();
            for c in 0..16u32 {
                ic.inject(request(c, c as u64, 0, 400), 0).unwrap();
            }
            for now in 0..120 {
                ic.step(now);
                while ic.pop_response().is_some() {}
            }
            let live = ic.memory_stats();
            assert!(live.accepted > 0, "workload must reach the controller");
            // The &self read may lag the live stats, but never exceeds them.
            let lagged = ic
                .metrics()
                .counter(ComponentId::Memory, Counter::MemAccepted);
            assert!(lagged <= live.accepted, "mirror may lag, never lead");
            // metrics_mut flushes: the mirror reconverges *exactly*.
            let flushed = ic.metrics_mut();
            let m = ComponentId::Memory;
            assert_eq!(flushed.counter(m, Counter::MemAccepted), live.accepted);
            assert_eq!(flushed.counter(m, Counter::MemCompleted), live.completed);
            assert_eq!(flushed.counter(m, Counter::RowHits), live.row_hits);
            assert_eq!(flushed.counter(m, Counter::RowMisses), live.row_misses);
            assert_eq!(flushed.counter(m, Counter::BusyCycles), live.busy_cycles);
        }
    }

    #[test]
    fn per_bank_regulation_defers_and_conserves_on_both_engines() {
        use bluescale_mem::{DramConfig, MemPolicyConfig};
        for soa_core in [false, true] {
            let cfg = BlueScaleConfig {
                dram: Some(DramConfig::default()),
                mem_policy: MemPolicyConfig::PerBankRegulation {
                    window: 200,
                    budget: 1,
                },
                soa_core,
                ..BlueScaleConfig::for_clients(16)
            };
            let mut ic = BlueScaleInterconnect::new(cfg, &sets(16, 4000, 4)).unwrap();
            // All default test addresses share bank 0, so a 1-per-200
            // budget must defer heavily yet lose nothing.
            let mut id = 0;
            for c in 0..16u32 {
                for _ in 0..2 {
                    id += 1;
                    let mut r = request(c, id, 0, 40_000);
                    r.addr = 0;
                    ic.inject(r, 0).unwrap();
                }
            }
            let mut done = 0;
            for now in 0..40_000 {
                ic.step(now);
                while ic.pop_response().is_some() {
                    done += 1;
                }
                if done == id {
                    break;
                }
            }
            assert_eq!(done, id, "soa_core={soa_core}: deferred requests drain");
            let deferred = ic
                .metrics_mut()
                .counter(ComponentId::Memory, Counter::PolicyDeferred);
            assert!(deferred > 0, "soa_core={soa_core}: budget must bite");
        }
    }

    #[test]
    fn deterministic_memory_closes_pages_for_dm_clients_only() {
        use bluescale_mem::{DramConfig, MemPolicyConfig};
        // Client 3 is deterministic; everyone idle. Same-row streaks from
        // the dm client must never hit; the best-effort client must.
        let run = |dm: bool| {
            let cfg = BlueScaleConfig {
                dram: Some(DramConfig::default()),
                mem_policy: MemPolicyConfig::DeterministicMemory {
                    dm_clients: if dm { vec![3] } else { vec![] },
                },
                ..BlueScaleConfig::for_clients(16)
            };
            let mut ic = BlueScaleInterconnect::new(cfg, &sets(16, 4000, 4)).unwrap();
            for id in 1..=8u64 {
                let mut r = request(3, id, 0, 4000);
                r.addr = id * 64; // one row, sequential words
                ic.inject(r, 0).unwrap();
            }
            for now in 0..2_000 {
                ic.step(now);
                while ic.pop_response().is_some() {}
            }
            ic.memory_stats()
        };
        let deterministic = run(true);
        let best_effort = run(false);
        assert_eq!(deterministic.row_hits, 0, "dm requests never ride the row");
        assert!(best_effort.row_hits > 0, "best-effort keeps the fast path");
        assert!(
            deterministic.busy_cycles > best_effort.busy_cycles,
            "closed-page service pays for its determinism"
        );
    }
}
