//! The composition analysis: every SE's parameter path, apart from the
//! arbitration datapath.
//!
//! In the paper each SE keeps two things apart: the interface selector,
//! where software loads the task parameter table and a small datapath
//! computes `(Π, Θ)`, and the single-cycle arbitration datapath those
//! parameters program. [`Composition`] is the first half for the whole
//! tree. It holds one [`InterfaceSelector`] per SE, the client task sets,
//! the selected interfaces and the root admission verdict
//! ([`CompositionReport`]), and it steps nothing. The runtime engines —
//! [`BlueScaleInterconnect`](crate::BlueScaleInterconnect)'s engine and
//! the sharded system's cores — are programmed from its interfaces.
//!
//! Construction resolves the interface-selection problems level by level
//! from the leaves to the root, each level's chosen interfaces becoming
//! the server tasks of the level above; the exact root admission test
//! `Σ Θ/Π ≤ 1` then decides schedulability. A reconfiguration re-solves
//! only the client's request path: an admission trial runs on cloned
//! selector tables, and only an admitted trial is committed.

use crate::selector::{InterfaceSelector, TableRow};
use crate::soa::MAX_BRANCH;
use crate::topology::BlueScaleConfig;
use bluescale_interconnect::admission::CancelToken;
use bluescale_rt::interface::root_admissible;
use bluescale_rt::supply::PeriodicResource;
use bluescale_rt::task::TaskSet;
use bluescale_rt::Error as RtError;
use std::fmt;

/// Errors raised while building a BlueScale instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The number of task sets does not match the configured client count.
    WrongClientCount {
        /// Clients the configuration expects.
        expected: usize,
        /// Task sets supplied.
        got: usize,
    },
    /// The analysis rejected the task parameters outright (invalid task,
    /// duplicate ids).
    Analysis(RtError),
    /// A setting no engine can run: `branch` outside `2..=64` (a fan-in
    /// below 2 never reaches a second client, and an SE's ports are the
    /// bits of one `u64`), a zero `buffer_capacity` (no request could ever
    /// enter a port), a zero `granularity_divisor` (no server period to
    /// divide), or, for a sharded build only, a `num_clients` that fits
    /// one SE (a single-SE tree has no level-1 subtrees to shard).
    InvalidConfig {
        /// The offending [`BlueScaleConfig`] field.
        field: &'static str,
        /// The rejected value.
        value: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::WrongClientCount { expected, got } => {
                write!(f, "expected {expected} client task sets, got {got}")
            }
            BuildError::Analysis(e) => write!(f, "analysis error: {e}"),
            BuildError::InvalidConfig { field, value } => {
                write!(f, "invalid {field} {value}: {field} ")?;
                match *field {
                    "branch" => write!(f, "must be in 2..={MAX_BRANCH}"),
                    "num_clients" => f.write_str("must exceed branch in a sharded build"),
                    _ => f.write_str("must be at least 1"),
                }
            }
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Analysis(e) => Some(e),
            BuildError::WrongClientCount { .. } | BuildError::InvalidConfig { .. } => None,
        }
    }
}

impl From<RtError> for BuildError {
    fn from(e: RtError) -> Self {
        BuildError::Analysis(e)
    }
}

/// Result of resolving all interface-selection problems over the tree.
#[derive(Debug, Clone)]
pub struct CompositionReport {
    /// Whether the analysis succeeded at every SE **and** the root passes
    /// the exact admission test `Σ Θ/Π ≤ 1` ([`root_admissible`]) — the
    /// paper's condition for guaranteed schedulability.
    pub schedulable: bool,
    /// Whether minimum-bandwidth selection succeeded everywhere (when
    /// false, over-utilized SEs fell back to utilization-proportional
    /// best-effort interfaces and `schedulable` is false).
    pub analysis_ok: bool,
    /// Total bandwidth demanded from the memory controller by the root's
    /// server tasks (`Σ Θ/Π` at level 1), for reporting.
    pub root_bandwidth: f64,
    /// Selected interfaces, indexed `[depth][order][port]`.
    pub interfaces: Vec<Vec<Vec<Option<PeriodicResource>>>>,
    /// SEs whose parameters were rewritten by the most recent
    /// (re)configuration — the whole tree on construction, only the
    /// affected request path afterwards.
    pub reprogrammed_elements: usize,
}

/// One path SE's result: `(depth, order, selected interfaces)`.
pub(crate) type PathTrial = (usize, usize, Vec<Option<PeriodicResource>>);

/// Why a cancellable admission trial produced no path: a final analytical
/// rejection versus a caller-side cancellation that decided nothing (the
/// request may be retried). Both leave the composition untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TrialAbort {
    /// The analysis rejected the update (infeasible path SE, off-path
    /// fallback, or root overshoot).
    Rejected,
    /// The caller's [`CancelToken`] fired mid-analysis.
    Cancelled,
}

/// The composition analysis of one BlueScale tree: per-SE interface
/// selectors, client task sets and the selected interfaces.
///
/// # Example
///
/// ```
/// use bluescale::composition::Composition;
/// use bluescale::BlueScaleConfig;
/// use bluescale_rt::task::{Task, TaskSet};
///
/// let sets = vec![TaskSet::new(vec![Task::new(0, 400, 4)?])?; 16];
/// let analysis = Composition::new(BlueScaleConfig::for_clients(16), &sets)?;
/// assert!(analysis.report().schedulable);
/// assert_eq!(analysis.report().reprogrammed_elements, 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Composition {
    config: BlueScaleConfig,
    /// `selectors[d][o]`: the task parameter table of SE `(d, o)`.
    selectors: Vec<Vec<InterfaceSelector>>,
    client_tasks: Vec<TaskSet>,
    report: CompositionReport,
    /// Per-SE analysis outcome (`[depth][order]`): whether minimum-
    /// bandwidth selection succeeded there (false = fallback interfaces).
    se_analysis_ok: Vec<Vec<bool>>,
}

impl Composition {
    /// Loads the leaf parameter tables from `task_sets` and resolves every
    /// interface-selection problem from the leaves to the root.
    ///
    /// If some SE's clients are analytically over-utilized, construction
    /// still succeeds — the affected SEs get utilization-proportional
    /// fallback interfaces — but [`CompositionReport::schedulable`] is
    /// `false`. This mirrors deploying a system that fails admission: the
    /// hardware still runs, the guarantee is simply absent.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidConfig`] for a `branch` outside
    /// `2..=64`, a zero `buffer_capacity` or a zero `granularity_divisor`,
    /// [`BuildError::WrongClientCount`] on a task-set count mismatch, or
    /// [`BuildError::Analysis`] if task parameters are malformed (zero
    /// periods, duplicate ids).
    pub fn new(config: BlueScaleConfig, task_sets: &[TaskSet]) -> Result<Self, BuildError> {
        if !(2..=MAX_BRANCH).contains(&config.branch) {
            return Err(BuildError::InvalidConfig {
                field: "branch",
                value: config.branch,
            });
        }
        if config.buffer_capacity == 0 {
            return Err(BuildError::InvalidConfig {
                field: "buffer_capacity",
                value: 0,
            });
        }
        if config.granularity_divisor == 0 {
            return Err(BuildError::InvalidConfig {
                field: "granularity_divisor",
                value: 0,
            });
        }
        if task_sets.len() != config.num_clients {
            return Err(BuildError::WrongClientCount {
                expected: config.num_clients,
                got: task_sets.len(),
            });
        }
        let levels = config.levels();
        let mut selector = InterfaceSelector::new(config.branch);
        selector.set_period_divisor(config.granularity_divisor);
        let mut this = Self {
            selectors: (0..levels)
                .map(|d| vec![selector.clone(); config.elements_at(d)])
                .collect(),
            client_tasks: task_sets.to_vec(),
            se_analysis_ok: (0..levels)
                .map(|d| vec![true; config.elements_at(d)])
                .collect(),
            report: CompositionReport {
                schedulable: false,
                analysis_ok: false,
                root_bandwidth: 0.0,
                interfaces: (0..levels)
                    .map(|d| vec![vec![None; config.branch]; config.elements_at(d)])
                    .collect(),
                reprogrammed_elements: 0,
            },
            config,
        };
        for (client, set) in task_sets.iter().enumerate() {
            let (order, port) = this.config.attach_point(client);
            for row in this.leaf_rows(port, set) {
                this.selectors[levels - 1][order].load(row)?;
            }
        }
        for depth in (0..levels).rev() {
            for order in 0..this.config.elements_at(depth) {
                this.resolve_se(depth, order)?;
            }
        }
        this.refresh_summary(this.selectors.iter().map(Vec::len).sum());
        Ok(this)
    }

    /// The static configuration.
    pub(crate) fn config(&self) -> &BlueScaleConfig {
        &self.config
    }

    /// The most recent composition result.
    pub fn report(&self) -> &CompositionReport {
        &self.report
    }

    /// The task sets currently programmed per client.
    pub(crate) fn client_tasks(&self) -> &[TaskSet] {
        &self.client_tasks
    }

    /// Loads `tasks` into `client`'s leaf table rows, leaving the table
    /// untouched when a row is invalid.
    fn load_client(&mut self, client: usize, tasks: TaskSet) -> Result<(), RtError> {
        let (order, port) = self.config.attach_point(client);
        let rows = self.leaf_rows(port, &tasks);
        self.selectors[self.config.levels() - 1][order].reload_port(port as u8, &rows)?;
        self.client_tasks[client] = tasks;
        Ok(())
    }

    /// The table rows describing `tasks` at a leaf `port` (analysis
    /// deadlines deflated by the configured margin).
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

    /// The table rows a child SE's selected interfaces become at its
    /// parent's `port`.
    fn interface_rows(port: u8, interfaces: &[Option<PeriodicResource>]) -> Vec<TableRow> {
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

    /// Admission-tests `tasks` for `client` without touching the
    /// composition: the interface-selection problems along the client's
    /// request path (leaf SE up to the root) are re-solved on *cloned*
    /// parameter tables, every other subtree reusing its cached interfaces.
    /// Returns the path's newly selected interfaces (leaf first) when the
    /// update is admissible: selection succeeded at every path SE, every
    /// off-path SE already held a valid analysis, and the root passes the
    /// **exact** admission test `Σ Θ/Π ≤ 1` ([`root_admissible`]).
    /// The cancellation token (when supplied) is polled once per path SE —
    /// each `compute()` is the expensive unit of work — and an expired
    /// token aborts the trial with [`TrialAbort::Cancelled`]. The trial
    /// mutates nothing, so abandoning it mid-path needs no rollback.
    fn trial(
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
        let mut rows = self.leaf_rows(port, tasks);
        for depth in (0..levels).rev() {
            if cancel.is_some_and(|c| c.is_cancelled()) {
                return Err(TrialAbort::Cancelled);
            }
            let mut sel = self.selectors[depth][order].clone();
            if sel.reload_port(reload, &rows).is_err() {
                return Err(TrialAbort::Rejected);
            }
            // Admission has no fallback: an analytically infeasible path
            // SE rejects the request outright.
            let Ok(ifaces) = sel.compute() else {
                return Err(TrialAbort::Rejected);
            };
            reload = (order % self.config.branch) as u8;
            rows = Self::interface_rows(reload, &ifaces);
            trial.push((depth, order, ifaces));
            order /= self.config.branch;
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

    /// The one way a live composition changes: runs the admission trial
    /// for `client`/`tasks` and, when admitted, commits it — the leaf
    /// table rows, the cached interfaces and analysis flags along the
    /// request path, the parent table rows, and the refreshed summary.
    /// Returns the admitted path (leaf first) so the caller can program
    /// its runtime engine. A rejected or cancelled trial writes nothing —
    /// it is decided entirely on cloned tables.
    ///
    /// One case skips the trial: an empty set (the client leaves or is
    /// quarantined) on a composition that is already not schedulable.
    /// There is no guarantee left to protect, and a trial would reject
    /// the shed whenever a fallback SE sits off the client's path, so the
    /// path is re-solved with fallback as construction does. Such a shed
    /// cannot be rejected and does not poll `cancel`.
    pub(crate) fn commit(
        &mut self,
        client: usize,
        tasks: &TaskSet,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<PathTrial>, TrialAbort> {
        if client >= self.config.num_clients {
            return Err(TrialAbort::Rejected);
        }
        if tasks.is_empty() && !self.report.schedulable {
            return Ok(self.shed(client));
        }
        let trial = self.trial(client, tasks, cancel)?;
        // Rows re-validate trivially: the trial already loaded identical
        // rows into the clones.
        self.load_client(client, tasks.clone())
            .expect("rows validated by the admission trial");
        for (depth, order, ifaces) in &trial {
            self.se_analysis_ok[*depth][*order] = true;
            self.report.interfaces[*depth][*order] = ifaces.clone();
            if *depth > 0 {
                let parent_port = (order % self.config.branch) as u8;
                let parent_rows = Self::interface_rows(parent_port, ifaces);
                self.selectors[*depth - 1][order / self.config.branch]
                    .reload_port(parent_port, &parent_rows)
                    .expect("rows validated by the admission trial");
            }
        }
        self.refresh_summary(trial.len());
        Ok(trial)
    }

    /// Empties `client`'s task set and re-solves its request path (leaf
    /// SE up to the root), falling back on analytical failure as
    /// construction does. Returns the path (leaf first).
    fn shed(&mut self, client: usize) -> Vec<PathTrial> {
        self.load_client(client, TaskSet::empty())
            .expect("an empty set loads no rows");
        let levels = self.config.levels();
        let mut path = Vec::with_capacity(levels);
        let mut order = self.config.attach_point(client).0;
        for depth in (0..levels).rev() {
            self.resolve_se(depth, order)
                .expect("interface rows have one id per child port");
            path.push((depth, order, self.report.interfaces[depth][order].clone()));
            order /= self.config.branch;
        }
        self.refresh_summary(levels);
        path
    }

    /// Refreshes the summary (analysis verdict, root bandwidth,
    /// schedulability) after `reprogrammed` SEs changed. Schedulability
    /// uses the same exact root test as the admission trial, so a build
    /// and a trial on the same set can never disagree.
    fn refresh_summary(&mut self, reprogrammed: usize) {
        let r = &mut self.report;
        let root: Vec<PeriodicResource> = r.interfaces[0][0].iter().flatten().copied().collect();
        r.analysis_ok = self.se_analysis_ok.iter().flatten().all(|&ok| ok);
        r.root_bandwidth = root.iter().map(PeriodicResource::bandwidth).sum();
        r.schedulable = r.analysis_ok && root_admissible(&root);
        r.reprogrammed_elements = reprogrammed;
    }

    /// Utilization-proportional fallback: each non-idle port gets
    /// `Π = max(1, min_T/2)` and a budget proportional to its share of the
    /// total demand (normalized when demand exceeds capacity).
    fn fallback_interfaces(&self, selector: &InterfaceSelector) -> Vec<Option<PeriodicResource>> {
        let ports = self.config.branch;
        let mut util = vec![0.0f64; ports];
        let mut min_period = vec![u64::MAX; ports];
        for r in selector.rows() {
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

    /// Resolves SE `(depth, order)`'s interface selection (falling back on
    /// analytical failure) and reloads the parent's table row for this
    /// SE's port.
    fn resolve_se(&mut self, depth: usize, order: usize) -> Result<(), BuildError> {
        let selector = &self.selectors[depth][order];
        let (ifaces, ok) = match selector.compute() {
            Ok(ifaces) => (ifaces, true),
            Err(_) => (self.fallback_interfaces(selector), false),
        };
        self.se_analysis_ok[depth][order] = ok;
        let branch = self.config.branch;
        let parent_port = (order % branch) as u8;
        let rows = Self::interface_rows(parent_port, &ifaces);
        self.report.interfaces[depth][order] = ifaces;
        if depth > 0 {
            self.selectors[depth - 1][order / branch].reload_port(parent_port, &rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluescale_rt::task::Task;

    fn sets(n: usize, period: u64, wcet: u64) -> Vec<TaskSet> {
        vec![TaskSet::new(vec![Task::new(0, period, wcet).unwrap()]).unwrap(); n]
    }

    fn set(specs: &[(u64, u64)]) -> TaskSet {
        let tasks = specs.iter().enumerate();
        TaskSet::new(
            tasks
                .map(|(i, &(t, c))| Task::new(i as u32, t, c).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn summary_uses_the_exact_root_test() {
        // 1 + 1/(3·10⁹): within a 1e-9 float tolerance, exactly over 1.
        // The summary must reject it exactly as an admission trial does.
        let mut c = Composition::new(BlueScaleConfig::for_clients(4), &sets(4, 400, 4)).unwrap();
        assert!(c.report().schedulable);
        let third = PeriodicResource::new(3, 1);
        let sliver = vec![third, third, third, PeriodicResource::new(3_000_000_000, 1)];
        c.report.interfaces[0][0] = sliver;
        c.refresh_summary(1);
        assert!(c.report().analysis_ok);
        assert!(
            c.report().root_bandwidth <= 1.0 + 1e-9,
            "inside the tolerance"
        );
        assert!(!c.report().schedulable, "exactly over 1: not schedulable");

        // A trial decided only by the exact root test: two (4, 2) clients
        // sum to utilization exactly 1, so every SE's selection succeeds,
        // but no interface for (4, 2) reaches bandwidth 1/2 and the root
        // interfaces sum above 1.
        let config = BlueScaleConfig {
            analysis_margin: 1.0,
            ..BlueScaleConfig::for_clients(4)
        };
        let mut sets = vec![TaskSet::empty(); 4];
        sets[0] = set(&[(4, 2)]);
        let mut c = Composition::new(config.clone(), &sets).unwrap();
        assert!(c.report().schedulable);
        let before = c.report().interfaces.clone();
        sets[1] = set(&[(4, 2)]);
        let fresh = Composition::new(config, &sets).unwrap();
        assert!(fresh.report().analysis_ok, "every SE selects");
        assert!(!fresh.report().schedulable, "the root test alone rejects");
        assert_eq!(
            c.commit(1, &sets[1], None).unwrap_err(),
            TrialAbort::Rejected
        );
        assert_eq!(c.report().interfaces, before);
        // A light tenant in the same slot is admitted.
        assert!(c.commit(1, &set(&[(100, 1)]), None).is_ok());
    }

    #[test]
    fn commits_match_a_fresh_composition_of_the_updated_sets() {
        // A churn sequence over a depth-3 tree with a coarsened period
        // search, ending with every churned client back on its original
        // set. Each commit returns its path leaf first and leaves the live
        // composition equal to one built from scratch on the updated sets.
        let config = BlueScaleConfig {
            granularity_divisor: 2,
            ..BlueScaleConfig::for_clients(64)
        };
        let original: Vec<TaskSet> = (0..64u64)
            .map(|i| set(&[(1600 + 10 * (i % 7), 2 + i % 3)]))
            .collect();
        let mut sets = original.clone();
        let mut c = Composition::new(config.clone(), &sets).unwrap();
        let initial = c.report().interfaces.clone();
        let mut churn: Vec<(usize, TaskSet)> = vec![
            (37, set(&[(500, 5), (2000, 10)])),
            (0, set(&[(400, 4)])),
            (63, TaskSet::empty()),
            (17, set(&[(900, 9)])),
            (37, set(&[(600, 3)])),
        ];
        churn.extend([0, 17, 37, 63].map(|client| (client, original[client].clone())));
        for (client, tasks) in churn {
            sets[client] = tasks;
            let path = c.commit(client, &sets[client], None).unwrap();
            let leaf = config.attach_point(client).0;
            let coords: Vec<(usize, usize)> = path.iter().map(|(d, o, _)| (*d, *o)).collect();
            assert_eq!(coords, vec![(2, leaf), (1, leaf / 4), (0, 0)]);
            for (depth, order, ifaces) in &path {
                assert_eq!(&c.report().interfaces[*depth][*order], ifaces);
            }
            assert_eq!(c.report().reprogrammed_elements, 3);
            let fresh = Composition::new(config.clone(), &sets).unwrap();
            assert_eq!(c.report().interfaces, fresh.report().interfaces, "{client}");
            assert!(c.report().schedulable && fresh.report().schedulable);
        }
        assert_eq!(c.report().interfaces, initial, "original sets restored");
    }

    #[test]
    fn rejected_commit_writes_nothing() {
        let mut c = Composition::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4)).unwrap();
        let before = c.report().interfaces.clone();
        let hog = TaskSet::new(vec![Task::new(0, 100, 95).unwrap()]).unwrap();
        assert_eq!(c.commit(5, &hog, None).unwrap_err(), TrialAbort::Rejected);
        assert_eq!(c.report().interfaces, before);
        assert_eq!(c.client_tasks()[5], sets(1, 400, 4)[0]);
    }

    #[test]
    fn shedding_load_from_an_unschedulable_composition_commits() {
        // Clients 0–3 load leaf SE 0 to utilization 1.2, so it falls back
        // and the composition is not schedulable. A trial would reject
        // every shed (a fallback SE is off client 5's path); the shed is
        // committed with fallback instead.
        let mut sets = sets(16, 400, 4);
        for set in &mut sets[..4] {
            *set = TaskSet::new(vec![Task::new(0, 100, 30).unwrap()]).unwrap();
        }
        let mut c = Composition::new(BlueScaleConfig::for_clients(16), &sets).unwrap();
        assert!(!c.report().schedulable);
        let (order, port) = c.config().attach_point(5);
        let path = c.commit(5, &TaskSet::empty(), None).unwrap();
        assert_eq!(path.len(), 2);
        assert!(c.client_tasks()[5].is_empty());
        assert!(c.report().interfaces[1][order][port].is_none());
        assert!(!c.report().schedulable, "leaf SE 0 is still over 1");
        // Shedding the overloading clients one by one: with two gone the
        // leaf selects again but the root still sums above 1; with three
        // gone the guarantee returns.
        for client in [0, 1] {
            assert!(c.commit(client, &TaskSet::empty(), None).is_ok());
        }
        assert!(c.report().analysis_ok && !c.report().schedulable);
        assert!(c.commit(2, &TaskSet::empty(), None).is_ok());
        assert!(c.report().schedulable);
        // A schedulable composition trials every set, empty or not.
        let hog = TaskSet::new(vec![Task::new(0, 100, 95).unwrap()]).unwrap();
        assert_eq!(c.commit(0, &hog, None).unwrap_err(), TrialAbort::Rejected);
    }
}
