//! The composition analysis: every SE's parameter path, apart from the
//! arbitration datapath.
//!
//! In the paper each SE keeps two things apart: the interface selector,
//! where software loads the task parameter table and a small datapath
//! computes `(Π, Θ)`, and the single-cycle arbitration datapath those
//! parameters program. [`Composition`] is the first half for the whole
//! tree. It holds the client task sets, the selected interfaces and the
//! root admission verdict ([`CompositionReport`]), and it steps nothing.
//! The runtime engines — [`BlueScaleInterconnect`](crate::BlueScaleInterconnect)'s
//! engine and the sharded system's cores — are programmed from its
//! interfaces.
//!
//! An SE's parameter table is not stored: it is a function of what sits
//! directly below the SE. A leaf port holds its client's tasks with their
//! deflated analysis deadlines; an inner port holds the child SE's
//! selected interfaces as server tasks. One private function derives it,
//! and construction, admission trials, sheds and the fallback allocation
//! all read it.
//!
//! Construction resolves the interface-selection problems level by level
//! from the leaves to the root, each level's chosen interfaces becoming
//! the server tasks of the level above; the exact root admission test
//! `Σ Θ/Π ≤ 1` then decides schedulability. A reconfiguration re-solves
//! only the client's request path: an admission trial builds each path
//! SE's problem from the cached interfaces with the trial's port swapped
//! in, and only an admitted trial is committed.

use crate::soa::MAX_BRANCH;
use crate::topology::BlueScaleConfig;
use bluescale_rt::interface::{root_admissible, select_se_interfaces_with_divisor};
use bluescale_rt::supply::PeriodicResource;
use bluescale_rt::task::{Task, TaskSet};
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
    /// A setting no engine can run: `branch` outside `2..=64` (a fan-in
    /// below 2 never reaches a second client, and an SE's ports are the
    /// bits of one `u64`), a zero `buffer_capacity` (no request could ever
    /// enter a port), a zero `granularity_divisor` (no server period to
    /// divide), or, for a sharded build only, a `num_clients` that fits
    /// one SE (a single-SE tree has no level-1 subtrees to shard) or zero
    /// `workers`.
    InvalidConfig {
        /// The offending setting: a [`BlueScaleConfig`] field, or
        /// `workers`, the worker count of
        /// [`ShardedSystem::new`](crate::ShardedSystem::new).
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

impl std::error::Error for BuildError {}

/// Rejects a configuration no engine can run (see
/// [`BuildError::InvalidConfig`]); checked before anything else is built.
pub(crate) fn check_config(config: &BlueScaleConfig) -> Result<(), BuildError> {
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
    Ok(())
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

/// What one SE port's tasks derive from: a client's task set at a leaf,
/// a child SE's selected interfaces above it.
#[derive(Clone, Copy)]
enum Below<'a> {
    Client(&'a TaskSet),
    Child(&'a [Option<PeriodicResource>]),
}

/// The composition analysis of one BlueScale tree: client task sets and
/// the selected interfaces.
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
    client_tasks: Vec<TaskSet>,
    report: CompositionReport,
    /// Per-SE analysis outcome (`[depth][order]`): whether minimum-
    /// bandwidth selection succeeded there (false = fallback interfaces).
    se_analysis_ok: Vec<Vec<bool>>,
}

impl Composition {
    /// Resolves every interface-selection problem of `task_sets` from the
    /// leaves to the root.
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
    /// and [`BuildError::WrongClientCount`] on a task-set count mismatch.
    pub fn new(config: BlueScaleConfig, task_sets: &[TaskSet]) -> Result<Self, BuildError> {
        check_config(&config)?;
        if task_sets.len() != config.num_clients {
            return Err(BuildError::WrongClientCount {
                expected: config.num_clients,
                got: task_sets.len(),
            });
        }
        let levels = config.levels();
        let mut this = Self {
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
        for depth in (0..levels).rev() {
            for order in 0..this.config.elements_at(depth) {
                this.resolve_se(depth, order);
            }
        }
        this.refresh_summary(this.config.total_elements());
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

    /// SE `(depth, order)`'s parameter table, one task list per port,
    /// derived from what sits directly below it. A leaf port holds its
    /// client's tasks with their analysis deadlines (deflated by the
    /// configured margin); an inner port holds the child SE's selected
    /// interfaces as server tasks `(T = Π, D = Π, C = Θ)` with the child's
    /// port as id. `path` swaps in one port's input: an admission trial's
    /// request path.
    fn port_tasks(
        &self,
        depth: usize,
        order: usize,
        path: Option<(usize, Below<'_>)>,
    ) -> Vec<Vec<Task>> {
        let branch = self.config.branch;
        let leaf = depth + 1 == self.report.interfaces.len();
        (0..branch)
            .map(|port| {
                let below = match path {
                    Some((p, below)) if p == port => Some(below),
                    _ if leaf => self
                        .client_tasks
                        .get(order * branch + port)
                        .map(Below::Client),
                    _ => Some(Below::Child(
                        &self.report.interfaces[depth + 1][order * branch + port],
                    )),
                };
                match below {
                    None => Vec::new(),
                    Some(Below::Client(set)) => set
                        .iter()
                        .map(|t| {
                            let deadline = self.config.analysis_deadline(t.period(), t.wcet());
                            Task::with_deadline(t.id(), t.period(), deadline, t.wcet())
                                .expect("the analysis deadline lies in [C, T]")
                        })
                        .collect(),
                    // Inner levels keep implicit deadlines: end-to-end
                    // slack is reserved once, at the leaves.
                    Some(Below::Child(ifaces)) => ifaces
                        .iter()
                        .enumerate()
                        .filter_map(|(q, iface)| {
                            iface.map(|r| {
                                Task::new(q as u32, r.period(), r.budget())
                                    .expect("an interface has 0 < Θ ≤ Π")
                            })
                        })
                        .collect(),
                }
            })
            .collect()
    }

    /// Minimum-bandwidth selection over one SE's port tables: one `(Π, Θ)`
    /// per non-idle port, sized against the SE's combined utilization.
    /// `None` when a port's tasks cannot form a task set (a child's
    /// interfaces sum above 1) or the analysis finds no feasible
    /// interfaces.
    fn select(&self, ports: &[Vec<Task>]) -> Option<Vec<Option<PeriodicResource>>> {
        let sets = ports
            .iter()
            .map(|tasks| TaskSet::new(tasks.clone()))
            .collect::<Result<Vec<_>, _>>()
            .ok()?;
        select_se_interfaces_with_divisor(&sets, self.config.granularity_divisor).ok()
    }

    /// Admission-tests `tasks` for `client` without touching the
    /// composition: the interface-selection problems along the client's
    /// request path (leaf SE up to the root) are re-solved, each built
    /// from the cached interfaces with the path port swapped in. Returns
    /// the path's newly selected interfaces (leaf first) when the update
    /// is admissible: selection succeeded at every path SE, every off-path
    /// SE already held a valid analysis, and the root passes the
    /// **exact** admission test `Σ Θ/Π ≤ 1` ([`root_admissible`]).
    fn trial(&self, client: usize, tasks: &TaskSet) -> Option<Vec<PathTrial>> {
        let levels = self.config.levels();
        let branch = self.config.branch;
        let (mut order, mut port) = self.config.attach_point(client);
        let mut trial: Vec<PathTrial> = Vec::with_capacity(levels);
        for depth in (0..levels).rev() {
            let below = match trial.last() {
                None => Below::Client(tasks),
                Some((_, _, ifaces)) => Below::Child(ifaces),
            };
            // Admission has no fallback: an analytically infeasible path
            // SE rejects the request outright.
            let ifaces = self.select(&self.port_tasks(depth, order, Some((port, below))))?;
            trial.push((depth, order, ifaces));
            port = order % branch;
            order /= branch;
        }
        // Off-path SEs keep their parameters; if any of them is already on
        // fallback interfaces the system has no guarantee to extend. Only
        // a composition with a fallback SE somewhere needs the scan.
        if !self.report.analysis_ok {
            let path: Vec<(usize, usize)> = trial.iter().map(|(d, o, _)| (*d, *o)).collect();
            for (depth, row) in self.se_analysis_ok.iter().enumerate() {
                for (order, &ok) in row.iter().enumerate() {
                    if !ok && !path.contains(&(depth, order)) {
                        return None;
                    }
                }
            }
        }
        let (_, _, root) = trial.last().expect("levels >= 1");
        let root_ifaces: Vec<PeriodicResource> = root.iter().flatten().copied().collect();
        root_admissible(&root_ifaces).then_some(trial)
    }

    /// The one way a live composition changes: runs the admission trial
    /// for `client`/`tasks` and, when admitted, commits it — the client's
    /// task set, the cached interfaces and analysis flags along the
    /// request path, and the refreshed summary. Returns the admitted path
    /// (leaf first) so the caller can program its runtime engine, or
    /// `None` for a rejection (an out-of-range client or a failed trial),
    /// which writes nothing.
    ///
    /// One case skips the trial: an empty set (the client leaves or is
    /// quarantined) on a composition that is already not schedulable.
    /// There is no guarantee left to protect, and a trial would reject
    /// the shed whenever a fallback SE sits off the client's path, so the
    /// path is re-solved with fallback as construction does. Such a shed
    /// cannot be rejected.
    pub(crate) fn commit(&mut self, client: usize, tasks: &TaskSet) -> Option<Vec<PathTrial>> {
        if client >= self.config.num_clients {
            return None;
        }
        if tasks.is_empty() && !self.report.schedulable {
            return Some(self.shed(client));
        }
        let trial = self.trial(client, tasks)?;
        self.client_tasks[client] = tasks.clone();
        for (depth, order, ifaces) in &trial {
            self.se_analysis_ok[*depth][*order] = true;
            self.report.interfaces[*depth][*order] = ifaces.clone();
        }
        self.refresh_summary(trial.len());
        Some(trial)
    }

    /// Empties `client`'s task set and re-solves its request path (leaf
    /// SE up to the root), falling back on analytical failure as
    /// construction does. Returns the path (leaf first).
    fn shed(&mut self, client: usize) -> Vec<PathTrial> {
        self.client_tasks[client] = TaskSet::empty();
        let levels = self.config.levels();
        let mut path = Vec::with_capacity(levels);
        let mut order = self.config.attach_point(client).0;
        for depth in (0..levels).rev() {
            self.resolve_se(depth, order);
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
    fn fallback_interfaces(ports: &[Vec<Task>]) -> Vec<Option<PeriodicResource>> {
        let util: Vec<f64> = ports
            .iter()
            .map(|tasks| tasks.iter().map(Task::utilization).sum())
            .collect();
        let total: f64 = util.iter().sum();
        let scale = if total > 1.0 { 1.0 / total } else { 1.0 };
        ports
            .iter()
            .zip(&util)
            .map(|(tasks, &util)| {
                let period = (tasks.iter().map(Task::period).min()? / 2).max(1);
                let share = util * scale;
                let budget = ((share * period as f64).round() as u64).clamp(1, period);
                PeriodicResource::new(period, budget)
            })
            .collect()
    }

    /// Resolves SE `(depth, order)`'s interface selection, falling back on
    /// analytical failure.
    fn resolve_se(&mut self, depth: usize, order: usize) {
        let ports = self.port_tasks(depth, order, None);
        let selected = self.select(&ports);
        self.se_analysis_ok[depth][order] = selected.is_some();
        let ifaces = selected.unwrap_or_else(|| Self::fallback_interfaces(&ports));
        self.report.interfaces[depth][order] = ifaces;
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
        assert!(c.commit(1, &sets[1]).is_none());
        assert_eq!(c.report().interfaces, before);
        // A light tenant in the same slot is admitted.
        assert!(c.commit(1, &set(&[(100, 1)])).is_some());
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
            let path = c.commit(client, &sets[client]).unwrap();
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
        assert!(c.commit(5, &hog).is_none());
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
        let path = c.commit(5, &TaskSet::empty()).unwrap();
        assert_eq!(path.len(), 2);
        assert!(c.client_tasks()[5].is_empty());
        assert!(c.report().interfaces[1][order][port].is_none());
        assert!(!c.report().schedulable, "leaf SE 0 is still over 1");
        // Shedding the overloading clients one by one: with two gone the
        // leaf selects again but the root still sums above 1; with three
        // gone the guarantee returns.
        for client in [0, 1] {
            assert!(c.commit(client, &TaskSet::empty()).is_some());
        }
        assert!(c.report().analysis_ok && !c.report().schedulable);
        assert!(c.commit(2, &TaskSet::empty()).is_some());
        assert!(c.report().schedulable);
        // A schedulable composition trials every set, empty or not.
        let hog = TaskSet::new(vec![Task::new(0, 100, 95).unwrap()]).unwrap();
        assert!(c.commit(0, &hog).is_none());
    }
}
