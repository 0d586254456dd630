//! The interface selector: per-SE computation of server-task parameters.
//!
//! The hardware (paper, Section 4.3) keeps a *task parameter table* — a
//! register chain of `(client id, task id, period, execution time)` rows —
//! and a small datapath (ALU + scratchpad + FSM) that runs the interface
//! selection algorithm, then programs the local scheduler's counters and
//! forwards the chosen `(Π, Θ)` to the parent SE's selector as a new table
//! row. This module models the table and the computation; the algorithm
//! itself lives in [`bluescale_rt::interface`].

use bluescale_rt::interface::select_se_interfaces_with_divisor;
use bluescale_rt::supply::PeriodicResource;
use bluescale_rt::task::{Task, TaskSet};
use bluescale_rt::Error as RtError;

/// One row of the task parameter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableRow {
    /// Local client port (0..branch), the 2-bit client id of the hardware.
    pub port: u8,
    /// Task id within the client (8 bits in hardware).
    pub task_id: u32,
    /// Period `T` (32 bits in hardware).
    pub period: u64,
    /// Analysis deadline `D` (`C ≤ D ≤ T`; deflated below `T` to reserve
    /// end-to-end pipeline slack — see `BlueScaleConfig::analysis_margin`).
    pub deadline: u64,
    /// Execution time `C` (32 bits in hardware).
    pub wcet: u64,
}

/// The task parameter table of one SE's interface selector.
///
/// # Example
///
/// ```
/// use bluescale::selector::{InterfaceSelector, TableRow};
///
/// let mut sel = InterfaceSelector::new(4);
/// sel.load(TableRow { port: 0, task_id: 1, period: 100, deadline: 80, wcet: 5 })?;
/// sel.load(TableRow { port: 2, task_id: 1, period: 80, deadline: 64, wcet: 4 })?;
/// let interfaces = sel.compute()?;
/// assert!(interfaces[0].is_some());
/// assert!(interfaces[1].is_none()); // idle port
/// assert!(interfaces[2].is_some());
/// # Ok::<(), bluescale_rt::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct InterfaceSelector {
    ports: usize,
    rows: Vec<TableRow>,
    period_divisor: u64,
}

impl InterfaceSelector {
    /// Creates a selector for an SE with `ports` local client ports.
    pub fn new(ports: usize) -> Self {
        Self {
            ports,
            rows: Vec::new(),
            period_divisor: 1,
        }
    }

    /// Sets the granularity divisor used by [`compute`](Self::compute):
    /// candidate server periods are capped at `min_deadline / divisor`,
    /// trading a little bandwidth for much shorter per-stage blackouts.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn set_period_divisor(&mut self, divisor: u64) {
        assert!(divisor > 0, "period divisor must be positive");
        self.period_divisor = divisor;
    }

    /// Appends a row to the parameter table.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::InvalidTask`] if the row's parameters are invalid
    /// (zero period/wcet, `C > T`) and [`RtError::DuplicateTaskId`] if the
    /// `(port, task_id)` pair is already present.
    pub fn load(&mut self, row: TableRow) -> Result<(), RtError> {
        assert!(
            (row.port as usize) < self.ports,
            "port {} out of range (SE has {} ports)",
            row.port,
            self.ports
        );
        // Validate eagerly with the same rules as Task construction.
        let _ = Task::with_deadline(row.task_id, row.period, row.deadline, row.wcet)?;
        if self
            .rows
            .iter()
            .any(|r| r.port == row.port && r.task_id == row.task_id)
        {
            return Err(RtError::DuplicateTaskId { id: row.task_id });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Replaces all rows of `port` with `rows` (a client's software tasks
    /// were altered — only this port's server parameters change).
    ///
    /// # Errors
    ///
    /// Same as [`load`](Self::load) per row.
    pub fn reload_port(&mut self, port: u8, rows: &[TableRow]) -> Result<(), RtError> {
        let saved: Vec<TableRow> = self.rows.clone();
        self.rows.retain(|r| r.port != port);
        for &row in rows {
            debug_assert_eq!(row.port, port, "row for wrong port");
            if let Err(e) = self.load(TableRow { port, ..row }) {
                self.rows = saved;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Number of rows currently loaded.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The raw parameter table (used by fallback allocation policies).
    pub fn rows(&self) -> &[TableRow] {
        &self.rows
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The task set of one port as described by the table.
    pub fn port_tasks(&self, port: u8) -> Result<TaskSet, RtError> {
        TaskSet::new(
            self.rows
                .iter()
                .filter(|r| r.port == port)
                .map(|r| Task::with_deadline(r.task_id, r.period, r.deadline, r.wcet))
                .collect::<Result<Vec<_>, _>>()?,
        )
    }

    /// Runs the interface selection algorithm: one minimum-bandwidth
    /// `(Π, Θ)` per non-idle port, sized against the combined utilization
    /// of all ports (Theorem 2's level utilization).
    ///
    /// # Errors
    ///
    /// Returns [`RtError::Overutilized`] when the ports' combined demand
    /// exceeds the SE's capacity, or [`RtError::NoFeasibleInterface`] when
    /// a port cannot be served.
    pub fn compute(&self) -> Result<Vec<Option<PeriodicResource>>, RtError> {
        let sets = (0..self.ports)
            .map(|p| self.port_tasks(p as u8))
            .collect::<Result<Vec<_>, _>>()?;
        select_se_interfaces_with_divisor(&sets, self.period_divisor.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(port: u8, task_id: u32, period: u64, wcet: u64) -> TableRow {
        TableRow {
            port,
            task_id,
            period,
            deadline: period,
            wcet,
        }
    }

    #[test]
    fn load_and_compute_per_port() {
        let mut sel = InterfaceSelector::new(4);
        sel.load(row(0, 1, 100, 5)).unwrap();
        sel.load(row(0, 2, 200, 10)).unwrap();
        sel.load(row(3, 1, 80, 4)).unwrap();
        let ifaces = sel.compute().unwrap();
        assert!(ifaces[0].is_some());
        assert!(ifaces[1].is_none());
        assert!(ifaces[2].is_none());
        assert!(ifaces[3].is_some());
        // Port 0 bandwidth must cover its utilization 0.1.
        assert!(ifaces[0].unwrap().bandwidth() >= 0.1 - 1e-12);
    }

    #[test]
    fn duplicate_rows_rejected() {
        let mut sel = InterfaceSelector::new(4);
        sel.load(row(1, 7, 100, 5)).unwrap();
        assert_eq!(
            sel.load(row(1, 7, 50, 2)).unwrap_err(),
            RtError::DuplicateTaskId { id: 7 }
        );
        // Same task id on a *different* port is fine.
        sel.load(row(2, 7, 50, 2)).unwrap();
    }

    #[test]
    fn invalid_row_rejected() {
        let mut sel = InterfaceSelector::new(4);
        assert!(sel.load(row(0, 1, 0, 1)).is_err());
        assert!(sel.load(row(0, 1, 10, 11)).is_err());
        assert!(sel.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_port_panics() {
        let mut sel = InterfaceSelector::new(4);
        let _ = sel.load(row(4, 1, 10, 1));
    }

    #[test]
    fn reload_port_replaces_only_that_port() {
        let mut sel = InterfaceSelector::new(4);
        sel.load(row(0, 1, 100, 5)).unwrap();
        sel.load(row(1, 1, 100, 5)).unwrap();
        sel.reload_port(0, &[row(0, 9, 50, 1)]).unwrap();
        assert_eq!(sel.len(), 2);
        let p0 = sel.port_tasks(0).unwrap();
        assert_eq!(p0.tasks()[0].id(), 9);
        let p1 = sel.port_tasks(1).unwrap();
        assert_eq!(p1.tasks()[0].id(), 1);
    }

    #[test]
    fn reload_port_rolls_back_on_error() {
        let mut sel = InterfaceSelector::new(4);
        sel.load(row(0, 1, 100, 5)).unwrap();
        let bad = [row(0, 2, 10, 11)]; // C > T
        assert!(sel.reload_port(0, &bad).is_err());
        // Original row restored.
        assert_eq!(sel.len(), 1);
        assert_eq!(sel.port_tasks(0).unwrap().tasks()[0].id(), 1);
    }

    #[test]
    fn overutilized_table_errors() {
        let mut sel = InterfaceSelector::new(2);
        sel.load(row(0, 1, 10, 6)).unwrap();
        sel.load(row(1, 1, 10, 6)).unwrap();
        assert!(matches!(sel.compute(), Err(RtError::Overutilized { .. })));
    }

    #[test]
    fn empty_table_yields_all_idle() {
        let sel = InterfaceSelector::new(4);
        let ifaces = sel.compute().unwrap();
        assert!(ifaces.iter().all(Option::is_none));
    }
}
