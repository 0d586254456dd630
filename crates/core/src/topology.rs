//! Quadtree topology: how Scale Elements are arranged and indexed.
//!
//! SEs form a complete tree with fan-in `branch` (4 in the paper; the
//! branch factor is configurable so the fan-in ablation can compare binary
//! trees). `SE(x, y)` sits at depth `x` (0 = root, next to the memory
//! sub-system) and is the `y`-th element of that depth. Its local clients
//! are `SE(x+1, branch·y + i)` — or system clients when `x` is the deepest
//! SE level.

use crate::rab::QueuePolicy;
use bluescale_mem::{DramConfig, MemPolicyConfig};
use std::fmt;

/// Index of a Scale Element in the tree: depth `x` (0 = root) and order `y`.
///
/// # Example
///
/// ```
/// use bluescale::topology::SeIndex;
///
/// let root = SeIndex::new(0, 0);
/// assert_eq!(root.child(4, 2), SeIndex::new(1, 2));
/// assert_eq!(SeIndex::new(1, 2).parent(4), Some(root));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeIndex {
    /// Depth in the tree (0 = root).
    pub depth: usize,
    /// Order within the depth.
    pub order: usize,
}

impl SeIndex {
    /// Creates an index.
    pub fn new(depth: usize, order: usize) -> Self {
        Self { depth, order }
    }

    /// The `i`-th child of this SE in a `branch`-ary tree.
    pub fn child(&self, branch: usize, i: usize) -> SeIndex {
        SeIndex::new(self.depth + 1, self.order * branch + i)
    }

    /// The parent index, or `None` at the root.
    pub fn parent(&self, branch: usize) -> Option<SeIndex> {
        if self.depth == 0 {
            None
        } else {
            Some(SeIndex::new(self.depth - 1, self.order / branch))
        }
    }

    /// Which client port of the parent this SE is attached to.
    pub fn port_in_parent(&self, branch: usize) -> usize {
        self.order % branch
    }
}

impl fmt::Display for SeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SE({},{})", self.depth, self.order)
    }
}

/// Static configuration of a BlueScale instance.
///
/// The topology fields (`num_clients`, `branch`) shape both halves of the
/// tree. `analysis_margin` and `granularity_divisor` are read only by the
/// [`Composition`](crate::composition::Composition); the buffer, queue,
/// gating, memory and policy fields only by the runtime engine and the
/// root's memory side. No field selects the engine: that is the
/// interconnect's type parameter.
///
/// # Example
///
/// ```
/// use bluescale::BlueScaleConfig;
///
/// let c = BlueScaleConfig::for_clients(64);
/// assert_eq!(c.levels(), 3);            // 1 + 4 + 16 SEs
/// assert_eq!(c.total_elements(), 21);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlueScaleConfig {
    /// Number of system clients (leaves). Ports beyond this count idle.
    pub num_clients: usize,
    /// Fan-in of every SE (4 in the paper).
    pub branch: usize,
    /// Capacity of each random-access buffer (pending requests per port;
    /// engine).
    pub buffer_capacity: usize,
    /// Memory service cycles per request (flat model; 1 = the paper's
    /// "transaction time unit"). Ignored when [`Self::dram`] is set.
    pub memory_service_cycles: u64,
    /// Optional full DRAM timing model (row-buffer hits/conflicts). `None`
    /// uses the flat [`Self::memory_service_cycles`] model.
    pub dram: Option<DramConfig>,
    /// If `true`, an SE whose eligible servers are all out of budget may
    /// still forward the earliest-deadline pending request (ablation knob;
    /// the paper's hardware is strictly budget-gated, i.e. `false`). The
    /// analysis does not depend on it.
    pub work_conserving: bool,
    /// Deadline-deflation factor in `(0, 1]` applied to the *leaf* task
    /// parameters: a task with period `T` is analysed against the deadline
    /// `max(C, ⌊margin·T⌋)`. Values below 1 reserve end-to-end slack for
    /// the remaining pipeline stages (request transit, memory service and
    /// the response path); 1.0 reproduces the paper's bare analysis. Read
    /// by the composition when it loads leaf table rows.
    pub analysis_margin: f64,
    /// Granularity divisor for interface selection: candidate server
    /// periods are capped at `min_deadline / divisor`. Finer granularity
    /// shortens worst-case blackouts (less bandwidth inflation, smaller
    /// per-stage delay) at the cost of more frequent replenishments. Every
    /// SE's selector in the composition uses it.
    pub granularity_divisor: u64,
    /// Ordering discipline of the low-level (per-port) queues — EDF in the
    /// paper; FIFO as an ablation (engine).
    pub low_level_policy: QueuePolicy,
    /// Memory-scheduling policy applied at the root-arbitration seam
    /// (before the controller). `Unregulated` is bit-identical to having
    /// no policy at all; active policies may defer per-port grants (the
    /// request stays queued) or reclassify a request's DRAM service.
    pub mem_policy: MemPolicyConfig,
}

impl BlueScaleConfig {
    /// Configuration for `num_clients` clients with the paper's defaults
    /// (quadtree, 8-entry buffers, 1-cycle response hops, unit service).
    ///
    /// # Panics
    ///
    /// Panics if `num_clients` is zero.
    pub fn for_clients(num_clients: usize) -> Self {
        assert!(num_clients > 0, "at least one client required");
        Self {
            num_clients,
            branch: 4,
            buffer_capacity: 8,
            memory_service_cycles: 1,
            dram: None,
            work_conserving: false,
            analysis_margin: 0.9,
            granularity_divisor: 1,
            low_level_policy: QueuePolicy::EarliestDeadline,
            mem_policy: MemPolicyConfig::Unregulated,
        }
    }

    /// The analysis deadline for a task with `period` and `wcet` under
    /// this configuration's deflation margin.
    pub fn analysis_deadline(&self, period: u64, wcet: u64) -> u64 {
        let deflated = (self.analysis_margin * period as f64).floor() as u64;
        deflated.clamp(wcet.max(1), period)
    }

    /// Number of SE levels needed: the smallest `d ≥ 1` with
    /// `branch^d ≥ num_clients`.
    pub fn levels(&self) -> usize {
        let mut d = 1;
        let mut capacity = self.branch;
        while capacity < self.num_clients {
            capacity *= self.branch;
            d += 1;
        }
        d
    }

    /// Number of SEs at depth `x` (`branch^x`), independent of how many are
    /// actually populated with clients.
    pub fn elements_at(&self, depth: usize) -> usize {
        self.branch.pow(depth as u32)
    }

    /// Total SEs in the tree: `Σ_{x=0}^{levels-1} branch^x`.
    pub fn total_elements(&self) -> usize {
        (0..self.levels()).map(|d| self.elements_at(d)).sum()
    }

    /// Leaf SE order and port for a client id.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn attach_point(&self, client: usize) -> (usize, usize) {
        assert!(client < self.num_clients, "client {client} out of range");
        (client / self.branch, client % self.branch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_for_common_sizes() {
        assert_eq!(BlueScaleConfig::for_clients(4).levels(), 1);
        assert_eq!(BlueScaleConfig::for_clients(16).levels(), 2);
        assert_eq!(BlueScaleConfig::for_clients(64).levels(), 3);
        assert_eq!(BlueScaleConfig::for_clients(256).levels(), 4);
        // Non-power-of-four counts round up.
        assert_eq!(BlueScaleConfig::for_clients(5).levels(), 2);
        assert_eq!(BlueScaleConfig::for_clients(17).levels(), 3);
        assert_eq!(BlueScaleConfig::for_clients(1).levels(), 1);
    }

    #[test]
    fn total_elements_matches_geometric_sum() {
        assert_eq!(BlueScaleConfig::for_clients(16).total_elements(), 5);
        assert_eq!(BlueScaleConfig::for_clients(64).total_elements(), 21);
        assert_eq!(BlueScaleConfig::for_clients(256).total_elements(), 85);
    }

    #[test]
    fn binary_branch_supported() {
        let c = BlueScaleConfig {
            branch: 2,
            ..BlueScaleConfig::for_clients(8)
        };
        assert_eq!(c.levels(), 3);
        assert_eq!(c.total_elements(), 7);
    }

    #[test]
    fn attach_points_partition_clients() {
        let c = BlueScaleConfig::for_clients(16);
        assert_eq!(c.attach_point(0), (0, 0));
        assert_eq!(c.attach_point(3), (0, 3));
        assert_eq!(c.attach_point(4), (1, 0));
        assert_eq!(c.attach_point(15), (3, 3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn attach_point_rejects_out_of_range() {
        BlueScaleConfig::for_clients(4).attach_point(4);
    }

    #[test]
    fn se_index_parent_child_roundtrip() {
        let branch = 4;
        for depth in 0..3 {
            for order in 0..(branch as usize).pow(depth) {
                let se = SeIndex::new(depth as usize, order);
                for i in 0..branch as usize {
                    let child = se.child(branch as usize, i);
                    assert_eq!(child.parent(branch as usize), Some(se));
                    assert_eq!(child.port_in_parent(branch as usize), i);
                }
            }
        }
    }

    #[test]
    fn root_has_no_parent() {
        assert_eq!(SeIndex::new(0, 0).parent(4), None);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(SeIndex::new(1, 3).to_string(), "SE(1,3)");
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let _ = BlueScaleConfig::for_clients(0);
    }

    #[test]
    fn analysis_deadline_deflates_but_respects_wcet() {
        let c = BlueScaleConfig {
            analysis_margin: 0.75,
            ..BlueScaleConfig::for_clients(4)
        };
        assert_eq!(c.analysis_deadline(100, 5), 75);
        // Never below the WCET…
        assert_eq!(c.analysis_deadline(10, 9), 9);
        // …and never above the period.
        let full = BlueScaleConfig {
            analysis_margin: 1.0,
            ..BlueScaleConfig::for_clients(4)
        };
        assert_eq!(full.analysis_deadline(100, 5), 100);
    }
}
