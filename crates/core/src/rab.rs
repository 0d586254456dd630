//! Random-access buffers — the low-level nested priority queue.
//!
//! The hardware (paper, Section 4.1) stores pending requests in a register
//! chain with per-entry parameter banks; comparators continuously scan the
//! banks and steer the highest-priority (earliest-deadline) request to the
//! fetcher. The software model mirrors that structure directly: a small
//! vector of entries scanned linearly (the comparator tree), with FIFO
//! tie-breaking by arrival order (the register-chain position).
//!
//! The buffer keeps no blocking tally: a request's blocking latency is
//! measured once, at the shared memory channel, when the harness records
//! its response (`HarnessCore::record_response` in `bluescale-interconnect`).

use bluescale_interconnect::MemoryRequest;

/// Ordering discipline of the low-level queue — the nested-priority-queue
/// ablation of DESIGN.md: the paper's random-access buffer surfaces the
/// earliest deadline; a conventional FIFO ignores deadlines entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Earliest-deadline-first (the paper's comparator-bank arbiter).
    #[default]
    EarliestDeadline,
    /// Plain FIFO (ablation: what a conventional stage buffer would do).
    Fifo,
}

/// A bounded earliest-deadline-first random-access buffer.
///
/// # Example
///
/// ```
/// use bluescale::rab::RandomAccessBuffer;
/// use bluescale_interconnect::{AccessKind, MemoryRequest};
///
/// let mk = |id, deadline| MemoryRequest {
///     id, client: 0, task: 0, addr: 0, kind: AccessKind::Read,
///     issued_at: 0, deadline, blocked_cycles: 0,
/// };
/// let mut rab = RandomAccessBuffer::with_capacity(4);
/// rab.try_push(mk(1, 90)).expect("space");
/// rab.try_push(mk(2, 30)).expect("space");
/// assert_eq!(rab.peek_deadline(), Some(30)); // earliest deadline wins
/// assert_eq!(rab.pop().expect("entry").id, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RandomAccessBuffer {
    entries: Vec<(u64, MemoryRequest)>, // (arrival seq, request)
    next_seq: u64,
    capacity: usize,
    policy: QueuePolicy,
}

impl RandomAccessBuffer {
    /// Creates an EDF buffer holding at most `capacity` requests (the
    /// register chain depth).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_policy(capacity, QueuePolicy::EarliestDeadline)
    }

    /// Creates a buffer with an explicit ordering [`QueuePolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_policy(capacity: usize, policy: QueuePolicy) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        Self {
            entries: Vec::with_capacity(capacity),
            next_seq: 0,
            capacity,
            policy,
        }
    }

    /// The ordering discipline in use.
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    /// Loads a request, or hands it back when the register chain is full.
    ///
    /// # Errors
    ///
    /// Returns the request as the error value if the buffer is at capacity.
    pub fn try_push(&mut self, request: MemoryRequest) -> Result<(), MemoryRequest> {
        if self.entries.len() == self.capacity {
            return Err(request);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((seq, request));
        Ok(())
    }

    fn best_index(&self) -> Option<usize> {
        match self.policy {
            QueuePolicy::EarliestDeadline => self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (seq, r))| (r.deadline, *seq))
                .map(|(i, _)| i),
            QueuePolicy::Fifo => self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (seq, _))| *seq)
                .map(|(i, _)| i),
        }
    }

    /// The earliest deadline among buffered requests.
    pub fn peek_deadline(&self) -> Option<u64> {
        self.best_index().map(|i| self.entries[i].1.deadline)
    }

    /// Borrows the highest-priority request.
    pub fn peek(&self) -> Option<&MemoryRequest> {
        self.best_index().map(|i| &self.entries[i].1)
    }

    /// Fetches (removes) the highest-priority request.
    pub fn pop(&mut self) -> Option<MemoryRequest> {
        let i = self.best_index()?;
        Some(self.entries.swap_remove(i).1)
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the buffer is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// The configured capacity (register-chain depth).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates buffered requests in arbitrary order (bank inspection).
    pub fn iter(&self) -> impl Iterator<Item = &MemoryRequest> {
        self.entries.iter().map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluescale_interconnect::AccessKind;

    fn req(id: u64, deadline: u64) -> MemoryRequest {
        MemoryRequest {
            id,
            client: 0,
            task: 0,
            addr: 0,
            kind: AccessKind::Read,
            issued_at: 0,
            deadline,
            blocked_cycles: 0,
        }
    }

    #[test]
    fn pops_earliest_deadline() {
        let mut rab = RandomAccessBuffer::with_capacity(8);
        for (id, dl) in [(1, 50), (2, 10), (3, 30)] {
            rab.try_push(req(id, dl)).unwrap();
        }
        assert_eq!(rab.pop().unwrap().id, 2);
        assert_eq!(rab.pop().unwrap().id, 3);
        assert_eq!(rab.pop().unwrap().id, 1);
        assert_eq!(rab.pop(), None);
    }

    #[test]
    fn backpressure_at_capacity() {
        let mut rab = RandomAccessBuffer::with_capacity(2);
        rab.try_push(req(1, 10)).unwrap();
        rab.try_push(req(2, 20)).unwrap();
        assert!(rab.is_full());
        let rejected = rab.try_push(req(3, 5)).unwrap_err();
        assert_eq!(rejected.id, 3);
        rab.pop();
        assert!(rab.try_push(req(3, 5)).is_ok());
        assert_eq!(rab.peek_deadline(), Some(5));
    }

    #[test]
    fn fifo_among_equal_deadlines() {
        let mut rab = RandomAccessBuffer::with_capacity(4);
        rab.try_push(req(1, 10)).unwrap();
        rab.try_push(req(2, 10)).unwrap();
        assert_eq!(rab.pop().unwrap().id, 1);
        assert_eq!(rab.pop().unwrap().id, 2);
    }

    #[test]
    fn fifo_survives_interleaved_pops() {
        let mut rab = RandomAccessBuffer::with_capacity(8);
        rab.try_push(req(1, 10)).unwrap();
        rab.try_push(req(2, 10)).unwrap();
        rab.try_push(req(3, 5)).unwrap();
        assert_eq!(rab.pop().unwrap().id, 3);
        rab.try_push(req(4, 10)).unwrap();
        assert_eq!(rab.pop().unwrap().id, 1);
        assert_eq!(rab.pop().unwrap().id, 2);
        assert_eq!(rab.pop().unwrap().id, 4);
    }

    #[test]
    fn empty_behaviour() {
        let mut rab = RandomAccessBuffer::with_capacity(1);
        assert!(rab.is_empty());
        assert_eq!(rab.pop(), None);
        assert_eq!(rab.peek_deadline(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = RandomAccessBuffer::with_capacity(0);
    }

    #[test]
    fn capacity_one_alternates_full_and_empty() {
        // The smallest legal buffer: every push fills it, every pop
        // empties it, and backpressure is immediate.
        let mut rab = RandomAccessBuffer::with_capacity(1);
        assert_eq!(rab.capacity(), 1);
        rab.try_push(req(1, 10)).unwrap();
        assert!(rab.is_full());
        assert_eq!(rab.try_push(req(2, 1)).unwrap_err().id, 2);
        assert_eq!(rab.pop().unwrap().id, 1);
        assert!(rab.is_empty());
        rab.try_push(req(3, 5)).unwrap();
        assert_eq!(rab.peek().unwrap().id, 3);
        assert_eq!(rab.pop().unwrap().id, 3);
    }

    #[test]
    fn refill_at_capacity_keeps_edf_order() {
        // Drain-and-refill at the capacity boundary must not disturb
        // deadline ordering: the slot vacated by a pop is immediately
        // reusable by an earlier-deadline arrival.
        let mut rab = RandomAccessBuffer::with_capacity(3);
        rab.try_push(req(1, 30)).unwrap();
        rab.try_push(req(2, 20)).unwrap();
        rab.try_push(req(3, 40)).unwrap();
        assert!(rab.is_full());
        assert_eq!(rab.pop().unwrap().id, 2);
        rab.try_push(req(4, 10)).unwrap();
        assert!(rab.is_full());
        assert_eq!(rab.pop().unwrap().id, 4, "late arrival with urgent dl");
        assert_eq!(rab.pop().unwrap().id, 1);
        assert_eq!(rab.pop().unwrap().id, 3);
    }

    #[test]
    fn tied_deadlines_fifo_across_refills() {
        // Three waves of equal-deadline requests with pops in between:
        // the FIFO tiebreak must order by arrival globally, not merely
        // within one resident set.
        let mut rab = RandomAccessBuffer::with_capacity(4);
        rab.try_push(req(1, 10)).unwrap();
        rab.try_push(req(2, 10)).unwrap();
        assert_eq!(rab.pop().unwrap().id, 1);
        rab.try_push(req(3, 10)).unwrap();
        rab.try_push(req(4, 10)).unwrap();
        assert_eq!(rab.pop().unwrap().id, 2);
        rab.try_push(req(5, 10)).unwrap();
        assert_eq!(rab.pop().unwrap().id, 3);
        assert_eq!(rab.pop().unwrap().id, 4);
        assert_eq!(rab.pop().unwrap().id, 5);
        assert!(rab.is_empty());
    }

    #[test]
    fn tie_prefers_earlier_arrival_over_later_urgent_duplicate() {
        // An equal-deadline arrival never overtakes a waiting request.
        let mut rab = RandomAccessBuffer::with_capacity(2);
        rab.try_push(req(7, 25)).unwrap();
        rab.try_push(req(8, 25)).unwrap();
        assert_eq!(rab.pop().unwrap().id, 7);
        assert_eq!(rab.pop().unwrap().id, 8);
    }

    #[test]
    fn fifo_policy_ignores_deadlines() {
        let mut rab = RandomAccessBuffer::with_policy(4, QueuePolicy::Fifo);
        rab.try_push(req(1, 90)).unwrap();
        rab.try_push(req(2, 10)).unwrap();
        assert_eq!(rab.policy(), QueuePolicy::Fifo);
        assert_eq!(rab.pop().unwrap().id, 1, "FIFO serves arrival order");
        assert_eq!(rab.pop().unwrap().id, 2);
    }
}
