//! **BlueScale** — a hierarchically distributed real-time memory
//! interconnect (reproduction of Jiang et al., DAC 2022).
//!
//! BlueScale connects SoC clients (processors, hardware accelerators) to a
//! shared memory sub-system through a quadtree of identical **Scale
//! Elements** ([`element::ScaleElement`]). Each SE implements two nested priority
//! queues:
//!
//! * a **low-level** queue per local client port — the random-access buffer
//!   ([`rab::RandomAccessBuffer`]) that always surfaces the pending request
//!   with the earliest deadline, and
//! * an **upper-level** queue over four **server tasks** — the local
//!   scheduler ([`scheduler::LocalScheduler`]) whose period/budget counters
//!   enforce the periodic-resource interfaces `(Π, Θ)` computed by the
//!   interface selector ([`selector`]).
//!
//! The result is *iterative compositional scheduling*: every SE makes a
//! single-cycle GEDF decision using only local information, while the
//! interface-selection analysis (in [`bluescale_rt`]) guarantees end-to-end
//! schedulability when the root admission test passes.
//!
//! # Quick start
//!
//! ```
//! use bluescale::{BlueScaleConfig, BlueScaleInterconnect};
//! use bluescale_rt::task::{Task, TaskSet};
//!
//! // 16 clients, each running one light periodic task.
//! let task_sets: Vec<TaskSet> = (0..16)
//!     .map(|i| TaskSet::new(vec![Task::new(0, 400, 4).expect("valid task")]).expect("valid set"))
//!     .collect();
//!
//! let config = BlueScaleConfig::for_clients(16);
//! let ic = BlueScaleInterconnect::new(config, &task_sets)?;
//! assert!(ic.composition().schedulable);
//! # Ok::<(), bluescale::BuildError>(())
//! ```

#![warn(missing_docs)]

pub mod element;
mod memory_side;
pub mod network;
pub mod rab;
pub mod scheduler;
pub mod selector;
pub mod shard;
pub mod soa;
pub mod topology;

pub use network::{BlueScaleInterconnect, BuildError, CompositionReport, InjectError};
pub use shard::ShardedSystem;
pub use topology::BlueScaleConfig;
