//! Directory-based cache coherence: MESI, S-MESI, SwiftDir, and MSI.
//!
//! This crate implements the two-level protocol of the paper (private L1s,
//! shared LLC with an integrated directory, DRAM behind the LLC) as a
//! deterministic transaction-level state machine:
//!
//! * [`msg`] — the coherence messages of paper Table III, including the
//!   single request SwiftDir adds, **`GETS_WP`**.
//! * [`state`] — stable and transient states for L1 (Table I) and LLC
//!   (Table II).
//! * [`protocol`] — [`ProtocolKind`] and the three policy decisions that
//!   distinguish the protocols: what an initial load is granted, whether
//!   E→M upgrades silently, and whether the LLC may serve E-state data
//!   directly.
//! * [`config`] — hierarchy geometry and interconnect latencies, tuned so
//!   an LLC-served load costs ≈17 cycles and a directory-forwarded remote
//!   E-state load ≈26 cycles more, matching the measurements the paper
//!   builds on.
//! * [`hierarchy`] — the [`Hierarchy`]: cores issue timed requests, the
//!   event queue drives the controllers, completions report latency and
//!   the access class (which L1/LLC states served it).
//! * [`check`] — the [`Checker`]: global invariant auditing (SWMR,
//!   directory-superset sharer tracking, transient-occupancy bounds, and
//!   a golden-memory data-value model) used by the stress fuzzer after
//!   every simulated event.
//!
//! # Example
//!
//! ```
//! use sim_engine::Cycle;
//! use swiftdir_coherence::{CoreRequest, Hierarchy, HierarchyConfig, ProtocolKind};
//! use swiftdir_mmu::PhysAddr;
//!
//! let mut hier = Hierarchy::new(HierarchyConfig::table_v(2, ProtocolKind::SwiftDir));
//! // Core 0 loads a write-protected block.
//! hier.issue(Cycle(0), 0, CoreRequest::load(PhysAddr(0x1000)).write_protected());
//! let done = hier.run_until_idle();
//! assert_eq!(done.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod check;
pub mod config;
pub mod coverage;
pub mod hierarchy;
pub mod metrics;
pub mod msg;
pub mod protocol;
mod slab;
pub mod state;

pub use check::{Checker, Violation};
pub use config::{HierarchyConfig, LatencyConfig};
pub use coverage::{CoverageReport, CoverageSpec, ObservedCoverage};
pub use hierarchy::{
    AccessClass, AccessKind, Choice, ChoiceKind, Completion, CoreRequest, Hierarchy,
    HierarchyStats, ProtocolError, RequestId, ServedFrom,
};
pub use metrics::{ProtocolMetrics, RequestClass};
pub use msg::{CoherenceEvent, EventCounts, Msg};
pub use protocol::ProtocolKind;
pub use state::{L1State, LlcState};
