//! SwiftDir system assembly: the full simulated machine.
//!
//! This crate wires the substrates together into the system of paper
//! Table V: per-core CPU models ([`swiftdir_cpu`]), per-core TLBs and the
//! shared memory manager ([`swiftdir_mmu`]), and the coherent two-level
//! cache hierarchy with DRAM ([`swiftdir_coherence`], [`swiftdir_mem`]).
//!
//! The memory port between a core and its L1 performs **address
//! translation**, which is where SwiftDir's write-protection bit joins the
//! physical address (paper §IV-B) — per the configured L1 architecture
//! (PIPT / VIPT / VIVT), translation latency lands on the hit path, is
//! overlapped, or is paid only on misses.
//!
//! * [`config`] — [`SystemConfig`] and its builder (Table V defaults).
//! * [`system`] — [`System`]: processes, thread programs, co-simulation.
//! * [`probe`] — [`LatencyProbe`]: per-access-class latency histograms
//!   (regenerates Figure 6).
//! * [`attack`] — the E/S covert- and side-channel attacks of §II-B, used
//!   to demonstrate that MESI leaks and SwiftDir does not.
//! * [`driver`] — [`ExperimentSet`]: fans independent experiment
//!   configurations over worker threads, results in input order.
//! * [`fuzz`] — the protocol stress fuzzer: seeded adversarial access
//!   streams over a shrunken hierarchy, audited by
//!   [`swiftdir_coherence::Checker`] after every event.
//! * [`obs`] — observability: the `SWIFTDIR_TRACE` /
//!   `SWIFTDIR_TRACE_LIMIT` knobs, trace-file construction, and
//!   [`RunStats::snapshot`]'s machine-readable JSON.
//!
//! # Example
//!
//! ```
//! use swiftdir_core::{System, SystemConfig};
//! use swiftdir_coherence::ProtocolKind;
//! use swiftdir_cpu::Instr;
//! use swiftdir_mmu::{MapFlags, Prot};
//!
//! let mut sys = System::new(
//!     SystemConfig::builder()
//!         .cores(2)
//!         .protocol(ProtocolKind::SwiftDir)
//!         .build(),
//! );
//! let pid = sys.spawn_process();
//! let va = sys.process_mut(pid).mmap(4096, Prot::READ, MapFlags::PRIVATE)?;
//! sys.run_thread_program(pid, 0, vec![Instr::load(va)]);
//! let stats = sys.run_to_completion();
//! assert_eq!(stats.loads(), 1);
//! # Ok::<(), swiftdir_mmu::MapError>(())
//! ```

pub mod attack;
pub mod campaign;
pub mod ckpt;
pub mod config;
pub mod diff;
pub mod driver;
pub mod explore;
pub mod fuzz;
pub mod obs;
pub mod probe;
pub mod stream;
pub mod system;

pub use attack::{CovertChannel, CovertOutcome, SideChannel, SideOutcome};
pub use campaign::{
    explore_grid_digest, run_explore_campaign_resumable, run_fuzz_campaign_resumable,
    CampaignOutcome, CancelToken, ExploreUnit,
};
pub use ckpt::{
    digest_set_fnv, fuzz_grid_digest, Checkpoint, CheckpointWriter, CkptHeader, UnitRecord,
    CKPT_SCHEMA,
};
pub use config::{SystemConfig, SystemConfigBuilder};
pub use diff::{
    architectural_diff, contended_stream, explored_equivalence, run_stream,
    swiftdir_mesi_cycle_identity, well_separated_stream, StreamRun,
};
pub use driver::{default_banks, default_threads, DriverReport, ExperimentSet, PointTiming};
pub use explore::{
    adaptive_split_depth, explore, explore_campaign, explore_parallel_profiled, replay_schedule,
    DepthProfile, DepthStats, ExploreConfig, ExploreError, ExploreReport, ReplayError,
    EXPLORE_PHASES,
};
pub use fuzz::{
    minimize, minimize_outcome, minimize_stream, replay, replay_with_fault, run_fuzz, FuzzConfig,
    FuzzFailure, FuzzFailureKind, FuzzReport, MinimizeOutcome, PlantedFault, FUZZ_PHASES,
};
pub use obs::{repair_progress_tail, ProgressConfig, ProgressSink, TraceConfig, TraceFiles};
pub use probe::{ClassKey, LatencyProbe};
pub use stream::{issue_stream, AccessOp, StreamFile};
pub use system::{Process, ProcessId, RunStats, System, ThreadStats};

// The access taxonomy lives in the coherence crate; re-export the pieces a
// system user needs.
pub use swiftdir_coherence::{AccessClass, AccessKind, Completion, ServedFrom};
