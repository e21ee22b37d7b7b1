//! # SwiftDir — Secure Cache Coherence without Overprotection
//!
//! A full-system reproduction of the MICRO 2022 paper *SwiftDir: Secure
//! Cache Coherence without Overprotection* (Miao, Bu, Li, Mao, Jia).
//!
//! This meta-crate re-exports the whole simulator stack so downstream users
//! (and the examples and integration tests in this repository) can depend on
//! a single crate:
//!
//! * [`engine`] — deterministic event-driven simulation kernel.
//! * [`mem`] — DDR3-1600 DRAM timing model.
//! * [`mmu`] — page tables, PTE R/W bits, TLBs, VMAs, `mmap`, KSM, CoW.
//! * [`cache`] — set-associative cache structures and PIPT/VIPT/VIVT
//!   addressing.
//! * [`coherence`] — the L1 and LLC/directory controllers implementing
//!   MESI, S-MESI, SwiftDir, and MSI.
//! * [`cpu`] — in-order and out-of-order core models.
//! * [`core`] — system assembly, configuration (paper Table V), latency
//!   probes, and the covert/side-channel attack harness.
//! * [`workloads`] — SPEC-like, PARSEC-like, read-only, and
//!   write-after-read workload generators.
//!
//! # Quickstart
//!
//! ```
//! use swiftdir::prelude::*;
//!
//! // A 2-core SwiftDir system with Table V defaults.
//! let config = SystemConfig::builder()
//!     .cores(2)
//!     .protocol(ProtocolKind::SwiftDir)
//!     .build();
//! let mut system = System::new(config);
//! let pid = system.spawn_process();
//! // Map one write-protected (shared-library-like) page and read it.
//! let va = system
//!     .process_mut(pid)
//!     .mmap(4096, Prot::READ, MapFlags::PRIVATE)
//!     .expect("mmap");
//! system.run_thread_program(pid, 0, vec![Instr::load(va)]);
//! let stats = system.run_to_completion();
//! assert_eq!(stats.loads(), 1);
//! ```

pub use sim_engine as engine;
pub use swiftdir_cache as cache;
pub use swiftdir_coherence as coherence;
pub use swiftdir_core as core;
pub use swiftdir_cpu as cpu;
pub use swiftdir_mem as mem;
pub use swiftdir_mmu as mmu;
pub use swiftdir_workloads as workloads;

/// The most commonly used items, re-exported for `use swiftdir::prelude::*`.
pub mod prelude {
    pub use sim_engine::{Cycle, DetRng, EventQueue, Histogram};
    pub use swiftdir_cache::{CacheGeometry, L1Architecture, ReplacementPolicy};
    pub use swiftdir_coherence::{CoherenceEvent, L1State, LlcState, ProtocolKind};
    pub use swiftdir_core::{
        AccessClass, LatencyProbe, Process, ProcessId, RunStats, System, SystemConfig,
    };
    pub use swiftdir_cpu::{CpuModel, Instr, Program};
    pub use swiftdir_mmu::{MapFlags, PhysAddr, Prot, VirtAddr};
    pub use swiftdir_workloads::{ParsecBenchmark, SpecBenchmark, WarApp};
}
