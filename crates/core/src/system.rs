//! The simulated machine: processes, threads, and co-simulation.

use sim_engine::Cycle;
use swiftdir_cache::L1Architecture;
use swiftdir_coherence::{CoreRequest, Hierarchy, HierarchyStats, RequestId};
use swiftdir_cpu::{
    Core, CoreStats, CoreStatus, CpuModel, InOrderCore, Instr, InstrStream, MemOp, MemPort,
    OutOfOrderCore, Program,
};
use swiftdir_mem::MemStats;
use swiftdir_mmu::{
    Access, Ksm, KsmStats, LibraryImage, LoadedLibrary, MapError, MapFlags, MemoryManager, Prot,
    SpaceId, Tlb, TlbEntry, TlbStats, VirtAddr,
};

use crate::config::SystemConfig;
use crate::obs::{TraceConfig, TraceFiles};
use crate::probe::LatencyProbe;

/// Handle to a simulated process (one address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId(pub u32);

/// Per-thread execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadStats {
    /// The core the thread ran on.
    pub core: usize,
    /// Retired-instruction statistics.
    pub cpu: CoreStats,
}

/// Statistics of one [`System::run_to_completion`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Per-thread statistics, in core order.
    pub threads: Vec<ThreadStats>,
    /// Coherence statistics accumulated so far (cumulative over the
    /// system's lifetime).
    pub hierarchy: HierarchyStats,
    /// DRAM statistics (cumulative).
    pub memory: MemStats,
}

impl RunStats {
    /// Total loads issued by cores (cumulative).
    pub fn loads(&self) -> u64 {
        self.hierarchy
            .event(swiftdir_coherence::CoherenceEvent::Load)
    }

    /// Total stores issued by cores (cumulative).
    pub fn stores(&self) -> u64 {
        self.hierarchy
            .event(swiftdir_coherence::CoherenceEvent::Store)
    }

    /// Wall-clock cycles of this run's region of interest: from the
    /// earliest thread start to the latest thread finish.
    pub fn roi_cycles(&self) -> u64 {
        let start = self
            .threads
            .iter()
            .map(|t| t.cpu.started_at)
            .min()
            .unwrap_or(Cycle::ZERO);
        let end = self
            .threads
            .iter()
            .map(|t| t.cpu.finished_at)
            .max()
            .unwrap_or(Cycle::ZERO);
        end.saturating_since(start).get()
    }

    /// Total instructions retired across threads.
    pub fn instructions(&self) -> u64 {
        self.threads.iter().map(|t| t.cpu.instructions).sum()
    }

    /// Aggregate IPC over the ROI (all threads' instructions / ROI cycles).
    pub fn ipc(&self) -> f64 {
        let cycles = self.roi_cycles();
        if cycles == 0 {
            0.0
        } else {
            self.instructions() as f64 / cycles as f64
        }
    }
}

struct CoreSlot {
    cpu: Option<Box<dyn Core>>,
    space: Option<SpaceId>,
    dtlb: Tlb,
}

/// The simulated machine (paper Table V).
///
/// Owns the memory manager (page tables, page cache, KSM), per-core TLBs,
/// the coherent cache hierarchy, and the CPU models, and co-simulates them
/// deterministically.
pub struct System {
    cfg: SystemConfig,
    mm: MemoryManager,
    hier: Hierarchy,
    slots: Vec<CoreSlot>,
    processes: Vec<SpaceId>,
    probe: LatencyProbe,
    trace: Option<TraceFiles>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cfg", &self.cfg)
            .field("processes", &self.processes.len())
            .field("now", &self.hier.now())
            .finish()
    }
}

impl System {
    /// Builds an idle machine. Honors the `SWIFTDIR_TRACE` /
    /// `SWIFTDIR_TRACE_LIMIT` environment knobs (see [`crate::obs`]):
    /// when set, the machine traces into the configured files until
    /// [`System::run_to_completion`] or [`System::finish_trace`] closes
    /// them.
    pub fn new(cfg: SystemConfig) -> Self {
        Self::with_trace(cfg, TraceConfig::from_env())
    }

    /// Builds an idle machine with an explicit trace configuration
    /// (bypassing the environment knobs).
    ///
    /// # Panics
    ///
    /// Panics if the trace-output files cannot be created.
    pub fn with_trace(cfg: SystemConfig, trace: TraceConfig) -> Self {
        let slots = (0..cfg.cores)
            .map(|_| CoreSlot {
                cpu: None,
                space: None,
                dtlb: Tlb::new(cfg.tlb_entries),
            })
            .collect();
        let mut hier = Hierarchy::new(cfg.hierarchy());
        let trace = match trace.build() {
            Ok(Some((tracer, files))) => {
                hier.set_tracer(tracer);
                Some(files)
            }
            Ok(None) => None,
            Err(e) => panic!("cannot create trace files: {e}"),
        };
        System {
            hier,
            mm: MemoryManager::new(),
            slots,
            processes: Vec::new(),
            probe: LatencyProbe::new(),
            trace,
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Creates a process (a fresh address space).
    pub fn spawn_process(&mut self) -> ProcessId {
        let space = self.mm.create_space();
        self.processes.push(space);
        ProcessId(self.processes.len() as u32 - 1)
    }

    /// A handle for manipulating `pid`'s address space.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not returned by [`System::spawn_process`].
    pub fn process_mut(&mut self, pid: ProcessId) -> Process<'_> {
        let space = self.processes[pid.0 as usize];
        Process { sys: self, space }
    }

    /// Starts a thread of `pid` on `core`, executing `program` (anything
    /// convertible into an instruction stream).
    ///
    /// # Panics
    ///
    /// Panics if the core is out of range or already running a thread.
    pub fn run_thread_program(&mut self, pid: ProcessId, core: usize, program: Vec<Instr>) {
        self.run_thread_stream(pid, core, Program::from_instrs(program).into_stream());
    }

    /// Starts a thread from an arbitrary [`InstrStream`] (for generated
    /// workloads that never materialize in memory).
    ///
    /// # Panics
    ///
    /// Panics if the core is out of range or already running a thread.
    pub fn run_thread_stream(
        &mut self,
        pid: ProcessId,
        core: usize,
        stream: impl InstrStream + 'static,
    ) {
        assert!(core < self.cfg.cores, "core {core} out of range");
        assert!(
            self.slots[core].cpu.is_none(),
            "core {core} already has a thread"
        );
        let start = self.hier.now();
        let cpu: Box<dyn Core> = match self.cfg.cpu_model {
            CpuModel::TimingSimple => Box::new(InOrderCore::new(stream, start)),
            CpuModel::DerivO3 => Box::new(OutOfOrderCore::new(stream, start)),
        };
        self.slots[core].cpu = Some(cpu);
        self.slots[core].space = Some(self.processes[pid.0 as usize]);
    }

    /// Runs every started thread to completion and drains the hierarchy.
    /// Returns per-thread and system statistics; finished threads are
    /// cleared so new ones can be started afterwards.
    ///
    /// # Panics
    ///
    /// Panics with the [`ProtocolError`](swiftdir_coherence::ProtocolError)
    /// text on an illegal protocol event, and on deadlock (a thread waits
    /// on memory while no events are pending); both indicate a protocol
    /// bug.
    pub fn run_to_completion(&mut self) -> RunStats {
        // Completion buffer reused across batches; `try_tick_into`
        // appends instead of returning a fresh vector per event time.
        let mut completions = Vec::new();
        loop {
            // 1. Let every runnable CPU make progress. Split the slot's
            // fields so the core, its TLB, and the shared hierarchy can
            // be borrowed side by side without moving anything out.
            for (i, slot) in self.slots.iter_mut().enumerate() {
                let CoreSlot { cpu, space, dtlb } = slot;
                let Some(cpu) = cpu.as_mut() else {
                    continue;
                };
                if !cpu.done() {
                    let space = space.expect("running thread has a space");
                    let mut port = SysPort {
                        core: i,
                        space,
                        cfg: &self.cfg,
                        mm: &mut self.mm,
                        hier: &mut self.hier,
                        dtlb,
                    };
                    let _status: CoreStatus = cpu.run(&mut port);
                }
            }

            // 2. Advance the hierarchy to its next event batch.
            match self.hier.next_event_time() {
                Some(t) => {
                    if let Err(e) = self.hier.try_tick_into(t, &mut completions) {
                        panic!("{e}");
                    }
                    for c in completions.drain(..) {
                        self.probe.record(&c);
                        if let Some(cpu) = self.slots[c.core].cpu.as_mut() {
                            cpu.on_mem_complete(c.req, c.done_at);
                        }
                    }
                }
                None => {
                    let all_done = self
                        .slots
                        .iter()
                        .all(|s| s.cpu.as_ref().is_none_or(|c| c.done()));
                    if all_done {
                        break;
                    }
                    unreachable!("deadlock: threads waiting with no pending events");
                }
            }
        }

        // Collect and clear finished threads.
        let mut threads = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(cpu) = slot.cpu.take() {
                threads.push(ThreadStats {
                    core: i,
                    cpu: cpu.stats(),
                });
                slot.space = None;
            }
        }
        let stats = RunStats {
            threads,
            hierarchy: self.hier.stats().clone(),
            memory: self.hier.mem_stats(),
        };
        if self.trace.is_some() {
            self.write_snapshot(&stats);
            self.finish_trace();
        }
        stats
    }

    /// Writes `stats`' snapshot to the trace's `.metrics.json` file (a
    /// no-op when tracing is off).
    fn write_snapshot(&self, stats: &RunStats) {
        if let Some(files) = &self.trace {
            std::fs::write(&files.metrics, stats.snapshot_pretty())
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", files.metrics.display()));
        }
    }

    /// Flushes and closes the trace files, disabling further tracing.
    /// Idempotent; called automatically at the end of
    /// [`System::run_to_completion`]. Call it directly after
    /// [`System::timed_access`]-style experiments that never run a
    /// thread to completion.
    pub fn finish_trace(&mut self) {
        if let Err(e) = self.hier.finish_trace() {
            panic!("cannot finalize trace files: {e}");
        }
    }

    /// The output files of this system's trace, when tracing is on.
    pub fn trace_files(&self) -> Option<&TraceFiles> {
        self.trace.as_ref()
    }

    /// Performs one timed access from `core` on behalf of `pid` and runs
    /// the hierarchy to quiescence; returns the access latency in cycles.
    ///
    /// This is the measurement primitive the attack harness uses — the
    /// simulated equivalent of an `rdtsc`-fenced load.
    pub fn timed_access(&mut self, core: usize, pid: ProcessId, va: VirtAddr, op: MemOp) -> Cycle {
        let space = self.processes[pid.0 as usize];
        let mut dtlb = std::mem::replace(&mut self.slots[core].dtlb, Tlb::new(1));
        let at = self.hier.now();
        let token = {
            let mut port = SysPort {
                core,
                space,
                cfg: &self.cfg,
                mm: &mut self.mm,
                hier: &mut self.hier,
                dtlb: &mut dtlb,
            };
            port.issue(at, va, op)
        };
        self.slots[core].dtlb = dtlb;
        let completions = self.hier.run_until_idle();
        let mut latency = Cycle::ZERO;
        for c in &completions {
            self.probe.record(c);
            if c.req == token {
                latency = c.latency();
            }
        }
        latency
    }

    /// Runs a KSM merge pass over all processes (paper §IV-A1's second
    /// shared-memory producer) and flushes every TLB so the new
    /// write-protection bits take effect.
    pub fn run_ksm(&mut self) -> KsmStats {
        let stats = Ksm::new().run(&mut self.mm);
        for slot in &mut self.slots {
            slot.dtlb.flush();
        }
        stats
    }

    /// The latency probe accumulated over all runs.
    pub fn probe(&self) -> &LatencyProbe {
        &self.probe
    }

    /// Clears the latency probe (e.g. after a warm-up phase).
    pub fn reset_probe(&mut self) {
        self.probe = LatencyProbe::new();
    }

    /// The coherent hierarchy (for state probes in tests and experiments).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// The memory manager (for functional inspection).
    pub fn memory_manager(&mut self) -> &mut MemoryManager {
        &mut self.mm
    }

    /// Data-TLB statistics for `core`.
    pub fn tlb_stats(&self, core: usize) -> TlbStats {
        self.slots[core].dtlb.stats()
    }
}

/// Mutable handle to one process's address space (returned by
/// [`System::process_mut`]).
#[derive(Debug)]
pub struct Process<'a> {
    sys: &'a mut System,
    space: SpaceId,
}

impl Process<'_> {
    /// Anonymous `mmap` of `len` bytes.
    ///
    /// # Errors
    ///
    /// Propagates [`MapError`] from the allocator.
    pub fn mmap(&mut self, len: u64, prot: Prot, flags: MapFlags) -> Result<VirtAddr, MapError> {
        self.sys.mm.mmap(self.space, len, prot, flags)
    }

    /// File-backed `mmap`.
    ///
    /// # Errors
    ///
    /// Propagates [`MapError`] from the allocator.
    pub fn mmap_file(
        &mut self,
        file: u32,
        offset_pages: u64,
        len: u64,
        prot: Prot,
        flags: MapFlags,
    ) -> Result<VirtAddr, MapError> {
        self.sys
            .mm
            .mmap_file(self.space, file, offset_pages, len, prot, flags)
    }

    /// Loads a shared library into this process (paper §IV-A1's first
    /// shared-memory producer). Pass the file handle from a previous load
    /// to share page-cache frames with another process.
    ///
    /// # Errors
    ///
    /// Propagates [`MapError`] from the allocator.
    pub fn load_library(
        &mut self,
        image: &LibraryImage,
        file_handle: Option<u32>,
    ) -> Result<(LoadedLibrary, u32), MapError> {
        swiftdir_mmu::load_library(&mut self.sys.mm, self.space, image, file_handle)
    }

    /// Functional (untimed) write; triggers CoW exactly like a store.
    ///
    /// # Errors
    ///
    /// Fails on protection violations or unmapped addresses.
    pub fn write(&mut self, va: VirtAddr, data: &[u8]) -> Result<(), swiftdir_mmu::TranslateError> {
        self.sys.mm.write(self.space, va, data)
    }

    /// Functional (untimed) read.
    ///
    /// # Errors
    ///
    /// Fails on protection violations or unmapped addresses.
    pub fn read(
        &mut self,
        va: VirtAddr,
        len: usize,
    ) -> Result<Vec<u8>, swiftdir_mmu::TranslateError> {
        self.sys.mm.read(self.space, va, len)
    }

    /// Whether `va` currently translates as write-protected.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    pub fn is_write_protected(
        &mut self,
        va: VirtAddr,
    ) -> Result<bool, swiftdir_mmu::TranslateError> {
        Ok(self
            .sys
            .mm
            .translate(self.space, va, Access::Read)?
            .write_protected)
    }
}

/// The per-core memory port: translation (where the WP bit joins the
/// request, per the configured L1 architecture) followed by injection into
/// the coherent hierarchy.
struct SysPort<'a> {
    core: usize,
    space: SpaceId,
    cfg: &'a SystemConfig,
    mm: &'a mut MemoryManager,
    hier: &'a mut Hierarchy,
    dtlb: &'a mut Tlb,
}

impl SysPort<'_> {
    /// Translates `va`, returning `(paddr, wp, extra_cycles)` where
    /// `extra_cycles` is the translation latency exposed to this access
    /// under the configured L1 architecture.
    fn translate(&mut self, va: VirtAddr, op: MemOp) -> (swiftdir_mmu::PhysAddr, bool, u64) {
        let arch: L1Architecture = self.cfg.l1_architecture;
        let vpn = va.vpn();

        // TLB lookup first; a store through a cached non-writable entry
        // must take the slow path (possible CoW).
        if let Some(entry) = self.dtlb.lookup(vpn) {
            let usable = op == MemOp::Load || entry.writable;
            if usable {
                let paddr = entry.pfn.at_offset(va.page_offset());
                return (paddr, entry.write_protected, arch.hit_translation_cycles(1));
            }
        }

        // TLB miss (or permission upgrade): full translation with fault
        // handling.
        let access = match op {
            MemOp::Load => Access::Read,
            MemOp::Store => Access::Write,
        };
        let t = self
            .mm
            .translate(self.space, va, access)
            .unwrap_or_else(|e| panic!("segfault on core {}: {e}", self.core));
        if t.faults > 0 {
            // The PTE changed (demand page or CoW): drop any stale entry.
            self.dtlb.shootdown(vpn);
        }
        let pte = self
            .mm
            .space(self.space)
            .page_table()
            .get(vpn)
            .expect("translate installed a PTE");
        self.dtlb.fill(TlbEntry {
            vpn,
            pfn: pte.pfn,
            writable: pte.writable,
            write_protected: t.write_protected,
        });

        let mut extra = t.walk_levels as u64 * self.cfg.walk_cycles_per_level;
        extra += t.faults as u64
            * if access == Access::Write && !t.write_protected && t.faults > 0 {
                // Heuristic: a write fault that ended writable was CoW-ish;
                // demand faults and CoW costs differ.
                self.cfg.cow_fault_cycles
            } else {
                self.cfg.demand_fault_cycles
            };

        // VIVT pays translation only on the L1-miss path; PIPT/VIPT pay
        // the walk before/alongside the L1 access (paper Figure 5).
        if arch == L1Architecture::Vivt {
            let l1_hit = self.hier.l1_state(self.core, t.paddr).load_hits();
            if l1_hit {
                extra = 0;
            }
        }
        (t.paddr, t.write_protected, extra)
    }
}

impl MemPort for SysPort<'_> {
    fn issue(&mut self, at: Cycle, vaddr: VirtAddr, op: MemOp) -> u64 {
        let (paddr, wp, extra) = self.translate(vaddr, op);
        let mut req = match op {
            MemOp::Load => CoreRequest::load(paddr),
            MemOp::Store => CoreRequest::store(paddr),
        };
        if wp {
            req = req.write_protected();
        }
        let id: RequestId = self.hier.issue_translated(at, extra, self.core, req);
        id
    }
}

// Re-exported so experiment code can name the access kinds without
// importing the cpu crate directly.
pub use swiftdir_cpu::MemOp as PortOp;

#[cfg(test)]
mod tests {
    use super::*;
    use swiftdir_coherence::{L1State, LlcState, ProtocolKind};

    fn small_system(protocol: ProtocolKind) -> System {
        System::new(
            SystemConfig::builder()
                .cores(4)
                .protocol(protocol)
                .cpu_model(CpuModel::TimingSimple)
                .build(),
        )
    }

    #[test]
    fn end_to_end_wp_bit_reaches_coherence() {
        // mmap read-only → PTE R/W=0 → translation WP → GETS_WP → S state.
        let mut sys = small_system(ProtocolKind::SwiftDir);
        let pid = sys.spawn_process();
        let va = sys
            .process_mut(pid)
            .mmap(4096, Prot::READ, MapFlags::PRIVATE)
            .unwrap();
        sys.run_thread_program(pid, 0, vec![Instr::load(va)]);
        let stats = sys.run_to_completion();
        assert_eq!(stats.loads(), 1);
        assert_eq!(
            stats
                .hierarchy
                .event(swiftdir_coherence::CoherenceEvent::GetsWp),
            1,
            "the WP bit must turn the miss into GETS_WP"
        );
        // The L1 line is S, not E.
        let paddr = sys
            .memory_manager()
            .translate(SpaceId(0), va, Access::Read)
            .unwrap()
            .paddr;
        assert_eq!(sys.hierarchy().l1_state(0, paddr), L1State::S);
        assert_eq!(sys.hierarchy().llc_state(paddr), LlcState::S);
    }

    #[test]
    fn heap_data_stays_exclusive_under_swiftdir() {
        let mut sys = small_system(ProtocolKind::SwiftDir);
        let pid = sys.spawn_process();
        let va = sys
            .process_mut(pid)
            .mmap(4096, Prot::READ | Prot::WRITE, MapFlags::PRIVATE)
            .unwrap();
        sys.run_thread_program(pid, 0, vec![Instr::load(va)]);
        let stats = sys.run_to_completion();
        assert_eq!(
            stats
                .hierarchy
                .event(swiftdir_coherence::CoherenceEvent::Gets),
            1,
            "heap loads use plain GETS"
        );
        let paddr = sys
            .memory_manager()
            .translate(SpaceId(0), va, Access::Read)
            .unwrap()
            .paddr;
        assert_eq!(sys.hierarchy().l1_state(0, paddr), L1State::E);
    }

    #[test]
    fn two_threads_roi_and_ipc() {
        let mut sys = small_system(ProtocolKind::Mesi);
        let pid = sys.spawn_process();
        let va = sys
            .process_mut(pid)
            .mmap(64 * 1024, Prot::READ | Prot::WRITE, MapFlags::PRIVATE)
            .unwrap();
        let prog0: Vec<Instr> = (0..64)
            .map(|i| Instr::load(VirtAddr(va.0 + i * 64)))
            .collect();
        let prog1: Vec<Instr> = (0..64).map(|_| Instr::compute(2)).collect();
        sys.run_thread_program(pid, 0, prog0);
        sys.run_thread_program(pid, 1, prog1);
        let stats = sys.run_to_completion();
        assert_eq!(stats.threads.len(), 2);
        assert_eq!(stats.instructions(), 128);
        assert!(stats.roi_cycles() > 0);
        assert!(stats.ipc() > 0.0);
        // The memory-bound thread dominates the ROI.
        let mem_thread = &stats.threads[0];
        assert!(mem_thread.cpu.cycles() >= 64, "64 loads take time");
    }

    #[test]
    fn cores_are_reusable_after_completion() {
        let mut sys = small_system(ProtocolKind::Mesi);
        let pid = sys.spawn_process();
        let va = sys
            .process_mut(pid)
            .mmap(4096, Prot::READ | Prot::WRITE, MapFlags::PRIVATE)
            .unwrap();
        sys.run_thread_program(pid, 0, vec![Instr::load(va)]);
        sys.run_to_completion();
        // Second phase on the same core.
        sys.run_thread_program(pid, 0, vec![Instr::store(va)]);
        let stats = sys.run_to_completion();
        assert_eq!(stats.threads.len(), 1);
        assert_eq!(stats.stores(), 1);
    }

    #[test]
    fn timed_access_measures_coherence_latency() {
        let mut sys = small_system(ProtocolKind::SwiftDir);
        let pid = sys.spawn_process();
        let va = sys
            .process_mut(pid)
            .mmap(4096, Prot::READ, MapFlags::PRIVATE)
            .unwrap();
        // Cold access (demand fault + page walk + DRAM).
        let cold = sys.timed_access(0, pid, va, MemOp::Load);
        // Warm L1 hit.
        let hit = sys.timed_access(0, pid, va, MemOp::Load);
        // Cross-core: warm core 1's TLB on a different line first, then
        // measure the coherence latency of the S-state line: 17 cycles.
        sys.timed_access(1, pid, VirtAddr(va.0 + 128), MemOp::Load);
        let remote = sys.timed_access(1, pid, va, MemOp::Load);
        assert!(
            cold > remote,
            "cold miss slower than LLC hit: {cold} vs {remote}"
        );
        assert_eq!(hit, Cycle(1));
        assert_eq!(remote, Cycle(17));
    }

    #[test]
    fn tlb_caches_translations() {
        let mut sys = small_system(ProtocolKind::Mesi);
        let pid = sys.spawn_process();
        let va = sys
            .process_mut(pid)
            .mmap(4096, Prot::READ, MapFlags::PRIVATE)
            .unwrap();
        sys.timed_access(0, pid, va, MemOp::Load);
        sys.timed_access(0, pid, va, MemOp::Load);
        let tlb = sys.tlb_stats(0);
        assert_eq!(tlb.misses, 1);
        assert_eq!(tlb.hits, 1);
    }

    #[test]
    fn ksm_merge_makes_loads_wp() {
        let mut sys = small_system(ProtocolKind::SwiftDir);
        let p1 = sys.spawn_process();
        let p2 = sys.spawn_process();
        let va1 = sys
            .process_mut(p1)
            .mmap(4096, Prot::READ | Prot::WRITE, MapFlags::PRIVATE)
            .unwrap();
        let va2 = sys
            .process_mut(p2)
            .mmap(4096, Prot::READ | Prot::WRITE, MapFlags::PRIVATE)
            .unwrap();
        sys.process_mut(p1).write(va1, b"identical page").unwrap();
        sys.process_mut(p2).write(va2, b"identical page").unwrap();
        let merged = sys.run_ksm();
        assert_eq!(merged.merged, 1);
        // Loads of the merged page now carry the WP bit → GETS_WP → S.
        sys.timed_access(0, p1, va1, MemOp::Load);
        assert_eq!(
            sys.hierarchy()
                .stats()
                .event(swiftdir_coherence::CoherenceEvent::GetsWp),
            1
        );
    }

    #[test]
    fn shared_library_cross_process_llc_service() {
        // Two processes, same library; under SwiftDir the second process's
        // read of a page the first already cached is served from the LLC in
        // 17 cycles (no forwarding).
        let mut sys = small_system(ProtocolKind::SwiftDir);
        let p1 = sys.spawn_process();
        let p2 = sys.spawn_process();
        let lib = LibraryImage::synthetic("libshared.so", 2, 2, 0);
        let (l1, file) = sys.process_mut(p1).load_library(&lib, None).unwrap();
        let (l2, _) = sys.process_mut(p2).load_library(&lib, Some(file)).unwrap();
        let ro1 = l1.base_of(swiftdir_mmu::SegmentKind::Rodata).unwrap();
        let ro2 = l2.base_of(swiftdir_mmu::SegmentKind::Rodata).unwrap();
        sys.timed_access(0, p1, ro1, MemOp::Load);
        // Warm core 1's translation on a neighbouring line, then measure.
        sys.timed_access(1, p2, VirtAddr(ro2.0 + 128), MemOp::Load);
        let remote = sys.timed_access(1, p2, ro2, MemOp::Load);
        assert_eq!(remote, Cycle(17), "LLC-served shared-library read");
    }

    #[test]
    fn mesi_shared_library_is_forwarded_and_slow() {
        // Same scenario as above under MESI: the first toucher holds E, so
        // the cross-process read is owner-forwarded (the exploitable path).
        let mut sys = small_system(ProtocolKind::Mesi);
        let p1 = sys.spawn_process();
        let p2 = sys.spawn_process();
        let lib = LibraryImage::synthetic("libshared.so", 1, 1, 0);
        let (l1, file) = sys.process_mut(p1).load_library(&lib, None).unwrap();
        let (l2, _) = sys.process_mut(p2).load_library(&lib, Some(file)).unwrap();
        let ro1 = l1.base_of(swiftdir_mmu::SegmentKind::Rodata).unwrap();
        let ro2 = l2.base_of(swiftdir_mmu::SegmentKind::Rodata).unwrap();
        sys.timed_access(0, p1, ro1, MemOp::Load);
        sys.timed_access(1, p2, VirtAddr(ro2.0 + 128), MemOp::Load);
        let remote = sys.timed_access(1, p2, ro2, MemOp::Load);
        assert_eq!(remote, Cycle(17 + 26), "the exploitable E-state path");
    }

    #[test]
    #[should_panic(expected = "segfault")]
    fn unmapped_access_panics() {
        let mut sys = small_system(ProtocolKind::Mesi);
        let pid = sys.spawn_process();
        sys.timed_access(0, pid, VirtAddr(0xdead_0000), MemOp::Load);
    }

    #[test]
    #[should_panic(expected = "already has a thread")]
    fn double_thread_on_core_panics() {
        let mut sys = small_system(ProtocolKind::Mesi);
        let pid = sys.spawn_process();
        sys.run_thread_program(pid, 0, vec![Instr::compute(1)]);
        sys.run_thread_program(pid, 0, vec![Instr::compute(1)]);
    }
}
