//! PARSEC 3.0-like multi-threaded ROI profiles (paper Figure 8).
//!
//! Each benchmark spawns four threads (one per core, as the paper's 4-core
//! runs do). Threads share one read-only region (the input data set /
//! shared library code — write-protected memory) and one read-write shared
//! region (the concurrent data structure), plus a private working set per
//! thread. The sharing mix follows each benchmark's published
//! characterization: `blackscholes`/`swaptions` are embarrassingly
//! parallel (little sharing), `dedup`/`ferret` are pipeline-parallel with
//! heavy queue traffic, `canneal`/`fluidanimate` write-share aggressively.

use swiftdir_core::{ProcessId, System};
use swiftdir_cpu::Instr;
use swiftdir_mmu::{MapFlags, Prot, VirtAddr};

use crate::synth::{SynthParams, SynthStream, WorkloadRegions};

/// The 13 PARSEC 3.0 benchmarks of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the variants are benchmark names
pub enum ParsecBenchmark {
    Blackscholes,
    Bodytrack,
    Canneal,
    Dedup,
    Facesim,
    Ferret,
    Fluidanimate,
    Freqmine,
    Raytrace,
    Streamcluster,
    Swaptions,
    Vips,
    X264,
}

/// One thread's generated instruction stream plus its core assignment.
pub struct ParsecThread {
    /// Core to pin the thread to.
    pub core: usize,
    /// The generated stream.
    pub stream: ParsecStream,
}

/// A PARSEC thread stream: a private synthetic stream interleaved with
/// accesses to the read-write shared region.
#[derive(Debug, Clone)]
pub struct ParsecStream {
    inner: SynthStream,
    shared_rw_base: VirtAddr,
    shared_rw_blocks: u64,
    /// Probability of diverting an instruction into a shared-RW access.
    rw_share: f64,
    /// Probability that a shared-RW access is a store.
    rw_store: f64,
    rng: sim_engine::DetRng,
}

impl swiftdir_cpu::InstrStream for ParsecStream {
    fn next_instr(&mut self) -> Option<Instr> {
        let instr = self.inner.next_instr()?;
        if self.rng.chance(self.rw_share) {
            let va = VirtAddr(self.shared_rw_base.0 + self.rng.below(self.shared_rw_blocks) * 64);
            if self.rng.chance(self.rw_store) {
                return Some(Instr::store(va));
            }
            return Some(Instr::load(va));
        }
        Some(instr)
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.inner.remaining_hint()
    }
}

impl ParsecBenchmark {
    /// All benchmarks in Figure 8's order.
    pub const ALL: [ParsecBenchmark; 13] = [
        ParsecBenchmark::Blackscholes,
        ParsecBenchmark::Bodytrack,
        ParsecBenchmark::Canneal,
        ParsecBenchmark::Dedup,
        ParsecBenchmark::Facesim,
        ParsecBenchmark::Ferret,
        ParsecBenchmark::Fluidanimate,
        ParsecBenchmark::Freqmine,
        ParsecBenchmark::Raytrace,
        ParsecBenchmark::Streamcluster,
        ParsecBenchmark::Swaptions,
        ParsecBenchmark::Vips,
        ParsecBenchmark::X264,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ParsecBenchmark::Blackscholes => "blackscholes",
            ParsecBenchmark::Bodytrack => "bodytrack",
            ParsecBenchmark::Canneal => "canneal",
            ParsecBenchmark::Dedup => "dedup",
            ParsecBenchmark::Facesim => "facesim",
            ParsecBenchmark::Ferret => "ferret",
            ParsecBenchmark::Fluidanimate => "fluidanimate",
            ParsecBenchmark::Freqmine => "freqmine",
            ParsecBenchmark::Raytrace => "raytrace",
            ParsecBenchmark::Streamcluster => "streamcluster",
            ParsecBenchmark::Swaptions => "swaptions",
            ParsecBenchmark::Vips => "vips",
            ParsecBenchmark::X264 => "x264",
        }
    }

    /// Stable seed.
    pub fn seed(&self) -> u64 {
        Self::ALL.iter().position(|b| b == self).unwrap() as u64 + 501
    }

    /// `(per-thread profile, rw_share, rw_store)` for this benchmark.
    fn profile(&self, instructions_per_thread: u64) -> (SynthParams, f64, f64) {
        let base = SynthParams::balanced(instructions_per_thread);
        // (private KiB, load, store, shared-RO frac, WAR, locality, rw_share, rw_store)
        let (ws, ld, st, sh, war, loc, rw, rws) = match self {
            ParsecBenchmark::Blackscholes => (128, 0.30, 0.08, 0.30, 0.06, 0.9, 0.01, 0.2),
            ParsecBenchmark::Bodytrack => (256, 0.32, 0.10, 0.25, 0.08, 0.8, 0.04, 0.3),
            ParsecBenchmark::Canneal => (2048, 0.40, 0.14, 0.05, 0.10, 0.5, 0.12, 0.5),
            ParsecBenchmark::Dedup => (1024, 0.34, 0.16, 0.10, 0.16, 0.6, 0.10, 0.5),
            ParsecBenchmark::Facesim => (1536, 0.36, 0.14, 0.08, 0.12, 0.7, 0.05, 0.4),
            ParsecBenchmark::Ferret => (512, 0.33, 0.12, 0.20, 0.10, 0.7, 0.08, 0.4),
            ParsecBenchmark::Fluidanimate => (768, 0.35, 0.15, 0.05, 0.14, 0.7, 0.10, 0.5),
            ParsecBenchmark::Freqmine => (1024, 0.36, 0.12, 0.15, 0.10, 0.6, 0.06, 0.3),
            ParsecBenchmark::Raytrace => (512, 0.32, 0.08, 0.30, 0.05, 0.8, 0.02, 0.2),
            ParsecBenchmark::Streamcluster => (1536, 0.38, 0.10, 0.10, 0.08, 0.5, 0.06, 0.3),
            ParsecBenchmark::Swaptions => (128, 0.26, 0.10, 0.10, 0.10, 1.0, 0.01, 0.3),
            ParsecBenchmark::Vips => (512, 0.32, 0.12, 0.20, 0.10, 0.8, 0.04, 0.3),
            ParsecBenchmark::X264 => (768, 0.30, 0.14, 0.12, 0.14, 0.8, 0.05, 0.4),
        };
        let params = SynthParams {
            private_bytes: ws * 1024,
            load_ratio: ld,
            store_ratio: st,
            shared_load_fraction: sh,
            war_fraction: war,
            locality: loc,
            ..base
        };
        (params, rw, rws)
    }

    /// Maps this benchmark's regions into `pid` and builds the four thread
    /// streams (cores 0–3). The **read-only shared** region is mapped once
    /// and read by all threads (write-protected data); the **read-write
    /// shared** region is a writable anonymous mapping all threads touch.
    pub fn build_threads(
        &self,
        sys: &mut System,
        pid: ProcessId,
        instructions_per_thread: u64,
    ) -> Vec<ParsecThread> {
        let (params, rw_share, rw_store) = self.profile(instructions_per_thread);
        let threads = 4;

        // One shared read-only region for all threads.
        let shared_ro = sys
            .process_mut(pid)
            .mmap(params.shared_ro_bytes, Prot::READ, MapFlags::PRIVATE)
            .expect("shared RO region");
        // One shared read-write region.
        let rw_bytes: u64 = 128 * 1024;
        let shared_rw = sys
            .process_mut(pid)
            .mmap(rw_bytes, Prot::READ | Prot::WRITE, MapFlags::PRIVATE)
            .expect("shared RW region");

        (0..threads)
            .map(|t| {
                // Per-thread private region; shared regions reused.
                let private = sys
                    .process_mut(pid)
                    .mmap(
                        params.private_bytes.max(4096),
                        Prot::READ | Prot::WRITE,
                        MapFlags::PRIVATE,
                    )
                    .expect("private region");
                let regions = WorkloadRegions {
                    private_base: private,
                    private_bytes: params.private_bytes.max(4096),
                    shared_base: Some(shared_ro),
                    shared_bytes: params.shared_ro_bytes,
                };
                let mut rng = sim_engine::DetRng::new(self.seed());
                let thread_rng = rng.split(t as u64);
                ParsecThread {
                    core: t,
                    stream: ParsecStream {
                        inner: SynthStream::new(params, regions, self.seed() * 13 + t as u64),
                        shared_rw_base: shared_rw,
                        shared_rw_blocks: rw_bytes / 64,
                        rw_share,
                        rw_store,
                        rng: thread_rng,
                    },
                }
            })
            .collect()
    }
}

impl std::fmt::Display for ParsecBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftdir_coherence::ProtocolKind;
    use swiftdir_core::SystemConfig;
    use swiftdir_cpu::CpuModel;

    #[test]
    fn thirteen_benchmarks_unique() {
        assert_eq!(ParsecBenchmark::ALL.len(), 13);
        let names: std::collections::HashSet<&str> =
            ParsecBenchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn roi_runs_on_four_cores() {
        let mut sys = System::new(
            SystemConfig::builder()
                .cores(4)
                .protocol(ProtocolKind::SwiftDir)
                .cpu_model(CpuModel::TimingSimple)
                .build(),
        );
        let pid = sys.spawn_process();
        let threads = ParsecBenchmark::Blackscholes.build_threads(&mut sys, pid, 1_000);
        assert_eq!(threads.len(), 4);
        for t in threads {
            sys.run_thread_stream(pid, t.core, t.stream);
        }
        let stats = sys.run_to_completion();
        assert_eq!(stats.threads.len(), 4);
        assert_eq!(stats.instructions(), 4_000);
        assert!(stats.roi_cycles() > 0);
    }

    #[test]
    fn write_sharing_causes_invalidations() {
        let mut sys = System::new(
            SystemConfig::builder()
                .cores(4)
                .protocol(ProtocolKind::Mesi)
                .cpu_model(CpuModel::TimingSimple)
                .build(),
        );
        let pid = sys.spawn_process();
        // canneal write-shares heavily.
        let threads = ParsecBenchmark::Canneal.build_threads(&mut sys, pid, 2_000);
        for t in threads {
            sys.run_thread_stream(pid, t.core, t.stream);
        }
        let stats = sys.run_to_completion();
        assert!(
            stats
                .hierarchy
                .event(swiftdir_coherence::CoherenceEvent::Inv)
                > 0,
            "write sharing must invalidate"
        );
    }
}
