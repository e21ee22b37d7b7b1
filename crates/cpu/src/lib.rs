//! Core (CPU) models for the SwiftDir simulator.
//!
//! Two models reproduce the paper's two gem5 configurations (§V-E):
//!
//! * [`InOrderCore`] — `TimingSimpleCPU`: one instruction at a time,
//!   blocking on every memory access. Used by Figure 10(a) to isolate the
//!   protocol-level cost of write-after-read handling.
//! * [`OutOfOrderCore`] — `DerivO3CPU`-like: 192-entry ROB, 32-entry load
//!   queue, 32-entry store queue, issue width 8 (Table V). Stores occupy a
//!   store-queue entry until the coherence transaction completes, which is
//!   precisely the mechanism that makes S-MESI's revoked silent upgrade so
//!   expensive out-of-order (Figure 10(b)): each store holds its SQ slot
//!   for the whole Upgrade/ACK round trip, and a write-after-read-intensive
//!   stream fills the queue.
//!
//! Cores execute abstract [`Instr`] streams and talk to the memory system
//! through the [`MemPort`] trait, which the system-assembly crate
//! implements on top of the coherent hierarchy (performing address
//! translation, which is where the write-protection bit joins the request).
//!
//! # Example
//!
//! ```
//! use sim_engine::Cycle;
//! use swiftdir_cpu::{Core, FixedLatencyPort, InOrderCore, Instr, Program};
//! use swiftdir_mmu::VirtAddr;
//!
//! let prog = Program::from_instrs(vec![
//!     Instr::compute(3),
//!     Instr::load(VirtAddr(0x1000)),
//!     Instr::compute(1),
//! ]);
//! let mut core = InOrderCore::new(prog.into_stream(), Cycle(0));
//! let mut port = FixedLatencyPort::new(17);
//! swiftdir_cpu::run_single(&mut core, &mut port);
//! assert_eq!(core.stats().instructions, 3);
//! ```

pub mod inst;
pub mod o3;
pub mod port;
pub mod simple;

pub use inst::{Instr, InstrStream, Program, ProgramStream};
pub use o3::{O3Config, OutOfOrderCore};
pub use port::{FixedLatencyPort, MemOp, MemPort};
pub use simple::InOrderCore;

use sim_engine::Cycle;

/// Which CPU model to instantiate (the gem5 names from the paper).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuModel {
    /// In-order, blocking (`TimingSimpleCPU`).
    TimingSimple,
    /// Out-of-order (`DerivO3CPU`), Table V parameters.
    #[default]
    DerivO3,
}

/// Progress report from [`Core::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStatus {
    /// The instruction stream is exhausted and all in-flight work retired.
    Done,
    /// Blocked until at least one outstanding memory access completes.
    WaitingMem,
}

/// Retired-instruction statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycle the core started at.
    pub started_at: Cycle,
    /// Cycle the last instruction retired.
    pub finished_at: Cycle,
    /// Memory operations issued.
    pub mem_ops: u64,
}

impl CoreStats {
    /// Total execution cycles.
    pub fn cycles(&self) -> u64 {
        self.finished_at.saturating_since(self.started_at).get()
    }

    /// Instructions per cycle (0 when no cycles elapsed).
    pub fn ipc(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            self.instructions as f64 / c as f64
        }
    }
}

/// The co-simulation interface every core model implements.
pub trait Core {
    /// Makes as much progress as possible; returns why it stopped.
    ///
    /// A core stops only when it cannot go on without a memory completion
    /// (or has retired everything). So once `run` has returned, running
    /// again with no [`on_mem_complete`](Core::on_mem_complete) in between
    /// issues nothing through `port`, changes no state and returns the
    /// same status. Co-simulation relies on this to run a core only after
    /// a completion reached it.
    fn run(&mut self, port: &mut dyn MemPort) -> CoreStatus;

    /// Delivers a memory completion for a token returned by the port.
    fn on_mem_complete(&mut self, token: u64, at: Cycle);

    /// The core's local clock.
    fn now(&self) -> Cycle;

    /// Whether the stream is exhausted and all work retired.
    fn done(&self) -> bool;

    /// Statistics so far.
    fn stats(&self) -> CoreStats;
}

/// Drives a single core against a self-contained port (one with its own
/// notion of completion time, like [`FixedLatencyPort`]) until done.
/// Multi-core co-simulation against the coherent hierarchy lives in the
/// system-assembly crate.
pub fn run_single<C: Core, P: MemPort + PortDrain>(core: &mut C, port: &mut P) {
    loop {
        match core.run(port) {
            CoreStatus::Done => return,
            CoreStatus::WaitingMem => {
                for (token, at) in port.drain_completions() {
                    core.on_mem_complete(token, at);
                }
            }
        }
    }
}

/// Ports that buffer completions for [`run_single`].
pub trait PortDrain {
    /// Takes all buffered `(token, completion_time)` pairs.
    fn drain_completions(&mut self) -> Vec<(u64, Cycle)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `core` until it waits on memory, then runs it again with no
    /// completion in between: the second run must issue nothing and leave
    /// the clock and the statistics as they were.
    fn assert_rerun_is_a_no_op(core: &mut dyn Core) {
        let mut port = FixedLatencyPort::new(50);
        assert_eq!(core.run(&mut port), CoreStatus::WaitingMem);
        let (issued, now, stats) = (port.issued.len(), core.now(), core.stats());
        assert!(issued > 0);
        for _ in 0..3 {
            assert_eq!(core.run(&mut port), CoreStatus::WaitingMem);
            assert_eq!(port.issued.len(), issued, "a rerun issued");
            assert_eq!((core.now(), core.stats()), (now, stats));
        }
        // A completion does wake the core.
        let (token, at) = port.drain_completions()[0];
        core.on_mem_complete(token, at);
        core.run(&mut port);
        assert!(core.stats() != stats || core.now() != now);
    }

    /// Loads past the load queue, stores past the drain width and the
    /// store queue, and compute behind them.
    fn mixed_program() -> Program {
        let mut instrs = Vec::new();
        for i in 0..40u64 {
            instrs.push(Instr::load(swiftdir_mmu::VirtAddr(i * 64)));
            instrs.push(Instr::store(swiftdir_mmu::VirtAddr(0x10_000 + i * 64)));
            instrs.push(Instr::compute(2));
        }
        Program::from_instrs(instrs)
    }

    #[test]
    fn out_of_order_rerun_without_completion_is_a_no_op() {
        let mut core = OutOfOrderCore::new(mixed_program().into_stream(), Cycle(0));
        assert_rerun_is_a_no_op(&mut core);
        let stores: Program = (0..100u64)
            .map(|i| Instr::store(swiftdir_mmu::VirtAddr(i * 64)))
            .collect();
        let mut core = OutOfOrderCore::new(stores.into_stream(), Cycle(5));
        assert_rerun_is_a_no_op(&mut core);
    }

    #[test]
    fn in_order_rerun_without_completion_is_a_no_op() {
        let mut core = InOrderCore::new(mixed_program().into_stream(), Cycle(0));
        assert_rerun_is_a_no_op(&mut core);
    }

    #[test]
    fn core_stats_ipc() {
        let s = CoreStats {
            instructions: 100,
            started_at: Cycle(0),
            finished_at: Cycle(50),
            mem_ops: 0,
        };
        assert_eq!(s.cycles(), 50);
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        let empty = CoreStats::default();
        assert_eq!(empty.ipc(), 0.0);
    }
}
