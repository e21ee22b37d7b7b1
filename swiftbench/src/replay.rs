//! Replay microbenches: single layers driven with inputs recorded during
//! the traced run.
//!
//! Each replay runs `SAMPLES` times. A sample rebuilds the layer's state
//! outside the timer (a fresh TLB, cache array, DRAM controller, core or
//! queue per recorded unit), then times only the loop over the recorded
//! inputs. The result is ns per operation for every sample, reported as
//! median and quartiles with the sample count.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sim_engine::{Cycle, EventQueue};
use swiftdir_cache::{CacheArray, CacheGeometry, ReplacementPolicy};
use swiftdir_cpu::{run_single, Core, CoreStats, FixedLatencyPort, Instr, OutOfOrderCore, Program};
use swiftdir_mem::{DramConfig, MemoryController};
use swiftdir_mmu::{Pfn, PhysAddr, Tlb, TlbEntry, Vpn};

use crate::stats;

/// Samples per replay microbench.
pub const SAMPLES: usize = 7;

/// Completion latency the CPU replay's fixed-latency port charges: an
/// LLC hit under the calibrated Table V latencies.
const CPU_PORT_LATENCY: u64 = 17;

/// Data-TLB entries (Table V).
const TLB_ENTRIES: usize = 64;

/// ns per operation of each sample of one replay.
#[derive(Debug, Clone, Default)]
pub struct Sampled {
    pub ns_per_op: Vec<f64>,
    /// Operations per sample.
    pub ops: u64,
}

impl Sampled {
    pub fn median(&self) -> f64 {
        stats::median(&self.ns_per_op)
    }

    /// `"median M ns/op, quartiles [Q1, Q3], n = K samples of OPS ops"`.
    pub fn describe(&self) -> String {
        let (q1, m, q3) = stats::quartiles(&self.ns_per_op);
        format!(
            "median {m:.2} ns/op, quartiles [{q1:.2}, {q3:.2}], n = {} samples of {} ops",
            self.ns_per_op.len(),
            self.ops
        )
    }
}

/// Accumulates one replay's samples across recorded units: sample `s` of
/// every unit adds to the same total, so a sample covers all units.
#[derive(Debug, Clone)]
pub struct Sampler {
    elapsed: Vec<Duration>,
    ops: u64,
}

impl Sampler {
    pub fn new() -> Self {
        Sampler {
            elapsed: vec![Duration::ZERO; SAMPLES],
            ops: 0,
        }
    }

    /// Runs `SAMPLES` samples over one unit's input: `setup` builds the
    /// state untimed, `body` is timed and returns the operations it did.
    pub fn run<S>(&mut self, mut setup: impl FnMut() -> S, mut body: impl FnMut(S) -> u64) {
        let mut ops = 0;
        for slot in &mut self.elapsed {
            let state = setup();
            let start = Instant::now();
            ops = black_box(body(state));
            *slot += start.elapsed();
        }
        self.ops += ops;
    }

    pub fn finish(&self) -> Sampled {
        let ops = self.ops.max(1) as f64;
        Sampled {
            ns_per_op: self
                .elapsed
                .iter()
                .map(|d| d.as_nanos() as f64 / ops)
                .collect(),
            ops: self.ops,
        }
    }
}

/// One recorded memory access of a core: virtual page, physical block
/// and whether it was a store.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    pub vpn: u64,
    pub block: u64,
    pub store: bool,
}

/// The recorded inputs of one thread of a traced `System` unit.
#[derive(Debug, Clone, Default)]
pub struct ThreadInputs {
    pub instrs: Vec<Instr>,
    pub accesses: Vec<Access>,
}

/// The recorded inputs of one traced `System` unit.
#[derive(Debug, Clone)]
pub struct UnitInputs {
    pub threads: Vec<ThreadInputs>,
    pub l1: CacheGeometry,
    pub llc: CacheGeometry,
    pub dram: DramConfig,
}

/// Which accesses of `accesses` miss in a TLB of Table V's size, in order.
pub fn tlb_misses(accesses: &[Access]) -> Vec<usize> {
    let mut tlb = Tlb::new(TLB_ENTRIES);
    let mut misses = Vec::new();
    for (i, a) in accesses.iter().enumerate() {
        if !tlb_step(&mut tlb, a.vpn) {
            misses.push(i);
        }
    }
    misses
}

/// One lookup, filling on a miss; returns whether it hit.
fn tlb_step(tlb: &mut Tlb, vpn: u64) -> bool {
    let vpn = Vpn(vpn);
    if tlb.lookup(vpn).is_some() {
        return true;
    }
    tlb.fill(TlbEntry {
        vpn,
        pfn: Pfn(vpn.0),
        writable: true,
        write_protected: false,
    });
    false
}

/// One get, inserting on a miss; returns whether it hit.
fn cache_step(array: &mut CacheArray<u8>, block: u64) -> bool {
    if array.get(block).is_some() {
        return true;
    }
    array.insert(block, 0);
    false
}

/// The accesses of `stream` that miss in a cache of geometry `geom`.
pub fn cache_misses(geom: CacheGeometry, stream: &[(u64, bool)]) -> Vec<(u64, bool)> {
    let mut array = CacheArray::new(geom, ReplacementPolicy::Lru);
    stream
        .iter()
        .copied()
        .filter(|&(block, _)| !cache_step(&mut array, block))
        .collect()
}

/// The per-layer replays of the recorded `System` units.
#[derive(Debug, Clone, Default)]
pub struct SystemReplays {
    pub cpu: Sampled,
    pub cpu_instructions: u64,
    pub cpu_mem_ops: u64,
    pub tlb: Sampled,
    pub l1: Sampled,
    pub llc: Sampled,
    pub dram: Sampled,
}

/// Replays the CPU model, TLB, L1, LLC bank and DRAM over `units`.
///
/// The L1 sees each thread's physical block stream on its own array;
/// the LLC sees the L1-miss substreams of all threads, in thread order;
/// DRAM sees the LLC-miss substream.
pub fn replay_system(units: &[UnitInputs]) -> SystemReplays {
    let mut cpu = Sampler::new();
    let mut tlb = Sampler::new();
    let mut l1 = Sampler::new();
    let mut llc = Sampler::new();
    let mut dram = Sampler::new();
    let (mut cpu_instructions, mut cpu_mem_ops) = (0, 0);
    for u in units {
        let mut l1_missed = Vec::new();
        for t in &u.threads {
            let mut retired = CoreStats::default();
            cpu.run(
                || {
                    let stream = Program::from_instrs(t.instrs.clone()).into_stream();
                    (
                        OutOfOrderCore::new(stream, Cycle(0)),
                        FixedLatencyPort::new(CPU_PORT_LATENCY),
                    )
                },
                |(mut core, mut port)| {
                    run_single(&mut core, &mut port);
                    retired = core.stats();
                    retired.instructions
                },
            );
            cpu_instructions += retired.instructions;
            cpu_mem_ops += retired.mem_ops;

            tlb.run(
                || Tlb::new(TLB_ENTRIES),
                |mut tlb| {
                    for a in &t.accesses {
                        tlb_step(&mut tlb, a.vpn);
                    }
                    black_box(&tlb);
                    t.accesses.len() as u64
                },
            );

            let blocks: Vec<(u64, bool)> = t.accesses.iter().map(|a| (a.block, a.store)).collect();
            l1.run(
                || CacheArray::new(u.l1, ReplacementPolicy::Lru),
                |mut array| {
                    for &(block, _) in &blocks {
                        cache_step(&mut array, block);
                    }
                    black_box(&array);
                    blocks.len() as u64
                },
            );
            l1_missed.extend(cache_misses(u.l1, &blocks));
        }

        llc.run(
            || CacheArray::new(u.llc, ReplacementPolicy::Lru),
            |mut array| {
                for &(block, _) in &l1_missed {
                    cache_step(&mut array, block);
                }
                black_box(&array);
                l1_missed.len() as u64
            },
        );
        let llc_missed = cache_misses(u.llc, &l1_missed);
        dram.run(
            || MemoryController::new(u.dram),
            |mut mc| {
                let mut t = Cycle(0);
                for &(block, store) in &llc_missed {
                    t = mc.access(t, PhysAddr(block), store);
                }
                black_box(t);
                llc_missed.len() as u64
            },
        );
    }
    SystemReplays {
        cpu: cpu.finish(),
        cpu_instructions,
        cpu_mem_ops,
        tlb: tlb.finish(),
        l1: l1.finish(),
        llc: llc.finish(),
        dram: dram.finish(),
    }
}

/// Replays the event queue: every recorded unit's dispatch times are
/// scheduled, then popped. One operation is one schedule plus one pop.
pub fn replay_queue(units: &[Vec<u64>]) -> Sampled {
    let mut queue = Sampler::new();
    for times in units {
        queue.run(EventQueue::<u32>::new, |mut q| {
            for (i, &t) in times.iter().enumerate() {
                q.schedule(Cycle(t), i as u32);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc += u64::from(v);
            }
            black_box(acc);
            times.len() as u64
        });
    }
    queue.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_substreams_shrink_level_by_level() {
        let stream: Vec<(u64, bool)> = (0..4096u64)
            .map(|i| ((i % 1024) * 64, i % 3 == 0))
            .collect();
        let l1 = cache_misses(CacheGeometry::table_v_l1(), &stream);
        // 64 KiB of distinct blocks cycle through a 32 KiB L1: every
        // access misses, and the 2 MiB LLC then holds all of them.
        assert_eq!(l1.len(), stream.len());
        let llc = cache_misses(CacheGeometry::new(2 << 20, 16, 64), &l1);
        assert_eq!(llc.len(), 1024);
    }

    #[test]
    fn sampler_reports_every_sample() {
        let mut s = Sampler::new();
        s.run(|| 0u64, |_| 10);
        s.run(|| 0u64, |_| 5);
        let out = s.finish();
        assert_eq!(out.ops, 15);
        assert_eq!(out.ns_per_op.len(), SAMPLES);
    }

    #[test]
    fn tlb_misses_are_first_touches_within_capacity() {
        let accesses: Vec<Access> = [1u64, 2, 1, 3, 2]
            .into_iter()
            .map(|vpn| Access {
                vpn,
                block: vpn * 4096,
                store: false,
            })
            .collect();
        assert_eq!(tlb_misses(&accesses), vec![0, 1, 3]);
    }
}
