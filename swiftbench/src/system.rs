//! The `fig7_spec` and `fig8_parsec` workloads: `System` co-simulation
//! runs of the paper's Figure 7 and Figure 8 points.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use swiftdir_coherence::{CoherenceEvent, ProtocolKind};
use swiftdir_core::{RunStats, System, SystemConfig, TraceConfig};
use swiftdir_cpu::{CpuModel, Instr, InstrStream};
use swiftdir_mmu::Access;
use swiftdir_workloads::{ParsecBenchmark, SpecBenchmark, SynthStream, WorkloadRegions};

use crate::counts::Counts;
use crate::replay::{self, Sampled, Sampler, SystemReplays, ThreadInputs, UnitInputs};
use crate::spans::{Acc, SpanLog};
use crate::stats::Fnv;
use crate::unit::{ratio, run_pass, timed, Metric, Pass, UnitResult};

/// Instructions per Figure 7 run, half the Fig. 7 bench's 60 k so a pass
/// over all 69 points takes about 1.4 s on 2 CPUs and a run repeats each
/// point often enough for its best time to be steady.
pub const FIG7_INSTRUCTIONS: u64 = 30_000;

/// Instructions per thread of a Figure 8 run, scaled down from the
/// figure's 25 k so a pass over all 39 points stays near 2 s on 2 CPUs.
pub const FIG8_INSTRUCTIONS: u64 = 8_000;

/// The three protocols Figures 7 and 8 compare, in figure order.
const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Mesi,
    ProtocolKind::SwiftDir,
    ProtocolKind::SMesi,
];

/// Fig. 7 / Fig. 8 averages the paper reports, as `(SwiftDir, S-MESI)`
/// percent change over MESI: IPC for Fig. 7, ROI time for Fig. 8.
const PAPER_FIG7_IPC_PCT: (f64, f64) = (0.03, -0.005);
const PAPER_FIG8_ROI_PCT: (f64, f64) = (-2.01, 0.41);

/// One point of Figure 7 or Figure 8.
#[derive(Debug, Clone, Copy)]
pub enum Point {
    /// A single-core SPEC profile; `stream_seed` seeds its generator.
    Spec {
        bench: SpecBenchmark,
        protocol: ProtocolKind,
        stream_seed: u64,
    },
    /// A 4-thread PARSEC profile; thread `t` runs on core `cores[t]`.
    Parsec {
        bench: ParsecBenchmark,
        protocol: ProtocolKind,
        cores: [usize; 4],
    },
}

/// The 69 Figure 7 points (or a 9-point slice), benchmark-major.
///
/// Seed 0 gives each profile its own stable seed, exactly as the Fig. 7
/// bench does; other seeds re-seed every profile's generator.
pub fn fig7_points(seed: u64, slice: bool) -> Vec<Point> {
    let benches = if slice {
        &SpecBenchmark::ALL[..3]
    } else {
        &SpecBenchmark::ALL[..]
    };
    benches
        .iter()
        .flat_map(|&bench| {
            PROTOCOLS.map(|protocol| Point::Spec {
                bench,
                protocol,
                stream_seed: bench.seed() ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            })
        })
        .collect()
}

/// The 39 Figure 8 points (or a 3-point slice), benchmark-major.
///
/// The PARSEC generators take no outside seed, so the seed permutes
/// which core each of the four threads runs on; seed 0 is the identity
/// placement the Fig. 8 bench uses.
pub fn fig8_points(seed: u64, slice: bool) -> Vec<Point> {
    let benches = if slice {
        &ParsecBenchmark::ALL[..1]
    } else {
        &ParsecBenchmark::ALL[..]
    };
    benches
        .iter()
        .enumerate()
        .flat_map(|(i, &bench)| {
            let cores = permutation(if seed == 0 { 0 } else { seed + i as u64 });
            PROTOCOLS.map(|protocol| Point::Parsec {
                bench,
                protocol,
                cores,
            })
        })
        .collect()
}

/// The `k`-th permutation of `[0, 1, 2, 3]` (Lehmer code, `k mod 24`).
fn permutation(k: u64) -> [usize; 4] {
    let mut pool = vec![0usize, 1, 2, 3];
    let mut k = (k % 24) as usize;
    let mut out = [0; 4];
    for (slot, radix) in out.iter_mut().zip([6, 2, 1, 1]) {
        *slot = pool.remove(k / radix);
        k %= radix;
    }
    out
}

/// How a point's instruction streams are handed to the cores: as they
/// are ([`Plain`]) or inside a timing and recording wrapper ([`Timed`]).
pub trait Wrap {
    type Out<S: InstrStream + 'static>: InstrStream + 'static;
    fn wrap<S: InstrStream + 'static>(&mut self, stream: S) -> Self::Out<S>;
}

pub struct Plain;

impl Wrap for Plain {
    type Out<S: InstrStream + 'static> = S;
    fn wrap<S: InstrStream + 'static>(&mut self, stream: S) -> S {
        stream
    }
}

impl Point {
    fn protocol(&self) -> ProtocolKind {
        match *self {
            Point::Spec { protocol, .. } | Point::Parsec { protocol, .. } => protocol,
        }
    }

    fn expected_instructions(&self) -> u64 {
        match self {
            Point::Spec { .. } => FIG7_INSTRUCTIONS,
            Point::Parsec { .. } => 4 * FIG8_INSTRUCTIONS,
        }
    }

    /// Builds the machine, maps the workload's regions and starts its
    /// threads. Worker count, bank count and tracing are pinned here, not
    /// read from the environment.
    fn build(&self, w: &mut impl Wrap) -> System {
        let cores = match self {
            Point::Spec { .. } => 1,
            Point::Parsec { .. } => 4,
        };
        let cfg = SystemConfig::builder()
            .cores(cores)
            .protocol(self.protocol())
            .cpu_model(CpuModel::DerivO3)
            .banks(1)
            .build();
        let mut sys = System::with_trace(cfg, TraceConfig::default());
        let pid = sys.spawn_process();
        match *self {
            Point::Spec {
                bench, stream_seed, ..
            } => {
                let params = bench.params(FIG7_INSTRUCTIONS);
                let regions = WorkloadRegions::map(&mut sys, pid, &params);
                let stream = SynthStream::new(params, regions, stream_seed);
                sys.run_thread_stream(pid, 0, w.wrap(stream));
            }
            Point::Parsec { bench, cores, .. } => {
                for t in bench.build_threads(&mut sys, pid, FIG8_INSTRUCTIONS) {
                    sys.run_thread_stream(pid, cores[t.core], w.wrap(t.stream));
                }
            }
        }
        sys
    }

    /// The unit's output check: every instruction retired.
    fn check(&self, stats: &RunStats) -> Option<String> {
        let want = self.expected_instructions();
        (stats.instructions() != want)
            .then(|| format!("retired {} of {want} instructions", stats.instructions()))
    }
}

/// Digest of everything one run simulated: per-thread retirement, the
/// coherence counters and transition matrices, and DRAM statistics.
pub fn stats_digest(s: &RunStats) -> u64 {
    let mut f = Fnv::new();
    for t in &s.threads {
        for v in [
            t.core as u64,
            t.cpu.instructions,
            t.cpu.started_at.get(),
            t.cpu.finished_at.get(),
            t.cpu.mem_ops,
        ] {
            f.mix(v);
        }
    }
    let h = &s.hierarchy;
    for e in CoherenceEvent::ALL {
        f.mix(h.event(e));
    }
    for v in [
        h.l1_hits,
        h.l1_misses,
        h.mshr_merges,
        h.recalls,
        h.silent_upgrades,
        h.dispatched,
        h.protocol.install_retries(),
        h.protocol.install_stalls(),
    ] {
        f.mix(v);
    }
    for (from, to, n) in h.protocol.l1_nonzero() {
        f.mix(from as u64);
        f.mix(to as u64);
        f.mix(n);
    }
    for (from, to, n) in h.protocol.llc_nonzero() {
        f.mix(from as u64);
        f.mix(to as u64);
        f.mix(n);
    }
    let m = &s.memory;
    for v in [m.reads, m.writes, m.row_hits, m.row_closed, m.row_conflicts] {
        f.mix(v);
    }
    f.0
}

/// One untraced point, as a user of the library runs it.
fn run_point(p: &Point) -> UnitResult {
    let (mut sys, setup_s) = timed(|| p.build(&mut Plain));
    let (stats, run_s) = timed(|| sys.run_to_completion());
    UnitResult {
        digest: stats_digest(&stats),
        failure: p.check(&stats),
        setup_s,
        run_s,
    }
}

/// Builds every point's machine and streams once (dropping each outside
/// the timer); returns the host seconds the builds took.
pub fn setup(points: &[Point]) -> f64 {
    points.iter().map(|p| timed(|| p.build(&mut Plain)).1).sum()
}

pub fn pass(points: &[Point], workers: usize) -> Pass {
    run_pass(points, workers, run_point)
}

/// Per-thread state of the [`Timed`] wrapper.
#[derive(Default)]
struct StreamState {
    acc: Acc,
    instrs: Option<Vec<Instr>>,
}

/// Times every `next_instr` call and, when recording, keeps the stream.
pub struct TimedStream<S> {
    inner: S,
    epoch: Instant,
    state: Rc<RefCell<StreamState>>,
}

impl<S: InstrStream> InstrStream for TimedStream<S> {
    fn next_instr(&mut self) -> Option<Instr> {
        let start = Instant::now();
        let instr = self.inner.next_instr();
        let end = Instant::now();
        let mut st = self.state.borrow_mut();
        st.acc.add(
            start.duration_since(self.epoch).as_nanos() as u64,
            end.duration_since(self.epoch).as_nanos() as u64,
        );
        if let (Some(v), Some(i)) = (st.instrs.as_mut(), instr) {
            v.push(i);
        }
        instr
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.inner.remaining_hint()
    }
}

/// Hands each thread's stream out inside a [`TimedStream`].
pub struct Timed {
    epoch: Instant,
    record: bool,
    threads: Vec<Rc<RefCell<StreamState>>>,
}

impl Wrap for Timed {
    type Out<S: InstrStream + 'static> = TimedStream<S>;
    fn wrap<S: InstrStream + 'static>(&mut self, stream: S) -> TimedStream<S> {
        let state = Rc::new(RefCell::new(StreamState {
            acc: Acc::default(),
            instrs: self.record.then(Vec::new),
        }));
        self.threads.push(Rc::clone(&state));
        TimedStream {
            inner: stream,
            epoch: self.epoch,
            state,
        }
    }
}

/// Host time and operation counts of a set of traced units.
#[derive(Default)]
struct Totals {
    setup_ns: u64,
    run_self_ns: u64,
    instructions: u64,
    mem_ops: u64,
    tlb_hits: u64,
    tlb_misses: u64,
    dram_accesses: u64,
    dram_row_hits: u64,
    coherence: Counts,
}

impl Totals {
    fn add(&mut self, setup_ns: u64, self_ns: u64, sys: &System, stats: &RunStats) {
        self.setup_ns += setup_ns;
        self.run_self_ns += self_ns;
        self.instructions += stats.instructions();
        self.mem_ops += stats.threads.iter().map(|t| t.cpu.mem_ops).sum::<u64>();
        for core in 0..sys.config().cores {
            let s = sys.tlb_stats(core);
            self.tlb_hits += s.hits;
            self.tlb_misses += s.misses;
        }
        self.dram_accesses += stats.memory.reads + stats.memory.writes;
        self.dram_row_hits += stats.memory.row_hits;
        self.coherence.add(&stats.hierarchy);
    }
}

/// The traced pass: every point on this thread, with spans around the
/// set-up, `run_to_completion` and each `next_instr` call. MESI points
/// record their instruction streams for the replay microbenches.
///
/// `untraced` is a pass over the same points at the pinned worker count
/// (for `ExperimentSet`'s busy fraction); `queue_ns` is the event queue's
/// replayed cost per event, for attribution.
pub fn traced(
    workload: &'static str,
    points: &[Point],
    log: &mut SpanLog,
    untraced: &Pass,
    queue_ns: f64,
) -> (Vec<UnitResult>, Vec<Metric>) {
    let mut units = Vec::with_capacity(points.len());
    let mut all = Totals::default();
    // The same totals over the recorded (MESI) points only.
    let mut rec = Totals::default();
    let mut recorded = Vec::new();
    let mut translate = Sampler::new();
    let mut model = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        let unit = log.open("unit", workload, i);
        let mut w = Timed {
            epoch: log.epoch(),
            record: p.protocol() == ProtocolKind::Mesi,
            threads: Vec::new(),
        };
        let setup = log.open("core.system.setup", workload, i);
        let built = crate::unit::guarded(|| p.build(&mut w));
        log.close(setup);
        let outcome = built.and_then(|mut sys| {
            let run = log.open("core.system.run_to_completion", workload, i);
            let stats = crate::unit::guarded(|| sys.run_to_completion());
            for th in &w.threads {
                log.aggregate("workloads.next_instr", workload, i, th.borrow().acc);
            }
            log.close(run);
            stats.map(|s| (sys, s, run))
        });
        log.close(unit);
        let (mut sys, stats, run) = match outcome {
            Ok(v) => v,
            Err(e) => {
                units.push(UnitResult::failed(e));
                continue;
            }
        };
        let setup_ns = log.span(setup).dur_ns;
        let self_ns = log.self_ns(run);
        units.push(UnitResult {
            digest: stats_digest(&stats),
            failure: p.check(&stats),
            setup_s: setup_ns as f64 / 1e9,
            run_s: log.span(run).dur_ns as f64 / 1e9,
        });
        model.push((stats.ipc(), stats.roi_cycles()));
        all.add(setup_ns, self_ns, &sys, &stats);
        if w.record {
            rec.add(setup_ns, self_ns, &sys, &stats);
            let threads: Vec<Vec<Instr>> = w
                .threads
                .iter()
                .map(|th| th.borrow_mut().instrs.take().unwrap_or_default())
                .collect();
            recorded.push(resolve(&mut sys, threads, &mut translate));
        }
    }
    let replays = Replays {
        system: replay::replay_system(&recorded),
        translate: translate.finish(),
        queue_ns,
    };
    let metrics = system_metrics(
        workload, points, log, untraced, &all, &rec, &model, &replays,
    );
    (units, metrics)
}

/// Translates a recorded unit's memory accesses through its own
/// (post-run) address space, and times `MemoryManager::translate` over
/// the accesses that miss in a Table V TLB.
fn resolve(sys: &mut System, threads: Vec<Vec<Instr>>, translate: &mut Sampler) -> UnitInputs {
    let hier = *sys.hierarchy().config();
    let mm = sys.memory_manager();
    let space = mm.space_ids().next().expect("the point spawned a process");
    let mut out = Vec::with_capacity(threads.len());
    let mut misses = Vec::new();
    for instrs in threads {
        let mut accesses = Vec::new();
        let mut vas = Vec::new();
        for i in &instrs {
            let (va, store) = match *i {
                Instr::Load(va) => (va, false),
                Instr::Store(va) => (va, true),
                Instr::Compute(_) => continue,
            };
            let access = if store { Access::Write } else { Access::Read };
            let paddr = mm
                .translate(space, va, access)
                .expect("the run already touched every recorded address")
                .paddr;
            accesses.push(replay::Access {
                vpn: va.vpn().0,
                block: paddr.0 & !63,
                store,
            });
            vas.push((va, access));
        }
        misses.extend(replay::tlb_misses(&accesses).into_iter().map(|i| vas[i]));
        out.push(ThreadInputs { instrs, accesses });
    }
    translate.run(
        || (),
        |()| {
            let mut acc = 0u64;
            for &(va, access) in &misses {
                acc ^= mm.translate(space, va, access).map_or(0, |t| t.paddr.0);
            }
            std::hint::black_box(acc);
            misses.len() as u64
        },
    );
    UnitInputs {
        threads: out,
        l1: hier.l1_geometry,
        llc: hier.bank_geometry(),
        dram: hier.dram,
    }
}

/// The replay results a traced pass reports.
struct Replays {
    system: SystemReplays,
    translate: Sampled,
    /// The event queue's replayed ns per event (from the fuzz profile).
    queue_ns: f64,
}

impl Replays {
    /// Host ns the replayed layers account for in runs with `t`'s op
    /// counts: each layer's ns/op times the runs' operations on it.
    fn attributed_ns(&self, t: &Totals) -> f64 {
        let r = &self.system;
        let c = &t.coherence;
        r.cpu.median() * t.instructions as f64
            + r.tlb.median() * t.mem_ops as f64
            + self.translate.median() * t.tlb_misses as f64
            + r.l1.median() * c.l1_lookups() as f64
            + r.llc.median() * c.l1_misses as f64
            + r.dram.median() * t.dram_accesses as f64
            + self.queue_ns * c.dispatched as f64
    }
}

/// Metrics of a traced pass: `all` totals every point, `rec` only the
/// recorded points the replays ran over.
#[allow(clippy::too_many_arguments)]
fn system_metrics(
    workload: &'static str,
    points: &[Point],
    log: &SpanLog,
    untraced: &Pass,
    all: &Totals,
    rec: &Totals,
    model: &[(f64, u64)],
    replays: &Replays,
) -> Vec<Metric> {
    let t = all;
    let r = &replays.system;
    let n = points.len().max(1) as f64;
    let per_unit = |v: u64| v as f64 / n;
    let (next_ns, next_calls) = log.total(workload, "workloads.next_instr");
    let run_self_s = t.run_self_ns as f64 / 1e9;
    let replay_metric = |name: &str, s: &Sampled| {
        Metric::new(name, s.median(), "ns").note(format!("replay: {}", s.describe()))
    };

    let mut m = vec![
        Metric::new(
            "workloads.next_instr_ns",
            ratio(next_ns as f64, next_calls as f64),
            "ns",
        )
        .note(format!("{next_calls} calls")),
        Metric::new("core.system.setup_ms", per_unit(t.setup_ns) / 1e6, "ms")
            .note("per unit: System::with_trace + spawn_process + region mapping + streams"),
        Metric::new(
            "core.system.run_self_ms",
            per_unit(t.run_self_ns) / 1e6,
            "ms",
        )
        .note("per unit: run_to_completion minus next_instr"),
        Metric::new(
            "core.sim_events_per_s",
            ratio(t.coherence.dispatched as f64, run_self_s),
            "events/s",
        )
        .note("dispatched events / run_to_completion self time"),
        Metric::new(
            "core.sim_instr_per_s",
            ratio(t.instructions as f64, run_self_s),
            "instr/s",
        ),
        Metric::new("core.driver.busy_frac", untraced.busy_frac, "ratio")
            .note("untraced pass: points_wall_s / (total_wall_s x workers)"),
        replay_metric("cpu.o3.ns_per_instr", &r.cpu),
        Metric::new("cpu.instructions", r.cpu_instructions as f64, "count")
            .note("replayed instructions over the recorded units"),
        Metric::new("cpu.mem_ops", r.cpu_mem_ops as f64, "count"),
        replay_metric("mmu.tlb.ns_per_op", &r.tlb),
        Metric::new(
            "mmu.tlb.hit_ratio",
            ratio(t.tlb_hits as f64, (t.tlb_hits + t.tlb_misses) as f64),
            "ratio",
        )
        .note("System::tlb_stats"),
        replay_metric("mmu.translate.ns_per_op", &replays.translate),
        replay_metric("cache.l1.ns_per_op", &r.l1),
        replay_metric("cache.llc.ns_per_op", &r.llc),
        Metric::new(
            "cache.l1.hit_ratio",
            ratio(t.coherence.l1_hits as f64, t.coherence.l1_lookups() as f64),
            "ratio",
        ),
        replay_metric("mem.dram.ns_per_op", &r.dram),
        Metric::new("mem.dram.accesses", per_unit(t.dram_accesses), "count")
            .note("per unit, MemStats"),
        Metric::new(
            "mem.dram.row_hit_ratio",
            ratio(t.dram_row_hits as f64, t.dram_accesses as f64),
            "ratio",
        ),
        Metric::new(
            "core.system.attributed_frac",
            ratio(replays.attributed_ns(rec), rec.run_self_ns as f64),
            "ratio",
        )
        .note("sum(replay ns/op x the run's op count) / run_to_completion self time, MESI points"),
    ];
    m.extend(model_metrics(points, model));
    // Cross-core coherence traffic exists only with several cores.
    if matches!(points.first(), Some(Point::Parsec { .. })) {
        m.extend(t.coherence.metrics());
    }
    m
}

/// Simulated results: mean IPC per protocol and the mean per-benchmark
/// performance change of SwiftDir and S-MESI over MESI, positive when
/// faster: the IPC change for Fig. 7, the ROI-time speed-up
/// `roi_mesi / roi - 1` for Fig. 8. The paper's averages are printed
/// beside them.
fn model_metrics(points: &[Point], model: &[(f64, u64)]) -> Vec<Metric> {
    let fig8 = matches!(points.first(), Some(Point::Parsec { .. }));
    let triples: Vec<&[(f64, u64)]> = if model.len() == points.len() {
        model.chunks_exact(3).collect()
    } else {
        Vec::new() // a failed point leaves no comparable triple
    };
    let b = triples.len().max(1) as f64;
    let mean_ipc = |k: usize| triples.iter().map(|t| t[k].0).sum::<f64>() / b;
    let change = |k: usize| {
        triples
            .iter()
            .map(|t| {
                if fig8 {
                    (t[0].1 as f64 / t[k].1 as f64 - 1.0) * 100.0
                } else {
                    (t[k].0 / t[0].0 - 1.0) * 100.0
                }
            })
            .sum::<f64>()
            / b
    };
    let shape = "simulated; compared with the paper by shape only, no error figure";
    let paper = |k: usize| {
        if fig8 {
            let roi = [PAPER_FIG8_ROI_PCT.0, PAPER_FIG8_ROI_PCT.1][k];
            format!(
                "ROI-time speed-up over MESI; paper Fig. 8: ROI time {roi:+} %, \
                 speed-up {:+.2} % ({shape})",
                (1.0 / (1.0 + roi / 100.0) - 1.0) * 100.0
            )
        } else {
            let ipc = [PAPER_FIG7_IPC_PCT.0, PAPER_FIG7_IPC_PCT.1][k];
            format!("IPC change over MESI; paper Fig. 7: {ipc:+} % ({shape})")
        }
    };
    vec![
        Metric::new("model.ipc.mesi", mean_ipc(0), "IPC").note(shape),
        Metric::new("model.ipc.swiftdir", mean_ipc(1), "IPC").note(shape),
        Metric::new("model.ipc.smesi", mean_ipc(2), "IPC").note(shape),
        Metric::new("model.swiftdir_vs_mesi_pct", change(1), "%").note(paper(0)),
        Metric::new("model.smesi_vs_mesi_pct", change(2), "%").note(paper(1)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_distinct_and_zero_is_identity() {
        assert_eq!(permutation(0), [0, 1, 2, 3]);
        let all: std::collections::HashSet<[usize; 4]> = (0..24).map(permutation).collect();
        assert_eq!(all.len(), 24);
    }

    #[test]
    fn seed_zero_reproduces_the_figure_inputs() {
        let pts = fig7_points(0, false);
        assert_eq!(pts.len(), 69);
        match pts[0] {
            Point::Spec {
                bench, stream_seed, ..
            } => assert_eq!(stream_seed, bench.seed()),
            Point::Parsec { .. } => unreachable!(),
        }
        assert!(fig8_points(0, false).iter().all(|p| matches!(
            p,
            Point::Parsec {
                cores: [0, 1, 2, 3],
                ..
            }
        )));
        assert_eq!(fig8_points(5, false).len(), 39);
    }
}
