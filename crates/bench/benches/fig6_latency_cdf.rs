//! Figure 6 — CDF of coherence-request latency: `Load(L1I&L2S)` under
//! MESI vs `Load_WP(L1I&L2S)` under SwiftDir.
//!
//! Reproduction of the paper's security-latency experiment: thousands of
//! shared (write-protected) lines are brought to state S, then a remote
//! core's loads are sampled. The paper reports both series centralized
//! around 17 cycles with no observable difference; the MESI E-state path
//! (the exploitable one) is printed alongside for contrast.

use sim_engine::{Cycle, Histogram};
use swiftdir_coherence::{CoreRequest, Hierarchy, HierarchyConfig, ProtocolKind};
use swiftdir_core::{ExperimentSet, LatencyProbe, SystemConfig};
use swiftdir_mmu::PhysAddr;

const LINES: u64 = 4000;

fn line(i: u64) -> PhysAddr {
    PhysAddr(0x100_0000 + i * 64)
}

/// Samples `Load(L1I&L2S)` (or `Load_WP`) latencies: bring each line to S
/// via `sharers` other cores, then probe from core 3.
fn sample_s_loads(protocol: ProtocolKind, wp: bool, sharers: usize) -> Histogram {
    let mut h = Hierarchy::new(HierarchyConfig::table_v(4, protocol));
    let mut probe = LatencyProbe::new();
    // Prime each line to the target state, then probe it from core 3
    // while the priming cores still hold their copies (interleaved, as
    // the attack itself does — bulk priming would let L1 evictions
    // downgrade old E lines before the probe).
    for i in 0..LINES {
        for s in 0..sharers {
            let mut req = CoreRequest::load(line(i));
            if wp {
                req = req.write_protected();
            }
            h.issue(h.now() + Cycle(10), s, req);
            h.run_until_idle().expect("protocol error");
        }
        let mut req = CoreRequest::load(line(i));
        if wp {
            req = req.write_protected();
        }
        h.issue(h.now() + Cycle(10), 3, req);
        for c in h.run_until_idle().expect("protocol error") {
            if c.core == 3 {
                probe.record(&c);
            }
        }
    }
    probe.merged(|k| k.kind == swiftdir_core::AccessKind::Load && k.llc_before.is_some())
}

fn print_cdf(label: &str, h: &Histogram) {
    print!("{label:<28}");
    for (value, frac) in h.cdf() {
        print!(" ({value},{frac:.3})");
    }
    println!();
    println!(
        "{:<28} n={} mean={:.1} p50={} max={}",
        "",
        h.count(),
        h.mean().unwrap_or(0.0),
        h.median().unwrap_or(0),
        h.max().unwrap_or(0),
    );
}

fn main() {
    // Table V system is what the SystemConfig default describes; the raw
    // hierarchy is used here so the probe sees only coherence latency.
    let _ = SystemConfig::default();
    println!("Figure 6 — coherence request latency CDF ({LINES} samples/series)\n");

    // Three independent series:
    //  1. MESI Load(L1I&L2S) — two sharers make the line S;
    //  2. SwiftDir Load_WP(L1I&L2S) — one initial load suffices (I→S),
    //     every subsequent load is the same class;
    //  3. contrast (not in Fig. 6 but the channel it closes): MESI remote
    //     load of E-state data.
    let series = [
        ("MESI Load(L1I&L2S)", ProtocolKind::Mesi, false, 2usize),
        ("SwiftDir Load_WP(L1I&L2S)", ProtocolKind::SwiftDir, true, 1),
        ("MESI Load(L1I&L2E)", ProtocolKind::Mesi, false, 1),
    ];
    let hists = ExperimentSet::new(series.to_vec())
        .run(|&(_, protocol, wp, sharers)| sample_s_loads(protocol, wp, sharers));
    for ((label, ..), h) in series.iter().zip(&hists) {
        print_cdf(label, h);
    }
    let (mesi_s, swift_wp, mesi_e) = (&hists[0], &hists[1], &hists[2]);

    let gap = mesi_e.median().unwrap_or(0) as i64 - mesi_s.median().unwrap_or(0) as i64;
    println!(
        "\nE/S median gap under MESI: {gap} cycles (paper: ~26); \
         SwiftDir WP median {} == MESI S median {} → channel closed",
        swift_wp.median().unwrap_or(0),
        mesi_s.median().unwrap_or(0),
    );
}
