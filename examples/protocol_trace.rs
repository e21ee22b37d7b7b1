//! An annotated walk through the paper's protocol figures: runs each
//! scenario of Figures 1–4 on the real controllers and narrates the
//! states and message counts.
//!
//! ```sh
//! cargo run --example protocol_trace
//! ```

use sim_engine::Cycle;
use swiftdir::coherence::{CoreRequest, Hierarchy, HierarchyConfig};
use swiftdir::prelude::*;

const X: PhysAddr = PhysAddr(0x8_0000);

fn section(title: &str) {
    println!("\n=== {title} ===");
}

fn states(h: &Hierarchy, label: &str) {
    println!(
        "  {label}: L1[A]={} L1[B]={}  LLC={}",
        h.l1_state(0, X),
        h.l1_state(1, X),
        h.llc_state(X)
    );
}

fn delta(h: &Hierarchy, before: &[(CoherenceEvent, u64)]) {
    let msgs: Vec<String> = before
        .iter()
        .filter_map(|&(e, n)| {
            let now = h.stats().event(e);
            (now > n).then(|| format!("{e}×{}", now - n))
        })
        .collect();
    println!(
        "  messages: {}",
        if msgs.is_empty() {
            "(none)".into()
        } else {
            msgs.join(", ")
        }
    );
}

fn snapshot(h: &Hierarchy) -> Vec<(CoherenceEvent, u64)> {
    CoherenceEvent::ALL
        .iter()
        .map(|&e| (e, h.stats().event(e)))
        .collect()
}

fn main() {
    // --- Figure 1: the exploitable timing difference under MESI ------------
    section("Figure 1(a) — MESI: remote load of E-state data");
    let mut h = Hierarchy::new(HierarchyConfig::table_v(2, ProtocolKind::Mesi));
    h.issue(Cycle(0), 1, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    states(&h, "after core B's initial load");
    let snap = snapshot(&h);
    h.issue(Cycle(1000), 0, CoreRequest::load(X));
    let done = h.run_until_idle().expect("protocol error");
    states(&h, "after core A's remote load ");
    delta(&h, &snap);
    println!(
        "  core A's latency: {} cycles (owner-forwarded)",
        done[0].latency()
    );

    section("Figure 1(b) — MESI: remote load of S-state data");
    let mut h = Hierarchy::new(HierarchyConfig::table_v(3, ProtocolKind::Mesi));
    h.issue(Cycle(0), 1, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    h.issue(Cycle(1000), 2, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    let snap = snapshot(&h);
    h.issue(Cycle(2000), 0, CoreRequest::load(X));
    let done = h.run_until_idle().expect("protocol error");
    delta(&h, &snap);
    println!(
        "  core A's latency: {} cycles (LLC direct) — the E/S gap is the channel",
        done[0].latency()
    );

    // --- Figures 2-3: E→M -------------------------------------------------
    section("Figure 3(a) — MESI: silent E→M upgrade");
    let mut h = Hierarchy::new(HierarchyConfig::table_v(2, ProtocolKind::Mesi));
    h.issue(Cycle(0), 0, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    let snap = snapshot(&h);
    h.issue(Cycle(1000), 0, CoreRequest::store(X));
    let done = h.run_until_idle().expect("protocol error");
    states(&h, "after the store");
    delta(&h, &snap);
    println!(
        "  store latency: {} cycle (LLC still believes E)",
        done[0].latency()
    );

    section("Figure 2 / 3(b) — S-MESI: explicit E→M with LLC ACK");
    let mut h = Hierarchy::new(HierarchyConfig::table_v(2, ProtocolKind::SMesi));
    h.issue(Cycle(0), 0, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    let snap = snapshot(&h);
    h.issue(Cycle(1000), 0, CoreRequest::store(X));
    let done = h.run_until_idle().expect("protocol error");
    states(&h, "after the store");
    delta(&h, &snap);
    println!(
        "  store latency: {} cycles (the overprotection tax)",
        done[0].latency()
    );

    // --- Figure 4: SwiftDir -------------------------------------------------
    section("Figure 4(a) — SwiftDir: initial load of write-protected data");
    let mut h = Hierarchy::new(HierarchyConfig::table_v(2, ProtocolKind::SwiftDir));
    let snap = snapshot(&h);
    h.issue(Cycle(0), 1, CoreRequest::load(X).write_protected());
    h.run_until_idle().expect("protocol error");
    states(&h, "after core B's initial load");
    delta(&h, &snap);
    println!("  I→S directly: no exclusivity, nothing for an attacker to observe");

    section("Figure 4(b) — SwiftDir: remote load of that data");
    let snap = snapshot(&h);
    h.issue(Cycle(1000), 0, CoreRequest::load(X).write_protected());
    let done = h.run_until_idle().expect("protocol error");
    states(&h, "after core A's remote load ");
    delta(&h, &snap);
    println!(
        "  latency: {} cycles — identical to the S case; channel closed",
        done[0].latency()
    );

    section("Figure 4(c)+(d) — SwiftDir: unshared data keep MESI speed");
    let y = PhysAddr(0x9_0000);
    let snap = snapshot(&h);
    h.issue(Cycle(2000), 0, CoreRequest::load(y));
    h.run_until_idle().expect("protocol error");
    h.issue(Cycle(3000), 0, CoreRequest::store(y));
    let done = h.run_until_idle().expect("protocol error");
    delta(&h, &snap);
    println!(
        "  heap line: load→E, store silent E→M in {} cycle — no overprotection",
        done[0].latency()
    );
}
