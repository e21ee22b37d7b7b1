//! Heap-allocation budgets of the audit and digest hot paths.
//!
//! The fuzzer runs the [`Checker`] after every simulated event and the
//! schedule explorer digests the hierarchy at every node, so both must
//! run out of reused buffers once warm. A counting global allocator
//! (per thread, so concurrently running tests do not interfere) pins
//! that: after a warm-up pass, a second identical pass makes zero heap
//! allocations inside `Checker::after_event` and
//! `Hierarchy::state_digest_cached`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sim_engine::Cycle;
use swiftdir::coherence::{Checker, Hierarchy, ProtocolKind};
use swiftdir::core::diff::{contended_stream, tiny_config};
use swiftdir::core::fuzz::FuzzConfig;
use swiftdir::core::issue_stream;

struct Counting;

thread_local! {
    /// Heap allocation calls made on this thread (a `realloc` counts).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator may run while a thread's locals are torn
    // down; those allocations are not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocation calls `f` makes on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `cfg`'s scenario to quiescence exactly as the fuzzer does (jitter
/// on, the checker after every event) and returns the allocations made
/// inside `Checker::after_event`.
fn audit_allocations(cfg: &FuzzConfig, checker: &mut Checker) -> u64 {
    let file = cfg.stream_file();
    let mut h = Hierarchy::new(cfg.hierarchy_config());
    if file.jitter_max > 0 {
        h.set_jitter(file.jitter_seed, file.jitter_max);
    }
    issue_stream(&mut h, &file.ops);
    checker.reset();
    let mut total = 0;
    let mut events = 0u64;
    loop {
        let mark = h.completions_len();
        if h.try_step().expect("protocol error").is_none() {
            break;
        }
        events += 1;
        let (audit, made) = allocs_in(|| checker.after_event(&h, h.completions_since(mark)));
        audit.expect("invariants hold");
        total += made;
    }
    assert!(events > 100, "the scenario ran only {events} events");
    assert_eq!(
        h.completions_len(),
        file.ops.len(),
        "every access completed"
    );
    total
}

#[test]
fn warm_checker_audits_a_fuzz_scenario_without_allocating() {
    for protocol in ProtocolKind::ALL {
        for cfg in [
            FuzzConfig::new(3, protocol),
            FuzzConfig {
                cores: 8,
                banks: 4,
                ..FuzzConfig::new(5, protocol)
            },
        ] {
            let mut checker = Checker::new();
            audit_allocations(&cfg, &mut checker);
            assert_eq!(
                audit_allocations(&cfg, &mut checker),
                0,
                "{protocol:?} {} cores / {} banks: after_event allocated once warm",
                cfg.cores,
                cfg.banks
            );
        }
    }
}

/// Depth-first undo walk of the schedule tree under `h`, digesting every
/// node; visits at most `budget` nodes and returns the allocations made
/// inside `state_digest_cached`.
fn digest_walk(h: &mut Hierarchy, budget: &mut usize) -> u64 {
    let mut total = allocs_in(|| h.state_digest_cached()).1;
    for choice in h.frontier_choices(Cycle(48)) {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        let mark = h.undo_mark();
        h.try_step_choice(choice.seq)
            .expect("protocol error")
            .expect("frontier choice is deliverable");
        total += digest_walk(h, budget);
        h.undo_to(mark);
    }
    total
}

#[test]
fn warm_state_digest_walks_a_schedule_tree_without_allocating() {
    for protocol in ProtocolKind::ALL {
        let mut h = Hierarchy::new(tiny_config(2, protocol));
        issue_stream(&mut h, &contended_stream(7, 2, 2, 5, 0.3));
        h.enable_undo();
        let root = h.state_digest();
        digest_walk(&mut h, &mut 2000);
        let mut budget = 2000;
        assert_eq!(
            digest_walk(&mut h, &mut budget),
            0,
            "{protocol:?}: state_digest_cached allocated once warm"
        );
        assert_eq!(budget, 0, "{protocol:?}: the walk ended early");
        assert_eq!(
            h.state_digest_cached(),
            root,
            "the walk rewound to the root"
        );
    }
}
