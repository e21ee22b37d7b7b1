//! Heap-allocation budgets of the audit and fork hot paths.
//!
//! The fuzzer runs the [`Checker`] after every simulated event and the
//! schedule explorer digests the hierarchy at every node, so both must
//! run out of reused buffers once warm. A counting global allocator
//! (per thread, so concurrently running tests do not interfere) pins
//! that: after a warm-up pass, a second identical pass makes zero heap
//! allocations inside `Checker::after_event` and
//! `Hierarchy::state_digest_cached`. It also counts bytes, which pins
//! what `Hierarchy::fork` copies for each deferred explore task.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sim_engine::Cycle;
use swiftdir::coherence::{Checker, Hierarchy, ProtocolKind};
use swiftdir::core::diff::{contended_stream, tiny_config};
use swiftdir::core::fuzz::FuzzConfig;
use swiftdir::core::issue_stream;

struct Counting;

/// Heap allocation calls and the bytes they asked for (a `realloc`
/// counts its new size).
#[derive(Debug, Clone, Copy)]
struct Allocs {
    calls: u64,
    bytes: u64,
}

thread_local! {
    static ALLOCATIONS: Cell<Allocs> = const { Cell::new(Allocs { calls: 0, bytes: 0 }) };
}

fn bump(bytes: usize) {
    // `try_with`: the allocator may run while a thread's locals are torn
    // down; those allocations are not counted.
    let _ = ALLOCATIONS.try_with(|n| {
        let a = n.get();
        n.set(Allocs {
            calls: a.calls + 1,
            bytes: a.bytes + bytes as u64,
        })
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    let made = Allocs {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
    };
    (out, made)
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
        total += made.calls;
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
    let mut total = allocs_in(|| h.state_digest_cached()).1.calls;
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

/// Bytes one `Hierarchy::fork` may allocate for a warm, undo-enabled
/// two-core hierarchy a few steps into its schedule tree. The live
/// machine state takes about 8 KiB; the budget leaves no room for the
/// undo journals, five 4,096-bucket latency histograms (160 KiB) or an
/// empty calendar wheel's bucket headers (8 KiB).
const FORK_BYTE_BUDGET: u64 = 12 << 10;

#[test]
fn fork_of_a_warm_undo_hierarchy_copies_only_live_state() {
    for protocol in ProtocolKind::ALL {
        let mut h = Hierarchy::new(tiny_config(2, protocol));
        issue_stream(&mut h, &contended_stream(7, 2, 2, 5, 0.3));
        h.enable_undo();
        // Warm the undo journals, then step a few choices deep so they
        // hold live frames when the fork is taken.
        digest_walk(&mut h, &mut 2000);
        for _ in 0..4 {
            let choice = h.frontier_choices(Cycle(48))[0];
            h.try_step_choice(choice.seq)
                .expect("protocol error")
                .expect("frontier choice is deliverable");
        }
        let (fork, made) = allocs_in(|| h.fork());
        assert_eq!(fork.state_digest(), h.state_digest(), "{protocol:?}");
        assert!(
            made.bytes <= FORK_BYTE_BUDGET,
            "{protocol:?}: fork allocated {made:?}, over {FORK_BYTE_BUDGET} bytes"
        );
    }
}
