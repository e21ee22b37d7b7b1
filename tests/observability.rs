//! End-to-end observability: a traced run must emit a valid JSONL event
//! stream, a valid Chrome `trace_event` export, and a metrics snapshot
//! whose numbers reconcile with the typed [`RunStats`] — and tracing
//! must never change the simulation itself.

use std::path::PathBuf;

use swiftdir::coherence::{CoherenceEvent, ProtocolKind, RequestClass};
use swiftdir::core::{RunStats, System, SystemConfig, TraceConfig};
use swiftdir::cpu::CpuModel;
use swiftdir::engine::Json;
use swiftdir::workloads::{SpecBenchmark, SynthStream, WorkloadRegions};

const INSTRUCTIONS: u64 = 4_000;

fn run_point(protocol: ProtocolKind, trace: TraceConfig) -> RunStats {
    let mut sys = System::with_trace(
        SystemConfig::builder()
            .cores(1)
            .protocol(protocol)
            .cpu_model(CpuModel::DerivO3)
            .build(),
        trace,
    );
    let pid = sys.spawn_process();
    let bench = SpecBenchmark::ALL[0];
    let params = bench.params(INSTRUCTIONS);
    let regions = WorkloadRegions::map(&mut sys, pid, &params);
    let stream = SynthStream::new(params, regions, bench.seed());
    sys.run_thread_stream(pid, 0, stream);
    sys.run_to_completion()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("swiftdir_obs_tests");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

#[test]
fn traced_run_emits_valid_jsonl_chrome_and_metrics_files() {
    let base = scratch("full");
    let stats = run_point(ProtocolKind::SwiftDir, TraceConfig::to_path(&base));

    // The System claimed a sequence number, so glob for the actual
    // events file: it is <base> or <base>-<n>.
    let dir = base.parent().unwrap();
    let claimed: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("full") && n.ends_with(".jsonl"))
        })
        .collect();
    assert!(!claimed.is_empty(), "no JSONL trace written");
    let events_path = &claimed[0];
    let base_str = events_path.to_str().unwrap().trim_end_matches(".jsonl");

    // 1. JSONL: every line parses, and each object has the envelope keys.
    let jsonl = std::fs::read_to_string(events_path).unwrap();
    let mut issues = 0u64;
    let mut completes = 0u64;
    let mut lines = 0u64;
    for line in jsonl.lines() {
        let ev = Json::parse(line).expect("every trace line is valid JSON");
        assert!(ev.get("t").and_then(Json::as_u64).is_some(), "missing t");
        assert!(ev.get("ev").and_then(Json::as_str).is_some(), "missing ev");
        match ev.get("ev").and_then(Json::as_str) {
            Some("issue") => issues += 1,
            Some("complete") => completes += 1,
            _ => {}
        }
        lines += 1;
    }
    assert!(lines > 100, "a real run produces many events, got {lines}");
    assert!(issues > 0, "no issue events traced");
    assert_eq!(
        completes,
        stats.loads() + stats.stores(),
        "every issued request completes exactly once in the trace"
    );

    // 2. Chrome export: one valid JSON array of objects with ph/ts/pid.
    let chrome = std::fs::read_to_string(format!("{base_str}.chrome.json")).unwrap();
    let arr = Json::parse(&chrome).expect("chrome export is valid JSON");
    let items = arr.as_array().expect("chrome export is an array");
    assert_eq!(
        items.len() as u64,
        lines,
        "one chrome event per trace event"
    );
    for item in items {
        assert!(item.get("ph").and_then(Json::as_str).is_some());
        assert!(item.get("ts").is_some());
        assert!(item.get("pid").is_some());
    }
    assert!(
        items
            .iter()
            .any(|i| i.get("ph").and_then(Json::as_str) == Some("X")),
        "completions export as duration events"
    );

    // 3. Metrics snapshot: parses, carries the schema tag, and matches
    //    RunStats::snapshot() exactly.
    let metrics = std::fs::read_to_string(format!("{base_str}.metrics.json")).unwrap();
    let snap = Json::parse(&metrics).expect("metrics snapshot is valid JSON");
    assert_eq!(
        snap.get("schema").and_then(Json::as_str),
        Some("swiftdir.run.v1")
    );
    assert_eq!(snap, stats.snapshot(), "file and in-memory snapshot agree");
}

#[test]
fn snapshot_round_trips_and_reconciles_with_typed_stats() {
    let stats = run_point(ProtocolKind::SwiftDir, TraceConfig::default());
    let snap = stats.snapshot();

    // Round trip through the serializer and parser.
    let reparsed = Json::parse(&snap.to_pretty()).expect("snapshot parses");
    assert_eq!(reparsed, snap);
    let compact = Json::parse(&snap.to_string()).expect("compact form parses");
    assert_eq!(compact, snap);

    // Scalars reconcile with the typed stats.
    assert_eq!(
        snap.get("instructions").and_then(Json::as_u64),
        Some(stats.instructions())
    );
    assert_eq!(
        snap.get("roi_cycles").and_then(Json::as_u64),
        Some(stats.roi_cycles())
    );
    assert_eq!(
        snap.get("events")
            .and_then(|e| e.get("GETS_WP"))
            .and_then(Json::as_u64),
        Some(stats.hierarchy.event(CoherenceEvent::GetsWp))
    );
    assert_eq!(
        snap.get("hierarchy")
            .and_then(|h| h.get("dispatched"))
            .and_then(Json::as_u64),
        Some(stats.hierarchy.dispatched)
    );
    assert_eq!(
        snap.get("hierarchy")
            .and_then(|h| h.get("mshr_polls"))
            .and_then(Json::as_u64),
        Some(stats.hierarchy.mshr_polls)
    );
    assert!(stats.hierarchy.mshr_polls <= stats.hierarchy.dispatched);
    assert_eq!(
        snap.get("hierarchy")
            .and_then(|h| h.get("poll_events"))
            .and_then(Json::as_u64),
        Some(stats.hierarchy.poll_events)
    );
    assert!(stats.hierarchy.poll_events <= stats.hierarchy.mshr_polls);

    // The metrics section is sorted by name, and its names are stable:
    // `swiftdir-report` and CI look them up.
    let metrics = snap.get("metrics").expect("metrics section");
    let names: Vec<&str> = metrics
        .as_object()
        .expect("metrics is an object")
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
    for name in [
        "protocol.transitions.l1.I->IS_D",
        "protocol.latency.GETS_WP",
        "protocol.install_retries",
        "protocol.install_stalls",
        "run.instructions",
        "run.roi_cycles",
    ] {
        assert!(names.contains(&name), "{name} missing from {names:?}");
    }
    assert!(
        !names.contains(&"protocol.transitions.l1.I->S"),
        "zero matrix cells are left out"
    );

    // One latency histogram per request class, empty ones included, and
    // their counts sum to the number of completions.
    let mut total = 0;
    for class in RequestClass::ALL {
        let h = metrics
            .get(&format!("protocol.latency.{}", class.name()))
            .unwrap_or_else(|| panic!("latency histogram for {class} missing"));
        total += h.get("count").and_then(Json::as_u64).expect("count");
    }
    assert_eq!(
        total,
        stats.loads() + stats.stores(),
        "one latency sample per issued request"
    );

    // Transition-matrix counters reconcile with the typed matrix.
    for (from, to, n) in stats.hierarchy.protocol.l1_nonzero() {
        let name = format!("protocol.transitions.l1.{}->{}", from.name(), to.name());
        let counter = metrics
            .get(&name)
            .and_then(|c| c.get("value"))
            .and_then(Json::as_u64);
        assert_eq!(counter, Some(n), "{name} mismatch");
    }
}

/// The snapshot is the one file `swiftdir-report` reads, so its bytes are
/// pinned: a refactor of the reporting code must leave them unchanged.
#[test]
fn snapshot_bytes_are_pinned() {
    let text = run_point(ProtocolKind::SwiftDir, TraceConfig::default())
        .snapshot()
        .to_pretty();
    // FNV-1a over the pretty-printed bytes.
    let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(
        (text.len(), digest),
        (35_730, 0x4bf3_1d41_b9cf_c744),
        "snapshot bytes changed"
    );
}

#[test]
fn gets_wp_latencies_appear_under_swiftdir() {
    let stats = run_point(ProtocolKind::SwiftDir, TraceConfig::default());
    let wp = stats.hierarchy.protocol.latency(RequestClass::GetsWp);
    assert_eq!(
        wp.count(),
        stats.hierarchy.event(CoherenceEvent::GetsWp),
        "every GETS_WP request lands one latency sample"
    );
    // The workload maps read-only (shared-library-like) regions, so the
    // secure-load path is actually exercised.
    assert!(wp.count() > 0, "workload never took the GETS_WP path");
}

#[test]
fn trace_limit_caps_the_event_stream() {
    let base = scratch("capped");
    let mut cfg = TraceConfig::to_path(&base);
    cfg.limit = Some(50);
    run_point(ProtocolKind::Mesi, cfg);
    let dir = base.parent().unwrap();
    let capped: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("capped") && n.ends_with(".jsonl"))
        })
        .collect();
    assert!(!capped.is_empty());
    let lines = std::fs::read_to_string(&capped[0]).unwrap().lines().count();
    assert_eq!(lines, 50, "SWIFTDIR_TRACE_LIMIT-style cap is exact");
}
