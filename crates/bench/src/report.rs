//! Renders a human-readable run report from the machine-readable
//! snapshot a traced run writes (`<base>.metrics.json`, see
//! `swiftdir_core::obs`).
//!
//! The renderer is deliberately forward-compatible: any snapshot whose
//! schema tag starts with `swiftdir.run.` is accepted (a non-`v1` tag
//! earns a warning line, not a refusal), unknown fields are ignored,
//! and every known section is optional — a snapshot missing its
//! `metrics` section still renders the summary it does carry. Old
//! reporters keep working against newer writers; the only hard errors
//! are unreadable files, invalid JSON, and schema tags from some other
//! family entirely.

use std::fmt::Write as _;

use sim_engine::Json;

/// Schema-tag prefix this renderer accepts (any version).
pub const RUN_SCHEMA_PREFIX: &str = "swiftdir.run.";

/// The snapshot version this renderer was written against.
pub const RUN_SCHEMA_CURRENT: &str = "swiftdir.run.v1";

/// L1 states in matrix order (mirrors `L1State::ALL`).
const L1_STATES: [&str; 10] = [
    "I", "S", "E", "M", "IS_D", "IM_D", "SM_A", "EM_A", "MI_A", "EI_A",
];

/// LLC states in matrix order (mirrors `LlcState::ALL`).
const LLC_STATES: [&str; 4] = ["I", "S", "E", "M"];

/// Request classes in report order (mirrors `RequestClass::ALL`).
const CLASSES: [&str; 5] = ["Hit", "GETS", "GETS_WP", "GETX", "Upgrade"];

/// Reads, parses, and renders one snapshot file.
///
/// # Errors
///
/// Unreadable file, invalid JSON, or a schema tag outside the
/// `swiftdir.run.*` family.
pub fn render_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let snap = Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    render_snapshot(path, &snap)
}

/// Renders one parsed snapshot, labelled `label` in the header.
///
/// # Errors
///
/// Only a schema tag outside the `swiftdir.run.*` family; every section
/// of the snapshot itself is optional.
pub fn render_snapshot(label: &str, snap: &Json) -> Result<String, String> {
    let schema = snap.get("schema").and_then(Json::as_str).unwrap_or("?");
    if !schema.starts_with(RUN_SCHEMA_PREFIX) {
        return Err(format!("unsupported snapshot schema {schema:?}"));
    }

    let mut out = String::new();
    let _ = writeln!(out, "SwiftDir run report — {label}");
    if schema != RUN_SCHEMA_CURRENT {
        let _ = writeln!(
            out,
            "  (snapshot schema {schema}; this reporter knows {RUN_SCHEMA_CURRENT} — \
             unknown fields are ignored)"
        );
    }
    summary(&mut out, snap);
    if let Some(metrics) = snap.get("metrics") {
        latency_table(&mut out, metrics);
        matrix(
            &mut out,
            metrics,
            "L1 transitions",
            "protocol.transitions.l1.",
            &L1_STATES,
        );
        matrix(
            &mut out,
            metrics,
            "LLC transitions",
            "protocol.transitions.llc.",
            &LLC_STATES,
        );
    } else {
        let _ = writeln!(out, "\n  (no \"metrics\" section in this snapshot)");
    }
    events(&mut out, snap);
    dispatch(&mut out, snap);
    memory(&mut out, snap);
    Ok(out)
}

fn get_u64(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn get_f64(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn summary(out: &mut String, snap: &Json) {
    let threads = snap
        .get("threads")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    let _ = writeln!(
        out,
        "\n  threads {threads}   instructions {}   ROI cycles {}   IPC {:.3}",
        get_u64(snap, "instructions"),
        get_u64(snap, "roi_cycles"),
        get_f64(snap, "ipc"),
    );
}

fn latency_table(out: &mut String, metrics: &Json) {
    let _ = writeln!(out, "\nRequest latency (cycles)");
    let _ = writeln!(
        out,
        "  {:<8} {:>10} {:>8} {:>6} {:>6} {:>6} {:>6}",
        "class", "count", "mean", "p50", "p90", "p99", "max"
    );
    for class in CLASSES {
        let Some(h) = metrics.get(&format!("protocol.latency.{class}")) else {
            continue;
        };
        let count = get_u64(h, "count");
        let cell = |key: &str| match h.get(key).and_then(Json::as_u64) {
            Some(v) => v.to_string(),
            None => "-".to_string(),
        };
        let mean = match h.get("mean").and_then(Json::as_f64) {
            Some(m) => format!("{m:.1}"),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "  {class:<8} {count:>10} {mean:>8} {:>6} {:>6} {:>6} {:>6}",
            cell("p50"),
            cell("p90"),
            cell("p99"),
            cell("max"),
        );
    }
}

/// Prints a from→to transition matrix from `{prefix}{from}->{to}`
/// counters, showing only rows and columns with traffic.
fn matrix(out: &mut String, metrics: &Json, title: &str, prefix: &str, states: &[&str]) {
    let cell = |from: &str, to: &str| {
        metrics
            .get(&format!("{prefix}{from}->{to}"))
            .map_or(0, |m| get_u64(m, "value"))
    };
    let live_row = |s: &&&str| states.iter().any(|to| cell(s, to) > 0);
    let live_col = |s: &&&str| states.iter().any(|from| cell(from, s) > 0);
    let rows: Vec<&str> = states.iter().filter(live_row).copied().collect();
    let cols: Vec<&str> = states.iter().filter(live_col).copied().collect();
    let _ = writeln!(out, "\n{title} (from \\ to)");
    if rows.is_empty() {
        let _ = writeln!(out, "  (none)");
        return;
    }
    let _ = write!(out, "  {:<6}", "");
    for to in &cols {
        let _ = write!(out, " {to:>8}");
    }
    let _ = writeln!(out);
    for from in rows {
        let _ = write!(out, "  {from:<6}");
        for to in &cols {
            match cell(from, to) {
                0 => {
                    let _ = write!(out, " {:>8}", ".");
                }
                n => {
                    let _ = write!(out, " {n:>8}");
                }
            }
        }
        let _ = writeln!(out);
    }
}

fn events(out: &mut String, snap: &Json) {
    let Some(events) = snap.get("events").and_then(Json::as_object) else {
        return;
    };
    let _ = writeln!(out, "\nCoherence events (Table III)");
    let mut line = String::new();
    for (name, count) in events {
        let n = count.as_u64().unwrap_or(0);
        if n == 0 {
            continue;
        }
        if line.len() > 60 {
            let _ = writeln!(out, "  {line}");
            line.clear();
        }
        let _ = write!(line, "{name}={n}  ");
    }
    if !line.is_empty() {
        let _ = writeln!(out, "  {}", line.trim_end());
    }
}

fn dispatch(out: &mut String, snap: &Json) {
    let Some(h) = snap.get("hierarchy") else {
        return;
    };
    let (dispatched, polls) = (get_u64(h, "dispatched"), get_u64(h, "mshr_polls"));
    let _ = writeln!(
        out,
        "\nSimulated events: {dispatched} dispatched, {polls} of them MSHR-full re-polls ({:.1}%), \
         delivered in {} poll groups",
        100.0 * polls as f64 / dispatched.max(1) as f64,
        get_u64(h, "poll_events"),
    );
}

fn memory(out: &mut String, snap: &Json) {
    let Some(mem) = snap.get("memory") else {
        return;
    };
    let _ = writeln!(
        out,
        "\nDRAM: {} reads, {} writes, row-hit rate {:.2}",
        get_u64(mem, "reads"),
        get_u64(mem, "writes"),
        get_f64(mem, "row_hit_rate"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal but representative v1 snapshot.
    fn snapshot_v1() -> Json {
        Json::object([
            ("schema", Json::from(RUN_SCHEMA_CURRENT)),
            ("threads", Json::array([Json::object::<&str>([])])),
            ("instructions", Json::Uint(1000)),
            ("roi_cycles", Json::Uint(500)),
            ("ipc", Json::Float(2.0)),
            (
                "events",
                Json::object([("GETS", Json::Uint(7)), ("GETX", Json::Uint(0))]),
            ),
            (
                "hierarchy",
                Json::object([
                    ("dispatched", Json::Uint(40)),
                    ("mshr_polls", Json::Uint(10)),
                    ("poll_events", Json::Uint(4)),
                ]),
            ),
            (
                "memory",
                Json::object([
                    ("reads", Json::Uint(3)),
                    ("writes", Json::Uint(1)),
                    ("row_hit_rate", Json::Float(0.5)),
                ]),
            ),
            (
                "metrics",
                Json::object([
                    (
                        "protocol.latency.Hit",
                        Json::object([
                            ("count", Json::Uint(9)),
                            ("mean", Json::Float(1.0)),
                            ("p50", Json::Uint(1)),
                            ("p90", Json::Uint(1)),
                            ("p99", Json::Uint(1)),
                            ("max", Json::Uint(1)),
                        ]),
                    ),
                    (
                        "protocol.transitions.l1.I->S",
                        Json::object([("value", Json::Uint(4))]),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn renders_a_v1_snapshot() {
        let text = render_snapshot("t.metrics.json", &snapshot_v1()).unwrap();
        assert!(text.contains("instructions 1000"), "{text}");
        assert!(text.contains("GETS=7"), "{text}");
        assert!(!text.contains("GETX=0"), "zero counts are elided: {text}");
        assert!(text.contains("row-hit rate 0.50"), "{text}");
        assert!(
            text.contains(
                "40 dispatched, 10 of them MSHR-full re-polls (25.0%), delivered in 4 poll groups"
            ),
            "{text}"
        );
        assert!(text.contains("Hit"), "{text}");
    }

    #[test]
    fn rejects_foreign_schema_families() {
        let snap = Json::object([("schema", Json::from("someone.elses.v1"))]);
        assert!(render_snapshot("x", &snap).is_err());
        assert!(render_snapshot("x", &Json::object::<&str>([])).is_err());
    }

    /// Satellite regression: a hand-mutated "v2" snapshot — bumped
    /// schema tag, unknown top-level and nested fields, and a dropped
    /// `metrics` section — must still render, with a version note.
    #[test]
    fn tolerates_future_snapshots() {
        let mut members = match snapshot_v1() {
            Json::Object(m) => m,
            _ => unreachable!(),
        };
        for (k, v) in &mut members {
            if k == "schema" {
                *v = Json::from("swiftdir.run.v2");
            }
        }
        members.retain(|(k, _)| k != "metrics");
        members.push(("flux_capacitance".into(), Json::Float(1.21)));
        members.push((
            "per_node_breakdown".into(),
            Json::array([Json::object([("gigawatts", Json::Bool(true))])]),
        ));
        let snap = Json::Object(members);

        let text = render_snapshot("future.metrics.json", &snap).unwrap();
        assert!(text.contains("swiftdir.run.v2"), "{text}");
        assert!(text.contains("unknown fields are ignored"), "{text}");
        assert!(text.contains("instructions 1000"), "{text}");
        assert!(text.contains("no \"metrics\" section"), "{text}");
    }

    #[test]
    fn tolerates_missing_sections() {
        let snap = Json::object([("schema", Json::from(RUN_SCHEMA_CURRENT))]);
        let text = render_snapshot("bare", &snap).unwrap();
        assert!(text.contains("instructions 0"), "{text}");
    }
}
