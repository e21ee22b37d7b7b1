//! The SwiftDir simulator benchmark.
//!
//! ```text
//! swiftbench --workload <fig7_spec|fig8_parsec|fuzz_grid|explore_trees>
//!            --seed N --seconds S --trace <0|1> [--out DIR]
//!            [--commit SHA] [--rustc VERSION]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: passes
//! over every unit of the workload at the host's worker count, repeated
//! for `--seconds`, then one pass at one worker whose digests must match.
//! `--trace 1` measures the per-layer metrics: a traced pass at one
//! worker with spans around each layer's public calls, replay
//! microbenches over inputs that pass recorded, and untraced passes at
//! one worker and at the host's worker count to compare digests and
//! host time with. Layers the chosen workload does not run are profiled
//! on a small slice of the workload that does, so every run reports
//! every per-layer metric.
//!
//! Every run checks the simulated outputs: each unit's own check, digests
//! identical across repeated passes, worker counts and tracing, and, for
//! seed 0, the digest set recorded below. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The full result, with host context and sample distributions, and the
//! traced run's spans are written under `--out`.

mod counts;
mod explore;
mod fuzz;
mod replay;
mod spans;
mod stats;
mod system;
mod unit;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sim_engine::Json;
use swiftdir_core::FuzzConfig;

use spans::SpanLog;
use system::Point;
use unit::{Metric, Pass, UnitResult};

/// The seed whose digest sets are recorded in [`Kind::recorded_digest`].
const DEFAULT_SEED: u64 = 0;

/// Passes a measurement runs at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fig7,
    Fig8,
    Fuzz,
    Explore,
}

/// The order slices are profiled in: fuzz first, so the event queue's
/// replayed cost is known when the `System` workloads attribute time.
const PROFILE_ORDER: [Kind; 4] = [Kind::Fuzz, Kind::Fig7, Kind::Fig8, Kind::Explore];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Fig7 => "fig7_spec",
            Kind::Fig8 => "fig8_parsec",
            Kind::Fuzz => "fuzz_grid",
            Kind::Explore => "explore_trees",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        PROFILE_ORDER.into_iter().find(|k| k.name() == s)
    }

    /// Units in flight at once: the `ExperimentSet` workers, except for
    /// explore, whose trees run one at a time with the workers inside.
    fn concurrency(self, workers: usize) -> usize {
        match self {
            Kind::Explore => 1,
            _ => workers,
        }
    }

    /// The digest set of a pass at [`DEFAULT_SEED`], recorded when the
    /// benchmark was written. A change to any simulated output changes it.
    fn recorded_digest(self) -> u64 {
        match self {
            Kind::Fig7 => 0xaecf_da71_102a_ccbc,
            Kind::Fig8 => 0xb34a_9871_0238_b4f2,
            Kind::Fuzz => 0xc678_a3e3_e1c1_6651,
            Kind::Explore => 0x7408_c463_3829_a39b,
        }
    }
}

/// A workload's units.
enum Units {
    System(&'static str, Vec<Point>),
    Fuzz(Vec<FuzzConfig>),
    Explore(Vec<explore::Tree>),
}

impl Units {
    fn generate(kind: Kind, seed: u64, slice: bool) -> Units {
        match kind {
            Kind::Fig7 => Units::System(kind.name(), system::fig7_points(seed, slice)),
            Kind::Fig8 => Units::System(kind.name(), system::fig8_points(seed, slice)),
            Kind::Fuzz => Units::Fuzz(fuzz::units(seed, slice)),
            Kind::Explore => Units::Explore(explore::units(seed, slice)),
        }
    }

    /// Builds every unit's inputs once, untimed work excluded; returns
    /// the host seconds it took.
    fn setup(&self) -> f64 {
        match self {
            Units::System(_, p) => system::setup(p),
            Units::Fuzz(u) => fuzz::setup(u),
            Units::Explore(t) => explore::setup(t),
        }
    }

    fn pass(&self, workers: usize) -> Pass {
        match self {
            Units::System(_, p) => system::pass(p, workers),
            Units::Fuzz(u) => fuzz::pass(u, workers),
            Units::Explore(t) => explore::pass(t, workers),
        }
    }

    /// The traced pass at one worker: its units and per-layer metrics.
    fn traced(
        &self,
        log: &mut SpanLog,
        untraced: &Pass,
        queue_ns: f64,
    ) -> (Vec<UnitResult>, Vec<Metric>) {
        match self {
            Units::System(name, p) => system::traced(name, p, log, untraced, queue_ns),
            Units::Fuzz(u) => fuzz::traced(u, log),
            Units::Explore(t) => explore::traced(t, log),
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("swiftbench-out");
    let (mut commit, mut rustc) = ("unknown".to_string(), "unknown".to_string());
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            "--commit" => commit = value,
            "--rustc" => rustc = value,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        commit,
        rustc,
    })
}

/// Attempts, failures and the first few failure reasons of a run.
#[derive(Default)]
struct Check {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Check {
    fn note(&mut self, problem: String) {
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Counts `units`; a unit fails on its own check or when its digest
    /// differs from the same unit in `reference`.
    fn count(&mut self, what: &str, reference: &[UnitResult], units: &[UnitResult]) {
        self.attempted += units.len();
        for (i, (u, r)) in units.iter().zip(reference).enumerate() {
            if let Some(f) = &u.failure {
                self.failed += 1;
                self.note(format!("{what}: unit {i}: {f}"));
            } else if u.digest != r.digest {
                self.failed += 1;
                self.note(format!(
                    "{what}: unit {i}: digest {:016x} differs from {:016x}",
                    u.digest, r.digest
                ));
            }
        }
    }

    /// At the default seed, the digest set must be the recorded one; if
    /// it is not, `pass`'s units count as failed (once at most).
    fn recorded(&mut self, kind: Kind, seed: u64, pass: &Pass) {
        if seed != DEFAULT_SEED {
            return;
        }
        let (got, want) = (pass.digest(), kind.recorded_digest());
        if got != want {
            self.failed = (self.failed + pass.units.len()).min(self.attempted);
            self.note(format!(
                "{}: digest set {got:016x} differs from the recorded {want:016x}",
                kind.name()
            ));
        }
    }
}

/// `--trace 0`: the end-to-end metrics.
///
/// The shared 2-CPU host this benchmark was tuned on switches between a
/// fast state and one about 1.5x slower every few seconds to minutes
/// (other tenants' load), so a run's median pass reads whichever state
/// dominated it. Each run therefore repeats every unit once per pass for
/// `--seconds` and reports best-of-run figures: each unit's best time,
/// the throughput those times give at the pinned concurrency, and the
/// best of the set-up builds made before each pass. The measured pass
/// rates are kept in the result file.
fn measure(
    args: &Args,
    workers: usize,
    check: &mut Check,
    facts: &mut Vec<(String, Json)>,
) -> Vec<Metric> {
    let units = Units::generate(args.kind, args.seed, false);
    let mut setup = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        setup.push(units.setup());
        passes.push(units.pass(workers));
    }
    let peak_rss = stats::peak_rss_mib();
    let serial = units.pass(1);

    let reference = &passes[0];
    for (k, p) in passes.iter().enumerate() {
        check.count(
            &format!("pass {k} at {workers} workers"),
            &reference.units,
            &p.units,
        );
    }
    check.count("pass at 1 worker", &reference.units, &serial.units);
    check.recorded(args.kind, args.seed, reference);

    // Each unit's best time over the passes it completed cleanly.
    let best_ms: Vec<f64> = (0..reference.units.len())
        .filter_map(|i| {
            passes
                .iter()
                .map(|p| &p.units[i])
                .filter(|u| u.failure.is_none())
                .map(|u| u.run_s * 1e3)
                .reduce(f64::min)
        })
        .collect();
    let n = best_ms.len();
    let concurrency = args.kind.concurrency(workers);
    let units_per_s = unit::ratio((concurrency * n) as f64, best_ms.iter().sum::<f64>() / 1e3);
    let tail = stats::tail_percentile(n).unwrap_or(50.0);
    let rate: Vec<f64> = passes
        .iter()
        .map(|p| p.units.len() as f64 / p.wall_s)
        .collect();
    facts.push(("passes".into(), Json::Uint(passes.len() as u64)));
    facts.push((
        "pass_units_per_s".into(),
        Json::array(rate.iter().map(|&r| Json::Float(r))),
    ));
    facts.push((
        "setup_s_samples".into(),
        Json::array(setup.iter().map(|&s| Json::Float(s))),
    ));
    facts.push((
        "pass_unit_ms".into(),
        Json::array(
            passes
                .iter()
                .map(|p| Json::array(p.units.iter().map(|u| Json::Float(u.run_s * 1e3)))),
        ),
    ));
    facts.push(("unit_ms_tail_percentile".into(), Json::Float(tail)));
    facts.push((
        "pass_digest".into(),
        Json::Str(format!("{:016x}", reference.digest())),
    ));
    let k = passes.len();
    vec![
        Metric::new(
            "setup_s",
            setup.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        )
        .note(format!(
            "best of {} builds of every unit's inputs, one before each pass",
            setup.len()
        )),
        Metric::new("units_per_s", units_per_s, "units/s").note(format!(
            "{concurrency} x {n} units / sum of best unit times over {k} passes \
             (median measured pass rate {:.3})",
            stats::median(&rate)
        )),
        Metric::new("unit_ms_p50", stats::median(&best_ms), "ms").note(format!(
            "median over {n} units of each unit's best of {k} passes"
        )),
        Metric::new("unit_ms_tail", stats::percentile(&best_ms, tail), "ms").note(format!(
            "p{tail} over {n} units of each unit's best of {k} passes"
        )),
        Metric::new("peak_rss_mb", peak_rss, "MiB").note("VmHWM after the timed passes"),
    ]
}

/// `--trace 1`: the per-layer metrics.
fn profile(args: &Args, workers: usize, check: &mut Check) -> (Vec<Metric>, SpanLog) {
    let mut log = SpanLog::new();
    let mut by_kind: Vec<(Kind, Vec<Metric>)> = Vec::new();
    let mut queue_ns = 0.0;
    for kind in PROFILE_ORDER {
        let main = kind == args.kind;
        let units = Units::generate(kind, args.seed, !main);
        let parallel = units.pass(workers);
        let (traced, mut metrics) = units.traced(&mut log, &parallel, queue_ns);
        let name = kind.name();
        let reference = &parallel.units;
        check.count(
            &format!("{name} untraced at {workers} workers"),
            reference,
            reference,
        );
        check.count(&format!("{name} traced at 1 worker"), reference, &traced);
        if main {
            let serial = units.pass(1);
            check.count(
                &format!("{name} untraced at 1 worker"),
                reference,
                &serial.units,
            );
            check.recorded(kind, args.seed, &serial);
            let host = |u: &[UnitResult]| u.iter().map(|u| u.setup_s + u.run_s).sum::<f64>();
            metrics.push(
                Metric::new(
                    "trace.overhead",
                    unit::ratio(host(&traced), host(&serial.units)),
                    "ratio",
                )
                .note("traced / untraced host time over the units, both at 1 worker"),
            );
        }
        if kind == Kind::Fuzz {
            queue_ns = metrics
                .iter()
                .find(|m| m.name == "engine.queue.ns_per_op")
                .map_or(0.0, |m| m.value);
        }
        by_kind.push((kind, metrics));
    }
    // The chosen workload's own measurements win; slices fill the rest.
    by_kind.sort_by_key(|(k, _)| *k != args.kind);
    let mut out: Vec<Metric> = Vec::new();
    for (kind, metrics) in by_kind {
        for m in metrics {
            if !out.iter().any(|o| o.name == m.name) {
                let source = if kind == args.kind { "" } else { " (slice)" };
                let note = format!("[{}{source}] {}", kind.name(), m.note);
                out.push(m.note(note));
            }
        }
    }
    (out, log)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swiftbench: {e}");
            return ExitCode::from(2);
        }
    };
    for var in ["SWIFTDIR_TRACE", "SWIFTDIR_PROGRESS"] {
        if std::env::var_os(var).is_some() {
            eprintln!("swiftbench: refusing to measure with {var} set; unset it and rerun");
            return ExitCode::from(2);
        }
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = host_cores;
    let workload = args.kind.name();
    println!(
        "swiftbench {workload} seed {} trace {}: host_cores {host_cores}, workers {workers}, \
         commit {}, {}",
        args.seed, args.trace as u8, args.commit, args.rustc
    );

    let mut check = Check::default();
    let mut facts: Vec<(String, Json)> = Vec::new();
    let started = Instant::now();
    let (metrics, log) = if args.trace {
        let (m, log) = profile(&args, workers, &mut check);
        (m, Some(log))
    } else {
        (measure(&args, workers, &mut check, &mut facts), None)
    };
    let failed_frac = unit::ratio(check.failed as f64, check.attempted as f64);

    for p in &check.problems {
        eprintln!("swiftbench: FAILED {p}");
    }
    for m in &metrics {
        println!(
            "{workload:<14} {:<34} {:>16.6} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "{workload:<14} {:<34} {:>16.6} {:<9} {} of {} units failed",
        "failed_frac", failed_frac, "ratio", check.failed, check.attempted
    );

    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("swiftbench: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let stem = format!("{workload}-seed{}-trace{}", args.seed, args.trace as u8);
    if let Some(log) = &log {
        let path = args.out.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = log.write_jsonl(&path) {
            eprintln!("swiftbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let metric_json = |with_note: bool| {
        Json::object(metrics.iter().map(|m| {
            let mut fields = vec![
                ("value", Json::Float(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ];
            if with_note {
                fields.push(("note", Json::Str(m.note.clone())));
            }
            (m.name.clone(), Json::object(fields))
        }))
    };
    let mut result = vec![
        ("workload".to_string(), Json::Str(workload.into())),
        ("seed".into(), Json::Uint(args.seed)),
        ("trace".into(), Json::Bool(args.trace)),
        ("host_cores".into(), Json::Uint(host_cores as u64)),
        ("workers".into(), Json::Uint(workers as u64)),
        ("commit".into(), Json::Str(args.commit.clone())),
        ("rustc".into(), Json::Str(args.rustc.clone())),
        (
            "wall_s".into(),
            Json::Float(started.elapsed().as_secs_f64()),
        ),
        ("attempted".into(), Json::Uint(check.attempted as u64)),
        ("failed".into(), Json::Uint(check.failed as u64)),
        ("failed_frac".into(), Json::Float(failed_frac)),
        (
            "problems".into(),
            Json::array(check.problems.iter().map(|p| Json::Str(p.clone()))),
        ),
        ("metrics".into(), metric_json(true)),
    ];
    result.extend(facts);
    let path = args.out.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&path, Json::object(result).to_pretty()) {
        eprintln!("swiftbench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }

    let last = Json::object([
        ("correct", Json::Bool(check.failed == 0)),
        ("attempted", Json::Uint(check.attempted as u64)),
        ("failed", Json::Uint(check.failed as u64)),
        ("metrics", metric_json(false)),
    ]);
    println!("{last}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_json(path: &str) -> Json {
        let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("{full}: {e}"))
    }

    fn names<'a>(j: &'a Json, key: &str) -> Vec<&'a str> {
        j.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("no {key} array"))
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("named entry"))
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_workloads_and_layer_map() {
        let bench = read_json("../BENCHMARK.json");
        let workloads = names(&bench, "workloads");
        let ours: Vec<&str> = PROFILE_ORDER.iter().map(|k| k.name()).collect();
        assert_eq!(workloads.len(), ours.len());
        assert!(workloads.iter().all(|w| ours.contains(w)));

        let layers = read_json("layers.json");
        let map = layers
            .get("metrics")
            .and_then(Json::as_object)
            .expect("layers.json has a metrics object");
        let mapped: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names(&bench, "per_layer"), mapped);
    }
}
