//! Observability wiring: trace environment knobs, trace-file
//! construction, and the machine-readable run snapshot.
//!
//! Tracing is opt-in via two environment variables, read once per
//! [`System`](crate::System) at construction:
//!
//! * **`SWIFTDIR_TRACE=<path>`** — enables tracing and names the output
//!   base. A traced run writes three sibling files:
//!   `<path>.jsonl` (one JSON trace event per line),
//!   `<path>.chrome.json` (Chrome `about:tracing` / Perfetto format), and
//!   `<path>.metrics.json` (the [`RunStats`] snapshot,
//!   consumed by the `swiftdir-report` binary).
//! * **`SWIFTDIR_TRACE_LIMIT=<n>`** — caps the number of events written
//!   to the sinks; tracing self-disables after `n` events so a long run
//!   cannot fill the disk. `0` disables tracing outright.
//!
//! Multiple traced systems in one process (e.g. an
//! [`ExperimentSet`](crate::ExperimentSet) sweep with the knob set) get
//! distinct files: every traced `System` claims a process-wide sequence
//! number that is appended to the base path (`trace`, `trace-1`,
//! `trace-2`, …), so parallel workers never clobber each other.
//!
//! Campaign telemetry (the `swiftdir.progress.v1` heartbeat stream, see
//! [`sim_engine::progress`]) has its own pair of knobs:
//!
//! * **`SWIFTDIR_PROGRESS=<path>`** — streams heartbeat records (JSONL)
//!   to `<path>`; the special value `-` streams to stdout.
//! * **`SWIFTDIR_PROGRESS_INTERVAL_MS=<n>`** — minimum milliseconds
//!   between heartbeats (default 500; `0` emits on every tick).
//!
//! All knob *parsing* is pure ([`TraceConfig::parse_values`],
//! [`ProgressConfig::parse_values`]) so it can be tested without
//! touching the process environment. Invalid values are never silent:
//! the `from_env` constructors warn once on stderr and fall back to the
//! documented defaults.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use sim_engine::stats::counter_json;
use sim_engine::{CampaignCounters, ChromeTraceSink, Json, JsonlSink, ProgressSampler, Tracer};
use swiftdir_coherence::CoherenceEvent;

use crate::system::RunStats;

/// Environment variable naming the trace-output base path.
pub const TRACE_ENV: &str = "SWIFTDIR_TRACE";

/// Environment variable capping the number of traced events.
pub const TRACE_LIMIT_ENV: &str = "SWIFTDIR_TRACE_LIMIT";

/// Capacity of the in-memory ring every traced run keeps for
/// invariant-failure dumps (the most recent events, always available
/// even when a file sink lags).
pub const TRACE_RING: usize = 4096;

/// Process-wide sequence distinguishing the files of concurrently (or
/// repeatedly) traced systems.
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Parsed trace knobs (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Output base path; `None` disables tracing.
    pub path: Option<PathBuf>,
    /// Event cap; `None` means unlimited.
    pub limit: Option<u64>,
}

impl TraceConfig {
    /// Reads `SWIFTDIR_TRACE` / `SWIFTDIR_TRACE_LIMIT` from the process
    /// environment. Invalid values (an unparsable limit, a non-unicode
    /// variable) warn once on stderr and fall back to the defaults.
    pub fn from_env() -> Self {
        let (path, mut warnings) = env_value(TRACE_ENV);
        let (limit, limit_warnings) = env_value(TRACE_LIMIT_ENV);
        warnings.extend(limit_warnings);
        let (cfg, parse_warnings) = Self::parse_values(path.as_deref(), limit.as_deref());
        warnings.extend(parse_warnings);
        static WARNED: Once = Once::new();
        if !warnings.is_empty() {
            // Once: a sweep constructs many `System`s; one report is enough.
            WARNED.call_once(|| {
                for w in &warnings {
                    eprintln!("swiftdir: {w}");
                }
            });
        }
        cfg
    }

    /// Pure knob parsing: `path` and `limit` as the environment would
    /// supply them. Empty or whitespace-only `path` disables tracing; an
    /// unparsable `limit` is ignored; `limit == 0` disables tracing. Also
    /// returns the human-readable warnings for values that were ignored,
    /// so callers reading the real environment can be loud about bad
    /// knobs.
    pub fn parse_values(path: Option<&str>, limit: Option<&str>) -> (Self, Vec<String>) {
        let mut warnings = Vec::new();
        let path = path
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(PathBuf::from);
        let limit = limit.and_then(|v| match v.trim().parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                warnings.push(format!(
                    "invalid {TRACE_LIMIT_ENV}={v:?} (want a non-negative integer); \
                     tracing without an event cap"
                ));
                None
            }
        });
        let path = if limit == Some(0) { None } else { path };
        (TraceConfig { path, limit }, warnings)
    }

    /// A config tracing to `path` with no event cap (programmatic
    /// equivalent of setting `SWIFTDIR_TRACE`).
    pub fn to_path(path: impl Into<PathBuf>) -> Self {
        TraceConfig {
            path: Some(path.into()),
            limit: None,
        }
    }

    /// Whether this config enables tracing.
    pub fn is_enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Builds the tracer and its output files, claiming a fresh sequence
    /// number. Returns `Ok(None)` when tracing is disabled.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures for either sink.
    pub fn build(&self) -> io::Result<Option<(Tracer, TraceFiles)>> {
        let Some(base) = &self.path else {
            return Ok(None);
        };
        let files = TraceFiles::claim(base);
        let jsonl = BufWriter::new(File::create(&files.events)?);
        let chrome = BufWriter::new(File::create(&files.chrome)?);
        let mut tracer = Tracer::enabled()
            .with_ring(TRACE_RING)
            .with_sink(Box::new(JsonlSink::new(jsonl)))
            .with_sink(Box::new(ChromeTraceSink::new(chrome)));
        if let Some(limit) = self.limit {
            tracer = tracer.with_limit(limit);
        }
        Ok(Some((tracer, files)))
    }
}

/// The three output paths of one traced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFiles {
    /// JSONL event stream (`<base>.jsonl`).
    pub events: PathBuf,
    /// Chrome `trace_event` export (`<base>.chrome.json`).
    pub chrome: PathBuf,
    /// Metrics snapshot (`<base>.metrics.json`).
    pub metrics: PathBuf,
}

impl TraceFiles {
    /// Claims the next sequence number and derives the three paths. The
    /// first claimant gets the bare base; later ones get `-<n>` suffixes.
    fn claim(base: &Path) -> TraceFiles {
        let n = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
        let base = if n == 0 {
            base.to_path_buf()
        } else {
            let mut s = base.as_os_str().to_os_string();
            s.push(format!("-{n}"));
            PathBuf::from(s)
        };
        TraceFiles::at(&base)
    }

    /// The three paths derived from `base` with no sequencing (what a
    /// single traced run named `base` produces).
    pub fn at(base: &Path) -> TraceFiles {
        let with_ext = |ext: &str| {
            let mut s = base.as_os_str().to_os_string();
            s.push(ext);
            PathBuf::from(s)
        };
        TraceFiles {
            events: with_ext(".jsonl"),
            chrome: with_ext(".chrome.json"),
            metrics: with_ext(".metrics.json"),
        }
    }
}

/// Reads one environment variable, reporting (rather than swallowing) a
/// non-unicode value.
fn env_value(name: &str) -> (Option<String>, Vec<String>) {
    match std::env::var(name) {
        Ok(v) => (Some(v), Vec::new()),
        Err(std::env::VarError::NotPresent) => (None, Vec::new()),
        Err(std::env::VarError::NotUnicode(v)) => (
            None,
            vec![format!("invalid {name}={v:?} (not unicode); ignoring it")],
        ),
    }
}

/// Environment variable naming the campaign-heartbeat sink
/// (a path, or `-` for stdout).
pub const PROGRESS_ENV: &str = "SWIFTDIR_PROGRESS";

/// Environment variable setting the minimum milliseconds between
/// heartbeats.
pub const PROGRESS_INTERVAL_ENV: &str = "SWIFTDIR_PROGRESS_INTERVAL_MS";

/// Default heartbeat interval when [`PROGRESS_INTERVAL_ENV`] is unset.
pub const PROGRESS_DEFAULT_INTERVAL: Duration = Duration::from_millis(500);

/// Where the heartbeat stream goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressSink {
    /// Stream to stdout (the `-` knob value).
    Stdout,
    /// Stream to a file, truncating it first.
    File(PathBuf),
}

/// Parsed campaign-telemetry knobs (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressConfig {
    /// Heartbeat sink; `None` disables telemetry.
    pub sink: Option<ProgressSink>,
    /// Minimum time between heartbeats (zero emits on every tick).
    pub interval: Duration,
}

impl Default for ProgressConfig {
    fn default() -> Self {
        ProgressConfig {
            sink: None,
            interval: PROGRESS_DEFAULT_INTERVAL,
        }
    }
}

impl ProgressConfig {
    /// Reads `SWIFTDIR_PROGRESS` / `SWIFTDIR_PROGRESS_INTERVAL_MS` from
    /// the process environment. Invalid values warn on stderr and fall
    /// back to the defaults.
    pub fn from_env() -> Self {
        let (sink, mut warnings) = env_value(PROGRESS_ENV);
        let (interval, interval_warnings) = env_value(PROGRESS_INTERVAL_ENV);
        warnings.extend(interval_warnings);
        let (cfg, parse_warnings) = Self::parse_values(sink.as_deref(), interval.as_deref());
        warnings.extend(parse_warnings);
        for w in &warnings {
            eprintln!("swiftdir: {w}");
        }
        cfg
    }

    /// Pure knob parsing: `sink` and `interval` as the environment would
    /// supply them, plus warnings for values that were ignored.
    pub fn parse_values(sink: Option<&str>, interval: Option<&str>) -> (Self, Vec<String>) {
        let mut warnings = Vec::new();
        let sink = sink.and_then(Self::parse_sink);
        let interval = match interval.map(|v| (v, v.trim().parse::<u64>())) {
            None => PROGRESS_DEFAULT_INTERVAL,
            Some((_, Ok(ms))) => Duration::from_millis(ms),
            Some((v, Err(_))) => {
                warnings.push(format!(
                    "invalid {PROGRESS_INTERVAL_ENV}={v:?} (want milliseconds as a \
                     non-negative integer); using the default of {}ms",
                    PROGRESS_DEFAULT_INTERVAL.as_millis()
                ));
                PROGRESS_DEFAULT_INTERVAL
            }
        };
        (ProgressConfig { sink, interval }, warnings)
    }

    /// Parses one sink value: empty or whitespace-only disables, `-`
    /// means stdout, anything else is a file path. Shared between the
    /// environment knob and the bins' `--progress` flag.
    pub fn parse_sink(v: &str) -> Option<ProgressSink> {
        let v = v.trim();
        match v {
            "" => None,
            "-" => Some(ProgressSink::Stdout),
            path => Some(ProgressSink::File(PathBuf::from(path))),
        }
    }

    /// Whether this config enables telemetry.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Builds the sampler around `counters`. Returns `Ok(None)` when
    /// telemetry is disabled.
    ///
    /// # Errors
    ///
    /// Propagates creation failure of a file sink.
    pub fn build(&self, counters: CampaignCounters) -> io::Result<Option<Arc<ProgressSampler>>> {
        let Some(sink) = &self.sink else {
            return Ok(None);
        };
        let out: Box<dyn Write + Send> = match sink {
            ProgressSink::Stdout => Box::new(io::stdout()),
            ProgressSink::File(p) => {
                if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(dir)?;
                }
                Box::new(File::create(p)?)
            }
        };
        Ok(Some(Arc::new(ProgressSampler::new(
            counters,
            out,
            self.interval,
        ))))
    }

    /// Builds a sampler that *continues* an interrupted heartbeat
    /// stream instead of truncating it: a file sink is repaired (any
    /// torn final line from the kill is dropped) and opened in append
    /// mode, and sequence numbers pick up one past the last durable
    /// record. The first record emitted carries `"resumed": true`.
    /// Returns `Ok(None)` when telemetry is disabled.
    ///
    /// # Errors
    ///
    /// Propagates repair/open failure of a file sink.
    pub fn build_resumed(
        &self,
        counters: CampaignCounters,
    ) -> io::Result<Option<Arc<ProgressSampler>>> {
        let Some(sink) = &self.sink else {
            return Ok(None);
        };
        let (out, start_seq): (Box<dyn Write + Send>, u64) = match sink {
            // Stdout was never durable; just keep streaming from seq 0.
            ProgressSink::Stdout => (Box::new(io::stdout()), 0),
            ProgressSink::File(p) => {
                if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(dir)?;
                }
                let next_seq = repair_progress_tail(p)?;
                let f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)?;
                (Box::new(f), next_seq)
            }
        };
        Ok(Some(Arc::new(ProgressSampler::resumed(
            counters,
            out,
            self.interval,
            start_seq,
        ))))
    }
}

/// Repairs the tail of an interrupted heartbeat file and returns the
/// next sequence number to emit. A `kill -9` can leave a torn
/// (unterminated) final line; only `'\n'`-terminated lines are durable,
/// so the file is truncated back to the last terminator. Lines are then
/// scanned tolerantly (unparsable ones are skipped — the stream checker
/// reports them later, repair just needs a seq cursor) for the maximum
/// `seq`; the result is that plus one, or 0 for a missing/empty file.
///
/// # Errors
///
/// Propagates read/truncate failures. A missing file is not an error.
pub fn repair_progress_tail(path: &Path) -> io::Result<u64> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let durable = match text.rfind('\n') {
        Some(i) => i + 1,
        None => 0,
    };
    if durable < text.len() {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(durable as u64)?;
    }
    let next = text[..durable]
        .lines()
        .filter_map(|l| sim_engine::ProgressRecord::parse_line(l).ok())
        .map(|r| r.seq + 1)
        .max()
        .unwrap_or(0);
    Ok(next)
}

/// Schema tag stamped into every snapshot, so `swiftdir-report` can
/// reject files it does not understand.
pub const SNAPSHOT_SCHEMA: &str = "swiftdir.run.v1";

impl RunStats {
    /// The machine-readable snapshot of this run: every typed statistic
    /// — per-thread CPU counters, Table III event counts, hierarchy and
    /// DRAM counters, and the protocol metrics (per-request-class
    /// latency histograms and the L1/LLC transition matrices) under
    /// `metrics`, keyed by dotted name.
    ///
    /// The result is deterministic: object keys are emitted in a fixed
    /// order and the `metrics` section is sorted by name.
    pub fn snapshot(&self) -> Json {
        let threads = Json::array(self.threads.iter().map(|t| {
            Json::object([
                ("core", Json::Uint(t.core as u64)),
                ("instructions", Json::Uint(t.cpu.instructions)),
                ("mem_ops", Json::Uint(t.cpu.mem_ops)),
                ("started_at", Json::Uint(t.cpu.started_at.get())),
                ("finished_at", Json::Uint(t.cpu.finished_at.get())),
                ("cycles", Json::Uint(t.cpu.cycles())),
                ("ipc", Json::Float(t.cpu.ipc())),
            ])
        }));

        let events = Json::object(
            CoherenceEvent::ALL
                .iter()
                .map(|&e| (e.name(), Json::Uint(self.hierarchy.event(e)))),
        );

        let hierarchy = Json::object([
            ("l1_hits", Json::Uint(self.hierarchy.l1_hits)),
            ("l1_misses", Json::Uint(self.hierarchy.l1_misses)),
            ("mshr_merges", Json::Uint(self.hierarchy.mshr_merges)),
            ("recalls", Json::Uint(self.hierarchy.recalls)),
            (
                "silent_upgrades",
                Json::Uint(self.hierarchy.silent_upgrades),
            ),
            ("dispatched", Json::Uint(self.hierarchy.dispatched)),
            ("mshr_polls", Json::Uint(self.hierarchy.mshr_polls)),
            ("poll_events", Json::Uint(self.hierarchy.poll_events)),
        ]);

        let memory = Json::object([
            ("reads", Json::Uint(self.memory.reads)),
            ("writes", Json::Uint(self.memory.writes)),
            ("row_hits", Json::Uint(self.memory.row_hits)),
            ("row_closed", Json::Uint(self.memory.row_closed)),
            ("row_conflicts", Json::Uint(self.memory.row_conflicts)),
            ("row_hit_rate", Json::Float(self.memory.row_hit_rate())),
        ]);

        let mut metrics: Vec<(String, Json)> = self
            .hierarchy
            .protocol
            .snapshot_entries("protocol.")
            .chain([
                ("run.instructions".into(), counter_json(self.instructions())),
                ("run.roi_cycles".into(), counter_json(self.roi_cycles())),
            ])
            .collect();
        metrics.sort_by(|a, b| a.0.cmp(&b.0));

        Json::object([
            ("schema", Json::from(SNAPSHOT_SCHEMA)),
            ("threads", threads),
            ("roi_cycles", Json::Uint(self.roi_cycles())),
            ("instructions", Json::Uint(self.instructions())),
            ("ipc", Json::Float(self.ipc())),
            ("events", events),
            ("hierarchy", hierarchy),
            ("memory", memory),
            ("metrics", Json::Object(metrics)),
        ])
    }

    /// [`RunStats::snapshot`] rendered as pretty-printed JSON text.
    pub fn snapshot_pretty(&self) -> String {
        self.snapshot().to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_values_parses_knobs() {
        assert_eq!(
            TraceConfig::parse_values(None, None).0,
            TraceConfig::default()
        );
        let c = TraceConfig::parse_values(Some("out/trace"), None).0;
        assert_eq!(c.path.as_deref(), Some(Path::new("out/trace")));
        assert_eq!(c.limit, None);
        assert!(c.is_enabled());

        let c = TraceConfig::parse_values(Some(" t "), Some("500")).0;
        assert_eq!(c.path.as_deref(), Some(Path::new("t")));
        assert_eq!(c.limit, Some(500));
    }

    #[test]
    fn empty_path_or_zero_limit_disables() {
        assert!(!TraceConfig::parse_values(Some(""), None).0.is_enabled());
        assert!(!TraceConfig::parse_values(Some("  "), None).0.is_enabled());
        assert!(!TraceConfig::parse_values(Some("t"), Some("0"))
            .0
            .is_enabled());
        // An unparsable limit is ignored, not an error.
        let c = TraceConfig::parse_values(Some("t"), Some("lots")).0;
        assert!(c.is_enabled());
        assert_eq!(c.limit, None);
    }

    #[test]
    fn trace_files_derive_the_three_siblings() {
        let f = TraceFiles::at(Path::new("/tmp/run7"));
        assert_eq!(f.events, Path::new("/tmp/run7.jsonl"));
        assert_eq!(f.chrome, Path::new("/tmp/run7.chrome.json"));
        assert_eq!(f.metrics, Path::new("/tmp/run7.metrics.json"));
    }

    #[test]
    fn claimed_bases_are_distinct() {
        let a = TraceFiles::claim(Path::new("/tmp/seq"));
        let b = TraceFiles::claim(Path::new("/tmp/seq"));
        assert_ne!(a.events, b.events, "sequence numbers must disambiguate");
        assert_ne!(a.metrics, b.metrics);
    }

    #[test]
    fn disabled_config_builds_nothing() {
        assert!(TraceConfig::default().build().unwrap().is_none());
    }

    #[test]
    fn unparsable_trace_limit_warns() {
        let (c, warnings) = TraceConfig::parse_values(Some("t"), Some("lots"));
        assert!(c.is_enabled());
        assert_eq!(c.limit, None);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains(TRACE_LIMIT_ENV), "{warnings:?}");
        // Valid knobs warn about nothing.
        let (_, warnings) = TraceConfig::parse_values(Some("t"), Some("10"));
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn progress_sink_values_parse() {
        assert_eq!(ProgressConfig::parse_sink(""), None);
        assert_eq!(ProgressConfig::parse_sink("  "), None);
        assert_eq!(ProgressConfig::parse_sink("-"), Some(ProgressSink::Stdout));
        assert_eq!(
            ProgressConfig::parse_sink("out/hb.jsonl"),
            Some(ProgressSink::File(PathBuf::from("out/hb.jsonl")))
        );
    }

    #[test]
    fn progress_values_parse_with_defaults() {
        let (c, warnings) = ProgressConfig::parse_values(None, None);
        assert_eq!(c, ProgressConfig::default());
        assert!(!c.is_enabled());
        assert!(warnings.is_empty());

        let (c, warnings) = ProgressConfig::parse_values(Some("hb.jsonl"), Some("25"));
        assert!(c.is_enabled());
        assert_eq!(c.interval, Duration::from_millis(25));
        assert!(warnings.is_empty());
    }

    #[test]
    fn invalid_progress_interval_warns_and_falls_back() {
        let (c, warnings) = ProgressConfig::parse_values(Some("-"), Some("fast"));
        assert_eq!(c.sink, Some(ProgressSink::Stdout));
        assert_eq!(c.interval, PROGRESS_DEFAULT_INTERVAL);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains(PROGRESS_INTERVAL_ENV), "{warnings:?}");
    }

    #[test]
    fn disabled_progress_builds_nothing() {
        use sim_engine::CampaignCounters;
        let counters = CampaignCounters::new("t", 1, &[]);
        assert!(ProgressConfig::default().build(counters).unwrap().is_none());
        assert!(ProgressConfig::default()
            .build_resumed(CampaignCounters::new("t", 1, &[]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn repair_progress_tail_drops_torn_lines_and_finds_the_seq_cursor() {
        let dir = std::env::temp_dir().join(format!("swiftdir-obs-repair-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("hb.jsonl");

        // Missing file: fresh stream.
        assert_eq!(repair_progress_tail(&p).unwrap(), 0);

        let line = |seq: u64| {
            format!("{{\"schema\": \"swiftdir.progress.v1\", \"seq\": {seq}, \"done\": 1}}\n")
        };
        let mut text = line(4);
        text.push_str(&line(7));
        text.push_str("{\"schema\": \"swiftdir.progress.v1\", \"seq\": 9"); // torn by the kill
        std::fs::write(&p, &text).unwrap();

        assert_eq!(repair_progress_tail(&p).unwrap(), 8);
        let repaired = std::fs::read_to_string(&p).unwrap();
        assert!(repaired.ends_with('\n'), "torn tail must be truncated");
        assert_eq!(repaired.lines().count(), 2);
        // Repair is a fixpoint.
        assert_eq!(repair_progress_tail(&p).unwrap(), 8);

        std::fs::remove_dir_all(&dir).ok();
    }
}
