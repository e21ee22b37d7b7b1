//! `swiftdir-serve`: a durable experiment server for the SwiftDir
//! campaign machinery.
//!
//! The server owns a **job directory** — a filesystem spool that doubles
//! as the wire protocol, so submission works from any process (or shell)
//! with no sockets and no new dependencies:
//!
//! ```text
//! <dir>/queue/<id>.json        submitted jobs (swiftdir.job.v1)
//! <dir>/jobs/<id>/job.json     claimed job (renamed out of the queue)
//! <dir>/jobs/<id>/checkpoint.ckpt   swiftdir.ckpt.v1 work-unit journal
//! <dir>/jobs/<id>/progress.jsonl    swiftdir.progress.v1 heartbeats
//! <dir>/jobs/<id>/result.json      final result (swiftdir.result.v1);
//!                                   its presence marks the job done
//! <dir>/jobs/<id>/cancel           flag file: cooperative cancellation
//! </dir>
//! ```
//!
//! Every completed work unit is journaled to the checkpoint *before*
//! the campaign acknowledges it (see `swiftdir_core::campaign`), so a
//! `kill -9` at any instant loses at most the units in flight. On
//! restart the server scans `jobs/` for claimed-but-unfinished
//! directories and resumes each from its last durable checkpoint
//! record; because every work unit is seeded and self-contained, the
//! resumed campaign's final digest set is **bit-identical** to an
//! uninterrupted run at any thread count.
//!
//! Job specs ride the existing wire formats: fuzz jobs name a seed
//! grid exactly like `swiftdir-fuzz`'s flags, and explore jobs either
//! generate seeded contended streams or embed a `.stream` repro file
//! verbatim.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sim_engine::{CampaignCounters, Json, ProgressSampler};
use swiftdir_coherence::ProtocolKind;
use swiftdir_core::diff::{contended_stream, tiny_config};
use swiftdir_core::explore::{check_max_depth, ExploreConfig, EXPLORE_PHASES};
use swiftdir_core::fuzz::{FuzzConfig, FUZZ_PHASES};
use swiftdir_core::stream::StreamFile;
use swiftdir_core::{
    default_threads, explore_grid_digest, fuzz_grid_digest, run_explore_campaign_resumable,
    run_fuzz_campaign_resumable, CampaignOutcome, CancelToken, CheckpointWriter, CkptHeader,
    ExploreUnit, ProgressConfig, ProgressSink,
};

/// Schema tag on every job spec.
pub const JOB_SCHEMA: &str = "swiftdir.job.v1";

/// Schema tag on every job result.
pub const RESULT_SCHEMA: &str = "swiftdir.result.v1";

/// How often the job runner polls the `cancel` flag file.
const CANCEL_POLL: Duration = Duration::from_millis(50);

/// Per-process suffix keeping concurrently submitted job ids distinct.
static SUBMIT_SEQ: AtomicU64 = AtomicU64::new(0);

fn protocol_name(p: ProtocolKind) -> String {
    format!("{p:?}").to_ascii_lowercase()
}

/// Parses the protocol names the bins accept (`msi|mesi|smesi|swiftdir`).
pub fn parse_protocol(name: &str) -> Result<ProtocolKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "msi" => Ok(ProtocolKind::Msi),
        "mesi" => Ok(ProtocolKind::Mesi),
        "smesi" | "s-mesi" => Ok(ProtocolKind::SMesi),
        "swiftdir" => Ok(ProtocolKind::SwiftDir),
        other => Err(format!("unknown protocol {other:?}")),
    }
}

/// A fuzz job: the same (protocol × seed) grid `swiftdir-fuzz` runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzJob {
    /// Seeds `0..seeds` per protocol.
    pub seeds: u64,
    /// Protocols to sweep; empty means all four.
    pub protocols: Vec<ProtocolKind>,
    /// Per-run operation count override.
    pub ops: Option<usize>,
    /// Per-hop jitter override.
    pub jitter: Option<u64>,
}

impl FuzzJob {
    /// The work-unit grid this job fans out, in grid order.
    pub fn grid(&self) -> Vec<FuzzConfig> {
        let protocols: &[ProtocolKind] = if self.protocols.is_empty() {
            &ProtocolKind::ALL
        } else {
            &self.protocols
        };
        protocols
            .iter()
            .flat_map(|&protocol| {
                (0..self.seeds).map(move |seed| {
                    let mut cfg = FuzzConfig::new(seed, protocol);
                    if let Some(ops) = self.ops {
                        cfg.ops = ops;
                    }
                    if let Some(j) = self.jitter {
                        cfg.jitter_max = j;
                    }
                    cfg
                })
            })
            .collect()
    }
}

/// An explore job: seeded contended streams (like `swiftdir-explore`)
/// or an embedded `.stream` repro file, one schedule tree per unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreJob {
    /// Seeded streams `0..streams` per protocol (ignored when
    /// `stream_text` is set).
    pub streams: u64,
    /// Scenario shape for generated streams.
    pub cores: usize,
    pub blocks: usize,
    pub ops: usize,
    /// Exploration budgets.
    pub window: u64,
    pub max_depth: usize,
    /// Protocols to sweep; empty means all four (or, with an embedded
    /// stream, the protocol recorded in the file).
    pub protocols: Vec<ProtocolKind>,
    /// A `.stream` file embedded verbatim; its ops become the single
    /// stream explored under each protocol.
    pub stream_text: Option<String>,
}

impl Default for ExploreJob {
    fn default() -> Self {
        ExploreJob {
            streams: 4,
            cores: 2,
            blocks: 2,
            ops: 5,
            window: 48,
            max_depth: 4096,
            protocols: Vec::new(),
            stream_text: None,
        }
    }
}

impl ExploreJob {
    /// The work-unit grid plus the exploration budgets.
    ///
    /// # Errors
    ///
    /// Returns a message when the embedded `.stream` text is malformed.
    pub fn grid(&self) -> Result<(Vec<ExploreUnit>, ExploreConfig), String> {
        let ecfg = ExploreConfig {
            window: self.window,
            max_depth: self.max_depth,
            ..ExploreConfig::default()
        };
        let mut units = Vec::new();
        if let Some(text) = &self.stream_text {
            let file = StreamFile::parse(text)?;
            let protocols: Vec<ProtocolKind> = if self.protocols.is_empty() {
                vec![file.protocol]
            } else {
                self.protocols.clone()
            };
            for p in protocols {
                units.push(ExploreUnit {
                    cfg: tiny_config(file.cores, p),
                    stream: file.ops.clone(),
                });
            }
        } else {
            let protocols: &[ProtocolKind] = if self.protocols.is_empty() {
                &ProtocolKind::ALL
            } else {
                &self.protocols
            };
            for &p in protocols {
                let cfg = tiny_config(self.cores, p);
                for seed in 0..self.streams {
                    units.push(ExploreUnit {
                        cfg,
                        stream: contended_stream(seed, self.cores, self.blocks, self.ops, 0.3),
                    });
                }
            }
        }
        Ok((units, ecfg))
    }
}

/// What kind of work a job runs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    Fuzz(FuzzJob),
    Explore(ExploreJob),
}

impl JobKind {
    /// The wire name (`"fuzz"` / `"explore"`).
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Fuzz(_) => "fuzz",
            JobKind::Explore(_) => "explore",
        }
    }
}

/// One submitted job: the `swiftdir.job.v1` wire object.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Server-assigned id (empty until submitted).
    pub id: String,
    /// Worker-thread override for the campaign pool.
    pub threads: Option<usize>,
    pub kind: JobKind,
}

impl JobSpec {
    pub fn to_json(&self) -> Json {
        let mut m = vec![
            ("schema".to_string(), Json::from(JOB_SCHEMA)),
            ("id".to_string(), Json::Str(self.id.clone())),
            ("kind".to_string(), Json::from(self.kind.name())),
        ];
        if let Some(t) = self.threads {
            m.push(("threads".to_string(), Json::Uint(t as u64)));
        }
        let protocols =
            |ps: &[ProtocolKind]| Json::array(ps.iter().map(|&p| Json::Str(protocol_name(p))));
        match &self.kind {
            JobKind::Fuzz(f) => {
                m.push(("seeds".to_string(), Json::Uint(f.seeds)));
                if !f.protocols.is_empty() {
                    m.push(("protocols".to_string(), protocols(&f.protocols)));
                }
                if let Some(ops) = f.ops {
                    m.push(("ops".to_string(), Json::Uint(ops as u64)));
                }
                if let Some(j) = f.jitter {
                    m.push(("jitter".to_string(), Json::Uint(j)));
                }
            }
            JobKind::Explore(e) => {
                m.push(("streams".to_string(), Json::Uint(e.streams)));
                m.push(("cores".to_string(), Json::Uint(e.cores as u64)));
                m.push(("blocks".to_string(), Json::Uint(e.blocks as u64)));
                m.push(("ops".to_string(), Json::Uint(e.ops as u64)));
                m.push(("window".to_string(), Json::Uint(e.window)));
                m.push(("max_depth".to_string(), Json::Uint(e.max_depth as u64)));
                if !e.protocols.is_empty() {
                    m.push(("protocols".to_string(), protocols(&e.protocols)));
                }
                if let Some(text) = &e.stream_text {
                    m.push(("stream".to_string(), Json::Str(text.clone())));
                }
            }
        }
        Json::Object(m)
    }

    /// Parses a job spec, tolerating unknown fields.
    ///
    /// # Errors
    ///
    /// Returns a message on a foreign schema, unknown kind, or unknown
    /// protocol name.
    pub fn parse(j: &Json) -> Result<JobSpec, String> {
        let schema = j
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("job has no schema tag")?;
        if !schema.starts_with("swiftdir.job.") {
            return Err(format!("not a job spec (schema {schema:?})"));
        }
        let u = |k: &str| j.get(k).and_then(Json::as_u64);
        let protocols = j
            .get("protocols")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|p| parse_protocol(p.as_str().unwrap_or_default()))
            .collect::<Result<Vec<_>, _>>()?;
        let kind = match j.get("kind").and_then(Json::as_str).unwrap_or_default() {
            "fuzz" => JobKind::Fuzz(FuzzJob {
                seeds: u("seeds").unwrap_or(100),
                protocols,
                ops: u("ops").map(|v| v as usize),
                jitter: u("jitter"),
            }),
            "explore" => {
                let d = ExploreJob::default();
                JobKind::Explore(ExploreJob {
                    streams: u("streams").unwrap_or(d.streams),
                    cores: u("cores").map_or(d.cores, |v| v as usize),
                    blocks: u("blocks").map_or(d.blocks, |v| v as usize),
                    ops: u("ops").map_or(d.ops, |v| v as usize),
                    window: u("window").unwrap_or(d.window),
                    max_depth: u("max_depth").map_or(Ok(d.max_depth), check_max_depth)?,
                    protocols,
                    stream_text: j.get("stream").and_then(Json::as_str).map(str::to_string),
                })
            }
            other => return Err(format!("unknown job kind {other:?}")),
        };
        Ok(JobSpec {
            id: j
                .get("id")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            threads: u("threads").map(|v| v as usize),
            kind,
        })
    }
}

/// A finished job: the `swiftdir.result.v1` wire object. Its presence
/// on disk (`result.json`) is what marks a job done.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    pub id: String,
    pub kind: String,
    /// Completed with zero failing units and no cancellation.
    pub ok: bool,
    /// Stopped early by the `cancel` flag file.
    pub cancelled: bool,
    /// Completed work units (resumed + fresh).
    pub units: u64,
    /// Units run by the final invocation.
    pub fresh: u64,
    /// Units replayed from the checkpoint journal.
    pub resumed: u64,
    /// Units whose record carries a failure.
    pub failures: u64,
    /// The campaign's final digest set (`digest_set_fnv`) — the value
    /// the kill/resume determinism guarantee is stated over.
    pub digest_set: u64,
}

impl JobResult {
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema", Json::from(RESULT_SCHEMA)),
            ("id", Json::Str(self.id.clone())),
            ("kind", Json::Str(self.kind.clone())),
            ("ok", Json::Bool(self.ok)),
            ("cancelled", Json::Bool(self.cancelled)),
            ("units", Json::Uint(self.units)),
            ("fresh", Json::Uint(self.fresh)),
            ("resumed", Json::Uint(self.resumed)),
            ("failures", Json::Uint(self.failures)),
            ("digest_set", Json::Uint(self.digest_set)),
        ])
    }

    /// Parses a result, tolerating unknown fields.
    ///
    /// # Errors
    ///
    /// Returns a message on a foreign schema tag.
    pub fn parse(j: &Json) -> Result<JobResult, String> {
        let schema = j
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("result has no schema tag")?;
        if !schema.starts_with("swiftdir.result.") {
            return Err(format!("not a job result (schema {schema:?})"));
        }
        let u = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        let b = |k: &str| matches!(j.get(k), Some(Json::Bool(true)));
        Ok(JobResult {
            id: j
                .get("id")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            kind: j
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            ok: b("ok"),
            cancelled: b("cancelled"),
            units: u("units"),
            fresh: u("fresh"),
            resumed: u("resumed"),
            failures: u("failures"),
            digest_set: u("digest_set"),
        })
    }
}

/// Where a job stands, as visible from the spool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, not yet claimed by a server.
    Queued,
    /// Claimed but unfinished: running now, or awaiting resume after a
    /// kill — indistinguishable from outside the server process.
    InFlight,
    /// `result.json` present.
    Done,
}

/// One row of `swiftdir-serve status`.
#[derive(Debug, Clone)]
pub struct JobStatus {
    pub id: String,
    pub state: JobState,
    /// The parsed result, when done.
    pub result: Option<JobResult>,
    /// `(done, total)` from the job's last durable heartbeat.
    pub progress: Option<(u64, u64)>,
}

/// What one `Server::run` invocation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs claimed from the queue and run.
    pub jobs_run: usize,
    /// Interrupted jobs resumed from their checkpoints at startup.
    pub jobs_resumed: usize,
}

/// The job-directory server. All state lives under `dir`; any number
/// of submitters may write the queue while one server drains it.
#[derive(Debug, Clone)]
pub struct Server {
    dir: PathBuf,
    /// Queue poll interval when idle (non-drain mode).
    pub poll: Duration,
}

impl Server {
    pub fn new(dir: impl Into<PathBuf>) -> Server {
        Server {
            dir: dir.into(),
            poll: Duration::from_millis(200),
        }
    }

    /// The spool root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn queue_dir(&self) -> PathBuf {
        self.dir.join("queue")
    }

    fn jobs_dir(&self) -> PathBuf {
        self.dir.join("jobs")
    }

    /// The directory holding one job's journal, heartbeats, and result.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.jobs_dir().join(id)
    }

    /// Submits `spec` to the queue, assigning and returning its id.
    /// The queue file lands atomically (write + rename), so a server
    /// mid-scan never sees a half-written spec.
    ///
    /// # Errors
    ///
    /// Propagates spool I/O failures.
    pub fn submit(&self, spec: &JobSpec) -> io::Result<String> {
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let id = format!(
            "j{secs:012}-{:06}-{:04}",
            std::process::id(),
            SUBMIT_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let spec = JobSpec {
            id: id.clone(),
            ..spec.clone()
        };
        std::fs::create_dir_all(self.queue_dir())?;
        write_atomic(
            &self.queue_dir().join(format!("{id}.json")),
            &render(&spec.to_json()),
        )?;
        Ok(id)
    }

    /// Trips a job's cancel flag. Returns whether the job exists (in
    /// the queue or claimed). Cancelling a queued job marks it so the
    /// server finishes it immediately with a cancelled result.
    ///
    /// # Errors
    ///
    /// Propagates spool I/O failures.
    pub fn cancel(&self, id: &str) -> io::Result<bool> {
        let claimed = self.job_dir(id);
        if claimed.exists() {
            std::fs::write(claimed.join("cancel"), b"")?;
            return Ok(true);
        }
        let queued = self.queue_dir().join(format!("{id}.json"));
        if queued.exists() {
            std::fs::create_dir_all(&claimed)?;
            std::fs::write(claimed.join("cancel"), b"")?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Every job the spool knows about, queued first, then claimed,
    /// each group sorted by id (submission order).
    ///
    /// # Errors
    ///
    /// Propagates spool I/O failures.
    pub fn status(&self) -> io::Result<Vec<JobStatus>> {
        let mut rows = Vec::new();
        for id in sorted_ids(&self.queue_dir(), ".json")? {
            rows.push(JobStatus {
                id,
                state: JobState::Queued,
                result: None,
                progress: None,
            });
        }
        for id in sorted_ids(&self.jobs_dir(), "")? {
            let jdir = self.job_dir(&id);
            let result = std::fs::read_to_string(jdir.join("result.json"))
                .ok()
                .and_then(|t| Json::parse(&t).ok())
                .and_then(|j| JobResult::parse(&j).ok());
            let progress = last_heartbeat(&jdir.join("progress.jsonl"));
            rows.push(JobStatus {
                state: if result.is_some() {
                    JobState::Done
                } else {
                    JobState::InFlight
                },
                id,
                result,
                progress,
            });
        }
        Ok(rows)
    }

    /// Runs the server: first resumes every claimed-but-unfinished job
    /// (the `kill -9` recovery path), then drains the queue. With
    /// `drain` the call returns once the queue is empty; otherwise it
    /// keeps polling until `stop` is tripped (checked between jobs and
    /// between polls — in-flight jobs finish their current units and
    /// checkpoint, exactly like a cancel).
    ///
    /// # Errors
    ///
    /// Propagates spool I/O failures. A malformed queued spec is not
    /// fatal: it is reported on stderr and moved aside as
    /// `<id>.json.rejected`.
    pub fn run(&self, drain: bool, stop: Option<&CancelToken>) -> io::Result<ServeSummary> {
        std::fs::create_dir_all(self.queue_dir())?;
        std::fs::create_dir_all(self.jobs_dir())?;
        let stopped = || stop.is_some_and(CancelToken::is_cancelled);
        let mut summary = ServeSummary::default();

        // Recovery pass: anything claimed without a result was
        // interrupted (by a kill or a stop) — resume it first, in
        // submission order.
        for id in sorted_ids(&self.jobs_dir(), "")? {
            if stopped() {
                return Ok(summary);
            }
            let jdir = self.job_dir(&id);
            if jdir.join("result.json").exists() || !jdir.join("job.json").exists() {
                continue;
            }
            let spec = read_spec(&jdir.join("job.json"))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let result = self.run_job(&spec, stop)?;
            summary.jobs_resumed += 1;
            eprintln!(
                "swiftdir-serve: resumed {id}: {} units ({} fresh), digest_set {:#018x}",
                result.units, result.fresh, result.digest_set
            );
        }

        loop {
            if stopped() {
                return Ok(summary);
            }
            match self.claim_next()? {
                Some(spec) => {
                    let result = self.run_job(&spec, stop)?;
                    summary.jobs_run += 1;
                    eprintln!(
                        "swiftdir-serve: finished {}: ok={} {} units, digest_set {:#018x}",
                        spec.id, result.ok, result.units, result.digest_set
                    );
                }
                None if drain => return Ok(summary),
                None => std::thread::sleep(self.poll),
            }
        }
    }

    /// Claims the oldest queued job: renames its spec into the job
    /// directory (rename is the commit point — a killed server never
    /// leaves a job both queued and claimed).
    fn claim_next(&self) -> io::Result<Option<JobSpec>> {
        for id in sorted_ids(&self.queue_dir(), ".json")? {
            let queued = self.queue_dir().join(format!("{id}.json"));
            let jdir = self.job_dir(&id);
            std::fs::create_dir_all(&jdir)?;
            std::fs::rename(&queued, jdir.join("job.json"))?;
            match read_spec(&jdir.join("job.json")) {
                Ok(spec) => return Ok(Some(spec)),
                Err(e) => {
                    eprintln!("swiftdir-serve: rejecting {id}: {e}");
                    std::fs::rename(
                        jdir.join("job.json"),
                        self.queue_dir().join(format!("{id}.json.rejected")),
                    )?;
                }
            }
        }
        Ok(None)
    }

    /// Runs (or resumes) one claimed job to its result. The campaign
    /// checkpoints every completed unit; the result file lands
    /// atomically at the end, so a kill anywhere in between leaves a
    /// resumable job, never a half-done "done".
    ///
    /// # Errors
    ///
    /// Propagates journal/result I/O failures.
    pub fn run_job(&self, spec: &JobSpec, stop: Option<&CancelToken>) -> io::Result<JobResult> {
        let jdir = self.job_dir(&spec.id);
        let ckpt_path = jdir.join("checkpoint.ckpt");
        let resuming = ckpt_path.exists();
        let threads = spec.threads.unwrap_or_else(default_threads);

        // Cancellation: the job's flag file, the server's stop token,
        // or both. A watcher thread folds the flag file into the
        // in-process token at CANCEL_POLL granularity.
        let token = CancelToken::new();
        // Synchronous pre-check: a job cancelled while still queued
        // must not claim a single unit.
        if jdir.join("cancel").exists() || stop.is_some_and(CancelToken::is_cancelled) {
            token.cancel();
        }
        let watch_stop = Arc::new(AtomicBool::new(false));
        let watcher = {
            let token = token.clone();
            let stop = stop.cloned();
            let flag = jdir.join("cancel");
            let watch_stop = Arc::clone(&watch_stop);
            std::thread::spawn(move || {
                while !watch_stop.load(Ordering::Relaxed) {
                    if flag.exists() || stop.as_ref().is_some_and(CancelToken::is_cancelled) {
                        token.cancel();
                        break;
                    }
                    std::thread::sleep(CANCEL_POLL);
                }
            })
        };

        let pcfg = ProgressConfig {
            sink: Some(ProgressSink::File(jdir.join("progress.jsonl"))),
            interval: Duration::from_millis(100),
        };
        let build_sampler = |counters: CampaignCounters| {
            if resuming {
                pcfg.build_resumed(counters)
            } else {
                pcfg.build(counters)
            }
        };

        let header = |kind: &str, config_digest: u64, total: usize| CkptHeader {
            kind: kind.to_string(),
            campaign: spec.id.clone(),
            config_digest,
            total: total as u64,
        };
        let (result, complete) = match &spec.kind {
            JobKind::Fuzz(f) => {
                let grid = f.grid();
                let header = header("fuzz", fuzz_grid_digest(&grid), grid.len());
                let (mut writer, resumed_units) = CheckpointWriter::resume(&ckpt_path, &header)?;
                let sampler = build_sampler(CampaignCounters::new("fuzz", threads, &FUZZ_PHASES))?;
                let out = run_fuzz_campaign_resumable(
                    &grid,
                    Some(threads),
                    sampler.as_ref(),
                    Some(&mut writer),
                    resumed_units,
                    Some(&token),
                )?;
                job_result(spec, &out, sampler.as_deref())
            }
            JobKind::Explore(e) => {
                let (grid, ecfg) = e
                    .grid()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                let header = header("explore", explore_grid_digest(&grid, &ecfg), grid.len());
                let (mut writer, resumed_units) = CheckpointWriter::resume(&ckpt_path, &header)?;
                let sampler =
                    build_sampler(CampaignCounters::new("explore", threads, &EXPLORE_PHASES))?;
                let out = run_explore_campaign_resumable(
                    &grid,
                    &ecfg,
                    Some(threads),
                    sampler.as_ref(),
                    Some(&mut writer),
                    resumed_units,
                    Some(&token),
                )?;
                job_result(spec, &out, sampler.as_deref())
            }
        };
        watch_stop.store(true, Ordering::Relaxed);
        let _ = watcher.join();

        // A server *stop* leaves the job resumable; a per-job *cancel*
        // finalizes it as cancelled so a restart will not revive it.
        let job_cancelled = result.cancelled && !stop.is_some_and(CancelToken::is_cancelled);
        if complete || job_cancelled {
            write_atomic(&jdir.join("result.json"), &render(&result.to_json()))?;
        }
        Ok(result)
    }
}

/// A finished (or stopped) campaign's job result, plus whether every
/// unit completed. A complete campaign's heartbeat stream is finished.
fn job_result<R>(
    spec: &JobSpec,
    out: &CampaignOutcome<R>,
    sampler: Option<&ProgressSampler>,
) -> (JobResult, bool) {
    let complete = out.complete();
    if let Some(s) = sampler.filter(|_| complete) {
        s.finish();
    }
    let failures = out.failures() as u64;
    let result = JobResult {
        id: spec.id.clone(),
        kind: spec.kind.name().to_string(),
        ok: complete && failures == 0,
        cancelled: out.cancelled,
        units: out.units.len() as u64,
        fresh: out.fresh as u64,
        resumed: out.resumed as u64,
        failures,
        digest_set: out.digest_set_fnv(),
    };
    (result, complete)
}

/// Entry names under `dir` with `suffix` stripped, sorted (ids embed
/// the submission timestamp, so lexicographic order is queue order).
fn sorted_ids(dir: &Path, suffix: &str) -> io::Result<Vec<String>> {
    let mut ids = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(ids),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = name.strip_suffix(suffix) {
            ids.push(id.to_string());
        }
    }
    ids.sort();
    Ok(ids)
}

fn read_spec(path: &Path) -> Result<JobSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    JobSpec::parse(&j)
}

/// `(done, total)` from the last parseable heartbeat line, if any.
fn last_heartbeat(path: &Path) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .rev()
        .find_map(|l| sim_engine::ProgressRecord::parse_line(l).ok())
        .map(|r| (r.done, r.total))
}

fn render(j: &Json) -> String {
    let mut s = String::new();
    j.write(&mut s);
    s.push('\n');
    s
}

/// Writes `text` then renames into place, so readers only ever see a
/// complete file.
fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftdir_core::Checkpoint;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swiftdir-serve-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_fuzz_spec() -> JobSpec {
        JobSpec {
            id: String::new(),
            threads: Some(2),
            kind: JobKind::Fuzz(FuzzJob {
                seeds: 4,
                protocols: vec![ProtocolKind::SwiftDir, ProtocolKind::Mesi],
                ops: Some(40),
                jitter: None,
            }),
        }
    }

    #[test]
    fn job_and_result_wire_formats_round_trip() {
        let mut spec = small_fuzz_spec();
        spec.id = "j42".to_string();
        assert_eq!(JobSpec::parse(&spec.to_json()).unwrap(), spec);

        let explore = JobSpec {
            id: "j43".to_string(),
            threads: None,
            kind: JobKind::Explore(ExploreJob {
                protocols: vec![ProtocolKind::Msi],
                stream_text: Some("# swiftdir-stream v1\n0 0 L 0x0\n".to_string()),
                ..ExploreJob::default()
            }),
        };
        assert_eq!(JobSpec::parse(&explore.to_json()).unwrap(), explore);

        let result = JobResult {
            id: "j42".to_string(),
            kind: "fuzz".to_string(),
            ok: true,
            cancelled: false,
            units: 8,
            fresh: 5,
            resumed: 3,
            failures: 0,
            digest_set: u64::MAX - 7,
        };
        assert_eq!(JobResult::parse(&result.to_json()).unwrap(), result);

        assert!(JobSpec::parse(&Json::object([("schema", Json::from("nope"))])).is_err());
    }

    #[test]
    fn oversized_max_depth_is_rejected() {
        let job = |depth: u64| {
            Json::object([
                ("schema", Json::from(JOB_SCHEMA)),
                ("kind", Json::from("explore")),
                ("max_depth", Json::Uint(depth)),
            ])
        };
        let limit = swiftdir_core::explore::MAX_DEPTH_LIMIT as u64;
        let JobKind::Explore(e) = JobSpec::parse(&job(limit)).unwrap().kind else {
            panic!("not an explore job");
        };
        assert_eq!(e.max_depth, limit as usize);
        for depth in [limit + 1, 1_000_000, u64::MAX] {
            let err = JobSpec::parse(&job(depth)).unwrap_err();
            assert!(err.contains("max_depth"), "{err}");
        }
    }

    #[test]
    fn submit_drain_produces_a_result_and_status_tracks_it() {
        let server = Server::new(tempdir("drain"));
        let id = server.submit(&small_fuzz_spec()).unwrap();

        let rows = server.status().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].state, JobState::Queued);

        let summary = server.run(true, None).unwrap();
        assert_eq!(summary.jobs_run, 1);

        let rows = server.status().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].state, JobState::Done);
        let result = rows[0].result.as_ref().unwrap();
        assert!(result.ok);
        assert_eq!(result.id, id);
        assert_eq!(result.units, 8);
        assert_eq!(result.resumed, 0);
        // The checkpoint journal agrees with the published digest set.
        let ckpt = Checkpoint::load(&server.job_dir(&id).join("checkpoint.ckpt"))
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.digest_set_fnv(), result.digest_set);
        std::fs::remove_dir_all(server.dir()).ok();
    }

    #[test]
    fn interrupted_job_resumes_to_the_uninterrupted_digest_set() {
        // Baseline: an uninterrupted run of the same spec.
        let baseline = Server::new(tempdir("resume-base"));
        let base_id = baseline.submit(&small_fuzz_spec()).unwrap();
        baseline.run(true, None).unwrap();
        let base = baseline.status().unwrap()[0].result.clone().unwrap();

        // Interrupted: claim the job, journal only a prefix of the
        // units (what a kill -9 mid-campaign leaves), then restart.
        let server = Server::new(tempdir("resume-cut"));
        let id = server.submit(&small_fuzz_spec()).unwrap();
        let jdir = server.job_dir(&id);
        std::fs::create_dir_all(&jdir).unwrap();
        std::fs::rename(
            server.dir().join("queue").join(format!("{id}.json")),
            jdir.join("job.json"),
        )
        .unwrap();
        let full = Checkpoint::load(&baseline.job_dir(&base_id).join("checkpoint.ckpt"))
            .unwrap()
            .unwrap();
        let grid = match &small_fuzz_spec().kind {
            JobKind::Fuzz(f) => f.grid(),
            _ => unreachable!(),
        };
        let header = CkptHeader {
            kind: "fuzz".to_string(),
            campaign: id.clone(),
            config_digest: fuzz_grid_digest(&grid),
            total: grid.len() as u64,
        };
        let mut w = CheckpointWriter::create(&jdir.join("checkpoint.ckpt"), &header).unwrap();
        for u in &full.units[..3] {
            w.record(u).unwrap();
        }
        drop(w);

        let summary = server.run(true, None).unwrap();
        assert_eq!(summary.jobs_resumed, 1);
        let resumed = server.status().unwrap()[0].result.clone().unwrap();
        assert!(resumed.ok);
        assert_eq!(resumed.resumed, 3);
        assert_eq!(resumed.fresh, 5);
        assert_eq!(
            resumed.digest_set, base.digest_set,
            "resume must be bit-identical to the uninterrupted run"
        );
        std::fs::remove_dir_all(baseline.dir()).ok();
        std::fs::remove_dir_all(server.dir()).ok();
    }

    #[test]
    fn cancelled_queued_job_finishes_as_cancelled_not_ok() {
        let server = Server::new(tempdir("cancel"));
        let id = server.submit(&small_fuzz_spec()).unwrap();
        assert!(server.cancel(&id).unwrap());
        assert!(!server.cancel("no-such-job").unwrap());

        server.run(true, None).unwrap();
        let result = server.status().unwrap()[0].result.clone().unwrap();
        assert!(result.cancelled);
        assert!(!result.ok);
        assert_eq!(result.fresh, 0, "a pre-cancelled job must run nothing");
        std::fs::remove_dir_all(server.dir()).ok();
    }

    #[test]
    fn explore_job_runs_and_checkpoints() {
        let server = Server::new(tempdir("explore"));
        let id = server
            .submit(&JobSpec {
                id: String::new(),
                threads: Some(2),
                kind: JobKind::Explore(ExploreJob {
                    streams: 2,
                    protocols: vec![ProtocolKind::SwiftDir],
                    ..ExploreJob::default()
                }),
            })
            .unwrap();
        server.run(true, None).unwrap();
        let result = server.status().unwrap()[0].result.clone().unwrap();
        assert!(result.ok, "{result:?}");
        assert_eq!(result.units, 2);
        let ckpt = Checkpoint::load(&server.job_dir(&id).join("checkpoint.ckpt"))
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.header.kind, "explore");
        assert!(ckpt.units.iter().all(|u| u.schedules > 0));
        std::fs::remove_dir_all(server.dir()).ok();
    }
}
