//! Durable campaign checkpoints: the `swiftdir.ckpt.v1` journal.
//!
//! A checkpoint is an **append-only JSONL journal**: one header line
//! identifying the campaign (kind, grid digest, unit total), then one
//! line per *completed work unit* — its grid index, its completion
//! digest, and the counters the unit contributed. Units land in
//! completion order (arbitrary under work stealing); resume identifies
//! finished work by index, so order never matters.
//!
//! The format is built to survive `kill -9`:
//!
//! * every record is written and flushed as a single `line + '\n'`;
//! * only lines terminated by `'\n'` count — a torn trailing fragment
//!   (the write the kill interrupted) is detected and dropped;
//! * [`CheckpointWriter::resume`] truncates the file back to the last
//!   durable record before appending, so a journal repaired once stays
//!   parseable forever;
//! * the header's `config_digest` fingerprints the work-unit grid, so a
//!   checkpoint can never silently resume a *different* campaign.
//!
//! Digests are serialized as plain JSON integers — the in-tree parser
//! round-trips `u64` exactly (no float path), so checkpoints preserve
//! them bit for bit.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, Write};
use std::path::Path;

use sim_engine::Json;

use crate::fuzz::FuzzConfig;

/// Schema tag on the journal header line.
pub const CKPT_SCHEMA: &str = "swiftdir.ckpt.v1";

/// The journal header: what campaign this checkpoint belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptHeader {
    /// Work-unit kind: `"fuzz"` or `"explore"`.
    pub kind: String,
    /// Campaign name (matches the heartbeat stream's `campaign`).
    pub campaign: String,
    /// FNV fingerprint of the work-unit grid. Resume refuses a journal
    /// whose digest does not match the grid it is asked to resume.
    pub config_digest: u64,
    /// Total units in the grid.
    pub total: u64,
}

impl CkptHeader {
    fn to_json(&self) -> Json {
        Json::object([
            ("schema", Json::Str(CKPT_SCHEMA.to_string())),
            ("kind", Json::Str(self.kind.clone())),
            ("campaign", Json::Str(self.campaign.clone())),
            ("config_digest", Json::Uint(self.config_digest)),
            ("total", Json::Uint(self.total)),
        ])
    }

    fn parse(j: &Json) -> Result<CkptHeader, String> {
        let schema = j
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("header missing schema")?;
        if !schema.starts_with("swiftdir.ckpt.") {
            return Err(format!("not a checkpoint journal (schema {schema:?})"));
        }
        Ok(CkptHeader {
            kind: j
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            campaign: j
                .get("campaign")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            config_digest: j
                .get("config_digest")
                .and_then(Json::as_u64)
                .ok_or("header missing config_digest")?,
            total: j.get("total").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

/// One completed work unit: the durable record resume skips by.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitRecord {
    /// Index into the campaign's work-unit grid.
    pub index: u64,
    /// The unit's completion digest (fuzz report digest or explore
    /// report digest) — the value the final digest set is built from.
    pub digest: u64,
    /// Events the unit dispatched.
    pub events: u64,
    /// Completions the unit observed (fuzz) — zero for explore units.
    pub completions: u64,
    /// Schedules the unit walked (explore) — zero for fuzz units.
    pub schedules: u64,
    /// Steps the unit dispatched (explore) — zero for fuzz units.
    pub steps: u64,
    /// Boundary tasks the unit emitted (the explorer's boundary-task
    /// ledger) — zero for fuzz units.
    pub tasks: u64,
    /// The failure rendering, if the unit failed (failures are results
    /// too: a resumed campaign must not re-run them).
    pub failure: Option<String>,
}

impl UnitRecord {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("unit".to_string(), Json::Uint(self.index)),
            ("digest".to_string(), Json::Uint(self.digest)),
            ("events".to_string(), Json::Uint(self.events)),
            ("completions".to_string(), Json::Uint(self.completions)),
            ("schedules".to_string(), Json::Uint(self.schedules)),
            ("steps".to_string(), Json::Uint(self.steps)),
            ("tasks".to_string(), Json::Uint(self.tasks)),
        ];
        if let Some(f) = &self.failure {
            members.push(("failure".to_string(), Json::Str(f.clone())));
        }
        Json::Object(members)
    }

    fn parse(j: &Json) -> Result<UnitRecord, String> {
        Ok(UnitRecord {
            index: j
                .get("unit")
                .and_then(Json::as_u64)
                .ok_or("unit record missing index")?,
            digest: j
                .get("digest")
                .and_then(Json::as_u64)
                .ok_or("unit record missing digest")?,
            events: j.get("events").and_then(Json::as_u64).unwrap_or(0),
            completions: j.get("completions").and_then(Json::as_u64).unwrap_or(0),
            schedules: j.get("schedules").and_then(Json::as_u64).unwrap_or(0),
            steps: j.get("steps").and_then(Json::as_u64).unwrap_or(0),
            tasks: j.get("tasks").and_then(Json::as_u64).unwrap_or(0),
            failure: j.get("failure").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// A parsed journal: the header, the completed units (deduplicated by
/// index, first record in the journal wins), and how much of the file
/// was durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub header: CkptHeader,
    /// Completed units sorted by index.
    pub units: Vec<UnitRecord>,
    /// Bytes of the journal text covered by durable records. Anything
    /// past this offset is a torn tail to truncate before appending.
    pub durable_bytes: usize,
    /// Whether a torn trailing fragment was dropped.
    pub torn: bool,
}

impl Checkpoint {
    /// Parses a journal, tolerating a torn trailing line (the record a
    /// `kill -9` interrupted mid-write). Returns an error only when the
    /// header itself is missing or malformed.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let mut durable = 0usize;
        let mut lines = JournalLines::new(text);
        let (header_line, header_end) = lines.next().ok_or("empty checkpoint journal")?;
        let header = Json::parse(header_line)
            .map_err(|e| format!("checkpoint header: {e}"))
            .and_then(|j| CkptHeader::parse(&j))?;
        durable = durable.max(header_end);

        let mut units: Vec<UnitRecord> = Vec::new();
        let mut torn = false;
        for (line, end) in lines {
            // `end == 0` marks an unterminated final fragment: even if
            // it parses, the trailing newline never hit the disk, so it
            // may be a partial write — drop it.
            let parsed = if end == 0 {
                None
            } else {
                Json::parse(line)
                    .ok()
                    .and_then(|j| UnitRecord::parse(&j).ok())
            };
            match parsed {
                Some(u) => {
                    units.push(u);
                    durable = end;
                }
                None => {
                    // First bad line: everything after it is not
                    // trustworthy. Stop and report the tail as torn.
                    torn = true;
                    break;
                }
            }
        }
        units.sort_by_key(|u| u.index);
        units.dedup_by_key(|u| u.index);
        Ok(Checkpoint {
            header,
            units,
            durable_bytes: durable,
            torn,
        })
    }

    /// Loads and parses `path`; `Ok(None)` when the file does not exist.
    pub fn load(path: &Path) -> io::Result<Option<Checkpoint>> {
        let mut text = String::new();
        match File::open(path) {
            Ok(mut f) => f.read_to_string(&mut text).map(|_| ())?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        }
        Checkpoint::parse(&text)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// The campaign's digest set folded to one FNV value: `(index,
    /// digest)` pairs in index order. Bit-identical for any interleaving
    /// of resumes that completes the same grid.
    pub fn digest_set_fnv(&self) -> u64 {
        digest_set_fnv(&self.units)
    }
}

/// FNV-1a over `(index, digest)` of `units` in index order — the "final
/// digest set" a resumed campaign must reproduce bit for bit.
pub fn digest_set_fnv(units: &[UnitRecord]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = units.iter().map(|u| (u.index, u.digest)).collect();
    sorted.sort_unstable();
    let mut f = Fnv::new();
    for (i, d) in sorted {
        f.mix(i);
        f.mix(d);
    }
    f.0
}

/// FNV fingerprint of a fuzz grid: every field of every config, in grid
/// order. Two grids resume-compatible iff their digests match.
pub fn fuzz_grid_digest(grid: &[FuzzConfig]) -> u64 {
    let mut f = Fnv::new();
    f.mix(grid.len() as u64);
    for cfg in grid {
        f.mix(cfg.seed);
        f.mix(cfg.protocol as u64);
        f.mix(cfg.cores as u64);
        f.mix(cfg.blocks as u64);
        f.mix(cfg.ops as u64);
        f.mix(cfg.jitter_max);
        f.mix(cfg.store_fraction.to_bits());
        f.mix(cfg.wp_fraction.to_bits());
        f.mix(cfg.banks as u64);
    }
    f.0
}

/// Appends durable [`UnitRecord`]s to a journal, one flushed line each.
#[derive(Debug)]
pub struct CheckpointWriter {
    out: BufWriter<File>,
    line: String,
}

impl CheckpointWriter {
    /// Starts a fresh journal at `path` (truncating any previous one)
    /// and writes the header.
    pub fn create(path: &Path, header: &CkptHeader) -> io::Result<CheckpointWriter> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = CheckpointWriter {
            out: BufWriter::new(File::create(path)?),
            line: String::new(),
        };
        w.write_json(&header.to_json())?;
        Ok(w)
    }

    /// Resumes the journal at `path`: parses it, verifies it belongs to
    /// the same campaign (`config_digest`), repairs a torn tail by
    /// truncating to the last durable record, and opens for append.
    /// Returns the writer plus the units already completed.
    ///
    /// A missing file degrades to [`CheckpointWriter::create`] with no
    /// completed units — "resume from nothing" is a fresh start.
    pub fn resume(
        path: &Path,
        header: &CkptHeader,
    ) -> io::Result<(CheckpointWriter, Vec<UnitRecord>)> {
        let Some(ckpt) = Checkpoint::load(path)? else {
            return Ok((CheckpointWriter::create(path, header)?, Vec::new()));
        };
        if ckpt.header.config_digest != header.config_digest {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint {} belongs to a different campaign \
                     (journal config_digest {:#x}, grid {:#x})",
                    path.display(),
                    ckpt.header.config_digest,
                    header.config_digest
                ),
            ));
        }
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(ckpt.durable_bytes as u64)?;
        let mut out = BufWriter::new(file);
        out.get_mut().seek(io::SeekFrom::End(0))?;
        Ok((
            CheckpointWriter {
                out,
                line: String::new(),
            },
            ckpt.units,
        ))
    }

    /// Journals one completed unit: a single line, written and flushed
    /// atomically enough that a kill leaves at most one torn tail.
    pub fn record(&mut self, unit: &UnitRecord) -> io::Result<()> {
        self.write_json(&unit.to_json())
    }

    fn write_json(&mut self, j: &Json) -> io::Result<()> {
        self.line.clear();
        j.write(&mut self.line);
        self.line.push('\n');
        self.out.write_all(self.line.as_bytes())?;
        self.out.flush()
    }
}

/// Iterates `(line, end_offset)` pairs; `end_offset` is the byte offset
/// just past the line's `'\n'`, or **0** for a final unterminated
/// fragment (which is never durable).
struct JournalLines<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> JournalLines<'a> {
    fn new(text: &'a str) -> Self {
        JournalLines { text, pos: 0 }
    }
}

impl<'a> Iterator for JournalLines<'a> {
    type Item = (&'a str, usize);

    fn next(&mut self) -> Option<(&'a str, usize)> {
        if self.pos >= self.text.len() {
            return None;
        }
        let rest = &self.text[self.pos..];
        match rest.find('\n') {
            Some(nl) => {
                let line = &rest[..nl];
                self.pos += nl + 1;
                Some((line, self.pos))
            }
            None => {
                self.pos = self.text.len();
                Some((rest, 0))
            }
        }
    }
}

pub(crate) struct Fnv(pub u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftdir_coherence::ProtocolKind;

    fn header() -> CkptHeader {
        CkptHeader {
            kind: "fuzz".to_string(),
            campaign: "fuzz".to_string(),
            config_digest: 0xdead_beef_0bad_cafe,
            total: 3,
        }
    }

    fn unit(i: u64) -> UnitRecord {
        UnitRecord {
            index: i,
            digest: 0x1000 + i,
            events: 10 * i,
            completions: i,
            failure: (i == 2).then(|| "Invariant: planted".to_string()),
            ..UnitRecord::default()
        }
    }

    fn journal_text(units: &[UnitRecord]) -> String {
        let dir = std::env::temp_dir().join(format!("swiftdir-ckpt-test-{}", std::process::id()));
        let path = dir.join("j.ckpt");
        let mut w = CheckpointWriter::create(&path, &header()).unwrap();
        for u in units {
            w.record(u).unwrap();
        }
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        text
    }

    #[test]
    fn journal_round_trips() {
        let units: Vec<UnitRecord> = (0..3).map(unit).collect();
        let text = journal_text(&units);
        let ckpt = Checkpoint::parse(&text).unwrap();
        assert_eq!(ckpt.header, header());
        assert_eq!(ckpt.units, units);
        assert!(!ckpt.torn);
        assert_eq!(ckpt.durable_bytes, text.len());
    }

    #[test]
    fn torn_tail_is_dropped_at_every_cut_point() {
        // Truncating the journal at any byte must still parse to a
        // prefix of the completed units — never an error, never a
        // record the full journal does not contain.
        let units: Vec<UnitRecord> = (0..3).map(unit).collect();
        let text = journal_text(&units);
        let header_end = text.find('\n').unwrap() + 1;
        for cut in header_end..=text.len() {
            let ckpt =
                Checkpoint::parse(&text[..cut]).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert!(
                ckpt.units.iter().all(|u| units.contains(u)),
                "cut at {cut} invented a record"
            );
            assert!(ckpt.durable_bytes <= cut);
            // Re-parsing only the durable prefix is a fixpoint.
            let repaired = Checkpoint::parse(&text[..ckpt.durable_bytes]).unwrap();
            assert_eq!(repaired.units, ckpt.units);
            assert!(!repaired.torn, "repaired journal still torn at {cut}");
        }
    }

    #[test]
    fn resume_repairs_torn_tail_and_appends() {
        let dir = std::env::temp_dir().join(format!("swiftdir-ckpt-resume-{}", std::process::id()));
        let path = dir.join("j.ckpt");
        let mut w = CheckpointWriter::create(&path, &header()).unwrap();
        w.record(&unit(0)).unwrap();
        w.record(&unit(1)).unwrap();
        drop(w);
        // Simulate a kill mid-write: append half a record.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{full}{{\"unit\":2,\"dig")).unwrap();

        let (mut w, done) = CheckpointWriter::resume(&path, &header()).unwrap();
        assert_eq!(done, vec![unit(0), unit(1)]);
        w.record(&unit(2)).unwrap();
        drop(w);

        let ckpt = Checkpoint::load(&path).unwrap().unwrap();
        assert_eq!(ckpt.units, vec![unit(0), unit(1), unit(2)]);
        assert!(!ckpt.torn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_a_different_campaign() {
        let dir = std::env::temp_dir().join(format!("swiftdir-ckpt-refuse-{}", std::process::id()));
        let path = dir.join("j.ckpt");
        drop(CheckpointWriter::create(&path, &header()).unwrap());
        let other = CkptHeader {
            config_digest: 1,
            ..header()
        };
        let err = CheckpointWriter::resume(&path, &other).unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_index_keeps_the_first_record() {
        let first = unit(1);
        let second = UnitRecord {
            digest: 0xbad,
            ..unit(1)
        };
        // Out of index order too: the sort must keep journal order
        // among equal indices.
        let text = journal_text(&[first.clone(), unit(0), second]);
        let ckpt = Checkpoint::parse(&text).unwrap();
        assert_eq!(ckpt.units, vec![unit(0), first]);
    }

    #[test]
    fn digest_set_is_order_invariant() {
        let a = vec![unit(0), unit(1), unit(2)];
        let b = vec![unit(2), unit(0), unit(1)];
        assert_eq!(digest_set_fnv(&a), digest_set_fnv(&b));
        assert_ne!(digest_set_fnv(&a), digest_set_fnv(&a[..2]));
    }

    #[test]
    fn grid_digest_separates_grids() {
        let mut grid: Vec<FuzzConfig> = (0..4)
            .map(|s| FuzzConfig::new(s, ProtocolKind::SwiftDir))
            .collect();
        let d = fuzz_grid_digest(&grid);
        assert_eq!(d, fuzz_grid_digest(&grid.clone()));
        grid[3].seed = 99;
        assert_ne!(d, fuzz_grid_digest(&grid));
        assert_ne!(d, fuzz_grid_digest(&grid[..3]));
    }
}
