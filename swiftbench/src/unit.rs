//! Units of work, passes over them, and the metrics they produce.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use swiftdir_core::{digest_set_fnv, ExperimentSet, UnitRecord};

/// The outcome of one unit: a Fig. 7 point, a Fig. 8 point, a fuzz seed
/// or an explore tree.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// Digest of the unit's simulated output.
    pub digest: u64,
    /// Why the unit failed its own output check, or panicked.
    pub failure: Option<String>,
    /// Host seconds spent building the unit's inputs.
    pub setup_s: f64,
    /// Host seconds of the timed work.
    pub run_s: f64,
}

impl UnitResult {
    pub fn failed(why: String) -> Self {
        UnitResult {
            digest: 0,
            failure: Some(why),
            setup_s: 0.0,
            run_s: 0.0,
        }
    }
}

/// One run over every unit of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    pub units: Vec<UnitResult>,
    pub wall_s: f64,
    /// Summed unit time over (wall time × workers): how busy
    /// `ExperimentSet` kept its workers.
    pub busy_frac: f64,
}

impl Pass {
    /// FNV over `(index, unit digest)`: the digest set of the pass.
    pub fn digest(&self) -> u64 {
        let records: Vec<UnitRecord> = self
            .units
            .iter()
            .enumerate()
            .map(|(i, u)| UnitRecord {
                index: i as u64,
                digest: u.digest,
                events: 0,
                completions: 0,
                schedules: 0,
                steps: 0,
                tasks: 0,
                failure: u.failure.clone(),
            })
            .collect();
        digest_set_fnv(&records)
    }
}

/// Runs `f` over `units` on `ExperimentSet` with `threads` workers.
/// A panicking unit is caught and reported as that unit's failure.
pub fn run_pass<U: Sync>(units: &[U], threads: usize, f: impl Fn(&U) -> UnitResult + Sync) -> Pass {
    let indices: Vec<usize> = (0..units.len()).collect();
    let (results, report) = ExperimentSet::new(indices)
        .threads(threads)
        .run_with_report(|&i| guarded(|| f(&units[i])).unwrap_or_else(UnitResult::failed));
    Pass {
        units: results,
        wall_s: report.total_wall_s,
        busy_frac: report.points_wall_s() / (report.total_wall_s * report.threads as f64),
    }
}

/// Runs `f`, turning a panic into its message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("panicked: {msg}")
    })
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How it was measured, reference values, sample counts.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
