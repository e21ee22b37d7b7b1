//! Small numeric helpers: order statistics, the FNV-1a mixer the output
//! digests use, and the process memory high-water mark.

/// FNV-1a over little-endian `u64` words (the same mixing the simulator's
/// own digests use).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0–100) by linear interpolation between ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let v = sorted(values);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `(q1, median, q3)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    (
        percentile(values, 25.0),
        percentile(values, 50.0),
        percentile(values, 75.0),
    )
}

/// The highest percentile of a fixed ladder that leaves at least ten
/// samples beyond it, or `None` when there are fewer than twenty samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 85.0, 80.0, 75.0, 70.0, 60.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
}

/// Host memory high-water mark (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quartiles(&v), (2.0, 3.0, 4.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }

    #[test]
    fn tail_keeps_ten_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(70.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(69), Some(85.0));
        assert_eq!(tail_percentile(288), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }
}
