//! Concrete, protocol-independent access streams.
//!
//! An [`AccessOp`] is one timed core access — the common currency of the
//! schedule explorer ([`explore`](mod@crate::explore)), the differential checker
//! ([`crate::diff`]), and the fuzz minimizer's replayable repros
//! ([`crate::fuzz`]). A [`StreamFile`] bundles a stream with the
//! hierarchy parameters needed to replay it bit-for-bit, and round-trips
//! through a line-oriented text format:
//!
//! ```text
//! # swiftdir-stream v1
//! # protocol=SwiftDir cores=4 jitter=6
//! 12 0 S 0x80
//! 19 2 L 0x40
//! 23 1 LW 0x80
//! ```
//!
//! Each line is `<issue-cycle> <core> <L|LW|S> <block-address>`, where
//! `LW` is a write-protected load (a SwiftDir `GETS_WP` candidate).

use sim_engine::Cycle;
use swiftdir_coherence::{AccessKind, CoreRequest, Hierarchy, ProtocolKind};
use swiftdir_mmu::PhysAddr;

/// One timed access in a concrete stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOp {
    /// Issue cycle.
    pub at: u64,
    /// Issuing core.
    pub core: usize,
    /// Block address (block-aligned).
    pub addr: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// Write-protected load (only meaningful for loads).
    pub wp: bool,
}

impl AccessOp {
    /// A plain load.
    pub fn load(at: u64, core: usize, addr: u64) -> Self {
        AccessOp {
            at,
            core,
            addr,
            kind: AccessKind::Load,
            wp: false,
        }
    }

    /// A write-protected load.
    pub fn wp_load(at: u64, core: usize, addr: u64) -> Self {
        AccessOp {
            at,
            core,
            addr,
            kind: AccessKind::Load,
            wp: true,
        }
    }

    /// A store.
    pub fn store(at: u64, core: usize, addr: u64) -> Self {
        AccessOp {
            at,
            core,
            addr,
            kind: AccessKind::Store,
            wp: false,
        }
    }

    /// The [`CoreRequest`] this op issues.
    pub fn request(&self) -> CoreRequest {
        match self.kind {
            AccessKind::Store => CoreRequest::store(PhysAddr(self.addr)),
            AccessKind::Load => {
                let req = CoreRequest::load(PhysAddr(self.addr));
                if self.wp {
                    req.write_protected()
                } else {
                    req
                }
            }
        }
    }
}

/// Issues every op of `stream` into `h` (the event queue serializes them
/// against protocol traffic).
pub fn issue_stream(h: &mut Hierarchy, stream: &[AccessOp]) {
    for op in stream {
        h.issue(Cycle(op.at), op.core, op.request());
    }
}

/// A stream plus the scenario parameters needed to replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFile {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Core count of the hierarchy.
    pub cores: usize,
    /// Link-jitter bound (0 = no jitter); the seed is `jitter_seed`.
    pub jitter_max: u64,
    /// Seed for the link jitter when `jitter_max > 0`.
    pub jitter_seed: u64,
    /// The accesses, in issue order.
    pub ops: Vec<AccessOp>,
}

impl StreamFile {
    /// Serializes to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# swiftdir-stream v1\n");
        out.push_str(&format!(
            "# protocol={:?} cores={} jitter={} jitter_seed={}\n",
            self.protocol, self.cores, self.jitter_max, self.jitter_seed
        ));
        for op in &self.ops {
            let kind = match (op.kind, op.wp) {
                (AccessKind::Load, false) => "L",
                (AccessKind::Load, true) => "LW",
                (AccessKind::Store, _) => "S",
            };
            out.push_str(&format!("{} {} {} {:#x}\n", op.at, op.core, kind, op.addr));
        }
        out
    }

    /// Parses the text format back into a stream.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed line.
    pub fn parse(text: &str) -> Result<StreamFile, String> {
        let mut file = StreamFile {
            protocol: ProtocolKind::SwiftDir,
            cores: 1,
            jitter_max: 0,
            jitter_seed: 0,
            ops: Vec::new(),
        };
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                for field in rest.split_whitespace() {
                    let Some((key, value)) = field.split_once('=') else {
                        continue;
                    };
                    match key {
                        "protocol" => {
                            file.protocol = ProtocolKind::ALL
                                .into_iter()
                                .find(|p| format!("{p:?}") == value)
                                .ok_or_else(|| {
                                    format!("line {}: unknown protocol {value}", lineno + 1)
                                })?;
                        }
                        "cores" => {
                            file.cores = value
                                .parse()
                                .map_err(|e| format!("line {}: cores: {e}", lineno + 1))?;
                        }
                        "jitter" => {
                            file.jitter_max = value
                                .parse()
                                .map_err(|e| format!("line {}: jitter: {e}", lineno + 1))?;
                        }
                        "jitter_seed" => {
                            file.jitter_seed = value
                                .parse()
                                .map_err(|e| format!("line {}: jitter_seed: {e}", lineno + 1))?;
                        }
                        _ => {}
                    }
                }
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(at), Some(core), Some(kind), Some(addr)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "line {}: expected `<at> <core> <L|LW|S> <addr>`, got {line:?}",
                    lineno + 1
                ));
            };
            let at: u64 = at
                .parse()
                .map_err(|e| format!("line {}: issue cycle: {e}", lineno + 1))?;
            let core: usize = core
                .parse()
                .map_err(|e| format!("line {}: core: {e}", lineno + 1))?;
            let addr = addr.strip_prefix("0x").or_else(|| addr.strip_prefix("0X"));
            let addr: u64 = match addr {
                Some(hex) => u64::from_str_radix(hex, 16)
                    .map_err(|e| format!("line {}: address: {e}", lineno + 1))?,
                None => {
                    return Err(format!(
                        "line {}: address must be hex with 0x prefix",
                        lineno + 1
                    ))
                }
            };
            let (kind, wp) = match kind {
                "L" => (AccessKind::Load, false),
                "LW" => (AccessKind::Load, true),
                "S" => (AccessKind::Store, false),
                other => {
                    return Err(format!(
                        "line {}: access kind must be L, LW, or S, got {other:?}",
                        lineno + 1
                    ))
                }
            };
            file.ops.push(AccessOp {
                at,
                core,
                addr,
                kind,
                wp,
            });
        }
        Ok(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trips() {
        let file = StreamFile {
            protocol: ProtocolKind::SMesi,
            cores: 3,
            jitter_max: 6,
            jitter_seed: 99,
            ops: vec![
                AccessOp::store(12, 0, 0x80),
                AccessOp::load(19, 2, 0x40),
                AccessOp::wp_load(23, 1, 0x80),
            ],
        };
        let text = file.to_text();
        assert_eq!(StreamFile::parse(&text).expect("parses"), file);
    }

    #[test]
    fn malformed_lines_are_reported_with_numbers() {
        let err = StreamFile::parse("# swiftdir-stream v1\n12 0 X 0x80\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = StreamFile::parse("12 0 L 128\n").unwrap_err();
        assert!(err.contains("hex"), "{err}");
    }

    #[test]
    fn unknown_protocol_is_rejected() {
        let err = StreamFile::parse("# protocol=Dragon\n").unwrap_err();
        assert!(err.contains("unknown protocol"), "{err}");
    }
}
