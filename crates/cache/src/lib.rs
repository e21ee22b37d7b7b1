//! Cache structures for the SwiftDir simulator.
//!
//! * [`geometry`] — size/associativity/block math ([`CacheGeometry`]).
//! * [`replacement`] — LRU / FIFO / pseudo-random victim selection.
//! * [`array`](mod@array) — a set-associative array generic over the per-line state
//!   (the coherence crate instantiates it with protocol states).
//! * [`mshr`] — miss-status holding registers, bounding outstanding misses
//!   and merging requests to the same block.
//! * [`indexing`] — the three commercial L1 architectures the paper
//!   analyses in §IV-B (PIPT, VIPT, VIVT): how the set index is formed and
//!   *where/when* the MMU's write-protection bit becomes available to the
//!   hierarchy (paper Figure 5).
//!
//! # Example
//!
//! ```
//! use swiftdir_cache::{CacheArray, CacheGeometry, ReplacementPolicy};
//!
//! // Table V's L1: 32 KB, 4-way, 64-byte blocks.
//! let geom = CacheGeometry::new(32 * 1024, 4, 64);
//! let mut l1: CacheArray<char> = CacheArray::new(geom, ReplacementPolicy::Lru);
//! assert!(l1.insert(0x1000, 'S').is_none(), "no eviction needed");
//! assert_eq!(l1.get(0x1000), Some(&'S'));
//! ```

pub mod array;
pub mod geometry;
pub mod indexing;
pub mod mshr;
pub mod replacement;

pub use array::{CacheArray, EvictedLine};
pub use geometry::CacheGeometry;
pub use indexing::{L1Architecture, WpArrival};
pub use mshr::{MshrFile, MshrOutcome};
pub use replacement::ReplacementPolicy;
