//! Physical memory: frame allocation, reference counts, and page contents.

use crate::addr::{Pfn, PAGE_SIZE};

/// Simulated physical memory.
///
/// Frames carry a reference count (several PTEs may map the same frame —
/// shared-library page-cache pages and KSM-merged pages do exactly that)
/// and optional byte contents. Contents are stored sparsely: a frame with no
/// recorded bytes reads as zeroes, like a freshly allocated page.
///
/// # Example
///
/// ```
/// use swiftdir_mmu::PhysMemory;
///
/// let mut phys = PhysMemory::new();
/// let f = phys.alloc();
/// phys.write_bytes(f, 0, b"hello");
/// assert_eq!(phys.read_bytes(f, 0, 5), b"hello");
/// assert_eq!(phys.refcount(f), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct PhysMemory {
    frames: Vec<Frame>,
    free: Vec<Pfn>,
}

#[derive(Debug, Clone)]
struct Frame {
    refcount: u32,
    content: Option<Box<[u8]>>,
}

impl PhysMemory {
    /// An empty physical memory; frames are created on demand.
    pub fn new() -> Self {
        PhysMemory::default()
    }

    /// Allocates a zeroed frame with refcount 1.
    pub fn alloc(&mut self) -> Pfn {
        if let Some(pfn) = self.free.pop() {
            let frame = &mut self.frames[pfn.0 as usize];
            frame.refcount = 1;
            frame.content = None;
            return pfn;
        }
        let pfn = Pfn(self.frames.len() as u64);
        self.frames.push(Frame {
            refcount: 1,
            content: None,
        });
        pfn
    }

    /// Increments a frame's reference count (a new PTE maps it).
    ///
    /// # Panics
    ///
    /// Panics if the frame is free or was never allocated.
    pub fn add_ref(&mut self, pfn: Pfn) {
        let frame = self.frame_mut(pfn);
        assert!(frame.refcount > 0, "add_ref on free frame {pfn:?}");
        frame.refcount += 1;
    }

    /// Decrements a frame's reference count, freeing it at zero. Returns the
    /// count after the decrement.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already free.
    pub fn release(&mut self, pfn: Pfn) -> u32 {
        let frame = self.frame_mut(pfn);
        assert!(frame.refcount > 0, "release of free frame {pfn:?}");
        frame.refcount -= 1;
        let rc = frame.refcount;
        if rc == 0 {
            frame.content = None;
            self.free.push(pfn);
        }
        rc
    }

    /// Current reference count (0 = free).
    pub fn refcount(&self, pfn: Pfn) -> u32 {
        self.frames.get(pfn.0 as usize).map_or(0, |f| f.refcount)
    }

    /// Number of frames currently live (refcount > 0).
    pub fn live_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.refcount > 0).count()
    }

    /// Reads `len` bytes at `offset` within the frame (zero-filled if the
    /// frame has no recorded content).
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` exceeds the page size.
    pub fn read_bytes(&self, pfn: Pfn, offset: usize, len: usize) -> Vec<u8> {
        assert!(offset + len <= PAGE_SIZE as usize, "read crosses page end");
        match self
            .frames
            .get(pfn.0 as usize)
            .and_then(|f| f.content.as_ref())
        {
            Some(bytes) => bytes[offset..offset + len].to_vec(),
            None => vec![0; len],
        }
    }

    /// Writes bytes at `offset` within the frame.
    ///
    /// # Panics
    ///
    /// Panics if the write crosses the page end or the frame is free.
    pub fn write_bytes(&mut self, pfn: Pfn, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= PAGE_SIZE as usize,
            "write crosses page end"
        );
        let frame = self.frame_mut(pfn);
        assert!(frame.refcount > 0, "write to free frame {pfn:?}");
        let content = frame
            .content
            .get_or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
        content[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Copies an entire page `src` → `dst` (the copy half of copy-on-write).
    pub fn copy_page(&mut self, src: Pfn, dst: Pfn) {
        let content = self
            .frames
            .get(src.0 as usize)
            .and_then(|f| f.content.clone());
        self.frame_mut(dst).content = content;
    }

    /// A 64-bit FNV-1a hash of the page contents, used by KSM to find
    /// merge candidates cheaply before the exact comparison.
    pub fn content_hash(&self, pfn: Pfn) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        match self
            .frames
            .get(pfn.0 as usize)
            .and_then(|f| f.content.as_ref())
        {
            Some(bytes) => {
                for &b in bytes.iter() {
                    hash ^= b as u64;
                    hash = hash.wrapping_mul(0x100_0000_01b3);
                }
            }
            None => {
                // All-zero page: hash the zero byte PAGE_SIZE times, folded.
                for _ in 0..PAGE_SIZE {
                    hash = hash.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        hash
    }

    /// Exact content equality between two frames.
    pub fn pages_equal(&self, a: Pfn, b: Pfn) -> bool {
        let fa = self
            .frames
            .get(a.0 as usize)
            .and_then(|f| f.content.as_ref());
        let fb = self
            .frames
            .get(b.0 as usize)
            .and_then(|f| f.content.as_ref());
        match (fa, fb) {
            (Some(ca), Some(cb)) => ca == cb,
            (None, None) => true,
            (Some(c), None) | (None, Some(c)) => c.iter().all(|&x| x == 0),
        }
    }

    fn frame_mut(&mut self, pfn: Pfn) -> &mut Frame {
        self.frames
            .get_mut(pfn.0 as usize)
            .unwrap_or_else(|| panic!("frame {pfn:?} was never allocated"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_distinct_frames() {
        let mut phys = PhysMemory::new();
        let a = phys.alloc();
        let b = phys.alloc();
        assert_ne!(a, b);
        assert_eq!(phys.live_frames(), 2);
    }

    #[test]
    fn refcount_lifecycle() {
        let mut phys = PhysMemory::new();
        let f = phys.alloc();
        phys.add_ref(f);
        assert_eq!(phys.refcount(f), 2);
        assert_eq!(phys.release(f), 1);
        assert_eq!(phys.release(f), 0);
        assert_eq!(phys.refcount(f), 0);
        assert_eq!(phys.live_frames(), 0);
    }

    #[test]
    fn freed_frames_are_recycled_zeroed() {
        let mut phys = PhysMemory::new();
        let f = phys.alloc();
        phys.write_bytes(f, 0, b"secret");
        phys.release(f);
        let g = phys.alloc();
        assert_eq!(g, f, "free list reuses the frame");
        assert_eq!(
            phys.read_bytes(g, 0, 6),
            vec![0; 6],
            "recycled frame reads zero"
        );
    }

    #[test]
    fn unwritten_pages_read_zero() {
        let mut phys = PhysMemory::new();
        let f = phys.alloc();
        assert_eq!(phys.read_bytes(f, 100, 4), vec![0; 4]);
    }

    #[test]
    fn copy_page_duplicates_content() {
        let mut phys = PhysMemory::new();
        let src = phys.alloc();
        let dst = phys.alloc();
        phys.write_bytes(src, 10, b"abc");
        phys.copy_page(src, dst);
        assert_eq!(phys.read_bytes(dst, 10, 3), b"abc");
        assert!(phys.pages_equal(src, dst));
    }

    #[test]
    fn content_hash_and_equality() {
        let mut phys = PhysMemory::new();
        let a = phys.alloc();
        let b = phys.alloc();
        let c = phys.alloc();
        phys.write_bytes(a, 0, b"same");
        phys.write_bytes(b, 0, b"same");
        phys.write_bytes(c, 0, b"diff");
        assert_eq!(phys.content_hash(a), phys.content_hash(b));
        assert!(phys.pages_equal(a, b));
        assert!(!phys.pages_equal(a, c));
    }

    #[test]
    fn zero_written_page_equals_untouched_page() {
        let mut phys = PhysMemory::new();
        let a = phys.alloc();
        let b = phys.alloc();
        phys.write_bytes(a, 0, &[0u8; 16]);
        assert!(phys.pages_equal(a, b));
        assert_eq!(phys.content_hash(a), phys.content_hash(b));
    }

    #[test]
    #[should_panic(expected = "crosses page end")]
    fn oversized_write_panics() {
        let mut phys = PhysMemory::new();
        let f = phys.alloc();
        phys.write_bytes(f, (PAGE_SIZE - 2) as usize, b"xyz");
    }

    #[test]
    #[should_panic(expected = "free frame")]
    fn double_release_panics() {
        let mut phys = PhysMemory::new();
        let f = phys.alloc();
        phys.release(f);
        phys.release(f);
    }
}
