//! Simulated address space.
//!
//! Simulated operators do not move real bytes; they generate *addresses*.
//! [`AddrSpace`] is a bump allocator handing out non-overlapping,
//! line-aligned [`Region`]s for each modeled data structure (a column, a
//! dictionary, a hash table, a bit vector, ...), so that distinct structures
//! never alias in the cache model.

use crate::LINE_BYTES;
use serde::{Deserialize, Serialize};

/// A contiguous, line-aligned range of simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// First byte address.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Region {
    /// Byte address of offset `off` into the region.
    ///
    /// # Panics
    /// Panics in debug builds when `off` is out of bounds — an out-of-range
    /// offset is a bug in an operator model, not a runtime condition.
    #[inline]
    pub fn addr(&self, off: u64) -> u64 {
        debug_assert!(
            off < self.len,
            "offset {off} out of region of {} bytes",
            self.len
        );
        self.base + off
    }
}

/// Bump allocator for simulated regions.
///
/// Regions are padded to whole cache lines plus one guard line, so two
/// structures never share a line (which would create false sharing in the
/// model that the real system avoids by `malloc` alignment).
#[derive(Debug, Clone, Default)]
pub struct AddrSpace {
    next: u64,
}

impl AddrSpace {
    /// A fresh address space starting at address 0.
    pub fn new() -> Self {
        AddrSpace::default()
    }

    /// Allocates `len` bytes, line-aligned, with a guard line after.
    ///
    /// # Panics
    /// Panics when `len` is zero — every modeled structure occupies memory.
    pub fn alloc(&mut self, len: u64) -> Region {
        assert!(len > 0, "cannot allocate an empty region");
        let base = self.next;
        let padded = len.div_ceil(LINE_BYTES) * LINE_BYTES + LINE_BYTES;
        self.next += padded;
        Region { base, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_aligned() {
        let mut a = AddrSpace::new();
        let r1 = a.alloc(100);
        let r2 = a.alloc(64);
        assert_eq!(r1.base % LINE_BYTES, 0);
        assert_eq!(r2.base % LINE_BYTES, 0);
        // r2 starts beyond r1's padded end (guard line included).
        assert!(r2.base >= r1.base + 128 + LINE_BYTES);
    }

    #[test]
    fn addr_offsets() {
        let mut a = AddrSpace::new();
        let r = a.alloc(128);
        assert_eq!(r.addr(0), r.base);
        assert_eq!(r.addr(127), r.base + 127);
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn rejects_empty_alloc() {
        AddrSpace::new().alloc(0);
    }
}
