//! Fixed-size pages and their ids.
//!
//! Pages are 4 KB, matching the paper's R\*-tree page size. A page is the
//! unit a tree file stores (as a checksummed record, see
//! [`crate::checksum`]) and the unit the buffer crate decides is "in
//! memory" or not.

use serde::{Deserialize, Serialize};

/// Page size in bytes (4 KB, as in the paper).
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page. Page numbers also determine disk placement via
/// `page mod d` (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId(pub u32);

impl PageId {
    /// The raw page number.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A 4 KB page of raw bytes.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zero-filled page.
    pub fn zeroed() -> Self {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Read access to the raw bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Write access to the raw bytes.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page").field("len", &PAGE_SIZE).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_are_page_size() {
        let p = Page::zeroed();
        assert_eq!(p.bytes().len(), PAGE_SIZE);
        assert_eq!(PAGE_SIZE, 4096);
    }
}
