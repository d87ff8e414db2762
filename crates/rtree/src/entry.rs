//! Directory and data entries, and the paper's entry sizes.
//!
//! "For the representation of an entry in a directory page, 40 bytes are
//! used and for an entry in a data page, 156 bytes are reserved (including
//! the MBR and a pointer to the exact object representation)." (§4.1)
//!
//! The sizes fix the fanouts ([`crate::DIR_FANOUT`], [`crate::DATA_FANOUT`]).
//! A page stores its entries column-wise ([`crate::node`]): a directory
//! entry takes exactly its 40 bytes, a data entry 48 of its 156, and the
//! reserved rest of a leaf page stays zero.

use psj_geom::Rect;
use psj_store::PageId;
use serde::{Deserialize, Serialize};

/// Stored size of one directory entry: 4×f64 MBR + a u64 child word.
pub const DIR_ENTRY_BYTES: usize = 40;

/// Reserved size of one data entry: 4×f64 MBR + u64 object id + geometry
/// pointer + reserved attribute payload, padded to the paper's 156 bytes.
pub const DATA_ENTRY_BYTES: usize = 156;

/// Pointer to an object's exact geometry: the cluster of a data page plus a
/// slot within it ([BK 94] clustering: cluster id == data page id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GeomRef {
    /// Data page whose cluster stores the geometry.
    pub page: PageId,
    /// Slot within the cluster.
    pub slot: u32,
}

impl GeomRef {
    /// A placeholder reference used while the tree is still in memory and
    /// pages have not been assigned yet.
    pub const UNSET: GeomRef = GeomRef {
        page: PageId(u32::MAX),
        slot: u32::MAX,
    };
}

/// An entry of a directory node: the MBR of a subtree and its page.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DirEntry {
    /// Minimum bounding rectangle of everything below `child`.
    pub mbr: Rect,
    /// Child node (arena index while in memory, page number once paged).
    pub child: u32,
}

/// An entry of a data (leaf) node: an object's MBR, id, and geometry pointer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataEntry {
    /// Minimum bounding rectangle of the object.
    pub mbr: Rect,
    /// Application object identifier.
    pub oid: u64,
    /// Pointer to the exact geometry.
    pub geom: GeomRef,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_paper() {
        assert_eq!(DIR_ENTRY_BYTES, 40);
        assert_eq!(DATA_ENTRY_BYTES, 156);
    }
}
