//! Typed page-level storage errors.
//!
//! Every storage failure a page read can produce is classified into one of
//! two kinds, because the *response* differs per kind:
//!
//! * [`PageError::Corrupt`] — the bytes came back but their checksum does
//!   not match. Rereading the same sectors will return the same bytes, so
//!   retrying is useless; the error surfaces as a typed reply (or aborts
//!   a join) instead of garbage results.
//! * [`PageError::Io`] — the read failed before producing bytes. Transient
//!   kinds (EIO blips, interrupts) are retryable under a
//!   [`crate::RetryPolicy`]; permanent kinds (truncation, missing file)
//!   are not.
//!
//! Errors are `Clone`, so the typed results that carry them
//! (`NativeError`, a served query's outcome) are too.

use crate::page::PageId;
use std::io;

/// A typed error from reading one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// The page's bytes failed checksum verification: the data is there
    /// but wrong. Not retryable — the same bytes would come back.
    Corrupt {
        /// The page whose verification failed.
        page: PageId,
        /// Human-readable context (file path, which check failed).
        context: String,
    },
    /// The underlying read failed before producing verifiable bytes.
    Io {
        /// The page being read, when known.
        page: Option<PageId>,
        /// The OS error kind; drives per-class retryability.
        kind: io::ErrorKind,
        /// Human-readable context (file path, OS error text).
        context: String,
    },
}

impl PageError {
    /// Convenience constructor for an I/O failure on a known page.
    pub fn io(page: PageId, kind: io::ErrorKind, context: impl Into<String>) -> Self {
        PageError::Io {
            page: Some(page),
            kind,
            context: context.into(),
        }
    }

    /// The page involved, when known.
    pub fn page(&self) -> Option<PageId> {
        match self {
            PageError::Corrupt { page, .. } => Some(*page),
            PageError::Io { page, .. } => *page,
        }
    }

    /// The error of a read keyed in a key space trees share, renamed to
    /// `page`, the tree's own id, with ` (tree {tree})` ending the context.
    /// An error that names no page is returned unchanged.
    pub fn in_tree(mut self, page: PageId, tree: impl std::fmt::Display) -> Self {
        let (at, context) = match &mut self {
            PageError::Corrupt { page, context } => (Some(page), context),
            PageError::Io { page, context, .. } => (page.as_mut(), context),
        };
        if let Some(at) = at {
            *at = page;
            context.push_str(&format!(" (tree {tree})"));
        }
        self
    }

    /// Whether the error is a checksum failure (never retryable).
    pub fn is_corrupt(&self) -> bool {
        matches!(self, PageError::Corrupt { .. })
    }

    /// Per-class retryability: corruption always fails the same way again;
    /// I/O errors are retryable unless the kind indicates a permanent
    /// condition (truncated or vanished backing file, bad input).
    pub fn is_retryable(&self) -> bool {
        match self {
            PageError::Corrupt { .. } => false,
            PageError::Io { kind, .. } => !matches!(
                kind,
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::NotFound
                    | io::ErrorKind::InvalidInput
                    | io::ErrorKind::InvalidData
                    | io::ErrorKind::PermissionDenied
            ),
        }
    }
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::Corrupt { page, context } => {
                write!(f, "page {page} corrupt: {context}")
            }
            PageError::Io {
                page: Some(page),
                kind,
                context,
            } => write!(f, "I/O error ({kind:?}) reading page {page}: {context}"),
            PageError::Io {
                page: None,
                kind,
                context,
            } => write!(f, "I/O error ({kind:?}): {context}"),
        }
    }
}

impl std::error::Error for PageError {}

impl From<PageError> for io::Error {
    fn from(e: PageError) -> io::Error {
        let kind = match &e {
            PageError::Corrupt { .. } => io::ErrorKind::InvalidData,
            PageError::Io { kind, .. } => *kind,
        };
        io::Error::new(kind, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_is_not_retryable() {
        let e = PageError::Corrupt {
            page: PageId(3),
            context: "t".into(),
        };
        assert!(e.is_corrupt());
        assert!(!e.is_retryable());
        assert_eq!(e.page(), Some(PageId(3)));
    }

    #[test]
    fn transient_io_is_retryable_permanent_is_not() {
        let transient = PageError::io(PageId(1), io::ErrorKind::Other, "EIO");
        assert!(transient.is_retryable());
        let truncated = PageError::io(PageId(1), io::ErrorKind::UnexpectedEof, "short");
        assert!(!truncated.is_retryable());
        let missing = PageError::io(PageId(1), io::ErrorKind::NotFound, "gone");
        assert!(!missing.is_retryable());
    }

    #[test]
    fn converts_to_io_error_with_matching_kind() {
        let e = PageError::Corrupt {
            page: PageId(0),
            context: "bad crc".into(),
        };
        let io: io::Error = e.into();
        assert_eq!(io.kind(), io::ErrorKind::InvalidData);
        assert!(io.to_string().contains("bad crc"));
    }
}
