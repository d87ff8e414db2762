//! A disk-backed page file: the out-of-core counterpart of [`PageStore`].
//!
//! [`PageStore`] keeps every page in memory — fine for the simulator, but
//! the native executor's shared buffer needs a source whose misses actually
//! leave the process. [`FilePager`] stores pages densely in a regular file
//! (page `n` at byte offset `n * PAGE_RECORD_SIZE`) and reads them back on
//! demand, so a cache running against it is genuinely out-of-core: only the
//! buffered subset of pages is resident.
//!
//! Every on-disk page is a checksummed *record* — the 4 KB payload followed
//! by a 16-byte footer (CRC32 + page-id echo + format version, see
//! [`crate::checksum`]). `read_page` verifies the footer on every read and
//! returns a typed [`PageError::Corrupt`] on mismatch instead of garbage
//! bytes.
//!
//! Reads are positioned (`pread`-style) and therefore need only `&self`:
//! any number of threads can fault pages in concurrently without
//! serializing on a shared file cursor. The pager itself never retries —
//! retry policy belongs to the caller (see [`crate::RetryPolicy`] and the
//! shared page cache), so retries are configured and counted in one place.
//!
//! [`FaultPager`] wraps a [`FilePager`] and applies a seeded
//! [`FaultPlan`] *below* checksum verification: bit flips and torn reads
//! mutate the raw record bytes and are then caught by the real CRC path,
//! exactly as hardware corruption would be.

use crate::checksum::{encode_record, verify_record, PAGE_RECORD_SIZE};
use crate::error::PageError;
use crate::fault::FaultPlan;
use crate::page::{Page, PageId, PageStore, PAGE_SIZE};
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A read-only, thread-safe pager over a densely packed page-record file.
#[derive(Debug)]
pub struct FilePager {
    file: File,
    path: PathBuf,
    num_pages: usize,
}

impl FilePager {
    /// Opens an existing page file. The file must be non-empty and a whole
    /// number of page records long.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: empty page file (zero bytes)", path.display()),
            ));
        }
        if len % PAGE_RECORD_SIZE as u64 != 0 {
            let hint = if len % PAGE_SIZE as u64 == 0 {
                " (looks like a legacy unchecksummed page file; rebuild the index)"
            } else {
                ""
            };
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: page file length {len} is not a multiple of {PAGE_RECORD_SIZE}{hint}",
                    path.display()
                ),
            ));
        }
        let num_pages = usize::try_from(len / PAGE_RECORD_SIZE as u64).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: page file too large", path.display()),
            )
        })?;
        Ok(FilePager {
            file,
            path,
            num_pages,
        })
    }

    /// Writes every page of `store` to `path` as checksummed records and
    /// opens a pager over the result.
    ///
    /// The write is crash-safe: records go to a sibling tmp file which is
    /// fsynced and atomically renamed into place, so a crash mid-write
    /// never leaves a partially written file at `path`.
    pub fn create_from_store<P: AsRef<Path>>(path: P, store: &PageStore) -> io::Result<Self> {
        let path = path.as_ref();
        crate::atomic_write(path, |out| {
            for (id, page) in store.iter() {
                io::Write::write_all(out, &encode_record(page.bytes(), id))?;
            }
            Ok(())
        })?;
        Self::open(path)
    }

    /// Number of pages in the file.
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// The path this pager reads from (used for error context).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads one raw record (payload + footer) without verification.
    ///
    /// This is the substrate for [`FaultPager`], which needs to corrupt
    /// bytes *before* verification, and for `fsck`-style scanners.
    pub fn read_record(&self, id: PageId) -> Result<Box<[u8; PAGE_RECORD_SIZE]>, PageError> {
        if id.index() >= self.num_pages {
            return Err(PageError::OutOfRange {
                page: id,
                num_pages: self.num_pages,
                context: self.path.display().to_string(),
            });
        }
        let mut record: Box<[u8; PAGE_RECORD_SIZE]> = vec![0u8; PAGE_RECORD_SIZE]
            .into_boxed_slice()
            .try_into()
            .unwrap();
        let offset = id.index() as u64 * PAGE_RECORD_SIZE as u64;
        self.file
            .read_exact_at(&mut record[..], offset)
            .map_err(|e| PageError::io(id, e.kind(), format!("{}: {e}", self.path.display())))?;
        Ok(record)
    }

    /// Reads and verifies one page from the file.
    ///
    /// An out-of-range `id`, a failed read (truncated or vanished backing
    /// file), or a checksum mismatch is reported as a typed [`PageError`],
    /// not a panic or garbage bytes: in a long-running server a bad read
    /// must degrade the one request that needed the page, not corrupt its
    /// answer or take down the process.
    pub fn read_page(&self, id: PageId) -> Result<Page, PageError> {
        let record = self.read_record(id)?;
        verify_record(&record, id, &self.path.display().to_string())?;
        let mut page = Page::zeroed();
        page.bytes_mut().copy_from_slice(&record[..PAGE_SIZE]);
        Ok(page)
    }
}

/// A fault-injecting decorator over [`FilePager`].
///
/// Driven by a seeded [`FaultPlan`]: injected latency and transient
/// `io::Error`s fire before the read; bit flips and torn reads mutate the
/// raw record bytes and are then caught by the *real* checksum
/// verification path — a flipped bit surfaces as [`PageError::Corrupt`]
/// because the CRC fails, not because the injector says so.
#[derive(Debug)]
pub struct FaultPager {
    inner: FilePager,
    plan: Arc<FaultPlan>,
}

impl FaultPager {
    /// Wrap `inner` with the fault plan.
    pub fn new(inner: FilePager, plan: Arc<FaultPlan>) -> Self {
        FaultPager { inner, plan }
    }

    /// The fault plan driving this pager.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    /// The wrapped pager.
    pub fn inner(&self) -> &FilePager {
        &self.inner
    }

    /// Number of pages in the file.
    pub fn num_pages(&self) -> usize {
        self.inner.num_pages()
    }

    /// Reads one page, applying the fault plan below verification.
    pub fn read_page(&self, id: PageId) -> Result<Page, PageError> {
        let attempt = self.plan.next_attempt(id);
        self.plan.inject_latency(id, attempt);
        if self.plan.check_transient(id, attempt) {
            return Err(PageError::io(
                id,
                io::ErrorKind::Other,
                format!(
                    "{}: injected transient I/O fault",
                    self.inner.path().display()
                ),
            ));
        }
        let mut record = self.inner.read_record(id)?;
        self.plan.corrupt_record(id, &mut record[..]);
        verify_record(&record, id, &self.inner.path().display().to_string())?;
        let mut page = Page::zeroed();
        page.bytes_mut().copy_from_slice(&record[..PAGE_SIZE]);
        Ok(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("psj-pager-{}-{name}", std::process::id()));
        p
    }

    fn sample_store(pages: usize) -> PageStore {
        let mut store = PageStore::new();
        for n in 0..pages {
            let id = store.allocate();
            store.write(id).bytes_mut()[0..8].copy_from_slice(&(n as u64).to_le_bytes());
        }
        store
    }

    #[test]
    fn roundtrip_through_file() {
        let path = temp_path("roundtrip");
        let store = sample_store(7);
        let pager = FilePager::create_from_store(&path, &store).unwrap();
        assert_eq!(pager.num_pages(), 7);
        for n in 0..7u32 {
            let page = pager.read_page(PageId(n)).unwrap();
            assert_eq!(page.bytes(), store.read(PageId(n)).bytes());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn concurrent_reads_share_the_pager() {
        let path = temp_path("concurrent");
        let store = sample_store(16);
        let pager = FilePager::create_from_store(&path, &store).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pager = &pager;
                scope.spawn(move || {
                    for n in 0..16u32 {
                        let page = pager.read_page(PageId(n)).unwrap();
                        let mut word = [0u8; 8];
                        word.copy_from_slice(&page.bytes()[0..8]);
                        assert_eq!(u64::from_le_bytes(word), n as u64);
                    }
                });
            }
        });
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_partial_page_file() {
        let path = temp_path("partial");
        std::fs::write(&path, vec![0u8; PAGE_RECORD_SIZE + 1]).unwrap();
        assert!(FilePager::open(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_zero_length_file_with_path_in_error() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let err = FilePager::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("empty"), "{msg}");
        assert!(
            msg.contains(path.file_name().unwrap().to_str().unwrap()),
            "{msg}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn legacy_unchecksummed_file_gets_a_hint() {
        let path = temp_path("legacy");
        std::fs::write(&path, vec![0u8; PAGE_SIZE * 3]).unwrap();
        let err = FilePager::open(&path).unwrap_err();
        assert!(err.to_string().contains("legacy"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn out_of_range_read_is_an_error() {
        let path = temp_path("range");
        let pager = FilePager::create_from_store(&path, &sample_store(2)).unwrap();
        std::fs::remove_file(&path).ok();
        let err = pager.read_page(PageId(2)).unwrap_err();
        assert!(matches!(err, PageError::OutOfRange { .. }));
        assert!(err.to_string().contains("range"));
    }

    #[test]
    fn truncated_file_read_is_an_error_not_a_panic() {
        let path = temp_path("truncated");
        let pager = FilePager::create_from_store(&path, &sample_store(4)).unwrap();
        // Shrink the backing file under the pager's feet: reads of the
        // now-missing tail must surface as errors with the path attached.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(PAGE_RECORD_SIZE as u64)
            .unwrap();
        assert!(pager.read_page(PageId(0)).is_ok());
        let err = pager.read_page(PageId(3)).unwrap_err();
        match &err {
            PageError::Io { kind, context, .. } => {
                assert_eq!(*kind, io::ErrorKind::UnexpectedEof);
                assert!(context.contains("truncated"), "{context}");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        assert!(!err.is_retryable());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn flipped_bit_on_disk_is_detected_as_corrupt() {
        let path = temp_path("flip-on-disk");
        let pager = FilePager::create_from_store(&path, &sample_store(3)).unwrap();
        // Flip one payload bit of page 1 directly in the file.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[PAGE_RECORD_SIZE + 100] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        assert!(pager.read_page(PageId(0)).is_ok());
        let err = pager.read_page(PageId(1)).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        assert!(err.to_string().contains("CRC"), "{err}");
        assert!(pager.read_page(PageId(2)).is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fault_pager_transient_then_recovers() {
        let path = temp_path("fault-transient");
        let store = sample_store(4);
        let pager = FilePager::create_from_store(&path, &store).unwrap();
        let plan = Arc::new(FaultPlan::new(5).with_transient(1.0, 1));
        let faulty = FaultPager::new(pager, plan.clone());
        for n in 0..4u32 {
            let err = faulty.read_page(PageId(n)).unwrap_err();
            assert!(err.is_retryable(), "{err}");
            let page = faulty.read_page(PageId(n)).unwrap();
            assert_eq!(page.bytes(), store.read(PageId(n)).bytes());
        }
        assert_eq!(plan.transient_injected(), 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fault_pager_flips_are_caught_by_real_checksums() {
        let path = temp_path("fault-flip");
        let pager = FilePager::create_from_store(&path, &sample_store(8)).unwrap();
        let plan = Arc::new(FaultPlan::new(6).with_flip(1.0));
        let faulty = FaultPager::new(pager, plan.clone());
        for n in 0..8u32 {
            let err = faulty.read_page(PageId(n)).unwrap_err();
            assert!(err.is_corrupt(), "page {n}: {err}");
        }
        assert_eq!(plan.corrupt_injected(), 8);
        std::fs::remove_file(path).ok();
    }
}
