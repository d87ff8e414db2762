//! On-disk persistence for frozen trees.
//!
//! A [`PagedTree`] serializes to a single file: a fixed header, the page
//! *records* (each 4 KB payload followed by its 16-byte CRC32 footer, see
//! [`psj_store::checksum`]), and the geometry clusters, the whole file
//! additionally protected by an FNV-1a checksum. Each payload is a node in
//! the PSJT3 page layout ([`crate::node`]): header, MBR lanes, ids and
//! geometry words, then zeros. Buffered I/O throughout. A loaded tree is
//! two arenas and holds no 4 KB page and no decoded node: loading checks
//! each record's CRC, then appends only the page's used words to the
//! tree's [`PrefixArena`] through its checked page reader
//! ([`PrefixArena::push_page`]), and appends each geometry's vertices,
//! straight from the hashed read, to the tree's [`ClusterStore`]. Saving
//! pads each arena page back to 4 KB ([`PrefixArena::write_page`]) and
//! writes its CRC, so the file is the one a page store would write.
//!
//! ```text
//! +------------------+ magic "PSJT3\n", root u32, height u32,
//! | header           | num_items u64, num_pages u32, num_clusters u32
//! +------------------+
//! | page records     | num_pages × 4112 bytes (payload + CRC footer)
//! +------------------+
//! | clusters         | per cluster: page u32, extra_bytes u64,
//! |                  |   count u32, then per geometry:
//! |                  |   vertex count u32 + count × (f64, f64);
//! |                  |   data pages only, ascending
//! +------------------+
//! | checksum         | FNV-1a 64 over everything above
//! +------------------+
//! ```
//!
//! **Load cost.** Two thirds of a paper-scale file is the zero padding
//! after each page's used prefix, and both checksums read every byte of
//! it. Both are computed a word at a time with unchanged values: the page
//! CRC applies a record's trailing zero words with one multiply (see
//! [`psj_store::checksum`]), and the FNV-1a hash applies an all-zero
//! 8-byte word as one multiply by the prime's eighth power, which is what
//! eight zero bytes do to its state. Each geometry's vertices are read and
//! hashed in one piece. The stored checksums are the check: a file saved
//! by the byte-at-a-time code loads, and a save writes the same bytes.
//!
//! Files of the earlier formats (`PSJT1`, raw unchecksummed pages; `PSJT2`,
//! row-wise 40- and 156-byte entries) are not read: loading one fails with
//! an [`io::ErrorKind::InvalidData`] error carrying an [`UnsupportedFormat`]
//! that names the version and says to rebuild the index with `psj build`.
//!
//! **Crash safety.** [`PagedTree::save_to`] writes through
//! [`psj_store::atomic_write`] (tmp file + fsync + atomic rename + dir
//! fsync), so a crash mid-save never clobbers an existing index. On top of
//! that, [`PagedTree::save_generation`] / [`PagedTree::load_latest`]
//! maintain a *versioned manifest* (`<base>.manifest` pointing at
//! `<base>.g<n>`): a new generation is written beside the old one and the
//! manifest flips over atomically, so readers always find a complete file.
//!
//! **Degradation.** [`PagedTree::load_from_lenient`] salvages a corrupt
//! file: pages whose CRC footer fails, or whose node does not decode, are
//! replaced by empty-leaf placeholders and reported as *poisoned*
//! ([`PagedTree::is_poisoned`]) instead of failing the whole load — the
//! serving layer can then answer queries that avoid the poisoned subtrees
//! and return typed errors for the rest. Such a tree cannot be saved
//! ([`PoisonedTree`]): its placeholders would be written as CRC-valid
//! empty leaves. [`fsck_file`] reuses the same verification to produce a
//! report.

use crate::frame::{JoinNode, PrefixArena};
use crate::paged::PagedTree;
use psj_geom::polyline::stored_size;
use psj_geom::Point;
use psj_store::{
    atomic_write, encode_record, verify_record, ClusterStore, Page, PageId, PAGE_RECORD_SIZE,
    PAGE_SIZE,
};
use std::collections::BTreeSet;
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// The magic of the format this build writes and reads.
const MAGIC: &[u8; 6] = b"PSJT3\n";

/// The version [`MAGIC`] names.
const FORMAT_VERSION: u32 = 3;

/// The version of a file that starts with `magic`, for the formats this
/// build knows: its own and the ones it no longer reads.
fn format_of(magic: &[u8; 6]) -> Option<u32> {
    match magic {
        b"PSJT1\n" => Some(1),
        b"PSJT2\n" => Some(2),
        m if m == MAGIC => Some(FORMAT_VERSION),
        _ => None,
    }
}

/// A tree file in a format this build no longer reads. Loaders return it
/// inside an [`io::ErrorKind::InvalidData`] error
/// (`err.get_ref()` downcasts to it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedFormat {
    /// The file.
    pub path: String,
    /// The file's format version (`PSJT<version>`).
    pub version: u32,
}

impl std::fmt::Display for UnsupportedFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: PSJT{} tree file; this build reads only PSJT{FORMAT_VERSION}: \
             rebuild the index with `psj build`",
            self.path, self.version
        )
    }
}

impl std::error::Error for UnsupportedFormat {}

/// A tree with poisoned pages ([`PagedTree::load_from_lenient`]), which
/// [`PagedTree::save_to`] refuses inside an
/// [`io::ErrorKind::InvalidInput`] error (`err.get_ref()` downcasts to
/// it): saving would write each placeholder as a CRC-valid empty leaf, a
/// file `fsck` calls clean with the salvaged pages' entries gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonedTree {
    /// The poisoned pages, ascending.
    pub pages: Vec<PageId>,
}

impl std::fmt::Display for PoisonedTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pages: Vec<String> = self.pages.iter().map(PageId::to_string).collect();
        write!(
            f,
            "refusing to save a tree with {} poisoned page(s) ({}): \
             they would be written as valid empty leaves",
            self.pages.len(),
            pages.join(", ")
        )
    }
}

impl std::error::Error for PoisonedTree {}

/// Sanity bound on the page count in a header (16 M pages = 64 GB of
/// payload); a corrupt header must not drive allocation.
const MAX_PAGES: usize = 1 << 24;

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x1_0000_01b3;

/// What eight zero bytes do to an FNV-1a state: `h ^ 0 == h`, so each
/// only multiplies by the prime.
const FNV_PRIME_POW8: u64 = FNV_PRIME.wrapping_pow(8);

/// FNV-1a 64-bit, incrementally updatable. An all-zero 8-byte word is one
/// multiply by [`FNV_PRIME_POW8`]; any other word goes byte by byte. The
/// value is FNV-1a's however the input is split into calls.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            if w == [0u8; 8] {
                self.0 = self.0.wrapping_mul(FNV_PRIME_POW8);
            } else {
                self.update_bytewise(w);
            }
        }
        self.update_bytewise(words.remainder());
    }
    fn update_bytewise(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Writer that checksums everything it passes through.
struct HashWriter<W: Write> {
    inner: W,
    hash: Fnv,
}

impl<W: Write> HashWriter<W> {
    fn write_all_hashed(&mut self, buf: &[u8]) -> io::Result<()> {
        self.hash.update(buf);
        self.inner.write_all(buf)
    }
    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.write_all_hashed(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.write_all_hashed(&v.to_le_bytes())
    }
}

/// Reader that checksums everything it passes through.
struct HashReader<R: Read> {
    inner: R,
    hash: Fnv,
}

impl<R: Read> HashReader<R> {
    fn read_exact_hashed(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_exact(buf)?;
        self.hash.update(buf);
        Ok(())
    }
    fn u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.read_exact_hashed(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.read_exact_hashed(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

/// Size of one stored vertex: `x` then `y`, LE f64.
const VERTEX_BYTES: usize = 16;

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The result of a lenient load: the salvaged tree plus what was wrong.
#[derive(Debug)]
pub struct LenientLoad {
    /// The tree; pages in `corrupt_pages` hold placeholders and are marked
    /// poisoned ([`PagedTree::is_poisoned`]).
    pub tree: PagedTree,
    /// Pages whose CRC footer failed verification, ascending.
    pub corrupt_pages: Vec<PageId>,
    /// Whether the whole-file FNV checksum matched (false whenever any page
    /// is corrupt, and also on cluster-section damage).
    pub checksum_ok: bool,
    /// Whether the geometry cluster section parsed (joins need it; window
    /// and nearest-neighbor queries do not).
    pub clusters_ok: bool,
}

/// Everything parsed out of a tree file, before structural verification.
struct RawLoad {
    root: PageId,
    height: u32,
    num_items: u64,
    pages: PrefixArena,
    clusters: ClusterStore,
    corrupt_pages: Vec<PageId>,
    checksum_ok: bool,
    clusters_ok: bool,
}

fn read_header<R: Read>(r: &mut HashReader<R>) -> io::Result<(PageId, u32, u64, usize, usize)> {
    let root = PageId(r.u32()?);
    let height = r.u32()?;
    let num_items = r.u64()?;
    let num_pages = r.u32()? as usize;
    let num_clusters = r.u32()? as usize;
    if num_pages == 0 || num_pages > MAX_PAGES {
        return Err(corrupt(&format!("implausible page count {num_pages}")));
    }
    if root.index() >= num_pages {
        return Err(corrupt("root page out of range"));
    }
    if num_clusters > num_pages {
        return Err(corrupt("more clusters than pages"));
    }
    Ok((root, height, num_items, num_pages, num_clusters))
}

/// Reads the cluster section into a geometry arena. Clusters must name
/// data pages of `pages` in strictly ascending order, as a save writes
/// them: a repeated page would merge two records into one cluster, and a
/// save of the loaded tree would then write a different file.
fn read_clusters<R: Read>(
    r: &mut HashReader<R>,
    pages: &PrefixArena,
    num_clusters: usize,
) -> io::Result<ClusterStore> {
    let mut clusters = ClusterStore::new();
    let mut vertices = Vec::new();
    let mut previous: Option<PageId> = None;
    let mut vertices_total = 0usize;
    for _ in 0..num_clusters {
        let pid = PageId(r.u32()?);
        if pid.index() >= pages.len() {
            return Err(corrupt("cluster page out of range"));
        }
        if let Some(prev) = previous.filter(|&p| pid <= p) {
            return Err(corrupt(&format!(
                "cluster of page {} is not after the cluster of page {}",
                pid.0, prev.0
            )));
        }
        if !pages.read(pid).is_leaf() {
            return Err(corrupt(&format!("cluster of directory page {}", pid.0)));
        }
        previous = Some(pid);
        // The attribute bytes belong to the page, not to one geometry: the
        // first geometry carries them all.
        let mut extra = r.u64()?;
        let mut size = extra;
        let count = r.u32()? as usize;
        if count == 0 {
            return Err(corrupt("empty cluster"));
        }
        for _ in 0..count {
            let nv = r.u32()? as usize;
            if !(2..=1_000_000).contains(&nv) {
                return Err(corrupt("implausible vertex count"));
            }
            // The arena's offsets are `u32`s; no save writes more vertices.
            vertices_total += nv;
            if u32::try_from(vertices_total).is_err() {
                return Err(corrupt("more vertices than the geometry arena addresses"));
            }
            size = (size.checked_add(stored_size(nv) as u64))
                .ok_or_else(|| corrupt("cluster size overflows a u64"))?;
            // All the geometry's vertices in one hashed read.
            vertices.resize(nv * VERTEX_BYTES, 0);
            r.read_exact_hashed(&mut vertices)?;
            let f64_at = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8 bytes"));
            let pts = vertices
                .chunks_exact(VERTEX_BYTES)
                .map(|v| Point::new(f64_at(&v[..8]), f64_at(&v[8..])));
            clusters.push_with_extra(pid, pts, std::mem::take(&mut extra));
        }
    }
    clusters.shrink_to_fit();
    Ok(clusters)
}

/// Verify the trailing FNV checksum and end-of-file position.
fn read_trailer<R: Read>(r: &mut HashReader<R>) -> io::Result<()> {
    let computed = r.hash.0;
    let mut cs = [0u8; 8];
    r.inner.read_exact(&mut cs)?;
    if u64::from_le_bytes(cs) != computed {
        return Err(corrupt("checksum mismatch"));
    }
    let mut extra = [0u8; 1];
    if r.inner.read(&mut extra)? != 0 {
        return Err(corrupt("trailing bytes after checksum"));
    }
    Ok(())
}

/// Parse a tree file. In strict mode any page that fails its footer or its
/// checked decode aborts the load; in lenient mode such pages become
/// placeholders and cluster/checksum damage is recorded instead of fatal.
fn read_tree_file(path: &Path, lenient: bool) -> io::Result<RawLoad> {
    let context = path.display().to_string();
    let file = std::fs::File::open(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{context}: {e}")))?;
    let mut r = HashReader {
        inner: BufReader::new(file),
        hash: Fnv::new(),
    };

    let mut magic = [0u8; 6];
    r.read_exact_hashed(&mut magic)?;
    match format_of(&magic) {
        Some(FORMAT_VERSION) => {}
        Some(version) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                UnsupportedFormat {
                    path: context,
                    version,
                },
            ))
        }
        None => {
            return Err(corrupt(&format!(
                "{context}: bad magic: not a psj tree file"
            )))
        }
    }
    let (root, height, num_items, num_pages, num_clusters) = read_header(&mut r)?;

    let mut pages = PrefixArena::with_pages(num_pages);
    let mut corrupt_pages = Vec::new();
    let mut record = [0u8; PAGE_RECORD_SIZE];
    for id in (0..num_pages as u32).map(PageId) {
        r.read_exact_hashed(&mut record)?;
        let checked = verify_record(&record, id, &context)
            .map_err(io::Error::from)
            .and_then(|()| {
                let page = record[..PAGE_SIZE]
                    .try_into()
                    .expect("a record holds a page");
                let checked = pages.push_page(page);
                checked.map_err(|e| corrupt(&format!("{context}: page {id}: {e}")))
            });
        match checked {
            Ok(()) => {}
            Err(_) if lenient => {
                // An empty-leaf placeholder: never descended into.
                pages.push_placeholder();
                corrupt_pages.push(id);
            }
            Err(e) => return Err(e),
        }
    }
    pages.shrink_to_fit();

    let (clusters, clusters_ok, checksum_ok) = if lenient {
        match read_clusters(&mut r, &pages, num_clusters) {
            Ok(c) => {
                let checksum_ok = read_trailer(&mut r).is_ok();
                (c, true, checksum_ok)
            }
            // Cluster section unparseable: salvage the index structure
            // alone. Without a parse we cannot locate the trailer either.
            Err(_) => (ClusterStore::new(), false, false),
        }
    } else {
        let c = read_clusters(&mut r, &pages, num_clusters)?;
        read_trailer(&mut r)?;
        (c, true, true)
    };

    Ok(RawLoad {
        root,
        height,
        num_items,
        pages,
        clusters,
        corrupt_pages,
        checksum_ok,
        clusters_ok,
    })
}

impl PagedTree {
    /// Writes the tree to `path` crash-safely (tmp + fsync + atomic
    /// rename), overwriting any existing file only once the new one is
    /// complete and durable. Each arena page is padded back to its 4 KB
    /// page image.
    ///
    /// A tree with poisoned pages is refused with an
    /// [`io::ErrorKind::InvalidInput`] error carrying a [`PoisonedTree`],
    /// and no file is written.
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        if self.poisoned_count() > 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                PoisonedTree {
                    pages: self.poisoned_pages().collect(),
                },
            ));
        }
        atomic_write(path, |out| {
            let mut w = HashWriter {
                inner: out,
                hash: Fnv::new(),
            };

            w.write_all_hashed(MAGIC)?;
            w.u32(self.root().0)?;
            w.u32(self.height())?;
            w.u64(self.len())?;
            w.u32(self.num_pages() as u32)?;

            // Clusters in ascending page order, as the geometry arena
            // keeps them.
            let clusters = self.clusters();
            w.u32(clusters.len() as u32)?;

            let mut page = Page::zeroed();
            for id in (0..self.num_pages() as u32).map(PageId) {
                self.pages().write_page(id, &mut page);
                w.write_all_hashed(&encode_record(page.bytes(), id))?;
            }

            let mut vertices = Vec::new();
            for pid in clusters.pages() {
                let geometries = (0..clusters.cluster_len(pid) as u32)
                    .map(|slot| clusters.geometry(pid, slot).expect("slot of the cluster"));
                // Extra (attribute) bytes beyond the raw geometry.
                let geo_bytes: u64 = geometries
                    .clone()
                    .map(|g| stored_size(g.len()) as u64)
                    .sum();
                w.u32(pid.0)?;
                w.u64(clusters.bytes_of(pid) - geo_bytes)?;
                w.u32(clusters.cluster_len(pid) as u32)?;
                for g in geometries {
                    w.u32(g.len() as u32)?;
                    vertices.clear();
                    for p in g {
                        vertices.extend_from_slice(&p.x.to_le_bytes());
                        vertices.extend_from_slice(&p.y.to_le_bytes());
                    }
                    w.write_all_hashed(&vertices)?;
                }
            }

            let checksum = w.hash.0;
            w.inner.write_all(&checksum.to_le_bytes())
        })
    }

    /// Reads a tree previously written by [`PagedTree::save_to`], rejecting
    /// any corruption and any earlier format version
    /// ([`UnsupportedFormat`]).
    pub fn load_from(path: &Path) -> io::Result<PagedTree> {
        let raw = read_tree_file(path, false)?;
        debug_assert!(raw.corrupt_pages.is_empty());
        let tree = PagedTree::from_loaded_parts(
            raw.pages,
            raw.root,
            raw.height,
            raw.num_items,
            raw.clusters,
        );
        tree.verify().map_err(|e| {
            corrupt(&format!(
                "{}: structural verification failed: {e}",
                path.display()
            ))
        })?;
        Ok(tree)
    }

    /// Loads a (possibly damaged) tree, salvaging what verifies: pages with
    /// failed CRC footers or undecodable nodes become poisoned placeholders,
    /// a damaged cluster section yields an index without geometry, and the
    /// whole-file checksum result is reported rather than enforced.
    ///
    /// Fails only if the header is unusable or the *surviving* structure is
    /// inconsistent. A clean file loads with no poisoned pages and
    /// `checksum_ok == true` — identical to [`PagedTree::load_from`].
    pub fn load_from_lenient(path: &Path) -> io::Result<LenientLoad> {
        let raw = read_tree_file(path, true)?;
        let mut tree = PagedTree::from_loaded_parts(
            raw.pages,
            raw.root,
            raw.height,
            raw.num_items,
            raw.clusters,
        );
        tree.set_poisoned(
            raw.corrupt_pages
                .iter()
                .map(|p| p.0)
                .collect::<BTreeSet<u32>>(),
        );
        tree.verify_with(raw.clusters_ok).map_err(|e| {
            corrupt(&format!(
                "{}: surviving structure inconsistent: {e}",
                path.display()
            ))
        })?;
        Ok(LenientLoad {
            tree,
            corrupt_pages: raw.corrupt_pages,
            checksum_ok: raw.checksum_ok,
            clusters_ok: raw.clusters_ok,
        })
    }
}

// ---------------------------------------------------------------------------
// Versioned manifest: generational index files with atomic flip-over.
// ---------------------------------------------------------------------------

/// The manifest format version written by this build.
pub const MANIFEST_FORMAT: u32 = 1;

/// A versioned pointer to the current generation of an index.
///
/// Stored as `<base>.manifest`, a small JSON file naming the current
/// generation file `<base>.g<n>`. Writers create the next generation beside
/// the current one and flip the manifest atomically; a crash at any point
/// leaves the manifest pointing at a complete previous generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Manifest format version ([`MANIFEST_FORMAT`]).
    pub format: u32,
    /// Current generation number (starts at 1).
    pub generation: u64,
    /// File name (relative to the manifest's directory) of the current
    /// generation.
    pub file: String,
}

/// Path of the manifest for index base path `base`.
pub fn manifest_path(base: &Path) -> PathBuf {
    let mut name = base.file_name().unwrap_or_default().to_os_string();
    name.push(".manifest");
    base.with_file_name(name)
}

/// File name of generation `generation` for `base`.
fn generation_file_name(base: &Path, generation: u64) -> String {
    format!(
        "{}.g{generation}",
        base.file_name().unwrap_or_default().to_string_lossy()
    )
}

/// Path of generation `generation` for `base`.
pub fn generation_path(base: &Path, generation: u64) -> PathBuf {
    base.with_file_name(generation_file_name(base, generation))
}

impl Manifest {
    fn to_json(&self) -> String {
        format!(
            "{{\"format\":{},\"generation\":{},\"file\":\"{}\"}}",
            self.format,
            self.generation,
            self.file.replace('\\', "\\\\").replace('"', "\\\"")
        )
    }

    fn parse(text: &str) -> Result<Manifest, String> {
        let format = json_u64(text, "format").ok_or("manifest: missing 'format'")? as u32;
        let generation = json_u64(text, "generation").ok_or("manifest: missing 'generation'")?;
        let file = json_str(text, "file").ok_or("manifest: missing 'file'")?;
        if format != MANIFEST_FORMAT {
            return Err(format!("manifest: unsupported format {format}"));
        }
        if file.contains('/') || file.contains("..") {
            return Err("manifest: file name must be a plain sibling name".into());
        }
        Ok(Manifest {
            format,
            generation,
            file,
        })
    }

    /// Loads the manifest for `base`, if one exists.
    pub fn load(base: &Path) -> io::Result<Option<Manifest>> {
        let path = manifest_path(base);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io::Error::new(e.kind(), format!("{}: {e}", path.display()))),
        };
        Manifest::parse(&text)
            .map(Some)
            .map_err(|e| corrupt(&format!("{}: {e}", path.display())))
    }

    /// Writes the manifest for `base` atomically.
    pub fn store(&self, base: &Path) -> io::Result<()> {
        let path = manifest_path(base);
        let json = self.to_json();
        atomic_write(&path, |w| w.write_all(json.as_bytes()))
    }
}

/// Minimal JSON field extraction (numbers and plain strings) — enough for
/// the manifest's flat schema without a JSON dependency.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = text[start..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_str(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = text[start..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

impl PagedTree {
    /// Saves this tree as the next generation of `base` and flips the
    /// manifest to it. Returns the new generation number.
    ///
    /// The sequence is crash-safe at every step: the new generation file is
    /// written atomically beside the old one, then the manifest flips
    /// atomically. Only after the flip is the *previous* previous
    /// generation pruned; the immediately preceding generation is kept as a
    /// rollback target.
    pub fn save_generation(&self, base: &Path) -> io::Result<u64> {
        let current = Manifest::load(base)?;
        let prev_gen = current.as_ref().map(|m| m.generation).unwrap_or(0);
        let next_gen = prev_gen + 1;
        self.save_to(&generation_path(base, next_gen))?;
        Manifest {
            format: MANIFEST_FORMAT,
            generation: next_gen,
            file: generation_file_name(base, next_gen),
        }
        .store(base)?;
        // Prune generations older than the one we just superseded.
        for old in (1..prev_gen).rev() {
            let p = generation_path(base, old);
            if p.exists() {
                let _ = std::fs::remove_file(p);
            } else {
                break;
            }
        }
        Ok(next_gen)
    }

    /// Loads the current generation of `base` per its manifest.
    pub fn load_latest(base: &Path) -> io::Result<(PagedTree, u64)> {
        let manifest = Manifest::load(base)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}: no manifest", manifest_path(base).display()),
            )
        })?;
        let path = base.with_file_name(&manifest.file);
        let tree = PagedTree::load_from(&path)?;
        Ok((tree, manifest.generation))
    }
}

// ---------------------------------------------------------------------------
// fsck: offline integrity scan.
// ---------------------------------------------------------------------------

/// The result of scanning an index file with [`fsck_file`].
#[derive(Debug)]
pub struct FsckReport {
    /// The file actually scanned.
    pub path: String,
    /// Tree format version (1, 2 or 3), when the magic was readable; only 3
    /// is scanned.
    pub format: Option<u32>,
    /// Manifest generation, when `path` (or its base) has a manifest.
    pub manifest_generation: Option<u64>,
    /// Pages scanned.
    pub pages_scanned: u64,
    /// Pages whose CRC footer failed or whose node did not decode.
    pub corrupt_pages: Vec<u32>,
    /// Whether the whole-file checksum matched.
    pub file_checksum_ok: bool,
    /// Whether the (surviving) structure verified.
    pub structure_ok: bool,
    /// Fatal problem that prevented scanning, if any.
    pub error: Option<String>,
}

impl FsckReport {
    /// Whether the file is fully healthy.
    pub fn ok(&self) -> bool {
        self.error.is_none()
            && self.corrupt_pages.is_empty()
            && self.file_checksum_ok
            && self.structure_ok
    }

    /// JSON rendering for the `psj fsck` CLI.
    pub fn to_json(&self) -> String {
        let pages = self
            .corrupt_pages
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"path\":\"{}\",\"ok\":{},\"format\":{},\"manifest_generation\":{},\"pages_scanned\":{},\"corrupt_pages\":[{}],\"file_checksum_ok\":{},\"structure_ok\":{},\"error\":{}}}",
            self.path.replace('\\', "\\\\").replace('"', "\\\""),
            self.ok(),
            self.format.map_or("null".into(), |v| v.to_string()),
            self.manifest_generation
                .map_or("null".into(), |v| v.to_string()),
            self.pages_scanned,
            pages,
            self.file_checksum_ok,
            self.structure_ok,
            self.error.as_ref().map_or("null".into(), |e| format!(
                "\"{}\"",
                e.replace('\\', "\\\\").replace('"', "\\\"")
            )),
        )
    }
}

/// Scans an index file, verifying every page checksum, the whole-file
/// checksum, and the structure. `path` may be either a tree file or an
/// index *base* whose manifest names the current generation.
pub fn fsck_file(path: &Path) -> FsckReport {
    let mut report = FsckReport {
        path: path.display().to_string(),
        format: None,
        manifest_generation: None,
        pages_scanned: 0,
        corrupt_pages: Vec::new(),
        file_checksum_ok: false,
        structure_ok: false,
        error: None,
    };

    // Resolve through the manifest when present (path given as a base, or
    // a tree file that also has a sibling manifest).
    let mut target = path.to_path_buf();
    match Manifest::load(path) {
        Ok(Some(m)) => {
            report.manifest_generation = Some(m.generation);
            if !target.exists() {
                target = path.with_file_name(&m.file);
                report.path = target.display().to_string();
            }
        }
        Ok(None) => {}
        Err(e) => {
            report.error = Some(format!("manifest unreadable: {e}"));
            return report;
        }
    }

    // Peek the magic to report the format even for corrupt files.
    match std::fs::File::open(&target) {
        Ok(mut f) => {
            let mut magic = [0u8; 6];
            if f.read_exact(&mut magic).is_ok() {
                report.format = format_of(&magic);
            }
        }
        Err(e) => {
            report.error = Some(format!("{}: {e}", target.display()));
            return report;
        }
    }

    match report.format {
        // An earlier version's file fails here with its version error.
        Some(_) => match read_tree_file(&target, true) {
            Ok(raw) => {
                report.pages_scanned = raw.pages.len() as u64;
                report.corrupt_pages = raw.corrupt_pages.iter().map(|p| p.0).collect();
                report.file_checksum_ok = raw.checksum_ok;
                let mut tree = PagedTree::from_loaded_parts(
                    raw.pages,
                    raw.root,
                    raw.height,
                    raw.num_items,
                    raw.clusters,
                );
                tree.set_poisoned(report.corrupt_pages.iter().copied().collect());
                report.structure_ok = tree.verify_with(raw.clusters_ok).is_ok();
            }
            Err(e) => report.error = Some(e.to_string()),
        },
        None => report.error = Some("not a psj tree file (bad magic)".into()),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::GeomRef;
    use crate::tree::RTree;
    use psj_geom::{Polyline, Rect};

    fn sample_tree(n: usize) -> PagedTree {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 40) as f64;
            let y = (i / 40) as f64;
            t.insert(Rect::new(x, y, x + 0.9, y + 0.9), i as u64);
        }
        PagedTree::freeze_with_attrs(
            &t,
            |oid| {
                let x = (oid % 40) as f64;
                let y = (oid / 40) as f64;
                Some(Polyline::new(vec![
                    Point::new(x, y),
                    Point::new(x + 0.9, y + 0.9),
                ]))
            },
            100,
        )
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("psj-test-{}-{}", std::process::id(), name));
        p
    }

    /// Byte offset of page `n`'s record in a tree file.
    fn record_offset(n: usize) -> usize {
        // magic 6 + root 4 + height 4 + items 8 + pages 4 + clusters 4
        30 + n * PAGE_RECORD_SIZE
    }

    /// FNV-1a fed byte by byte: the oracle for [`Fnv::update`].
    fn fnv_bytewise(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.update_bytewise(bytes);
        h.0
    }

    /// Bytes with zero runs of every length up to a few words, at every
    /// alignment, between non-zero bytes.
    fn zero_runs(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut bytes = Vec::with_capacity(len);
        while bytes.len() < len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            bytes.push((x >> 56) as u8 | 1);
            bytes.resize(bytes.len() + (x % 40) as usize, 0);
        }
        bytes.truncate(len);
        bytes
    }

    /// Loading feeds the hash in pieces of any size (header fields, 4 KB
    /// records, vertex runs), so a zero word must be skipped the same
    /// wherever the pieces split it.
    #[test]
    fn fnv_matches_bytewise_under_any_split() {
        let bytes = zero_runs(3000);
        let whole = fnv_bytewise(&bytes);
        let mut h = Fnv::new();
        h.update(&bytes);
        assert_eq!(h.0, whole);
        assert_eq!(
            FNV_PRIME_POW8,
            (0..8).fold(1u64, |p, _| p.wrapping_mul(FNV_PRIME))
        );
        let mut x = 12345u64;
        for pieces in 1..200 {
            let mut h = Fnv::new();
            let mut at = 0;
            for _ in 0..pieces {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let end = (at + (x >> 33) as usize % 97).min(bytes.len());
                h.update(&bytes[at..end]);
                at = end;
            }
            h.update(&bytes[at..]);
            assert_eq!(h.0, whole, "{pieces} pieces");
        }
        for split in 0..=64 {
            let mut h = Fnv::new();
            h.update(&bytes[..split]);
            h.update(&bytes[split..]);
            assert_eq!(h.0, whole, "split at {split}");
            let zeros = [0u8; 64];
            let mut h = Fnv::new();
            h.update(&zeros[..split]);
            h.update(&zeros[split..]);
            assert_eq!(h.0, fnv_bytewise(&zeros), "zeros split at {split}");
        }
    }

    /// Rewrites the first entry of data page `victim` to point at `geom`,
    /// then reseals the page's CRC and the file's FNV trailer, so only
    /// structural verification can object.
    fn with_geom_ref(bytes: &mut [u8], tree: &PagedTree, victim: PageId, geom: GeomRef) {
        let mut node = tree.node(victim).clone();
        node.data_entries_mut()[0].geom = geom;
        let mut page = Page::zeroed();
        node.encode(&mut page);
        let at = record_offset(victim.index());
        bytes[at..at + PAGE_RECORD_SIZE].copy_from_slice(&encode_record(page.bytes(), victim));
        reseal(bytes);
    }

    /// Rewrites the file's FNV trailer to match its body.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let mut h = Fnv::new();
        h.update(&bytes[..body]);
        bytes[body..].copy_from_slice(&h.0.to_le_bytes());
    }

    /// Byte offset of each cluster record (its page field) in a tree file
    /// of `num_pages` pages.
    fn cluster_offsets(bytes: &[u8], num_pages: usize) -> Vec<usize> {
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let mut at = record_offset(num_pages);
        let mut out = Vec::new();
        for _ in 0..u32_at(26) {
            out.push(at);
            let count = u32_at(at + 12);
            at += 16;
            for _ in 0..count {
                at += 4 + u32_at(at) as usize * VERTEX_BYTES;
            }
        }
        assert_eq!(at, bytes.len() - 8, "walked the whole cluster section");
        out
    }

    /// Clusters out of page order, a page's cluster twice, or a cluster of
    /// a directory page never come from a save. A loader that accepted a
    /// repeated page would merge both records into one cluster, and a save
    /// of the loaded tree would write a different file. Strict loads
    /// refuse each, and a cluster size past `u64`; lenient loads and
    /// `fsck` report the cluster section unparsed.
    #[test]
    fn clusters_out_of_page_order_repeated_or_on_a_directory_page_are_rejected() {
        let tree = sample_tree(400);
        let path = tmpfile("cluster-order");
        tree.save_to(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let at = cluster_offsets(&clean, tree.num_pages());
        let page_of = |i: usize| clean[at[i]..at[i] + 4].to_vec();
        assert!(!tree.frame(tree.root()).is_leaf());
        // Which file offsets get which bytes, and what the load says.
        type Edits<'e> = &'e [(usize, Vec<u8>)];
        let root = tree.root().0.to_le_bytes().to_vec();
        let cases: [(Edits, &str); 4] = [
            // The second record names the first record's page again.
            (&[(at[1], page_of(0))], "is not after"),
            // The first two records swap pages.
            (&[(at[0], page_of(1)), (at[1], page_of(0))], "is not after"),
            // The first record names the root, a directory page.
            (&[(at[0], root)], "directory page"),
            // The first record's attribute bytes leave no room for its
            // geometry.
            (&[(at[0] + 4, u64::MAX.to_le_bytes().to_vec())], "overflows"),
        ];
        for (edits, why) in cases {
            let mut bytes = clean.clone();
            for (offset, new) in edits {
                bytes[*offset..*offset + new.len()].copy_from_slice(new);
            }
            reseal(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            let err = PagedTree::load_from(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(why), "{err}");
            let lenient = PagedTree::load_from_lenient(&path).unwrap();
            assert!(!lenient.clusters_ok && !lenient.checksum_ok);
            assert!(lenient.corrupt_pages.is_empty());
            assert!(lenient.tree.clusters().is_empty());
            let report = fsck_file(&path);
            assert!(
                !report.ok() && !report.file_checksum_ok,
                "{}",
                report.to_json()
            );
            assert!(report.corrupt_pages.is_empty());
        }
        std::fs::remove_file(&path).ok();
    }

    /// A geometry reference naming another page, or a slot past its
    /// cluster's end, is a structural error: refinement would otherwise
    /// keep every candidate it touches, unrefuted.
    #[test]
    fn a_geometry_reference_that_resolves_nowhere_is_rejected() {
        let tree = sample_tree(400);
        let path = tmpfile("dangling-geom");
        tree.save_to(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let leaves: Vec<PageId> = (0..tree.num_pages() as u32)
            .map(PageId)
            .filter(|&p| tree.node(p).is_leaf())
            .collect();
        let (victim, other) = (leaves[0], leaves[1]);
        let stored = tree.clusters().cluster_len(victim) as u32;
        for geom in [
            GeomRef {
                page: other,
                slot: 0,
            },
            GeomRef {
                page: victim,
                slot: stored,
            },
        ] {
            let mut bytes = clean.clone();
            with_geom_ref(&mut bytes, &tree, victim, geom);
            std::fs::write(&path, &bytes).unwrap();
            let err = PagedTree::load_from(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            let message = err.to_string();
            assert!(
                message.contains("structural verification failed"),
                "{message}"
            );
            assert!(
                message.contains(&format!("page {}: geometry reference", victim.0)),
                "{message}"
            );
            assert!(PagedTree::load_from_lenient(&path).is_err());
            let report = fsck_file(&path);
            assert!(report.file_checksum_ok && report.corrupt_pages.is_empty());
            assert!(!report.structure_ok);
        }
        // A reference never set resolves to "no geometry" on purpose.
        let mut bytes = clean;
        with_geom_ref(&mut bytes, &tree, victim, GeomRef::UNSET);
        std::fs::write(&path, &bytes).unwrap();
        let loaded = PagedTree::load_from(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.unwrap().len(), tree.len());
    }

    /// A header whose root, height or object count disagrees with the
    /// pages is a structural error, even with both checksums resealed: a
    /// join over such a tree would index past a frame or read a directory
    /// entry as geometry. Strict loads, lenient loads and `fsck` refuse it.
    #[test]
    fn a_resealed_header_that_disagrees_with_the_pages_is_rejected() {
        let tree = sample_tree(400);
        let path = tmpfile("header-edits");
        tree.save_to(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        assert_eq!(tree.root(), PageId(0));
        let (height, items) = (tree.height(), tree.len());
        // magic 6, then root u32 at 6, height u32 at 10, num_items u64 at 14.
        type Edits<'e> = &'e [(usize, Vec<u8>)];
        let cases: [(Edits, &str); 5] = [
            // The root names its first child: one level too low.
            (&[(6, 1u32.to_le_bytes().to_vec())], "is at level"),
            // ... and the height agrees, so the old root names the root.
            (
                &[
                    (6, 1u32.to_le_bytes().to_vec()),
                    (10, (height - 1).to_le_bytes().to_vec()),
                ],
                "reached twice",
            ),
            (&[(10, (height + 1).to_le_bytes().to_vec())], "is at level"),
            (&[(14, (items + 1).to_le_bytes().to_vec())], "leaves hold"),
            (&[(14, (items - 1).to_le_bytes().to_vec())], "leaves hold"),
        ];
        for (edits, why) in cases {
            let mut bytes = clean.clone();
            for (offset, new) in edits {
                bytes[*offset..*offset + new.len()].copy_from_slice(new);
            }
            reseal(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            let err = PagedTree::load_from(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(why), "{why}: {err}");
            assert!(PagedTree::load_from_lenient(&path).is_err(), "{why}");
            let report = fsck_file(&path);
            assert!(report.file_checksum_ok && report.corrupt_pages.is_empty());
            assert!(!report.structure_ok && !report.ok(), "{}", report.to_json());
        }
        std::fs::remove_file(&path).ok();
    }

    /// A lenient load whose cluster section does not parse keeps its
    /// index: with no geometry loaded, references are not resolved.
    #[test]
    fn lenient_load_without_clusters_skips_geometry_refs() {
        let tree = sample_tree(300);
        let path = tmpfile("lenient-no-clusters");
        tree.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The first geometry's vertex count: page u32, extra u64, count u32.
        let at = record_offset(tree.num_pages()) + 16;
        bytes[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(PagedTree::load_from(&path).is_err());
        let loaded = PagedTree::load_from_lenient(&path).unwrap();
        let report = fsck_file(&path);
        std::fs::remove_file(&path).ok();
        assert!(!loaded.clusters_ok && !loaded.checksum_ok);
        assert!(loaded.corrupt_pages.is_empty());
        assert_eq!(loaded.tree.len(), tree.len());
        assert!(report.structure_ok && !report.file_checksum_ok);
    }

    #[test]
    fn save_load_roundtrip() {
        let tree = sample_tree(500);
        let path = tmpfile("roundtrip");
        tree.save_to(&path).unwrap();
        let loaded = PagedTree::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.len(), tree.len());
        assert_eq!(loaded.height(), tree.height());
        assert_eq!(loaded.num_pages(), tree.num_pages());
        assert_eq!(loaded.stats(), tree.stats());
        assert_eq!(loaded.poisoned_count(), 0);
        // Queries agree.
        let w = Rect::new(3.0, 2.0, 17.0, 9.0);
        let a: Vec<u64> = tree.window_query(&w).iter().map(|e| e.oid).collect();
        let b: Vec<u64> = loaded.window_query(&w).iter().map(|e| e.oid).collect();
        assert_eq!(a, b);
        // Geometry survives.
        for e in loaded.window_query(&w) {
            assert!(loaded
                .clusters()
                .geometry(e.geom.page, e.geom.slot)
                .is_some());
        }
    }

    #[test]
    fn saved_files_are_psjt3() {
        let path = tmpfile("magic-v3");
        sample_tree(30).save_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(&bytes[..6], b"PSJT3\n");
    }

    /// A CRC-valid page whose header claims more entries than its fanout is
    /// a corrupt page to every loader, not a panic.
    #[test]
    fn overfull_page_header_is_corrupt_not_a_panic() {
        let tree = sample_tree(500);
        let path = tmpfile("overfull");
        tree.save_to(&path).unwrap();
        let victim = (0..tree.num_pages())
            .rev()
            .find(|&n| tree.node(PageId(n as u32)).is_leaf())
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = record_offset(victim);
        let mut payload: [u8; PAGE_SIZE] = bytes[at..at + PAGE_SIZE].try_into().unwrap();
        payload[8..12].copy_from_slice(&200u32.to_le_bytes());
        bytes[at..at + PAGE_RECORD_SIZE]
            .copy_from_slice(&encode_record(&payload, PageId(victim as u32)));
        std::fs::write(&path, &bytes).unwrap();

        let err = PagedTree::load_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&format!("page p{victim}")),
            "{err}"
        );
        assert!(err.to_string().contains("200 entries"), "{err}");

        let lenient = PagedTree::load_from_lenient(&path).unwrap();
        assert_eq!(lenient.corrupt_pages, vec![PageId(victim as u32)]);
        assert!(lenient.tree.is_poisoned(PageId(victim as u32)));

        let report = fsck_file(&path);
        std::fs::remove_file(&path).ok();
        assert!(!report.ok());
        assert_eq!(report.corrupt_pages, vec![victim as u32]);
    }

    /// The earlier formats get a typed version error naming the version
    /// from every loader, not "bad magic".
    #[test]
    fn old_formats_get_a_version_error() {
        let tree = sample_tree(60);
        for version in [1u32, 2] {
            let path = tmpfile(&format!("psjt{version}"));
            tree.save_to(&path).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[..6].copy_from_slice(format!("PSJT{version}\n").as_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let want = UnsupportedFormat {
                path: path.display().to_string(),
                version,
            };
            let typed = |err: io::Error| {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                err.get_ref()
                    .and_then(|e| e.downcast_ref::<UnsupportedFormat>())
                    .cloned()
            };
            assert_eq!(
                typed(PagedTree::load_from(&path).unwrap_err()),
                Some(want.clone())
            );
            assert_eq!(
                typed(PagedTree::load_from_lenient(&path).unwrap_err()),
                Some(want.clone())
            );
            let report = fsck_file(&path);
            std::fs::remove_file(&path).ok();
            assert!(!report.ok());
            assert_eq!(report.format, Some(version));
            assert_eq!(report.error, Some(want.to_string()));
            let message = want.to_string();
            assert!(message.contains(&format!("PSJT{version} tree file")));
            assert!(message.contains("psj build"), "{message}");
        }
    }

    #[test]
    fn corrupted_file_rejected() {
        let tree = sample_tree(100);
        let path = tmpfile("corrupt");
        tree.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = PagedTree::load_from(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn flipped_page_bit_names_the_page() {
        let tree = sample_tree(200);
        let path = tmpfile("flip-named");
        tree.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in page 2's payload.
        bytes[record_offset(2) + 77] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = PagedTree::load_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("p2"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lenient_load_salvages_around_corrupt_pages() {
        let tree = sample_tree(400);
        let path = tmpfile("lenient");
        tree.save_to(&path).unwrap();
        // Corrupt a *leaf* page (not the root) so structure survives.
        let victim = (0..tree.num_pages())
            .rev()
            .find(|&n| tree.node(PageId(n as u32)).is_leaf())
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[record_offset(victim) + 500] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let loaded = PagedTree::load_from_lenient(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.corrupt_pages, vec![PageId(victim as u32)]);
        assert!(!loaded.checksum_ok, "file checksum must fail");
        assert!(loaded.clusters_ok);
        assert_eq!(loaded.tree.poisoned_count(), 1);
        assert!(loaded.tree.is_poisoned(PageId(victim as u32)));
        assert!(!loaded.tree.is_poisoned(PageId(0)));
    }

    /// A salvaged tree is not saved: its placeholders would become
    /// CRC-valid empty leaves in a file `fsck` calls clean.
    #[test]
    fn saving_a_poisoned_tree_is_refused() {
        let tree = sample_tree(400);
        let path = tmpfile("poisoned-src");
        tree.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[record_offset(1) + 40] ^= 0xFF;
        bytes[record_offset(3) + 40] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = PagedTree::load_from_lenient(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.tree.poisoned_count(), 2);

        let out = tmpfile("poisoned-out");
        let err = loaded.tree.save_to(&out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let typed = err.get_ref().and_then(|e| e.downcast_ref::<PoisonedTree>());
        assert_eq!(
            typed,
            Some(&PoisonedTree {
                pages: vec![PageId(1), PageId(3)]
            })
        );
        assert!(err.to_string().contains("p1, p3"), "{err}");
        assert!(!out.exists(), "a refused save writes no file");
        assert!(!psj_store::tmp_path(&out).exists());
        let base = tmpfile("poisoned-base");
        assert!(loaded.tree.save_generation(&base).is_err());
        assert!(!manifest_path(&base).exists());
    }

    #[test]
    fn lenient_load_of_clean_file_matches_strict() {
        let tree = sample_tree(300);
        let path = tmpfile("lenient-clean");
        tree.save_to(&path).unwrap();
        let loaded = PagedTree::load_from_lenient(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.corrupt_pages.is_empty());
        assert!(loaded.checksum_ok);
        assert!(loaded.clusters_ok);
        assert_eq!(loaded.tree.poisoned_count(), 0);
        assert_eq!(loaded.tree.len(), tree.len());
    }

    #[test]
    fn truncated_file_rejected() {
        let tree = sample_tree(100);
        let path = tmpfile("truncate");
        tree.save_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(PagedTree::load_from(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_rejected() {
        let path = tmpfile("magic");
        std::fs::write(&path, b"not a tree file at all").unwrap();
        let err = PagedTree::load_from(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn save_leaves_no_tmp_file() {
        let tree = sample_tree(50);
        let path = tmpfile("no-tmp");
        tree.save_to(&path).unwrap();
        assert!(!psj_store::tmp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cluster_sizes_preserved() {
        let tree = sample_tree(300);
        let path = tmpfile("clusters");
        tree.save_to(&path).unwrap();
        let loaded = PagedTree::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for pid in (0..tree.num_pages() as u32).map(PageId) {
            assert_eq!(
                tree.clusters().bytes_of(pid),
                loaded.clusters().bytes_of(pid),
                "cluster size of {pid}"
            );
        }
    }

    #[test]
    fn manifest_generations_flip_atomically() {
        let base = tmpfile("genbase");
        let tree = sample_tree(120);
        let g1 = tree.save_generation(&base).unwrap();
        assert_eq!(g1, 1);
        let (loaded, gen) = PagedTree::load_latest(&base).unwrap();
        assert_eq!(gen, 1);
        assert_eq!(loaded.len(), tree.len());

        let tree2 = sample_tree(240);
        let g2 = tree2.save_generation(&base).unwrap();
        assert_eq!(g2, 2);
        let (loaded2, gen2) = PagedTree::load_latest(&base).unwrap();
        assert_eq!(gen2, 2);
        assert_eq!(loaded2.len(), 240);
        // Previous generation is kept as a rollback target.
        assert!(generation_path(&base, 1).exists());

        // A third save prunes generation 1.
        let g3 = sample_tree(60).save_generation(&base).unwrap();
        assert_eq!(g3, 3);
        assert!(!generation_path(&base, 1).exists());
        assert!(generation_path(&base, 2).exists());

        for g in 1..=3 {
            std::fs::remove_file(generation_path(&base, g)).ok();
        }
        std::fs::remove_file(manifest_path(&base)).ok();
    }

    #[test]
    fn manifest_rejects_path_traversal() {
        assert!(Manifest::parse("{\"format\":1,\"generation\":2,\"file\":\"../evil\"}").is_err());
        assert!(Manifest::parse("{\"format\":9,\"generation\":2,\"file\":\"x.g2\"}").is_err());
        let m = Manifest::parse("{\"format\":1,\"generation\":2,\"file\":\"x.g2\"}").unwrap();
        assert_eq!(m.generation, 2);
        assert_eq!(m.file, "x.g2");
    }

    #[test]
    fn fsck_clean_file_reports_ok() {
        let tree = sample_tree(150);
        let path = tmpfile("fsck-clean");
        tree.save_to(&path).unwrap();
        let report = fsck_file(&path);
        std::fs::remove_file(&path).ok();
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.format, Some(3));
        assert_eq!(report.pages_scanned, tree.num_pages() as u64);
        assert!(report.corrupt_pages.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"ok\":true"), "{json}");
    }

    #[test]
    fn fsck_flags_corrupt_pages() {
        let tree = sample_tree(400);
        let path = tmpfile("fsck-corrupt");
        tree.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[record_offset(1) + 9] ^= 0x40;
        bytes[record_offset(3) + 2048] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let report = fsck_file(&path);
        std::fs::remove_file(&path).ok();
        assert!(!report.ok());
        assert_eq!(report.corrupt_pages, vec![1, 3]);
        assert!(!report.file_checksum_ok);
        let json = report.to_json();
        assert!(json.contains("\"corrupt_pages\":[1,3]"), "{json}");
    }

    #[test]
    fn fsck_resolves_manifest_base() {
        let base = tmpfile("fsck-base");
        let tree = sample_tree(80);
        tree.save_generation(&base).unwrap();
        let report = fsck_file(&base);
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.manifest_generation, Some(1));
        std::fs::remove_file(generation_path(&base, 1)).ok();
        std::fs::remove_file(manifest_path(&base)).ok();
    }
}
