//! Seeded single-field mutations of a saved tree file, each resealed so
//! that both checksums pass: the page CRC of the touched page and the
//! file's FNV trailer. The loader must then either refuse the file with
//! `InvalidData`, or hand back a tree every reader agrees on: the
//! sequential refined join (the oracle) against an unmutated second tree,
//! the R-tree engine at two threads (the same pair sequence), the grid
//! engine at two threads (the same pairs after a sort), window and 10-NN
//! queries, `stats()`, and a save → load round trip that joins the same.
//!
//! Mutations are spread over the header, the used prefix of the pages
//! (page header, MBR lanes, ids, geometry words) and the cluster section
//! (cluster header, vertex counts, vertex coordinates). An f64 field takes
//! 0, ±1 and ±1 ulp around its old value, all-ones bits, NaN and ±inf; an
//! integer field takes 0, ±1 around its old value, all-ones and a random
//! value.

use psj_core::{
    join_refined, try_run_join, try_run_partition_join, NativeConfig, PartitionInput, RunControl,
};
use psj_geom::{Point, Rect};
use psj_integration::harness::index_map;
use psj_rtree::PagedTree;
use psj_store::{encode_record, PageId, PAGE_RECORD_SIZE, PAGE_SIZE};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated files checked per run: one in three each in the header, the
/// pages and the cluster section.
const MUTATIONS: u64 = 1200;

/// Byte offset of the first page record: magic 6, root 4, height 4,
/// num_items 8, num_pages 4, num_clusters 4.
const HEADER_BYTES: usize = 30;

/// Page header bytes before a node's lanes (level, kind, pad, count, pad).
const NODE_HEADER_BYTES: usize = 16;

/// The file's trailer: FNV-1a over everything before it, with the format's
/// prime `0x1_0000_01b3` (not FNV-1a-64's `0x100_0000_01b3`).
fn file_checksum(body: &[u8]) -> u64 {
    body.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
    })
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick(rng: &mut u64, n: usize) -> usize {
    (splitmix64(rng) % n as u64) as usize
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// One field of the file: where it is, how wide, and whether it is an f64.
struct Field {
    at: usize,
    width: usize,
    float: bool,
    name: String,
}

impl Field {
    fn int(at: usize, width: usize, name: String) -> Self {
        Field {
            at,
            width,
            float: false,
            name,
        }
    }

    fn f64(at: usize, name: String) -> Self {
        Field {
            at,
            width: 8,
            float: true,
            name,
        }
    }
}

/// A header field.
fn header_field(rng: &mut u64) -> Field {
    let (at, width, name) = [
        (0, 1, "magic[0]"),
        (4, 1, "magic[4]"),
        (6, 4, "root"),
        (10, 4, "height"),
        (14, 8, "num_items"),
        (22, 4, "num_pages"),
        (26, 4, "num_clusters"),
    ][pick(rng, 7)];
    Field::int(at, width, name.to_string())
}

/// A field in the used prefix of a random page.
fn page_field(rng: &mut u64, bytes: &[u8], num_pages: usize) -> Field {
    let page = pick(rng, num_pages);
    let base = HEADER_BYTES + page * PAGE_RECORD_SIZE;
    let leaf = bytes[base + 4] == 0;
    let n = u32_at(bytes, base + 8) as usize;
    let words = if leaf { 6 } else { 5 };
    let choice = if n == 0 {
        pick(rng, 3)
    } else {
        pick(rng, 3 + words)
    };
    let entry = if n == 0 { 0 } else { pick(rng, n) };
    let word = |w: usize| base + NODE_HEADER_BYTES + 8 * (w * n + entry);
    let lanes = ["xl", "xh", "yl", "yh"];
    match choice {
        0 => Field::int(base, 4, format!("page {page} level")),
        1 => Field::int(base + 4, 1, format!("page {page} kind")),
        2 => Field::int(base + 8, 4, format!("page {page} count")),
        c @ 3..=6 => Field::f64(
            word(c - 3),
            format!("page {page} {}[{entry}]", lanes[c - 3]),
        ),
        7 => Field::int(word(4), 8, format!("page {page} id[{entry}]")),
        _ => {
            let half = pick(rng, 2);
            Field::int(
                word(5) + 4 * half,
                4,
                format!("page {page} geom[{entry}].{half}"),
            )
        }
    }
}

/// A field of a random cluster: its header, a geometry's vertex count or
/// one vertex coordinate.
fn cluster_field(rng: &mut u64, bytes: &[u8], num_pages: usize) -> Field {
    let num_clusters = u32_at(bytes, 26) as usize;
    let target = pick(rng, num_clusters);
    let mut at = HEADER_BYTES + num_pages * PAGE_RECORD_SIZE;
    let mut geometries = Vec::new();
    for c in 0..=target {
        let count = u32_at(bytes, at + 12) as usize;
        let start = at;
        at += 16;
        geometries.clear();
        for _ in 0..count {
            geometries.push(at);
            at += 4 + u32_at(bytes, at) as usize * 16;
        }
        if c == target {
            at = start;
        }
    }
    match pick(rng, 5) {
        0 => Field::int(at, 4, format!("cluster {target} page")),
        1 => Field::int(at + 4, 8, format!("cluster {target} extra bytes")),
        2 => Field::int(at + 12, 4, format!("cluster {target} count")),
        3 => {
            let g = pick(rng, geometries.len());
            Field::int(
                geometries[g],
                4,
                format!("cluster {target} geometry {g} vertices"),
            )
        }
        _ => {
            let g = pick(rng, geometries.len());
            let nv = u32_at(bytes, geometries[g]) as usize;
            let coord = pick(rng, 2 * nv);
            Field::f64(
                geometries[g] + 4 + 8 * coord,
                format!("cluster {target} geometry {g} coordinate {coord}"),
            )
        }
    }
}

/// Overwrites `field` with one of its mutated values; returns what it did.
fn mutate(rng: &mut u64, bytes: &mut [u8], field: &Field) -> String {
    let slot = &mut bytes[field.at..field.at + field.width];
    let mut old = [0u8; 8];
    old[..field.width].copy_from_slice(slot);
    let old = u64::from_le_bytes(old);
    let new = if field.float {
        let x = f64::from_bits(old);
        let values = [
            0.0,
            x + 1.0,
            x - 1.0,
            f64::from_bits(old.wrapping_add(1)),
            f64::from_bits(old.wrapping_sub(1)),
            f64::from_bits(u64::MAX),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        values[pick(rng, values.len())].to_bits()
    } else {
        let mask = if field.width == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * field.width)) - 1
        };
        let values = [
            0,
            old.wrapping_add(1),
            old.wrapping_sub(1),
            u64::MAX,
            splitmix64(rng),
        ];
        values[pick(rng, values.len())] & mask
    };
    slot.copy_from_slice(&new.to_le_bytes()[..field.width]);
    format!("{}: {old:#x} -> {new:#x}", field.name)
}

/// Recomputes the CRC footer of the page holding byte `at` (if any), then
/// the file's trailer, so only the loader's own checks can object.
fn reseal(bytes: &mut [u8], at: usize, num_pages: usize) {
    if at >= HEADER_BYTES && at < HEADER_BYTES + num_pages * PAGE_RECORD_SIZE {
        let page = (at - HEADER_BYTES) / PAGE_RECORD_SIZE;
        let start = HEADER_BYTES + page * PAGE_RECORD_SIZE;
        let payload: &[u8; PAGE_SIZE] = bytes[start..start + PAGE_SIZE].try_into().unwrap();
        let record = encode_record(payload, PageId(page as u32));
        bytes[start..start + PAGE_RECORD_SIZE].copy_from_slice(&record);
    }
    let body = bytes.len() - 8;
    let checksum = file_checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&checksum.to_le_bytes());
}

/// The text of a caught panic.
fn message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

fn tmpfile(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("psj-tree-fuzz-{}-{name}", std::process::id()))
}

/// Every reader of a loaded mutated tree `a` against `b`.
fn readers_agree(a: &PagedTree, b: &PagedTree, saved: &std::path::Path) {
    let oracle = join_refined(a, b);
    let ctl = RunControl::default();
    let rtree = try_run_join(a, b, &NativeConfig::new(2), &ctl).expect("R-tree engine");
    assert_eq!(rtree.pairs, oracle, "R-tree engine differs from the oracle");
    let mut grid = try_run_partition_join(
        PartitionInput::Tree(a),
        PartitionInput::Tree(b),
        &NativeConfig::new(2),
        &ctl,
    )
    .expect("grid engine")
    .pairs;
    let mut sorted = oracle.clone();
    grid.sort_unstable();
    sorted.sort_unstable();
    assert_eq!(grid, sorted, "grid engine differs from the oracle");

    let mbr = b.mbr();
    let centre = Point::new((mbr.xl + mbr.xu) / 2.0, (mbr.yl + mbr.yu) / 2.0);
    let quarter = Rect::new(mbr.xl, mbr.yl, centre.x, centre.y);
    for window in [mbr, quarter] {
        let _ = a.window_query(&window);
    }
    let _ = a.nearest_neighbors(&centre, 10);
    let _ = a.stats();

    a.save_to(saved).expect("a loaded tree saves");
    let again = PagedTree::load_from(saved).expect("a saved tree loads");
    assert_eq!(
        join_refined(&again, b),
        oracle,
        "save -> load changed the join"
    );
}

#[test]
fn resealed_single_field_mutations_are_refused_or_agreed_on() {
    let (m1, m2) = psj_datagen::Scenario::scaled(42, 0.003).generate();
    let (a, b) = (index_map(&m1), index_map(&m2));
    assert!(
        a.len() >= 200 && !a.clusters().is_empty(),
        "a small tree with geometry"
    );
    let clean = tmpfile("clean");
    a.save_to(&clean).unwrap();
    let pristine = std::fs::read(&clean).unwrap();
    std::fs::remove_file(&clean).ok();
    let num_pages = u32_at(&pristine, 22) as usize;
    assert!(!join_refined(&a, &b).is_empty(), "degenerate workload");

    let (mutated, saved) = (tmpfile("mutated"), tmpfile("saved"));
    let mut rng = 0x5eed_f11e_u64;
    let (mut loaded, mut rejected) = (0u32, 0u32);
    for i in 0..MUTATIONS {
        let mut bytes = pristine.clone();
        let field = match i % 3 {
            0 => header_field(&mut rng),
            1 => page_field(&mut rng, &bytes, num_pages),
            _ => cluster_field(&mut rng, &bytes, num_pages),
        };
        let what = mutate(&mut rng, &mut bytes, &field);
        reseal(&mut bytes, field.at, num_pages);
        std::fs::write(&mutated, &bytes).unwrap();
        let load = catch_unwind(|| PagedTree::load_from(&mutated))
            .unwrap_or_else(|panic| panic!("mutation {i} ({what}): load: {}", message(&*panic)));
        match load {
            Err(e) => {
                assert_eq!(
                    e.kind(),
                    io::ErrorKind::InvalidData,
                    "mutation {i} ({what}) failed with {e}"
                );
                rejected += 1;
            }
            Ok(tree) => {
                let checked = catch_unwind(AssertUnwindSafe(|| readers_agree(&tree, &b, &saved)));
                if let Err(panic) = checked {
                    panic!("mutation {i} ({what}) loaded, then: {}", message(&*panic));
                }
                loaded += 1;
            }
        }
    }
    std::fs::remove_file(&mutated).ok();
    std::fs::remove_file(&saved).ok();
    println!("{MUTATIONS} mutations: {loaded} loaded and agreed, {rejected} rejected");
    assert!(
        loaded > 0 && rejected > 0,
        "the mutations reach both outcomes"
    );
}
