//! Fixture trees: built once per seed and benchmark binary, never inside a
//! timed run.
//!
//! A fixture lives in `fixtures/<seed>-<fingerprint>/` and holds the two
//! R\*-trees of `Scenario::scaled(seed, 1.0)` exactly as `psj build` writes
//! them (built by insertion, frozen with geometry clusters), plus
//! `meta.txt` with what building them cost. The fingerprint is a hash of
//! the benchmark binary, so a commit that changes `rtree`, `datagen` or
//! `store` never reuses another commit's trees.

use psj_datagen::{MapObject, Scenario};
use psj_geom::{Polyline, Rect};
use psj_rtree::bulk::bulk_load_str;
use psj_rtree::{PagedTree, RTree};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Attribute bytes per object, the `psj build` default.
const ATTR_BYTES: u64 = 1365;

/// Fixture directories kept on disk (about 70 MB each); the least recently
/// made ones beyond this are removed.
const KEEP: usize = 24;

/// FNV-1a over the running executable.
fn fingerprint() -> io::Result<String> {
    let bytes = fs::read(std::env::current_exe()?)?;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok(format!("{h:016x}"))
}

/// The paper-scale scenario of a seed (Table 1 sizes).
pub fn scenario(seed: u64) -> Scenario {
    Scenario::scaled(seed, 1.0)
}

/// A fixture on disk.
pub struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    /// The fixture of `seed` under `root`, or an error naming the command
    /// that makes it.
    pub fn open(root: &Path, seed: u64) -> io::Result<Fixture> {
        let dir = root
            .join("fixtures")
            .join(format!("{seed}-{}", fingerprint()?));
        if dir.join("meta.txt").is_file() {
            Ok(Fixture { dir })
        } else {
            Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "no fixture at {}: run `psj-benchmark --make-fixtures --seed {seed}` \
                     (benchmark/run.sh does)",
                    dir.display()
                ),
            ))
        }
    }

    /// Loads and CRC-verifies both trees — the set-up step every workload
    /// shares.
    pub fn load(&self) -> io::Result<(PagedTree, PagedTree)> {
        Ok((
            PagedTree::load_from(&self.dir.join("a.psjt"))?,
            PagedTree::load_from(&self.dir.join("b.psjt"))?,
        ))
    }

    /// The `key value` lines of `meta.txt`: seconds spent per build step.
    pub fn meta(&self) -> io::Result<HashMap<String, f64>> {
        Ok(fs::read_to_string(self.dir.join("meta.txt"))?
            .lines()
            .filter_map(|l| {
                let (k, v) = l.split_once(' ')?;
                Some((k.to_string(), v.trim().parse().ok()?))
            })
            .collect())
    }
}

/// The objects' MBRs with their ids, the form the bulk loader and the
/// shard planner take.
pub fn items(objects: &[MapObject]) -> Vec<(Rect, u64)> {
    objects.iter().map(|o| (o.mbr(), o.oid)).collect()
}

/// Builds one tree by insertion, freezes and saves it; returns the seconds
/// spent inserting, freezing and saving.
fn build_one(objects: &[MapObject], path: &Path) -> io::Result<[f64; 3]> {
    let t0 = Instant::now();
    let mut tree = RTree::new();
    for o in objects {
        tree.insert(o.mbr(), o.oid);
    }
    let insert_s = t0.elapsed().as_secs_f64();
    let geoms: HashMap<u64, &Polyline> = objects.iter().map(|o| (o.oid, &o.geom)).collect();
    let t1 = Instant::now();
    let paged = PagedTree::freeze_with_attrs(
        &tree,
        |oid| geoms.get(&oid).map(|g| (*g).clone()),
        ATTR_BYTES,
    );
    let freeze_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    paged.save_to(path)?;
    Ok([insert_s, freeze_s, t2.elapsed().as_secs_f64()])
}

/// Makes the fixture of `seed` under `root` unless it is already there,
/// removes fixtures of other binaries, and returns its directory.
pub fn make(root: &Path, seed: u64) -> io::Result<PathBuf> {
    let print = fingerprint()?;
    let all = root.join("fixtures");
    let dir = all.join(format!("{seed}-{print}"));
    if dir.join("meta.txt").is_file() {
        return Ok(dir);
    }
    fs::create_dir_all(&dir)?;

    let t0 = Instant::now();
    let (map1, map2) = scenario(seed).generate();
    let generate_s = t0.elapsed().as_secs_f64();

    // One tree per thread: the two builds share nothing.
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| build_one(&map1, &dir.join("a.psjt")));
        let b = s.spawn(|| build_one(&map2, &dir.join("b.psjt")));
        (a.join().expect("build a"), b.join().expect("build b"))
    });
    let (a, b) = (a?, b?);

    let t1 = Instant::now();
    std::hint::black_box(bulk_load_str(&items(&map1)));
    std::hint::black_box(bulk_load_str(&items(&map2)));
    let str_s = t1.elapsed().as_secs_f64();

    // `meta.txt` goes last: its presence says the fixture is complete.
    fs::write(
        dir.join("meta.txt"),
        format!(
            "generate_s {generate_s}\nbuild_insert_s {}\nbuild_str_s {str_s}\nfreeze_s {}\nsave_s {}\n",
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2]
        ),
    )?;
    prune(&all, &print)?;
    Ok(dir)
}

/// Removes fixtures another binary made, then the oldest beyond [`KEEP`].
fn prune(all: &Path, print: &str) -> io::Result<()> {
    let mut mine = Vec::new();
    for entry in fs::read_dir(all)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(&format!("-{print}")) {
            mine.push((entry.metadata()?.modified()?, entry.path()));
        } else {
            fs::remove_dir_all(entry.path())?;
        }
    }
    mine.sort();
    for (_, path) in mine.iter().rev().skip(KEEP) {
        fs::remove_dir_all(path)?;
    }
    Ok(())
}
