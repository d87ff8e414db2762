//! Integration tests for persistence on generated TIGER-like data.

use psj_core::NativeConfig;
use psj_datagen::io::{load_map, save_map};
use psj_datagen::{MapObject, Scenario};
use psj_integration::harness::join;
use psj_rtree::{PagedTree, RTree};
use std::collections::{BTreeSet, HashMap};

fn index(objects: &[MapObject]) -> PagedTree {
    let mut t = RTree::new();
    for o in objects {
        t.insert(o.mbr(), o.oid);
    }
    let geoms: HashMap<u64, psj_geom::Polyline> =
        objects.iter().map(|o| (o.oid, o.geom.clone())).collect();
    PagedTree::freeze(&t, move |oid| geoms.get(&oid).cloned())
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("psj-it-{}-{}", std::process::id(), name));
    p
}

fn as_set(v: &[(u64, u64)]) -> BTreeSet<(u64, u64)> {
    v.iter().copied().collect()
}

#[test]
fn full_pipeline_generate_save_load_join() {
    // The complete CLI pipeline, via the library API: generate → save maps →
    // load maps → index → save trees → load trees → join.
    let (m1, m2) = Scenario::scaled(77, 0.005).generate();
    let p1 = tmp("map1");
    let p2 = tmp("map2");
    save_map(&m1, &p1).unwrap();
    save_map(&m2, &p2).unwrap();
    let l1 = load_map(&p1).unwrap();
    let l2 = load_map(&p2).unwrap();
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
    assert_eq!(l1, m1);
    assert_eq!(l2, m2);

    let a = index(&l1);
    let b = index(&l2);
    let t1 = tmp("tree1");
    let t2 = tmp("tree2");
    a.save_to(&t1).unwrap();
    b.save_to(&t2).unwrap();
    let la = PagedTree::load_from(&t1).unwrap();
    let lb = PagedTree::load_from(&t2).unwrap();
    std::fs::remove_file(&t1).ok();
    std::fs::remove_file(&t2).ok();

    let fresh = join(&a, &b, &NativeConfig::new(4));
    let loaded = join(&la, &lb, &NativeConfig::new(4));
    assert_eq!(as_set(&fresh.pairs), as_set(&loaded.pairs));
    assert!(!fresh.pairs.is_empty());
}
