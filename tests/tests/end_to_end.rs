//! End-to-end integration: generator → R*-trees → all join executors agree.

use psj_core::{
    join_candidates, join_refined, run_sim_join, Assignment, NativeConfig, Reassignment, SimConfig,
    VictimSelection,
};
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

fn workload(scale: f64, seed: u64) -> (PagedTree, PagedTree) {
    let (m1, m2) = Scenario::scaled(seed, scale).generate();
    (index(&m1), index(&m2))
}

fn as_set(v: &[(u64, u64)]) -> BTreeSet<(u64, u64)> {
    v.iter().copied().collect()
}

#[test]
fn trees_pass_verification_on_generated_data() {
    let (a, b) = workload(0.01, 11);
    a.verify().unwrap();
    b.verify().unwrap();
    assert!(a.len() > 1000);
    assert!(b.len() > 1000);
}

#[test]
fn sequential_filter_equals_brute_force() {
    let (m1, m2) = Scenario::scaled(3, 0.004).generate();
    let (a, b) = (index(&m1), index(&m2));
    let mut got = join_candidates(&a, &b).candidates;
    got.sort_unstable();
    let mut want = Vec::new();
    for x in &m1 {
        let mx = x.mbr();
        for y in &m2 {
            if mx.intersects(&y.mbr()) {
                want.push((x.oid, y.oid));
            }
        }
    }
    want.sort_unstable();
    assert_eq!(got, want);
    assert!(!want.is_empty(), "workload must produce candidates");
}

#[test]
fn refined_equals_brute_force_geometry() {
    let (m1, m2) = Scenario::scaled(5, 0.002).generate();
    let (a, b) = (index(&m1), index(&m2));
    let mut got = join_refined(&a, &b);
    got.sort_unstable();
    let mut want = Vec::new();
    for x in &m1 {
        let mx = x.mbr();
        for y in &m2 {
            if mx.intersects(&y.mbr()) && x.geom.intersects(&y.geom) {
                want.push((x.oid, y.oid));
            }
        }
    }
    want.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn simulated_executor_agrees_with_sequential_on_tiger_data() {
    let (a, b) = workload(0.01, 42);
    let want = as_set(&join_candidates(&a, &b).candidates);
    for cfg in [
        SimConfig::lsr(6, 6, 64),
        SimConfig::gsrr(6, 6, 64),
        SimConfig::gd(6, 6, 64),
        SimConfig::best(6, 6, 64),
    ] {
        let cfg = SimConfig {
            collect_candidates: true,
            ..cfg
        };
        let got = run_sim_join(&a, &b, &cfg).candidates.unwrap();
        assert_eq!(as_set(&got), want);
    }
}

#[test]
fn native_executor_agrees_with_sequential_on_tiger_data() {
    let (a, b) = workload(0.01, 42);
    let want = as_set(&join_candidates(&a, &b).candidates);
    for threads in [1, 3, 8] {
        let mut cfg = NativeConfig::new(threads);
        cfg.refine = false;
        let got = join(&a, &b, &cfg);
        assert_eq!(as_set(&got.pairs), want, "{threads} threads");
    }
}

#[test]
fn native_refined_is_subset_of_candidates() {
    let (a, b) = workload(0.005, 9);
    let refined = join(&a, &b, &NativeConfig::new(4));
    let candidates = as_set(&join_candidates(&a, &b).candidates);
    assert!(refined.pairs.len() <= candidates.len());
    for p in &refined.pairs {
        assert!(candidates.contains(p), "refined pair {p:?} not a candidate");
    }
    // Exact refinement on real line data must reject some false hits.
    assert!(
        refined.pairs.len() < candidates.len(),
        "expected at least one false hit among {} candidates",
        candidates.len()
    );
}

#[test]
fn sim_determinism_across_all_variants() {
    let (a, b) = workload(0.005, 123);
    for buffer_org in [psj_core::BufferOrg::Local, psj_core::BufferOrg::Global] {
        for assignment in [
            Assignment::StaticRange,
            Assignment::StaticRoundRobin,
            Assignment::Dynamic,
        ] {
            for reass in [
                Reassignment::None,
                Reassignment::RootLevel,
                Reassignment::AllLevels,
            ] {
                let cfg = SimConfig {
                    buffer_org,
                    assignment,
                    reassignment: reass,
                    victim: VictimSelection::Arbitrary,
                    seed: 7,
                    ..SimConfig::best(5, 3, 40)
                };
                let m1 = run_sim_join(&a, &b, &cfg).metrics;
                let m2 = run_sim_join(&a, &b, &cfg).metrics;
                assert_eq!(m1.response_time, m2.response_time);
                assert_eq!(m1.disk_accesses, m2.disk_accesses);
                assert_eq!(m1.proc_finish, m2.proc_finish);
                assert_eq!(m1.candidates, m2.candidates);
            }
        }
    }
}

#[test]
fn response_time_improves_with_parallelism_on_tiger_data() {
    let (a, b) = workload(0.02, 2024);
    let m1 = run_sim_join(&a, &b, &SimConfig::best(1, 1, 100)).metrics;
    let m4 = run_sim_join(&a, &b, &SimConfig::best(4, 4, 400)).metrics;
    let m16 = run_sim_join(&a, &b, &SimConfig::best(16, 16, 1600)).metrics;
    assert!(m4.response_time < m1.response_time);
    assert!(m16.response_time < m4.response_time);
    let s16 = m1.response_time as f64 / m16.response_time as f64;
    assert!(s16 > 6.0, "16-processor speed-up only {s16:.1}");
}
