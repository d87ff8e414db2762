//! Restricted plane sweep over x-sorted rectangle sequences (paper §2.2).
//!
//! Given two sequences `R` and `S` of rectangles, both sorted by their lower
//! x bound, [`sweep_pairs`] reports every intersecting pair `(i, j)` with
//! `R[i] ∩ S[j] ≠ ∅` — without building any dynamic sweep structure. The
//! sweep line visits the rectangles of `R ∪ S` in ascending `xl` order; at a
//! stop on a rectangle `t ∈ R` it scans `S` forward from the current frontier
//! until `S[j].xl > t.xu`, testing each scanned rectangle for intersection
//! (symmetrically for `t ∈ S`).
//!
//! The order in which pairs are produced is the **local plane-sweep order**:
//! it determines the order in which a spatial-join task descends into child
//! node pairs and therefore the order in which pages are read from secondary
//! storage. Reading pages in this order preserves spatial locality in the
//! LRU buffer (paper §2.2, Figure 1) and is the foundation of the static
//! range / round-robin task assignments of §3.
//!
//! Complexity: `O(k·(|R| + |S|) + #pairs)` where `k` is the average overlap
//! fan-out; no allocation beyond the output vector.

pub use crate::soa::SoaRun;
use crate::Rect;

/// A pair of indices `(i, j)` into the two input sequences whose rectangles
/// intersect.
pub type SweepPair = (u32, u32);

/// Computes all intersecting pairs between two x-sorted rectangle sequences,
/// in local plane-sweep order. See the module docs for the algorithm.
///
/// Both inputs must be sorted by `xl` (ascending); this is debug-asserted.
pub fn sweep_pairs(r: &[Rect], s: &[Rect]) -> Vec<SweepPair> {
    let mut out = Vec::new();
    sweep_pairs_into(r, s, &mut out);
    out
}

/// As [`sweep_pairs`], but appends into a caller-provided buffer so hot join
/// loops can reuse one allocation ("workhorse collection").
pub fn sweep_pairs_into(r: &[Rect], s: &[Rect], out: &mut Vec<SweepPair>) {
    debug_assert!(is_sorted_by_xl(r), "R sequence not sorted by xl");
    debug_assert!(is_sorted_by_xl(s), "S sequence not sorted by xl");

    let mut i = 0usize; // frontier into r
    let mut j = 0usize; // frontier into s
    while i < r.len() && j < s.len() {
        if r[i].xl <= s[j].xl {
            // Sweep line stops on t = r[i]; scan S forward from j.
            let t = &r[i];
            let mut k = j;
            while k < s.len() && s[k].xl <= t.xu {
                if y_overlaps(t, &s[k]) {
                    out.push((i as u32, k as u32));
                }
                k += 1;
            }
            i += 1;
        } else {
            // Sweep line stops on t = s[j]; scan R forward from i.
            let t = &s[j];
            let mut k = i;
            while k < r.len() && r[k].xl <= t.xu {
                if y_overlaps(t, &r[k]) {
                    out.push((k as u32, j as u32));
                }
                k += 1;
            }
            j += 1;
        }
    }
}

/// Restriction of the sweep to rectangles intersecting a window: the
/// search-space restriction of [BKS 93]. Rectangles outside `window` cannot
/// contribute result pairs when `window` is the intersection of the parent
/// MBRs, so they are skipped before the sweep runs.
///
/// Returns the filtered, still-sorted subsequences as index vectors alongside
/// the pairs (indices refer to the *original* slices).
pub fn sweep_pairs_restricted(
    r: &[Rect],
    s: &[Rect],
    window: &Rect,
    scratch_r: &mut Vec<u32>,
    scratch_s: &mut Vec<u32>,
    out: &mut Vec<SweepPair>,
) {
    scratch_r.clear();
    scratch_s.clear();
    for (i, rect) in r.iter().enumerate() {
        if rect.intersects(window) {
            scratch_r.push(i as u32);
        }
    }
    for (j, rect) in s.iter().enumerate() {
        if rect.intersects(window) {
            scratch_s.push(j as u32);
        }
    }
    // Inline sweep over the filtered index lists (they remain xl-sorted).
    let mut i = 0usize;
    let mut j = 0usize;
    while i < scratch_r.len() && j < scratch_s.len() {
        let ri = scratch_r[i] as usize;
        let sj = scratch_s[j] as usize;
        if r[ri].xl <= s[sj].xl {
            let t = &r[ri];
            let mut k = j;
            while k < scratch_s.len() {
                let sk = scratch_s[k] as usize;
                if s[sk].xl > t.xu {
                    break;
                }
                if y_overlaps(t, &s[sk]) {
                    out.push((ri as u32, sk as u32));
                }
                k += 1;
            }
            i += 1;
        } else {
            let t = &s[sj];
            let mut k = i;
            while k < scratch_r.len() {
                let rk = scratch_r[k] as usize;
                if r[rk].xl > t.xu {
                    break;
                }
                if y_overlaps(t, &r[rk]) {
                    out.push((rk as u32, sj as u32));
                }
                k += 1;
            }
            j += 1;
        }
    }
}

/// How many survivor entries one sweep-scan probe tests at once. Four `f64`
/// lanes fill one AVX2 vector, and the average restricted scan is shorter
/// than this — most stops finish in a single probe.
const SCAN_LANES: usize = 4;

/// Reusable buffers for [`sweep_pairs_soa`]: the filtered index lists plus
/// the survivors' coordinates gathered into compact arrays
/// ([`SoaRun::filter_window_gather`]). One instance per worker amortizes
/// every allocation across the join.
#[derive(Debug, Default)]
pub struct SweepScratch {
    /// Indices of `r` entries intersecting the window (ascending, xl-sorted).
    pub filt_r: Vec<u32>,
    /// Indices of `s` entries intersecting the window (ascending, xl-sorted).
    pub filt_s: Vec<u32>,
    rxl: Vec<f64>,
    rxh: Vec<f64>,
    ryl: Vec<f64>,
    ryh: Vec<f64>,
    sxl: Vec<f64>,
    sxh: Vec<f64>,
    syl: Vec<f64>,
    syh: Vec<f64>,
}

/// Struct-of-arrays variant of [`sweep_pairs_restricted`]: same restriction,
/// same sweep, identical output — pairs, filtered index lists and their order
/// are byte-for-byte what the scalar path produces. The window filter runs
/// over frozen coordinate arrays in fixed-width branch-free chunks
/// ([`SoaRun::filter_window_gather`]) and gathers the survivors' coordinates
/// into compact arrays as it goes; the sweep's forward scans then probe the
/// compacted lanes [`SCAN_LANES`] at a time — branch-free x/y tests into a
/// bitmask, matches popped in ascending order — so a typical stop costs one
/// probe instead of a data-dependent branch per scanned entry.
///
/// Both inputs must be xl-sorted in entry order, exactly as for the scalar
/// sweep. Each is any lane view: an owned [`crate::SoaMbrs`] (`&soa`) or a
/// borrowed [`SoaRun`] over lanes stored elsewhere.
pub fn sweep_pairs_soa<'r, 's>(
    r: impl Into<SoaRun<'r>>,
    s: impl Into<SoaRun<'s>>,
    window: &Rect,
    scratch: &mut SweepScratch,
    out: &mut Vec<SweepPair>,
) {
    let (r, s) = (r.into(), s.into());
    // One AVX2 dispatch for the whole kernel call: both window filters and
    // the sweep inline into the feature-gated copy, so per-node-pair cost
    // carries a single predicted branch instead of per-filter dispatches
    // and opaque function calls.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { sweep_pairs_soa_avx2(r, s, window, scratch, out) };
        return;
    }
    sweep_pairs_soa_body(r, s, window, scratch, out);
}

/// [`sweep_pairs_soa`] without the window filter: both runs participate
/// wholesale. This is the partition-join kernel — every item replicated
/// into a grid cell intersects that cell by construction, so a window pass
/// over the cell would accept everything and its per-entry compares (and
/// the gather of an owned [`crate::SoaMbrs`] per cell before it) are pure
/// overhead. The slices are memcpy'd into `scratch` (the sweep needs
/// sentinel padding), index lists become the identity, and the identical
/// sweep core runs — emission order matches [`sweep_pairs_soa`] over the
/// same entries with a covering window, with positions relative to each
/// run's start. Appends to `out` without clearing it.
///
/// Both runs must be xl-sorted, exactly as for [`sweep_pairs_soa`].
pub fn sweep_pairs_soa_runs(
    r: &SoaRun<'_>,
    s: &SoaRun<'_>,
    scratch: &mut SweepScratch,
    out: &mut Vec<SweepPair>,
) {
    let (n, m) = (r.len(), s.len());
    if n == 0 || m == 0 {
        return;
    }
    scratch.filt_r.clear();
    scratch.filt_r.extend(0..n as u32);
    scratch.filt_s.clear();
    scratch.filt_s.extend(0..m as u32);
    let copy = |dst: &mut Vec<f64>, src: &[f64]| {
        dst.clear();
        dst.extend_from_slice(src);
    };
    copy(&mut scratch.rxl, r.xl);
    copy(&mut scratch.rxh, r.xh);
    copy(&mut scratch.ryl, r.yl);
    copy(&mut scratch.ryh, r.yh);
    copy(&mut scratch.sxl, s.xl);
    copy(&mut scratch.sxh, s.xh);
    copy(&mut scratch.syl, s.yl);
    copy(&mut scratch.syh, s.yh);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { sweep_scratch_avx2(scratch, n, m, out) };
        return;
    }
    sweep_scratch_body(scratch, n, m, out);
}

/// Explicit-intrinsics AVX2 copy of [`sweep_pairs_soa_body`]: the window
/// filters run their packed-compare variant and each forward scan becomes a
/// 4-lane probe — one packed x-gate, one packed y-overlap test, survivors
/// popped from the combined movemask in ascending lane order. Emission order
/// and accept/reject decisions are identical to the scalar sweep.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_pairs_soa_avx2(
    r: SoaRun<'_>,
    s: SoaRun<'_>,
    window: &Rect,
    scratch: &mut SweepScratch,
    out: &mut Vec<SweepPair>,
) {
    // SAFETY: AVX2 is guaranteed by the dispatching caller.
    unsafe {
        r.filter_window_gather_avx2(
            window,
            &mut scratch.filt_r,
            &mut scratch.rxl,
            &mut scratch.rxh,
            &mut scratch.ryl,
            &mut scratch.ryh,
        );
        s.filter_window_gather_avx2(
            window,
            &mut scratch.filt_s,
            &mut scratch.sxl,
            &mut scratch.sxh,
            &mut scratch.syl,
            &mut scratch.syh,
        );
    }
    let (n, m) = (scratch.filt_r.len(), scratch.filt_s.len());
    // SAFETY: AVX2 is guaranteed by the dispatching caller.
    unsafe { sweep_scratch_avx2(scratch, n, m, out) }
}

/// The post-filter half of [`sweep_pairs_soa_avx2`]: sentinel-pads the
/// compacted streams already sitting in `scratch` and sweeps them. Split
/// out so [`sweep_pairs_soa_runs`] can feed pre-sorted runs straight in
/// without a window-filter pass.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_scratch_avx2(
    scratch: &mut SweepScratch,
    n: usize,
    m: usize,
    out: &mut Vec<SweepPair>,
) {
    use core::arch::x86_64::*;
    if n == 0 || m == 0 {
        return;
    }
    // Sentinel-pad the scanned streams: `+inf` fails the x-gate in every
    // sentinel lane, and a failed gate also vetoes the pair test. A probe at
    // position `k` reads lanes `k..k + SCAN_LANES`; `k` never exceeds the
    // survivor count (the gate of the last lane must pass, on a real entry,
    // for `k` to advance), so padded length `len + SCAN_LANES` covers every
    // probe.
    for _ in 0..SCAN_LANES {
        scratch.rxl.push(f64::INFINITY);
        scratch.ryl.push(0.0);
        scratch.ryh.push(0.0);
        scratch.sxl.push(f64::INFINITY);
        scratch.syl.push(0.0);
        scratch.syh.push(0.0);
    }
    let SweepScratch {
        filt_r,
        filt_s,
        rxl,
        rxh,
        ryl,
        ryh,
        sxl,
        sxh,
        syl,
        syh,
    } = scratch;
    let all_gates = (1u32 << SCAN_LANES) - 1;
    let mut i = 0usize;
    let mut j = 0usize;
    while i < n && j < m {
        if rxl[i] <= sxl[j] {
            let (t_xu, t_yl, t_yu) = (rxh[i], ryl[i], ryh[i]);
            let ri = filt_r[i];
            // SAFETY: loads stay within the padded streams (see above).
            unsafe {
                let xu_v = _mm256_set1_pd(t_xu);
                let yl_v = _mm256_set1_pd(t_yl);
                let yu_v = _mm256_set1_pd(t_yu);
                let mut k = j;
                loop {
                    let gate =
                        _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_loadu_pd(sxl.as_ptr().add(k)), xu_v);
                    let ylo =
                        _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_loadu_pd(syl.as_ptr().add(k)), yu_v);
                    let yhi =
                        _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_loadu_pd(syh.as_ptr().add(k)), yl_v);
                    let gates = _mm256_movemask_pd(gate) as u32;
                    let mut mask = gates & _mm256_movemask_pd(_mm256_and_pd(ylo, yhi)) as u32;
                    while mask != 0 {
                        let l = (mask.trailing_zeros() & 3) as usize;
                        out.push((ri, filt_s[k + l]));
                        mask &= mask - 1;
                    }
                    if gates != all_gates {
                        break;
                    }
                    k += SCAN_LANES;
                }
            }
            i += 1;
        } else {
            let (t_xu, t_yl, t_yu) = (sxh[j], syl[j], syh[j]);
            let sj = filt_s[j];
            // SAFETY: loads stay within the padded streams (see above).
            unsafe {
                let xu_v = _mm256_set1_pd(t_xu);
                let yl_v = _mm256_set1_pd(t_yl);
                let yu_v = _mm256_set1_pd(t_yu);
                let mut k = i;
                loop {
                    let gate =
                        _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_loadu_pd(rxl.as_ptr().add(k)), xu_v);
                    let ylo =
                        _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_loadu_pd(ryl.as_ptr().add(k)), yu_v);
                    let yhi =
                        _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_loadu_pd(ryh.as_ptr().add(k)), yl_v);
                    let gates = _mm256_movemask_pd(gate) as u32;
                    let mut mask = gates & _mm256_movemask_pd(_mm256_and_pd(ylo, yhi)) as u32;
                    while mask != 0 {
                        let l = (mask.trailing_zeros() & 3) as usize;
                        out.push((filt_r[k + l], sj));
                        mask &= mask - 1;
                    }
                    if gates != all_gates {
                        break;
                    }
                    k += SCAN_LANES;
                }
            }
            j += 1;
        }
    }
}

/// Reborrows `a[k..k + SCAN_LANES]` as a fixed-size lane block: one range
/// check, then check-free lane indexing.
#[inline(always)]
fn lanes(a: &[f64], k: usize) -> &[f64; SCAN_LANES] {
    a[k..k + SCAN_LANES]
        .try_into()
        .expect("slice of SCAN_LANES length")
}

#[inline(always)]
fn sweep_pairs_soa_body(
    r: SoaRun<'_>,
    s: SoaRun<'_>,
    window: &Rect,
    scratch: &mut SweepScratch,
    out: &mut Vec<SweepPair>,
) {
    r.filter_window_gather_body(
        window,
        &mut scratch.filt_r,
        &mut scratch.rxl,
        &mut scratch.rxh,
        &mut scratch.ryl,
        &mut scratch.ryh,
    );
    s.filter_window_gather_body(
        window,
        &mut scratch.filt_s,
        &mut scratch.sxl,
        &mut scratch.sxh,
        &mut scratch.syl,
        &mut scratch.syh,
    );
    let (n, m) = (scratch.filt_r.len(), scratch.filt_s.len());
    sweep_scratch_body(scratch, n, m, out);
}

/// The post-filter half of [`sweep_pairs_soa_body`] — see
/// [`sweep_scratch_avx2`] for why it is split out.
fn sweep_scratch_body(scratch: &mut SweepScratch, n: usize, m: usize, out: &mut Vec<SweepPair>) {
    if n == 0 || m == 0 {
        return;
    }
    // Sentinel-pad the scanned streams so the lane probes below never read
    // past the survivors: `+inf` fails the `xl <= t.xu` gate in every
    // sentinel lane, and a failed gate also vetoes the pair test, so the
    // y sentinels' values are irrelevant.
    for _ in 0..SCAN_LANES {
        scratch.rxl.push(f64::INFINITY);
        scratch.ryl.push(0.0);
        scratch.ryh.push(0.0);
        scratch.sxl.push(f64::INFINITY);
        scratch.syl.push(0.0);
        scratch.syh.push(0.0);
    }
    let SweepScratch {
        filt_r,
        filt_s,
        rxl,
        rxh,
        ryl,
        ryh,
        sxl,
        sxh,
        syl,
        syh,
    } = scratch;
    // Inline sweep over the compacted survivors (they remain xl-sorted).
    // A stop on r[i] probes s's streams SCAN_LANES at a time: branch-free
    // x-gate and y-overlap tests folded into a bitmask, survivors popped in
    // ascending lane order — exactly the scalar scan's emission order. The
    // x-gate of the last lane decides whether the scan continues, and the
    // sentinel padding guarantees every probe is in bounds.
    let mut i = 0usize;
    let mut j = 0usize;
    while i < n && j < m {
        if rxl[i] <= sxl[j] {
            let (t_xu, t_yl, t_yu) = (rxh[i], ryl[i], ryh[i]);
            let ri = filt_r[i];
            let mut k = j;
            while sxl[k] <= t_xu {
                let (lx, ll, lh) = (lanes(sxl, k), lanes(syl, k), lanes(syh, k));
                let mut gate = [false; SCAN_LANES];
                let mut hit = [false; SCAN_LANES];
                for l in 0..SCAN_LANES {
                    gate[l] = lx[l] <= t_xu;
                    hit[l] = gate[l] & (ll[l] <= t_yu) & (lh[l] >= t_yl);
                }
                let mut mask = 0u32;
                for (l, &h) in hit.iter().enumerate() {
                    mask |= (h as u32) << l;
                }
                while mask != 0 {
                    let l = (mask.trailing_zeros() & 3) as usize;
                    out.push((ri, filt_s[k + l]));
                    mask &= mask - 1;
                }
                if !gate[SCAN_LANES - 1] {
                    break;
                }
                k += SCAN_LANES;
            }
            i += 1;
        } else {
            let (t_xu, t_yl, t_yu) = (sxh[j], syl[j], syh[j]);
            let sj = filt_s[j];
            let mut k = i;
            while rxl[k] <= t_xu {
                let (lx, ll, lh) = (lanes(rxl, k), lanes(ryl, k), lanes(ryh, k));
                let mut gate = [false; SCAN_LANES];
                let mut hit = [false; SCAN_LANES];
                for l in 0..SCAN_LANES {
                    gate[l] = lx[l] <= t_xu;
                    hit[l] = gate[l] & (ll[l] <= t_yu) & (lh[l] >= t_yl);
                }
                let mut mask = 0u32;
                for (l, &h) in hit.iter().enumerate() {
                    mask |= (h as u32) << l;
                }
                while mask != 0 {
                    let l = (mask.trailing_zeros() & 3) as usize;
                    out.push((filt_r[k + l], sj));
                    mask &= mask - 1;
                }
                if !gate[SCAN_LANES - 1] {
                    break;
                }
                k += SCAN_LANES;
            }
            j += 1;
        }
    }
}

/// Brute-force reference: every pair tested, output in row-major order.
/// Used by tests and benchmarks as the correctness baseline.
pub fn nested_loop_pairs(r: &[Rect], s: &[Rect]) -> Vec<SweepPair> {
    let mut out = Vec::new();
    for (i, a) in r.iter().enumerate() {
        for (j, b) in s.iter().enumerate() {
            if a.intersects(b) {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

#[inline]
fn y_overlaps(a: &Rect, b: &Rect) -> bool {
    a.yl <= b.yu && b.yl <= a.yu
}

fn is_sorted_by_xl(v: &[Rect]) -> bool {
    v.windows(2).all(|w| w[0].xl <= w[1].xl)
}

/// Sorts a rectangle sequence by `xl`, returning the permutation applied, so
/// callers can map sweep indices back to original entries.
pub fn sort_by_xl(rects: &mut [Rect]) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..rects.len() as u32).collect();
    perm.sort_by(|&a, &b| {
        rects[a as usize]
            .xl
            .partial_cmp(&rects[b as usize].xl)
            .expect("NaN coordinate")
    });
    let sorted: Vec<Rect> = perm.iter().map(|&k| rects[k as usize]).collect();
    rects.copy_from_slice(&sorted);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SoaMbrs;

    fn r(xl: f64, yl: f64, xu: f64, yu: f64) -> Rect {
        Rect::new(xl, yl, xu, yu)
    }

    fn as_set(pairs: &[SweepPair]) -> std::collections::BTreeSet<SweepPair> {
        pairs.iter().copied().collect()
    }

    /// Reconstruction of Figure 1: R = ⟨r1, r2, r3⟩, S = ⟨s1, s2⟩ laid out so
    /// the sweep line stops at r1, s1, r2, s2, r3 in that order and the pair
    /// tests happen in the figure's local plane-sweep order.
    #[test]
    fn figure1_order() {
        let rs = [
            r(0.0, 2.0, 3.0, 4.0), // r1
            r(2.0, 1.0, 5.0, 3.0), // r2
            r(6.0, 2.0, 8.0, 4.0), // r3
        ];
        let ss = [
            r(1.0, 3.0, 4.0, 5.0), // s1
            r(4.5, 1.5, 7.0, 3.0), // s2
        ];
        let pairs = sweep_pairs(&rs, &ss);
        // Stops: r1 (tests s1) → s1 (tests r2) → r2 (tests s2) → s2 (tests r3).
        assert_eq!(pairs, vec![(0, 0), (1, 0), (1, 1), (2, 1)]);
        // The order is exactly non-decreasing in sweep position: each pair's
        // later-starting rectangle advances monotonically.
        assert_eq!(as_set(&pairs), as_set(&nested_loop_pairs(&rs, &ss)));
    }

    #[test]
    fn empty_inputs() {
        assert!(sweep_pairs(&[], &[]).is_empty());
        assert!(sweep_pairs(&[r(0.0, 0.0, 1.0, 1.0)], &[]).is_empty());
        assert!(sweep_pairs(&[], &[r(0.0, 0.0, 1.0, 1.0)]).is_empty());
    }

    #[test]
    fn no_intersections() {
        let rs = [r(0.0, 0.0, 1.0, 1.0), r(2.0, 0.0, 3.0, 1.0)];
        let ss = [r(0.0, 5.0, 3.0, 6.0)];
        assert!(sweep_pairs(&rs, &ss).is_empty());
    }

    #[test]
    fn x_overlap_without_y_overlap_is_rejected() {
        let rs = [r(0.0, 0.0, 10.0, 1.0)];
        let ss = [r(1.0, 5.0, 2.0, 6.0)];
        assert!(sweep_pairs(&rs, &ss).is_empty());
    }

    #[test]
    fn identical_xl_values() {
        // Ties on xl must not lose pairs.
        let rs = [r(0.0, 0.0, 2.0, 2.0), r(0.0, 3.0, 2.0, 5.0)];
        let ss = [r(0.0, 1.0, 2.0, 4.0)];
        let pairs = sweep_pairs(&rs, &ss);
        assert_eq!(as_set(&pairs), as_set(&[(0, 0), (1, 0)]));
    }

    #[test]
    fn matches_nested_loop_on_grid() {
        // Overlapping lattice: every adjacent pair intersects.
        let mut rs = Vec::new();
        let mut ss = Vec::new();
        for k in 0..20 {
            let x = k as f64 * 0.5;
            rs.push(r(x, 0.0, x + 1.0, 1.0));
            ss.push(r(x + 0.25, 0.5, x + 0.75, 1.5));
        }
        let pairs = sweep_pairs(&rs, &ss);
        assert_eq!(as_set(&pairs), as_set(&nested_loop_pairs(&rs, &ss)));
    }

    #[test]
    fn restricted_sweep_filters_by_window() {
        let rs = [r(0.0, 0.0, 1.0, 1.0), r(5.0, 0.0, 6.0, 1.0)];
        let ss = [r(0.5, 0.5, 1.5, 1.5), r(5.5, 0.5, 6.5, 1.5)];
        let window = r(0.0, 0.0, 2.0, 2.0);
        let (mut sr, mut ssc, mut out) = (Vec::new(), Vec::new(), Vec::new());
        sweep_pairs_restricted(&rs, &ss, &window, &mut sr, &mut ssc, &mut out);
        // Only the left pair survives the restriction.
        assert_eq!(out, vec![(0, 0)]);
        assert_eq!(sr, vec![0]);
        assert_eq!(ssc, vec![0]);
    }

    #[test]
    fn restricted_equals_unrestricted_with_covering_window() {
        let rs = [r(0.0, 0.0, 2.0, 2.0), r(1.0, 1.0, 3.0, 3.0)];
        let ss = [r(0.5, 0.5, 1.5, 1.5), r(2.5, 2.5, 4.0, 4.0)];
        let window = r(-10.0, -10.0, 10.0, 10.0);
        let (mut sr, mut ssc, mut out) = (Vec::new(), Vec::new(), Vec::new());
        sweep_pairs_restricted(&rs, &ss, &window, &mut sr, &mut ssc, &mut out);
        assert_eq!(out, sweep_pairs(&rs, &ss));
    }

    #[test]
    fn soa_sweep_matches_scalar_restricted() {
        // Dense lattice with xl ties plus a disjoint far cluster; several
        // windows including degenerate and disjoint ones.
        let mut rs = Vec::new();
        let mut ss = Vec::new();
        for k in 0..40 {
            let x = (k / 2) as f64 * 0.5;
            rs.push(r(x, 0.0, x + 1.0, 1.0));
            ss.push(r(x + 0.25, 0.5, x + 0.75, 1.5));
        }
        rs.push(r(100.0, 100.0, 101.0, 101.0));
        ss.push(r(100.5, 100.5, 101.5, 101.5));
        let soa_r = SoaMbrs::from_rects(&rs);
        let soa_s = SoaMbrs::from_rects(&ss);
        for window in [
            r(-10.0, -10.0, 200.0, 200.0),
            r(2.0, 0.0, 4.0, 1.0),
            r(3.0, 0.5, 3.0, 0.5),
            r(-5.0, -5.0, -1.0, -1.0),
        ] {
            let (mut fr, mut fs, mut scalar) = (Vec::new(), Vec::new(), Vec::new());
            sweep_pairs_restricted(&rs, &ss, &window, &mut fr, &mut fs, &mut scalar);
            let mut scratch = SweepScratch::default();
            let mut soa = Vec::new();
            sweep_pairs_soa(&soa_r, &soa_s, &window, &mut scratch, &mut soa);
            assert_eq!(soa, scalar, "pairs diverge for {window:?}");
            assert_eq!(scratch.filt_r, fr, "R filter diverges for {window:?}");
            assert_eq!(scratch.filt_s, fs, "S filter diverges for {window:?}");
        }
    }

    #[test]
    fn runs_sweep_matches_windowed_soa_on_full_runs() {
        // Same lattice as above; the runs variant must emit exactly what
        // the windowed variant does under a covering window, for whole
        // runs and for arbitrary sub-runs (a cell of a larger layout).
        let mut rs = Vec::new();
        let mut ss = Vec::new();
        for k in 0..40 {
            let x = (k / 2) as f64 * 0.5;
            rs.push(r(x, 0.0, x + 1.0, 1.0));
            ss.push(r(x + 0.25, 0.5, x + 0.75, 1.5));
        }
        let cover = r(-10.0, -10.0, 200.0, 200.0);
        for (lo_r, hi_r, lo_s, hi_s) in [(0, 40, 0, 40), (5, 25, 10, 30), (0, 0, 0, 40)] {
            let sub_r = &rs[lo_r..hi_r];
            let sub_s = &ss[lo_s..hi_s];
            let soa_r = SoaMbrs::from_rects(sub_r);
            let soa_s = SoaMbrs::from_rects(sub_s);
            let mut scratch = SweepScratch::default();
            let mut want = Vec::new();
            sweep_pairs_soa(&soa_r, &soa_s, &cover, &mut scratch, &mut want);
            let mut got = Vec::new();
            sweep_pairs_soa_runs(&soa_r.run(), &soa_s.run(), &mut scratch, &mut got);
            assert_eq!(
                got, want,
                "runs sweep diverges for {lo_r}..{hi_r} x {lo_s}..{hi_s}"
            );
        }
    }

    #[test]
    fn sort_by_xl_returns_permutation() {
        let mut v = vec![
            r(3.0, 0.0, 4.0, 1.0),
            r(1.0, 0.0, 2.0, 1.0),
            r(2.0, 0.0, 3.0, 1.0),
        ];
        let perm = sort_by_xl(&mut v);
        assert_eq!(perm, vec![1, 2, 0]);
        assert!(v.windows(2).all(|w| w[0].xl <= w[1].xl));
    }

    #[test]
    fn sweep_order_is_monotone_in_x() {
        // Pairs must be emitted so that the sweep-line stop position — the
        // smaller xl of each pair — never decreases. That is what "preserves
        // spatial locality" means.
        let mut rs = Vec::new();
        let mut ss = Vec::new();
        for k in 0..30 {
            let x = k as f64;
            rs.push(r(x, 0.0, x + 2.0, 2.0));
            ss.push(r(x + 0.5, 1.0, x + 1.5, 3.0));
        }
        let pairs = sweep_pairs(&rs, &ss);
        let stops: Vec<f64> = pairs
            .iter()
            .map(|&(i, j)| rs[i as usize].xl.min(ss[j as usize].xl))
            .collect();
        assert!(
            stops.windows(2).all(|w| w[0] <= w[1]),
            "not monotone: {stops:?}"
        );
        assert!(!pairs.is_empty());
    }
}
