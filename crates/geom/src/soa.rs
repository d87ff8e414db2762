//! Struct-of-arrays MBR sequences for the join hot path.
//!
//! The plane-sweep kernel spends most of its time answering one question per
//! entry: *does this MBR intersect the restriction window?* Over an
//! array-of-structs `[Rect]` that test loads four scattered fields and
//! branches per entry. [`SoaMbrs`] stores the same rectangles as four
//! parallel coordinate arrays (`xl/xh/yl/yh`), so the window filter becomes a
//! dense streaming pass over contiguous `f64` lanes — branch-free compares
//! accumulated into a bitmask, surviving indices extracted with
//! `trailing_zeros` (the layout of *SIMD-ified R-tree Query Processing*
//! (Rayhan & Aref)).
//!
//! Each filter has two bodies behind a runtime dispatch: an explicit AVX2
//! path (`core::arch::x86_64` compares + movemask, selected via
//! `is_x86_feature_detected!`) and a safe, autovectorization-friendly scalar
//! body that doubles as the portable fallback and the reference the AVX2
//! path is tested against. The explicit path exists because LLVM vectorizes
//! the compare loops standalone but gives up once they are fused with the
//! gather/compaction control flow the kernel needs (see DESIGN.md §10).
//!
//! The arrays are frozen at construction: an R\*-tree node builds its view
//! once, on first use, and reuses it for every window that ever restricts
//! that node. [`SoaRun`] is the borrowed form every kernel reads.

use crate::Rect;

/// How many entries one bitmask chunk of the filter covers. One `u32` mask
/// could cover 32, but 8 keeps the compare loop short enough for the
/// autovectorizer to unroll fully at the node sizes the tree produces
/// (26-entry leaves, 102-entry directory nodes).
pub const FILTER_LANES: usize = 8;

/// A borrowed sequence of MBRs in struct-of-arrays layout: four parallel
/// coordinate slices indexed by entry position. The window filters and the
/// sweep kernel read lanes through this view, whoever owns them: an
/// [`SoaMbrs`], a fixed node frame in a page cache, or one cell of a
/// partitioned join's column arrays. All four slices must have the same
/// length.
#[derive(Debug, Clone, Copy)]
pub struct SoaRun<'a> {
    /// Lower x bounds, by entry position.
    pub xl: &'a [f64],
    /// Upper x bounds, by entry position.
    pub xh: &'a [f64],
    /// Lower y bounds, by entry position.
    pub yl: &'a [f64],
    /// Upper y bounds, by entry position.
    pub yh: &'a [f64],
}

/// A frozen sequence of MBRs in struct-of-arrays layout: four parallel
/// coordinate arrays indexed by entry position.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoaMbrs {
    xl: Box<[f64]>,
    xh: Box<[f64]>,
    yl: Box<[f64]>,
    yh: Box<[f64]>,
}

impl SoaMbrs {
    /// Builds the view from a rectangle slice (entry order is preserved).
    pub fn from_rects(rects: &[Rect]) -> Self {
        Self::from_iter(rects.iter().copied())
    }

    /// Builds the view from any rectangle iterator (entry order preserved).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(rects: impl Iterator<Item = Rect>) -> Self {
        let (lo, _) = rects.size_hint();
        let mut xl = Vec::with_capacity(lo);
        let mut xh = Vec::with_capacity(lo);
        let mut yl = Vec::with_capacity(lo);
        let mut yh = Vec::with_capacity(lo);
        for r in rects {
            xl.push(r.xl);
            xh.push(r.xu);
            yl.push(r.yl);
            yh.push(r.yu);
        }
        SoaMbrs {
            xl: xl.into_boxed_slice(),
            xh: xh.into_boxed_slice(),
            yl: yl.into_boxed_slice(),
            yh: yh.into_boxed_slice(),
        }
    }

    /// Number of rectangles.
    pub fn len(&self) -> usize {
        self.xl.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.xl.is_empty()
    }

    /// Lower x bounds, by entry position.
    #[inline]
    pub fn xl(&self) -> &[f64] {
        &self.xl
    }

    /// Upper x bounds, by entry position.
    #[inline]
    pub fn xh(&self) -> &[f64] {
        &self.xh
    }

    /// Lower y bounds, by entry position.
    #[inline]
    pub fn yl(&self) -> &[f64] {
        &self.yl
    }

    /// Upper y bounds, by entry position.
    #[inline]
    pub fn yh(&self) -> &[f64] {
        &self.yh
    }

    /// Rebuilds entry `i` as a [`Rect`].
    #[inline]
    pub fn rect(&self, i: usize) -> Rect {
        Rect {
            xl: self.xl[i],
            yl: self.yl[i],
            xu: self.xh[i],
            yu: self.yh[i],
        }
    }

    /// The four lanes as a borrowed [`SoaRun`].
    #[inline]
    pub fn run(&self) -> SoaRun<'_> {
        SoaRun {
            xl: &self.xl,
            xh: &self.xh,
            yl: &self.yl,
            yh: &self.yh,
        }
    }

    /// [`SoaRun::filter_window`] over this sequence.
    pub fn filter_window(&self, window: &Rect, out: &mut Vec<u32>) {
        self.run().filter_window(window, out);
    }
}

impl<'a> From<&'a SoaMbrs> for SoaRun<'a> {
    fn from(soa: &'a SoaMbrs) -> Self {
        soa.run()
    }
}

impl SoaRun<'_> {
    /// Number of rectangles in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.xl.len()
    }

    /// Whether the run is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xl.is_empty()
    }

    /// Rebuilds entry `i` as a [`Rect`].
    #[inline]
    pub fn rect(&self, i: usize) -> Rect {
        Rect {
            xl: self.xl[i],
            yl: self.yl[i],
            xu: self.xh[i],
            yu: self.yh[i],
        }
    }

    /// Appends the positions of all rectangles intersecting `window` to
    /// `out` (ascending). Exactly the entries for which
    /// [`Rect::intersects`] holds — closed bounds, touching counts —
    /// computed in [`FILTER_LANES`]-wide chunks of branch-free compares with
    /// a bitmask gather, so the per-entry work is four loads, four compares
    /// and three ANDs with no data-dependent branch.
    ///
    /// On x86-64 with AVX2 available at runtime the same loop body is
    /// compiled a second time under `#[target_feature(enable = "avx2")]`,
    /// where the autovectorizer widens the compares to 4 x `f64` — no
    /// intrinsics, just the one dispatch branch per call.
    pub fn filter_window(&self, window: &Rect, out: &mut Vec<u32>) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check above.
            unsafe { self.filter_window_avx2(window, out) };
            return;
        }
        self.filter_window_body(window, out);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn filter_window_avx2(&self, window: &Rect, out: &mut Vec<u32>) {
        self.filter_window_body(window, out);
    }

    #[inline(always)]
    fn filter_window_body(&self, window: &Rect, out: &mut Vec<u32>) {
        out.clear();
        let n = self.len();
        out.reserve(n);
        let (wxl, wyl, wxu, wyu) = (window.xl, window.yl, window.xu, window.yu);
        let (xl, xh, yl, yh) = (self.xl, self.xh, self.yl, self.yh);
        // `chunks_exact` hands the compiler fixed-length slices, so the
        // compare loop carries no bounds checks and vectorizes cleanly.
        let mut base = 0usize;
        for (((cxl, cxh), cyl), cyh) in xl
            .chunks_exact(FILTER_LANES)
            .zip(xh.chunks_exact(FILTER_LANES))
            .zip(yl.chunks_exact(FILTER_LANES))
            .zip(yh.chunks_exact(FILTER_LANES))
        {
            // Two phases: a branch-free compare loop into a bool array
            // (which the vectorizer turns into packed compares), then a
            // scalar fold into the bitmask. Folding inside the compare loop
            // defeats vectorization entirely.
            let mut hits = [false; FILTER_LANES];
            for lane in 0..FILTER_LANES {
                hits[lane] = (cxl[lane] <= wxu)
                    & (cxh[lane] >= wxl)
                    & (cyl[lane] <= wyu)
                    & (cyh[lane] >= wyl);
            }
            let mut mask = 0u32;
            for (lane, &h) in hits.iter().enumerate() {
                mask |= (h as u32) << lane;
            }
            while mask != 0 {
                let lane = (mask.trailing_zeros() & 7) as usize;
                out.push((base + lane) as u32);
                mask &= mask - 1;
            }
            base += FILTER_LANES;
        }
        for i in base..n {
            let hit = (xl[i] <= wxu) & (xh[i] >= wxl) & (yl[i] <= wyu) & (yh[i] >= wyl);
            if hit {
                out.push(i as u32);
            }
        }
    }

    /// As [`SoaMbrs::filter_window`], but additionally gathers the surviving
    /// rectangles' coordinates into four compact arrays (cleared first),
    /// parallel to `out`. A sweep over the survivors then streams dense
    /// coordinate lanes front to back — ready for the 4-wide scan probes of
    /// the SoA sweep — instead of indexing through `out` into the
    /// full-length arrays.
    ///
    /// **Requires the entries to be sorted by `xl` (ascending)** — exactly
    /// the precondition of the plane sweep this feeds. Sortedness lets the
    /// scan stop at the first entry with `xl > window.xu`: nothing after it
    /// can intersect the window, so on a typical restriction window a large
    /// suffix of the node is never touched at all.
    #[allow(clippy::too_many_arguments)]
    pub fn filter_window_gather(
        &self,
        window: &Rect,
        out: &mut Vec<u32>,
        gxl: &mut Vec<f64>,
        gxh: &mut Vec<f64>,
        gyl: &mut Vec<f64>,
        gyh: &mut Vec<f64>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check above.
            unsafe { self.filter_window_gather_avx2(window, out, gxl, gxh, gyl, gyh) };
            return;
        }
        self.filter_window_gather_body(window, out, gxl, gxh, gyl, gyh);
    }

    /// Explicit-intrinsics AVX2 copy of [`Self::filter_window_gather_body`]:
    /// identical accept/reject decisions and output order, with the window
    /// compares done as packed 4 x `f64` ops. The autovectorizer reliably
    /// widens the *standalone* filter loops but gives up once they are fused
    /// with the gather control flow, so this path spells the compares out.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn filter_window_gather_avx2(
        &self,
        window: &Rect,
        out: &mut Vec<u32>,
        gxl: &mut Vec<f64>,
        gxh: &mut Vec<f64>,
        gyl: &mut Vec<f64>,
        gyh: &mut Vec<f64>,
    ) {
        use core::arch::x86_64::*;
        out.clear();
        gxl.clear();
        gxh.clear();
        gyl.clear();
        gyh.clear();
        let n = self.len();
        out.reserve(n);
        gxl.reserve(n);
        gxh.reserve(n);
        gyl.reserve(n);
        gyh.reserve(n);
        let (wxl, wyl, wxu, wyu) = (window.xl, window.yl, window.xu, window.yu);
        let (xl, xh, yl, yh) = (self.xl, self.xh, self.yl, self.yh);
        // SAFETY: `_mm256_set1_pd` / `_mm256_loadu_pd` / compare / movemask
        // are plain data ops, guarded by the caller's AVX2 check; every load
        // below reads `QUAD` lanes inside a `chunks_exact(FILTER_LANES)`
        // window, so it stays in bounds.
        let (wxu_v, wxl_v, wyu_v, wyl_v) = (
            _mm256_set1_pd(wxu),
            _mm256_set1_pd(wxl),
            _mm256_set1_pd(wyu),
            _mm256_set1_pd(wyl),
        );
        const QUAD: usize = 4;
        // One quad of lanes: packed `xl <= wxu & xh >= wxl & yl <= wyu &
        // yh >= wyl`, folded to a 4-bit mask. Ordered (`_OQ`) compares match
        // the scalar operators on the non-NaN coordinates the tree stores.
        let quad_mask = |cxl: &[f64], cxh: &[f64], cyl: &[f64], cyh: &[f64], off: usize| -> u32 {
            // SAFETY: callers pass `FILTER_LANES`-long chunks and
            // `off + QUAD <= FILTER_LANES`.
            unsafe {
                let mx = _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_loadu_pd(cxl.as_ptr().add(off)), wxu_v);
                let mh = _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_loadu_pd(cxh.as_ptr().add(off)), wxl_v);
                let my = _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_loadu_pd(cyl.as_ptr().add(off)), wyu_v);
                let mv = _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_loadu_pd(cyh.as_ptr().add(off)), wyl_v);
                let hit = _mm256_and_pd(_mm256_and_pd(mx, mh), _mm256_and_pd(my, mv));
                _mm256_movemask_pd(hit) as u32
            }
        };
        let mut base = 0usize;
        for (((cxl, cxh), cyl), cyh) in xl
            .chunks_exact(FILTER_LANES)
            .zip(xh.chunks_exact(FILTER_LANES))
            .zip(yl.chunks_exact(FILTER_LANES))
            .zip(yh.chunks_exact(FILTER_LANES))
        {
            // xl-sorted input: once a chunk starts past the window's right
            // edge, every remaining entry does too.
            if cxl[0] > wxu {
                return;
            }
            let mut mask =
                quad_mask(cxl, cxh, cyl, cyh, 0) | (quad_mask(cxl, cxh, cyl, cyh, QUAD) << QUAD);
            while mask != 0 {
                // `& 7` pins the lane's range so the chunk indexing below
                // is provably in bounds — no checks in the pop loop.
                let lane = (mask.trailing_zeros() & 7) as usize;
                out.push((base + lane) as u32);
                gxl.push(cxl[lane]);
                gxh.push(cxh[lane]);
                gyl.push(cyl[lane]);
                gyh.push(cyh[lane]);
                mask &= mask - 1;
            }
            base += FILTER_LANES;
        }
        for i in base..n {
            if xl[i] > wxu {
                break;
            }
            let hit = (xh[i] >= wxl) & (yl[i] <= wyu) & (yh[i] >= wyl);
            if hit {
                out.push(i as u32);
                gxl.push(xl[i]);
                gxh.push(xh[i]);
                gyl.push(yl[i]);
                gyh.push(yh[i]);
            }
        }
    }

    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn filter_window_gather_body(
        &self,
        window: &Rect,
        out: &mut Vec<u32>,
        gxl: &mut Vec<f64>,
        gxh: &mut Vec<f64>,
        gyl: &mut Vec<f64>,
        gyh: &mut Vec<f64>,
    ) {
        out.clear();
        gxl.clear();
        gxh.clear();
        gyl.clear();
        gyh.clear();
        let n = self.len();
        out.reserve(n);
        gxl.reserve(n);
        gxh.reserve(n);
        gyl.reserve(n);
        gyh.reserve(n);
        let (wxl, wyl, wxu, wyu) = (window.xl, window.yl, window.xu, window.yu);
        let (xl, xh, yl, yh) = (self.xl, self.xh, self.yl, self.yh);
        let mut base = 0usize;
        for (((cxl, cxh), cyl), cyh) in xl
            .chunks_exact(FILTER_LANES)
            .zip(xh.chunks_exact(FILTER_LANES))
            .zip(yl.chunks_exact(FILTER_LANES))
            .zip(yh.chunks_exact(FILTER_LANES))
        {
            // xl-sorted input: once a chunk starts past the window's right
            // edge, every remaining entry does too.
            if cxl[0] > wxu {
                return;
            }
            // Two phases: a branch-free compare loop into a bool array
            // (which the vectorizer turns into packed compares), then a
            // scalar fold into the bitmask. Folding inside the compare loop
            // defeats vectorization entirely.
            let mut hits = [false; FILTER_LANES];
            for lane in 0..FILTER_LANES {
                hits[lane] = (cxl[lane] <= wxu)
                    & (cxh[lane] >= wxl)
                    & (cyl[lane] <= wyu)
                    & (cyh[lane] >= wyl);
            }
            let mut mask = 0u32;
            for (lane, &h) in hits.iter().enumerate() {
                mask |= (h as u32) << lane;
            }
            while mask != 0 {
                // `& 7` pins the lane's range so the chunk indexing below
                // is provably in bounds — no checks in the pop loop.
                let lane = (mask.trailing_zeros() & 7) as usize;
                out.push((base + lane) as u32);
                gxl.push(cxl[lane]);
                gxh.push(cxh[lane]);
                gyl.push(cyl[lane]);
                gyh.push(cyh[lane]);
                mask &= mask - 1;
            }
            base += FILTER_LANES;
        }
        for i in base..n {
            if xl[i] > wxu {
                break;
            }
            let hit = (xh[i] >= wxl) & (yl[i] <= wyu) & (yh[i] >= wyl);
            if hit {
                out.push(i as u32);
                gxl.push(xl[i]);
                gxh.push(xh[i]);
                gyl.push(yl[i]);
                gyh.push(yh[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(xl: f64, yl: f64, xu: f64, yu: f64) -> Rect {
        Rect::new(xl, yl, xu, yu)
    }

    #[test]
    fn roundtrips_rects() {
        let rects = vec![r(0.0, 1.0, 2.0, 3.0), r(-1.0, -2.0, 0.5, 0.5)];
        let soa = SoaMbrs::from_rects(&rects);
        assert_eq!(soa.len(), 2);
        for (i, want) in rects.iter().enumerate() {
            assert_eq!(&soa.rect(i), want);
        }
    }

    #[test]
    fn filter_matches_scalar_intersects() {
        // 37 rects: crosses several full chunks plus a remainder tail.
        let rects: Vec<Rect> = (0..37)
            .map(|i| {
                let x = (i % 7) as f64;
                let y = (i / 7) as f64;
                r(x, y, x + 1.0, y + 1.0)
            })
            .collect();
        let soa = SoaMbrs::from_rects(&rects);
        for window in [
            r(0.0, 0.0, 10.0, 10.0),
            r(2.0, 1.0, 3.5, 2.5),
            r(100.0, 100.0, 101.0, 101.0),
            r(3.0, 3.0, 3.0, 3.0), // degenerate point window
        ] {
            let mut got = Vec::new();
            soa.filter_window(&window, &mut got);
            let want: Vec<u32> = rects
                .iter()
                .enumerate()
                .filter(|(_, rc)| rc.intersects(&window))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, want, "window {window:?}");
        }
    }

    #[test]
    fn gather_variant_matches_filter_window() {
        // xl-sorted (the gather variant's precondition), with duplicate xl
        // keys and varying widths so the early cutoff has suffixes to skip.
        let rects: Vec<Rect> = (0..37)
            .map(|i| {
                let x = (i / 3) as f64 * 0.5;
                let y = (i % 7) as f64;
                r(x, y, x + 1.0 + (i % 3) as f64, y + 1.0)
            })
            .collect();
        let soa = SoaMbrs::from_rects(&rects);
        for window in [
            r(0.0, 0.0, 10.0, 10.0),
            r(2.0, 1.0, 3.5, 2.5),
            r(100.0, 100.0, 101.0, 101.0),
        ] {
            let mut plain = Vec::new();
            soa.filter_window(&window, &mut plain);
            let mut idx = vec![9u32];
            let (mut xl, mut xh, mut yl, mut yh) = (vec![0.0], vec![0.0], vec![0.0], vec![0.0]);
            soa.run()
                .filter_window_gather(&window, &mut idx, &mut xl, &mut xh, &mut yl, &mut yh);
            assert_eq!(idx, plain, "window {window:?}");
            for (pos, &i) in idx.iter().enumerate() {
                let want = rects[i as usize];
                assert_eq!(
                    (xl[pos], yl[pos], xh[pos], yh[pos]),
                    (want.xl, want.yl, want.xu, want.yu),
                    "gathered coords diverge at {pos}"
                );
            }
        }
    }

    #[test]
    fn touching_rects_count_as_intersecting() {
        let soa = SoaMbrs::from_rects(&[r(0.0, 0.0, 1.0, 1.0)]);
        let mut out = Vec::new();
        soa.filter_window(&r(1.0, 1.0, 2.0, 2.0), &mut out);
        assert_eq!(out, vec![0], "closed bounds: corner contact intersects");
    }

    #[test]
    fn empty_sequence() {
        let soa = SoaMbrs::from_rects(&[]);
        assert!(soa.is_empty());
        let mut out = vec![7u32];
        soa.filter_window(&r(0.0, 0.0, 1.0, 1.0), &mut out);
        assert!(out.is_empty(), "filter clears its output buffer");
    }
}
