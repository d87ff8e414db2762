//! Deterministic fault injection for page reads.
//!
//! A [`FaultPlan`] is a seeded description of which pages misbehave and
//! how. Selection is a pure function of `(seed, fault class, page id)` via
//! SplitMix64, so two runs with the same plan inject exactly the same
//! faults regardless of thread interleaving — which is what lets the chaos
//! differential suite assert byte-identical results and exact retry
//! counts.
//!
//! Four fault classes, each with its own per-page probability:
//!
//! * **transient** — the first `burst` reads of a selected page fail with a
//!   retryable `io::Error`; subsequent reads succeed. Models EIO blips.
//! * **flip** — a selected page permanently has one bit flipped in its
//!   payload. Caught by the CRC footer → `PageError::Corrupt`.
//! * **torn** — a selected page permanently loses the tail of its record
//!   (zeroed), as if a write was interrupted mid-sector. Also caught by
//!   the footer.
//! * **latency** — a per-read chance of an injected sleep, for exercising
//!   deadline/backpressure paths without real slow disks.
//!
//! One injection surface: [`FaultPlan::before_fetch`] is the hook a node
//! read calls before it touches the page (the R-tree join's and the
//! server's, each under its retry policy). Reads go to resident pages, not bytes on a
//! device, so flip/torn faults are synthesized directly as `Corrupt`
//! errors — justified because the checksum tests
//! (`checksum::tests::any_flipped_bit_is_detected` and
//! `checksum::tests::torn_record_is_detected`) prove the page footer
//! catches every such corruption of a record.

use crate::error::PageError;
use crate::page::PageId;
use crate::sync::lock_clean;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// SplitMix64: cheap, high-quality 64-bit mixer (public-domain constants).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const CLASS_TRANSIENT: u64 = 0x7472_616E; // "tran"
const CLASS_FLIP: u64 = 0x666C_6970; // "flip"
const CLASS_TORN: u64 = 0x746F_726E; // "torn"
const CLASS_LATENCY: u64 = 0x6C61_7465; // "late"
const CLASS_BURST: u64 = 0x6275_7273; // "burs"

/// A seeded, deterministic description of injected storage faults.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Probability a page is selected for a transient error burst.
    transient_p: f64,
    /// Maximum burst length; a selected page fails its first
    /// `1 + h % burst_max` reads (h deterministic per page).
    burst_max: u32,
    /// Probability a page is permanently bit-flipped.
    flip_p: f64,
    /// Probability a page is permanently torn (record tail zeroed).
    torn_p: f64,
    /// Per-read probability of injected latency.
    latency_p: f64,
    /// The injected latency duration.
    latency: Duration,

    /// Panic exactly once on the first fetch of this page (tests the
    /// executors' panic containment, not storage errors).
    panic_page: Option<u32>,

    /// Reads attempted so far per page; drives burst scheduling.
    attempts: Mutex<HashMap<u32, u32>>,
    transient_injected: AtomicU64,
    flips_injected: AtomicU64,
    torn_injected: AtomicU64,
    latency_injected: AtomicU64,
    panic_fired: AtomicBool,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            burst_max: 1,
            ..FaultPlan::default()
        }
    }

    /// Select `p` of all pages for transient bursts of up to `burst_max`
    /// consecutive failures (each followed by success).
    pub fn with_transient(mut self, p: f64, burst_max: u32) -> Self {
        self.transient_p = p.clamp(0.0, 1.0);
        self.burst_max = burst_max.max(1);
        self
    }

    /// Permanently bit-flip `p` of all pages.
    pub fn with_flip(mut self, p: f64) -> Self {
        self.flip_p = p.clamp(0.0, 1.0);
        self
    }

    /// Permanently tear `p` of all pages (zeroed record tail).
    pub fn with_torn(mut self, p: f64) -> Self {
        self.torn_p = p.clamp(0.0, 1.0);
        self
    }

    /// Inject `latency` on `p` of reads.
    pub fn with_latency(mut self, p: f64, latency: Duration) -> Self {
        self.latency_p = p.clamp(0.0, 1.0);
        self.latency = latency;
        self
    }

    /// Panic (once, on the first fetch) when `page` is read through
    /// [`FaultPlan::before_fetch`]. Unlike every other fault class this is
    /// not a storage error: it exercises the *executors'* panic
    /// containment — a worker thread must survive the unwind and the rest
    /// of the join must still complete.
    pub fn with_panic_page(mut self, page: u32) -> Self {
        self.panic_page = Some(page);
        self
    }

    /// Parse a fault spec string, e.g.
    /// `seed=42,transient=0.2,burst=2,flip=0.01,torn=0.005,latency-us=200,latency-p=0.05`.
    ///
    /// Keys (`-` and `_` interchangeable): `seed` (u64, default 0),
    /// `transient` (probability), `burst` (max burst length, default 1),
    /// `flip` (probability), `torn` (probability), `latency-us` (integer
    /// microseconds), `latency-p` (probability, defaults to 1.0 when
    /// `latency-us` is set without it).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut seed = 0u64;
        let mut transient = 0.0f64;
        let mut burst = 1u32;
        let mut flip = 0.0f64;
        let mut torn = 0.0f64;
        let mut latency_us = 0u64;
        let mut latency_p: Option<f64> = None;
        for part in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry '{part}' is not key=value"))?;
            let key = key.trim().replace('_', "-");
            let value = value.trim();
            let bad = |what: &str| format!("fault spec: invalid {what} '{value}'");
            match key.as_str() {
                "seed" => seed = value.parse().map_err(|_| bad("seed"))?,
                "transient" => transient = parse_prob(value)?,
                "burst" => burst = value.parse().map_err(|_| bad("burst"))?,
                "flip" => flip = parse_prob(value)?,
                "torn" => torn = parse_prob(value)?,
                "latency-us" => latency_us = value.parse().map_err(|_| bad("latency-us"))?,
                "latency-p" => latency_p = Some(parse_prob(value)?),
                other => return Err(format!("fault spec: unknown key '{other}'")),
            }
        }
        let mut plan = FaultPlan::new(seed)
            .with_transient(transient, burst)
            .with_flip(flip)
            .with_torn(torn);
        if latency_us > 0 {
            plan = plan.with_latency(latency_p.unwrap_or(1.0), Duration::from_micros(latency_us));
        }
        Ok(plan)
    }

    /// Whether the plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.transient_p == 0.0
            && self.flip_p == 0.0
            && self.torn_p == 0.0
            && self.latency_p == 0.0
            && self.panic_page.is_none()
    }

    /// Deterministic per-(class, page) hash in [0, 1).
    fn frac(&self, class: u64, page: u32) -> f64 {
        let h = splitmix64(self.seed ^ class.rotate_left(32) ^ page as u64);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Burst length for a transient-selected page: 1..=burst_max.
    fn burst_len(&self, page: u32) -> u32 {
        if self.burst_max <= 1 {
            1
        } else {
            let h = splitmix64(self.seed ^ CLASS_BURST.rotate_left(32) ^ page as u64);
            1 + (h % self.burst_max as u64) as u32
        }
    }

    /// Record a read attempt on `page` and return its 0-based attempt
    /// number (monotonic across the plan's lifetime).
    fn next_attempt(&self, page: PageId) -> u32 {
        let mut attempts = lock_clean(&self.attempts);
        let n = attempts.entry(page.0).or_insert(0);
        let attempt = *n;
        *n = n.saturating_add(1);
        attempt
    }

    /// Whether `page` is selected for a transient burst.
    fn transient_selected(&self, page: PageId) -> bool {
        self.transient_p > 0.0 && self.frac(CLASS_TRANSIENT, page.0) < self.transient_p
    }

    /// Whether read number `attempt` of `page` fails transiently.
    /// Counts the injection when it fires.
    fn check_transient(&self, page: PageId, attempt: u32) -> bool {
        if self.transient_selected(page) && attempt < self.burst_len(page.0) {
            self.transient_injected.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// The permanent corruption class of `page`, if any.
    pub fn permanent_class(&self, page: PageId) -> Option<&'static str> {
        if self.flip_p > 0.0 && self.frac(CLASS_FLIP, page.0) < self.flip_p {
            Some("bit flip")
        } else if self.torn_p > 0.0 && self.frac(CLASS_TORN, page.0) < self.torn_p {
            Some("torn read")
        } else {
            None
        }
    }

    /// Whether reads may draw injected latency.
    fn has_latency(&self) -> bool {
        self.latency_p > 0.0 && !self.latency.is_zero()
    }

    /// Sleep if read number `attempt` of `page` draws injected latency.
    fn inject_latency(&self, page: PageId, attempt: u32) {
        if self.has_latency() {
            let h = splitmix64(
                self.seed
                    ^ CLASS_LATENCY.rotate_left(32)
                    ^ page.0 as u64
                    ^ ((attempt as u64) << 40),
            );
            let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
            if frac < self.latency_p {
                self.latency_injected.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.latency);
            }
        }
    }

    /// Fault hook for page reads: applies latency, transient, and
    /// permanent faults before the real read. Permanent flip/torn faults
    /// are synthesized as `Corrupt` errors — the checksum tests
    /// (`any_flipped_bit_is_detected`, `torn_record_is_detected`) prove the
    /// CRC footer detects them, so modelling detection as certain is sound.
    ///
    /// Only a page selected for transients, or any page when latency is
    /// configured, has its attempt counted (under the plan's one mutex):
    /// for every other page the attempt number changes no outcome, so it
    /// reads as 0 and concurrent readers of those pages share no lock.
    pub fn before_fetch(&self, page: PageId) -> Result<(), PageError> {
        if self.panic_page == Some(page.0) && !self.panic_fired.swap(true, Ordering::AcqRel) {
            panic!("injected panic on fetch of {page:?}");
        }
        let attempt = if self.transient_selected(page) || self.has_latency() {
            self.next_attempt(page)
        } else {
            0
        };
        self.inject_latency(page, attempt);
        if self.check_transient(page, attempt) {
            return Err(PageError::io(
                page,
                io::ErrorKind::Other,
                "injected transient I/O fault",
            ));
        }
        if let Some(class) = self.permanent_class(page) {
            self.flips_or_torn(class);
            return Err(PageError::Corrupt {
                page,
                context: format!("injected {class}"),
            });
        }
        Ok(())
    }

    fn flips_or_torn(&self, class: &str) {
        if class == "bit flip" {
            self.flips_injected.fetch_add(1, Ordering::Relaxed);
        } else {
            self.torn_injected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Transient faults injected so far.
    pub fn transient_injected(&self) -> u64 {
        self.transient_injected.load(Ordering::Relaxed)
    }

    /// Latency injections so far.
    pub fn latency_injected(&self) -> u64 {
        self.latency_injected.load(Ordering::Relaxed)
    }

    /// One-line human-readable summary of injected fault counts.
    pub fn summary(&self) -> String {
        format!(
            "transient={} flips={} torn={} latency={}",
            self.transient_injected(),
            self.flips_injected.load(Ordering::Relaxed),
            self.torn_injected.load(Ordering::Relaxed),
            self.latency_injected()
        )
    }
}

fn parse_prob(value: &str) -> Result<f64, String> {
    let p: f64 = value
        .parse()
        .map_err(|_| format!("fault spec: invalid probability '{value}'"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("fault spec: probability '{value}' not in [0, 1]"));
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "seed=42,transient=0.2,burst=2,flip=0.01,torn=0.005,latency-us=200,latency-p=0.05",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.burst_max, 2);
        assert!((plan.transient_p - 0.2).abs() < 1e-12);
        assert!((plan.flip_p - 0.01).abs() < 1e-12);
        assert!((plan.torn_p - 0.005).abs() < 1e-12);
        assert_eq!(plan.latency, Duration::from_micros(200));
        assert!((plan.latency_p - 0.05).abs() < 1e-12);
        assert!(!plan.is_noop());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("transient").is_err());
        assert!(FaultPlan::parse("flip=1.5").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
        // Underscores accepted as dashes.
        assert!(FaultPlan::parse("latency_us=10,latency_p=0.5").is_ok());
    }

    #[test]
    fn empty_spec_is_noop() {
        assert!(FaultPlan::parse("").unwrap().is_noop());
        assert!(FaultPlan::parse("seed=7").unwrap().is_noop());
    }

    #[test]
    fn selection_is_deterministic() {
        let a = FaultPlan::new(1).with_flip(0.3);
        let b = FaultPlan::new(1).with_flip(0.3);
        for p in 0..200 {
            assert_eq!(a.permanent_class(PageId(p)), b.permanent_class(PageId(p)));
        }
        // A different seed must select a different set eventually.
        let c = FaultPlan::new(2).with_flip(0.3);
        assert!((0..200).any(|p| a.permanent_class(PageId(p)) != c.permanent_class(PageId(p))));
    }

    #[test]
    fn transient_bursts_then_recovers() {
        let plan = FaultPlan::new(9).with_transient(1.0, 3);
        let page = PageId(5);
        let burst = plan.burst_len(page.0);
        assert!((1..=3).contains(&burst));
        for i in 0..burst {
            let attempt = plan.next_attempt(page);
            assert_eq!(attempt, i);
            assert!(
                plan.check_transient(page, attempt),
                "attempt {i} should fail"
            );
        }
        let attempt = plan.next_attempt(page);
        assert!(!plan.check_transient(page, attempt));
        assert_eq!(plan.transient_injected(), burst as u64);
    }

    /// Reads of unselected pages take no attempt number, so however many
    /// of them interleave, a selected page fails exactly its burst and
    /// then succeeds.
    #[test]
    fn unselected_reads_do_not_shift_a_selected_burst() {
        let plan = FaultPlan::new(17).with_transient(0.3, 4);
        let selected = (0..)
            .map(PageId)
            .find(|&p| plan.transient_selected(p) && plan.burst_len(p.0) > 1)
            .unwrap();
        let burst = plan.burst_len(selected.0);
        let others: Vec<PageId> = (0..200)
            .map(PageId)
            .filter(|&p| !plan.transient_selected(p))
            .collect();
        assert!(others.len() > 100);
        let mut failed = 0;
        for round in 0..burst + 3 {
            for &p in others.iter().skip(round as usize % 7).step_by(3) {
                plan.before_fetch(p)
                    .expect("an unselected page never fails");
            }
            if plan.before_fetch(selected).is_err() {
                assert_eq!(failed, round, "the burst's failures come first");
                failed += 1;
            }
        }
        assert_eq!(failed, burst);
        assert_eq!(plan.transient_injected(), u64::from(burst));
        assert!(
            !lock_clean(&plan.attempts).contains_key(&others[0].0),
            "an unselected page takes no attempt number"
        );
    }

    #[test]
    fn before_fetch_synthesizes_corrupt_for_flipped_pages() {
        let plan = FaultPlan::new(3).with_flip(1.0);
        let err = plan.before_fetch(PageId(0)).unwrap_err();
        assert!(err.is_corrupt());
        assert_eq!(plan.flips_injected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn probability_roughly_respected() {
        let plan = FaultPlan::new(11).with_flip(0.2);
        let hits = (0..2000)
            .filter(|&p| plan.permanent_class(PageId(p)).is_some())
            .count();
        // 20% of 2000 = 400; allow a generous deterministic band.
        assert!((250..=550).contains(&hits), "hits = {hits}");
    }
}
