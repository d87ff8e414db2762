//! Configurable retry policy for page reads.
//!
//! The policy is owned by whoever drives the read — the shared page cache
//! retries its fills, and a served query retries its node reads — and the
//! page source below never retries, so one knob controls the whole stack
//! and every retry is counted in one place.
//!
//! Only errors whose [`PageError::is_retryable`] is true are retried;
//! corruption and out-of-range requests fail immediately. Backoff is
//! exponential from `base_backoff` capped at `max_backoff`, with optional
//! deterministic jitter derived from the page id (so concurrent readers of
//! different pages do not thundering-herd the device in lockstep, while
//! tests stay reproducible).

use crate::error::PageError;
use std::time::Duration;

/// Retry configuration for a single page read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Add deterministic per-page jitter (up to +50%) to each backoff.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    /// Three attempts with no backoff: two retries at zero latency cost,
    /// which matters for tests and for transient kernel-level EIO blips
    /// that resolve on immediate reread.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: false,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: every error is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: false,
        }
    }

    /// Policy with `max_attempts` total attempts and no backoff.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// Policy with exponential backoff and jitter.
    pub fn backoff(max_attempts: u32, base: Duration, max: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: base,
            max_backoff: max,
            jitter: true,
        }
    }

    /// The sleep before retry number `retry` (0-based) of page `key`.
    fn backoff_for(&self, retry: u32, key: u64) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32.checked_shl(retry.min(16)).unwrap_or(u32::MAX);
        let mut delay = self
            .base_backoff
            .checked_mul(factor)
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff.max(self.base_backoff));
        if self.jitter {
            // Deterministic jitter in [0, 50%) keyed on (page, retry).
            let h = splitmix64(key ^ ((retry as u64) << 32));
            let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
            let extra = delay.mul_f64(0.5 * frac);
            delay += extra;
        }
        delay
    }

    /// Run `op` under this policy. Returns the final result and the number
    /// of retries performed (0 if the first attempt settled it).
    pub fn run<T>(
        &self,
        key: u64,
        op: impl FnMut(u32) -> Result<T, PageError>,
    ) -> (Result<T, PageError>, u64) {
        self.run_observed(key, op, |_, _| {})
    }

    /// Like [`RetryPolicy::run`], but calls `on_retry(attempt, error)` for
    /// every attempt that is about to be retried (before the backoff
    /// sleep). Tracing hooks in here: a retry storm shows up in the trace
    /// as it happens, with the failing attempt's error, rather than as one
    /// summary count after the final attempt settles.
    pub fn run_observed<T>(
        &self,
        key: u64,
        mut op: impl FnMut(u32) -> Result<T, PageError>,
        mut on_retry: impl FnMut(u32, &PageError),
    ) -> (Result<T, PageError>, u64) {
        let mut retries = 0u64;
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return (Ok(v), retries),
                Err(e) if e.is_retryable() && attempt + 1 < self.max_attempts => {
                    on_retry(attempt, &e);
                    let delay = self.backoff_for(attempt, key);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                    retries += 1;
                }
                Err(e) => return (Err(e), retries),
            }
        }
    }
}

/// SplitMix64: cheap, high-quality 64-bit mixer (public-domain constants).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;
    use std::io;

    #[test]
    fn retries_transient_errors_up_to_budget() {
        let policy = RetryPolicy::attempts(3);
        let mut fails = 2;
        let (res, retries) = policy.run(0, |_| {
            if fails > 0 {
                fails -= 1;
                Err(PageError::io(PageId(0), io::ErrorKind::Other, "blip"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(res.unwrap(), 42);
        assert_eq!(retries, 2);
    }

    #[test]
    fn observer_sees_each_retried_error() {
        let policy = RetryPolicy::attempts(3);
        let mut fails = 2;
        let mut observed = Vec::new();
        let (res, retries) = policy.run_observed(
            7,
            |_| {
                if fails > 0 {
                    fails -= 1;
                    Err(PageError::io(PageId(7), io::ErrorKind::Other, "blip"))
                } else {
                    Ok(1)
                }
            },
            |attempt, err| observed.push((attempt, err.is_retryable())),
        );
        assert_eq!(res.unwrap(), 1);
        assert_eq!(retries, 2);
        assert_eq!(observed, vec![(0, true), (1, true)]);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let policy = RetryPolicy::attempts(3);
        let mut calls = 0;
        let (res, retries) = policy.run(0, |_| {
            calls += 1;
            Err::<(), _>(PageError::io(PageId(0), io::ErrorKind::Other, "blip"))
        });
        assert!(res.is_err());
        assert_eq!(calls, 3);
        assert_eq!(retries, 2);
    }

    #[test]
    fn corruption_is_never_retried() {
        let policy = RetryPolicy::attempts(5);
        let mut calls = 0;
        let (res, retries) = policy.run(0, |_| {
            calls += 1;
            Err::<(), _>(PageError::Corrupt {
                page: PageId(0),
                context: "bad".into(),
            })
        });
        assert!(res.unwrap_err().is_corrupt());
        assert_eq!(calls, 1);
        assert_eq!(retries, 0);
    }

    #[test]
    fn none_policy_fails_fast() {
        let policy = RetryPolicy::none();
        let mut calls = 0;
        let (res, retries) = policy.run(0, |_| {
            calls += 1;
            Err::<(), _>(PageError::io(PageId(0), io::ErrorKind::Other, "blip"))
        });
        assert!(res.is_err());
        assert_eq!(calls, 1);
        assert_eq!(retries, 0);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(400),
            jitter: false,
        };
        assert_eq!(policy.backoff_for(0, 1), Duration::from_micros(100));
        assert_eq!(policy.backoff_for(1, 1), Duration::from_micros(200));
        assert_eq!(policy.backoff_for(2, 1), Duration::from_micros(400));
        assert_eq!(policy.backoff_for(6, 1), Duration::from_micros(400));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy::backoff(4, Duration::from_micros(100), Duration::from_millis(1));
        let a = policy.backoff_for(1, 77);
        let b = policy.backoff_for(1, 77);
        assert_eq!(a, b);
        assert!(a >= Duration::from_micros(200));
        assert!(a < Duration::from_micros(300));
    }
}
