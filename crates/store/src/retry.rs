//! Retry policy for page reads.
//!
//! The policy is owned by whoever drives the read — the R-tree join and a
//! served query each retry their node reads — and the page source below
//! never retries, so one knob controls the whole stack and every retry is
//! counted in one place.
//!
//! Only errors whose [`PageError::is_retryable`] is true are retried;
//! corruption fails immediately. Retries follow at once: the arena under a
//! read is memory, so a wait would buy nothing.

use crate::error::PageError;

/// Retry configuration for a single page read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    /// Three attempts: two immediate retries, which matters for tests and
    /// for transient kernel-level EIO blips that resolve on reread.
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// Policy with `max_attempts` total attempts.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
        }
    }

    /// Run `op` under this policy, calling `on_retry(attempt, error)` for
    /// every attempt that is about to be retried. Returns the final result
    /// and the number of retries performed (0 if the first attempt settled
    /// it). Tracing hooks in `on_retry`: a retry storm shows up in the
    /// trace as it happens, with the failing attempt's error, rather than
    /// as one summary count after the final attempt settles.
    pub fn run_observed<T>(
        &self,
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
                    attempt += 1;
                    retries += 1;
                }
                Err(e) => return (Err(e), retries),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;
    use std::io;

    /// `run_observed` with no observer.
    fn run<T>(
        policy: &RetryPolicy,
        op: impl FnMut(u32) -> Result<T, PageError>,
    ) -> (Result<T, PageError>, u64) {
        policy.run_observed(op, |_, _| {})
    }

    #[test]
    fn retries_transient_errors_up_to_budget() {
        let policy = RetryPolicy::attempts(3);
        let mut fails = 2;
        let (res, retries) = run(&policy, |_| {
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
        let (res, retries) = run(&policy, |_| {
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
        let (res, retries) = run(&policy, |_| {
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
        let policy = RetryPolicy::attempts(1);
        let mut calls = 0;
        let (res, retries) = run(&policy, |_| {
            calls += 1;
            Err::<(), _>(PageError::io(PageId(0), io::ErrorKind::Other, "blip"))
        });
        assert!(res.is_err());
        assert_eq!(calls, 1);
        assert_eq!(retries, 0);
    }
}
