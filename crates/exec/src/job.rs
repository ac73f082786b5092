//! Reusable, cancellable job units around the parallel executors.
//!
//! The long-running `mmc serve` daemon schedules many concurrent
//! multiplies onto one shared worker pool, so each multiply must be a
//! *job*: something that can be started, observed (per-job span traces,
//! PR 7) and — crucially — cancelled without tearing down the pool.
//!
//! Cancellation is cooperative. A [`CancelToken`] is a cheap clonable
//! handle over a shared flag; the compute loops poll it at coarse,
//! allocation-free boundaries — each `k` step of an executor work unit
//! (and, in `mmc-ooc`, the panel-stage boundary before each prefetch
//! claim). Polling at loop tops keeps the block kernel unchanged: a
//! cancel is observed within one `k` step of a `µ×µ` unit, which is
//! milliseconds at the shapes the server runs, while the steady-state
//! overhead is one relaxed atomic load per `µ²` block products.
//!
//! A cancelled [`crate::gemm_into`] returns `false` and leaves only its
//! own (abandoned) output buffer behind; every worker thread observes
//! the flag independently, so the rayon pool is reusable immediately.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared cooperative-cancellation flag for one in-flight job.
///
/// Clones share the same flag: hand one clone to the executor and keep
/// another on the control plane. Once cancelled, a token stays
/// cancelled — jobs are single-use, matching the serve scheduler's
/// one-token-per-request lifecycle.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has [`CancelToken::cancel`] been called on any clone?
    ///
    /// A relaxed load — the executors poll this on loop boundaries where
    /// staleness of a few iterations is fine.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_clones_share_one_flag() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled() && !u.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled() && u.is_cancelled());
        // Idempotent.
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn default_token_starts_live() {
        assert!(!CancelToken::default().is_cancelled());
    }
}
