//! Tenant identity and deterministic rate limiting.
//!
//! Real Loki scopes every request with the `X-Scope-OrgID` header and
//! resolves per-tenant override limits on top of the defaults; OMNI serves
//! many NERSC teams from one shared warehouse, so the reproduction carries
//! the same dimension. A [`TenantId`] names the workload owner on every
//! ingest and query path, and a [`TokenBucket`] meters each tenant's
//! admission rate against the virtual clock — fully deterministic, so a
//! chaos seed replays to byte-identical shed decisions.

use crate::time::{Timestamp, NANOS_PER_SEC};
use std::fmt;
use std::sync::Arc;

/// The tenant every unscoped request is attributed to, mirroring Loki's
/// `fake` org-id used when auth is disabled.
pub const ANONYMOUS_TENANT: &str = "anonymous";

/// A tenant identifier (the `X-Scope-OrgID` of the reproduction).
///
/// Cheap to clone (`Arc<str>` inside) and usable as a map key; ordering is
/// lexicographic so snapshots and reports are stable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// Create a tenant id.
    pub fn new(id: impl AsRef<str>) -> Self {
        Self(Arc::from(id.as_ref()))
    }

    /// The default tenant unscoped requests run as.
    pub fn anonymous() -> Self {
        Self::new(ANONYMOUS_TENANT)
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

impl From<String> for TenantId {
    fn from(s: String) -> Self {
        Self::new(s)
    }
}

/// A deterministic token bucket over the virtual clock.
///
/// Refill is computed from elapsed virtual nanoseconds — no wall clock, no
/// background thread — so admission decisions depend only on the request
/// sequence and the clock, which is what makes the multi-tenant chaos
/// drill reproducible. A bucket with `rate_per_sec == 0` and `burst == 0`
/// admits nothing (the zero-limit tenant). The bucket is plain data: its
/// owner decides how it is shared.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: u64,
    burst: u64,
    /// Available capacity in nano-tokens (tokens × 1e9) so refills stay in
    /// integer arithmetic and replay deterministically.
    nano_tokens: u128,
    /// Virtual time of the last refill.
    last_refill: Timestamp,
}

impl TokenBucket {
    /// A bucket refilling `rate_per_sec` tokens per virtual second with a
    /// capacity of `burst` tokens, starting full at `now`.
    pub fn new(rate_per_sec: u64, burst: u64, now: Timestamp) -> Self {
        Self {
            rate_per_sec,
            burst,
            nano_tokens: burst as u128 * NANOS_PER_SEC as u128,
            last_refill: now,
        }
    }

    /// Take `tokens` tokens at virtual time `now`; `false` means the caller
    /// must shed the request. Time moving backwards (stale `now` from a
    /// racing reader) refills nothing instead of panicking.
    pub fn try_acquire(&mut self, now: Timestamp, tokens: u64) -> bool {
        self.refill(now);
        let need = tokens as u128 * NANOS_PER_SEC as u128;
        if self.nano_tokens >= need && tokens <= self.burst {
            self.nano_tokens -= need;
            true
        } else {
            false
        }
    }

    /// Whole tokens currently available at `now`, without taking any.
    pub fn available(&mut self, now: Timestamp) -> u64 {
        self.refill(now);
        (self.nano_tokens / NANOS_PER_SEC as u128) as u64
    }

    fn refill(&mut self, now: Timestamp) {
        let cap = self.burst as u128 * NANOS_PER_SEC as u128;
        let elapsed = now.saturating_sub(self.last_refill).max(0) as u128;
        self.nano_tokens = self
            .nano_tokens
            .saturating_add(elapsed.saturating_mul(self.rate_per_sec as u128))
            .min(cap);
        self.last_refill = self.last_refill.max(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_id_basics() {
        let a = TenantId::new("alice");
        let b: TenantId = "alice".into();
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "alice");
        assert_eq!(a.to_string(), "alice");
        assert_eq!(TenantId::anonymous().as_str(), ANONYMOUS_TENANT);
        assert!(TenantId::new("a") < TenantId::new("b"));
    }

    #[test]
    fn bucket_starts_full_and_drains() {
        let mut b = TokenBucket::new(10, 5, 0);
        for _ in 0..5 {
            assert!(b.try_acquire(0, 1));
        }
        assert!(!b.try_acquire(0, 1), "burst exhausted");
    }

    #[test]
    fn bucket_refills_with_virtual_time() {
        let mut b = TokenBucket::new(10, 5, 0);
        assert!(b.try_acquire(0, 5));
        assert!(!b.try_acquire(0, 1));
        // 100ms at 10 tokens/s = 1 token.
        assert!(b.try_acquire(NANOS_PER_SEC / 10, 1));
        assert!(!b.try_acquire(NANOS_PER_SEC / 10, 1));
        // A long idle period refills to the cap, not beyond.
        assert_eq!(b.available(100 * NANOS_PER_SEC), 5);
    }

    #[test]
    fn zero_limit_bucket_admits_nothing() {
        let mut b = TokenBucket::new(0, 0, 0);
        assert!(!b.try_acquire(0, 1));
        assert!(!b.try_acquire(i64::MAX, 1), "no refill can ever admit");
    }

    #[test]
    fn oversized_request_never_admits() {
        let mut b = TokenBucket::new(1, 4, 0);
        assert!(!b.try_acquire(0, 5), "request larger than burst");
        assert!(b.try_acquire(0, 4));
    }

    #[test]
    fn backwards_time_is_harmless() {
        let mut b = TokenBucket::new(1, 1, 1_000);
        assert!(b.try_acquire(1_000, 1));
        // A stale timestamp must not panic or mint tokens.
        assert!(!b.try_acquire(0, 1));
        assert!(b.try_acquire(1_000 + NANOS_PER_SEC, 1));
    }

    #[test]
    fn sentinel_timestamps_do_not_overflow() {
        let mut b = TokenBucket::new(u64::MAX, u64::MAX, i64::MIN);
        assert!(b.try_acquire(i64::MAX, 1));
        let mut z = TokenBucket::new(1, 1, i64::MAX);
        assert!(z.try_acquire(i64::MAX, 1));
        assert!(!z.try_acquire(i64::MAX, 1));
    }
}
