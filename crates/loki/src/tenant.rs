//! Per-tenant state: limit resolution, admission control, and accounting.
//!
//! Real Loki scopes every request with `X-Scope-OrgID` and resolves
//! per-tenant overrides on top of the default limits. The reproduction
//! does the same: a [`TenantRegistry`] owns one [`TenantState`] per
//! tenant, created lazily with the cluster defaults and hot-reloadable
//! with [`TenantRegistry::set_override`]. Admission decisions are typed
//! sheds ([`ShedReason`], surfaced as `TenantRejected` errors — the
//! `429` of the simulation) and every decision is counted so the ledger
//! invariant `offered == accepted + rejected` is checkable from
//! self-telemetry.

use crate::limits::TenantLimits;
use omni_model::lockwitness::{classes, OrderedMutex, OrderedRwLock};
use omni_model::{LabelSet, SimClock, TenantId, Timestamp, TokenBucket};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Reserved stream label carrying the owning tenant, in the spirit of the
/// `__name__`-style internal labels. Tenant-scoped pushes inject it and
/// tenant-scoped queries match on it, which is what makes isolation
/// structural rather than advisory: a tenant's selector physically cannot
/// match another tenant's streams.
pub const TENANT_LABEL: &str = "__tenant__";

/// Why an admission-controlled request was shed. Every variant is a
/// deliberate, typed `429`-style rejection — never a panic, never a
/// silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's ingest token bucket is empty.
    IngestRateExceeded,
    /// Admitting the record would create a stream beyond the tenant's
    /// `max_active_streams`.
    MaxActiveStreams,
    /// The tenant's query token bucket is empty.
    QueryRateExceeded,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShedReason::IngestRateExceeded => "ingest rate exceeded",
            ShedReason::MaxActiveStreams => "max active streams reached",
            ShedReason::QueryRateExceeded => "query rate exceeded",
        })
    }
}

/// The payload of a `TenantRejected` error: who was shed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRejection {
    /// The tenant whose own limit was hit.
    pub tenant: TenantId,
    /// Which limit.
    pub reason: ShedReason,
}

impl fmt::Display for TenantRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant {} rejected: {} (tenant_rejected)", self.tenant, self.reason)
    }
}

/// Point-in-time accounting for one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Who.
    pub tenant: TenantId,
    /// Ingest records offered for admission.
    pub ingest_offered: u64,
    /// Ingest records admitted.
    pub ingest_accepted: u64,
    /// Ingest records shed by admission control.
    pub ingest_rejected: u64,
    /// Queries offered for admission.
    pub queries_offered: u64,
    /// Queries shed by admission control.
    pub queries_rejected: u64,
    /// Streams currently attributed to the tenant.
    pub active_streams: usize,
}

/// Live state for one tenant: resolved limits, admission buckets, the
/// set of active streams, and the admission ledger.
pub struct TenantState {
    tenant: TenantId,
    limits: OrderedRwLock<TenantLimits>,
    ingest_bucket: OrderedMutex<TokenBucket>,
    query_bucket: OrderedMutex<TokenBucket>,
    streams: OrderedMutex<HashSet<LabelSet>>,
    ingest_offered: AtomicU64,
    ingest_accepted: AtomicU64,
    ingest_rejected: AtomicU64,
    queries_offered: AtomicU64,
    queries_rejected: AtomicU64,
}

impl TenantState {
    fn new(tenant: TenantId, limits: TenantLimits, now: Timestamp) -> Self {
        let ingest = TokenBucket::new(limits.ingest_rate_per_sec, limits.ingest_burst, now);
        let query = TokenBucket::new(limits.query_rate_per_sec, limits.query_burst, now);
        Self {
            tenant,
            limits: OrderedRwLock::new(&classes::LOKI_TENANT_LIMITS, limits),
            ingest_bucket: OrderedMutex::new(&classes::LOKI_TENANT_INGEST_BUCKET, ingest),
            query_bucket: OrderedMutex::new(&classes::LOKI_TENANT_QUERY_BUCKET, query),
            streams: OrderedMutex::new(&classes::LOKI_TENANT_STREAMS, HashSet::new()),
            ingest_offered: AtomicU64::new(0),
            ingest_accepted: AtomicU64::new(0),
            ingest_rejected: AtomicU64::new(0),
            queries_offered: AtomicU64::new(0),
            queries_rejected: AtomicU64::new(0),
        }
    }

    /// Hot reload: swap limits and rebuild the buckets (new rate takes
    /// effect immediately, starting full) while the admission ledger and
    /// stream set carry over untouched.
    fn reload(&self, limits: TenantLimits, now: Timestamp) {
        *self.ingest_bucket.lock() =
            TokenBucket::new(limits.ingest_rate_per_sec, limits.ingest_burst, now);
        *self.query_bucket.lock() =
            TokenBucket::new(limits.query_rate_per_sec, limits.query_burst, now);
        *self.limits.write() = limits;
    }

    /// Resolved limits as of now.
    pub fn limits(&self) -> TenantLimits {
        self.limits.read().clone()
    }

    /// Admit `n` ingest records at `now`, counting the outcome. The error
    /// carries the reason so the caller can surface a typed rejection.
    pub fn admit_ingest(&self, now: Timestamp, n: u64) -> Result<(), ShedReason> {
        self.ingest_offered.fetch_add(n, Ordering::Relaxed);
        if self.ingest_bucket.lock().try_acquire(now, n) {
            Ok(())
        } else {
            self.ingest_rejected.fetch_add(n, Ordering::Relaxed);
            Err(ShedReason::IngestRateExceeded)
        }
    }

    /// Account `n` rate-admitted records that then hit a downstream
    /// admission check (the stream cap): offered already counted, so this
    /// flips them to rejected.
    fn reject_admitted(&self, n: u64) {
        self.ingest_rejected.fetch_add(n, Ordering::Relaxed);
    }

    /// Mark `n` records fully admitted.
    pub fn note_accepted(&self, n: u64) {
        self.ingest_accepted.fetch_add(n, Ordering::Relaxed);
    }

    /// Admit the stream `labels` (registering it) or shed if the record
    /// would push the tenant past `max_active_streams`. Existing streams
    /// are always admitted — the cap bounds growth, it does not evict.
    pub fn admit_stream(&self, labels: &LabelSet, n: u64) -> Result<(), ShedReason> {
        let cap = self.limits.read().max_active_streams;
        let mut streams = self.streams.lock();
        if streams.contains(labels) {
            return Ok(());
        }
        if streams.len() >= cap {
            drop(streams);
            self.reject_admitted(n);
            return Err(ShedReason::MaxActiveStreams);
        }
        streams.insert(labels.clone());
        Ok(())
    }

    /// Admit one query at `now`, counting the outcome.
    pub fn admit_query(&self, now: Timestamp) -> Result<(), ShedReason> {
        self.queries_offered.fetch_add(1, Ordering::Relaxed);
        if self.query_bucket.lock().try_acquire(now, 1) {
            Ok(())
        } else {
            self.queries_rejected.fetch_add(1, Ordering::Relaxed);
            Err(ShedReason::QueryRateExceeded)
        }
    }

    /// Forget streams that retention deleted, freeing cap room.
    fn forget_streams(&self, dropped: &[&LabelSet]) {
        let mut streams = self.streams.lock();
        for labels in dropped {
            streams.remove(*labels);
        }
    }

    /// Current accounting.
    pub fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            tenant: self.tenant.clone(),
            ingest_offered: self.ingest_offered.load(Ordering::Relaxed),
            ingest_accepted: self.ingest_accepted.load(Ordering::Relaxed),
            ingest_rejected: self.ingest_rejected.load(Ordering::Relaxed),
            queries_offered: self.queries_offered.load(Ordering::Relaxed),
            queries_rejected: self.queries_rejected.load(Ordering::Relaxed),
            active_streams: self.streams.lock().len(),
        }
    }
}

/// All tenants known to a cluster: default limits plus per-tenant
/// overrides, resolved default → override exactly once per tenant and
/// re-resolved on hot reload.
pub struct TenantRegistry {
    defaults: TenantLimits,
    clock: SimClock,
    states: OrderedRwLock<HashMap<TenantId, Arc<TenantState>>>,
}

impl TenantRegistry {
    /// A registry where unknown tenants run under `defaults`.
    pub fn new(defaults: TenantLimits, clock: SimClock) -> Self {
        Self {
            defaults,
            clock,
            states: OrderedRwLock::new(&classes::LOKI_TENANT_STATES, HashMap::new()),
        }
    }

    /// The state for `tenant`, created under the default limits on first
    /// touch.
    pub fn state(&self, tenant: &TenantId) -> Arc<TenantState> {
        if let Some(st) = self.states.read().get(tenant) {
            return st.clone();
        }
        let mut states = self.states.write();
        states
            .entry(tenant.clone())
            .or_insert_with(|| {
                Arc::new(TenantState::new(tenant.clone(), self.defaults.clone(), self.clock.now()))
            })
            .clone()
    }

    /// Install (or replace) an override for `tenant`. Takes effect
    /// immediately, even mid-burst: buckets are rebuilt at the new rate,
    /// the admission ledger carries over.
    pub fn set_override(&self, tenant: &TenantId, limits: TenantLimits) {
        self.state(tenant).reload(limits, self.clock.now());
    }

    /// Drop `tenant`'s override, returning it to the defaults.
    pub fn clear_override(&self, tenant: &TenantId) {
        self.state(tenant).reload(self.defaults.clone(), self.clock.now());
    }

    /// Resolved limits for `tenant` (default → override).
    pub fn limits(&self, tenant: &TenantId) -> TenantLimits {
        match self.states.read().get(tenant) {
            Some(st) => st.limits(),
            None => self.defaults.clone(),
        }
    }

    /// Retention horizon for a tenant named by its label value, without
    /// materialising state for unknown tenants.
    pub fn retention_ns_for(&self, tenant: &str) -> i64 {
        match self.states.read().get(&TenantId::new(tenant)) {
            Some(st) => st.limits.read().retention_ns,
            None => self.defaults.retention_ns,
        }
    }

    /// The shortest retention any tenant (or the default) runs under —
    /// the most aggressive horizon, used to invalidate caches safely.
    pub fn min_retention_ns(&self) -> i64 {
        // `.min()` is order-insensitive, so hash-map iteration is safe
        // here — the nondet-iter rule exempts this shape.
        self.states
            .read()
            .values()
            .map(|st| st.limits.read().retention_ns)
            .min()
            .unwrap_or(i64::MAX)
            .min(self.defaults.retention_ns)
    }

    /// Free stream-cap room for streams retention deleted. Each stream's
    /// [`TENANT_LABEL`] names the tenant it counted against; unscoped
    /// streams counted against none.
    pub fn note_streams_dropped(&self, dropped: &[LabelSet]) {
        let mut by_tenant: BTreeMap<&str, Vec<&LabelSet>> = BTreeMap::new();
        for labels in dropped {
            if let Some(tenant) = labels.get(TENANT_LABEL) {
                by_tenant.entry(tenant).or_default().push(labels);
            }
        }
        let states = self.states.read();
        for (tenant, streams) in by_tenant {
            if let Some(st) = states.get(&TenantId::new(tenant)) {
                st.forget_streams(&streams);
            }
        }
    }

    /// Accounting for every known tenant, sorted by tenant id.
    pub fn snapshots(&self) -> Vec<TenantSnapshot> {
        let mut out: Vec<TenantSnapshot> =
            self.states.read().values().map(|st| st.snapshot()).collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }

    /// Known tenant ids, sorted.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut out: Vec<TenantId> = self.states.read().keys().cloned().collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> TenantRegistry {
        TenantRegistry::new(TenantLimits::default(), SimClock::new())
    }

    #[test]
    fn defaults_resolve_for_unknown_tenants() {
        let reg = registry();
        let t = TenantId::new("team-a");
        assert_eq!(reg.limits(&t), TenantLimits::default());
        assert!(reg.tenants().is_empty(), "lookup alone must not materialise state");
    }

    #[test]
    fn override_resolution_and_hot_reload_keep_ledger() {
        let reg = registry();
        let t = TenantId::new("team-a");
        reg.set_override(
            &t,
            TenantLimits { ingest_rate_per_sec: 0, ingest_burst: 2, ..TenantLimits::default() },
        );
        let st = reg.state(&t);
        assert!(st.admit_ingest(0, 1).is_ok());
        assert!(st.admit_ingest(0, 1).is_ok());
        assert_eq!(st.admit_ingest(0, 1), Err(ShedReason::IngestRateExceeded));
        st.note_accepted(2);
        // Hot reload mid-burst: new bucket admits again, ledger carries over.
        reg.set_override(
            &t,
            TenantLimits { ingest_rate_per_sec: 0, ingest_burst: 10, ..TenantLimits::default() },
        );
        assert!(st.admit_ingest(0, 1).is_ok());
        st.note_accepted(1);
        let snap = st.snapshot();
        assert_eq!((snap.ingest_offered, snap.ingest_accepted, snap.ingest_rejected), (4, 3, 1));
        assert_eq!(snap.ingest_offered, snap.ingest_accepted + snap.ingest_rejected);
        // Clearing returns to (unmetered) defaults.
        reg.clear_override(&t);
        for _ in 0..100 {
            assert!(st.admit_ingest(0, 1).is_ok());
        }
    }

    #[test]
    fn zero_limit_tenant_sheds_everything() {
        let reg = registry();
        let t = TenantId::new("disabled");
        reg.set_override(&t, TenantLimits::zero());
        let st = reg.state(&t);
        assert_eq!(st.admit_ingest(i64::MAX, 1), Err(ShedReason::IngestRateExceeded));
        assert_eq!(st.admit_query(i64::MAX), Err(ShedReason::QueryRateExceeded));
        let snap = st.snapshot();
        assert_eq!(snap.ingest_offered, snap.ingest_accepted + snap.ingest_rejected);
        assert_eq!(snap.ingest_rejected, 1);
        assert_eq!(snap.queries_rejected, 1);
    }

    #[test]
    fn stream_cap_binds_and_retention_frees_room() {
        let reg = registry();
        let t = TenantId::new("team-a");
        reg.set_override(&t, TenantLimits { max_active_streams: 2, ..TenantLimits::default() });
        let st = reg.state(&t);
        let stream = |n: u32| omni_model::labels!(TENANT_LABEL => "team-a", "n" => n.to_string());
        assert!(st.admit_stream(&stream(1), 1).is_ok());
        assert!(st.admit_stream(&stream(2), 1).is_ok());
        assert!(st.admit_stream(&stream(1), 1).is_ok(), "existing stream always admitted");
        assert_eq!(st.admit_stream(&stream(3), 1), Err(ShedReason::MaxActiveStreams));
        assert_eq!(st.snapshot().active_streams, 2);
        reg.note_streams_dropped(&[stream(1)]);
        assert!(st.admit_stream(&stream(3), 1).is_ok(), "retention freed cap room");
    }

    #[test]
    fn the_stream_cap_counts_streams_whose_fingerprints_collide() {
        // Regression: the active-stream set held fingerprints, so the
        // second of these sets (same FNV fingerprint) passed as the first
        // stream and slipped the cap.
        let (a, b) = (
            omni_model::labels!("a" => "27d9f96af16d5676"),
            omni_model::labels!("a" => "1ba910bbd8e288a5"),
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
        let reg = registry();
        let t = TenantId::new("team-a");
        reg.set_override(&t, TenantLimits { max_active_streams: 1, ..TenantLimits::default() });
        let st = reg.state(&t);
        assert_eq!(st.admit_stream(&a, 1), Ok(()));
        assert_eq!(st.admit_stream(&b, 1), Err(ShedReason::MaxActiveStreams));
        assert_eq!(st.admit_stream(&a, 1), Ok(()), "the first stream still is one");
        assert_eq!(st.snapshot().active_streams, 1);
    }

    #[test]
    fn min_retention_tracks_overrides() {
        let reg = registry();
        assert_eq!(reg.min_retention_ns(), TenantLimits::default().retention_ns);
        let t = TenantId::new("short");
        reg.set_override(&t, TenantLimits { retention_ns: 123, ..TenantLimits::default() });
        assert_eq!(reg.min_retention_ns(), 123);
        assert_eq!(reg.retention_ns_for("short"), 123);
        assert_eq!(reg.retention_ns_for("other"), TenantLimits::default().retention_ns);
    }
}
