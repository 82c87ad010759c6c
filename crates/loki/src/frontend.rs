//! The query frontend: interval splitting, a split-aligned results
//! cache, and per-query limits — Loki's `query-frontend` component.
//!
//! The paper's single pane of glass (§IV) is Grafana dashboards
//! re-issuing the same LogQL over overlapping, mostly-immutable windows
//! against a two-year retention store. Real Loki serves that workload
//! through its query-frontend: queries are split on
//! `split_queries_by_interval` boundaries and each split's result is
//! cached so the next refresh only executes the still-mutable tail. This
//! module reproduces that shape:
//!
//! * [`QueryFrontend::run_log_query`] / [`QueryFrontend::run_range_query`]
//!   split on absolute multiples of [`Limits::split_interval_ns`] and run
//!   the cache misses in ascending order on the calling thread, each
//!   behind the [`FairScheduler`]. The one fan-out is the engine's scan
//!   over shards, inside each split;
//! * a log split is cached under its exact window, limit and direction:
//!   alignment makes consecutive refreshes of a *fixed* window produce
//!   identical splits;
//! * a range query takes its whole step grid from
//!   [`step_grid`] once — a non-positive
//!   step or a grid past Loki's 11 000-point resolution limit is a typed
//!   [`QueryError::Grid`] before anything runs — and splits it into runs
//!   of steps sharing an aligned interval;
//! * a range split is cached as a **step extent** — the matrix over one
//!   contiguous run of grid steps, keyed by the query, the step, the
//!   split bucket and the grid phase, not by the window. A dashboard's
//!   window slides with the clock, so both ends of its splits move on
//!   every refresh; against an extent the older splits are *covered*
//!   (sliced from it) and the newest is covered up to the previous
//!   refresh's last step, so only the new steps execute and are appended.
//!   A cell at step `t` depends only on data in `(t − range, t]`, so the
//!   spliced matrix is bit-identical to an unsplit evaluation — the
//!   extents of Loki's and Cortex's results cache;
//! * every matrix arrives label-sorted, so joining a cached extent to its
//!   fresh steps, and the splits to the query's result, is one linear
//!   [`merge_series`] pass — nothing re-sorts the series;
//! * every entry stores the [`QueryStats`] of the executions that built
//!   it, so cache hits report truthful statistics;
//! * cached windows are invalidated by appends landing inside them
//!   (out-of-order data, restored archives), by retention sweeps
//!   crossing them, and wholesale by shard crash/recovery;
//! * per-query limits — [`Limits::max_entries_per_query`],
//!   [`Limits::max_bytes_scanned`], and the virtual-clock deadline
//!   [`Limits::query_timeout_ns`] — reject oversized queries with a
//!   typed [`QueryError::LimitExceeded`].

use crate::engine::{self, Direction, QueryStats};
use crate::ingester::Ingester;
use crate::limits::{Limits, TenantLimits};
use crate::scheduler::{FairScheduler, SchedulerStats};
use crate::QueryError;
use omni_logql::eval::{merge_series, step_grid};
use omni_logql::{InstantVector, LogQuery, Matrix, MetricQuery};
use omni_model::lockwitness::{classes, OrderedMutex};
use omni_model::{LogRecord, SimClock, TenantId, Timestamp};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on cached split results; the cache is cleared wholesale
/// when it fills (churn past this size means the cache is not earning its
/// memory).
const CACHE_MAX: usize = 4_096;

/// A window that would split into more sub-queries than this executes
/// unsplit: sentinel spans like `(i64::MIN, now]` must not explode into
/// an astronomical number of splits.
const MAX_SPLITS: usize = 256;

/// How many splits the fair scheduler lets execute at once, across all
/// querying threads. Each querying thread runs one split at a time, so
/// the gate queues only when more than this many threads query at once.
const SCHED_POOL: usize = 8;

/// Bound on buffered [`QueryRecord`]s awaiting a drain; oldest records
/// are dropped first so a stalled consumer costs history, not memory.
const RECORD_CAP: usize = 1_024;

/// Per-query execution context: whose query this is and which resolved
/// per-tenant limits bound it. The tenant id partitions the results
/// cache (two tenants never share an entry, even for the same query
/// text) and the weight drives the fair scheduler.
#[derive(Debug, Clone)]
pub struct QueryContext {
    /// The querying tenant.
    pub tenant: TenantId,
    /// Entry cap for this query.
    pub max_entries_per_query: usize,
    /// Fresh-bytes-scanned budget for this query.
    pub max_bytes_scanned: usize,
    /// Fair-scheduler weight.
    pub weight: u32,
}

impl QueryContext {
    /// The context unscoped (legacy, pre-tenant) queries run under: the
    /// anonymous tenant bounded by the cluster-wide limits.
    pub fn anonymous(limits: &Limits) -> Self {
        Self {
            tenant: TenantId::anonymous(),
            max_entries_per_query: limits.max_entries_per_query,
            max_bytes_scanned: limits.max_bytes_scanned,
            weight: 1,
        }
    }

    /// The context for `tenant` under its resolved limits.
    pub fn for_tenant(tenant: TenantId, limits: &TenantLimits) -> Self {
        Self {
            tenant,
            max_entries_per_query: limits.max_entries_per_query,
            max_bytes_scanned: limits.max_bytes_scanned,
            weight: limits.query_weight,
        }
    }
}

/// Which per-query limit a rejected query hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitViolation {
    /// The query requested more entries than `max_entries_per_query`.
    Entries {
        /// The configured ceiling.
        limit: usize,
        /// What the query asked for.
        requested: usize,
    },
    /// Freshly executed splits scanned more than `max_bytes_scanned`.
    BytesScanned {
        /// The configured byte budget.
        limit: usize,
        /// Line bytes actually scanned before the query was cut off.
        scanned: usize,
    },
    /// The virtual-clock deadline passed before the query completed.
    Deadline {
        /// Arrival time plus `query_timeout_ns`.
        deadline: Timestamp,
        /// The clock when the check failed.
        now: Timestamp,
    },
}

impl std::fmt::Display for LimitViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LimitViolation::Entries { limit, requested } => {
                write!(f, "query requested {requested} entries, limit is {limit}")
            }
            LimitViolation::BytesScanned { limit, scanned } => {
                write!(f, "query scanned {scanned} bytes, budget is {limit}")
            }
            LimitViolation::Deadline { deadline, now } => {
                write!(f, "query deadline {deadline} passed (now {now})")
            }
        }
    }
}

/// Point-in-time frontend counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Sub-queries planned (served from cache or executed).
    pub splits_total: u64,
    /// Splits answered from the results cache.
    pub cache_hits: u64,
    /// Splits that had to execute against the shards.
    pub cache_misses: u64,
    /// Queries rejected by a per-query limit.
    pub rejected_total: u64,
    /// Split results currently cached.
    pub cached_entries: usize,
    /// Metric queries evaluated from per-shard partials (merged at the
    /// frontend, no entries shipped) — every metric query.
    pub pushdown_queries: u64,
    /// Always 0: every range aggregation has a partial, so nothing falls
    /// back. Kept only because `omnibench/src/report.rs` still reads it;
    /// it goes with the next benchmark PR.
    pub pushdown_fallbacks: u64,
    /// Per-shard partial aggregates merged across pushdown queries.
    pub pushdown_partials: u64,
    /// Entries pushdown queries did *not* ship to the frontend: the
    /// post-pipeline survivors a central evaluation would have moved.
    pub pushdown_entries_saved: u64,
}

/// One split's contribution to a query: the window it covered, whether
/// the results cache answered it, the execution statistics behind its
/// result (replayed verbatim for hits), and how long it queued behind
/// the fair scheduler — Loki's per-subquery statistics breakdown.
///
/// A range split the cache held only a prefix of (its newest steps were
/// executed and appended to the cached ones) is *not* cached, and its
/// `stats` are those of the fresh execution alone: modeled latency, the
/// byte budget and the slow-query log charge exactly the work that ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitStat {
    /// Split window start (exclusive).
    pub start: Timestamp,
    /// Split window end (inclusive).
    pub end: Timestamp,
    /// Whether the results cache answered the whole split.
    pub cached: bool,
    /// The split's execution statistics. For a hit: the statistics the
    /// entry stored — for a range extent, every execution that built it,
    /// absorbed. For a split the cache answered in part: only the steps
    /// that executed.
    pub stats: QueryStats,
    /// Virtual nanoseconds this split queued behind other querying
    /// threads' splits at the fair scheduler before its scan was granted.
    /// Zero for cache hits — they never touch the scheduler — and for a
    /// query whose thread was the only one querying.
    pub queue_wait_vns: u64,
}

/// The full statistics report for one frontend query: the merged
/// [`QueryStats`] every existing caller sees, plus the per-split
/// breakdown behind it — Loki's `/loki/api/v1/query` statistics object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryReport {
    /// Statistics merged across every split.
    pub stats: QueryStats,
    /// Per-split breakdown, in ascending window order.
    pub splits: Vec<SplitStat>,
    /// Splits answered from the results cache.
    pub cache_hits: usize,
    /// Splits that executed against the shards.
    pub cache_misses: usize,
    /// Total scheduler queue wait across executed splits, in virtual
    /// nanoseconds.
    pub queue_wait_vns: u64,
}

impl QueryReport {
    fn from_splits(stats: QueryStats, splits: Vec<SplitStat>) -> Self {
        let cache_hits = splits.iter().filter(|s| s.cached).count();
        let cache_misses = splits.len() - cache_hits;
        let queue_wait_vns = splits.iter().map(|s| s.queue_wait_vns).sum();
        Self { stats, splits, cache_hits, cache_misses, queue_wait_vns }
    }
}

/// One completed query as observed by the frontend, buffered for the
/// monitoring stack to drain: the slow-query log and the query-latency
/// histogram are built from these.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// The querying tenant.
    pub tenant: TenantId,
    /// Normalized query text.
    pub query: String,
    /// Query window start.
    pub start: Timestamp,
    /// Query window end.
    pub end: Timestamp,
    /// The full statistics report.
    pub report: QueryReport,
}

/// One cache entry's identity: the tenant, the normalized query text and
/// which split it answers. Two textual spellings of the same query
/// (whitespace differences outside string literals) share an entry;
/// anything semantically distinct cannot collide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// Owning tenant: the cache is tenant-partitioned so one tenant's
    /// results can never be served to (or evicted into) another's view.
    tenant: TenantId,
    query: String,
    split: SplitKey,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SplitKey {
    /// A log split: its exact window and the parameters that shape its
    /// result.
    Window { start: Timestamp, end: Timestamp, limit: usize, direction: Direction },
    /// A range split's step extent: the steps of one grid (`phase` is
    /// `first step mod step_ns`) inside one aligned split-interval
    /// bucket. Where the window sits inside the bucket is the extent's
    /// value, not its key.
    Extent { step_ns: i64, bucket: i64, phase: i64 },
}

enum CachedData {
    Logs(Vec<LogRecord>),
    /// The matrix over the grid steps `first ..= last`.
    Extent {
        first: Timestamp,
        last: Timestamp,
        matrix: Matrix,
    },
}

struct CacheEntry {
    data: CachedData,
    /// The statistics of every execution that built the entry, absorbed,
    /// replayed verbatim on a hit.
    stats: QueryStats,
    /// Oldest timestamp the result depends on: the split start for log
    /// splits, `first step − range` for range extents. An append or a
    /// retention horizon inside `(data_start, end]` invalidates.
    data_start: Timestamp,
    /// Newest timestamp the result depends on: the split end for log
    /// splits, the last step for range extents.
    end: Timestamp,
}

type Cache = HashMap<CacheKey, CacheEntry>;

/// What the cache holds for one planned split `(s, e)`.
enum Lookup<T, H> {
    /// All of it: the split's data and the statistics the entry replays.
    Hit(T, QueryStats),
    /// The rest: the split executes from `from` (its own start, or the
    /// first step past a range extent) to `e`, and `held` carries what
    /// the cache did hold to the store step.
    Execute { from: Timestamp, held: H },
}

struct FrontendShared {
    cache: OrderedMutex<Cache>,
    /// Newest `end` across cached entries: an append strictly newer than
    /// this cannot invalidate anything, keeping the hot in-order ingest
    /// path at one atomic load.
    max_cached_end: AtomicI64,
    splits: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    pushdown_queries: AtomicU64,
    pushdown_partials: AtomicU64,
    pushdown_entries_saved: AtomicU64,
    /// `bytes_scanned` each cache hit avoided re-scanning; drained by
    /// the stack into the `omni_frontend_bytes_saved` histogram.
    bytes_saved: OrderedMutex<Vec<u64>>,
    /// Completed-query records awaiting a drain (oldest first, bounded
    /// by [`RECORD_CAP`]); the stack builds the slow-query log and the
    /// query-latency histogram from these.
    records: OrderedMutex<VecDeque<QueryRecord>>,
    /// Weighted fair gate over concurrently executing splits: a noisy
    /// tenant querying from many threads queues on its own virtual time
    /// instead of monopolising the pool.
    scheduler: FairScheduler,
}

/// The query frontend. Cheap to clone (shared state behind an `Arc`);
/// one instance fronts a whole [`LokiCluster`](crate::LokiCluster).
#[derive(Clone)]
pub struct QueryFrontend {
    shared: Arc<FrontendShared>,
    limits: Limits,
    clock: SimClock,
}

impl QueryFrontend {
    pub(crate) fn new(limits: Limits, clock: SimClock) -> Self {
        Self {
            shared: Arc::new(FrontendShared {
                cache: OrderedMutex::new(&classes::LOKI_FRONTEND_CACHE, HashMap::new()),
                max_cached_end: AtomicI64::new(i64::MIN),
                splits: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                pushdown_queries: AtomicU64::new(0),
                pushdown_partials: AtomicU64::new(0),
                pushdown_entries_saved: AtomicU64::new(0),
                bytes_saved: OrderedMutex::new(&classes::LOKI_FRONTEND_BYTES_SAVED, Vec::new()),
                records: OrderedMutex::new(&classes::LOKI_FRONTEND_RECORDS, VecDeque::new()),
                scheduler: FairScheduler::new(SCHED_POOL),
            }),
            limits,
            clock,
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> FrontendStats {
        FrontendStats {
            splits_total: self.shared.splits.load(Ordering::Relaxed),
            cache_hits: self.shared.hits.load(Ordering::Relaxed),
            cache_misses: self.shared.misses.load(Ordering::Relaxed),
            rejected_total: self.shared.rejected.load(Ordering::Relaxed),
            cached_entries: self.shared.cache.lock().len(),
            pushdown_queries: self.shared.pushdown_queries.load(Ordering::Relaxed),
            pushdown_fallbacks: 0,
            pushdown_partials: self.shared.pushdown_partials.load(Ordering::Relaxed),
            pushdown_entries_saved: self.shared.pushdown_entries_saved.load(Ordering::Relaxed),
        }
    }

    /// Account one freshly executed metric split (or instant): the
    /// partials it merged and the entries it did not ship.
    fn note_pushdown(&self, fresh: &QueryStats) {
        self.shared.pushdown_partials.fetch_add(fresh.partials_merged as u64, Ordering::Relaxed);
        self.shared
            .pushdown_entries_saved
            .fetch_add(fresh.entries_returned as u64, Ordering::Relaxed);
    }

    /// Drain the bytes-saved samples accumulated by cache hits since the
    /// last call (one sample per hit: the `bytes_scanned` the hit
    /// avoided re-reading).
    pub fn take_bytes_saved(&self) -> Vec<u64> {
        std::mem::take(&mut *self.shared.bytes_saved.lock())
    }

    /// Drain the completed-query records buffered since the last call
    /// (oldest first). Log and range queries record one entry each;
    /// instant queries do not (every ruler tick would flood the buffer
    /// with identical rule evaluations).
    pub fn take_query_records(&self) -> Vec<QueryRecord> {
        self.shared.records.lock().drain(..).collect()
    }

    fn record_query(
        &self,
        ctx: &QueryContext,
        query: &str,
        start: Timestamp,
        end: Timestamp,
        report: &QueryReport,
    ) {
        let mut records = self.shared.records.lock();
        while records.len() >= RECORD_CAP {
            records.pop_front();
        }
        records.push_back(QueryRecord {
            tenant: ctx.tenant.clone(),
            query: query.to_string(),
            start,
            end,
            report: report.clone(),
        });
    }

    /// An append of records spanning `[min_ts, max_ts]` landed: drop
    /// every cached window such data could have changed. Streams may
    /// appear at arbitrarily old timestamps (per-stream ordering only),
    /// so this must handle out-of-order arrivals, not just the tail.
    pub(crate) fn note_append(&self, min_ts: Timestamp, max_ts: Timestamp) {
        if min_ts > self.shared.max_cached_end.load(Ordering::Acquire) {
            return;
        }
        // A late-but-tolerated entry is clamped up to its stream head's
        // newest timestamp, which ordering admission bounds by
        // `entry.ts + tolerance` — widen the span to cover the clamp.
        let max_ts = max_ts.saturating_add(self.limits.out_of_order_tolerance_ns);
        let mut cache = self.shared.cache.lock();
        // Keep an entry only if the whole append range is outside its
        // data window (conservative: assumes any timestamp in
        // `[min_ts, max_ts]` may have been written).
        cache.retain(|_, e| e.end < min_ts || e.data_start >= max_ts);
        let new_max = cache.values().map(|e| e.end).max().unwrap_or(i64::MIN);
        self.shared.max_cached_end.store(new_max, Ordering::Release);
    }

    /// Retention advanced to `horizon`: any cached window that depends on
    /// data at or before the horizon — including windows *spanning* it —
    /// may now disagree with storage.
    pub(crate) fn note_retention(&self, horizon: Timestamp) {
        let mut cache = self.shared.cache.lock();
        cache.retain(|_, e| e.data_start >= horizon);
        let new_max = cache.values().map(|e| e.end).max().unwrap_or(i64::MIN);
        self.shared.max_cached_end.store(new_max, Ordering::Release);
    }

    /// The compactor deduplicated replayed chunks spanning
    /// `[min_ts, max_ts]`: cached results over that window counted the
    /// duplicate's entries and now disagree with storage. Merging alone
    /// never triggers this — it preserves query results exactly — only
    /// dedup does.
    pub(crate) fn note_compaction(&self, min_ts: Timestamp, max_ts: Timestamp) {
        let mut cache = self.shared.cache.lock();
        cache.retain(|_, e| e.end < min_ts || e.data_start > max_ts);
        let new_max = cache.values().map(|e| e.end).max().unwrap_or(i64::MIN);
        self.shared.max_cached_end.store(new_max, Ordering::Release);
    }

    /// Drop every cached result. Called on shard crash/recovery (WAL
    /// replay writes straight into the ingester, bypassing the append
    /// hooks); public as an operator escape hatch and so benchmarks can
    /// re-measure cold-cache latency without rebuilding the cluster.
    pub fn invalidate_all(&self) {
        self.shared.cache.lock().clear();
        self.shared.max_cached_end.store(i64::MIN, Ordering::Release);
    }

    fn reject(&self, v: LimitViolation) -> QueryError {
        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
        QueryError::LimitExceeded(v)
    }

    /// Arrival time plus the configured budget (virtual clock).
    fn deadline(&self) -> Timestamp {
        self.clock.now().saturating_add(self.limits.query_timeout_ns)
    }

    fn check_deadline(&self, deadline: Timestamp) -> Result<(), QueryError> {
        let now = self.clock.now();
        if now >= deadline {
            return Err(self.reject(LimitViolation::Deadline { deadline, now }));
        }
        Ok(())
    }

    fn check_bytes(&self, budget: usize, fresh_bytes: usize) -> Result<(), QueryError> {
        if fresh_bytes > budget {
            return Err(
                self.reject(LimitViolation::BytesScanned { limit: budget, scanned: fresh_bytes })
            );
        }
        Ok(())
    }

    /// Fair-scheduler observability: total grants and per-tenant peak
    /// queue waits (in grant rounds).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.shared.scheduler.stats()
    }

    /// Peak grant-round wait one tenant's splits have seen.
    pub fn max_wait_rounds(&self, tenant: &TenantId) -> u64 {
        self.shared.scheduler.max_wait_rounds(tenant)
    }

    /// Drain the per-split scheduler queue-wait samples (tenant,
    /// virtual nanoseconds) accumulated since the last call.
    pub fn take_scheduler_waits(&self) -> Vec<(TenantId, u64)> {
        self.shared.scheduler.take_waits()
    }

    /// The split protocol both cached query kinds share: `lookup` each
    /// window in `bounds` in the results cache, execute what it did not
    /// hold in ascending order on the calling thread, each split through
    /// the fair scheduler, hold the fresh work to the byte budget and the
    /// deadline, let `store` join it to what the cache held and name the
    /// entry to cache, and return each split's data with its
    /// [`SplitStat`] in ascending window order.
    fn resolve_splits<T, H>(
        &self,
        ctx: &QueryContext,
        bounds: &[(Timestamp, Timestamp)],
        deadline: Timestamp,
        lookup: impl Fn(&Cache, Timestamp, Timestamp) -> Lookup<T, H>,
        exec: impl Fn(Timestamp, Timestamp) -> (T, QueryStats),
        store: impl Fn((Timestamp, Timestamp), H, T, QueryStats) -> (T, Option<(CacheKey, CacheEntry)>),
    ) -> Result<Vec<(T, SplitStat)>, QueryError> {
        self.shared.splits.fetch_add(bounds.len() as u64, Ordering::Relaxed);

        // Resolve each split from the cache; what it lacks collects for
        // execution.
        let mut parts: Vec<Option<(T, SplitStat)>> = Vec::with_capacity(bounds.len());
        let mut todo: Vec<(usize, Timestamp, H)> = Vec::new();
        {
            let cache = self.shared.cache.lock();
            let mut saved = self.shared.bytes_saved.lock();
            for (i, &(s, e)) in bounds.iter().enumerate() {
                parts.push(match lookup(&cache, s, e) {
                    Lookup::Hit(data, stats) => {
                        saved.push(stats.bytes_scanned as u64);
                        let split =
                            SplitStat { start: s, end: e, cached: true, stats, queue_wait_vns: 0 };
                        Some((data, split))
                    }
                    Lookup::Execute { from, held } => {
                        todo.push((i, from, held));
                        None
                    }
                });
            }
        }
        self.shared.hits.fetch_add((bounds.len() - todo.len()) as u64, Ordering::Relaxed);
        self.shared.misses.fetch_add(todo.len() as u64, Ordering::Relaxed);

        let sched = &self.shared.scheduler;
        let executed: Vec<_> = todo
            .into_iter()
            .map(|(i, from, held)| {
                let ((fresh, stats), wait_vns) =
                    sched.run_timed(&ctx.tenant, ctx.weight, || exec(from, bounds[i].1));
                (i, held, fresh, stats, wait_vns)
            })
            .collect();
        self.check_bytes(
            ctx.max_bytes_scanned,
            executed.iter().map(|(_, _, _, st, _)| st.bytes_scanned).sum(),
        )?;
        self.check_deadline(deadline)?;

        let mut cache = self.shared.cache.lock();
        for (i, held, fresh, stats, wait_vns) in executed {
            let (s, e) = bounds[i];
            let (data, entry) = store((s, e), held, fresh, stats);
            if let Some((key, entry)) = entry {
                if cache.len() >= CACHE_MAX {
                    cache.clear();
                }
                self.shared.max_cached_end.fetch_max(entry.end, Ordering::AcqRel);
                cache.insert(key, entry);
            }
            let split =
                SplitStat { start: s, end: e, cached: false, stats, queue_wait_vns: wait_vns };
            parts[i] = Some((data, split));
        }
        Ok(parts.into_iter().flatten().collect())
    }

    /// Split, cache, and limit a log query over `(start, end]` for the
    /// tenant in `ctx`. `text` is the original query string (the cache
    /// key); `query` its parsed form. Results are merged in `direction`
    /// order and truncated to `limit` — byte-identical to an unsplit
    /// [`engine::run_log_query`] call. The returned [`QueryReport`]
    /// carries the merged statistics plus the per-split breakdown
    /// (window, cache hit or miss, scan statistics, scheduler queue
    /// wait).
    #[allow(clippy::too_many_arguments)]
    pub fn run_log_query(
        &self,
        shards: &[Arc<Ingester>],
        ctx: &QueryContext,
        text: &str,
        query: &LogQuery,
        start: Timestamp,
        end: Timestamp,
        limit: usize,
        direction: Direction,
    ) -> Result<(Vec<LogRecord>, QueryReport), QueryError> {
        if limit > ctx.max_entries_per_query {
            return Err(self.reject(LimitViolation::Entries {
                limit: ctx.max_entries_per_query,
                requested: limit,
            }));
        }
        let deadline = self.deadline();
        self.check_deadline(deadline)?;

        let bounds = split_bounds(start, end, self.limits.split_interval_ns);
        let norm = normalize_query(text);
        let key = |start: Timestamp, end: Timestamp| CacheKey {
            tenant: ctx.tenant.clone(),
            query: norm.clone(),
            split: SplitKey::Window { start, end, limit, direction },
        };
        // Each split keeps its own direction-ordered top-`limit`; the
        // global top-`limit` is a prefix of their concatenation, so the
        // per-split limit loses nothing.
        let resolved = self.resolve_splits(
            ctx,
            &bounds,
            deadline,
            |cache, s, e| match cache.get(&key(s, e)) {
                Some(CacheEntry { data: CachedData::Logs(records), stats, .. }) => {
                    Lookup::Hit(records.clone(), *stats)
                }
                _ => Lookup::Execute { from: s, held: () },
            },
            |s, e| engine::run_log_query(shards, query, s, e, limit, direction),
            |(s, e), (), records, stats| {
                let data = CachedData::Logs(records.clone());
                (records, Some((key(s, e), CacheEntry { data, stats, data_start: s, end: e })))
            },
        )?;

        // Splits cover disjoint ascending windows, and each is sorted in
        // `direction` order internally — concatenating them (newest
        // split first for backward) reproduces the global sort exactly.
        let splits: Vec<SplitStat> = resolved.iter().map(|(_, sp)| *sp).collect();
        let ordered: Vec<(Vec<LogRecord>, SplitStat)> = match direction {
            Direction::Forward => resolved,
            Direction::Backward => {
                let mut v = resolved;
                v.reverse();
                v
            }
        };
        let mut merged = QueryStats::default();
        let mut records = Vec::new();
        for (part, split) in ordered {
            merged.absorb(split.stats);
            records.extend(part);
        }
        records.truncate(limit);
        merged.entries_returned = records.len();
        let report = QueryReport::from_splits(merged, splits);
        self.record_query(ctx, &norm, start, end, &report);
        Ok((records, report))
    }

    /// Split, cache, and limit a metric range query for the tenant in
    /// `ctx`. The step grid — refused as [`QueryError::Grid`] if the step
    /// is not positive or the grid is too long — is partitioned into runs
    /// of steps sharing an aligned interval; each run is an independent
    /// sub-query whose samples concatenate (per series, ascending) into
    /// exactly what an unsplit [`engine::run_range_query`] call produces,
    /// because every step is evaluated independently over its own
    /// lookback.
    ///
    /// Each run resolves against the step extent of its bucket and grid
    /// phase. Covered: sliced from the extent. Covered up to the
    /// extent's last step: only the later steps execute, each series'
    /// fresh samples append after its cached ones, and the extent is
    /// stored again from the run's first step on — an extent never holds
    /// more steps than the newest run that touched it. Otherwise the run
    /// executes whole and replaces the extent.
    #[allow(clippy::too_many_arguments)]
    pub fn run_range_query(
        &self,
        shards: &[Arc<Ingester>],
        ctx: &QueryContext,
        text: &str,
        query: &MetricQuery,
        start: Timestamp,
        end: Timestamp,
        step_ns: i64,
    ) -> Result<(Matrix, QueryReport), QueryError> {
        let steps = step_grid(start, end, step_ns).map_err(QueryError::Grid)?;
        let deadline = self.deadline();
        self.check_deadline(deadline)?;

        self.shared.pushdown_queries.fetch_add(1, Ordering::Relaxed);

        let interval = self.limits.split_interval_ns;
        let groups = range_groups(&steps, interval);
        let norm = normalize_query(text);
        let key = |first: Timestamp| CacheKey {
            tenant: ctx.tenant.clone(),
            query: norm.clone(),
            split: SplitKey::Extent {
                step_ns,
                bucket: first.checked_div_euclid(interval).unwrap_or(0),
                phase: first.checked_rem_euclid(step_ns).unwrap_or(0),
            },
        };
        let resolved = self.resolve_splits(
            ctx,
            &groups,
            deadline,
            // A run is `(first step, last step)`, both on the grid.
            |cache, s, e| match cache.get(&key(s)) {
                Some(CacheEntry {
                    data: CachedData::Extent { first, last, matrix },
                    stats,
                    ..
                }) if *first <= s && s <= *last => {
                    if *last >= e {
                        Lookup::Hit(slice_steps(matrix, s, e), *stats)
                    } else {
                        let held = Some((slice_steps(matrix, s, *last), *stats));
                        Lookup::Execute { from: *last + step_ns, held }
                    }
                }
                _ => Lookup::Execute { from: s, held: None },
            },
            // Map/reduce: each shard returns per-step partial aggregates
            // and the frontend merges them — entries never ship.
            |s, e| {
                let run = &steps[steps.partition_point(|&t| t < s)..];
                let run = &run[..run.partition_point(|&t| t <= e)];
                let out = engine::run_range_query(shards, query, run);
                self.note_pushdown(&out.1);
                out
            },
            |(s, e), held, fresh, fresh_stats| {
                let (cached, mut stats) = held.unwrap_or_default();
                stats.absorb(fresh_stats);
                let matrix = merge_series(cached.into_iter().chain(fresh).collect());
                // The first step's lookback reaches `range` behind it.
                let data = CachedData::Extent { first: s, last: e, matrix: matrix.clone() };
                let data_start = s.saturating_sub(query.range_ns());
                (matrix, Some((key(s), CacheEntry { data, stats, data_start, end: e })))
            },
        )?;

        let splits: Vec<SplitStat> = resolved.iter().map(|(_, sp)| *sp).collect();
        let mut merged = QueryStats::default();
        for split in &splits {
            merged.absorb(split.stats);
        }
        let report = QueryReport::from_splits(merged, splits);
        self.record_query(ctx, &norm, start, end, &report);
        Ok((merge_series(resolved.into_iter().flat_map(|(matrix, _)| matrix).collect()), report))
    }

    /// Evaluate a metric query at one instant for the tenant in `ctx`,
    /// under the per-query limits. Instant queries are not split or
    /// cached (every ruler evaluation uses a fresh `now`, so cache
    /// entries would never be reused before an append invalidated
    /// them): the report holds one uncached "split" covering the
    /// instant's lookback, with its scheduler queue wait. Nor are they
    /// pushed into the query-record buffer — every ruler tick would
    /// flood it with identical rule evaluations.
    pub fn run_instant_query(
        &self,
        shards: &[Arc<Ingester>],
        ctx: &QueryContext,
        query: &MetricQuery,
        at: Timestamp,
    ) -> Result<(InstantVector, QueryReport), QueryError> {
        let deadline = self.deadline();
        self.check_deadline(deadline)?;
        // Instant evaluations contend for the same slots as splits, so
        // they are scheduled (and their waits bounded) the same way.
        let ((vector, stats), wait_vns) =
            self.shared.scheduler.run_timed(&ctx.tenant, ctx.weight, || {
                engine::run_instant_query(shards, query, at)
            });
        self.shared.pushdown_queries.fetch_add(1, Ordering::Relaxed);
        self.note_pushdown(&stats);
        self.check_bytes(ctx.max_bytes_scanned, stats.bytes_scanned)?;
        let splits = vec![SplitStat {
            start: at.saturating_sub(query.range_ns()),
            end: at,
            cached: false,
            stats,
            queue_wait_vns: wait_vns,
        }];
        Ok((vector, QueryReport::from_splits(stats, splits)))
    }
}

/// Collapse whitespace outside string literals so textual variants of
/// one query share a cache entry without any semantic risk.
fn normalize_query(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_string: Option<char> = None;
    let mut escaped = false;
    let mut pending_space = false;
    for ch in text.chars() {
        if let Some(delim) = in_string {
            out.push(ch);
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == delim {
                in_string = None;
            }
        } else if ch.is_whitespace() {
            pending_space = true;
        } else {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.push(ch);
            if ch == '"' || ch == '`' {
                in_string = Some(ch);
            }
        }
    }
    out
}

/// Chop `(start, end]` at absolute multiples of `interval`. The
/// alignment is what makes caching work: tomorrow's refresh of "last 6
/// hours" shares every boundary with today's except the live tail.
fn split_bounds(start: Timestamp, end: Timestamp, interval: i64) -> Vec<(Timestamp, Timestamp)> {
    if interval <= 0 || start >= end {
        return vec![(start, end)];
    }
    let span = end.saturating_sub(start);
    if span == i64::MAX || (span / interval) as usize >= MAX_SPLITS {
        return vec![(start, end)];
    }
    let mut out = Vec::new();
    let mut s = start;
    while s < end {
        // The next absolute boundary strictly after `s`.
        let e = s
            .div_euclid(interval)
            .checked_add(1)
            .and_then(|q| q.checked_mul(interval))
            .map_or(end, |b| b.min(end));
        out.push((s, e));
        s = e;
    }
    out
}

/// Partition a range query's ascending step grid into maximal runs of
/// steps whose timestamps share an aligned `interval` bucket. Returns
/// `(first_step, last_step)` per run; degenerate shapes (no splitting
/// configured, spans of more than [`MAX_SPLITS`] intervals) collapse to
/// one run over the whole grid, and an empty grid has no runs.
fn range_groups(steps: &[Timestamp], interval: i64) -> Vec<(Timestamp, Timestamp)> {
    let Some((&first, &last)) = steps.first().zip(steps.last()) else {
        return Vec::new();
    };
    // The span of two timestamps can exceed `i64`, never `i128`.
    let span = i128::from(last) - i128::from(first);
    if interval <= 0 || span / i128::from(interval) >= MAX_SPLITS as i128 {
        return vec![(first, last)];
    }
    let mut out: Vec<(i64, Timestamp, Timestamp)> = Vec::new();
    for &t in steps {
        let bucket = t.div_euclid(interval);
        match out.last_mut() {
            Some((b, _, last)) if *b == bucket => *last = t,
            _ => out.push((bucket, t, t)),
        }
    }
    out.into_iter().map(|(_, s, e)| (s, e)).collect()
}

/// An extent's samples at steps `s ..= e`, dropping series left empty.
fn slice_steps(matrix: &Matrix, s: Timestamp, e: Timestamp) -> Matrix {
    matrix
        .iter()
        .filter_map(|(labels, samples)| {
            let from = samples.partition_point(|x| x.ts < s);
            let to = samples.partition_point(|x| x.ts <= e);
            (from < to).then(|| (labels.clone(), samples[from..to].to_vec()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_collapses_whitespace_outside_strings() {
        assert_eq!(
            normalize_query("  {app = \"x  y\"}   |=  \"a b\" "),
            "{app = \"x  y\"} |= \"a b\""
        );
        assert_eq!(normalize_query("sum(rate({a=\"b\"}[5m]))"), "sum(rate({a=\"b\"}[5m]))");
        // Escaped quotes do not end the literal.
        assert_eq!(normalize_query(r#"{a="x\"  y"}  "#), r#"{a="x\"  y"}"#);
    }

    #[test]
    fn split_bounds_align_to_absolute_boundaries() {
        // Window (250, 950] with interval 300 → boundaries at 300, 600, 900.
        assert_eq!(
            split_bounds(250, 950, 300),
            vec![(250, 300), (300, 600), (600, 900), (900, 950)]
        );
        // Aligned start produces whole intervals.
        assert_eq!(split_bounds(300, 900, 300), vec![(300, 600), (600, 900)]);
        // Negative timestamps align the same way (floor division).
        assert_eq!(split_bounds(-450, -50, 300), vec![(-450, -300), (-300, -50)]);
        // No interval, empty window: unsplit.
        assert_eq!(split_bounds(0, 100, 0), vec![(0, 100)]);
        assert_eq!(split_bounds(100, 100, 10), vec![(100, 100)]);
    }

    /// The step grid `start, start + step, ..` while `<= end`.
    fn grid(start: Timestamp, end: Timestamp, step_ns: i64) -> Vec<Timestamp> {
        step_grid(start, end, step_ns).unwrap()
    }

    #[test]
    fn sentinel_spans_do_not_split() {
        assert_eq!(split_bounds(i64::MIN, 1_000, 300), vec![(i64::MIN, 1_000)]);
        assert_eq!(split_bounds(0, i64::MAX, 300), vec![(0, i64::MAX)]);
        assert_eq!(range_groups(&[i64::MIN, 0, 1_000], 300), vec![(i64::MIN, 1_000)]);
    }

    #[test]
    fn range_groups_keep_an_off_grid_start_on_the_query_grid() {
        // Regression: `start % step != 0` and `start % interval != 0`.
        // Groups are runs of the query's *own* grid `start + k·step`, so
        // their union must reproduce that grid exactly — never snap to
        // absolute multiples of the step or the interval.
        let groups = range_groups(&grid(50, 950, 100), 300);
        let mut all = Vec::new();
        for (s, e) in &groups {
            let mut t = *s;
            while t <= *e {
                all.push(t);
                t += 100;
            }
        }
        assert_eq!(all, (0..=9).map(|k| 50 + k * 100).collect::<Vec<_>>());
        for (s, _) in &groups {
            assert_eq!((s - 50) % 100, 0, "group start {s} is off the query grid");
        }
    }

    #[test]
    fn range_groups_collapse_keeps_sentinel_and_off_grid_starts() {
        // Regression: every collapse path must keep the grid's own first
        // and last step — the engine then evaluates exactly the steps of
        // an unsplit evaluation. A collapse that rounded the start to an
        // interval boundary would shift every step.
        assert_eq!(range_groups(&[i64::MIN, i64::MIN + 7], 300), vec![(i64::MIN, i64::MIN + 7)]);
        // Maximal span (wider than `i64`), off-grid endpoints.
        let whole = grid(i64::MIN + 3, i64::MAX - 2, i64::MAX / 2);
        assert_eq!(range_groups(&whole, 300), vec![(i64::MIN + 3, whole[whole.len() - 1])]);
        // MAX_SPLITS collapse keeps the off-grid start too.
        let wide = 300 * MAX_SPLITS as i64;
        assert_eq!(range_groups(&grid(5, 5 + wide, 10), 300), vec![(5, 5 + wide)]);
        // No splitting configured: one run.
        assert_eq!(range_groups(&grid(13, 53, 10), 0), vec![(13, 53)]);
        // Degenerate grids: one step is one run, no step no run.
        assert_eq!(range_groups(&[13], 300), vec![(13, 13)]);
        assert!(range_groups(&[], 300).is_empty());
    }

    #[test]
    fn range_groups_cover_the_step_grid_exactly() {
        // Steps 0,100,...,900 with interval 300: buckets [0,300) [300,600)...
        let groups = range_groups(&grid(0, 900, 100), 300);
        assert_eq!(groups, vec![(0, 200), (300, 500), (600, 800), (900, 900)]);
        // The union of group grids is the original grid.
        let mut all = Vec::new();
        for (s, e) in &groups {
            let mut t = *s;
            while t <= *e {
                all.push(t);
                t += 100;
            }
        }
        assert_eq!(all, (0..=9).map(|k| k * 100).collect::<Vec<_>>());
    }
}
