//! A Grafana-Loki-like log aggregation engine.
//!
//! "Loki is like the Prometheus tool mentioned above but for logs. It
//! constantly evaluates Shasta events and logs ... and turns the result
//! into Prometheus-style metrics." (§IV-A). The crate provides the whole
//! Loki slice the paper's pipeline uses:
//!
//! * [`LokiCluster`] — the facade: a distributor sharding streams across
//!   N [`Ingester`]s by label fingerprint (the paper's 8-node cluster).
//!   One push door, [`LokiCluster::push_frames`] (tenant + stream
//!   frames; `push` / `push_record` / `push_record_batch` are sugar over
//!   it), and one query door, [`LokiCluster::query`] (a [`QueryRequest`]
//!   in, data + [`QueryReport`] out; `query_logs` / `query_logs_directed`
//!   / `query_range` / `query_instant` are sugar over it);
//! * [`chunk`] — compressed chunk storage ("logs ... are compressed and
//!   stored in chunks");
//! * the label-only inverted index is `omni_model::LabelIndex`, the one the
//!   TSDB resolves its selectors through too;
//! * [`ruler`] — "a component called the Ruler which is responsible for
//!   continually evaluating a set of configurable queries and performing
//!   an action based on the result".

pub mod chunk;
pub mod chunkstore;
pub mod compactor;
pub mod compress;
pub mod engine;
pub mod frontend;
pub mod ingester;
pub mod limits;
pub mod reader;
pub mod ruler;
pub mod scheduler;
pub mod stream;
pub mod tenant;
pub mod wal;

pub use chunkstore::{ChunkStore, ColdTierPolicy, ObjectTier};
pub use compactor::{CompactionReport, Compactor, CompactorStats};
pub use engine::{Direction, QueryStats};
pub use frontend::{
    FrontendStats, LimitViolation, QueryContext, QueryFrontend, QueryRecord, QueryReport, SplitStat,
};
pub use ingester::{IngestError, Ingester, IngesterStats};
pub use limits::{Limits, TenantLimits};
pub use ruler::{AlertingRule, RuleGroup, Ruler};
pub use scheduler::{FairScheduler, SchedulerStats};
pub use tenant::{
    ShedReason, TenantRegistry, TenantRejection, TenantSnapshot, TenantState, TENANT_LABEL,
};

use omni_logql::eval::GridError;
use omni_logql::{parse_expr, Expr, InstantVector, Matcher, Matrix, ParseError};
use omni_model::lockwitness::{classes, OrderedRwLock};
use omni_model::{LabelSet, LogEntry, LogRecord, SimClock, TenantId, Timestamp};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
pub use wal::Wal;

/// One stream frame: a label set plus a run of its entries — the shape
/// of the Loki push protocol and the only thing the write path appends,
/// from the distributor through the WAL to the ingester. A single record
/// is a frame of one.
pub type StreamFrame = (LabelSet, Vec<LogEntry>);

/// Query-path errors.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query text failed to parse.
    Parse(ParseError),
    /// A log API was given a metric query or vice versa.
    WrongQueryKind(&'static str),
    /// The query frontend rejected the query for exceeding a per-query
    /// limit ([`Limits::max_entries_per_query`],
    /// [`Limits::max_bytes_scanned`], or the virtual-clock deadline).
    LimitExceeded(LimitViolation),
    /// Tenant admission control shed the query (the `429`): the tenant
    /// is over its own query rate, never because of another tenant.
    TenantRejected(TenantRejection),
    /// A range query's step grid was refused (the `400`): the step is not
    /// positive, or the grid is longer than
    /// [`MAX_GRID_POINTS`](omni_logql::eval::MAX_GRID_POINTS).
    Grid(GridError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::WrongQueryKind(what) => write!(f, "wrong query kind: expected {what}"),
            QueryError::LimitExceeded(v) => write!(f, "query rejected: {v}"),
            QueryError::TenantRejected(r) => write!(f, "query rejected: {r}"),
            QueryError::Grid(e) => write!(f, "bad range query: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}

/// What a [`QueryRequest`] evaluates and over which window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryShape {
    /// A log query over `(start, end]`: up to `limit` records in
    /// `direction` order (`Forward` keeps the oldest when the limit
    /// bites, `Backward` the newest).
    Logs {
        /// Window start (exclusive).
        start: Timestamp,
        /// Window end (inclusive).
        end: Timestamp,
        /// Maximum records returned.
        limit: usize,
        /// Result (and limiting) order.
        direction: Direction,
    },
    /// A metric query evaluated at `start, start + step_ns, ..` while
    /// `<= end` (split and cached by the frontend).
    Range {
        /// First evaluation step.
        start: Timestamp,
        /// Upper bound of the step grid.
        end: Timestamp,
        /// Distance between steps.
        step_ns: i64,
    },
    /// A metric query at one instant.
    Instant {
        /// Evaluation time.
        at: Timestamp,
    },
}

/// One query through [`LokiCluster::query`].
#[derive(Debug, Clone, Copy)]
pub struct QueryRequest<'a> {
    /// `None` is the unscoped admin surface: cluster-wide limits, every
    /// stream visible. `Some` admits against the tenant's query bucket,
    /// runs under its entry/byte limits, cache partition and scheduler
    /// weight, and confines the selector to the tenant's streams.
    pub tenant: Option<&'a TenantId>,
    /// LogQL text; its kind must match `shape`.
    pub query: &'a str,
    /// What to evaluate.
    pub shape: QueryShape,
}

/// A query's result; the variant follows the request's [`QueryShape`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryData {
    /// Records of a [`QueryShape::Logs`] request.
    Logs(Vec<LogRecord>),
    /// Series of a [`QueryShape::Range`] request.
    Matrix(Matrix),
    /// Samples of a [`QueryShape::Instant`] request.
    Vector(InstantVector),
}

impl QueryData {
    /// The records, if this is the result of a log query.
    pub fn into_logs(self) -> Option<Vec<LogRecord>> {
        match self {
            QueryData::Logs(records) => Some(records),
            _ => None,
        }
    }

    /// The matrix, if this is the result of a range query.
    pub fn into_matrix(self) -> Option<Matrix> {
        match self {
            QueryData::Matrix(matrix) => Some(matrix),
            _ => None,
        }
    }

    /// The vector, if this is the result of an instant query.
    pub fn into_vector(self) -> Option<InstantVector> {
        match self {
            QueryData::Vector(vector) => Some(vector),
            _ => None,
        }
    }
}

/// What [`LokiCluster::query`] returns: the data plus Loki's statistics
/// object — the merged [`QueryStats`] in `report.stats` and, behind it,
/// the per-split breakdown (cache hits and misses, per-split scan
/// statistics, scheduler queue waits). Cached splits report the stats of
/// the execution that filled them.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The result, shaped by the request.
    pub data: QueryData,
    /// Execution statistics.
    pub report: QueryReport,
}

/// Point-in-time crash-recovery counters for the cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Ingester crashes injected so far.
    pub crashes: u64,
    /// Records restored into fresh ingesters by WAL replay.
    pub replayed_records: u64,
    /// Pushes rerouted away from a down home shard to a live one.
    pub rerouted_records: u64,
    /// Records currently buffered across every shard WAL.
    pub wal_records: u64,
    /// Total WAL segment bytes across shards.
    pub wal_bytes: u64,
    /// Records dropped from WALs by checkpoint truncation (durable in the
    /// chunk store, no longer needed for recovery).
    pub wal_checkpoint_drops: u64,
    /// WAL segments that failed to decode during a recovery and were
    /// skipped (their records are lost; every other segment replayed).
    pub wal_segments_corrupt: u64,
    /// Shards currently up.
    pub shards_up: usize,
    /// Total shards.
    pub shards_total: usize,
}

/// One distributor-visible shard slot: the live ingester (replaced
/// wholesale on crash), its durable WAL, and an up/down flag.
struct ShardSlot {
    ingester: OrderedRwLock<Arc<Ingester>>,
    wal: Wal,
    up: AtomicBool,
    /// Guards WAL replay so recovery is idempotent: a second
    /// `recover_shard` for a shard that is already recovering (or up)
    /// must not replay — and thus duplicate — the same records.
    recovering: AtomicBool,
}

#[derive(Default)]
struct ClusterCounters {
    crashes: AtomicU64,
    replayed: AtomicU64,
    rerouted: AtomicU64,
    wal_checkpoint_drops: AtomicU64,
    wal_segments_corrupt: AtomicU64,
}

/// The Loki cluster: distributor + shards + query engine.
#[derive(Clone)]
pub struct LokiCluster {
    shards: Arc<Vec<ShardSlot>>,
    chunk_store: ChunkStore,
    clock: SimClock,
    limits: Limits,
    counters: Arc<ClusterCounters>,
    /// The query frontend every query API routes through: interval
    /// splitting, the split-results cache, per-query limits.
    frontend: QueryFrontend,
    /// Per-tenant limits, admission buckets, and accounting.
    tenants: Arc<TenantRegistry>,
    /// The background compaction job over the shared chunk store.
    compactor: Compactor,
    /// Virtual time of the last compaction run (`i64::MIN` = never), for
    /// [`Self::maybe_compact`]'s cadence.
    last_compaction: Arc<AtomicI64>,
}

impl LokiCluster {
    /// Bring up a cluster with `shards` ingesters (the paper runs 8).
    pub fn new(shards: usize, limits: Limits, clock: SimClock) -> Self {
        assert!(shards > 0, "need at least one ingester shard");
        let chunk_store = ChunkStore::new();
        let compactor = Compactor::new(
            chunk_store.clone(),
            limits.compact_after_ns,
            limits.compacted_target_bytes,
        );
        Self {
            shards: Arc::new(
                (0..shards)
                    .map(|i| ShardSlot {
                        ingester: OrderedRwLock::new(
                            &classes::LOKI_SHARD_INGESTER,
                            Arc::new(Ingester::with_shard(
                                limits.clone(),
                                Some(chunk_store.clone()),
                                i,
                                shards,
                            )),
                        ),
                        wal: Wal::new(),
                        up: AtomicBool::new(true),
                        recovering: AtomicBool::new(false),
                    })
                    .collect(),
            ),
            chunk_store,
            frontend: QueryFrontend::new(limits.clone(), clock.clone()),
            tenants: Arc::new(TenantRegistry::new(limits.tenant_defaults(), clock.clone())),
            clock,
            limits,
            counters: Arc::new(ClusterCounters::default()),
            compactor,
            last_compaction: Arc::new(AtomicI64::new(i64::MIN)),
        }
    }

    /// The cluster's query frontend (splitting, caching, limits).
    pub fn frontend(&self) -> &QueryFrontend {
        &self.frontend
    }

    /// `(hits, misses)` of the fingerprint cache the distributor no
    /// longer has: a [`LabelSet`] carries its own fingerprint, so every
    /// accepted entry counts as a hit and nothing misses. omnibench compat
    /// (its `loki.fp_cache_hit_ratio`); remove with that metric.
    pub fn fp_cache_stats(&self) -> (u64, u64) {
        (self.stats().entries, 0)
    }

    /// Crash shard `i`: its in-memory streams and head chunks are lost on
    /// the spot (the slot gets a fresh empty ingester) and the shard stops
    /// taking pushes until [`recover_shard`](Self::recover_shard). The
    /// shard's WAL and the shared chunk store survive — they are the
    /// durable tiers recovery rebuilds from.
    pub fn crash_shard(&self, i: usize) {
        let slot = &self.shards[i];
        slot.up.store(false, Ordering::SeqCst);
        // A crash interrupts any in-flight recovery; the next
        // `recover_shard` must start over, not be swallowed by the guard.
        slot.recovering.store(false, Ordering::SeqCst);
        *slot.ingester.write() = Arc::new(Ingester::with_shard(
            self.limits.clone(),
            Some(self.chunk_store.clone()),
            i,
            self.shards.len(),
        ));
        self.counters.crashes.fetch_add(1, Ordering::Relaxed);
        // Cached query results may include the lost in-memory state.
        self.frontend.invalidate_all();
    }

    /// Recover shard `i`: replay its WAL into the fresh ingester, then
    /// mark it up. Returns the number of records restored. Replay applies
    /// records in original append order, so entries the shard had rejected
    /// (out-of-order, oversized) are rejected identically on replay. A
    /// WAL segment that fails to decode is skipped and counted in
    /// [`ResilienceStats::wal_segments_corrupt`]; the others replay.
    ///
    /// Idempotent: recovering a shard that is already up (or mid-replay
    /// on another thread) is a no-op returning `0`. A crash-recovery
    /// supervisor retrying at the same WAL offset therefore cannot
    /// duplicate entries — the failure mode real Loki guards with WAL
    /// checkpoints.
    pub fn recover_shard(&self, i: usize) -> usize {
        let slot = &self.shards[i];
        if slot.up.load(Ordering::SeqCst) {
            return 0;
        }
        if slot.recovering.swap(true, Ordering::SeqCst) {
            return 0;
        }
        let ingester = slot.ingester.read().clone();
        let mut restored = 0;
        // Segment by segment: a corrupt one costs its own records, not
        // the shard's, and the whole WAL is never decoded at once.
        for runs in (0..).map_while(|index| slot.wal.replay_segment(index)) {
            let Ok(runs) = runs else {
                self.counters.wal_segments_corrupt.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            for (labels, entries) in runs {
                let results = ingester.append_frames([(labels, entries.len())], entries);
                restored += results.iter().filter(|r| r.is_ok()).count();
            }
        }
        self.counters.replayed.fetch_add(restored as u64, Ordering::Relaxed);
        slot.up.store(true, Ordering::SeqCst);
        slot.recovering.store(false, Ordering::SeqCst);
        // Replay writes straight into the ingester, bypassing the push
        // hooks, so the cache cannot track which windows it touched.
        self.frontend.invalidate_all();
        restored
    }

    /// Whether shard `i` is up.
    pub fn shard_up(&self, i: usize) -> bool {
        self.shards[i].up.load(Ordering::SeqCst)
    }

    /// Crash-recovery counters.
    pub fn resilience(&self) -> ResilienceStats {
        ResilienceStats {
            crashes: self.counters.crashes.load(Ordering::Relaxed),
            replayed_records: self.counters.replayed.load(Ordering::Relaxed),
            rerouted_records: self.counters.rerouted.load(Ordering::Relaxed),
            wal_records: self.shards.iter().map(|s| s.wal.record_count()).sum(),
            wal_bytes: self.shards.iter().map(|s| s.wal.bytes() as u64).sum(),
            wal_checkpoint_drops: self.counters.wal_checkpoint_drops.load(Ordering::Relaxed),
            wal_segments_corrupt: self.counters.wal_segments_corrupt.load(Ordering::Relaxed),
            shards_up: (0..self.shards.len()).filter(|&i| self.shard_up(i)).count(),
            shards_total: self.shards.len(),
        }
    }

    /// Checkpoint every shard's WAL against what is already durable in the
    /// chunk store: records strictly older than the shard's oldest
    /// memory-only timestamp (minus the out-of-order tolerance, since the
    /// WAL stores pre-clamp timestamps) are truncated. Down shards are
    /// skipped: their replacement ingester is empty, so "nothing
    /// memory-only" would read as "everything durable" and truncate the
    /// very records recovery needs to replay. Returns records dropped
    /// across shards.
    pub fn checkpoint_wals(&self) -> usize {
        let mut dropped = 0;
        for slot in self.shards.iter() {
            if !slot.up.load(Ordering::SeqCst) {
                continue;
            }
            let ingester = slot.ingester.read().clone();
            let bound = match ingester.min_unpersisted_ts() {
                Some(ts) => ts.saturating_sub(self.limits.out_of_order_tolerance_ns),
                // Nothing memory-only: everything accepted is durable.
                None => i64::MAX,
            };
            dropped += slot.wal.checkpoint(bound);
        }
        self.counters.wal_checkpoint_drops.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Single-shard cluster with default limits (tests, examples).
    pub fn single(clock: SimClock) -> Self {
        Self::new(1, Limits::default(), clock)
    }

    /// The cluster clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Push one line: a frame of one through
    /// [`push_frames`](Self::push_frames), unscoped.
    pub fn push(
        &self,
        labels: LabelSet,
        ts: Timestamp,
        line: impl Into<String>,
    ) -> Result<(), IngestError> {
        self.push_record(LogRecord::new(labels, ts, line))
    }

    /// Push a pre-built record: a frame of one, unscoped.
    pub fn push_record(&self, record: LogRecord) -> Result<(), IngestError> {
        // Invariant: the door returns exactly one result per entry.
        self.push_frames(None, [(record.labels, [record.entry])])
            .pop()
            .expect("a frame of one yields one result") // lint:allow(no-unwrap)
    }

    /// Push a batch of records, unscoped, with per-record outcomes in
    /// input order: each record is a frame of one, and the door merges
    /// consecutive frames of one stream, so a stream-grouped batch — what
    /// the bridges drain per pump round — pays for each label set once.
    pub fn push_record_batch(&self, records: Vec<LogRecord>) -> Vec<Result<(), IngestError>> {
        self.push_frames(None, records.into_iter().map(|r| (r.labels, [r.entry])))
    }

    /// The one push door: frames of `(labels, entries)` — a
    /// [`StreamFrame`], or any other exact-size run of entries. Each
    /// frame is fingerprinted and routed once — by label fingerprint, so
    /// one stream always lands on one shard. When the home shard is down
    /// the distributor reroutes to the next live shard (so its WAL covers
    /// the frame); with every shard down the frame is rejected for the
    /// caller to retry. Each serving shard then takes **one** WAL segment
    /// lock — frames reach the WAL *before* the in-memory insert — and
    /// **one** ingester lock for its whole share of the call, consecutive
    /// frames of one stream merged into a single run. Returns one result
    /// per entry, frame by frame in input order.
    ///
    /// `tenant: None` is the unscoped path: no admission, no tenant
    /// label. With `Some`, each frame passes the tenant's admission
    /// control whole (one ingest-bucket draw for all its entries, then
    /// the active-stream cap) and lands with the reserved
    /// [`TENANT_LABEL`] injected, which is what scopes storage, queries
    /// and retention to the tenant. A shed frame yields a typed
    /// [`IngestError::TenantRejected`] per entry; the admission ledger
    /// keeps `offered == accepted + rejected` (accepted means "passed
    /// tenant admission" — a downstream ordering/size rejection does not
    /// retroactively un-admit).
    pub fn push_frames<E>(
        &self,
        tenant: Option<&TenantId>,
        frames: impl IntoIterator<Item = (LabelSet, E)>,
    ) -> Vec<Result<(), IngestError>>
    where
        E: IntoIterator<Item = LogEntry>,
        E::IntoIter: ExactSizeIterator,
    {
        /// One serving shard's share of a call, in arrival order (order
        /// within a stream must be preserved) and columnar: a `(labels, run
        /// length)` header per run, every run's entries back to back, and
        /// where each entry's result goes.
        #[derive(Default)]
        struct Routed {
            runs: Vec<(LabelSet, usize)>,
            entries: Vec<LogEntry>,
            idxs: Vec<usize>,
        }
        let n = self.shards.len();
        let tenant = tenant.map(|id| (id, self.tenants.state(id)));
        let shed = |id: &TenantId, reason| {
            IngestError::TenantRejected(TenantRejection { tenant: id.clone(), reason })
        };
        let now = self.clock.now();
        let frames = frames.into_iter();
        // At least one result per frame; exact for frames of one.
        let mut out: Vec<Result<(), IngestError>> = Vec::with_capacity(frames.size_hint().0);
        let mut routed: Vec<Routed> = (0..n).map(|_| Routed::default()).collect();
        // Shard that served the previous frame.
        let mut prev = 0;
        // Conservative invalidation span for the whole call (computed
        // over routed entries; rejects only over-invalidate).
        let mut ts_span: Option<(Timestamp, Timestamp)> = None;
        for (mut labels, entries) in frames {
            let entries = entries.into_iter();
            let (base, k) = (out.len(), entries.len());
            if k == 0 {
                continue;
            }
            // What stands unless a shard serves the frame.
            out.resize(base + k, Err(IngestError::AllShardsDown));
            if let Some((id, state)) = &tenant {
                if let Err(reason) = state.admit_ingest(now, k as u64) {
                    out[base..].fill(Err(shed(id, reason)));
                    continue;
                }
                labels.insert(TENANT_LABEL, id.as_str());
            }
            // Batches arrive stream-grouped (the bridges batch per
            // source), so a frame usually continues the previous run: taking
            // that run's label set, which already knows its fingerprint,
            // leaves one hash per distinct set rather than one per frame.
            if let Some((prev_labels, _)) = routed[prev].runs.last() {
                if *prev_labels == labels {
                    labels = prev_labels.clone();
                }
            }
            if let Some((id, state)) = &tenant {
                if let Err(reason) = state.admit_stream(&labels, k as u64) {
                    out[base..].fill(Err(shed(id, reason)));
                    continue;
                }
                state.note_accepted(k as u64);
            }
            let home = (labels.fingerprint() % n as u64) as usize;
            let Some(serving) = (0..n).map(|step| (home + step) % n).find(|&i| self.shard_up(i))
            else {
                continue;
            };
            if serving != home {
                self.counters.rerouted.fetch_add(k as u64, Ordering::Relaxed);
            }
            prev = serving;
            let shard = &mut routed[serving];
            shard.idxs.extend(base..base + k);
            match shard.runs.last_mut() {
                Some((last_labels, len)) if *last_labels == labels => *len += k,
                _ => shard.runs.push((labels, k)),
            }
            for e in entries {
                let (lo, hi) = ts_span.unwrap_or((e.ts, e.ts));
                ts_span = Some((lo.min(e.ts), hi.max(e.ts)));
                shard.entries.push(e);
            }
        }
        for (slot, shard) in self.shards.iter().zip(routed) {
            if shard.runs.is_empty() {
                continue;
            }
            let mut rest = shard.entries.as_slice();
            slot.wal.append_runs(shard.runs.iter().map(|(labels, len)| {
                let (run, tail) = rest.split_at(*len);
                rest = tail;
                (labels, run)
            }));
            let results = slot.ingester.read().append_frames(shard.runs, shard.entries);
            for (i, res) in shard.idxs.into_iter().zip(results) {
                out[i] = res;
            }
        }
        if let Some((lo, hi)) = ts_span {
            self.frontend.note_append(lo, hi);
        }
        out
    }

    /// The per-tenant limit registry: overrides, admission state, and
    /// accounting snapshots.
    pub fn tenants(&self) -> &TenantRegistry {
        &self.tenants
    }

    /// Per-tenant accounting for every tenant that has touched the
    /// cluster, sorted by tenant id.
    pub fn tenant_snapshots(&self) -> Vec<TenantSnapshot> {
        self.tenants.snapshots()
    }

    /// The one query door: parse, check the query kind against the
    /// requested shape, admit and scope the tenant (if any), then run
    /// through the frontend (splitting, caching, limits, fair
    /// scheduling) — each exactly once.
    pub fn query(&self, req: QueryRequest<'_>) -> Result<QueryResponse, QueryError> {
        let mut expr = parse_expr(req.query)?;
        let wants_logs = matches!(req.shape, QueryShape::Logs { .. });
        let selector = match &mut expr {
            Expr::Log(q) if wants_logs => &mut q.selector,
            Expr::Metric(m) if !wants_logs => &mut m.log_query_mut().selector,
            Expr::Log(_) => return Err(QueryError::WrongQueryKind("metric query")),
            Expr::Metric(_) => return Err(QueryError::WrongQueryKind("log query")),
        };
        let ctx = match req.tenant {
            None => QueryContext::anonymous(&self.limits),
            Some(tenant) => {
                let state = self.tenants.state(tenant);
                if let Err(reason) = state.admit_query(self.clock.now()) {
                    let shed = TenantRejection { tenant: tenant.clone(), reason };
                    return Err(QueryError::TenantRejected(shed));
                }
                // Isolation is structural: with this matcher injected the
                // selector physically cannot match another tenant's
                // streams (or unscoped legacy streams, which carry no
                // tenant label at all).
                selector.matchers.push(Matcher::eq(TENANT_LABEL, tenant.as_str()));
                QueryContext::for_tenant(tenant.clone(), &state.limits())
            }
        };
        let (shards, text) = (self.shards(), req.query);
        let (data, report) = match (&expr, req.shape) {
            (Expr::Log(q), QueryShape::Logs { start, end, limit, direction }) => {
                let (records, report) = self
                    .frontend
                    .run_log_query(&shards, &ctx, text, q, start, end, limit, direction)?;
                (QueryData::Logs(records), report)
            }
            (Expr::Metric(m), QueryShape::Range { start, end, step_ns }) => {
                let (matrix, report) =
                    self.frontend.run_range_query(&shards, &ctx, text, m, start, end, step_ns)?;
                (QueryData::Matrix(matrix), report)
            }
            (Expr::Metric(m), QueryShape::Instant { at }) => {
                let (vector, report) = self.frontend.run_instant_query(&shards, &ctx, m, at)?;
                (QueryData::Vector(vector), report)
            }
            _ => unreachable!("query kind was checked against the shape above"),
        };
        Ok(QueryResponse { data, report })
    }

    /// Run a log query string over `(start, end]` in Loki's default
    /// backward direction: up to `limit` records, **newest first**.
    /// Unscoped sugar over [`query`](Self::query).
    pub fn query_logs(
        &self,
        query: &str,
        start: Timestamp,
        end: Timestamp,
        limit: usize,
    ) -> Result<Vec<LogRecord>, QueryError> {
        self.query_logs_directed(query, start, end, limit, Direction::default())
    }

    /// [`query_logs`](Self::query_logs) with an explicit direction:
    /// `Forward` returns (and keeps, when the limit bites) the oldest
    /// records, `Backward` the newest.
    pub fn query_logs_directed(
        &self,
        query: &str,
        start: Timestamp,
        end: Timestamp,
        limit: usize,
        direction: Direction,
    ) -> Result<Vec<LogRecord>, QueryError> {
        let shape = QueryShape::Logs { start, end, limit, direction };
        let data = self.query(QueryRequest { tenant: None, query, shape })?.data;
        data.into_logs().ok_or(QueryError::WrongQueryKind("log query"))
    }

    /// All stream label sets matching a bare selector (the
    /// `/loki/api/v1/series` surface).
    pub fn series(&self, selector: &str) -> Result<Vec<LabelSet>, QueryError> {
        let sel = omni_logql::parse_selector(selector)?;
        let mut out: Vec<LabelSet> =
            self.shards().iter().flat_map(|s| s.select_streams(&sel)).collect();
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Evaluate a metric query string at one instant. Unscoped sugar
    /// over [`query`](Self::query).
    pub fn query_instant(&self, query: &str, at: Timestamp) -> Result<InstantVector, QueryError> {
        let shape = QueryShape::Instant { at };
        let data = self.query(QueryRequest { tenant: None, query, shape })?.data;
        data.into_vector().ok_or(QueryError::WrongQueryKind("metric query"))
    }

    /// Evaluate a metric query string over a range at `step_ns` intervals
    /// (split and cached by the frontend). Unscoped sugar over
    /// [`query`](Self::query).
    pub fn query_range(
        &self,
        query: &str,
        start: Timestamp,
        end: Timestamp,
        step_ns: i64,
    ) -> Result<Matrix, QueryError> {
        let shape = QueryShape::Range { start, end, step_ns };
        let data = self.query(QueryRequest { tenant: None, query, shape })?.data;
        data.into_matrix().ok_or(QueryError::WrongQueryKind("metric query"))
    }

    /// Periodic maintenance: seal aged head chunks on every shard.
    pub fn tick(&self) {
        let now = self.clock.now();
        for s in self.shards() {
            s.tick(now);
        }
    }

    /// Force-flush all head chunks.
    pub fn flush(&self) {
        for s in self.shards() {
            s.flush();
        }
    }

    /// Drain the fill ratios — uncompressed size over the configured
    /// chunk target — of every chunk sealed since the last call, across
    /// all shards. Ratios near 1.0 mean chunks seal full (by size);
    /// well under 1.0 means they sealed early (by age).
    pub fn take_seal_fill_ratios(&self) -> Vec<f64> {
        let target = self.limits.chunk_target_bytes.max(1) as f64;
        self.shards()
            .iter()
            .flat_map(|s| s.take_seal_sizes())
            .map(|sz| sz as f64 / target)
            .collect()
    }

    /// Move sealed chunks older than `older_than_ns` (relative to now)
    /// from ingester memory to the chunk object store, then checkpoint the
    /// WALs — offloaded records are durable and no longer need replay
    /// coverage. Returns chunks moved.
    pub fn offload(&self, older_than_ns: i64) -> usize {
        let horizon = self.clock.now() - older_than_ns;
        let moved = self.shards().iter().map(|s| s.offload(horizon)).sum();
        self.checkpoint_wals();
        moved
    }

    /// The disk-tier chunk store (for accounting).
    pub fn chunk_store(&self) -> &ChunkStore {
        &self.chunk_store
    }

    /// The background compactor (for accounting).
    pub fn compactor(&self) -> &Compactor {
        &self.compactor
    }

    /// Per-stream retention horizon resolver: a stream carrying the
    /// [`TENANT_LABEL`] ages out at its tenant's resolved horizon,
    /// unscoped streams at the cluster horizon.
    fn retention_resolver(&self) -> impl Fn(&LabelSet) -> i64 + Sync + '_ {
        |labels: &LabelSet| match labels.get(TENANT_LABEL) {
            Some(t) => self.tenants.retention_ns_for(t),
            None => self.limits.retention_ns,
        }
    }

    /// Run one compaction cycle now: per-tenant retention deletes against
    /// both storage tiers, then merge + dedup + demote of cold sealed
    /// chunks (see [`compactor::Compactor::run`]). If dedup removed
    /// replayed duplicates, cached query results over the affected window
    /// are invalidated — merging alone preserves results exactly and
    /// costs no cache.
    pub fn compact(&self) -> CompactionReport {
        let now = self.clock.now();
        let report = self.compactor.run(now, &self.retention_resolver());
        if let Some((lo, hi)) = report.dedup_window {
            self.frontend.note_compaction(lo, hi);
        }
        if report.retention_deleted > 0 {
            let min_retention = self.limits.retention_ns.min(self.tenants.min_retention_ns());
            self.frontend.note_retention(now.saturating_sub(min_retention));
        }
        self.last_compaction.store(now, Ordering::Release);
        report
    }

    /// Run a compaction cycle if at least
    /// [`Limits::compaction_interval_ns`] of virtual time passed since
    /// the last one (`0` disables the cadence). This is the hook the
    /// simulation step loop calls every tick, mirroring how real Loki's
    /// compactor wakes on `compaction_interval`.
    pub fn maybe_compact(&self) -> Option<CompactionReport> {
        let interval = self.limits.compaction_interval_ns;
        if interval <= 0 {
            return None;
        }
        let now = self.clock.now();
        let last = self.last_compaction.load(Ordering::Acquire);
        if last != i64::MIN && now.saturating_sub(last) < interval {
            return None;
        }
        Some(self.compact())
    }

    /// Enforce retention on every shard; returns (chunks, streams)
    /// dropped. Retention is tenant-aware: a stream carrying the
    /// [`TENANT_LABEL`] ages out at its tenant's resolved horizon
    /// (default → override); unscoped streams age out at the cluster
    /// horizon. Deleting one tenant's expired data can never touch
    /// another tenant's streams, because the horizon is resolved per
    /// stream from its own labels.
    pub fn enforce_retention(&self) -> (usize, usize) {
        let now = self.clock.now();
        let resolve = self.retention_resolver();
        let mut total = (0, 0);
        let mut dropped: Vec<LabelSet> = Vec::new();
        for s in self.shards() {
            let (c, dead) = s.enforce_retention_by(now, &resolve);
            total.0 += c;
            total.1 += dead.len();
            dropped.extend(dead);
        }
        // The storage tiers: one compactor walk over the shared store's
        // series index (both tiers, per-stream horizons) instead of the
        // old eager per-shard sweeps.
        total.0 += self.compactor.apply_retention(now, &resolve);
        // Retired streams free their tenants' active-stream cap room.
        self.tenants.note_streams_dropped(&dropped);
        // Cached windows reaching at or past the most aggressive horizon
        // any tenant runs under — including ones spanning it — may now
        // disagree with storage.
        let min_retention = self.limits.retention_ns.min(self.tenants.min_retention_ns());
        self.frontend.note_retention(now.saturating_sub(min_retention));
        total
    }

    /// Aggregate shard stats.
    pub fn stats(&self) -> IngesterStats {
        let mut agg = IngesterStats::default();
        for s in self.shards() {
            let st = s.stats();
            agg.entries += st.entries;
            agg.bytes += st.bytes;
            agg.chunks_sealed += st.chunks_sealed;
            agg.rejected += st.rejected;
        }
        agg
    }

    /// Total active streams.
    pub fn stream_count(&self) -> usize {
        self.shards().iter().map(|s| s.stream_count()).sum()
    }

    /// Total chunks (sealed + open heads).
    pub fn chunk_count(&self) -> usize {
        self.shards().iter().map(|s| s.chunk_count()).sum()
    }

    /// Compressed bytes held across shards.
    pub fn compressed_bytes(&self) -> usize {
        self.shards().iter().map(|s| s.compressed_bytes()).sum()
    }

    /// Uncompressed payload bytes across shards.
    pub fn uncompressed_bytes(&self) -> usize {
        self.shards().iter().map(|s| s.uncompressed_bytes()).sum()
    }

    /// Label-index entries across shards (C4's "small index").
    pub fn index_entries(&self) -> usize {
        self.shards().iter().map(|s| s.index_entries()).sum()
    }

    /// Approximate index bytes across shards.
    pub fn index_bytes(&self) -> usize {
        self.shards().iter().map(|s| s.index_bytes()).sum()
    }

    /// Sorted, deduplicated label names across shards (the Grafana label
    /// browser's first dropdown).
    pub fn label_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shards().iter().flat_map(|s| s.label_names()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Sorted, deduplicated values of one label across shards.
    pub fn label_values(&self, name: &str) -> Vec<String> {
        let mut vals: Vec<String> =
            self.shards().iter().flat_map(|s| s.label_values(name)).collect();
        vals.sort();
        vals.dedup();
        vals
    }

    /// Snapshot of the live ingester behind every slot. Queries fan out
    /// over all of them — a freshly-crashed shard's replacement is empty
    /// and contributes nothing until recovery replays its WAL.
    pub(crate) fn shards(&self) -> Vec<Arc<Ingester>> {
        self.shards.iter().map(|s| s.ingester.read().clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_logql::eval::{step_grid, MAX_GRID_POINTS};
    use omni_model::{labels, NANOS_PER_SEC};

    fn cluster(shards: usize) -> LokiCluster {
        LokiCluster::new(shards, Limits::default(), SimClock::starting_at(0))
    }

    /// Backward log query through the door: records plus the report.
    fn logs_with_report(
        c: &LokiCluster,
        tenant: Option<&TenantId>,
        query: &str,
        start: Timestamp,
        end: Timestamp,
        limit: usize,
    ) -> Result<(Vec<LogRecord>, QueryReport), QueryError> {
        let shape = QueryShape::Logs { start, end, limit, direction: Direction::default() };
        c.query(QueryRequest { tenant, query, shape })
            .map(|r| (r.data.into_logs().unwrap(), r.report))
    }

    /// Tenant-scoped backward log query.
    fn tenant_logs(
        c: &LokiCluster,
        tenant: &TenantId,
        query: &str,
        start: Timestamp,
        end: Timestamp,
        limit: usize,
    ) -> Result<Vec<LogRecord>, QueryError> {
        logs_with_report(c, Some(tenant), query, start, end, limit).map(|(records, _)| records)
    }

    /// Tenant-scoped push of one line (a frame of one).
    fn tenant_push(
        c: &LokiCluster,
        tenant: &TenantId,
        labels: LabelSet,
        ts: Timestamp,
        line: &str,
    ) -> Result<(), IngestError> {
        c.push_frames(Some(tenant), [(labels, vec![LogEntry::new(ts, line)])]).pop().unwrap()
    }

    #[test]
    fn push_and_query_logs() {
        let c = cluster(4);
        for i in 0..20 {
            c.push(labels!("app" => "fm"), i * NANOS_PER_SEC, format!("event {i}")).unwrap();
        }
        let out = c.query_logs(r#"{app="fm"} |= "event 1""#, -1, 100 * NANOS_PER_SEC, 100).unwrap();
        // "event 1" and "event 1x".
        assert_eq!(out.len(), 11);
        // Loki's default direction is backward: newest first.
        assert!(out.windows(2).all(|w| w[0].entry.ts >= w[1].entry.ts));
        // The forward direction yields the same set, oldest first.
        let fwd = c
            .query_logs_directed(
                r#"{app="fm"} |= "event 1""#,
                -1,
                100 * NANOS_PER_SEC,
                100,
                Direction::Forward,
            )
            .unwrap();
        assert!(fwd.windows(2).all(|w| w[0].entry.ts <= w[1].entry.ts));
        assert_eq!(fwd.len(), out.len());
    }

    #[test]
    fn same_stream_lands_on_one_shard() {
        let c = cluster(8);
        for i in 0..100 {
            c.push(labels!("app" => "steady"), i, "line").unwrap();
        }
        let populated = c.shards().iter().filter(|s| s.stream_count() > 0).count();
        assert_eq!(populated, 1);
        assert_eq!(c.stream_count(), 1);
    }

    #[test]
    fn different_streams_spread_across_shards() {
        let c = cluster(8);
        for i in 0..200 {
            c.push(labels!("id" => format!("{i}")), 1, "line").unwrap();
        }
        let populated = c.shards().iter().filter(|s| s.stream_count() > 0).count();
        assert!(populated >= 6, "only {populated} shards populated");
    }

    #[test]
    fn instant_metric_query() {
        let c = cluster(2);
        let ts = 3_600 * NANOS_PER_SEC;
        c.push(labels!("data_type" => "redfish_event"), ts, "CabinetLeakDetected ...").unwrap();
        let v = c
            .query_instant(
                r#"sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" [60m])) by (data_type)"#,
                ts + NANOS_PER_SEC,
            )
            .unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 1.0);
    }

    #[test]
    fn wrong_query_kind_errors() {
        let c = cluster(1);
        assert!(matches!(
            c.query_logs(r#"count_over_time({a="b"}[1m])"#, 0, 1, 1),
            Err(QueryError::WrongQueryKind(_))
        ));
        assert!(matches!(c.query_instant(r#"{a="b"}"#, 0), Err(QueryError::WrongQueryKind(_))));
        assert!(matches!(c.query_instant("{oops", 0), Err(QueryError::Parse(_))));
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let c = cluster(4);
        for i in 0..50 {
            c.push(labels!("id" => format!("{}", i % 10)), i, "0123456789").unwrap();
        }
        let st = c.stats();
        assert_eq!(st.entries, 50);
        assert_eq!(st.bytes, 500);
    }

    #[test]
    fn retention_via_cluster() {
        let limits = Limits { retention_ns: 10, chunk_target_bytes: 4, ..Default::default() };
        let c = LokiCluster::new(2, limits, SimClock::starting_at(0));
        c.push(labels!("a" => "1"), 1, "aaaaaa").unwrap();
        c.clock().set(1_000);
        let (chunks, _) = c.enforce_retention();
        assert!(chunks >= 1);
    }

    #[test]
    fn label_values_across_shards() {
        let c = cluster(4);
        c.push(labels!("app" => "fm"), 1, "x").unwrap();
        c.push(labels!("app" => "loki"), 1, "x").unwrap();
        c.push(labels!("app" => "fm", "env" => "prod"), 2, "y").unwrap();
        assert_eq!(c.label_values("app"), vec!["fm", "loki"]);
        assert_eq!(c.label_names(), vec!["app", "env"]);
    }

    #[test]
    fn offloaded_chunks_remain_queryable() {
        let limits = Limits { chunk_target_bytes: 64, ..Default::default() };
        let c = LokiCluster::new(2, limits, SimClock::starting_at(0));
        for i in 0..100 {
            c.push(labels!("app" => "x"), i * NANOS_PER_SEC, format!("event number {i}")).unwrap();
        }
        c.clock().set(200 * NANOS_PER_SEC);
        let before_mem = c.compressed_bytes();
        let moved = c.offload(50 * NANOS_PER_SEC);
        assert!(moved > 0, "sealed chunks should offload");
        assert!(c.compressed_bytes() < before_mem, "memory should shrink");
        assert!(c.chunk_store().objects().object_count() > 0);
        // Every entry is still queryable across both tiers.
        let out = c.query_logs(r#"{app="x"}"#, -1, 200 * NANOS_PER_SEC, usize::MAX).unwrap();
        assert_eq!(out.len(), 100);
        // Ordered (backward: newest first) and exact.
        assert!(out.windows(2).all(|w| w[0].entry.ts >= w[1].entry.ts));
    }

    /// The hot tier's object count and GETs are chunk objects only: the
    /// series index is held typed, so it is neither counted as an object
    /// nor listed, fetched and decoded by every shard a query reaches.
    #[test]
    fn hot_tier_counts_and_fetches_chunk_objects_only() {
        let limits = Limits { chunk_target_bytes: 64, split_interval_ns: 0, ..Default::default() };
        let c = LokiCluster::new(2, limits, SimClock::starting_at(0));
        let apps = ["a", "b", "c", "d"];
        for i in 0..30 {
            for app in apps {
                c.push(labels!("app" => app), i * NANOS_PER_SEC, format!("event {i} of {app}"))
                    .unwrap();
            }
        }
        c.flush();
        c.clock().set(100 * NANOS_PER_SEC);
        let offloaded = c.offload(0);
        let store = c.chunk_store();
        assert_eq!(store.series().len(), apps.len());
        assert!(offloaded > apps.len(), "several chunks per stream");
        assert_eq!(store.objects().object_count(), offloaded, "not chunks + series");

        let hot_chunks = store.objects().chunk_refs(&labels!("app" => "a")).len();
        let (_, gets_before) = store.objects().op_counts();
        let (records, report) =
            logs_with_report(&c, None, r#"{app="a"}"#, -1, 100 * NANOS_PER_SEC, usize::MAX)
                .unwrap();
        let (_, gets_after) = store.objects().op_counts();
        assert_eq!(records.len(), 30);
        assert_eq!(report.stats.chunks_touched, hot_chunks);
        assert_eq!(gets_after - gets_before, hot_chunks as u64, "one GET per chunk read");
    }

    #[test]
    fn retention_reaches_the_disk_tier() {
        let limits = Limits {
            chunk_target_bytes: 32,
            retention_ns: 100 * NANOS_PER_SEC,
            ..Default::default()
        };
        let c = LokiCluster::new(1, limits, SimClock::starting_at(0));
        for i in 0..50 {
            c.push(labels!("app" => "x"), i * NANOS_PER_SEC, "0123456789abcdef").unwrap();
        }
        c.clock().set(60 * NANOS_PER_SEC);
        c.offload(0);
        assert!(c.chunk_store().objects().object_count() > 0);
        // Advance far past retention; both tiers drain.
        c.clock().set(1_000 * NANOS_PER_SEC);
        c.enforce_retention();
        assert_eq!(c.chunk_store().objects().object_count(), 0);
        assert!(c.query_logs(r#"{app="x"}"#, -1, 2_000 * NANOS_PER_SEC, 10).unwrap().is_empty());
    }

    #[test]
    fn compaction_preserves_query_results_across_tiers() {
        let limits = Limits {
            chunk_target_bytes: 64,
            compact_after_ns: 0,
            compacted_target_bytes: 1024 * 1024,
            ..Default::default()
        };
        let c = LokiCluster::new(2, limits, SimClock::starting_at(0));
        for i in 0..100 {
            c.push(labels!("app" => "x"), i * NANOS_PER_SEC, format!("event number {i}")).unwrap();
        }
        c.clock().set(200 * NANOS_PER_SEC);
        c.offload(0);
        let hot_objects = c.chunk_store().objects().object_count();
        assert!(hot_objects > 1, "need several sealed objects to merge");
        let before = c.query_logs(r#"{app="x"}"#, -1, 200 * NANOS_PER_SEC, usize::MAX).unwrap();
        let report = c.compact();
        assert!(report.chunks_merged > 0);
        assert!(c.chunk_store().cold().object_count() > 0, "compacted objects demoted to cold");
        assert!(
            c.chunk_store().objects().object_count() < hot_objects,
            "merged hot sources deleted"
        );
        // Cold-cache re-read must return byte-for-byte identical results.
        c.frontend().invalidate_all();
        let (after, report) =
            logs_with_report(&c, None, r#"{app="x"}"#, -1, 200 * NANOS_PER_SEC, usize::MAX)
                .unwrap();
        assert_eq!(before, after, "compaction must not change query results");
        assert!(report.stats.cold_chunks_touched > 0, "the read was served from the cold tier");
    }

    /// A same-timestamp burst cut into chunks that sit in all four tiers
    /// at once. Every tier boundary falls inside the burst, so only
    /// arrival order can break the ties — and the answer must not depend
    /// on how far each chunk has aged.
    #[test]
    fn ties_keep_arrival_order_across_every_tier_boundary() {
        use crate::engine::common::{reference_fetch, ReferenceStore};
        use omni_logql::eval::eval_metric_at;

        let limits = Limits { chunk_target_bytes: 64, compact_after_ns: 0, ..Default::default() };
        let c = LokiCluster::new(1, limits, SimClock::starting_at(0));
        let labels = labels!("app" => "burst");
        let ts = 10 * NANOS_PER_SEC;
        let mut reference = ReferenceStore::default();
        // ~40-byte lines: every second push seals a chunk.
        let mut push = |range: std::ops::Range<usize>| {
            for i in range {
                let line = format!("v={i} line {i:02} of one same-instant burst");
                let record = LogRecord::new(labels.clone(), ts, line);
                c.push_record(record.clone()).unwrap();
                reference.0.push(record);
            }
        };
        c.clock().set(4_000 * NANOS_PER_SEC);
        push(0..4);
        assert_eq!(c.offload(0), 2);
        assert_eq!(c.compact().chunks_merged, 2, "lines 00-03 → one cold object");
        push(4..8);
        assert_eq!(c.offload(0), 2, "lines 04-07 → two hot objects");
        push(8..13); // lines 08-0b → two sealed chunks, line 0c → the head
        assert_eq!(c.chunk_store().cold().object_count(), 1);
        assert_eq!(c.chunk_store().objects().object_count(), 2);
        assert_eq!(c.chunk_count(), 3);

        c.frontend().invalidate_all();
        let shape = QueryShape::Logs {
            start: 0,
            end: 20 * NANOS_PER_SEC,
            limit: usize::MAX,
            direction: Direction::Forward,
        };
        let resp =
            c.query(QueryRequest { tenant: None, query: r#"{app="burst"}"#, shape }).unwrap();
        assert_eq!(
            (resp.report.stats.chunks_touched, resp.report.stats.cold_chunks_touched),
            (5, 1)
        );
        assert_eq!(resp.data.into_logs().unwrap(), reference.0, "forward order is arrival order");

        // `first` / `last` break ties by the same fold order: earliest
        // arrival for `first`, latest for `last`.
        let at = 20 * NANOS_PER_SEC;
        for (op, expect) in [("first_over_time", 0.0), ("last_over_time", 12.0)] {
            // `logfmt` lifts `v` into the labels; overwriting it after the
            // unwrap folds the burst back into one group.
            let q =
                format!(r#"{op}({{app="burst"}} | logfmt | unwrap v | label_format v="-" [30s])"#);
            let Expr::Metric(mq) = parse_expr(&q).unwrap() else { panic!("metric query") };
            let mut fetch = reference_fetch(|sel, s, e| reference.scan(sel, s, e));
            let got = c.query_instant(&q, at).unwrap();
            assert_eq!(got, eval_metric_at(&mq, at, &mut fetch), "{op}");
            assert_eq!(got, [(labels!("app" => "burst", "v" => "-"), expect)], "{op}");
        }
    }

    /// Accounting pinned against the pre-reader read path: one scenario
    /// with cold, hot, sealed and head data under every stream, and the
    /// full statistics of one query per shape as literals captured from
    /// the four hand-chained layers this reader replaced (`skipped_by_key`
    /// from their `FetchStats`). A refactor of the reader may reorder
    /// ties; it may never move a count.
    #[test]
    fn reader_accounting_is_pinned_across_all_four_tiers() {
        let limits = Limits {
            chunk_target_bytes: 1_024,
            compact_after_ns: 0,
            split_interval_ns: 150 * NANOS_PER_SEC,
            ..Default::default()
        };
        let c = LokiCluster::new(2, limits, SimClock::starting_at(0));
        for i in 0..400i64 {
            for stream in ["a", "b", "c"] {
                let line =
                    format!("stream {stream} event {i:04} with some padding to fill chunks up");
                c.push(labels!("app" => "pin", "stream" => stream), i * NANOS_PER_SEC, line)
                    .unwrap();
            }
        }
        c.clock().set(400 * NANOS_PER_SEC);
        assert!(c.offload(200 * NANOS_PER_SEC) > 0);
        assert!(c.compact().objects_written > 0, "(.., 200s) → cold, several blocks an object");
        assert!(c.offload(100 * NANOS_PER_SEC) > 0, "[200s, 300s) → hot");
        assert!(c.compressed_bytes() > 0, "[300s, ..) stays sealed in memory, then the heads");

        let s = NANOS_PER_SEC;
        let logs = QueryShape::Logs {
            start: 50 * s,
            end: 350 * s,
            limit: 1_000,
            direction: Direction::Forward,
        };
        let range = QueryShape::Range { start: 0, end: 400 * s, step_ns: 30 * s };
        let instant = QueryShape::Instant { at: 400 * s };
        let stats = |query: &str, shape: QueryShape| {
            c.frontend().invalidate_all();
            c.query(QueryRequest { tenant: None, query, shape }).unwrap().report.stats
        };
        assert_eq!(
            stats(r#"{app="pin"} |= "7""#, logs),
            QueryStats {
                streams_matched: 9,
                entries_scanned: 900,
                bytes_scanned: 49_500,
                entries_returned: 171,
                chunks_touched: 36,
                cold_chunks_touched: 6,
                skipped_by_key: 33,
                chunks_corrupt: 0,
                blocks_decoded: 39,
                blocks_skipped: 3,
                decompressed_bytes: 77_148,
                entries_shipped: 171,
                partials_merged: 0,
            }
        );
        assert_eq!(
            stats(r#"sum by (stream) (count_over_time({app="pin"}[60s]))"#, range),
            QueryStats {
                streams_matched: 9,
                entries_scanned: 1_353,
                bytes_scanned: 74_415,
                entries_returned: 1_353,
                chunks_touched: 48,
                cold_chunks_touched: 6,
                skipped_by_key: 24,
                chunks_corrupt: 0,
                blocks_decoded: 51,
                blocks_skipped: 3,
                decompressed_bytes: 110_844,
                entries_shipped: 0,
                partials_merged: 42,
            }
        );
        assert_eq!(
            stats(r#"sum(rate({app="pin", stream=~"a|b"}[5m]))"#, instant),
            QueryStats {
                streams_matched: 2,
                entries_scanned: 598,
                bytes_scanned: 32_890,
                entries_returned: 598,
                chunks_touched: 24,
                cold_chunks_touched: 2,
                skipped_by_key: 0,
                chunks_corrupt: 0,
                blocks_decoded: 26,
                blocks_skipped: 0,
                decompressed_bytes: 48_748,
                entries_shipped: 0,
                partials_merged: 2,
            }
        );
    }

    #[test]
    fn compaction_dedups_replayed_chunks_and_invalidates_cache() {
        let limits = Limits { compact_after_ns: 0, ..Default::default() };
        let c = LokiCluster::new(1, limits, SimClock::starting_at(0));
        // Simulate the WAL-replay artifact: the same sealed chunk
        // persisted twice (crash between persist and checkpoint).
        let entries: Vec<omni_model::LogEntry> = (0..10)
            .map(|i| omni_model::LogEntry::new(i * NANOS_PER_SEC, format!("replayed {i}")))
            .collect();
        let chunk = chunk::SealedChunk::from_entries(&entries);
        let labels = labels!("app" => "replay");
        c.chunk_store().register_series(&labels);
        c.chunk_store().persist(&labels, &chunk);
        c.chunk_store().persist(&labels, &chunk);
        c.clock().set(100 * NANOS_PER_SEC);
        let dup = c.query_logs(r#"{app="replay"}"#, -1, 100 * NANOS_PER_SEC, usize::MAX).unwrap();
        assert_eq!(dup.len(), 20, "pre-compaction reads see the duplicate");
        let report = c.compact();
        assert_eq!(report.duplicates_dropped, 1);
        // The duplicate's window was invalidated in the results cache, so
        // the same query now reflects storage, not the stale cache.
        let clean = c.query_logs(r#"{app="replay"}"#, -1, 100 * NANOS_PER_SEC, usize::MAX).unwrap();
        assert_eq!(clean.len(), 10);
    }

    #[test]
    fn maybe_compact_honors_virtual_clock_cadence() {
        let limits = Limits {
            compaction_interval_ns: 100 * NANOS_PER_SEC,
            compact_after_ns: 0,
            ..Default::default()
        };
        let c = LokiCluster::new(1, limits, SimClock::starting_at(0));
        assert!(c.maybe_compact().is_some(), "first call always runs");
        assert!(c.maybe_compact().is_none(), "within the interval: skipped");
        c.clock().set(50 * NANOS_PER_SEC);
        assert!(c.maybe_compact().is_none());
        c.clock().set(150 * NANOS_PER_SEC);
        assert!(c.maybe_compact().is_some(), "interval elapsed: runs again");
        assert_eq!(c.compactor().stats().runs, 2);
    }

    #[test]
    fn query_stats_account_for_scanning() {
        let c = cluster(2);
        for i in 0..50 {
            c.push(labels!("app" => "a"), i + 1, "xxxxxxxxxx").unwrap();
        }
        for i in 0..50 {
            c.push(labels!("app" => "b"), i + 1, "leak here").unwrap();
        }
        // (0, 1_000] sits inside one aligned split interval, so the
        // frontend executes it as a single sub-query and the per-split
        // stream accounting stays exact.
        let (records, report) =
            logs_with_report(&c, None, r#"{app=~"a|b"} |= "leak""#, 0, 1_000, usize::MAX).unwrap();
        let stats = report.stats;
        assert_eq!(records.len(), 50);
        assert_eq!(stats.streams_matched, 2);
        assert_eq!(stats.entries_scanned, 100);
        assert_eq!(stats.entries_returned, 50);
        assert!(stats.bytes_scanned >= 100 * 9);
    }

    #[test]
    fn series_api_lists_streams() {
        let c = cluster(4);
        c.push(labels!("app" => "fm", "cluster" => "p"), 1, "x").unwrap();
        c.push(labels!("app" => "loki", "cluster" => "p"), 1, "x").unwrap();
        let series = c.series(r#"{cluster="p"}"#).unwrap();
        assert_eq!(series.len(), 2);
        assert!(c.series(r#"{cluster="other"}"#).unwrap().is_empty());
        assert!(c.series(r#"{bad"#).is_err());
    }

    #[test]
    fn equality_on_the_empty_value_matches_streams_without_the_label() {
        // Regression: `slot=""` went to the label index as a posting
        // lookup, found none and answered nothing, although a missing
        // label matches `""`.
        let c = cluster(2);
        c.push(labels!("job" => "x"), 1, "no slot").unwrap();
        c.push(labels!("job" => "x", "slot" => "3"), 1, "slot 3").unwrap();
        c.push(labels!("job" => "y"), 1, "other job").unwrap();
        let out = c.query_logs(r#"{job="x", slot=""}"#, 0, 10, usize::MAX).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].entry.line, "no slot");
        assert_eq!(c.series(r#"{job="x", slot=""}"#).unwrap(), vec![labels!("job" => "x")]);
    }

    #[test]
    fn range_query_prefetch_matches_per_step_instants() {
        let c = cluster(4);
        for i in 0..500 {
            c.push(
                labels!("app" => format!("a{}", i % 5)),
                i * NANOS_PER_SEC,
                format!("event {i}"),
            )
            .unwrap();
        }
        let q = r#"sum(count_over_time({app=~"a.*"}[60s])) by (app)"#;
        let step = 30 * NANOS_PER_SEC;
        let end = 500 * NANOS_PER_SEC;
        let matrix = c.query_range(q, 0, end, step).unwrap();
        // Cross-check every sample against an independent instant query.
        for (labels, samples) in &matrix {
            for s in samples {
                let v = c.query_instant(q, s.ts).unwrap();
                let expected =
                    v.iter().find(|(l, _)| l == labels).map(|(_, val)| *val).unwrap_or(0.0);
                assert_eq!(s.value, expected, "at ts {} for {labels}", s.ts);
            }
        }
    }

    #[test]
    fn parallel_query_matches_serial() {
        let mk = |shards| {
            let c = cluster(shards);
            for i in 0..300 {
                c.push(
                    labels!("id" => format!("{}", i % 30), "cluster" => "perlmutter"),
                    i,
                    format!("line {i}"),
                )
                .unwrap();
            }
            let mut v = c.query_logs(r#"{cluster="perlmutter"}"#, -1, 1_000, usize::MAX).unwrap();
            v.sort_by(|a, b| a.entry.ts.cmp(&b.entry.ts).then_with(|| a.labels.cmp(&b.labels)));
            v
        };
        assert_eq!(mk(1), mk(8));
    }

    #[test]
    fn crash_then_recover_replays_wal() {
        let c = cluster(1);
        for i in 0..100 {
            c.push(labels!("app" => "fm"), i * NANOS_PER_SEC, format!("pre-crash {i}")).unwrap();
        }
        c.crash_shard(0);
        // In-memory state is gone: the fresh ingester serves nothing.
        assert!(!c.shard_up(0));
        assert!(c
            .query_logs(r#"{app="fm"}"#, -1, 1_000 * NANOS_PER_SEC, usize::MAX)
            .unwrap()
            .is_empty());

        let restored = c.recover_shard(0);
        assert_eq!(restored, 100);
        assert!(c.shard_up(0));
        let out = c.query_logs(r#"{app="fm"}"#, -1, 1_000 * NANOS_PER_SEC, usize::MAX).unwrap();
        assert_eq!(out.len(), 100, "every pre-crash line must be queryable again");

        let r = c.resilience();
        assert_eq!(r.crashes, 1);
        assert_eq!(r.replayed_records, 100);
        assert_eq!(r.shards_up, 1);
    }

    #[test]
    fn pushes_reroute_around_down_shard() {
        let c = cluster(2);
        let stream = labels!("app" => "steady");
        let home = (stream.fingerprint() % 2) as usize;
        let other = 1 - home;
        for i in 0..10 {
            c.push(stream.clone(), i, "before").unwrap();
        }
        c.crash_shard(home);
        for i in 10..20 {
            c.push(stream.clone(), i, "during").unwrap();
        }
        assert_eq!(c.resilience().rerouted_records, 10);
        // The rerouted entries landed (and were WAL'd) on the live shard.
        let out = c.query_logs(r#"{app="steady"}"#, -1, 1_000, usize::MAX).unwrap();
        assert_eq!(out.len(), 10);
        assert!(c.shards()[other].stream_count() >= 1);

        // After recovery everything — pre-crash and rerouted — is served.
        c.recover_shard(home);
        let out = c.query_logs(r#"{app="steady"}"#, -1, 1_000, usize::MAX).unwrap();
        assert_eq!(out.len(), 20, "zero loss across crash + reroute + recovery");
    }

    #[test]
    fn all_shards_down_rejects_push() {
        let c = cluster(2);
        c.crash_shard(0);
        c.crash_shard(1);
        assert!(matches!(c.push(labels!("a" => "b"), 1, "x"), Err(IngestError::AllShardsDown)));
        c.recover_shard(0);
        c.push(labels!("a" => "b"), 2, "x").unwrap();
    }

    #[test]
    fn batched_push_reports_per_record_errors() {
        let c = cluster(2);
        let good = LogRecord::new(labels!("a" => "1"), 1, "ok");
        let bad = LogRecord::new(LabelSet::new(), 1, "no labels");
        let results = c.push_record_batch(vec![good, bad]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(IngestError::EmptyLabels)));
    }

    #[test]
    fn batched_push_rejects_when_all_shards_down() {
        let c = cluster(2);
        c.crash_shard(0);
        c.crash_shard(1);
        let results = c.push_record_batch(vec![LogRecord::new(labels!("a" => "b"), 1, "x")]);
        assert!(matches!(results[0], Err(IngestError::AllShardsDown)));
    }

    #[test]
    fn a_stream_grouped_batch_is_one_wal_run() {
        // Fifty records, each with its own freshly built label set: equal
        // contents, so the distributor routes them as one run and the WAL
        // holds one run of fifty.
        let c = cluster(2);
        let records: Vec<LogRecord> = (0..50)
            .map(|i| LogRecord::new(labels!("app" => "steady", "host" => "n1"), i, "x"))
            .collect();
        assert!(c.push_record_batch(records).iter().all(|r| r.is_ok()));
        let runs: Vec<StreamFrame> =
            c.shards.iter().flat_map(|slot| slot.wal.replay().unwrap()).collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].0, labels!("app" => "steady", "host" => "n1"));
        assert_eq!(runs[0].1.len(), 50);
        assert_eq!(c.fp_cache_stats(), (50, 0), "compat: every accepted entry is a hit");
    }

    #[test]
    fn wal_shrinks_after_flush_and_offload_cycle() {
        let limits = Limits { chunk_target_bytes: 64, ..Default::default() };
        let c = LokiCluster::new(1, limits, SimClock::starting_at(0));
        for i in 0..50 {
            c.push(labels!("app" => "x"), i * NANOS_PER_SEC, format!("event number {i}")).unwrap();
        }
        let before = c.resilience();
        assert_eq!(before.wal_records, 50);
        assert!(before.wal_bytes > 0);

        // Seal everything and move it to the durable chunk store; offload
        // checkpoints the WAL behind it.
        c.clock().set(100 * NANOS_PER_SEC);
        c.flush();
        let moved = c.offload(0);
        assert!(moved > 0);

        let after = c.resilience();
        assert!(
            after.wal_bytes < before.wal_bytes,
            "WAL must be strictly smaller after a flush cycle ({} -> {})",
            before.wal_bytes,
            after.wal_bytes
        );
        assert_eq!(after.wal_records, 0, "all records persisted, WAL fully truncated");
        assert_eq!(after.wal_checkpoint_drops, 50);

        // Recovery after the checkpoint must not duplicate offloaded data.
        c.crash_shard(0);
        c.recover_shard(0);
        let out = c.query_logs(r#"{app="x"}"#, -1, 1_000 * NANOS_PER_SEC, usize::MAX).unwrap();
        assert_eq!(out.len(), 50, "no duplicates from replaying checkpointed WAL");
    }

    #[test]
    fn checkpoint_never_touches_a_down_shards_wal() {
        // Maintenance (offload → checkpoint) keeps running while a shard
        // is down; the crashed shard's WAL is the only copy of its
        // memory-only records and must survive until recovery replays it.
        let c = cluster(1);
        for i in 0..25 {
            c.push(labels!("app" => "fm"), i * NANOS_PER_SEC, format!("pre-crash {i}")).unwrap();
        }
        c.crash_shard(0);
        c.clock().set(3_600 * NANOS_PER_SEC);
        c.offload(0); // runs checkpoint_wals internally
        assert_eq!(c.resilience().wal_records, 25, "down shard's WAL must be preserved");

        assert_eq!(c.recover_shard(0), 25);
        let out = c.query_logs(r#"{app="fm"}"#, -1, 4_000 * NANOS_PER_SEC, usize::MAX).unwrap();
        assert_eq!(out.len(), 25, "zero loss despite maintenance during downtime");
    }

    #[test]
    fn one_corrupt_wal_segment_costs_only_its_own_records() {
        // Regression: one bad byte anywhere in the WAL used to restore 0
        // records, silently, and leave a log no checkpoint could trim.
        let c = cluster(1);
        let stream = labels!("app" => "fm");
        // Three pushes of one ~70 KiB run each: three segments, spanning
        // seconds 0..100, 100..200 and 200..300.
        for run in 0..3 {
            let entries: Vec<LogEntry> = (0..100)
                .map(|i| {
                    let ts = (run * 100 + i) * NANOS_PER_SEC;
                    LogEntry::new(ts, format!("{run}/{i} {}", "x".repeat(700)))
                })
                .collect();
            assert!(c.push_frames(None, [(stream.clone(), entries)]).iter().all(|r| r.is_ok()));
        }
        let wal = &c.shards[0].wal;
        assert_eq!(wal.segment_count(), 3);
        // The middle segment's run count — after its first run's 1-byte
        // series ref (0) and the labels that define it — now reads
        // `u64::MAX`.
        let mut header = vec![0x00];
        compress::put_labels(&mut header, &stream);
        wal.edit_segment(1, |bytes| {
            assert_eq!(bytes[..header.len()], header, "segment 1 opens with series 0");
            assert_eq!(bytes[header.len()], 100, "followed by the 1-byte run count");
            bytes.splice(header.len()..=header.len(), [0xff; 9].into_iter().chain([0x01]));
        });
        assert_eq!(
            wal.replay_segment(1),
            Some(Err(compress::CorruptBlock("wal run count exceeds segment size")))
        );
        assert!(wal.replay().is_err());

        c.crash_shard(0);
        assert_eq!(c.recover_shard(0), 200, "the two intact segments replay");
        assert!(c.shard_up(0));
        let out = c.query_logs(r#"{app="fm"}"#, -1, 1_000 * NANOS_PER_SEC, usize::MAX).unwrap();
        assert_eq!(out.len(), 200);
        assert!(out.iter().all(|r| !r.entry.line.starts_with("1/")));
        assert_eq!(c.resilience().wal_segments_corrupt, 1);

        // A bound inside the corrupt segment's span drops the segment
        // before it and leaves the corrupt one in place ...
        assert_eq!(wal.checkpoint(150 * NANOS_PER_SEC), 100);
        assert_eq!((wal.segment_count(), wal.record_count()), (2, 200));
        // ... and one past its span — recorded at append time, so every
        // entry in it is known durable — drops it like any other.
        assert_eq!(wal.checkpoint(200 * NANOS_PER_SEC), 100);
        assert_eq!(wal.replay().unwrap().len(), 1);
    }

    #[test]
    fn checkpoint_keeps_unpersisted_tail() {
        // Only part of the data offloads; the WAL must keep the rest.
        let limits = Limits { chunk_target_bytes: 32, ..Default::default() };
        let c = LokiCluster::new(1, limits, SimClock::starting_at(0));
        for i in 0..40 {
            c.push(labels!("app" => "x"), i * NANOS_PER_SEC, "0123456789abcdef").unwrap();
        }
        c.clock().set(40 * NANOS_PER_SEC);
        // Offload only chunks entirely older than t=20s; newer sealed
        // chunks and the head stay in memory.
        c.offload(20 * NANOS_PER_SEC);
        let r = c.resilience();
        assert!(r.wal_records > 0, "unpersisted tail must stay in the WAL");
        assert!(r.wal_records < 40, "persisted prefix must be dropped");

        // A crash right now loses only what the WAL still covers — which
        // is everything not yet offloaded, so recovery is lossless.
        c.crash_shard(0);
        c.recover_shard(0);
        let out = c.query_logs(r#"{app="x"}"#, -1, 1_000 * NANOS_PER_SEC, usize::MAX).unwrap();
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn retention_treats_memory_and_disk_tiers_identically() {
        // Regression: unsealed head data used to outlive retention in the
        // memory tier while the identical workload, flushed and offloaded
        // to the disk tier, was deleted — the same records had two
        // different lifetimes depending on where they happened to sit.
        let run = |through_disk: bool| {
            let limits = Limits { retention_ns: 100 * NANOS_PER_SEC, ..Default::default() };
            let c = LokiCluster::new(1, limits, SimClock::starting_at(0));
            for i in 0..50 {
                c.push(labels!("app" => "x"), i * NANOS_PER_SEC, format!("event {i}")).unwrap();
            }
            if through_disk {
                c.flush();
                c.clock().set(60 * NANOS_PER_SEC);
                c.offload(0);
                assert!(c.chunk_store().objects().object_count() > 0);
            }
            c.clock().set(500 * NANOS_PER_SEC);
            c.enforce_retention();
            c.query_logs(r#"{app="x"}"#, -1, 1_000 * NANOS_PER_SEC, usize::MAX).unwrap()
        };
        let memory = run(false);
        let disk = run(true);
        assert_eq!(memory, disk, "both tiers must expire the same data");
        assert!(memory.is_empty(), "everything is past the horizon");
    }

    #[test]
    fn frontend_caches_repeated_queries() {
        // 2.5 hours of data: the default 1h split interval cuts the
        // window into three aligned sub-queries.
        let c = cluster(2);
        for i in 0..150 {
            c.push(labels!("app" => "fm"), i * 60 * NANOS_PER_SEC, format!("event {i}")).unwrap();
        }
        let end = 150 * 60 * NANOS_PER_SEC;
        let q = r#"{app="fm"}"#;
        let (cold, cold_report) = logs_with_report(&c, None, q, 0, end, usize::MAX).unwrap();
        let s = c.frontend().stats();
        assert_eq!(s.splits_total, 3, "2.5h window over 1h intervals");
        assert_eq!(s.cache_misses, 3);
        assert_eq!(s.cache_hits, 0);

        let (warm, warm_report) = logs_with_report(&c, None, q, 0, end, usize::MAX).unwrap();
        let s = c.frontend().stats();
        assert_eq!(s.cache_hits, 3, "second refresh is all cache hits");
        assert_eq!(s.cache_misses, 3);
        assert_eq!(warm, cold, "cache must be invisible in the results");
        assert_eq!(warm_report.stats, cold_report.stats, "cached hits report truthful stats");
        assert!(c.frontend().take_bytes_saved().iter().sum::<u64>() > 0);
    }

    #[test]
    fn query_report_breaks_stats_down_per_split() {
        // Same shape as the cache test: three aligned 1h splits.
        let c = cluster(2);
        for i in 0..150 {
            c.push(labels!("app" => "fm"), i * 60 * NANOS_PER_SEC, format!("event {i}")).unwrap();
        }
        let end = 150 * 60 * NANOS_PER_SEC;
        let q = r#"{app="fm"}"#;

        let (cold, report) = logs_with_report(&c, None, q, 0, end, usize::MAX).unwrap();
        assert_eq!(cold.len(), 149, "ts 0 is outside the exclusive start");
        assert_eq!(report.splits.len(), 3);
        assert_eq!(report.cache_misses, 3);
        assert_eq!(report.cache_hits, 0);
        // Split windows ascend and tile the query window.
        assert!(report.splits.windows(2).all(|w| w[0].end == w[1].start));
        // The merged stats are exactly the per-split sums.
        let mut summed = QueryStats::default();
        for sp in &report.splits {
            assert!(!sp.cached);
            summed.absorb(sp.stats);
        }
        summed.entries_returned = report.stats.entries_returned;
        assert_eq!(summed, report.stats);
        // One querying thread: its splits run in order and never queue
        // behind each other at the fair scheduler.
        assert!(report.splits.iter().all(|sp| sp.queue_wait_vns == 0), "{:?}", report.splits);
        assert_eq!(report.queue_wait_vns, 0);
        // The deepened fields made it through the frontend merge.
        assert_eq!(report.stats.entries_scanned, 149);

        // A warm refresh reports the same merged stats, now as hits.
        let (warm, warm_report) = logs_with_report(&c, None, q, 0, end, usize::MAX).unwrap();
        assert_eq!(warm, cold);
        assert_eq!(warm_report.stats, report.stats);
        assert_eq!(warm_report.cache_hits, 3);
        assert_eq!(warm_report.cache_misses, 0);
        assert!(warm_report.splits.iter().all(|sp| sp.cached && sp.queue_wait_vns == 0));

        // Both queries were recorded for the slow-query pipeline.
        let records = c.frontend().take_query_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].query, q);
        assert_eq!(records[0].report.cache_misses, 3);
        assert_eq!(records[1].report.cache_hits, 3);
        assert!(c.frontend().take_query_records().is_empty(), "drain empties the buffer");
    }

    #[test]
    fn out_of_order_append_into_cached_window_invalidates() {
        // Streams are ordered per-stream only: a brand-new stream may
        // appear at an arbitrarily old timestamp, landing inside an
        // already-cached window.
        let c = cluster(2);
        c.push(labels!("app" => "fm", "host" => "a"), 1_000 * NANOS_PER_SEC, "early").unwrap();
        let q = r#"{app="fm"}"#;
        let window = 2_000 * NANOS_PER_SEC;
        assert_eq!(c.query_logs(q, 0, window, usize::MAX).unwrap().len(), 1);
        assert_eq!(c.query_logs(q, 0, window, usize::MAX).unwrap().len(), 1); // cached

        c.push(labels!("app" => "fm", "host" => "b"), 500 * NANOS_PER_SEC, "late arrival").unwrap();
        let out = c.query_logs(q, 0, window, usize::MAX).unwrap();
        assert_eq!(out.len(), 2, "cached window must drop when data lands inside it");
    }

    #[test]
    fn cached_window_spanning_retention_horizon_invalidates() {
        let limits = Limits { retention_ns: 100 * NANOS_PER_SEC, ..Default::default() };
        let c = LokiCluster::new(1, limits, SimClock::starting_at(0));
        for i in 0..50 {
            c.push(labels!("app" => "x"), i * NANOS_PER_SEC, format!("event {i}")).unwrap();
        }
        let q = r#"{app="x"}"#;
        let window = 1_000 * NANOS_PER_SEC;
        assert_eq!(c.query_logs(q, -1, window, usize::MAX).unwrap().len(), 50);
        assert_eq!(c.query_logs(q, -1, window, usize::MAX).unwrap().len(), 50); // cached

        // The horizon sweeps across the cached window.
        c.clock().set(500 * NANOS_PER_SEC);
        c.enforce_retention();
        assert!(
            c.query_logs(q, -1, window, usize::MAX).unwrap().is_empty(),
            "retention must invalidate the cached window it swept through"
        );
    }

    #[test]
    fn per_query_limits_reject_with_typed_errors() {
        // max_entries_per_query caps what a query may even request.
        let limits = Limits { max_entries_per_query: 5, ..Default::default() };
        let c = LokiCluster::new(1, limits, SimClock::starting_at(0));
        c.push(labels!("a" => "b"), 1, "x").unwrap();
        assert!(matches!(
            c.query_logs(r#"{a="b"}"#, 0, 10, 6),
            Err(QueryError::LimitExceeded(LimitViolation::Entries { limit: 5, requested: 6 }))
        ));
        assert_eq!(c.query_logs(r#"{a="b"}"#, 0, 10, 5).unwrap().len(), 1);

        // max_bytes_scanned bounds the line bytes a query may touch.
        let limits = Limits { max_bytes_scanned: 20, ..Default::default() };
        let c = LokiCluster::new(1, limits, SimClock::starting_at(0));
        for i in 0..10 {
            c.push(labels!("a" => "b"), i, "0123456789").unwrap();
        }
        assert!(matches!(
            c.query_logs(r#"{a="b"}"#, -1, 100, usize::MAX),
            Err(QueryError::LimitExceeded(LimitViolation::BytesScanned { limit: 20, .. }))
        ));
        assert!(matches!(
            c.query_instant(r#"count_over_time({a="b"}[1m])"#, 100),
            Err(QueryError::LimitExceeded(LimitViolation::BytesScanned { .. }))
        ));

        // A zero deadline budget rejects deterministically on the
        // virtual clock (it never advances mid-query in the simulation).
        let limits = Limits { query_timeout_ns: 0, ..Default::default() };
        let c = LokiCluster::new(1, limits, SimClock::starting_at(0));
        c.push(labels!("a" => "b"), 1, "x").unwrap();
        assert!(matches!(
            c.query_logs(r#"{a="b"}"#, 0, 10, 1),
            Err(QueryError::LimitExceeded(LimitViolation::Deadline { .. }))
        ));
        assert_eq!(c.frontend().stats().rejected_total, 1);
        // The typed violation renders a readable message.
        let err = c.query_logs(r#"{a="b"}"#, 0, 10, 1).unwrap_err();
        assert!(err.to_string().contains("deadline"));
    }

    #[test]
    fn a_bad_range_step_is_a_typed_error_not_a_panic() {
        // Regression: a zero or negative step panicked inside the engine,
        // and a tiny step over a wide window allocated the whole grid.
        let c = cluster(2);
        c.push(labels!("a" => "b"), 1, "x").unwrap();
        let q = r#"count_over_time({a="b"}[1m])"#;
        let max = MAX_GRID_POINTS as i64;
        for (end, step, refused) in [
            (100, 0, GridError::NonPositiveStep(0)),
            (100, -5, GridError::NonPositiveStep(-5)),
            (max, 1, GridError::TooManyPoints(max as u128 + 1)),
            (i64::MAX, 1, GridError::TooManyPoints(i64::MAX as u128 + 1)),
        ] {
            assert_eq!(c.query_range(q, 0, end, step), Err(QueryError::Grid(refused)));
        }
        assert!(c.query_range(q, 0, 100, 0).unwrap_err().to_string().contains("positive"));
        // Nothing ran: no split, no cache entry, no limit rejection.
        let stats = c.frontend().stats();
        assert_eq!((stats.splits_total, stats.cached_entries, stats.rejected_total), (0, 0, 0));
        // The largest grid the limit allows still answers: the entry at
        // 1ns is inside every step's window from its own on.
        let matrix = c.query_range(q, 0, max - 1, 1).unwrap();
        assert_eq!(matrix.len(), 1);
        assert_eq!(matrix[0].1.len(), MAX_GRID_POINTS - 1);
    }

    #[test]
    fn split_range_query_matches_unsplit() {
        let split = cluster(2);
        let unsplit = {
            let limits = Limits { split_interval_ns: 0, ..Default::default() };
            LokiCluster::new(2, limits, SimClock::starting_at(0))
        };
        for c in [&split, &unsplit] {
            for i in 0..300 {
                c.push(
                    labels!("app" => format!("a{}", i % 3)),
                    i * 60 * NANOS_PER_SEC,
                    format!("event {i}"),
                )
                .unwrap();
            }
        }
        let q = r#"sum(count_over_time({app=~"a.*"}[10m])) by (app)"#;
        let end = 300 * 60 * NANOS_PER_SEC;
        let step = 7 * 60 * NANOS_PER_SEC;
        let a = split.query_range(q, 0, end, step).unwrap();
        let b = unsplit.query_range(q, 0, end, step).unwrap();
        assert_eq!(a, b, "interval splitting must not change results");
        assert!(split.frontend().stats().splits_total > 1, "the window did split");
        assert_eq!(unsplit.frontend().stats().splits_total, 1);
        // Warm pass: identical again.
        assert_eq!(split.query_range(q, 0, end, step).unwrap(), b);
        assert!(split.frontend().stats().cache_hits > 0);
    }

    #[test]
    fn sliding_range_refresh_executes_only_the_new_step() {
        // One line a minute; 10m steps over 1h splits.
        let c = cluster(2);
        for i in 0..240 {
            c.push(labels!("app" => "fm"), i * 60 * NANOS_PER_SEC, format!("event {i}")).unwrap();
        }
        let (q, minute) = (r#"count_over_time({app="fm"}[10m])"#, 60 * NANOS_PER_SEC);
        let step_ns = 10 * minute;
        let range = |start: Timestamp, end: Timestamp| {
            let shape = QueryShape::Range { start, end, step_ns };
            c.query(QueryRequest { tenant: None, query: q, shape }).unwrap()
        };
        let cached = |r: &QueryResponse| -> Vec<bool> {
            r.report.splits.iter().map(|sp| sp.cached).collect()
        };
        // Steps 30m..150m: runs [30, 50] [60, 110] [120, 150].
        let cold = range(30 * minute, 150 * minute);
        assert_eq!(cached(&cold), vec![false; 3]);
        // One step later: the older runs are sliced from their extents,
        // the newest executes 160m alone — the ten lines in (150m, 160m].
        let next = range(40 * minute, 160 * minute);
        assert_eq!(cached(&next), vec![true, true, false]);
        assert_eq!(next.report.splits[2].stats.entries_scanned, 10);
        let mq = match parse_expr(q).unwrap() {
            Expr::Metric(m) => m,
            Expr::Log(_) => unreachable!(),
        };
        let steps = step_grid(40 * minute, 160 * minute, step_ns).unwrap();
        let direct = engine::run_range_query(&c.shards(), &mq, &steps);
        assert_eq!(next.data.into_matrix(), Some(direct.0));
        // A repeat is all hits, and the extended extent replays every
        // execution that built it: the cold run's 40 lines plus these 10.
        let repeat = range(40 * minute, 160 * minute);
        assert_eq!(cached(&repeat), vec![true; 3]);
        let built = cold.report.splits[2].stats.entries_scanned + 10;
        assert_eq!(repeat.report.splits[2].stats.entries_scanned, built);
    }

    #[test]
    fn order_selected_aggregations_run_on_shard_partials() {
        // first/last_over_time used to ship every entry to a central
        // evaluator; they now travel as timestamp-carrying partials.
        let c = cluster(4);
        for i in 0..40i64 {
            c.push(labels!("host" => format!("n{}", i % 4)), i * NANOS_PER_SEC, format!("v={i}"))
                .unwrap();
        }
        for (op, expect) in [("first_over_time", 0.0), ("last_over_time", 36.0)] {
            // `logfmt` lifts `v` into the labels; overwriting it after the
            // unwrap folds the stream's entries back into one group.
            let query =
                format!(r#"{op}({{host="n0"}} | logfmt | unwrap v | label_format v="-" [60s])"#);
            let shape = QueryShape::Instant { at: 40 * NANOS_PER_SEC };
            let resp = c.query(QueryRequest { tenant: None, query: &query, shape }).unwrap();
            assert_eq!(resp.report.stats.entries_shipped, 0, "{op}");
            assert!(resp.report.stats.partials_merged > 0, "{op}");
            let expected = vec![(labels!("host" => "n0", "v" => "-"), expect)];
            assert_eq!(resp.data.into_vector(), Some(expected));
        }
        assert_eq!(c.frontend().stats().pushdown_queries, 2);
        assert_eq!(c.frontend().stats().pushdown_fallbacks, 0);
    }

    #[test]
    fn repeated_recovery_does_not_duplicate_entries() {
        // Regression: a supervisor retrying recovery at the same WAL
        // offset used to replay the whole WAL into the already-recovered
        // ingester, duplicating every entry.
        let c = cluster(1);
        for i in 0..50 {
            c.push(labels!("app" => "fm"), i * NANOS_PER_SEC, format!("line {i}")).unwrap();
        }
        c.crash_shard(0);
        assert_eq!(c.recover_shard(0), 50);
        assert_eq!(c.recover_shard(0), 0, "second recovery must be a no-op");
        assert_eq!(c.recover_shard(0), 0);
        let out = c.query_logs(r#"{app="fm"}"#, -1, 1_000 * NANOS_PER_SEC, usize::MAX).unwrap();
        assert_eq!(out.len(), 50, "replay must not duplicate entries");
        // A genuine second crash still recovers (and still exactly once).
        c.crash_shard(0);
        assert_eq!(c.recover_shard(0), 50);
        assert_eq!(c.recover_shard(0), 0);
        let out = c.query_logs(r#"{app="fm"}"#, -1, 1_000 * NANOS_PER_SEC, usize::MAX).unwrap();
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn tenant_queries_are_structurally_isolated() {
        let c = cluster(2);
        let alice = TenantId::new("alice");
        let bob = TenantId::new("bob");
        for i in 0..10 {
            tenant_push(&c, &alice, labels!("app" => "fm"), i, &format!("alice {i}")).unwrap();
        }
        for i in 0..5 {
            tenant_push(&c, &bob, labels!("app" => "fm"), i, &format!("bob {i}")).unwrap();
        }
        // Same query text, same labels — each tenant sees only its own.
        let a = tenant_logs(&c, &alice, r#"{app="fm"}"#, -1, 1_000, 100).unwrap();
        let b = tenant_logs(&c, &bob, r#"{app="fm"}"#, -1, 1_000, 100).unwrap();
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|r| r.entry.line.starts_with("alice")));
        assert_eq!(b.len(), 5);
        assert!(b.iter().all(|r| r.entry.line.starts_with("bob")));
        // A tenant with no data gets nothing, even with warm caches for
        // the same query text (the cache is tenant-partitioned).
        let nobody = TenantId::new("nobody");
        assert!(tenant_logs(&c, &nobody, r#"{app="fm"}"#, -1, 1_000, 100).unwrap().is_empty());
        // The unscoped admin surface still sees everything.
        assert_eq!(c.query_logs(r#"{app="fm"}"#, -1, 1_000, 100).unwrap().len(), 15);
        // Metric queries are scoped the same way.
        let av = c
            .query(QueryRequest {
                tenant: Some(&alice),
                query: r#"count_over_time({app="fm"}[1m])"#,
                shape: QueryShape::Instant { at: 999 },
            })
            .unwrap()
            .data
            .into_vector()
            .unwrap();
        assert_eq!(av.len(), 1);
        assert_eq!(av[0].1, 10.0);
    }

    #[test]
    fn noisy_tenant_burst_never_rejects_other_tenants() {
        let c = cluster(2);
        let noisy = TenantId::new("noisy");
        let calm = TenantId::new("calm");
        c.tenants().set_override(
            &noisy,
            TenantLimits { ingest_rate_per_sec: 0, ingest_burst: 3, ..TenantLimits::default() },
        );
        let mut noisy_ok = 0;
        for i in 0..10 {
            match tenant_push(&c, &noisy, labels!("app" => "burst"), i, "spam") {
                Ok(()) => noisy_ok += 1,
                Err(IngestError::TenantRejected(r)) => {
                    assert_eq!(r.tenant, noisy);
                    assert_eq!(r.reason, ShedReason::IngestRateExceeded);
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            // Tenant A's burst must never shed tenant B's ingest.
            tenant_push(&c, &calm, labels!("app" => "steady"), i, "fine").unwrap();
        }
        assert_eq!(noisy_ok, 3, "burst capacity admits exactly the burst");
        let snaps = c.tenant_snapshots();
        for s in &snaps {
            assert_eq!(
                s.ingest_offered,
                s.ingest_accepted + s.ingest_rejected,
                "ledger must balance for {}",
                s.tenant
            );
        }
        let noisy_snap = snaps.iter().find(|s| s.tenant == noisy).unwrap();
        assert_eq!((noisy_snap.ingest_accepted, noisy_snap.ingest_rejected), (3, 7));
        let calm_snap = snaps.iter().find(|s| s.tenant == calm).unwrap();
        assert_eq!((calm_snap.ingest_accepted, calm_snap.ingest_rejected), (10, 0));
        // Queries shed the same way: the noisy tenant's own rate gate,
        // never the calm tenant's.
        c.tenants().set_override(
            &noisy,
            TenantLimits { query_rate_per_sec: 0, query_burst: 0, ..TenantLimits::default() },
        );
        assert!(matches!(
            tenant_logs(&c, &noisy, r#"{app="burst"}"#, -1, 1_000, 10),
            Err(QueryError::TenantRejected(r)) if r.reason == ShedReason::QueryRateExceeded
        ));
        assert_eq!(tenant_logs(&c, &calm, r#"{app="steady"}"#, -1, 1_000, 100).unwrap().len(), 10);
    }

    #[test]
    fn zero_limit_tenant_is_fully_disabled() {
        let c = cluster(1);
        let off = TenantId::new("disabled");
        c.tenants().set_override(&off, TenantLimits::zero());
        assert!(matches!(
            tenant_push(&c, &off, labels!("app" => "x"), 0, "nope"),
            Err(IngestError::TenantRejected(_))
        ));
        assert!(matches!(
            tenant_logs(&c, &off, r#"{app="x"}"#, -1, 1, 1),
            Err(QueryError::TenantRejected(_))
        ));
        // Re-enabling mid-session works (hot reload).
        c.tenants().clear_override(&off);
        tenant_push(&c, &off, labels!("app" => "x"), 0, "back").unwrap();
        assert_eq!(tenant_logs(&c, &off, r#"{app="x"}"#, -1, 1, 10).unwrap().len(), 1);
    }

    #[test]
    fn stream_cap_sheds_new_streams_only() {
        let c = cluster(2);
        let t = TenantId::new("capped");
        c.tenants()
            .set_override(&t, TenantLimits { max_active_streams: 2, ..TenantLimits::default() });
        tenant_push(&c, &t, labels!("app" => "a"), 0, "x").unwrap();
        tenant_push(&c, &t, labels!("app" => "b"), 0, "x").unwrap();
        // Existing streams keep ingesting; a third stream is shed.
        tenant_push(&c, &t, labels!("app" => "a"), 1, "x").unwrap();
        assert!(matches!(
            tenant_push(&c, &t, labels!("app" => "c"), 0, "x"),
            Err(IngestError::TenantRejected(r)) if r.reason == ShedReason::MaxActiveStreams
        ));
        let snap = &c.tenant_snapshots()[0];
        assert_eq!(snap.active_streams, 2);
        assert_eq!(snap.ingest_offered, snap.ingest_accepted + snap.ingest_rejected);
    }

    #[test]
    fn per_tenant_retention_never_leaks_across_tenants() {
        let limits = Limits { chunk_target_bytes: 4, ..Default::default() };
        let c = LokiCluster::new(2, limits, SimClock::starting_at(0));
        let short = TenantId::new("short");
        let long = TenantId::new("long");
        c.tenants().set_override(
            &short,
            TenantLimits { retention_ns: 10 * NANOS_PER_SEC, ..TenantLimits::default() },
        );
        for i in 0..5 {
            tenant_push(&c, &short, labels!("app" => "fm"), i * NANOS_PER_SEC, "shortlived")
                .unwrap();
            tenant_push(&c, &long, labels!("app" => "fm"), i * NANOS_PER_SEC, "longlived").unwrap();
        }
        c.flush();
        c.clock().set(100 * NANOS_PER_SEC);
        let (chunks, _) = c.enforce_retention();
        assert!(chunks > 0, "short tenant's chunks must age out");
        assert!(
            tenant_logs(&c, &short, r#"{app="fm"}"#, -1, i64::MAX - 1, 100).unwrap().is_empty(),
            "short tenant's data past its horizon must be gone"
        );
        assert_eq!(
            tenant_logs(&c, &long, r#"{app="fm"}"#, -1, i64::MAX - 1, 100).unwrap().len(),
            5,
            "one tenant's retention must never delete another tenant's data"
        );
    }

    #[test]
    fn hot_reload_mid_burst_takes_effect_immediately() {
        let c = cluster(1);
        let t = TenantId::new("team");
        c.tenants().set_override(
            &t,
            TenantLimits { ingest_rate_per_sec: 0, ingest_burst: 2, ..TenantLimits::default() },
        );
        tenant_push(&c, &t, labels!("a" => "1"), 0, "x").unwrap();
        tenant_push(&c, &t, labels!("a" => "1"), 1, "x").unwrap();
        assert!(tenant_push(&c, &t, labels!("a" => "1"), 2, "x").is_err(), "burst exhausted");
        // Operator raises the limit mid-burst; the very next push admits.
        c.tenants().set_override(
            &t,
            TenantLimits { ingest_rate_per_sec: 0, ingest_burst: 8, ..TenantLimits::default() },
        );
        for i in 3..9 {
            tenant_push(&c, &t, labels!("a" => "1"), i, "x").unwrap();
        }
        let snap = &c.tenant_snapshots()[0];
        assert_eq!(
            (snap.ingest_offered, snap.ingest_accepted, snap.ingest_rejected),
            (9, 8, 1),
            "ledger must survive the reload"
        );
    }

    #[test]
    fn tenant_batch_push_admits_or_sheds_atomically() {
        let c = cluster(1);
        let t = TenantId::new("bulk");
        c.tenants().set_override(
            &t,
            TenantLimits { ingest_rate_per_sec: 0, ingest_burst: 5, ..TenantLimits::default() },
        );
        let entries: Vec<LogEntry> = (0..4).map(|i| LogEntry::new(i, format!("l{i}"))).collect();
        let out = c.push_frames(Some(&t), [(labels!("app" => "fm"), entries)]);
        assert!(out.iter().all(|r| r.is_ok()));
        // Next frame of 4 exceeds the remaining budget of 1: the whole
        // frame sheds (no partial admit).
        let entries: Vec<LogEntry> = (4..8).map(|i| LogEntry::new(i, format!("l{i}"))).collect();
        let out = c.push_frames(Some(&t), [(labels!("app" => "fm"), entries)]);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|r| matches!(r, Err(IngestError::TenantRejected(_)))));
        let snap = &c.tenant_snapshots()[0];
        assert_eq!((snap.ingest_offered, snap.ingest_accepted, snap.ingest_rejected), (8, 4, 4));
    }
}
