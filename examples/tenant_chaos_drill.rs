//! Multi-tenant noisy-neighbor chaos drill: 1200 tenants with
//! Zipf-distributed traffic share one Loki cluster while a noisy head
//! tenant fires ingest bursts, floods the query frontend, and shards
//! crash mid-run. The drill then proves the isolation invariants:
//!
//! 1. admission is per-tenant — the noisy tenant's bursts are shed with
//!    typed `tenant_rejected` errors while every other tenant's ingest
//!    and queries see zero rejections;
//! 2. the admission ledger balances — `offered == accepted + rejected`
//!    for ingest and queries, for every tenant;
//! 3. queries are structurally isolated — each tenant reads back exactly
//!    what it wrote, never a neighbor's records, across shard crashes
//!    and WAL replays;
//! 4. fair scheduling bounds queue waits — with three times as many
//!    noisy querier threads as the scheduler has slots, the noisy tenant
//!    queues on itself for more than a pool's worth of grant rounds while
//!    a well-behaved tenant's splits wait O(pool) rounds;
//! 5. per-tenant retention never leaks — a short-retention tenant's
//!    expiry deletes nothing from its neighbors;
//! 6. the self-telemetry ledger agrees with the cluster's own counters.
//!
//! ```sh
//! cargo run --release --example tenant_chaos_drill
//! ```
//!
//! Everything runs on the virtual clock from a fixed seed, so the
//! admission arithmetic is byte-identical between runs (scheduler waits
//! depend on thread interleaving and are asserted as bounds).

use shasta_mon::core::{MonitoringStack, StackConfig};
use shasta_mon::logql::Matrix;
use shasta_mon::loki::{
    Direction, IngestError, Limits, LokiCluster, QueryError, QueryRequest, QueryShape, TenantLimits,
};
use shasta_mon::model::{LabelSet, LogEntry, LogRecord, SimClock, TenantId, NANOS_PER_SEC};
use std::collections::HashMap;

const SEED: u64 = 42;
const N_TENANTS: usize = 1200;
const SHARDS: usize = 4;
const STEPS: i64 = 120;
const PUSHES_PER_STEP: usize = 300;
const BURST_SIZE: usize = 2000;
/// Splits the query frontend's fair scheduler lets execute at once.
const SCHED_POOL: u64 = 8;
/// Noisy querier threads in the invariant-4 flood. Each runs its splits
/// one at a time, so only more threads than `SCHED_POOL` make it queue.
const NOISY_QUERIERS: u64 = 3 * SCHED_POOL;

/// xorshift64: deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(1.0) sampler over ranks 0..n via the cumulative distribution.
struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / (rank + 1) as f64;
            cum.push(total);
        }
        Self { cum }
    }
    fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cum.last().unwrap_or(&1.0);
        let u = rng.unit() * total;
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1)
    }
}

fn tenant(rank: usize) -> TenantId {
    TenantId::new(format!("t{rank:04}"))
}

/// Tenant-scoped push of one line: a frame of one through the push door.
fn tenant_push(
    c: &LokiCluster,
    tenant: &TenantId,
    labels: LabelSet,
    ts: i64,
    line: String,
) -> Result<(), IngestError> {
    let frame = (labels, vec![LogEntry::new(ts, line)]);
    c.push_frames(Some(tenant), [frame]).pop().expect("a frame of one yields one result")
}

/// Tenant-scoped backward log query over `(start, end]`.
fn tenant_logs(
    c: &LokiCluster,
    tenant: &TenantId,
    query: &str,
    start: i64,
    end: i64,
    limit: usize,
) -> Result<Vec<LogRecord>, QueryError> {
    let shape = QueryShape::Logs { start, end, limit, direction: Direction::default() };
    Ok(c.query(QueryRequest { tenant: Some(tenant), query, shape })?
        .data
        .into_logs()
        .unwrap_or_default())
}

/// Tenant-scoped range query.
fn tenant_range(
    c: &LokiCluster,
    tenant: &TenantId,
    query: &str,
    start: i64,
    end: i64,
    step_ns: i64,
) -> Result<Matrix, QueryError> {
    let shape = QueryShape::Range { start, end, step_ns };
    Ok(c.query(QueryRequest { tenant: Some(tenant), query, shape })?
        .data
        .into_matrix()
        .unwrap_or_default())
}

fn main() {
    println!("Tenant chaos drill: {N_TENANTS} Zipf tenants, {STEPS} simulated seconds\n");
    println!("  rank 0  noisy: 50 rec/s ingest cap, 2 q/s query cap, bursts at t+30s/t+70s");
    println!("  ranks 100..110  short 30s retention override");
    println!("  t+40s  shard 1 crashes (recovers t+45s); t+80s shard 2 crash + replay\n");

    let clock = SimClock::starting_at(0);
    let limits = Limits {
        split_interval_ns: NANOS_PER_SEC, // 1s splits: wide queries fan out
        chunk_target_bytes: 4096,
        ..Limits::default()
    };
    let c = LokiCluster::new(SHARDS, limits, clock.clone());

    let noisy = tenant(0);
    c.tenants().set_override(
        &noisy,
        TenantLimits {
            ingest_rate_per_sec: 50,
            ingest_burst: 100,
            query_rate_per_sec: 2,
            query_burst: 2,
            ..TenantLimits::default()
        },
    );
    // Mid tenants are metered but generously: their Zipf share stays
    // under the cap, so any rejection here is an isolation leak.
    for rank in 1..50 {
        c.tenants().set_override(
            &tenant(rank),
            TenantLimits {
                ingest_rate_per_sec: 500,
                ingest_burst: 1000,
                ..TenantLimits::default()
            },
        );
    }
    for rank in 100..110 {
        c.tenants().set_override(
            &tenant(rank),
            TenantLimits { retention_ns: 30 * NANOS_PER_SEC, ..TenantLimits::default() },
        );
    }

    let mut rng = Rng::new(SEED);
    let zipf = Zipf::new(N_TENANTS);
    let labels = |rank: usize| LabelSet::from_pairs([("app", "drill"), ("host", HOSTS[rank % 8])]);
    const HOSTS: [&str; 8] = ["h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"];

    // Local shadow ledger: what we offered and what the cluster said.
    let mut offered: HashMap<usize, u64> = HashMap::new();
    let mut accepted: HashMap<usize, u64> = HashMap::new();
    let mut ts = 0i64;
    let mut push = |c: &LokiCluster, rank: usize| {
        *offered.entry(rank).or_default() += 1;
        ts += 1;
        match tenant_push(c, &tenant(rank), labels(rank), ts, format!("line {ts}")) {
            Ok(()) => *accepted.entry(rank).or_default() += 1,
            Err(IngestError::TenantRejected(r)) => {
                assert_eq!(r.tenant, tenant(0), "only the noisy tenant may ever be shed: {r}");
            }
            Err(e) => panic!("non-tenant ingest error: {e}"),
        }
    };

    // Warm-up: every tenant exists before the storm.
    for rank in 0..N_TENANTS {
        push(&c, rank);
    }

    let mut noisy_query_rejections = 0u64;
    for step in 0..STEPS {
        clock.advance(NANOS_PER_SEC);
        for _ in 0..PUSHES_PER_STEP {
            let rank = zipf.sample(&mut rng);
            push(&c, rank);
        }
        if step == 30 || step == 70 {
            for _ in 0..BURST_SIZE {
                push(&c, 0);
            }
        }
        if step == 40 {
            c.crash_shard(1);
        }
        if step == 45 {
            c.recover_shard(1);
            assert_eq!(c.recover_shard(1), 0, "second recovery must be a no-op");
        }
        if step == 80 {
            c.crash_shard(2);
            c.recover_shard(2);
            assert_eq!(c.recover_shard(2), 0, "repeat replay must not duplicate");
        }
        if step % 10 == 9 {
            // A calm tenant's query must always land; the noisy tenant
            // over its query budget is shed with a typed error. Narrow
            // ranges (one split) keep these out of the fairness numbers.
            let now = clock.now();
            tenant_logs(&c, &tenant(5), r#"{app="drill"}"#, now - NANOS_PER_SEC, now, 100)
                .expect("calm tenant query rejected");
            for _ in 0..5 {
                match tenant_logs(&c, &noisy, r#"{app="drill"}"#, now - NANOS_PER_SEC, now, 100) {
                    Ok(_) => {}
                    Err(QueryError::TenantRejected(_)) => noisy_query_rejections += 1,
                    Err(e) => panic!("non-tenant query error: {e}"),
                }
            }
        }
    }

    // ── Invariant 1+2: per-tenant admission, balanced ledger ──────────
    let snaps = c.tenant_snapshots();
    assert!(snaps.len() >= 1000, "expected >=1000 tenants, saw {}", snaps.len());
    let mut total_accepted = 0u64;
    for s in &snaps {
        assert_eq!(
            s.ingest_offered,
            s.ingest_accepted + s.ingest_rejected,
            "ingest ledger out of balance for {}",
            s.tenant
        );
        assert!(
            s.queries_rejected <= s.queries_offered,
            "query ledger out of balance for {}",
            s.tenant
        );
        if s.tenant != noisy {
            assert_eq!(s.ingest_rejected, 0, "calm tenant {} was shed", s.tenant);
            assert_eq!(s.queries_rejected, 0, "calm tenant {} query shed", s.tenant);
        }
        total_accepted += s.ingest_accepted;
    }
    let noisy_snap = snaps.iter().find(|s| s.tenant == noisy).expect("noisy tenant tracked");
    assert!(noisy_snap.ingest_rejected > 0, "bursts must overflow the noisy bucket");
    assert!(noisy_query_rejections > 0 && noisy_snap.queries_rejected == noisy_query_rejections);

    // ── Invariant 3: structural query isolation, post-crash ───────────
    // A second of refill lets even the noisy tenant afford one query.
    clock.advance(NANOS_PER_SEC);
    let now = clock.now();
    for rank in [0usize, 1, 5, 100, 500] {
        let got = tenant_logs(&c, &tenant(rank), r#"{app="drill"}"#, 0, now + 1, usize::MAX)
            .expect("scoped query")
            .len() as u64;
        assert_eq!(
            got,
            accepted.get(&rank).copied().unwrap_or(0),
            "tenant t{rank:04} must read back exactly its accepted records"
        );
    }
    let all = c.query_logs(r#"{app="drill"}"#, 0, now + 1, usize::MAX).expect("admin query");
    assert_eq!(all.len() as u64, total_accepted, "no loss, no duplication across crashes");

    // ── Invariant 4: fair scheduling under a query flood ──────────────
    // Hot-reload lifts the noisy query cap (ledger survives), then the
    // noisy tenant floods the frontend with wide queries from more threads
    // than the scheduler has slots while a calm tenant runs one narrow
    // query.
    c.tenants().set_override(
        &noisy,
        TenantLimits { ingest_rate_per_sec: 50, ingest_burst: 100, ..TenantLimits::default() },
    );
    // The fairness probe uses a tenant that has never queried, so its
    // peak wait reflects only this phase.
    let calm = tenant(7);
    let grants_before = c.frontend().scheduler_stats().grants;
    std::thread::scope(|scope| {
        for i in 0..NOISY_QUERIERS {
            let (c, noisy) = (&c, noisy.clone());
            scope.spawn(move || {
                let q = format!(r#"count_over_time({{app="drill"}} |= "{i}" [1s])"#);
                tenant_range(c, &noisy, &q, 0, 48 * NANOS_PER_SEC, NANOS_PER_SEC)
                    .expect("noisy range query");
            });
        }
        // Let the flood start draining, then run the calm query.
        while c.frontend().scheduler_stats().grants < grants_before + SCHED_POOL {
            std::thread::yield_now();
        }
        let probe = r#"count_over_time({app="drill"} |= "7" [1s])"#;
        tenant_range(&c, &calm, probe, 0, 8 * NANOS_PER_SEC, NANOS_PER_SEC)
            .expect("calm range query");
    });
    let calm_wait = c.frontend().max_wait_rounds(&calm);
    let noisy_wait = c.frontend().max_wait_rounds(&noisy);
    assert!(
        calm_wait <= 2 * SCHED_POOL,
        "calm tenant waited {calm_wait} grant rounds behind the flood"
    );
    assert!(
        noisy_wait > SCHED_POOL,
        "noisy flood should queue on itself beyond the pool ({noisy_wait})"
    );

    // ── Invariant 5: per-tenant retention never leaks ─────────────────
    let keep_t5 = accepted.get(&5).copied().unwrap_or(0);
    c.flush();
    clock.advance(3600 * NANOS_PER_SEC);
    let (chunks_dropped, streams_dropped) = c.enforce_retention();
    assert!(streams_dropped >= 10, "short-retention tenants should age out");
    let now = clock.now();
    for rank in 100..110 {
        let left = tenant_logs(&c, &tenant(rank), r#"{app="drill"}"#, 0, now, usize::MAX)
            .expect("scoped query")
            .len();
        assert_eq!(left, 0, "t{rank:04} (30s retention) must be empty after 1h");
    }
    let t5_left = tenant_logs(&c, &tenant(5), r#"{app="drill"}"#, 0, now, usize::MAX)
        .expect("scoped query")
        .len() as u64;
    assert_eq!(t5_left, keep_t5, "default-retention tenant must keep every record");

    // ── Invariant 6: self-telemetry ledger agrees with the cluster ────
    let stack = MonitoringStack::new(StackConfig::default());
    let acme = TenantId::new("acme");
    let beta = TenantId::new("beta");
    stack.omni.loki().tenants().set_override(
        &acme,
        TenantLimits { ingest_rate_per_sec: 5, ingest_burst: 5, ..TenantLimits::default() },
    );
    let base = stack.clock.now();
    for i in 0..20i64 {
        let ls = LabelSet::from_pairs([("app", "billing")]);
        let _ = tenant_push(stack.omni.loki(), &acme, ls.clone(), base + i, format!("acme {i}"));
        tenant_push(stack.omni.loki(), &beta, ls, base + i, format!("beta {i}")).expect("beta");
    }
    let mut scraped: HashMap<(String, String), f64> = HashMap::new();
    for fam in stack.registry().gather() {
        if fam.name.starts_with("omni_tenant_") {
            for s in &fam.samples {
                let t = s.labels.get("tenant").expect("tenant label").to_string();
                scraped.insert((fam.name.clone(), t), s.value);
            }
        }
    }
    let v = |name: &str, t: &str| {
        scraped.get(&(name.to_string(), t.to_string())).copied().unwrap_or_else(|| {
            panic!("self-telemetry missing {name}{{tenant={t}}}");
        })
    };
    for t in ["acme", "beta"] {
        let (o, a, r) = (
            v("omni_tenant_ingest_offered_total", t),
            v("omni_tenant_ingest_accepted_total", t),
            v("omni_tenant_ingest_rejected_total", t),
        );
        assert_eq!(o, a + r, "scraped ledger out of balance for {t}");
        assert_eq!(o, 20.0, "each tenant offered 20 records");
    }
    assert_eq!(v("omni_tenant_ingest_rejected_total", "beta"), 0.0);
    assert!(v("omni_tenant_ingest_rejected_total", "acme") >= 10.0, "acme burst must shed");

    // ── Report ────────────────────────────────────────────────────────
    println!("tenants tracked .............. {}", snaps.len());
    println!("records offered .............. {}", offered.values().sum::<u64>());
    println!("records accepted ............. {total_accepted}");
    println!("noisy ingest shed ............ {}", noisy_snap.ingest_rejected);
    println!("noisy queries shed ........... {}", noisy_snap.queries_rejected);
    println!("calm peak queue wait ......... {calm_wait} grant rounds");
    println!("noisy peak queue wait ........ {noisy_wait} grant rounds");
    println!("retention: chunks dropped .... {chunks_dropped}");
    println!("retention: streams retired ... {streams_dropped}");
    println!("\ntenant chaos drill: all isolation invariants hold");
}
