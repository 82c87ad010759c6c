//! Weighted fair scheduling of query splits across tenants.
//!
//! The query frontend runs a query's splits one at a time on the calling
//! thread, each behind this gate; the only fan-out below it is the
//! engine's scan over shards. The gate bounds how many splits execute at
//! once across every querying thread (the *pool*) and decides whose split
//! goes next when more threads want a slot than the pool has. Without
//! it, a noisy tenant querying from many threads at once monopolises the
//! pool and every other tenant's queries queue behind it.
//! [`FairScheduler`] fixes that with classic weighted fair queueing over
//! virtual time: each tenant's next split is stamped with a virtual
//! finish tag `start + SCALE / weight` (where `start` is the later of the
//! tenant's last tag and the global virtual time), and grants always go
//! to the smallest tag. A tenant with a deep backlog accumulates
//! far-future tags, so a freshly arriving tenant — whose tag starts at
//! the global virtual time — jumps ahead of the backlog and waits only
//! O(pool) grants, never O(backlog).
//!
//! Waits are measured two ways: in *grant rounds* (how many other
//! splits were granted between enqueue and grant — the quantity the
//! chaos drill bounds) and in **virtual nanoseconds** on the WFQ
//! virtual-time axis (how far the global virtual time advanced while the
//! ticket queued). The wall clock is useless here — the SimClock is
//! frozen for the whole of a query — so the virtual-time axis is the only
//! honest measure of "how long did this split sit behind other querying
//! threads' work". A query whose thread is the only one querying never
//! queues: its waits are zero.

use omni_model::lockwitness::{classes, OrderedMutex, OrderedMutexGuard};
use omni_model::TenantId;
use std::collections::HashMap;
use std::sync::Condvar;

/// Virtual-time cost scale: a weight-1 split advances its tenant's
/// virtual time by this much, a weight-2 split by half, and so on.
/// One unit is declared to be one *virtual nanosecond*, so a weight-1
/// split models ~1.05ms of scheduler work and a split queued behind a
/// 100-deep weight-1 backlog reports ~105ms of virtual queue wait.
const WEIGHT_SCALE: u64 = 1 << 20;

/// Cap on buffered per-grant wait samples between drains; beyond it new
/// samples are dropped (the peak map keeps tracking) so an undrained
/// scheduler cannot grow without bound.
const WAIT_BUFFER_CAP: usize = 1 << 16;

/// Max-wait (in grant rounds) observed per tenant, plus total grants.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Total splits granted since construction.
    pub grants: u64,
    /// Peak grant-round wait per tenant, sorted by tenant id.
    pub max_wait_rounds: Vec<(TenantId, u64)>,
}

struct Ticket {
    tenant: TenantId,
    finish: u64,
    seq: u64,
    enqueue_round: u64,
    /// Global virtual time when the ticket entered the queue.
    enqueue_vtime: u64,
}

struct Inner {
    /// Last assigned virtual finish tag per tenant.
    vtime: HashMap<TenantId, u64>,
    /// Global virtual time: the largest finish tag ever granted.
    global: u64,
    /// Tickets waiting for a grant.
    queue: Vec<Ticket>,
    /// Splits currently executing.
    active: usize,
    /// Monotonic ticket number (FIFO tie-break).
    next_seq: u64,
    /// Grants handed out so far.
    rounds: u64,
    max_wait: HashMap<TenantId, u64>,
    /// Per-grant `(tenant, virtual-ns wait)` samples since the last
    /// [`FairScheduler::take_waits`] drain, capped at [`WAIT_BUFFER_CAP`].
    waits: Vec<(TenantId, u64)>,
}

/// A weighted-fair gate bounding how many splits execute at once.
pub struct FairScheduler {
    pool: usize,
    inner: OrderedMutex<Inner>,
    cv: Condvar,
}

impl FairScheduler {
    /// A scheduler admitting at most `pool` concurrent splits.
    pub fn new(pool: usize) -> Self {
        Self {
            pool: pool.max(1),
            inner: OrderedMutex::new(
                &classes::LOKI_SCHEDULER_INNER,
                Inner {
                    vtime: HashMap::new(),
                    global: 0,
                    queue: Vec::new(),
                    active: 0,
                    next_seq: 0,
                    rounds: 0,
                    max_wait: HashMap::new(),
                    waits: Vec::new(),
                },
            ),
            cv: Condvar::new(),
        }
    }

    /// Lock the shared state. Poison recovery (a panicking split must not
    /// wedge every other tenant's queries) and the lock-order witness both
    /// live in the [`OrderedMutex`] wrapper.
    fn lock(&self) -> OrderedMutexGuard<'_, Inner> {
        self.inner.lock()
    }

    /// Run `f` once the scheduler grants this tenant a slot, and return
    /// its result with how long the split queued, in virtual nanoseconds
    /// on the WFQ virtual-time axis. Blocks the calling thread until
    /// granted; fairness comes from grant order, not from preemption.
    /// The slot is released when `f` returns or unwinds.
    pub fn run_timed<T>(&self, tenant: &TenantId, weight: u32, f: impl FnOnce() -> T) -> (T, u64) {
        let wait_vns = self.acquire(tenant, weight);
        let _slot = Slot(self);
        (f(), wait_vns)
    }

    /// Stamp a ticket for `tenant` and block until it is granted a slot.
    fn acquire(&self, tenant: &TenantId, weight: u32) -> u64 {
        let mut g = self.lock();
        let start = g.vtime.get(tenant).copied().unwrap_or(0).max(g.global);
        let cost = (WEIGHT_SCALE / u64::from(weight.max(1))).max(1);
        let finish = start.saturating_add(cost);
        g.vtime.insert(tenant.clone(), finish);
        let seq = g.next_seq;
        g.next_seq += 1;
        let enqueue_round = g.rounds;
        let enqueue_vtime = g.global;
        g.queue.push(Ticket { tenant: tenant.clone(), finish, seq, enqueue_round, enqueue_vtime });
        loop {
            if g.active < self.pool {
                let best = g.queue.iter().map(|t| (t.finish, t.seq)).min();
                if let Some((_, best_seq)) = best {
                    if best_seq == seq {
                        let pos =
                            g.queue.iter().position(|t| t.seq == seq).expect("own ticket present"); // lint:allow(no-unwrap)
                        let ticket = g.queue.swap_remove(pos);
                        let wait = g.rounds - ticket.enqueue_round;
                        // How far the global virtual time moved while the
                        // ticket sat in the queue — measured *before* this
                        // grant advances it.
                        let wait_vns = g.global.saturating_sub(ticket.enqueue_vtime);
                        let peak = g.max_wait.entry(ticket.tenant.clone()).or_insert(0);
                        *peak = (*peak).max(wait);
                        if g.waits.len() < WAIT_BUFFER_CAP {
                            g.waits.push((ticket.tenant.clone(), wait_vns));
                        }
                        g.rounds += 1;
                        g.global = g.global.max(ticket.finish);
                        g.active += 1;
                        drop(g);
                        // Another waiter may also be grantable now.
                        self.cv.notify_all();
                        return wait_vns;
                    }
                }
            }
            g = g.wait(&self.cv);
        }
    }

    /// Drain the per-grant `(tenant, virtual-ns wait)` samples collected
    /// since the last drain — the feed for the per-tenant queue-wait
    /// histogram in the stack's self-telemetry.
    pub fn take_waits(&self) -> Vec<(TenantId, u64)> {
        std::mem::take(&mut self.lock().waits)
    }

    /// Observed grants and per-tenant peak waits.
    pub fn stats(&self) -> SchedulerStats {
        let g = self.lock();
        let mut waits: Vec<(TenantId, u64)> =
            g.max_wait.iter().map(|(t, w)| (t.clone(), *w)).collect();
        waits.sort_by(|a, b| a.0.cmp(&b.0));
        SchedulerStats { grants: g.rounds, max_wait_rounds: waits }
    }

    /// Peak grant-round wait observed for one tenant (0 if never queued).
    pub fn max_wait_rounds(&self, tenant: &TenantId) -> u64 {
        self.lock().max_wait.get(tenant).copied().unwrap_or(0)
    }
}

/// A granted slot, released on drop — when the split returns or unwinds —
/// so a panicking split cannot leak pool capacity.
struct Slot<'a>(&'a FairScheduler);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.lock().active -= 1;
        self.0.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn single_tenant_runs_everything() {
        let s = FairScheduler::new(2);
        let t = TenantId::new("a");
        let hits = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| s.run_timed(&t, 1, || hits.fetch_add(1, Ordering::Relaxed)));
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        assert_eq!(s.stats().grants, 16);
    }

    #[test]
    fn late_arrival_jumps_a_deep_backlog() {
        // Pool of 1, a noisy tenant with a deep backlog enqueued first, one
        // well-behaved split arriving after. The newcomer's virtual tag
        // starts at the global virtual time, so it must be granted long
        // before the backlog drains.
        let s = Arc::new(FairScheduler::new(1));
        let noisy = TenantId::new("noisy");
        let good = TenantId::new("good");
        const BACKLOG: u64 = 64;
        std::thread::scope(|scope| {
            // Occupy the pool so the backlog queues deterministically.
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            {
                let (s, gate) = (s.clone(), gate.clone());
                let noisy = noisy.clone();
                scope.spawn(move || {
                    s.run_timed(&noisy, 1, || {
                        let mut open = gate.0.lock().unwrap();
                        while !*open {
                            open = gate.1.wait(open).unwrap();
                        }
                    })
                });
            }
            // Wait until the holder is running, then pile up the backlog.
            while s.stats().grants < 1 {
                std::thread::yield_now();
            }
            for _ in 0..BACKLOG {
                let (s, noisy) = (s.clone(), noisy.clone());
                scope.spawn(move || s.run_timed(&noisy, 1, || ()));
            }
            while s.lock().queue.len() < BACKLOG as usize {
                std::thread::yield_now();
            }
            {
                let (s, good) = (s.clone(), good.clone());
                scope.spawn(move || s.run_timed(&good, 1, || ()));
            }
            while s.lock().queue.len() < BACKLOG as usize + 1 {
                std::thread::yield_now();
            }
            // Release the holder; everything drains.
            *gate.0.lock().unwrap() = true;
            gate.1.notify_all();
        });
        let good_wait = s.max_wait_rounds(&good);
        let noisy_wait = s.max_wait_rounds(&noisy);
        assert!(
            good_wait <= 3,
            "well-behaved tenant waited {good_wait} rounds behind a {BACKLOG}-deep backlog"
        );
        assert!(noisy_wait >= BACKLOG / 2, "noisy backlog should queue on itself");
    }

    #[test]
    fn queue_waits_measured_on_virtual_time_axis() {
        let s = Arc::new(FairScheduler::new(1));
        let a = TenantId::new("a");
        let b = TenantId::new("b");
        std::thread::scope(|scope| {
            // Hold the pool so everything else queues.
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            {
                let (s, gate, a) = (s.clone(), gate.clone(), a.clone());
                scope.spawn(move || {
                    s.run_timed(&a, 1, || {
                        let mut open = gate.0.lock().unwrap();
                        while !*open {
                            open = gate.1.wait(open).unwrap();
                        }
                    })
                });
            }
            while s.stats().grants < 1 {
                std::thread::yield_now();
            }
            // Queue eight of `a`, then `b` once all eight are queued:
            // `b`'s tag ties `a`'s first and loses on sequence, so its
            // wait does not depend on which thread enqueued first.
            for _ in 0..8 {
                let (s, a) = (s.clone(), a.clone());
                scope.spawn(move || s.run_timed(&a, 1, || ()));
            }
            while s.lock().queue.len() < 8 {
                std::thread::yield_now();
            }
            {
                let (s, b) = (s.clone(), b.clone());
                scope.spawn(move || s.run_timed(&b, 1, || ()));
            }
            while s.lock().queue.len() < 9 {
                std::thread::yield_now();
            }
            *gate.0.lock().unwrap() = true;
            gate.1.notify_all();
        });
        let waits = s.take_waits();
        assert_eq!(waits.len(), 10, "one wait sample per grant");
        // The first grant saw an empty queue: zero virtual wait.
        assert!(waits.iter().any(|(_, w)| *w == 0));
        // Backlogged splits watched the global virtual time advance past
        // them; a weight-1 grant moves it WEIGHT_SCALE units.
        let a_max = waits.iter().filter(|(t, _)| *t == a).map(|(_, w)| *w).max().unwrap();
        assert!(a_max >= WEIGHT_SCALE, "deep backlog must accrue virtual wait, got {a_max}");
        assert!(waits.iter().any(|(t, w)| *t == b && *w > 0));
        // Drained: a second take sees nothing.
        assert!(s.take_waits().is_empty());
    }

    #[test]
    fn weight_divides_virtual_cost() {
        let s = FairScheduler::new(1);
        let heavy = TenantId::new("heavy");
        // Two enqueues at weight 2 advance virtual time as far as one at
        // weight 1 would.
        s.run_timed(&heavy, 2, || ());
        s.run_timed(&heavy, 2, || ());
        let g = s.lock();
        assert_eq!(g.vtime.get(&heavy).copied(), Some(WEIGHT_SCALE));
    }

    #[test]
    fn a_panicking_split_releases_its_slot() {
        // Regression: the slot used to be released only after `f`
        // returned, so a panicking split leaked it, and once the pool was
        // used up every later query blocked for ever awaiting a grant.
        let s = FairScheduler::new(1);
        let t = TenantId::new("a");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run_timed(&t, 1, || panic!("split scan failed"))
        }));
        assert!(unwound.is_err());
        assert_eq!(s.lock().active, 0, "the panicking split's slot must be released");
        assert_eq!(s.run_timed(&t, 1, || 7), (7, 0), "the pool of one still admits a split");
    }
}
