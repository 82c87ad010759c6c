//! Runtime lock-order witness: rank-monotone acquisition checking.
//!
//! The workspace declares one global lock hierarchy — the
//! [`LOCK_ORDER`](classes::LOCK_ORDER)
//! table below, documented in DESIGN.md §14 — and every lock wrapped in
//! an [`OrderedMutex`] / [`OrderedRwLock`] carries a [`LockClass`] from
//! that table. In debug builds (`cfg(debug_assertions)`) each thread
//! keeps a stack of the classes it currently holds, and every
//! acquisition asserts that the incoming class ranks *strictly after*
//! everything already held. A violation panics immediately — before the
//! thread can block on the lock — and dumps the violating acquisition
//! stack, so an A→B / B→A deadlock shows up as a deterministic panic in
//! the first test or drill that exercises either order, instead of a
//! one-in-a-thousand hang under load.
//!
//! In release builds the checking layer compiles out entirely: the
//! wrappers are `repr`-identical to a `std::sync` lock plus one static
//! reference, `lock()`/`read()`/`write()` inline to the raw acquisition
//! (with poison recovery, matching the vendored `parking_lot` shim), and
//! the `c8_lint_runtime` bench pins the overhead at zero.
//!
//! The static half lives in `crates/lint` (layer 3): it derives the
//! may-hold-while-acquiring graph from source and cross-validates it
//! against the same table via [`LOCK_ORDER_TABLE`](classes::LOCK_ORDER_TABLE),
//! so the declared
//! hierarchy, the runtime witness and the static analysis cannot drift
//! apart silently.

use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};

#[cfg(debug_assertions)]
use std::cell::RefCell;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One named lock class: every lock instance wrapped by the witness
/// belongs to exactly one class, and rank order is acquisition order.
#[derive(Debug)]
pub struct LockClass {
    /// `crate.Type.field` of the lock site (matches the class names the
    /// static layer-3 analysis derives from source).
    pub name: &'static str,
    /// Position in [`LOCK_ORDER`](classes::LOCK_ORDER): a thread may
    /// only acquire a class
    /// ranked strictly greater than everything it already holds.
    pub rank: u16,
}

/// Declare the global lock order: each entry becomes a `pub const`
/// [`LockClass`] whose rank is its position, plus the `LOCK_ORDER`
/// array and the ident→name `LOCK_ORDER_TABLE` the lint layer uses to
/// cross-validate the static lock graph against this table.
macro_rules! declare_lock_order {
    ($($(#[$doc:meta])* $id:ident = $name:literal),+ $(,)?) => {
        declare_lock_order!(@consts (0u16) $($(#[$doc])* $id = $name,)+);
        /// Every declared class, outermost (rank 0) first.
        pub static LOCK_ORDER: &[&LockClass] = &[$(&$id),+];
        /// `(const ident, class name)` pairs, in rank order — consumed by
        /// the layer-3 lint to map wrapper constructor sites back to
        /// declared ranks.
        pub static LOCK_ORDER_TABLE: &[(&str, &str)] = &[$((stringify!($id), $name)),+];
    };
    (@consts ($rank:expr) ) => {};
    (@consts ($rank:expr) $(#[$doc:meta])* $id:ident = $name:literal, $($rest:tt)*) => {
        $(#[$doc])*
        pub const $id: LockClass = LockClass { name: $name, rank: $rank };
        declare_lock_order!(@consts ($rank + 1) $($rest)*);
    };
}

/// The declared lock hierarchy (see DESIGN.md §14 for the rationale
/// behind each band). Outermost first: a thread holding a class may
/// only acquire classes listed *below* it.
pub mod classes {
    use super::LockClass;

    declare_lock_order! {
        // ── bus band: broker registry before per-topic state ─────────
        /// Topic registry; held across per-partition truncation in
        /// `enforce_retention`.
        BUS_TOPICS = "bus.BrokerInner.topics",
        /// One topic's consumer-group cursors; held across partition
        /// log-end reads in `group_lag` / `stats` and across the
        /// per-partition truncation of `enforce_retention`.
        BUS_OFFSETS = "bus.Topic.offsets",
        /// Brownout fault windows.
        BUS_BROWNOUTS = "bus.BrokerInner.brownouts",
        /// One partition's message log (innermost bus lock).
        BUS_PARTITION_LOG = "bus.Partition.log",
        // ── loki frontend band: caches before the scheduler ──────────
        /// Split-result cache; nests the bytes-saved sink on the hit path.
        LOKI_FRONTEND_CACHE = "loki.FrontendShared.cache",
        /// Bytes-saved samples drained into self-telemetry.
        LOKI_FRONTEND_BYTES_SAVED = "loki.FrontendShared.bytes_saved",
        /// Completed-query records for the slow-query log.
        LOKI_FRONTEND_RECORDS = "loki.FrontendShared.records",
        /// WFQ scheduler state (condvar-paired; waiting releases it).
        LOKI_SCHEDULER_INNER = "loki.FairScheduler.inner",
        // ── loki tenant band: registry before per-tenant state ───────
        /// Tenant registry; held across per-tenant limit reads.
        LOKI_TENANT_STATES = "loki.TenantRegistry.states",
        /// One tenant's resolved limits.
        LOKI_TENANT_LIMITS = "loki.TenantState.limits",
        /// One tenant's ingest admission bucket.
        LOKI_TENANT_INGEST_BUCKET = "loki.TenantState.ingest_bucket",
        /// One tenant's query admission bucket.
        LOKI_TENANT_QUERY_BUCKET = "loki.TenantState.query_bucket",
        /// One tenant's active-stream fingerprints.
        LOKI_TENANT_STREAMS = "loki.TenantState.streams",
        // ── loki shard band: cluster routing before shard internals ──
        /// One shard slot's ingester handle; held (read) across appends
        /// and (write) across crash recovery, including WAL replay.
        LOKI_SHARD_INGESTER = "loki.ShardSlot.ingester",
        /// One shard's WAL segment list.
        LOKI_WAL_SEGMENTS = "loki.Wal.segments",
        /// One ingester's stream map + label index; held across seals
        /// and offloads.
        LOKI_INGESTER_STATE = "loki.Ingester.state",
        // ── loki store band ──────────────────────────────────────────
        /// Object map of one store tier (hot and cold are distinct
        /// instances, never nested).
        LOKI_STORE_OBJECTS = "loki.ObjectTier.objects",
        /// One tier's transient-failure policy (set on the cold tier).
        LOKI_COLD_POLICY = "loki.ObjectTier.policy",
    }
}

/// Counters the witness keeps while active (all zero in release builds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WitnessStats {
    /// Whether the witness layer is compiled in (debug builds only).
    pub enabled: bool,
    /// Ordered acquisitions checked since process start.
    pub acquisitions: u64,
    /// Deepest per-thread held-lock stack observed.
    pub peak_depth: usize,
}

#[cfg(debug_assertions)]
mod active {
    use super::*;

    thread_local! {
        /// Classes held by this thread, in acquisition order. Ranks are
        /// pushed strictly ascending, so the vector stays sorted and its
        /// last element is the maximum held rank even after out-of-order
        /// guard drops.
        static HELD: RefCell<Vec<&'static LockClass>> = const { RefCell::new(Vec::new()) };
    }

    static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
    static PEAK_DEPTH: AtomicUsize = AtomicUsize::new(0);

    pub(super) fn acquire(class: &'static LockClass) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(top) = held.last() {
                if class.rank <= top.rank {
                    let stack: String = held
                        .iter()
                        .map(|c| format!("    held:      {} (rank {})\n", c.name, c.rank))
                        .collect();
                    // The panic fires *before* the thread blocks on the
                    // lock, so a reversed-order deadlock surfaces as a
                    // deterministic failure, never a hang.
                    panic!(
                        "lock-order violation: acquiring {} (rank {}) while holding {} (rank {})\n\
                         acquisition stack (outermost first):\n{stack}    acquiring: {} (rank {})\n\
                         declared order: omni_model::lockwitness::LOCK_ORDER (DESIGN.md \u{a7}14)",
                        class.name, class.rank, top.name, top.rank, class.name, class.rank,
                    );
                }
            }
            held.push(class);
            let depth = held.len();
            PEAK_DEPTH.fetch_max(depth, Ordering::Relaxed);
        });
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn release(class: &'static LockClass) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|c| c.rank == class.rank) {
                held.remove(pos);
            }
        });
    }

    pub(super) fn stats() -> WitnessStats {
        WitnessStats {
            enabled: true,
            acquisitions: ACQUISITIONS.load(Ordering::Relaxed),
            peak_depth: PEAK_DEPTH.load(Ordering::Relaxed),
        }
    }

    pub(super) fn held_depth() -> usize {
        HELD.with(|h| h.borrow().len())
    }
}

/// Witness counters: acquisitions checked and the deepest held stack.
/// Always available; reports `enabled: false` and zeros in release
/// builds, where the checking layer does not exist.
pub fn stats() -> WitnessStats {
    #[cfg(debug_assertions)]
    {
        active::stats()
    }
    #[cfg(not(debug_assertions))]
    {
        WitnessStats::default()
    }
}

/// Number of witness-wrapped locks the current thread holds right now
/// (always 0 in release builds). Drills assert this returns to zero.
pub fn held_depth() -> usize {
    #[cfg(debug_assertions)]
    {
        active::held_depth()
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// RAII registration of a held class on the current thread's stack.
/// Checks rank-monotonicity on construction (debug builds); popping
/// happens on drop, after the wrapped guard itself releases.
struct HeldToken {
    #[cfg(debug_assertions)]
    class: &'static LockClass,
}

impl HeldToken {
    #[inline]
    fn acquire(class: &'static LockClass) -> Self {
        #[cfg(debug_assertions)]
        {
            active::acquire(class);
            HeldToken { class }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = class;
            HeldToken {}
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for HeldToken {
    fn drop(&mut self) {
        active::release(self.class);
    }
}

/// A mutex whose every acquisition is checked against the declared
/// [`LOCK_ORDER`](classes::LOCK_ORDER) in debug builds. Poisoning is
/// recovered (matching the vendored `parking_lot` shim), so the guard
/// API is identical to `parking_lot::Mutex`.
pub struct OrderedMutex<T: ?Sized> {
    class: &'static LockClass,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wrap `value` in a mutex belonging to `class`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        Self { class, inner: Mutex::new(value) }
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// The class this lock instance belongs to.
    pub fn class(&self) -> &'static LockClass {
        self.class
    }

    /// Acquire, asserting rank-monotonicity first (debug builds). The
    /// witness check runs *before* the blocking acquisition, so a
    /// reversed-order deadlock panics instead of hanging.
    #[inline]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let token = HeldToken::acquire(self.class);
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        OrderedMutexGuard { class: self.class, guard, token }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("OrderedMutex");
        s.field("class", &self.class.name);
        match self.inner.try_lock() {
            Ok(g) => s.field("data", &&*g).finish(),
            Err(_) => s.field("data", &"<locked>").finish(),
        }
    }
}

/// Guard of an [`OrderedMutex`]. Field order matters: the inner guard
/// releases the lock before the token pops the class off the witness
/// stack.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    class: &'static LockClass,
    guard: MutexGuard<'a, T>,
    token: HeldToken,
}

impl<'a, T> OrderedMutexGuard<'a, T> {
    /// Block on `cv`, releasing the lock (and its witness registration)
    /// for the duration of the wait and re-asserting rank order on
    /// wake-up — the `Condvar::wait` of the witness layer.
    pub fn wait(self, cv: &Condvar) -> Self {
        let Self { class, guard, token } = self;
        drop(token); // the wait releases the lock: pop it off the stack
        let guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        let token = HeldToken::acquire(class);
        Self { class, guard, token }
    }
}

impl<'a, T: ?Sized> std::ops::Deref for OrderedMutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<'a, T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// An RwLock under the same witness. Readers and writers both register
/// the class (rank order is about acquisition, not exclusivity), so a
/// same-thread read→read re-entry of one class — a latent writer-starved
/// deadlock — is flagged exactly like a double write-lock.
pub struct OrderedRwLock<T: ?Sized> {
    class: &'static LockClass,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wrap `value` in an rwlock belonging to `class`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        Self { class, inner: RwLock::new(value) }
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// The class this lock instance belongs to.
    pub fn class(&self) -> &'static LockClass {
        self.class
    }

    /// Shared acquisition, rank-checked like [`OrderedMutex::lock`].
    #[inline]
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        let token = HeldToken::acquire(self.class);
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        OrderedRwLockReadGuard { guard, _token: token }
    }

    /// Exclusive acquisition, rank-checked like [`OrderedMutex::lock`].
    #[inline]
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        let token = HeldToken::acquire(self.class);
        let guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        OrderedRwLockWriteGuard { guard, _token: token }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("OrderedRwLock");
        s.field("class", &self.class.name);
        match self.inner.try_read() {
            Ok(g) => s.field("data", &&*g).finish(),
            Err(_) => s.field("data", &"<locked>").finish(),
        }
    }
}

/// Shared guard of an [`OrderedRwLock`] (fields drop in declaration
/// order: lock released, then class popped).
pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockReadGuard<'a, T>,
    _token: HeldToken,
}

impl<'a, T: ?Sized> std::ops::Deref for OrderedRwLockReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive guard of an [`OrderedRwLock`] (fields drop in declaration
/// order: lock released, then class popped).
pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockWriteGuard<'a, T>,
    _token: HeldToken,
}

impl<'a, T: ?Sized> std::ops::Deref for OrderedRwLockWriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<'a, T: ?Sized> std::ops::DerefMut for OrderedRwLockWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Test-only classes with ranks far above the real table so tests
    // can run concurrently with code using the declared classes.
    static OUTER: LockClass = LockClass { name: "test.outer", rank: 1000 };
    static INNER: LockClass = LockClass { name: "test.inner", rank: 1001 };

    #[test]
    fn lock_order_table_is_strictly_ranked() {
        let order = classes::LOCK_ORDER;
        assert!(!order.is_empty());
        for (i, class) in order.iter().enumerate() {
            assert_eq!(class.rank as usize, i, "rank must equal table position");
        }
        assert_eq!(order.len(), classes::LOCK_ORDER_TABLE.len());
        for (class, (_, name)) in order.iter().zip(classes::LOCK_ORDER_TABLE) {
            assert_eq!(class.name, *name);
        }
        let mut names: Vec<&str> = order.iter().map(|c| c.name).collect();
        names.dedup();
        assert_eq!(names.len(), order.len(), "class names must be unique");
    }

    #[test]
    fn monotone_acquisition_passes() {
        let a = OrderedMutex::new(&OUTER, 1);
        let b = OrderedMutex::new(&INNER, 2);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
        drop(gb);
        drop(ga);
        assert_eq!(held_depth(), 0);
    }

    #[test]
    fn out_of_order_guard_drop_keeps_stack_consistent() {
        let a = OrderedMutex::new(&OUTER, 1);
        let b = OrderedMutex::new(&INNER, 2);
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // drop the outer guard first
        #[cfg(debug_assertions)]
        assert_eq!(held_depth(), 1);
        drop(gb);
        assert_eq!(held_depth(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn reversed_acquisition_panics_before_deadlock() {
        // The deliberate A→B / B→A deadlock order of the acceptance
        // criteria: with the witness active the reversed thread panics
        // on its *second* acquisition — before blocking — so the test
        // finishes instead of hanging.
        let err = std::panic::catch_unwind(|| {
            let a = OrderedMutex::new(&OUTER, 1);
            let b = OrderedMutex::new(&INNER, 2);
            let _gb = b.lock();
            let _ga = a.lock(); // rank 1000 after rank 1001: violation
        })
        .expect_err("reversed order must panic");
        let msg = err.downcast_ref::<String>().expect("panic carries a message");
        assert!(msg.contains("lock-order violation"), "got: {msg}");
        assert!(msg.contains("test.outer"), "names the acquiring class: {msg}");
        assert!(msg.contains("test.inner"), "dumps the held stack: {msg}");
        assert_eq!(held_depth(), 0, "unwinding must pop the held stack");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn double_lock_of_same_class_panics() {
        static SELF: LockClass = LockClass { name: "test.selflock", rank: 1010 };
        let a = OrderedRwLock::new(&SELF, 0);
        let err = std::panic::catch_unwind(|| {
            let _g1 = a.read();
            let _g2 = a.read(); // same class re-entry: writer-starved deadlock
        })
        .expect_err("same-class re-entry must panic");
        let msg = err.downcast_ref::<String>().expect("panic carries a message");
        assert!(msg.contains("test.selflock"), "got: {msg}");
    }

    #[test]
    fn condvar_wait_releases_and_reacquires_rank() {
        use std::sync::Arc;
        let pair = Arc::new((OrderedMutex::new(&OUTER, false), Condvar::new()));
        let waker = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*waker;
            let mut g = m.lock();
            *g = true;
            drop(g);
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while !*g {
            g = g.wait(cv);
        }
        // While re-held after the wait, acquiring an inner class is
        // still legal: the rank was re-registered.
        let inner = OrderedMutex::new(&INNER, 7);
        assert_eq!(*inner.lock(), 7);
        drop(g);
        h.join().expect("waker thread");
        assert_eq!(held_depth(), 0);
    }

    #[test]
    fn stats_report_matches_build_profile() {
        let s = stats();
        #[cfg(debug_assertions)]
        {
            let m = OrderedMutex::new(&OUTER, ());
            drop(m.lock());
            let after = stats();
            assert!(after.enabled);
            assert!(after.acquisitions > s.acquisitions);
            assert!(after.peak_depth >= 1);
        }
        #[cfg(not(debug_assertions))]
        {
            assert_eq!(s, WitnessStats::default());
        }
    }
}
