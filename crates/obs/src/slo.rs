//! Service-level objectives for the pipeline itself, with multi-window
//! burn-rate evaluation — the meta-monitoring layer: "is the monitoring
//! stack meeting its own latency and delivery objectives?"
//!
//! The math is the standard SRE-workbook shape. An SLO promises a
//! fraction `objective` of events are *good* (fast enough, delivered).
//! The **error budget** is `1 - objective`. The **burn rate** over a
//! window is `bad_fraction / (1 - objective)`: burn 1.0 spends exactly
//! the budget over the SLO period, burn 14 exhausts a 30-day budget in
//! ~2 days. Alerting on a single window either pages too slowly (long
//! window) or too noisily (short window), so each SLO is evaluated over
//! **two** windows — a short `fast` window with a high burn threshold
//! (catches cliffs) and a long `slow` window with a low threshold
//! (catches smoulders) — and the shipped rules alert on each
//! independently.
//!
//! Everything runs on the virtual clock: [`SloTracker`] keeps a pruned
//! ring of `(timestamp, good, total)` events, and burn rates are exact
//! window sums, not decayed estimates, so the same seed produces the
//! same burn rates and the same meta-alerts.

use omni_model::Timestamp;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Window label for the short, high-threshold burn window.
pub const FAST_WINDOW: &str = "fast";
/// Window label for the long, low-threshold burn window.
pub const SLOW_WINDOW: &str = "slow";

/// The definition of one service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Slo {
    /// Identifier, used as the `slo` label value (e.g. `"query_latency"`).
    pub name: String,
    /// Target good fraction in `(0, 1)`, e.g. `0.99`.
    pub objective: f64,
    /// The `fast` burn window in virtual nanoseconds.
    pub fast_window_ns: i64,
    /// The `slow` burn window in virtual nanoseconds.
    pub slow_window_ns: i64,
}

/// Point-in-time evaluation of one SLO, ready to export as gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSnapshot {
    /// The SLO's name.
    pub name: String,
    /// The promised good fraction.
    pub objective: f64,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// Fraction of the slow-window error budget still unspent, clamped
    /// to `[0, 1]`.
    pub budget_remaining: f64,
    /// Events observed in the slow window.
    pub slow_total: u64,
}

/// Burn-rate bookkeeping for one SLO: a pruned ring of good/total
/// counts on the virtual clock.
#[derive(Debug)]
pub struct SloTracker {
    spec: Slo,
    /// `(ts, good, total)`, oldest first; pruned past the slow window.
    events: VecDeque<(Timestamp, u64, u64)>,
}

impl SloTracker {
    /// Start tracking an SLO. `objective` must sit strictly inside
    /// `(0, 1)` and the fast window must not exceed the slow one.
    pub fn new(spec: Slo) -> Self {
        assert!(spec.objective > 0.0 && spec.objective < 1.0, "SLO objective must be in (0, 1)");
        assert!(
            0 < spec.fast_window_ns && spec.fast_window_ns <= spec.slow_window_ns,
            "SLO windows must satisfy 0 < fast <= slow"
        );
        Self { spec, events: VecDeque::new() }
    }

    /// The definition this tracker evaluates.
    pub fn spec(&self) -> &Slo {
        &self.spec
    }

    /// Record one event.
    pub fn record(&mut self, now: Timestamp, good: bool) {
        self.record_many(now, u64::from(good), 1);
    }

    /// Record a batch of events sharing one timestamp.
    pub fn record_many(&mut self, now: Timestamp, good: u64, total: u64) {
        debug_assert!(good <= total);
        if total == 0 {
            return;
        }
        // Same-timestamp merge keeps the ring small under bursty steps.
        if let Some(last) = self.events.back_mut() {
            if last.0 == now {
                last.1 += good;
                last.2 += total;
                self.prune(now);
                return;
            }
        }
        self.events.push_back((now, good, total));
        self.prune(now);
    }

    fn prune(&mut self, now: Timestamp) {
        let horizon = now.saturating_sub(self.spec.slow_window_ns);
        while self.events.front().is_some_and(|&(ts, ..)| ts <= horizon) {
            self.events.pop_front();
        }
    }

    fn window_counts(&self, now: Timestamp, window_ns: i64) -> (u64, u64) {
        let horizon = now.saturating_sub(window_ns);
        let mut bad = 0;
        let mut total = 0;
        for &(ts, g, t) in self.events.iter().rev() {
            if ts <= horizon || ts > now {
                if ts <= horizon {
                    break;
                }
                continue;
            }
            bad += t - g;
            total += t;
        }
        (bad, total)
    }

    /// Burn rate over an arbitrary window ending at `now`: the bad
    /// fraction divided by the error budget. `0.0` when the window holds
    /// no events (no data is not a burn).
    pub fn burn_rate(&self, now: Timestamp, window_ns: i64) -> f64 {
        let (bad, total) = self.window_counts(now, window_ns);
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / (1.0 - self.spec.objective)
    }

    /// Evaluate both windows and the remaining budget at `now`.
    pub fn snapshot(&self, now: Timestamp) -> SloSnapshot {
        let (bad, total) = self.window_counts(now, self.spec.slow_window_ns);
        let budget_remaining = if total == 0 {
            1.0
        } else {
            let allowed = total as f64 * (1.0 - self.spec.objective);
            ((allowed - bad as f64) / allowed).clamp(0.0, 1.0)
        };
        SloSnapshot {
            name: self.spec.name.clone(),
            objective: self.spec.objective,
            fast_burn: self.burn_rate(now, self.spec.fast_window_ns),
            slow_burn: self.burn_rate(now, self.spec.slow_window_ns),
            budget_remaining,
            slow_total: total,
        }
    }
}

/// A shared board of SLO trackers — the handle `core::stack` feeds from
/// the pipeline and is read into `omni_slo_*` gauges whenever the registry is.
/// Cheap to clone; all clones share state.
#[derive(Clone, Default)]
pub struct SloBoard {
    inner: Arc<Mutex<Vec<SloTracker>>>,
}

impl SloBoard {
    /// An empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an SLO. Re-adding an existing name replaces its spec and
    /// resets its history.
    pub fn add(&self, spec: Slo) {
        let mut g = self.lock();
        if let Some(t) = g.iter_mut().find(|t| t.spec.name == spec.name) {
            *t = SloTracker::new(spec);
        } else {
            g.push(SloTracker::new(spec));
        }
    }

    /// Record one event against a named SLO; unknown names are ignored
    /// (the caller wired the board, a typo shows up in tests, not by
    /// poisoning production counters).
    pub fn record(&self, name: &str, now: Timestamp, good: bool) {
        if let Some(t) = self.lock().iter_mut().find(|t| t.spec.name == name) {
            t.record(now, good);
        }
    }

    /// Record a batch of same-timestamp events against a named SLO.
    pub fn record_many(&self, name: &str, now: Timestamp, good: u64, total: u64) {
        if let Some(t) = self.lock().iter_mut().find(|t| t.spec.name == name) {
            t.record_many(now, good, total);
        }
    }

    /// Evaluate every SLO at `now`, in registration order.
    pub fn snapshot(&self, now: Timestamp) -> Vec<SloSnapshot> {
        self.lock().iter().map(|t| t.snapshot(now)).collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SloTracker>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_model::NANOS_PER_SEC;

    const MIN: i64 = 60 * NANOS_PER_SEC;

    fn spec() -> Slo {
        Slo {
            name: "query_latency".into(),
            objective: 0.9, // budget = 10%
            fast_window_ns: 5 * MIN,
            slow_window_ns: 60 * MIN,
        }
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let mut t = SloTracker::new(spec());
        // 8 good + 2 bad in the window: bad fraction 0.2, budget 0.1 → burn 2.
        for i in 0..10 {
            t.record(i * MIN / 10, i >= 2);
        }
        let now = MIN;
        assert!((t.burn_rate(now, 5 * MIN) - 2.0).abs() < 1e-9);
        let snap = t.snapshot(now);
        assert!((snap.fast_burn - 2.0).abs() < 1e-9);
        assert!((snap.slow_burn - 2.0).abs() < 1e-9);
        // 2 bad of 1 allowed (10 * 0.1): budget fully spent.
        assert_eq!(snap.budget_remaining, 0.0);
        assert_eq!(snap.slow_total, 10);
    }

    #[test]
    fn windows_see_different_history() {
        let mut t = SloTracker::new(spec());
        // Old badness outside the fast window but inside the slow one.
        for i in 0..10 {
            t.record(i, false);
        }
        let now = 30 * MIN;
        for i in 0..10 {
            t.record(now - 10 + i, true);
        }
        // Fast window: only the recent good events → burn 0.
        assert_eq!(t.burn_rate(now, 5 * MIN), 0.0);
        // Slow window: 10 bad of 20 → bad fraction 0.5 → burn 5.
        assert!((t.burn_rate(now, 60 * MIN) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_does_not_burn() {
        let t = SloTracker::new(spec());
        assert_eq!(t.burn_rate(0, 5 * MIN), 0.0);
        let snap = t.snapshot(0);
        assert_eq!((snap.fast_burn, snap.slow_burn), (0.0, 0.0));
        assert_eq!(snap.budget_remaining, 1.0);
    }

    #[test]
    fn history_is_pruned_past_the_slow_window() {
        let mut t = SloTracker::new(spec());
        for i in 0..1000 {
            t.record(i * MIN, false);
        }
        // Only the slow window (60 min) of events can remain buffered.
        assert!(t.events.len() <= 61, "ring grew to {}", t.events.len());
        // All-bad slow window: burn = 1/0.1 = 10.
        let now = 999 * MIN;
        assert!((t.burn_rate(now, 60 * MIN) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn same_timestamp_records_merge() {
        let mut t = SloTracker::new(spec());
        for _ in 0..100 {
            t.record(5, true);
        }
        t.record_many(5, 0, 10);
        assert_eq!(t.events.len(), 1);
        let (bad, total) = t.window_counts(6, 5 * MIN);
        assert_eq!((bad, total), (10, 110));
    }

    #[test]
    fn board_routes_by_name_and_snapshots_in_order() {
        let board = SloBoard::new();
        board.add(spec());
        board.add(Slo { name: "delivery".into(), ..spec() });
        board.record("query_latency", 0, false);
        board.record("delivery", 0, true);
        board.record("nonexistent", 0, false); // ignored
        let snaps = board.snapshot(1);
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].name, "query_latency");
        assert!(snaps[0].fast_burn > 0.0);
        assert_eq!(snaps[1].name, "delivery");
        assert_eq!(snaps[1].fast_burn, 0.0);
        // Re-adding resets history.
        board.add(spec());
        assert_eq!(board.snapshot(1)[0].fast_burn, 0.0);
    }

    #[test]
    #[should_panic(expected = "objective")]
    fn rejects_objective_of_one() {
        let _ = SloTracker::new(Slo { objective: 1.0, ..spec() });
    }
}
