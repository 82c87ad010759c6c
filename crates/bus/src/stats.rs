//! Per-topic metering with relaxed atomic counters (hot path).

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for one topic.
#[derive(Debug, Default)]
pub struct TopicStats {
    messages_in: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    produce_retries: AtomicU64,
    unavailable_windows: AtomicU64,
    /// `window id + 1` of the last brownout that touched this topic, so a
    /// window is counted once no matter how many operations it rejects.
    last_window: AtomicU64,
}

/// A point-in-time copy of [`TopicStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopicStatsSnapshot {
    /// Messages produced into the topic.
    pub messages_in: u64,
    /// Payload bytes produced.
    pub bytes_in: u64,
    /// Payload bytes served to fetchers.
    pub bytes_out: u64,
    /// Produce attempts rejected by a brownout (each one is a retry the
    /// producer owes).
    pub produce_retries: u64,
    /// Distinct brownout windows during which this topic rejected at least
    /// one operation.
    pub unavailable_windows: u64,
    /// Worst consumer-group backlog on the topic: high-water mark minus
    /// committed cursor, summed over partitions, maximised over groups.
    /// Filled in by [`crate::Broker::stats`] (the counters here cannot see
    /// the partitions); 0 straight from [`TopicStats::snapshot`].
    pub consumer_lag: u64,
}

impl TopicStats {
    pub(crate) fn record_in(&self, bytes: usize) {
        self.messages_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_out(&self, bytes: usize) {
        self.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_produce_retry(&self) {
        self.produce_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Note that brownout window `id` rejected an operation on this topic,
    /// counting each window at most once.
    pub(crate) fn record_unavailable(&self, window_id: u64) {
        if self.last_window.swap(window_id + 1, Ordering::Relaxed) != window_id + 1 {
            self.unavailable_windows.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copy the counters.
    pub fn snapshot(&self) -> TopicStatsSnapshot {
        TopicStatsSnapshot {
            messages_in: self.messages_in.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            produce_retries: self.produce_retries.load(Ordering::Relaxed),
            unavailable_windows: self.unavailable_windows.load(Ordering::Relaxed),
            consumer_lag: 0,
        }
    }
}
