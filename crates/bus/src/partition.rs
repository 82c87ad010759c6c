//! A single partition: an append-only, offset-addressed message log.

use bytes::Bytes;
use omni_model::Timestamp;

use omni_model::lockwitness::{classes, OrderedRwLock};
use std::collections::VecDeque;

/// One record in a partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Partition this message lives in.
    pub partition: usize,
    /// Offset within the partition (monotone, never reused).
    pub offset: u64,
    /// Broker-assigned timestamp (nanoseconds).
    pub ts: Timestamp,
    /// Optional routing key.
    pub key: Option<String>,
    /// Opaque payload.
    pub payload: Bytes,
    /// Kafka-style record headers: small key/value metadata that rides the
    /// message without touching the payload (e.g. the `omni-trace-id`
    /// propagation header).
    pub headers: Vec<(String, String)>,
}

impl Message {
    /// Look up a header value by key (first match wins).
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

struct Log {
    /// Retained messages; front is oldest.
    messages: VecDeque<Message>,
    /// Offset of the *next* message to be appended.
    next_offset: u64,
    /// Total payload bytes currently retained.
    bytes: usize,
}

/// An append-only log with truncation from the front.
pub struct Partition {
    log: OrderedRwLock<Log>,
}

impl Default for Partition {
    fn default() -> Self {
        Self::new()
    }
}

impl Partition {
    /// Empty partition starting at offset 0.
    pub fn new() -> Self {
        Self {
            log: OrderedRwLock::new(
                &classes::BUS_PARTITION_LOG,
                Log { messages: VecDeque::new(), next_offset: 0, bytes: 0 },
            ),
        }
    }

    /// Append a message (its `offset` field is overwritten with the
    /// assigned offset). Returns `(offset, payload_bytes)`.
    pub fn append(&self, mut msg: Message) -> (u64, usize) {
        let mut log = self.log.write();
        let offset = log.next_offset;
        msg.offset = offset;
        log.next_offset += 1;
        let payload_bytes = msg.payload.len();
        log.bytes += payload_bytes;
        log.messages.push_back(msg);
        (offset, payload_bytes)
    }

    /// Read up to `max` messages with `offset >= from`. Offsets below the
    /// retention floor are silently skipped (Kafka's auto-reset-to-earliest
    /// behaviour).
    pub fn read_from(&self, from: u64, max: usize) -> Vec<Message> {
        let log = self.log.read();
        let base = log.messages.front().map(|m| m.offset).unwrap_or(log.next_offset);
        let skip = from.saturating_sub(base) as usize;
        log.messages.iter().skip(skip).take(max).cloned().collect()
    }

    /// Offset the next append will get.
    pub fn log_end(&self) -> u64 {
        self.log.read().next_offset
    }

    /// Retained message count.
    pub fn len(&self) -> usize {
        self.log.read().messages.len()
    }

    /// Whether the partition holds no retained messages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop retained messages with `ts < horizon` and `offset < floor`,
    /// oldest first. Returns how many were dropped. Offsets are never
    /// reused.
    pub fn truncate_before(&self, horizon: Timestamp, floor: u64) -> usize {
        let mut log = self.log.write();
        let mut dropped = 0;
        while log.messages.front().is_some_and(|m| m.ts < horizon && m.offset < floor) {
            let Some(m) = log.messages.pop_front() else { break };
            log.bytes -= m.payload.len();
            dropped += 1;
        }
        dropped
    }

    /// Drop oldest messages until retained payload bytes fit `cap`.
    pub fn truncate_to_bytes(&self, cap: usize) -> usize {
        let mut log = self.log.write();
        let mut dropped = 0;
        while log.bytes > cap {
            let Some(m) = log.messages.pop_front() else { break };
            log.bytes -= m.payload.len();
            dropped += 1;
        }
        dropped
    }

    /// Currently retained payload bytes.
    pub fn retained_bytes(&self) -> usize {
        self.log.read().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(payload: &str, ts: Timestamp) -> Message {
        Message {
            partition: 0,
            offset: 0,
            ts,
            key: None,
            payload: Bytes::from(payload.to_string()),
            headers: Vec::new(),
        }
    }

    #[test]
    fn header_lookup() {
        let mut m = msg("x", 0);
        m.headers.push(("omni-trace-id".into(), "00000000000000ff".into()));
        assert_eq!(m.header("omni-trace-id"), Some("00000000000000ff"));
        assert_eq!(m.header("absent"), None);
    }

    #[test]
    fn append_assigns_monotone_offsets() {
        let p = Partition::new();
        assert_eq!(p.append(msg("a", 1)).0, 0);
        assert_eq!(p.append(msg("b", 2)).0, 1);
        assert_eq!(p.log_end(), 2);
    }

    #[test]
    fn read_from_mid_log() {
        let p = Partition::new();
        for i in 0..10 {
            p.append(msg(&i.to_string(), i));
        }
        let out = p.read_from(7, 10);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].offset, 7);
    }

    #[test]
    fn read_below_retention_floor_resets_to_earliest() {
        let p = Partition::new();
        for i in 0..10 {
            p.append(msg("x", i));
        }
        p.truncate_before(5, u64::MAX);
        let out = p.read_from(0, 100);
        assert_eq!(out[0].offset, 5);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn byte_truncation_tracks_sizes() {
        let p = Partition::new();
        for _ in 0..5 {
            p.append(msg("abcd", 0));
        }
        assert_eq!(p.retained_bytes(), 20);
        let dropped = p.truncate_to_bytes(9);
        assert_eq!(dropped, 3);
        assert_eq!(p.retained_bytes(), 8);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn read_past_end_is_empty() {
        let p = Partition::new();
        p.append(msg("a", 1));
        assert!(p.read_from(5, 10).is_empty());
    }
}
