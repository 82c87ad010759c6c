//! The Slack receiver.
//!
//! "In Alertmanager, a Slack webhook is added in order for Alertmanager
//! to send alerts to Slack. Further, the Slack alert is enriched with
//! different types of fonts and bullet points." (§IV-A) —
//! [`format_slack_message`] reproduces the Figure 6 / Figure 9 message
//! shape; [`SlackSink`] stands in for the webhook endpoint and captures
//! what would have been posted.

use crate::{AlertStatus, Notification};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::Arc;

/// One message as posted to the Slack webhook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlackMessage {
    /// Channel the webhook posts to.
    pub channel: String,
    /// mrkdwn-formatted text.
    pub text: String,
}

/// Render a notification the way the paper's Slack alerts look: a bold
/// status/alert line followed by bullet points per detail (Figs 6, 9).
/// Every line is written straight into the message's one `String`.
pub fn format_slack_message(channel: &str, notification: &Notification) -> SlackMessage {
    let mut text = String::new();
    for (i, alert) in notification.alerts.iter().enumerate() {
        if i > 0 {
            text.push('\n');
        }
        let (emoji, status) = match alert.status {
            AlertStatus::Firing => (":rotating_light:", "FIRING"),
            AlertStatus::Resolved => (":white_check_mark:", "RESOLVED"),
        };
        // Writing into a `String` cannot fail.
        let _ = writeln!(text, "{emoji} *[{status}] {}*", alert.name());
        // Labels as bullet points, alertname first already in the header.
        for (k, v) in alert.labels.iter() {
            if k == "alertname" {
                continue;
            }
            let _ = writeln!(text, "• *{k}:* {v}");
        }
        for (k, v) in &alert.annotations {
            let _ = writeln!(text, "• _{k}_: {v}");
        }
    }
    SlackMessage { channel: channel.to_string(), text }
}

/// An in-process Slack webhook endpoint: collects posted messages so
/// tests and examples can assert on them.
#[derive(Debug, Clone, Default)]
pub struct SlackSink {
    channel: String,
    messages: Arc<Mutex<Vec<SlackMessage>>>,
}

impl SlackSink {
    /// Webhook posting into `channel`.
    pub fn new(channel: &str) -> Self {
        Self { channel: channel.to_string(), messages: Arc::new(Mutex::new(Vec::new())) }
    }

    /// Deliver a notification: format the message and store it, its
    /// text shrunk to its length (a retained message keeps no growth
    /// slack).
    pub fn deliver(&self, notification: &Notification) {
        let mut msg = format_slack_message(&self.channel, notification);
        msg.text.shrink_to_fit();
        self.messages.lock().push(msg);
    }

    /// All messages posted so far.
    pub fn messages(&self) -> Vec<SlackMessage> {
        self.messages.lock().clone()
    }

    /// Number of messages posted.
    pub fn len(&self) -> usize {
        self.messages.lock().len()
    }

    /// Whether nothing was posted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Alert;
    use omni_model::labels;

    fn leak_notification() -> Notification {
        Notification {
            receiver: "slack".into(),
            group_labels: labels!("alertname" => "PerlmutterCabinetLeak"),
            alerts: vec![Alert {
                labels: labels!(
                    "alertname" => "PerlmutterCabinetLeak",
                    "severity" => "critical",
                    "cluster" => "perlmutter",
                    "Context" => "x1203c1b0"
                ),
                annotations: vec![(
                    "summary".into(),
                    "Sensor 'A' of the redundant leak sensors in the 'Front' cabinet zone has detected a leak.".into(),
                )],
                status: AlertStatus::Firing,
                starts_at: 0,
            }],
        }
    }

    #[test]
    fn figure6_message_shape() {
        let msg = format_slack_message("#alerts", &leak_notification());
        assert_eq!(msg.channel, "#alerts");
        assert!(msg.text.starts_with(":rotating_light: *[FIRING] PerlmutterCabinetLeak*"));
        assert!(msg.text.contains("• *Context:* x1203c1b0"));
        assert!(msg.text.contains("• *cluster:* perlmutter"));
        assert!(msg.text.contains("detected a leak"));
    }

    #[test]
    fn resolved_message_shape() {
        let mut n = leak_notification();
        n.alerts[0].status = AlertStatus::Resolved;
        let msg = format_slack_message("#alerts", &n);
        assert!(msg.text.contains("[RESOLVED]"));
        assert!(msg.text.contains(":white_check_mark:"));
    }

    #[test]
    fn sink_collects_messages() {
        let sink = SlackSink::new("#perlmutter-alerts");
        assert!(sink.is_empty());
        sink.deliver(&leak_notification());
        sink.deliver(&leak_notification());
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.messages()[0].channel, "#perlmutter-alerts");
    }

    /// The per-line `format!` rendering the writer replaced.
    fn reference_text(notification: &Notification) -> String {
        let mut text = String::new();
        for (i, alert) in notification.alerts.iter().enumerate() {
            if i > 0 {
                text.push('\n');
            }
            let (emoji, status) = match alert.status {
                AlertStatus::Firing => (":rotating_light:", "FIRING"),
                AlertStatus::Resolved => (":white_check_mark:", "RESOLVED"),
            };
            text.push_str(&format!("{emoji} *[{status}] {}*\n", alert.name()));
            for (k, v) in alert.labels.iter() {
                if k == "alertname" {
                    continue;
                }
                text.push_str(&format!("• *{k}:* {v}\n"));
            }
            for (k, v) in &alert.annotations {
                text.push_str(&format!("• _{k}_: {v}\n"));
            }
        }
        text
    }

    #[test]
    fn written_message_equals_the_per_line_reference() {
        let mut n = leak_notification();
        let mut second = n.alerts[0].clone();
        second.status = AlertStatus::Resolved;
        second.labels.insert("Context", "x1000c7b0");
        second.annotations.push(("trace_id".into(), "00ff".into()));
        n.alerts.push(second);
        let mut bare = n.alerts[0].clone();
        bare.labels = omni_model::labels!();
        bare.annotations.clear();
        n.alerts.push(bare);
        assert_eq!(format_slack_message("#alerts", &n).text, reference_text(&n));
        n.alerts.clear();
        assert_eq!(format_slack_message("#alerts", &n).text, "");
    }

    #[test]
    fn a_stored_message_keeps_no_growth_slack() {
        let sink = SlackSink::new("#alerts");
        sink.deliver(&leak_notification());
        let stored = &sink.messages.lock()[0];
        assert_eq!(stored.text, reference_text(&leak_notification()));
        assert_eq!(stored.text.capacity(), stored.text.len());
    }

    #[test]
    fn multiple_alerts_joined() {
        let mut n = leak_notification();
        let mut second = n.alerts[0].clone();
        second.labels.insert("Context", "x1000c7b0");
        n.alerts.push(second);
        let msg = format_slack_message("#alerts", &n);
        assert_eq!(msg.text.matches("[FIRING]").count(), 2);
    }
}
