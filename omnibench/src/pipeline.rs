//! One replica: a fresh pipeline executing the workload's fixed script,
//! every step and refresh position timed on its own.
//!
//! [`Pipeline`] is what the run loop needs from a pipeline; the real
//! `MonitoringStack` and the staged driver (`staged.rs`) both provide it,
//! so both execute the same script, the same checks and the same digest.

use crate::digest::Digest;
use crate::workloads::{
    actions_at, check_targets, Action, RefreshPlan, Targets, Workload, BUILD_REPEATS,
    CHECK_LEAK_STEP, CHECK_SWITCH_STEP, LOKI_SHARDS, WARM_REPEATS,
};
use omni_alertmanager::{DeliveryStats, Notification, SlackSink};
use omni_bus::{Broker, TopicStatsSnapshot};
use omni_core::pane::{PaneError, PanelData};
use omni_core::{
    ChaosEngine, ChaosFault, Dashboard, MonitoringStack, Omni, Pane, PaneQuery, StackConfig,
};
use omni_model::{Timestamp, NANOS_PER_SEC};
use omni_servicenow::ServiceNow;
use omni_shasta::{GpfsCluster, ShastaMachine};
use std::time::Instant;

/// The five shipped dashboards, in the order every refresh renders them.
pub fn dashboards() -> Vec<Dashboard> {
    vec![
        Dashboard::leak_detection(),
        Dashboard::pipeline_health(),
        Dashboard::component_heatmap(),
        Dashboard::fabric_health(),
        Dashboard::pipeline_slo(),
    ]
}

/// The stack configuration of a workload: the shipped defaults with the
/// workload's machine, volumes and seed, on [`LOKI_SHARDS`] ingesters.
pub fn stack_config(w: &Workload, seed: u64) -> StackConfig {
    let defaults = StackConfig::default();
    StackConfig {
        topology: (w.topology)(),
        seed,
        loki_shards: LOKI_SHARDS,
        syslog_per_step: w.syslog_per_step,
        container_per_step: w.container_per_step,
        slow_query_threshold_ns: w
            .slow_query_threshold_ms
            .map_or(defaults.slow_query_threshold_ns, |ms| ms * 1_000_000),
        ..defaults
    }
}

/// The workload's flaky-receiver windows as a chaos engine, if any. Steps
/// are numbered from the first timed step; window bounds are the virtual
/// times those steps run at.
pub fn chaos_engine(w: &Workload, seed: u64) -> Option<ChaosEngine> {
    if w.flaky.is_empty() {
        return None;
    }
    let at = |step: usize| w.time_of_step(step);
    let mut engine = ChaosEngine::new(seed);
    for f in w.flaky {
        engine.push(ChaosFault::FlakyReceiver {
            receiver: f.receiver.to_string(),
            from: at(f.from_step),
            until: at(f.until_step),
            fail_permille: f.fail_permille,
        });
    }
    Some(engine)
}

/// What the run loop drives and inspects.
pub trait Pipeline {
    /// One full pipeline cycle; returns the notifications dispatched.
    fn step(&mut self, dt_ns: i64, syslog: usize, container: usize) -> Vec<Notification>;
    fn inject(&mut self, action: Action);
    /// Render `dashboards` over `(start, end]` on a `step_ns` grid,
    /// `repeats` times.
    fn refresh(
        &mut self,
        dashboards: &[Dashboard],
        (start, end, step_ns): (Timestamp, Timestamp, i64),
        repeats: usize,
    ) -> Result<(), PaneError> {
        for _ in 0..repeats {
            for d in dashboards {
                std::hint::black_box(self.pane().render_dashboard(d, start, end, step_ns)?);
            }
        }
        Ok(())
    }
    fn machine(&self) -> &ShastaMachine;
    fn gpfs(&self) -> &GpfsCluster;
    fn omni(&self) -> &Omni;
    fn pane(&self) -> &Pane;
    fn broker(&self) -> &Broker;
    fn slack(&self) -> &SlackSink;
    fn servicenow(&self) -> &ServiceNow;
    /// `(log records pushed, permanent push errors, metric samples pushed)`.
    fn bridge_stats(&self) -> (u64, u64, u64);
    /// Messages either bridge parked on the dead-letter topic.
    fn bridge_dead_lettered(&self) -> u64;
    fn delivery_stats(&self) -> DeliveryStats;
    /// Families on the pipeline's own `omni-self` page.
    fn registry_families(&self) -> usize;
    /// Whether the pipeline exports the self-telemetry the `pipeline_*`
    /// dashboards read (the real stack does, from private collectors).
    const SELF_TELEMETRY: bool;
}

impl Pipeline for MonitoringStack {
    fn step(&mut self, dt_ns: i64, syslog: usize, container: usize) -> Vec<Notification> {
        MonitoringStack::step(self, dt_ns, syslog, container)
    }

    fn inject(&mut self, action: Action) {
        match action {
            Action::Leak { index, sensor, zone } => {
                let chassis = self.machine.topology().chassis()[index];
                self.inject_leak(chassis, sensor, zone);
            }
            Action::Switch { index, state } => {
                let switch = self.machine.topology().switches()[index];
                self.take_switch_offline(switch, state);
            }
            Action::Gpfs { index, state } => {
                let server = self.gpfs.servers()[index].clone();
                self.fail_gpfs_server(&server, state);
            }
        }
    }

    fn machine(&self) -> &ShastaMachine {
        &self.machine
    }
    fn gpfs(&self) -> &GpfsCluster {
        &self.gpfs
    }
    fn omni(&self) -> &Omni {
        &self.omni
    }
    fn pane(&self) -> &Pane {
        &self.pane
    }
    fn broker(&self) -> &Broker {
        MonitoringStack::broker(self)
    }
    fn slack(&self) -> &SlackSink {
        &self.slack
    }
    fn servicenow(&self) -> &ServiceNow {
        &self.servicenow
    }
    fn bridge_stats(&self) -> (u64, u64, u64) {
        MonitoringStack::bridge_stats(self)
    }
    fn bridge_dead_lettered(&self) -> u64 {
        let r = self.resilience_report();
        r.log_bridge.dead_lettered + r.metric_bridge.dead_lettered
    }
    fn delivery_stats(&self) -> DeliveryStats {
        MonitoringStack::delivery_stats(self)
    }
    fn registry_families(&self) -> usize {
        self.registry().gather().len()
    }
    const SELF_TELEMETRY: bool = true;
}

/// Build the real stack for a workload.
pub fn build_real(w: &Workload, seed: u64) -> MonitoringStack {
    let mut stack = MonitoringStack::try_new(stack_config(w, seed))
        .expect("the shipped configuration passes its own boot-time lint");
    if let Some(engine) = chaos_engine(w, seed) {
        stack.install_chaos(engine);
    }
    stack
}

/// Deterministic counts of one replica. Replicas of one `(workload,
/// seed)` must agree on every field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Messages produced onto the bus (readings, log lines, events).
    pub offered: u64,
    /// Log records Loki accepted + samples the TSDB ingested, timed steps.
    pub accepted_timed: u64,
    /// Log records Loki accepted during the timed steps.
    pub log_records_timed: u64,
    /// Samples the TSDB ingested during the timed steps.
    pub samples_timed: u64,
    /// Panel queries issued by the refreshes.
    pub queries: u64,
    pub notifications_enqueued: u64,
    pub ingest_rejected: u64,
    pub bridge_push_errors: u64,
    pub bridge_dead_lettered: u64,
    pub query_errors: u64,
    pub notifications_dead_lettered: u64,
    pub delivery_retries: u64,
    /// Raw line bytes offered to the stores.
    pub input_bytes: u64,
    /// WAL + chunks held by the ingesters + offloaded hot objects + cold
    /// objects + label index.
    pub stored_bytes: u64,
}

impl Counts {
    pub fn attempted(&self) -> u64 {
        self.offered + self.queries + self.notifications_enqueued
    }

    pub fn failed(&self) -> u64 {
        self.ingest_rejected
            + self.bridge_push_errors
            + self.bridge_dead_lettered
            + self.query_errors
            + self.notifications_dead_lettered
    }
}

/// Everything one replica reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The build, then each preload step.
    pub setup_ns: Vec<u64>,
    pub step_ns: Vec<u64>,
    pub cold_ns: Vec<u64>,
    /// Each entry is `WARM_REPEATS` back-to-back refreshes.
    pub warm_ns: Vec<u64>,
    pub counts: Counts,
    pub digest: Digest,
    /// Families on the pipeline's `omni-self` page at the end.
    pub registry_families: u64,
    /// Failed correctness checks, empty when all hold.
    pub violations: Vec<String>,
}

/// Stats of every topic the pipeline's data rides (the bridges'
/// dead-letter topic is not one).
pub fn data_topic_stats(broker: &Broker) -> Vec<TopicStatsSnapshot> {
    broker
        .topics()
        .iter()
        .filter(|t| t.as_str() != omni_core::DEAD_LETTER_TOPIC)
        .filter_map(|t| broker.stats(t).ok())
        .collect()
}

fn bus_messages_in(p: &impl Pipeline) -> u64 {
    data_topic_stats(p.broker()).iter().map(|s| s.messages_in).sum()
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Run one replica of `w`. `build` constructs the pipeline; it is the first
/// setup position, timed over [`BUILD_REPEATS`] back-to-back builds (the
/// last one is kept) because one build of a small machine is under a
/// millisecond.
pub fn run_replica<P: Pipeline>(w: &Workload, seed: u64, build: impl Fn() -> P) -> (P, Outcome) {
    let mut out = Outcome::default();
    let t = Instant::now();
    for _ in 1..BUILD_REPEATS {
        drop(std::hint::black_box(build()));
    }
    let mut p = build();
    out.setup_ns.push(elapsed_ns(t) / BUILD_REPEATS);

    let targets = Targets {
        chassis: p.machine().topology().chassis().len(),
        switches: p.machine().topology().switches().len(),
        gpfs_servers: p.gpfs().servers().len(),
    };
    let dashboards = dashboards();
    let panels: u64 = dashboards.iter().map(|d| d.panels.len() as u64).sum();
    let mut check_leak_at = None;
    let mut check_switch_at = None;
    let mut digest = Digest::default();

    // One cycle: the faults due before global step `g`, then the step.
    // Only the step is inside the returned time.
    let mut cycle = |p: &mut P, g: usize| -> u64 {
        let now = p.omni().clock().now();
        if g == w.preload_steps + CHECK_LEAK_STEP {
            check_leak_at = Some(now);
        }
        if g == w.preload_steps + CHECK_SWITCH_STEP {
            check_switch_at = Some(now);
        }
        for action in actions_at(w, seed, g, targets) {
            p.inject(action);
        }
        let t = Instant::now();
        let notifications = p.step(w.dt_ns(g), w.syslog_per_step, w.container_per_step);
        let ns = elapsed_ns(t);
        digest.add_notifications(&notifications);
        ns
    };

    for g in 0..w.preload_steps {
        let ns = cycle(&mut p, g);
        out.setup_ns.push(ns);
    }

    let (logs_before, _, _) = p.bridge_stats();
    let samples_before = p.omni().tsdb().samples_ingested();
    let mut query_errors = 0u64;
    let mut queries = 0u64;
    let window_ns = w.window_s * NANOS_PER_SEC;
    let mut refresh_pair = |p: &mut P, end: Timestamp, out: &mut Outcome| {
        let window = (end - window_ns, end, w.render_step_ns());
        let t = Instant::now();
        let cold = p.refresh(&dashboards, window, 1);
        out.cold_ns.push(elapsed_ns(t));
        let t = Instant::now();
        let warm = p.refresh(&dashboards, window, WARM_REPEATS);
        out.warm_ns.push(elapsed_ns(t));
        queries += panels * (1 + WARM_REPEATS as u64);
        query_errors += u64::from(cold.is_err()) + u64::from(warm.is_err());
    };

    for s in 0..w.steps {
        let ns = cycle(&mut p, w.preload_steps + s);
        out.step_ns.push(ns);
        if w.refresh == RefreshPlan::EveryStep {
            let now = p.omni().clock().now();
            refresh_pair(&mut p, now, &mut out);
        }
    }
    let log_records_timed = p.bridge_stats().0 - logs_before;
    let samples_timed = p.omni().tsdb().samples_ingested() - samples_before;
    if let RefreshPlan::AfterSteps { count } = w.refresh {
        let now = p.omni().clock().now();
        for i in 0..count {
            let end = now - (count - 1 - i) as i64 * w.render_step_ns();
            refresh_pair(&mut p, end, &mut out);
        }
    }

    // ---- counts, checks and digest: all outside the timed regions ----
    let now = p.omni().clock().now();
    let loki = p.omni().loki();
    let tenants = loki.tenant_snapshots();
    let (_, push_errors, _) = p.bridge_stats();
    let delivery = p.delivery_stats();
    let store = loki.chunk_store();
    out.counts = Counts {
        offered: bus_messages_in(&p),
        accepted_timed: log_records_timed + samples_timed,
        log_records_timed,
        samples_timed,
        queries,
        notifications_enqueued: delivery.enqueued,
        ingest_rejected: tenants.iter().map(|t| t.ingest_rejected).sum(),
        bridge_push_errors: push_errors,
        bridge_dead_lettered: p.bridge_dead_lettered(),
        query_errors,
        notifications_dead_lettered: delivery.permanently_failed,
        delivery_retries: delivery.retried,
        input_bytes: p.omni().ingest_totals().1,
        stored_bytes: loki.resilience().wal_bytes
            + loki.compressed_bytes() as u64
            + store.objects().stored_bytes() as u64
            + store.cold().stored_bytes() as u64
            + loki.index_bytes() as u64,
    };

    let v = &mut out.violations;
    for t in &tenants {
        if t.ingest_offered != t.ingest_accepted + t.ingest_rejected {
            v.push(format!("tenant {} ledger does not balance: {t:?}", t.tenant.as_str()));
        }
    }
    if out.counts.failed() != 0 {
        v.push(format!("operations failed: {:?}", out.counts));
    }
    let incidents = p.servicenow().incidents();
    // The check faults sit on reserved targets, so each opens exactly one
    // incident, described with the component's xname.
    let (check_chassis, check_switch) = check_targets(seed, targets);
    let topology = p.machine().topology();
    let mut latency_check = |what: &str,
                             text: String,
                             injected: Option<Timestamp>,
                             expect_s: i64| {
        let Some(at) = injected else { return v.push(format!("no {what} was injected")) };
        let opened: Vec<_> = incidents
            .iter()
            .filter(|i| {
                i.short_description.ends_with(&text) || i.short_description.starts_with(&text)
            })
            .collect();
        match opened[..] {
            [i] if i.opened_at - at == expect_s * NANOS_PER_SEC => {}
            [i] => v.push(format!(
                "{what} -> incident {:?} took {} s of virtual time, expected {expect_s} s",
                i.short_description,
                (i.opened_at - at) / NANOS_PER_SEC
            )),
            _ => v.push(format!("{what} ({text:?}) opened {} incidents, expected 1", opened.len())),
        }
    };
    // "Cabinet leak detected at <chassis BMC>" / "Switch <xname> is UNKNOWN".
    let chassis_bmc = format!("at {}b0", topology.chassis()[check_chassis]);
    latency_check("check leak", chassis_bmc, check_leak_at, w.leak_to_incident_s);
    let switch = format!("Switch {} is", topology.switches()[check_switch]);
    latency_check("check switch fault", switch, check_switch_at, w.switch_to_incident_s);
    if p.slack().is_empty() {
        v.push("nothing reached Slack".to_string());
    }
    if w.refresh == RefreshPlan::EveryStep {
        // Reads beside writes must actually read something.
        let reads_self = |panel: &omni_core::Panel| match &panel.query {
            PaneQuery::Logs(q) | PaneQuery::LogMetric(q) | PaneQuery::Metric(q) => {
                q.contains("omni")
            }
            PaneQuery::Heatmap(_) => false,
        };
        for d in &dashboards {
            for panel in d.panels.iter().filter(|p| P::SELF_TELEMETRY || !reads_self(p)) {
                let empty = match p.pane().panel(panel, now - window_ns, now, w.render_step_ns()) {
                    Ok(PanelData::Logs(records)) => records.is_empty(),
                    Ok(PanelData::Series(matrix)) => matrix.is_empty(),
                    Ok(PanelData::Heatmap(heatmap)) => heatmap.rows.is_empty(),
                    Err(e) => {
                        v.push(format!("panel {:?} / {:?} failed: {e:?}", d.title, panel.title));
                        false
                    }
                };
                if empty {
                    v.push(format!("panel {:?} / {:?} returned no data", d.title, panel.title));
                }
            }
        }
    }

    if let Err(e) = digest.add_delivered_entries(loki, now) {
        out.violations.push(format!("digest query failed: {e:?}"));
    }
    digest.add_incidents(&incidents);
    out.digest = digest;
    out.registry_families = p.registry_families() as u64;
    (p, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::miniature_with_lock;

    #[test]
    fn a_fixed_seed_repeats_and_a_second_seed_changes_inputs_but_not_position_counts() {
        let (w, _serial) = miniature_with_lock();
        let run = |seed| run_replica(&w, seed, || build_real(&w, seed)).1;
        let (a, again, b) = (run(1), run(1), run(2));
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!(b.violations, Vec::<String>::new());
        assert_eq!(a.digest, again.digest, "same seed, same outputs");
        assert_eq!(a.counts, again.counts, "same seed, same work");
        assert_ne!(a.digest.entry_hash, b.digest.entry_hash, "the seed changes the inputs");
        let positions =
            |o: &Outcome| (o.setup_ns.len(), o.step_ns.len(), o.cold_ns.len(), o.warm_ns.len());
        assert_eq!(positions(&a), (1, w.steps, w.refreshes(), w.refreshes()));
        assert_eq!(positions(&a), positions(&b), "the seed never changes how much is run");
        assert_eq!(a.counts.offered, b.counts.offered);
        assert_eq!(a.counts.queries, b.counts.queries);
        assert_eq!(a.digest.entries, b.digest.entries);
        assert!(a.counts.delivery_retries > 0, "the flaky window forces retries");
        assert_eq!(a.counts.failed(), 0);
        assert!(a.counts.attempted() > a.counts.offered);
    }
}
