//! The staged driver: the traced replica.
//!
//! The same components `MonitoringStack::try_new` wires, built from the
//! same public constructors and driven in `MonitoringStack::step`'s order,
//! with a span around every public call. What `step` does through private
//! code — query introspection, the SLO board, the gather-time collectors
//! behind the `omni-self` page — has no public door and is left out; the
//! report shows it as `stack.unattributed_ms_per_step`.
//!
//! # Probes and the twin
//!
//! Several calls are opaque from here: `LogBridge::pump` fetches through the
//! Telemetry API, which fetches from the bus, and pushes into Loki, all
//! inside one call. Spans inside the crates are a later change. Until then
//! the inner layers are timed by *probes*: right after the opaque call
//! returns, the same inputs go through the inner layer's own public door
//! and that call is recorded as a child of the opaque span.
//!
//! * Reads that change nothing are probed on the live objects
//!   (`Broker::fetch`, `TelemetryApi::fetch`, PromQL evaluation).
//! * Calls that change state are probed on a *twin*: a second broker, Loki
//!   cluster and TSDB built the same way and fed the same inputs in the
//!   same order, so the twin's head chunks, WAL, series and query cache
//!   are in the state the live ones were in when the opaque call ran
//!   (`Broker::produce`, `LokiCluster::push_record_batch`,
//!   `Tsdb::ingest_sample`, and the LogQL queries, whose results the
//!   frontend caches).
//!
//! A probe runs after the call it explains, on warm CPU caches, so it
//! reads low rather than high. The twin's entry digest must equal the live
//! Loki's, which pins the probe inputs to what the bridge really pushed.

use crate::pipeline::{chaos_engine, data_topic_stats, stack_config, Pipeline};
use crate::spans::Recorder;
use crate::workloads::{Action, Workload};
use omni_alertmanager::{
    Alert, Alertmanager, DeliveryQueue, DeliveryStats, Notification, Route, SlackSink,
};
use omni_bus::{Broker, Message};
use omni_core::bridge::telemetry_payload_to_loki;
use omni_core::pane::PaneError;
use omni_core::stack::{ruler_to_alert, vmalert_to_alert};
use omni_core::{ChaosEngine, Dashboard, LogBridge, MetricBridge, Omni, Pane, PaneQuery};
use omni_exporters::{
    parse_exposition, ArubaExporter, BlackboxExporter, Exporter, GpfsExporter, KafkaExporter,
    NodeExporter, SelfExporter,
};
use omni_loki::{AlertingRule, RuleGroup, Ruler};
use omni_model::{labels, LabelSet, LogRecord, SimClock, Timestamp, NANOS_PER_SEC};
use omni_obs::{format_trace_id, parse_trace_id, Registry, TraceStore, TRACE_HEADER};
use omni_redfish::{topics, HmsCollector, SensorReading};
use omni_servicenow::{IncidentRule, ServiceNow};
use omni_shasta::{
    ContainerLogGenerator, FabricManager, FabricManagerMonitor, GpfsCluster, GpfsMonitor,
    ShastaMachine, SyslogGenerator,
};
use omni_telemetry::{TelemetryApi, Token};
use omni_tsdb::{eval_instant, eval_range, parse_promql, MetricRule, VmAgent, VmAlert};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Layer groups a workload is built to load. A top-level span (a direct
/// child of `stack.step` or of a refresh root) belongs to one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    Log,
    Metric,
    Alert,
    Query,
}

impl Group {
    pub const ALL: [Group; 4] = [Group::Log, Group::Metric, Group::Alert, Group::Query];

    pub fn name(self) -> &'static str {
        match self {
            Group::Log => "log_path",
            Group::Metric => "metric_path",
            Group::Alert => "alert_path",
            Group::Query => "query_path",
        }
    }
}

/// The group of a top-level span, by name. `Ruler::evaluate` is alert
/// path although it queries Loki: the group follows the staged span.
pub fn group_of(span_name: &str) -> Option<Group> {
    Some(match span_name {
        "shasta.syslog_batch"
        | "shasta.container_batch"
        | "shasta.fabric_poll"
        | "shasta.gpfs_poll"
        | "redfish.publish_logs"
        | "bridge.log_pump"
        | "loki.tick"
        | "loki.offload"
        | "loki.compact" => Group::Log,
        "shasta.sample_sensors"
        | "redfish.publish_readings"
        | "bridge.metric_pump"
        | "tsdb.vmagent_scrape" => Group::Metric,
        "loki.ruler_evaluate"
        | "tsdb.vmalert_evaluate"
        | "obs.correlate_alert"
        | "alertmanager.receive"
        | "alertmanager.tick"
        | "alertmanager.enqueue"
        | "alertmanager.delivery_pump" => Group::Alert,
        "pane.render_dashboard" => Group::Query,
        _ => return None,
    })
}

const LOG_TOPICS: [&str; 5] = [
    topics::RESOURCE_EVENTS,
    topics::SYSLOG,
    topics::CONTAINER_LOGS,
    topics::FABRIC_HEALTH,
    topics::GPFS_HEALTH,
];

const METRIC_TOPICS: [&str; 6] = [
    topics::TELEMETRY_TEMPERATURE,
    topics::TELEMETRY_HUMIDITY,
    topics::TELEMETRY_POWER,
    topics::TELEMETRY_FAN,
    topics::TELEMETRY_LEAK,
    topics::TELEMETRY_FLOW,
];

/// Messages per fetch round, as the bridges fetch.
const FETCH_BATCH: usize = 512;

/// The bucket layouts `MonitoringStack` gives its own histograms.
const INGEST_BATCH_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0];
const CHUNK_FILL_BUCKETS: &[f64] = &[0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0];
const FRONTEND_BYTES_SAVED_BUCKETS: &[f64] =
    &[1_024.0, 4_096.0, 16_384.0, 65_536.0, 262_144.0, 1_048_576.0, 4_194_304.0, 16_777_216.0];

/// The SLO burn-rate meta-alerts `MonitoringStack` adds to vmalert. The
/// gauges they watch come from a private collector, so here they never
/// fire; they are evaluated all the same because vmalert pays for them.
fn slo_burn_rules() -> Vec<MetricRule> {
    let minute = 60 * NANOS_PER_SEC;
    vec![
        MetricRule {
            name: "SloFastBurn".into(),
            expr: r#"max by (slo) (omni_slo_burn_rate{window="fast"}) > 14"#.into(),
            for_ns: minute,
            labels: LabelSet::from_pairs([("severity", "critical")]),
            annotations: vec![],
        },
        MetricRule {
            name: "SloSlowBurn".into(),
            expr: r#"max by (slo) (omni_slo_burn_rate{window="slow"}) > 2"#.into(),
            for_ns: 5 * minute,
            labels: LabelSet::from_pairs([("severity", "warning")]),
            annotations: vec![],
        },
    ]
}

/// The twin stores and the cursors of the fetch probes.
struct Twin {
    broker: Broker,
    omni: Omni,
    pane: Pane,
    /// Next unread offset per `(topic, partition)`.
    cursors: BTreeMap<(&'static str, usize), u64>,
}

/// Span ids of this step's opaque calls, for the probes to hang under.
#[derive(Default)]
struct StepSpans {
    publish_readings: Option<usize>,
    /// Publish span per log topic (absent when nothing was published).
    publish_logs: BTreeMap<&'static str, usize>,
    log_pump: Option<usize>,
    metric_pump: Option<usize>,
    ruler: Option<usize>,
    vmalert: Option<usize>,
}

pub struct Staged {
    rec: Recorder,
    clock: SimClock,
    machine: Arc<ShastaMachine>,
    collector: HmsCollector,
    api: TelemetryApi,
    probe_token: Token,
    fabric: FabricManager,
    gpfs: Arc<GpfsCluster>,
    omni: Omni,
    pane: Pane,
    slack: SlackSink,
    servicenow: ServiceNow,
    broker: Broker,
    fabric_monitor: FabricManagerMonitor,
    gpfs_monitor: GpfsMonitor,
    log_bridge: LogBridge,
    metric_bridge: MetricBridge,
    ruler: Ruler,
    ruler_exprs: Vec<String>,
    vmalert: VmAlert,
    vmalert_exprs: Vec<String>,
    vmagent: VmAgent,
    alertmanager: Alertmanager,
    delivery: DeliveryQueue,
    chaos: Option<ChaosEngine>,
    syslog_gen: SyslogGenerator,
    container_gen: ContainerLogGenerator,
    registry: Registry,
    traces: TraceStore,
    cluster_name: String,
    twin: Twin,
    probes: bool,
    step_no: u32,
    /// Counts read at the span boundaries, for the report.
    seen: Seen,
}

/// What the staged driver reads from the layers' public stats while it
/// runs (the rest is read once at the end, see [`Staged::layer_counts`]).
#[derive(Debug, Clone, Default)]
struct Seen {
    /// Fill ratio of every chunk sealed.
    fill_ratios: Vec<f64>,
    /// Worst consumer-group lag on any topic at the end of any step.
    consumer_lag_max: u64,
    /// Fair-scheduler queue waits, virtual nanoseconds per split grant.
    scheduler_waits_vns: Vec<u64>,
    /// Statistics of the queries the cold refreshes issued.
    cold: QueryTotals,
}

/// Frontend statistics summed over a set of completed queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTotals {
    pub queries: u64,
    pub splits: u64,
    pub blocks_decoded: u64,
    pub blocks_skipped: u64,
    pub entries_scanned: u64,
    pub entries_returned: u64,
    pub cold_chunks: u64,
}

impl QueryTotals {
    fn absorb(&mut self, records: &[omni_loki::QueryRecord]) {
        for r in records {
            let s = &r.report.stats;
            self.queries += 1;
            self.splits += r.report.splits.len() as u64;
            self.blocks_decoded += s.blocks_decoded as u64;
            self.blocks_skipped += s.blocks_skipped as u64;
            self.entries_scanned += s.entries_scanned as u64;
            self.entries_returned += s.entries_returned as u64;
            self.cold_chunks += s.cold_chunks_touched as u64;
        }
    }
}

/// Counts from the layers' public stats at the end of the staged replica.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    pub bus_messages: u64,
    pub bus_bytes: u64,
    pub bus_produce_retries: u64,
    pub bus_consumer_lag_max: u64,
    pub log_batch_size_p50: f64,
    pub bridge_dead_lettered: u64,
    /// Samples the metric bridge pushed (what the append probes replay).
    pub bridge_samples: u64,
    pub loki_entries: u64,
    pub loki_input_bytes: u64,
    pub loki_wal_bytes: u64,
    pub loki_chunks_sealed: u64,
    pub loki_fp_cache: (u64, u64),
    pub loki_fill_ratios: Vec<f64>,
    pub frontend: omni_loki::FrontendStats,
    pub scheduler_waits_vns: Vec<u64>,
    pub cold_queries: QueryTotals,
    pub tsdb_samples: u64,
    pub tsdb_series: u64,
    pub tsdb_bytes: u64,
    pub scrapes: u64,
    pub alerts_received: u64,
    pub notifications: u64,
    pub delivery: DeliveryStats,
    pub incidents: u64,
}

/// A scrape target whose render and parse are separate spans.
fn traced_target(
    rec: &Recorder,
    render_span: &'static str,
    exporter: impl Exporter + 'static,
) -> omni_tsdb::ScrapeFn {
    let rec = rec.clone();
    Box::new(move |_| {
        let (_, page) = rec.span(render_span, || exporter.render());
        let (_, parsed) = rec.span("exporters.parse", || parse_exposition(&page));
        parsed.map_err(|e| e.to_string())
    })
}

impl Staged {
    /// Wire the pipeline as `MonitoringStack::try_new` does. The boot-time
    /// lint is the real stack's; it ran when the real replicas were built.
    ///
    /// With `probes` off the twin stays empty and no probe runs: that is
    /// the replica allocations are counted on, where probe work would only
    /// have to be excluded again.
    pub fn build(w: &Workload, seed: u64, rec: Recorder, probes: bool) -> Self {
        let _root = rec.enter("stack.build");
        let config = stack_config(w, seed);
        let clock = SimClock::starting_at(0);
        let registry = Registry::new(clock.clone());
        let traces = TraceStore::with_sampling(config.seed, config.trace_sampling);
        let machine =
            Arc::new(ShastaMachine::new(config.topology.clone(), clock.clone(), config.seed));
        let broker = Broker::new(clock.clone());
        let collector = HmsCollector::new(broker.clone(), config.bus_partitions);
        let api = TelemetryApi::new(broker.clone(), config.gateways);
        let fabric = FabricManager::new(machine.topology());
        let fabric_monitor = FabricManagerMonitor::new(fabric.clone());
        let gpfs = GpfsCluster::new("scratch", 8, 12, clock.clone(), config.seed ^ 0x6f5);
        let gpfs_monitor = GpfsMonitor::new(Arc::clone(&gpfs));
        let mut omni = Omni::new(config.loki_shards, config.limits.clone(), clock.clone());
        if config.enable_discovery {
            omni = omni.with_discovery();
        }
        let pane = Pane::new(omni.clone());

        let token = api.issue_token("bridge-clients");
        let mut log_bridge =
            LogBridge::new(&api, &token, omni.clone(), &config.cluster_name, &broker)
                .expect("a fresh token subscribes");
        log_bridge.set_tracer(traces.clone());
        log_bridge.set_batch_histogram(registry.histogram(
            "omni_ingest_batch_size",
            "Records per batched Loki push from the log bridge.",
            labels!(),
            INGEST_BATCH_BUCKETS,
        ));
        let metric_bridge =
            MetricBridge::new(&api, &token, omni.tsdb().clone(), &config.cluster_name, &broker)
                .expect("a fresh token subscribes");

        let mut ruler = Ruler::new(omni.loki().clone());
        let logql_rules = vec![
            AlertingRule::paper_leak_rule(),
            AlertingRule::paper_switch_rule(),
            AlertingRule::gpfs_server_rule(),
        ];
        let ruler_exprs = logql_rules.iter().map(|r| r.expr.clone()).collect();
        ruler
            .add_group(RuleGroup {
                name: "perlmutter-alerts".into(),
                interval_ns: 60 * NANOS_PER_SEC,
                rules: logql_rules,
            })
            .expect("the shipped rules parse");

        let mut vmalert = VmAlert::new(omni.tsdb().clone());
        let metric_rules: Vec<MetricRule> =
            MetricRule::shipped_rules().into_iter().chain(slo_burn_rules()).collect();
        let vmalert_exprs = metric_rules.iter().map(|r| r.expr.clone()).collect();
        for rule in metric_rules {
            vmalert.add_rule(rule).expect("the shipped rules parse");
        }

        let mut vmagent = VmAgent::new(omni.tsdb().clone());
        let cluster = config.cluster_name.as_str();
        vmagent.add_target(
            "node-exporter",
            cluster,
            traced_target(&rec, "exporters.render", NodeExporter::new(Arc::clone(&machine))),
        );
        vmagent.add_target(
            "kafka-exporter",
            "sma-kafka",
            traced_target(&rec, "exporters.render", KafkaExporter::new(broker.clone())),
        );
        vmagent.add_target(
            "blackbox-exporter",
            "probes",
            traced_target(
                &rec,
                "exporters.render",
                BlackboxExporter::new(
                    vec!["https://telemetry-api".into(), "https://grafana".into()],
                    clock.clone(),
                ),
            ),
        );
        vmagent.add_target(
            "aruba-exporter",
            "mgmt",
            traced_target(
                &rec,
                "exporters.render",
                ArubaExporter::new(vec!["mgmt-sw1".into(), "mgmt-sw2".into()], clock.clone()),
            ),
        );
        vmagent.add_target(
            "gpfs-exporter",
            "scratch",
            traced_target(&rec, "exporters.render", GpfsExporter::new(Arc::clone(&gpfs))),
        );
        vmagent.add_target(
            "omni-self",
            cluster,
            traced_target(&rec, "obs.self_render", SelfExporter::new(registry.clone())),
        );

        let servicenow = ServiceNow::new();
        servicenow.with_cmdb(|cmdb| cmdb.load_topology(cluster, machine.topology()));
        for (name, resource, group) in [
            ("storage-to-storage-team", Some("storage"), "nersc-storage"),
            ("fabric-to-network-team", Some("fabric"), "nersc-network"),
            ("critical-to-ops", None, "nersc-ops"),
        ] {
            servicenow.add_incident_rule(IncidentRule {
                name: name.into(),
                max_severity: 2,
                node_contains: None,
                resource: resource.map(str::to_string),
                assignment_group: group.into(),
            });
        }

        let syslog_gen =
            SyslogGenerator::new(machine.topology().nodes(), clock.clone(), config.seed ^ 0xa5);
        let container_gen = ContainerLogGenerator::k3s_services(config.seed ^ 0x5a);

        // The twin: built the same way, on the same clock.
        let twin_broker = Broker::new(clock.clone());
        HmsCollector::new(twin_broker.clone(), config.bus_partitions);
        let twin_omni = Omni::new(config.loki_shards, config.limits.clone(), clock.clone());
        let twin = Twin {
            broker: twin_broker,
            pane: Pane::new(twin_omni.clone()),
            omni: twin_omni,
            cursors: BTreeMap::new(),
        };

        drop(_root);
        Self {
            probe_token: api.issue_token("omnibench-probe"),
            rec,
            clock,
            machine,
            collector,
            api,
            fabric,
            gpfs,
            omni,
            pane,
            slack: SlackSink::new("#perlmutter-alerts"),
            servicenow,
            broker,
            fabric_monitor,
            gpfs_monitor,
            log_bridge,
            metric_bridge,
            ruler,
            ruler_exprs,
            vmalert,
            vmalert_exprs,
            vmagent,
            alertmanager: Alertmanager::new(Route::shipped_tree()),
            delivery: DeliveryQueue::with_defaults(),
            chaos: chaos_engine(w, seed),
            syslog_gen,
            container_gen,
            registry,
            traces,
            cluster_name: config.cluster_name,
            twin,
            probes,
            step_no: 0,
            seen: Seen::default(),
        }
    }

    /// The layers' public counters, read once at the end of the replica.
    pub fn layer_counts(&self) -> LayerCounts {
        let topics = data_topic_stats(&self.broker);
        let loki = self.omni.loki();
        let ingest = loki.stats();
        let (alerts_received, _, _) = self.alertmanager.stats();
        let delivery = self.delivery.stats();
        let batch = self.registry.histogram(
            "omni_ingest_batch_size",
            "Records per batched Loki push from the log bridge.",
            labels!(),
            INGEST_BATCH_BUCKETS,
        );
        LayerCounts {
            bus_messages: topics.iter().map(|t| t.messages_in).sum(),
            bus_bytes: topics.iter().map(|t| t.bytes_in).sum(),
            bus_produce_retries: topics.iter().map(|t| t.produce_retries).sum(),
            bus_consumer_lag_max: self.seen.consumer_lag_max,
            log_batch_size_p50: batch.quantile(0.5),
            bridge_dead_lettered: self.bridge_dead_lettered(),
            bridge_samples: self.metric_bridge.stats(),
            loki_entries: ingest.entries,
            loki_input_bytes: ingest.bytes,
            loki_wal_bytes: loki.resilience().wal_bytes,
            loki_chunks_sealed: ingest.chunks_sealed,
            loki_fp_cache: loki.fp_cache_stats(),
            loki_fill_ratios: self.seen.fill_ratios.clone(),
            frontend: loki.frontend().stats(),
            scheduler_waits_vns: self.seen.scheduler_waits_vns.clone(),
            cold_queries: self.seen.cold,
            tsdb_samples: self.omni.tsdb().samples_ingested(),
            tsdb_series: self.omni.tsdb().series_count() as u64,
            tsdb_bytes: self.omni.tsdb().compressed_bytes() as u64,
            scrapes: self.vmagent.stats().0,
            alerts_received,
            notifications: delivery.enqueued,
            delivery,
            incidents: self.servicenow.incidents().len() as u64,
        }
    }

    pub fn omni_now(&self) -> Timestamp {
        self.clock.now()
    }

    /// The twin Loki, for the digest cross-check.
    pub fn twin_loki(&self) -> &omni_loki::LokiCluster {
        self.twin.omni.loki()
    }

    fn publish_logs(
        &self,
        spans: &mut StepSpans,
        topic: &'static str,
        lines: Vec<(String, String)>,
    ) {
        if lines.is_empty() {
            return;
        }
        let (id, ()) = self.rec.span("redfish.publish_logs", || {
            for (key, line) in lines {
                let _ = self.collector.publish_log(topic, &key, line);
            }
        });
        spans.publish_logs.insert(topic, id);
    }

    /// `MonitoringStack::correlate_alert`, through `TraceStore`'s public
    /// calls.
    fn correlate_alert(&self, alert: &mut Alert, now: Timestamp) {
        let Some(context) = alert.labels.get("Context").map(str::to_string) else { return };
        let Some(id) = self.traces.lookup(&context) else { return };
        let rule = alert.name().to_string();
        self.traces.span_once(
            id,
            "alert_rule",
            alert.starts_at,
            now,
            &format!("rule {rule} firing"),
        );
        self.traces.begin_span(id, "alertmanager", now, "received");
        if !alert.annotations.iter().any(|(k, _)| k == "trace_id") {
            alert.annotations.push(("trace_id".into(), format_trace_id(id)));
        }
    }

    fn receive(&mut self, mut alert: Alert, correlate: bool, now: Timestamp) {
        if correlate {
            self.rec.span("obs.correlate_alert", || self.correlate_alert(&mut alert, now));
        }
        let am = &mut self.alertmanager;
        self.rec.span("alertmanager.receive", || am.receive(alert, now));
    }

    /// Fetch everything new on `topics` through `fetch`, round by round as
    /// the bridges do (a final empty round per partition included).
    fn fetch_rounds(
        cursors: &BTreeMap<(&'static str, usize), u64>,
        broker: &Broker,
        topics: &[&'static str],
        mut fetch: impl FnMut(&'static str, usize, u64) -> Vec<Message>,
    ) -> Vec<(&'static str, usize, Vec<Message>)> {
        let mut rounds = Vec::new();
        for &topic in topics {
            let parts = broker.partition_count(topic).unwrap_or(0);
            for part in 0..parts {
                let mut offset = cursors.get(&(topic, part)).copied().unwrap_or(0);
                loop {
                    let msgs = fetch(topic, part, offset);
                    let Some(last) = msgs.last() else { break };
                    offset = last.offset + 1;
                    rounds.push((topic, part, msgs));
                }
            }
        }
        rounds
    }

    /// The log record the bridge makes of a message (Figure 3 labels).
    fn to_records(&self, topic: &str, msg: &Message) -> Vec<LogRecord> {
        let payload = String::from_utf8_lossy(&msg.payload).into_owned();
        let cluster = self.cluster_name.as_str();
        if topic == topics::RESOURCE_EVENTS {
            let trace = msg.header(TRACE_HEADER).and_then(parse_trace_id);
            let mut records = telemetry_payload_to_loki(&payload, cluster);
            if let Some(id) = trace {
                for r in &mut records {
                    r.labels.insert("trace_id", format_trace_id(id));
                }
            }
            return records;
        }
        let key = msg.key.as_deref().unwrap_or("unknown");
        let labels = match topic {
            topics::SYSLOG => {
                labels!("cluster" => cluster, "data_type" => "syslog", "hostname" => key)
            }
            topics::CONTAINER_LOGS => {
                labels!("cluster" => cluster, "data_type" => "container_log", "pod" => key)
            }
            topics::FABRIC_HEALTH => {
                labels!("cluster" => cluster, "app" => "fabric_manager_monitor")
            }
            topics::GPFS_HEALTH => {
                labels!("cluster" => cluster, "app" => "gpfs_monitor", "server" => key)
            }
            _ => return Vec::new(),
        };
        vec![LogRecord::new(labels, msg.ts, payload)]
    }

    /// After a step: replay its inputs through the inner doors.
    fn probe_step(&mut self, spans: &StepSpans, now: Timestamp) {
        let rec = self.rec.clone();
        for (topic_set, pump, is_log) in [
            (&LOG_TOPICS[..], spans.log_pump, true),
            (&METRIC_TOPICS[..], spans.metric_pump, false),
        ] {
            let Some(pump) = pump else { continue };
            // telemetry.fetch { bus.fetch }: the same rounds through both doors.
            let api_probe = rec.probe("telemetry.fetch", pump);
            let api_id = api_probe.id();
            let (api, token) = (&self.api, &self.probe_token);
            // (Kept until its span has closed, like the bus pass's rounds:
            // freeing the messages is in neither span.)
            let via_api =
                Self::fetch_rounds(&self.twin.cursors, &self.broker, topic_set, |t, p, o| {
                    api.fetch(token, t, p, o, FETCH_BATCH).unwrap_or_default()
                });
            drop(api_probe);
            drop(via_api);
            let bus_probe = rec.probe("bus.fetch", api_id);
            let broker = &self.broker;
            let rounds = Self::fetch_rounds(&self.twin.cursors, broker, topic_set, |t, p, o| {
                broker.fetch(t, p, o, FETCH_BATCH).unwrap_or_default()
            });
            drop(bus_probe);

            for (topic, part, msgs) in &rounds {
                if let Some(last) = msgs.last() {
                    self.twin.cursors.insert((topic, *part), last.offset + 1);
                }
                // bus.produce, under the span that published this topic.
                let parent = if is_log {
                    spans.publish_logs.get(topic).copied()
                } else {
                    spans.publish_readings
                };
                if let Some(parent) = parent {
                    let inputs: Vec<_> = msgs
                        .iter()
                        .map(|m| (m.key.clone(), m.payload.clone(), m.headers.clone()))
                        .collect();
                    let _probe = rec.probe("bus.produce", parent);
                    for (key, payload, headers) in inputs {
                        let _ = self.twin.broker.produce_with_headers(
                            topic,
                            key.as_deref(),
                            payload,
                            headers,
                        );
                    }
                }
            }

            if is_log {
                // loki.push: one batch per fetch round, as the bridge flushes.
                for (topic, _, msgs) in &rounds {
                    let batch: Vec<LogRecord> =
                        msgs.iter().flat_map(|m| self.to_records(topic, m)).collect();
                    let _probe = rec.probe("loki.push", pump);
                    self.twin.omni.loki().push_record_batch(batch);
                }
            } else {
                // tsdb.append: the samples the metric bridge ingested.
                let samples: Vec<_> = rounds
                    .iter()
                    .flat_map(|(_, _, msgs)| msgs)
                    .filter_map(|m| {
                        let payload = String::from_utf8_lossy(&m.payload);
                        let r = SensorReading::from_json(&omni_json::parse(&payload).ok()?)?;
                        let name = format!("shasta_{}_{}", r.kind.as_str(), r.kind.unit());
                        let labels = LabelSet::from_pairs([
                            ("xname", r.xname.to_string()),
                            ("sensor", r.sensor_id.clone()),
                            ("cluster", self.cluster_name.clone()),
                        ]);
                        Some((name, labels, r.ts, r.value))
                    })
                    .collect();
                let _probe = rec.probe("tsdb.append", pump);
                for (name, labels, ts, value) in samples {
                    self.twin.omni.tsdb().ingest_sample(&name, labels, ts, value);
                }
            }
        }

        // The twin Loki lives the same chunk lifecycle as the live one.
        let twin_loki = self.twin.omni.loki();
        twin_loki.tick();
        twin_loki.take_seal_fill_ratios();
        twin_loki.offload(3_600 * NANOS_PER_SEC);
        twin_loki.maybe_compact();

        // loki.query_instant under the ruler, tsdb.promql_instant under
        // vmalert: the queries their evaluations ran.
        if let Some(ruler) = spans.ruler {
            for expr in &self.ruler_exprs {
                let _probe = rec.probe("loki.query_instant", ruler);
                let _ = std::hint::black_box(twin_loki.query_instant(expr, now));
            }
        }
        if let Some(vmalert) = spans.vmalert {
            for expr in &self.vmalert_exprs {
                let _probe = rec.probe("tsdb.promql_instant", vmalert);
                if let Ok(parsed) = parse_promql(expr) {
                    std::hint::black_box(eval_instant(self.omni.tsdb(), &parsed, now));
                }
            }
        }
        twin_loki.frontend().take_bytes_saved();
        twin_loki.frontend().take_scheduler_waits();
        twin_loki.frontend().take_query_records();
    }

    /// After a cold refresh: the panel queries through the inner doors.
    fn probe_refresh(
        &self,
        rendered: &[(usize, &Dashboard)],
        (start, end, step_ns): (Timestamp, Timestamp, i64),
    ) {
        let rec = &self.rec;
        let twin_loki = self.twin.omni.loki();
        for (span, dashboard) in rendered {
            for panel in &dashboard.panels {
                let logql = |q: &str| {
                    let _probe = rec.probe("logql.parse", *span);
                    let _ = std::hint::black_box(omni_logql::parse_expr(q));
                };
                match &panel.query {
                    PaneQuery::Logs(q) => {
                        logql(q);
                        let _probe = rec.probe("loki.query_logs", *span);
                        let _ = std::hint::black_box(twin_loki.query_logs(q, start, end, 100));
                    }
                    PaneQuery::LogMetric(q) => {
                        logql(q);
                        let _probe = rec.probe("loki.query_range", *span);
                        let _ = std::hint::black_box(twin_loki.query_range(q, start, end, step_ns));
                    }
                    PaneQuery::Metric(q) => {
                        let _probe = rec.probe("tsdb.promql_range", *span);
                        if let Ok(parsed) = parse_promql(q) {
                            std::hint::black_box(eval_range(
                                self.omni.tsdb(),
                                &parsed,
                                start,
                                end,
                                step_ns,
                            ));
                        }
                    }
                    PaneQuery::Heatmap(spec) => {
                        logql(&spec.expr);
                        {
                            let _probe = rec.probe("loki.query_range", *span);
                            let _ = std::hint::black_box(
                                twin_loki.query_range(&spec.expr, start, end, step_ns),
                            );
                        }
                        // The query is cached on the twin now: what is
                        // left is the rollup up the xname hierarchy. Not a
                        // child of the render span — that would charge the
                        // cached query to the pane twice.
                        let _probe = rec.probe_detached("pane.heatmap");
                        let _ =
                            std::hint::black_box(self.twin.pane.heatmap(spec, start, end, step_ns));
                    }
                }
            }
        }
    }
}

impl Pipeline for Staged {
    fn step(&mut self, dt_ns: i64, syslog: usize, container: usize) -> Vec<Notification> {
        let now = self.clock.advance(dt_ns);
        self.rec.set_step(self.step_no);
        self.step_no += 1;
        let rec = self.rec.clone();
        let root = rec.enter("stack.step");
        let mut spans = StepSpans::default();
        self.registry.counter("omni_steps_total", "Pipeline steps driven.", labels!()).inc();
        if let Some(chaos) = &mut self.chaos {
            // Only flaky receivers are scripted; they act in the delivery pump.
            chaos.poll(now);
        }

        // 1-3. Producers -> bus.
        let (_, readings) = rec.span("shasta.sample_sensors", || self.machine.sample_sensors());
        let (id, ()) = rec.span("redfish.publish_readings", || {
            for reading in &readings {
                let _ = self.collector.publish_reading(reading);
            }
        });
        spans.publish_readings = Some(id);
        let (_, lines) = rec.span("shasta.syslog_batch", || self.syslog_gen.batch(syslog));
        self.publish_logs(&mut spans, topics::SYSLOG, lines);
        let (_, lines) = rec.span("shasta.container_batch", || self.container_gen.batch(container));
        self.publish_logs(&mut spans, topics::CONTAINER_LOGS, lines);
        let (_, changes) = rec.span("shasta.fabric_poll", || self.fabric_monitor.poll());
        let lines = changes.iter().map(|c| (c.xname.to_string(), c.to_event_line())).collect();
        self.publish_logs(&mut spans, topics::FABRIC_HEALTH, lines);
        let (_, changes) = rec.span("shasta.gpfs_poll", || self.gpfs_monitor.poll());
        let lines = changes.iter().map(|c| (c.server.clone(), c.to_event_line())).collect();
        self.publish_logs(&mut spans, topics::GPFS_HEALTH, lines);

        // 4. Bridges.
        spans.log_pump = Some(rec.span("bridge.log_pump", || self.log_bridge.pump(now)).0);
        spans.metric_pump = Some(rec.span("bridge.metric_pump", || self.metric_bridge.pump()).0);
        // 5. vmagent; each target's closure records its own spans.
        rec.span("tsdb.vmagent_scrape", || self.vmagent.scrape_once(now));
        // 6. Store maintenance.
        let loki = self.omni.loki();
        rec.span("loki.tick", || loki.tick());
        let fill = self.registry.histogram(
            "omni_chunk_fill_ratio",
            "Uncompressed size of sealed chunks relative to the chunk target.",
            labels!(),
            CHUNK_FILL_BUCKETS,
        );
        for ratio in loki.take_seal_fill_ratios() {
            fill.observe(ratio);
            self.seen.fill_ratios.push(ratio);
        }
        let saved = self.registry.histogram(
            "omni_frontend_bytes_saved",
            "Line bytes a query-frontend cache hit avoided re-scanning.",
            labels!(),
            FRONTEND_BYTES_SAVED_BUCKETS,
        );
        for bytes in loki.frontend().take_bytes_saved() {
            saved.observe(bytes as f64);
        }
        rec.span("loki.offload", || loki.offload(3_600 * NANOS_PER_SEC));
        rec.span("loki.compact", || loki.maybe_compact());
        // 6b. The real stack prices and traces these privately; here they
        // are only drained so the buffers stay as small as the real ones.
        let waits = loki.frontend().take_scheduler_waits();
        self.seen.scheduler_waits_vns.extend(waits.iter().map(|(_, vns)| *vns));
        loki.frontend().take_query_records();

        // 7. Rules -> Alertmanager.
        let (id, fired) = rec.span("loki.ruler_evaluate", || self.ruler.evaluate(now));
        spans.ruler = Some(id);
        for n in &fired {
            self.receive(ruler_to_alert(n), true, now);
        }
        let (id, fired) = rec.span("tsdb.vmalert_evaluate", || self.vmalert.evaluate(now));
        spans.vmalert = Some(id);
        for n in &fired {
            self.receive(vmalert_to_alert(n), false, now);
        }
        // 8. Flush -> delivery.
        let am = &mut self.alertmanager;
        let (_, notifications) = rec.span("alertmanager.tick", || am.tick(now));
        for n in &notifications {
            self.registry
                .counter(
                    "omni_notifications_total",
                    "Alertmanager notifications dispatched, by receiver.",
                    labels!("receiver" => n.receiver.clone()),
                )
                .inc();
            for id in notification_trace_ids(n) {
                self.traces.end_span(
                    id,
                    "alertmanager",
                    now,
                    &format!("grouped, notified {}", n.receiver),
                );
                self.traces.begin_span(id, &format!("deliver_{}", n.receiver), now, "enqueued");
            }
            let delivery = &mut self.delivery;
            rec.span("alertmanager.enqueue", || delivery.enqueue(n.clone()));
        }
        let (chaos, slack, servicenow, traces) =
            (&mut self.chaos, &self.slack, &self.servicenow, &self.traces);
        let delivery = &mut self.delivery;
        rec.span("alertmanager.delivery_pump", || {
            delivery.pump(now, |n| {
                if chaos.as_mut().is_some_and(|c| c.should_fail_send(&n.receiver, now)) {
                    return false;
                }
                let ids = notification_trace_ids(n);
                match n.receiver.as_str() {
                    "slack" => {
                        rec.span("alertmanager.slack_deliver", || slack.deliver(n));
                    }
                    "servicenow" => {
                        rec.span("servicenow.receive_notification", || {
                            servicenow.receive_notification(n, now)
                        });
                        let (_, incident) = rec.span("servicenow.incidents", || {
                            servicenow.incidents().last().map(|i| i.number.clone())
                        });
                        let incident = incident.unwrap_or_else(|| "no incident".to_string());
                        for &id in &ids {
                            traces.span_once(id, "servicenow_incident", now, now, &incident);
                        }
                    }
                    _ => {}
                }
                for &id in &ids {
                    traces.end_span(id, &format!("deliver_{}", n.receiver), now, "delivered");
                }
                true
            })
        });
        drop(root);
        for topic in self.broker.topics() {
            if let Ok(stats) = self.broker.stats(&topic) {
                self.seen.consumer_lag_max = self.seen.consumer_lag_max.max(stats.consumer_lag);
            }
        }
        if self.probes {
            self.probe_step(&spans, now);
        }
        notifications
    }

    fn inject(&mut self, action: Action) {
        match action {
            Action::Leak { index, sensor, zone } => {
                // `MonitoringStack::inject_leak`: the event rides the bus
                // with a fresh trace context as a header.
                let chassis = self.machine.topology().chassis()[index];
                let event = self.machine.inject_leak(chassis, sensor, zone);
                let now = self.clock.now();
                let trace =
                    self.traces.begin_trace(&event.context.to_string(), &event.message_id, now);
                let headers = vec![(TRACE_HEADER.to_string(), trace.encode())];
                if self.collector.publish_event_with_headers(&event, headers).is_ok() {
                    self.traces.span_once(
                        trace.trace_id,
                        "collect",
                        now,
                        now,
                        "redfish event published to bus",
                    );
                }
            }
            Action::Switch { index, state } => {
                let switch = self.machine.topology().switches()[index];
                self.fabric.set_switch_state(switch, state);
            }
            Action::Gpfs { index, state } => {
                let server = self.gpfs.servers()[index].clone();
                self.gpfs.set_server_state(&server, state);
            }
        }
    }

    fn refresh(
        &mut self,
        dashboards: &[Dashboard],
        window: (Timestamp, Timestamp, i64),
        repeats: usize,
    ) -> Result<(), PaneError> {
        let (start, end, step_ns) = window;
        let cold = repeats == 1;
        // Queries finished since the last drain are the ruler's.
        self.omni.loki().frontend().take_query_records();
        let root = self.rec.enter(if cold { "stack.refresh_cold" } else { "stack.refresh_warm" });
        let mut rendered = Vec::new();
        for _ in 0..repeats {
            for d in dashboards {
                let (id, out) = self.rec.span("pane.render_dashboard", || {
                    self.pane.render_dashboard(d, start, end, step_ns)
                });
                std::hint::black_box(out?);
                rendered.push((id, d));
            }
        }
        drop(root);
        let records = self.omni.loki().frontend().take_query_records();
        if cold {
            self.seen.cold.absorb(&records);
            if self.probes {
                self.probe_refresh(&rendered, window);
            }
        }
        Ok(())
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
        &self.broker
    }
    fn slack(&self) -> &SlackSink {
        &self.slack
    }
    fn servicenow(&self) -> &ServiceNow {
        &self.servicenow
    }
    fn bridge_stats(&self) -> (u64, u64, u64) {
        let (pushed, errors) = self.log_bridge.stats();
        (pushed, errors, self.metric_bridge.stats())
    }
    fn bridge_dead_lettered(&self) -> u64 {
        self.log_bridge.resilience().dead_lettered + self.metric_bridge.resilience().dead_lettered
    }
    fn delivery_stats(&self) -> DeliveryStats {
        self.delivery.stats()
    }
    fn registry_families(&self) -> usize {
        self.registry.gather().len()
    }
    const SELF_TELEMETRY: bool = false;
}

/// Trace ids a notification's alerts carry (`trace_id` annotations).
fn notification_trace_ids(n: &Notification) -> Vec<u64> {
    let mut ids: Vec<u64> = n
        .alerts
        .iter()
        .flat_map(|a| a.annotations.iter())
        .filter(|(k, _)| k == "trace_id")
        .filter_map(|(_, v)| parse_trace_id(v))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build_real, run_replica};
    use crate::workloads::miniature_with_lock;

    #[test]
    fn the_staged_replica_produces_what_the_real_stack_produces() {
        let (w, _serial) = miniature_with_lock();
        let (_, real) = run_replica(&w, 3, || build_real(&w, 3));
        for probes in [false, true] {
            let rec = Recorder::new();
            let (staged, outcome) =
                run_replica(&w, 3, || Staged::build(&w, 3, rec.clone(), probes));
            assert_eq!(outcome.violations, Vec::<String>::new());
            assert_eq!(outcome.digest, real.digest, "probes={probes}");
            assert_eq!(outcome.counts.offered, real.counts.offered);
            // (TSDB sample counts differ: the real `omni-self` page is longer.)
            assert_eq!(outcome.counts.log_records_timed, real.counts.log_records_timed);
            let spans = rec.take();
            assert_eq!(spans.iter().filter(|s| s.name == "stack.step").count(), w.steps);
            assert_eq!(spans.iter().any(|s| s.probe), probes);
            let counts = staged.layer_counts();
            assert_eq!(counts.bus_messages, real.counts.offered);
            assert!(counts.delivery.retried > 0);
        }
    }

    #[test]
    fn every_group_has_top_level_spans_and_roots_have_none() {
        for name in ["bridge.log_pump", "tsdb.vmagent_scrape", "alertmanager.tick"] {
            assert!(group_of(name).is_some(), "{name}");
        }
        assert_eq!(group_of("pane.render_dashboard"), Some(Group::Query));
        assert_eq!(group_of("loki.ruler_evaluate"), Some(Group::Alert));
        assert_eq!(group_of("stack.step"), None);
        assert_eq!(group_of("bus.fetch"), None, "probe-only spans are never top level");
    }
}
