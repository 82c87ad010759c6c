//! The fully-wired monitoring stack: every box of Figure 1 connected,
//! driven by one virtual clock. The case-study examples and the
//! integration tests run scenarios through this.

use crate::bridge::{LogBridge, MetricBridge};
use crate::chaos::{ChaosAction, ChaosEngine};
use crate::omni::Omni;
use crate::pane::{Pane, ResilienceReport};
use crate::remediation::RemediationEngine;
use omni_alertmanager::{
    Alert, Alertmanager, DeliveryQueue, DeliveryStats, Notification, Route, SlackSink,
};
use omni_bus::Broker;
use omni_exporters::{
    ArubaExporter, BlackboxExporter, Exporter, GpfsExporter, KafkaExporter, NodeExporter,
    SelfExporter,
};
use omni_loki::{Limits, LokiCluster, QueryRecord, QueryReport};
use omni_model::{labels, AlertRule, RuleEngine, RuleGroup, SimClock, Timestamp, NANOS_PER_SEC};
use omni_obs::{
    families as fam, format_trace_id, parse_trace_id, tabulate, FamilyKind, Registry, Slo,
    SloBoard, TailSampling, TraceContext, TraceStore, FAST_WINDOW, SELF_FAMILIES, SLOW_WINDOW,
    TRACE_HEADER,
};
use omni_redfish::{topics, HmsCollector, RedfishEvent, SensorReading};
use omni_servicenow::{IncidentRule, ServiceNow};
use omni_shasta::{
    ContainerLogGenerator, FabricManager, FabricManagerMonitor, GpfsCluster, GpfsMonitor,
    GpfsState, LeakZone, ShastaMachine, SwitchState, SyslogGenerator,
};
use omni_telemetry::TelemetryApi;
use omni_tsdb::{Tsdb, VmAgent};
use omni_xname::{TopologySpec, XName};
use std::sync::Arc;

/// Stack construction parameters.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Machine layout.
    pub topology: TopologySpec,
    /// Loki ingester shards (the paper's cluster runs 8 workers).
    pub loki_shards: usize,
    /// Loki limits.
    pub limits: Limits,
    /// Telemetry API gateway count (the paper's cluster runs 4 VMs).
    pub gateways: usize,
    /// Bus partitions per topic.
    pub bus_partitions: usize,
    /// Deterministic seed.
    pub seed: u64,
    /// Cluster label value.
    pub cluster_name: String,
    /// omnibench compat — remove with ROADMAP item 1. Read by nothing: a
    /// step's log volumes are [`MonitoringStack::step`]'s arguments.
    pub syslog_per_step: usize,
    /// omnibench compat, read by nothing, like `syslog_per_step`.
    pub container_per_step: usize,
    /// Run the remediation playbooks automatically on firing alerts.
    pub auto_remediate: bool,
    /// omnibench compat — remove with ROADMAP item 1. Read by nothing:
    /// term discovery is a Loki query ([`Omni::discover`]).
    pub enable_discovery: bool,
    /// Extra vmalert rules wired in addition to the shipped set. Linted
    /// at boot like everything else: a typo'd metric name here fails
    /// [`MonitoringStack::try_new`] instead of silently never firing.
    pub extra_metric_rules: Vec<AlertRule>,
    /// Extra Loki ruler (LogQL) rules, linted the same way.
    pub extra_logql_rules: Vec<AlertRule>,
    /// Modeled query latency at or above which a query lands in the
    /// self-ingested slow-query log (and counts as bad for the
    /// `query-latency` SLO). The virtual clock is frozen while a query
    /// runs, so latency is priced from the query's execution statistics
    /// plus its queue wait behind other querying threads (see
    /// `modeled_query_latency_ns`).
    pub slow_query_threshold_ns: i64,
    /// Tail-sampling policy for the trace store. The default keeps every
    /// finished trace; drills tighten it to bound retention under load.
    pub trace_sampling: TailSampling,
}

impl Default for StackConfig {
    fn default() -> Self {
        Self {
            topology: TopologySpec::tiny(),
            loki_shards: 8,
            limits: Limits::default(),
            gateways: 4,
            bus_partitions: 4,
            seed: 42,
            cluster_name: "perlmutter".into(),
            syslog_per_step: 20,
            container_per_step: 10,
            auto_remediate: false,
            enable_discovery: true,
            extra_metric_rules: Vec::new(),
            extra_logql_rules: Vec::new(),
            slow_query_threshold_ns: 100_000_000, // 100ms of modeled work
            trace_sampling: TailSampling::default(),
        }
    }
}

/// Why the stack refused to come up.
#[derive(Debug)]
pub enum StackError {
    /// Static validation (omni-lint layer 1) rejected the configuration:
    /// a rule, dashboard query, route or bucket layout is wrong. The
    /// findings say exactly what and where.
    Lint(Vec<omni_lint::Finding>),
    /// A component failed while wiring (should not happen for configs
    /// that passed the lint; kept separate so the two failure classes
    /// stay distinguishable).
    Wire(String),
}

impl std::fmt::Display for StackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StackError::Lint(findings) => {
                writeln!(f, "stack config failed static validation:")?;
                for finding in findings {
                    writeln!(f, "  {finding}")?;
                }
                Ok(())
            }
            StackError::Wire(msg) => write!(f, "stack wiring failed: {msg}"),
        }
    }
}

impl std::error::Error for StackError {}

/// Modeled query execution pricing. The virtual clock does not advance
/// while a query runs (queries are instantaneous in simulation time), so
/// the slow-query log and the `query-latency` SLO price a query from the
/// statistics its execution actually produced: blocks decompressed,
/// bytes inflated, entries scanned, plus the queue wait the fair
/// scheduler measured in virtual nanoseconds. A query runs its splits in
/// order on one thread, so that wait is contention from other querying
/// threads only: a lone query's is zero.
const QUERY_COST_PER_BLOCK_NS: i64 = 200_000; // 0.2ms per decoded block
const QUERY_COST_PER_KIB_NS: i64 = 50_000; // 0.05ms per decompressed KiB
const QUERY_COST_PER_ENTRY_NS: i64 = 2_000; // 2µs per scanned entry
const QUERY_COST_PER_COLD_CHUNK_NS: i64 = 8_000_000; // 8ms per cold-tier object GET

/// Price one split's scan from its statistics (cached splits cost zero).
fn modeled_scan_cost_ns(s: &omni_loki::QueryStats) -> i64 {
    s.blocks_decoded as i64 * QUERY_COST_PER_BLOCK_NS
        + (s.decompressed_bytes as i64 / 1024) * QUERY_COST_PER_KIB_NS
        + s.entries_scanned as i64 * QUERY_COST_PER_ENTRY_NS
        + s.cold_chunks_touched as i64 * QUERY_COST_PER_COLD_CHUNK_NS
}

/// Price a whole query: its scheduler queue wait behind other querying
/// threads (zero when it queried alone) plus the scan cost of every
/// split that actually executed (cache hits are free).
fn modeled_query_latency_ns(report: &QueryReport) -> i64 {
    report.queue_wait_vns as i64
        + report
            .splits
            .iter()
            .filter(|sp| !sp.cached)
            .map(|sp| modeled_scan_cost_ns(&sp.stats))
            .sum::<i64>()
}

/// Event→incident latency at or under this is "good" for the
/// `event-to-incident` SLO: ten virtual minutes, comfortably above the
/// `for:` hold plus Alertmanager group_wait of a healthy pipeline.
const EVENT_TO_INCIDENT_TARGET_NS: i64 = 600 * NANOS_PER_SEC;

/// The shipped pipeline SLOs, evaluated as multi-window burn rates:
/// event→incident latency, modeled query latency, and alert-delivery
/// success. Objectives leave enough error budget that a healthy pipeline
/// never pages, while a forced regression burns fast enough to trip the
/// fast-window rule within its `for:` hold.
fn slo_specs() -> Vec<Slo> {
    let minute = 60 * NANOS_PER_SEC;
    vec![
        Slo {
            name: "event-to-incident".into(),
            objective: 0.99,
            fast_window_ns: 5 * minute,
            slow_window_ns: 60 * minute,
        },
        Slo {
            name: "query-latency".into(),
            objective: 0.95,
            fast_window_ns: 5 * minute,
            slow_window_ns: 60 * minute,
        },
        Slo {
            name: "alert-delivery".into(),
            objective: 0.99,
            fast_window_ns: 5 * minute,
            slow_window_ns: 60 * minute,
        },
    ]
}

/// The assembled pipeline.
pub struct MonitoringStack {
    /// Shared virtual clock.
    pub clock: SimClock,
    /// The simulated machine.
    pub machine: Arc<ShastaMachine>,
    /// HMS collector (publishes onto the bus).
    pub collector: HmsCollector,
    /// The Telemetry API fronting the bus.
    pub api: TelemetryApi,
    /// The Slingshot fabric manager.
    pub fabric: FabricManager,
    /// The GPFS scratch filesystem (§V future work).
    pub gpfs: Arc<GpfsCluster>,
    /// The OMNI warehouse (Loki + TSDB).
    pub omni: Omni,
    /// The single pane of glass.
    pub pane: Pane,
    /// Slack webhook capture.
    pub slack: SlackSink,
    /// ServiceNow instance.
    pub servicenow: ServiceNow,
    broker: Broker,
    fabric_monitor: FabricManagerMonitor,
    gpfs_monitor: GpfsMonitor,
    log_bridge: Arc<parking_lot::Mutex<LogBridge>>,
    metric_bridge: Arc<parking_lot::Mutex<MetricBridge>>,
    ruler: RuleEngine<LokiCluster>,
    vmalert: RuleEngine<Tsdb>,
    vmagent: VmAgent,
    alertmanager: Alertmanager,
    remediation: Option<RemediationEngine>,
    delivery: Arc<parking_lot::Mutex<DeliveryQueue>>,
    chaos: Arc<parking_lot::Mutex<Option<ChaosEngine>>>,
    syslog_gen: SyslogGenerator,
    container_gen: ContainerLogGenerator,
    registry: Registry,
    traces: TraceStore,
    slo: SloBoard,
    slow_query_threshold_ns: i64,
    /// Monotonic counter giving every query trace a unique context key.
    query_trace_seq: u64,
    /// Dead-lettered notifications already charged to the
    /// `alert-delivery` SLO.
    delivery_failures_seen: u64,
    notifications_dispatched: u64,
    /// Publishes a brownout bounced at the producer, replayed next step.
    publish_backlog: parking_lot::Mutex<Vec<PendingPublish>>,
}

/// A bus publish the collector could not complete (brownout), held for
/// replay so producer-side data survives too.
enum PendingPublish {
    Event {
        event: RedfishEvent,
        trace: Option<TraceContext>,
        /// When the firmware emitted the event — the `collect` span's
        /// start, so a brownout-delayed publish shows up as a gap.
        created_at: Timestamp,
    },
    Log {
        topic: &'static str,
        key: String,
        line: String,
    },
}

/// The path of Figure 1 a stage works for; `Stack` is the step's own upkeep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Log,
    Metric,
    Alert,
    Stack,
}

/// One named stage of [`MonitoringStack::step`].
#[derive(Debug)]
pub struct Stage {
    /// `<layer>.<work>`: the span name the stage is timed under.
    pub name: &'static str,
    pub group: Group,
    run: StageFn,
}

type StageFn = fn(&mut MonitoringStack, &mut StepCtx);

/// Called around every stage of [`MonitoringStack::step_observed`].
pub trait StepObserver {
    fn before(&mut self, _stage: &Stage) {}
    fn after(&mut self, _stage: &Stage) {}
}

/// No observer: what [`MonitoringStack::step`] passes.
impl StepObserver for () {}

/// What one step's stages hand each other.
#[derive(Default)]
struct StepCtx {
    now: Timestamp,
    syslog_lines: usize,
    container_lines: usize,
    readings: Vec<SensorReading>,
    /// Generated `(key, line)`s per topic, published together in order.
    lines: Vec<(&'static str, Vec<(String, String)>)>,
    fired: Vec<Alert>,
    notifications: Vec<Notification>,
}

const fn stage(name: &'static str, group: Group, run: StageFn) -> Stage {
    Stage { name, group, run }
}

/// The step, in order: the one definition of what a step does.
pub const STAGES: &[Stage] = &[
    stage("obs.count_step", Group::Stack, |s, _| fam::STEPS.counter(&s.registry, labels!()).inc()),
    // Scheduled chaos fires before anything else this step.
    stage("stack.chaos", Group::Stack, |s, c| {
        let actions = s.chaos.lock().as_mut().map(|e| e.poll(c.now)).unwrap_or_default();
        for action in actions {
            match action {
                ChaosAction::CrashShard(i) => s.omni.loki().crash_shard(i),
                ChaosAction::RecoverShard(i) => _ = s.omni.loki().recover_shard(i),
                ChaosAction::StartBrownout { from, until } => s.broker.inject_brownout(from, until),
                ChaosAction::DropSubscriptions => {
                    s.log_bridge.lock().chaos_revoke_token();
                    s.metric_bridge.lock().chaos_revoke_token();
                }
            }
        }
    }),
    // Producer-side at-least-once: replay publishes an earlier brownout
    // bounced, then the new data. Sensor readings are periodic samples and
    // regenerate next step, so they are the one stream allowed a gap.
    stage("redfish.replay_backlog", Group::Log, |s, _| {
        let backlog = std::mem::take(&mut *s.publish_backlog.lock());
        backlog.into_iter().for_each(|item| s.publish_or_buffer(item));
    }),
    stage("shasta.sample_sensors", Group::Metric, |s, c| c.readings = s.machine.sample_sensors()),
    stage("redfish.publish_readings", Group::Metric, |s, c| {
        for reading in std::mem::take(&mut c.readings) {
            let _ = s.collector.publish_reading(&reading);
        }
    }),
    stage("shasta.syslog_batch", Group::Log, |s, c| {
        c.lines.push((topics::SYSLOG, s.syslog_gen.batch(c.syslog_lines)));
    }),
    stage("shasta.container_batch", Group::Log, |s, c| {
        c.lines.push((topics::CONTAINER_LOGS, s.container_gen.batch(c.container_lines)));
    }),
    // Fabric monitor poll → event lines (Figure 7).
    stage("shasta.fabric_poll", Group::Log, |s, c| {
        let changes = s.fabric_monitor.poll().into_iter();
        let lines = changes.map(|ch| (ch.xname.to_string(), ch.to_event_line())).collect();
        c.lines.push((topics::FABRIC_HEALTH, lines));
    }),
    // GPFS monitor poll (the §V future-work path).
    stage("shasta.gpfs_poll", Group::Log, |s, c| {
        let changes = s.gpfs_monitor.poll().into_iter();
        let lines = changes.map(|ch| (ch.server.clone(), ch.to_event_line())).collect();
        c.lines.push((topics::GPFS_HEALTH, lines));
    }),
    stage("redfish.publish_logs", Group::Log, |s, c| {
        for (topic, lines) in c.lines.drain(..) {
            for (key, line) in lines {
                s.publish_or_buffer(PendingPublish::Log { topic, key, line });
            }
        }
    }),
    // The bridges pull the Telemetry API forward into the stores. Their
    // mutexes are shared with the self-scrape collectors, which lock them
    // at every gather (`register_self_collectors`).
    stage("bridge.log_pump", Group::Log, |s, c| _ = s.log_bridge.lock().pump(c.now)),
    stage("bridge.metric_pump", Group::Metric, |s, _| _ = s.metric_bridge.lock().pump()),
    stage("tsdb.vmagent_scrape", Group::Metric, |s, c| s.vmagent.scrape_once(c.now)),
    // Store maintenance: seal aged heads, then move sealed chunks older
    // than an hour to the disk tier ("chunks are first stored in memory,
    // and then moved to disk").
    stage("loki.tick", Group::Log, |s, _| s.omni.loki().tick()),
    // Seal fill ratios, and the bytes each query-frontend cache hit since
    // the last step avoided re-scanning.
    stage("obs.loki_histograms", Group::Stack, |s, _| {
        let fill = fam::CHUNK_FILL_RATIO.histogram(&s.registry, labels!());
        s.omni.loki().take_seal_fill_ratios().into_iter().for_each(|r| fill.observe(r));
        let saved = fam::FRONTEND_BYTES_SAVED.histogram(&s.registry, labels!());
        let bytes = s.omni.loki().frontend().take_bytes_saved();
        bytes.into_iter().for_each(|b| saved.observe(b as f64));
    }),
    stage("loki.offload", Group::Log, |s, _| _ = s.omni.loki().offload(3_600 * NANOS_PER_SEC)),
    // The compactor wakes on its own virtual-clock cadence
    // (`compaction_interval_ns`): merges cold sealed chunks into the
    // compacted tier, dedups replayed duplicates, executes retention
    // deletes.
    stage("loki.compact", Group::Log, |s, _| _ = s.omni.loki().maybe_compact()),
    stage("obs.introspect_queries", Group::Stack, |s, c| s.introspect_queries(c.now)),
    // Both engines evaluate before the first alert is received.
    stage("loki.ruler_evaluate", Group::Alert, |s, c| c.fired = s.ruler.evaluate(c.now)),
    stage("tsdb.vmalert_evaluate", Group::Alert, |s, c| c.fired.extend(s.vmalert.evaluate(c.now))),
    stage("obs.correlate_alert", Group::Alert, |s, c| {
        c.fired.iter_mut().for_each(|alert| s.correlate_alert(alert, c.now));
    }),
    stage("alertmanager.receive", Group::Alert, |s, c| {
        c.fired.drain(..).for_each(|alert| s.alertmanager.receive(alert, c.now));
    }),
    stage("alertmanager.tick", Group::Alert, |s, c| c.notifications = s.alertmanager.tick(c.now)),
    stage("obs.trace_notifications", Group::Alert, |s, c| {
        for n in &c.notifications {
            s.notifications_dispatched += 1;
            let receiver = labels!("receiver" => n.receiver.clone());
            fam::NOTIFICATIONS.counter(&s.registry, receiver).inc();
            for (id, _) in notification_traces(n) {
                let note = format!("grouped, notified {}", n.receiver);
                s.traces.end_span(id, "alertmanager", c.now, &note);
                // Closed on delivery success; retries stretch the span.
                s.traces.begin_span(id, &format!("deliver_{}", n.receiver), c.now, "enqueued");
            }
        }
    }),
    stage("stack.remediate", Group::Alert, |s, c| {
        if let Some(engine) = &mut s.remediation {
            c.notifications.iter().for_each(|n| _ = engine.handle(n, c.now));
        }
    }),
    // At-least-once delivery to the receivers.
    stage("alertmanager.enqueue", Group::Alert, |s, c| {
        let mut queue = s.delivery.lock();
        c.notifications.iter().for_each(|n| queue.enqueue(n.clone()));
    }),
    stage("alertmanager.delivery_pump", Group::Alert, |s, c| s.pump_delivery(c.now)),
];

impl MonitoringStack {
    /// Wire up the whole Figure 1 pipeline.
    ///
    /// Panics if the config fails static validation — the shipped
    /// default always passes (`omni-lint`'s own tests pin that), so this
    /// is the convenient constructor for tests and examples. Use
    /// [`try_new`] when wiring user-supplied rules.
    ///
    /// [`try_new`]: MonitoringStack::try_new
    pub fn new(config: StackConfig) -> Self {
        // Invariant: only reachable with a config that fails the lint,
        // which the shipped defaults cannot. lint:allow(no-unwrap)
        Self::try_new(config).expect("stack config failed static validation")
    }

    /// The layer-1 lint configuration for this stack: everything
    /// [`omni_lint::shipped_config`] covers, plus the provisioned
    /// dashboards, the stack's extra histogram layouts, and any extra
    /// rules the config carries.
    fn lint_config(config: &StackConfig) -> omni_lint::LintConfig {
        use crate::pane::{Dashboard, PaneQuery};
        use omni_lint::{NamedQuery, QueryLang};

        let mut lint = omni_lint::shipped_config();
        for dash in [
            Dashboard::leak_detection(),
            Dashboard::pipeline_health(),
            Dashboard::fabric_health(),
            Dashboard::pipeline_slo(),
            Dashboard::component_heatmap(),
        ] {
            for panel in &dash.panels {
                let (lang, query) = match &panel.query {
                    PaneQuery::Logs(q) | PaneQuery::LogMetric(q) => (QueryLang::LogQl, q.clone()),
                    PaneQuery::Metric(q) => (QueryLang::PromQl, q.clone()),
                    // A heatmap's inner query is plain LogQL; the rollup
                    // runs after evaluation and needs no linting.
                    PaneQuery::Heatmap(spec) => (QueryLang::LogQl, spec.expr.clone()),
                };
                lint.queries.push(NamedQuery {
                    source: format!("dashboard:{}:{}", dash.title, panel.title),
                    lang,
                    query,
                });
            }
        }
        for row in SELF_FAMILIES {
            if let FamilyKind::Histogram(bounds) = row.kind {
                lint.buckets.push((format!("stack:{}", row.name), bounds.to_vec()));
            }
        }
        lint.add_rules(QueryLang::PromQl, config.extra_metric_rules.iter().cloned());
        lint.add_rules(QueryLang::LogQl, config.extra_logql_rules.iter().cloned());
        lint
    }

    /// Statically validate the configuration, then wire up the pipeline.
    ///
    /// Runs `omni-lint`'s layer-1 analysis over everything this stack is
    /// about to wire — the shipped vmalert and ruler rules, the routing
    /// tree, the provisioned dashboards, the histogram bucket layouts and
    /// the config's extra rules — and refuses to boot on any finding
    /// ([`StackError::Lint`]). A misspelled metric in an alert rule is an
    /// error at construction, not an alert that never fires.
    pub fn try_new(config: StackConfig) -> Result<Self, StackError> {
        let findings = omni_lint::analyze(&Self::lint_config(&config));
        if !findings.is_empty() {
            return Err(StackError::Lint(findings));
        }

        let clock = SimClock::starting_at(0);
        // Self-telemetry: one registry on the shared clock, one trace
        // store seeded like everything else so ids replay byte-identically.
        let registry = Registry::new(clock.clone());
        let traces = TraceStore::with_sampling(config.seed, config.trace_sampling);
        // The pipeline's service-level objectives, fed from the step loop
        // and delivery pump, exported as burn-rate gauges at gather time.
        let slo = SloBoard::new();
        for spec in slo_specs() {
            slo.add(spec);
        }
        let machine =
            Arc::new(ShastaMachine::new(config.topology.clone(), clock.clone(), config.seed));
        let broker = omni_bus::Broker::new(clock.clone());
        let collector = HmsCollector::new(broker.clone(), config.bus_partitions);
        let api = TelemetryApi::new(broker.clone(), config.gateways);
        let fabric = FabricManager::new(machine.topology());
        let fabric_monitor = FabricManagerMonitor::new(fabric.clone());
        let gpfs = GpfsCluster::new("scratch", 8, 12, clock.clone(), config.seed ^ 0x6f5);
        let gpfs_monitor = GpfsMonitor::new(Arc::clone(&gpfs));
        let omni = Omni::new(config.loki_shards, config.limits.clone(), clock.clone());
        let pane = Pane::new(omni.clone());

        // Bridges (the K3s pods), shared with the registry's collectors.
        let token = api.issue_token("bridge-clients");
        let mut log_bridge =
            LogBridge::new(&api, &token, omni.clone(), &config.cluster_name, &broker)
                .map_err(|e| StackError::Wire(format!("log bridge: {e}")))?;
        log_bridge.set_tracer(traces.clone());
        log_bridge.set_batch_histogram(fam::INGEST_BATCH_SIZE.histogram(&registry, labels!()));
        let log_bridge = Arc::new(parking_lot::Mutex::new(log_bridge));
        let metric_bridge = Arc::new(parking_lot::Mutex::new(
            MetricBridge::new(&api, &token, omni.tsdb().clone(), &config.cluster_name, &broker)
                .map_err(|e| StackError::Wire(format!("metric bridge: {e}")))?,
        ));
        let delivery = Arc::new(parking_lot::Mutex::new(DeliveryQueue::with_defaults()));
        let chaos: Arc<parking_lot::Mutex<Option<ChaosEngine>>> =
            Arc::new(parking_lot::Mutex::new(None));

        // The Ruler carries the paper's case-study rules, plus any extra
        // LogQL rules the config brings (already linted above).
        let mut ruler = RuleEngine::new(omni.loki().clone());
        let mut logql_rules = AlertRule::shipped_logql_rules();
        logql_rules.extend(config.extra_logql_rules.iter().cloned());
        ruler
            .add_group(RuleGroup {
                name: "perlmutter-alerts".into(),
                interval_ns: 60 * NANOS_PER_SEC,
                rules: logql_rules,
            })
            .map_err(|e| StackError::Wire(format!("ruler group: {e}")))?;

        // vmalert: the shipped thermal / leak-sensor / GPFS metric rules
        // and the SLO burn-rate meta-alerts (the same set omni-lint
        // validates), plus the config's extras.
        let mut vmalert = RuleEngine::new(omni.tsdb().clone());
        for rule in AlertRule::shipped_rules()
            .into_iter()
            .chain(AlertRule::slo_burn_rules())
            .chain(config.extra_metric_rules.iter().cloned())
        {
            let name = rule.name.clone();
            vmalert
                .add_rule(rule)
                .map_err(|e| StackError::Wire(format!("vmalert rule {name}: {e}")))?;
        }

        // vmagent scraping the exporter fleet.
        let mut vmagent = VmAgent::new(omni.tsdb().clone());
        let cluster = config.cluster_name.as_str();
        scrape_target(&mut vmagent, cluster, NodeExporter::new(Arc::clone(&machine)));
        scrape_target(&mut vmagent, "sma-kafka", KafkaExporter::new(broker.clone()));
        let probed = vec!["https://telemetry-api".into(), "https://grafana".into()];
        scrape_target(&mut vmagent, "probes", BlackboxExporter::new(probed, clock.clone()));
        let switches = vec!["mgmt-sw1".into(), "mgmt-sw2".into()];
        scrape_target(&mut vmagent, "mgmt", ArubaExporter::new(switches, clock.clone()));
        scrape_target(&mut vmagent, "scratch", GpfsExporter::new(Arc::clone(&gpfs)));
        // The monitor monitoring itself: the registry rendered in the
        // same exposition format and scraped through the same path.
        scrape_target(&mut vmagent, cluster, SelfExporter::new(registry.clone()));

        // Alertmanager routing: critical alerts go to ServiceNow AND
        // Slack; everything else to Slack only. The tree lives next to
        // the Route type so omni-lint validates the exact object we wire.
        let alertmanager = Alertmanager::new(Route::shipped_tree());

        // ServiceNow: CMDB from the machine, incidents for critical alerts.
        let servicenow = ServiceNow::new();
        servicenow.with_cmdb(|cmdb| cmdb.load_topology(&config.cluster_name, machine.topology()));
        // Category-aware assignment: storage and fabric alerts route to
        // their teams; any other critical goes to operations.
        servicenow.add_incident_rule(IncidentRule {
            name: "storage-to-storage-team".into(),
            max_severity: 2,
            node_contains: None,
            resource: Some("storage".into()),
            assignment_group: "nersc-storage".into(),
        });
        servicenow.add_incident_rule(IncidentRule {
            name: "fabric-to-network-team".into(),
            max_severity: 2,
            node_contains: None,
            resource: Some("fabric".into()),
            assignment_group: "nersc-network".into(),
        });
        servicenow.add_incident_rule(IncidentRule {
            name: "critical-to-ops".into(),
            max_severity: 2,
            node_contains: None,
            resource: None,
            assignment_group: "nersc-ops".into(),
        });

        let remediation = config
            .auto_remediate
            .then(|| RemediationEngine::with_default_playbooks(fabric.clone(), Arc::clone(&gpfs)));
        let syslog_gen =
            SyslogGenerator::new(machine.topology().nodes(), clock.clone(), config.seed ^ 0xa5);
        let container_gen = ContainerLogGenerator::k3s_services(config.seed ^ 0x5a);

        // Absorb every component's ad-hoc counters behind the registry.
        register_self_collectors(
            &registry,
            &broker,
            &omni,
            &log_bridge,
            &metric_bridge,
            &delivery,
            &chaos,
            &servicenow,
        );
        register_introspection_collectors(&registry, &slo, &traces, &clock);

        Ok(Self {
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
            vmalert,
            vmagent,
            alertmanager,
            remediation,
            delivery,
            chaos,
            syslog_gen,
            container_gen,
            registry,
            traces,
            slo,
            slow_query_threshold_ns: config.slow_query_threshold_ns,
            query_trace_seq: 0,
            delivery_failures_seen: 0,
            notifications_dispatched: 0,
            publish_backlog: parking_lot::Mutex::new(Vec::new()),
        })
    }

    /// Install a scripted chaos engine; its faults fire inside [`step`]
    /// and its flaky-receiver coin gates every notification send.
    ///
    /// [`step`]: MonitoringStack::step
    pub fn install_chaos(&mut self, engine: ChaosEngine) {
        *self.chaos.lock() = Some(engine);
    }

    /// Advance the simulation by `dt_ns` and run one full pipeline cycle,
    /// generating `syslog_lines` and `container_lines` log lines; returns
    /// the Alertmanager notifications dispatched during this step.
    pub fn step(
        &mut self,
        dt_ns: i64,
        syslog_lines: usize,
        container_lines: usize,
    ) -> Vec<Notification> {
        self.step_observed(dt_ns, syslog_lines, container_lines, &mut ())
    }

    /// [`step`], with `obs` called around each of [`STAGES`] in order. The
    /// observer owns whatever it reads (a wall clock, an allocation
    /// counter); the stack keeps no reference to it.
    ///
    /// [`step`]: MonitoringStack::step
    pub fn step_observed(
        &mut self,
        dt_ns: i64,
        syslog_lines: usize,
        container_lines: usize,
        obs: &mut impl StepObserver,
    ) -> Vec<Notification> {
        let now = self.clock.advance(dt_ns);
        let mut ctx = StepCtx { now, syslog_lines, container_lines, ..StepCtx::default() };
        for stage in STAGES {
            obs.before(stage);
            (stage.run)(self, &mut ctx);
            obs.after(stage);
        }
        ctx.notifications
    }

    /// Drain the frontend's per-query reports and scheduler queue-wait
    /// samples into the introspection surfaces: the modeled-latency
    /// histogram (with the query's trace as exemplar), per-tenant wait
    /// histograms, scan-volume counters, the `query-latency` SLO, and —
    /// for queries at or over the slow threshold — a JSON line in the
    /// self-ingested `{job="omni-self", component="slowlog"}` stream.
    fn introspect_queries(&mut self, now: Timestamp) {
        for (tenant, wait_vns) in self.omni.loki().frontend().take_scheduler_waits() {
            fam::TENANT_QUERY_WAIT_SECONDS
                .histogram(&self.registry, labels!("tenant" => tenant.as_str()))
                .observe(wait_vns as f64 / NANOS_PER_SEC as f64);
        }
        let records = self.omni.loki().frontend().take_query_records();
        if records.is_empty() {
            return;
        }
        let latency_hist = fam::QUERY_LATENCY_SECONDS.histogram(&self.registry, labels!());
        for record in records {
            let latency_ns = modeled_query_latency_ns(&record.report);
            let slow = latency_ns >= self.slow_query_threshold_ns;
            let trace_id = self.trace_query(&record, latency_ns, now);
            latency_hist.observe_with_exemplar(latency_ns as f64 / NANOS_PER_SEC as f64, trace_id);
            let s = &record.report.stats;
            for (row, delta) in [
                (fam::QUERY_RECORDS, 1),
                (fam::QUERY_CHUNKS_TOUCHED, s.chunks_touched as u64),
                (fam::QUERY_BLOCKS_DECODED, s.blocks_decoded as u64),
                (fam::QUERY_BLOCKS_SKIPPED, s.blocks_skipped as u64),
                (fam::QUERY_BYTES_DECOMPRESSED, s.decompressed_bytes as u64),
                (fam::QUERY_COLD_CHUNKS, s.cold_chunks_touched as u64),
                (fam::QUERY_CHUNKS_CORRUPT, s.chunks_corrupt as u64),
            ] {
                row.counter(&self.registry, labels!()).add(delta);
            }
            self.slo.record("query-latency", now, !slow);
            if slow {
                fam::QUERY_SLOW.counter(&self.registry, labels!()).inc();
                // Best-effort: with every shard down the line is lost,
                // never the query itself.
                let _ = self.omni.loki().push(
                    labels!("job" => "omni-self", "component" => "slowlog"),
                    now,
                    slow_query_line(&record, latency_ns, trace_id),
                );
            }
        }
    }

    /// Build the span tree for one completed query — a `query` root with
    /// a `queue_wait` child when the query queued behind other querying
    /// threads and one `split_execute`/`split_cache_hit` child per
    /// planned split, laid out on modeled time ending at `now`
    /// — then finish the trace so tail sampling decides its fate.
    fn trace_query(&mut self, record: &QueryRecord, latency_ns: i64, now: Timestamp) -> u64 {
        self.query_trace_seq += 1;
        let key = format!("query-{}", self.query_trace_seq);
        let started = now.saturating_sub(latency_ns);
        let ctx = self.traces.begin_trace(&key, &record.query, started);
        let root = self.traces.span(
            ctx.trace_id,
            "query",
            started,
            now,
            &format!(
                "{} [{}..{}] tenant={} ({} splits: {} cached, {} executed)",
                record.query,
                record.start,
                record.end,
                record.tenant.as_str(),
                record.report.splits.len(),
                record.report.cache_hits,
                record.report.cache_misses,
            ),
        );
        let mut cursor = started;
        if record.report.queue_wait_vns > 0 {
            let end = cursor.saturating_add(record.report.queue_wait_vns as i64).min(now);
            self.traces.span_child(
                ctx.trace_id,
                root,
                "queue_wait",
                cursor,
                end,
                &format!("{} vns behind the fair scheduler", record.report.queue_wait_vns),
            );
            cursor = end;
        }
        for (i, sp) in record.report.splits.iter().enumerate() {
            if sp.cached {
                self.traces.span_child(
                    ctx.trace_id,
                    root,
                    "split_cache_hit",
                    cursor,
                    cursor,
                    &format!("split {i} [{}..{}] served from the results cache", sp.start, sp.end),
                );
            } else {
                let end = cursor.saturating_add(modeled_scan_cost_ns(&sp.stats)).min(now);
                self.traces.span_child(
                    ctx.trace_id,
                    root,
                    "split_execute",
                    cursor,
                    end,
                    &format!(
                        "split {i} [{}..{}]: {} entries, {} blocks decoded, {} skipped",
                        sp.start,
                        sp.end,
                        sp.stats.entries_scanned,
                        sp.stats.blocks_decoded,
                        sp.stats.blocks_skipped,
                    ),
                );
                cursor = end;
            }
        }
        self.traces.finish(ctx.trace_id);
        ctx.trace_id
    }

    /// Tie an alert back to the trace of the event that raised it: the
    /// Redfish `Context` xname is the correlation key. Adds the
    /// `alert_rule` span (held `for:` window included) and a `trace_id`
    /// annotation that rides to every receiver.
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
        // Open until the alertmanager flushes the group (group_wait).
        self.traces.begin_span(id, "alertmanager", now, "received");
        if !alert.annotations.iter().any(|(k, _)| k == "trace_id") {
            alert.annotations.push(("trace_id".into(), format_trace_id(id)));
        }
    }

    /// Attempt every due notification send, with the chaos engine's flaky
    /// receivers deciding which attempts fail. Successful sends close the
    /// per-receiver delivery spans. Each ServiceNow delivery gives every
    /// trace it carries a `servicenow_incident` span (once per trace)
    /// naming the incident bound to the trace's alert, and feeds the
    /// event→incident latency histogram and SLO once per trace per
    /// delivery — on every delivery, not once per opened incident
    /// (ROADMAP item 6).
    fn pump_delivery(&mut self, now: i64) {
        let chaos = Arc::clone(&self.chaos);
        let slack = self.slack.clone();
        let servicenow = self.servicenow.clone();
        let traces = self.traces.clone();
        let slo = self.slo.clone();
        let latency = fam::EVENT_TO_INCIDENT_SECONDS.histogram(&self.registry, labels!());
        self.delivery.lock().pump(now, |n| {
            if let Some(c) = chaos.lock().as_mut() {
                if c.should_fail_send(&n.receiver, now) {
                    return false;
                }
            }
            let traced = notification_traces(n);
            match n.receiver.as_str() {
                "slack" => {
                    slack.deliver(n);
                }
                "servicenow" => {
                    let bound = servicenow.receive_notification(n, now);
                    for &(id, alert) in &traced {
                        let incident = bound[alert].as_deref().unwrap_or("no incident");
                        traces.span_once(id, "servicenow_incident", now, now, incident);
                        if let Some(ns) = traces.latency_ns(id) {
                            // The event's trace rides along as the
                            // exemplar for the latency bucket it lands in.
                            latency.observe_with_exemplar(ns as f64 / NANOS_PER_SEC as f64, id);
                            slo.record("event-to-incident", now, ns <= EVENT_TO_INCIDENT_TARGET_NS);
                        }
                    }
                }
                _ => {}
            }
            for &(id, _) in &traced {
                traces.end_span(id, &format!("deliver_{}", n.receiver), now, "delivered");
            }
            slo.record("alert-delivery", now, true);
            true
        });
        // At-least-once semantics: a failed attempt that will retry is
        // not an SLO violation — exhausting the retry budget is. Charge
        // only freshly dead-lettered notifications as bad events.
        let failed = self.delivery.lock().stats().permanently_failed;
        if failed > self.delivery_failures_seen {
            self.slo.record_many("alert-delivery", now, 0, failed - self.delivery_failures_seen);
            self.delivery_failures_seen = failed;
        }
    }

    fn publish_or_buffer(&self, item: PendingPublish) {
        let result = match &item {
            PendingPublish::Event { event, trace, created_at } => {
                let headers =
                    trace.map(|t| vec![(TRACE_HEADER.to_string(), t.encode())]).unwrap_or_default();
                let published =
                    self.collector.publish_event_with_headers(event, headers).map(|_| ());
                if published.is_ok() {
                    if let Some(t) = trace {
                        // First emission to eventual publish: a brownout
                        // that buffered the event shows as a gap here.
                        self.traces.span_once(
                            t.trace_id,
                            "collect",
                            *created_at,
                            self.clock.now(),
                            "redfish event published to bus",
                        );
                    }
                }
                published
            }
            // The bus copies the line; the `String` stays for the backlog.
            PendingPublish::Log { topic, key, line } => {
                self.collector.publish_log(topic, key, line.as_str()).map(|_| ())
            }
        };
        if result.is_err() {
            self.publish_backlog.lock().push(item);
        }
    }

    /// Inject the paper's case-study-A fault: a cabinet leak. The Redfish
    /// event is published through the HMS collector like the real firmware
    /// would, carrying a fresh trace context as a message header.
    pub fn inject_leak(&self, chassis: XName, sensor: char, zone: LeakZone) -> RedfishEvent {
        let event = self.machine.inject_leak(chassis, sensor, zone);
        let trace = self.traces.begin_trace(
            &event.context.to_string(),
            &event.message_id,
            self.clock.now(),
        );
        // Buffered like every other publish: a brownout delays the event,
        // it never loses it.
        self.publish_or_buffer(PendingPublish::Event {
            event: event.clone(),
            trace: Some(trace),
            created_at: self.clock.now(),
        });
        event
    }

    /// Inject the case-study-B fault: a switch going offline/unknown.
    pub fn take_switch_offline(&self, switch: XName, state: SwitchState) {
        self.fabric.set_switch_state(switch, state);
    }

    /// Inject a GPFS fault: degrade or fail an NSD server.
    pub fn fail_gpfs_server(&self, server: &str, state: GpfsState) {
        self.gpfs.set_server_state(server, state);
    }

    /// Notifications dispatched so far.
    pub fn notifications_dispatched(&self) -> u64 {
        self.notifications_dispatched
    }

    /// Alertmanager `(received, notified, suppressed)`.
    pub fn alertmanager_stats(&self) -> (u64, u64, u64) {
        self.alertmanager.stats()
    }

    /// The alertmanager (for silences / inhibition configuration).
    pub fn alertmanager_mut(&mut self) -> &mut Alertmanager {
        &mut self.alertmanager
    }

    /// The remediation journal (empty unless `auto_remediate` is on).
    pub fn remediation_journal(&self) -> &[crate::remediation::RemediationEvent] {
        self.remediation.as_ref().map(|e| e.journal()).unwrap_or(&[])
    }

    /// Bridge statistics `(log records pushed, log errors, metric records)`.
    pub fn bridge_stats(&self) -> (u64, u64, u64) {
        let (pushed, errors) = self.log_bridge.lock().stats();
        (pushed, errors, self.metric_bridge.lock().stats())
    }

    /// At-least-once notification delivery counters.
    pub fn delivery_stats(&self) -> DeliveryStats {
        self.delivery.lock().stats()
    }

    /// Notifications that exhausted their delivery retries.
    pub fn dead_letter_notifications(&self) -> Vec<Notification> {
        self.delivery.lock().dead_letters().to_vec()
    }

    /// The broker (for bus-level inspection and manual fault injection).
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The self-telemetry registry — rendered by the `omni-self` scrape
    /// job and queryable directly for tests and tooling.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The trace store holding every traced event's journey.
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// The SLO board — snapshot it for burn rates and budgets.
    pub fn slos(&self) -> &SloBoard {
        &self.slo
    }

    /// Assemble the operator resilience panel: Loki crash/WAL counters,
    /// per-topic bus stats, bridge redelivery counters, notification
    /// delivery counters and what the chaos engine injected.
    pub fn resilience_report(&self) -> ResilienceReport {
        let bus = self
            .broker
            .topics()
            .into_iter()
            .filter_map(|t| self.broker.stats(&t).ok().map(|s| (t, s)))
            .collect();
        ResilienceReport {
            loki: self.omni.loki().resilience(),
            bus,
            log_bridge: self.log_bridge.lock().resilience(),
            metric_bridge: self.metric_bridge.lock().resilience(),
            delivery: self.delivery.lock().stats(),
            chaos: self.chaos.lock().as_ref().map(|c| c.stats()),
        }
    }
}

/// Registers `exporter` with vmagent under its own job name as a page
/// target: vmagent reads the rendered text as it reads it off the wire,
/// through its scrape cache.
fn scrape_target(vmagent: &mut VmAgent, instance: &str, exporter: impl Exporter + 'static) {
    let job = exporter.job().to_string();
    let render = move |_, page: &mut String| {
        exporter.render_into(page);
        Ok(())
    };
    vmagent.add_page_target(&job, instance, Box::new(render));
}

/// Trace ids carried by a notification's alerts (the `trace_id`
/// annotation attached at rule-correlation time), deduplicated and
/// ascending, each with the index of the first alert that carries it: one
/// pass over the alerts, then one sort.
fn notification_traces(n: &Notification) -> Vec<(u64, usize)> {
    let mut traced: Vec<(u64, usize)> = n
        .alerts
        .iter()
        .enumerate()
        .flat_map(|(i, a)| a.annotations.iter().map(move |annotation| (i, annotation)))
        .filter(|(_, (k, _))| k == "trace_id")
        .filter_map(|(i, (_, v))| Some((parse_trace_id(v)?, i)))
        .collect();
    traced.sort_unstable();
    traced.dedup_by_key(|&mut (id, _)| id);
    traced
}

/// Render one slow-query log line: compact JSON carrying the query, its
/// tenant, the modeled latency, the trace id and the full statistics
/// breakdown — shaped for LogQL `| json` pipelines over the
/// `{job="omni-self", component="slowlog"}` stream.
fn slow_query_line(record: &QueryRecord, latency_ns: i64, trace_id: u64) -> String {
    let r = &record.report;
    let s = &r.stats;
    let mut line = omni_json::jsonv!({
        "query": (record.query.as_str()),
        "tenant": (record.tenant.as_str()),
        "start": (record.start),
        "end": (record.end),
        "latency_ms": (latency_ns as f64 / 1e6),
        "trace_id": (format_trace_id(trace_id)),
        "splits": (r.splits.len()),
        "cache_hits": (r.cache_hits),
        "cache_misses": (r.cache_misses),
        "queue_wait_vns": (r.queue_wait_vns),
        "streams_matched": (s.streams_matched),
        "entries_scanned": (s.entries_scanned),
        "bytes_scanned": (s.bytes_scanned),
        "chunks_touched": (s.chunks_touched),
        "blocks_decoded": (s.blocks_decoded),
        "blocks_skipped": (s.blocks_skipped),
        "decompressed_bytes": (s.decompressed_bytes),
    });
    // Only a read that came up short says so: these lines are themselves
    // stored in Loki, and a healthy one should cost what it always did.
    if let (omni_json::Json::Object(fields), 1..) = (&mut line, s.chunks_corrupt) {
        fields.push(("chunks_corrupt".to_string(), s.chunks_corrupt.into()));
    }
    line.dump()
}

/// Register the introspection collectors: SLO burn-rate/budget gauges
/// snapshotted from the board at gather time, and the trace store's
/// tail-sampling outcome counters.
fn register_introspection_collectors(
    registry: &Registry,
    slo: &SloBoard,
    traces: &TraceStore,
    clock: &SimClock,
) {
    {
        let slo = slo.clone();
        let clock = clock.clone();
        registry.register_collector(move || {
            let snaps = slo.snapshot(clock.now());
            let mut out = tabulate(
                [fam::SLO_BURN_RATE],
                snaps.iter().flat_map(|s| {
                    let l = |window| labels!("slo" => s.name.clone(), "window" => window);
                    [(l(FAST_WINDOW), [s.fast_burn]), (l(SLOW_WINDOW), [s.slow_burn])]
                }),
            );
            out.extend(tabulate(
                [fam::SLO_OBJECTIVE, fam::SLO_ERROR_BUDGET_REMAINING],
                snaps
                    .iter()
                    .map(|s| (labels!("slo" => s.name.clone()), [s.objective, s.budget_remaining])),
            ));
            out
        });
    }
    {
        let traces = traces.clone();
        registry.register_collector(move || {
            let s = traces.sample_stats();
            vec![
                fam::TRACE_KEPT.single((s.kept_error + s.kept_slow + s.kept_sampled) as f64),
                fam::TRACE_DROPPED.single((s.dropped + s.evicted) as f64),
            ]
        });
    }
}

/// Register gather-time collectors that absorb every component's ad-hoc
/// counters (bus topic stats, Loki resilience, bridge redelivery,
/// delivery-queue stats, chaos stats, ServiceNow totals) into the one
/// registry, without those components knowing about it.
#[allow(clippy::too_many_arguments)]
fn register_self_collectors(
    registry: &Registry,
    broker: &Broker,
    omni: &Omni,
    log_bridge: &Arc<parking_lot::Mutex<LogBridge>>,
    metric_bridge: &Arc<parking_lot::Mutex<MetricBridge>>,
    delivery: &Arc<parking_lot::Mutex<DeliveryQueue>>,
    chaos: &Arc<parking_lot::Mutex<Option<ChaosEngine>>>,
    servicenow: &ServiceNow,
) {
    {
        let broker = broker.clone();
        registry.register_collector(move || {
            let mut out = tabulate(
                [
                    fam::BUS_MESSAGES_IN,
                    fam::BUS_BYTES_OUT,
                    fam::BUS_PRODUCE_RETRIES,
                    fam::BUS_CONSUMER_LAG,
                ],
                broker.topics().into_iter().filter_map(|topic| {
                    let s = broker.stats(&topic).ok()?;
                    let values = [
                        s.messages_in as f64,
                        s.bytes_out as f64,
                        s.produce_retries as f64,
                        s.consumer_lag as f64,
                    ];
                    Some((labels!("topic" => topic), values))
                }),
            );
            out.push(fam::BUS_UNAVAILABLE.single(if broker.brownout_active() { 1.0 } else { 0.0 }));
            out
        });
    }
    {
        let omni = omni.clone();
        registry.register_collector(move || {
            let r = omni.loki().resilience();
            vec![
                fam::LOKI_SHARDS_UP.single(r.shards_up as f64),
                fam::LOKI_SHARDS_DOWN.single((r.shards_total - r.shards_up) as f64),
                fam::LOKI_CRASHES.single(r.crashes as f64),
                fam::LOKI_WAL_REPLAYED.single(r.replayed_records as f64),
                fam::LOKI_REROUTED.single(r.rerouted_records as f64),
                // Appended ever, not held: held falls at every checkpoint,
                // which a counter must not.
                fam::LOKI_WAL_RECORDS.single((r.wal_records + r.wal_checkpoint_drops) as f64),
                fam::LOKI_WAL_CORRUPT_SEGMENTS.single(r.wal_segments_corrupt as f64),
            ]
        });
    }
    {
        // Compactor + tiered-storage telemetry: how the background job is
        // reshaping the store, and what the cold tier costs queries.
        let omni = omni.clone();
        registry.register_collector(move || {
            let c = omni.loki().compactor().stats();
            let store = omni.loki().chunk_store();
            vec![
                fam::COMPACTOR_RUNS.single(c.runs as f64),
                fam::COMPACTOR_CHUNKS_MERGED.single(c.chunks_merged as f64),
                fam::COMPACTOR_OBJECTS_WRITTEN.single(c.objects_written as f64),
                fam::COMPACTOR_DUPLICATES_DROPPED.single(c.duplicates_dropped as f64),
                fam::COMPACTOR_RETENTION_DELETED.single(c.retention_deleted as f64),
                fam::COMPACTOR_HOT_OBJECTS.single(store.objects().object_count() as f64),
                fam::COMPACTOR_COLD_OBJECTS.single(store.cold().object_count() as f64),
                fam::COMPACTOR_COLD_BYTES.single(store.cold().stored_bytes() as f64),
                fam::COMPACTOR_COLD_TRANSIENT_FAILURES
                    .single(store.cold().transient_failures() as f64),
            ]
        });
    }
    {
        let omni = omni.clone();
        registry.register_collector(move || {
            let f = omni.loki().frontend().stats();
            vec![
                fam::FRONTEND_SPLITS.single(f.splits_total as f64),
                fam::FRONTEND_CACHE_HITS.single(f.cache_hits as f64),
                fam::FRONTEND_CACHE_MISSES.single(f.cache_misses as f64),
                fam::FRONTEND_REJECTED.single(f.rejected_total as f64),
                fam::FRONTEND_CACHED_ENTRIES.single(f.cached_entries as f64),
                fam::FRONTEND_PUSHDOWN_QUERIES.single(f.pushdown_queries as f64),
                fam::FRONTEND_PUSHDOWN_PARTIALS.single(f.pushdown_partials as f64),
                fam::FRONTEND_PUSHDOWN_ENTRIES_SAVED.single(f.pushdown_entries_saved as f64),
            ]
        });
    }
    {
        // Per-tenant admission ledger and fairness telemetry.
        let omni = omni.clone();
        registry.register_collector(move || {
            let mut out = tabulate(
                [
                    fam::TENANT_INGEST_OFFERED,
                    fam::TENANT_INGEST_ACCEPTED,
                    fam::TENANT_INGEST_REJECTED,
                    fam::TENANT_QUERIES_OFFERED,
                    fam::TENANT_QUERIES_REJECTED,
                    fam::TENANT_ACTIVE_STREAMS,
                ],
                omni.loki().tenant_snapshots().into_iter().map(|s| {
                    let values = [
                        s.ingest_offered as f64,
                        s.ingest_accepted as f64,
                        s.ingest_rejected as f64,
                        s.queries_offered as f64,
                        s.queries_rejected as f64,
                        s.active_streams as f64,
                    ];
                    (labels!("tenant" => s.tenant.as_str()), values)
                }),
            );
            out.extend(tabulate(
                [fam::TENANT_QUERY_WAIT_ROUNDS],
                omni.loki()
                    .frontend()
                    .scheduler_stats()
                    .max_wait_rounds
                    .into_iter()
                    .map(|(tenant, wait)| (labels!("tenant" => tenant.as_str()), [wait as f64])),
            ));
            out
        });
    }
    {
        let log = Arc::clone(log_bridge);
        let metric = Arc::clone(metric_bridge);
        registry.register_collector(move || {
            let pairs = [("log", log.lock().resilience()), ("metric", metric.lock().resilience())];
            tabulate(
                [
                    fam::BRIDGE_FETCH_RETRIES,
                    fam::BRIDGE_RESUBSCRIBES,
                    fam::BRIDGE_INGEST_RETRIES,
                    fam::BRIDGE_DEAD_LETTER,
                    fam::BRIDGE_IN_FLIGHT,
                ],
                pairs.map(|(name, r)| {
                    let values = [
                        r.fetch_retries as f64,
                        r.resubscribes as f64,
                        r.ingest_retries as f64,
                        r.dead_lettered as f64,
                        r.in_flight as f64,
                    ];
                    (labels!("bridge" => name), values)
                }),
            )
        });
    }
    {
        let delivery = Arc::clone(delivery);
        registry.register_collector(move || {
            let d = delivery.lock().stats();
            vec![
                fam::DELIVERY_ENQUEUED.single(d.enqueued as f64),
                fam::DELIVERY_ATTEMPTS.single(d.attempts as f64),
                fam::DELIVERY_DELIVERED.single(d.delivered as f64),
                fam::DELIVERY_RETRIED.single(d.retried as f64),
                fam::DELIVERY_FAILED.single(d.permanently_failed as f64),
                fam::DELIVERY_CIRCUIT_OPENS.single(d.circuit_opens as f64),
                fam::DELIVERY_CIRCUIT_CLOSES.single(d.circuit_closes as f64),
                fam::DELIVERY_QUEUE_DEPTH.single(d.queue_depth as f64),
            ]
        });
    }
    {
        let chaos = Arc::clone(chaos);
        registry.register_collector(move || {
            let Some(s) = chaos.lock().as_ref().map(|c| c.stats()) else { return Vec::new() };
            vec![
                fam::CHAOS_ACTIONS.single(s.actions_fired as f64),
                fam::CHAOS_FLAKY_ROLLS.single(s.flaky_rolls as f64),
                fam::CHAOS_FLAKY_FAILURES.single(s.flaky_failures as f64),
            ]
        });
    }
    {
        let sn = servicenow.clone();
        registry.register_collector(move || {
            vec![
                fam::SERVICENOW_EVENTS.single(sn.events_received() as f64),
                fam::SERVICENOW_INCIDENTS.single(sn.incident_count() as f64),
            ]
        });
    }
}

/// A copy of a rule engine's alert, under the two names the read-only
/// `omnibench/src/staged.rs` spells (omnibench compat — remove with
/// ROADMAP item 1).
pub fn ruler_to_alert(alert: &Alert) -> Alert {
    alert.clone()
}
pub use ruler_to_alert as vmalert_to_alert;

#[cfg(test)]
mod tests {
    use super::*;

    fn minute() -> i64 {
        60 * NANOS_PER_SEC
    }

    #[test]
    fn stages_run_in_the_documented_order() {
        use Group::{Log, Metric, Stack};
        let alert = Group::Alert;
        let expected = [
            ("obs.count_step", Stack),
            ("stack.chaos", Stack),
            ("redfish.replay_backlog", Log),
            ("shasta.sample_sensors", Metric),
            ("redfish.publish_readings", Metric),
            ("shasta.syslog_batch", Log),
            ("shasta.container_batch", Log),
            ("shasta.fabric_poll", Log),
            ("shasta.gpfs_poll", Log),
            ("redfish.publish_logs", Log),
            ("bridge.log_pump", Log),
            ("bridge.metric_pump", Metric),
            ("tsdb.vmagent_scrape", Metric),
            ("loki.tick", Log),
            ("obs.loki_histograms", Stack),
            ("loki.offload", Log),
            ("loki.compact", Log),
            ("obs.introspect_queries", Stack),
            ("loki.ruler_evaluate", alert),
            ("tsdb.vmalert_evaluate", alert),
            ("obs.correlate_alert", alert),
            ("alertmanager.receive", alert),
            ("alertmanager.tick", alert),
            ("obs.trace_notifications", alert),
            ("stack.remediate", alert),
            ("alertmanager.enqueue", alert),
            ("alertmanager.delivery_pump", alert),
        ];
        let actual: Vec<_> = STAGES.iter().map(|s| (s.name, s.group)).collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn an_observer_sees_every_stage_once_in_order() {
        struct Seen(Vec<(&'static str, bool)>);
        impl StepObserver for Seen {
            fn before(&mut self, stage: &Stage) {
                self.0.push((stage.name, true));
            }
            fn after(&mut self, stage: &Stage) {
                self.0.push((stage.name, false));
            }
        }
        let mut stack = MonitoringStack::new(StackConfig::default());
        let mut seen = Seen(Vec::new());
        stack.step_observed(minute(), 5, 5, &mut seen);
        let expected: Vec<_> =
            STAGES.iter().flat_map(|s| [(s.name, true), (s.name, false)]).collect();
        assert_eq!(seen.0, expected);
        assert_eq!(stack.clock.now(), minute(), "the clock moved once");
    }

    #[test]
    fn slow_query_line_reports_corrupt_chunks_only_when_there_are_any() {
        let mut record = QueryRecord {
            tenant: omni_model::TenantId::new("t"),
            query: "{a=\"b\"}".into(),
            start: 0,
            end: 1,
            report: Default::default(),
        };
        assert!(!slow_query_line(&record, 0, 0).contains("chunks_corrupt"));
        record.report.stats.chunks_corrupt = 2;
        assert!(slow_query_line(&record, 0, 0).ends_with(r#","chunks_corrupt":2}"#));
    }

    #[test]
    fn boot_fails_fast_on_invalid_extra_rule() {
        let mut config = StackConfig::default();
        config.extra_metric_rules.push(AlertRule {
            name: "TypoAlert".into(),
            // "temprature" is not an emittable metric — the catalog
            // cross-check must catch the typo at boot.
            expr: "max by (xname) (shasta_temprature_celsius) > 90".into(),
            for_ns: 60 * NANOS_PER_SEC,
            labels: omni_model::LabelSet::from_pairs([("severity", "critical")]),
            annotations: vec![],
        });
        let err = match MonitoringStack::try_new(config) {
            Err(e) => e,
            Ok(_) => panic!("typo'd rule must not boot"),
        };
        let StackError::Lint(findings) = &err else {
            panic!("expected a lint error, got: {err}");
        };
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "unknown-metric");
        assert_eq!(findings[0].file, "vmalert:TypoAlert");
        assert!(err.to_string().contains("shasta_temprature_celsius"), "{err}");
    }

    #[test]
    fn boot_refuses_an_extra_rule_reusing_an_alert_name() {
        // Same `alertname` from two rules would fingerprint as one alert
        // in Alertmanager — across engines as much as within one.
        let mut config = StackConfig::default();
        let mut clash = AlertRule::paper_switch_rule();
        clash.name = "LeakSensorWet".into();
        config.extra_logql_rules.push(clash);
        let Err(StackError::Lint(findings)) = MonitoringStack::try_new(config) else {
            panic!("a reused alert name must not boot");
        };
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "duplicate-alertname");
        assert_eq!(findings[0].file, "ruler:LeakSensorWet");
    }

    #[test]
    fn shipped_stack_config_boots_clean() {
        // The full boot-time lint surface — shipped rules, dashboards,
        // routes, bucket layouts — must stay clean.
        assert!(MonitoringStack::try_new(StackConfig::default()).is_ok());
    }

    #[test]
    fn quiet_stack_stays_quiet() {
        let mut stack = MonitoringStack::new(StackConfig::default());
        for _ in 0..5 {
            let notifs = stack.step(minute(), 5, 5);
            assert!(notifs.is_empty(), "healthy machine must not alert");
        }
        // But data flowed: logs and metrics are queryable.
        let (pushed, errors, metrics) = stack.bridge_stats();
        assert!(pushed > 0);
        assert_eq!(errors, 0);
        assert!(metrics > 0);
        let logs = stack.pane.logs(r#"{data_type="syslog"}"#, 0, stack.clock.now(), 1000).unwrap();
        assert!(!logs.is_empty());
    }

    #[test]
    fn leak_reaches_slack_and_servicenow() {
        let mut stack = MonitoringStack::new(StackConfig::default());
        stack.step(minute(), 0, 0);
        let chassis = stack.machine.topology().chassis()[3];
        stack.inject_leak(chassis, 'A', LeakZone::Front);
        // Run the pipeline long enough for the 1-minute `for:` hold and
        // the group_wait to elapse.
        for _ in 0..6 {
            stack.step(minute(), 0, 0);
        }
        assert!(!stack.slack.is_empty(), "slack should have the leak alert");
        let text = &stack.slack.messages()[0].text;
        assert!(text.contains("FIRING"), "{text}");
        assert!(text.contains("Leak") || text.contains("leak"), "{text}");
        // Critical severity routed to ServiceNow too -> incident open.
        assert!(!stack.servicenow.incidents().is_empty());
    }

    #[test]
    fn each_trace_names_the_incident_of_its_own_alert() {
        // Three leaks in one step fire together, group into one
        // ServiceNow notification and open three incidents; each leak's
        // trace names the incident its own alert opened.
        let mut stack = MonitoringStack::new(StackConfig::default());
        stack.step(minute(), 0, 0);
        let chassis = stack.machine.topology().chassis()[..3].to_vec();
        let contexts: Vec<String> = chassis
            .iter()
            .map(|&c| stack.inject_leak(c, 'A', LeakZone::Front).context.to_string())
            .collect();
        for _ in 0..6 {
            stack.step(minute(), 0, 0);
        }
        assert_eq!(stack.servicenow.incident_count(), 3);
        let alerts = stack.servicenow.alerts();
        let mut named = Vec::new();
        for node in &contexts {
            let incident = alerts
                .iter()
                .find(|a| &a.node == node)
                .and_then(|a| a.incident.clone())
                .unwrap_or_else(|| panic!("{node} opened no incident: {alerts:?}"));
            let trace = stack.traces().lookup(node).expect("the leak started a trace");
            let spans = stack.traces().spans(trace);
            let span = spans
                .iter()
                .find(|s| s.stage == "servicenow_incident")
                .unwrap_or_else(|| panic!("{node}'s trace has no servicenow_incident span"));
            assert_eq!(span.note, incident, "{node}'s trace");
            named.push(incident);
        }
        named.sort();
        named.dedup();
        assert_eq!(named.len(), 3, "three traces, three incidents: {named:?}");
    }

    #[test]
    fn switch_offline_reaches_slack() {
        let mut stack = MonitoringStack::new(StackConfig::default());
        stack.step(minute(), 0, 0);
        let switch = stack.machine.topology().switches()[1];
        stack.take_switch_offline(switch, SwitchState::Unknown);
        for _ in 0..6 {
            stack.step(minute(), 0, 0);
        }
        let msgs = stack.slack.messages();
        assert!(
            msgs.iter().any(|m| m.text.contains("PerlmutterSwitchOffline")),
            "slack messages: {msgs:?}"
        );
        assert!(msgs.iter().any(|m| m.text.contains(&switch.to_string())));
    }

    #[test]
    fn batching_self_telemetry_populates() {
        // Small chunk target so seals happen within a few steps.
        let config = StackConfig {
            limits: Limits { chunk_target_bytes: 512, ..Default::default() },
            ..StackConfig::default()
        };
        let mut stack = MonitoringStack::new(config);
        for _ in 0..3 {
            stack.step(minute(), 200, 50);
        }
        let batch = fam::INGEST_BATCH_SIZE.histogram(stack.registry(), labels!());
        assert!(batch.count() > 0, "log bridge pushed batches");
        assert!(batch.sum() > batch.count() as f64, "batches carry more than one record");
        let fill = fam::CHUNK_FILL_RATIO.histogram(stack.registry(), labels!());
        assert!(fill.count() > 0, "sealed chunks fed the fill-ratio histogram");
    }

    #[test]
    fn slow_queries_self_ingest_with_traces_and_slo() {
        // Threshold of one modeled nanosecond: every recorded query is
        // slow, so the introspection path is fully exercised.
        let config = StackConfig { slow_query_threshold_ns: 1, ..StackConfig::default() };
        let mut stack = MonitoringStack::new(config);
        for _ in 0..3 {
            stack.step(minute(), 50, 10);
        }
        // A pane log query goes through the frontend's recording path…
        let logs = stack.pane.logs(r#"{data_type="syslog"}"#, 0, stack.clock.now(), 1000).unwrap();
        assert!(!logs.is_empty());
        // …and the next step drains it into the introspection surfaces.
        stack.step(minute(), 0, 0);
        let now = stack.clock.now();
        let slowlog =
            stack.pane.logs(r#"{job="omni-self", component="slowlog"}"#, 0, now, 100).unwrap();
        assert!(!slowlog.is_empty(), "the slow query must self-ingest");
        // The line is JSON whose trace_id resolves to a retained span
        // tree with the scheduler wait / split breakdown.
        let parsed = omni_json::parse(&slowlog[0].entry.line).unwrap();
        assert_eq!(parsed.pointer("/tenant").and_then(omni_json::Json::as_str), Some("anonymous"));
        let trace_id = parsed
            .pointer("/trace_id")
            .and_then(omni_json::Json::as_str)
            .and_then(parse_trace_id)
            .expect("slow-query line carries a parseable trace id");
        let timeline = stack.traces().render_timeline(trace_id);
        assert!(!timeline.is_empty(), "trace retained");
        assert!(timeline.contains("query"), "{timeline}");
        assert!(timeline.contains("split_execute"), "{timeline}");
        // The query-latency SLO saw only bad events: its burn rate is
        // pinned at the objective's ceiling.
        let snap = stack
            .slos()
            .snapshot(now)
            .into_iter()
            .find(|s| s.name == "query-latency")
            .expect("query-latency SLO registered");
        assert!(snap.slow_total > 0);
        assert!(snap.fast_burn > 14.0, "all-bad events must torch the budget: {snap:?}");
        // The latency histogram carries the trace as an exemplar on the
        // scraped page.
        let page = SelfExporter::new(stack.registry().clone()).render();
        assert!(page.contains("# EXEMPLAR omni_query_latency_seconds_bucket"), "exemplar missing");
        assert!(page.contains(&format_trace_id(trace_id)), "exemplar links the same trace");
    }

    #[test]
    fn contended_query_trace_opens_with_its_queue_wait() {
        // No in-repo workload queues a query behind another querying
        // thread, so feed the span builder a contended record directly.
        let mut stack = MonitoringStack::new(StackConfig::default());
        let stats = omni_loki::QueryStats { entries_scanned: 10, ..Default::default() };
        let split = |start, cached| omni_loki::SplitStat {
            start,
            end: start + minute(),
            cached,
            stats,
            queue_wait_vns: if cached { 0 } else { 3_000 },
        };
        let splits = vec![split(0, true), split(minute(), false), split(2 * minute(), false)];
        let record = QueryRecord {
            tenant: omni_model::TenantId::new("t"),
            query: "{a=\"b\"}".into(),
            start: 0,
            end: 3 * minute(),
            report: QueryReport {
                stats,
                cache_hits: 1,
                cache_misses: 2,
                queue_wait_vns: 6_000,
                splits,
            },
        };
        let latency_ns = modeled_query_latency_ns(&record.report);
        let now = stack.clock.now();
        let trace_id = stack.trace_query(&record, latency_ns, now);
        let spans = stack.traces().spans(trace_id);
        let root = spans.iter().find(|s| s.stage == "query").expect("query root");
        let wait = spans.iter().find(|s| s.stage == "queue_wait").expect("queue_wait child");
        assert_eq!(wait.parent_span_id, Some(root.span_id));
        assert_eq!((wait.start, wait.end), (root.start, root.start + 6_000), "sized by the wait");
        let first_exec = spans.iter().find(|s| s.stage == "split_execute").expect("split_execute");
        assert!(wait.end <= first_exec.start, "the wait precedes the first executed split");
    }

    #[test]
    fn figure5_graph_reproduced_through_stack() {
        let mut stack = MonitoringStack::new(StackConfig::default());
        stack.step(3600 * NANOS_PER_SEC, 0, 0);
        let chassis = stack.machine.topology().chassis()[0];
        stack.inject_leak(chassis, 'A', LeakZone::Front);
        let event_time = stack.clock.now();
        stack.step(minute(), 0, 0);
        let matrix = stack
            .pane
            .log_metric_range(
                r#"sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (Severity, cluster, Context, MessageId)"#,
                0,
                stack.clock.now(),
                10 * minute(),
            )
            .unwrap();
        assert_eq!(matrix.len(), 1);
        let (labels, samples) = &matrix[0];
        assert_eq!(labels.get("Severity"), Some("Warning"));
        assert_eq!(labels.get("cluster"), Some("perlmutter"));
        // 0 before the event, 1 after (within the 60m window).
        assert!(
            samples.iter().any(|s| s.ts < event_time && s.value == 0.0)
                || samples.iter().all(|s| s.ts >= event_time || s.value == 0.0)
        );
        assert!(samples.iter().any(|s| s.value == 1.0));
    }
}
