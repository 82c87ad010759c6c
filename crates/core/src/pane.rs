//! The "single pane of glass": one query surface over logs and metrics.
//!
//! "Even though metrics and logs are stored separately, they are unified
//! in the stage of visualization and alerting" (§III). [`Pane`] is the
//! Grafana stand-in: LogQL goes to Loki, PromQL to the TSDB, and
//! [`Dashboard`] renders a text view of both — what the paper's Figures
//! 4, 5 and 7 show as Grafana panels.

use crate::omni::Omni;
use omni_logql::eval::{step_grid, GridError};
use omni_logql::{InstantVector, Matrix};
use omni_model::{format_iso8601, LogRecord, Timestamp};
use omni_tsdb::{eval_instant, eval_range, parse_promql};
use omni_xname::{ComponentKind, XName};
use std::collections::BTreeMap;

/// A component × time-bucket heatmap over a LogQL metric query — the
/// CloudHeatMap-style rendering that scales to thousands of Shasta
/// components: one row per hardware ancestor, one column per render
/// step, cell intensity the summed series value.
#[derive(Debug, Clone)]
pub struct HeatmapSpec {
    /// The LogQL metric query; its result series must carry `label`.
    /// Decomposable aggregations (`sum by (xname) (rate(...))`) ride the
    /// frontend's shard pushdown, so the fleet-wide matrix moves
    /// per-shard partials, not entries.
    pub expr: String,
    /// The series label holding the component xname.
    pub label: String,
    /// The hierarchy level rows are rolled up to: series whose xname
    /// sits below it merge into their ancestor's row (a node's events
    /// land on its cabinet row when rolling up to `Cabinet`). Series
    /// with no such ancestor — or an unparseable label — keep their own
    /// row rather than being dropped.
    pub rollup: ComponentKind,
}

/// A query against the pane.
#[derive(Debug, Clone)]
pub enum PaneQuery {
    /// LogQL log query → log lines (Figure 4 / Figure 7 panels).
    Logs(String),
    /// LogQL metric query → series (Figure 5's graph).
    LogMetric(String),
    /// PromQL metric query → series.
    Metric(String),
    /// LogQL metric query → component × time-bucket heatmap.
    Heatmap(HeatmapSpec),
}

/// One dashboard panel.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Panel title.
    pub title: String,
    /// The query.
    pub query: PaneQuery,
}

/// A dashboard: titled panels on one screen.
#[derive(Debug, Clone)]
pub struct Dashboard {
    /// Dashboard title.
    pub title: String,
    /// The panels.
    pub panels: Vec<Panel>,
}

/// Errors surfaced by the pane.
#[derive(Debug)]
pub enum PaneError {
    /// LogQL-side error (a refused step grid included).
    Loki(omni_loki::QueryError),
    /// PromQL-side error.
    Prom(omni_tsdb::promql::PromParseError),
    /// A PromQL range's or a heatmap's step grid was refused.
    Grid(GridError),
}

impl std::fmt::Display for PaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PaneError::Loki(e) => write!(f, "{e}"),
            PaneError::Prom(e) => write!(f, "{e}"),
            PaneError::Grid(e) => write!(f, "bad range query: {e}"),
        }
    }
}

impl std::error::Error for PaneError {}

/// An evaluated heatmap: the component × time-bucket matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    /// Time-bucket timestamps, ascending (the render step grid).
    pub buckets: Vec<Timestamp>,
    /// One row per rolled-up component (sorted by name), holding one
    /// summed value per bucket.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Heatmap {
    /// The largest cell value (0 when empty): the intensity ceiling.
    pub fn max_value(&self) -> f64 {
        self.rows.iter().flat_map(|(_, vs)| vs).fold(0.0f64, |a, &v| a.max(v))
    }
}

/// Result of one panel evaluation.
#[derive(Debug, Clone)]
pub enum PanelData {
    /// Log lines.
    Logs(Vec<LogRecord>),
    /// Time series.
    Series(Matrix),
    /// Component × time-bucket heatmap.
    Heatmap(Heatmap),
}

impl Dashboard {
    /// Serialize to a Grafana-style dashboard JSON model (the format
    /// NERSC provisions dashboards in — "a single location to view all
    /// relevant dashboards").
    pub fn to_json(&self) -> omni_json::Json {
        use omni_json::Json;
        let panels: Vec<Json> = self
            .panels
            .iter()
            .map(|p| {
                if let PaneQuery::Heatmap(spec) = &p.query {
                    return omni_json::jsonv!({
                        "title": (p.title.clone()),
                        "type": "heatmap",
                        "targets": [{
                            "expr": (spec.expr.clone()),
                            "queryType": "loki_heatmap",
                            "label": (spec.label.clone()),
                            "rollup": (spec.rollup.as_str()),
                        }],
                    });
                }
                let (panel_type, query_type, expr) = match &p.query {
                    PaneQuery::Logs(q) => ("logs", "range", q.clone()),
                    PaneQuery::LogMetric(q) => ("timeseries", "loki_metric", q.clone()),
                    PaneQuery::Metric(q) => ("timeseries", "prometheus", q.clone()),
                    PaneQuery::Heatmap(_) => unreachable!("handled above"),
                };
                omni_json::jsonv!({
                    "title": (p.title.clone()),
                    "type": (panel_type),
                    "targets": [{"expr": (expr), "queryType": (query_type)}],
                })
            })
            .collect();
        omni_json::jsonv!({
            "title": (self.title.clone()),
            "schemaVersion": 36,
            "panels": (Json::Array(panels)),
        })
    }

    /// Parse a dashboard back from its JSON model.
    pub fn from_json(v: &omni_json::Json) -> Option<Dashboard> {
        use omni_json::Json;
        let title = v.get("title")?.as_str()?.to_string();
        let mut panels = Vec::new();
        for p in v.get("panels")?.as_array()? {
            let ptitle = p.get("title")?.as_str()?.to_string();
            let target = p.get("targets")?.idx(0)?;
            let expr = target.get("expr")?.as_str()?.to_string();
            let query = match target.get("queryType").and_then(Json::as_str)? {
                "range" => PaneQuery::Logs(expr),
                "loki_metric" => PaneQuery::LogMetric(expr),
                "prometheus" => PaneQuery::Metric(expr),
                "loki_heatmap" => PaneQuery::Heatmap(HeatmapSpec {
                    expr,
                    label: target.get("label")?.as_str()?.to_string(),
                    rollup: ComponentKind::from_name(target.get("rollup")?.as_str()?)?,
                }),
                _ => return None,
            };
            panels.push(Panel { title: ptitle, query });
        }
        Some(Dashboard { title, panels })
    }

    /// The provisioned leak-detection dashboard (case study A's panels).
    pub fn leak_detection() -> Dashboard {
        Dashboard {
            title: "Perlmutter — Leak Detection".into(),
            panels: vec![
                Panel {
                    title: "Redfish events".into(),
                    query: PaneQuery::Logs(r#"{data_type="redfish_event"}"#.into()),
                },
                Panel {
                    title: "Leaks (60m window)".into(),
                    query: PaneQuery::LogMetric(
                        r#"sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (Severity, cluster, Context, MessageId)"#.into(),
                    ),
                },
                Panel {
                    title: "Leak sensors (metric)".into(),
                    query: PaneQuery::Metric("max by (xname) (shasta_leak_bool)".into()),
                },
            ],
        }
    }

    /// The self-telemetry dashboard: the monitor monitoring itself.
    /// Every panel queries metrics the pipeline scraped from its *own*
    /// registry (the `omni-self` job), fed back through the same
    /// vmagent → TSDB → pane path as any hardware metric. The latency
    /// panel uses the registry's precomputed `_p99` gauge because the
    /// PromQL subset has no `histogram_quantile`.
    pub fn pipeline_health() -> Dashboard {
        Dashboard {
            title: "OMNI — Pipeline Health".into(),
            panels: vec![
                Panel {
                    title: "Bus availability (1 = browned out)".into(),
                    query: PaneQuery::Metric("omni_bus_unavailable".into()),
                },
                Panel {
                    title: "Consumer lag by topic".into(),
                    query: PaneQuery::Metric("max by (topic) (omni_bus_consumer_lag)".into()),
                },
                Panel {
                    title: "Loki ingester shards down".into(),
                    query: PaneQuery::Metric("omni_loki_shards_down".into()),
                },
                Panel {
                    title: "Bridge records in flight".into(),
                    query: PaneQuery::Metric("max by (bridge) (omni_bridge_in_flight)".into()),
                },
                Panel {
                    title: "Notification queue depth".into(),
                    query: PaneQuery::Metric("omni_delivery_queue_depth".into()),
                },
                Panel {
                    title: "Event → incident latency p99 (s)".into(),
                    query: PaneQuery::Metric("omni_event_to_incident_seconds_p99".into()),
                },
                Panel {
                    title: "Query-frontend cache hits".into(),
                    query: PaneQuery::Metric("omni_frontend_cache_hits_total".into()),
                },
                Panel {
                    title: "Queries rejected by per-query limits".into(),
                    query: PaneQuery::Metric("omni_frontend_rejected_total".into()),
                },
            ],
        }
    }

    /// The provisioned component-heatmap dashboard: fleet-wide event
    /// density as a component × time matrix, rolled up the xname
    /// hierarchy. Both panels are decomposable aggregations, so a
    /// refresh over every shard moves per-shard partials, not entries.
    pub fn component_heatmap() -> Dashboard {
        Dashboard {
            title: "Perlmutter — Component Heatmap".into(),
            panels: vec![
                Panel {
                    // Redfish events carry the reporting BMC's xname in
                    // the `Context` stream label (Figure 2).
                    title: "Redfish events by cabinet".into(),
                    query: PaneQuery::Heatmap(HeatmapSpec {
                        expr: r#"sum by (Context) (count_over_time({data_type="redfish_event"}[15m]))"#.into(),
                        label: "Context".into(),
                        rollup: ComponentKind::Cabinet,
                    }),
                },
                Panel {
                    // The switch xname is a pattern capture (Figure 7).
                    title: "Switch-offline rate by chassis".into(),
                    query: PaneQuery::Heatmap(HeatmapSpec {
                        expr: r#"sum by (xname) (rate({app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>" [15m]))"#.into(),
                        label: "xname".into(),
                        rollup: ComponentKind::Chassis,
                    }),
                },
            ],
        }
    }

    /// The provisioned fabric dashboard (case study B's panels).
    pub fn fabric_health() -> Dashboard {
        Dashboard {
            title: "Perlmutter — Fabric Health".into(),
            panels: vec![
                Panel {
                    title: "Switch events".into(),
                    query: PaneQuery::Logs(
                        r#"{app="fabric_manager_monitor"} |= "fm_switch_offline""#.into(),
                    ),
                },
                Panel {
                    title: "Offline switches (5m window)".into(),
                    query: PaneQuery::LogMetric(
                        r#"sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" [5m])) by (cluster)"#.into(),
                    ),
                },
            ],
        }
    }

    /// The provisioned pipeline-SLO dashboard: burn rates and error
    /// budgets for the monitor's own objectives, the modeled query
    /// latency, and the self-ingested slow-query log.
    pub fn pipeline_slo() -> Dashboard {
        Dashboard {
            title: "OMNI — Pipeline SLOs".into(),
            panels: vec![
                Panel {
                    title: "Fast-window burn rate".into(),
                    query: PaneQuery::Metric(
                        r#"max by (slo) (omni_slo_burn_rate{window="fast"})"#.into(),
                    ),
                },
                Panel {
                    title: "Slow-window burn rate".into(),
                    query: PaneQuery::Metric(
                        r#"max by (slo) (omni_slo_burn_rate{window="slow"})"#.into(),
                    ),
                },
                Panel {
                    title: "Error budget remaining".into(),
                    query: PaneQuery::Metric(
                        "max by (slo) (omni_slo_error_budget_remaining)".into(),
                    ),
                },
                Panel {
                    title: "Query latency p99 (modeled seconds)".into(),
                    query: PaneQuery::Metric("omni_query_latency_seconds_p99".into()),
                },
                Panel {
                    title: "Slow queries".into(),
                    query: PaneQuery::Logs(r#"{job="omni-self", component="slowlog"}"#.into()),
                },
                Panel {
                    title: "Slow queries (15m window)".into(),
                    query: PaneQuery::LogMetric(
                        r#"sum(count_over_time({job="omni-self", component="slowlog"} [15m])) by (component)"#.into(),
                    ),
                },
            ],
        }
    }
}

/// The query surface.
#[derive(Clone)]
pub struct Pane {
    omni: Omni,
}

impl Pane {
    /// A pane over a warehouse.
    pub fn new(omni: Omni) -> Self {
        Self { omni }
    }

    /// Evaluate a log query.
    pub fn logs(
        &self,
        query: &str,
        start: Timestamp,
        end: Timestamp,
        limit: usize,
    ) -> Result<Vec<LogRecord>, PaneError> {
        self.omni.loki().query_logs(query, start, end, limit).map_err(PaneError::Loki)
    }

    /// Evaluate a LogQL metric query over a range (Figure 5's graph).
    pub fn log_metric_range(
        &self,
        query: &str,
        start: Timestamp,
        end: Timestamp,
        step_ns: i64,
    ) -> Result<Matrix, PaneError> {
        self.omni.loki().query_range(query, start, end, step_ns).map_err(PaneError::Loki)
    }

    /// Evaluate a LogQL metric query at one instant.
    pub fn log_metric_instant(
        &self,
        query: &str,
        at: Timestamp,
    ) -> Result<InstantVector, PaneError> {
        self.omni.loki().query_instant(query, at).map_err(PaneError::Loki)
    }

    /// Evaluate a PromQL query at one instant.
    pub fn metric_instant(&self, query: &str, at: Timestamp) -> Result<InstantVector, PaneError> {
        let expr = parse_promql(query).map_err(PaneError::Prom)?;
        Ok(eval_instant(self.omni.tsdb(), &expr, at))
    }

    /// Evaluate a PromQL query over a range.
    pub fn metric_range(
        &self,
        query: &str,
        start: Timestamp,
        end: Timestamp,
        step_ns: i64,
    ) -> Result<Matrix, PaneError> {
        let expr = parse_promql(query).map_err(PaneError::Prom)?;
        eval_range(self.omni.tsdb(), &expr, start, end, step_ns).map_err(PaneError::Grid)
    }

    /// Evaluate a heatmap spec over a window: run the LogQL metric query
    /// on the render grid (`step_ns` = one time bucket), then roll each
    /// series up the xname hierarchy to the spec's level and sum cells.
    pub fn heatmap(
        &self,
        spec: &HeatmapSpec,
        start: Timestamp,
        end: Timestamp,
        step_ns: i64,
    ) -> Result<Heatmap, PaneError> {
        let buckets = step_grid(start, end, step_ns).map_err(PaneError::Grid)?;
        let matrix = self.log_metric_range(&spec.expr, start, end, step_ns)?;
        Ok(build_heatmap(spec, &matrix, buckets, step_ns))
    }

    /// Evaluate one panel over a window.
    pub fn panel(
        &self,
        panel: &Panel,
        start: Timestamp,
        end: Timestamp,
        step_ns: i64,
    ) -> Result<PanelData, PaneError> {
        match &panel.query {
            PaneQuery::Logs(q) => Ok(PanelData::Logs(self.logs(q, start, end, 100)?)),
            PaneQuery::LogMetric(q) => {
                Ok(PanelData::Series(self.log_metric_range(q, start, end, step_ns)?))
            }
            PaneQuery::Metric(q) => {
                Ok(PanelData::Series(self.metric_range(q, start, end, step_ns)?))
            }
            PaneQuery::Heatmap(spec) => {
                Ok(PanelData::Heatmap(self.heatmap(spec, start, end, step_ns)?))
            }
        }
    }

    /// Render a whole dashboard as text (the examples' output).
    pub fn render_dashboard(
        &self,
        dashboard: &Dashboard,
        start: Timestamp,
        end: Timestamp,
        step_ns: i64,
    ) -> Result<String, PaneError> {
        let mut out = String::new();
        out.push_str(&format!("══ {} ══\n", dashboard.title));
        for panel in &dashboard.panels {
            out.push_str(&format!("\n── {} ──\n", panel.title));
            match self.panel(panel, start, end, step_ns)? {
                PanelData::Logs(records) => {
                    if records.is_empty() {
                        out.push_str("  (no matching log lines)\n");
                    }
                    for r in records.iter().take(20) {
                        out.push_str(&format!(
                            "  {}  {}  {}\n",
                            format_iso8601(r.entry.ts),
                            r.labels,
                            r.entry.line
                        ));
                    }
                }
                PanelData::Series(matrix) => {
                    if matrix.is_empty() {
                        out.push_str("  (no series)\n");
                    }
                    for (labels, samples) in matrix.iter().take(10) {
                        let spark: String =
                            samples.iter().map(|s| if s.value > 0.0 { '#' } else { '_' }).collect();
                        let max = samples.iter().map(|s| s.value).fold(f64::NEG_INFINITY, f64::max);
                        out.push_str(&format!("  {labels} max={max} {spark}\n"));
                    }
                }
                PanelData::Heatmap(heatmap) => out.push_str(&render_heatmap(&heatmap)),
            }
        }
        Ok(out)
    }
}

/// Roll a matrix up the xname hierarchy into a component × bucket grid
/// over `buckets`, the render step grid. Samples land in the bucket
/// `floor((ts − start) / step)`; the engine emits samples exactly on the
/// grid, so this is the identity mapping for frontend results and a
/// sensible binning for anything else.
fn build_heatmap(
    spec: &HeatmapSpec,
    matrix: &Matrix,
    buckets: Vec<Timestamp>,
    step_ns: i64,
) -> Heatmap {
    let start = buckets.first().copied().unwrap_or_default();
    let mut rows: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (labels, samples) in matrix {
        let Some(value) = labels.get(&spec.label) else { continue };
        let row = match value.parse::<XName>() {
            Ok(x) => {
                x.ancestor_at(spec.rollup).map_or_else(|| value.to_string(), |a| a.to_string())
            }
            Err(_) => value.to_string(),
        };
        let cells = rows.entry(row).or_insert_with(|| vec![0.0; buckets.len()]);
        for s in samples {
            if s.ts < start {
                continue;
            }
            let idx = ((s.ts - start) / step_ns) as usize;
            if let Some(cell) = cells.get_mut(idx) {
                *cell += s.value;
            }
        }
    }
    Heatmap { buckets, rows: rows.into_iter().collect() }
}

/// Deterministic text rendering: one row per component, one character
/// per bucket, intensity on a fixed ramp normalized to the hottest cell.
fn render_heatmap(heatmap: &Heatmap) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    if heatmap.rows.is_empty() {
        return "  (no components)\n".into();
    }
    let max = heatmap.max_value();
    let width = heatmap.rows.iter().map(|(name, _)| name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, cells) in &heatmap.rows {
        let ramp: String = cells
            .iter()
            .map(|&v| {
                let level = if max > 0.0 && v > 0.0 {
                    // Nonzero cells start at ramp level 1 so activity is
                    // never rendered as blank.
                    (((v / max) * (RAMP.len() - 1) as f64).ceil() as usize).clamp(1, RAMP.len() - 1)
                } else {
                    0
                };
                RAMP[level] as char
            })
            .collect();
        out.push_str(&format!(
            "  {name:width$} |{ramp}| peak={}\n",
            cells.iter().fold(0.0f64, |a, &v| a.max(v))
        ));
    }
    out
}

/// One-screen summary of how the stack weathered its failures: the
/// operator panel next to the dashboards. Assembled by
/// [`crate::stack::MonitoringStack::resilience_report`]; every input runs
/// on the virtual clock and seeded jitter, so the same chaos schedule
/// renders byte-identically across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Loki crash/recovery and WAL counters.
    pub loki: omni_loki::ResilienceStats,
    /// Per-topic bus counters, sorted by topic name.
    pub bus: Vec<(String, omni_bus::TopicStatsSnapshot)>,
    /// Log-bridge redelivery counters.
    pub log_bridge: crate::bridge::BridgeResilience,
    /// Metric-bridge redelivery counters.
    pub metric_bridge: crate::bridge::BridgeResilience,
    /// Notification at-least-once delivery counters.
    pub delivery: omni_alertmanager::DeliveryStats,
    /// What the chaos engine actually injected (None when no engine).
    pub chaos: Option<crate::chaos::ChaosStats>,
}

impl ResilienceReport {
    /// Deterministic text rendering (stable field order, no wall clock).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== resilience report ==\n");
        let l = &self.loki;
        out.push_str(&format!(
            "loki: shards {}/{} up, crashes {}, replayed {}, rerouted {}, wal records {} ({} bytes), checkpoint drops {}, corrupt segments {}\n",
            l.shards_up,
            l.shards_total,
            l.crashes,
            l.replayed_records,
            l.rerouted_records,
            l.wal_records,
            l.wal_bytes,
            l.wal_checkpoint_drops,
            l.wal_segments_corrupt,
        ));
        for (name, b) in [("log bridge", &self.log_bridge), ("metric bridge", &self.metric_bridge)]
        {
            out.push_str(&format!(
                "{name}: fetch retries {}, resubscribes {}, ingest retries {}, dead-lettered {}, in-flight {}\n",
                b.fetch_retries, b.resubscribes, b.ingest_retries, b.dead_lettered, b.in_flight,
            ));
        }
        let d = &self.delivery;
        out.push_str(&format!(
            "delivery: enqueued {}, attempts {}, delivered {}, retried {}, dead-lettered {}, circuit opens {}, queue depth {}\n",
            d.enqueued,
            d.attempts,
            d.delivered,
            d.retried,
            d.permanently_failed,
            d.circuit_opens,
            d.queue_depth,
        ));
        if let Some(c) = &self.chaos {
            out.push_str(&format!(
                "chaos: actions {}, flaky rolls {}, flaky failures {}\n",
                c.actions_fired, c.flaky_rolls, c.flaky_failures,
            ));
        }
        out.push_str("bus:\n");
        for (topic, s) in &self.bus {
            out.push_str(&format!(
                "  {topic}: in {} msgs, out {} bytes, produce retries {}, unavailable windows {}, lag {}\n",
                s.messages_in, s.bytes_out, s.produce_retries, s.unavailable_windows, s.consumer_lag,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_loki::Limits;
    use omni_model::{labels, SimClock, NANOS_PER_SEC};

    fn setup() -> (Omni, Pane) {
        let omni = Omni::new(2, Limits::default(), SimClock::starting_at(0));
        let pane = Pane::new(omni.clone());
        (omni, pane)
    }

    #[test]
    fn unified_logs_and_metrics() {
        let (omni, pane) = setup();
        let ts = 60 * NANOS_PER_SEC;
        omni.ingest_log(labels!("app" => "fm"), ts, "[critical] problem:fm_switch_offline")
            .unwrap();
        omni.ingest_metric("node_temp", labels!("node" => "x1"), ts, 55.0);
        let logs = pane.logs(r#"{app="fm"}"#, 0, 2 * ts, 10).unwrap();
        assert_eq!(logs.len(), 1);
        let metrics = pane.metric_instant("node_temp", ts + 1).unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].1, 55.0);
    }

    #[test]
    fn dashboard_renders_both_kinds() {
        let (omni, pane) = setup();
        let ts = 3600 * NANOS_PER_SEC;
        omni.ingest_log(
            labels!("data_type" => "redfish_event", "Context" => "x1203c1b0"),
            ts,
            r#"{"Severity":"Warning","MessageId":"CrayAlerts.1.0.CabinetLeakDetected"}"#,
        )
        .unwrap();
        omni.ingest_metric("node_temp", labels!("node" => "x1"), ts, 44.0);
        let dash = Dashboard {
            title: "Perlmutter Health".into(),
            panels: vec![
                Panel {
                    title: "Redfish events".into(),
                    query: PaneQuery::Logs(r#"{data_type="redfish_event"}"#.into()),
                },
                Panel {
                    title: "Leak count".into(),
                    query: PaneQuery::LogMetric(
                        r#"sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" [60m])) by (Context)"#.into(),
                    ),
                },
                Panel {
                    title: "Node temperature".into(),
                    query: PaneQuery::Metric("max_over_time(node_temp[60m])".into()),
                },
            ],
        };
        let text = pane.render_dashboard(&dash, 0, 2 * ts, 600 * NANOS_PER_SEC).unwrap();
        assert!(text.contains("Perlmutter Health"));
        assert!(text.contains("Redfish events"));
        assert!(text.contains("x1203c1b0"));
        assert!(text.contains("max=1"));
        assert!(text.contains("max=44"));
    }

    #[test]
    fn dashboard_json_roundtrip() {
        let dash = Dashboard::leak_detection();
        let json = dash.to_json();
        assert_eq!(json.get("schemaVersion").and_then(omni_json::Json::as_f64), Some(36.0));
        let text = json.pretty(2);
        let parsed = omni_json::parse(&text).unwrap();
        let back = Dashboard::from_json(&parsed).unwrap();
        assert_eq!(back.title, dash.title);
        assert_eq!(back.panels.len(), dash.panels.len());
        for (a, b) in back.panels.iter().zip(dash.panels.iter()) {
            assert_eq!(a.title, b.title);
        }
    }

    #[test]
    fn provisioned_dashboards_render() {
        let (omni, pane) = setup();
        let ts = 3600 * NANOS_PER_SEC;
        omni.ingest_log(
            labels!("app" => "fabric_manager_monitor"),
            ts,
            "[critical] problem:fm_switch_offline, xname:x1002c1r7b0, state:UNKNOWN",
        )
        .unwrap();
        let text = pane
            .render_dashboard(&Dashboard::fabric_health(), 0, 2 * ts, 600 * NANOS_PER_SEC)
            .unwrap();
        assert!(text.contains("Fabric Health"));
        assert!(text.contains("x1002c1r7b0"));
    }

    #[test]
    fn heatmap_rolls_series_up_the_xname_hierarchy() {
        let (omni, pane) = setup();
        let step = 600 * NANOS_PER_SEC;
        // Two nodes in cabinet x1000 (one early, one late), a switch in
        // x2000, and one unparseable component that keeps its own row.
        for (xname, ts) in [
            ("x1000c0s1b0n0", step),
            ("x1000c7s2b0n1", 3 * step),
            ("x2000c1r7b0", step),
            ("not-an-xname", step),
        ] {
            omni.ingest_log(
                labels!("data_type" => "redfish_event", "Context" => xname),
                ts,
                "leak event",
            )
            .unwrap();
        }
        let spec = HeatmapSpec {
            expr: r#"sum by (Context) (count_over_time({data_type="redfish_event"}[10m]))"#.into(),
            label: "Context".into(),
            rollup: ComponentKind::Cabinet,
        };
        let heatmap = pane.heatmap(&spec, 0, 4 * step, step).unwrap();
        assert_eq!(heatmap.buckets.len(), 5);
        let names: Vec<&str> = heatmap.rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["not-an-xname", "x1000", "x2000"]);
        let row = |n: &str| &heatmap.rows.iter().find(|(name, _)| name == n).unwrap().1;
        // Both x1000 nodes land on the cabinet row, in their own buckets.
        assert_eq!(row("x1000"), &vec![0.0, 1.0, 0.0, 1.0, 0.0]);
        assert_eq!(row("x2000"), &vec![0.0, 1.0, 0.0, 0.0, 0.0]);
        assert_eq!(heatmap.max_value(), 1.0);
        // The provisioned dashboard renders the same data.
        let text =
            pane.render_dashboard(&Dashboard::component_heatmap(), 0, 4 * step, step).unwrap();
        assert!(text.contains("Component Heatmap"));
        assert!(text.contains("x1000"));
        assert!(text.contains("|"));
    }

    #[test]
    fn heatmap_json_roundtrip() {
        let dash = Dashboard::component_heatmap();
        let parsed = omni_json::parse(&dash.to_json().pretty(2)).unwrap();
        let back = Dashboard::from_json(&parsed).unwrap();
        assert_eq!(back.panels.len(), dash.panels.len());
        let (PaneQuery::Heatmap(a), PaneQuery::Heatmap(b)) =
            (&back.panels[1].query, &dash.panels[1].query)
        else {
            panic!("expected heatmap panels");
        };
        assert_eq!(a.expr, b.expr);
        assert_eq!(a.label, b.label);
        assert_eq!(a.rollup, b.rollup);
    }

    #[test]
    fn bad_queries_error_cleanly() {
        let (_, pane) = setup();
        assert!(pane.logs("{oops", 0, 1, 1).is_err());
        assert!(pane.metric_instant("rate(", 0).is_err());
    }

    #[test]
    fn a_bad_range_step_is_an_error_at_every_range_door() {
        // Regression: a zero or negative step panicked in `step_grid`,
        // through both the PromQL and the LogQL range doors.
        let (omni, pane) = setup();
        omni.ingest_log(labels!("app" => "x"), 1, "line").unwrap();
        let logql = r#"count_over_time({app="x"}[1m])"#;
        let spec = HeatmapSpec {
            expr: r#"sum by (app) (count_over_time({app="x"}[1m]))"#.into(),
            label: "app".into(),
            rollup: ComponentKind::Cabinet,
        };
        for (end, step, refused) in [
            (100, 0, GridError::NonPositiveStep(0)),
            (100, -5, GridError::NonPositiveStep(-5)),
            (11_000, 1, GridError::TooManyPoints(11_001)),
        ] {
            let prom = pane.metric_range("omni_loki_shards_down", 0, end, step).unwrap_err();
            assert!(matches!(prom, PaneError::Grid(e) if e == refused), "{prom}");
            let log = pane.log_metric_range(logql, 0, end, step).unwrap_err();
            assert!(
                matches!(log, PaneError::Loki(omni_loki::QueryError::Grid(e)) if e == refused),
                "{log}"
            );
            let heat = pane.heatmap(&spec, 0, end, step).unwrap_err();
            assert!(matches!(heat, PaneError::Grid(e) if e == refused), "{heat}");
        }
        // 11 000 points still answer at both doors.
        assert!(pane.metric_range("omni_loki_shards_down", 0, 10_999, 1).is_ok());
        let m = pane.log_metric_range(logql, 0, 10_999, 1).unwrap();
        assert_eq!(m[0].1.len(), 10_999, "the line at 1ns counts from step 1 on");
    }
}
