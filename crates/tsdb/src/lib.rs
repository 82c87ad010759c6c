//! A VictoriaMetrics-like time-series database.
//!
//! "As a rule, we send metrics to Victoriametrics, the time series
//! database and logs to Loki" (§III). The crate covers the metric half of
//! the paper's pipeline:
//!
//! * [`storage::Tsdb`] — sharded series storage in the shape of the log
//!   store: a series is its labels, an open run of plain samples (what
//!   rules and panels read every cycle) and the blocks sealed from
//!   earlier runs ([`gorilla`], paid once per `block_max_samples`), found
//!   through `omni_model::LabelIndex`, the index Loki's shards use;
//! * [`promql`] — the PromQL subset vmalert rules and Grafana panels use;
//! * [`exposition`] — the Prometheus text format's parser, which the
//!   scrape loop reads exporter pages with;
//! * [`vmagent`] — the scrape loop feeding the store, with Prometheus's
//!   per-target scrape cache;
//! * [`vmalert`] — "queries the database based on predefined rules. When
//!   the return value matches, vmalert sends an event to AlertManager."

pub mod exposition;
pub mod gorilla;
pub mod promql;
pub mod storage;
pub mod vmagent;
pub mod vmalert;

pub use exposition::{parse_exposition, valid_metric_name, ExpositionError};
pub use gorilla::{GorillaBlock, GorillaEncoder};
pub use promql::{eval_instant, eval_range, parse_promql, PromExpr, RangeFn};
pub use storage::{Retired, SeriesRef, Tsdb, TsdbConfig};
pub use vmagent::{PageFn, ScrapeFn, VmAgent};
pub use vmalert::{MetricRule, VmAlert};
