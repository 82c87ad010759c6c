//! Prometheus-style exporters.
//!
//! The paper's metric sources (§III): "Prometheus-style exporters and
//! endpoints that are installed by HPE (e.g. node-exporter)",
//! community exporters "(e.g. blackbox-exporter and kafka-exporter)", and
//! "custom Prometheus-style exporters that are written and installed by
//! NERSC (e.g. aruba-exporter)". Each exporter here renders the standard
//! text exposition format ([`exposition`]) into a buffer vmagent hands
//! it. vmagent reads the page with the parser in `omni_tsdb::exposition`,
//! re-exported here as [`parse_exposition`].

pub mod exposition;
pub mod self_scrape;
pub mod simulated;

pub use exposition::{render_exposition, render_exposition_into, MetricFamily};
pub use omni_tsdb::exposition::{parse_exposition, valid_metric_name, ExpositionError};
pub use self_scrape::SelfExporter;
pub use simulated::{
    shipped_exporter_families, ArubaExporter, BlackboxExporter, Exporter, GpfsExporter,
    KafkaExporter, NodeExporter,
};
