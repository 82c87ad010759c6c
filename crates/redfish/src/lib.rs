//! Redfish events and telemetry for the Shasta simulator.
//!
//! "Redfish (RESTful interface for the infrastructure management) endpoint
//! on each controller push metrics and events (e.g. power down) to an HMS
//! (hardware management service) collector" — §IV of the paper. This crate
//! provides:
//!
//! * [`RedfishEvent`] — the event model, serializing to/from the exact
//!   nested JSON shape the Telemetry API publishes (Figure 2);
//! * [`registry`] — the `CrayAlerts.1.0.*` message registry with severity
//!   and message templates (leak detection among them);
//! * [`SensorReading`] — numeric telemetry (temperature, power, fan, leak
//!   sensor state, humidity), and the one owner of its wire format
//!   ([`SensorReading::write_wire`] / [`SensorReading::decode`]);
//! * [`HmsCollector`] — the collector pushing both onto bus topics, keyed
//!   by xname so per-component ordering survives partitioning.

pub mod collector;
pub mod event;
pub mod registry;
pub mod sensor;

pub use collector::{topics, HmsCollector};
pub use event::RedfishEvent;
pub use registry::{registry_entry, MessageRegistryEntry};
pub use sensor::{SensorKind, SensorReading, SensorWire};
