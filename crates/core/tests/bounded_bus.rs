//! The bus is the buffer between Redfish and OMNI, not a second store:
//! over 2 000 one-minute steps of the default stack (33 virtual hours) the
//! messages it retains stay flat, because the step's `bus.retention` stage
//! drops what both bridges have committed once it is older than
//! `topics::REDFISH_RETENTION_NS`. Without retention the second half of the
//! run holds about twice the first half's messages.

use omni_core::{MonitoringStack, StackConfig, DEAD_LETTER_TOPIC};
use omni_model::NANOS_PER_SEC;
use omni_redfish::topics;

const MINUTE: i64 = 60 * NANOS_PER_SEC;
const STEPS: usize = 2_000;

#[test]
fn the_bus_retains_a_flat_window_over_a_long_run() {
    let mut stack = MonitoringStack::new(StackConfig::default());
    let broker = stack.broker().clone();
    let retained = || topics::ALL.iter().map(|t| broker.retained(t).unwrap()).sum::<usize>();
    let mut peak = [0usize; 2];
    for step in 0..STEPS {
        stack.step(MINUTE, 5, 5);
        let half = &mut peak[step * 2 / STEPS];
        *half = (*half).max(retained());
    }
    let [first, second] = peak;
    assert!(first > 0, "the bus carried traffic");
    assert!(
        second <= first + first / 10,
        "retained messages grew from {first} in the first half to {second} in the second"
    );

    // What aged out had been read: both bridges are caught up, and the
    // bus dropped all but a window of what it was given.
    let produced: u64 = topics::ALL.iter().map(|t| broker.stats(t).unwrap().messages_in).sum();
    assert!(produced > 20 * retained() as u64, "{produced} produced, {} retained", retained());
    for t in topics::ALL {
        assert_eq!(broker.stats(t).unwrap().consumer_lag, 0, "{t}");
    }

    // The dead-letter topic has no retention: whatever lands there stays
    // readable from offset 0.
    broker.produce(DEAD_LETTER_TOPIC, Some("probe"), "first").unwrap();
    for _ in 0..20 {
        stack.step(MINUTE, 5, 5);
    }
    let dead = broker.fetch(DEAD_LETTER_TOPIC, 0, 0, usize::MAX).unwrap();
    assert!(dead.iter().any(|m| &m.payload[..] == b"first"));
    assert_eq!(dead[0].offset, 0);
}
