//! Pins what the dashboards *render*: a small deterministic scenario
//! (tiny topology, one leak, one switch flap, 40 one-minute steps, fixed
//! seed), then every shipped dashboard over a 1 h window at 60 s and a
//! 6 h window at 360 s, compared byte-for-byte with
//! `tests/fixtures/dashboards.golden`. An evaluator refactor that moves a
//! pixel fails here and names the first panel that differs.
//!
//! Regenerate (only when a rendering change is intended):
//! `UPDATE_GOLDEN=1 cargo test --test dashboards_golden`.

use shasta_mon::core::{Dashboard, MonitoringStack, StackConfig};
use shasta_mon::model::NANOS_PER_SEC;
use shasta_mon::shasta::{LeakZone, SwitchState};

const MINUTE: i64 = 60 * NANOS_PER_SEC;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/dashboards.golden");
/// First line of the fixture; everything after it is rendered output.
const HEADER: &str = "# Captured from the parent commit (PR 18) before the range evaluators \
                      were touched; regenerate with UPDATE_GOLDEN=1 cargo test --test dashboards_golden\n";

fn render_all() -> String {
    let mut stack = MonitoringStack::new(StackConfig::default());
    let chassis = stack.machine.topology().chassis()[1];
    let switch = stack.machine.topology().switches()[0];
    for step in 0..40 {
        match step {
            5 => {
                stack.inject_leak(chassis, 'A', LeakZone::Front);
            }
            10 => stack.take_switch_offline(switch, SwitchState::Unknown),
            20 => stack.take_switch_offline(switch, SwitchState::Online),
            _ => {}
        }
        stack.step(MINUTE, 6, 3);
    }
    let now = stack.clock.now();
    let mut out = String::new();
    for (window, step) in [(60 * MINUTE, MINUTE), (360 * MINUTE, 6 * MINUTE)] {
        for dashboard in [
            Dashboard::leak_detection(),
            Dashboard::fabric_health(),
            Dashboard::component_heatmap(),
            Dashboard::pipeline_health(),
            Dashboard::pipeline_slo(),
        ] {
            out.push_str(&format!(
                "\n## window {}m step {}s\n",
                window / MINUTE,
                step / NANOS_PER_SEC
            ));
            let text = stack
                .pane
                .render_dashboard(&dashboard, now - window, now, step)
                .expect("shipped dashboards parse");
            out.push_str(&text);
        }
    }
    out
}

/// Split rendered text into `(heading, body)` panels: a `## window` line
/// names the window, a `══` line the dashboard, a `──` line the panel.
fn panels(text: &str) -> Vec<(String, String)> {
    let (mut window, mut dashboard) = (String::new(), String::new());
    let mut out: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if line.starts_with("## window") {
            window = line.to_string();
        } else if line.starts_with("══") {
            dashboard = line.to_string();
        } else if line.starts_with("──") {
            out.push((format!("{window} / {dashboard} / {line}"), String::new()));
        } else if let Some((_, body)) = out.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    out
}

#[test]
fn shipped_dashboards_render_byte_identically_to_the_golden() {
    let rendered = render_all();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, format!("{HEADER}{rendered}")).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/fixtures/dashboards.golden exists");
    let expected = golden.split_once('\n').map_or("", |(_, rest)| rest);
    if rendered == expected {
        return;
    }
    let (got, want) = (panels(&rendered), panels(expected));
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "first differing panel: {}", w.0);
    }
    assert_eq!(got.len(), want.len(), "panel count differs");
    panic!("rendered dashboards differ from the golden outside any panel body");
}

#[test]
fn the_scenario_lights_up_the_panels_it_is_meant_to_pin() {
    // A golden of empty panels would pin nothing: the leak, the switch
    // flap and the self-telemetry must all be visible in it.
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/fixtures/dashboards.golden exists");
    for needle in ["CabinetLeakDetected", "fm_switch_offline", "max=1 ", "peak=", "slo="] {
        assert!(golden.contains(needle), "golden never shows {needle:?}");
    }
    assert!(golden.matches("## window").count() == 10, "five dashboards × two windows");
}
