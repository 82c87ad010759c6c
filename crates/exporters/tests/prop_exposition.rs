//! The exposition format's two halves against hostile and arbitrary input.
//!
//! *Renderer reference:* `render_exposition_into` writes in place, escapes
//! only where needed and formats with `write!`; on arbitrary families
//! (invalid names, help and label values full of backslashes, quotes and
//! line feeds, any `f64`, exemplars) it writes byte for byte what the
//! `format!`-per-line renderer it replaced wrote, kept here as the
//! reference.
//!
//! *Hostile bytes:* on arbitrary bytes, single-byte flips of a rendered
//! page and pages with stray `{`, `}`, `"` and `\` inserted,
//! `parse_exposition` returns `Ok` or `Err` without panicking, and a
//! cached page-target scrape of the same page — cold, and warm after a
//! good scrape of the unflipped page — neither panics nor disagrees with
//! it: the scrape fails exactly when the page does not parse, and a good
//! page appends exactly the samples the parser returns.
//!
//! Mutations this catches: a help string escaped like a label value, a
//! quote in a label value not escaped, an exemplar written for a sample
//! it does not match, a cached scrape that skips a bad line the parser
//! rejects.

use omni_exporters::{parse_exposition, render_exposition_into, MetricFamily};
use omni_model::LabelSet;
use omni_obs::{format_trace_id, Exemplar};
use omni_tsdb::{Tsdb, VmAgent};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// The renderer before it wrote in place, kept as the reference.
fn reference_render(families: &[MetricFamily]) -> String {
    let mut out = String::new();
    for f in families {
        if !omni_exporters::valid_metric_name(&f.name) {
            out.push_str(&format!(
                "# omni-exporter error: dropped family with invalid metric name {:?}\n",
                f.name
            ));
            continue;
        }
        let help = f.help.replace('\\', "\\\\").replace('\n', "\\n");
        out.push_str(&format!("# HELP {} {}\n", f.name, help));
        out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind));
        for (labels, value) in &f.samples {
            let rendered = render_labels(labels);
            out.push_str(&format!("{}{} {}\n", f.name, rendered, fmt_value(*value)));
            for (els, ex) in &f.exemplars {
                if els == labels {
                    out.push_str(&format!(
                        "# EXEMPLAR {}{} trace_id={} {}\n",
                        f.name,
                        rendered,
                        format_trace_id(ex.trace_id),
                        fmt_value(ex.value)
                    ));
                }
            }
        }
    }
    out
}

fn render_labels(labels: &LabelSet) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let rendered: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            let v = v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
            format!("{k}=\"{v}\"")
        })
        .collect();
    format!("{{{}}}", rendered.join(","))
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

const NAMES: [&str; 6] = ["temp", "node_power_watts", "a:b", "_x", "9bad", "bad-name"];
const TEXT_CHARS: [char; 10] = ['a', ' ', '\\', '"', '\n', '{', '}', '=', 'é', '日'];

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(TEXT_CHARS.to_vec()), 0..8)
        .prop_map(|cs| cs.into_iter().collect())
}

fn arb_labels() -> impl Strategy<Value = LabelSet> {
    prop::collection::vec(
        (prop::sample::select(vec!["node", "sensor", "le", "job"]), arb_text()),
        0..3,
    )
    .prop_map(LabelSet::from_pairs)
}

fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        (-100i64..100).prop_map(|n| n as f64 / 8.0),
        prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e21, 5e-324]),
    ]
}

fn arb_family() -> impl Strategy<Value = MetricFamily> {
    (
        (prop::sample::select(NAMES.to_vec()), arb_text()),
        any::<bool>(),
        prop::collection::vec((arb_labels(), arb_value()), 0..4),
        prop::collection::vec((0usize..4, any::<u64>(), arb_value()), 0..3),
    )
        .prop_map(|((name, help), counter, samples, exemplars)| {
            let mut f = if counter {
                MetricFamily::counter(name, &help)
            } else {
                MetricFamily::gauge(name, &help)
            };
            for (labels, value) in &samples {
                f.sample(labels.clone(), *value);
            }
            for (i, trace_id, value) in exemplars {
                // Mostly the labels of a sample, sometimes of none.
                let labels = samples.get(i).map(|s| s.0.clone()).unwrap_or_default();
                f.exemplar(labels, Exemplar { trace_id, value });
            }
            f
        })
}

/// A page target serving whatever `page` holds.
fn agent(db: &Tsdb, page: &Arc<Mutex<String>>) -> VmAgent {
    let mut agent = VmAgent::new(db.clone());
    let page = Arc::clone(page);
    agent.add_page_target(
        "exp",
        "i",
        Box::new(move |_, out| {
            out.push_str(&page.lock().unwrap());
            Ok(())
        }),
    );
    agent
}

/// Scrape `hostile` through a page target, cold and (when `good` parses)
/// warm, and hold it to `parse_exposition`: the scrape fails exactly when
/// the page does not parse; a good page appends exactly the parsed
/// samples plus `up`, a bad one only `up`.
fn scrape_agrees(good: &str, hostile: &str) {
    let parsed = parse_exposition(hostile);
    let warm_first = parse_exposition(good).is_ok();
    for warm in [false, warm_first] {
        let db = Tsdb::default_config();
        let page = Arc::new(Mutex::new(good.to_string()));
        let agent = agent(&db, &page);
        if warm {
            agent.scrape_once(1);
        }
        let (_, _, failures) = agent.stats();
        let appended = db.samples_ingested();
        *page.lock().unwrap() = hostile.to_string();
        agent.scrape_once(2);
        let failed = agent.stats().2 - failures;
        let appended = db.samples_ingested() - appended;
        // Later timestamps, so nothing is dropped as out of order; one
        // series twice in a page appends twice, as the parser returns it
        // twice.
        match &parsed {
            Ok(records) => prop_assert_eq!((failed, appended), (0, records.len() as u64 + 1)),
            Err(_) => prop_assert_eq!((failed, appended), (1, 1), "{:?}", hostile),
        }
    }
}

const STRAY: [&str; 6] = ["{", "}", "\"", "\\", "\\\"", "\n"];

proptest! {
    #[test]
    fn render_into_matches_the_format_renderer(families in prop::collection::vec(arb_family(), 0..4)) {
        let mut out = String::from("kept ");
        render_exposition_into(&families, &mut out);
        prop_assert_eq!(&out[5..], reference_render(&families).as_str());
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
        let text = String::from_utf8_lossy(&bytes);
        scrape_agrees("", &text);
    }

    #[test]
    fn flipped_pages_never_panic(
        families in prop::collection::vec(arb_family(), 1..3),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut page = String::new();
        render_exposition_into(&families, &mut page);
        let mut bytes = page.clone().into_bytes();
        if !bytes.is_empty() {
            let i = at % bytes.len();
            bytes[i] = byte;
        }
        scrape_agrees(&page, &String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn stray_punctuation_never_panics(
        families in prop::collection::vec(arb_family(), 1..3),
        strays in prop::collection::vec((any::<usize>(), 0usize..6), 1..4),
    ) {
        let mut page = String::new();
        render_exposition_into(&families, &mut page);
        let mut hostile = page.clone();
        for (at, s) in strays {
            let mut i = at % (hostile.len() + 1);
            while !hostile.is_char_boundary(i) {
                i -= 1;
            }
            hostile.insert_str(i, STRAY[s]);
        }
        scrape_agrees(&page, &hostile);
    }
}
