//! The scrape cache changes no stored byte: page targets scraped through
//! `VmAgent::add_page_target` leave a TSDB identical — every series and
//! sample bit, `series_count`, `samples_ingested` and `VmAgent::stats` —
//! to the uncached reference, `parse_exposition` behind
//! `VmAgent::add_target`, scraping the same pages into a second TSDB.
//! Op sequences cover series that appear, vanish and return; one series
//! under two spellings; duplicate lines in a page; a bad line mid-page and
//! a failed render; retention with a short horizon between scrapes (a
//! cached ref to a retired series); a clock that steps back; and an agent
//! restart (a cold cache over a warm store).

use omni_logql::matcher::{MatchOp, Matcher, Selector};
use omni_model::{LabelSet, Timestamp};
use omni_tsdb::{parse_exposition, Tsdb, TsdbConfig, VmAgent};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

/// Series texts; 0/1 and 2/3 are one series spelled two ways.
const SERIES: [&str; 9] = [
    r#"temp{node="x1"}"#,
    r#"temp{ node="x1" }"#,
    r#"power{node="x1",slot="3"}"#,
    r#"power{slot="3", node="x1"}"#,
    r#"temp{node="x2"}"#,
    "g",
    r#"m{job="page",instance="i"}"#,
    r#"esc{path="a\\b\"c\nd"}"#,
    r#"uni{a="\é日"}"#,
];
const VALUES: [&str; 6] = ["1", "-0", "NaN", "+Inf", "2.5e-3", "42"];
const BAD: [&str; 4] = ["bad{a=} 1", "novalue", "m not_a_number", "9bad 1"];
const DT: [i64; 6] = [-30, -1, 0, 1, 10, 60];
const RETAIN_AHEAD: [i64; 3] = [0, 50, 150];

type Page = Arc<Mutex<Option<String>>>;

fn agents(cached: &Tsdb, reference: &Tsdb, page: &Page) -> (VmAgent, VmAgent) {
    let (mut a, mut b) = (VmAgent::new(cached.clone()), VmAgent::new(reference.clone()));
    for instance in ["i1", "i2"] {
        let p = Arc::clone(page);
        a.add_page_target(
            "exp",
            instance,
            Box::new(move |_, out| {
                out.push_str(p.lock().as_deref().ok_or_else(|| "render failed".to_string())?);
                Ok(())
            }),
        );
        let p = Arc::clone(page);
        b.add_target(
            "exp",
            instance,
            Box::new(move |_| {
                let page = p.lock();
                let text = page.as_deref().ok_or_else(|| "render failed".to_string())?;
                parse_exposition(text).map_err(|e| e.to_string())
            }),
        );
    }
    (a, b)
}

type Contents = Vec<(LabelSet, Vec<(Timestamp, u64)>)>;

fn contents(db: &Tsdb) -> Contents {
    let all = Selector::new(vec![Matcher::new("__name__", MatchOp::Re, ".+").unwrap()]);
    db.query_series(&all, i64::MIN, i64::MAX)
        .into_iter()
        .map(|(l, s)| (l, s.iter().map(|s| (s.ts, s.value.to_bits())).collect()))
        .collect()
}

proptest! {
    /// An op is `(kind, mask, a, b)`: `kind` 0–5 scrapes a page of the
    /// series in `mask` (line `b` repeated) after moving the clock by
    /// `DT[a]`; 6 does the same with `BAD[a]` inserted at line `b`; 7 is a
    /// failed render; 8 a retention pass at `clock + RETAIN_AHEAD[a]`;
    /// 9 restarts both agents.
    #[test]
    fn cached_scrapes_store_what_uncached_scrapes_store(
        ops in prop::collection::vec((0u8..10, 0u16..512, 0usize..6, 0usize..10), 1..60),
    ) {
        let config = TsdbConfig { shards: 2, block_max_samples: 4, retention_ns: 100 };
        let (cached, reference) = (Tsdb::new(config.clone()), Tsdb::new(config));
        let page: Page = Arc::new(Mutex::new(None));
        let (mut a, mut b) = agents(&cached, &reference, &page);
        let mut clock: Timestamp = 1_000;
        for (i, &(kind, mask, x, y)) in ops.iter().enumerate() {
            match kind {
                0..=7 => {
                    clock += DT[x];
                    let mut lines: Vec<String> = (0..SERIES.len())
                        .filter(|s| mask >> s & 1 == 1)
                        .map(|s| format!("{} {}", SERIES[s], VALUES[(s + i) % VALUES.len()]))
                        .collect();
                    if y < lines.len() {
                        lines.push(lines[y].clone());
                    }
                    if kind == 6 {
                        lines.insert(y.min(lines.len()), BAD[x % BAD.len()].to_string());
                    }
                    lines.insert(0, "# HELP temp t\n".into());
                    *page.lock() = (kind != 7).then(|| lines.join("\n"));
                    a.scrape_once(clock);
                    b.scrape_once(clock);
                }
                8 => {
                    let now = clock + RETAIN_AHEAD[x % RETAIN_AHEAD.len()];
                    prop_assert_eq!(cached.enforce_retention(now), reference.enforce_retention(now));
                }
                _ => (a, b) = agents(&cached, &reference, &page),
            }
            prop_assert_eq!(contents(&cached), contents(&reference), "op {} {:?}", i, ops[i]);
            prop_assert_eq!(cached.series_count(), reference.series_count());
            prop_assert_eq!(cached.samples_ingested(), reference.samples_ingested());
            prop_assert_eq!(a.stats(), b.stats(), "op {} {:?}", i, ops[i]);
        }
    }
}
