//! vmagent: "VMagent collects metrics from all the Prometheus-style
//! exporters and sends data to Victoriametrics."
//!
//! A target is a page: a callback that renders the exporter's exposition
//! text into a buffer the agent keeps, which the agent reads as a real
//! vmagent reads it off the wire. Every scrape also records the synthetic
//! `up` metric per target, like the real agent.
//!
//! # Scrape cache
//!
//! A stable target repeats its series from scrape to scrape, so each page
//! target keeps Prometheus's scrape cache (`scrape/scrape.go`,
//! `scrapeCache`) in an [`omni_model::RoundCache`], one scrape a round: a
//! line's series text (`name{labels}`) → the [`SeriesRef`] it was
//! appended to and its label set. A repeat scrape
//! splits each line, parses its value and appends by reference: no label
//! set, fingerprint or series lookup. Only a series text the cache misses
//! is parsed in full and gets `job` and `instance`.
//!
//! - *All or nothing.* The first pass splits every line and parses every
//!   miss before anything is appended: one bad line and the page ingests
//!   nothing and records `up 0`, as a page that failed to parse always
//!   has. The second pass appends in page order.
//! - *Generations.* Retention frees a retired series' slot under a new
//!   generation, so a cached ref to it is refused ([`Retired`]) and the
//!   line is resolved again through its cached label set.
//! - *Eviction.* After a good scrape, entries that scrape did not see are
//!   dropped: the cache holds one page's series, not its history. A failed
//!   scrape abandons its round and evicts nothing.
//!
//! [`Retired`]: crate::storage::Retired

use crate::exposition::{parse_series, split_sample};
use crate::storage::{SeriesRef, Tsdb};
use omni_model::{LabelSet, MetricRecord, RoundCache, Sample, Timestamp};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// A page callback: appends the target's exposition page at `now` to the
/// (cleared) buffer, or returns an error message on scrape failure.
pub type PageFn = Box<dyn Fn(Timestamp, &mut String) -> Result<(), String> + Send + Sync>;

/// A scrape callback: returns the target's current samples or an error
/// message on scrape failure.
///
/// omnibench compat: the staged replica wraps its render and parse spans
/// in one, and the scrape-cache equivalence property scrapes through it
/// as the uncached reference. The stack registers pages.
pub type ScrapeFn = Box<dyn Fn(Timestamp) -> Result<Vec<MetricRecord>, String> + Send + Sync>;

struct Target {
    job: String,
    instance: String,
    /// `up{job, instance}`.
    up: LabelSet,
    door: Door,
}

enum Door {
    Records(ScrapeFn),
    /// The cache is only ever locked by `scrape_once`, one target at a
    /// time; the lock lets a scrape take `&self`.
    Page(PageFn, Mutex<PageState>),
}

/// One page target's scrape state; see the module doc.
#[derive(Default)]
struct PageState {
    /// The last page rendered; its buffer is reused.
    page: String,
    /// Pass one's output, in page order: the line's series text within
    /// `page`, its value, and its cached ref if the cache had one.
    lines: Vec<(Range<usize>, f64, Option<SeriesRef>)>,
    series: RoundCache<Cached>,
    up: Option<SeriesRef>,
}

struct Cached {
    /// `None` until the line is first appended.
    series: Option<SeriesRef>,
    labels: LabelSet,
}

/// The scrape agent.
pub struct VmAgent {
    db: Tsdb,
    targets: Vec<Target>,
    scrapes: AtomicU64,
    samples: AtomicU64,
    failures: AtomicU64,
}

impl VmAgent {
    /// Agent writing into `db`.
    pub fn new(db: Tsdb) -> Self {
        Self {
            db,
            targets: Vec::new(),
            scrapes: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    /// Register a page target under `job`/`instance` labels.
    pub fn add_page_target(&mut self, job: &str, instance: &str, page: PageFn) {
        self.push_target(job, instance, Door::Page(page, Mutex::default()));
    }

    /// Register a callback target under `job`/`instance` labels (omnibench
    /// compat; see [`ScrapeFn`]).
    pub fn add_target(&mut self, job: &str, instance: &str, scrape: ScrapeFn) {
        self.push_target(job, instance, Door::Records(scrape));
    }

    fn push_target(&mut self, job: &str, instance: &str, door: Door) {
        let up = LabelSet::from_pairs([("__name__", "up"), ("job", job), ("instance", instance)]);
        self.targets.push(Target {
            job: job.to_string(),
            instance: instance.to_string(),
            up,
            door,
        });
    }

    /// Scrape every target once at virtual time `now`. Each sample gets
    /// `job`/`instance` labels; each target gets an `up` sample.
    pub fn scrape_once(&self, now: Timestamp) {
        for t in &self.targets {
            self.scrapes.fetch_add(1, Ordering::Relaxed);
            let up = match &t.door {
                Door::Records(scrape) => self.scrape_records(t, scrape, now),
                Door::Page(page, cache) => self.scrape_page(t, page, &mut cache.lock(), now),
            };
            if !up {
                self.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The callback door: every record relabelled and ingested by labels.
    fn scrape_records(&self, t: &Target, scrape: &ScrapeFn, now: Timestamp) -> bool {
        let Ok(records) = scrape(now) else {
            self.db.ingest_ref(&t.up, Sample::new(now, 0.0));
            return false;
        };
        for mut r in records {
            r.labels.insert("job", t.job.as_str());
            r.labels.insert("instance", t.instance.as_str());
            self.db.ingest_ref(&r.labels, Sample::new(now, r.sample.value));
            self.samples.fetch_add(1, Ordering::Relaxed);
        }
        self.db.ingest_ref(&t.up, Sample::new(now, 1.0));
        true
    }

    /// The page door, through the target's scrape cache (module doc).
    fn scrape_page(&self, t: &Target, render: &PageFn, c: &mut PageState, now: Timestamp) -> bool {
        let PageState { page, lines, series, up } = c;
        page.clear();
        lines.clear();
        let rendered = render(now, page).is_ok();
        if !rendered || !Self::resolve_lines(t, page, lines, series) {
            series.abandon_round();
            append_or_resolve(&self.db, up, &t.up, Sample::new(now, 0.0));
            return false;
        }
        for (text, value, known) in lines.iter() {
            let sample = Sample::new(now, *value);
            if !known.is_some_and(|r| self.db.append_ref(r, sample).is_ok()) {
                series.key().push_str(&page[text.clone()]);
                let entry = series.hit().expect("pass one cached every line");
                append_or_resolve(&self.db, &mut entry.series, &entry.labels, sample);
            }
        }
        self.samples.fetch_add(lines.len() as u64, Ordering::Relaxed);
        series.end_round();
        append_or_resolve(&self.db, up, &t.up, Sample::new(now, 1.0));
        true
    }

    /// Pass one: split every line of `page` into `lines`, marking cache
    /// entries seen and parsing (and caching) every miss. False on the
    /// first bad line.
    fn resolve_lines(
        t: &Target,
        page: &str,
        lines: &mut Vec<(Range<usize>, f64, Option<SeriesRef>)>,
        series: &mut RoundCache<Cached>,
    ) -> bool {
        for raw in page.lines() {
            let (text, value) = match split_sample(raw) {
                Ok(Some(sample)) => sample,
                Ok(None) => continue,
                Err(_) => return false,
            };
            series.key().push_str(text);
            let known = match series.hit() {
                Some(entry) => entry.series,
                None => {
                    let Ok(mut labels) = parse_series(text) else { return false };
                    labels.insert("job", t.job.as_str());
                    labels.insert("instance", t.instance.as_str());
                    series.insert(Cached { series: None, labels });
                    None
                }
            };
            // `text` is a slice of `page`: keep it as a range.
            let start = text.as_ptr() as usize - page.as_ptr() as usize;
            lines.push((start..start + text.len(), value, known));
        }
        true
    }

    /// (scrapes, samples, failures) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.scrapes.load(Ordering::Relaxed),
            self.samples.load(Ordering::Relaxed),
            self.failures.load(Ordering::Relaxed),
        )
    }
}

/// Append through `series` while it is live, else resolve `labels` again.
fn append_or_resolve(db: &Tsdb, series: &mut Option<SeriesRef>, labels: &LabelSet, s: Sample) {
    if !series.is_some_and(|r| db.append_ref(r, s).is_ok()) {
        *series = Some(db.ingest_ref(labels, s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promql::{eval_instant, parse_promql};
    use crate::storage::TsdbConfig;
    use omni_model::NANOS_PER_SEC;
    use std::sync::Arc;

    fn agent() -> (Tsdb, VmAgent) {
        let db = Tsdb::new(TsdbConfig::default());
        let agent = VmAgent::new(db.clone());
        (db, agent)
    }

    #[test]
    fn scrape_ingests_with_job_instance_and_up() {
        let (db, mut agent) = agent();
        agent.add_page_target(
            "node-exporter",
            "x1000c0s0b0n0",
            Box::new(|_now, page| {
                page.push_str("# TYPE node_temp gauge\nnode_temp{sensor=\"t0\"} 44\n");
                Ok(())
            }),
        );
        agent.scrape_once(NANOS_PER_SEC);
        let e = parse_promql(r#"node_temp{job="node-exporter"}"#).unwrap();
        let v = eval_instant(&db, &e, 2 * NANOS_PER_SEC);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0.get("instance"), Some("x1000c0s0b0n0"));
        let up = eval_instant(&db, &parse_promql("up").unwrap(), 2 * NANOS_PER_SEC);
        assert_eq!(up.len(), 1);
        assert_eq!(up[0].1, 1.0);
    }

    #[test]
    fn failed_scrape_sets_up_zero() {
        let (db, mut agent) = agent();
        agent.add_page_target("blackbox", "probe-1", Box::new(|_, _| Err("refused".into())));
        agent.scrape_once(NANOS_PER_SEC);
        let up = eval_instant(&db, &parse_promql("up").unwrap(), 2 * NANOS_PER_SEC);
        assert_eq!(up[0].1, 0.0);
        assert_eq!(agent.stats().2, 1);
    }

    #[test]
    fn the_callback_door_relabels_and_counts_like_a_page() {
        let (db, mut agent) = agent();
        agent.add_target(
            "exp",
            "i",
            Box::new(|now| {
                Ok(vec![MetricRecord::new("g", LabelSet::new(), 0, (now / NANOS_PER_SEC) as f64)])
            }),
        );
        agent.add_target("dead", "j", Box::new(|_| Err("refused".into())));
        for i in 1..=10 {
            agent.scrape_once(i * 15 * NANOS_PER_SEC);
        }
        let e = parse_promql(r#"count_over_time(g{job="exp", instance="i"}[300s])"#).unwrap();
        assert_eq!(eval_instant(&db, &e, 200 * NANOS_PER_SEC)[0].1, 10.0);
        let down = parse_promql(r#"up{job="dead"}"#).unwrap();
        assert_eq!(eval_instant(&db, &down, 200 * NANOS_PER_SEC)[0].1, 0.0);
        assert_eq!(agent.stats(), (20, 10, 10));
    }

    #[test]
    fn repeated_scrapes_build_series() {
        let (db, mut agent) = agent();
        agent.add_page_target(
            "exp",
            "i",
            Box::new(|now, page| {
                page.push_str(&format!("g {}\n", now / NANOS_PER_SEC));
                Ok(())
            }),
        );
        for i in 1..=10 {
            agent.scrape_once(i * 15 * NANOS_PER_SEC);
        }
        let e = parse_promql("count_over_time(g[300s])").unwrap();
        let v = eval_instant(&db, &e, 200 * NANOS_PER_SEC);
        assert_eq!(v[0].1, 10.0);
        assert_eq!(agent.stats(), (10, 10, 0));
    }

    #[test]
    fn a_bad_line_ingests_nothing_and_keeps_the_cache() {
        let page = Arc::new(Mutex::new(String::from("a 1\nb{x=\"1\"} 2\n")));
        let (db, mut agent) = agent();
        let p = Arc::clone(&page);
        agent.add_page_target(
            "exp",
            "i",
            Box::new(move |_, out| {
                out.push_str(&p.lock());
                Ok(())
            }),
        );
        agent.scrape_once(NANOS_PER_SEC);
        *page.lock() = "a 3\nc 4\nb{x=} 5\n".into();
        agent.scrape_once(2 * NANOS_PER_SEC);
        assert_eq!(db.samples_ingested(), 2 + 1 + 1, "two samples and two `up`s");
        assert_eq!(agent.stats(), (2, 2, 1));
        *page.lock() = "a 6\n".into();
        agent.scrape_once(3 * NANOS_PER_SEC);
        let Door::Page(_, cache) = &agent.targets[0].door else { unreachable!() };
        let cached: Vec<String> =
            cache.lock().series.keys().into_iter().map(str::to_string).collect();
        assert_eq!(cached, ["a"], "entries the last good scrape did not see are gone");
    }
}
