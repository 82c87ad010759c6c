//! The four workloads. Everything that sizes a run is a constant here:
//! a run never consults a clock to decide how much to do, so `attempted`,
//! byte counts and peak RSS repeat for a given `(workload, seed)`.
//!
//! The seed picks *which* chassis leaks, *which* switch flaps and what the
//! log lines and sensor walks contain; it never changes how many steps,
//! refreshes, faults or messages there are.

use omni_model::{fnv1a64, NANOS_PER_SEC};
use omni_shasta::{GpfsState, LeakZone, SwitchState};
use omni_xname::TopologySpec;

/// Measured replicas per run at the declared `run_seconds`; one more
/// runs first as warm-up and is discarded.
pub const REPLICAS: usize = 14;

/// The `run_seconds` `BENCHMARK.json` declares: `--seconds` scales the
/// replica count from here (never below [`REPLICAS`]), which is the only
/// way a run's length changes — by a whole number of identical replicas.
pub const DECLARED_SECONDS: u64 = 30;

/// Back-to-back builds of the stack the first setup position times; the
/// metric divides by it.
pub const BUILD_REPEATS: u64 = 32;

/// Back-to-back repeats of the warm refresh; the metric divides by it.
/// One warm refresh of the five dashboards is 2-6 ms here, so two keep
/// every sample near or above 5 ms.
pub const WARM_REPEATS: usize = 2;

/// Loki ingester shards of every benchmark stack. The shipped default is
/// the paper's 8 workers, and the engine scans each shard on a thread of
/// its own: 16 short-lived threads per dashboard query on a 2-vCPU box.
/// Measured there, unpinned, with one core taken by a neighbour for the
/// whole run (`sensor_sweep`, seed 3): `refresh_cold_ms_p50` 9.8 -> 12.7 ms
/// at 8 shards, 4.9 -> 6.3 ms at 2, 3.26 -> 3.49 ms at 1, and `step_ms_p50`
/// +10 % / +2 % / +0 %. At 8 shards the seed alone moved the cold refresh
/// by 20 % (8.9 vs 10.7 ms for seeds 8 and 5, same blocks decoded: which
/// shard holds the matching streams decides how much of the scan overlaps
/// the spawning), and still by 18 % pinned to one CPU; at 1 shard by 2 %.
/// With one shard the scans run inline on the driver thread and what is
/// left is the work itself.
pub const LOKI_SHARDS: usize = 1;

/// Every workload leaks one chassis before timed step 10 and takes one
/// switch down before timed step 12 (up again 6 steps later), on targets
/// the load faults never touch, so each opens exactly one incident whose
/// virtual-time latency the correctness gate pins.
pub const CHECK_LEAK_STEP: usize = 10;
pub const CHECK_SWITCH_STEP: usize = 12;
const CHECK_SWITCH_HEAL_AFTER: usize = 6;

/// A periodic fault: fires at global steps `first, first+every, ...`,
/// each time on the next `burst` targets in a seed-rotated round-robin,
/// and (for switches and GPFS servers) heals `heal_after` steps later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Periodic {
    pub first: usize,
    pub every: usize,
    pub burst: usize,
    pub heal_after: usize,
}

/// One receiver failing a share of its sends over a window of steps
/// (`ChaosFault::FlakyReceiver`). Windows are shorter than the delivery
/// retry budget, so every notification is retried and none dead-letters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlakyWindow {
    pub receiver: &'static str,
    pub from_step: usize,
    pub until_step: usize,
    pub fail_permille: u32,
}

/// Where the refresh positions sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshPlan {
    /// `count` positions run once after the timed steps, against the
    /// store those steps built; the window end marches one render step
    /// per position up to `now`, so each position's newest split is new
    /// to the frontend cache.
    AfterSteps { count: usize },
    /// One cold + warm pair after every timed step: reads beside writes.
    EveryStep,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists — also the `why` in `BENCHMARK.json`.
    pub why: &'static str,
    pub topology: fn() -> TopologySpec,
    /// Virtual seconds one timed step advances. At most 120: the switch
    /// rule looks back 5 m and needs three evaluations inside that (first
    /// sight, `for:` elapsed, Alertmanager's group flush) to page.
    pub dt_s: i64,
    pub syslog_per_step: usize,
    pub container_per_step: usize,
    /// Preload steps (they are `setup_s`, not step positions), same
    /// volumes per step, `preload_dt_s` of virtual time each.
    pub preload_steps: usize,
    pub preload_dt_s: i64,
    /// S: timed step positions.
    pub steps: usize,
    pub refresh: RefreshPlan,
    /// Dashboard window length and render grid in virtual seconds (the
    /// grid is a sixtieth of the window, as Grafana would pick).
    pub window_s: i64,
    pub render_step_s: i64,
    /// `StackConfig::slow_query_threshold_ns` override in milliseconds of
    /// modeled latency, where the shipped 100 ms would leave the
    /// slow-query log — which the `pipeline_slo` dashboard reads — empty.
    pub slow_query_threshold_ms: Option<i64>,
    /// Load faults, on top of the two check faults every workload has
    /// (see [`CHECK_LEAK_STEP`]).
    pub leaks: Option<Periodic>,
    pub switches: Option<Periodic>,
    pub gpfs: Option<Periodic>,
    pub flaky: &'static [FlakyWindow],
    /// Virtual seconds from the check leak / check switch fault to its
    /// ServiceNow incident. Set by the rules' `for:`, the ruler's 60 s
    /// evaluation interval, Alertmanager's `group_wait` and this
    /// workload's step grid — not by how fast the code runs — so it is a
    /// correctness check, not a metric.
    pub leak_to_incident_s: i64,
    pub switch_to_incident_s: i64,
}

impl Workload {
    /// Virtual nanoseconds global step `g` advances.
    pub fn dt_ns(&self, g: usize) -> i64 {
        let dt_s = if g < self.preload_steps { self.preload_dt_s } else { self.dt_s };
        dt_s * NANOS_PER_SEC
    }

    /// Virtual time at which timed step `s` (0-based) runs.
    pub fn time_of_step(&self, s: usize) -> i64 {
        (self.preload_steps as i64 * self.preload_dt_s + (s as i64 + 1) * self.dt_s) * NANOS_PER_SEC
    }

    pub fn render_step_ns(&self) -> i64 {
        self.render_step_s * NANOS_PER_SEC
    }

    /// Q: refresh positions per replica.
    pub fn refreshes(&self) -> usize {
        match self.refresh {
            RefreshPlan::AfterSteps { count } => count,
            RefreshPlan::EveryStep => self.steps,
        }
    }

    /// Measured replicas for a run of `seconds`.
    pub fn replicas_for(seconds: u64) -> usize {
        ((REPLICAS as u64 * seconds) / DECLARED_SECONDS).max(REPLICAS as u64) as usize
    }
}

/// A quarter (3 of 12 cabinets) of `perlmutter_like()`: 384 nodes, ~1.2k
/// sensor readings per step. The full machine is ~57 ms a step; eleven
/// replicas of a hundred steps of that do not fit the driver's cap on
/// total run time, and the per-reading path is the same.
fn perlmutter_quarter() -> TopologySpec {
    let mut spec = TopologySpec::perlmutter_like();
    spec.cabinets.truncate(3);
    spec
}

/// Many places for a fault, few nodes: 32 chassis and 128 switches carry
/// 32 nodes, so the alert path grows with the faults while the sensor
/// sweep stays as small as on `tiny()`.
fn storm_machine() -> TopologySpec {
    TopologySpec {
        cabinets: vec![1000, 1001, 1002, 1003],
        chassis_per_cabinet: 8,
        slots_per_chassis: 1,
        bmcs_per_slot: 1,
        nodes_per_bmc: 1,
        routers_per_chassis: 4,
        cabinets_per_cdu: 4,
    }
}

pub const ALL: &[&str] = &["log_flood", "sensor_sweep", "alert_storm", "dashboard_mix"];

pub fn by_name(name: &str) -> Option<Workload> {
    let base = Workload {
        name: "",
        why: "",
        topology: TopologySpec::tiny,
        dt_s: 60,
        syslog_per_step: 20,
        container_per_step: 10,
        preload_steps: 0,
        preload_dt_s: 60,
        steps: 100,
        refresh: RefreshPlan::AfterSteps { count: 24 },
        window_s: 3_600,
        render_step_s: 60,
        slow_query_threshold_ms: None,
        leaks: None,
        switches: None,
        gpfs: None,
        flaky: &[],
        leak_to_incident_s: 180,
        switch_to_incident_s: 180,
    };
    Some(match name {
        "log_flood" => Workload {
            name: "log_flood",
            why: "syslog+container flood on a tiny machine: bus, telemetry, log bridge and Loki ingest/WAL/seal do the work; TSDB and alerting idle",
            // Two-minute steps: chunks age-seal every 30 steps, offload an
            // hour later and compact after two, so the stalls the p90
            // tracks recur at fixed positions inside the 100 steps.
            dt_s: 120,
            syslog_per_step: 200,
            container_per_step: 100,
            leak_to_incident_s: 360,
            switch_to_incident_s: 360,
            ..base
        },
        "sensor_sweep" => Workload {
            name: "sensor_sweep",
            why: "a quarter of a Perlmutter-like machine, few logs: Redfish sensors, metric bridge, TSDB append, exporters, vmagent and vmalert do the work; Loki idles",
            topology: perlmutter_quarter,
            ..base
        },
        "alert_storm" => Workload {
            name: "alert_storm",
            why: "many chassis and switches but few nodes, low volume, faults on a fixed schedule: ruler, vmalert, Alertmanager grouping, the delivery queue, Slack and ServiceNow do the work",
            topology: storm_machine,
            leaks: Some(Periodic { first: 3, every: 1, burst: 1, heal_after: 0 }),
            switches: Some(Periodic { first: 4, every: 1, burst: 3, heal_after: 5 }),
            gpfs: Some(Periodic { first: 5, every: 1, burst: 1, heal_after: 4 }),
            // The storm's alert groups already exist when the check faults
            // fire, so there is no `group_wait` to sit out.
            leak_to_incident_s: 120,
            switch_to_incident_s: 120,
            flaky: &[
                FlakyWindow { receiver: "slack", from_step: 20, until_step: 23, fail_permille: 600 },
                FlakyWindow { receiver: "servicenow", from_step: 50, until_step: 53, fail_permille: 600 },
                FlakyWindow { receiver: "slack", from_step: 80, until_step: 83, fail_permille: 600 },
            ],
            ..base
        },
        "dashboard_mix" => Workload {
            name: "dashboard_mix",
            why: "12 simulated hours preloaded across head, sealed, offloaded and cold tiers, then a cold+warm dashboard refresh after every step: reads beside writes on the same stores",
            dt_s: 120,
            syslog_per_step: 40,
            container_per_step: 20,
            // 72 ten-minute steps: 12 h.
            preload_steps: 72,
            preload_dt_s: 600,
            refresh: RefreshPlan::EveryStep,
            window_s: 6 * 3_600,
            render_step_s: 360,
            slow_query_threshold_ms: Some(2),
            // Faults run through the preload too, so the dashboards'
            // streams have data in every tier.
            leaks: Some(Periodic { first: 6, every: 9, burst: 1, heal_after: 0 }),
            switches: Some(Periodic { first: 8, every: 7, burst: 1, heal_after: 3 }),
            // The alert groups exist since the preload: no `group_wait`.
            leak_to_incident_s: 240,
            switch_to_incident_s: 240,
            ..base
        },
        _ => return None,
    })
}

/// A fault to apply before a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Leak on `chassis[index]`.
    Leak { index: usize, sensor: char, zone: LeakZone },
    /// `switches[index]` changes state.
    Switch { index: usize, state: SwitchState },
    /// `gpfs_servers[index]` changes state.
    Gpfs { index: usize, state: GpfsState },
}

/// How many targets of each kind the machine has.
#[derive(Debug, Clone, Copy)]
pub struct Targets {
    pub chassis: usize,
    pub switches: usize,
    pub gpfs_servers: usize,
}

/// Seed-chosen index in `0..n`.
fn seeded(tag: &str, seed: u64, n: usize) -> usize {
    fnv1a64(format!("{tag}:{seed}").as_bytes()) as usize % n
}

/// The chassis and the switch reserved for the check faults.
pub fn check_targets(seed: u64, targets: Targets) -> (usize, usize) {
    (seeded("check-leak", seed, targets.chassis), seeded("check-switch", seed, targets.switches))
}

/// The faults due before global step `g` (preload steps count from 0,
/// timed steps follow). A pure function of `(workload, seed, g)`.
pub fn actions_at(w: &Workload, seed: u64, g: usize, targets: Targets) -> Vec<Action> {
    let (check_chassis, check_switch) = check_targets(seed, targets);
    // The fault numbers a schedule fires at step `g` (empty if none).
    let firing = |p: Periodic, g: usize| -> std::ops::Range<usize> {
        if g >= p.first && (g - p.first).is_multiple_of(p.every) {
            let n = (g - p.first) / p.every;
            n * p.burst..(n + 1) * p.burst
        } else {
            0..0
        }
    };
    let healing = |p: Periodic, g: usize| match g.checked_sub(p.heal_after) {
        Some(h) => firing(p, h),
        None => 0..0,
    };
    // Seed-rotated round-robin over the targets that are not reserved: the
    // seed moves the starting target, the pattern of repeats stays.
    let pick = |tag: &str, k: usize, n: usize, reserved: Option<usize>| -> usize {
        let free = n - usize::from(reserved.is_some());
        let i = (seeded(tag, seed, free) + k) % free;
        i + usize::from(reserved.is_some_and(|r| i >= r))
    };
    let mut out = Vec::new();
    if let Some(s) = g.checked_sub(w.preload_steps) {
        if s == CHECK_LEAK_STEP {
            out.push(Action::Leak { index: check_chassis, sensor: 'A', zone: LeakZone::Front });
        }
        if s == CHECK_SWITCH_STEP {
            out.push(Action::Switch { index: check_switch, state: SwitchState::Unknown });
        }
        if s == CHECK_SWITCH_STEP + CHECK_SWITCH_HEAL_AFTER {
            out.push(Action::Switch { index: check_switch, state: SwitchState::Online });
        }
    }
    if let Some(p) = w.leaks {
        for k in firing(p, g) {
            out.push(Action::Leak {
                index: pick("leak", k, targets.chassis, Some(check_chassis)),
                sensor: if (k / (targets.chassis - 1)).is_multiple_of(2) { 'A' } else { 'B' },
                zone: if k % 2 == 0 { LeakZone::Front } else { LeakZone::Rear },
            });
        }
    }
    if let Some(p) = w.switches {
        let target = |k| pick("switch", k, targets.switches, Some(check_switch));
        for k in firing(p, g) {
            let state = if k % 2 == 0 { SwitchState::Unknown } else { SwitchState::Offline };
            out.push(Action::Switch { index: target(k), state });
        }
        for k in healing(p, g) {
            out.push(Action::Switch { index: target(k), state: SwitchState::Online });
        }
    }
    if let Some(p) = w.gpfs {
        let target = |k| pick("gpfs", k, targets.gpfs_servers, None);
        for k in firing(p, g) {
            let state = if k % 2 == 0 { GpfsState::Degraded } else { GpfsState::Failed };
            out.push(Action::Gpfs { index: target(k), state });
        }
        for k in healing(p, g) {
            out.push(Action::Gpfs { index: target(k), state: GpfsState::Healthy });
        }
    }
    out
}

/// A twenty-step cut of `alert_storm` on the tiny machine — small enough
/// for unit tests in a debug build, long enough for both check faults to
/// open their incidents — and a guard that serializes the tests running
/// replicas: the allocation counters are process-wide, and two replicas
/// counted at once would not repeat each other's counts.
#[cfg(test)]
pub fn miniature_with_lock() -> (Workload, std::sync::MutexGuard<'static, ()>) {
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = ONE_AT_A_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let miniature = Workload {
        name: "miniature",
        topology: TopologySpec::tiny,
        steps: 20,
        refresh: RefreshPlan::AfterSteps { count: 2 },
        flaky: &[FlakyWindow {
            receiver: "slack",
            from_step: 14,
            until_step: 16,
            fail_permille: 600,
        }],
        ..by_name("alert_storm").expect("alert_storm is a workload")
    };
    (miniature, guard)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TARGETS: Targets = Targets { chassis: 4, switches: 8, gpfs_servers: 8 };

    #[test]
    fn every_workload_meets_the_protocol_minimums() {
        for name in ALL {
            let w = by_name(name).unwrap();
            assert_eq!(w.name, *name);
            assert!(w.steps >= 100, "{name}: S >= 100");
            assert!(w.refreshes() >= 24, "{name}: Q >= 24");
            assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
        }
        const { assert!(REPLICAS >= 10) };
        assert_eq!(Workload::replicas_for(DECLARED_SECONDS), REPLICAS);
        assert_eq!(Workload::replicas_for(1), REPLICAS);
        assert_eq!(Workload::replicas_for(2 * DECLARED_SECONDS), 2 * REPLICAS);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn a_second_seed_changes_targets_but_not_position_or_fault_counts() {
        for name in ALL {
            let w = by_name(name).unwrap();
            let total = w.preload_steps + w.steps;
            let script =
                |seed| (0..total).map(|g| actions_at(&w, seed, g, TARGETS)).collect::<Vec<_>>();
            let (a, b) = (script(1), script(2));
            assert_eq!(a, script(1), "{name}: same seed, same script");
            let shape = |s: &[Vec<Action>]| {
                s.iter()
                    .map(|acts| acts.iter().map(std::mem::discriminant).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
            };
            assert_eq!(shape(&a), shape(&b), "{name}: fault kinds per step are seed-independent");
            let leak = Action::Leak {
                index: check_targets(1, TARGETS).0,
                sensor: 'A',
                zone: LeakZone::Front,
            };
            assert_eq!(a[w.preload_steps + CHECK_LEAK_STEP][0], leak, "{name}: the check leak");
            let on_check_chassis = a.iter().flatten().filter(|x| matches!(x, Action::Leak { index, .. } if *index == check_targets(1, TARGETS).0));
            assert_eq!(on_check_chassis.count(), 1, "{name}: load leaks avoid the check chassis");
        }
        let storm = by_name("alert_storm").unwrap();
        let differs = (0..storm.steps)
            .any(|g| actions_at(&storm, 1, g, TARGETS) != actions_at(&storm, 2, g, TARGETS));
        assert!(differs, "the seed must move the targets");
    }

    #[test]
    fn flaky_windows_are_shorter_than_the_retry_budget() {
        let attempts = omni_model::RetryPolicy::default().max_attempts as usize;
        for name in ALL {
            for f in by_name(name).unwrap().flaky {
                assert!(f.until_step - f.from_step < attempts / 2);
            }
        }
    }
}
