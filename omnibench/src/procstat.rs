//! Interference diagnostics from `/proc`: what the process was given, as
//! opposed to what it asked for.

use std::fs;

/// `USER_HZ`: the unit of the times in `/proc/<pid>/stat`. It is 100 on
/// every Linux ABI this runs on (it is fixed by the ABI, not by `CONFIG_HZ`).
const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_kib(&status, "VmHWM:") / 1024.0
}

fn parse_status_kib(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0.0)
}

/// The main thread's `(on-CPU ns, run-queue wait ns)` so far.
pub fn main_thread_sched_ns() -> (u64, u64) {
    parse_schedstat(&fs::read_to_string("/proc/self/schedstat").unwrap_or_default())
}

fn parse_schedstat(text: &str) -> (u64, u64) {
    let mut fields = text.split_whitespace().map(|f| f.parse().unwrap_or(0));
    (fields.next().unwrap_or(0), fields.next().unwrap_or(0))
}

/// Process CPU seconds (user + system, all threads) so far.
pub fn process_cpu_s() -> f64 {
    parse_stat_cpu_s(&fs::read_to_string("/proc/self/stat").unwrap_or_default())
}

fn parse_stat_cpu_s(stat: &str) -> f64 {
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

extern "C" {
    // glibc / musl, which `std` already links on Linux. The mask is an
    // array of `unsigned long`; `cpusetsize` is its length in bytes.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the affinity mask: room for 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// Restrict the process (threads it spawns later inherit the mask) to one
/// of the CPUs it is allowed on — the highest-numbered, which is least
/// likely to be the one taking the machine's interrupts. Returns the CPU,
/// or `None` where the kernel refuses; the run then goes on unpinned.
///
/// Why: the query frontend runs a query's uncached splits on scoped
/// threads, so a cold refresh takes `max(split)` when two cores are free
/// and `sum(split)` when a neighbour holds one, and on this shared 2-vCPU
/// box that changes by the quarter hour. Unpinned, `alert_storm`'s
/// `refresh_cold_ms_p50` read 15.3, 16.4-17.1 and 21.1 ms in three such
/// periods; pinned it read 20.9-21.4 ms in all of them. On one CPU the
/// threads always run one after the other: the metric is the work, not
/// the number of cores the hour happened to offer.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // and pid 0 is the calling thread (the only one at this point).
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } < 0 {
        return None;
    }
    let cpu = highest_set_bit(&mask)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

fn highest_set_bit(mask: &[u64]) -> Option<usize> {
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    Some(word * 64 + 63 - bits.leading_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_proc_formats() {
        assert_eq!(parse_status_kib("Name:\tx\nVmHWM:\t  204800 kB\n", "VmHWM:"), 204800.0);
        assert_eq!(parse_schedstat("123456 789 42\n"), (123456, 789));
        let stat = "4242 (omni bench) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(parse_stat_cpu_s(stat), 3.0);
        assert_eq!(parse_stat_cpu_s("garbage"), 0.0);
    }

    #[test]
    fn the_highest_allowed_cpu_is_picked() {
        assert_eq!(highest_set_bit(&[0b0110, 0]), Some(2));
        assert_eq!(highest_set_bit(&[1, 1 << 5]), Some(69));
        assert_eq!(highest_set_bit(&[0, 0]), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib() > 1.0);
        let (on_cpu, _) = main_thread_sched_ns();
        assert!(on_cpu > 0);
    }
}
