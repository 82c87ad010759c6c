//! `omni-bench`: the repo's one benchmark. See `omnibench/README.md`.
//!
//! ```text
//! omni-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! omni-bench --workload <name> --seed <n> --check-repeat <N>
//! ```

mod alloc_count;
mod digest;
mod pipeline;
mod procstat;
mod report;
mod series;
mod spans;
mod staged;
mod workloads;

use std::process::{Command, ExitCode};

#[global_allocator]
static GLOBAL: alloc_count::Counting = alloc_count::Counting;

/// The contract: workloads, metrics, units and bounds. Compiled in so
/// `--check-repeat` judges by the same bounds the driver does.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Args {
    workload: workloads::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    check_repeat: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: omni-bench --workload <{}> [--seed <n>] [--seconds <1..60>] [--trace <0|1>] [--check-repeat <N>=2..]",
        workloads::ALL.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut check_repeat) =
        (1u64, workloads::DECLARED_SECONDS, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: {value:?} is not a whole number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => {
                seconds = number()?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--check-repeat" => {
                let n = number()? as usize;
                if n < 2 {
                    return Err("--check-repeat needs at least 2 runs".to_string());
                }
                check_repeat = Some(n);
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, check_repeat })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match args.check_repeat {
        Some(n) => check_repeat(&args, n),
        None => measure(args),
    }
}

fn measure(args: Args) -> ExitCode {
    match procstat::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => println!(
            "warning: not pinned to one cpu: the threaded sections will read by how many cores are free"
        ),
    }
    let replicas = workloads::Workload::replicas_for(args.seconds);
    let run = report::execute(args.workload, args.seed, replicas, args.trace);
    let metrics = if args.trace { report::per_layer(&run) } else { report::end_to_end(&run) };
    print!("{}", report::describe(&run, &metrics));
    if let Some(staged) = &run.staged {
        match write_trace(&run, &staged.spans) {
            Ok(path) => println!("trace {} spans -> {}", staged.spans.len(), path.display()),
            Err(e) => eprintln!("could not write the trace: {e}"),
        }
    }
    println!("{}", report::result_json(&run, &metrics));
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Spans go beside the binary (inside the build directory, which every
/// checkout already ignores): `<exe dir>/omni-bench-traces/<workload>-<seed>.jsonl`.
fn write_trace(run: &report::Run, spans: &[spans::Span]) -> std::io::Result<std::path::PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().unwrap_or(std::path::Path::new(".")).join("omni-bench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-{}.jsonl", run.workload.name, run.seed));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    spans::write_jsonl(spans, &mut file)?;
    Ok(path)
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Vec<(String, f64)> {
    let spec = omni_json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
    spec.get("end_to_end")
        .and_then(omni_json::Json::as_array)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect()
}

/// Run the workload `n` times in fresh child processes; fail, naming the
/// metric, if any end-to-end metric's `(max - min) / min` exceeds its bound.
fn check_repeat(args: &Args, n: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let bounds = bounds();
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); bounds.len()];
    for i in 0..n {
        let output = Command::new(&exe)
            .args(["--workload", args.workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .output()
            .expect("the child run starts");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = stdout.lines().last().and_then(|l| omni_json::parse(l).ok());
        let Some(result) = result.filter(|_| output.status.success()) else {
            eprintln!("run {i} failed:\n{stdout}{}", String::from_utf8_lossy(&output.stderr));
            return ExitCode::from(1);
        };
        for ((name, _), seen) in bounds.iter().zip(&mut values) {
            let value =
                result.pointer(&format!("/metrics/{name}/value")).and_then(omni_json::Json::as_f64);
            seen.push(value.expect("every end-to-end metric is printed"));
        }
        eprintln!("run {}/{n} done", i + 1);
    }
    let mut ok = true;
    for ((name, bound), seen) in bounds.iter().zip(&values) {
        let (lo, hi) =
            seen.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let spread = (hi - lo) / lo;
        let verdict = if spread > *bound { "EXCEEDS" } else { "within" };
        println!(
            "{name:<32} min {lo:>14.6} max {hi:>14.6} spread {:>7.3}% {verdict} bound {:.1}%",
            spread * 100.0,
            bound * 100.0
        );
        ok &= spread <= *bound;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a =
            args(&["--workload", "log_flood", "--seed", "7", "--seconds", "30", "--trace", "1"])
                .unwrap();
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("log_flood", 7, 30, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "the workload is required");
        assert!(args(&["--workload", "log_flood", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "log_flood", "--check-repeat", "1"]).is_err());
        assert_eq!(
            args(&["--workload", "log_flood", "--check-repeat", "5"]).unwrap().check_repeat,
            Some(5)
        );
    }

    #[test]
    fn benchmark_json_names_what_the_binary_prints() {
        let spec = omni_json::parse(BENCHMARK_JSON).unwrap();
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(omni_json::Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(omni_json::Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), workloads::ALL);
        assert_eq!(names("end_to_end"), report::END_TO_END.map(|(n, _)| n));
        assert_eq!(bounds().len(), report::END_TO_END.len());
        assert!(bounds().iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        for w in spec.get("workloads").and_then(omni_json::Json::as_array).unwrap() {
            let name = w.get("name").and_then(omni_json::Json::as_str).unwrap();
            let why = w.get("why").and_then(omni_json::Json::as_str).unwrap();
            assert_eq!(why, workloads::by_name(name).unwrap().why);
        }
        assert_eq!(
            spec.get("run_seconds").and_then(omni_json::Json::as_f64),
            Some(workloads::DECLARED_SECONDS as f64)
        );
    }

    #[test]
    fn a_traced_miniature_run_is_correct_and_prints_the_per_layer_metrics_of_benchmark_json() {
        let (w, _serial) = workloads::miniature_with_lock();
        let run = report::execute(w, 5, 2, true);
        assert_eq!(run.violations, Vec::<String>::new());
        let printed: Vec<(String, String)> =
            report::per_layer(&run).into_iter().map(|m| (m.name, m.unit.to_string())).collect();
        let spec = omni_json::parse(BENCHMARK_JSON).unwrap();
        let listed: Vec<(String, String)> = spec
            .get("per_layer")
            .and_then(omni_json::Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(omni_json::Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(printed, listed);
        for layer in report::LAYERS {
            assert!(printed.iter().any(|(n, _)| *n == format!("{layer}.self_ms_per_step")));
        }
        let line = report::result_json(&run, &report::per_layer(&run));
        let parsed = omni_json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct").and_then(omni_json::Json::as_bool), Some(true));
        assert_eq!(parsed.as_object().map(<[_]>::len), Some(4));
    }
}
