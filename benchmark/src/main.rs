//! The repo benchmark: a request's journey through the platform on
//! five workloads. See README.md beside this package and
//! BENCHMARK.json at the repo root.
//!
//! ```text
//! urpsm-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process; the last line of stdout is the
//!     result as one JSON object (the BENCHMARK.json contract)
//! urpsm-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace]
//!     every workload (or one), each in its own child process
//! urpsm-benchmark check-repeat [--seed N] [--seconds S]
//!     two sets of `run`; fails if a timing differs by more than its
//!     bound or an output metric differs at all
//! ```

mod adapter;
mod json;
mod metrics;
mod procfs;
mod runner;
mod stats;
mod trace;

use std::process::{Command, ExitCode, Stdio};

use adapter::{Workload, WORKLOADS};
use metrics::END_TO_END;

/// Where traces and WAL directories go, relative to the repo root (the
/// working directory of every documented command).
const OUT_DIR: &str = "benchmark/out";
/// The seed of every number quoted in README.md.
const DEFAULT_SEED: u64 = 7;
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                o.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            // `--trace 0|1` from the driver; a bare `--trace` means 1.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

/// Library `Default`s read `URPSM_*` variables; the program under test
/// must receive only the generated inputs.
fn refuse_env_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("URPSM_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the library reads these behind the benchmark's back; unset them",
            set.join(", ")
        ))
    }
}

fn print_header(o: &Options) {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "urpsm-benchmark: nproc {nproc}, {rustc}, seed {}, {} s per workload, \
         closed loop with one client",
        o.seed, o.seconds
    );
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json::quote(name),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn from_json(line: &str) -> Result<RunResult, String> {
        use json::Value;
        let doc = json::parse(line)?;
        let field = |k: &str| doc.get(k).ok_or(format!("result line lacks {k:?}"));
        let Value::Object(map) = field("metrics")? else {
            return Err("\"metrics\" is not an object".to_string());
        };
        let metrics = map
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                    _ => Err(format!("metric {name:?} lacks value/unit")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(RunResult {
            correct: field("correct")?
                .as_bool()
                .ok_or("\"correct\" is not a bool")?,
            attempted: field("attempted")?
                .as_f64()
                .ok_or("\"attempted\" is not a number")? as u64,
            failed: field("failed")?
                .as_f64()
                .ok_or("\"failed\" is not a number")? as u64,
            metrics,
        })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// One workload, here and now.
fn measure(o: &Options, workload: Workload) -> Result<RunResult, String> {
    let report = runner::run(&runner::Request {
        workload,
        seed: o.seed,
        seconds: o.seconds,
        traced: o.trace,
    })
    .map_err(|e| format!("{}: I/O error: {e}", workload.name()))?;
    let finite = report.metrics.iter().all(|m| m.1.is_finite());
    if !finite {
        eprintln!("CHECK FAILED [{}]: a metric is not finite", workload.name());
    }
    Ok(RunResult {
        correct: report.failed == 0 && finite,
        attempted: report.attempted.max(1),
        failed: report.failed + u64::from(!finite),
        metrics: report
            .metrics
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
            .collect(),
    })
}

fn print_metrics(workload: Workload, result: &RunResult) {
    println!(
        "== {} ({} events attempted, {} failed) ==",
        workload.name(),
        result.attempted,
        result.failed
    );
    for (name, value, unit) in &result.metrics {
        let better = if metrics::higher_is_better(name) {
            "higher"
        } else {
            "lower"
        };
        println!("  {name:<40} {value:>16.4} {unit:<9} ({better} is better)");
    }
}

/// The driver's entry: measure, print, and end with the result line.
fn single(o: &Options) -> Result<bool, String> {
    let workload = o.workload.ok_or("--workload is required")?;
    print_header(o);
    let result = measure(o, workload)?;
    print_metrics(workload, &result);
    println!("{}", result.to_json());
    Ok(result.correct)
}

/// Runs one workload in a child process (so that `peak_rss_mb` is the
/// workload's own) and reads its result line back.
fn child(o: &Options, workload: Workload, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .next_back()
        .ok_or(format!("{}: the child printed nothing", workload.name()))?;
    let result = RunResult::from_json(line)
        .map_err(|e| format!("{}: {e} (child {})", workload.name(), out.status))?;
    Ok(result)
}

/// One set: every selected workload once (twice with `--trace`).
fn run_set(o: &Options) -> Result<Vec<(Workload, RunResult)>, String> {
    let selected: Vec<Workload> = match o.workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let mut set = Vec::new();
    for workload in selected {
        let result = child(o, workload, false)?;
        print_metrics(workload, &result);
        set.push((workload, result));
        if o.trace {
            let traced = child(o, workload, true)?;
            print_metrics(workload, &traced);
            set.push((workload, traced));
        }
    }
    Ok(set)
}

/// The deterministic end-to-end metrics: equal inputs give equal values.
const OUTPUT_METRICS: [&str; 2] = ["served_share", "unified_cost"];

/// Whether every result of the set passed its own checks, and every
/// workload that shares its inputs with another reached that one's
/// outputs.
fn set_is_correct(set: &[(Workload, RunResult)]) -> bool {
    let mut ok = true;
    for (workload, result) in set {
        if !result.correct {
            ok = false;
            eprintln!("FAILED: checks failed on {}", workload.name());
        }
        let twin = workload
            .same_outputs_as()
            .and_then(|t| set.iter().find(|(w, _)| *w == t));
        let Some((twin, expected)) = twin else {
            continue;
        };
        for name in OUTPUT_METRICS {
            let (got, want) = (result.value(name), expected.value(name));
            if got.is_some() && got != want {
                ok = false;
                eprintln!(
                    "CHECK FAILED [{}]: {name} {got:?} != {want:?} of {}",
                    workload.name(),
                    twin.name()
                );
            }
        }
    }
    ok
}

fn run_all(o: &Options) -> Result<bool, String> {
    print_header(o);
    Ok(set_is_correct(&run_set(o)?))
}

/// Two sets of the same build, back to back: every timing of the
/// second that is held to a bound must be within it of the first, and
/// the output metrics equal.
fn check_repeat(o: &Options) -> Result<bool, String> {
    print_header(o);
    let o = Options { trace: false, ..*o };
    println!("---- set 1 ----");
    let first = run_set(&o)?;
    println!("---- set 2 ----");
    let second = run_set(&o)?;

    let mut ok = set_is_correct(&first) & set_is_correct(&second);
    println!("---- set 1 vs set 2 ----");
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "worse by", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.value(m.name), b.value(m.name)) else {
                return Err(format!("{}: {} missing", workload.name(), m.name));
            };
            let worse = stats::worsening(x, y, m.higher_is_better);
            // The same seed and the same build: the outputs are exact.
            // A workload BENCHMARK.json does not list has no timing
            // bound to keep.
            let (within, bound) = if OUTPUT_METRICS.contains(&m.name) {
                (x == y, "exact".to_string())
            } else if workload.held_to_bounds() {
                (worse.abs() <= m.bound, format!("{:.0}%", m.bound * 100.0))
            } else {
                (true, "none".to_string())
            };
            ok &= within;
            println!(
                "{:<18} {:<18} {:>14.4} {:>14.4} {:>8.1}% {:>7}{}",
                workload.name(),
                m.name,
                x,
                y,
                worse * 100.0,
                bound,
                if within {
                    ""
                } else {
                    "  <-- differs by more than a repeat may"
                }
            );
        }
    }
    println!("check-repeat: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some("run") => ("run", &args[1..]),
        Some("check-repeat") => ("check-repeat", &args[1..]),
        _ => ("single", &args[..]),
    };
    let outcome = refuse_env_knobs()
        .and_then(|()| parse_options(rest))
        .and_then(|o| match mode {
            "run" => run_all(&o),
            "check-repeat" => check_repeat(&o),
            _ => single(&o),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("urpsm-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let o = parse_options(&strings(&[
            "--workload",
            "metro-ingest",
            "--seed",
            "11",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(o.workload, Some(Workload::MetroIngest));
        assert_eq!((o.seed, o.seconds, o.trace), (11, 3.0, false));
        let o = parse_options(&strings(&["--trace", "1", "--seed", "2"])).unwrap();
        assert!(o.trace && o.seed == 2);
        // A bare flag, as `run --trace` documents it.
        assert!(parse_options(&strings(&["--trace"])).unwrap().trace);
        assert!(
            parse_options(&strings(&["--trace", "--seed", "5"]))
                .unwrap()
                .trace
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--bogus"],
        ] {
            assert!(parse_options(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn twin_workloads_must_reach_the_same_outputs() {
        let result = |cost: f64| RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![
                ("served_share".into(), 0.99, "ratio".into()),
                ("unified_cost".into(), cost, "cost".into()),
                ("throughput_eps".into(), cost * 3.0, "events/s".into()),
            ],
        };
        let set = |t2_cost: f64| {
            vec![
                (Workload::ChengduDense, result(100.0)),
                (Workload::ChengduDenseT2, result(t2_cost)),
                (Workload::MetroIngest, result(7.0)),
            ]
        };
        assert!(set_is_correct(&set(100.0)));
        assert!(!set_is_correct(&set(100.5)));
        // One workload alone has no twin to be compared with.
        assert!(set_is_correct(&set(100.5)[1..]));
        let mut failed = set(100.0);
        failed[2].1.correct = false;
        assert!(!set_is_correct(&failed));
    }

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 123_456,
            failed: 0,
            metrics: vec![
                ("throughput_eps".into(), 8312.123456789, "events/s".into()),
                ("setup_s".into(), 0.8127, "s".into()),
            ],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = RunResult::from_json(&line).unwrap();
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (123_456, 0));
        assert_eq!(back.value("throughput_eps"), Some(8312.123456789));
        assert_eq!(back.value("setup_s"), Some(0.8127));
        assert_eq!(back.value("absent"), None);
    }
}
