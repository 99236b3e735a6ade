//! `perfbench`: end-to-end and per-layer benchmark of the round engines.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady [--runs <n>]
//! perfbench oracle
//! perfbench child ...     (internal: the timed job runs of one run)
//! ```
//!
//! A run prints a per-run summary, one `stats:` line of exact simulated
//! statistics, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). See README.md.

mod checks;
mod layers;
mod spec;
mod steady;
mod timing;
mod workloads;

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use tocttou_bench::alloc_count::{CountingAlloc, Snapshot};
use tocttou_experiments::monte_carlo::{run_mc, McConfig};
use tocttou_workloads::scenario::Scenario;
use workloads::{Bench, Out, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The package directory, where `work/` (scratch, removed after each run)
/// and `out/` (traces and steadiness logs) live.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A run's options.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?} is not a u64"))?,
                )
            }
            "--seconds" => {
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds {v:?} is not a whole number in 1..=600"))?;
            }
            "--trace" => {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The result line: `metrics` must name exactly the run's metric table,
/// in its order, with finite values.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    traced: bool,
    metrics: &[(&'static str, f64)],
) -> Result<String, String> {
    let table = spec::metrics_for(traced);
    let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
    let want: Vec<&str> = table.iter().map(|m| m.name).collect();
    if names != want {
        return Err(format!("metrics {names:?} do not match the table {want:?}"));
    }
    let mut fields = Vec::with_capacity(metrics.len());
    for (m, &(name, value)) in table.iter().zip(metrics) {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]),
        ));
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(fields)),
    ]);
    Ok(serde_json::to_string(&line).expect("JSON values serialize"))
}

/// The exact simulated-statistics line of a run.
fn stats_line(
    args: &RunArgs,
    bench: &mut dyn Bench,
    first: &[Out],
    allocs: Option<Snapshot>,
) -> Result<String, String> {
    let rounds = first.iter().map(Out::rounds).sum::<u64>();
    let mut line = format!(
        "stats: workload={} seed={} rounds={rounds}",
        args.workload.name(),
        args.seed
    );
    for (k, v) in bench.stats(first)? {
        line += &format!(" {k}={v}");
    }
    if let Some(a) = allocs {
        line += &format!(
            " allocs={} alloc_bytes={} allocs_per_round={:.4}",
            a.calls,
            a.bytes,
            a.calls as f64 / rounds.max(1) as f64
        );
    }
    Ok(line)
}

fn run(args: &RunArgs) -> Result<String, String> {
    let work =
        package_dir()
            .join("work")
            .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let mut bench = args.workload.bench(args.seed, &work);
    let result = if args.trace {
        run_traced(args, bench.as_mut(), &work)
    } else {
        run_untraced(args, bench.as_mut(), &work)
    };
    bench.cleanup();
    let _ = std::fs::remove_dir_all(&work);
    // Only when no other run is using it.
    let _ = std::fs::remove_dir(package_dir().join("work"));
    result
}

/// Seconds of timed job runs per timing process. Each process lays out its
/// heap and code at other addresses and lands in another phase of a shared
/// host, so the median over several processes is steadier than any one
/// process's figure (README.md, "Steadiness").
const SECONDS_PER_PROCESS: u64 = 2;

fn run_untraced(args: &RunArgs, bench: &mut dyn Bench, work: &Path) -> Result<String, String> {
    let m = workloads::measure_setup_and_first(bench)?;
    let processes = (args.seconds / SECONDS_PER_PROCESS).max(1);
    let budget = Duration::from_secs(args.seconds) / processes as u32;
    let mut runs = Vec::new();
    for _ in 0..processes {
        runs.push(spawn_timing(args, work, budget, &m.digests)?);
    }
    let check = bench.check(&m.first);
    if let Err(e) = &check {
        eprintln!("perfbench: check failed: {e}");
    }
    let norm: Vec<f64> = runs.iter().map(|r| r.run.normalized_s).collect();
    let raw: Vec<f64> = runs.iter().map(|r| r.run.raw_s).collect();
    let passes: usize = runs.iter().map(|r| r.run.passes).sum();
    let attempted = runs.iter().map(|r| r.attempted).sum::<u64>() + m.digests.len() as u64;
    let failed = runs.iter().map(|r| r.failed).sum();
    println!(
        "perfbench: {} seed {}: run {:.6} s normalized ({:.6} s raw; {} passes in {} processes: {}), \
         setup {:.6} s normalized ({:.6} s raw, {} passes), peak heap {} B",
        args.workload.name(),
        args.seed,
        timing::median(&norm),
        timing::median(&raw),
        passes,
        runs.len(),
        norm.iter().map(|v| format!("{v:.6}")).collect::<Vec<_>>().join(" "),
        m.setup.normalized_s,
        m.setup.raw_s,
        m.setup.passes,
        m.peak_heap_bytes
    );
    println!("{}", stats_line(args, bench, &m.first, Some(m.allocs))?);
    result_line(
        check.is_ok(),
        attempted,
        failed,
        false,
        &[
            ("run_s", timing::median(&norm)),
            ("setup_s", m.setup.normalized_s),
            ("peak_heap_mb", m.peak_heap_bytes as f64 / 1e6),
        ],
    )
}

/// Times the job in a child process (`perfbench child`), waiting for it.
fn spawn_timing(
    args: &RunArgs,
    work: &Path,
    budget: Duration,
    digests: &[u64],
) -> Result<workloads::JobTiming, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let digests: Vec<String> = digests.iter().map(u64::to_string).collect();
    let out = std::process::Command::new(exe)
        .arg("child")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--millis", &budget.as_millis().to_string()])
        .arg("--work")
        .arg(work)
        .args(["--digests", &digests.join(",")])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a timing process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("timing process exited with {}", out.status));
    }
    let v: Value = serde_json::from_str(stdout.lines().last().unwrap_or_default())
        .map_err(|e| format!("timing process output: {e}"))?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("timing process gave no {k}"))
    };
    Ok(workloads::JobTiming {
        run: timing::Timing {
            normalized_s: num("normalized_s")?,
            raw_s: num("raw_s")?,
            passes: num("passes")? as usize,
        },
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
    })
}

/// `perfbench child`: times the job of a run whose set-up the parent did,
/// printing one JSON line.
fn child(args: &[String]) -> Result<(), String> {
    let (mut workload, mut seed, mut millis, mut work, mut digests) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(v),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--millis" => millis = v.parse::<u64>().ok(),
            "--work" => work = Some(PathBuf::from(v)),
            "--digests" => {
                digests = v
                    .split(',')
                    .map(|d| d.parse::<u64>().ok())
                    .collect::<Option<Vec<_>>>()
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let bad = || "child needs --workload, --seed, --millis, --work and --digests".to_string();
    let (workload, seed, millis, work, digests) = (
        workload.ok_or_else(bad)?,
        seed.ok_or_else(bad)?,
        millis.ok_or_else(bad)?,
        work.ok_or_else(bad)?,
        digests.ok_or_else(bad)?,
    );
    let mut bench = workload.bench(seed, &work);
    bench.attach()?;
    let t = workloads::time_job(bench.as_mut(), Duration::from_millis(millis), &digests);
    let line = Value::Object(vec![
        ("normalized_s".into(), Value::Float(t.run.normalized_s)),
        ("raw_s".into(), Value::Float(t.run.raw_s)),
        ("passes".into(), Value::UInt(t.run.passes as u64)),
        ("attempted".into(), Value::UInt(t.attempted)),
        ("failed".into(), Value::UInt(t.failed)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("JSON values serialize")
    );
    Ok(())
}

fn run_traced(args: &RunArgs, bench: &mut dyn Bench, work: &Path) -> Result<String, String> {
    let mut tr = layers::Tracer::default();
    let t = layers::profile(bench, args.seconds, work, &mut tr)?;
    let check = bench.check(&t.first);
    if let Err(e) = &check {
        eprintln!("perfbench: check failed: {e}");
    }
    let trace = package_dir().join("out").join(format!(
        "trace-{}-{}.json",
        args.workload.name(),
        args.seed
    ));
    tr.write_chrome(&trace)
        .map_err(|e| format!("{}: {e}", trace.display()))?;
    println!("{}", tr.table());
    for (name, value) in &t.metrics {
        let unit = spec::PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .map_or("?", |m| m.unit);
        println!("{name:<32} {value:>16.3} {unit}");
    }
    println!(
        "perfbench: {} spans written to {}",
        tr.len(),
        trace.display()
    );
    println!("{}", stats_line(args, bench, &t.first, None)?);
    result_line(check.is_ok(), t.attempted, 0, true, &t.metrics)
}

/// Remakes the brute-force oracle file the `estimate-vi-uni` check reads.
fn oracle() -> Result<(), String> {
    let s = Scenario::vi_uniprocessor(workloads::SMALL_FILE_SIZE);
    let out = run_mc(
        &s,
        &McConfig {
            rounds: checks::ORACLE_ROUNDS,
            base_seed: checks::ORACLE_SEED,
            ..McConfig::default()
        },
    );
    let o = checks::Oracle {
        scenario: out.scenario,
        rounds: out.rounds,
        base_seed: checks::ORACLE_SEED,
        successes: out.successes,
    };
    let path = checks::Oracle::path();
    let text = serde_json::to_string_pretty(&o).expect("oracle serializes") + "\n";
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {}: {} successes in {} rounds",
        path.display(),
        o.successes,
        o.rounds
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("steady") => steady::main(&args[1..]),
        Some("child") => child(&args[1..]),
        Some("oracle") => oracle(),
        _ => match parse_run_args(&args) {
            Ok(a) => run(&a).map(|line| println!("{line}")),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        },
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let a = parse_run_args(&strings(&[
            "--workload",
            "sweep-taxonomy",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            a,
            RunArgs {
                workload: Workload::SweepTaxonomy,
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "sweep-taxonomy"],
            &["--workload", "sweep-taxonomy", "--seed", "x"],
            &[
                "--workload",
                "sweep-taxonomy",
                "--seed",
                "1",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "sweep-taxonomy",
                "--seed",
                "1",
                "--seconds",
                "0",
            ],
            &[
                "--workload",
                "sweep-taxonomy",
                "--seed",
                "1",
                "--bogus",
                "1",
            ],
            &["--workload"],
        ] {
            assert!(parse_run_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    fn printed_metrics(line: &str) -> Vec<(String, String)> {
        let v: Value = serde_json::from_str(line).expect("result line is JSON");
        let keys: Vec<&str> = match &v {
            Value::Object(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        match v.get("metrics") {
            Some(Value::Object(ms)) => ms
                .iter()
                .map(|(name, m)| match m.get("unit") {
                    Some(Value::Str(u)) => (name.clone(), u.clone()),
                    _ => panic!("metric {name} has no unit"),
                })
                .collect(),
            _ => panic!("no metrics object"),
        }
    }

    #[test]
    fn result_line_prints_exactly_the_metric_table() {
        for traced in [false, true] {
            let table = spec::metrics_for(traced);
            let values: Vec<(&'static str, f64)> = table
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name, 1.5 + i as f64))
                .collect();
            let line = result_line(true, 3, 0, traced, &values).expect("complete table");
            let want: Vec<(String, String)> = table
                .iter()
                .map(|m| (m.name.into(), m.unit.into()))
                .collect();
            assert_eq!(printed_metrics(&line), want);
            assert!(result_line(true, 3, 0, traced, &values[1..]).is_err());
            let mut nan = values.clone();
            nan[0].1 = f64::NAN;
            assert!(result_line(true, 3, 0, traced, &nan).is_err());
        }
    }
}
