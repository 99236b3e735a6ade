//! `perfbench steady [--runs <n>]`: runs two sets of every workload for
//! `BENCHMARK.json`'s `run_seconds`, alternating which set goes first, each
//! run its own process as a separate invocation of the command would be.
//! For each end-to-end metric it prints each set's median and quartiles,
//! the spread (interquartile distance over the median) and the shift
//! between the two sets' medians, against the bounds in `BENCHMARK.json`.
//! Raw results go to `out/steady-<unix time>.jsonl`.

use crate::spec::END_TO_END;
use crate::timing::quartiles;
use crate::workloads::Workload;
use serde_json::Value;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::Command;

/// `BENCHMARK.json`, beside the package directory.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn parse(args: &[String]) -> Result<usize, String> {
    match args {
        [] => Ok(10),
        [flag, v] if flag == "--runs" => v
            .parse()
            .ok()
            .filter(|&n| n >= 2)
            .ok_or_else(|| "--runs must be a whole number >= 2".to_string()),
        _ => Err("usage: perfbench steady [--runs <n>]".into()),
    }
}

/// `BENCHMARK.json`'s `run_seconds` and the `bound` of every end-to-end
/// metric.
fn benchmark() -> Result<(u64, Vec<(String, f64)>), String> {
    let path = BENCHMARK_JSON;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let seconds = v
        .get("run_seconds")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{path}: no run_seconds"))?;
    let Some(Value::Array(items)) = v.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    let bounds = items
        .iter()
        .map(
            |m| match (m.get("name"), m.get("bound").and_then(Value::as_f64)) {
                (Some(Value::Str(n)), Some(b)) => Ok((n.clone(), b)),
                _ => Err(format!("{path}: malformed end_to_end entry")),
            },
        )
        .collect::<Result<_, _>>()?;
    Ok((seconds, bounds))
}

/// One finished run: its result line, parsed.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn run_once(w: Workload, seed: u64, seconds: u64) -> Result<(RunResult, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited {}: {}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let v: Value = serde_json::from_str(&last).map_err(|e| format!("result line: {e}"))?;
    let metrics = match v.get("metrics") {
        Some(Value::Object(ms)) => ms
            .iter()
            .map(|(k, m)| {
                (
                    k.clone(),
                    m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                )
            })
            .collect(),
        _ => return Err("result line has no metrics".into()),
    };
    let r = RunResult {
        correct: matches!(v.get("correct"), Some(Value::Bool(true))),
        attempted: v.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: v.get("failed").and_then(Value::as_u64).unwrap_or(u64::MAX),
        metrics,
    };
    Ok((r, last))
}

fn value(r: &RunResult, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|(k, _)| k == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// One set's median, quartiles and spread (interquartile distance over the
/// median).
#[derive(Debug, Clone, Copy)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
}

fn summary(values: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(values);
    Summary {
        median,
        q1,
        q3,
        spread: (q3 - q1) / median,
    }
}

/// How two sets of the same metric compare against its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Both spreads and the shift are within a third of the bound.
    Ok,
    /// Within the bound, but a spread exceeds a third of it.
    Wide,
    /// A spread, or the shift between the medians in either direction,
    /// exceeds the bound.
    Fail,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Wide => "wide",
            Verdict::Fail => "FAIL",
        }
    }
}

/// Both sets ran unchanged code, so they must agree whichever way the
/// medians moved: a shift either way beyond the bound fails, as does a
/// spread beyond it.
fn verdict(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    let shift = (b.median - a.median) / a.median;
    let widest = a.spread.max(b.spread);
    // Written so that a NaN (a missing metric) fails.
    if !(shift.abs() <= bound && widest <= bound) {
        Verdict::Fail
    } else if widest > bound / 3.0 {
        Verdict::Wide
    } else {
        Verdict::Ok
    }
}

pub fn main(args: &[String]) -> Result<(), String> {
    let runs = parse(args)?;
    let (seconds, bounds) = benchmark()?;
    let out_dir = crate::package_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let log_path = out_dir.join(format!("steady-{stamp}.jsonl"));
    let mut log = std::fs::File::create(&log_path).map_err(|e| e.to_string())?;

    // results[w][set] = runs
    let mut results: Vec<[Vec<RunResult>; 2]> =
        Workload::ALL.iter().map(|_| [vec![], vec![]]).collect();
    for i in 0..runs {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for (wi, &w) in Workload::ALL.iter().enumerate() {
                let seed = 1000 * (set as u64 + 1) + i as u64;
                let (r, line) = run_once(w, seed, seconds)?;
                eprintln!(
                    "steady: run {}/{runs} set {} {} seed {seed}: {}",
                    i + 1,
                    ["A", "B"][set],
                    w.name(),
                    line
                );
                writeln!(
                    log,
                    "{{\"set\":\"{}\",\"workload\":\"{}\",\"seed\":{seed},\"result\":{line}}}",
                    ["A", "B"][set],
                    w.name()
                )
                .map_err(|e| e.to_string())?;
                results[wi][set].push(r);
            }
        }
    }

    let mut report = String::new();
    let mut ok = true;
    for (wi, w) in Workload::ALL.iter().enumerate() {
        let sets = &results[wi];
        let _ = writeln!(report, "\n{}", w.name());
        let _ = writeln!(
            report,
            "  {:<14} {:>12} {:>12} {:>12} {:>7} | {:>12} {:>12} {:>12} {:>7} | {:>7} {:>6}",
            "metric",
            "A median",
            "A q1",
            "A q3",
            "spread",
            "B median",
            "B q1",
            "B q3",
            "spread",
            "shift",
            "bound"
        );
        for m in &END_TO_END {
            let bound = bounds
                .iter()
                .find(|b| b.0 == m.name)
                .map_or(f64::NAN, |b| b.1);
            let a: Vec<f64> = sets[0].iter().map(|r| value(r, m.name)).collect();
            let b: Vec<f64> = sets[1].iter().map(|r| value(r, m.name)).collect();
            let (sa, sb) = (summary(&a), summary(&b));
            let v = verdict(&sa, &sb, bound);
            if v == Verdict::Fail {
                ok = false;
            }
            let _ = writeln!(
                report,
                "  {:<14} {:>12.6e} {:>12.6e} {:>12.6e} {:>7.4} | {:>12.6e} {:>12.6e} {:>12.6e} {:>7.4} | {:>+7.4} {bound:>6.3} {} ({} is better)",
                m.name,
                sa.median,
                sa.q1,
                sa.q3,
                sa.spread,
                sb.median,
                sb.q1,
                sb.q3,
                sb.spread,
                (sb.median - sa.median) / sa.median,
                v.as_str(),
                m.better.as_str()
            );
        }
        let share = |rs: &[RunResult]| {
            let (a, f) = rs
                .iter()
                .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
            (f as f64 / a.max(1) as f64, rs.iter().all(|r| r.correct))
        };
        let ((fa, ca), (fb, cb)) = (share(&sets[0]), share(&sets[1]));
        if fa != fb || !ca || !cb {
            ok = false;
        }
        let _ = writeln!(
            report,
            "  failed share A {fa} B {fb}; all correct A {ca} B {cb}"
        );
    }
    println!("{report}");
    println!("raw results: {}", log_path.display());
    if ok {
        Ok(())
    } else {
        Err("steadiness check failed".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten values with the given median and an interquartile spread of
    /// about 3 %.
    fn set(median: f64) -> Vec<f64> {
        (0..10)
            .map(|i| median * (1.0 + 0.01 * (i as f64 - 4.5) / 1.5))
            .collect()
    }

    #[test]
    fn a_shift_beyond_the_bound_fails_in_either_direction() {
        let bound = 0.2;
        let a = summary(&set(1.0));
        assert_eq!(verdict(&a, &summary(&set(1.0)), bound), Verdict::Ok);
        assert_eq!(verdict(&a, &summary(&set(1.19)), bound), Verdict::Ok);
        assert_eq!(verdict(&a, &summary(&set(0.81)), bound), Verdict::Ok);
        assert_eq!(verdict(&a, &summary(&set(1.21)), bound), Verdict::Fail);
        assert_eq!(verdict(&a, &summary(&set(0.79)), bound), Verdict::Fail);
    }

    #[test]
    fn a_spread_beyond_the_bound_fails_and_beyond_a_third_is_wide() {
        let bound = 0.2;
        let a = summary(&set(1.0));
        let spread = |s: f64| summary(&[1.0 - s, 1.0 - s / 2.0, 1.0, 1.0 + s / 2.0, 1.0 + s]);
        // quartiles of the five values sit at ±0.75 s, so the spread is 1.5 s
        assert_eq!(verdict(&a, &spread(0.04), bound), Verdict::Ok);
        assert_eq!(verdict(&spread(0.08), &a, bound), Verdict::Wide);
        assert_eq!(verdict(&a, &spread(0.14), bound), Verdict::Fail);
        assert_eq!(verdict(&a, &summary(&[f64::NAN, 1.0]), bound), Verdict::Fail);
    }
}
