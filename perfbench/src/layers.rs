//! The traced run: spans around the calls into each layer's public
//! functions, made from the benchmark's own code, kept in memory and
//! written out once at the end as Chrome trace_event JSON (which Perfetto
//! opens), plus the per-layer metrics computed from them.
//!
//! Every workload reports every per-layer metric, measured on that
//! workload's own scenario set ([`LayerSubject`]); README.md says on which
//! workload each one is expected to move which end-to-end metric.

use crate::timing::median;
use crate::workloads::{grid_scenarios, Bench, LayerSubject, Out};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use tocttou_bench::alloc_count;
use tocttou_core::stats::{clopper_pearson_ci, SuccessCounter};
use tocttou_experiments::campaign::run_campaign;
use tocttou_experiments::estimate::run_estimate;
use tocttou_experiments::monte_carlo::{run_mc, McConfig, McOutcome};
use tocttou_experiments::sweep::{run_sweep, SweepConfig};
use tocttou_os::kernel::KernelPool;
use tocttou_os::machine::MachineSpec;
use tocttou_workloads::scenario::Scenario;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns;
        span.dur_ns
    }

    /// Runs `f` inside a span, returning its output and the span's
    /// duration in nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace_event JSON ("X" complete events, microsecond
    /// timestamps), loadable in Perfetto.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes [`chrome_json`](Self::chrome_json) to `path`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_json())
    }

    /// Per span name: count, total, self time (total minus time covered
    /// by child spans) and mean, in first-seen order.
    pub fn table(&self) -> String {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = s.dur_ns.saturating_sub(child[i]);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.dur_ns;
                    r.3 += self_ns;
                }
                None => rows.push((s.name, 1, s.dur_ns, self_ns)),
            }
        }
        let mut out = format!(
            "{:<28} {:>8} {:>11} {:>11} {:>12}\n",
            "span", "count", "total ms", "self ms", "mean us"
        );
        for (name, n, total, own) in rows {
            let _ = writeln!(
                out,
                "{name:<28} {n:>8} {:>11.3} {:>11.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6,
                total as f64 / n as f64 / 1e3
            );
        }
        out
    }
}

/// An observer `MachineSpec` can strip: its metric, span names and the
/// `MachineSpec` method that strips it.
struct Observer {
    metric: &'static str,
    on: &'static str,
    off: &'static str,
    strip: fn(MachineSpec) -> MachineSpec,
}

const OBSERVERS: [Observer; 3] = [
    Observer {
        metric: "os.detect_ns_per_round",
        on: "os.detect.on",
        off: "os.detect.off",
        strip: MachineSpec::without_detector,
    },
    Observer {
        metric: "os.forensics_ns_per_round",
        on: "os.forensics.on",
        off: "os.forensics.off",
        strip: MachineSpec::without_forensics,
    },
    Observer {
        metric: "os.metrics_ns_per_round",
        on: "os.metrics.on",
        off: "os.metrics.off",
        strip: MachineSpec::without_metrics,
    },
];

/// `run_mc` over every scenario at `base + salt`, returning the outcomes
/// and the total host nanoseconds.
fn mc_over(scenarios: &[(Scenario, u64)], rounds: u64) -> (Vec<McOutcome>, u64) {
    let t = Instant::now();
    let outs = scenarios
        .iter()
        .map(|(s, seed)| {
            run_mc(
                s,
                &McConfig {
                    rounds,
                    base_seed: *seed,
                    ..McConfig::default()
                },
            )
        })
        .collect();
    (outs, t.elapsed().as_nanos() as u64)
}

/// Per-round nanoseconds of one round-lifecycle pass.
pub struct LifecyclePass {
    boot: u64,
    simulate: u64,
    recycle: u64,
    pub events: u64,
    total: u64,
}

/// Runs every scenario's rounds through the public round lifecycle the
/// engines use: warm checkpoint once, then per round a pooled build from
/// it, the simulation, and a recycle. With `tr` each call gets a span.
pub fn lifecycle(
    scenarios: &[(Scenario, u64)],
    rounds: u64,
    mut tr: Option<&mut Tracer>,
) -> LifecyclePass {
    let mut pass = LifecyclePass {
        boot: 0,
        simulate: 0,
        recycle: 0,
        events: 0,
        total: 0,
    };
    let t = Instant::now();
    let mut pool = KernelPool::new().retain_metrics();
    for (s, seed) in scenarios {
        let ck = match tr.as_deref_mut() {
            Some(tr) => {
                tr.time("kernel.checkpoint", || {
                    s.round_checkpoint(&s.template_vfs())
                })
                .0
            }
            None => s.round_checkpoint(&s.template_vfs()),
        };
        for i in 0..rounds {
            let seed = seed.wrapping_add(i);
            match tr.as_deref_mut() {
                Some(tr) => {
                    let (mut h, boot) = tr.time("kernel.boot", || {
                        s.build_from_checkpoint(&ck, seed, false, pool)
                    });
                    let e0 = h.kernel.events_processed();
                    let (_, sim) = tr.time("round.simulate", || s.finish_round(&mut h));
                    pass.events += h.kernel.events_processed() - e0;
                    let (p, rec) = tr.time("kernel.recycle", || h.kernel.recycle());
                    pool = p;
                    pass.boot += boot;
                    pass.simulate += sim;
                    pass.recycle += rec;
                }
                None => {
                    let mut h = s.build_from_checkpoint(&ck, seed, false, pool);
                    let e0 = h.kernel.events_processed();
                    black_box(s.finish_round(&mut h));
                    pass.events += h.kernel.events_processed() - e0;
                    pool = h.kernel.recycle();
                }
            }
        }
    }
    pass.total = t.elapsed().as_nanos() as u64;
    pass
}

fn per(n: u64, d: u64) -> f64 {
    n as f64 / d.max(1) as f64
}

/// What a traced run produced.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub first: Vec<Out>,
}

/// The traced run: set-up and one job run per part under spans (outputs
/// kept for the check), then every layer measured on the workload's
/// scenario set, passes interleaved until `seconds` are spent.
pub fn profile(
    bench: &mut dyn Bench,
    seconds: u64,
    work: &Path,
    tr: &mut Tracer,
) -> Result<Traced, String> {
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();

    let (setup, _) = tr.time("bench.setup", || bench.setup());
    setup?;
    let parts = bench.parts();
    let mut first = Vec::with_capacity(parts);
    let (mut alloc_calls, mut alloc_bytes) = (0, 0);
    for k in 0..parts {
        // The counting window holds the job alone, not the span records.
        let id = tr.begin("bench.job");
        let before = alloc_count::snapshot();
        let out = bench.job(k);
        let used = alloc_count::snapshot().since(before);
        tr.end(id);
        alloc_calls += used.calls;
        alloc_bytes += used.bytes;
        first.push(out?);
    }
    let job_rounds: u64 = first.iter().map(Out::rounds).sum();
    let subject: LayerSubject = bench.layers();

    // -- workloads + VFS: scenario builds and template forks, per point.
    let points = subject.grid.points.len() as u64;
    let (mut build_us, mut template_us) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        let mut built = Vec::new();
        let mut b = 0;
        for p in &subject.grid.points {
            let (s, d) = tr.time("workloads.scenario_build", || p.scenario());
            built.push(s);
            b += d;
        }
        let (base, mut t) = tr.time("vfs.base", || built[0].base_vfs());
        for s in &built {
            t += tr
                .time("vfs.template", || s.template_vfs_from_base(&base))
                .1;
        }
        build_us.push(per(b, points) / 1e3);
        template_us.push(per(t, points) / 1e3);
    }
    metrics.push(("workloads.scenario_build_us", median(&build_us)));
    metrics.push(("vfs.template_us", median(&template_us)));

    // -- kernel lifecycle, event core and engine, interleaved passes.
    let scenarios = grid_scenarios(&subject.grid, subject.base_seed);
    let rounds = subject.rounds * points;
    let (mut boot, mut sim, mut rec, mut trace_cost, mut engine) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut events = 0;
    let mut counts = None;
    // Traced, untraced and engine passes alternate; the tracing overhead
    // and the engine residual are medians of per-pass differences, which
    // cancel most of a shared host's drift.
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    while boot.len() < 3 || (boot.len() < 16 && start.elapsed() < budget * 2 / 5) {
        let id = tr.begin("layer.lifecycle.traced");
        let t = lifecycle(&scenarios, subject.rounds, Some(tr));
        tr.end(id);
        let (u, _) = tr.time("layer.lifecycle.untraced", || {
            lifecycle(&scenarios, subject.rounds, None)
        });
        let ((outs, mc_ns), _) = tr.time("mc.run_mc", || mc_over(&scenarios, subject.rounds));
        boot.push(per(t.boot, rounds));
        sim.push(per(t.simulate, rounds));
        rec.push(per(t.recycle, rounds));
        trace_cost.push((t.total as f64 - u.total as f64) / rounds as f64);
        engine.push((mc_ns as f64 - u.total as f64) / rounds as f64);
        events = t.events;
        counts.get_or_insert(outs);
    }
    let counts = counts.expect("at least one pass");
    let total = |f: fn(&McOutcome) -> u64| counts.iter().map(f).sum::<u64>();
    let sim = median(&sim);
    let events_per_round = per(events, rounds);
    metrics.push((
        "vfs.ops_per_round",
        per(total(|o| o.metrics.counters.vfs_ops), rounds),
    ));
    metrics.push(("kernel.boot_ns_per_round", median(&boot)));
    metrics.push(("kernel.recycle_ns_per_round", median(&rec)));
    metrics.push(("round.simulate_ns", sim));
    metrics.push(("sim.events_per_round", events_per_round));
    metrics.push(("sim.host_ns_per_event", sim / events_per_round.max(1.0)));
    metrics.push((
        "os.context_switches_per_round",
        per(total(|o| o.metrics.counters.context_switches), rounds),
    ));
    metrics.push((
        "os.traps_per_round",
        per(total(|o| o.metrics.counters.traps), rounds),
    ));

    // -- observers: paired, interleaved on/off runs on the same seeds.
    for Observer {
        metric,
        on: on_name,
        off: off_name,
        strip,
    } in OBSERVERS
    {
        let stripped: Vec<(Scenario, u64)> = scenarios
            .iter()
            .map(|(s, seed)| {
                let mut s = s.clone();
                s.machine = strip(s.machine);
                (s, *seed)
            })
            .collect();
        let mut diffs = Vec::new();
        let start = Instant::now();
        for pair in 0.. {
            if pair >= 4 && pair % 2 == 0 && start.elapsed() >= budget * 3 / 20 {
                break;
            }
            let mut run = |name, set: &[(Scenario, u64)]| {
                tr.time(name, || mc_over(set, subject.rounds).1).0 as f64
            };
            let (on, off) = if pair % 2 == 0 {
                let on = run(on_name, &scenarios);
                (on, run(off_name, &stripped))
            } else {
                let off = run(off_name, &stripped);
                (run(on_name, &scenarios), off)
            };
            diffs.push((on - off) / rounds as f64);
        }
        metrics.push((metric, median(&diffs)));
    }

    metrics.push(("mc.engine_ns_per_round", median(&engine)));
    metrics.push(("alloc.allocs_per_round", per(alloc_calls, job_rounds)));
    metrics.push(("alloc.bytes_per_round", per(alloc_bytes, job_rounds)));

    // -- campaign store: cold write against the in-memory sweep, replay.
    let store = work.join("layer-store");
    let cfg = &subject.store;
    let store_rounds = cfg.rounds * cfg.grid.points.len() as u64;
    let sweep_cfg = SweepConfig {
        grid: cfg.grid.clone(),
        rounds: cfg.rounds,
        base_seed: cfg.base_seed,
        ..SweepConfig::default()
    };
    let (mut write, mut replay) = (Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..2 {
        let _ = std::fs::remove_dir_all(&store);
        let (cold, cold_ns) = tr.time("store.cold_campaign", || run_campaign(&store, cfg));
        cold.map_err(|e| format!("cold campaign: {e}"))?;
        let (_, sweep_ns) = tr.time("store.sweep", || run_sweep(&sweep_cfg));
        write.push((cold_ns as f64 - sweep_ns as f64) / store_rounds as f64);
        bytes = std::fs::metadata(store.join("blocks.jsonl"))
            .map_err(|e| format!("store: {e}"))?
            .len();
        for _ in 0..3 {
            let (out, ns) = tr.time("store.replay", || run_campaign(&store, cfg));
            let out = out.map_err(|e| format!("replay: {e}"))?;
            if out.computed_blocks != 0 {
                return Err(format!("layer replay recomputed blocks: {out}"));
            }
            replay.push(per(ns, store_rounds));
        }
    }
    let _ = std::fs::remove_dir_all(&store);
    metrics.push(("store.bytes_per_round", per(bytes, store_rounds)));
    metrics.push(("store.replay_ns_per_round", median(&replay)));
    metrics.push(("store.write_ns_per_round", median(&write)));

    // -- estimator: host time per simulated round against run_mc's on the
    // root scenario.
    let root = [(subject.estimate_root.clone(), subject.base_seed)];
    let root_mc: Vec<f64> = (0..3)
        .map(|_| {
            per(
                tr.time("estimate.root_run_mc", || mc_over(&root, subject.rounds).1)
                    .0,
                subject.rounds,
            )
        })
        .collect();
    let (mut est_rounds, mut est_waves, mut est_ns, mut fixed) = (0u64, 0u64, 0u64, 0u64);
    let mut final_counts = None;
    for cfg in &subject.estimates {
        let (run, ns) = tr.time("estimate.run_estimate", || {
            run_estimate(&subject.estimate_root, cfg)
        });
        let o = run.map_err(|e| format!("estimate: {e}"))?.outcome;
        est_rounds += o.simulated_rounds;
        est_waves += o.waves;
        est_ns += ns;
        fixed += o.fixed_rounds_equiv.unwrap_or(0);
        final_counts.get_or_insert((o.live_successes, o.live_rounds));
    }
    let host_ns = per(est_ns, est_rounds);
    metrics.push(("estimate.simulated_rounds", est_rounds as f64));
    metrics.push(("estimate.waves", est_waves as f64));
    metrics.push(("estimate.host_ns_per_round", host_ns));
    metrics.push(("estimate.overhead_ns_per_round", host_ns - median(&root_mc)));
    metrics.push(("estimate.efficiency", per(fixed, est_rounds)));

    // -- stats: the interval calls at the estimator's final counts.
    let (s, n) = final_counts.ok_or("no estimate ran")?;
    const CALLS: u64 = 200;
    let interval: Vec<f64> = (0..5)
        .map(|_| {
            let (_, ns) = tr.time("stats.interval", || {
                for _ in 0..CALLS {
                    black_box(
                        SuccessCounter::from_counts(black_box(s), black_box(n)).wilson_ci95(),
                    );
                    black_box(clopper_pearson_ci(black_box(s), black_box(n), 0.05));
                }
            });
            per(ns, CALLS)
        })
        .collect();
    metrics.push(("stats.interval_ns", median(&interval)));

    metrics.push(("trace.overhead_ns_per_round", median(&trace_cost)));

    Ok(Traced {
        metrics,
        attempted: parts as u64,
        first,
    })
}
