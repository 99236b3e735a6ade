//! The four workloads: their inputs, the timed job, the correctness check
//! and the exact simulated-statistics line.
//!
//! Every engine config is its `Default` plus the fields a workload sets,
//! and every engine runs with `jobs = 1`.

use crate::checks;
use crate::timing::{calls_per_pass, measure, Timing};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Duration;
use tocttou_bench::alloc_count;
use tocttou_experiments::campaign::{run_campaign, CampaignConfig, CampaignOutcome};
use tocttou_experiments::estimate::{run_estimate, EstimateConfig, EstimateOutcome};
use tocttou_experiments::grid::{Family, Grid, GridKind, GridPoint};
use tocttou_experiments::monte_carlo::{run_mc, McConfig, McOutcome};
use tocttou_experiments::sweep::{run_sweep, SweepConfig, SweepOutcome};
use tocttou_workloads::scenario::Scenario;

/// Rounds of one `mc-gedit-smp-1m` job.
pub const MC_ROUNDS: u64 = 64;
/// Rounds of the fresh-kernel cross-check on `mc-gedit-smp-1m`.
pub const MC_CHECK_ROUNDS: u64 = 16;
/// Document size of `mc-gedit-smp-1m`.
pub const MC_FILE_SIZE: u64 = 1 << 20;
/// Rounds per point of one `sweep-taxonomy` job.
pub const SWEEP_ROUNDS: u64 = 100;
/// Points of the `campaign-replay` detection-period grid.
pub const CAMPAIGN_POINTS: usize = 8;
/// Rounds per point of the `campaign-replay` store.
pub const CAMPAIGN_ROUNDS: u64 = 1000;
/// Seed-block size of the `campaign-replay` store.
pub const CAMPAIGN_BLOCK: u64 = 100;
/// Cold campaigns timed per run for `campaign-replay`'s `setup_s`.
pub const CAMPAIGN_SETUPS: usize = 5;
/// Document size of `campaign-replay` and `estimate-vi-uni`.
pub const SMALL_FILE_SIZE: u64 = 2048;
/// Base seeds per `estimate-vi-uni` job.
pub const ESTIMATE_SEEDS: u64 = 4;
/// Where the fixed `estimate-vi-uni` seed set is drawn from.
pub const ESTIMATE_SET: u64 = 0xE571_4A7E;
/// Relative 95 % half-width every `estimate-vi-uni` estimate must reach.
pub const ESTIMATE_TARGET: f64 = 0.2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    McGeditSmp1m,
    SweepTaxonomy,
    CampaignReplay,
    EstimateViUni,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::McGeditSmp1m,
        Workload::SweepTaxonomy,
        Workload::CampaignReplay,
        Workload::EstimateViUni,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::McGeditSmp1m => "mc-gedit-smp-1m",
            Workload::SweepTaxonomy => "sweep-taxonomy",
            Workload::CampaignReplay => "campaign-replay",
            Workload::EstimateViUni => "estimate-vi-uni",
        }
    }

    /// Parses the `--workload` spelling.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Builds the workload's bench for `--seed seed`, keeping any files it
    /// writes under `work`.
    pub fn bench(self, seed: u64, work: &Path) -> Box<dyn Bench> {
        match self {
            Workload::McGeditSmp1m => Box::new(McBench::new(seed)),
            Workload::SweepTaxonomy => Box::new(SweepBench::new(seed)),
            Workload::CampaignReplay => Box::new(CampaignBench::new(seed, work)),
            Workload::EstimateViUni => Box::new(EstimateBench::new(seed)),
        }
    }
}

/// splitmix64 of `(seed, lane)`: the benchmark's own input generator, kept
/// apart from the engines' seed derivations so a change to those cannot
/// change the inputs.
pub fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a value's JSON rendering: equal digests mean
/// byte-identical outputs.
pub fn digest<T: Serialize + ?Sized>(v: &T) -> u64 {
    let json = serde_json::to_string(v).expect("outputs serialize");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one job (or one part of a job) produced. Unboxed, so that the
/// allocations counted around a job are the engine's alone.
#[allow(clippy::large_enum_variant)]
pub enum Out {
    Mc(McOutcome),
    Sweep(SweepOutcome),
    Campaign(CampaignOutcome),
    Estimate(EstimateOutcome),
}

impl Out {
    /// A digest of the result-bearing fields.
    fn digest(&self) -> u64 {
        match self {
            Out::Mc(o) => digest(o),
            Out::Sweep(o) => digest(o),
            Out::Campaign(o) => digest(&(
                vec![
                    o.total_blocks,
                    o.cached_blocks,
                    o.computed_blocks,
                    o.remaining_blocks,
                ],
                &o.aggregate,
            )),
            Out::Estimate(o) => digest(o),
        }
    }

    /// Rounds the job simulated or replayed.
    pub fn rounds(&self) -> u64 {
        match self {
            Out::Mc(o) => o.rounds,
            Out::Sweep(o) => o.rounds_per_point * o.points.len() as u64,
            Out::Campaign(o) => o
                .aggregate
                .as_ref()
                .map_or(0, |a| a.rounds_per_point * a.points.len() as u64),
            Out::Estimate(o) => o.simulated_rounds,
        }
    }
}

/// The scenarios, store and estimator settings a traced run profiles.
pub struct LayerSubject {
    /// The workload's scenario set, as grid points (built the way the
    /// engines build them).
    pub grid: Grid,
    /// Base seed of the layer loops (point `p` adds its salt).
    pub base_seed: u64,
    /// Rounds per point in each layer loop.
    pub rounds: u64,
    /// The campaign whose store the store layer measures.
    pub store: CampaignConfig,
    /// The estimations the estimator layer measures, on `estimate_root`.
    pub estimates: Vec<EstimateConfig>,
    /// Root scenario of the estimations.
    pub estimate_root: Scenario,
}

/// One workload's inputs, job, check and statistics.
pub trait Bench {
    /// Builds the job's inputs through public constructors.
    fn setup(&mut self) -> Result<(), String>;
    /// Builds the inputs in a child process that times the job, reusing
    /// whatever the parent's set-up wrote.
    fn attach(&mut self) -> Result<(), String> {
        self.setup()
    }
    /// True when one setup takes microseconds, so a timed pass repeats it.
    fn setup_is_cheap(&self) -> bool;
    /// Independent parts of the job (seeds of a seed set); `run_s` is the
    /// sum over parts.
    fn parts(&self) -> usize {
        1
    }
    /// Runs part `k` of the job once.
    fn job(&mut self, k: usize) -> Result<Out, String>;
    /// Checks the outputs kept from the job's first run.
    fn check(&mut self, first: &[Out]) -> Result<(), String>;
    /// One line of exact simulated statistics for the job's first run.
    fn stats(&mut self, first: &[Out]) -> Result<Vec<(&'static str, String)>, String>;
    /// What a traced run profiles.
    fn layers(&self) -> LayerSubject;
    /// Removes anything the bench wrote.
    fn cleanup(&mut self) {}
}

/// Simulated events over `rounds` rounds of each point of `grid` from
/// `base_seed + salt`, replayed through the same public round lifecycle
/// the engines use.
pub fn simulated_events(grid: &Grid, base_seed: u64, rounds: u64) -> u64 {
    crate::layers::lifecycle(&grid_scenarios(grid, base_seed), rounds, None).events
}

/// Every point's scenario with its base seed, `base_seed + salt`.
pub fn grid_scenarios(grid: &Grid, base_seed: u64) -> Vec<(Scenario, u64)> {
    grid.points
        .iter()
        .map(|p| (p.scenario(), base_seed.wrapping_add(p.seed_salt)))
        .collect()
}

fn mc_counters(o: &McOutcome) -> [(&'static str, String); 4] {
    let c = &o.metrics.counters;
    [
        ("successes", o.successes.to_string()),
        ("vfs_ops", c.vfs_ops.to_string()),
        ("context_switches", c.context_switches.to_string()),
        ("traps", c.traps.to_string()),
    ]
}

fn sweep_counters(o: &SweepOutcome) -> [(&'static str, String); 4] {
    let sum = |f: &dyn Fn(&McOutcome) -> u64| o.points.iter().map(|p| f(&p.outcome)).sum::<u64>();
    [
        ("successes", sum(&|m| m.successes).to_string()),
        ("vfs_ops", sum(&|m| m.metrics.counters.vfs_ops).to_string()),
        (
            "context_switches",
            sum(&|m| m.metrics.counters.context_switches).to_string(),
        ),
        ("traps", sum(&|m| m.metrics.counters.traps).to_string()),
    ]
}

const NA: &str = "n/a";

// ---- mc-gedit-smp-1m -------------------------------------------------------

/// `run_mc` on `Scenario::gedit_smp(1 MiB)`: the event core does nearly
/// all the work.
pub struct McBench {
    base_seed: u64,
    scenario: Option<Scenario>,
}

impl McBench {
    pub fn new(seed: u64) -> Self {
        McBench {
            base_seed: mix(seed, 1),
            scenario: None,
        }
    }

    fn config(&self, rounds: u64) -> McConfig {
        McConfig {
            rounds,
            base_seed: self.base_seed,
            ..McConfig::default()
        }
    }
}

impl Bench for McBench {
    fn setup(&mut self) -> Result<(), String> {
        self.scenario = Some(Scenario::gedit_smp(MC_FILE_SIZE));
        Ok(())
    }

    fn setup_is_cheap(&self) -> bool {
        true
    }

    fn job(&mut self, _k: usize) -> Result<Out, String> {
        let s = self.scenario.as_ref().ok_or("job before setup")?;
        Ok(Out::Mc(run_mc(s, &self.config(MC_ROUNDS))))
    }

    fn check(&mut self, first: &[Out]) -> Result<(), String> {
        let s = self.scenario.as_ref().ok_or("check before setup")?;
        let [Out::Mc(job)] = first else {
            return Err("mc job kept no outcome".into());
        };
        checks::mc_rounds(job, MC_ROUNDS)?;
        let sub = run_mc(s, &self.config(MC_CHECK_ROUNDS));
        let fresh: Vec<_> = (0..MC_CHECK_ROUNDS)
            .map(|i| s.run_round(self.base_seed.wrapping_add(i)))
            .collect();
        checks::mc_matches_fresh_kernels(&sub, &fresh)
    }

    fn stats(&mut self, first: &[Out]) -> Result<Vec<(&'static str, String)>, String> {
        let [Out::Mc(job)] = first else {
            return Err("mc job kept no outcome".into());
        };
        let grid = self.layers().grid;
        let mut line = mc_counters(job).to_vec();
        line.push((
            "events",
            simulated_events(&grid, self.base_seed, MC_ROUNDS).to_string(),
        ));
        Ok(line)
    }

    fn layers(&self) -> LayerSubject {
        let grid = Grid::from_points(vec![GridPoint::new(Family::GeditSmp, MC_FILE_SIZE)]);
        LayerSubject {
            store: CampaignConfig {
                grid: grid.clone(),
                rounds: 128,
                base_seed: self.base_seed,
                block: 32,
                ..CampaignConfig::default()
            },
            grid,
            base_seed: self.base_seed,
            rounds: 128,
            estimates: vec![EstimateConfig {
                base_seed: self.base_seed,
                ..EstimateConfig::default()
            }],
            estimate_root: Scenario::gedit_smp(MC_FILE_SIZE),
        }
    }
}

// ---- sweep-taxonomy --------------------------------------------------------

/// `run_sweep` over the ten-scenario DSL taxonomy library: short rounds,
/// so per-round boot, recycle, fold and the observer hooks weigh.
pub struct SweepBench {
    base_seed: u64,
    config: Option<SweepConfig>,
}

impl SweepBench {
    pub fn new(seed: u64) -> Self {
        SweepBench {
            base_seed: mix(seed, 2),
            config: None,
        }
    }
}

impl Bench for SweepBench {
    fn setup(&mut self) -> Result<(), String> {
        let grid = Grid::taxonomy_library();
        // `run_sweep` takes a grid, not built scenarios, and compiles the
        // DSL specs again inside the timed job; set-up times a copy of
        // that compile so that its cost shows in `setup_s` as well.
        for p in &grid.points {
            std::hint::black_box(p.scenario());
        }
        self.config = Some(SweepConfig {
            grid,
            rounds: SWEEP_ROUNDS,
            base_seed: self.base_seed,
            ..SweepConfig::default()
        });
        Ok(())
    }

    fn setup_is_cheap(&self) -> bool {
        true
    }

    fn job(&mut self, _k: usize) -> Result<Out, String> {
        let cfg = self.config.as_ref().ok_or("job before setup")?;
        Ok(Out::Sweep(run_sweep(cfg)))
    }

    fn check(&mut self, first: &[Out]) -> Result<(), String> {
        let [Out::Sweep(job)] = first else {
            return Err("sweep job kept no outcome".into());
        };
        checks::sweep_detection_matches_success(job, Grid::taxonomy_library().len(), SWEEP_ROUNDS)
    }

    fn stats(&mut self, first: &[Out]) -> Result<Vec<(&'static str, String)>, String> {
        let [Out::Sweep(job)] = first else {
            return Err("sweep job kept no outcome".into());
        };
        let mut line = sweep_counters(job).to_vec();
        line.push((
            "events",
            simulated_events(&Grid::taxonomy_library(), self.base_seed, SWEEP_ROUNDS).to_string(),
        ));
        Ok(line)
    }

    fn layers(&self) -> LayerSubject {
        let grid = Grid::taxonomy_library();
        LayerSubject {
            store: CampaignConfig {
                grid: grid.clone(),
                rounds: 100,
                base_seed: self.base_seed,
                block: 25,
                ..CampaignConfig::default()
            },
            grid,
            base_seed: self.base_seed,
            rounds: 100,
            estimates: vec![EstimateConfig {
                base_seed: self.base_seed,
                ..EstimateConfig::default()
            }],
            estimate_root: GridPoint::new(
                Family::TmpLogrotate,
                Family::TmpLogrotate.default_file_size(),
            )
            .scenario(),
        }
    }
}

// ---- campaign-replay -------------------------------------------------------

/// `run_campaign` over Formula (1)'s detection-period axis: set-up writes
/// the store cold, the timed job replays it from cache.
pub struct CampaignBench {
    base_seed: u64,
    store: PathBuf,
    config: Option<CampaignConfig>,
}

fn campaign_grid() -> Grid {
    GridKind::D.build(Family::GeditSmp, SMALL_FILE_SIZE, CAMPAIGN_POINTS)
}

impl CampaignBench {
    pub fn new(seed: u64, work: &Path) -> Self {
        CampaignBench {
            base_seed: mix(seed, 3),
            store: work.join("campaign-store"),
            config: None,
        }
    }

    fn config(&self) -> CampaignConfig {
        CampaignConfig {
            grid: campaign_grid(),
            rounds: CAMPAIGN_ROUNDS,
            base_seed: self.base_seed,
            block: CAMPAIGN_BLOCK,
            ..CampaignConfig::default()
        }
    }

    fn store_bytes(&self) -> Result<u64, String> {
        let blocks = self.store.join("blocks.jsonl");
        std::fs::metadata(&blocks)
            .map(|m| m.len())
            .map_err(|e| format!("{}: {e}", blocks.display()))
    }
}

impl Bench for CampaignBench {
    fn setup(&mut self) -> Result<(), String> {
        let cfg = self.config();
        match std::fs::remove_dir_all(&self.store) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("{}: {e}", self.store.display())),
        }
        let cold = run_campaign(&self.store, &cfg).map_err(|e| e.to_string())?;
        if cold.computed_blocks != cold.total_blocks || cold.aggregate.is_none() {
            return Err(format!("cold campaign did not compute every block: {cold}"));
        }
        self.config = Some(cfg);
        Ok(())
    }

    fn attach(&mut self) -> Result<(), String> {
        self.config = Some(self.config());
        self.store_bytes().map(|_| ())
    }

    fn setup_is_cheap(&self) -> bool {
        false
    }

    fn job(&mut self, _k: usize) -> Result<Out, String> {
        let cfg = self.config.as_ref().ok_or("job before setup")?;
        let out = run_campaign(&self.store, cfg).map_err(|e| e.to_string())?;
        Ok(Out::Campaign(out))
    }

    fn check(&mut self, first: &[Out]) -> Result<(), String> {
        let cfg = self.config.as_ref().ok_or("check before setup")?;
        let [Out::Campaign(replay)] = first else {
            return Err("campaign job kept no outcome".into());
        };
        let sweep = run_sweep(&SweepConfig {
            grid: cfg.grid.clone(),
            rounds: cfg.rounds,
            base_seed: cfg.base_seed,
            ..SweepConfig::default()
        });
        checks::replay_matches_sweep(replay, &sweep)
    }

    fn stats(&mut self, first: &[Out]) -> Result<Vec<(&'static str, String)>, String> {
        let [Out::Campaign(replay)] = first else {
            return Err("campaign job kept no outcome".into());
        };
        let agg = replay.aggregate.as_ref().ok_or("replay has no aggregate")?;
        let mut line = sweep_counters(agg).to_vec();
        line.push((
            "events",
            simulated_events(&campaign_grid(), self.base_seed, CAMPAIGN_ROUNDS).to_string(),
        ));
        line.push(("store_bytes", self.store_bytes()?.to_string()));
        Ok(line)
    }

    fn layers(&self) -> LayerSubject {
        LayerSubject {
            grid: campaign_grid(),
            base_seed: self.base_seed,
            rounds: 100,
            store: self.config(),
            estimates: vec![EstimateConfig {
                base_seed: self.base_seed,
                ..EstimateConfig::default()
            }],
            estimate_root: Scenario::gedit_smp(SMALL_FILE_SIZE),
        }
    }

    fn cleanup(&mut self) {
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

// ---- estimate-vi-uni -------------------------------------------------------

/// `run_estimate` on `Scenario::vi_uniprocessor(2 KB)` over a fixed set of
/// base seeds: allocation, splitting and stopping decide how much is
/// simulated.
///
/// How many rounds one estimate needs varies by about 16 % from seed to
/// seed, so a seed set drawn from `--seed` would move `run_s` by that
/// much from run to run. The timed set is therefore the same in every run
/// (a change to the sample path is judged on the same four seeds), and
/// `--seed` draws one more estimate that the check runs untimed, so every
/// run also checks the estimator on fresh inputs.
pub struct EstimateBench {
    seeds: Vec<u64>,
    probe_seed: u64,
    scenario: Option<Scenario>,
    configs: Vec<EstimateConfig>,
}

impl EstimateBench {
    pub fn new(seed: u64) -> Self {
        EstimateBench {
            seeds: (0..ESTIMATE_SEEDS).map(|k| mix(ESTIMATE_SET, k)).collect(),
            probe_seed: mix(seed, 4),
            scenario: None,
            configs: Vec::new(),
        }
    }

    fn config(base_seed: u64) -> EstimateConfig {
        EstimateConfig {
            base_seed,
            target_rel_half_width: ESTIMATE_TARGET,
            ..EstimateConfig::default()
        }
    }
}

impl Bench for EstimateBench {
    fn setup(&mut self) -> Result<(), String> {
        self.scenario = Some(Scenario::vi_uniprocessor(SMALL_FILE_SIZE));
        self.configs = self.seeds.iter().map(|&s| Self::config(s)).collect();
        Ok(())
    }

    fn setup_is_cheap(&self) -> bool {
        true
    }

    fn parts(&self) -> usize {
        self.seeds.len()
    }

    fn job(&mut self, k: usize) -> Result<Out, String> {
        let s = self.scenario.as_ref().ok_or("job before setup")?;
        let run = run_estimate(s, &self.configs[k]).map_err(|e| e.to_string())?;
        Ok(Out::Estimate(run.outcome))
    }

    fn check(&mut self, first: &[Out]) -> Result<(), String> {
        let s = self.scenario.as_ref().ok_or("check before setup")?;
        let probe = run_estimate(s, &Self::config(self.probe_seed))
            .map_err(|e| e.to_string())?
            .outcome;
        let mut outcomes = estimate_outcomes(first)?;
        outcomes.push(&probe);
        checks::estimates_meet_oracle(&outcomes, &checks::Oracle::vi_uni_2048()?)
    }

    fn stats(&mut self, first: &[Out]) -> Result<Vec<(&'static str, String)>, String> {
        let outcomes = estimate_outcomes(first)?;
        let sum = |f: &dyn Fn(&EstimateOutcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>();
        Ok(vec![
            ("successes", sum(&|o| o.live_successes).to_string()),
            ("vfs_ops", NA.into()),
            ("context_switches", NA.into()),
            ("traps", NA.into()),
            ("events", NA.into()),
            ("est_rounds", sum(&|o| o.simulated_rounds).to_string()),
            ("est_waves", sum(&|o| o.waves).to_string()),
            (
                "est_rate_digest",
                format!(
                    "{:016x}",
                    digest(&outcomes.iter().map(|o| o.rate).collect::<Vec<_>>())
                ),
            ),
        ])
    }

    fn layers(&self) -> LayerSubject {
        let grid = Grid::from_points(vec![GridPoint::new(
            Family::ViUniprocessor,
            SMALL_FILE_SIZE,
        )]);
        LayerSubject {
            store: CampaignConfig {
                grid: grid.clone(),
                rounds: 1000,
                base_seed: self.seeds[0],
                block: 100,
                ..CampaignConfig::default()
            },
            grid,
            base_seed: self.seeds[0],
            rounds: 1000,
            estimates: self.seeds.iter().map(|&s| Self::config(s)).collect(),
            estimate_root: Scenario::vi_uniprocessor(SMALL_FILE_SIZE),
        }
    }
}

fn estimate_outcomes(first: &[Out]) -> Result<Vec<&EstimateOutcome>, String> {
    first
        .iter()
        .map(|o| match o {
            Out::Estimate(e) => Ok(e),
            _ => Err("estimate job kept a foreign outcome".to_string()),
        })
        .collect()
}

// ---- the untraced run ------------------------------------------------------

/// Timed job runs made in one process.
#[derive(Debug, Clone, Copy)]
pub struct JobTiming {
    /// Sum over parts of each part's per-pass median.
    pub run: Timing,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs the job for `budget`, every part getting an equal share (at least
/// one pass each), and compares each output's digest with `digests`, the
/// first outputs of the parent run; a difference or an error is a failed
/// operation.
///
/// A fresh timing process first runs part 0 once untimed, so that no timed
/// pass pays for first-touch page faults and cold caches; that warm-up
/// comes out of the budget.
pub fn time_job(bench: &mut dyn Bench, budget: Duration, digests: &[u64]) -> JobTiming {
    let start = std::time::Instant::now();
    let _ = std::hint::black_box(bench.job(0));
    let share = budget.saturating_sub(start.elapsed()) / digests.len().max(1) as u32;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut run = Timing {
        normalized_s: 0.0,
        raw_s: 0.0,
        passes: 0,
    };
    for (k, want) in digests.iter().enumerate() {
        let t = measure(
            share,
            1,
            1,
            || bench.job(k),
            |res| {
                attempted += 1;
                let err = match res {
                    Ok(out) if out.digest() == *want => return,
                    Ok(_) => "a repeated job changed its output".to_string(),
                    Err(e) => e,
                };
                failed += 1;
                eprintln!("perfbench: part {k}: {err}");
            },
        );
        run.normalized_s += t.normalized_s;
        run.raw_s += t.raw_s;
        run.passes += t.passes;
    }
    JobTiming {
        run,
        attempted,
        failed,
    }
}

/// What an untraced run measured.
pub struct Measured {
    pub setup: Timing,
    pub peak_heap_bytes: u64,
    pub first: Vec<Out>,
    pub digests: Vec<u64>,
    pub allocs: alloc_count::Snapshot,
}

/// Times set-up, then runs every part of the job once, keeping the
/// outputs for the check and counting heap use.
pub fn measure_setup_and_first(bench: &mut dyn Bench) -> Result<Measured, String> {
    // Cheap set-ups are repeated inside ~2 ms passes for about a second;
    // a cold campaign is timed whole, a fixed number of times.
    let setup = if bench.setup_is_cheap() {
        let calls = calls_per_pass(Duration::from_millis(2), || {
            bench.setup().expect("cheap set-up cannot fail")
        });
        measure(Duration::from_secs(1), 5, calls, || bench.setup(), |_| {})
    } else {
        let mut err = None;
        let t = measure(
            Duration::ZERO,
            CAMPAIGN_SETUPS,
            1,
            || bench.setup(),
            |r| {
                if let Err(e) = r {
                    err.get_or_insert(e);
                }
            },
        );
        if let Some(e) = err {
            return Err(format!("set-up failed: {e}"));
        }
        t
    };

    // Single thread, so the allocation counts are exact; `first` is sized
    // up front so that only the job allocates between the snapshots.
    let mut first = Vec::with_capacity(bench.parts());
    let mut peak = 0u64;
    let before = alloc_count::snapshot();
    for k in 0..bench.parts() {
        let base = alloc_count::reset_peak();
        let out = bench.job(k)?;
        peak = peak.max(alloc_count::peak_bytes() - base);
        first.push(out);
    }
    let allocs = alloc_count::snapshot().since(before);
    let digests = first.iter().map(Out::digest).collect();
    Ok(Measured {
        setup,
        peak_heap_bytes: peak,
        first,
        digests,
        allocs,
    })
}
