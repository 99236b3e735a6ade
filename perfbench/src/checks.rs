//! Correctness checks. Each compares an engine's output with a
//! computation made apart from that engine, or with a property the method
//! must have, and names what differs.

use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use tocttou_core::stats::SuccessCounter;
use tocttou_experiments::campaign::CampaignOutcome;
use tocttou_experiments::estimate::EstimateOutcome;
use tocttou_experiments::monte_carlo::McOutcome;
use tocttou_experiments::sweep::SweepOutcome;
use tocttou_workloads::scenario::RoundResult;

/// A `run_mc` job ran exactly the rounds it was asked for.
pub fn mc_rounds(job: &McOutcome, rounds: u64) -> Result<(), String> {
    if job.rounds != rounds || job.successes > job.rounds {
        return Err(format!(
            "run_mc reported {} successes in {} rounds, asked for {rounds}",
            job.successes, job.rounds
        ));
    }
    Ok(())
}

/// A pooled, warm-booted `run_mc` batch counts the same successes as
/// fresh kernels built by `Scenario::run_round` on the same seeds, and the
/// victim exits in every one of those rounds.
pub fn mc_matches_fresh_kernels(sub: &McOutcome, fresh: &[RoundResult]) -> Result<(), String> {
    if sub.rounds != fresh.len() as u64 {
        return Err(format!(
            "sub-batch of {} rounds against {} fresh rounds",
            sub.rounds,
            fresh.len()
        ));
    }
    if let Some(i) = fresh.iter().position(|r| !r.victim_exited) {
        return Err(format!("the victim did not exit in fresh round {i}"));
    }
    let fresh_successes = fresh.iter().filter(|r| r.success).count() as u64;
    if sub.successes != fresh_successes {
        return Err(format!(
            "run_mc counted {} successes, fresh kernels {fresh_successes}",
            sub.successes
        ));
    }
    Ok(())
}

/// On the taxonomy library the DSL's guards make success and detection
/// coincide: at every point, successes = flagged rounds = detector true
/// positives, with no false negatives or false positives.
pub fn sweep_detection_matches_success(
    o: &SweepOutcome,
    points: usize,
    rounds: u64,
) -> Result<(), String> {
    if o.points.len() != points || o.rounds_per_point != rounds {
        return Err(format!(
            "sweep covered {} points x {} rounds, asked for {points} x {rounds}",
            o.points.len(),
            o.rounds_per_point
        ));
    }
    for p in &o.points {
        let m = &p.outcome;
        if m.rounds != rounds
            || m.successes != m.flagged_rounds
            || m.successes != m.detector_true_positives
            || m.detector_false_negatives != 0
            || m.detector_false_positives != 0
        {
            return Err(format!(
                "{}: {} successes, {} flagged, {} true positives, {} false negatives, \
                 {} false positives in {} rounds",
                m.scenario,
                m.successes,
                m.flagged_rounds,
                m.detector_true_positives,
                m.detector_false_negatives,
                m.detector_false_positives,
                m.rounds
            ));
        }
    }
    Ok(())
}

/// A replay from a complete store computes no block, and its aggregate is
/// byte-identical to an in-memory `run_sweep` of the same grid and seed.
pub fn replay_matches_sweep(replay: &CampaignOutcome, sweep: &SweepOutcome) -> Result<(), String> {
    if replay.computed_blocks != 0 || replay.cached_blocks != replay.total_blocks {
        return Err(format!("replay was not served from cache: {replay}"));
    }
    let agg = replay
        .aggregate
        .as_ref()
        .ok_or("replay produced no aggregate")?;
    let (a, b) = (
        serde_json::to_string(agg).expect("aggregates serialize"),
        serde_json::to_string(sweep).expect("sweeps serialize"),
    );
    if a != b {
        let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
        return Err(format!(
            "replayed aggregate differs from run_sweep at byte {at} of {}/{}",
            a.len(),
            b.len()
        ));
    }
    Ok(())
}

/// A brute-force `run_mc` count on the estimator's scenario, made by
/// `perfbench oracle` and kept in `oracle/vi-uni-2048.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Oracle {
    pub scenario: String,
    pub rounds: u64,
    pub base_seed: u64,
    pub successes: u64,
}

/// Rounds of the brute-force oracle.
pub const ORACLE_ROUNDS: u64 = 400_000;
/// Base seed of the brute-force oracle.
pub const ORACLE_SEED: u64 = 0x0AC1E;

impl Oracle {
    /// Where the oracle file lives.
    pub fn path() -> PathBuf {
        PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/oracle/vi-uni-2048.json"
        ))
    }

    /// Reads the oracle file.
    pub fn vi_uni_2048() -> Result<Oracle, String> {
        let path = Oracle::path();
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "{}: {e} (remake it with `perfbench oracle`)",
                path.display()
            )
        })?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The oracle's Wilson 95 % interval.
    pub fn wilson(&self) -> (f64, f64) {
        SuccessCounter::from_counts(self.successes, self.rounds).wilson_ci95()
    }
}

/// Every estimate converged to its target, and each estimate's interval
/// overlaps the oracle's Wilson interval.
pub fn estimates_meet_oracle(outcomes: &[&EstimateOutcome], oracle: &Oracle) -> Result<(), String> {
    if outcomes.is_empty() {
        return Err("no estimate to check".into());
    }
    let (lo, hi) = oracle.wilson();
    for o in outcomes {
        if o.scenario != oracle.scenario {
            return Err(format!(
                "estimate of {} checked against an oracle of {}",
                o.scenario, oracle.scenario
            ));
        }
        let within = o
            .rel_half_width
            .is_some_and(|w| w <= o.target_rel_half_width);
        if !o.converged || !within {
            return Err(format!("estimate did not reach its target: {o}"));
        }
        if o.ci95.1 < lo || o.ci95.0 > hi {
            return Err(format!(
                "estimate interval [{:.4e}, {:.4e}] misses the oracle's [{lo:.4e}, {hi:.4e}]",
                o.ci95.0, o.ci95.1
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tocttou_experiments::grid::Grid;
    use tocttou_experiments::monte_carlo::{run_mc, McConfig};
    use tocttou_experiments::sweep::{run_sweep, SweepConfig};
    use tocttou_workloads::scenario::Scenario;

    fn small_mc() -> (McOutcome, Vec<RoundResult>) {
        let s = Scenario::gedit_smp(2048);
        let cfg = McConfig {
            rounds: 4,
            base_seed: 77,
            ..McConfig::default()
        };
        let fresh = (0..4).map(|i| s.run_round(77 + i)).collect();
        (run_mc(&s, &cfg), fresh)
    }

    fn small_sweep() -> SweepOutcome {
        run_sweep(&SweepConfig {
            grid: Grid::taxonomy_library(),
            rounds: 3,
            base_seed: 5,
            ..SweepConfig::default()
        })
    }

    #[test]
    fn mc_check_accepts_agreement_and_rejects_tampering() {
        let (sub, fresh) = small_mc();
        mc_matches_fresh_kernels(&sub, &fresh).expect("engine agrees with fresh kernels");
        let mut wrong = sub.clone();
        wrong.successes = (wrong.successes + 1) % 5;
        assert!(mc_matches_fresh_kernels(&wrong, &fresh).is_err());
        let mut stuck = fresh.clone();
        stuck[2].victim_exited = false;
        assert!(mc_matches_fresh_kernels(&sub, &stuck).is_err());
        assert!(mc_matches_fresh_kernels(&sub, &fresh[..3]).is_err());
        assert!(mc_rounds(&sub, 4).is_ok());
        assert!(mc_rounds(&sub, 5).is_err());
    }

    #[test]
    fn sweep_check_rejects_a_detector_that_disagrees() {
        let o = small_sweep();
        sweep_detection_matches_success(&o, 10, 3).expect("taxonomy detection coincides");
        assert!(sweep_detection_matches_success(&o, 9, 3).is_err());
        let mut missed = o.clone();
        missed.points[4].outcome.detector_false_negatives = 1;
        assert!(sweep_detection_matches_success(&missed, 10, 3).is_err());
        let mut flagged = o.clone();
        flagged.points[0].outcome.flagged_rounds += 1;
        assert!(sweep_detection_matches_success(&flagged, 10, 3).is_err());
    }

    #[test]
    fn replay_check_rejects_a_tampered_aggregate_or_a_recompute() {
        let sweep = small_sweep();
        let replay = CampaignOutcome {
            total_blocks: 10,
            cached_blocks: 10,
            computed_blocks: 0,
            remaining_blocks: 0,
            aggregate: Some(sweep.clone()),
        };
        replay_matches_sweep(&replay, &sweep).expect("identical aggregate passes");
        let mut tampered = replay.clone();
        let agg = tampered.aggregate.as_mut().expect("aggregate");
        agg.points[1].outcome.successes += 1;
        assert!(replay_matches_sweep(&tampered, &sweep).is_err());
        let recomputed = CampaignOutcome {
            computed_blocks: 1,
            cached_blocks: 9,
            ..replay.clone()
        };
        assert!(replay_matches_sweep(&recomputed, &sweep).is_err());
        let empty = CampaignOutcome {
            aggregate: None,
            ..replay
        };
        assert!(replay_matches_sweep(&empty, &sweep).is_err());
    }

    fn estimate(ci95: (f64, f64), converged: bool) -> EstimateOutcome {
        let rate = (ci95.0 + ci95.1) / 2.0;
        EstimateOutcome {
            scenario: "vi-uni".into(),
            rate,
            ci95,
            rel_half_width: Some((ci95.1 - ci95.0) / 2.0 / rate),
            target_rel_half_width: 0.2,
            converged,
            simulated_rounds: 3000,
            live_rounds: 2500,
            live_successes: 40,
            waves: 12,
            stratified: true,
            fixed_rounds_equiv: Some(70_000),
            efficiency: Some(23.0),
            strata: Vec::new(),
        }
    }

    #[test]
    fn estimate_check_rejects_a_missed_oracle_or_no_convergence() {
        let oracle = Oracle {
            scenario: "vi-uni".into(),
            rounds: 400_000,
            base_seed: 1,
            successes: 520,
        };
        let (lo, hi) = oracle.wilson();
        let good = estimate((lo * 0.95, lo * 1.3), true);
        estimates_meet_oracle(&[&good], &oracle).expect("overlapping interval passes");
        let high = estimate((hi * 1.1, hi * 1.4), true);
        assert!(estimates_meet_oracle(&[&good, &high], &oracle).is_err());
        let low = estimate((lo * 0.5, lo * 0.7), true);
        assert!(estimates_meet_oracle(&[&low], &oracle).is_err());
        let stopped = estimate((lo * 0.95, lo * 1.3), false);
        assert!(estimates_meet_oracle(&[&stopped], &oracle).is_err());
        let other = Oracle {
            scenario: "gedit-smp".into(),
            ..oracle.clone()
        };
        assert!(estimates_meet_oracle(&[&good], &other).is_err());
        assert!(estimates_meet_oracle(&[], &oracle).is_err());
    }

    #[test]
    fn oracle_file_names_the_estimated_scenario() {
        let o = Oracle::vi_uni_2048().expect("oracle file present");
        assert_eq!(o.scenario, Scenario::vi_uniprocessor(2048).name);
        assert_eq!((o.rounds, o.base_seed), (ORACLE_ROUNDS, ORACLE_SEED));
        assert!(o.successes > 0 && o.successes < o.rounds);
    }
}
