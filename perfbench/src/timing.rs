//! Host-normalized timing.
//!
//! On a shared host the same code runs at very different speeds from one
//! second to the next: another tenant on the same physical core slows
//! every instruction stream at once, and on the host this benchmark was
//! tuned on, back-to-back passes of one `run_mc` batch switch between
//! about 300 and 580 µs per round for seconds at a time (see README.md).
//! A median of raw passes then depends on which phase a run happened to
//! land in.
//!
//! Every timed pass is therefore followed by *reference units*: a fixed,
//! program-independent CPU workload written here in the benchmark
//! (generating and sorting vectors). The ratio of the pass to the mean of
//! the reference units measured just before and just after it cancels most
//! of the host's speed swing. Of the candidates tried (hash-map churn, an
//! event heap with dynamic dispatch, pointer chasing, small-object
//! allocation, sorting, and mixes of them) sorting kept the figures of
//! separate processes closest together (README.md has the comparison).
//! The ratio is scaled back to seconds by [`REFERENCE_UNIT_S`], the unit's
//! typical duration on the reference host, so a normalized figure reads as
//! "seconds on the reference host at its usual speed". Raw seconds are
//! printed beside it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median duration of one [`reference_unit`] on the reference host
/// (2-vCPU Intel Xeon VM, release build): back-to-back units had a
/// median of about 0.8 ms. Only the scale of normalized seconds depends on
/// it; ratios between two builds do not.
pub const REFERENCE_UNIT_S: f64 = 8.0e-4;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One reference unit: about a millisecond of generating and sorting
/// vectors, touching nothing of the program under test.
pub fn reference_unit() -> u64 {
    let mut x: u64 = 777;
    let mut acc = 0;
    for _ in 0..black_box(10) {
        let mut v: Vec<u64> = (0..4096).map(|_| xorshift(&mut x)).collect();
        v.sort_unstable();
        acc ^= v[2048];
    }
    acc
}

/// Runs reference units for at least `span` (and at least one), returning
/// the mean seconds per unit.
fn reference_block(span: Duration) -> f64 {
    let t = Instant::now();
    let mut units = 0u32;
    loop {
        black_box(reference_unit());
        units += 1;
        if t.elapsed() >= span {
            break;
        }
    }
    t.elapsed().as_secs_f64() / units as f64
}

/// Normalized and raw seconds per call of one measured operation.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median over passes of `pass / reference × REFERENCE_UNIT_S`, per
    /// call.
    pub normalized_s: f64,
    /// Median over passes of raw host seconds, per call.
    pub raw_s: f64,
    /// Passes measured.
    pub passes: usize,
}

/// Times `f` in passes until `budget` is spent (at least `min_passes`),
/// each pass followed by a reference block as long as the pass itself.
/// `f` runs `calls` times per pass and figures are per call; the last
/// output of each pass goes to `keep` after the clock has stopped.
pub fn measure<T>(
    budget: Duration,
    min_passes: usize,
    calls: u64,
    mut f: impl FnMut() -> T,
    mut keep: impl FnMut(T),
) -> Timing {
    let start = Instant::now();
    let mut before = reference_block(Duration::from_millis(5));
    let (mut norm, mut raw) = (Vec::new(), Vec::new());
    while norm.len() < min_passes || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 1..calls {
            black_box(f());
        }
        let out = f();
        let pass = t.elapsed();
        keep(out);
        let after = reference_block(pass);
        let per_call = pass.as_secs_f64() / calls as f64;
        norm.push(per_call / ((before + after) / 2.0) * REFERENCE_UNIT_S);
        raw.push(per_call);
        before = after;
    }
    Timing {
        normalized_s: median(&norm),
        raw_s: median(&raw),
        passes: norm.len(),
    }
}

/// How many calls of `f` fill a pass of about `target` (at least one),
/// from one warm-up call.
pub fn calls_per_pass(target: Duration, f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().max(Duration::from_nanos(50));
    (target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64
}

/// The median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Quartiles `[q1, q2, q3]` by the same rule as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method).
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need at least two values");
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    let (n, m) = (4i64, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        *q = (d[(j - 1) as usize] * (n - delta) as f64 + d[j as usize] * delta as f64) / n as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10.5], n=4)
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.5]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn reference_unit_is_deterministic() {
        assert_eq!(reference_unit(), reference_unit());
    }
}
