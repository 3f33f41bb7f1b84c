//! Summary statistics and the calibration-kernel normalization.
//!
//! Wall-clock on a small shared host drifts by tens of percent between
//! processes, and the drift comes from the machine, not the code. Every
//! wall-clock figure is therefore reported as
//! `raw × CAL_REF_MS / adjacent_calibration_sample`, where the sample is
//! the time of [`calibration_kernel`] measured on the same thread just
//! before the group of operations (or the set-up step) it normalizes.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calibration time, in ms, that the normalized figures are scaled to:
/// a normalized value reads as "ms (or s) on a machine where one
/// calibration kernel takes exactly 1 ms".
pub const CAL_REF_MS: f64 = 1.0;

/// Raw operation time after which the next operation is preceded by a
/// fresh calibration sample.
pub const GROUP: Duration = Duration::from_millis(10);

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A fixed pure-std workload of about 1 ms: ordered-map and hash-map
/// inserts, a sort, and string formatting. It calls no code of the
/// system under test, so no change to that code can move it. Returns a
/// checksum so the work cannot be optimized away.
pub fn calibration_kernel() -> u64 {
    const N: u64 = 6_000;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut tree = BTreeMap::new();
    // SipHash with fixed keys: the default random state would vary the
    // kernel's cost between processes.
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut keys = Vec::new();
    let mut text = String::new();
    let mut acc = 0u64;
    for i in 0..N {
        x = splitmix64(x);
        tree.insert(x % 4096, i);
        map.insert(x, i);
        keys.push(x);
        if i % 4 == 0 {
            text.clear();
            let _ = write!(text, "{x:016x}/{i}");
            acc = acc.wrapping_add(text.len() as u64);
        }
    }
    keys.sort_unstable();
    acc ^ keys[keys.len() / 2] ^ tree.len() as u64 ^ map.len() as u64
}

/// One step of the SplitMix64 generator.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Scales a raw duration by the calibration sample taken next to it.
pub fn normalize(raw: f64, sample_ms: f64) -> f64 {
    raw * CAL_REF_MS / sample_ms
}

/// A raw and a normalized duration, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub raw: f64,
    pub norm: f64,
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, other: Timed) {
        self.raw += other.raw;
        self.norm += other.norm;
    }
}

/// Times operations on the calling thread and normalizes each against
/// the calibration sample taken before its group.
pub struct Calibrator {
    kernel: Box<dyn FnMut() -> f64>,
    group: Duration,
    sample_ms: f64,
    since: Duration,
    samples: Vec<f64>,
}

impl Calibrator {
    /// A calibrator over [`calibration_kernel`], warmed up and with a
    /// first sample taken.
    pub fn new() -> Self {
        black_box(calibration_kernel());
        Calibrator::with_kernel(GROUP, Box::new(time_kernel))
    }

    /// A calibrator whose samples (in ms) come from `kernel`.
    pub fn with_kernel(group: Duration, mut kernel: Box<dyn FnMut() -> f64>) -> Self {
        let sample_ms = kernel();
        Calibrator {
            kernel,
            group,
            sample_ms,
            since: Duration::ZERO,
            samples: Vec::new(),
        }
    }

    /// Takes a fresh sample now; the next operations are normalized by it.
    pub fn recalibrate(&mut self) {
        self.sample_ms = (self.kernel)();
        self.samples.push(self.sample_ms);
        self.since = Duration::ZERO;
    }

    /// Runs `op`, first recalibrating when a group's worth of raw
    /// operation time has passed since the last sample.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Timed) {
        if self.samples.is_empty() || self.since >= self.group {
            self.recalibrate();
        }
        let start = Instant::now();
        let out = op();
        let raw = start.elapsed();
        self.since += raw;
        (out, self.timed(raw.as_secs_f64()))
    }

    /// Runs `op` between two samples, one just before and one just
    /// after it; returns the mean of the two, by which everything `op`
    /// timed itself is normalized. The sample after serves as the
    /// sample before the next operation.
    pub fn time_between<T>(&mut self, op: impl FnOnce() -> T) -> (T, Timed, f64) {
        if self.samples.is_empty() {
            self.recalibrate();
        }
        let before = self.sample_ms;
        let start = Instant::now();
        let out = op();
        let raw = start.elapsed().as_secs_f64();
        self.recalibrate();
        let sample_ms = (before + self.sample_ms) / 2.0;
        (
            out,
            Timed {
                raw,
                norm: normalize(raw, sample_ms),
            },
            sample_ms,
        )
    }

    /// Normalizes a raw duration (seconds) against the current sample.
    pub fn timed(&self, raw: f64) -> Timed {
        Timed {
            raw,
            norm: normalize(raw, self.sample_ms),
        }
    }

    /// Calibration samples taken so far, in ms.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Forgets the samples taken so far (e.g. those of set-up).
    pub fn clear_samples(&mut self) {
        self.samples.clear();
    }
}

fn time_kernel() -> f64 {
    let start = Instant::now();
    black_box(calibration_kernel());
    start.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile of ascending `sorted` (non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile that leaves at least [`MIN_BEYOND`] samples
/// beyond it.
///
/// # Errors
/// Names the shortfall when the run has too few samples.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let beyond = sorted.len().saturating_sub(rank(sorted.len(), p));
    if sorted.is_empty() || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {} samples leaves {beyond} beyond it; {MIN_BEYOND} needed",
            sorted.len()
        ));
    }
    Ok(percentile(sorted, p))
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Latency summary of one run's normalized and raw samples (seconds).
pub struct Latency {
    pub p50_ms: f64,
    /// Err when too few samples lie beyond the p99.
    pub p99_ms: Result<f64, String>,
    pub geomean_ms: f64,
    pub raw_p50_ms: f64,
    pub raw_geomean_ms: f64,
}

impl Latency {
    /// Summarizes `samples`.
    pub fn of(samples: &[Timed]) -> Latency {
        let sorted = |f: fn(&Timed) -> f64| {
            let mut v: Vec<f64> = samples.iter().map(|t| f(t) * 1e3).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let norm = sorted(|t| t.norm);
        let raw = sorted(|t| t.raw);
        Latency {
            p50_ms: percentile_or_zero(&norm, 50.0),
            p99_ms: tail_percentile(&norm, 99.0),
            geomean_ms: geomean(&norm),
            raw_p50_ms: percentile_or_zero(&raw, 50.0),
            raw_geomean_ms: geomean(&raw),
        }
    }
}

fn percentile_or_zero(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        let ok: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&ok, 99.0), Ok(990.0));
        // 999 samples: rank 990, nine beyond.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(tail_percentile(&short, 99.0).is_err());
        assert!(tail_percentile(&[], 99.0).is_err());
    }

    #[test]
    fn geomean_weights_ratios_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn normalization_scales_by_reference_over_sample() {
        assert_eq!(normalize(4.0, 2.0 * CAL_REF_MS), 2.0);
        assert_eq!(normalize(4.0, CAL_REF_MS / 2.0), 8.0);
    }

    #[test]
    fn operations_use_the_sample_taken_before_their_group() {
        // Scripted samples: 2 ms at construction (unused), then 4 ms, 8 ms.
        let mut script = vec![2.0, 4.0, 8.0].into_iter();
        let mut cal = Calibrator::with_kernel(
            Duration::from_millis(10),
            Box::new(move || script.next().expect("scripted sample")),
        );
        let nap = || std::thread::sleep(Duration::from_millis(6));
        let factor = |t: Timed| t.raw / t.norm;
        // First op calibrates (4 ms); the second is still within 10 ms
        // of raw op time; the third follows 12 ms and recalibrates (8 ms).
        let ((), a) = cal.time(nap);
        let ((), b) = cal.time(nap);
        let ((), c) = cal.time(nap);
        assert!((factor(a) - 4.0).abs() < 1e-9);
        assert!((factor(b) - 4.0).abs() < 1e-9);
        assert!((factor(c) - 8.0).abs() < 1e-9);
        assert_eq!(cal.samples(), &[4.0, 8.0]);
    }

    #[test]
    fn calibration_kernel_is_deterministic() {
        assert_eq!(calibration_kernel(), calibration_kernel());
    }

    #[test]
    fn latency_summary_normalizes_every_sample() {
        let samples: Vec<Timed> = (1..=1000)
            .map(|i| Timed {
                raw: f64::from(i) * 2e-3,
                norm: f64::from(i) * 1e-3,
            })
            .collect();
        let lat = Latency::of(&samples);
        assert!((lat.p50_ms - 500.0).abs() < 1e-9);
        assert_eq!(lat.p99_ms, Ok(990.0));
        assert!((lat.raw_p50_ms - 1000.0).abs() < 1e-9);
        assert!(Latency::of(&samples[..500]).p99_ms.is_err());
    }
}
