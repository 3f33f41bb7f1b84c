//! End-to-end and per-layer benchmark of the query-compilation stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile-cold|exec-hot|serve-restart> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON line as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for what each metric measures
//! and how wall-clock is normalized.

mod check;
mod compile_cold;
mod exec_hot;
mod fixture;
mod report;
mod serve_restart;
mod stats;

use check::Tally;
use fixture::Rng;
use report::Metrics;
use stats::{geomean, Calibrator, Latency, Timed, MIN_BEYOND};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <compile-cold|exec-hot|serve-restart> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => trace = Some(value == "1"),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// Set-ups to run; only untraced runs report `setup_s`.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUPS
        }
    }

    /// Length of the timed loop; traced runs leave half of the time to
    /// the layer probes.
    pub fn loop_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Latency samples an untraced run needs for its p99.
    pub fn min_samples(&self) -> usize {
        if self.trace {
            1
        } else {
            100 * MIN_BEYOND
        }
    }
}

/// Runs `op` (given the operation's sequence number) back to back for
/// `seconds`, and on until `min_samples` operations are done, but never
/// longer than three times `seconds`.
pub fn closed_loop(
    seconds: f64,
    min_samples: usize,
    mut op: impl FnMut(usize) -> Timed,
) -> Vec<Timed> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && samples.len() >= min_samples) || elapsed >= 3.0 * seconds {
            return samples;
        }
        samples.push(op(samples.len()));
    }
}

/// Throughput and latency metrics of a closed loop of single operations.
pub fn loop_metrics(
    samples: &[Timed],
    calib: &[f64],
    trace: bool,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut busy = Timed::default();
    for &s in samples {
        busy += s;
    }
    latency_metrics(samples, busy, samples.len(), calib, trace, m)
}

/// Throughput (`operations` over `busy`) and latency metrics, with
/// their raw counterparts and the calibration geomean as diagnostics.
///
/// # Errors
/// When an untraced run has too few samples for its p99.
pub fn latency_metrics(
    latencies: &[Timed],
    busy: Timed,
    operations: usize,
    calib: &[f64],
    trace: bool,
    m: &mut Metrics,
) -> Result<(), String> {
    let lat = Latency::of(latencies);
    m.set("queries_per_s", operations as f64 / busy.norm);
    m.set("latency_p50_ms", lat.p50_ms);
    m.set("latency_geomean_ms", lat.geomean_ms);
    match lat.p99_ms {
        Ok(p99) => m.set("latency_p99_ms", p99),
        Err(e) if !trace => return Err(e),
        Err(_) => {}
    }
    m.set("raw.queries_per_s", operations as f64 / busy.raw);
    m.set("raw.latency_p50_ms", lat.raw_p50_ms);
    m.set("raw.latency_geomean_ms", lat.raw_geomean_ms);
    m.set("calib.ms", geomean(calib));
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut cal = Calibrator::new();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut rng = Rng::new(args.seed);
    let run = match args.workload.as_str() {
        "compile-cold" => compile_cold::run,
        "exec-hot" => exec_hot::run,
        "serve-restart" => serve_restart::run,
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let measured = run(&args, &mut rng, &mut cal, &mut tally, &mut m)
        .and_then(|()| report::peak_rss_mib().map(|mib| m.set("peak_rss_mib", mib)));
    if let Err(e) = measured {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    m.set("success_rate", 1.0 - tally.error_rate());
    m.set("error_rate", tally.error_rate());

    // The seed and the raw figures behind the normalized ones, so any
    // run can be reproduced and its normalization undone.
    let diag = [
        "calib.ms",
        "raw.latency_geomean_ms",
        "raw.latency_p50_ms",
        "raw.queries_per_s",
    ]
    .iter()
    .map(|k| format!("{k}={}", m.get(k).unwrap_or(f64::NAN)))
    .collect::<Vec<_>>()
    .join(" ");
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} attempted={} failed={} {diag}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tally.attempted,
        tally.failed
    );

    let wanted: Vec<(String, &str)> = if args.trace {
        report::per_layer()
    } else {
        report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    match m.render(&wanted, tally.attempted, tally.failed) {
        Ok(line) => {
            println!("{line}");
            if tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload exec-hot --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("exec-hot", 7, 12.0, true)
        );
        assert_eq!(a.loop_seconds(), 6.0);
        assert!(parse("--workload exec-hot --seed 7 --seconds 12").is_err());
        assert!(parse("--workload exec-hot --seed x --seconds 12 --trace 0").is_err());
        assert!(parse("--workload exec-hot --seed 1 --seconds 0 --trace 0").is_err());
    }
}
