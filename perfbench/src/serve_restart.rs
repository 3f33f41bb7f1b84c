//! `serve-restart`: a closed loop of waves of logical sessions served
//! by `QueryScheduler::serve_session`, with background tier-up, an L1
//! smaller than the stream's working set, and a restart onto the same
//! on-disk artifact store (L2) every few waves.

use crate::check::{self, Tally};
use crate::compile_cold::compile_pair;
use crate::fixture::{
    backend, cells, shuffled_pairs, zipf_deck, Data, Dealer, Rng, ScratchDir, Suite,
};
use crate::report::Metrics;
use crate::stats::{self, mean, median, ratio, Calibrator, Timed};
use crate::{latency_metrics, Args};
use qc_engine::{
    ArtifactStoreConfig, CompileServiceConfig, EngineConfig, OutcomeStatus, QueryScheduler,
    SchedulerConfig, Session, SessionConfig, SessionRequest,
};
use qc_timing::TimeTrace;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// DS-like scale of the served database.
pub const SF: f64 = 0.01;
/// Logical sessions per wave.
pub const WAVE: usize = 8;
/// Waves between restarts.
pub const WAVES_PER_EPOCH: usize = 4;
/// L1 capacity in modules, below the stream's module working set.
pub const L1_CAPACITY: usize = 48;
/// Zipf exponent of the query popularity (rank = suite order).
pub const ZIPF_S: f64 = 1.0;
/// Nominal size of the Zipf deck the sessions are dealt from.
pub const DECK: usize = 512;
/// Rows per morsel: small enough that tier-up can land mid-query.
const MORSEL_SIZE: usize = 256;

/// A fresh session — empty statement cache and L1 — on the store in `dir`.
fn open<'d>(data: &'d Data, dir: &Path) -> Session<'d> {
    Session::with_config(
        &data.db,
        SessionConfig {
            engine: EngineConfig {
                morsel_size: MORSEL_SIZE,
            },
            compile: CompileServiceConfig {
                workers: 1,
                cache_capacity: L1_CAPACITY,
                ..Default::default()
            },
            artifact_store: Some(ArtifactStoreConfig::at(dir)),
            statement_cache_capacity: 256,
        },
    )
}

/// When the serve loop stops: after `seconds` once it has
/// `min_samples` latencies, or after `max_waves` waves.
pub struct Stop {
    pub seconds: f64,
    pub min_samples: usize,
    pub max_waves: usize,
}

/// What one serve loop observed.
#[derive(Default)]
pub struct Served {
    pub latencies: Vec<Timed>,
    pub busy: Timed,
    pub outcomes: usize,
    pub cycles: Vec<f64>,
    pub code_kib: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    utilization: Vec<f64>,
    ok: u64,
    tiered: u64,
    failed: u64,
    shed: u64,
    killed: u64,
    stmt: (u64, u64),
    l1: (u64, u64, u64),
    disk: (u64, u64, u64, u64),
}

impl Served {
    /// Sets the session, compile-service, artifact-store and scheduler
    /// metrics.
    pub fn layer_metrics(&self, m: &mut Metrics) {
        let (hits, misses) = self.stmt;
        m.set(
            "session.stmt_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        let (hits, misses, evictions) = self.l1;
        m.set(
            "compile_service.l1_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        m.set("compile_service.l1_evictions", evictions as f64);
        let (hits, misses, writes, corrupt) = self.disk;
        m.set("artifact_store.disk_hits", hits as f64);
        m.set("artifact_store.disk_writes", writes as f64);
        m.set(
            "artifact_store.disk_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        m.set("artifact_store.corrupt_rejected", corrupt as f64);
        m.set("scheduler.queue_wait_p50_ms", median(&self.queue_wait_ms));
        m.set("scheduler.utilization", mean(&self.utilization));
        m.set(
            "scheduler.tiered_up_share",
            ratio(self.tiered as f64, self.ok as f64),
        );
        m.set("scheduler.failed", self.failed as f64);
        m.set("scheduler.shed", self.shed as f64);
        m.set("scheduler.killed", self.killed as f64);
    }
}

/// Serves waves dealt from a Zipf deck until `stop`, restarting the session every
/// [`WAVES_PER_EPOCH`] waves. Every Ok outcome's rows are checked;
/// failed, killed and shed sessions count as errors.
pub fn serve(
    data: &Data,
    base_kib: &[f64],
    dir: &Path,
    rng: &mut Rng,
    stop: &Stop,
    cal: &mut Calibrator,
    tally: &mut Tally,
) -> Result<Served, String> {
    let mut dealer = Dealer::new(zipf_deck(data.suite.len(), ZIPF_S, DECK));
    let index: HashMap<&str, usize> = data
        .suite
        .iter()
        .enumerate()
        .map(|(i, q)| (q.name.as_str(), i))
        .collect();
    let scheduler = QueryScheduler::try_new(SchedulerConfig {
        workers: 1,
        admission_limit: WAVE,
        tier_up_backend: Some(backend("lvm-opt.tx64")),
        tier_up_inflight: 1,
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    let base = backend("clift.tx64");
    let start = Instant::now();
    let mut out = Served::default();
    let mut waves = 0;
    let mut epochs = 0;
    let mut done = false;
    while !done {
        let session = open(data, dir);
        for _ in 0..WAVES_PER_EPOCH {
            let requests = (0..WAVE)
                .map(|_| {
                    let q = &data.suite[dealer.deal(rng)];
                    SessionRequest::new(q.name.clone(), q.plan.clone())
                })
                .collect();
            let (report, t, sample_ms) =
                cal.time_between(|| scheduler.serve_session(&session, &base, requests));
            let timed = |d: std::time::Duration| Timed {
                raw: d.as_secs_f64(),
                norm: stats::normalize(d.as_secs_f64(), sample_ms),
            };
            out.busy += t;
            out.utilization.push(report.utilization());
            for o in &report.outcomes {
                let q = index[o.name.as_str()];
                out.outcomes += 1;
                out.code_kib.push(base_kib[q]);
                let what = format!("served {}", o.name);
                let error = o.error.as_deref().unwrap_or("no error given");
                match o.status {
                    OutcomeStatus::Ok => {
                        out.ok += 1;
                        out.tiered += u64::from(o.tiered_up);
                        out.latencies.push(timed(o.latency));
                        out.queue_wait_ms.push(timed(o.queue_wait).norm * 1e3);
                        out.cycles.push(o.cycles as f64);
                        tally.record(check::rows(&what, &data.reference[q], &o.rows));
                    }
                    OutcomeStatus::Failed => {
                        out.failed += 1;
                        tally.record(Err(format!("{what} failed: {error}")));
                    }
                    OutcomeStatus::Killed => {
                        out.killed += 1;
                        tally.record(Err(format!("{what} was killed: {error}")));
                    }
                    OutcomeStatus::Shed => {
                        out.shed += 1;
                        tally.record(Err(format!("{what} was shed: {error}")));
                    }
                }
            }
            waves += 1;
            let elapsed = start.elapsed().as_secs_f64();
            done = waves >= stop.max_waves
                || (elapsed >= stop.seconds && out.latencies.len() >= stop.min_samples)
                || elapsed >= 3.0 * stop.seconds;
            if done {
                break;
            }
        }
        let s = session.statement_cache_stats();
        out.stmt.0 += s.hits;
        out.stmt.1 += s.misses;
        let c = session.compile_service().cache_stats();
        out.l1.0 += c.hits;
        out.l1.1 += c.misses;
        out.l1.2 += c.evictions;
        out.disk.0 += c.disk_hits;
        out.disk.1 += c.disk_misses;
        out.disk.2 += c.disk_writes;
        out.disk.3 += c.disk_corrupt_rejected;
        if epochs == 1 {
            tally.record(if c.disk_hits > 0 {
                Ok(())
            } else {
                Err("no L2 hit after the first restart".to_string())
            });
        }
        epochs += 1;
    }
    Ok(out)
}

/// Base-tier (`clift.tx64`) code size of every query, in KiB.
fn base_code(data: &Data, cal: &mut Calibrator, tally: &mut Tally) -> (Vec<f64>, Timed) {
    let clift = backend("clift.tx64");
    let disabled = TimeTrace::disabled();
    let mut total = Timed::default();
    let kib = data
        .suite
        .iter()
        .map(|q| {
            let (compiled, t) = cal.time(|| compile_pair(data, &q.plan, clift.as_ref(), &disabled));
            total += t;
            match compiled {
                Ok(c) => c.shape.code_bytes as f64 / 1024.0,
                Err(e) => {
                    tally.record(Err(format!("{} on clift.tx64: {e}", q.name)));
                    0.0
                }
            }
        })
        .collect();
    (kib, total)
}

/// A short serve-restart run (three restarts) over another workload's
/// data, for that workload's traced run.
pub fn probe(
    data: &Data,
    rng: &mut Rng,
    cal: &mut Calibrator,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let (base_kib, _) = base_code(data, cal, tally);
    let dir = ScratchDir::new("probe-l2")?;
    let stop = Stop {
        seconds: f64::INFINITY,
        min_samples: 0,
        max_waves: 3 * WAVES_PER_EPOCH,
    };
    serve(data, &base_kib, dir.path(), rng, &stop, cal, tally)?.layer_metrics(m);
    Ok(())
}

/// Fixes glibc's allocator settings for the whole process; called
/// before any thread is spawned.
///
/// By default glibc moves its mmap and trim thresholds as memory is
/// freed, and per-thread arenas shrink with timing-dependent trims.
/// Serving waves on fresh threads then page-faults 0.6–1.5 M times in
/// 8 s, varying 2.5× between identical runs, and throughput with it;
/// which arena a thread lands in made peak RSS bimodal. Fixed
/// thresholds and one arena make the allocator behave the same in
/// every run. The single-threaded workloads keep glibc's defaults:
/// they are steady with them, and these settings made them slower and
/// their peak RSS seed-dependent.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: mallopt only sets allocator parameters; it runs before
    // any thread is spawned.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 256 << 20);
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

/// The state one set-up leaves for the timed loop.
struct SetUp {
    data: Data,
    base_kib: Vec<f64>,
    dir: ScratchDir,
    setup_s: f64,
    datagen: Timed,
}

/// Generates the data, measures base-tier code sizes, and serves one
/// deck of sessions into a fresh store. The warm-up moves the first
/// compile of every query out of the timed loop: their few waves made
/// the p99 depend on the order they were dealt in.
fn set_up(rng: &mut Rng, cal: &mut Calibrator, tally: &mut Tally) -> Result<SetUp, String> {
    let (data, t, datagen) = Data::build(Suite::DsLike, SF, cal)?;
    let (base_kib, base_t) = base_code(&data, cal, tally);
    let dir = ScratchDir::new("serve-l2")?;
    let one_deck = Stop {
        seconds: f64::INFINITY,
        min_samples: 0,
        max_waves: zipf_deck(data.suite.len(), ZIPF_S, DECK)
            .len()
            .div_ceil(WAVE),
    };
    let warm_up = serve(&data, &base_kib, dir.path(), rng, &one_deck, cal, tally)?;
    Ok(SetUp {
        setup_s: t.norm + base_t.norm + warm_up.busy.norm,
        data,
        base_kib,
        dir,
        datagen,
    })
}

/// Set-up, timed loop and (when tracing) the layer probes.
pub fn run(
    args: &Args,
    rng: &mut Rng,
    cal: &mut Calibrator,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    pin_allocator();
    let mut setups = Vec::new();
    for _ in 1..args.setups() {
        setups.push(set_up(rng, cal, tally)?.setup_s);
    }
    let SetUp {
        data,
        base_kib,
        dir,
        setup_s,
        datagen,
    } = set_up(rng, cal, tally)?;
    setups.push(setup_s);
    m.set("setup_s", stats::median(&setups));
    m.set("storage.datagen_ms", datagen.norm * 1e3);

    cal.clear_samples();
    let stop = Stop {
        seconds: args.loop_seconds(),
        min_samples: args.min_samples(),
        max_waves: usize::MAX,
    };
    let served = serve(&data, &base_kib, dir.path(), rng, &stop, cal, tally)?;
    latency_metrics(
        &served.latencies,
        served.busy,
        served.outcomes,
        cal.samples(),
        args.trace,
        m,
    )?;
    m.set("mcycles_per_query", mean(&served.cycles) / 1e6);
    m.set("code_kib_per_query", mean(&served.code_kib));
    if args.trace {
        let cells = cells();
        let pairs = shuffled_pairs(data.suite.len(), rng);
        crate::compile_cold::probe_compile(&data, &cells, &pairs, cal, tally, m);
        crate::exec_hot::probe_exec(&data, &cells, &pairs, cal, tally, m)?;
        crate::exec_hot::probe_morsel(&data, tally, m);
    }
    served.layer_metrics(m);
    Ok(())
}
