//! `exec-hot`: one client executing (query, cell) pairs whose statement
//! and code are already cached — statement hit, L1 hit, instantiate,
//! emulation, merge, decode. Codegen does no work here.

use crate::check::{self, CodeShape, Tally};
use crate::fixture::{
    backend, cells, shuffled_pairs, Cell, Data, Pair, Rng, ScratchDir, Suite, CELLS,
};
use crate::report::Metrics;
use crate::stats::{self, mean, ratio, Calibrator, Timed};
use crate::{closed_loop, loop_metrics, Args};
use qc_engine::{
    ArtifactStoreConfig, CompileServiceConfig, EngineConfig, ExecutionResult, MorselSchedule,
    Session, SessionConfig,
};
use std::sync::Arc;

/// H-like scale at which emulation is most of an operation.
pub const SF: f64 = 1.0;

/// A session whose caches hold the whole working set.
fn session_config() -> SessionConfig {
    SessionConfig {
        compile: CompileServiceConfig {
            workers: 1,
            cache_capacity: 1 << 16,
            ..Default::default()
        },
        statement_cache_capacity: 1 << 10,
        ..Default::default()
    }
}

/// Prepares, compiles and executes one pair through the session.
fn execute(
    session: &Session<'_>,
    data: &Data,
    pair: Pair,
    cell: &Cell,
) -> Result<ExecutionResult, String> {
    let q = &data.suite[pair.query];
    let run = session
        .prepare(&q.plan)
        .map_err(|e| e.to_string())?
        .backend(Arc::clone(&cell.backend));
    let mut compiled = run.compile().map_err(|e| e.to_string())?;
    run.execute_compiled(&mut compiled)
        .map_err(|e| e.to_string())
}

fn describe(data: &Data, pair: Pair) -> String {
    format!("{} on {}", data.suite[pair.query].name, CELLS[pair.cell])
}

/// Executes every pair once through `session` (filling its statement
/// cache and L1), checking rows; returns each pair's cycles and code.
fn warm(
    session: &Session<'_>,
    data: &Data,
    cells: &[Cell],
    cal: &mut Calibrator,
    tally: &mut Tally,
) -> (Vec<(u64, CodeShape)>, Timed) {
    let mut expect = Vec::new();
    let mut total = Timed::default();
    for query in 0..data.suite.len() {
        for (cell, c) in cells.iter().enumerate() {
            let pair = Pair { query, cell };
            let (result, t) = cal.time(|| execute(session, data, pair, c));
            total += t;
            let what = describe(data, pair);
            match result {
                Ok(r) => {
                    tally.record(check::rows(&what, &data.reference[query], &r.rows));
                    let shape = CodeShape {
                        code_bytes: r.compile_stats.code_bytes,
                        functions: r.compile_stats.functions,
                    };
                    expect.push((r.exec_stats.cycles, shape));
                }
                Err(e) => {
                    tally.record(Err(format!("{what}: {e}")));
                    expect.push((0, CodeShape::default()));
                }
            }
        }
    }
    (expect, total)
}

/// Set-up, timed loop and (when tracing) the layer probes.
pub fn run(
    args: &Args,
    rng: &mut Rng,
    cal: &mut Calibrator,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let cells = cells();
    let mut setups = Vec::new();
    for _ in 1..args.setups() {
        let (data, t, _) = Data::build(Suite::HLike, SF, cal)?;
        let session = Session::with_config(&data.db, session_config());
        let (_, warm_t) = warm(&session, &data, &cells, cal, tally);
        setups.push(t.norm + warm_t.norm);
    }
    let (data, t, datagen) = Data::build(Suite::HLike, SF, cal)?;
    let session = Session::with_config(&data.db, session_config());
    let (expect, warm_t) = warm(&session, &data, &cells, cal, tally);
    setups.push(t.norm + warm_t.norm);
    m.set("setup_s", stats::median(&setups));
    m.set("storage.datagen_ms", datagen.norm * 1e3);
    let pairs = shuffled_pairs(data.suite.len(), rng);

    cal.clear_samples();
    let stmt_before = session.statement_cache_stats();
    let l1_before = session.compile_service().cache_stats();
    let samples = closed_loop(args.loop_seconds(), args.min_samples(), |i| {
        let pair = pairs[i % pairs.len()];
        let (result, t) = cal.time(|| execute(&session, &data, pair, &cells[pair.cell]));
        let what = describe(&data, pair);
        tally.record(result.and_then(|r| {
            check::rows(&what, &data.reference[pair.query], &r.rows)?;
            check::same(
                &format!("cycles of {what}"),
                expect[pair.index()].0,
                r.exec_stats.cycles,
            )
        }));
        t
    });
    let stmt = session.statement_cache_stats();
    let l1 = session.compile_service().cache_stats();
    loop_metrics(&samples, cal.samples(), args.trace, m)?;
    m.set(
        "mcycles_per_query",
        mean(&expect.iter().map(|e| e.0 as f64 / 1e6).collect::<Vec<_>>()),
    );
    m.set(
        "code_kib_per_query",
        mean(
            &expect
                .iter()
                .map(|e| e.1.code_bytes as f64 / 1024.0)
                .collect::<Vec<_>>(),
        ),
    );
    if args.trace {
        crate::compile_cold::probe_compile(&data, &cells, &pairs, cal, tally, m);
        probe_exec(&data, &cells, &pairs, cal, tally, m)?;
        probe_morsel(&data, tally, m);
        crate::serve_restart::probe(&data, rng, cal, tally, m)?;
    }
    // The timed loop's own cache figures override the probes'.
    let hits = (stmt.hits - stmt_before.hits) as f64;
    m.set(
        "session.stmt_hit_ratio",
        ratio(hits, hits + (stmt.misses - stmt_before.misses) as f64),
    );
    let hits = (l1.hits - l1_before.hits) as f64;
    m.set(
        "compile_service.l1_hit_ratio",
        ratio(hits, hits + (l1.misses - l1_before.misses) as f64),
    );
    Ok(())
}

/// Executes every pair with code served cold, from L1 and from the
/// on-disk store (L2) of a reopened session, checking that all three
/// give the same rows and model cycles. Gives the execution metrics per
/// cell and the warm (L1) and disk (L2) compile times.
pub fn probe_exec(
    data: &Data,
    cells: &[Cell],
    pairs: &[Pair],
    cal: &mut Calibrator,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let dir = ScratchDir::new("exec-l2")?;
    let config = || SessionConfig {
        artifact_store: Some(ArtifactStoreConfig::at(dir.path())),
        ..session_config()
    };
    let cold = Session::with_config(&data.db, config());
    let mut first: Vec<Option<(u64, Vec<String>)>> = vec![None; data.suite.len() * CELLS.len()];
    for &pair in pairs {
        let what = describe(data, pair);
        match execute(&cold, data, pair, &cells[pair.cell]) {
            Ok(r) => {
                tally.record(check::rows(&what, &data.reference[pair.query], &r.rows));
                first[pair.index()] = Some((r.exec_stats.cycles, check::normalize(&r.rows)));
            }
            Err(e) => tally.record(Err(format!("{what}: {e}"))),
        }
    }

    let mut exec_ms: Vec<Vec<f64>> = vec![Vec::new(); CELLS.len()];
    let mut exec_cycles: Vec<Vec<f64>> = vec![Vec::new(); CELLS.len()];
    let mut warm_ms = Vec::new();
    let mut disk_ms = Vec::new();
    let reopened = Session::with_config(&data.db, config());
    for (tier, session) in [("L1", &cold), ("L2", &reopened)] {
        for &pair in pairs {
            let Some((cycles, rows)) = &first[pair.index()] else {
                continue;
            };
            let what = format!("{} served from {tier}", describe(data, pair));
            let q = &data.suite[pair.query];
            let run = match session.prepare(&q.plan) {
                Ok(run) => run.backend(Arc::clone(&cells[pair.cell].backend)),
                Err(e) => {
                    tally.record(Err(format!("{what}: {e}")));
                    continue;
                }
            };
            let disk_before = session.compile_service().cache_stats();
            let (compiled, compile_t) = cal.time(|| run.compile());
            let disk = session.compile_service().cache_stats();
            let served_from_disk = disk.disk_hits > disk_before.disk_hits
                && disk.disk_misses == disk_before.disk_misses;
            let mut compiled = match compiled {
                Ok(c) => c,
                Err(e) => {
                    tally.record(Err(format!("{what}: {e}")));
                    continue;
                }
            };
            let (result, exec_t) = cal.time(|| run.execute_compiled(&mut compiled));
            let outcome = result.map_err(|e| e.to_string()).and_then(|r| {
                check::same(&format!("cycles of {what}"), *cycles, r.exec_stats.cycles)?;
                check::same(&format!("rows of {what}"), rows, &check::normalize(&r.rows))?;
                Ok(r.exec_stats.cycles)
            });
            match outcome {
                Ok(c) if tier == "L1" => {
                    warm_ms.push(compile_t.norm * 1e3);
                    exec_ms[pair.cell].push(exec_t.norm * 1e3);
                    exec_cycles[pair.cell].push(c as f64);
                    tally.record(Ok(()));
                }
                Ok(_) => {
                    if served_from_disk {
                        disk_ms.push(compile_t.norm * 1e3);
                    }
                    tally.record(Ok(()));
                }
                Err(e) => tally.record(Err(e)),
            }
        }
    }
    for (cell, (ms, cycles)) in CELLS.iter().zip(exec_ms.iter().zip(&exec_cycles)) {
        m.set(format!("exec.{cell}.ms_per_query"), mean(ms));
        m.set(
            format!("exec.{cell}.ns_per_cycle"),
            ratio(ms.iter().sum::<f64>() * 1e6, cycles.iter().sum()),
        );
        m.set(format!("exec.{cell}.mcycles_per_query"), mean(cycles) / 1e6);
    }
    m.set("compile_service.warm_compile_ms", mean(&warm_ms));
    m.set("artifact_store.disk_compile_ms", mean(&disk_ms));
    Ok(())
}

/// Morsel-parallel model speed-up: every query on `clift.tx64` with a
/// static schedule at 1, 2 and 4 workers, rows checked at each width.
pub fn probe_morsel(data: &Data, tally: &mut Tally, m: &mut Metrics) {
    let session = Session::with_config(
        &data.db,
        SessionConfig {
            engine: EngineConfig { morsel_size: 256 },
            ..session_config()
        },
    );
    let clift = backend("clift.tx64");
    let widths = [1usize, 2, 4];
    let mut cycles = [0u64; 3];
    let mut critical = [0u64; 3];
    for (qi, q) in data.suite.iter().enumerate() {
        for (w, &workers) in widths.iter().enumerate() {
            let what = format!("{} on {workers} morsel workers", q.name);
            let result = session.prepare(&q.plan).and_then(|run| {
                let run = run
                    .backend(Arc::clone(&clift))
                    .workers(workers)
                    .schedule(MorselSchedule::Static)
                    .direct();
                let mut compiled = run.compile()?;
                run.execute_compiled(&mut compiled)
            });
            match result {
                Ok(r) => {
                    tally.record(check::rows(&what, &data.reference[qi], &r.rows));
                    cycles[w] += r.exec_stats.cycles;
                    critical[w] += r.critical_path_cycles;
                }
                Err(e) => tally.record(Err(format!("{what}: {e}"))),
            }
        }
    }
    m.set(
        "morsel_exec.model_speedup_w2",
        ratio(cycles[0] as f64, critical[1] as f64),
    );
    m.set(
        "morsel_exec.model_speedup_w4",
        ratio(cycles[0] as f64, critical[2] as f64),
    );
    m.set(
        "morsel_exec.extra_cycles_w4",
        cycles[2] as f64 - cycles[0] as f64,
    );
}
