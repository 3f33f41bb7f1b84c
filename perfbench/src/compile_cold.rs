//! `compile-cold`: one client compiling (query, cell) pairs on the
//! direct, uncached path — plan, IR, codegen and link, with the
//! statement cache off. This is the paper's Table III compile column.

use crate::check::{self, CodeShape, Tally};
use crate::fixture::{cells, shuffled_pairs, Cell, Data, Pair, Rng, Suite, CELLS, TX64_PHASES};
use crate::report::Metrics;
use crate::stats::{self, geomean, mean, Calibrator};
use crate::{closed_loop, loop_metrics, Args};
use qc_backend::{Backend, CodeArtifact};
use qc_engine::{CompileServiceConfig, Session, SessionConfig};
use qc_plan::{PhysicalPlan, PlanNode};
use qc_timing::TimeTrace;
use std::sync::Arc;
use std::time::Instant;

/// DS-like scale: compile work does not depend on it, and set-up's
/// execution of every pair stays short.
pub const SF: f64 = 0.01;

/// Raw durations (s) of the layers one cold compile passes through.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    pub decompose: f64,
    pub irgen: f64,
    pub codegen: f64,
    pub link: f64,
}

/// One cold compilation of a query.
pub struct Compiled {
    pub shape: CodeShape,
    pub spans: Spans,
    pub pipelines: usize,
    pub ir_insts: usize,
    pub artifacts: Vec<Box<dyn CodeArtifact>>,
}

impl Compiled {
    /// Position-independent bytes of all generated code.
    pub fn content_bytes(&self) -> Vec<u8> {
        self.artifacts
            .iter()
            .flat_map(|a| a.content_bytes())
            .collect()
    }
}

/// Plans `plan`, generates its IR, compiles every pipeline module to an
/// artifact and links each artifact once.
pub fn compile_pair(
    data: &Data,
    plan: &PlanNode,
    backend: &dyn Backend,
    trace: &TimeTrace,
) -> Result<Compiled, String> {
    let t0 = Instant::now();
    let phys =
        PhysicalPlan::decompose(plan, &|t: &str| data.schema(t)).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let ir = qc_codegen::generate(&phys, "q");
    let t2 = Instant::now();
    let artifacts = ir
        .modules
        .iter()
        .map(|m| match backend.compile_artifact(m, trace) {
            Ok(Some(a)) => Ok(a),
            Ok(None) => Err(format!("{} produced no artifact", backend.name())),
            Err(e) => Err(e.to_string()),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let t3 = Instant::now();
    let mut shape = CodeShape::default();
    for artifact in &artifacts {
        let exe = artifact.instantiate().map_err(|e| e.to_string())?;
        shape.code_bytes += exe.compile_stats().code_bytes;
        shape.functions += exe.compile_stats().functions;
    }
    let t4 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok(Compiled {
        shape,
        spans: Spans {
            decompose: secs(t0, t1),
            irgen: secs(t1, t2),
            codegen: secs(t2, t3),
            link: secs(t3, t4),
        },
        pipelines: phys.pipelines.len(),
        ir_insts: ir
            .modules
            .iter()
            .flat_map(|m| m.functions())
            .map(qc_ir::Function::num_insts)
            .sum(),
        artifacts,
    })
}

/// What set-up recorded for one pair: its code and its model cycles.
#[derive(Debug, Clone, Copy, Default)]
pub struct Expect {
    pub shape: CodeShape,
    pub cycles: u64,
}

/// Compiles every pair on the engine's direct path and executes it
/// once, checking its rows against the reference.
pub fn warm(
    data: &Data,
    cells: &[Cell],
    cal: &mut Calibrator,
    tally: &mut Tally,
) -> (Vec<Expect>, stats::Timed) {
    let session = Session::with_config(
        &data.db,
        SessionConfig {
            compile: CompileServiceConfig {
                workers: 1,
                ..Default::default()
            },
            statement_cache_capacity: 0,
            ..Default::default()
        },
    );
    let mut expect = Vec::with_capacity(data.suite.len() * cells.len());
    let mut total = stats::Timed::default();
    for (qi, q) in data.suite.iter().enumerate() {
        for cell in cells {
            let (result, t) = cal.time(|| {
                let run = session
                    .prepare(&q.plan)?
                    .backend(Arc::clone(&cell.backend))
                    .direct();
                let mut compiled = run.compile()?;
                let result = run.execute_compiled(&mut compiled)?;
                Ok::<_, qc_engine::EngineError>((compiled.compile_stats, result))
            });
            total += t;
            let what = format!("{} on {}", q.name, cell.name);
            match result {
                Ok((stats, result)) => {
                    tally.record(check::rows(&what, &data.reference[qi], &result.rows));
                    expect.push(Expect {
                        shape: CodeShape {
                            code_bytes: stats.code_bytes,
                            functions: stats.functions,
                        },
                        cycles: result.exec_stats.cycles,
                    });
                }
                Err(e) => {
                    tally.record(Err(format!("{what}: {e}")));
                    expect.push(Expect::default());
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
        let (data, t, _) = Data::build(Suite::DsLike, SF, cal)?;
        let (_, warm_t) = warm(&data, &cells, cal, tally);
        setups.push(t.norm + warm_t.norm);
    }
    let (data, t, datagen) = Data::build(Suite::DsLike, SF, cal)?;
    let (expect, warm_t) = warm(&data, &cells, cal, tally);
    setups.push(t.norm + warm_t.norm);
    m.set("setup_s", stats::median(&setups));
    m.set("storage.datagen_ms", datagen.norm * 1e3);
    let pairs = shuffled_pairs(data.suite.len(), rng);

    cal.clear_samples();
    let disabled = TimeTrace::disabled();
    let samples = closed_loop(args.loop_seconds(), args.min_samples(), |i| {
        let pair = pairs[i % pairs.len()];
        let q = &data.suite[pair.query];
        let cell = &cells[pair.cell];
        let (compiled, t) =
            cal.time(|| compile_pair(&data, &q.plan, cell.backend.as_ref(), &disabled));
        let what = format!("{} on {}", q.name, cell.name);
        tally
            .record(compiled.and_then(|c| check::same(&what, expect[pair.index()].shape, c.shape)));
        t
    });
    loop_metrics(&samples, cal.samples(), args.trace, m)?;
    m.set(
        "mcycles_per_query",
        mean(
            &expect
                .iter()
                .map(|e| e.cycles as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "code_kib_per_query",
        mean(
            &expect
                .iter()
                .map(|e| e.shape.code_bytes as f64 / 1024.0)
                .collect::<Vec<_>>(),
        ),
    );
    if args.trace {
        probe_compile(&data, &cells, &pairs, cal, tally, m);
        crate::exec_hot::probe_exec(&data, &cells, &pairs, cal, tally, m)?;
        crate::exec_hot::probe_morsel(&data, tally, m);
        crate::serve_restart::probe(&data, rng, cal, tally, m)?;
    }
    Ok(())
}

/// One traced pass over `pairs`: every pair is compiled once with a
/// live `TimeTrace` and once without, in alternating order. Gives the
/// plan, codegen, link and phase metrics, the tracing overhead, and
/// checks that both compilations produced identical code.
pub fn probe_compile(
    data: &Data,
    cells: &[Cell],
    pairs: &[Pair],
    cal: &mut Calibrator,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let traces: Vec<TimeTrace> = cells.iter().map(|_| TimeTrace::new()).collect();
    let disabled = TimeTrace::disabled();
    let mut plain_ms = Vec::with_capacity(pairs.len());
    let mut traced_ms = Vec::with_capacity(pairs.len());
    let mut decompose = Vec::new();
    let mut irgen = Vec::new();
    let mut per_cell: Vec<[Vec<f64>; 3]> = cells.iter().map(|_| Default::default()).collect();
    let mut shape_of_query: Vec<(f64, f64)> = vec![(0.0, 0.0); data.suite.len()];
    for (i, &pair) in pairs.iter().enumerate() {
        let q = &data.suite[pair.query];
        let cell = &cells[pair.cell];
        let mut content = Vec::new();
        for traced in [i % 2 == 1, i % 2 == 0] {
            let trace = if traced {
                &traces[pair.cell]
            } else {
                &disabled
            };
            let (compiled, t) =
                cal.time(|| compile_pair(data, &q.plan, cell.backend.as_ref(), trace));
            let compiled = match compiled {
                Ok(c) => c,
                Err(e) => {
                    tally.record(Err(format!("{} on {}: {e}", q.name, cell.name)));
                    continue;
                }
            };
            content.push(compiled.content_bytes());
            if traced {
                traced_ms.push(t.norm * 1e3);
                continue;
            }
            plain_ms.push(t.norm * 1e3);
            let ms = |raw: f64| cal.timed(raw).norm * 1e3;
            decompose.push(ms(compiled.spans.decompose));
            irgen.push(ms(compiled.spans.irgen));
            let [codegen, link, kib] = &mut per_cell[pair.cell];
            codegen.push(ms(compiled.spans.codegen));
            link.push(ms(compiled.spans.link));
            kib.push(compiled.shape.code_bytes as f64 / 1024.0);
            shape_of_query[pair.query] = (compiled.ir_insts as f64, compiled.pipelines as f64);
        }
        if let [a, b] = &content[..] {
            let what = format!(
                "content bytes of {} on {} compiled twice",
                q.name, cell.name
            );
            tally.record(check::same(&what, a.len(), b.len()).and_then(|()| {
                if a == b {
                    Ok(())
                } else {
                    Err(format!("{what} differ"))
                }
            }));
        }
    }
    m.set("plan.decompose_ms", mean(&decompose));
    m.set("plan.irgen_ms", mean(&irgen));
    m.set(
        "plan.ir_insts_per_query",
        mean(&shape_of_query.iter().map(|s| s.0).collect::<Vec<_>>()),
    );
    m.set(
        "plan.pipelines_per_query",
        mean(&shape_of_query.iter().map(|s| s.1).collect::<Vec<_>>()),
    );
    for (cell, [codegen, link, kib]) in CELLS.iter().zip(&per_cell) {
        m.set(format!("codegen.{cell}.ms_per_query"), mean(codegen));
        m.set(format!("codegen.{cell}.code_kib_per_query"), mean(kib));
        m.set(format!("link.{cell}.instantiate_ms_per_query"), mean(link));
    }
    for (cell, phases) in TX64_PHASES {
        let index = CELLS.iter().position(|c| *c == cell).expect("TX64 cell");
        let report = traces[index].report();
        for phase in phases {
            m.set(
                format!("phase.{cell}.{phase}_share"),
                report.fraction(phase),
            );
        }
    }
    m.set(
        "timing.trace_overhead_pct",
        (geomean(&traced_ms) / geomean(&plain_ms) - 1.0) * 100.0,
    );
}
