//! The bench harness reads per-phase timings out of [`qc_timing`]
//! reports; these tests pin the phase vocabulary each back-end emits (the
//! rows of the paper's Figures 2–5 and Table I) so a refactor cannot
//! silently rename a phase out of the published breakdowns.

use qc_engine::{backends, Session};
use qc_target::Isa;
use qc_timing::{Report, TimeTrace};
use std::sync::Arc;

/// Traced compiles of one H-like query with `backend`, on the direct
/// path and on the service path (worker fan-out, then link on the
/// caller thread): both must record every phase, link included.
fn trace_for(backend: Box<dyn qc_backend::Backend>) -> [(&'static str, Report); 2] {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let suite = qc_workloads::hlike_suite();
    let backend: Arc<dyn qc_backend::Backend> = Arc::from(backend);
    [("direct", true), ("service", false)].map(|(path, direct)| {
        let trace = TimeTrace::new();
        let run = session
            .prepare(&suite[2].plan)
            .expect("prepare")
            .backend(Arc::clone(&backend))
            .trace(&trace);
        let run = if direct { run.direct() } else { run };
        run.compile().expect("compile");
        (path, trace.report())
    })
}

fn assert_phases(report: &Report, backend: &str, expect: &[&str]) {
    for phase in expect {
        assert!(
            report.total(phase).is_some(),
            "{backend}: phase `{phase}` missing; recorded phases: {:?}",
            report
                .rows()
                .iter()
                .map(|r| r.path.clone())
                .collect::<Vec<_>>()
        );
    }
}

/// Top-level phase fractions must account for (almost) all compile time —
/// the breakdown figures would otherwise hide work in unlabeled gaps.
fn assert_fractions_sum(report: &Report, backend: &str) {
    let sum: f64 = report
        .rows()
        .iter()
        .filter(|r| r.depth() == 0)
        .map(|r| report.fraction(&r.path))
        .sum();
    assert!(
        (0.99..=1.01).contains(&sum),
        "{backend}: top-level fractions sum to {sum}"
    );
}

#[test]
fn interpreter_phases() {
    for (path, r) in trace_for(backends::interpreter()) {
        let name = format!("Interpreter ({path})");
        assert_phases(&r, &name, &["bytecodegen"]);
        assert_fractions_sum(&r, &name);
    }
}

#[test]
fn direct_emit_phases_match_figure5() {
    for (path, r) in trace_for(backends::direct_emit()) {
        let name = format!("DirectEmit ({path})");
        assert_phases(
            &r,
            &name,
            &[
                "analysis",
                "analysis/liveness",
                "analysis/cfg",
                "codegen",
                "link",
            ],
        );
        assert_fractions_sum(&r, &name);
        // Figure 5's headline: liveness dominates the analysis pass.
        let liveness = r
            .total("analysis/liveness")
            .expect("liveness")
            .as_secs_f64();
        let analysis = r.total("analysis").expect("analysis").as_secs_f64();
        assert!(
            liveness > 0.5 * analysis,
            "liveness is only {:.0}% of analysis",
            100.0 * liveness / analysis
        );
    }
}

#[test]
fn clift_phases_match_figure4() {
    for (path, r) in trace_for(backends::clift(Isa::Tx64)) {
        let name = format!("Clift ({path})");
        assert_phases(&r, &name, &["irgen", "regalloc", "emit", "finish"]);
        assert_fractions_sum(&r, &name);
    }
}

#[test]
fn lvm_cheap_phases_match_figure2() {
    for (path, r) in trace_for(backends::lvm_cheap(Isa::Tx64)) {
        let name = format!("LVM-cheap ({path})");
        assert_phases(
            &r,
            &name,
            &["irgen", "isel", "regalloc", "asmprinter", "link", "irdtor"],
        );
        assert_fractions_sum(&r, &name);
        // The paper's surprise: the AsmPrinter is a visible fraction even in
        // cheap mode.
        assert!(
            r.fraction("asmprinter") > 0.05,
            "AsmPrinter fraction too small"
        );
    }
}

#[test]
fn lvm_opt_runs_the_pass_pipeline() {
    for (path, r) in trace_for(backends::lvm_opt(Isa::Tx64)) {
        let name = format!("LVM-opt ({path})");
        assert_phases(
            &r,
            &name,
            &["irgen", "isel", "regalloc", "asmprinter", "link"],
        );
        assert_fractions_sum(&r, &name);
    }
}

#[test]
fn cgen_phases_match_table1() {
    for (path, r) in trace_for(backends::cgen(Isa::Tx64)) {
        let name = format!("GCC/C ({path})");
        assert_phases(
            &r,
            &name,
            &[
                "cgen",
                "io",
                "cc1_parse",
                "cc1_gimplify",
                "cc1_optimize",
                "cc1_codegen",
                "as",
                "ld",
            ],
        );
        assert_fractions_sum(&r, &name);
        // Table I: the compiler proper dominates; the linker is small.
        let ld = r.fraction("ld");
        assert!(ld < 0.2, "linker fraction {ld} unexpectedly large");
    }
}

#[test]
fn disabled_traces_record_nothing() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let suite = qc_workloads::hlike_suite();
    let backend: Arc<dyn qc_backend::Backend> = Arc::from(backends::clift(Isa::Tx64));
    let trace = TimeTrace::disabled();
    session
        .prepare(&suite[0].plan)
        .expect("prepare")
        .backend(backend)
        .trace(&trace)
        .direct()
        .compile()
        .expect("compile");
    assert_eq!(trace.event_count(), 0);
}
