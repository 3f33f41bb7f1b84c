//! Morsel-parallel execution (paper Sec. II: morsel-driven parallelism).
//!
//! Three layers live here:
//!
//! 1. [`ExecTally`] — swap-safe cycle accounting. Every generated-code
//!    call is charged by its own before/after [`qc_backend::Executable::exec_stats`]
//!    delta, so totals no longer depend on *which* executable instance
//!    (tier, worker clone) performed which call. This replaces the old
//!    per-tier baseline subtraction in `engine.rs`, which assumed a
//!    single executor mutating `compiled.executables`.
//! 2. [`QueryExecution`] — an incremental stepper that runs a prepared
//!    query morsel by morsel. Single-worker execution is a loop over
//!    [`QueryExecution::step`]; the serving scheduler advances
//!    many executions in slices of a few morsels each.
//! 3. [`MorselExecutor`] — the parallel executor: a pool of workers,
//!    each owning a forked [`RuntimeState`] and its own executable
//!    linked from the pipeline's [`CodeArtifact`], pulling morsels
//!    from per-pipeline claimers (work-stealing deques or a shared
//!    ordered counter) and merging results deterministically at every
//!    pipeline barrier.
//!
//! # Determinism argument
//!
//! Workers never mutate shared containers: forked hash tables and tuple
//! buffers are read-only views of canonical state (build sides, scan
//! buffers), and each worker's generated `setup` creates private sink
//! containers in its own arena. At the pipeline barrier the coordinator
//! replays worker sink effects into the canonical state **in ascending
//! morsel order** — the exact order the single-threaded loop would have
//! produced them:
//!
//! * `Output` / `SortMaterialize` rows append in morsel order (the sort
//!   in `finish` is stable, so equal keys keep serial order).
//! * `JoinBuild` inserts replay from each worker's
//!   [`qc_runtime::HashTable::insert_log`] in morsel order, reproducing
//!   the serial insert sequence and therefore identical LIFO bucket
//!   chains and identical downstream probe order.
//! * `AggBuild` group *creation events* (rows of the worker's
//!   group-registration buffer) replay in `(morsel, in-morsel seq)`
//!   order. Provided each worker claims its morsels in ascending order,
//!   the first creation event for a group across all workers lands
//!   exactly at the group's serial first-occurrence position, so
//!   canonical groups are created in serial order; later events fold
//!   that worker's fully-accumulated partial state in with one combine.
//!   (This is why aggregation pipelines use the ordered claimer instead
//!   of stealing deques: a steal takes the victim's *largest* pending
//!   morsel, which would break per-worker ascending claim order.)
//!
//! Rows are therefore byte-identical to single-threaded execution for
//! every worker count and schedule. Cycle totals are exactly serial at
//! `workers == 1`; with more workers they additionally include each
//! worker's `setup` and duplicated group-creation work (real work in a
//! parallel model), and are reproducible run-to-run under
//! [`MorselSchedule::Static`] (under `Stealing` the claim interleaving —
//! and hence the total — varies with thread timing; rows still do not).
//!
//! Floating-point aggregation states (`F64` group keys or aggregates)
//! cannot merge bit-identically (FP addition is non-associative, and
//! `±0.0`/`NaN` break bytewise key equality), so such pipelines fall
//! back to the serial path — see [`sink_merge_supported`].

use crate::engine::{
    decode_rows, CompiledQuery, Engine, EngineError, ExecutionResult, MorselEvent, PreparedQuery,
    QueryBudget,
};
use qc_backend::{CodeArtifact, Executable};
use qc_plan::{AggFunc, CtxEntry, Pipeline, RowLayout, Sink, Source};
use qc_runtime::{
    entry_hash, HashTable, RtString, RuntimeState, ENTRY_HASH_OFFSET, ENTRY_NEXT_OFFSET,
    ENTRY_PAYLOAD_OFFSET,
};
use qc_storage::{ColumnType, Morsel};
use qc_target::{ExecStats, Trap};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------
// Swap-safe cycle accounting
// ---------------------------------------------------------------------

/// Accumulated deterministic execution cost, charged per generated-code
/// call rather than against a per-tier baseline. Budget errors
/// ([`EngineError::BudgetExhausted`] and friends) carry one of these as
/// the partial accounting of the work done before the budget tripped.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecTally {
    /// Deterministic cycles.
    pub cycles: u64,
    /// Emulated instructions.
    pub insts: u64,
}

impl ExecTally {
    /// Runs `f` against `exe` and charges the executable's cycle and
    /// instruction deltas to this tally. Because the delta brackets one
    /// call, accounting stays correct across mid-query executable swaps
    /// and when many workers report independently.
    fn charge<R>(
        &mut self,
        exe: &mut dyn Executable,
        f: impl FnOnce(&mut dyn Executable) -> R,
    ) -> R {
        let before = exe.exec_stats();
        let out = f(exe);
        let after = exe.exec_stats();
        self.cycles += after.cycles - before.cycles;
        self.insts += after.insts - before.insts;
        out
    }
}

/// Charges one generated-code call with panic containment: a panic in
/// the callee surfaces as a typed [`EngineError::WorkerPanic`] instead
/// of unwinding through the executor. Used for the *serial* sections of
/// a parallel execution (canonical setup/finish, serial-fallback
/// pipelines) where there is no surviving worker to replay onto — the
/// query fails cleanly, the process never does.
fn charge_contained(
    tally: &mut ExecTally,
    exe: &mut dyn Executable,
    f: impl FnOnce(&mut dyn Executable) -> Result<[u64; 2], Trap>,
) -> Result<[u64; 2], EngineError> {
    match catch_unwind(AssertUnwindSafe(|| tally.charge(exe, f))) {
        Ok(r) => r.map_err(EngineError::from),
        Err(payload) => Err(EngineError::WorkerPanic(panic_text(payload.as_ref()))),
    }
}

// ---------------------------------------------------------------------
// Context construction
// ---------------------------------------------------------------------

/// Builds and fills the query context block: column base addresses and
/// interned string literals. Handle slots are written later by the
/// generated `setup` functions.
pub(crate) fn build_ctx(
    engine: &Engine<'_>,
    prepared: &PreparedQuery,
    state: &mut RuntimeState,
) -> Result<Vec<u8>, EngineError> {
    let plan = &prepared.plan;
    let db = engine.database();
    let mut ctx = vec![0u8; plan.ctx_size().max(8)];
    for entry in &plan.ctx {
        let off = plan.ctx_offset(entry) as usize;
        match entry {
            CtxEntry::ColumnBase { table, column } => {
                let t = db.table(table).ok_or_else(|| {
                    EngineError::Storage(format!(
                        "table `{table}` vanished between planning and execution"
                    ))
                })?;
                let base = t
                    .try_column_by_name(column)
                    .ok_or_else(|| {
                        EngineError::Storage(format!(
                            "column `{column}` vanished from table `{table}`"
                        ))
                    })?
                    .base_addr();
                ctx[off..off + 8].copy_from_slice(&base.to_le_bytes());
            }
            CtxEntry::StrConst(i) => {
                let s = state.intern_string(&plan.str_literals[*i]);
                ctx[off..off + 8].copy_from_slice(&s.lo.to_le_bytes());
                ctx[off + 8..off + 16].copy_from_slice(&s.hi.to_le_bytes());
            }
            _ => {} // handles are written by generated setup functions
        }
    }
    Ok(ctx)
}

fn ctx_handle(ctx: &[u8], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&ctx[off..off + 8]);
    u64::from_le_bytes(bytes)
}

/// Locks a mutex, recovering the data on poisoning. Every mutex in this
/// module guards plain claim/publication data whose invariants hold at
/// every await-free point, so a panicking worker cannot leave them in a
/// torn state; recovery keeps the query (and the serve loop above it)
/// alive instead of cascading the panic.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Text form of a panic payload (mirrors the compile service's
/// fault-envelope helper).
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------
// Incremental stepper
// ---------------------------------------------------------------------

/// Progress of one [`QueryExecution::step`] call.
pub(crate) enum StepProgress {
    /// At least one morsel ran; the last one produced this event.
    Ran(MorselEvent),
    /// The query has finished all pipelines.
    Done,
}

/// Incremental morsel-wise execution of one prepared query.
///
/// `step` runs up to `max_morsels` morsels and returns, letting the
/// caller consult a tier-up hook (the engine) or switch to another
/// query (the serving scheduler). Pipeline `finish` runs on the step
/// *after* the pipeline's last morsel, preserving the serial contract
/// that the hook observes every morsel before its pipeline is sealed.
pub(crate) struct QueryExecution {
    state: RuntimeState,
    ctx: Vec<u8>,
    pipe_idx: usize,
    setup_done: bool,
    cursor: u64,
    total: u64,
    morsel: u64,
    morsels_done: u64,
    tally: ExecTally,
    budget: QueryBudget,
    started: Instant,
    /// Ctx offset of the output buffer slot (result-row budget checks).
    out_off: usize,
    /// Whether the output pipeline's `setup` has created the buffer.
    out_ready: bool,
}

impl QueryExecution {
    /// Creates the execution with per-morsel budget enforcement: runtime
    /// state plus filled context block. An unbudgeted run passes
    /// [`QueryBudget::unlimited`].
    pub(crate) fn with_budget(
        engine: &Engine<'_>,
        prepared: &PreparedQuery,
        budget: QueryBudget,
    ) -> Result<QueryExecution, EngineError> {
        let mut state = RuntimeState::new();
        let ctx = build_ctx(engine, prepared, &mut state)?;
        let out_off = prepared.plan.ctx_offset(&CtxEntry::OutputBuf) as usize;
        Ok(QueryExecution {
            state,
            ctx,
            pipe_idx: 0,
            setup_done: false,
            cursor: 0,
            total: 0,
            morsel: 1,
            morsels_done: 0,
            tally: ExecTally::default(),
            budget,
            started: Instant::now(),
            out_off,
            out_ready: false,
        })
    }

    /// Work charged so far (partial accounting for killed queries).
    pub(crate) fn tally(&self) -> ExecTally {
        self.tally
    }

    /// Result rows materialized so far (0 until the output pipeline's
    /// setup has created the buffer — handle numbering makes 0 a valid
    /// handle, so an explicit readiness flag gates the read).
    fn result_rows(&self) -> u64 {
        if !self.out_ready {
            return 0;
        }
        self.state.buffer(ctx_handle(&self.ctx, self.out_off)).len() as u64
    }

    /// Scan range `(total rows, morsel size)` of a pipeline source.
    fn scan_range(
        engine: &Engine<'_>,
        prepared: &PreparedQuery,
        state: &RuntimeState,
        ctx: &[u8],
        pipe: &Pipeline,
    ) -> Result<(u64, u64), EngineError> {
        match &pipe.source {
            Source::Table { name, .. } => {
                let rows = engine
                    .database()
                    .table(name)
                    .map(qc_storage::Table::row_count)
                    .ok_or_else(|| {
                        EngineError::Storage(format!(
                            "scan table `{name}` vanished between planning and execution"
                        ))
                    })?;
                Ok((rows as u64, engine.morsel_size() as u64))
            }
            Source::Buffer { buffer, limit, .. } => {
                let off = prepared.plan.ctx_offset(buffer) as usize;
                let len = state.buffer(ctx_handle(ctx, off)).len() as u64;
                let len = match limit {
                    Some(l) => len.min(*l as u64),
                    None => len,
                };
                Ok((len, len.max(1))) // buffer scans run as one morsel
            }
        }
    }

    /// Runs up to `max_morsels` morsels (crossing pipeline boundaries,
    /// running `finish`/`setup` as needed) and reports progress.
    ///
    /// # Errors
    /// Propagates traps from generated code and storage errors.
    pub(crate) fn step(
        &mut self,
        engine: &Engine<'_>,
        prepared: &PreparedQuery,
        compiled: &mut CompiledQuery,
        max_morsels: u64,
    ) -> Result<StepProgress, EngineError> {
        let plan = &prepared.plan;
        let ctx_addr = self.ctx.as_ptr() as u64;
        let has_budget = !self.budget.is_unlimited();
        let mut ran = 0u64;
        while self.pipe_idx < plan.pipelines.len() {
            if !self.setup_done {
                let exe = compiled.executables[self.pipe_idx].as_mut();
                let state = &mut self.state;
                self.tally
                    .charge(exe, |e| e.call(state, "setup", &[ctx_addr]))?;
                let pipe = &plan.pipelines[self.pipe_idx];
                if matches!(pipe.sink, Sink::Output { .. }) {
                    self.out_ready = true;
                }
                let (total, morsel) =
                    Self::scan_range(engine, prepared, &self.state, &self.ctx, pipe)?;
                self.total = total;
                self.morsel = morsel;
                self.cursor = 0;
                self.setup_done = true;
            }
            while self.cursor < self.total {
                // Budget check at every morsel claim: a tripped bound
                // stops the query before the next morsel runs.
                if has_budget {
                    self.budget
                        .check(self.started, self.tally, self.result_rows())?;
                }
                let count = self.morsel.min(self.total - self.cursor);
                let start = self.cursor;
                let exe = compiled.executables[self.pipe_idx].as_mut();
                let state = &mut self.state;
                self.tally
                    .charge(exe, |e| e.call(state, "main", &[ctx_addr, start, count]))?;
                self.cursor += count;
                self.morsels_done += 1;
                ran += 1;
                if ran >= max_morsels {
                    return Ok(StepProgress::Ran(MorselEvent {
                        pipeline: self.pipe_idx,
                        morsels_done: self.morsels_done,
                        cycles_so_far: self.tally.cycles,
                    }));
                }
            }
            // The pipeline's last morsel may itself overflow the row
            // cap; one check at the barrier catches it before `finish`
            // seals the pipeline.
            if has_budget {
                self.budget
                    .check(self.started, self.tally, self.result_rows())?;
            }
            let exe = compiled.executables[self.pipe_idx].as_mut();
            let state = &mut self.state;
            self.tally
                .charge(exe, |e| e.call(state, "finish", &[ctx_addr]))?;
            self.pipe_idx += 1;
            self.setup_done = false;
        }
        if ran > 0 {
            // The final morsels of the final pipeline still yield an
            // event so callers observe every boundary exactly once.
            return Ok(StepProgress::Ran(MorselEvent {
                pipeline: self.pipe_idx.saturating_sub(1),
                morsels_done: self.morsels_done,
                cycles_so_far: self.tally.cycles,
            }));
        }
        Ok(StepProgress::Done)
    }

    /// Estimated morsels left to run (exact for the current pipeline,
    /// table-row estimates for pipelines not yet set up). Drives the
    /// scheduler's tier-up priority.
    pub(crate) fn remaining_morsels(&self, engine: &Engine<'_>, prepared: &PreparedQuery) -> u64 {
        let plan = &prepared.plan;
        let mut rem = 0u64;
        for (i, pipe) in plan.pipelines.iter().enumerate().skip(self.pipe_idx) {
            if i == self.pipe_idx && self.setup_done {
                rem += (self.total - self.cursor).div_ceil(self.morsel.max(1));
            } else {
                rem += match &pipe.source {
                    Source::Table { name, .. } => engine
                        .database()
                        .table(name)
                        .map_or(0, |t| t.row_count() as u64)
                        .div_ceil(engine.morsel_size() as u64),
                    Source::Buffer { .. } => 1,
                };
            }
        }
        rem
    }

    /// Decodes the output buffer into the final result.
    pub(crate) fn into_result(
        self,
        prepared: &PreparedQuery,
        compiled: &CompiledQuery,
    ) -> Result<ExecutionResult, EngineError> {
        let plan = &prepared.plan;
        let out_off = plan.ctx_offset(&CtxEntry::OutputBuf) as usize;
        let rows = decode_rows(&self.state, ctx_handle(&self.ctx, out_off), &plan.output);
        Ok(ExecutionResult {
            rows,
            exec_stats: ExecStats {
                cycles: self.tally.cycles,
                insts: self.tally.insts,
            },
            critical_path_cycles: self.tally.cycles,
            compile_time: compiled.compile_time,
            compile_stats: compiled.compile_stats.clone(),
        })
    }
}

// ---------------------------------------------------------------------
// Parallel executor
// ---------------------------------------------------------------------

/// How workers claim morsels within a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MorselSchedule {
    /// Striped static assignment: worker `w` of `W` owns morsels
    /// `w, w + W, w + 2W, …`. Fully deterministic (cycle totals are a
    /// pure function of the worker count), no load balancing.
    Static,
    /// Work stealing: per-worker deques seeded striped; a worker pops
    /// its own deque from the front and steals from others' backs.
    /// Aggregation pipelines use a shared ordered counter instead (see
    /// the module docs for why steals would break group ordering).
    Stealing,
}

/// Configuration of a [`MorselExecutor`].
#[derive(Debug, Clone, Copy)]
pub struct MorselExecConfig {
    /// Worker threads. `0` and `1` both mean single-threaded execution
    /// on the calling thread (the exact serial path).
    pub workers: usize,
    /// Claim discipline for parallel pipelines.
    pub schedule: MorselSchedule,
}

impl Default for MorselExecConfig {
    fn default() -> Self {
        MorselExecConfig {
            workers: 1,
            schedule: MorselSchedule::Stealing,
        }
    }
}

/// Whether a pipeline's sink effects can be merged deterministically
/// from per-worker partitions. Floating-point aggregation state cannot
/// (non-associative addition, `±0.0`/`NaN` key equality), so those
/// pipelines run serially on the canonical state.
fn sink_merge_supported(sink: &Sink) -> bool {
    match sink {
        Sink::Output { .. } | Sink::JoinBuild { .. } | Sink::SortMaterialize { .. } => true,
        Sink::AggBuild { layout, .. } => layout.fields.iter().all(|f| f.ty != ColumnType::F64),
    }
}

/// Morsel-parallel query executor.
///
/// Wraps an [`Engine`] execution with a worker pool. With
/// `workers <= 1` it delegates to the engine's serial path; otherwise
/// each table-scan pipeline with a mergeable sink fans its morsels out
/// to workers and merges at the pipeline barrier. The morsel-boundary
/// tier-up hook keeps working: a replacement tier published by the hook
/// is observed by every worker at its next morsel claim (instantiated
/// from the replacement's [`CodeArtifact`]).
#[derive(Debug, Clone, Copy)]
pub struct MorselExecutor {
    config: MorselExecConfig,
}

impl MorselExecutor {
    /// Creates an executor with `config`.
    pub fn new(config: MorselExecConfig) -> Self {
        MorselExecutor { config }
    }

    /// The configuration.
    pub fn config(&self) -> MorselExecConfig {
        self.config
    }

    /// Executes a compiled query (no tier-up hook).
    ///
    /// # Errors
    /// Propagates traps from generated code and storage errors.
    pub fn execute(
        &self,
        engine: &Engine<'_>,
        prepared: &PreparedQuery,
        compiled: &mut CompiledQuery,
    ) -> Result<ExecutionResult, EngineError> {
        self.execute_with_hook(engine, prepared, compiled, &mut |_| None)
    }

    /// Executes a compiled query, consulting `hook` after every morsel
    /// (same contract as [`crate::QueryRun::execute_compiled_with_hook`]).
    ///
    /// # Errors
    /// Propagates traps from generated code and storage errors. Under
    /// parallel execution the reported trap is the one from the lowest
    /// trapping morsel observed — best-effort identity with the serial
    /// trap (exact when `workers <= 1`).
    pub fn execute_with_hook(
        &self,
        engine: &Engine<'_>,
        prepared: &PreparedQuery,
        compiled: &mut CompiledQuery,
        hook: &mut dyn FnMut(&MorselEvent) -> Option<CompiledQuery>,
    ) -> Result<ExecutionResult, EngineError> {
        self.execute_budgeted(engine, prepared, compiled, &QueryBudget::unlimited(), hook)
    }

    /// Executes a compiled query under a [`QueryBudget`], consulting
    /// `hook` after every morsel. Budget bounds are checked at every
    /// morsel claim — serial or parallel — so a tripped budget stops
    /// the query within one morsel and surfaces the typed budget error
    /// with partial [`ExecTally`] accounting.
    ///
    /// Worker panics are isolated: a panicking morsel worker poisons
    /// only itself; its unclaimed morsels are requeued onto surviving
    /// workers and its claimed-but-unmerged morsels are replayed once
    /// by a retry pass so the deterministic barrier merge stays
    /// byte-identical. A second fault fails the query cleanly with
    /// [`EngineError::WorkerPanic`] instead of the process. Panics in
    /// the *serial* sections — canonical setup/finish, serial-fallback
    /// pipelines, and single-worker runs — have no surviving worker to
    /// replay onto, so they are contained to the same typed error
    /// without a retry: the query fails, the process never does.
    ///
    /// # Errors
    /// Propagates traps, storage errors, budget overruns, and
    /// unrecovered worker panics.
    pub fn execute_budgeted(
        &self,
        engine: &Engine<'_>,
        prepared: &PreparedQuery,
        compiled: &mut CompiledQuery,
        budget: &QueryBudget,
        hook: &mut dyn FnMut(&MorselEvent) -> Option<CompiledQuery>,
    ) -> Result<ExecutionResult, EngineError> {
        if self.config.workers <= 1 {
            // Single-threaded runs still get the process-survival
            // guarantee: a panic in generated code fails the query with
            // a typed error, not the caller.
            return catch_unwind(AssertUnwindSafe(|| {
                engine.execute_budgeted(prepared, compiled, budget, hook)
            }))
            .unwrap_or_else(|payload| Err(EngineError::WorkerPanic(panic_text(payload.as_ref()))));
        }

        let plan = &prepared.plan;
        let started = Instant::now();
        let has_budget = !budget.is_unlimited();
        let mut state = RuntimeState::new();
        let ctx = build_ctx(engine, prepared, &mut state)?;
        let ctx_addr = ctx.as_ptr() as u64;
        let out_off = plan.ctx_offset(&CtxEntry::OutputBuf) as usize;
        let mut out_ready = false;
        let mut tally = ExecTally::default();
        let mut morsels_done = 0u64;
        let mut critical = 0u64;

        for pipe_idx in 0..plan.pipelines.len() {
            let pipe = &plan.pipelines[pipe_idx];
            let serial_before = tally.cycles;
            if has_budget {
                let rows = if out_ready {
                    state.buffer(ctx_handle(&ctx, out_off)).len() as u64
                } else {
                    0
                };
                budget.check(started, tally, rows)?;
            }
            // Canonical setup creates the canonical sink containers the
            // barrier merge writes into.
            {
                let exe = compiled.executables[pipe_idx].as_mut();
                charge_contained(&mut tally, exe, |e| {
                    e.call(&mut state, "setup", &[ctx_addr])
                })?;
            }
            let counts_rows = matches!(pipe.sink, Sink::Output { .. });
            if counts_rows {
                out_ready = true;
            }
            let rows_before = if out_ready {
                state.buffer(ctx_handle(&ctx, out_off)).len() as u64
            } else {
                0
            };
            let bctx = BudgetCtx {
                budget,
                started,
                rows_before,
                counts_rows,
            };
            // Morsel decomposition. `Table::morsels` yields no morsels
            // for an empty table — the loop below must run zero
            // iterations, matching the serial `while start < total`
            // scan (that is the invariant the storage layer documents).
            let morsels: Vec<Morsel> = match &pipe.source {
                Source::Table { name, .. } => engine
                    .database()
                    .table(name)
                    .ok_or_else(|| {
                        EngineError::Storage(format!(
                            "scan table `{name}` vanished between planning and execution"
                        ))
                    })?
                    .morsels(engine.morsel_size()),
                Source::Buffer { buffer, limit, .. } => {
                    let off = plan.ctx_offset(buffer) as usize;
                    let len = state.buffer(ctx_handle(&ctx, off)).len() as u64;
                    let len = match limit {
                        Some(l) => len.min(*l as u64),
                        None => len,
                    };
                    if len == 0 {
                        Vec::new()
                    } else {
                        vec![Morsel {
                            start: 0,
                            count: len,
                        }]
                    }
                }
            };

            // A pipeline goes parallel when splitting can pay off and its
            // sink merges deterministically.
            let worker_exes = if morsels.len() >= 2 && sink_merge_supported(&pipe.sink) {
                Some(instantiate_workers(
                    compiled,
                    pipe_idx,
                    self.config.workers,
                )?)
            } else {
                None
            };

            let mut worker_cycles = (0u64, 0u64); // (busiest, total)
            match worker_exes {
                Some(exes) => {
                    let run = ParallelPipeline {
                        plan,
                        pipe,
                        pipe_idx,
                        morsels: &morsels,
                        schedule: self.config.schedule,
                    };
                    worker_cycles = run.execute(
                        &mut state,
                        &ctx,
                        compiled,
                        &mut tally,
                        &mut morsels_done,
                        exes,
                        &bctx,
                        hook,
                    )?;
                }
                None => {
                    for m in &morsels {
                        if has_budget {
                            let rows = if out_ready {
                                state.buffer(ctx_handle(&ctx, out_off)).len() as u64
                            } else {
                                0
                            };
                            budget.check(started, tally, rows)?;
                        }
                        let exe = compiled.executables[pipe_idx].as_mut();
                        charge_contained(&mut tally, exe, |e| {
                            e.call(&mut state, "main", &[ctx_addr, m.start, m.count])
                        })?;
                        morsels_done += 1;
                        let event = MorselEvent {
                            pipeline: pipe_idx,
                            morsels_done,
                            cycles_so_far: tally.cycles,
                        };
                        if let Some(replacement) = hook(&event) {
                            compiled.adopt_replacement(replacement);
                        }
                    }
                }
            }

            // Barrier check before `finish`: the pipeline's last morsel
            // (or the merged parallel rows) may overflow the row cap.
            if has_budget {
                let rows = if out_ready {
                    state.buffer(ctx_handle(&ctx, out_off)).len() as u64
                } else {
                    0
                };
                budget.check(started, tally, rows)?;
            }
            // Canonical finish (hash-table build / sort) runs on the
            // merged containers, so its cost envelope matches serial.
            {
                let exe = compiled.executables[pipe_idx].as_mut();
                charge_contained(&mut tally, exe, |e| {
                    e.call(&mut state, "finish", &[ctx_addr])
                })?;
            }
            // Critical path: serial sections (canonical setup/finish,
            // serial-fallback morsels) in full, plus only the busiest
            // worker of the parallel section.
            let (busiest, worker_total) = worker_cycles;
            critical += (tally.cycles - serial_before) - worker_total + busiest;
        }

        let out_off = plan.ctx_offset(&CtxEntry::OutputBuf) as usize;
        let rows = decode_rows(&state, ctx_handle(&ctx, out_off), &plan.output);
        Ok(ExecutionResult {
            rows,
            exec_stats: ExecStats {
                cycles: tally.cycles,
                insts: tally.insts,
            },
            critical_path_cycles: critical,
            compile_time: compiled.compile_time,
            compile_stats: compiled.compile_stats.clone(),
        })
    }
}

/// Links one executable per worker from the pipeline's artifact.
fn instantiate_workers(
    compiled: &CompiledQuery,
    pipe_idx: usize,
    workers: usize,
) -> Result<Vec<Box<dyn Executable>>, EngineError> {
    let artifact = &compiled.artifacts[pipe_idx];
    (0..workers)
        .map(|_| artifact.instantiate().map_err(EngineError::from))
        .collect()
}

// ---------------------------------------------------------------------
// Morsel claimers
// ---------------------------------------------------------------------

/// Per-pipeline morsel claim discipline.
enum Claimer {
    /// Shared ascending counter: perfect load balance and ascending
    /// claim order for every worker (required by aggregation merges).
    Ordered(AtomicUsize),
    /// Per-worker deques seeded striped; `steal` allows taking from the
    /// back of other workers' deques.
    Striped {
        deques: Vec<Mutex<VecDeque<usize>>>,
        steal: bool,
        /// Whether a panicked worker's stranded morsels may be
        /// re-claimed by survivors. Off for aggregation pipelines: a
        /// late out-of-order claim would break the ascending-claim
        /// invariant the merge depends on, so their stranded morsels
        /// go to the serial retry pass instead.
        poison_steal: bool,
        /// Workers that panicked; their deques become stealable.
        poisoned: Vec<AtomicBool>,
    },
}

impl Claimer {
    fn new(n_morsels: usize, workers: usize, schedule: MorselSchedule, ordered: bool) -> Claimer {
        match (schedule, ordered) {
            (MorselSchedule::Stealing, true) => Claimer::Ordered(AtomicUsize::new(0)),
            (schedule, ordered) => {
                let mut deques: Vec<VecDeque<usize>> =
                    (0..workers).map(|_| VecDeque::new()).collect();
                for m in 0..n_morsels {
                    deques[m % workers].push_back(m);
                }
                Claimer::Striped {
                    deques: deques.into_iter().map(Mutex::new).collect(),
                    steal: schedule == MorselSchedule::Stealing,
                    poison_steal: !ordered,
                    poisoned: (0..workers).map(|_| AtomicBool::new(false)).collect(),
                }
            }
        }
    }

    /// Marks a panicked worker: its remaining morsels become claimable
    /// by surviving workers (the panic-requeue path). The ordered
    /// claimer never assigns morsels ahead of time, so it has nothing
    /// to requeue.
    fn poison(&self, worker: usize) {
        if let Claimer::Striped { poisoned, .. } = self {
            poisoned[worker].store(true, Ordering::Release);
        }
    }

    fn claim(&self, worker: usize, n_morsels: usize) -> Option<usize> {
        match self {
            Claimer::Ordered(next) => {
                let m = next.fetch_add(1, Ordering::Relaxed);
                (m < n_morsels).then_some(m)
            }
            Claimer::Striped {
                deques,
                steal,
                poison_steal,
                poisoned,
            } => {
                if let Some(m) = lock_recover(&deques[worker]).pop_front() {
                    return Some(m);
                }
                let w = deques.len();
                for v in (worker + 1..w).chain(0..worker) {
                    let may_take = *steal || (*poison_steal && poisoned[v].load(Ordering::Acquire));
                    if !may_take {
                        continue;
                    }
                    if let Some(m) = lock_recover(&deques[v]).pop_back() {
                        return Some(m);
                    }
                }
                None
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tier-up swap cell
// ---------------------------------------------------------------------

/// Atomic publication point for a background-compiled replacement tier.
/// Workers poll the generation at each morsel claim and re-instantiate
/// their executable from the newest artifact.
struct SwapCell {
    generation: AtomicU64,
    artifact: Mutex<Option<Arc<dyn CodeArtifact>>>,
}

impl SwapCell {
    fn new() -> SwapCell {
        SwapCell {
            generation: AtomicU64::new(0),
            artifact: Mutex::new(None),
        }
    }

    fn publish(&self, artifact: Arc<dyn CodeArtifact>) {
        *lock_recover(&self.artifact) = Some(artifact);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Returns the newest artifact when the generation moved past
    /// `seen` (updating `seen`), `None` otherwise.
    fn refresh(&self, seen: &mut u64) -> Option<Arc<dyn CodeArtifact>> {
        let g = self.generation.load(Ordering::Acquire);
        if g == *seen {
            return None;
        }
        *seen = g;
        lock_recover(&self.artifact).clone()
    }
}

// ---------------------------------------------------------------------
// Parallel pipeline run
// ---------------------------------------------------------------------

/// What a worker reads to track sink growth after each morsel.
#[derive(Clone, Copy)]
enum SinkKind {
    /// Output / sort buffer: progress is the buffer length.
    Buffer,
    /// Join hash table: progress is the insert-log length.
    Join,
    /// Aggregation: progress is the group-registration buffer length.
    Agg,
}

/// Sink description shared with workers: kind plus the ctx offset of
/// the container whose growth delimits each morsel's effects.
#[derive(Clone, Copy)]
struct SinkInfo {
    kind: SinkKind,
    progress_off: usize,
}

/// One claimed morsel's sink-effect range in a worker's containers.
struct MorselRecord {
    morsel: usize,
    sink_start: usize,
    sink_end: usize,
}

/// Everything a finished worker hands back for the barrier merge.
struct WorkerOutput {
    ctx: Vec<u8>,
    state: RuntimeState,
    records: Vec<MorselRecord>,
    /// This worker's total charged cycles (critical-path reporting).
    tally: ExecTally,
    /// `(morsel index, error)`; `usize::MAX` marks a setup failure.
    error: Option<(usize, EngineError)>,
}

enum WorkerMsg {
    /// One morsel completed (fires the tier-up hook).
    Morsel {
        cycles: u64,
        insts: u64,
        /// Result rows this morsel produced (output-sink pipelines
        /// only) — drives the coordinator's in-flight row-cap check.
        rows: u64,
    },
    /// Cycle remainder not tied to a completed morsel (idle worker
    /// setup, a trapped morsel's partial cost) — accounting only.
    Flush {
        cycles: u64,
        insts: u64,
    },
    Done,
}

/// Budget context a pipeline run checks against: the query budget, the
/// execution start instant, and how result rows are counted while this
/// pipeline's output is still distributed across workers.
struct BudgetCtx<'a> {
    budget: &'a QueryBudget,
    started: Instant,
    /// Result rows materialized before this pipeline started.
    rows_before: u64,
    /// Whether this pipeline's sink is the output buffer (its morsels
    /// add result rows).
    counts_rows: bool,
}

impl BudgetCtx<'_> {
    fn check(&self, tally: ExecTally, rows_delta: u64) -> Result<(), EngineError> {
        self.budget
            .check(self.started, tally, self.rows_before + rows_delta)
    }
}

struct ParallelPipeline<'a> {
    plan: &'a qc_plan::PhysicalPlan,
    pipe: &'a Pipeline,
    pipe_idx: usize,
    morsels: &'a [Morsel],
    schedule: MorselSchedule,
}

impl ParallelPipeline<'_> {
    fn sink_info(&self) -> SinkInfo {
        let (kind, entry) = match &self.pipe.sink {
            Sink::Output { .. } => (SinkKind::Buffer, CtxEntry::OutputBuf),
            Sink::SortMaterialize { sort_id, .. } => {
                (SinkKind::Buffer, CtxEntry::SortBuf(*sort_id))
            }
            Sink::JoinBuild { join_id, .. } => (SinkKind::Join, CtxEntry::JoinHt(*join_id)),
            Sink::AggBuild { agg_id, .. } => (SinkKind::Agg, CtxEntry::AggGroups(*agg_id)),
        };
        SinkInfo {
            kind,
            progress_off: self.plan.ctx_offset(&entry) as usize,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        state: &mut RuntimeState,
        ctx: &[u8],
        compiled: &mut CompiledQuery,
        tally: &mut ExecTally,
        morsels_done: &mut u64,
        worker_exes: Vec<Box<dyn Executable>>,
        bctx: &BudgetCtx<'_>,
        hook: &mut dyn FnMut(&MorselEvent) -> Option<CompiledQuery>,
    ) -> Result<(u64, u64), EngineError> {
        let workers = worker_exes.len();
        let ordered = matches!(self.pipe.sink, Sink::AggBuild { .. });
        let claimer = Claimer::new(self.morsels.len(), workers, self.schedule, ordered);
        let swap = SwapCell::new();
        let sink = self.sink_info();
        let stop = AtomicBool::new(false);
        let has_budget = !bctx.budget.is_unlimited();
        let counts_rows = bctx.counts_rows;
        let (tx, rx) = crossbeam::channel::unbounded();

        // Fork worker states before entering the scope: the forks hold
        // read-only views into the canonical state, which must stay
        // unmutated until every worker has finished.
        let forks: Vec<(RuntimeState, Vec<u8>)> = (0..workers)
            .map(|_| (state.fork_worker(), ctx.to_vec()))
            .collect();

        let mut budget_err: Option<EngineError> = None;
        let scope_out = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = forks
                .into_iter()
                .zip(worker_exes)
                .enumerate()
                .map(|(w, ((wstate, wctx), exe))| {
                    let tx = tx.clone();
                    let claimer = &claimer;
                    let swap = &swap;
                    let stop = &stop;
                    let morsels = self.morsels;
                    s.spawn(move || {
                        worker_run(
                            w,
                            wstate,
                            wctx,
                            exe,
                            morsels,
                            claimer,
                            swap,
                            sink,
                            counts_rows,
                            stop,
                            &tx,
                        )
                    })
                })
                .collect();
            drop(tx);

            // Coordinator: forward morsel events to the tier-up hook;
            // publish any replacement so workers observe it at their
            // next claim; check the budget on every completed morsel.
            let mut done = 0usize;
            let mut rows_delta = 0u64;
            while done < workers {
                match rx.recv() {
                    Ok(WorkerMsg::Morsel {
                        cycles,
                        insts,
                        rows,
                    }) => {
                        tally.cycles += cycles;
                        tally.insts += insts;
                        rows_delta += rows;
                        *morsels_done += 1;
                        if has_budget && budget_err.is_none() {
                            if let Err(e) = bctx.check(*tally, rows_delta) {
                                // Cooperative cancellation: workers see
                                // the flag at their next claim, so the
                                // query stops within one morsel per
                                // worker of the budget tripping.
                                budget_err = Some(e);
                                stop.store(true, Ordering::Release);
                            }
                        }
                        let event = MorselEvent {
                            pipeline: self.pipe_idx,
                            morsels_done: *morsels_done,
                            cycles_so_far: tally.cycles,
                        };
                        if let Some(replacement) = hook(&event) {
                            swap.publish(Arc::clone(&replacement.artifacts[self.pipe_idx]));
                            compiled.adopt_replacement(replacement);
                        }
                    }
                    Ok(WorkerMsg::Flush { cycles, insts }) => {
                        tally.cycles += cycles;
                        tally.insts += insts;
                    }
                    Ok(WorkerMsg::Done) => done += 1,
                    Err(_) => break, // a worker died; join below reports it
                }
            }
            handles
                .into_iter()
                .map(|h| {
                    // Panics are caught inside `worker_run`; a join
                    // error means one escaped the harness — synthesize
                    // a panicked output so the retry pass covers its
                    // morsels instead of aborting the process.
                    h.join().unwrap_or_else(|payload| WorkerOutput {
                        ctx: ctx.to_vec(),
                        state: RuntimeState::new(),
                        records: Vec::new(),
                        tally: ExecTally::default(),
                        error: Some((
                            usize::MAX,
                            EngineError::WorkerPanic(panic_text(payload.as_ref())),
                        )),
                    })
                })
                .collect::<Vec<WorkerOutput>>()
        });
        let mut outputs = match scope_out {
            Ok(o) => o,
            Err(payload) => {
                return Err(EngineError::WorkerPanic(panic_text(payload.as_ref())));
            }
        };

        if let Some(e) = budget_err {
            // The budget tripped: partial parallel work is discarded —
            // never merged into canonical state — and the typed error
            // carries the tally snapshot at trip time.
            return Err(e);
        }

        // Surface the lowest-morsel trap or storage error (best-effort
        // serial identity). Worker panics are handled below instead:
        // they are recoverable via the retry pass.
        if let Some((_, err)) = outputs
            .iter()
            .filter_map(|o| o.error.as_ref())
            .filter(|(_, e)| !matches!(e, EngineError::WorkerPanic(_)))
            .min_by_key(|(m, _)| *m)
        {
            return Err(clone_error(err));
        }

        // Parallel-section cost envelope, computed before any retry
        // pass: the retry runs serially after the barrier, so its
        // cycles extend the critical path in full (the caller adds
        // `tally - worker_total + busiest`, and retry cycles land in
        // `tally` only).
        let busiest = outputs.iter().map(|o| o.tally.cycles).max().unwrap_or(0);
        let total = outputs.iter().map(|o| o.tally.cycles).sum();

        let panicked: Vec<usize> = outputs
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o.error, Some((_, EngineError::WorkerPanic(_)))))
            .map(|(w, _)| w)
            .collect();
        if !panicked.is_empty() {
            // A panicked worker's accumulated aggregation states may
            // include the partially-executed morsel's contributions, so
            // for agg sinks all of its records are discarded and
            // replayed. Buffer/join records delimit append-only ranges
            // that stay intact past a later panic, so they are kept and
            // only the lost morsels replay.
            if matches!(self.pipe.sink, Sink::AggBuild { .. }) {
                for &w in &panicked {
                    outputs[w].records.clear();
                }
            }
            let done: HashSet<usize> = outputs
                .iter()
                .flat_map(|o| o.records.iter().map(|r| r.morsel))
                .collect();
            let missing: Vec<usize> = (0..self.morsels.len())
                .filter(|m| !done.contains(m))
                .collect();
            let mut retry_tally = ExecTally::default();
            let retried =
                self.retry_pass(state, ctx, compiled, bctx, &missing, &mut retry_tally)?;
            tally.cycles += retry_tally.cycles;
            tally.insts += retry_tally.insts;
            *morsels_done += missing.len() as u64;
            outputs.push(retried);
        }

        self.merge(state, ctx, &outputs)?;
        // Worker cycles were fully streamed into `tally` via morsel and
        // flush messages (retry cycles folded in above); only runtime
        // call counts remain to fold in.
        for o in &outputs {
            state.merge_counts_from(&o.state);
        }
        Ok((busiest, total))
    }

    /// The single retry after a worker panic: replays the missing
    /// morsels serially on a fresh fork, in ascending order (so the
    /// aggregation ascending-claim invariant holds for the replayed
    /// records). A second fault — panic, trap, or budget trip — fails
    /// the query cleanly.
    fn retry_pass(
        &self,
        state: &RuntimeState,
        ctx: &[u8],
        compiled: &CompiledQuery,
        bctx: &BudgetCtx<'_>,
        missing: &[usize],
        tally: &mut ExecTally,
    ) -> Result<WorkerOutput, EngineError> {
        let mut exe = compiled.artifacts[self.pipe_idx]
            .instantiate()
            .map_err(|e| EngineError::WorkerPanic(format!("replay instantiation failed: {e}")))?;
        let mut wstate = state.fork_worker();
        let wctx = ctx.to_vec();
        let ctx_addr = wctx.as_ptr() as u64;
        let sink = self.sink_info();
        let mut records = Vec::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), EngineError> {
            tally.charge(exe.as_mut(), |e| e.call(&mut wstate, "setup", &[ctx_addr]))?;
            for &m in missing {
                let before = sink_progress(&wstate, &wctx, sink);
                let produced = if bctx.counts_rows { before as u64 } else { 0 };
                bctx.check(*tally, produced)?;
                let morsel = self.morsels[m];
                tally.charge(exe.as_mut(), |e| {
                    e.call(&mut wstate, "main", &[ctx_addr, morsel.start, morsel.count])
                })?;
                records.push(MorselRecord {
                    morsel: m,
                    sink_start: before,
                    sink_end: sink_progress(&wstate, &wctx, sink),
                });
            }
            Ok(())
        }));
        match outcome {
            Ok(Ok(())) => Ok(WorkerOutput {
                ctx: wctx,
                state: wstate,
                records,
                tally: ExecTally::default(),
                error: None,
            }),
            Ok(Err(e)) => Err(e),
            Err(payload) => Err(EngineError::WorkerPanic(format!(
                "panicked again during replay: {}",
                panic_text(payload.as_ref())
            ))),
        }
    }

    /// Replays worker sink effects into the canonical state in
    /// ascending morsel order (see the module docs for why this
    /// reproduces the serial effect sequence exactly).
    fn merge(
        &self,
        state: &mut RuntimeState,
        ctx: &[u8],
        outputs: &[WorkerOutput],
    ) -> Result<(), EngineError> {
        let sink = self.sink_info();
        let canonical = ctx_handle(ctx, sink.progress_off);
        // Global replay order: ascending morsel index.
        let mut order: Vec<(usize, &MorselRecord)> = outputs
            .iter()
            .enumerate()
            .flat_map(|(w, o)| o.records.iter().map(move |r| (w, r)))
            .collect();
        order.sort_by_key(|(_, r)| r.morsel);

        match &self.pipe.sink {
            Sink::Output { .. } | Sink::SortMaterialize { .. } => {
                for (w, r) in order {
                    let o = &outputs[w];
                    let whandle = ctx_handle(&o.ctx, sink.progress_off);
                    let wbuf = o.state.buffer(whandle);
                    for i in r.sink_start..r.sink_end {
                        state.buf_append_from(canonical, wbuf.row(i));
                    }
                }
            }
            Sink::JoinBuild { layout, .. } => {
                let size = layout.size as usize;
                for (w, r) in order {
                    let o = &outputs[w];
                    let whandle = ctx_handle(&o.ctx, sink.progress_off);
                    // progress_off points at the JoinHt slot for joins.
                    let log = o.state.table(whandle).insert_log();
                    for &payload in &log[r.sink_start..r.sink_end] {
                        state.ht_insert_from(canonical, entry_hash(payload), payload, size);
                    }
                }
            }
            Sink::AggBuild {
                keys, aggs, layout, ..
            } => {
                let ht_off = self
                    .plan
                    .ctx_offset(&CtxEntry::AggHt(agg_id_of(&self.pipe.sink)))
                    as usize;
                let can_ht = ctx_handle(ctx, ht_off);
                let key_fields = key_fields(keys, layout)?;
                let combines = agg_combines(aggs, layout)?;
                for (w, r) in order {
                    let o = &outputs[w];
                    let wgroups = ctx_handle(&o.ctx, sink.progress_off);
                    let groups = o.state.buffer(wgroups);
                    for i in r.sink_start..r.sink_end {
                        // Each groups-buffer row holds the worker-local
                        // payload pointer of one created group.
                        let wp = read_u64_at(groups.row(i));
                        let hash = entry_hash(wp);
                        match find_group(state.table(can_ht), hash, wp, &key_fields) {
                            Some(q) => {
                                // Fold the worker's fully-accumulated
                                // partial state in with one combine.
                                for c in &combines {
                                    c.apply(q, wp)?;
                                }
                            }
                            None => {
                                let q =
                                    state.ht_insert_from(can_ht, hash, wp, layout.size as usize);
                                let cell = q.to_le_bytes();
                                state.buf_append_from(canonical, cell.as_ptr() as u64);
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

fn agg_id_of(sink: &Sink) -> usize {
    match sink {
        Sink::AggBuild { agg_id, .. } => *agg_id,
        _ => unreachable!("agg merge on non-agg sink"),
    }
}

/// The worker body: fork-local setup, claim/execute loop, effect
/// recording. Returns everything the barrier merge needs. Panics in
/// generated code are caught here — the worker poisons itself (handing
/// its unclaimed morsels to survivors) and reports the panic as its
/// error instead of unwinding through the scope.
#[allow(clippy::too_many_arguments)]
fn worker_run(
    worker: usize,
    mut wstate: RuntimeState,
    wctx: Vec<u8>,
    mut exe: Box<dyn Executable>,
    morsels: &[Morsel],
    claimer: &Claimer,
    swap: &SwapCell,
    sink: SinkInfo,
    counts_rows: bool,
    stop: &AtomicBool,
    tx: &crossbeam::channel::Sender<WorkerMsg>,
) -> WorkerOutput {
    let ctx_addr = wctx.as_ptr() as u64;
    let mut tally = ExecTally::default();
    let mut records = Vec::new();
    let mut error: Option<(usize, EngineError)> = None;
    let mut seen_gen = 0u64;
    let mut reported = ExecTally::default();

    // Worker-local setup: creates this pipeline's sink containers in
    // the worker's own arena, overwriting the sink slots in the worker
    // ctx copy. Source and probe slots keep the canonical handles,
    // which resolve into the forked read-only containers.
    match catch_unwind(AssertUnwindSafe(|| {
        tally.charge(exe.as_mut(), |e| e.call(&mut wstate, "setup", &[ctx_addr]))
    })) {
        Ok(Ok(_)) => {}
        Ok(Err(t)) => error = Some((usize::MAX, EngineError::Trap(t))),
        Err(payload) => {
            claimer.poison(worker);
            error = Some((
                usize::MAX,
                EngineError::WorkerPanic(panic_text(payload.as_ref())),
            ));
        }
    }

    while error.is_none() {
        // Cooperative cancellation: the coordinator raises `stop` when
        // the query budget trips; observing it at the claim boundary
        // bounds overrun to one in-flight morsel per worker.
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Some(m) = claimer.claim(worker, morsels.len()) else {
            break;
        };
        // Tier swap observed at the claim boundary: instantiate from
        // the newest artifact; on link failure keep the current tier.
        if let Some(artifact) = swap.refresh(&mut seen_gen) {
            if let Ok(new_exe) = artifact.instantiate() {
                exe = new_exe;
            }
        }
        let before = sink_progress(&wstate, &wctx, sink);
        let morsel = morsels[m];
        match catch_unwind(AssertUnwindSafe(|| {
            tally.charge(exe.as_mut(), |e| {
                e.call(&mut wstate, "main", &[ctx_addr, morsel.start, morsel.count])
            })
        })) {
            Ok(Ok(_)) => {
                let after = sink_progress(&wstate, &wctx, sink);
                records.push(MorselRecord {
                    morsel: m,
                    sink_start: before,
                    sink_end: after,
                });
                let _ = tx.send(WorkerMsg::Morsel {
                    cycles: tally.cycles - reported.cycles,
                    insts: tally.insts - reported.insts,
                    rows: if counts_rows {
                        (after - before) as u64
                    } else {
                        0
                    },
                });
                reported = tally;
            }
            Ok(Err(t)) => error = Some((m, EngineError::Trap(t))),
            Err(payload) => {
                claimer.poison(worker);
                error = Some((m, EngineError::WorkerPanic(panic_text(payload.as_ref()))));
            }
        }
    }
    // Flush any cycles not yet streamed (setup of a worker that claimed
    // nothing, or the trapped morsel's partial cost).
    if tally.cycles != reported.cycles || tally.insts != reported.insts {
        let _ = tx.send(WorkerMsg::Flush {
            cycles: tally.cycles - reported.cycles,
            insts: tally.insts - reported.insts,
        });
    }
    let _ = tx.send(WorkerMsg::Done);
    WorkerOutput {
        ctx: wctx,
        state: wstate,
        records,
        tally,
        error,
    }
}

fn sink_progress(state: &RuntimeState, ctx: &[u8], sink: SinkInfo) -> usize {
    let handle = ctx_handle(ctx, sink.progress_off);
    match sink.kind {
        SinkKind::Buffer | SinkKind::Agg => state.buffer(handle).len(),
        SinkKind::Join => state.table(handle).insert_log().len(),
    }
}

/// Engine errors do not implement `Clone`; rebuild the variants the
/// parallel path can produce.
fn clone_error(e: &EngineError) -> EngineError {
    match e {
        EngineError::Trap(t) => EngineError::Trap(*t),
        EngineError::Storage(s) => EngineError::Storage(s.clone()),
        EngineError::WorkerPanic(s) => EngineError::WorkerPanic(s.clone()),
        other => EngineError::Storage(format!("worker error: {other}")),
    }
}

// ---------------------------------------------------------------------
// Aggregation merge helpers
// ---------------------------------------------------------------------

fn read_u64_at(addr: u64) -> u64 {
    // SAFETY: addresses come from live arena rows/payloads the caller
    // keeps alive for the duration of the merge.
    unsafe { std::ptr::read_unaligned(addr as *const u64) }
}

fn read_i64_at(addr: u64) -> i64 {
    read_u64_at(addr) as i64
}

fn read_i128_at(addr: u64) -> i128 {
    // SAFETY: see `read_u64_at`.
    unsafe { std::ptr::read_unaligned(addr as *const i128) }
}

fn write_i64_at(addr: u64, v: i64) {
    // SAFETY: see `read_u64_at`; the caller writes into canonical
    // payloads it owns.
    unsafe { std::ptr::write_unaligned(addr as *mut i64, v) }
}

fn write_i128_at(addr: u64, v: i128) {
    // SAFETY: see `write_i64_at`.
    unsafe { std::ptr::write_unaligned(addr as *mut i128, v) }
}

fn read_str_at(addr: u64) -> RtString {
    let mut bytes = [0u8; 16];
    // SAFETY: see `read_u64_at`; string state fields are 16 bytes.
    unsafe { std::ptr::copy_nonoverlapping(addr as *const u8, bytes.as_mut_ptr(), 16) };
    RtString::from_bytes(bytes)
}

fn copy_bytes(src: u64, dst: u64, n: usize) {
    // SAFETY: both addresses reference live rows/payloads of at least
    // `n` bytes (field sizes come from the shared layout).
    unsafe { std::ptr::copy_nonoverlapping(src as *const u8, dst as *mut u8, n) }
}

/// One group-key field for replay-time group lookup.
struct KeyField {
    off: usize,
    size: usize,
    is_str: bool,
}

impl KeyField {
    /// Key equality between a canonical payload `q` and a worker
    /// payload `p`, with the same semantics generated code uses
    /// (`rt_str_eq` content equality for strings, bytewise otherwise).
    fn eq_at(&self, q: u64, p: u64) -> bool {
        let (a, b) = (q + self.off as u64, p + self.off as u64);
        if self.is_str {
            return read_str_at(a).eq_content(&read_str_at(b));
        }
        match self.size {
            8 => read_u64_at(a) == read_u64_at(b),
            _ => read_i128_at(a) == read_i128_at(b),
        }
    }
}

fn key_fields(keys: &[String], layout: &RowLayout) -> Result<Vec<KeyField>, EngineError> {
    keys.iter()
        .map(|k| {
            let f = layout.field(k).ok_or_else(|| {
                EngineError::Storage(format!("group key `{k}` missing from agg layout"))
            })?;
            Ok(KeyField {
                off: f.offset as usize,
                size: qc_plan::field_size(f.ty) as usize,
                is_str: f.ty == ColumnType::Str,
            })
        })
        .collect()
}

/// Walks the canonical bucket chain for `hash` and returns the payload
/// of the entry whose keys equal worker payload `wp`, exactly like the
/// generated create-or-update probe.
fn find_group(ht: &HashTable, hash: u64, wp: u64, keys: &[KeyField]) -> Option<u64> {
    let mut e = ht.probe(hash);
    while e != 0 {
        if read_u64_at(e + ENTRY_HASH_OFFSET as u64) == hash {
            let q = e + ENTRY_PAYLOAD_OFFSET as u64;
            if keys.iter().all(|k| k.eq_at(q, wp)) {
                return Some(q);
            }
        }
        e = read_u64_at(e + ENTRY_NEXT_OFFSET as u64);
    }
    None
}

/// How one aggregate state field folds a worker partial into the
/// canonical state.
enum Combine {
    AddI64,
    AddI128,
    MinI64,
    MaxI64,
    MinI128,
    MaxI128,
    MinStr,
    MaxStr,
}

struct StateField {
    off: usize,
    combine: Combine,
}

impl StateField {
    /// Folds worker payload `p`'s field into canonical payload `q`.
    ///
    /// # Errors
    /// Overflowing sums trap exactly like the generated overflow-checked
    /// adds would.
    fn apply(&self, q: u64, p: u64) -> Result<(), EngineError> {
        let (a, b) = (q + self.off as u64, p + self.off as u64);
        match self.combine {
            Combine::AddI64 => {
                let s = read_i64_at(a)
                    .checked_add(read_i64_at(b))
                    .ok_or(EngineError::Trap(Trap::Overflow))?;
                write_i64_at(a, s);
            }
            Combine::AddI128 => {
                let s = read_i128_at(a)
                    .checked_add(read_i128_at(b))
                    .ok_or(EngineError::Trap(Trap::Overflow))?;
                write_i128_at(a, s);
            }
            Combine::MinI64 => {
                if read_i64_at(b) < read_i64_at(a) {
                    write_i64_at(a, read_i64_at(b));
                }
            }
            Combine::MaxI64 => {
                if read_i64_at(b) > read_i64_at(a) {
                    write_i64_at(a, read_i64_at(b));
                }
            }
            Combine::MinI128 => {
                if read_i128_at(b) < read_i128_at(a) {
                    write_i128_at(a, read_i128_at(b));
                }
            }
            Combine::MaxI128 => {
                if read_i128_at(b) > read_i128_at(a) {
                    write_i128_at(a, read_i128_at(b));
                }
            }
            Combine::MinStr => {
                if read_str_at(b).cmp_content(&read_str_at(a)) == CmpOrdering::Less {
                    copy_bytes(b, a, 16);
                }
            }
            Combine::MaxStr => {
                if read_str_at(b).cmp_content(&read_str_at(a)) == CmpOrdering::Greater {
                    copy_bytes(b, a, 16);
                }
            }
        }
        Ok(())
    }
}

fn numeric_combine(ty: ColumnType, min_max: Option<bool>) -> Combine {
    let wide = matches!(ty, ColumnType::Decimal(_));
    match (min_max, wide) {
        (None, false) => Combine::AddI64,
        (None, true) => Combine::AddI128,
        (Some(true), false) => Combine::MinI64,
        (Some(true), true) => Combine::MinI128,
        (Some(false), false) => Combine::MaxI64,
        (Some(false), true) => Combine::MaxI128,
    }
}

fn agg_combines(
    aggs: &[(String, AggFunc)],
    layout: &RowLayout,
) -> Result<Vec<StateField>, EngineError> {
    let mut out = Vec::new();
    for (name, agg) in aggs {
        let state = format!("#{name}");
        let f = layout.field(&state).ok_or_else(|| {
            EngineError::Storage(format!("agg state field `{state}` missing from layout"))
        })?;
        let off = f.offset as usize;
        match agg {
            AggFunc::CountStar => out.push(StateField {
                off,
                combine: Combine::AddI64,
            }),
            AggFunc::Sum(_) => out.push(StateField {
                off,
                combine: numeric_combine(f.ty, None),
            }),
            AggFunc::Min(_) => out.push(StateField {
                off,
                combine: if f.ty == ColumnType::Str {
                    Combine::MinStr
                } else {
                    numeric_combine(f.ty, Some(true))
                },
            }),
            AggFunc::Max(_) => out.push(StateField {
                off,
                combine: if f.ty == ColumnType::Str {
                    Combine::MaxStr
                } else {
                    numeric_combine(f.ty, Some(false))
                },
            }),
            AggFunc::Avg(_) => {
                out.push(StateField {
                    off,
                    combine: numeric_combine(f.ty, None),
                });
                let cnt = layout.field(&format!("#{name}_cnt")).ok_or_else(|| {
                    EngineError::Storage(format!("avg count field `#{name}_cnt` missing"))
                })?;
                out.push(StateField {
                    off: cnt.offset as usize,
                    combine: Combine::AddI64,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_claimer_is_exhaustive_and_ascending() {
        let c = Claimer::new(10, 3, MorselSchedule::Stealing, true);
        let mut seen = Vec::new();
        while let Some(m) = c.claim(0, 10) {
            seen.push(m);
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(c.claim(1, 10), None);
    }

    #[test]
    fn striped_claimer_static_partitions_without_stealing() {
        let c = Claimer::new(7, 2, MorselSchedule::Static, false);
        let mut w0 = Vec::new();
        while let Some(m) = c.claim(0, 7) {
            w0.push(m);
        }
        assert_eq!(w0, vec![0, 2, 4, 6]);
        // Worker 1 keeps its own morsels even though worker 0 is idle.
        let mut w1 = Vec::new();
        while let Some(m) = c.claim(1, 7) {
            w1.push(m);
        }
        assert_eq!(w1, vec![1, 3, 5]);
    }

    #[test]
    fn striped_claimer_steals_from_the_back() {
        let c = Claimer::new(6, 2, MorselSchedule::Stealing, false);
        // Worker 0 drains its own deque (front order), then steals the
        // back of worker 1's deque.
        assert_eq!(c.claim(0, 6), Some(0));
        assert_eq!(c.claim(0, 6), Some(2));
        assert_eq!(c.claim(0, 6), Some(4));
        assert_eq!(c.claim(0, 6), Some(5));
        assert_eq!(c.claim(1, 6), Some(1));
        assert_eq!(c.claim(1, 6), Some(3));
        assert_eq!(c.claim(1, 6), None);
    }

    #[test]
    fn swap_cell_generations() {
        let cell = SwapCell::new();
        let mut seen = 0u64;
        assert!(cell.refresh(&mut seen).is_none());
    }
}
