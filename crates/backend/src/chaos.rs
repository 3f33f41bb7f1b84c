//! Deterministic fault injection for back-ends.
//!
//! [`ChaosBackend`] wraps any [`Backend`] and injects one configured
//! [`ChaosFault`] on a deterministic schedule: on the Nth call, on every
//! call, or pseudo-randomly from a seed. The fault names its site and
//! the schedule counts calls at that site only:
//!
//! * **compile call** faults (error, panic, delay) drive the compilation
//!   service's fault-tolerance layer — panic isolation, compile
//!   deadlines, retry policy, fallback chain;
//! * **morsel call** faults (panic, trap, delay, cycle burn) fire inside
//!   the `main` calls of the produced executables (`setup`/`finish` stay
//!   clean so pipelines always reach the morsel loop) and drive the
//!   execution fault envelope — worker panic isolation, query budgets,
//!   the runaway governor, and the serving-path circuit breaker.
//!
//! Nothing in here is used on the production path.

use crate::{Backend, BackendError, CodeArtifact, CompileStats, Executable};
use qc_ir::Module;
use qc_runtime::RuntimeState;
use qc_target::{ExecStats, Isa, Trap};
use qc_timing::TimeTrace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What [`ChaosBackend`] injects when its schedule fires, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Compile call: return a [`BackendError`] of kind `Transient`
    /// (retryable).
    CompileTransient,
    /// Compile call: return a [`BackendError`] of kind `Permanent` (not
    /// retryable; forces a tier downgrade under a fallback chain).
    CompilePermanent,
    /// Compile call: panic. The service must catch this, convert it to
    /// a `Panic`-kind error, and keep its workers alive.
    CompilePanic,
    /// Compile call: sleep for the given duration, then compile
    /// normally, driving compile-deadline overruns.
    CompileDelay(Duration),
    /// Morsel call: panic. The morsel executor must contain this with
    /// its per-worker `catch_unwind`, replay the lost morsels, and keep
    /// the merged result byte-identical.
    MorselPanic,
    /// Morsel call: return [`Trap::Runtime`] with the given code, as a
    /// miscompiled or resource-starved kernel would. Drives the serving
    /// scheduler's per-tier circuit breaker.
    MorselTrap(u8),
    /// Morsel call: sleep for the given duration, then execute
    /// normally, driving query-deadline overruns without corrupting
    /// results.
    MorselDelay(Duration),
    /// Morsel call: execute normally but inflate the executable's
    /// reported cycle count by this much per injection. Results stay
    /// correct; only the modeled cost lies, which is exactly what the
    /// runaway governor and cycle budgets must react to.
    MorselBurnCycles(u64),
}

impl ChaosFault {
    /// Whether the fault fires in compile calls (otherwise in morsel
    /// `main` calls).
    fn at_compile(self) -> bool {
        matches!(
            self,
            ChaosFault::CompileTransient
                | ChaosFault::CompilePermanent
                | ChaosFault::CompilePanic
                | ChaosFault::CompileDelay(_)
        )
    }
}

/// When the fault fires, as a function of the 0-based call index at
/// the fault's site (each module compile — fresh or retried — or each
/// morsel `main` call is one call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// Exactly the Nth call.
    Nth(u64),
    /// Every call.
    Always,
    /// Pseudo-random per call: fault with probability `permille`/1000,
    /// derived from `seed` and the call index only — identical across
    /// runs and thread schedules.
    Seeded { seed: u64, permille: u16 },
}

/// SplitMix64: tiny, high-quality mixing for the seeded schedule (no
/// dependency on the `rand` crate from the backend interface crate).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The fault plan: fault, schedule, and the call counters. Shared
/// (`Arc`) with every artifact and executable the back-end produces —
/// including re-links of a cached artifact — so a morsel schedule
/// indexes `main` calls across a whole serving run, not per executable.
#[derive(Debug)]
struct Plan {
    fault: ChaosFault,
    schedule: Schedule,
    calls: AtomicU64,
    injected: AtomicU64,
}

impl Plan {
    /// Counts one call; returns its 0-based index when the fault fires.
    fn fires(&self) -> Option<u64> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let fire = match self.schedule {
            Schedule::Nth(k) => n == k,
            Schedule::Always => true,
            Schedule::Seeded { seed, permille } => {
                (splitmix64(seed ^ n) % 1000) < u64::from(permille)
            }
        };
        if fire {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fire.then_some(n)
    }
}

/// A fault-injecting [`Backend`] wrapper with a deterministic schedule.
///
/// The wrapper reports the inner back-end's `name` and `isa` so that
/// downgrade records and compile stats name the real tier, but mixes
/// the fault plan into `config_fingerprint` so chaos-compiled artifacts
/// never alias clean cache entries. Under parallel execution the *set*
/// of faulted morsel-call indices is fixed even though their thread
/// assignment is not.
pub struct ChaosBackend {
    inner: Arc<dyn Backend>,
    plan: Arc<Plan>,
}

impl std::fmt::Debug for ChaosBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ChaosBackend({}, {:?}, {:?}, {} injected)",
            self.inner.name(),
            self.plan.fault,
            self.plan.schedule,
            self.injected()
        )
    }
}

impl ChaosBackend {
    fn with_schedule(inner: Arc<dyn Backend>, fault: ChaosFault, schedule: Schedule) -> Self {
        ChaosBackend {
            inner,
            plan: Arc::new(Plan {
                fault,
                schedule,
                calls: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// Injects `fault` on the `n`-th (0-based) call at its site only.
    pub fn on_nth(inner: Arc<dyn Backend>, n: u64, fault: ChaosFault) -> Self {
        Self::with_schedule(inner, fault, Schedule::Nth(n))
    }

    /// Injects `fault` on every call at its site.
    pub fn always(inner: Arc<dyn Backend>, fault: ChaosFault) -> Self {
        Self::with_schedule(inner, fault, Schedule::Always)
    }

    /// Injects `fault` on each call at its site independently with
    /// probability `permille`/1000, deterministically derived from
    /// `seed` and the call index.
    pub fn seeded(inner: Arc<dyn Backend>, seed: u64, permille: u16, fault: ChaosFault) -> Self {
        Self::with_schedule(inner, fault, Schedule::Seeded { seed, permille })
    }

    /// Total calls observed at the fault's site, across all produced
    /// executables for a morsel fault.
    pub fn calls(&self) -> u64 {
        self.plan.calls.load(Ordering::Relaxed)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.plan.injected.load(Ordering::Relaxed)
    }
}

impl Backend for ChaosBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn isa(&self) -> Isa {
        self.inner.isa()
    }

    fn config_fingerprint(&self) -> u64 {
        let schedule = match self.plan.schedule {
            Schedule::Nth(k) => splitmix64(k ^ 1),
            Schedule::Always => splitmix64(2),
            Schedule::Seeded { seed, permille } => splitmix64(seed ^ u64::from(permille) ^ 3),
        };
        let nanos = |d: Duration| d.as_nanos() as u64;
        let fault = match self.plan.fault {
            ChaosFault::CompileTransient => 1,
            ChaosFault::CompilePermanent => 2,
            ChaosFault::CompilePanic => 3,
            ChaosFault::CompileDelay(d) => splitmix64(4 ^ nanos(d)),
            ChaosFault::MorselPanic => 5,
            ChaosFault::MorselTrap(code) => splitmix64(6 ^ u64::from(code)),
            ChaosFault::MorselDelay(d) => splitmix64(7 ^ nanos(d)),
            ChaosFault::MorselBurnCycles(c) => splitmix64(8 ^ c),
        };
        // Never alias the clean back-end's cache entries.
        self.inner.config_fingerprint() ^ schedule ^ fault ^ 0x4348_414f_5321
    }

    fn compile_artifact(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError> {
        if !self.plan.fault.at_compile() {
            return Ok(self.inner.compile_artifact(module, trace)?.map(
                |inner| -> Box<dyn CodeArtifact> {
                    Box::new(ChaosArtifact {
                        inner,
                        plan: Arc::clone(&self.plan),
                    })
                },
            ));
        }
        if let Some(n) = self.plan.fires() {
            match self.plan.fault {
                ChaosFault::CompileTransient => {
                    return Err(BackendError::transient(format!(
                        "chaos: injected transient fault on call {n}"
                    )))
                }
                ChaosFault::CompilePermanent => {
                    return Err(BackendError::new(format!(
                        "chaos: injected fault on call {n}"
                    )))
                }
                ChaosFault::CompilePanic => panic!("chaos: injected panic on call {n}"),
                ChaosFault::CompileDelay(d) => std::thread::sleep(d),
                _ => unreachable!("morsel faults never fire at compile"),
            }
        }
        self.inner.compile_artifact(module, trace)
    }
}

/// [`CodeArtifact`] keeping a morsel fault attached across the engine's
/// compile-result cache: a cached artifact re-linked for a later query
/// still consults the shared plan. Never serialized — a fault plan must
/// not escape into the persistent artifact store.
struct ChaosArtifact {
    inner: Box<dyn CodeArtifact>,
    plan: Arc<Plan>,
}

impl CodeArtifact for ChaosArtifact {
    fn link(&self, trace: &TimeTrace) -> Result<Box<dyn Executable>, BackendError> {
        Ok(Box::new(ChaosExecutable {
            inner: self.inner.link(trace)?,
            plan: Arc::clone(&self.plan),
            extra_cycles: 0,
        }))
    }

    fn compile_stats(&self) -> &CompileStats {
        self.inner.compile_stats()
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn content_bytes(&self) -> Vec<u8> {
        self.inner.content_bytes()
    }
}

/// [`Executable`] that injects its plan's morsel fault into `main`
/// calls.
struct ChaosExecutable {
    inner: Box<dyn Executable>,
    plan: Arc<Plan>,
    /// Cycles added by `MorselBurnCycles` injections, reported on top
    /// of the inner executable's honest stats.
    extra_cycles: u64,
}

impl Executable for ChaosExecutable {
    fn call(
        &mut self,
        state: &mut RuntimeState,
        name: &str,
        args: &[u64],
    ) -> Result<[u64; 2], Trap> {
        if name == "main" {
            if let Some(n) = self.plan.fires() {
                match self.plan.fault {
                    ChaosFault::MorselPanic => panic!("chaos: injected exec panic on call {n}"),
                    ChaosFault::MorselTrap(code) => return Err(Trap::Runtime(code)),
                    ChaosFault::MorselDelay(d) => std::thread::sleep(d),
                    ChaosFault::MorselBurnCycles(c) => self.extra_cycles += c,
                    _ => unreachable!("compile faults never reach executables"),
                }
            }
        }
        self.inner.call(state, name, args)
    }

    fn exec_stats(&self) -> ExecStats {
        let mut stats = self.inner.exec_stats();
        stats.cycles += self.extra_cycles;
        stats
    }

    fn compile_stats(&self) -> &CompileStats {
        self.inner.compile_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_module, BackendErrorKind};

    /// Minimal back-end that always "succeeds" without an artifact;
    /// enough to observe compile-site injection logic.
    struct NullBackend;
    impl Backend for NullBackend {
        fn name(&self) -> &'static str {
            "Null"
        }
        fn isa(&self) -> Isa {
            Isa::Tx64
        }
        fn compile_artifact(
            &self,
            _module: &Module,
            _trace: &TimeTrace,
        ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError> {
            Ok(None)
        }
    }

    fn module() -> Module {
        Module::new("m")
    }

    #[test]
    fn nth_schedule_fires_once() {
        let chaos = ChaosBackend::on_nth(Arc::new(NullBackend), 1, ChaosFault::CompileTransient);
        let trace = TimeTrace::disabled();
        // Call 0: clean (the null inner answers Ok(None)).
        assert!(chaos.compile_artifact(&module(), &trace).is_ok());
        // Call 1: the injected transient fault.
        let e1 = chaos
            .compile_artifact(&module(), &trace)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(e1.kind, BackendErrorKind::Transient);
        // Call 2: clean again.
        assert!(chaos.compile_artifact(&module(), &trace).is_ok());
        assert_eq!(chaos.injected(), 1);
        assert_eq!(chaos.calls(), 3);
    }

    #[test]
    fn seeded_schedule_is_reproducible() {
        let mk = || {
            ChaosBackend::seeded(
                Arc::new(NullBackend),
                0xC4A05,
                250,
                ChaosFault::CompileTransient,
            )
        };
        let trace = TimeTrace::disabled();
        let a = mk();
        let b = mk();
        let pattern = |c: &ChaosBackend| {
            (0..64)
                .map(|_| c.compile_artifact(&module(), &trace).is_err())
                .collect::<Vec<_>>()
        };
        let pa = pattern(&a);
        assert_eq!(pa, pattern(&b), "seeded schedule must be deterministic");
        assert!(pa.iter().any(|&f| f), "some calls must fault");
        assert!(pa.iter().any(|&f| !f), "some calls must pass");
    }

    #[test]
    #[should_panic(expected = "chaos: injected panic")]
    fn panic_fault_panics() {
        let chaos = ChaosBackend::always(Arc::new(NullBackend), ChaosFault::CompilePanic);
        let _ = chaos.compile_artifact(&module(), &TimeTrace::disabled());
    }

    /// Executable that answers every call and reports fixed stats, so
    /// morsel-site injection is observable.
    struct EchoExecutable {
        stats: CompileStats,
    }
    impl Executable for EchoExecutable {
        fn call(
            &mut self,
            _state: &mut RuntimeState,
            _name: &str,
            _args: &[u64],
        ) -> Result<[u64; 2], Trap> {
            Ok([7, 0])
        }
        fn exec_stats(&self) -> ExecStats {
            ExecStats {
                cycles: 100,
                insts: 10,
            }
        }
        fn compile_stats(&self) -> &CompileStats {
            &self.stats
        }
    }

    struct EchoArtifact(CompileStats);
    impl CodeArtifact for EchoArtifact {
        fn link(&self, _trace: &TimeTrace) -> Result<Box<dyn Executable>, BackendError> {
            Ok(Box::new(EchoExecutable {
                stats: self.0.clone(),
            }))
        }
        fn compile_stats(&self) -> &CompileStats {
            &self.0
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn content_bytes(&self) -> Vec<u8> {
            Vec::new()
        }
    }

    struct EchoBackend;
    impl Backend for EchoBackend {
        fn name(&self) -> &'static str {
            "Echo"
        }
        fn isa(&self) -> Isa {
            Isa::Tx64
        }
        fn compile_artifact(
            &self,
            _module: &Module,
            _trace: &TimeTrace,
        ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError> {
            Ok(Some(Box::new(EchoArtifact(CompileStats::default()))))
        }
    }

    fn executable(chaos: &ChaosBackend) -> Box<dyn Executable> {
        compile_module(chaos, &module(), &TimeTrace::disabled())
            .and_then(|a| a.instantiate())
            .expect("echo compiles")
    }

    #[test]
    fn morsel_trap_fires_on_main_only() {
        let chaos = ChaosBackend::on_nth(Arc::new(EchoBackend), 0, ChaosFault::MorselTrap(9));
        let mut exe = executable(&chaos);
        assert_eq!(chaos.calls(), 0, "compiles are not morsel calls");
        let mut state = RuntimeState::new();
        // setup/finish never consult the schedule.
        assert!(exe.call(&mut state, "setup", &[]).is_ok());
        assert_eq!(
            exe.call(&mut state, "main", &[]),
            Err(Trap::Runtime(9)),
            "call 0 must trap"
        );
        assert!(exe.call(&mut state, "main", &[]).is_ok(), "call 1 is clean");
        assert!(exe.call(&mut state, "finish", &[]).is_ok());
        assert_eq!(chaos.calls(), 2);
        assert_eq!(chaos.injected(), 1);
    }

    #[test]
    fn morsel_burn_cycles_inflates_stats_without_failing() {
        let chaos = ChaosBackend::always(Arc::new(EchoBackend), ChaosFault::MorselBurnCycles(1000));
        let mut exe = executable(&chaos);
        let mut state = RuntimeState::new();
        assert_eq!(exe.call(&mut state, "main", &[]).unwrap()[0], 7);
        assert_eq!(exe.call(&mut state, "main", &[]).unwrap()[0], 7);
        assert_eq!(exe.exec_stats().cycles, 100 + 2000);
        assert_eq!(exe.exec_stats().insts, 10, "insts stay honest");
    }

    #[test]
    #[should_panic(expected = "chaos: injected exec panic")]
    fn morsel_panic_fault_panics_on_main() {
        let chaos = ChaosBackend::always(Arc::new(EchoBackend), ChaosFault::MorselPanic);
        let _ = executable(&chaos).call(&mut RuntimeState::new(), "main", &[]);
    }

    #[test]
    fn morsel_schedule_is_shared_across_executables() {
        // Two executables from the same back-end share one call counter:
        // Nth(1) fires on the second main call overall, regardless of
        // which executable makes it.
        let chaos = ChaosBackend::on_nth(Arc::new(EchoBackend), 1, ChaosFault::MorselTrap(1));
        let mut a = executable(&chaos);
        let mut b = executable(&chaos);
        let mut state = RuntimeState::new();
        assert!(a.call(&mut state, "main", &[]).is_ok());
        assert_eq!(b.call(&mut state, "main", &[]), Err(Trap::Runtime(1)));
    }

    #[test]
    fn fingerprint_differs_from_inner_and_across_sites() {
        let inner: Arc<dyn Backend> = Arc::new(EchoBackend);
        let morsel = ChaosBackend::always(Arc::clone(&inner), ChaosFault::MorselPanic);
        let compile = ChaosBackend::always(Arc::clone(&inner), ChaosFault::CompilePanic);
        assert_ne!(compile.config_fingerprint(), inner.config_fingerprint());
        assert_ne!(morsel.config_fingerprint(), inner.config_fingerprint());
        assert_ne!(morsel.config_fingerprint(), compile.config_fingerprint());
    }
}
