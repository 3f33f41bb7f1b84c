//! Common back-end interface.
//!
//! Every execution back-end — interpreter, DirectEmit, the Cranelift
//! analog, the LLVM analog in its cheap/optimized modes, and the C
//! back-end — implements [`Backend`]: compile one IR module to a
//! [`CodeArtifact`], which [`CodeArtifact::link`] turns into an
//! [`Executable`]. Compile time (the paper's primary metric) covers both
//! steps; execution is accounted in deterministic cycles through
//! [`Executable::exec_stats`].

pub mod chaos;
pub mod memit;
pub mod mir;

use qc_ir::Module;
use qc_runtime::{resolve_runtime, EmuHost, RuntimeState};
use qc_target::{
    CodeImage, Emulator, ExecStats, ImageBuilder, Isa, LinkError, Trap, UnwindRegistry,
};
use qc_timing::TimeTrace;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Failure class of a [`BackendError`], used by the compilation
/// service's fault-tolerance layer to decide between retrying a job,
/// falling back to a cheaper tier, or giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendErrorKind {
    /// The back-end deterministically rejects this input (unsupported
    /// construct, link failure, bad configuration). Retrying the same
    /// tier cannot help; a different tier might.
    Permanent,
    /// Infrastructure hiccup (worker died, channel closed, injected
    /// transient fault). Retrying the same tier may succeed.
    Transient,
    /// The compile job panicked; the panic was caught and isolated by
    /// the compilation service.
    Panic,
    /// The compile job exceeded its `CompileBudget` deadline (the
    /// budget type lives in the engine crate's compile service).
    Deadline,
}

/// Error produced when a back-end cannot compile a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    /// Problem description.
    pub message: String,
    /// Failure class; drives the service's retry/fallback policy.
    pub kind: BackendErrorKind,
}

impl BackendError {
    /// Creates a [`BackendErrorKind::Permanent`] error from a message
    /// (the common case for back-ends rejecting an input).
    pub fn new(message: impl Into<String>) -> Self {
        Self::with_kind(message, BackendErrorKind::Permanent)
    }

    /// Creates an error with an explicit failure class.
    pub fn with_kind(message: impl Into<String>, kind: BackendErrorKind) -> Self {
        BackendError {
            message: message.into(),
            kind,
        }
    }

    /// Creates a [`BackendErrorKind::Transient`] error.
    pub fn transient(message: impl Into<String>) -> Self {
        Self::with_kind(message, BackendErrorKind::Transient)
    }

    /// Creates a [`BackendErrorKind::Panic`] error from a caught panic
    /// payload description.
    pub fn panicked(message: impl Into<String>) -> Self {
        Self::with_kind(message, BackendErrorKind::Panic)
    }

    /// Creates a [`BackendErrorKind::Deadline`] error.
    pub fn deadline(message: impl Into<String>) -> Self {
        Self::with_kind(message, BackendErrorKind::Deadline)
    }

    /// Whether a retry of the same back-end may succeed.
    pub fn is_transient(&self) -> bool {
        self.kind == BackendErrorKind::Transient
    }

    /// Prefixes the message with the back-end's name so a failure
    /// surfacing through a fallback chain names the tier that produced
    /// it. No-op if the message already carries the prefix.
    #[must_use]
    pub fn in_backend(mut self, name: &str) -> Self {
        if !self.message.starts_with(name) {
            self.message = format!("{name}: {}", self.message);
        }
        self
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            BackendErrorKind::Permanent => write!(f, "backend error: {}", self.message),
            BackendErrorKind::Transient => {
                write!(f, "backend error (transient): {}", self.message)
            }
            BackendErrorKind::Panic => write!(f, "backend panic: {}", self.message),
            BackendErrorKind::Deadline => {
                write!(f, "backend deadline exceeded: {}", self.message)
            }
        }
    }
}

impl Error for BackendError {}

/// Per-compilation statistics a back-end reports alongside its code.
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Number of functions compiled.
    pub functions: usize,
    /// Emitted machine-code bytes (0 for the interpreter).
    pub code_bytes: usize,
    /// Back-end-specific counters (e.g. FastISel fallback counts,
    /// paper Sec. V-B3).
    pub counters: BTreeMap<String, u64>,
}

impl CompileStats {
    /// Adds `n` to counter `name`.
    pub fn bump(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &CompileStats) {
        self.functions += other.functions;
        self.code_bytes += other.code_bytes;
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
    }
}

/// Executable form of one compiled module.
///
/// `Send` so the engine's compilation service can build executables on
/// worker threads and hand them back to the query thread.
pub trait Executable: Send {
    /// Calls the function `name` with 64-bit argument slots.
    ///
    /// # Errors
    /// Returns a [`Trap`] raised during execution.
    fn call(
        &mut self,
        state: &mut RuntimeState,
        name: &str,
        args: &[u64],
    ) -> Result<[u64; 2], Trap>;

    /// Cumulative deterministic execution statistics.
    fn exec_stats(&self) -> ExecStats;

    /// Compilation statistics.
    fn compile_stats(&self) -> &CompileStats;
}

/// A reusable compilation result: code generation is complete, linking
/// is not. [`CodeArtifact::link`] repeats only the link and
/// unwind-registration step, producing a fresh [`Executable`] — this is
/// what the engine's compile-result cache stores, so parameterized
/// re-runs of a query skip code generation entirely.
pub trait CodeArtifact: Send + Sync {
    /// Links a fresh executable from the artifact, recording the
    /// back-end's link phase into `trace` (Table I's `ld`, Fig. 2's
    /// `link`, Fig. 4's `finish`).
    ///
    /// # Errors
    /// Returns [`BackendError`] when linking fails (e.g. a runtime
    /// symbol disappeared; cannot normally happen for artifacts that
    /// linked once already).
    fn link(&self, trace: &TimeTrace) -> Result<Box<dyn Executable>, BackendError>;

    /// [`CodeArtifact::link`] without a trace.
    ///
    /// # Errors
    /// Same as [`CodeArtifact::link`].
    fn instantiate(&self) -> Result<Box<dyn Executable>, BackendError> {
        self.link(&TimeTrace::disabled())
    }

    /// Statistics of the original compilation.
    fn compile_stats(&self) -> &CompileStats;

    /// Approximate retained bytes, for cache accounting.
    fn size_bytes(&self) -> usize;

    /// Stable, position-independent serialization of the generated
    /// code, used by determinism tests to compare compilations without
    /// the linked image's embedded base address.
    fn content_bytes(&self) -> Vec<u8>;

    /// Serializes the artifact for the engine's persistent store, or
    /// `None` when this artifact kind cannot round-trip through bytes
    /// (e.g. interpreter executables that hold live bytecode tables).
    /// The default is `None`: persistence is strictly opt-in per
    /// artifact kind, and a non-serializable artifact simply stays
    /// memory-only.
    fn serialize(&self) -> Option<Vec<u8>> {
        None
    }
}

/// A query-compilation back-end.
///
/// `Send + Sync` so one back-end instance can compile a query's
/// independent pipeline modules on several worker threads at once (all
/// six frameworks the paper studies support threaded compilation).
pub trait Backend: Send + Sync {
    /// Short name as used in the paper's tables (e.g. `"DirectEmit"`).
    fn name(&self) -> &'static str;

    /// Target ISA of generated code.
    fn isa(&self) -> Isa;

    /// Distinguishes differently configured instances that share a
    /// [`Backend::name`] (e.g. the LVM ablation options) so the
    /// compile-result cache never serves code built under different
    /// options. Instances that always generate identical code may keep
    /// the default of 0.
    fn config_fingerprint(&self) -> u64 {
        0
    }

    /// Compiles one module to a cacheable, relinkable artifact — the
    /// only compile entry point. Phase timings up to (not including) the
    /// link go into `trace`; [`CodeArtifact::link`] records the rest.
    /// Every back-end in this workspace returns `Some`; the engine
    /// reports `None` as a permanent error (see [`compile_module`]).
    ///
    /// # Errors
    /// Returns [`BackendError`] for unsupported inputs (e.g. DirectEmit on
    /// irreducible control flow or a non-TX64 target).
    fn compile_artifact(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError>;
}

/// [`Backend::compile_artifact`] for callers that need the artifact: a
/// back-end answering `None` is a permanent error naming it.
///
/// # Errors
/// Propagates the back-end's [`BackendError`].
pub fn compile_module(
    backend: &dyn Backend,
    module: &Module,
    trace: &TimeTrace,
) -> Result<Box<dyn CodeArtifact>, BackendError> {
    backend
        .compile_artifact(module, trace)?
        .ok_or_else(|| BackendError::new(format!("{} produced no artifact", backend.name())))
}

/// The phase a [`NativeArtifact`]'s link records, named as in the
/// paper's breakdown of the back-end that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkPhase {
    /// `link` (DirectEmit, Fig. 5).
    Link,
    /// `finish` (Clift, Fig. 4): relocations applied after all
    /// functions are compiled.
    Finish,
    /// `ld` (GCC/C, Table I): the linker's relocation and load step.
    Ld,
    /// `link` split into ORC's four phases `phase1_alloc`,
    /// `phase2_resolve`, `phase3_apply` and `phase4_lookup` (LVM,
    /// Fig. 2).
    Orc,
}

impl LinkPhase {
    /// Every phase, indexed by its tag (`self as u64`) in the
    /// serialized artifact.
    const BY_TAG: [LinkPhase; 4] = [
        LinkPhase::Link,
        LinkPhase::Finish,
        LinkPhase::Ld,
        LinkPhase::Orc,
    ];

    /// The trace label.
    fn label(self) -> &'static str {
        match self {
            LinkPhase::Link | LinkPhase::Orc => "link",
            LinkPhase::Finish => "finish",
            LinkPhase::Ld => "ld",
        }
    }
}

/// ORC-style four-phase link of `builder` (LVM's JIT link, Fig. 2).
fn orc_link(builder: &ImageBuilder, trace: &TimeTrace) -> Result<CodeImage, LinkError> {
    {
        let _p = trace.scope("phase1_alloc");
        // Recover/prune symbols: hash every defined symbol name.
        let mut h = 0u64;
        for n in builder.function_names() {
            h = h.wrapping_mul(31).wrapping_add(n.len() as u64);
        }
        std::hint::black_box(h);
    }
    {
        let _p = trace.scope("phase2_resolve");
        for s in builder.external_symbols() {
            std::hint::black_box(resolve_runtime(s));
        }
    }
    let image = {
        let _p = trace.scope("phase3_apply");
        builder.clone().link(&resolve_runtime)?
    };
    {
        let _p = trace.scope("phase4_lookup");
        for n in builder.function_names() {
            std::hint::black_box(image.addr_of(n));
        }
    }
    Ok(image)
}

/// [`CodeArtifact`] for the compiling back-ends: an unlinked
/// [`ImageBuilder`], the original compile statistics, and the back-end's
/// [`LinkPhase`]. Linking clones the builder, links it against the
/// runtime resolver, and registers unwind information.
pub struct NativeArtifact {
    builder: ImageBuilder,
    stats: CompileStats,
    link_phase: LinkPhase,
}

impl NativeArtifact {
    /// Wraps an unlinked image whose link records `link_phase`.
    /// `stats.code_bytes` is recomputed from the linked image at each
    /// link.
    pub fn new(builder: ImageBuilder, stats: CompileStats, link_phase: LinkPhase) -> Self {
        NativeArtifact {
            builder,
            stats,
            link_phase,
        }
    }

    /// Restores an artifact from [`CodeArtifact::serialize`] output.
    ///
    /// # Errors
    /// Returns a [`BackendError`] for truncated or malformed input; the
    /// persistent store treats that as a corrupt file and recompiles.
    pub fn deserialize(bytes: &[u8]) -> Result<NativeArtifact, BackendError> {
        fn corrupt(what: &str) -> BackendError {
            BackendError::new(format!("corrupt artifact payload: {what}"))
        }
        fn take_slice<'a>(
            bytes: &'a [u8],
            at: &mut usize,
            len: u64,
        ) -> Result<&'a [u8], BackendError> {
            let len = usize::try_from(len).map_err(|_| corrupt("oversized field"))?;
            let end = at
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| corrupt("truncated field"))?;
            let s = &bytes[*at..end];
            *at = end;
            Ok(s)
        }
        fn take_u64(bytes: &[u8], at: &mut usize) -> Result<u64, BackendError> {
            let s = take_slice(bytes, at, 8).map_err(|_| corrupt("truncated length field"))?;
            Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
        }
        let mut at = 0usize;
        let builder_len = take_u64(bytes, &mut at)?;
        let builder_bytes = take_slice(bytes, &mut at, builder_len)?;
        let builder = ImageBuilder::deserialize_bytes(builder_bytes)
            .map_err(|e| BackendError::new(e.to_string()))?;
        let link_phase = usize::try_from(take_u64(bytes, &mut at)?)
            .ok()
            .and_then(|tag| LinkPhase::BY_TAG.get(tag).copied())
            .ok_or_else(|| corrupt("link phase"))?;
        let mut stats = CompileStats {
            functions: usize::try_from(take_u64(bytes, &mut at)?)
                .map_err(|_| corrupt("function count"))?,
            code_bytes: usize::try_from(take_u64(bytes, &mut at)?)
                .map_err(|_| corrupt("code byte count"))?,
            counters: BTreeMap::new(),
        };
        let n_counters = take_u64(bytes, &mut at)?;
        for _ in 0..n_counters {
            let name_len = take_u64(bytes, &mut at)?;
            let name = std::str::from_utf8(take_slice(bytes, &mut at, name_len)?)
                .map_err(|_| corrupt("non-UTF-8 counter name"))?
                .to_string();
            let value = take_u64(bytes, &mut at)?;
            stats.counters.insert(name, value);
        }
        if at != bytes.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(NativeArtifact::new(builder, stats, link_phase))
    }
}

impl fmt::Debug for NativeArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NativeArtifact(~{} bytes)", self.builder.approx_size())
    }
}

impl CodeArtifact for NativeArtifact {
    fn link(&self, trace: &TimeTrace) -> Result<Box<dyn Executable>, BackendError> {
        let linked = {
            let _t = trace.scope(self.link_phase.label());
            match self.link_phase {
                LinkPhase::Orc => orc_link(&self.builder, trace),
                _ => self.builder.clone().link(&resolve_runtime),
            }
        }
        .map_err(|e| BackendError::new(e.to_string()))?;
        let mut stats = self.stats.clone();
        stats.code_bytes = linked.len();
        Ok(Box::new(NativeExecutable::new(linked, stats)))
    }

    fn compile_stats(&self) -> &CompileStats {
        &self.stats
    }

    fn size_bytes(&self) -> usize {
        self.builder.approx_size()
    }

    fn content_bytes(&self) -> Vec<u8> {
        self.builder.content_bytes()
    }

    fn serialize(&self) -> Option<Vec<u8>> {
        let builder_bytes = self.builder.serialize_bytes();
        let mut out = Vec::with_capacity(builder_bytes.len() + 64);
        let push_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        push_u64(&mut out, builder_bytes.len() as u64);
        out.extend_from_slice(&builder_bytes);
        push_u64(&mut out, self.link_phase as u64);
        push_u64(&mut out, self.stats.functions as u64);
        push_u64(&mut out, self.stats.code_bytes as u64);
        push_u64(&mut out, self.stats.counters.len() as u64);
        for (name, value) in &self.stats.counters {
            push_u64(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            push_u64(&mut out, *value);
        }
        Some(out)
    }
}

/// [`Executable`] backed by emulated machine code (all compiling
/// back-ends).
pub struct NativeExecutable {
    emu: Emulator,
    stats: CompileStats,
}

impl fmt::Debug for NativeExecutable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NativeExecutable({} bytes)", self.emu.image().len())
    }
}

impl NativeExecutable {
    /// Wraps a linked image, registering its unwind information (the
    /// registration itself is part of what back-ends must produce; see
    /// paper Sec. III-A).
    pub fn new(image: CodeImage, stats: CompileStats) -> Self {
        let mut unwind = UnwindRegistry::new();
        unwind.register_image(&image);
        NativeExecutable {
            emu: Emulator::new(image),
            stats,
        }
    }

    /// The underlying image.
    pub fn image(&self) -> &CodeImage {
        self.emu.image()
    }
}

impl Executable for NativeExecutable {
    fn call(
        &mut self,
        state: &mut RuntimeState,
        name: &str,
        args: &[u64],
    ) -> Result<[u64; 2], Trap> {
        let mut host = EmuHost { state };
        self.emu.call(&mut host, name, args)
    }

    fn exec_stats(&self) -> ExecStats {
        self.emu.stats()
    }

    fn compile_stats(&self) -> &CompileStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::{FunctionBuilder, Signature, Type};
    use qc_target::{ImageBuilder, Tx64Assembler};

    #[test]
    fn compile_stats_merge_and_bump() {
        let mut a = CompileStats {
            functions: 1,
            code_bytes: 100,
            ..Default::default()
        };
        a.bump("fallbacks", 2);
        let mut b = CompileStats {
            functions: 2,
            code_bytes: 50,
            ..Default::default()
        };
        b.bump("fallbacks", 3);
        b.bump("other", 1);
        a.merge(&b);
        assert_eq!(a.functions, 3);
        assert_eq!(a.code_bytes, 150);
        assert_eq!(a.counters["fallbacks"], 5);
        assert_eq!(a.counters["other"], 1);
    }

    #[test]
    fn native_executable_runs_code() {
        let mut asm = Tx64Assembler::new();
        asm.alu_rr(
            qc_target::AluOp::Add,
            qc_target::Width::W64,
            false,
            qc_target::Reg(0),
            qc_target::Reg(1),
        );
        asm.ret();
        let (code, relocs) = asm.finish();
        let mut ib = ImageBuilder::new(Isa::Tx64);
        ib.add_function("f", code, relocs);
        let image = ib.link(&|_| None).unwrap();
        let mut exe = NativeExecutable::new(image, CompileStats::default());
        let mut state = RuntimeState::new();
        let r = exe.call(&mut state, "f", &[2, 40]).unwrap();
        assert_eq!(r[0], 42);
        assert!(exe.exec_stats().insts > 0);
    }

    #[test]
    fn native_artifact_serialize_roundtrip() {
        let mut asm = Tx64Assembler::new();
        asm.ret();
        let (code, relocs) = asm.finish();
        let mut ib = ImageBuilder::new(Isa::Tx64);
        ib.add_function("f", code, relocs);
        let mut stats = CompileStats {
            functions: 1,
            code_bytes: 0,
            ..Default::default()
        };
        stats.bump("isel_fallbacks", 3);
        let artifact = NativeArtifact::new(ib, stats, LinkPhase::Orc);
        let bytes = artifact.serialize().expect("native artifacts serialize");
        let back = NativeArtifact::deserialize(&bytes).expect("roundtrip");
        assert_eq!(artifact.content_bytes(), back.content_bytes());
        assert_eq!(back.compile_stats().functions, 1);
        assert_eq!(back.compile_stats().counters["isel_fallbacks"], 3);
        // The link-phase label round-trips: a traced link of the restored
        // artifact records LVM's ORC phases.
        let trace = TimeTrace::new();
        back.link(&trace).expect("traced link");
        let report = trace.report();
        for phase in [
            "link",
            "link/phase1_alloc",
            "link/phase2_resolve",
            "link/phase3_apply",
            "link/phase4_lookup",
        ] {
            assert_eq!(report.count(phase), 1, "{phase}");
        }
        // The restored artifact must still link and run.
        let mut exe = back.instantiate().expect("instantiate");
        let mut state = RuntimeState::new();
        exe.call(&mut state, "f", &[]).expect("call");
        // Corruption must be detected, not misparsed.
        for cut in [0, 7, bytes.len() - 1] {
            assert!(NativeArtifact::deserialize(&bytes[..cut]).is_err());
        }
    }

    /// An artifact using every part of the payload format: functions
    /// calling each other and a runtime helper, an absolute-address data
    /// item, unwind entries and counters.
    fn rich_artifact(isa: Isa, link_phase: LinkPhase) -> NativeArtifact {
        let mut ib = ImageBuilder::new(isa);
        for (name, callee) in [("g", "rt_throw_overflow"), ("f", "g")] {
            let mut masm = qc_target::new_masm(isa);
            masm.mov_sym(qc_target::Reg(1), qc_target::SymbolRef::named("pool"));
            masm.call_sym(qc_target::SymbolRef::named(callee));
            masm.ret();
            let (code, relocs) = masm.finish();
            let len = code.len();
            let off = ib.add_function(name, code, relocs);
            ib.add_unwind(
                off,
                qc_target::UnwindEntry {
                    start: 0,
                    end: len,
                    frame_size: 16,
                    synchronous_only: false,
                },
            );
        }
        ib.add_data(
            "pool",
            vec![0; 16],
            8,
            vec![qc_target::Reloc {
                offset: 8,
                kind: qc_target::RelocKind::Abs64,
                sym: qc_target::SymbolRef::named("f"),
                addend: 0,
            }],
        );
        let mut stats = CompileStats {
            functions: 2,
            ..Default::default()
        };
        stats.bump("calls", 2);
        NativeArtifact::new(ib, stats, link_phase)
    }

    /// Corrupt payloads that pass decoding must still link without
    /// panicking: decoding rejects relocation fields outside their item
    /// and unwind entries keyed by no item, and the link range-checks
    /// displacements. Fixed seed, so a failure reproduces.
    #[test]
    fn mutated_artifact_payloads_never_panic() {
        let mut rng = 0x5eed_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut decoded = 0;
        for (isa, phase) in [(Isa::Tx64, LinkPhase::Finish), (Isa::Ta64, LinkPhase::Orc)] {
            let bytes = rich_artifact(isa, phase).serialize().expect("serialize");
            NativeArtifact::deserialize(&bytes)
                .expect("intact payload decodes")
                .instantiate()
                .expect("intact payload links");
            for _ in 0..2000 {
                let mut mutant = bytes.clone();
                let edits: Vec<(usize, u8)> = (0..=next() % 4)
                    .map(|_| ((next() % bytes.len() as u64) as usize, next() as u8))
                    .collect();
                for &(at, byte) in &edits {
                    mutant[at] = byte;
                }
                let outcome = std::panic::catch_unwind(|| {
                    NativeArtifact::deserialize(&mutant).map(|a| {
                        let _ = a.instantiate();
                    })
                });
                match outcome {
                    Ok(result) => decoded += usize::from(result.is_ok()),
                    Err(_) => {
                        panic!("{isa:?} payload with (offset, byte) edits {edits:?} panicked")
                    }
                }
            }
        }
        // Mutants of bytes that are not validated (code, counters) still
        // decode, so the link path is exercised.
        assert!(decoded > 100, "only {decoded} mutants decoded");
    }

    #[test]
    fn backend_error_display() {
        let e = BackendError::new("irreducible control flow");
        assert!(e.to_string().contains("irreducible"));
    }

    // Referenced so the module type stays exercised even before back-ends
    // land; a trivial function must verify.
    #[test]
    fn ir_module_construction_sanity() {
        let mut b = FunctionBuilder::new("f", Signature::new(vec![], Type::Void));
        let e = b.entry_block();
        b.switch_to(e);
        b.ret(None);
        let mut m = Module::new("m");
        m.push_function(b.finish());
        qc_ir::verify_module(&m).unwrap();
    }
}
