//! Property-based differential testing: arbitrary straight-line arithmetic
//! functions must behave identically on the interpreter (oracle) and every
//! compiling back-end, including trap behavior.

use proptest::prelude::*;
use qc_backend::{compile_module, Backend};
use qc_engine::backends;
use qc_ir::{CmpOp, FunctionBuilder, Module, Opcode, Signature, Type};
use qc_runtime::RuntimeState;
use qc_target::Isa;
use qc_timing::TimeTrace;

#[derive(Debug, Clone)]
enum Op {
    Const(i64),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    AddTrap(usize, usize),
    Xor(usize, usize),
    Shl(usize, usize),
    RotR(usize, usize),
    Crc(usize, usize),
    LmF(usize, usize),
    CmpLt(usize, usize),
    Select(usize, usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<i64>().prop_map(Op::Const),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Add(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Sub(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Mul(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::AddTrap(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Xor(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Shl(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::RotR(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Crc(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::LmF(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::CmpLt(a, b)),
        (0usize..8, 0usize..8, 0usize..8).prop_map(|(c, a, b)| Op::Select(c, a, b)),
    ]
}

fn build_module(ops: &[Op], x: i64, y: i64) -> Module {
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let e = b.entry_block();
    b.switch_to(e);
    let mut vals = vec![b.param(0), b.param(1)];
    let _ = (x, y);
    for op in ops {
        let pick = |i: usize| vals[i % vals.len()];
        let v = match op.clone() {
            Op::Const(c) => b.iconst(Type::I64, c as i128),
            Op::Add(a2, b2) => b.add(Type::I64, pick(a2), pick(b2)),
            Op::Sub(a2, b2) => b.sub(Type::I64, pick(a2), pick(b2)),
            Op::Mul(a2, b2) => b.mul(Type::I64, pick(a2), pick(b2)),
            Op::AddTrap(a2, b2) => b.binary(Opcode::SAddTrap, Type::I64, pick(a2), pick(b2)),
            Op::Xor(a2, b2) => b.binary(Opcode::Xor, Type::I64, pick(a2), pick(b2)),
            Op::Shl(a2, b2) => b.binary(Opcode::Shl, Type::I64, pick(a2), pick(b2)),
            Op::RotR(a2, b2) => b.binary(Opcode::RotR, Type::I64, pick(a2), pick(b2)),
            Op::Crc(a2, b2) => b.crc32(pick(a2), pick(b2)),
            Op::LmF(a2, b2) => b.long_mul_fold(pick(a2), pick(b2)),
            Op::CmpLt(a2, b2) => {
                let c = b.icmp(CmpOp::SLt, Type::I64, pick(a2), pick(b2));
                b.zext(Type::I64, c)
            }
            Op::Select(c2, a2, b2) => {
                let zero = b.iconst(Type::I64, 0);
                let c = b.icmp(CmpOp::Ne, Type::I64, pick(c2), zero);
                b.select(Type::I64, c, pick(a2), pick(b2))
            }
        };
        vals.push(v);
    }
    let last = *vals.last().expect("values");
    b.ret(Some(last));
    let mut m = Module::new("m");
    m.push_function(b.finish());
    m
}

fn run_backend(backend: &dyn Backend, m: &Module, x: i64, y: i64) -> Result<u64, String> {
    let mut exe = compile_module(backend, m, &TimeTrace::disabled())
        .and_then(|a| a.instantiate())
        .map_err(|e| e.to_string())?;
    let mut state = RuntimeState::new();
    exe.call(&mut state, "f", &[x as u64, y as u64])
        .map(|r| r[0])
        .map_err(|t| format!("trap: {t}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn straightline_functions_agree(
        ops in prop::collection::vec(op_strategy(), 1..24),
        x in any::<i64>(),
        y in any::<i64>(),
    ) {
        let m = build_module(&ops, x, y);
        qc_ir::verify_module(&m).expect("valid module");
        let oracle = run_backend(backends::interpreter().as_ref(), &m, x, y);
        let oracle_trap = oracle.is_err();
        let mut all: Vec<Box<dyn Backend>> = vec![backends::direct_emit()];
        for isa in [Isa::Tx64, Isa::Ta64] {
            all.push(backends::clift(isa));
            all.push(backends::lvm_cheap(isa));
            all.push(backends::lvm_opt(isa));
            all.push(backends::cgen(isa));
        }
        for backend in all {
            let got = run_backend(backend.as_ref(), &m, x, y);
            match (&oracle, &got) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{} value mismatch", backend.name()),
                (Err(_), Err(_)) => {} // both trapped (overflow)
                _ => prop_assert!(
                    false,
                    "{}: oracle trap={} got {:?}",
                    backend.name(),
                    oracle_trap,
                    got
                ),
            }
        }
    }
}
