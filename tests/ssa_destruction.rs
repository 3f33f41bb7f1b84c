//! SSA-destruction edge cases on every back-end: parallel copies on
//! critical edges are where phi lowering classically goes wrong (the
//! "swap" and "lost copy" problems). Each function's expected value is
//! computed directly in Rust.

use qc_backend::{compile_module, Backend};
use qc_engine::backends;
use qc_ir::{CmpOp, FunctionBuilder, Module, Signature, Type};
use qc_runtime::RuntimeState;
use qc_target::Isa;
use qc_timing::TimeTrace;

fn all_backends() -> Vec<Box<dyn Backend>> {
    let mut v = backends::all_for(Isa::Tx64);
    v.extend(backends::all_for(Isa::Ta64));
    v
}

fn run_all(m: &Module, args: &[u64], expected: u64) {
    qc_ir::verify_module(m).expect("verify");
    for backend in all_backends() {
        let mut exe = compile_module(backend.as_ref(), m, &TimeTrace::disabled())
            .and_then(|a| a.instantiate())
            .expect("compile");
        let mut state = RuntimeState::new();
        let got = exe
            .call(&mut state, "f", args)
            .unwrap_or_else(|t| panic!("{}: trapped: {t}", backend.name()));
        assert_eq!(got[0], expected, "{} wrong result", backend.name());
    }
}

/// `for _ in 0..n { (a, b) = (b, a) }` — the phi swap problem: both phis
/// read each other's previous value, so naive sequential copies on the
/// back edge corrupt one of them.
#[test]
fn phi_swap_loop() {
    let sig = Signature::new(vec![Type::I64, Type::I64, Type::I64], Type::I64);
    let mut bd = FunctionBuilder::new("f", sig);
    let entry = bd.entry_block();
    let lp = bd.create_block();
    let exit = bd.create_block();
    bd.switch_to(entry);
    let a0 = bd.param(0);
    let b0 = bd.param(1);
    let n = bd.param(2);
    let zero = bd.iconst(Type::I64, 0);
    bd.jump(lp);
    bd.switch_to(lp);
    let i = bd.phi(Type::I64, vec![(entry, zero)]);
    let a = bd.phi(Type::I64, vec![(entry, a0)]);
    let b = bd.phi(Type::I64, vec![(entry, b0)]);
    bd.phi_add_incoming(a, lp, b);
    bd.phi_add_incoming(b, lp, a);
    let one = bd.iconst(Type::I64, 1);
    let i2 = bd.add(Type::I64, i, one);
    bd.phi_add_incoming(i, lp, i2);
    let c = bd.icmp(CmpOp::SLt, Type::I64, i2, n);
    bd.branch(c, lp, exit);
    bd.switch_to(exit);
    // After the loop: a holds the value as of the last *entry* to the
    // loop body; returning a*3+b distinguishes the orderings.
    let three = bd.iconst(Type::I64, 3);
    let a3 = bd.mul(Type::I64, a, three);
    let r = bd.add(Type::I64, a3, b);
    bd.ret(Some(r));
    let mut m = Module::new("m");
    m.push_function(bd.finish());

    let model = |a0: i64, b0: i64, n: i64| -> i64 {
        let (mut a, mut b) = (a0, b0);
        let mut i = 0;
        loop {
            // phis are as-of block entry; the swap takes effect on the
            // next iteration.
            i += 1;
            if i >= n {
                return a.wrapping_mul(3).wrapping_add(b);
            }
            std::mem::swap(&mut a, &mut b);
        }
    };
    for (a0, b0, n) in [(7i64, 11i64, 1i64), (7, 11, 2), (7, 11, 5), (-3, 9, 8)] {
        let expected = model(a0, b0, n) as u64;
        run_all(&m, &[a0 as u64, b0 as u64, n as u64], expected);
    }
}

/// Three-way rotation `(a, b, c) = (c, a, b)` — a parallel-copy cycle of
/// length 3 that needs a temporary regardless of copy order.
#[test]
fn phi_rotate3_loop() {
    let sig = Signature::new(vec![Type::I64, Type::I64, Type::I64], Type::I64);
    let mut bd = FunctionBuilder::new("f", sig);
    let entry = bd.entry_block();
    let lp = bd.create_block();
    let exit = bd.create_block();
    bd.switch_to(entry);
    let a0 = bd.param(0);
    let b0 = bd.param(1);
    let n = bd.param(2);
    let c0 = bd.iconst(Type::I64, 1000);
    let zero = bd.iconst(Type::I64, 0);
    bd.jump(lp);
    bd.switch_to(lp);
    let i = bd.phi(Type::I64, vec![(entry, zero)]);
    let a = bd.phi(Type::I64, vec![(entry, a0)]);
    let b = bd.phi(Type::I64, vec![(entry, b0)]);
    let c = bd.phi(Type::I64, vec![(entry, c0)]);
    bd.phi_add_incoming(a, lp, c);
    bd.phi_add_incoming(b, lp, a);
    bd.phi_add_incoming(c, lp, b);
    let one = bd.iconst(Type::I64, 1);
    let i2 = bd.add(Type::I64, i, one);
    bd.phi_add_incoming(i, lp, i2);
    let cond = bd.icmp(CmpOp::SLt, Type::I64, i2, n);
    bd.branch(cond, lp, exit);
    bd.switch_to(exit);
    // a + 10*b + 100*c pins each slot.
    let ten = bd.iconst(Type::I64, 10);
    let hundred = bd.iconst(Type::I64, 100);
    let tb = bd.mul(Type::I64, b, ten);
    let hc = bd.mul(Type::I64, c, hundred);
    let s1 = bd.add(Type::I64, a, tb);
    let r = bd.add(Type::I64, s1, hc);
    bd.ret(Some(r));
    let mut m = Module::new("m");
    m.push_function(bd.finish());

    let model = |a0: i64, b0: i64, n: i64| -> i64 {
        let (mut a, mut b, mut c) = (a0, b0, 1000i64);
        let mut i = 0;
        loop {
            i += 1;
            if i >= n {
                return a + 10 * b + 100 * c;
            }
            let (na, nb, nc) = (c, a, b);
            a = na;
            b = nb;
            c = nc;
        }
    };
    for (a0, b0, n) in [
        (1i64, 2i64, 1i64),
        (1, 2, 2),
        (1, 2, 3),
        (1, 2, 4),
        (5, -6, 9),
    ] {
        run_all(
            &m,
            &[a0 as u64, b0 as u64, n as u64],
            model(a0, b0, n) as u64,
        );
    }
}

/// The "lost copy" problem: the phi's result is live past the back edge
/// that also redefines it, so the copy inserted on the edge must not
/// clobber the value still needed after the loop.
#[test]
fn lost_copy_problem() {
    let sig = Signature::new(vec![Type::I64], Type::I64);
    let mut bd = FunctionBuilder::new("f", sig);
    let entry = bd.entry_block();
    let lp = bd.create_block();
    let exit = bd.create_block();
    bd.switch_to(entry);
    let n = bd.param(0);
    let zero = bd.iconst(Type::I64, 0);
    bd.jump(lp);
    bd.switch_to(lp);
    let i = bd.phi(Type::I64, vec![(entry, zero)]);
    let one = bd.iconst(Type::I64, 1);
    let i2 = bd.add(Type::I64, i, one);
    bd.phi_add_incoming(i, lp, i2);
    let c = bd.icmp(CmpOp::SLt, Type::I64, i2, n);
    bd.branch(c, lp, exit);
    bd.switch_to(exit);
    // Return the phi (pre-increment) value: its live range crosses the
    // back-edge copy `i <- i2`.
    bd.ret(Some(i));
    let mut m = Module::new("m");
    m.push_function(bd.finish());
    for n in [1i64, 2, 7, 100] {
        let expected = (n - 1).max(0) as u64; // last value of i at block entry
        run_all(&m, &[n as u64], expected);
    }
}

/// Phis whose incoming value is another phi of the same block: the
/// parallel copy must read the *old* value of the other phi, not the one
/// just written (chained dependency, not a cycle).
#[test]
fn phi_chain_dependency() {
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
    let mut bd = FunctionBuilder::new("f", sig);
    let entry = bd.entry_block();
    let lp = bd.create_block();
    let exit = bd.create_block();
    bd.switch_to(entry);
    let x = bd.param(0);
    let n = bd.param(1);
    let zero = bd.iconst(Type::I64, 0);
    bd.jump(lp);
    bd.switch_to(lp);
    let i = bd.phi(Type::I64, vec![(entry, zero)]);
    let a = bd.phi(Type::I64, vec![(entry, x)]);
    let b = bd.phi(Type::I64, vec![(entry, zero)]);
    // b <- a (old), a <- a+1: b must receive a's previous value.
    bd.phi_add_incoming(b, lp, a);
    let one = bd.iconst(Type::I64, 1);
    let a2 = bd.add(Type::I64, a, one);
    bd.phi_add_incoming(a, lp, a2);
    let i2 = bd.add(Type::I64, i, one);
    bd.phi_add_incoming(i, lp, i2);
    let c = bd.icmp(CmpOp::SLt, Type::I64, i2, n);
    bd.branch(c, lp, exit);
    bd.switch_to(exit);
    let k = bd.iconst(Type::I64, 1_000_000);
    let ak = bd.mul(Type::I64, a, k);
    let r = bd.add(Type::I64, ak, b);
    bd.ret(Some(r));
    let mut m = Module::new("m");
    m.push_function(bd.finish());

    let model = |x: i64, n: i64| -> i64 {
        let (mut a, mut b) = (x, 0i64);
        let mut i = 0;
        loop {
            i += 1;
            if i >= n {
                return a * 1_000_000 + b;
            }
            let (na, nb) = (a + 1, a);
            a = na;
            b = nb;
        }
    };
    for (x, n) in [(5i64, 1i64), (5, 2), (5, 3), (42, 10)] {
        run_all(&m, &[x as u64, n as u64], model(x, n) as u64);
    }
}
