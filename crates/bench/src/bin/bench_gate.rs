//! Fast data-plane regression gate, run by `scripts/ci.sh`.
//!
//! On two `interp_micro` workloads — `alu_chain` (dispatch-bound) and
//! `map_mix` (map lookup + null check + read-modify-write, helper-bound)
//! — the runtime ([`cbpf::PreparedProgram::run`], which executes the
//! compiled [`cbpf::jit`] form) must stay above a per-workload floor of
//! speedup over the legacy interpreter, the differential oracle. The
//! full statistics live in the criterion benches; this is a coarse gate
//! so the wins can't silently regress.
//!
//! Skip with `C3_BENCH_GATE=0` (e.g. on loaded shared builders where
//! wall-clock ratios are noise).

use std::sync::Arc;
use std::time::Instant;

use cbpf::ctx::CtxLayout;
use cbpf::helpers::{FixedEnv, HelperId};
use cbpf::insn::{AluOp, JmpOp, MemSize, Reg};
use cbpf::interp::{run_with_budget, DEFAULT_BUDGET};
use cbpf::map::{Map, MapDef, MapKind};
use cbpf::program::{Program, ProgramBuilder};

// Minimum runtime-over-legacy speedups. Each is the product of the two
// floors it replaces, when a prepared interpreter sat between the legacy
// interpreter and the jit: 2.0× jit over prepared, times 2.32× prepared
// over legacy (the `alu_chain` ratio in `BENCH_interp.json` then) or the
// 1.3× `map_mix` prepared-over-legacy floor.
const ALU_CHAIN_FLOOR: f64 = 4.6;
const MAP_MIX_FLOOR: f64 = 2.6;
const ROUNDS: usize = 9;
const ITERS: u32 = 40_000;

fn map_mix_program() -> Program {
    let map = Arc::new(Map::new(MapDef {
        name: "counters".into(),
        kind: MapKind::Hash,
        key_size: 4,
        value_size: 8,
        max_entries: 8,
    }));
    map.update(&1u32.to_le_bytes(), &0u64.to_le_bytes(), 0)
        .unwrap();
    let mut b = ProgramBuilder::new("map_mix");
    let mid = b.register_map(map);
    b.ldmap(Reg::R1, mid);
    b.store_imm(MemSize::W, Reg::R10, -4, 1);
    b.mov(Reg::R2, Reg::R10);
    b.alu_imm(AluOp::Add, Reg::R2, -4);
    b.call(HelperId::MapLookup);
    b.jmp_imm(JmpOp::Eq, Reg::R0, 0, "miss");
    b.load(MemSize::Dw, Reg::R1, Reg::R0, 0);
    b.alu_imm(AluOp::Add, Reg::R1, 1);
    b.store(MemSize::Dw, Reg::R0, 0, Reg::R1);
    b.mov_imm(Reg::R0, 1);
    b.exit();
    b.label("miss");
    b.mov_imm(Reg::R0, 0);
    b.exit();
    b.build().unwrap()
}

fn alu_chain_program() -> Program {
    let mut b = ProgramBuilder::new("alu_chain");
    b.mov_imm(Reg::R0, 1);
    b.ld_imm64(Reg::R1, 0x9e37_79b9_7f4a_7c15);
    for i in 0..20 {
        b.alu(AluOp::Add, Reg::R0, Reg::R1);
        b.alu_imm(AluOp::Xor, Reg::R0, 0x5f5f + i);
        b.alu_imm(AluOp::Lsh, Reg::R0, 7);
        b.alu32_imm(AluOp::Mul, Reg::R0, 31);
    }
    b.store(MemSize::Dw, Reg::R10, -8, Reg::R0);
    b.load(MemSize::Dw, Reg::R0, Reg::R10, -8);
    b.exit();
    b.build().unwrap()
}

/// ns/run of `ITERS` back-to-back calls of `run`.
fn time(run: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..ITERS {
        run();
    }
    start.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

/// (legacy, runtime) ns/run: the minimum over `ROUNDS` rounds, each
/// round timing both engines back to back (in alternating order), so a
/// slow phase of a shared host lands on both rather than on one engine's
/// window. Min, not median: preemption noise is strictly additive, so
/// the minimum is the stable estimator of the undisturbed cost.
fn measure(prog: &Program, layout: &CtxLayout, env: &FixedEnv) -> (f64, f64) {
    let prepared = prog.prepare(layout);
    let mut legacy = || {
        run_with_budget(prog, &mut [], layout, env, DEFAULT_BUDGET).unwrap();
    };
    let mut runtime = || {
        prepared.run(&mut [], env, DEFAULT_BUDGET).unwrap();
    };
    for _ in 0..10_000 {
        legacy();
        runtime();
    }
    let (mut best_legacy, mut best_runtime) = (f64::INFINITY, f64::INFINITY);
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            best_legacy = best_legacy.min(time(&mut legacy));
            best_runtime = best_runtime.min(time(&mut runtime));
        } else {
            best_runtime = best_runtime.min(time(&mut runtime));
            best_legacy = best_legacy.min(time(&mut legacy));
        }
    }
    (best_legacy, best_runtime)
}

fn main() {
    if std::env::var("C3_BENCH_GATE").as_deref() == Ok("0") {
        println!("bench_gate: skipped (C3_BENCH_GATE=0)");
        return;
    }

    let layout = CtxLayout::empty();
    let env = FixedEnv::new().cpu(12).numa(1);
    let mut failed = false;
    for (name, floor, prog) in [
        ("alu_chain", ALU_CHAIN_FLOOR, alu_chain_program()),
        ("map_mix", MAP_MIX_FLOOR, map_mix_program()),
    ] {
        let (legacy, jit) = measure(&prog, &layout, &env);
        let ratio = legacy / jit;
        println!(
            "bench_gate: {name} legacy {legacy:.1} ns/run, jit {jit:.1} ns/run, \
             speedup {ratio:.2}x (floor {floor}x)"
        );
        if ratio < floor {
            eprintln!(
                "bench_gate: FAIL — jit {name} speedup {ratio:.2}x is below the {floor}x floor"
            );
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!("bench_gate: OK");
}
