//! Differential property tests: prepared programs (which execute the
//! compiled jit form) must be observationally identical to the legacy
//! interpreter on every program the verifier accepts — same return
//! value, same executed-instruction count, same context side effects,
//! same map effects, and the same faults under a constrained budget.

use std::sync::Arc;

use proptest::prelude::*;

use cbpf::ctx::{CtxLayout, FieldAccess};
use cbpf::helpers::{FixedEnv, HelperId};
use cbpf::insn::{AluOp, Insn, JmpOp, MemSize, Operand, Reg};
use cbpf::interp::run_with_budget;
use cbpf::map::{Map, MapDef, MapKind};
use cbpf::program::Program;
use cbpf::verifier::verify;

const BUDGET: u64 = 1 << 16;

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..=10).prop_map(Reg)
}

fn alu_op_strategy() -> impl Strategy<Value = AluOp> {
    proptest::sample::select(AluOp::ALL.to_vec())
}

fn jmp_op_strategy() -> impl Strategy<Value = JmpOp> {
    proptest::sample::select(JmpOp::ALL.to_vec())
}

fn mem_size_strategy() -> impl Strategy<Value = MemSize> {
    proptest::sample::select(vec![MemSize::B, MemSize::H, MemSize::W, MemSize::Dw])
}

fn operand_strategy() -> impl Strategy<Value = Operand> {
    prop_oneof![
        reg_strategy().prop_map(Operand::Reg),
        (-64i32..64).prop_map(Operand::Imm),
    ]
}

/// Arbitrary plausible instructions (same bias as the verifier soundness
/// fuzzer: small jumps, stack-relative accesses, real helpers).
fn insn_strategy() -> impl Strategy<Value = Insn> {
    prop_oneof![
        (
            any::<bool>(),
            alu_op_strategy(),
            reg_strategy(),
            operand_strategy()
        )
            .prop_map(|(wide, op, dst, src)| Insn::Alu {
                wide,
                op,
                dst,
                src: if op == AluOp::Neg {
                    Operand::Imm(0)
                } else {
                    src
                },
            }),
        (reg_strategy(), any::<u64>()).prop_map(|(dst, imm)| Insn::LdImm64 { dst, imm }),
        (
            mem_size_strategy(),
            reg_strategy(),
            reg_strategy(),
            (-72i16..16)
        )
            .prop_map(|(size, dst, base, off)| Insn::Load {
                size,
                dst,
                base,
                off
            }),
        (
            mem_size_strategy(),
            reg_strategy(),
            (-72i16..16),
            operand_strategy()
        )
            .prop_map(|(size, base, off, src)| Insn::Store {
                size,
                base,
                off,
                src
            }),
        (-4i16..8).prop_map(|off| Insn::Ja { off }),
        (
            jmp_op_strategy(),
            reg_strategy(),
            operand_strategy(),
            (-4i16..8)
        )
            .prop_map(|(op, dst, src, off)| Insn::Jmp { op, dst, src, off }),
        prop_oneof![Just(4u32), Just(5), Just(6), Just(7), Just(8)]
            .prop_map(|helper| Insn::Call { helper }),
        Just(Insn::Exit),
    ]
}

fn clamp_jumps(insns: Vec<Insn>) -> Vec<Insn> {
    let len = insns.len();
    insns
        .into_iter()
        .enumerate()
        .map(|(pc, i)| match i {
            Insn::Ja { off } => {
                let t = (pc as i64 + 1 + i64::from(off)).clamp(0, len as i64);
                Insn::Ja {
                    off: (t - pc as i64 - 1) as i16,
                }
            }
            Insn::Jmp { op, dst, src, off } => {
                let t = (pc as i64 + 1 + i64::from(off)).clamp(0, len as i64);
                Insn::Jmp {
                    op,
                    dst,
                    src,
                    off: (t - pc as i64 - 1) as i16,
                }
            }
            other => other,
        })
        .collect()
}

fn program_strategy() -> impl Strategy<Value = Program> {
    proptest::collection::vec(insn_strategy(), 1..24).prop_map(|mut insns| {
        insns.insert(
            0,
            Insn::Alu {
                wide: true,
                op: AluOp::Mov,
                dst: Reg::R0,
                src: Operand::Imm(0),
            },
        );
        insns.push(Insn::Exit);
        Program::new("fuzz", clamp_jumps(insns), Vec::new())
    })
}

fn test_layout() -> CtxLayout {
    CtxLayout::builder()
        .field("a", 8, FieldAccess::ReadOnly)
        .field("b", 4, FieldAccess::ReadOnly)
        .field("out", 8, FieldAccess::ReadWrite)
        .build()
}

fn fill_ctx(layout: &CtxLayout, seed: u64) -> Vec<u8> {
    let mut ctx = vec![0u8; layout.size()];
    for (i, b) in ctx.iter_mut().enumerate() {
        *b = (seed.rotate_left((i as u32 * 7) % 63) & 0xff) as u8;
    }
    ctx
}

fn seeded_map() -> Arc<Map> {
    let map = Arc::new(Map::new(MapDef {
        name: "m".into(),
        kind: MapKind::Hash,
        key_size: 4,
        value_size: 8,
        max_entries: 4,
    }));
    map.update(&0u32.to_le_bytes(), &7u64.to_le_bytes(), 0)
        .unwrap();
    map.update(&2u32.to_le_bytes(), &9u64.to_le_bytes(), 0)
        .unwrap();
    map
}

fn map_snapshot(map: &Map) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut entries: Vec<_> = map
        .keys()
        .into_iter()
        .map(|k| {
            let v = map.lookup_copy(&k, 0).unwrap();
            (k, v)
        })
        .collect();
    entries.sort();
    entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Accepted programs produce identical `RunReport`s (value and insn
    /// count) and identical context side effects on both engines, across
    /// arbitrary environments and context contents.
    #[test]
    fn prepared_matches_legacy(
        prog in program_strategy(),
        cpu in 0u32..128,
        numa in 0u32..8,
        time in any::<u64>(),
        pid in any::<u64>(),
        ctx_seed in any::<u64>(),
    ) {
        let layout = test_layout();
        if verify(&prog, &layout).is_ok() {
            let env = FixedEnv::new().cpu(cpu).numa(numa).time(time).with_pid(pid);
            let mut ctx_legacy = fill_ctx(&layout, ctx_seed);
            let mut ctx_prepared = ctx_legacy.clone();
            let legacy = run_with_budget(&prog, &mut ctx_legacy, &layout, &env, BUDGET);
            let prepared = prog.prepare(&layout).run(&mut ctx_prepared, &env, BUDGET);
            prop_assert_eq!(&legacy, &prepared, "reports diverge");
            prop_assert_eq!(ctx_legacy, ctx_prepared, "context effects diverge");
        }
    }

    /// Accepted map programs leave both engines' maps in identical states
    /// and agree on the report, including env traces.
    #[test]
    fn prepared_matches_legacy_with_maps(
        body in proptest::collection::vec(insn_strategy(), 1..16),
        key in 0i32..4,
    ) {
        let build = |map: Arc<Map>| {
            let mut insns = vec![
                Insn::LdMapRef { dst: Reg::R1, map_id: 0 },
                Insn::Store { size: MemSize::W, base: Reg::R10, off: -4, src: Operand::Imm(key) },
                Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R2, src: Operand::Reg(Reg::R10) },
                Insn::Alu { wide: true, op: AluOp::Add, dst: Reg::R2, src: Operand::Imm(-4) },
                Insn::Call { helper: HelperId::MapLookup as u32 },
            ];
            insns.extend(body.iter().cloned());
            insns.push(Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R0, src: Operand::Imm(0) });
            insns.push(Insn::Exit);
            Program::new("fuzzmap", insns, vec![map])
        };
        let map_legacy = seeded_map();
        let map_prepared = seeded_map();
        let prog_legacy = build(Arc::clone(&map_legacy));
        let prog_prepared = build(Arc::clone(&map_prepared));
        if verify(&prog_legacy, &CtxLayout::empty()).is_ok() {
            let env_legacy = FixedEnv::new();
            let env_prepared = FixedEnv::new();
            let legacy =
                run_with_budget(&prog_legacy, &mut [], &CtxLayout::empty(), &env_legacy, BUDGET);
            let prepared = prog_prepared
                .prepare(&CtxLayout::empty())
                .run(&mut [], &env_prepared, BUDGET);
            prop_assert_eq!(&legacy, &prepared, "reports diverge");
            prop_assert_eq!(
                map_snapshot(&map_legacy),
                map_snapshot(&map_prepared),
                "map effects diverge"
            );
            prop_assert_eq!(env_legacy.traces(), env_prepared.traces(), "traces diverge");
        }
    }

    /// `trace_emit` charges its fixed weight identically on both engines
    /// at *every* budget: same `RunReport::insns`, same `BudgetExhausted`
    /// boundary, same captured payloads. This is what keeps figure CSVs
    /// byte-identical when tracing is disarmed — the weight never depends
    /// on the telemetry plane's armed state.
    #[test]
    fn trace_emit_weight_is_identical_on_both_engines(
        len in 1i32..=16,
        fill in any::<u64>(),
        budget in 0u64..32,
    ) {
        let insns = vec![
            Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R0, src: Operand::Imm(0) },
            Insn::LdImm64 { dst: Reg::R3, imm: fill },
            Insn::Store { size: MemSize::Dw, base: Reg::R10, off: -16, src: Operand::Reg(Reg::R3) },
            Insn::Store { size: MemSize::Dw, base: Reg::R10, off: -8, src: Operand::Reg(Reg::R3) },
            Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R1, src: Operand::Reg(Reg::R10) },
            Insn::Alu { wide: true, op: AluOp::Add, dst: Reg::R1, src: Operand::Imm(-16) },
            Insn::Alu { wide: true, op: AluOp::Mov, dst: Reg::R2, src: Operand::Imm(len) },
            Insn::Call { helper: HelperId::TraceEmit as u32 },
            Insn::Exit,
        ];
        let prog = Program::new("emit", insns, Vec::new());
        prop_assert!(verify(&prog, &CtxLayout::empty()).is_ok());
        let env_legacy = FixedEnv::new();
        let env_prepared = FixedEnv::new();
        let legacy = run_with_budget(&prog, &mut [], &CtxLayout::empty(), &env_legacy, budget);
        let prepared = prog
            .prepare(&CtxLayout::empty())
            .run(&mut [], &env_prepared, budget);
        prop_assert_eq!(&legacy, &prepared, "trace_emit budget accounting diverges");
        prop_assert_eq!(env_legacy.emits(), env_prepared.emits(), "payloads diverge");
        // 8 unit-weight instructions + TRACE_EMIT_WEIGHT for the call.
        let full_cost = 8 + u64::from(cbpf::helpers::TRACE_EMIT_WEIGHT);
        if budget >= full_cost {
            let report = legacy.expect("enough budget");
            prop_assert_eq!(report.insns, full_cost);
            prop_assert_eq!(report.ret, 0);
            let expect = fill.to_le_bytes().repeat(2)[..len as usize].to_vec();
            prop_assert_eq!(env_legacy.emits(), vec![expect]);
        } else {
            prop_assert!(legacy.is_err(), "must exhaust below the fixed cost");
        }
    }

    /// With a budget too small to finish, both engines fail with the same
    /// `BudgetExhausted` at the same point (the prepared loop keeps the
    /// budget-before-fetch ordering).
    #[test]
    fn budget_semantics_match(
        prog in program_strategy(),
        budget in 0u64..24,
        ctx_seed in any::<u64>(),
    ) {
        let layout = test_layout();
        if verify(&prog, &layout).is_ok() {
            let env = FixedEnv::new();
            let mut ctx_legacy = fill_ctx(&layout, ctx_seed);
            let mut ctx_prepared = ctx_legacy.clone();
            let legacy = run_with_budget(&prog, &mut ctx_legacy, &layout, &env, budget);
            let prepared = prog.prepare(&layout).run(&mut ctx_prepared, &env, budget);
            prop_assert_eq!(&legacy, &prepared, "budget behavior diverges");
            prop_assert_eq!(ctx_legacy, ctx_prepared, "partial context effects diverge");
        }
    }
}
