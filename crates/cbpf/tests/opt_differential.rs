//! Differential property tests for the prepare-time optimizer and the
//! sharded map engine.
//!
//! The optimizer contract: for every program the verifier accepts, the
//! optimized prepared form is observationally identical to both the
//! unoptimized prepared form and the legacy interpreter — same return
//! value, same executed-instruction count, same context and map side
//! effects, same faults — at every budget. Each property here runs the
//! legacy interpreter and prepared programs (which execute the compiled
//! form, under the default optimizer, `OptConfig::none()` and each pass
//! in isolation) on the same inputs and demands bit-equality.
//!
//! The map engine contract: the lock-free sharded hash map is
//! linearizable to a plain `HashMap` model under the same capacity
//! rules.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use cbpf::ctx::{CtxLayout, FieldAccess};
use cbpf::error::{FaultKind, MapError, RunError};
use cbpf::fault::{FaultInjector, FaultPlan};
use cbpf::helpers::{FixedEnv, HelperId};
use cbpf::insn::{AluOp, Insn, JmpOp, MemSize, Operand, Reg};
use cbpf::interp::run_with_budget;
use cbpf::map::{Map, MapDef, MapKind};
use cbpf::opt::OptConfig;
use cbpf::program::Program;
use cbpf::verifier::verify;

const BUDGET: u64 = 1 << 16;

/// Optimizer configurations under test: the full default plus each pass
/// alone, all diffed against `OptConfig::none()` and the legacy
/// interpreter.
fn configs() -> [OptConfig; 4] {
    [
        OptConfig::default(),
        OptConfig {
            const_fold: true,
            ..OptConfig::none()
        },
        OptConfig {
            dead_store: true,
            ..OptConfig::none()
        },
        OptConfig {
            fuse: true,
            ..OptConfig::none()
        },
    ]
}

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

/// Arbitrary plausible instructions, biased like the verifier soundness
/// fuzzer (small jumps, stack-relative accesses, real helpers) so a
/// healthy fraction of generated programs verifies and the optimizer
/// sees folds, dead stores and fusable pairs.
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

/// `body` wrapped in a prologue that looks up `key` in `map` (map id 0)
/// and an epilogue returning 0.
fn map_program(name: &str, body: &[Insn], key: i32, map: Arc<Map>) -> Program {
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
    Program::new(name, insns, vec![map])
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

    /// Full budget: the optimized form (and every single-pass form)
    /// matches the unoptimized form and the legacy interpreter on
    /// report, return value, instruction count and context effects.
    #[test]
    fn optimized_matches_unoptimized_and_legacy(
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
            let legacy = run_with_budget(&prog, &mut ctx_legacy, &layout, &env, BUDGET);
            let mut ctx_unopt = fill_ctx(&layout, ctx_seed);
            let unopt = prog
                .prepare_with(&layout, OptConfig::none())
                .run(&mut ctx_unopt, &env, BUDGET);
            prop_assert_eq!(&legacy, &unopt, "unoptimized prepared diverges from legacy");
            prop_assert_eq!(&ctx_legacy, &ctx_unopt, "unoptimized context effects diverge");
            for cfg in configs() {
                let mut ctx_opt = fill_ctx(&layout, ctx_seed);
                let opt = prog.prepare_with(&layout, cfg).run(&mut ctx_opt, &env, BUDGET);
                prop_assert_eq!(&unopt, &opt, "optimizer {:?} changed the report", cfg);
                prop_assert_eq!(&ctx_unopt, &ctx_opt, "optimizer {:?} changed context effects", cfg);
            }
        }
    }

    /// Map programs: identical final map contents and env traces across
    /// legacy, unoptimized and every optimizer configuration.
    #[test]
    fn optimized_preserves_map_side_effects(
        body in proptest::collection::vec(insn_strategy(), 1..16),
        key in 0i32..4,
    ) {
        let map_legacy = seeded_map();
        let prog_legacy = map_program("fuzzmap", &body, key, Arc::clone(&map_legacy));
        if verify(&prog_legacy, &CtxLayout::empty()).is_ok() {
            let env_legacy = FixedEnv::new();
            let legacy =
                run_with_budget(&prog_legacy, &mut [], &CtxLayout::empty(), &env_legacy, BUDGET);
            let snap_legacy = map_snapshot(&map_legacy);

            let map_unopt = seeded_map();
            let env_unopt = FixedEnv::new();
            let unopt = map_program("fuzzmap", &body, key, Arc::clone(&map_unopt))
                .prepare_with(&CtxLayout::empty(), OptConfig::none())
                .run(&mut [], &env_unopt, BUDGET);
            prop_assert_eq!(&legacy, &unopt, "reports diverge");
            prop_assert_eq!(&snap_legacy, &map_snapshot(&map_unopt), "map effects diverge");
            prop_assert_eq!(env_legacy.traces(), env_unopt.traces(), "traces diverge");

            for cfg in configs() {
                let map_opt = seeded_map();
                let env_opt = FixedEnv::new();
                let opt = map_program("fuzzmap", &body, key, Arc::clone(&map_opt))
                    .prepare_with(&CtxLayout::empty(), cfg)
                    .run(&mut [], &env_opt, BUDGET);
                prop_assert_eq!(&unopt, &opt, "optimizer {:?} changed the report", cfg);
                prop_assert_eq!(
                    &snap_legacy,
                    &map_snapshot(&map_opt),
                    "optimizer {:?} changed map effects", cfg
                );
                prop_assert_eq!(env_legacy.traces(), env_opt.traces(), "traces diverge");
            }
        }
    }

    /// Tiny budgets: fused slots pre-charge their whole pair, so budget
    /// exhaustion fires at exactly the same point (and with the same
    /// partial side effects) as the unfused program, at every budget.
    #[test]
    fn optimized_budget_accounting_is_exact(
        prog in program_strategy(),
        budget in 0u64..24,
        ctx_seed in any::<u64>(),
    ) {
        let layout = test_layout();
        if verify(&prog, &layout).is_ok() {
            let env = FixedEnv::new();
            let mut ctx_legacy = fill_ctx(&layout, ctx_seed);
            let legacy = run_with_budget(&prog, &mut ctx_legacy, &layout, &env, budget);
            for cfg in configs() {
                let mut ctx_opt = fill_ctx(&layout, ctx_seed);
                let opt = prog.prepare_with(&layout, cfg).run(&mut ctx_opt, &env, budget);
                prop_assert_eq!(&legacy, &opt, "optimizer {:?} budget behavior diverges", cfg);
                prop_assert_eq!(&ctx_legacy, &ctx_opt, "optimizer {:?} partial effects diverge", cfg);
            }
        }
    }

    /// Every run executes the compiled form ([`cbpf::jit`]), which is
    /// observationally identical to the legacy interpreter on arbitrary
    /// verified programs: same report (value and executed-instruction
    /// count), same fault, same context mutations, at full budget.
    #[test]
    fn jit_matches_interp_report_and_ctx(
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
            let legacy = run_with_budget(&prog, &mut ctx_legacy, &layout, &env, BUDGET);
            let prepared = prog.prepare(&layout);
            let mut ctx_jit = fill_ctx(&layout, ctx_seed);
            let jit = prepared.run(&mut ctx_jit, &env, BUDGET);
            prop_assert!(prepared.jit_compiled(), "run did not execute the compiled form");
            prop_assert_eq!(&legacy, &jit, "jit report diverges from legacy");
            prop_assert_eq!(&ctx_legacy, &ctx_jit, "jit context effects diverge");
        }
    }

    /// Map programs: identical final map contents and env traces.
    /// Exercises the jit's region-tracked value access, constant-key
    /// lookup caching and RMW fusion against the legacy generic paths.
    #[test]
    fn jit_preserves_map_side_effects(
        body in proptest::collection::vec(insn_strategy(), 1..16),
        key in 0i32..4,
    ) {
        let map_legacy = seeded_map();
        let prog_legacy = map_program("fuzzjit", &body, key, Arc::clone(&map_legacy));
        if verify(&prog_legacy, &CtxLayout::empty()).is_ok() {
            let env_legacy = FixedEnv::new();
            let legacy =
                run_with_budget(&prog_legacy, &mut [], &CtxLayout::empty(), &env_legacy, BUDGET);

            let map_jit = seeded_map();
            let env_jit = FixedEnv::new();
            let jit = map_program("fuzzjit", &body, key, Arc::clone(&map_jit))
                .prepare(&CtxLayout::empty())
                .run(&mut [], &env_jit, BUDGET);
            prop_assert_eq!(&legacy, &jit, "jit report diverges");
            prop_assert_eq!(
                &map_snapshot(&map_legacy),
                &map_snapshot(&map_jit),
                "jit map effects diverge"
            );
            prop_assert_eq!(env_legacy.traces(), env_jit.traces(), "jit traces diverge");
        }
    }

    /// Tiny budgets: jit steps pre-charge whole pure-prefix groups, so
    /// exhaustion must fire at exactly the same budgets with the same
    /// partial context effects as the legacy interpreter.
    #[test]
    fn jit_budget_accounting_is_exact(
        prog in program_strategy(),
        budget in 0u64..24,
        ctx_seed in any::<u64>(),
    ) {
        let layout = test_layout();
        if verify(&prog, &layout).is_ok() {
            let env = FixedEnv::new();
            let mut ctx_legacy = fill_ctx(&layout, ctx_seed);
            let legacy = run_with_budget(&prog, &mut ctx_legacy, &layout, &env, budget);
            let mut ctx_jit = fill_ctx(&layout, ctx_seed);
            let jit = prog.prepare(&layout).run(&mut ctx_jit, &env, budget);
            prop_assert_eq!(&legacy, &jit, "jit budget behavior diverges");
            prop_assert_eq!(&ctx_legacy, &ctx_jit, "jit partial effects diverge");
        }
    }

    /// Deterministic fault injection does what the plan says: an inert
    /// plan leaves every run equal to the legacy oracle's; the trigger
    /// invocation fails with the plan's kind before touching any map or
    /// trace; and the injector counts exactly the injected errors the
    /// runs returned.
    #[test]
    fn jit_fault_injection_parity(
        body in proptest::collection::vec(insn_strategy(), 1..16),
        key in 0i32..4,
        seed in any::<u64>(),
        trigger in 1u64..8,
        per_mille in 0u16..1000,
        kind_ix in 0usize..4,
        invocations in 1usize..12,
    ) {
        let kind = FaultKind::ALL[kind_ix];
        let map_legacy = seeded_map();
        let prog_legacy = map_program("fuzzfault", &body, key, Arc::clone(&map_legacy));
        if verify(&prog_legacy, &CtxLayout::empty()).is_ok() {
            // Inert plan: run for run, the legacy result.
            let env_legacy = FixedEnv::new();
            let map_inert = seeded_map();
            let env_inert = FixedEnv::new();
            let inert = FaultInjector::new(FaultPlan::inert(seed));
            let prepared_inert =
                map_program("fuzzfault", &body, key, Arc::clone(&map_inert))
                    .prepare(&CtxLayout::empty());
            for _ in 0..invocations {
                let legacy = run_with_budget(
                    &prog_legacy, &mut [], &CtxLayout::empty(), &env_legacy, BUDGET,
                );
                let got = prepared_inert
                    .run_with_faults(&mut [], &env_inert, BUDGET, Some(&inert));
                prop_assert_eq!(&legacy, &got, "inert plan changed a run");
            }
            prop_assert_eq!(inert.injected(), 0);
            prop_assert_eq!(&map_snapshot(&map_legacy), &map_snapshot(&map_inert));
            prop_assert_eq!(env_legacy.traces(), env_inert.traces());

            // Armed plan: trigger plus helper-rate faults.
            let map = seeded_map();
            let env = FixedEnv::new();
            let inj = FaultInjector::new(FaultPlan {
                seed,
                fault_on_invocation: Some(trigger),
                repeat: false,
                helper_fault_per_mille: per_mille,
                kind,
            });
            let prepared =
                map_program("fuzzfault", &body, key, Arc::clone(&map)).prepare(&CtxLayout::empty());
            let mut errors = 0u64;
            for n in 1..=invocations as u64 {
                let (snap, traces) = (map_snapshot(&map), env.traces());
                let got = prepared.run_with_faults(&mut [], &env, BUDGET, Some(&inj));
                if n == trigger {
                    prop_assert_eq!(
                        got.as_ref().map_err(RunError::fault_kind),
                        Err(kind),
                        "trigger invocation must fail with the plan's kind"
                    );
                    prop_assert_eq!(&snap, &map_snapshot(&map), "trigger touched a map");
                    prop_assert_eq!(traces, env.traces(), "trigger emitted a trace");
                }
                // A verified, loop-free program cannot fault on its own
                // at this budget: every error is an injected one.
                errors += u64::from(got.is_err());
            }
            prop_assert_eq!(inj.injected(), errors, "injected count != injected errors");
        }
    }

    /// The sharded lock-free hash map is equivalent to a plain `HashMap`
    /// model under the same capacity rule, operation by operation
    /// (update/delete/lookup over a key space larger than capacity, so
    /// `Full`, `NoSuchKey` and tombstone-reuse paths all fire).
    #[test]
    fn sharded_hash_map_matches_model(
        ops in proptest::collection::vec((0u8..3, 0u32..12u32, any::<u64>()), 1..64),
    ) {
        const MAX: usize = 8;
        let map = Map::new(MapDef {
            name: "m".into(),
            kind: MapKind::Hash,
            key_size: 4,
            value_size: 8,
            max_entries: MAX,
        });
        let mut model: HashMap<u32, u64> = HashMap::new();
        for (op, key, val) in ops {
            let k = key.to_le_bytes();
            match op {
                0 => {
                    let got = map.update(&k, &val.to_le_bytes(), 0);
                    if model.contains_key(&key) || model.len() < MAX {
                        prop_assert_eq!(got, Ok(()));
                        model.insert(key, val);
                    } else {
                        prop_assert_eq!(got, Err(MapError::Full));
                    }
                }
                1 => {
                    let got = map.delete(&k);
                    if model.remove(&key).is_some() {
                        prop_assert_eq!(got, Ok(()));
                    } else {
                        prop_assert_eq!(got, Err(MapError::NoSuchKey));
                    }
                }
                _ => {
                    let got = map.lookup_copy(&k, 0);
                    let want = model.get(&key).map(|v| v.to_le_bytes().to_vec());
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(map.len(), model.len(), "live counts diverge");
        }
        let mut want: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .map(|(k, v)| (k.to_le_bytes().to_vec(), v.to_le_bytes().to_vec()))
            .collect();
        want.sort();
        prop_assert_eq!(map_snapshot(&map), want, "final contents diverge");
    }

    /// Concurrent updates from racing threads agree with the sequential
    /// model when the per-thread key sets are disjoint (each thread's
    /// writes land intact; no lost updates across shards).
    #[test]
    fn concurrent_disjoint_updates_match_model(
        per_thread in 1usize..24,
        seed in any::<u64>(),
    ) {
        const THREADS: u32 = 4;
        let map = Arc::new(Map::new(MapDef {
            name: "m".into(),
            kind: MapKind::Hash,
            key_size: 4,
            value_size: 8,
            max_entries: 512,
        }));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..per_thread as u32 {
                        let key = t * 1000 + i;
                        let val = seed ^ u64::from(key);
                        map.update(&key.to_le_bytes(), &val.to_le_bytes(), t).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(map.len(), per_thread * THREADS as usize);
        for t in 0..THREADS {
            for i in 0..per_thread as u32 {
                let key = t * 1000 + i;
                let want = (seed ^ u64::from(key)).to_le_bytes().to_vec();
                prop_assert_eq!(map.lookup_copy(&key.to_le_bytes(), 0), Some(want));
            }
        }
    }
}
