//! Prepare-time program optimizer.
//!
//! Runs inside [`crate::program::Program::prepare`], after verification,
//! on the lowered instruction form. Three pass groups, each individually
//! switchable through [`OptConfig`]:
//!
//! 1. **Constant folding** (per basic block): a small provenance lattice
//!    tracks registers that hold compile-time constants — immediates, the
//!    frame pointer, map references, and the zeros helper calls leave in
//!    `r1`–`r5`. Fully-constant ALU results rewrite to `ldimm64`,
//!    constant conditional jumps rewrite to an unconditional jump or a
//!    [`PInsn::Nop`], and constant register operands rewrite to
//!    immediates.
//! 2. **Dead-code elimination**: instructions unreachable from the entry
//!    are neutralized to `Nop` in place (numbering is never changed, so
//!    jump targets and fault attribution survive), and stores to stack
//!    bytes no instruction can read are dropped. The read-set is a global
//!    over-approximation — if any load or helper buffer argument has an
//!    unknown base, *all* store elimination is abandoned.
//! 3. **Superinstruction fusion**: adjacent pairs that can retire under
//!    a single dispatch — ALU/ALU, load/load, and the
//!    hot `map_lookup` + null-branch idiom — fuse into the wide opcodes
//!    [`PInsn::Alu2`], [`PInsn::Load2`] and [`PInsn::CallMapLookupBr`].
//!    A pair only fuses when its second slot is not a jump target.
//!
//! Every replacement preserves the executed-instruction count through the
//! weight table: folded and eliminated instructions still charge 1 (they
//! stand where an instruction stood), a fused slot charges 2 and its dead
//! second slot 0. Together with the budget pre-charge at every jit step
//! this makes the optimized program observationally identical to the
//! unoptimized one — same results, same side effects, same faults, same
//! `RunReport::insns` — at **every** budget, for every program the
//! verifier accepts. (Like the rest of the prepared form, the passes
//! trust the verifier: programs it would reject may observe differences,
//! e.g. reads of helper-clobbered registers fold to the zeros the
//! runtime defines them to.)

use std::sync::Arc;

use crate::insn::{AluOp, STACK_SIZE};
use crate::interp::{fold32, fold64};
use crate::map::Map;
use crate::prepare::{
    ptr, ptr_index, ptr_off, ptr_tag, MapOp, PInsn, PSrc, TAG_MAPREF, TAG_STACK,
};

/// Pass switches for [`crate::program::Program::prepare_with`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OptConfig {
    /// Per-basic-block constant folding.
    pub const_fold: bool,
    /// Unreachable-code neutralization and dead stack-store elimination.
    pub dead_store: bool,
    /// Superinstruction fusion.
    pub fuse: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            const_fold: true,
            dead_store: true,
            fuse: true,
        }
    }
}

impl OptConfig {
    /// All passes off: `prepare_with(layout, OptConfig::none())` is the
    /// plain lowering, the baseline differential tests compare against.
    pub fn none() -> Self {
        OptConfig {
            const_fold: false,
            dead_store: false,
            fuse: false,
        }
    }
}

/// Optimizes lowered code in place. `code` excludes the `Halt` sentinel
/// (prepare appends it afterwards); `weights` is parallel to `code` and
/// all-ones on entry. Instruction count and numbering never change.
pub(crate) fn optimize(code: &mut [PInsn], weights: &mut [u32], maps: &[Arc<Map>], cfg: OptConfig) {
    if cfg.const_fold {
        const_fold(code);
    }
    if cfg.dead_store {
        neutralize_unreachable(code);
        eliminate_dead_stores(code, maps);
    }
    if cfg.fuse {
        fuse(code, weights);
    }
}

/// What the lattice knows about a register at one program point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Val {
    /// Holds exactly this value on every execution reaching this point.
    Const(u64),
    /// Run-dependent, but provably not a stack pointer (helper results,
    /// the entry context pointer, any 32-bit-truncated value). Lets the
    /// dead-store pass keep working across map-value loads.
    NonStack,
    Unknown,
}

#[derive(Clone)]
struct Lattice {
    regs: [Val; 11],
}

impl Lattice {
    /// Program-entry state: `r1` is the context pointer or 0 (never
    /// stack), `r10` is the constant frame pointer.
    fn entry() -> Lattice {
        let mut l = Lattice::boundary();
        l.regs[1] = Val::NonStack;
        l
    }

    /// Basic-block boundary: everything forgotten except the immutable
    /// frame pointer.
    fn boundary() -> Lattice {
        let mut regs = [Val::Unknown; 11];
        regs[10] = Val::Const(ptr(TAG_STACK, 0, STACK_SIZE as u32));
        Lattice { regs }
    }

    fn get(&self, r: u8) -> Val {
        self.regs[r as usize]
    }

    fn set(&mut self, r: u8, v: Val) {
        self.regs[r as usize] = v;
    }

    fn src(&self, s: PSrc) -> Option<u64> {
        match s {
            PSrc::Imm(v) => Some(v),
            PSrc::Reg(r) => match self.get(r) {
                Val::Const(v) => Some(v),
                _ => None,
            },
        }
    }

    /// Applies one (possibly already rewritten) instruction.
    fn transfer(&mut self, insn: &PInsn) {
        match *insn {
            PInsn::Alu64 { op, dst, src } => {
                let v = match (self.get(dst), self.src(src)) {
                    (Val::Const(a), Some(b)) => Val::Const(fold64(op, a, b)),
                    _ => Val::Unknown,
                };
                self.set(dst, v);
            }
            PInsn::Alu32 { op, dst, src } => {
                // 32-bit results are zero-extended, so the tag nibble is
                // always clear: never a stack pointer.
                let v = match (self.get(dst), self.src(src)) {
                    (Val::Const(a), Some(b)) => {
                        Val::Const(u64::from(fold32(op, a as u32, b as u32)))
                    }
                    _ => Val::NonStack,
                };
                self.set(dst, v);
            }
            PInsn::Mov64R { dst, src } => self.set(dst, self.get(src)),
            PInsn::Mov32R { dst, src } => {
                let v = match self.get(src) {
                    Val::Const(v) => Val::Const(u64::from(v as u32)),
                    _ => Val::NonStack,
                };
                self.set(dst, v);
            }
            PInsn::LdImm64 { dst, imm } => self.set(dst, Val::Const(imm)),
            PInsn::LdMapRef { dst, map_id } => {
                self.set(dst, Val::Const(ptr(TAG_MAPREF, u64::from(map_id), 0)));
            }
            PInsn::Load { dst, .. } => {
                // A loaded scalar is data; the verifier rejects using it
                // as a pointer, so classing it NonStack is sound for the
                // verified programs prepare is contracted to receive.
                self.set(dst, Val::NonStack);
            }
            PInsn::Load2 { d1, d2, .. } => {
                self.set(d1, Val::NonStack);
                self.set(d2, Val::NonStack);
            }
            PInsn::CallEnv0 { .. }
            | PInsn::CallEnv1 { .. }
            | PInsn::CallTrace { .. }
            | PInsn::CallMap { .. }
            | PInsn::CallMapLookupBr { .. } => {
                // Helpers return scalars or map-value pointers (never
                // stack) and every helper call zeroes r1–r5.
                self.set(0, Val::NonStack);
                for r in 1..=5 {
                    self.set(r, Val::Const(0));
                }
            }
            PInsn::Alu2 { dst1, dst2, .. } => {
                self.set(dst1, Val::Unknown);
                self.set(dst2, Val::Unknown);
            }
            PInsn::Store { .. }
            | PInsn::Ja { .. }
            | PInsn::Jmp { .. }
            | PInsn::Exit
            | PInsn::Trap { .. }
            | PInsn::Halt
            | PInsn::Nop => {}
        }
    }
}

/// Slots that start a basic block: the entry plus every jump target.
/// (Index `len` — the Halt sentinel position — is representable too.)
fn leaders(code: &[PInsn]) -> Vec<bool> {
    let mut lead = vec![false; code.len() + 1];
    lead[0] = true;
    for insn in code {
        match *insn {
            PInsn::Ja { target }
            | PInsn::Jmp { target, .. }
            | PInsn::CallMapLookupBr { target, .. } => lead[target as usize] = true,
            _ => {}
        }
    }
    lead
}

/// Slots reachable from the entry by fall-through and jumps.
fn reachable(code: &[PInsn]) -> Vec<bool> {
    let mut seen = vec![false; code.len() + 1];
    let mut work = vec![0usize];
    while let Some(pc) = work.pop() {
        if pc > code.len() || seen[pc] {
            continue;
        }
        seen[pc] = true;
        if pc == code.len() {
            continue; // Halt sentinel position.
        }
        match code[pc] {
            PInsn::Ja { target } => work.push(target as usize),
            PInsn::Jmp { target, .. } => {
                work.push(target as usize);
                work.push(pc + 1);
            }
            PInsn::CallMapLookupBr { target, .. } => {
                work.push(target as usize);
                work.push(pc + 2);
            }
            PInsn::Exit | PInsn::Trap { .. } | PInsn::Halt => {}
            _ => work.push(pc + 1),
        }
    }
    seen
}

fn const_fold(code: &mut [PInsn]) {
    let lead = leaders(code);
    let mut l = Lattice::entry();
    for pc in 0..code.len() {
        if pc != 0 && lead[pc] {
            l = Lattice::boundary();
        }
        rewrite(&mut code[pc], &l);
        l.transfer(&code[pc]);
    }
}

/// Rewrites one instruction against the lattice state at its entry. Every
/// rewrite is value-preserving for the state the interpreter would be in.
fn rewrite(insn: &mut PInsn, l: &Lattice) {
    // A constant register operand becomes an immediate (PSrc::Imm holds
    // the full pre-extended word, so any u64 is representable).
    let imm_src = |src: PSrc| -> PSrc {
        match src {
            PSrc::Reg(r) => match l.get(r) {
                Val::Const(v) => PSrc::Imm(v),
                _ => src,
            },
            imm => imm,
        }
    };
    match *insn {
        PInsn::Alu64 { op, dst, src } => {
            if let (Val::Const(a), Some(b)) = (l.get(dst), l.src(src)) {
                *insn = PInsn::LdImm64 {
                    dst,
                    imm: fold64(op, a, b),
                };
            } else {
                *insn = PInsn::Alu64 {
                    op,
                    dst,
                    src: imm_src(src),
                };
            }
        }
        PInsn::Alu32 { op, dst, src } => {
            if let (Val::Const(a), Some(b)) = (l.get(dst), l.src(src)) {
                *insn = PInsn::LdImm64 {
                    dst,
                    imm: u64::from(fold32(op, a as u32, b as u32)),
                };
            } else {
                *insn = PInsn::Alu32 {
                    op,
                    dst,
                    src: imm_src(src),
                };
            }
        }
        PInsn::Mov64R { dst, src } => {
            if let Val::Const(v) = l.get(src) {
                *insn = PInsn::LdImm64 { dst, imm: v };
            }
        }
        PInsn::Mov32R { dst, src } => {
            if let Val::Const(v) = l.get(src) {
                *insn = PInsn::LdImm64 {
                    dst,
                    imm: u64::from(v as u32),
                };
            }
        }
        // A map reference is itself a constant tagged pointer.
        PInsn::LdMapRef { dst, map_id } => {
            *insn = PInsn::LdImm64 {
                dst,
                imm: ptr(TAG_MAPREF, u64::from(map_id), 0),
            };
        }
        PInsn::Store {
            size,
            base,
            off,
            src,
        } => {
            *insn = PInsn::Store {
                size,
                base,
                off,
                src: imm_src(src),
            };
        }
        PInsn::Jmp {
            op,
            dst,
            src,
            target,
        } => {
            if let (Val::Const(a), Some(b)) = (l.get(dst), l.src(src)) {
                // Still one executed instruction either way.
                *insn = if op.eval(a, b) {
                    PInsn::Ja { target }
                } else {
                    PInsn::Nop
                };
            } else {
                *insn = PInsn::Jmp {
                    op,
                    dst,
                    src: imm_src(src),
                    target,
                };
            }
        }
        _ => {}
    }
}

fn neutralize_unreachable(code: &mut [PInsn]) {
    let live = reachable(code);
    for (pc, insn) in code.iter_mut().enumerate() {
        if !live[pc] {
            *insn = PInsn::Nop;
        }
    }
}

/// A half-open byte window on the stack.
type Window = (usize, usize);

fn stack_window(base: Val, insn_off: u64, n: usize) -> StackRef {
    match base {
        Val::Const(v) => {
            let addr = v.wrapping_add(insn_off);
            if ptr_tag(addr) == TAG_STACK {
                let off = ptr_off(addr) as usize;
                StackRef::Window((off.min(STACK_SIZE), (off.saturating_add(n)).min(STACK_SIZE)))
            } else {
                StackRef::NotStack
            }
        }
        Val::NonStack => StackRef::NotStack,
        Val::Unknown => StackRef::Unknown,
    }
}

enum StackRef {
    /// Clamped to the stack; an out-of-bounds access faults before
    /// touching anything, so the clamp over-approximates reads and is
    /// exact for the in-bounds candidates stores need.
    Window(Window),
    NotStack,
    Unknown,
}

/// Drops stores to stack bytes that no reachable instruction can read.
/// The read-set is global and flow-insensitive; any unknown-base load or
/// helper buffer argument aborts the whole pass. Run after
/// [`neutralize_unreachable`] so dead code contributes no phantom reads.
fn eliminate_dead_stores(code: &mut [PInsn], maps: &[Arc<Map>]) {
    fn mark(reads: &mut [bool; STACK_SIZE], w: Window) {
        reads[w.0..w.1].iter_mut().for_each(|b| *b = true);
    }
    let lead = leaders(code);
    let mut reads = [false; STACK_SIZE];
    // Candidate stores: (pc, window), provably in-bounds on the stack.
    let mut candidates: Vec<(usize, Window)> = Vec::new();
    let mut l = Lattice::entry();
    for pc in 0..code.len() {
        if pc != 0 && lead[pc] {
            l = Lattice::boundary();
        }
        match code[pc] {
            PInsn::Load {
                size, base, off, ..
            } => match stack_window(l.get(base), off, size.bytes()) {
                StackRef::Window(w) => mark(&mut reads, w),
                StackRef::NotStack => {}
                StackRef::Unknown => return,
            },
            PInsn::Store {
                size, base, off, ..
            } => match stack_window(l.get(base), off, size.bytes()) {
                // Only exactly-bounded windows are candidates: an
                // out-of-bounds store faults and must stay.
                StackRef::Window((s, e)) if e - s == size.bytes() => candidates.push((pc, (s, e))),
                _ => {}
            },
            PInsn::CallTrace { .. } => {
                // Reads `len = r2` bytes at `r1`.
                match (l.get(1), l.get(2)) {
                    (_, Val::Unknown) | (Val::Unknown, _) => return,
                    (base, Val::Const(len)) => {
                        match stack_window(base, 0, (len as usize).min(STACK_SIZE)) {
                            StackRef::Window(w) => mark(&mut reads, w),
                            StackRef::NotStack => {}
                            StackRef::Unknown => return,
                        }
                    }
                    (_, Val::NonStack) => return, // Length unknown.
                }
            }
            PInsn::CallMap { op, .. } => {
                // Key at `r2` (and value at `r3` for update), sized by
                // the map named in `r1`.
                let def = match l.get(1) {
                    // An unknown map id makes the helper fault without
                    // reading, hence the plain `None` from `get`.
                    Val::Const(mref) if ptr_tag(mref) == TAG_MAPREF => {
                        maps.get(ptr_index(mref) as usize).map(|m| m.def())
                    }
                    Val::Const(_) | Val::NonStack => None, // Faults, no read.
                    Val::Unknown => return,
                };
                if let Some(def) = def {
                    match stack_window(l.get(2), 0, def.key_size) {
                        StackRef::Window(w) => mark(&mut reads, w),
                        StackRef::NotStack => {}
                        StackRef::Unknown => return,
                    }
                    if op == MapOp::Update {
                        match stack_window(l.get(3), 0, def.value_size) {
                            StackRef::Window(w) => mark(&mut reads, w),
                            StackRef::NotStack => {}
                            StackRef::Unknown => return,
                        }
                    }
                }
            }
            // CallEnv1 consumes r1 as a scalar, not a buffer; everything
            // else reads no stack memory.
            _ => {}
        }
        l.transfer(&code[pc]);
    }
    for (pc, (s, e)) in candidates {
        if !reads[s..e].iter().any(|b| *b) {
            code[pc] = PInsn::Nop; // Weight stays 1: still one instruction.
        }
    }
}

/// Decomposes ALU-class instructions (including the specialized `mov`
/// forms) into a common shape for pairing.
fn as_alu(p: PInsn) -> Option<(bool, AluOp, u8, PSrc)> {
    match p {
        PInsn::Alu64 { op, dst, src } => Some((true, op, dst, src)),
        PInsn::Alu32 { op, dst, src } => Some((false, op, dst, src)),
        PInsn::Mov64R { dst, src } => Some((true, AluOp::Mov, dst, PSrc::Reg(src))),
        PInsn::Mov32R { dst, src } => Some((false, AluOp::Mov, dst, PSrc::Reg(src))),
        PInsn::LdImm64 { dst, imm } => Some((true, AluOp::Mov, dst, PSrc::Imm(imm))),
        _ => None,
    }
}

/// Pairwise superinstruction fusion. The second slot of a fused pair must
/// not be a jump target (a jump landing there must still execute exactly
/// the second instruction), and becomes a weight-0 `Nop` that is only
/// ever skipped over.
fn fuse(code: &mut [PInsn], weights: &mut [u32]) {
    let lead = leaders(code);
    let mut pc = 0;
    while pc + 1 < code.len() {
        if lead[pc + 1] {
            pc += 1;
            continue;
        }
        let fused = match (code[pc], code[pc + 1]) {
            (
                PInsn::CallMap {
                    op: MapOp::Lookup,
                    helper,
                },
                PInsn::Jmp {
                    op,
                    dst,
                    src,
                    target,
                },
            ) => Some(PInsn::CallMapLookupBr {
                helper,
                jop: op,
                jdst: dst,
                jsrc: src,
                target,
            }),
            (
                PInsn::Load {
                    size: s1,
                    dst: d1,
                    base: b1,
                    off: o1,
                },
                PInsn::Load {
                    size: s2,
                    dst: d2,
                    base: b2,
                    off: o2,
                },
            ) => Some(PInsn::Load2 {
                s1,
                d1,
                b1,
                o1,
                s2,
                d2,
                b2,
                o2,
            }),
            (a, b) => match (as_alu(a), as_alu(b)) {
                (Some((w1, op1, dst1, src1)), Some((w2, op2, dst2, src2))) => Some(PInsn::Alu2 {
                    w1,
                    op1,
                    dst1,
                    src1,
                    w2,
                    op2,
                    dst2,
                    src2,
                }),
                _ => None,
            },
        };
        if let Some(f) = fused {
            code[pc] = f;
            code[pc + 1] = PInsn::Nop;
            weights[pc] += weights[pc + 1];
            weights[pc + 1] = 0;
            pc += 2;
        } else {
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{JmpOp, MemSize};

    fn run_passes(code: &mut [PInsn], maps: &[Arc<Map>], cfg: OptConfig) -> Vec<u32> {
        let mut weights = vec![1u32; code.len()];
        optimize(code, &mut weights, maps, cfg);
        weights
    }

    #[test]
    fn constant_chains_fold_to_ldimm64() {
        let mut code = vec![
            PInsn::LdImm64 { dst: 0, imm: 5 },
            PInsn::Alu64 {
                op: AluOp::Add,
                dst: 0,
                src: PSrc::Imm(3),
            },
            PInsn::Alu64 {
                op: AluOp::Mul,
                dst: 0,
                src: PSrc::Imm(2),
            },
            PInsn::Exit,
        ];
        const_fold(&mut code);
        assert_eq!(code[1], PInsn::LdImm64 { dst: 0, imm: 8 });
        assert_eq!(code[2], PInsn::LdImm64 { dst: 0, imm: 16 });
    }

    #[test]
    fn constant_jumps_become_ja_or_nop() {
        let mut code = vec![
            PInsn::LdImm64 { dst: 1, imm: 7 },
            PInsn::Jmp {
                op: JmpOp::Eq,
                dst: 1,
                src: PSrc::Imm(7),
                target: 3,
            },
            PInsn::Jmp {
                op: JmpOp::Ne,
                dst: 1,
                src: PSrc::Imm(7),
                target: 0,
            },
            PInsn::Exit,
        ];
        const_fold(&mut code);
        assert_eq!(code[1], PInsn::Ja { target: 3 });
        // pc 2 is unreachable after the fold but also a straight-line
        // continuation in the pre-fold CFG; the taken branch folds first,
        // and the (stale) state still proves the second test false.
        assert_eq!(code[2], PInsn::Nop);
    }

    #[test]
    fn folding_resets_at_join_points() {
        // pc 2 is a jump target: r1's constancy must be forgotten there.
        let mut code = vec![
            PInsn::LdImm64 { dst: 1, imm: 1 },
            PInsn::Jmp {
                op: JmpOp::Eq,
                dst: 0,
                src: PSrc::Imm(0),
                target: 2,
            },
            PInsn::Alu64 {
                op: AluOp::Add,
                dst: 1,
                src: PSrc::Imm(1),
            },
            PInsn::Exit,
        ];
        const_fold(&mut code);
        assert_eq!(
            code[2],
            PInsn::Alu64 {
                op: AluOp::Add,
                dst: 1,
                src: PSrc::Imm(1),
            },
            "constants must not flow across basic-block leaders"
        );
    }

    #[test]
    fn unreachable_code_is_neutralized() {
        let mut code = vec![
            PInsn::Ja { target: 2 },
            PInsn::Trap {
                kind: crate::prepare::Trap::WriteR10,
            },
            PInsn::Exit,
        ];
        neutralize_unreachable(&mut code);
        assert_eq!(code[1], PInsn::Nop);
        assert_eq!(code[2], PInsn::Exit);
    }

    fn fp_store(off: u64) -> PInsn {
        PInsn::Store {
            size: MemSize::Dw,
            base: 10,
            off,
            src: PSrc::Imm(1),
        }
    }

    #[test]
    fn unread_stack_stores_are_eliminated() {
        let neg8 = (-8i64) as u64;
        let neg16 = (-16i64) as u64;
        let mut code = vec![
            fp_store(neg8),
            fp_store(neg16),
            PInsn::Load {
                size: MemSize::Dw,
                dst: 0,
                base: 10,
                off: neg16,
            },
            PInsn::Exit,
        ];
        eliminate_dead_stores(&mut code, &[]);
        assert_eq!(code[0], PInsn::Nop, "store at fp-8 is never read");
        assert_eq!(code[1], fp_store(neg16), "store at fp-16 is read back");
    }

    #[test]
    fn unknown_base_load_aborts_store_elimination() {
        let neg8 = (-8i64) as u64;
        let mut code = vec![
            fp_store(neg8),
            // r3 is unknown: this load could alias any stack byte.
            PInsn::Load {
                size: MemSize::Dw,
                dst: 0,
                base: 3,
                off: 0,
            },
            PInsn::Exit,
        ];
        eliminate_dead_stores(&mut code, &[]);
        assert_eq!(code[0], fp_store(neg8), "unknown read-set keeps all stores");
    }

    #[test]
    fn fusion_forms_pairs_and_respects_leaders() {
        let mut code = vec![
            PInsn::LdImm64 { dst: 2, imm: 1 },
            PInsn::Alu64 {
                op: AluOp::Add,
                dst: 2,
                src: PSrc::Imm(4),
            },
            PInsn::CallMap {
                op: MapOp::Lookup,
                helper: 1,
            },
            PInsn::Jmp {
                op: JmpOp::Eq,
                dst: 0,
                src: PSrc::Imm(0),
                target: 5,
            },
            PInsn::Exit,
            PInsn::Exit,
        ];
        let mut weights = vec![1u32; code.len()];
        fuse(&mut code, &mut weights);
        assert!(matches!(code[0], PInsn::Alu2 { .. }));
        assert_eq!(code[1], PInsn::Nop);
        assert!(matches!(code[2], PInsn::CallMapLookupBr { target: 5, .. }));
        assert_eq!(code[3], PInsn::Nop);
        assert_eq!(weights, vec![2, 0, 2, 0, 1, 1]);
    }

    #[test]
    fn fusion_skips_jump_target_second_slots() {
        // pc 2 is a jump target: the pair (1, 2) must stay unfused so the
        // jump still executes exactly instruction 2.
        let mut code = vec![
            PInsn::Jmp {
                op: JmpOp::Eq,
                dst: 0,
                src: PSrc::Imm(0),
                target: 2,
            },
            PInsn::LdImm64 { dst: 1, imm: 1 },
            PInsn::LdImm64 { dst: 2, imm: 2 },
            PInsn::Exit,
        ];
        let mut weights = vec![1u32; code.len()];
        fuse(&mut code, &mut weights);
        assert_eq!(code[1], PInsn::LdImm64 { dst: 1, imm: 1 });
        assert_eq!(code[2], PInsn::LdImm64 { dst: 2, imm: 2 });
        assert_eq!(weights, vec![1, 1, 1, 1]);
    }

    #[test]
    fn weights_always_sum_to_instruction_count() {
        let neg8 = (-8i64) as u64;
        let mut code = vec![
            PInsn::LdImm64 { dst: 1, imm: 3 },
            PInsn::Alu64 {
                op: AluOp::Add,
                dst: 1,
                src: PSrc::Imm(1),
            },
            fp_store(neg8),
            PInsn::Load {
                size: MemSize::Dw,
                dst: 0,
                base: 10,
                off: neg8,
            },
            PInsn::Load {
                size: MemSize::Dw,
                dst: 2,
                base: 10,
                off: neg8,
            },
            PInsn::Exit,
        ];
        let n = code.len() as u32;
        let weights = run_passes(&mut code, &[], OptConfig::default());
        assert_eq!(weights.iter().sum::<u32>(), n);
    }
}
