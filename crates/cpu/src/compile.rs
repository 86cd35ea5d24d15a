//! The execution engine: compiled runs and the one set of op arms.
//!
//! `decode` lowers every function body to a flat stream of single-form
//! [`COp`]s. This stage compiles every basic-block *entry point* into a
//! run: the block's ops from the entry to the terminator, with the
//! dominant consecutive op pairs of the workload profiles fused into
//! single-dispatch superinstructions, stored back to back per function
//! in a [`CompiledFunction`]. `Machine::exec_chain` drives
//! compiled runs back to back; an entry in the middle of a block (a
//! replay seek, a `sigreturn`, `call_function`) or a block the horizon
//! cuts short runs the block's single-form ops straight from the decoded
//! stream, and `Machine::step` retires one of them at a time. All of
//! them go through one function, `Machine::exec_ops`, so every op's
//! semantics and charges are written once: a fused arm runs its two
//! halves' bodies back to back.
//!
//! # Fusion set
//!
//! Pinned by the retired op-pair histogram (`memsentry-bench --bin
//! opstats`, table in EXPERIMENTS.md). Aggregate over the 19 SPEC
//! profiles plus instrumented rows, the dominant *sequential* pairs are
//! `aluimm+aluimm` (34.8%), `load+aluimm` (17.1%), `aluimm+load`
//! (15.7%), `load+load` (8.2%), the `store`×`aluimm` pairs (~4% each)
//! and, under address-based instrumentation, `lea+mask`/`lea+bndcu`
//! (20.3%) and `mask+load`/`bndcu+load` (15.7%). Those families — every
//! sequential pair over 2% aggregate or 5% in an instrumented row — are
//! the fused variants below. Two candidates named up front by the
//! profiles did *not* survive the measurement: compare+branch
//! (`movimm+jmpif`) retires once per generated loop iteration (<0.1%)
//! and `wrpkru` bracket pairs peak at 2.9% (`wrpkru+skip` under MPK
//! call/ret), both below threshold, so neither is fused.
//!
//! # Cost accounting
//!
//! Every op adds its static charge to the cycle counter in retirement
//! order, because f64 addition is non-associative and the cycle total
//! must not depend on how instructions are grouped (summing a block's
//! static charges once and settling them in one add would change the
//! rounding sequence). The counter rides in the executor's [`Chain`]
//! state — same adds, same order, settled to `stats.cycles` on every
//! exit — so the loop-carried FP dependency stays in a register instead
//! of a memory round trip per op. What *is* lifted out of the per-op
//! path is the integer bookkeeping: the pc, `last_masked` and the
//! retired count live in the chain state for the whole *chain* of runs —
//! a taken branch falls straight into its target's run — and are settled
//! only when the chain hands control back (horizon, halt, trap) or
//! around a cold op, whose body reads the machine directly. Dynamic
//! charges (MMU walks, cache miss penalties, the store-buffer sliver,
//! event costs) stay on their existing paths.
//!
//! # Inline translation caches
//!
//! Every memory op owns one [`memsentry_mmu::TransCacheEntry`] slot in
//! the machine's side table (`Machine::ic`, indexed `ic_base[func] +
//! source index`): a generation-valid same-page probe goes straight to
//! physical memory through [`memsentry_mmu::AddressSpace::ic_read_u64`]
//! / [`ic_write_u64`](memsentry_mmu::AddressSpace::ic_write_u64),
//! skipping the full `check_page` pipeline while reporting the
//! identical `AccessInfo` and TLB-hit statistic it would have
//! produced. The slots are pure memo state — excluded from snapshots
//! and the digest, orphaned wholesale by the address space's mutation
//! generation counter — and `MSENTRY_NO_INLINE_CACHE=1`
//! ([`MachineConfig::inline_cache`](crate::machine::MachineConfig))
//! leaves the table empty so every probe takes the full path.

use memsentry_ir::{AluOp, CodeAddr, Cond, FuncId, Label, Reg};
use memsentry_mmu::space::AccessInfo;
use memsentry_mmu::{Pkru, VirtAddr};

use crate::decode::DecodedFunction;
use crate::machine::Machine;
use crate::trap::Trap;

/// A pre-bound operation: one (or, fused, two) source instruction(s)
/// with operands resolved and static cycle charges attached. `decode`
/// emits the single forms, index-1:1 with each function body; the fused
/// forms exist only inside compiled runs.
///
/// A hot op's `cost` is the index of its static charge in the machine's
/// interned [`Charges`](crate::decode::Charges) table: hot charges depend
/// only on the op kind, so one byte names them and an op fits in three
/// words. The cold ops carry their charge itself (AES and key-staging
/// charges scale with operands).
#[derive(Debug, Clone, Copy)]
pub(crate) enum COp {
    /// `dst <- imm`.
    MovImm { dst: Reg, imm: u64, cost: u8 },
    /// `dst <- src`.
    Mov { dst: Reg, src: Reg, cost: u8 },
    /// `dst <- base + offset`.
    Lea {
        dst: Reg,
        base: Reg,
        offset: i64,
        cost: u8,
    },
    /// `dst <- dst op src`; an `And` masks `dst` for the SFI
    /// load-dependency model.
    AluReg {
        op: AluOp,
        dst: Reg,
        src: Reg,
        cost: u8,
    },
    /// `dst <- dst op imm`.
    AluImm {
        op: AluOp,
        dst: Reg,
        imm: u64,
        cost: u8,
    },
    /// 8-byte load.
    Load {
        dst: Reg,
        addr: Reg,
        offset: i64,
        cost: u8,
    },
    /// 8-byte store.
    Store {
        src: Reg,
        addr: Reg,
        offset: i64,
        cost: u8,
    },
    /// Label/nop/fence slot: cycles only.
    Skip { cost: u8 },
    /// Load a bound register.
    BndMk {
        bnd: u8,
        lower: u64,
        upper: u64,
        cost: u8,
    },
    /// Upper-bound check.
    BndCu { bnd: u8, reg: Reg, cost: u8 },
    /// Lower-bound check.
    BndCl { bnd: u8, reg: Reg, cost: u8 },
    /// Read `pkru`.
    RdPkru { dst: Reg, cost: u8 },
    /// Write `pkru`.
    WrPkru { src: Reg, cost: u8 },
    /// Unconditional branch to a resolved instruction index (terminator).
    Jmp { target: u32, cost: u8 },
    /// Conditional branch to a resolved instruction index (terminator).
    JmpIf {
        cond: Cond,
        a: Reg,
        b: Reg,
        target: u32,
        cost: u8,
    },
    /// A branch whose label does not exist in the function (terminator);
    /// traps with [`Trap::BadLabel`] when (and only when) executed.
    BadLabel { label: Label, cost: u8 },
    /// Direct call with the return address pre-encoded (terminator).
    Call { callee: FuncId, ret: u64, cost: u8 },
    /// Indirect call with the return address pre-encoded (terminator).
    CallIndirect { target: Reg, ret: u64, cost: u8 },
    /// Return (terminator).
    Ret { cost: u8 },
    /// Stop the machine (terminator).
    Halt { cost: u8 },

    // --- cold ops: run by `Machine::exec_cold` on the settled machine ---
    /// System call (terminator: it may exit, or jump via `sigreturn`).
    Syscall { nr: u64, cost: f64 },
    /// Hypercall (terminator: it may exit).
    VmCall { nr: u64, cost: f64 },
    /// Allocator call.
    Alloc { size: Reg, cost: f64 },
    /// Allocator release.
    Free { ptr: Reg, cost: f64 },
    /// EPT switch.
    VmFunc { eptp: u32, cost: f64 },
    /// Stage AES keys from `ymm` to `xmm`.
    YmmToXmm { cost: f64 },
    /// `AesKeygen` / `AesImc`: key material derived in registers, cycles
    /// only.
    AesSetup { cost: f64 },
    /// In-place region encryption/decryption.
    AesRegion {
        base: Reg,
        chunks: u32,
        decrypt: bool,
        cost: f64,
    },
    /// Enclave entry.
    SgxEnter { cost: f64 },
    /// Enclave exit.
    SgxExit { cost: f64 },

    // --- fused superinstructions (see module docs for the data) -------
    /// `aluimm+aluimm` — the dominant pair in every profile (34.8%
    /// aggregate): the generated ALU filler runs back to back.
    AluImmAluImm {
        op1: AluOp,
        dst1: Reg,
        imm1: u64,
        cost1: u8,
        op2: AluOp,
        dst2: Reg,
        imm2: u64,
        cost2: u8,
    },
    /// `aluimm+load` (15.7%); also covers the SFI `mask+load` bracket,
    /// whose load takes the dependency charge.
    AluImmLoad {
        op1: AluOp,
        dst1: Reg,
        imm1: u64,
        cost1: u8,
        dst2: Reg,
        addr2: Reg,
        offset2: i64,
        cost2: u8,
    },
    /// `load+aluimm` (17.1%).
    LoadAluImm {
        dst1: Reg,
        addr1: Reg,
        offset1: i64,
        cost1: u8,
        op2: AluOp,
        dst2: Reg,
        imm2: u64,
        cost2: u8,
    },
    /// `load+load` (8.2%).
    LoadLoad {
        dst1: Reg,
        addr1: Reg,
        offset1: i64,
        cost1: u8,
        dst2: Reg,
        addr2: Reg,
        offset2: i64,
        cost2: u8,
    },
    /// `aluimm+store` (4.1%).
    AluImmStore {
        op1: AluOp,
        dst1: Reg,
        imm1: u64,
        cost1: u8,
        src2: Reg,
        addr2: Reg,
        offset2: i64,
        cost2: u8,
    },
    /// `store+aluimm` (4.3%).
    StoreAluImm {
        src1: Reg,
        addr1: Reg,
        offset1: i64,
        cost1: u8,
        op2: AluOp,
        dst2: Reg,
        imm2: u64,
        cost2: u8,
    },
    /// `store+load` (2.1%).
    StoreLoad {
        src1: Reg,
        addr1: Reg,
        offset1: i64,
        cost1: u8,
        dst2: Reg,
        addr2: Reg,
        offset2: i64,
        cost2: u8,
    },
    /// `load+store` (2.0%).
    LoadStore {
        dst1: Reg,
        addr1: Reg,
        offset1: i64,
        cost1: u8,
        src2: Reg,
        addr2: Reg,
        offset2: i64,
        cost2: u8,
    },
    /// `lea+aluimm` — the SFI `lea+mask` bracket (20.3% under sfi-rw).
    LeaAluImm {
        dst1: Reg,
        base1: Reg,
        offset1: i64,
        cost1: u8,
        op2: AluOp,
        dst2: Reg,
        imm2: u64,
        cost2: u8,
    },
    /// `aluimm+lea` (12.9% under sfi-rw).
    AluImmLea {
        op1: AluOp,
        dst1: Reg,
        imm1: u64,
        cost1: u8,
        dst2: Reg,
        base2: Reg,
        offset2: i64,
        cost2: u8,
    },
    /// `load+lea` (5.6% under sfi-rw).
    LoadLea {
        dst1: Reg,
        addr1: Reg,
        offset1: i64,
        cost1: u8,
        dst2: Reg,
        base2: Reg,
        offset2: i64,
        cost2: u8,
    },
    /// `lea+bndcu` — the MPX bracket (20.3% under mpx-rw).
    LeaBndCu {
        dst1: Reg,
        base1: Reg,
        offset1: i64,
        cost1: u8,
        bnd2: u8,
        reg2: Reg,
        cost2: u8,
    },
    /// `bndcu+load` (15.7% under mpx-rw).
    BndCuLoad {
        bnd1: u8,
        reg1: Reg,
        cost1: u8,
        dst2: Reg,
        addr2: Reg,
        offset2: i64,
        cost2: u8,
    },
    /// `bndcu+store` (4.5% under mpx-rw).
    BndCuStore {
        bnd1: u8,
        reg1: Reg,
        cost1: u8,
        src2: Reg,
        addr2: Reg,
        offset2: i64,
        cost2: u8,
    },
}

impl COp {
    /// Whether this is a fused superinstruction (two source
    /// instructions).
    fn is_fused(&self) -> bool {
        matches!(
            self,
            COp::AluImmAluImm { .. }
                | COp::AluImmLoad { .. }
                | COp::LoadAluImm { .. }
                | COp::LoadLoad { .. }
                | COp::AluImmStore { .. }
                | COp::StoreAluImm { .. }
                | COp::StoreLoad { .. }
                | COp::LoadStore { .. }
                | COp::LeaAluImm { .. }
                | COp::AluImmLea { .. }
                | COp::LoadLea { .. }
                | COp::LeaBndCu { .. }
                | COp::BndCuLoad { .. }
                | COp::BndCuStore { .. }
        )
    }
}

/// Where one compiled run sits in its function's `ops`.
#[derive(Debug, Clone, Copy, Default)]
struct RunRef {
    /// First op of the run.
    start: u32,
    /// One past its last op.
    end: u32,
    /// Source instructions covered (the run's retirement count); 0 for
    /// an index that is not a block entry point.
    n_insts: u32,
}

/// One compiled function: the pre-bound op chain of every basic-block
/// entry point (function entry, post-terminator fall-through, or branch
/// target) from the entry index to the block terminator, back to back in
/// one array. Mid-block indexes reached by a replay seek, a `sigreturn`
/// or a horizon cut have no run; they execute the decoded single-form
/// ops until the next entry point.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompiledFunction {
    /// Every run's ops in entry-point order; fused entries cover two
    /// source instructions.
    ops: Vec<COp>,
    /// Per-index locations into `ops`.
    runs: Box<[RunRef]>,
}

impl CompiledFunction {
    /// The run entered at instruction index `i` with the number of
    /// source instructions it retires, or `None` if `i` is not a block
    /// entry point.
    #[inline(always)]
    fn run(&self, i: u32) -> Option<(&[COp], u32)> {
        let r = self.runs.get(i as usize)?;
        (r.n_insts > 0).then(|| (&self.ops[r.start as usize..r.end as usize], r.n_insts))
    }
}

/// Whether index `i` ends a basic block (`decode::is_block_end` stays
/// the single source of truth via `block_ends`).
fn ends_block(ends: &[u32], i: usize) -> bool {
    ends[i] as usize == i + 1
}

/// Block entry points of one decoded function: the function entry,
/// every post-terminator index, and every branch target.
fn entry_points(f: &DecodedFunction) -> Vec<bool> {
    let len = f.ops.len();
    let mut leader = vec![false; len];
    if len > 0 {
        leader[0] = true;
    }
    for (i, op) in f.ops.iter().enumerate() {
        if ends_block(&f.block_ends, i) && i + 1 < len {
            leader[i + 1] = true;
        }
        match *op {
            COp::Jmp { target, .. } | COp::JmpIf { target, .. } if (target as usize) < len => {
                leader[target as usize] = true;
            }
            _ => {}
        }
    }
    leader
}

/// Attempts to fuse the consecutive single-form pair `(a, b)` into a
/// superinstruction. Only the measured dominant families fuse; anything
/// else dispatches singly.
fn try_fuse(a: &COp, b: &COp) -> Option<COp> {
    Some(match (*a, *b) {
        (
            COp::AluImm {
                op: op1,
                dst: dst1,
                imm: imm1,
                cost: cost1,
            },
            COp::AluImm {
                op: op2,
                dst: dst2,
                imm: imm2,
                cost: cost2,
            },
        ) => COp::AluImmAluImm {
            op1,
            dst1,
            imm1,
            cost1,
            op2,
            dst2,
            imm2,
            cost2,
        },
        (
            COp::AluImm {
                op: op1,
                dst: dst1,
                imm: imm1,
                cost: cost1,
            },
            COp::Load {
                dst: dst2,
                addr: addr2,
                offset: offset2,
                cost: cost2,
            },
        ) => COp::AluImmLoad {
            op1,
            dst1,
            imm1,
            cost1,
            dst2,
            addr2,
            offset2,
            cost2,
        },
        (
            COp::Load {
                dst: dst1,
                addr: addr1,
                offset: offset1,
                cost: cost1,
            },
            COp::AluImm {
                op: op2,
                dst: dst2,
                imm: imm2,
                cost: cost2,
            },
        ) => COp::LoadAluImm {
            dst1,
            addr1,
            offset1,
            cost1,
            op2,
            dst2,
            imm2,
            cost2,
        },
        (
            COp::Load {
                dst: dst1,
                addr: addr1,
                offset: offset1,
                cost: cost1,
            },
            COp::Load {
                dst: dst2,
                addr: addr2,
                offset: offset2,
                cost: cost2,
            },
        ) => COp::LoadLoad {
            dst1,
            addr1,
            offset1,
            cost1,
            dst2,
            addr2,
            offset2,
            cost2,
        },
        (
            COp::AluImm {
                op: op1,
                dst: dst1,
                imm: imm1,
                cost: cost1,
            },
            COp::Store {
                src: src2,
                addr: addr2,
                offset: offset2,
                cost: cost2,
            },
        ) => COp::AluImmStore {
            op1,
            dst1,
            imm1,
            cost1,
            src2,
            addr2,
            offset2,
            cost2,
        },
        (
            COp::Store {
                src: src1,
                addr: addr1,
                offset: offset1,
                cost: cost1,
            },
            COp::AluImm {
                op: op2,
                dst: dst2,
                imm: imm2,
                cost: cost2,
            },
        ) => COp::StoreAluImm {
            src1,
            addr1,
            offset1,
            cost1,
            op2,
            dst2,
            imm2,
            cost2,
        },
        (
            COp::Store {
                src: src1,
                addr: addr1,
                offset: offset1,
                cost: cost1,
            },
            COp::Load {
                dst: dst2,
                addr: addr2,
                offset: offset2,
                cost: cost2,
            },
        ) => COp::StoreLoad {
            src1,
            addr1,
            offset1,
            cost1,
            dst2,
            addr2,
            offset2,
            cost2,
        },
        (
            COp::Load {
                dst: dst1,
                addr: addr1,
                offset: offset1,
                cost: cost1,
            },
            COp::Store {
                src: src2,
                addr: addr2,
                offset: offset2,
                cost: cost2,
            },
        ) => COp::LoadStore {
            dst1,
            addr1,
            offset1,
            cost1,
            src2,
            addr2,
            offset2,
            cost2,
        },
        (
            COp::Lea {
                dst: dst1,
                base: base1,
                offset: offset1,
                cost: cost1,
            },
            COp::AluImm {
                op: op2,
                dst: dst2,
                imm: imm2,
                cost: cost2,
            },
        ) => COp::LeaAluImm {
            dst1,
            base1,
            offset1,
            cost1,
            op2,
            dst2,
            imm2,
            cost2,
        },
        (
            COp::AluImm {
                op: op1,
                dst: dst1,
                imm: imm1,
                cost: cost1,
            },
            COp::Lea {
                dst: dst2,
                base: base2,
                offset: offset2,
                cost: cost2,
            },
        ) => COp::AluImmLea {
            op1,
            dst1,
            imm1,
            cost1,
            dst2,
            base2,
            offset2,
            cost2,
        },
        (
            COp::Load {
                dst: dst1,
                addr: addr1,
                offset: offset1,
                cost: cost1,
            },
            COp::Lea {
                dst: dst2,
                base: base2,
                offset: offset2,
                cost: cost2,
            },
        ) => COp::LoadLea {
            dst1,
            addr1,
            offset1,
            cost1,
            dst2,
            base2,
            offset2,
            cost2,
        },
        (
            COp::Lea {
                dst: dst1,
                base: base1,
                offset: offset1,
                cost: cost1,
            },
            COp::BndCu {
                bnd: bnd2,
                reg: reg2,
                cost: cost2,
            },
        ) => COp::LeaBndCu {
            dst1,
            base1,
            offset1,
            cost1,
            bnd2,
            reg2,
            cost2,
        },
        (
            COp::BndCu {
                bnd: bnd1,
                reg: reg1,
                cost: cost1,
            },
            COp::Load {
                dst: dst2,
                addr: addr2,
                offset: offset2,
                cost: cost2,
            },
        ) => COp::BndCuLoad {
            bnd1,
            reg1,
            cost1,
            dst2,
            addr2,
            offset2,
            cost2,
        },
        (
            COp::BndCu {
                bnd: bnd1,
                reg: reg1,
                cost: cost1,
            },
            COp::Store {
                src: src2,
                addr: addr2,
                offset: offset2,
                cost: cost2,
            },
        ) => COp::BndCuStore {
            bnd1,
            reg1,
            cost1,
            src2,
            addr2,
            offset2,
            cost2,
        },
        _ => return None,
    })
}

/// Compiles the run starting at entry point `start` of a decoded function
/// onto the end of `ops`.
fn compile_run(f: &DecodedFunction, start: usize, ops: &mut Vec<COp>) -> RunRef {
    let first = ops.len() as u32;
    let end = f.block_ends[start] as usize;
    let mut i = start;
    while i < end {
        // Terminators never fuse (they end the run themselves), so a pair
        // is only attempted while both ops sit strictly inside the
        // straight-line body.
        if i + 2 <= end && !ends_block(&f.block_ends, i) && !ends_block(&f.block_ends, i + 1) {
            if let Some(fused) = try_fuse(&f.ops[i], &f.ops[i + 1]) {
                ops.push(fused);
                i += 2;
                continue;
            }
        }
        ops.push(f.ops[i]);
        i += 1;
    }
    RunRef {
        start: first,
        end: ops.len() as u32,
        n_insts: (end - start) as u32,
    }
}

/// Compiles every block entry point of every decoded function.
pub(crate) fn compile_program(code: &[DecodedFunction]) -> Vec<CompiledFunction> {
    code.iter()
        .map(|f| {
            // Fusion shrinks a run and only overlapping runs (a branch
            // into the middle of a block) grow the total, so one op per
            // instruction is nearly always enough.
            let mut ops = Vec::with_capacity(f.ops.len());
            let runs = entry_points(f)
                .iter()
                .enumerate()
                .map(|(i, &is_leader)| {
                    if is_leader {
                        compile_run(f, i, &mut ops)
                    } else {
                        RunRef::default()
                    }
                })
                .collect();
            CompiledFunction { ops, runs }
        })
        .collect()
}

/// The executor's working state: the part of the machine every op's arm
/// reads or writes besides registers and memory. `exec_chain` keeps it
/// in locals across whole chains of runs; `exec_one` loads it from the
/// machine for a single op. Settling writes it back to the pc,
/// `last_masked` and `stats`.
#[derive(Debug, Clone, Copy)]
struct Chain {
    /// Function of the op being retired.
    func: FuncId,
    /// Index of the op being retired.
    idx: u32,
    /// The retired-instruction count less `idx` (wrapping): `base + idx`
    /// instructions have retired before the op at `idx`.
    base: u64,
    /// The SFI masked register (`Machine::last_masked`).
    masked: Option<Reg>,
    /// `stats.cycles`.
    cycles: f64,
    /// First inline-cache slot of `func`: the memory op at index `i`
    /// owns slot `icb + i`.
    icb: u32,
}

impl Chain {
    /// Retires the straight-line op at `idx`, which leaves `masked` as
    /// the SFI masked state.
    #[inline(always)]
    fn retire(&mut self, masked: Option<Reg>) {
        self.masked = masked;
        self.idx += 1;
    }

    /// Instructions retired before the op at `idx`.
    #[inline(always)]
    fn retired(&self) -> u64 {
        self.base.wrapping_add(u64::from(self.idx))
    }

    /// Retires the terminator at `idx` and moves to `index` of the same
    /// function, where the next run starts.
    #[inline(always)]
    fn jump(&mut self, index: u32) {
        self.base = self
            .retired()
            .wrapping_add(1)
            .wrapping_sub(u64::from(index));
        self.idx = index;
        self.masked = None;
    }
}

/// The SFI masked state an ALU op leaves: an `And` masks its
/// destination.
#[inline(always)]
fn masked(op: AluOp, dst: Reg) -> Option<Reg> {
    (op == AluOp::And).then_some(dst)
}

// The executor. Lives here rather than in `machine.rs` so the whole
// engine — op forms, compiler and arms — reads as one unit; it reaches
// the machine's crate-private state directly.
impl Machine {
    /// The chain state at the machine's pc.
    #[inline(always)]
    fn chain(&self) -> Chain {
        Chain {
            func: self.arch.pc.func,
            idx: self.arch.pc.index,
            base: self
                .arch
                .stats
                .instructions
                .wrapping_sub(u64::from(self.arch.pc.index)),
            masked: self.arch.last_masked,
            cycles: self.arch.stats.cycles,
            icb: self.ic_slot_base(self.arch.pc.func),
        }
    }

    /// Writes the chain state back to the machine.
    #[inline(always)]
    fn settle(&mut self, c: Chain) {
        self.arch.pc = CodeAddr {
            func: c.func,
            index: c.idx,
        };
        self.arch.stats.instructions = c.retired();
        self.arch.last_masked = c.masked;
        self.arch.stats.cycles = c.cycles;
    }

    /// Settles the machine after the op at `c.idx` raised `trap`: the
    /// faulting op retires and the pc points past it, while `last_masked`
    /// keeps its value from before the op (a faulting op never writes
    /// it). Every trap an arm returns has been through here.
    #[cold]
    #[inline(never)]
    fn fault(&mut self, mut c: Chain, trap: Trap) -> Trap {
        c.idx += 1;
        self.settle(c);
        trap
    }

    /// Retires the call or return at `c.idx` and moves to `index` of
    /// `func`.
    #[inline(always)]
    fn enter(&self, c: &mut Chain, func: FuncId, index: u32) {
        c.jump(index);
        c.func = func;
        c.icb = self.ic_slot_base(func);
    }

    /// Reports the access at `at` to the installed tracer.
    #[cold]
    #[inline(never)]
    fn trace(&mut self, at: CodeAddr, is_store: bool, va: VirtAddr) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(at, is_store, va.0);
        }
    }

    /// `dst <- base + offset`.
    #[inline(always)]
    fn lea(&mut self, c: &mut Chain, dst: Reg, base: Reg, offset: i64, cost: u8) {
        c.cycles += self.charges.get(cost);
        self.arch.regs[dst.index()] = self.arch.regs[base.index()].wrapping_add(offset as u64);
        c.retire(None);
    }

    /// `dst <- dst op imm`.
    #[inline(always)]
    fn alu_imm(&mut self, c: &mut Chain, op: AluOp, dst: Reg, imm: u64, cost: u8) {
        c.cycles += self.charges.get(cost);
        self.alu(op, dst, imm);
        c.retire(masked(op, dst));
    }

    /// 8-byte load: the SFI dependency stall when the address register
    /// was just masked, the access, then the page-walk and cache-miss
    /// charges.
    #[inline(always)]
    fn load(
        &mut self,
        c: &mut Chain,
        dst: Reg,
        addr: Reg,
        offset: i64,
        cost: u8,
    ) -> Result<(), Trap> {
        c.cycles += self.charges.get(cost);
        if c.masked == Some(addr) {
            c.cycles += self.cost.sfi_load_dependency;
        }
        let va = VirtAddr(self.arch.regs[addr.index()].wrapping_add(offset as u64));
        let (value, info) = match self.read(c, va) {
            Ok(r) => r,
            Err(t) => return Err(self.fault(*c, t)),
        };
        if !info.tlb_hit {
            c.cycles += info.walk_levels as f64 * self.cost.walk_per_level;
        }
        c.cycles += self.cost.miss_penalty(info.hit_level);
        self.arch.regs[dst.index()] = value;
        self.arch.stats.loads += 1;
        c.retire(None);
        Ok(())
    }

    /// The access of [`Machine::load`]: the tracer hook (the tracer sees
    /// the access before it can fault), the EPC check, then the op's
    /// inline-cache slot — with the cache disabled the `ic` table is
    /// empty, every slot lookup misses, and the full pipeline runs.
    #[inline(always)]
    fn read(&mut self, c: &Chain, va: VirtAddr) -> Result<(u64, AccessInfo), Trap> {
        if self.tracer.is_some() {
            let at = CodeAddr {
                func: c.func,
                index: c.idx,
            };
            self.trace(at, false, va);
        }
        self.check_epc(va.0)?;
        Ok(match self.ic.get_mut((c.icb + c.idx) as usize) {
            Some(e) => self.space.ic_read_u64(va, e)?,
            None => self.space.read_u64_info(va)?,
        })
    }

    /// 8-byte store: the access, then the page-walk charge and the
    /// store-buffer sliver of the miss latency.
    #[inline(always)]
    fn store(
        &mut self,
        c: &mut Chain,
        src: Reg,
        addr: Reg,
        offset: i64,
        cost: u8,
    ) -> Result<(), Trap> {
        c.cycles += self.charges.get(cost);
        let va = VirtAddr(self.arch.regs[addr.index()].wrapping_add(offset as u64));
        let info = match self.write(c, va, self.arch.regs[src.index()]) {
            Ok(info) => info,
            Err(t) => return Err(self.fault(*c, t)),
        };
        if !info.tlb_hit {
            c.cycles += info.walk_levels as f64 * self.cost.walk_per_level;
        }
        // Stores retire through the store buffer; only a sliver of the
        // miss latency is exposed.
        c.cycles += self.cost.store_buffer_exposure * self.cost.miss_penalty(info.hit_level);
        self.arch.stats.stores += 1;
        c.retire(None);
        Ok(())
    }

    /// The access of [`Machine::store`]; see [`Machine::read`].
    #[inline(always)]
    fn write(&mut self, c: &Chain, va: VirtAddr, value: u64) -> Result<AccessInfo, Trap> {
        if self.tracer.is_some() {
            let at = CodeAddr {
                func: c.func,
                index: c.idx,
            };
            self.trace(at, true, va);
        }
        self.check_epc(va.0)?;
        Ok(match self.ic.get_mut((c.icb + c.idx) as usize) {
            Some(e) => self.space.ic_write_u64(va, value, e)?,
            None => self.space.write_u64(va, value)?,
        })
    }

    /// Upper-bound check; the check counts even when it faults.
    #[inline(always)]
    fn bndcu(&mut self, c: &mut Chain, bnd: u8, reg: Reg, cost: u8) -> Result<(), Trap> {
        c.cycles += self.charges.get(cost);
        self.arch.stats.bound_checks += 1;
        let value = self.arch.regs[reg.index()];
        let (_, upper) = self.arch.bnd[bnd as usize];
        if value > upper {
            let trap = Trap::BoundRange {
                reg,
                value,
                bound: upper,
            };
            return Err(self.fault(*c, trap));
        }
        c.retire(None);
        Ok(())
    }

    /// Runs a cold op on the settled machine: the chain state is written
    /// back as if the op had retired, the op's body (`Machine::cold_op`)
    /// reads and writes the machine directly — a system call may halt or,
    /// through `sigreturn`, move the pc anywhere — and the chain state is
    /// reloaded from wherever it left the pc. On a trap the machine is
    /// already settled as [`Machine::fault`] would leave it.
    #[cold]
    fn exec_cold(&mut self, mut c: Chain, cost: f64, op: &COp) -> Result<Chain, Trap> {
        c.cycles += cost;
        c.idx += 1;
        self.settle(c);
        self.cold_op(op)?;
        self.arch.last_masked = None;
        Ok(self.chain())
    }

    /// Retires `ops` in order, each — one source instruction, or two for
    /// a fused op — through its arm: the one place every op's semantics
    /// and charges are written, shared by `exec_chain` (a compiled run or
    /// a slice of the decoded stream) and `exec_one` (a single op). A
    /// fused arm runs its two halves' bodies back to back. Straight-line
    /// arms go straight on to the next op; the slice ends at the first op
    /// that moves the pc or halts.
    ///
    /// # Errors
    ///
    /// The [`Trap`] an op raised, with the machine already settled at the
    /// faulting op.
    #[inline(always)]
    fn exec_ops(&mut self, c: &mut Chain, ops: &[COp]) -> Result<(), Trap> {
        for op in ops {
            match *op {
                COp::MovImm { dst, imm, cost } => {
                    c.cycles += self.charges.get(cost);
                    self.arch.regs[dst.index()] = imm;
                    c.retire(None);
                }
                COp::Mov { dst, src, cost } => {
                    c.cycles += self.charges.get(cost);
                    self.arch.regs[dst.index()] = self.arch.regs[src.index()];
                    c.retire(None);
                }
                COp::Lea {
                    dst,
                    base,
                    offset,
                    cost,
                } => self.lea(c, dst, base, offset, cost),
                COp::AluReg { op, dst, src, cost } => {
                    c.cycles += self.charges.get(cost);
                    let b = self.arch.regs[src.index()];
                    self.alu(op, dst, b);
                    c.retire(masked(op, dst));
                }
                COp::AluImm { op, dst, imm, cost } => self.alu_imm(c, op, dst, imm, cost),
                COp::Load {
                    dst,
                    addr,
                    offset,
                    cost,
                } => self.load(c, dst, addr, offset, cost)?,
                COp::Store {
                    src,
                    addr,
                    offset,
                    cost,
                } => self.store(c, src, addr, offset, cost)?,
                COp::Skip { cost } => {
                    c.cycles += self.charges.get(cost);
                    c.retire(None);
                }
                COp::BndMk {
                    bnd,
                    lower,
                    upper,
                    cost,
                } => {
                    c.cycles += self.charges.get(cost);
                    self.arch.bnd[bnd as usize] = (lower, upper);
                    c.retire(None);
                }
                COp::BndCu { bnd, reg, cost } => self.bndcu(c, bnd, reg, cost)?,
                COp::BndCl { bnd, reg, cost } => {
                    c.cycles += self.charges.get(cost);
                    self.arch.stats.bound_checks += 1;
                    let value = self.arch.regs[reg.index()];
                    let (lower, _) = self.arch.bnd[bnd as usize];
                    if value < lower {
                        let trap = Trap::BoundRange {
                            reg,
                            value,
                            bound: lower,
                        };
                        return Err(self.fault(*c, trap));
                    }
                    c.retire(None);
                }
                COp::RdPkru { dst, cost } => {
                    c.cycles += self.charges.get(cost);
                    self.arch.regs[dst.index()] = self.space.pkru.0 as u64;
                    c.retire(None);
                }
                COp::WrPkru { src, cost } => {
                    c.cycles += self.charges.get(cost);
                    self.space.pkru = Pkru(self.arch.regs[src.index()] as u32);
                    self.arch.stats.wrpkrus += 1;
                    c.retire(None);
                }

                // --- terminators -------------------------------------------
                COp::Jmp { target, cost } => {
                    c.cycles += self.charges.get(cost);
                    c.jump(target);
                    return Ok(());
                }
                COp::JmpIf {
                    cond,
                    a,
                    b,
                    target,
                    cost,
                } => {
                    c.cycles += self.charges.get(cost);
                    let taken = cond.eval(self.arch.regs[a.index()], self.arch.regs[b.index()]);
                    c.jump(if taken { target } else { c.idx + 1 });
                    return Ok(());
                }
                COp::BadLabel { label, cost } => {
                    c.cycles += self.charges.get(cost);
                    return Err(self.fault(*c, Trap::BadLabel { label: label.0 }));
                }
                COp::Call { callee, ret, cost } => {
                    c.cycles += self.charges.get(cost);
                    if let Err(t) = self.push_u64(ret) {
                        return Err(self.fault(*c, t));
                    }
                    self.arch.stats.calls += 1;
                    self.enter(c, callee, 0);
                    return Ok(());
                }
                COp::CallIndirect { target, ret, cost } => {
                    c.cycles += self.charges.get(cost);
                    let value = self.arch.regs[target.index()];
                    let dest = match CodeAddr::decode(value) {
                        Some(d) if (d.func.0 as usize) < self.program.functions.len() => d,
                        _ => return Err(self.fault(*c, Trap::BadCodePointer { value })),
                    };
                    if let Err(t) = self.push_u64(ret) {
                        return Err(self.fault(*c, t));
                    }
                    self.arch.stats.indirect_calls += 1;
                    self.enter(c, dest.func, dest.index);
                    return Ok(());
                }
                COp::Ret { cost } => {
                    c.cycles += self.charges.get(cost);
                    let value = match self.pop_u64() {
                        Ok(v) => v,
                        Err(t) => return Err(self.fault(*c, t)),
                    };
                    let dest = match CodeAddr::decode(value) {
                        Some(d)
                            if (d.func.0 as usize) < self.program.functions.len()
                                && d.index as usize <= self.program.func(d.func).body.len() =>
                        {
                            d
                        }
                        _ => return Err(self.fault(*c, Trap::BadCodePointer { value })),
                    };
                    self.arch.stats.rets += 1;
                    self.enter(c, dest.func, dest.index);
                    return Ok(());
                }
                COp::Halt { cost } => {
                    c.cycles += self.charges.get(cost);
                    self.arch.halted = Some(self.arch.regs[Reg::Rax.index()]);
                    c.retire(None);
                    return Ok(());
                }

                // --- cold ops ----------------------------------------------
                COp::Syscall { cost, .. } | COp::VmCall { cost, .. } => {
                    *c = self.exec_cold(*c, cost, op)?;
                    return Ok(());
                }
                COp::Alloc { cost, .. }
                | COp::Free { cost, .. }
                | COp::VmFunc { cost, .. }
                | COp::YmmToXmm { cost }
                | COp::AesSetup { cost }
                | COp::AesRegion { cost, .. }
                | COp::SgxEnter { cost }
                | COp::SgxExit { cost } => *c = self.exec_cold(*c, cost, op)?,

                // --- fused superinstructions: both halves' bodies ----------
                COp::AluImmAluImm {
                    op1,
                    dst1,
                    imm1,
                    cost1,
                    op2,
                    dst2,
                    imm2,
                    cost2,
                } => {
                    self.alu_imm(c, op1, dst1, imm1, cost1);
                    self.alu_imm(c, op2, dst2, imm2, cost2);
                }
                COp::AluImmLoad {
                    op1,
                    dst1,
                    imm1,
                    cost1,
                    dst2,
                    addr2,
                    offset2,
                    cost2,
                } => {
                    self.alu_imm(c, op1, dst1, imm1, cost1);
                    self.load(c, dst2, addr2, offset2, cost2)?;
                }
                COp::LoadAluImm {
                    dst1,
                    addr1,
                    offset1,
                    cost1,
                    op2,
                    dst2,
                    imm2,
                    cost2,
                } => {
                    self.load(c, dst1, addr1, offset1, cost1)?;
                    self.alu_imm(c, op2, dst2, imm2, cost2);
                }
                COp::LoadLoad {
                    dst1,
                    addr1,
                    offset1,
                    cost1,
                    dst2,
                    addr2,
                    offset2,
                    cost2,
                } => {
                    self.load(c, dst1, addr1, offset1, cost1)?;
                    self.load(c, dst2, addr2, offset2, cost2)?;
                }
                COp::AluImmStore {
                    op1,
                    dst1,
                    imm1,
                    cost1,
                    src2,
                    addr2,
                    offset2,
                    cost2,
                } => {
                    self.alu_imm(c, op1, dst1, imm1, cost1);
                    self.store(c, src2, addr2, offset2, cost2)?;
                }
                COp::StoreAluImm {
                    src1,
                    addr1,
                    offset1,
                    cost1,
                    op2,
                    dst2,
                    imm2,
                    cost2,
                } => {
                    self.store(c, src1, addr1, offset1, cost1)?;
                    self.alu_imm(c, op2, dst2, imm2, cost2);
                }
                COp::StoreLoad {
                    src1,
                    addr1,
                    offset1,
                    cost1,
                    dst2,
                    addr2,
                    offset2,
                    cost2,
                } => {
                    self.store(c, src1, addr1, offset1, cost1)?;
                    self.load(c, dst2, addr2, offset2, cost2)?;
                }
                COp::LoadStore {
                    dst1,
                    addr1,
                    offset1,
                    cost1,
                    src2,
                    addr2,
                    offset2,
                    cost2,
                } => {
                    self.load(c, dst1, addr1, offset1, cost1)?;
                    self.store(c, src2, addr2, offset2, cost2)?;
                }
                COp::LeaAluImm {
                    dst1,
                    base1,
                    offset1,
                    cost1,
                    op2,
                    dst2,
                    imm2,
                    cost2,
                } => {
                    self.lea(c, dst1, base1, offset1, cost1);
                    self.alu_imm(c, op2, dst2, imm2, cost2);
                }
                COp::AluImmLea {
                    op1,
                    dst1,
                    imm1,
                    cost1,
                    dst2,
                    base2,
                    offset2,
                    cost2,
                } => {
                    self.alu_imm(c, op1, dst1, imm1, cost1);
                    self.lea(c, dst2, base2, offset2, cost2);
                }
                COp::LoadLea {
                    dst1,
                    addr1,
                    offset1,
                    cost1,
                    dst2,
                    base2,
                    offset2,
                    cost2,
                } => {
                    self.load(c, dst1, addr1, offset1, cost1)?;
                    self.lea(c, dst2, base2, offset2, cost2);
                }
                COp::LeaBndCu {
                    dst1,
                    base1,
                    offset1,
                    cost1,
                    bnd2,
                    reg2,
                    cost2,
                } => {
                    self.lea(c, dst1, base1, offset1, cost1);
                    self.bndcu(c, bnd2, reg2, cost2)?;
                }
                COp::BndCuLoad {
                    bnd1,
                    reg1,
                    cost1,
                    dst2,
                    addr2,
                    offset2,
                    cost2,
                } => {
                    self.bndcu(c, bnd1, reg1, cost1)?;
                    self.load(c, dst2, addr2, offset2, cost2)?;
                }
                COp::BndCuStore {
                    bnd1,
                    reg1,
                    cost1,
                    src2,
                    addr2,
                    offset2,
                    cost2,
                } => {
                    self.bndcu(c, bnd1, reg1, cost1)?;
                    self.store(c, src2, addr2, offset2, cost2)?;
                }
            }
        }
        Ok(())
    }

    /// Chains runs back to back from the current pc until the machine
    /// halts, a trap fires, or the retired-instruction count reaches
    /// `horizon`. At a block entry point whose compiled run fits the
    /// remaining budget the chain runs the fused run; anywhere else — an
    /// entry in the middle of a block, or a block the horizon cuts short
    /// — it runs the block's single-form ops from the decoded stream, up
    /// to the horizon. On every exit the pc, `last_masked` and `stats`
    /// are settled exactly as retiring one instruction at a time would
    /// have left them (property-tested against `Machine::step` in
    /// `tests/properties.rs` over random programs × event schedules).
    ///
    /// None of the chain state is observable mid-chain: the caller
    /// guarantees no event boundary, fuel boundary or preemption falls
    /// before `horizon`, and syscall/hypercall handlers see only the
    /// address space. A pc with no code behind it (one past a function's
    /// end, or a function that does not exist) raises
    /// [`Trap::BadCodePointer`] without retiring anything.
    pub(crate) fn exec_chain(
        &mut self,
        code: &[DecodedFunction],
        compiled: &[CompiledFunction],
        horizon: u64,
    ) -> Result<(), Trap> {
        let mut c = self.chain();
        loop {
            let budget = horizon - c.retired();
            let ops = match compiled.get(c.func.0 as usize).and_then(|cf| cf.run(c.idx)) {
                Some((ops, n_insts)) if u64::from(n_insts) <= budget => ops,
                _ => {
                    if budget == 0 {
                        self.settle(c);
                        return Ok(());
                    }
                    let start = c.idx as usize;
                    let Some(f) = code.get(c.func.0 as usize).filter(|f| start < f.ops.len())
                    else {
                        self.settle(c);
                        return Err(Trap::BadCodePointer {
                            value: self.arch.pc.encode(),
                        });
                    };
                    let mut end = f.block_ends[start] as usize;
                    if (end - start) as u64 > budget {
                        end = start + budget as usize;
                    }
                    &f.ops[start..end]
                }
            };
            // The slice either ran out (the chain falls through to the
            // next index with the masked state intact; past the end of a
            // body the next lookup raises `BadCodePointer`) or ended at an
            // op that moved the pc or halted.
            self.exec_ops(&mut c, ops)?;
            if self.arch.halted.is_some() {
                self.settle(c);
                return Ok(());
            }
        }
    }

    /// Retires the one instruction at the pc through the same arms,
    /// with the chain state loaded from the machine and settled back:
    /// `Machine::step`'s lean single-op entry, which never enters the
    /// chain loop.
    pub(crate) fn exec_one(&mut self) -> Result<(), Trap> {
        let Some(&op) = self
            .code
            .get(self.arch.pc.func.0 as usize)
            .and_then(|f| f.ops.get(self.arch.pc.index as usize))
        else {
            return Err(Trap::BadCodePointer {
                value: self.arch.pc.encode(),
            });
        };
        // The decoded stream holds single forms only; saying so lets the
        // compiler leave the fused arms out of this copy.
        if op.is_fused() {
            unreachable!("fused {op:?} outside a compiled run");
        }
        let mut c = self.chain();
        self.exec_ops(&mut c, std::slice::from_ref(&op))?;
        self.settle(c);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::decode::decode_program;
    use crate::machine::{Machine, RunOutcome};
    use memsentry_ir::{FunctionBuilder, Inst, Program};

    /// Steps `m` one instruction at a time to an outcome.
    fn run_stepping(m: &mut Machine) -> RunOutcome {
        loop {
            match m.step() {
                Ok(()) => {
                    if let Some(code) = m.exit_code() {
                        return RunOutcome::Exited(code);
                    }
                }
                Err(t) => return RunOutcome::Trapped(t),
            }
        }
    }

    /// Runs the same program through `run` (compiled runs chained back
    /// to back) and through `step` (one single-form op at a time) and
    /// asserts every observable — outcome, stats (cycles bit-exact via
    /// `PartialEq` on the same add sequence), pc and full state digest —
    /// is identical. `prepare` sets each machine up before it runs.
    fn assert_run_matches_step_with(
        build: impl Fn(&mut Program),
        prepare: impl Fn(&mut Machine),
    ) -> Machine {
        let machine = || {
            let mut p = Program::new();
            build(&mut p);
            let mut m = Machine::new(p);
            prepare(&mut m);
            m
        };
        let mut run = machine();
        let out_run = run.run();
        let mut stepped = machine();
        let out_step = run_stepping(&mut stepped);
        assert_eq!(out_run, out_step, "outcome");
        assert_eq!(run.stats(), stepped.stats(), "stats");
        assert_eq!(
            run.cycles().to_bits(),
            stepped.cycles().to_bits(),
            "cycle bits"
        );
        assert_eq!(run.pc(), stepped.pc(), "pc");
        assert_eq!(run.state_digest(), stepped.state_digest(), "digest");
        run
    }

    fn assert_run_matches_step(build: impl Fn(&mut Program)) -> Machine {
        assert_run_matches_step_with(build, |_| {})
    }

    fn main_only(build: impl Fn(&mut FunctionBuilder)) -> impl Fn(&mut Program) {
        move |p: &mut Program| {
            let mut b = FunctionBuilder::new("main");
            build(&mut b);
            p.add_function(b.finish());
        }
    }

    #[test]
    fn run_matches_step_on_fused_families_and_loops() {
        let m = assert_run_matches_step(main_only(|b| {
            let top = b.new_label();
            // Scratch buffer on the mapped stack, below the live frame.
            b.push(Inst::Lea {
                dst: Reg::Rbx,
                base: Reg::Rsp,
                offset: -256,
            });
            b.push(Inst::MovImm {
                dst: Reg::Rax,
                imm: 0,
            });
            b.push(Inst::MovImm {
                dst: Reg::Rcx,
                imm: 10,
            });
            b.push(Inst::BndMk {
                bnd: 0,
                lower: 0,
                upper: u64::MAX,
            });
            b.bind(top);
            // store+aluimm, aluimm+store material.
            b.push(Inst::Store {
                src: Reg::Rax,
                addr: Reg::Rbx,
                offset: 0,
            });
            b.push(Inst::AluImm {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 3,
            });
            b.push(Inst::AluImm {
                op: AluOp::Xor,
                dst: Reg::Rax,
                imm: 1,
            });
            // SFI bracket: the mask feeds the load's address register, so
            // the fused pair must keep the dependency charge.
            b.push(Inst::AluImm {
                op: AluOp::And,
                dst: Reg::Rbx,
                imm: u64::MAX,
            });
            b.push(Inst::Load {
                dst: Reg::Rdx,
                addr: Reg::Rbx,
                offset: 0,
            });
            b.push(Inst::Load {
                dst: Reg::Rsi,
                addr: Reg::Rbx,
                offset: 0,
            });
            // MPX bracket: lea+bndcu then the checked access.
            b.push(Inst::Lea {
                dst: Reg::Rdi,
                base: Reg::Rbx,
                offset: 8,
            });
            b.push(Inst::BndCu {
                bnd: 0,
                reg: Reg::Rdi,
            });
            b.push(Inst::Store {
                src: Reg::Rdx,
                addr: Reg::Rdi,
                offset: 0,
            });
            b.push(Inst::AluImm {
                op: AluOp::Sub,
                dst: Reg::Rcx,
                imm: 1,
            });
            b.push(Inst::MovImm {
                dst: Reg::R8,
                imm: 0,
            });
            b.push(Inst::JmpIf {
                cond: Cond::Ne,
                a: Reg::Rcx,
                b: Reg::R8,
                target: top,
            });
            b.push(Inst::Halt);
        }));
        assert!(m.stats().loads > 0 && m.stats().stores > 0);
        assert!(m.stats().bound_checks > 0);
    }

    #[test]
    fn run_matches_step_on_calls_and_returns() {
        assert_run_matches_step(|p| {
            let mut callee = FunctionBuilder::new("callee");
            callee.push(Inst::AluImm {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 41,
            });
            callee.push(Inst::Ret);
            let mut main = FunctionBuilder::new("main");
            main.push(Inst::MovImm {
                dst: Reg::Rax,
                imm: 1,
            });
            main.push(Inst::Call(FuncId(1)));
            main.push(Inst::MovImm {
                dst: Reg::Rbx,
                imm: CodeAddr::entry(FuncId(1)).encode(),
            });
            main.push(Inst::CallIndirect { target: Reg::Rbx });
            main.push(Inst::Halt);
            p.add_function(main.finish());
            p.add_function(callee.finish());
        });
    }

    #[test]
    fn run_matches_step_on_cold_ops() {
        // Allocator, AES staging and regions, SGX transitions and the
        // exiting system call all run on the settled machine.
        let m = assert_run_matches_step_with(
            main_only(|b| {
                b.push(Inst::MovImm {
                    dst: Reg::Rdi,
                    imm: 64,
                });
                b.push(Inst::Alloc { size: Reg::Rdi });
                b.push(Inst::Mov {
                    dst: Reg::Rbx,
                    src: Reg::Rax,
                });
                b.push(Inst::MovImm {
                    dst: Reg::Rcx,
                    imm: 77,
                });
                b.push(Inst::Store {
                    src: Reg::Rcx,
                    addr: Reg::Rbx,
                    offset: 0,
                });
                b.push(Inst::AesKeygen);
                b.push(Inst::YmmToXmm { count: 11 });
                b.push(Inst::AesRegion {
                    base: Reg::Rbx,
                    chunks: 2,
                    decrypt: false,
                });
                b.push(Inst::AesRegion {
                    base: Reg::Rbx,
                    chunks: 2,
                    decrypt: true,
                });
                b.push(Inst::SgxEnter);
                b.push(Inst::Load {
                    dst: Reg::Rdi,
                    addr: Reg::Rbx,
                    offset: 0,
                });
                b.push(Inst::SgxExit);
                b.push(Inst::Free { ptr: Reg::Rbx });
                b.push(Inst::Syscall { nr: 0 });
                b.push(Inst::Halt);
            }),
            |m| m.install_aes_key(&[9u8; 16]),
        );
        assert_eq!(m.exit_code(), Some(77));
        assert_eq!(m.stats().aes_chunks, 4);
        assert_eq!(m.stats().allocator_calls, 2);
        assert_eq!(m.stats().sgx_transitions, 1);
    }

    #[test]
    fn run_matches_step_on_fault_inside_fused_pair() {
        // The faulting load sits in the second half of an aluimm+load
        // superinstruction; the trap must retire the faulting op, leave
        // the pc past it and report the same state everywhere.
        let m = assert_run_matches_step(main_only(|b| {
            b.push(Inst::MovImm {
                dst: Reg::Rbx,
                imm: 0x100,
            });
            b.push(Inst::AluImm {
                op: AluOp::Add,
                dst: Reg::Rbx,
                imm: 8,
            });
            b.push(Inst::Load {
                dst: Reg::Rax,
                addr: Reg::Rbx,
                offset: 0,
            });
            b.push(Inst::Halt);
        }));
        assert_eq!(m.pc().index, 3);
    }

    #[test]
    fn run_matches_step_on_bound_trap_inside_fused_pair() {
        assert_run_matches_step(main_only(|b| {
            b.push(Inst::BndMk {
                bnd: 0,
                lower: 0,
                upper: 0x1000,
            });
            b.push(Inst::Lea {
                dst: Reg::Rdi,
                base: Reg::Rsp,
                offset: 0,
            });
            b.push(Inst::BndCu {
                bnd: 0,
                reg: Reg::Rdi,
            });
            b.push(Inst::Halt);
        }));
    }

    #[test]
    fn run_matches_step_when_fuel_cuts_a_block() {
        // An absolute fuel boundary lands mid-block: the chain must run
        // the cut block's single-form ops and stop on the same
        // instruction with the same partial state.
        let machine = || {
            let mut p = Program::new();
            let mut b = FunctionBuilder::new("main");
            for i in 0..20 {
                b.push(Inst::MovImm {
                    dst: Reg::Rax,
                    imm: i,
                });
            }
            b.push(Inst::Halt);
            p.add_function(b.finish());
            let mut m = Machine::new(p);
            m.set_fuel(7);
            m
        };
        let mut run = machine();
        let out = run.run();
        let mut stepped = machine();
        assert_eq!(out, run_stepping(&mut stepped));
        assert_eq!(out, RunOutcome::Trapped(Trap::OutOfFuel));
        let observe = |m: &Machine| (m.pc(), *m.stats(), m.state_digest());
        assert_eq!(observe(&run), observe(&stepped));
    }

    /// An access tracer that appends to a log the test keeps a handle on.
    #[derive(Debug, Default, Clone)]
    struct Log(std::rc::Rc<std::cell::RefCell<Vec<(CodeAddr, bool, u64)>>>);

    impl crate::machine::AccessTracer for Log {
        fn record(&mut self, at: CodeAddr, is_store: bool, va: u64) {
            self.0.borrow_mut().push((at, is_store, va));
        }
    }

    #[test]
    fn tracer_sees_every_access_in_order_without_changing_the_run() {
        // main: a fused load+load, a fused bndcu+store, a call whose
        // callee stores, then an aluimm+load pair whose load faults.
        let build = || {
            let mut p = Program::new();
            let mut main = FunctionBuilder::new("main");
            main.push(Inst::Lea {
                dst: Reg::Rbx,
                base: Reg::Rsp,
                offset: -256,
            });
            main.push(Inst::BndMk {
                bnd: 0,
                lower: 0,
                upper: u64::MAX,
            });
            main.push(Inst::Load {
                dst: Reg::Rax,
                addr: Reg::Rbx,
                offset: 0,
            });
            main.push(Inst::Load {
                dst: Reg::Rcx,
                addr: Reg::Rbx,
                offset: 8,
            });
            main.push(Inst::BndCu {
                bnd: 0,
                reg: Reg::Rbx,
            });
            main.push(Inst::Store {
                src: Reg::Rax,
                addr: Reg::Rbx,
                offset: 16,
            });
            main.push(Inst::Call(FuncId(1)));
            main.push(Inst::MovImm {
                dst: Reg::Rdx,
                imm: 0x100,
            });
            main.push(Inst::AluImm {
                op: AluOp::Add,
                dst: Reg::Rdx,
                imm: 8,
            });
            main.push(Inst::Load {
                dst: Reg::R8,
                addr: Reg::Rdx,
                offset: 0,
            });
            main.push(Inst::Halt);
            p.add_function(main.finish());
            let mut helper = FunctionBuilder::new("helper");
            helper.push(Inst::Store {
                src: Reg::Rcx,
                addr: Reg::Rbx,
                offset: 24,
            });
            helper.push(Inst::Ret);
            p.add_function(helper.finish());
            p
        };
        // The accesses sit in fused pairs of the compiled runs.
        let compiled = compile_program(&decode_program(&build(), &CostModel::default()).0);
        let has = |index: u32, fused: fn(&COp) -> bool| {
            compiled[0]
                .run(index)
                .is_some_and(|(ops, _)| ops.iter().any(fused))
        };
        assert!(has(0, |op| matches!(op, COp::LoadLoad { .. })));
        assert!(has(0, |op| matches!(op, COp::BndCuStore { .. })));
        assert!(has(7, |op| matches!(op, COp::AluImmLoad { .. })));

        let mut plain = Machine::new(build());
        let plain_out = plain.run();
        let log = Log::default();
        let mut traced = Machine::new(build());
        traced.set_tracer(Box::new(log.clone()));
        let traced_out = traced.run();

        assert_eq!(plain_out, traced_out);
        assert!(
            matches!(traced_out, RunOutcome::Trapped(Trap::Mmu(_))),
            "{traced_out:?}"
        );
        assert_eq!(plain.stats(), traced.stats());
        assert_eq!(plain.cycles().to_bits(), traced.cycles().to_bits());
        assert_eq!(plain.pc(), traced.pc());
        assert_eq!(plain.state_digest(), traced.state_digest());

        let base = crate::machine::STACK_TOP - 64 - 256;
        let main = |index| CodeAddr {
            func: FuncId(0),
            index,
        };
        let helper = |index| CodeAddr {
            func: FuncId(1),
            index,
        };
        assert_eq!(
            *log.0.borrow(),
            vec![
                (main(2), false, base),
                (main(3), false, base + 8),
                (main(5), true, base + 16),
                (helper(0), true, base + 24),
                (main(9), false, 0x108),
            ]
        );
    }

    fn decode_main(build: impl Fn(&mut FunctionBuilder)) -> Vec<DecodedFunction> {
        let mut p = Program::new();
        main_only(build)(&mut p);
        decode_program(&p, &CostModel::default()).0
    }

    #[test]
    fn dominant_pairs_fuse_and_retirement_counts_cover_the_block() {
        let code = decode_main(|b| {
            b.push(Inst::AluImm {
                op: AluOp::And,
                dst: Reg::Rbx,
                imm: !0xfff,
            });
            b.push(Inst::Load {
                dst: Reg::Rax,
                addr: Reg::Rbx,
                offset: 0,
            });
            b.push(Inst::AluImm {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 1,
            });
            b.push(Inst::AluImm {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 2,
            });
            b.push(Inst::Halt);
        });
        assert_eq!(code[0].ops.len(), 5, "one single-form op per instruction");
        let compiled = compile_program(&code);
        let (ops, n_insts) = compiled[0].run(0).expect("entry run");
        assert_eq!(n_insts, 5);
        // mask+load fuses, keeping the masked register for the load's SFI
        // dependency; the two trailing adds fuse as aluimm+aluimm.
        assert_eq!(ops.len(), 3);
        assert!(matches!(
            ops[0],
            COp::AluImmLoad {
                op1: AluOp::And,
                dst1: Reg::Rbx,
                addr2: Reg::Rbx,
                ..
            }
        ));
        assert!(matches!(ops[1], COp::AluImmAluImm { .. }));
        assert!(matches!(ops[2], COp::Halt { .. }));
    }

    #[test]
    fn branch_targets_get_their_own_runs() {
        let code = decode_main(|b| {
            let top = b.new_label();
            b.push(Inst::MovImm {
                dst: Reg::Rax,
                imm: 0,
            });
            b.bind(top); // index 1: branch target mid-function
            b.push(Inst::AluImm {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 1,
            });
            b.push(Inst::JmpIf {
                cond: Cond::Ne,
                a: Reg::Rax,
                b: Reg::Rbx,
                target: top,
            });
            b.push(Inst::Halt);
        });
        let compiled = compile_program(&code);
        // Body layout: 0 movimm | 1 label marker (branch target) |
        // 2 aluimm | 3 jmpif | 4 halt.
        let f = &compiled[0];
        assert!(f.run(0).is_some(), "function entry");
        assert!(f.run(1).is_some(), "branch target");
        assert!(f.run(2).is_none(), "mid-block index");
        assert!(f.run(3).is_none(), "terminator mid-block");
        assert!(f.run(4).is_some(), "post-terminator fall-through");
    }

    #[test]
    fn an_op_takes_three_words() {
        // The decoded stream holds one op per instruction, so its width
        // is the per-instruction construction cost.
        assert_eq!(std::mem::size_of::<COp>(), 24);
    }
}
