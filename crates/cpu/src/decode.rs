//! Decoding: IR function bodies to the engine's single-form ops.
//!
//! At construction the [`crate::Machine`] lowers every [`Function`] body
//! into a flat stream of [`COp`]s — the op form the executor's arms run —
//! so no instruction is ever interpreted from the IR:
//!
//! - jump and branch targets are resolved from [`Label`]s to instruction
//!   indices once, eliminating the per-transfer
//!   `label_tables[func][&label]` hash lookup;
//! - the static per-instruction cycle charge
//!   ([`CostModel::inst_cost`]) rides in each op — for the hot ops as a
//!   one-byte index into the interned [`Charges`] table — so retiring one
//!   adds a float instead of matching on [`Inst`];
//! - direct and indirect calls carry their pre-encoded return address.
//!
//! The stream is index-1:1 with the function body: `Label` markers decode
//! to [`COp::Skip`] slots, so [`CodeAddr`] encodings, tracer addresses and
//! code-pointer range checks are unchanged. A jump to a label missing
//! from its function decodes to [`COp::BadLabel`], which raises
//! [`crate::Trap::BadLabel`] if executed — hostile IR traps instead of
//! panicking, and decoding itself is infallible.
//!
//! On top of the flat stream, decoding groups each body into straight-line
//! **basic blocks**: [`DecodedFunction::block_ends`] maps every
//! instruction index to one past the nearest block terminator at or after
//! it (branches, calls, returns, syscalls, hypercalls and halts —
//! everything that can move the program counter non-sequentially or stop
//! the machine). The `compile` stage builds a fused run for every block
//! entry point; an entry in the middle of a block (a replay seek, a
//! `sigreturn`, a horizon cut) and `Machine::step` execute the single-form
//! ops straight from this stream, through the same arms.

use memsentry_ir::{CodeAddr, FuncId, Function, Inst, Label, Program};

use crate::compile::COp;
use crate::cost::CostModel;

/// The static charges of a program's hot ops, interned: a hot op's
/// `cost` field is an index into this table. A hot op's charge depends
/// only on its kind (and, for an ALU op, on whether it multiplies), so
/// the hot ops of any program need at most 20 entries.
#[derive(Debug, Clone)]
pub(crate) struct Charges {
    table: [f64; CHARGES],
    len: usize,
}

/// Entries in a [`Charges`] table: a power of two, so an index masks
/// into range without a bounds check.
const CHARGES: usize = 32;

impl Charges {
    fn new() -> Self {
        Self {
            table: [0.0; CHARGES],
            len: 0,
        }
    }

    /// The index of `charge`, added on first use.
    fn intern(&mut self, charge: f64) -> u8 {
        let bits = charge.to_bits();
        let i = match self.table[..self.len]
            .iter()
            .position(|c| c.to_bits() == bits)
        {
            Some(i) => i,
            None => {
                assert!(
                    self.len < CHARGES,
                    "hot-op charges depend only on the op kind"
                );
                self.table[self.len] = charge;
                self.len += 1;
                self.len - 1
            }
        };
        i as u8
    }

    /// The charge at index `i`.
    #[inline(always)]
    pub fn get(&self, i: u8) -> f64 {
        self.table[usize::from(i) & (CHARGES - 1)]
    }
}

/// One decoded function: the flat op stream plus its basic-block
/// partition.
#[derive(Debug, Clone)]
pub(crate) struct DecodedFunction {
    /// Single-form ops, index-1:1 with the function body.
    pub ops: Vec<COp>,
    /// `block_ends[i]` is one past the index of the first block terminator
    /// at or after `i` — the exclusive end of the straight-line run that
    /// starts at `i`. A trailing run with no terminator ends at
    /// `ops.len()`; executing past it raises [`crate::Trap::BadCodePointer`].
    pub block_ends: Vec<u32>,
}

/// Whether `op` ends a basic block: everything that can change the
/// program counter non-sequentially, halt the machine, or hand control to
/// a handler (syscalls/hypercalls may exit or — via `sigreturn` — jump).
/// Ops that merely *trap* need not end a block: a trap aborts the whole
/// run, so no instruction after it executes either way.
fn is_block_end(op: &COp) -> bool {
    matches!(
        op,
        COp::Jmp { .. }
            | COp::JmpIf { .. }
            | COp::BadLabel { .. }
            | COp::Call { .. }
            | COp::CallIndirect { .. }
            | COp::Ret { .. }
            | COp::Syscall { .. }
            | COp::VmCall { .. }
            | COp::Halt { .. }
    )
}

/// Whether `inst` decodes to a cold op, which `Machine::exec_cold` runs
/// on the settled machine and which carries its own charge (AES and
/// key-staging charges scale with the operands, so they do not intern).
fn is_cold(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Syscall { .. }
            | Inst::VmCall { .. }
            | Inst::Alloc { .. }
            | Inst::Free { .. }
            | Inst::VmFunc { .. }
            | Inst::YmmToXmm { .. }
            | Inst::AesKeygen
            | Inst::AesImc
            | Inst::AesRegion { .. }
            | Inst::SgxEnter
            | Inst::SgxExit
    )
}

/// Computes [`DecodedFunction::block_ends`] with one backward scan.
fn block_ends(ops: &[COp]) -> Vec<u32> {
    let mut ends = vec![0u32; ops.len()];
    let mut end = ops.len() as u32;
    for (i, op) in ops.iter().enumerate().rev() {
        if is_block_end(op) {
            end = i as u32 + 1;
        }
        ends[i] = end;
    }
    ends
}

/// Lowers the body of function `id`, interning hot charges into
/// `charges`; the result is index-1:1 with `func.body`.
fn decode_function(
    id: FuncId,
    func: &Function,
    model: &CostModel,
    charges: &mut Charges,
) -> Vec<COp> {
    let labels = func.label_table();
    func.body
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let inst = node.inst;
            // Hot ops name their charge by its index in `charges`; cold
            // ops carry the charge itself.
            let charge = model.inst_cost(&inst);
            let cost = if is_cold(&inst) {
                0
            } else {
                charges.intern(charge)
            };
            let ret = CodeAddr {
                func: id,
                index: i as u32 + 1,
            }
            .encode();
            let branch = |label: Label, op: &dyn Fn(u32) -> COp| match labels.get(&label) {
                Some(&target) => op(target),
                None => COp::BadLabel { label, cost },
            };
            match inst {
                Inst::MovImm { dst, imm } => COp::MovImm { dst, imm, cost },
                Inst::Mov { dst, src } => COp::Mov { dst, src, cost },
                Inst::Lea { dst, base, offset } => COp::Lea {
                    dst,
                    base,
                    offset,
                    cost,
                },
                Inst::AluReg { op, dst, src } => COp::AluReg { op, dst, src, cost },
                Inst::AluImm { op, dst, imm } => COp::AluImm { op, dst, imm, cost },
                Inst::Load { dst, addr, offset } => COp::Load {
                    dst,
                    addr,
                    offset,
                    cost,
                },
                Inst::Store { src, addr, offset } => COp::Store {
                    src,
                    addr,
                    offset,
                    cost,
                },
                Inst::Label(_) | Inst::Nop | Inst::MFence => COp::Skip { cost },
                Inst::Jmp(l) => branch(l, &|target| COp::Jmp { target, cost }),
                Inst::JmpIf { cond, a, b, target } => branch(target, &|target| COp::JmpIf {
                    cond,
                    a,
                    b,
                    target,
                    cost,
                }),
                Inst::Call(callee) => COp::Call { callee, ret, cost },
                Inst::CallIndirect { target } => COp::CallIndirect { target, ret, cost },
                Inst::Ret => COp::Ret { cost },
                Inst::Syscall { nr } => COp::Syscall { nr, cost: charge },
                Inst::Alloc { size } => COp::Alloc { size, cost: charge },
                Inst::Free { ptr } => COp::Free { ptr, cost: charge },
                Inst::Halt => COp::Halt { cost },
                Inst::BndMk { bnd, lower, upper } => COp::BndMk {
                    bnd,
                    lower,
                    upper,
                    cost,
                },
                Inst::BndCu { bnd, reg } => COp::BndCu { bnd, reg, cost },
                Inst::BndCl { bnd, reg } => COp::BndCl { bnd, reg, cost },
                Inst::RdPkru { dst } => COp::RdPkru { dst, cost },
                Inst::WrPkru { src } => COp::WrPkru { src, cost },
                Inst::VmFunc { eptp } => COp::VmFunc { eptp, cost: charge },
                Inst::VmCall { nr } => COp::VmCall { nr, cost: charge },
                Inst::YmmToXmm { .. } => COp::YmmToXmm { cost: charge },
                Inst::AesKeygen | Inst::AesImc => COp::AesSetup { cost: charge },
                Inst::AesRegion {
                    base,
                    chunks,
                    decrypt,
                } => COp::AesRegion {
                    base,
                    chunks,
                    decrypt,
                    cost: charge,
                },
                Inst::SgxEnter => COp::SgxEnter { cost: charge },
                Inst::SgxExit => COp::SgxExit { cost: charge },
            }
        })
        .collect()
}

/// Lowers every function of `program`, indexed by [`FuncId`], with the
/// charge table its hot ops index.
pub(crate) fn decode_program(
    program: &Program,
    model: &CostModel,
) -> (Vec<DecodedFunction>, Charges) {
    let mut charges = Charges::new();
    let code = program
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let ops = decode_function(FuncId(i as u32), f, model, &mut charges);
            let block_ends = block_ends(&ops);
            DecodedFunction { ops, block_ends }
        })
        .collect();
    (code, charges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsentry_ir::{AluOp, FunctionBuilder, Reg};

    fn decode(b: FunctionBuilder) -> Vec<COp> {
        decode_function(
            FuncId(0),
            &b.finish(),
            &CostModel::default(),
            &mut Charges::new(),
        )
    }

    #[test]
    fn decoded_stream_is_index_identical_to_body() {
        let mut b = FunctionBuilder::new("f");
        let l = b.new_label();
        b.push(Inst::Nop);
        b.bind(l);
        b.push(Inst::Jmp(l));
        let f = b.finish();
        let decoded = decode_function(FuncId(0), &f, &CostModel::default(), &mut Charges::new());
        assert_eq!(decoded.len(), f.body.len());
        // The label marker slot decodes to Skip; the jump resolves to the
        // marker's index.
        let marker = f.label_table()[&l];
        assert!(matches!(decoded[marker as usize], COp::Skip { .. }));
        match *decoded.last().unwrap() {
            COp::Jmp { target, .. } => assert_eq!(target, marker),
            ref other => panic!("expected resolved Jmp, got {other:?}"),
        }
    }

    #[test]
    fn fused_cost_matches_inst_cost() {
        let cost = CostModel::default();
        let mut b = FunctionBuilder::new("f");
        b.push(Inst::MovImm {
            dst: Reg::Rax,
            imm: 1,
        });
        b.push(Inst::Load {
            dst: Reg::Rax,
            addr: Reg::Rbx,
            offset: 0,
        });
        b.push(Inst::AesRegion {
            base: Reg::Rax,
            chunks: 4,
            decrypt: false,
        });
        b.push(Inst::Halt);
        b.push(Inst::AluImm {
            op: AluOp::Mul,
            dst: Reg::Rax,
            imm: 3,
        });
        let f = b.finish();
        let mut charges = Charges::new();
        let ops = decode_function(FuncId(0), &f, &cost, &mut charges);
        for (op, node) in ops.iter().zip(&f.body) {
            let charged = match *op {
                COp::MovImm { cost, .. }
                | COp::Load { cost, .. }
                | COp::Halt { cost }
                | COp::AluImm { cost, .. } => charges.get(cost),
                COp::AesRegion { cost, .. } => cost,
                ref other => panic!("unexpected {other:?}"),
            };
            assert_eq!(charged.to_bits(), cost.inst_cost(&node.inst).to_bits());
        }
        // One entry per distinct hot charge: movimm, load, halt, mul.
        assert_eq!(charges.len, 4);
    }

    #[test]
    fn calls_carry_their_return_address() {
        let mut b = FunctionBuilder::new("f");
        b.push(Inst::Nop);
        b.push(Inst::Call(FuncId(0)));
        b.push(Inst::CallIndirect { target: Reg::Rax });
        let ops = decode_function(
            FuncId(3),
            &b.finish(),
            &CostModel::default(),
            &mut Charges::new(),
        );
        let after = |index| CodeAddr {
            func: FuncId(3),
            index,
        };
        assert!(matches!(ops[1], COp::Call { ret, .. } if ret == after(2).encode()));
        assert!(matches!(ops[2], COp::CallIndirect { ret, .. } if ret == after(3).encode()));
    }

    #[test]
    fn block_ends_partition_at_terminators() {
        let mut b = FunctionBuilder::new("f");
        let l = b.new_label();
        b.push(Inst::MovImm {
            dst: Reg::Rax,
            imm: 1,
        }); // 0: straight
        b.push(Inst::Jmp(l)); // 1: terminator
        b.bind(l); // 2: Label marker (straight)
        b.push(Inst::Nop); // 3: straight
        b.push(Inst::Halt); // 4: terminator
        assert_eq!(block_ends(&decode(b)), vec![2, 2, 5, 5, 5]);
    }

    #[test]
    fn trailing_run_without_terminator_ends_at_body_length() {
        let mut b = FunctionBuilder::new("f");
        b.push(Inst::Nop);
        b.push(Inst::MovImm {
            dst: Reg::Rax,
            imm: 7,
        });
        assert_eq!(block_ends(&decode(b)), vec![2, 2]);
    }

    #[test]
    fn every_index_maps_to_a_valid_block_end() {
        let mut b = FunctionBuilder::new("f");
        let l = b.new_label();
        b.bind(l);
        b.push(Inst::Syscall { nr: 0 });
        b.push(Inst::Call(FuncId(0)));
        b.push(Inst::Ret);
        b.push(Inst::JmpIf {
            cond: memsentry_ir::Cond::Eq,
            a: Reg::Rax,
            b: Reg::Rbx,
            target: l,
        });
        b.push(Inst::Halt);
        let ops = decode(b);
        let ends = block_ends(&ops);
        for (i, &e) in ends.iter().enumerate() {
            assert!(e as usize > i && e as usize <= ops.len(), "{i} -> {e}");
            // Only the last instruction of a block is a terminator.
            for op in &ops[i..e as usize - 1] {
                assert!(!is_block_end(op), "terminator mid-block at {i}");
            }
        }
    }

    #[test]
    fn unresolved_label_decodes_to_bad_label() {
        let mut b = FunctionBuilder::new("f");
        b.push(Inst::Jmp(Label(999)));
        b.push(Inst::Halt);
        assert!(matches!(
            decode(b)[0],
            COp::BadLabel {
                label: Label(999),
                ..
            }
        ));
    }
}
