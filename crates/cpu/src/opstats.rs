//! Retired op-pair profiling.
//!
//! The engine's compiler (`crate::compile`) fuses the dominant
//! consecutive op pairs of the workload profiles into superinstructions.
//! This module provides the measurement that justifies and pins that
//! fusion set: a per-run histogram of *retired pairs* — every two ops the
//! machine retired back to back — split into sequential pairs (the second
//! op sits at the next instruction index, so the pair is statically
//! contiguous and a fusion candidate) and control-transfer pairs (the
//! pair straddles a taken branch, call, return or handler entry, which no
//! static fusion can cover).
//!
//! Driven by `memsentry-bench --bin opstats` (per-profile tables in
//! EXPERIMENTS.md) and `msentry run --op-stats`. Profiling runs step one
//! instruction at a time, so the histogram is exact regardless of how
//! the compiled runs group instructions.

use memsentry_ir::AluOp;

use crate::compile::COp;
use crate::machine::Machine;
use crate::trap::Trap;

/// Number of [`OpKind`] discriminants (array-tally dimension).
pub const OP_KINDS: usize = 32;

/// Payload-free classification of a decoded operation, used as the
/// histogram axis. Masking ALU forms (`and` with an address register, the
/// SFI dependency model) are split out from plain ALU ops because the
/// mask+load pair is one of the fusion candidates named by the profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
#[allow(missing_docs)] // variant names mirror `Inst` 1:1
pub enum OpKind {
    MovImm,
    Mov,
    Lea,
    AluReg,
    AluRegMask,
    AluImm,
    AluImmMask,
    Load,
    Store,
    Skip,
    Jmp,
    JmpIf,
    BadLabel,
    Call,
    CallIndirect,
    Ret,
    Syscall,
    Alloc,
    Free,
    Halt,
    BndMk,
    BndCu,
    BndCl,
    RdPkru,
    WrPkru,
    VmFunc,
    VmCall,
    YmmToXmm,
    AesSetup,
    AesRegion,
    SgxEnter,
    SgxExit,
}

impl OpKind {
    /// Every kind, in discriminant order.
    pub const ALL: [OpKind; OP_KINDS] = [
        OpKind::MovImm,
        OpKind::Mov,
        OpKind::Lea,
        OpKind::AluReg,
        OpKind::AluRegMask,
        OpKind::AluImm,
        OpKind::AluImmMask,
        OpKind::Load,
        OpKind::Store,
        OpKind::Skip,
        OpKind::Jmp,
        OpKind::JmpIf,
        OpKind::BadLabel,
        OpKind::Call,
        OpKind::CallIndirect,
        OpKind::Ret,
        OpKind::Syscall,
        OpKind::Alloc,
        OpKind::Free,
        OpKind::Halt,
        OpKind::BndMk,
        OpKind::BndCu,
        OpKind::BndCl,
        OpKind::RdPkru,
        OpKind::WrPkru,
        OpKind::VmFunc,
        OpKind::VmCall,
        OpKind::YmmToXmm,
        OpKind::AesSetup,
        OpKind::AesRegion,
        OpKind::SgxEnter,
        OpKind::SgxExit,
    ];

    /// The tally-array index of this kind.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case mnemonic used in the profiler tables.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::MovImm => "movimm",
            OpKind::Mov => "mov",
            OpKind::Lea => "lea",
            OpKind::AluReg => "alureg",
            OpKind::AluRegMask => "maskreg",
            OpKind::AluImm => "aluimm",
            OpKind::AluImmMask => "maskimm",
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::Skip => "skip",
            OpKind::Jmp => "jmp",
            OpKind::JmpIf => "jmpif",
            OpKind::BadLabel => "badlabel",
            OpKind::Call => "call",
            OpKind::CallIndirect => "callind",
            OpKind::Ret => "ret",
            OpKind::Syscall => "syscall",
            OpKind::Alloc => "alloc",
            OpKind::Free => "free",
            OpKind::Halt => "halt",
            OpKind::BndMk => "bndmk",
            OpKind::BndCu => "bndcu",
            OpKind::BndCl => "bndcl",
            OpKind::RdPkru => "rdpkru",
            OpKind::WrPkru => "wrpkru",
            OpKind::VmFunc => "vmfunc",
            OpKind::VmCall => "vmcall",
            OpKind::YmmToXmm => "ymm2xmm",
            OpKind::AesSetup => "aessetup",
            OpKind::AesRegion => "aesregion",
            OpKind::SgxEnter => "sgxenter",
            OpKind::SgxExit => "sgxexit",
        }
    }

    /// The kind of a single-form op, as the decoded stream holds it.
    pub(crate) fn of(op: &COp) -> OpKind {
        match *op {
            COp::MovImm { .. } => OpKind::MovImm,
            COp::Mov { .. } => OpKind::Mov,
            COp::Lea { .. } => OpKind::Lea,
            COp::AluReg { op: AluOp::And, .. } => OpKind::AluRegMask,
            COp::AluReg { .. } => OpKind::AluReg,
            COp::AluImm { op: AluOp::And, .. } => OpKind::AluImmMask,
            COp::AluImm { .. } => OpKind::AluImm,
            COp::Load { .. } => OpKind::Load,
            COp::Store { .. } => OpKind::Store,
            COp::Skip { .. } => OpKind::Skip,
            COp::Jmp { .. } => OpKind::Jmp,
            COp::JmpIf { .. } => OpKind::JmpIf,
            COp::BadLabel { .. } => OpKind::BadLabel,
            COp::Call { .. } => OpKind::Call,
            COp::CallIndirect { .. } => OpKind::CallIndirect,
            COp::Ret { .. } => OpKind::Ret,
            COp::Syscall { .. } => OpKind::Syscall,
            COp::Alloc { .. } => OpKind::Alloc,
            COp::Free { .. } => OpKind::Free,
            COp::Halt { .. } => OpKind::Halt,
            COp::BndMk { .. } => OpKind::BndMk,
            COp::BndCu { .. } => OpKind::BndCu,
            COp::BndCl { .. } => OpKind::BndCl,
            COp::RdPkru { .. } => OpKind::RdPkru,
            COp::WrPkru { .. } => OpKind::WrPkru,
            COp::VmFunc { .. } => OpKind::VmFunc,
            COp::VmCall { .. } => OpKind::VmCall,
            COp::YmmToXmm { .. } => OpKind::YmmToXmm,
            COp::AesSetup { .. } => OpKind::AesSetup,
            COp::AesRegion { .. } => OpKind::AesRegion,
            COp::SgxEnter { .. } => OpKind::SgxEnter,
            COp::SgxExit { .. } => OpKind::SgxExit,
            _ => unreachable!("fused {op:?} never sits in the decoded stream"),
        }
    }
}

/// One retired pair with its count, as reported by
/// [`OpPairTally::top_sequential`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairCount {
    /// First op of the pair (retired earlier).
    pub first: OpKind,
    /// Second op of the pair.
    pub second: OpKind,
    /// Times the pair retired back to back.
    pub count: u64,
}

/// Histogram of retired op pairs and single-op retirement counts.
#[derive(Debug, Clone)]
pub struct OpPairTally {
    /// `seq[a][b]`: times kind `b` retired at the instruction index
    /// immediately after kind `a` (statically contiguous — fusable).
    seq: Box<[[u64; OP_KINDS]; OP_KINDS]>,
    /// Pairs that straddled a control transfer (not fusable).
    xfer: Box<[[u64; OP_KINDS]; OP_KINDS]>,
    /// Per-kind retirement counts.
    singles: [u64; OP_KINDS],
}

impl Default for OpPairTally {
    fn default() -> Self {
        Self::new()
    }
}

impl OpPairTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self {
            seq: Box::new([[0; OP_KINDS]; OP_KINDS]),
            xfer: Box::new([[0; OP_KINDS]; OP_KINDS]),
            singles: [0; OP_KINDS],
        }
    }

    /// Records the retirement of `cur`; `prev` is the op retired just
    /// before it and `sequential` whether `cur` sat at the next
    /// instruction index (no control transfer between them).
    pub fn record(&mut self, prev: Option<OpKind>, cur: OpKind, sequential: bool) {
        self.singles[cur.index()] += 1;
        if let Some(p) = prev {
            if sequential {
                self.seq[p.index()][cur.index()] += 1;
            } else {
                self.xfer[p.index()][cur.index()] += 1;
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &OpPairTally) {
        for a in 0..OP_KINDS {
            self.singles[a] += other.singles[a];
            for b in 0..OP_KINDS {
                self.seq[a][b] += other.seq[a][b];
                self.xfer[a][b] += other.xfer[a][b];
            }
        }
    }

    /// Total ops retired.
    pub fn total(&self) -> u64 {
        self.singles.iter().sum()
    }

    /// Total sequential (fusable) pairs recorded.
    pub fn total_sequential(&self) -> u64 {
        self.seq.iter().flatten().sum()
    }

    /// Total control-transfer pairs recorded.
    pub fn total_transfer(&self) -> u64 {
        self.xfer.iter().flatten().sum()
    }

    /// Retirement count for one kind.
    pub fn count_of(&self, kind: OpKind) -> u64 {
        self.singles[kind.index()]
    }

    /// Sequential count for one specific pair.
    pub fn sequential_count(&self, first: OpKind, second: OpKind) -> u64 {
        self.seq[first.index()][second.index()]
    }

    /// The `n` most frequent sequential pairs, descending; ties break by
    /// discriminant order so the output is stable.
    pub fn top_sequential(&self, n: usize) -> Vec<PairCount> {
        let mut pairs = Vec::new();
        for a in OpKind::ALL {
            for b in OpKind::ALL {
                let count = self.seq[a.index()][b.index()];
                if count > 0 {
                    pairs.push(PairCount {
                        first: a,
                        second: b,
                        count,
                    });
                }
            }
        }
        pairs.sort_by_key(|p| (std::cmp::Reverse(p.count), p.first, p.second));
        pairs.truncate(n);
        pairs
    }
}

/// Steps `m` to completion (halt, trap, or fuel exhaustion) recording the
/// retired-pair histogram. Equivalent to [`Machine::run`] except it uses
/// the per-instruction stepper; returns the tally together with the
/// terminating trap, if any.
///
/// A pair is *sequential* when the second op's code address is exactly
/// one past the first's in the same function — the pair fell through with
/// no taken branch, call, return, or event redirection in between, so a
/// static superinstruction could cover it.
pub fn tally_run(m: &mut Machine) -> (OpPairTally, Option<Trap>) {
    let mut tally = OpPairTally::new();
    let mut prev: Option<(OpKind, memsentry_ir::CodeAddr)> = None;
    while !m.is_halted() {
        // Mirror `Machine::step` ordering — fuel check and event poll
        // first, so the op classified below is the one that actually
        // executes (a delivered signal redirects the pc to the handler).
        if let Err(t) = m.profile_poll() {
            return (tally, Some(t));
        }
        let at = m.pc();
        let kind = match m.current_op_kind() {
            Some(k) => k,
            None => {
                // The next fetch faults; let the stepper raise the trap.
                match m.profile_exec() {
                    Err(t) => return (tally, Some(t)),
                    Ok(()) => continue,
                }
            }
        };
        let r = m.profile_exec();
        let sequential = prev
            .map(|(_, p)| at.func == p.func && at.index == p.index + 1)
            .unwrap_or(false);
        tally.record(prev.map(|(k, _)| k), kind, sequential);
        prev = Some((kind, at));
        if let Err(t) = r {
            return (tally, Some(t));
        }
    }
    (tally, None)
}
