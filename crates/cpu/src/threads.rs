//! Cooperative multithreading on the simulated machine.
//!
//! Two paper-relevant behaviours need threads:
//!
//! * **`pkru` is per-thread.** MPK's permission register is architectural
//!   per-logical-processor state: opening the sensitive domain on one
//!   thread does not open it for the others. The simulation saves and
//!   restores `pkru` (and the rest of the context) at every switch, so
//!   the MPK technique's window is thread-local — the property follow-on
//!   systems (ERIM, Hodor) build on.
//! * **Thread spraying** (Göktaş et al., cited in §1) allocates a stack
//!   per spawned thread, eating into the address space that information
//!   hiding relies on; [`Machine::spawn_thread`] allocates those stacks
//!   exactly like a pthread implementation would, downward from the main
//!   stack.
//!
//! Scheduling is round-robin with a fixed quantum; a trap on any thread
//! kills the process (a segfault is process-fatal), and the run ends when
//! every thread has halted.

use memsentry_ir::{CodeAddr, FuncId, Reg};
use memsentry_mmu::diff::Walk;
use memsentry_mmu::{PageFlags, Pkru, VirtAddr};

use crate::machine::{Machine, RunOutcome, STACK_SIZE, STACK_TOP};

/// Saved per-thread context. Slot `tid` holds thread `tid`'s state while
/// it is parked; the machine's scalar fields hold the active thread's.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadCtx {
    pub(crate) regs: [u64; 16],
    pub(crate) pc: CodeAddr,
    pub(crate) pkru: Pkru,
    pub(crate) halted: Option<u64>,
    pub(crate) stack_base: u64,
    /// Signals queued while the thread was forcibly preempted; delivered
    /// in order at switch-back. Part of the machine's architectural state
    /// like every field here, so [`crate::MachineSnapshot`] captures it,
    /// `Machine::state_digest` feeds it and `Machine::diff` names it; a
    /// restore clears it.
    pub(crate) pending_signals: u64,
}

impl ThreadCtx {
    /// The thread table's part of the machine's state walk: the thread
    /// count, then each thread field by field as `thread <t> <field>`.
    pub(crate) fn walk_table<W: Walk>(a: &[Self], b: &[Self], w: &mut W) -> Result<(), W::Stop> {
        w.word("threads", a.len() as u64, b.len() as u64)?;
        for (t, (x, y)) in a.iter().zip(b).enumerate() {
            let ThreadCtx {
                regs,
                pc,
                pkru,
                halted,
                stack_base,
                pending_signals,
            } = x;
            for r in Reg::ALL {
                w.word(
                    format_args!("thread {t} {r}"),
                    regs[r.index()],
                    y.regs[r.index()],
                )?;
            }
            w.word(
                format_args!("thread {t} pc func"),
                pc.func.0.into(),
                y.pc.func.0.into(),
            )?;
            w.word(
                format_args!("thread {t} pc index"),
                pc.index.into(),
                y.pc.index.into(),
            )?;
            w.word(
                format_args!("thread {t} pkru"),
                pkru.0.into(),
                y.pkru.0.into(),
            )?;
            w.opt(format_args!("thread {t} halted"), *halted, y.halted)?;
            w.word(
                format_args!("thread {t} stack_base"),
                *stack_base,
                y.stack_base,
            )?;
            w.word(
                format_args!("thread {t} pending_signals"),
                *pending_signals,
                y.pending_signals,
            )?;
        }
        Ok(())
    }
}

/// Gap kept between thread stacks (a guard page's worth).
const STACK_GAP: u64 = 4096;

impl Machine {
    /// Spawns a new thread entering `func` with `args` in
    /// `rdi`/`rsi`/`rdx`. Returns the thread id (the main thread is 0).
    ///
    /// The thread gets its own stack (allocated downward below existing
    /// stacks, pthread-style) and its own `pkru`, initialized as a copy of
    /// the spawner's — matching `clone(2)` semantics.
    pub fn spawn_thread(&mut self, func: FuncId, args: [u64; 3]) -> usize {
        self.ensure_main_slot();
        let stack_base = self.next_thread_stack();
        self.space
            .map_region(VirtAddr(stack_base), STACK_SIZE, PageFlags::rw());
        let mut regs = [0u64; 16];
        regs[Reg::Rsp.index()] = stack_base + STACK_SIZE - 64;
        regs[Reg::Rdi.index()] = args[0];
        regs[Reg::Rsi.index()] = args[1];
        regs[Reg::Rdx.index()] = args[2];
        let ctx = ThreadCtx {
            regs,
            pc: CodeAddr::entry(func),
            pkru: self.space.pkru,
            halted: None,
            stack_base,
            pending_signals: 0,
        };
        self.arch.threads.push(ctx);
        self.arch.threads.len() - 1
    }

    /// Slot 0 mirrors the main thread; create it lazily.
    pub(crate) fn ensure_main_slot(&mut self) {
        if self.arch.threads.is_empty() {
            self.arch.threads.push(ThreadCtx {
                regs: self.arch.regs,
                pc: self.arch.pc,
                pkru: self.space.pkru,
                halted: self.arch.halted,
                stack_base: STACK_TOP - STACK_SIZE,
                pending_signals: 0,
            });
            self.arch.active_thread = 0;
        }
    }

    /// Number of threads (1 before any spawn).
    pub fn thread_count(&self) -> usize {
        self.arch.threads.len().max(1)
    }

    /// The stack range `(base, size)` of thread `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn thread_stack(&self, tid: usize) -> (u64, u64) {
        if self.arch.threads.is_empty() && tid == 0 {
            return (STACK_TOP - STACK_SIZE, STACK_SIZE);
        }
        (self.arch.threads[tid].stack_base, STACK_SIZE)
    }

    fn next_thread_stack(&self) -> u64 {
        let lowest = self
            .arch
            .threads
            .iter()
            .map(|t| t.stack_base)
            .min()
            .unwrap_or(STACK_TOP - STACK_SIZE);
        lowest - STACK_SIZE - STACK_GAP
    }

    /// Parks the active thread's state and activates thread `tid`.
    ///
    /// Restoring `pkru` here writes [`memsentry_mmu::AddressSpace::pkru`]
    /// directly
    /// (there is no `wrpkru` instruction involved), which is safe against
    /// the MMU's per-access-kind translation memo: the memo validates by
    /// *comparing* its `pkru` snapshot on every lookup rather than
    /// relying on writers to invalidate it, so a context switch to a
    /// thread with different key rights simply stops the memo from
    /// matching.
    pub(crate) fn switch_thread(&mut self, tid: usize) {
        if tid == self.arch.active_thread {
            return;
        }
        let active = self.arch.active_thread;
        self.arch.threads[active].regs = self.arch.regs;
        self.arch.threads[active].pc = self.arch.pc;
        self.arch.threads[active].pkru = self.space.pkru;
        self.arch.threads[active].halted = self.arch.halted;
        let next = self.arch.threads[tid].clone();
        self.arch.regs = next.regs;
        self.arch.pc = next.pc;
        self.space.pkru = next.pkru;
        self.arch.halted = next.halted;
        self.arch.active_thread = tid;
    }

    /// Runs all threads round-robin (`quantum` instructions each) until
    /// every thread has halted or any thread traps.
    ///
    /// Returns the *main thread's* exit code on success, mirroring a
    /// process whose `main` returns after joining its workers.
    pub fn run_threads(&mut self, quantum: u64) -> RunOutcome {
        self.ensure_main_slot();
        loop {
            let mut all_done = true;
            for tid in 0..self.arch.threads.len() {
                self.switch_thread(tid);
                if self.is_halted() {
                    continue;
                }
                all_done = false;
                // One quantum through the single execution loop: runs at
                // block speed until the thread halts or the quantum's
                // instruction boundary is reached.
                let target = self.stats().instructions.saturating_add(quantum);
                if let Err(t) = self.run_until(target) {
                    return RunOutcome::Trapped(t);
                }
            }
            if all_done {
                self.switch_thread(0);
                return RunOutcome::Exited(self.exit_code().unwrap_or(0));
            }
        }
    }

    /// Whether a thread-spray would place the next stack inside `range`.
    pub fn next_stack_would_hit(&self, base: u64, len: u64) -> bool {
        let next = self.next_thread_stack();
        next < base + len && base < next + STACK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trap::Trap;
    use memsentry_ir::{AluOp, FunctionBuilder, Inst, Program};
    use memsentry_mmu::{Fault, PAGE_SIZE};

    /// main spins on a mailbox flag the worker sets; exits with the value.
    fn mailbox_program() -> Program {
        let mut p = Program::new();
        let mut main = FunctionBuilder::new("main");
        let spin = main.new_label();
        main.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: 0x10_0000,
        });
        main.bind(spin);
        main.push(Inst::Load {
            dst: Reg::Rax,
            addr: Reg::Rbx,
            offset: 0,
        });
        main.push(Inst::MovImm {
            dst: Reg::Rcx,
            imm: 0,
        });
        main.push(Inst::JmpIf {
            cond: memsentry_ir::Cond::Eq,
            a: Reg::Rax,
            b: Reg::Rcx,
            target: spin,
        });
        main.push(Inst::Halt);
        p.add_function(main.finish());
        let mut worker = FunctionBuilder::new("worker");
        worker.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: 0x10_0000,
        });
        worker.push(Inst::MovImm {
            dst: Reg::Rcx,
            imm: 7,
        });
        worker.push(Inst::Store {
            src: Reg::Rcx,
            addr: Reg::Rbx,
            offset: 0,
        });
        worker.push(Inst::Halt);
        p.add_function(worker.finish());
        p
    }

    #[test]
    fn worker_thread_communicates_through_memory() {
        let mut m = Machine::new(mailbox_program());
        m.space
            .map_region(VirtAddr(0x10_0000), PAGE_SIZE, PageFlags::rw());
        m.spawn_thread(FuncId(1), [0; 3]);
        assert_eq!(m.thread_count(), 2);
        assert_eq!(m.run_threads(16).expect_exit(), 7);
    }

    #[test]
    fn thread_stacks_are_disjoint_and_descend() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::Halt);
        p.add_function(b.finish());
        let mut worker = FunctionBuilder::new("w");
        worker.push(Inst::Halt);
        p.add_function(worker.finish());
        let mut m = Machine::new(p);
        let mut prev = m.thread_stack(0).0;
        for _ in 0..8 {
            let tid = m.spawn_thread(FuncId(1), [0; 3]);
            let (base, len) = m.thread_stack(tid);
            assert!(base + len <= prev, "stacks must descend: {base:#x}");
            prev = base;
        }
        m.run_threads(8).expect_exit();
    }

    #[test]
    fn pkru_is_per_thread() {
        // Worker opens the pkey domain for itself; main's concurrent read
        // with its own (closed) pkru must fault — the MPK window is
        // thread-local.
        const SECRET: u64 = 0x3000_0000;
        let mut p = Program::new();
        let mut main = FunctionBuilder::new("main");
        main.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: SECRET,
        });
        for _ in 0..8 {
            main.push(Inst::AluImm {
                op: AluOp::Add,
                dst: Reg::Rcx,
                imm: 1,
            });
        }
        main.push(Inst::Load {
            dst: Reg::Rax,
            addr: Reg::Rbx,
            offset: 0,
        });
        main.push(Inst::Halt);
        p.add_function(main.finish());
        let mut w = FunctionBuilder::new("worker");
        let spin = w.new_label();
        w.push(Inst::MovImm {
            dst: Reg::R9,
            imm: 0,
        });
        w.push(Inst::WrPkru { src: Reg::R9 });
        w.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: SECRET,
        });
        w.push(Inst::MovImm {
            dst: Reg::Rcx,
            imm: 200,
        });
        w.bind(spin);
        w.push(Inst::Load {
            dst: Reg::Rax,
            addr: Reg::Rbx,
            offset: 0,
        });
        w.push(Inst::AluImm {
            op: AluOp::Sub,
            dst: Reg::Rcx,
            imm: 1,
        });
        w.push(Inst::MovImm {
            dst: Reg::R8,
            imm: 0,
        });
        w.push(Inst::JmpIf {
            cond: memsentry_ir::Cond::Ne,
            a: Reg::Rcx,
            b: Reg::R8,
            target: spin,
        });
        w.push(Inst::Halt);
        p.add_function(w.finish());

        let mut m = Machine::new(p);
        m.space
            .map_region(VirtAddr(SECRET), PAGE_SIZE, PageFlags::rw());
        m.space.pkey_mprotect(VirtAddr(SECRET), PAGE_SIZE, 2);
        m.space.pkru = Pkru::deny_key(2);
        m.spawn_thread(FuncId(1), [0; 3]);
        match m.run_threads(4) {
            RunOutcome::Trapped(Trap::Mmu(Fault::PkeyDenied { key: 2, .. })) => {}
            other => {
                panic!("main's read must fault despite the worker's window: {other:?}")
            }
        }
    }

    #[test]
    fn worker_window_actually_opens_for_the_worker() {
        // Dual of the previous test: with main *not* touching the secret,
        // the worker's reads all succeed inside its own window.
        const SECRET: u64 = 0x3000_0000;
        let mut p = Program::new();
        let mut main = FunctionBuilder::new("main");
        main.push(Inst::MovImm {
            dst: Reg::Rax,
            imm: 1,
        });
        main.push(Inst::Halt);
        p.add_function(main.finish());
        let mut w = FunctionBuilder::new("worker");
        w.push(Inst::MovImm {
            dst: Reg::R9,
            imm: 0,
        });
        w.push(Inst::WrPkru { src: Reg::R9 });
        w.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: SECRET,
        });
        w.push(Inst::Load {
            dst: Reg::Rax,
            addr: Reg::Rbx,
            offset: 0,
        });
        w.push(Inst::Halt);
        p.add_function(w.finish());
        let mut m = Machine::new(p);
        m.space
            .map_region(VirtAddr(SECRET), PAGE_SIZE, PageFlags::rw());
        m.space.pkey_mprotect(VirtAddr(SECRET), PAGE_SIZE, 2);
        m.space.pkru = Pkru::deny_key(2);
        m.spawn_thread(FuncId(1), [0; 3]);
        m.run_threads(4).expect_exit();
    }

    #[test]
    fn spraying_consumes_address_space() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::Halt);
        p.add_function(b.finish());
        let mut w = FunctionBuilder::new("w");
        w.push(Inst::Halt);
        p.add_function(w.finish());
        let mut m = Machine::new(p);
        // A region hidden where the 36th thread stack would land gets
        // reached after a bounded number of sprays.
        let hidden = STACK_TOP - STACK_SIZE - 35 * (STACK_SIZE + 4096) + 1000;
        let mut sprays = 0;
        while !m.next_stack_would_hit(hidden, PAGE_SIZE) {
            m.spawn_thread(FuncId(1), [0; 3]);
            sprays += 1;
            assert!(sprays < 100, "spray never reached the hidden region");
        }
        assert!((20..=40).contains(&sprays), "took {sprays} sprays");
        m.run_threads(4).expect_exit();
    }
}
