//! The simulated machine.
//!
//! [`Machine`] executes an IR [`Program`] against a simulated
//! [`AddressSpace`], charging cycles from the [`CostModel`] and raising
//! typed [`Trap`]s. All the hardware features MemSentry repurposes are
//! implemented with their architectural semantics: MPX bound registers,
//! the `pkru` register, `vmfunc` EPT switching, and AES-NI region
//! encryption.
//!
//! At construction the crate-private `decode` module lowers every
//! function body to the engine's single-form ops — branch targets
//! resolved to instruction indices, the static cycle charge attached —
//! and `compile` builds a fused run for every basic-block entry point.
//! Every instruction, whether [`Machine::run_until`] chains it inside a
//! fused run or [`Machine::step`] retires it alone, goes through the one
//! set of op arms in `compile`; the ops the engine keeps off its hot path
//! (system calls, hypercalls, the allocator, EPT switches, AES and SGX)
//! run in [`Machine`]'s cold op body here. The original [`Program`] is
//! kept (immutable) for code-pointer range checks and introspection.

use std::rc::Rc;

use memsentry_aes::{Block, RegionCipher};
use memsentry_ir::{AluOp, CodeAddr, FuncId, Program, Reg};
use memsentry_mmu::diff::{same, Compare, Walk};
use memsentry_mmu::{AddressSpace, Divergence, PageFlags, Prot, TransCacheEntry, VirtAddr};

use crate::compile::{compile_program, COp, CompiledFunction};
use crate::cost::CostModel;
use crate::decode::{decode_program, Charges, DecodedFunction};
use crate::events::{
    DomainClosure, EventAction, EventSchedule, PreemptState, SavedDomain, SignalFrame,
    SignalPolicy, TriggerKind,
};
use crate::heap::{BumpAllocator, HeapPolicy};
use crate::kernel::{DefaultKernel, HypercallHandler, SyscallHandler, SyscallOutcome};
use crate::stats::ExecStats;
use crate::threads::ThreadCtx;
use crate::trap::Trap;

/// Top of the simulated stack (just below the 64 TB sensitive boundary).
pub const STACK_TOP: u64 = 0x3f00_0000_0000;

/// Default stack size.
pub const STACK_SIZE: u64 = 1 << 20;

/// Default nesting limit for signal delivery: pushing a frame on top of
/// this many live frames raises [`Trap::Reentrancy`] instead — a real
/// runtime's sigaltstack would overflow long before unbounded nesting.
/// [`Machine::set_signal_depth_limit`] overrides it per machine.
pub const DEFAULT_SIGNAL_DEPTH_LIMIT: usize = 16;

/// Machine construction parameters.
#[derive(Debug)]
pub struct MachineConfig {
    /// Stack size in bytes (page-rounded).
    pub stack_size: u64,
    /// Maximum instructions before [`Trap::OutOfFuel`].
    pub fuel: u64,
    /// The cycle cost model.
    pub cost: CostModel,
    /// Give every memory op an inline translation-cache slot
    /// ([`memsentry_mmu::TransCacheEntry`]): a generation-valid same-page
    /// hit goes straight to physical memory, skipping the full
    /// `check_page` pipeline. Pure memo state: excluded from snapshots
    /// and the state digest, invalidated wholesale by the address space's
    /// mutation generation counter. Defaults to on unless the
    /// `MSENTRY_NO_INLINE_CACHE` environment variable is set — the escape
    /// hatch (mirroring `MSENTRY_NO_CHECKPOINT`) that the determinism CI
    /// job uses for full-`results/` A/B diffs.
    pub inline_cache: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            stack_size: STACK_SIZE,
            fuel: 200_000_000,
            cost: CostModel::default(),
            inline_cache: std::env::var_os("MSENTRY_NO_INLINE_CACHE").is_none(),
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The program halted (via `hlt` or `exit`) with this code.
    Exited(u64),
    /// The program trapped.
    Trapped(Trap),
}

impl RunOutcome {
    /// The exit code, panicking on a trap.
    ///
    /// # Panics
    ///
    /// Panics if the run trapped; tests use this when a trap is a failure.
    pub fn expect_exit(&self) -> u64 {
        match self {
            RunOutcome::Exited(code) => *code,
            RunOutcome::Trapped(t) => panic!("program trapped: {t}"),
        }
    }

    /// The trap, panicking on a clean exit.
    ///
    /// # Panics
    ///
    /// Panics if the run exited cleanly.
    pub fn expect_trap(&self) -> &Trap {
        match self {
            RunOutcome::Trapped(t) => t,
            RunOutcome::Exited(code) => panic!("program exited cleanly with {code}"),
        }
    }
}

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    /// The address space (public: harnesses map regions directly).
    pub space: AddressSpace,
    pub(crate) arch: ArchState,
    pub(crate) program: Program,
    /// Decoded bodies (single-form op streams plus basic-block bounds),
    /// index-1:1 with each function's `body`.
    pub(crate) code: Vec<DecodedFunction>,
    /// The static charges the hot ops of `code` index.
    pub(crate) charges: Charges,
    /// Fused runs compiled from `code` at construction, one per block
    /// entry point. Immutable derived data like `code` itself: excluded
    /// from snapshots and the state digest.
    compiled: Vec<CompiledFunction>,
    /// Inline translation-cache slots, one per source instruction index
    /// of every function (memory ops index it as
    /// `ic_base[func] + idx`; empty with the cache disabled, which makes
    /// every probe miss to the full path). Pure memo state validated by
    /// the address space's mutation generation: excluded from snapshots
    /// and the state digest, orphaned wholesale on restore by the
    /// generation bump — never cleared entry by entry.
    pub(crate) ic: Box<[TransCacheEntry]>,
    /// Per-function first-slot offsets into `ic` (prefix sums over
    /// instruction counts; empty when `ic` is).
    ic_base: Box<[u32]>,
    pub(crate) cost: CostModel,
    syscall: Option<Box<dyn SyscallHandler>>,
    hypercall: Option<Box<dyn HypercallHandler>>,
    /// Shared copy-on-write with snapshots: an `Alloc`/`Free` copies the
    /// policy (through [`HeapPolicy::box_clone`]) only while a snapshot
    /// still shares it.
    heap: Option<Rc<dyn HeapPolicy>>,
    cipher: Option<RegionCipher>,
    fuel: u64,
    pub(crate) tracer: Option<Box<dyn AccessTracer>>,
    events: Option<EventSchedule>,
    signal_policy: Option<SignalPolicy>,
    signal_depth_limit: usize,
    signal_frames: Vec<SignalFrame>,
    domain_closure: Option<DomainClosure>,
    preempt: Option<PreemptState>,
}

/// The machine's scalar architectural state: everything a
/// [`MachineSnapshot`] captures besides the address space, the heap
/// policy and the cipher. Snapshot and restore copy it whole, and the
/// field list behind [`Machine::state_digest`] and [`Machine::diff`]
/// destructures it, so a field added here but left out of that walk
/// fails to compile.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArchState {
    pub(crate) regs: [u64; 16],
    pub(crate) bnd: [(u64, u64); 4],
    pub(crate) pc: CodeAddr,
    pub(crate) stats: ExecStats,
    pub(crate) halted: Option<u64>,
    pub(crate) in_vm: bool,
    pub(crate) keys_in_xmm: bool,
    pub(crate) last_masked: Option<Reg>,
    pub(crate) epc: Option<(u64, u64)>,
    pub(crate) in_enclave: bool,
    pub(crate) syscall_passthrough: bool,
    pub(crate) forced_alloc_failures: u64,
    pub(crate) threads: Vec<ThreadCtx>,
    pub(crate) active_thread: usize,
}

/// The installed heap policy for a write, copied first (through
/// [`HeapPolicy::box_clone`]) while a snapshot still shares it;
/// [`Trap::Reentrancy`] if no policy is installed.
fn heap_for_write(heap: &mut Option<Rc<dyn HeapPolicy>>) -> Result<&mut dyn HeapPolicy, Trap> {
    let heap = heap.as_mut().ok_or(Trap::Reentrancy { resource: "heap" })?;
    if Rc::get_mut(heap).is_none() {
        *heap = Rc::from(heap.box_clone());
    }
    Ok(Rc::get_mut(heap).expect("an unshared heap"))
}

/// How one fired event resolved inside the poll: actually delivered
/// (arms compound triggers), dropped (counted in
/// [`ExecStats::dropped_events`]), or deferred to a per-thread pending
/// queue (resolved later, at preemption switch-back).
enum Delivery {
    Delivered,
    Dropped,
    Deferred,
}

/// A PIN-like dynamic tracing hook: observes every data access with the
/// code address that performed it (paper §5.5 uses a PIN pass to record
/// per-instruction object accesses for dynamic points-to analysis).
pub trait AccessTracer: std::fmt::Debug {
    /// Called for every load/store with the instruction's code address.
    fn record(&mut self, at: CodeAddr, is_store: bool, va: u64);
}

impl Machine {
    /// Builds a machine for `program` with the default configuration.
    pub fn new(program: Program) -> Self {
        Self::with_config(program, MachineConfig::default())
    }

    /// Builds a machine with an explicit configuration.
    pub fn with_config(program: Program, config: MachineConfig) -> Self {
        let mut space = AddressSpace::new();
        let stack_pages = config.stack_size.div_ceil(4096) * 4096;
        space.map_region(
            VirtAddr(STACK_TOP - stack_pages),
            stack_pages,
            PageFlags::rw(),
        );
        let (code, charges) = decode_program(&program, &config.cost);
        let compiled = compile_program(&code);
        let (ic, ic_base) = if config.inline_cache {
            let mut base = Vec::with_capacity(code.len());
            let mut total = 0u32;
            for f in &code {
                base.push(total);
                total += f.ops.len() as u32;
            }
            (
                vec![TransCacheEntry::INVALID; total as usize].into_boxed_slice(),
                base.into_boxed_slice(),
            )
        } else {
            (Box::default(), Box::default())
        };
        let mut regs = [0u64; 16];
        regs[Reg::Rsp.index()] = STACK_TOP - 64;
        Self {
            space,
            arch: ArchState {
                regs,
                bnd: [(0, u64::MAX); 4],
                pc: CodeAddr::entry(program.entry),
                stats: ExecStats::default(),
                halted: None,
                in_vm: false,
                keys_in_xmm: false,
                last_masked: None,
                epc: None,
                in_enclave: false,
                syscall_passthrough: false,
                forced_alloc_failures: 0,
                threads: Vec::new(),
                active_thread: 0,
            },
            program,
            code,
            charges,
            compiled,
            ic,
            ic_base,
            cost: config.cost,
            syscall: Some(Box::new(DefaultKernel::new())),
            hypercall: None,
            heap: Some(Rc::new(BumpAllocator::new())),
            cipher: None,
            fuel: config.fuel,
            tracer: None,
            events: None,
            signal_policy: None,
            signal_depth_limit: DEFAULT_SIGNAL_DEPTH_LIMIT,
            signal_frames: Vec::new(),
            domain_closure: None,
            preempt: None,
        }
    }

    /// First inline-cache slot of `func` (0 with the cache disabled —
    /// every probe then falls off the empty `ic` table and takes the
    /// full path, so the base value is irrelevant).
    #[inline(always)]
    pub(crate) fn ic_slot_base(&self, func: FuncId) -> u32 {
        self.ic_base.get(func.0 as usize).copied().unwrap_or(0)
    }

    /// Whether the active thread has halted.
    pub fn is_halted(&self) -> bool {
        self.arch.halted.is_some()
    }

    /// The active thread's exit code, if halted.
    pub fn exit_code(&self) -> Option<u64> {
        self.arch.halted
    }

    /// Installs a dynamic access tracer (and returns any previous one).
    pub fn set_tracer(&mut self, tracer: Box<dyn AccessTracer>) {
        self.tracer = Some(tracer);
    }

    /// Removes and returns the tracer, if any.
    pub fn take_tracer(&mut self) -> Option<Box<dyn AccessTracer>> {
        self.tracer.take()
    }

    /// Declares `[base, base+len)` as EPC (enclave) memory: data accesses
    /// to it fault unless the machine is inside the enclave.
    pub fn set_epc_range(&mut self, base: u64, len: u64) {
        self.arch.epc = Some((base, base + len));
    }

    /// Whether execution is currently inside the enclave.
    pub fn in_enclave(&self) -> bool {
        self.arch.in_enclave
    }

    pub(crate) fn check_epc(&self, va: u64) -> Result<(), Trap> {
        if let Some((lo, hi)) = self.arch.epc {
            if va >= lo && va < hi && !self.arch.in_enclave {
                return Err(Trap::EpcAccessOutsideEnclave { addr: va });
            }
        }
        Ok(())
    }

    // --- configuration -----------------------------------------------------

    /// Replaces the system-call handler.
    pub fn set_syscall_handler(&mut self, handler: Box<dyn SyscallHandler>) {
        self.syscall = Some(handler);
    }

    /// Installs a hypercall handler (the Dune hypervisor).
    pub fn set_hypercall_handler(&mut self, handler: Box<dyn HypercallHandler>) {
        self.hypercall = Some(handler);
    }

    /// Marks the process as running inside the VM: system calls are
    /// converted to hypercalls (charged at `vmcall` cost) and `vmfunc`
    /// becomes available.
    pub fn set_in_vm(&mut self, in_vm: bool) {
        self.arch.in_vm = in_vm;
    }

    /// Whether the machine runs inside the VM.
    pub fn in_vm(&self) -> bool {
        self.arch.in_vm
    }

    /// Replaces the heap allocator policy.
    pub fn set_heap(&mut self, heap: Box<dyn HeapPolicy>) {
        self.heap = Some(Rc::from(heap));
    }

    /// Replaces the instruction budget: the machine traps with
    /// [`Trap::OutOfFuel`] once `fuel` instructions have retired. The
    /// budget is an absolute retired-instruction count, not a delta from
    /// the current position.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Installs the AES key for the crypt technique. Round keys are
    /// modelled as parked in the `ymm` upper halves (paper §5.3); they must
    /// still be staged into `xmm` by `YmmToXmm` before `AesRegion` runs.
    pub fn install_aes_key(&mut self, key: &Block) {
        self.cipher = Some(RegionCipher::new(key));
        self.arch.keys_in_xmm = false;
    }

    /// Installs the AES key *pinned* in `xmm` (the CCFI-style ablation):
    /// `AesRegion` works immediately, with no `YmmToXmm` staging, at the
    /// modelled cost of reserving the registers system-wide.
    pub fn pin_aes_keys(&mut self, key: &Block) {
        self.cipher = Some(RegionCipher::new(key));
        self.arch.keys_in_xmm = true;
    }

    /// When set (and in the VM), system calls are serviced natively by the
    /// host kernel instead of being converted to hypercalls — modelling a
    /// whole-system KVM deployment of the VMFUNC technique rather than the
    /// Dune per-process sandbox (paper §5.1: "not fundamental to our
    /// design; one could also implement the EPT management in KVM").
    pub fn set_syscall_passthrough(&mut self, passthrough: bool) {
        self.arch.syscall_passthrough = passthrough;
    }

    /// Reads a general-purpose register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.arch.regs[r.index()]
    }

    /// Writes a general-purpose register.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.arch.regs[r.index()] = v;
    }

    /// Reads a bound register.
    pub fn bound(&self, i: usize) -> (u64, u64) {
        self.arch.bnd[i]
    }

    /// The current program counter (next instruction to execute); the
    /// `msentry replay` state printer reports it per boundary.
    pub fn pc(&self) -> CodeAddr {
        self.arch.pc
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &ExecStats {
        &self.arch.stats
    }

    /// Simulated cycles so far.
    pub fn cycles(&self) -> f64 {
        self.arch.stats.cycles
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    // --- execution ----------------------------------------------------------

    /// Re-enters the program at `func` with `args` in `rdi`/`rsi`/`rdx`
    /// and runs until halt or trap.
    ///
    /// Used by tests and the attack harness to drive individual gadgets
    /// (e.g. an arbitrary-write primitive) against a live machine. The
    /// target function must end in `Halt`, not `Ret` — there is no return
    /// address on the stack for it.
    pub fn call_function(&mut self, func: memsentry_ir::FuncId, args: [u64; 3]) -> RunOutcome {
        self.arch.halted = None;
        self.arch.regs[Reg::Rdi.index()] = args[0];
        self.arch.regs[Reg::Rsi.index()] = args[1];
        self.arch.regs[Reg::Rdx.index()] = args[2];
        self.arch.pc = CodeAddr::entry(func);
        self.run()
    }

    /// Runs to completion (halt, trap, or fuel exhaustion).
    ///
    /// This is [`Machine::run_until`] with an unreachable stop boundary;
    /// every caller that previously looped on [`Machine::step`] goes
    /// through the same single execution loop.
    pub fn run(&mut self) -> RunOutcome {
        match self.run_until(u64::MAX) {
            Ok(()) => RunOutcome::Exited(self.arch.halted.unwrap_or(0)),
            Err(t) => RunOutcome::Trapped(t),
        }
    }

    /// The single execution loop: runs until the active thread halts, a
    /// trap is raised, or `stats.instructions` reaches `stop` (an absolute
    /// retired-instruction boundary, like event and fuel indices).
    ///
    /// Execution proceeds in **event-horizon batches**: each loop
    /// iteration computes a horizon — the nearest of `stop`, the fuel
    /// budget and the next scheduled event — and chains compiled runs up
    /// to it with no per-instruction fuel check, event poll or fetch
    /// bounds check, stopping exactly at the horizon even inside a block.
    /// Events still land exactly at their scheduled boundary: the horizon
    /// computation guarantees no event is due strictly before it, and
    /// everything due *at* a boundary fires before the next instruction
    /// executes, exactly as the per-instruction [`Machine::step`] path
    /// does. (Events due exactly at `stop` fire at the start of the next
    /// execution call, matching a caller that stops stepping at `stop`.)
    /// During an in-flight forced preemption the machine drops to
    /// per-instruction stepping, because the quantum counts down per
    /// retired instruction.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] that ended the run, including
    /// [`Trap::OutOfFuel`] once `stats.instructions` reaches the fuel
    /// budget with the machine still running.
    pub fn run_until(&mut self, stop: u64) -> Result<(), Trap> {
        while self.arch.halted.is_none() && self.arch.stats.instructions < stop {
            if self.arch.stats.instructions >= self.fuel {
                return Err(Trap::OutOfFuel);
            }
            if self.events.is_some() {
                self.poll_events()?;
            }
            if self.preempt.is_some() {
                // Forced preemption: the quantum is per-instruction state,
                // so tick it the way the slow path always has.
                self.step_slow()?;
                continue;
            }
            let mut horizon = stop.min(self.fuel);
            if let Some(at) = self.events.as_ref().and_then(EventSchedule::next_at) {
                // poll_events drained everything due at the current
                // boundary, so `at` is strictly ahead of us.
                horizon = horizon.min(at);
            }
            self.run_blocks(horizon)?;
        }
        Ok(())
    }

    /// The tight inner loop: chains compiled runs until the machine halts
    /// or `stats.instructions` reaches `horizon`. The caller guarantees
    /// no event is due and no preemption is in flight before `horizon`,
    /// and that `horizon <= fuel`.
    fn run_blocks(&mut self, horizon: u64) -> Result<(), Trap> {
        // A one-instruction horizon (a recording's boundary-by-boundary
        // capture) retires through `step`'s single-op entry, which skips
        // the chain's set-up.
        if horizon - self.arch.stats.instructions == 1 {
            return self.exec_one();
        }
        // The decoded and compiled code are immutable during execution but
        // the borrow checker cannot see that through `&mut self`; park
        // them locally for the duration of the batch. `exec_chain` never
        // touches `self.code` or `self.compiled`.
        let code = std::mem::take(&mut self.code);
        let compiled = std::mem::take(&mut self.compiled);
        let r = self.exec_chain(&code, &compiled, horizon);
        self.code = code;
        self.compiled = compiled;
        r
    }

    pub(crate) fn push_u64(&mut self, value: u64) -> Result<(), Trap> {
        let rsp = self.arch.regs[Reg::Rsp.index()]
            .checked_sub(8)
            .ok_or(Trap::StackUnderflow {
                rsp: self.arch.regs[Reg::Rsp.index()],
            })?;
        self.arch.regs[Reg::Rsp.index()] = rsp;
        self.space.write_u64(VirtAddr(rsp), value)?;
        Ok(())
    }

    pub(crate) fn pop_u64(&mut self) -> Result<u64, Trap> {
        let rsp = self.arch.regs[Reg::Rsp.index()];
        let v = self.space.read_u64(VirtAddr(rsp))?;
        self.arch.regs[Reg::Rsp.index()] = rsp + 8;
        Ok(v)
    }

    fn dispatch_syscall(&mut self, nr: u64) -> Result<(), Trap> {
        let args = [
            self.arch.regs[Reg::Rdi.index()],
            self.arch.regs[Reg::Rsi.index()],
            self.arch.regs[Reg::Rdx.index()],
        ];
        let outcome = if self.arch.in_vm && !self.arch.syscall_passthrough {
            // Inside the VM the syscall becomes a hypercall: charge the
            // difference between vmcall and the already-charged syscall.
            self.arch.stats.cycles += self.cost.vmcall - self.cost.syscall;
            self.arch.stats.vmcalls += 1;
            let mut handler = self.hypercall.take().ok_or(Trap::VmError {
                reason: "no hypervisor",
            })?;
            let r = handler.hypercall(&mut self.space, nr, args);
            self.arch.stats.cycles += handler.cost_hint(nr);
            self.hypercall = Some(handler);
            r?
        } else {
            let mut handler = self.syscall.take().ok_or(Trap::Reentrancy {
                resource: "syscall handler",
            })?;
            let r = handler.syscall(&mut self.space, nr, args);
            self.arch.stats.cycles += handler.cost_hint(nr);
            self.syscall = Some(handler);
            r?
        };
        match outcome {
            SyscallOutcome::Ret(v) => self.arch.regs[Reg::Rax.index()] = v,
            SyscallOutcome::Exit(code) => self.arch.halted = Some(code),
        }
        Ok(())
    }

    /// Executes one instruction.
    ///
    /// Semantically one iteration of the horizon executor with a
    /// one-instruction horizon: fuel check, event poll, fetch, execute,
    /// preemption tick — in exactly that order — through the same op arms
    /// the compiled runs use, without entering the chain loop.
    /// [`Machine::run_until`] is bit-for-bit equivalent to looping on
    /// `step` (property-tested in `tests/properties.rs`); `step` remains
    /// for callers that need per-instruction observation. Like
    /// `run_until`, it does nothing on a halted machine.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] the instruction (or a delivered event) raised.
    pub fn step(&mut self) -> Result<(), Trap> {
        if self.arch.halted.is_some() {
            return Ok(());
        }
        if self.arch.stats.instructions >= self.fuel {
            return Err(Trap::OutOfFuel);
        }
        if self.events.is_some() {
            self.poll_events()?;
        }
        self.step_slow()
    }

    /// The pre-execute half of [`Machine::step`] — fuel check plus event
    /// poll — split out for the op-pair profiler, which must classify the
    /// op that will *actually* execute (a delivered signal redirects the
    /// pc to the handler before the fetch).
    pub(crate) fn profile_poll(&mut self) -> Result<(), Trap> {
        if self.arch.stats.instructions >= self.fuel {
            return Err(Trap::OutOfFuel);
        }
        if self.events.is_some() {
            self.poll_events()?;
        }
        Ok(())
    }

    /// The execute half of [`Machine::step`] for the op-pair profiler.
    pub(crate) fn profile_exec(&mut self) -> Result<(), Trap> {
        self.step_slow()
    }

    /// Classifies the op the next fetch would execute, or `None` if that
    /// fetch faults.
    pub(crate) fn current_op_kind(&self) -> Option<crate::opstats::OpKind> {
        self.code
            .get(self.arch.pc.func.0 as usize)
            .and_then(|f| f.ops.get(self.arch.pc.index as usize))
            .map(crate::opstats::OpKind::of)
    }

    /// Fetch + execute + preemption tick for one instruction, with no
    /// fuel or event consultation (the caller has already done both).
    fn step_slow(&mut self) -> Result<(), Trap> {
        self.exec_one()?;
        if self.preempt.is_some() {
            self.tick_preempt()?;
        }
        Ok(())
    }

    /// The body of a cold op: the ops the engine keeps off its hot arms
    /// (system calls, hypercalls, the allocator, EPT switches, AES and
    /// SGX). `Machine::exec_cold` settles the machine around the call, so
    /// the pc already points past the op and its static charge is in
    /// `stats.cycles`; a system call may halt or, through `sigreturn`,
    /// move the pc anywhere.
    pub(crate) fn cold_op(&mut self, op: &COp) -> Result<(), Trap> {
        match *op {
            COp::Syscall { nr, .. } => {
                self.arch.stats.syscalls += 1;
                if nr == crate::kernel::nr::SIGRETURN {
                    // Architectural, not a kernel service: pops the signal
                    // frame even inside the VM (where ordinary syscalls
                    // become hypercalls).
                    self.sigreturn()?;
                } else {
                    self.dispatch_syscall(nr)?;
                }
            }
            COp::VmCall { nr, .. } => {
                if !self.arch.in_vm {
                    return Err(Trap::VmError {
                        reason: "vmcall outside VM",
                    });
                }
                self.arch.stats.vmcalls += 1;
                let args = [
                    self.arch.regs[Reg::Rdi.index()],
                    self.arch.regs[Reg::Rsi.index()],
                    self.arch.regs[Reg::Rdx.index()],
                ];
                let mut handler = self.hypercall.take().ok_or(Trap::VmError {
                    reason: "no hypervisor",
                })?;
                let r = handler.hypercall(&mut self.space, nr, args);
                self.hypercall = Some(handler);
                match r? {
                    SyscallOutcome::Ret(v) => self.arch.regs[Reg::Rax.index()] = v,
                    SyscallOutcome::Exit(code) => self.arch.halted = Some(code),
                }
            }
            COp::Alloc { size, .. } => {
                let size = self.arch.regs[size.index()];
                // Without a heap the alloc traps below and consumes no
                // forced failure.
                let ptr = if self.heap.is_some() && self.arch.forced_alloc_failures > 0 {
                    self.arch.forced_alloc_failures -= 1;
                    None
                } else {
                    heap_for_write(&mut self.heap)?.alloc(&mut self.space, size)
                };
                self.arch.stats.allocator_calls += 1;
                self.arch.regs[Reg::Rax.index()] = ptr.ok_or(Trap::OutOfMemory)?;
            }
            COp::Free { ptr, .. } => {
                let p = self.arch.regs[ptr.index()];
                heap_for_write(&mut self.heap)?.free(&mut self.space, p);
                self.arch.stats.allocator_calls += 1;
            }
            COp::VmFunc { eptp, .. } => {
                if !self.arch.in_vm {
                    return Err(Trap::VmError {
                        reason: "vmfunc outside VM",
                    });
                }
                let ept = self.space.ept_mut().ok_or(Trap::VmError {
                    reason: "no EPT installed",
                })?;
                if !ept.vmfunc_switch(eptp as usize) {
                    return Err(Trap::VmError {
                        reason: "EPTP index out of range",
                    });
                }
                self.arch.stats.vmfuncs += 1;
            }
            COp::YmmToXmm { .. } => self.arch.keys_in_xmm = true,
            // Key material is derived in registers; semantically the
            // cipher is already installed, these charge cycles.
            COp::AesSetup { .. } => {}
            COp::AesRegion {
                base,
                chunks,
                decrypt,
                ..
            } => {
                let cipher = self.cipher.as_ref().ok_or(Trap::MissingAesKeys)?;
                if !self.arch.keys_in_xmm {
                    return Err(Trap::MissingAesKeys);
                }
                let len = chunks as usize * 16;
                let va = VirtAddr(self.arch.regs[base.index()]);
                let mut buf = vec![0u8; len];
                self.space.read(va, &mut buf)?;
                if decrypt {
                    cipher.decrypt_region(&mut buf);
                } else {
                    cipher.encrypt_region(&mut buf);
                }
                self.space.write(va, &buf)?;
                self.arch.stats.aes_chunks += chunks as u64;
            }
            COp::SgxEnter { .. } => {
                self.arch.in_enclave = true;
                self.arch.stats.sgx_transitions += 1;
            }
            COp::SgxExit { .. } => self.arch.in_enclave = false,
            _ => unreachable!("{op:?} runs on the engine's hot arms"),
        }
        Ok(())
    }

    pub(crate) fn alu(&mut self, op: AluOp, dst: Reg, b: u64) {
        let a = self.arch.regs[dst.index()];
        self.arch.regs[dst.index()] = match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b as u32 & 63),
            AluOp::Shr => a.wrapping_shr(b as u32 & 63),
            AluOp::Mul => a.wrapping_mul(b),
        };
    }

    // --- fault injection ----------------------------------------------------

    /// Installs (replacing) the event schedule consulted at every
    /// instruction boundary. See [`crate::events`].
    pub fn set_event_schedule(&mut self, schedule: EventSchedule) {
        self.events = Some(schedule);
    }

    /// The live event schedule, if one is installed — its cursors (fired
    /// one-shots, stream positions) reflect the run so far. The replay
    /// recorder clones this at each checkpoint so a seek can reinstall
    /// the exact mid-storm schedule state.
    pub fn event_schedule(&self) -> Option<&EventSchedule> {
        self.events.as_ref()
    }

    /// Installs the signal-delivery policy used by
    /// [`EventAction::Signal`] events.
    pub fn set_signal_policy(&mut self, policy: SignalPolicy) {
        self.signal_policy = Some(policy);
    }

    /// Overrides the signal nesting limit
    /// ([`DEFAULT_SIGNAL_DEPTH_LIMIT`]): a delivery that would push a
    /// frame on top of `limit` live frames raises [`Trap::Reentrancy`].
    /// Configuration, like the policy itself: not captured by snapshots.
    pub fn set_signal_depth_limit(&mut self, limit: usize) {
        self.signal_depth_limit = limit;
    }

    /// The current signal nesting limit.
    pub fn signal_depth_limit(&self) -> usize {
        self.signal_depth_limit
    }

    /// Declares the technique's closed domain state, used to scrub the
    /// window on signal delivery and window-aware preemption.
    pub fn set_domain_closure(&mut self, closure: DomainClosure) {
        self.domain_closure = Some(closure);
    }

    /// Number of signal frames currently live (nested deliveries).
    pub fn signal_depth(&self) -> usize {
        self.signal_frames.len()
    }

    /// Injected events not yet fired (0 when no schedule is installed).
    pub fn pending_events(&self) -> usize {
        self.events.as_ref().map_or(0, EventSchedule::remaining)
    }

    /// Whether a forced preemption is in flight (a sibling thread is
    /// running out an injected quantum). Sweep harnesses use this to tell
    /// when an injected event has fully resolved.
    pub fn preempt_active(&self) -> bool {
        self.preempt.is_some()
    }

    /// Signals queued on per-thread pending queues (they arrive while a
    /// forced preemption is in flight and deliver at switch-back).
    pub fn queued_signals(&self) -> u64 {
        self.arch.threads.iter().map(|t| t.pending_signals).sum()
    }

    /// Fires every event due at the current instruction boundary. Each
    /// actual delivery is reported back to the schedule so compound
    /// [`crate::events::StreamSource::After`] triggers can arm; dropped
    /// events are counted in [`ExecStats::dropped_events`] instead.
    fn poll_events(&mut self) -> Result<(), Trap> {
        loop {
            let now = self.arch.stats.instructions;
            let action = match self.events.as_mut().and_then(|s| s.pop_due(now)) {
                Some(a) => a,
                None => return Ok(()),
            };
            let kind = action.kind();
            let outcome = match action {
                EventAction::Signal => {
                    if let Some(p) = &self.preempt {
                        // The signal targets the interrupted thread: park
                        // it on that thread's pending queue; it delivers
                        // at switch-back, not on the hostile sibling.
                        let resume = p.resume;
                        self.arch.threads[resume].pending_signals += 1;
                        Delivery::Deferred
                    } else if self.deliver_signal()? {
                        Delivery::Delivered
                    } else {
                        Delivery::Dropped
                    }
                }
                EventAction::Preempt { to, quantum, scrub } => {
                    if self.deliver_preempt(to, quantum, scrub) {
                        Delivery::Delivered
                    } else {
                        Delivery::Dropped
                    }
                }
                EventAction::Write { addr, value } => {
                    // A racing write to an unmapped address simply misses.
                    if self.space.poke(VirtAddr(addr), &value.to_le_bytes()) {
                        Delivery::Delivered
                    } else {
                        Delivery::Dropped
                    }
                }
                EventAction::FailAllocs { count } => {
                    self.arch.forced_alloc_failures += count;
                    Delivery::Delivered
                }
            };
            match outcome {
                Delivery::Delivered => {
                    if let Some(s) = self.events.as_mut() {
                        s.note_delivery(kind, now);
                    }
                }
                Delivery::Dropped => self.arch.stats.dropped_events += 1,
                Delivery::Deferred => {}
            }
        }
    }

    /// Pushes an architectural signal frame, optionally force-closes the
    /// domain, and enters the handler. Returns `false` (dropped) without
    /// an installed policy; nesting past the depth limit raises
    /// [`Trap::Reentrancy`].
    fn deliver_signal(&mut self) -> Result<bool, Trap> {
        let policy = match self.signal_policy {
            Some(p) => p,
            None => return Ok(false),
        };
        if policy.handler.0 as usize >= self.program.functions.len() {
            return Err(Trap::BadCodePointer {
                value: CodeAddr::entry(policy.handler).encode(),
            });
        }
        if self.signal_frames.len() >= self.signal_depth_limit {
            return Err(Trap::Reentrancy {
                resource: "signal delivery",
            });
        }
        let closure = self.domain_closure;
        let saved = if policy.scrub {
            closure.map(|c| self.close_domain(&c))
        } else {
            None
        };
        self.signal_frames.push(SignalFrame {
            regs: self.arch.regs,
            bnd: self.arch.bnd,
            pc: self.arch.pc,
            last_masked: self.arch.last_masked,
            saved,
        });
        self.arch.pc = CodeAddr::entry(policy.handler);
        self.arch.stats.signals += 1;
        // Delivery enters and leaves the kernel once, like a syscall.
        self.arch.stats.cycles += self.cost.syscall;
        Ok(true)
    }

    /// `sigreturn`: pops the newest signal frame, reopening the domain if
    /// delivery closed it. With no frame live this is hostile or buggy
    /// code and traps as a bad syscall.
    fn sigreturn(&mut self) -> Result<(), Trap> {
        let frame = self.signal_frames.pop().ok_or(Trap::BadSyscall {
            nr: crate::kernel::nr::SIGRETURN,
        })?;
        if let Some(saved) = frame.saved {
            self.reopen_domain(&saved);
        }
        self.arch.regs = frame.regs;
        self.arch.bnd = frame.bnd;
        self.arch.pc = frame.pc;
        self.arch.last_masked = frame.last_masked;
        Ok(())
    }

    /// Forced context switch to `to` for `quantum` instructions. Invalid
    /// targets and nested preemptions drop the event (the scheduler never
    /// preempts into a halted or nonexistent thread); drops return
    /// `false` so the poll can count them.
    fn deliver_preempt(&mut self, to: usize, quantum: u64, scrub: bool) -> bool {
        self.ensure_main_slot();
        if to >= self.arch.threads.len() || to == self.arch.active_thread || self.preempt.is_some()
        {
            return false;
        }
        if self.arch.threads[to].halted.is_some() {
            return false;
        }
        let closure = self.domain_closure;
        let saved = if scrub {
            closure.map(|c| self.close_domain(&c))
        } else {
            None
        };
        let resume = self.arch.active_thread;
        self.switch_thread(to);
        self.preempt = Some(PreemptState {
            resume,
            remaining: quantum.max(1),
            saved,
        });
        self.arch.stats.preemptions += 1;
        self.arch.stats.cycles += self.cost.syscall;
        true
    }

    /// Counts down an in-flight preemption and switches back to the
    /// preempted thread when the quantum expires (or the sibling halts),
    /// then drains that thread's pending signal queue — a drained
    /// delivery can trap (reentrancy limit, bad handler), which is why
    /// the tick is fallible.
    fn tick_preempt(&mut self) -> Result<(), Trap> {
        if let Some(p) = &mut self.preempt {
            if self.arch.halted.is_none() {
                p.remaining = p.remaining.saturating_sub(1);
                if p.remaining > 0 {
                    return Ok(());
                }
            }
        }
        if let Some(p) = self.preempt.take() {
            self.switch_thread(p.resume);
            if let Some(saved) = p.saved {
                self.reopen_domain(&saved);
            }
            self.drain_pending_signals()?;
        }
        Ok(())
    }

    /// Delivers every signal queued on the active thread (they arrived
    /// while it was preempted). Deliveries stack frames in queue order;
    /// each successful one arms compound triggers like a direct delivery.
    fn drain_pending_signals(&mut self) -> Result<(), Trap> {
        let tid = self.arch.active_thread;
        while self
            .arch
            .threads
            .get(tid)
            .is_some_and(|t| t.pending_signals > 0)
        {
            self.arch.threads[tid].pending_signals -= 1;
            if self.deliver_signal()? {
                let now = self.arch.stats.instructions;
                if let Some(s) = self.events.as_mut() {
                    s.note_delivery(TriggerKind::Signal, now);
                }
            } else {
                self.arch.stats.dropped_events += 1;
            }
        }
        Ok(())
    }

    /// Imposes the closed domain state, returning what it displaced.
    fn close_domain(&mut self, c: &DomainClosure) -> SavedDomain {
        let mut saved = SavedDomain {
            pkru: self.space.pkru,
            ept: None,
            view: None,
            in_enclave: self.arch.in_enclave,
            crypt: None,
            keys_in_xmm: self.arch.keys_in_xmm,
            mprotect: None,
        };
        if let Some(pkru) = c.pkru {
            self.space.pkru = pkru;
        }
        if let Some(closed) = c.ept {
            if let Some(ept) = self.space.ept_mut() {
                saved.ept = Some(ept.active_index());
                ept.vmfunc_switch(closed);
            }
        }
        if let Some(closed) = c.view {
            saved.view = Some(self.space.active_view());
            self.space.switch_view(closed);
        }
        if c.enclave {
            self.arch.in_enclave = false;
        }
        if let Some((base, chunks)) = c.crypt {
            // Sealing is unconditional: encrypt-then-decrypt is the
            // identity, so a window that was already closed (ciphertext in
            // memory) round-trips through double encryption untouched by
            // the time it is reopened.
            if self.crypt_region_raw(base, chunks, false) {
                saved.crypt = Some((base, chunks));
            }
            self.arch.keys_in_xmm = false;
        }
        if let Some((base, len)) = c.mprotect {
            if let Some(flags) = self.space.page_flags(VirtAddr(base)) {
                let prot = if flags.writable {
                    Prot::ReadWrite
                } else if flags.present {
                    Prot::Read
                } else {
                    Prot::None
                };
                saved.mprotect = Some((base, len, prot));
                self.space.mprotect(VirtAddr(base), len, Prot::None);
            }
        }
        saved
    }

    /// Reverts a forced closure, restoring the window exactly as it was.
    fn reopen_domain(&mut self, saved: &SavedDomain) {
        self.space.pkru = saved.pkru;
        if let Some(index) = saved.ept {
            if let Some(ept) = self.space.ept_mut() {
                ept.vmfunc_switch(index);
            }
        }
        if let Some(view) = saved.view {
            self.space.switch_view(view);
        }
        self.arch.in_enclave = saved.in_enclave;
        self.arch.keys_in_xmm = saved.keys_in_xmm;
        if let Some((base, chunks)) = saved.crypt {
            self.crypt_region_raw(base, chunks, true);
        }
        if let Some((base, len, prot)) = saved.mprotect {
            self.space.mprotect(VirtAddr(base), len, prot);
        }
    }

    /// Encrypts or decrypts a region through `peek`/`poke`, charging no
    /// cycles or stats — this models the kernel/runtime doing the work on
    /// the program's behalf during delivery, not program instructions.
    fn crypt_region_raw(&mut self, base: u64, chunks: u32, decrypt: bool) -> bool {
        let Some(cipher) = &self.cipher else {
            return false;
        };
        let mut buf = vec![0u8; chunks as usize * 16];
        if !self.space.peek(VirtAddr(base), &mut buf) {
            return false;
        }
        if decrypt {
            cipher.decrypt_region(&mut buf);
        } else {
            cipher.encrypt_region(&mut buf);
        }
        self.space.poke(VirtAddr(base), &buf)
    }

    // --- snapshot / restore -------------------------------------------------

    /// Captures the machine's full mutable architectural state so one
    /// decoded program can be swept across thousands of injection points
    /// without re-running setup. The immutable program, cost model and the
    /// syscall/hypercall/tracer hooks are *not* captured — they are either
    /// constant or cost-inert, and stay on the machine across restores.
    ///
    /// The address space is cloned copy-on-write: the snapshot shares
    /// the physical frame table's blocks of 64 frame slots, every frame,
    /// every cache chunk and the EPT list with the machine, so taking one
    /// costs a pointer copy per block and per 64-set cache chunk. The
    /// machine's next write to a shared frame copies just its block's 64
    /// slot pointers and that frame, one to a shared chunk just that
    /// chunk, and one to the EPT tables the list. The heap policy is
    /// shared too; the next `Alloc`/`Free` copies it. Physical memory,
    /// each cache level and the TLB get a lineage stamp that the snapshot
    /// shares until the machine writes to that table, and every write to
    /// memory or a cache level marks what it wrote, which lets
    /// [`Self::restore`] skip a table or copy back only the marked lines
    /// and sets (see [`AddressSpace::restore_from`]).
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            space: self.space.clone(),
            arch: self.arch.clone(),
            heap: self.heap.clone(),
            cipher: self.cipher.clone(),
        }
    }

    /// Rewinds the machine to `snap`, which may be any snapshot of this
    /// machine (or of one sharing its program and configuration), in any
    /// order. All transient injection state (the event schedule, live
    /// signal frames, in-flight preemption) is cleared; install a fresh
    /// schedule after restoring to sweep the next injection point.
    ///
    /// The address space rewinds through [`AddressSpace::restore_from`],
    /// per table: memory, a cache level or the TLB that still carries the
    /// snapshot's stamp is skipped without a look; memory or a cache level
    /// that descends from the snapshot (restored from it or cloned into it
    /// last) copies back only the lines and sets it marked since, into
    /// frames and chunks it keeps for the next write; any other table
    /// re-points the blocks and chunks it does not share with the
    /// snapshot, and a TLB that did not skip copies its 64 entries. The
    /// heap policy is re-pointed to the snapshot's without a copy, and the
    /// thread table is copied into its existing allocation. The mutation
    /// generation moves past both timelines', which orphans every
    /// inline-cache slot stamped before the restore.
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        self.space.restore_from(&snap.space);
        let mut threads = std::mem::take(&mut self.arch.threads);
        threads.clone_from(&snap.arch.threads);
        self.arch = ArchState {
            threads,
            ..snap.arch
        };
        self.heap.clone_from(&snap.heap);
        self.cipher = snap.cipher.clone();
        self.events = None;
        self.signal_frames.clear();
        self.preempt = None;
        // Pending per-thread signal queues reference the cleared
        // preemption; a restore clears all storm state.
        for t in &mut self.arch.threads {
            t.pending_signals = 0;
        }
    }

    /// Hashes the machine's full semantic state into one deterministic
    /// 64-bit value: registers, bounds, the program counter, every
    /// [`ExecStats`] counter (cycles by bit pattern), halt status, all
    /// mode flags, the thread table, injection depth (live signal frames,
    /// unfired events, stream cursors, in-flight preemption), the heap
    /// policy and the address space, in that order. Bookkeeping that
    /// cannot affect future execution — the translation memo and inline
    /// caches, which frames and cache chunks are shared with snapshots —
    /// is deliberately excluded, so a machine rewound via checkpoint +
    /// restore and a machine run from the start digest identically
    /// exactly when they are observationally identical. The replay
    /// subsystem's equality assertions are built on this.
    pub fn state_digest(&self) -> u64 {
        let mut d = memsentry_mmu::Digest::new();
        let Ok(()) = self.walk(self, &mut d);
        d.finish()
    }

    /// Compares the machine with `other` component by component and
    /// names the first that differs — `rbx`, `stats.cycles`, `thread 1
    /// pc index`, `stream 2 cursor`, `frame 0x1c3 +0x18`, `L2 set 0x2a
    /// ways`, `TLB slot 17 pte`, `EPT 1 gpfn 0x40 hpfn` — or returns
    /// `None` when the two are observationally identical. It walks the
    /// one field list [`Self::state_digest`] feeds, so it covers and
    /// ignores exactly what the digest does, in its order:
    /// `a.diff(b).is_none()` holds exactly when the digests are equal,
    /// short of a hash collision. Heaps the two do not share are
    /// compared by their [`HeapPolicy::digest_into`] streams.
    ///
    /// Nothing is hashed but an unshared heap policy: the policy, frames,
    /// cache chunks and EPT tables the two machines share copy-on-write
    /// (both restored from one recording, say) are equal unread, and two
    /// memories or cache levels of one lineage visit only the frames and
    /// chunks either side marked, so the comparison costs what the two
    /// wrote since, not the size of the machine. Names cost nothing on the
    /// equal path either: the scalar architectural state (registers,
    /// statistics with `cycles` also by bits, mode flags, threads) is
    /// compared whole, and walked field by field to name the difference
    /// only when that compare fails.
    pub fn diff(&self, other: &Machine) -> Option<Divergence> {
        self.walk(other, &mut Compare).err()
    }

    /// The one field list behind [`Self::state_digest`] and
    /// [`Self::diff`]: every semantic component of `self` and `other`
    /// side by side, in digest order. [`ExecStats`], the thread table,
    /// the stream cursors and the address space walk their own parts;
    /// the heap policy joins as an opaque part.
    fn walk<W: Walk>(&self, other: &Machine, w: &mut W) -> Result<(), W::Stop> {
        let (a, b) = (&self.arch, &other.arch);
        let cipher = |m: &Machine| m.cipher.is_some();
        let bits = |s: &ArchState| s.stats.cycles.to_bits();
        if !w.skips(|| a == b && bits(a) == bits(b) && cipher(self) == cipher(other)) {
            let ArchState {
                regs,
                bnd,
                pc,
                stats,
                halted,
                in_vm,
                keys_in_xmm,
                last_masked,
                epc,
                in_enclave,
                syscall_passthrough,
                forced_alloc_failures,
                threads,
                active_thread,
            } = a;
            for r in Reg::ALL {
                w.word(r, regs[r.index()], b.regs[r.index()])?;
            }
            for (i, (x, y)) in bnd.iter().zip(&b.bnd).enumerate() {
                w.word(format_args!("bnd{i} lower"), x.0, y.0)?;
                w.word(format_args!("bnd{i} upper"), x.1, y.1)?;
            }
            w.word("pc func", pc.func.0.into(), b.pc.func.0.into())?;
            w.word("pc index", pc.index.into(), b.pc.index.into())?;
            stats.walk(&b.stats, w)?;
            w.opt("halted", *halted, b.halted)?;
            w.flag("in_vm", *in_vm, b.in_vm)?;
            w.flag("keys_in_xmm", *keys_in_xmm, b.keys_in_xmm)?;
            w.flag("in_enclave", *in_enclave, b.in_enclave)?;
            w.flag(
                "syscall_passthrough",
                *syscall_passthrough,
                b.syscall_passthrough,
            )?;
            w.flag("cipher", cipher(self), cipher(other))?;
            let masked = |r: Option<Reg>| r.map(|r| r.index() as u64);
            w.opt("last_masked", masked(*last_masked), masked(b.last_masked))?;
            w.flag("epc", epc.is_some(), b.epc.is_some())?;
            if let (Some(x), Some(y)) = (epc, b.epc) {
                w.word("epc lower", x.0, y.0)?;
                w.word("epc upper", x.1, y.1)?;
            }
            w.word(
                "forced_alloc_failures",
                *forced_alloc_failures,
                b.forced_alloc_failures,
            )?;
            ThreadCtx::walk_table(threads, &b.threads, w)?;
            w.word(
                "active_thread",
                *active_thread as u64,
                b.active_thread as u64,
            )?;
        }
        w.word(
            "signal_depth",
            self.signal_depth() as u64,
            other.signal_depth() as u64,
        )?;
        w.word(
            "pending_events",
            self.pending_events() as u64,
            other.pending_events() as u64,
        )?;
        EventSchedule::walk_streams(self.events.as_ref(), other.events.as_ref(), w)?;
        w.flag("preemption", self.preempt_active(), other.preempt_active())?;
        w.flag("heap", self.heap.is_some(), other.heap.is_some())?;
        if let (Some(x), Some(y)) = (&self.heap, &other.heap) {
            w.part(
                |d| x.digest_into(d),
                || {
                    // A policy both share is equal unhashed.
                    if Rc::ptr_eq(x, y) {
                        return Ok(());
                    }
                    let digest = |h: &Rc<dyn HeapPolicy>| {
                        let mut d = memsentry_mmu::Digest::new();
                        h.digest_into(&mut d);
                        d.finish()
                    };
                    same("heap digest", digest(x), digest(y))
                },
            )?;
        }
        self.space.walk(&other.space, w)
    }
}

/// A copy of a [`Machine`]'s mutable state: the address space (page
/// tables, physical frames, TLB, caches, EPTs), the scalar architectural
/// state (registers, statistics, mode flags and threads, one struct
/// copied whole), the heap policy and the cipher. Created by
/// [`Machine::snapshot`], consumed (repeatedly, in any order with other
/// snapshots) by [`Machine::restore`]. Physical frames, the frame
/// table's blocks of slots, cache chunks, the EPT list and the heap
/// policy are shared copy-on-write with the machine and with other
/// snapshots: a write after the capture copies the frame and block, the
/// chunk, the list or the policy it touches, so a snapshot never
/// changes. Its memory, cache levels and TLB carry the lineage stamps
/// they had at capture; the machine keeps them until it writes to those
/// tables, and a restore between the two skips every table still stamped
/// alike and copies back only what the machine marked in its memory and
/// cache levels.
#[derive(Debug)]
pub struct MachineSnapshot {
    space: AddressSpace,
    arch: ArchState,
    heap: Option<Rc<dyn HeapPolicy>>,
    cipher: Option<RegionCipher>,
}

impl MachineSnapshot {
    /// Retired-instruction count at capture time (sweep offsets are
    /// scheduled relative to this).
    pub fn instructions(&self) -> u64 {
        self.arch.stats.instructions
    }

    /// Simulated cycles at capture time.
    pub fn cycles(&self) -> f64 {
        self.arch.stats.cycles
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use memsentry_ir::{Cond, FuncId, FunctionBuilder, Inst, Label};
    use memsentry_mmu::SENSITIVE_BASE;

    fn run_main(build: impl FnOnce(&mut FunctionBuilder)) -> (RunOutcome, Machine) {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        build(&mut b);
        p.add_function(b.finish());
        let mut m = Machine::new(p);
        let out = m.run();
        (out, m)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (out, _) = run_main(|b| {
            b.push(Inst::MovImm {
                dst: Reg::Rax,
                imm: 40,
            });
            b.push(Inst::AluImm {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 2,
            });
            b.push(Inst::Halt);
        });
        assert_eq!(out.expect_exit(), 42);
    }

    #[test]
    fn loop_with_conditional_branch() {
        // Sum 1..=10 into rax.
        let (out, m) = run_main(|b| {
            let top = b.new_label();
            b.push(Inst::MovImm {
                dst: Reg::Rax,
                imm: 0,
            });
            b.push(Inst::MovImm {
                dst: Reg::Rbx,
                imm: 1,
            });
            b.push(Inst::MovImm {
                dst: Reg::Rcx,
                imm: 11,
            });
            b.bind(top);
            b.push(Inst::AluReg {
                op: AluOp::Add,
                dst: Reg::Rax,
                src: Reg::Rbx,
            });
            b.push(Inst::AluImm {
                op: AluOp::Add,
                dst: Reg::Rbx,
                imm: 1,
            });
            b.push(Inst::JmpIf {
                cond: Cond::Ne,
                a: Reg::Rbx,
                b: Reg::Rcx,
                target: top,
            });
            b.push(Inst::Halt);
        });
        assert_eq!(out.expect_exit(), 55);
        assert!(m.cycles() > 0.0);
    }

    #[test]
    fn stack_calls_and_returns() {
        let mut p = Program::new();
        let mut callee = FunctionBuilder::new("callee");
        callee.push(Inst::MovImm {
            dst: Reg::Rax,
            imm: 99,
        });
        callee.push(Inst::Ret);
        let mut main = FunctionBuilder::new("main");
        main.push(Inst::Call(FuncId(1)));
        main.push(Inst::Halt);
        p.add_function(main.finish());
        p.add_function(callee.finish());
        let mut m = Machine::new(p);
        let out = m.run();
        assert_eq!(out.expect_exit(), 99);
        assert_eq!(m.stats().calls, 1);
        assert_eq!(m.stats().rets, 1);
    }

    #[test]
    fn indirect_call_via_code_pointer() {
        let mut p = Program::new();
        let mut target = FunctionBuilder::new("target");
        target.push(Inst::MovImm {
            dst: Reg::Rax,
            imm: 7,
        });
        target.push(Inst::Ret);
        let mut main = FunctionBuilder::new("main");
        main.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: CodeAddr::entry(FuncId(1)).encode(),
        });
        main.push(Inst::CallIndirect { target: Reg::Rbx });
        main.push(Inst::Halt);
        p.add_function(main.finish());
        p.add_function(target.finish());
        let mut m = Machine::new(p);
        assert_eq!(m.run().expect_exit(), 7);
        assert_eq!(m.stats().indirect_calls, 1);
    }

    #[test]
    fn indirect_call_to_garbage_traps() {
        let (out, _) = run_main(|b| {
            b.push(Inst::MovImm {
                dst: Reg::Rbx,
                imm: 0xdead,
            });
            b.push(Inst::CallIndirect { target: Reg::Rbx });
            b.push(Inst::Halt);
        });
        assert!(matches!(
            out.expect_trap(),
            Trap::BadCodePointer { value: 0xdead }
        ));
    }

    #[test]
    fn corrupted_return_address_hijacks_control_flow() {
        // The attack the paper defends against: overwrite the on-stack
        // return address and `ret` follows it.
        let mut p = Program::new();
        let mut victim = FunctionBuilder::new("victim");
        // Overwrite our own return address with gadget's entry.
        victim.push(Inst::MovImm {
            dst: Reg::Rax,
            imm: CodeAddr::entry(FuncId(2)).encode(),
        });
        victim.push(Inst::Store {
            src: Reg::Rax,
            addr: Reg::Rsp,
            offset: 0,
        });
        victim.push(Inst::Ret);
        let mut gadget = FunctionBuilder::new("gadget");
        gadget.push(Inst::MovImm {
            dst: Reg::Rax,
            imm: 0x666,
        });
        gadget.push(Inst::Halt);
        let mut main = FunctionBuilder::new("main");
        main.push(Inst::Call(FuncId(1)));
        main.push(Inst::MovImm {
            dst: Reg::Rax,
            imm: 0,
        });
        main.push(Inst::Halt);
        p.add_function(main.finish());
        p.add_function(victim.finish());
        p.add_function(gadget.finish());
        let mut m = Machine::new(p);
        assert_eq!(
            m.run().expect_exit(),
            0x666,
            "hijack must succeed undefended"
        );
    }

    #[test]
    fn memory_roundtrip_through_mapped_region() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: 0x10_0000,
        });
        b.push(Inst::MovImm {
            dst: Reg::Rax,
            imm: 1234,
        });
        b.push(Inst::Store {
            src: Reg::Rax,
            addr: Reg::Rbx,
            offset: 8,
        });
        b.push(Inst::Load {
            dst: Reg::Rax,
            addr: Reg::Rbx,
            offset: 8,
        });
        b.push(Inst::Halt);
        p.add_function(b.finish());
        let mut m = Machine::new(p);
        m.space
            .map_region(VirtAddr(0x10_0000), 4096, PageFlags::rw());
        assert_eq!(m.run().expect_exit(), 1234);
        assert_eq!(m.stats().loads, 1);
        assert_eq!(m.stats().stores, 1);
    }

    #[test]
    fn bndcu_traps_above_bound() {
        let (out, _) = run_main(|b| {
            b.push(Inst::BndMk {
                bnd: 0,
                lower: 0,
                upper: SENSITIVE_BASE - 1,
            });
            b.push(Inst::MovImm {
                dst: Reg::Rcx,
                imm: SENSITIVE_BASE + 8,
            });
            b.push(Inst::BndCu {
                bnd: 0,
                reg: Reg::Rcx,
            });
            b.push(Inst::Halt);
        });
        assert!(matches!(out.expect_trap(), Trap::BoundRange { .. }));
    }

    #[test]
    fn bndcu_passes_below_bound() {
        let (out, m) = run_main(|b| {
            b.push(Inst::BndMk {
                bnd: 0,
                lower: 0,
                upper: SENSITIVE_BASE - 1,
            });
            b.push(Inst::MovImm {
                dst: Reg::Rcx,
                imm: 0x1000,
            });
            b.push(Inst::BndCu {
                bnd: 0,
                reg: Reg::Rcx,
            });
            b.push(Inst::Halt);
        });
        out.expect_exit();
        assert_eq!(m.stats().bound_checks, 1);
    }

    #[test]
    fn wrpkru_updates_pkru() {
        let (_, m) = run_main(|b| {
            b.push(Inst::MovImm {
                dst: Reg::Rax,
                imm: 0b1100,
            });
            b.push(Inst::WrPkru { src: Reg::Rax });
            b.push(Inst::Halt);
        });
        assert_eq!(m.space.pkru.0, 0b1100);
        assert_eq!(m.stats().wrpkrus, 1);
    }

    #[test]
    fn vmfunc_outside_vm_traps() {
        let (out, _) = run_main(|b| {
            b.push(Inst::VmFunc { eptp: 1 });
            b.push(Inst::Halt);
        });
        assert!(matches!(out.expect_trap(), Trap::VmError { .. }));
    }

    #[test]
    fn syscall_exit_ends_program() {
        let (out, m) = run_main(|b| {
            b.push(Inst::MovImm {
                dst: Reg::Rdi,
                imm: 5,
            });
            b.push(Inst::Syscall { nr: 0 });
            b.push(Inst::Halt);
        });
        assert_eq!(out.expect_exit(), 5);
        assert_eq!(m.stats().syscalls, 1);
    }

    #[test]
    fn alloc_and_free_through_heap() {
        let (out, m) = run_main(|b| {
            b.push(Inst::MovImm {
                dst: Reg::Rdi,
                imm: 64,
            });
            b.push(Inst::Alloc { size: Reg::Rdi });
            // Store to the allocation to prove it is mapped.
            b.push(Inst::MovImm {
                dst: Reg::Rbx,
                imm: 77,
            });
            b.push(Inst::Store {
                src: Reg::Rbx,
                addr: Reg::Rax,
                offset: 0,
            });
            b.push(Inst::Load {
                dst: Reg::Rax,
                addr: Reg::Rax,
                offset: 0,
            });
            b.push(Inst::Halt);
        });
        assert_eq!(out.expect_exit(), 77);
        assert_eq!(m.stats().allocator_calls, 1);
    }

    #[test]
    fn the_heap_is_shared_copy_on_write_with_snapshots() {
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm {
            dst: Reg::Rdi,
            imm: 64,
        });
        b.push(Inst::Alloc { size: Reg::Rdi });
        b.push(Inst::Alloc { size: Reg::Rdi });
        b.push(Inst::Free { ptr: Reg::Rax });
        b.push(Inst::Halt);
        let mut p = Program::new();
        p.add_function(b.finish());
        let heap_of = |h: &Option<Rc<dyn HeapPolicy>>| {
            let heap = h.as_ref().expect("a heap");
            let mut d = memsentry_mmu::Digest::new();
            heap.digest_into(&mut d);
            (heap.live_bytes(), d.finish())
        };
        let mut m = Machine::new(p.clone());
        let snap = m.snapshot();
        let shared =
            |m: &Machine| Rc::ptr_eq(m.heap.as_ref().unwrap(), snap.heap.as_ref().unwrap());
        assert!(shared(&m));
        let pristine = heap_of(&snap.heap);
        m.run_until(2).unwrap();
        let first = m.arch.regs[Reg::Rax.index()];
        assert!(!shared(&m), "the alloc copied the policy");
        assert_eq!(heap_of(&snap.heap), pristine);
        assert_eq!(heap_of(&m.heap).0, 64);
        // A restore re-points the policy; an alloc after it leaves the
        // snapshot's unchanged and hands out the same block again.
        m.restore(&snap);
        assert!(shared(&m));
        m.run_until(3).unwrap();
        assert_eq!(heap_of(&snap.heap), pristine);
        assert_eq!(heap_of(&m.heap).0, 128);
        m.restore(&snap);
        m.run_until(2).unwrap();
        assert_eq!(m.arch.regs[Reg::Rax.index()], first);
        // Two restores from one snapshot give equal heaps, also after
        // running the rest of the program.
        let mut twin = Machine::new(p);
        m.restore(&snap);
        twin.restore(&snap);
        assert_eq!(heap_of(&m.heap), heap_of(&twin.heap));
        m.run().expect_exit();
        twin.run().expect_exit();
        assert_eq!(heap_of(&m.heap), heap_of(&twin.heap));
        assert_eq!(heap_of(&m.heap).0, 64);
        assert_eq!(m.diff(&twin), None);
        assert_eq!(heap_of(&snap.heap), pristine);
    }

    #[test]
    fn aes_region_without_keys_traps() {
        let (out, _) = run_main(|b| {
            b.push(Inst::MovImm {
                dst: Reg::Rbx,
                imm: 0x10_0000,
            });
            b.push(Inst::AesRegion {
                base: Reg::Rbx,
                chunks: 1,
                decrypt: false,
            });
            b.push(Inst::Halt);
        });
        assert_eq!(out.expect_trap(), &Trap::MissingAesKeys);
    }

    #[test]
    fn aes_region_roundtrips_memory() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: 0x10_0000,
        });
        b.push(Inst::YmmToXmm { count: 11 });
        b.push(Inst::AesRegion {
            base: Reg::Rbx,
            chunks: 2,
            decrypt: false,
        });
        b.push(Inst::Load {
            dst: Reg::Rax,
            addr: Reg::Rbx,
            offset: 0,
        });
        b.push(Inst::Mov {
            dst: Reg::R8,
            src: Reg::Rax,
        });
        b.push(Inst::AesRegion {
            base: Reg::Rbx,
            chunks: 2,
            decrypt: true,
        });
        b.push(Inst::Load {
            dst: Reg::Rax,
            addr: Reg::Rbx,
            offset: 0,
        });
        b.push(Inst::Halt);
        p.add_function(b.finish());
        let mut m = Machine::new(p);
        m.space
            .map_region(VirtAddr(0x10_0000), 4096, PageFlags::rw());
        m.space.poke(VirtAddr(0x10_0000), &0xabcdu64.to_le_bytes());
        m.install_aes_key(&[9u8; 16]);
        let out = m.run();
        // After the final decrypt the original value is back in rax.
        assert_eq!(out.expect_exit(), 0xabcd);
        // And while encrypted, the loaded value differed.
        assert_ne!(m.reg(Reg::R8), 0xabcd);
        assert_eq!(m.stats().aes_chunks, 4);
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        let top = b.new_label();
        b.bind(top);
        b.push(Inst::Jmp(top));
        p.add_function(b.finish());
        let mut m = Machine::with_config(
            p,
            MachineConfig {
                fuel: 1000,
                ..Default::default()
            },
        );
        assert_eq!(m.run().expect_trap(), &Trap::OutOfFuel);
    }

    #[test]
    fn shift_amounts_mask_to_six_bits() {
        let (out, _) = run_main(|b| {
            b.push(Inst::MovImm {
                dst: Reg::Rax,
                imm: 1,
            });
            b.push(Inst::AluImm {
                op: AluOp::Shl,
                dst: Reg::Rax,
                imm: 65,
            });
            b.push(Inst::Halt);
        });
        assert_eq!(out.expect_exit(), 2, "shl 65 == shl 1 on x86");
    }

    #[test]
    fn ret_to_out_of_range_function_traps() {
        let (out, _) = run_main(|b| {
            b.push(Inst::MovImm {
                dst: Reg::Rax,
                imm: CodeAddr::entry(FuncId(99)).encode(),
            });
            b.push(Inst::Store {
                src: Reg::Rax,
                addr: Reg::Rsp,
                offset: -8,
            });
            b.push(Inst::AluImm {
                op: AluOp::Sub,
                dst: Reg::Rsp,
                imm: 8,
            });
            b.push(Inst::Ret);
            b.push(Inst::Halt);
        });
        assert!(matches!(out.expect_trap(), Trap::BadCodePointer { .. }));
    }

    #[test]
    fn epc_range_enforced_only_outside_enclave() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: 0x10_0000,
        });
        b.push(Inst::SgxEnter);
        b.push(Inst::MovImm {
            dst: Reg::Rcx,
            imm: 5,
        });
        b.push(Inst::Store {
            src: Reg::Rcx,
            addr: Reg::Rbx,
            offset: 0,
        });
        b.push(Inst::Load {
            dst: Reg::Rax,
            addr: Reg::Rbx,
            offset: 0,
        });
        b.push(Inst::SgxExit);
        b.push(Inst::Halt);
        p.add_function(b.finish());
        let mut m = Machine::new(p);
        m.space
            .map_region(VirtAddr(0x10_0000), 4096, PageFlags::rw());
        m.set_epc_range(0x10_0000, 4096);
        assert_eq!(m.run().expect_exit(), 5);
        assert_eq!(m.stats().sgx_transitions, 1);
        assert!(!m.in_enclave());
        // Outside the enclave the same access traps.
        let (out, _) = {
            let mut p = Program::new();
            let mut b = FunctionBuilder::new("main");
            b.push(Inst::MovImm {
                dst: Reg::Rbx,
                imm: 0x10_0000,
            });
            b.push(Inst::Load {
                dst: Reg::Rax,
                addr: Reg::Rbx,
                offset: 0,
            });
            b.push(Inst::Halt);
            p.add_function(b.finish());
            let mut m = Machine::new(p);
            m.space
                .map_region(VirtAddr(0x10_0000), 4096, PageFlags::rw());
            m.set_epc_range(0x10_0000, 4096);
            (m.run(), m)
        };
        assert!(matches!(
            out.expect_trap(),
            Trap::EpcAccessOutsideEnclave { .. }
        ));
    }

    #[test]
    fn pinned_aes_keys_skip_staging() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: 0x10_0000,
        });
        b.push(Inst::AesRegion {
            base: Reg::Rbx,
            chunks: 1,
            decrypt: false,
        });
        b.push(Inst::Halt);
        p.add_function(b.finish());
        let mut m = Machine::new(p);
        m.space
            .map_region(VirtAddr(0x10_0000), 4096, PageFlags::rw());
        m.pin_aes_keys(&[3u8; 16]);
        m.run().expect_exit();
        assert_eq!(m.stats().aes_chunks, 1);
    }

    #[test]
    fn call_function_passes_arguments() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::Halt);
        p.add_function(b.finish());
        let mut adder = FunctionBuilder::new("adder");
        adder.push(Inst::Mov {
            dst: Reg::Rax,
            src: Reg::Rdi,
        });
        adder.push(Inst::AluReg {
            op: AluOp::Add,
            dst: Reg::Rax,
            src: Reg::Rsi,
        });
        adder.push(Inst::AluReg {
            op: AluOp::Add,
            dst: Reg::Rax,
            src: Reg::Rdx,
        });
        adder.push(Inst::Halt);
        p.add_function(adder.finish());
        let mut m = Machine::new(p);
        assert_eq!(m.call_function(FuncId(1), [10, 20, 12]).expect_exit(), 42);
        // Re-entry works repeatedly.
        assert_eq!(m.call_function(FuncId(1), [1, 2, 3]).expect_exit(), 6);
    }

    #[test]
    fn cache_misses_cost_more_than_hits() {
        // Two loads to the same line vs two to distinct far lines.
        let build = |stride: i64| {
            let mut p = Program::new();
            let mut b = FunctionBuilder::new("main");
            b.push(Inst::MovImm {
                dst: Reg::Rbx,
                imm: 0x10_0000,
            });
            for i in 0..32 {
                b.push(Inst::Load {
                    dst: Reg::Rax,
                    addr: Reg::Rbx,
                    offset: i * stride,
                });
            }
            b.push(Inst::Halt);
            p.add_function(b.finish());
            let mut m = Machine::new(p);
            m.space
                .map_region(VirtAddr(0x10_0000), 64 * 4096, PageFlags::rw());
            m.run().expect_exit();
            m.cycles()
        };
        let hot = build(0);
        let cold = build(4096);
        assert!(cold > hot * 2.0, "cold {cold} vs hot {hot}");
    }

    #[test]
    fn sfi_dependency_adder_charged_for_masked_load() {
        // Two identical programs except one masks the address register
        // right before the load; the masked one must cost more.
        let build = |mask: bool| {
            let mut p = Program::new();
            let mut b = FunctionBuilder::new("main");
            b.push(Inst::MovImm {
                dst: Reg::Rbx,
                imm: 0x10_0000,
            });
            if mask {
                b.push(Inst::AluImm {
                    op: AluOp::And,
                    dst: Reg::Rbx,
                    imm: memsentry_mmu::addr::SFI_MASK,
                });
            } else {
                b.push(Inst::Nop);
            }
            b.push(Inst::Load {
                dst: Reg::Rax,
                addr: Reg::Rbx,
                offset: 0,
            });
            b.push(Inst::Halt);
            p.add_function(b.finish());
            let mut m = Machine::new(p);
            m.space
                .map_region(VirtAddr(0x10_0000), 4096, PageFlags::rw());
            m.run().expect_exit();
            m.cycles()
        };
        let masked = build(true);
        let unmasked = build(false);
        assert!(masked > unmasked, "{masked} vs {unmasked}");
    }

    #[test]
    fn in_vm_syscall_charged_as_vmcall() {
        // Same program, in and out of the VM; the VM run must cost more
        // because the syscall becomes a hypercall.
        #[derive(Debug)]
        struct NullHv;
        impl HypercallHandler for NullHv {
            fn hypercall(
                &mut self,
                _s: &mut AddressSpace,
                _nr: u64,
                args: [u64; 3],
            ) -> Result<SyscallOutcome, Trap> {
                Ok(SyscallOutcome::Exit(args[0]))
            }
        }
        let prog = || {
            let mut p = Program::new();
            let mut b = FunctionBuilder::new("main");
            b.push(Inst::Syscall { nr: 0 });
            b.push(Inst::Halt);
            p.add_function(b.finish());
            p
        };
        let mut native = Machine::new(prog());
        native.run().expect_exit();
        let mut vm = Machine::new(prog());
        vm.set_in_vm(true);
        vm.set_hypercall_handler(Box::new(NullHv));
        vm.run().expect_exit();
        assert!(vm.cycles() > native.cycles() + 400.0);
        assert_eq!(vm.stats().vmcalls, 1);
    }

    #[test]
    fn push_with_tiny_rsp_traps_instead_of_panicking() {
        // Hostile IR points rsp below 8 and then calls; the push must
        // raise StackUnderflow rather than wrap or panic.
        let mut p = Program::new();
        let mut callee = FunctionBuilder::new("callee");
        callee.push(Inst::Ret);
        let mut main = FunctionBuilder::new("main");
        main.push(Inst::MovImm {
            dst: Reg::Rsp,
            imm: 4,
        });
        main.push(Inst::Call(FuncId(1)));
        main.push(Inst::Halt);
        p.add_function(main.finish());
        p.add_function(callee.finish());
        let mut m = Machine::new(p);
        assert_eq!(*m.run().expect_trap(), Trap::StackUnderflow { rsp: 4 });
    }

    #[test]
    fn branch_to_unbound_label_traps_instead_of_panicking() {
        // A jump to a label never bound in the function decodes to a
        // BadLabel slot and traps only if actually executed.
        let (out, _) = run_main(|b| {
            b.push(Inst::Jmp(Label(999)));
            b.push(Inst::Halt);
        });
        assert_eq!(*out.expect_trap(), Trap::BadLabel { label: 999 });
    }

    #[test]
    fn unexecuted_bad_label_is_harmless() {
        // The same unbound label is fine when control never reaches it.
        let (out, _) = run_main(|b| {
            b.push(Inst::Halt);
            b.push(Inst::Jmp(Label(999)));
        });
        assert_eq!(out.expect_exit(), 0);
    }

    // --- fault injection ----------------------------------------------------

    use crate::events::{Event, EventAction, EventSchedule, SignalPolicy};
    use memsentry_mmu::Pkru;

    const SECRET_ADDR: u64 = 0x10_0000;
    const MAILBOX: u64 = 0x20_0000;
    const SECRET_VALUE: u64 = 0x5ec2e7;

    /// main opens an MPK window (pkey 2), counts 5 + 8 into rbx, closes
    /// the window and exits with rbx. A hostile handler reads the secret
    /// and copies it to the mailbox before `sigreturn`.
    pub(crate) fn mpk_signal_machine(scrub: bool, at: u64) -> Machine {
        let mut p = Program::new();
        let mut main = FunctionBuilder::new("main");
        main.push(Inst::MovImm {
            dst: Reg::R9,
            imm: 0,
        });
        main.push(Inst::WrPkru { src: Reg::R9 });
        main.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: 5,
        });
        for _ in 0..8 {
            main.push(Inst::AluImm {
                op: AluOp::Add,
                dst: Reg::Rbx,
                imm: 1,
            });
        }
        main.push(Inst::MovImm {
            dst: Reg::R9,
            imm: Pkru::deny_key(2).0 as u64,
        });
        main.push(Inst::WrPkru { src: Reg::R9 });
        main.push(Inst::Mov {
            dst: Reg::Rax,
            src: Reg::Rbx,
        });
        main.push(Inst::Halt);
        p.add_function(main.finish());
        let mut h = FunctionBuilder::new("handler");
        h.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: SECRET_ADDR,
        });
        h.push(Inst::Load {
            dst: Reg::Rcx,
            addr: Reg::Rbx,
            offset: 0,
        });
        h.push(Inst::MovImm {
            dst: Reg::Rdx,
            imm: MAILBOX,
        });
        h.push(Inst::Store {
            src: Reg::Rcx,
            addr: Reg::Rdx,
            offset: 0,
        });
        h.push(Inst::Syscall {
            nr: crate::kernel::nr::SIGRETURN,
        });
        h.push(Inst::Halt);
        p.add_function(h.finish());
        let mut m = Machine::new(p);
        m.space
            .map_region(VirtAddr(SECRET_ADDR), 4096, PageFlags::rw());
        m.space.map_region(VirtAddr(MAILBOX), 4096, PageFlags::rw());
        m.space.pkey_mprotect(VirtAddr(SECRET_ADDR), 4096, 2);
        m.space.pkru = Pkru::deny_key(2);
        m.space
            .poke(VirtAddr(SECRET_ADDR), &SECRET_VALUE.to_le_bytes());
        m.set_signal_policy(SignalPolicy {
            handler: FuncId(1),
            scrub,
        });
        m.set_domain_closure(crate::events::DomainClosure {
            pkru: Some(Pkru::deny_key(2)),
            ..Default::default()
        });
        m.set_event_schedule(EventSchedule::at(at, EventAction::Signal));
        m
    }

    #[test]
    fn scrubbed_signal_handler_cannot_see_through_the_window() {
        // The signal lands mid-window, but delivery scrubs pkru to the
        // closed state: the hostile handler's read traps.
        let mut m = mpk_signal_machine(true, 6);
        let out = m.run();
        assert!(
            matches!(
                out.expect_trap(),
                Trap::Mmu(memsentry_mmu::Fault::PkeyDenied { key: 2, .. })
            ),
            "got {out:?}"
        );
        assert_eq!(m.stats().signals, 1);
        assert_eq!(m.signal_depth(), 1, "trap left the frame live");
    }

    #[test]
    fn broken_handler_leaks_and_sigreturn_still_restores_context() {
        // Without scrubbing, the handler reads the secret through the open
        // window — and sigreturn must still restore rbx so main's count
        // finishes correctly.
        let mut m = mpk_signal_machine(false, 6);
        assert_eq!(m.run().expect_exit(), 13, "rbx restored after handler");
        let mut leaked = [0u8; 8];
        assert!(m.space.peek(VirtAddr(MAILBOX), &mut leaked));
        assert_eq!(u64::from_le_bytes(leaked), SECRET_VALUE, "window leaked");
        assert_eq!(m.signal_depth(), 0);
    }

    #[test]
    fn signal_outside_the_window_is_harmless_even_unscrubbed() {
        // Delivered before the window opens (at 0), the closed pkru is
        // architecturally in force: no scrub needed for the read to trap.
        let mut m = mpk_signal_machine(false, 0);
        let out = m.run();
        assert!(matches!(
            out.expect_trap(),
            Trap::Mmu(memsentry_mmu::Fault::PkeyDenied { key: 2, .. })
        ));
    }

    #[test]
    fn sigreturn_without_frame_traps() {
        let (out, _) = run_main(|b| {
            b.push(Inst::Syscall {
                nr: crate::kernel::nr::SIGRETURN,
            });
            b.push(Inst::Halt);
        });
        assert_eq!(out.expect_trap(), &Trap::BadSyscall { nr: 14 });
    }

    #[test]
    fn injected_write_lands_between_instructions() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: MAILBOX,
        });
        b.push(Inst::Nop);
        b.push(Inst::Nop);
        b.push(Inst::Load {
            dst: Reg::Rax,
            addr: Reg::Rbx,
            offset: 0,
        });
        b.push(Inst::Halt);
        p.add_function(b.finish());
        let mut m = Machine::new(p);
        m.space.map_region(VirtAddr(MAILBOX), 4096, PageFlags::rw());
        m.set_event_schedule(EventSchedule::at(
            2,
            EventAction::Write {
                addr: MAILBOX,
                value: 99,
            },
        ));
        assert_eq!(m.run().expect_exit(), 99);
    }

    #[test]
    fn forced_alloc_failure_traps_out_of_memory() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm {
            dst: Reg::Rdi,
            imm: 64,
        });
        b.push(Inst::Alloc { size: Reg::Rdi });
        b.push(Inst::Halt);
        p.add_function(b.finish());
        let mut m = Machine::new(p);
        m.set_event_schedule(EventSchedule::at(0, EventAction::FailAllocs { count: 1 }));
        assert_eq!(m.run().expect_trap(), &Trap::OutOfMemory);
        // A second machine with no injection allocates fine.
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm {
            dst: Reg::Rdi,
            imm: 64,
        });
        b.push(Inst::Alloc { size: Reg::Rdi });
        b.push(Inst::Halt);
        p.add_function(b.finish());
        Machine::new(p).run().expect_exit();
    }

    /// main counts 20 adds into rbx; a preemption at 5 runs the worker
    /// (which posts 7 to the mailbox) for up to 16 instructions, and
    /// `schedule` may add further events.
    pub(crate) fn preempted_machine(mut schedule: Vec<Event>) -> Machine {
        let mut p = Program::new();
        let mut main = FunctionBuilder::new("main");
        main.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: 0,
        });
        for _ in 0..20 {
            main.push(Inst::AluImm {
                op: AluOp::Add,
                dst: Reg::Rbx,
                imm: 1,
            });
        }
        main.push(Inst::Mov {
            dst: Reg::Rax,
            src: Reg::Rbx,
        });
        main.push(Inst::Halt);
        p.add_function(main.finish());
        let mut w = FunctionBuilder::new("worker");
        w.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: MAILBOX,
        });
        w.push(Inst::MovImm {
            dst: Reg::Rcx,
            imm: 7,
        });
        w.push(Inst::Store {
            src: Reg::Rcx,
            addr: Reg::Rbx,
            offset: 0,
        });
        w.push(Inst::Halt);
        p.add_function(w.finish());
        let mut m = Machine::new(p);
        m.space.map_region(VirtAddr(MAILBOX), 4096, PageFlags::rw());
        let tid = m.spawn_thread(FuncId(1), [0; 3]);
        schedule.push(Event {
            at: 5,
            action: EventAction::Preempt {
                to: tid,
                quantum: 16,
                scrub: false,
            },
        });
        m.set_event_schedule(EventSchedule::new(schedule));
        m
    }

    #[test]
    fn forced_preemption_runs_the_sibling_and_resumes() {
        // The worker runs mid-count, then main finishes unperturbed.
        let mut m = preempted_machine(Vec::new());
        assert_eq!(m.run().expect_exit(), 20);
        let mut posted = [0u8; 8];
        assert!(m.space.peek(VirtAddr(MAILBOX), &mut posted));
        assert_eq!(u64::from_le_bytes(posted), 7, "sibling ran mid-window");
        assert_eq!(m.stats().preemptions, 1);
    }

    #[test]
    fn snapshot_restore_mid_run_is_bit_identical() {
        let sum_program = || {
            let mut p = Program::new();
            let mut b = FunctionBuilder::new("main");
            let top = b.new_label();
            b.push(Inst::MovImm {
                dst: Reg::Rax,
                imm: 0,
            });
            b.push(Inst::MovImm {
                dst: Reg::Rbx,
                imm: 1,
            });
            b.push(Inst::MovImm {
                dst: Reg::Rcx,
                imm: 11,
            });
            b.bind(top);
            b.push(Inst::AluReg {
                op: AluOp::Add,
                dst: Reg::Rax,
                src: Reg::Rbx,
            });
            b.push(Inst::AluImm {
                op: AluOp::Add,
                dst: Reg::Rbx,
                imm: 1,
            });
            b.push(Inst::JmpIf {
                cond: Cond::Ne,
                a: Reg::Rbx,
                b: Reg::Rcx,
                target: top,
            });
            b.push(Inst::Halt);
            p.add_function(b.finish());
            p
        };
        let mut reference = Machine::new(sum_program());
        assert_eq!(reference.run().expect_exit(), 55);
        let golden = *reference.stats();

        let mut m = Machine::new(sum_program());
        for _ in 0..7 {
            m.step().unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap.instructions(), 7);
        assert_eq!(m.run().expect_exit(), 55);
        assert_eq!(*m.stats(), golden, "snapshot capture must not perturb");

        // Restore and re-run from the middle: bit-identical again.
        m.restore(&snap);
        assert_eq!(m.run().expect_exit(), 55);
        assert_eq!(*m.stats(), golden, "restore + continue must reproduce");
    }

    #[test]
    fn restore_from_any_source_is_bit_identical_to_a_fresh_restore() {
        // Two machines built identically, snapshotted at the same point.
        // `a` restores from its snapshot, runs, rewinds to a later
        // snapshot of another timeline, runs, and restores from its first
        // snapshot again; `b2` performs a single restore from an
        // equivalent snapshot on a fresh machine. Their post-run states
        // must be indistinguishable.
        let mut a = equivalence_machine(3, None);
        let mut b = equivalence_machine(3, None);
        for _ in 0..5 {
            a.step().unwrap();
            b.step().unwrap();
        }
        let snap_a = a.snapshot();
        let snap_b = b.snapshot();
        for _ in 0..4 {
            b.step().unwrap();
        }
        assert!(b.space.poke(VirtAddr(SCRATCH + 8), b"other"));
        let later = b.snapshot();

        a.restore(&snap_a);
        let _ = a.run(); // dirties frames, cache sets, TLB, stats
        a.restore(&later);
        let _ = a.run();
        a.restore(&snap_a);
        let _ = a.run();

        let mut b2 = equivalence_machine(3, None);
        b2.restore(&snap_b);
        let _ = b2.run();

        assert_machines_identical(&a, &b2, "any-source vs fresh restore");
        assert_eq!(a.state_digest(), b2.state_digest());
        assert_eq!(scratch_bytes(&mut a), scratch_bytes(&mut b2));
    }

    /// The 64 scratch bytes a test machine holds at `SCRATCH`.
    fn scratch_bytes(m: &mut Machine) -> [u8; 64] {
        let mut buf = [0u8; 64];
        assert!(m.space.peek(VirtAddr(SCRATCH), &mut buf));
        buf
    }

    #[test]
    fn writes_after_a_snapshot_leave_the_snapshot_unchanged() {
        let mut m = equivalence_machine(3, None);
        for _ in 0..5 {
            m.step().unwrap();
        }
        assert!(m.space.poke(VirtAddr(SCRATCH), b"snapshot"));
        let snap = m.snapshot();
        let digest = m.state_digest();
        let bytes = scratch_bytes(&mut m);

        // Overwrite the snapshotted page, then run on: the program's own
        // stores, cache fills and stats all land after the capture.
        assert!(m.space.poke(VirtAddr(SCRATCH), b"mutated!"));
        let _ = m.run();
        assert_ne!(m.state_digest(), digest);

        let mut other = equivalence_machine(3, None);
        other.restore(&snap);
        assert_eq!(other.state_digest(), digest, "fresh machine");
        assert_eq!(scratch_bytes(&mut other), bytes, "fresh machine");
        m.restore(&snap);
        assert_eq!(m.state_digest(), digest, "writer");
        assert_eq!(scratch_bytes(&mut m), bytes, "writer");
    }

    #[test]
    fn machines_restored_from_one_snapshot_diverge_independently() {
        let mut src = equivalence_machine(4, None);
        for _ in 0..4 {
            src.step().unwrap();
        }
        let snap = src.snapshot();
        let digest = src.state_digest();
        let mut reference = equivalence_machine(4, None);
        reference.restore(&snap);
        let _ = reference.run();
        let reference_bytes = scratch_bytes(&mut reference);

        let mut a = equivalence_machine(4, None);
        let mut b = equivalence_machine(4, None);
        a.restore(&snap);
        b.restore(&snap);
        // Interleave diverging writes and runs: each machine sees only
        // its own stores.
        assert!(a.space.poke(VirtAddr(SCRATCH + 32), b"only a"));
        assert!(b.space.poke(VirtAddr(SCRATCH + 40), b"only b"));
        b.set_event_schedule(EventSchedule::at(
            snap.instructions() + 2,
            EventAction::Write {
                addr: SCRATCH + 48,
                value: 0xb,
            },
        ));
        let _ = a.run();
        let _ = b.run();
        let (sa, sb) = (scratch_bytes(&mut a), scratch_bytes(&mut b));
        assert_eq!(&sa[32..38], b"only a");
        assert_eq!(&sb[40..46], b"only b");
        assert_eq!(sb[48], 0xb);
        assert_eq!(sa[40..46], reference_bytes[40..46]);
        assert_eq!(sb[32..38], reference_bytes[32..38]);
        assert_ne!(a.state_digest(), b.state_digest());

        // Each re-restores bit-exactly and reruns like the reference.
        for (m, name) in [(&mut a, "a"), (&mut b, "b")] {
            m.restore(&snap);
            assert_eq!(m.state_digest(), digest, "{name} after re-restore");
            let _ = m.run();
            assert_machines_identical(m, &reference, name);
            assert_eq!(m.state_digest(), reference.state_digest(), "{name}");
            assert_eq!(scratch_bytes(m), reference_bytes, "{name}");
        }
    }

    #[test]
    fn restore_works_from_a_snapshot_other_than_the_last() {
        const LATE: u64 = 0x40_0000;
        let mut m = equivalence_machine(5, None);
        for _ in 0..3 {
            m.step().unwrap();
        }
        let early = m.snapshot();
        let early_digest = m.state_digest();
        // The late snapshot holds pages (data and page-table frames)
        // that the early one lacks.
        m.space
            .map_region(VirtAddr(LATE), 2 * 4096, PageFlags::rw());
        assert!(m.space.poke(VirtAddr(LATE + 4090), b"late frames"));
        for _ in 0..6 {
            m.step().unwrap();
        }
        let late = m.snapshot();
        let late_digest = m.state_digest();
        let _ = m.run();
        let finished = m.state_digest();

        for round in 0..3 {
            m.restore(&early);
            assert_eq!(m.state_digest(), early_digest, "early, round {round}");
            let mut buf = [0u8; 11];
            assert!(!m.space.peek(VirtAddr(LATE + 4090), &mut buf), "unmapped");
            // Run on the early timeline so the late restore below has
            // frames on both sides to reconcile.
            for _ in 0..round {
                m.step().unwrap();
            }
            m.restore(&late);
            assert_eq!(m.state_digest(), late_digest, "late, round {round}");
            assert!(m.space.peek(VirtAddr(LATE + 4090), &mut buf));
            assert_eq!(&buf, b"late frames");
            let _ = m.run();
            assert_eq!(m.state_digest(), finished, "rerun, round {round}");
        }
    }

    // --- horizon executor ⇔ per-step equivalence ---------------------------

    /// Deterministic xorshift stream for the randomized equivalence
    /// tests (no external RNG dependency, reproducible failures).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    const SCRATCH: u64 = 0x20_0000;

    /// A random but always-terminating program: a bounded loop of random
    /// straight-line ops (including masking ALU ops for the SFI
    /// dependency path and loads/stores), an optional call, plus a
    /// hostile-ish signal handler and a sibling thread for injections.
    fn random_program(seed: u64) -> Program {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: SCRATCH,
        });
        b.push(Inst::MovImm {
            dst: Reg::Rcx,
            imm: 2 + xorshift(&mut s) % 5,
        });
        b.push(Inst::MovImm {
            dst: Reg::Rdx,
            imm: 0,
        });
        let top = b.new_label();
        b.bind(top);
        for _ in 0..1 + xorshift(&mut s) % 6 {
            match xorshift(&mut s) % 6 {
                0 => b.push(Inst::MovImm {
                    dst: Reg::Rax,
                    imm: xorshift(&mut s) % 1000,
                }),
                1 => b.push(Inst::AluImm {
                    op: AluOp::Add,
                    dst: Reg::Rax,
                    imm: 3,
                }),
                // `And` marks the register masked: the following load (if
                // any) takes the SFI dependency charge in both executors.
                2 => b.push(Inst::AluImm {
                    op: AluOp::And,
                    dst: Reg::Rbx,
                    imm: !0xfff | SCRATCH,
                }),
                3 => b.push(Inst::Load {
                    dst: Reg::R8,
                    addr: Reg::Rbx,
                    offset: (xorshift(&mut s) % 64 * 8) as i64,
                }),
                4 => b.push(Inst::Store {
                    src: Reg::Rax,
                    addr: Reg::Rbx,
                    offset: (xorshift(&mut s) % 64 * 8) as i64,
                }),
                _ => b.push(Inst::Nop),
            };
        }
        if xorshift(&mut s).is_multiple_of(2) {
            b.push(Inst::Call(FuncId(1)));
        }
        b.push(Inst::AluImm {
            op: AluOp::Sub,
            dst: Reg::Rcx,
            imm: 1,
        });
        b.push(Inst::JmpIf {
            cond: Cond::Ne,
            a: Reg::Rcx,
            b: Reg::Rdx,
            target: top,
        });
        b.push(Inst::Mov {
            dst: Reg::Rax,
            src: Reg::Rcx,
        });
        b.push(Inst::Halt);
        p.add_function(b.finish());

        let mut helper = FunctionBuilder::new("helper");
        helper.push(Inst::AluImm {
            op: AluOp::Add,
            dst: Reg::R9,
            imm: 1,
        });
        helper.push(Inst::Ret);
        p.add_function(helper.finish());

        // Handler reads through the interrupted rbx: at boundary 0 that is
        // still 0, so early deliveries trap — in both executors alike.
        let mut h = FunctionBuilder::new("handler");
        h.push(Inst::Load {
            dst: Reg::R10,
            addr: Reg::Rbx,
            offset: 0,
        });
        h.push(Inst::Syscall {
            nr: crate::kernel::nr::SIGRETURN,
        });
        h.push(Inst::Halt);
        p.add_function(h.finish());

        let mut w = FunctionBuilder::new("sibling");
        w.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: SCRATCH,
        });
        w.push(Inst::Load {
            dst: Reg::Rax,
            addr: Reg::Rbx,
            offset: 8,
        });
        w.push(Inst::AluImm {
            op: AluOp::Add,
            dst: Reg::Rax,
            imm: 1,
        });
        w.push(Inst::Store {
            src: Reg::Rax,
            addr: Reg::Rbx,
            offset: 8,
        });
        w.push(Inst::Halt);
        p.add_function(w.finish());
        p
    }

    fn equivalence_machine(seed: u64, schedule: Option<EventSchedule>) -> Machine {
        let mut m = Machine::new(random_program(seed));
        m.space.map_region(VirtAddr(SCRATCH), 4096, PageFlags::rw());
        m.spawn_thread(FuncId(3), [0; 3]);
        m.set_signal_policy(SignalPolicy {
            handler: FuncId(2),
            scrub: false,
        });
        if let Some(s) = schedule {
            m.set_event_schedule(s);
        }
        m
    }

    /// The reference executor the horizon path must match bit-for-bit:
    /// the historical per-instruction driver.
    fn run_stepping(m: &mut Machine) -> RunOutcome {
        loop {
            match m.step() {
                Ok(()) => {
                    if let Some(code) = m.arch.halted {
                        return RunOutcome::Exited(code);
                    }
                }
                Err(t) => return RunOutcome::Trapped(t),
            }
        }
    }

    #[track_caller]
    fn assert_machines_identical(a: &Machine, b: &Machine, ctx: &str) {
        assert_eq!(a.arch.stats, b.arch.stats, "stats diverge: {ctx}");
        assert_eq!(
            a.arch.stats.cycles.to_bits(),
            b.arch.stats.cycles.to_bits(),
            "cycle bits diverge: {ctx}"
        );
        assert_eq!(a.arch.regs, b.arch.regs, "registers diverge: {ctx}");
        assert_eq!(a.arch.pc, b.arch.pc, "pc diverges: {ctx}");
        assert_eq!(a.arch.halted, b.arch.halted, "halt state diverges: {ctx}");
        assert_eq!(a.space.pkru, b.space.pkru, "pkru diverges: {ctx}");
        assert_eq!(
            a.arch.last_masked, b.arch.last_masked,
            "last_masked diverges: {ctx}"
        );
        assert_eq!(
            a.arch.active_thread, b.arch.active_thread,
            "thread diverges: {ctx}"
        );
    }

    #[test]
    fn horizon_execution_matches_stepping_with_events_everywhere() {
        // Sweep every event kind into *every* boundary of each random
        // program — including boundary 0 (before the first instruction),
        // block boundaries, the final instruction, and past the halt —
        // and require the batched executor to match the per-step driver
        // on exact stats, registers, pc and outcome.
        for seed in 0..6u64 {
            let mut clean = equivalence_machine(seed, None);
            let n = match clean.run() {
                RunOutcome::Exited(_) => clean.arch.stats.instructions,
                RunOutcome::Trapped(t) => panic!("clean run trapped: {t} (seed {seed})"),
            };
            for at in 0..=n + 2 {
                for kind in 0..4u64 {
                    let action = match kind {
                        0 => EventAction::Signal,
                        1 => EventAction::Write {
                            addr: SCRATCH + 16,
                            value: at,
                        },
                        2 => EventAction::FailAllocs { count: 1 },
                        _ => EventAction::Preempt {
                            to: 1,
                            quantum: 3,
                            scrub: at % 2 == 0,
                        },
                    };
                    let schedule = EventSchedule::at(at, action);
                    let mut fast = equivalence_machine(seed, Some(schedule.clone()));
                    let mut slow = equivalence_machine(seed, Some(schedule));
                    let ra = fast.run();
                    let rb = run_stepping(&mut slow);
                    let ctx = format!("seed {seed} at {at} kind {kind}");
                    assert_eq!(ra, rb, "outcome diverges: {ctx}");
                    assert_machines_identical(&fast, &slow, &ctx);
                }
            }
        }
    }

    #[test]
    fn horizon_execution_matches_stepping_with_stacked_events() {
        // Multiple events, including ties on one boundary and one past
        // the halt.
        for seed in 0..6u64 {
            let mut clean = equivalence_machine(seed, None);
            clean.run().expect_exit();
            let n = clean.arch.stats.instructions;
            let events = vec![
                crate::events::Event {
                    at: 0,
                    action: EventAction::Write {
                        addr: SCRATCH,
                        value: 7,
                    },
                },
                crate::events::Event {
                    at: n / 2,
                    action: EventAction::Signal,
                },
                crate::events::Event {
                    at: n / 2,
                    action: EventAction::FailAllocs { count: 2 },
                },
                crate::events::Event {
                    at: n.saturating_sub(1),
                    action: EventAction::Preempt {
                        to: 1,
                        quantum: 5,
                        scrub: false,
                    },
                },
                crate::events::Event {
                    at: n + 10,
                    action: EventAction::Signal,
                },
            ];
            let mut fast = equivalence_machine(seed, Some(EventSchedule::new(events.clone())));
            let mut slow = equivalence_machine(seed, Some(EventSchedule::new(events)));
            let ra = fast.run();
            let rb = run_stepping(&mut slow);
            let ctx = format!("seed {seed} stacked");
            assert_eq!(ra, rb, "outcome diverges: {ctx}");
            assert_machines_identical(&fast, &slow, &ctx);
            assert_eq!(fast.pending_events(), slow.pending_events(), "{ctx}");
        }
    }

    #[test]
    fn horizon_fuel_exhaustion_matches_stepping() {
        for seed in 0..4u64 {
            let mut clean = equivalence_machine(seed, None);
            clean.run().expect_exit();
            let n = clean.arch.stats.instructions;
            for fuel in [0, 1, n / 2, n.saturating_sub(1), n, n + 5] {
                let mut fast = equivalence_machine(seed, None);
                let mut slow = equivalence_machine(seed, None);
                fast.set_fuel(fuel);
                slow.set_fuel(fuel);
                let ra = fast.run();
                let rb = run_stepping(&mut slow);
                let ctx = format!("seed {seed} fuel {fuel}");
                assert_eq!(ra, rb, "outcome diverges: {ctx}");
                assert_machines_identical(&fast, &slow, &ctx);
            }
        }
    }

    #[test]
    fn run_until_stops_exactly_at_the_boundary() {
        let mut m = equivalence_machine(1, None);
        m.run_until(5).unwrap();
        assert_eq!(m.arch.stats.instructions, 5);
        // An event due exactly at the stop boundary has not fired yet...
        m.set_event_schedule(EventSchedule::at(
            5,
            EventAction::Write {
                addr: SCRATCH + 32,
                value: 9,
            },
        ));
        assert_eq!(m.pending_events(), 1);
        // ...and fires before the next instruction once execution resumes.
        m.run_until(6).unwrap();
        assert_eq!(m.pending_events(), 0);
        assert_eq!(m.arch.stats.instructions, 6);
        let mut buf = [0u8; 8];
        m.space.peek(VirtAddr(SCRATCH + 32), &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 9);
    }

    #[test]
    fn step_on_a_halted_machine_retires_nothing() {
        let (out, mut m) = run_main(|b| {
            b.push(Inst::Halt);
            b.push(Inst::MovImm {
                dst: Reg::Rax,
                imm: 5,
            });
            b.push(Inst::Halt);
        });
        assert_eq!(out.expect_exit(), 0);
        let before = (m.arch.stats, m.arch.pc, m.state_digest());
        m.step().unwrap();
        m.run_until(m.arch.stats.instructions + 1).unwrap();
        assert_eq!(m.reg(Reg::Rax), 0);
        assert_eq!(m.exit_code(), Some(0));
        assert_eq!((m.arch.stats, m.arch.pc, m.state_digest()), before);
    }

    #[test]
    fn run_until_at_current_boundary_is_a_no_op() {
        let mut m = equivalence_machine(2, None);
        m.run_until(3).unwrap();
        let stats = m.arch.stats;
        m.run_until(3).unwrap();
        m.run_until(2).unwrap();
        assert_eq!(m.arch.stats, stats);
    }

    use crate::events::StreamSource;
    use memsentry_mmu::PAGE_SIZE;

    /// Both state-equality oracles at once: `diff`'s verdict, which must
    /// agree with digest equality in both directions.
    fn verdict(a: &Machine, b: &Machine) -> Option<Divergence> {
        let d = a.diff(b);
        assert_eq!(d.is_none(), a.state_digest() == b.state_digest(), "{d:?}");
        assert_eq!(d.is_none(), b.diff(a).is_none(), "{d:?}");
        d
    }

    /// A machine with every component `state_digest` covers in use: a
    /// spawned thread, a heap, an EPC range, a one-shot event and three
    /// streams (one exhausted, one compound), a few instructions retired.
    pub(crate) fn busy_machine(config: MachineConfig) -> Machine {
        let mut p = Program::new();
        let mut main = FunctionBuilder::new("main");
        main.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: 0x7000,
        });
        for offset in 0..6 {
            main.push(Inst::Store {
                src: Reg::Rbx,
                addr: Reg::Rbx,
                offset: offset * 8,
            });
        }
        main.push(Inst::Halt);
        p.add_function(main.finish());
        let mut side = FunctionBuilder::new("side");
        side.push(Inst::Halt);
        p.add_function(side.finish());
        let mut m = Machine::with_config(p, config);
        m.space
            .map_region(VirtAddr(0x7000), PAGE_SIZE, PageFlags::rw());
        m.spawn_thread(FuncId(1), [1, 2, 3]);
        m.set_epc_range(0x9000, PAGE_SIZE);
        let mut schedule = EventSchedule::at(100, EventAction::Signal);
        for source in [
            StreamSource::Every {
                period: 5,
                phase: 50,
                limit: None,
                action: EventAction::Signal,
            },
            StreamSource::After {
                trigger: TriggerKind::Signal,
                delay: 1,
                action: EventAction::Signal,
            },
            StreamSource::Every {
                period: 5,
                phase: 50,
                limit: Some(0),
                action: EventAction::Signal,
            },
        ] {
            schedule.add_stream(source);
        }
        m.set_event_schedule(schedule);
        m.run_until(4).unwrap();
        m
    }

    type Mutation = Box<dyn Fn(&mut Machine)>;

    /// One mutation per component `state_digest` covers, with the name
    /// `diff` must give it (a prefix where the name depends on layout).
    fn mutation_table() -> Vec<(String, Mutation)> {
        let mut rows: Vec<(String, Mutation)> = Vec::new();
        let mut row = |name: &str, f: Mutation| rows.push((name.to_string(), f));
        for r in Reg::ALL {
            row(
                &r.to_string(),
                Box::new(move |m| m.arch.regs[r.index()] ^= 1),
            );
            row(
                &format!("thread 1 {r}"),
                Box::new(move |m| m.arch.threads[1].regs[r.index()] ^= 1),
            );
        }
        for i in 0..4 {
            row(
                &format!("bnd{i} lower"),
                Box::new(move |m| m.arch.bnd[i].0 += 1),
            );
            row(
                &format!("bnd{i} upper"),
                Box::new(move |m| m.arch.bnd[i].1 -= 1),
            );
        }
        row("pc", Box::new(|m| m.arch.pc.index += 1));
        type Counter = (&'static str, fn(&mut ExecStats));
        let counters: [Counter; 18] = [
            ("instructions", |s| s.instructions += 1),
            ("loads", |s| s.loads += 1),
            ("stores", |s| s.stores += 1),
            ("calls", |s| s.calls += 1),
            ("indirect_calls", |s| s.indirect_calls += 1),
            ("rets", |s| s.rets += 1),
            ("syscalls", |s| s.syscalls += 1),
            ("vmcalls", |s| s.vmcalls += 1),
            ("vmfuncs", |s| s.vmfuncs += 1),
            ("wrpkrus", |s| s.wrpkrus += 1),
            ("bound_checks", |s| s.bound_checks += 1),
            ("aes_chunks", |s| s.aes_chunks += 1),
            ("allocator_calls", |s| s.allocator_calls += 1),
            ("sgx_transitions", |s| s.sgx_transitions += 1),
            ("signals", |s| s.signals += 1),
            ("preemptions", |s| s.preemptions += 1),
            ("dropped_events", |s| s.dropped_events += 1),
            ("cycles", |s| s.cycles += 1.0),
        ];
        for (name, bump) in counters {
            row(
                &format!("stats.{name}"),
                Box::new(move |m| bump(&mut m.arch.stats)),
            );
        }
        row("halted", Box::new(|m| m.arch.halted = Some(0)));
        row("in_vm", Box::new(|m| m.arch.in_vm = true));
        row("keys_in_xmm", Box::new(|m| m.arch.keys_in_xmm = true));
        row("in_enclave", Box::new(|m| m.arch.in_enclave = true));
        row(
            "syscall_passthrough",
            Box::new(|m| m.arch.syscall_passthrough = true),
        );
        row("cipher", Box::new(|m| m.install_aes_key(&[7; 16])));
        row(
            "last_masked",
            Box::new(|m| m.arch.last_masked = Some(Reg::R9)),
        );
        row("epc", Box::new(|m| m.arch.epc = None));
        row("epc lower", Box::new(|m| m.set_epc_range(0x8000, 0x2000)));
        row("epc upper", Box::new(|m| m.set_epc_range(0x9000, 0x2000)));
        row(
            "forced_alloc_failures",
            Box::new(|m| m.arch.forced_alloc_failures += 1),
        );
        row(
            "threads",
            Box::new(|m| m.arch.threads.push(m.arch.threads[1].clone())),
        );
        row("thread 1 pc", Box::new(|m| m.arch.threads[1].pc.index += 1));
        row("thread 1 pkru", Box::new(|m| m.arch.threads[1].pkru.0 ^= 4));
        row(
            "thread 1 halted",
            Box::new(|m| m.arch.threads[1].halted = Some(3)),
        );
        row(
            "thread 1 stack_base",
            Box::new(|m| m.arch.threads[1].stack_base += 4096),
        );
        row(
            "thread 1 pending_signals",
            Box::new(|m| m.arch.threads[1].pending_signals += 1),
        );
        row("active_thread", Box::new(|m| m.arch.active_thread = 1));
        row(
            "signal_depth",
            Box::new(|m| {
                m.signal_frames.push(SignalFrame {
                    regs: m.arch.regs,
                    bnd: m.arch.bnd,
                    pc: m.arch.pc,
                    last_masked: None,
                    saved: None,
                })
            }),
        );
        row(
            "pending_events",
            Box::new(|m| {
                m.events.as_mut().unwrap().pop_due(100);
            }),
        );
        row(
            "streams",
            Box::new(|m| {
                m.events.as_mut().unwrap().add_stream(StreamSource::Every {
                    period: 1,
                    phase: 0,
                    limit: Some(0),
                    action: EventAction::Signal,
                })
            }),
        );
        row(
            "stream 0 fired",
            Box::new(|m| {
                m.events.as_mut().unwrap().pop_due(50);
            }),
        );
        row(
            "stream 1 cursor",
            Box::new(|m| {
                m.events
                    .as_mut()
                    .unwrap()
                    .note_delivery(TriggerKind::Signal, 60)
            }),
        );
        row(
            "preemption",
            Box::new(|m| {
                m.preempt = Some(PreemptState {
                    resume: 0,
                    remaining: 3,
                    saved: None,
                })
            }),
        );
        row("heap", Box::new(|m| m.heap = None));
        row(
            "heap digest",
            Box::new(|m| {
                let heap = heap_for_write(&mut m.heap).unwrap();
                heap.alloc(&mut m.space, 16).unwrap();
            }),
        );
        row(
            "frame ",
            Box::new(|m| assert!(m.space.poke(VirtAddr(0x7100), &[1]))),
        );
        row("pkru", Box::new(|m| m.space.pkru.0 ^= 4));
        rows
    }

    #[test]
    fn every_digested_component_is_compared_and_named() {
        let base = busy_machine(MachineConfig::default());
        assert_eq!(
            verdict(&busy_machine(MachineConfig::default()), &base),
            None
        );
        for (component, mutate) in mutation_table() {
            let mut mutated = busy_machine(MachineConfig::default());
            mutate(&mut mutated);
            let d = verdict(&mutated, &base).unwrap_or_else(|| panic!("{component}"));
            assert!(d.component.starts_with(&component), "{component}: {d}");
        }
    }

    #[test]
    fn restore_undoes_every_digested_component() {
        let base = busy_machine(MachineConfig::default());
        for (component, mutate) in mutation_table() {
            let mut m = busy_machine(MachineConfig::default());
            let schedule = m.event_schedule().cloned().unwrap();
            let snap = m.snapshot();
            mutate(&mut m);
            m.restore(&snap);
            m.set_event_schedule(schedule);
            assert_eq!(verdict(&m, &base), None, "{component}");
        }
    }

    #[test]
    fn cycles_compare_by_bits() {
        // `==` calls 0.0 and -0.0 equal, but they digest apart; two NaNs
        // with one bit pattern digest alike though `==` calls them unequal.
        let base = busy_machine(MachineConfig::default());
        let (mut a, mut b) = (
            busy_machine(MachineConfig::default()),
            busy_machine(MachineConfig::default()),
        );
        (a.arch.stats.cycles, b.arch.stats.cycles) = (0.0, -0.0);
        assert_eq!(verdict(&a, &b).unwrap().component, "stats.cycles");
        (a.arch.stats.cycles, b.arch.stats.cycles) = (f64::NAN, f64::NAN);
        assert_eq!(verdict(&a, &b), None);
        assert_eq!(verdict(&a, &base).unwrap().component, "stats.cycles");
    }

    #[test]
    fn memo_state_and_sharing_never_count() {
        let base = busy_machine(MachineConfig::default());
        // Cold inline caches: a machine built without them takes the full
        // translation path for every access.
        let cold = busy_machine(MachineConfig {
            inline_cache: false,
            ..MachineConfig::default()
        });
        assert_eq!(verdict(&cold, &base), None);
        // A restore from the machine's own snapshot clears the cache's
        // same-line memo and orphans the inline caches; frames and
        // chunks end up shared with the snapshot.
        let mut rewound = busy_machine(MachineConfig::default());
        let schedule = rewound.event_schedule().cloned().unwrap();
        let snap = rewound.snapshot();
        rewound.restore(&snap);
        rewound.set_event_schedule(schedule);
        assert_eq!(verdict(&rewound, &base), None);
        // Frames copied by writes of the bytes they already held.
        let mut copied = busy_machine(MachineConfig::default());
        let _keep = copied.snapshot();
        assert!(copied
            .space
            .poke(VirtAddr(0x7000), &0x7000u64.to_le_bytes()));
        assert_eq!(verdict(&copied, &base), None);
        // A heap policy copied off a snapshot without a change, and
        // sharing stamps set by a snapshot against none at all.
        let mut stamped = busy_machine(MachineConfig::default());
        let snap = stamped.snapshot();
        assert_eq!(verdict(&stamped, &base), None);
        heap_for_write(&mut stamped.heap).unwrap();
        assert!(!Rc::ptr_eq(
            stamped.heap.as_ref().unwrap(),
            snap.heap.as_ref().unwrap()
        ));
        assert_eq!(verdict(&stamped, &base), None);
        // Write marks and lineage bases: two machines rewound from one
        // snapshot, one by copying back what a run wrote, each with kernel
        // writes that put back the bytes they overwrote at different
        // addresses, against each other and against machines built apart.
        let lineage = busy_machine(MachineConfig::default());
        let schedule = lineage.event_schedule().cloned().unwrap();
        let snap = lineage.snapshot();
        let (mut x, mut y) = (busy_machine(MachineConfig::default()), lineage);
        x.restore(&snap);
        y.space.write_u64(VirtAddr(0x7020), 5).unwrap();
        y.restore(&snap);
        for (m, va) in [(&mut x, 0x7000u64), (&mut y, 0x7010)] {
            m.set_event_schedule(schedule.clone());
            let mut word = [0u8; 8];
            assert!(m.space.peek(VirtAddr(va), &mut word));
            assert!(m.space.poke(VirtAddr(va), &[!word[0]]));
            assert!(m.space.poke(VirtAddr(va), &word));
        }
        assert_eq!(verdict(&x, &y), None);
        assert_eq!(verdict(&x, &base), None);
        assert_eq!(verdict(&y, &base), None);
        // Chunk bitmaps: a machine keeps the cache chunks it wrote marked
        // across a snapshot (a superset of what differs from it), and one
        // restored from that snapshot has none.
        let marked = busy_machine(MachineConfig::default());
        let schedule = marked.event_schedule().cloned().unwrap();
        let snap = marked.snapshot();
        let mut cleared = busy_machine(MachineConfig::default());
        cleared.restore(&snap);
        cleared.set_event_schedule(schedule);
        assert_eq!(verdict(&marked, &cleared), None);
        assert_eq!(verdict(&cleared, &base), None);
        // Runs that stay equal stay equal.
        let (mut a, mut b) = (cold, busy_machine(MachineConfig::default()));
        a.run_until(7).unwrap();
        b.run_until(7).unwrap();
        assert_eq!(verdict(&a, &b), None);
    }
}
