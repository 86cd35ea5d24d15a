#![warn(missing_docs)]

//! The simulated machine: execution engine, traps, and cycle cost model.
//!
//! This crate executes [`memsentry_ir`] programs against a
//! [`memsentry_mmu::AddressSpace`], charging every instruction cycles from a
//! configurable [`cost::CostModel`] calibrated to the paper's Table 4
//! microbenchmarks. The machine implements the hardware features MemSentry
//! repurposes:
//!
//! * **MPX** — four bound registers, `bndmk`/`bndcu`/`bndcl`, raising `#BR`
//!   ([`trap::Trap::BoundRange`]) deterministically, plus the
//!   `bndpreserve`-style behaviour the paper relies on (§5.4).
//! * **MPK** — `rdpkru`/`wrpkru` manipulating the address space's `pkru`.
//! * **VMFUNC/VMCALL** — EPT switching when the process runs inside the
//!   Dune-like VM, hypercalls dispatched to a pluggable handler.
//! * **AES-NI** — region encryption via `memsentry-aes`, with the round
//!   keys modelled as parked in the `ymm` upper halves.
//!
//! System calls go to a pluggable [`kernel::SyscallHandler`]; the default
//! kernel implements `exit`, `write`, `mprotect` and `pkey_mprotect` — the
//! calls the paper's techniques and baselines need.
//!
//! The [`replay`] module layers deterministic record-replay on top of
//! [`machine::Machine::snapshot`]/`restore`: a captured [`replay::Recording`]
//! rewinds the machine to any instruction boundary bit-exactly, and powers
//! exposure bisection and the crash-consistency sweep, which compares each
//! recovered machine against a live reference with
//! [`machine::Machine::diff`].

pub(crate) mod compile;
pub mod cost;
pub(crate) mod decode;
pub mod events;
pub mod heap;
pub mod kernel;
pub mod machine;
pub mod opstats;
pub mod replay;
pub mod stats;
pub mod threads;
pub mod trap;

pub use cost::CostModel;
pub use events::{
    seeded_offsets, DomainClosure, Event, EventAction, EventSchedule, SignalPolicy, StreamSource,
    TriggerKind,
};
pub use heap::{BumpAllocator, HeapPolicy};
pub use kernel::{DefaultKernel, HypercallHandler, SyscallHandler};
pub use machine::{
    AccessTracer, Machine, MachineConfig, MachineSnapshot, RunOutcome, DEFAULT_SIGNAL_DEPTH_LIMIT,
};
pub use memsentry_mmu::Divergence;
pub use opstats::{tally_run, OpKind, OpPairTally, PairCount};
pub use replay::{
    bisect_first, crash_sweep, CrashSweepReport, CrashViolation, Recording, ReplayError,
};
pub use stats::ExecStats;
pub use threads::ThreadCtx;
pub use trap::Trap;
