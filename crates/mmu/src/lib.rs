#![warn(missing_docs)]

//! Simulated memory-management substrate for the MemSentry reproduction.
//!
//! The paper's isolation techniques are all, at bottom, properties of the
//! x86-64 address-translation pipeline: page permissions, protection keys
//! (MPK), and extended page tables (EPT, for VMFUNC). This crate models that
//! pipeline faithfully enough for deterministic enforcement:
//!
//! * [`phys`] — sparse simulated physical memory, frame-granular, with
//!   frames shared copy-on-write between clones.
//! * [`pte`] — 64-bit page-table-entry layout including the 4 protection-key
//!   bits (62:59), matching the Intel SDM.
//! * [`walk`] — 4-level page tables *stored inside simulated physical
//!   memory* and walked in software, with map/unmap/protect operations.
//! * [`tlb`] — a small set-associative TLB with hit/miss statistics, which
//!   the CPU cost model turns into cycles.
//! * [`pkey`] — the `pkru` register: 16 keys x {access-disable,
//!   write-disable}, exactly the rdpkru/wrpkru bit layout.
//! * [`ept`] — extended page tables: guest-physical to host-physical
//!   mapping with per-EPT permissions and "secret" pages present in only
//!   one EPT (the VMFUNC technique's mechanism).
//! * [`space`] — [`space::AddressSpace`]: the composed translation pipeline
//!   (TLB -> page walk -> pkey check -> optional EPT check) that the CPU
//!   performs loads and stores through, plus an `mprotect`-style interface
//!   used by the paper's page-permission baseline.
//! * [`digest`] — a deterministic structural hasher; each type above feeds
//!   its *semantic* state (never frame sharing or memo bookkeeping)
//!   into a [`digest::Digest`], which the replay subsystem uses to assert
//!   bit-equality between rewound and from-start machine states.
//! * [`diff`] — the exact counterpart of the digest: two live states
//!   compared component by component, the first difference named
//!   ([`diff::Divergence`]), shared frame blocks, frames and cache
//!   chunks skipped.
//!
//! All checks return typed [`Fault`]s; nothing panics on a bad guest access.

pub mod addr;
pub mod cache;
pub mod diff;
pub mod digest;
pub mod ept;
pub mod phys;
pub mod pkey;
pub mod pte;
pub mod space;
mod stamp;
pub mod tlb;
pub mod walk;

pub use addr::{PhysAddr, VirtAddr, PAGE_SHIFT, PAGE_SIZE, SENSITIVE_BASE, VA_BITS};
pub use cache::{CacheHierarchy, CacheStats, HitLevel};
pub use diff::Divergence;
pub use digest::Digest;
pub use ept::{EptSet, EptViolation};
pub use phys::PhysMemory;
pub use pkey::{Pkru, PKEY_COUNT};
pub use pte::{PageFlags, Pte};
pub use space::{Access, AddressSpace, Fault, Prot, TransCacheEntry, TranslationStats};
pub use tlb::{Tlb, TlbStats};
pub use walk::PageTable;
