//! The composed address-translation pipeline.
//!
//! [`AddressSpace`] is what the simulated CPU performs every load, store and
//! instruction fetch through. A data access goes: canonical check -> TLB ->
//! page walk -> page permission check -> protection-key check (`pkru`) ->
//! optional EPT translation (when the process runs inside the Dune-like
//! VM). Each stage can raise a typed [`Fault`], which is precisely how the
//! paper's domain-based techniques turn an attacker's stray access into a
//! deterministic crash instead of a silent leak.
//!
//! Three fast paths keep the pipeline cheap without changing its
//! observable behavior: u64 loads/stores that stay within one page skip
//! the generic byte-range loop ([`AddressSpace::read_u64_info`]); a small
//! per-access-kind translation memo lets back-to-back accesses to the
//! same page skip the permission / protection-key / EPT stages after a TLB
//! hit; and per-compiled-op inline translation caches
//! ([`TransCacheEntry`], probed via [`AddressSpace::ic_read_u64`] /
//! [`AddressSpace::ic_write_u64`]) let the threaded execution engine skip
//! `AddressSpace::check_page` entirely on a repeat same-page access.
//! The memo is validated by value comparison; the inline caches are
//! validated by a single **mutation generation** counter (plus a `pkru`
//! value compare), so every mapping, `pkru`, view, EPT or TLB event makes
//! all of them fall back to the full pipeline.

use crate::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use crate::cache::{CacheHierarchy, CacheStats, HitLevel};
use crate::diff::{Compare, Divergence, Walk};
use crate::ept::{EptAccess, EptSet, EptViolation};
use crate::phys::PhysMemory;
use crate::pkey::Pkru;
use crate::pte::{PageFlags, Pte};
use crate::tlb::{Tlb, TlbStats};
use crate::walk::PageTable;

/// The kind of memory access being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Fetch,
}

/// Protection for `mprotect`-style calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prot {
    /// No access (`PROT_NONE`).
    None,
    /// Read-only.
    Read,
    /// Read and write.
    ReadWrite,
    /// Read and execute.
    ReadExec,
}

impl Prot {
    fn flags(self) -> PageFlags {
        match self {
            Prot::None => PageFlags {
                present: true,
                writable: false,
                user: false,
                accessed: false,
                dirty: false,
                no_execute: true,
            },
            Prot::Read => PageFlags::ro(),
            Prot::ReadWrite => PageFlags::rw(),
            Prot::ReadExec => PageFlags::rx(),
        }
    }
}

/// A memory-access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Address outside the canonical user range.
    NonCanonical {
        /// The offending address.
        addr: VirtAddr,
    },
    /// No translation for the page (`#PF`, present bit clear).
    NotMapped {
        /// The offending address.
        addr: VirtAddr,
        /// The attempted access.
        access: Access,
    },
    /// Page-permission violation (`#PF`: write to read-only, NX fetch,
    /// or access to a supervisor-only / PROT_NONE page).
    Protection {
        /// The offending address.
        addr: VirtAddr,
        /// The attempted access.
        access: Access,
    },
    /// Protection-key violation (`#PF` with the PK bit set).
    PkeyDenied {
        /// The offending address.
        addr: VirtAddr,
        /// The attempted access.
        access: Access,
        /// The page's protection key.
        key: u8,
    },
    /// EPT violation while running inside the VM.
    Ept(EptViolation),
}

/// Per-access outcome used for cycle accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessInfo {
    /// Whether the translation was served by the TLB.
    pub tlb_hit: bool,
    /// Number of page-walk memory references (0 on a TLB hit).
    pub walk_levels: u32,
    /// Which cache level serviced the data (L1 for fetch checks).
    pub hit_level: HitLevel,
}

/// One remembered translation: the last page checked for a given access
/// kind, so back-to-back accesses to the same page skip the permission /
/// protection-key / EPT stages of [`AddressSpace::check_page`].
///
/// A memo entry never *overrides* the TLB: it is only consulted after a
/// TLB hit, and only when its cached PTE is bit-identical to the one the
/// TLB returned. Validity is established by value comparison rather than
/// invalidation hooks — the entry additionally snapshots the active view,
/// the `pkru` register and the EPT mutation epoch, so any mapping change
/// (which flushes the TLB entry), `wrpkru`, view switch, EPT switch or
/// TLB flush makes the comparison fail and the access falls back to the
/// full check pipeline. Faulting accesses never populate the memo.
#[derive(Debug, Clone, Copy)]
struct TranslationMemo {
    view: u16,
    vpn: u64,
    pte: Pte,
    pkru: Pkru,
    ept_epoch: u64,
    pa_page: u64,
}

/// One inline translation-cache slot: a remembered `(page, frame)`
/// translation owned by a single compiled memory op of the threaded
/// execution engine, validated in one branch against the space's
/// [mutation generation](AddressSpace::generation) plus a `pkru` value
/// compare.
///
/// Validity argument: an entry is filled only after the full
/// `AddressSpace::check_page` pipeline accepted an access of this op's
/// kind to this page, and it stamps the generation *after* any TLB insert
/// that access performed. Every avenue that could change what the full
/// pipeline would do — `mprotect`/`pkey_mprotect`, map/unmap, view
/// switches, EPT mutation, TLB flushes *and every TLB insert* (a silent
/// conflict eviction would otherwise turn the next real probe into a
/// miss with different statistics) — bumps the generation, and `pkru`
/// (written directly by `wrpkru`/thread switches) is compared by value.
/// So a generation-valid hit implies the TLB still holds this page's
/// entry with the same PTE: the full pipeline would take its TLB-hit
/// path, pass the same permission checks, and produce the same physical
/// address — the hit path reproduces exactly that (one TLB hit
/// statistic, one cache access, same data), skipping only re-derivation.
///
/// Entries are pure memo state: excluded from `digest_into` and never
/// captured by machine snapshots; `Machine::restore` orphans them by
/// forcing the space generation past every value handed out on either
/// timeline (see [`AddressSpace::restore_from`]).
#[derive(Debug, Clone, Copy)]
pub struct TransCacheEntry {
    /// Space generation at fill; `u64::MAX` is the never-valid sentinel.
    gen: u64,
    /// `pkru` value at fill (compared, not invalidated on write).
    pkru: Pkru,
    /// Virtual page base the entry translates.
    page: u64,
    /// Host-physical page base it translates to.
    pa_page: u64,
}

impl TransCacheEntry {
    /// The never-valid entry every slot starts as.
    pub const INVALID: Self = Self {
        gen: u64::MAX,
        pkru: Pkru(0),
        page: 0,
        pa_page: 0,
    };

    /// Resets the slot to [`Self::INVALID`].
    pub fn invalidate(&mut self) {
        self.gen = u64::MAX;
    }
}

impl Default for TransCacheEntry {
    fn default() -> Self {
        Self::INVALID
    }
}

/// Translation fast-path telemetry (pure counters, excluded from the
/// digest): how many accesses each layer served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// Translations served end-to-end by an inline cache slot (the
    /// threaded engine's per-compiled-op fast path).
    pub ic_hits: u64,
    /// TLB-hit translations whose permission/EPT stages were skipped by
    /// the two-entry translation memo.
    pub memo_hits: u64,
    /// Total translated accesses (TLB hits + misses; inline-cache hits
    /// record a TLB hit, so they are included).
    pub lookups: u64,
}

/// A full simulated address space.
///
/// # Examples
///
/// ```
/// use memsentry_mmu::{AddressSpace, Fault, PageFlags, Pkru, VirtAddr, PAGE_SIZE};
///
/// let mut space = AddressSpace::new();
/// space.map_region(VirtAddr(0x1000), PAGE_SIZE, PageFlags::rw());
/// space.write_u64(VirtAddr(0x1000), 42).unwrap();
///
/// // Tag the page with protection key 3 and close the domain: the same
/// // access now faults deterministically.
/// space.pkey_mprotect(VirtAddr(0x1000), PAGE_SIZE, 3);
/// space.pkru = Pkru::deny_key(3);
/// assert!(matches!(
///     space.read_u64(VirtAddr(0x1000)),
///     Err(Fault::PkeyDenied { key: 3, .. })
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    pm: PhysMemory,
    views: Vec<PageTable>,
    active_view: u16,
    tlb: Tlb,
    /// The MPK `pkru` register (architecturally per-thread; the simulation
    /// is single-threaded).
    pub pkru: Pkru,
    ept: Option<EptSet>,
    cache: CacheHierarchy,
    mprotect_calls: u64,
    /// Last translated page per data-access kind (`[read, write]`).
    memo: [Option<TranslationMemo>; 2],
    /// Bumped on every avenue of EPT mutation (`install_ept`, `ept_mut`);
    /// memo entries from older epochs are ignored.
    ept_epoch: u64,
    /// The mutation generation validating every [`TransCacheEntry`]:
    /// bumped by anything that could change what the full translation
    /// pipeline does — mapping changes, `mprotect`/`pkey_mprotect`, view
    /// switches, EPT mutation, TLB flushes and TLB inserts — and forced
    /// past both timelines' values on [`Self::restore_from`]. `pkru`
    /// deliberately does *not* bump it; inline-cache entries compare the
    /// register by value instead, like the memo (see `cpu::threads`).
    gen: u64,
    /// Accesses served end-to-end by an inline cache slot (telemetry,
    /// excluded from the digest).
    ic_hits: u64,
    /// TLB-hit accesses whose permission stages the memo skipped
    /// (telemetry, excluded from the digest).
    memo_hits: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        let mut pm = PhysMemory::new();
        let pt = PageTable::new(&mut pm);
        Self {
            pm,
            views: vec![pt],
            active_view: 0,
            tlb: Tlb::new(),
            pkru: Pkru::allow_all(),
            ept: None,
            cache: CacheHierarchy::new(),
            mprotect_calls: 0,
            memo: [None, None],
            ept_epoch: 0,
            gen: 0,
            ic_hits: 0,
            memo_hits: 0,
        }
    }

    /// The current mutation generation (see [`TransCacheEntry`]).
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Installs an EPT set: the process now runs inside the VM and every
    /// access is additionally translated through the active EPT.
    pub fn install_ept(&mut self, ept: EptSet) {
        self.ept_epoch += 1;
        self.gen += 1;
        self.ept = Some(ept);
    }

    /// Access to the installed EPT set, if any.
    ///
    /// Conservatively treated as an EPT mutation (the caller may switch
    /// the active EPT or change mappings), so the translation memo and
    /// the inline caches stop trusting entries from before this call.
    pub fn ept_mut(&mut self) -> Option<&mut EptSet> {
        self.ept_epoch += 1;
        self.gen += 1;
        self.ept.as_mut()
    }

    /// Whether the space runs under an EPT.
    pub fn has_ept(&self) -> bool {
        self.ept.is_some()
    }

    /// The TLB statistics so far.
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// The data-cache statistics so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Flushes the whole TLB (a `cr3` write without PCID).
    pub fn flush_tlb(&mut self) {
        self.gen += 1;
        self.tlb.flush_all();
    }

    /// Number of `mprotect` calls performed.
    pub fn mprotect_calls(&self) -> u64 {
        self.mprotect_calls
    }

    /// Caps the physical frame allocator at `limit` frames total; `None`
    /// removes the cap. Once exhausted, [`Self::try_map_region`] fails
    /// (typed out-of-memory) while the trusted setup-time paths panic.
    pub fn set_frame_limit(&mut self, limit: Option<u64>) {
        self.pm.set_frame_limit(limit);
    }

    fn pt(&self) -> PageTable {
        self.views[self.active_view as usize]
    }

    // --- address-space views (PCID / page-table switching) ------------------

    /// The active view (its index doubles as the PCID).
    pub fn active_view(&self) -> u16 {
        self.active_view
    }

    /// Number of views.
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// Creates a new view as a *copy* of the active one's leaf mappings
    /// and returns its id. Later `map`/`unmap` calls affect only the
    /// then-active view, so views can diverge — the mechanism behind the
    /// kernel-assisted page-table-switching technique.
    ///
    /// The copy is built one leaf table at a time: each entry keeps its
    /// frame, flags and protection key, the new tables are allocated in
    /// the order of the pages they map, and each leaf table's entries go
    /// in with one write.
    pub fn add_view(&mut self) -> u16 {
        self.gen += 1;
        let leaves = self.pt().mappings(&mut self.pm);
        let new_pt = PageTable::with_leaves(&mut self.pm, &leaves);
        self.views.push(new_pt);
        (self.views.len() - 1) as u16
    }

    /// Switches the active view (a `mov cr3` with PCID: the TLB keeps its
    /// tagged entries). Returns `false` for an unknown view.
    pub fn switch_view(&mut self, view: u16) -> bool {
        if (view as usize) < self.views.len() {
            self.gen += 1;
            self.active_view = view;
            true
        } else {
            false
        }
    }

    // --- kernel-side mapping API -------------------------------------------

    /// Maps `len` bytes starting at page-aligned `start` as anonymous
    /// memory with `flags`.
    ///
    /// The upper table levels are walked once per 2 MiB leaf table, and
    /// each leaf table's run of entries goes in with one write. Each leaf
    /// table's first page takes its frame before any table its walk
    /// creates, so frame numbers and entries are those of a page-by-page
    /// loop.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not page aligned; mapping is a kernel-side
    /// (trusted) operation in the simulation.
    pub fn map_region(&mut self, start: VirtAddr, len: u64, flags: PageFlags) {
        assert_eq!(start.page_offset(), 0, "map_region requires page alignment");
        self.gen += 1;
        let pages = len.div_ceil(PAGE_SIZE);
        self.pt()
            .map_fresh(&mut self.pm, start, pages, flags, true, |pm| {
                Some(pm.alloc_frame())
            });
    }

    /// Fallible variant of [`Self::map_region`]: returns `false` when the
    /// physical frame allocator is exhausted (the pages mapped before the
    /// exhaustion point stay mapped). The heap uses this so running out
    /// of simulated RAM surfaces as a typed allocation failure rather
    /// than a panic.
    ///
    /// It walks and writes one leaf table at a time like
    /// [`Self::map_region`], but each leaf table's first page takes its
    /// frame after the tables its walk creates. On exhaustion the entries
    /// of the pages already mapped are written before it returns.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not page aligned, like [`Self::map_region`].
    pub fn try_map_region(&mut self, start: VirtAddr, len: u64, flags: PageFlags) -> bool {
        assert_eq!(start.page_offset(), 0, "map_region requires page alignment");
        self.gen += 1;
        let pages = len.div_ceil(PAGE_SIZE);
        self.pt().map_fresh(
            &mut self.pm,
            start,
            pages,
            flags,
            false,
            PhysMemory::try_alloc_frame,
        )
    }

    /// Unmaps the pages covering `[start, start+len)` and flushes the TLB.
    pub fn unmap_region(&mut self, start: VirtAddr, len: u64) {
        self.gen += 1;
        let pages = len.div_ceil(PAGE_SIZE);
        for i in 0..pages {
            let va = VirtAddr(start.page_base().0 + i * PAGE_SIZE);
            self.pt().unmap(&mut self.pm, va);
            self.tlb.flush_page(va.vpn());
        }
    }

    /// `mprotect(2)`: changes page permissions over a range and flushes the
    /// affected TLB entries. Returns `false` if any page was unmapped.
    ///
    /// The range is the `len.div_ceil(PAGE_SIZE).max(1)` pages from the
    /// page holding `start`. It is walked once per table, skipping absent
    /// subtrees, so the cost follows what is mapped rather than `len`; the
    /// TLB is flushed by one scan of its entries, with one page flush
    /// counted per page. Pages past the 48-bit space the page tables cover
    /// ([`crate::VA_BITS`]), including any past `u64::MAX`, count as
    /// unmapped, so the call fails, and as page flushes; they never alias
    /// low pages.
    pub fn mprotect(&mut self, start: VirtAddr, len: u64, prot: Prot) -> bool {
        self.mprotect_calls += 1;
        let flags = prot.flags();
        self.update_range(start, len, |pte| pte.set_flags(flags))
    }

    /// `pkey_mprotect(2)`: assigns protection key `key` to a range and
    /// flushes the affected TLB entries. Returns `false` if any page was
    /// unmapped. The range, its walk, the flush and the pages past the
    /// 48-bit space are as for [`Self::mprotect`].
    pub fn pkey_mprotect(&mut self, start: VirtAddr, len: u64, key: u8) -> bool {
        self.update_range(start, len, |pte| pte.set_pkey(key))
    }

    /// Applies `update` to the leaf entries of the mapped pages among the
    /// `len.div_ceil(PAGE_SIZE).max(1)` pages from `start`'s, then
    /// flushes those pages from the TLB; `true` if every page is mapped.
    fn update_range(&mut self, start: VirtAddr, len: u64, update: impl Fn(&mut Pte)) -> bool {
        self.gen += 1;
        let (vpn, pages) = (start.vpn(), len.div_ceil(PAGE_SIZE).max(1));
        let mapped = self.pt().update_range(&mut self.pm, vpn, pages, update);
        self.tlb.flush_range(vpn, pages);
        mapped == pages
    }

    /// Guest-physical frame number backing the page of `va`, if mapped.
    ///
    /// The Dune hypervisor uses this to translate the guest's "mark this
    /// mapping secret" hypercall argument into an EPT frame.
    pub fn gpfn_of(&mut self, va: VirtAddr) -> Option<u64> {
        let pt = self.pt();
        pt.translate(&mut self.pm, va.page_base())
            .map(|pa| pa.pfn())
    }

    /// Kernel-side probe of the leaf page flags for `va` in the active
    /// view (no TLB, memo or cache side effects — the walk reads only
    /// simulated physical memory, which carries no statistics). The
    /// signal-delivery engine uses this to record a region's protection
    /// before scrubbing it to `PROT_NONE` so `sigreturn` can restore it.
    pub fn page_flags(&mut self, va: VirtAddr) -> Option<PageFlags> {
        let pt = self.pt();
        pt.walk(&mut self.pm, va).map(|res| res.pte.flags())
    }

    /// Kernel-side (unchecked) write, used to initialize memory contents.
    ///
    /// Returns `false` at the first unmapped page; the bytes on the mapped
    /// pages before it have been written.
    pub fn poke(&mut self, va: VirtAddr, bytes: &[u8]) -> bool {
        self.kernel_copy(va, bytes.len(), |pm, pa, range| {
            pm.write(pa, &bytes[range]);
        })
    }

    /// Kernel-side (unchecked) read.
    ///
    /// Returns `false` at the first unmapped page; the bytes on the mapped
    /// pages before it have been read, and the rest of `buf` is untouched.
    pub fn peek(&mut self, va: VirtAddr, buf: &mut [u8]) -> bool {
        let len = buf.len();
        self.kernel_copy(va, len, |pm, pa, range| pm.read(pa, &mut buf[range]))
    }

    /// Walks the page table once per page of `[va, va+len)` and hands each
    /// page's chunk to `copy`, stopping at the first unmapped page.
    fn kernel_copy(
        &mut self,
        va: VirtAddr,
        len: usize,
        mut copy: impl FnMut(&mut PhysMemory, PhysAddr, std::ops::Range<usize>),
    ) -> bool {
        let pt = self.pt();
        let mut done = 0;
        while done < len {
            let cur = VirtAddr(va.0 + done as u64);
            let in_page = ((PAGE_SIZE - cur.page_offset()) as usize).min(len - done);
            let Some(pa) = pt.translate(&mut self.pm, cur) else {
                return false;
            };
            copy(&mut self.pm, pa, done..done + in_page);
            done += in_page;
        }
        true
    }

    // --- user-side checked access ------------------------------------------

    /// Memo slot for an access kind; fetches are rare enough not to memo.
    fn memo_slot(access: Access) -> Option<usize> {
        match access {
            Access::Read => Some(0),
            Access::Write => Some(1),
            Access::Fetch => None,
        }
    }

    #[inline(always)]
    fn check_page(
        &mut self,
        va: VirtAddr,
        access: Access,
    ) -> Result<(PhysAddr, AccessInfo), Fault> {
        if !va.is_canonical_user() {
            return Err(Fault::NonCanonical { addr: va });
        }
        let vpn = va.vpn();
        let (pte, info) = match self.tlb.lookup(self.active_view, vpn) {
            Some(pte) => (
                pte,
                AccessInfo {
                    tlb_hit: true,
                    walk_levels: 0,
                    hit_level: HitLevel::L1,
                },
            ),
            None => {
                let pt = self.pt();
                let res = pt
                    .walk(&mut self.pm, va)
                    .ok_or(Fault::NotMapped { addr: va, access })?;
                res.update(&mut self.pm, |p| p.mark_used(access == Access::Write));
                // A TLB insert can silently evict a conflicting entry
                // (direct-mapped, no eviction statistic), turning some
                // other page's next real probe into a miss — so inserts
                // invalidate the inline caches like any other mutation.
                self.tlb.insert(self.active_view, vpn, res.pte);
                self.gen += 1;
                (
                    res.pte,
                    AccessInfo {
                        tlb_hit: false,
                        walk_levels: res.levels_touched,
                        hit_level: HitLevel::L1,
                    },
                )
            }
        };
        // Fast path: the memo remembers the last page that passed the full
        // check for this access kind. It only ever confirms what the TLB
        // just served (same PTE bits) under the same protection state
        // (view, pkru, EPT epoch), so the outcome — including the faulting
        // behavior — is identical to the checks below.
        if info.tlb_hit {
            if let Some(slot) = Self::memo_slot(access) {
                if let Some(m) = self.memo[slot] {
                    if m.vpn == vpn
                        && m.view == self.active_view
                        && m.pte == pte
                        && m.pkru == self.pkru
                        && m.ept_epoch == self.ept_epoch
                    {
                        self.memo_hits += 1;
                        return Ok((PhysAddr(m.pa_page + va.page_offset()), info));
                    }
                }
            }
        }
        let flags = pte.flags();
        let denied = match access {
            Access::Read => !flags.user,
            Access::Write => !flags.user || !flags.writable,
            Access::Fetch => !flags.user || flags.no_execute,
        };
        if denied {
            return Err(Fault::Protection { addr: va, access });
        }
        // Protection keys gate data accesses only (SDM: not instruction
        // fetches).
        if access != Access::Fetch {
            let key = pte.pkey();
            if !self.pkru.permits(key, access == Access::Write) {
                return Err(Fault::PkeyDenied {
                    addr: va,
                    access,
                    key,
                });
            }
        }
        let gpa = PhysAddr(pte.addr().0 + va.page_offset());
        let hpa = match &mut self.ept {
            Some(ept) => {
                let ea = match access {
                    Access::Read => EptAccess::Read,
                    Access::Write => EptAccess::Write,
                    Access::Fetch => EptAccess::Exec,
                };
                let hpfn = ept.translate(gpa.pfn(), ea).map_err(Fault::Ept)?;
                PhysAddr((hpfn << 12) + gpa.frame_offset())
            }
            None => gpa,
        };
        if let Some(slot) = Self::memo_slot(access) {
            self.memo[slot] = Some(TranslationMemo {
                view: self.active_view,
                vpn,
                pte,
                pkru: self.pkru,
                ept_epoch: self.ept_epoch,
                pa_page: hpa.0 & !(PAGE_SIZE - 1),
            });
        }
        Ok((hpa, info))
    }

    /// Checked user read of `buf.len()` bytes at `va`.
    pub fn read(&mut self, va: VirtAddr, buf: &mut [u8]) -> Result<AccessInfo, Fault> {
        self.access(va, buf.len() as u64, Access::Read, |pm, pa, range| {
            pm.read(pa, &mut buf[range]);
        })
    }

    /// Checked user write of `bytes` at `va`.
    pub fn write(&mut self, va: VirtAddr, bytes: &[u8]) -> Result<AccessInfo, Fault> {
        self.access(va, bytes.len() as u64, Access::Write, |pm, pa, range| {
            pm.write(pa, &bytes[range]);
        })
    }

    /// Checked instruction-fetch permission test for the page at `va`.
    pub fn check_fetch(&mut self, va: VirtAddr) -> Result<AccessInfo, Fault> {
        self.check_page(va, Access::Fetch).map(|(_, info)| info)
    }

    fn access(
        &mut self,
        va: VirtAddr,
        len: u64,
        kind: Access,
        mut touch: impl FnMut(&mut PhysMemory, PhysAddr, std::ops::Range<usize>),
    ) -> Result<AccessInfo, Fault> {
        // Even a zero-length access is a permission probe of its page:
        // translation and every protection stage run exactly as for a
        // one-byte access — only the data transfer (and with it the data
        // cache) is skipped, the same convention `check_fetch` uses.
        let (pa, mut first) = self.check_page(va, kind)?;
        if len == 0 {
            return Ok(first);
        }
        first.hit_level = self.cache.access(pa.0);
        let in_page = (PAGE_SIZE - va.page_offset()).min(len);
        touch(&mut self.pm, pa, 0..in_page as usize);
        let mut done = in_page;
        while done < len {
            let cur = VirtAddr(va.0 + done);
            let in_page = (PAGE_SIZE - cur.page_offset()).min(len - done);
            let (pa, _) = self.check_page(cur, kind)?;
            self.cache.access(pa.0);
            touch(&mut self.pm, pa, done as usize..(done + in_page) as usize);
            done += in_page;
        }
        Ok(first)
    }

    /// Checked read of a little-endian u64.
    #[inline]
    pub fn read_u64(&mut self, va: VirtAddr) -> Result<u64, Fault> {
        self.read_u64_info(va).map(|(v, _)| v)
    }

    /// Checked read of a little-endian u64, returning the [`AccessInfo`]
    /// used for cycle accounting.
    ///
    /// This is the simulator's load fast path: a u64 that does not cross
    /// a page boundary takes one page check, one cache access and one
    /// frame copy — bypassing the generic byte-range loop of
    /// [`AddressSpace::read`] with identical statistics and fault
    /// behavior (a single-page access runs exactly one iteration of that
    /// loop). Page-crossing accesses fall back to the generic path.
    #[inline(always)]
    pub fn read_u64_info(&mut self, va: VirtAddr) -> Result<(u64, AccessInfo), Fault> {
        if va.page_offset() <= PAGE_SIZE - 8 {
            let (pa, mut info) = self.check_page(va, Access::Read)?;
            info.hit_level = self.cache.access(pa.0);
            Ok((self.pm.read_u64(pa), info))
        } else {
            let mut buf = [0u8; 8];
            let info = self.read(va, &mut buf)?;
            Ok((u64::from_le_bytes(buf), info))
        }
    }

    /// [`Self::read_u64_info`] through a compiled op's inline
    /// translation-cache slot.
    ///
    /// On a generation-valid same-page hit this skips
    /// `Self::check_page` entirely — one TLB-hit statistic (the full
    /// pipeline would hit, see [`TransCacheEntry`]), the real cache
    /// access, and the frame read — with bit-identical observable state.
    /// On a miss it takes the full path and refills the slot from the
    /// translation memo the full path just validated.
    #[inline(always)]
    pub fn ic_read_u64(
        &mut self,
        va: VirtAddr,
        e: &mut TransCacheEntry,
    ) -> Result<(u64, AccessInfo), Fault> {
        // One subtract-compare covers "same page" and "u64 fits".
        if e.gen == self.gen && va.0.wrapping_sub(e.page) <= PAGE_SIZE - 8 && e.pkru == self.pkru {
            self.ic_hits += 1;
            self.tlb.note_hit();
            let pa = PhysAddr(e.pa_page + (va.0 - e.page));
            let hit_level = self.cache.access(pa.0);
            return Ok((
                self.pm.read_u64(pa),
                AccessInfo {
                    tlb_hit: true,
                    walk_levels: 0,
                    hit_level,
                },
            ));
        }
        let r = self.read_u64_info(va)?;
        self.ic_refill(va, 0, e);
        Ok(r)
    }

    /// [`Self::write_u64`] through a compiled op's inline
    /// translation-cache slot; see [`Self::ic_read_u64`].
    #[inline(always)]
    pub fn ic_write_u64(
        &mut self,
        va: VirtAddr,
        value: u64,
        e: &mut TransCacheEntry,
    ) -> Result<AccessInfo, Fault> {
        if e.gen == self.gen && va.0.wrapping_sub(e.page) <= PAGE_SIZE - 8 && e.pkru == self.pkru {
            self.ic_hits += 1;
            self.tlb.note_hit();
            let pa = PhysAddr(e.pa_page + (va.0 - e.page));
            let hit_level = self.cache.access(pa.0);
            self.pm.write_u64(pa, value);
            return Ok(AccessInfo {
                tlb_hit: true,
                walk_levels: 0,
                hit_level,
            });
        }
        let r = self.write_u64(va, value)?;
        self.ic_refill(va, 1, e);
        Ok(r)
    }

    /// Refills an inline-cache slot after a successful full-path access,
    /// from the translation memo that access just validated or filled.
    /// The generation is stamped *after* any TLB insert the access
    /// performed, so a later generation-equal probe implies the entry is
    /// still TLB-resident. Page-crossing accesses leave the memo on their
    /// last page, so the `vpn` compare skips them.
    #[inline]
    fn ic_refill(&mut self, va: VirtAddr, slot: usize, e: &mut TransCacheEntry) {
        if va.page_offset() <= PAGE_SIZE - 8 {
            if let Some(m) = self.memo[slot] {
                if m.vpn == va.vpn()
                    && m.view == self.active_view
                    && m.pkru == self.pkru
                    && m.ept_epoch == self.ept_epoch
                {
                    *e = TransCacheEntry {
                        gen: self.gen,
                        pkru: self.pkru,
                        page: va.page_base().0,
                        pa_page: m.pa_page,
                    };
                }
            }
        }
    }

    /// The translation fast-path telemetry so far (pure counters; see
    /// [`TranslationStats`]).
    pub fn translation_stats(&self) -> TranslationStats {
        let tlb = self.tlb.stats();
        TranslationStats {
            ic_hits: self.ic_hits,
            memo_hits: self.memo_hits,
            lookups: tlb.hits + tlb.misses,
        }
    }

    /// Feeds the space's semantic state into `d`: physical memory, the
    /// cache hierarchy, the TLB, every view's root frame (page-table
    /// *contents* live in physical frames and are covered by the memory
    /// digest), the active view, PKRU, the EPTP list, and the `mprotect`
    /// counter. The translation memo and its epoch, the mutation
    /// generation, and the fast-path hit counters are excluded — all of
    /// them are pure cache/telemetry state validated against (or derived
    /// from) the fields above, so two spaces differing only in that
    /// state are observationally identical.
    pub fn digest_into(&self, d: &mut crate::digest::Digest) {
        let Ok(()) = self.walk(self, d);
    }

    /// Compares `self` with `other` component by component and names the
    /// first that differs, or `None` when the two are observationally
    /// identical. It walks the one field list [`Self::digest_into`]
    /// feeds, so it covers and ignores exactly what the digest does, in
    /// its order (an absent frame equals an all-zero one, and invalid TLB
    /// slots and stale cache tags are never read); the lineage stamps and
    /// write marks play no part either. Blocks of frame slots, frames and cache chunks both spaces share
    /// copy-on-write are equal without a look at their contents. Where
    /// both spaces' memory or cache level descend from one snapshot (the
    /// stamps of `mmu/src/stamp.rs`), only the lines and sets either one
    /// marked since are read, so comparing a space against one restored
    /// from a common snapshot costs only what each wrote since and the
    /// TLB's 64 entries.
    pub fn diff(&self, other: &AddressSpace) -> Option<Divergence> {
        self.walk(other, &mut Compare).err()
    }

    /// The one field list behind [`Self::digest_into`] and [`Self::diff`],
    /// in their order, for a machine's walk to take in whole.
    pub fn walk<W: Walk>(&self, other: &AddressSpace, w: &mut W) -> Result<(), W::Stop> {
        self.pm.walk(&other.pm, w)?;
        self.cache.walk(&other.cache, w)?;
        self.tlb.walk(&other.tlb, w)?;
        w.word("views", self.views.len() as u64, other.views.len() as u64)?;
        for (i, (a, b)) in self.views.iter().zip(&other.views).enumerate() {
            w.word(format_args!("view {i} root"), a.root().0, b.root().0)?;
        }
        w.word(
            "active view",
            self.active_view.into(),
            other.active_view.into(),
        )?;
        w.word("pkru", self.pkru.0.into(), other.pkru.0.into())?;
        w.flag("EPT set", self.ept.is_some(), other.ept.is_some())?;
        if let (Some(a), Some(b)) = (&self.ept, &other.ept) {
            a.walk(b, w)?;
        }
        w.word("mprotect calls", self.mprotect_calls, other.mprotect_calls)
    }

    // --- snapshot/restore support ------------------------------------------

    /// Rewinds `self` to the state of `src`, which may be any space —
    /// typically a snapshot clone of `self` taken earlier or later on
    /// either timeline. The physical frame table's blocks of 64 frame
    /// slots, the frames and the cache chunks are shared copy-on-write
    /// between clones.
    ///
    /// Physical memory, each cache level and the TLB carry a lineage stamp
    /// (`mmu/src/stamp.rs`): an id that a clone shares and every write
    /// clears, and a base, the last id the table shared. Every write to
    /// memory or a cache level also marks what it wrote: a frame's 64-byte
    /// line, a chunk's set. Per table, the restore takes one of three
    /// paths:
    /// - *skip*: the table's id equals `src`'s, so it still holds `src`'s
    ///   contents and is not read;
    /// - *copy-back* (memory and cache levels): the table descends from
    ///   `src` (its base is `src`'s id), so it differs from `src` only in
    ///   what it marked; the marked lines and sets are copied back into the
    ///   frames and chunks it owns alone, which it keeps, so the next write
    ///   needs no copy;
    /// - *full rewind*: every block and chunk whose pointer differs from
    ///   `src`'s is re-pointed, and the TLB copies all 64 entries.
    ///
    /// A table that did not skip takes `src`'s id as both of its ids. The
    /// EPT list is shared copy-on-write too, so rewinding it re-points one
    /// pointer.
    /// The small fixed-size components (views, `pkru`, the active EPT,
    /// translation memo, counters) are copied wholesale. Apart from the
    /// mutation generation, which moves past both timelines' values, and
    /// the sharing stamps, the result equals `src.clone()`.
    pub fn restore_from(&mut self, src: &AddressSpace) {
        self.pm.restore_from(&src.pm);
        self.cache.restore_from(&src.cache);
        self.tlb.restore_from(&src.tlb);
        self.views.clone_from(&src.views);
        self.active_view = src.active_view;
        self.pkru = src.pkru;
        self.ept.clone_from(&src.ept);
        self.mprotect_calls = src.mprotect_calls;
        self.memo = src.memo;
        self.ept_epoch = src.ept_epoch;
        // Rewinding is a translation mutation like any other — and the
        // generation must also move *past* both timelines' values, never
        // backwards, or an inline-cache entry filled on the abandoned
        // timeline could compare equal to a later re-reached count.
        self.gen = self.gen.max(src.gen) + 1;
        self.ic_hits = src.ic_hits;
        self.memo_hits = src.memo_hits;
    }

    /// Checked write of a little-endian u64.
    ///
    /// Single-page writes take the same fast path as
    /// [`AddressSpace::read_u64_info`]; page-crossing writes fall back to
    /// the generic [`AddressSpace::write`] loop.
    #[inline(always)]
    pub fn write_u64(&mut self, va: VirtAddr, value: u64) -> Result<AccessInfo, Fault> {
        if va.page_offset() <= PAGE_SIZE - 8 {
            let (pa, mut info) = self.check_page(va, Access::Write)?;
            info.hit_level = self.cache.access(pa.0);
            self.pm.write_u64(pa, value);
            Ok(info)
        } else {
            self.write(va, &value.to_le_bytes())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PAGE_SHIFT, SENSITIVE_BASE};
    use crate::VA_BITS;

    fn space_with_page(va: u64, flags: PageFlags) -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(va), PAGE_SIZE, flags);
        s
    }

    #[test]
    fn read_write_roundtrip() {
        let mut s = space_with_page(0x1000, PageFlags::rw());
        s.write(VirtAddr(0x1100), b"hello").unwrap();
        let mut buf = [0u8; 5];
        s.read(VirtAddr(0x1100), &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn write_to_readonly_faults() {
        let mut s = space_with_page(0x1000, PageFlags::ro());
        let err = s.write(VirtAddr(0x1000), b"x").unwrap_err();
        assert!(matches!(
            err,
            Fault::Protection {
                access: Access::Write,
                ..
            }
        ));
        // Reads still work.
        let mut b = [0u8; 1];
        s.read(VirtAddr(0x1000), &mut b).unwrap();
    }

    #[test]
    fn unmapped_access_faults() {
        let mut s = AddressSpace::new();
        let err = s.read_u64(VirtAddr(0x5000)).unwrap_err();
        assert!(matches!(err, Fault::NotMapped { .. }));
    }

    #[test]
    fn non_canonical_access_faults() {
        let mut s = AddressSpace::new();
        let err = s.read_u64(VirtAddr(1 << 60)).unwrap_err();
        assert!(matches!(err, Fault::NonCanonical { .. }));
    }

    #[test]
    fn fetch_from_nx_page_faults_but_data_read_works() {
        let mut s = space_with_page(0x2000, PageFlags::rw());
        assert!(matches!(
            s.check_fetch(VirtAddr(0x2000)),
            Err(Fault::Protection {
                access: Access::Fetch,
                ..
            })
        ));
        let mut s = space_with_page(0x2000, PageFlags::rx());
        s.check_fetch(VirtAddr(0x2000)).unwrap();
    }

    #[test]
    fn pkey_denies_data_access_but_not_fetch() {
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(0x3000), PAGE_SIZE, PageFlags::rx());
        s.pkey_mprotect(VirtAddr(0x3000), PAGE_SIZE, 4);
        s.pkru = Pkru::deny_key(4);
        let err = s.read_u64(VirtAddr(0x3000)).unwrap_err();
        assert!(matches!(err, Fault::PkeyDenied { key: 4, .. }));
        // Instruction fetches are not subject to pkeys.
        s.check_fetch(VirtAddr(0x3000)).unwrap();
    }

    #[test]
    fn pkey_write_disable_permits_reads() {
        let mut s = space_with_page(0x3000, PageFlags::rw());
        s.pkey_mprotect(VirtAddr(0x3000), PAGE_SIZE, 2);
        s.pkru.set_write_disable(2, true);
        s.read_u64(VirtAddr(0x3000)).unwrap();
        let err = s.write_u64(VirtAddr(0x3000), 1).unwrap_err();
        assert!(matches!(
            err,
            Fault::PkeyDenied {
                key: 2,
                access: Access::Write,
                ..
            }
        ));
    }

    #[test]
    fn wrpkru_toggle_reopens_access() {
        let mut s = space_with_page(0x3000, PageFlags::rw());
        s.pkey_mprotect(VirtAddr(0x3000), PAGE_SIZE, 1);
        s.pkru = Pkru::deny_key(1);
        assert!(s.read_u64(VirtAddr(0x3000)).is_err());
        s.pkru.set_access_disable(1, false);
        s.pkru.set_write_disable(1, false);
        s.write_u64(VirtAddr(0x3000), 0xdead).unwrap();
        assert_eq!(s.read_u64(VirtAddr(0x3000)).unwrap(), 0xdead);
    }

    #[test]
    fn mprotect_none_then_restore() {
        let mut s = space_with_page(0x4000, PageFlags::rw());
        assert!(s.mprotect(VirtAddr(0x4000), PAGE_SIZE, Prot::None));
        assert!(matches!(
            s.read_u64(VirtAddr(0x4000)),
            Err(Fault::Protection { .. })
        ));
        assert!(s.mprotect(VirtAddr(0x4000), PAGE_SIZE, Prot::ReadWrite));
        s.write_u64(VirtAddr(0x4000), 7).unwrap();
        assert_eq!(s.mprotect_calls(), 2);
    }

    #[test]
    fn mprotect_flushes_stale_tlb_entry() {
        let mut s = space_with_page(0x4000, PageFlags::rw());
        // Prime the TLB.
        s.write_u64(VirtAddr(0x4000), 1).unwrap();
        s.mprotect(VirtAddr(0x4000), PAGE_SIZE, Prot::Read);
        // The cached writable PTE must not win.
        assert!(s.write_u64(VirtAddr(0x4000), 2).is_err());
    }

    #[test]
    fn mprotect_and_unmap_count_page_flushes() {
        // The per-page invalidation cost of the mprotect baseline and the
        // PTS extension is observable: one page flush per page touched.
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(0x4000), 2 * PAGE_SIZE, PageFlags::rw());
        assert_eq!(s.tlb_stats().page_flushes, 0);
        s.mprotect(VirtAddr(0x4000), 2 * PAGE_SIZE, Prot::Read);
        assert_eq!(s.tlb_stats().page_flushes, 2);
        s.unmap_region(VirtAddr(0x4000), PAGE_SIZE);
        assert_eq!(s.tlb_stats().page_flushes, 3);
    }

    #[test]
    fn unchanged_leaf_entries_leave_the_page_table_shared() {
        let va = VirtAddr(0x4000);
        let mut s = space_with_page(va.0, PageFlags::rw());
        let leaf = s.pt().walk(&mut s.pm, va).unwrap().pte_addr.pfn();
        let pm_digest = |s: &AddressSpace| {
            let mut d = crate::digest::Digest::new();
            s.pm.digest_into(&mut d);
            d.finish()
        };
        let snap = s.clone();
        // An mprotect to the flags the page already has still counts the
        // call, bumps the generation and flushes the page, but writes no
        // entry, so the clone keeps sharing the leaf table.
        assert!(s.mprotect(va, PAGE_SIZE, Prot::ReadWrite));
        assert!(s.pm.shares_frame(&snap.pm, leaf));
        assert_eq!(pm_digest(&s), pm_digest(&snap));
        assert_eq!(s.mprotect_calls(), snap.mprotect_calls() + 1);
        assert_eq!(
            s.tlb_stats().page_flushes,
            snap.tlb_stats().page_flushes + 1
        );
        assert!(s.generation() > snap.generation());

        // The first TLB miss marks the entry accessed; a later miss on the
        // marked entry writes nothing.
        s.read_u64(va).unwrap();
        assert!(!s.pm.shares_frame(&snap.pm, leaf));
        let snap = s.clone();
        s.tlb.flush_page(va.vpn());
        s.read_u64(va).unwrap();
        assert_eq!(s.tlb_stats().misses, snap.tlb_stats().misses + 1);
        assert!(s.pm.shares_frame(&snap.pm, leaf));
        assert_eq!(pm_digest(&s), pm_digest(&snap));
    }

    /// What a space built one leaf table at a time and one built page by
    /// page must agree on: every view's leaf mappings, the allocator
    /// cursor, the materialized frames, and `diff` (which covers the
    /// frame contents, the TLB and the views' roots).
    fn assert_same_tables(a: &mut AddressSpace, b: &mut AddressSpace, what: &str) {
        assert_eq!(verdict(a, b), None, "{what}");
        assert_eq!(a.pm.next_free_pfn(), b.pm.next_free_pfn(), "{what}");
        assert_eq!(a.pm.frame_count(), b.pm.frame_count(), "{what}");
        assert_eq!(a.views.len(), b.views.len(), "{what}");
        for (pa, pb) in a.views.clone().into_iter().zip(b.views.clone()) {
            assert_eq!(pa.mappings(&mut a.pm), pb.mappings(&mut b.pm), "{what}");
        }
    }

    /// A space with some tables in place: a page at 0x1000, one in the
    /// 2 MiB leaf table below 0x40_0000 and one past the 1 GiB mark.
    fn seeded_tables() -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(0x1000), PAGE_SIZE, PageFlags::rw());
        s.map_region(VirtAddr(0x3f_f000), PAGE_SIZE, PageFlags::ro());
        s.map_region(VirtAddr(0x4000_3000), PAGE_SIZE, PageFlags::rx());
        s
    }

    /// Regions that start mid-table and straddle 2 MiB, 1 GiB and
    /// 512 GiB boundaries, with lengths that are not a page multiple,
    /// one region of more than a leaf table, and an empty one.
    const REGIONS: [(u64, u64); 8] = [
        (0x2000, 3 * PAGE_SIZE),
        (0x1f_e000, 5 * PAGE_SIZE),
        (0x3f_d000, 4 * PAGE_SIZE + 1),
        (0x3fff_e000, 4 * PAGE_SIZE),
        (0x7f_ffff_f000, 2 * PAGE_SIZE),
        (0x12_3000, 600 * PAGE_SIZE),
        (SENSITIVE_BASE - PAGE_SIZE, 3 * PAGE_SIZE - 7),
        (0x5000, 0),
    ];

    /// The page-by-page [`AddressSpace::map_region`]: each page takes its
    /// frame, then walks from the root, creating tables as it goes.
    fn map_by_page(s: &mut AddressSpace, start: u64, len: u64, flags: PageFlags) {
        for i in 0..len.div_ceil(PAGE_SIZE) {
            let va = VirtAddr(start + i * PAGE_SIZE);
            s.pt().map_anon(&mut s.pm, va, flags);
        }
    }

    /// The page-by-page [`AddressSpace::try_map_region`]: each page walks
    /// from the root, creating tables, then takes its frame.
    fn try_map_by_page(s: &mut AddressSpace, start: u64, len: u64, flags: PageFlags) -> bool {
        (0..len.div_ceil(PAGE_SIZE)).all(|i| {
            let va = VirtAddr(start + i * PAGE_SIZE);
            s.pt().try_map_anon(&mut s.pm, va, flags).is_some()
        })
    }

    #[test]
    fn map_region_matches_the_page_by_page_loop() {
        let base = seeded_tables();
        for (start, len) in REGIONS {
            let what = format!("{start:#x} + {len:#x}");
            let (mut a, mut b) = (base.clone(), base.clone());
            a.map_region(VirtAddr(start), len, PageFlags::rw());
            map_by_page(&mut b, start, len, PageFlags::rw());
            assert_same_tables(&mut a, &mut b, &what);
        }
    }

    #[test]
    fn try_map_region_matches_the_page_by_page_loop_down_to_exhaustion() {
        let base = seeded_tables();
        for (start, len) in REGIONS {
            let (mut a, mut b) = (base.clone(), base.clone());
            assert!(a.try_map_region(VirtAddr(start), len, PageFlags::rw()));
            assert!(try_map_by_page(&mut b, start, len, PageFlags::rw()));
            assert_same_tables(&mut a, &mut b, &format!("{start:#x} + {len:#x}"));
            // A frame limit at every point of the region's allocations,
            // running out on a table or on a data frame.
            let (first, used) = (base.pm.next_free_pfn(), a.pm.next_free_pfn());
            for limit in first..used {
                let what = format!("{start:#x} + {len:#x}, limit {limit}");
                let (mut a, mut b) = (base.clone(), base.clone());
                a.set_frame_limit(Some(limit));
                b.set_frame_limit(Some(limit));
                assert!(!a.try_map_region(VirtAddr(start), len, PageFlags::rw()));
                assert!(!try_map_by_page(&mut b, start, len, PageFlags::rw()));
                assert_same_tables(&mut a, &mut b, &what);
            }
        }
    }

    #[test]
    fn add_view_matches_the_page_by_page_copy() {
        let mut base = seeded_tables();
        for (start, len) in REGIONS {
            base.map_region(VirtAddr(start), len, PageFlags::rw());
        }
        // Protection keys and flags on pages of several leaf tables, and
        // accessed and dirty bits set by the walker.
        base.pkey_mprotect(VirtAddr(0x1f_f000), 2 * PAGE_SIZE, 5);
        base.pkey_mprotect(VirtAddr(0x4000_0000), PAGE_SIZE, 15);
        base.mprotect(VirtAddr(0x12_4000), 3 * PAGE_SIZE, Prot::ReadExec);
        base.write_u64(VirtAddr(0x2008), 1).unwrap();
        base.read_u64(VirtAddr(0x3000)).unwrap();
        let mut a = base.clone();
        a.add_view();
        // The page-by-page copy: each leaf mapped, then its key set.
        let mut b = base.clone();
        let new_pt = PageTable::new(&mut b.pm);
        for (va, pte) in b.pt().mappings(&mut b.pm) {
            new_pt.map(&mut b.pm, va, pte.addr(), pte.flags());
            if pte.pkey() != 0 {
                new_pt.set_pkey(&mut b.pm, va, pte.pkey());
            }
        }
        b.views.push(new_pt);
        let pkeys = |s: &mut AddressSpace| {
            let pt = s.views[1];
            let leaves = pt.mappings(&mut s.pm);
            leaves.iter().filter(|(_, pte)| pte.pkey() != 0).count()
        };
        assert_eq!(pkeys(&mut a), 3);
        assert_same_tables(&mut a, &mut b, "add_view");
    }

    /// The page-by-page [`AddressSpace::mprotect`] or, with `key`,
    /// [`AddressSpace::pkey_mprotect`]: one walk from the root and one
    /// `invlpg` per page.
    fn update_by_page(
        s: &mut AddressSpace,
        start: u64,
        len: u64,
        prot: Prot,
        key: Option<u8>,
    ) -> bool {
        if key.is_none() {
            s.mprotect_calls += 1;
        }
        let mut ok = true;
        for i in 0..len.div_ceil(PAGE_SIZE).max(1) {
            let va = VirtAddr((start & !(PAGE_SIZE - 1)) + i * PAGE_SIZE);
            ok &= match key {
                Some(key) => s.pt().set_pkey(&mut s.pm, va, key),
                None => s.pt().protect(&mut s.pm, va, prot.flags()),
            };
            s.tlb.flush_page(va.vpn());
        }
        ok
    }

    /// A space with runs of mapped pages around table boundaries, up to
    /// the last page of the 48-bit space, each with a TLB entry.
    fn protect_target() -> AddressSpace {
        let mut s = seeded_tables();
        let runs = [
            (0x1000, 8),
            (0x1f_c000, 8),
            (0x3fff_f000, 2),
            (0x7f_ffff_f000, 2),
            (SENSITIVE_BASE, 3),
            (0xffff_ffff_e000, 2),
        ];
        for (start, pages) in runs {
            s.map_region(VirtAddr(start), pages * PAGE_SIZE, PageFlags::rw());
            for page in 0..pages {
                let va = VirtAddr(start + page * PAGE_SIZE);
                if va.is_canonical_user() {
                    s.read_u64(va).unwrap();
                }
            }
        }
        s
    }

    #[test]
    fn range_protection_matches_the_page_by_page_loop() {
        let base = protect_target();
        let anchors = [
            0x0u64,
            0x1f_c000,
            0x3fff_f000,
            0x7f_ffff_f000,
            SENSITIVE_BASE,
            0xffff_ffff_e000,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..400 {
            let anchor = anchors[(next() % anchors.len() as u64) as usize];
            // A few pages either side of the anchor, at any byte offset,
            // for zero to a leaf table and a half of pages (never past
            // the 48-bit space: the page loop would alias low pages).
            let top = 1u64 << VA_BITS;
            let start = (anchor + next() % (8 * PAGE_SIZE)).saturating_sub(3 * PAGE_SIZE);
            let start = start.min(top - 1);
            let len = match next() % 4 {
                0 => next() % 3,
                1 => next() % (12 * PAGE_SIZE),
                _ => next() % (768 * PAGE_SIZE),
            };
            let len = len.min(top - (start & !(PAGE_SIZE - 1)));
            let prot = [Prot::None, Prot::Read, Prot::ReadWrite, Prot::ReadExec][case % 4];
            let key = (case % 3 == 0).then(|| (next() % 16) as u8);
            let what = format!("case {case}: {start:#x} + {len:#x}, {prot:?}, key {key:?}");
            let (mut a, mut b) = (base.clone(), base.clone());
            let ok = match key {
                Some(key) => a.pkey_mprotect(VirtAddr(start), len, key),
                None => a.mprotect(VirtAddr(start), len, prot),
            };
            assert_eq!(ok, update_by_page(&mut b, start, len, prot, key), "{what}");
            assert_same_tables(&mut a, &mut b, &what);
        }
    }

    #[test]
    fn ranges_past_the_page_tables_fail_without_aliasing() {
        let base = protect_target();
        let top = 1u64 << VA_BITS;
        // The last mapped page of the 48-bit space and two past it; then
        // ranges wholly past it, the last reaching past `u64::MAX`.
        let cases = [
            (top - 2 * PAGE_SIZE, 4 * PAGE_SIZE, 2),
            (top, 2 * PAGE_SIZE, 0),
            (top + 0x1000, 1, 0),
            (!(PAGE_SIZE - 1), 2 * PAGE_SIZE, 0),
            (u64::MAX, u64::MAX, 0),
        ];
        for (start, len, inside) in cases {
            let pages = len.div_ceil(PAGE_SIZE).max(1);
            let what = format!("{start:#x} + {len:#x}");
            for key in [None, Some(7)] {
                let mut s = base.clone();
                let ok = match key {
                    Some(key) => s.pkey_mprotect(VirtAddr(start), len, key),
                    None => s.mprotect(VirtAddr(start), len, Prot::Read),
                };
                assert!(!ok, "{what}");
                assert_eq!(
                    s.tlb_stats().page_flushes,
                    base.tlb_stats().page_flushes + pages,
                    "{what}"
                );
                // Only the pages inside the space changed: the same call
                // on them alone, page by page, then a flush of the rest,
                // leaves an equal space.
                let mut r = base.clone();
                if inside > 0 {
                    let len = inside * PAGE_SIZE;
                    assert!(update_by_page(&mut r, start, len, Prot::Read, key));
                } else if key.is_none() {
                    r.mprotect_calls += 1;
                }
                r.tlb
                    .flush_range((start >> PAGE_SHIFT) + inside, pages - inside);
                assert_same_tables(&mut s, &mut r, &what);
            }
        }
    }

    #[test]
    fn cross_page_write_spans_mappings() {
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(0x6000), 2 * PAGE_SIZE, PageFlags::rw());
        let data: Vec<u8> = (0..16).collect();
        s.write(VirtAddr(0x6000 + PAGE_SIZE - 8), &data).unwrap();
        let mut buf = [0u8; 16];
        s.read(VirtAddr(0x6000 + PAGE_SIZE - 8), &mut buf).unwrap();
        assert_eq!(&buf[..], &data[..]);
    }

    #[test]
    fn cross_page_write_faults_midway_if_second_page_missing() {
        let mut s = space_with_page(0x6000, PageFlags::rw());
        let err = s
            .write(VirtAddr(0x6000 + PAGE_SIZE - 4), &[0u8; 8])
            .unwrap_err();
        assert!(matches!(err, Fault::NotMapped { .. }));
    }

    #[test]
    fn tlb_hit_reported_on_second_access() {
        let mut s = space_with_page(0x7000, PageFlags::rw());
        s.read_u64(VirtAddr(0x7000)).unwrap();
        let info = s.write_u64(VirtAddr(0x7008), 1).unwrap();
        assert!(info.tlb_hit);
        assert!(s.tlb_stats().hits >= 1);
        assert!(s.tlb_stats().misses >= 1);
    }

    #[test]
    fn ept_secret_page_faults_in_default_domain() {
        let mut s = space_with_page(SENSITIVE_BASE, PageFlags::rw());
        // Find the guest-physical frame of the page to mark secret.
        s.write_u64(VirtAddr(SENSITIVE_BASE), 0x5afe).unwrap();
        let mut ept = EptSet::new(2, true);
        // Mark every currently mapped gpfn secret to EPT 1. The data page
        // is the last allocated frame; mark a generous range.
        for gpfn in 0..64 {
            ept.mark_secret(gpfn, 1);
        }
        s.install_ept(ept);
        let err = s.read_u64(VirtAddr(SENSITIVE_BASE)).unwrap_err();
        assert!(matches!(err, Fault::Ept(_)));
        s.ept_mut().unwrap().vmfunc_switch(1);
        assert_eq!(s.read_u64(VirtAddr(SENSITIVE_BASE)).unwrap(), 0x5afe);
    }

    #[test]
    fn views_diverge_after_fork() {
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(0x5000), PAGE_SIZE, PageFlags::rw());
        s.poke(VirtAddr(0x5000), &7u64.to_le_bytes());
        let secure = s.add_view();
        // Unmap from view 0; view `secure` keeps the page (same frame).
        s.unmap_region(VirtAddr(0x5000), PAGE_SIZE);
        assert!(matches!(
            s.read_u64(VirtAddr(0x5000)),
            Err(Fault::NotMapped { .. })
        ));
        assert!(s.switch_view(secure));
        assert_eq!(s.read_u64(VirtAddr(0x5000)).unwrap(), 7);
    }

    #[test]
    fn switch_to_unknown_view_fails() {
        let mut s = AddressSpace::new();
        assert!(!s.switch_view(3));
        assert_eq!(s.active_view(), 0);
    }

    #[test]
    fn pcid_prevents_stale_tlb_entries_across_views() {
        // Access the page from the secure view (priming the TLB), switch
        // back, and verify the cached translation does NOT leak into the
        // default view.
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(0x6000), PAGE_SIZE, PageFlags::rw());
        let secure = s.add_view();
        s.unmap_region(VirtAddr(0x6000), PAGE_SIZE);
        s.switch_view(secure);
        s.write_u64(VirtAddr(0x6000), 1).unwrap(); // TLB now holds (secure, vpn)
        s.switch_view(0);
        assert!(
            matches!(s.read_u64(VirtAddr(0x6000)), Err(Fault::NotMapped { .. })),
            "PCID tag must prevent the secure view's TLB entry from serving view 0"
        );
        // And no flush happened: switching back still hits the TLB.
        s.switch_view(secure);
        let before = s.tlb_stats().hits;
        s.read_u64(VirtAddr(0x6000)).unwrap();
        assert!(s.tlb_stats().hits > before);
    }

    #[test]
    fn view_clone_preserves_pkeys_and_flags() {
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(0x7000), PAGE_SIZE, PageFlags::ro());
        s.pkey_mprotect(VirtAddr(0x7000), PAGE_SIZE, 3);
        let v = s.add_view();
        s.switch_view(v);
        assert!(matches!(
            s.write_u64(VirtAddr(0x7000), 1),
            Err(Fault::Protection { .. })
        ));
        s.pkru = Pkru::deny_key(3);
        assert!(matches!(
            s.read_u64(VirtAddr(0x7000)),
            Err(Fault::PkeyDenied { key: 3, .. })
        ));
    }

    #[test]
    fn memo_never_outlives_a_pkru_change() {
        // Prime the read memo, then revoke the key: the memoized
        // translation must not serve the now-forbidden access.
        let mut s = space_with_page(0x9000, PageFlags::rw());
        s.pkey_mprotect(VirtAddr(0x9000), PAGE_SIZE, 5);
        s.read_u64(VirtAddr(0x9000)).unwrap();
        s.read_u64(VirtAddr(0x9008)).unwrap(); // memo hit
        s.pkru = Pkru::deny_key(5);
        assert!(matches!(
            s.read_u64(VirtAddr(0x9010)),
            Err(Fault::PkeyDenied { key: 5, .. })
        ));
        // Reopening the key restores the access (and re-primes the memo).
        s.pkru = Pkru::allow_all();
        s.read_u64(VirtAddr(0x9018)).unwrap();
    }

    #[test]
    fn memo_never_outlives_an_ept_switch() {
        // After a successful access in the secret domain, switching the
        // EPT back must fault again: the memoized host translation from
        // the secret EPT is stale.
        let mut s = space_with_page(SENSITIVE_BASE, PageFlags::rw());
        s.write_u64(VirtAddr(SENSITIVE_BASE), 0x5afe).unwrap();
        let mut ept = EptSet::new(2, true);
        for gpfn in 0..64 {
            ept.mark_secret(gpfn, 1);
        }
        s.install_ept(ept);
        s.ept_mut().unwrap().vmfunc_switch(1);
        assert_eq!(s.read_u64(VirtAddr(SENSITIVE_BASE)).unwrap(), 0x5afe);
        assert_eq!(s.read_u64(VirtAddr(SENSITIVE_BASE)).unwrap(), 0x5afe);
        s.ept_mut().unwrap().vmfunc_switch(0);
        assert!(matches!(
            s.read_u64(VirtAddr(SENSITIVE_BASE)),
            Err(Fault::Ept(_))
        ));
    }

    #[test]
    fn memo_never_outlives_a_view_switch() {
        // The same vpn maps to different frames in two views; repeated
        // accesses across switches must read each view's own frame.
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(0xa000), PAGE_SIZE, PageFlags::rw());
        let secure = s.add_view();
        s.write_u64(VirtAddr(0xa000), 1).unwrap();
        s.write_u64(VirtAddr(0xa008), 1).unwrap(); // memo hit in view 0
        s.switch_view(secure);
        // Same frame is shared after add_view; remap view `secure` to a
        // fresh frame so the views diverge.
        s.unmap_region(VirtAddr(0xa000), PAGE_SIZE);
        s.map_region(VirtAddr(0xa000), PAGE_SIZE, PageFlags::rw());
        s.write_u64(VirtAddr(0xa000), 2).unwrap();
        assert_eq!(s.read_u64(VirtAddr(0xa000)).unwrap(), 2);
        s.switch_view(0);
        assert_eq!(s.read_u64(VirtAddr(0xa000)).unwrap(), 1);
    }

    #[test]
    fn u64_fast_path_matches_generic_reads() {
        // The u64 fast path and the generic byte loop must agree on both
        // value and reported access info, including at the page-crossing
        // boundary where the fast path falls back.
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(0xb000), 2 * PAGE_SIZE, PageFlags::rw());
        for off in [0u64, 8, 4088, 4089, 4096] {
            let va = VirtAddr(0xb000 + off);
            s.write_u64(va, 0x1122_3344_5566_7700 + off).unwrap();
            let (v, info) = s.read_u64_info(va).unwrap();
            assert_eq!(v, 0x1122_3344_5566_7700 + off, "offset {off}");
            let mut buf = [0u8; 8];
            let ginfo = s.read(va, &mut buf).unwrap();
            assert_eq!(u64::from_le_bytes(buf), v, "offset {off}");
            assert_eq!(info, ginfo, "offset {off}");
        }
    }

    #[test]
    fn restore_from_any_source_matches_a_full_clone() {
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(0x1000), 4 * PAGE_SIZE, PageFlags::rw());
        s.pkey_mprotect(VirtAddr(0x1000), PAGE_SIZE, 2);
        for i in 0..4u64 {
            s.write_u64(VirtAddr(0x1000 + i * 8), i).unwrap();
        }
        let src = s.clone();
        // A second source on a diverged timeline, rewound to in between.
        let mut other = s.clone();
        other.write_u64(VirtAddr(0x1018), 7).unwrap();
        other.map_region(VirtAddr(0xa000), PAGE_SIZE, PageFlags::rw());
        for round in 0..3u64 {
            // Mutate memory contents, protections, mappings and the
            // TLB/cache/memo state, then rewind.
            s.write_u64(VirtAddr(0x1010), 999 + round).unwrap();
            s.pkru = Pkru::deny_key(2);
            s.map_region(VirtAddr(0x9000), PAGE_SIZE, PageFlags::rw());
            s.poke(VirtAddr(0x9000), &round.to_le_bytes());
            s.mprotect(VirtAddr(0x2000), PAGE_SIZE, Prot::Read);
            s.restore_from(&other);
            assert_eq!(s.read_u64(VirtAddr(0x1018)).unwrap(), 7);
            assert!(s.read_u64(VirtAddr(0xa000)).is_ok());
            s.restore_from(&src);

            // From here the rewound space and a fresh full clone must be
            // indistinguishable: same values, same faults, same stats.
            let mut full = src.clone();
            for va in [0x1000u64, 0x1010, 0x2008, 0x3000] {
                assert_eq!(
                    s.read_u64(VirtAddr(va)).unwrap(),
                    full.read_u64(VirtAddr(va)).unwrap(),
                    "round {round} va {va:#x}"
                );
            }
            assert!(
                matches!(s.read_u64(VirtAddr(0x9000)), Err(Fault::NotMapped { .. })),
                "round {round}: mapping added after the snapshot must be rewound"
            );
            assert!(matches!(
                full.read_u64(VirtAddr(0x9000)),
                Err(Fault::NotMapped { .. })
            ));
            assert_eq!(s.tlb_stats(), full.tlb_stats(), "round {round}");
            assert_eq!(s.cache_stats(), full.cache_stats(), "round {round}");
            assert_eq!(s.mprotect_calls(), full.mprotect_calls());
            assert_eq!(s.pkru, full.pkru);
        }
    }

    #[test]
    fn zero_length_access_still_checks_the_page() {
        // Regression: a zero-length access used to fabricate a successful
        // `AccessInfo` without running any permission check.
        let mut s = AddressSpace::new();
        assert!(matches!(
            s.read(VirtAddr(0x5000), &mut []),
            Err(Fault::NotMapped { .. })
        ));
        let mut s = space_with_page(0x5000, PageFlags::ro());
        assert!(matches!(
            s.write(VirtAddr(0x5000), &[]),
            Err(Fault::Protection {
                access: Access::Write,
                ..
            })
        ));
        // A permitted zero-length probe succeeds with real translation
        // info and, like `check_fetch`, touches no data cache.
        let mut s = space_with_page(0x5000, PageFlags::rw());
        let before = s.cache_stats();
        let info = s.read(VirtAddr(0x5000), &mut []).unwrap();
        assert!(!info.tlb_hit, "first touch walks");
        assert_eq!(s.cache_stats(), before, "no data transfer, no cache");
    }

    #[test]
    fn inline_cache_hit_is_observationally_identical() {
        // Drive one space through the IC entry and a twin through the
        // full path: values, faults and *digested* statistics must agree.
        let mut a = space_with_page(0xc000, PageFlags::rw());
        let mut b = space_with_page(0xc000, PageFlags::rw());
        let mut e = TransCacheEntry::INVALID;
        for i in 0..6u64 {
            let va = VirtAddr(0xc000 + i * 8);
            a.ic_write_u64(va, i, &mut e).unwrap();
            b.write_u64(va, i).unwrap();
        }
        assert!(a.translation_stats().ic_hits >= 4, "entry must hit");
        let mut e = TransCacheEntry::INVALID;
        for i in 0..6u64 {
            let va = VirtAddr(0xc000 + i * 8);
            assert_eq!(a.ic_read_u64(va, &mut e).unwrap().0, i);
            assert_eq!(b.read_u64(va).unwrap(), i);
        }
        assert_eq!(a.tlb_stats(), b.tlb_stats());
        assert_eq!(a.cache_stats(), b.cache_stats());
    }

    #[test]
    fn inline_cache_never_outlives_mutations() {
        let mut s = space_with_page(0xd000, PageFlags::rw());
        let mut e = TransCacheEntry::INVALID;
        s.ic_write_u64(VirtAddr(0xd000), 1, &mut e).unwrap();
        s.ic_write_u64(VirtAddr(0xd008), 2, &mut e).unwrap(); // filled
                                                              // mprotect bumps the generation: the stale writable entry must
                                                              // not serve the now read-only page.
        s.mprotect(VirtAddr(0xd000), PAGE_SIZE, Prot::Read);
        assert!(matches!(
            s.ic_write_u64(VirtAddr(0xd010), 3, &mut e),
            Err(Fault::Protection { .. })
        ));
        // Same for a pkru revocation on a read entry (value compare, no
        // generation bump).
        let mut s = space_with_page(0xd000, PageFlags::rw());
        s.pkey_mprotect(VirtAddr(0xd000), PAGE_SIZE, 6);
        let mut e = TransCacheEntry::INVALID;
        s.ic_read_u64(VirtAddr(0xd000), &mut e).unwrap();
        s.ic_read_u64(VirtAddr(0xd008), &mut e).unwrap();
        let gen = s.generation();
        s.pkru = Pkru::deny_key(6);
        assert_eq!(s.generation(), gen, "pkru writes do not bump the gen");
        assert!(matches!(
            s.ic_read_u64(VirtAddr(0xd010), &mut e),
            Err(Fault::PkeyDenied { key: 6, .. })
        ));
        // And a TLB insert for an unrelated page invalidates too (silent
        // conflict evictions make anything less unsound).
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(0xe000), PAGE_SIZE, PageFlags::rw());
        s.map_region(VirtAddr(0xf000), PAGE_SIZE, PageFlags::rw());
        let mut e = TransCacheEntry::INVALID;
        s.ic_write_u64(VirtAddr(0xe000), 1, &mut e).unwrap();
        let gen = s.generation();
        s.read_u64(VirtAddr(0xf000)).unwrap(); // walk + insert
        assert!(s.generation() > gen);
    }

    #[test]
    fn restore_moves_the_generation_past_both_timelines() {
        let mut s = space_with_page(0x1000, PageFlags::rw());
        let src = s.clone();
        let mut e = TransCacheEntry::INVALID;
        s.ic_write_u64(VirtAddr(0x1000), 1, &mut e).unwrap();
        s.ic_write_u64(VirtAddr(0x1008), 2, &mut e).unwrap(); // filled
        let filled_at = s.generation();
        s.restore_from(&src);
        assert!(
            s.generation() > filled_at,
            "restore must orphan entries from the abandoned timeline"
        );
        // The stale entry misses and the access re-derives the *rewound*
        // contents, not the abandoned timeline's write.
        assert_eq!(s.ic_read_u64(VirtAddr(0x1000), &mut e).unwrap().0, 0);
    }

    #[test]
    fn peek_poke_bypass_checks() {
        let mut s = space_with_page(0x8000, PageFlags::ro());
        assert!(s.poke(VirtAddr(0x8000), b"kernel"));
        let mut buf = [0u8; 6];
        assert!(s.peek(VirtAddr(0x8000), &mut buf));
        assert_eq!(&buf, b"kernel");
        assert!(!s.poke(VirtAddr(0x0dea_d000), b"x"), "unmapped poke fails");
    }

    #[test]
    fn peek_poke_span_two_mapped_pages() {
        // Map the higher page first so the two frames are not in virtual
        // order: a copy that ran on physically past the first frame would
        // land in the wrong place.
        let lo = 0xa000;
        let mut s = space_with_page(lo + PAGE_SIZE, PageFlags::rw());
        s.map_region(VirtAddr(lo), PAGE_SIZE, PageFlags::rw());
        let start = VirtAddr(lo + PAGE_SIZE - 16);
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(29) ^ 0x5a).collect();
        assert!(s.poke(start, &data));
        let mut back = vec![0u8; data.len()];
        assert!(s.peek(start, &mut back));
        assert_eq!(back, data);
        // Each page holds its own part, as seen through checked reads.
        let mut head = [0u8; 16];
        s.read(start, &mut head).unwrap();
        assert_eq!(head, data[..16]);
        let mut tail = [0u8; 24];
        s.read(VirtAddr(lo + PAGE_SIZE), &mut tail).unwrap();
        assert_eq!(tail, data[16..]);
    }

    #[test]
    fn peek_poke_into_unmapped_page_keep_the_mapped_prefix() {
        let page = 0xc000;
        let mut s = space_with_page(page, PageFlags::rw());
        let start = VirtAddr(page + PAGE_SIZE - 16);
        let data = [0x77u8; 32];
        assert!(!s.poke(start, &data), "poke into an unmapped page fails");
        // The bytes on the mapped page before the hole were written.
        let mut prefix = [0u8; 16];
        assert!(s.peek(start, &mut prefix));
        assert_eq!(prefix, [0x77u8; 16]);
        // A failing peek fills exactly the mapped prefix and leaves the
        // rest of the buffer alone.
        s.poke(start, &[0x11u8; 16]);
        let mut buf = [0xeeu8; 32];
        assert!(!s.peek(start, &mut buf));
        assert_eq!(buf[..16], [0x11u8; 16]);
        assert_eq!(buf[16..], [0xeeu8; 16]);
        // Starting on the unmapped page touches nothing.
        let mut untouched = [0xeeu8; 8];
        assert!(!s.peek(VirtAddr(page + PAGE_SIZE), &mut untouched));
        assert_eq!(untouched, [0xeeu8; 8]);
    }

    #[test]
    fn peek_poke_zero_length_succeed_anywhere() {
        let mut s = AddressSpace::new();
        assert!(s.poke(VirtAddr(0x0dea_d000), &[]));
        assert!(s.peek(VirtAddr(0x0dea_d000), &mut []));
    }

    fn digest(s: &AddressSpace) -> u64 {
        let mut d = crate::digest::Digest::new();
        s.digest_into(&mut d);
        d.finish()
    }

    /// Both state-equality oracles at once: `diff`'s verdict, which must
    /// agree with digest equality in both directions.
    fn verdict(a: &AddressSpace, b: &AddressSpace) -> Option<Divergence> {
        let d = a.diff(b);
        assert_eq!(d.is_none(), digest(a) == digest(b), "{d:?}");
        assert_eq!(d.is_none(), b.diff(a).is_none(), "{d:?}");
        d
    }

    /// A space with every digested component in use: two views, an EPT
    /// set, a pkey-tagged page, warm caches, TLB and translation memo.
    fn busy_space() -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(0x1000), 2 * PAGE_SIZE, PageFlags::rw());
        s.add_view();
        s.install_ept(EptSet::new(2, true));
        s.pkey_mprotect(VirtAddr(0x2000), PAGE_SIZE, 3);
        s.write_u64(VirtAddr(0x1018), 0x1234).unwrap();
        s.read_u64(VirtAddr(0x2000)).unwrap();
        s.read_u64(VirtAddr(0x1018)).unwrap();
        s
    }

    #[test]
    fn every_digested_component_is_compared_and_named() {
        let base = busy_space();
        let pfn = base.clone().gpfn_of(VirtAddr(0x1000)).unwrap();
        let frame = format!("frame {pfn:#x} +0x20");
        type Mutation = Box<dyn Fn(&mut AddressSpace)>;
        // The component named, or the prefix of a name that depends on
        // where a cache line or TLB slot falls.
        let rows: Vec<(&str, Mutation)> = vec![
            (
                &frame,
                Box::new(|s| assert!(s.poke(VirtAddr(0x1020), &[1]))),
            ),
            (
                "next_free_pfn",
                Box::new(|s| {
                    s.pm.alloc_frame();
                }),
            ),
            ("frame_limit", Box::new(|s| s.set_frame_limit(Some(999)))),
            (
                "L1 set ",
                Box::new(|s| {
                    s.cache.access(0x7_0000);
                }),
            ),
            (
                "L1 hits",
                Box::new(move |s| {
                    s.cache.access(pfn << 12);
                }),
            ),
            ("TLB slot ", Box::new(|s| s.tlb.insert(0, 0x3f, Pte(0)))),
            ("TLB hits", Box::new(|s| s.tlb.note_hit())),
            ("views", Box::new(|s| s.views.push(s.views[0]))),
            ("view 0 root", Box::new(|s| s.views.swap(0, 1))),
            ("active view", Box::new(|s| s.active_view = 1)),
            ("pkru", Box::new(|s| s.pkru = Pkru::deny_key(3))),
            ("EPT set", Box::new(|s| s.ept = None)),
            (
                "EPT 0 gpfn 0x9 populated",
                Box::new(|s| s.ept_mut().unwrap().mark_secret(9, 0)),
            ),
            (
                "EPT switches",
                Box::new(|s| {
                    s.ept_mut().unwrap().vmfunc_switch(0);
                }),
            ),
            ("mprotect calls", Box::new(|s| s.mprotect_calls += 1)),
        ];
        for (component, mutate) in rows {
            let mut mutated = base.clone();
            mutate(&mut mutated);
            let d = verdict(&mutated, &base).expect(component);
            assert!(d.component.starts_with(component), "{component}: {d}");
        }
    }

    #[test]
    fn restore_rewinds_copied_ept_tables() {
        let base = busy_space();
        let mut s = base.clone();
        let ept = s.ept_mut().unwrap();
        ept.mark_secret(0x77, 1);
        ept.ept_mut(0)
            .map(0x78, crate::ept::EptEntry::identity(0x79));
        assert!(verdict(&s, &base).is_some());
        s.restore_from(&base);
        assert_eq!(verdict(&s, &base), None);
    }

    #[test]
    fn memo_state_and_sharing_compare_equal() {
        let base = busy_space();
        // Cold translation memo, moved generation and epoch, other
        // fast-path counters.
        let mut cold = base.clone();
        assert!(cold.memo.iter().any(Option::is_some));
        cold.memo = [None, None];
        cold.gen += 7;
        cold.ept_epoch += 1;
        cold.ic_hits += 3;
        cold.memo_hits += 5;
        assert_eq!(verdict(&cold, &base), None);
        // Rewound from a clone (shared frames and chunks), and built apart.
        let mut rewound = busy_space();
        rewound.write_u64(VirtAddr(0x1800), 9).unwrap();
        rewound.restore_from(&base);
        assert_eq!(verdict(&rewound, &base), None);
        assert_eq!(verdict(&busy_space(), &base), None);
        // Different cache and TLB sharing stamps (and EPT sharing): one
        // space stamped by a clone, one never stamped, one stamped apart.
        let stamped = base.clone();
        let fresh = busy_space();
        let apart = busy_space();
        let _ = apart.clone();
        let ids = |s: &AddressSpace| (s.cache.stamp_ids(), s.tlb.stamp_id());
        assert_eq!(ids(&fresh), ([0; 3], 0));
        assert!(ids(&stamped).0.iter().all(|&id| id != 0));
        assert_ne!(ids(&stamped), ids(&apart));
        for (a, b) in [(&stamped, &fresh), (&stamped, &apart), (&apart, &fresh)] {
            assert_eq!(verdict(a, b), None);
        }
        // Write marks and lineage bases: two spaces of one lineage whose
        // writes put back what they overwrote (their marks differ, their
        // contents do not), a space rewound by copying back, and each of
        // them against a space of another lineage.
        let snap = base.clone();
        let (mut undone, mut touched) = (snap.clone(), snap.clone());
        let mut old = [0u8; 8];
        assert!(undone.peek(VirtAddr(0x1800), &mut old));
        assert!(undone.poke(VirtAddr(0x1800), &[!old[0]]));
        assert!(undone.poke(VirtAddr(0x1800), &old));
        let mut word = [0u8; 8];
        assert!(touched.peek(VirtAddr(0x1808), &mut word));
        assert!(touched.poke(VirtAddr(0x1808), &word));
        let mut copied_back = snap.clone();
        copied_back.write_u64(VirtAddr(0x1800), 9).unwrap();
        copied_back.restore_from(&snap);
        for s in [&undone, &touched, &copied_back] {
            assert_eq!(verdict(s, &snap), None);
            assert_eq!(verdict(s, &fresh), None);
        }
        assert_eq!(verdict(&undone, &touched), None);
        // Chunk bitmaps: a space keeps the cache chunks it wrote marked
        // across a clone (a superset of what differs from the clone), and
        // one rewound from that clone has none.
        let marked = busy_space();
        let clone = marked.clone();
        let mut cleared = busy_space();
        cleared.write_u64(VirtAddr(0x1800), 9).unwrap();
        cleared.restore_from(&clone);
        assert_ne!(marked.cache.written_chunks(), [0; 3]);
        assert_eq!(cleared.cache.written_chunks(), [0; 3]);
        for s in [&marked, &cleared] {
            assert_eq!(verdict(s, &clone), None);
            assert_eq!(verdict(s, &fresh), None);
        }
        assert_eq!(verdict(&marked, &cleared), None);
    }
}
