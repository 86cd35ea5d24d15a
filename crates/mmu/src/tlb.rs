//! A small direct-mapped TLB with PCID tagging and statistics.
//!
//! Techniques differ in the TLB pressure they cause — VMFUNC switches
//! invalidate nothing thanks to VPID tagging, `mprotect` must flush, and
//! the page-table-switching extension relies on PCID tags so switching
//! address-space views does not flush either (the "optionally sped up
//! using the PCID feature" alternative of paper §3.1). The TLB is modeled
//! explicitly and its hit/miss counts feed the cycle cost model.

use crate::diff::{same, Divergence, Walk};
use crate::digest::Digest;
use crate::pte::Pte;
use crate::stamp::Stamp;

/// Number of TLB entries (a Skylake-ish L1 dTLB).
pub const TLB_ENTRIES: usize = 64;

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that found a valid entry.
    pub hits: u64,
    /// Lookups that required a page walk.
    pub misses: u64,
    /// Full flushes performed.
    pub flushes: u64,
    /// Single-page invalidations (`invlpg`) executed, counted whether or
    /// not the page was actually cached — the cost the kernel pays per
    /// `mprotect`/`munmap` page, which the PTS/mprotect ablations assert
    /// on.
    pub page_flushes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TlbEntry {
    pcid: u16,
    vpn: u64,
    pte: Pte,
    valid: bool,
}

/// A direct-mapped, PCID-tagged translation lookaside buffer.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<TlbEntry>,
    stats: TlbStats,
    /// Shared with every clone holding the same entries, cleared by
    /// every entry write that changes an entry (see [`crate::stamp`]): a
    /// restore between two TLBs with one stamp skips the entry copy.
    /// Memo state, excluded from the digest and `compare`.
    stamp: Stamp,
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new()
    }
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new() -> Self {
        Self {
            entries: vec![
                TlbEntry {
                    pcid: 0,
                    vpn: 0,
                    pte: Pte(0),
                    valid: false,
                };
                TLB_ENTRIES
            ],
            stats: TlbStats::default(),
            stamp: Stamp::default(),
        }
    }

    /// Looks up the leaf PTE cached for `vpn` in address space `pcid`,
    /// recording a hit or miss.
    #[inline(always)]
    pub fn lookup(&mut self, pcid: u16, vpn: u64) -> Option<Pte> {
        let slot = (vpn as usize) % TLB_ENTRIES;
        let e = self.entries[slot];
        if e.valid && e.vpn == vpn && e.pcid == pcid {
            self.stats.hits += 1;
            Some(e.pte)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Records a hit without probing the entry array.
    ///
    /// The inline translation cache's generation check has already
    /// established that the entry is resident and would hit (see
    /// `space::TransCacheEntry`), so its fast path charges the hit
    /// statistic — which is part of the machine digest — without paying
    /// for the probe.
    #[inline(always)]
    pub fn note_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Installs a translation after a successful walk. Re-installing the
    /// resident entry writes nothing, so it keeps the stamp.
    #[inline]
    pub fn insert(&mut self, pcid: u16, vpn: u64, pte: Pte) {
        let slot = (vpn as usize) % TLB_ENTRIES;
        let entry = TlbEntry {
            pcid,
            vpn,
            pte,
            valid: true,
        };
        if self.entries[slot] != entry {
            self.stamp.clear();
            self.entries[slot] = entry;
        }
    }

    /// Invalidates the entry for one page in every address space
    /// (`invlpg` broadcast; the kernel invalidates across PCIDs).
    pub fn flush_page(&mut self, vpn: u64) {
        self.stats.page_flushes += 1;
        let slot = (vpn as usize) % TLB_ENTRIES;
        if self.entries[slot].valid && self.entries[slot].vpn == vpn {
            self.stamp.clear();
            self.entries[slot].valid = false;
        }
    }

    /// Invalidates the entries of the `pages` pages from page number
    /// `vpn` in every address space, counting one page flush per page:
    /// the [`Self::flush_page`] loop over the range, in one scan of the
    /// entries. No page past `u64::MAX` aliases a low one.
    pub fn flush_range(&mut self, vpn: u64, pages: u64) {
        self.stats.page_flushes = self.stats.page_flushes.wrapping_add(pages);
        for e in self.entries.iter_mut() {
            if e.valid && e.vpn.wrapping_sub(vpn) < pages {
                self.stamp.clear();
                e.valid = false;
            }
        }
    }

    /// Invalidates everything (`mov cr3` without PCID). A flush of a TLB
    /// with no valid entry changes none, so it keeps the stamp.
    pub fn flush_all(&mut self) {
        if self.entries.iter().any(|e| e.valid) {
            self.stamp.clear();
            for e in &mut self.entries {
                e.valid = false;
            }
        }
        self.stats.flushes += 1;
    }

    /// Returns the accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// The sharing stamp id, for tests of which TLBs share one.
    #[cfg(test)]
    pub(crate) fn stamp_id(&self) -> u64 {
        self.stamp.id()
    }

    /// Feeds the TLB's semantic state into `d`: every valid entry as
    /// `(slot, pcid, vpn, pte)` plus the statistics. Invalid slots digest
    /// identically regardless of the stale tag bits they retain.
    pub fn digest_into(&self, d: &mut Digest) {
        let Ok(()) = self.walk(self, d);
    }

    /// The field list behind [`Self::digest_into`] and a space's `diff`:
    /// the entries, then the statistics. The entries compare by which
    /// slots are valid, then each valid entry's tag and PTE (stale bits
    /// of invalid slots are never looked at). All 64 entries are read;
    /// the stamp plays no part.
    pub(crate) fn walk<W: Walk>(&self, other: &Tlb, w: &mut W) -> Result<(), W::Stop> {
        w.part(
            |d| {
                for (slot, e) in self.entries.iter().enumerate() {
                    if e.valid {
                        d.write_u64(slot as u64);
                        d.write_u64(e.pcid as u64);
                        d.write_u64(e.vpn);
                        d.write_u64(e.pte.0);
                    }
                }
            },
            || self.compare_entries(other),
        )?;
        let (a, b) = (self.stats, other.stats);
        w.word("TLB hits", a.hits, b.hits)?;
        w.word("TLB misses", a.misses, b.misses)?;
        w.word("TLB flushes", a.flushes, b.flushes)?;
        w.word("TLB page flushes", a.page_flushes, b.page_flushes)
    }

    /// The entries part of [`Self::walk`]'s comparison.
    fn compare_entries(&self, other: &Tlb) -> Result<(), Divergence> {
        let equal = |(a, b): (&TlbEntry, &TlbEntry)| {
            a.valid == b.valid && (!a.valid || (a.pcid, a.vpn, a.pte.0) == (b.pcid, b.vpn, b.pte.0))
        };
        if self.entries.iter().zip(&other.entries).all(equal) {
            return Ok(());
        }
        for (slot, (a, b)) in self.entries.iter().zip(&other.entries).enumerate() {
            same(
                format_args!("TLB slot {slot}"),
                a.valid as u64,
                b.valid as u64,
            )?;
            if a.valid {
                same(
                    format_args!("TLB slot {slot} pcid"),
                    a.pcid.into(),
                    b.pcid.into(),
                )?;
                same(format_args!("TLB slot {slot} vpn"), a.vpn, b.vpn)?;
                same(format_args!("TLB slot {slot} pte"), a.pte.0, b.pte.0)?;
            }
        }
        Ok(())
    }

    /// Copies `src`'s entries and statistics into `self` without
    /// reallocating (both TLBs have the fixed [`TLB_ENTRIES`] geometry).
    /// The allocation-free counterpart of `*self = src.clone()`, used by
    /// `AddressSpace::restore_from` on every snapshot restore.
    ///
    /// The entries are copied only when they may differ: a TLB that
    /// shares `src`'s sharing stamp (neither side has changed an entry
    /// since one was cloned or restored from the other) already holds
    /// `src`'s entries, and only the statistics are copied. Otherwise all
    /// 64 entries are copied (2 KiB) and the rewound TLB takes `src`'s
    /// stamp. The TLB keeps no write mask: copying back only the changed
    /// entries showed no end-to-end gain over the full copy.
    pub fn restore_from(&mut self, src: &Tlb) {
        self.stats = src.stats;
        if !self.stamp.matches(&src.stamp) {
            self.entries.copy_from_slice(&src.entries);
            self.stamp.clone_from(&src.stamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::diff::{Compare, Mutation};
    use crate::pte::PageFlags;

    fn pte() -> Pte {
        Pte::leaf(PhysAddr(0x5000), PageFlags::rw())
    }

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new();
        assert!(tlb.lookup(0, 42).is_none());
        tlb.insert(0, 42, pte());
        assert_eq!(tlb.lookup(0, 42), Some(pte()));
        assert_eq!(
            tlb.stats(),
            TlbStats {
                hits: 1,
                misses: 1,
                flushes: 0,
                page_flushes: 0
            }
        );
    }

    #[test]
    fn conflicting_vpns_evict() {
        let mut tlb = Tlb::new();
        tlb.insert(0, 1, pte());
        tlb.insert(0, 1 + TLB_ENTRIES as u64, pte());
        assert!(tlb.lookup(0, 1).is_none(), "same slot, different vpn");
    }

    #[test]
    fn pcid_tags_isolate_address_spaces() {
        // The crucial PCID property: an entry cached for one address
        // space must never serve another, even for the same vpn.
        let mut tlb = Tlb::new();
        tlb.insert(0, 7, pte());
        assert!(tlb.lookup(1, 7).is_none(), "view 1 must re-walk");
        // And switching back still hits — no flush happened.
        assert!(tlb.lookup(0, 7).is_some());
    }

    #[test]
    fn flush_page_only_invalidates_target() {
        let mut tlb = Tlb::new();
        tlb.insert(0, 3, pte());
        tlb.insert(0, 4, pte());
        tlb.flush_page(3);
        assert!(tlb.lookup(0, 3).is_none());
        assert!(tlb.lookup(0, 4).is_some());
        assert_eq!(tlb.stats().page_flushes, 1);
    }

    #[test]
    fn flush_page_counts_even_when_page_is_not_cached() {
        // A different vpn occupying the slot must survive the invlpg, but
        // the invalidation itself still happened and must be visible in
        // the stats (the mprotect/PTS ablations count these).
        let mut tlb = Tlb::new();
        tlb.insert(0, 5, pte());
        tlb.flush_page(5 + TLB_ENTRIES as u64); // same slot, different vpn
        assert!(tlb.lookup(0, 5).is_some(), "resident entry must survive");
        assert_eq!(tlb.stats().page_flushes, 1);
        tlb.flush_page(999); // empty slot
        assert_eq!(tlb.stats().page_flushes, 2);
    }

    #[test]
    fn restore_from_copies_entries_and_stats() {
        let mut src = Tlb::new();
        src.insert(0, 3, pte());
        src.lookup(0, 3);
        src.lookup(0, 4);
        let mut t = Tlb::new();
        t.insert(1, 9, pte());
        t.restore_from(&src);
        assert_eq!(t.lookup(1, 9), None, "old entry must be gone");
        // Account for the miss the probe above just recorded.
        let mut expect = src.stats();
        expect.misses += 1;
        assert_eq!(t.stats(), expect);
        assert_eq!(t.lookup(0, 3), Some(pte()));
    }

    #[test]
    fn flush_all_invalidates_everything_and_counts() {
        let mut tlb = Tlb::new();
        for vpn in 0..16 {
            tlb.insert(0, vpn, pte());
        }
        tlb.flush_all();
        for vpn in 0..16 {
            assert!(tlb.lookup(0, vpn).is_none());
        }
        assert_eq!(tlb.stats().flushes, 1);
    }

    fn digest(t: &Tlb) -> u64 {
        let mut d = Digest::new();
        t.digest_into(&mut d);
        d.finish()
    }

    /// Both state-equality oracles at once: `compare`'s verdict, which
    /// must agree with digest equality in both directions.
    fn verdict(a: &Tlb, b: &Tlb) -> Option<Divergence> {
        let d = a.walk(b, &mut Compare).err();
        assert_eq!(d.is_none(), digest(a) == digest(b), "{d:?}");
        assert_eq!(d.is_none(), b.walk(a, &mut Compare).is_ok(), "{d:?}");
        d
    }

    fn warmed() -> Tlb {
        let mut tlb = Tlb::new();
        tlb.insert(3, 17, pte());
        tlb.insert(0, 18, pte());
        tlb.flush_page(18);
        tlb.lookup(3, 17);
        tlb.lookup(0, 18);
        tlb.flush_all();
        tlb.insert(3, 17, pte());
        tlb
    }

    #[test]
    fn every_entry_write_after_a_clone_makes_the_restore_rewind() {
        // Each row names an entry write (not a `diff` component).
        let writes: [Mutation<Tlb>; 3] = [
            ("insert", |t| t.insert(1, 40, pte())),
            ("flush_page", |t| t.flush_page(17)),
            ("flush_all", |t| t.flush_all()),
        ];
        for (name, write) in writes {
            let mut t = warmed();
            let snap = t.clone();
            assert!(t.stamp.matches(&snap.stamp), "{name}");
            write(&mut t);
            assert!(verdict(&t, &snap).is_some(), "{name} changed nothing");
            assert!(!t.stamp.matches(&snap.stamp), "{name} kept the stamp");
            t.restore_from(&snap);
            assert_eq!(verdict(&t, &snap), None, "{name}");
            assert!(t.stamp.matches(&snap.stamp), "{name}");
        }
    }

    #[test]
    fn a_write_that_changes_nothing_keeps_the_stamp() {
        let mut t = warmed();
        let snap = t.clone();
        t.insert(3, 17, pte()); // the resident entry
        t.flush_page(18); // invalid already
        t.flush_page(17 + TLB_ENTRIES as u64); // another page's slot
        assert!(t.stamp.matches(&snap.stamp), "nothing changed");
        assert_eq!(t.stats().page_flushes, snap.stats().page_flushes + 2);
        // So the next restore skips the entry copy: a stale tag planted
        // in an invalid slot survives it.
        t.entries[18].vpn = 7;
        t.restore_from(&snap);
        assert_eq!(t.entries[18].vpn, 7, "the restore copied the entries");
        assert_eq!(verdict(&t, &snap), None);
        // A flush of a TLB with no valid entry changes nothing either.
        let mut empty = Tlb::new();
        let stamp = empty.clone();
        empty.flush_all();
        assert!(empty.stamp.matches(&stamp.stamp));
        assert_eq!(empty.stats().flushes, 1);
    }

    #[test]
    fn restore_between_stamped_tlbs_still_copies_the_stats() {
        let mut t = warmed();
        let snap = t.clone();
        t.lookup(3, 17);
        t.lookup(0, 99);
        t.note_hit();
        assert!(t.stamp.matches(&snap.stamp), "lookups write no entry");
        t.restore_from(&snap);
        assert_eq!(verdict(&t, &snap), None);
        // Two unstamped TLBs with different entries rewind fully.
        let (mut a, b) = (Tlb::new(), warmed());
        a.insert(2, 5, pte());
        a.restore_from(&b);
        assert_eq!(verdict(&a, &b), None);
    }

    #[test]
    fn every_digested_component_is_compared_and_named() {
        let rows: [Mutation<Tlb>; 8] = [
            ("TLB slot 17", |t| t.entries[17].valid = false),
            ("TLB slot 17 pcid", |t| t.entries[17].pcid = 4),
            ("TLB slot 17 vpn", |t| {
                t.entries[17].vpn += TLB_ENTRIES as u64
            }),
            ("TLB slot 17 pte", |t| t.entries[17].pte = Pte(0)),
            ("TLB hits", |t| t.stats.hits += 1),
            ("TLB misses", |t| t.stats.misses += 1),
            ("TLB flushes", |t| t.stats.flushes += 1),
            ("TLB page flushes", |t| t.stats.page_flushes += 1),
        ];
        let base = warmed();
        for (component, mutate) in rows {
            let mut mutated = base.clone();
            mutate(&mut mutated);
            let d = verdict(&mutated, &base).expect(component);
            assert_eq!(d.component, component);
        }
    }

    #[test]
    fn stale_bits_of_invalid_slots_compare_equal() {
        // Slot 18 was invalidated; its stale tag and PTE do not count.
        let base = warmed();
        let mut stale = base.clone();
        assert!(!stale.entries[18].valid);
        stale.entries[18].vpn = 99;
        stale.entries[18].pte = Pte(0);
        stale.entries[40].pcid = 7;
        assert_eq!(verdict(&stale, &base), None);
    }
}
