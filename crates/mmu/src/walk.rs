//! Software-walked 4-level page tables stored in simulated physical memory.
//!
//! The tables live inside [`PhysMemory`] frames exactly like a real kernel's
//! do, so a page-table walk is a chain of physical reads. The walker counts
//! the levels it touches; the CPU cost model converts walks into memory
//! accesses when a TLB miss occurs.

use std::ops::Range;

use crate::addr::{PhysAddr, VirtAddr, PAGE_SHIFT, PAGE_SIZE, VA_BITS};
use crate::phys::PhysMemory;
use crate::pte::{PageFlags, Pte};

/// Number of paging levels (PML4 .. PT).
pub const LEVELS: u32 = 4;

/// Entries per table; a leaf table maps this many pages.
const ENTRIES: u64 = 512;

/// Pages in the [`VA_BITS`]-bit space the tables cover.
const VA_PAGES: u64 = 1 << (VA_BITS - PAGE_SHIFT);

/// The 2 MiB region whose pages one leaf table maps.
fn leaf_region(va: VirtAddr) -> u64 {
    va.0 >> (PAGE_SHIFT + 9)
}

/// A 4-level page table identified by its root frame.
#[derive(Debug, Clone, Copy)]
pub struct PageTable {
    root: PhysAddr,
}

/// Result of a successful leaf walk.
#[derive(Debug, Clone, Copy)]
pub struct WalkResult {
    /// The leaf entry.
    pub pte: Pte,
    /// Physical location of the leaf entry (for updates).
    pub pte_addr: PhysAddr,
    /// Number of table levels read (always 4 here; useful for costing).
    pub levels_touched: u32,
}

impl WalkResult {
    /// Applies `update` to the walked leaf entry, writing it back only if
    /// the update changed it: an unchanged entry leaves its page-table
    /// frame shared with every snapshot.
    pub(crate) fn update(&self, pm: &mut PhysMemory, update: impl FnOnce(&mut Pte)) {
        let mut pte = self.pte;
        update(&mut pte);
        if pte != self.pte {
            pm.write_u64(self.pte_addr, pte.0);
        }
    }
}

impl PageTable {
    /// Allocates an empty root table.
    pub fn new(pm: &mut PhysMemory) -> Self {
        Self {
            root: pm.alloc_frame(),
        }
    }

    /// The root frame (what `cr3` would hold).
    pub fn root(&self) -> PhysAddr {
        self.root
    }

    fn entry_addr(table: PhysAddr, va: VirtAddr, level: u32) -> PhysAddr {
        PhysAddr(table.0 + va.pt_index(level) * 8)
    }

    /// Walks to the leaf entry for `va`, returning `None` if any level is
    /// not present.
    pub fn walk(&self, pm: &mut PhysMemory, va: VirtAddr) -> Option<WalkResult> {
        let mut table = self.root;
        let mut touched = 0;
        for level in (1..LEVELS).rev() {
            touched += 1;
            let pte = Pte(pm.read_u64(Self::entry_addr(table, va, level)));
            if !pte.present() {
                return None;
            }
            table = pte.addr();
        }
        touched += 1;
        let pte_addr = Self::entry_addr(table, va, 0);
        let pte = Pte(pm.read_u64(pte_addr));
        if !pte.present() {
            return None;
        }
        Some(WalkResult {
            pte,
            pte_addr,
            levels_touched: touched,
        })
    }

    /// The leaf table covering `va`: the three upper levels are walked
    /// once, and each absent table is created with a frame from `alloc`.
    /// `None` once `alloc` runs out; the tables created before stay in
    /// place (they are valid, just empty).
    fn leaf_table(
        &self,
        pm: &mut PhysMemory,
        va: VirtAddr,
        alloc: &mut impl FnMut(&mut PhysMemory) -> Option<PhysAddr>,
    ) -> Option<PhysAddr> {
        let mut table = self.root;
        for level in (1..LEVELS).rev() {
            let entry_addr = Self::entry_addr(table, va, level);
            let pte = Pte(pm.read_u64(entry_addr));
            table = if pte.present() {
                pte.addr()
            } else {
                let next = alloc(pm)?;
                pm.write_u64(entry_addr, Pte::table(next).0);
                next
            };
        }
        Some(table)
    }

    /// Maps `pages` consecutive pages from page-aligned `start` to fresh
    /// frames from `alloc`, with `flags`. The upper levels are walked once
    /// per leaf table, and each leaf table's run of entries goes in with
    /// one write.
    ///
    /// Frames come in the order a page-by-page loop takes them: with
    /// `data_first`, each leaf table's first page takes its data frame
    /// before the walk creates any missing table, otherwise after; later
    /// pages of the table take only their data frame. Returns `false`
    /// once `alloc` runs out, after writing the entries of the pages
    /// mapped so far.
    pub(crate) fn map_fresh(
        &self,
        pm: &mut PhysMemory,
        start: VirtAddr,
        pages: u64,
        flags: PageFlags,
        data_first: bool,
        mut alloc: impl FnMut(&mut PhysMemory) -> Option<PhysAddr>,
    ) -> bool {
        let mut run = [0u8; PAGE_SIZE as usize];
        let (mut va, mut left) = (start, pages);
        while left > 0 {
            let n = (ENTRIES - va.pt_index(0)).min(left);
            let mut head = None;
            if data_first {
                head = alloc(pm);
                if head.is_none() {
                    return false;
                }
            }
            let Some(table) = self.leaf_table(pm, va, &mut alloc) else {
                return false;
            };
            let mut mapped = 0;
            while mapped < n {
                let Some(frame) = head.take().or_else(|| alloc(pm)) else {
                    break;
                };
                let at = mapped as usize * 8;
                run[at..at + 8].copy_from_slice(&Pte::leaf(frame, flags).0.to_le_bytes());
                mapped += 1;
            }
            pm.write(Self::entry_addr(table, va, 0), &run[..mapped as usize * 8]);
            if mapped < n {
                return false;
            }
            left -= n;
            va = VirtAddr(va.0.wrapping_add(n * PAGE_SIZE));
        }
        true
    }

    /// A new table mapping each `(va, pte)` of `leaves`, sorted by `va`
    /// as [`Self::mappings`] lists them, to `pte`'s frame with its flags
    /// and protection key. Tables are allocated in the order of the
    /// leaves; the upper levels are walked once per leaf table, and each
    /// leaf table's entries go in with one write.
    pub(crate) fn with_leaves(pm: &mut PhysMemory, leaves: &[(VirtAddr, Pte)]) -> Self {
        let pt = Self::new(pm);
        let mut alloc = |pm: &mut PhysMemory| Some(pm.alloc_frame());
        let mut run = [0u8; PAGE_SIZE as usize];
        let mut rest = leaves;
        while let Some(&(va, _)) = rest.first() {
            let n = rest
                .iter()
                .position(|&(v, _)| leaf_region(v) != leaf_region(va))
                .unwrap_or(rest.len());
            let (group, tail) = rest.split_at(n);
            let table = pt
                .leaf_table(pm, va, &mut alloc)
                .expect("alloc_frame panics rather than run out");
            // The table is new, so the slots between the leaves hold
            // zeros already and get zeros.
            let first = va.pt_index(0);
            let mut len = 0;
            for &(v, pte) in group {
                let mut leaf = Pte::leaf(pte.addr(), pte.flags());
                leaf.set_pkey(pte.pkey());
                let at = (v.pt_index(0) - first) as usize * 8;
                run[len..at].fill(0);
                run[at..at + 8].copy_from_slice(&leaf.0.to_le_bytes());
                len = at + 8;
            }
            pm.write(Self::entry_addr(table, va, 0), &run[..len]);
            rest = tail;
        }
        pt
    }

    /// Maps the page containing `va` to `frame` with `flags`: the
    /// page-by-page reference that the run-building paths are tested
    /// against.
    #[cfg(test)]
    pub(crate) fn map(&self, pm: &mut PhysMemory, va: VirtAddr, frame: PhysAddr, flags: PageFlags) {
        let table = self
            .leaf_table(pm, va, &mut |pm| Some(pm.alloc_frame()))
            .expect("alloc_frame panics rather than run out");
        pm.write_u64(Self::entry_addr(table, va, 0), Pte::leaf(frame, flags).0);
    }

    /// Maps the page containing `va` to a freshly allocated frame, taken
    /// before any table the walk creates (the [`Self::map_fresh`]
    /// reference with `data_first`).
    #[cfg(test)]
    pub(crate) fn map_anon(&self, pm: &mut PhysMemory, va: VirtAddr, flags: PageFlags) -> PhysAddr {
        let frame = pm.alloc_frame();
        self.map(pm, va, frame, flags);
        frame
    }

    /// Fallible variant of [`Self::map_anon`] that takes the frame after
    /// the tables (the [`Self::map_fresh`] reference without
    /// `data_first`): `None` once the frame allocator is exhausted.
    #[cfg(test)]
    pub(crate) fn try_map_anon(
        &self,
        pm: &mut PhysMemory,
        va: VirtAddr,
        flags: PageFlags,
    ) -> Option<PhysAddr> {
        let table = self.leaf_table(pm, va, &mut PhysMemory::try_alloc_frame)?;
        let frame = pm.try_alloc_frame()?;
        pm.write_u64(Self::entry_addr(table, va, 0), Pte::leaf(frame, flags).0);
        Some(frame)
    }

    /// Removes the mapping of the page containing `va`; returns the frame
    /// that was mapped, if any.
    pub fn unmap(&self, pm: &mut PhysMemory, va: VirtAddr) -> Option<PhysAddr> {
        let res = self.walk(pm, va)?;
        pm.write_u64(res.pte_addr, 0);
        Some(res.pte.addr())
    }

    /// Applies `update` to the leaf entry of `va`; returns `false` if the
    /// page is unmapped. An update that leaves the entry as it was writes
    /// nothing.
    #[cfg(test)]
    fn update_leaf(
        &self,
        pm: &mut PhysMemory,
        va: VirtAddr,
        update: impl FnOnce(&mut Pte),
    ) -> bool {
        match self.walk(pm, va) {
            Some(res) => {
                res.update(pm, update);
                true
            }
            None => false,
        }
    }

    /// Applies `update` to the leaf entry of every mapped page among the
    /// `pages` pages from page number `vpn`, walking each table once and
    /// skipping absent subtrees; an update that leaves an entry as it was
    /// writes nothing. Returns how many of the pages are mapped. Pages
    /// past the [`VA_BITS`]-bit space the tables cover never are: they do
    /// not alias the low pages their address bits would index.
    pub(crate) fn update_range(
        &self,
        pm: &mut PhysMemory,
        vpn: u64,
        pages: u64,
        update: impl Fn(&mut Pte),
    ) -> u64 {
        let end = vpn.saturating_add(pages).min(VA_PAGES);
        if vpn >= end {
            return 0;
        }
        Self::update_table(pm, self.root, LEVELS - 1, 0, vpn..end, &update)
    }

    /// [`Self::update_range`] over the pages of `range` that `table`, a
    /// table at `level` whose first page is `base`, covers.
    fn update_table(
        pm: &mut PhysMemory,
        table: PhysAddr,
        level: u32,
        base: u64,
        range: Range<u64>,
        update: &impl Fn(&mut Pte),
    ) -> u64 {
        let span = 1u64 << (9 * level);
        let first = (range.start.max(base) - base) / span;
        let last = (range.end.min(base + span * ENTRIES) - 1 - base) / span;
        let mut mapped = 0;
        for index in first..=last {
            let at = PhysAddr(table.0 + index * 8);
            let pte = Pte(pm.read_u64(at));
            if !pte.present() {
                continue;
            }
            if level > 0 {
                let base = base + index * span;
                mapped +=
                    Self::update_table(pm, pte.addr(), level - 1, base, range.clone(), update);
                continue;
            }
            let mut new = pte;
            update(&mut new);
            if new != pte {
                pm.write_u64(at, new.0);
            }
            mapped += 1;
        }
        mapped
    }

    /// Changes the permission flags of the page containing `va`: the
    /// page-by-page reference for [`Self::update_range`].
    #[cfg(test)]
    pub(crate) fn protect(&self, pm: &mut PhysMemory, va: VirtAddr, flags: PageFlags) -> bool {
        self.update_leaf(pm, va, |pte| pte.set_flags(flags))
    }

    /// Assigns MPK protection key `key` to the page containing `va`: the
    /// page-by-page reference for [`Self::update_range`].
    #[cfg(test)]
    pub(crate) fn set_pkey(&self, pm: &mut PhysMemory, va: VirtAddr, key: u8) -> bool {
        self.update_leaf(pm, va, |pte| pte.set_pkey(key))
    }

    /// Translates `va` to a physical address, or `None` if unmapped.
    pub fn translate(&self, pm: &mut PhysMemory, va: VirtAddr) -> Option<PhysAddr> {
        let res = self.walk(pm, va)?;
        Some(PhysAddr(res.pte.addr().0 + va.page_offset()))
    }

    /// Enumerates every leaf mapping `(page_va, pte)` in the table.
    ///
    /// Used to clone an address-space view for the page-table-switching
    /// technique (each view keeps its own copy of the leaf entries).
    pub fn mappings(&self, pm: &mut PhysMemory) -> Vec<(VirtAddr, Pte)> {
        let mut out = Vec::new();
        self.collect(pm, self.root, 3, 0, &mut out);
        out
    }

    fn collect(
        &self,
        pm: &mut PhysMemory,
        table: PhysAddr,
        level: u32,
        va_prefix: u64,
        out: &mut Vec<(VirtAddr, Pte)>,
    ) {
        for index in 0..ENTRIES {
            let pte = Pte(pm.read_u64(PhysAddr(table.0 + index * 8)));
            if !pte.present() {
                continue;
            }
            let va = va_prefix | (index << (12 + 9 * level));
            if level == 0 {
                out.push((VirtAddr(va), pte));
            } else {
                self.collect(pm, pte.addr(), level - 1, va, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMemory, PageTable) {
        let mut pm = PhysMemory::new();
        let pt = PageTable::new(&mut pm);
        (pm, pt)
    }

    #[test]
    fn unmapped_address_walks_to_none() {
        let (mut pm, pt) = setup();
        assert!(pt.walk(&mut pm, VirtAddr(0x4000)).is_none());
        assert!(pt.translate(&mut pm, VirtAddr(0x4000)).is_none());
    }

    #[test]
    fn map_then_translate() {
        let (mut pm, pt) = setup();
        let frame = pm.alloc_frame();
        pt.map(&mut pm, VirtAddr(0x7fff_0000), frame, PageFlags::rw());
        let pa = pt.translate(&mut pm, VirtAddr(0x7fff_0123)).unwrap();
        assert_eq!(pa, PhysAddr(frame.0 + 0x123));
    }

    #[test]
    fn distinct_pages_do_not_alias() {
        let (mut pm, pt) = setup();
        let f1 = pt.map_anon(&mut pm, VirtAddr(0x1000), PageFlags::rw());
        let f2 = pt.map_anon(&mut pm, VirtAddr(0x2000), PageFlags::rw());
        assert_ne!(f1, f2);
        pm.write(f1, b"one");
        pm.write(f2, b"two");
        let pa1 = pt.translate(&mut pm, VirtAddr(0x1000)).unwrap();
        let mut buf = [0u8; 3];
        pm.read(pa1, &mut buf);
        assert_eq!(&buf, b"one");
    }

    #[test]
    fn high_addresses_use_distinct_pml4_slots() {
        let (mut pm, pt) = setup();
        // 64 TB (sensitive partition) and a low address.
        let hi = VirtAddr(64 << 40);
        let lo = VirtAddr(0x40_0000);
        pt.map_anon(&mut pm, hi, PageFlags::rw());
        pt.map_anon(&mut pm, lo, PageFlags::rw());
        assert!(pt.translate(&mut pm, hi).is_some());
        assert!(pt.translate(&mut pm, lo).is_some());
        assert_ne!(hi.pt_index(3), lo.pt_index(3));
    }

    #[test]
    fn unmap_removes_translation_and_returns_frame() {
        let (mut pm, pt) = setup();
        let frame = pt.map_anon(&mut pm, VirtAddr(0x9000), PageFlags::rw());
        assert_eq!(pt.unmap(&mut pm, VirtAddr(0x9000)), Some(frame));
        assert!(pt.translate(&mut pm, VirtAddr(0x9000)).is_none());
        assert_eq!(pt.unmap(&mut pm, VirtAddr(0x9000)), None);
    }

    #[test]
    fn protect_flips_writability() {
        let (mut pm, pt) = setup();
        pt.map_anon(&mut pm, VirtAddr(0x9000), PageFlags::rw());
        assert!(pt.protect(&mut pm, VirtAddr(0x9000), PageFlags::ro()));
        let res = pt.walk(&mut pm, VirtAddr(0x9000)).unwrap();
        assert!(!res.pte.flags().writable);
    }

    #[test]
    fn set_pkey_tags_only_target_page() {
        let (mut pm, pt) = setup();
        pt.map_anon(&mut pm, VirtAddr(0xa000), PageFlags::rw());
        pt.map_anon(&mut pm, VirtAddr(0xb000), PageFlags::rw());
        assert!(pt.set_pkey(&mut pm, VirtAddr(0xa000), 4));
        assert_eq!(pt.walk(&mut pm, VirtAddr(0xa000)).unwrap().pte.pkey(), 4);
        assert_eq!(pt.walk(&mut pm, VirtAddr(0xb000)).unwrap().pte.pkey(), 0);
    }

    #[test]
    fn walk_touches_four_levels() {
        let (mut pm, pt) = setup();
        pt.map_anon(&mut pm, VirtAddr(0xc000), PageFlags::rw());
        let res = pt.walk(&mut pm, VirtAddr(0xc000)).unwrap();
        assert_eq!(res.levels_touched, 4);
    }

    #[test]
    fn remap_overwrites_previous_frame() {
        let (mut pm, pt) = setup();
        let f1 = pt.map_anon(&mut pm, VirtAddr(0xd000), PageFlags::rw());
        let f2 = pm.alloc_frame();
        pt.map(&mut pm, VirtAddr(0xd000), f2, PageFlags::ro());
        let res = pt.walk(&mut pm, VirtAddr(0xd000)).unwrap();
        assert_eq!(res.pte.addr(), f2);
        assert_ne!(res.pte.addr(), f1);
        assert!(!res.pte.flags().writable);
    }
}
