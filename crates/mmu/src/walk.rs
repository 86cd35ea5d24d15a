//! Software-walked 4-level page tables stored in simulated physical memory.
//!
//! The tables live inside [`PhysMemory`] frames exactly like a real kernel's
//! do, so a page-table walk is a chain of physical reads. The walker counts
//! the levels it touches; the CPU cost model converts walks into memory
//! accesses when a TLB miss occurs.

use crate::addr::{PhysAddr, VirtAddr};
use crate::phys::PhysMemory;
use crate::pte::{PageFlags, Pte};

/// Number of paging levels (PML4 .. PT).
pub const LEVELS: u32 = 4;

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

    fn walk_or_create(&self, pm: &mut PhysMemory, va: VirtAddr) -> PhysAddr {
        let mut table = self.root;
        for level in (1..LEVELS).rev() {
            let entry_addr = Self::entry_addr(table, va, level);
            let pte = Pte(pm.read_u64(entry_addr));
            table = if pte.present() {
                pte.addr()
            } else {
                let next = pm.alloc_frame();
                pm.write_u64(entry_addr, Pte::table(next).0);
                next
            };
        }
        Self::entry_addr(table, va, 0)
    }

    /// Fallible variant of `walk_or_create`: `None` once the frame
    /// allocator is exhausted. Intermediate tables created before the
    /// exhaustion point stay in place (they are valid, just empty).
    fn try_walk_or_create(&self, pm: &mut PhysMemory, va: VirtAddr) -> Option<PhysAddr> {
        let mut table = self.root;
        for level in (1..LEVELS).rev() {
            let entry_addr = Self::entry_addr(table, va, level);
            let pte = Pte(pm.read_u64(entry_addr));
            table = if pte.present() {
                pte.addr()
            } else {
                let next = pm.try_alloc_frame()?;
                pm.write_u64(entry_addr, Pte::table(next).0);
                next
            };
        }
        Some(Self::entry_addr(table, va, 0))
    }

    /// Maps the page containing `va` to `frame` with `flags`.
    ///
    /// Remapping an already-mapped page overwrites the previous entry (the
    /// caller is the "kernel" and is trusted to flush the TLB).
    pub fn map(&self, pm: &mut PhysMemory, va: VirtAddr, frame: PhysAddr, flags: PageFlags) {
        let leaf = self.walk_or_create(pm, va);
        pm.write_u64(leaf, Pte::leaf(frame, flags).0);
    }

    /// Maps the page containing `va` to a freshly allocated zero frame.
    pub fn map_anon(&self, pm: &mut PhysMemory, va: VirtAddr, flags: PageFlags) -> PhysAddr {
        let frame = pm.alloc_frame();
        self.map(pm, va, frame, flags);
        frame
    }

    /// Fallible variant of [`Self::map_anon`]: returns `None` when the
    /// physical frame allocator is exhausted (see
    /// [`PhysMemory::set_frame_limit`]) instead of panicking, so demand
    /// paths can surface a typed out-of-memory error.
    pub fn try_map_anon(
        &self,
        pm: &mut PhysMemory,
        va: VirtAddr,
        flags: PageFlags,
    ) -> Option<PhysAddr> {
        let leaf = self.try_walk_or_create(pm, va)?;
        let frame = pm.try_alloc_frame()?;
        pm.write_u64(leaf, Pte::leaf(frame, flags).0);
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
    pub fn update_leaf(
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

    /// Changes the permission flags of the page containing `va`.
    pub fn protect(&self, pm: &mut PhysMemory, va: VirtAddr, flags: PageFlags) -> bool {
        self.update_leaf(pm, va, |pte| pte.set_flags(flags))
    }

    /// Assigns MPK protection key `key` to the page containing `va`.
    pub fn set_pkey(&self, pm: &mut PhysMemory, va: VirtAddr, key: u8) -> bool {
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
        for index in 0..512u64 {
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
