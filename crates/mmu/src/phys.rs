//! Sparse, copy-on-write simulated physical memory.
//!
//! Frames materialize on write only: the guest can map any physical frame,
//! an unmaterialized frame reads as zeros, and its backing storage appears
//! on the first write. A bump frame allocator hands out fresh frames for
//! page tables and anonymous mappings without materializing them, so the
//! stack and heap pages a program never writes cost neither memory nor
//! snapshot, restore or digest time.
//!
//! Frame numbers are dense small integers (the bump allocator starts at 1),
//! so the backing store is a table indexed by frame number rather than a
//! hash map: a `Vec` of fixed-size blocks of 64 frame slots. The
//! simulator's memory pipeline resolves a frame with one bounds-checked
//! block index and one slot index that needs no check.
//!
//! Both the blocks and the materialized frames are reference-counted and
//! shared between clones. A clone (a machine snapshot) copies one pointer
//! per block. A write copies the block holding its frame's slot (64
//! pointers) and then the frame's 4 KiB, each only while another clone
//! still shares it. Restoring and comparing skip every block both sides
//! share, so they cost one pointer compare per block plus a look at the
//! slots of the blocks either side wrote since.
//!
//! The memory carries a lineage stamp, each block marks the slots and
//! each frame the 64-byte lines written since the stamp's base (see
//! `mmu/src/stamp.rs`). A restore from the base copies back only the marked
//! lines into the frames the memory owns alone and keeps them, so the next
//! write to such a frame lands in place; a compare between two memories of
//! one lineage reads only the marked lines.

use std::rc::Rc;

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::diff::{same, Divergence, Walk};
use crate::digest::Digest;
use crate::stamp::{marked, unit_mut, Stamp, Unit};

/// Bytes per marked line of a frame: a frame has 64.
const LINE: usize = PAGE_SIZE as usize / 64;

/// One materialized 4 KiB frame, shared by every clone that has not
/// written to it since the clone was taken.
#[derive(Debug, Clone)]
struct Frame {
    /// The lines written since the memory's stamp base, one bit per
    /// [`LINE`] bytes. Memo state, never digested.
    lines: u64,
    bytes: [u8; PAGE_SIZE as usize],
}

impl Unit for Frame {
    fn unmark(&mut self) {
        self.lines = 0;
    }
}

/// Frame slots per block of the frame table.
const BLOCK: usize = 64;

/// The slots of [`BLOCK`] consecutive frames, shared by every clone that
/// has not written to any of those frames since the clone was taken.
#[derive(Debug, Clone)]
struct Block {
    /// The slots changed since the memory's stamp base (a frame written,
    /// materialized or dropped), one bit per slot. Memo state.
    slots: u64,
    frames: [Option<Rc<Frame>>; BLOCK],
}

impl Unit for Block {
    fn unmark(&mut self) {
        self.slots = 0;
    }
}

const EMPTY_BLOCK: Block = Block {
    slots: 0,
    frames: [const { None }; BLOCK],
};

/// The marks of the lines that `len > 0` bytes at frame offset `off` touch.
#[inline(always)]
fn lines(off: usize, len: usize) -> u64 {
    (u64::MAX >> (63 - (off + len - 1) / LINE)) & (u64::MAX << (off / LINE))
}

/// The block index and the slot within it of frame `pfn`.
#[inline(always)]
fn split(pfn: u64) -> (usize, usize) {
    ((pfn / BLOCK as u64) as usize, (pfn % BLOCK as u64) as usize)
}

/// Simulated physical memory: 4 KiB frames, materialized on first write,
/// indexed by frame number. Cloning is cheap: clones share every block of
/// frame slots, and every frame, until one side writes to it.
#[derive(Debug, Default, Clone)]
pub struct PhysMemory {
    blocks: Vec<Rc<Block>>,
    materialized: usize,
    next_free_pfn: u64,
    frame_limit: Option<u64>,
    /// Shared with every clone holding the same frame contents, cleared by
    /// every frame write (see [`crate::stamp`]). Memo state, excluded from
    /// the digest and from `compare`'s verdict.
    stamp: Stamp,
}

impl PhysMemory {
    /// Creates empty physical memory whose frame allocator starts at
    /// frame 1 (frame 0 is reserved so a zero PTE can never look mapped).
    pub fn new() -> Self {
        Self {
            blocks: Vec::new(),
            materialized: 0,
            next_free_pfn: 1,
            frame_limit: None,
            stamp: Stamp::default(),
        }
    }

    /// Rewinds `self` to the state of `src`, which may be any memory
    /// (typically an earlier or later clone of `self`).
    ///
    /// A memory that shares `src`'s stamp holds its frame contents and
    /// copies only the allocator state. One that descends from `src` (see
    /// `mmu/src/stamp.rs`) rewinds each block it owns alone slot by marked
    /// slot, copying back the marked lines of each frame it owns alone and
    /// keeping the frame, so the next write to it needs no copy. Every
    /// other block or frame not already shared with `src` is re-pointed to
    /// `src`'s, so a restore from another lineage costs one pointer compare
    /// per block of 64 frames and copies nothing. The rewound memory takes
    /// `src`'s stamp.
    pub fn restore_from(&mut self, src: &PhysMemory) {
        if !self.stamp.matches(&src.stamp) {
            let lineage = self.stamp.descends_from(&src.stamp);
            self.blocks.truncate(src.blocks.len());
            for (dst, s) in self.blocks.iter_mut().zip(&src.blocks) {
                if Rc::ptr_eq(dst, s) {
                    continue;
                }
                match Rc::get_mut(dst) {
                    Some(block) if lineage => copy_back(block, s),
                    _ => dst.clone_from(s),
                }
            }
            let len = self.blocks.len();
            self.blocks.extend_from_slice(&src.blocks[len..]);
            if lineage {
                debug_assert_eq!(self.compare_frames(src, false), Ok(()));
            }
            self.stamp.clone_from(&src.stamp);
        }
        self.materialized = src.materialized;
        self.next_free_pfn = src.next_free_pfn;
        self.frame_limit = src.frame_limit;
    }

    /// Caps the bump allocator at `limit` frames total (counting the
    /// reserved frame 0). `None` removes the cap. Used to model physical
    /// memory exhaustion: once the cap is hit, [`Self::try_alloc_frame`]
    /// returns `None` and mapping paths surface a typed out-of-memory
    /// error instead of allocating forever.
    pub fn set_frame_limit(&mut self, limit: Option<u64>) {
        self.frame_limit = limit;
    }

    /// Allocates a fresh, zeroed frame and returns its base address.
    ///
    /// # Panics
    ///
    /// Panics if a frame limit is set and exhausted; setup-time callers
    /// (page-table construction for trusted mappings) are expected to run
    /// before any limit is imposed. Fallible callers use
    /// [`Self::try_alloc_frame`].
    pub fn alloc_frame(&mut self) -> PhysAddr {
        match self.try_alloc_frame() {
            Some(pa) => pa,
            None => panic!("physical frame allocator exhausted (limit hit at setup time)"),
        }
    }

    /// Allocates a fresh, zeroed frame, or `None` once the configured
    /// frame limit is exhausted.
    pub fn try_alloc_frame(&mut self) -> Option<PhysAddr> {
        if let Some(limit) = self.frame_limit {
            if self.next_free_pfn >= limit {
                return None;
            }
        }
        let pfn = self.next_free_pfn;
        self.next_free_pfn += 1;
        // A fresh frame reads as zeros without being materialized. If a
        // stray write past the cursor already materialized it, drop the
        // contents; a clone taken before still holds them.
        let (block, slot) = split(pfn);
        if let Some(block) = self.blocks.get_mut(block) {
            if block.frames[slot].is_some() {
                self.stamp.clear();
                let block = unit_mut(block);
                block.slots |= 1 << slot;
                block.frames[slot] = None;
                self.materialized -= 1;
            }
        }
        Some(PhysAddr(pfn << 12))
    }

    /// Number of frames currently materialized.
    pub fn frame_count(&self) -> usize {
        self.materialized
    }

    /// The allocator cursor: the frame the next allocation hands out.
    #[cfg(test)]
    pub(crate) fn next_free_pfn(&self) -> u64 {
        self.next_free_pfn
    }

    /// The frame `pfn` for reading, or `None` while it is unmaterialized.
    #[inline(always)]
    fn frame(&self, pfn: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        let (block, slot) = split(pfn);
        Some(&self.blocks.get(block)?.frames[slot].as_deref()?.bytes)
    }

    /// The frame `pfn` for writing `lines` (see [`lines`]): materialized
    /// (zero-filled) if absent, and copied first, with the block holding
    /// its slot, if a clone still shares either. The slot and the lines
    /// are marked and the stamp cleared before the caller writes.
    #[inline]
    fn frame_mut(&mut self, pfn: u64, lines: u64) -> &mut [u8; PAGE_SIZE as usize] {
        let (block, slot) = split(pfn);
        if block >= self.blocks.len() {
            self.blocks.resize_with(block + 1, || Rc::new(EMPTY_BLOCK));
        }
        self.stamp.clear();
        let block = unit_mut(&mut self.blocks[block]);
        block.slots |= 1 << slot;
        let frame = &mut block.frames[slot];
        if frame.is_none() {
            self.materialized += 1;
        }
        let frame = unit_mut(frame.get_or_insert_with(materialize));
        frame.lines |= lines;
        &mut frame.bytes
    }

    /// Whether `self` and `other` hold frame `pfn` as one shared frame.
    #[cfg(test)]
    pub(crate) fn shares_frame(&self, other: &PhysMemory, pfn: u64) -> bool {
        match (self.frame(pfn), other.frame(pfn)) {
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            _ => false,
        }
    }

    /// Every frame slot with its frame number, in frame order.
    fn slots(&self) -> impl Iterator<Item = (usize, Option<&[u8; PAGE_SIZE as usize]>)> {
        self.blocks
            .iter()
            .flat_map(|block| block.frames.iter())
            .map(|f| f.as_deref().map(|f| &f.bytes))
            .enumerate()
    }

    /// Feeds the memory's semantic state into `d`: every materialized
    /// frame with nonzero content (as `(pfn, bytes)` in frame order),
    /// the count of such frames, the allocator cursor, and the frame
    /// limit. A frame that is materialized but all-zero digests the same
    /// as an unmaterialized one: materialization and frame sharing are
    /// implementation artifacts, not guest-visible state.
    pub fn digest_into(&self, d: &mut Digest) {
        let Ok(()) = self.walk(self, d);
    }

    /// The field list behind [`Self::digest_into`] and a space's `diff`:
    /// frame contents (an absent frame equals an all-zero one, and a block
    /// or frame both sides share is equal unread), the allocator cursor
    /// and the frame limit. A frame difference names the frame and the
    /// 8-byte word holding the first differing byte.
    ///
    /// Two memories of one lineage (see [`crate::stamp`]) differ only in
    /// what either one marked, so of a block they do not share only the
    /// marked slots are read, and of two frames there only the marked
    /// lines; under `debug_assertions` the verdict is checked against
    /// reading every slot.
    pub(crate) fn walk<W: Walk>(&self, other: &PhysMemory, w: &mut W) -> Result<(), W::Stop> {
        w.part(
            |d| {
                let mut nonzero = 0u64;
                for (pfn, frame) in self.slots() {
                    if let Some(frame) = frame {
                        if !is_zero(frame) {
                            nonzero += 1;
                            d.write_u64(pfn as u64);
                            d.write_bytes(&frame[..]);
                        }
                    }
                }
                d.write_u64(nonzero);
            },
            || {
                if !self.stamp.same_lineage(&other.stamp) {
                    return self.compare_frames(other, false);
                }
                let verdict = self.compare_frames(other, true);
                debug_assert_eq!(verdict, self.compare_frames(other, false));
                verdict
            },
        )?;
        w.word("next_free_pfn", self.next_free_pfn, other.next_free_pfn)?;
        w.opt("frame_limit", self.frame_limit, other.frame_limit)
    }

    /// The frame part of [`Self::walk`]'s comparison: over the marked slots and
    /// lines when `lineage` holds, over everything otherwise.
    fn compare_frames(&self, other: &PhysMemory, lineage: bool) -> Result<(), Divergence> {
        for (i, (a, b)) in self.blocks.iter().zip(&other.blocks).enumerate() {
            if Rc::ptr_eq(a, b) {
                continue;
            }
            let slots = if lineage { a.slots | b.slots } else { u64::MAX };
            for slot in marked(slots) {
                let (fa, fb) = (&a.frames[slot], &b.frames[slot]);
                match (fa, fb) {
                    (Some(fa), Some(fb)) if Rc::ptr_eq(fa, fb) => {}
                    (Some(fa), Some(fb)) if lineage => {
                        compare_lines(i * BLOCK + slot, fa, fb, fa.lines | fb.lines)?
                    }
                    (None, None) => {}
                    _ => compare_frame(
                        i * BLOCK + slot,
                        fa.as_deref().map(|f| &f.bytes),
                        fb.as_deref().map(|f| &f.bytes),
                    )?,
                }
            }
        }
        let common = self.blocks.len().min(other.blocks.len()) * BLOCK;
        for (pfn, f) in self.slots().skip(common) {
            compare_frame(pfn, f, None)?;
        }
        for (pfn, f) in other.slots().skip(common) {
            compare_frame(pfn, None, f)?;
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr`, crossing frames as
    /// needed. Unmaterialized frames read as zeros and stay unmaterialized.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let pos = addr.0 + done as u64;
            let off = (pos & (PAGE_SIZE - 1)) as usize;
            let in_frame = (PAGE_SIZE as usize - off).min(buf.len() - done);
            let dst = &mut buf[done..done + in_frame];
            match self.frame(pos >> 12) {
                Some(frame) => dst.copy_from_slice(&frame[off..off + in_frame]),
                None => dst.fill(0),
            }
            done += in_frame;
        }
    }

    /// Writes `buf` starting at `addr`, crossing frames as needed.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let pos = addr.0 + done as u64;
            let off = (pos & (PAGE_SIZE - 1)) as usize;
            let in_frame = (PAGE_SIZE as usize - off).min(buf.len() - done);
            let frame = self.frame_mut(pos >> 12, lines(off, in_frame));
            frame[off..off + in_frame].copy_from_slice(&buf[done..done + in_frame]);
            done += in_frame;
        }
    }

    /// Reads a little-endian u64 at `addr`. Like [`Self::read`], it never
    /// materializes a frame.
    #[inline(always)]
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        if addr.frame_offset() <= PAGE_SIZE - 8 {
            match self.frame(addr.pfn()) {
                Some(frame) => {
                    let off = addr.frame_offset() as usize;
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(&frame[off..off + 8]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            }
        } else {
            let mut buf = [0u8; 8];
            self.read(addr, &mut buf);
            u64::from_le_bytes(buf)
        }
    }

    /// Writes a little-endian u64 at `addr`.
    #[inline(always)]
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        if addr.frame_offset() <= PAGE_SIZE - 8 {
            let off = addr.frame_offset() as usize;
            let frame = self.frame_mut(addr.pfn(), lines(off, 8));
            frame[off..off + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            self.write(addr, &value.to_le_bytes());
        }
    }
}

/// A fresh all-zero frame, fully marked: it may fill a slot whose
/// contents the allocator dropped after the lineage began. Out of line,
/// like every copy (see [`unit_mut`]).
#[cold]
#[inline(never)]
fn materialize() -> Rc<Frame> {
    Rc::new(Frame {
        lines: u64::MAX,
        bytes: [0; PAGE_SIZE as usize],
    })
}

/// Rewinds `block`, owned alone by a memory that descends from `src`'s
/// (see [`crate::stamp`]), to `src`: each marked slot gets the marked
/// lines of `src`'s frame copied back into a frame it owns alone, or is
/// re-pointed to `src`'s frame.
fn copy_back(block: &mut Block, src: &Block) {
    for slot in marked(block.slots) {
        let (dst, s) = (&mut block.frames[slot], &src.frames[slot]);
        match (dst.as_mut().and_then(Rc::get_mut), s) {
            (Some(frame), Some(s)) => {
                for line in marked(frame.lines) {
                    let at = line * LINE..(line + 1) * LINE;
                    frame.bytes[at.clone()].copy_from_slice(&s.bytes[at]);
                }
                frame.lines = 0;
            }
            _ => dst.clone_from(s),
        }
    }
    block.slots = 0;
}

/// Compares the `lines` of frame `pfn` of two memories, in ascending
/// order, naming the 8-byte word that holds the first differing byte.
fn compare_lines(pfn: usize, a: &Frame, b: &Frame, lines: u64) -> Result<(), Divergence> {
    for line in marked(lines) {
        let at = line * LINE..(line + 1) * LINE;
        if a.bytes[at.clone()] != b.bytes[at.clone()] {
            return compare_frame(pfn, Some(&a.bytes), Some(&b.bytes));
        }
    }
    Ok(())
}

/// Compares frame `pfn` of two memories, an absent frame as all zeros,
/// naming the 8-byte word that holds the first differing byte.
fn compare_frame(
    pfn: usize,
    a: Option<&[u8; PAGE_SIZE as usize]>,
    b: Option<&[u8; PAGE_SIZE as usize]>,
) -> Result<(), Divergence> {
    static ZERO: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];
    let (a, b) = (a.unwrap_or(&ZERO), b.unwrap_or(&ZERO));
    if a == b {
        return Ok(());
    }
    let at = a.iter().zip(b).position(|(x, y)| x != y).unwrap_or(0) & !7;
    let word = |f: &[u8; PAGE_SIZE as usize]| {
        u64::from_le_bytes(f[at..at + 8].try_into().expect("8-byte word"))
    };
    same(format_args!("frame {pfn:#x} +{at:#x}"), word(a), word(b))
}

/// Whether `frame` holds only zero bytes. OR-folding fixed 64-byte
/// chunks vectorizes, where a byte-wise `any` scan does not.
fn is_zero(frame: &[u8; PAGE_SIZE as usize]) -> bool {
    frame
        .chunks_exact(64)
        .all(|chunk| chunk.iter().fold(0u8, |acc, &b| acc | b) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{Compare, Mutation};

    #[test]
    fn alloc_returns_distinct_zeroed_frames() {
        let mut pm = PhysMemory::new();
        let a = pm.alloc_frame();
        let b = pm.alloc_frame();
        assert_ne!(a, b);
        assert_eq!(a.frame_offset(), 0);
        let mut buf = [1u8; 16];
        pm.read(a, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn frame_zero_is_never_allocated() {
        let mut pm = PhysMemory::new();
        for _ in 0..64 {
            assert_ne!(pm.alloc_frame().pfn(), 0);
        }
    }

    #[test]
    fn read_write_roundtrip_within_frame() {
        let mut pm = PhysMemory::new();
        let f = pm.alloc_frame();
        pm.write(PhysAddr(f.0 + 100), b"memsentry");
        let mut buf = [0u8; 9];
        pm.read(PhysAddr(f.0 + 100), &mut buf);
        assert_eq!(&buf, b"memsentry");
    }

    #[test]
    fn read_write_cross_frame_boundary() {
        let mut pm = PhysMemory::new();
        let base = PhysAddr((42 << 12) + PAGE_SIZE - 4);
        pm.write(base, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut buf = [0u8; 8];
        pm.read(base, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn u64_accessors_are_little_endian() {
        let mut pm = PhysMemory::new();
        let f = pm.alloc_frame();
        pm.write_u64(f, 0x0102_0304_0506_0708);
        let mut buf = [0u8; 8];
        pm.read(f, &mut buf);
        assert_eq!(buf, [8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(pm.read_u64(f), 0x0102_0304_0506_0708);
    }

    #[test]
    fn u64_accessors_cross_frame_boundary() {
        let mut pm = PhysMemory::new();
        let base = PhysAddr((7 << 12) + PAGE_SIZE - 3);
        pm.write_u64(base, 0x0102_0304_0506_0708);
        assert_eq!(pm.read_u64(base), 0x0102_0304_0506_0708);
        let mut buf = [0u8; 8];
        pm.read(base, &mut buf);
        assert_eq!(buf, [8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn frame_limit_bounds_the_allocator() {
        let mut pm = PhysMemory::new();
        pm.set_frame_limit(Some(3));
        // Frames 1 and 2 fit under the cap of 3 (frame 0 is reserved).
        assert!(pm.try_alloc_frame().is_some());
        assert!(pm.try_alloc_frame().is_some());
        assert!(pm.try_alloc_frame().is_none());
        // Lifting the cap resumes allocation.
        pm.set_frame_limit(None);
        assert!(pm.try_alloc_frame().is_some());
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn infallible_alloc_panics_at_the_limit() {
        let mut pm = PhysMemory::new();
        pm.set_frame_limit(Some(1));
        pm.alloc_frame();
    }

    #[test]
    fn restore_rewinds_exactly_to_the_source() {
        let mut pm = PhysMemory::new();
        let a = pm.alloc_frame();
        let b = pm.alloc_frame();
        pm.write(a, b"before");
        let src = pm.clone();

        // Mutate existing frames, materialize a new one, and move the
        // allocator cursor; the restore must revert all of it.
        pm.write(a, b"mutated");
        pm.write(b, &[9u8; 64]);
        pm.write(PhysAddr(77 << 12), &[1]);
        pm.alloc_frame();
        pm.restore_from(&src);

        let mut buf = [0u8; 6];
        pm.read(a, &mut buf);
        assert_eq!(&buf, b"before");
        let mut buf = [0u8; 64];
        pm.read(b, &mut buf);
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(pm.next_free_pfn, src.next_free_pfn);
        // The written frame 77 is de-materialized again.
        assert_eq!(pm.frame_count(), src.frame_count());
        assert_eq!(digest(&pm), digest(&src));
    }

    #[test]
    fn repeated_restores_keep_working() {
        let mut pm = PhysMemory::new();
        let a = pm.alloc_frame();
        pm.write_u64(a, 1);
        let src = pm.clone();
        for round in 2..6u64 {
            pm.write_u64(a, round);
            pm.write(PhysAddr(a.0 + 512), &[round as u8; 16]);
            pm.restore_from(&src);
            assert_eq!(pm.read_u64(a), 1, "round {round}");
            assert_eq!(src.read_u64(a), 1, "round {round}: source untouched");
        }
    }

    #[test]
    fn restore_works_from_any_source() {
        // Two diverged copies, each with frames the other lacks: rewinding
        // back and forth between them, in either direction, lands on
        // exactly the source's contents.
        let mut base = PhysMemory::new();
        let shared = base.alloc_frame();
        base.write(shared, b"shared");
        let mut early = base.clone();
        early.write(PhysAddr(3 << 12), b"early only");
        let mut late = base.clone();
        late.write(shared, b"SHARED");
        for _ in 0..5 {
            late.alloc_frame();
        }
        late.write(PhysAddr(40 << 12), b"late only");

        let mut pm = base.clone();
        for src in [&late, &early, &late, &base, &early] {
            pm.restore_from(src);
            assert_eq!(digest(&pm), digest(src));
            assert_eq!(pm.frame_count(), src.frame_count());
            assert_eq!(pm.next_free_pfn, src.next_free_pfn);
            for pfn in [1u64, 3, 40] {
                assert_eq!(
                    pm.read_u64(PhysAddr(pfn << 12)),
                    src.read_u64(PhysAddr(pfn << 12))
                );
            }
        }
        let mut buf = [0u8; 6];
        base.read(shared, &mut buf);
        assert_eq!(&buf, b"shared", "sources are never written through");
    }

    #[test]
    fn clones_share_untouched_frames() {
        let mut pm = PhysMemory::new();
        for pfn in 1..5u64 {
            pm.write_u64(PhysAddr(pfn << 12), pfn);
        }
        let snap = pm.clone();
        assert!((1..5).all(|pfn| pm.shares_frame(&snap, pfn)));

        // A write copies only the frame it touches; reads copy nothing.
        pm.write_u64(PhysAddr((2 << 12) + 8), 99);
        pm.read_u64(PhysAddr(3 << 12));
        assert!(!pm.shares_frame(&snap, 2));
        assert!([1, 3, 4].iter().all(|&pfn| pm.shares_frame(&snap, pfn)));
        assert_eq!(snap.read_u64(PhysAddr((2 << 12) + 8)), 0);
        assert_eq!(snap.read_u64(PhysAddr(2 << 12)), 2);
        assert_eq!(pm.read_u64(PhysAddr(2 << 12)), 2, "copy keeps the rest");

        // A restore from the lineage copies the written line back into
        // the memory's own copy and keeps it; the rest stay shared.
        pm.restore_from(&snap);
        assert_eq!(pm.read_u64(PhysAddr((2 << 12) + 8)), 0);
        assert!(!pm.shares_frame(&snap, 2));
        assert!([1, 3, 4].iter().all(|&pfn| pm.shares_frame(&snap, pfn)));
        assert_eq!(digest(&pm), digest(&snap));
    }

    /// The address of frame `pfn`'s bytes, if it is materialized.
    fn frame_ptr(pm: &PhysMemory, pfn: u64) -> Option<*const u8> {
        pm.frame(pfn).map(|f| f.as_ptr())
    }

    /// A copy of `pm` outside every lineage, taken without stamping `pm`:
    /// compared with anything, it takes the compare of every slot.
    fn apart(pm: &PhysMemory) -> PhysMemory {
        PhysMemory {
            blocks: pm.blocks.clone(),
            materialized: pm.materialized,
            next_free_pfn: pm.next_free_pfn,
            frame_limit: pm.frame_limit,
            stamp: Stamp::default(),
        }
    }

    #[test]
    fn a_restore_from_the_lineage_copies_back_the_marked_lines() {
        let mut pm = spread();
        let snap = pm.clone();
        // Line 0 of frame 65, line 1 of frame 66 and a new frame 67.
        pm.write_u64(PhysAddr((65 << 12) + 8), 99);
        pm.write(PhysAddr((66 << 12) + 120), &[7; 16]);
        pm.write_u64(PhysAddr(67 << 12), 3);
        let block = pm.blocks[1].slots;
        assert_eq!(block, 0b111 << 1, "slots 1, 2 and 3 of block 1");
        let own = [65, 66].map(|pfn| frame_ptr(&pm, pfn));
        pm.restore_from(&snap);
        assert_eq!(digest(&pm), digest(&snap));
        assert_eq!(verdict(&apart(&pm), &snap), None);
        assert_eq!([65, 66].map(|pfn| frame_ptr(&pm, pfn)), own, "kept");
        assert_eq!(frame_ptr(&pm, 67), None, "the new frame is dropped");
        assert_eq!(pm.frame_count(), snap.frame_count());
        // The next write to a kept frame lands in place, with no copy.
        pm.write_u64(PhysAddr((65 << 12) + 0xff8), 5);
        assert_eq!(frame_ptr(&pm, 65), own[0]);
        pm.restore_from(&snap);
        assert_eq!(pm.read_u64(PhysAddr((65 << 12) + 0xff8)), 0);
        assert_eq!(digest(&pm), digest(&snap));
        // A source of another lineage re-points every differing block.
        let mut other = apart(&snap);
        other.write_u64(PhysAddr(200 << 12), 1);
        let other = other.clone();
        pm.write_u64(PhysAddr(65 << 12), 6);
        pm.restore_from(&other);
        assert_eq!(shared_blocks(&pm, &other), [Some(true); 4]);
        assert_eq!(digest(&pm), digest(&other));
    }

    #[test]
    fn copy_back_needs_the_source_to_be_the_base() {
        // `pm` descends from `snap` and marks only frame 65; `far`
        // differs from `snap` in frame 66, which `pm` never marked.
        let mut pm = spread();
        let snap = pm.clone();
        let mut far = apart(&snap);
        far.write_u64(PhysAddr(66 << 12), 0x66);
        let far = far.clone();
        pm.write_u64(PhysAddr(65 << 12), 1);
        pm.restore_from(&far);
        assert_eq!(digest(&pm), digest(&far));
        assert_eq!(pm.read_u64(PhysAddr(66 << 12)), 0x66);
    }

    #[test]
    fn a_frame_materialized_in_the_lineage_is_fully_marked() {
        // Frame 2 holds stray data at the checkpoint; allocating it drops
        // the data, and a later write to another line brings the frame
        // back zeroed. The restore must bring back every line.
        let mut pm = PhysMemory::new();
        pm.alloc_frame();
        pm.write(PhysAddr(2 << 12), b"stray");
        let src = pm.clone();
        assert_eq!(pm.alloc_frame(), PhysAddr(2 << 12));
        pm.write_u64(PhysAddr((2 << 12) + 0x800), 9);
        pm.restore_from(&src);
        assert_eq!(
            pm.read_u64(PhysAddr(2 << 12)),
            src.read_u64(PhysAddr(2 << 12))
        );
        assert_eq!(digest(&pm), digest(&src));
    }

    #[test]
    fn memories_of_one_lineage_compare_their_marks_and_others_compare_all() {
        let snap = spread().clone();
        let (mut a, mut b) = (snap.clone(), snap.clone());
        a.write_u64(PhysAddr((65 << 12) + 0x40), 1);
        b.write_u64(PhysAddr((66 << 12) + 0x80), 2);
        assert!(a.stamp.same_lineage(&b.stamp));
        assert_eq!(verdict(&a, &b).unwrap().component, "frame 0x41 +0x40");
        assert_eq!(verdict(&b, &a).unwrap().component, "frame 0x41 +0x40");
        // A line written on a memory built apart, unmarked: only the
        // compare of every line sees it.
        let mut c = apart(&snap);
        let frame = unit_mut(Rc::make_mut(&mut c.blocks[3]).frames[8].as_mut().unwrap());
        frame.bytes[0x100] = 1;
        assert_eq!(verdict(&c, &snap).unwrap().component, "frame 0xc8 +0x100");
    }

    #[test]
    fn lines_marks_every_line_a_write_touches() {
        assert_eq!(lines(0, 8), 1);
        assert_eq!(lines(56, 8), 1);
        assert_eq!(lines(60, 8), 0b11, "a word across two lines");
        assert_eq!(lines(0xfc0, 64), 1 << 63);
        assert_eq!(lines(0, PAGE_SIZE as usize), u64::MAX);
        assert_eq!(lines(64, 1), 0b10);
    }

    /// Which blocks of their frame tables `a` and `b` share, by index
    /// (`None` where only one side has the block).
    fn shared_blocks(a: &PhysMemory, b: &PhysMemory) -> Vec<Option<bool>> {
        (0..a.blocks.len().max(b.blocks.len()))
            .map(|i| Some(Rc::ptr_eq(a.blocks.get(i)?, b.blocks.get(i)?)))
            .collect()
    }

    /// A memory with frames materialized in blocks 0, 1 and 3 (block 2
    /// holds none): frames 1 and 2, 65 and 66, 200.
    fn spread() -> PhysMemory {
        let mut pm = PhysMemory::new();
        for pfn in [1u64, 2, 65, 66, 200] {
            pm.write_u64(PhysAddr(pfn << 12), pfn);
        }
        pm
    }

    #[test]
    fn clones_share_untouched_blocks() {
        let pm = spread();
        let snap = pm.clone();
        assert_eq!(shared_blocks(&pm, &snap), [Some(true); 4]);
        // Reads, of present and absent frames, copy nothing.
        for pfn in [1u64, 3, 66, 130, 200, 999] {
            pm.read_u64(PhysAddr(pfn << 12));
        }
        let mut buf = [0u8; 16];
        pm.read(PhysAddr((64 << 12) - 8), &mut buf);
        assert_eq!(shared_blocks(&pm, &snap), [Some(true); 4]);
        assert_eq!(pm.frame_count(), 5);
    }

    #[test]
    fn one_write_copies_one_block_and_one_frame() {
        let mut pm = spread();
        let snap = pm.clone();
        pm.write_u64(PhysAddr((65 << 12) + 8), 99);
        assert_eq!(
            shared_blocks(&pm, &snap),
            [Some(true), Some(false), Some(true), Some(true)]
        );
        assert!(!pm.shares_frame(&snap, 65));
        assert!([1, 2, 66, 200]
            .iter()
            .all(|&pfn| pm.shares_frame(&snap, pfn)));
        assert_eq!(pm.frame_count(), 5);
        // A second write into the now unshared block copies neither it
        // nor any frame again, and materializes only its own frame.
        let block = Rc::as_ptr(&pm.blocks[1]);
        pm.write_u64(PhysAddr(70 << 12), 7);
        assert_eq!(Rc::as_ptr(&pm.blocks[1]), block);
        assert!(pm.shares_frame(&snap, 66));
        assert_eq!(pm.frame_count(), 6);
        // The snapshot sees none of it.
        assert_eq!(snap.read_u64(PhysAddr((65 << 12) + 8)), 0);
        assert_eq!(snap.read_u64(PhysAddr(70 << 12)), 0);
        assert_eq!(snap.frame_count(), 5);
    }

    #[test]
    fn restore_re_points_exactly_the_blocks_that_differ() {
        let small = spread();
        let mut big = small.clone();
        big.write_u64(PhysAddr(1 << 12), 11);
        big.write_u64(PhysAddr(300 << 12), 3);
        assert_eq!((small.blocks.len(), big.blocks.len()), (4, 5));

        // Towards a source with more blocks: the extra block is adopted
        // shared, the written block re-pointed, the rest left alone.
        let mut pm = small.clone();
        pm.restore_from(&big);
        assert_eq!(shared_blocks(&pm, &big), [Some(true); 5]);
        assert_eq!(pm.read_u64(PhysAddr(1 << 12)), 11);
        assert_eq!(pm.read_u64(PhysAddr(300 << 12)), 3);
        assert_eq!(pm.frame_count(), big.frame_count());
        assert_eq!(digest(&pm), digest(&big));

        // Towards a source with fewer blocks: the extra block goes.
        pm.restore_from(&small);
        assert_eq!(shared_blocks(&pm, &small), [Some(true); 4]);
        assert_eq!(pm.read_u64(PhysAddr(1 << 12)), 1);
        assert_eq!(pm.read_u64(PhysAddr(300 << 12)), 0);
        assert_eq!(pm.frame_count(), small.frame_count());
        assert_eq!(digest(&pm), digest(&small));

        // Blocks the source shares are kept as they are; the copies two
        // writes made are released.
        pm.write_u64(PhysAddr(65 << 12), 10);
        pm.write_u64(PhysAddr(200 << 12), 20);
        let copies = [1, 3].map(|i| Rc::downgrade(&pm.blocks[i]));
        let kept = [0, 2].map(|i| Rc::as_ptr(&pm.blocks[i]));
        pm.restore_from(&small);
        assert!(copies.iter().all(|c| c.upgrade().is_none()));
        assert_eq!([0, 2].map(|i| Rc::as_ptr(&pm.blocks[i])), kept);
        assert_eq!(shared_blocks(&pm, &small), [Some(true); 4]);
        assert_eq!(pm.read_u64(PhysAddr(65 << 12)), 65);
        assert_eq!(pm.read_u64(PhysAddr(200 << 12)), 200);
        assert_eq!(digest(&pm), digest(&small));
    }

    fn digest(pm: &PhysMemory) -> u64 {
        let mut d = Digest::new();
        pm.digest_into(&mut d);
        d.finish()
    }

    #[test]
    fn allocation_does_not_materialize() {
        let mut pm = PhysMemory::new();
        for _ in 0..8 {
            pm.alloc_frame();
        }
        assert_eq!(pm.frame_count(), 0);
    }

    #[test]
    fn reads_return_zeros_without_materializing() {
        let mut pm = PhysMemory::new();
        let f = pm.alloc_frame();
        let mut buf = [1u8; 16];
        pm.read(f, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(pm.read_u64(PhysAddr(f.0 + 8)), 0);
        // Both halves of a frame-crossing read come from unmaterialized
        // frames, one of them never allocated.
        let cross = PhysAddr(f.0 + PAGE_SIZE - 3);
        assert_eq!(pm.read_u64(cross), 0);
        let mut buf = [1u8; 8];
        pm.read(cross, &mut buf);
        assert_eq!(buf, [0u8; 8]);
        assert_eq!(pm.read_u64(PhysAddr(99 << 12)), 0);
        assert_eq!(pm.frame_count(), 0);
    }

    #[test]
    fn crossing_read_mixes_data_and_zeros() {
        let mut pm = PhysMemory::new();
        pm.write(PhysAddr(8 << 12), &[5, 6]);
        let mut buf = [1u8; 4];
        pm.read(PhysAddr((8 << 12) - 2), &mut buf);
        assert_eq!(buf, [0, 0, 5, 6]);
        assert_eq!(pm.read_u64(PhysAddr((8 << 12) - 2)), 0x0605_0000);
        assert_eq!(pm.frame_count(), 1, "frame 7 stays unmaterialized");
    }

    #[test]
    fn writes_materialize() {
        let mut pm = PhysMemory::new();
        let a = pm.alloc_frame();
        pm.write(a, &[1]);
        assert_eq!(pm.frame_count(), 1);
        pm.write_u64(PhysAddr(a.0 + 64), 2);
        assert_eq!(pm.frame_count(), 1);
        // A stray write far past the allocator cursor materializes only
        // that frame; a frame-crossing write materializes both.
        pm.write(PhysAddr(99 << 12), &[1]);
        assert_eq!(pm.frame_count(), 2);
        pm.write_u64(PhysAddr((20 << 12) - 4), u64::MAX);
        assert_eq!(pm.frame_count(), 4);
    }

    #[test]
    fn allocating_a_stray_written_frame_zeroes_it() {
        let mut pm = PhysMemory::new();
        pm.write(PhysAddr(1 << 12), &[7; 32]);
        let f = pm.alloc_frame();
        assert_eq!(f.pfn(), 1);
        assert_eq!(pm.read_u64(f), 0);
        assert_eq!(pm.frame_count(), 0);
        let mut allocated = PhysMemory::new();
        allocated.alloc_frame();
        assert_eq!(digest(&pm), digest(&allocated));
    }

    #[test]
    fn digest_skips_exactly_the_all_zero_frames() {
        let mut pm = PhysMemory::new();
        let empty = digest(&pm);
        pm.write(PhysAddr(5 << 12), &[0; PAGE_SIZE as usize]);
        assert_eq!(pm.frame_count(), 1);
        assert_eq!(digest(&pm), empty, "a written all-zero frame is absent");
        let mut seen = vec![empty];
        for off in [0, 1, 63, 64, 2047, PAGE_SIZE - 1] {
            let at = PhysAddr((5 << 12) + off);
            pm.write(at, &[1]);
            seen.push(digest(&pm));
            pm.write(at, &[0]);
            assert_eq!(digest(&pm), empty, "offset {off}");
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 7, "a lone nonzero byte anywhere counts");
    }

    #[test]
    fn restore_brings_back_a_dematerialized_stray_frame() {
        let mut pm = PhysMemory::new();
        pm.alloc_frame();
        // Frame 2 is written before the allocator reaches it, then the
        // checkpoint is taken.
        let stray = PhysAddr(2 << 12);
        pm.write(stray, b"stray");
        let src = pm.clone();

        // Allocating frame 2 drops its contents without writing to it.
        assert_eq!(pm.alloc_frame(), stray);
        assert_eq!(pm.read_u64(stray), 0);
        pm.restore_from(&src);

        let mut buf = [0u8; 5];
        pm.read(stray, &mut buf);
        assert_eq!(&buf, b"stray");
        assert_eq!(pm.frame_count(), src.frame_count());
        assert_eq!(pm.next_free_pfn, src.next_free_pfn);
        assert_eq!(digest(&pm), digest(&src));
        // Again onto a memory of another lineage.
        let mut apart = apart(&src);
        apart.alloc_frame();
        apart.restore_from(&src);
        assert_eq!(digest(&apart), digest(&src));
    }

    /// Both state-equality oracles at once: `compare`'s verdict, which
    /// must agree with digest equality in both directions.
    fn verdict(a: &PhysMemory, b: &PhysMemory) -> Option<Divergence> {
        let d = a.walk(b, &mut Compare).err();
        assert_eq!(d.is_none(), digest(a) == digest(b), "{d:?}");
        assert_eq!(d.is_none(), b.walk(a, &mut Compare).is_ok(), "{d:?}");
        d
    }

    #[test]
    fn every_digested_component_is_compared_and_named() {
        let mut base = PhysMemory::new();
        base.alloc_frame();
        base.write_u64(PhysAddr((1 << 12) + 0x18), 0x1234);
        // A frame in a second block, so both sides hold two blocks.
        base.write_u64(PhysAddr(0x41 << 12), 0x41);
        let rows: [Mutation<PhysMemory>; 9] = [
            ("frame 0x1 +0x18", |pm| {
                pm.write(PhysAddr((1 << 12) + 0x1b), &[9])
            }),
            // Materialized on one side only.
            ("frame 0x7 +0xff8", |pm| {
                pm.write(PhysAddr((7 << 12) + 0xfff), &[1])
            }),
            // In the second block, which both sides hold.
            ("frame 0x41 +0x20", |pm| {
                pm.write_u64(PhysAddr((0x41 << 12) + 0x20), 2)
            }),
            // At the edges of the first and second blocks.
            ("frame 0x3f +0xff8", |pm| {
                pm.write(PhysAddr((0x3f << 12) + 0xfff), &[1])
            }),
            ("frame 0x40 +0x0", |pm| pm.write(PhysAddr(0x40 << 12), &[1])),
            // In a block only one side holds.
            ("frame 0x80 +0x8", |pm| {
                pm.write_u64(PhysAddr((0x80 << 12) + 0x8), 3)
            }),
            ("next_free_pfn", |pm| {
                pm.alloc_frame();
            }),
            ("frame_limit", |pm| pm.set_frame_limit(Some(9))),
            ("frame_limit value", |pm| pm.set_frame_limit(Some(9))),
        ];
        for (component, mutate) in rows {
            let mut base = base.clone();
            if component == "frame_limit value" {
                base.set_frame_limit(Some(10));
            }
            let mut mutated = base.clone();
            mutate(&mut mutated);
            let d = verdict(&mutated, &base).expect(component);
            assert_eq!(d.component, component);
        }
    }

    #[test]
    fn absent_zero_and_copied_frames_compare_equal() {
        // Absent vs materialized all-zero.
        let mut a = PhysMemory::new();
        a.alloc_frame();
        let mut b = a.clone();
        b.write(PhysAddr(1 << 12), &[0; 64]);
        assert_eq!((a.frame_count(), b.frame_count()), (0, 1));
        assert_eq!(verdict(&a, &b), None);
        // A frame copied by a write of the bytes it already held.
        let mut c = PhysMemory::new();
        c.write_u64(PhysAddr(3 << 12), 5);
        let mut d = c.clone();
        d.write_u64(PhysAddr(3 << 12), 5);
        assert!(!c.shares_frame(&d, 3));
        assert_eq!(verdict(&c, &d), None);
        // Memories built apart share nothing and still compare equal.
        let mut e = PhysMemory::new();
        e.write_u64(PhysAddr(3 << 12), 5);
        assert_eq!(verdict(&c, &e), None);
    }
}
