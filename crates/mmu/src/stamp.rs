//! Lineage stamps and write masks: how a restore knows what a table
//! wrote since it last shared its contents with the source.
//!
//! A rewindable table (physical memory, a cache level) carries a [`Stamp`]
//! of two ids, and each of its units carries a `u64` write mask: the
//! 64-byte lines of a frame (and the slots of a block of frames), the sets
//! of a 64-set cache chunk. A cache level also marks the chunks it wrote
//! in a bitmap of its own, the level-wide mask that a block's slot mask
//! is for its frames. The TLB carries a stamp without masks: a restore
//! skips it on equal ids and otherwise copies all 64 entries.
//!
//! - `id` is shared with every clone holding the same contents, until one
//!   side writes. Two live tables with the same nonzero `id` hold the same
//!   contents, so a restore between them has nothing to do.
//! - `base` is the last id the table shared: the contents it held when it
//!   was last cloned or restored. Writes clear `id` and leave `base` alone.
//!
//! The lineage invariant: a table differs from the contents its `base`
//! names only in the units it marked, and within a marked frame or chunk
//! only in the marked lines or sets. Where another table still shares a
//! unit, that unit equals the lineage's outright. So a restore from a
//! source whose `id` is the table's `base` copies back only the marked
//! lines, sets and entries, into units the table owns alone
//! (`Rc::get_mut`), and keeps them: the next write lands in place without a
//! copy. A unit the table shares with another is re-pointed to the
//! source's instead. Two tables with one `base` differ only in the union of
//! their marks, so [`crate::diff`] compares just those. A source of another
//! lineage (a random seek across checkpoints) takes the full rewind: every
//! unit not already shared is re-pointed.
//!
//! Four rules keep the invariant:
//! - Every write marks its unit and clears `id` before it writes; a cache
//!   write also sets its chunk's bit in the level's bitmap, so a restore
//!   from the base and a compare within the lineage visit only the marked
//!   chunks. The bitmap may hold more bits than chunks that differ (a
//!   clone keeps it), never fewer; a restore clears it.
//! - A copy-on-write copy starts with an **empty** mask, then marks the
//!   write that caused it ([`unit_mut`]). This is sound because a shared
//!   unit equals the lineage's: a table's units become shared only by a
//!   clone of it or a restore from it, and both give it a new `base` (a
//!   restore from a written table stamps it first, as a clone would).
//! - A frame materialized after the lineage began is fully marked: the slot
//!   it fills may have held data the allocator dropped.
//! - A restore copies back only when the table's `base` is the source's
//!   `id` and the unit is unshared; otherwise it re-points, and either way
//!   the table then takes the source's `id` as both ids.
//!
//! Ids come from one global counter and are never reused, so tables that
//! never shared contents never share an id. Stamps and masks are memo state
//! like the cache's same-line memo: no digest or `diff` verdict depends on
//! them. Under `debug_assertions` every copy-back restore and every
//! mask-limited compare is checked against the compare without lineage.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// The next unused stamp id; 0 is never handed out.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A table's sharing id and lineage base; 0 means unknown (never equal to
/// another table's).
///
/// Both ids sit in [`Cell`]s so that [`Clone`], which sees the source by
/// shared reference, can give an unstamped source a fresh id to share with
/// its clone: `#[derive(Clone)]` on the table then stamps both. Whenever
/// `id` is nonzero, `base` equals it.
#[derive(Debug, Default)]
pub(crate) struct Stamp {
    id: Cell<u64>,
    base: Cell<u64>,
}

impl Stamp {
    /// Forgets the id: the table is about to change. Every write to a
    /// stamped table calls this before it writes, and in a table with
    /// masks also marks the unit it writes. The base stays: the table
    /// still descends from it.
    #[inline(always)]
    pub(crate) fn clear(&mut self) {
        *self.id.get_mut() = 0;
    }

    /// Whether the two tables are known to hold the same contents: both
    /// ids are equal and nonzero.
    #[inline]
    pub(crate) fn matches(&self, other: &Stamp) -> bool {
        let id = self.id.get();
        id != 0 && id == other.id.get()
    }

    /// Whether the table descends from `src`'s contents: its base is
    /// `src`'s id, so it differs from `src` only in the units it marked.
    #[inline]
    pub(crate) fn descends_from(&self, src: &Stamp) -> bool {
        let base = self.base.get();
        base != 0 && base == src.id.get()
    }

    /// Whether the two tables are of one lineage: they share a nonzero
    /// base, so they differ only in the union of their marks.
    #[inline]
    pub(crate) fn same_lineage(&self, other: &Stamp) -> bool {
        let base = self.base.get();
        base != 0 && base == other.base.get()
    }

    /// The id, handing an unstamped table a fresh one, which becomes its
    /// base too: from here it is the lineage of every table that shares it.
    fn stamped(&self) -> u64 {
        if self.id.get() == 0 {
            // `Relaxed`: the id publishes no other data, and `fetch_add`
            // hands out each value once under any ordering.
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            self.id.set(id);
            self.base.set(id);
        }
        self.id.get()
    }

    /// The raw id, for tests that check which tables share one.
    #[cfg(test)]
    pub(crate) fn id(&self) -> u64 {
        self.id.get()
    }
}

/// A clone shares the source's id as both of its ids, stamping the source
/// first if it had none. `clone_from` does the same into an existing stamp:
/// a restore that made a table equal to its source's takes the source's id
/// so.
impl Clone for Stamp {
    fn clone(&self) -> Self {
        let id = self.stamped();
        Stamp {
            id: Cell::new(id),
            base: Cell::new(id),
        }
    }
}

/// A unit of a table with lineage: a frame, a block of frame slots, a
/// cache chunk. It carries a write mask relative to its table's base.
pub(crate) trait Unit: Clone {
    /// Forgets every mark.
    fn unmark(&mut self);
}

/// `Rc::make_mut` for a unit: the unit for writing, copied first while
/// another table still shares it. The copy starts unmarked (a shared unit
/// equals its lineage's); the caller marks its write.
#[inline(always)]
pub(crate) fn unit_mut<T: Unit>(rc: &mut Rc<T>) -> &mut T {
    if Rc::get_mut(rc).is_none() {
        return copy_unmarked(rc);
    }
    match Rc::get_mut(rc) {
        Some(unit) => unit,
        None => unreachable!("the unit was just found unshared"),
    }
}

/// The copy behind [`unit_mut`], out of line: inlined into a hot write
/// path, its multi-KiB temporary would sit on that path's stack frame.
#[cold]
#[inline(never)]
fn copy_unmarked<T: Unit>(rc: &mut Rc<T>) -> &mut T {
    // Only weak handles (tests hold some) keep a unique unit from
    // `get_mut`: `make_mut` then moves it, and its marks still hold.
    let shared = Rc::strong_count(rc) > 1;
    let unit = Rc::make_mut(rc);
    if shared {
        unit.unmark();
    }
    unit
}

/// The indices of the set bits of `mask`, in ascending order.
#[inline]
pub(crate) fn marked(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let i = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_a_fresh_nonzero_id() {
        let a = Stamp::default();
        assert!(!a.matches(&Stamp::default()), "0 never matches");
        let b = a.clone();
        assert!(a.matches(&b) && b.matches(&a));
        assert_ne!(a.id(), 0);
        // A second clone keeps the id; an unrelated table gets its own.
        assert!(a.clone().matches(&b));
        let c = Stamp::default().clone();
        assert!(!c.matches(&a));
    }

    #[test]
    fn clear_and_clone_from() {
        let a = Stamp::default();
        let mut b = a.clone();
        b.clear();
        assert!(!b.matches(&a) && !a.matches(&b));
        b.clone_from(&a);
        assert!(b.matches(&a));
        // Cloning from an unstamped source stamps both.
        let src = Stamp::default();
        let mut dst = Stamp::default();
        dst.clone_from(&src);
        assert!(dst.matches(&src));
    }

    #[test]
    fn writes_keep_the_lineage_and_clones_start_a_new_one() {
        let snap = Stamp::default().clone();
        let mut live = snap.clone();
        live.clear();
        assert!(live.descends_from(&snap) && live.same_lineage(&snap));
        assert!(
            !snap.descends_from(&live),
            "an unstamped table is no source"
        );
        // Cloning the written table stamps it afresh: its marks so far
        // predate the new lineage, and the old source is no longer its base.
        let twin = live.clone();
        assert!(live.matches(&twin) && live.descends_from(&twin));
        assert!(!live.descends_from(&snap) && !live.same_lineage(&snap));
        // A restore re-joins the source's lineage.
        live.clear();
        live.clone_from(&snap);
        assert!(live.matches(&snap) && live.descends_from(&snap));
        // Tables that never shared contents share no lineage.
        let (a, b) = (Stamp::default(), Stamp::default());
        assert!(!a.same_lineage(&b) && !a.descends_from(&b));
    }

    #[derive(Clone)]
    struct Marks(u64);

    impl Unit for Marks {
        fn unmark(&mut self) {
            self.0 = 0;
        }
    }

    #[test]
    fn a_copy_starts_unmarked_and_an_owned_unit_keeps_its_marks() {
        let mut owned = Rc::new(Marks(0b101));
        unit_mut(&mut owned).0 |= 0b10;
        assert_eq!(owned.0, 0b111, "written in place");
        let shared = owned.clone();
        unit_mut(&mut owned).0 |= 0b1000;
        assert_eq!((owned.0, shared.0), (0b1000, 0b111));
        assert!(!Rc::ptr_eq(&owned, &shared));
        // A weak handle forces a move, not a copy: the marks stay.
        let weak = Rc::downgrade(&owned);
        unit_mut(&mut owned).0 |= 1;
        assert_eq!(owned.0, 0b1001);
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn marked_lists_the_set_bits_in_order() {
        assert_eq!(marked(0).count(), 0);
        let bits: Vec<usize> = marked(1 | 1 << 5 | 1 << 63).collect();
        assert_eq!(bits, [0, 5, 63]);
        assert_eq!(marked(u64::MAX).count(), 64);
    }
}
