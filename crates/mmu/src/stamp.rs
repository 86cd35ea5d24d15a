//! Sharing stamps: how a restore knows a table needs no rewind.
//!
//! A copy-on-write table (a cache level's chunk pointers, the TLB's
//! entries) carries a [`Stamp`]: an id that every clone of it shares
//! until one side writes. Two live tables with the same nonzero stamp
//! hold the same contents — the same chunk pointers, or the same TLB
//! entries — so a restore between them has nothing to do and returns at
//! once, where it would otherwise compare every chunk pointer or copy
//! every entry.
//!
//! The invariant holds because every path that changes a stamped table
//! clears its stamp first ([`Stamp::clear`]); a clone shares the source's
//! id ([`Clone`]); and a restore that did rewind the table takes the
//! source's id (`clone_from`). Ids come from one global counter and
//! are never reused, so tables that never shared contents never share an
//! id. Stamps are memo state like the cache's same-line memo: no digest
//! or `diff` looks at them.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The next unused stamp id; 0 is never handed out.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A table's sharing id; 0 means unknown (never equal to another table).
///
/// The id sits in a [`Cell`] so that [`Clone`], which sees the source by
/// shared reference, can give an unstamped source a fresh id to share
/// with its clone: `#[derive(Clone)]` on the table then stamps both.
#[derive(Debug, Default)]
pub(crate) struct Stamp(Cell<u64>);

impl Stamp {
    /// Forgets the id: the table is about to change. Every write to a
    /// stamped table calls this before it writes.
    #[inline(always)]
    pub(crate) fn clear(&mut self) {
        *self.0.get_mut() = 0;
    }

    /// Whether the two tables are known to hold the same contents: both
    /// stamps are equal and nonzero.
    #[inline]
    pub(crate) fn matches(&self, other: &Stamp) -> bool {
        let id = self.0.get();
        id != 0 && id == other.0.get()
    }

    /// The raw id, for tests that check which tables share one.
    #[cfg(test)]
    pub(crate) fn id(&self) -> u64 {
        self.0.get()
    }
}

/// A clone shares the source's id, stamping the source first if it had
/// none. `clone_from` does the same into an existing stamp: a restore
/// that made a table equal to its source's takes the source's id so.
impl Clone for Stamp {
    fn clone(&self) -> Self {
        if self.0.get() == 0 {
            // `Relaxed`: the id publishes no other data, and `fetch_add`
            // hands out each value once under any ordering.
            self.0.set(NEXT_ID.fetch_add(1, Ordering::Relaxed));
        }
        Stamp(Cell::new(self.0.get()))
    }
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
}
