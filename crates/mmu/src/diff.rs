//! Exact, explainable comparison of two live states.
//!
//! [`crate::digest`] reduces a state to one hash, so two states can be
//! compared only as two opaque numbers. The `diff` methods here compare
//! two live states component by component instead and name the *first*
//! component that differs — `frame 0x1c3 +0x18`, `L2 set 0x2a way 3`,
//! `TLB slot 17 pte`, `EPT 1 gpfn 0x40 hpfn` — with both sides' values.
//! They cover exactly what the `digest_into` methods feed, in the same
//! order, and skip what a digest skips (translation memos, frame and
//! chunk sharing, stale tags). Frames and cache chunks that are the same
//! shared allocation on both sides are equal without a look at their
//! bytes, so comparing a machine against one that shares most of its
//! memory copy-on-write costs only what differs.
//!
//! A state's plain fields are listed once, as a [`Walk`] over two states
//! side by side: [`Digest`] walks a state against itself to feed it, and
//! [`Compare`] walks two states to name the first field that differs, so
//! the digest and the comparison cannot disagree on a field or its
//! order. Physical memory, the cache levels, the TLB's entries, the EPT
//! tables and the heap policy join a walk as [`Walk::part`]s with their
//! own hand-written digest and comparison, which keep their sharing and
//! lineage fast paths.

use core::convert::Infallible;
use core::fmt::{self, Display};

use crate::digest::Digest;

/// The first component where two states differ, with both sides' values.
///
/// Every component is a number: a register, a counter, a tag, a presence
/// flag (`0`/`1`), or the 8-byte little-endian word of a frame that holds
/// the first differing byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// What differs, e.g. `rbx`, `frame 0x1c3 +0x18`, `L2 set 0x2a ways`,
    /// `thread 1 pc` or `stream 2 cursor`.
    pub component: String,
    /// The component's value on the side `diff` was called on.
    pub left: u64,
    /// The component's value on the side passed as `other`.
    pub right: u64,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:#x} vs {:#x}",
            self.component, self.left, self.right
        )
    }
}

/// `Ok` if `left == right`, else the [`Divergence`] naming `component`.
/// The name is formatted only on a mismatch, so a `format_args!` name
/// costs nothing on the equal path.
#[inline]
pub fn same(component: impl fmt::Display, left: u64, right: u64) -> Result<(), Divergence> {
    if left == right {
        Ok(())
    } else {
        Err(diverged(&component, left, right))
    }
}

/// The mismatch path of [`same`], kept out of line so the equal path
/// stays one compare.
#[cold]
#[inline(never)]
fn diverged(component: &dyn fmt::Display, left: u64, right: u64) -> Divergence {
    Divergence {
        component: component.to_string(),
        left,
        right,
    }
}

/// One walk over the fields of two states side by side, in digest order:
/// the field list behind both a `digest_into` and a `diff`. A walk over
/// `(x, x)` with a [`Digest`] feeds `x`; a walk over `(x, y)` with
/// [`Compare`] stops at the first field where they differ.
pub trait Walk {
    /// What stops a walk early: nothing for a digest, the first
    /// [`Divergence`] for a comparison.
    type Stop;

    /// A 64-bit word: eight digest bytes, compared as `name`.
    fn word(&mut self, name: impl Display, left: u64, right: u64) -> Result<(), Self::Stop>;

    /// A flag: one digest byte, compared as `0`/`1`.
    fn flag(&mut self, name: impl Display, left: bool, right: bool) -> Result<(), Self::Stop>;

    /// A part with a hand-written `digest` of the left side and `compare`
    /// of both.
    fn part(
        &mut self,
        digest: impl FnOnce(&mut Digest),
        compare: impl FnOnce() -> Result<(), Divergence>,
    ) -> Result<(), Self::Stop>;

    /// An optional word: its presence as a flag named `name`, then the
    /// word as `name value`.
    fn opt(
        &mut self,
        name: impl Display,
        left: Option<u64>,
        right: Option<u64>,
    ) -> Result<(), Self::Stop> {
        self.flag(&name, left.is_some(), right.is_some())?;
        match (left, right) {
            (Some(l), Some(r)) => self.word(format_args!("{name} value"), l, r),
            _ => Ok(()),
        }
    }

    /// Whether the walk skips a group of fields that `equal` finds equal
    /// as a whole: a comparison does, and walks the fields one by one
    /// only to name a difference; a digest feeds every field. `equal`
    /// must imply that every field of the group is equal.
    fn skips(&mut self, equal: impl FnOnce() -> bool) -> bool {
        let _ = equal;
        false
    }
}

/// A digest walk feeds the left state and never stops.
impl Walk for Digest {
    type Stop = Infallible;

    fn word(&mut self, _: impl Display, left: u64, _: u64) -> Result<(), Infallible> {
        self.write_u64(left);
        Ok(())
    }

    fn flag(&mut self, _: impl Display, left: bool, _: bool) -> Result<(), Infallible> {
        self.write_u8(left as u8);
        Ok(())
    }

    fn part(
        &mut self,
        digest: impl FnOnce(&mut Digest),
        _: impl FnOnce() -> Result<(), Divergence>,
    ) -> Result<(), Infallible> {
        digest(self);
        Ok(())
    }
}

/// The comparing walk: each field through [`same`], stopping at the
/// first that differs.
#[derive(Debug)]
pub struct Compare;

impl Walk for Compare {
    type Stop = Divergence;

    fn word(&mut self, name: impl Display, left: u64, right: u64) -> Result<(), Divergence> {
        same(name, left, right)
    }

    fn flag(&mut self, name: impl Display, left: bool, right: bool) -> Result<(), Divergence> {
        same(name, left as u64, right as u64)
    }

    fn part(
        &mut self,
        _: impl FnOnce(&mut Digest),
        compare: impl FnOnce() -> Result<(), Divergence>,
    ) -> Result<(), Divergence> {
        compare()
    }

    fn skips(&mut self, equal: impl FnOnce() -> bool) -> bool {
        equal()
    }
}

/// One row of a mutation table: the component `diff` must name after
/// the mutation, and the mutation.
#[cfg(test)]
pub(crate) type Mutation<T> = (&'static str, fn(&mut T));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_pass_and_unequal_ones_are_named() {
        assert_eq!(same("rax", 7, 7), Ok(()));
        let d = same(format_args!("frame {:#x} +{:#x}", 0x1c3, 0x18), 1, 2).unwrap_err();
        assert_eq!(d.component, "frame 0x1c3 +0x18");
        assert_eq!((d.left, d.right), (1, 2));
        assert_eq!(d.to_string(), "frame 0x1c3 +0x18: 0x1 vs 0x2");
    }

    #[test]
    fn optional_values_compare_presence_then_value() {
        assert_eq!(Compare.opt("epc", None, None), Ok(()));
        assert_eq!(Compare.opt("epc", Some(3), Some(3)), Ok(()));
        let d = Compare.opt("epc", None, Some(0)).unwrap_err();
        assert_eq!((d.component.as_str(), d.left, d.right), ("epc", 0, 1));
        let d = Compare.opt("epc", Some(4), Some(5)).unwrap_err();
        assert_eq!((d.component.as_str(), d.left, d.right), ("epc value", 4, 5));
    }
}
