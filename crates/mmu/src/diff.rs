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

use core::fmt;

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

/// [`same`] for an optional value, the way a digest feeds one: the
/// presence flag first (as `component`), then the value (as
/// `component value`).
#[inline]
pub fn same_opt(
    component: impl fmt::Display,
    left: Option<u64>,
    right: Option<u64>,
) -> Result<(), Divergence> {
    match (left, right) {
        (Some(l), Some(r)) => same(format_args!("{component} value"), l, r),
        _ => same(component, left.is_some() as u64, right.is_some() as u64),
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
        assert_eq!(same_opt("epc", None, None), Ok(()));
        assert_eq!(same_opt("epc", Some(3), Some(3)), Ok(()));
        let d = same_opt("epc", None, Some(0)).unwrap_err();
        assert_eq!((d.component.as_str(), d.left, d.right), ("epc", 0, 1));
        let d = same_opt("epc", Some(4), Some(5)).unwrap_err();
        assert_eq!((d.component.as_str(), d.left, d.right), ("epc value", 4, 5));
    }
}
