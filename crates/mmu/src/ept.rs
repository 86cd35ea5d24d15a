//! Extended page tables and EPT-pointer switching.
//!
//! Under VT-x, guest-physical addresses produced by the guest's own page
//! tables are translated again through the active EPT. The VMFUNC isolation
//! technique (paper §3.1, §5.1) maintains a *list* of EPTs: every EPT maps
//! all normal pages, but the safe region's pages are present **only** in the
//! secure EPT. The guest switches the active EPT with
//! `vmfunc(0, index)` — no hypervisor exit — so sensitive pages exist only
//! between the open/close calls the instrumentation inserts.
//!
//! This module models the EPT list at page granularity. The Dune-like
//! hypervisor in `memsentry-hv` populates it on demand, mirrors the paper's
//! "mark mapping secret" hypercall, and exposes `vmfunc`.

use std::collections::HashMap;
use std::rc::Rc;

use crate::diff::{same, Divergence, Walk};

/// Access attempted through the EPT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EptAccess {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// An EPT violation (would be a VM exit on real hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EptViolation {
    /// Guest-physical frame number of the faulting access.
    pub gpfn: u64,
    /// The access that faulted.
    pub access: EptAccess,
    /// Index of the EPT that was active.
    pub ept_index: usize,
}

/// One guest-physical-to-host mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EptEntry {
    /// Host physical frame number.
    pub hpfn: u64,
    /// Read permitted.
    pub read: bool,
    /// Write permitted.
    pub write: bool,
    /// Execute permitted.
    pub exec: bool,
}

impl EptEntry {
    /// Identity RWX mapping for `gpfn`.
    pub fn identity(gpfn: u64) -> Self {
        Self {
            hpfn: gpfn,
            read: true,
            write: true,
            exec: true,
        }
    }

    fn permits(&self, access: EptAccess) -> bool {
        match access {
            EptAccess::Read => self.read,
            EptAccess::Write => self.write,
            EptAccess::Exec => self.exec,
        }
    }
}

/// One extended page table.
#[derive(Debug, Default, Clone)]
pub struct Ept {
    entries: HashMap<u64, Option<EptEntry>>,
}

impl Ept {
    /// Looks up `gpfn`; `None` means not yet populated (an EPT fault the
    /// hypervisor may service on demand), `Some(None)` means explicitly
    /// unmapped (a secret page of another domain).
    pub fn lookup(&self, gpfn: u64) -> Option<Option<EptEntry>> {
        self.entries.get(&gpfn).copied()
    }

    /// Installs a mapping.
    pub fn map(&mut self, gpfn: u64, entry: EptEntry) {
        self.entries.insert(gpfn, Some(entry));
    }

    /// Explicitly removes a mapping so on-demand population cannot restore
    /// it (how secret pages are hidden from the non-secure EPTs).
    pub fn deny(&mut self, gpfn: u64) {
        self.entries.insert(gpfn, None);
    }

    /// Feeds the table's mappings into `d` in sorted-gpfn order (the
    /// backing map iterates in arbitrary order, so sorting keeps the
    /// digest deterministic).
    pub fn digest_into(&self, d: &mut crate::digest::Digest) {
        let mut gpfns: Vec<u64> = self.entries.keys().copied().collect();
        gpfns.sort_unstable();
        d.write_u64(gpfns.len() as u64);
        for gpfn in gpfns {
            d.write_u64(gpfn);
            match self.entries[&gpfn] {
                Some(e) => {
                    d.write_u8(1);
                    d.write_u64(e.hpfn);
                    d.write_u8(e.read as u8);
                    d.write_u8(e.write as u8);
                    d.write_u8(e.exec as u8);
                }
                None => d.write_u8(0),
            }
        }
    }

    /// Compares what [`Self::digest_into`] feeds: the populated slots
    /// and their mappings. A difference names EPT `index` and the lowest
    /// gpfn whose slot differs: `populated` (present in the map at all),
    /// `mapped` (a mapping rather than a denial), then the mapping's
    /// fields.
    fn compare(&self, other: &Ept, index: usize) -> Result<(), Divergence> {
        if self.entries == other.entries {
            return Ok(());
        }
        let mut gpfns: Vec<u64> = self
            .entries
            .keys()
            .chain(other.entries.keys())
            .copied()
            .collect();
        gpfns.sort_unstable();
        gpfns.dedup();
        for gpfn in gpfns {
            let slot = |name: &str, a: u64, b: u64| {
                same(format_args!("EPT {index} gpfn {gpfn:#x} {name}"), a, b)
            };
            let (a, b) = (self.lookup(gpfn), other.lookup(gpfn));
            slot("populated", a.is_some() as u64, b.is_some() as u64)?;
            let (a, b) = (a.flatten(), b.flatten());
            slot("mapped", a.is_some() as u64, b.is_some() as u64)?;
            if let (Some(a), Some(b)) = (a, b) {
                slot("hpfn", a.hpfn, b.hpfn)?;
                slot("read", a.read as u64, b.read as u64)?;
                slot("write", a.write as u64, b.write as u64)?;
                slot("exec", a.exec as u64, b.exec as u64)?;
            }
        }
        Ok(())
    }

    /// Number of populated (or denied) slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no slots are populated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The hypervisor's list of EPTs plus the active pointer.
///
/// The tables are shared copy-on-write: a clone (a machine snapshot)
/// copies one pointer, and the first table write after it — a demand
/// fill, [`Self::mark_secret`], [`Self::ept_mut`] — copies the list. A
/// `vmfunc` switch writes only the active pointer and the switch count,
/// so a VMFUNC victim's snapshots keep sharing one list, and a restore
/// (`clone_from`) re-points the list without copying a table.
#[derive(Debug, Clone)]
pub struct EptSet {
    epts: Rc<Vec<Ept>>,
    active: usize,
    /// When `true`, unpopulated slots fault into on-demand identity
    /// mappings (like Dune's demand-fill) rather than violating.
    demand_fill: bool,
    switches: u64,
}

/// Maximum number of EPTP-list entries supported by `vmfunc` (Table 3).
pub const MAX_EPTS: usize = 512;

impl EptSet {
    /// Creates `count` empty EPTs with EPT 0 active.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds [`MAX_EPTS`]; the EPTP list is a
    /// fixed-size hardware structure configured by the hypervisor.
    pub fn new(count: usize, demand_fill: bool) -> Self {
        assert!((1..=MAX_EPTS).contains(&count), "EPTP list size {count}");
        Self {
            epts: Rc::new((0..count).map(|_| Ept::default()).collect()),
            active: 0,
            demand_fill,
            switches: 0,
        }
    }

    /// Number of EPTs in the list.
    pub fn count(&self) -> usize {
        self.epts.len()
    }

    /// Index of the active EPT.
    pub fn active_index(&self) -> usize {
        self.active
    }

    /// Feeds the whole EPTP list (every table, the active pointer, the
    /// fill policy and the switch counter) into `d`.
    pub fn digest_into(&self, d: &mut crate::digest::Digest) {
        let Ok(()) = self.walk(self, d);
    }

    /// The field list behind [`Self::digest_into`] and a space's `diff`:
    /// the list length, every table (a list both sides share is equal
    /// unread), the active pointer, the fill policy and the switch
    /// counter.
    pub(crate) fn walk<W: Walk>(&self, other: &EptSet, w: &mut W) -> Result<(), W::Stop> {
        w.word("EPT count", self.epts.len() as u64, other.epts.len() as u64)?;
        w.part(
            |d| self.epts.iter().for_each(|ept| ept.digest_into(d)),
            || {
                if Rc::ptr_eq(&self.epts, &other.epts) {
                    return Ok(());
                }
                let mut pairs = self.epts.iter().zip(other.epts.iter()).enumerate();
                pairs.try_for_each(|(i, (a, b))| a.compare(b, i))
            },
        )?;
        w.word("active EPT", self.active as u64, other.active as u64)?;
        w.flag("EPT demand fill", self.demand_fill, other.demand_fill)?;
        w.word("EPT switches", self.switches, other.switches)
    }

    /// Number of `vmfunc` switches performed.
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    /// `vmfunc(0, index)`: switches the active EPT.
    ///
    /// Returns `false` (a VM exit on hardware) if `index` is out of range.
    pub fn vmfunc_switch(&mut self, index: usize) -> bool {
        if index >= self.epts.len() {
            return false;
        }
        self.active = index;
        self.switches += 1;
        true
    }

    /// Accesses EPT `index` mutably (hypervisor-side operation). Copies
    /// the table list first while a clone still shares it.
    pub fn ept_mut(&mut self, index: usize) -> &mut Ept {
        &mut Rc::make_mut(&mut self.epts)[index]
    }

    /// Marks `gpfn` secret to EPT `owner`: mapped there, denied everywhere
    /// else. This is the hypercall MemSentry adds to Dune (paper §5.1).
    pub fn mark_secret(&mut self, gpfn: u64, owner: usize) {
        for (i, ept) in Rc::make_mut(&mut self.epts).iter_mut().enumerate() {
            if i == owner {
                ept.map(gpfn, EptEntry::identity(gpfn));
            } else {
                ept.deny(gpfn);
            }
        }
    }

    /// Translates `gpfn` through the active EPT.
    pub fn translate(&mut self, gpfn: u64, access: EptAccess) -> Result<u64, EptViolation> {
        let violation = EptViolation {
            gpfn,
            access,
            ept_index: self.active,
        };
        match self.epts[self.active].lookup(gpfn) {
            Some(Some(entry)) => {
                if entry.permits(access) {
                    Ok(entry.hpfn)
                } else {
                    Err(violation)
                }
            }
            Some(None) => Err(violation),
            None => {
                if self.demand_fill {
                    // Dune-style: populate an identity mapping on fault.
                    self.ept_mut(self.active)
                        .map(gpfn, EptEntry::identity(gpfn));
                    Ok(gpfn)
                } else {
                    Err(violation)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{Compare, Mutation};

    #[test]
    fn demand_fill_populates_identity() {
        let mut set = EptSet::new(2, true);
        assert_eq!(set.translate(7, EptAccess::Read), Ok(7));
        assert_eq!(set.epts[0].len(), 1);
    }

    #[test]
    fn without_demand_fill_unpopulated_violates() {
        let mut set = EptSet::new(1, false);
        let err = set.translate(7, EptAccess::Read).unwrap_err();
        assert_eq!(err.gpfn, 7);
        assert_eq!(err.ept_index, 0);
    }

    #[test]
    fn secret_page_visible_only_in_owner_ept() {
        let mut set = EptSet::new(2, true);
        set.mark_secret(100, 1);
        // From EPT 0 (default domain) the page violates...
        let err = set.translate(100, EptAccess::Read).unwrap_err();
        assert_eq!(err.access, EptAccess::Read);
        // ...and demand fill must NOT resurrect it.
        assert!(set.translate(100, EptAccess::Read).is_err());
        // After vmfunc to the secure EPT the page is reachable.
        assert!(set.vmfunc_switch(1));
        assert_eq!(set.translate(100, EptAccess::Read), Ok(100));
        // Normal pages stay reachable from both.
        assert_eq!(set.translate(5, EptAccess::Write), Ok(5));
        assert!(set.vmfunc_switch(0));
        assert_eq!(set.translate(5, EptAccess::Write), Ok(5));
    }

    #[test]
    fn vmfunc_rejects_out_of_range_index() {
        let mut set = EptSet::new(2, true);
        assert!(!set.vmfunc_switch(2));
        assert_eq!(set.active_index(), 0);
    }

    #[test]
    fn switch_count_tracks_vmfuncs() {
        let mut set = EptSet::new(3, true);
        set.vmfunc_switch(1);
        set.vmfunc_switch(2);
        set.vmfunc_switch(0);
        assert_eq!(set.switch_count(), 3);
    }

    #[test]
    fn permission_bits_are_enforced() {
        let mut set = EptSet::new(1, false);
        set.ept_mut(0).map(
            9,
            EptEntry {
                hpfn: 9,
                read: true,
                write: false,
                exec: false,
            },
        );
        assert!(set.translate(9, EptAccess::Read).is_ok());
        assert!(set.translate(9, EptAccess::Write).is_err());
        assert!(set.translate(9, EptAccess::Exec).is_err());
    }

    #[test]
    #[should_panic(expected = "EPTP list size")]
    fn oversized_ept_list_panics() {
        EptSet::new(MAX_EPTS + 1, true);
    }

    #[test]
    fn table_writes_to_a_clone_leave_the_original_intact() {
        let mut base = EptSet::new(2, true);
        base.translate(0x10, EptAccess::Read).unwrap();
        base.mark_secret(0x40, 1);
        base.vmfunc_switch(1);
        let before = digest(&base);
        // A switch writes no table: the clone keeps sharing them.
        let mut switched = base.clone();
        switched.vmfunc_switch(0);
        assert!(Rc::ptr_eq(&switched.epts, &base.epts));
        // A demand fill, mark_secret and ept_mut each copy them first.
        let mut filled = base.clone();
        assert_eq!(filled.translate(0x20, EptAccess::Write), Ok(0x20));
        let mut marked = base.clone();
        marked.mark_secret(0x10, 0);
        let mut mapped = base.clone();
        mapped.ept_mut(0).map(0x30, EptEntry::identity(0x31));
        for (name, s) in [("fill", &filled), ("secret", &marked), ("map", &mapped)] {
            assert!(!Rc::ptr_eq(&s.epts, &base.epts), "{name}");
            assert!(verdict(s, &base).is_some(), "{name}");
        }
        assert_eq!(digest(&base), before);
        assert_eq!(base.epts[1].lookup(0x20), None);
        assert_eq!(base.epts[1].lookup(0x10), None, "not denied");
        assert_eq!(base.epts[0].lookup(0x30), None);
        // Cloning over a copy shares the original's tables again.
        for mut s in [switched, filled, marked, mapped] {
            s.clone_from(&base);
            assert_eq!(verdict(&s, &base), None);
            assert!(Rc::ptr_eq(&s.epts, &base.epts));
        }
    }

    fn digest(set: &EptSet) -> u64 {
        let mut d = crate::digest::Digest::new();
        set.digest_into(&mut d);
        d.finish()
    }

    /// Both state-equality oracles at once: `compare`'s verdict, which
    /// must agree with digest equality in both directions.
    fn verdict(a: &EptSet, b: &EptSet) -> Option<Divergence> {
        let d = a.walk(b, &mut Compare).err();
        assert_eq!(d.is_none(), digest(a) == digest(b), "{d:?}");
        assert_eq!(d.is_none(), b.walk(a, &mut Compare).is_ok(), "{d:?}");
        d
    }

    #[test]
    fn every_digested_component_is_compared_and_named() {
        let mut base = EptSet::new(2, true);
        for gpfn in [0x10, 0x40, 0x41] {
            base.translate(gpfn, EptAccess::Read).unwrap();
        }
        base.mark_secret(0x40, 1);
        base.vmfunc_switch(1);
        let rows: [Mutation<EptSet>; 11] = [
            ("EPT count", |s| {
                Rc::make_mut(&mut s.epts).push(Ept::default())
            }),
            ("EPT 0 gpfn 0x7 populated", |s| {
                s.ept_mut(0).map(7, EptEntry::identity(7))
            }),
            ("EPT 0 gpfn 0x40 populated", |s| {
                s.ept_mut(0).entries.remove(&0x40);
            }),
            ("EPT 0 gpfn 0x40 mapped", |s| {
                s.ept_mut(0).map(0x40, EptEntry::identity(0x40))
            }),
            ("EPT 1 gpfn 0x40 mapped", |s| s.ept_mut(1).deny(0x40)),
            ("EPT 1 gpfn 0x40 hpfn", |s| {
                s.ept_mut(1).map(0x40, EptEntry::identity(0x41))
            }),
            ("EPT 1 gpfn 0x40 read", |s| {
                let entry = EptEntry {
                    read: false,
                    ..EptEntry::identity(0x40)
                };
                s.ept_mut(1).map(0x40, entry)
            }),
            ("EPT 1 gpfn 0x40 write", |s| {
                let entry = EptEntry {
                    write: false,
                    ..EptEntry::identity(0x40)
                };
                s.ept_mut(1).map(0x40, entry)
            }),
            ("EPT 1 gpfn 0x40 exec", |s| {
                let entry = EptEntry {
                    exec: false,
                    ..EptEntry::identity(0x40)
                };
                s.ept_mut(1).map(0x40, entry)
            }),
            ("active EPT", |s| s.active = 0),
            ("EPT switches", |s| s.switches += 1),
        ];
        for (component, mutate) in rows {
            let mut mutated = base.clone();
            mutate(&mut mutated);
            let d = verdict(&mutated, &base).expect(component);
            assert_eq!(d.component, component);
        }
        let mut strict = base.clone();
        strict.demand_fill = false;
        assert_eq!(
            verdict(&strict, &base).unwrap().component,
            "EPT demand fill"
        );
        // Tables filled in another order hold the same mappings.
        let mut reordered = EptSet::new(2, true);
        for gpfn in [0x41, 0x40, 0x10] {
            reordered.translate(gpfn, EptAccess::Read).unwrap();
        }
        reordered.mark_secret(0x40, 1);
        reordered.vmfunc_switch(1);
        assert_eq!(verdict(&reordered, &base), None);
    }
}
