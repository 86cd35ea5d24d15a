//! A three-level data-cache hierarchy.
//!
//! Table 4 of the paper reports the cache-level latencies (L1 4, L2 12,
//! L3 44, DRAM 251 cycles); this module provides the matching structural
//! model — set-associative LRU caches over physical cache lines — so the
//! working-set differences between benchmarks (mcf's 256 KiB vs povray's
//! 24 KiB) show up as real hit-level distributions rather than constants.
//!
//! Geometry is Skylake-like: 32 KiB 8-way L1D, 256 KiB 8-way L2, 8 MiB
//! 16-way L3, 64-byte lines.

use std::rc::Rc;

use crate::diff::{same, Divergence, Walk};
use crate::digest::Digest;
use crate::stamp::{marked, unit_mut, Stamp, Unit};

/// Cache line size in bytes.
pub const LINE: u64 = 64;

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// L1 data cache.
    L1,
    /// Unified L2.
    L2,
    /// Shared L3.
    L3,
    /// Main memory.
    Dram,
}

/// Per-level hit counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// L1 hits.
    pub l1: u64,
    /// L2 hits.
    pub l2: u64,
    /// L3 hits.
    pub l3: u64,
    /// Memory accesses.
    pub dram: u64,
}

/// Sets per copy-on-write chunk of a [`Level`].
const CHUNK_SETS: usize = 64;

/// [`CHUNK_SETS`] consecutive sets of an `A`-way level.
#[derive(Debug, Clone)]
struct Chunk<const A: usize> {
    /// The sets changed since the level's stamp base, one bit per set
    /// (see [`crate::stamp`]). Memo state, never digested.
    marked: u64,
    /// Each set's tags, MRU-first; only the first `lens[set]` are live.
    tags: [[u64; A]; CHUNK_SETS],
    /// Live ways per set (`<= A`).
    lens: [u8; CHUNK_SETS],
}

impl<const A: usize> Unit for Chunk<A> {
    fn unmark(&mut self) {
        self.marked = 0;
    }
}

/// Most chunks a [`Level`] may have: one bit each in [`Level::written`].
const MAX_CHUNKS: usize = 128;

/// One set-associative LRU cache level with `A` ways.
///
/// A set's tags sit inline in its chunk rather than in a `Vec` per set:
/// an 8-way set spans exactly one 64-byte host line, so the lookup scan
/// touches a single cache line with no per-set pointer chase — this sits
/// on the simulator's per-memory-access hot path. Chunks are
/// reference-counted: a clone (a machine snapshot) copies one pointer
/// per chunk, and a write copies the 4–8 KiB chunk it touches only while
/// another clone still shares it.
///
/// The level marks each chunk it writes in a bitmap, as each chunk marks
/// its sets, so a restore from its lineage's base and a compare within
/// one lineage visit only the marked chunks, not all of L3's 128 (see
/// `mmu/src/stamp.rs`).
#[derive(Debug, Clone)]
struct Level<const A: usize> {
    chunks: Box<[Rc<Chunk<A>>]>,
    set_mask: u64,
    /// Shared with every clone holding the same set contents, cleared by
    /// every write, which also marks its set (see [`crate::stamp`]): a
    /// restore between two levels with one stamp skips the chunk scan,
    /// and one from the stamp's base copies back only the marked sets.
    /// Memo state, excluded from the digest and from `compare`'s verdict.
    stamp: Stamp,
    /// The chunks written since the stamp's base, one bit per chunk: every
    /// chunk that may differ from the base's has its bit set. A superset
    /// is safe, so a clone copies the bitmap; a restore clears it. Memo
    /// state, like the stamp.
    written: u128,
}

/// The indices of the set bits of a chunk bitmap, in ascending order.
fn chunks_in(written: u128) -> impl Iterator<Item = usize> {
    marked(written as u64).chain(marked((written >> 64) as u64).map(|c| c + 64))
}

impl<const A: usize> Level<A> {
    fn new(size_bytes: u64) -> Self {
        let sets = size_bytes / LINE / A as u64;
        assert!(
            sets.is_power_of_two() && sets >= CHUNK_SETS as u64,
            "cache sets must be a power of two, at least {CHUNK_SETS}"
        );
        assert!(
            sets as usize / CHUNK_SETS <= MAX_CHUNKS,
            "at most {MAX_CHUNKS} chunks of {CHUNK_SETS} sets"
        );
        assert!(A <= u8::MAX as usize, "way count must fit a u8");
        // Every chunk starts out as the same empty chunk; the first write
        // to each gives it its own copy.
        let empty = Rc::new(Chunk {
            marked: 0,
            tags: [[0; A]; CHUNK_SETS],
            lens: [0; CHUNK_SETS],
        });
        Self {
            chunks: vec![empty; sets as usize / CHUNK_SETS].into_boxed_slice(),
            set_mask: sets - 1,
            stamp: Stamp::default(),
            written: 0,
        }
    }

    /// The bitmap of every chunk, which a rewind or compare outside a
    /// lineage visits.
    fn every_chunk(&self) -> u128 {
        u128::MAX >> (MAX_CHUNKS - self.chunks.len())
    }

    /// Looks up (and on miss, fills) `line`; returns whether it hit.
    #[inline(always)]
    fn access(&mut self, line: u64) -> bool {
        let idx = (line & self.set_mask) as usize;
        let (c, s) = (idx / CHUNK_SETS, idx % CHUNK_SETS);
        let chunk = &self.chunks[c];
        let len = chunk.lens[s] as usize;
        let hit = chunk.tags[s][..len].iter().position(|&t| t == line);
        if hit == Some(0) {
            // MRU hit, the common case: nothing moves, so a chunk shared
            // with a snapshot stays shared.
            return true;
        }
        // The set is about to change, shared chunk or not.
        self.stamp.clear();
        self.written |= 1 << c;
        let chunk = unit_mut(&mut self.chunks[c]);
        chunk.marked |= 1 << s;
        // Move-to-front: shift the `n` tags ahead of the line's old slot
        // (or, on a miss, every live tag, the LRU tail of a full set
        // falling off) down one slot and file the line at the head. The
        // manual loop beats the generic `rotate_right`, which stays an
        // outlined call on this hot path.
        let n = match hit {
            Some(pos) => pos,
            None if len < A => {
                chunk.lens[s] += 1;
                len
            }
            None => A - 1,
        };
        let set = &mut chunk.tags[s];
        let mut i = n;
        while i > 0 {
            set[i] = set[i - 1];
            i -= 1;
        }
        set[0] = line;
        hit.is_some()
    }

    /// Feeds the level's semantic state — every set's tags in MRU order
    /// — into `d`. Dead tag slots and chunk sharing are excluded (live set
    /// contents define equality). The byte stream is identical to the
    /// earlier `Vec<Vec<u64>>` layout's.
    fn digest_into(&self, d: &mut Digest) {
        d.write_u64(self.set_mask + 1);
        for chunk in self.chunks.iter() {
            if chunk.lens == [0; CHUNK_SETS] {
                // Every set empty: a zero length per set and no tags.
                d.write_zeros(8 * CHUNK_SETS as u64);
                continue;
            }
            for (set, &len) in chunk.tags.iter().zip(&chunk.lens) {
                d.write_u64(u64::from(len));
                for &tag in &set[..len as usize] {
                    d.write_u64(tag);
                }
            }
        }
    }

    /// Compares what [`Self::digest_into`] feeds: the geometry, then every
    /// set's live ways in MRU order. A chunk both sides share is equal
    /// unread; tags past a set's live length are never looked at. `name`
    /// (`L1`, `L2`, `L3`) prefixes the component a difference names.
    ///
    /// Two levels of one lineage (see [`crate::stamp`]) differ only in the
    /// chunks either one marked, and there only in the sets either one
    /// marked, so only those are compared; under `debug_assertions` the
    /// verdict is checked against comparing every set.
    fn compare(&self, other: &Self, name: &str) -> Result<(), Divergence> {
        if !self.stamp.same_lineage(&other.stamp) {
            return self.compare_sets(other, name, false);
        }
        let verdict = self.compare_sets(other, name, true);
        debug_assert_eq!(verdict, self.compare_sets(other, name, false));
        verdict
    }

    /// [`Self::compare`] over the marked sets of the unshared chunks
    /// either side marked when `lineage` holds, over every set otherwise.
    fn compare_sets(&self, other: &Self, name: &str, lineage: bool) -> Result<(), Divergence> {
        same(
            format_args!("{name} sets"),
            self.set_mask + 1,
            other.set_mask + 1,
        )?;
        let visit = if lineage {
            self.written | other.written
        } else {
            self.every_chunk()
        };
        for c in chunks_in(visit) {
            let (a, b) = (&self.chunks[c], &other.chunks[c]);
            if Rc::ptr_eq(a, b) {
                continue;
            }
            // Equal live-way counts and equal tag rows wherever a way is
            // live settle most unshared chunks without naming anything.
            let row = |s: usize| a.lens[s] == 0 || a.tags[s] == b.tags[s];
            let sets = if lineage {
                let sets = a.marked | b.marked;
                if marked(sets).all(|s| a.lens[s] == b.lens[s] && row(s)) {
                    continue;
                }
                sets
            } else {
                if a.lens == b.lens && (0..CHUNK_SETS).all(row) {
                    continue;
                }
                u64::MAX
            };
            for s in marked(sets) {
                let set = c * CHUNK_SETS + s;
                let (la, lb) = (a.lens[s], b.lens[s]);
                same(
                    format_args!("{name} set {set:#x} ways"),
                    u64::from(la),
                    u64::from(lb),
                )?;
                for way in 0..la as usize {
                    same(
                        format_args!("{name} set {set:#x} way {way}"),
                        a.tags[s][way],
                        b.tags[s][way],
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Rewinds `self` to `src` (any level of the same geometry). A level
    /// that shares `src`'s stamp already holds its set contents and
    /// returns at once. When the level descends from `src` (see
    /// [`crate::stamp`]), only the chunks it marked may differ: each that
    /// it owns alone gets the sets it marked copied back, which keeps the
    /// chunk its own for the next write, and each other one is re-pointed
    /// to `src`'s. A level of another lineage re-points every chunk not
    /// already shared with `src`. The rewound level takes `src`'s stamp
    /// and an empty chunk bitmap.
    fn restore_from(&mut self, src: &Self) {
        if self.stamp.matches(&src.stamp) {
            return;
        }
        let lineage = self.stamp.descends_from(&src.stamp);
        let visit = if lineage {
            self.written
        } else {
            self.every_chunk()
        };
        for c in chunks_in(visit) {
            let (dst, s) = (&mut self.chunks[c], &src.chunks[c]);
            if Rc::ptr_eq(dst, s) {
                continue;
            }
            match Rc::get_mut(dst) {
                Some(chunk) if lineage => {
                    for set in marked(chunk.marked) {
                        chunk.tags[set] = s.tags[set];
                        chunk.lens[set] = s.lens[set];
                    }
                    chunk.marked = 0;
                }
                _ => dst.clone_from(s),
            }
        }
        if lineage {
            debug_assert_eq!(self.compare_sets(src, "L", false), Ok(()));
        }
        self.stamp.clone_from(&src.stamp);
        self.written = 0;
    }
}

/// "No line" sentinel for the same-line short-circuit (no physical
/// address maps to it: `pa / LINE` cannot reach `u64::MAX`).
const NO_LINE: u64 = u64::MAX;

/// The full hierarchy.
///
/// Cloning copies one pointer per 64-set chunk (137 in all) instead of
/// the ~1 MiB of tags: clones share chunks until one side writes to them,
/// and [`Self::restore_from`] rewinds to any clone by re-pointing only the
/// chunks that differ. Each level also carries a lineage stamp that its
/// clones share and its writes clear, and each chunk marks the sets
/// written since (see `mmu/src/stamp.rs`): a restore skips every level that
/// has not been written since it last shared the source's contents, and
/// copies back only the marked sets of a level that descends from the
/// source.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Level<8>,
    l2: Level<8>,
    l3: Level<16>,
    stats: CacheStats,
    /// Same-line short-circuit: the line most recently accessed, which
    /// by construction sits at MRU position of its L1 set (a hit moves
    /// it to the head, a miss fills at the head). A repeat access to it
    /// is a position-0 L1 hit that mutates no set contents, so
    /// [`Self::access`] serves it with a single compare and the `l1`
    /// counter bump — provably the same observable outcome as the full
    /// lookup. Pure memo state: excluded from [`Self::digest_into`] and
    /// reset by [`Self::restore_from`] (a rewind changes set contents
    /// out from under it).
    last_line: u64,
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheHierarchy {
    /// A Skylake-like hierarchy.
    pub fn new() -> Self {
        Self {
            l1: Level::new(32 << 10),
            l2: Level::new(256 << 10),
            l3: Level::new(8 << 20),
            stats: CacheStats::default(),
            last_line: NO_LINE,
        }
    }

    /// Accesses the line containing physical address `pa`, filling all
    /// levels on the way in (inclusive hierarchy).
    #[inline(always)]
    pub fn access(&mut self, pa: u64) -> HitLevel {
        let line = pa / LINE;
        if line == self.last_line {
            // Repeat access to the line at MRU of its L1 set: the full
            // lookup would hit at position 0 and mutate nothing.
            self.stats.l1 += 1;
            return HitLevel::L1;
        }
        self.last_line = line;
        if self.l1.access(line) {
            self.stats.l1 += 1;
            return HitLevel::L1;
        }
        if self.l2.access(line) {
            self.stats.l2 += 1;
            return HitLevel::L2;
        }
        if self.l3.access(line) {
            self.stats.l3 += 1;
            return HitLevel::L3;
        }
        self.stats.dram += 1;
        HitLevel::Dram
    }

    /// Accumulated per-level counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Each level's sharing stamp id, for tests of which tables share one.
    #[cfg(test)]
    pub(crate) fn stamp_ids(&self) -> [u64; 3] {
        [self.l1.stamp.id(), self.l2.stamp.id(), self.l3.stamp.id()]
    }

    /// Each level's bitmap of written chunks, for tests of the marks.
    #[cfg(test)]
    pub(crate) fn written_chunks(&self) -> [u128; 3] {
        [self.l1.written, self.l2.written, self.l3.written]
    }

    /// Feeds the hierarchy's semantic state (all three levels' set
    /// contents plus the hit counters) into `d`.
    pub fn digest_into(&self, d: &mut Digest) {
        let Ok(()) = self.walk(self, d);
    }

    /// The field list behind [`Self::digest_into`] and a space's `diff`:
    /// the three levels' live set contents, then the hit counters. The
    /// same-line memo, the stamps and the set marks are ignored, like the
    /// digest ignores them; levels of one lineage compare only the sets
    /// either side marked (see [`crate::stamp`]).
    pub(crate) fn walk<W: Walk>(&self, other: &CacheHierarchy, w: &mut W) -> Result<(), W::Stop> {
        let (x, y) = (self, other);
        w.part(|d| x.l1.digest_into(d), || x.l1.compare(&y.l1, "L1"))?;
        w.part(|d| x.l2.digest_into(d), || x.l2.compare(&y.l2, "L2"))?;
        w.part(|d| x.l3.digest_into(d), || x.l3.compare(&y.l3, "L3"))?;
        let (a, b) = (self.stats, other.stats);
        w.word("L1 hits", a.l1, b.l1)?;
        w.word("L2 hits", a.l2, b.l2)?;
        w.word("L3 hits", a.l3, b.l3)?;
        w.word("DRAM accesses", a.dram, b.dram)
    }

    /// Rewinds `self` to the state of `src`, which may be any hierarchy
    /// (typically an earlier or later clone of `self`). A level whose
    /// stamp equals `src`'s (neither was written since one was cloned or
    /// restored from the other) is skipped without a look at its chunks.
    /// A level that descends from `src` copies back the sets it marked
    /// into the chunks it owns alone and keeps them (see
    /// `mmu/src/stamp.rs`); every other chunk not already shared with `src`
    /// is re-pointed to `src`'s. The hit counters are always copied and
    /// the same-line memo is always reset.
    pub fn restore_from(&mut self, src: &CacheHierarchy) {
        self.l1.restore_from(&src.l1);
        self.l2.restore_from(&src.l2);
        self.l3.restore_from(&src.l3);
        self.stats = src.stats;
        // The rewind may have changed the memoized line's set.
        self.last_line = NO_LINE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{Compare, Mutation};
    use crate::digest::tests::Serial;

    #[test]
    fn first_touch_misses_to_dram_then_hits_l1() {
        let mut c = CacheHierarchy::new();
        assert_eq!(c.access(0x1000), HitLevel::Dram);
        assert_eq!(c.access(0x1000), HitLevel::L1);
        assert_eq!(c.access(0x1008), HitLevel::L1, "same line");
        assert_eq!(c.access(0x1040), HitLevel::Dram, "next line");
    }

    #[test]
    fn working_set_larger_than_l1_hits_l2() {
        let mut c = CacheHierarchy::new();
        // 64 KiB working set: fits L2, not L1 (32 KiB).
        let lines: Vec<u64> = (0..1024u64).map(|i| i * LINE).collect();
        for &a in &lines {
            c.access(a);
        }
        // Second pass: mostly L2 (L1 keeps the hot tail).
        let mut l2 = 0;
        for &a in &lines {
            if c.access(a) == HitLevel::L2 {
                l2 += 1;
            }
        }
        assert!(l2 > 400, "L2 hits on second pass: {l2}");
    }

    #[test]
    fn working_set_larger_than_l2_hits_l3() {
        let mut c = CacheHierarchy::new();
        // 1 MiB working set: fits L3, not L2.
        let lines: Vec<u64> = (0..16_384u64).map(|i| i * LINE).collect();
        for &a in &lines {
            c.access(a);
        }
        let mut l3 = 0;
        for &a in &lines {
            if c.access(a) == HitLevel::L3 {
                l3 += 1;
            }
        }
        assert!(l3 > 8_000, "L3 hits on second pass: {l3}");
    }

    #[test]
    fn lru_keeps_the_hot_line() {
        let mut c = CacheHierarchy::new();
        let hot = 0u64;
        c.access(hot);
        // Touch 8 more lines in the same set (8-way), re-touching hot
        // after each: every re-touch moves it to the front, so the ninth
        // line evicts the first conflicting line instead of hot.
        let sets = 32 * 1024 / 64 / 8; // 64 sets
        for i in 1..=8u64 {
            c.access(hot + i * sets as u64 * LINE);
            assert_eq!(c.access(hot), HitLevel::L1, "after {i} conflicts");
        }
        assert_eq!(c.access(hot + sets as u64 * LINE), HitLevel::L2);
    }

    #[test]
    fn restore_from_any_source_matches_a_full_clone() {
        // Warm a hierarchy and snapshot it twice on one timeline, then
        // rewind between the snapshots in both directions after further
        // accesses: later accesses must see the hit levels and stats of
        // a full clone of the source, and the sources stay untouched.
        let dig = |c: &CacheHierarchy| {
            let mut d = Digest::new();
            c.digest_into(&mut d);
            d.finish()
        };
        let mut c = CacheHierarchy::new();
        for i in 0..2000u64 {
            c.access(i * LINE * 7);
        }
        let early = c.clone();
        for i in 0..3000u64 {
            c.access(i * LINE * 11);
        }
        let late = c.clone();
        let digests = [dig(&early), dig(&late)];
        for round in 0..4u64 {
            for i in 0..500u64 {
                c.access(i * LINE * 13 + round);
            }
            let src = if round % 2 == 0 { &early } else { &late };
            c.restore_from(src);
            let mut full = src.clone();
            assert_eq!(c.stats(), full.stats(), "round {round}");
            for i in 0..200u64 {
                assert_eq!(
                    c.access(i * LINE * 3),
                    full.access(i * LINE * 3),
                    "round {round} line {i}"
                );
            }
            assert_eq!(c.stats(), full.stats(), "round {round} after probe");
            assert_eq!(dig(&c), dig(&full), "round {round} after probe");
        }
        assert_eq!([dig(&early), dig(&late)], digests, "sources unchanged");
    }

    /// Per level, which chunks `a` and `b` share.
    fn shared_chunks(a: &CacheHierarchy, b: &CacheHierarchy) -> [Vec<bool>; 3] {
        fn level<const A: usize>(x: &Level<A>, y: &Level<A>) -> Vec<bool> {
            x.chunks
                .iter()
                .zip(y.chunks.iter())
                .map(|(p, q)| Rc::ptr_eq(p, q))
                .collect()
        }
        [
            level(&a.l1, &b.l1),
            level(&a.l2, &b.l2),
            level(&a.l3, &b.l3),
        ]
    }

    #[test]
    fn clones_share_untouched_chunks() {
        let mut c = CacheHierarchy::new();
        for i in 0..20_000u64 {
            c.access(i * LINE);
        }
        let snap = c.clone();
        let counts = |shared: &[Vec<bool>; 3]| shared.each_ref().map(|l| l.len());
        assert_eq!(counts(&shared_chunks(&c, &snap)), [1, 8, 128]);
        assert!(shared_chunks(&c, &snap).iter().flatten().all(|&s| s));

        // Set 0 of every level: a miss there copies chunk 0 of each level
        // and nothing else.
        c.access(1 << 40);
        let shared = shared_chunks(&c, &snap);
        for level in &shared {
            assert!(!level[0]);
            assert!(level[1..].iter().all(|&s| s));
        }
        // An MRU hit moves nothing and copies nothing, whether the
        // same-line memo serves it or the set lookup does.
        let mut d = snap.clone();
        for line in [19_999, 19_998, 19_999] {
            assert_eq!(d.access(line * LINE + 8), HitLevel::L1);
        }
        assert!(shared_chunks(&d, &snap).iter().flatten().all(|&s| s));

        // A restore from the lineage copies set 0 back into each level's
        // own chunk 0 and keeps it; the rest stay shared.
        c.restore_from(&snap);
        assert_eq!(digest(&c), digest(&snap));
        for level in &shared_chunks(&c, &snap) {
            assert!(!level[0]);
            assert!(level[1..].iter().all(|&s| s));
        }
    }

    #[test]
    fn clones_share_one_nonzero_stamp_per_level() {
        let mut c = warmed();
        assert_eq!(c.stamp_ids(), [0; 3], "written levels are unstamped");
        let snap = c.clone();
        let ids = snap.stamp_ids();
        assert!(ids.iter().all(|&id| id != 0), "{ids:?}");
        assert_eq!(c.stamp_ids(), ids);
        assert_eq!(c.clone().stamp_ids(), ids, "a second clone keeps the ids");
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[1], ids[2]);
        assert!(warmed()
            .clone()
            .stamp_ids()
            .iter()
            .all(|id| !ids.contains(id)));
        // A hit on L1 set 5's LRU way reorders L1 alone and unstamps it.
        assert_eq!(c.access(5 * LINE), HitLevel::L1);
        assert_eq!(c.stamp_ids(), [0, ids[1], ids[2]]);
    }

    /// Each level's chunk 0, by address.
    fn chunk0(c: &CacheHierarchy) -> [*const u8; 3] {
        [
            Rc::as_ptr(&c.l1.chunks[0]).cast(),
            Rc::as_ptr(&c.l2.chunks[0]).cast(),
            Rc::as_ptr(&c.l3.chunks[0]).cast(),
        ]
    }

    #[test]
    fn a_restore_from_the_lineage_copies_back_the_marked_sets() {
        let mut c = warmed();
        let snap = c.clone();
        // A miss in set 0 of every level copies each level's chunk 0.
        c.access(1 << 40);
        assert!(shared_chunks(&c, &snap).iter().all(|level| !level[0]));
        let own = chunk0(&c);
        c.restore_from(&snap);
        assert_eq!(digest(&c), digest(&snap));
        assert_eq!(
            c.stamp_ids(),
            snap.stamp_ids(),
            "the rewound levels are stamped"
        );
        assert_eq!(chunk0(&c), own, "the copies are kept");
        // The next writes reorder those chunks in place.
        c.access(1 << 40);
        c.access((1 << 40) + 64 * LINE);
        c.access(1 << 40);
        assert_eq!(chunk0(&c), own);
        c.restore_from(&snap);
        assert_eq!(digest(&c), digest(&snap));
        // A hit that only reorders an L1 set is a write too.
        assert_eq!(c.access(5 * LINE), HitLevel::L1);
        assert_eq!(c.stamp_ids()[0], 0);
        c.restore_from(&snap);
        assert_eq!(digest(&c), digest(&snap));
        // A source of another lineage gets every differing chunk
        // re-pointed, the kept copies included.
        let mut other = apart(&snap);
        other.access(7 * LINE + (1 << 35));
        let other = other.clone();
        c.access(1 << 40);
        c.restore_from(&other);
        assert_eq!(digest(&c), digest(&other));
        assert!(shared_chunks(&c, &other).iter().flatten().all(|&s| s));
    }

    #[test]
    fn writes_mark_their_chunk_and_a_restore_clears_the_bitmap() {
        let mut c = warmed();
        assert_eq!(c.written_chunks(), [0; 3]);
        let snap = c.clone();
        // Misses in L2 set 0x45 (chunk 1) and L3 set 0x1045 (chunk 0x41),
        // then in the last set of every level; L1 has one chunk.
        c.access((0x1045 + 9 * 8192) * LINE);
        c.access((0x1fff + 9 * 8192) * LINE);
        let marks = [1, 1 << 1 | 1 << 7, 1 << 0x41 | 1 << 127];
        assert_eq!(c.written_chunks(), marks);
        // MRU hits, through the same-line memo or the set lookup, write
        // nothing and mark nothing.
        c.access((0x1fff + 9 * 8192) * LINE + 8);
        assert_eq!(c.access((0x1045 + 9 * 8192) * LINE), HitLevel::L1);
        assert_eq!(c.written_chunks(), marks);
        // A restore from the base copies back the marked chunks and
        // clears the bitmap.
        c.restore_from(&snap);
        assert_eq!(digest(&c), digest(&snap));
        assert_eq!(c.written_chunks(), [0; 3]);
        // A clone keeps the marks, a superset of what differs from it,
        // and takes a lineage of its own: its restore from the snapshot
        // rewinds every chunk and clears the bitmap too.
        c.access((0x1045 + 9 * 8192) * LINE);
        let mut twin = c.clone();
        assert_eq!(twin.written_chunks(), [1, 1 << 1, 1 << 0x41]);
        assert_eq!(verdict(&twin, &c), None);
        twin.restore_from(&snap);
        assert_eq!(digest(&twin), digest(&snap));
        assert_eq!(twin.written_chunks(), [0; 3]);
    }

    #[test]
    fn a_lineage_compare_reads_both_sides_chunk_marks() {
        // Of two clones, only `b` marked L3 chunk 0x41, where the two
        // differ: a compare either way must visit it.
        let snap = warmed().clone();
        let a = snap.clone();
        let mut b = snap.clone();
        b.l3.stamp.clear();
        b.l3.written |= 1 << 0x41;
        let chunk = unit_mut(&mut b.l3.chunks[0x41]);
        chunk.marked |= 1 << 5;
        chunk.tags[5][0] ^= 1;
        assert_eq!(verdict(&a, &b).unwrap().component, "L3 set 0x1045 way 0");
        let d = b.walk(&a, &mut Compare).unwrap_err();
        assert_eq!(d.component, "L3 set 0x1045 way 0");
    }

    #[test]
    fn copy_back_needs_the_source_to_be_the_base() {
        // `c` descends from `snap` and marks only set 0; `far` differs
        // from `snap` in set 7, which `c` never marked.
        let mut c = warmed();
        let snap = c.clone();
        let mut far = apart(&snap);
        far.access(7 * LINE + (1 << 35));
        let far = far.clone();
        c.access(1 << 40);
        c.restore_from(&far);
        assert_eq!(digest(&c), digest(&far));
    }

    #[test]
    fn levels_of_one_lineage_compare_their_marks_and_others_compare_all() {
        let snap = warmed().clone();
        let (mut a, mut b) = (snap.clone(), snap.clone());
        a.access(9 * LINE + (1 << 35));
        b.access(11 * LINE + (1 << 35));
        assert_eq!(verdict(&a, &b).unwrap().component, "L1 set 0x9 ways");
        // Set 0x21 of L1 differs on a level built apart, and neither side
        // marked it: only the compare of every set sees it.
        let mut c = apart(&snap);
        let chunk = Rc::make_mut(&mut c.l1.chunks[0]);
        chunk.lens[0x21] = 1;
        chunk.tags[0x21][0] = 0x21;
        assert_eq!(verdict(&c, &snap).unwrap().component, "L1 set 0x21 ways");
    }

    #[test]
    fn unstamped_levels_with_different_contents_restore_fully() {
        let mut a = CacheHierarchy::new();
        let mut b = CacheHierarchy::new();
        for i in 0..300u64 {
            a.access(i * LINE * 3);
            b.access(i * LINE * 5 + (1 << 30));
        }
        assert_eq!((a.stamp_ids(), b.stamp_ids()), ([0; 3], [0; 3]));
        assert_ne!(digest(&a), digest(&b));
        a.restore_from(&b);
        assert_eq!(digest(&a), digest(&b));
        assert!(shared_chunks(&a, &b).iter().flatten().all(|&s| s));
        // Rewinding stamped both sides alike.
        assert_eq!(a.stamp_ids(), b.stamp_ids());
        assert!(a.stamp_ids().iter().all(|&id| id != 0));
    }

    #[test]
    fn same_line_short_circuit_is_observationally_invisible() {
        // Two hierarchies with identical set contents but divergent
        // short-circuit memo state (one was rewound, clearing it) must
        // digest identically and behave identically forever after —
        // including on the repeat accesses the memo serves.
        let dig = |c: &CacheHierarchy| {
            let mut d = Digest::new();
            c.digest_into(&mut d);
            d.finish()
        };
        let mut a = CacheHierarchy::new();
        for i in 0..200u64 {
            a.access(i * LINE);
        }
        a.access(0); // memo = line 0
        let snap = a.clone();
        let mut b = snap.clone(); // memo intact
        a.restore_from(&snap); // memo cleared, contents unchanged
        assert_eq!(dig(&a), dig(&b), "memo state must not digest");
        assert_eq!(a.stats(), b.stats());
        // Repeats, conflicting lines, repeats again: identical outcomes.
        for pa in [0u64, 0, 8, 64, 64, 0, 4096, 4096, 4096, 0, 8] {
            assert_eq!(a.access(pa), b.access(pa), "pa {pa:#x}");
        }
        assert_eq!(dig(&a), dig(&b));
        assert_eq!(a.stats(), b.stats());
    }

    /// Byte-serial FNV-1a of the documented stream, walked set by set:
    /// per level the set count, then per set its live-way count and its
    /// live tags in MRU order; then the four hit counters.
    fn reference_digest(c: &CacheHierarchy) -> u64 {
        fn level<const A: usize>(l: &Level<A>, r: &mut Serial) {
            r.u64(l.set_mask + 1);
            for set in 0..=l.set_mask as usize {
                let chunk = &l.chunks[set / CHUNK_SETS];
                let len = chunk.lens[set % CHUNK_SETS] as usize;
                r.u64(len as u64);
                for &tag in &chunk.tags[set % CHUNK_SETS][..len] {
                    r.u64(tag);
                }
            }
        }
        let mut r = Serial::new();
        level(&c.l1, &mut r);
        level(&c.l2, &mut r);
        level(&c.l3, &mut r);
        let s = c.stats();
        for counter in [s.l1, s.l2, s.l3, s.dram] {
            r.u64(counter);
        }
        r.0
    }

    fn digest(c: &CacheHierarchy) -> u64 {
        let mut d = Digest::new();
        c.digest_into(&mut d);
        d.finish()
    }

    #[test]
    fn digest_matches_a_byte_serial_set_walk() {
        let mut c = CacheHierarchy::new();
        assert_eq!(digest(&c), reference_digest(&c), "fresh hierarchy");

        // One line in the last set of a chunk: set 63 of L1 (its only
        // chunk), of L2 chunk 0 and of L3 chunk 0.
        let mut one = CacheHierarchy::new();
        one.access(63 * LINE);
        assert_eq!(digest(&one), reference_digest(&one), "set 63");
        // The last set of the last chunk of every level.
        let mut last = CacheHierarchy::new();
        last.access(8191 * LINE + (1 << 30));
        assert_eq!(digest(&last), reference_digest(&last), "last set");

        // Sets filled across chunk boundaries: lines mapping to sets
        // 56..72 of every level, with enough conflicting lines per set
        // (strides of each level's set count) to fill L1 and L2 sets and
        // spill into L3, whose sets at the 8192-set stride fill too.
        for (round, stride) in [64u64, 512, 8192].into_iter().enumerate() {
            for way in 0..20u64 {
                for set in 56..72u64 {
                    c.access((set + way * stride + (round as u64) * (1 << 24)) * LINE);
                }
            }
            assert_eq!(digest(&c), reference_digest(&c), "stride {stride}");
        }
        // Chunk edges at the top of L2 and L3 too, and a re-touch that
        // reorders a full set.
        for set in [511u64, 512, 8191, 8192, 4095, 4096] {
            c.access(set * LINE);
        }
        c.access((56 + 64) * LINE);
        assert_eq!(digest(&c), reference_digest(&c), "after re-touches");
    }

    #[test]
    fn stats_add_up() {
        let mut c = CacheHierarchy::new();
        for i in 0..100u64 {
            c.access(i * LINE);
        }
        for i in 0..100u64 {
            c.access(i * LINE);
        }
        let s = c.stats();
        assert_eq!(s.l1 + s.l2 + s.l3 + s.dram, 200);
        assert_eq!(s.dram, 100);
        assert_eq!(s.l1, 100);
    }

    /// Both state-equality oracles at once: `compare`'s verdict, which
    /// must agree with digest equality in both directions.
    fn verdict(a: &CacheHierarchy, b: &CacheHierarchy) -> Option<Divergence> {
        let d = a.walk(b, &mut Compare).err();
        assert_eq!(d.is_none(), digest(a) == digest(b), "{d:?}");
        assert_eq!(d.is_none(), b.walk(a, &mut Compare).is_ok(), "{d:?}");
        d
    }

    /// A hierarchy with every way of L1 set 5 live, several ways live in
    /// sets 5 and 0x45 of L2 and 0x1045 of L3, and one line in L1 set 0x3f
    /// and in the last set of L2 and L3.
    fn warmed() -> CacheHierarchy {
        let mut c = CacheHierarchy::new();
        for way in 0..4u64 {
            c.access((5 + way * 8192) * LINE);
            c.access((0x1045 + way * 8192) * LINE);
        }
        c.access(0x1fff * LINE);
        // Unstamped, so no lineage: the marks so far mean nothing, and
        // dropping them keeps a stale mark from hiding a missing one.
        fn unmark<const A: usize>(l: &mut Level<A>) {
            for chunk in l.chunks.iter_mut().filter_map(Rc::get_mut) {
                chunk.marked = 0;
            }
            l.written = 0;
        }
        unmark(&mut c.l1);
        unmark(&mut c.l2);
        unmark(&mut c.l3);
        c
    }

    /// A copy of `c` outside every lineage, taken without stamping `c`:
    /// compared with anything, it takes the compare of every set.
    fn apart(c: &CacheHierarchy) -> CacheHierarchy {
        fn level<const A: usize>(l: &Level<A>) -> Level<A> {
            Level {
                chunks: l.chunks.clone(),
                set_mask: l.set_mask,
                stamp: Stamp::default(),
                written: l.written,
            }
        }
        CacheHierarchy {
            l1: level(&c.l1),
            l2: level(&c.l2),
            l3: level(&c.l3),
            stats: c.stats,
            last_line: c.last_line,
        }
    }

    #[test]
    fn every_digested_component_is_compared_and_named() {
        // Each write marks its chunk and its set, like `Level::access`, so
        // the compare within the lineage must find it too.
        fn set<const A: usize>(l: &mut Level<A>, set: usize) -> &mut Chunk<A> {
            l.stamp.clear();
            l.written |= 1 << (set / CHUNK_SETS);
            let chunk = unit_mut(&mut l.chunks[set / CHUNK_SETS]);
            chunk.marked |= 1 << (set % CHUNK_SETS);
            chunk
        }
        fn tag<const A: usize>(l: &mut Level<A>, s: usize, way: usize) -> &mut u64 {
            &mut set(l, s).tags[s % CHUNK_SETS][way]
        }
        fn len<const A: usize>(l: &mut Level<A>, s: usize) -> &mut u8 {
            &mut set(l, s).lens[s % CHUNK_SETS]
        }
        let rows: [Mutation<CacheHierarchy>; 12] = [
            ("L1 sets", |c| c.l1.set_mask = 0x7f),
            ("L1 set 0x5 way 2", |c| *tag(&mut c.l1, 5, 2) ^= 1),
            ("L1 set 0x5 ways", |c| *len(&mut c.l1, 5) -= 1),
            ("L1 set 0x3f ways", |c| *len(&mut c.l1, 0x3f) += 1),
            ("L2 set 0x5 way 3", |c| *tag(&mut c.l2, 5, 3) ^= 1),
            ("L2 set 0x45 ways", |c| *len(&mut c.l2, 0x45) -= 1),
            ("L3 set 0x1045 way 0", |c| *tag(&mut c.l3, 0x1045, 0) ^= 1),
            ("L3 set 0x1fff ways", |c| *len(&mut c.l3, 0x1fff) += 1),
            ("L1 hits", |c| c.stats.l1 += 1),
            ("L2 hits", |c| c.stats.l2 += 1),
            ("L3 hits", |c| c.stats.l3 += 1),
            ("DRAM accesses", |c| c.stats.dram += 1),
        ];
        let base = warmed();
        for (component, mutate) in rows {
            for mut mutated in [base.clone(), apart(&base)] {
                mutate(&mut mutated);
                let d = verdict(&mutated, &base).expect(component);
                assert_eq!(d.component, component);
            }
        }
    }

    #[test]
    fn stale_tags_memo_and_copied_chunks_compare_equal() {
        let base = warmed();
        // Stale tags past a set's live length.
        let mut stale = base.clone();
        let chunk = Rc::make_mut(&mut stale.l1.chunks[0]);
        chunk.tags[0x3f][3] = 0xdead;
        chunk.tags[9][0] = 0xbeef;
        assert_eq!(verdict(&stale, &base), None);
        // Warm vs cold same-line memo.
        let mut cold = base.clone();
        cold.last_line = NO_LINE;
        assert_ne!(base.last_line, NO_LINE);
        assert_eq!(verdict(&cold, &base), None);
        // A chunk copied without a change, and a hierarchy built apart.
        let mut copied = base.clone();
        Rc::make_mut(&mut copied.l3.chunks[0x41]);
        assert!(!Rc::ptr_eq(&copied.l3.chunks[0x41], &base.l3.chunks[0x41]));
        assert_eq!(verdict(&copied, &base), None);
        assert_eq!(verdict(&warmed(), &base), None);
    }
}
