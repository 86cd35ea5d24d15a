//! Snapshot/restore determinism of the simulated machine.
//!
//! The fault-injection campaign (`memsentry_attacks::campaign`) leans on
//! `Machine::snapshot`/`restore` to sweep one decoded program across
//! thousands of injection points, so a restored machine must be
//! *bit-identical* to the original: same retirement order, same cycle
//! accounting, same architectural and protection-domain state. These are
//! the root-level guarantees:
//!
//! * **Golden**: an MPK-instrumented listing and a calibrated workload
//!   both replay to the exact same exit code, statistics and cycle count
//!   after a mid-run restore, any number of times.
//! * **Isolation**: events injected after a snapshot (and the damage they
//!   do) never leak through `restore` — the schedule is cleared and the
//!   memory image rewound.
//! * **Sweep** (randomized): snapshots taken at deterministic
//!   pseudo-random boundaries all replay identically, the exact access
//!   pattern the campaign performs.
//! * **Interleaving** (property): restores of two or more snapshots in
//!   any order — the access pattern of the record-replay `seek` path —
//!   each land bit-identical to a fresh clone stepped straight to that
//!   boundary, no matter what ran (or was restored) in between.
//! * **Memo purity** (property): the inline translation caches and the
//!   same-line cache memo are pure accelerators — excluded from digests
//!   and snapshots, and orphaned by `restore` even when the abandoned
//!   timeline warmed them under newer generations or a different PKRU.
//! * **Every write rewound**: each kind of write that a restore has to
//!   undo — a TLB insert, an `invlpg` and a full flush (which must clear
//!   the TLB's stamp, or the restore skips the TLB), a frame write, a
//!   cache-set reorder and a frame the allocator dropped and a write
//!   brought back (which must mark what they wrote, or the restore does
//!   not copy it back) — digests like the snapshot again after the
//!   restore. The digest reads every line, set and entry, not the marks.
//!   And a `diff` between machines rewound from different snapshots
//!   reads what neither marked.

use memsentry_cases::properties;
use memsentry_repro::cpu::{EventAction, EventSchedule, ExecStats, Machine, MachineConfig};
use memsentry_repro::ir::parse_program;
use memsentry_repro::memsentry::{Application, MemSentry, Technique};
use memsentry_repro::mmu::{
    AddressSpace, Digest, PageFlags, PhysAddr, PhysMemory, Pkru, Prot, VirtAddr, PAGE_SIZE,
};
use memsentry_repro::workloads::{Workload, WorkloadSpec, SPEC2006};

/// Runs the machine to completion and captures everything observable.
fn finish(m: &mut Machine) -> (u64, ExecStats, f64) {
    let code = m.run().expect_exit();
    (code, *m.stats(), m.cycles())
}

/// Steps `n` instructions (the program must not halt first).
fn step_n(m: &mut Machine, n: u64) {
    for _ in 0..n {
        assert!(!m.is_halted(), "snapshot point inside the program");
        m.step().expect("clean prefix");
    }
}

/// An MPK-protected machine running the golden shadow-stack listing.
fn mpk_machine() -> (Machine, MemSentry) {
    mpk_machine_with(MachineConfig::default())
}

/// Same golden machine under an explicit [`MachineConfig`] (the memo
/// purity property pits inline-cache-enabled against disabled runs).
fn mpk_machine_with(config: MachineConfig) -> (Machine, MemSentry) {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/shadow_demo.ms"
    ))
    .expect("golden listing");
    let mut program = parse_program(&text).expect("golden listing parses");
    let fw = MemSentry::new(Technique::Mpk, 4096);
    fw.instrument(&mut program, Application::ShadowStack)
        .expect("instruments");
    let mut m = Machine::with_config(program, config);
    fw.prepare_machine(&mut m).expect("prepares");
    (m, fw)
}

#[test]
fn golden_listing_replays_bit_identically() {
    let (mut m, _fw) = mpk_machine();
    step_n(&mut m, 3);
    let snap = m.snapshot();
    let reference = finish(&mut m);
    for _ in 0..3 {
        m.restore(&snap);
        assert_eq!(m.stats().instructions, snap.instructions());
        assert_eq!(m.cycles(), snap.cycles());
        assert_eq!(finish(&mut m), reference, "replay diverged");
    }
}

#[test]
fn calibrated_workload_replays_bit_identically() {
    let w = Workload::build(WorkloadSpec {
        profile: SPEC2006[0],
        superblocks: 1,
    });
    let mut m = Machine::new(w.program.clone());
    w.prepare(&mut m);
    step_n(&mut m, 500);
    let snap = m.snapshot();
    let reference = finish(&mut m);
    m.restore(&snap);
    assert_eq!(finish(&mut m), reference, "workload replay diverged");
}

#[test]
fn injected_events_and_their_damage_do_not_leak_through_restore() {
    let (mut m, fw) = mpk_machine();
    step_n(&mut m, 2);
    let snap = m.snapshot();
    let reference = finish(&mut m);

    // Corrupt the run: an asynchronous attacker write into the safe
    // region right after the snapshot point.
    m.restore(&snap);
    m.set_event_schedule(EventSchedule::at(
        snap.instructions(),
        EventAction::Write {
            addr: fw.layout().base,
            value: 0xdead_beef,
        },
    ));
    let _ = m.run();

    // The restore rewinds the memory image and clears the schedule.
    m.restore(&snap);
    assert_eq!(finish(&mut m), reference, "corruption leaked through");
}

properties! {
    cases = 12;

    /// Interleaved restores across ≥2 snapshots: `Machine::restore`
    /// rewinds from whichever snapshot it restored last, and must
    /// reproduce each snapshot bit-exactly however the restore order
    /// mixes them —
    /// exactly what `Recording::seek` does when replay boundaries hop
    /// between checkpoints. Every restore is checked against a fresh
    /// clone stepped straight to the same boundary.
    #[test]
    fn interleaved_restores_match_fresh_clone_restores(
        g;
        seed_a in g.range(1u64..10_000),
        seed_b in g.range(1u64..10_000),
        order in g.vec(2..8, |g| g.bool()),
        dirty in g.range(0u64..5),
    ) {
        let (mut m, _fw) = mpk_machine();
        let total = finish(&mut m).1.instructions;
        let lo = 1 + seed_a.min(seed_b) % (total - 1);
        let hi = 1 + seed_a.max(seed_b) % (total - 1);
        let (lo, hi) = (lo.min(hi), lo.max(hi));

        // Reference state at each boundary, from fresh clones.
        let fresh = |boundary: u64| {
            let (mut c, _fw) = mpk_machine();
            step_n(&mut c, boundary);
            (c.state_digest(), *c.stats(), c.cycles())
        };
        let expect_lo = fresh(lo);
        let expect_hi = fresh(hi);

        // One live machine, two snapshots along its own run.
        let (mut m, _fw) = mpk_machine();
        step_n(&mut m, lo);
        let snap_lo = m.snapshot();
        step_n(&mut m, hi - lo);
        let snap_hi = m.snapshot();

        for &pick_hi in &order {
            let (snap, expect) = if pick_hi {
                (&snap_hi, &expect_hi)
            } else {
                (&snap_lo, &expect_lo)
            };
            m.restore(snap);
            assert_eq!(m.state_digest(), expect.0, "digest diverged");
            assert_eq!(*m.stats(), expect.1);
            assert_eq!(m.cycles(), expect.2);
            // Dirty the machine before the next restore so each
            // iteration restores across genuinely different state.
            for _ in 0..dirty {
                if m.is_halted() {
                    break;
                }
                m.step().expect("clean run");
            }
        }

        // And a full run from either snapshot still completes exactly
        // like an undisturbed machine.
        let reference = {
            let (mut c, _fw) = mpk_machine();
            finish(&mut c)
        };
        m.restore(&snap_lo);
        assert_eq!(finish(&mut m), reference);
        m.restore(&snap_hi);
        assert_eq!(finish(&mut m), reference);
    }

    /// The inline translation caches and the same-line cache memo are
    /// pure: a warm-IC machine digests identically to a disabled-IC
    /// machine at the same boundary (exclusion from `state_digest`), a
    /// snapshot taken with warm memos restores bit-exactly (exclusion
    /// from `MachineSnapshot`), and `restore` orphans every slot — even
    /// after the abandoned timeline kept executing, re-warmed slots
    /// under newer generations, and mutated PKRU or page protections so
    /// a stale entry would vouch for the wrong verdict.
    #[test]
    fn inline_cache_and_line_memo_are_pure_and_orphaned_by_restore(
        g;
        boundary in g.range(1u64..200),
        extra in g.range(1u64..60),
        toggle_pkru in g.bool(),
    ) {
        let reference = {
            let (mut m, _fw) = mpk_machine();
            finish(&mut m)
        };
        let total = reference.1.instructions;
        let at = 1 + boundary % (total - 1);

        // Warm machine: compiled engine with inline caches live.
        let (mut warm, fw) = mpk_machine_with(MachineConfig {
            inline_cache: true,
            ..MachineConfig::default()
        });
        assert!(warm.run_until(at).is_ok());
        // Cold oracle: the escape hatch (`MSENTRY_NO_INLINE_CACHE=1`).
        let (mut cold, _fw) = mpk_machine_with(MachineConfig {
            inline_cache: false,
            ..MachineConfig::default()
        });
        assert!(cold.run_until(at).is_ok());
        assert_eq!(warm.state_digest(), cold.state_digest());

        let snap = warm.snapshot();

        // Abandoned timeline: keep retiring so slots re-warm, then
        // mutate the space — newer generations and a different PKRU now
        // stamp the memos — and warm them once more.
        for _ in 0..extra {
            if warm.is_halted() {
                break;
            }
            let n = warm.stats().instructions;
            let _ = warm.run_until(n + 1);
        }
        if toggle_pkru {
            let pkru = warm.space.pkru;
            warm.space.pkru = Pkru(pkru.0 ^ (0b11 << 30));
        } else {
            warm.space
                .mprotect(VirtAddr(fw.layout().base), PAGE_SIZE, Prot::ReadWrite);
        }
        let _ = warm.run();

        // Restore must orphan everything: the rewound machine digests
        // like the never-disturbed cold machine at every remaining
        // boundary and finishes exactly like the reference run.
        warm.restore(&snap);
        loop {
            assert_eq!(warm.state_digest(), cold.state_digest());
            if warm.is_halted() {
                break;
            }
            let n = warm.stats().instructions;
            let ra = warm.run_until(n + 1);
            let rb = cold.run_until(n + 1);
            assert_eq!(ra.clone(), rb);
            if ra.is_err() {
                break;
            }
        }
        assert_eq!(warm.exit_code(), cold.exit_code());
        assert_eq!(*warm.stats(), reference.1);
        assert_eq!(warm.cycles(), reference.2);
    }
}

#[test]
fn every_kind_of_write_is_rewound() {
    fn digest(s: &AddressSpace) -> u64 {
        let mut d = Digest::new();
        s.digest_into(&mut d);
        d.finish()
    }
    // Four pages, each written once: every page's TLB entry is resident
    // and their first lines share L1 set 0, the first page's at its LRU
    // end.
    let mut s = AddressSpace::new();
    s.map_region(VirtAddr(0x1000), 5 * PAGE_SIZE, PageFlags::rw());
    for page in 0..4 {
        s.write_u64(VirtAddr(0x1000 + page * PAGE_SIZE), page)
            .unwrap();
    }
    type Write = fn(&mut AddressSpace);
    let writes: [(&str, Write); 5] = [
        ("TLB insert", |s| {
            s.read_u64(VirtAddr(0x5000)).unwrap();
        }),
        ("invlpg", |s| {
            s.mprotect(VirtAddr(0x2000), PAGE_SIZE, Prot::Read);
        }),
        ("full TLB flush", |s| s.flush_tlb()),
        ("frame write", |s| {
            assert!(s.poke(VirtAddr(0x3008), &[7]));
        }),
        ("cache-set reorder", |s| {
            s.read_u64(VirtAddr(0x1000)).unwrap();
        }),
    ];
    for (name, write) in writes {
        let snap = s.clone();
        write(&mut s);
        assert_ne!(digest(&s), digest(&snap), "{name} wrote nothing");
        s.restore_from(&snap);
        assert_eq!(digest(&s), digest(&snap), "{name}");
        assert_eq!(s.diff(&snap), None, "{name}");
    }

    // Frame 2 holds stray data at the snapshot. Allocating it drops the
    // data; a write to another of its lines brings it back zeroed.
    let mut pm = PhysMemory::new();
    pm.alloc_frame();
    pm.write(PhysAddr(2 << 12), b"stray");
    let snap = pm.clone();
    assert_eq!(pm.alloc_frame(), PhysAddr(2 << 12));
    pm.write_u64(PhysAddr((2 << 12) + 0x800), 9);
    pm.restore_from(&snap);
    let digest = |pm: &PhysMemory| {
        let mut d = Digest::new();
        pm.digest_into(&mut d);
        d.finish()
    };
    assert_eq!(digest(&pm), digest(&snap));
}

#[test]
fn a_diff_across_lineages_reads_what_neither_side_marked() {
    // Two golden machines that differ in one safe-region word. Each is
    // snapshotted, written again and rewound by copying back, which
    // leaves the frame its own and unmarked. The two descend from
    // different snapshots, so their diff has to read that frame whole.
    let build = |word: u64| {
        let (mut m, _) = mpk_machine();
        let at = VirtAddr(0x4000_0000_0000);
        assert!(m.space.poke(at, &word.to_le_bytes()));
        let snap = m.snapshot();
        assert!(m.space.poke(at, &[0xff]));
        m.restore(&snap);
        m
    };
    let (a, b) = (build(1), build(2));
    assert_ne!(a.state_digest(), b.state_digest());
    let d = a.diff(&b).expect("the words differ");
    assert!(d.component.starts_with("frame "), "{d}");
    assert_eq!((d.left, d.right), (1, 2));
}

#[test]
fn random_snapshot_boundaries_all_replay_identically() {
    let w = Workload::build(WorkloadSpec {
        profile: SPEC2006[1],
        superblocks: 1,
    });
    let mut m = Machine::new(w.program.clone());
    w.prepare(&mut m);
    let reference = finish(&mut m);
    let total = reference.1.instructions;

    // Deterministic xorshift, so a failing boundary reproduces.
    let mut state: u64 = 0x5eed_0001;
    for _ in 0..12 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let boundary = state % total;
        let mut m = Machine::new(w.program.clone());
        w.prepare(&mut m);
        step_n(&mut m, boundary);
        let snap = m.snapshot();
        let finished = finish(&mut m);
        assert_eq!(finished, reference, "stepped run diverged at {boundary}");
        m.restore(&snap);
        assert_eq!(
            finish(&mut m),
            reference,
            "restored run diverged at {boundary}"
        );
    }
}
