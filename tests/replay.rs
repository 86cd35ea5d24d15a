//! Record-replay equivalence over the golden listings.
//!
//! The `crates/cpu` unit tests pin the [`Recording`] semantics on
//! synthetic programs; these root-level tests drive the same recorder
//! over the shipped `.ms` listings — raw and framework-instrumented —
//! and assert the guarantees the `msentry replay` CLI builds on:
//!
//! * **From-start equality**: seeking any boundary of a checkpointed
//!   recording yields a machine bit-identical (stats, cycles, state
//!   digest) to a fresh clone run straight to that boundary, with or
//!   without injected events.
//! * **Spacing independence**: a dense checkpoint stream and a single
//!   start snapshot replay to identical states at every boundary.
//! * **Fuel exactness**: fuel is a retired-instruction budget — a run
//!   given exactly its instruction count completes, one less traps
//!   `OutOfFuel`, and the truncated recording stays seekable with a
//!   clean past-the-end error after its last boundary.
//! * **Crash consistency**: restarting from the nearest checkpoint at
//!   every boundary recovers the reference state bit-exactly.
//! * **Two independent oracles**: at every boundary of every listing and
//!   of a storm victim per windowed technique, `Machine::diff` against a
//!   live reference machine finds nothing exactly when the state digests
//!   are equal.

use memsentry_repro::attacks::chaos::storm_victim;
use memsentry_repro::attacks::{HandlerMode, StormIntensity, WINDOWED_TECHNIQUES};
use memsentry_repro::cpu::{
    crash_sweep, EventAction, EventSchedule, Machine, MachineConfig, Recording, ReplayError,
    RunOutcome, Trap,
};
use memsentry_repro::ir::{parse_program, Program};
use memsentry_repro::memsentry::{Application, MemSentry, Technique};

fn listing(name: &str) -> Program {
    let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    parse_program(&std::fs::read_to_string(path).expect("golden listing"))
        .expect("golden listing parses")
}

/// Everything a boundary comparison observes: retired instructions,
/// simulated cycles, and the full machine-state digest.
fn observe(m: &Machine) -> (u64, f64, u64) {
    (m.stats().instructions, m.cycles(), m.state_digest())
}

/// An MPK shadow-stack machine over the golden listing, the same
/// configuration the snapshot/restore tests pin.
fn mpk_machine() -> (Machine, MemSentry) {
    let mut program = listing("shadow_demo.ms");
    let fw = MemSentry::new(Technique::Mpk, 4096);
    fw.instrument(&mut program, Application::ShadowStack)
        .expect("instruments");
    let mut m = Machine::new(program);
    fw.prepare_machine(&mut m).expect("prepares");
    (m, fw)
}

/// A fresh machine identical to `build()`'s output, run straight to
/// `boundary` under `events`.
fn fresh_at(
    build: &dyn Fn() -> Machine,
    events: &[memsentry_repro::cpu::Event],
    boundary: u64,
) -> (u64, f64, u64) {
    let mut m = build();
    if !events.is_empty() {
        m.set_event_schedule(EventSchedule::new(events.to_vec()));
    }
    m.run_until(boundary).expect("clean prefix");
    observe(&m)
}

#[test]
fn golden_listings_replay_bit_identically_at_every_boundary() {
    for name in ["shadow_demo.ms", "privileged_demo.ms", "good_interproc.ms"] {
        let program = listing(name);
        let build = {
            let program = program.clone();
            move || Machine::new(program.clone())
        };
        let mut m = build();
        let rec = Recording::capture(&mut m, 4, &[]);
        for boundary in 0..=rec.boundaries() {
            rec.seek(&mut m, boundary).expect("in range");
            assert_eq!(
                observe(&m),
                fresh_at(&build, &[], boundary),
                "{name}: replay diverged at boundary {boundary}"
            );
        }
    }
}

#[test]
fn instrumented_run_replays_identically_regardless_of_spacing() {
    let build = || mpk_machine().0;
    let (mut dense_m, _fw) = mpk_machine();
    let dense = Recording::capture(&mut dense_m, 8, &[]);
    let (mut start_m, _fw) = mpk_machine();
    let from_start = Recording::capture(&mut start_m, u64::MAX, &[]);
    assert_eq!(dense.boundaries(), from_start.boundaries());
    assert_eq!(from_start.checkpoint_count(), 1, "only the start snapshot");
    assert!(dense.checkpoint_count() > 1, "dense stream checkpoints");
    for boundary in 0..=dense.boundaries() {
        dense.seek(&mut dense_m, boundary).expect("in range");
        from_start.seek(&mut start_m, boundary).expect("in range");
        let reference = fresh_at(&build, &[], boundary);
        assert_eq!(observe(&dense_m), reference, "dense @ {boundary}");
        assert_eq!(observe(&start_m), reference, "from-start @ {boundary}");
    }
}

#[test]
fn injected_events_replay_exactly_from_any_checkpoint() {
    // An asynchronous attacker write into the safe region mid-run: the
    // recording must reproduce both the pre-event prefix and the
    // corrupted suffix from whichever checkpoint serves the seek.
    let (m0, fw) = mpk_machine();
    drop(m0);
    let events = vec![memsentry_repro::cpu::Event {
        at: 5,
        action: EventAction::Write {
            addr: fw.layout().base,
            value: 0xdead_beef,
        },
    }];
    let build = || mpk_machine().0;
    let mut m = build();
    let rec = Recording::capture(&mut m, 4, &events);
    assert!(rec.boundaries() > 6, "event lands inside the run");
    for boundary in 0..=rec.boundaries() {
        rec.seek(&mut m, boundary).expect("in range");
        assert_eq!(
            observe(&m),
            fresh_at(&build, &events, boundary),
            "injected replay diverged at boundary {boundary}"
        );
    }
}

#[test]
fn fuel_is_an_exact_retired_instruction_budget() {
    // The full run's instruction count is the budget that just suffices.
    let (mut m, _fw) = mpk_machine();
    let n = match m.run() {
        RunOutcome::Exited(_) => m.stats().instructions,
        RunOutcome::Trapped(t) => panic!("golden listing trapped: {t}"),
    };
    assert!(n > 1);

    let exact = {
        let (mut m, _fw) = mpk_machine();
        m.set_fuel(n);
        m.run()
    };
    assert!(
        matches!(exact, RunOutcome::Exited(_)),
        "fuel == retired count must complete: {exact:?}"
    );

    let (mut short, _fw) = mpk_machine();
    short.set_fuel(n - 1);
    assert_eq!(short.run(), RunOutcome::Trapped(Trap::OutOfFuel));
    assert_eq!(
        short.stats().instructions,
        n - 1,
        "out-of-fuel stops exactly at the budget"
    );

    // The truncated run records n-1 boundaries, every one seekable; one
    // past the end is a clean typed error, not a panic.
    let (mut rec_m, _fw) = mpk_machine();
    rec_m.set_fuel(n - 1);
    let rec = Recording::capture(&mut rec_m, 4, &[]);
    assert!(matches!(
        rec.outcome(),
        RunOutcome::Trapped(Trap::OutOfFuel)
    ));
    assert_eq!(rec.boundaries(), n - 1);
    rec.seek(&mut rec_m, n - 1).expect("exhaustion boundary");
    assert_eq!(rec_m.stats().instructions, n - 1);
    assert_eq!(
        rec.seek(&mut rec_m, n),
        Err(ReplayError::PastEnd {
            requested: n,
            end: n - 1,
        })
    );
}

#[test]
fn recordings_are_engine_independent() {
    // A recording and the per-instruction stepper must agree: seeking the
    // recording to a boundary (restore, then one `run_until` over the
    // gap) and stepping a fresh machine there from the start must observe
    // bit-identical machines — same retired count, cycle bits, and full
    // `state_digest` — over an instrumented run with a hostile mid-run
    // write, and both runs must end the same way.
    let (mut recorded, fw) = mpk_machine();
    let events = vec![memsentry_repro::cpu::Event {
        at: 5,
        action: EventAction::Write {
            addr: fw.layout().base,
            value: 0xdead_beef,
        },
    }];
    let rec = Recording::capture(&mut recorded, 4, &events);
    let (mut stepped, _fw) = mpk_machine();
    stepped.set_event_schedule(EventSchedule::new(events));
    for boundary in 0..=rec.boundaries() {
        if boundary > 0 {
            stepped.step().expect("a recorded boundary steps cleanly");
        }
        rec.seek(&mut recorded, boundary).expect("in range");
        assert_eq!(
            observe(&recorded),
            observe(&stepped),
            "run and step diverged at boundary {boundary}"
        );
    }
    let end = match stepped.step() {
        Ok(()) => RunOutcome::Exited(stepped.exit_code().expect("halted at the last boundary")),
        Err(t) => RunOutcome::Trapped(t),
    };
    assert_eq!(&end, rec.outcome());
}

#[test]
fn fuel_zero_retires_nothing() {
    let program = listing("shadow_demo.ms");
    let mut m = Machine::with_config(
        program,
        MachineConfig {
            fuel: 0,
            ..MachineConfig::default()
        },
    );
    assert_eq!(m.run(), RunOutcome::Trapped(Trap::OutOfFuel));
    assert_eq!(m.stats().instructions, 0);
}

#[test]
fn crash_sweep_recovers_every_golden_boundary_bit_exactly() {
    // Raw listing and instrumented machine, clean and with an injected
    // hostile write: dropping the live machine at any boundary and
    // restarting from the nearest checkpoint must recover exactly.
    let program = listing("shadow_demo.ms");
    let mut m = Machine::new(program.clone());
    let rec = Recording::capture(&mut m, 4, &[]);
    let report = crash_sweep(&rec, &mut m, &mut Machine::new(program)).expect("sweep completes");
    assert!(report.is_consistent(), "{:?}", report.violations);

    let (mut m, fw) = mpk_machine();
    let events = vec![memsentry_repro::cpu::Event {
        at: 5,
        action: EventAction::Write {
            addr: fw.layout().base,
            value: 0xdead_beef,
        },
    }];
    let rec = Recording::capture(&mut m, 4, &events);
    let report = crash_sweep(&rec, &mut m, &mut mpk_machine().0).expect("sweep completes");
    assert!(report.is_consistent(), "{:?}", report.violations);
    assert_eq!(report.boundaries, rec.boundaries());
}

/// Walks every boundary of `rec` the way `crash_sweep` does — `reference`
/// runs the recording continuously, `m` recovers at each boundary — and
/// checks the two state-equality oracles against each other: `diff`
/// finds nothing exactly when the digests are equal. Each recovered
/// machine is compared with the reference both one boundary behind and
/// at its own boundary, so both verdicts are exercised everywhere.
fn cross_check(name: &str, rec: &Recording, m: &mut Machine, reference: &mut Machine) {
    rec.seek(reference, 0).expect("seek to 0");
    let mut behind = None;
    for b in 0..=rec.boundaries() {
        rec.seek(m, b).expect("recovery seek");
        let recovered = m.state_digest();
        if let Some(digest) = behind {
            let d = m.diff(reference);
            assert_eq!(d.is_none(), recovered == digest, "{name} @ {b}: {d:?}");
            reference
                .run_until(rec.start() + b)
                .expect("reference pass");
        }
        let digest = reference.state_digest();
        let d = m.diff(reference);
        assert_eq!(d.is_none(), recovered == digest, "{name} @ {b}: {d:?}");
        assert_eq!(d, None, "{name}: recovery diverged at boundary {b}");
        behind = Some(digest);
    }
}

#[test]
fn diff_agrees_with_digest_equality_at_every_boundary() {
    let dir = format!("{}/tests/data", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("listing directory")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .filter(|n| n.ends_with(".ms"))
        .collect();
    names.sort();
    assert!(names.len() > 5, "{names:?}");
    for name in &names {
        let program = listing(name);
        let mut m = Machine::new(program.clone());
        let rec = Recording::capture(&mut m, 4, &[]);
        cross_check(name, &rec, &mut m, &mut Machine::new(program));
    }

    // One storm victim per windowed technique: signals, preemptions and
    // compound follow-ups mid-recording. Crypt's squall runs ~2,500
    // boundaries, so it takes the (shorter) tempest.
    for technique in WINDOWED_TECHNIQUES {
        let intensity = if technique == Technique::Crypt {
            StormIntensity::Tempest
        } else {
            StormIntensity::Squall
        };
        let build =
            || storm_victim(technique, HandlerMode::Broken, intensity, 0x2e).expect("victim");
        let mut m = build();
        let rec = Recording::capture(&mut m, 16, &[]);
        assert!(m.stats().signals > 0, "{technique}: the storm delivers");
        cross_check(&technique.to_string(), &rec, &mut m, &mut build());
    }
}
