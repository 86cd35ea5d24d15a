//! The seeded chaos campaign: event **storms** against technique victims.
//!
//! The fault campaign ([`crate::campaign`]) injects exactly one event per
//! run and sweeps its boundary; this module turns the dial the other way
//! and asks what survives a *storm* — recurring signal streams, periodic
//! preemptions into a hostile sibling, bounded signal bursts and compound
//! follow-ups ([`memsentry_cpu::StreamSource`]), all raining on a victim
//! that opens its domain window once per loop iteration. Every storm is
//! fully deterministic from `(technique, mode, intensity, seed)`: stream
//! phases are jittered with [`memsentry_cpu::seeded_offsets`] and nothing
//! else consults entropy, so a run can be re-recorded, bisected and
//! crash-swept bit-exactly.
//!
//! Each storm run checks four oracles and reports their verdicts:
//!
//! 1. **Typed ends only** — the run finishes with a normal exit or a
//!    typed [`memsentry_cpu::Trap`] (reentrancy overflow included); the
//!    harness never panics.
//! 2. **Scrub holds** — with window-aware delivery the mailbox never
//!    holds the secret, neither at the end of the run nor at any sampled
//!    mid-storm boundary.
//! 3. **Snapshot/restore is storm-proof** — at a quiescent mid-storm
//!    boundary, snapshot → run on → restore leaves no
//!    [`memsentry_cpu::Machine::diff`] (stream cursors included) against
//!    a second victim, built by the same [`storm_victim`] call and
//!    seeked to that boundary.
//! 4. **Replay is storm-proof** — the recorded run crash-recovers
//!    bit-exactly at every boundary ([`memsentry_cpu::crash_sweep`]): the
//!    second victim runs the crash-free reference pass alongside, and
//!    each recovered machine is compared with it live by
//!    [`memsentry_cpu::Machine::diff`].
//!
//! The storm victim differs from the sweep victim on purpose: its window
//! re-opens every loop iteration, so a *broken* runtime survives exactly
//! as long as hostile probes keep landing inside windows (each in-window
//! probe exfiltrates and returns; the first out-of-window probe faults on
//! the closed region and ends the run). Scrubbed delivery force-closes
//! the domain around every event, so the first hostile probe of a
//! faulting technique crashes immediately — the storm is survived by the
//! *protection*, not the attacker.

use memsentry::{Application, MemSentry, Technique};
use memsentry_cpu::replay::{crash_sweep, Recording};
use memsentry_cpu::{
    seeded_offsets, EventAction, EventSchedule, Machine, RunOutcome, SignalPolicy, StreamSource,
    Trap, TriggerKind,
};
use memsentry_ir::{AluOp, Cond, FunctionBuilder, Inst, Program, Reg};
use memsentry_mmu::{PageFlags, VirtAddr, PAGE_SIZE};

use crate::campaign::{funcs, peek_mailbox, CampaignError, HandlerMode, Outcome, MAILBOX, SECRET};

/// Loop iterations of the storm victim — one domain window each. Long
/// enough that the slowest drizzle period recurs several times (and the
/// recording spans many checkpoint intervals), short enough that the
/// crash-recovery oracle's full per-boundary sweep stays affordable for
/// the runs that ride the storm out.
const STORM_ITERS: u64 = 150;

/// Checkpoint spacing for storm recordings (matches the fault campaign).
const CHECKPOINT_SPACING: u64 = 64;

/// Signal-nesting depth at which delivery overflows into
/// [`memsentry_cpu::Trap::Reentrancy`]; low enough that a tempest-grade
/// burst deterministically exercises the limit.
const SIGNAL_DEPTH_LIMIT: usize = 6;

/// Mid-storm boundaries sampled by the exposure oracle per run.
const EXPOSURE_SAMPLES: usize = 8;

/// The sentinel an [`StreamSource::After`]-triggered attacker write plants
/// next to the mailbox during preemption quanta (distinct from the secret,
/// so it can never fake an exposure).
const WRITE_SENTINEL: u64 = 0x0bad_c0de;

/// How hard the storm blows: the stream mix installed on the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormIntensity {
    /// Sparse periodic signals and preemptions; no bursts.
    Drizzle,
    /// Denser periods plus a short three-signal burst.
    Squall,
    /// Tight periods and a consecutive-boundary burst long enough to
    /// overflow the signal-nesting depth limit.
    Tempest,
}

impl StormIntensity {
    /// Display name used by reports and artifact rows.
    pub fn name(self) -> &'static str {
        match self {
            StormIntensity::Drizzle => "drizzle",
            StormIntensity::Squall => "squall",
            StormIntensity::Tempest => "tempest",
        }
    }

    /// `(signal period, preempt period, preempt quantum, burst)` — burst
    /// is `(gap, length)`.
    fn params(self) -> (u64, u64, u64, Option<(u64, u64)>) {
        match self {
            StormIntensity::Drizzle => (251, 397, 16, None),
            StormIntensity::Squall => (61, 103, 24, Some((2, 3))),
            StormIntensity::Tempest => (13, 29, 32, Some((1, 8))),
        }
    }
}

/// Every intensity the campaign sweeps, in artifact order.
pub const INTENSITIES: [StormIntensity; 3] = [
    StormIntensity::Drizzle,
    StormIntensity::Squall,
    StormIntensity::Tempest,
];

/// The seeds the campaign sweeps per cell, in artifact order.
pub const STORM_SEEDS: [u64; 3] = [0x11, 0x2e, 0x47];

/// The storm victim: `main` loops [`STORM_ITERS`] times, opening the
/// instrumented window (one privileged load) every iteration; the hostile
/// handler and reader are the fault campaign's, byte for byte. Live
/// values ride in `rbx`/`rbp`/`r12` per the register discipline.
fn build_storm_program(region_base: u64) -> Program {
    let mut p = Program::new();

    let mut main = FunctionBuilder::new("main");
    main.push(Inst::MovImm {
        dst: Reg::Rbx,
        imm: region_base,
    });
    main.push(Inst::MovImm {
        dst: Reg::Rbp,
        imm: STORM_ITERS,
    });
    main.push(Inst::MovImm {
        dst: Reg::R12,
        imm: 0,
    });
    let top = main.new_label();
    main.bind(top);
    main.push(Inst::AluImm {
        op: AluOp::Add,
        dst: Reg::Rax,
        imm: 3,
    });
    // A maximal run of privileged loads becomes ONE wide window (the
    // domain pass wraps consecutive privileged instructions together),
    // so a storm boundary has a realistic chance of landing inside it.
    for offset in 0..4 {
        main.push_privileged(Inst::Load {
            dst: Reg::R8,
            addr: Reg::Rbx,
            offset,
        });
    }
    main.push(Inst::AluImm {
        op: AluOp::Add,
        dst: Reg::Rax,
        imm: 5,
    });
    main.push(Inst::AluImm {
        op: AluOp::Sub,
        dst: Reg::Rbp,
        imm: 1,
    });
    main.push(Inst::JmpIf {
        cond: Cond::Ne,
        a: Reg::Rbp,
        b: Reg::R12,
        target: top,
    });
    main.push(Inst::Halt);
    p.add_function(main.finish());

    let mut handler = FunctionBuilder::new("hostile_handler");
    handler.push(Inst::MovImm {
        dst: Reg::Rdi,
        imm: region_base,
    });
    handler.push(Inst::Load {
        dst: Reg::Rax,
        addr: Reg::Rdi,
        offset: 0,
    });
    handler.push(Inst::MovImm {
        dst: Reg::Rsi,
        imm: MAILBOX,
    });
    handler.push(Inst::Store {
        src: Reg::Rax,
        addr: Reg::Rsi,
        offset: 0,
    });
    handler.push(Inst::Syscall {
        nr: memsentry_cpu::kernel::nr::SIGRETURN,
    });
    handler.push(Inst::Halt);
    p.add_function(handler.finish());

    let mut reader = FunctionBuilder::new("hostile_reader");
    reader.push(Inst::MovImm {
        dst: Reg::Rdi,
        imm: region_base,
    });
    reader.push(Inst::Load {
        dst: Reg::Rax,
        addr: Reg::Rdi,
        offset: 0,
    });
    reader.push(Inst::MovImm {
        dst: Reg::Rsi,
        imm: MAILBOX,
    });
    reader.push(Inst::Store {
        src: Reg::Rax,
        addr: Reg::Rsi,
        offset: 0,
    });
    reader.push(Inst::Halt);
    p.add_function(reader.finish());

    p
}

/// Builds the storm victim of one `(technique, mode, intensity, seed)`
/// run, ready to record: region mapped and protected, secret planted,
/// mailbox mapped in every view, hostile reader spawned parked, signal
/// policy, domain closure and depth limit set, and the storm installed.
/// [`run_storm`] builds it twice, once to record and once as the crash
/// sweep's reference machine.
///
/// # Errors
///
/// [`CampaignError::Framework`] if the victim cannot be instrumented or
/// prepared.
pub fn storm_victim(
    technique: Technique,
    mode: HandlerMode,
    intensity: StormIntensity,
    seed: u64,
) -> Result<Machine, CampaignError> {
    let fw = MemSentry::new(technique, 64);
    let mut program = build_storm_program(fw.layout().base);
    fw.instrument(&mut program, Application::ProgramData)?;
    let mut m = Machine::new(program);
    m.space
        .map_region(VirtAddr(MAILBOX), PAGE_SIZE, PageFlags::rw());
    fw.prepare_machine(&mut m)?;
    fw.write_region(&mut m, 0, &SECRET.to_le_bytes());
    let reader_tid = m.spawn_thread(funcs::READER, [0; 3]);
    let scrub = mode == HandlerMode::Scrub;
    m.set_signal_policy(SignalPolicy {
        handler: funcs::HANDLER,
        scrub,
    });
    m.set_domain_closure(fw.signal_closure());
    m.set_signal_depth_limit(SIGNAL_DEPTH_LIMIT);
    m.set_event_schedule(storm_schedule(intensity, seed, reader_tid, scrub));
    Ok(m)
}

/// Boundaries the storm waits out before its first firing. The victim's
/// prologue is event-free, so the seed-jittered phases land inside the
/// windowed loop — where landing *inside* vs *outside* a window is the
/// question the storm asks — instead of trivially killing the run on its
/// first three instructions.
const STORM_WARMUP: u64 = 32;

/// The storm's stream mix for one `(intensity, seed)` pair: a periodic
/// signal source, a periodic (scrub-respecting) preemption into the
/// hostile reader, an optional signal burst, a nested follow-up signal
/// one instruction into the first handler, and an attacker write landing
/// during the first preemption quantum. Phases are seed-jittered past
/// `STORM_WARMUP`.
pub fn storm_schedule(
    intensity: StormIntensity,
    seed: u64,
    reader_tid: usize,
    scrub: bool,
) -> EventSchedule {
    let (sig_period, pre_period, quantum, burst) = intensity.params();
    let jitter = seeded_offsets(seed, 3, 0, sig_period);
    let mut schedule = EventSchedule::new(Vec::new());
    schedule.add_stream(StreamSource::Every {
        period: sig_period,
        phase: STORM_WARMUP + jitter[0],
        limit: None,
        action: EventAction::Signal,
    });
    schedule.add_stream(StreamSource::Every {
        period: pre_period,
        phase: STORM_WARMUP + pre_period / 2 + jitter[1],
        limit: None,
        action: EventAction::Preempt {
            to: reader_tid,
            quantum,
            scrub,
        },
    });
    if let Some((gap, len)) = burst {
        schedule.add_stream(StreamSource::Every {
            period: gap,
            phase: STORM_WARMUP + 2 * sig_period + jitter[2],
            limit: Some(len),
            action: EventAction::Signal,
        });
    }
    schedule.add_stream(StreamSource::After {
        trigger: TriggerKind::Signal,
        delay: 1,
        action: EventAction::Signal,
    });
    schedule.add_stream(StreamSource::After {
        trigger: TriggerKind::Preempt,
        delay: 2,
        action: EventAction::Write {
            addr: MAILBOX + 8,
            value: WRITE_SENTINEL,
        },
    });
    schedule
}

/// How one storm run ended (oracle 1: always a typed end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormEnd {
    /// The victim ran the whole storm out and exited.
    Exited,
    /// Signal nesting overflowed the depth limit
    /// ([`memsentry_cpu::Trap::Reentrancy`]).
    Reentrancy,
    /// Hostile code faulted on the closed region (the protection held).
    Faulted,
}

impl StormEnd {
    /// Display name used in artifact rows.
    pub fn name(self) -> &'static str {
        match self {
            StormEnd::Exited => "exit",
            StormEnd::Reentrancy => "reentrancy",
            StormEnd::Faulted => "fault",
        }
    }
}

/// The record of one storm run: delivery counts and the four oracle
/// verdicts.
#[derive(Debug, Clone)]
pub struct StormRun {
    /// The technique under test.
    pub technique: Technique,
    /// Scrubbed or broken delivery.
    pub mode: HandlerMode,
    /// The storm's stream mix.
    pub intensity: StormIntensity,
    /// The seed that jittered the stream phases.
    pub seed: u64,
    /// Instruction boundaries the stormed run retired.
    pub boundaries: u64,
    /// How the run ended.
    pub end: StormEnd,
    /// Signals delivered (nested and queue-drained included).
    pub signals: u64,
    /// Preemptions that actually switched threads.
    pub preemptions: u64,
    /// Events that fired but were silently dropped (hostile reader
    /// already halted, writes that missed, policy-less signals).
    pub dropped: u64,
    /// Boundaries (the end state plus `EXPOSURE_SAMPLES` seeks) where
    /// the mailbox held the secret — oracle 2 requires 0 under scrub.
    pub exposed_points: u64,
    /// Oracle 3: a mid-storm snapshot → run on → restore leaves no
    /// [`Machine::diff`] against a second victim seeked to the same
    /// boundary.
    pub digest_ok: bool,
    /// Oracle 4: the storm recording crash-recovers bit-exactly.
    pub crash_ok: bool,
    /// Instructions the simulator retired producing this record (storm
    /// run, oracle seeks and the crash sweep's two passes).
    pub sim_instructions: u64,
    /// Checkpoints the storm recording holds.
    pub checkpoints: u64,
    /// Replays served from those checkpoints (oracle seeks + crash
    /// sweep).
    pub replays: u64,
    /// Clean-prefix instructions re-executed across all replays.
    pub replayed_instructions: u64,
    /// Replay instructions avoided relative to from-start recovery.
    pub saved_instructions: u64,
}

impl StormRun {
    /// Whether the storm exposed the secret anywhere the oracles looked.
    pub fn exposed(&self) -> bool {
        self.exposed_points > 0
    }
}

/// Classifies the recorded outcome; storms must end typed (oracle 1), so
/// every trap kind maps to a [`StormEnd`].
fn classify_end(outcome: &RunOutcome) -> StormEnd {
    match outcome {
        RunOutcome::Exited(_) => StormEnd::Exited,
        RunOutcome::Trapped(Trap::Reentrancy { .. }) => StormEnd::Reentrancy,
        RunOutcome::Trapped(_) => StormEnd::Faulted,
    }
}

/// Drives one storm run and checks all four oracles.
///
/// # Errors
///
/// [`CampaignError::Framework`] if the victim cannot be built;
/// [`CampaignError::Replay`] if a replay oracle cannot seek (a
/// snapshot/restore defect, not a storm outcome).
pub fn run_storm(
    technique: Technique,
    mode: HandlerMode,
    intensity: StormIntensity,
    seed: u64,
) -> Result<StormRun, CampaignError> {
    let mut m = storm_victim(technique, mode, intensity, seed)?;

    // The storm run, recorded for the replay oracles. `&[]` keeps the
    // installed storm schedule live.
    let rec = Recording::capture(&mut m, CHECKPOINT_SPACING, &[]);
    let end = classify_end(rec.outcome());
    let stats = *m.stats();
    let boundaries = rec.boundaries();
    let start = rec.start();
    let mut sim_instructions = boundaries;
    let mut replays = 0u64;
    let mut replayed_instructions = 0u64;
    let mut saved_instructions = 0u64;
    let mut account_seek = |b: u64| {
        let ck = rec.nearest_checkpoint(b).instructions();
        replays += 1;
        replayed_instructions += (start + b) - ck;
        saved_instructions += ck - start;
    };

    // Oracle 2: the end state plus sampled mid-storm boundaries.
    let mut exposed_points = u64::from(peek_mailbox(&mut m) == Outcome::Exposed);
    for b in seeded_offsets(seed ^ 0x5a5a, EXPOSURE_SAMPLES, 0, boundaries + 1) {
        rec.seek(&mut m, b)
            .map_err(|error| CampaignError::Replay { technique, error })?;
        account_seek(b);
        exposed_points += u64::from(peek_mailbox(&mut m) == Outcome::Exposed);
    }

    // Oracle 3: snapshot → run on → restore at the first quiescent
    // boundary from mid-storm, then no difference (stream cursors
    // included) from a second victim seeked to that boundary.
    let mut reference = storm_victim(technique, mode, intensity, seed)?;
    let mut digest_ok = true;
    for b in boundaries / 2..=boundaries {
        rec.seek(&mut m, b)
            .map_err(|error| CampaignError::Replay { technique, error })?;
        account_seek(b);
        if m.signal_depth() != 0 || m.preempt_active() {
            continue;
        }
        rec.seek(&mut reference, b)
            .map_err(|error| CampaignError::Replay { technique, error })?;
        let snap = m.snapshot();
        let schedule = m.event_schedule().cloned();
        // Running past the end (or into the storm's trap) is fine — only
        // the restored state is compared.
        let _ = m.run_until(start + boundaries.min(b + 2 * CHECKPOINT_SPACING));
        sim_instructions += m.stats().instructions.saturating_sub(start + b);
        m.restore(&snap);
        if let Some(s) = schedule {
            m.set_event_schedule(s);
        }
        digest_ok = m.diff(&reference).is_none();
        break;
    }

    // Oracle 4: crash-recover at every boundary of the storm recording,
    // against the second victim running the reference pass alongside.
    let report = crash_sweep(&rec, &mut m, &mut reference)
        .map_err(|error| CampaignError::Replay { technique, error })?;
    // Reference pass replays the run once; crash pass seeks everywhere.
    sim_instructions += boundaries;
    for b in 0..=boundaries {
        account_seek(b);
    }

    Ok(StormRun {
        technique,
        mode,
        intensity,
        seed,
        boundaries,
        end,
        signals: stats.signals,
        preemptions: stats.preemptions,
        dropped: stats.dropped_events,
        exposed_points,
        digest_ok,
        crash_ok: report.is_consistent(),
        sim_instructions,
        checkpoints: rec.checkpoint_count(),
        replays,
        replayed_instructions,
        saved_instructions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::WINDOWED_TECHNIQUES;

    #[test]
    fn storm_schedules_are_deterministic_per_seed() {
        let a = storm_schedule(StormIntensity::Squall, 7, 1, true);
        let b = storm_schedule(StormIntensity::Squall, 7, 1, true);
        let sa: Vec<_> = a.streams().collect();
        let sb: Vec<_> = b.streams().collect();
        assert_eq!(sa, sb);
        let c = storm_schedule(StormIntensity::Squall, 8, 1, true);
        let sc: Vec<_> = c.streams().collect();
        assert_ne!(sa, sc, "different seeds must jitter differently");
    }

    #[test]
    fn scrubbed_storms_never_expose_and_pass_all_oracles() {
        for technique in WINDOWED_TECHNIQUES {
            for intensity in INTENSITIES {
                let run =
                    run_storm(technique, HandlerMode::Scrub, intensity, STORM_SEEDS[0]).unwrap();
                assert!(
                    !run.exposed(),
                    "{technique}/{}: scrubbed storm exposed the secret",
                    intensity.name()
                );
                assert!(run.digest_ok, "{technique}/{}", intensity.name());
                assert!(run.crash_ok, "{technique}/{}", intensity.name());
            }
        }
    }

    #[test]
    fn broken_tempest_exposes_shared_state_techniques() {
        // With the window re-opening every iteration, a dense storm's
        // hostile probes land inside windows; a broken runtime hands them
        // the open domain.
        let mut exposed_any = false;
        for technique in [
            Technique::Vmfunc,
            Technique::PageTableSwitch,
            Technique::Crypt,
        ] {
            for seed in STORM_SEEDS {
                let run = run_storm(
                    technique,
                    HandlerMode::Broken,
                    StormIntensity::Tempest,
                    seed,
                )
                .unwrap();
                exposed_any |= run.exposed();
                assert!(run.digest_ok, "{technique}/seed {seed}");
                assert!(run.crash_ok, "{technique}/seed {seed}");
            }
        }
        assert!(exposed_any, "broken tempests must expose at least one run");
    }

    #[test]
    fn tempest_bursts_overflow_the_depth_limit() {
        // The consecutive-boundary burst nests handlers faster than they
        // can return; some tempest run must end in the typed reentrancy
        // trap (oracle 1's interesting case).
        let hit = WINDOWED_TECHNIQUES.iter().any(|&t| {
            STORM_SEEDS.iter().any(|&s| {
                run_storm(t, HandlerMode::Broken, StormIntensity::Tempest, s)
                    .map(|r| r.end == StormEnd::Reentrancy)
                    .unwrap_or(false)
            })
        });
        assert!(hit, "no tempest run hit the reentrancy limit");
    }

    #[test]
    fn storm_runs_are_deterministic() {
        let a = run_storm(
            Technique::Mpk,
            HandlerMode::Broken,
            StormIntensity::Squall,
            STORM_SEEDS[1],
        )
        .unwrap();
        let b = run_storm(
            Technique::Mpk,
            HandlerMode::Broken,
            StormIntensity::Squall,
            STORM_SEEDS[1],
        )
        .unwrap();
        assert_eq!(a.boundaries, b.boundaries);
        assert_eq!(a.end, b.end);
        assert_eq!(a.signals, b.signals);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.exposed_points, b.exposed_points);
        assert_eq!(a.sim_instructions, b.sim_instructions);
    }

    #[test]
    fn storms_actually_deliver_and_drop_events() {
        // The hostile reader halts after its first preemption; later
        // preemptions target a halted thread and must be counted dropped,
        // not silently vanish.
        let run = run_storm(
            Technique::Crypt,
            HandlerMode::Broken,
            StormIntensity::Squall,
            STORM_SEEDS[0],
        )
        .unwrap();
        assert!(run.signals > 0, "storm must deliver signals");
        assert!(run.preemptions > 0, "storm must preempt");
        assert!(
            run.dropped > 0,
            "preempting the halted reader must count as dropped"
        );
    }
}
