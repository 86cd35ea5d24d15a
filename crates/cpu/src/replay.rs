//! Deterministic record-replay: rewind a run to any instruction boundary.
//!
//! [`Recording::capture`] drives a prepared [`Machine`] to completion
//! once, taking a copy-on-write [`MachineSnapshot`] every `spacing`
//! boundaries (plus the start snapshot) and remembering the injected
//! [`Event`] schedule and the per-boundary cycle counts. [`Recording::seek`]
//! then rewinds the same machine to *any* recorded boundary bit-exactly:
//! restore the nearest preceding checkpoint, reinstall the unfired
//! suffix of the event schedule, and re-execute the deterministic gap. The fault campaign's sweeps, the
//! `msentry replay` CLI, exposure bisection and the crash-consistency
//! sweep are all built on this one primitive.
//!
//! Two invariants make seeking exact:
//!
//! * **Checkpoints are quiescent.** A snapshot does not capture live
//!   signal frames, in-flight preemptions or the event schedule (restore
//!   clears all three, along with per-thread pending signal queues —
//!   which can only be nonempty while a preemption is in flight), so
//!   [`Recording::capture`] only checkpoints at boundaries where no
//!   signal frame is live and no preemption is in flight. Pending
//!   *future* events are fine: they are re-derived from the recorded
//!   schedule state at seek time.
//! * **The schedule state is exact.** An event due at boundary `B`
//!   fires at the start of the next execution call, so a checkpoint
//!   taken on returning from `run_until(B)` has fired exactly the events
//!   with `at < B` — and each stream's cursor sits exactly where the
//!   original run left it. The recorder clones the machine's live
//!   [`EventSchedule`] alongside every checkpoint; seeking reinstalls
//!   that clone and replays forward, firing each one-shot exactly once
//!   and resuming every recurring/compound stream mid-flight. For a
//!   plain one-shot list the clone's cursor is equivalent to the events
//!   with `at >=` the checkpoint boundary, the pre-stream suffix filter.

use crate::events::{Event, EventSchedule};
use crate::machine::{Machine, MachineSnapshot, RunOutcome};
use crate::trap::Trap;
use memsentry_mmu::Divergence;

/// Why a replay request could not be served.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The requested boundary lies beyond the recorded run.
    PastEnd {
        /// The boundary that was asked for.
        requested: u64,
        /// The last boundary the recording reaches.
        end: u64,
    },
    /// Re-executing the gap from the serving checkpoint trapped — the
    /// replayed span is a prefix of the recorded run, so this means
    /// snapshot/restore lost machine state (or the machine was mutated
    /// between capture and seek).
    Diverged {
        /// Retired-instruction count where the replay trapped.
        at: u64,
        /// The trap the replay hit.
        trap: Trap,
    },
}

impl core::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReplayError::PastEnd { requested, end } => {
                write!(f, "boundary {requested} is past the end of the run ({end})")
            }
            ReplayError::Diverged { at, trap } => {
                write!(f, "replay diverged at instruction {at}: {trap}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// A recorded run: checkpoint stream, event schedule, boundary → cycle
/// mapping and the final outcome. Created once by [`Recording::capture`],
/// then consulted by any number of [`Recording::seek`]s.
#[derive(Debug)]
pub struct Recording {
    /// Retired-instruction count when capture started; boundary `b`
    /// corresponds to absolute instruction index `start + b`.
    start: u64,
    /// The boundary of each checkpoint, increasing; index 0 is always
    /// boundary 0. Kept apart from the snapshots so that a seek's search
    /// reads dense 8-byte keys, not one snapshot-sized stride per probe.
    checkpoint_boundaries: Vec<u64>,
    /// The checkpoint snapshots, index-parallel with
    /// `checkpoint_boundaries`; index 0 is the start snapshot.
    checkpoints: Vec<MachineSnapshot>,
    /// The machine's live schedule state (one-shot cursor + stream
    /// cursors) cloned at each checkpoint, index-parallel with
    /// `checkpoints`. `None` when the run had no schedule installed.
    checkpoint_schedules: Vec<Option<EventSchedule>>,
    /// Simulated cycle count at each boundary `0..=boundaries`.
    boundary_cycles: Vec<f64>,
    /// The schedule the run was recorded under (empty for a clean run).
    events: Vec<Event>,
    /// How the recorded run ended.
    outcome: RunOutcome,
}

impl Recording {
    /// Records `m`'s run to completion (halt or trap), checkpointing
    /// every `spacing` boundaries. `events` is installed as the machine's
    /// one-shot schedule before running; pass `&[]` to record under
    /// whatever schedule is already installed (none for a clean run, or
    /// a storm schedule with recurring/compound streams the caller set
    /// up via [`Machine::set_event_schedule`]). Either way every
    /// checkpoint carries a clone of the live schedule state, so
    /// [`Recording::seek`] resumes it exactly. A `spacing` of
    /// [`u64::MAX`] records only the start snapshot — every seek then
    /// replays from the start, the quadratic reference mode the campaign
    /// exposes as `MSENTRY_NO_CHECKPOINT`.
    ///
    /// The machine is left at the end of the run; a trapping run (fuel
    /// exhaustion included) still yields a recording whose boundaries
    /// cover every instruction retired before the trap.
    pub fn capture(m: &mut Machine, spacing: u64, events: &[Event]) -> Recording {
        let spacing = spacing.max(1);
        let start = m.stats().instructions;
        if !events.is_empty() {
            m.set_event_schedule(EventSchedule::new(events.to_vec()));
        }
        let mut checkpoint_boundaries = vec![0u64];
        let mut checkpoints = vec![m.snapshot()];
        let mut checkpoint_schedules = vec![m.event_schedule().cloned()];
        let mut boundary_cycles = vec![m.cycles()];
        let outcome = loop {
            if m.is_halted() {
                break RunOutcome::Exited(m.exit_code().unwrap_or(0));
            }
            if let Err(trap) = m.run_until(m.stats().instructions + 1) {
                break RunOutcome::Trapped(trap);
            }
            boundary_cycles.push(m.cycles());
            let boundary = boundary_cycles.len() as u64 - 1;
            if boundary.is_multiple_of(spacing)
                && !m.is_halted()
                && m.signal_depth() == 0
                && !m.preempt_active()
            {
                checkpoint_boundaries.push(boundary);
                checkpoints.push(m.snapshot());
                checkpoint_schedules.push(m.event_schedule().cloned());
            }
        };
        Recording {
            start,
            checkpoint_boundaries,
            checkpoints,
            checkpoint_schedules,
            boundary_cycles,
            events: events.to_vec(),
            outcome,
        }
    }

    /// Retired-instruction count at capture start (boundary 0).
    pub fn start(&self) -> u64 {
        self.start
    }

    /// The last boundary of the recording: the number of instructions the
    /// recorded run retired. Valid seek targets are `0..=boundaries()`.
    pub fn boundaries(&self) -> u64 {
        self.boundary_cycles.len() as u64 - 1
    }

    /// Simulated cycles already retired at `boundary` in the recorded run.
    ///
    /// # Panics
    ///
    /// Panics if `boundary > boundaries()`.
    pub fn cycles_at(&self, boundary: u64) -> f64 {
        self.boundary_cycles[boundary as usize]
    }

    /// Total cycles of the recorded run (the cycle count at the final
    /// boundary).
    pub fn total_cycles(&self) -> f64 {
        *self.boundary_cycles.last().expect("at least boundary 0")
    }

    /// How the recorded run ended.
    pub fn outcome(&self) -> &RunOutcome {
        &self.outcome
    }

    /// Number of checkpoints held (the start snapshot plus one per
    /// reached, quiescent `spacing` interval).
    pub fn checkpoint_count(&self) -> u64 {
        self.checkpoints.len() as u64
    }

    /// The nearest checkpoint at or before `boundary` — what a seek (or a
    /// campaign replay) restores before re-executing the gap.
    ///
    /// # Panics
    ///
    /// Panics if `boundary > boundaries()`.
    pub fn nearest_checkpoint(&self, boundary: u64) -> &MachineSnapshot {
        &self.checkpoints[self.nearest_checkpoint_index(boundary)]
    }

    /// Index into the checkpoint stream of the nearest checkpoint at or
    /// before `boundary`.
    fn nearest_checkpoint_index(&self, boundary: u64) -> usize {
        assert!(
            boundary <= self.boundaries(),
            "boundary {boundary} past end {}",
            self.boundaries()
        );
        // The start snapshot sits at boundary 0, so at least one
        // checkpoint lies at or before any boundary.
        self.checkpoint_boundaries
            .partition_point(|&b| b <= boundary)
            - 1
    }

    /// The event schedule the run was recorded under.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Rewinds `m` to `boundary`: restores the nearest preceding
    /// checkpoint, reinstalls that checkpoint's recorded schedule state
    /// (unfired one-shots and mid-flight stream cursors alike), and
    /// re-executes the deterministic gap. On success the machine is
    /// bit-identical (see [`Machine::state_digest`]) to a from-start run
    /// stopped at the same boundary; `tests/replay.rs` property-tests
    /// that over the mutation corpus.
    ///
    /// The checkpoint is found by a binary search over the checkpoints'
    /// boundaries alone. The restore skips the memory, cache levels and
    /// TLB whose lineage stamps still match the checkpoint's, copies back
    /// only the marked lines and sets of the memory and cache levels that
    /// descend from it, and re-points the heap policy and EPT list without
    /// copying them. A seek thus costs little more than re-executing the
    /// gap and undoing what the machine wrote since it last shared the
    /// checkpoint's contents; see [`Machine::restore`].
    ///
    /// `m` must be the machine the recording was captured from (or a
    /// clone sharing its program and configuration); seeks may be issued
    /// in any order — [`Machine::restore`] rewinds to any snapshot,
    /// whichever one it restored last.
    ///
    /// # Errors
    ///
    /// [`ReplayError::PastEnd`] if `boundary > boundaries()`;
    /// [`ReplayError::Diverged`] if re-executing the recorded prefix
    /// traps (which a faithful machine never does).
    pub fn seek(&self, m: &mut Machine, boundary: u64) -> Result<(), ReplayError> {
        let end = self.boundaries();
        if boundary > end {
            return Err(ReplayError::PastEnd {
                requested: boundary,
                end,
            });
        }
        let idx = self.nearest_checkpoint_index(boundary);
        m.restore(&self.checkpoints[idx]);
        if let Some(schedule) = &self.checkpoint_schedules[idx] {
            m.set_event_schedule(schedule.clone());
        }
        if let Err(trap) = m.run_until(self.start + boundary) {
            return Err(ReplayError::Diverged {
                at: m.stats().instructions,
                trap,
            });
        }
        Ok(())
    }
}

/// Finds the first boundary in `0..boundaries` where `probe` reports a
/// hit, assuming the hit region is **one contiguous run** of boundaries —
/// the shape of a domain window, which opens once and closes once per
/// execution. Returns `(first_hit, probes_issued)`.
///
/// The search has two phases. A halving-stride grid scan (largest power
/// of two ≤ `boundaries`, then half that, … down to stride 1) finds *a*
/// witness hit; descending to stride 1 makes the scan exhaustive, so a
/// window of any width — or no window at all — is handled correctly, while
/// a window wider than `boundaries / 2^k` is found after only `O(2^k)`
/// probes. A bracketed binary search then isolates the first hit between
/// the witness and the nearest known miss below it. Every probe is
/// memoized, so the two phases never re-ask the same boundary.
///
/// If the hit region is *not* contiguous the result is still some hit
/// boundary, but not necessarily the first; the campaign pins
/// first-equality against a linear scan in its tests.
///
/// # Errors
///
/// Propagates the first error `probe` returns.
pub fn bisect_first<E>(
    boundaries: u64,
    mut probe: impl FnMut(u64) -> Result<bool, E>,
) -> Result<(Option<u64>, u64), E> {
    let n = boundaries as usize;
    if n == 0 {
        return Ok((None, 0));
    }
    let mut memo: Vec<Option<bool>> = vec![None; n];
    let mut probes = 0u64;
    let mut eval = |memo: &mut Vec<Option<bool>>, b: usize| -> Result<bool, E> {
        if let Some(v) = memo[b] {
            return Ok(v);
        }
        probes += 1;
        let v = probe(b as u64)?;
        memo[b] = Some(v);
        Ok(v)
    };

    // Phase 1: find a witness hit on successively finer grids.
    let mut stride = 1usize;
    while stride * 2 <= n {
        stride *= 2;
    }
    let mut witness: Option<usize> = None;
    'grid: loop {
        let mut b = 0;
        while b < n {
            if eval(&mut memo, b)? {
                witness = Some(b);
                break 'grid;
            }
            b += stride;
        }
        if stride == 1 {
            break;
        }
        stride /= 2;
    }
    let Some(witness) = witness else {
        return Ok((None, probes));
    };

    // Phase 2: binary-search the first hit in (nearest miss below
    // witness, witness]. Under the contiguity assumption every boundary
    // below the first hit misses, so halving the bracket is sound.
    let mut lo: i64 = -1;
    for b in (0..witness).rev() {
        if memo[b] == Some(false) {
            lo = b as i64;
            break;
        }
    }
    let mut hi = witness as i64;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if eval(&mut memo, mid as usize)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok((Some(hi as u64), probes))
}

/// One boundary where crash recovery failed to reproduce the pre-crash
/// machine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashViolation {
    /// The boundary the crash was injected at.
    pub boundary: u64,
    /// The first component where the machine recovered from the nearest
    /// checkpoint (`left`) differs from the reference machine that never
    /// crashed (`right`), as [`Machine::diff`] names it.
    pub divergence: Divergence,
}

impl core::fmt::Display for CrashViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let d = &self.divergence;
        write!(
            f,
            "boundary {}: {} recovered {:#x}, expected {:#x}",
            self.boundary, d.component, d.left, d.right
        )
    }
}

/// Result of a [`crash_sweep`]: recovery checked at every boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSweepReport {
    /// Boundaries swept (`0..=boundaries`, one crash each).
    pub boundaries: u64,
    /// Checkpoints the recovery path had available.
    pub checkpoints: u64,
    /// Every boundary whose recovered state diverged from the reference;
    /// empty iff recovery is exact everywhere.
    pub violations: Vec<CrashViolation>,
}

impl CrashSweepReport {
    /// Whether recovery reproduced the reference state at every boundary.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The crash-consistency sweep: at every boundary of the recorded run,
/// simulate a crash — the live machine state is dropped on the floor —
/// and recover by restarting from the nearest checkpoint and replaying
/// the event schedule forward ([`Recording::seek`]). The recovered state
/// must equal that of a reference run that never crashed; any divergence
/// is reported per boundary, naming the first component that differs.
/// This is the detectable-recovery discipline of persistent-memory crash
/// testing applied to the snapshot stream: a checkpoint is only correct
/// if *every* crash point between it and the next checkpoint recovers
/// exactly.
///
/// `m` is the machine the recording was captured from; `reference` is a
/// second machine built and configured like it (same program, handlers,
/// signal policy and fuel). The reference pass runs on `reference`
/// continuously: one seek to boundary 0, then one `run_until` per
/// boundary. At each boundary `m` recovers and the two live machines are
/// compared with [`Machine::diff`], so nothing is digested and no
/// per-boundary state is kept; the frames and cache chunks both machines
/// still share with the recording's checkpoints are equal unread. The
/// seek to boundary 0 rewinds `reference` to the recording's start, so
/// only its configuration matters: one that differs from `m`'s runs
/// differently and shows up as violations (or a
/// [`ReplayError::Diverged`]), never as a pass.
///
/// # Errors
///
/// Propagates [`ReplayError::Diverged`] if replaying the recorded prefix
/// itself traps on either machine (recovery violations are reported,
/// not errors).
pub fn crash_sweep(
    rec: &Recording,
    m: &mut Machine,
    reference: &mut Machine,
) -> Result<CrashSweepReport, ReplayError> {
    rec.seek(reference, 0)?;
    let mut violations = Vec::new();
    for b in 0..=rec.boundaries() {
        if b > 0 {
            if let Err(trap) = reference.run_until(rec.start() + b) {
                return Err(ReplayError::Diverged {
                    at: reference.stats().instructions,
                    trap,
                });
            }
        }
        rec.seek(m, b)?;
        if let Some(divergence) = m.diff(reference) {
            violations.push(CrashViolation {
                boundary: b,
                divergence,
            });
        }
    }
    Ok(CrashSweepReport {
        boundaries: rec.boundaries(),
        checkpoints: rec.checkpoint_count(),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventAction;
    use crate::machine::MachineConfig;
    use memsentry_ir::{AluOp, Cond, FunctionBuilder, Inst, Program, Reg};

    /// A ~120-instruction program: a compute loop, then stores of the
    /// accumulator — enough boundaries to span several checkpoints.
    fn looped_program(iters: u64) -> Program {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm {
            dst: Reg::Rbx,
            imm: 0x7000,
        });
        b.push(Inst::MovImm {
            dst: Reg::Rcx,
            imm: iters,
        });
        b.push(Inst::MovImm {
            dst: Reg::Rdx,
            imm: 0,
        });
        let top = b.new_label();
        b.bind(top);
        b.push(Inst::AluImm {
            op: AluOp::Add,
            dst: Reg::Rax,
            imm: 7,
        });
        b.push(Inst::Store {
            src: Reg::Rax,
            addr: Reg::Rbx,
            offset: 0,
        });
        b.push(Inst::AluImm {
            op: AluOp::Sub,
            dst: Reg::Rcx,
            imm: 1,
        });
        b.push(Inst::JmpIf {
            cond: Cond::Ne,
            a: Reg::Rcx,
            b: Reg::Rdx,
            target: top,
        });
        b.push(Inst::Halt);
        p.add_function(b.finish());
        p
    }

    fn machine(iters: u64) -> Machine {
        let mut m = Machine::new(looped_program(iters));
        m.space.map_region(
            memsentry_mmu::VirtAddr(0x7000),
            memsentry_mmu::PAGE_SIZE,
            memsentry_mmu::PageFlags::rw(),
        );
        m
    }

    /// A fresh machine run straight to `boundary` — the reference state.
    fn fresh_at(iters: u64, events: &[Event], boundary: u64) -> Machine {
        let mut m = machine(iters);
        if !events.is_empty() {
            m.set_event_schedule(EventSchedule::new(events.to_vec()));
        }
        m.run_until(boundary).expect("reference run");
        m
    }

    #[test]
    fn seek_matches_from_start_at_every_boundary() {
        let mut m = machine(30);
        let rec = Recording::capture(&mut m, 16, &[]);
        assert!(matches!(rec.outcome(), RunOutcome::Exited(_)));
        assert!(rec.boundaries() > 64, "run long enough to span checkpoints");
        for b in 0..=rec.boundaries() {
            rec.seek(&mut m, b).unwrap();
            let reference = fresh_at(30, &[], b);
            assert_eq!(m.stats(), reference.stats(), "boundary {b}");
            assert_eq!(m.state_digest(), reference.state_digest(), "boundary {b}");
        }
    }

    #[test]
    fn seeks_in_arbitrary_order_interleave_checkpoints_soundly() {
        let mut m = machine(30);
        let rec = Recording::capture(&mut m, 16, &[]);
        let n = rec.boundaries();
        // Jump between boundaries served by different checkpoints, in
        // both directions: every restore rewinds from whatever snapshot
        // the machine came from last.
        for &b in &[n, 3, 70, 5, 71, n - 1, 0, 40, 39, n] {
            rec.seek(&mut m, b).unwrap();
            assert_eq!(
                m.state_digest(),
                fresh_at(30, &[], b).state_digest(),
                "boundary {b}"
            );
        }
    }

    #[test]
    fn seek_replays_injected_events_exactly() {
        // A write event lands mid-run; seeking to boundaries before, at
        // and after it must reproduce the from-start state including the
        // event's effect (or absence).
        let events = [
            Event {
                at: 40,
                action: EventAction::Write {
                    addr: 0x7000,
                    value: 0xdead,
                },
            },
            Event {
                at: 90,
                action: EventAction::Write {
                    addr: 0x7000,
                    value: 0xbeef,
                },
            },
        ];
        let mut m = machine(30);
        let rec = Recording::capture(&mut m, 16, &events);
        for b in [0, 39, 40, 41, 64, 89, 90, 91, rec.boundaries()] {
            rec.seek(&mut m, b).unwrap();
            let reference = fresh_at(30, &events, b);
            assert_eq!(m.state_digest(), reference.state_digest(), "boundary {b}");
        }
    }

    #[test]
    fn state_digest_values_are_pinned() {
        // Golden `state_digest` values of the reference machine, with and
        // without an injected write that outlives the loop's own stores.
        // A change to how the digest or physical memory is implemented
        // must keep these exact values.
        let events = [Event {
            at: 40,
            action: EventAction::Write {
                addr: 0x7008,
                value: 0xdead,
            },
        }];
        let boundaries = [0, 1, 39, 40, 41, 64, 124];
        let clean = [
            0x3ad0_2687_c2bf_fec6,
            0x0175_8f23_84a1_86f2,
            0x9f31_ca0d_435e_e59c,
            0xdaa3_1394_f55f_82b1,
            0xda16_7c12_60d0_6a29,
            0x013a_45dc_771d_42c1,
            0x6e7a_4927_777f_c271,
        ];
        let injected = [
            0xaec9_5ed7_a3c6_fd87,
            0x5ced_ab1c_c574_5dc3,
            0x1aca_0751_14ee_ed1d,
            0x3003_b9fa_81e3_8310,
            0xe4e5_b2ed_0b94_418e,
            0x23ae_346a_8417_a026,
            0x3298_b53f_540e_bbf6,
        ];
        for (evs, expected) in [(&[][..], clean), (&events[..], injected)] {
            for (&b, &want) in boundaries.iter().zip(&expected) {
                let got = fresh_at(30, evs, b).state_digest();
                assert_eq!(got, want, "boundary {b}, {} events", evs.len());
            }
        }
    }

    #[test]
    fn thread_stream_and_injection_digests_are_pinned() {
        // Golden `state_digest` values for the state the loop machine
        // above never reaches: a spawned thread, an EPC range, a heap and
        // three stream cursors (the busy machine, as built and run to its
        // halt), a live signal frame with the domain scrubbed, and a
        // preemption in flight with a signal queued on the preempted
        // thread.
        use crate::machine::tests::{busy_machine, mpk_signal_machine, preempted_machine};
        let mut busy = busy_machine(MachineConfig::default());
        let built = busy.state_digest();
        busy.run_until(u64::MAX).unwrap();
        assert!(busy.is_halted());
        let mut signalled = mpk_signal_machine(true, 6);
        signalled.run_until(7).unwrap();
        assert_eq!(signalled.signal_depth(), 1);
        let mut preempted = preempted_machine(vec![Event {
            at: 6,
            action: EventAction::Signal,
        }]);
        preempted.run_until(7).unwrap();
        assert!(preempted.preempt_active());
        assert_eq!(preempted.queued_signals(), 1);
        let got = [
            built,
            busy.state_digest(),
            signalled.state_digest(),
            preempted.state_digest(),
        ];
        let want = [
            0x68ff_b977_95fe_cdcd,
            0xe343_484c_cacd_52db,
            0x1077_32c2_213c_647e,
            0x7c3a_6edb_fc6d_ab2a,
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn the_dense_index_serves_the_gap_of_a_skipped_checkpoint() {
        // A signal at boundary 30 runs a handler across boundary 32, so
        // capture skips that non-quiescent checkpoint: boundaries 32..48
        // must be served by the one at 16.
        let build = || {
            let mut p = looped_program(30);
            let mut h = FunctionBuilder::new("handler");
            for imm in 0..6 {
                h.push(Inst::MovImm { dst: Reg::R13, imm });
            }
            h.push(Inst::Syscall {
                nr: crate::kernel::nr::SIGRETURN,
            });
            h.push(Inst::Halt);
            let handler = p.add_function(h.finish());
            let mut m = Machine::new(p);
            m.space.map_region(
                memsentry_mmu::VirtAddr(0x7000),
                memsentry_mmu::PAGE_SIZE,
                memsentry_mmu::PageFlags::rw(),
            );
            m.set_signal_policy(crate::events::SignalPolicy {
                handler,
                scrub: true,
            });
            m
        };
        let events = [Event {
            at: 30,
            action: EventAction::Signal,
        }];
        let mut m = build();
        let rec = Recording::capture(&mut m, 16, &events);
        assert_eq!(m.stats().signals, 1);
        assert_eq!(&rec.checkpoint_boundaries[..3], &[0, 16, 48]);
        assert_eq!(rec.checkpoints.len(), rec.checkpoint_boundaries.len());
        for b in 0..=rec.boundaries() {
            // Reference: a linear scan over the snapshots themselves.
            let serving = rec
                .checkpoints
                .iter()
                .rev()
                .find(|snap| snap.instructions() <= rec.start() + b)
                .unwrap();
            let found = rec.nearest_checkpoint(b);
            assert!(std::ptr::eq(found, serving), "boundary {b}");
            assert_eq!(
                found.instructions(),
                rec.start() + rec.checkpoint_boundaries[rec.nearest_checkpoint_index(b)]
            );
        }
        for b in [31, 32, 33, 40, 47, 48, 49] {
            rec.seek(&mut m, b).unwrap();
            let mut reference = build();
            reference.set_event_schedule(EventSchedule::new(events.to_vec()));
            reference.run_until(b).unwrap();
            assert_eq!(m.diff(&reference), None, "boundary {b}");
        }
    }

    #[test]
    fn seek_past_end_errors_cleanly() {
        let mut m = machine(4);
        let rec = Recording::capture(&mut m, 16, &[]);
        let end = rec.boundaries();
        let err = rec.seek(&mut m, end + 1).unwrap_err();
        assert_eq!(
            err,
            ReplayError::PastEnd {
                requested: end + 1,
                end
            }
        );
        // The end boundary itself is seekable.
        rec.seek(&mut m, end).unwrap();
        assert!(m.is_halted());
    }

    #[test]
    fn max_spacing_records_only_the_start_snapshot() {
        let mut m = machine(30);
        let rec = Recording::capture(&mut m, u64::MAX, &[]);
        assert_eq!(rec.checkpoint_count(), 1);
        rec.seek(&mut m, rec.boundaries() / 2).unwrap();
        assert_eq!(
            m.state_digest(),
            fresh_at(30, &[], rec.boundaries() / 2).state_digest()
        );
    }

    #[test]
    fn out_of_fuel_run_is_still_seekable() {
        let mut m = Machine::with_config(
            looped_program(30),
            MachineConfig {
                fuel: 50,
                ..MachineConfig::default()
            },
        );
        m.space.map_region(
            memsentry_mmu::VirtAddr(0x7000),
            memsentry_mmu::PAGE_SIZE,
            memsentry_mmu::PageFlags::rw(),
        );
        let rec = Recording::capture(&mut m, 16, &[]);
        assert!(matches!(
            rec.outcome(),
            RunOutcome::Trapped(Trap::OutOfFuel)
        ));
        assert_eq!(rec.boundaries(), 50, "every fueled instruction recorded");
        // Seeking to the exhaustion boundary replays without re-trapping:
        // run_until stops at the boundary before the fuel check would
        // fire again.
        rec.seek(&mut m, 50).unwrap();
        assert_eq!(m.stats().instructions, 50);
        rec.seek(&mut m, 17).unwrap();
        assert_eq!(m.stats().instructions, 17);
    }

    #[test]
    fn bisect_finds_first_of_contiguous_window() {
        for (n, window) in [
            (100u64, 10..20u64),
            (100, 0..1),
            (100, 99..100),
            (100, 0..100),
            (1000, 513..514),
            (7, 3..6),
        ] {
            let mut linear_probes = 0u64;
            let (first, probes) = bisect_first(n, |b| {
                linear_probes += 1;
                Ok::<bool, ()>(window.contains(&b))
            })
            .unwrap();
            assert_eq!(first, Some(window.start), "window {window:?}");
            assert!(probes <= n, "never more probes than a linear scan");
            assert_eq!(probes, linear_probes, "probe accounting");
        }
    }

    #[test]
    fn bisect_on_empty_predicate_probes_everything_once() {
        let mut asked = std::collections::HashSet::new();
        let (first, probes) = bisect_first(64, |b| {
            assert!(asked.insert(b), "boundary {b} probed twice");
            Ok::<bool, ()>(false)
        })
        .unwrap();
        assert_eq!(first, None);
        assert_eq!(probes, 64, "a no-hit sweep must be exhaustive");
    }

    #[test]
    fn bisect_is_cheap_for_wide_windows() {
        let (first, probes) =
            bisect_first(4096, |b| Ok::<bool, ()>((1000..3000).contains(&b))).unwrap();
        assert_eq!(first, Some(1000));
        assert!(
            probes < 64,
            "wide window must bisect, not scan ({probes} probes)"
        );
    }

    #[test]
    fn bisect_zero_boundaries_is_empty() {
        let (first, probes) = bisect_first(0, |_| Ok::<bool, ()>(true)).unwrap();
        assert_eq!(first, None);
        assert_eq!(probes, 0);
    }

    #[test]
    fn bisect_propagates_probe_errors() {
        let err = bisect_first(16, |b| if b == 8 { Err("boom") } else { Ok(false) });
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn crash_sweep_is_consistent_on_a_clean_run() {
        let mut m = machine(30);
        let rec = Recording::capture(&mut m, 16, &[]);
        let report = crash_sweep(&rec, &mut m, &mut machine(30)).unwrap();
        assert!(report.is_consistent(), "{:?}", report.violations);
        assert_eq!(report.boundaries, rec.boundaries());
        assert_eq!(report.checkpoints, rec.checkpoint_count());
    }

    #[test]
    fn crash_sweep_is_consistent_across_injected_events() {
        let events = [Event {
            at: 50,
            action: EventAction::Write {
                addr: 0x7000,
                value: 0x1234,
            },
        }];
        let mut m = machine(30);
        let rec = Recording::capture(&mut m, 16, &events);
        let report = crash_sweep(&rec, &mut m, &mut machine(30)).unwrap();
        assert!(report.is_consistent(), "{:?}", report.violations);
    }

    #[test]
    fn crash_sweep_names_what_a_tampered_checkpoint_changed() {
        // A register, then a frame byte the program never touches: every
        // boundary served by the tampered checkpoint must report exactly
        // that component, and no other boundary may report anything.
        let mut m = machine(30);
        let pfn = m.space.gpfn_of(memsentry_mmu::VirtAddr(0x7000)).unwrap();
        type Tamper = fn(&mut Machine);
        let cases: [(Tamper, String, u64); 2] = [
            (|m| m.set_reg(Reg::R13, 0x5a), "r13".into(), 0x5a),
            (
                |m| assert!(m.space.poke(memsentry_mmu::VirtAddr(0x7103), &[0x5a])),
                format!("frame {pfn:#x} +0x100"),
                0x5a << 24,
            ),
        ];
        for (tamper, component, left) in cases {
            let mut m = machine(30);
            let mut rec = Recording::capture(&mut m, 16, &[]);
            assert!(rec.checkpoint_count() > 3);
            let (from, to) = (rec.checkpoint_boundaries[2], rec.checkpoint_boundaries[3]);
            m.restore(&rec.checkpoints[2]);
            tamper(&mut m);
            rec.checkpoints[2] = m.snapshot();
            let report = crash_sweep(&rec, &mut m, &mut machine(30)).unwrap();
            let expected: Vec<CrashViolation> = (from..to)
                .map(|boundary| CrashViolation {
                    boundary,
                    divergence: Divergence {
                        component: component.clone(),
                        left,
                        right: 0,
                    },
                })
                .collect();
            assert_eq!(report.violations, expected, "{component}");
            assert_eq!(
                report.violations[0].to_string(),
                format!("boundary {from}: {component} recovered {left:#x}, expected 0x0")
            );
        }
    }
}
