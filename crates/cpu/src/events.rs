//! Deterministic fault injection: asynchronous events at instruction
//! boundaries.
//!
//! Real systems deliver signals, preempt threads and fail allocations at
//! points the program cannot predict; the safe-region techniques must keep
//! the region closed across all of them (paper §3.1 discusses the domain
//! *window* — the span between opening and closing the region — as the
//! residual attack surface of crypto- and permission-based protection).
//! This module makes those asynchronous hazards reproducible: a seeded
//! [`EventSchedule`] is consulted by [`crate::Machine::step`] at every
//! instruction boundary and fires exactly once per event, so a run with a
//! given program, schedule and seed is bit-for-bit deterministic.
//!
//! Three event families are modelled:
//!
//! * **Signals** ([`EventAction::Signal`]): the machine pushes an
//!   architectural frame (registers, bound registers, program counter),
//!   optionally force-closes the protection domain to the technique's
//!   closed state (the [`DomainClosure`]), and enters the handler named by
//!   the installed [`SignalPolicy`]. The handler returns with the
//!   `sigreturn` system call ([`crate::kernel::nr::SIGRETURN`]), which
//!   pops the frame and reopens the domain exactly as it was.
//! * **Preemption** ([`EventAction::Preempt`]): the scheduler forcibly
//!   switches to a sibling thread for a quantum, optionally scrubbing
//!   shared domain state first (per-thread state such as `pkru` is saved
//!   and restored by the context switch itself, like the hardware does).
//! * **Faults** ([`EventAction::Write`], [`EventAction::FailAllocs`]): a
//!   single attacker write (the `memsentry-attacks` arbitrary-write
//!   primitive delivered asynchronously) or forced allocation failures
//!   surfacing as [`crate::Trap::OutOfMemory`].
//!
//! Beyond the sorted one-shot list, a schedule can carry **event
//! streams** ([`StreamSource`]): periodic sources (`signal every N
//! instructions`, bounded bursts via a firing limit) and compound
//! triggers (`deliver B at first(A) + k` — a nested signal k
//! instructions into a handler, an attacker write during a preemption
//! quantum). Streams are state machines with explicit cursors, fully
//! deterministic from their spec (plus, for jittered phases,
//! [`seeded_offsets`] over an explicit `u64` seed); the one-shot list is
//! the degenerate stream and keeps its exact firing order.

use memsentry_ir::FuncId;
use memsentry_mmu::diff::Walk;
use memsentry_mmu::{Pkru, Prot};

/// What an injected event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventAction {
    /// Deliver a simulated signal to the active thread via the installed
    /// [`SignalPolicy`]. Without a policy the event is dropped (like a
    /// signal with no handler registered and `SIG_IGN` disposition).
    Signal,
    /// Force a context switch to thread `to` for `quantum` instructions,
    /// then switch back. `scrub` selects whether the scheduler closes the
    /// shared domain state (the installed [`DomainClosure`]) around the
    /// preemption — the discipline a window-aware runtime must implement.
    /// Invalid targets (out of range, already-halted, the active thread)
    /// drop the event.
    Preempt {
        /// Thread id to run during the preemption.
        to: usize,
        /// Sibling instructions to execute before switching back.
        quantum: u64,
        /// Close the shared domain state around the preemption.
        scrub: bool,
    },
    /// A single asynchronous attacker write of `value` to `addr`,
    /// bypassing permission checks (the arbitrary-write primitive fired
    /// from a concurrent context). Writes to unmapped addresses are
    /// silently dropped, like a racing write that loses.
    Write {
        /// Target virtual address.
        addr: u64,
        /// 64-bit value written.
        value: u64,
    },
    /// Force the next `count` heap allocations to fail with
    /// [`crate::Trap::OutOfMemory`].
    FailAllocs {
        /// How many subsequent allocations fail.
        count: u64,
    },
}

/// The event family of a delivery — what compound
/// [`StreamSource::After`] triggers key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// A signal was delivered (not dropped or queued).
    Signal,
    /// A forced preemption actually switched threads.
    Preempt,
    /// An asynchronous write landed.
    Write,
    /// Forced allocation failures were granted.
    AllocFail,
}

impl TriggerKind {
    /// Display name used by CLI specs and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            TriggerKind::Signal => "signal",
            TriggerKind::Preempt => "preempt",
            TriggerKind::Write => "write",
            TriggerKind::AllocFail => "alloc-fail",
        }
    }
}

impl EventAction {
    /// The family this action belongs to.
    pub fn kind(&self) -> TriggerKind {
        match self {
            EventAction::Signal => TriggerKind::Signal,
            EventAction::Preempt { .. } => TriggerKind::Preempt,
            EventAction::Write { .. } => TriggerKind::Write,
            EventAction::FailAllocs { .. } => TriggerKind::AllocFail,
        }
    }
}

/// A recurring or conditional event source — the composable generalization
/// of the one-shot [`Event`] list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamSource {
    /// `action` fires at `phase`, `phase + period`, `phase + 2·period`, …
    /// for at most `limit` firings (`None` = unbounded; a bounded burst is
    /// `Every` with a small `limit` and `period` = the intra-burst gap).
    /// A period of 0 is normalized to 1. Occurrences the machine has
    /// already passed when the stream becomes due are skipped, never
    /// replayed: a stream fires at most once per boundary and its cursor
    /// strictly advances.
    Every {
        /// Instructions between firings (normalized to at least 1).
        period: u64,
        /// Retired-instruction index of the first firing.
        phase: u64,
        /// Total firings allowed (`None` = unbounded).
        limit: Option<u64>,
        /// What each firing does.
        action: EventAction,
    },
    /// One-shot compound trigger: `action` fires `delay` instructions
    /// after the **first actual delivery** of a `trigger`-kind event
    /// (dropped or queued deliveries do not arm it). With `delay == 0`
    /// the action fires at the same boundary, immediately after the
    /// arming delivery — e.g. a signal nested `delay` instructions into a
    /// handler, or an attacker write `delay` instructions into a
    /// preemption quantum.
    After {
        /// Which delivery family arms the trigger.
        trigger: TriggerKind,
        /// Instructions between the arming delivery and the firing.
        delay: u64,
        /// What fires.
        action: EventAction,
    },
}

impl StreamSource {
    /// The action the stream fires.
    pub fn action(&self) -> EventAction {
        match *self {
            StreamSource::Every { action, .. } | StreamSource::After { action, .. } => action,
        }
    }
}

/// Live cursor of one installed stream.
#[derive(Debug, Clone, PartialEq)]
struct StreamState {
    source: StreamSource,
    /// Firings so far.
    fired: u64,
    /// Next due boundary (`None` = exhausted, or an unarmed `After`).
    next: Option<u64>,
}

impl StreamState {
    fn new(mut source: StreamSource) -> Self {
        let next = match &mut source {
            StreamSource::Every {
                period,
                phase,
                limit,
                ..
            } => {
                *period = (*period).max(1);
                if *limit == Some(0) {
                    None
                } else {
                    Some(*phase)
                }
            }
            StreamSource::After { .. } => None,
        };
        Self {
            source,
            fired: 0,
            next,
        }
    }

    /// Whether the stream can still fire (counts toward pending events).
    /// An unarmed `After` is active: its trigger may still arrive.
    fn is_active(&self) -> bool {
        self.next.is_some()
            || (matches!(self.source, StreamSource::After { .. }) && self.fired == 0)
    }

    /// Marks one firing at boundary `now` and advances the cursor to the
    /// first occurrence strictly after `now`.
    fn advance(&mut self, now: u64) {
        self.fired += 1;
        self.next = match self.source {
            StreamSource::Every {
                period,
                phase,
                limit,
                ..
            } => {
                if limit.is_some_and(|l| self.fired >= l) {
                    None
                } else {
                    let elapsed = now.saturating_sub(phase).saturating_add(1);
                    let k = elapsed.div_ceil(period);
                    // Overflowing the boundary space exhausts the stream.
                    phase.checked_add(k.saturating_mul(period))
                }
            }
            StreamSource::After { .. } => None,
        };
    }
}

/// One scheduled event: `action` fires at the boundary *before* the
/// instruction that would retire as number `at` (so `at == 0` fires before
/// the first instruction and `at == stats.instructions` fires next).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Retired-instruction index the event fires at.
    pub at: u64,
    /// What happens.
    pub action: EventAction,
}

/// `count` deterministic pseudo-random offsets in `[lo, hi)` derived from
/// `seed` — the same seed always produces the same offsets. This is the
/// stream-spec counterpart of [`EventSchedule::seeded_signals`]; storm
/// builders use it to jitter stream phases.
pub fn seeded_offsets(seed: u64, count: usize, lo: u64, hi: u64) -> Vec<u64> {
    let span = hi.saturating_sub(lo).max(1);
    // SplitMix the seed so adjacent seeds diverge, then xorshift
    // (which needs a nonzero state) for the stream.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mut state = (state ^ (state >> 31)) | 1;
    (0..count)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            lo + state % span
        })
        .collect()
}

/// A deterministic schedule of injected events: a sorted one-shot list
/// plus any number of [`StreamSource`] streams.
///
/// One-shot events are sorted by instruction index at construction and
/// consumed in order; each fires exactly once, and everything due at a
/// boundary fires before any stream does (the one-shot list is the
/// degenerate stream, and keeps its exact pre-stream firing order).
/// Streams then fire in installation order, at most once each per
/// boundary. The schedule is consulted with a single comparison per
/// instruction, so an installed (even exhausted) schedule costs the hot
/// loop almost nothing.
#[derive(Debug, Clone, Default)]
pub struct EventSchedule {
    events: Vec<Event>,
    next: usize,
    streams: Vec<StreamState>,
}

impl EventSchedule {
    /// Builds a schedule from `events` (sorted internally; ties fire in
    /// the given order).
    pub fn new(events: Vec<Event>) -> Self {
        Self::with_streams(events, Vec::new())
    }

    /// Builds a schedule from one-shot `events` plus `streams` (fired in
    /// the given order when several are due at one boundary).
    pub fn with_streams(mut events: Vec<Event>, streams: Vec<StreamSource>) -> Self {
        events.sort_by_key(|e| e.at);
        Self {
            events,
            next: 0,
            streams: streams.into_iter().map(StreamState::new).collect(),
        }
    }

    /// Convenience: a single `action` at instruction index `at`.
    pub fn at(at: u64, action: EventAction) -> Self {
        Self::new(vec![Event { at, action }])
    }

    /// Appends a stream source to the schedule.
    pub fn add_stream(&mut self, source: StreamSource) {
        self.streams.push(StreamState::new(source));
    }

    /// `count` signal deliveries at deterministic pseudo-random indices in
    /// `[lo, hi)`, derived from `seed` with an xorshift generator — the
    /// same seed always produces the same schedule.
    pub fn seeded_signals(seed: u64, count: usize, lo: u64, hi: u64) -> Self {
        let events = seeded_offsets(seed, count, lo, hi)
            .into_iter()
            .map(|at| Event {
                at,
                action: EventAction::Signal,
            })
            .collect();
        Self::new(events)
    }

    /// Events and streams that can still fire: unfired one-shots plus
    /// every non-exhausted stream (an unarmed compound trigger counts —
    /// its trigger may still arrive).
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next + self.streams.iter().filter(|s| s.is_active()).count()
    }

    /// One-shot events not yet fired (past-end boundaries show up here
    /// after a run: the CLI warns about each).
    pub fn unfired(&self) -> &[Event] {
        &self.events[self.next..]
    }

    /// The installed streams with their firing counts, in installation
    /// order — CLI diagnostics report streams that never fired.
    pub fn streams(&self) -> impl Iterator<Item = (StreamSource, u64)> + '_ {
        self.streams.iter().map(|s| (s.source, s.fired))
    }

    /// Instruction index of the next unfired event, if any. After the
    /// machine has drained everything due at boundary `now` this is
    /// strictly greater than `now`, which is what makes it a safe
    /// execution *horizon*: no event can fire before it. Unarmed compound
    /// triggers impose no horizon — arming happens inside the machine's
    /// event poll, and an `After` armed at boundary `now` with a zero
    /// delay is drained by the same poll.
    pub(crate) fn next_at(&self) -> Option<u64> {
        let one_shot = self.events.get(self.next).map(|e| e.at);
        self.streams
            .iter()
            .filter_map(|s| s.next)
            .chain(one_shot)
            .min()
    }

    /// Pops every event due at instruction index `now` (one per call; the
    /// machine loops until `None`). One-shots drain first, in sorted
    /// order; streams follow in installation order, at most one firing
    /// per stream per boundary.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<EventAction> {
        if let Some(e) = self.events.get(self.next) {
            if e.at <= now {
                self.next += 1;
                return Some(e.action);
            }
        }
        for s in &mut self.streams {
            if s.next.is_some_and(|at| at <= now) {
                let action = s.source.action();
                s.advance(now);
                return Some(action);
            }
        }
        None
    }

    /// Notes an actual delivery of a `kind` event at boundary `now`,
    /// arming any matching unarmed [`StreamSource::After`] trigger at
    /// `now + delay`. Called by the machine after each successful
    /// delivery (dropped and queued events do not arm triggers).
    pub(crate) fn note_delivery(&mut self, kind: TriggerKind, now: u64) {
        for s in &mut self.streams {
            if let StreamSource::After { trigger, delay, .. } = s.source {
                if trigger == kind && s.fired == 0 && s.next.is_none() {
                    s.next = Some(now.saturating_add(delay));
                }
            }
        }
    }

    /// The stream cursors' part of the machine's state walk — a storm
    /// that has fired k times differs from one that has fired k+1: the
    /// stream count, then each stream's firings and next due boundary.
    /// An absent schedule walks like one with no streams, keeping clean
    /// runs comparable.
    pub(crate) fn walk_streams<W: Walk>(
        a: Option<&Self>,
        b: Option<&Self>,
        w: &mut W,
    ) -> Result<(), W::Stop> {
        let [a, b] = [a, b].map(|s| s.map_or(&[][..], |s| &s.streams[..]));
        w.word("streams", a.len() as u64, b.len() as u64)?;
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            w.word(format_args!("stream {i} fired"), x.fired, y.fired)?;
            w.opt(format_args!("stream {i} cursor"), x.next, y.next)?;
        }
        Ok(())
    }
}

/// How the simulated kernel delivers signals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalPolicy {
    /// Handler entry point. The handler runs on the interrupted thread's
    /// stack and must return with the `sigreturn` system call
    /// ([`crate::kernel::nr::SIGRETURN`]); halting inside the handler ends
    /// the process like `_exit` from a real handler would.
    pub handler: FuncId,
    /// Whether delivery force-closes the protection domain (the installed
    /// [`DomainClosure`]) before entering the handler. `false` models a
    /// broken runtime that leaves the window open — the regression case
    /// the fault campaign must flag as exposed.
    pub scrub: bool,
}

/// The technique's *closed* domain state, imposed when a window must be
/// force-closed (signal delivery, window-aware preemption) and reverted
/// when it reopens. Each field is the closed state for one technique;
/// unrelated fields stay `None`/`false` and are untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DomainClosure {
    /// MPK: `pkru` value with the safe region's key denied.
    pub pkru: Option<Pkru>,
    /// VMFUNC: EPT index of the view without the safe region.
    pub ept: Option<usize>,
    /// Page-table switch: view index without the safe region.
    pub view: Option<u16>,
    /// SGX: leave the enclave (`in_enclave = false`).
    pub enclave: bool,
    /// Crypt: `(base, chunks)` of the region to re-encrypt; staged `xmm`
    /// keys are also cleared (parked back in `ymm`).
    pub crypt: Option<(u64, u32)>,
    /// mprotect baseline: `(base, len)` to scrub to `PROT_NONE`.
    pub mprotect: Option<(u64, u64)>,
}

/// Architectural domain state captured by a forced closure, so the window
/// reopens exactly as it was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SavedDomain {
    pub(crate) pkru: Pkru,
    pub(crate) ept: Option<usize>,
    pub(crate) view: Option<u16>,
    pub(crate) in_enclave: bool,
    /// `(base, chunks)` re-encrypted on closure — decrypted on reopen.
    pub(crate) crypt: Option<(u64, u32)>,
    pub(crate) keys_in_xmm: bool,
    /// `(base, len, prot)` scrubbed to `PROT_NONE` — re-protected on
    /// reopen.
    pub(crate) mprotect: Option<(u64, u64, Prot)>,
}

/// A machine-side signal frame: what `sigreturn` pops.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SignalFrame {
    pub(crate) regs: [u64; 16],
    pub(crate) bnd: [(u64, u64); 4],
    pub(crate) pc: memsentry_ir::CodeAddr,
    pub(crate) last_masked: Option<memsentry_ir::Reg>,
    pub(crate) saved: Option<SavedDomain>,
}

/// In-flight forced preemption: who to resume and when.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreemptState {
    pub(crate) resume: usize,
    pub(crate) remaining: u64,
    pub(crate) saved: Option<SavedDomain>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sorts_and_fires_once() {
        let mut s = EventSchedule::new(vec![
            Event {
                at: 10,
                action: EventAction::Signal,
            },
            Event {
                at: 3,
                action: EventAction::FailAllocs { count: 1 },
            },
        ]);
        assert_eq!(s.remaining(), 2);
        assert_eq!(s.pop_due(2), None);
        assert_eq!(s.pop_due(3), Some(EventAction::FailAllocs { count: 1 }));
        assert_eq!(s.pop_due(3), None);
        assert_eq!(s.pop_due(50), Some(EventAction::Signal));
        assert_eq!(s.pop_due(50), None);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_in_range() {
        let a = EventSchedule::seeded_signals(42, 16, 100, 200);
        let b = EventSchedule::seeded_signals(42, 16, 100, 200);
        assert_eq!(a.events, b.events);
        assert!(a.events.iter().all(|e| (100..200).contains(&e.at)));
        let c = EventSchedule::seeded_signals(43, 16, 100, 200);
        assert_ne!(a.events, c.events, "different seeds differ");
    }

    #[test]
    fn periodic_stream_fires_on_schedule_and_respects_limit() {
        let mut s = EventSchedule::with_streams(
            Vec::new(),
            vec![StreamSource::Every {
                period: 10,
                phase: 5,
                limit: Some(3),
                action: EventAction::Signal,
            }],
        );
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.next_at(), Some(5));
        assert_eq!(s.pop_due(4), None);
        assert_eq!(s.pop_due(5), Some(EventAction::Signal));
        assert_eq!(s.pop_due(5), None, "at most one firing per boundary");
        assert_eq!(s.next_at(), Some(15));
        assert_eq!(s.pop_due(15), Some(EventAction::Signal));
        assert_eq!(s.pop_due(25), Some(EventAction::Signal));
        assert_eq!(s.pop_due(35), None, "limit exhausts the stream");
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.next_at(), None);
    }

    #[test]
    fn missed_occurrences_are_skipped_not_replayed() {
        let mut s = EventSchedule::with_streams(
            Vec::new(),
            vec![StreamSource::Every {
                period: 10,
                phase: 0,
                limit: None,
                action: EventAction::Signal,
            }],
        );
        // First poll happens at boundary 37: one catch-up firing, then
        // the cursor lands on the next future occurrence (40), not 10.
        assert_eq!(s.pop_due(37), Some(EventAction::Signal));
        assert_eq!(s.pop_due(37), None);
        assert_eq!(s.next_at(), Some(40));
    }

    #[test]
    fn zero_period_is_normalized_and_still_advances() {
        let mut s = EventSchedule::with_streams(
            Vec::new(),
            vec![StreamSource::Every {
                period: 0,
                phase: 0,
                limit: None,
                action: EventAction::Signal,
            }],
        );
        assert_eq!(s.pop_due(0), Some(EventAction::Signal));
        assert_eq!(s.pop_due(0), None);
        assert_eq!(s.next_at(), Some(1));
    }

    #[test]
    fn one_shots_drain_before_streams_at_a_tied_boundary() {
        let mut s = EventSchedule::with_streams(
            vec![Event {
                at: 5,
                action: EventAction::FailAllocs { count: 1 },
            }],
            vec![StreamSource::Every {
                period: 5,
                phase: 5,
                limit: Some(1),
                action: EventAction::Signal,
            }],
        );
        assert_eq!(s.pop_due(5), Some(EventAction::FailAllocs { count: 1 }));
        assert_eq!(s.pop_due(5), Some(EventAction::Signal));
        assert_eq!(s.pop_due(5), None);
    }

    #[test]
    fn after_trigger_arms_on_first_matching_delivery_only() {
        let mut s = EventSchedule::with_streams(
            Vec::new(),
            vec![StreamSource::After {
                trigger: TriggerKind::Signal,
                delay: 3,
                action: EventAction::Write {
                    addr: 0x100,
                    value: 7,
                },
            }],
        );
        // Unarmed: no horizon, nothing due, but still pending.
        assert_eq!(s.next_at(), None);
        assert_eq!(s.pop_due(100), None);
        assert_eq!(s.remaining(), 1);
        s.note_delivery(TriggerKind::Preempt, 10);
        assert_eq!(s.next_at(), None, "non-matching kinds do not arm");
        s.note_delivery(TriggerKind::Signal, 10);
        assert_eq!(s.next_at(), Some(13));
        s.note_delivery(TriggerKind::Signal, 11);
        assert_eq!(s.next_at(), Some(13), "only the first delivery arms");
        assert_eq!(s.pop_due(12), None);
        assert_eq!(
            s.pop_due(13),
            Some(EventAction::Write {
                addr: 0x100,
                value: 7
            })
        );
        assert_eq!(s.pop_due(50), None, "compound triggers fire once");
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn zero_delay_after_fires_at_the_arming_boundary() {
        let mut s = EventSchedule::with_streams(
            Vec::new(),
            vec![StreamSource::After {
                trigger: TriggerKind::Preempt,
                delay: 0,
                action: EventAction::Signal,
            }],
        );
        s.note_delivery(TriggerKind::Preempt, 42);
        assert_eq!(s.pop_due(42), Some(EventAction::Signal));
    }

    #[test]
    fn seeded_offsets_are_reproducible_and_feed_seeded_signals() {
        let a = seeded_offsets(42, 16, 100, 200);
        assert_eq!(a, seeded_offsets(42, 16, 100, 200));
        assert!(a.iter().all(|&o| (100..200).contains(&o)));
        let sig = EventSchedule::seeded_signals(42, 16, 100, 200);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sig.events.iter().map(|e| e.at).collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn unfired_reports_the_untouched_suffix() {
        let mut s = EventSchedule::new(vec![
            Event {
                at: 3,
                action: EventAction::Signal,
            },
            Event {
                at: 900,
                action: EventAction::Signal,
            },
        ]);
        assert_eq!(s.pop_due(10), Some(EventAction::Signal));
        assert_eq!(s.pop_due(10), None);
        assert_eq!(s.unfired().len(), 1);
        assert_eq!(s.unfired()[0].at, 900);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut s = EventSchedule::new(vec![
            Event {
                at: 5,
                action: EventAction::Signal,
            },
            Event {
                at: 5,
                action: EventAction::FailAllocs { count: 2 },
            },
        ]);
        assert_eq!(s.pop_due(5), Some(EventAction::Signal));
        assert_eq!(s.pop_due(5), Some(EventAction::FailAllocs { count: 2 }));
    }
}
