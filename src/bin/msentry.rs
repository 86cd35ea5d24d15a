//! `msentry` — the command-line front end to the MemSentry framework.
//!
//! Works on textual IR listings (the format `memsentry-ir`'s printer and
//! parser share). Subcommands:
//!
//! ```text
//! msentry run <file>                         execute a listing
//!   [--fuel N]                               trap with a distinct "out of
//!                                            fuel" diagnostic (exit 2)
//!                                            after N retired instructions
//!   [--inject SPEC]...                       inject asynchronous events:
//!                                            signal@N, preempt@N:TO,QUANTUM,
//!                                            write@N:ADDR,VALUE,
//!                                            alloc-fail@N:COUNT (N = retired-
//!                                            instruction boundary); or event
//!                                            STREAMS — KIND@every:PERIOD[,ARGS]
//!                                            (recurring, first firing at
//!                                            PERIOD), KIND@burst:AT,COUNT,GAP
//!                                            [,ARGS] (COUNT firings GAP apart
//!                                            starting at AT), and
//!                                            KIND@after:TRIGGER+DELAY[,ARGS]
//!                                            (compound: fires DELAY insts
//!                                            after the first actual delivery
//!                                            of a TRIGGER-kind event) — with
//!                                            the same per-kind ARGS as the
//!                                            one-shot forms
//!   [--storm-seed S]                         deterministically jitter every
//!                                            recurring (every:) stream's
//!                                            phase by a seeded offset in
//!                                            [0, PERIOD) — same S, same storm
//!   [--handler FN] [--no-scrub]              signal handler function index;
//!                                            scrubbed delivery unless
//!                                            --no-scrub
//!   [--op-stats]                             step the per-instruction
//!                                            interpreter recording the
//!                                            retired op-pair histogram
//!                                            (the measurement behind the
//!                                            threaded engine's fusion set)
//!                                            and print the top sequential
//!                                            pairs after the run
//! msentry instrument <file> -t <technique> -a <application>
//!                                            print the instrumented listing
//! msentry protect <file> -t <technique> -a <application>
//!                                            instrument AND run (accepts the
//!                                            same --fuel/--inject options;
//!                                            scrubbed delivery closes to the
//!                                            technique's domain closure)
//! msentry replay <file> --at N               record the run once (checkpoint
//!                                            stream + event schedule), rewind
//!                                            bit-exactly to boundary N, and
//!                                            print architectural state,
//!                                            domain-window status and stats
//!   [-t <technique> [-a <application>]]      instrument + prepare like
//!                                            `protect` before recording
//!   [--fuel N] [--inject SPEC]...            same options as `run`; injected
//!   [--handler FN] [--no-scrub]              events are part of the recording
//!                                            and replay deterministically
//!   [--spacing K]                            checkpoint every K boundaries
//!                                            (default 64)
//!   [--bisect]                               binary-search the first boundary
//!                                            where the --inject event (its @N
//!                                            — or a recurring stream's phase —
//!                                            re-aimed per probe) leaves the
//!                                            mailbox holding the secret;
//!                                            after: specs are rejected (their
//!                                            firing is keyed to a delivery,
//!                                            not a boundary)
//!   [--mailbox ADDR] [--secret VALUE]        exposure oracle for --bisect
//!                                            (defaults: the fault campaign's
//!                                            mailbox/secret)
//!   [--crash-sweep]                          inject a crash at every boundary
//!                                            (drop live state, recover from
//!                                            the nearest checkpoint) and
//!                                            compare the recovered machine
//!                                            with a crash-free reference
//!                                            machine; a violation names the
//!                                            first component that differs
//! msentry check <file> [--address r|w|rw]    parse + verify + isolation
//!                                            soundness analysis (domain
//!                                            windows — interprocedural via
//!                                            per-function summaries — ERIM
//!                                            gadget scan, register
//!                                            discipline; --address
//!                                            additionally requires SFI/MPX
//!                                            checks on loads/stores)
//!   [--json]                                 structured findings + static
//!                                            window exposure bounds (schema
//!                                            in DESIGN.md)
//!   [--exposure]                             append per-window worst-case
//!                                            static exposure bounds
//!   [--summaries]                            append per-function summaries
//!                                            (open-safe, exit events,
//!                                            write sets)
//! msentry techniques                         list techniques (Table 3)
//! ```
//!
//! Example listing (`demo.ms`):
//!
//! ```text
//! fn0 <main>:
//!     mov    rbx, 0x400000000000
//!     mov    r12, 0x2a
//!   ! mov    [rbx+0x0], r12
//!   ! mov    rax, [rbx+0x0]
//!     hlt
//! ```

use std::process::ExitCode;

use memsentry_repro::attacks::campaign;
use memsentry_repro::check::{
    check_json, check_program, exposure_windows, AddressPolicy, CheckPolicy, Summaries,
};
use memsentry_repro::cpu::cost::CostModel;
use memsentry_repro::cpu::replay::{bisect_first, crash_sweep, Recording, ReplayError};
use memsentry_repro::cpu::{
    seeded_offsets, tally_run, Event, EventAction, EventSchedule, Machine, RunOutcome,
    SignalPolicy, StreamSource, Trap, TriggerKind,
};
use memsentry_repro::ir::{parse_program, print::format_program, verify, FuncId, Program, Reg};
use memsentry_repro::memsentry::{Application, MemSentry, Technique};
use memsentry_repro::mmu::{VirtAddr, SENSITIVE_BASE, VA_BITS};

fn technique_from(name: &str) -> Option<Technique> {
    Some(match name.to_ascii_lowercase().as_str() {
        "sfi" => Technique::Sfi,
        "mpx" => Technique::Mpx,
        "mpk" => Technique::Mpk,
        "vmfunc" => Technique::Vmfunc,
        "crypt" => Technique::Crypt,
        "sgx" => Technique::Sgx,
        "mprotect" => Technique::MprotectBaseline,
        "pts" => Technique::PageTableSwitch,
        "info-hiding" | "hiding" => Technique::InfoHiding,
        _ => return None,
    })
}

fn application_from(name: &str) -> Option<Application> {
    Some(match name.to_ascii_lowercase().as_str() {
        "code-randomization" => Application::CodeRandomization,
        "cfi" => Application::Cfi,
        "shadow-stack" => Application::ShadowStack,
        "cpi" => Application::Cpi,
        "layout-randomization" => Application::LayoutRandomization,
        "heap" | "heap-protection" => Application::HeapProtection,
        "data" | "program-data" => Application::ProgramData,
        _ => return None,
    })
}

fn load(path: &str) -> Result<Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let program = parse_program(&text).map_err(|e| format!("{path}: {e}"))?;
    verify(&program).map_err(|e| format!("{path}: verification failed: {e}"))?;
    Ok(program)
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_values(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .cloned()
        .collect()
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let s = s.trim();
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("bad number '{s}'"))
}

/// `--region <bytes>`, decimal or `0x` hex like every numeric flag;
/// 4096 when absent. The region must fit in the sensitive partition it
/// is allocated from, which also keeps every rounding of its length
/// from overflowing. Anything else is rejected with a diagnostic.
fn region_flag(args: &[String]) -> Result<u64, ExitCode> {
    const MAX: u64 = (1 << VA_BITS) - SENSITIVE_BASE;
    match flag(args, "--region") {
        None => Ok(4096),
        Some(s) => parse_u64(&s).ok().filter(|&len| len <= MAX).ok_or_else(|| {
            eprintln!("bad --region '{s}' (want a byte count up to {MAX:#x}, decimal or 0x hex)");
            ExitCode::FAILURE
        }),
    }
}

/// One parsed `--inject` spec: a one-shot event or a stream source.
#[derive(Clone, Copy)]
enum InjectSpec {
    /// `KIND@N[:ARGS]` — fires once at a retired-instruction boundary.
    Once(Event),
    /// `KIND@every:…`, `KIND@burst:…`, `KIND@after:…`.
    Stream(StreamSource),
}

/// Parses one `--inject` spec: a one-shot event at a retired-instruction
/// boundary (`KIND@INDEX[:ARGS]`) or a stream (`KIND@every:PERIOD[,ARGS]`,
/// `KIND@burst:AT,COUNT,GAP[,ARGS]`, `KIND@after:TRIGGER+DELAY[,ARGS]`).
fn parse_inject(spec: &str) -> Result<InjectSpec, String> {
    let bad = || {
        format!(
            "bad inject spec '{spec}' (try: signal@N, preempt@N:TO,QUANTUM, \
             write@N:ADDR,VALUE, alloc-fail@N:COUNT; streams: KIND@every:PERIOD[,ARGS], \
             KIND@burst:AT,COUNT,GAP[,ARGS], KIND@after:TRIGGER+DELAY[,ARGS])"
        )
    };
    // Funnel every numeric field through this so a malformed number —
    // trailing garbage (`signal@5x`), an overflowing index, an empty
    // field — surfaces as the full "bad inject spec" diagnostic with the
    // spec grammar, not a bare "bad number".
    let num = |s: &str| parse_u64(s).map_err(|_| bad());
    let (kind, rest) = spec.split_once('@').ok_or_else(bad)?;
    // Every spec shape funnels its per-kind trailing fields through this,
    // so one-shot and stream forms share one argument grammar.
    let action = |fields: &[&str]| -> Result<EventAction, String> {
        Ok(match (kind, fields) {
            ("signal", []) => EventAction::Signal,
            ("preempt", [to, quantum]) => EventAction::Preempt {
                to: num(to)? as usize,
                quantum: num(quantum)?,
                scrub: true,
            },
            ("write", [addr, value]) => EventAction::Write {
                addr: num(addr)?,
                value: num(value)?,
            },
            ("alloc-fail", [count]) => EventAction::FailAllocs { count: num(count)? },
            _ => return Err(bad()),
        })
    };
    if let Some(body) = rest.strip_prefix("every:") {
        let fields: Vec<&str> = body.split(',').collect();
        let [period, args @ ..] = fields.as_slice() else {
            return Err(bad());
        };
        return Ok(InjectSpec::Stream(StreamSource::Every {
            period: num(period)?.max(1),
            // First firing one full period in; --storm-seed jitters this.
            phase: num(period)?.max(1),
            limit: None,
            action: action(args)?,
        }));
    }
    if let Some(body) = rest.strip_prefix("burst:") {
        let fields: Vec<&str> = body.split(',').collect();
        let [at, count, gap, args @ ..] = fields.as_slice() else {
            return Err(bad());
        };
        return Ok(InjectSpec::Stream(StreamSource::Every {
            period: num(gap)?.max(1),
            phase: num(at)?,
            limit: Some(num(count)?),
            action: action(args)?,
        }));
    }
    if let Some(body) = rest.strip_prefix("after:") {
        let (head, args) = match body.split_once(',') {
            Some((head, args)) => (head, Some(args)),
            None => (body, None),
        };
        let (trigger, delay) = head.split_once('+').ok_or_else(bad)?;
        let trigger = match trigger {
            "signal" => TriggerKind::Signal,
            "preempt" => TriggerKind::Preempt,
            "write" => TriggerKind::Write,
            "alloc-fail" => TriggerKind::AllocFail,
            _ => return Err(bad()),
        };
        let fields: Vec<&str> = args.map(|a| a.split(',').collect()).unwrap_or_default();
        return Ok(InjectSpec::Stream(StreamSource::After {
            trigger,
            delay: num(delay)?,
            action: action(&fields)?,
        }));
    }
    let (at, args) = match rest.split_once(':') {
        Some((at, args)) => (num(at)?, Some(args)),
        None => (num(rest)?, None),
    };
    let fields: Vec<&str> = args.map(|a| a.split(',').collect()).unwrap_or_default();
    Ok(InjectSpec::Once(Event {
        at,
        action: action(&fields)?,
    }))
}

/// Renders a spec the way the user would write it, for the unfired-event
/// warnings.
fn describe_stream(s: &StreamSource) -> String {
    match *s {
        StreamSource::Every {
            period,
            phase,
            limit: None,
            action,
        } => format!("{}@every:{period} (phase {phase})", action.kind().name()),
        StreamSource::Every {
            period,
            phase,
            limit: Some(n),
            action,
        } => format!("{}@burst:{phase},{n},{period}", action.kind().name()),
        StreamSource::After {
            trigger,
            delay,
            action,
        } => format!("{}@after:{}+{delay}", action.kind().name(), trigger.name()),
    }
}

/// Run-time options shared by `run` and `protect`.
#[derive(Default)]
struct RunOptions {
    fuel: Option<u64>,
    specs: Vec<InjectSpec>,
    handler: Option<FuncId>,
    scrub: bool,
    op_stats: bool,
}

impl RunOptions {
    fn from_args(args: &[String]) -> Result<Self, String> {
        let fuel = match flag(args, "--fuel") {
            Some(n) => Some(parse_u64(&n)?),
            None => None,
        };
        let mut specs = flag_values(args, "--inject")
            .iter()
            .map(|s| parse_inject(s))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(seed) = flag(args, "--storm-seed") {
            let seed = parse_u64(&seed)?;
            // Jitter each recurring stream's phase by a seeded offset in
            // [0, period) — bursts and compound triggers keep their exact
            // user-given anchor.
            let mut nth = 0u64;
            for spec in &mut specs {
                if let InjectSpec::Stream(StreamSource::Every {
                    period,
                    phase,
                    limit: None,
                    ..
                }) = spec
                {
                    *phase += seeded_offsets(seed.wrapping_add(nth), 1, 0, *period)[0];
                    nth += 1;
                }
            }
        }
        let handler = match flag(args, "--handler") {
            Some(n) => Some(FuncId(parse_u64(&n)? as u32)),
            None => None,
        };
        Ok(Self {
            fuel,
            specs,
            handler,
            scrub: !args.iter().any(|a| a == "--no-scrub"),
            op_stats: args.iter().any(|a| a == "--op-stats"),
        })
    }

    /// The one-shot events among the parsed specs, in spec order.
    fn events(&self) -> Vec<Event> {
        self.specs
            .iter()
            .filter_map(|s| match s {
                InjectSpec::Once(e) => Some(*e),
                InjectSpec::Stream(_) => None,
            })
            .collect()
    }

    /// The stream sources among the parsed specs, in spec order.
    fn streams(&self) -> Vec<StreamSource> {
        self.specs
            .iter()
            .filter_map(|s| match s {
                InjectSpec::Once(_) => None,
                InjectSpec::Stream(src) => Some(*src),
            })
            .collect()
    }
}

/// Rejects a `--handler` that names a function the listing does not
/// define — up front, with the available functions, instead of trapping
/// mid-run on the first delivery.
fn validate_handler(program: &Program, handler: Option<FuncId>) -> Result<(), String> {
    let Some(h) = handler else { return Ok(()) };
    if (h.0 as usize) < program.functions.len() {
        return Ok(());
    }
    let have: Vec<String> = program
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| format!("fn{i} <{}>", f.name))
        .collect();
    Err(format!(
        "--handler fn{}: no such function in the listing (have: {})",
        h.0,
        have.join(", ")
    ))
}

fn run_machine(framework: Option<&MemSentry>, program: Program, opts: &RunOptions) -> ExitCode {
    let mut machine = Machine::new(program);
    if let Some(fw) = framework {
        if let Err(e) = fw.prepare_machine(&mut machine) {
            eprintln!("prepare failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(fuel) = opts.fuel {
        machine.set_fuel(fuel);
    }
    if !opts.specs.is_empty() {
        machine.set_event_schedule(EventSchedule::with_streams(opts.events(), opts.streams()));
        if let Some(fw) = framework {
            machine.set_domain_closure(fw.signal_closure());
        }
    }
    if let Some(handler) = opts.handler {
        machine.set_signal_policy(SignalPolicy {
            handler,
            scrub: opts.scrub,
        });
    }
    let outcome = if opts.op_stats {
        // Profiling steps the per-instruction interpreter (`tally_run`),
        // which retires the same stream as `run` — so the histogram is
        // exact and the exit/trap reporting below stays identical.
        let (tally, trap) = tally_run(&mut machine);
        print_op_stats(&tally);
        match trap {
            Some(t) => RunOutcome::Trapped(t),
            None => RunOutcome::Exited(machine.exit_code().unwrap_or(0)),
        }
    } else {
        machine.run()
    };
    let stats = machine.stats();
    if stats.signals > 0 || stats.preemptions > 0 {
        println!(
            "delivered {} signal(s), {} preemption(s)",
            stats.signals, stats.preemptions
        );
    }
    // The injection post-mortem: anything scheduled that never happened
    // is almost always a mis-aimed spec, so say so loudly.
    if let Some(schedule) = machine.event_schedule() {
        for e in schedule.unfired() {
            eprintln!(
                "warning: injected event {}@{} never fired (run ended at boundary {})",
                e.action.kind().name(),
                e.at,
                stats.instructions
            );
        }
        for (source, fired) in schedule.streams() {
            if fired == 0 {
                eprintln!(
                    "warning: injected stream {} never fired (run ended at boundary {})",
                    describe_stream(&source),
                    stats.instructions
                );
            }
        }
    }
    if stats.dropped_events > 0 {
        eprintln!(
            "warning: {} event(s) fired but could not be delivered (dropped)",
            stats.dropped_events
        );
    }
    match outcome {
        RunOutcome::Exited(code) => {
            println!(
                "exited with {code:#x} after {} instructions ({:.0} cycles)",
                stats.instructions,
                machine.cycles()
            );
            ExitCode::SUCCESS
        }
        RunOutcome::Trapped(Trap::OutOfFuel) => {
            eprintln!(
                "out of fuel: {} instructions retired without halting (raise --fuel)",
                stats.instructions
            );
            ExitCode::from(2)
        }
        RunOutcome::Trapped(t) => {
            println!("trapped: {t}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the retired op-pair histogram recorded by `--op-stats`: totals,
/// the sequential/control-transfer split, and the top sequential pairs
/// with their share of retired instructions (the same shares the bench
/// profiler prints, so the fusion-set table in EXPERIMENTS.md can be
/// cross-checked against any hand-written listing).
fn print_op_stats(tally: &memsentry_repro::cpu::OpPairTally) {
    let total = tally.total();
    let seq = tally.total_sequential();
    let xfer = tally.total_transfer();
    println!(
        "op-stats: {total} instruction(s) retired; {seq} sequential pair(s), \
         {xfer} across control transfers"
    );
    for p in tally.top_sequential(10) {
        println!(
            "    {:<22} {:>9}  {:>5.1}%",
            format!("{}+{}", p.first.name(), p.second.name()),
            p.count,
            100.0 * p.count as f64 / total.max(1) as f64
        );
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: msentry <run|replay|check|instrument|protect|techniques> [<file>] \
         [-t <technique>] [-a <application>] [--region <bytes>] [--address <r|w|rw>] \
         [--json] [--exposure] [--summaries] \
         [--fuel <n>] [--inject <spec>]... [--storm-seed <s>] [--handler <fn>] [--no-scrub] \
         [--op-stats] \
         [--at <boundary>] [--spacing <k>] [--bisect] [--mailbox <addr>] \
         [--secret <value>] [--crash-sweep]"
    );
    ExitCode::FAILURE
}

/// The `replay` subcommand: record the run once (checkpoint stream plus
/// event schedule), then rewind to a boundary, bisect exposure, or sweep
/// crash recovery over every boundary.
fn replay_cmd(args: &[String], mut program: Program, opts: &RunOptions) -> ExitCode {
    // With -t the listing is instrumented and prepared exactly like
    // `protect`, so the recording has real domain windows to inspect.
    let framework = match flag(args, "-t").as_deref().map(technique_from) {
        Some(Some(technique)) => {
            let application = match flag(args, "-a").as_deref().map(application_from) {
                Some(Some(a)) => a,
                None => Application::ProgramData,
                Some(None) => {
                    eprintln!("unknown -a <application> (try: shadow-stack, cfi, cpi, heap, data)");
                    return ExitCode::FAILURE;
                }
            };
            let region = match region_flag(args) {
                Ok(region) => region,
                Err(code) => return code,
            };
            let fw = MemSentry::new(technique, region);
            if let Err(e) = fw.instrument(&mut program, application) {
                eprintln!("instrumentation failed: {e}");
                return ExitCode::FAILURE;
            }
            Some(fw)
        }
        Some(None) => {
            eprintln!(
                "unknown -t <technique> (try: mpk, mpx, sfi, vmfunc, crypt, sgx, mprotect, pts)"
            );
            return ExitCode::FAILURE;
        }
        None => None,
    };
    let bisect = args.iter().any(|a| a == "--bisect");
    let build = || replay_machine(&program, framework.as_ref(), opts, bisect);
    let mut m = match build() {
        Ok(m) => m,
        Err(code) => return code,
    };
    let spacing = match flag(args, "--spacing") {
        Some(s) => match parse_u64(&s) {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("bad --spacing '{s}' (want a positive boundary count)");
                return ExitCode::FAILURE;
            }
        },
        None => 64,
    };
    let rec = Recording::capture(&mut m, spacing, &[]);
    eprintln!(
        "recorded {} boundaries, {} checkpoint(s), spacing {spacing}",
        rec.boundaries(),
        rec.checkpoint_count()
    );
    match rec.outcome() {
        RunOutcome::Exited(code) => eprintln!("recorded run exits with {code:#x}"),
        RunOutcome::Trapped(Trap::OutOfFuel) => eprintln!(
            "recorded run is out of fuel after {} instructions (raise --fuel)",
            rec.boundaries()
        ),
        RunOutcome::Trapped(t) => eprintln!("recorded run traps: {t}"),
    }
    if args.iter().any(|a| a == "--crash-sweep") {
        // The reference machine, built exactly like the recorded one.
        return match build() {
            Ok(mut reference) => run_crash_sweep(&rec, &mut m, &mut reference),
            Err(code) => code,
        };
    }
    if bisect {
        return run_bisect(args, &rec, &mut m, opts);
    }
    match flag(args, "--at") {
        Some(at) => {
            let at = match parse_u64(&at) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = rec.seek(&mut m, at) {
                eprintln!("replay: {e}");
                return ExitCode::FAILURE;
            }
            print_state(&m, &rec, at);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("replay needs one of --at <boundary>, --bisect, --crash-sweep");
            ExitCode::FAILURE
        }
    }
}

/// Builds and configures the machine `replay` records: prepared under the
/// framework (if any), with its fuel, signal policy and — except under
/// `--bisect`, which records the *clean* run and injects per probe — the
/// `--inject` schedule (one-shots and streams alike) baked into the
/// recording; checkpoints carry the schedule cursors, so seeks land
/// mid-storm bit-exactly. `--crash-sweep` calls it twice: once for the
/// recorded machine, once for the reference.
fn replay_machine(
    program: &Program,
    framework: Option<&MemSentry>,
    opts: &RunOptions,
    bisect: bool,
) -> Result<Machine, ExitCode> {
    let mut m = Machine::new(program.clone());
    if let Some(fw) = framework {
        if let Err(e) = fw.prepare_machine(&mut m) {
            eprintln!("prepare failed: {e}");
            return Err(ExitCode::FAILURE);
        }
        m.set_domain_closure(fw.signal_closure());
    }
    if let Some(fuel) = opts.fuel {
        m.set_fuel(fuel);
    }
    if let Some(handler) = opts.handler {
        m.set_signal_policy(SignalPolicy {
            handler,
            scrub: opts.scrub,
        });
    }
    if !bisect && !opts.specs.is_empty() {
        m.set_event_schedule(EventSchedule::with_streams(opts.events(), opts.streams()));
    }
    Ok(m)
}

/// Prints architectural state, domain-window status and stats of the
/// machine rewound to boundary `at`.
fn print_state(m: &Machine, rec: &Recording, at: u64) {
    let pc = m.pc();
    println!(
        "boundary {at} of {}: {} instructions retired, {:.0} cycles",
        rec.boundaries(),
        m.stats().instructions,
        m.cycles()
    );
    println!(
        "pc fn{} <{}> +{}{}",
        pc.func.0,
        m.program().func(pc.func).name,
        pc.index,
        if m.is_halted() { " (halted)" } else { "" }
    );
    for row in Reg::ALL.chunks(4) {
        let cells: Vec<String> = row
            .iter()
            .map(|&r| format!("{r}={:#018x}", m.reg(r)))
            .collect();
        println!("  {}", cells.join("  "));
    }
    println!(
        "domain: pkru={:#010x} in_vm={} in_enclave={}",
        m.space.pkru.0,
        m.in_vm(),
        m.in_enclave()
    );
    println!(
        "events: pending={} signal_depth={} preempt_active={}",
        m.pending_events(),
        m.signal_depth(),
        m.preempt_active()
    );
    let s = m.stats();
    println!(
        "stats: loads={} stores={} calls={} syscalls={} wrpkrus={} vmfuncs={} \
         aes_chunks={} sgx_transitions={} signals={} preemptions={}",
        s.loads,
        s.stores,
        s.calls,
        s.syscalls,
        s.wrpkrus,
        s.vmfuncs,
        s.aes_chunks,
        s.sgx_transitions,
        s.signals,
        s.preemptions
    );
    println!("state digest {:#018x}", m.state_digest());
}

/// Drives the crash-consistency sweep and renders the report: one line
/// per violating boundary, naming the first component that differs.
fn run_crash_sweep(rec: &Recording, m: &mut Machine, reference: &mut Machine) -> ExitCode {
    match crash_sweep(rec, m, reference) {
        Ok(report) if report.is_consistent() => {
            println!(
                "crash sweep: {} boundaries, {} checkpoint(s), every recovery bit-exact",
                report.boundaries, report.checkpoints
            );
            ExitCode::SUCCESS
        }
        Ok(report) => {
            for v in &report.violations {
                println!("{v}");
            }
            eprintln!(
                "crash sweep: {} recovery violation(s)",
                report.violations.len()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("crash sweep failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Binary-searches the first boundary where the injected event leaves the
/// mailbox holding the secret — the fault campaign's exposure oracle.
fn run_bisect(args: &[String], rec: &Recording, m: &mut Machine, opts: &RunOptions) -> ExitCode {
    let Some(template) = opts.specs.first().copied() else {
        eprintln!(
            "--bisect needs an --inject spec; its @N (or a stream's phase) is \
             re-aimed at every probed boundary"
        );
        return ExitCode::FAILURE;
    };
    if let InjectSpec::Stream(StreamSource::After { .. }) = template {
        eprintln!(
            "--bisect cannot re-aim an after: spec (it fires relative to a \
             delivery, not a boundary); bisect the trigger stream instead"
        );
        return ExitCode::FAILURE;
    }
    let mailbox = match flag(args, "--mailbox").as_deref().map(parse_u64) {
        Some(Ok(a)) => a,
        Some(Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        None => campaign::MAILBOX,
    };
    let secret = match flag(args, "--secret").as_deref().map(parse_u64) {
        Some(Ok(v)) => v,
        Some(Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        None => campaign::SECRET,
    };
    let n = rec.boundaries();
    let result = bisect_first(n, |b| {
        rec.seek(m, b)?;
        let schedule = match template {
            InjectSpec::Once(mut event) => {
                event.at = rec.start() + b;
                EventSchedule::new(vec![event])
            }
            // A recurring/burst stream is re-phased so its first firing
            // lands exactly at the probed boundary.
            InjectSpec::Stream(StreamSource::Every {
                period,
                limit,
                action,
                ..
            }) => EventSchedule::with_streams(
                Vec::new(),
                vec![StreamSource::Every {
                    period,
                    phase: rec.start() + b,
                    limit,
                    action,
                }],
            ),
            InjectSpec::Stream(StreamSource::After { .. }) => unreachable!("rejected above"),
        };
        m.set_event_schedule(schedule);
        // A trapped probe counts as "not exposed" unless the mailbox
        // already holds the secret at the trap point.
        let _ = m.run();
        let mut buf = [0u8; 8];
        m.space.peek(VirtAddr(mailbox), &mut buf);
        Ok::<bool, ReplayError>(u64::from_le_bytes(buf) == secret)
    });
    match result {
        Ok((Some(first), probes)) => {
            println!("first exposed boundary: {first} (of {n}; {probes} probes vs {n} linear)");
            ExitCode::SUCCESS
        }
        Ok((None, probes)) => {
            println!("no exposed boundary in 0..{n} ({probes} probes)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bisect failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return usage();
    };
    match cmd {
        "techniques" => {
            println!("{}", memsentry_bench::tables::table3());
            println!("plus extensions: PTS (page-table switching, PCID)");
            ExitCode::SUCCESS
        }
        "run" | "replay" | "check" | "instrument" | "protect" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let mut program = match load(path) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            if cmd == "check" {
                let policy = if args.iter().any(|a| a == "--address") {
                    match flag(&args, "--address").as_deref() {
                        Some("r") => CheckPolicy::address_checked(AddressPolicy::READS),
                        Some("w") => CheckPolicy::address_checked(AddressPolicy::WRITES),
                        Some("rw") => CheckPolicy::address_checked(AddressPolicy::READ_WRITE),
                        Some(other) => {
                            eprintln!("unknown --address mode '{other}' (try: r, w, rw)");
                            return ExitCode::FAILURE;
                        }
                        None => {
                            eprintln!("--address requires a mode (try: r, w, rw)");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    CheckPolicy::universal()
                };
                let report = check_program(&program, &policy);
                let status = if report.is_clean() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
                if args.iter().any(|a| a == "--json") {
                    let windows = exposure_windows(&program, &CostModel::default());
                    println!("{}", check_json(path, &program, &report, &windows));
                    return status;
                }
                if report.is_clean() {
                    println!(
                        "{path}: ok ({} functions, {} instructions)",
                        program.functions.len(),
                        program.inst_count()
                    );
                } else {
                    for finding in &report.findings {
                        println!("{path}: {finding}");
                    }
                    eprintln!("{path}: {} finding(s)", report.findings.len());
                }
                if args.iter().any(|a| a == "--exposure") {
                    for w in exposure_windows(&program, &CostModel::default()) {
                        println!(
                            "{path}: window fn{} <{}> @{} [{}]: {}",
                            w.func.0,
                            w.func_name,
                            w.open_at,
                            w.tech.name(),
                            w.bound
                        );
                    }
                }
                if args.iter().any(|a| a == "--summaries") {
                    for (id, s) in Summaries::compute(&program).iter() {
                        let writes: Vec<String> = if s.writes_all {
                            vec!["*".into()]
                        } else {
                            s.writes.iter().map(|r| r.to_string()).collect()
                        };
                        println!(
                            "{path}: summary fn{} <{}>: open-safe={} touches-domain={} \
                             exit-events={} recursive={} writes={{{}}}",
                            id.0,
                            program.func(id).name,
                            s.open_safe,
                            s.touches_domain,
                            s.has_exit_event,
                            s.recursive,
                            writes.join(",")
                        );
                    }
                }
                return status;
            }
            let opts = match RunOptions::from_args(&args) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = validate_handler(&program, opts.handler) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            if cmd == "run" {
                return run_machine(None, program, &opts);
            }
            if cmd == "replay" {
                return replay_cmd(&args, program, &opts);
            }
            // instrument / protect
            let technique = match flag(&args, "-t").as_deref().map(technique_from) {
                Some(Some(t)) => t,
                _ => {
                    eprintln!("missing or unknown -t <technique> (try: mpk, mpx, sfi, vmfunc, crypt, sgx, mprotect, pts)");
                    return ExitCode::FAILURE;
                }
            };
            let application = match flag(&args, "-a").as_deref().map(application_from) {
                Some(Some(a)) => a,
                None => Application::ProgramData,
                Some(None) => {
                    eprintln!("unknown -a <application> (try: shadow-stack, cfi, cpi, heap, data)");
                    return ExitCode::FAILURE;
                }
            };
            let region = match region_flag(&args) {
                Ok(region) => region,
                Err(code) => return code,
            };
            let framework = MemSentry::new(technique, region);
            println!(
                "# technique {} / application {:?} / region {:#x}+{:#x}",
                technique,
                application,
                framework.layout().base,
                framework.layout().len
            );
            if let Err(e) = framework.instrument(&mut program, application) {
                eprintln!("instrumentation failed: {e}");
                return ExitCode::FAILURE;
            }
            if cmd == "instrument" {
                print!("{}", format_program(&program));
                return ExitCode::SUCCESS;
            }
            run_machine(Some(&framework), program, &opts)
        }
        _ => usage(),
    }
}
