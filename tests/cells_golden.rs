//! Per-cell fingerprints of the simulated output, pinned in
//! `tests/golden/cells.txt`.
//!
//! One line per Figure 3–6 cell (19 SPEC profiles × 16 configs, built by
//! the bench runner's `prepare_cell` and run to completion) and one line
//! per `tests/data/*.ms` listing (parsed and run on `Machine::new`). Each
//! line holds the outcome, the retired instructions, the cycle total's
//! bits, the final `state_digest` and every `ExecStats` counter, so a
//! change to any op's charges, to the engine's retirement order or to
//! the machine state it leaves behind shows up as a named line.
//!
//! The test regenerates the table, writes it to `target/tmp/cells.txt`
//! and compares it with the golden file, printing the first differing
//! line. Blessing is by hand: a change that means to move simulated
//! output copies the written file over `tests/golden/cells.txt` and says
//! why.

use std::fmt::Write as _;
use std::path::Path;

use memsentry_bench::runner::{prepare_cell, ExperimentConfig};
use memsentry_repro::cpu::{ExecStats, Machine, RunOutcome};
use memsentry_repro::ir::parse_program;
use memsentry_repro::memsentry::Technique;
use memsentry_repro::passes::{AddressKind, InstrumentMode, SwitchPoints};
use memsentry_repro::workloads::SPEC2006;

/// Superblocks per cell: all 304 cells run in about five seconds in a
/// debug build, and the domain cells of most profiles still reach their
/// `wrpkru`, `vmfunc`, hypercall and AES switches.
const SUPERBLOCKS: u32 = 16;

const GOLDEN: &str = include_str!("golden/cells.txt");

/// The 16 configs of Figures 3–6, with a label that names the switch
/// points of the domain figures.
fn configs() -> Vec<(String, ExperimentConfig)> {
    let mut v = vec![("baseline".to_string(), ExperimentConfig::Baseline)];
    for mode in [
        InstrumentMode::WRITES,
        InstrumentMode::READS,
        InstrumentMode::READ_WRITE,
    ] {
        for kind in [AddressKind::Mpx, AddressKind::Sfi] {
            let config = ExperimentConfig::Address { kind, mode };
            v.push((config.label(), config));
        }
    }
    for (points, name) in [
        (SwitchPoints::CallRet, "callret"),
        (SwitchPoints::IndirectBranch, "indirect"),
        (SwitchPoints::Syscall, "syscall"),
    ] {
        for technique in [Technique::Mpk, Technique::Vmfunc, Technique::Crypt] {
            let config = ExperimentConfig::Domain {
                technique,
                points,
                region_len: 16,
            };
            v.push((format!("{}@{name}", config.label()), config));
        }
    }
    v
}

/// One fingerprint line for a finished machine.
fn line(name: &str, config: &str, outcome: &RunOutcome, m: &Machine) -> String {
    let ExecStats {
        instructions,
        loads,
        stores,
        calls,
        indirect_calls,
        rets,
        syscalls,
        vmcalls,
        vmfuncs,
        wrpkrus,
        bound_checks,
        aes_chunks,
        allocator_calls,
        sgx_transitions,
        signals,
        preemptions,
        dropped_events,
        cycles,
    } = *m.stats();
    let outcome = match outcome {
        RunOutcome::Exited(code) => format!("exit={code:#x}"),
        RunOutcome::Trapped(t) => format!("trap={t:?}").replace(' ', ""),
    };
    format!(
        "{name} {config} {outcome} instructions={instructions} cycles={:016x} \
         digest={:016x} loads={loads} stores={stores} calls={calls} \
         indirect_calls={indirect_calls} rets={rets} syscalls={syscalls} \
         vmcalls={vmcalls} vmfuncs={vmfuncs} wrpkrus={wrpkrus} \
         bound_checks={bound_checks} aes_chunks={aes_chunks} \
         allocator_calls={allocator_calls} sgx_transitions={sgx_transitions} \
         signals={signals} preemptions={preemptions} dropped_events={dropped_events}",
        cycles.to_bits(),
        m.state_digest(),
    )
}

/// Regenerates the whole table.
fn fingerprints() -> String {
    let mut out = String::new();
    let configs = configs();
    for profile in SPEC2006.iter() {
        for (label, config) in &configs {
            let mut m =
                prepare_cell(profile, SUPERBLOCKS, *config).unwrap_or_else(|e| panic!("{e}"));
            let outcome = m.run();
            writeln!(out, "{}", line(profile.short_name(), label, &outcome, &m)).unwrap();
        }
    }
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let mut listings: Vec<_> = std::fs::read_dir(&data)
        .expect("tests/data is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ms"))
        .collect();
    listings.sort();
    for path in listings {
        let text = std::fs::read_to_string(&path).expect("listing is readable");
        let program = parse_program(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let mut m = Machine::new(program);
        let outcome = m.run();
        let name = path.file_name().unwrap().to_string_lossy();
        writeln!(out, "{}", line(&name, "listing", &outcome, &m)).unwrap();
    }
    out
}

#[test]
fn every_cell_matches_its_golden_fingerprint() {
    let fresh = fingerprints();
    let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cells.txt");
    std::fs::write(&written, &fresh).expect("writes the regenerated table");
    for (i, (want, got)) in GOLDEN.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "line {} of tests/golden/cells.txt differs; the regenerated table is {}",
            i + 1,
            written.display()
        );
    }
    assert_eq!(
        GOLDEN.lines().count(),
        fresh.lines().count(),
        "line counts differ; the regenerated table is {}",
        written.display()
    );
}
