//! Integration tests for the `msentry` command-line tool.

use std::process::Command;

const MSENTRY: &str = env!("CARGO_BIN_EXE_msentry");
const DEMO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/shadow_demo.ms");
const PRIV_DEMO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/privileged_demo.ms");

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(MSENTRY)
        .args(args)
        .output()
        .expect("spawn msentry");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

/// Like [`run`] but reporting the raw exit code, for paths with
/// distinct codes (out-of-fuel exits 2).
fn run_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(MSENTRY)
        .args(args)
        .output()
        .expect("spawn msentry");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

fn data(name: &str) -> String {
    format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn check_accepts_the_golden_listing() {
    let (ok, text) = run(&["check", DEMO]);
    assert!(ok, "{text}");
    assert!(text.contains("3 functions"), "{text}");
}

#[test]
fn check_flags_the_missing_mask() {
    // Only with address checking requested: an uninstrumented listing is
    // not inherently wrong.
    let path = data("bad_missing_mask.ms");
    let (ok, text) = run(&["check", &path]);
    assert!(ok, "{text}");
    let (ok, text) = run(&["check", &path, "--address", "w"]);
    assert!(!ok, "{text}");
    assert!(text.contains("unchecked-store"), "{text}");
    assert!(text.contains("fn0 <main> @5"), "{text}");
    assert!(text.contains("1 finding"), "{text}");
}

#[test]
fn check_flags_the_unclosed_domain() {
    let (ok, text) = run(&["check", &data("bad_unclosed_domain.ms")]);
    assert!(!ok, "{text}");
    assert!(text.contains("domain-leak"), "{text}");
    assert!(text.contains("fn0 <main> @5"), "{text}");
    assert!(text.contains("hlt"), "{text}");
    assert!(text.contains("window opened @0"), "{text}");
}

#[test]
fn check_accepts_a_window_spanning_an_open_safe_call() {
    // The old intraprocedural checker rejected any call inside a window;
    // the summary-based checker proves fn1 <leaf> open-safe.
    let (ok, text) = run(&["check", &data("good_interproc.ms")]);
    assert!(ok, "{text}");
    assert!(text.contains("2 functions"), "{text}");
}

#[test]
fn check_explains_the_non_open_safe_callee() {
    let (ok, text) = run(&["check", &data("bad_interproc_reopen.ms")]);
    assert!(!ok, "{text}");
    assert!(
        text.contains("call to fn1 <closer>, which is not open-safe"),
        "{text}"
    );
    assert!(
        text.contains("domain-switch or key-reload instructions"),
        "{text}"
    );
}

#[test]
fn check_flags_the_kernel_clobbered_address_fact() {
    // Syscalls clobber the full kernel ABI set (rax/rdi/rsi/rdx), not
    // just rax: the rdi-based check must not survive the crossing.
    let path = data("bad_syscall_clobber.ms");
    let (ok, text) = run(&["check", &path]);
    assert!(ok, "{text}");
    let (ok, text) = run(&["check", &path, "--address", "w"]);
    assert!(!ok, "{text}");
    assert!(text.contains("unchecked-store"), "{text}");
    assert!(text.contains("rdi"), "{text}");
    assert!(text.contains("@6"), "{text}");
}

#[test]
fn check_emits_structured_json() {
    let (ok, text) = run(&["check", &data("good_interproc.ms"), "--json"]);
    assert!(ok, "{text}");
    assert!(text.contains("\"clean\": true"), "{text}");
    assert!(text.contains("\"findings\": []"), "{text}");
    assert!(text.contains("\"technique\": \"mpk\""), "{text}");
    assert!(text.contains("\"boundaries\": 11"), "{text}");

    let (ok, text) = run(&["check", &data("bad_unclosed_domain.ms"), "--json"]);
    assert!(!ok, "{text}");
    assert!(text.contains("\"kind\": \"domain-leak\""), "{text}");
    assert!(text.contains("\"window\": 0"), "{text}");
    assert!(text.contains("\"cycles\": null"), "{text}");
}

#[test]
fn check_reports_exposure_and_summaries() {
    let (ok, text) = run(&[
        "check",
        &data("good_interproc.ms"),
        "--exposure",
        "--summaries",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("window fn0 <main> @0 [mpk]:"), "{text}");
    assert!(text.contains("cycles"), "{text}");
    assert!(
        text.contains("summary fn1 <leaf>: open-safe=true"),
        "{text}"
    );
}

#[test]
fn check_flags_the_clobbered_live_register() {
    let (ok, text) = run(&["check", &data("bad_clobber.ms")]);
    assert!(!ok, "{text}");
    assert!(text.contains("clobbered-live-register"), "{text}");
    assert!(text.contains("rbx"), "{text}");
}

#[test]
fn check_flags_the_stray_wrpkru() {
    let (ok, text) = run(&["check", &data("bad_stray_wrpkru.ms")]);
    assert!(!ok, "{text}");
    assert!(text.contains("stray-domain-switch"), "{text}");
    assert!(text.contains("fn0 <main> @1"), "{text}");
    assert!(text.contains("wrpkru"), "{text}");
}

#[test]
fn check_passes_instrumented_output_end_to_end() {
    // instrument | check: the checker must accept what the framework
    // emits. MPK exercises the window analyses; write the listing out and
    // re-check it through the CLI.
    let (ok, text) = run(&["instrument", PRIV_DEMO, "-t", "mpk", "-a", "data"]);
    assert!(ok, "{text}");
    let listing: String = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("exited"))
        .map(|l| format!("{l}\n"))
        .collect();
    let dir = std::env::temp_dir().join("msentry-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("instrumented_mpk.ms");
    std::fs::write(&path, listing).unwrap();
    let (ok, text) = run(&["check", path.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(text.contains("ok ("), "{text}");
}

#[test]
fn run_executes_the_listing() {
    let (ok, text) = run(&["run", DEMO]);
    assert!(ok, "{text}");
    assert!(text.contains("exited with 0x1"), "{text}");
}

#[test]
fn instrument_prints_mpk_sequences() {
    let (ok, text) = run(&["instrument", PRIV_DEMO, "-t", "mpk", "-a", "data"]);
    assert!(ok, "{text}");
    assert!(text.contains("wrpkru"), "{text}");
    assert!(text.contains("mfence"), "{text}");
}

#[test]
fn protect_runs_under_each_technique() {
    for technique in ["mpk", "mpx", "sfi", "vmfunc", "crypt", "pts"] {
        let (ok, text) = run(&["protect", PRIV_DEMO, "-t", technique]);
        assert!(ok, "{technique}: {text}");
        assert!(text.contains("exited with"), "{technique}: {text}");
        if !matches!(technique, "pts" | "mpk") {
            // The privileged load lands 0x2a in rax (mpk/pts close
            // sequences legitimately clobber rax via r9/syscall).
            assert!(
                text.contains("0x2a") || technique == "crypt",
                "{technique}: {text}"
            );
        }
    }
}

#[test]
fn region_takes_hex_and_rejects_garbage() {
    let (ok, text) = run(&["protect", PRIV_DEMO, "-t", "mpk", "--region", "0x100"]);
    assert!(ok, "{text}");
    assert!(text.contains("+0x100\n"), "{text}");
    // These fit a u64 but not the sensitive partition; rounding the
    // first up to 16 bytes would overflow.
    let too_big = ["0xffffffffffffffff", "0x8000000000000000", "0xc00000000001"];
    for value in ["abc", "-5", "0x", "99999999999999999999999", "12k"]
        .into_iter()
        .chain(too_big)
    {
        for cmd in ["instrument", "protect", "replay"] {
            let (ok, text) = run(&[cmd, PRIV_DEMO, "-t", "mpk", "--region", value, "--at", "0"]);
            assert!(!ok, "{cmd} --region '{value}' must be rejected: {text}");
            assert!(
                text.contains(&format!("bad --region '{value}'")),
                "{cmd} --region '{value}' must name the value: {text}"
            );
        }
    }
}

#[test]
fn malformed_inject_specs_are_rejected_loudly() {
    // Every malformed shape — trailing garbage after the index, a
    // missing :ARGS clause, a missing tuple field, an overflowing
    // number, an unknown kind — gets the full spec-grammar diagnostic.
    for spec in [
        "signal@5x",
        "signal@",
        "preempt@5",
        "preempt@5:3",
        "write@5:1",
        "alloc-fail@5",
        "signal@99999999999999999999999",
        "write@5:0x10000,1z",
        "quantum-leap@5",
        "signal",
    ] {
        let (ok, text) = run(&["run", DEMO, "--inject", spec]);
        assert!(!ok, "'{spec}' must be rejected: {text}");
        assert!(
            text.contains("bad inject spec") && text.contains("signal@N"),
            "'{spec}' must get the spec-grammar diagnostic: {text}"
        );
    }
}

#[test]
fn well_formed_inject_specs_still_parse() {
    let (ok, text) = run(&["run", DEMO, "--inject", "write@2:0x7000,0x2a"]);
    assert!(ok, "{text}");
    assert!(text.contains("exited with"), "{text}");
}

#[test]
fn malformed_stream_specs_are_rejected_loudly() {
    // The stream forms share the one-shot forms' per-kind argument
    // grammar and the same diagnostic: a missing period, a burst without
    // its gap, an after: without +DELAY, an unknown trigger, stray or
    // missing action fields.
    for spec in [
        "signal@every:",
        "signal@every:3,4",
        "preempt@every:5,1",
        "signal@burst:1,2",
        "write@after:signal",
        "signal@after:quantum+1",
        "alloc-fail@after:signal+2",
    ] {
        let (ok, text) = run(&["run", DEMO, "--inject", spec]);
        assert!(!ok, "'{spec}' must be rejected: {text}");
        assert!(
            text.contains("bad inject spec") && text.contains("signal@N"),
            "'{spec}' must get the spec-grammar diagnostic: {text}"
        );
    }
}

#[test]
fn unfired_injected_events_warn_on_exit() {
    // A one-shot aimed past the end of the run, a recurring stream whose
    // phase is never reached, and a compound trigger that never arms all
    // get named in the exit warning.
    let (ok, text) = run(&["run", DEMO, "--inject", "signal@1000"]);
    assert!(ok, "{text}");
    assert!(
        text.contains("injected event signal@1000 never fired"),
        "{text}"
    );
    let (ok, text) = run(&[
        "run",
        DEMO,
        "--inject",
        "signal@every:1000",
        "--inject",
        "write@after:preempt+1,0x7000,0x2a",
    ]);
    assert!(ok, "{text}");
    assert!(
        text.contains("injected stream signal@every:1000") && text.contains("never fired"),
        "{text}"
    );
    assert!(text.contains("write@after:preempt+1"), "{text}");
}

#[test]
fn dropped_deliveries_warn_on_exit() {
    // Signals fire on schedule but no handler is installed, so every
    // delivery drops — and the run says so instead of exiting silently.
    let (ok, text) = run(&["run", DEMO, "--inject", "signal@every:3"]);
    assert!(ok, "{text}");
    assert!(text.contains("could not be delivered (dropped)"), "{text}");
}

#[test]
fn nonexistent_handler_is_rejected_by_name() {
    // Satellite: a --handler naming a function the listing doesn't
    // define fails up front, listing what the listing does have,
    // instead of trapping on the first delivery.
    let (ok, text) = run(&["run", DEMO, "--handler", "9", "--inject", "signal@2"]);
    assert!(!ok, "{text}");
    assert!(text.contains("--handler fn9: no such function"), "{text}");
    assert!(text.contains("fn0 <main>"), "{text}");
}

#[test]
fn storm_seed_jitters_deterministically() {
    let first = run(&[
        "run",
        DEMO,
        "--inject",
        "signal@every:3",
        "--storm-seed",
        "7",
    ]);
    let second = run(&[
        "run",
        DEMO,
        "--inject",
        "signal@every:3",
        "--storm-seed",
        "7",
    ]);
    assert_eq!(first.1, second.1, "same seed, same storm");
}

#[test]
fn out_of_fuel_exits_2_with_a_distinct_diagnostic() {
    let (code, text) = run_code(&["run", DEMO, "--fuel", "0"]);
    assert_eq!(code, Some(2), "{text}");
    assert!(
        text.contains("out of fuel: 0 instructions retired without halting"),
        "{text}"
    );
    assert!(text.contains("raise --fuel"), "{text}");
}

#[test]
fn fuel_equal_to_the_retired_count_suffices() {
    // Self-calibrating: learn the listing's instruction count from a
    // free run, then pin the fuel boundary exactly — n completes,
    // n-1 is out of fuel (exit 2).
    let (ok, text) = run(&["run", DEMO]);
    assert!(ok, "{text}");
    let n: u64 = text
        .split("after ")
        .nth(1)
        .and_then(|r| r.split(' ').next())
        .and_then(|w| w.parse().ok())
        .expect("run reports its instruction count");
    let (code, text) = run_code(&["run", DEMO, "--fuel", &n.to_string()]);
    assert_eq!(code, Some(0), "fuel == retired count must complete: {text}");
    let (code, text) = run_code(&["run", DEMO, "--fuel", &(n - 1).to_string()]);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains(&format!("out of fuel: {}", n - 1)), "{text}");
}

#[test]
fn replay_at_prints_the_boundary_state() {
    let (ok, text) = run(&["replay", DEMO, "--at", "3"]);
    assert!(ok, "{text}");
    assert!(text.contains("recorded "), "{text}");
    assert!(text.contains("boundary 3 of "), "{text}");
    assert!(text.contains("pc fn"), "{text}");
    assert!(text.contains("rax="), "{text}");
    assert!(text.contains("domain: pkru="), "{text}");
    assert!(text.contains("state digest 0x"), "{text}");
}

#[test]
fn replay_under_a_technique_inspects_the_instrumented_run() {
    let (ok, text) = run(&["replay", PRIV_DEMO, "-t", "mpk", "--at", "5"]);
    assert!(ok, "{text}");
    assert!(text.contains("boundary 5 of "), "{text}");
    assert!(text.contains("stats:"), "{text}");
}

#[test]
fn replay_past_the_end_errors_cleanly() {
    let (ok, text) = run(&["replay", DEMO, "--at", "999999"]);
    assert!(!ok, "{text}");
    assert!(text.contains("past the end of the run"), "{text}");
}

#[test]
fn replay_needs_a_mode() {
    let (ok, text) = run(&["replay", DEMO]);
    assert!(!ok, "{text}");
    assert!(
        text.contains("--at <boundary>, --bisect, --crash-sweep"),
        "{text}"
    );
}

#[test]
fn replay_crash_sweep_reports_bit_exact_recovery() {
    for extra in [&[][..], &["-t", "mpk"][..]] {
        let mut args = vec!["replay", PRIV_DEMO, "--crash-sweep"];
        args.extend_from_slice(extra);
        let (ok, text) = run(&args);
        assert!(ok, "{extra:?}: {text}");
        assert!(
            text.contains("every recovery bit-exact"),
            "{extra:?}: {text}"
        );
    }
}

#[test]
fn replay_bisect_needs_an_inject_template() {
    let (ok, text) = run(&["replay", DEMO, "--bisect"]);
    assert!(!ok, "{text}");
    assert!(text.contains("--bisect needs an --inject spec"), "{text}");
}

#[test]
fn replay_bisect_proves_the_clean_listing_unexposed() {
    // The demo listing never writes the campaign secret anywhere, so the
    // search must probe to exhaustion and report no exposed boundary.
    let (ok, text) = run(&["replay", DEMO, "--bisect", "--inject", "signal@0"]);
    assert!(ok, "{text}");
    assert!(text.contains("no exposed boundary in 0.."), "{text}");
}

#[test]
fn replay_bisect_re_aims_a_recurring_stream() {
    // An every: template is re-phased so its first firing lands at each
    // probed boundary; the clean listing still exposes nothing.
    let (ok, text) = run(&["replay", DEMO, "--bisect", "--inject", "signal@every:2"]);
    assert!(ok, "{text}");
    assert!(text.contains("no exposed boundary in 0.."), "{text}");
}

#[test]
fn replay_bisect_rejects_compound_specs() {
    // An after: spec fires relative to a delivery, not a boundary —
    // there is nothing to re-aim.
    let (ok, text) = run(&[
        "replay",
        DEMO,
        "--bisect",
        "--inject",
        "write@after:signal+1,0x7000,0x2a",
    ]);
    assert!(!ok, "{text}");
    assert!(text.contains("cannot re-aim an after: spec"), "{text}");
}

#[test]
fn replay_seeks_bit_exactly_into_a_storm() {
    // The recording carries the stream cursors, so a seek lands
    // mid-handler with the delivery state replayed, not reset.
    let (ok, text) = run(&[
        "replay",
        DEMO,
        "--inject",
        "signal@every:2",
        "--handler",
        "1",
        "--at",
        "5",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("boundary 5 of "), "{text}");
    assert!(text.contains("signals=2"), "{text}");
    assert!(text.contains("signal_depth=2"), "{text}");
}

#[test]
fn techniques_lists_table3() {
    let (ok, text) = run(&["techniques"]);
    assert!(ok);
    assert!(text.contains("VMFUNC"));
    assert!(text.contains("PTS"));
}

#[test]
fn unknown_technique_is_rejected() {
    let (ok, text) = run(&["protect", DEMO, "-t", "segmentation"]);
    assert!(!ok);
    assert!(text.contains("unknown"), "{text}");
}

#[test]
fn bad_listing_reports_line_numbers() {
    let dir = std::env::temp_dir().join("msentry-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.ms");
    std::fs::write(&bad, "fn0 <main>:\n    frobnicate rax\n").unwrap();
    let (ok, text) = run(&["check", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(text.contains("line 2"), "{text}");
}
