//! Hostile-input probe for the `msentry` command-line tool.
//!
//! Seeded mutations of the `tests/data` listings (byte flips, truncations,
//! duplicated lines) go through `run`, `protect -t mpk|crypt`, `check
//! --address rw --exposure` and `replay --crash-sweep`, which drives the
//! snapshot restore and the state `diff` with programs nobody wrote by
//! hand. A second pass feeds extreme `--at`, `--spacing`, `--region` and
//! `--fuel` values to the unmutated listings, and a third has guest
//! programs call `mprotect` and `pkey_mprotect` on ranges far past what is
//! mapped. Every run must end with exit
//! status 0 (success), 1 (a rejected input or a trapped run) or 2 (out of
//! fuel), within a deadline, and without a panic. The generator is the
//! workspace's seeded SplitMix64 stream, so every run checks the same
//! inputs and a failure names the input that caused it.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MSENTRY: &str = env!("CARGO_BIN_EXE_msentry");

/// Mutated listings; each goes through [`COMMANDS`], one run apiece.
const CASES: usize = 30;

/// Fuel for the mutated listings: a flipped branch may loop forever.
const FUEL: &str = "5000";

/// The subcommands every mutated listing goes through, each with its
/// options; the listing's path goes right after the subcommand.
const COMMANDS: [&[&str]; 5] = [
    &["run"],
    &["protect", "-t", "mpk"],
    &["protect", "-t", "crypt"],
    &["check", "--address", "rw", "--exposure"],
    &["replay", "--crash-sweep"],
];

/// How long one run may take before it counts as a hang.
const DEADLINE: Duration = Duration::from_secs(60);

/// Runs `msentry` with `args` and checks the contract: it exits by itself
/// within [`DEADLINE`], with status 0, 1 or 2, and prints no panic.
/// Returns the exit status and what the run printed.
fn probe(args: &[&str], scratch: &Path, what: &str) -> (i32, String) {
    let (out, err) = (scratch.join("out.txt"), scratch.join("err.txt"));
    let mut child = Command::new(MSENTRY)
        .args(args)
        .stdin(Stdio::null())
        .stdout(File::create(&out).expect("stdout file"))
        .stderr(File::create(&err).expect("stderr file"))
        .spawn()
        .expect("spawn msentry");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for msentry") {
            break Some(status);
        }
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let stderr = fs::read_to_string(&err).unwrap_or_default();
    let context = || format!("{what}: msentry {}\n{stderr}", args.join(" "));
    let Some(status) = status else {
        panic!("no exit within {DEADLINE:?}: {}", context());
    };
    assert!(
        matches!(status.code(), Some(0..=2)),
        "exit status {status}: {}",
        context()
    );
    assert!(!stderr.contains("panicked"), "{}", context());
    let stdout = fs::read_to_string(&out).unwrap_or_default();
    (status.code().unwrap_or(-1), stdout)
}

/// Every listing under `tests/data`, sorted by name.
fn listings() -> Vec<(String, Vec<u8>)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let mut files: Vec<_> = fs::read_dir(&dir)
        .expect("tests/data")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "ms"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&p).expect("listing"))
        })
        .collect()
}

/// One seeded mutation of `text`, and its name.
fn mutate(rng: &mut StdRng, text: &[u8]) -> (Vec<u8>, String) {
    let mut out = text.to_vec();
    match rng.gen_range(0..3u32) {
        0 => {
            // Flip one to three bytes to a printable byte or a newline.
            let flips = rng.gen_range(1..4usize);
            for _ in 0..flips {
                let at = rng.gen_range(0..out.len());
                out[at] = match rng.gen_range(0..96u32) {
                    95 => b'\n',
                    b => b' ' + b as u8,
                };
            }
            (out, format!("{flips} byte flip(s)"))
        }
        1 => {
            let at = rng.gen_range(0..out.len());
            out.truncate(at);
            (out, format!("truncated at byte {at}"))
        }
        _ => {
            // Repeat one line one to three more times in place.
            let lines: Vec<&[u8]> = text.split_inclusive(|&b| b == b'\n').collect();
            let at = rng.gen_range(0..lines.len());
            let copies = rng.gen_range(1..4usize);
            let mut dup = Vec::new();
            for (i, line) in lines.iter().enumerate() {
                dup.extend_from_slice(line);
                if i == at {
                    for _ in 0..copies {
                        dup.extend_from_slice(line);
                    }
                }
            }
            (dup, format!("line {at} repeated {copies} more time(s)"))
        }
    }
}

/// A scratch directory of this test's own under the target directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

#[test]
fn mutated_listings_never_crash_the_cli() {
    let dir = scratch("cli_hostile_mutations");
    let listings = listings();
    let mut rng = StdRng::seed_from_u64(0x6d73_656e_7472_7900);
    for case in 0..CASES {
        let (name, text) = &listings[rng.gen_range(0..listings.len())];
        let (mutated, how) = mutate(&mut rng, text);
        let path = dir.join(format!("case{case}.ms"));
        fs::write(&path, &mutated).expect("write listing");
        let path = path.to_string_lossy().into_owned();
        let what = format!("case {case}: {name}, {how}");
        for command in COMMANDS {
            let mut args = vec![command[0], &path];
            args.extend(&command[1..]);
            if command[0] != "check" {
                args.extend(["--fuel", FUEL]);
            }
            probe(&args, &dir, &what);
        }
    }
}

#[test]
fn extreme_option_values_are_handled() {
    let dir = scratch("cli_hostile_options");
    let demo = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/shadow_demo.ms");
    let privileged = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/privileged_demo.ms");
    // Past u64, negative, empty, and garbage next to the real extremes.
    let numbers = ["0", "1", "18446744073709551615", "18446744073709551616"];
    let junk = ["-1", "", "0x", "ten"];
    let mut runs: Vec<Vec<&str>> = Vec::new();
    for v in numbers.iter().chain(&junk) {
        runs.push(vec!["replay", demo, "--at", v]);
        runs.push(vec!["replay", privileged, "-t", "mpk", "--at", v]);
        runs.push(vec!["replay", demo, "--crash-sweep", "--spacing", v]);
        runs.push(vec!["run", demo, "--fuel", v]);
        runs.push(vec!["protect", privileged, "-t", "crypt", "--fuel", v]);
    }
    // `--region` beyond the sensitive partition or unparsable; in range
    // only small sizes, since a region is mapped page by page.
    for v in ["0", "1", "0x10", "0x1001", "0xc00000000001"]
        .iter()
        .chain(&numbers[2..])
        .chain(&junk)
    {
        runs.push(vec!["protect", privileged, "-t", "mpk", "--region", v]);
    }
    for args in &runs {
        probe(args, &dir, "extreme option");
    }
}

#[test]
fn guest_protection_calls_past_the_mapping_fail_fast() {
    let dir = scratch("cli_hostile_mprotect");
    // `mprotect` (10) over 128 TiB of unmapped pages, and both calls (10
    // with PROT_READ, 11 with key 1) on a range that runs past `u64::MAX`.
    let calls = [
        (10, 0x1000u64, 0x7fff_ffff_f000u64),
        (10, 0xffff_ffff_ffff_f000, 0x2000),
        (11, 0xffff_ffff_ffff_f000, 0x2000),
        (11, 0x1000, 0x7fff_ffff_f000),
    ];
    for (nr, start, len) in calls {
        let listing = format!(
            "fn0 <main>:\n    mov    rdi, {start:#x}\n    mov    rsi, {len:#x}\n    \
             mov    rdx, 0x1\n    syscall {nr}\n    hlt\n"
        );
        let path = dir.join(format!("syscall{nr}_{start:x}.ms"));
        fs::write(&path, listing).expect("write listing");
        let path = path.to_string_lossy().into_owned();
        let what = format!("syscall {nr} over {start:#x} + {len:#x}");
        let (code, stdout) = probe(&["run", &path, "--fuel", "100"], &dir, &what);
        assert_eq!(code, 0, "{what}: {stdout}");
        assert!(
            stdout.contains("exited with 0xffffffffffffffff after 5 instructions"),
            "{what}: {stdout}"
        );
    }
}
