//! The chaos-matrix artifact (`results/chaos_matrix.txt`).
//!
//! Where the fault matrix ([`crate::faults`]) injects exactly one event
//! per run, this matrix rains recurring/compound event **storms**
//! ([`memsentry_attacks::chaos`]) on a victim whose domain window
//! re-opens every loop iteration, sweeping `technique × delivery mode ×
//! storm intensity × seed`. Each row reports the storm's delivery counts,
//! how the run ended (normal exit, reentrancy overflow, or hostile code
//! faulting on the closed region) and the four oracle verdicts: exposure
//! (`held`/`Exposed`), mid-storm snapshot/restore equality (the `digest`
//! column, now a `Machine::diff` against a second victim) and
//! crash-recovery bit-exactness. Every cell is memoized on the shared
//! [`Session`] and the grid fans out over the session's workers with rows
//! reassembled in fixed order, so serial and parallel runs produce
//! byte-identical artifacts.

use memsentry::Technique;
use memsentry_attacks::campaign::{CampaignError, HandlerMode, WINDOWED_TECHNIQUES};
use memsentry_attacks::chaos::{run_storm, StormIntensity, StormRun, INTENSITIES, STORM_SEEDS};

use crate::measure::{AuxMeasurement, CheckpointStats, Session};
use crate::runner::{CellFailure, MeasureError};

/// Maps a chaos-campaign failure into the harness's structured cell
/// error.
fn cell_error(
    technique: Technique,
    mode: HandlerMode,
    intensity: StormIntensity,
    seed: u64,
    e: CampaignError,
) -> MeasureError {
    let failure = match e {
        CampaignError::Framework(fe) => CellFailure::from(fe),
        CampaignError::CleanRun { trap, .. } => CellFailure::Trapped(trap),
        CampaignError::Replay { error, .. } => CellFailure::Replay(error),
    };
    MeasureError {
        benchmark: "chaos-campaign",
        config: format!(
            "{}/{}/{}/{seed:#x}",
            technique.name(),
            mode.name(),
            intensity.name()
        ),
        failure,
    }
}

/// Renders one matrix row from a storm record.
fn render_row(run: &StormRun) -> String {
    format!(
        "{:<9} {:<7} {:<8} {:<5} {:>10} {:>7} {:>8} {:>7} {:<10} {:>7} {:<6} {:<5} {}\n",
        run.technique.name(),
        run.mode.name(),
        run.intensity.name(),
        format!("{:#x}", run.seed),
        run.boundaries,
        run.signals,
        run.preemptions,
        run.dropped,
        run.end.name(),
        run.exposed_points,
        if run.digest_ok { "ok" } else { "FAIL" },
        if run.crash_ok { "ok" } else { "FAIL" },
        if run.exposed() { "Exposed" } else { "held" },
    )
}

/// One storm run as a memoized auxiliary session cell.
fn storm_cell(
    session: &Session,
    technique: Technique,
    mode: HandlerMode,
    intensity: StormIntensity,
    seed: u64,
) -> Result<AuxMeasurement, MeasureError> {
    let key = format!(
        "chaos/{}/{}/{}/{seed:#x}",
        technique.name(),
        mode.name(),
        intensity.name()
    );
    session.measure_aux(&key, || {
        let run = run_storm(technique, mode, intensity, seed)
            .map_err(|e| cell_error(technique, mode, intensity, seed, e))?;
        Ok(AuxMeasurement {
            text: render_row(&run),
            sim_instructions: run.sim_instructions,
            checkpoints: CheckpointStats {
                taken: run.checkpoints,
                replays: run.replays,
                replayed_instructions: run.replayed_instructions,
                saved_instructions: run.saved_instructions,
            },
        })
    })
}

/// Computes the full chaos matrix, fanning the storms out over the
/// session's workers. The artifact is byte-identical for any `--jobs`
/// value and either execution engine.
///
/// # Errors
///
/// Returns the failure of the first broken cell in row order.
pub fn chaos_matrix(session: &Session) -> Result<String, MeasureError> {
    let mut cells: Vec<(Technique, HandlerMode, StormIntensity, u64)> = Vec::new();
    for technique in WINDOWED_TECHNIQUES {
        for mode in [HandlerMode::Scrub, HandlerMode::Broken] {
            for intensity in INTENSITIES {
                for seed in STORM_SEEDS {
                    cells.push((technique, mode, intensity, seed));
                }
            }
        }
    }
    let rows = session.parallel_map(&cells, |&(technique, mode, intensity, seed)| {
        storm_cell(session, technique, mode, intensity, seed)
    });
    let mut out = String::from(
        "chaos matrix: seeded event storms (periodic signals/preemptions,\n\
         bursts, compound follow-ups) against a window-per-iteration victim;\n\
         end = how the stormed run finished (exit / reentrancy overflow /\n\
         hostile code faulting on the closed region); digest and crash are\n\
         the mid-storm snapshot/restore and crash-recovery oracles; verdict\n\
         is held unless some oracle point saw the secret exposed\n\
         \n\
         technique mode    storm    seed  boundaries signals preempts dropped end        exposed digest crash verdict\n",
    );
    for row in rows {
        out.push_str(&row?.text);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_deterministic_across_job_counts() {
        let serial = chaos_matrix(&Session::with_jobs(1)).unwrap();
        let parallel = chaos_matrix(&Session::with_jobs(4)).unwrap();
        assert_eq!(serial, parallel, "artifact must not depend on --jobs");
    }

    #[test]
    fn matrix_covers_the_grid_and_counts_work() {
        let session = Session::with_jobs(2);
        let matrix = chaos_matrix(&session).unwrap();
        let rows = matrix
            .lines()
            .filter(|l| l.ends_with(" held") || l.ends_with(" Exposed"))
            .count();
        let grid = WINDOWED_TECHNIQUES.len() * 2 * INTENSITIES.len() * STORM_SEEDS.len();
        assert_eq!(rows, grid);
        assert_eq!(session.simulations(), grid as u64);
        assert!(session.sim_instructions() > 0);
        let ck = session.checkpoint_stats();
        assert!(ck.taken > 0, "storms must checkpoint");
        assert!(ck.replays > 0, "oracles must replay");
        // Regeneration is served entirely from the cache.
        let again = chaos_matrix(&session).unwrap();
        assert_eq!(again, matrix);
        assert_eq!(session.simulations(), grid as u64);
        assert_eq!(session.cache_hits(), grid as u64);
    }

    #[test]
    fn every_oracle_holds_and_scrub_rows_never_expose() {
        let matrix = chaos_matrix(&Session::with_jobs(1)).unwrap();
        let mut broken_exposed = 0;
        for line in matrix
            .lines()
            .filter(|l| l.ends_with("held") || l.ends_with("Exposed"))
        {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields[10], "ok", "digest oracle failed: {line}");
            assert_eq!(fields[11], "ok", "crash oracle failed: {line}");
            if fields[1] == "scrub" {
                assert_eq!(fields[12], "held", "scrubbed storm exposed: {line}");
            } else if fields[12] == "Exposed" {
                broken_exposed += 1;
            }
        }
        assert!(
            broken_exposed > 0,
            "some broken storm must expose the window"
        );
    }
}
