//! The `serve` subcommand: a one-shot, process-isolated campaign run.
//!
//! `serve` reads a campaign manifest (a JSON document with a `jobs`
//! array, each job a `check` or `fuzz` description — see
//! [`crate::workercmd`] for the payload schema), expands `"shards": K`
//! check jobs into per-shard jobs, and runs them through
//! [`chess_server::run_jobs`], the campaign driver the daemon runs too:
//! a pool of re-exec'd `worker` processes under
//! [`chess_core::procpool::Supervisor`] (work stealing, a
//! progress-gated watchdog, deterministic retry backoff, quarantine
//! after `--max-attempts`), or this process, behind a loud warning,
//! when no worker can be spawned at all. The shard reports are merged
//! back and the report is printed in manifest order, so a sharded
//! campaign prints the unsharded one's report.
//!
//! What `serve` adds around the driver:
//!
//! - `--checkpoint <file>`: the journal the driver atomically rewrites
//!   after every verdict, tagged with an FNV-1a digest of the
//!   canonicalized manifest. `--resume <file>` loads it and skips the
//!   decided jobs; because job lines carry no wall-clock field, a
//!   campaign whose supervisor was `kill -9`ed mid-run reprints the
//!   byte-identical report.
//! - `--status-file`: an at-a-glance progress JSON, atomically
//!   rewritten after every verdict.
//! - SIGINT: what finished stays journaled, and `serve` exits 6 with a
//!   resume hint.
//! - The pool's stats line on stderr.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use chess_server::campaign::{load_campaign_journal, write_status};
use chess_server::{expand_jobs, load_manifest, merge_verdicts, render_report, run_jobs};

use crate::opts::ServeOpts;
use crate::{exitcode, signal, workercmd};

/// Entry point for `fair-chess serve`.
pub fn do_serve(o: &ServeOpts) -> ExitCode {
    match serve(o) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(exitcode::USAGE)
        }
    }
}

fn serve(o: &ServeOpts) -> Result<u8, String> {
    let manifest = load_manifest(&o.manifest, workercmd::validate_job)?;
    let expanded = expand_jobs(&manifest.jobs)?;
    let total = expanded.len();

    let mut resumed = Vec::new();
    if let Some(path) = &o.resume {
        resumed = load_campaign_journal(Path::new(path), manifest.digest, &expanded)?;
        eprintln!(
            "resuming from {path}: {} of {total} jobs already decided",
            resumed.len()
        );
        if o.checkpoint.is_none() {
            eprintln!("note: --resume without --checkpoint; this run will not journal");
        }
    }

    let stop = signal::install();
    let pool = workercmd::worker_pool(&o.pool)?;
    let run = run_jobs(
        &pool,
        manifest.digest,
        &expanded,
        resumed,
        o.checkpoint.as_ref().map(PathBuf::from),
        &stop,
        |verdicts| write_status(o.status_file.as_deref(), verdicts, total),
    )?;
    for w in &run.warnings {
        eprintln!("warning: {w}");
    }
    let s = &run.stats;
    eprintln!(
        "campaign stats: {} workers spawned, {} lost, {} watchdog kills, \
         {} failed attempts, {} spawn failures",
        s.workers_spawned, s.workers_lost, s.watchdog_kills, s.failed_attempts, s.spawn_failures
    );

    if run.stopped {
        eprintln!(
            "interrupted: {} of {total} jobs decided",
            run.verdicts.len()
        );
        if let Some(path) = &o.checkpoint {
            eprintln!(
                "resume with: fair-chess serve {} --resume {path} --checkpoint {path}",
                o.manifest
            );
        }
        return Ok(exitcode::INTERRUPTED);
    }

    // Collapse shard verdicts back to manifest-level jobs, then print
    // the deterministic report in manifest order.
    let merged = merge_verdicts(&manifest, &run.verdicts)?;
    let (text, code) = render_report(&manifest, &merged)?;
    print!("{text}");
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `load_manifest` itself is covered in `chess-server`; what this
    /// crate adds is the wiring to the real workload table, so the
    /// validator must catch semantic problems the generic layer cannot.
    #[test]
    fn manifest_validation_uses_the_workload_table() {
        let dir = std::env::temp_dir().join(format!("fair-chess-badman-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let check = |name: &str, text: &str, needle: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            let err = load_manifest(path.to_str().unwrap(), workercmd::validate_job).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        };
        check(
            "nokind.json",
            r#"{"jobs": [{"id": "x", "kind": "bake"}]}"#,
            "unknown job kind",
        );
        check(
            "noworkload.json",
            r#"{"jobs": [{"id": "x", "kind": "check"}]}"#,
            "no 'workload'",
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sharded manifest expands to shard jobs for the pool while the
    /// report stays keyed by the manifest ids.
    #[test]
    fn serve_expands_sharded_jobs() {
        let dir = std::env::temp_dir().join(format!("fair-chess-shards-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");
        std::fs::write(
            &path,
            r#"{"jobs": [{"id": "w", "workload": "counter", "shards": 2},
                         {"id": "f", "kind": "fuzz", "systems": 1}]}"#,
        )
        .unwrap();
        let manifest = load_manifest(path.to_str().unwrap(), workercmd::validate_job).unwrap();
        let expanded = expand_jobs(&manifest.jobs).unwrap();
        let ids: Vec<&str> = expanded.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, ["w#0", "w#1", "f"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
