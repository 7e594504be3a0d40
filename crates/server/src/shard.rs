//! Splitting a check job into shard jobs and deterministically merging
//! the shard reports back into the report the unsharded run would have
//! produced.
//!
//! A manifest job opts in with `"shards": K`. Expansion rewrites it
//! into `K` jobs with ids `{id}#0 .. {id}#{K-1}` whose payloads carry
//! `shard_index`/`shard_of` instead of `shards`; the worker's check
//! runner maps those onto [`chess_core::ShardSpec`]. The merge then
//! leans on the core guarantees:
//!
//! - `dfs` and `cb:<B>`, reduced or not: shards are contiguous slices
//!   of the root decision frontier, so
//!   [`chess_core::merge_contiguous_shards`] reproduces the sequential
//!   report **byte-for-byte** — same outcome, same counterexample
//!   execution index, same stats line.
//! - `random:<seed>`: shards are a deterministic seed/budget split
//!   (walker `i` uses `seed + i` and its slice of the execution
//!   budget), merged with [`chess_core::merge_seed_shards`]. The result
//!   is deterministic and reaches the outcome of the in-process
//!   `--jobs K` random walk, but is *not* the sequential single-walker
//!   report.

use chess_bench::Json;
use chess_core::procpool::JobSpec;
use chess_core::{merge_contiguous_shards, merge_seed_shards, SearchReport};

use crate::campaign::{JobResult, Manifest, Verdict, VerdictOutcome};

/// Separator between a parent job id and a shard index.
pub const SHARD_SEP: char = '#';

/// Most shards one job may request: far beyond any useful fan-out, and
/// low enough that a typo (`"shards": 100000`) fails fast.
pub const MAX_SHARDS: usize = 256;

/// How many shards a job asks for (1 = unsharded), with validation.
///
/// # Errors
///
/// Rejects `shards` outside `1..=MAX_SHARDS` and — for actual splits —
/// non-`check` kinds and explicit `shard_index`/`shard_of` fields (those
/// are expansion outputs, not manifest inputs).
pub fn shard_count(job: &Json) -> Result<usize, String> {
    let Some(n) = job.get("shards") else {
        return Ok(1);
    };
    let n = n.as_u64().ok_or("\"shards\" must be a positive integer")? as usize;
    if n == 0 || n > MAX_SHARDS {
        return Err(format!("\"shards\" must be in 1..={MAX_SHARDS}, got {n}"));
    }
    if n > 1 {
        let kind = job.get("kind").and_then(Json::as_str).unwrap_or("check");
        if kind != "check" {
            return Err(format!("only check jobs shard, not kind '{kind}'"));
        }
        if job.get("shard_index").is_some() || job.get("shard_of").is_some() {
            return Err("shard_index/shard_of are internal fields; use \"shards\"".to_string());
        }
    }
    Ok(n)
}

/// Merges a job's shard reports: random walks by seed split, every
/// other search by contiguous root slices.
fn merge_reports(job: &Json, reports: &[SearchReport]) -> SearchReport {
    let strategy = job.get("strategy").and_then(Json::as_str).unwrap_or("dfs");
    if strategy.starts_with("random:") {
        merge_seed_shards(reports)
    } else {
        merge_contiguous_shards(reports)
    }
}

/// Expands every `"shards": K` job into `K` shard jobs; unsharded jobs
/// pass through untouched. Order is manifest order, shards in index
/// order.
///
/// # Errors
///
/// Everything [`shard_count`] rejects, plus id collisions between an
/// expanded shard id and another job.
pub fn expand_jobs(jobs: &[JobSpec]) -> Result<Vec<JobSpec>, String> {
    let mut out = Vec::with_capacity(jobs.len());
    for job in jobs {
        let json =
            Json::parse(&job.payload).map_err(|e| format!("job {:?}: payload: {e}", job.id))?;
        let shards = shard_count(&json).map_err(|e| format!("job {:?}: {e}", job.id))?;
        if shards == 1 {
            out.push(job.clone());
            continue;
        }
        for index in 0..shards {
            out.push(JobSpec {
                id: format!("{}{SHARD_SEP}{index}", job.id),
                payload: shard_payload(&json, index, shards),
            });
        }
    }
    let mut seen = std::collections::HashSet::new();
    for job in &out {
        if !seen.insert(job.id.as_str()) {
            return Err(format!(
                "expanded job id {:?} collides with another job \
                 (a job id ending in '{SHARD_SEP}<n>' clashed with a sharded job)",
                job.id
            ));
        }
    }
    Ok(out)
}

/// The payload for shard `index` of `of`: the parent object with
/// `shards` dropped and `shard_index`/`shard_of` added.
fn shard_payload(job: &Json, index: usize, of: usize) -> String {
    let Json::Object(fields) = job else {
        unreachable!("validated jobs are objects");
    };
    let mut fields: Vec<(String, Json)> = fields
        .iter()
        .filter(|(k, _)| k != "shards")
        .cloned()
        .collect();
    fields.push(("shard_index".to_string(), Json::UInt(index as u64)));
    fields.push(("shard_of".to_string(), Json::UInt(of as u64)));
    Json::Object(fields).to_string_pretty()
}

/// Collapses shard-level verdicts back to manifest-level verdicts, in
/// manifest order. Unsharded jobs pass through; a sharded job becomes
/// one merged verdict — or a quarantine carrying every failed shard's
/// evidence if any shard was quarantined.
///
/// # Errors
///
/// Internal-consistency violations only: a missing shard verdict, a
/// malformed result payload, or a shard result without a report.
pub fn merge_verdicts(manifest: &Manifest, verdicts: &[Verdict]) -> Result<Vec<Verdict>, String> {
    let by_id: std::collections::HashMap<&str, &Verdict> =
        verdicts.iter().map(|v| (v.id.as_str(), v)).collect();
    let mut out = Vec::with_capacity(manifest.jobs.len());
    for job in &manifest.jobs {
        let json =
            Json::parse(&job.payload).map_err(|e| format!("job {:?}: payload: {e}", job.id))?;
        let shards = shard_count(&json).map_err(|e| format!("job {:?}: {e}", job.id))?;
        if shards == 1 {
            let v = by_id
                .get(job.id.as_str())
                .ok_or_else(|| format!("internal: job {:?} has no verdict", job.id))?;
            out.push((*v).clone());
            continue;
        }
        let mut parts = Vec::with_capacity(shards);
        for index in 0..shards {
            let id = format!("{}{SHARD_SEP}{index}", job.id);
            let v = by_id
                .get(id.as_str())
                .ok_or_else(|| format!("internal: shard {id:?} has no verdict"))?;
            parts.push((index, *v));
        }
        out.push(merge_shard_verdicts(&job.id, &json, &parts)?);
    }
    Ok(out)
}

/// Merges one job's shard verdicts (all of them, in index order).
fn merge_shard_verdicts(
    id: &str,
    job: &Json,
    parts: &[(usize, &Verdict)],
) -> Result<Verdict, String> {
    let attempts = parts.iter().map(|(_, v)| v.attempts).max().unwrap_or(1);
    let mut failures = Vec::new();
    let mut reports: Vec<SearchReport> = Vec::with_capacity(parts.len());
    for (index, v) in parts {
        match &v.outcome {
            VerdictOutcome::Done { payload } => {
                let result = JobResult::from_payload(payload)
                    .map_err(|e| format!("shard {id}{SHARD_SEP}{index}: {e}"))?;
                let report = result.report.ok_or_else(|| {
                    format!("internal: shard {id}{SHARD_SEP}{index} result has no report")
                })?;
                reports.push(report);
            }
            VerdictOutcome::Quarantined { failures: f } => {
                failures.extend(f.iter().map(|f| format!("shard {index}: {f}")));
            }
        }
    }
    if !failures.is_empty() {
        return Ok(Verdict {
            id: id.to_string(),
            attempts,
            outcome: VerdictOutcome::Quarantined { failures },
        });
    }
    let merged = merge_reports(job, &reports);
    let result = JobResult {
        code: merged.outcome.exit_code(),
        line: merged.deterministic_line(),
        report: Some(merged),
    };
    Ok(Verdict {
        id: id.to_string(),
        attempts,
        outcome: VerdictOutcome::Done {
            payload: result.to_payload(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::parse_manifest;
    use chess_core::{SearchOutcome, SearchStats};

    fn accept_all(_: &Json) -> Result<(), String> {
        Ok(())
    }

    fn manifest(text: &str) -> Manifest {
        parse_manifest(&Json::parse(text).unwrap(), "m", accept_all).unwrap()
    }

    fn done(id: &str, result: &JobResult) -> Verdict {
        Verdict {
            id: id.to_string(),
            attempts: 1,
            outcome: VerdictOutcome::Done {
                payload: result.to_payload(),
            },
        }
    }

    fn complete(executions: u64) -> JobResult {
        let report = SearchReport {
            outcome: SearchOutcome::Complete,
            stats: SearchStats {
                executions,
                ..Default::default()
            },
        };
        JobResult {
            code: report.outcome.exit_code(),
            line: report.deterministic_line(),
            report: Some(report),
        }
    }

    #[test]
    fn expansion_splits_and_renames() {
        let m = manifest(
            r#"{"jobs": [
                {"id": "plain", "workload": "counter"},
                {"id": "wide", "workload": "counter", "shards": 3, "max_executions": 100}
            ]}"#,
        );
        let jobs = expand_jobs(&m.jobs).unwrap();
        let ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, ["plain", "wide#0", "wide#1", "wide#2"]);
        let shard1 = Json::parse(&jobs[2].payload).unwrap();
        assert_eq!(shard1.get("shard_index").and_then(Json::as_u64), Some(1));
        assert_eq!(shard1.get("shard_of").and_then(Json::as_u64), Some(3));
        assert!(shard1.get("shards").is_none(), "shards must be dropped");
        assert_eq!(
            shard1.get("max_executions").and_then(Json::as_u64),
            Some(100),
            "other knobs ride along"
        );
    }

    #[test]
    fn unshardable_shapes_are_rejected() {
        let check = |job: &str, needle: &str| {
            let err = shard_count(&Json::parse(job).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        };
        check(r#"{"id": "x", "shards": 0}"#, "1..=");
        check(r#"{"id": "x", "shards": 1000}"#, "1..=");
        check(r#"{"id": "x", "shards": 2, "kind": "fuzz"}"#, "only check");
        check(
            r#"{"id": "x", "shards": 2, "shard_index": 0}"#,
            "internal fields",
        );
        // Every check search shards, reduced or not.
        for ok in [
            r#"{"id": "x", "shards": 2}"#,
            r#"{"id": "x", "shards": 2, "strategy": "dfs"}"#,
            r#"{"id": "x", "shards": 2, "strategy": "random:7"}"#,
            r#"{"id": "x", "shards": 2, "strategy": "cb:2", "reduce": true}"#,
        ] {
            assert!(shard_count(&Json::parse(ok).unwrap()).is_ok(), "{ok}");
        }
    }

    #[test]
    fn expansion_detects_id_collisions() {
        let m = manifest(
            r#"{"jobs": [
                {"id": "a#0", "workload": "counter"},
                {"id": "a", "workload": "counter", "shards": 2}
            ]}"#,
        );
        let err = expand_jobs(&m.jobs).unwrap_err();
        assert!(err.contains("collides"), "{err}");
    }

    #[test]
    fn merge_collapses_shards_in_manifest_order() {
        let m = manifest(
            r#"{"jobs": [
                {"id": "wide", "workload": "counter", "shards": 2},
                {"id": "plain", "workload": "counter"}
            ]}"#,
        );
        // Completion order is scrambled; merge must not care.
        let verdicts = vec![
            done("plain", &complete(5)),
            done("wide#1", &complete(3)),
            done("wide#0", &complete(4)),
        ];
        let merged = merge_verdicts(&m, &verdicts).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].id, "wide");
        assert_eq!(merged[1].id, "plain");
        let VerdictOutcome::Done { payload } = &merged[0].outcome else {
            panic!("expected done");
        };
        let result = JobResult::from_payload(payload).unwrap();
        assert_eq!(result.report.unwrap().stats.executions, 7, "4 + 3");
    }

    #[test]
    fn quarantined_shard_quarantines_the_job_with_evidence() {
        let m = manifest(r#"{"jobs": [{"id": "w", "workload": "counter", "shards": 2}]}"#);
        let verdicts = vec![
            done("w#0", &complete(4)),
            Verdict {
                id: "w#1".to_string(),
                attempts: 3,
                outcome: VerdictOutcome::Quarantined {
                    failures: vec!["worker died".to_string()],
                },
            },
        ];
        let merged = merge_verdicts(&m, &verdicts).unwrap();
        let VerdictOutcome::Quarantined { failures } = &merged[0].outcome else {
            panic!("expected quarantine");
        };
        assert_eq!(failures, &["shard 1: worker died"]);
        assert_eq!(merged[0].attempts, 3);
    }

    #[test]
    fn missing_shard_verdict_is_an_internal_error() {
        let m = manifest(r#"{"jobs": [{"id": "w", "workload": "counter", "shards": 2}]}"#);
        let verdicts = vec![done("w#0", &complete(4))];
        let err = merge_verdicts(&m, &verdicts).unwrap_err();
        assert!(err.contains("w#1"), "{err}");
    }
}
