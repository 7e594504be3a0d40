//! The `daemon` subcommand and its client verbs.
//!
//! `fair-chess daemon --listen <addr> --store <dir>` runs the
//! long-running campaign daemon from [`chess_server`]: it accepts
//! line-delimited JSON requests over a unix or TCP socket, drives each
//! submitted manifest through the same campaign driver as `serve`
//! ([`chess_server::run_jobs`], on the pool [`workercmd::worker_pool`]
//! builds for both), and journals every verdict into a
//! content-addressed store so a killed daemon resumes its in-flight
//! campaigns on restart.
//!
//! The client verbs — `submit`, `status`, `watch`, `cancel`,
//! `results`, `shutdown` — speak that protocol so campaigns can be
//! managed from scripts without hand-writing socket code. `submit
//! --watch` stays attached and streams verdicts as they land, exiting
//! with the campaign's report code; `results` prints the finished
//! report and exits with its code, mirroring what a one-shot `serve`
//! of the same manifest would have printed and returned.

use std::process::ExitCode;

use chess_bench::Json;
use chess_server::{expect_ok, parse_digest, run_daemon, Client, DaemonConfig, Listen, Request};

use crate::opts::{ClientOp, ClientOpts, DaemonOpts};
use crate::{exitcode, workercmd};

/// Entry point for `fair-chess daemon`.
pub fn do_daemon(o: &DaemonOpts) -> ExitCode {
    match daemon(o) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(exitcode::USAGE)
        }
    }
}

fn daemon(o: &DaemonOpts) -> Result<(), String> {
    run_daemon(DaemonConfig {
        listen: Listen::parse(&o.listen)?,
        store_dir: std::path::PathBuf::from(&o.store),
        pool: workercmd::worker_pool(&o.pool)?,
        validator: workercmd::validate_job,
    })
}

/// Entry point for the client verbs (`submit`, `status`, ...).
pub fn do_client(o: &ClientOpts) -> ExitCode {
    match client(o) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(exitcode::USAGE)
        }
    }
}

fn client(o: &ClientOpts) -> Result<u8, String> {
    let addr = Listen::parse(&o.connect)?;
    let mut client = Client::connect(&addr)?;
    match &o.op {
        ClientOp::Submit { manifest, watch } => {
            let text = std::fs::read_to_string(manifest)
                .map_err(|e| format!("cannot read {manifest}: {e}"))?;
            let doc = Json::parse(&text).map_err(|e| format!("{manifest}: {e}"))?;
            let ack = expect_ok(client.request(&Request::Submit { manifest: doc })?)?;
            let digest = ack
                .get("campaign")
                .and_then(Json::as_str)
                .ok_or("malformed submit ack: no 'campaign'")?
                .to_string();
            let cached = ack.get("cached").and_then(Json::as_bool).unwrap_or(false);
            let state = ack.get("state").and_then(Json::as_str).unwrap_or("?");
            if cached {
                println!("campaign {digest}: cached ({state})");
            } else {
                let jobs = ack.get("jobs").and_then(Json::as_u64).unwrap_or(0);
                println!("campaign {digest}: queued ({jobs} jobs)");
            }
            if *watch {
                let campaign = parse_digest(&digest)?;
                expect_ok(client.request(&Request::Watch { campaign })?)?;
                return stream_events(&mut client);
            }
            // A cached, finished campaign answers with its code so a
            // fire-and-forget resubmit still reports the verdict.
            match ack.get("code").and_then(Json::as_u64) {
                Some(code) => Ok(code as u8),
                None => Ok(0),
            }
        }
        ClientOp::Status { campaign } => {
            let campaign = match campaign {
                Some(text) => Some(parse_digest(text)?),
                None => None,
            };
            let doc = expect_ok(client.request(&Request::Status { campaign })?)?;
            println!("{}", doc.to_string_pretty());
            Ok(0)
        }
        ClientOp::Watch { campaign } => {
            let campaign = parse_digest(campaign)?;
            expect_ok(client.request(&Request::Watch { campaign })?)?;
            stream_events(&mut client)
        }
        ClientOp::Cancel { campaign } => {
            let digest = parse_digest(campaign)?;
            let doc = expect_ok(client.request(&Request::Cancel { campaign: digest })?)?;
            let state = doc.get("state").and_then(Json::as_str).unwrap_or("?");
            println!("campaign {campaign}: {state}");
            Ok(0)
        }
        ClientOp::Results { campaign } => {
            let digest = parse_digest(campaign)?;
            let doc = expect_ok(client.request(&Request::Results { campaign: digest })?)?;
            let text = doc
                .get("report")
                .and_then(Json::as_str)
                .ok_or("malformed results response: no 'report'")?;
            print!("{text}");
            let code = doc
                .get("code")
                .and_then(Json::as_u64)
                .ok_or("malformed results response: no 'code'")?;
            Ok(code as u8)
        }
        ClientOp::Shutdown => {
            expect_ok(client.request(&Request::Shutdown)?)?;
            println!("daemon shutting down");
            Ok(0)
        }
    }
}

/// Follows a `watch` stream to completion: verdicts go to stdout,
/// progress to stderr, and the `done` event decides the exit code.
fn stream_events(client: &mut Client) -> Result<u8, String> {
    loop {
        let Some(event) = client.read_event()? else {
            return Err("daemon closed the stream without a 'done' event".to_string());
        };
        match event.get("event").and_then(Json::as_str) {
            Some("verdict") => {
                let id = event.get("id").and_then(Json::as_str).unwrap_or("?");
                if event.get("quarantined").and_then(Json::as_bool) == Some(true) {
                    let attempts = event.get("attempts").and_then(Json::as_u64).unwrap_or(0);
                    println!("{id}: quarantined after {attempts} attempt(s)");
                } else {
                    let line = event.get("line").and_then(Json::as_str).unwrap_or("?");
                    println!("{id}: {line}");
                }
            }
            Some("status") => {
                let done = event.get("done").and_then(Json::as_u64).unwrap_or(0);
                let quarantined = event.get("quarantined").and_then(Json::as_u64).unwrap_or(0);
                let total = event.get("total").and_then(Json::as_u64).unwrap_or(0);
                eprintln!(
                    "progress: {}/{total} decided ({quarantined} quarantined)",
                    done + quarantined
                );
            }
            Some("done") => {
                if event.get("cancelled").and_then(Json::as_bool) == Some(true) {
                    eprintln!("campaign cancelled");
                }
                if let Some(err) = event.get("error").and_then(Json::as_str) {
                    eprintln!("error: {err}");
                }
                let code = event
                    .get("code")
                    .and_then(Json::as_u64)
                    .ok_or("malformed 'done' event: no 'code'")?;
                return Ok(code as u8);
            }
            Some("detached") => {
                eprintln!("detached: daemon shutting down; campaign resumes on restart");
                return Ok(exitcode::INTERRUPTED);
            }
            other => {
                eprintln!("warning: unknown event {other:?} ignored");
            }
        }
    }
}
