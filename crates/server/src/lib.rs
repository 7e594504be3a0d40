//! # chess-server — the campaign daemon
//!
//! A long-running front end over the checker's process pool: clients
//! submit campaign manifests over a unix or TCP socket, the daemon
//! drives them through [`chess_core::procpool::Supervisor`] one at a
//! time, journals every verdict into a persistent content-addressed
//! store, streams progress to `watch` subscribers, and answers
//! `results` with a deterministic final report.
//!
//! The crate deliberately sits *below* the CLI: it knows nothing about
//! workloads (manifest validation is an injected callback) and nothing
//! about argument parsing. What it does own:
//!
//! - [`protocol`] — the line-delimited JSON wire format and its
//!   versioning rule.
//! - [`campaign`] — manifests, verdicts, journals, the deterministic
//!   report renderer, and [`campaign::run_jobs`], the one campaign
//!   driver under both `fair-chess serve` and the daemon.
//! - [`shard`] — splitting a check job into `{id}#0..{id}#{K-1}` shard
//!   jobs and merging the shard reports back into exactly the report
//!   the unsharded run would print.
//! - [`store`] — the append-only, digest-keyed campaign store that
//!   makes the daemon crash-only: `kill -9` + restart resumes every
//!   in-flight campaign and re-answers finished ones byte-for-byte.
//! - [`daemon`] / [`client`] — the two ends of the socket.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod client;
pub mod daemon;
pub mod net;
pub mod protocol;
pub mod shard;
pub mod store;

pub use campaign::{
    load_manifest, parse_manifest, render_report, run_jobs, CampaignRun, JobResult, JobValidator,
    Manifest, Verdict, VerdictOutcome, WorkerPool, CAMPAIGN_JOURNAL_VERSION,
};
pub use client::{expect_ok, Client};
pub use daemon::{run_daemon, DaemonConfig};
pub use net::Listen;
pub use protocol::{Request, PROTOCOL_VERSION};
pub use shard::{expand_jobs, merge_verdicts};
pub use store::{digest_hex, parse_digest, Store};
