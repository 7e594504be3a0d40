//! The campaign daemon: a socket front end over the process pool and
//! the persistent store.
//!
//! One daemon owns one `--store` directory and one listen address. It
//! holds an exclusive lock on `<store>/lock` while it runs, so a second
//! daemon on the same store refuses to start.
//! Campaigns are keyed by manifest digest and run strictly FIFO (one
//! at a time — the pool underneath already saturates the machine);
//! every verdict is journaled to the store the moment it arrives, so
//! the daemon itself is crash-only: `kill -9` it at any instant,
//! restart it on the same store, and the startup scan re-queues every
//! unfinished campaign exactly where the journal left it while
//! finished ones keep answering `results` byte-for-byte.
//!
//! Submitting a manifest whose digest the store already holds never
//! re-executes anything: the response says `cached: true` and the
//! stored verdicts answer for it. Submitting genuinely new work
//! persists the manifest *before* acknowledging, so an acknowledged
//! submit survives any crash.
//!
//! Each campaign runs through [`crate::campaign::run_jobs`], the driver
//! `fair-chess serve` uses too: the pool, the journal rewrite per
//! verdict and the degraded in-process path are one code path. What the
//! daemon adds around it is the store, its lock, the watchers and the
//! FIFO queue.

use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, TryLockError};
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use chess_bench::Json;
use chess_core::exitcode;
use chess_core::procpool::{read_line_bounded, JobSpec, LineRead, MAX_LINE_BYTES};

use crate::campaign::{
    parse_manifest, pending_jobs, run_jobs, status_doc, JobResult, JobValidator, Manifest, Verdict,
    VerdictOutcome, WorkerPool,
};
use crate::net::{Listen, Stream};
use crate::protocol::{error_response, event, ok_response, parse_request, to_line, Request};
use crate::shard::{expand_jobs, merge_verdicts};
use crate::store::{digest_hex, parse_manifest_text, Store};

/// Everything a daemon needs to run.
pub struct DaemonConfig {
    /// Where to listen.
    pub listen: Listen,
    /// The persistent store root.
    pub store_dir: PathBuf,
    /// The pool every campaign runs on.
    pub pool: WorkerPool,
    /// Validates manifest jobs at submit time.
    pub validator: JobValidator,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
}

struct Campaign {
    manifest: Manifest,
    expanded: Vec<JobSpec>,
    /// Shard-level verdicts, in completion order (mirrors the journal).
    verdicts: Vec<Verdict>,
    phase: Phase,
    cancelled: bool,
    stop: Arc<AtomicBool>,
}

impl Campaign {
    fn complete(&self) -> bool {
        self.verdicts.len() == self.expanded.len()
    }

    fn state_str(&self) -> &'static str {
        if self.cancelled {
            "cancelled"
        } else {
            match self.phase {
                Phase::Queued => "queued",
                Phase::Running => "running",
                Phase::Done => "done",
            }
        }
    }

    /// The merged final report `(text, exit code)`; only meaningful
    /// once complete.
    fn report(&self) -> Result<(String, u8), String> {
        let merged = merge_verdicts(&self.manifest, &self.verdicts)?;
        crate::campaign::render_report(&self.manifest, &merged)
    }
}

struct Inner {
    campaigns: BTreeMap<u64, Campaign>,
    queue: VecDeque<u64>,
    shutdown: bool,
    /// Bumped on every observable change; watchers wait on it.
    seq: u64,
}

struct Shared {
    inner: Mutex<Inner>,
    cond: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("daemon state poisoned")
    }

    /// Mutates the state, bumps the change sequence, and wakes waiters.
    fn publish<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        let mut inner = self.lock();
        let out = f(&mut inner);
        inner.seq += 1;
        drop(inner);
        self.cond.notify_all();
        out
    }
}

struct Ctx {
    shared: Shared,
    store: Store,
    pool: WorkerPool,
    validator: JobValidator,
}

/// Takes the exclusive lock on `<store>/lock` and writes this process's
/// pid into it, for the error a second daemon reports. The lock lasts as
/// long as the returned file. It is not inherited by re-exec'd workers
/// (Rust opens files close-on-exec), and the kernel releases it when
/// the daemon dies, so a killed daemon leaves no stale lock.
fn lock_store(store_dir: &Path) -> Result<File, String> {
    let path = store_dir.join("lock");
    let mut file = File::options()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    match file.try_lock() {
        Ok(()) => {}
        Err(TryLockError::WouldBlock) => {
            let mut owner = String::new();
            let _ = file.read_to_string(&mut owner);
            return Err(format!(
                "store {} is in use by another daemon (pid {})",
                store_dir.display(),
                owner.trim()
            ));
        }
        Err(TryLockError::Error(e)) => return Err(format!("lock {}: {e}", path.display())),
    }
    file.set_len(0)
        .and_then(|()| write!(file, "{}", std::process::id()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(file)
}

/// Runs the daemon until a `shutdown` request: locks and resumes the
/// store, binds the listener, and serves the protocol.
///
/// # Errors
///
/// Startup failures only (bad address, unusable store, a store another
/// daemon holds); once serving, per-connection and per-campaign failures
/// are reported to the peer or stderr instead of stopping the daemon.
pub fn run_daemon(config: DaemonConfig) -> Result<(), String> {
    let store = Store::open(&config.store_dir)?;
    let _lock = lock_store(&config.store_dir)?;
    let ctx = Arc::new(Ctx {
        shared: Shared {
            inner: Mutex::new(Inner {
                campaigns: BTreeMap::new(),
                queue: VecDeque::new(),
                shutdown: false,
                seq: 0,
            }),
            cond: Condvar::new(),
        },
        store,
        pool: config.pool,
        validator: config.validator,
    });

    let (finished, queued) = resume_store(&ctx)?;
    let listener = config.listen.bind()?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener: {e}"))?;
    println!(
        "daemon: listening on {} (store {}, {finished} finished, {queued} resumed)",
        config.listen,
        config.store_dir.display()
    );
    let _ = std::io::stdout().flush();

    let runner = {
        let ctx = Arc::clone(&ctx);
        std::thread::spawn(move || runner_loop(&ctx))
    };
    loop {
        if ctx.shared.lock().shutdown {
            break;
        }
        match listener.accept() {
            Ok(stream) => {
                let ctx = Arc::clone(&ctx);
                std::thread::spawn(move || handle_client(stream, &ctx));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                eprintln!("daemon: accept: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    runner
        .join()
        .map_err(|_| "runner thread panicked".to_string())?;
    if let Listen::Unix(path) = &config.listen {
        let _ = std::fs::remove_file(path);
    }
    println!("daemon: shut down");
    Ok(())
}

/// Loads every stored campaign into memory and queues the unfinished,
/// uncancelled ones. Returns `(finished, queued)` counts.
fn resume_store(ctx: &Ctx) -> Result<(usize, usize), String> {
    let (stored, warnings) = ctx.store.scan()?;
    for w in warnings {
        eprintln!("daemon: store: {w}");
    }
    let (mut finished, mut queued) = (0usize, 0usize);
    let mut inner = ctx.shared.lock();
    for c in stored {
        let origin = format!("store campaign {}", digest_hex(c.digest));
        let manifest = match parse_manifest_text(&c.manifest_text)
            .and_then(|doc| parse_manifest(&doc, &origin, ctx.validator))
        {
            Ok(m) => m,
            Err(e) => {
                eprintln!("daemon: store: skipping {origin}: {e}");
                continue;
            }
        };
        if manifest.digest != c.digest {
            eprintln!(
                "daemon: store: skipping {origin}: manifest digests to {}",
                digest_hex(manifest.digest)
            );
            continue;
        }
        let (expanded, todo) = match expand_jobs(&manifest.jobs)
            .and_then(|expanded| pending_jobs(&expanded, &c.verdicts).map(|todo| (expanded, todo)))
        {
            Ok(jobs) => jobs,
            Err(e) => {
                eprintln!("daemon: store: skipping {origin}: {e}");
                continue;
            }
        };
        let campaign = Campaign {
            phase: if c.cancelled || todo.is_empty() {
                Phase::Done
            } else {
                Phase::Queued
            },
            manifest,
            expanded,
            verdicts: c.verdicts,
            cancelled: c.cancelled,
            stop: Arc::new(AtomicBool::new(c.cancelled)),
        };
        if campaign.phase == Phase::Queued {
            inner.queue.push_back(c.digest);
            queued += 1;
        } else {
            finished += 1;
        }
        inner.campaigns.insert(c.digest, campaign);
    }
    Ok((finished, queued))
}

// ---------------------------------------------------------------------
// The campaign runner (one thread, FIFO)
// ---------------------------------------------------------------------

fn runner_loop(ctx: &Arc<Ctx>) {
    loop {
        let digest = {
            let mut inner = ctx.shared.lock();
            loop {
                if inner.shutdown {
                    return;
                }
                if let Some(d) = inner.queue.pop_front() {
                    break d;
                }
                inner = ctx.shared.cond.wait(inner).expect("daemon state poisoned");
            }
        };
        run_campaign(ctx, digest);
    }
}

fn run_campaign(ctx: &Arc<Ctx>, digest: u64) {
    let Some((expanded, resumed, stop)) = ctx.shared.publish(|inner| {
        let c = inner.campaigns.get_mut(&digest)?;
        c.phase = Phase::Running;
        Some((c.expanded.clone(), c.verdicts.clone(), Arc::clone(&c.stop)))
    }) else {
        return;
    };

    // Watchers see each verdict before the driver journals it: a slow
    // disk must not stall them.
    let run = run_jobs(
        &ctx.pool,
        digest,
        &expanded,
        resumed,
        Some(ctx.store.journal_path(digest)),
        &stop,
        |verdicts| {
            ctx.shared.publish(|inner| {
                if let (Some(c), Some(v)) = (inner.campaigns.get_mut(&digest), verdicts.last()) {
                    c.verdicts.push(v.clone());
                }
            });
        },
    );
    // Startup and submit both checked the verdicts, so an error here
    // means the in-memory state is broken; the campaign stays undecided.
    let warnings = match run {
        Ok(run) => run.warnings,
        Err(e) => vec![e],
    };
    for w in warnings {
        eprintln!("daemon: campaign {}: {w}", digest_hex(digest));
    }

    ctx.shared.publish(|inner| {
        if let Some(c) = inner.campaigns.get_mut(&digest) {
            // A shutdown mid-campaign parks it Queued: still in-flight,
            // resumed by the next daemon on this store.
            c.phase = if c.complete() || c.cancelled {
                Phase::Done
            } else {
                Phase::Queued
            };
        }
    });
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

fn handle_client(stream: Stream, ctx: &Arc<Ctx>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    loop {
        match read_line_bounded(&mut reader, &mut line, MAX_LINE_BYTES) {
            Ok(LineRead::Line) => {}
            Ok(LineRead::TooLong) => {
                // The rest of the line cannot be skipped without reading
                // it: answer, then hang up.
                let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
                let _ = send(&mut writer, &error_response(&message));
                return;
            }
            Ok(LineRead::Eof) | Err(_) => return,
        }
        if line.trim().is_empty() {
            continue;
        }
        let done = match parse_request(&line) {
            Err(e) => send(&mut writer, &error_response(&e)).is_err(),
            Ok(Request::Watch { campaign }) => do_watch(&mut writer, ctx, campaign).is_err(),
            Ok(request) => {
                let shutdown = request == Request::Shutdown;
                let response = respond(ctx, request);
                send(&mut writer, &response).is_err() || shutdown
            }
        };
        if done {
            return;
        }
    }
}

fn send(writer: &mut Stream, json: &Json) -> std::io::Result<()> {
    writer.write_all(to_line(json).as_bytes())?;
    writer.flush()
}

/// Handles every single-response operation.
fn respond(ctx: &Arc<Ctx>, request: Request) -> Json {
    match request {
        Request::Submit { manifest } => do_submit(ctx, &manifest),
        Request::Status { campaign } => do_status(ctx, campaign),
        Request::Cancel { campaign } => do_cancel(ctx, campaign),
        Request::Results { campaign } => do_results(ctx, campaign),
        Request::Shutdown => do_shutdown(ctx),
        Request::Watch { .. } => unreachable!("watch is handled by the stream loop"),
    }
}

fn do_submit(ctx: &Arc<Ctx>, doc: &Json) -> Json {
    let manifest = match parse_manifest(doc, "submit", ctx.validator) {
        Ok(m) => m,
        Err(e) => return error_response(&e),
    };
    let expanded = match expand_jobs(&manifest.jobs) {
        Ok(jobs) => jobs,
        Err(e) => return error_response(&e),
    };
    let digest = manifest.digest;
    let canonical = doc.to_string_pretty();

    let mut inner = ctx.shared.lock();
    if let Some(c) = inner.campaigns.get(&digest) {
        // Content-addressed hit: never re-execute, answer from memory.
        let mut fields = vec![
            ("campaign", Json::Str(digest_hex(digest))),
            ("cached", Json::Bool(true)),
            ("state", Json::Str(c.state_str().to_string())),
        ];
        if c.phase == Phase::Done && c.complete() {
            if let Ok((_, code)) = c.report() {
                fields.push(("code", Json::UInt(u64::from(code))));
            }
        }
        return ok_response(fields);
    }
    if inner.shutdown {
        return error_response("daemon is shutting down");
    }
    // Persist before acknowledging: an acked submit survives a crash.
    if let Err(e) = ctx.store.admit(digest, &canonical) {
        return error_response(&e);
    }
    let jobs = expanded.len();
    inner.campaigns.insert(
        digest,
        Campaign {
            manifest,
            expanded,
            verdicts: Vec::new(),
            phase: Phase::Queued,
            cancelled: false,
            stop: Arc::new(AtomicBool::new(false)),
        },
    );
    inner.queue.push_back(digest);
    inner.seq += 1;
    drop(inner);
    ctx.shared.cond.notify_all();
    ok_response([
        ("campaign", Json::Str(digest_hex(digest))),
        ("cached", Json::Bool(false)),
        ("state", Json::Str("queued".to_string())),
        ("jobs", Json::UInt(jobs as u64)),
    ])
}

/// One campaign's status object: its id and state, then the shard-level
/// counts of [`status_doc`].
fn status_json(digest: u64, c: &Campaign) -> Json {
    let Json::Object(counts) = status_doc(&c.verdicts, c.expanded.len()) else {
        unreachable!("status_doc builds an object");
    };
    let mut fields = vec![
        ("campaign".to_string(), Json::Str(digest_hex(digest))),
        ("state".to_string(), Json::Str(c.state_str().to_string())),
    ];
    fields.extend(counts);
    Json::Object(fields)
}

fn do_status(ctx: &Arc<Ctx>, campaign: Option<u64>) -> Json {
    let inner = ctx.shared.lock();
    match campaign {
        Some(digest) => match inner.campaigns.get(&digest) {
            Some(c) => ok_response([("status", status_json(digest, c))]),
            None => error_response(&format!("unknown campaign {}", digest_hex(digest))),
        },
        None => ok_response([
            ("accepting", Json::Bool(!inner.shutdown)),
            (
                "campaigns",
                Json::array(inner.campaigns.iter().map(|(d, c)| status_json(*d, c))),
            ),
        ]),
    }
}

fn do_cancel(ctx: &Arc<Ctx>, digest: u64) -> Json {
    let mut inner = ctx.shared.lock();
    let Some(c) = inner.campaigns.get_mut(&digest) else {
        return error_response(&format!("unknown campaign {}", digest_hex(digest)));
    };
    if !c.cancelled && c.phase != Phase::Done {
        c.cancelled = true;
        c.stop.store(true, Ordering::Release);
        if c.phase == Phase::Queued {
            c.phase = Phase::Done;
        }
        if let Err(e) = ctx.store.mark_cancelled(digest) {
            eprintln!("daemon: {e}");
        }
        inner.queue.retain(|d| *d != digest);
    }
    let state = inner.campaigns[&digest].state_str().to_string();
    inner.seq += 1;
    drop(inner);
    ctx.shared.cond.notify_all();
    ok_response([
        ("campaign", Json::Str(digest_hex(digest))),
        ("state", Json::Str(state)),
    ])
}

fn do_results(ctx: &Arc<Ctx>, digest: u64) -> Json {
    let inner = ctx.shared.lock();
    let Some(c) = inner.campaigns.get(&digest) else {
        return error_response(&format!("unknown campaign {}", digest_hex(digest)));
    };
    if !c.complete() {
        return error_response(&format!(
            "campaign {} is not finished ({} of {} jobs decided{})",
            digest_hex(digest),
            c.verdicts.len(),
            c.expanded.len(),
            if c.cancelled { ", cancelled" } else { "" },
        ));
    }
    match c.report() {
        Ok((text, code)) => ok_response([
            ("campaign", Json::Str(digest_hex(digest))),
            ("code", Json::UInt(u64::from(code))),
            ("report", Json::Str(text)),
        ]),
        Err(e) => error_response(&e),
    }
}

fn do_shutdown(ctx: &Arc<Ctx>) -> Json {
    ctx.shared.publish(|inner| {
        inner.shutdown = true;
        for c in inner.campaigns.values() {
            // Park the running campaign; queued ones simply never start.
            c.stop.store(true, Ordering::Release);
        }
    });
    ok_response([("state", Json::Str("shutting-down".to_string()))])
}

/// The `watch` stream: replays every verdict so far, then follows the
/// campaign live until it finishes (event `done`) or the daemon parks
/// it for shutdown (event `detached`).
fn do_watch(writer: &mut Stream, ctx: &Arc<Ctx>, digest: u64) -> std::io::Result<()> {
    if !ctx.shared.lock().campaigns.contains_key(&digest) {
        return send(
            writer,
            &error_response(&format!("unknown campaign {}", digest_hex(digest))),
        );
    }
    send(
        writer,
        &ok_response([("campaign", Json::Str(digest_hex(digest)))]),
    )?;
    let mut next = 0usize;
    loop {
        enum Wake {
            Verdicts(Vec<Verdict>, Json),
            Done(Json),
            Detached,
        }
        let wake = {
            let mut inner = ctx.shared.lock();
            loop {
                let Some(c) = inner.campaigns.get(&digest) else {
                    break Wake::Detached;
                };
                if next < c.verdicts.len() {
                    let fresh = c.verdicts[next..].to_vec();
                    next = c.verdicts.len();
                    break Wake::Verdicts(fresh, status_json(digest, c));
                }
                if c.phase == Phase::Done {
                    break Wake::Done(done_event(c));
                }
                if inner.shutdown {
                    break Wake::Detached;
                }
                inner = ctx.shared.cond.wait(inner).expect("daemon state poisoned");
            }
        };
        match wake {
            Wake::Verdicts(fresh, status) => {
                for v in &fresh {
                    send(writer, &verdict_event(digest, v))?;
                }
                let Json::Object(pairs) = status else {
                    unreachable!("status_json builds an object");
                };
                send(writer, &event("status", pairs))?;
            }
            Wake::Done(ev) => return send(writer, &ev),
            Wake::Detached => {
                return send(
                    writer,
                    &event(
                        "detached",
                        [("reason", Json::Str("daemon shutting down".to_string()))],
                    ),
                )
            }
        }
    }
}

fn verdict_event(digest: u64, v: &Verdict) -> Json {
    let mut fields = vec![
        ("campaign", Json::Str(digest_hex(digest))),
        ("id", Json::Str(v.id.clone())),
        ("attempts", Json::UInt(u64::from(v.attempts))),
    ];
    match &v.outcome {
        VerdictOutcome::Done { payload } => match JobResult::from_payload(payload) {
            Ok(result) => {
                fields.push(("code", Json::UInt(u64::from(result.code))));
                fields.push(("line", Json::Str(result.line)));
            }
            Err(e) => fields.push(("malformed", Json::Str(e))),
        },
        VerdictOutcome::Quarantined { failures } => {
            fields.push(("quarantined", Json::Bool(true)));
            fields.push((
                "failures",
                Json::array(failures.iter().map(|f| Json::Str(f.clone()))),
            ));
        }
    }
    event("verdict", fields)
}

fn done_event(c: &Campaign) -> Json {
    if c.cancelled {
        return event(
            "done",
            [
                ("cancelled", Json::Bool(true)),
                ("code", Json::UInt(u64::from(exitcode::INTERRUPTED))),
            ],
        );
    }
    match c.report() {
        Ok((_, code)) => event("done", [("code", Json::UInt(u64::from(code)))]),
        Err(e) => event(
            "done",
            [
                ("code", Json::UInt(u64::from(exitcode::INTERNAL))),
                ("error", Json::Str(e)),
            ],
        ),
    }
}
