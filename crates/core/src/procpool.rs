//! Process-isolated campaign supervision: a work-stealing pool of worker
//! *processes* with watchdog timeouts, retry with exponential backoff,
//! and poison-job quarantine.
//!
//! [`ShardRunner`](crate::ShardRunner) isolates faults at the *thread*
//! boundary: a workload panic becomes a replayable outcome and a checker
//! panic costs one shard restart. That is not enough for a
//! checker meant to run unattended for days over real systems code — an
//! abort, an OOM kill, a stack overflow, or an infinite loop inside a
//! guest takes the whole process with it. This module moves the
//! isolation boundary to a **process**: the supervisor hands jobs to
//! worker processes over a line-delimited protocol and assumes every
//! worker can die, hang, or babble at any moment.
//!
//! The pieces:
//!
//! * [`Supervisor`] — owns a queue of opaque [`JobSpec`]s and a set of
//!   workers spawned through a [`WorkerFactory`]. Idle workers *steal*
//!   the next ready job (there is no static assignment); a worker that
//!   goes silent past the heartbeat deadline is killed and its job
//!   requeued; a failed job retries under exponential backoff with
//!   deterministic jitter; a job that keeps killing workers is
//!   **quarantined** after [`PoolConfig::max_attempts`] instead of
//!   looping forever.
//! * [`worker_main`] — the protocol loop a worker process runs: it
//!   executes the job handler on a thread, emits heartbeats only while
//!   the handler's [`Progress`] counters advance (so a hung guest stalls
//!   the heartbeat and trips the supervisor watchdog), and streams the
//!   result back.
//! * [`ProcessWorkerFactory`] — the real transport: spawns a command
//!   (typically the current executable with a hidden `worker`
//!   subcommand), a reader thread per child feeding a channel, SIGKILL
//!   via [`std::process::Child::kill`].
//!
//! The payloads are opaque single-line strings (newlines and
//! backslashes are escaped by the framing layer), so the pool carries
//! any job encoding a front end chooses; this crate never parses them.
//!
//! Degradation is graceful at every rung: a worker that cannot be
//! *spawned* does not fail the campaign — the supervisor keeps going
//! with fewer workers, and when no worker can be spawned at all it
//! returns the unfinished jobs to the caller ([`PoolReport::leftover`])
//! so the front end can fall back to in-process execution, mirroring the
//! journal writer's degrade-to-memory ladder.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::explore::Progress;

/// One unit of campaign work: an identifier plus an opaque payload the
/// worker-side handler knows how to interpret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Stable job identifier, unique within the campaign.
    pub id: String,
    /// Opaque payload handed verbatim to the worker's job handler.
    pub payload: String,
}

/// Why a job attempt failed, recorded for the final verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptFailure {
    /// The worker process exited (or closed its pipes) mid-job.
    WorkerDied,
    /// No protocol message within the heartbeat deadline; the worker was
    /// killed by the watchdog.
    WatchdogTimeout,
    /// The worker emitted a line the protocol cannot parse; it was
    /// killed, since its stream can no longer be trusted.
    ProtocolViolation(String),
    /// The worker reported a handler-level error for the job.
    HandlerError(String),
}

impl std::fmt::Display for AttemptFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptFailure::WorkerDied => write!(f, "worker died"),
            AttemptFailure::WatchdogTimeout => write!(f, "watchdog timeout"),
            AttemptFailure::ProtocolViolation(line) => {
                write!(f, "protocol violation: {line:?}")
            }
            AttemptFailure::HandlerError(msg) => write!(f, "handler error: {msg}"),
        }
    }
}

/// Terminal status of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// The handler completed and returned this payload.
    Done {
        /// The handler's result payload, verbatim.
        payload: String,
    },
    /// The job failed [`PoolConfig::max_attempts`] times and was pulled
    /// from the queue so it cannot keep killing workers. The failure list
    /// is the evidence; the job itself remains replayable from its spec.
    Quarantined {
        /// Every attempt's failure, in order.
        failures: Vec<AttemptFailure>,
    },
}

/// The supervisor's verdict for one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobVerdict {
    /// The job's identifier.
    pub id: String,
    /// Attempts consumed (1 for a first-try success).
    pub attempts: u32,
    /// Terminal status.
    pub outcome: JobOutcome,
}

/// Tuning knobs for the supervisor.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker processes to keep alive while jobs remain.
    pub workers: usize,
    /// Watchdog deadline: a busy worker that sends no protocol message
    /// for this long is killed and its job requeued.
    pub heartbeat_timeout: Duration,
    /// Poison cap: a job whose attempt count reaches this is quarantined.
    pub max_attempts: u32,
    /// Base of the exponential retry backoff: attempt `n` waits
    /// `base * 2^(n-1)` plus jitter, capped at `backoff_cap`.
    pub backoff_base: Duration,
    /// Upper bound on the computed backoff (before jitter).
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter (mixed with the job id,
    /// so retries of different jobs spread out but a rerun of the same
    /// campaign waits identically).
    pub jitter_seed: u64,
    /// Consecutive spawn failures tolerated before the supervisor stops
    /// trying to replace dead workers.
    pub spawn_failure_cap: u32,
    /// Supervisor loop poll interval.
    pub poll_interval: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 2,
            heartbeat_timeout: Duration::from_secs(10),
            max_attempts: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
            jitter_seed: 0,
            spawn_failure_cap: 3,
            poll_interval: Duration::from_millis(5),
        }
    }
}

/// An event surfaced by a worker transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportEvent {
    /// One protocol line from the worker (without the trailing newline).
    Line(String),
    /// The worker sent a line longer than [`MAX_LINE_BYTES`]; nothing
    /// more is read from it.
    LineTooLong,
    /// The worker's output stream closed: the process is gone.
    Eof,
}

/// The longest line accepted from a peer process or socket client,
/// line ending excluded.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What [`read_line_bounded`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineRead {
    /// A line, now in the caller's buffer without its line ending. The
    /// last line of a stream may lack the newline.
    Line,
    /// The stream ended before a new line began.
    Eof,
    /// The line is longer than the limit; the caller's buffer is empty.
    /// The reader stopped before the line's newline (or at the end of
    /// the stream), so the caller can either skip to the next line or
    /// give up on the stream.
    TooLong,
}

/// Reads one line of at most `max` bytes (line ending excluded) into
/// `line`, as [`std::io::BufRead::lines`] would, but never buffers more
/// than `max` bytes of it: a peer that sends no newline costs the reader
/// bounded memory. A line that is not UTF-8 is an
/// [`std::io::ErrorKind::InvalidData`] error.
pub fn read_line_bounded<R: std::io::BufRead + ?Sized>(
    reader: &mut R,
    line: &mut String,
    max: usize,
) -> std::io::Result<LineRead> {
    let mut bytes = std::mem::take(line).into_bytes();
    bytes.clear();
    let found = loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break if bytes.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            };
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        // One byte of slack for the `\r` of a `\r\n` ending: always
        // while the newline is not yet in sight, and only for a real
        // `\r` once it is, so an over-long line is never consumed.
        let cr = match newline {
            Some(_) => chunk[..take].last().or(bytes.last()) == Some(&b'\r'),
            None => true,
        };
        if bytes.len() + take > max + usize::from(cr) {
            return Ok(LineRead::TooLong);
        }
        bytes.extend_from_slice(&chunk[..take]);
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            if bytes.last() == Some(&b'\r') {
                bytes.pop();
            }
            break LineRead::Line;
        }
    };
    if bytes.len() > max {
        return Ok(LineRead::TooLong);
    }
    *line = String::from_utf8(bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(found)
}

/// One worker process (or an in-process fake, in tests) as the
/// supervisor sees it: a line sink, a non-blocking event source, and a
/// kill switch.
pub trait WorkerTransport: Send {
    /// Sends one protocol line to the worker. An error means the worker
    /// is effectively dead (e.g. its stdin pipe is closed).
    fn send_line(&mut self, line: &str) -> Result<(), String>;
    /// Drains one pending event, if any, without blocking.
    fn try_recv(&mut self) -> Option<TransportEvent>;
    /// Forcibly terminates the worker (SIGKILL for a real process).
    /// Idempotent.
    fn kill(&mut self);
}

/// Spawns workers for a [`Supervisor`].
pub trait WorkerFactory {
    /// Starts one worker, returning its transport. An `Err` is a spawn
    /// failure — the supervisor degrades rather than aborting.
    fn spawn_worker(&mut self) -> Result<Box<dyn WorkerTransport>, String>;
}

// ---------------------------------------------------------------------
// Protocol framing
// ---------------------------------------------------------------------
//
// Lines, space-separated head fields, and a single escaped tail payload:
//
//   supervisor -> worker:   job <id> <attempt> <payload>
//                           shutdown
//   worker -> supervisor:   ready
//                           heartbeat <id>
//                           result <id> <payload>
//                           error <id> <message>
//
// Payloads/messages are escaped (`\` -> `\\`, newline -> `\n`, CR ->
// `\r`) so arbitrary text travels as one line. Anything unparsable from
// a worker is a protocol violation: the stream can no longer be framed,
// so the worker is killed and the attempt counted as failed.

/// Escapes a payload so it survives line framing.
pub fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape_line`]. Rejects dangling or unknown escapes.
pub fn unescape_line(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(c) => return Err(format!("bad escape '\\{c}'")),
            None => return Err("dangling backslash".to_string()),
        }
    }
    Ok(out)
}

/// A protocol message sent by a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerMsg {
    /// The worker is up and idle.
    Ready,
    /// The job is alive and making progress.
    Heartbeat {
        /// Job being worked on.
        id: String,
    },
    /// The job completed with this result payload.
    Result {
        /// Job that completed.
        id: String,
        /// Handler result, unescaped.
        payload: String,
    },
    /// The handler failed; the attempt counts as failed.
    Error {
        /// Job that failed.
        id: String,
        /// Handler error message, unescaped.
        message: String,
    },
}

impl WorkerMsg {
    /// Renders the message as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            WorkerMsg::Ready => "ready".to_string(),
            WorkerMsg::Heartbeat { id } => format!("heartbeat {}", escape_line(id)),
            WorkerMsg::Result { id, payload } => {
                format!("result {} {}", escape_line(id), escape_line(payload))
            }
            WorkerMsg::Error { id, message } => {
                format!("error {} {}", escape_line(id), escape_line(message))
            }
        }
    }

    /// Parses one protocol line from a worker.
    pub fn parse(line: &str) -> Result<WorkerMsg, String> {
        let (head, rest) = match line.split_once(' ') {
            Some((h, r)) => (h, r),
            None => (line, ""),
        };
        match head {
            "ready" => Ok(WorkerMsg::Ready),
            "heartbeat" => Ok(WorkerMsg::Heartbeat {
                id: unescape_line(rest)?,
            }),
            "result" | "error" => {
                let (id, tail) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("{head}: missing payload"))?;
                let id = unescape_line(id)?;
                let tail = unescape_line(tail)?;
                Ok(if head == "result" {
                    WorkerMsg::Result { id, payload: tail }
                } else {
                    WorkerMsg::Error { id, message: tail }
                })
            }
            other => Err(format!("unknown message '{other}'")),
        }
    }
}

/// A protocol message sent by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorMsg {
    /// Run this job.
    Job {
        /// Job identifier.
        id: String,
        /// 1-based attempt number (chaos injection keys on it).
        attempt: u32,
        /// Opaque job payload, unescaped.
        payload: String,
    },
    /// Exit cleanly.
    Shutdown,
}

impl SupervisorMsg {
    /// Renders the message as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            SupervisorMsg::Job {
                id,
                attempt,
                payload,
            } => format!("job {} {attempt} {}", escape_line(id), escape_line(payload)),
            SupervisorMsg::Shutdown => "shutdown".to_string(),
        }
    }

    /// Parses one protocol line from the supervisor.
    pub fn parse(line: &str) -> Result<SupervisorMsg, String> {
        if line == "shutdown" {
            return Ok(SupervisorMsg::Shutdown);
        }
        let Some(rest) = line.strip_prefix("job ") else {
            return Err(format!("unknown message {line:?}"));
        };
        let mut parts = rest.splitn(3, ' ');
        let id = parts.next().ok_or("job: missing id")?;
        let attempt = parts
            .next()
            .ok_or("job: missing attempt")?
            .parse::<u32>()
            .map_err(|e| format!("job: bad attempt: {e}"))?;
        let payload = parts.next().ok_or("job: missing payload")?;
        Ok(SupervisorMsg::Job {
            id: unescape_line(id)?,
            attempt,
            payload: unescape_line(payload)?,
        })
    }
}

// ---------------------------------------------------------------------
// The real transport: one child process + a reader thread
// ---------------------------------------------------------------------

/// A spawned worker process. Lines are read by a detached thread feeding
/// a channel, so the supervisor never blocks on a silent child; `kill`
/// is SIGKILL, which is exactly the discipline the watchdog wants —
/// a hung worker gets no chance to ignore a polite signal.
pub struct ProcessWorker {
    child: std::process::Child,
    stdin: Option<std::process::ChildStdin>,
    events: Receiver<TransportEvent>,
    eof_seen: bool,
}

impl ProcessWorker {
    /// Spawns `program args...` with piped stdin/stdout (stderr passes
    /// through to the supervisor's, so worker diagnostics stay visible).
    pub fn spawn(program: &std::path::Path, args: &[String]) -> Result<ProcessWorker, String> {
        let mut child = std::process::Command::new(program)
            .args(args)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("spawn: no stdout pipe")?;
        let (tx, rx): (Sender<TransportEvent>, Receiver<TransportEvent>) =
            std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut reader = std::io::BufReader::new(stdout);
            let mut line = String::new();
            loop {
                let event = match read_line_bounded(&mut reader, &mut line, MAX_LINE_BYTES) {
                    Ok(LineRead::Line) => TransportEvent::Line(std::mem::take(&mut line)),
                    Ok(LineRead::TooLong) => {
                        let _ = tx.send(TransportEvent::LineTooLong);
                        return;
                    }
                    Ok(LineRead::Eof) | Err(_) => break,
                };
                if tx.send(event).is_err() {
                    return; // supervisor dropped the worker
                }
            }
            let _ = tx.send(TransportEvent::Eof);
        });
        Ok(ProcessWorker {
            child,
            stdin,
            events: rx,
            eof_seen: false,
        })
    }
}

impl WorkerTransport for ProcessWorker {
    fn send_line(&mut self, line: &str) -> Result<(), String> {
        use std::io::Write;
        let stdin = self.stdin.as_mut().ok_or("worker stdin closed")?;
        writeln!(stdin, "{line}")
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("worker stdin: {e}"))
    }

    fn try_recv(&mut self) -> Option<TransportEvent> {
        if self.eof_seen {
            return None;
        }
        match self.events.try_recv() {
            Ok(ev) => {
                if ev == TransportEvent::Eof {
                    self.eof_seen = true;
                }
                Some(ev)
            }
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                self.eof_seen = true;
                Some(TransportEvent::Eof)
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ProcessWorker {
    fn drop(&mut self) {
        // Never leak a worker process past the supervisor's lifetime.
        self.kill();
    }
}

/// Spawns copies of one command as workers — normally the current
/// executable with a hidden `worker` subcommand.
pub struct ProcessWorkerFactory {
    program: std::path::PathBuf,
    args: Vec<String>,
}

impl ProcessWorkerFactory {
    /// A factory spawning `program args...` per worker.
    pub fn new(program: std::path::PathBuf, args: Vec<String>) -> Self {
        ProcessWorkerFactory { program, args }
    }
}

impl WorkerFactory for ProcessWorkerFactory {
    fn spawn_worker(&mut self) -> Result<Box<dyn WorkerTransport>, String> {
        Ok(Box::new(ProcessWorker::spawn(&self.program, &self.args)?))
    }
}

// ---------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------

/// A job waiting in the queue.
struct PendingJob {
    spec: JobSpec,
    /// 1-based number the *next* attempt will carry.
    next_attempt: u32,
    failures: Vec<AttemptFailure>,
    /// Earliest instant the next attempt may start (backoff).
    not_before: Instant,
}

/// What one worker slot is doing.
enum SlotState {
    /// Spawned, awaiting `ready` (counts against the watchdog too).
    Starting,
    /// Waiting for a job.
    Idle,
    /// Running `job` (index into `Supervisor::pending` is not stable, so
    /// the spec travels with the slot).
    Busy { job: PendingJob },
}

struct Slot {
    transport: Box<dyn WorkerTransport>,
    state: SlotState,
    /// Last protocol message (or spawn) instant, for the watchdog.
    last_seen: Instant,
}

/// Counters describing a finished campaign run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs that completed with a result.
    pub done: u64,
    /// Jobs quarantined after the poison cap.
    pub quarantined: u64,
    /// Failed attempts across all jobs (retries + quarantine evidence).
    pub failed_attempts: u64,
    /// Workers killed by the watchdog.
    pub watchdog_kills: u64,
    /// Workers that died (or babbled) mid-job.
    pub workers_lost: u64,
    /// Worker processes spawned over the campaign.
    pub workers_spawned: u64,
    /// Worker spawn attempts that failed.
    pub spawn_failures: u64,
}

/// The result of [`Supervisor::run`].
#[derive(Debug)]
pub struct PoolReport {
    /// Verdicts for every job that reached a terminal state, in
    /// completion order.
    pub verdicts: Vec<JobVerdict>,
    /// Jobs the pool could not run: nonempty only when every worker died
    /// and none could be respawned (degradation — the caller should run
    /// these in-process), or when the run was stopped early.
    pub leftover: Vec<JobSpec>,
    /// Human-readable degradation warnings.
    pub warnings: Vec<String>,
    /// Campaign counters.
    pub stats: PoolStats,
    /// True when the run ended because the stop flag was raised.
    pub stopped: bool,
}

/// Multi-process work-stealing job supervisor. See the module docs for
/// the policy; see [`worker_main`] for the worker side.
pub struct Supervisor<F: WorkerFactory> {
    factory: F,
    config: PoolConfig,
    stop: Option<Arc<AtomicBool>>,
}

impl<F: WorkerFactory> Supervisor<F> {
    /// Creates a supervisor over `factory` with the given policy.
    pub fn new(factory: F, config: PoolConfig) -> Self {
        Supervisor {
            factory,
            config,
            stop: None,
        }
    }

    /// Attaches a cooperative stop flag (e.g. a SIGINT handler's). When
    /// it reads `true` the supervisor kills its workers and returns with
    /// the unfinished jobs in [`PoolReport::leftover`].
    pub fn with_stop_flag(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Deterministic backoff before attempt `next_attempt` of `job_id`:
    /// `base * 2^(n-1)` capped, plus up to 25% jitter drawn from a
    /// generator seeded by (jitter_seed, job id, attempt) — no wall
    /// clock, so a resumed campaign waits exactly like the original.
    fn backoff(&self, job_id: &str, next_attempt: u32) -> Duration {
        let base = self.config.backoff_base.as_millis() as u64;
        let exp = next_attempt.saturating_sub(2).min(16);
        let raw = base.saturating_mul(1u64 << exp);
        let capped = raw.min(self.config.backoff_cap.as_millis() as u64);
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.config.jitter_seed;
        for b in job_id.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= next_attempt as u64;
        let jitter = if capped == 0 {
            0
        } else {
            SmallRng::seed_from_u64(h).gen_range(0..capped / 4 + 1)
        };
        Duration::from_millis(capped + jitter)
    }

    /// Runs `jobs` to completion (or stop-flag interruption), invoking
    /// `on_verdict` as each job reaches a terminal state — the front end
    /// journals verdicts there, which is what makes a supervisor SIGKILL
    /// resumable.
    pub fn run(
        &mut self,
        jobs: Vec<JobSpec>,
        mut on_verdict: impl FnMut(&JobVerdict),
    ) -> PoolReport {
        let now = Instant::now();
        let mut pending: VecDeque<PendingJob> = jobs
            .into_iter()
            .map(|spec| PendingJob {
                spec,
                next_attempt: 1,
                failures: Vec::new(),
                not_before: now,
            })
            .collect();
        let mut report = PoolReport {
            verdicts: Vec::new(),
            leftover: Vec::new(),
            warnings: Vec::new(),
            stats: PoolStats::default(),
            stopped: false,
        };
        let mut slots: Vec<Slot> = Vec::new();
        let mut spawn_failures_in_a_row = 0u32;
        let mut spawning_abandoned = false;

        loop {
            if self
                .stop
                .as_ref()
                .is_some_and(|s| s.load(Ordering::Relaxed))
            {
                report.stopped = true;
                break;
            }
            let in_flight = slots
                .iter()
                .filter(|s| matches!(s.state, SlotState::Busy { .. }))
                .count();
            if pending.is_empty() && in_flight == 0 {
                break;
            }

            // Keep the pool populated while there is work to hand out.
            let wanted = self
                .config
                .workers
                .min(pending.len() + in_flight)
                .max(in_flight);
            while slots.len() < wanted && !spawning_abandoned {
                match self.factory.spawn_worker() {
                    Ok(transport) => {
                        report.stats.workers_spawned += 1;
                        spawn_failures_in_a_row = 0;
                        slots.push(Slot {
                            transport,
                            state: SlotState::Starting,
                            last_seen: Instant::now(),
                        });
                    }
                    Err(e) => {
                        report.stats.spawn_failures += 1;
                        spawn_failures_in_a_row += 1;
                        if spawn_failures_in_a_row >= self.config.spawn_failure_cap {
                            spawning_abandoned = true;
                            report.warnings.push(format!(
                                "worker spawning abandoned after {spawn_failures_in_a_row} \
                                 consecutive failures (last: {e})"
                            ));
                        }
                    }
                }
            }
            // Total degradation: nothing alive and nothing spawnable.
            if slots.is_empty() && spawning_abandoned {
                break;
            }

            // Drain events, dispatch, and watchdog each slot.
            let mut i = 0;
            while i < slots.len() {
                let now = Instant::now();
                let mut remove = false;
                let mut violation = None;
                loop {
                    let slot = &mut slots[i];
                    let Some(event) = slot.transport.try_recv() else {
                        break;
                    };
                    slot.last_seen = now;
                    match event {
                        TransportEvent::Eof => {
                            self.fail_slot(
                                &mut slots[i],
                                AttemptFailure::WorkerDied,
                                &mut pending,
                                &mut report,
                                &mut on_verdict,
                            );
                            report.stats.workers_lost += 1;
                            remove = true;
                            break;
                        }
                        TransportEvent::Line(line) => match WorkerMsg::parse(&line) {
                            Ok(msg) => {
                                if !self.handle_msg(
                                    &mut slots[i],
                                    msg,
                                    &mut pending,
                                    &mut report,
                                    &mut on_verdict,
                                ) {
                                    remove = true;
                                    break;
                                }
                            }
                            Err(_) => {
                                // The first 80 bytes, cut at a character
                                // boundary.
                                let cut = (0..=line.len().min(80))
                                    .rev()
                                    .find(|&i| line.is_char_boundary(i))
                                    .unwrap_or(0);
                                violation = Some(line[..cut].to_string());
                                break;
                            }
                        },
                        TransportEvent::LineTooLong => {
                            violation = Some(format!("line longer than {MAX_LINE_BYTES} bytes"));
                            break;
                        }
                    }
                }
                if let Some(shown) = violation {
                    // Garbage on the wire: the stream cannot be
                    // re-synchronized, so the worker dies.
                    self.fail_slot(
                        &mut slots[i],
                        AttemptFailure::ProtocolViolation(shown),
                        &mut pending,
                        &mut report,
                        &mut on_verdict,
                    );
                    slots[i].transport.kill();
                    report.stats.workers_lost += 1;
                    remove = true;
                }
                if !remove {
                    let slot = &mut slots[i];
                    let silent_for = now.saturating_duration_since(slot.last_seen);
                    let busy = matches!(slot.state, SlotState::Busy { .. } | SlotState::Starting);
                    if busy && silent_for > self.config.heartbeat_timeout {
                        self.fail_slot(
                            &mut slots[i],
                            AttemptFailure::WatchdogTimeout,
                            &mut pending,
                            &mut report,
                            &mut on_verdict,
                        );
                        slots[i].transport.kill();
                        report.stats.watchdog_kills += 1;
                        remove = true;
                    }
                }
                if remove {
                    slots.remove(i);
                } else {
                    i += 1;
                }
            }

            // Work stealing: every idle worker takes the next ready job.
            let now = Instant::now();
            for slot in slots.iter_mut() {
                if !matches!(slot.state, SlotState::Idle) {
                    continue;
                }
                let Some(pos) = pending.iter().position(|j| j.not_before <= now) else {
                    break;
                };
                let job = pending.remove(pos).expect("position just found");
                let msg = SupervisorMsg::Job {
                    id: job.spec.id.clone(),
                    attempt: job.next_attempt,
                    payload: job.spec.payload.clone(),
                };
                match slot.transport.send_line(&msg.to_line()) {
                    Ok(()) => {
                        slot.state = SlotState::Busy { job };
                        slot.last_seen = now;
                    }
                    Err(_) => {
                        // Dead on dispatch; the Eof will surface on the
                        // next drain and remove the slot.
                        pending.push_front(job);
                        break;
                    }
                }
            }

            std::thread::sleep(self.config.poll_interval);
        }

        // Wind down: ask nicely first, then make sure.
        for slot in slots.iter_mut() {
            let _ = slot.transport.send_line(&SupervisorMsg::Shutdown.to_line());
            slot.transport.kill();
            // Reclaim any job still assigned at stop time.
            if let SlotState::Busy { job } = std::mem::replace(&mut slot.state, SlotState::Idle) {
                pending.push_front(job);
            }
        }
        report.leftover = pending.into_iter().map(|j| j.spec).collect();
        if !report.leftover.is_empty() && !report.stopped {
            report.warnings.push(format!(
                "{} job(s) left unrun: no worker process available",
                report.leftover.len()
            ));
        }
        report
    }

    /// Reacts to one parsed worker message. Returns `false` when the
    /// slot must be removed (protocol state violation).
    fn handle_msg(
        &self,
        slot: &mut Slot,
        msg: WorkerMsg,
        pending: &mut VecDeque<PendingJob>,
        report: &mut PoolReport,
        on_verdict: &mut impl FnMut(&JobVerdict),
    ) -> bool {
        match msg {
            WorkerMsg::Ready => {
                if matches!(slot.state, SlotState::Starting) {
                    slot.state = SlotState::Idle;
                    true
                } else {
                    // `ready` mid-job means the worker lost its state
                    // (e.g. it re-executed); treat as a died worker.
                    self.fail_slot(
                        slot,
                        AttemptFailure::WorkerDied,
                        pending,
                        report,
                        on_verdict,
                    );
                    slot.transport.kill();
                    report.stats.workers_lost += 1;
                    false
                }
            }
            WorkerMsg::Heartbeat { id } => {
                // Heartbeats already refreshed `last_seen`; just sanity-
                // check the id. A heartbeat for a job this slot does not
                // own is protocol confusion.
                let ok = matches!(&slot.state, SlotState::Busy { job } if job.spec.id == id);
                if !ok {
                    self.fail_slot(
                        slot,
                        AttemptFailure::ProtocolViolation(format!("stray heartbeat for {id}")),
                        pending,
                        report,
                        on_verdict,
                    );
                    slot.transport.kill();
                    report.stats.workers_lost += 1;
                }
                ok
            }
            WorkerMsg::Result { id, payload } => {
                let owned = matches!(&slot.state, SlotState::Busy { job } if job.spec.id == id);
                if !owned {
                    self.fail_slot(
                        slot,
                        AttemptFailure::ProtocolViolation(format!("stray result for {id}")),
                        pending,
                        report,
                        on_verdict,
                    );
                    slot.transport.kill();
                    report.stats.workers_lost += 1;
                    return false;
                }
                let SlotState::Busy { job } = std::mem::replace(&mut slot.state, SlotState::Idle)
                else {
                    unreachable!("ownership checked above");
                };
                let verdict = JobVerdict {
                    id: job.spec.id,
                    attempts: job.next_attempt,
                    outcome: JobOutcome::Done { payload },
                };
                report.stats.done += 1;
                on_verdict(&verdict);
                report.verdicts.push(verdict);
                true
            }
            WorkerMsg::Error { id, message } => {
                let owned = matches!(&slot.state, SlotState::Busy { job } if job.spec.id == id);
                if !owned {
                    self.fail_slot(
                        slot,
                        AttemptFailure::ProtocolViolation(format!("stray error for {id}")),
                        pending,
                        report,
                        on_verdict,
                    );
                    slot.transport.kill();
                    report.stats.workers_lost += 1;
                    return false;
                }
                // A handler error fails the attempt but the worker
                // itself is healthy; it stays in the pool.
                self.fail_slot(
                    slot,
                    AttemptFailure::HandlerError(message),
                    pending,
                    report,
                    on_verdict,
                );
                true
            }
        }
    }

    /// Marks the slot's in-flight attempt (if any) failed: requeues the
    /// job under backoff, or quarantines it at the poison cap. Leaves
    /// the slot `Idle`; the caller decides whether the worker survives.
    fn fail_slot(
        &self,
        slot: &mut Slot,
        failure: AttemptFailure,
        pending: &mut VecDeque<PendingJob>,
        report: &mut PoolReport,
        on_verdict: &mut impl FnMut(&JobVerdict),
    ) {
        let state = std::mem::replace(&mut slot.state, SlotState::Idle);
        let SlotState::Busy { mut job } = state else {
            return;
        };
        report.stats.failed_attempts += 1;
        job.failures.push(failure);
        if job.next_attempt >= self.config.max_attempts {
            let verdict = JobVerdict {
                id: job.spec.id,
                attempts: job.next_attempt,
                outcome: JobOutcome::Quarantined {
                    failures: job.failures,
                },
            };
            report.stats.quarantined += 1;
            on_verdict(&verdict);
            report.verdicts.push(verdict);
        } else {
            job.next_attempt += 1;
            job.not_before = Instant::now() + self.backoff(&job.spec.id, job.next_attempt);
            pending.push_back(job);
        }
    }
}

// ---------------------------------------------------------------------
// The worker side
// ---------------------------------------------------------------------

/// How a [`worker_main`] handler reports its work: bump the counters as
/// the job advances; the protocol loop translates advancement into
/// heartbeats. A handler that stops bumping (a hung guest) stops the
/// heartbeats and gets the worker killed by the supervisor's watchdog —
/// which is the intended failure mode.
pub type JobProgress = Progress;

/// Runs the worker side of the protocol over `input`/`output`: waits
/// for `job` lines, runs `handler` on a thread, emits `heartbeat` lines
/// every `heartbeat_interval` **only while the handler's progress
/// counters advance**, then `result` (or `error`). Returns when the
/// supervisor sends `shutdown` or the input closes.
///
/// `handler(id, attempt, payload, progress)` returns the result payload
/// or an error message. A handler panic is caught and reported as an
/// `error` line; the worker survives for the next job. An input line
/// longer than [`MAX_LINE_BYTES`] is skipped like any unparsable line.
pub fn worker_main<R, W, H>(mut input: R, mut output: W, heartbeat_interval: Duration, handler: H)
where
    R: std::io::BufRead,
    W: std::io::Write,
    H: Fn(&str, u32, &str, &Arc<Progress>) -> Result<String, String> + Send + Sync + 'static,
{
    let handler = Arc::new(handler);
    let mut emit = |msg: WorkerMsg| {
        // An output error means the supervisor is gone; exiting the loop
        // (via the closed-input path) is the only sensible response, but
        // from inside the emit helper just drop the line.
        let _ = writeln!(output, "{}", msg.to_line());
        let _ = output.flush();
    };
    emit(WorkerMsg::Ready);
    let mut line = String::new();
    loop {
        match read_line_bounded(&mut input, &mut line, MAX_LINE_BYTES) {
            Ok(LineRead::Line) => {}
            // Garbage like any unparsable line: skip the rest of it.
            Ok(LineRead::TooLong) => match input.skip_until(b'\n') {
                Ok(_) => continue,
                Err(_) => break,
            },
            Ok(LineRead::Eof) | Err(_) => break,
        }
        let msg = match SupervisorMsg::parse(&line) {
            Ok(msg) => msg,
            Err(_) => continue, // tolerate garbage from the supervisor
        };
        let (id, attempt, payload) = match msg {
            SupervisorMsg::Shutdown => break,
            SupervisorMsg::Job {
                id,
                attempt,
                payload,
            } => (id, attempt, payload),
        };
        let progress = Arc::new(Progress::default());
        let (tx, rx) = std::sync::mpsc::channel::<Result<String, String>>();
        {
            let handler = Arc::clone(&handler);
            let progress = Arc::clone(&progress);
            let id = id.clone();
            std::thread::spawn(move || {
                let outcome =
                    crate::panics::catch_silent(|| handler(&id, attempt, &payload, &progress))
                        .unwrap_or_else(|panic| Err(format!("handler panicked: {panic}")));
                let _ = tx.send(outcome);
            });
        }
        emit(WorkerMsg::Heartbeat { id: id.clone() });
        let mut last_tick = progress.tick();
        loop {
            match rx.recv_timeout(heartbeat_interval) {
                Ok(Ok(payload)) => {
                    emit(WorkerMsg::Result {
                        id: id.clone(),
                        payload,
                    });
                    break;
                }
                Ok(Err(message)) => {
                    emit(WorkerMsg::Error {
                        id: id.clone(),
                        message,
                    });
                    break;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    let tick = progress.tick();
                    if tick != last_tick {
                        last_tick = tick;
                        emit(WorkerMsg::Heartbeat { id: id.clone() });
                    }
                    // No progress: stay silent and let the supervisor's
                    // watchdog decide whether we are hung.
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    emit(WorkerMsg::Error {
                        id: id.clone(),
                        message: "job thread vanished".to_string(),
                    });
                    break;
                }
            }
        }
        // NOTE: if the handler hung, its thread is still running here.
        // The worker reports nothing more for that job; the supervisor
        // will have killed the process anyway. Accepting the next job in
        // that state is fine for a process meant to be disposable.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // -- framing ------------------------------------------------------

    #[test]
    fn escape_round_trips_awkward_payloads() {
        for s in ["", "plain", "a\nb", "tr\\ail\\\\", "\r\n", "sp ace"] {
            assert_eq!(unescape_line(&escape_line(s)).unwrap(), s);
        }
        assert!(unescape_line("dangling\\").is_err());
        assert!(unescape_line("\\q").is_err());
    }

    #[test]
    fn worker_messages_round_trip() {
        let msgs = [
            WorkerMsg::Ready,
            WorkerMsg::Heartbeat { id: "j 1".into() },
            WorkerMsg::Result {
                id: "j1".into(),
                payload: "{\"a\":\n1}".into(),
            },
            WorkerMsg::Error {
                id: "j2".into(),
                message: "boom\nline2".into(),
            },
        ];
        for msg in msgs {
            let line = msg.to_line();
            assert!(!line.contains('\n'), "{line:?}");
            assert_eq!(WorkerMsg::parse(&line).unwrap(), msg);
        }
        assert!(WorkerMsg::parse("garbage !!").is_err());
        assert!(WorkerMsg::parse("result missing-payload").is_err());
    }

    #[test]
    fn supervisor_messages_round_trip() {
        let msgs = [
            SupervisorMsg::Job {
                id: "check-1".into(),
                attempt: 3,
                payload: "{\"k\": 2}\n".into(),
            },
            SupervisorMsg::Shutdown,
        ];
        for msg in msgs {
            let line = msg.to_line();
            assert!(!line.contains('\n'), "{line:?}");
            assert_eq!(SupervisorMsg::parse(&line).unwrap(), msg);
        }
        assert!(SupervisorMsg::parse("job only-id").is_err());
        assert!(SupervisorMsg::parse("nonsense").is_err());
    }

    // -- fake transports ----------------------------------------------

    /// Scripted fake worker: a behavior enum drives what happens when a
    /// job arrives.
    #[derive(Clone)]
    enum FakeBehavior {
        /// Answer every job with `result <id> done:<attempt>`.
        Obedient,
        /// Die (Eof) on receiving the first job.
        DiesOnJob,
        /// Emit an unparsable line on the first job, then obey.
        GarbageOnce,
        /// Accept the job and go silent forever (hang).
        Hangs,
        /// Report a handler error for every job.
        AlwaysErrors,
    }

    struct FakeWorker {
        behavior: FakeBehavior,
        queue: VecDeque<TransportEvent>,
        dead: bool,
        jobs_seen: Arc<Mutex<Vec<(String, u32)>>>,
        garbage_emitted: bool,
    }

    impl FakeWorker {
        fn new(behavior: FakeBehavior, jobs_seen: Arc<Mutex<Vec<(String, u32)>>>) -> Self {
            let mut queue = VecDeque::new();
            queue.push_back(TransportEvent::Line("ready".to_string()));
            FakeWorker {
                behavior,
                queue,
                dead: false,
                jobs_seen,
                garbage_emitted: false,
            }
        }
    }

    impl WorkerTransport for FakeWorker {
        fn send_line(&mut self, line: &str) -> Result<(), String> {
            if self.dead {
                return Err("dead".to_string());
            }
            let Ok(SupervisorMsg::Job { id, attempt, .. }) = SupervisorMsg::parse(line) else {
                return Ok(()); // shutdown
            };
            self.jobs_seen.lock().unwrap().push((id.clone(), attempt));
            match self.behavior {
                FakeBehavior::Obedient => {
                    self.queue.push_back(TransportEvent::Line(
                        WorkerMsg::Result {
                            id,
                            payload: format!("done:{attempt}"),
                        }
                        .to_line(),
                    ));
                }
                FakeBehavior::DiesOnJob => {
                    self.dead = true;
                    self.queue.push_back(TransportEvent::Eof);
                }
                FakeBehavior::GarbageOnce => {
                    if self.garbage_emitted {
                        self.queue.push_back(TransportEvent::Line(
                            WorkerMsg::Result {
                                id,
                                payload: format!("done:{attempt}"),
                            }
                            .to_line(),
                        ));
                    } else {
                        self.garbage_emitted = true;
                        // Multi-byte characters straddle the 80-byte cut
                        // of the reported line.
                        self.queue
                            .push_back(TransportEvent::Line(format!("!{}", "é".repeat(60))));
                    }
                }
                FakeBehavior::Hangs => {}
                FakeBehavior::AlwaysErrors => {
                    self.queue.push_back(TransportEvent::Line(
                        WorkerMsg::Error {
                            id,
                            message: "no such workload".to_string(),
                        }
                        .to_line(),
                    ));
                }
            }
            Ok(())
        }

        fn try_recv(&mut self) -> Option<TransportEvent> {
            self.queue.pop_front()
        }

        fn kill(&mut self) {
            self.dead = true;
        }
    }

    struct FakeFactory {
        behaviors: Vec<FakeBehavior>,
        spawned: usize,
        jobs_seen: Arc<Mutex<Vec<(String, u32)>>>,
        fail_spawns: bool,
    }

    impl FakeFactory {
        /// Workers are handed behaviors in order; past the end, Obedient.
        fn new(behaviors: Vec<FakeBehavior>) -> Self {
            FakeFactory {
                behaviors,
                spawned: 0,
                jobs_seen: Arc::new(Mutex::new(Vec::new())),
                fail_spawns: false,
            }
        }
    }

    impl WorkerFactory for FakeFactory {
        fn spawn_worker(&mut self) -> Result<Box<dyn WorkerTransport>, String> {
            if self.fail_spawns {
                return Err("spawn disabled".to_string());
            }
            let behavior = self
                .behaviors
                .get(self.spawned)
                .cloned()
                .unwrap_or(FakeBehavior::Obedient);
            self.spawned += 1;
            Ok(Box::new(FakeWorker::new(behavior, self.jobs_seen.clone())))
        }
    }

    fn jobs(n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                id: format!("job-{i}"),
                payload: format!("payload-{i}"),
            })
            .collect()
    }

    fn fast_config(workers: usize) -> PoolConfig {
        PoolConfig {
            workers,
            heartbeat_timeout: Duration::from_millis(80),
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            jitter_seed: 7,
            spawn_failure_cap: 2,
            poll_interval: Duration::from_millis(1),
        }
    }

    // -- supervisor policy --------------------------------------------

    #[test]
    fn obedient_workers_complete_every_job_once() {
        let factory = FakeFactory::new(vec![]);
        let seen = factory.jobs_seen.clone();
        let mut verdicts_cb = Vec::new();
        let report = Supervisor::new(factory, fast_config(3)).run(jobs(7), |v| {
            verdicts_cb.push(v.id.clone());
        });
        assert_eq!(report.stats.done, 7);
        assert_eq!(report.stats.quarantined, 0);
        assert!(report.leftover.is_empty());
        assert_eq!(report.verdicts.len(), 7);
        assert_eq!(verdicts_cb.len(), 7, "callback fired per verdict");
        // Work stealing, not static assignment: every job ran exactly
        // once across the pool.
        let mut ids: Vec<String> = seen
            .lock()
            .unwrap()
            .iter()
            .map(|(id, _)| id.clone())
            .collect();
        ids.sort();
        assert_eq!(ids, (0..7).map(|i| format!("job-{i}")).collect::<Vec<_>>());
        for v in &report.verdicts {
            assert!(matches!(&v.outcome, JobOutcome::Done { payload } if payload == "done:1"));
        }
    }

    #[test]
    fn dead_worker_requeues_job_and_respawn_completes_it() {
        // Worker 1 dies on its first job; the respawned worker (and the
        // healthy one) finish everything. The killed job's retry carries
        // attempt 2.
        let factory = FakeFactory::new(vec![FakeBehavior::DiesOnJob, FakeBehavior::Obedient]);
        let mut report = Supervisor::new(factory, fast_config(2)).run(jobs(4), |_| {});
        assert_eq!(report.stats.done, 4);
        assert_eq!(report.stats.workers_lost, 1);
        assert_eq!(report.stats.failed_attempts, 1);
        report.verdicts.sort_by(|a, b| a.id.cmp(&b.id));
        let retried: Vec<_> = report.verdicts.iter().filter(|v| v.attempts == 2).collect();
        assert_eq!(retried.len(), 1, "exactly one job needed a retry");
        assert!(matches!(
            &retried[0].outcome,
            JobOutcome::Done { payload } if payload == "done:2"
        ));
    }

    #[test]
    fn garbage_line_is_a_protocol_violation_and_the_job_retries() {
        let factory = FakeFactory::new(vec![FakeBehavior::GarbageOnce]);
        let report = Supervisor::new(factory, fast_config(1)).run(jobs(1), |_| {});
        assert_eq!(report.stats.done, 1);
        assert_eq!(report.stats.workers_lost, 1);
        let v = &report.verdicts[0];
        assert_eq!(v.attempts, 2);
    }

    #[test]
    fn bounded_line_reader_reads_lines_and_stops_at_the_limit() {
        use std::io::Cursor;
        let mut line = String::new();
        let mut input = Cursor::new("a\r\nbc\n\nlast");
        for expected in ["a", "bc", "", "last"] {
            assert_eq!(
                read_line_bounded(&mut input, &mut line, 4).unwrap(),
                LineRead::Line
            );
            assert_eq!(line, expected);
        }
        assert_eq!(
            read_line_bounded(&mut input, &mut line, 4).unwrap(),
            LineRead::Eof
        );
        // Exactly at the limit, then one byte over it, line ending
        // excluded either way.
        let mut input = Cursor::new("abcd\r\nabcde\n");
        assert_eq!(
            read_line_bounded(&mut input, &mut line, 4).unwrap(),
            LineRead::Line
        );
        assert_eq!(line, "abcd");
        assert_eq!(
            read_line_bounded(&mut input, &mut line, 4).unwrap(),
            LineRead::TooLong
        );
        assert!(line.is_empty());
        // A one-byte read buffer splits lines, and `\r\n` endings,
        // across fills.
        let mut input = std::io::BufReader::with_capacity(1, Cursor::new("abcd\r\nabcd\rx"));
        assert_eq!(
            read_line_bounded(&mut input, &mut line, 4).unwrap(),
            LineRead::Line
        );
        assert_eq!(line, "abcd");
        assert_eq!(
            read_line_bounded(&mut input, &mut line, 4).unwrap(),
            LineRead::TooLong
        );
        let mut input = std::io::BufReader::with_capacity(3, Cursor::new(vec![b'x'; 1 << 12]));
        assert_eq!(
            read_line_bounded(&mut input, &mut line, 1 << 10).unwrap(),
            LineRead::TooLong
        );
        // An over-long line is never consumed, even when its newline is
        // in the buffer, so skipping to that newline resynchronizes.
        let mut input = Cursor::new("abcde\nok\n");
        assert_eq!(
            read_line_bounded(&mut input, &mut line, 4).unwrap(),
            LineRead::TooLong
        );
        std::io::BufRead::skip_until(&mut input, b'\n').unwrap();
        assert_eq!(
            read_line_bounded(&mut input, &mut line, 4).unwrap(),
            LineRead::Line
        );
        assert_eq!(line, "ok");
        let mut input = Cursor::new(vec![0xff, b'\n']);
        let err = read_line_bounded(&mut input, &mut line, 4).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// A worker that sends a line with no newline is cut off at
    /// [`MAX_LINE_BYTES`]: each such attempt fails as a protocol
    /// violation and the job ends quarantined, with the supervisor
    /// never holding more than the limit.
    #[test]
    fn oversized_worker_line_is_a_failed_attempt() {
        let script = r#"
echo ready
while IFS= read -r line; do
  case "$line" in
    job\ *) head -c 2097152 /dev/zero | tr '\0' x; exec sleep 600 ;;
    shutdown) exit 0 ;;
  esac
done
"#;
        let factory = ProcessWorkerFactory::new(
            std::path::PathBuf::from("/bin/sh"),
            vec!["-c".to_string(), script.to_string()],
        );
        let mut config = fast_config(1);
        config.heartbeat_timeout = Duration::from_secs(20);
        let report = Supervisor::new(factory, config).run(jobs(1), |_| {});
        assert_eq!(report.stats.quarantined, 1, "{:?}", report.stats);
        assert_eq!(report.stats.watchdog_kills, 0);
        let JobOutcome::Quarantined { failures } = &report.verdicts[0].outcome else {
            panic!("expected quarantine: {:?}", report.verdicts[0]);
        };
        assert_eq!(failures.len(), 3);
        for f in failures {
            assert_eq!(
                f,
                &AttemptFailure::ProtocolViolation(format!(
                    "line longer than {MAX_LINE_BYTES} bytes"
                ))
            );
        }
    }

    #[test]
    fn hung_worker_is_killed_by_the_watchdog() {
        let factory = FakeFactory::new(vec![FakeBehavior::Hangs, FakeBehavior::Obedient]);
        let report = Supervisor::new(factory, fast_config(1)).run(jobs(1), |_| {});
        assert_eq!(report.stats.done, 1);
        assert!(report.stats.watchdog_kills >= 1, "{:?}", report.stats);
        assert_eq!(report.verdicts[0].attempts, 2);
        assert!(matches!(
            &report.verdicts[0].outcome,
            JobOutcome::Done { .. }
        ));
    }

    #[test]
    fn poison_job_is_quarantined_after_the_attempt_cap() {
        // Every worker dies on every job: the single job burns
        // max_attempts workers, then is quarantined with the evidence.
        let factory = FakeFactory::new(vec![
            FakeBehavior::DiesOnJob,
            FakeBehavior::DiesOnJob,
            FakeBehavior::DiesOnJob,
            FakeBehavior::DiesOnJob,
        ]);
        let report = Supervisor::new(factory, fast_config(1)).run(jobs(1), |_| {});
        assert_eq!(report.stats.done, 0);
        assert_eq!(report.stats.quarantined, 1);
        let v = &report.verdicts[0];
        assert_eq!(v.attempts, 3);
        let JobOutcome::Quarantined { failures } = &v.outcome else {
            panic!("expected quarantine, got {:?}", v.outcome);
        };
        assert_eq!(failures.len(), 3);
        assert!(failures
            .iter()
            .all(|f| matches!(f, AttemptFailure::WorkerDied)));
    }

    #[test]
    fn handler_errors_retry_on_a_healthy_worker_then_quarantine() {
        let factory = FakeFactory::new(vec![FakeBehavior::AlwaysErrors]);
        let report = Supervisor::new(factory, fast_config(1)).run(jobs(1), |_| {});
        assert_eq!(report.stats.quarantined, 1);
        // The worker never died — all three attempts ran on one worker.
        assert_eq!(report.stats.workers_spawned, 1);
        let JobOutcome::Quarantined { failures } = &report.verdicts[0].outcome else {
            panic!("expected quarantine");
        };
        assert!(failures
            .iter()
            .all(|f| matches!(f, AttemptFailure::HandlerError(m) if m == "no such workload")));
    }

    #[test]
    fn spawn_failure_degrades_to_leftover_jobs() {
        let mut factory = FakeFactory::new(vec![]);
        factory.fail_spawns = true;
        let report = Supervisor::new(factory, fast_config(2)).run(jobs(3), |_| {});
        assert_eq!(report.stats.done, 0);
        assert_eq!(report.leftover.len(), 3, "all jobs returned to caller");
        assert!(!report.warnings.is_empty());
        assert!(report.warnings[0].contains("spawning abandoned"));
        assert!(!report.stopped);
    }

    #[test]
    fn stop_flag_interrupts_and_returns_unfinished_jobs() {
        let factory = FakeFactory::new(vec![]);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let mut fired = 0;
        let report = Supervisor::new(factory, fast_config(1))
            .with_stop_flag(stop)
            .run(jobs(64), move |_| {
                fired += 1;
                if fired >= 3 {
                    stop2.store(true, Ordering::Relaxed);
                }
            });
        assert!(report.stopped);
        assert!(report.stats.done >= 3);
        assert!(
            report.stats.done as usize + report.leftover.len() == 64,
            "every job is either finished or returned: {} + {}",
            report.stats.done,
            report.leftover.len()
        );
    }

    #[test]
    fn backoff_grows_exponentially_and_is_deterministic() {
        let sup = Supervisor::new(FakeFactory::new(vec![]), fast_config(1));
        let b2 = sup.backoff("job-x", 2);
        let b3 = sup.backoff("job-x", 3);
        let b4 = sup.backoff("job-x", 4);
        assert!(b2 <= b3 && b3 <= b4, "{b2:?} {b3:?} {b4:?}");
        // Deterministic: same (seed, job, attempt) → same wait.
        assert_eq!(b3, sup.backoff("job-x", 3));
        // Capped: far-future attempts never exceed cap + 25% jitter.
        let cap = fast_config(1).backoff_cap;
        assert!(sup.backoff("job-x", 30) <= cap + cap / 4 + Duration::from_millis(1));
    }

    // -- worker_main over in-memory pipes -----------------------------

    /// Drives worker_main with scripted supervisor input; returns the
    /// worker's output lines.
    fn drive_worker(input: &str, handler_sleep: Option<Duration>) -> Vec<String> {
        let mut out: Vec<u8> = Vec::new();
        let sleep = handler_sleep;
        worker_main(
            std::io::Cursor::new(input.to_string()),
            &mut out,
            Duration::from_millis(5),
            move |id, attempt, payload, progress| {
                if payload == "fail" {
                    return Err(format!("cannot run {id}"));
                }
                if payload == "panic" {
                    panic!("handler exploded");
                }
                if let Some(d) = sleep {
                    // Simulate slow-but-alive work: tick while sleeping.
                    for _ in 0..4 {
                        std::thread::sleep(d / 4);
                        progress.executions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Ok(format!("ok:{id}:{attempt}:{payload}"))
            },
        );
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn worker_main_runs_jobs_and_reports_results() {
        let lines = drive_worker("job a 1 p1\njob b 2 p2\nshutdown\n", None);
        assert_eq!(lines[0], "ready");
        assert!(
            lines.contains(&"result a ok:a:1:p1".to_string()),
            "{lines:?}"
        );
        assert!(
            lines.contains(&"result b ok:b:2:p2".to_string()),
            "{lines:?}"
        );
    }

    #[test]
    fn worker_main_reports_handler_errors_and_survives() {
        let lines = drive_worker("job a 1 fail\njob b 1 p\nshutdown\n", None);
        assert!(lines.iter().any(|l| l.starts_with("error a ")), "{lines:?}");
        assert!(
            lines.contains(&"result b ok:b:1:p".to_string()),
            "{lines:?}"
        );
    }

    #[test]
    fn worker_main_catches_handler_panics() {
        let lines = drive_worker("job a 1 panic\nshutdown\n", None);
        let err = lines
            .iter()
            .find(|l| l.starts_with("error a "))
            .expect("panic surfaces as error");
        assert!(err.contains("handler panicked"), "{err}");
    }

    #[test]
    fn worker_main_skips_an_over_long_line_and_serves_the_next_job() {
        let long = format!("job big 1 {}\n", "x".repeat(MAX_LINE_BYTES));
        let lines = drive_worker(&format!("{long}job b 1 p\nshutdown\n"), None);
        assert!(
            lines.contains(&"result b ok:b:1:p".to_string()),
            "{lines:?}"
        );
        assert!(!lines.iter().any(|l| l.contains(" big ")), "{lines:?}");
    }

    #[test]
    fn worker_main_heartbeats_while_progress_advances() {
        let lines = drive_worker("job slow 1 p\nshutdown\n", Some(Duration::from_millis(60)));
        let beats = lines.iter().filter(|l| l.starts_with("heartbeat")).count();
        assert!(beats >= 2, "expected ticking heartbeats, got {lines:?}");
        assert!(lines.iter().any(|l| l.starts_with("result slow ")));
    }

    // -- end-to-end over real processes -------------------------------

    /// A real process pool using `sh` as the worker: proves the spawn /
    /// pipe / reader-thread / SIGKILL plumbing against genuine child
    /// processes without needing the CLI binary.
    #[test]
    fn process_transport_round_trips_against_a_shell_worker() {
        // A minimal protocol implementation in shell: ready, then echo a
        // result for every job line.
        let script = r#"
echo ready
while IFS= read -r line; do
  case "$line" in
    job\ *) set -- $line; echo "result $2 shell-did-$4" ;;
    shutdown) exit 0 ;;
  esac
done
"#;
        let factory = ProcessWorkerFactory::new(
            std::path::PathBuf::from("/bin/sh"),
            vec!["-c".to_string(), script.to_string()],
        );
        let mut config = fast_config(2);
        config.heartbeat_timeout = Duration::from_secs(5);
        let report = Supervisor::new(factory, config).run(jobs(5), |_| {});
        assert_eq!(report.stats.done, 5, "{:?}", report.warnings);
        for v in &report.verdicts {
            let JobOutcome::Done { payload } = &v.outcome else {
                panic!("expected done: {v:?}");
            };
            assert!(payload.starts_with("shell-did-payload-"), "{payload}");
        }
    }

    /// SIGKILL discipline: a worker that hangs after `ready` is killed
    /// by the watchdog and the campaign still completes via respawns.
    #[test]
    fn hung_process_worker_is_killed_and_replaced() {
        // First job hangs the shell (sleep); subsequent respawned
        // workers complete normally because the hang is keyed to the
        // attempt number baked into the job line.
        let script = r#"
echo ready
while IFS= read -r line; do
  case "$line" in
    job\ *) set -- $line
      if [ "$3" = "1" ]; then exec sleep 600; else echo "result $2 recovered"; fi ;;
    shutdown) exit 0 ;;
  esac
done
"#;
        let factory = ProcessWorkerFactory::new(
            std::path::PathBuf::from("/bin/sh"),
            vec!["-c".to_string(), script.to_string()],
        );
        let mut config = fast_config(1);
        config.heartbeat_timeout = Duration::from_millis(150);
        let start = Instant::now();
        let report = Supervisor::new(factory, config).run(jobs(1), |_| {});
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "watchdog must not wait for the sleep"
        );
        assert_eq!(report.stats.done, 1);
        assert!(report.stats.watchdog_kills >= 1);
        assert_eq!(report.verdicts[0].attempts, 2);
        assert!(matches!(
            &report.verdicts[0].outcome,
            JobOutcome::Done { payload } if payload == "recovered"
        ));
    }

    #[test]
    fn nonexistent_worker_binary_degrades_not_panics() {
        let factory = ProcessWorkerFactory::new(
            std::path::PathBuf::from("/nonexistent/worker/binary"),
            vec![],
        );
        let report = Supervisor::new(factory, fast_config(2)).run(jobs(2), |_| {});
        assert_eq!(report.leftover.len(), 2);
        assert!(!report.warnings.is_empty());
    }
}
