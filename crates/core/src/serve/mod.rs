//! `heapmd serve`: a long-running fleet daemon that ingests concurrent
//! binary trace streams from many processes and checks each tenant
//! against a calibrated model.
//!
//! # Architecture
//!
//! ```text
//!  client ──HMDSERVE1 tenant\n───────────────┐
//!  client ──HMDSERVE2 tenant sess acked\n────┤ accept loop ──(hash(tenant) % N)──▶ shard 0..N
//!  client ───.hmdt blocks (+seq on v2)───────┘      │                                 │
//!            ◀── HMAK acks (v2) ──                  ▼                                 ▼
//!                                              FleetRegistry ◀── live gauges ── Replayer + model
//!                                                   │                                 │
//!                     HTTP /metrics /fleet.tsv /fleet.jsonl /shutdown            IncidentLog
//! ```
//!
//! - **Wire format (v1).** A connection is one text preamble line
//!   (`HMDSERVE1 <tenant>\n`) followed by a raw `.hmdt` binary trace —
//!   the same length-framed, CRC-checked block codec
//!   ([`crate::trace_codec`]) that `record --format binary` writes, so
//!   a process can stream to a file and a daemon with identical bytes.
//!   Frames decode through [`WireReader`]; any structural damage evicts
//!   exactly the offending tenant (salvaging the buffered prefix into a
//!   partial verdict first), never the daemon.
//! - **Wire format (v2, resumable).** `HMDSERVE2 <tenant> <session>
//!   <acked>\n` attaches (or re-attaches) a client session. Each block
//!   travels with a `u64` sequence number and the daemon acknowledges
//!   journaled blocks back on the same socket, so a client that loses
//!   its connection reconnects and resumes from the first unacked
//!   block. See [`session`] for the protocol and crash-only recovery.
//! - **Sharding & backpressure.** Tenants hash-assign to one of N
//!   worker shards over bounded per-tenant queues (a `Pending` event
//!   count shared between the connection handler and the shard). A full
//!   queue backpressures the client for as long as the shard keeps
//!   draining it — the handler sleeps until the shard signals progress;
//!   only a queue that makes no progress for a whole grace window gets
//!   its tenant evicted as stalled.
//! - **Verdicts.** Handlers verify each frame's framing and checksum and
//!   forward it still encoded — the same bytes they journal. The shard
//!   decodes each block into a resumable [`Replayer`] that feeds the
//!   live per-metric gauges, and appends the frame to the tenant's
//!   `.hmdt` byte image (~5.7 bytes per event, identical to the
//!   journal). At clean end of stream the image opens as a
//!   [`BinaryTraceImage`] and runs through the engine `heapmd check`
//!   uses on `.hmdt` files, so the daemon verdict is bit-identical to
//!   `heapmd check` on the same trace, with incident bundles captured
//!   into a per-tenant [`IncidentLog`] directory. A stream that never
//!   reached its index (shutdown, eviction) salvages the same image
//!   into a partial verdict. Each tenant checks against the shared
//!   model, or its own override from [`ServeConfig::model_dir`].
//! - **Shutdown.** The toolchain forbids `unsafe`, so there is no
//!   signal handler; graceful shutdown arrives via the HTTP control
//!   endpoint (`GET /shutdown`) or [`Server::shutdown`]. Nothing polls
//!   for it: the accept loops block in `accept`, and [`Server::wait`]
//!   dials each listener until its loop returns (leaving one that
//!   cannot be dialed behind after a short grace). In-flight streams
//!   drain whatever the kernel already buffered, the prefixes are
//!   finalized as partial verdicts, every incident bundle flushed, and
//!   the final Prometheus dump written. Session journals survive
//!   shutdown untouched, so a restarted daemon replays them and lets
//!   clients resume mid-stream.

pub mod client;
pub mod session;
#[cfg(test)]
mod tests;

use crate::bug::BugReport;
use crate::error::HeapMdError;
use crate::incident::IncidentLog;
use crate::model::HeapModel;
use crate::report::MetricSample;
use crate::run_rows::{rows_from_samples, unix_time_now, RowSource};
use crate::trace::{check, EventSource, Replayer, Trace};
use crate::trace_codec::{
    file_header, salvage_bytes, BinaryTraceImage, BinaryTraceWriter, RawFrame, WireFrame,
    WireReader, EVENTS_PER_BLOCK,
};
use heapmd_obs::fleet::{
    FleetRegistry, MetricGauge, MetricVerdict, TenantStats, STATUS_NEAR_EDGE, STATUS_OK, STATUS_OUT,
};
use heapmd_obs::throughput::{stage_clock, Stage};
use heapmd_runstore::{RowKind, RunStore};
use sim_heap::HeapEvent;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use swat::{SamplerConfig, SamplingInfo};

pub use client::{
    connect_session, push_trace_resumable, Conn, Dialer, RetryPolicy, SessionClient, SessionOptions,
};
pub use session::SERVE_PREAMBLE_V2;

/// First token of the v1 connection preamble line.
pub const SERVE_PREAMBLE: &str = "HMDSERVE1";

/// How long a full per-tenant queue may go without draining a single
/// event before the tenant is evicted as stalled. Progress resets the
/// clock, so a merely slow shard backpressures instead of evicting.
const BACKPRESSURE_GRACE: Duration = Duration::from_secs(5);
/// Read timeout on ingest sockets: the latency with which a blocked
/// connection handler notices the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(25);
/// Pause after a failed `accept` (descriptor exhaustion, say) before
/// the next attempt, so a persistent error does not spin a core.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);
/// How long a shutdown wake-up dial may go unanswered before the accept
/// loop is dialed again.
const WAKE_RETRY: Duration = Duration::from_millis(10);
/// How long shutdown keeps dialing an accept loop that does not wake
/// before leaving it blocked and finalizing without it.
const WAKE_GRACE: Duration = Duration::from_secs(2);
/// Window over which per-tenant ingest rates are computed.
const RATE_WINDOW: Duration = Duration::from_millis(250);
/// Longest accepted preamble line (token + 64-char tenant + 32-char
/// session id + a 20-digit ack, space-separated).
const MAX_PREAMBLE: usize = 160;
/// How often the sweeper evicts expired disconnected sessions.
const SWEEP_PERIOD: Duration = Duration::from_millis(500);

/// Whether `name` is a valid tenant name: 1–64 bytes of
/// `[A-Za-z0-9._:-]`. The restriction keeps names safe as label
/// values, file names, and TSV cells.
pub fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b':' | b'-'))
}

// ---------------------------------------------------------------------
// Transport: TCP or Unix sockets behind one façade
// ---------------------------------------------------------------------

enum AnyListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// The address a local client dials to reach a listener bound to
/// `addr`: a wildcard bind is reached over loopback.
fn dial_addr(addr: SocketAddr) -> String {
    let mut dial = addr;
    if dial.ip().is_unspecified() {
        dial.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    dial.to_string()
}

impl AnyListener {
    /// Binds `spec`: `unix:<path>` for a Unix socket (replacing a stale
    /// socket file), anything else as a TCP `host:port`. Returns the
    /// (blocking) listener, its resolved address string, and the
    /// address a local client dials to reach it.
    fn bind(spec: &str) -> io::Result<(AnyListener, String, String)> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                return Ok((
                    AnyListener::Unix(listener),
                    spec.to_string(),
                    spec.to_string(),
                ));
            }
            #[cfg(not(unix))]
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are unavailable on this platform",
            ));
        }
        let listener = TcpListener::bind(spec)?;
        let addr = listener.local_addr()?;
        Ok((
            AnyListener::Tcp(listener),
            addr.to_string(),
            dial_addr(addr),
        ))
    }

    fn accept(&self) -> io::Result<AnyStream> {
        match self {
            AnyListener::Tcp(l) => l.accept().map(|(s, _)| AnyStream::Tcp(s)),
            #[cfg(unix)]
            AnyListener::Unix(l) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
        }
    }
}

pub(crate) enum AnyStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl AnyStream {
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Bounds every read so a blocked handler can notice the shutdown
    /// flag without the socket being torn down under it.
    fn set_read_timeout(&self, dur: Duration) -> io::Result<()> {
        self.set_read_timeout_opt(Some(dur))
    }

    pub(crate) fn set_read_timeout_opt(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    pub(crate) fn set_write_timeout_opt(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_write_timeout(dur),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.set_write_timeout(dur),
        }
    }
}

/// Read adapter that turns the shutdown flag into a clean end of
/// stream. While the daemon runs, read timeouts simply retry; once
/// shutdown is flagged, bytes the kernel already buffered still read
/// out normally and the first timeout after that reports EOF. Handlers
/// therefore salvage everything the client managed to send — force
/// closing the socket instead would discard the buffered tail (and
/// with it, typically, the function table at the end of the stream).
pub(crate) struct DrainingStream {
    inner: AnyStream,
    shutdown: Arc<Shutdown>,
}

impl Read for DrainingStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.shutdown.is_set() {
                        return Ok(0);
                    }
                }
                other => return other,
            }
        }
    }
}

impl Write for DrainingStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------
// Shutdown and backpressure signalling
// ---------------------------------------------------------------------

const SHUTDOWN_LOCK: &str = "no thread panics while holding the shutdown lock";
const PENDING_LOCK: &str = "no thread panics while holding a queue count";

/// The daemon-wide shutdown flag, plus the condition variable that
/// threads sleeping on it (the session sweeper, a backed-off accept
/// loop, [`Server::wait`]) are woken through. The accept loops block in
/// `accept` instead; [`Server::wait`] dials them awake.
pub(crate) struct Shutdown {
    flag: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Shutdown {
    fn new() -> Self {
        Shutdown {
            flag: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    // SeqCst: an accept loop woken by a wake-up dial must see the flag
    // that was set before it.
    pub(crate) fn is_set(&self) -> bool {
        self.flag.load(SeqCst)
    }

    /// Sets the flag and wakes every sleeping thread (idempotent).
    fn trigger(&self) {
        if self.flag.swap(true, SeqCst) {
            return;
        }
        drop(self.lock.lock().expect(SHUTDOWN_LOCK));
        self.cv.notify_all();
    }

    /// Blocks until shutdown is triggered.
    fn wait(&self) {
        let mut guard = self.lock.lock().expect(SHUTDOWN_LOCK);
        while !self.is_set() {
            guard = self.cv.wait(guard).expect(SHUTDOWN_LOCK);
        }
    }

    /// Sleeps for `dur` or until shutdown; returns whether shutdown was
    /// triggered.
    fn sleep(&self, dur: Duration) -> bool {
        let guard = self.lock.lock().expect(SHUTDOWN_LOCK);
        if !self.is_set() {
            let _ = self.cv.wait_timeout(guard, dur).expect(SHUTDOWN_LOCK);
        }
        self.is_set()
    }
}

/// Events a connection handler has queued for its shard that the shard
/// has not ingested yet. The handler waits on it for queue room and the
/// shard wakes it as it drains.
#[derive(Default)]
pub(crate) struct Pending {
    events: Mutex<u64>,
    drained: Condvar,
}

impl Pending {
    /// Queues `n` events; returns the new depth.
    fn add(&self, n: u64) -> u64 {
        let mut events = self.events.lock().expect(PENDING_LOCK);
        *events += n;
        *events
    }

    /// Marks `n` events ingested (saturating: journal recovery feeds a
    /// shard without queueing) and wakes a waiting handler; returns the
    /// new depth.
    fn drain(&self, n: u64) -> u64 {
        let mut events = self.events.lock().expect(PENDING_LOCK);
        *events = events.saturating_sub(n);
        self.drained.notify_all();
        *events
    }

    /// Waits for the queue to drop under `bound`; `false` means it made
    /// no progress at all for a whole grace window and the tenant should
    /// be evicted as stalled. Only this connection's handler queues
    /// events, so any decrease seen here is shard progress, which resets
    /// the grace clock — a busy-but-alive shard backpressures the client
    /// indefinitely rather than evicting it. Shutdown lets the handler
    /// through, so the shutdown path finalizes the tenant instead.
    fn wait_for_room(&self, bound: u64, shutdown: &Shutdown) -> bool {
        let mut events = self.events.lock().expect(PENDING_LOCK);
        let mut last = *events;
        let mut deadline = Instant::now() + BACKPRESSURE_GRACE;
        loop {
            if *events < bound || shutdown.is_set() {
                return true;
            }
            let now = Instant::now();
            if *events < last {
                last = *events;
                deadline = now + BACKPRESSURE_GRACE;
            } else if now >= deadline {
                return false;
            }
            events = self
                .drained
                .wait_timeout(events, deadline - now)
                .expect(PENDING_LOCK)
                .0;
        }
    }
}

// ---------------------------------------------------------------------
// Configuration and outcomes
// ---------------------------------------------------------------------

/// Daemon configuration (transport addresses travel separately, see
/// [`Server::start`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The shared calibrated model tenants check against by default.
    pub model: HeapModel,
    /// Worker shard count (tenants hash-assign; min 1).
    pub shards: usize,
    /// Per-tenant pending-event bound before backpressure, then
    /// eviction, kicks in.
    pub queue_events: u64,
    /// Root directory for per-tenant incident bundles (one
    /// subdirectory per tenant), if incident capture is on.
    pub incident_dir: Option<PathBuf>,
    /// Where the final Prometheus dump (registry + fleet section) is
    /// written at shutdown.
    pub prom_dump: Option<PathBuf>,
    /// Directory of per-tenant session journals (`<tenant>.hmdt` +
    /// `<tenant>.session.json`). With a journal, v2 sessions are
    /// crash-only recoverable across daemon restarts; without one they
    /// still resume across reconnects within a daemon's lifetime.
    pub journal_dir: Option<PathBuf>,
    /// Directory of per-tenant model overrides: `<tenant>.hmdm` checks
    /// that tenant instead of the shared model.
    pub model_dir: Option<PathBuf>,
    /// How long a disconnected, incomplete v2 session is held for
    /// resumption before it is evicted (its buffered prefix salvaged
    /// into a partial verdict).
    pub session_timeout: Duration,
    /// Columnar run-store directory: every finalized tenant verdict
    /// appends its replayed sample series as `kind="serve"` rows.
    pub run_store: Option<PathBuf>,
    /// Daemon-side production-overhead mode: full-fidelity tenant
    /// streams are re-sampled through the adaptive filter before the
    /// authoritative check (streams that arrive already sampled keep
    /// their recorded schedule — re-decimating would double-drop).
    pub sampler: Option<SamplerConfig>,
}

impl ServeConfig {
    /// Defaults: 4 shards, 65 536 queued events per tenant, no incident
    /// capture, no final dump, no journal or model override directory,
    /// 30 s session timeout.
    pub fn new(model: HeapModel) -> Self {
        ServeConfig {
            model,
            shards: 4,
            queue_events: 1 << 16,
            incident_dir: None,
            prom_dump: None,
            journal_dir: None,
            model_dir: None,
            session_timeout: Duration::from_secs(30),
            run_store: None,
            sampler: None,
        }
    }
}

/// How one tenant's stream ended.
#[derive(Debug)]
pub struct TenantOutcome {
    /// Tenant name.
    pub tenant: String,
    /// Events ingested and replayed.
    pub events: u64,
    /// The detector's verdict (bit-identical to `check` on the same
    /// trace when the stream completed cleanly).
    pub bugs: Vec<BugReport>,
    /// Incident bundles flushed for this tenant.
    pub bundle_paths: Vec<PathBuf>,
    /// The stream never reached its index/footer; the verdict covers
    /// the buffered prefix (shutdown, or an eviction mid-stream).
    pub partial: bool,
    /// Why the tenant was kicked, when it was. Eviction still salvages
    /// the buffered prefix: `bugs`/`bundle_paths` cover it.
    pub evicted: Option<String>,
    /// Replay/check failure, if the buffered trace was unusable.
    pub error: Option<String>,
}

/// Everything the daemon produced over its lifetime.
#[derive(Debug, Default)]
pub struct ServeSummary {
    /// Final outcome per tenant (a reconnecting tenant keeps its last).
    pub tenants: BTreeMap<String, TenantOutcome>,
    /// Set when the final Prometheus dump could not be written; the
    /// CLI turns this into a typed warning and a distinct exit code.
    pub prom_dump_error: Option<String>,
}

// ---------------------------------------------------------------------
// Shard workers
// ---------------------------------------------------------------------

pub(crate) enum ShardMsg {
    Start {
        tenant: String,
        stats: Arc<TenantStats>,
        pending: Arc<Pending>,
        /// The model this tenant checks against (shared or per-tenant
        /// override, resolved by the connection handler).
        model: Arc<HeapModel>,
        /// A reconnecting v2 session keeps its accumulated state; a
        /// fresh stream replaces it.
        resume: bool,
    },
    /// One verified, still-encoded frame of the stream (any kind but
    /// the index).
    Frame { tenant: String, frame: RawFrame },
    /// A barrier: once the shard has taken every frame queued before
    /// it, it replies whether the tenant's frames all decoded.
    Sync {
        tenant: String,
        accepted: Sender<bool>,
    },
    /// The index frame: the stream is complete.
    End {
        tenant: String,
        frame: RawFrame,
        /// Journal files to delete once the verdict is closed.
        cleanup: Vec<PathBuf>,
    },
    Abort {
        tenant: String,
        reason: String,
        /// Mark the outcome evicted (corrupt stream, stalled queue,
        /// expired session) instead of a plain partial (shutdown). The
        /// buffered prefix is salvaged into a partial verdict either
        /// way.
        evict: bool,
        /// Journal files to delete once the verdict is closed.
        cleanup: Vec<PathBuf>,
    },
}

struct ShardTenant {
    stats: Arc<TenantStats>,
    pending: Arc<Pending>,
    model: Arc<HeapModel>,
    /// The stream as a `.hmdt` file: the header, then every ingested
    /// frame verbatim — the same bytes as the tenant's journal.
    image: Vec<u8>,
    /// Events decoded into the live replayer.
    events: u64,
    /// Set once a frame failed to decode: that frame and every later
    /// one are dropped, and the verdict (evicted) covers the image so
    /// far.
    rejected: Option<String>,
    replayer: Replayer,
    /// Sampling metadata announced by the stream (last one wins): the
    /// live gauges widen by its rate.
    sampling: Option<SamplingInfo>,
    /// Per stable metric: was the last live sample out of range.
    last_out: Vec<bool>,
    window_start: Instant,
    window_events: u64,
}

/// Decode + live replay of tenant blocks on the shards.
static SERVE_INGEST: Stage = Stage::new("serve_ingest");

impl ShardTenant {
    /// Takes one frame: decodes it into the live replayer and appends
    /// it to the image, or rejects the stream when it does not decode.
    /// Either way its events leave the queue.
    fn take_frame(&mut self, frame: &RawFrame, events: &mut Vec<HeapEvent>, fleet: &FleetRegistry) {
        if self.rejected.is_none() {
            if let Err(e) = self.ingest(frame, events) {
                fleet.evict(&self.stats);
                self.rejected = Some(e.to_string());
            }
        }
        let depth = self.pending.drain(u64::from(frame.event_count()));
        self.stats.set_queue_depth(depth);
    }

    fn ingest(&mut self, frame: &RawFrame, events: &mut Vec<HeapEvent>) -> Result<(), HeapMdError> {
        if frame.decode_events_into(events)? {
            let n = events.len() as u64;
            let clock = stage_clock();
            self.replayer.ingest_batch(events);
            if let Some(t0) = clock {
                SERVE_INGEST.record(n, t0.elapsed().as_nanos() as u64);
            }
            self.events += n;
            self.stats.record_events(n);
            let samples = self.replayer.take_samples();
            if !samples.is_empty() {
                let model = Arc::clone(&self.model);
                update_live(self, &samples, &model);
            }
            self.window_events += n;
            let elapsed = self.window_start.elapsed();
            if elapsed >= RATE_WINDOW {
                let rate =
                    (self.window_events as u128 * 1_000_000_000 / elapsed.as_nanos().max(1)) as u64;
                self.stats.set_rate(rate);
                self.window_start = Instant::now();
                self.window_events = 0;
            }
        } else if let WireFrame::Meta(payload) = frame.decode()? {
            // Unrecognized meta payloads stay forward-compatible no-ops;
            // a sampling block re-labels the tenant. (A functions frame
            // only needs to decode: finalize reads it from the image.)
            if let Ok(Some(info)) = crate::trace_codec::decode_sampling_meta(&payload) {
                self.sampling = Some(info);
                self.stats.set_sample_rate(info.rate());
            }
        }
        self.image.extend_from_slice(frame.bytes());
        Ok(())
    }

    /// Closes the stream with its index frame; returns why the verdict
    /// must be an eviction instead (a rejected frame, an undecodable
    /// index, or an index that disagrees with the events ingested).
    fn close(&mut self, frame: &RawFrame, fleet: &FleetRegistry) -> Option<String> {
        if let Some(reason) = self.rejected.take() {
            return Some(reason);
        }
        match frame.decode() {
            Ok(WireFrame::End(index)) if index.total_events == self.events => {
                self.image.extend_from_slice(frame.bytes());
                None
            }
            Ok(WireFrame::End(index)) => Some(format!(
                "index declares {} events, stream carried {}",
                index.total_events, self.events
            )),
            Ok(_) => unreachable!("End carries the index frame"),
            Err(e) => {
                fleet.evict(&self.stats);
                Some(e.to_string())
            }
        }
    }
}

fn shard_for(tenant: &str, shards: usize) -> usize {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    tenant.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// Looks `kind` up in a sample's metric vector.
fn metric_value(sample: &MetricSample, kind: heap_graph::MetricKind) -> f64 {
    sample.metrics.get(kind)
}

/// Folds a batch of new live samples into the tenant's gauges: latest
/// value/distance/status per calibrated metric (the paper's stable
/// seven plus any calibrated extended candidates), range-crossing
/// transitions, and the advisory arm flag (near-edge or out — the
/// authoritative detector, slope condition included, runs at finalize).
fn update_live(t: &mut ShardTenant, samples: &[MetricSample], model: &HeapModel) {
    let s = &model.settings;
    let stable = &model.stable;
    for _ in samples {
        t.stats.record_sample();
    }
    // Confidence widening: the mismatch ratio of the stream's
    // announced sampling rate and the model's calibration-time rate,
    // matching the authoritative detector at finalize (rate-matched
    // calibration needs no widening; a rate gap widens by the ratio).
    let model_rate = if model.sample_rate.is_finite() && model.sample_rate > 0.0 {
        model.sample_rate
    } else {
        1.0
    };
    let stream_rate = t.sampling.map_or(1.0, |i| i.rate());
    let rate = stream_rate.min(model_rate) / stream_rate.max(model_rate).max(f64::MIN_POSITIVE);
    let mut gauges = Vec::with_capacity(stable.len() + model.candidate_stable.len());
    let mut crossings = 0u64;
    let mut armed = false;
    // One closure folds a sample series into a gauge so the paper
    // metrics and the extended candidates share the exact same
    // range/near-edge/crossing semantics.
    let mut fold = |slot: usize,
                    name: String,
                    min: f64,
                    max: f64,
                    read: &dyn Fn(&MetricSample) -> Option<f64>| {
        let widen = crate::model::sampling_widen(max - min, rate);
        let lo = min - s.range_margin - widen;
        let hi = max + s.range_margin + widen;
        let near = (max - min).max(0.5) * s.near_edge_frac;
        let mut was_out = t.last_out[slot];
        let (mut value, mut distance, mut status) = (0.0, 0.0, STATUS_OK);
        for sample in samples {
            let Some(v) = read(sample) else { continue };
            let out = v < lo || v > hi;
            if out && !was_out {
                crossings += 1;
            }
            was_out = out;
            value = v;
            distance = if v < lo {
                lo - v
            } else if v > hi {
                v - hi
            } else {
                0.0
            };
            status = if out {
                STATUS_OUT
            } else if v >= hi - near || v <= lo + near {
                STATUS_NEAR_EDGE
            } else {
                STATUS_OK
            };
        }
        t.last_out[slot] = was_out;
        armed |= status != STATUS_OK;
        gauges.push(MetricGauge {
            metric: name,
            value,
            distance,
            band: hi - lo,
            status,
        });
    };
    for (i, sm) in stable.iter().enumerate() {
        fold(i, sm.kind.short_name().to_string(), sm.min, sm.max, &|m| {
            Some(metric_value(m, sm.kind))
        });
    }
    for (j, cm) in model.candidate_stable.iter().enumerate() {
        let kind = cm.kind();
        fold(stable.len() + j, cm.id.clone(), cm.min, cm.max, &|m| {
            m.candidate(kind)
        });
    }
    if crossings > 0 {
        t.stats.add_crossings(crossings);
    }
    t.stats.set_armed(armed);
    t.stats.set_metrics(gauges);
}

/// The per-metric calibration verdicts a tenant's model implies: the
/// paper seven always get a verdict; the extended family appears only
/// when the model actually calibrated candidates, so paper-mode
/// exposition is unchanged.
fn verdicts_for(model: &HeapModel) -> Vec<MetricVerdict> {
    let mut out: Vec<MetricVerdict> = heap_graph::CandidateKind::ALL[..heap_graph::METRIC_COUNT]
        .iter()
        .map(|k| {
            let paper = k.paper_kind().expect("first seven are paper metrics");
            MetricVerdict {
                metric: k.id().to_string(),
                stable: model.stable.iter().any(|sm| sm.kind == paper),
            }
        })
        .collect();
    if model.has_candidates() || !model.candidate_unstable.is_empty() {
        for cm in &model.candidate_stable {
            out.push(MetricVerdict {
                metric: cm.id.clone(),
                stable: true,
            });
        }
        for id in &model.candidate_unstable {
            out.push(MetricVerdict {
                metric: id.clone(),
                stable: false,
            });
        }
    }
    out
}

/// Checks the tenant's image through the offline engine and closes the
/// tenant's books. A stream that reached its verified index opens as a
/// [`BinaryTraceImage`]; a partial one (shutdown, eviction) salvages the
/// frames that arrived. An evicted tenant still gets its buffered prefix
/// checked (partial verdict + incident bundles) — eviction changes how
/// the outcome is labeled, not whether evidence is kept.
fn finalize(
    t: ShardTenant,
    tenant: String,
    partial: bool,
    evicted: Option<String>,
    cleanup: Vec<PathBuf>,
    ctx: &ShardCtx,
) -> TenantOutcome {
    if evicted.is_some() {
        t.stats.set_evicted();
    }
    t.stats.set_connected(false);
    t.stats.set_rate(0);
    t.stats.set_queue_depth(0);
    #[cfg(test)]
    tests::capture_image(&tenant, &t.image);
    let model = Arc::clone(&t.model);
    let events = t.events;
    // Tenant names are charset-validated (no separators), so they are
    // safe as directory names.
    let log = ctx
        .incident_dir
        .as_ref()
        .map(|d| IncidentLog::new(d.join(&tenant), tenant.clone()));
    // Daemon-side production-overhead mode: the check re-samples
    // full-fidelity streams; streams that arrived sampled keep their
    // recorded schedule.
    let checked = if partial {
        let (trace, _) = salvage_bytes(&t.image);
        check(
            EventSource::Memory(&trace),
            &model,
            &model.settings,
            ctx.sampler,
            log,
        )
    } else {
        BinaryTraceImage::open(t.image).and_then(|image| {
            check(
                EventSource::Image(&image),
                &model,
                &model.settings,
                ctx.sampler,
                log,
            )
        })
    };
    let outcome = match checked {
        Ok(out) => {
            let sample_rate = out.sampling.map_or(1.0, |s| s.rate());
            if t.sampling.is_none() && out.sampling.is_some() {
                t.stats.set_sample_rate(sample_rate);
            }
            t.stats.record_bugs(out.bugs.len() as u64);
            t.stats.add_incidents(out.bundle_paths.len() as u64);
            if let Some(store) = ctx.run_store.as_deref() {
                let src = RowSource {
                    workload: model.program.clone(),
                    version: 0,
                    run: tenant.clone(),
                    tenant: tenant.clone(),
                    kind: RowKind::Serve,
                    time: unix_time_now(),
                    sample_rate,
                };
                let rows = rows_from_samples(&src, &out.samples);
                if let Err(e) = store.append(&rows) {
                    // The verdict is authoritative; a failed append is
                    // a degraded observability plane, not a failed
                    // tenant.
                    heapmd_obs::error!("run-store append for tenant {tenant} failed: {e}");
                } else {
                    heapmd_obs::count!("serve_run_store_rows_total", rows.len() as u64);
                }
            }
            if let Some(b) = out.bugs.first() {
                t.stats
                    .set_last_anomaly(&format!("{} {}", b.metric, b.kind.slug()));
            }
            TenantOutcome {
                tenant,
                events,
                bugs: out.bugs,
                bundle_paths: out.bundle_paths,
                partial,
                evicted,
                error: None,
            }
        }
        Err(e) => TenantOutcome {
            tenant,
            events,
            bugs: Vec::new(),
            bundle_paths: Vec::new(),
            partial,
            evicted,
            error: Some(e.to_string()),
        },
    };
    for path in cleanup {
        let _ = std::fs::remove_file(path);
    }
    heapmd_obs::export::emit_event("tenant_verdict", |o| {
        o.field_str("tenant", &outcome.tenant)
            .field_u64("events", outcome.events)
            .field_u64("bugs", outcome.bugs.len() as u64)
            .field_bool("partial", outcome.partial);
    });
    outcome
}

/// Replayers a shard loop keeps warm for reuse; beyond this, finished
/// streams' replayers are dropped instead of pooled.
const REPLAYER_POOL_CAP: usize = 8;

/// Daemon-wide settings every shard loop applies.
struct ShardCtx {
    fleet: Arc<FleetRegistry>,
    incident_dir: Option<PathBuf>,
    run_store: Option<Arc<RunStore>>,
    sampler: Option<SamplerConfig>,
}

fn shard_loop(rx: Receiver<ShardMsg>, ctx: ShardCtx) -> Vec<TenantOutcome> {
    let mut tenants: BTreeMap<String, ShardTenant> = BTreeMap::new();
    let mut outcomes = Vec::new();
    // Recycled replayers: a finished stream's replayer goes back here
    // (graph slabs and shadow pages intact) and the next Start reuses
    // it instead of allocating cold.
    let mut replayer_pool: Vec<Replayer> = Vec::new();
    let recycle = |t: &mut ShardTenant, pool: &mut Vec<Replayer>| {
        if pool.len() < REPLAYER_POOL_CAP {
            let settings = t.model.settings.clone();
            let mut r = std::mem::replace(&mut t.replayer, Replayer::new(settings.clone(), &[]));
            r.reset(settings, &[]);
            pool.push(r);
        }
    };
    // Every tenant's blocks decode into this one buffer.
    let mut events: Vec<HeapEvent> = Vec::with_capacity(EVENTS_PER_BLOCK);
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Start {
                tenant,
                stats,
                pending,
                model,
                resume,
            } => {
                // A v2 reconnect re-attaches to the accumulated state;
                // everything else (v1 reconnects included) starts a
                // fresh stream and drops the unfinished one.
                if resume && tenants.contains_key(&tenant) {
                    continue;
                }
                let replayer = match replayer_pool.pop() {
                    Some(mut r) => {
                        r.reset(model.settings.clone(), &[]);
                        heapmd_obs::count!("serve_replayer_pool_reuse_total");
                        r
                    }
                    None => Replayer::new(model.settings.clone(), &[]),
                };
                stats.set_verdicts(verdicts_for(&model));
                let state = ShardTenant {
                    stats,
                    pending,
                    image: file_header().to_vec(),
                    events: 0,
                    rejected: None,
                    replayer,
                    sampling: None,
                    last_out: vec![false; model.stable.len() + model.candidate_stable.len()],
                    model,
                    window_start: Instant::now(),
                    window_events: 0,
                };
                tenants.insert(tenant, state);
            }
            ShardMsg::Frame { tenant, frame } => {
                if let Some(t) = tenants.get_mut(&tenant) {
                    t.take_frame(&frame, &mut events, &ctx.fleet);
                }
            }
            ShardMsg::Sync { tenant, accepted } => {
                let _ = accepted.send(tenants.get(&tenant).is_some_and(|t| t.rejected.is_none()));
            }
            ShardMsg::End {
                tenant,
                frame,
                cleanup,
            } => {
                let Some(mut t) = tenants.remove(&tenant) else {
                    continue;
                };
                recycle(&mut t, &mut replayer_pool);
                let evicted = t.close(&frame, &ctx.fleet);
                outcomes.push(finalize(
                    t,
                    tenant,
                    evicted.is_some(),
                    evicted,
                    cleanup,
                    &ctx,
                ));
            }
            ShardMsg::Abort {
                tenant,
                reason,
                evict,
                cleanup,
            } => {
                let Some(mut t) = tenants.remove(&tenant) else {
                    continue;
                };
                recycle(&mut t, &mut replayer_pool);
                let evicted = t.rejected.take().or(evict.then_some(reason));
                outcomes.push(finalize(t, tenant, true, evicted, cleanup, &ctx));
            }
        }
    }
    // Channel closed (shutdown joined the handlers): finalize
    // whatever streams never sent an explicit end. Journals stay on
    // disk so a restarted daemon can pick the sessions back up.
    for (tenant, mut t) in tenants {
        let evicted = t.rejected.take();
        outcomes.push(finalize(t, tenant, true, evicted, Vec::new(), &ctx));
    }
    outcomes
}

// ---------------------------------------------------------------------
// Shared connection-handling context
// ---------------------------------------------------------------------

/// Everything a connection handler needs, bundled so the accept loop
/// clones one `Arc`. Dropped (with the shard senders inside) once
/// [`Server::wait`] joins the handlers, which closes the shard
/// channels.
pub(crate) struct ServeCtx {
    pub(crate) senders: Vec<Sender<ShardMsg>>,
    pub(crate) fleet: Arc<FleetRegistry>,
    pub(crate) queue_events: u64,
    pub(crate) shutdown: Arc<Shutdown>,
    pub(crate) model: Arc<HeapModel>,
    pub(crate) model_dir: Option<PathBuf>,
    pub(crate) journal_dir: Option<PathBuf>,
    pub(crate) session_timeout: Duration,
    pub(crate) sessions: Mutex<BTreeMap<String, Arc<Mutex<session::SessionEntry>>>>,
    model_cache: Mutex<BTreeMap<String, Arc<HeapModel>>>,
}

impl ServeCtx {
    pub(crate) fn sender_for(&self, tenant: &str) -> &Sender<ShardMsg> {
        &self.senders[shard_for(tenant, self.senders.len())]
    }

    /// Resolves the model `tenant` checks against: `<model_dir>/
    /// <tenant>.hmdm` when present and loadable, else the shared model.
    /// Resolution is cached for the daemon's lifetime.
    pub(crate) fn model_for(&self, tenant: &str) -> Arc<HeapModel> {
        let Some(dir) = &self.model_dir else {
            return Arc::clone(&self.model);
        };
        if let Some(m) = self.model_cache.lock().unwrap().get(tenant) {
            return Arc::clone(m);
        }
        let path = dir.join(format!("{tenant}.hmdm"));
        let model = if path.exists() {
            match HeapModel::load(&path) {
                Ok(m) => Arc::new(m),
                Err(e) => {
                    // A present-but-unloadable override falls back to
                    // the shared model rather than rejecting the tenant.
                    heapmd_obs::export::emit_event("tenant_model_error", |o| {
                        o.field_str("tenant", tenant)
                            .field_str("error", &e.to_string());
                    });
                    Arc::clone(&self.model)
                }
            }
        } else {
            Arc::clone(&self.model)
        };
        self.model_cache
            .lock()
            .unwrap()
            .insert(tenant.to_string(), Arc::clone(&model));
        model
    }
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

/// A parsed connection preamble line.
enum Preamble {
    V1 {
        tenant: String,
    },
    V2 {
        tenant: String,
        session: String,
        acked: u64,
    },
}

/// Reads and validates the preamble: `HMDSERVE1 <tenant>\n` or
/// `HMDSERVE2 <tenant> <session> <acked>\n`.
fn read_preamble(stream: &mut impl Read) -> Option<Preamble> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while line.len() < MAX_PREAMBLE {
        stream.read_exact(&mut byte).ok()?;
        if byte[0] == b'\n' {
            let text = std::str::from_utf8(&line).ok()?;
            if let Some(rest) = text.strip_prefix(SERVE_PREAMBLE_V2) {
                let mut parts = rest.strip_prefix(' ')?.split(' ');
                let tenant = parts.next()?;
                let session = parts.next()?;
                let acked = parts.next()?.parse::<u64>().ok()?;
                if parts.next().is_some()
                    || !valid_tenant(tenant)
                    || !session::valid_session(session)
                {
                    return None;
                }
                return Some(Preamble::V2 {
                    tenant: tenant.to_string(),
                    session: session.to_string(),
                    acked,
                });
            }
            let tenant = text.strip_prefix(SERVE_PREAMBLE)?.strip_prefix(' ')?;
            return valid_tenant(tenant).then(|| Preamble::V1 {
                tenant: tenant.to_string(),
            });
        }
        line.push(byte[0]);
    }
    None
}

/// What became of a frame handed to [`queue_frame`].
enum Queued {
    Sent,
    /// The queue made no progress for a whole grace window: evict.
    Stalled,
    /// The shard is gone (the daemon is going down).
    Closed,
}

/// Hands one non-final frame to `tenant`'s shard once its queue has
/// room.
fn queue_frame(
    ctx: &ServeCtx,
    tenant: &str,
    stats: &TenantStats,
    pending: &Pending,
    frame: RawFrame,
) -> Queued {
    let n = u64::from(frame.event_count());
    if n > 0 {
        if !pending.wait_for_room(ctx.queue_events, &ctx.shutdown) {
            return Queued::Stalled;
        }
        stats.set_queue_depth(pending.add(n));
    }
    let msg = ShardMsg::Frame {
        tenant: tenant.to_string(),
        frame,
    };
    match ctx.sender_for(tenant).send(msg) {
        Ok(()) => Queued::Sent,
        Err(_) => Queued::Closed,
    }
}

/// The eviction reason of a stalled queue.
fn stall_reason(ctx: &ServeCtx) -> String {
    format!("slow consumer: over {} queued events", ctx.queue_events)
}

fn handle_conn(stream: AnyStream, ctx: Arc<ServeCtx>) {
    let _ = stream.set_read_timeout(READ_POLL);
    let mut stream = DrainingStream {
        inner: stream,
        shutdown: Arc::clone(&ctx.shutdown),
    };
    match read_preamble(&mut stream) {
        Some(Preamble::V1 { tenant }) => handle_v1(stream, tenant, &ctx),
        Some(Preamble::V2 {
            tenant,
            session,
            acked,
        }) => session::handle_v2(stream, tenant, session, acked, &ctx),
        None => {
            // EOF during shutdown is the daemon going away, not a
            // client speaking the wrong protocol.
            if !ctx.shutdown.is_set() {
                ctx.fleet.record_protocol_error();
            }
        }
    }
}

fn handle_v1(stream: DrainingStream, tenant: String, ctx: &ServeCtx) {
    let stats = ctx.fleet.connect(&tenant);
    let pending = Arc::new(Pending::default());
    let tx = ctx.sender_for(&tenant);
    if tx
        .send(ShardMsg::Start {
            tenant: tenant.clone(),
            stats: Arc::clone(&stats),
            pending: Arc::clone(&pending),
            model: ctx.model_for(&tenant),
            resume: false,
        })
        .is_err()
    {
        return;
    }
    let mut reader = WireReader::new(stream);
    loop {
        let frame = match reader.next_frame_raw() {
            Ok(frame) => frame,
            Err(e) => {
                if ctx.shutdown.is_set() {
                    // The stream drained to EOF because the daemon is
                    // going down; everything that arrived still gets a
                    // (partial) verdict.
                    let _ = tx.send(ShardMsg::Abort {
                        tenant,
                        reason: "server shutdown".into(),
                        evict: false,
                        cleanup: Vec::new(),
                    });
                } else {
                    // Corrupt stream: evict, but salvage the buffered
                    // prefix into a partial verdict + incident bundles
                    // (the shard's Abort path finalizes either way).
                    ctx.fleet.evict(&stats);
                    let _ = tx.send(ShardMsg::Abort {
                        tenant,
                        reason: e.to_string(),
                        evict: true,
                        cleanup: Vec::new(),
                    });
                }
                return;
            }
        };
        if frame.is_end() {
            let _ = tx.send(ShardMsg::End {
                tenant,
                frame,
                cleanup: Vec::new(),
            });
            return;
        }
        match queue_frame(ctx, &tenant, &stats, &pending, frame) {
            Queued::Sent => {}
            Queued::Stalled => {
                ctx.fleet.evict(&stats);
                let _ = tx.send(ShardMsg::Abort {
                    tenant,
                    reason: stall_reason(ctx),
                    evict: true,
                    cleanup: Vec::new(),
                });
                return;
            }
            Queued::Closed => return,
        }
    }
}

fn join_handlers(handlers: Vec<JoinHandle<()>>) {
    for h in handlers {
        if h.join().is_err() {
            heapmd_obs::error!("a connection handler panicked");
        }
    }
}

/// Connection-handler threads the accept loop has started and nobody
/// has joined yet.
type Handlers = Arc<Mutex<Vec<JoinHandle<()>>>>;
const HANDLERS_LOCK: &str = "no thread panics while holding the handler list";

/// Accepts ingest connections until shutdown, one handler thread each.
/// It holds the daemon context only weakly, so [`Server::wait`] can
/// finalize the shards even if this thread never wakes from `accept`.
fn accept_loop(
    listener: AnyListener,
    ctx: Weak<ServeCtx>,
    shutdown: Arc<Shutdown>,
    handlers: Handlers,
) {
    loop {
        let accepted = listener.accept();
        if shutdown.is_set() {
            return;
        }
        let Ok(stream) = accepted else {
            shutdown.sleep(ACCEPT_ERROR_BACKOFF);
            continue;
        };
        let Some(ctx) = ctx.upgrade() else {
            return;
        };
        heapmd_obs::count!("heapmd_serve_connections_total");
        // Joining finished handlers releases their thread stacks now
        // rather than at shutdown.
        let finished = {
            let mut held = handlers.lock().expect(HANDLERS_LOCK);
            let (finished, running) = std::mem::take(&mut *held)
                .into_iter()
                .partition(|h| h.is_finished());
            *held = running;
            held.push(std::thread::spawn(move || handle_conn(stream, ctx)));
            finished
        };
        join_handlers(finished);
    }
}

/// Wakes blocked accept loops at shutdown: dials each listener (through
/// `dial`) and re-dials every [`WAKE_RETRY`] until its thread reports on
/// `exited` that it returned. A dial can fail, say on descriptor
/// exhaustion or an unlinked socket path; after `grace` the loops still
/// blocked are left behind. Returns whether every loop returned.
fn wake_accept_loops(
    dials: &[String],
    exited: &Receiver<usize>,
    mut dial: impl FnMut(&str) -> io::Result<()>,
    grace: Duration,
) -> bool {
    let deadline = Instant::now() + grace;
    let mut blocked = vec![true; dials.len()];
    loop {
        for (addr, _) in dials.iter().zip(&blocked).filter(|(_, b)| **b) {
            if let Err(e) = dial(addr) {
                heapmd_obs::warn!("shutdown wake-up dial to {addr} failed: {e}");
            }
        }
        loop {
            match exited.recv_timeout(WAKE_RETRY) {
                Ok(i) => {
                    blocked[i] = false;
                    if !blocked.contains(&true) {
                        return true;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return true,
                Err(RecvTimeoutError::Timeout) => break,
            }
        }
        if Instant::now() >= deadline {
            heapmd_obs::error!("an accept loop did not wake for shutdown; leaving it blocked");
            return false;
        }
    }
}

// ---------------------------------------------------------------------
// HTTP control endpoint
// ---------------------------------------------------------------------

fn handle_http(stream: &mut TcpStream, fleet: &FleetRegistry, shutdown: &Shutdown) {
    let mut buf = [0u8; 2048];
    let mut n = 0;
    loop {
        match stream.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => {
                n += k;
                if n == buf.len() || buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request.split_whitespace().nth(1).unwrap_or("");
    let (status, ctype, body) = match path {
        "/metrics" => (200, "text/plain; version=0.0.4", {
            let mut text = heapmd_obs::export::prometheus_text();
            text.push_str(&fleet.prometheus_text());
            text
        }),
        "/fleet.tsv" => (200, "text/tab-separated-values", fleet.tsv()),
        "/fleet.jsonl" => (200, "application/x-ndjson", fleet.firehose_jsonl()),
        "/healthz" => (200, "text/plain", "ok\n".to_string()),
        "/shutdown" => (200, "text/plain", "shutting down\n".to_string()),
        _ => (404, "text/plain", "not found\n".to_string()),
    };
    let reason = if status == 200 { "OK" } else { "Not Found" };
    let _ = write!(
        stream,
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
    if path == "/shutdown" {
        shutdown.trigger();
    }
}

fn http_loop(listener: TcpListener, fleet: Arc<FleetRegistry>, shutdown: Arc<Shutdown>) {
    loop {
        let accepted = listener.accept();
        if shutdown.is_set() {
            return;
        }
        match accepted {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(1000)));
                handle_http(&mut stream, &fleet, &shutdown);
            }
            Err(_) => {
                shutdown.sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// A running fleet daemon. Construct with [`Server::start`]; block on
/// [`Server::wait`]; stop via [`Server::shutdown`] or the HTTP
/// `/shutdown` endpoint.
pub struct Server {
    ingest_addr: String,
    http_addr: String,
    fleet: Arc<FleetRegistry>,
    shutdown: Arc<Shutdown>,
    /// The daemon context; the only strong reference outside the
    /// connection handlers and the sweeper, so dropping it after they
    /// are joined closes the shard channels.
    ctx: Arc<ServeCtx>,
    handlers: Handlers,
    sweeper: JoinHandle<()>,
    /// Dial addresses of the ingest and HTTP listeners, whose accept
    /// threads send their index here when they return.
    wake_dials: Vec<String>,
    accept_exited: Receiver<usize>,
    shards: Vec<JoinHandle<Vec<TenantOutcome>>>,
    prom_dump: Option<PathBuf>,
}

impl Server {
    /// Binds the ingest socket (`host:port` or `unix:<path>`) and the
    /// HTTP control socket (`host:port`; port 0 picks a free one),
    /// replays any session journals left by a previous daemon, and
    /// spawns the accept, HTTP, and shard worker threads.
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Io`] when either socket cannot be bound.
    pub fn start(config: ServeConfig, listen: &str, http: &str) -> Result<Server, HeapMdError> {
        heapmd_obs::export::mark_process_start();
        let (ingest, ingest_addr, ingest_dial) = AnyListener::bind(listen)?;
        let http_listener = TcpListener::bind(http)?;
        let http_local = http_listener.local_addr()?;
        let http_addr = http_local.to_string();

        let fleet = Arc::new(FleetRegistry::new());
        let shutdown = Arc::new(Shutdown::new());
        let model = Arc::new(config.model);

        // One store shared by every shard: appends are segment-atomic
        // and serialized behind the store's own lock.
        let run_store = match &config.run_store {
            Some(dir) => Some(Arc::new(RunStore::open(dir).map_err(|e| match e {
                heapmd_runstore::StoreError::Io(io) => HeapMdError::from(io),
                other => HeapMdError::InvalidInput(other.to_string()),
            })?)),
            None => None,
        };
        let shard_count = config.shards.max(1);
        let mut senders = Vec::with_capacity(shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let (tx, rx) = channel();
            senders.push(tx);
            let ctx = ShardCtx {
                fleet: Arc::clone(&fleet),
                incident_dir: config.incident_dir.clone(),
                run_store: run_store.clone(),
                sampler: config.sampler,
            };
            shards.push(
                std::thread::Builder::new()
                    .name(format!("hmd-shard-{i}"))
                    .spawn(move || shard_loop(rx, ctx))?,
            );
        }
        let ctx = Arc::new(ServeCtx {
            senders,
            fleet: Arc::clone(&fleet),
            queue_events: config.queue_events.max(1),
            shutdown: Arc::clone(&shutdown),
            model,
            model_dir: config.model_dir,
            journal_dir: config.journal_dir,
            session_timeout: config.session_timeout,
            sessions: Mutex::new(BTreeMap::new()),
            model_cache: Mutex::new(BTreeMap::new()),
        });
        // Crash-only recovery: replay whatever journals the previous
        // daemon left before accepting new connections, so resuming
        // clients find their sessions already rebuilt.
        session::recover_sessions(&ctx);
        let sweeper = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("hmd-sweep".into())
                .spawn(move || {
                    while !ctx.shutdown.sleep(SWEEP_PERIOD) {
                        session::sweep_expired(&ctx);
                    }
                })?
        };
        let handlers = Handlers::default();
        let (exited_tx, accept_exited) = channel();
        {
            let (ctx, shutdown, handlers) = (
                Arc::downgrade(&ctx),
                Arc::clone(&shutdown),
                Arc::clone(&handlers),
            );
            let exited = exited_tx.clone();
            std::thread::Builder::new()
                .name("hmd-accept".into())
                .spawn(move || {
                    accept_loop(ingest, ctx, shutdown, handlers);
                    let _ = exited.send(0);
                })?;
        }
        {
            let fleet = Arc::clone(&fleet);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("hmd-http".into())
                .spawn(move || {
                    http_loop(http_listener, fleet, shutdown);
                    let _ = exited_tx.send(1);
                })?;
        }
        Ok(Server {
            ingest_addr,
            http_addr,
            fleet,
            shutdown,
            ctx,
            handlers,
            sweeper,
            wake_dials: vec![ingest_dial, dial_addr(http_local)],
            accept_exited,
            shards,
            prom_dump: config.prom_dump,
        })
    }

    /// The resolved ingest address (`host:port`, or the `unix:<path>`
    /// spec as given).
    pub fn ingest_addr(&self) -> &str {
        &self.ingest_addr
    }

    /// The resolved HTTP control address.
    pub fn http_addr(&self) -> &str {
        &self.http_addr
    }

    /// The daemon's tenant registry (live rollups).
    pub fn fleet(&self) -> Arc<FleetRegistry> {
        Arc::clone(&self.fleet)
    }

    /// Requests graceful shutdown: stop accepting, close in-flight
    /// streams, finalize buffered prefixes, flush incidents, write the
    /// final dump. Session journals are left on disk for the next
    /// daemon. Returns immediately; [`Server::wait`] observes it.
    pub fn shutdown(&self) {
        self.shutdown.trigger();
    }

    /// Blocks until shutdown (via [`Server::shutdown`] or HTTP
    /// `/shutdown`), then drains every shard and returns the summary.
    pub fn wait(self) -> ServeSummary {
        self.shutdown.wait();
        wake_accept_loops(
            &self.wake_dials,
            &self.accept_exited,
            |addr| connect_any(addr).map(drop).map_err(io::Error::other),
            WAKE_GRACE,
        );
        // Handlers notice the flag within one read-timeout tick, drain
        // what the kernel buffered, and hand their tenants to the
        // shards. Dropping the context after them and the sweeper drops
        // the shard senders, which closes the channels, which drain and
        // finalize.
        join_handlers(std::mem::take(
            &mut *self.handlers.lock().expect(HANDLERS_LOCK),
        ));
        let _ = self.sweeper.join();
        drop(self.ctx);
        let mut summary = ServeSummary::default();
        for shard in self.shards {
            if let Ok(outcomes) = shard.join() {
                for o in outcomes {
                    summary.tenants.insert(o.tenant.clone(), o);
                }
            }
        }
        if let Some(path) = &self.prom_dump {
            let mut text = heapmd_obs::export::prometheus_text();
            text.push_str(&self.fleet.prometheus_text());
            if let Err(e) = std::fs::write(path, text) {
                summary.prom_dump_error = Some(format!("{}: {e}", path.display()));
            }
        }
        summary
    }
}

// ---------------------------------------------------------------------
// Clients (v1 fire-and-forget; resumable clients live in [`client`])
// ---------------------------------------------------------------------

pub(crate) fn connect_any(addr: &str) -> Result<AnyStream, HeapMdError> {
    if let Some(path) = addr.strip_prefix("unix:") {
        #[cfg(unix)]
        return Ok(AnyStream::Unix(UnixStream::connect(path)?));
        #[cfg(not(unix))]
        return Err(HeapMdError::InvalidInput(format!(
            "unix socket address {path:?} unsupported on this platform"
        )));
    }
    Ok(AnyStream::Tcp(TcpStream::connect(addr)?))
}

/// Connects to a daemon and sends the preamble, returning a sink
/// suitable for [`crate::Process::stream_trace_to_format`] with
/// [`crate::StreamFormat::Binary`] — live processes stream their trace
/// to the fleet exactly as they would to a file.
///
/// # Errors
///
/// [`HeapMdError::InvalidInput`] for a bad tenant name,
/// [`HeapMdError::Io`] on connect/write failure.
pub fn connect_stream(addr: &str, tenant: &str) -> Result<Box<dyn Write>, HeapMdError> {
    if !valid_tenant(tenant) {
        return Err(HeapMdError::InvalidInput(format!(
            "invalid tenant name {tenant:?} (want 1-64 chars of [A-Za-z0-9._:-])"
        )));
    }
    let mut stream = connect_any(addr)?;
    stream.write_all(format!("{SERVE_PREAMBLE} {tenant}\n").as_bytes())?;
    Ok(Box::new(stream))
}

/// Pushes a recorded trace to a daemon as `tenant`, re-encoding it as a
/// binary stream. Returns the number of events sent.
///
/// # Errors
///
/// Same as [`connect_stream`], plus encode/transport failures.
pub fn push_trace(addr: &str, tenant: &str, trace: &Trace) -> Result<u64, HeapMdError> {
    let sink = connect_stream(addr, tenant)?;
    let mut writer = BinaryTraceWriter::new(io::BufWriter::new(sink))?;
    // Announce the recording's sampling schedule before any event so
    // the daemon's live gauges widen from the first sample on.
    if let Some(info) = trace.sampling() {
        writer.write_meta(&crate::trace_codec::encode_sampling_meta(&info))?;
    }
    for ev in trace.events() {
        writer.write_event(ev)?;
    }
    writer.write_functions(trace.functions())?;
    let mut inner = writer.finish()?;
    inner.flush()?;
    Ok(trace.len() as u64)
}
