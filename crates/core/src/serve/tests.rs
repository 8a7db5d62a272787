//! Unit tests of the serve module: wire parsing, shard assignment, and
//! the shard's per-tenant byte image.

use super::*;
use crate::trace_codec::{FOOTER_LEN, HEADER_LEN};

#[test]
fn tenant_names_are_charset_checked() {
    assert!(valid_tenant("api-eu.web_1:prod"));
    assert!(!valid_tenant(""));
    assert!(!valid_tenant("has space"));
    assert!(!valid_tenant("path/../escape"));
    assert!(!valid_tenant(&"x".repeat(65)));
    assert!(valid_tenant(&"x".repeat(64)));
}

#[test]
fn shard_assignment_is_stable_and_in_range() {
    for shards in [1usize, 2, 4, 7] {
        for name in ["a", "tenant-42", "web.eu:1"] {
            let s = shard_for(name, shards);
            assert!(s < shards);
            assert_eq!(s, shard_for(name, shards), "deterministic");
        }
    }
}

#[test]
fn preamble_parses_both_versions() {
    let mut v1 = io::Cursor::new(b"HMDSERVE1 web-1\n".to_vec());
    assert!(matches!(
        read_preamble(&mut v1),
        Some(Preamble::V1 { tenant }) if tenant == "web-1"
    ));
    let mut v2 = io::Cursor::new(b"HMDSERVE2 web-1 s-42 7\n".to_vec());
    match read_preamble(&mut v2) {
        Some(Preamble::V2 {
            tenant,
            session,
            acked,
        }) => {
            assert_eq!(tenant, "web-1");
            assert_eq!(session, "s-42");
            assert_eq!(acked, 7);
        }
        other => panic!("wanted V2, got {}", other.is_some()),
    }
    for bad in [
        &b"HMDSERVE2 web-1 s-42\n"[..],
        b"HMDSERVE2 web-1 s-42 x\n",
        b"HMDSERVE2 web-1 bad session 7\n",
        b"HMDSERVE3 web-1\n",
    ] {
        assert!(
            read_preamble(&mut io::Cursor::new(bad.to_vec())).is_none(),
            "{:?}",
            String::from_utf8_lossy(bad)
        );
    }
}

// ---------------------------------------------------------------------
// The shard's per-tenant byte image
// ---------------------------------------------------------------------

/// Every image a shard finalized, in order, with its tenant.
static IMAGES: Mutex<Vec<(String, Vec<u8>)>> = Mutex::new(Vec::new());

/// Called by `finalize` in test builds.
pub(super) fn capture_image(tenant: &str, image: &[u8]) {
    IMAGES
        .lock()
        .unwrap()
        .push((tenant.to_string(), image.to_vec()));
}

/// The image `tenant` was last finalized with.
fn last_image(tenant: &str) -> Vec<u8> {
    IMAGES
        .lock()
        .unwrap()
        .iter()
        .rev()
        .find(|(t, _)| t == tenant)
        .map(|(_, image)| image.clone())
        .unwrap_or_else(|| panic!("no image finalized for {tenant}"))
}

fn settings() -> crate::settings::Settings {
    crate::settings::Settings::builder().frq(5).build().unwrap()
}

/// A linked-list build spanning three event blocks.
fn list_trace() -> Trace {
    let mut p = crate::process::Process::new(settings());
    p.enable_trace();
    let mut prev = None;
    for i in 0..3000 {
        p.enter("build");
        let node = p.malloc(16 + (i % 3) * 8, "node").unwrap();
        if let Some(prev) = prev {
            p.write_ptr(node.offset(8), prev).unwrap();
        }
        prev = Some(node);
        p.leave();
    }
    let mut trace = p.take_trace().unwrap();
    trace.set_functions(vec!["build".into()]);
    trace
}

fn model() -> HeapModel {
    HeapModel {
        version: crate::model::MODEL_FORMAT_VERSION,
        program: "list".into(),
        settings: settings(),
        stable: vec![],
        unstable: vec![],
        locally_stable: vec![],
        candidate_stable: vec![],
        candidate_unstable: vec![],
        sample_rate: 1.0,
        training_runs: 1,
    }
}

/// What a client's [`BinaryTraceWriter`] puts on the wire for `trace`
/// (the order [`push_trace`] and [`push_trace_resumable`] write in).
fn written(trace: &Trace) -> Vec<u8> {
    let mut w = BinaryTraceWriter::new(Vec::new()).unwrap();
    if let Some(info) = trace.sampling() {
        w.write_meta(&crate::trace_codec::encode_sampling_meta(&info))
            .unwrap();
    }
    for ev in trace.events() {
        w.write_event(ev).unwrap();
    }
    w.write_functions(trace.functions()).unwrap();
    w.finish().unwrap()
}

/// End offset of the first block after the 8-byte file header.
fn first_block_end(bytes: &[u8]) -> usize {
    let len = u32::from_le_bytes(bytes[17..21].try_into().unwrap()) as usize;
    8 + 17 + len
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 60,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
    }
}

/// Waits until every one of `tenants` registered tenants has closed.
fn drained(server: &Server, tenants: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = server.fleet().snapshot();
        if snap.tenants_total as usize == tenants && snap.connected == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "daemon never drained");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn assert_complete(summary: &ServeSummary, tenant: &str) {
    let outcome = &summary.tenants[tenant];
    assert!(
        !outcome.partial && outcome.evicted.is_none() && outcome.error.is_none(),
        "{tenant}: {outcome:?}"
    );
}

#[test]
fn v1_stream_image_is_the_written_file() {
    let trace = list_trace();
    let server = Server::start(ServeConfig::new(model()), "127.0.0.1:0", "127.0.0.1:0").unwrap();
    push_trace(server.ingest_addr(), "image-v1", &trace).unwrap();
    drained(&server, 1);
    server.shutdown();
    let summary = server.wait();
    assert_complete(&summary, "image-v1");
    assert_eq!(summary.tenants["image-v1"].events, trace.len() as u64);
    assert_eq!(last_image("image-v1"), written(&trace));
}

#[test]
fn v2_stream_image_is_the_written_file() {
    // A sampled recording, so a meta frame crosses the wire too.
    let trace = list_trace().sampled(swat::SamplerConfig::new(64, 8));
    assert!(trace.sampling().is_some());
    let server = Server::start(ServeConfig::new(model()), "127.0.0.1:0", "127.0.0.1:0").unwrap();
    push_trace_resumable(
        server.ingest_addr(),
        "image-v2",
        &trace,
        SessionOptions::default(),
    )
    .unwrap();
    server.shutdown();
    let summary = server.wait();
    assert_complete(&summary, "image-v2");
    assert_eq!(last_image("image-v2"), written(&trace));
}

#[test]
fn resumed_v2_stream_image_is_the_written_file() {
    let trace = list_trace();
    let bytes = written(&trace);
    let server = Server::start(ServeConfig::new(model()), "127.0.0.1:0", "127.0.0.1:0").unwrap();
    // The dialer keeps a handle on each connection so the test can cut
    // it mid-stream.
    let live: Arc<Mutex<Option<TcpStream>>> = Arc::default();
    let slot = Arc::clone(&live);
    let dialer: Dialer = Box::new(move |addr: &str| {
        let stream = TcpStream::connect(addr)?;
        *slot.lock().unwrap() = Some(stream.try_clone()?);
        Ok(Box::new(AnyStream::Tcp(stream)) as Box<dyn Conn>)
    });
    let opts = SessionOptions {
        session: Some("cut-1".into()),
        retry: fast_retry(),
        // Every write waits for its frames' acks, so the cut lands
        // after a block the daemon holds.
        spill_limit: 1,
        dialer: Some(dialer),
        ..SessionOptions::default()
    };
    let mut client = connect_session(server.ingest_addr(), "image-resume", opts).unwrap();
    let mid = first_block_end(&bytes);
    client.write_all(&bytes[..mid]).unwrap();
    let cut = live.lock().unwrap().take().expect("a live connection");
    cut.shutdown(std::net::Shutdown::Both).unwrap();
    client.write_all(&bytes[mid..]).unwrap();
    client.flush().unwrap();
    assert!(client.reconnects() >= 1, "the client resumed");
    server.shutdown();
    let summary = server.wait();
    assert_complete(&summary, "image-resume");
    assert_eq!(last_image("image-resume"), bytes);
}

#[cfg(unix)]
#[test]
fn journal_recovered_image_is_the_written_file() {
    let trace = list_trace();
    let bytes = written(&trace);
    let dir = std::env::temp_dir().join(format!("heapmd-image-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let addr = format!("unix:{}", dir.join("ingest.sock").display());
    let mut config = ServeConfig::new(model());
    config.journal_dir = Some(dir.join("journal"));

    let server = Server::start(config.clone(), &addr, "127.0.0.1:0").unwrap();
    let opts = SessionOptions {
        session: Some("phoenix-2".into()),
        retry: fast_retry(),
        spill_limit: 1,
        ..SessionOptions::default()
    };
    let mut client = connect_session(&addr, "image-journal", opts).unwrap();
    let mid = first_block_end(&bytes);
    client.write_all(&bytes[..mid]).unwrap();
    server.shutdown();
    let summary = server.wait();
    assert!(summary.tenants["image-journal"].partial);
    // The partial verdict salvaged exactly the acked prefix.
    assert_eq!(last_image("image-journal"), &bytes[..mid]);

    // The restarted daemon rebuilds the image from the journal; the
    // client resumes past it.
    let server = Server::start(config, &addr, "127.0.0.1:0").unwrap();
    client.write_all(&bytes[mid..]).unwrap();
    client.flush().unwrap();
    server.shutdown();
    let summary = server.wait();
    assert_complete(&summary, "image-journal");
    assert_eq!(last_image("image-journal"), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Accept loops and shutdown
// ---------------------------------------------------------------------

#[test]
fn shutdown_redials_an_accept_loop_whose_first_wake_up_fails() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(Shutdown::new());
    let (exited_tx, exited) = channel();
    let blocked = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            accept_loop(
                AnyListener::Tcp(listener),
                Weak::new(),
                shutdown,
                Handlers::default(),
            );
            exited_tx.send(0).unwrap();
        })
    };
    shutdown.trigger();
    let mut dials = 0;
    let woke = wake_accept_loops(
        &[addr],
        &exited,
        |addr| {
            dials += 1;
            if dials == 1 {
                Err(io::Error::other("descriptor table full"))
            } else {
                TcpStream::connect(addr).map(drop)
            }
        },
        Duration::from_secs(30),
    );
    assert!(woke, "the accept loop returned");
    assert_eq!(dials, 2, "one failed dial, one retry");
    blocked.join().unwrap();
}

/// A daemon whose Unix socket path was unlinked cannot be dialed awake;
/// shutdown still finalizes its tenants and writes the final dump.
#[cfg(unix)]
#[test]
fn shutdown_finishes_when_the_ingest_socket_cannot_be_dialed() {
    let dir = std::env::temp_dir().join(format!("heapmd-unlinked-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("ingest.sock");
    let mut config = ServeConfig::new(model());
    config.prom_dump = Some(dir.join("final.prom"));
    let addr = format!("unix:{}", sock.display());
    let server = Server::start(config, &addr, "127.0.0.1:0").unwrap();
    push_trace(&addr, "unlinked", &list_trace()).unwrap();
    drained(&server, 1);
    std::fs::remove_file(&sock).unwrap();
    server.shutdown();
    let summary = server.wait();
    assert_complete(&summary, "unlinked");
    assert!(summary.prom_dump_error.is_none());
    assert!(dir.join("final.prom").exists(), "final dump written");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The accept loop releases finished connection handlers as it goes,
/// so the threads a daemon holds stay flat however many connections it
/// has served, instead of growing by one stack per connection until
/// shutdown.
#[test]
fn finished_connection_threads_are_released() {
    let server = Server::start(ServeConfig::new(model()), "127.0.0.1:0", "127.0.0.1:0").unwrap();
    let fleet = server.fleet();
    // Each connection sends a bad preamble, so its handler counts a
    // protocol error and exits.
    let connect = |n: u64| {
        let mut stream = TcpStream::connect(server.ingest_addr()).unwrap();
        let _ = stream.write_all(b"NOT-A-PREAMBLE\n");
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(30);
        while fleet.snapshot().protocol_errors_total < n {
            assert!(Instant::now() < deadline, "connection {n} never handled");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    for n in 1..=200 {
        connect(n);
    }
    std::thread::sleep(Duration::from_millis(50));
    connect(201);
    let held = server.handlers.lock().unwrap().len();
    assert!(
        held <= 2,
        "{held} handler threads held after 201 connections"
    );
    server.shutdown();
    server.wait();
}

// ---------------------------------------------------------------------
// Frames that pass their checksum but do not decode
// ---------------------------------------------------------------------

/// Raises the count field of the block at `at` (outside the payload
/// checksum), so the frame still verifies but no longer decodes.
fn miscount_block(bytes: &mut [u8], at: usize) {
    let field = at + 5..at + 9;
    let count = u32::from_le_bytes(bytes[field.clone()].try_into().unwrap());
    bytes[field].copy_from_slice(&(count + 1).to_le_bytes());
}

/// Pushes `bytes` as a resumable session with a short retry budget.
fn push_session(addr: &str, tenant: &str, bytes: &[u8]) -> Result<(), HeapMdError> {
    let opts = SessionOptions {
        session: Some(format!("{tenant}-1")),
        retry: RetryPolicy {
            max_attempts: 3,
            ..fast_retry()
        },
        ..SessionOptions::default()
    };
    let mut client = connect_session(addr, tenant, opts)?;
    client.write_all(bytes)?;
    client.flush()?;
    Ok(())
}

#[test]
fn v2_stream_with_an_undecodable_events_frame_gets_no_final_ack() {
    let mut bytes = written(&list_trace());
    miscount_block(&mut bytes, HEADER_LEN);
    let server = Server::start(ServeConfig::new(model()), "127.0.0.1:0", "127.0.0.1:0").unwrap();
    let pushed = push_session(server.ingest_addr(), "miscounted", &bytes);
    assert!(
        pushed.is_err(),
        "the client must not be told the stream completed"
    );
    assert_eq!(server.fleet().snapshot().evictions_total, 1);
    server.shutdown();
    server.wait();
}

#[test]
fn v2_stream_with_an_undecodable_index_gets_no_final_ack() {
    let mut bytes = written(&list_trace());
    let footer = &bytes[bytes.len() - FOOTER_LEN..];
    let index = u64::from_le_bytes(footer[..8].try_into().unwrap()) as usize;
    miscount_block(&mut bytes, index);
    let server = Server::start(ServeConfig::new(model()), "127.0.0.1:0", "127.0.0.1:0").unwrap();
    let pushed = push_session(server.ingest_addr(), "bad-index", &bytes);
    assert!(
        pushed.is_err(),
        "the client must not be told the stream completed"
    );
    server.shutdown();
    let summary = server.wait();
    assert!(
        summary.tenants["bad-index"].partial,
        "the index never closed the stream"
    );
}
