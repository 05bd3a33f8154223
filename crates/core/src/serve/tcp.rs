//! The TCP/JSON front door: one newline-delimited JSON request per line,
//! one JSON response per line, **one blocking thread per connection** —
//! std-only, no readiness polling, no sleep.
//!
//! Protocol (all requests are objects tagged by `"op"`):
//!
//! ```text
//! → {"op":"hello","tenant":"edge-west"}        ← {"res":"hello","tenant":"edge-west"}
//! → {"op":"alert","alert":{...RawAlert...}}    ← {"res":"ack","seq":17} | {"res":"busy"}
//! → {"op":"alerts","alerts":[{...},{...}]}     ← {"res":"acks","first":18,"last":19,"accepted":2,"rejected":0}
//! → {"op":"ping","ping":{...PingSample...}}    ← {"res":"ack","seq":20}
//! → {"op":"tick","at":90}                      ← {"res":"ack","seq":21}
//! → {"op":"report","horizon":600}              ← {"res":"report","report":{...}}
//! → {"op":"bye"}                               (connection closes)
//! ```
//!
//! A connection is bound to one tenant by its `hello`; every subsequent
//! op rides that identity. Sequence numbers are per tenant. `busy` is the
//! connection-level backpressure signal: the tenant's own queue is full,
//! other tenants are unaffected, and the client should drain or back off
//! before retrying. A batched `alerts` submission acks the contiguous
//! per-tenant seq range it occupied — one response line however large the
//! batch — or bounces whole with `busy`. Errors are
//! `{"res":"error","message":...}` and keep the connection open, except
//! I/O failures and a line longer than [`MAX_LINE_BYTES`], which close it.
//!
//! Two pieces. [`Conn`] is the whole protocol and holds no socket: bytes
//! in, reply bytes out, so a session is a byte-slice unit test. `serve_conn`
//! is the only code that touches one: blocking `read` → `feed` → `write_all`
//! on the connection's own thread, under a blocking acceptor. Requests run
//! inline — the durability wait and a long `report` block the connection
//! that asked and nobody else. A peer that stops reading is no longer read
//! from once its window fills (`write_all` blocks; pending replies are
//! bounded by one `feed`) and is dropped after [`WRITE_TIMEOUT`]; at most
//! [`MAX_CONNS`] connections are served at once.

use super::service::ServiceInner;
use super::wal::WalEvent;
use super::ServeError;
use crate::pipeline::AnalysisReport;
use serde::{Deserialize, Serialize};
use skynet_model::{PingSample, RawAlert, SimTime};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest request line accepted (a 256-alert batch is 43 KB); a
/// longer one is answered with one `error` line and the connection closes.
const MAX_LINE_BYTES: usize = 4 << 20;
/// How long one reply write may wait on a peer that is not reading before
/// the connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
/// Connections served at once (one thread each); the next one gets one
/// `error` line and is closed.
const MAX_CONNS: usize = 256;

/// One request line.
#[derive(Deserialize)]
#[serde(tag = "op", rename_all = "lowercase")]
enum Request {
    /// Bind this connection to a tenant (admitting it if new).
    Hello { tenant: String },
    /// Submit a raw alert on the bound tenant's feed.
    Alert { alert: RawAlert },
    /// Submit a batch of raw alerts on the bound tenant's feed in one
    /// group-committed shot.
    Alerts { alerts: Vec<RawAlert> },
    /// Submit a ping sample on the bound tenant's feed.
    Ping { ping: PingSample },
    /// Advance the bound tenant's pipeline clock.
    Tick { at: SimTime },
    /// Finalize the bound tenant's run and return its report.
    Report { horizon: SimTime },
    /// Close the connection.
    Bye,
}

/// One response line.
#[derive(Serialize)]
#[serde(tag = "res", rename_all = "lowercase")]
enum Response {
    /// The connection is bound to `tenant`.
    Hello { tenant: String },
    /// The event is on the WAL as sequence number `seq`.
    Ack { seq: u64 },
    /// The batch is on the WAL as the contiguous per-tenant seq range
    /// `first..=last` (`accepted` events; `rejected` were bounced by an
    /// injected fault and consumed no seq).
    Acks {
        first: u64,
        last: u64,
        accepted: usize,
        rejected: usize,
    },
    /// Backpressure: the tenant's bounded queue is full; retry later.
    Busy,
    /// The tenant's finalized analysis report.
    Report { report: Box<AnalysisReport> },
    /// The request failed; the connection stays open.
    Error { message: String },
    /// Goodbye acknowledged; the connection closes.
    Bye,
}

/// Spawns the acceptor. It exits once the service starts shutting down
/// (shutdown wakes it with a loopback connection).
pub(super) fn spawn(inner: Arc<ServiceInner>, listener: TcpListener) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("skynet-serve-accept".into())
        .spawn(move || accept_loop(&inner, &listener))
        .expect("spawning the serve acceptor thread")
}

/// Blocks in `accept`, gives every connection a thread of its own, and keeps
/// a clone of each stream: shutting the clone down is what unblocks a thread
/// parked in `read` (or in `write_all` to a stalled peer) at shutdown.
fn accept_loop(inner: &Arc<ServiceInner>, listener: &TcpListener) {
    let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    for stream in listener.incoming() {
        if inner.is_shutting_down() {
            break;
        }
        let (done, live) = conns.into_iter().partition(|(_, t)| t.is_finished());
        conns = live;
        join_all(done);
        let Ok(mut stream) = stream else {
            // Out of descriptors, most likely: blocking `accept` would
            // fail again at once, so give connections time to close.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if conns.len() >= MAX_CONNS {
            let _ = stream.write_all(&error_line("too many connections; retry later"));
            continue;
        }
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let inner = Arc::clone(inner);
        let thread = std::thread::Builder::new()
            .name("skynet-serve-conn".into())
            .spawn(move || {
                // An injected `wal-append` panic fires on the submitter's
                // thread: it takes this connection down, not the door.
                let _ = std::panic::catch_unwind(AssertUnwindSafe(|| serve_conn(&inner, &stream)));
                // The acceptor's clone keeps the socket open until it reaps
                // this thread; the peer must see EOF now.
                let _ = stream.shutdown(Shutdown::Both);
            });
        if let Ok(thread) = thread {
            conns.push((clone, thread));
        }
    }
    for (stream, _) in &conns {
        let _ = stream.shutdown(Shutdown::Both);
    }
    join_all(conns);
}

fn join_all(conns: Vec<(TcpStream, JoinHandle<()>)>) {
    for (_, thread) in conns {
        let _ = thread.join();
    }
}

/// One connection, start to finish, on its own thread: the only code that
/// reads or writes a socket.
fn serve_conn(inner: &Arc<ServiceInner>, mut stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut conn = Conn::default();
    let mut chunk = vec![0u8; 64 << 10];
    let mut out = Vec::new();
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        let flow = conn.feed(inner, &chunk[..n], &mut out);
        if stream.write_all(&out).is_err() || flow == Flow::Close {
            return;
        }
        out.clear();
    }
}

/// What [`Conn::feed`] asks of whoever owns the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Keep reading.
    Continue,
    /// Write what `out` holds, then close the connection.
    Close,
}

/// One client connection's protocol state: the line it is part-way through
/// and the tenant its `hello` bound it to. No socket — bytes in, bytes out.
#[derive(Default)]
struct Conn {
    tenant: Option<String>,
    /// The unfinished last line: never holds a newline between feeds.
    buf: Vec<u8>,
}

impl Conn {
    /// Takes the next bytes off the wire, executes every request line they
    /// complete and appends one reply line each to `out`. Bytes after a
    /// `bye` are never looked at.
    fn feed(&mut self, inner: &Arc<ServiceInner>, bytes: &[u8], out: &mut Vec<u8>) -> Flow {
        // Only the new bytes can hold a newline, so each byte is scanned once.
        let mut scan = self.buf.len();
        self.buf.extend_from_slice(bytes);
        let mut cursor = 0;
        while let Some(len) = self.buf[scan..].iter().position(|&b| b == b'\n') {
            let line = &self.buf[cursor..scan + len];
            cursor = scan + len + 1;
            scan = cursor;
            if line.len() > MAX_LINE_BYTES {
                return line_too_long(out);
            }
            if handle_line(inner, &mut self.tenant, line, out) == Flow::Close {
                return Flow::Close;
            }
        }
        self.buf.drain(..cursor);
        if self.buf.len() > MAX_LINE_BYTES {
            return line_too_long(out);
        }
        Flow::Continue
    }
}

fn line_too_long(out: &mut Vec<u8>) -> Flow {
    out.extend(error_line(&format!(
        "bad request: line longer than {MAX_LINE_BYTES} bytes"
    )));
    Flow::Close
}

/// Executes one request line and appends its reply line (a blank line has
/// none).
fn handle_line(
    inner: &Arc<ServiceInner>,
    tenant: &mut Option<String>,
    line: &[u8],
    out: &mut Vec<u8>,
) -> Flow {
    let response = match std::str::from_utf8(line) {
        Ok(text) if text.trim().is_empty() => return Flow::Continue,
        Ok(text) => dispatch(inner, tenant, text),
        Err(_) => error_response("bad request: not valid UTF-8"),
    };
    respond(out, &response);
    match response {
        Response::Bye => Flow::Close,
        _ => Flow::Continue,
    }
}

fn respond(out: &mut Vec<u8>, response: &Response) {
    serde_json::to_writer(&mut *out, response).expect("serve responses always serialize");
    out.push(b'\n');
}

fn error_line(message: &str) -> Vec<u8> {
    let mut line = Vec::new();
    respond(&mut line, &error_response(message));
    line
}

/// Parses and executes one request line.
fn dispatch(inner: &Arc<ServiceInner>, tenant: &mut Option<String>, line: &str) -> Response {
    let request: Request = match serde_json::from_str(line) {
        Ok(request) => request,
        Err(e) => return error_response(format!("bad request: {e}")),
    };
    match request {
        Request::Hello { tenant: name } => match inner.admit(&name) {
            Ok(()) => {
                *tenant = Some(name.clone());
                Response::Hello { tenant: name }
            }
            Err(e) => error_response(e),
        },
        Request::Alert { alert } => submit(inner, tenant, WalEvent::Alert(alert)),
        Request::Alerts { alerts } => {
            let Some(name) = tenant.as_deref() else {
                return no_hello();
            };
            match inner.submit_batch(name, alerts.into_iter().map(WalEvent::Alert)) {
                Ok(ack) => Response::Acks {
                    first: ack.first_seq,
                    last: ack.last_seq,
                    accepted: ack.accepted,
                    rejected: ack.rejected,
                },
                Err(ServeError::Busy { .. }) => Response::Busy,
                Err(e) => error_response(e),
            }
        }
        Request::Ping { ping } => submit(inner, tenant, WalEvent::Ping(ping)),
        Request::Tick { at } => submit(inner, tenant, WalEvent::Tick(at)),
        Request::Report { horizon } => {
            let Some(name) = tenant.as_deref() else {
                return no_hello();
            };
            match inner.report(name, horizon) {
                Ok(report) => Response::Report {
                    report: Box::new(report),
                },
                Err(e) => error_response(e),
            }
        }
        Request::Bye => Response::Bye,
    }
}

fn submit(inner: &Arc<ServiceInner>, tenant: &Option<String>, event: WalEvent) -> Response {
    let Some(name) = tenant.as_deref() else {
        return no_hello();
    };
    match inner.submit(name, event) {
        Ok(seq) => Response::Ack { seq },
        Err(ServeError::Busy { .. }) => Response::Busy,
        Err(e) => error_response(e),
    }
}

fn no_hello() -> Response {
    error_response("say hello first: {\"op\":\"hello\",\"tenant\":...}")
}

fn error_response(message: impl ToString) -> Response {
    Response::Error {
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{FsyncPolicy, ServeConfig, ServiceHandle};
    use super::*;
    use crate::{PipelineConfig, SkyNet};
    use skynet_model::{AlertKind, DataSource};
    use skynet_topology::{generate, GeneratorConfig, Topology};
    use std::io::{BufRead, BufReader};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Mutex, MutexGuard, OnceLock};
    use std::time::Instant;

    /// A small LCG: seeded cut sets for the split-session property.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// Runs `case` once per seed; a failing case prints its seed, so
    /// `for_each_seed(S..S + 1, ..)` replays it.
    fn for_each_seed(seeds: std::ops::Range<u64>, mut case: impl FnMut(&mut Lcg)) {
        struct Running(u64);
        impl Drop for Running {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    eprintln!("property failed at seed {}", self.0);
                }
            }
        }
        for seed in seeds {
            let _running = Running(seed);
            case(&mut Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed));
        }
    }

    fn topo() -> Arc<Topology> {
        static TOPO: OnceLock<Arc<Topology>> = OnceLock::new();
        Arc::clone(TOPO.get_or_init(|| Arc::new(generate(&GeneratorConfig::small()))))
    }

    /// A running service over its own scratch directory; shut down and
    /// swept on drop, also when the test fails.
    struct Served {
        service: ServiceHandle,
        dir: PathBuf,
        /// Held by the loopback tests: they find this process's front-door
        /// threads by name, so one runs at a time.
        _loopback: Option<MutexGuard<'static, ()>>,
    }

    impl Drop for Served {
        fn drop(&mut self) {
            self.service.shutdown();
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    impl Served {
        fn start(loopback: bool) -> Served {
            static LOOPBACK: Mutex<()> = Mutex::new(());
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let _loopback = loopback.then(|| LOOPBACK.lock().unwrap_or_else(|e| e.into_inner()));
            let dir = std::env::temp_dir().join(format!(
                "skynet-tcp-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = ServeConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_tenant_queue_capacity(1 << 20);
            if loopback {
                cfg = cfg.with_bind("127.0.0.1:0");
            }
            let service = SkyNet::builder(&topo())
                .config(PipelineConfig::production())
                .serve(cfg)
                .expect("service starts");
            Served {
                service,
                dir,
                _loopback,
            }
        }

        fn connect(&self) -> Client {
            let addr = self.service.local_addr().expect("bound");
            let stream = TcpStream::connect(addr).expect("front door accepts");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            Client {
                reader: BufReader::new(stream),
            }
        }
    }

    /// One client connection: written to directly, read through a buffer.
    struct Client {
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn send(&mut self, line: &str) {
            self.reader
                .get_mut()
                .write_all(format!("{line}\n").as_bytes())
                .expect("request sends");
        }

        fn read_line(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("reply arrives");
            line
        }

        fn roundtrip(&mut self, line: &str) -> String {
            self.send(line);
            self.read_line()
        }

        fn hello(&mut self, tenant: &str) {
            let reply = self.roundtrip(&format!(r#"{{"op":"hello","tenant":"{tenant}"}}"#));
            assert!(reply.contains(r#""res":"hello""#), "{reply}");
        }

        /// Reads to the end of the stream; panics if the service never
        /// closes it (the read timeout).
        fn read_to_eof(&mut self) -> Vec<u8> {
            let mut rest = Vec::new();
            self.reader.read_to_end(&mut rest).expect("EOF arrives");
            rest
        }
    }

    fn alert_json(t: u64) -> String {
        let site = topo().clusters()[0].parent();
        let alert = RawAlert::known(
            DataSource::Ping,
            SimTime::from_secs(t),
            site,
            AlertKind::PacketLossIcmp,
        );
        serde_json::to_string(&alert).expect("alert serializes")
    }

    /// One scripted session, every verb and every malformed input, and
    /// where its `bye` line ends.
    fn session() -> (Vec<u8>, usize) {
        let clusters = topo().clusters().to_vec();
        let ping = serde_json::to_string(&PingSample {
            t: SimTime::from_secs(4),
            src: clusters[0].clone(),
            dst: clusters[1].clone(),
            loss: 0.5,
        })
        .expect("ping serializes");
        let lines: Vec<Vec<u8>> = vec![
            br#"{"op":"tick","at":0}"#.to_vec(),
            br#"{"op":"hello","tenant":"bytes"}"#.to_vec(),
            format!(r#"{{"op":"alert","alert":{}}}"#, alert_json(1)).into_bytes(),
            format!(
                r#"{{"op":"alerts","alerts":[{},{}]}}"#,
                alert_json(2),
                alert_json(3)
            )
            .into_bytes(),
            format!(r#"{{"op":"ping","ping":{ping}}}"#).into_bytes(),
            br#"{"op":"tick","at":5000}"#.to_vec(),
            br#"{"op":"tick","at":"#.to_vec(),
            b"\xff\xfe not utf-8".to_vec(),
            b"  \r".to_vec(),
            Vec::new(),
            br#"{"op":"report","horizon":2400000}"#.to_vec(),
            br#"{"op":"bye"}"#.to_vec(),
        ];
        let mut bytes = lines.join(&b'\n');
        bytes.push(b'\n');
        let bye_ends = bytes.len();
        bytes.extend_from_slice(b"{\"op\":\"tick\",\"at\":9}\nnever looked at");
        (bytes, bye_ends)
    }

    /// Feeds `session` to a fresh connection of a fresh service, cut at
    /// `cuts` (ascending offsets). Returns the reply bytes and how many
    /// session bytes had been fed when `feed` said `Close`.
    fn replay(session: &[u8], cuts: &[usize]) -> (Vec<u8>, Option<usize>) {
        let served = Served::start(false);
        let mut conn = Conn::default();
        let mut out = Vec::new();
        let mut from = 0;
        for &to in cuts.iter().chain([&session.len()]) {
            let flow = conn.feed(served.service.inner(), &session[from..to], &mut out);
            from = to;
            if flow == Flow::Close {
                return (out, Some(to));
            }
        }
        (out, None)
    }

    #[test]
    fn a_session_answers_the_same_however_its_bytes_are_cut() {
        let (session, bye_ends) = session();
        let (whole, closed_at) = replay(&session, &[]);
        assert_eq!(closed_at, Some(session.len()));
        let text = String::from_utf8(whole.clone()).expect("replies are UTF-8");
        let replies: Vec<&str> = text.lines().collect();
        let kinds: Vec<&str> = replies
            .iter()
            .map(|r| r.split('"').nth(3).expect("a res tag"))
            .collect();
        assert_eq!(
            kinds,
            ["error", "hello", "ack", "acks", "ack", "ack", "error", "error", "report", "bye"],
            "{text}"
        );
        assert!(replies[0].contains("say hello first"), "{text}");
        assert_eq!(
            replies[3],
            r#"{"res":"acks","first":2,"last":3,"accepted":2,"rejected":0}"#
        );
        assert_eq!(replies[5], r#"{"res":"ack","seq":5}"#);
        assert!(replies[7].contains("not valid UTF-8"), "{text}");

        // Two slices, cut at every offset: `Close` comes from the slice
        // that holds the end of `bye`, never earlier, never later.
        for cut in 1..session.len() {
            let (replies, closed_at) = replay(&session, &[cut]);
            assert_eq!(replies, whole, "cut at {cut}");
            let expected = if cut >= bye_ends { cut } else { session.len() };
            assert_eq!(closed_at, Some(expected), "cut at {cut}");
        }
        // One byte at a time.
        let every: Vec<usize> = (1..session.len()).collect();
        assert_eq!(replay(&session, &every), (whole, Some(bye_ends)));
    }

    #[test]
    fn a_session_answers_the_same_under_random_cut_sets() {
        let (session, bye_ends) = session();
        let (whole, _) = replay(&session, &[]);
        for_each_seed(0..24, |rng| {
            let mut cuts: Vec<usize> = (0..1 + rng.next() % 12)
                .map(|_| 1 + (rng.next() as usize) % (session.len() - 1))
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            let (replies, closed_at) = replay(&session, &cuts);
            assert_eq!(replies, whole, "cuts {cuts:?}");
            let expected = cuts.iter().find(|&&c| c >= bye_ends);
            assert_eq!(closed_at, Some(*expected.unwrap_or(&session.len())));
        });
    }

    #[test]
    fn an_overlong_line_gets_one_error_and_the_connection_closes() {
        let served = Served::start(false);
        let inner = served.service.inner();
        let assert_refused = |flow: Flow, out: &[u8]| {
            assert_eq!(flow, Flow::Close);
            let text = std::str::from_utf8(out).expect("UTF-8");
            assert!(text.starts_with(r#"{"res":"error""#), "{text}");
            assert!(text.contains("line longer than"), "{text}");
            assert_eq!(text.matches('\n').count(), 1, "one line: {text}");
        };
        // A client that never sends a newline: refused as soon as the line
        // in progress passes the cap, holding no more than cap + one feed.
        let mut conn = Conn::default();
        let mut out = Vec::new();
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..MAX_LINE_BYTES >> 20 {
            assert_eq!(conn.feed(inner, &chunk, &mut out), Flow::Continue);
            assert!(out.is_empty());
        }
        assert_refused(conn.feed(inner, b"x", &mut out), &out);
        assert!(conn.buf.len() <= MAX_LINE_BYTES + 1);
        // A complete line over the cap is refused unparsed, and nothing
        // after it runs.
        let mut line = vec![b' '; MAX_LINE_BYTES + 1];
        line.extend_from_slice(b"\n{\"op\":\"hello\",\"tenant\":\"late\"}\n");
        out.clear();
        assert_refused(Conn::default().feed(inner, &line, &mut out), &out);
        // At the cap exactly a line is still a request.
        let mut line = br#"{"op":"hello","tenant":"wide"}"#.to_vec();
        line.resize(MAX_LINE_BYTES, b' ');
        line.push(b'\n');
        out.clear();
        assert_eq!(Conn::default().feed(inner, &line, &mut out), Flow::Continue);
        assert_eq!(out, b"{\"res\":\"hello\",\"tenant\":\"wide\"}\n");
    }

    /// The severe flood: half of one region's entry circuits cut for 15
    /// minutes under heavy noise.
    fn severe_flood() -> Vec<RawAlert> {
        static FLOOD: OnceLock<Vec<RawAlert>> = OnceLock::new();
        FLOOD.get_or_init(generate_flood).clone()
    }

    fn generate_flood() -> Vec<RawAlert> {
        use skynet_failure::Injector;
        use skynet_model::SimDuration;
        use skynet_telemetry::{TelemetryConfig, TelemetrySuite};
        let topo = topo();
        let region = topo
            .regions_with_entries()
            .min_by_key(|r| r.to_string())
            .expect("the generator creates Internet entries")
            .clone();
        let mut injector = Injector::new(Arc::clone(&topo));
        injector.entry_cable_cut(
            &region,
            0.5,
            SimTime::from_mins(3),
            SimDuration::from_mins(15),
        );
        let scenario = injector.finish(SimTime::from_mins(25));
        let telemetry = TelemetryConfig {
            noise_per_hour: 100_000.0,
            seed: 7,
            ..TelemetryConfig::default()
        };
        TelemetrySuite::standard(&topo, telemetry)
            .run(&scenario)
            .alerts
    }

    const REPORT: &str = r#"{"op":"report","horizon":2400000}"#;

    /// ROADMAP item 4's "do acks stall behind a concurrent report", for the
    /// front door: while tenant A's connection is inside `report` (its
    /// flood still queued, so drain + finish + rank + 0.5 MB of JSON),
    /// tenant B's `tick` round trips on another connection go on. The
    /// bound is relative so that it holds on any host: every round trip of
    /// B finishes in under half of A's report, and several fit into it.
    /// On the one poll thread B's first tick waited for all of it.
    #[test]
    fn a_report_on_one_connection_does_not_stall_acks_on_another() {
        let served = Served::start(true);
        let (mut a, mut b) = (served.connect(), served.connect());
        a.hello("tenant-a");
        b.hello("tenant-b");
        let flood = severe_flood();
        let events = flood.len();
        served
            .service
            .submit_alerts("tenant-a", flood)
            .expect("the flood is queued");
        let reported = AtomicBool::new(false);
        let (asked_tx, asked) = mpsc::channel();
        let (report, round_trips) = std::thread::scope(|scope| {
            let reporter = scope.spawn(|| {
                let started = Instant::now();
                a.send(REPORT);
                asked_tx.send(()).expect("the main thread waits");
                let reply = a.read_line();
                reported.store(true, Ordering::SeqCst);
                assert!(reply.starts_with(r#"{"res":"report""#), "{reply:.80}");
                started.elapsed()
            });
            asked.recv().expect("the report is asked for");
            let mut round_trips = Vec::new();
            while !reported.load(Ordering::SeqCst) {
                let started = Instant::now();
                let at = round_trips.len();
                let reply = b.roundtrip(&format!(r#"{{"op":"tick","at":{at}}}"#));
                assert_eq!(reply, format!("{{\"res\":\"ack\",\"seq\":{}}}\n", at + 1));
                round_trips.push(started.elapsed());
            }
            (reporter.join().expect("the reporter"), round_trips)
        });
        let slowest = round_trips.iter().max().expect("one round trip");
        eprintln!(
            "report of {events} queued events {report:?}; {} tick round trips beside it, slowest {slowest:?}",
            round_trips.len()
        );
        assert!(round_trips.len() >= 3, "{round_trips:?} in {report:?}");
        assert!(*slowest < report / 2, "{slowest:?} of {report:?}");
    }

    /// A client that sends and never reads: 10k ticks, then lines that
    /// each earn an error line forty times their size — more reply bytes
    /// than socket buffers hold — then one tick more. A healthy tenant on
    /// another connection is acked all the while; the stalled client's
    /// thread parks in `write_all` and reads no further, so the last tick
    /// is never dispatched (the poll loop buffered 20 MB of replies and
    /// got to it); and shutdown does not wait for the peer.
    #[test]
    fn a_client_that_never_reads_delays_nobody_grows_nothing_and_does_not_hold_up_shutdown() {
        let served = Served::start(true);
        let mut stalled = served.connect();
        stalled.hello("stalled");
        let tick = |at: u64| format!("{{\"op\":\"tick\",\"at\":{at}}}\n");
        let mut script: String = (0..10_000).map(tick).collect();
        script.push_str(&"x\n".repeat(300_000));
        script.push_str(&tick(10_000));
        let acked = || {
            let health = served.service.tenant_health("stalled");
            health.expect("admitted").accepted
        };
        std::thread::scope(|scope| {
            // The write blocks once the service stops reading; shutdown
            // closes the socket under it.
            let mut to_service = stalled.reader.get_ref().try_clone().expect("clone");
            scope.spawn(move || to_service.write_all(script.as_bytes()));
            let started = Instant::now();
            let mut healthy = served.connect();
            healthy.hello("healthy");
            for at in 0..40 {
                let reply = healthy.roundtrip(tick(at).trim_end());
                assert_eq!(reply, format!("{{\"res\":\"ack\",\"seq\":{}}}\n", at + 1));
            }
            // The service was dispatching for the stalled client meanwhile.
            while acked() < 10_000 {
                assert!(started.elapsed() < Duration::from_secs(30));
                std::thread::yield_now();
            }
            assert!(started.elapsed() < Duration::from_secs(30));
            // Waiting shows nothing about "never"; it is here so that a
            // front door that does read on has the time to get there.
            std::thread::sleep(Duration::from_secs(1));
            assert_eq!(acked(), 10_000, "read past replies nobody takes");
            let started = Instant::now();
            served.service.shutdown();
            assert!(
                started.elapsed() < WRITE_TIMEOUT / 3,
                "shutdown waited {:?} for a peer that never reads",
                started.elapsed()
            );
        });
        // What was written before the close can still be read; the close
        // itself is a reset when the service left input unread.
        let mut replies = Vec::new();
        let _ = stalled.reader.read_to_end(&mut replies);
        assert!(replies.starts_with(b"{\"res\":\"ack\",\"seq\":1}\n"));
    }

    #[test]
    fn shutdown_is_prompt_and_every_client_reads_eof() {
        let served = Served::start(true);
        let mut idle = served.connect();
        idle.hello("idle");
        let mut mid_line = served.connect();
        mid_line.hello("mid-line");
        mid_line
            .reader
            .get_mut()
            .write_all(br#"{"op":"ti"#)
            .expect("half a request sends");
        let mut mid_report = served.connect();
        mid_report.hello("mid-report");
        served
            .service
            .submit_alerts("mid-report", severe_flood())
            .expect("the flood is queued");
        mid_report.send(REPORT);
        let started = Instant::now();
        served.service.shutdown();
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(idle.read_to_eof(), b"");
        assert_eq!(mid_line.read_to_eof(), b"");
        // Its report whole, cut short by the close, or not at all: what a
        // client is owed at shutdown is the end of the stream.
        mid_report.read_to_eof();
    }

    #[test]
    fn the_connection_after_the_cap_is_refused_until_one_leaves() {
        let served = Served::start(true);
        let addr = served.service.local_addr().expect("bound");
        // One descriptor each on this side: the cap is met for real.
        let mut held: Vec<TcpStream> = (0..MAX_CONNS)
            .map(|_| {
                let mut stream = TcpStream::connect(addr).expect("front door accepts");
                stream
                    .write_all(b"{\"op\":\"hello\",\"tenant\":\"held\"}\n")
                    .expect("hello sends");
                let mut reply = *b"{\"res\":\"hello\",\"tenant\":\"....\"}\n";
                stream.read_exact(&mut reply).expect("served");
                assert_eq!(&reply, b"{\"res\":\"hello\",\"tenant\":\"held\"}\n");
                stream
            })
            .collect();
        let mut refused = served.connect();
        let reply = refused.read_line();
        assert!(reply.contains("too many connections"), "{reply}");
        assert_eq!(refused.read_to_eof(), b"");
        // One leaves; its slot is free once its thread has finished.
        let mut leaving = held.pop().expect("one connection");
        leaving.write_all(b"{\"op\":\"bye\"}\n").expect("bye sends");
        let mut rest = Vec::new();
        leaving.read_to_end(&mut rest).expect("EOF");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut next = served.connect();
            if next
                .roundtrip(r#"{"op":"hello","tenant":"next"}"#)
                .contains(r#""res":"hello""#)
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "the freed slot was never given out"
            );
            std::thread::yield_now();
        }
    }

    /// This process's threads named `name`, read from `/proc`.
    #[cfg(target_os = "linux")]
    fn threads_named(name: &str) -> Vec<PathBuf> {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .map(|task| task.expect("a task").path())
            .filter(|task| {
                // The kernel keeps 15 bytes of a thread's name.
                std::fs::read_to_string(task.join("comm"))
                    .is_ok_and(|comm| comm.trim_end() == &name[..name.len().min(15)])
            })
            .collect()
    }

    /// `Threads:` of `/proc/self/status` would count every other test
    /// running in this process, so connection threads are counted by name;
    /// what a missed reap would leak beyond that is the acceptor's clone of
    /// each socket, so descriptors are counted too (with room for the
    /// other tests' files).
    #[cfg(target_os = "linux")]
    #[test]
    fn connections_that_came_and_went_leave_no_thread_and_no_descriptor() {
        let served = Served::start(true);
        let descriptors = || {
            std::fs::read_dir("/proc/self/fd")
                .expect("/proc/self/fd")
                .count()
        };
        let (threads_before, descriptors_before) =
            (threads_named("skynet-serve-conn").len(), descriptors());
        // 500 connections, then one more accept to reap the last of them.
        for _ in 0..501 {
            let mut client = served.connect();
            client.hello("cycle");
            assert_eq!(client.roundtrip(r#"{"op":"bye"}"#), "{\"res\":\"bye\"}\n");
            assert_eq!(client.read_to_eof(), b"");
        }
        // A thread is a moment away from gone when its peer reads EOF.
        let deadline = Instant::now() + Duration::from_secs(10);
        while threads_named("skynet-serve-conn").len() != threads_before {
            assert!(
                Instant::now() < deadline,
                "connection threads outlive their connections"
            );
            std::thread::yield_now();
        }
        let leaked = descriptors().saturating_sub(descriptors_before);
        assert!(
            leaked < 100,
            "{leaked} descriptors left behind by 501 connections"
        );
    }

    /// Nothing to do is nothing done: the parked acceptor is not scheduled
    /// (the poll loop woke 2,000 times a second).
    #[cfg(target_os = "linux")]
    #[test]
    fn an_idle_front_door_does_not_wake() {
        let served = Served::start(true);
        // A thread names itself once it runs: after an accept it has.
        served.connect().hello("early");
        let acceptor = threads_named("skynet-serve-accept");
        assert_eq!(
            acceptor.len(),
            1,
            "one front door runs at a time: {acceptor:?}"
        );
        let switches = || -> u64 {
            let status = std::fs::read_to_string(acceptor[0].join("status")).expect("status");
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .expect("voluntary_ctxt_switches");
            line.trim().parse().expect("a count")
        };
        let before = switches();
        std::thread::sleep(Duration::from_millis(200));
        let woke = switches() - before;
        assert!(
            woke < 10,
            "the idle acceptor was scheduled {woke} times in 200 ms"
        );
    }
}
