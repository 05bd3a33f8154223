//! The load generator's side of the TCP/JSON front door: a JSON-lines
//! client over non-blocking sockets, waited on with `ppoll(2)` — one thread,
//! no spinning.
//!
//! Requests are serialised during set-up; here they are only written and
//! their reply lines read back. Two drivers share the plumbing:
//! [`closed_loop`] keeps one request in flight per connection (the flood),
//! [`open_loop`] sends on a fixed schedule whatever the replies do (the
//! paced feed) and times every request from when it was *due*.

use crate::span::{SpanId, SpanLog};
use serde::Deserialize;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// A reply that never arrives fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------------
// ppoll(2)
// ---------------------------------------------------------------------------

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// Linux `ppoll(2)`: `poll` with a nanosecond timeout. Declared here
    /// because the sandbox has no `libc` crate; `std` links the C library.
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Sleeps until one of `fds` is ready for its events or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // structs laid out as `struct pollfd`, and its length is passed with
    // it; `ts` outlives the call; a null signal mask is allowed and means
    // "leave the mask alone".
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as _, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Lines
// ---------------------------------------------------------------------------

/// Reassembles newline-terminated replies from whatever the socket hands
/// over: a reply split across reads, or several replies in one read.
#[derive(Debug, Default)]
pub struct LineBuffer {
    buf: Vec<u8>,
    /// Where the first unconsumed byte sits.
    start: usize,
    /// Bytes before this offset hold no newline (already searched).
    scanned: usize,
}

impl LineBuffer {
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
            self.scanned = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete line without its newline, if one has arrived.
    pub fn pop_line(&mut self) -> Option<&[u8]> {
        let from = self.scanned.max(self.start);
        match self.buf[from..].iter().position(|&b| b == b'\n') {
            Some(offset) => {
                let end = from + offset;
                let line = self.start..end;
                self.start = end + 1;
                self.scanned = self.start;
                Some(&self.buf[line])
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Drains whatever `stream` has ready. `Ok(false)` means the peer
    /// closed the connection.
    fn fill(&mut self, stream: &mut TcpStream, chunk: &mut [u8]) -> io::Result<bool> {
        loop {
            match stream.read(chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.extend(&chunk[..n]);
                    if n < chunk.len() {
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One reply line, as the front door's `Response` serialises it. A
/// `report` reply is recognised by its prefix and kept as raw bytes: it is
/// half a megabyte, and parsing it belongs to the checks after the clock
/// has stopped.
#[derive(Debug, Deserialize, PartialEq)]
#[serde(tag = "res", rename_all = "lowercase")]
pub enum Reply {
    Hello {
        tenant: String,
    },
    Ack {
        seq: u64,
    },
    Acks {
        first: u64,
        last: u64,
        accepted: u64,
        rejected: u64,
    },
    Busy,
    Error {
        message: String,
    },
    Bye,
    #[serde(skip)]
    Report(Vec<u8>),
}

const REPORT_PREFIX: &[u8] = b"{\"res\":\"report\"";

pub fn parse_reply(line: &[u8]) -> Result<Reply, String> {
    if line.starts_with(REPORT_PREFIX) {
        return Ok(Reply::Report(line.to_vec()));
    }
    serde_json::from_slice(line).map_err(|e| {
        format!(
            "unreadable reply {:?}: {e}",
            String::from_utf8_lossy(&line[..line.len().min(120)])
        )
    })
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// What a request is, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An `alerts` batch of this many alerts.
    Batch(u32),
    /// One `alert`.
    Alert,
    Tick,
    Ping,
    Report,
}

impl Kind {
    /// Events the request asks the service to accept.
    pub fn events(self) -> u64 {
        match self {
            Kind::Batch(n) => u64::from(n),
            Kind::Alert | Kind::Tick | Kind::Ping => 1,
            Kind::Report => 0,
        }
    }

    pub fn span_name(self) -> &'static str {
        match self {
            Kind::Batch(_) => "tcp.alerts",
            Kind::Alert => "tcp.alert",
            Kind::Tick => "tcp.tick",
            Kind::Ping => "tcp.ping",
            Kind::Report => "tcp.report",
        }
    }
}

/// One pre-serialised request: its bytes in the script's blob and its kind.
#[derive(Debug, Clone)]
pub struct Request {
    pub bytes: Range<usize>,
    pub kind: Kind,
}

/// A tenant's whole conversation, serialised once during set-up.
#[derive(Debug, Clone, Default)]
pub struct Script {
    pub blob: Vec<u8>,
    pub requests: Vec<Request>,
}

impl Script {
    pub fn push(&mut self, kind: Kind, line: &[u8]) {
        let start = self.blob.len();
        self.blob.extend_from_slice(line);
        self.blob.push(b'\n');
        self.requests.push(Request {
            bytes: start..self.blob.len(),
            kind,
        });
    }

    pub fn events(&self) -> u64 {
        self.requests.iter().map(|r| r.kind.events()).sum()
    }
}

/// A connected, `hello`-bound, non-blocking client socket.
pub struct Conn {
    stream: TcpStream,
    lines: LineBuffer,
    /// Bytes accepted for sending but not yet taken by the socket.
    outbox: VecDeque<u8>,
}

impl Conn {
    /// Connects and binds the connection to `tenant` (blocking; set-up).
    pub fn open(addr: SocketAddr, tenant: &str) -> Result<Conn, String> {
        let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what} {addr}: {e}");
        let mut stream = TcpStream::connect(addr).map_err(|e| fail("connect to", &e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| fail("nodelay on", &e))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| fail("read timeout on", &e))?;
        let hello = format!("{{\"op\":\"hello\",\"tenant\":{}}}\n", json_string(tenant));
        stream
            .write_all(hello.as_bytes())
            .map_err(|e| fail("hello to", &e))?;
        let mut lines = LineBuffer::default();
        let mut chunk = [0u8; 4096];
        let reply = loop {
            if let Some(line) = lines.pop_line() {
                break parse_reply(line)?;
            }
            let n = stream
                .read(&mut chunk)
                .map_err(|e| fail("hello reply from", &e))?;
            if n == 0 {
                return Err(format!("{addr} closed during hello"));
            }
            lines.extend(&chunk[..n]);
        };
        if !matches!(&reply, Reply::Hello { tenant: t } if t == tenant) {
            return Err(format!("hello for {tenant:?} answered {reply:?}"));
        }
        stream
            .set_nonblocking(true)
            .map_err(|e| fail("nonblocking on", &e))?;
        Ok(Conn {
            stream,
            lines,
            outbox: VecDeque::new(),
        })
    }

    fn queue(&mut self, bytes: &[u8]) {
        self.outbox.extend(bytes);
    }

    /// Writes as much of the outbox as the socket takes right now.
    fn flush(&mut self) -> io::Result<()> {
        while !self.outbox.is_empty() {
            let (head, _) = self.outbox.as_slices();
            match self.stream.write(head) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outbox.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn pollfd(&self) -> PollFd {
        PollFd {
            fd: self.stream.as_raw_fd(),
            events: if self.outbox.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            },
            revents: 0,
        }
    }

    /// Says goodbye; errors are of no interest at this point.
    pub fn close(mut self) {
        let _ = self.stream.set_nonblocking(false);
        let _ = self.stream.write_all(b"{\"op\":\"bye\"}\n");
    }
}

/// `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    serde_json::to_string(text).expect("strings always serialise")
}

/// Flushes every outbox, sleeps until a socket is readable (or writable,
/// where an outbox is pending) or `timeout` passes, then reads what came.
fn pump(conns: &mut [Conn], timeout: Duration, chunk: &mut [u8]) -> Result<(), String> {
    for conn in conns.iter_mut() {
        conn.flush().map_err(|e| format!("write failed: {e}"))?;
    }
    let mut fds: Vec<PollFd> = conns.iter().map(Conn::pollfd).collect();
    wait(&mut fds, timeout).map_err(|e| format!("ppoll failed: {e}"))?;
    for (conn, fd) in conns.iter_mut().zip(&fds) {
        if fd.revents & POLLOUT != 0 {
            conn.flush().map_err(|e| format!("write failed: {e}"))?;
        }
        if fd.revents & !POLLOUT != 0 {
            let open = conn
                .lines
                .fill(&mut conn.stream, chunk)
                .map_err(|e| format!("read failed: {e}"))?;
            if !open {
                return Err("the service closed a connection mid-run".to_string());
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

/// What one connection saw during a closed-loop round.
#[derive(Debug, Default)]
pub struct ConnRound {
    /// Request written → ack line complete, per `alerts` batch, in ms.
    pub batch_ack_ms: Vec<f64>,
    /// The same for single-event requests (ticks, pings), in ms.
    pub single_ack_ms: Vec<f64>,
    pub events_acked: u64,
    pub busy: u64,
    pub errors: Vec<String>,
    /// When the last ack before the report arrived.
    pub last_ack: Option<Instant>,
    pub report_sent: Option<Instant>,
    pub report_done: Option<Instant>,
    pub report_line: Option<Vec<u8>>,
    /// The seq the next ack should start at, to check density; 0 until
    /// the first ack of the round shows where the tenant's numbering is.
    next_seq: u64,
}

/// Optional instrumentation of a closed-loop round.
pub struct RoundTrace<'a> {
    pub log: &'a mut SpanLog,
    pub parent: SpanId,
    pub round: u64,
}

/// Plays each connection's script with one request in flight per
/// connection, from a single thread. Returns the round's first-byte time
/// and what each connection saw. `on_last_ack(i)` runs when connection
/// `i`'s last event is acked, just before its `report` goes out.
pub fn closed_loop(
    conns: &mut [Conn],
    scripts: &[&Script],
    mut trace: Option<RoundTrace<'_>>,
    mut on_last_ack: impl FnMut(usize),
) -> Result<(Instant, Vec<ConnRound>), String> {
    assert_eq!(conns.len(), scripts.len());
    let mut rounds: Vec<ConnRound> = conns.iter().map(|_| ConnRound::default()).collect();
    let mut cursor = vec![0usize; conns.len()];
    let mut sent_at: Vec<Instant> = Vec::with_capacity(conns.len());
    let mut chunk = vec![0u8; 64 * 1024];
    let started = Instant::now();
    for (conn, script) in conns.iter_mut().zip(scripts) {
        let first = script.requests.first().ok_or("empty script")?;
        sent_at.push(Instant::now());
        if first.kind == Kind::Report {
            return Err("a script must feed something before its report".to_string());
        }
        conn.queue(&script.blob[first.bytes.clone()]);
    }
    let mut open = conns.len();
    while open > 0 {
        pump(conns, REPLY_TIMEOUT, &mut chunk)?;
        let mut progressed = false;
        for i in 0..conns.len() {
            while let Some(line) = conns[i].lines.pop_line() {
                let now = Instant::now();
                progressed = true;
                let script = scripts[i];
                let request = script
                    .requests
                    .get(cursor[i])
                    .ok_or("a reply arrived with no request in flight")?;
                let reply = parse_reply(line)?;
                let took_ms = now.duration_since(sent_at[i]).as_secs_f64() * 1e3;
                if let Some(t) = trace.as_mut() {
                    t.log.record(
                        request.kind.span_name(),
                        Some(t.parent),
                        t.round,
                        sent_at[i],
                        now,
                    );
                }
                let seen = &mut rounds[i];
                match (request.kind, reply) {
                    (
                        Kind::Batch(n),
                        Reply::Acks {
                            first,
                            last,
                            accepted,
                            rejected,
                        },
                    ) => {
                        let dense = (seen.next_seq == 0 || first == seen.next_seq)
                            && last + 1 == first + u64::from(n)
                            && accepted == u64::from(n)
                            && rejected == 0;
                        if !dense {
                            seen.errors.push(format!(
                                "batch of {n} acked as {first}..={last} accepted {accepted} \
                                 rejected {rejected}, expected to start at {}",
                                seen.next_seq
                            ));
                        }
                        seen.next_seq = last + 1;
                        seen.events_acked += accepted;
                        seen.batch_ack_ms.push(took_ms);
                        seen.last_ack = Some(now);
                    }
                    (Kind::Alert | Kind::Tick | Kind::Ping, Reply::Ack { seq }) => {
                        if seen.next_seq != 0 && seq != seen.next_seq {
                            seen.errors
                                .push(format!("acked seq {seq}, expected {}", seen.next_seq));
                        }
                        seen.next_seq = seq + 1;
                        seen.events_acked += 1;
                        seen.single_ack_ms.push(took_ms);
                        seen.last_ack = Some(now);
                    }
                    (Kind::Report, Reply::Report(bytes)) => {
                        seen.report_done = Some(now);
                        seen.report_line = Some(bytes);
                    }
                    (_, Reply::Busy) => seen.busy += 1,
                    (kind, other) => seen.errors.push(format!("{kind:?} answered {other:?}")),
                }
                cursor[i] += 1;
                match script.requests.get(cursor[i]) {
                    Some(next) => {
                        if next.kind == Kind::Report {
                            on_last_ack(i);
                        }
                        let at = Instant::now();
                        sent_at[i] = at;
                        if next.kind == Kind::Report {
                            rounds[i].report_sent = Some(at);
                        }
                        conns[i].queue(&script.blob[next.bytes.clone()]);
                    }
                    None => open -= 1,
                }
            }
        }
        if !progressed && started.elapsed() > REPLY_TIMEOUT * 5 {
            return Err("closed loop made no progress".to_string());
        }
    }
    Ok((started, rounds))
}

/// One request, one reply, on a quiet connection (for the idle probes).
pub fn roundtrip(conn: &mut Conn, line: &[u8]) -> Result<(Duration, Reply), String> {
    let mut chunk = [0u8; 4096];
    let sent = Instant::now();
    conn.queue(line);
    loop {
        pump(std::slice::from_mut(conn), REPLY_TIMEOUT, &mut chunk)?;
        if let Some(reply) = conn.lines.pop_line() {
            let took = sent.elapsed();
            return Ok((took, parse_reply(reply)?));
        }
        if sent.elapsed() > REPLY_TIMEOUT {
            return Err("no reply".to_string());
        }
    }
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

/// The open-loop schedule: request `k` is due `k` intervals after the
/// start, whatever happened to the requests before it. Works on plain
/// nanosecond offsets so the accounting can be tested without a clock.
#[derive(Debug, Clone)]
pub struct Pacer {
    interval_ns: u64,
    total: usize,
    next: usize,
}

impl Pacer {
    pub fn new(per_second: f64, total: usize) -> Pacer {
        Pacer {
            interval_ns: (1e9 / per_second).round() as u64,
            total,
            next: 0,
        }
    }

    /// When request `k` is due, in nanoseconds after the start.
    pub fn due_ns(&self, k: usize) -> u64 {
        k as u64 * self.interval_ns
    }

    /// The requests that have come due by `now_ns` and were not yet
    /// released. A late generator gets them all at once; none is dropped
    /// and none is re-timed.
    pub fn release(&mut self, now_ns: u64) -> Range<usize> {
        let from = self.next;
        let due = (now_ns / self.interval_ns) as usize + 1;
        self.next = due.min(self.total).max(from);
        from..self.next
    }

    /// When the next unreleased request is due, if any is left.
    pub fn next_due_ns(&self) -> Option<u64> {
        (self.next < self.total).then(|| self.due_ns(self.next))
    }
}

/// What an open-loop pass saw.
#[derive(Debug, Default)]
pub struct OpenLoopRun {
    /// Due time → ack line complete, per request, in ms.
    pub ack_ms: Vec<f64>,
    /// Due time → request handed to the socket, per request, in µs.
    pub lateness_us: Vec<f64>,
    pub acked: u64,
    pub busy: u64,
    pub errors: Vec<String>,
    pub wall: Duration,
}

/// Sends `order[k] = (connection, request)` at `per_second`, never waiting
/// for replies, and times each from its due time. `next_seq[c]` is the
/// sequence number connection `c`'s next ack must carry, 0 while unknown
/// (its first ack then shows where the numbering is); it is carried from
/// one call to the next so that seqs are checked dense across calls.
pub fn open_loop(
    conns: &mut [Conn],
    scripts: &[&Script],
    order: &[(usize, usize)],
    per_second: f64,
    next_seq: &mut [u64],
    mut trace: Option<RoundTrace<'_>>,
) -> Result<OpenLoopRun, String> {
    let mut run = OpenLoopRun::default();
    let mut pacer = Pacer::new(per_second, order.len());
    let mut inflight: Vec<VecDeque<u64>> = conns.iter().map(|_| VecDeque::new()).collect();
    let mut outstanding = 0usize;
    let mut chunk = vec![0u8; 64 * 1024];
    let started = Instant::now();
    let mut last_progress = started;
    loop {
        let now_ns = started.elapsed().as_nanos() as u64;
        for k in pacer.release(now_ns) {
            let (c, r) = order[k];
            let request = &scripts[c].requests[r];
            conns[c].queue(&scripts[c].blob[request.bytes.clone()]);
            let due = pacer.due_ns(k);
            run.lateness_us
                .push((now_ns.saturating_sub(due)) as f64 / 1e3);
            inflight[c].push_back(due);
            outstanding += 1;
        }
        if pacer.next_due_ns().is_none() && outstanding == 0 {
            break;
        }
        let timeout = match pacer.next_due_ns() {
            Some(due) => {
                Duration::from_nanos(due.saturating_sub(started.elapsed().as_nanos() as u64))
            }
            None => Duration::from_millis(100),
        };
        pump(conns, timeout, &mut chunk)?;
        for c in 0..conns.len() {
            while let Some(line) = conns[c].lines.pop_line() {
                let now_ns = started.elapsed().as_nanos() as u64;
                let due = inflight[c]
                    .pop_front()
                    .ok_or("a reply arrived with no request in flight")?;
                outstanding -= 1;
                last_progress = Instant::now();
                if let Some(t) = trace.as_mut() {
                    // The span starts when the request was due, like the latency.
                    let at = |ns: u64| started + Duration::from_nanos(ns);
                    t.log
                        .record("tcp.alert", Some(t.parent), t.round, at(due), at(now_ns));
                }
                match parse_reply(line)? {
                    Reply::Ack { seq } => {
                        if next_seq[c] != 0 && seq != next_seq[c] {
                            run.errors
                                .push(format!("acked seq {seq}, expected {}", next_seq[c]));
                        }
                        next_seq[c] = seq + 1;
                        run.acked += 1;
                        run.ack_ms.push(now_ns.saturating_sub(due) as f64 / 1e6);
                    }
                    Reply::Busy => run.busy += 1,
                    other => run.errors.push(format!("alert answered {other:?}")),
                }
            }
        }
        if last_progress.elapsed() > REPLY_TIMEOUT {
            return Err(format!("{outstanding} replies never arrived"));
        }
    }
    run.wall = started.elapsed();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reply_split_across_reads_is_one_line() {
        let mut lines = LineBuffer::default();
        lines.extend(b"{\"res\":\"ack\",");
        assert!(lines.pop_line().is_none());
        lines.extend(b"\"seq\":");
        assert!(lines.pop_line().is_none());
        lines.extend(b"17}\n");
        let line = lines.pop_line().expect("complete now").to_vec();
        assert_eq!(parse_reply(&line), Ok(Reply::Ack { seq: 17 }));
        assert!(lines.pop_line().is_none());
    }

    #[test]
    fn coalesced_acks_come_out_one_by_one_in_order() {
        let mut lines = LineBuffer::default();
        lines.extend(
            b"{\"res\":\"ack\",\"seq\":1}\n{\"res\":\"acks\",\"first\":2,\"last\":4,\
              \"accepted\":3,\"rejected\":0}\n{\"res\":\"bu",
        );
        assert_eq!(
            parse_reply(lines.pop_line().unwrap()),
            Ok(Reply::Ack { seq: 1 })
        );
        assert_eq!(
            parse_reply(lines.pop_line().unwrap()),
            Ok(Reply::Acks {
                first: 2,
                last: 4,
                accepted: 3,
                rejected: 0
            })
        );
        assert!(
            lines.pop_line().is_none(),
            "the third reply is still partial"
        );
        lines.extend(b"sy\"}\n\n");
        assert_eq!(parse_reply(lines.pop_line().unwrap()), Ok(Reply::Busy));
        assert_eq!(lines.pop_line(), Some(&b""[..]), "an empty line is a line");
        assert!(lines.pop_line().is_none());
        // A drained buffer is reused from the front.
        lines.extend(b"{\"res\":\"bye\"}\n");
        assert_eq!(lines.start, 0);
        assert_eq!(parse_reply(lines.pop_line().unwrap()), Ok(Reply::Bye));
    }

    #[test]
    fn report_replies_stay_raw_and_garbage_is_an_error() {
        let line = b"{\"res\":\"report\",\"report\":{\"incidents\":[]}}";
        assert_eq!(parse_reply(line), Ok(Reply::Report(line.to_vec())));
        assert!(parse_reply(b"{\"res\":\"nope\"}").is_err());
        assert!(parse_reply(b"not json").is_err());
        assert_eq!(
            parse_reply(b"{\"message\":\"x\",\"res\":\"error\"}"),
            Ok(Reply::Error {
                message: "x".to_string()
            }),
            "the tag need not come first"
        );
    }

    #[test]
    fn an_on_time_generator_releases_one_request_per_interval() {
        let mut pacer = Pacer::new(2000.0, 5);
        assert_eq!(pacer.due_ns(3), 1_500_000);
        assert_eq!(pacer.release(0), 0..1);
        assert_eq!(pacer.release(499_999), 1..1);
        assert_eq!(pacer.next_due_ns(), Some(500_000));
        assert_eq!(pacer.release(500_000), 1..2);
        assert_eq!(pacer.release(1_000_100), 2..3);
    }

    #[test]
    fn a_late_generator_releases_the_backlog_timed_from_each_due_time() {
        let mut pacer = Pacer::new(2000.0, 10);
        assert_eq!(pacer.release(0), 0..1);
        // The generator stalls for 2.2 ms: requests 1..=4 came due at 0.5,
        // 1.0, 1.5 and 2.0 ms and go out together, each charged its own wait.
        let now = 2_200_000;
        let released = pacer.release(now);
        assert_eq!(released, 1..5);
        let lateness: Vec<u64> = released.map(|k| now - pacer.due_ns(k)).collect();
        assert_eq!(lateness, vec![1_700_000, 1_200_000, 700_000, 200_000]);
        // The schedule is not re-anchored: the next request is still due at
        // 2.5 ms, not one interval after the stall ended.
        assert_eq!(pacer.next_due_ns(), Some(2_500_000));
        // The tail is capped at the total and then the schedule is empty.
        assert_eq!(pacer.release(1_000_000_000), 5..10);
        assert_eq!(pacer.next_due_ns(), None);
        assert_eq!(pacer.release(2_000_000_000), 10..10);
    }
}
