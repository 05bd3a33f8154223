//! The TCP/JSON front door: one newline-delimited JSON request per line,
//! one JSON response per line, a **single nonblocking poll loop** over the
//! listener and every client socket — std-only, no thread per connection.
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
//! `{"res":"error","message":...}` and keep the connection open (except
//! I/O failures, which close it).
//!
//! The poll loop services sockets round-robin: reads are drained into
//! per-connection buffers, complete lines dispatched, responses flushed
//! as far as each socket accepts without blocking. Request execution is
//! inline — a long-running `report` briefly delays other connections'
//! request dispatch (their acked submissions are unaffected: durability
//! is the committer thread's job). When nothing is readable or writable
//! the loop sleeps briefly instead of spinning.

use super::service::ServiceInner;
use super::wal::WalEvent;
use super::ServeError;
use crate::pipeline::AnalysisReport;
use serde::{Deserialize, Serialize};
use skynet_model::{PingSample, RawAlert, SimTime};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How long the poll loop sleeps when every socket is idle.
const IDLE_SLEEP: std::time::Duration = std::time::Duration::from_micros(500);

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

/// Spawns the poll loop. It exits once the service starts shutting down
/// (shutdown wakes it with a loopback connection).
pub(super) fn spawn(inner: Arc<ServiceInner>, listener: TcpListener) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("skynet-serve-poll".into())
        .spawn(move || poll_loop(&inner, &listener))
        .expect("spawning the serve poll thread")
}

fn poll_loop(inner: &Arc<ServiceInner>, listener: &TcpListener) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut conns: Vec<Conn> = Vec::new();
    let mut chunk = [0u8; 8192];
    while !inner.is_shutting_down() {
        let mut active = false;
        while let Ok((stream, _)) = listener.accept() {
            if stream.set_nonblocking(true).is_ok() {
                let _ = stream.set_nodelay(true);
                conns.push(Conn::new(stream));
                active = true;
            }
        }
        for conn in &mut conns {
            if conn.pump(inner, &mut chunk) {
                active = true;
            }
        }
        conns.retain(|c| !c.dead);
        if !active {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// One client connection's poll-loop state: its half-read input, its
/// not-yet-flushed output, and the tenant its `hello` bound it to.
struct Conn {
    stream: TcpStream,
    tenant: Option<String>,
    read_buf: Vec<u8>,
    line_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_off: usize,
    /// `bye` received: flush what remains, then die.
    closing: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            tenant: None,
            read_buf: Vec::new(),
            line_buf: Vec::new(),
            write_buf: Vec::new(),
            write_off: 0,
            closing: false,
            dead: false,
        }
    }

    /// One service pass: drain readable bytes, dispatch complete lines,
    /// flush writable responses. Returns whether any progress happened.
    fn pump(&mut self, inner: &Arc<ServiceInner>, chunk: &mut [u8]) -> bool {
        let mut active = false;
        if !self.closing && !self.dead {
            loop {
                match self.stream.read(chunk) {
                    Ok(0) => {
                        self.dead = true;
                        break;
                    }
                    Ok(n) => {
                        self.read_buf.extend_from_slice(&chunk[..n]);
                        active = true;
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                }
            }
            while !self.closing {
                let Some(pos) = self.read_buf.iter().position(|&b| b == b'\n') else {
                    break;
                };
                self.line_buf.clear();
                self.line_buf.extend_from_slice(&self.read_buf[..pos]);
                self.read_buf.drain(..=pos);
                active = true;
                let line = std::mem::take(&mut self.line_buf);
                self.handle_line(inner, &line);
                self.line_buf = line;
            }
        }
        if self.flush() {
            active = true;
        }
        active
    }

    fn handle_line(&mut self, inner: &Arc<ServiceInner>, line: &[u8]) {
        let Ok(text) = std::str::from_utf8(line) else {
            self.respond(&Response::Error {
                message: "bad request: not valid UTF-8".to_string(),
            });
            return;
        };
        if text.trim().is_empty() {
            return;
        }
        let (response, done) = dispatch(inner, &mut self.tenant, text);
        self.respond(&response);
        if done {
            self.closing = true;
        }
    }

    fn respond(&mut self, response: &Response) {
        serde_json::to_writer(&mut self.write_buf, response)
            .expect("serve responses always serialize");
        self.write_buf.push(b'\n');
    }

    /// Writes as much pending response data as the socket accepts right
    /// now; a `bye`'d connection dies once its goodbye is fully flushed.
    fn flush(&mut self) -> bool {
        if self.dead {
            return false;
        }
        let mut active = false;
        while self.write_off < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_off..]) {
                Ok(0) => {
                    self.dead = true;
                    return active;
                }
                Ok(n) => {
                    self.write_off += n;
                    active = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return active;
                }
            }
        }
        if self.write_off == self.write_buf.len() {
            self.write_buf.clear();
            self.write_off = 0;
            if self.closing {
                self.dead = true;
            }
        }
        active
    }
}

/// Parses and executes one request line; returns the response and whether
/// the connection should close.
fn dispatch(
    inner: &Arc<ServiceInner>,
    tenant: &mut Option<String>,
    line: &str,
) -> (Response, bool) {
    let request: Request = match serde_json::from_str(line) {
        Ok(request) => request,
        Err(e) => {
            return (
                Response::Error {
                    message: format!("bad request: {e}"),
                },
                false,
            )
        }
    };
    match request {
        Request::Hello { tenant: name } => match inner.admit(&name) {
            Ok(()) => {
                *tenant = Some(name.clone());
                (Response::Hello { tenant: name }, false)
            }
            Err(e) => (error_response(e), false),
        },
        Request::Alert { alert } => submit(inner, tenant, WalEvent::Alert(alert)),
        Request::Alerts { alerts } => {
            let Some(name) = tenant.as_deref() else {
                return (no_hello(), false);
            };
            match inner.submit_batch(name, alerts.into_iter().map(WalEvent::Alert)) {
                Ok(ack) => (
                    Response::Acks {
                        first: ack.first_seq,
                        last: ack.last_seq,
                        accepted: ack.accepted,
                        rejected: ack.rejected,
                    },
                    false,
                ),
                Err(ServeError::Busy { .. }) => (Response::Busy, false),
                Err(e) => (error_response(e), false),
            }
        }
        Request::Ping { ping } => submit(inner, tenant, WalEvent::Ping(ping)),
        Request::Tick { at } => submit(inner, tenant, WalEvent::Tick(at)),
        Request::Report { horizon } => {
            let Some(name) = tenant.as_deref() else {
                return (no_hello(), false);
            };
            match inner.report(name, horizon) {
                Ok(report) => (
                    Response::Report {
                        report: Box::new(report),
                    },
                    false,
                ),
                Err(e) => (error_response(e), false),
            }
        }
        Request::Bye => (Response::Bye, true),
    }
}

fn submit(inner: &Arc<ServiceInner>, tenant: &Option<String>, event: WalEvent) -> (Response, bool) {
    let Some(name) = tenant.as_deref() else {
        return (no_hello(), false);
    };
    match inner.submit(name, event) {
        Ok(seq) => (Response::Ack { seq }, false),
        Err(ServeError::Busy { .. }) => (Response::Busy, false),
        Err(e) => (error_response(e), false),
    }
}

fn no_hello() -> Response {
    Response::Error {
        message: "say hello first: {\"op\":\"hello\",\"tenant\":...}".to_string(),
    }
}

fn error_response(e: ServeError) -> Response {
    Response::Error {
        message: e.to_string(),
    }
}
