//! The HTTP/1.1 front door: [`SortService`] over a `std::net::TcpListener`.
//!
//! Deliberately minimal — the same dependency-free discipline as the JSON
//! codec. One request per connection (`Connection: close`), the request
//! line and headers capped at 8 KiB (past it: `400`), bodies framed by
//! `Content-Length` and capped ([`MAX_BODY`] → typed `413` *before* any
//! allocation), every response `application/json`. Routes:
//!
//! | Method | Path               | Meaning                                  |
//! |--------|--------------------|------------------------------------------|
//! | GET    | `/healthz`         | liveness → `{"ok": true}`                |
//! | POST   | `/jobs`            | submit a [`JobRequest`] → `202` + id, `429` budget rejection, `422` unmeetable deadline, `400` malformed |
//! | GET    | `/jobs/<id>`       | job status/telemetry → `200`, `404` unknown, `504` expired |
//! | GET    | `/jobs/<id>/wait`  | long-poll until terminal → `200` terminal, `408` + current status on server-side timeout (`?timeout_ms=`, capped), `404`, `504` expired |
//! | GET    | `/stats`           | service counters                         |
//! | POST   | `/shutdown`        | graceful drain, respond, stop accepting  |
//!
//! The accept loop runs on its own thread and serves nothing itself: each
//! accepted connection gets a handler thread of its own, spawned on demand
//! (none at boot), so one client's long-poll or idle socket never holds up
//! another's request. At most [`MAX_CONNECTIONS`] handlers run at once;
//! the accept thread answers a connection over that cap, or one whose
//! spawn fails, with `503 {"error": "busy"}`. Every connection reads and
//! writes under a [`IO_TIMEOUT`] socket timeout, so a silent peer gives up
//! its handler instead of pinning it.
//!
//! [`ServerHandle::shutdown`] triggers the same drain as `POST /shutdown`,
//! nudging the blocking `accept` with a loopback self-connection, and
//! returns once every handler has ended.

use crate::job::{JobRequest, JobState};
use crate::service::{Refusal, SortService, SubmitError};
use asym_model::json::JsonObj;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest accepted request body; bigger submissions get a typed `413`
/// without the body ever being read.
pub const MAX_BODY: usize = 1 << 20;

/// Most bytes read of a request's head (request line and headers); a head
/// this long or longer is a `400`.
const MAX_HEAD: u64 = 8 << 10;

/// `/jobs/<id>/wait` with no `timeout_ms` waits this long.
const DEFAULT_WAIT_MS: u64 = 2_000;

/// Hard cap on `timeout_ms` — a long-poll cannot pin a connection forever.
const MAX_WAIT_MS: u64 = 10_000;

/// Most connections served at once, each on its own handler thread; the
/// accept thread answers the next one `503` busy.
pub const MAX_CONNECTIONS: usize = 64;

/// Read and write timeout of every accepted connection: a peer that sends
/// nothing, or stops reading, for this long loses its handler.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a refused peer's bytes are read and dropped after its answer
/// (see [`refuse`]).
const LINGER: Duration = Duration::from_millis(50);

/// A running HTTP server wrapping a [`SortService`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service: Arc<SortService>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the listener (for in-process inspection —
    /// recovery and chaos tests call [`SortService::kill`] through this).
    pub fn service(&self) -> &SortService {
        &self.service
    }

    /// Drain the service and stop the accept loop (idempotent; also runs
    /// on drop). Returns once every handler has ended: a long-poll answers
    /// when its job finishes, a silent peer within [`IO_TIMEOUT`]. A no-op
    /// drain after [`SortService::kill`] — the killed service stays killed.
    pub fn shutdown(&mut self) {
        stop_accepting(&self.stop, self.addr);
        // Drain before the join: an in-flight long-poll ends once its job
        // does, and the join waits for every handler.
        self.service.drain();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `service` until shutdown.
pub fn serve(service: SortService, addr: impl ToSocketAddrs) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let service = Arc::new(service);
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("sort-http".into())
            .spawn(move || accept_loop(&listener, addr, &service, &stop))?
    };
    Ok(ServerHandle {
        addr,
        stop,
        service,
        thread: Some(thread),
    })
}

/// Set `stop` and nudge the blocking `accept` with a self-connection so the
/// loop observes it (once: later calls find the flag already set).
fn stop_accepting(stop: &AtomicBool, addr: SocketAddr) {
    if !stop.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect(addr);
    }
}

/// Accept connections until `stop`, handing each to a handler thread of its
/// own. The scope returns only after every handler has ended.
fn accept_loop(listener: &TcpListener, addr: SocketAddr, service: &SortService, stop: &AtomicBool) {
    let in_flight = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let Ok(stream) = conn else { continue };
            let Some(slot) = Slot::claim(&in_flight) else {
                refuse(&stream, 503, "Service Unavailable", r#"{"error": "busy"}"#);
                continue;
            };
            // Shared so the accept thread can still answer the peer when
            // the spawn fails and drops the closure.
            let stream = Arc::new(stream);
            let conn = Arc::clone(&stream);
            let spawned = std::thread::Builder::new()
                .name("sort-http-conn".into())
                .spawn_scoped(scope, move || {
                    let _slot = slot;
                    let _ = conn.set_read_timeout(Some(IO_TIMEOUT));
                    let _ = conn.set_write_timeout(Some(IO_TIMEOUT));
                    if let HandleResult::Shutdown = handle(&conn, service) {
                        stop_accepting(stop, addr);
                    }
                });
            if spawned.is_err() {
                refuse(&stream, 503, "Service Unavailable", r#"{"error": "busy"}"#);
            }
        }
    });
}

/// One handler's claim on the [`MAX_CONNECTIONS`] budget, given back on
/// drop: when the handler ends, panics, or never spawns.
struct Slot<'a>(&'a AtomicUsize);

impl<'a> Slot<'a> {
    fn claim(in_flight: &'a AtomicUsize) -> Option<Slot<'a>> {
        let taken = in_flight.fetch_add(1, Ordering::SeqCst);
        let slot = Slot(in_flight);
        (taken < MAX_CONNECTIONS).then_some(slot)
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answer a request that was not read whole, then read and drop what the
/// peer sent for at most about [`LINGER`]: closing a socket over unread
/// bytes resets the connection, which can discard the answer before the
/// peer reads it.
fn refuse(mut stream: &TcpStream, code: u16, reason: &str, body: &str) {
    respond(stream, code, reason, body);
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_read_timeout(Some(LINGER)).is_err() {
        return;
    }
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 4096];
    while Instant::now() < deadline && matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

enum HandleResult {
    KeepServing,
    Shutdown,
}

fn handle(stream: &TcpStream, service: &SortService) -> HandleResult {
    let mut reader = BufReader::new(stream);
    let (method, path, body) = match read_request(&mut reader) {
        Ok(req) => req,
        Err(ReadError::TooLarge { length }) => {
            let mut o = JsonObj::new();
            o.str("error", "too_large")
                .u64("length", length as u64)
                .u64("max", MAX_BODY as u64)
                .str("message", "request body exceeds the accepted maximum");
            refuse(reader.into_inner(), 413, "Payload Too Large", &o.finish());
            return HandleResult::KeepServing;
        }
        Err(ReadError::Malformed) => {
            refuse(
                reader.into_inner(),
                400,
                "Bad Request",
                r#"{"error": "malformed", "message": "unreadable HTTP request"}"#,
            );
            return HandleResult::KeepServing;
        }
    };
    let stream = reader.into_inner();
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, q),
        None => (path.as_str(), ""),
    };
    // `/jobs/<id>` and `/jobs/<id>/wait`: the id text, and whether to wait.
    let job = route
        .strip_prefix("/jobs/")
        .map(|rest| match rest.strip_suffix("/wait") {
            Some(id) => (id, true),
            None => (rest, false),
        });
    match (method.as_str(), route, job) {
        ("GET", "/healthz", _) => respond(stream, 200, "OK", r#"{"ok": true}"#),
        ("GET", "/stats", _) => respond(stream, 200, "OK", &service.stats().to_json()),
        ("POST", "/jobs", _) => match JobRequest::from_json(&body) {
            Err(e) => respond(stream, 400, "Bad Request", &e.to_json()),
            Ok(request) => match service.submit(request) {
                Ok(id) => {
                    let status = service.status(id).expect("submitted job exists");
                    let mut o = JsonObj::new();
                    o.u64("id", id).raw("status", &status.to_json());
                    respond(stream, 202, "Accepted", &o.finish());
                }
                Err(e @ SubmitError::Rejected(Refusal::Deadline { .. })) => {
                    respond(stream, 422, "Unprocessable Entity", &e.to_json());
                }
                Err(e @ SubmitError::Rejected(_)) => {
                    respond(stream, 429, "Too Many Requests", &e.to_json());
                }
                Err(e) => respond(stream, 503, "Service Unavailable", &e.to_json()),
            },
        },
        ("GET", _, Some((id, true))) => {
            let id = id.parse::<u64>().ok();
            let timeout_ms = query_u64(query, "timeout_ms")
                .unwrap_or(DEFAULT_WAIT_MS)
                .min(MAX_WAIT_MS);
            match id.and_then(|id| service.wait_timeout(id, Duration::from_millis(timeout_ms))) {
                None => respond(stream, 404, "Not Found", r#"{"error": "unknown job"}"#),
                Some(status) if status.state == JobState::Expired => {
                    respond(stream, 504, "Gateway Timeout", &status.to_json());
                }
                Some(status) if status.state.is_terminal() => {
                    respond(stream, 200, "OK", &status.to_json());
                }
                // Server-side timeout: the job is alive but not done; the
                // current snapshot rides along so pollers learn something.
                Some(status) => respond(stream, 408, "Request Timeout", &status.to_json()),
            }
        }
        ("GET", _, Some((id, false))) => {
            match id.parse::<u64>().ok().and_then(|id| service.status(id)) {
                Some(status) if status.state == JobState::Expired => {
                    respond(stream, 504, "Gateway Timeout", &status.to_json());
                }
                Some(status) => respond(stream, 200, "OK", &status.to_json()),
                None => respond(stream, 404, "Not Found", r#"{"error": "unknown job"}"#),
            }
        }
        ("POST", "/shutdown", _) => {
            service.drain();
            let mut o = JsonObj::new();
            o.bool("drained", true)
                .raw("stats", &service.stats().to_json());
            respond(stream, 200, "OK", &o.finish());
            return HandleResult::Shutdown;
        }
        _ => respond(stream, 404, "Not Found", r#"{"error": "no such route"}"#),
    }
    HandleResult::KeepServing
}

/// `read_request` failure classification: a `413` is not a `400`.
enum ReadError {
    /// Unframeable request (bad request line, unparsable headers, a head
    /// of [`MAX_HEAD`] bytes or more, short body, non-UTF-8 payload).
    Malformed,
    /// `Content-Length` admits to more than [`MAX_BODY`]; the body was
    /// never read, let alone allocated.
    TooLarge { length: usize },
}

/// Parse one request: the request line and headers (only
/// `Content-Length` matters) within [`MAX_HEAD`] bytes, then exactly that
/// many body bytes.
fn read_request(reader: &mut BufReader<&TcpStream>) -> Result<(String, String, String), ReadError> {
    let malformed = |_| ReadError::Malformed;
    let mut head = reader.take(MAX_HEAD);
    let mut line = String::new();
    head.read_line(&mut line).map_err(malformed)?;
    let content_length = read_content_length(&mut head).map_err(malformed)?;
    // A spent cap cut the head short, and the cut read as its end.
    if head.limit() == 0 {
        return Err(ReadError::Malformed);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(ReadError::Malformed)?.to_string();
    let path = parts.next().ok_or(ReadError::Malformed)?.to_string();
    if content_length > MAX_BODY {
        return Err(ReadError::TooLarge {
            length: content_length,
        });
    }
    let body = read_body(reader, content_length).map_err(malformed)?;
    Ok((method, path, body))
}

/// Read header lines through the blank line that ends them and return the
/// `Content-Length` (0 when absent). End of stream before that blank line
/// is `UnexpectedEof`: a cut-off head is not a complete one. Both
/// directions frame bodies with it: [`read_request`] here, and
/// [`crate::client`] for responses.
pub(crate) fn read_content_length(reader: &mut impl BufRead) -> std::io::Result<usize> {
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let header = header.trim_end();
        if header.is_empty() {
            return Ok(content_length);
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v
                .parse()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        }
    }
}

/// Read exactly `length` body bytes of UTF-8, for [`read_request`] and
/// [`crate::client`]. The buffer grows with the bytes that arrive, never to
/// `length` up front, so a peer that declares a body and stalls pins nothing.
pub(crate) fn read_body(reader: &mut impl Read, length: usize) -> std::io::Result<String> {
    let mut body = String::new();
    reader.take(length as u64).read_to_string(&mut body)?;
    if body.len() != length {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(body)
}

/// Pull one numeric query parameter out of `a=1&b=2` (missing or
/// unparsable → `None`).
fn query_u64(query: &str, key: &str) -> Option<u64> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

pub(crate) fn respond(mut stream: impl Write, code: u16, reason: &str, body: &str) {
    let msg = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    // The client may already have hung up; nothing useful to do about it.
    let _ = stream.write_all(msg.as_bytes());
    let _ = stream.flush();
}
