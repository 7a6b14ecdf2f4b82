//! The HTTP client for [`crate::http`]: one request per connection, bodies
//! framed by `Content-Length` and read with the same header reader the
//! server uses for requests.
//!
//! [`roundtrip`] is the raw exchange. [`submit`], [`wait`] and
//! [`wait_outcome`] speak the job routes and hand back typed values,
//! decoded by [`SubmitError::from_json`] and [`JobStatus::from_json`]
//! (`wait_outcome` decodes a completed job's outcome straight from the
//! parsed body).

use crate::http::{read_body, read_content_length};
use crate::job::{JobId, JobRequest, JobState, JobStatus};
use crate::service::SubmitError;
use asym_core::sort::{SortOutcome, WireError};
use asym_model::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// Why a client call did not return its typed value.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, sending, or reading a framed response failed.
    Io(std::io::Error),
    /// The service refused the submission (`429`, `422`, or `503`).
    Refused(SubmitError),
    /// The response body did not decode.
    Wire(WireError),
    /// Any other status code, with its body (e.g. `404` for an unknown job,
    /// or the front door's `503` busy).
    Status {
        /// The HTTP status code.
        code: u16,
        /// The response body.
        body: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Refused(e) => write!(f, "{e}"),
            ClientError::Wire(e) => write!(f, "response: {e}"),
            ClientError::Status { code, body } => write!(f, "HTTP {code}: {body}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One HTTP/1.1 exchange with the server at `addr`: send `body` (empty for
/// none) and return the response's status code and body.
pub fn roundtrip(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes())?;
    read_response(stream)
}

/// Read one response from `stream`: the status line, the headers, and
/// exactly `Content-Length` body bytes.
pub fn read_response(stream: TcpStream) -> std::io::Result<(u16, String)> {
    use std::io::{Error, ErrorKind};
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let code = line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| Error::new(ErrorKind::InvalidData, format!("bad status line {line:?}")))?;
    let length = read_content_length(&mut reader)?;
    Ok((code, read_body(&mut reader, length)?))
}

/// `POST /jobs`: the new job's id, or the service's typed refusal.
pub fn submit(addr: SocketAddr, request: &JobRequest) -> Result<JobId, ClientError> {
    let (code, body) = roundtrip(addr, "POST", "/jobs", &request.to_json())?;
    match code {
        202 => Json::parse(&body)
            .ok()
            .and_then(|v| v.get("id").and_then(Json::as_u64))
            .ok_or_else(|| WireError::Malformed(format!("202 without a job id: {body}")).into()),
        429 | 422 | 503 => match SubmitError::from_json(&body) {
            Ok(e) => Err(ClientError::Refused(e)),
            // The front door's own `503 {"error": "busy"}`: the request
            // never reached the service.
            Err(_) if code == 503 => Err(ClientError::Status { code, body }),
            Err(e) => Err(e.into()),
        },
        code => Err(ClientError::Status { code, body }),
    }
}

/// One long-poll of `GET /jobs/<id>/wait`: the job's status once it is
/// terminal, or its current snapshot when the server's default wait lapses
/// first. Callers poll again while the state is not terminal.
///
/// The status code must agree with the decoded state — `200` for completed
/// or failed, `504` for expired, `408` for a live job — or the call is a
/// [`ClientError::Wire`].
pub fn wait(addr: SocketAddr, id: JobId) -> Result<JobStatus, ClientError> {
    let (mut status, outcome) = wait_reply(addr, id)?;
    status.telemetry = outcome.as_ref().map(Json::render);
    Ok(status)
}

/// One long-poll like [`wait`], with a completed job's outcome decoded
/// from the same parse of the body ([`SortOutcome::from_json_value`]), not
/// rendered back to telemetry text: `Ok` holds the outcome, `Err` the
/// status of a job that is still live (poll again) or ended otherwise.
pub fn wait_outcome(
    addr: SocketAddr,
    id: JobId,
) -> Result<Result<SortOutcome, JobStatus>, ClientError> {
    let (status, outcome) = wait_reply(addr, id)?;
    if status.state != JobState::Completed {
        return Ok(Err(status));
    }
    let outcome = outcome
        .ok_or_else(|| WireError::Malformed(format!("completed job {id} without an outcome")))?;
    Ok(Ok(SortOutcome::from_json_value(&outcome)?))
}

/// The `/wait` exchange behind [`wait`] and [`wait_outcome`]: the status
/// with its checked code, and the body's parsed `outcome` field.
fn wait_reply(addr: SocketAddr, id: JobId) -> Result<(JobStatus, Option<Json>), ClientError> {
    let (code, body) = roundtrip(addr, "GET", &format!("/jobs/{id}/wait"), "")?;
    if !matches!(code, 200 | 408 | 504) {
        return Err(ClientError::Status { code, body });
    }
    let (status, outcome) = JobStatus::decode(&body)?;
    let expected = match status.state {
        JobState::Completed | JobState::Failed => 200,
        JobState::Expired => 504,
        JobState::Queued | JobState::Running => 408,
    };
    if code != expected {
        return Err(WireError::Malformed(format!(
            "/wait answered {code} for a {} job",
            status.state.name()
        ))
        .into());
    }
    Ok((status, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::respond;
    use asym_core::sort::{self, Algorithm, CostEstimate, SortSpec};
    use asym_model::workload::Workload;
    use std::net::TcpListener;

    /// Job 3's status in `state`, without telemetry.
    fn status_in(state: JobState) -> JobStatus {
        JobStatus {
            id: 3,
            state,
            predicted: CostEstimate {
                reads: 1,
                writes: 1,
                peak_memory: 8,
                omega: 4,
            },
            attempts: 1,
            telemetry: None,
            error: None,
            failure: None,
        }
    }

    /// `call` against a one-shot server that answers `code` with `status`.
    fn answered<T>(code: u16, status: JobStatus, call: fn(SocketAddr, JobId) -> T) -> T {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            reader.read_line(&mut String::new()).expect("request line");
            read_content_length(&mut reader).expect("headers");
            respond(stream, code, "Test", &status.to_json());
        });
        let answer = call(addr, 3);
        server.join().expect("server");
        answer
    }

    /// `wait` against a one-shot server that answers `code` with a status
    /// in `state`.
    fn wait_answered(code: u16, state: JobState) -> Result<JobStatus, ClientError> {
        answered(code, status_in(state), wait)
    }

    #[test]
    fn wait_accepts_only_the_code_its_state_implies() {
        for (code, state) in [
            (200, JobState::Completed),
            (200, JobState::Failed),
            (504, JobState::Expired),
            (408, JobState::Queued),
            (408, JobState::Running),
        ] {
            let status = wait_answered(code, state).expect("contract holds");
            assert_eq!(status.state, state);
        }
        for (code, state) in [
            (408, JobState::Completed),
            (504, JobState::Completed),
            (200, JobState::Expired),
            (200, JobState::Running),
            (504, JobState::Queued),
        ] {
            assert!(
                matches!(wait_answered(code, state), Err(ClientError::Wire(_))),
                "{code} for {state:?} must be refused"
            );
        }
    }

    #[test]
    fn wait_outcome_decodes_a_completed_outcome_and_hands_back_other_statuses() {
        let spec = SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
            .k(2)
            .build()
            .expect("valid spec");
        let input = Workload::FewDistinct.generate(500, 9);
        let outcome = sort::run(&spec, &input).expect("sort");
        let completed = JobStatus {
            telemetry: Some(outcome.to_json(true)),
            ..status_in(JobState::Completed)
        };
        let decoded = answered(200, completed, wait_outcome).expect("contract holds");
        assert!(decoded == Ok(outcome), "the served outcome, decoded");

        for (code, state) in [(200, JobState::Failed), (408, JobState::Running)] {
            let answer = answered(code, status_in(state), wait_outcome).expect("contract holds");
            assert_eq!(answer, Err(status_in(state)));
        }
        // A completed status must carry its outcome.
        let bare = answered(200, status_in(JobState::Completed), wait_outcome);
        assert!(matches!(bare, Err(ClientError::Wire(_))), "{bare:?}");
    }
}
