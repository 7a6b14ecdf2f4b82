//! The benchmark's side of the service boundary: a one-request-per-
//! connection HTTP client (the same framing `asym-kv`'s HTTP compactor
//! speaks) and the `audit.jsonl` meter.

use asym_serve::AuditEvent;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;

/// One HTTP exchange: status code, response body, and the body bytes that
/// crossed the wire in both directions.
pub struct Reply {
    pub code: u16,
    pub body: String,
    pub wire_bytes: usize,
}

pub fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut writer = stream.try_clone().map_err(io)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    writer.write_all(request.as_bytes()).map_err(io)?;
    writer.flush().map_err(io)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(io)?;
    let code: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line {line:?}"))?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).map_err(io)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().map_err(|e| format!("content length: {e}"))?;
        }
    }
    let mut buf = vec![0u8; content_length];
    reader.read_exact(&mut buf).map_err(io)?;
    let body_out = String::from_utf8(buf).map_err(|e| format!("{method} {path}: {e}"))?;
    Ok(Reply {
        code,
        wire_bytes: body.len() + body_out.len(),
        body: body_out,
    })
}

/// What one service root's `audit.jsonl` holds, by event kind.
#[derive(Default)]
pub struct Wal {
    pub bytes: u64,
    pub lines: u64,
    pub accepted_bytes: u64,
    pub completed_bytes: u64,
    pub checkpointed_bytes: u64,
    /// Inline-input requests of the `accepted` events, in log order.
    pub requests: Vec<asym_serve::JobRequest>,
}

/// Meter a service root's audit log: total bytes and lines always; with
/// `decode`, also every line through [`AuditEvent::from_json`] (any
/// undecodable line, failure or retry is an error) for the per-event byte
/// counts and the logged requests.
pub fn read_wal(root: &Path, decode: bool) -> Result<Wal, String> {
    let text = std::fs::read_to_string(root.join("audit.jsonl"))
        .map_err(|e| format!("read audit log: {e}"))?;
    let mut wal = Wal {
        bytes: text.len() as u64,
        lines: text.lines().count() as u64,
        ..Wal::default()
    };
    if !decode {
        return Ok(wal);
    }
    for line in text.lines() {
        let n = line.len() as u64 + 1;
        match AuditEvent::from_json(line).map_err(|e| format!("audit line: {e}"))? {
            AuditEvent::Accepted { request, .. } => {
                wal.accepted_bytes += n;
                wal.requests.push(request);
            }
            AuditEvent::Completed { .. } => wal.completed_bytes += n,
            AuditEvent::Checkpointed { .. } => wal.checkpointed_bytes += n,
            AuditEvent::Failed { id, error, .. } => {
                return Err(format!("job {id} failed: {error}"))
            }
            AuditEvent::Retried { id, error, .. } => {
                return Err(format!("job {id} retried: {error}"))
            }
            _ => {}
        }
    }
    Ok(wal)
}
