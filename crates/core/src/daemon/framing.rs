//! HTTP/1.1 framing: the [`Request`] and [`Response`] types, reading a
//! request under the head and body limits (the 431 / 413 / 400 answers
//! are decided before the engine sees anything), writing an answer, the
//! serve loop with its drain, and the built-in client.

use std::io::{sink, BufRead, BufReader, Read, Take, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use netobs::json::quote;

use super::handle;
use crate::engine::CoverageEngine;

/// A parsed HTTP request: method, path, decoded query pairs, body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The path without the query string.
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
    /// The request body (empty when absent).
    pub body: String,
}

impl Request {
    /// Build a request from a method, a target (`/path?k=v`), and a body.
    pub fn new(method: &str, target: &str, body: &str) -> Request {
        let (path, qs) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let query = qs
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| match kv.split_once('=') {
                Some((k, v)) => (percent_decode(k), percent_decode(v)),
                None => (percent_decode(kv), String::new()),
            })
            .collect();
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query,
            body: body.to_string(),
        }
    }

    /// First value of query parameter `name`.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// An HTTP response: status code plus a JSON body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
}

impl Response {
    pub(super) fn ok(body: String) -> Response {
        Response { status: 200, body }
    }

    pub(super) fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            body: format!("{{\"error\":{}}}", quote(message)),
        }
    }
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 3 <= bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

// ----- wire framing -------------------------------------------------------

/// Largest request body [`read_request`] accepts. The largest legitimate
/// body is one exported trace in a `test-add` delta — 1.2 MB for the
/// whole §8 suite as one test on a k=16 fat-tree — so 8 MiB leaves room,
/// and is small enough that a hostile `Content-Length` cannot make the
/// daemon allocate its way to an abort.
pub(super) const MAX_BODY_BYTES: usize = 8 << 20;

/// Largest request line plus header block [`read_request`] reads. Every
/// request the built-in client sends has a head of a few hundred bytes;
/// without a bound, a request line that never ends grows one `String`
/// until the allocator aborts the daemon.
pub(super) const MAX_HEAD_BYTES: u64 = 64 << 10;

/// Read one HTTP/1.1 request from a stream (request line, headers,
/// `Content-Length` body).
///
/// The inner `Err` is a framing rejection to send back as is — `431` for
/// a request line and headers longer than 64 KiB together, `400` for a
/// head line that is not UTF-8 or a `Content-Length` that is not a
/// number, `413` for one above the 8 MiB body cap — decided before any
/// body byte is read or allocated for, and without involving the engine.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Result<Request, Response>> {
    let mut reader = BufReader::new(stream);
    let mut head = (&mut reader).take(MAX_HEAD_BYTES);
    let line = match head_line(&mut head)? {
        Ok(line) => line,
        Err(rejection) => return Ok(Err(rejection)),
    };
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("/").to_string();
    let mut content_len = 0usize;
    loop {
        let header = match head_line(&mut head)? {
            Ok(header) => header,
            Err(rejection) => return Ok(Err(rejection)),
        };
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_len = match value.trim().parse::<u64>() {
                    Ok(n) if n <= MAX_BODY_BYTES as u64 => n as usize,
                    Ok(_) => return Ok(Err(Response::error(413, "request body too large"))),
                    Err(_) => return Ok(Err(Response::error(400, "unparsable Content-Length"))),
                };
            }
        }
    }
    let mut body = vec![0u8; content_len];
    reader.read_exact(&mut body)?;
    Ok(Ok(Request::new(
        &method,
        &target,
        &String::from_utf8_lossy(&body),
    )))
}

/// One line of a request head, read as bytes (empty at the end of the
/// stream), or its rejection: `431` for a line cut short by the head
/// bound rather than by the peer hanging up, `400` for one that is not
/// UTF-8.
fn head_line(head: &mut Take<impl BufRead>) -> std::io::Result<Result<String, Response>> {
    let mut line = Vec::new();
    head.read_until(b'\n', &mut line)?;
    if !line.ends_with(b"\n") && head.limit() == 0 {
        return Ok(Err(Response::error(431, "request head too large")));
    }
    Ok(String::from_utf8(line).map_err(|_| Response::error(400, "request head is not UTF-8")))
}

/// Write a [`Response`] as an HTTP/1.1 message.
pub fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let reason = match resp.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        resp.status,
        reason,
        resp.body.len(),
        resp.body
    )?;
    stream.flush()
}

/// How long [`serve`] waits on one connection for the next bytes of a
/// request, and for the peer to take the next bytes of the answer. The
/// loop is single-threaded, so a client that connects and goes quiet
/// would otherwise hold every other client off for good; the slowest
/// legitimate request is a loopback `test-add` body, which arrives in
/// milliseconds.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Serve requests until a `POST /shutdown` arrives (which is answered
/// before the loop exits). One request per connection, handled on the
/// accepting thread. A connection that stays silent for five seconds
/// before its request is complete is dropped, and the engine never sees
/// it.
pub fn serve(engine: &mut CoverageEngine, listener: TcpListener) -> std::io::Result<()> {
    serve_with_timeout(engine, listener, IO_TIMEOUT)
}

pub(super) fn serve_with_timeout(
    engine: &mut CoverageEngine,
    listener: TcpListener,
    io_timeout: Duration,
) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if stream.set_read_timeout(Some(io_timeout)).is_err()
            || stream.set_write_timeout(Some(io_timeout)).is_err()
        {
            continue;
        }
        let req = match read_request(&mut stream) {
            Ok(Ok(r)) => r,
            Ok(Err(rejection)) => {
                let _ = write_response(&mut stream, &rejection);
                // Closing with input unread resets the connection, which
                // can destroy the answer before the client reads it: end
                // the answer, then drop what the client sends (at most one
                // more head's worth) until it hangs up or goes quiet.
                let _ = stream.shutdown(Shutdown::Write);
                let _ = std::io::copy(&mut (&mut stream).take(MAX_HEAD_BYTES), &mut sink());
                continue;
            }
            // Timed out or hung up mid-request: nothing reaches the engine.
            Err(_) => continue,
        };
        let shutdown = req.method == "POST" && req.path == "/shutdown";
        let resp = handle(engine, &req);
        let _ = write_response(&mut stream, &resp);
        if shutdown {
            return Ok(());
        }
    }
    Ok(())
}

// ----- built-in client ----------------------------------------------------

/// One HTTP round trip; returns `(status, body)`. The daemon's own
/// client, so scripts and CI never need `curl`.
pub fn http_request(
    addr: &str,
    method: &str,
    target: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// `GET` against a running daemon.
pub fn http_get(addr: &str, target: &str) -> std::io::Result<(u16, String)> {
    http_request(addr, "GET", target, "")
}

/// `POST` against a running daemon.
pub fn http_post(addr: &str, target: &str, body: &str) -> std::io::Result<(u16, String)> {
    http_request(addr, "POST", target, body)
}
