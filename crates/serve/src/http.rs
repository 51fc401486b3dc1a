//! Minimal HTTP/1.1 request parsing and response writing over
//! `std::io` streams.
//!
//! `mard` is std-only (the container has no registry access), so the
//! slice of HTTP it needs is implemented here: request line + headers +
//! `Content-Length` bodies in, status + headers + body out, one request
//! per connection (`Connection: close` on every response). Everything a
//! client can get wrong is a typed [`HttpError`] that maps onto a 4xx
//! status — a malformed request must never take a worker down or hang
//! it.

use std::io::{BufRead, BufReader, Read, Write};

/// Upper bound on the request line + headers, independent of the body
/// limit: nothing legitimate needs more, and an unbounded header read
/// would let a client wedge a worker.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, upper-cased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path component (before `?`), e.g. `/run`.
    pub path: String,
    /// Percent-decoded query pairs in request order; keys may repeat.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First query value for `key`, if any.
    pub fn query_first(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every query value for `key`, in order.
    pub fn query_all(&self, key: &str) -> Vec<&str> {
        self.query
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

/// A request that could not be read; each variant maps to one status.
#[derive(Debug)]
pub enum HttpError {
    /// Not parseable as HTTP/1.x (status 400).
    Malformed(String),
    /// A body was declared without a numeric `Content-Length` (400).
    LengthRequired,
    /// The declared body exceeds the server's limit (413).
    TooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Server limit.
        limit: usize,
    },
    /// The socket failed or timed out mid-request (connection dropped).
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(d) => write!(f, "malformed request: {d}"),
            HttpError::LengthRequired => write!(f, "missing or invalid Content-Length"),
            HttpError::TooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

/// Decodes `%XX` escapes and `+` (as space) in a query component.
/// Invalid escapes pass through literally rather than erroring: the
/// query grammar downstream rejects anything that matters.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
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
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a raw query string into decoded `(key, value)` pairs.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Reads one request from `stream`.
///
/// # Errors
/// Returns the typed [`HttpError`] for anything short of a complete,
/// in-limits request.
pub fn read_request<S: Read>(stream: S, max_body: usize) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut head = 0usize;
    let mut line = Vec::new();
    // Each line is read through what is left of the head budget (plus
    // one byte to detect overrun), so a client streaming a newline-free
    // head is cut off at the budget, not after it has sent everything.
    let mut read_line =
        |reader: &mut BufReader<S>, head: &mut usize| -> Result<String, HttpError> {
            line.clear();
            let budget = (MAX_HEAD_BYTES - *head + 1) as u64;
            let n = reader
                .by_ref()
                .take(budget)
                .read_until(b'\n', &mut line)
                .map_err(HttpError::Io)?;
            if n == 0 {
                return Err(HttpError::Malformed("connection closed mid-request".into()));
            }
            *head += n;
            if *head > MAX_HEAD_BYTES {
                return Err(HttpError::Malformed("request head too large".into()));
            }
            let text = std::str::from_utf8(&line)
                .map_err(|_| HttpError::Malformed("request head is not UTF-8".into()))?;
            Ok(text.trim_end_matches(['\r', '\n']).to_string())
        };

    let request_line = read_line(&mut reader, &mut head)?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("bad version `{version}`")));
    }
    if !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(HttpError::Malformed(format!("bad method `{method}`")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    let mut headers = Vec::new();
    loop {
        let h = read_line(&mut reader, &mut head)?;
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line `{h}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers.iter().find(|(n, _)| n == "content-length");
    let body = match content_length {
        None => {
            // A POST with no Content-Length cannot be framed (chunked
            // encoding is deliberately unsupported).
            if method == "POST" || method == "PUT" {
                return Err(HttpError::LengthRequired);
            }
            Vec::new()
        }
        Some((_, v)) => {
            let declared: usize = v.parse().map_err(|_| HttpError::LengthRequired)?;
            if declared > max_body {
                return Err(HttpError::TooLarge {
                    declared,
                    limit: max_body,
                });
            }
            let mut body = vec![0u8; declared];
            reader.read_exact(&mut body).map_err(HttpError::Io)?;
            body
        }
    };

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// Reason phrase for the handful of statuses `mard` emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete JSON response and flushes. Every response closes
/// the connection (`Connection: close`) — `mard` is one-shot per
/// connection by design.
///
/// # Errors
/// Returns the underlying I/O error (the connection is dropped anyway).
pub fn write_response<S: Write>(stream: S, status: u16, body: &str) -> std::io::Result<()> {
    write_response_ext(stream, status, "application/json", &[], body)
}

/// [`write_response`] with an explicit `Content-Type` and extra headers
/// (`/metrics` answers Prometheus text; every routed response carries
/// `X-Request-Id`).
///
/// # Errors
/// Returns the underlying I/O error (the connection is dropped anyway).
pub fn write_response_ext<S: Write>(
    mut stream: S,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("Connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(raw.as_bytes(), 1024)
    }

    #[test]
    fn parses_get_with_query() {
        let r = parse("GET /run?preset=M&param=n%3D4&x=a+b HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/run");
        assert_eq!(r.query_first("preset"), Some("M"));
        assert_eq!(r.query_first("param"), Some("n=4"));
        assert_eq!(r.query_first("x"), Some("a b"));
    }

    #[test]
    fn parses_post_body() {
        let r = parse("POST /run HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn post_without_length_is_typed() {
        assert!(matches!(
            parse("POST /run HTTP/1.1\r\n\r\n"),
            Err(HttpError::LengthRequired)
        ));
    }

    #[test]
    fn oversized_body_is_typed_before_reading() {
        match parse("POST /run HTTP/1.1\r\nContent-Length: 9999\r\n\r\n") {
            Err(HttpError::TooLarge { declared, limit }) => {
                assert_eq!(declared, 9999);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_malformed() {
        assert!(matches!(
            parse("GARBAGE\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x SPDY/9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            read_request(&b"GET /run\xff HTTP/1.1\r\n\r\n"[..], 1024),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn newline_free_head_is_cut_off_at_the_budget() {
        let flood = vec![b'a'; 1 << 20];
        // Reading through `&mut &[u8]` advances the slice past every
        // byte handed out.
        let mut rest = &flood[..];
        assert!(matches!(
            read_request(&mut rest, 1024),
            Err(HttpError::Malformed(_))
        ));
        // At most the head budget plus one buffer fill is consumed.
        let consumed = flood.len() - rest.len();
        assert!(
            consumed <= MAX_HEAD_BYTES + 8 * 1024,
            "consumed {consumed} bytes"
        );
    }

    #[test]
    fn repeated_query_keys_collect_in_order() {
        let r = parse("GET /b?lane=n%3D1&lane=n%3D2 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.query_all("lane"), vec!["n=1", "n=2"]);
    }
}
