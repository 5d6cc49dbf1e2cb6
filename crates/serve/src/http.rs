//! A minimal HTTP/1.1 layer over `std::net` — just enough for a local,
//! GET-only JSON API.
//!
//! Scope is deliberate: requests are read to the end of the header block
//! (GET has no body), the request line is split into method, path, and
//! query, and responses are written with `Connection: close` so one
//! connection carries exactly one exchange. No keep-alive, no chunked
//! encoding. Path segments are percent-decoded (a client that encodes
//! `/hosts/{name}` must still hit the record); a malformed escape makes
//! the whole request line unparseable, which the server answers with
//! 400. Query strings are passed through verbatim — the API's query
//! values (digest prefixes, labels, country codes) are plain ASCII.
//! The same-file [`get`] client exists so the self-check binary mode,
//! the integration tests, and the repository benchmark's serve workload
//! all speak to the daemon through one piece of code.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Cap on the request head, to bound memory against garbage input.
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// A parsed request line: `GET /countries/kr?snapshot=ab12 HTTP/1.1`
/// becomes method `GET`, path `/countries/kr`, query
/// `[("snapshot", "ab12")]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method verbatim (the router only answers `GET`).
    pub method: String,
    /// The path component, `?` excluded.
    pub path: String,
    /// Query parameters in order of appearance; keys without `=` get an
    /// empty value.
    pub query: Vec<(String, String)>,
}

impl Request {
    /// First value for a query key, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Read and parse one request head from `stream`. Headers are
    /// consumed and discarded (the API keys on the request line alone).
    pub fn read_from(stream: &mut TcpStream) -> std::io::Result<Request> {
        let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES));
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let request = Request::parse_request_line(line.trim_end()).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed request line: {line:?}"),
            )
        })?;
        // Drain headers up to the blank line.
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
                break;
            }
        }
        Ok(request)
    }

    /// Parse `"GET /path?query HTTP/1.1"`. The path has its `%xx`
    /// escapes decoded per segment; a malformed escape fails the parse
    /// (→ 400 at the server).
    pub fn parse_request_line(line: &str) -> Option<Request> {
        let mut parts = line.split(' ');
        let method = parts.next()?.to_owned();
        let target = parts.next()?;
        let version = parts.next()?;
        if !version.starts_with("HTTP/1.") || parts.next().is_some() || !target.starts_with('/') {
            return None;
        }
        let (path, query_str) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let path = path
            .split('/')
            .map(percent_decode)
            .collect::<Option<Vec<String>>>()?
            .join("/");
        let query = query_str
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| match kv.split_once('=') {
                Some((k, v)) => (k.to_owned(), v.to_owned()),
                None => (kv.to_owned(), String::new()),
            })
            .collect();
        Some(Request {
            method,
            path,
            query,
        })
    }
}

/// Decode `%xx` escapes in one path segment. `None` on a malformed
/// escape (truncated, or non-hex digits) or if the decoded bytes are
/// not UTF-8. An encoded `/` (`%2F`) decodes into the segment's text —
/// which then simply fails the hostname lookup — it can never splice
/// new segments into the route.
fn percent_decode(segment: &str) -> Option<String> {
    if !segment.contains('%') {
        return Some(segment.to_owned());
    }
    let raw = segment.as_bytes();
    let mut out = Vec::with_capacity(raw.len());
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == b'%' {
            let hex = raw.get(i + 1..i + 3)?;
            let hi = (hex[0] as char).to_digit(16)?;
            let lo = (hex[1] as char).to_digit(16)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(raw[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// A response ready to write: status code plus JSON body. Every endpoint
/// returns JSON (errors included), so the content type is fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (200, 400, 404, 500).
    pub status: u16,
    /// The JSON body.
    pub body: String,
}

impl Response {
    /// A 200 with the given body.
    pub fn ok(body: String) -> Response {
        Response { status: 200, body }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            _ => "Internal Server Error",
        }
    }

    /// Serialize head + body onto `out` (one exchange per connection).
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.body.len()
        )?;
        out.write_all(self.body.as_bytes())?;
        out.flush()
    }
}

/// Issue one GET and return `(status, body)`. The shared client for the
/// self-check mode, integration tests, CI smoke, and the benchmark.
pub fn get(addr: impl ToSocketAddrs, path_and_query: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path_and_query} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed status line: {status_line:?}"),
            )
        })?;
    let mut content_length = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse::<usize>().ok();
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        }
        None => {
            reader.read_to_end(&mut body)?;
        }
    }
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_lines() {
        let r = Request::parse_request_line("GET /hosts/www.gov.uk HTTP/1.1").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/hosts/www.gov.uk");
        assert!(r.query.is_empty());

        let r = Request::parse_request_line("GET /diff?from=ab&to=cd&x HTTP/1.1").unwrap();
        assert_eq!(r.path, "/diff");
        assert_eq!(r.query_param("from"), Some("ab"));
        assert_eq!(r.query_param("to"), Some("cd"));
        assert_eq!(r.query_param("x"), Some(""));
        assert_eq!(r.query_param("missing"), None);
    }

    #[test]
    fn percent_decodes_path_segments() {
        let r = Request::parse_request_line("GET /hosts/www%2Egov%2Euk HTTP/1.1").unwrap();
        assert_eq!(r.path, "/hosts/www.gov.uk");
        // Hex digits in either case.
        let r = Request::parse_request_line("GET /hosts/caf%C3%A9.gouv.fr HTTP/1.1").unwrap();
        assert_eq!(r.path, "/hosts/café.gouv.fr");
        let r = Request::parse_request_line("GET /hosts/a%2fb HTTP/1.1").unwrap();
        assert_eq!(r.path, "/hosts/a/b", "encoded slash lands in the text");
        // Query strings are not decoded.
        let r = Request::parse_request_line("GET /table2?snapshot=a%62 HTTP/1.1").unwrap();
        assert_eq!(r.query_param("snapshot"), Some("a%62"));
    }

    #[test]
    fn rejects_malformed_percent_escapes() {
        for bad in [
            "GET /hosts/x%zz HTTP/1.1",   // non-hex digits
            "GET /hosts/x%2 HTTP/1.1",    // truncated escape
            "GET /hosts/x% HTTP/1.1",     // bare percent
            "GET /hosts/%ff%fe HTTP/1.1", // decodes to non-UTF-8
        ] {
            assert!(Request::parse_request_line(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for bad in [
            "",
            "GET",
            "GET /x",
            "GET x HTTP/1.1",
            "GET /x HTTP/2",
            "GET /x HTTP/1.1 extra",
        ] {
            assert!(Request::parse_request_line(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn response_head_is_well_formed() {
        let mut out = Vec::new();
        Response::ok("{}".to_owned()).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }
}
