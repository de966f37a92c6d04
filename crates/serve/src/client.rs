//! Minimal blocking HTTP client for the job API — the other half of
//! [`crate::http`]. Used by the CLI `loadgen` mode, the bench harness,
//! and the integration tests. Keep-alive with transparent one-shot
//! reconnect, because the server drops idle connections at its read
//! timeout.

use sk_obs::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// Parse the body as JSON (the API always replies JSON).
    pub fn json(&self) -> Result<Json, String> {
        json::parse(&self.body).map_err(|e| e.to_string())
    }
}

/// A keep-alive connection to one server.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    timeout: Duration,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None, timeout: Duration::from_secs(30) }
    }

    fn connect(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            // Small request/response pairs; Nagle + delayed ACK would
            // add ~40ms per round trip on loopback.
            let _ = stream.set_nodelay(true);
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().unwrap())
    }

    /// Send one request; on a dead keep-alive connection, reconnect and
    /// retry once.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<Response> {
        match self.try_request(method, path, headers, body) {
            Ok(r) => Ok(r),
            Err(_) => {
                self.conn = None;
                self.try_request(method, path, headers, body)
            }
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<Response> {
        let conn = self.connect()?;
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: sk-serve\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (k, v) in headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str("\r\n");
        let stream = conn.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        let resp = read_response(conn);
        if resp.is_err() {
            self.conn = None;
        }
        resp
    }

    /// `POST /jobs`; returns the response (202/400/429) undigested.
    pub fn post_job(&mut self, body: &str, tenant: &str) -> std::io::Result<Response> {
        self.request("POST", "/jobs", &[("X-Tenant", tenant)], body.as_bytes())
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, &[], b"")
    }

    pub fn cancel_job(&mut self, id: u64) -> std::io::Result<Response> {
        self.request("DELETE", &format!("/jobs/{id}"), &[], b"")
    }

    /// Wait for the job's terminal status document: long-poll
    /// `GET /jobs/<id>?wait_ms=`, which the server answers the moment the
    /// job is terminal (or at the server's wait cap), until `deadline` has
    /// passed. A non-200 answer (no such job) is an error at once.
    pub fn wait_job(&mut self, id: u64, deadline: Duration) -> std::io::Result<Json> {
        let start = std::time::Instant::now();
        loop {
            let left = deadline.saturating_sub(start.elapsed()).as_millis() as u64;
            let resp = self.get(&format!("/jobs/{id}?wait_ms={left}"))?;
            if resp.status != 200 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("job {id}: status {}: {}", resp.status, resp.body),
                ));
            }
            let doc = resp.json().map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, format!("job {id}: {e}"))
            })?;
            if let Some("done" | "failed" | "cancelled") = doc.get("state").and_then(Json::as_str) {
                return Ok(doc);
            }
            if left == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("job {id} did not finish within {deadline:?}"),
                ));
            }
        }
    }
}

fn read_response(r: &mut BufReader<TcpStream>) -> std::io::Result<Response> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(bad("connection closed"));
    }
    let status = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("eof in response headers"));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((k, v)) = trimmed.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let len = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("non-utf8 body"))?;
    Ok(Response { status, headers, body })
}
