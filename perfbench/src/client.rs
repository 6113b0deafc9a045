//! A plain HTTP/1.1 keep-alive client.
//!
//! Each request goes out in one `write`; the response is read by its
//! `Content-Length`. No TCP options are set (no `TCP_NODELAY`, no
//! `TCP_QUICKACK`), so stalls the server's write pattern causes stay in the
//! measured round trip. Only read and write deadlines are set, so a hung
//! server turns into a counted timeout instead of a hung benchmark.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Deadline on each socket read and write.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// Bytes on the wire: status line, headers and body.
    pub wire_bytes: usize,
}

/// A client holding at most one keep-alive connection.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None }
    }

    /// `POST /query` with `statement` as the body.
    pub fn query(&mut self, statement: &str) -> io::Result<Response> {
        let raw = format!(
            "POST /query HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{statement}",
            statement.len()
        );
        self.send(raw.as_bytes())
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        let raw = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        self.send(raw.as_bytes())
    }

    /// Drop the connection (the server sees EOF and frees its worker).
    pub fn close(&mut self) {
        self.conn = None;
    }

    fn send(&mut self, raw: &[u8]) -> io::Result<Response> {
        let result = self.exchange(raw);
        if result.as_ref().map_or(true, |(_, close)| *close) {
            self.conn = None;
        }
        result.map(|(r, _)| r)
    }

    fn exchange(&mut self, raw: &[u8]) -> io::Result<(Response, bool)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        conn.get_mut().write_all(raw)?;
        let mut line = String::new();
        conn.read_line(&mut line)?;
        let mut wire_bytes = line.len();
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let (mut length, mut close) = (None, false);
        loop {
            line.clear();
            if conn.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            wire_bytes += line.len();
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no Content-Length"))?;
        let mut body = vec![0; length];
        conn.read_exact(&mut body)?;
        wire_bytes += length;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
        Ok((Response { status, body, wire_bytes }, close))
    }
}
