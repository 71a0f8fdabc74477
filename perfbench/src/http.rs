//! A minimal keep-alive HTTP/1.1 client: one connection, one request in
//! flight, `Content-Length` framing (the only framing trajserve speaks).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long one request may take before it counts as timed out.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Client {
    addr: SocketAddr,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    fn connect(&mut self) -> std::io::Result<&mut (BufReader<TcpStream>, TcpStream)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, REQUEST_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
            let writer = stream.try_clone()?;
            self.conn = Some((BufReader::new(stream), writer));
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }

    /// Sends one request and reads the whole response: `(status, body)`.
    /// A transport error drops the connection; the next call reconnects.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, String)> {
        let result = self.roundtrip(method, path, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path, &[])
    }

    fn roundtrip(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, String)> {
        let (reader, writer) = self.connect()?;
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        writer.write_all(&req)?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&format!("malformed status line {line:?}")))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            let lower = header.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
            } else if lower.starts_with("connection:") && lower.contains("close") {
                close = true;
            }
        }
        let mut payload = vec![0u8; length];
        reader.read_exact(&mut payload)?;
        if close {
            self.conn = None;
        }
        String::from_utf8(payload)
            .map(|text| (status, text))
            .map_err(|_| bad("response body is not UTF-8"))
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}
