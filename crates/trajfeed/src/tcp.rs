//! A TCP socket line source: newline-framed events over a live
//! connection, with torn-line accumulation and bounded-backoff
//! reconnection.
//!
//! The wire protocol is byte-identical to the on-disk logs — a version
//! line, then newline-framed records — so a producer can `nc -l` a file
//! or stream live appends and the consumer cannot tell the difference.
//! What the socket adds is *transport failure*: the peer can vanish
//! mid-line. Recovery mirrors the on-disk torn-tail story
//! ([`trajio::tail::TailVerdict`] semantics, diagnosed live): bytes
//! after the last newline are a torn tail, discarded and counted as a
//! torn recovery; an empty buffer is a clean recovery. After every
//! reconnect the source emits [`LineStep::Restart`] so the protocol
//! layer re-expects a fresh stream (version line first) — a restarted
//! producer replays from its own beginning, never from a byte offset.

use crate::line::{LineSource, LineStep};
use crate::FeedError;
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Transport knobs for a [`TcpLineSource`].
#[derive(Debug, Clone, Copy)]
pub struct TcpOptions {
    /// Read-timeout granularity: how often a blocked read rechecks the
    /// stop flag.
    pub poll: Duration,
    /// Connection attempts per (re)connection before giving up.
    pub connect_attempts: u32,
    /// First reconnect backoff; doubles per failed attempt.
    pub backoff_initial: Duration,
    /// Backoff ceiling (the "bounded" in bounded backoff).
    pub backoff_max: Duration,
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        TcpOptions {
            poll: Duration::from_millis(50),
            connect_attempts: 30,
            backoff_initial: Duration::from_millis(100),
            backoff_max: Duration::from_secs(2),
        }
    }
}

/// A line source over a TCP connection (see the module docs).
pub struct TcpLineSource {
    addr: String,
    opts: TcpOptions,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
    consumed: usize,
    ever_connected: bool,
    reconnects: u64,
    recovery_clean: u64,
    recovery_torn: u64,
}

impl TcpLineSource {
    /// Creates a source dialing `addr` (`host:port`). The first
    /// connection is established lazily on the first `next_line`.
    pub fn new(addr: impl Into<String>, opts: TcpOptions) -> TcpLineSource {
        TcpLineSource {
            addr: addr.into(),
            opts,
            conn: None,
            buf: Vec::new(),
            consumed: 0,
            ever_connected: false,
            reconnects: 0,
            recovery_clean: 0,
            recovery_torn: 0,
        }
    }

    /// The address this source dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn take_line(&mut self) -> Option<Result<String, FeedError>> {
        let nl = self.buf[self.consumed..].iter().position(|&b| b == b'\n')?;
        let line = &self.buf[self.consumed..self.consumed + nl];
        let out = match std::str::from_utf8(line) {
            Ok(s) => Ok(s.trim_end_matches('\r').to_string()),
            Err(_) => Err(FeedError::Protocol {
                line: 0,
                message: "socket line is not UTF-8".to_string(),
            }),
        };
        self.consumed += nl + 1;
        // Compact once the consumed prefix dominates, so a long-lived
        // connection does not grow the buffer without bound.
        if self.consumed > 4096 && self.consumed * 2 >= self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        Some(out)
    }

    /// Establishes a connection with bounded exponential backoff.
    /// `Ok(None)` when the stop flag ended the wait.
    fn establish(&self, stop: &AtomicBool) -> Result<Option<TcpStream>, FeedError> {
        let attempts = self.opts.connect_attempts.max(1);
        let mut backoff = self.opts.backoff_initial;
        let mut last = String::from("no attempt made");
        for attempt in 0..attempts {
            if stop.load(Ordering::SeqCst) {
                return Ok(None);
            }
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(self.opts.backoff_max);
                if stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            match TcpStream::connect(&self.addr) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(self.opts.poll.max(Duration::from_millis(1))))
                        .map_err(FeedError::Io)?;
                    return Ok(Some(stream));
                }
                Err(e) => last = e.to_string(),
            }
        }
        Err(FeedError::Connect {
            addr: self.addr.clone(),
            attempts,
            message: last,
        })
    }
}

impl LineSource for TcpLineSource {
    fn next_line(&mut self, stop: &AtomicBool) -> Result<LineStep, FeedError> {
        loop {
            if let Some(line) = self.take_line() {
                return line.map(LineStep::Line);
            }
            if stop.load(Ordering::SeqCst) {
                return Ok(LineStep::End);
            }
            if self.conn.is_none() {
                let Some(stream) = self.establish(stop)? else {
                    return Ok(LineStep::End);
                };
                self.conn = Some(stream);
                if self.ever_connected {
                    self.reconnects += 1;
                    if self.buf.len() > self.consumed {
                        // Bytes after the last newline: a torn tail, the
                        // live analogue of TailVerdict::TornTruncated.
                        self.recovery_torn += 1;
                    } else {
                        self.recovery_clean += 1;
                    }
                    self.buf.clear();
                    self.consumed = 0;
                    return Ok(LineStep::Restart);
                }
                self.ever_connected = true;
                continue;
            }
            let mut chunk = [0u8; 4096];
            let result = self
                .conn
                .as_mut()
                .expect("connection checked above")
                .read(&mut chunk);
            match result {
                // Remote closed. A producer that finished cleanly said
                // `# eof` first (the protocol layer stopped reading); a
                // close without it is a transport failure → reconnect.
                Ok(0) => self.conn = None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => self.conn = None,
            }
        }
    }

    fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn recovery_clean(&self) -> u64 {
        self.recovery_clean
    }

    fn recovery_torn(&self) -> u64 {
        self.recovery_torn
    }
}
