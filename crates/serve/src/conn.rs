//! The transport seam: byte-stream connections the server can serve.
//!
//! The server core never touches a socket. It speaks to a
//! [`Connection`] — read some bytes, write some bytes — and everything
//! above that line is pure, deterministic computation on the virtual
//! clock. Tests drive the server through [`ScriptedConn`]s (in-process,
//! byte-identical across runs, able to replay adversarial framings like
//! byte-at-a-time delivery or mid-request hangups); the real-TCP
//! adapter in `examples/serve_tcp.rs` implements the same trait over
//! `TcpStream` in a couple of lines. This is the same
//! deterministic-core / IO-edge split the storage engine draws with its
//! `Vfs` trait.

use std::collections::VecDeque;
use std::fmt;

/// Transport-level failures. Deliberately coarse: the server reacts to
/// every one of them the same way — stop serving this connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnError {
    /// The peer vanished mid-read or mid-write (RST, broken pipe, or a
    /// scripted premature close).
    Reset,
}

impl fmt::Display for ConnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnError::Reset => write!(f, "connection reset"),
        }
    }
}

impl std::error::Error for ConnError {}

/// A bidirectional byte stream, as the server sees it.
pub trait Connection {
    /// Reads up to `buf.len()` bytes. `Ok(0)` means orderly end of
    /// stream (the peer finished sending).
    fn read(&mut self, buf: &mut [u8]) -> Result<usize, ConnError>;

    /// Writes all of `bytes` or fails.
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), ConnError>;
}

/// A deterministic in-process connection: the client side is a script
/// of input chunks prepared up front; everything the server writes is
/// captured for inspection.
///
/// The chunking *is* the test surface — `[b"GET /", b" HTTP/1.1..."]`
/// exercises exactly the partial-read path a slow real client would,
/// and [`ScriptedConn::byte_at_a_time`] is the worst case.
#[derive(Debug, Default)]
pub struct ScriptedConn {
    chunks: VecDeque<Vec<u8>>,
    /// After draining `chunks`: `false` = orderly EOF, `true` = reset.
    reset_at_end: bool,
    out: Vec<u8>,
    refused_writes: bool,
}

impl ScriptedConn {
    /// A connection that sends `bytes` in one chunk, then closes.
    pub fn new(bytes: impl Into<Vec<u8>>) -> ScriptedConn {
        ScriptedConn::chunked(vec![bytes.into()])
    }

    /// A connection delivering the given chunks in order, then EOF.
    pub fn chunked(chunks: Vec<Vec<u8>>) -> ScriptedConn {
        ScriptedConn {
            chunks: chunks.into_iter().filter(|c| !c.is_empty()).collect(),
            reset_at_end: false,
            out: Vec::new(),
            refused_writes: false,
        }
    }

    /// The slowest possible client: every byte arrives alone.
    pub fn byte_at_a_time(bytes: &[u8]) -> ScriptedConn {
        ScriptedConn::chunked(bytes.iter().map(|&b| vec![b]).collect())
    }

    /// After the scripted chunks, the connection *resets* instead of
    /// closing cleanly, and any later server write fails — a client
    /// that hung up mid-exchange.
    pub fn then_reset(mut self) -> ScriptedConn {
        self.reset_at_end = true;
        self
    }

    /// Everything the server has written so far.
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    /// The captured output as text (responses here are ASCII).
    pub fn output_text(&self) -> String {
        String::from_utf8_lossy(&self.out).into_owned()
    }
}

impl Connection for ScriptedConn {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize, ConnError> {
        let Some(front) = self.chunks.front_mut() else {
            if self.reset_at_end {
                self.refused_writes = true;
                return Err(ConnError::Reset);
            }
            return Ok(0);
        };
        let n = front.len().min(buf.len());
        buf[..n].copy_from_slice(&front[..n]);
        if n == front.len() {
            self.chunks.pop_front();
        } else {
            front.drain(..n);
        }
        Ok(n)
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), ConnError> {
        if self.refused_writes {
            return Err(ConnError::Reset);
        }
        self.out.extend_from_slice(bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_reads_respect_chunking() {
        let mut c = ScriptedConn::chunked(vec![b"abc".to_vec(), b"de".to_vec()]);
        let mut buf = [0u8; 2];
        assert_eq!(c.read(&mut buf), Ok(2));
        assert_eq!(&buf, b"ab");
        assert_eq!(c.read(&mut buf), Ok(1));
        assert_eq!(&buf[..1], b"c");
        assert_eq!(c.read(&mut buf), Ok(2));
        assert_eq!(&buf, b"de");
        assert_eq!(c.read(&mut buf), Ok(0), "orderly EOF");
    }

    #[test]
    fn byte_at_a_time_is_one_byte_per_read() {
        let mut c = ScriptedConn::byte_at_a_time(b"xy");
        let mut buf = [0u8; 8];
        assert_eq!(c.read(&mut buf), Ok(1));
        assert_eq!(c.read(&mut buf), Ok(1));
        assert_eq!(c.read(&mut buf), Ok(0));
    }

    #[test]
    fn reset_fails_reads_and_writes() {
        let mut c = ScriptedConn::new(b"x".to_vec()).then_reset();
        let mut buf = [0u8; 8];
        assert_eq!(c.read(&mut buf), Ok(1));
        assert_eq!(c.read(&mut buf), Err(ConnError::Reset));
        assert_eq!(c.write_all(b"late"), Err(ConnError::Reset));
    }

    #[test]
    fn writes_accumulate() {
        let mut c = ScriptedConn::new(Vec::new());
        c.write_all(b"one").unwrap();
        c.write_all(b"two").unwrap();
        assert_eq!(c.output(), b"onetwo");
        assert_eq!(c.output_text(), "onetwo");
    }
}
