//! A minimal keep-alive HTTP/1.1 client for one connection.
//!
//! Responses are read into a buffer allocated once; parsing the head
//! works on byte slices of it, so an exchange allocates nothing once the
//! buffer has grown to the largest page.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Where one response's parts sit in the connection buffer.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Status code.
    pub status: u16,
    /// Bytes of the status line and headers, blank line included.
    pub head_len: usize,
    /// Body bytes (`Content-Length`; 0 when absent, as on a 304).
    pub body_len: usize,
    /// The server announced `Connection: close`.
    pub close: bool,
    /// `(offset, length)` of the `ETag` value, quotes included.
    pub etag: Option<(usize, usize)>,
    /// `(offset, length)` of the `Location` value.
    pub location: Option<(usize, usize)>,
}

/// One client connection to one server port.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    chunk: Box<[u8]>,
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(1 << 20),
            chunk: vec![0u8; 1 << 16].into_boxed_slice(),
        }
    }

    /// Sends `req` and reads one whole response. If the previous answer
    /// closed the connection, the reconnect happens here, inside the
    /// caller's timing. Any transport error drops the connection.
    pub fn exchange(&mut self, req: &[u8]) -> Result<Answer, String> {
        let result = self.try_exchange(req);
        if !matches!(result, Ok(Answer { close: false, .. })) {
            self.stream = None;
        }
        result
    }

    fn try_exchange(&mut self, req: &[u8]) -> Result<Answer, String> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            self.stream = Some(s);
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err("no connection".to_string());
        };
        stream.write_all(req).map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        let mut head: Option<Answer> = None;
        loop {
            if let Some(a) = head {
                let total = a.head_len + a.body_len;
                if self.buf.len() == total {
                    return Ok(a);
                }
                if self.buf.len() > total {
                    return Err("bytes past the end of the response".to_string());
                }
            }
            let n = stream
                .read(&mut self.chunk)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".to_string());
            }
            self.buf.extend_from_slice(&self.chunk[..n]);
            if head.is_none() {
                if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                    head = Some(parse_head(&self.buf[..end + 4])?);
                }
            }
        }
    }

    /// The body of the last answer.
    pub fn body(&self, a: &Answer) -> &[u8] {
        &self.buf[a.head_len..a.head_len + a.body_len]
    }

    /// A header value of the last answer.
    pub fn slice(&self, (at, len): (usize, usize)) -> &[u8] {
        &self.buf[at..at + len]
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Parses a response head (status line through the blank line).
fn parse_head(head: &[u8]) -> Result<Answer, String> {
    let status = head
        .strip_prefix(b"HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| std::str::from_utf8(code).ok())
        .and_then(|code| code.parse().ok())
        .ok_or("bad status line")?;
    let mut a = Answer {
        status,
        head_len: head.len(),
        body_len: 0,
        close: false,
        etag: None,
        location: None,
    };
    let mut at = find(head, b"\r\n").ok_or("bad head")? + 2;
    while at + 2 < head.len() {
        let end = at + find(&head[at..], b"\r\n").ok_or("bad header")?;
        let line = &head[at..end];
        let colon = line.iter().position(|&b| b == b':').ok_or("bad header")?;
        let name = &line[..colon];
        let mut vstart = colon + 1;
        while line.get(vstart) == Some(&b' ') {
            vstart += 1;
        }
        let value = &line[vstart..];
        let span = (at + vstart, value.len());
        if name.eq_ignore_ascii_case(b"content-length") {
            a.body_len = std::str::from_utf8(value)
                .ok()
                .and_then(|v| v.parse().ok())
                .ok_or("bad Content-Length")?;
        } else if name.eq_ignore_ascii_case(b"connection") {
            a.close = value.eq_ignore_ascii_case(b"close");
        } else if name.eq_ignore_ascii_case(b"etag") {
            a.etag = Some(span);
        } else if name.eq_ignore_ascii_case(b"location") {
            a.location = Some(span);
        }
        at = end + 2;
    }
    Ok(a)
}
