//! The checksummed record framing shared by the WAL and segment files.
//!
//! Every durable record — a stored archive, a check-in or a tombstone —
//! is one frame:
//!
//! ```text
//! +------+----+---------+----------+-----------+-----------+---------+
//! | 0xA5 | op | key_len | data_len | key bytes | data ...  |  crc64  |
//! | 1 B  | 1B | u32 LE  | u32 LE   | key_len B | data_len B| u64 LE  |
//! +------+----+---------+----------+-----------+-----------+---------+
//! ```
//!
//! The ops and their data:
//!
//! - *store* (`op = 1`): a 4-byte little-endian revision count, then
//!   the archive's `,v` serialization (the count lets recovery account
//!   stats without parsing every archive body).
//! - *tombstone* (`op = 2`): no data.
//! - *check-in* (`op = 3`): one revision added to the key's archive —
//!   see [`CheckinFrame`] for the layout. Replayed in order onto the
//!   key's newest store record, skipped if that record already holds
//!   its revision (DESIGN.md §4i).
//!
//! The trailing checksum is FNV-1a over everything between the magic
//! byte and the checksum itself, so a torn append — the only in-file
//! damage a crashed append-only writer can produce — is detected at the
//! exact frame where the tear begins, and recovery truncates from there
//! (the prefix-consistency invariant, DESIGN.md §4i).

use aide_rcs::archive::RevisionMeta;
use aide_util::checksum::fnv1a64;

/// Frame magic byte: catches scans that drift off frame boundaries.
pub const MAGIC: u8 = 0xA5;
/// Op code: the frame's data is an archive record.
pub const OP_STORE: u8 = 1;
/// Op code: the key was removed; the frame masks any older record.
pub const OP_REMOVE: u8 = 2;
/// Op code: one check-in on top of the key's newest record.
pub const OP_CHECKIN: u8 = 3;

/// Fixed bytes before the key: magic, op, key_len, data_len.
pub const HEADER_LEN: usize = 1 + 1 + 4 + 4;
/// Fixed bytes after the data: the FNV-1a checksum.
pub const TRAILER_LEN: usize = 8;

/// Sanity cap on key length: no URL is this long; a larger value in a
/// header means we are reading garbage.
const MAX_KEY_LEN: u32 = 1 << 20;
/// Sanity cap on record payloads (256 MiB per archive).
const MAX_DATA_LEN: u32 = 1 << 28;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// [`OP_STORE`], [`OP_REMOVE`] or [`OP_CHECKIN`].
    pub op: u8,
    /// The repository key.
    pub key: String,
    /// Payload (see the module docs).
    pub data: Vec<u8>,
    /// Total encoded length of this frame in bytes.
    pub len: usize,
}

/// Why a frame failed to decode. Any variant at offset `o` of a file
/// means bytes `o..` are a torn tail (or corruption) — nothing beyond
/// the failure point can be trusted, because lengths come from the
/// frame itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a complete frame.
    Truncated,
    /// First byte is not [`MAGIC`].
    BadMagic,
    /// Unknown op code.
    BadOp,
    /// A length field exceeds its sanity cap.
    BadLength,
    /// The checksum does not match the bytes.
    BadCrc,
    /// The key bytes are not UTF-8.
    BadKey,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FrameError::Truncated => "truncated frame",
            FrameError::BadMagic => "bad frame magic",
            FrameError::BadOp => "bad frame op",
            FrameError::BadLength => "frame length exceeds sanity cap",
            FrameError::BadCrc => "frame checksum mismatch",
            FrameError::BadKey => "frame key is not UTF-8",
        };
        f.write_str(s)
    }
}

/// Encodes one frame.
pub fn encode(op: u8, key: &str, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + key.len() + data.len() + TRAILER_LEN);
    out.push(MAGIC);
    out.push(op);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(data);
    let crc = fnv1a64(&out[1..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Total encoded size of a frame for `key` with `data_len` payload bytes.
pub fn encoded_len(key: &str, data_len: usize) -> usize {
    HEADER_LEN + key.len() + data_len + TRAILER_LEN
}

fn read_u32(buf: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[off..off + 4]);
    u32::from_le_bytes(b)
}

/// Decodes the frame starting at the beginning of `buf`.
pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
    if buf.len() < HEADER_LEN + TRAILER_LEN {
        return Err(FrameError::Truncated);
    }
    if buf[0] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let op = buf[1];
    if !(OP_STORE..=OP_CHECKIN).contains(&op) {
        return Err(FrameError::BadOp);
    }
    let key_len = read_u32(buf, 2);
    let data_len = read_u32(buf, 6);
    if key_len > MAX_KEY_LEN || data_len > MAX_DATA_LEN {
        return Err(FrameError::BadLength);
    }
    let total = HEADER_LEN + key_len as usize + data_len as usize + TRAILER_LEN;
    if buf.len() < total {
        return Err(FrameError::Truncated);
    }
    let crc_off = total - TRAILER_LEN;
    let mut crc_bytes = [0u8; 8];
    crc_bytes.copy_from_slice(&buf[crc_off..total]);
    if fnv1a64(&buf[1..crc_off]) != u64::from_le_bytes(crc_bytes) {
        return Err(FrameError::BadCrc);
    }
    let key = std::str::from_utf8(&buf[HEADER_LEN..HEADER_LEN + key_len as usize])
        .map_err(|_| FrameError::BadKey)?
        .to_string();
    let data = buf[HEADER_LEN + key_len as usize..crc_off].to_vec();
    Ok(Frame {
        op,
        key,
        data,
        len: total,
    })
}

/// Iterates the frames of a whole file image, yielding each frame with
/// its byte offset; stops at the first undecodable byte and reports the
/// clean prefix length (`== buf.len()` when the file is whole).
pub fn scan(buf: &[u8]) -> (Vec<(u64, Frame)>, usize, Option<FrameError>) {
    let mut frames = Vec::new();
    let mut off = 0usize;
    while off < buf.len() {
        match decode(&buf[off..]) {
            Ok(f) => {
                let len = f.len;
                frames.push((off as u64, f));
                off += len;
            }
            Err(e) => return (frames, off, Some(e)),
        }
    }
    (frames, off, None)
}

/// Builds the payload of a store frame: revision count + `,v` text.
pub fn store_payload(revisions: u32, emitted: &str) -> Vec<u8> {
    let mut data = Vec::with_capacity(4 + emitted.len());
    data.extend_from_slice(&revisions.to_le_bytes());
    data.extend_from_slice(emitted.as_bytes());
    data
}

/// Splits a store frame's payload back into (revisions, `,v` text).
pub fn split_payload(data: &[u8]) -> Result<(u32, &str), FrameError> {
    if data.len() < 4 {
        return Err(FrameError::Truncated);
    }
    let revisions = read_u32(data, 0);
    let text = std::str::from_utf8(&data[4..]).map_err(|_| FrameError::BadKey)?;
    Ok((revisions, text))
}

/// A decoded check-in frame payload: the revision one check-in added.
///
/// ```text
/// u32 revision | u32 base_emit_len | u32 emit_len | u64 date
/// u32 len + author | u32 len + log | u32 len + reverse delta | head text
/// ```
///
/// Integers are little-endian; the reverse delta is in RCS `diff -n`
/// text and recovers the previous head from `head_text`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckinFrame<'a> {
    /// The new head's metadata (`text_len` is `head_text.len()`).
    pub meta: RevisionMeta,
    /// `,v` length of the archive the check-in was made from: a load
    /// replays the frame only onto an archive of this length (and of
    /// `meta.id - 1` revisions), else reports the key corrupt.
    pub base_emit_len: u32,
    /// `,v` length after the check-in.
    pub emit_len: u32,
    /// The reverse delta, in RCS text.
    pub delta: &'a str,
    /// The new head's full text.
    pub head_text: &'a str,
}

/// Builds the payload of a check-in frame.
pub fn checkin_payload(
    base_emit_len: u32,
    emit_len: u32,
    meta: &RevisionMeta,
    delta: &str,
    head_text: &str,
) -> Vec<u8> {
    let mut data =
        Vec::with_capacity(32 + meta.author.len() + meta.log.len() + delta.len() + head_text.len());
    data.extend_from_slice(&meta.id.0.to_le_bytes());
    data.extend_from_slice(&base_emit_len.to_le_bytes());
    data.extend_from_slice(&emit_len.to_le_bytes());
    data.extend_from_slice(&meta.date.0.to_le_bytes());
    for field in [meta.author.as_str(), meta.log.as_str(), delta] {
        data.extend_from_slice(&(field.len() as u32).to_le_bytes());
        data.extend_from_slice(field.as_bytes());
    }
    data.extend_from_slice(head_text.as_bytes());
    data
}

/// Splits a check-in frame's payload.
pub fn split_checkin(data: &[u8]) -> Result<CheckinFrame<'_>, FrameError> {
    let text = |bytes| std::str::from_utf8(bytes).map_err(|_| FrameError::BadKey);
    if data.len() < 20 {
        return Err(FrameError::Truncated);
    }
    let mut date = [0u8; 8];
    date.copy_from_slice(&data[12..20]);
    let mut rest = &data[20..];
    let mut fields = [""; 3];
    for field in &mut fields {
        if rest.len() < 4 {
            return Err(FrameError::Truncated);
        }
        let len = read_u32(rest, 0) as usize;
        let body = rest.get(4..4 + len).ok_or(FrameError::Truncated)?;
        *field = text(body)?;
        rest = &rest[4 + len..];
    }
    let head_text = text(rest)?;
    let [author, log, delta] = fields;
    Ok(CheckinFrame {
        meta: RevisionMeta {
            id: aide_rcs::archive::RevId(read_u32(data, 0)),
            date: aide_util::time::Timestamp(u64::from_le_bytes(date)),
            author: author.to_string(),
            log: log.to_string(),
            text_len: head_text.len(),
        },
        base_emit_len: read_u32(data, 4),
        emit_len: read_u32(data, 8),
        delta,
        head_text,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_store_and_tombstone() {
        let payload = store_payload(3, "head 1.3\ntext\n");
        let buf = encode(OP_STORE, "http://h/p", &payload);
        let f = decode(&buf).unwrap();
        assert_eq!(f.op, OP_STORE);
        assert_eq!(f.key, "http://h/p");
        assert_eq!(f.len, buf.len());
        assert_eq!(f.len, encoded_len("http://h/p", payload.len()));
        let (revs, text) = split_payload(&f.data).unwrap();
        assert_eq!(revs, 3);
        assert_eq!(text, "head 1.3\ntext\n");

        let t = decode(&encode(OP_REMOVE, "k", &[])).unwrap();
        assert_eq!(t.op, OP_REMOVE);
        assert!(t.data.is_empty());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let buf = encode(OP_STORE, "key", &store_payload(1, "body\n"));
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(
                decode(&bad).is_err(),
                "flip at byte {i} must not decode cleanly"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let buf = encode(OP_STORE, "key", &store_payload(1, "body\n"));
        for keep in 0..buf.len() {
            assert!(decode(&buf[..keep]).is_err(), "prefix {keep} decoded");
        }
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let mut buf = encode(OP_STORE, "a", &store_payload(1, "x\n"));
        let first = buf.len();
        buf.extend_from_slice(&encode(OP_REMOVE, "b", &[]));
        let whole = buf.len();
        let (frames, clean, err) = scan(&buf);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].0, first as u64);
        assert_eq!(clean, whole);
        assert!(err.is_none());

        // Tear the second frame: scan keeps the first, reports the tear.
        let torn = &buf[..whole - 3];
        let (frames, clean, err) = scan(torn);
        assert_eq!(frames.len(), 1);
        assert_eq!(clean, first);
        assert_eq!(err, Some(FrameError::Truncated));
    }

    #[test]
    fn checkin_payloads_roundtrip() {
        let meta = RevisionMeta {
            id: aide_rcs::archive::RevId(12),
            date: aide_util::time::Timestamp(816_000_000),
            author: "douglis@research.att.com".into(),
            log: "".into(),
            text_len: 9,
        };
        let data = checkin_payload(900, 1_020, &meta, "d2 1\na2 1\nold @\n", "new @ body");
        let f = decode(&encode(OP_CHECKIN, "http://h/p", &data)).unwrap();
        assert_eq!(f.op, OP_CHECKIN);
        let c = split_checkin(&f.data).unwrap();
        assert_eq!(
            c.meta,
            RevisionMeta {
                text_len: 10,
                ..meta
            }
        );
        assert_eq!((c.base_emit_len, c.emit_len), (900, 1_020));
        assert_eq!(
            (c.delta, c.head_text),
            ("d2 1\na2 1\nold @\n", "new @ body")
        );
        for cut in 0..data.len() - "new @ body".len() {
            assert!(split_checkin(&data[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn insane_lengths_are_rejected_not_allocated() {
        let mut buf = encode(OP_STORE, "k", &store_payload(1, "x\n"));
        buf[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&buf), Err(FrameError::BadLength));
    }
}
