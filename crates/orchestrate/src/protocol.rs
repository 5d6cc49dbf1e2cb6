//! The coordinator↔worker wire protocol.
//!
//! Every message is one **frame**: a `u32` little-endian payload length
//! followed by the payload. The payload starts with a one-byte tag and
//! continues with fixed-width little-endian integers; byte blobs are
//! `u32`-length-prefixed. A grant names a shard index and nothing else:
//! the worker realizes that shard from its own copy of the world plan.
//! Shard results travel as `govscan-store` snapshot bytes — the same
//! canonical encoding the archive uses, which is what makes the
//! end-to-end digest check meaningful.
//!
//! ```text
//! worker → coordinator            coordinator → worker
//! ───────────────────            ────────────────────
//! Hello { worker }
//! Request          ───────────►  Grant { shard, attempt }
//! Result { shard,                 …or Done (nothing left: drain and
//!          attempt,                  disconnect)
//!          snapshot }
//! ```
//!
//! A worker loops Request → Grant → Result until the coordinator
//! answers a Request with `Done`. Each frame leaves in one write, and
//! both ends set `TCP_NODELAY`: every exchange is a small message
//! waiting on a reply, which Nagle's algorithm would otherwise hold
//! back for the peer's delayed ACK. Dropping the connection at any point
//! is a legal (crash) exit: the coordinator abandons whatever lease the
//! connection held.

use std::io::{self, Read, Write};

/// Refuse frames larger than this (the largest shard's snapshot at
/// paper scale is a few MiB; 256 MiB is a generous ceiling). A length
/// prefix under the ceiling still allocates only as its payload
/// arrives, so a lying prefix costs no more memory than the bytes sent.
pub const MAX_FRAME: u32 = 256 * 1024 * 1024;

const TAG_HELLO: u8 = 1;
const TAG_REQUEST: u8 = 2;
const TAG_GRANT: u8 = 3;
const TAG_RESULT: u8 = 4;
const TAG_DONE: u8 = 5;

/// One protocol message (see the module docs for the exchange order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Worker introduces itself (the id is informational — logs only).
    Hello {
        /// Worker-chosen identifier (pid, thread index, …).
        worker: u64,
    },
    /// Worker asks for a lease.
    Request,
    /// Coordinator grants a lease over one shard of the world plan.
    Grant {
        /// Shard index (echoed back in the Result).
        shard: u64,
        /// Lease attempt (echoed back in the Result).
        attempt: u32,
    },
    /// Worker delivers a shard's scan as snapshot bytes.
    Result {
        /// Shard index from the Grant.
        shard: u64,
        /// Attempt from the Grant.
        attempt: u32,
        /// `govscan_store::Snapshot::encode_records` of the shard's
        /// records.
        snapshot: Vec<u8>,
    },
    /// Coordinator: no more work, disconnect cleanly.
    Done,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

struct Payload<'a> {
    rest: &'a [u8],
}

impl<'a> Payload<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.rest.len() < n {
            return Err(bad_frame("truncated payload"));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn finish(self) -> io::Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(bad_frame("trailing bytes after message"))
        }
    }
}

fn bad_frame(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {what}"))
}

/// Serialize `message` as one frame onto `w` (flushing).
pub fn write_message(w: &mut impl Write, message: &Message) -> io::Result<()> {
    // The length prefix is patched in below, so the frame leaves in one
    // write.
    let mut frame = vec![0u8; 4];
    match message {
        Message::Hello { worker } => {
            frame.push(TAG_HELLO);
            put_u64(&mut frame, *worker);
        }
        Message::Request => frame.push(TAG_REQUEST),
        Message::Grant { shard, attempt } => {
            frame.push(TAG_GRANT);
            put_u64(&mut frame, *shard);
            put_u32(&mut frame, *attempt);
        }
        Message::Result {
            shard,
            attempt,
            snapshot,
        } => {
            frame.push(TAG_RESULT);
            put_u64(&mut frame, *shard);
            put_u32(&mut frame, *attempt);
            put_bytes(&mut frame, snapshot);
        }
        Message::Done => frame.push(TAG_DONE),
    }
    let len = frame.len() - 4;
    debug_assert!(len as u64 <= MAX_FRAME as u64);
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame from `r` and decode it. EOF at a frame boundary, or a
/// payload shorter than its length prefix, surfaces as `UnexpectedEof`;
/// an oversized length prefix, unknown tag, or truncated message as
/// `InvalidData`. The payload buffer grows with the bytes received, not
/// with what the prefix promises.
pub fn read_message(r: &mut impl Read) -> io::Result<Message> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(bad_frame("empty frame"));
    }
    if len > MAX_FRAME {
        return Err(bad_frame("frame exceeds MAX_FRAME"));
    }
    let mut payload = Vec::new();
    r.by_ref().take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let mut p = Payload {
        rest: &payload[1..],
    };
    let message = match payload[0] {
        TAG_HELLO => Message::Hello { worker: p.u64()? },
        TAG_REQUEST => Message::Request,
        TAG_GRANT => Message::Grant {
            shard: p.u64()?,
            attempt: p.u32()?,
        },
        TAG_RESULT => Message::Result {
            shard: p.u64()?,
            attempt: p.u32()?,
            snapshot: p.bytes()?,
        },
        TAG_DONE => Message::Done,
        _ => return Err(bad_frame("unknown tag")),
    };
    p.finish()?;
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(m: Message) {
        let mut buf = Vec::new();
        write_message(&mut buf, &m).expect("write");
        let back = read_message(&mut Cursor::new(&buf)).expect("read");
        assert_eq!(back, m);
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip(Message::Hello { worker: 42 });
        roundtrip(Message::Request);
        roundtrip(Message::Grant {
            shard: 7,
            attempt: 3,
        });
        roundtrip(Message::Result {
            shard: 7,
            attempt: 3,
            snapshot: vec![0xde, 0xad, 0xbe, 0xef],
        });
        roundtrip(Message::Done);
    }

    #[test]
    fn messages_stream_back_to_back() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Message::Request).expect("write");
        write_message(&mut buf, &Message::Done).expect("write");
        let mut cur = Cursor::new(&buf);
        assert_eq!(read_message(&mut cur).expect("first"), Message::Request);
        assert_eq!(read_message(&mut cur).expect("second"), Message::Done);
        // Clean EOF at the frame boundary.
        let err = read_message(&mut cur).expect_err("eof");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_oversized_and_malformed_frames() {
        // Length prefix past MAX_FRAME.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let err = read_message(&mut Cursor::new(&huge[..])).expect_err("oversize");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Zero-length frame.
        let empty = 0u32.to_le_bytes();
        let err = read_message(&mut Cursor::new(&empty[..])).expect_err("empty");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Unknown tag.
        let mut unknown = Vec::from(1u32.to_le_bytes());
        unknown.push(0xff);
        let err = read_message(&mut Cursor::new(&unknown)).expect_err("tag");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Truncated payload (Hello promises a u64, carries 2 bytes).
        let mut trunc = Vec::from(3u32.to_le_bytes());
        trunc.extend_from_slice(&[1, 0, 0]);
        let err = read_message(&mut Cursor::new(&trunc)).expect_err("trunc");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Trailing garbage after a complete message.
        let mut trailing = Vec::from(2u32.to_le_bytes());
        trailing.extend_from_slice(&[TAG_REQUEST, 0x00]);
        let err = read_message(&mut Cursor::new(&trailing)).expect_err("trailing");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
