//! Wire framing for the serve protocol: the same length-prefix +
//! SHA-1-checksum discipline as the mining journal and the shard store.
//!
//! ```text
//! u32 payload_len (LE) | 20-byte SHA-1(payload) | payload
//! ```
//!
//! Reads fail closed: a frame whose length is implausible or whose
//! checksum does not verify leaves no trustworthy next-frame boundary,
//! so the caller must drop the connection. A clean EOF exactly at a
//! frame boundary is not an error ([`read_frame`] returns `Ok(None)`).

use schevo_core::failpoint;
use schevo_vcs::sha1::sha1;
use std::io::{Read, Write};

/// Upper bound on one frame's payload. A full paper-scale study JSON is
/// ~3 orders of magnitude smaller; anything bigger is garbage or abuse,
/// and rejecting it up front bounds the allocation a hostile length
/// field can force.
pub const MAX_FRAME_LEN: u32 = 1 << 26;

/// Most payload bytes reserved before they arrive: a hostile length
/// field can pin this much per connection, not [`MAX_FRAME_LEN`].
const PREALLOC_MAX: usize = 64 << 10;

/// Frame header size: u32 length + 20-byte SHA-1. Public so the server
/// can account true wire bytes (`header + payload`) per request in the
/// request log without re-deriving the header layout.
pub const HEADER_LEN: usize = 24;

/// Total wire bytes one framed payload occupies: header plus payload.
pub fn frame_len(payload_len: usize) -> usize {
    HEADER_LEN + payload_len
}

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport failure.
    Io(std::io::Error),
    /// The stream ended mid-frame.
    Torn {
        /// Bytes actually read of the torn segment.
        got: usize,
        /// Bytes the segment needed.
        want: usize,
    },
    /// The length field is zero or exceeds [`MAX_FRAME_LEN`].
    BadLength(u64),
    /// The payload does not match its SHA-1 checksum.
    Checksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O: {e}"),
            FrameError::Torn { got, want } => write!(f, "torn frame: {got} of {want} bytes"),
            FrameError::BadLength(len) => write!(f, "implausible frame length {len}"),
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Write one framed payload and flush the transport.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    if payload.is_empty() || payload.len() > MAX_FRAME_LEN as usize {
        return Err(FrameError::BadLength(payload.len() as u64));
    }
    // The failpoint fires before any bytes hit the transport, so an
    // absorbed transient fault cannot interleave a torn frame. Real
    // mid-write socket errors are not retried here — the peer's read
    // side has no way to resynchronize a half-sent frame.
    failpoint::retry_io(failpoint::RetryPolicy::default(), || {
        failpoint::check("serve.write")
    })?;
    let digest = sha1(payload);
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&digest.0);
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Fill `buf` completely, distinguishing clean EOF before the first byte
/// (`Ok(false)`) from a torn read.
fn read_full<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(FrameError::Torn {
                    got: filled,
                    want: buf.len(),
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Read the next verified payload, or `Ok(None)` on clean EOF at a
/// frame boundary.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    failpoint::retry_io(failpoint::RetryPolicy::default(), || {
        failpoint::check("serve.read")
    })?;
    let mut header = [0u8; HEADER_LEN];
    if !read_full(r, &mut header)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(FrameError::BadLength(len as u64));
    }
    // The length is not trusted until the payload arrives: past a
    // small up-front reservation, the buffer grows with the bytes
    // actually read, never to the claimed length.
    let mut payload = Vec::with_capacity((len as usize).min(PREALLOC_MAX));
    (&mut *r).take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Err(FrameError::Torn {
            got: payload.len(),
            want: len as usize,
        });
    }
    if sha1(&payload).0[..] != header[4..] {
        return Err(FrameError::Checksum);
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_and_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"world!").expect("write");
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).expect("frame 1").as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).expect("frame 2").as_deref(), Some(&b"world!"[..]));
        assert!(read_frame(&mut r).expect("eof").is_none());
    }

    #[test]
    fn bit_flip_is_a_checksum_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").expect("write");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Checksum)));
    }

    #[test]
    fn truncation_is_torn() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").expect("write");
        buf.truncate(buf.len() - 3);
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Torn { .. })));
    }

    #[test]
    fn hostile_length_is_rejected_without_allocation() {
        let mut buf = vec![0xFFu8; HEADER_LEN];
        buf.extend_from_slice(b"x");
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r), Err(FrameError::BadLength(_))));
    }

    #[test]
    fn empty_payload_is_rejected_on_write() {
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, b""),
            Err(FrameError::BadLength(0))
        ));
    }
}
