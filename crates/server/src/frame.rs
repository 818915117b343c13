//! Length-prefixed framing over any byte stream.
//!
//! A frame is a `u32` little-endian body length followed by that many
//! body bytes. The reader distinguishes four situations the connection
//! loop treats differently:
//!
//! * a complete frame — hand the body to the protocol decoder;
//! * a clean close (EOF *between* frames) — tear the connection down
//!   quietly;
//! * an idle read timeout *between* frames — poll the shutdown flag and
//!   keep waiting;
//! * anything else (EOF or a persistent stall *inside* a frame, a
//!   declared length above the ceiling) — a typed [`FrameError`], never a
//!   panic.
//!
//! The reader never allocates more than the declared ceiling, so a hostile
//! 4 GiB length prefix costs one `u32` comparison, not an allocation.

use std::io::{self, Read, Write};

/// Default ceiling on a frame body (1 MiB); servers and clients can pick
/// their own.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

/// How many consecutive mid-frame read timeouts count as a stalled peer.
/// At the connection loop's default 25 ms read timeout this is a ~5 s
/// stall budget for a started-but-unfinished frame.
const MID_FRAME_STALL_BUDGET: u32 = 200;

/// One successful poll of the frame reader.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// Read timed out at a frame boundary with no bytes consumed — the
    /// caller should check its stop flag and poll again.
    Idle,
    /// The peer closed the stream at a frame boundary.
    Closed,
}

/// Why framing failed.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended (or stalled past the budget) inside a frame.
    Truncated,
    /// The declared body length exceeds the reader's ceiling. The server
    /// answers this with a typed `FrameTooLarge` error before closing.
    Oversized(u32),
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversized(len) => write!(f, "declared frame length {len} over ceiling"),
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads exactly `buf.len()` bytes, tolerating up to the stall budget of
/// read timeouts once at least one byte of the frame has been consumed.
fn read_full(r: &mut impl Read, buf: &mut [u8], mut stalls: u32) -> Result<(), FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls > MID_FRAME_STALL_BUDGET {
                    return Err(FrameError::Truncated);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Polls the stream for one frame (see the module docs for the outcome
/// taxonomy).
///
/// # Errors
///
/// [`FrameError::Truncated`] when the stream ends or stalls mid-frame,
/// [`FrameError::Oversized`] when the declared length exceeds `max_len`,
/// [`FrameError::Io`] for any other I/O failure.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<FrameEvent, FrameError> {
    // The length prefix is read byte-wise so that a timeout or EOF before
    // the first byte is distinguishable (Idle / Closed) from one after it
    // (a torn frame).
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameEvent::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) && filled == 0 => return Ok(FrameEvent::Idle),
            Err(e) if is_timeout(&e) => return read_rest(r, prefix, filled, max_len),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    read_body(r, u32::from_le_bytes(prefix), max_len, 0)
}

/// Continues a prefix read that timed out partway (already committed to a
/// frame, so timeouts now draw from the stall budget).
fn read_rest(
    r: &mut impl Read,
    mut prefix: [u8; 4],
    filled: usize,
    max_len: u32,
) -> Result<FrameEvent, FrameError> {
    read_full(r, &mut prefix[filled..], 1)?;
    read_body(r, u32::from_le_bytes(prefix), max_len, 1)
}

fn read_body(
    r: &mut impl Read,
    len: u32,
    max_len: u32,
    stalls: u32,
) -> Result<FrameEvent, FrameError> {
    if len > max_len {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len as usize];
    read_full(r, &mut body, stalls)?;
    Ok(FrameEvent::Frame(body))
}

/// Writes one frame (length prefix + body) with a single `write_all`, then
/// flushes.
///
/// Prefix and body go out in one buffer: both ends set `TCP_NODELAY`, so
/// two writes would leave as two segments, and the peer's reader would
/// wake on the 4-byte prefix only to block again for the body.
///
/// # Errors
///
/// Propagates the underlying write/flush error.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len()).map_err(|_| io::Error::other("frame body over 4 GiB"))?;
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, body).unwrap();
        out
    }

    #[test]
    fn frame_round_trips() {
        let bytes = framed(b"hello");
        let mut r = Cursor::new(bytes);
        match read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap() {
            FrameEvent::Frame(body) => assert_eq!(body, b"hello"),
            other => panic!("expected frame, got {other:?}"),
        }
        // Clean EOF afterwards.
        assert!(matches!(read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap(), FrameEvent::Closed));
    }

    /// A writer that records the bytes of each `write` call separately.
    #[derive(Default)]
    struct Calls(Vec<Vec<u8>>);

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_call() {
        let mut w = Calls::default();
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!(w.0, vec![b"\x05\0\0\0hello".to_vec()], "prefix and body in one call");
    }

    #[test]
    fn empty_stream_is_a_clean_close() {
        let mut r = Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut r, 16).unwrap(), FrameEvent::Closed));
    }

    #[test]
    fn truncated_prefix_is_truncated() {
        let mut r = Cursor::new(vec![5u8, 0]);
        assert!(matches!(read_frame(&mut r, 16), Err(FrameError::Truncated)));
    }

    #[test]
    fn truncated_body_is_truncated() {
        let mut bytes = framed(b"hello");
        bytes.truncate(bytes.len() - 2);
        let mut r = Cursor::new(bytes);
        assert!(matches!(read_frame(&mut r, 16), Err(FrameError::Truncated)));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut r = Cursor::new(u32::MAX.to_le_bytes().to_vec());
        match read_frame(&mut r, 1 << 10) {
            Err(FrameError::Oversized(len)) => assert_eq!(len, u32::MAX),
            other => panic!("expected oversized, got {other:?}"),
        }
    }

    /// A reader that times out forever after yielding its script.
    struct Stalling {
        script: Vec<u8>,
        pos: usize,
    }

    impl Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.script.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stall"));
            }
            let n = buf.len().min(self.script.len() - self.pos);
            buf[..n].copy_from_slice(&self.script[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn timeout_at_boundary_is_idle_but_mid_frame_exhausts_the_budget() {
        let mut idle = Stalling { script: Vec::new(), pos: 0 };
        assert!(matches!(read_frame(&mut idle, 16).unwrap(), FrameEvent::Idle));

        let mut torn = Stalling { script: vec![4, 0, 0, 0, 1], pos: 0 };
        assert!(matches!(read_frame(&mut torn, 16), Err(FrameError::Truncated)));
    }
}
