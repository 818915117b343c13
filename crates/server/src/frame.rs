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
//!
//! The client and the connection loop read and write their socket
//! through one spin-then-block wait. It polls with non-blocking reads
//! straight into its buffer for up to 50 µs, so a frame already on its
//! way is picked up without putting the reader to sleep and waking it
//! again; a frame that arrived whole is returned from the buffer, and the
//! socket stays non-blocking for the next one. Anything else falls
//! through to [`read_frame`] in blocking mode. The wait tracks the
//! socket's mode and switches it only when the mode must change.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use stack2d::sync::atomic::{AtomicUsize, Ordering};
use stack2d::sync::thread;

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
    send_frame(w, &mut Vec::with_capacity(4 + body.len()), |out| out.extend_from_slice(body))
}

/// Builds one frame in `frame`, a buffer the caller reuses across frames
/// (the length prefix, then the body `body` appends), and writes it as
/// [`write_frame`] does: one `write_all`, then a flush.
pub(crate) fn send_frame(
    w: &mut impl Write,
    frame: &mut Vec<u8>,
    body: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    frame.clear();
    frame.extend_from_slice(&[0; 4]);
    body(frame);
    let len =
        u32::try_from(frame.len() - 4).map_err(|_| io::Error::other("frame body over 4 GiB"))?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(frame)?;
    w.flush()
}

/// How long a socket reader polls before it blocks. A served frame's
/// round trip on loopback is a few tens of microseconds; 10 µs gained
/// nothing, and 50–150 µs gave about the same throughput (DESIGN.md §13).
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Readers polling right now, process-wide, held at the number of CPUs.
static POLLERS: PollSlots = PollSlots::new(0);

/// A counted set of poll slots. A reader that finds none free blocks
/// straight away, so pollers never outnumber the CPUs they spin on. The
/// counts guard no data, only how many threads spin, so `Relaxed` does.
struct PollSlots {
    busy: AtomicUsize,
    /// The slot count; 0 until the first `take` asks the OS.
    cap: AtomicUsize,
}

impl PollSlots {
    const fn new(cap: usize) -> Self {
        PollSlots { busy: AtomicUsize::new(0), cap: AtomicUsize::new(cap) }
    }

    fn cap(&self) -> usize {
        match self.cap.load(Ordering::Relaxed) {
            0 => {
                let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
                self.cap.store(cpus, Ordering::Relaxed);
                cpus
            }
            cap => cap,
        }
    }

    /// A free slot, held until the returned guard drops.
    fn take(&self) -> Option<PollSlot<'_>> {
        let cap = self.cap();
        self.busy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < cap).then_some(n + 1))
            .ok()
            .map(|_| PollSlot(self))
    }
}

/// One taken poll slot; dropping it gives the slot back.
struct PollSlot<'a>(&'a PollSlots);

impl Drop for PollSlot<'_> {
    fn drop(&mut self) {
        self.0.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One socket's framed reads and writes, and the only code that switches
/// the socket's blocking mode: it tracks the mode and makes a switch only
/// when the mode actually changes.
///
/// A read first polls, when the guards allow: the socket goes (or stays)
/// non-blocking, and non-blocking `read`s fill the buffer, with a yield
/// between them, until bytes, EOF or an error arrive or [`SPIN_BUDGET`]
/// runs out. A frame the buffer then holds whole is returned from it
/// with no further syscall, and the socket stays non-blocking for the
/// next frame. Everything else (the budget ran out, EOF, a partial or
/// oversized frame, a skipped poll) goes to [`read_frame`] in blocking
/// mode, so read timeouts and the [`FrameEvent`] / [`FrameError`]
/// outcomes are those of `read_frame`. The guards: a read polls only when
/// the previous read on this socket ended within the budget (a peer that
/// answered slowly last time will likely do so again), when the buffer is
/// empty, and when one of the process-wide poll slots is free.
///
/// Writes go through the same socket (`FrameWait` is a [`Write`]); one
/// that a non-blocking socket cannot take whole is finished in blocking
/// mode.
#[derive(Debug)]
pub(crate) struct FrameWait {
    reader: BufReader<TcpStream>,
    /// The socket's mode as last set here.
    nonblocking: bool,
    poll_next: bool,
}

impl FrameWait {
    /// Takes over `stream`, which must be in blocking mode, as a connected
    /// or a configured accepted socket is.
    pub(crate) fn new(stream: TcpStream) -> Self {
        FrameWait { reader: BufReader::new(stream), nonblocking: false, poll_next: true }
    }

    /// Reads one frame, spinning first when the guards allow.
    ///
    /// # Errors
    ///
    /// As [`read_frame`]; also [`FrameError::Io`] when the socket's
    /// blocking mode cannot be switched or the poll's `read` fails.
    pub(crate) fn read(&mut self, max_len: u32) -> Result<FrameEvent, FrameError> {
        self.read_with(max_len, SPIN_BUDGET, &POLLERS)
    }

    fn read_with(
        &mut self,
        max_len: u32,
        budget: Duration,
        slots: &PollSlots,
    ) -> Result<FrameEvent, FrameError> {
        let start = Instant::now();
        if self.poll_next && self.reader.buffer().is_empty() {
            if let Some(_slot) = slots.take() {
                self.poll(budget)?;
            }
        }
        let event = match self.buffered(max_len) {
            Some(body) => Ok(FrameEvent::Frame(body)),
            None => {
                self.set_nonblocking(false).map_err(FrameError::Io)?;
                read_frame(&mut self.reader, max_len)
            }
        };
        self.record(start.elapsed(), budget);
        event
    }

    /// Fills the empty buffer with non-blocking reads, yielding the CPU
    /// between them, until bytes or EOF arrive or `budget` runs out. A
    /// read error is returned here, since the `read` that reports it also
    /// clears it.
    fn poll(&mut self, budget: Duration) -> Result<(), FrameError> {
        self.set_nonblocking(true).map_err(FrameError::Io)?;
        let start = Instant::now();
        loop {
            match self.reader.fill_buf() {
                Ok(_) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if start.elapsed() >= budget {
                        return Ok(());
                    }
                    thread::yield_now();
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// The body of a frame the buffer holds whole (prefix, then the
    /// declared body within `max_len`), taken out of the buffer.
    fn buffered(&mut self, max_len: u32) -> Option<Vec<u8>> {
        let buf = self.reader.buffer();
        let len = u32::from_le_bytes(*buf.first_chunk::<4>()?);
        if len > max_len || buf.len() - 4 < len as usize {
            return None;
        }
        let end = 4 + len as usize;
        let body = buf[4..end].to_vec();
        self.reader.consume(end);
        Some(body)
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        if self.nonblocking != nonblocking {
            self.reader.get_ref().set_nonblocking(nonblocking)?;
            self.nonblocking = nonblocking;
        }
        Ok(())
    }

    /// Polls next time only if this wait ended within the budget.
    fn record(&mut self, waited: Duration, budget: Duration) {
        self.poll_next = waited <= budget;
    }
}

impl Write for FrameWait {
    /// Writes to the socket; a write a non-blocking socket cannot take
    /// (`WouldBlock`: its send buffer is full) switches it to blocking
    /// mode and is made again, so a slow reader never fails a frame.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            match self.reader.get_mut().write(buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && self.nonblocking => {
                    self.set_nonblocking(false)?;
                }
                done => return done,
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.reader.get_mut().flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::net::{Shutdown, TcpListener};

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

    /// A connected loopback pair: the reading end (with `timeout`) in a
    /// [`FrameWait`], and its peer.
    fn socket_pair(timeout: Duration) -> (FrameWait, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (read_end, _) = listener.accept().unwrap();
        read_end.set_read_timeout(Some(timeout)).unwrap();
        (FrameWait::new(read_end), peer)
    }

    fn busy(slots: &PollSlots) -> usize {
        slots.busy.load(Ordering::Relaxed)
    }

    fn body_of(event: Result<FrameEvent, FrameError>) -> Vec<u8> {
        match event {
            Ok(FrameEvent::Frame(body)) => body,
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn a_queued_frame_is_read_without_blocking() {
        let (mut wait, mut peer) = socket_pair(Duration::from_secs(10));
        write_frame(&mut peer, b"queued").unwrap();
        let slots = PollSlots::new(1);
        // A blocking read that found nothing would sit out the 10 s
        // timeout; the budget is long so a slow host still counts as short.
        let budget = Duration::from_secs(1);
        let start = Instant::now();
        assert_eq!(body_of(wait.read_with(16, budget, &slots)), b"queued");
        assert!(start.elapsed() < budget);
        assert!(wait.poll_next, "a wait within the budget keeps polling");
        assert_eq!(busy(&slots), 0);
    }

    #[test]
    fn an_idle_socket_blocks_until_its_read_timeout_after_the_poll() {
        let timeout = Duration::from_millis(30);
        let (mut wait, _peer) = socket_pair(timeout);
        let slots = PollSlots::new(1);
        let start = Instant::now();
        let event = wait.read_with(16, SPIN_BUDGET, &slots).unwrap();
        assert!(matches!(event, FrameEvent::Idle), "{event:?}");
        // Left non-blocking, the read would have returned at once.
        assert!(start.elapsed() >= timeout - Duration::from_millis(5), "{:?}", start.elapsed());
        assert!(!wait.poll_next, "a wait past the budget stops polling");
        assert_eq!(busy(&slots), 0);
    }

    #[test]
    fn a_peer_closing_during_the_poll_is_a_clean_close() {
        let (mut wait, peer) = socket_pair(Duration::from_secs(10));
        let slots = PollSlots::new(1);
        // The close lands during the poll or before it starts; either way
        // the poll must end at the close, not at its budget.
        let closer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            peer.shutdown(Shutdown::Both).unwrap();
        });
        let start = Instant::now();
        let budget = Duration::from_secs(5);
        let event = wait.read_with(16, budget, &slots).unwrap();
        assert!(matches!(event, FrameEvent::Closed), "{event:?}");
        assert!(start.elapsed() < budget, "the poll saw the close");
        assert_eq!(busy(&slots), 0);
        closer.join().unwrap();
    }

    #[test]
    fn a_peer_stalling_mid_frame_is_truncated() {
        let (mut wait, mut peer) = socket_pair(Duration::from_millis(1));
        peer.write_all(&[8, 0]).unwrap();
        let slots = PollSlots::new(1);
        let got = wait.read_with(16, SPIN_BUDGET, &slots);
        assert!(matches!(got, Err(FrameError::Truncated)), "{got:?}");
        assert_eq!(busy(&slots), 0);
        drop(peer);
    }

    #[test]
    fn a_long_wait_disables_the_next_poll_and_a_short_one_reenables_it() {
        let (mut wait, mut peer) = socket_pair(Duration::from_millis(20));
        let budget = SPIN_BUDGET;
        assert!(wait.poll_next);
        wait.record(budget * 2, budget);
        assert!(!wait.poll_next);
        wait.record(budget, budget);
        assert!(wait.poll_next);

        // Over a socket: an idle read disables the poll; the next read
        // blocks without one, finds its frame queued and re-enables it.
        let slots = PollSlots::new(1);
        let budget = Duration::from_millis(10);
        let idle = wait.read_with(16, budget, &slots).unwrap();
        assert!(matches!(idle, FrameEvent::Idle) && !wait.poll_next);
        write_frame(&mut peer, b"x").unwrap();
        let event = wait.read_with(16, budget, &slots).unwrap();
        assert!(matches!(event, FrameEvent::Frame(_)) && wait.poll_next, "{event:?}");
    }

    /// Whether `stream` is non-blocking, by the time one `peek` takes:
    /// with nothing queued, a blocking peek sits out the read timeout.
    fn os_nonblocking(stream: &TcpStream) -> bool {
        let timeout = Duration::from_millis(200);
        stream.set_read_timeout(Some(timeout)).unwrap();
        let start = Instant::now();
        let err = stream.peek(&mut [0u8; 1]).unwrap_err();
        assert!(is_timeout(&err), "{err:?}");
        start.elapsed() < timeout / 2
    }

    #[test]
    fn a_polled_frame_leaves_the_socket_non_blocking_and_an_idle_read_blocking() {
        let (mut wait, mut peer) = socket_pair(Duration::from_millis(20));
        let slots = PollSlots::new(1);
        write_frame(&mut peer, b"polled").unwrap();
        assert_eq!(body_of(wait.read_with(16, Duration::from_secs(1), &slots)), b"polled");
        assert!(wait.nonblocking, "the next frame is polled without a mode switch");
        assert!(os_nonblocking(wait.reader.get_ref()));

        wait.reader.get_ref().set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let idle = wait.read_with(16, SPIN_BUDGET, &slots).unwrap();
        assert!(matches!(idle, FrameEvent::Idle), "{idle:?}");
        assert!(!wait.nonblocking, "an idle read ends in the blocking read");
        assert!(!os_nonblocking(wait.reader.get_ref()));
    }

    #[test]
    fn a_frame_half_read_by_the_poll_is_finished_by_the_blocking_read() {
        let (mut wait, mut peer) = socket_pair(Duration::from_secs(10));
        let frame = framed(&[7u8; 64]);
        let (head, tail) = frame.split_at(4 + 32);
        peer.write_all(head).unwrap();
        let tail = tail.to_vec();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            peer.write_all(&tail).unwrap();
            peer
        });
        // The poll's budget outlasts the head's arrival, so the poll reads
        // the head; the tail comes after the poll has ended.
        let body = body_of(wait.read_with(64, Duration::from_millis(20), &PollSlots::new(1)));
        assert_eq!(body, [7u8; 64], "completed, not truncated");
        assert!(!wait.nonblocking);
        sender.join().unwrap();
    }

    #[test]
    fn a_frame_larger_than_the_buffer_reads_whole() {
        let (mut wait, mut peer) = socket_pair(Duration::from_secs(10));
        let body: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
        assert!(body.len() > wait.reader.capacity());
        let sent = body.clone();
        let sender = std::thread::spawn(move || write_frame(&mut peer, &sent).map(|()| peer));
        let got = body_of(wait.read_with(DEFAULT_MAX_FRAME_LEN, SPIN_BUDGET, &PollSlots::new(1)));
        assert!(got == body, "a {} byte body read whole", body.len());
        sender.join().unwrap().unwrap();
    }

    #[test]
    fn a_write_that_would_block_finishes_in_blocking_mode() {
        let (mut wait, mut peer) = socket_pair(Duration::from_secs(10));
        // A polled read leaves the socket non-blocking.
        write_frame(&mut peer, b"go").unwrap();
        assert_eq!(body_of(wait.read_with(16, Duration::from_secs(1), &PollSlots::new(1))), b"go");
        assert!(wait.nonblocking);
        // The peer reads nothing for a while, so the frames fill the
        // socket buffers until a write hits `WouldBlock`.
        const LEN: usize = 256 * 1024;
        let reader = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            let mut got = Vec::new();
            while let FrameEvent::Frame(body) =
                read_frame(&mut peer, DEFAULT_MAX_FRAME_LEN).unwrap()
            {
                got.push(body);
            }
            got
        });
        let mut sent = 0u8;
        while sent < 4 || (wait.nonblocking && sent < 64) {
            write_frame(&mut wait, &vec![sent; LEN]).unwrap();
            sent += 1;
        }
        assert!(!wait.nonblocking, "a full send buffer switched the writer to blocking");
        wait.reader.get_ref().shutdown(Shutdown::Write).unwrap();
        let got = reader.join().unwrap();
        assert_eq!(got.len(), usize::from(sent));
        for (i, body) in (0..sent).zip(&got) {
            assert!(body.len() == LEN && body.iter().all(|&b| b == i), "frame {i} intact");
        }
    }

    #[test]
    fn poll_slots_are_never_over_granted_and_always_released() {
        let slots = PollSlots::new(2);
        let a = slots.take().unwrap();
        let b = slots.take().unwrap();
        assert!(slots.take().is_none(), "a third slot of two");
        drop(a);
        let c = slots.take().unwrap();
        drop((b, c));
        assert_eq!(busy(&slots), 0);

        // A panic while holding a slot still gives it back.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = slots.take().unwrap();
            panic!("reader failed");
        }));
        assert!(unwound.is_err());
        assert_eq!(busy(&slots), 0);

        // Contended: no thread ever sees more slots taken than exist.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        if let Some(_slot) = slots.take() {
                            assert!(busy(&slots) <= 2);
                        }
                    }
                });
            }
        });
        assert_eq!(busy(&slots), 0);
    }

    #[test]
    fn the_process_wide_cap_is_the_cpu_count() {
        let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(PollSlots::new(0).cap(), cpus);
    }
}
