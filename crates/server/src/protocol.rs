//! The wire protocol: request/response messages and their binary codec.
//!
//! Everything on the wire is little-endian and length-delimited; there is
//! no self-description and no text anywhere on the hot path. One *frame*
//! (see [`crate::frame`]) carries one *batch* of messages, so a client can
//! pipeline `depth` requests per round trip and the server answers with a
//! response batch of exactly the same length, in order:
//!
//! ```text
//! frame body  := count:u16  message*count
//! message     := tag:u8  fields…
//! name        := len:u8  utf8-bytes          (1..=64 bytes)
//! ```
//!
//! | tag | request | fields |
//! |-----|---------|--------|
//! | `0x01` | `Ping` | — |
//! | `0x02` | `Create` | personality:u8, name, limit:u64 |
//! | `0x03` | `Produce` | personality:u8, name, value:u64 |
//! | `0x04` | `Consume` | personality:u8, name |
//! | `0x05` | `Acquire` | name, cost:u32 (rate-limiter namespace) |
//! | `0x06` | `Reset` | name (rate-limiter namespace) |
//! | `0x07` | `Stats` | personality:u8, name |
//! | `0x08` | `Shutdown` | — |
//!
//! | tag | response | fields |
//! |-----|----------|--------|
//! | `0x81` | `Pong` | — |
//! | `0x82` | `Created` | fresh:u8 |
//! | `0x83` | `Done` | — |
//! | `0x84` | `Item` | value:u64 |
//! | `0x85` | `Empty` | — |
//! | `0x86` | `Decision` | allowed:u8, observed:u64, limit:u64 |
//! | `0x87` | `Stats` | width:u32, depth:u32, shift:u32, generation:u64, k_bound:u64, ops:u64, retunes:u64 |
//! | `0x88` | `Error` | code:u8, detail (name-encoded) |
//! | `0x89` | `ShuttingDown` | — |
//!
//! Decoding is *total*: every byte sequence either parses or yields a
//! typed [`WireError`] — the decoder never panics, which the fuzz suite
//! (`tests/protocol_fuzz.rs`) and the archlint `no-panic-in-hot-path`
//! surface both enforce. The exact frame layout is pinned by the
//! golden-bytes fixture in `tests/protocol_roundtrip.rs`, so the format
//! cannot drift silently.

use std::fmt;

/// Hard ceiling on messages per frame; a count above this is rejected at
/// decode time before any allocation proportional to it happens.
pub const MAX_BATCH: usize = 1024;

/// Longest tenant name (and error detail) in bytes.
pub const MAX_NAME_LEN: usize = 64;

/// Which of the three service personalities a tenant belongs to. The
/// personality is part of the tenant key, so `orders` the task-queue and
/// `orders` the rate-limiter are distinct tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Personality {
    /// Backed by a `Queue2D<u64>`: producers submit tickets, workers fetch
    /// them, FIFO relaxed by the tenant's live window.
    TaskQueue,
    /// Backed by a `Counter2D`: hits increment the relaxed counter and the
    /// decision compares the observed count against the tenant's limit.
    RateLimiter,
    /// Backed by a `Stack2D<u64>`: object ids are released onto and
    /// acquired from a relaxed LIFO pool (hot objects stay hot).
    ObjectPool,
}

impl Personality {
    /// All personalities, in wire-tag order.
    pub const ALL: [Personality; 3] =
        [Personality::TaskQueue, Personality::RateLimiter, Personality::ObjectPool];

    /// The stable service name used in scope labels, CSVs and logs.
    pub fn name(self) -> &'static str {
        match self {
            Personality::TaskQueue => "task-queue",
            Personality::RateLimiter => "rate-limiter",
            Personality::ObjectPool => "object-pool",
        }
    }

    fn to_wire(self) -> u8 {
        match self {
            Personality::TaskQueue => 0,
            Personality::RateLimiter => 1,
            Personality::ObjectPool => 2,
        }
    }

    fn from_wire(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(Personality::TaskQueue),
            1 => Ok(Personality::RateLimiter),
            2 => Ok(Personality::ObjectPool),
            other => Err(WireError::BadPersonality(other)),
        }
    }
}

impl fmt::Display for Personality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Creates the named tenant on demand (idempotent). `limit` is the
    /// rate-limiter allowance; the other personalities ignore it.
    Create {
        /// Namespace the tenant lives in.
        personality: Personality,
        /// Tenant name (1..=[`MAX_NAME_LEN`] UTF-8 bytes).
        tenant: String,
        /// Rate-limiter allowance (observed count ≤ limit ⇒ allowed).
        limit: u64,
    },
    /// Task-queue submit / object-pool release of one opaque value.
    Produce {
        /// Namespace the tenant lives in.
        personality: Personality,
        /// Tenant name.
        tenant: String,
        /// Opaque payload (a ticket or object id).
        value: u64,
    },
    /// Task-queue fetch / object-pool acquire.
    Consume {
        /// Namespace the tenant lives in.
        personality: Personality,
        /// Tenant name.
        tenant: String,
    },
    /// Rate-limiter hit: counts `cost` against the tenant's allowance and
    /// returns the admission decision.
    Acquire {
        /// Tenant name in the rate-limiter namespace.
        tenant: String,
        /// How many tokens this hit consumes (bounded by the server).
        cost: u32,
    },
    /// Rate-limiter window reset: the observed count restarts from zero.
    Reset {
        /// Tenant name in the rate-limiter namespace.
        tenant: String,
    },
    /// Live window/metrics snapshot of one tenant.
    Stats {
        /// Namespace the tenant lives in.
        personality: Personality,
        /// Tenant name.
        tenant: String,
    },
    /// Asks the whole server to shut down gracefully.
    Shutdown,
}

/// A [`Request`] borrowed from the frame body it was decoded from: the
/// same variants and fields, with the tenant name a `&str` slice of the
/// body. The server executes these, so decoding a frame allocates no
/// string; [`RequestView::to_owned`] gives the owned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestView<'a> {
    /// [`Request::Ping`].
    Ping,
    /// [`Request::Create`].
    Create {
        /// Namespace the tenant lives in.
        personality: Personality,
        /// Tenant name.
        tenant: &'a str,
        /// Rate-limiter allowance.
        limit: u64,
    },
    /// [`Request::Produce`].
    Produce {
        /// Namespace the tenant lives in.
        personality: Personality,
        /// Tenant name.
        tenant: &'a str,
        /// Opaque payload.
        value: u64,
    },
    /// [`Request::Consume`].
    Consume {
        /// Namespace the tenant lives in.
        personality: Personality,
        /// Tenant name.
        tenant: &'a str,
    },
    /// [`Request::Acquire`].
    Acquire {
        /// Tenant name in the rate-limiter namespace.
        tenant: &'a str,
        /// Tokens this hit consumes.
        cost: u32,
    },
    /// [`Request::Reset`].
    Reset {
        /// Tenant name in the rate-limiter namespace.
        tenant: &'a str,
    },
    /// [`Request::Stats`].
    Stats {
        /// Namespace the tenant lives in.
        personality: Personality,
        /// Tenant name.
        tenant: &'a str,
    },
    /// [`Request::Shutdown`].
    Shutdown,
}

impl RequestView<'_> {
    /// The owned request this view borrows from.
    pub fn to_owned(self) -> Request {
        match self {
            RequestView::Ping => Request::Ping,
            RequestView::Create { personality, tenant, limit } => {
                Request::Create { personality, tenant: tenant.to_owned(), limit }
            }
            RequestView::Produce { personality, tenant, value } => {
                Request::Produce { personality, tenant: tenant.to_owned(), value }
            }
            RequestView::Consume { personality, tenant } => {
                Request::Consume { personality, tenant: tenant.to_owned() }
            }
            RequestView::Acquire { tenant, cost } => {
                Request::Acquire { tenant: tenant.to_owned(), cost }
            }
            RequestView::Reset { tenant } => Request::Reset { tenant: tenant.to_owned() },
            RequestView::Stats { personality, tenant } => {
                Request::Stats { personality, tenant: tenant.to_owned() }
            }
            RequestView::Shutdown => Request::Shutdown,
        }
    }
}

/// Why a request was refused (carried in [`Response::Error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// No tenant with that name in that personality's namespace.
    UnknownTenant,
    /// The operation exists but not for this personality.
    Unsupported,
    /// The request was syntactically valid but semantically out of range
    /// (e.g. an `Acquire` cost above the server's ceiling).
    BadRequest,
    /// The server's tenant table is full.
    TenantCapacity,
    /// The declared frame length exceeded the server's ceiling; the
    /// connection closes after this reply.
    FrameTooLarge,
    /// The frame body did not decode; the connection closes after this
    /// reply.
    Malformed,
}

impl ErrorCode {
    fn to_wire(self) -> u8 {
        match self {
            ErrorCode::UnknownTenant => 0,
            ErrorCode::Unsupported => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::TenantCapacity => 3,
            ErrorCode::FrameTooLarge => 4,
            ErrorCode::Malformed => 5,
        }
    }

    fn from_wire(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(ErrorCode::UnknownTenant),
            1 => Ok(ErrorCode::Unsupported),
            2 => Ok(ErrorCode::BadRequest),
            3 => Ok(ErrorCode::TenantCapacity),
            4 => Ok(ErrorCode::FrameTooLarge),
            5 => Ok(ErrorCode::Malformed),
            other => Err(WireError::BadErrorCode(other)),
        }
    }
}

/// One server reply. Each response answers the request at the same batch
/// index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// Tenant exists; `fresh` says whether this request created it.
    Created {
        /// `true` when this `Create` made the tenant, `false` when it
        /// already existed (idempotent re-create).
        fresh: bool,
    },
    /// Produce / Reset acknowledged.
    Done,
    /// A consumed value.
    Item {
        /// The opaque payload handed back.
        value: u64,
    },
    /// The structure was observed empty.
    Empty,
    /// Rate-limiter admission decision.
    Decision {
        /// Whether the hit was admitted.
        allowed: bool,
        /// The (relaxed) count observed after this hit, relative to the
        /// last reset.
        observed: u64,
        /// The tenant's configured allowance.
        limit: u64,
    },
    /// Live tenant snapshot.
    Stats {
        /// Live put-side window width.
        width: u32,
        /// Live window depth.
        depth: u32,
        /// Live window shift.
        shift: u32,
        /// Window generation (bumps on every retune).
        generation: u64,
        /// The relaxation bound currently reported for the tenant.
        k_bound: u64,
        /// Completed operations so far.
        ops: u64,
        /// Window-descriptor swings so far (retunes + shrink commits) —
        /// nonzero once the tenant's controller has observably acted.
        retunes: u64,
    },
    /// The request was refused; `detail` is a short human hint.
    Error {
        /// Typed refusal reason.
        code: ErrorCode,
        /// Short context (tenant name, offending field), ≤ [`MAX_NAME_LEN`] bytes.
        detail: String,
    },
    /// Acknowledges a [`Request::Shutdown`]; the server stops accepting
    /// work after the current batches drain.
    ShuttingDown,
}

/// A typed decode failure. Total: every malformed input maps here, never
/// to a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// Personality byte out of range.
    BadPersonality(u8),
    /// Error-code byte out of range.
    BadErrorCode(u8),
    /// Name length zero, above [`MAX_NAME_LEN`], or not UTF-8.
    BadName,
    /// Batch count zero or above [`MAX_BATCH`].
    BadBatchCount(u16),
    /// Bytes left over after the declared batch was decoded.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown message tag 0x{t:02x}"),
            WireError::BadPersonality(p) => write!(f, "personality byte {p} out of range"),
            WireError::BadErrorCode(c) => write!(f, "error-code byte {c} out of range"),
            WireError::BadName => write!(f, "tenant name empty, too long or not UTF-8"),
            WireError::BadBatchCount(n) => write!(f, "batch count {n} out of range"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after batch"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Primitive reader
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn name(&mut self) -> Result<&'a str, WireError> {
        let len = self.u8()? as usize;
        if len == 0 || len > MAX_NAME_LEN {
            return Err(WireError::BadName);
        }
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadName)
    }

    fn personality(&mut self) -> Result<Personality, WireError> {
        Personality::from_wire(self.u8()?)
    }
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    // Encoding side: oversized names are clamped at a char boundary rather
    // than rejected — the decode side enforces the real limit, and the
    // server constructs details from trusted short strings anyway.
    let mut end = name.len().min(MAX_NAME_LEN);
    while end > 0 && !name.is_char_boundary(end) {
        end -= 1;
    }
    let bytes = &name.as_bytes()[..end];
    out.push(bytes.len().max(1) as u8);
    if bytes.is_empty() {
        out.push(b'?');
    } else {
        out.extend_from_slice(bytes);
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Appends the binary encoding of `req` to `out`.
pub fn encode_request(out: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Ping => out.push(0x01),
        Request::Create { personality, tenant, limit } => {
            out.push(0x02);
            out.push(personality.to_wire());
            put_name(out, tenant);
            out.extend_from_slice(&limit.to_le_bytes());
        }
        Request::Produce { personality, tenant, value } => {
            out.push(0x03);
            out.push(personality.to_wire());
            put_name(out, tenant);
            out.extend_from_slice(&value.to_le_bytes());
        }
        Request::Consume { personality, tenant } => {
            out.push(0x04);
            out.push(personality.to_wire());
            put_name(out, tenant);
        }
        Request::Acquire { tenant, cost } => {
            out.push(0x05);
            put_name(out, tenant);
            out.extend_from_slice(&cost.to_le_bytes());
        }
        Request::Reset { tenant } => {
            out.push(0x06);
            put_name(out, tenant);
        }
        Request::Stats { personality, tenant } => {
            out.push(0x07);
            out.push(personality.to_wire());
            put_name(out, tenant);
        }
        Request::Shutdown => out.push(0x08),
    }
}

fn decode_one_request<'a>(r: &mut Reader<'a>) -> Result<RequestView<'a>, WireError> {
    match r.u8()? {
        0x01 => Ok(RequestView::Ping),
        0x02 => {
            let personality = r.personality()?;
            let tenant = r.name()?;
            let limit = r.u64()?;
            Ok(RequestView::Create { personality, tenant, limit })
        }
        0x03 => {
            let personality = r.personality()?;
            let tenant = r.name()?;
            let value = r.u64()?;
            Ok(RequestView::Produce { personality, tenant, value })
        }
        0x04 => {
            let personality = r.personality()?;
            let tenant = r.name()?;
            Ok(RequestView::Consume { personality, tenant })
        }
        0x05 => {
            let tenant = r.name()?;
            let cost = r.u32()?;
            Ok(RequestView::Acquire { tenant, cost })
        }
        0x06 => Ok(RequestView::Reset { tenant: r.name()? }),
        0x07 => {
            let personality = r.personality()?;
            let tenant = r.name()?;
            Ok(RequestView::Stats { personality, tenant })
        }
        0x08 => Ok(RequestView::Shutdown),
        other => Err(WireError::BadTag(other)),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Appends the binary encoding of `resp` to `out`.
pub fn encode_response(out: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Pong => out.push(0x81),
        Response::Created { fresh } => {
            out.push(0x82);
            out.push(u8::from(*fresh));
        }
        Response::Done => out.push(0x83),
        Response::Item { value } => {
            out.push(0x84);
            out.extend_from_slice(&value.to_le_bytes());
        }
        Response::Empty => out.push(0x85),
        Response::Decision { allowed, observed, limit } => {
            out.push(0x86);
            out.push(u8::from(*allowed));
            out.extend_from_slice(&observed.to_le_bytes());
            out.extend_from_slice(&limit.to_le_bytes());
        }
        Response::Stats { width, depth, shift, generation, k_bound, ops, retunes } => {
            out.push(0x87);
            out.extend_from_slice(&width.to_le_bytes());
            out.extend_from_slice(&depth.to_le_bytes());
            out.extend_from_slice(&shift.to_le_bytes());
            out.extend_from_slice(&generation.to_le_bytes());
            out.extend_from_slice(&k_bound.to_le_bytes());
            out.extend_from_slice(&ops.to_le_bytes());
            out.extend_from_slice(&retunes.to_le_bytes());
        }
        Response::Error { code, detail } => {
            out.push(0x88);
            out.push(code.to_wire());
            put_name(out, detail);
        }
        Response::ShuttingDown => out.push(0x89),
    }
}

fn decode_one_response(r: &mut Reader<'_>) -> Result<Response, WireError> {
    match r.u8()? {
        0x81 => Ok(Response::Pong),
        0x82 => Ok(Response::Created { fresh: r.u8()? != 0 }),
        0x83 => Ok(Response::Done),
        0x84 => Ok(Response::Item { value: r.u64()? }),
        0x85 => Ok(Response::Empty),
        0x86 => {
            let allowed = r.u8()? != 0;
            let observed = r.u64()?;
            let limit = r.u64()?;
            Ok(Response::Decision { allowed, observed, limit })
        }
        0x87 => {
            let width = r.u32()?;
            let depth = r.u32()?;
            let shift = r.u32()?;
            let generation = r.u64()?;
            let k_bound = r.u64()?;
            let ops = r.u64()?;
            let retunes = r.u64()?;
            Ok(Response::Stats { width, depth, shift, generation, k_bound, ops, retunes })
        }
        0x88 => {
            let code = ErrorCode::from_wire(r.u8()?)?;
            let detail = r.name()?.to_owned();
            Ok(Response::Error { code, detail })
        }
        0x89 => Ok(Response::ShuttingDown),
        other => Err(WireError::BadTag(other)),
    }
}

// ---------------------------------------------------------------------------
// Batches (one frame body)
// ---------------------------------------------------------------------------

/// Appends one frame body (count + messages) to `out`; batches longer
/// than [`MAX_BATCH`] are truncated to it.
fn encode_batch_into<T>(out: &mut Vec<u8>, items: &[T], encode: impl Fn(&mut Vec<u8>, &T)) {
    let count = items.len().min(MAX_BATCH) as u16;
    out.reserve(2 + items.len() * 16);
    out.extend_from_slice(&count.to_le_bytes());
    for item in items.iter().take(count as usize) {
        encode(out, item);
    }
}

fn decode_batch<'a, T>(
    body: &'a [u8],
    decode: impl Fn(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let mut r = Reader::new(body);
    let count = r.u16()?;
    if count == 0 || count as usize > MAX_BATCH {
        return Err(WireError::BadBatchCount(count));
    }
    let mut items = Vec::with_capacity(count as usize);
    for _ in 0..count {
        items.push(decode(&mut r)?);
    }
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(items)
}

/// Encodes a request batch as one frame body (count + messages). Batches
/// longer than [`MAX_BATCH`] are truncated to it.
pub fn encode_request_batch(reqs: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_batch_into(&mut out, reqs);
    out
}

/// [`encode_request_batch`], appended to a caller's buffer.
pub(crate) fn encode_request_batch_into(out: &mut Vec<u8>, reqs: &[Request]) {
    encode_batch_into(out, reqs, encode_request);
}

/// Decodes one frame body into borrowed request views: the names are
/// slices of `body`, so the batch costs one allocation, not one per
/// request. This is the only request parser; [`decode_request_batch`]
/// owns its result by copying these views.
///
/// # Errors
///
/// A typed [`WireError`] naming the first malformation; never panics.
pub fn decode_request_views(body: &[u8]) -> Result<Vec<RequestView<'_>>, WireError> {
    decode_batch(body, decode_one_request)
}

/// Decodes one frame body into its request batch.
///
/// # Errors
///
/// A typed [`WireError`] naming the first malformation; never panics.
pub fn decode_request_batch(body: &[u8]) -> Result<Vec<Request>, WireError> {
    decode_request_views(body).map(|views| views.into_iter().map(RequestView::to_owned).collect())
}

/// Encodes a response batch as one frame body (count + messages).
pub fn encode_response_batch(resps: &[Response]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_batch_into(&mut out, resps);
    out
}

/// [`encode_response_batch`], appended to a caller's buffer.
pub(crate) fn encode_response_batch_into(out: &mut Vec<u8>, resps: &[Response]) {
    encode_batch_into(out, resps, encode_response);
}

/// Decodes one frame body into its response batch.
///
/// # Errors
///
/// A typed [`WireError`] naming the first malformation; never panics.
pub fn decode_response_batch(body: &[u8]) -> Result<Vec<Response>, WireError> {
    decode_batch(body, decode_one_response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn personalities_round_trip_the_wire_byte() {
        for p in Personality::ALL {
            assert_eq!(Personality::from_wire(p.to_wire()), Ok(p));
        }
        assert_eq!(Personality::from_wire(3), Err(WireError::BadPersonality(3)));
    }

    #[test]
    fn batch_count_bounds_are_enforced() {
        assert_eq!(decode_request_batch(&[0, 0]), Err(WireError::BadBatchCount(0)));
        let over = ((MAX_BATCH + 1) as u16).to_le_bytes();
        assert_eq!(
            decode_request_batch(&[over[0], over[1]]),
            Err(WireError::BadBatchCount(MAX_BATCH as u16 + 1))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = encode_request_batch(&[Request::Ping]);
        body.push(0xff);
        assert_eq!(decode_request_batch(&body), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn names_are_validated() {
        // Zero-length name byte.
        let body = [1u8, 0, 0x06, 0];
        assert_eq!(decode_request_batch(&body), Err(WireError::BadName));
        // Non-UTF-8 name.
        let body = [1u8, 0, 0x06, 2, 0xff, 0xfe];
        assert_eq!(decode_request_batch(&body), Err(WireError::BadName));
    }

    #[test]
    fn oversized_names_are_clamped_on_encode() {
        let long = "x".repeat(200);
        let mut out = Vec::new();
        encode_request(&mut out, &Request::Reset { tenant: long });
        let decoded = decode_request_batch(&[&(1u16).to_le_bytes()[..], &out].concat())
            .expect("clamped name decodes");
        match &decoded[0] {
            Request::Reset { tenant } => assert_eq!(tenant.len(), MAX_NAME_LEN),
            other => panic!("unexpected decode: {other:?}"),
        }
    }
}
