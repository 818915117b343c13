//! Per-connection service loop: frames in, batches executed, frames out.
//!
//! Each accepted socket gets one OS thread running [`serve_connection`].
//! A frame is decoded whole into borrowed [`RequestView`]s before any of
//! its requests runs, so a frame that does not decode runs none of them.
//! The batch then executes in one pass, in request order: each request
//! finds its tenant in the connection's [`TenantCache`] and runs, with
//! adjacent same-tenant runs of one verb coalesced into one batched call.
//! Structure ops go through per-tenant [`OpsHandle`]s that are created
//! once per frame and seeded with the connection id — so a connection
//! replays a deterministic locality/hop sequence on every tenant it
//! touches, batch after batch. The reply is encoded, length prefix and
//! all, into a buffer the connection reuses and goes out as one write
//! (see [`send_frame`]). The connection reads and writes through one
//! socket handle, owned by a [`FrameWait`], which spins briefly before it
//! blocks and is the only code that switches the socket's blocking mode.
//!
//! Failure policy (exercised by `tests/protocol_fuzz.rs`): a frame that
//! does not decode is answered with one typed `Malformed` error and the
//! connection closes, an oversized length prefix is answered with
//! `FrameTooLarge` and the connection closes, and a disconnect or torn
//! frame tears the connection down quietly. The server process never
//! panics on any input byte sequence.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;

use stack2d::sync::atomic::{AtomicBool, Ordering};
use stack2d::sync::Arc;
use stack2d::OpsHandle;

use crate::frame::{send_frame, FrameError, FrameEvent, FrameWait};
use crate::protocol::{
    decode_request_views, encode_response_batch_into, ErrorCode, Personality, RequestView, Response,
};
use crate::tenant::{slot, Tenant, TenantMap, MAX_ACQUIRE_COST};

/// Everything a connection thread needs, cloned per accept.
pub(crate) struct ConnContext {
    pub tenants: Arc<TenantMap>,
    pub stop: Arc<AtomicBool>,
    pub max_frame_len: u32,
    pub conn_id: u64,
}

/// Runs one connection to completion (EOF, error, or server shutdown).
pub(crate) fn serve_connection(stream: TcpStream, ctx: ConnContext) {
    let mut socket = FrameWait::new(stream);
    let mut conn = Connection::new(&ctx.tenants, ctx.conn_id);
    loop {
        if ctx.stop.load(Ordering::Acquire) {
            break;
        }
        let next = match socket.read(ctx.max_frame_len) {
            Ok(FrameEvent::Idle) => continue,
            Ok(FrameEvent::Closed) => break,
            Ok(FrameEvent::Frame(body)) => conn.serve_frame(&body, &mut socket),
            Err(FrameError::Oversized(len)) => {
                conn.refuse(&mut socket, ErrorCode::FrameTooLarge, format!("len {len}"));
                break;
            }
            Err(FrameError::Truncated | FrameError::Io(_)) => break,
        };
        match next {
            Next::Continue => {}
            Next::Close => break,
            Next::Shutdown => {
                ctx.stop.store(true, Ordering::Release);
                break;
            }
        }
    }
}

/// What the connection loop does after answering a frame.
#[derive(Debug, PartialEq, Eq)]
enum Next {
    Continue,
    Close,
    /// The frame asked the whole server to stop.
    Shutdown,
}

/// Every tenant one connection has resolved, kept for the connection's
/// life. Tenants are never deleted (DESIGN.md §13), so an entry never goes
/// stale. A miss is never cached, so a tenant created later, on any
/// connection, is found by the next lookup that names it.
struct TenantCache<'m> {
    map: &'m TenantMap,
    /// The resolved tenants; a frame's handle table is indexed like this.
    tenants: Vec<Arc<Tenant>>,
    /// Name to index, one table per personality like the map's own, so a
    /// lookup hashes a `&str` and allocates nothing.
    index: [HashMap<String, usize>; 3],
    /// The last hit: a run of requests naming one tenant skips the hash.
    last: Cell<Option<usize>>,
}

impl<'m> TenantCache<'m> {
    fn new(map: &'m TenantMap) -> Self {
        TenantCache { map, tenants: Vec::new(), index: Default::default(), last: Cell::new(None) }
    }

    /// The cache index of `(personality, name)`, if this connection has
    /// resolved it.
    fn find(&self, personality: Personality, name: &str) -> Option<usize> {
        let i = match self.last.get() {
            Some(i)
                if self.tenants[i].personality() == personality
                    && self.tenants[i].name() == name =>
            {
                i
            }
            _ => *self.index[slot(personality)].get(name)?,
        };
        self.last.set(Some(i));
        Some(i)
    }

    /// Asks the map for a tenant the cache does not hold and caches it;
    /// `false` when the map has no such tenant.
    fn resolve(&mut self, personality: Personality, name: &str) -> bool {
        let Some(tenant) = self.map.get(personality, name) else {
            return false;
        };
        self.tenants.push(tenant);
        self.index[slot(personality)].insert(name.to_owned(), self.tenants.len() - 1);
        true
    }
}

fn unknown(personality: Personality, tenant: &str) -> Response {
    Response::Error {
        code: ErrorCode::UnknownTenant,
        detail: format!("{}/{tenant}", personality.name()),
    }
}

/// One connection's state across its frames: the tenant cache, and the
/// response and frame buffers every frame reuses.
struct Connection<'m> {
    cache: TenantCache<'m>,
    seed: u64,
    resps: Vec<Response>,
    frame: Vec<u8>,
}

impl<'m> Connection<'m> {
    fn new(map: &'m TenantMap, seed: u64) -> Self {
        Connection { cache: TenantCache::new(map), seed, resps: Vec::new(), frame: Vec::new() }
    }

    /// Decodes, executes and answers one frame body.
    fn serve_frame(&mut self, body: &[u8], w: &mut impl Write) -> Next {
        let reqs = match decode_request_views(body) {
            Ok(reqs) => reqs,
            Err(e) => {
                // Typed reply, then teardown: the stream position is no
                // longer trustworthy after a malformed body.
                self.refuse(w, ErrorCode::Malformed, e.to_string());
                return Next::Close;
            }
        };
        let shutdown = self.execute(&reqs);
        let resps = &self.resps;
        let sent = send_frame(w, &mut self.frame, |out| encode_response_batch_into(out, resps));
        match (shutdown, sent) {
            (true, _) => Next::Shutdown,
            (false, Ok(())) => Next::Continue,
            (false, Err(_)) => Next::Close,
        }
    }

    /// Answers with one typed error; the caller closes the connection.
    fn refuse(&mut self, w: &mut impl Write, code: ErrorCode, detail: String) {
        let err = [Response::Error { code, detail }];
        let _ = send_frame(w, &mut self.frame, |out| encode_response_batch_into(out, &err));
    }

    /// Executes one decoded batch in request order into `self.resps`;
    /// `true` when the batch asked for shutdown.
    ///
    /// The batch runs through [`run_cached`] until a request names a
    /// tenant the cache does not hold. That tenant is then asked of the
    /// map (and cached), or, if it does not exist, the request is answered
    /// `UnknownTenant`, and the run goes on from there. Once a connection
    /// has resolved the tenants it uses, a frame runs in one call.
    fn execute(&mut self, reqs: &[RequestView<'_>]) -> bool {
        let mut shutdown = false;
        self.resps.clear();
        let mut at = 0;
        while let Some((personality, name)) =
            run_cached(&self.cache, reqs, &mut at, self.seed, &mut self.resps, &mut shutdown)
        {
            if !self.cache.resolve(personality, name) {
                self.resps.push(unknown(personality, name));
                at += 1;
            }
        }
        shutdown
    }
}

fn unsupported(detail: &str) -> Response {
    Response::Error { code: ErrorCode::Unsupported, detail: detail.to_string() }
}

/// A frame's handle table: at most one handle per cached tenant, filled
/// on first use.
type Handles<'t> = Vec<Option<Box<dyn OpsHandle<u64> + 't>>>;

/// Runs `reqs[*at..]` in request order on tenants `cache` holds, appending
/// one response per request to `out`, and returns `None` at the end of the
/// batch. A request naming a tenant the cache does not hold stops the run
/// with `*at` on that request, and its tenant is returned for the caller
/// to resolve.
///
/// Structure ops reuse one handle per tenant, seeded with `seed`, for the
/// whole call. Adjacent same-tenant runs of one verb are coalesced into a
/// single batched structure call (`produce_n` / `consume_n`), so a
/// pipelined client pays one engine search round per run instead of one
/// per request. Responses still line up one-to-one with requests: a
/// coalesced produce run answers `Done` per request, and a consume run
/// answers `Item` for each value the batch returned, then `Empty` for the
/// rest — exactly what request-at-a-time execution would have produced,
/// since handles are exclusive to this call.
fn run_cached<'r>(
    cache: &TenantCache<'_>,
    reqs: &[RequestView<'r>],
    at: &mut usize,
    seed: u64,
    out: &mut Vec<Response>,
    shutdown: &mut bool,
) -> Option<(Personality, &'r str)> {
    let tenants = &cache.tenants[..];
    let mut handles: Handles<'_> = Vec::new();
    while let Some(&req) = reqs.get(*at) {
        let mut ran = 1;
        match req {
            RequestView::Ping => out.push(Response::Pong),
            RequestView::Shutdown => {
                *shutdown = true;
                out.push(Response::ShuttingDown);
            }
            RequestView::Create { personality, tenant, limit } => {
                out.push(match cache.map.get_or_create(personality, tenant, limit) {
                    Ok((_, fresh)) => Response::Created { fresh },
                    Err(err) => err,
                });
            }
            RequestView::Produce { personality, tenant, .. } => {
                let Some(t) = cache.find(personality, tenant) else {
                    return Some((personality, tenant));
                };
                if tenants[t].supports_ops() {
                    let values: Vec<u64> = reqs[*at..]
                        .iter()
                        .map_while(|r| match *r {
                            RequestView::Produce { personality: p, tenant: n, value }
                                if p == personality && n == tenant =>
                            {
                                Some(value)
                            }
                            _ => None,
                        })
                        .collect();
                    ran = values.len();
                    handle_for(&mut handles, tenants, t, seed).produce_n(values);
                    out.extend(std::iter::repeat_n(Response::Done, ran));
                } else {
                    out.push(unsupported("use acquire on a rate-limiter"));
                }
            }
            RequestView::Consume { personality, tenant } => {
                let Some(t) = cache.find(personality, tenant) else {
                    return Some((personality, tenant));
                };
                if tenants[t].supports_ops() {
                    ran = reqs[*at..]
                        .iter()
                        .take_while(|r| {
                            matches!(**r, RequestView::Consume { personality: p, tenant: n }
                                if p == personality && n == tenant)
                        })
                        .count();
                    let got = handle_for(&mut handles, tenants, t, seed).consume_n(ran);
                    let misses = ran - got.len();
                    out.extend(got.into_iter().map(|value| Response::Item { value }));
                    out.extend(std::iter::repeat_n(Response::Empty, misses));
                } else {
                    out.push(unsupported("rate-limiters cannot consume"));
                }
            }
            RequestView::Acquire { cost, .. } if cost > MAX_ACQUIRE_COST => {
                out.push(Response::Error {
                    code: ErrorCode::BadRequest,
                    detail: format!("cost {cost} over ceiling {MAX_ACQUIRE_COST}"),
                });
            }
            RequestView::Acquire { tenant, cost } => {
                let Some(t) = cache.find(Personality::RateLimiter, tenant) else {
                    return Some((Personality::RateLimiter, tenant));
                };
                let h = handle_for(&mut handles, tenants, t, seed);
                for _ in 0..cost {
                    h.produce(1);
                }
                out.push(
                    tenants[t]
                        .limiter_decision()
                        .unwrap_or_else(|| unsupported("not a rate-limiter")),
                );
            }
            RequestView::Reset { tenant } => {
                let Some(t) = cache.find(Personality::RateLimiter, tenant) else {
                    return Some((Personality::RateLimiter, tenant));
                };
                out.push(if tenants[t].limiter_reset() {
                    Response::Done
                } else {
                    unsupported("reset is rate-limiter only")
                });
            }
            RequestView::Stats { personality, tenant } => {
                let Some(t) = cache.find(personality, tenant) else {
                    return Some((personality, tenant));
                };
                out.push(tenants[t].stats());
            }
        }
        *at += ran;
    }
    None
}

fn handle_for<'h, 't>(
    handles: &'h mut Handles<'t>,
    tenants: &'t [Arc<Tenant>],
    t: usize,
    seed: u64,
) -> &'h mut Box<dyn OpsHandle<u64> + 't> {
    if handles.len() <= t {
        handles.resize_with(tenants.len(), || None);
    }
    handles[t].get_or_insert_with(|| tenants[t].ops_handle(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, FrameEvent, DEFAULT_MAX_FRAME_LEN};
    use crate::protocol::{decode_response_batch, encode_request_batch, Request};
    use crate::tenant::TenantConfig;

    fn map() -> TenantMap {
        TenantMap::new(TenantConfig::default(), None)
    }

    /// The response batch of one reply frame.
    fn reply(mut wire: &[u8]) -> Vec<Response> {
        match read_frame(&mut wire, DEFAULT_MAX_FRAME_LEN).unwrap() {
            FrameEvent::Frame(body) => {
                assert!(wire.is_empty(), "one frame per reply");
                decode_response_batch(&body).unwrap()
            }
            other => panic!("expected a reply frame, got {other:?}"),
        }
    }

    /// Serves `reqs` as one frame on `conn` and decodes the reply.
    fn serve(conn: &mut Connection<'_>, reqs: &[Request]) -> (Vec<Response>, Next) {
        let mut wire = Vec::new();
        let next = conn.serve_frame(&encode_request_batch(reqs), &mut wire);
        (reply(&wire), next)
    }

    /// Serves `reqs` as one frame on a fresh connection.
    fn run(map: &TenantMap, reqs: &[Request]) -> Vec<Response> {
        serve(&mut Connection::new(map, 1), reqs).0
    }

    #[test]
    fn batch_responses_line_up_with_requests() {
        let map = map();
        let q = Personality::TaskQueue;
        let resps = run(
            &map,
            &[
                Request::Ping,
                Request::Create { personality: q, tenant: "t".into(), limit: 0 },
                Request::Produce { personality: q, tenant: "t".into(), value: 9 },
                Request::Consume { personality: q, tenant: "t".into() },
                Request::Consume { personality: q, tenant: "t".into() },
                Request::Stats { personality: q, tenant: "t".into() },
            ],
        );
        assert_eq!(resps.len(), 6);
        assert_eq!(resps[0], Response::Pong);
        assert_eq!(resps[1], Response::Created { fresh: true });
        assert_eq!(resps[2], Response::Done);
        assert_eq!(resps[3], Response::Item { value: 9 });
        assert_eq!(resps[4], Response::Empty);
        assert!(matches!(resps[5], Response::Stats { .. }));
    }

    #[test]
    fn unknown_tenants_and_wrong_verbs_get_typed_errors() {
        let map = map();
        let resps = run(
            &map,
            &[
                Request::Produce {
                    personality: Personality::TaskQueue,
                    tenant: "ghost".into(),
                    value: 1,
                },
                Request::Create {
                    personality: Personality::RateLimiter,
                    tenant: "api".into(),
                    limit: 3,
                },
                Request::Consume { personality: Personality::RateLimiter, tenant: "api".into() },
                Request::Acquire { tenant: "api".into(), cost: MAX_ACQUIRE_COST + 1 },
            ],
        );
        assert!(matches!(resps[0], Response::Error { code: ErrorCode::UnknownTenant, .. }));
        assert_eq!(resps[1], Response::Created { fresh: true });
        assert!(matches!(resps[2], Response::Error { code: ErrorCode::Unsupported, .. }));
        assert!(matches!(resps[3], Response::Error { code: ErrorCode::BadRequest, .. }));
    }

    #[test]
    fn acquire_counts_cost_and_decides() {
        let map = map();
        run(
            &map,
            &[Request::Create {
                personality: Personality::RateLimiter,
                tenant: "api".into(),
                limit: 4,
            }],
        );
        let resps = run(
            &map,
            &[
                Request::Acquire { tenant: "api".into(), cost: 3 },
                Request::Acquire { tenant: "api".into(), cost: 3 },
                Request::Acquire { tenant: "api".into(), cost: 0 },
            ],
        );
        assert_eq!(resps[0], Response::Decision { allowed: true, observed: 3, limit: 4 });
        assert_eq!(resps[1], Response::Decision { allowed: false, observed: 6, limit: 4 });
        // cost 0 is a pure decision probe.
        assert_eq!(resps[2], Response::Decision { allowed: false, observed: 6, limit: 4 });
    }

    #[test]
    fn coalesced_runs_answer_per_request() {
        let map = map();
        let q = Personality::TaskQueue;
        let produce = |v: u64| Request::Produce { personality: q, tenant: "t".into(), value: v };
        let consume = || Request::Consume { personality: q, tenant: "t".into() };
        let mut reqs = vec![Request::Create { personality: q, tenant: "t".into(), limit: 0 }];
        reqs.extend((0..5).map(produce));
        // Five consumes against four remaining... no: five produced, so
        // six consumes — the last must report Empty.
        reqs.extend((0..6).map(|_| consume()));
        let resps = run(&map, &reqs);
        assert_eq!(resps.len(), 12);
        assert!(resps[1..6].iter().all(|r| *r == Response::Done), "one Done per produce");
        let mut got: Vec<u64> = resps[6..11]
            .iter()
            .map(|r| match r {
                Response::Item { value } => *value,
                other => panic!("expected Item, got {other:?}"),
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4], "coalesced consume returns the produced multiset");
        assert_eq!(resps[11], Response::Empty, "over-ask trails with Empty");
    }

    #[test]
    fn coalescing_respects_tenant_and_verb_boundaries() {
        let map = map();
        let q = Personality::TaskQueue;
        let resps = run(
            &map,
            &[
                Request::Create { personality: q, tenant: "a".into(), limit: 0 },
                Request::Create { personality: q, tenant: "b".into(), limit: 0 },
                // Interleaved tenants: each run is length 1; order must
                // still line up request-for-request.
                Request::Produce { personality: q, tenant: "a".into(), value: 1 },
                Request::Produce { personality: q, tenant: "b".into(), value: 2 },
                Request::Consume { personality: q, tenant: "b".into() },
                Request::Consume { personality: q, tenant: "a".into() },
                Request::Consume { personality: q, tenant: "a".into() },
            ],
        );
        assert_eq!(
            &resps[2..],
            &[
                Response::Done,
                Response::Done,
                Response::Item { value: 2 },
                Response::Item { value: 1 },
                Response::Empty,
            ]
        );
    }

    fn code(resp: &Response) -> Option<ErrorCode> {
        match resp {
            Response::Error { code, .. } => Some(*code),
            _ => None,
        }
    }

    #[test]
    fn a_run_resolve_keeps_personalities_apart() {
        let map = map();
        let (q, p) = (Personality::TaskQueue, Personality::ObjectPool);
        map.get_or_create(q, "x", 0).unwrap();
        // object-pool/x does not exist: neither a hit nor a miss on
        // task-queue/x may stand for it, in either order.
        let resps = run(
            &map,
            &[
                Request::Produce { personality: q, tenant: "x".into(), value: 7 },
                Request::Produce { personality: p, tenant: "x".into(), value: 8 },
                Request::Consume { personality: p, tenant: "x".into() },
                Request::Consume { personality: q, tenant: "x".into() },
            ],
        );
        assert_eq!(resps[0], Response::Done);
        assert_eq!(code(&resps[1]), Some(ErrorCode::UnknownTenant));
        assert_eq!(code(&resps[2]), Some(ErrorCode::UnknownTenant));
        assert_eq!(resps[3], Response::Item { value: 7 });
    }

    #[test]
    fn a_produce_run_on_a_rate_limiter_answers_each_request() {
        let map = map();
        map.get_or_create(Personality::RateLimiter, "api", 10).unwrap();
        let produce = |v: u64| Request::Produce {
            personality: Personality::RateLimiter,
            tenant: "api".into(),
            value: v,
        };
        let resps = run(&map, &(0..4).map(produce).collect::<Vec<_>>());
        assert_eq!(resps.len(), 4);
        assert!(resps.iter().all(|r| code(r) == Some(ErrorCode::Unsupported)), "{resps:?}");
    }

    #[test]
    fn an_unknown_tenant_mid_frame_answers_per_request() {
        let map = map();
        let q = Personality::TaskQueue;
        map.get_or_create(q, "t", 0).unwrap();
        let produce =
            |name: &str, v: u64| Request::Produce { personality: q, tenant: name.into(), value: v };
        let resps = run(
            &map,
            &[
                produce("t", 1),
                produce("t", 2),
                produce("ghost", 3),
                produce("ghost", 4),
                produce("t", 5),
                Request::Consume { personality: q, tenant: "ghost".into() },
            ],
        );
        assert_eq!(&resps[..2], &[Response::Done, Response::Done]);
        assert_eq!(code(&resps[2]), Some(ErrorCode::UnknownTenant));
        assert_eq!(code(&resps[3]), Some(ErrorCode::UnknownTenant));
        assert_eq!(resps[4], Response::Done);
        assert_eq!(code(&resps[5]), Some(ErrorCode::UnknownTenant));
        let drained = run(&map, &vec![Request::Consume { personality: q, tenant: "t".into() }; 4]);
        assert_eq!(drained.iter().filter(|r| matches!(r, Response::Item { .. })).count(), 3);
    }

    #[test]
    fn an_over_ceiling_acquire_fails_only_at_its_index() {
        let map = map();
        map.get_or_create(Personality::RateLimiter, "api", 100).unwrap();
        let acquire = |cost: u32| Request::Acquire { tenant: "api".into(), cost };
        let resps = run(&map, &[acquire(1), acquire(MAX_ACQUIRE_COST + 1), acquire(1), acquire(1)]);
        assert_eq!(resps[0], Response::Decision { allowed: true, observed: 1, limit: 100 });
        assert_eq!(code(&resps[1]), Some(ErrorCode::BadRequest));
        assert_eq!(resps[2], Response::Decision { allowed: true, observed: 2, limit: 100 });
        assert_eq!(resps[3], Response::Decision { allowed: true, observed: 3, limit: 100 });
    }

    #[test]
    fn a_create_between_lookups_is_seen_by_the_next_one() {
        let map = map();
        let q = Personality::TaskQueue;
        let resps = run(
            &map,
            &[
                Request::Produce { personality: q, tenant: "late".into(), value: 1 },
                Request::Create { personality: q, tenant: "late".into(), limit: 0 },
                Request::Produce { personality: q, tenant: "late".into(), value: 2 },
            ],
        );
        assert_eq!(code(&resps[0]), Some(ErrorCode::UnknownTenant));
        assert_eq!(resps[1], Response::Created { fresh: true });
        assert_eq!(resps[2], Response::Done);
    }

    #[test]
    fn a_reset_between_acquires_runs_in_request_order() {
        let map = map();
        map.get_or_create(Personality::RateLimiter, "api", 100).unwrap();
        let acquire = |cost: u32| Request::Acquire { tenant: "api".into(), cost };
        let resps = run(&map, &[acquire(3), Request::Reset { tenant: "api".into() }, acquire(1)]);
        assert_eq!(
            resps,
            vec![
                Response::Decision { allowed: true, observed: 3, limit: 100 },
                Response::Done,
                Response::Decision { allowed: true, observed: 1, limit: 100 },
            ]
        );
    }

    #[test]
    fn stats_after_a_produce_in_the_same_frame_counts_it() {
        let map = map();
        let q = Personality::TaskQueue;
        map.get_or_create(q, "t", 0).unwrap();
        let resps = run(
            &map,
            &[
                Request::Produce { personality: q, tenant: "t".into(), value: 1 },
                Request::Stats { personality: q, tenant: "t".into() },
            ],
        );
        assert_eq!(resps[0], Response::Done);
        assert!(matches!(resps[1], Response::Stats { ops: 1, .. }), "{:?}", resps[1]);
    }

    #[test]
    fn shutdown_is_acknowledged_and_flagged() {
        let map = map();
        let (resps, next) = serve(&mut Connection::new(&map, 1), &[Request::Shutdown]);
        assert_eq!(resps, vec![Response::ShuttingDown]);
        assert_eq!(next, Next::Shutdown);
    }

    #[test]
    fn a_frame_with_a_malformed_last_request_runs_none_of_it() {
        let map = map();
        let (limiter, _) = map.get_or_create(Personality::RateLimiter, "api", 100).unwrap();
        run(&map, &[Request::Acquire { tenant: "api".into(), cost: 3 }]);
        let mut body = encode_request_batch(&[
            Request::Create {
                personality: Personality::ObjectPool,
                tenant: "new".into(),
                limit: 0,
            },
            Request::Reset { tenant: "api".into() },
            Request::Ping,
        ]);
        // The last request is the one-byte `Ping`: make its tag unknown.
        *body.last_mut().unwrap() = 0x7f;
        let mut wire = Vec::new();
        assert_eq!(Connection::new(&map, 1).serve_frame(&body, &mut wire), Next::Close);
        let resps = reply(&wire);
        assert!(matches!(resps[..], [Response::Error { code: ErrorCode::Malformed, .. }]));
        assert!(map.get(Personality::ObjectPool, "new").is_none(), "no tenant was created");
        assert_eq!(
            limiter.limiter_decision(),
            Some(Response::Decision { allowed: true, observed: 3, limit: 100 }),
            "no reset was applied"
        );
    }

    #[test]
    fn a_miss_is_not_cached_so_a_tenant_created_elsewhere_is_found() {
        let map = map();
        let q = Personality::TaskQueue;
        let produce = |v: u64| Request::Produce { personality: q, tenant: "late".into(), value: v };
        let (mut a, mut b) = (Connection::new(&map, 1), Connection::new(&map, 2));
        assert_eq!(code(&serve(&mut a, &[produce(1)]).0[0]), Some(ErrorCode::UnknownTenant));
        let create = Request::Create { personality: q, tenant: "late".into(), limit: 0 };
        assert_eq!(serve(&mut b, &[create]).0, vec![Response::Created { fresh: true }]);
        assert_eq!(serve(&mut a, &[produce(2)]).0, vec![Response::Done]);
        assert_eq!(a.cache.tenants.len(), 1);
    }

    #[test]
    fn the_cache_holds_each_tenant_once_for_the_connection() {
        let map = map();
        let (q, p) = (Personality::TaskQueue, Personality::ObjectPool);
        for (personality, name) in [(q, "a"), (q, "b"), (p, "a")] {
            map.get_or_create(personality, name, 0).unwrap();
        }
        let produce = |personality, name: &str| Request::Produce {
            personality,
            tenant: name.into(),
            value: 1,
        };
        let mut conn = Connection::new(&map, 1);
        for _ in 0..3 {
            let frame = [produce(q, "a"), produce(q, "b"), produce(p, "a"), produce(q, "a")];
            assert_eq!(serve(&mut conn, &frame).0, vec![Response::Done; 4]);
        }
        let cache = &conn.cache;
        assert_eq!(cache.tenants.len(), 3);
        assert_eq!(cache.index.iter().map(HashMap::len).sum::<usize>(), 3);
        assert_eq!(cache.index[slot(q)].len(), 2);
    }

    /// A writer that records the bytes of each `write` call separately.
    #[derive(Default)]
    struct Calls(Vec<Vec<u8>>);

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_reply_leaves_as_one_write_call() {
        let map = map();
        let q = Personality::TaskQueue;
        map.get_or_create(q, "t", 0).unwrap();
        let mut conn = Connection::new(&map, 1);
        let frames = [
            vec![
                Request::Produce { personality: q, tenant: "t".into(), value: 1 },
                Request::Consume { personality: q, tenant: "t".into() },
                Request::Consume { personality: q, tenant: "t".into() },
            ],
            vec![Request::Ping],
        ];
        for frame in &frames {
            let mut w = Calls::default();
            assert_eq!(conn.serve_frame(&encode_request_batch(frame), &mut w), Next::Continue);
            assert_eq!(w.0.len(), 1, "one write call per reply");
            assert_eq!(reply(&w.0[0]).len(), frame.len(), "the call holds the whole frame");
        }
        let mut w = Calls::default();
        assert_eq!(conn.serve_frame(&[1, 0, 0x7f], &mut w), Next::Close);
        assert_eq!(w.0.len(), 1, "a refusal is one write call too");
        assert!(matches!(reply(&w.0[0])[..], [Response::Error { code: ErrorCode::Malformed, .. }]));
    }
}
