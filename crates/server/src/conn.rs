//! Per-connection service loop: frames in, batches executed, frames out.
//!
//! Each accepted socket gets one OS thread running [`serve_connection`].
//! A request batch is executed in two passes: the first resolves every
//! request against the tenant table, looking up once per run of requests
//! that name the same tenant (producing either an immediate response or
//! a pending structure op holding its `Arc<Tenant>`), the second drives
//! the pending ops through per-tenant [`OpsHandle`]s that are created at
//! most once per frame and seeded with the connection id — so a
//! connection replays a deterministic locality/hop sequence on every
//! tenant it touches, batch after batch. The reply goes out as one write
//! (see [`write_frame`]), and the next request is awaited through a
//! [`FrameWait`], which spins briefly before it blocks.
//!
//! Failure policy (exercised by `tests/protocol_fuzz.rs`): a frame that
//! does not decode is answered with one typed `Malformed` error and the
//! connection closes, an oversized length prefix is answered with
//! `FrameTooLarge` and the connection closes, and a disconnect or torn
//! frame tears the connection down quietly. The server process never
//! panics on any input byte sequence.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;

use stack2d::sync::atomic::{AtomicBool, Ordering};
use stack2d::sync::Arc;
use stack2d::OpsHandle;

use crate::frame::{write_frame, FrameError, FrameEvent, FrameWait};
use crate::protocol::{
    decode_request_batch, encode_response_batch, ErrorCode, Personality, Request, Response,
};
use crate::tenant::{Tenant, TenantMap, MAX_ACQUIRE_COST};

/// Everything a connection thread needs, cloned per accept.
pub(crate) struct ConnContext {
    pub tenants: Arc<TenantMap>,
    pub stop: Arc<AtomicBool>,
    pub max_frame_len: u32,
    pub conn_id: u64,
}

/// Runs one connection to completion (EOF, error, or server shutdown).
pub(crate) fn serve_connection(stream: TcpStream, ctx: ConnContext) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    let mut wait = FrameWait::new();
    loop {
        if ctx.stop.load(Ordering::Acquire) {
            break;
        }
        match wait.read(&mut reader, ctx.max_frame_len) {
            Ok(FrameEvent::Idle) => continue,
            Ok(FrameEvent::Closed) => break,
            Ok(FrameEvent::Frame(body)) => match decode_request_batch(&body) {
                Ok(reqs) => {
                    let mut shutdown = false;
                    let resps = execute_batch(&ctx.tenants, ctx.conn_id, &reqs, &mut shutdown);
                    let ok = write_frame(&mut writer, &encode_response_batch(&resps)).is_ok();
                    if shutdown {
                        ctx.stop.store(true, Ordering::Release);
                        break;
                    }
                    if !ok {
                        break;
                    }
                }
                Err(e) => {
                    // Typed reply, then teardown: the stream position is
                    // no longer trustworthy after a malformed body.
                    let err = Response::Error { code: ErrorCode::Malformed, detail: e.to_string() };
                    let _ = write_frame(&mut writer, &encode_response_batch(&[err]));
                    break;
                }
            },
            Err(FrameError::Oversized(len)) => {
                let err = Response::Error {
                    code: ErrorCode::FrameTooLarge,
                    detail: format!("len {len}"),
                };
                let _ = write_frame(&mut writer, &encode_response_batch(&[err]));
                break;
            }
            Err(FrameError::Truncated | FrameError::Io(_)) => break,
        }
    }
}

/// A request after tenant resolution: either already answered, or a
/// structure op pending handle execution.
enum Slot {
    Ready(Response),
    Produce(Arc<Tenant>, u64),
    Consume(Arc<Tenant>),
    Acquire(Arc<Tenant>, u32),
}

fn unknown(personality: Personality, tenant: &str) -> Response {
    Response::Error {
        code: ErrorCode::UnknownTenant,
        detail: format!("{}/{tenant}", personality.name()),
    }
}

/// Tenant lookups for one frame's resolve pass. Consecutive lookups of
/// the same `(personality, name)` touch the tenant map once and share the
/// answer, found or not; a `Create` forgets it, since it may add the
/// tenant a remembered miss named. Every request still gets its own
/// slot, so errors stay per request and in order.
struct RunResolver<'m, 'r> {
    tenants: &'m TenantMap,
    last: Option<(Personality, &'r str, Option<Arc<Tenant>>)>,
}

impl<'r> RunResolver<'_, 'r> {
    fn get(&mut self, personality: Personality, name: &'r str) -> Option<Arc<Tenant>> {
        match &self.last {
            Some((p, n, found)) if *p == personality && *n == name => found.clone(),
            _ => {
                let found = self.tenants.get(personality, name);
                self.last = Some((personality, name, found.clone()));
                found
            }
        }
    }
}

fn resolve<'r>(runs: &mut RunResolver<'_, 'r>, req: &'r Request, shutdown: &mut bool) -> Slot {
    match req {
        Request::Ping => Slot::Ready(Response::Pong),
        Request::Shutdown => {
            *shutdown = true;
            Slot::Ready(Response::ShuttingDown)
        }
        Request::Create { personality, tenant, limit } => {
            runs.last = None;
            match runs.tenants.get_or_create(*personality, tenant, *limit) {
                Ok((_, fresh)) => Slot::Ready(Response::Created { fresh }),
                Err(err) => Slot::Ready(err),
            }
        }
        Request::Produce { personality, tenant, value } => match runs.get(*personality, tenant) {
            Some(t) if t.supports_ops() => Slot::Produce(t, *value),
            Some(_) => Slot::Ready(Response::Error {
                code: ErrorCode::Unsupported,
                detail: "use acquire on a rate-limiter".to_string(),
            }),
            None => Slot::Ready(unknown(*personality, tenant)),
        },
        Request::Consume { personality, tenant } => match runs.get(*personality, tenant) {
            Some(t) if t.supports_ops() => Slot::Consume(t),
            Some(_) => Slot::Ready(Response::Error {
                code: ErrorCode::Unsupported,
                detail: "rate-limiters cannot consume".to_string(),
            }),
            None => Slot::Ready(unknown(*personality, tenant)),
        },
        Request::Acquire { tenant, cost } => {
            if *cost > MAX_ACQUIRE_COST {
                return Slot::Ready(Response::Error {
                    code: ErrorCode::BadRequest,
                    detail: format!("cost {cost} over ceiling {MAX_ACQUIRE_COST}"),
                });
            }
            match runs.get(Personality::RateLimiter, tenant) {
                Some(t) => Slot::Acquire(t, *cost),
                None => Slot::Ready(unknown(Personality::RateLimiter, tenant)),
            }
        }
        Request::Reset { tenant } => match runs.get(Personality::RateLimiter, tenant) {
            Some(t) if t.limiter_reset() => Slot::Ready(Response::Done),
            Some(_) => Slot::Ready(Response::Error {
                code: ErrorCode::Unsupported,
                detail: "reset is rate-limiter only".to_string(),
            }),
            None => Slot::Ready(unknown(Personality::RateLimiter, tenant)),
        },
        Request::Stats { personality, tenant } => match runs.get(*personality, tenant) {
            Some(t) => Slot::Ready(t.stats()),
            None => Slot::Ready(unknown(*personality, tenant)),
        },
    }
}

/// Executes one pipelined batch in order, reusing one seeded handle per
/// tenant for the whole frame.
///
/// Adjacent same-tenant runs of one verb are coalesced into a single
/// batched structure call (`produce_n` / `consume_n`), so a pipelined
/// client pays one engine search round per run instead of one per
/// request. Responses still line up one-to-one with requests: a coalesced
/// produce run answers `Done` per request, and a consume run answers
/// `Item` for each value the batch returned, then `Empty` for the rest —
/// exactly what request-at-a-time execution would have produced, since
/// handles are exclusive to this frame.
pub(crate) fn execute_batch(
    tenants: &TenantMap,
    conn_seed: u64,
    reqs: &[Request],
    shutdown: &mut bool,
) -> Vec<Response> {
    let mut runs = RunResolver { tenants, last: None };
    let slots: Vec<Slot> = reqs.iter().map(|req| resolve(&mut runs, req, shutdown)).collect();
    // Handles borrow the tenants kept alive inside `slots`; keyed by
    // tenant identity so every request in the frame that touches the same
    // tenant shares one handle.
    let mut handles: HashMap<*const Tenant, Box<dyn OpsHandle<u64> + '_>> = HashMap::new();
    let mut out = Vec::with_capacity(slots.len());
    let mut i = 0;
    while i < slots.len() {
        let resp = match &slots[i] {
            Slot::Ready(resp) => resp.clone(),
            Slot::Produce(t, value) => {
                let mut values = vec![*value];
                let run = slots[i + 1..]
                    .iter()
                    .take_while(|s| matches!(s, Slot::Produce(nt, _) if Arc::ptr_eq(nt, t)))
                    .map(|s| match s {
                        Slot::Produce(_, v) => *v,
                        _ => unreachable!(),
                    });
                values.extend(run);
                let n = values.len();
                handle_for(&mut handles, t, conn_seed).produce_n(values);
                out.extend(std::iter::repeat_n(Response::Done, n));
                i += n;
                continue;
            }
            Slot::Consume(t) => {
                let n = 1 + slots[i + 1..]
                    .iter()
                    .take_while(|s| matches!(s, Slot::Consume(nt) if Arc::ptr_eq(nt, t)))
                    .count();
                let got = handle_for(&mut handles, t, conn_seed).consume_n(n);
                let misses = n - got.len();
                out.extend(got.into_iter().map(|value| Response::Item { value }));
                out.extend(std::iter::repeat_n(Response::Empty, misses));
                i += n;
                continue;
            }
            Slot::Acquire(t, cost) => {
                let h = handle_for(&mut handles, t, conn_seed);
                for _ in 0..*cost {
                    h.produce(1);
                }
                t.limiter_decision().unwrap_or(Response::Error {
                    code: ErrorCode::Unsupported,
                    detail: "not a rate-limiter".to_string(),
                })
            }
        };
        out.push(resp);
        i += 1;
    }
    out
}

fn handle_for<'m, 's>(
    handles: &'m mut HashMap<*const Tenant, Box<dyn OpsHandle<u64> + 's>>,
    tenant: &'s Arc<Tenant>,
    seed: u64,
) -> &'m mut Box<dyn OpsHandle<u64> + 's> {
    handles.entry(Arc::as_ptr(tenant)).or_insert_with(|| tenant.ops_handle(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantConfig;

    fn map() -> TenantMap {
        TenantMap::new(TenantConfig::default(), None)
    }

    fn run(map: &TenantMap, reqs: &[Request]) -> Vec<Response> {
        let mut shutdown = false;
        execute_batch(map, 1, reqs, &mut shutdown)
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
        let mut shutdown = false;
        execute_batch(
            &map,
            1,
            &[Request::Create {
                personality: Personality::RateLimiter,
                tenant: "api".into(),
                limit: 4,
            }],
            &mut shutdown,
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
    fn shutdown_is_acknowledged_and_flagged() {
        let map = map();
        let mut shutdown = false;
        let resps = execute_batch(&map, 1, &[Request::Shutdown], &mut shutdown);
        assert_eq!(resps, vec![Response::ShuttingDown]);
        assert!(shutdown);
    }
}
