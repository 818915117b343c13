//! Robustness fuzzing: no byte sequence may panic the codec, the framer,
//! or a live server.
//!
//! Three layers, matching the attack surface from the outside in: raw
//! bytes into `read_frame`, raw bodies into the batch decoders, and raw
//! bytes over a real TCP connection into a running server (which must
//! answer with a typed error or tear the connection down — and keep
//! serving everyone else).

use std::io::{Cursor, Write};
use std::net::TcpStream;

use proptest::collection::vec;
use proptest::prelude::*;

use relaxed2d_server::frame::{read_frame, write_frame};
use relaxed2d_server::protocol::{
    decode_request_batch, decode_request_views, decode_response_batch, encode_request_batch,
    Personality, Request, RequestView, Response,
};
use relaxed2d_server::{Client, Server, ServerConfig};

/// An arbitrary *valid* request, for corruption/truncation starting points.
fn arb_request() -> impl Strategy<Value = Request> {
    (any::<u8>(), any::<u8>(), any::<u64>(), vec(any::<u8>(), 1..12)).prop_map(
        |(sel, pers, num, name_seed)| {
            let personality = Personality::ALL[pers as usize % Personality::ALL.len()];
            let tenant: String = name_seed.iter().map(|b| char::from(b'a' + b % 26)).collect();
            match sel % 8 {
                0 => Request::Ping,
                1 => Request::Create { personality, tenant, limit: num },
                2 => Request::Produce { personality, tenant, value: num },
                3 => Request::Consume { personality, tenant },
                4 => Request::Acquire { tenant, cost: num as u32 },
                5 => Request::Reset { tenant },
                6 => Request::Stats { personality, tenant },
                _ => Request::Shutdown,
            }
        },
    )
}

/// The tenant name a view carries, if any.
fn view_name<'a>(view: &RequestView<'a>) -> Option<&'a str> {
    match *view {
        RequestView::Ping | RequestView::Shutdown => None,
        RequestView::Create { tenant, .. }
        | RequestView::Produce { tenant, .. }
        | RequestView::Consume { tenant, .. }
        | RequestView::Acquire { tenant, .. }
        | RequestView::Reset { tenant }
        | RequestView::Stats { tenant, .. } => Some(tenant),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Decoding is total: arbitrary bodies produce Ok or a typed error.
    #[test]
    fn arbitrary_bodies_never_panic_the_decoders(body in vec(any::<u8>(), 0..256)) {
        let _ = decode_request_batch(&body);
        let _ = decode_response_batch(&body);
    }

    /// The borrowed decoder the server runs and the owned one agree on
    /// every input: the same typed error, or the same requests once the
    /// views are owned. Half the bodies start from a valid batch so the
    /// agreement is checked on parses too, not only on rejections.
    #[test]
    fn borrowed_and_owned_decoders_agree(
        junk in vec(any::<u8>(), 0..256),
        reqs in vec(arb_request(), 1..8),
        pos_seed in any::<u64>(),
        xor in any::<u8>(),
    ) {
        let mut valid = encode_request_batch(&reqs);
        let pos = (pos_seed as usize) % valid.len();
        valid[pos] ^= xor;
        for body in [&junk, &valid] {
            let views = decode_request_views(body);
            if let Ok(views) = &views {
                for name in views.iter().filter_map(view_name) {
                    prop_assert!(body.as_ptr_range().contains(&name.as_ptr()), "a borrowed name");
                }
            }
            let owned = views.map(|v| v.into_iter().map(RequestView::to_owned).collect::<Vec<_>>());
            if let Ok(reqs) = &owned {
                // Decoding is exact: what parsed re-encodes to the same bytes.
                prop_assert_eq!(&encode_request_batch(reqs), body);
            }
            prop_assert_eq!(owned, decode_request_batch(body));
        }
    }

    /// Framing is total: arbitrary streams produce an event or a typed
    /// error, whatever the declared prefix says.
    #[test]
    fn arbitrary_streams_never_panic_the_framer(bytes in vec(any::<u8>(), 0..64)) {
        let mut r = Cursor::new(bytes);
        loop {
            use relaxed2d_server::FrameEvent;
            match read_frame(&mut r, 1 << 12) {
                Ok(FrameEvent::Frame(_)) => continue,
                Ok(FrameEvent::Idle) | Ok(FrameEvent::Closed) | Err(_) => break,
            }
        }
    }

    /// Valid batches survive the codec exactly.
    #[test]
    fn valid_batches_round_trip(reqs in vec(arb_request(), 1..16)) {
        let decoded = decode_request_batch(&encode_request_batch(&reqs));
        prop_assert_eq!(decoded.as_deref(), Ok(reqs.as_slice()));
    }

    /// Every strict prefix of a valid body fails loudly, never silently
    /// succeeds with different meaning, never panics.
    #[test]
    fn truncated_batches_are_typed_errors(
        reqs in vec(arb_request(), 1..8),
        cut_seed in any::<u64>(),
    ) {
        let body = encode_request_batch(&reqs);
        let cut = (cut_seed as usize) % body.len();
        prop_assert!(decode_request_batch(&body[..cut]).is_err());
    }

    /// Single-byte corruption anywhere in a valid body must not panic.
    #[test]
    fn corrupted_batches_never_panic(
        reqs in vec(arb_request(), 1..8),
        pos_seed in any::<u64>(),
        xor in 1..=255u8,
    ) {
        let mut body = encode_request_batch(&reqs);
        let pos = (pos_seed as usize) % body.len();
        body[pos] ^= xor;
        let _ = decode_request_batch(&body);
    }
}

// ---------------------------------------------------------------------------
// Live-server robustness
// ---------------------------------------------------------------------------

fn spawn_server() -> relaxed2d_server::ServerHandle {
    Server::spawn(ServerConfig { max_frame_len: 1 << 12, ..ServerConfig::default() })
        .expect("bind 127.0.0.1:0")
}

/// Sends raw bytes to the server, returns once the server answers or
/// hangs up. The server must never die: afterwards the caller re-pings.
fn poke(addr: std::net::SocketAddr, bytes: &[u8]) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let _ = s.write_all(bytes);
    let _ = s.flush();
    // Half-close so the server sees EOF (a torn frame) immediately rather
    // than burning its mid-frame stall budget.
    let _ = s.shutdown(std::net::Shutdown::Write);
    // Either a typed error frame or EOF — both fine.
    let _ = read_frame(&mut s, 1 << 12);
}

#[test]
fn malformed_frames_get_typed_errors_and_the_server_survives() {
    let handle = spawn_server();
    let addr = handle.local_addr();

    // A frame whose body is garbage: must answer Malformed then close.
    let mut s = TcpStream::connect(addr).expect("connect");
    write_frame(&mut s, &[0xff, 0xee, 0xdd]).expect("send");
    match read_frame(&mut s, 1 << 12) {
        Ok(relaxed2d_server::FrameEvent::Frame(body)) => {
            let resps = decode_response_batch(&body).expect("error reply decodes");
            assert!(
                matches!(
                    resps.as_slice(),
                    [Response::Error { code: relaxed2d_server::ErrorCode::Malformed, .. }]
                ),
                "expected one Malformed error, got {resps:?}"
            );
        }
        other => panic!("expected an error frame, got {other:?}"),
    }

    // An oversized declared length: typed FrameTooLarge, no allocation.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&u32::MAX.to_le_bytes()).expect("send");
    match read_frame(&mut s, 1 << 12) {
        Ok(relaxed2d_server::FrameEvent::Frame(body)) => {
            let resps = decode_response_batch(&body).expect("error reply decodes");
            assert!(matches!(
                resps.as_slice(),
                [Response::Error { code: relaxed2d_server::ErrorCode::FrameTooLarge, .. }]
            ));
        }
        other => panic!("expected an error frame, got {other:?}"),
    }

    // Mid-frame disconnect: declared 100 bytes, sent 3, hung up.
    poke(addr, &[100, 0, 0, 0, 1, 2, 3]);
    // Torn length prefix.
    poke(addr, &[9, 0]);
    // A pile of junk with no framing discipline at all.
    poke(addr, &[0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff]);

    // After all of that the server still serves fresh connections.
    let mut client = Client::connect(addr).expect("connect after abuse");
    assert_eq!(client.ping().expect("ping"), Response::Pong);
    drop(client);
    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn random_junk_over_tcp_never_kills_the_server() {
    let handle = spawn_server();
    let addr = handle.local_addr();
    // Deterministic pseudo-junk: a keyed xorshift stream, sliced into
    // connections of varying length.
    let mut state = 0x9e3779b97f4a7c15u64;
    for conn in 0..24 {
        let mut junk = Vec::with_capacity(64);
        for _ in 0..(8 + conn * 3) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            junk.extend_from_slice(&state.to_le_bytes());
        }
        poke(addr, &junk);
    }
    let mut client = Client::connect(addr).expect("connect after junk storm");
    assert_eq!(client.ping().expect("ping"), Response::Pong);
    drop(client);
    handle.shutdown().expect("graceful shutdown");
}
