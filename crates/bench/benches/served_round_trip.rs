//! Whole-request cost over the server: one in-process `relaxed2d-server`
//! on loopback, one `Client`, and 32-request frames to one object-pool
//! tenant. Each iteration is two round trips, a frame of 32 `Produce`s
//! and a frame of 32 `Consume`s, so the tenant's occupancy stays at its
//! prefill. The time covers encode, the socket write, the server's
//! decode, tenant resolve, one `produce_n`/`consume_n`, the reply encode
//! and the client's wait, read and decode; the structure ops alone are
//! `mem_batch/batch`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use relaxed2d_server::{Client, Personality, Request, Response, Server, ServerConfig};

/// Requests per frame, as in the repository benchmark's served workload.
const DEPTH: usize = 32;

/// Items in the pool before timing, so consumes do not find it empty.
const PREFILL: u64 = 1_024;

fn bench_round_trip(c: &mut Criterion) {
    let server = Server::spawn(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let pool = Personality::ObjectPool;
    client.create(pool, "bench", 0).expect("create");
    let produce =
        |value: u64| Request::Produce { personality: pool, tenant: "bench".into(), value };
    let prefill: Vec<Request> = (0..PREFILL).map(produce).collect();
    for chunk in prefill.chunks(DEPTH) {
        client.call(chunk).expect("prefill");
    }
    let produces: Vec<Request> = (0..DEPTH as u64).map(produce).collect();
    let consumes = vec![Request::Consume { personality: pool, tenant: "bench".into() }; DEPTH];

    let mut group = c.benchmark_group("served_round_trip");
    group.throughput(Throughput::Elements(2 * DEPTH as u64));
    group.bench_function("object-pool/produce+consume", |b| {
        b.iter(|| {
            client.call(&produces).expect("produce frame");
            let got = client.call(&consumes).expect("consume frame");
            debug_assert!(got.iter().all(|r| matches!(r, Response::Item { .. })));
            got
        });
    });
    group.finish();
    drop(client);
    server.shutdown().expect("shutdown");
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_millis(1_500))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    targets = bench_round_trip
}
criterion_main!(benches);
