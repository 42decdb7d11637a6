//! Client ↔ shard integration over a real Unix socket: bitwise
//! correctness against `Plan::execute`, pipelined batches, admission
//! control, size limits, the stats RPC, and the drain handshake.

use fmm_core::{FmmEngine, Workspace};
use fmm_matrix::DenseMatrix;
use fmm_serve::wire::{decode_matrix, encode_matrix, read_frame, write_frame};
use fmm_serve::{
    ErrorCode, Frame, ServeClient, ServeError, ShardConfig, ShardServer, ShardStatsReport,
    WireDtype,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

fn socket(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fmm-serve-basic-{}-{name}.sock",
        std::process::id()
    ))
}

/// The single-threaded `Plan::execute` reference the engine (and so
/// the whole serving stack) must match bitwise.
fn reference(a: &DenseMatrix<f64>, b: &DenseMatrix<f64>) -> DenseMatrix<f64> {
    let engine = FmmEngine::<f64>::builder().build().expect("engine");
    let plan = engine.plan_for(a.rows(), a.cols(), b.cols()).expect("plan");
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    let mut ws = Workspace::for_plan(&plan);
    plan.execute(a, b, &mut c, &mut ws);
    c
}

#[test]
fn served_multiply_is_bitwise_identical_to_plan_execute() {
    let shard = ShardServer::start(ShardConfig::new(socket("bitwise"))).expect("start shard");
    let mut client = ServeClient::connect(shard.socket()).expect("connect");

    let mut rng = StdRng::seed_from_u64(7);
    for &(m, k, n) in &[
        (64usize, 64usize, 64usize),
        (33, 70, 21),
        (1, 5, 1),
        (96, 48, 80),
    ] {
        let a = DenseMatrix::<f64>::random(m, k, &mut rng);
        let b = DenseMatrix::<f64>::random(k, n, &mut rng);
        let served = client.multiply(&a, &b).expect("served multiply");
        let local = reference(&a, &b);
        assert_eq!(
            served.as_slice(),
            local.as_slice(),
            "served {m}x{k}x{n} differs from Plan::execute"
        );
    }

    client.drain().expect("drain");
    shard.join().expect("shard exits after drain");
}

#[test]
fn f32_and_pipelined_batches_serve_correctly() {
    let shard = ShardServer::start(ShardConfig::new(socket("batch"))).expect("start shard");
    let mut client = ServeClient::connect(shard.socket()).expect("connect");

    // f32 rides the same shard (second hosted engine).
    let mut rng = StdRng::seed_from_u64(11);
    let a32 = DenseMatrix::<f32>::random(40, 52, &mut rng);
    let b32 = DenseMatrix::<f32>::random(52, 36, &mut rng);
    let engine32 = FmmEngine::<f32>::builder().build().expect("engine");
    let want32 = engine32.multiply(&a32, &b32).expect("local f32");
    let got32 = client.multiply(&a32, &b32).expect("served f32");
    assert_eq!(got32.as_slice(), want32.as_slice());

    // A pipelined batch of mixed shapes returns per-slot results in
    // request order.
    let batch: Vec<(DenseMatrix<f64>, DenseMatrix<f64>)> = (0..6)
        .map(|i| {
            let (m, k, n) = (32 + 8 * i, 48, 24 + 4 * i);
            (
                DenseMatrix::random(m, k, &mut rng),
                DenseMatrix::random(k, n, &mut rng),
            )
        })
        .collect();
    let results = client.multiply_batch(&batch).expect("batch transport");
    assert_eq!(results.len(), batch.len());
    for ((a, b), result) in batch.iter().zip(results) {
        let got = result.expect("batch slot");
        assert_eq!(got.as_slice(), reference(a, b).as_slice());
    }

    client.drain().expect("drain");
    shard.join().expect("shard exits");
}

#[test]
fn shape_mismatch_is_rejected_client_side_and_server_side() {
    let shard = ShardServer::start(ShardConfig::new(socket("shape"))).expect("start shard");
    let mut client = ServeClient::connect(shard.socket()).expect("connect");

    let mut rng = StdRng::seed_from_u64(3);
    let a = DenseMatrix::<f64>::random(8, 9, &mut rng);
    let b = DenseMatrix::<f64>::random(10, 8, &mut rng);
    match client.multiply(&a, &b) {
        Err(ServeError::ShapeMismatch {
            a_cols: 9,
            b_rows: 10,
        }) => {}
        other => panic!("expected client-side shape rejection, got {other:?}"),
    }

    // The connection survives a rejected request.
    let b_ok = DenseMatrix::<f64>::random(9, 8, &mut rng);
    client.multiply(&a, &b_ok).expect("connection still usable");

    client.drain().expect("drain");
    shard.join().expect("shard exits");
}

#[test]
fn oversized_product_is_a_typed_shape_error_and_the_connection_survives() {
    let shard = ShardServer::start(ShardConfig::new(socket("oversized"))).expect("start shard");
    // The client refuses to build a request whose product exceeds the
    // frame cap, so speak the wire protocol directly.
    let mut stream = UnixStream::connect(shard.socket()).expect("connect");
    let mut rng = StdRng::seed_from_u64(13);
    let mut request = |id, m: usize, k: usize, n: usize| {
        let a = DenseMatrix::<f64>::random(m, k, &mut rng);
        let b = DenseMatrix::<f64>::random(k, n, &mut rng);
        let frame = Frame::MultiplyReq {
            id,
            dtype: WireDtype::F64,
            m: m as u32,
            k: k as u32,
            n: n as u32,
            a: encode_matrix(&a),
            b: encode_matrix(&b),
        };
        (a, b, frame)
    };

    // 48 KB operands, 288 MB product; then a product of exactly
    // MAX_FRAME bytes, whose response header would push it past.
    for (id, (m, k, n)) in [(1, (6000, 1, 6000)), (2, (16384, 1, 2048))] {
        let (_, _, huge) = request(id, m, k, n);
        write_frame(&mut stream, &huge).expect("send");
        match read_frame(&mut stream).expect("response") {
            Some(Frame::Error {
                id: got,
                code: ErrorCode::Shape,
                ..
            }) if got == id => {}
            other => panic!("{m}x{k}x{n}: expected a typed shape error, got {other:?}"),
        }
    }

    // The same connection still multiplies.
    let (a, b, small) = request(3, 16, 8, 16);
    write_frame(&mut stream, &small).expect("send");
    match read_frame(&mut stream).expect("response") {
        Some(Frame::MultiplyOk { id: 3, c, .. }) => {
            let got = decode_matrix::<f64>(16, 16, &c).expect("decode product");
            assert_eq!(got.as_slice(), reference(&a, &b).as_slice());
        }
        other => panic!("expected a product, got {other:?}"),
    }

    drop(stream);
    let mut client = ServeClient::connect(shard.socket()).expect("connect");
    // The client applies the same rule before sending.
    let (a, b, _) = request(4, 16384, 1, 2048);
    match client.multiply(&a, &b) {
        Err(ServeError::TooLarge) => {}
        other => panic!("expected a client-side size rejection, got {other:?}"),
    }
    client.drain().expect("drain");
    shard.join().expect("shard exits");
}

#[test]
fn a_sender_stalled_mid_frame_is_served_not_dropped() {
    // The shard reads with its 50 ms poll tick as the socket timeout.
    // A sender descheduled for several ticks between two writes of one
    // frame must still get its product on the same connection.
    let shard = ShardServer::start(ShardConfig::new(socket("stall"))).expect("start shard");
    let mut stream = UnixStream::connect(shard.socket()).expect("connect");
    let mut rng = StdRng::seed_from_u64(17);
    let a = DenseMatrix::<f64>::random(64, 48, &mut rng);
    let b = DenseMatrix::<f64>::random(48, 40, &mut rng);
    let payload = Frame::MultiplyReq {
        id: 1,
        dtype: WireDtype::F64,
        m: 64,
        k: 48,
        n: 40,
        a: encode_matrix(&a),
        b: encode_matrix(&b),
    }
    .encode();
    let (head, tail) = payload.split_at(payload.len() / 2);
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .expect("send prefix");
    stream.write_all(head).expect("send first half");
    std::thread::sleep(Duration::from_millis(200));
    stream.write_all(tail).expect("send second half");
    match read_frame(&mut stream).expect("response") {
        Some(Frame::MultiplyOk { id: 1, c, .. }) => {
            let got = decode_matrix::<f64>(64, 40, &c).expect("decode product");
            assert_eq!(got.as_slice(), reference(&a, &b).as_slice());
        }
        other => panic!("expected the product, got {other:?}"),
    }

    drop(stream);
    let mut client = ServeClient::connect(shard.socket()).expect("connect");
    let report = ShardStatsReport::from_json(&client.stats_json().expect("stats rpc"))
        .expect("parse report");
    assert_eq!(report.malformed, 0, "the stalled frame was not dropped");
    client.drain().expect("drain");
    shard.join().expect("shard exits");
}

#[test]
fn stats_rpc_reports_served_work() {
    let shard = ShardServer::start(ShardConfig::new(socket("stats"))).expect("start shard");
    let mut client = ServeClient::connect(shard.socket()).expect("connect");

    let mut rng = StdRng::seed_from_u64(5);
    let a = DenseMatrix::<f64>::random(32, 32, &mut rng);
    let b = DenseMatrix::<f64>::random(32, 32, &mut rng);
    for _ in 0..5 {
        client.multiply(&a, &b).expect("serve");
    }

    let report = ShardStatsReport::from_json(&client.stats_json().expect("stats rpc"))
        .expect("parse report");
    assert_eq!(report.served, 5);
    assert_eq!(report.engine_f64.multiplies, 5);
    assert_eq!(report.engine_f32.multiplies, 0);
    assert_eq!(report.engine_multiplies(), 5);
    assert!(!report.draining);
    // One shape, five requests: the plan cache worked.
    assert_eq!(report.engine_f64.plan_cache_misses, 1);
    assert_eq!(report.engine_f64.plan_cache_hits, 4);

    let health = client.health().expect("health rpc");
    assert_eq!(health.queue_depth, 0);
    assert!(!health.draining);

    client.drain().expect("drain");
    shard.join().expect("shard exits");
}

#[test]
fn draining_shard_refuses_new_work_with_typed_error() {
    let shard = ShardServer::start(ShardConfig::new(socket("drain"))).expect("start shard");
    let mut rng = StdRng::seed_from_u64(9);
    let a = DenseMatrix::<f64>::random(16, 16, &mut rng);
    let b = DenseMatrix::<f64>::random(16, 16, &mut rng);

    // Second connection drains the shard while the first stays open.
    let mut closer = ServeClient::connect(shard.socket()).expect("connect closer");
    let mut client = ServeClient::connect(shard.socket()).expect("connect client");
    client.multiply(&a, &b).expect("pre-drain multiply");
    closer.drain().expect("drain");

    // In-flight connections now get a typed Draining rejection (until
    // the process exits and the socket disappears entirely).
    match client.multiply(&a, &b) {
        Err(ServeError::Remote { code, .. }) => {
            assert_eq!(code, fmm_serve::ErrorCode::Draining);
        }
        // The shard may already have torn the socket down.
        Err(ServeError::Wire(_)) | Err(ServeError::Connect(_)) => {}
        Ok(_) => panic!("a draining shard must not serve new work"),
        Err(other) => panic!("unexpected error: {other}"),
    }

    shard.join().expect("shard exits after drain");
}
