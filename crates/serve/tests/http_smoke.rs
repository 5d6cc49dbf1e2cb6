//! End-to-end over a real socket: bind an ephemeral port, serve from
//! scoped threads, hit every endpoint with the shared client, shut down
//! cleanly, and join the server thread.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use govscan_pki::Time;
use govscan_scanner::{ScanDataset, StudyPipeline};
use govscan_serve::{http, json, ServeState, Server};
use govscan_store::Snapshot;
use govscan_worldgen::{World, WorldConfig};

#[test]
fn serves_every_endpoint_over_tcp_and_shuts_down() {
    let dir = std::env::temp_dir().join(format!("govscan-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let world = World::generate(&WorldConfig::small(0x7EA));
    let scan = StudyPipeline::new(&world).run().scan;
    let path = dir.join("smoke.snap");
    Snapshot::write_file(&path, &scan).expect("write archive");

    let state = Arc::new(ServeState::load(&[&path]).expect("load"));
    let server = Server::bind(("127.0.0.1", 0), Arc::clone(&state), 4).expect("bind");
    let addr = server.local_addr().expect("addr");
    let (done, returned) = mpsc::channel();
    let thread = std::thread::spawn(move || done.send(server.run()));

    let host = scan.records()[0].hostname.clone();
    let cc = scan
        .records()
        .iter()
        .find_map(|r| r.country)
        .expect("a country");
    let paths = [
        "/snapshots".to_owned(),
        "/table2".to_owned(),
        "/choropleth".to_owned(),
        format!("/hosts/{host}"),
        format!("/countries/{cc}"),
        "/diff?from=smoke&to=smoke".to_owned(),
    ];
    for path in &paths {
        let (status, body) = http::get(addr, path).expect("request");
        assert_eq!(status, 200, "GET {path}: {body}");
        json::parse(&body).unwrap_or_else(|e| panic!("GET {path}: bad JSON ({e}): {body}"));
    }

    // Errors travel the wire as JSON too.
    let (status, body) = http::get(addr, "/hosts/absent.example.gov").expect("request");
    assert_eq!(status, 404, "{body}");
    assert!(json::parse(&body).unwrap().get("error").is_some(), "{body}");

    // A percent-encoded hostname reaches the same record as the plain
    // one, and a malformed escape is a 400, not a lookup miss.
    let plain = http::get(addr, &format!("/hosts/{host}"))
        .expect("request")
        .1;
    let encoded = format!("/hosts/{}", host.replace('.', "%2E"));
    let (status, body) = http::get(addr, &encoded).expect("request");
    assert_eq!(status, 200, "GET {encoded}: {body}");
    assert_eq!(body, plain, "encoded and plain lookups agree");
    let (status, body) = http::get(addr, "/hosts/bad%zzname").expect("request");
    assert_eq!(status, 400, "{body}");
    assert_eq!(
        json::parse(&body)
            .unwrap()
            .get("error")
            .and_then(|e| e.as_str()),
        Some("bad_request"),
        "{body}"
    );

    // Concurrent clients hammering the cached report all get the same
    // bytes back.
    let baseline = http::get(addr, "/table2").expect("request").1;
    let clients: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(move || http::get(addr, "/table2").expect("request")))
        .collect();
    for c in clients {
        let (status, body) = c.join().expect("client thread");
        assert_eq!(status, 200);
        assert_eq!(body, baseline);
    }

    let (status, _) = http::get(addr, "/shutdown").expect("shutdown");
    assert_eq!(status, 200);
    await_return(&returned, thread, "4 threads");
}

/// Wait at most 5 s for `run` to report through `returned` after
/// `/shutdown`, then join its thread: a shutdown that fails to wake a
/// serving thread fails the test instead of hanging it.
fn await_return(
    returned: &mpsc::Receiver<std::io::Result<()>>,
    thread: std::thread::JoinHandle<Result<(), mpsc::SendError<std::io::Result<()>>>>,
    server: &str,
) {
    returned
        .recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|e| panic!("no return within 5 s of /shutdown ({server}): {e}"))
        .expect("server exits cleanly");
    thread
        .join()
        .expect("server thread")
        .expect("result received");
}

/// The Slowloris fix: a connection that never sends a byte must time
/// out and release its serving thread — with one thread, a subsequent
/// real request only succeeds if the silent one stopped pinning it.
#[test]
fn silent_connection_times_out_and_frees_its_worker() {
    use std::io::Read;

    let dir = std::env::temp_dir().join(format!("govscan-serve-slow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let world = World::generate(&WorldConfig::small(0x510));
    let scan = StudyPipeline::new(&world).run().scan;
    let path = dir.join("slow.snap");
    Snapshot::write_file(&path, &scan).expect("write archive");

    let state = Arc::new(ServeState::load(&[&path]).expect("load"));
    let server = Server::bind(("127.0.0.1", 0), Arc::clone(&state), 1)
        .expect("bind")
        .with_io_timeout(Duration::from_millis(200));
    let addr = server.local_addr().expect("addr");
    let (done, returned) = mpsc::channel();
    let thread = std::thread::spawn(move || done.send(server.run()));

    // Occupy the only serving thread with a dead-silent connection.
    let mut silent = std::net::TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(50)); // let the thread accept it

    // The thread must shed the silent peer within the timeout and serve
    // this real request.
    let (status, body) = http::get(addr, "/snapshots").expect("request after timeout");
    assert_eq!(status, 200, "{body}");

    // The silent connection was answered with a 400 (read timed out)
    // and closed, not left hanging.
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("client timeout");
    let mut response = String::new();
    silent
        .read_to_string(&mut response)
        .expect("server closed the connection");
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "silent connection got: {response:?}"
    );

    let (status, _) = http::get(addr, "/shutdown").expect("shutdown");
    assert_eq!(status, 200);
    await_return(&returned, thread, "1 thread, silent peer shed");
}

/// The wake path: the thread that answers `/shutdown` self-connects
/// once per other serving thread, so every thread blocked in `accept`
/// wakes and `run` returns, also while one thread is still pinned by a
/// silent connection.
#[test]
fn shutdown_wakes_every_serving_thread() {
    let dir = std::env::temp_dir().join(format!("govscan-serve-wake-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("empty.snap");
    Snapshot::write_file(&path, &ScanDataset::new(Vec::new(), Time(0))).expect("write archive");
    let state = Arc::new(ServeState::load(&[&path]).expect("load"));

    for threads in [1, 2, 4] {
        let server = Server::bind(("127.0.0.1", 0), Arc::clone(&state), threads)
            .expect("bind")
            .with_io_timeout(Duration::from_millis(200));
        let addr = server.local_addr().expect("addr");
        let (done, returned) = mpsc::channel();
        let thread = std::thread::spawn(move || done.send(server.run()));

        // Pin one serving thread with a connection that never sends a
        // byte, so it is busy, not blocked in `accept`, at shutdown. The
        // sleep only makes that likely: `run` must return either way.
        let _silent = (threads >= 2).then(|| {
            let silent = std::net::TcpStream::connect(addr).expect("connect");
            std::thread::sleep(Duration::from_millis(50)); // let a thread accept it
            silent
        });

        let (status, _) = http::get(addr, "/shutdown").expect("shutdown");
        assert_eq!(status, 200);
        await_return(&returned, thread, &format!("{threads} threads"));
    }
}
