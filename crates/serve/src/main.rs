//! `govscan-serve` — long-running query daemon over snapshot archives.
//!
//! ```text
//! govscan-serve --archive before.snap --archive after.snap --port 7070
//! govscan-serve --archive epoch-0.snap --delta epoch-1.dlt --delta epoch-2.dlt
//! govscan-serve --archive before.snap --self-check
//! ```
//!
//! Archives load lazily: startup validates headers and section tables
//! only, so the daemon is ready in milliseconds even for large
//! archives. Sections decode (and checksum-verify) on first touch.
//! `--delta` files chain onto the preceding `--archive`, registering
//! one addressable epoch each; a chain whose deltas fail to resolve
//! keeps its healthy prefix serving while requests naming the broken
//! part answer 400 with the typed store error.
//!
//! `GOVSCAN_THREADS` sets the number of serving threads, as it sets
//! every thread count in the workspace. An unknown argument, or a flag
//! left without its value, is a usage error (exit status 2).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use govscan_serve::http;
use govscan_serve::json;
use govscan_serve::server::ChainSpec;
use govscan_serve::{ServeState, Server};

struct Args {
    chains: Vec<ChainSpec>,
    port: u16,
    self_check: bool,
}

const USAGE: &str = "usage: govscan-serve --archive <path> [--delta <path>...] ... \
                     [--port N] [--self-check]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        chains: Vec::new(),
        port: 0,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--archive" => args.chains.push(ChainSpec {
                base: PathBuf::from(value("--archive")?),
                deltas: Vec::new(),
            }),
            "--delta" => {
                let path = PathBuf::from(value("--delta")?);
                match args.chains.last_mut() {
                    Some(chain) => chain.deltas.push(path),
                    None => {
                        return Err(format!(
                            "--delta must follow the --archive it chains onto\n{USAGE}"
                        ))
                    }
                }
            }
            "--port" => {
                args.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("bad --port: {e}"))?;
            }
            "--self-check" => args.self_check = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.chains.is_empty() {
        return Err(format!("at least one --archive is required\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let state = match ServeState::load_chains(&args.chains) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("failed to load archives: {e}");
            return ExitCode::FAILURE;
        }
    };
    for a in state.archives() {
        eprintln!(
            "loaded {} (chain {} epoch {}, {} hosts, {} certs, digest {})",
            a.label(),
            a.chain(),
            a.epoch(),
            a.snapshot().host_count(),
            a.snapshot().cert_count(),
            &a.digest_hex()[..12],
        );
    }
    for b in state.broken() {
        eprintln!(
            "warning: chain {} left unresolved at {} — requests naming it will 400",
            b.chain, b.detail
        );
    }
    let threads = govscan_exec::resolve_threads("GOVSCAN_THREADS");
    let server = match Server::bind(("127.0.0.1", args.port), Arc::clone(&state), threads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("failed to read bound address: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.self_check {
        return self_check(server, &state, addr);
    }
    println!("listening on http://{addr}");
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// How long `--self-check` waits for `Server::run` to return after
/// `/shutdown` before it fails.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(5);

/// Hit every endpoint against a live socket, verify each answer is
/// well-formed JSON with the expected status, then shut down cleanly.
/// Exercises the same code paths as production serving — the routing,
/// the serving threads, and the real TCP layer. A server still running
/// [`SHUTDOWN_DEADLINE`] after `/shutdown` is a failure, and the
/// process exits there.
fn self_check(server: Server, state: &ServeState, addr: std::net::SocketAddr) -> ExitCode {
    let first = &state.archives()[0];
    let mut paths = vec![
        "/snapshots".to_owned(),
        "/table2".to_owned(),
        "/table2".to_owned(), // warm hit, served from the report cache
        "/choropleth".to_owned(),
        format!("/trends?chain={}", first.chain()),
        format!(
            "/diff?from={}&to={}",
            first.label(),
            state
                .archives()
                .last()
                .map_or_else(|| first.label(), |a| a.label()),
        ),
    ];
    match first.snapshot().host(0) {
        Ok(Some(record)) => {
            paths.push(format!("/hosts/{}", record.hostname));
            if let Some(cc) = record.country {
                paths.push(format!("/countries/{cc}"));
            }
        }
        Ok(None) => eprintln!("archive has no hosts; skipping /hosts and /countries checks"),
        Err(e) => {
            eprintln!("self-check: failed to read host 0: {e}");
            return ExitCode::FAILURE;
        }
    }
    let failed = std::thread::scope(|s| {
        let (done, returned) = mpsc::channel();
        let thread = s.spawn(move || {
            // A send fails only once the receiver is gone, and then
            // nothing waits for the result.
            let _ = done.send(server.run());
        });
        let mut failed = false;
        for path in &paths {
            match http::get(addr, path) {
                Ok((200, body)) if json::parse(&body).is_ok() => {
                    eprintln!("ok   GET {path} ({} bytes)", body.len());
                }
                Ok((status, body)) => {
                    eprintln!("FAIL GET {path}: status {status}, body {body:.100}");
                    failed = true;
                }
                Err(e) => {
                    eprintln!("FAIL GET {path}: {e}");
                    failed = true;
                }
            }
        }
        let (hits, misses) = state.cache_stats();
        eprintln!("report cache: {hits} hits, {misses} misses");
        if hits == 0 {
            eprintln!("FAIL: repeated /table2 was not served from the report cache");
            failed = true;
        }
        if let Err(e) = http::get(addr, "/shutdown") {
            eprintln!("FAIL GET /shutdown: {e}");
            failed = true;
        }
        match returned.recv_timeout(SHUTDOWN_DEADLINE) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                eprintln!("FAIL: server exited with error: {e}");
                failed = true;
            }
            Err(RecvTimeoutError::Timeout) => {
                // The scope would wait for the server thread forever, and
                // a scoped thread cannot be left behind: exit here.
                eprintln!(
                    "FAIL: server still running {} s after /shutdown",
                    SHUTDOWN_DEADLINE.as_secs()
                );
                std::process::exit(1);
            }
            Err(RecvTimeoutError::Disconnected) => {}
        }
        if thread.join().is_err() {
            eprintln!("FAIL: server thread panicked");
            failed = true;
        }
        failed
    });
    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!("self-check passed ({} endpoints)", paths.len());
        ExitCode::SUCCESS
    }
}
