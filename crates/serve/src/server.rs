//! The daemon core: loaded archives, routing, report cache, accept loop.
//!
//! [`ServeState::respond`] is a pure `Request -> Response` function so
//! the integration tests and the `--self-check` mode exercise the exact
//! production routing without a socket. [`Server`] adds the TCP layer:
//! scoped threads that each accept from the shared listener, one
//! exchange per connection.
//!
//! Rendered reports (`/table2`, `/choropleth`, `/countries/{cc}`,
//! `/diff`) are cached keyed by the owning archive's content digest.
//! Archives are immutable once loaded, so cache entries are never
//! invalidated — a warm report query is a map lookup plus a socket
//! write.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use govscan_analysis::aggregate::AggregateIndex;
use govscan_analysis::choropleth::{self, CountryRow};
use govscan_analysis::{table2, trend};
use govscan_scanner::ErrorCategory;
use govscan_store::{diff_datasets, Result, Snapshot, StoreError};

use crate::api::{
    ChoroplethResponse, CountryResponse, DiffResponse, ErrorResponse, HostResponse, SnapshotEntry,
    SnapshotsResponse, Table2Response, TrendsResponse,
};
use crate::http::{Request, Response};
use crate::json::Json;

/// One `--archive base [--delta d]...` group: a base archive plus an
/// ordered tail of delta files, each resolving against the epoch before
/// it (DESIGN.md §15).
#[derive(Debug, Clone)]
pub struct ChainSpec {
    /// The full `GOVSNAP1` archive anchoring the chain (epoch 0).
    pub base: PathBuf,
    /// `GOVDLT1` files for epochs 1.., in order.
    pub deltas: Vec<PathBuf>,
}

/// A delta chain that failed to resolve at load time. The daemon keeps
/// serving its healthy archives; requests that select the broken chain
/// (or any of its unresolved epoch labels) get a 400 carrying the
/// store's typed error text instead of a crash or a silent 404.
#[derive(Debug, Clone)]
pub struct BrokenChain {
    /// Label of the chain's base archive.
    pub chain: String,
    /// Labels (file stems) of the delta files left unresolved.
    pub labels: Vec<String>,
    /// The failing epoch and the `StoreError` that stopped resolution.
    pub detail: String,
}

/// One loaded archive: the lazy snapshot plus a memoised aggregate
/// index. The index (not the full `ScanDataset`) backs every report
/// endpoint; point queries (`/hosts/{name}`) bypass it entirely and go
/// through the snapshot's lazy record access.
pub struct Archive {
    label: String,
    digest_hex: String,
    chain: String,
    epoch: u32,
    snap: Snapshot,
    index: OnceLock<std::result::Result<Arc<AggregateIndex>, StoreError>>,
}

impl Archive {
    /// The label requests may select this archive by.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Content digest of the archive bytes, hex.
    pub fn digest_hex(&self) -> &str {
        &self.digest_hex
    }

    /// Label of the chain this archive belongs to (its own label for a
    /// standalone archive).
    pub fn chain(&self) -> &str {
        &self.chain
    }

    /// Epoch position within the chain (0 = the base archive).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The underlying lazy snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// The aggregate index, built from a one-time full decode on first
    /// use and shared by every report endpoint thereafter.
    pub fn index(&self) -> Result<Arc<AggregateIndex>> {
        self.index
            .get_or_init(|| {
                let dataset = self.snap.dataset()?;
                Ok(Arc::new(AggregateIndex::build(&dataset)))
            })
            .clone()
    }
}

/// Everything the router needs, independent of any socket.
pub struct ServeState {
    archives: Vec<Archive>,
    broken: Vec<BrokenChain>,
    cache: Mutex<HashMap<String, Arc<String>>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

/// File stem of `path`, the default label basis.
fn stem_of(path: &Path) -> String {
    path.file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("snapshot")
        .to_owned()
}

/// Labels default to the file stem; a stem that collides with an
/// earlier archive gets `@<digest prefix>` appended so every label
/// stays addressable.
fn unique_label(archives: &[Archive], stem: String, digest_hex: &str) -> String {
    if archives.iter().any(|a| a.label == stem) {
        format!("{stem}@{}", &digest_hex[..8])
    } else {
        stem
    }
}

impl ServeState {
    /// Open each path as a standalone lazy snapshot (a chain with no
    /// deltas).
    pub fn load(paths: &[impl AsRef<Path>]) -> Result<ServeState> {
        let specs: Vec<ChainSpec> = paths
            .iter()
            .map(|p| ChainSpec {
                base: p.as_ref().to_path_buf(),
                deltas: Vec::new(),
            })
            .collect();
        Self::load_chains(&specs)
    }

    /// Open each chain: the base archive lazily, then each delta
    /// resolved in epoch order through [`Snapshot::resolve_chain`], which
    /// decodes only the base and carries each epoch's records forward to
    /// the next. Every resolved epoch registers as an addressable
    /// archive.
    ///
    /// A base that fails to open is a startup error — there is nothing
    /// to serve in its place. A delta that fails (corrupt file, wrong
    /// base digest, truncation) does **not** abort startup: the chain's
    /// resolved prefix keeps serving, and the failure is recorded as a
    /// [`BrokenChain`] so requests naming the chain or an unresolved
    /// epoch get a 400 with the typed store error in the body.
    pub fn load_chains(specs: &[ChainSpec]) -> Result<ServeState> {
        let mut archives: Vec<Archive> = Vec::new();
        let mut broken: Vec<BrokenChain> = Vec::new();
        for spec in specs {
            let base = Snapshot::open(&spec.base)?;
            let links: Vec<Result<Snapshot>> =
                Snapshot::resolve_chain(&base, &spec.deltas).collect();
            let chain = unique_label(&archives, stem_of(&spec.base), &base.digest().to_hex());
            let epochs =
                std::iter::once((&spec.base, Ok(base))).chain(spec.deltas.iter().zip(links));
            for (epoch, (path, snap)) in (0u32..).zip(epochs) {
                match snap {
                    Ok(snap) => {
                        let digest_hex = snap.digest().to_hex();
                        let label = unique_label(&archives, stem_of(path), &digest_hex);
                        archives.push(Archive {
                            label,
                            digest_hex,
                            chain: chain.clone(),
                            epoch,
                            snap,
                            index: OnceLock::new(),
                        });
                    }
                    Err(e) => {
                        let unresolved = &spec.deltas[epoch as usize - 1..];
                        broken.push(BrokenChain {
                            chain: chain.clone(),
                            labels: unresolved.iter().map(|p| stem_of(p)).collect(),
                            detail: format!("epoch {epoch} ({}): {e}", path.display()),
                        });
                    }
                }
            }
        }
        if archives.is_empty() {
            return Err(StoreError::Corrupt {
                context: "serve",
                detail: "no archives given".to_owned(),
            });
        }
        Ok(ServeState {
            archives,
            broken,
            cache: Mutex::new(HashMap::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        })
    }

    /// The loaded archives, in load order (chains stay contiguous, in
    /// epoch order).
    pub fn archives(&self) -> &[Archive] {
        &self.archives
    }

    /// Chains whose delta tails failed to resolve at load time.
    pub fn broken(&self) -> &[BrokenChain] {
        &self.broken
    }

    /// `(hits, misses)` of the rendered-report cache so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Resolve `?snapshot=` (exact label, or unambiguous digest-hex
    /// prefix); no parameter selects the first archive.
    fn select(&self, selector: Option<&str>) -> std::result::Result<&Archive, Response> {
        let Some(sel) = selector else {
            return Ok(&self.archives[0]);
        };
        if let Some(a) = self.archives.iter().find(|a| a.label == sel) {
            return Ok(a);
        }
        let sel_lower = sel.to_ascii_lowercase();
        let mut by_digest = self
            .archives
            .iter()
            .filter(|a| !sel_lower.is_empty() && a.digest_hex.starts_with(&sel_lower));
        match (by_digest.next(), by_digest.next()) {
            (Some(a), None) => Ok(a),
            (Some(_), Some(_)) => Err(error(
                400,
                "ambiguous_snapshot",
                format!("digest prefix {sel:?} matches more than one archive"),
            )),
            _ => {
                if let Some(b) = self.broken_by_label(sel) {
                    return Err(malformed_chain(b));
                }
                Err(error(
                    404,
                    "unknown_snapshot",
                    format!("no archive labelled {sel:?} or with that digest prefix"),
                ))
            }
        }
    }

    /// The broken-chain record owning `sel`, if `sel` names a chain
    /// whose tail failed to resolve or one of its unresolved epochs.
    fn broken_by_label(&self, sel: &str) -> Option<&BrokenChain> {
        self.broken
            .iter()
            .find(|b| b.chain == sel || b.labels.iter().any(|l| l == sel))
    }

    /// Fetch from the report cache, rendering on miss. Keys embed the
    /// archive digest, so entries never need invalidation.
    fn cached(
        &self,
        key: String,
        render: impl FnOnce() -> std::result::Result<Json, Response>,
    ) -> Response {
        if let Some(body) = self.cache.lock().unwrap().get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Response::ok(String::clone(body));
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let body = match render() {
            Ok(json) => Arc::new(json.encode()),
            Err(resp) => return resp,
        };
        self.cache
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| Arc::clone(&body));
        Response::ok(String::clone(&body))
    }

    /// Route one request. Pure: no socket, no side effects beyond the
    /// lazy caches. Every outcome — including every error — is JSON.
    pub fn respond(&self, req: &Request) -> Response {
        if req.method != "GET" {
            return error(
                405,
                "method_not_allowed",
                format!("only GET is supported, got {}", req.method),
            );
        }
        match req.path.as_str() {
            "/snapshots" => self.snapshots(),
            "/table2" => self.table2(req),
            "/choropleth" => self.choropleth(req),
            "/diff" => self.diff(req),
            "/trends" => self.trends(req),
            path => {
                if let Some(name) = path.strip_prefix("/hosts/").filter(|n| !n.is_empty()) {
                    self.host(req, name)
                } else if let Some(cc) = path.strip_prefix("/countries/").filter(|c| !c.is_empty())
                {
                    self.country(req, cc)
                } else {
                    error(404, "no_such_route", format!("no route for {path:?}"))
                }
            }
        }
    }

    fn snapshots(&self) -> Response {
        let entries = self
            .archives
            .iter()
            .map(|a| SnapshotEntry {
                label: a.label.clone(),
                digest: a.digest_hex.clone(),
                chain: a.chain.clone(),
                epoch: a.epoch,
                bytes: a.snap.size_bytes(),
                scan_time: a.snap.scan_time().map(|t| t.0),
                hosts: a.snap.host_count(),
                certs: a.snap.cert_count(),
                caa: a.snap.caa_count(),
                strings: a.snap.string_count(),
                sections: a
                    .snap
                    .sections()
                    .iter()
                    .map(|s| {
                        (
                            s.name.to_owned(),
                            s.offset,
                            s.len,
                            format!("{:016x}", s.checksum),
                        )
                    })
                    .collect(),
            })
            .collect();
        Response::ok(SnapshotsResponse { snapshots: entries }.to_json().encode())
    }

    fn host(&self, req: &Request, name: &str) -> Response {
        let archive = match self.select(req.query_param("snapshot")) {
            Ok(a) => a,
            Err(resp) => return resp,
        };
        match archive.snap.host_by_name(name) {
            Ok(Some(record)) => Response::ok(
                HostResponse {
                    snapshot: archive.digest_hex.clone(),
                    record,
                }
                .to_json()
                .encode(),
            ),
            Ok(None) => error(
                404,
                "unknown_host",
                format!("host {name:?} is not in archive {}", archive.label),
            ),
            Err(e) => store_error(&e),
        }
    }

    fn table2(&self, req: &Request) -> Response {
        let archive = match self.select(req.query_param("snapshot")) {
            Ok(a) => a,
            Err(resp) => return resp,
        };
        self.cached(format!("table2:{}", archive.digest_hex), || {
            let index = archive.index().map_err(|e| store_error(&e))?;
            Ok(Table2Response {
                snapshot: archive.digest_hex.clone(),
                table: table2::build_from_index(&index),
            }
            .to_json())
        })
    }

    fn choropleth(&self, req: &Request) -> Response {
        let archive = match self.select(req.query_param("snapshot")) {
            Ok(a) => a,
            Err(resp) => return resp,
        };
        self.cached(format!("choropleth:{}", archive.digest_hex), || {
            let index = archive.index().map_err(|e| store_error(&e))?;
            let map = choropleth::build_from_index(&index);
            Ok(ChoroplethResponse {
                snapshot: archive.digest_hex.clone(),
                rows: map.rows.iter().map(|(cc, row)| (*cc, *row)).collect(),
            }
            .to_json())
        })
    }

    fn country(&self, req: &Request, cc: &str) -> Response {
        let archive = match self.select(req.query_param("snapshot")) {
            Ok(a) => a,
            Err(resp) => return resp,
        };
        let cc = cc.to_ascii_lowercase();
        self.cached(format!("country:{cc}:{}", archive.digest_hex), || {
            let index = archive.index().map_err(|e| store_error(&e))?;
            let members = index.by_country.get(cc.as_str()).ok_or_else(|| {
                error(
                    404,
                    "unknown_country",
                    format!(
                        "no hosts under country code {cc:?} in archive {}",
                        archive.label
                    ),
                )
            })?;
            let mut row = CountryRow::default();
            let mut hsts = 0u64;
            let mut errors: Vec<(ErrorCategory, u64)> = Vec::new();
            let mut hostnames = Vec::with_capacity(members.len());
            for host in members.iter().map(|&pos| index.host(pos)) {
                row.add(host);
                hsts += u64::from(host.hsts);
                if let Some(cat) = host.error {
                    match errors.iter_mut().find(|(c, _)| *c == cat) {
                        Some((_, n)) => *n += 1,
                        None => errors.push((cat, 1)),
                    }
                }
                hostnames.push(host.hostname.clone());
            }
            errors.sort_by_key(|(cat, _)| ErrorCategory::ALL.iter().position(|c| c == cat));
            hostnames.sort_unstable();
            Ok(CountryResponse {
                snapshot: archive.digest_hex.clone(),
                country: cc.clone(),
                row,
                hsts,
                errors,
                hostnames,
            }
            .to_json())
        })
    }

    /// `GET /trends[?chain=]` — the longitudinal trend series over one
    /// registered epoch chain. `?chain=` accepts the chain's label or
    /// any member epoch's label; no parameter selects the first chain.
    /// A chain whose delta tail failed to resolve answers 400 with the
    /// store's typed error — a truncated year of data served silently
    /// as complete would be worse than no answer.
    fn trends(&self, req: &Request) -> Response {
        let chain = match req.query_param("chain") {
            None => self.archives[0].chain.clone(),
            Some(sel) => {
                if let Some(a) = self
                    .archives
                    .iter()
                    .find(|a| a.chain == sel || a.label == sel)
                {
                    a.chain.clone()
                } else if let Some(b) = self.broken_by_label(sel) {
                    return malformed_chain(b);
                } else {
                    return error(
                        404,
                        "unknown_chain",
                        format!("no chain or epoch labelled {sel:?}"),
                    );
                }
            }
        };
        if let Some(b) = self.broken.iter().find(|b| b.chain == chain) {
            return malformed_chain(b);
        }
        let members: Vec<&Archive> = self.archives.iter().filter(|a| a.chain == chain).collect();
        let key = members.iter().fold(String::from("trends"), |mut k, a| {
            k.push(':');
            k.push_str(&a.digest_hex);
            k
        });
        self.cached(key, || {
            let mut series = trend::TrendSeries::new();
            for a in &members {
                let dataset = a.snap.dataset().map_err(|e| store_error(&e))?;
                series.push(trend::epoch_point(a.label.clone(), &dataset));
            }
            Ok(TrendsResponse {
                chain: chain.clone(),
                epochs: members
                    .iter()
                    .map(|a| (a.label.clone(), a.digest_hex.clone(), a.epoch))
                    .collect(),
                series,
            }
            .to_json())
        })
    }

    fn diff(&self, req: &Request) -> Response {
        let (Some(from_sel), Some(to_sel)) = (req.query_param("from"), req.query_param("to"))
        else {
            return error(
                400,
                "missing_parameter",
                "diff needs ?from= and ?to=".to_owned(),
            );
        };
        let from = match self.select(Some(from_sel)) {
            Ok(a) => a,
            Err(resp) => return resp,
        };
        let to = match self.select(Some(to_sel)) {
            Ok(a) => a,
            Err(resp) => return resp,
        };
        self.cached(
            format!("diff:{}:{}", from.digest_hex, to.digest_hex),
            || {
                let before = from.snap.dataset().map_err(|e| store_error(&e))?;
                let after = to.snap.dataset().map_err(|e| store_error(&e))?;
                Ok(DiffResponse {
                    from: from.digest_hex.clone(),
                    to: to.digest_hex.clone(),
                    diff: diff_datasets(&before, &after),
                }
                .to_json())
            },
        )
    }
}

/// Shorthand: build a non-200 [`Response`] from an [`ErrorResponse`].
fn error(status: u16, kind: &'static str, detail: String) -> Response {
    Response {
        status,
        body: ErrorResponse {
            error: kind,
            detail,
        }
        .to_json()
        .encode(),
    }
}

/// A store failure surfacing mid-request: the archive validated at load
/// time, so this means on-disk corruption discovered by a lazy checksum.
fn store_error(e: &StoreError) -> Response {
    error(500, "store_error", e.to_string())
}

/// 400 for a request naming a chain whose deltas failed to resolve.
fn malformed_chain(b: &BrokenChain) -> Response {
    error(
        400,
        "malformed_chain",
        format!("chain {:?} failed to resolve at {}", b.chain, b.detail),
    )
}

/// Default per-socket I/O timeout: generous for a local JSON API, small
/// enough that a stalled peer can't pin a serving thread for long.
const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The TCP front: `threads` scoped threads accepting from one listener.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    threads: usize,
    io_timeout: Duration,
}

impl Server {
    /// Bind `addr` (port 0 picks an ephemeral port — read it back with
    /// [`Server::local_addr`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        state: Arc<ServeState>,
        threads: usize,
    ) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state,
            threads: threads.max(1),
            io_timeout: DEFAULT_IO_TIMEOUT,
        })
    }

    /// Override the per-socket read/write timeout (floored at 1ms —
    /// `set_read_timeout(Some(0))` is an error). Tests use this to
    /// prove a dead-silent connection frees its thread quickly.
    pub fn with_io_timeout(mut self, timeout: Duration) -> Server {
        self.io_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `GET /shutdown` arrives. Each of `threads` scoped
    /// threads accepts from the shared listener, reads one request,
    /// routes it, writes one response, and closes. Every accepted socket
    /// carries a read/write timeout, so a client that connects and goes
    /// silent (or stops draining its response) costs a thread at most
    /// `io_timeout` per direction instead of pinning it forever. The
    /// thread that answers `/shutdown` sets a flag and self-connects
    /// once per other thread, so each one blocked in `accept` wakes and
    /// observes it. A handler panic reaches the caller when the scope
    /// joins.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.local_addr()?;
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..self.threads {
                s.spawn(|| self.serve(addr, &stop));
            }
        });
        Ok(())
    }

    /// One serving thread: accept, answer, repeat until the flag is set.
    fn serve(&self, addr: SocketAddr, stop: &AtomicBool) {
        while !stop.load(Ordering::SeqCst) {
            let Ok((mut stream, _)) = self.listener.accept() else {
                continue;
            };
            if stop.load(Ordering::SeqCst) {
                return; // a wake-up connection, or a client arriving after /shutdown
            }
            if stream.set_read_timeout(Some(self.io_timeout)).is_err()
                || stream.set_write_timeout(Some(self.io_timeout)).is_err()
            {
                continue; // connection already dead
            }
            if handle(&self.state, stop, &mut stream) {
                for _ in 1..self.threads {
                    let _ = TcpStream::connect(addr);
                }
                return;
            }
        }
    }
}

/// One exchange: parse, route (or set the shutdown flag), respond.
/// Returns whether the request was `/shutdown`.
fn handle(state: &ServeState, stop: &AtomicBool, stream: &mut TcpStream) -> bool {
    let (response, shutdown) = match Request::read_from(stream) {
        Ok(req) if req.path == "/shutdown" => {
            stop.store(true, Ordering::SeqCst);
            let body = Json::object([("shutting_down", Json::from(true))]).encode();
            (Response::ok(body), true)
        }
        Ok(req) => (state.respond(&req), false),
        Err(e) => (error(400, "bad_request", e.to_string()), false),
    };
    let _ = response.write_to(stream);
    shutdown
}
