//! A minimal blocking HTTP server exposing the global metrics registry,
//! plus the matching one-shot client used by `ebda monitor`, the
//! loopback tests and the process tests of the binary.
//!
//! The server handles exactly four routes:
//!
//! * `GET /metrics` — the Prometheus text exposition from
//!   [`crate::metrics::render_global`]
//! * `GET /healthz` — `ok uptime_seconds=N\n`, for liveness probes
//!   (`N` counts whole seconds since the server started serving)
//! * `GET /ledger` — the run ledger handed to [`MetricsServer::serve`]
//!   as a JSON array (404 when the server was given none)
//! * `GET /coverage` — the coverage map handed to
//!   [`MetricsServer::serve`] as canonical JSON (404 when the server
//!   was given none)
//!
//! It is deliberately tiny: one detached thread, one connection at a
//! time (closed after ten seconds whatever the client is doing),
//! HTTP/1.0-style `Connection: close` responses. Scrapes are rare
//! (seconds apart) and the body is rendered fresh per request, so there
//! is nothing to pool or pipeline. Binding port 0 is supported; the
//! bound address is available via [`MetricsServer::local_addr`] and is
//! printed to stderr by the CLI wiring so scripts can discover it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running `/metrics` endpoint. Dropping the handle leaves the server
/// thread running (detached); call [`MetricsServer::shutdown`] to stop
/// it deterministically.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9200`, port 0 allowed) and starts
    /// serving on a detached background thread. `ledger` and `coverage`
    /// are the files the `/ledger` and `/coverage` routes read, fresh
    /// per request.
    pub fn serve(
        addr: &str,
        ledger: Option<PathBuf>,
        coverage: Option<PathBuf>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let started = Instant::now();
        let files = Files { ledger, coverage };
        std::thread::Builder::new()
            .name("ebda-metrics".into())
            .spawn(move || serve_loop(listener, &stop2, started, &files))?;
        Ok(MetricsServer { addr, stop })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server thread: sets the stop flag and nudges the
    /// listener with a self-connection so `accept` returns.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
    }
}

/// The evidence files a server was started with.
struct Files {
    ledger: Option<PathBuf>,
    coverage: Option<PathBuf>,
}

fn serve_loop(listener: TcpListener, stop: &AtomicBool, started: Instant, files: &Files) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = handle(&mut stream, started, files);
    }
}

/// How long one connection may hold the accept loop before it is closed,
/// counted from accept: there is one loop, so a client that drips its
/// request a byte at a time would otherwise keep every scrape waiting.
const CONNECTION_DEADLINE: Duration = Duration::from_secs(10);
/// The most a single read or write may block.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// A request head ends (`\r\n\r\n` included) within this many bytes or
/// is refused.
const MAX_HEAD: usize = 16 * 1024;
const HEAD_END: &[u8] = b"\r\n\r\n";

fn handle(stream: &mut TcpStream, started: Instant, files: &Files) -> std::io::Result<()> {
    let deadline = Instant::now() + CONNECTION_DEADLINE;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // Read until the end of the request head; we only need the first line.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    while !buf.windows(HEAD_END.len()).any(|w| w == HEAD_END) && buf.len() < MAX_HEAD {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(remaining.min(IO_TIMEOUT)))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let head_end = buf.windows(HEAD_END.len()).position(|w| w == HEAD_END);
    let head = String::from_utf8_lossy(&buf);
    let path = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, ctype, body) = match path {
        // Cut short by the client, or longer than a head may be: whatever
        // its first line says, this is not a request.
        _ if head_end.is_none_or(|at| at + HEAD_END.len() > MAX_HEAD) => (
            "400 Bad Request",
            "text/plain; charset=utf-8",
            format!("request head does not end within {MAX_HEAD} bytes\n"),
        ),
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            crate::metrics::render_global(),
        ),
        "/healthz" => (
            "200 OK",
            "text/plain; charset=utf-8",
            format!("ok uptime_seconds={}\n", started.elapsed().as_secs()),
        ),
        "/coverage" => match &files.coverage {
            Some(path) => match crate::coverage::CoverageMap::read_file(path) {
                Ok(map) => (
                    "200 OK",
                    "application/json; charset=utf-8",
                    map.to_json() + "\n",
                ),
                Err(e) => (
                    "500 Internal Server Error",
                    "text/plain; charset=utf-8",
                    format!("coverage map unreadable: {e}\n"),
                ),
            },
            None => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no coverage map registered\n".to_string(),
            ),
        },
        "/ledger" => match &files.ledger {
            Some(path) => match crate::ledger::render_json(path) {
                Ok(body) => ("200 OK", "application/json; charset=utf-8", body),
                Err(e) => (
                    "500 Internal Server Error",
                    "text/plain; charset=utf-8",
                    format!("ledger unreadable: {e}\n"),
                ),
            },
            None => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no ledger registered\n".to_string(),
            ),
        },
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Performs a one-shot `GET path` against `addr` and returns the response
/// body, failing on connection errors or non-200 statuses. Connect and
/// read are both bounded by a 5 s timeout so a hung scrape cannot wedge
/// a test run.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    http_get_with_timeout(addr, path, Duration::from_secs(5))
}

/// [`http_get`] with an explicit connect/read timeout.
pub(crate) fn http_get_with_timeout(
    addr: &str,
    path: &str,
    timeout: Duration,
) -> std::io::Result<String> {
    let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "unresolvable addr")
    })?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response")
    })?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(std::io::Error::other(format!("{addr}{path}: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test for the whole server lifecycle: the metrics registry is
    // process-global, so keep the interactions in a single test fn.
    #[test]
    fn serves_metrics_and_healthz_on_loopback() {
        // The server owns its two evidence paths; the files may appear
        // after it started.
        let ledger_path =
            std::env::temp_dir().join(format!("ebda-http-ledger-{}", std::process::id()));
        let coverage_path =
            std::env::temp_dir().join(format!("ebda-http-coverage-{}", std::process::id()));
        let _ = std::fs::remove_file(&ledger_path);
        let server = MetricsServer::serve(
            "127.0.0.1:0",
            Some(ledger_path.clone()),
            Some(coverage_path.clone()),
        )
        .expect("bind loopback");
        let addr = server.local_addr().to_string();
        let bare = MetricsServer::serve("127.0.0.1:0", None, None).expect("bind loopback");
        let bare_addr = bare.local_addr().to_string();

        let health = http_get(&addr, "/healthz").expect("healthz");
        assert!(
            health.starts_with("ok uptime_seconds=") && health.ends_with('\n'),
            "unexpected healthz body {health:?}"
        );
        let secs: u64 = health
            .trim()
            .strip_prefix("ok uptime_seconds=")
            .unwrap()
            .parse()
            .expect("uptime is whole seconds");
        assert!(secs < 60, "fresh server cannot be up {secs}s");

        crate::metrics::global().counter_add("ebda_http_test_total", &[], 41);
        let body = http_get(&addr, "/metrics").expect("metrics");
        assert!(
            body.contains("ebda_http_test_total 41"),
            "missing counter in {body:?}"
        );
        let samples = crate::metrics::parse_exposition(&body).expect("parseable exposition");
        assert!(samples.iter().any(|s| s.name == "ebda_http_test_total"));

        assert!(http_get(&addr, "/nope").is_err());

        // /ledger: 404 on a server without one, JSON array otherwise.
        assert!(http_get(&bare_addr, "/ledger").is_err());
        crate::ledger::append(
            &ledger_path,
            &[crate::ledger::LedgerRecord {
                index: 0,
                source: "cli".into(),
                name: "test".into(),
                git_rev: "abc".into(),
                seed: 0,
                verdict: "deadlock-free".into(),
                evidence: "certificate".into(),
                hash: "0000000000000000".into(),
                gfp_sweeps: 1,
                wait_pairs: 0,
                coverage: String::new(),
                provenance: "{}".into(),
            }],
        )
        .unwrap();
        let body = http_get(&addr, "/ledger").expect("ledger route");
        let parsed = crate::json::Value::parse(&body).expect("ledger body is JSON");
        assert_eq!(parsed.as_arr().map(<[_]>::len), Some(1));
        let _ = std::fs::remove_file(&ledger_path);

        // /coverage: 404 on a server without one, canonical JSON otherwise.
        assert!(http_get(&bare_addr, "/coverage").is_err());
        let mut map = crate::coverage::CoverageMap::new("http-test");
        map.record("obligation", "theorem1/p0");
        map.write_file(&coverage_path).unwrap();
        let body = http_get(&addr, "/coverage").expect("coverage route");
        let served =
            crate::coverage::CoverageMap::from_json(body.trim_end()).expect("coverage body parses");
        assert_eq!(served, map);
        let _ = std::fs::remove_file(&coverage_path);

        server.shutdown();
        bare.shutdown();
    }

    #[test]
    fn http_get_times_out_instead_of_hanging() {
        // A listener that accepts but never responds: the read timeout
        // must surface as an error rather than wedging the caller.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let start = Instant::now();
        let err = http_get_with_timeout(&addr, "/metrics", Duration::from_millis(200))
            .expect_err("silent server must time out");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected error {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "timeout was not honored"
        );
        drop(hold);
    }
    #[test]
    fn a_dripping_client_cannot_hold_the_accept_loop() {
        // One byte a second keeps every read inside its own timeout; only
        // the connection deadline ends it. The scrape queued behind it
        // must be answered once the deadline has passed.
        let server = MetricsServer::serve("127.0.0.1:0", None, None).expect("bind loopback");
        let addr = server.local_addr();
        let mut slow = TcpStream::connect(addr).expect("connect");
        let start = Instant::now();
        let drip = std::thread::spawn(move || {
            // Ends when the server closes the connection (or, the bug,
            // when the test has long failed).
            while start.elapsed() < 3 * CONNECTION_DEADLINE && slow.write_all(b"G").is_ok() {
                std::thread::sleep(Duration::from_secs(1));
            }
        });
        // Let the dripper be the connection the loop is serving.
        std::thread::sleep(Duration::from_millis(200));
        let margin = Duration::from_secs(3);
        let health =
            http_get_with_timeout(&addr.to_string(), "/healthz", CONNECTION_DEADLINE + margin)
                .expect("the queued scrape is served");
        assert!(health.starts_with("ok uptime_seconds="), "{health:?}");
        let waited = start.elapsed();
        assert!(
            waited >= CONNECTION_DEADLINE - Duration::from_secs(1),
            "served after {waited:?}: the dripper was not holding the loop"
        );
        assert!(
            waited < CONNECTION_DEADLINE + margin,
            "served after {waited:?}"
        );
        server.shutdown();
        drip.join().expect("dripper");
    }
}
