//! The two parsers that read from a socket, against hostile input:
//! `metrics::parse_exposition` (what `ebda monitor` does with a scraped
//! body) and the request head the metrics server reads.
//!
//! Seed-pinned like `hostile/mod.rs`, whose variations and small stack
//! the exposition half reuses. The property is the network half of "no
//! parser panics or hangs": the exposition parser returns `Ok` or `Err`
//! and what it accepts is well-formed; the server answers a hostile head
//! with a 4xx or closes the connection, within its deadline, and is
//! still serving afterwards (a panic in the one accept loop would end
//! it).

mod hostile;

use ebda_obs::http::{http_get, MetricsServer};
use ebda_obs::metrics::parse_exposition;
use ebda_obs::Rng64;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Every line shape the renderer writes: comments, a bare sample,
/// labels with escapes, histogram buckets up to `+Inf`, a fraction.
const EXPOSITION: &str = "# HELP ebda_demo_runs_total Runs.\n\
    # TYPE ebda_demo_runs_total counter\n\
    ebda_demo_runs_total 3\n\
    # TYPE ebda_demo_packets_total counter\n\
    ebda_demo_packets_total{design=\"wf\",dir=\"+\"} 7\n\
    ebda_demo_note{msg=\"a\\\"b\\\\c\\nd, e=\\\"f\\\"\"} 1\n\
    # TYPE ebda_demo_latency_cycles histogram\n\
    ebda_demo_latency_cycles_bucket{le=\"1\"} 2\n\
    ebda_demo_latency_cycles_bucket{le=\"+Inf\"} 6\n\
    ebda_demo_latency_cycles_sum 163\n\
    ebda_demo_utilization{node=\"3\"} 0.25\n";

/// `Ok` or `Err`, never a panic; an accepted sample has a metric name
/// made of the characters a metric name may have.
fn parses_or_refuses(text: &str) -> bool {
    let Ok(samples) = parse_exposition(text) else {
        return false;
    };
    for s in &samples {
        let legal = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
        assert!(
            !s.name.is_empty() && s.name.chars().all(legal),
            "accepted the name {:?} in {text:?}",
            s.name
        );
    }
    true
}

#[test]
fn the_exposition_parser_survives_hostile_input() {
    hostile::on_a_small_stack(|| {
        assert_eq!(parse_exposition(EXPOSITION).expect("valid").len(), 7);
        let (mut seen, mut accepted) = (0, 0);
        hostile::for_each_variation(EXPOSITION, 23, 1500, |text| {
            seen += 1;
            accepted += usize::from(parses_or_refuses(text));
        });
        // Bytes >= 0x80 in the middle of every kind of token.
        let mut rng = Rng64::new(29);
        for _ in 0..1500 {
            let mut at = rng.gen_index(EXPOSITION.len());
            while !EXPOSITION.is_char_boundary(at) {
                at -= 1;
            }
            let wide = ["é", "\u{80}", "\u{10348}", "\u{feff}"][rng.gen_index(4)];
            let text = [&EXPOSITION[..at], wide, &EXPOSITION[at..]].concat();
            seen += 1;
            accepted += usize::from(parses_or_refuses(&text));
        }
        assert!(
            seen > 3000 && accepted > 20 && accepted < seen,
            "{seen} variations, {accepted} accepted"
        );

        // The named cases.
        let value = |line: &str| parse_exposition(line).map(|s| s[0].value);
        assert!(value("m NaN").expect("NaN is a value").is_nan());
        assert_eq!(value("m +Inf"), Ok(f64::INFINITY));
        assert_eq!(value("m -Inf"), Ok(f64::NEG_INFINITY));
        assert_eq!(value("m 1e999"), Ok(f64::INFINITY));
        assert_eq!(value(&format!("m 1{}", "0".repeat(400))), Ok(f64::INFINITY));
        for refused in [
            "m",
            "m ",
            "m 1 2 x",
            "m{a=\"b\" 1",
            "m{a=\"b} 1",
            "m{a=\"b\\",
            "m{a=\"b\\\"} 1",
            "m{a=b} 1",
            "m{=\"\"",
            "{a=\"b\"} 1",
            "m\u{e9}tric 1",
            "m 0x10",
            "m 1\u{a0}2",
        ] {
            assert!(parse_exposition(refused).is_err(), "{refused:?} accepted");
        }
        // A type declared twice is a comment read twice.
        let twice = "# TYPE m counter\n# TYPE m gauge\nm 1\n# TYPE m counter\n";
        assert_eq!(parse_exposition(twice).expect("comments").len(), 1);
        // A megabyte of label value, closed and left open.
        let long = "x\\\"".repeat(1 << 18);
        let closed = format!("m{{a=\"{long}\"}} 1");
        let sample = &parse_exposition(&closed).expect("long label")[0];
        assert_eq!(sample.label("a").map(str::len), Some(2 << 18));
        assert!(parse_exposition(&format!("m{{a=\"{long} 1")).is_err());
    });
}

/// Sends `head`, half-closes, and reads what comes back: the status
/// line's code, or `None` when the server closed (or reset) the
/// connection without one. Panics if that takes longer than `within`.
fn status_of(addr: SocketAddr, head: &[u8], within: Duration) -> Option<u16> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(within)).expect("timeout");
    // The server may answer and close before a long head is all written.
    let _ = stream.write_all(head);
    let _ = stream.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    assert!(start.elapsed() < within, "no answer within {within:?}");
    let text = String::from_utf8_lossy(&response);
    text.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()
}

#[test]
fn the_metrics_server_survives_hostile_request_heads() {
    let server = MetricsServer::serve("127.0.0.1:0", None, None).expect("bind loopback");
    let addr = server.local_addr();
    let soon = Duration::from_secs(4);
    let refused = |head: &[u8]| match status_of(addr, head, soon) {
        None => {}
        Some(status) => assert!(
            (400..500).contains(&status),
            "{status} for {:?}",
            String::from_utf8_lossy(&head[..head.len().min(80)])
        ),
    };

    // A head of exactly `len` bytes, its end included.
    let padded = |len: usize| {
        let open = "GET /healthz HTTP/1.1\r\nX-Pad: ";
        let pad = "p".repeat(len - open.len() - 4);
        format!("{open}{pad}\r\n\r\n").into_bytes()
    };
    // The cap is 16 KB: a head that ends on it is a request, one byte
    // more is not (400, or a reset when the answer overtakes the rest).
    assert_eq!(status_of(addr, &padded(200), soon), Some(200));
    assert_eq!(status_of(addr, &padded(16 * 1024 - 1), soon), Some(200));
    assert_eq!(status_of(addr, &padded(16 * 1024), soon), Some(200));
    refused(&padded(16 * 1024 + 1));
    refused(&padded(64 * 1024));
    refused(&vec![b'G'; 64 * 1024]);

    // Never terminated: whatever the first line names.
    for head in [
        &b""[..],
        b"GET /healthz",
        b"GET /healthz HTTP/1.1",
        b"GET /healthz HTTP/1.1\r\n",
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r",
        b"GET /metrics HTTP/1.1\n\n",
        b"\r\n\r",
    ] {
        assert_eq!(status_of(addr, head, soon), Some(400), "{head:?}");
    }
    // Terminated, and not a request for anything served.
    for head in [
        &b"\r\n\r\n"[..],
        b"          \r\n\r\n",
        b" \t \r\n \r\n\r\n",
        b"GET\r\n\r\n",
        b"GET /healthz\0 HTTP/1.1\r\n\r\n",
        b"GET /\0healthz HTTP/1.1\r\n\r\n",
        b"GET /health\xffz HTTP/1.1\r\n\r\n",
        b"GET /\xc3\x28 HTTP/1.1\r\n\r\n",
        b"GET \xf0\x9f HTTP/1.1\r\n\r\n",
        b"\xff\xfe\xfd\r\n\r\n",
        b"GET //healthz HTTP/1.1\r\n\r\n",
        b"GET /healthz/../metrics HTTP/1.1\r\n\r\n",
    ] {
        assert_eq!(status_of(addr, head, soon), Some(404), "{head:?}");
    }

    // Random bytes (NUL and >= 0x80 among them), terminated or not.
    let mut rng = Rng64::new(31);
    for round in 0..300 {
        let mut head: Vec<u8> = (0..rng.gen_index(2048))
            .map(|_| rng.next_u64() as u8)
            .collect();
        if round % 2 == 0 {
            head.extend_from_slice(b"\r\n\r\n");
        }
        refused(&head);
    }

    // The one accept loop is still there.
    let health = http_get(&addr.to_string(), "/healthz").expect("still serving");
    assert!(health.starts_with("ok uptime_seconds="), "{health:?}");
    server.shutdown();
}
