//! `swt-obs-serve`: a tiny std-only HTTP endpoint for live runs.
//!
//! One background thread, one connection at a time, two routes:
//!
//! * `/status`  — JSON snapshot of the serving source (for `swt dist-top`)
//! * `/metrics` — Prometheus text exposition of counters/gauges/histograms
//!
//! The server renders whatever a [`ServeSource`] gives it: a distributed
//! run's coordinator plugs in its LiveRunView, the checkpoint server its
//! bucket inventory. A run's Chrome trace is written once, when the run
//! ends (`swt dist-run --chrome-trace`), not served. Handlers are pull-only
//! — serving never mutates run state, so an attached monitor cannot
//! perturb a deterministic run. Like the rest of the wire stack this file
//! must stay free of `unwrap`/`expect`/`panic!` (CI greps for them): every
//! I/O failure drops the connection, never the run.

use crate::report::RunReport;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Longest request head (request line + headers) the server reads.
const MAX_REQUEST_BYTES: usize = 4096;

/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// What a live endpoint serves. Implementations must be cheap-ish and
/// self-consistent per call; the server calls one method per request.
pub trait ServeSource: Send + Sync {
    /// Body for `/status` (a JSON document).
    fn status_json(&self) -> String;
    /// Body for `/metrics` (Prometheus text exposition format).
    fn metrics_text(&self) -> String;
}

/// Handle to a running listener; stops (and joins) on drop.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// the accept loop on a background thread.
    pub fn start(bind: &str, source: Arc<dyn ServeSource>) -> io::Result<ObsServer> {
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || serve_loop(&listener, &*source, &flag));
        Ok(ObsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the accept loop to exit and wait for it.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_loop(listener: &TcpListener, source: &dyn ServeSource, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // One connection at a time; a slow or hostile client can
                // stall the monitor for IO_TIMEOUT, never the run.
                let _ = handle_conn(stream, source);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_conn(mut stream: TcpStream, source: &dyn ServeSource) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let path = match read_request_path(&mut stream)? {
        Some(path) => path,
        None => return Ok(()),
    };
    let (status, content_type, body) = match path.as_str() {
        "/status" | "/" => ("200 OK", "application/json", source.status_json()),
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", source.metrics_text()),
        _ => ("404 Not Found", "text/plain", format!("no route {path}\n")),
    };
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Read up to the end of the request head and return the request path, or
/// `None` for anything that is not a well-formed `GET`.
fn read_request_path(stream: &mut TcpStream) -> io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 256];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut first_line = head.lines().next().unwrap_or("").split_whitespace();
    match (first_line.next(), first_line.next()) {
        (Some("GET"), Some(path)) => Ok(Some(path.to_string())),
        _ => Ok(None),
    }
}

/// Minimal HTTP GET client for `swt dist-top`, tests and the CI smoke
/// (the container has no curl). Returns the response body of a 2xx reply.
pub fn http_get(addr: &str, path: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    http_get_on(stream, addr, path)
}

fn http_get_on(mut stream: TcpStream, host: &str, path: &str) -> io::Result<String> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let req = format!("GET {path} HTTP/1.0\r\nHost: {host}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let text = String::from_utf8_lossy(&response).into_owned();
    let (head, body) = match text.find("\r\n\r\n") {
        Some(split) => (&text[..split], &text[split + 4..]),
        None => return Err(io::Error::new(io::ErrorKind::InvalidData, "no HTTP header break")),
    };
    let status_ok = head.lines().next().is_some_and(|line| {
        line.split_whitespace().nth(1).is_some_and(|code| code.starts_with('2'))
    });
    if !status_ok {
        let line = head.lines().next().unwrap_or("").to_string();
        return Err(io::Error::other(format!("HTTP error: {line}")));
    }
    Ok(body.to_string())
}

/// Escape a Prometheus label value (`\`, `"` and newlines).
fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a report in the Prometheus text exposition format.
///
/// Dotted swt metric names travel as a `name` label on three stable metric
/// families (`swt_counter`, `swt_gauge`, `swt_span_seconds_total`), so the
/// scrape surface never churns as call sites come and go and the CI smoke
/// can diff label values directly against `report.json` keys.
pub fn prometheus_text(report: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("# TYPE swt_counter counter\n");
    for c in &report.counters {
        let _ = writeln!(out, "swt_counter{{name=\"{}\"}} {}", prom_escape(&c.name), c.value);
    }
    out.push_str("# TYPE swt_gauge gauge\n");
    for g in &report.gauges {
        let _ = writeln!(out, "swt_gauge{{name=\"{}\"}} {}", prom_escape(&g.name), g.value);
        let _ = writeln!(out, "swt_gauge_max{{name=\"{}\"}} {}", prom_escape(&g.name), g.max);
    }
    out.push_str("# TYPE swt_span_seconds_total counter\n");
    for s in &report.spans {
        let worker = s.worker.map_or_else(|| "none".to_string(), |w| w.to_string());
        let _ = writeln!(
            out,
            "swt_span_seconds_total{{name=\"{}\",worker=\"{worker}\"}} {}",
            prom_escape(&s.path),
            s.total_secs
        );
    }
    out.push_str("# TYPE swt_histogram_sum counter\n");
    for h in &report.histograms {
        let _ = writeln!(out, "swt_histogram_sum{{name=\"{}\"}} {}", prom_escape(&h.name), h.sum);
        let _ =
            writeln!(out, "swt_histogram_count{{name=\"{}\"}} {}", prom_escape(&h.name), h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CounterRow, GaugeRow};

    struct StubSource;

    impl ServeSource for StubSource {
        fn status_json(&self) -> String {
            "{\"ok\":true}".to_string()
        }
        fn metrics_text(&self) -> String {
            "swt_counter{name=\"x\"} 1\n".to_string()
        }
    }

    fn must(cond: bool, what: &str) -> io::Result<()> {
        if cond {
            Ok(())
        } else {
            Err(io::Error::other(what.to_string()))
        }
    }

    #[test]
    fn serves_all_routes_and_404s_unknown_paths() -> io::Result<()> {
        let mut server = ObsServer::start("127.0.0.1:0", Arc::new(StubSource))?;
        let addr = server.addr().to_string();
        must(http_get(&addr, "/status")? == "{\"ok\":true}", "status body")?;
        must(http_get(&addr, "/")? == "{\"ok\":true}", "root aliases status")?;
        must(http_get(&addr, "/metrics")?.contains("swt_counter"), "metrics body")?;
        for path in ["/trace", "/nope"] {
            must(http_get(&addr, path).is_err(), &format!("{path} must 404"))?;
        }
        server.stop();
        must(http_get(&addr, "/status").is_err(), "stopped server must refuse")
    }

    #[test]
    fn survives_garbage_requests() -> io::Result<()> {
        let server = ObsServer::start("127.0.0.1:0", Arc::new(StubSource))?;
        let addr = server.addr();
        // Not HTTP at all.
        {
            let mut s = TcpStream::connect(addr)?;
            s.write_all(b"\x00\x01\x02garbage\r\n\r\n")?;
        }
        // Oversized request head.
        {
            let mut s = TcpStream::connect(addr)?;
            let big = vec![b'A'; MAX_REQUEST_BYTES * 2];
            let _ = s.write_all(&big);
        }
        // The server must still answer a well-formed request afterwards.
        must(http_get(&addr.to_string(), "/status")? == "{\"ok\":true}", "alive after garbage")
    }

    #[test]
    fn prometheus_rendering_escapes_and_labels() -> io::Result<()> {
        let report = RunReport {
            counters: vec![CounterRow { name: "a\"b\\c".to_string(), value: 3 }],
            gauges: vec![GaugeRow { name: "q".to_string(), value: -2, max: 9 }],
            ..RunReport::default()
        };
        let text = prometheus_text(&report);
        must(text.contains("swt_counter{name=\"a\\\"b\\\\c\"} 3"), "escaped counter")?;
        must(text.contains("swt_gauge{name=\"q\"} -2"), "gauge value")?;
        must(text.contains("swt_gauge_max{name=\"q\"} 9"), "gauge max")
    }
}
