//! The system under test as its own process: building the `qrn` binary,
//! starting and stopping `qrn serve`, sampling its CPU and memory from
//! `/proc`, and the one-request-per-connection HTTP client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Builds `qrn` from the checkout at `root` and returns its path. Cargo's
/// output goes to stderr so stdout stays the benchmark's own.
pub fn build_qrn(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "qrn-cli",
            "--bin",
            "qrn",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building qrn failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let binary = target.join("release").join("qrn");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("{} was not built", binary.display()))
    }
}

/// Writes the paper-example norm, classification and allocation into
/// `dir` with `qrn example emit`.
pub fn emit_artefacts(qrn: &Path, dir: &Path) -> Result<(), String> {
    let status = Command::new(qrn)
        .args(["example", "emit", "--dir"])
        .arg(dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run qrn: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("qrn example emit failed: {status}"))
    }
}

/// A running `qrn serve` child. Dropping it kills and reaps the process,
/// so no error path leaves a server behind.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    stdout_drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `qrn serve <case artefacts> --port 0 <flags>` and waits for
    /// the line announcing its address.
    pub fn start(qrn: &Path, case: &Path, flags: &[String]) -> Result<ServerProc, String> {
        let mut child = Command::new(qrn)
            .arg("serve")
            .arg(case.join("norm.json"))
            .arg(case.join("classification.json"))
            .arg(case.join("allocation.json"))
            .args(["--port", "0"])
            .args(flags)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start qrn serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout);
        let mut first = String::new();
        let read = lines.read_line(&mut first);
        let addr = first
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|text| text.parse::<SocketAddr>().ok());
        let addr = match (read, addr) {
            (Ok(_), Some(addr)) => addr,
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("qrn serve did not announce its address: {first:?}"));
            }
        };
        let stdout_drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = lines.read_to_end(&mut sink);
        });
        Ok(ServerProc {
            child,
            addr,
            stdout_drain: Some(stdout_drain),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Blocks until `/healthz` answers 200.
    pub fn wait_healthy(&self, limit: Duration) -> Result<(), String> {
        let start = Instant::now();
        loop {
            if let Ok(reply) = request(self.addr, "GET", "/healthz", None) {
                if reply.status == 200 {
                    return Ok(());
                }
            }
            if start.elapsed() > limit {
                return Err("server never answered /healthz".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Graceful stop: `POST /v1/shutdown`, then wait for the drain.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = request(self.addr, "POST", "/v1/shutdown", Some(b""));
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("qrn serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err("qrn serve did not drain in time".to_string()),
            }
        }
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
        Ok(())
    }

    /// The server's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    }

    /// User plus system CPU the server has used, seconds.
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, in clock ticks.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) / CLOCK_TICKS_PER_SECOND)
    }
}

/// Linux reports process times in USER_HZ ticks, fixed at 100.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

/// One HTTP reply.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// Sends one request on a fresh connection, as the server expects, and
/// reads the reply to the end.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let head = match body {
        Some(body) => format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        ),
        None => format!("{method} {target} HTTP/1.1\r\nHost: bench\r\n\r\n"),
    };
    stream.write_all(head.as_bytes())?;
    if let Some(body) = body {
        stream.write_all(body)?;
    }
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("reply has no header end"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::other("reply has no status"))?;
    Ok(Reply {
        status,
        body: raw[split + 4..].to_vec(),
    })
}

/// The counters the benchmark reads from one `/metrics` scrape.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    pub service_seconds_sum: f64,
    pub service_count: f64,
    pub queue_full: f64,
    pub client_gone: f64,
    pub duplicates_rejected: f64,
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut scrape = Scrape::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let slot = match name {
                "qrn_http_request_seconds_sum" => &mut scrape.service_seconds_sum,
                "qrn_http_request_seconds_count" => &mut scrape.service_count,
                "qrn_http_rejected_total{reason=\"queue_full\"}" => &mut scrape.queue_full,
                "qrn_http_rejected_total{reason=\"client_gone\"}" => &mut scrape.client_gone,
                "qrn_store_duplicates_rejected_total{item=\"default\"}" => {
                    &mut scrape.duplicates_rejected
                }
                _ => continue,
            };
            *slot = value;
        }
        scrape
    }

    pub fn fetch(addr: SocketAddr) -> Result<Scrape, String> {
        let reply = request(addr, "GET", "/metrics", None).map_err(|e| e.to_string())?;
        if reply.status != 200 {
            return Err(format!("/metrics answered {}", reply.status));
        }
        Ok(Scrape::parse(reply.text()))
    }
}
