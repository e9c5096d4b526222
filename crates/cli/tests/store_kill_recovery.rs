//! Crash-recovery test of the real `qrn` binary with a live evidence
//! store: start `qrn serve --store`, stream sequenced telemetry batches
//! over HTTP, SIGKILL the process mid-stream (no drain, no shutdown
//! checkpoint), then prove the store recovers — `store verify` passes,
//! and `store replay` of the surviving directory is byte-identical to an
//! offline `fleet ingest` over the accepted line prefix.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn qrn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qrn"))
        .args(args)
        .output()
        .expect("binary spawns")
}

fn assert_ok(out: &Output) {
    assert!(
        out.status.success(),
        "exit {:?}\nstdout: {}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qrn-kill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reads the child's stdout until the "serving on http://HOST:PORT"
/// banner appears and returns the address. The rest of stdout is drained
/// on a thread: the server prints more lines after the banner, and a
/// closed pipe would make those prints kill it.
fn wait_for_addr(child: &mut Child) -> String {
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    loop {
        let line = lines
            .next()
            .expect("server prints its banner before EOF")
            .expect("stdout readable");
        if let Some(rest) = line.strip_prefix("serving on http://") {
            let addr = rest.split_whitespace().next().expect("address token");
            std::thread::spawn(move || lines.for_each(drop));
            return addr.to_string();
        }
    }
}

fn post_ingest(addr: &str, segment: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "POST /v1/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{segment}",
        segment.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("recv");
    assert!(reply.starts_with("HTTP/1.1 200 "), "non-200 reply: {reply}");
    reply
}

#[test]
fn sigkill_mid_stream_recovers_the_accepted_prefix_byte_identically() {
    let dir = temp_dir("recovery");
    let dir_s = dir.to_str().unwrap();
    assert_ok(&qrn(&["example", "emit", "--dir", dir_s]));
    let norm = dir.join("norm.json");
    let classification = dir.join("classification.json");
    let allocation = dir.join("allocation.json");
    let c = classification.to_str().unwrap();

    // A sequenced fleet log, split into 8-line upload batches. Splitting
    // after seq stamping keeps per-vehicle sequences monotone across
    // batches.
    let log_path = dir.join("fleet.jsonl");
    assert_ok(&qrn(&[
        "fleet",
        "generate",
        "--scenario",
        "urban",
        "--policy",
        "cautious",
        "--hours",
        "64",
        "--vehicles",
        "4",
        "--seed",
        "9",
        "--stamp-seq",
        "--out",
        log_path.to_str().unwrap(),
    ]));
    let log = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert!(lines.len() >= 16, "need a multi-batch log");
    let batches: Vec<String> = lines
        .chunks(8)
        .map(|chunk| {
            let mut batch = String::new();
            for line in chunk {
                batch.push_str(line);
                batch.push('\n');
            }
            batch
        })
        .collect();

    let store_dir = dir.join("store");
    let mut child = Command::new(env!("CARGO_BIN_EXE_qrn"))
        .args([
            "serve",
            norm.to_str().unwrap(),
            c,
            allocation.to_str().unwrap(),
            "--port",
            "0",
            "--workers",
            "2",
            "--store",
            store_dir.to_str().unwrap(),
            "--store-snapshot-every",
            "8",
            "--store-roll-bytes",
            "4096",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server spawns");
    let addr = wait_for_addr(&mut child);

    // Stream every batch; each 200 reply means the batch is fsynced in
    // the store. Then SIGKILL — no drain, no shutdown checkpoint.
    for batch in &batches {
        let reply = post_ingest(&addr, batch);
        assert!(
            reply.contains("\"stored\": true"),
            "batch not stored: {reply}"
        );
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // The store must verify clean and replay to exactly the state an
    // offline ingest of the accepted lines produces.
    let item_dir = store_dir.join("default");
    let d = item_dir.to_str().unwrap();
    assert_ok(&qrn(&["store", "verify", c, "--dir", d]));

    let recovered = dir.join("recovered.json");
    let accepted = dir.join("accepted.jsonl");
    assert_ok(&qrn(&[
        "store",
        "replay",
        c,
        "--dir",
        d,
        "--out",
        recovered.to_str().unwrap(),
        "--dump-log",
        accepted.to_str().unwrap(),
    ]));
    // Every line survived: all batches were acknowledged before the kill.
    assert_eq!(
        std::fs::read_to_string(&accepted).unwrap(),
        log,
        "accepted prefix differs from the uploaded log"
    );

    let offline = dir.join("offline.json");
    assert_ok(&qrn(&[
        "fleet",
        "ingest",
        c,
        "--log",
        accepted.to_str().unwrap(),
        "--shards",
        "3",
        "--out",
        offline.to_str().unwrap(),
    ]));
    assert_eq!(
        std::fs::read(&recovered).unwrap(),
        std::fs::read(&offline).unwrap(),
        "recovered state is not byte-identical to offline ingest"
    );

    // A restarted server picks the recovered state up and serves it.
    let mut child = Command::new(env!("CARGO_BIN_EXE_qrn"))
        .args([
            "serve",
            norm.to_str().unwrap(),
            c,
            allocation.to_str().unwrap(),
            "--port",
            "0",
            "--workers",
            "2",
            "--store",
            store_dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server restarts");
    let addr = wait_for_addr(&mut child);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"GET /v1/burndown HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("recv");
    assert!(reply.starts_with("HTTP/1.1 200 "), "non-200 reply: {reply}");
    assert!(
        reply.contains("\"exposure_hours\": 64"),
        "restarted server lost exposure: {reply}"
    );
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
