//! Closed-loop load against a running `schevo serve` daemon.
//!
//! Each client owns one persistent connection and repeats: `study`, then
//! `result` for the id it just got, sending the next request only after
//! the previous response is fully decoded. The clients run in lock step:
//! both send `study` together, then both send `result` together, so every
//! cycle sees the same overlap and the medians stay steady. Each study
//! asks for one mining worker, so the two concurrent studies share the
//! two cores without oversubscribing them. Every body is compared with
//! the batch study result; a mismatch, an error or a `busy`/`draining`
//! refusal counts as failed.

use schevo_serve::proto::Request;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Default)]
struct ClientLog {
    study_ms: Vec<f64>,
    result_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    refused: u64,
    mismatched: u64,
    elapsed_s: f64,
    errors: Vec<String>,
}

fn roundtrip(
    conn: &mut schevo_serve::Conn,
    op: &str,
    id: &str,
    expect: &str,
    log: &mut ClientLog,
) -> Option<f64> {
    let request = Request {
        op: op.to_string(),
        id: Some(id.to_string()),
        workers: Some(1),
        ..Request::default()
    };
    log.attempted += 1;
    let started = Instant::now();
    let outcome = conn.roundtrip(&request);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    match outcome {
        Err(e) => {
            log.failed += 1;
            log.errors.push(format!("{op} {id}: {e}"));
            None
        }
        Ok(resp) if resp.status == "busy" || resp.status == "draining" => {
            log.failed += 1;
            log.refused += 1;
            None
        }
        Ok(resp) if resp.status != "ok" => {
            log.failed += 1;
            log.errors.push(format!(
                "{op} {id}: status {} {:?}",
                resp.status, resp.error
            ));
            None
        }
        Ok(resp)
            if resp.study_json.as_deref() != Some(expect) || resp.id.as_deref() != Some(id) =>
        {
            log.failed += 1;
            log.mismatched += 1;
            log.errors
                .push(format!("{op} {id}: body differs from the batch result"));
            None
        }
        Ok(_) => Some(ms),
    }
}

fn client(
    addr: &str,
    k: usize,
    seconds: f64,
    expect: &str,
    sync: &Barrier,
    stop: &AtomicBool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = schevo_serve::connect_timeout(addr, Some(Duration::from_secs(120)));
    if let Err(e) = &conn {
        log.errors.push(format!("connect {addr}: {e}"));
    }
    let started = Instant::now();
    for i in 1.. {
        // The leader decides for both clients whether another cycle
        // starts, so every client passes the same barriers.
        if sync.wait().is_leader() {
            stop.store(started.elapsed().as_secs_f64() >= seconds, Ordering::SeqCst);
        }
        sync.wait();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let id = format!("load-{k}-{i}");
        for op in ["study", "result"] {
            let ms = match &mut conn {
                Ok(c) => roundtrip(c, op, &id, expect, &mut log),
                Err(_) => {
                    log.attempted += 1;
                    log.failed += 1;
                    None
                }
            };
            match (op, ms) {
                ("study", Some(ms)) => log.study_ms.push(ms),
                (_, Some(ms)) => log.result_ms.push(ms),
                _ => {}
            }
            if op == "study" {
                sync.wait();
            }
        }
        log.elapsed_s = started.elapsed().as_secs_f64();
    }
    log
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", items.join(","))
}

/// Run `clients` closed-loop clients for `seconds` and return the
/// samples as one JSON object.
pub fn run(addr: &str, clients: usize, seconds: f64, expect: &str) -> String {
    let sync = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let (sync, stop) = (&sync, &stop);
        let handles: Vec<_> = (0..clients)
            .map(|k| s.spawn(move || client(addr, k, seconds, expect, sync, stop)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    let mut study_ms = Vec::new();
    let mut result_ms = Vec::new();
    let (mut attempted, mut failed, mut refused, mut mismatched) = (0, 0, 0, 0);
    let mut rate = 0.0;
    let mut errors = Vec::new();
    for log in &logs {
        study_ms.extend_from_slice(&log.study_ms);
        result_ms.extend_from_slice(&log.result_ms);
        attempted += log.attempted;
        failed += log.failed;
        refused += log.refused;
        mismatched += log.mismatched;
        if log.elapsed_s > 0.0 {
            rate += log.study_ms.len() as f64 / log.elapsed_s;
        }
        errors.extend(log.errors.iter().cloned());
    }
    format!(
        "{{\"study_ms\":{},\"result_ms\":{},\"studies_per_s\":{rate:.6},\"attempted\":{attempted},\"failed\":{failed},\"refused\":{refused},\"mismatched\":{mismatched},\"errors\":{}}}",
        list(&study_ms),
        list(&result_ms),
        serde_json::to_string(&errors).unwrap_or_else(|_| "[]".to_string())
    )
}
