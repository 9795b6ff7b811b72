//! A minimal HTTP/1.1 + SSE front end over the fleet service.
//!
//! Hand-rolled over `std::net::TcpListener` (the repo takes no external
//! dependencies): one thread per connection, `Connection: close`
//! semantics, JSON bodies everywhere, and a `text/event-stream`
//! endpoint fed by the service's [`EventHub`](super::service::EventHub).
//!
//! # Endpoints
//!
//! | Method | Path               | Body / response                           |
//! |--------|--------------------|-------------------------------------------|
//! | GET    | `/healthz`         | `{"ok":true}`                             |
//! | GET    | `/fleet`           | fleet summary + module names              |
//! | POST   | `/jobs`            | `JobSpec` JSON in, `{"job":"job-00000"}`  |
//! | GET    | `/jobs`            | all job records                           |
//! | GET    | `/jobs/{id}`       | one job record                            |
//! | POST   | `/jobs/{id}/cancel`| `{"ok":true}`                             |
//! | GET    | `/metrics`         | the `fleet_metrics.json` dashboard        |
//! | GET    | `/events`          | SSE: every obs event as a `data:` line    |
//! | GET    | `/events.jsonl`    | snapshot of the multiplexed event log     |
//! | POST   | `/shutdown`        | graceful drain: running jobs finish       |

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use crate::serve::job::JobSpec;
use crate::serve::service::Service;

/// The largest request body the service reads. A job submission is a
/// few hundred bytes; a larger `Content-Length` is answered with 413
/// before any of the body is read or allocated.
const MAX_BODY_BYTES: usize = 64 * 1024;

/// The largest request head (request line plus headers) the service
/// reads. Every request this service accepts has a head of a few hundred
/// bytes; a longer one is answered with 431 once the cap is reached, so
/// an endless header line cannot grow memory without bound.
const MAX_HEAD_BYTES: u64 = 8 * 1024;

/// Binds `addr`, records the bound endpoint in
/// `<state-dir>/endpoint.txt` (ephemeral ports are the test-suite
/// norm), and spawns the accept loop. Returns the bound address.
///
/// # Errors
///
/// Returns a message when the bind fails.
pub fn serve(service: Arc<Service>, addr: &str) -> Result<SocketAddr, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    let endpoint = std::path::PathBuf::from(&service.config().state_dir).join("endpoint.txt");
    // Atomic, so a client polling for the file never reads half an address.
    vrd_core::journal::write_atomic(&endpoint, format!("{bound}\n")).map_err(|e| e.to_string())?;
    let _ = service.bound.set(bound);
    std::thread::spawn(move || accept_loop(&listener, &service));
    Ok(bound)
}

/// Blocks on incoming connections, handing each to its own thread;
/// exits on the first connection accepted after the service shut down
/// ([`Service::request_shutdown`] makes one to wake it).
fn accept_loop(listener: &TcpListener, service: &Arc<Service>) {
    for stream in listener.incoming() {
        if service.is_shutdown() {
            break;
        }
        match stream {
            Ok(stream) => {
                let service = Arc::clone(service);
                std::thread::spawn(move || handle(stream, &service));
            }
            Err(_) => break,
        }
    }
}

/// Parses one request and routes it. A head longer than
/// [`MAX_HEAD_BYTES`] is answered with 431, a `Content-Length` that does
/// not parse with 400, and one above [`MAX_BODY_BYTES`] with 413, all
/// through [`reject`].
fn handle(stream: TcpStream, service: &Service) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut head = (&mut reader).take(MAX_HEAD_BYTES);
    let mut request_line = String::new();
    let mut content_length = Ok(0usize);
    let mut line = String::new();
    loop {
        line.clear();
        match head.read_line(&mut line) {
            // The cap cut the line short, or the client hung up mid-head.
            Ok(_) if !line.ends_with('\n') => {
                if head.limit() == 0 {
                    let error = format!("request head exceeds {MAX_HEAD_BYTES} bytes");
                    return reject(stream, reader, 431, &error);
                }
                return;
            }
            Ok(_) if request_line.is_empty() => request_line = std::mem::take(&mut line),
            Ok(_) if line.trim().is_empty() => break,
            Ok(_) => {
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    content_length = v.trim().parse::<usize>();
                }
            }
            Err(_) => return,
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_owned(), t.to_owned()),
        _ => return,
    };
    let content_length = match content_length {
        Ok(n) if n > MAX_BODY_BYTES => {
            let error = format!("request body exceeds {MAX_BODY_BYTES} bytes");
            return reject(stream, reader, 413, &error);
        }
        Ok(n) => n,
        Err(_) => return reject(stream, reader, 400, "unparsable Content-Length"),
    };
    let mut body = vec![0u8; content_length];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return;
    }
    let body = String::from_utf8_lossy(&body).into_owned();
    route(stream, service, &method, &target, &body);
}

/// Answers a request the service will not read to its end (an oversized
/// head or body, or an unparsable `Content-Length`) with `status`.
/// Closing a socket with unread request bytes resets the connection,
/// which can discard the response before the client reads it, so the
/// write side is closed first and a bounded tail of the request drained.
fn reject(mut stream: TcpStream, reader: BufReader<TcpStream>, status: u16, error: &str) {
    json(&mut stream, status, &format!("{{\"error\":{}}}", quote(error)));
    let _ = stream.shutdown(Shutdown::Write);
    let _ = std::io::copy(&mut reader.take(MAX_BODY_BYTES as u64), &mut std::io::sink());
}

fn route(mut stream: TcpStream, service: &Service, method: &str, target: &str, body: &str) {
    let path = target.split('?').next().unwrap_or(target);
    match (method, path) {
        ("GET", "/healthz") => json(&mut stream, 200, "{\"ok\":true}"),
        ("GET", "/fleet") => {
            let names: Vec<String> = service.fleet().iter().map(|s| s.name.clone()).collect();
            let cfg = service.config();
            let payload = serde_json::to_string(&FleetInfo {
                fleet_size: cfg.fleet_size as u64,
                fleet_seed: cfg.fleet_seed,
                service_seed: cfg.service_seed,
                modules: names,
            })
            .expect("fleet info serializes");
            json(&mut stream, 200, &payload);
        }
        ("POST", "/jobs") => match serde_json::from_str::<JobSpec>(body) {
            Ok(spec) => match service.submit(spec) {
                Ok(id) => json(&mut stream, 200, &format!("{{\"job\":{}}}", quote(&id))),
                Err(e) => json(&mut stream, 400, &format!("{{\"error\":{}}}", quote(&e))),
            },
            Err(e) => {
                json(&mut stream, 400, &format!("{{\"error\":{}}}", quote(&e.to_string())));
            }
        },
        ("GET", "/jobs") => {
            let records = service.records();
            let payload = serde_json::to_string(&records).expect("records serialize");
            json(&mut stream, 200, &payload);
        }
        ("GET", "/metrics") => {
            let payload =
                serde_json::to_string_pretty(&service.fleet_metrics()).expect("serializes");
            json(&mut stream, 200, &payload);
        }
        ("GET", "/events.jsonl") => {
            let log = std::path::PathBuf::from(&service.config().state_dir).join("events.jsonl");
            let text = std::fs::read_to_string(log).unwrap_or_default();
            respond(&mut stream, 200, "application/jsonl", text.as_bytes());
        }
        ("GET", "/events") => stream_events(stream, service),
        ("POST", "/shutdown") => {
            // Answer first: a drained process exits as soon as its
            // workers return, which can be before a late write lands.
            json(&mut stream, 200, "{\"ok\":true}");
            service.request_shutdown();
        }
        ("GET", p) if p.starts_with("/jobs/") => {
            let id = &p["/jobs/".len()..];
            match service.record(id) {
                Some(record) => {
                    let payload = serde_json::to_string(&record).expect("record serializes");
                    json(&mut stream, 200, &payload);
                }
                None => json(&mut stream, 404, "{\"error\":\"unknown job\"}"),
            }
        }
        ("POST", p) if p.starts_with("/jobs/") && p.ends_with("/cancel") => {
            let id = &p["/jobs/".len()..p.len() - "/cancel".len()];
            match service.cancel(id) {
                Ok(()) => json(&mut stream, 200, "{\"ok\":true}"),
                Err(e) => json(&mut stream, 400, &format!("{{\"error\":{}}}", quote(&e))),
            }
        }
        _ => json(&mut stream, 404, "{\"error\":\"no such endpoint\"}"),
    }
}

#[derive(serde::Serialize)]
struct FleetInfo {
    fleet_size: u64,
    fleet_seed: u64,
    service_seed: u64,
    modules: Vec<String>,
}

/// Streams the live event feed as server-sent events until the client
/// hangs up or the service shuts down (shutdown closes the hub, which
/// drops this stream's sender). History is not replayed —
/// `/events.jsonl` serves that.
fn stream_events(mut stream: TcpStream, service: &Service) {
    let header = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                  Cache-Control: no-cache\r\nConnection: close\r\n\r\n";
    if stream.write_all(header.as_bytes()).is_err() {
        return;
    }
    let _ = stream.flush();
    let (tx, rx) = mpsc::channel::<String>();
    service.events().subscribe(tx);
    for line in rx {
        if stream.write_all(format!("data: {line}\n\n").as_bytes()).is_err() {
            return;
        }
        let _ = stream.flush();
    }
}

fn json(stream: &mut TcpStream, status: u16, body: &str) {
    respond(stream, status, "application/json", body.as_bytes());
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &[u8]) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

/// JSON string quoting (the shim has no standalone string escaper).
fn quote(s: &str) -> String {
    serde_json::to_string(&s.to_owned()).expect("string serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeConfig;

    fn tiny_service(tag: &str) -> (Service, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("vrd-http-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::boot(ServeConfig {
            state_dir: dir.to_string_lossy().into_owned(),
            addr: "none".into(),
            fleet_size: 10,
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        (service, dir)
    }

    /// Sends each raw request to `handle` over a loopback connection and
    /// returns the response status codes.
    fn statuses(requests: &[String]) -> Vec<u16> {
        let (service, dir) = tiny_service("statuses");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let codes = requests
            .iter()
            .map(|request| {
                std::thread::scope(|scope| {
                    let server = scope.spawn(|| handle(listener.accept().unwrap().0, &service));
                    let mut client = TcpStream::connect(addr).unwrap();
                    client.write_all(request.as_bytes()).unwrap();
                    let mut response = String::new();
                    client.read_to_string(&mut response).unwrap();
                    drop(client);
                    server.join().expect("the connection thread must not panic");
                    response.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0)
                })
            })
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        codes
    }

    fn post_jobs(content_length: &str, body: &str) -> String {
        format!("POST /jobs HTTP/1.1\r\nContent-Length: {content_length}\r\n\r\n{body}")
    }

    #[test]
    fn content_length_is_bounded_and_must_parse() {
        let spec = r#"{"tenant": "alice", "kind": "family", "limit": 1}"#;
        let requests = [
            post_jobs(&spec.len().to_string(), spec),
            // 1 TiB: allocating it would abort the process.
            post_jobs("1099511627776", ""),
            post_jobs(&(MAX_BODY_BYTES + 1).to_string(), ""),
            // Body bytes already sent must not reset the connection
            // before the client reads the 413.
            post_jobs(&(MAX_BODY_BYTES + 1).to_string(), &"x".repeat(16 * 1024)),
            post_jobs("abc", ""),
            post_jobs("-5", ""),
            post_jobs("18446744073709551616", ""),
            // One header line, then many short ones, past the head cap.
            format!(
                "GET /healthz HTTP/1.1\r\nX-Long: {}\r\n\r\n",
                "a".repeat(MAX_HEAD_BYTES as usize)
            ),
            format!(
                "GET /healthz HTTP/1.1\r\n{}\r\n",
                "X-Many: 1\r\n".repeat(MAX_HEAD_BYTES as usize / 8)
            ),
        ];
        assert_eq!(statuses(&requests), [200, 413, 413, 413, 400, 400, 400, 431, 431]);
    }

    #[test]
    fn a_shutdown_wakes_the_accept_loop_and_closes_the_listener() {
        let (service, dir) = tiny_service("wake");
        let service = Arc::new(service);
        let addr = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        assert_eq!(service.bound.get(), Some(&addr));
        service.request_shutdown();
        // The loop returns on the first connection after the shutdown
        // and drops the listener, so connecting soon fails.
        let closed = (0..200).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            TcpStream::connect(addr).is_err()
        });
        assert!(closed, "the listener must close after a shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
