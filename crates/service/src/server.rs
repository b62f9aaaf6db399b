//! Newline-delimited-JSON TCP front-end for a [`ServiceHandle`].
//!
//! One thread accepts connections; each connection gets a reader
//! thread that decodes request lines ([`crate::wire`]), submits them
//! to the service, and writes one response line per request, in
//! order. The closed loop per connection means a client's concurrency
//! equals its connection count — which is exactly how the matching
//! [`crate::loadgen`] drives it.

use crate::service::ServiceHandle;
use crate::wire;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// A running TCP server wrapping a service.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections against `handle`.
    pub fn bind(handle: ServiceHandle, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let accept_thread = thread::Builder::new()
            .name("atsq-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    // ordering: Relaxed — the stop flag carries no
                    // dependent data; the throwaway connection in
                    // `shutdown` guarantees the loop wakes to observe
                    // it, and `join` synchronizes the final state.
                    if accept_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // One-line request/response turns: Nagle plus
                    // delayed ACKs would add ~40 ms per turn.
                    let _ = stream.set_nodelay(true);
                    let handle = handle.clone();
                    // Connection threads are detached; they exit when
                    // the peer closes its half of the connection.
                    let _ = thread::Builder::new()
                        .name("atsq-conn".into())
                        .spawn(move || serve_connection(stream, &handle));
                }
            })?;
        Ok(Server {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting new connections and joins the accept thread.
    /// Established connections finish on their own.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // ordering: Relaxed — pure stop flag; nothing is published
        // through it, and the connect below forces the accept loop
        // around to the load.
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection. A
        // wildcard bind address (0.0.0.0 / ::) is not connectable on
        // every platform, so aim at loopback in that case.
        let mut target = self.local_addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(target);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

/// Hard cap on one request line. Admission control only engages after
/// a full line is decoded, so the line reader itself must bound memory
/// or a newline-less client could grow the buffer without limit.
const MAX_LINE_BYTES: u64 = 1 << 20;

fn serve_connection(stream: TcpStream, handle: &ServiceHandle) {
    let Ok(peer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(peer);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        match std::io::Read::take(&mut reader, MAX_LINE_BYTES).read_until(b'\n', &mut buf) {
            Ok(0) => break, // EOF
            Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() != Some(&b'\n') && buf.len() as u64 >= MAX_LINE_BYTES {
            // Over-long line: answer once, then drop the connection —
            // the rest of the stream is the same unframed request.
            let reply = wire::encode_error("request line exceeds 1 MiB").to_json();
            let _ = writer.write_all(reply.as_bytes());
            let _ = writer.write_all(b"\n");
            let _ = writer.flush();
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            let reply = wire::encode_error("request line is not UTF-8").to_json();
            if writer
                .write_all(reply.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .is_err()
            {
                break;
            }
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        let reply = respond(line.trim_end_matches(['\n', '\r']), handle);
        if writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
    }
}

fn respond(line: &str, handle: &ServiceHandle) -> String {
    let envelope = match wire::decode_envelope(line) {
        Ok(e) => e,
        Err(e) => return wire::encode_error(&e.to_string()).to_json(),
    };
    match envelope {
        // A query line: resolve the city first — the lease pins the
        // city resident and supplies the vocabulary the stops decode
        // against — then finish decoding and submit under that lease.
        wire::Envelope::Query { city, value } => {
            let lease = match handle.resolve_city(city.as_deref()) {
                Ok(lease) => lease,
                Err(e) => {
                    return wire::encode_submit_error(&crate::service::SubmitError::City(e))
                        .to_json()
                }
            };
            let (request, deadline) = match wire::decode_query_request(&value, lease.dataset()) {
                Ok(decoded) => decoded,
                Err(e) => return wire::encode_error(&e.to_string()).to_json(),
            };
            match handle.submit_leased(lease, request, deadline) {
                Err(e) => wire::encode_submit_error(&e).to_json(),
                Ok(ticket) => {
                    let id = ticket.request_id();
                    match ticket.wait() {
                        Some(response) => {
                            let t0 = std::time::Instant::now();
                            let reply = wire::encode_response(&response, Some(id)).to_json();
                            handle.record_serialize(t0.elapsed());
                            reply
                        }
                        None => wire::encode_error("service stopped").to_json(),
                    }
                }
            }
        }
        wire::Envelope::Control(message) => respond_control(message, handle),
    }
}

/// Answers the dataset-free control ops: liveness, stats, metrics,
/// slow log, and the multi-tenant city admin surface.
fn respond_control(message: wire::ClientMessage, handle: &ServiceHandle) -> String {
    match message {
        wire::ClientMessage::Ping => crate::json::obj(vec![
            ("status", crate::json::Value::Str("ok".into())),
            ("pong", crate::json::Value::Bool(true)),
        ])
        .to_json(),
        wire::ClientMessage::Stats => wire::encode_stats(&handle.stats()).to_json(),
        wire::ClientMessage::Metrics => wire::encode_metrics(&handle.metrics_text()).to_json(),
        wire::ClientMessage::Slowlog => wire::encode_slowlog(&handle.slowlog()).to_json(),
        wire::ClientMessage::Cities => wire::encode_cities(&handle.cities()).to_json(),
        wire::ClientMessage::CityLoad(city) => match handle.city_load(&city) {
            Ok(cold) => wire::encode_city_ack(&city, Some(cold)).to_json(),
            Err(e) => wire::encode_error(&e.to_string()).to_json(),
        },
        wire::ClientMessage::CityUnload(city) => match handle.city_unload(&city) {
            Ok(()) => wire::encode_city_ack(&city, None).to_json(),
            Err(e) => wire::encode_error(&e.to_string()).to_json(),
        },
        // `decode_envelope` never wraps a query in `Control`; answer
        // defensively rather than panicking on a hot path.
        wire::ClientMessage::Query(..) => {
            wire::encode_error("internal: query routed as control").to_json()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use crate::service::{Service, ServiceConfig};
    use crate::wire::{decode_server_reply, encode_request, ServerReply};
    use atsq_core::QueryEngine;
    use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};

    fn lines(stream: &TcpStream) -> BufReader<TcpStream> {
        BufReader::new(stream.try_clone().unwrap())
    }

    #[test]
    fn tcp_roundtrip_matches_direct_engine() {
        let dataset = generate(&CityConfig::tiny(19)).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 4);
        let service = Service::build(
            dataset,
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let handle = service.handle();
        let server = Server::bind(handle.clone(), "127.0.0.1:0").unwrap();

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = lines(&stream);
        for q in &queries {
            let request = Request::Atsq {
                query: q.clone(),
                k: 5,
            };
            let line = encode_request(&request, None).to_json();
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let (request_id, decoded) = crate::wire::decode_server_reply_full(&reply).unwrap();
            assert!(request_id.is_some(), "query replies echo a request id");
            match decoded {
                ServerReply::Ok { results, .. } => {
                    let direct = handle.engine().atsq(&handle.dataset(), q, 5);
                    assert_eq!(results.len(), direct.len());
                    for (got, want) in results.iter().zip(&direct) {
                        assert_eq!(got.trajectory, want.trajectory);
                        assert!((got.distance - want.distance).abs() < 1e-9);
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        // Stats over the wire.
        stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let stats = crate::json::parse(reply.trim()).unwrap();
        assert_eq!(
            stats
                .get("completed")
                .and_then(crate::json::Value::as_usize),
            Some(queries.len())
        );

        // Metrics over the wire: the Prometheus page rides in a JSON
        // envelope and carries the request counters just exercised.
        stream.write_all(b"{\"op\":\"metrics\"}\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let page = crate::json::parse(reply.trim()).unwrap();
        let text = page
            .get("metrics")
            .and_then(crate::json::Value::as_str)
            .unwrap();
        assert!(
            text.contains(&format!(
                "atsq_requests_completed_total {}\n",
                queries.len()
            )),
            "{text}"
        );

        // Slow log over the wire: decodes to an entries array.
        stream.write_all(b"{\"op\":\"slowlog\"}\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let log = crate::json::parse(reply.trim()).unwrap();
        assert!(log
            .get("entries")
            .and_then(crate::json::Value::as_arr)
            .is_some());

        // Garbage gets an error response, not a dropped connection.
        stream.write_all(b"garbage\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(matches!(
            decode_server_reply(&reply).unwrap(),
            ServerReply::Error(_)
        ));

        drop(stream);
        server.stop();
        service.shutdown();
    }

    /// `k` is outside input: the largest value the wire accepts must
    /// come back as the full ranked list, not as a worker reserving
    /// memory for four billion results.
    #[test]
    fn huge_k_over_tcp_returns_the_full_ranked_list() {
        let dataset = generate(&CityConfig::tiny(23)).unwrap();
        let q = generate_queries(&dataset, &QueryGenConfig::default(), 1).remove(0);
        let service = Service::build(dataset, ServiceConfig::default()).unwrap();
        let handle = service.handle();
        let server = Server::bind(handle.clone(), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = lines(&stream);

        let request = Request::Atsq {
            query: q.clone(),
            k: u32::MAX as usize,
        };
        let line = encode_request(&request, None).to_json();
        assert!(line.contains("\"k\":4294967295"), "{line}");
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let dataset = handle.dataset();
        let want = handle.engine().atsq(&dataset, &q, dataset.len());
        assert!(!want.is_empty(), "the query must match something");
        match decode_server_reply(&reply).unwrap() {
            ServerReply::Ok { results, .. } => {
                let ids = |r: &[atsq_types::QueryResult]| -> Vec<_> {
                    r.iter().map(|r| r.trajectory).collect()
                };
                assert_eq!(ids(&results), ids(&want));
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(stream);
        server.stop();
        service.shutdown();
    }
}
