//! The load generator's side of the wire: one NDJSON connection, the
//! four instants that bound a request's client-side spans, and the
//! open-loop sender that times every request from when it was due.

use atsq_service::wire::{decode_server_reply_full, encode_request_for_city, ServerReply};
use atsq_service::Request;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One connection to the server under test.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

/// One request as the client saw it. The instants bound the spans
/// `wire.encode_request` (start→sent), `server.roundtrip`
/// (sent→received) and `wire.decode_reply` (received→done).
pub struct Exchange {
    pub start: Instant,
    pub sent: Instant,
    pub received: Instant,
    pub done: Instant,
    pub request_id: u64,
    pub reply: ServerReply,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

impl Conn {
    /// Connects as a client of the wire protocol does, and reports how
    /// long that took.
    pub fn connect(addr: SocketAddr) -> std::io::Result<(Conn, Duration)> {
        let t0 = Instant::now();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let took = t0.elapsed();
        Ok((
            Conn {
                stream,
                reader,
                line: String::new(),
            },
            took,
        ))
    }

    /// Encodes, sends, waits, decodes. An I/O or protocol error means
    /// the server under test is gone: the run cannot go on.
    pub fn exchange(&mut self, request: &Request, city: Option<&str>) -> Exchange {
        let start = Instant::now();
        let mut out = encode_request_for_city(request, None, city).to_json();
        out.push('\n');
        let sent = Instant::now();
        self.stream.write_all(out.as_bytes()).expect("send request");
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).expect("read reply");
        assert!(n > 0, "server closed the connection");
        let received = Instant::now();
        let (request_id, reply) = decode_server_reply_full(&self.line).expect("decode reply");
        let done = Instant::now();
        Exchange {
            start,
            sent,
            received,
            done,
            request_id: request_id.unwrap_or(0),
            reply,
            request_bytes: out.len(),
            response_bytes: n,
        }
    }
}

/// What the open loop measured, one entry per request of the schedule.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Due time → reply done, in nanoseconds.
    pub latency_ns: Vec<u64>,
    /// How late a sender that was waiting for the due time woke up.
    /// Requests whose due time passed while every sender was busy are
    /// backlog, not lateness, and have no entry.
    pub lateness_ns: Vec<u64>,
    /// Requests already due and not yet sent, seen at each send.
    pub backlog: Vec<u32>,
}

impl OpenLoop {
    /// Requests that were due and unsent when the last one became due:
    /// near zero when the system keeps up with the schedule.
    pub fn backlog_at_end(&self) -> u32 {
        self.backlog.last().copied().unwrap_or(0)
    }
}

/// Sends request `i` at `schedule[i]` after the start, on whichever of
/// the `senders` is free first, whatever the earlier replies are
/// doing; a stall therefore delays later requests and that delay is in
/// their latency. `send(i, due)` returns the instant the reply was in hand.
pub fn open_loop<S>(schedule: &[Duration], senders: Vec<S>) -> OpenLoop
where
    S: FnMut(usize, Instant) -> Instant + Send,
{
    #[derive(Default, Clone, Copy)]
    struct Sample {
        latency_ns: u64,
        lateness_ns: Option<u64>,
        backlog: u32,
    }
    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(2);
    let per_sender: Vec<Vec<(usize, Sample)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = senders
            .into_iter()
            .map(|mut send| {
                let next = &next;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        // ordering: Relaxed — a ticket counter; the
                        // schedule it indexes is read-only.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= schedule.len() {
                            return samples;
                        }
                        let due = t0 + schedule[i];
                        let now = Instant::now();
                        let mut sample = Sample::default();
                        if now < due {
                            wait_until(due);
                            sample.lateness_ns = Some((Instant::now() - due).as_nanos() as u64);
                        } else {
                            let due_by_now = schedule.partition_point(|&d| t0 + d <= now);
                            sample.backlog = (due_by_now - i) as u32;
                        }
                        let done = send(i, due);
                        sample.latency_ns = (done - due).as_nanos() as u64;
                        samples.push((i, sample));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let mut by_index = vec![Sample::default(); schedule.len()];
    for (i, sample) in per_sender.into_iter().flatten() {
        by_index[i] = sample;
    }
    OpenLoop {
        latency_ns: by_index.iter().map(|s| s.latency_ns).collect(),
        lateness_ns: by_index.iter().filter_map(|s| s.lateness_ns).collect(),
        backlog: by_index.iter().map(|s| s.backlog).collect(),
    }
}

/// Sleeps most of the way and spins the rest: a plain sleep overshoots
/// by tens of microseconds, which would be charged to the system.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic server that answers at once, except that request 3
    /// stalls for 50 ms. With one sender and a request due every 10 ms,
    /// requests 4 to 7 become due during the stall.
    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        let schedule: Vec<Duration> = (0..12).map(|i| Duration::from_millis(10 * i)).collect();
        let stalled = |i: usize, _due: Instant| {
            if i == 3 {
                std::thread::sleep(Duration::from_millis(50));
            }
            Instant::now()
        };
        let report = open_loop(&schedule, vec![stalled]);
        let ms = |ns: u64| ns as f64 / 1e6;
        assert_eq!(report.latency_ns.len(), 12);
        // Timed from its due time, request 4 waited out the rest of the
        // stall (50 − 10 ms) although the server answered it at once; a
        // closed loop would have reported about zero.
        assert!(ms(report.latency_ns[3]) >= 50.0);
        assert!(ms(report.latency_ns[4]) >= 39.0, "{:?}", report.latency_ns);
        assert!(ms(report.latency_ns[5]) >= 29.0);
        assert!(ms(report.latency_ns[0]) < 5.0);
        // The delayed requests are backlog, not generator lateness.
        assert!(report.backlog[4] >= 3, "{:?}", report.backlog);
        assert_eq!(report.backlog[0], 0);
        assert!(report.lateness_ns.len() <= 12 - 3);
        assert!(
            report.lateness_ns.len() >= 4,
            "requests before the stall were on time"
        );
    }

    #[test]
    fn two_senders_share_one_schedule() {
        let schedule: Vec<Duration> = (0..20).map(Duration::from_millis).collect();
        let counts = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let senders: Vec<_> = counts
            .iter()
            .map(|count| {
                move |_i: usize, _due: Instant| {
                    count.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(500));
                    Instant::now()
                }
            })
            .collect();
        let report = open_loop(&schedule, senders);
        assert!(report.latency_ns.iter().all(|&ns| ns > 0));
        let sent: usize = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(sent, 20, "every request sent exactly once");
    }
}
