//! The open-loop load generator.
//!
//! Requests carry a due time fixed in advance. Each sender thread works
//! through its sessions in order: it waits for a session's first due
//! time, connects, sends each request no earlier than its due time,
//! reads the reply, and disconnects. A slow reply delays the sender's
//! later requests, and because latency is measured from the due time,
//! that wait is counted rather than hidden (no coordinated omission).
//!
//! Sleep overshoot while the sender was idle is the generator's own
//! lateness (`slop`); lateness caused by waiting on the system under
//! test is not.

use std::time::Instant;

use crate::clock;

/// What a request is, for checking its reply and splitting latencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `query` for one interface (index into the benchmark's list).
    Query(usize),
    /// `status`.
    Status,
    /// A `kb-flip` delta.
    KbFlip,
    /// A `campaign` delta for campaign `k`.
    Campaign(u64),
    /// A `metrics` or `alerts` poll.
    Poll,
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Request {
    /// When the request is due, ns after the load origin.
    pub due_ns: u64,
    /// The `cfs-api/1` request line.
    pub line: String,
    /// What it is.
    pub kind: Kind,
}

/// One request as sent.
#[derive(Clone, Debug)]
pub struct Sent {
    /// Index into the request list.
    pub index: usize,
    /// When the sender started on it (before connecting, for a
    /// session's first request), ns after the origin.
    pub sent_ns: u64,
    /// When its reply arrived, ns after the origin.
    pub done_ns: u64,
    /// Sleep overshoot when the sender was idle before it, ns.
    pub slop_ns: u64,
    /// The reply line, or the transport error.
    pub reply: Result<String, String>,
}

impl Sent {
    /// Latency from the due time, ms.
    pub fn latency_ms(&self, req: &Request) -> f64 {
        self.done_ns.saturating_sub(req.due_ns) as f64 / 1e6
    }
}

/// A connection that answers one request line with one reply line.
pub trait Conn {
    /// One roundtrip.
    fn roundtrip(&mut self, line: &str) -> std::io::Result<String>;
}

/// Opens connections to the system under test.
pub trait Connect: Sync {
    /// The connection type.
    type Conn: Conn;
    /// Opens one connection.
    fn connect(&self) -> std::io::Result<Self::Conn>;
}

/// A sender more than this far behind a request's due time gives the
/// request up (it counts as failed), so a stalled system cannot hold a
/// run open indefinitely.
pub const GIVE_UP_NS: u64 = 5_000_000_000;

/// Waits for `due_ns`; returns the sleep overshoot when the sender was
/// idle, 0 when it was already late.
fn wait_for(origin: Instant, due_ns: u64) -> u64 {
    if clock::since_ns(origin) >= due_ns {
        return 0;
    }
    clock::sleep_until(origin, due_ns);
    clock::since_ns(origin).saturating_sub(due_ns)
}

/// Runs one sender's sessions in order (see the module docs).
pub fn drive<C: Connect>(
    connector: &C,
    reqs: &[Request],
    sessions: &[Vec<usize>],
    origin: Instant,
) -> Vec<Sent> {
    let mut out = Vec::with_capacity(sessions.iter().map(Vec::len).sum());
    for session in sessions {
        let mut conn: Option<Result<C::Conn, String>> = None;
        for &i in session {
            let req = &reqs[i];
            let slop_ns = wait_for(origin, req.due_ns);
            let sent_ns = clock::since_ns(origin);
            let reply = if sent_ns.saturating_sub(req.due_ns) > GIVE_UP_NS {
                Err(format!(
                    "given up: sender {} ms behind",
                    (sent_ns - req.due_ns) / 1_000_000
                ))
            } else {
                let c = conn.get_or_insert_with(|| connector.connect().map_err(|e| e.to_string()));
                match c {
                    Ok(c) => c.roundtrip(&req.line).map_err(|e| e.to_string()),
                    Err(e) => Err(format!("connect: {e}")),
                }
            };
            out.push(Sent {
                index: i,
                sent_ns,
                done_ns: clock::since_ns(origin),
                slop_ns,
                reply,
            });
        }
    }
    out
}

/// Runs every sender on its own scoped thread; returns all requests in
/// request-list order.
pub fn drive_all<C: Connect>(
    connector: &C,
    reqs: &[Request],
    per_sender: &[Vec<Vec<usize>>],
    origin: Instant,
) -> Vec<Sent> {
    let mut all: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = per_sender
            .iter()
            .map(|sessions| s.spawn(move || drive(connector, reqs, sessions, origin)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    all.sort_by_key(|s| s.index);
    all
}

/// Requests due by `end_ns` that had not been sent by then.
pub fn backlog(reqs: &[Request], sent: &[Sent], end_ns: u64) -> usize {
    sent.iter()
        .filter(|s| reqs[s.index].due_ns <= end_ns && s.sent_ns > end_ns)
        .count()
}

/// Splits `n` consecutive request indices starting at `first` into
/// sessions of `per_session`, dealt round-robin to `senders` threads.
pub fn deal_sessions(
    first: usize,
    n: usize,
    per_session: usize,
    senders: usize,
    into: &mut [Vec<Vec<usize>>],
) {
    let mut k = 0;
    let mut i = first;
    while i < first + n {
        let end = (i + per_session).min(first + n);
        into[k % senders].push((i..end).collect());
        i = end;
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    use std::time::Duration;

    use super::*;

    /// A fake daemon: echoes the line; one request stalls it.
    struct Stalling {
        stall_on: String,
        stall: Duration,
        connects: Mutex<usize>,
    }

    struct Echo<'a> {
        owner: &'a Stalling,
    }

    impl Conn for Echo<'_> {
        fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
            if line == self.owner.stall_on {
                clock::pause(self.owner.stall);
            }
            Ok(format!("ok {line}"))
        }
    }

    impl<'a> Connect for &'a Stalling {
        type Conn = Echo<'a>;
        fn connect(&self) -> std::io::Result<Echo<'a>> {
            *self.connects.lock().unwrap() += 1;
            Ok(Echo { owner: self })
        }
    }

    fn schedule(n: usize, gap_ms: u64) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                due_ns: (i as u64 + 1) * gap_ms * 1_000_000,
                line: format!("r{i}"),
                kind: Kind::Status,
            })
            .collect()
    }

    #[test]
    fn latency_counts_the_wait_a_stall_imposes_on_later_requests() {
        // Requests every 2 ms; request 2 stalls the "daemon" 40 ms.
        let reqs = schedule(10, 2);
        let fake = Stalling {
            stall_on: "r2".into(),
            stall: Duration::from_millis(40),
            connects: Mutex::new(0),
        };
        let mut per_sender = vec![Vec::new()];
        deal_sessions(0, reqs.len(), 5, 1, &mut per_sender);
        let sent = drive_all(&&fake, &reqs, &per_sender, clock::now());
        assert_eq!(sent.len(), 10);
        assert_eq!(*fake.connects.lock().unwrap(), 2);
        assert!(sent.iter().all(|s| s.reply.is_ok()));

        // Request 3 was due 2 ms after request 2 but could only be sent
        // once the stall ended: from its due time it waited ≳ 38 ms,
        // although its own roundtrip was instant.
        let r3 = &sent[3];
        assert!(r3.latency_ms(&reqs[3]) >= 37.0, "{r3:?}");
        assert!(r3.done_ns - r3.sent_ns < 5_000_000, "{r3:?}");
        // The sender was busy, not asleep, so none of that is slop.
        assert_eq!(r3.slop_ns, 0);
        // Every request after the stall until the schedule catches up
        // carries the wait too: request 9 (due at 20 ms) still waited.
        assert!(sent[9].latency_ms(&reqs[9]) >= 20.0, "{:?}", sent[9]);
        // Measured from send instead, the stall would vanish.
        assert!(sent[9].done_ns - sent[9].sent_ns < 5_000_000);
        // Before the stall the schedule was met.
        assert!(sent[0].latency_ms(&reqs[0]) < 20.0);
    }

    #[test]
    fn backlog_counts_requests_due_but_unsent_at_the_end() {
        let reqs = schedule(4, 1);
        let at = |index, sent_ns| Sent {
            index,
            sent_ns,
            done_ns: sent_ns,
            slop_ns: 0,
            reply: Ok(String::new()),
        };
        let sent = vec![
            at(0, 1_000_000),
            at(1, 2_500_000),
            at(2, 5_000_000),
            at(3, 6_000_000),
        ];
        // By 3 ms, requests 0..=2 were due; 2 had not been sent.
        assert_eq!(backlog(&reqs, &sent, 3_000_000), 1);
        assert_eq!(backlog(&reqs, &sent, 6_000_000), 0);
    }

    #[test]
    fn sessions_are_dealt_round_robin() {
        let mut per = vec![Vec::new(), Vec::new()];
        deal_sessions(3, 9, 4, 2, &mut per);
        assert_eq!(per[0], vec![vec![3, 4, 5, 6], vec![11]]);
        assert_eq!(per[1], vec![vec![7, 8, 9, 10]]);
    }
}
