//! Open-loop HTTP load generator.
//!
//! Request `k` of a phase is *due* at `start + k / rate`, whatever the
//! state of earlier requests: the sender never waits for a response, so
//! several requests can be in flight per connection and a server stall
//! builds a backlog instead of slowing the offered load. Requests go to
//! connection `k % conns` in turn, so both connections carry the same
//! evenly interleaved schedule.
//!
//! Every latency is timed from the request's due time, not from when it
//! left the generator, so a stall counts against every request queued
//! behind it. How late the generator itself sent each request is kept
//! as `late_us`; a phase whose lateness grows was not offered its rate.
//!
//! Two threads per phase: a sender (sleeps until the next due time, or
//! spins when it is close) and a receiver that blocks in `poll(2)` on the
//! sockets and stamps each response as it arrives.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use wdt_serve::shim::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN};
use wdt_types::JsonValue;

/// Which route a planned request hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Predict,
    Explain,
}

/// Render `POST path` with a JSON body as HTTP/1.1 keep-alive bytes.
pub fn render_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: wdt\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A `/predict` body: the row's values under the schema's names, as
/// shortest-round-trip JSON numbers.
pub fn row_body(names: &[String], row: &[f64]) -> String {
    JsonValue::Obj(names.iter().cloned().zip(row.iter().map(|&v| JsonValue::Num(v))).collect())
        .to_string()
}

/// The exact request bytes for every row: `/predict` at index `2·row`,
/// `/explain` at `2·row + 1`.
pub fn wires_for(names: &[String], rows: &[Vec<f64>]) -> Vec<Vec<u8>> {
    rows.iter()
        .flat_map(|r| {
            let body = row_body(names, r);
            [render_post("/predict", &body), render_post("/explain", &body)]
        })
        .collect()
}

/// Seeded request plan for phase `phase`: `n` requests, each an index
/// into [`wires_for`]'s list over `rows` rows; about 1 in 16 an `/explain`.
pub fn plan(seed: u64, phase: u64, n: usize, rows: usize) -> Vec<(u32, Route)> {
    (0..n as u64)
        .map(|k| {
            let h = splitmix(seed ^ splitmix(phase) ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let row = (h % rows as u64) as u32;
            if (h >> 32).is_multiple_of(16) {
                (2 * row + 1, Route::Explain)
            } else {
                (2 * row, Route::Predict)
            }
        })
        .collect()
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Due time of request `k` at `rate` requests/s, in ns after the start.
pub fn due_ns(k: usize, rate: f64) -> u64 {
    (k as f64 * 1e9 / rate).round() as u64
}

/// How late a request sent at `sent_ns` was, given its due time.
pub fn late_ns(sent_ns: u64, due: u64) -> u64 {
    sent_ns.saturating_sub(due)
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Index of the request in the phase plan.
    pub k: u32,
    pub status: u16,
    /// Receive time minus due time.
    pub latency_ns: u64,
    /// Receive time, ns after the phase start.
    pub recv_ns: u64,
    /// Bits of the served `rate` (`/predict`) or `prediction` (`/explain`).
    pub rate_bits: u64,
    /// Index into [`PhaseResult::versions`].
    pub version: u16,
    /// For `/explain`: `bias + Σ contributions` folded left to right is
    /// bitwise the served prediction. Always true for `/predict`.
    pub fold_ok: bool,
}

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub planned: usize,
    /// Per request, in plan order: how late the sender put it on the wire.
    pub late_ns: Vec<u64>,
    pub answers: Vec<Answer>,
    /// Interned `version` strings seen in responses.
    pub versions: Vec<String>,
    /// Requests never answered (timeout or a dead connection).
    pub unanswered: usize,
    /// Transport errors (write/read failures, malformed responses).
    pub transport_errors: usize,
    /// The phase's start instant, for callers that correlate events.
    pub start: Option<Instant>,
}

impl PhaseResult {
    /// Non-200 answers, answers that failed the fold check, and requests
    /// never answered.
    pub fn failed(&self) -> usize {
        self.answers.iter().filter(|a| a.status != 200 || !a.fold_ok).count() + self.unanswered
    }

    /// Latencies (µs) of answered requests of one route, in due order.
    pub fn latencies_us(&self, plan: &[(u32, Route)], route: Route) -> Vec<f64> {
        let mut v: Vec<(u32, f64)> = self
            .answers
            .iter()
            .filter(|a| plan[a.k as usize].1 == route)
            .map(|a| (a.k, a.latency_ns as f64 / 1e3))
            .collect();
        v.sort_by_key(|&(k, _)| k);
        v.into_iter().map(|(_, l)| l).collect()
    }

    /// Answers per second, from the phase start to the last answer.
    pub fn achieved_rate(&self) -> f64 {
        let last = self.answers.iter().map(|a| a.recv_ns).max().unwrap_or(0);
        if last == 0 {
            return 0.0;
        }
        self.answers.len() as f64 / (last as f64 * 1e-9)
    }

    /// Median send lateness (µs) over the first and the last tenth of
    /// the plan.
    pub fn lateness_trend_us(&self) -> (f64, f64) {
        lateness_trend_us(&self.late_ns)
    }
}

/// Median lateness (µs) of the first and last tenth of a send sequence.
pub fn lateness_trend_us(late_ns: &[u64]) -> (f64, f64) {
    let n = late_ns.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let tenth = (n / 10).max(1);
    let med = |s: &[u64]| {
        let v: Vec<f64> = s.iter().map(|&x| x as f64 / 1e3).collect();
        crate::stats::median(&v)
    };
    (med(&late_ns[..tenth]), med(&late_ns[n - tenth..]))
}

/// A generator fell behind when its lateness at the end of a phase
/// exceeds its lateness at the start by more than `slack_us`: requests
/// were no longer offered at the phase's rate.
pub fn lateness_grows(late_ns: &[u64], slack_us: f64) -> bool {
    let (first, last) = lateness_trend_us(late_ns);
    last > first + slack_us
}

/// Keep-alive connections to one server.
pub struct Conns {
    streams: Vec<TcpStream>,
    addr: SocketAddr,
}

impl Conns {
    pub fn open(addr: SocketAddr, n: usize) -> std::io::Result<Conns> {
        let mut streams = Vec::with_capacity(n);
        for _ in 0..n {
            let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
            s.set_nodelay(true)?;
            streams.push(s);
        }
        Ok(Conns { streams, addr })
    }

    /// Replace every connection (after a phase left one broken).
    pub fn reopen(&mut self) -> std::io::Result<()> {
        *self = Conns::open(self.addr, self.streams.len())?;
        Ok(())
    }

    /// Offer `plan` (indices into `wires`, the exact request bytes) open
    /// loop at `rate`, then wait up to `drain` past the last due time for
    /// the answers.
    pub fn run_phase(
        &mut self,
        wires: &[Vec<u8>],
        plan: &[(u32, Route)],
        rate: f64,
        drain: Duration,
    ) -> PhaseResult {
        self.run_phase_until(wires, plan, rate, drain, &AtomicBool::new(false))
    }

    /// [`Conns::run_phase`] that stops sending once `stop` is set (the
    /// plan is then cut short: only requests already sent are owed an
    /// answer).
    pub fn run_phase_until(
        &mut self,
        wires: &[Vec<u8>],
        plan: &[(u32, Route)],
        rate: f64,
        drain: Duration,
        stop: &AtomicBool,
    ) -> PhaseResult {
        let conns = self.streams.len();
        let start = Instant::now() + Duration::from_millis(2);
        let mut res = PhaseResult { planned: plan.len(), start: Some(start), ..Default::default() };
        let writers: Vec<TcpStream> =
            self.streams.iter().filter_map(|s| s.try_clone().ok()).collect();
        if writers.len() != conns {
            res.transport_errors += 1;
            res.unanswered = plan.len();
            return res;
        }
        let sent = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let sender = s.spawn(|| {
                let out = send_loop(writers, wires, plan, rate, start, stop, &sent);
                done.store(true, Ordering::SeqCst);
                out
            });
            let recv = receive_loop(&mut self.streams, plan, rate, start, drain, &sent, &done);
            let (late, send_err) = sender.join().expect("sender thread panicked");
            res.planned = late.len();
            res.late_ns = late;
            res.transport_errors += send_err as usize + recv.errors;
            res.answers = recv.answers;
            res.versions = recv.versions;
        });
        res.unanswered = res.planned - res.answers.len();
        res
    }
}

fn send_loop(
    mut writers: Vec<TcpStream>,
    wires: &[Vec<u8>],
    plan: &[(u32, Route)],
    rate: f64,
    start: Instant,
    stop: &AtomicBool,
    sent: &AtomicUsize,
) -> (Vec<u64>, bool) {
    let conns = writers.len();
    let mut late = vec![0u64; plan.len()];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::with_capacity(64 << 10); conns];
    let mut k = 0;
    let mut failed = false;
    tight_timer_slack();
    while k < plan.len() && !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        let now_ns = now.saturating_duration_since(start).as_nanos() as u64;
        let due = due_ns(k, rate);
        if now < start || now_ns < due {
            let wait = (start + Duration::from_nanos(due)).saturating_duration_since(now);
            if wait > Duration::from_micros(20) {
                std::thread::sleep(wait - Duration::from_micros(8));
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        let mut end = k;
        while end < plan.len() && due_ns(end, rate) <= now_ns {
            bufs[end % conns].extend_from_slice(&wires[plan[end].0 as usize]);
            late[end] = late_ns(now_ns, due_ns(end, rate));
            end += 1;
        }
        for (w, buf) in writers.iter_mut().zip(bufs.iter_mut()) {
            if !buf.is_empty() && !failed && w.write_all(buf).is_err() {
                failed = true;
            }
            buf.clear();
        }
        k = end;
        sent.store(k, Ordering::SeqCst);
    }
    late.truncate(k);
    (late, failed)
}

/// Let this thread's sleeps end when asked: Linux pads every timed sleep
/// by the thread's timer slack (50 µs by default), which would make the
/// sender sleep through several due times at a time. Best effort: on
/// failure the default slack only adds lateness, which is measured.
fn tight_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: std::ffi::c_int, arg2: std::ffi::c_ulong, ...) -> std::ffi::c_int;
        }
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument (the slack
        // in ns) and only changes the calling thread's scheduling state.
        let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1_000) };
    }
}

struct Received {
    answers: Vec<Answer>,
    versions: Vec<String>,
    errors: usize,
}

fn receive_loop(
    streams: &mut [TcpStream],
    plan: &[(u32, Route)],
    rate: f64,
    start: Instant,
    drain: Duration,
    sent: &AtomicUsize,
    done: &AtomicBool,
) -> Received {
    let conns = streams.len();
    let mut out =
        Received { answers: Vec::with_capacity(plan.len()), versions: Vec::new(), errors: 0 };
    // Answers owed on connection `c` once `n` requests have been sent.
    let owed = |n: usize, c: usize| (n + conns - 1 - c) / conns;
    let mut deadline: Option<Instant> = None;
    let mut got = vec![0usize; conns];
    let mut dead = vec![false; conns];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::with_capacity(64 << 10); conns];
    let mut chunk = vec![0u8; 64 << 10];
    let mut fds: Vec<PollFd> =
        streams.iter().map(|s| PollFd { fd: s.as_raw_fd(), events: POLLIN, revents: 0 }).collect();
    loop {
        let finished = done.load(Ordering::SeqCst);
        let n = sent.load(Ordering::SeqCst);
        let now = Instant::now();
        if finished && deadline.is_none() {
            // The drain window runs from the later of now and the last
            // request's due time.
            let last_due = start + Duration::from_nanos(due_ns(n.saturating_sub(1), rate));
            deadline = Some(last_due.max(now) + drain);
        }
        let pending = (0..conns).any(|c| !dead[c] && got[c] < owed(n, c));
        if finished && (!pending || deadline.is_some_and(|d| now >= d)) {
            break;
        }
        for (c, fd) in fds.iter_mut().enumerate() {
            fd.fd = if dead[c] { -1 } else { streams[c].as_raw_fd() };
            fd.revents = 0;
        }
        let wait_ms = if finished { 5 } else { 1 };
        if poll_fds(&mut fds, wait_ms).is_err() {
            out.errors += 1;
            break;
        }
        for c in 0..conns {
            if fds[c].fd < 0 || fds[c].revents & (POLLIN | POLLERR | POLLHUP) == 0 {
                continue;
            }
            match streams[c].read(&mut chunk) {
                Ok(0) | Err(_) => {
                    dead[c] = true;
                    out.errors += 1;
                    continue;
                }
                Ok(n) => bufs[c].extend_from_slice(&chunk[..n]),
            }
            let recv_ns = start.elapsed().as_nanos() as u64;
            let mut consumed = 0;
            loop {
                match parse_response(&bufs[c][consumed..]) {
                    Ok(Some((len, status, body))) => {
                        let k = got[c] * conns + c;
                        if k >= plan.len() {
                            dead[c] = true;
                            out.errors += 1;
                            break;
                        }
                        got[c] += 1;
                        let route = plan[k].1;
                        let (rate_bits, version, fold_ok) =
                            read_body(status, route, body, &mut out.versions);
                        out.answers.push(Answer {
                            k: k as u32,
                            status,
                            latency_ns: recv_ns.saturating_sub(due_ns(k, rate)),
                            recv_ns,
                            rate_bits,
                            version,
                            fold_ok,
                        });
                        consumed += len;
                    }
                    Ok(None) => break,
                    Err(()) => {
                        dead[c] = true;
                        out.errors += 1;
                        break;
                    }
                }
            }
            bufs[c].drain(..consumed);
        }
    }
    out
}

/// One framed response: its length on the wire, status and body.
type Framed<'a> = (usize, u16, &'a [u8]);

/// Parse one HTTP/1.1 response off the front of `buf`:
/// `Ok(Some((wire_len, status, body)))`, `Ok(None)` when incomplete.
pub fn parse_response(buf: &[u8]) -> Result<Option<Framed<'_>>, ()> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > 8192 { Err(()) } else { Ok(None) };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| ())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or(())?;
    let status: u16 = status_line.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or(())?;
    let mut len = None;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                len = Some(v.trim().parse::<usize>().map_err(|_| ())?);
            }
        }
    }
    let len = len.ok_or(())?;
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((total, status, &buf[head_end + 4..total])))
}

/// The number after `"key":` in a flat JSON object.
fn num_field(body: &str, key: &str) -> Option<f64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The string after `"key":"` in a flat JSON object.
fn str_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let rest = &body[at..];
    Some(&rest[..rest.find('"')?])
}

/// The numbers of the array after `"key":[`.
fn arr_field(body: &str, key: &str) -> Option<Vec<f64>> {
    let at = body.find(&format!("\"{key}\":["))? + key.len() + 4;
    let rest = &body[at..];
    let inner = &rest[..rest.find(']')?];
    if inner.trim().is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(|t| t.trim().parse().ok()).collect()
}

fn intern(versions: &mut Vec<String>, v: &str) -> u16 {
    if let Some(i) = versions.iter().position(|x| x == v) {
        return i as u16;
    }
    versions.push(v.to_string());
    (versions.len() - 1) as u16
}

/// Extract (rate bits, version index, fold check) from a response body.
fn read_body(
    status: u16,
    route: Route,
    body: &[u8],
    versions: &mut Vec<String>,
) -> (u64, u16, bool) {
    let Ok(body) = std::str::from_utf8(body) else { return (0, u16::MAX, false) };
    if status != 200 {
        return (0, u16::MAX, true);
    }
    let version = str_field(body, "version").map_or(u16::MAX, |v| intern(versions, v));
    match route {
        Route::Predict => match num_field(body, "rate") {
            Some(r) => (r.to_bits(), version, true),
            None => (0, version, false),
        },
        Route::Explain => {
            let (Some(bias), Some(pred), Some(contribs)) = (
                num_field(body, "bias"),
                num_field(body, "prediction"),
                arr_field(body, "contributions"),
            ) else {
                return (0, version, false);
            };
            let fold = contribs.iter().fold(bias, |a, &c| a + c);
            (pred.to_bits(), version, fold.to_bits() == pred.to_bits())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seeded_and_mixes_about_one_explain_in_sixteen() {
        let a = plan(7, 1, 16_000, 100);
        assert_eq!(a, plan(7, 1, 16_000, 100));
        assert_ne!(a, plan(8, 1, 16_000, 100));
        let explains = a.iter().filter(|(_, r)| *r == Route::Explain).count();
        assert!((800..1200).contains(&explains), "{explains}");
        assert!(a.iter().all(|(w, r)| (*w % 2 == 1) == (*r == Route::Explain) && *w < 200));
    }

    #[test]
    fn due_times_are_evenly_spaced_from_zero() {
        assert_eq!(due_ns(0, 25_000.0), 0);
        assert_eq!(due_ns(1, 25_000.0), 40_000);
        assert_eq!(due_ns(25_000, 25_000.0), 1_000_000_000);
        assert_eq!(due_ns(3, 3.0), 1_000_000_000);
        // Round-robin over two connections keeps each connection at half
        // the rate with no phase offset beyond one slot.
        let c0: Vec<u64> = (0..6).filter(|k| k % 2 == 0).map(|k| due_ns(k, 1000.0)).collect();
        assert_eq!(c0, vec![0, 2_000_000, 4_000_000]);
    }

    #[test]
    fn lateness_is_send_minus_due_never_negative() {
        assert_eq!(late_ns(1_500, 1_000), 500);
        assert_eq!(late_ns(900, 1_000), 0);
        // A generator that keeps pace: flat lateness, not growing.
        let steady: Vec<u64> = (0..1000).map(|k| 20_000 + (k % 7) * 1_000).collect();
        assert!(!lateness_grows(&steady, 500.0));
        // One that falls behind by 2 µs per request: 2 ms late at the end.
        let behind: Vec<u64> = (0..1000).map(|k| 20_000 + k * 2_000).collect();
        assert!(lateness_grows(&behind, 500.0));
        let (first, last) = lateness_trend_us(&behind);
        assert!(first < 200.0 && last > 1_800.0, "{first} {last}");
    }

    #[test]
    fn parses_pipelined_responses() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 45\r\n\r\n{\"batch_size\":3,\"rate\":1.5e8,\"version\":\"v01\"}";
        let mut two = one.to_vec();
        two.extend_from_slice(b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\n\r\n{}");
        let (len, status, body) = parse_response(&two).unwrap().unwrap();
        assert_eq!((len, status), (one.len(), 200));
        let mut versions = Vec::new();
        let (bits, v, ok) = read_body(status, Route::Predict, body, &mut versions);
        assert_eq!((f64::from_bits(bits), v, ok), (1.5e8, 0, true));
        assert_eq!(versions, vec!["v01".to_string()]);
        let (_, status, _) = parse_response(&two[len..]).unwrap().unwrap();
        assert_eq!(status, 503);
        assert_eq!(parse_response(&two[..10]), Ok(None));
        assert_eq!(parse_response(&one[..one.len() - 1]), Ok(None));
    }

    #[test]
    fn explain_fold_is_checked_bitwise() {
        let mut versions = Vec::new();
        let good = br#"{"bias":1.5,"contributions":[0.25,-0.5],"features":["a","b"],"prediction":1.25,"top":[["b",-0.5]],"version":"v2"}"#;
        assert!(read_body(200, Route::Explain, good, &mut versions).2);
        let bad = br#"{"bias":1.5,"contributions":[0.25,-0.5],"features":["a","b"],"prediction":1.3,"top":[],"version":"v2"}"#;
        assert!(!read_body(200, Route::Explain, bad, &mut versions).2);
        assert_eq!(versions.len(), 1);
    }
}
