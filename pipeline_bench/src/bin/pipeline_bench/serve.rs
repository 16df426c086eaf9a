//! The serving workload: CNN-6 behind `tcl_serve::Server` + `LaneBackend`
//! on a real loopback `TcpListener`, driven by a load client.
//!
//! The socket glue (`RealClock`, `TcpTransport`, `TcpConn`, the tick loop
//! with its idle pacing sleep) repeats the `main()` edge of the
//! `tcl_serve` binary, whose own `main` can only serve its built-in demo
//! network. The server configuration is `tcl_serve`'s.
//!
//! The client runs on the calling thread over two kept-alive connections,
//! in phases: seeded Poisson arrivals at a fixed rate (`p50_ms`,
//! `p99_ms`), a closed loop that finds the saturation rate, and a ladder
//! of Poisson rates below it (`max_rps`). An open-loop request goes onto
//! the less busy connection, pipelining when both have one in flight, and
//! is timed from the moment it was due, so a stalled generator or a
//! stalled connection shows up as latency; how late the generator itself
//! ran is reported separately.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pipeline_bench::http::{infer_request, parse_infer, take_response};
use pipeline_bench::ladder::{max_rps, Rung};
use pipeline_bench::report::Metric;
use pipeline_bench::spans::SpanLog;
use pipeline_bench::stats;
use pipeline_bench::workload::{poisson_arrivals, presentation_order};
use tcl_models::Architecture;
use tcl_serve::{
    Backend, Clock, Completion, Connection, Io, LaneBackend, ServeConfig, ServeStats, Server,
    Transport,
};
use tcl_snn::{Readout, SpikingNetwork};
use tcl_tensor::{par, Result as TensorResult};

use crate::eval::{solo, test_rows, MAX_T, SERVE_POLICY};
use crate::replay::{replay_batch, Replay};
use crate::setup;
use crate::{Outcome, Run};

/// Client connections, capped at the core count like the threads (the
/// client's and the server's).
fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The fixed rate `p50_ms`/`p99_ms` are measured at. A request that arrives
/// while another is being served waits for the running 64-step tick and
/// for its batchmate, and takes two to three times as long; the median
/// sits where those requests begin, so it moves with their share. At
/// 30 rps a third of the requests overlapped another and the median moved
/// with that share from run to run; 15 rps keeps it lower.
const FIXED_RPS: f64 = 15.0;
/// Tail-latency limit of the `max_rps` ladder. Below saturation a rung's
/// tail is set by a few requests queued behind long batchmates and reaches
/// 250 ms now and then; twice that takes a queue that keeps growing.
const LIMIT_MS: f64 = 500.0;
/// The `max_rps` ladder offers these shares of the saturation rate,
/// `RUNG_PASSES` passes over the test set each, and stops at its first
/// failing rung.
///
/// The saturation rate bounds `max_rps`: above it the backlog grows
/// without end. A rung of a few seconds barely shows that growth near
/// saturation — offered 1.2× what it can serve, the server falls only
/// ~0.4 s behind in 2 s — so a limit crossing read above saturation falls
/// wherever the random walk of one short rung puts it, ±30% from run to
/// run on a 2-vCPU host.
const LADDER_SHARES: [f64; 3] = [0.6, 0.75, 0.9];
const RUNG_PASSES: usize = 2;
/// Requests the saturation phase keeps in flight on each connection: one
/// being served and one waiting in the server's read buffer, so the server
/// never waits for the client.
const SATURATION_DEPTH: usize = 2;
/// Passes over the test set the saturation phase makes, split evenly over
/// the rounds of the run. Its rate moves with the host's speed while it
/// runs: three passes in one piece (~3 s) read from 90 to 130 rps over ten
/// seeds on one 2-vCPU host, six in one piece from 96 to 112.
const SATURATION_PASSES: usize = 6;
/// Share of the measured time spent at the fixed rate, in rounds of one
/// pass over the test set (at least one).
/// Samples differ up to sixteenfold in the steps they take, so a phase
/// that served a seed-dependent subset would move its tail with the
/// subset; a whole pass serves every seed the same samples, in another
/// order and at other times.
const FIXED_SHARE: f64 = 0.75;

/// Longest wait for a phase's last answers before they count as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// `tcl_serve`'s configuration, over CNN-6's `[3, 16, 16]` input.
fn serve_config(feat_dims: Vec<usize>) -> ServeConfig {
    let lanes = 8;
    ServeConfig {
        capacity: lanes,
        queue_depth: lanes * 4,
        feat_dims,
        policy: SERVE_POLICY,
        max_steps: MAX_T,
        us_per_step: 50,
        steps_per_tick: 64,
        max_body: 64 * 1024,
        head_timeout_us: 2_000_000,
        max_conns: 256,
        max_requests_per_conn: 256,
        idle_timeout_us: 5_000_000,
    }
}

// ---- main()-edge glue, as in the tcl_serve binary -------------------------

struct RealClock {
    start: Instant,
}

impl Clock for RealClock {
    fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

struct TcpTransport {
    listener: TcpListener,
}

impl Transport for TcpTransport {
    fn poll_accept(&mut self) -> Option<Box<dyn Connection>> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    return None;
                }
                Some(Box::new(TcpConn { stream }))
            }
            Err(_) => None,
        }
    }
}

struct TcpConn {
    stream: TcpStream,
}

impl Connection for TcpConn {
    fn poll_read(&mut self, buf: &mut [u8]) -> Io {
        match self.stream.read(buf) {
            Ok(0) => Io::Closed,
            Ok(n) => Io::Data(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Io::WouldBlock,
            Err(_) => Io::Closed,
        }
    }

    fn poll_write(&mut self, data: &[u8]) -> Io {
        match self.stream.write(data) {
            Ok(0) => Io::Closed,
            Ok(n) => Io::Data(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Io::WouldBlock,
            Err(_) => Io::Closed,
        }
    }

    fn close(&mut self) {
        let _ = self.stream.flush();
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

// ---- the server side -------------------------------------------------------

/// What the timing wrapper and the tick loop measured on the server thread.
struct ServerSide {
    log: SpanLog,
    /// The `serve.tick` span in progress (parent of backend spans).
    tick: Option<u64>,
    /// Tick loop time from the first tick to the end of the drain.
    wall_secs: f64,
    /// Time inside ticks that stepped lanes or wrote responses.
    busy_secs: f64,
    step_secs: f64,
    steps: u64,
    lane_sum: u64,
    submit_secs: f64,
    submits: u64,
}

/// `LaneBackend` timed from outside, call by call.
struct TimedBackend {
    inner: LaneBackend,
    side: Rc<RefCell<ServerSide>>,
}

impl Backend for TimedBackend {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn active(&self) -> usize {
        self.inner.active()
    }

    fn submit(&mut self, sample: &[f32], budget: usize) -> TensorResult<u64> {
        let start = Instant::now();
        let r = self.inner.submit(sample, budget);
        let end = Instant::now();
        let mut side = self.side.borrow_mut();
        side.submit_secs += (end - start).as_secs_f64();
        side.submits += 1;
        let parent = side.tick;
        side.log.leaf("lanes.submit", parent, start, end, &[]);
        r
    }

    fn step(&mut self) -> TensorResult<Vec<Completion>> {
        let lanes = self.inner.active();
        let start = Instant::now();
        let r = self.inner.step();
        let end = Instant::now();
        let mut side = self.side.borrow_mut();
        side.step_secs += (end - start).as_secs_f64();
        side.steps += 1;
        side.lane_sum += lanes as u64;
        let parent = side.tick;
        side.log
            .leaf("lanes.step", parent, start, end, &[("lanes", lanes as f64)]);
        r
    }

    fn engine_steps(&self) -> u64 {
        self.inner.engine_steps()
    }

    fn lane_steps(&self) -> u64 {
        self.inner.lane_steps()
    }
}

/// Builds the server and runs its tick loop until `stop`, then drains;
/// returns the server thread's measurements and the server's counters.
fn server_loop(
    listener: TcpListener,
    net: &SpikingNetwork,
    feat_dims: &[usize],
    stop: &AtomicBool,
    ready: &mpsc::Sender<()>,
    run: &Run,
) -> Result<(ServerSide, ServeStats), String> {
    let cfg = serve_config(feat_dims.to_vec());
    let lanes = cfg.capacity;
    let side = Rc::new(RefCell::new(ServerSide {
        log: SpanLog::new(run.epoch, 1, run.trace),
        tick: None,
        wall_secs: 0.0,
        busy_secs: 0.0,
        step_secs: 0.0,
        steps: 0,
        lane_sum: 0,
        submit_secs: 0.0,
        submits: 0,
    }));
    let factory_side = Rc::clone(&side);
    let factory_net = net.clone();
    let dims = feat_dims.to_vec();
    let make_backend: tcl_serve::BackendFactory = Box::new(move || {
        match LaneBackend::new(
            &factory_net,
            lanes,
            &dims,
            Readout::SpikeCount,
            SERVE_POLICY,
        ) {
            Ok(inner) => Box::new(TimedBackend {
                inner,
                side: Rc::clone(&factory_side),
            }) as Box<dyn Backend>,
            // The network and policy were validated by the first build.
            Err(e) => unreachable!("lane backend construction cannot fail: {e}"),
        }
    });
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let clock = RealClock {
        start: Instant::now(),
    };
    let transport = Box::new(TcpTransport { listener });
    let mut server = Server::new(cfg, clock, transport, make_backend).map_err(|e| e.to_string())?;
    let _ = ready.send(());
    let start = Instant::now();
    let mut drain_started: Option<Instant> = None;
    loop {
        // ordering: SeqCst — a one-shot stop request; the client's last
        // bytes are already on the sockets, so nothing else is published.
        if stop.load(Ordering::SeqCst) && drain_started.is_none() {
            server.begin_drain();
            drain_started = Some(Instant::now());
        }
        if let Some(d) = drain_started {
            if server.idle() || d.elapsed() > DRAIN_TIMEOUT {
                break;
            }
        }
        let tick = side.borrow_mut().log.open();
        side.borrow_mut().tick = Some(tick);
        let t0 = Instant::now();
        let report = server.tick();
        let t1 = Instant::now();
        if report.steps > 0 || report.responses > 0 {
            let mut side = side.borrow_mut();
            side.busy_secs += (t1 - t0).as_secs_f64();
            side.log.close(
                tick,
                "serve.tick",
                None,
                t0,
                t1,
                &[
                    ("steps", report.steps as f64),
                    ("responses", report.responses as f64),
                ],
            );
        } else {
            // Idle: avoid spinning a core between requests (main()-edge
            // pacing sleep, as in tcl_serve).
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let stats = server.stats().clone();
    drop(server);
    let mut side = Rc::try_unwrap(side)
        .map_err(|_| "backend still holds the server-side log".to_string())?
        .into_inner();
    side.wall_secs = start.elapsed().as_secs_f64();
    Ok((side, stats))
}

// ---- the client side -------------------------------------------------------

/// One request of the open loop.
struct Req {
    phase: usize,
    sample: usize,
    due: Instant,
    sent: Option<Instant>,
    done: Option<Instant>,
    status: u16,
    answer: Option<(usize, usize)>,
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Requests written (or queued to write) and not yet answered, oldest
    /// first: responses come back in this order.
    inflight: VecDeque<usize>,
    /// Requests sent on this connection; at the server's keep-alive cap it
    /// takes no more and is replaced once answered.
    sent: usize,
    broken: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            inflight: VecDeque::new(),
            sent: 0,
            broken: false,
        })
    }

    fn accepting(&self, cap: usize) -> bool {
        !self.broken && self.sent < cap
    }

    /// Writes what the socket takes; returns whether anything moved.
    fn flush(&mut self) -> bool {
        let mut moved = false;
        while !self.wbuf.is_empty() && !self.broken {
            match self.stream.write(&self.wbuf) {
                Ok(0) => self.broken = true,
                Ok(n) => {
                    self.wbuf.drain(..n);
                    moved = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => self.broken = true,
            }
        }
        moved
    }

    /// Reads what has arrived and answers the oldest in-flight requests;
    /// returns whether anything moved.
    fn pump(&mut self, reqs: &mut [Req], now: Instant) -> bool {
        let mut moved = false;
        let mut chunk = [0u8; 16 * 1024];
        while !self.broken {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.broken = true,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    moved = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => self.broken = true,
            }
        }
        loop {
            match take_response(&self.rbuf) {
                Ok(Some((resp, used))) => {
                    self.rbuf.drain(..used);
                    let Some(id) = self.inflight.pop_front() else {
                        self.broken = true;
                        break;
                    };
                    let req = &mut reqs[id];
                    req.done = Some(now);
                    req.status = resp.status;
                    req.answer = if resp.status == 200 {
                        parse_infer(&resp.body)
                    } else {
                        None
                    };
                    // The server closes after a non-200 or at its cap.
                    if resp.close || resp.status != 200 {
                        self.broken = true;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
        moved
    }
}

/// How a phase offers its requests.
#[derive(Clone, Copy)]
enum Load {
    /// Seeded Poisson arrivals at this rate, whether answered or not.
    Open(f64),
    /// As fast as the server answers, `SATURATION_DEPTH` per connection.
    Closed,
}

/// The load client: `connections()` kept-alive connections and every
/// request sent so far.
struct Client {
    addr: SocketAddr,
    conns: Vec<Conn>,
    reqs: Vec<Req>,
    /// Σ requests in flight, sampled as each open-loop request is sent.
    depth_sum: u64,
    /// Σ (send time − due time) over open-loop requests, seconds.
    late_sum_secs: f64,
    /// Requests sent open-loop.
    open_sent: u64,
    /// Per phase: the offered rate (infinite for a closed loop).
    rates: Vec<f64>,
    /// Per phase: last answer minus the end of its send window, seconds.
    drain_secs: Vec<f64>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        Ok(Client {
            addr,
            conns: (0..connections())
                .map(|_| Conn::open(addr))
                .collect::<Result<_, _>>()?,
            reqs: Vec::new(),
            depth_sum: 0,
            late_sum_secs: 0.0,
            open_sent: 0,
            rates: Vec::new(),
            drain_secs: Vec::new(),
        })
    }

    /// Offers `count` requests under `load` (samples taken in `order`),
    /// then waits for the answers; returns the phase's index. A
    /// closed-loop request is due when it is sent.
    fn run_phase(
        &mut self,
        load: Load,
        count: usize,
        samples: &[Vec<f32>],
        order: &[usize],
        seed: u64,
    ) -> Result<usize, String> {
        let cap = serve_config(Vec::new()).max_requests_per_conn;
        let phase = self.rates.len();
        let (offsets, rate, depth_cap) = match load {
            Load::Open(rate) => (
                poisson_arrivals(seed, phase as u64, rate, count),
                rate,
                usize::MAX,
            ),
            Load::Closed => (vec![0.0; count], f64::INFINITY, SATURATION_DEPTH),
        };
        // The send window closes at the last arrival.
        let secs = offsets.last().copied().unwrap_or(0.0);
        let start = Instant::now();
        let first = self.reqs.len();
        for offset in offsets {
            let sample = order[self.reqs.len() % order.len()];
            self.reqs.push(Req {
                phase,
                sample,
                due: start + Duration::from_secs_f64(offset),
                sent: None,
                done: None,
                status: 0,
                answer: None,
            });
        }
        // A closed loop's send window closes at its last send.
        let mut window_end = start + Duration::from_secs_f64(secs);
        let mut next = first;
        let mut last_moved = start;
        loop {
            let now = Instant::now();
            let mut moved = false;
            // Send everything due, onto the connection with the fewest
            // requests in flight (pipelining when both are busy).
            while next < self.reqs.len() && self.reqs[next].due <= now {
                let depth: u64 = self.conns.iter().map(|c| c.inflight.len() as u64).sum();
                let Some(c) = self
                    .conns
                    .iter_mut()
                    .filter(|c| c.accepting(cap) && c.inflight.len() < depth_cap)
                    .min_by_key(|c| c.inflight.len())
                else {
                    break;
                };
                c.wbuf
                    .extend(infer_request(&samples[self.reqs[next].sample]));
                c.inflight.push_back(next);
                c.sent += 1;
                let req = &mut self.reqs[next];
                req.sent = Some(now);
                match load {
                    Load::Open(_) => {
                        self.depth_sum += depth;
                        self.late_sum_secs += now.saturating_duration_since(req.due).as_secs_f64();
                        self.open_sent += 1;
                    }
                    Load::Closed => {
                        req.due = now;
                        window_end = now;
                    }
                }
                next += 1;
                moved = true;
            }
            for c in &mut self.conns {
                moved |= c.flush();
                moved |= c.pump(&mut self.reqs, now);
            }
            // Replace a connection the server closed (keep-alive cap, error)
            // or that reached the cap and has nothing left in flight;
            // requests still in flight on a broken connection are lost and
            // stay unanswered.
            for c in &mut self.conns {
                if c.broken || (c.sent >= cap && c.inflight.is_empty()) {
                    *c = Conn::open(self.addr)?;
                    moved = true;
                }
            }
            let outstanding: usize = self.conns.iter().map(|c| c.inflight.len()).sum();
            if next == self.reqs.len() && (outstanding == 0 || now > window_end + DRAIN_TIMEOUT) {
                break;
            }
            if moved {
                last_moved = now;
            } else if outstanding > 0 && now > last_moved + DRAIN_TIMEOUT {
                // Answers stopped coming (a closed loop sends nothing
                // until they do).
                break;
            } else {
                // Until the next request is due, or a while when the due
                // ones wait for room on a connection.
                let wake = match self.reqs.get(next) {
                    Some(r) if r.due > now => r.due - now,
                    _ => Duration::MAX,
                };
                std::thread::sleep(wake.min(Duration::from_micros(100)));
            }
        }
        let last = self.reqs[first..]
            .iter()
            .filter_map(|r| r.done)
            .max()
            .unwrap_or(window_end);
        self.rates.push(rate);
        self.drain_secs
            .push(last.saturating_duration_since(window_end).as_secs_f64());
        Ok(phase)
    }

    /// Latencies (ms, from the due time) of the requests of `phases`; a
    /// request `ok` rejects counts as infinitely late.
    fn latencies(&self, phases: &[usize], ok: impl Fn(&Req) -> bool) -> Vec<f64> {
        self.reqs
            .iter()
            .filter(|r| phases.contains(&r.phase))
            .map(|r| match r.done {
                Some(done) if ok(r) => done.saturating_duration_since(r.due).as_secs_f64() * 1e3,
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// Answers per second over closed-loop `phases`, each timed from its
    /// first send to its last answer, counting only answers `ok` accepts.
    fn saturated_rps(&self, phases: &[usize], ok: impl Fn(&Req) -> bool) -> f64 {
        let mut answers = 0;
        let mut secs = 0.0;
        for &phase in phases {
            let reqs = || self.reqs.iter().filter(|r| r.phase == phase);
            let first = reqs().filter_map(|r| r.sent).min();
            let last = reqs().filter_map(|r| r.done).max();
            if let (Some(a), Some(b)) = (first, last) {
                answers += reqs().filter(|r| ok(r)).count();
                secs += b.saturating_duration_since(a).as_secs_f64();
            }
        }
        if secs > 0.0 {
            answers as f64 / secs
        } else {
            0.0
        }
    }

    /// The ladder rung `phase` measured, judged by `ok`.
    fn rung(&self, phase: usize, ok: impl Fn(&Req) -> bool) -> Rung {
        let lat = self.latencies(&[phase], ok);
        let failures = lat.iter().filter(|v| v.is_infinite()).count();
        Rung {
            rate: self.rates[phase],
            tail_ms: stats::tail(&lat, 0.99).map_or(f64::INFINITY, |t| t.value),
            clean: failures == 0 && self.drain_secs[phase] * 1e3 <= LIMIT_MS,
        }
    }
}

/// The phases of each kind, by index.
#[derive(Default)]
struct Phases {
    fixed: Vec<usize>,
    closed: Vec<usize>,
    ladder: Vec<usize>,
}

/// A 200 whose body parsed (the client's view, before the solo check).
fn answered(r: &Req) -> bool {
    r.status == 200 && r.answer.is_some()
}

// ---- the workload ----------------------------------------------------------

pub fn run(run: &Run) -> Result<Outcome, String> {
    let built = setup::build_median(Architecture::Cnn6, 3)?;
    let net = Arc::new(built.pipeline.snn);
    let test = built.pipeline.data.test;
    let (c, h, w) = test.image_shape();
    let feat_dims = vec![c, h, w];
    let images = test_rows(&test)?;
    let flat: Vec<Vec<f32>> = images.iter().map(|t| t.data().to_vec()).collect();
    let order = presentation_order(run.seed, test.len(), test.len() * 64);

    let pool = test.len();
    let rounds = ((run.seconds * FIXED_SHARE * FIXED_RPS / pool as f64).round() as usize).max(1);
    let fixed_requests = pool * rounds;
    let closed_passes = (SATURATION_PASSES / rounds).max(1);
    // Rounds of one fixed-rate pass and one share of the saturation
    // phase, so both span the run and see the host over all of it; then
    // the ladder up to its first failing rung.
    let drive = |client: &mut Client| -> Result<Phases, String> {
        let mut phases = Phases::default();
        for _ in 0..rounds {
            let fixed = Load::Open(FIXED_RPS);
            phases
                .fixed
                .push(client.run_phase(fixed, pool, &flat, &order, run.seed)?);
            let closed = pool * closed_passes;
            phases
                .closed
                .push(client.run_phase(Load::Closed, closed, &flat, &order, run.seed)?);
        }
        let saturated = client.saturated_rps(&phases.closed, answered);
        for share in LADDER_SHARES {
            let rate = Load::Open(share * saturated);
            let phase = client.run_phase(rate, pool * RUNG_PASSES, &flat, &order, run.seed)?;
            phases.ladder.push(phase);
            if !client.rung(phase, answered).passes(LIMIT_MS) {
                break;
            }
        }
        Ok(phases)
    };

    let stop = AtomicBool::new(false);
    let startup = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (ready_tx, ready_rx) = mpsc::channel();
    let (server, client) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            par::with_serial(|| server_loop(listener, &net, &feat_dims, &stop, &ready_tx, run))
        });
        let client = ready_rx
            .recv()
            .map_err(|_| "server thread exited before it was ready".to_string())
            .map(|()| startup.elapsed().as_secs_f64())
            .and_then(|startup_s| {
                let mut client = Client::connect(addr)?;
                let phases = drive(&mut client)?;
                // Closing the sockets lets the server's drain finish.
                client.conns.clear();
                Ok((client, phases, startup_s))
            });
        // ordering: SeqCst — pairs with the server loop's load; see there.
        stop.store(true, Ordering::SeqCst);
        let server = server
            .join()
            .unwrap_or_else(|_| Err("server thread panicked".to_string()));
        (server, client)
    });
    let (server, counters) = server?;
    let (client, phases, startup_s) = client?;
    let setup_s = built.setup_s + startup_s;

    // Correctness: every 200 answer equals the sample's solo lane
    // presentation; anything else (non-200, unanswered, mismatch) fails.
    let check_start = Instant::now();
    let mut oracle: Vec<Option<(usize, usize)>> = vec![None; images.len()];
    par::with_serial(|| -> Result<(), String> {
        for r in &client.reqs {
            if r.status == 200 && oracle[r.sample].is_none() {
                oracle[r.sample] = Some(solo(&net, &images[r.sample])?);
            }
        }
        Ok(())
    })?;
    let solo_secs = check_start.elapsed().as_secs_f64();
    let ok = |r: &Req| r.status == 200 && r.answer.is_some() && r.answer == oracle[r.sample];
    let failed = client.reqs.iter().filter(|r| !ok(r)).count() as u64;

    let mut out = Outcome::new(setup_s);
    out.attempted = client.reqs.len() as u64;
    out.failed = failed;

    // Latency from the due time; a failed request misses every limit.
    let fixed = client.latencies(&phases.fixed, ok);
    let p50 = stats::tail(&fixed, 0.5);
    let p99 = stats::tail(&fixed, 0.99);
    out.meta_num("fixed_rps", FIXED_RPS);
    out.meta_num("fixed_requests", fixed_requests as f64);
    out.meta_num("connections", connections() as f64);
    out.meta_num("engine_threads", 1.0);
    out.meta_num("kernel_threads", 1.0);
    out.meta_tail("p99", p99);
    let saturated = client.saturated_rps(&phases.closed, ok);
    out.meta_num("saturated_rps", saturated);
    let rungs: Vec<Rung> = phases
        .ladder
        .iter()
        .map(|&phase| client.rung(phase, ok))
        .collect();
    for (r, share) in rungs.iter().zip(LADDER_SHARES) {
        out.meta_num(&format!("rung_{share:.2}_rps"), r.rate);
        out.meta_num(&format!("rung_{share:.2}_tail_ms"), r.tail_ms);
    }
    out.meta_num("limit_ms", LIMIT_MS);

    let served: Vec<&Req> = client.reqs.iter().filter(|r| ok(r)).collect();
    let n = served.len().max(1) as f64;
    let correct = served
        .iter()
        .filter(|r| {
            r.answer
                .is_some_and(|(pred, _)| pred == test.labels()[r.sample])
        })
        .count();
    let steps: usize = served.iter().filter_map(|r| r.answer.map(|a| a.1)).sum();

    if run.trace {
        out.per_layer
            .push(Metric::new("data.gen_s", "s", built.gen_s));
        out.per_layer
            .push(Metric::new("nn.train_s", "s", built.train_s));
        out.per_layer
            .push(Metric::new("core.convert_s", "s", built.convert_s));
        // Replay each distinct served sample alone, node by node, to its
        // served exit step: the per-node cost at serving's batch size.
        let mut replay = Replay::default();
        let mut replay_log = SpanLog::new(run.epoch, 3, true);
        let mut replica = (*net).clone();
        let replay_start = Instant::now();
        par::with_serial(|| -> Result<(), String> {
            for (s, answer) in oracle.iter().enumerate() {
                if let Some((_, steps)) = answer {
                    replay_batch(
                        &mut replica,
                        &images[s],
                        MAX_T,
                        Some(&[*steps]),
                        &mut replay,
                        &mut replay_log,
                        None,
                    )?;
                }
            }
            Ok(())
        })?;
        let replay_secs = replay_start.elapsed().as_secs_f64();
        out.per_layer.extend(
            replay.node_metrics(pipeline_bench::NODE_SLOTS, &pipeline_bench::SYNAPTIC_SLOTS),
        );
        let completed = counters.completed.max(1) as f64;
        out.per_layer.push(Metric::new(
            "engine.exit_frac",
            "ratio",
            counters.early_exits as f64 / completed,
        ));
        let saved: usize = served
            .iter()
            .filter_map(|r| r.answer.map(|a| MAX_T - a.1))
            .sum();
        out.per_layer.push(Metric::new(
            "engine.saved_frac",
            "ratio",
            saved as f64 / (n * MAX_T as f64),
        ));
        out.per_layer.push(Metric::new(
            "net.us_per_sample_step",
            "us",
            replay.node_secs() * 1e6 / replay.sample_steps.max(1) as f64,
        ));
        out.per_layer.push(Metric::new(
            "trace.overhead_frac",
            "ratio",
            replay_secs / solo_secs - 1.0,
        ));
        let steps_n = server.steps.max(1) as f64;
        out.per_layer.push(Metric::new(
            "lanes.step_us",
            "us",
            server.step_secs * 1e6 / steps_n,
        ));
        out.per_layer.push(Metric::new(
            "lanes.submit_us",
            "us",
            server.submit_secs * 1e6 / server.submits.max(1) as f64,
        ));
        out.per_layer.push(Metric::new(
            "lanes.batch_mean",
            "lanes",
            server.lane_sum as f64 / steps_n,
        ));
        out.per_layer.push(Metric::new(
            "serve.tick_busy_frac",
            "ratio",
            server.busy_secs / server.wall_secs,
        ));
        out.per_layer.push(Metric::new(
            "serve.rest_us_per_req",
            "us",
            (server.busy_secs - server.step_secs - server.submit_secs) * 1e6 / completed,
        ));
        let sent = client.open_sent.max(1) as f64;
        out.per_layer.push(Metric::new(
            "serve.queue_depth_mean",
            "requests",
            client.depth_sum as f64 / sent,
        ));
        out.per_layer.push(Metric::new(
            "serve.gen_late_ms",
            "ms",
            client.late_sum_secs * 1e3 / sent,
        ));
        let mut client_log = SpanLog::new(run.epoch, 2, true);
        for (id, r) in client.reqs.iter().enumerate() {
            if let Some(done) = r.done {
                client_log.leaf(
                    "client.request",
                    None,
                    r.due,
                    done,
                    &[
                        ("req", id as f64),
                        ("sample", r.sample as f64),
                        ("status", f64::from(r.status)),
                        ("steps", r.answer.map_or(0.0, |a| a.1 as f64)),
                        (
                            "late_us",
                            r.sent
                                .map_or(0.0, |s| s.saturating_duration_since(r.due).as_secs_f64())
                                * 1e6,
                        ),
                    ],
                );
            }
        }
        out.logs = vec![server.log, client_log, replay_log];
    } else {
        // Below saturation an open loop's throughput is its offered rate;
        // what the server sustains is requests completed per second of
        // busy tick time.
        out.e2e.push(Metric::new(
            "samples_per_s",
            "1/s",
            counters.completed as f64 / server.busy_secs,
        ));
        out.e2e
            .push(Metric::new("accuracy", "ratio", correct as f64 / n));
        out.e2e
            .push(Metric::new("mean_steps", "steps", steps as f64 / n));
        out.e2e.push(Metric::new(
            "p50_ms",
            "ms",
            p50.map_or(f64::NAN, |t| t.value),
        ));
        out.e2e.push(Metric::new(
            "p99_ms",
            "ms",
            p99.map_or(f64::NAN, |t| t.value),
        ));
        out.e2e.push(Metric::new(
            "max_rps",
            "1/s",
            max_rps(&rungs, LIMIT_MS, saturated),
        ));
    }
    Ok(out)
}
