//! The `serve` workload: an in-process daemon (`bddcf_serve::Server`, a
//! spool directory, the default 2 workers) driven by one generator process
//! over at most `nproc` persistent connections.
//!
//! The generator is open-loop: request `i` is due `i / RATE_RPS` seconds
//! after the start and is sent then, whatever the replies are doing, on
//! the connection with the fewest replies outstanding (requests pipeline
//! when every connection is busy). Latency is timed from the due time, so
//! a stall also delays the requests queued behind it; how late the
//! generator itself sent is reported beside it.
//!
//! The mix: fresh seeded PLA specs (parse, reduction, synthesis, spool
//! write and fsync, cache insert), repeats of earlier specs at distances
//! inside and beyond the daemon's 64-entry cache (a hit re-audits the
//! cached artifacts), and a few small registry specs. Specs the single
//! cascade cannot realize stay in the mix: their typed `infeasible` reply
//! is correct when a local recomputation agrees.
//!
//! No record of how the daemon is used exists, so the traffic is a stated
//! model, and each of its numbers is an assumption with this basis:
//!
//! * Rate, [`RATE_RPS`]: enough requests that the 99th percentile has at
//!   least 10 samples beyond it within a 10 s run, at a load where the
//!   default 2 workers are mostly idle, so that per-request overhead rather
//!   than queueing sets the latency. The traced run reports the worker
//!   utilisation this produces (`serve.worker_util`: replayed service time
//!   over worker time), so the assumption is checked on every host.
//! * Repeats, [`REPEAT_PCT`]: one request in three names an earlier spec.
//!   The reuse distance `d` (in distinct fresh specs) is log-uniform over
//!   `1..=2 * CACHE_CAPACITY`, P(d) ~ 1/d, the usual heavy-tailed form of
//!   temporal locality. How many repeats hit the cache and how many are
//!   replayed from the spool then follows from the cache capacity
//!   (`serve.cache_hit_ratio` reports it) rather than being set.
//! * Registry specs, [`REGISTRY_PCT`]: "a few", one request in twenty.
//! * Fresh PLAs: 8-12 inputs, uniformly, the range the workload is defined
//!   over; 2-5 outputs and 6-20 cubes, uniformly, are assumptions. A fresh
//!   spec then takes a few milliseconds and about a third come back
//!   `infeasible` (`serve.execute_ms` and `serve.infeasible_frac` report
//!   both).
//!
//! Which request is fresh, a repeat or a registry spec, and each PLA's
//! sizes, are drawn from a fixed stream, the same for every seed; the seed
//! draws the PLA contents.

use crate::common::{self, Metrics, Rng};
use crate::trace::{self, span};
use crate::WORK_DIR;
use bddcf_bdd::vfs::{StdVfs, Vfs};
use bddcf_bdd::Budget;
use bddcf_check::audit_artifact_text;
use bddcf_io::parse_pla;
use bddcf_serve::json::{self, Json};
use bddcf_serve::{
    build_cf, execute, read_frame, write_frame, ErrorCode, ExecError, Request, RequestBody,
    Response, Server, ServerConfig, ShutdownMode, Source, Status, SynthSpec, DEFAULT_MAX_FRAME,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered request rate of the open-loop schedule.
const RATE_RPS: f64 = 100.0;
/// Share of requests, in percent, that name a registry spec.
const REGISTRY_PCT: u64 = 5;
/// Share of requests, in percent, that repeat an earlier fresh spec.
const REPEAT_PCT: u64 = 33;
/// A reply slower than this (from its due time) misses the goodput limit.
const LATENCY_LIMIT_MS: f64 = 1000.0;
/// The daemon's cache capacity (`ServerConfig::default`), which the repeat
/// distances straddle.
const CACHE_CAPACITY: usize = 64;
/// Registry specs in the mix (small siblings of the Table 4 rows).
const REGISTRY: [&str; 4] = [
    "3-5 RNS",
    "2-digit 3-nary to binary",
    "1-digit decimal adder",
    "12 words",
];

/// One scheduled request.
struct Planned {
    due: Duration,
    id: String,
    spec: SynthSpec,
}

/// A PLA of 8–12 inputs: disjoint cubes (distinct fixed prefixes),
/// outputs over {0,1,-}, everything uncovered a don't care. `shape` draws
/// the sizes, `rng` the contents.
fn random_pla(shape: &mut Rng, rng: &mut Rng) -> String {
    let n = shape.range(8, 13) as usize;
    let m = shape.range(2, 6) as usize;
    let cubes = shape.range(6, 21) as usize;
    let prefix = 64 - (cubes as u64 - 1).leading_zeros() as usize + 1;
    let mut prefixes: Vec<u64> = (0..1u64 << prefix).collect();
    for i in (1..prefixes.len()).rev() {
        prefixes.swap(i, rng.range(0, i as u64 + 1) as usize);
    }
    let mut text = format!(".i {n}\n.o {m}\n");
    for &p in &prefixes[..cubes] {
        for b in 0..n {
            let c = if b < prefix {
                if p >> b & 1 == 1 {
                    '1'
                } else {
                    '0'
                }
            } else {
                ['0', '1', '-', '0', '1'][rng.range(0, 5) as usize]
            };
            text.push(c);
        }
        text.push(' ');
        for _ in 0..m {
            text.push(['0', '1', '1', '0', '-'][rng.range(0, 5) as usize]);
        }
        text.push('\n');
    }
    text.push_str(".e\n");
    text
}

/// A reuse distance in `1..=2 * CACHE_CAPACITY`, log-uniform:
/// `floor((2C + 1)^u)` for `u` uniform in [0, 1).
fn reuse_distance(rng: &mut Rng) -> usize {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let top = 2 * CACHE_CAPACITY;
    ((top as f64 + 1.0).powf(u) as usize).clamp(1, top)
}

/// The request schedule of a seed: deterministic, shared by the generator
/// process and the checks. Request `i` is due `i / RATE_RPS` seconds after
/// the start.
///
/// The shape of the traffic (which request is fresh, a repeat at which
/// distance, or a registry spec, and each PLA's sizes) is the same for
/// every seed; the seed draws the PLA contents. A single slow reply stalls
/// the requests behind it on its connection, so the tail latency depends
/// on where the slow requests fall; a fixed shape keeps that from varying
/// with the seed while the functions themselves do.
fn schedule(seed: u64, seconds: f64) -> Vec<Planned> {
    let mut shape = Rng::new(0x5e7e);
    let mut rng = Rng::new(seed);
    let count = (RATE_RPS * seconds).round().max(1.0) as usize;
    let mut fresh: Vec<SynthSpec> = Vec::new();
    (0..count)
        .map(|i| {
            let roll = shape.range(0, 100);
            // A repeat whose distance reaches back before the first fresh
            // spec is sent as a fresh spec instead.
            let back = reuse_distance(&mut shape);
            let spec = if roll < REGISTRY_PCT {
                let label = REGISTRY[shape.range(0, REGISTRY.len() as u64) as usize];
                SynthSpec::new(Source::Registry(label.into()))
            } else if roll < REGISTRY_PCT + REPEAT_PCT && back <= fresh.len() {
                fresh[fresh.len() - back].clone()
            } else {
                let spec = SynthSpec::new(Source::Pla(random_pla(&mut shape, &mut rng)));
                fresh.push(spec.clone());
                spec
            };
            Planned {
                due: Duration::from_secs_f64(i as f64 / RATE_RPS),
                id: format!("r{i}"),
                spec,
            }
        })
        .collect()
}

fn synth_frame(p: &Planned) -> Vec<u8> {
    Request {
        id: p.id.clone(),
        body: RequestBody::Synth {
            spec: p.spec.clone(),
            deadline_ms: None,
            checkpoint: false,
        },
    }
    .to_bytes()
}

fn control(stream: &mut TcpStream, payload: &[u8]) -> io::Result<Vec<u8>> {
    write_frame(stream, payload)?;
    read_frame(stream, DEFAULT_MAX_FRAME)
        .map_err(|e| io::Error::other(format!("{e:?}")))?
        .ok_or_else(|| io::Error::other("connection closed"))
}

// ---------------------------------------------------------------------
// The generator process
// ---------------------------------------------------------------------

/// One reply as the generator saw it.
struct Reply {
    index: u32,
    late: Duration,
    latency: Duration,
    bytes: Vec<u8>,
}

/// Entry point of the generator process: sends the seed's schedule to
/// `addr` over `connections` pipelined connections and writes one binary
/// record per reply to stdout.
pub fn generate(addr: &str, seed: u64, seconds: f64, connections: usize) -> io::Result<()> {
    let plan = schedule(seed, seconds);
    let addr: SocketAddr = addr.parse().map_err(io::Error::other)?;
    let start = Instant::now() + Duration::from_millis(20);
    let replies: Mutex<Vec<Reply>> = Mutex::new(Vec::with_capacity(plan.len()));
    // Per connection: the requests sent and not yet answered, in order.
    let pending: Vec<Mutex<VecDeque<(usize, Instant)>>> =
        (0..connections).map(|_| Mutex::default()).collect();
    std::thread::scope(|scope| -> io::Result<()> {
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for pending in &pending {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            // A daemon that stops answering ends the run instead of
            // hanging it.
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            writers.push(stream.try_clone()?);
            let (plan, replies) = (&plan, &replies);
            readers.push(scope.spawn(move || -> io::Result<()> {
                let mut reader = BufReader::new(stream);
                // The daemon closes the connection after answering every
                // request sent before the generator's half-close.
                while let Some(bytes) = read_frame(&mut reader, DEFAULT_MAX_FRAME)
                    .map_err(|e| io::Error::other(format!("{e:?}")))?
                {
                    let got = Instant::now();
                    let (i, sent) = pending
                        .lock()
                        .expect("pending lock")
                        .pop_front()
                        .ok_or_else(|| io::Error::other("reply without a request"))?;
                    let due = start + plan[i].due;
                    replies.lock().expect("reply lock").push(Reply {
                        index: i as u32,
                        late: sent.saturating_duration_since(due),
                        latency: got.saturating_duration_since(due),
                        bytes,
                    });
                }
                Ok(())
            }));
        }
        for (i, p) in plan.iter().enumerate() {
            let due = start + p.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let c = (0..connections)
                .min_by_key(|&c| pending[c].lock().expect("pending lock").len())
                .expect("at least one connection");
            let frame = synth_frame(p);
            pending[c]
                .lock()
                .expect("pending lock")
                .push_back((i, Instant::now()));
            write_frame(&mut writers[c], &frame)?;
        }
        // Wait for every reply, then close the connections.
        while pending
            .iter()
            .any(|q| !q.lock().expect("pending lock").is_empty())
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        for w in &writers {
            w.shutdown(std::net::Shutdown::Both)?;
        }
        for h in readers {
            h.join().expect("reader thread panicked")?;
        }
        Ok(())
    })?;
    let mut out = io::BufWriter::new(io::stdout().lock());
    for r in replies.into_inner().expect("reply lock") {
        out.write_all(&r.index.to_le_bytes())?;
        out.write_all(&(r.late.as_nanos() as u64).to_le_bytes())?;
        out.write_all(&(r.latency.as_nanos() as u64).to_le_bytes())?;
        out.write_all(&(r.bytes.len() as u32).to_le_bytes())?;
        out.write_all(&r.bytes)?;
    }
    out.flush()
}

fn parse_replies(mut bytes: &[u8]) -> Vec<Reply> {
    let mut out = Vec::new();
    let take = |n: usize, b: &mut &[u8]| -> Option<Vec<u8>> {
        if b.len() < n {
            return None;
        }
        let (head, tail) = b.split_at(n);
        *b = tail;
        Some(head.to_vec())
    };
    loop {
        let Some(h) = take(24, &mut bytes) else {
            return out;
        };
        let u64_at = |o: usize| u64::from_le_bytes(h[o..o + 8].try_into().expect("8 bytes"));
        let index = u32::from_le_bytes(h[0..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(h[20..24].try_into().expect("4 bytes")) as usize;
        let Some(body) = take(len, &mut bytes) else {
            return out;
        };
        out.push(Reply {
            index,
            late: Duration::from_nanos(u64_at(4)),
            latency: Duration::from_nanos(u64_at(12)),
            bytes: body,
        });
    }
}

// ---------------------------------------------------------------------
// The daemon side
// ---------------------------------------------------------------------

/// A [`Vfs`] that counts operations and times the fsyncs.
#[derive(Default)]
struct TimedVfs {
    inner: StdVfs,
    ops: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
}

impl TimedVfs {
    fn op(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    fn sync(&self, f: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        self.op();
        let t = Instant::now();
        let r = f();
        self.sync_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.syncs.fetch_add(1, Ordering::Relaxed);
        r
    }
}

impl Vfs for TimedVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.op();
        self.inner.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.op();
        self.inner.write(path, bytes)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.sync(|| self.inner.sync_file(path))
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.sync(|| self.inner.sync_dir(dir))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.op();
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.op();
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.op();
        self.inner.create_dir_all(dir)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.op();
        self.inner.list(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.op();
        self.inner.exists(path)
    }
    fn is_dir(&self, path: &Path) -> bool {
        self.op();
        self.inner.is_dir(path)
    }
}

struct Daemon {
    server: Server,
    spool: PathBuf,
}

/// Starts a daemon on a fresh spool and warms it with one request per
/// registry spec.
fn start_daemon(tag: &str, vfs: Arc<dyn Vfs>) -> io::Result<Daemon> {
    let spool = PathBuf::from(format!("{WORK_DIR}/serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let server = Server::start(ServerConfig {
        spool_dir: Some(spool.clone()),
        vfs,
        ..ServerConfig::default()
    })?;
    let mut conn = TcpStream::connect(server.local_addr())?;
    for (i, label) in REGISTRY.iter().enumerate() {
        let warm = Planned {
            due: Duration::ZERO,
            id: format!("warm{i}"),
            spec: SynthSpec::new(Source::Registry((*label).into())),
        };
        control(&mut conn, &synth_frame(&warm))?;
    }
    Ok(Daemon { server, spool })
}

/// Drains and stops the daemon; returns its final `stats` object.
fn stop_daemon(d: Daemon) -> io::Result<Json> {
    let mut conn = TcpStream::connect(d.server.local_addr())?;
    let stats = control(
        &mut conn,
        &Request {
            id: "stats".into(),
            body: RequestBody::Stats,
        }
        .to_bytes(),
    )?;
    control(
        &mut conn,
        &Request {
            id: "bye".into(),
            body: RequestBody::Shutdown(ShutdownMode::Drain),
        }
        .to_bytes(),
    )?;
    drop(conn);
    d.server.wait();
    let _ = std::fs::remove_dir_all(&d.spool);
    let stats = json::parse(&stats).map_err(|e| io::Error::other(e.to_string()))?;
    stats
        .get("stats")
        .cloned()
        .ok_or_else(|| io::Error::other("stats reply without stats"))
}

/// Samples the daemon's queue length every few milliseconds until `stop`.
fn sample_queue(addr: SocketAddr, stop: &AtomicBool) -> Vec<f64> {
    let mut samples = Vec::new();
    let Ok(mut conn) = TcpStream::connect(addr) else {
        return samples;
    };
    let frame = Request {
        id: "q".into(),
        body: RequestBody::Stats,
    }
    .to_bytes();
    while !stop.load(Ordering::Relaxed) {
        let Ok(reply) = control(&mut conn, &frame) else {
            break;
        };
        if let Some(q) = json::parse(&reply).ok().and_then(|v| {
            v.get("stats")
                .and_then(|s| s.get("queue"))
                .and_then(Json::as_i64)
        }) {
            samples.push(q as f64);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    samples
}

/// One measured session: daemon up, generator run, daemon down.
struct Session {
    replies: Vec<Reply>,
    stats: Json,
    queue: Vec<f64>,
    vfs: Arc<TimedVfs>,
    setups: Vec<f64>,
}

/// With `traced`, the serving daemon's storage goes through a [`TimedVfs`]
/// and its queue is sampled while the generator runs.
fn session(seed: u64, seconds: f64, traced: bool) -> io::Result<Session> {
    let vfs = Arc::new(TimedVfs::default());
    // Set-up (inputs, daemon start, warm-up) three times; the last daemon
    // serves the run.
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..3 {
        if let Some(d) = daemon.take() {
            stop_daemon(d)?;
        }
        let t = Instant::now();
        std::hint::black_box(schedule(seed, seconds));
        let vfs: Arc<dyn Vfs> = if traced && k == 2 {
            Arc::clone(&vfs) as Arc<dyn Vfs>
        } else {
            Arc::new(StdVfs)
        };
        daemon = Some(start_daemon(&k.to_string(), vfs)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("three set-ups ran");

    let addr = daemon.server.local_addr();
    let connections = std::thread::available_parallelism().map_or(2, |n| n.get());

    let stop = AtomicBool::new(false);
    let (out, queue) = std::thread::scope(|scope| {
        let sampler = traced.then(|| scope.spawn(|| sample_queue(addr, &stop)));
        let out = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .args([
                    "--generate",
                    &addr.to_string(),
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                    "--connections",
                    &connections.to_string(),
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
        });
        stop.store(true, Ordering::Relaxed);
        let queue = sampler.map_or_else(Vec::new, |h| h.join().expect("sampler panicked"));
        io::Result::Ok((out?, queue))
    })?;
    let stats = stop_daemon(daemon)?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "generator exited with {}",
            out.status
        )));
    }
    Ok(Session {
        replies: parse_replies(&out.stdout),
        stats,
        queue,
        vfs,
        setups,
    })
}

// ---------------------------------------------------------------------
// Checks and metrics
// ---------------------------------------------------------------------

/// The local recomputation of a spec.
struct Reference {
    /// The response a correct daemon must send (with an empty id).
    response: Response,
    /// Wall time of the `execute` call.
    wall: Duration,
    /// Wall time of parsing the spec's PLA text alone, if it has one.
    parse: Option<Duration>,
}

/// Recomputes `spec` locally, inside the `serve.execute` span (and the
/// `io.parse_pla` span for a PLA spec's text).
fn expected(spec: &SynthSpec) -> Reference {
    let parse = match &spec.source {
        Source::Pla(text) => {
            let t = Instant::now();
            let _ = span("io.parse_pla", || parse_pla(text));
            Some(t.elapsed())
        }
        Source::Registry(_) => None,
    };
    let budget = Budget::default().with_node_limit(ServerConfig::default().default_node_limit);
    let t = Instant::now();
    let out = span("serve.execute", || execute(spec, Some(budget), None, false));
    let wall = t.elapsed();
    let mut r = match out {
        Ok(o) => Response {
            id: String::new(),
            status: if o.degraded {
                Status::Degraded
            } else {
                Status::Ok
            },
            spec_hash: None,
            error: None,
            result: Some(o.result),
            cached: false,
            resumed: false,
            storage_degraded: false,
        },
        Err(ExecError::Reject(code, message)) => Response::failure("", code, message),
        Err(ExecError::Parked) => Response::failure("", ErrorCode::Internal, "parked"),
    };
    r.spec_hash = Some(spec.hash_hex());
    Reference {
        response: r,
        wall,
        parse,
    }
}

/// How the daemon answered one request.
#[derive(Clone, Copy, PartialEq)]
enum Route {
    Computed,
    Cached,
    Replayed,
}

struct Scored {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    good: u64,
    failed: u64,
    rejected: u64,
    infeasible: u64,
    /// (request index, how it was answered) of each correct reply.
    routes: Vec<(usize, Route)>,
    /// Quality sums and `execute` time over the specs first recomputed
    /// while scoring this session.
    quality: [u64; 3],
    synth_wall: Duration,
}

/// The wire bytes a correct daemon may send for `reference` under `id`:
/// computed, served from the cache, or replayed from the spool.
fn accepted_forms(reference: &Response, id: &str) -> [(Route, Vec<u8>); 3] {
    let mut r = reference.clone();
    r.id = id.to_owned();
    let computed = r.to_bytes();
    let ok = r.status == Status::Ok;
    r.cached = ok;
    let cached = r.to_bytes();
    r.cached = false;
    r.resumed = ok;
    let replayed = r.to_bytes();
    [
        (Route::Computed, computed),
        (Route::Cached, cached),
        (Route::Replayed, replayed),
    ]
}

/// Scores a session's replies against the local recomputation of each
/// spec, which `want` caches by spec hash across sessions.
fn score(plan: &[Planned], replies: &[Reply], want: &mut HashMap<u64, Reference>) -> Scored {
    let mut s = Scored {
        latency_ms: Vec::new(),
        late_ms: Vec::new(),
        good: 0,
        failed: (plan.len() - replies.len()) as u64,
        rejected: 0,
        infeasible: 0,
        routes: Vec::new(),
        quality: [0; 3],
        synth_wall: Duration::ZERO,
    };
    if s.failed > 0 {
        eprintln!("serve: {} requests got no reply", s.failed);
    }
    for r in replies {
        let i = r.index as usize;
        let spec = &plan[i].spec;
        let latency = common::ms(r.latency);
        s.latency_ms.push(latency);
        s.late_ms.push(common::ms(r.late));
        let first_sight = !want.contains_key(&spec.hash());
        let reference = want.entry(spec.hash()).or_insert_with(|| expected(spec));
        if first_sight {
            s.synth_wall += reference.wall;
            if let Some(result) = &reference.response.result {
                s.quality[0] += result.stats.memory_bits;
                s.quality[1] += result.stats.cells as u64;
                s.quality[2] += result.stats.width as u64;
            }
        }
        let matched = accepted_forms(&reference.response, &plan[i].id)
            .into_iter()
            .find(|(_, bytes)| *bytes == r.bytes);
        let Some((path, _)) = matched else {
            // Not a correct answer: a refusal, or a mismatch.
            match Response::from_bytes(&r.bytes).map(|got| got.error) {
                Ok(Some((code @ (ErrorCode::QueueFull | ErrorCode::Overloaded), _))) => {
                    eprintln!("serve: {}: refused ({})", plan[i].id, code.as_str());
                    s.rejected += 1;
                }
                _ => eprintln!(
                    "serve: {}: reply differs from the local recomputation",
                    plan[i].id
                ),
            }
            s.failed += 1;
            continue;
        };
        if matches!(reference.response.error, Some((ErrorCode::Infeasible, _))) {
            s.infeasible += 1;
        }
        s.routes.push((i, path));
        if latency <= LATENCY_LIMIT_MS {
            s.good += 1;
        }
    }
    s
}

fn stat(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
}

/// Runs the serve workload and returns `(attempted, failed, metrics)`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> (u64, u64, Metrics) {
    let plan = schedule(seed, seconds);
    let attempted = plan.len() as u64;
    let mut out = Metrics::default();
    let untraced = match session(seed, seconds, false) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: session failed: {e}");
            return (attempted, attempted, out);
        }
    };
    // With `traced`, the recomputation that scores the untraced session
    // runs inside spans: it is the replay of each spec's execution.
    trace::set_enabled(traced);
    let mut references = HashMap::new();
    let scored = score(&plan, &untraced.replies, &mut references);
    let p50 = common::median(&scored.latency_ms);
    out.insert("serve_p99_ms", common::percentile(&scored.latency_ms, 99.0));
    eprintln!(
        "serve: {} requests at {RATE_RPS} rps over {} connections, {} latency samples \
         (p25 {:.1} / p50 {p50:.1} / p75 {:.1} ms), {} infeasible",
        plan.len(),
        std::thread::available_parallelism().map_or(2, |n| n.get()),
        scored.latency_ms.len(),
        common::percentile(&scored.latency_ms, 25.0),
        common::percentile(&scored.latency_ms, 75.0),
        scored.infeasible
    );
    if !traced {
        out.insert("setup_s", common::median(&untraced.setups));
        out.insert("synth_wall_s", scored.synth_wall.as_secs_f64());
        out.insert("peak_rss_mb", common::peak_rss_mb());
        out.insert("cascade_memory_bits", scored.quality[0] as f64);
        out.insert("cascade_cells", scored.quality[1] as f64);
        out.insert("cf_width_sum", scored.quality[2] as f64);
        out.insert("error_rate", common::error_rate(attempted, scored.failed));
        out.insert("serve_p50_ms", p50);
        out.insert("serve_goodput_rps", scored.good as f64 / seconds);
        return (attempted, scored.failed, out);
    }

    // Traced: a second session with the timing Vfs and the queue sampler,
    // scored against the same references; then each cache hit's and spool
    // replay's audit is replayed locally inside a span.
    let traced_run = match session(seed, seconds, true) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: traced session failed: {e}");
            return (attempted, attempted, out);
        }
    };
    let t_scored = score(&plan, &traced_run.replies, &mut references);
    let mut failed = scored.failed + t_scored.failed;
    let mut audit_ms: HashMap<u64, f64> = HashMap::new();
    for &(i, route) in &t_scored.routes {
        let spec = &plan[i].spec;
        if route == Route::Computed || audit_ms.contains_key(&spec.hash()) {
            continue;
        }
        let reference = &references[&spec.hash()].response;
        let t = Instant::now();
        let clean = span("check.audit", || {
            let result = reference.result.as_ref()?;
            let mut spec_cf = build_cf(spec).ok()?;
            Some(
                audit_artifact_text(
                    &result.cascade,
                    &result.verilog,
                    &format!("spec_{}", spec.hash_hex()),
                    &mut spec_cf,
                    "bench",
                )
                .is_clean(),
            )
        });
        if clean != Some(true) {
            eprintln!("serve: {}: served artifact fails the audit", plan[i].id);
            failed += 1;
        }
        audit_ms.insert(spec.hash(), common::ms(t.elapsed()));
    }
    let summary = trace::finish();
    crate::write_trace("serve", seed, &summary.chrome_json);

    let latency_of: HashMap<u32, f64> = traced_run
        .replies
        .iter()
        .map(|r| (r.index, common::ms(r.latency)))
        .collect();
    // Each correct reply against the replayed work it stands for: the
    // spec's `execute` when computed, the audit when served from the cache
    // or the spool.
    let mut residual = Vec::new();
    let (mut covered, mut total, mut busy) = (0.0, 0.0, 0.0);
    let mut exec_ms = Vec::new();
    for &(i, route) in &t_scored.routes {
        let hash = plan[i].spec.hash();
        let compute = match route {
            Route::Computed => {
                let ms = common::ms(references[&hash].wall);
                exec_ms.push(ms);
                ms
            }
            Route::Cached | Route::Replayed => audit_ms[&hash],
        };
        let lat = latency_of[&(i as u32)];
        residual.push(lat - compute);
        covered += compute.min(lat);
        total += lat;
        busy += compute;
    }
    let parse_ms: Vec<f64> = references
        .values()
        .filter_map(|r| r.parse.map(common::ms))
        .collect();
    let stats = &traced_run.stats;
    let vfs = &traced_run.vfs;
    let engine = common::Engine {
        gc_runs: stat(stats, "engine_gc_runs") as u64,
        gc_pause_ns: stat(stats, "engine_gc_pause_ns") as u64,
        cache_hits: stat(stats, "engine_cache_hits") as u64,
        cache_misses: stat(stats, "engine_cache_misses") as u64,
        unique_lookups: stat(stats, "engine_unique_lookups") as u64,
        unique_probes: stat(stats, "engine_unique_probes") as u64,
        peak_arena_bytes: stat(stats, "engine_peak_arena_bytes") as u64,
    };
    engine.report(&mut out);
    let hits = stat(stats, "cache_hits");
    let misses = stat(stats, "cache_misses");
    let syncs = vfs.syncs.load(Ordering::Relaxed).max(1) as f64;
    let queue = &traced_run.queue;
    let workers = ServerConfig::default().workers as f64;
    out.insert("serve.execute_ms", common::median(&exec_ms));
    out.insert(
        "check.audit_ms",
        common::median(&audit_ms.values().copied().collect::<Vec<_>>()),
    );
    out.insert("io.parse_pla_ms", common::median(&parse_ms));
    out.insert("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    out.insert("serve.worker_util", busy / (workers * seconds * 1e3));
    out.insert(
        "bdd.vfs.sync_ms",
        vfs.sync_ns.load(Ordering::Relaxed) as f64 * 1e-6 / syncs,
    );
    out.insert("bdd.vfs.ops", vfs.ops.load(Ordering::Relaxed) as f64);
    out.insert("serve.queue_max", queue.iter().copied().fold(0.0, f64::max));
    out.insert(
        "serve.queue_mean",
        queue.iter().sum::<f64>() / queue.len().max(1) as f64,
    );
    out.insert("serve.residual_ms", common::median(&residual));
    out.insert(
        "serve.rejected",
        (scored.rejected + t_scored.rejected) as f64,
    );
    out.insert(
        "serve.infeasible_frac",
        t_scored.infeasible as f64 / t_scored.routes.len().max(1) as f64,
    );
    out.insert(
        "serve.gen_late_ms",
        common::percentile(&t_scored.late_ms, 99.0),
    );
    out.insert("serve.requests", t_scored.latency_ms.len() as f64);
    out.insert("trace.attributed_frac", covered / total.max(1e-9));
    out.insert(
        "trace.overhead_frac",
        common::median(&t_scored.latency_ms) / p50 - 1.0,
    );
    (attempted, failed, out)
}
