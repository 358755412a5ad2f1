//! The `serve` workload: an open-loop generator drives a spawned `rayflex-server` (default
//! `ServerConfig`) over 2 persistent connections with loadgen's request mix.
//!
//! Requests are due on a fixed-rate schedule, as independent users would send them; each is
//! timed from its due time, so time spent waiting for a busy connection counts.  This is the
//! only workload that exercises `wire` decode/encode, `AdmissionQueue` batching and
//! `BatchExecutor`, and its kernel work per request is tiny: the fused scheduler runs many tiny
//! streams here and one big stream in `frame`.

use std::io::{BufRead, BufReader, ErrorKind};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rayflex_core::PipelineConfig;
use rayflex_geometry::Vec3;
use rayflex_rtunit::{
    Bvh4, ExecPolicy, HierarchicalSearch, KnnEngine, KnnMetric, Neighbor, QueryOutcome, Scene,
    TraceRequest, TraversalEngine, TraversalHit, TraversalStats,
};
use rayflex_server::ServerConfig;
use rayflex_workloads::wire::{
    catalog, encode_response, RequestBody, RequestFrame, ResponseBody, ResponseFrame, WireClient,
    WireHit, WireNeighbor,
};

use crate::kernel::{kernel_ns_per_beat, MixDelta};
use crate::replay;
use crate::stats::{median, ms, quantile, us, windowed_quantile, SplitMix};
use crate::trace::{self, Tracer};
use crate::{sys, Options, Outcome};

/// The rate `p50_ms` and `p99_ms` are measured at.
pub const REFERENCE_RATE: f64 = 1000.0;
/// Share of the run spent at the reference rate; the rate ladder takes the rest.
const REFERENCE_SHARE: f64 = 0.4;
/// The fixed rate ladder (req/s), climbed from the reference rate, whose step is the reference
/// phase, until a rate fails.  Around the server's capacity on a 2-vCPU host the steps are 5%
/// apart, so a run that stops one step short of another moves `max_rate_rps` by that much.
const LADDER: [f64; 17] = [
    1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0, 4250.0, 4500.0, 4750.0, 5000.0,
    5250.0, 5500.0, 5750.0, 6000.0, 7000.0, 8000.0,
];
/// Requests per p99 window: each window's p99 has 2 samples beyond it, and a phase's p99 is
/// the lower quartile over its windows (see [`windowed_quantile`]).  At the reference rate a
/// window lasts 0.2 s, short enough that the quieter quarter of windows falls between the
/// host's stalls even when it steals several percent of CPU time.
pub const WINDOW: usize = 200;
/// Windows per ladder step above the reference rate (5000 requests).
const STEP_WINDOWS: usize = 25;
/// A rate is sustained only if its p99 latency stays within this limit ...
const P99_LIMIT_MS: f64 = 5.0;
/// ... and the send lag of its last quarter exceeds its first quarter's by at most this much.
const BACKLOG_GROWTH_MS: f64 = 1.0;
/// Generator lateness p99 (idle connection, sent after the due time), as a share of the
/// reference p50 latency, that flags a run: above it the generator's own delay is a material
/// part of the latency measured.
const LATE_FLAG_SHARE: f64 = 0.25;
pub const CONNECTIONS: usize = 2;
/// Distinct requests in the seeded pool; request `i` of a run is `pool[i % POOL]`.
const POOL: usize = 1024;
/// Server spawns per run; `setup_s` is their median.  A spawn takes a few milliseconds, so one
/// stall of the host moves it by a large share.
const SETUP_REPEATS: usize = 15;
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// The seeded request pool, with loadgen's mix: 1–2-ray trace and any-hit requests on
/// `lit`/`wall`, kNN on `clusters`, radius on `cloud`, a third carrying deadlines, 4 tenants.
pub fn request_pool(seed: u64) -> Vec<RequestFrame> {
    (0..POOL)
        .map(|i| {
            let sample_seed =
                SplitMix::new(seed ^ (i as u64).wrapping_mul(0xa076_1d64_78bd_642f)).next_u64();
            let (scene, body) = match i % 7 {
                5 => (
                    "clusters",
                    RequestBody::Knn {
                        k: 4,
                        query: catalog::sample_queries("clusters", sample_seed, 1)
                            .and_then(|queries| queries.into_iter().next())
                            .expect("clusters is a catalog dataset"),
                    },
                ),
                6 => {
                    let (center, radius) = catalog::sample_centers("cloud", sample_seed, 1)
                        .expect("cloud is a catalog cloud")[0];
                    (
                        "cloud",
                        RequestBody::Radius {
                            center: [center.x, center.y, center.z],
                            radius,
                        },
                    )
                }
                step => {
                    let scene = if step % 2 == 0 { "lit" } else { "wall" };
                    let rays = catalog::sample_rays(scene, sample_seed, 1 + step % 2)
                        .expect("lit and wall are catalog scenes");
                    if step % 3 == 0 {
                        (scene, RequestBody::Trace { rays })
                    } else {
                        (scene, RequestBody::AnyHit { rays })
                    }
                }
            };
            RequestFrame {
                request_id: 0,
                tenant: (i % 4) as u32,
                deadline_us: if i % 3 == 0 { 20_000 } else { 0 },
                scene: scene.into(),
                body,
            }
        })
        .collect()
}

/// The library's answer to each pool request issued alone (as in
/// `crates/server/tests/bit_identity.rs`), encoded with request id 0, plus the counters the
/// library engines recorded while answering.
pub struct Expected {
    encoded: Vec<Vec<u8>>,
    pub traversal: TraversalStats,
    pub mix: MixDelta,
    pub scored: u64,
    pub radius_requests: u64,
    pub cloud_points: u64,
}

impl Expected {
    pub fn compute(pool: &[RequestFrame]) -> Self {
        let fused = ExecPolicy::fused();
        let config = PipelineConfig::extended_unified();
        let scenes: Vec<(&str, Scene)> = catalog::SCENES
            .iter()
            .map(|&name| {
                let triangles = catalog::scene_triangles(name).expect("catalog scene");
                (name, Scene::from_parts(Bvh4::build(&triangles), triangles))
            })
            .collect();
        let dataset = catalog::dataset_vectors("clusters").expect("catalog dataset");
        let points = catalog::cloud_points("cloud").expect("catalog cloud");
        let cloud_points = points.len() as u64;
        let mut traversal = TraversalEngine::with_config(config);
        let mut knn = KnnEngine::new();
        let mut search = HierarchicalSearch::build(points, 0.05, config);
        let mut radius_requests = 0;
        let encoded = pool
            .iter()
            .map(|request| {
                let body = match &request.body {
                    RequestBody::Trace { rays } | RequestBody::AnyHit { rays } => {
                        let scene = &scenes
                            .iter()
                            .find(|(name, _)| *name == request.scene)
                            .expect("pool requests name catalog scenes")
                            .1;
                        let closest = matches!(request.body, RequestBody::Trace { .. });
                        let trace = if closest {
                            TraceRequest::closest_hit(scene, rays)
                        } else {
                            TraceRequest::any_hit(scene, rays)
                        };
                        let output =
                            complete(traversal.try_trace(&trace, &fused).expect("valid rays"));
                        let hits = if closest {
                            output.into_closest()
                        } else {
                            output.into_any()
                        };
                        ResponseBody::Hits {
                            hits: hits.into_iter().map(wire_hit).collect(),
                        }
                    }
                    RequestBody::Knn { k, query } => ResponseBody::Neighbors {
                        neighbors: wire_neighbors(
                            knn.try_k_nearest(
                                query,
                                &dataset,
                                *k as usize,
                                KnnMetric::Euclidean,
                                &fused,
                            )
                            .expect("valid query"),
                        ),
                    },
                    RequestBody::Radius { center, radius } => {
                        radius_requests += 1;
                        let center = Vec3::new(center[0], center[1], center[2]);
                        let lists = complete(
                            search
                                .try_radius_queries(&[(center, *radius)], &fused)
                                .expect("valid radius query"),
                        );
                        ResponseBody::Neighbors {
                            neighbors: wire_neighbors(lists.into_iter().next().unwrap_or_default()),
                        }
                    }
                    RequestBody::Shutdown => unreachable!("the pool holds no shutdown frames"),
                };
                encode_response(&ResponseFrame {
                    request_id: 0,
                    body,
                })
            })
            .collect();
        let zero = rayflex_core::BeatMix::default();
        let mut mix = MixDelta::between(&zero, &traversal.beat_mix());
        mix.add(&MixDelta::between(&zero, &knn.beat_mix()));
        let search_stats = search.stats();
        mix.beats[0] += search_stats.box_beats;
        mix.beats[2] += search_stats.euclidean_beats;
        Expected {
            encoded,
            traversal: traversal.stats(),
            mix,
            scored: search_stats.candidates_scored,
            radius_requests,
            cloud_points,
        }
    }

    /// Whether a response is the library's answer to request `index`.
    pub fn matches(&self, index: usize, response: &ResponseFrame) -> bool {
        response.request_id == index as u64
            && encode_response(&ResponseFrame {
                request_id: 0,
                body: response.body.clone(),
            }) == self.encoded[index % POOL]
    }
}

fn complete<T>(outcome: QueryOutcome<T>) -> T {
    match outcome {
        QueryOutcome::Complete(output) => output,
        QueryOutcome::Partial(_) => unreachable!("uncapped runs always complete"),
    }
}

fn wire_hit(hit: Option<TraversalHit>) -> Option<WireHit> {
    hit.map(|hit| WireHit {
        primitive: hit.primitive as u64,
        t: hit.t,
    })
}

fn wire_neighbors(neighbors: Vec<Neighbor>) -> Vec<WireNeighbor> {
    neighbors
        .into_iter()
        .map(|neighbor| WireNeighbor {
            index: neighbor.index as u64,
            distance: neighbor.distance,
        })
        .collect()
}

/// The request of schedule slot `index`.
pub fn request(pool: &[RequestFrame], index: usize) -> RequestFrame {
    RequestFrame {
        request_id: index as u64,
        ..pool[index % POOL].clone()
    }
}

/// Waits for `due` without sleeping, yielding to any runnable thread meanwhile.
///
/// A sleeping generator overshoots its due times and lets the virtual machine's vCPUs halt
/// between requests; waking a halted vCPU can take milliseconds when the host is busy, which
/// would put the hypervisor rather than the server in the latency tail.
pub fn wait_until(due: Instant) {
    while Instant::now() < due {
        thread::yield_now();
    }
}

/// A spawned `rayflex-server` child; dropping it kills and reaps the child.
struct Server {
    child: Option<Child>,
    addr: String,
    drained: Option<thread::JoinHandle<Option<String>>>,
}

/// The server's drained summary line, parsed.
#[derive(Debug, Default)]
struct Drained {
    served: u64,
    batches: u64,
    lanes_busy: u64,
    lane_slots: u64,
}

impl Server {
    /// Spawns the server and waits for its `listening on` line; returns it with the time from
    /// spawn to that line.
    fn spawn(bin: &Path) -> Result<(Server, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|error| format!("spawning {}: {error}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            drained: None,
        };
        let (listening_tx, listening_rx) = mpsc::channel();
        server.drained = Some(thread::spawn(move || {
            let mut drained = None;
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = listening_tx.send(addr.to_string());
                } else if line.starts_with("drained: ") {
                    drained = Some(line);
                }
            }
            drained
        }));
        server.addr = listening_rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| "the server never printed its listening line".to_string())?;
        let setup = start.elapsed().as_secs_f64();
        Ok((server, setup))
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Sends the protocol shutdown frame, waits for a clean exit and parses the drain summary.
    fn shutdown(mut self) -> Result<Drained, String> {
        let mut client = WireClient::connect(&self.addr).map_err(|e| format!("shutdown: {e}"))?;
        let ack = client
            .request(&RequestFrame {
                request_id: u64::MAX,
                tenant: 0,
                deadline_us: 0,
                scene: String::new(),
                body: RequestBody::Shutdown,
            })
            .map_err(|e| format!("shutdown: {e}"))?;
        if !matches!(ack.body, ResponseBody::ShutdownAck) {
            return Err(format!("shutdown answered {:?}", ack.body));
        }
        let status = self
            .child
            .take()
            .expect("a live server has a child")
            .wait()
            .map_err(|e| format!("reaping the server: {e}"))?;
        if !status.success() {
            return Err(format!("the server exited with {status}"));
        }
        let line = self
            .drained
            .take()
            .and_then(|reader| reader.join().ok().flatten())
            .ok_or("the server printed no drained summary")?;
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|token| token.strip_prefix(key))
                .and_then(|value| value.parse().ok())
                .unwrap_or(0)
        };
        Ok(Drained {
            served: field("served="),
            batches: field("batches="),
            lanes_busy: field("lanes_busy="),
            lane_slots: field("lane_slots="),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.drained.take() {
            let _ = reader.join();
        }
    }
}

/// One request of a phase, as the generator saw it.
pub struct Sample {
    pub index: usize,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// The connection was idle at the due time, so any lateness is the generator's own.
    pub idle: bool,
    pub response: Result<ResponseFrame, String>,
}

/// Latency and correctness of one phase of the schedule.
struct Phase {
    rate: f64,
    latencies_ms: Vec<f64>,
    /// Round trip from send to response, excluding any wait for a busy connection.
    round_trips_us: Vec<f64>,
    late_ms: Vec<f64>,
    failed: u64,
    backlog_growth_ms: f64,
    completed_per_s: f64,
}

impl Phase {
    fn evaluate(rate: f64, samples: &[Sample], expected: &Expected) -> Phase {
        let latencies_ms: Vec<f64> = samples.iter().map(|s| ms(s.done - s.due)).collect();
        let lags: Vec<f64> = samples
            .iter()
            .map(|s| ms(s.sent.saturating_duration_since(s.due)))
            .collect();
        let quarter = (lags.len() / 4).max(1);
        let backlog_growth_ms =
            median(&lags[lags.len() - quarter..]) - median(&lags[..quarter.min(lags.len())]);
        let first_due = samples
            .iter()
            .map(|s| s.due)
            .min()
            .expect("phases are never empty");
        let last_done = samples
            .iter()
            .map(|s| s.done)
            .max()
            .expect("phases are never empty");
        Phase {
            rate,
            round_trips_us: samples.iter().map(|s| us(s.done - s.sent)).collect(),
            late_ms: samples
                .iter()
                .filter(|s| s.idle)
                .map(|s| ms(s.sent.saturating_duration_since(s.due)))
                .collect(),
            failed: samples
                .iter()
                .filter(|s| match &s.response {
                    Ok(response) => !expected.matches(s.index, response),
                    Err(_) => true,
                })
                .count() as u64,
            backlog_growth_ms,
            completed_per_s: samples.len() as f64 / (last_done - first_due).as_secs_f64(),
            latencies_ms,
        }
    }

    fn p50(&self) -> f64 {
        median(&self.latencies_ms)
    }

    /// The lower quartile over consecutive windows of [`WINDOW`] requests of each window's p99.
    fn p99(&self) -> f64 {
        windowed_quantile(&self.latencies_ms, WINDOW, 0.99)
    }

    /// A request that fails counts as missing the latency limit.
    fn sustained(&self) -> bool {
        self.failed == 0
            && self.p99() <= P99_LIMIT_MS
            && self.backlog_growth_ms <= BACKLOG_GROWTH_MS
    }

    fn print(&self, label: &str) {
        println!(
            "{label} {:>6.0} req/s (achieved {:.1}): {} requests, p50 {:.3} ms, p99 {:.3} ms, \
             backlog growth {:+.3} ms, generator late p99 {:.4} ms over {} idle sends, {} failed \
             -> {}",
            self.rate,
            self.completed_per_s,
            self.latencies_ms.len(),
            self.p50(),
            self.p99(),
            self.backlog_growth_ms,
            quantile(&self.late_ms, 0.99),
            self.late_ms.len(),
            self.failed,
            if self.sustained() {
                "sustained"
            } else {
                "not sustained"
            }
        );
    }
}

/// Sends schedule slots `first..first + count` at `rate` over the connections (one generator
/// thread each, taking the next due slot whenever its connection is free).  With a tracer per
/// connection, each request's round trip is recorded as a span.
fn run_phase(
    clients: &mut [WireClient],
    addr: &str,
    pool: &[RequestFrame],
    rate: f64,
    first: usize,
    count: usize,
    tracers: Option<&mut [Tracer]>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(2);
    let tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(tracers) => tracers.iter_mut().map(Some).collect(),
        None => clients.iter().map(|_| None).collect(),
    };
    let per_thread: Vec<Vec<Sample>> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tracers)
            .map(|(client, mut tracer)| {
                let next = &next;
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(count / CONNECTIONS + 1);
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= count {
                            break;
                        }
                        let index = first + slot;
                        let due = start + period * slot as u32;
                        let request = request(pool, index);
                        let idle = Instant::now() < due;
                        wait_until(due);
                        let sent = Instant::now();
                        let open = tracer
                            .as_deref_mut()
                            .map(|tracer| tracer.begin("wire.client.round_trip", index as u64));
                        let response = round_trip(client, &request);
                        if let (Some(tracer), Some(open)) = (tracer.as_deref_mut(), open) {
                            tracer.end(open);
                        }
                        let done = Instant::now();
                        if response.is_err() {
                            // The stream may be out of frame sync: start a fresh connection.
                            if let Ok(fresh) = connect(addr) {
                                *client = fresh;
                            }
                        }
                        samples.push(Sample {
                            index,
                            due,
                            sent,
                            done,
                            idle,
                            response,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("generator threads do not panic"))
            .collect()
    });
    let mut samples: Vec<Sample> = per_thread.into_iter().flatten().collect();
    samples.sort_by_key(|sample| sample.index);
    samples
}

/// Sends one request and waits for its response without sleeping: the generator polls the
/// socket (yielding to any runnable thread) so the client's own wake-up is not in the latency.
/// A response slower than [`RESPONSE_TIMEOUT`] fails.
fn round_trip(client: &mut WireClient, request: &RequestFrame) -> Result<ResponseFrame, String> {
    client.send(request).map_err(|e| e.to_string())?;
    let sent = Instant::now();
    let stream = client.stream_mut();
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut probe = [0u8; 1];
    let arrived = loop {
        match stream.peek(&mut probe) {
            Ok(0) => break Err("the server closed the connection".to_string()),
            Ok(_) => break Ok(()),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if sent.elapsed() > RESPONSE_TIMEOUT {
                    break Err("no response within the timeout".to_string());
                }
                thread::yield_now();
            }
            Err(e) => break Err(e.to_string()),
        }
    };
    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    arrived?;
    client.receive().map_err(|e| e.to_string())
}

/// Connects one generator connection; a response slower than [`RESPONSE_TIMEOUT`] fails.
pub fn connect(addr: &str) -> Result<WireClient, String> {
    let mut client = WireClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    client
        .stream_mut()
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .map_err(|e| format!("setting the response timeout: {e}"))?;
    Ok(client)
}

/// Spawns the server `SETUP_REPEATS` times (the median spawn-to-listening time is `setup_s`)
/// and keeps the last one running.
fn setup(bin: &Path) -> Result<(Server, f64), String> {
    let mut setups = Vec::new();
    let mut running: Option<Server> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(server) = running.take() {
            server.shutdown()?;
        }
        let (server, setup) = Server::spawn(bin)?;
        setups.push(setup);
        running = Some(server);
    }
    Ok((running.expect("at least one set-up"), median(&setups)))
}

fn clients(addr: &str) -> Result<Vec<WireClient>, String> {
    (0..CONNECTIONS).map(|_| connect(addr)).collect()
}

/// Flags a run whose generator, not a busy connection, made requests late.
fn flag_generator(late_ms_p99: f64, p50_ms: f64) {
    if late_ms_p99 > LATE_FLAG_SHARE * p50_ms {
        println!(
            "FLAG generator_late: requests on idle connections went out {late_ms_p99:.4} ms late \
             at p99, more than {LATE_FLAG_SHARE} of the {p50_ms:.4} ms p50; the latency figures \
             include the generator's own delay"
        );
    }
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    let bin = options
        .server_bin
        .as_deref()
        .expect("checked when parsing arguments");
    let pool = request_pool(options.seed);
    let (server, setup_s) = setup(bin)?;
    let expected = Expected::compute(&pool);
    let mut clients = clients(&server.addr)?;
    if options.traced {
        return traced(options, server, &pool, &expected, clients);
    }

    let mut outcome = Outcome::default();
    let reference_requests =
        (options.run.as_secs_f64() * REFERENCE_SHARE * REFERENCE_RATE).max(WINDOW as f64) as usize;
    let host = sys::CpuTimes::now();
    let mut late_ms = Vec::new();
    let mut next = 0;
    let mut step = |rate: f64, requests: usize, label: &str| {
        let samples = run_phase(
            &mut clients,
            &server.addr,
            &pool,
            rate,
            next,
            requests,
            None,
        );
        next += requests;
        let phase = Phase::evaluate(rate, &samples, &expected);
        phase.print(label);
        late_ms.extend(&phase.late_ms);
        outcome.attempted += samples.len() as u64;
        outcome.failed += phase.failed;
        phase
    };
    let reference = step(REFERENCE_RATE, reference_requests, "reference");
    // The highest sustained step's achieved rate (completed ÷ wall), not its nominal rate.
    let mut max_rate = 0.0;
    let first = if reference.sustained() {
        Some(reference.completed_per_s)
    } else {
        let retry = step(REFERENCE_RATE, STEP_WINDOWS * WINDOW, "retry");
        retry.sustained().then_some(retry.completed_per_s)
    };
    if let Some(rate) = first {
        max_rate = rate;
        for &rate in &LADDER[1..] {
            // A step that misses the limits is measured once more before it counts as failed,
            // so one burst of the shared host's stalls does not end the climb.
            let mut phase = step(rate, STEP_WINDOWS * WINDOW, "ladder");
            if !phase.sustained() {
                phase = step(rate, STEP_WINDOWS * WINDOW, "retry");
            }
            if !phase.sustained() {
                break;
            }
            max_rate = phase.completed_per_s;
        }
    }
    sys::print_steal(host);
    let peak_rss = sys::peak_rss_mib(Some(server.pid())).ok_or("cannot read the server's VmHWM")?;
    drop(clients);
    let drained = server.shutdown()?;
    println!(
        "drained: served={} batches={} lanes_busy={} lane_slots={}",
        drained.served, drained.batches, drained.lanes_busy, drained.lane_slots
    );
    println!(
        "serve: p50 over {} requests at {REFERENCE_RATE} req/s, p99 the lower quartile of {} \
         windows of {WINDOW}; each later ladder step {STEP_WINDOWS} windows; {CONNECTIONS} \
         connections",
        reference.latencies_ms.len(),
        reference.latencies_ms.len() / WINDOW
    );
    let late_p99 = quantile(&late_ms, 0.99);
    println!(
        "loadgen.late_ms_p99 {late_p99:.4} ms over {} idle sends",
        late_ms.len()
    );
    flag_generator(late_p99, reference.p50());

    outcome.set("setup_s", setup_s);
    outcome.set("ops_per_s", reference.completed_per_s);
    outcome.set("p50_ms", reference.p50());
    outcome.set("p99_ms", reference.p99());
    outcome.set("max_rate_rps", max_rate);
    outcome.set("peak_rss_mb", peak_rss);
    Ok(outcome)
}

fn traced(
    options: &Options,
    server: Server,
    pool: &[RequestFrame],
    expected: &Expected,
    mut clients: Vec<WireClient>,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0);
    // Half the run against the spawned server (untraced, then traced), half replayed
    // in-process through the server's public queue and executor.
    let requests = (options.run.as_secs_f64() * 0.25 * REFERENCE_RATE).max(500.0) as usize;
    let untraced_samples = run_phase(
        &mut clients,
        &server.addr,
        pool,
        REFERENCE_RATE,
        0,
        requests,
        None,
    );
    let mut conn_tracers: Vec<Tracer> = (1..=CONNECTIONS as u32)
        .map(|thread| Tracer::new(epoch, thread))
        .collect();
    let traced_samples = run_phase(
        &mut clients,
        &server.addr,
        pool,
        REFERENCE_RATE,
        requests,
        requests,
        Some(&mut conn_tracers),
    );
    for conn_tracer in conn_tracers {
        tracer.absorb(conn_tracer);
    }
    let untraced = Phase::evaluate(REFERENCE_RATE, &untraced_samples, expected);
    let traced = Phase::evaluate(REFERENCE_RATE, &traced_samples, expected);
    untraced.print("spawned untraced");
    traced.print("spawned traced");
    for phase in [&untraced, &traced] {
        outcome.attempted += phase.latencies_ms.len() as u64;
        outcome.failed += phase.failed;
    }
    drop(clients);
    let drained = server.shutdown()?;

    let replayed = replay::run(
        pool,
        expected,
        REFERENCE_RATE,
        2 * requests,
        requests,
        epoch,
    )?;
    outcome.attempted += replayed.attempted;
    outcome.failed += replayed.failed;
    let server_config = ServerConfig::default();
    println!(
        "replay: served={} batches={} (default config: max_batch {}, flush_us {}); spawned \
         server drained: served={} batches={} lanes_busy={} lane_slots={}",
        replayed.served,
        replayed.batches,
        server_config.max_batch,
        server_config.flush_us,
        drained.served,
        drained.batches,
        drained.lanes_busy,
        drained.lane_slots
    );

    let round_trip_us = median(&traced.round_trips_us);
    let stages_us = replayed.queue_wait_us_p50
        + replayed.execute_us_p50
        + replayed.encode_us_p50
        + replayed.decode_us_p50;
    println!(
        "closure: client round trip p50 {round_trip_us:.1} us = queue wait {:.1} + execute {:.1} \
         + encode {:.1} + decode {:.1} + transport {:.1} us (p50s over {} replayed and {} \
         spawned requests); replay in-process round trip p50 {:.1} us",
        replayed.queue_wait_us_p50,
        replayed.execute_us_p50,
        replayed.encode_us_p50,
        replayed.decode_us_p50,
        round_trip_us - stages_us,
        replayed.served,
        traced.round_trips_us.len(),
        replayed.round_trip_us_p50
    );
    let late_p99 = quantile(
        &[untraced.late_ms.as_slice(), traced.late_ms.as_slice()].concat(),
        0.99,
    );
    flag_generator(late_p99, untraced.p50());

    outcome.set("trace.overhead_frac", traced.p50() / untraced.p50() - 1.0);
    outcome.set("server.queue_wait_us_p50", replayed.queue_wait_us_p50);
    outcome.set("server.queue_wait_us_p99", replayed.queue_wait_us_p99);
    outcome.set("server.execute_us_p50", replayed.execute_us_p50);
    outcome.set("server.execute_us_p99", replayed.execute_us_p99);
    outcome.set(
        "server.requests_per_batch",
        replayed.served as f64 / replayed.batches.max(1) as f64,
    );
    outcome.set(
        "server.spawned_requests_per_batch",
        drained.served as f64 / drained.batches.max(1) as f64,
    );
    outcome.set("server.transport_us_p50", round_trip_us - stages_us);
    outcome.set("wire.encode_us_p50", replayed.encode_us_p50);
    outcome.set("wire.decode_us_p50", replayed.decode_us_p50);
    outcome.set("wire.bytes_per_request", replayed.bytes_per_request);
    outcome.set("wire.bytes_per_response", replayed.bytes_per_response);
    outcome.set("loadgen.late_ms_p99", late_p99);
    expected.mix.report(POOL as u64, &mut outcome);
    // The modeled lane figures come from the replayed batches, not from solo library runs.
    outcome.set(
        "modeled.lane_occupancy",
        replayed.lanes_busy as f64 / replayed.lane_slots.max(1) as f64,
    );
    outcome.set(
        "modeled.lane_slots_per_op",
        replayed.lane_slots as f64 / replayed.served.max(1) as f64,
    );

    // Counts: each pool request answered alone by the library (batching changes pass
    // structure, never beats).
    let per_request = |count: u64| count as f64 / POOL as f64;
    let mut registry_builds = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (registry, build_ms) =
            tracer.timed("rtunit.bvh_build", 0, rayflex_server::Registry::preload);
        registry.map_err(|e| format!("preloading the catalog: {e}"))?;
        registry_builds.push(build_ms);
    }
    outcome.set("rtunit.bvh_build_ms", median(&registry_builds));
    outcome.set("rtunit.rays_per_op", per_request(expected.traversal.rays));
    outcome.set(
        "rtunit.box_ops_per_op",
        per_request(expected.traversal.box_ops),
    );
    outcome.set(
        "rtunit.triangle_ops_per_op",
        per_request(expected.traversal.triangle_ops),
    );
    outcome.set(
        "rtunit.nodes_visited_per_op",
        per_request(expected.traversal.nodes_visited),
    );
    outcome.set(
        "rtunit.scored_fraction",
        expected.scored as f64 / (expected.radius_requests * expected.cloud_points).max(1) as f64,
    );
    outcome.set(
        "core.host_ns_per_beat",
        replayed.execute_ns_total
            / (per_request(expected.mix.total_beats()) * replayed.served as f64).max(1.0),
    );
    kernel_ns_per_beat(server_config.simd_lanes, &mut tracer, &mut outcome);

    // Determinism: the same seed repeats every count; another seed's requests change them.
    let again = Expected::compute(&request_pool(options.seed));
    outcome.check(
        again.mix == expected.mix && again.traversal == expected.traversal,
        "counts differ between two library runs of one seed",
    );
    let other = Expected::compute(&request_pool(options.seed ^ 0x5eed_5eed_5eed_5eed));
    outcome.check(
        other.mix != expected.mix || other.traversal != expected.traversal,
        "a different seed left every count unchanged",
    );

    tracer.absorb(replayed.tracer);
    trace::save(&tracer, &options.trace_dir, "serve", options.seed)?;
    Ok(outcome)
}
