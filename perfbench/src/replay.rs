//! The in-process replay of the `serve` schedule for the traced run: the same requests at the
//! same rate over the same number of connections, pushed through the server's public
//! `AdmissionQueue::submit` / `next_batch` and `BatchExecutor::execute` under the default
//! `ServerConfig`, with the wire codec called where the server and the client call it.
//! Spans split each request into codec, queue wait and execute.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rayflex_server::{AdmissionQueue, BatchExecutor, ExecConfig, Registry, ServerConfig};
use rayflex_workloads::wire::{
    decode_request, decode_response, encode_request, encode_response, RequestFrame,
};

use crate::serve::{request, wait_until, Expected, CONNECTIONS, RESPONSE_TIMEOUT};
use crate::stats::{median, quantile, us};
use crate::trace::Tracer;

/// Bytes of the length prefix in front of every frame on the wire.
const FRAME_PREFIX: usize = 4;

pub struct Replayed {
    pub attempted: u64,
    pub failed: u64,
    pub served: u64,
    pub batches: u64,
    pub queue_wait_us_p50: f64,
    pub queue_wait_us_p99: f64,
    pub execute_us_p50: f64,
    pub execute_us_p99: f64,
    /// Request encode plus response encode, per request.
    pub encode_us_p50: f64,
    /// Request decode plus response decode, per request.
    pub decode_us_p50: f64,
    /// Submit to response, in process.
    pub round_trip_us_p50: f64,
    pub bytes_per_request: f64,
    pub bytes_per_response: f64,
    pub lanes_busy: u64,
    pub lane_slots: u64,
    /// Host time the executor spent in `BatchExecutor::execute`, in nanoseconds.
    pub execute_ns_total: f64,
    pub tracer: Tracer,
}

/// What one generator connection measured per request.
#[derive(Default)]
struct ClientSide {
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    round_trip_us: Vec<f64>,
    request_bytes: usize,
    response_bytes: usize,
    attempted: u64,
    failed: u64,
}

/// What the executor thread measured: per-job queue wait and execute time.
struct ServerSide {
    queue_wait_us: Vec<f64>,
    execute_us: Vec<f64>,
    execute_ns_total: f64,
    served: u64,
    batches: u64,
    lanes: (u64, u64),
}

pub fn run(
    pool: &[RequestFrame],
    expected: &Expected,
    rate: f64,
    first: usize,
    count: usize,
    epoch: Instant,
) -> Result<Replayed, String> {
    let config = ServerConfig::default();
    let registry =
        Arc::new(Registry::preload().map_err(|e| format!("preloading the catalog: {e}"))?);
    let queue = AdmissionQueue::new();
    let next = AtomicUsize::new(0);
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(2);

    let (clients, server, tracers) = thread::scope(|scope| {
        let executor = scope.spawn(|| {
            let mut tracer = Tracer::new(epoch, 100);
            // Built on its own thread, as the server builds it.
            let mut executor = BatchExecutor::new(
                Arc::clone(&registry),
                ExecConfig {
                    beat_budget: config.beat_budget,
                    max_batch_beats: config.max_batch_beats,
                    admission: config.admission,
                    simd_lanes: config.simd_lanes,
                },
            );
            let mut side = ServerSide {
                queue_wait_us: Vec::with_capacity(count),
                execute_us: Vec::with_capacity(count),
                execute_ns_total: 0.0,
                served: 0,
                batches: 0,
                lanes: (0, 0),
            };
            while let Some(batch) =
                queue.next_batch(config.max_batch, config.flush_us, config.admission)
            {
                let picked = Instant::now();
                for job in &batch {
                    tracer.record(
                        "server.queue_wait",
                        job.request.request_id,
                        job.enqueued_at,
                        picked,
                    );
                    side.queue_wait_us.push(us(picked - job.enqueued_at));
                }
                let (responses, execute_ms) =
                    tracer.timed("server.execute", side.batches, || executor.execute(&batch));
                side.execute_ns_total += execute_ms * 1e6;
                side.execute_us
                    .extend(std::iter::repeat_n(execute_ms * 1e3, batch.len()));
                side.served += batch.len() as u64;
                side.batches += 1;
                for (job, response) in batch.into_iter().zip(responses) {
                    let _ = job.responder.send(response);
                }
            }
            side.lanes = executor.lane_usage();
            (side, tracer)
        });

        let generators: Vec<_> = (0..CONNECTIONS)
            .map(|connection| {
                let (queue, next) = (&queue, &next);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch, 101 + connection as u32);
                    let mut side = ClientSide::default();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= count {
                            break;
                        }
                        let index = first + slot;
                        let op = index as u64;
                        let request = request(pool, index);
                        wait_until(start + period * slot as u32);
                        side.attempted += 1;
                        let (payload, encode_request_ms) =
                            tracer.timed("wire.encode_request", op, || encode_request(&request));
                        let (decoded, decode_request_ms) =
                            tracer.timed("wire.decode_request", op, || decode_request(&payload));
                        let Ok(decoded) = decoded else {
                            side.failed += 1;
                            continue;
                        };
                        let (responder, response) = sync_channel(1);
                        let (answer, round_trip_ms) = tracer.timed("server.round_trip", op, || {
                            if queue.submit(decoded, responder) {
                                response.recv_timeout(RESPONSE_TIMEOUT).ok()
                            } else {
                                None
                            }
                        });
                        let Some(answer) = answer else {
                            side.failed += 1;
                            continue;
                        };
                        let (bytes, encode_response_ms) =
                            tracer.timed("wire.encode_response", op, || encode_response(&answer));
                        let (back, decode_response_ms) =
                            tracer.timed("wire.decode_response", op, || decode_response(&bytes));
                        if !back.is_ok_and(|back| expected.matches(index, &back)) {
                            side.failed += 1;
                        }
                        side.encode_us
                            .push((encode_request_ms + encode_response_ms) * 1e3);
                        side.decode_us
                            .push((decode_request_ms + decode_response_ms) * 1e3);
                        side.round_trip_us.push(round_trip_ms * 1e3);
                        side.request_bytes += payload.len() + FRAME_PREFIX;
                        side.response_bytes += bytes.len() + FRAME_PREFIX;
                    }
                    (side, tracer)
                })
            })
            .collect();
        let mut clients = ClientSide::default();
        let mut tracers = Vec::new();
        for generator in generators {
            let (side, tracer) = generator.join().expect("generator threads do not panic");
            clients.encode_us.extend(side.encode_us);
            clients.decode_us.extend(side.decode_us);
            clients.round_trip_us.extend(side.round_trip_us);
            clients.request_bytes += side.request_bytes;
            clients.response_bytes += side.response_bytes;
            clients.attempted += side.attempted;
            clients.failed += side.failed;
            tracers.push(tracer);
        }
        queue.close();
        let (server, tracer) = executor.join().expect("the executor thread does not panic");
        tracers.push(tracer);
        (clients, server, tracers)
    });

    let mut tracer = Tracer::new(epoch, 0);
    for other in tracers {
        tracer.absorb(other);
    }
    let answered = clients.round_trip_us.len().max(1) as f64;
    Ok(Replayed {
        attempted: clients.attempted,
        failed: clients.failed,
        served: server.served,
        batches: server.batches,
        queue_wait_us_p50: median(&server.queue_wait_us),
        queue_wait_us_p99: quantile(&server.queue_wait_us, 0.99),
        execute_us_p50: median(&server.execute_us),
        execute_us_p99: quantile(&server.execute_us, 0.99),
        encode_us_p50: median(&clients.encode_us),
        decode_us_p50: median(&clients.decode_us),
        round_trip_us_p50: median(&clients.round_trip_us),
        bytes_per_request: clients.request_bytes as f64 / answered,
        bytes_per_response: clients.response_bytes as f64 / answered,
        lanes_busy: server.lanes.0,
        lane_slots: server.lanes.1,
        execute_ns_total: server.execute_ns_total,
        tracer,
    })
}
