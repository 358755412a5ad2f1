//! The `vector_search` workload: one op is one query under `ExecPolicy::default()` — a
//! `KnnEngine::k_nearest` (k = 10) query, alternating Euclidean and cosine, over a seeded
//! 16k × 128-d `vectors::clustered_dataset` (8 MiB, larger than L2), or one radius query of a
//! `HierarchicalSearch::radius_queries` batch over a seeded 3-d point cloud.
//!
//! This is the paper's extension (§V-A): it loads the Euclidean and cosine kernels and the
//! top-k selection.  Its streams carry no ray octants, so the coherence layer is bypassed.

use std::time::Instant;

use rayflex_core::PipelineConfig;
use rayflex_geometry::Vec3;
use rayflex_rtunit::{
    select_k_nearest, ExecPolicy, HierarchicalSearch, HierarchicalStats, KnnEngine, KnnMetric,
    Neighbor,
};
use rayflex_workloads::vectors;

use crate::kernel::{kernel_ns_per_beat, MixDelta};
use crate::stats::{call_latencies, median, ms, SplitMix};
use crate::trace::{self, Tracer};
use crate::{sys, Options, Outcome};

const DATASET_VECTORS: usize = 16_384;
const DIMENSION: usize = 128;
const CLUSTERS: usize = 32;
const K: usize = 10;
const KNN_QUERIES: usize = 8;
const CLOUD_POINTS: usize = 32_768;
const POINT_RADIUS: f32 = 0.05;
const RADIUS_BATCHES: usize = 2;
const RADIUS_BATCH: usize = 64;
/// Calls per latency window (10 schedule cycles): `p50_ms` is the mean over windows of each
/// window's median and `p99_ms` the median over windows of each window's p99 (see
/// [`call_latencies`]).
const WINDOW: usize = 120;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

struct Inputs {
    dataset: Vec<Vec<f32>>,
    queries: Vec<Vec<f32>>,
    search: HierarchicalSearch,
    batches: Vec<Vec<(Vec3, f32)>>,
}

/// One library call of the schedule.
#[derive(Debug, Clone, Copy)]
enum Call {
    Knn(usize),
    Radius(usize),
}

impl Call {
    fn ops(self) -> u64 {
        match self {
            Call::Knn(_) => 1,
            Call::Radius(_) => RADIUS_BATCH as u64,
        }
    }
}

/// One schedule cycle: the kNN queries in order, alternating Euclidean (even) and cosine (odd),
/// with a radius batch after every second query.
fn cycle() -> Vec<Call> {
    (0..KNN_QUERIES)
        .flat_map(|query| {
            let radius = (query % 2 == 1).then_some(Call::Radius((query / 2) % RADIUS_BATCHES));
            std::iter::once(Call::Knn(query)).chain(radius)
        })
        .collect()
}

fn metric(query: usize) -> KnnMetric {
    if query.is_multiple_of(2) {
        KnnMetric::Euclidean
    } else {
        KnnMetric::Cosine
    }
}

fn inputs(seed: u64, tracer: &mut Tracer) -> Inputs {
    let data = vectors::clustered_dataset(seed, DATASET_VECTORS, DIMENSION, CLUSTERS, 4.0);
    let queries = vectors::queries_near_dataset(seed ^ 0x7175_6572, &data, KNN_QUERIES, 1.0);
    let points: Vec<Vec3> =
        vectors::clustered_dataset(seed ^ 0x636c_6f75, CLOUD_POINTS, 3, 16, 3.0)
            .vectors
            .iter()
            .map(|v| Vec3::new(v[0], v[1], v[2]))
            .collect();
    let mut rng = SplitMix::new(seed ^ 0x7261_6469);
    let batches = (0..RADIUS_BATCHES)
        .map(|_| {
            (0..RADIUS_BATCH)
                .map(|_| {
                    let anchor = points[(rng.next_u64() % points.len() as u64) as usize];
                    let offset = Vec3::new(rng.signed_unit(), rng.signed_unit(), rng.signed_unit());
                    (anchor + offset * 0.5, 1.0 + 0.5 * rng.signed_unit())
                })
                .collect()
        })
        .collect();
    let search = tracer.span("rtunit.bvh_build", 0, || {
        HierarchicalSearch::build(points, POINT_RADIUS, PipelineConfig::extended_unified())
    });
    Inputs {
        dataset: data.vectors,
        queries,
        search,
        batches,
    }
}

/// What one call returned, for the bit-identity check.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Knn(Vec<(usize, u32)>),
    Radius(Vec<Vec<(usize, u32)>>),
}

fn bits(neighbors: &[Neighbor]) -> Vec<(usize, u32)> {
    neighbors
        .iter()
        .map(|n| (n.index, n.distance.to_bits()))
        .collect()
}

fn call(
    engine: &mut KnnEngine,
    inputs: &mut Inputs,
    item: Call,
    policy: &ExecPolicy,
    tracer: Option<(&mut Tracer, u64)>,
) -> Answer {
    match (item, tracer) {
        (Call::Knn(q), None) => Answer::Knn(bits(&engine.k_nearest(
            &inputs.queries[q],
            &inputs.dataset,
            K,
            metric(q),
            policy,
        ))),
        // `k_nearest` is `distances` followed by `select_k_nearest`; the traced run times each.
        (Call::Knn(q), Some((tracer, op))) => {
            let distances = tracer.span("rtunit.distances", op, || {
                engine.distances(&inputs.queries[q], &inputs.dataset, metric(q), policy)
            });
            Answer::Knn(bits(
                &tracer.span("rtunit.select_k", op, || select_k_nearest(&distances, K)),
            ))
        }
        (Call::Radius(b), tracer) => {
            let mut run = || inputs.search.radius_queries(&inputs.batches[b], policy);
            let results = match tracer {
                Some((tracer, op)) => tracer.span("rtunit.radius", op, run),
                None => run(),
            };
            Answer::Radius(results.iter().map(|list| bits(list)).collect())
        }
    }
}

/// Beat counters of one schedule cycle: the kNN engine's beat mix plus the hierarchical
/// search's box and Euclidean beats (its embedded scorer's passes are not exposed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    mix: MixDelta,
    scored: u64,
}

fn run_cycle(
    engine: &mut KnnEngine,
    inputs: &mut Inputs,
    policy: &ExecPolicy,
    references: &[Answer],
    mut tracer: Option<&mut Tracer>,
    op: &mut u64,
    outcome: &mut Outcome,
) -> Counts {
    let mix_before = engine.beat_mix();
    let search_before = inputs.search.stats();
    for (item, reference) in cycle().into_iter().zip(references) {
        let answer = call(
            engine,
            inputs,
            item,
            policy,
            tracer.as_deref_mut().map(|tracer| (tracer, *op)),
        );
        outcome.attempted += item.ops();
        if answer != *reference {
            outcome.failed += item.ops();
        }
        *op += 1;
    }
    let mut mix = MixDelta::between(&mix_before, &engine.beat_mix());
    let search: HierarchicalStats = inputs.search.stats();
    mix.beats[0] += search.box_beats - search_before.box_beats;
    mix.beats[2] += search.euclidean_beats - search_before.euclidean_beats;
    Counts {
        mix,
        scored: search.candidates_scored - search_before.candidates_scored,
    }
}

fn references(inputs: &mut Inputs) -> Vec<Answer> {
    let mut engine = KnnEngine::new();
    let scalar = ExecPolicy::scalar();
    cycle()
        .into_iter()
        .map(|item| call(&mut engine, inputs, item, &scalar, None))
        .collect()
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        built = Some(inputs(options.seed, &mut tracer));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut inputs = built.expect("at least one set-up");
    let references = references(&mut inputs);
    let policy = ExecPolicy::default();
    let ops_per_cycle: u64 = cycle().iter().map(|item| item.ops()).sum();

    if options.traced {
        return traced(options, inputs, &references, tracer, outcome);
    }

    sys::reset_peak_rss()?;
    let mut engine = KnnEngine::new();
    let mut op = 0;
    run_cycle(
        &mut engine,
        &mut inputs,
        &policy,
        &references,
        None,
        &mut op,
        &mut Outcome::default(),
    );
    let mut latencies = Vec::new();
    let host = sys::CpuTimes::now();
    let start = Instant::now();
    let mut ops = 0u64;
    'timed: loop {
        for (item, reference) in cycle().into_iter().zip(&references) {
            if start.elapsed() >= options.run {
                break 'timed;
            }
            let call_start = Instant::now();
            let answer = call(&mut engine, &mut inputs, item, &policy, None);
            latencies.push(ms(call_start.elapsed()));
            ops += item.ops();
            outcome.attempted += item.ops();
            if answer != *reference {
                outcome.failed += item.ops();
            }
        }
    }
    let ops_per_s = ops as f64 / start.elapsed().as_secs_f64();
    sys::print_steal(host);
    println!(
        "vector_search: {ops} queries in {} calls ({ops_per_cycle} queries per cycle); p50 the \
         mean of the medians and p99 the median of the p99s of {} windows of {WINDOW} calls",
        latencies.len(),
        (latencies.len() / WINDOW).max(1)
    );
    let (p50_ms, p99_ms) = call_latencies(&latencies, WINDOW);
    outcome.set("setup_s", median(&setups));
    outcome.set("ops_per_s", ops_per_s);
    outcome.set("p50_ms", p50_ms);
    outcome.set("p99_ms", p99_ms);
    // One caller querying back to back has no queue: the highest rate it sustains is its
    // completion rate.
    outcome.set("max_rate_rps", ops_per_s);
    outcome.set(
        "peak_rss_mb",
        sys::peak_rss_mib(None).ok_or("cannot read VmHWM")?,
    );
    Ok(outcome)
}

fn traced(
    options: &Options,
    mut inputs: Inputs,
    references: &[Answer],
    mut tracer: Tracer,
    mut outcome: Outcome,
) -> Result<Outcome, String> {
    let policy = ExecPolicy::default();
    let ops_per_cycle: u64 = cycle().iter().map(|item| item.ops()).sum();
    let mut engine = KnnEngine::new();
    let mut op = 0;
    let counts = run_cycle(
        &mut engine,
        &mut inputs,
        &policy,
        references,
        None,
        &mut op,
        &mut outcome,
    );
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < options.run {
        let cycle_start = Instant::now();
        let plain = run_cycle(
            &mut engine,
            &mut inputs,
            &policy,
            references,
            None,
            &mut op,
            &mut outcome,
        );
        untraced.push(ms(cycle_start.elapsed()));
        let cycle_start = Instant::now();
        let seen = run_cycle(
            &mut engine,
            &mut inputs,
            &policy,
            references,
            Some(&mut tracer),
            &mut op,
            &mut outcome,
        );
        traced.push(ms(cycle_start.elapsed()));
        outcome.check(
            plain == counts && seen == counts,
            "a schedule cycle's counts differ from the first cycle's",
        );
    }
    let cycle_ms = median(&untraced);
    println!(
        "vector_search: {} untraced and {} traced cycles of {ops_per_cycle} queries",
        untraced.len(),
        traced.len()
    );
    outcome.set("trace.overhead_frac", median(&traced) / cycle_ms - 1.0);
    outcome.set(
        "rtunit.bvh_build_ms",
        median(&tracer.durations_ms("rtunit.bvh_build")),
    );
    outcome.set(
        "rtunit.distances_ms",
        median(&tracer.durations_ms("rtunit.distances")),
    );
    outcome.set(
        "rtunit.select_k_ms",
        median(&tracer.durations_ms("rtunit.select_k")),
    );
    outcome.set(
        "rtunit.radius_ms",
        median(&tracer.durations_ms("rtunit.radius")),
    );
    let radius_queries = (RADIUS_BATCH * KNN_QUERIES / 2) as f64;
    outcome.set(
        "rtunit.scored_fraction",
        counts.scored as f64 / (radius_queries * CLOUD_POINTS as f64),
    );
    counts.mix.report(ops_per_cycle, &mut outcome);
    outcome.set(
        "core.host_ns_per_beat",
        cycle_ms * 1e6 / counts.mix.total_beats().max(1) as f64,
    );
    kernel_ns_per_beat(policy.effective_simd_lanes(), &mut tracer, &mut outcome);

    // Determinism: fresh engines on the same seed repeat every count; another seed's inputs
    // change them.
    let mut scratch = Outcome::default();
    let mut fresh = self::inputs(options.seed, &mut Tracer::new(Instant::now(), 0));
    let again = run_cycle(
        &mut KnnEngine::new(),
        &mut fresh,
        &policy,
        references,
        None,
        &mut 0,
        &mut scratch,
    );
    outcome.check(
        again == counts,
        "counts differ between two engines on one seed",
    );
    let mut other = self::inputs(
        options.seed ^ 0x5eed_5eed_5eed_5eed,
        &mut Tracer::new(Instant::now(), 0),
    );
    let other_counts = run_cycle(
        &mut KnnEngine::new(),
        &mut other,
        &policy,
        references,
        None,
        &mut 0,
        &mut scratch,
    );
    outcome.check(
        other_counts != counts,
        "a different seed left every count unchanged",
    );

    trace::save(&tracer, &options.trace_dir, "vector_search", options.seed)?;
    Ok(outcome)
}
