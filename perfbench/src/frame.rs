//! The `frame` workload: one op is one `Renderer::render` of a 128×128 deferred frame (primary
//! pass, shadow pass, 4-sample ambient occlusion) of `scenes::lit_scene` at subdivision 5 under
//! `ExecPolicy::default()`.
//!
//! This is the paper's traversal path under the policy users get by default.  Camera-coherent
//! primary and shadow rays mix with incoherent AO probes, so the coherence layer's sorting and
//! compaction show both their cost and their gain.  It never touches the distance opcodes or
//! the server.

use std::time::Instant;

use rayflex_geometry::Vec3;
use rayflex_rtunit::{
    Camera, ExecPolicy, FrameDesc, Image, RenderPasses, Renderer, Scene, TraversalStats,
};
use rayflex_workloads::scenes;

use crate::kernel::{kernel_ns_per_beat, MixDelta};
use crate::stats::{call_latencies, median, ms, SplitMix};
use crate::trace::{self, Tracer};
use crate::{sys, Options, Outcome};

const SUBDIVISIONS: u32 = 5;
const EXTENT: f32 = 10.0;
const WIDTH: usize = 128;
const HEIGHT: usize = 128;
const AO_SAMPLES: usize = 4;
const AO_RADIUS: f32 = 2.0;
/// Frames per latency window: `p50_ms` is the mean over windows of each window's median and
/// `p99_ms` the median over windows of each window's p99 (see [`call_latencies`]).
const WINDOW: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Largest share by which the traced pass increments may miss the untraced full-frame time
/// before the run flags its pass split as untrustworthy.
const CLOSURE_TOLERANCE: f64 = 0.10;

/// The three frame shapes of the traced run: each adds one pass to the previous one.
struct Frames {
    primary: FrameDesc,
    shadowed: FrameDesc,
    full: FrameDesc,
}

/// The seed places the camera, its target and the point light, and seeds the AO probes.
fn frames(seed: u64, lit: &scenes::LitScene) -> Frames {
    let mut rng = SplitMix::new(seed);
    let mut jitter = |scale: f32| {
        Vec3::new(
            rng.signed_unit() * scale,
            rng.signed_unit() * scale * 0.5,
            rng.signed_unit() * scale,
        )
    };
    // Small offsets: every seed changes the inputs and the counts while the work per frame
    // stays within about 1% across seeds.
    let camera = Camera::looking_at(lit.eye + jitter(0.05), lit.target + jitter(0.05));
    let light = lit.light + jitter(0.05);
    let shadowed = RenderPasses::shadowed(light);
    let full = shadowed.with_ambient_occlusion(AO_SAMPLES, AO_RADIUS, rng.next_u64());
    Frames {
        primary: FrameDesc::primary(camera, WIDTH, HEIGHT),
        shadowed: FrameDesc::deferred(camera, WIDTH, HEIGHT, shadowed),
        full: FrameDesc::deferred(camera, WIDTH, HEIGHT, full),
    }
}

/// Builds the scene `SETUP_REPEATS` times; returns the last scene, the median set-up time and
/// the median BVH build time.
fn setup(tracer: &mut Tracer) -> (scenes::LitScene, Scene, f64, f64) {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let lit = tracer.span("workloads.lit_scene", 0, || {
            scenes::lit_scene(SUBDIVISIONS, EXTENT)
        });
        let scene = tracer.span("rtunit.bvh_build", 0, || Scene::flat(lit.triangles.clone()));
        setups.push(start.elapsed().as_secs_f64());
        built = Some((lit, scene));
    }
    let (lit, scene) = built.expect("at least one set-up");
    let bvh_ms = median(&tracer.durations_ms("rtunit.bvh_build"));
    (lit, scene, median(&setups), bvh_ms)
}

fn same_image(image: &Image, reference: &Image) -> bool {
    image.width() == reference.width()
        && image.height() == reference.height()
        && image.first_mismatch(reference).is_none()
}

/// Traversal-stat and beat-mix deltas of one render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    stats: TraversalStats,
    mix: MixDelta,
}

fn render_counted(
    renderer: &mut Renderer,
    scene: &Scene,
    frame: &FrameDesc,
    policy: &ExecPolicy,
) -> (Image, Counts) {
    let stats_before = renderer.stats();
    let mix_before = renderer.beat_mix();
    let image = renderer.render(scene, frame, policy);
    let after = renderer.stats();
    let stats = TraversalStats {
        box_ops: after.box_ops - stats_before.box_ops,
        triangle_ops: after.triangle_ops - stats_before.triangle_ops,
        nodes_visited: after.nodes_visited - stats_before.nodes_visited,
        leaves_visited: after.leaves_visited - stats_before.leaves_visited,
        rays: after.rays - stats_before.rays,
        tlas_box_ops: after.tlas_box_ops - stats_before.tlas_box_ops,
        instances_visited: after.instances_visited - stats_before.instances_visited,
        shard_fallbacks: after.shard_fallbacks - stats_before.shard_fallbacks,
    };
    let mix = MixDelta::between(&mix_before, &renderer.beat_mix());
    (image, Counts { stats, mix })
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0);
    let mut outcome = Outcome::default();
    let (lit, scene, setup_s, bvh_ms) = setup(&mut tracer);
    let frames = frames(options.seed, &lit);
    let policy = ExecPolicy::default();

    let reference = Renderer::new().render(&scene, &frames.full, &ExecPolicy::scalar());
    if options.traced {
        traced(
            options,
            &scene,
            &lit,
            &frames,
            &reference,
            bvh_ms,
            &mut tracer,
            &mut outcome,
        )?;
        return Ok(outcome);
    }

    sys::reset_peak_rss()?;
    let mut renderer = Renderer::new();
    renderer.render(&scene, &frames.full, &policy);
    let mut latencies = Vec::new();
    let host = sys::CpuTimes::now();
    let start = Instant::now();
    while start.elapsed() < options.run {
        let op_start = Instant::now();
        let image = renderer.render(&scene, &frames.full, &policy);
        latencies.push(ms(op_start.elapsed()));
        outcome.attempted += 1;
        if !same_image(&image, &reference) {
            outcome.failed += 1;
        }
    }
    let ops_per_s = latencies.len() as f64 / start.elapsed().as_secs_f64();
    sys::print_steal(host);
    println!(
        "frame: {} frames of {WIDTH}x{HEIGHT} over {} triangles; p50 the mean of the medians \
         and p99 the median of the p99s of {} windows of {WINDOW} frames",
        latencies.len(),
        lit.triangles.len(),
        (latencies.len() / WINDOW).max(1)
    );
    let (p50_ms, p99_ms) = call_latencies(&latencies, WINDOW);
    outcome.set("setup_s", setup_s);
    outcome.set("ops_per_s", ops_per_s);
    outcome.set("p50_ms", p50_ms);
    outcome.set("p99_ms", p99_ms);
    // One caller rendering back to back has no queue: the highest rate it sustains is its
    // completion rate.
    outcome.set("max_rate_rps", ops_per_s);
    outcome.set(
        "peak_rss_mb",
        sys::peak_rss_mib(None).ok_or("cannot read VmHWM")?,
    );
    Ok(outcome)
}

#[allow(clippy::too_many_arguments)]
fn traced(
    options: &Options,
    scene: &Scene,
    lit: &scenes::LitScene,
    frames: &Frames,
    reference: &Image,
    bvh_ms: f64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let policy = ExecPolicy::default();
    let mut renderer = Renderer::new();
    let (_, counts) = render_counted(&mut renderer, scene, &frames.full, &policy);
    // The primary-only and shadowed frames are checked against their own first render; the
    // full frame against the scalar reference.
    let primary_reference = renderer.render(scene, &frames.primary, &policy);
    let shadowed_reference = renderer.render(scene, &frames.shadowed, &policy);

    let mut untraced = Vec::new();
    let (mut primary, mut shadow, mut ao, mut traced_full) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed() < options.run {
        let op_start = Instant::now();
        let image = renderer.render(scene, &frames.full, &policy);
        untraced.push(ms(op_start.elapsed()));

        let span = tracer.begin("frame.op", op);
        let ((full_image, full_counts), f) = tracer.timed("rtunit.render.full", op, || {
            render_counted(&mut renderer, scene, &frames.full, &policy)
        });
        let (primary_image, p) = tracer.timed("rtunit.render.primary_only", op, || {
            renderer.render(scene, &frames.primary, &policy)
        });
        let (shadowed_image, s) = tracer.timed("rtunit.render.shadowed", op, || {
            renderer.render(scene, &frames.shadowed, &policy)
        });
        tracer.end(span);

        primary.push(p);
        shadow.push(s - p);
        ao.push(f - s);
        traced_full.push(f);

        outcome.attempted += 4;
        outcome.failed += [
            same_image(&image, reference),
            same_image(&full_image, reference),
            same_image(&primary_image, &primary_reference),
            same_image(&shadowed_image, &shadowed_reference),
        ]
        .iter()
        .filter(|ok| !**ok)
        .count() as u64;
        outcome.check(
            full_counts == counts,
            format!("frame {op}: counts differ from the first frame of the same input"),
        );
        op += 1;
    }

    let full_ms = median(&untraced);
    let passes = [median(&primary), median(&shadow), median(&ao)];
    let residual = (full_ms - passes.iter().sum::<f64>()) / full_ms;
    println!(
        "closure: primary {:.3} + shadow {:.3} + ao {:.3} ms vs untraced full frame {full_ms:.3} \
         ms over {op} frames each; residual {residual:+.4} (tolerance ±{CLOSURE_TOLERANCE})",
        passes[0], passes[1], passes[2]
    );
    if residual.abs() > CLOSURE_TOLERANCE {
        println!(
            "FLAG closure: the pass increments miss the full frame by {residual:+.4}, more than \
             ±{CLOSURE_TOLERANCE}; the host was too noisy for the split to be trusted"
        );
    }
    outcome.set("closure.frame_residual_frac", residual);
    outcome.set("trace.overhead_frac", median(&traced_full) / full_ms - 1.0);
    outcome.set("rtunit.bvh_build_ms", bvh_ms);
    outcome.set("rtunit.primary_ms", passes[0]);
    outcome.set("rtunit.shadow_ms", passes[1]);
    outcome.set("rtunit.ao_ms", passes[2]);
    outcome.set("rtunit.rays_per_op", counts.stats.rays as f64);
    outcome.set("rtunit.box_ops_per_op", counts.stats.box_ops as f64);
    outcome.set(
        "rtunit.triangle_ops_per_op",
        counts.stats.triangle_ops as f64,
    );
    outcome.set(
        "rtunit.nodes_visited_per_op",
        counts.stats.nodes_visited as f64,
    );
    counts.mix.report(1, outcome);
    outcome.set(
        "core.host_ns_per_beat",
        full_ms * 1e6 / counts.mix.total_beats().max(1) as f64,
    );
    kernel_ns_per_beat(policy.effective_simd_lanes(), tracer, outcome);

    // Determinism: a fresh renderer on the same seed repeats every count; another seed's
    // inputs change them.
    let (_, again) = render_counted(&mut Renderer::new(), scene, &frames.full, &policy);
    outcome.check(
        again == counts,
        "counts differ between two renderers on one seed",
    );
    let other = self::frames(options.seed ^ 0x5eed_5eed_5eed_5eed, lit);
    let (_, other_counts) = render_counted(&mut Renderer::new(), scene, &other.full, &policy);
    outcome.check(
        other_counts != counts,
        "a different seed left every count unchanged",
    );

    trace::save(tracer, &options.trace_dir, "frame", options.seed)?;
    Ok(())
}
