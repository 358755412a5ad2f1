//! The `core` layer: beat-mix counters read around an op, and the kernel-issue timing of
//! `RayFlexDatapath::execute_batch` on fixed beat batches.

use std::hint::black_box;

use rayflex_core::{BeatMix, Opcode, PipelineConfig, RayFlexDatapath, RayFlexRequest};
use rayflex_workloads::stimulus;

use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;

/// Beats per fixed kernel batch, and how many times each batch is issued.
const KERNEL_BATCH_BEATS: usize = 4096;
const KERNEL_REPEATS: usize = 200;

/// Counter differences of a [`BeatMix`] across some ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixDelta {
    pub beats: [u64; 4],
    pub passes: u64,
    pub fused_passes: u64,
    pub lane_slots: u64,
    pub lanes_busy: u64,
}

const OPCODES: [Opcode; 4] = [
    Opcode::RayBox,
    Opcode::RayTriangle,
    Opcode::Euclidean,
    Opcode::Cosine,
];

impl MixDelta {
    pub fn between(before: &BeatMix, after: &BeatMix) -> Self {
        MixDelta {
            beats: OPCODES.map(|opcode| after.count(opcode) - before.count(opcode)),
            passes: after.passes() - before.passes(),
            fused_passes: after.fused_passes() - before.fused_passes(),
            lane_slots: after.simd_lane_slots() - before.simd_lane_slots(),
            lanes_busy: after.simd_lanes_busy() - before.simd_lanes_busy(),
        }
    }

    pub fn add(&mut self, other: &MixDelta) {
        for (total, beats) in self.beats.iter_mut().zip(other.beats) {
            *total += beats;
        }
        self.passes += other.passes;
        self.fused_passes += other.fused_passes;
        self.lane_slots += other.lane_slots;
        self.lanes_busy += other.lanes_busy;
    }

    pub fn total_beats(&self) -> u64 {
        self.beats.iter().sum()
    }

    /// Sets the `core.*` count metrics and the modeled lane metrics for `ops` ops.
    pub fn report(&self, ops: u64, outcome: &mut Outcome) {
        let per_op = |count: u64| count as f64 / ops.max(1) as f64;
        outcome.set("core.beats_per_op.ray_box", per_op(self.beats[0]));
        outcome.set("core.beats_per_op.ray_triangle", per_op(self.beats[1]));
        outcome.set("core.beats_per_op.euclidean", per_op(self.beats[2]));
        outcome.set("core.beats_per_op.cosine", per_op(self.beats[3]));
        outcome.set("core.passes_per_op", per_op(self.passes));
        outcome.set("core.fused_passes_per_op", per_op(self.fused_passes));
        outcome.set(
            "modeled.lane_occupancy",
            self.lanes_busy as f64 / self.lane_slots.max(1) as f64,
        );
        outcome.set("modeled.lane_slots_per_op", per_op(self.lane_slots));
    }
}

fn beat_batch(opcode: Opcode) -> Vec<RayFlexRequest> {
    const SEED: u64 = 0x6b65_726e;
    match opcode {
        Opcode::RayBox => stimulus::ray_box_stimuli(SEED, KERNEL_BATCH_BEATS)
            .iter()
            .enumerate()
            .map(|(tag, s)| RayFlexRequest::ray_box(tag as u64, &s.ray, &s.boxes))
            .collect(),
        Opcode::RayTriangle => stimulus::ray_triangle_stimuli(SEED, KERNEL_BATCH_BEATS)
            .iter()
            .enumerate()
            .map(|(tag, s)| RayFlexRequest::ray_triangle(tag as u64, &s.ray, &s.triangle))
            .collect(),
        Opcode::Euclidean => stimulus::distance_stimuli(SEED, KERNEL_BATCH_BEATS)
            .iter()
            .enumerate()
            .map(|(tag, s)| RayFlexRequest::euclidean(tag as u64, s.a, s.b, s.mask, s.reset))
            .collect(),
        Opcode::Cosine => stimulus::distance_stimuli(SEED, KERNEL_BATCH_BEATS)
            .iter()
            .enumerate()
            .map(|(tag, s)| {
                let low = |lanes: &[f32; 16]| core::array::from_fn(|i| lanes[i]);
                RayFlexRequest::cosine(tag as u64, low(&s.a), low(&s.b), s.mask as u8, s.reset)
            })
            .collect(),
    }
}

/// Times `execute_batch` on a fixed batch of each opcode at the given SIMD lane width and sets
/// `core.kernel_ns_per_beat.*` to the median host time per beat.  Separates kernel issue from
/// the schedulers that build passes around it.
pub fn kernel_ns_per_beat(lanes: usize, tracer: &mut Tracer, outcome: &mut Outcome) {
    let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
    datapath.set_simd_lanes(lanes);
    for (opcode, metric, span) in [
        (
            Opcode::RayBox,
            "core.kernel_ns_per_beat.ray_box",
            "core.kernel.ray_box",
        ),
        (
            Opcode::RayTriangle,
            "core.kernel_ns_per_beat.ray_triangle",
            "core.kernel.ray_triangle",
        ),
        (
            Opcode::Euclidean,
            "core.kernel_ns_per_beat.euclidean",
            "core.kernel.euclidean",
        ),
        (
            Opcode::Cosine,
            "core.kernel_ns_per_beat.cosine",
            "core.kernel.cosine",
        ),
    ] {
        let batch = beat_batch(opcode);
        black_box(datapath.execute_batch(&batch));
        for _ in 0..KERNEL_REPEATS {
            let responses = tracer.span(span, 0, || datapath.execute_batch(black_box(&batch)));
            black_box(responses);
        }
        let per_beat: Vec<f64> = tracer
            .durations_us(span)
            .iter()
            .map(|us| us * 1e3 / KERNEL_BATCH_BEATS as f64)
            .collect();
        outcome.set(metric, median(&per_beat));
    }
}
