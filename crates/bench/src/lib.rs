//! # rayflex-bench
//!
//! Experiment runners that regenerate every figure of the RayFlex paper's evaluation, shared by
//! the `cargo bench` harnesses and the workspace integration tests.
//!
//! | Paper artefact | Runner | Bench target |
//! |---|---|---|
//! | Fig. 7 (area vs clock, 4 configs) | [`fig7_area_table`] | `fig7_area` |
//! | Fig. 8 (power per op mode at 1 GHz) | [`fig8_power_table`] | `fig8_power` |
//! | Fig. 9 (ray-triangle power vs clock) | [`fig9_power_frequency_table`] | `fig9_power_freq` |
//! | Fig. 4c / §IV-B (stage map, 125 ops/cycle, Turing comparison, latency/II) | [`fig4c_pipeline_report`] | `fig4c_pipeline_map` |
//! | §IV-A validation (20 directed + random equivalence) | [`validation_report`] | `validation_suite` |
//! | §VII-B squarer ablation | [`ablation_squarer_table`] | `ablation_squarer` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use rayflex_core::activity::full_throughput_trace;
use rayflex_core::inventory::build_inventory;
use rayflex_core::validation;
use rayflex_core::{
    Opcode, PipelineConfig, RayFlexDatapath, RayFlexPipeline, RayFlexRequest, PIPELINE_DEPTH,
};
use rayflex_geometry::golden;
use rayflex_geometry::sampling;
use rayflex_hw::FuKind;
use rayflex_synth::report::{with_delta, Table};
use rayflex_synth::{estimate_area, estimate_power, CellLibrary};
use rayflex_workloads::stimulus;

/// The clock frequencies (MHz) swept by the paper's Fig. 7 and Fig. 9.
pub const CLOCK_SWEEP_MHZ: [f64; 5] = [500.0, 750.0, 1000.0, 1250.0, 1500.0];

/// Number of random beats used per operating mode for power stimulus (the paper uses 100-case
/// VCD testbenches; the analytical model converges with the same count).
pub const POWER_STIMULUS_BEATS: u64 = 100;

/// Regenerates the paper's Fig. 7: circuit area versus target clock frequency for the four
/// configurations, decomposed into the four area categories, with deltas against
/// baseline-unified at the same clock.
#[must_use]
pub fn fig7_area_table() -> String {
    let library = CellLibrary::freepdk15();
    let mut table = Table::new(vec![
        "clock (MHz)",
        "configuration",
        "sequential (um^2)",
        "inverter (um^2)",
        "buffer (um^2)",
        "logic (um^2)",
        "total (um^2)",
        "vs baseline-unified",
    ]);
    for &clock in &CLOCK_SWEEP_MHZ {
        let baseline = estimate_area(
            &build_inventory(&PipelineConfig::baseline_unified()),
            clock,
            &library,
        );
        for config in PipelineConfig::evaluated_configs() {
            let area = estimate_area(&build_inventory(&config), clock, &library);
            table.add_row(vec![
                format!("{clock:.0}"),
                config.name(),
                format!("{:.0}", area.sequential),
                format!("{:.0}", area.inverter),
                format!("{:.0}", area.buffer),
                format!("{:.0}", area.logic),
                format!("{:.0}", area.total()),
                format!("{:+.1}%", area.overhead_vs(&baseline) * 100.0),
            ]);
        }
    }
    format!(
        "Fig. 7 — circuit area vs target clock frequency\n{}\nHeadline overheads at 1000 MHz: {}\n",
        table.render(),
        fig7_headline_summary()
    )
}

/// The headline overhead sentence of Fig. 7 (disjoint / extended / both, at 1 GHz).
#[must_use]
pub fn fig7_headline_summary() -> String {
    let library = CellLibrary::freepdk15();
    let area =
        |config: PipelineConfig| estimate_area(&build_inventory(&config), 1000.0, &library).total();
    let base_uni = area(PipelineConfig::baseline_unified());
    let base_dis = area(PipelineConfig::baseline_disjoint());
    let ext_uni = area(PipelineConfig::extended_unified());
    let ext_dis = area(PipelineConfig::extended_disjoint());
    format!(
        "disjoint {:+.1}% (paper +13%), extended {:+.1}% (paper +36%), both {:+.1}% (paper +92%), both-vs-baseline-disjoint {:+.1}% (paper +70%)",
        (base_dis / base_uni - 1.0) * 100.0,
        (ext_uni / base_uni - 1.0) * 100.0,
        (ext_dis / base_uni - 1.0) * 100.0,
        (ext_dis / base_dis - 1.0) * 100.0,
    )
}

/// Regenerates the paper's Fig. 8: total power per operating mode at full throughput, 1 GHz, for
/// the four configurations.
#[must_use]
pub fn fig8_power_table() -> String {
    let library = CellLibrary::freepdk15();
    let mut table = Table::new(vec![
        "configuration",
        "operation",
        "dynamic (mW)",
        "static (mW)",
        "total (mW)",
        "vs baseline-unified",
    ]);
    for config in PipelineConfig::evaluated_configs() {
        let inventory = build_inventory(&config);
        for opcode in Opcode::ALL {
            if !config.supports(opcode) {
                continue;
            }
            let trace = full_throughput_trace(opcode, &config, POWER_STIMULUS_BEATS);
            let power = estimate_power(&inventory, &trace, 1000.0, &library);
            let delta = if opcode.requires_extended() {
                "n/a".to_string()
            } else {
                let base_config = PipelineConfig::baseline_unified();
                let base_trace = full_throughput_trace(opcode, &base_config, POWER_STIMULUS_BEATS);
                let reference = estimate_power(
                    &build_inventory(&base_config),
                    &base_trace,
                    1000.0,
                    &library,
                );
                format!("{:+.1}%", power.overhead_vs(&reference) * 100.0)
            };
            table.add_row(vec![
                config.name(),
                opcode.name().to_string(),
                format!("{:.1}", power.dynamic_mw),
                format!("{:.2}", power.static_mw),
                format!("{:.1}", power.total_mw()),
                delta,
            ]);
        }
    }
    format!(
        "Fig. 8 — power per operating mode at full throughput (1000 MHz, {} random beats)\n{}",
        POWER_STIMULUS_BEATS,
        table.render()
    )
}

/// Regenerates the paper's Fig. 9: ray-triangle power versus target clock frequency for the four
/// configurations.
#[must_use]
pub fn fig9_power_frequency_table() -> String {
    let library = CellLibrary::freepdk15();
    let mut table = Table::new(vec![
        "clock (MHz)",
        "baseline-unified (mW)",
        "baseline-disjoint (mW)",
        "extended-unified (mW)",
        "extended-disjoint (mW)",
        "extended/baseline (unified)",
    ]);
    for &clock in &CLOCK_SWEEP_MHZ {
        let mut row = vec![format!("{clock:.0}")];
        let mut totals = Vec::new();
        for config in PipelineConfig::evaluated_configs() {
            let trace = full_throughput_trace(Opcode::RayTriangle, &config, POWER_STIMULUS_BEATS);
            let power = estimate_power(&build_inventory(&config), &trace, clock, &library);
            totals.push(power.total_mw());
            row.push(format!("{:.1}", power.total_mw()));
        }
        row.push(format!("{:+.1}%", (totals[2] / totals[0] - 1.0) * 100.0));
        table.add_row(row);
    }
    format!(
        "Fig. 9 — ray-triangle power vs target clock frequency\n{}",
        table.render()
    )
}

/// Regenerates Fig. 4c plus the §IV-B accounting: the stage-by-stage hardware map, the measured
/// pipeline latency and initiation interval, the 125 ops/cycle peak and the Quadro RTX 6000
/// comparison.
#[must_use]
pub fn fig4c_pipeline_report() -> String {
    let config = PipelineConfig::baseline_unified();
    let inventory = build_inventory(&config);
    let mut table = Table::new(vec!["stage", "hardware assets", "register bits"]);
    for (index, stage) in inventory.stages().iter().enumerate() {
        let assets: Vec<String> = stage
            .fus()
            .filter(|(kind, _)| *kind != FuKind::OperandMux)
            .map(|(kind, count)| format!("{count} {kind}"))
            .collect();
        table.add_row(vec![
            format!("{}", index + 1),
            if assets.is_empty() {
                "(pass-through)".to_string()
            } else {
                assets.join(", ")
            },
            stage.register_bits().to_string(),
        ]);
    }

    // Measured latency and initiation interval from the cycle-accurate pipeline.
    let mut pipeline = RayFlexPipeline::new(config);
    let ray = rayflex_geometry::Ray::new(
        rayflex_geometry::Vec3::new(0.0, 0.0, -5.0),
        rayflex_geometry::Vec3::new(0.0, 0.0, 1.0),
    );
    let boxes = [rayflex_geometry::Aabb::new(
        rayflex_geometry::Vec3::splat(-1.0),
        rayflex_geometry::Vec3::splat(1.0),
    ); 4];
    let beats: Vec<RayFlexRequest> = (0..64)
        .map(|i| RayFlexRequest::ray_box(i, &ray, &boxes))
        .collect();
    let responses = pipeline.execute_batch(&beats);
    let stats = pipeline.stats();
    let latency = PIPELINE_DEPTH;
    let initiation_interval = if stats.issued > 1 {
        (stats.cycles - latency as u64) as f64 / stats.issued as f64
    } else {
        1.0
    };

    // §IV-B: Quadro RTX 6000 back-of-the-envelope comparison.
    let peak_ops = inventory.peak_ops_per_cycle();
    let turing_ops_per_rt_unit_per_cycle = 100e12 / 72.0 / 1455e6;
    let equivalent_datapaths = turing_ops_per_rt_unit_per_cycle / f64::from(peak_ops);

    format!(
        "Fig. 4c — pipeline stage map ({})\n{}\n\
         Measured latency: {} cycles (fixed), initiation interval: {:.3} cycles/beat, {} beats completed.\n\
         Peak throughput accounting (§IV-B): {} elementary FP ops/cycle (paper: 125).\n\
         NVIDIA Turing comparison: 100 Tops / 72 RT units / 1455 MHz = {:.0} ops/cycle per RT unit,\n\
         so one RT unit is equivalent to about {:.1} RayFlex datapaths (paper: about 7.6).\n",
        config.name(),
        table.render(),
        latency,
        initiation_interval,
        responses.len(),
        peak_ops,
        turing_ops_per_rt_unit_per_cycle,
        equivalent_datapaths,
    )
}

/// Summary of the §IV-A functional validation: the twenty directed cases plus `random_cases`
/// random beats per operation compared bit-exactly against the golden software models.
#[must_use]
pub fn validation_report(random_cases: usize) -> String {
    let directed = validation::run_directed_suite(PipelineConfig::extended_unified());
    let equivalence = random_equivalence_counts(random_cases, 2024);
    let mut table = Table::new(vec!["suite", "cases", "mismatches"]);
    table.add_row(vec![
        "directed ray-box (9) + ray-triangle (11)".to_string(),
        directed.outcomes.len().to_string(),
        directed.failed().to_string(),
    ]);
    table.add_row(vec![
        "random ray-box vs golden slab".to_string(),
        equivalence.box_cases.to_string(),
        equivalence.box_mismatches.to_string(),
    ]);
    table.add_row(vec![
        "random ray-triangle vs golden watertight".to_string(),
        equivalence.triangle_cases.to_string(),
        equivalence.triangle_mismatches.to_string(),
    ]);
    table.add_row(vec![
        "random euclidean/cosine vs golden reductions".to_string(),
        equivalence.distance_cases.to_string(),
        equivalence.distance_mismatches.to_string(),
    ]);
    format!(
        "§IV-A functional validation (directed + random, golden-model equivalence)\n{}\nall green: {}\n",
        table.render(),
        directed.all_green() && equivalence.total_mismatches() == 0
    )
}

/// Counts of the random golden-equivalence sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EquivalenceCounts {
    /// Random ray-box beats checked (each covering four boxes).
    pub box_cases: usize,
    /// Ray-box mismatches against the golden model.
    pub box_mismatches: usize,
    /// Random ray-triangle beats checked.
    pub triangle_cases: usize,
    /// Ray-triangle mismatches.
    pub triangle_mismatches: usize,
    /// Random distance beats checked (Euclidean + cosine).
    pub distance_cases: usize,
    /// Distance mismatches.
    pub distance_mismatches: usize,
}

impl EquivalenceCounts {
    /// Total mismatches across all operations.
    #[must_use]
    pub fn total_mismatches(&self) -> usize {
        self.box_mismatches + self.triangle_mismatches + self.distance_mismatches
    }
}

/// Runs the random hardware-vs-golden equivalence sweep used by the validation harness.
#[must_use]
pub fn random_equivalence_counts(cases: usize, seed: u64) -> EquivalenceCounts {
    let mut counts = EquivalenceCounts::default();
    let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());

    for s in stimulus::ray_box_stimuli(seed, cases) {
        counts.box_cases += 1;
        let response = datapath.execute(&RayFlexRequest::ray_box(0, &s.ray, &s.boxes));
        let result = response.box_result.expect("box beat");
        for (i, aabb) in s.boxes.iter().enumerate() {
            let gold = golden::slab::ray_box(&s.ray, aabb);
            let distance_matches =
                !gold.hit || result.t_entry[i].to_bits() == gold.t_entry.to_bits();
            if result.hit[i] != gold.hit || !distance_matches {
                counts.box_mismatches += 1;
            }
        }
    }

    for s in stimulus::ray_triangle_stimuli(seed.wrapping_add(1), cases) {
        counts.triangle_cases += 1;
        let response = datapath.execute(&RayFlexRequest::ray_triangle(0, &s.ray, &s.triangle));
        let result = response.triangle_result.expect("triangle beat");
        let gold = golden::watertight::ray_triangle(&s.ray, &s.triangle);
        if result.hit != gold.hit
            || result.t_num.to_bits() != gold.t_num.to_bits()
            || result.det.to_bits() != gold.det.to_bits()
        {
            counts.triangle_mismatches += 1;
        }
    }

    for (i, s) in stimulus::distance_stimuli(seed.wrapping_add(2), cases)
        .iter()
        .enumerate()
    {
        counts.distance_cases += 1;
        // Alternate Euclidean and cosine beats, always resetting so each beat stands alone.
        if i % 2 == 0 {
            let response = datapath.execute(&RayFlexRequest::euclidean(0, s.a, s.b, s.mask, true));
            let got = response
                .distance_result
                .expect("euclidean beat")
                .euclidean_accumulator;
            let gold = golden::distance::euclidean_partial(&s.a, &s.b, s.mask);
            if got.to_bits() != gold.to_bits() {
                counts.distance_mismatches += 1;
            }
        } else {
            let a: [f32; 8] = core::array::from_fn(|k| s.a[k]);
            let b: [f32; 8] = core::array::from_fn(|k| s.b[k]);
            let mask = (s.mask & 0xFF) as u8;
            let response = datapath.execute(&RayFlexRequest::cosine(0, a, b, mask, true));
            let result = response.distance_result.expect("cosine beat");
            let gold = golden::distance::cosine_partial(&a, &b, mask);
            if result.angular_dot_product.to_bits() != gold.dot.to_bits()
                || result.angular_norm.to_bits() != gold.norm_sq.to_bits()
            {
                counts.distance_mismatches += 1;
            }
        }
    }
    counts
}

/// Regenerates the §VII-B squarer-specialisation ablation: Euclidean/cosine power on the disjoint
/// design with and without the stage-3 perturbation.
#[must_use]
pub fn ablation_squarer_table() -> String {
    let library = CellLibrary::freepdk15();
    let mut table = Table::new(vec![
        "operation",
        "extended-unified (mW)",
        "extended-disjoint (mW)",
        "extended-disjoint-perturbed (mW)",
    ]);
    for opcode in [Opcode::Euclidean, Opcode::Cosine] {
        let unified = PipelineConfig::extended_unified();
        let disjoint = PipelineConfig::extended_disjoint();
        let perturbed = disjoint.with_squarer_perturbation(true);
        let power = |config: &PipelineConfig| {
            let trace = full_throughput_trace(opcode, config, POWER_STIMULUS_BEATS);
            estimate_power(&build_inventory(config), &trace, 1000.0, &library).total_mw()
        };
        let base = power(&unified);
        table.add_row(vec![
            opcode.name().to_string(),
            format!("{base:.1}"),
            with_delta(power(&disjoint), base),
            with_delta(power(&perturbed), base),
        ]);
    }
    format!(
        "§VII-B ablation — multiplier-to-squarer specialisation in the disjoint design\n\
         (paper: Euclidean -9%, cosine -3%; perturbing stage 3 removes the saving)\n{}",
        table.render()
    )
}

/// A deterministic random ray-box request batch (the batched-vs-per-beat end-to-end check).
#[must_use]
pub fn random_ray_box_requests(count: usize, seed: u64) -> Vec<RayFlexRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds = sampling::default_bounds();
    (0..count)
        .map(|i| {
            let ray = sampling::ray_in_box(&mut rng, &bounds);
            let boxes = core::array::from_fn(|_| sampling::aabb_in_box(&mut rng, &bounds));
            RayFlexRequest::ray_box(i as u64, &ray, &boxes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_tables_render_with_the_expected_rows() {
        let fig7 = fig7_area_table();
        assert!(fig7.contains("baseline-unified"));
        assert!(fig7.contains("1500"));
        let fig8 = fig8_power_table();
        assert!(fig8.contains("euclidean"));
        assert!(fig8.contains("ray-triangle"));
        let fig9 = fig9_power_frequency_table();
        assert!(fig9.contains("500") && fig9.contains("1250"));
    }

    #[test]
    fn pipeline_report_contains_the_key_numbers() {
        let report = fig4c_pipeline_report();
        assert!(report.contains("125"));
        assert!(report.contains("Measured latency: 11 cycles"));
    }

    #[test]
    fn random_equivalence_is_clean() {
        let counts = random_equivalence_counts(200, 7);
        assert_eq!(counts.total_mismatches(), 0);
        assert_eq!(counts.box_cases, 200);
        assert_eq!(counts.triangle_cases, 200);
        assert_eq!(counts.distance_cases, 200);
    }

    #[test]
    fn validation_report_is_green() {
        let report = validation_report(100);
        assert!(report.contains("all green: true"), "{report}");
    }

    #[test]
    fn ablation_table_shows_the_specialisation_saving() {
        let table = ablation_squarer_table();
        assert!(table.contains("euclidean"));
        assert!(table.contains("-"), "disjoint Euclidean power should drop");
    }

    #[test]
    fn request_batches_are_deterministic() {
        assert_eq!(
            random_ray_box_requests(16, 3),
            random_ray_box_requests(16, 3)
        );
        assert_eq!(random_ray_box_requests(16, 3).len(), 16);
    }
}
