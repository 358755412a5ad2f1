//! Ray-stream generators: deterministic camera, shadow, ambient-occlusion and random ray batches
//! for the traversal engines and the simulator performance baselines, available as
//! array-of-structures slices or as structure-of-arrays [`RayPacket`]s.
//!
//! The shadow and ambient-occlusion generators produce **finite-extent** rays for the any-hit
//! query: a shadow ray spans surface point to light (hit ⇒ the point is in shadow), an AO ray
//! spans a short hemisphere probe (hit ⇒ nearby geometry occludes ambient light).  Both offset
//! their extents by a small epsilon so a ray never reports its own originating surface.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rayflex_geometry::{sampling, Aabb, Ray, RayPacket, Vec3};

/// The self-intersection offset applied by the shadow and ambient-occlusion generators.
pub const SHADOW_EPSILON: f32 = 1e-3;

/// A `width` × `height` grid of primary camera rays: origins on the plane `z = 0` spanning
/// `extent` in x/y, all looking down `+z` with a slight deterministic jitter so neighbouring rays
/// do not trace identical paths.
fn camera_grid(width: usize, height: usize, extent: f32) -> Vec<Ray> {
    let count = width.max(1) * height.max(1);
    (0..count)
        .map(|i| {
            let x = (i % width.max(1)) as f32 / width.max(1) as f32 - 0.5;
            let y = (i / width.max(1)) as f32 / height.max(1) as f32 - 0.5;
            let jitter = 1e-3 * ((i % 7) as f32 - 3.0);
            Ray::new(
                Vec3::new(x * extent, y * extent, 0.0),
                Vec3::new(jitter, -jitter, 1.0),
            )
        })
        .collect()
}

/// A `width` × `height` grid of primary camera rays packed into a structure-of-arrays stream:
/// origins on the plane `z = 0` spanning `extent` in x/y, all looking down `+z` with a slight
/// deterministic jitter so neighbouring rays do not trace identical paths.
#[must_use]
pub fn camera_grid_packet(width: usize, height: usize, extent: f32) -> RayPacket {
    RayPacket::from_rays(&camera_grid(width, height, extent))
}

/// `count` random rays with origins inside `bounds` and uniformly random directions
/// (deterministic per seed).
#[must_use]
pub fn random_rays(seed: u64, count: usize, bounds: &Aabb) -> Vec<Ray> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| sampling::ray_in_box(&mut rng, bounds))
        .collect()
}

/// One shadow ray per surface point, aimed at a point light: unit direction toward the light,
/// extent `[SHADOW_EPSILON, distance - SHADOW_EPSILON]`.  An any-hit traversal reporting a hit
/// means the point is occluded from the light.  Points closer to the light than twice the
/// epsilon yield degenerate (empty-extent) rays that can never hit.
#[must_use]
pub fn shadow_rays(points: &[Vec3], light: Vec3) -> Vec<Ray> {
    points
        .iter()
        .map(|&point| {
            let to_light = light - point;
            let distance = to_light.length();
            let dir = if distance > 0.0 {
                to_light / distance
            } else {
                Vec3::new(0.0, 1.0, 0.0)
            };
            Ray::with_extent(point, dir, SHADOW_EPSILON, distance - SHADOW_EPSILON)
        })
        .collect()
}

/// Shadow rays for a `width`×`height` grid of points on the plane `y = plane_y` spanning
/// ±`extent / 2` in x/z, aimed at `light` — the query stream paired with
/// [`crate::scenes::soft_shadow`].
#[must_use]
pub fn floor_shadow_rays(
    width: usize,
    height: usize,
    extent: f32,
    plane_y: f32,
    light: Vec3,
) -> Vec<Ray> {
    let (width, height) = (width.max(1), height.max(1));
    let points: Vec<Vec3> = (0..width * height)
        .map(|i| {
            let x = ((i % width) as f32 / width as f32 - 0.5) * extent;
            let z = ((i / width) as f32 / height as f32 - 0.5) * extent;
            Vec3::new(x, plane_y, z)
        })
        .collect();
    shadow_rays(&points, light)
}

/// One shadow ray per `(point, normal)` surfel, aimed at a point light — the G-buffer pass-2
/// stream of the deferred renderer.  Each origin is nudged off the surface along its normal by
/// [`SHADOW_EPSILON`] (on top of the parametric epsilon applied by [`shadow_rays`]), so grazing
/// lights do not re-intersect the originating surface.  A surfel sitting exactly on the light
/// yields a degenerate (empty-extent) ray that can never report occlusion.
#[must_use]
pub fn surfel_shadow_rays(surfels: &[(Vec3, Vec3)], light: Vec3) -> Vec<Ray> {
    let points: Vec<Vec3> = surfels
        .iter()
        .map(|&(point, normal)| point + normal * SHADOW_EPSILON)
        .collect();
    shadow_rays(&points, light)
}

/// One mirror-reflection bounce ray per `(point, normal)` surfel: the incident direction
/// (normalised) reflected about the surfel normal, `r = d − 2 (d · n) n`, with the origin nudged
/// off the surface along the normal by [`SHADOW_EPSILON`] and a parametric start of the same
/// epsilon — the closest-hit stream of a one-bounce reflection pass.  `incident` carries the
/// direction the surfel was hit from (the primary ray direction of its pixel) and must be as
/// long as `surfels`.
///
/// A degenerate zero-length incident direction yields a ray along the normal instead of a NaN
/// direction, so no bounce ray can poison a frame.
///
/// # Panics
///
/// Panics if `incident` and `surfels` have different lengths.
#[must_use]
pub fn surfel_reflection_rays(surfels: &[(Vec3, Vec3)], incident: &[Vec3]) -> Vec<Ray> {
    assert_eq!(
        surfels.len(),
        incident.len(),
        "one incident direction per surfel"
    );
    surfels
        .iter()
        .zip(incident)
        .map(|(&(point, normal), &incoming)| {
            let length = incoming.length();
            let dir = if length > 0.0 {
                let d = incoming / length;
                d - normal * (2.0 * d.dot(normal))
            } else {
                normal
            };
            Ray::with_extent(
                point + normal * SHADOW_EPSILON,
                dir,
                SHADOW_EPSILON,
                f32::INFINITY,
            )
        })
        .collect()
}

/// `samples_per_point` ambient-occlusion probe rays per `(point, normal)` pair: directions
/// uniformly sampled on the hemisphere around the normal, extent
/// `[SHADOW_EPSILON, max_distance]` (deterministic per seed).  The occluded fraction of a
/// point's probes estimates its ambient occlusion.
#[must_use]
pub fn ambient_occlusion_rays(
    seed: u64,
    surfels: &[(Vec3, Vec3)],
    samples_per_point: usize,
    max_distance: f32,
) -> Vec<Ray> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rays = Vec::with_capacity(surfels.len() * samples_per_point);
    for &(point, normal) in surfels {
        for _ in 0..samples_per_point {
            let mut dir = sampling::unit_direction(&mut rng);
            if dir.dot(normal) < 0.0 {
                dir = -dir;
            }
            rays.push(Ray::with_extent(point, dir, SHADOW_EPSILON, max_distance));
        }
    }
    rays
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn camera_grids_have_the_requested_shape() {
        let rays = camera_grid(16, 9, 12.0);
        assert_eq!(rays.len(), 16 * 9);
        assert!(rays.iter().all(|r| r.dir.z == 1.0));
        assert!(rays.iter().all(|r| r.origin.x.abs() <= 6.0));
        let packet = camera_grid_packet(16, 9, 12.0);
        assert_eq!(packet.to_rays(), rays);
    }

    #[test]
    fn random_streams_are_deterministic_per_seed() {
        let bounds = Aabb::new(Vec3::splat(-10.0), Vec3::splat(10.0));
        assert_eq!(random_rays(7, 32, &bounds), random_rays(7, 32, &bounds));
        assert_ne!(random_rays(7, 32, &bounds), random_rays(8, 32, &bounds));
    }

    #[test]
    fn degenerate_grid_sizes_are_clamped() {
        assert_eq!(camera_grid(0, 0, 1.0).len(), 1);
    }

    #[test]
    fn shadow_rays_span_point_to_light() {
        let light = Vec3::new(0.0, 10.0, 0.0);
        let points = vec![Vec3::new(3.0, 0.0, 4.0), Vec3::new(0.0, 0.0, 0.0), light];
        let rays = shadow_rays(&points, light);
        assert_eq!(rays.len(), 3);
        for (ray, point) in rays.iter().zip(&points) {
            assert_eq!(ray.t_beg, SHADOW_EPSILON);
            assert!((ray.dir.length() - 1.0).abs() < 1e-5 || *point == light);
            // The extent stops short of the light itself.
            let distance = (light - *point).length();
            assert!(ray.t_end <= distance);
        }
        // A point at the light gets a degenerate extent that can never hit.
        assert!(rays[2].t_end < rays[2].t_beg);
    }

    #[test]
    fn floor_shadow_rays_cover_the_floor_grid() {
        let light = Vec3::new(0.0, 12.0, 0.0);
        let rays = floor_shadow_rays(8, 6, 20.0, 0.0, light);
        assert_eq!(rays.len(), 48);
        assert!(rays.iter().all(|r| r.origin.y == 0.0));
        assert!(rays.iter().all(|r| r.origin.x.abs() <= 10.0));
        assert!(rays.iter().all(|r| r.dir.y > 0.0), "all rays aim upward");
        assert_eq!(floor_shadow_rays(0, 0, 20.0, 0.0, light).len(), 1);
    }

    #[test]
    fn surfel_shadow_rays_offset_their_origins_along_the_normal() {
        let light = Vec3::new(0.0, 10.0, 0.0);
        let surfels = vec![
            (Vec3::new(2.0, 0.0, 1.0), Vec3::new(0.0, 1.0, 0.0)),
            (light, Vec3::new(0.0, 1.0, 0.0)),
        ];
        let rays = surfel_shadow_rays(&surfels, light);
        assert_eq!(rays.len(), 2);
        assert_eq!(
            rays[0].origin.y, SHADOW_EPSILON,
            "origin nudged off the surface"
        );
        assert!((rays[0].dir.length() - 1.0).abs() < 1e-5);
        // A surfel on the light: the normal offset leaves a sub-epsilon extent that never hits.
        assert!(
            rays[1].t_end < rays[1].t_beg,
            "degenerate extent can never hit"
        );
    }

    #[test]
    fn reflection_rays_mirror_the_incident_direction() {
        let surfels = vec![
            (Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0)),
            (Vec3::new(3.0, 1.0, 2.0), Vec3::new(1.0, 0.0, 0.0)),
        ];
        // A 45° incident ray in the x/y plane reflects to the mirrored 45° direction.
        let incident = vec![
            Vec3::new(1.0, -1.0, 0.0),
            Vec3::ZERO, // degenerate: falls back to the normal
        ];
        let rays = surfel_reflection_rays(&surfels, &incident);
        assert_eq!(rays.len(), 2);
        let expected = Vec3::new(1.0, 1.0, 0.0).normalized();
        assert!((rays[0].dir - expected).length() < 1e-6);
        assert_eq!(
            rays[0].origin.y, SHADOW_EPSILON,
            "origin nudged off surface"
        );
        assert_eq!(rays[0].t_beg, SHADOW_EPSILON);
        assert_eq!(rays[1].dir, Vec3::new(1.0, 0.0, 0.0));
        assert!(rays.iter().all(|r| r.dir.is_finite()));
    }

    #[test]
    #[should_panic(expected = "one incident direction per surfel")]
    fn reflection_rays_reject_mismatched_lengths() {
        let _ = surfel_reflection_rays(&[(Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0))], &[]);
    }

    #[test]
    fn ambient_occlusion_rays_stay_in_the_hemisphere() {
        let surfels = vec![
            (Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0)),
            (Vec3::new(5.0, 1.0, -2.0), Vec3::new(1.0, 0.0, 0.0)),
        ];
        let rays = ambient_occlusion_rays(11, &surfels, 16, 3.0);
        assert_eq!(rays.len(), 32);
        for (i, ray) in rays.iter().enumerate() {
            let normal = surfels[i / 16].1;
            assert!(ray.dir.dot(normal) >= 0.0, "ray {i} leaves the surface");
            assert_eq!(ray.t_beg, SHADOW_EPSILON);
            assert_eq!(ray.t_end, 3.0);
        }
        assert_eq!(
            ambient_occlusion_rays(11, &surfels, 16, 3.0),
            ambient_occlusion_rays(11, &surfels, 16, 3.0)
        );
    }
}
