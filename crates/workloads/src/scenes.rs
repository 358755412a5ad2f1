//! Procedural triangle scenes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayflex_geometry::{sampling, Aabb, Affine, Sphere, Triangle, Vec3};

/// A soup of `count` random triangles inside a ±`extent` cube — the unstructured stimulus used by
/// the random testbenches.
#[must_use]
pub fn random_triangle_soup(seed: u64, count: usize, extent: f32) -> Vec<Triangle> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds = Aabb::new(Vec3::splat(-extent), Vec3::splat(extent));
    (0..count)
        .map(|_| sampling::triangle_in_box(&mut rng, &bounds))
        .collect()
}

/// A triangulated sphere produced by subdividing an icosahedron `subdivisions` times — the
/// repository's stand-in for the paper's bunny mesh (a closed, smooth, many-triangle surface).
///
/// Subdivision 0 gives 20 triangles; each level quadruples the count (level 3 ≈ 1280 triangles).
#[must_use]
pub fn icosphere(subdivisions: u32, radius: f32, center: Vec3) -> Vec<Triangle> {
    // Icosahedron vertices from the three orthogonal golden rectangles.
    let phi = (1.0 + 5.0f32.sqrt()) / 2.0;
    let base = [
        Vec3::new(-1.0, phi, 0.0),
        Vec3::new(1.0, phi, 0.0),
        Vec3::new(-1.0, -phi, 0.0),
        Vec3::new(1.0, -phi, 0.0),
        Vec3::new(0.0, -1.0, phi),
        Vec3::new(0.0, 1.0, phi),
        Vec3::new(0.0, -1.0, -phi),
        Vec3::new(0.0, 1.0, -phi),
        Vec3::new(phi, 0.0, -1.0),
        Vec3::new(phi, 0.0, 1.0),
        Vec3::new(-phi, 0.0, -1.0),
        Vec3::new(-phi, 0.0, 1.0),
    ];
    let faces: [[usize; 3]; 20] = [
        [0, 11, 5],
        [0, 5, 1],
        [0, 1, 7],
        [0, 7, 10],
        [0, 10, 11],
        [1, 5, 9],
        [5, 11, 4],
        [11, 10, 2],
        [10, 7, 6],
        [7, 1, 8],
        [3, 9, 4],
        [3, 4, 2],
        [3, 2, 6],
        [3, 6, 8],
        [3, 8, 9],
        [4, 9, 5],
        [2, 4, 11],
        [6, 2, 10],
        [8, 6, 7],
        [9, 8, 1],
    ];
    let project = |v: Vec3| center + v.normalized() * radius;
    let mut triangles: Vec<Triangle> = faces
        .iter()
        .map(|f| {
            Triangle::new(
                project(base[f[0]]),
                project(base[f[1]]),
                project(base[f[2]]),
            )
        })
        .collect();
    for _ in 0..subdivisions {
        let mut next = Vec::with_capacity(triangles.len() * 4);
        for tri in &triangles {
            let m01 = project((tri.v0 + tri.v1) * 0.5 - center);
            let m12 = project((tri.v1 + tri.v2) * 0.5 - center);
            let m20 = project((tri.v2 + tri.v0) * 0.5 - center);
            next.push(Triangle::new(tri.v0, m01, m20));
            next.push(Triangle::new(tri.v1, m12, m01));
            next.push(Triangle::new(tri.v2, m20, m12));
            next.push(Triangle::new(m01, m12, m20));
        }
        triangles = next;
    }
    triangles
}

/// A regular `n`×`n` grid of upright quads (two triangles each) in the z = `depth` plane — a
/// simple "wall" scene with predictable coverage.
#[must_use]
pub fn quad_wall(n: usize, spacing: f32, depth: f32) -> Vec<Triangle> {
    let mut triangles = Vec::with_capacity(n * n * 2);
    let offset = (n as f32 - 1.0) * spacing * 0.5;
    for row in 0..n {
        for col in 0..n {
            let x = col as f32 * spacing - offset;
            let y = row as f32 * spacing - offset;
            let half = spacing * 0.45;
            let (a, b, c, d) = (
                Vec3::new(x - half, y - half, depth),
                Vec3::new(x + half, y - half, depth),
                Vec3::new(x + half, y + half, depth),
                Vec3::new(x - half, y + half, depth),
            );
            triangles.push(Triangle::new(a, b, c));
            triangles.push(Triangle::new(a, c, d));
        }
    }
    triangles
}

/// A cloud of `count` random tiny spheres inside a ±`extent` cube — the sphere-per-data-point
/// representation the hierarchical-search accelerators use (§V-A).
#[must_use]
pub fn sphere_cloud(seed: u64, count: usize, extent: f32, max_radius: f32) -> Vec<Sphere> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds = Aabb::new(Vec3::splat(-extent), Vec3::splat(extent));
    (0..count)
        .map(|_| sampling::sphere_in_box(&mut rng, &bounds, max_radius))
        .collect()
}

/// A soft-shadow test scene: a horizontal floor at `y = 0` spanning ±`extent` in x/z with an
/// icosphere occluder of radius `extent / 6` floating above its centre.  Pairs with
/// [`crate::rays::floor_shadow_rays`]: shadow rays cast from the floor toward a light above the
/// occluder are blocked under the sphere and unobstructed elsewhere, giving an any-hit workload
/// with a realistic mix of occluded and open rays.
#[must_use]
pub fn soft_shadow(subdivisions: u32, extent: f32) -> Vec<Triangle> {
    let e = extent;
    let mut triangles = vec![
        Triangle::new(
            Vec3::new(-e, 0.0, -e),
            Vec3::new(e, 0.0, -e),
            Vec3::new(e, 0.0, e),
        ),
        Triangle::new(
            Vec3::new(-e, 0.0, -e),
            Vec3::new(e, 0.0, e),
            Vec3::new(-e, 0.0, e),
        ),
    ];
    triangles.extend(icosphere(
        subdivisions,
        extent / 6.0,
        Vec3::new(0.0, extent / 2.0, 0.0),
    ));
    triangles
}

/// A scene preset for the multi-pass deferred renderer: geometry plus the point light and the
/// suggested camera placement that frame a shadowed, partially-occluded view.
#[derive(Debug, Clone, PartialEq)]
pub struct LitScene {
    /// Scene geometry: a floor, a floating occluder sphere and a small grounded sphere.
    pub triangles: Vec<Triangle>,
    /// Point-light position (above and beside the occluder, so shadows fall across the floor).
    pub light: Vec3,
    /// Suggested camera position.
    pub eye: Vec3,
    /// Suggested camera look-at target.
    pub target: Vec3,
}

/// The standard lit scene of the deferred-render passes: the [`soft_shadow`] floor-and-occluder
/// geometry plus a small sphere resting near the floor (a strong ambient-occlusion contact), a
/// point light offset from the vertical so the occluder's shadow lands visibly on the floor, and
/// a camera framing all of it.  Pairs with the renderer's shadow and ambient-occlusion passes:
/// primary hits on the floor mix lit, shadowed and AO-darkened pixels.
#[must_use]
pub fn lit_scene(subdivisions: u32, extent: f32) -> LitScene {
    let mut triangles = soft_shadow(subdivisions, extent);
    // A small sphere touching down near the floor: its underside occludes nearby hemisphere
    // probes, giving the ambient-occlusion pass visible contact darkening.
    let small_radius = extent / 10.0;
    triangles.extend(icosphere(
        subdivisions,
        small_radius,
        Vec3::new(extent / 4.0, small_radius * 1.05, -extent / 8.0),
    ));
    LitScene {
        triangles,
        light: Vec3::new(extent / 3.0, extent, -extent / 4.0),
        eye: Vec3::new(0.0, extent * 0.55, -extent * 1.1),
        target: Vec3::new(0.0, extent * 0.2, 0.0),
    }
}

/// A geometry-level description of an instanced scene: a set of shared meshes plus placements
/// pairing a mesh index with a world transform.
///
/// The workloads crate sits below the acceleration layer, so presets describe instancing in
/// plain geometry terms; consumers lift the description into `rtunit`'s two-level `Scene` (one
/// BLAS per mesh, one instance per placement) or bake it flat with [`InstancedSceneDesc::flatten`].
#[derive(Debug, Clone)]
pub struct InstancedSceneDesc {
    /// The shared meshes — each becomes one bottom-level structure.
    pub meshes: Vec<Vec<Triangle>>,
    /// Placements: `(mesh index, object-to-world transform)`, one per instance.
    pub placements: Vec<(usize, Affine)>,
}

impl InstancedSceneDesc {
    /// Bakes every placement into one flat triangle list, in placement order — the flattened
    /// reference an instanced trace must match bit-for-bit.
    #[must_use]
    pub fn flatten(&self) -> Vec<Triangle> {
        self.placements
            .iter()
            .flat_map(|(mesh, transform)| {
                self.meshes[*mesh]
                    .iter()
                    .map(|tri| tri.transformed(transform))
            })
            .collect()
    }
}

/// A debris field: `kinds` distinct random shard meshes scattered as `count` instances with
/// random rotations, uniform scales in `[0.6, 1.4]`, and translations inside a ±`extent` cube.
/// The instancing stress preset — many placements of few meshes, where a two-level scene's
/// memory advantage over baking is largest.
#[must_use]
pub fn debris_field(seed: u64, kinds: usize, count: usize, extent: f32) -> InstancedSceneDesc {
    let mut rng = StdRng::seed_from_u64(seed);
    let shard_bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
    let meshes: Vec<Vec<Triangle>> = (0..kinds.max(1))
        .map(|_| {
            (0..12)
                .map(|_| sampling::triangle_in_box(&mut rng, &shard_bounds))
                .collect()
        })
        .collect();
    let placements = (0..count)
        .map(|_| {
            let mesh = rng.gen_range(0..meshes.len());
            let spin = Affine::rotate_y(rng.gen_range(0.0..core::f32::consts::TAU)).then(
                &Affine::rotate_x(rng.gen_range(0.0..core::f32::consts::TAU)),
            );
            let sized = Affine::uniform_scale(rng.gen_range(0.6..1.4)).then(&spin);
            let offset = Vec3::new(
                rng.gen_range(-extent..extent),
                rng.gen_range(-extent..extent),
                rng.gen_range(-extent..extent),
            );
            (mesh, Affine::translation(offset).then(&sized))
        })
        .collect();
    InstancedSceneDesc { meshes, placements }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debris_field_is_deterministic_and_covers_every_mesh_kind() {
        let a = debris_field(11, 3, 64, 30.0);
        let b = debris_field(11, 3, 64, 30.0);
        assert_eq!(a.meshes.len(), 3);
        assert_eq!(a.placements.len(), 64);
        assert_eq!(a.flatten(), b.flatten());
        for (mesh, transform) in &a.placements {
            assert!(*mesh < a.meshes.len());
            assert!(transform.is_finite());
            assert!(transform.determinant().abs() > f32::EPSILON);
        }
    }

    #[test]
    fn triangle_soup_is_deterministic_and_sized() {
        let a = random_triangle_soup(7, 100, 50.0);
        let b = random_triangle_soup(7, 100, 50.0);
        assert_eq!(a.len(), 100);
        assert_eq!(a, b);
        assert_ne!(a, random_triangle_soup(8, 100, 50.0));
    }

    #[test]
    fn icosphere_subdivision_quadruples_triangle_count() {
        assert_eq!(icosphere(0, 1.0, Vec3::ZERO).len(), 20);
        assert_eq!(icosphere(1, 1.0, Vec3::ZERO).len(), 80);
        assert_eq!(icosphere(2, 1.0, Vec3::ZERO).len(), 320);
    }

    #[test]
    fn icosphere_vertices_lie_on_the_sphere() {
        let center = Vec3::new(1.0, 2.0, 3.0);
        for tri in icosphere(2, 2.5, center) {
            for v in [tri.v0, tri.v1, tri.v2] {
                assert!(((v - center).length() - 2.5).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn quad_wall_has_the_expected_count_and_plane() {
        let wall = quad_wall(8, 2.0, 12.0);
        assert_eq!(wall.len(), 8 * 8 * 2);
        assert!(wall
            .iter()
            .all(|t| t.v0.z == 12.0 && t.v1.z == 12.0 && t.v2.z == 12.0));
    }

    #[test]
    fn soft_shadow_scene_has_a_floor_and_an_occluder() {
        let scene = soft_shadow(1, 12.0);
        assert_eq!(scene.len(), 2 + 80, "two floor triangles plus the occluder");
        // The floor is at y = 0 and the occluder floats strictly above it.
        for tri in &scene[..2] {
            assert!(tri.v0.y == 0.0 && tri.v1.y == 0.0 && tri.v2.y == 0.0);
        }
        for tri in &scene[2..] {
            for v in [tri.v0, tri.v1, tri.v2] {
                assert!(v.y >= 12.0 / 2.0 - 12.0 / 6.0 - 1e-3);
            }
        }
    }

    #[test]
    fn lit_scene_extends_soft_shadow_with_a_grounded_sphere_and_a_side_light() {
        let scene = lit_scene(1, 24.0);
        let base = soft_shadow(1, 24.0);
        assert_eq!(scene.triangles[..base.len()], base[..]);
        assert!(
            scene.triangles.len() > base.len(),
            "the AO contact sphere is present"
        );
        // The light sits above the geometry and off the vertical axis.
        assert!(scene.light.y >= 24.0);
        assert!(scene.light.x != 0.0 && scene.light.z != 0.0);
        // The camera looks at the scene from outside it.
        assert!(scene.eye.z < -24.0);
        assert_ne!(scene.eye, scene.target);
    }

    #[test]
    fn sphere_cloud_respects_its_bounds() {
        let cloud = sphere_cloud(3, 200, 30.0, 0.5);
        assert_eq!(cloud.len(), 200);
        for s in &cloud {
            assert!(s.radius > 0.0 && s.radius <= 0.5);
            assert!(s.center.x.abs() <= 30.0);
        }
    }
}
