//! # rayflex-workloads
//!
//! Procedural workload generators for exercising the RayFlex datapath and its RT-unit substrate:
//! triangle scenes (the synthetic equivalent of the paper's bunny in Fig. 1), camera ray batches
//! and clustered vector datasets for the hierarchical-search case study (§V-A).
//!
//! Everything is deterministic given a seed, so testbenches and benchmark harnesses are
//! reproducible.
//!
//! # Example
//!
//! ```
//! use rayflex_workloads::scenes;
//!
//! let sphere = scenes::icosphere(2, 1.0, rayflex_geometry::Vec3::ZERO);
//! assert!(sphere.len() >= 300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod adversarial;
pub mod rays;
pub mod scenes;
pub mod stimulus;
pub mod vectors;
pub mod wire;
