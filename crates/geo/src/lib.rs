//! Geometry substrate for the O2O taxi-dispatch reproduction.
//!
//! The paper models the city as a Euclidean surface with a shortest-path
//! distance function `D(·,·)`. This crate provides:
//!
//! * [`Point`] — a location in kilometres,
//! * [`Metric`] — pluggable distance functions ([`Euclidean`], [`Manhattan`],
//!   and the graph-based [`RoadNetwork`]),
//! * [`GridIndex`] — a uniform-grid spatial index for nearest-neighbour and
//!   range queries over taxis,
//! * [`BBox`] — axis-aligned bounding boxes describing a city's extent.
//!
//! # Examples
//!
//! ```
//! use o2o_geo::{Euclidean, Metric, Point};
//!
//! let taxi = Point::new(0.0, 0.0);
//! let pickup = Point::new(3.0, 4.0);
//! assert_eq!(Euclidean.distance(taxi, pickup), 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbox;
mod cache;
mod grid_index;
mod metric;
mod point;
mod road_network;

pub use bbox::BBox;
pub use cache::{CacheStats, DistanceCache};
pub use grid_index::{heuristic_cell_size, GridIndex, Neighbor};
pub use metric::{Euclidean, Manhattan, Metric, ScaledMetric};
pub use point::Point;
pub use road_network::{EdgeId, NodeId, RoadNetwork, RoadNetworkBuilder, RoadNetworkError};
