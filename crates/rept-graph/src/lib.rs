//! Graph and edge-stream substrate for the REPT triangle-counting stack.
//!
//! The paper's model (§II): a *graph stream* `Π` is a sequence of undirected
//! edges `e(1) … e(tmax)`; `G = (V, E)` is the graph formed by all edges
//! that occur in `Π`. Everything downstream — the exact counter, REPT and
//! the baselines — consumes streams of [`Edge`] values and maintains some
//! sampled adjacency structure.
//!
//! Modules:
//!
//! * [`edge`] — canonical undirected [`Edge`] and the [`NodeId`] alias.
//! * [`stream`] — stream utilities: windowing, deduplication, materialised
//!   streams with provenance.
//! * [`adjacency`] — [`adjacency::DynamicAdjacency`], the
//!   hash-based incremental adjacency used by every streaming algorithm
//!   (common-neighbor queries are the inner loop of the whole system).
//! * [`hybrid`] — [`hybrid::HybridAdjacency`], the adjacency of the
//!   fused execution engine: the union of every kept hash group's
//!   stored edges, held once as neighbor ids (an edge's partition cell
//!   is recomputed from its group's hash where a match needs it);
//!   a node's first 7 neighbors live sorted in its 32-byte row, more
//!   spill to a sorted vec, and high-degree nodes promote to blocked
//!   `u64` bitmaps so hub intersections run as a word `AND` (64-way
//!   bit-parallel, zero `unsafe`). [`hybrid::HybridAdjacency::parts`]
//!   says where its bytes go.
//! * [`csr`] — [`csr::CsrGraph`], a compact sorted-neighbor static
//!   graph for the exact forward algorithm and statistics.
//! * [`builder`] — [`builder::GraphBuilder`] normalises raw
//!   pairs (dedup, self-loop removal, dense relabeling).
//! * [`io`] — text and binary edge-list readers/writers.
//! * [`stats`] — degree and wedge statistics used in experiment reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod builder;
pub mod csr;
pub mod duplicates;
pub mod edge;
pub mod hybrid;
pub mod io;
pub mod stats;
pub mod stream;
pub mod timed;

pub use adjacency::DynamicAdjacency;
pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use edge::{Edge, NodeId};
pub use hybrid::HybridAdjacency;
