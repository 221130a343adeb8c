//! Electrical 2-D mesh on-chip network model.
//!
//! Reproduces the interconnect of Table 1: XY dimension-ordered routing,
//! 2-cycle hops (1 router + 1 link), 64-bit flits, and a contention model
//! that (quoting the paper) tracks "only link contention (infinite input
//! buffers)". The mesh is "augmented with broadcast support. Each router
//! selectively replicates a broadcast'ed message on its output links such
//! that all cores are reached with a single injection" (§3.1) — required by
//! the ACKwise protocol when its sharer pointers overflow.
//!
//! Timing model: a message of `F` flits traversing a path of `H` links
//! occupies each link for `F` cycles (wormhole serialization), pays the
//! per-hop router + link latency, waits when a link is still busy with an
//! earlier message, and is fully received `F - 1` cycles after its head
//! flit. Per-(source, destination) delivery times are clamped monotone,
//! modeling FIFO ordering of wormhole links on a fixed XY path.
//!
//! # Examples
//!
//! ```
//! use lacc_network::MeshNetwork;
//! use lacc_model::CoreId;
//!
//! let mut net = MeshNetwork::new(16, 1, 1); // 4x4 mesh, 2-cycle hops
//! let src = CoreId::new(0);
//! let dst = CoreId::new(15);
//! // 6 hops x 2 cycles + (1-1) serialization = 12 cycles for a 1-flit msg.
//! assert_eq!(net.unicast(src, dst, 1, 0), 12);
//! ```

pub mod mesh;
pub mod topology;

pub use mesh::{MeshNetwork, NetStats};
pub use topology::{Direction, Topology, XyRoute};
