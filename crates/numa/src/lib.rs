//! # imm-numa
//!
//! A software model of a multi-socket NUMA machine.
//!
//! The paper evaluates on a dual-socket AMD EPYC node with 8 NUMA domains and
//! relies on `numactl`/`mbind` to control where the graph, the RRR sets and
//! the visited bitmaps live. This environment has no NUMA hardware (and no
//! portable way to bind pages from safe Rust), so — per the reproduction's
//! substitution policy — the *placement decisions* and their consequences are
//! modelled in software:
//!
//! * [`Topology`] describes a machine as `nodes × cores_per_node`.
//! * [`PlacementPolicy`] mirrors the placements the paper compares:
//!   everything on one node (the default first-touch outcome that causes the
//!   bandwidth hot-spot), round-robin interleaving (`numactl --interleave`),
//!   and explicit thread-local binding (`mbind`, the paper's NUMA-aware
//!   design).
//! * [`NumaRegion`] records which node owns each page of a data structure.
//! * [`AccessTracker`] counts, per accessing core, how many reads/writes hit
//!   the local node vs. a remote node, and converts them into a modelled
//!   access-cost figure using a configurable remote-access penalty.
//!
//! The Table II experiment ("% of core time spent checking the visited
//! bitmap, original vs. NUMA-aware data structures") is reproduced by running
//! the instrumented sampling kernel once with [`PlacementPolicy::SingleNode`]
//! and once with [`PlacementPolicy::ThreadLocal`] placements and comparing
//! the modelled bitmap-access cost share.
//!
//! The model's one *hardware-facing* edge is [`Topology::detect`], which
//! probes the real machine's node count through sysfs. Nothing in the
//! workspace binds threads or pages to a node.

pub mod placement;
pub mod topology;
pub mod tracker;

pub use placement::{NumaRegion, PlacementPolicy, PAGE_BYTES};
pub use topology::Topology;
pub use tracker::{AccessKind, AccessStats, AccessTracker, CostModel};
