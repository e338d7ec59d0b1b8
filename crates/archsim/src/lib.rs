//! Trace-driven micro-architecture simulation for BigDataBench-RS.
//!
//! The BigDataBench paper characterizes its workloads with hardware
//! performance counters on two Intel Xeon processors (E5645 and E5310).
//! This crate replaces the counters with a small, deterministic,
//! trace-driven machine model: workload kernels are written against the
//! [`Probe`] trait and report every memory access, instruction-fetch,
//! branch and arithmetic operation they perform; a [`MachineSim`] replays
//! those events through simulated cache and TLB hierarchies and a simple
//! pipeline timing model.
//!
//! Two probe implementations matter:
//!
//! * [`NullProbe`] — a zero-sized no-op, so the same generic kernel code
//!   runs at native speed when only user-perceivable throughput is wanted;
//! * [`SimProbe`] — drives a [`MachineSim`] configured as one of the
//!   paper's processors (see [`MachineConfig::xeon_e5645`] and
//!   [`MachineConfig::xeon_e5310`]) and accumulates a
//!   [`CharacterizationReport`].
//!
//! # Example
//!
//! ```
//! use bdb_archsim::{MachineConfig, SimProbe, Probe};
//!
//! let mut probe = SimProbe::new(MachineConfig::xeon_e5645());
//! // A tiny "workload": stream over an array, summing.
//! let base = probe.address_space_mut().alloc(4096, "array");
//! for i in 0..512u64 {
//!     probe.load(base + i * 8, 8);
//!     probe.int_ops(1);
//! }
//! let report = probe.finish();
//! assert!(report.instructions() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod layout;
mod lru;
pub mod machine;
pub mod metrics;
pub mod probe;
pub mod timing;
pub mod tlb;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use layout::{AddressSpace, CodeRegion, SoftwareStack, StackLayer};
pub use machine::{MachineConfig, MachineSim};
pub use metrics::{
    CharacterizationReport, CounterSnapshot, InstructionMix, LevelStats, PhaseCounters,
    BASE_FEATURES,
};
pub use probe::{CountingProbe, NullProbe, Probe, SimProbe};
pub use timing::TimingModel;
pub use tlb::{Tlb, TlbConfig};
