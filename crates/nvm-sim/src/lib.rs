//! # pnw-nvm-sim — DRAM-emulated non-volatile memory with write accounting
//!
//! The PNW paper ("Predict and Write", ICDE 2021) evaluates on DRAM-emulated
//! NVM: *"As real NVM DIMMs are not available for us yet, we emulate NVM using
//! DRAM similar to prior works"*. Every metric the paper reports — bit flips,
//! modified words, written cache lines, per-address and per-bit wear — is a
//! **count**, so an emulated device that performs differential writes and
//! charges those counts reproduces the evaluation exactly.
//!
//! This crate provides that device:
//!
//! * [`NvmDevice`] — a byte-addressable memory with configurable word and
//!   cache-line geometry, supporting *raw* writes (every bit is charged, as a
//!   conventional PCM write would) and *differential* writes (read-before-
//!   write: only bits that differ are charged, as in DCW/FNW-class schemes).
//! * [`stats::WriteStats`] / [`stats::DeviceStats`] — per-operation and
//!   cumulative accounting of bit flips, auxiliary (flag/mask) bit flips,
//!   modified words and written cache lines.
//! * [`wear`] — per-word and per-bit wear counters with CDF extraction, used
//!   to regenerate Figures 12 and 13 of the paper.
//! * [`latency::LatencyModel`] — Table I memory-technology presets plus the
//!   600 ns 3D-XPoint figure used in §VI-A, turning write stats into modeled
//!   latencies.
//! * [`region`] — a bucket-array region allocator used by the stores built on
//!   top (data zones, index zones, LSM levels).
//! * [`fault`] — crash / torn-write / stuck-bit injection into the cell
//!   array, used by the recovery tests.
//! * [`backing`] — the [`DeviceBacking`] seam: volatile (DRAM-only) or
//!   write-back file-backed cell arrays.
//! * [`fs`] — the file-system seam every durable file goes through:
//!   [`OsFs`], the host's, and [`SimFs`], an in-memory one that tears
//!   writes, fails syncs and loses power.
//! * [`crc`] — the shared CRC-32 used by every durable file format.
//!
//! ## Example
//!
//! ```
//! use pnw_nvm_sim::{NvmConfig, NvmDevice, WriteMode};
//!
//! let mut dev = NvmDevice::new(NvmConfig::default().with_size(4096));
//! // Conventional write: all 64 bits of the 8-byte word are charged.
//! let s = dev.write(0, &[0xFFu8; 8], WriteMode::Raw).unwrap();
//! assert_eq!(s.bit_flips, 64);
//! // Differential overwrite with an identical value: nothing is charged.
//! let s = dev.write(0, &[0xFFu8; 8], WriteMode::Diff).unwrap();
//! assert_eq!(s.bit_flips, 0);
//! assert_eq!(s.lines_written, 0);
//! ```

#![warn(missing_docs)]

pub mod backing;
pub mod crc;
pub mod device;
pub mod fault;
pub mod fs;
pub mod geometry;
pub mod latency;
pub mod region;
pub mod stats;
pub mod wear;

pub use backing::{DeviceBacking, FileBacking};
pub use crc::{crc32, crc32_update, crc32c, crc32c_update};
pub use device::{CellView, NvmConfig, NvmDevice, NvmError, WriteMode};
pub use fault::{FaultState, StuckAtConfig, StuckWord};
pub use fs::{Crash, DirLock, Fs, FsFile, Open, OsFs, SimFs};
pub use geometry::Geometry;
pub use latency::{projected_lifetime_ops, LatencyModel, MemoryTech};
pub use region::{Region, RegionAllocator};
pub use stats::{DeviceStats, WriteStats};
pub use wear::{WearCdf, WearTracker};
