//! # pnw-index — key → physical-address indexes
//!
//! PNW's hash index (§V-A.3) maps each key to the NVM location holding its
//! value. The paper discusses two placements and we implement both:
//!
//! * [`AtomicHashIndex`] — the Figure 2a architecture for small keys: the
//!   index lives in DRAM (a fixed open-addressing table of atomics, so
//!   readers probe it without a lock), costs no NVM bit flips, but must be
//!   rebuilt after a crash.
//! * [`PathHashIndex`] — the Figure 2b architecture: a write-friendly
//!   *Path Hashing* table (Zuo & Hua, TPDS 2017) persisted in NVM. Path
//!   hashing resolves collisions by walking up an inverted complete binary
//!   tree of buckets instead of rehashing or evicting, so an insertion
//!   writes exactly one bucket — the property that makes it the paper's
//!   pick for the worst-case "index on PCM" evaluation (§V-A.3).
//!
//! Deletions follow the paper's flag-bit protocol: *"whenever we receive a
//! delete request, we can reset its corresponding bit in the hash index …
//! instead of deleting it"* — a one-bit NVM update.

#![warn(missing_docs)]

pub mod atomic;
pub mod path_hash;
pub mod reader;
pub mod traits;

pub use atomic::{AtomicHashIndex, AtomicTable};
pub use path_hash::{PathHashIndex, PathHashReader};
pub use reader::IndexReader;
pub use traits::{IndexError, KeyIndex};
