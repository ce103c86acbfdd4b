//! Fault injection into the emulated NVM array.
//!
//! NVM stores must be failure-atomic (§I discusses logging/shadowing
//! overheads). The device is tested against three fault models of the
//! medium itself:
//!
//! * **crash** between operations ([`FaultState::crash`]) — the device
//!   retains everything persisted so far and rejects further I/O;
//! * **torn write** ([`FaultState::arm_torn_after`]) — a crash *during* a write:
//!   only a prefix of the payload's words reaches the array (PCM programs at
//!   word granularity, so word-aligned tearing is the realistic model);
//! * **stuck-at wear-out** ([`FaultState::arm_stuck_bit`] /
//!   [`StuckAtConfig`]) — worn PCM/ReRAM cells latch: a stuck bit reads
//!   back its latched value and no write can change it. Faults are either
//!   armed explicitly (tests, chaos harnesses) or latched probabilistically
//!   once a word's write count crosses a configured endurance threshold —
//!   the failure mode the paper's flip-minimizing placement is defending
//!   against, finally allowed to bite.
//!
//! The files under a durable store — a device's data file, the WAL,
//! superblock and checkpoint — fail elsewhere: in the simulated file
//! system, [`crate::fs::SimFs`], which tears their writes, fails their
//! syncs and loses power under them.

use std::collections::HashMap;

/// SplitMix64 — the deterministic hash behind wear-induced latching and
/// a simulated power loss's choice of pages.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wear-induced stuck-at latching configuration.
///
/// Disabled by default (`endurance_writes: None`): a device without an
/// endurance threshold never latches on its own, so every existing
/// workload stays bit-for-bit identical. Explicitly armed stuck bits
/// ([`FaultState::arm_stuck_bit`]) work regardless of this configuration.
#[derive(Debug, Clone, Copy)]
pub struct StuckAtConfig {
    /// Write count past which a word's cells may latch. `None` disables
    /// wear-induced latching entirely.
    pub endurance_writes: Option<u32>,
    /// Probability that one write to an over-endurance word latches one
    /// additional bit (evaluated deterministically from `seed`, the word
    /// index and the word's write count).
    pub latch_probability: f64,
    /// Seed for the deterministic latching hash.
    pub seed: u64,
}

impl Default for StuckAtConfig {
    fn default() -> Self {
        StuckAtConfig {
            endurance_writes: None,
            latch_probability: 1.0,
            seed: 0x5AD_B175, // "sad bits"
        }
    }
}

/// The stuck bits of one device word: `mask` selects the latched bits,
/// `vals` holds the value each latched bit is stuck at (bit `i` of the
/// little-endian word image ↔ bit `i` here).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StuckWord {
    /// Which bits are latched.
    pub mask: u64,
    /// The latched value of each masked bit.
    pub vals: u64,
}

impl StuckWord {
    /// Overlays the stuck bits onto a word image.
    pub fn apply(&self, word: u64) -> u64 {
        (word & !self.mask) | (self.vals & self.mask)
    }

    /// How many bits of the word are stuck.
    pub fn bits(&self) -> u64 {
        u64::from(self.mask.count_ones())
    }
}

/// Mutable fault state carried by a device.
#[derive(Debug, Clone)]
pub struct FaultState {
    crashed: bool,
    /// An armed tear: `(writes to pass through first, words the torn one
    /// keeps)`.
    armed_torn: Option<(u64, usize)>,
    /// Stuck bits by device word index — armed explicitly or latched by
    /// wear. Empty on the overwhelming majority of devices, so the write
    /// path's per-word overlay check is one `is_empty()` away from free.
    stuck: HashMap<usize, StuckWord>,
    stuck_at: StuckAtConfig,
}

impl FaultState {
    /// Creates the state, latching worn cells as `stuck_at` says.
    pub fn new(stuck_at: StuckAtConfig) -> Self {
        FaultState {
            crashed: false,
            armed_torn: None,
            stuck: HashMap::new(),
            stuck_at,
        }
    }

    /// Whether the device is crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Enters the crashed state.
    pub fn crash(&mut self) {
        self.crashed = true;
    }

    /// Leaves the crashed state.
    pub fn recover(&mut self) {
        self.crashed = false;
    }

    /// Arms a torn write for the `(skip + 1)`-th write from now: `skip`
    /// writes land whole, then only `words` whole words of the next one
    /// persist.
    pub fn arm_torn_after(&mut self, skip: u64, words: usize) {
        self.armed_torn = Some((skip, words));
    }

    /// Called by the device at the start of each write with the payload
    /// length. Returns `Some(truncated_len)` if this write tears (the device
    /// then also crashes), or `None` for a normal write.
    pub fn arm_write(&mut self, len: usize, word_bytes: usize) -> Option<usize> {
        let words = match self.armed_torn? {
            (0, words) => words,
            (skip, words) => {
                self.armed_torn = Some((skip - 1, words));
                return None;
            }
        };
        self.armed_torn = None;
        self.crashed = true;
        Some((words * word_bytes).min(len))
    }

    /// Latches `bit` of device word `word` at `stuck_at_one`. The caller
    /// (the device) is responsible for forcing the cell image to match.
    pub fn arm_stuck_bit(&mut self, word: usize, bit: u32, stuck_at_one: bool) {
        debug_assert!(bit < 64, "bit index within one word");
        let e = self.stuck.entry(word).or_default();
        let m = 1u64 << bit;
        e.mask |= m;
        if stuck_at_one {
            e.vals |= m;
        } else {
            e.vals &= !m;
        }
    }

    /// Whether any bit anywhere is stuck, or wear-induced latching is
    /// configured — the write path's fast-path check.
    pub fn stuck_active(&self) -> bool {
        !self.stuck.is_empty() || self.stuck_at.endurance_writes.is_some()
    }

    /// The stuck bits of `word`, if any.
    pub fn stuck_word(&self, word: usize) -> Option<StuckWord> {
        if self.stuck.is_empty() {
            None
        } else {
            self.stuck.get(&word).copied()
        }
    }

    /// Every word with at least one stuck bit, in unspecified order.
    pub fn stuck_words(&self) -> impl Iterator<Item = (usize, StuckWord)> + '_ {
        self.stuck.iter().map(|(&w, &s)| (w, s))
    }

    /// Total stuck bits across the device (armed + wear-latched).
    pub fn stuck_bit_count(&self) -> u64 {
        self.stuck.values().map(StuckWord::bits).sum()
    }

    /// Called by the device after programming a dirty word: decides whether
    /// this write latches one more bit of word `word`. `write_count` is the
    /// word's cumulative write count, `word_bits` the word width in bits and
    /// `written` the word image just programmed. Returns the newly latched
    /// bit index, if any.
    ///
    /// The latched bit keeps its *just-written* value, which is how real
    /// cells fail (the final program pulse sticks): committed data stays
    /// intact, and the fault surfaces as a write-verify failure for the
    /// word's next occupant.
    pub fn maybe_latch(
        &mut self,
        word: usize,
        write_count: u32,
        word_bits: u32,
        written: u64,
    ) -> Option<u32> {
        let threshold = self.stuck_at.endurance_writes?;
        if write_count < threshold {
            return None;
        }
        // Deterministic per-(seed, word, write-count) draw: replayable runs
        // latch identical bits in identical places.
        let h =
            splitmix64(self.stuck_at.seed ^ splitmix64(word as u64) ^ ((write_count as u64) << 32));
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        if draw >= self.stuck_at.latch_probability {
            return None;
        }
        let bit = (splitmix64(h) % word_bits as u64) as u32;
        let m = 1u64 << bit;
        let e = self.stuck.entry(word).or_default();
        if e.mask & m != 0 {
            return None; // that cell already failed
        }
        e.mask |= m;
        if written & m != 0 {
            e.vals |= m;
        } else {
            e.vals &= !m;
        }
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_recover_cycle() {
        let mut f = FaultState::new(StuckAtConfig::default());
        assert!(!f.is_crashed());
        f.crash();
        assert!(f.is_crashed());
        f.recover();
        assert!(!f.is_crashed());
    }

    #[test]
    fn armed_tear_fires_once() {
        let mut f = FaultState::new(StuckAtConfig::default());
        f.arm_torn_after(0, 2);
        assert_eq!(f.arm_write(100, 8), Some(16));
        assert!(f.is_crashed());
        f.recover();
        assert_eq!(f.arm_write(100, 8), None);
    }

    #[test]
    fn armed_tear_can_skip_writes_first() {
        let mut f = FaultState::new(StuckAtConfig::default());
        f.arm_torn_after(2, 1);
        assert_eq!(f.arm_write(100, 8), None);
        assert_eq!(f.arm_write(100, 8), None);
        assert_eq!(f.arm_write(100, 8), Some(8));
        assert!(f.is_crashed());
    }

    #[test]
    fn tear_truncates_to_payload() {
        let mut f = FaultState::new(StuckAtConfig::default());
        f.arm_torn_after(0, 100);
        assert_eq!(f.arm_write(24, 8), Some(24));
    }

    /// A tear armed `n` writes ahead, observed at the *device* level: the
    /// device serves `n` whole writes, tears the next after one word and
    /// stays crashed until it recovers.
    #[test]
    fn scheduled_tear_fires_on_nth_device_write() {
        use crate::{NvmConfig, NvmDevice, NvmError, WriteMode};

        let mut d = NvmDevice::open(NvmConfig::default().with_size(256)).unwrap();
        d.arm_torn_write_after(2, 1);

        // Writes 0 and 1 persist fully.
        d.write(0, &[0x11u8; 16], WriteMode::Raw).unwrap();
        d.write(16, &[0x22u8; 16], WriteMode::Raw).unwrap();
        assert!(!d.is_crashed());

        // Write 2 tears after one 8-byte word and crashes the device.
        let s = d.write(32, &[0x33u8; 24], WriteMode::Raw).unwrap();
        assert_eq!(s.words_written, 1);
        assert_eq!(s.bits_addressed, 64, "stats cover only the torn prefix");
        assert!(d.is_crashed());
        assert!(matches!(
            d.write(64, &[0u8; 8], WriteMode::Raw),
            Err(NvmError::Crashed)
        ));

        // After restart the prefix is persisted, the tail never landed and
        // the tear does not re-fire.
        d.recover();
        assert_eq!(d.peek(32, 8).unwrap(), &[0x33u8; 8]);
        assert_eq!(d.peek(40, 16).unwrap(), &[0u8; 16]);
        d.write(64, &[0x44u8; 8], WriteMode::Raw).unwrap();
        assert!(!d.is_crashed());
    }

    #[test]
    fn stuck_word_accumulates_armed_bits() {
        let mut f = FaultState::new(StuckAtConfig::default());
        assert!(!f.stuck_active());
        assert_eq!(f.stuck_word(3), None);
        f.arm_stuck_bit(3, 0, true);
        f.arm_stuck_bit(3, 5, false);
        assert!(f.stuck_active());
        let s = f.stuck_word(3).unwrap();
        assert_eq!(s.mask, 0b10_0001);
        assert_eq!(s.vals, 0b00_0001);
        assert_eq!(f.stuck_bit_count(), 2);
        // Overlay: bit 0 forced to 1, bit 5 forced to 0, others untouched.
        assert_eq!(s.apply(0b11_0000), 0b01_0001);
        // Re-arming the same bit with the other polarity flips its value.
        f.arm_stuck_bit(3, 0, false);
        assert_eq!(f.stuck_word(3).unwrap().vals, 0);
        assert_eq!(f.stuck_bit_count(), 2);
    }

    #[test]
    fn latching_requires_threshold_and_is_deterministic() {
        let cfg = StuckAtConfig {
            endurance_writes: Some(10),
            latch_probability: 1.0,
            ..Default::default()
        };
        let mut f = FaultState::new(cfg);
        assert_eq!(f.maybe_latch(7, 9, 64, u64::MAX), None);
        let bit = f.maybe_latch(7, 10, 64, u64::MAX).expect("past threshold");
        // Latched at the just-written value (all-ones here).
        let s = f.stuck_word(7).unwrap();
        assert_eq!(s.mask, 1u64 << bit);
        assert_eq!(s.vals, 1u64 << bit);
        // Same seed, same word, same count → same bit on a fresh state.
        let mut g = FaultState::new(cfg);
        assert_eq!(g.maybe_latch(7, 10, 64, u64::MAX), Some(bit));
        // Re-drawing the exact same cell is a no-op.
        assert_eq!(f.maybe_latch(7, 10, 64, 0), None);
        assert_eq!(f.stuck_bit_count(), 1);
    }

    #[test]
    fn zero_probability_never_latches() {
        let mut f = FaultState::new(StuckAtConfig {
            endurance_writes: Some(1),
            latch_probability: 0.0,
            ..Default::default()
        });
        for wc in 1..200u32 {
            assert_eq!(f.maybe_latch(0, wc, 64, 0xAB), None);
        }
        assert_eq!(f.stuck_bit_count(), 0);
    }
}
