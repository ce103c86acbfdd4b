//! The device's word kernel against a byte-at-a-time, bit-at-a-time model.
//!
//! `NvmDevice::write_split` diffs, charges and programs eight bytes at a
//! time, skips clean words, and accounts the payload's tail in the same
//! pass. The model below does the same job the obvious way — one byte, one
//! bit at a time, with sets for dirty words and lines — and every
//! observable must agree after every write: both `WriteStats`, the cell
//! image, per-word and per-bit wear, the cumulative `DeviceStats`, the
//! crashed flag and the backing file.

use std::collections::{BTreeMap, BTreeSet};

use pnw_nvm_sim::{DeviceBacking, DeviceStats, Fs, NvmConfig, NvmDevice, Open, SimFs};
use pnw_nvm_sim::{WriteMode, WriteStats};
use proptest::collection::vec;
use proptest::prelude::*;

const WORD: usize = 8;
const LINE: usize = 64;

/// What the device is specified to do, written without any word tricks.
struct Model {
    cells: Vec<u8>,
    word_writes: Vec<u32>,
    bit_flips: Option<Vec<u16>>,
    stats: DeviceStats,
    crashed: bool,
    /// Absolute bit index → the value it is stuck at.
    stuck: BTreeMap<usize, bool>,
    torn_words: Option<usize>,
}

impl Model {
    fn new(size: usize, bit_wear: bool) -> Self {
        Model {
            cells: vec![0; size],
            word_writes: vec![0; size.div_ceil(WORD)],
            bit_flips: bit_wear.then(|| vec![0; size * 8]),
            stats: DeviceStats::default(),
            crashed: false,
            stuck: BTreeMap::new(),
            torn_words: None,
        }
    }

    fn arm_stuck_bit(&mut self, word: usize, bit: usize, at_one: bool) {
        let idx = word * 64 + bit;
        self.stuck.insert(idx, at_one);
        self.force_stuck(idx / 8);
    }

    fn force_stuck(&mut self, byte: usize) {
        for b in 0..8 {
            if let Some(&one) = self.stuck.get(&(byte * 8 + b)) {
                self.cells[byte] = (self.cells[byte] & !(1 << b)) | (u8::from(one) << b);
            }
        }
    }

    fn write(
        &mut self,
        addr: usize,
        new: &[u8],
        mode: WriteMode,
        split: usize,
    ) -> (WriteStats, WriteStats) {
        let persisted = match self.torn_words.take() {
            Some(words) => {
                self.crashed = true;
                (words * WORD).min(new.len())
            }
            None => new.len(),
        };
        let split = split.min(persisted);
        let mut total = WriteStats::default();
        let mut tail = WriteStats::default();
        let (mut words, mut lines) = (BTreeSet::new(), BTreeSet::new());
        let (mut tail_words, mut tail_lines) = (BTreeSet::new(), BTreeSet::new());
        let (mut spanned, mut tail_spanned) = (BTreeSet::new(), BTreeSet::new());

        for (j, &byte) in new[..persisted].iter().enumerate() {
            let a = addr + j;
            let in_tail = j >= split;
            total.bits_addressed += 8;
            spanned.insert(a / LINE);
            if in_tail {
                tail.bits_addressed += 8;
                tail_spanned.insert(a / LINE);
            }
            let charged = match mode {
                WriteMode::Raw => 0xFF,
                WriteMode::Diff => self.cells[a] ^ byte,
            };
            for b in 0..8 {
                if charged >> b & 1 == 0 {
                    continue;
                }
                total.bit_flips += 1;
                words.insert(a / WORD);
                lines.insert(a / LINE);
                if in_tail {
                    tail.bit_flips += 1;
                    tail_words.insert(a / WORD);
                    tail_lines.insert(a / LINE);
                }
                if let Some(bits) = &mut self.bit_flips {
                    bits[a * 8 + b] += 1;
                }
            }
            self.cells[a] = byte;
            self.force_stuck(a);
        }
        for &w in &words {
            self.word_writes[w] += 1;
        }
        total.words_written = words.len() as u64;
        total.lines_written = lines.len() as u64;
        tail.words_written = tail_words.len() as u64;
        tail.lines_written = tail_lines.len() as u64;
        if mode == WriteMode::Diff {
            total.lines_read = spanned.len() as u64;
            tail.lines_read = tail_spanned.len() as u64;
        }
        self.stats.totals.merge(&total);
        self.stats.write_ops += 1;
        (total, tail)
    }
}

/// How a write's payload relates to the cells it lands on.
#[derive(Debug, Clone, Copy)]
enum Payload {
    /// Unrelated bytes: nearly every word dirty.
    Fresh,
    /// The old bytes with a few bits flipped: mostly clean words.
    Sparse,
    /// The old bytes: nothing dirty.
    Same,
}

#[derive(Debug, Clone)]
struct WriteCase {
    addr: usize,
    len: usize,
    split: usize,
    raw: bool,
    payload: Payload,
    bytes: Vec<u8>,
    /// Tear this write after so many whole words.
    tear: Option<usize>,
}

#[derive(Debug, Clone)]
struct Case {
    size: usize,
    bit_wear: bool,
    file_backed: bool,
    image: Vec<u8>,
    stuck: Vec<(usize, usize, bool)>,
    writes: Vec<WriteCase>,
}

const MAX_LEN: usize = 100;

/// The bucket-sized lane: a device of 2 KiB (or six bytes short of it),
/// writes of up to 1 KiB.
const BIG: usize = 2048;
const BIG_LEN: usize = 1024;

/// The PNW store's bucket: a 16-byte header, then a 64 B or 784 B value.
const HEADER: usize = 16;
const BUCKETS: [usize; 2] = [HEADER + 64, HEADER + 784];

fn write_case(size: usize, max_len: usize) -> impl Strategy<Value = WriteCase> {
    (
        (0..size, 0..=max_len, 0..=max_len + 2),
        (0u8..8, 0u8..3, 0u8..6, 0usize..14),
        vec(any::<u8>(), max_len),
    )
        .prop_map(
            |((addr, len, split), (raw, payload, tear, tear_words), bytes)| WriteCase {
                addr,
                // One write in eight is a single byte.
                len: if raw == 7 { 1 } else { len },
                split,
                raw: raw == 0,
                payload: match payload {
                    0 => Payload::Fresh,
                    1 => Payload::Sparse,
                    _ => Payload::Same,
                },
                bytes,
                tear: (tear == 0).then_some(tear_words),
            },
        )
}

/// A whole bucket image written where a bucket starts, split after its
/// header — the store's differential PUT.
fn bucket_write() -> impl Strategy<Value = WriteCase> {
    (
        0usize..2,
        0usize..BIG / BUCKETS[0],
        0u8..3,
        vec(any::<u8>(), BIG_LEN),
    )
        .prop_map(|(shape, slot, payload, bytes)| {
            let len = BUCKETS[shape];
            WriteCase {
                addr: slot % (BIG / len) * len,
                len,
                split: HEADER,
                raw: false,
                payload: match payload {
                    0 => Payload::Fresh,
                    1 => Payload::Sparse,
                    _ => Payload::Same,
                },
                bytes,
                tear: None,
            }
        })
}

fn case() -> impl Strategy<Value = Case> {
    (
        (any::<bool>(), any::<bool>(), any::<bool>()),
        vec(any::<u8>(), 256),
        vec((0usize..32, 0usize..64, any::<bool>()), 0..4),
        vec(write_case(256, MAX_LEN), 1..8),
    )
        .prop_map(
            |((odd, bit_wear, file_backed), image, stuck, writes)| Case {
                // 250 leaves the last word two bytes short of the device end.
                size: if odd { 250 } else { 256 },
                bit_wear,
                file_backed,
                image,
                stuck,
                writes,
            },
        )
}

/// Bucket-shaped writes (80 B and 800 B, split at 16) mixed with
/// unaligned writes of up to 1 KiB, on a 2 KiB device with stuck bits
/// inside the long writes' range.
fn big_case() -> impl Strategy<Value = Case> {
    let write = prop_oneof![bucket_write(), write_case(BIG, BIG_LEN)];
    (
        (any::<bool>(), any::<bool>(), any::<bool>()),
        vec(any::<u8>(), BIG),
        vec((0usize..BIG / WORD, 0usize..64, any::<bool>()), 0..8),
        vec(write, 1..6),
    )
        .prop_map(
            |((odd, bit_wear, file_backed), image, stuck, writes)| Case {
                size: if odd { BIG - 6 } else { BIG },
                bit_wear,
                file_backed,
                image,
                stuck,
                writes,
            },
        )
}

fn check(case: &Case) -> Result<(), TestCaseError> {
    let fs = case.file_backed.then(SimFs::new);
    let mut cfg = NvmConfig::default()
        .with_size(case.size)
        .with_bit_wear(case.bit_wear);
    if let Some(fs) = &fs {
        cfg = cfg.with_backing(DeviceBacking::File(fs.open("data", Open::Create).unwrap()));
    }
    let mut dev = NvmDevice::open(cfg).unwrap();
    let mut model = Model::new(case.size, case.bit_wear);

    // An arbitrary old image, then the stuck bits on top of it.
    let image = &case.image[..case.size];
    let got = dev.write_split(0, image, WriteMode::Raw, 0).unwrap();
    prop_assert_eq!(got, model.write(0, image, WriteMode::Raw, 0));
    for &(word, bit, at_one) in &case.stuck {
        if word * WORD + bit / 8 < case.size {
            dev.arm_stuck_bit(word, bit as u32, at_one).unwrap();
            model.arm_stuck_bit(word, bit, at_one);
        }
    }

    for w in &case.writes {
        let addr = w.addr.min(case.size - 1);
        let len = w.len.min(case.size - addr);
        let old = &model.cells[addr..addr + len];
        let new: Vec<u8> = match w.payload {
            Payload::Fresh => w.bytes[..len].to_vec(),
            Payload::Same => old.to_vec(),
            Payload::Sparse => old
                .iter()
                .zip(&w.bytes)
                .map(|(&o, &r)| if r < 32 { o ^ (1 << (r % 8)) } else { o })
                .collect(),
        };
        let mode = if w.raw {
            WriteMode::Raw
        } else {
            WriteMode::Diff
        };

        // The preview the store used to take before a whole write.
        let preview = (w.split <= len && mode == WriteMode::Diff && w.tear.is_none())
            .then(|| dev.diff_stats(addr + w.split, &new[w.split..]).unwrap());
        if let Some(words) = w.tear {
            dev.arm_torn_write(words);
            model.torn_words = Some(words);
        }

        let got = dev.write_split(addr, &new, mode, w.split).unwrap();
        let want = model.write(addr, &new, mode, w.split);
        prop_assert_eq!(got, want, "stats of {:?} at {}+{}", mode, addr, len);
        if let Some(preview) = preview {
            prop_assert_eq!(got.1, preview, "tail vs diff_stats");
        }
        prop_assert_eq!(dev.to_image(), &model.cells[..]);
        prop_assert_eq!(dev.wear().word_writes(), &model.word_writes[..]);
        prop_assert_eq!(dev.wear().bit_flips(), model.bit_flips.as_deref());
        prop_assert_eq!(dev.stats(), &model.stats);
        prop_assert_eq!(dev.is_crashed(), model.crashed);
        if model.crashed {
            dev.recover();
            model.crashed = false;
        }
        if let Some(fs) = &fs {
            dev.sync().unwrap();
            // The reserved first page, the cells, then the per-word wear
            // counters, each from a page boundary.
            let file = fs.read("data").unwrap();
            let cells = &file[4096..4096 + case.size];
            prop_assert_eq!(cells, &model.cells[..], "backing file cells");
            let counters = file[4096 + case.size.next_multiple_of(4096)..].chunks_exact(4);
            let counters: Vec<u32> =
                counters.map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
            let words = model.word_writes.len();
            prop_assert_eq!(
                &counters[..words],
                &model.word_writes[..],
                "backing file counters"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn write_kernel_matches_the_bytewise_model(case in case()) {
        check(&case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn write_kernel_matches_the_model_at_bucket_size(case in big_case()) {
        check(&case)?;
    }
}

/// The issue's named corner cases, pinned so they run whatever the RNG
/// draws: a one-byte write, a split inside a word, a tail that ends before
/// the write does (torn), and a write ending at an odd device end.
#[test]
fn pinned_corner_cases() {
    let base = Case {
        size: 250,
        bit_wear: true,
        file_backed: true,
        image: (0..=255u8).collect(),
        stuck: vec![(2, 5, true), (31, 3, false)],
        writes: Vec::new(),
    };
    let w = |addr, len, split, tear| WriteCase {
        addr,
        len,
        split,
        raw: false,
        payload: Payload::Fresh,
        bytes: vec![0xA5; MAX_LEN],
        tear,
    };
    let case = Case {
        writes: vec![
            w(13, 1, 0, None),
            w(3, 30, 11, None),
            w(16, 48, 16, Some(1)),
            w(16, 48, 16, Some(4)),
            w(245, 5, 2, None),
            w(0, 0, 0, None),
        ],
        ..base
    };
    check(&case).unwrap();
}

/// Bucket-size writes pinned the same way: both bucket shapes split after
/// the header, over stuck bits inside the value; a 1 KiB write starting
/// and ending inside a word; a long write torn in its middle; a sparse
/// rewrite of a whole 800 B bucket. Bit wear on, file-backed.
#[test]
fn pinned_bucket_size_cases() {
    let w = |addr, len, split, payload, tear| WriteCase {
        addr,
        len,
        split,
        raw: false,
        payload,
        bytes: (0..BIG_LEN).map(|i| (i * 7 + 3) as u8).collect(),
        tear,
    };
    let case = Case {
        size: BIG - 6,
        bit_wear: true,
        file_backed: true,
        image: (0..BIG).map(|i| (i * 13) as u8).collect(),
        stuck: vec![
            (12, 5, true),
            (20, 63, false),
            (150, 0, true),
            (199, 31, false),
        ],
        writes: vec![
            w(80, 80, HEADER, Payload::Fresh, None),
            w(800, 800, HEADER, Payload::Fresh, None),
            w(800, 800, HEADER, Payload::Sparse, None),
            w(3, 1024, 517, Payload::Fresh, None),
            w(1021, 1017, 9, Payload::Sparse, None),
            w(805, 1000, 40, Payload::Fresh, Some(61)),
            w(0, 800, HEADER, Payload::Same, None),
        ],
    };
    check(&case).unwrap();
}

/// Whole bucket images at both line phases a bucket start takes — an 80 B
/// bucket at line offset 0 and 32, an 800 B one at 0 and 32 — fresh,
/// sparse and unchanged, split after the header, with bit wear and stuck
/// bits off (so a CPU with AVX-512 takes the line-run step), on a plain
/// and a file-backed device.
#[test]
fn pinned_bucket_images_at_both_line_phases() {
    let w = |addr, len, payload| WriteCase {
        addr,
        len,
        split: HEADER,
        raw: false,
        payload,
        bytes: (0..BIG_LEN).map(|i| (i * 11 + 5) as u8).collect(),
        tear: None,
    };
    let mut writes = Vec::new();
    for (addr, len) in [(0, 80), (160, 80), (0, 800), (800, 800)] {
        assert!(addr % LINE == 0 || addr % LINE == 32);
        for payload in [Payload::Fresh, Payload::Sparse, Payload::Same] {
            writes.push(w(addr, len, payload));
        }
    }
    for file_backed in [false, true] {
        let case = Case {
            size: BIG,
            bit_wear: false,
            file_backed,
            image: (0..BIG).map(|i| (i * 13) as u8).collect(),
            stuck: Vec::new(),
            writes: writes.clone(),
        };
        check(&case).unwrap();
    }
}
