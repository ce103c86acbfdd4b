//! The model's footprint in the engine: the snapshot `Arc`, the cached
//! content labels, installing a new model — with or without a label pass
//! made ahead of it — and the training snapshot.
//!
//! A label is a placement hint, never a correctness input: a wrong one
//! costs bit flips, not data. What keeps labels *right* is one rule — a
//! cached label is valid for as long as the bucket's value bytes and the
//! installed model both stay put:
//!
//! * exactly three sites write value bytes — `place_sealed`,
//!   `put_in_place` and `prefill_free_buckets` (relocation goes through
//!   `place`, and so through `place_sealed`); a delete only clears the
//!   flag byte and invalidates nothing;
//! * a synchronous install ([`ShardEngine::install_model`]) discards every
//!   cached label and re-predicts the free buckets under the engine lock;
//! * a background install ([`ShardEngine::install_labelled`]) arrives with
//!   labels the worker thread predicted lock-free while writers kept
//!   writing. [`ShardEngine::begin_label_pass`] starts a *rewritten-since*
//!   record under the engine lock before the pass reads anything; the three
//!   sites mark it, under the lock, before they touch the device; the
//!   install reads it under the lock. So a label computed from torn or
//!   stale bytes can only belong to a bucket whose mark is set, and is
//!   thrown away — the pass itself needs no seqlock validation.

use std::sync::Arc;

use super::{value_addr, ShardEngine, LABEL_STALE};
use crate::error::PnwError;
use crate::model::{stride_sample, ModelSnapshot};

impl ShardEngine {
    /// Labels `bucket`'s stored content under the current snapshot
    /// (Algorithm 3 lines 3–4), predicting straight from the device cells —
    /// no copy, no allocation, no device statistics, and the PUT's own
    /// scores in `scratch` left alone.
    #[inline]
    pub(super) fn label_stored(&mut self, bucket: u32) -> Result<usize, PnwError> {
        let vaddr = value_addr(self.layout.addr(bucket));
        let value = self.dev.peek(vaddr, self.cfg.value_size)?;
        Ok(self.model.predict_into(value, &mut self.label_scratch))
    }

    /// `bucket`'s content label: the cached one when it is still valid
    /// (same model, content untouched since — prediction is deterministic,
    /// so it *is* what lines 3–4 would compute, without the value peek or
    /// the distance scan), otherwise predicted now. The flag says whether a
    /// prediction was made.
    #[inline]
    pub(super) fn content_label(&mut self, bucket: u32) -> Result<(usize, bool), PnwError> {
        let cached = self.labels[bucket as usize];
        if cached != LABEL_STALE && (cached as usize) < self.model.k() {
            return Ok((cached as usize, false));
        }
        Ok((self.label_stored(bucket)?, true))
    }

    /// [`ShardEngine::content_label`] for each of `buckets`, and how many
    /// of them had to be predicted.
    pub(super) fn labels_of(&mut self, buckets: Vec<u32>) -> (Vec<(u32, usize)>, usize) {
        let mut predicted = 0;
        let labelled = buckets
            .into_iter()
            .map(|b| {
                let (label, fresh) = self.content_label(b).expect("bucket in range");
                predicted += usize::from(fresh);
                (b, label)
            })
            .collect();
        (labelled, predicted)
    }

    /// Collects a training snapshot: the contents of all data-zone buckets
    /// (Algorithm 1 trains on "all the available data in the NVM storage"),
    /// subsampled to `cap` values.
    pub fn training_values(&self, cap: usize) -> Vec<Vec<u8>> {
        let idx = stride_sample(self.active_buckets, cap);
        idx.iter()
            .map(|&b| {
                let vaddr = value_addr(self.layout.addr(b as u32));
                let value = self.dev.peek(vaddr, self.cfg.value_size);
                value.expect("bucket in range").to_vec()
            })
            .collect()
    }

    /// Starts the rewritten-since record of a label pass (replacing any
    /// earlier one) and returns how many buckets the pass is to label: the
    /// active zone as of now. O(1) under the engine lock — the pass itself
    /// runs without it.
    pub(crate) fn begin_label_pass(&mut self) -> usize {
        self.rewritten = Some(vec![0; self.layout.buckets().div_ceil(64)]);
        self.active_buckets
    }

    /// Drops the rewritten-since record of a pass whose result will not be
    /// installed here.
    pub(crate) fn abandon_label_pass(&mut self) {
        self.rewritten = None;
    }

    /// `bucket`'s value bytes are about to change: its cached label no
    /// longer describes them, and a label pass in flight must not trust
    /// what it read there. Call before the device write, at every site
    /// that writes value bytes.
    #[inline]
    pub(super) fn mark_rewritten(&mut self, bucket: u32) {
        self.labels[bucket as usize] = LABEL_STALE;
        if let Some(marks) = &mut self.rewritten {
            marks[bucket as usize / 64] |= 1 << (bucket % 64);
        }
    }

    /// Publishes a freshly-trained model snapshot to this shard: swaps the
    /// `Arc` and relabels all free buckets under the new centroids, both
    /// under the shard lock the caller already holds — readers of this
    /// shard can never see the pool and the model out of sync. Returns how
    /// many predictions that took.
    pub fn install_model(&mut self, snapshot: Arc<ModelSnapshot>) -> usize {
        self.install(snapshot, None).1
    }

    /// [`ShardEngine::install_model`] with the labels a pass begun by
    /// [`ShardEngine::begin_label_pass`] predicted under `snapshot`: they
    /// become the cached labels, minus every bucket rewritten since the
    /// pass began and every bucket it did not cover, and the pool is
    /// rebuilt from them — only the stale free buckets are predicted here.
    /// Returns `(stale, predicted)`. With the record gone (recovery ran
    /// since the pass began) the whole pass is stale.
    pub(crate) fn install_labelled(
        &mut self,
        snapshot: Arc<ModelSnapshot>,
        labels: &[u16],
    ) -> (usize, usize) {
        self.install(snapshot, Some(labels))
    }

    fn install(&mut self, snapshot: Arc<ModelSnapshot>, labels: Option<&[u16]>) -> (usize, usize) {
        self.model = snapshot;
        let mut stale = 0;
        match (labels, self.rewritten.take()) {
            (Some(labels), Some(marks)) => {
                let covered = labels.len().min(self.labels.len());
                self.labels[..covered].copy_from_slice(&labels[..covered]);
                self.labels[covered..].fill(LABEL_STALE);
                for (w, &word) in marks.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        let b = w * 64 + word.trailing_zeros() as usize;
                        word &= word - 1;
                        stale += usize::from(b < covered);
                        self.labels[b] = LABEL_STALE;
                    }
                }
                stale += self.active_buckets.saturating_sub(covered);
            }
            (labels, _) => {
                // Cached labels were computed under the previous model;
                // Algorithm 3 labels under the *current* one, so they all
                // go stale and refresh lazily on the next delete/overwrite.
                stale = labels.map_or(0, <[u16]>::len);
                self.labels.fill(LABEL_STALE);
            }
        }
        // The pool, in its own order, under the new labels (Algorithm 1
        // lines 4–5).
        let free = self.pool.drain_all();
        let (relabeled, predicted) = self.labels_of(free);
        let k = self.model.k();
        self.rebuild_pool_tiered(k, relabeled);
        (stale, predicted)
    }

    /// The shard's current model snapshot.
    pub fn model(&self) -> &Arc<ModelSnapshot> {
        &self.model
    }

    /// Whether a label pass's rewritten-since record is open.
    #[cfg(test)]
    pub(crate) fn label_pass_running(&self) -> bool {
        self.rewritten.is_some()
    }

    /// The label-consistency checker: every free bucket sits in the pool
    /// list of the cluster the current model predicts for its stored
    /// bytes, and every tenant's cached label is stale or that prediction.
    #[cfg(test)]
    pub(crate) fn check_labels(&self) {
        let stored = |b: u32| {
            let vaddr = value_addr(self.layout.addr(b));
            let value = self.dev.peek(vaddr, self.cfg.value_size);
            self.model.predict(value.expect("bucket in range"))
        };
        let mut free = 0;
        for (cluster, b) in self.pool.entries() {
            assert_eq!(cluster, stored(b), "free bucket {b} is in the wrong list");
            free += 1;
        }
        assert_eq!(free, self.pool.free());
        for b in 0..self.active_buckets as u32 {
            let cached = self.labels[b as usize];
            if cached != LABEL_STALE && self.tenant(b).expect("bucket in range").is_some() {
                assert_eq!(
                    cached as usize,
                    stored(b),
                    "live bucket {b} has a wrong label"
                );
            }
        }
    }
}
