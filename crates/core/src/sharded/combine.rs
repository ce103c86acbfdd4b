//! The write frontend: flat combining over each shard's bounded command
//! queue, and the batched [`Store::apply`](crate::Store::apply) built on
//! it. See the [module docs](super) for the concurrency model.

use std::sync::atomic::{fence, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use pnw_nvm_sim::WriteStats;

use super::{ModelState, Shard, ShardedPnwStore};
use crate::api::{Batch, BatchReport, Op};
use crate::error::StoreError;
use crate::metrics::OpReport;
use crate::shard::ShardEngine;

/// The rendezvous between a queued writer and the combiner that executes
/// its command: the combiner fills `done` with the reply and signals `cv`.
pub(super) struct OpSlot<T> {
    pub(super) done: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> OpSlot<T> {
    pub(super) fn new() -> Self {
        OpSlot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fill(&self, reply: T) {
        *self.done.lock().unwrap() = Some(reply);
        self.cv.notify_one();
    }
}

/// What one batch group produced.
pub(super) struct GroupReply {
    /// Report fragment; its failure indices are the ones the group was
    /// handed (batch positions inline, local positions when queued).
    frag: BatchReport,
    /// Device-stats delta the group produced.
    delta: WriteStats,
    /// Modeled NVM latency of that delta.
    modeled: Duration,
}

/// A write command queued for a shard's current combiner. Owns its
/// operands (the submitting thread's borrows can't cross the handoff)
/// and the slot its reply goes to.
pub(super) enum OwnedOp {
    Put {
        key: u64,
        value: Vec<u8>,
        expires_at_ms: u64,
        slot: Arc<OpSlot<Result<OpReport, StoreError>>>,
    },
    Delete {
        key: u64,
        slot: Arc<OpSlot<Result<bool, StoreError>>>,
    },
    /// One shard's slice of a [`Batch`], executed as a single group.
    Group {
        ops: Vec<Op>,
        slot: Arc<OpSlot<GroupReply>>,
    },
}

/// One batch group against a held engine: its report fragment and the
/// device delta it produced.
fn exec_group(
    eng: &mut ShardEngine,
    ops: &[Op],
    idxs: impl Iterator<Item = usize> + Clone,
    due: &mut bool,
) -> GroupReply {
    let mut frag = BatchReport::default();
    let before = eng.device_stats().clone();
    *due |= eng.apply_group(ops, idxs, &mut frag);
    let delta = eng.device_stats().since(&before).totals;
    let modeled = eng.device().modeled_write_cost(&delta);
    GroupReply {
        frag,
        delta,
        modeled,
    }
}

/// Folds one group's reply into the batch report; `batch_idx` maps the
/// fragment's failure indices to batch positions.
fn absorb_group(report: &mut BatchReport, reply: GroupReply, batch_idx: impl Fn(usize) -> usize) {
    report.puts += reply.frag.puts;
    report.deletes += reply.frag.deletes;
    report.deleted_existing += reply.frag.deleted_existing;
    report.write_stats += reply.delta;
    report.modeled_latency += reply.modeled;
    let failures = reply.frag.failures.into_iter();
    report
        .failures
        .extend(failures.map(|(i, e)| (batch_idx(i), e)));
}

impl ShardedPnwStore {
    /// The one write frontend. If shard `sid`'s engine `try_lock` wins,
    /// `run` executes inline and this thread then *drains the shard's
    /// command queue* as its combiner; if the engine is held, `held`
    /// decides instead (it queues the command's owned form for whoever
    /// holds the engine). `run` reports through its flag whether it made
    /// retraining due; the retrain policy then runs here, after the engine
    /// is released — or, with `defer_retrain`, is left to the caller (a
    /// batch runs it once, after all its groups).
    #[inline]
    pub(super) fn combine_or<T>(
        &self,
        sid: usize,
        defer_retrain: Option<&mut bool>,
        run: impl FnOnce(&mut ShardEngine, &mut bool) -> T,
        held: impl FnOnce() -> T,
    ) -> T {
        let sh = &self.shards[sid];
        let Ok(mut eng) = sh.engine.try_lock() else {
            return held();
        };
        let mut due = false;
        let reply = run(&mut eng, &mut due);
        due |= sh.drain(&mut eng);
        drop(eng);
        if let Some(deferred) = defer_retrain {
            *deferred |= std::mem::take(&mut due);
        }
        sh.finish_write(&self.model, due);
        reply
    }

    /// Queues the `owned` form of a command for whoever holds shard `sid`'s
    /// engine and returns the slot the reply will arrive through
    /// ([`ShardedPnwStore::await_slot`]).
    fn queue<T>(
        &self,
        sid: usize,
        owned: impl FnOnce(Arc<OpSlot<T>>) -> OwnedOp,
    ) -> Result<Arc<OpSlot<T>>, StoreError> {
        let slot = Arc::new(OpSlot::new());
        self.enqueue(sid, owned(Arc::clone(&slot)))?;
        Ok(slot)
    }

    /// One op through the frontend: run inline, or queued and waited for.
    #[inline]
    pub(super) fn write<T>(
        &self,
        sid: usize,
        run: impl FnOnce(&mut ShardEngine, &mut bool) -> Result<T, StoreError>,
        owned: impl FnOnce(Arc<OpSlot<Result<T, StoreError>>>) -> OwnedOp,
    ) -> Result<T, StoreError> {
        self.combine_or(sid, None, run, || {
            let slot = self.queue(sid, owned)?;
            self.await_slot(&self.shards[sid], &slot)
        })
    }

    /// Pushes a command onto the shard's bounded queue, or rejects it with
    /// [`StoreError::Backpressure`] — naming the shard and its queue depth
    /// — when the combiner is saturated.
    pub(super) fn enqueue(&self, sid: usize, op: OwnedOp) -> Result<(), StoreError> {
        let sh = &self.shards[sid];
        let mut q = sh.queue.lock().unwrap();
        if q.len() >= sh.queue_cap {
            return Err(StoreError::Backpressure {
                shard: sid,
                depth: q.len(),
            });
        }
        q.push_back(op);
        sh.queue_depth.store(q.len(), Ordering::SeqCst);
        drop(q);
        // Pairs with the fence in `finish_write`: the depth store is
        // ordered before this writer's next engine `try_lock`.
        fence(Ordering::SeqCst);
        Ok(())
    }

    /// Waits for a queued command's reply, opportunistically becoming the
    /// combiner if the engine frees up first (which also executes our own
    /// queued command). The timed wait bounds the window where a combiner
    /// released the engine between our queue push and its final drain.
    fn await_slot<T>(&self, sh: &Shard, slot: &OpSlot<T>) -> T {
        loop {
            if let Some(reply) = slot.done.lock().unwrap().take() {
                return reply;
            }
            if let Ok(mut eng) = sh.engine.try_lock() {
                let due = sh.drain(&mut eng);
                drop(eng);
                sh.finish_write(&self.model, due);
                continue;
            }
            let done = slot.done.lock().unwrap();
            if done.is_some() {
                continue;
            }
            let _ = slot.cv.wait_timeout(done, self.slot_wait).unwrap();
        }
    }
}

impl Shard {
    /// Executes every queued command against the held engine (the flat
    /// combining drain). Returns whether any op made retraining due.
    #[inline]
    fn drain(&self, eng: &mut ShardEngine) -> bool {
        let mut due = false;
        // An empty queue costs one load, not a lock: a push racing this
        // read is `finish_write`'s to catch, after the engine is released.
        while self.queue_depth.load(Ordering::SeqCst) != 0 {
            let op = {
                let mut q = self.queue.lock().unwrap();
                let op = q.pop_front();
                self.queue_depth.store(q.len(), Ordering::SeqCst);
                op
            };
            let Some(op) = op else { break };
            match op {
                OwnedOp::Put {
                    key,
                    value,
                    expires_at_ms,
                    slot,
                } => slot.fill(eng.put_and_extend(key, &value, expires_at_ms, true, &mut due)),
                OwnedOp::Delete { key, slot } => slot.fill(eng.delete(key)),
                OwnedOp::Group { ops, slot } => {
                    slot.fill(exec_group(eng, &ops, 0..ops.len(), &mut due))
                }
            }
        }
        due
    }

    /// Post-release duties of a combiner: run the retrain policy (never
    /// while holding the engine — lock order), then close the race window
    /// where a writer queued between our last drain and the lock release.
    /// Waiters also self-recover via their timed wait, so one recheck is
    /// enough.
    ///
    /// The recheck reads the depth counter, not the queue. No push is
    /// missed: the writer does *push, store depth, fence, `try_lock`*, the
    /// combiner *unlock, fence, load depth*. The two `SeqCst` fences are
    /// totally ordered; if the writer's comes first this load sees its
    /// push, and if ours comes first its `try_lock` sees the engine free
    /// (or held by a later combiner, which owes the same recheck).
    #[inline]
    pub(super) fn finish_write(&self, model: &ModelState, due: bool) {
        if due {
            model.retrain_due();
        }
        fence(Ordering::SeqCst);
        if self.queue_depth.load(Ordering::SeqCst) != 0 {
            if let Ok(mut eng) = self.engine.try_lock() {
                let due = self.drain(&mut eng);
                drop(eng);
                if due {
                    model.retrain_due();
                }
            }
        }
    }

    /// Runs `f` under the engine lock, waiting for it, and leaves the way a
    /// combiner does: every command queued meanwhile is served before the
    /// release, and [`Shard::finish_write`] runs after it. The store's
    /// worker takes every engine lock through here, so a writer queued
    /// behind it never sleeps out its timed wait.
    pub(super) fn locked<R>(&self, model: &ModelState, f: impl FnOnce(&mut ShardEngine) -> R) -> R {
        let poisoned = "a writer panicked while holding the shard engine";
        let mut eng = self.engine.lock().expect(poisoned);
        let reply = f(&mut eng);
        let due = self.drain(&mut eng);
        drop(eng);
        self.finish_write(model, due);
        reply
    }
}

impl ShardedPnwStore {
    /// [`Store::apply`](crate::Store::apply): the batch is grouped by
    /// shard and each shard's group goes through the write frontend — one
    /// engine acquisition per group, inline or through the shard's
    /// combiner.
    pub(super) fn apply_batch(&self, batch: &Batch) -> BatchReport {
        let mut report = BatchReport::default();
        // Group op indices by shard with one counting sort (two flat
        // arrays, no per-shard Vec allocations), preserving batch order
        // within each shard — ops on one key always route to one shard,
        // so per-key order is exactly submission order.
        let ops = batch.ops();
        let n_shards = self.shards.len();
        let mut shard_of_op: Vec<u32> = Vec::with_capacity(ops.len());
        let mut counts = vec![0usize; n_shards + 1];
        for op in ops {
            let sid = self.shard_of(op.key());
            shard_of_op.push(sid as u32);
            counts[sid + 1] += 1;
        }
        for sid in 0..n_shards {
            counts[sid + 1] += counts[sid];
        }
        let mut ordered = vec![0u32; ops.len()];
        let mut cursor = counts.clone();
        for (i, &sid) in shard_of_op.iter().enumerate() {
            ordered[cursor[sid as usize]] = i as u32;
            cursor[sid as usize] += 1;
        }
        // The retrain policy runs once, after all groups.
        let mut retrain_due = false;
        // Shard groups whose engine was contended, awaiting a combiner.
        let mut pending = Vec::new();
        for sid in 0..n_shards {
            let idxs = &ordered[counts[sid]..counts[sid + 1]];
            if idxs.is_empty() {
                continue;
            }
            let batch_idxs = idxs.iter().map(|&i| i as usize);
            let group = self.combine_or(
                sid,
                Some(&mut retrain_due),
                |eng, due| Ok(exec_group(eng, ops, batch_idxs.clone(), due)),
                || {
                    Err(self.queue(sid, |slot| OwnedOp::Group {
                        ops: batch_idxs.clone().map(|i| ops[i].clone()).collect(),
                        slot,
                    }))
                },
            );
            match group {
                // Run inline over the batch's own ops: the fragment's
                // failure indices are batch positions already.
                Ok(reply) => absorb_group(&mut report, reply, |i| i),
                Err(Ok(slot)) => pending.push((sid, slot, idxs)),
                Err(Err(e)) => report.failures.extend(batch_idxs.map(|i| (i, e.clone()))),
            }
        }
        for (sid, slot, idxs) in pending {
            // The queued group saw local indices 0..len; map back to
            // batch positions.
            let reply = self.await_slot(&self.shards[sid], &slot);
            absorb_group(&mut report, reply, |local| idxs[local] as usize);
        }
        if retrain_due {
            self.model.retrain_due();
        }
        // Shard grouping visits ops out of submission order; report
        // failures by batch index regardless.
        report.failures.sort_by_key(|&(i, _)| i);
        report
    }
}
