//! The write frontend: flat combining over each shard's bounded command
//! queue, the [`Hold`] every engine acquisition goes through, and the
//! batched [`Store::apply`](crate::Store::apply) built on it. See the
//! [module docs](super) for the concurrency model.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{fence, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{MutexGuard, TryLockError};
use std::time::Duration;

use pnw_nvm_sim::WriteStats;

use super::{ModelState, Shard, ShardedPnwStore};
use crate::api::{Batch, BatchReport, Op};
use crate::error::StoreError;
use crate::metrics::OpReport;
use crate::shard::ShardEngine;

/// What a panic while holding an engine leaves behind: a poisoned mutex.
const POISONED: &str = "a writer panicked while holding the shard engine";

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

/// A write command queued for whoever holds a shard's engine. Owns its
/// operands (the submitting thread's borrows can't cross the handoff)
/// and the one-shot sender its reply goes to.
pub(super) enum OwnedOp {
    Put {
        key: u64,
        value: Vec<u8>,
        expires_at_ms: u64,
        reply: SyncSender<Result<OpReport, StoreError>>,
    },
    Delete {
        key: u64,
        reply: SyncSender<Result<bool, StoreError>>,
    },
    /// One shard's slice of a [`Batch`], executed as a single group.
    Group {
        ops: Vec<Op>,
        reply: SyncSender<GroupReply>,
    },
}

/// A held shard engine, from [`Shard::hold`] or [`Shard::try_hold`] — the
/// only way `sharded` code takes one. Letting go is what makes the holder
/// the shard's combiner: it serves every command queued behind it, unlocks,
/// then rechecks the queue until it reads empty or another holder has the
/// engine, and finally runs the retrain policy if an op made it due.
pub(super) struct Hold<'a> {
    shard: &'a Shard,
    model: &'a ModelState,
    /// The engine until the release lets go of it.
    pub(super) eng: Option<MutexGuard<'a, ShardEngine>>,
    /// Whether an op run under this hold made retraining due.
    due: bool,
}

impl<'a> Hold<'a> {
    #[inline]
    fn of(shard: &'a Shard, model: &'a ModelState, eng: MutexGuard<'a, ShardEngine>) -> Self {
        Hold {
            shard,
            model,
            eng: Some(eng),
            due: false,
        }
    }

    /// The engine, and the flag an op sets when it makes retraining due.
    #[inline]
    fn parts(&mut self) -> (&mut ShardEngine, &mut bool) {
        let eng = self.eng.as_deref_mut().expect("held until released");
        (eng, &mut self.due)
    }
}

impl Deref for Hold<'_> {
    type Target = ShardEngine;

    fn deref(&self) -> &ShardEngine {
        self.eng.as_deref().expect("held until released")
    }
}

impl DerefMut for Hold<'_> {
    fn deref_mut(&mut self) -> &mut ShardEngine {
        self.parts().0
    }
}

impl Drop for Hold<'_> {
    /// No push is missed: a queueing writer does *push, store depth,
    /// fence, `try_hold`*, the release *unlock, fence, load depth*. The two
    /// `SeqCst` fences are totally ordered; if the writer's comes first the
    /// load sees its push, and if ours comes first its `try_hold` sees the
    /// engine free (or held by a later holder, which owes the same
    /// recheck). A hold dropped while its thread panics only unlocks:
    /// running queued commands during unwinding could only panic again.
    #[inline]
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let sh = self.shard;
        if let Some(mut eng) = self.eng.take() {
            self.due |= sh.drain(&mut eng);
        }
        loop {
            fence(Ordering::SeqCst);
            if sh.queue_depth.load(Ordering::SeqCst) == 0 {
                break;
            }
            let Ok(mut eng) = sh.engine.try_lock() else {
                break;
            };
            self.due |= sh.drain(&mut eng);
        }
        if self.due {
            self.model.retrain_due();
        }
    }
}

impl Shard {
    /// Holds the engine, waiting for it. Panics if a holder panicked.
    pub(super) fn hold<'a>(&'a self, model: &'a ModelState) -> Hold<'a> {
        let eng = self.engine.lock().expect(POISONED);
        Hold::of(self, model, eng)
    }

    /// Holds the engine if it is free; `None` while another thread holds
    /// it. Panics if a holder panicked.
    #[inline]
    pub(super) fn try_hold<'a>(&'a self, model: &'a ModelState) -> Option<Hold<'a>> {
        match self.engine.try_lock() {
            Ok(eng) => Some(Hold::of(self, model, eng)),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(_)) => panic!("{POISONED}"),
        }
    }

    /// Executes every queued command against the held engine (the flat
    /// combining drain). Returns whether any op made retraining due.
    #[inline]
    fn drain(&self, eng: &mut ShardEngine) -> bool {
        let mut due = false;
        // An empty queue costs one load, not a lock: a push racing this
        // read is the release recheck's to catch, after the unlock.
        while self.queue_depth.load(Ordering::SeqCst) != 0 {
            let op = {
                let mut q = self.queue.lock().unwrap();
                let op = q.pop_front();
                self.queue_depth.store(q.len(), Ordering::SeqCst);
                op
            };
            let Some(op) = op else { break };
            // A reply's receiver outlives the command unless its writer is
            // gone; then there is no one left to tell.
            let _ = match op {
                OwnedOp::Put {
                    key,
                    value,
                    expires_at_ms,
                    reply,
                } => reply
                    .send(eng.put_and_extend(key, &value, expires_at_ms, true, &mut due))
                    .is_ok(),
                OwnedOp::Delete { key, reply } => reply.send(eng.delete(key)).is_ok(),
                OwnedOp::Group { ops, reply } => {
                    let group = exec_group(eng, &ops, 0..ops.len(), &mut due);
                    reply.send(group).is_ok()
                }
            };
        }
        due
    }
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

/// Blocks until the holder that runs a queued command sends its reply.
fn await_reply<T>(answer: Receiver<T>) -> T {
    answer
        .recv()
        .expect("the shard's holder panicked while running this queued command")
}

impl ShardedPnwStore {
    /// The one write frontend. If shard `sid`'s engine is free, `run`
    /// executes inline under a [`Hold`], whose release serves the shard's
    /// command queue and runs the retrain policy if `run` (through its
    /// flag) or a queued op made it due. If the engine is held, `held`
    /// decides instead (it queues the command's owned form for whoever
    /// holds the engine).
    #[inline]
    pub(super) fn combine_or<T>(
        &self,
        sid: usize,
        run: impl FnOnce(&mut ShardEngine, &mut bool) -> T,
        held: impl FnOnce() -> T,
    ) -> T {
        let Some(mut hold) = self.shards[sid].try_hold(&self.model) else {
            return held();
        };
        let (eng, due) = hold.parts();
        run(eng, due)
    }

    /// Queues the `owned` form of a command for whoever holds shard `sid`'s
    /// engine and returns where its reply will arrive.
    fn queue<T>(
        &self,
        sid: usize,
        owned: impl FnOnce(SyncSender<T>) -> OwnedOp,
    ) -> Result<Receiver<T>, StoreError> {
        // Room for the one reply, so sending it never waits.
        let (reply, answer) = sync_channel(1);
        self.enqueue(sid, owned(reply))?;
        // The writer's half of the hand-off: if the holder let go before
        // the push was visible, the engine is free now and this hold's
        // release serves the command.
        drop(self.shards[sid].try_hold(&self.model));
        Ok(answer)
    }

    /// One op through the frontend: run inline, or queued and waited for.
    #[inline]
    pub(super) fn write<T>(
        &self,
        sid: usize,
        run: impl FnOnce(&mut ShardEngine, &mut bool) -> Result<T, StoreError>,
        owned: impl FnOnce(SyncSender<Result<T, StoreError>>) -> OwnedOp,
    ) -> Result<T, StoreError> {
        self.combine_or(sid, run, || await_reply(self.queue(sid, owned)?))
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
        // Pairs with the fence in a hold's release: the depth store is
        // ordered before this writer's next `try_hold`.
        fence(Ordering::SeqCst);
        Ok(())
    }

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
                |eng, due| Ok(exec_group(eng, ops, batch_idxs.clone(), due)),
                || {
                    Err(self.queue(sid, |reply| OwnedOp::Group {
                        ops: batch_idxs.clone().map(|i| ops[i].clone()).collect(),
                        reply,
                    }))
                },
            );
            match group {
                // Run inline over the batch's own ops: the fragment's
                // failure indices are batch positions already.
                Ok(reply) => absorb_group(&mut report, reply, |i| i),
                Err(Ok(answer)) => pending.push((answer, idxs)),
                Err(Err(e)) => report.failures.extend(batch_idxs.map(|i| (i, e.clone()))),
            }
        }
        for (answer, idxs) in pending {
            // The queued group saw local indices 0..len; map back to
            // batch positions.
            let reply = await_reply(answer);
            absorb_group(&mut report, reply, |local| idxs[local] as usize);
        }
        // Shard grouping visits ops out of submission order; report
        // failures by batch index regardless.
        report.failures.sort_by_key(|&(i, _)| i);
        report
    }
}
