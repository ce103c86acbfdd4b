//! The [`Store`] contract as one oracle: a `BTreeMap` reference model, a
//! small op language, a lockstep runner that checks a backend against the
//! model after every op, and a minimizer that prints the shortest failing
//! script as Rust. Differential, model-based random testing (McKeeman,
//! 1998; Claessen and Hughes, QuickCheck, 2000): however a backend places
//! a PUT, what it answers must match the model. A contract cell is a short
//! script run through [`check`]; the random suite is [`fuzz`].

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use pnw_baselines::{FpTreeLike, NoveLsmLike, PathHashStore};
use pnw_core::{now_unix_ms, BackingMode, Batch, IndexPlacement, PnwConfig, PnwStore};
use pnw_core::{RetrainMode, Store, StoreError};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One op of a script. A value is named by its fill byte ([`value`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Put(u64, u8),
    /// `put_with_expiry`, the deadline past (`true`) or an hour out.
    PutExpiring(u64, u8, bool),
    Get(u64),
    GetInto(u64),
    Delete(u64),
    /// Inclusive `scan(lo, hi)`; inverted bounds are legal and empty.
    Scan(u64, u64),
    /// `apply` of a batch of `Put`, `Delete` and `PutWrongSize` ops.
    Apply(Vec<Step>),
    /// A `put` of a half-size value.
    PutWrongSize(u64),
    /// A `get_into` with a half-size buffer.
    GetIntoWrongSize(u64),
    // PNW maintenance, which changes no answer (a scrub pass reclaims
    // expired keys) and which other backends skip: `retrain_now()`;
    // `retrain_in_background()` then `wait_for_retrain()`; `scrub_pass()`;
    // `crash_and_recover()`; a durable store dropped without a checkpoint,
    // or `close`d, then reopened; `checkpoint()`; `extend_zone(n)`.
    Retrain,
    BackgroundRetrain,
    Scrub,
    Crash,
    Reopen,
    CloseReopen,
    Checkpoint,
    ExtendZone(usize),
    /// Latches bit `.1` of key `.0`'s stored value at the value it holds,
    /// then `scrub_pass()`: the scrub moves the intact value off the stuck
    /// media and retires the bucket, which leaves the store one bucket
    /// smaller.
    StuckScrub(u64, u32),
}
use Step::*;

/// The value a fill byte names: distinct bytes, so a backend that moves,
/// truncates or mixes bytes cannot pass as a uniform fill.
pub(super) fn value(fill: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| fill ^ (i as u8).wrapping_mul(0x1D)).collect()
}

/// How a baseline store is built from its capacity and value size.
type NewStore = fn(usize, usize) -> Box<dyn Store>;

/// A backend under test.
pub struct Backend {
    /// Shown in every failure.
    pub name: String,
    /// Which baseline store; `None` is the PNW store.
    baseline: Option<NewStore>,
    pub(super) cfg: PnwConfig,
}

impl Backend {
    /// The PNW store built from `cfg`; durable when `cfg` has a path,
    /// which every run starts by emptying.
    pub fn pnw(name: &str, cfg: PnwConfig) -> Self {
        Backend { name: name.into(), baseline: None, cfg }
    }

    pub(super) fn dir(&self) -> Option<&PathBuf> {
        let BackingMode::File(dir) = &self.cfg.backing else { return None };
        Some(dir)
    }

    fn build(&self) -> Result<Inst, String> {
        Ok(match self.baseline {
            Some(new) => Inst::Other(new(self.cfg.capacity, self.cfg.value_size)),
            None => Inst::Pnw(Box::new(PnwStore::open(self.cfg.clone()).map_err(failed("open"))?)),
        })
    }
}

/// The three baseline stores at the given geometry.
pub fn baselines(capacity: usize, value_size: usize) -> [Backend; 3] {
    let stores: [(&str, NewStore); 3] = [
        ("FPTree-like", |c, v| Box::new(FpTreeLike::new(c, v))),
        ("NoveLSM-like", |c, v| Box::new(NoveLsmLike::new(c, v))),
        ("PathHashStore", |c, v| Box::new(PathHashStore::new(c, v))),
    ];
    let cfg = PnwConfig::new(capacity, value_size);
    stores.map(|(name, new)| Backend { name: name.into(), baseline: Some(new), cfg: cfg.clone() })
}

/// A directory for a durable backend, unique to this process and `tag`.
pub fn durable_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pnw_oracle_{}_{tag}", std::process::id()))
}

/// The random suite's PNW geometry: 32 buckets of 8 bytes per shard, so
/// every key [`fuzz`] draws fits even if all route to one shard.
pub fn pnw_cfg(shards: usize) -> PnwConfig {
    PnwConfig::new(32 * shards, 8).with_clusters(3).with_seed(17).with_shards(shards)
}

/// PNW at 2 shards with TTL and background retrains. No scrub rate: the
/// worker never reclaims an expired key on its own, only a `Scrub` step
/// does, so the reference can follow.
pub fn ttl_background() -> Backend {
    let cfg = pnw_cfg(2).with_ttl().with_load_factor(0.25).with_retrain(RetrainMode::Background);
    Backend::pnw("PNW, 2 shards, TTL, background retrain", cfg)
}

/// File-backed PNW at 2 shards with TTL, in the directory `tag` names.
pub fn durable_ttl(tag: &str) -> Backend {
    let cfg = pnw_cfg(2).with_ttl().with_path(durable_dir(tag));
    Backend::pnw("durable PNW, 2 shards, TTL", cfg)
}

/// The nine backends of the random suite.
pub fn matrix(tag: &str) -> Vec<Backend> {
    let mut all = vec![
        Backend::pnw("PNW, 1 shard", pnw_cfg(1)),
        Backend::pnw("PNW, 4 shards", pnw_cfg(4)),
        Backend::pnw("PNW, 4 shards, NVM index", pnw_cfg(4).with_index(IndexPlacement::Nvm)),
        Backend::pnw("PNW, integrity off", pnw_cfg(1).with_integrity(false)),
        ttl_background(),
        durable_ttl(tag),
    ];
    all.extend(baselines(128, 8));
    all
}

/// The contract as a `BTreeMap`. A deadline is either past or an hour
/// out, so whether a key is expired is fixed when it is written. An
/// expired key reads as absent (GET, `get_into`, SCAN) but still counts
/// in `len()` and `live` until it is reclaimed: by a scrub pass, by a
/// DELETE (which returns `false`) or by an overwrite. Only DELETE hits
/// count as deletes.
struct Model {
    /// key → (value, expired).
    map: BTreeMap<u64, (Vec<u8>, bool)>,
    ttl: bool,
    /// Where a PUT of a new key must report `Full`: known exactly for a
    /// one-shard PNW store without reserve, open elsewhere.
    capacity: Option<usize>,
    value_size: usize,
    /// `[puts, gets, deletes]` since the last crash or reopen.
    counts: [u64; 3],
}

impl Model {
    fn put(&mut self, key: u64, value: Vec<u8>, past: bool) -> Result<(), StoreError> {
        if value.len() != self.value_size {
            return Err(self.wrong_size());
        }
        if !self.map.contains_key(&key) && Some(self.map.len()) == self.capacity {
            return Err(StoreError::Full);
        }
        self.map.insert(key, (value, self.ttl && past));
        self.counts[0] += 1;
        Ok(())
    }

    fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        self.counts[1] += 1;
        self.map.get(&key).filter(|(_, expired)| !expired).map(|(v, _)| v.clone())
    }

    fn delete(&mut self, key: u64) -> bool {
        let hit = matches!(self.map.remove(&key), Some((_, false)));
        self.counts[2] += u64::from(hit);
        hit
    }

    fn scan(&self, lo: u64, hi: u64) -> Vec<(u64, Vec<u8>)> {
        if lo > hi {
            return Vec::new();
        }
        let live = self.map.range(lo..=hi).filter(|(_, (_, expired))| !expired);
        live.map(|(k, (v, _))| (*k, v.clone())).collect()
    }

    /// What a half-size value or buffer gets.
    fn wrong_size(&self) -> StoreError {
        StoreError::WrongValueSize { expected: self.value_size, got: self.value_size / 2 }
    }
}

enum Inst {
    Pnw(Box<PnwStore>),
    Other(Box<dyn Store>),
    Gone,
}

/// A backend as a script left it; dropping it removes a durable one's
/// directory.
pub struct Live {
    inst: Inst,
    dir: Option<PathBuf>,
}

impl Live {
    /// The backend through the trait.
    pub fn store(&self) -> &dyn Store {
        match &self.inst {
            Inst::Pnw(s) => s.as_ref(),
            Inst::Other(s) => s.as_ref(),
            Inst::Gone => unreachable!("a store is swapped out only inside a reopen"),
        }
    }

    /// The PNW store, when the backend is one.
    pub fn pnw(&self) -> Option<&PnwStore> {
        let Inst::Pnw(s) = &self.inst else { return None };
        Some(s)
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.inst = Inst::Gone;
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn same<T: PartialEq + Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    let diverged = || format!("{what}: backend {got:?}, reference {want:?}");
    (got == want).then_some(()).ok_or_else(diverged)
}

fn failed(what: &'static str) -> impl Fn(StoreError) -> String {
    move |e| format!("{what}: {e}")
}

struct Runner<'a> {
    backend: &'a Backend,
    live: Live,
    model: Model,
    /// The backend's `[puts, gets, deletes]` at its last crash or reopen.
    base: [u64; 3],
}

impl<'a> Runner<'a> {
    fn start(backend: &'a Backend) -> Result<Self, String> {
        let (cfg, dir) = (&backend.cfg, backend.dir().cloned());
        if let Some(dir) = &dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let live = Live { inst: backend.build()?, dir };
        let pnw = backend.baseline.is_none();
        let model = Model {
            map: BTreeMap::new(),
            ttl: pnw && cfg.ttl_enabled,
            capacity: (pnw && cfg.shards == 1 && cfg.reserve_buckets == 0).then_some(cfg.capacity),
            value_size: cfg.value_size,
            counts: [0; 3],
        };
        let s = live.store();
        same("value_size", s.value_size(), model.value_size)?;
        same("supports_ttl", s.supports_ttl(), model.ttl)?;
        if let Inst::Pnw(p) = &live.inst {
            same("is_durable", p.is_durable(), live.dir.is_some())?;
        }
        let mut runner = Runner { backend, live, model, base: [0; 3] };
        runner.rebase();
        runner.audit().map(|()| runner)
    }

    /// `len()`, `live` and the counters since the last crash or reopen.
    fn audit(&self) -> Result<(), String> {
        let (s, m) = (self.live.store(), &self.model);
        let snap = s.snapshot();
        same("len()", (s.len(), s.is_empty()), (m.map.len(), m.map.is_empty()))?;
        same("snapshot live", snap.live, m.map.len())?;
        let counts = [snap.puts, snap.gets, snap.deletes];
        let delta = [0, 1, 2].map(|i| counts[i].wrapping_sub(self.base[i]));
        same("snapshot [puts, gets, deletes] since the last crash or reopen", delta, m.counts)
    }

    /// Every key the reference holds reads back, whatever the script
    /// read last.
    fn read_back(&mut self) -> Result<(), String> {
        let keys: Vec<u64> = self.model.map.keys().copied().collect();
        for k in keys {
            let got = self.live.store().get(k);
            same(&format!("get({k}) after the last step"), got, Ok(self.model.get(k)))?;
        }
        Ok(())
    }

    fn rebase(&mut self) {
        let snap = self.live.store().snapshot();
        (self.base, self.model.counts) = ([snap.puts, snap.gets, snap.deletes], [0; 3]);
    }

    fn step(&mut self, step: &Step) -> Result<(), String> {
        let vs = self.model.value_size;
        let (s, m) = (self.live.store(), &mut self.model);
        let (v, half) = (|fill| value(fill, vs), vec![0; vs / 2]);
        match *step {
            Put(k, fill) => same("put", s.put(k, &v(fill)).map(drop), m.put(k, v(fill), false)),
            PutExpiring(k, fill, past) => {
                let deadline = if past { 1 } else { now_unix_ms() + 3_600_000 };
                let got = s.put_with_expiry(k, &v(fill), deadline).map(drop);
                same("put_with_expiry", got, m.put(k, v(fill), past))
            }
            PutWrongSize(k) => same("put", s.put(k, &half).map(drop), Err(m.wrong_size())),
            Get(k) => same("get", s.get(k), Ok(m.get(k))),
            GetInto(k) => {
                let mut buf = vec![0; vs];
                let got = s.get_into(k, &mut buf).map(|hit| hit.then_some(buf));
                same("get_into", got, Ok(m.get(k)))
            }
            GetIntoWrongSize(k) => {
                same("get_into", s.get_into(k, &mut half.clone()), Err(m.wrong_size()))
            }
            Delete(k) => same("delete", s.delete(k), Ok(m.delete(k))),
            Scan(lo, hi) => same("scan", s.scan(lo, hi), Ok(m.scan(lo, hi))),
            Apply(ref ops) => {
                let (mut batch, mut want) = (Batch::new(), (0, 0, 0, Vec::new()));
                for (i, op) in ops.iter().enumerate() {
                    let (key, v) = match *op {
                        Put(k, fill) => (k, v(fill)),
                        PutWrongSize(k) => (k, half.clone()),
                        Delete(k) => {
                            batch.delete(k);
                            (want.1, want.2) = (want.1 + 1, want.2 + u64::from(m.delete(k)));
                            continue;
                        }
                        ref other => panic!("{other:?} is not a batch op"),
                    };
                    batch.put(key, &v);
                    match m.put(key, v, false) {
                        Ok(()) => want.0 += 1,
                        Err(e) => want.3.push((i, e)),
                    }
                }
                let r = s.apply(&batch);
                let got = (r.puts, r.deletes, r.deleted_existing, r.failures);
                same("apply (puts, deletes, deleted_existing, failures)", got, want)
            }
            _ => self.maintain(step),
        }?;
        self.audit()
    }

    /// A maintenance step: a no-op where the backend has no such thing.
    fn maintain(&mut self, step: &Step) -> Result<(), String> {
        let Inst::Pnw(s) = &self.live.inst else {
            return Ok(());
        };
        match step {
            Retrain => drop(s.retrain_now().map_err(failed("retrain_now"))?),
            BackgroundRetrain => {
                s.retrain_in_background();
                s.wait_for_retrain();
            }
            Scrub => {
                s.scrub_pass().map_err(failed("scrub_pass"))?;
                self.model.map.retain(|_, (_, expired)| !*expired);
            }
            Crash => {
                s.crash_and_recover().map_err(failed("crash_and_recover"))?;
                self.rebase();
            }
            Checkpoint => s.checkpoint().map_err(failed("checkpoint"))?,
            ExtendZone(n) => drop(s.extend_zone(*n)),
            StuckScrub(k, bit) => {
                let retired = s.snapshot().scrub.retired;
                let bit_of = |v: &Vec<u8>| v[*bit as usize / 8] >> (bit % 8) & 1;
                let stored = self.model.map.get(k).map(|(v, _)| bit_of(v));
                let armed = s.arm_stuck_at_key(*k, *bit, stored == Some(1));
                same("arm_stuck_at_key", armed, Ok(stored.is_some()))?;
                s.scrub_pass().map_err(failed("scrub_pass"))?;
                self.model.map.retain(|_, (_, expired)| !*expired);
                let retired = s.snapshot().scrub.retired - retired;
                if let Some(c) = &mut self.model.capacity {
                    *c -= retired as usize;
                }
            }
            Reopen | CloseReopen if self.live.dir.is_some() => {
                let Inst::Pnw(s) = std::mem::replace(&mut self.live.inst, Inst::Gone) else {
                    unreachable!()
                };
                // The old store lets go of the directory before the new
                // one opens it: two live stores on one directory are
                // refused.
                match step {
                    CloseReopen => s.close().map_err(failed("close"))?,
                    _ => drop(s),
                }
                self.live.inst = self.backend.build()?;
                self.rebase();
            }
            _ => {}
        }
        Ok(())
    }
}

/// Runs `script` on a fresh `backend` in lockstep with the reference.
/// `Err` names the first divergent step; a panic is a divergence too.
pub fn run(backend: &Backend, script: &[Step]) -> Result<Live, String> {
    let steps = || {
        let mut runner = Runner::start(backend)?;
        for (i, step) in script.iter().enumerate() {
            runner.step(step).map_err(|e| format!("step {i}, {step:?}: {e}"))?;
        }
        runner.read_back()?;
        Ok(runner.live)
    };
    catch_unwind(AssertUnwindSafe(steps)).unwrap_or_else(|panic| {
        let msg = panic.downcast_ref::<String>().map(String::as_str);
        Err(format!("panicked: {}", msg.or(panic.downcast_ref::<&str>().copied()).unwrap_or("")))
    })
}

/// Runs `script` through [`run`]; on a divergence, panics with the
/// shortest failing script. Returns the backend as the script left it.
pub fn check(backend: &Backend, script: &[Step]) -> Live {
    run(backend, script).unwrap_or_else(|why| fail(backend, script, why, ""))
}

fn fail(backend: &Backend, script: &[Step], why: String, context: &str) -> ! {
    let (min, why) = minimize(backend, script.to_vec(), why);
    let rust = format!("vec!{min:?}").replace("Apply([", "Apply(vec![");
    let sizes = format!("{} of {} steps", min.len(), script.len());
    panic!("{}{context}: {why}\nshortest failing script ({sizes}):\n    {rust}\n", backend.name)
}

/// Shrinks a failing script: keeps either half while one fails, then
/// drops one step at a time while the rest fails, until neither helps.
fn minimize(backend: &Backend, mut script: Vec<Step>, mut why: String) -> (Vec<Step>, String) {
    let mut shrunk = true;
    while shrunk {
        shrunk = false;
        while script.len() > 1 {
            let half = script.len() / 2;
            let halves = [script[..half].to_vec(), script[half..].to_vec()];
            let failing = |h: Vec<Step>| Some(h.clone()).zip(run(backend, &h).err());
            let Some((h, e)) = halves.into_iter().find_map(failing) else {
                break;
            };
            (script, why, shrunk) = (h, e, true);
        }
        let mut i = 0;
        while i < script.len() {
            let mut cand = script.clone();
            cand.remove(i);
            match run(backend, &cand) {
                Err(e) => (script, why, shrunk) = (cand, e, true),
                Ok(_) => i += 1,
            }
        }
    }
    (script, why)
}

/// Random cases per backend in the tier-1 suite.
pub const CASES: u64 = 60;

/// Keys: mostly a dense range, sometimes the extremes of the key space.
fn key(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..12u8) {
        0 => [0, u64::MAX, 1 << 40][rng.gen_range(0..3usize)],
        _ => rng.gen_range(1..21u64),
    }
}

fn random_step(rng: &mut StdRng, pnw: bool, durable: bool) -> Step {
    let batch_op = |rng: &mut StdRng| match rng.gen_range(0..10u8) {
        0..=5 => Put(key(rng), rng.gen()),
        6..=8 => Delete(key(rng)),
        _ => PutWrongSize(key(rng)),
    };
    loop {
        return match rng.gen_range(0..100u8) {
            0..=24 => Put(key(rng), rng.gen()),
            25..=32 => PutExpiring(key(rng), rng.gen(), rng.gen()),
            33..=44 => Get(key(rng)),
            45..=52 => GetInto(key(rng)),
            53..=64 => Delete(key(rng)),
            65..=66 => Scan(0, u64::MAX),
            67..=72 => Scan(key(rng), key(rng)),
            73..=78 => Apply((0..rng.gen_range(1..7)).map(|_| batch_op(rng)).collect()),
            79..=80 => PutWrongSize(key(rng)),
            81..=82 => GetIntoWrongSize(key(rng)),
            83..=84 if pnw => Retrain,
            85 if pnw => BackgroundRetrain,
            86..=88 if pnw => Scrub,
            89..=91 if pnw => Crash,
            92..=94 if durable => Reopen,
            95..=96 if durable => CloseReopen,
            97 if durable => Checkpoint,
            98 if pnw => ExtendZone(rng.gen_range(1..5)),
            _ => continue,
        };
    }
}

/// Checks `cases` seeded random scripts of up to 80 steps on `backend`
/// (maintenance steps only where it has them); the first divergence
/// panics with its case number and shortest failing script.
pub fn fuzz(backend: &Backend, cases: u64) {
    let (pnw, durable) = (backend.baseline.is_none(), backend.dir().is_some());
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(0x0AC1E ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let script: Vec<Step> =
            (0..rng.gen_range(1..=80)).map(|_| random_step(&mut rng, pnw, durable)).collect();
        if let Err(why) = run(backend, &script) {
            fail(backend, &script, why, &format!(", random case {case}"));
        }
    }
}
