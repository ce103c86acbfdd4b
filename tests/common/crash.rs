//! The crash matrix (`docs/ARCHITECTURE.md`, *The crash matrix*): one
//! seeded script per durable configuration, run on a simulated file
//! system ([`SimFs`]), a crash armed at every write k of every site —
//! each shard's device, and each file: the checkpoints' write-back into
//! each data file, the WAL, superblock and checkpoint files — each torn
//! three or four ways, and a power loss at every sync k, losing every
//! unsynced write or a seeded subset of its pages; then a reopen and one
//! set of checks. Enumerating crash states, not sampling them, is what
//! finds the ordering bugs a hand-picked kill point misses (Pillai et
//! al., "All File Systems Are Not Created Equal", OSDI 2014).
//!
//! The script ends in `close`, which fails on a store whose device or
//! file system died, so "the crash fired" is "`close` failed" (the
//! unarmed script fails no step). After the reopen: per key, bit-exact,
//! the state the last acknowledged op left — a failed op counts only in
//! the step the crash fired in, and only when its record may be on file:
//! a WAL tear landed it whole, or tore a later record of its batch, or a
//! power loss kept unsynced pages; no read answers an error; `scan`
//! equals the point GETs and `len()` counts them; no bucket leaked or
//! retired but under a latched stuck bit; a put/get/delete round, `close`
//! and a second reopen work. Every configuration places, commits, then
//! publishes (`shard/placement.rs`), the NVM index too. The one exception:
//! an update that fails in the dry-pool retry (its pool dry, it commits
//! its delete and places the value afresh, on its own vacated bucket) may
//! leave its key absent, the relocation crash window `shard/placement.rs`
//! documents.
//!
//! [`walk_recovery`] crashes the first checkpoint after a recovery, the
//! one that writes back what recovery rewrote, at each of its writes and
//! syncs; the reopen must read exactly what one clean recovery reads.
//! [`walk_create`] crashes a fresh store's creation at each of its writes
//! and syncs; the reopen must never be refused, and must give an empty
//! store that runs the script to a clean close.

use std::collections::BTreeMap;
use std::sync::Arc;

use pnw_core::{now_unix_ms, Batch, IndexPlacement, PnwConfig, PnwStore};
use pnw_core::{Store, StoreError};
use pnw_nvm_sim::{Fs, Open, SimFs};

use super::oracle::{self, value, Backend, Step, Step::*};

/// Where a crash lands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Site {
    /// One shard's device: a bucket, flag, expiry or index-region write.
    Device(usize),
    /// The writes to the files whose names start with this prefix:
    /// `"wal."`, one counter across every shard's WAL, its records and
    /// the empty WALs a checkpoint puts in their place; `"super"`;
    /// `"checkpoint."`; `"data.<i>"`, the runs of dirty pages a checkpoint
    /// writes back into shard i's data file before its superblock names
    /// the new epoch.
    File(&'static str),
    /// The sync calls, of every file and of the directory: the power is
    /// cut at one, which makes nothing durable.
    PowerLoss,
}

/// The WAL, superblock and checkpoint files, and each shard's data file.
pub const WAL: Site = Site::File("wal.");
pub const SUPERBLOCK: Site = Site::File("super");
pub const CHECKPOINT: Site = Site::File("checkpoint.");
pub const WRITE_BACKS: [Site; 4] =
    [Site::File("data.0"), Site::File("data.1"), Site::File("data.2"), Site::File("data.3")];

/// How much of the torn write lands before the store dies; of a power
/// loss, how much of what no sync made durable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tear {
    Nothing,
    /// Words of a device write, bytes of a file write.
    Prefix(usize),
    /// The whole write; the store dies right after it.
    Whole,
    /// The unsynced 4 KiB pages this seed keeps.
    Pages(u64),
}

impl Tear {
    /// The words or bytes of the torn write that land. `Whole` keeps more
    /// than any write here carries.
    fn keep(self) -> usize {
        match self {
            Tear::Nothing | Tear::Pages(_) => 0,
            Tear::Prefix(n) => n,
            Tear::Whole => 1 << 20,
        }
    }
}

impl Site {
    pub fn tears(self) -> &'static [Tear] {
        match self {
            Site::Device(_) => &[Tear::Nothing, Tear::Prefix(1), Tear::Whole],
            Site::File(_) => &[Tear::Nothing, Tear::Prefix(3), Tear::Prefix(13), Tear::Whole],
            Site::PowerLoss => &[Tear::Nothing, Tear::Pages(29)],
        }
    }

    /// Arms `tear` at write (or sync) `k` of this site, of `store` on `fs`.
    pub fn arm(self, store: &PnwStore, fs: &SimFs, k: u64, tear: Tear) {
        match self {
            Site::Device(shard) => store.arm_torn_write_after(shard, k, tear.keep()),
            _ => self.arm_files(fs, k, tear),
        }
    }

    /// Arms `tear` at write (or sync) `k` of this file or power-loss site
    /// of `fs`.
    pub fn arm_files(self, fs: &SimFs, k: u64, tear: Tear) {
        match self {
            Site::Device(_) => panic!("a device site arms a store"),
            Site::File(prefix) => fs.tear(prefix, k, tear.keep()),
            Site::PowerLoss => {
                let seed = match tear {
                    Tear::Pages(seed) => Some(seed),
                    _ => None,
                };
                fs.cut_power(k, seed)
            }
        }
    }
}

/// Opens the store of `cfg` on `fs`.
pub fn open(cfg: &PnwConfig, fs: &SimFs) -> Result<PnwStore, StoreError> {
    PnwStore::open_in(cfg.clone(), Arc::new(fs.clone()))
}

/// The matrix's four durable configurations, in directories `tag` names
/// (the script and the check against the host's file system use them).
/// 8-byte values and few buckets keep the script short: a shard of its own
/// holds the script's dozen keys, a shard of several about half of them.
pub fn configs(tag: &str) -> [Backend; 4] {
    let cfg = |buckets: usize, shards: usize, name: &str| {
        let dir = oracle::durable_dir(&format!("crash_{tag}_{name}"));
        let cfg = PnwConfig::new(buckets * shards, 8).with_clusters(2).with_seed(17);
        cfg.with_shards(shards).with_path(dir)
    };
    [
        Backend::pnw("1 shard, DRAM index", cfg(12, 1, "dram")),
        Backend::pnw("4 shards, DRAM index", cfg(6, 4, "sharded")),
        Backend::pnw("1 shard, NVM index", cfg(12, 1, "nvm").with_index(IndexPlacement::Nvm)),
        Backend::pnw("2 shards, TTL, reserve", cfg(6, 2, "ttl").with_ttl().with_reserve(4)),
    ]
}

/// The seeded script's commit-first update and delete, with room in the
/// pool: the steps right after its six fresh puts.
pub const UPDATE: usize = 6;
pub const DELETE: usize = UPDATE + 1;

/// The script one configuration crashes in. It holds no path: any
/// backend of the same configuration runs it.
pub struct Script {
    pub steps: Vec<Step>,
    /// An update on a shard whose pool is dry: it takes the dry-pool retry.
    dry_pool: Option<usize>,
    /// A freshly opened store's files, which every run starts from a
    /// snapshot of.
    fresh: SimFs,
    /// The deadline of a put that expires an hour out, fixed once so that
    /// every run writes the same bytes.
    an_hour_out: u64,
}

impl Script {
    /// Fresh puts; a commit-first update and delete; TTL puts, one deadline
    /// past and one an hour out; a batch; a checkpoint and a WAL suffix
    /// over it; a zone extension; a scrub relocation off a stuck bit that
    /// agrees with the value; then shard 0 filled until a fresh key no
    /// longer fits, an update there, and a delete. The prefix is checked
    /// against the `Store` oracle, and sizes the fill; the clean close
    /// checks the whole script.
    pub fn of(backend: &Backend) -> Script {
        let mut steps: Vec<Step> = (1..=UPDATE as u64).map(|k| Put(k, 0x10 * k as u8)).collect();
        steps.extend([Put(2, 0x2A), Delete(3), Get(2)]);
        steps.extend([PutExpiring(7, 0x77, true), PutExpiring(8, 0x88, false)]);
        steps.push(Apply(vec![Put(9, 0x99), Put(10, 0xA0), Delete(4), Put(2, 0x2B)]));
        steps.extend([Checkpoint, Put(11, 0xB0), Put(5, 0x5C), Delete(6)]);
        steps.extend([ExtendZone(4), StuckScrub(5, 9)]);

        let live = oracle::check(backend, &steps);
        let store = live.pnw().expect("a PNW backend");
        let vs = backend.cfg.value_size;
        let mut fill = Vec::new();
        for k in (100..).filter(|&k| store.shard_of_key(k) == 0) {
            match store.put(k, &value(k as u8, vs)) {
                Ok(_) => fill.push(k),
                Err(StoreError::Full) => break,
                Err(e) => panic!("{}: filling shard 0: {e}", backend.name),
            }
        }
        // Full from the pool, not from an index out of slots: only shard
        // 0 has no free bucket.
        let free = store.snapshot().free;
        let others_free = backend.cfg.shards > 1;
        assert!(fill.len() >= 2 && (free == 0 || others_free), "{}: filled {fill:?}", backend.name);
        drop(live);
        steps.extend(fill.iter().map(|&k| Put(k, k as u8)));
        let dry_pool = Some(steps.len());
        steps.extend([Put(fill[0], 0xF0), Delete(fill[1]), Scan(0, u64::MAX)]);
        Script { steps, dry_pool, ..Script::new(backend) }
    }

    /// No steps yet, on a freshly opened store of `backend`'s configuration.
    pub fn new(backend: &Backend) -> Script {
        let fresh = SimFs::new();
        drop(open(&backend.cfg, &fresh).expect("fresh open"));
        let an_hour_out = now_unix_ms() + 3_600_000;
        Script { steps: Vec::new(), dry_pool: None, fresh, an_hour_out }
    }

    /// `steps` on this script's fresh store: a script that fills no pool,
    /// so no update of it takes the dry-pool retry.
    pub fn with(&self, steps: Vec<Step>) -> Script {
        let (fresh, an_hour_out) = (self.fresh.snapshot(), self.an_hour_out);
        Script { steps, dry_pool: None, fresh, an_hour_out }
    }

    /// Every key the script touches, and a few it never does.
    fn keys(&self) -> Vec<u64> {
        let mut keys = vec![0, 999, u64::MAX];
        for step in &self.steps {
            match step {
                Put(k, _) | PutExpiring(k, ..) | Delete(k) => keys.push(*k),
                Apply(ops) => keys.extend(ops.iter().map(|op| match op {
                    Put(k, _) | Delete(k) => *k,
                    other => panic!("{other:?} in a crash script batch"),
                })),
                _ => {}
            }
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

/// What one key may read after a crash (`None`: absent or expired).
#[derive(Default)]
struct History {
    /// The state the last acknowledged op on the key left.
    acked: Option<Vec<u8>>,
    /// States unacknowledged ops sent since, whose WAL records the tear
    /// may have landed whole.
    landed: Vec<Option<Vec<u8>>>,
    /// A failed dry-pool update may leave the key absent.
    may_vanish: bool,
}

/// A store driven through a script while it may be dying: what every op
/// sent, and whether each was acknowledged.
struct Dying {
    keys: BTreeMap<u64, History>,
    /// Buckets the scrub steps could retire: one per stuck bit armed.
    retirable: u64,
    vs: usize,
    ttl: bool,
    an_hour_out: u64,
    crash: Option<Crash>,
    /// Whether the crash, firing in the step being sent, may leave a
    /// failed op's record on file: a WAL tear that keeps the whole write
    /// or tears a later record of the step's batch, or a power loss that
    /// keeps unsynced pages.
    landing: bool,
    /// A step has failed: the store died, and no later record lands.
    died: bool,
}

impl Dying {
    fn new(cfg: &PnwConfig, script: &Script, crash: Option<Crash>) -> Self {
        let (vs, ttl, an_hour_out) = (cfg.value_size, cfg.ttl_enabled, script.an_hour_out);
        let (keys, landing, died) = (BTreeMap::new(), false, false);
        Dying { keys, retirable: 0, vs, ttl, an_hour_out, crash, landing, died }
    }

    /// Records that an op sent `state` to `key`.
    fn sent(&mut self, key: u64, state: Option<Vec<u8>>, acked: bool) {
        let h = self.keys.entry(key).or_default();
        if acked {
            (h.acked, h.landed) = (state, Vec::new());
        } else if self.landing && !self.died {
            h.landed.push(state);
        }
    }

    /// Runs `step`; returns whether it failed.
    fn send(&mut self, s: &PnwStore, step: &Step) -> bool {
        self.landing = match self.crash {
            Some((WAL, _, tear)) => tear == Tear::Whole || matches!(step, Apply(_)),
            Some((Site::PowerLoss, _, tear)) => tear != Tear::Nothing,
            _ => false,
        };
        let vs = self.vs;
        let v = |fill| value(fill, vs);
        match *step {
            Put(k, fill) => {
                let ok = s.put(k, &v(fill)).is_ok();
                self.sent(k, Some(v(fill)), ok);
                !ok
            }
            PutExpiring(k, fill, past) => {
                let deadline = if past { 1 } else { self.an_hour_out };
                let ok = s.put_with_expiry(k, &v(fill), deadline).is_ok();
                self.sent(k, (!(past && self.ttl)).then(|| v(fill)), ok);
                !ok
            }
            Delete(k) => {
                let deleted = s.delete(k);
                // A dying shard may no longer know the key: no mutation.
                if !matches!(deleted, Ok(false)) {
                    self.sent(k, None, deleted.is_ok());
                }
                deleted.is_err()
            }
            Apply(ref ops) => {
                let mut batch = Batch::new();
                for op in ops {
                    match *op {
                        Put(k, fill) => batch.put(k, &v(fill)),
                        Delete(k) => batch.delete(k),
                        ref other => panic!("{other:?} in a crash script batch"),
                    };
                }
                let report = s.apply(&batch);
                let ok = |i| report.failures.iter().all(|(j, _)| *j != i);
                // A batch delete is acknowledged as a removal only if every
                // completed delete hit: which one missed is not reported.
                let deletes =
                    ops.iter().enumerate().filter(|(i, op)| matches!(op, Delete(_)) && ok(*i));
                let all_hit = report.deleted_existing == deletes.count() as u64;
                for (i, op) in ops.iter().enumerate() {
                    match *op {
                        Put(k, fill) => self.sent(k, Some(v(fill)), ok(i)),
                        Delete(k) => self.sent(k, None, ok(i) && all_hit),
                        _ => unreachable!(),
                    }
                }
                !report.failures.is_empty()
            }
            Get(k) => s.get(k).is_err(),
            Scan(lo, hi) => s.scan(lo, hi).is_err(),
            Checkpoint => s.checkpoint().is_err(),
            ExtendZone(n) => {
                s.extend_zone(n);
                false
            }
            StuckScrub(k, bit) => {
                let held = self.keys.get(&k).and_then(|h| h.acked.as_ref());
                let stored = held.map(|v| v[bit as usize / 8] >> (bit % 8) & 1);
                let armed = s.arm_stuck_at_key(k, bit, stored == Some(1));
                self.retirable += u64::from(armed == Ok(true));
                armed.is_err() | s.scrub_pass().is_err()
            }
            ref other => panic!("{other:?} in a crash script"),
        }
    }
}

/// A crash: the site, the write (or sync) index k and the tear.
pub type Crash = (Site, u64, Tear);

/// What one run of a script did.
pub struct Run {
    /// Whether the armed crash fired: `close` failed.
    pub fired: bool,
    /// The first step that failed.
    pub failed_at: Option<usize>,
    /// The device writes made by the end of each step, per shard, counted
    /// from the open as a tear's k counts them.
    pub writes: Vec<Vec<u64>>,
    /// The sync calls made by the end of each step, counted from the open
    /// as a power loss's k counts them.
    pub syncs: Vec<u64>,
}

/// Runs `script` on `store` to its end, recording in `dying` what each
/// step sent; returns the first step that failed.
fn drive(
    store: &PnwStore,
    script: &Script,
    dying: &mut Dying,
    mut done: impl FnMut(),
) -> Option<usize> {
    let mut failed_at = None;
    for (i, step) in script.steps.iter().enumerate() {
        if dying.send(store, step) {
            dying.died = true;
            failed_at.get_or_insert(i);
            if Some(i) == script.dry_pool {
                let Put(k, _) = *step else { unreachable!() };
                dying.keys.get_mut(&k).unwrap().may_vanish = true;
            }
        }
        done();
    }
    failed_at
}

/// Runs `script` with write `k` at `site` torn `tear` — with no `crash`,
/// unarmed — on a snapshot of its fresh store, and closes the store. When
/// the crash fired, or none was armed, and `check` is set, checks the
/// reopened store; a failed check panics with the configuration, the
/// crash and the first step that failed.
pub fn run(backend: &Backend, script: &Script, crash: Option<Crash>, check: bool) -> Run {
    let cfg = &backend.cfg;
    let fs = script.fresh.snapshot();
    let store = open(cfg, &fs).expect("open");
    if let Some((site, k, tear)) = crash {
        site.arm(&store, &fs, k, tear);
    }
    let written = || store.per_shard_device_stats().into_iter().map(|d| d.write_ops);
    let (base, synced): (Vec<u64>, _) = (written().collect(), fs.syncs());
    let mut dying = Dying::new(cfg, script, crash);
    let (mut writes, mut syncs) = (Vec::new(), Vec::new());
    let failed_at = drive(&store, script, &mut dying, || {
        writes.push(written().zip(&base).map(|(w, b)| w - b).collect());
        syncs.push(fs.syncs() - synced);
    });
    let fired = store.close().is_err();
    let at = match failed_at {
        Some(i) => format!("first failed step {i}, {:?}", script.steps[i]),
        None if fired => "no step failed; close did".into(),
        None => "closed cleanly".into(),
    };
    let cell = match crash {
        Some((site, k, tear)) => format!("crash at {site:?} write {k}, torn {tear:?} ({at})"),
        None => at,
    };
    let b = &backend.name;
    assert!(fired || failed_at.is_none(), "{b}: {cell}: close succeeded after a failed step");
    if check && (fired || crash.is_none()) {
        if let Err(why) = reopen(backend, script, &dying, &fs.reboot()) {
            panic!("{b}: {cell}: {why}");
        }
    }
    Run { fired, failed_at, writes, syncs }
}

/// The files a directory holds, by name.
pub type Files = BTreeMap<String, Vec<u8>>;

pub fn files(fs: &dyn Fs) -> Files {
    let names = fs.list().expect("the store's files");
    names.into_iter().map(|name| (name.clone(), fs.read(&name).expect("a file"))).collect()
}

/// A simulated directory holding `files`, synced.
pub fn sim_fs(files: &Files) -> SimFs {
    let fs = SimFs::new();
    for (name, bytes) in files {
        let file = fs.open(name, Open::Truncate).expect("a simulated file");
        file.write_at(bytes, 0).and_then(|()| file.sync_all()).expect("a simulated write");
    }
    fs.sync_dir().expect("a simulated directory");
    fs
}

/// Runs `script` unarmed to its `close` on the host's file system, in
/// `backend`'s directory, and on a simulated one; returns the files each
/// holds then. Both start from the same fresh store — its id is in every
/// file — dropped and reopened.
pub fn files_after_close(backend: &Backend, script: &Script) -> [Files; 2] {
    let dir = backend.dir().expect("a durable backend");
    let _ = std::fs::remove_dir_all(dir);
    drop(PnwStore::open(backend.cfg.clone()).expect("fresh open"));
    let host_fs = pnw_nvm_sim::OsFs::new(dir).expect("the store's directory");
    let fs = sim_fs(&files(&host_fs));
    let store = PnwStore::open(backend.cfg.clone()).expect("open");
    drive(&store, script, &mut Dying::new(&backend.cfg, script, None), || {});
    store.close().expect("close");
    let host = files(&host_fs);
    let _ = std::fs::remove_dir_all(dir);
    let store = open(&backend.cfg, &fs).expect("open");
    drive(&store, script, &mut Dying::new(&backend.cfg, script, None), || {});
    store.close().expect("close");
    [host, files(&fs)]
}

fn reopen(backend: &Backend, script: &Script, dying: &Dying, fs: &SimFs) -> Result<(), String> {
    let store = open(&backend.cfg, fs).map_err(|e| format!("reopen: {e}"))?;
    let keys = script.keys();
    let served = audit(&store, &keys, dying)?;
    let never_sent = History::default();
    for key in &keys {
        let (got, h) = (&served[key], dying.keys.get(key).unwrap_or(&never_sent));
        if !(got == &h.acked || h.landed.contains(got) || h.may_vanish && got.is_none()) {
            let (acked, landed) = (&h.acked, &h.landed);
            return Err(format!("key {key} reads {got:?}; acked {acked:?}, landed {landed:?}"));
        }
    }

    // The round: an update where a key survived (with the pool dry it
    // reuses the key's bucket), a fresh key otherwise.
    let k = keys.iter().copied().find(|k| served[k].is_some()).unwrap_or(999);
    let v = value(0xA5, backend.cfg.value_size);
    store.put(k, &v).map_err(|e| format!("round: put {k}: {e}"))?;
    same(&format!("round: get {k}"), store.get(k), Ok(Some(v)))?;
    same(&format!("round: delete {k}"), store.delete(k), Ok(true))?;
    same(&format!("round: get {k}"), store.get(k), Ok(None))?;
    store.close().map_err(|e| format!("round: close: {e}"))?;

    let store = open(&backend.cfg, fs).map_err(|e| format!("second reopen: {e}"))?;
    let mut want = served;
    want.insert(k, None);
    same("second reopen", audit(&store, &keys, dying)?, want)
}

/// What a reopened store serves on each key.
type Served = BTreeMap<u64, Option<Vec<u8>>>;

/// What `store` serves on `keys`, after the store-wide checks: no read
/// answers an error; `scan` equals the point GETs, and without TTL (an
/// expired key counts until reaped) `len()` counts them; no bucket leaked;
/// and no bucket retired but under a stuck bit — a crash retires no
/// healthy media.
fn audit(store: &PnwStore, keys: &[u64], dying: &Dying) -> Result<Served, String> {
    let mut served = BTreeMap::new();
    for &key in keys {
        served.insert(key, store.get(key).map_err(|e| format!("get {key}: {e:?}"))?);
    }
    let scan = store.scan(0, u64::MAX).map_err(|e| format!("scan: {e:?}"))?;
    let gets: Vec<_> = served.iter().filter_map(|(k, v)| Some((*k, v.clone()?))).collect();
    if !dying.ttl {
        same("len() against point GETs", store.len(), gets.len())?;
    }
    same("scan against point GETs", scan, gets)?;
    // No bucket leaked: each one of capacity is free or holds a live key.
    // A live key may also sit on a retired bucket, outside capacity: a
    // relocation off stuck media that the crash cut short.
    let snap = store.snapshot();
    let (free, capacity, live, retired) = (snap.free, snap.capacity, snap.live, snap.scrub.retired);
    let held = capacity.checked_sub(free);
    if !held.is_some_and(|h| (h..=h + retired as usize).contains(&live)) {
        return Err(format!("{free} free of {capacity} with {live} live, {retired} retired"));
    }
    if retired > dying.retirable {
        return Err(format!("{retired} buckets retired, {} stuck", dying.retirable));
    }
    Ok(served)
}

fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    let diverged = || format!("{what}: got {got:?}, expected {want:?}");
    (got == want).then_some(()).ok_or_else(diverged)
}

/// Runs every tear of write (or sync) `k` at `site`, checking each crash;
/// returns the first tear's run. The tears run in parallel, and fire
/// together or not at all.
pub fn cell(backend: &Backend, script: &Script, site: Site, k: u64) -> Run {
    let torn = |tear: Tear| run(backend, script, Some((site, k, tear)), true);
    let mut runs: Vec<(Tear, Run)> = std::thread::scope(|scope| {
        let spawned: Vec<_> =
            site.tears().iter().map(|&tear| scope.spawn(move || (tear, torn(tear)))).collect();
        spawned.into_iter().map(joined).collect()
    });
    let (_, first) = runs.remove(0);
    for (tear, other) in runs {
        let b = &backend.name;
        let fired = |f| if f { "fired" } else { "did not fire" };
        let (one, two) = (fired(first.fired), fired(other.fired));
        assert_eq!(one, two, "{b}: {site:?} write {k} {one} torn one way, {two} torn {tear:?}");
    }
    first
}

/// What a scoped thread returned; its panic, passed on.
fn joined<T>(thread: std::thread::ScopedJoinHandle<'_, T>) -> T {
    thread.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// The crash sites of `backend`: every shard's device, every shard's
/// write-back, the files, then the power loss.
pub fn sites(backend: &Backend) -> Vec<Site> {
    let shards = 0..backend.cfg.shards;
    let write_backs = WRITE_BACKS[shards.clone()].iter().copied();
    let files = [WAL, SUPERBLOCK, CHECKPOINT, Site::PowerLoss];
    shards.map(Site::Device).chain(write_backs).chain(files).collect()
}

/// Walks each of `sites`, in parallel; returns the writes (or syncs) per
/// site.
pub fn walk(backend: &Backend, script: &Script, sites: &[Site], stride: u64) -> Vec<(Site, u64)> {
    std::thread::scope(|scope| {
        let walks: Vec<_> = (sites.iter())
            .map(|&site| scope.spawn(move || (site, walk_site(backend, script, site, stride))))
            .collect();
        walks.into_iter().map(joined).collect()
    })
}

/// Walks `site` at k = 0, `stride`, 2·`stride`, … until a crash no
/// longer fires, then runs the site's last write (or sync) too: a
/// device's is the count the unfired run made there, and the power
/// loss's the syncs it made; the superblock and the checkpoint file take
/// one write per checkpoint, the script's and `close`'s; the WAL's and a
/// write-back's are found by bisecting. The full lane's stride of 1
/// checks each count. Returns how many writes (or syncs) the script
/// makes there.
fn walk_site(backend: &Backend, script: &Script, site: Site, stride: u64) -> u64 {
    let b = &backend.name;
    let mut k = 0;
    let unfired = loop {
        let first = cell(backend, script, site, k);
        if !first.fired {
            break first;
        }
        k += stride;
    };
    assert!(k > 0, "{b}: the script makes no write at {site:?}");
    let writes = match site {
        Site::Device(shard) => unfired.writes.last().map_or(0, |w| w[shard]),
        SUPERBLOCK | CHECKPOINT => {
            1 + script.steps.iter().filter(|s| matches!(s, Checkpoint)).count() as u64
        }
        Site::File(_) | Site::PowerLoss => {
            // Write `lo` fires, write `hi` does not.
            let (mut lo, mut hi) = (k - stride, k);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                let fired = run(backend, script, Some((site, mid, Tear::Nothing)), false).fired;
                *(if fired { &mut lo } else { &mut hi }) = mid;
            }
            hi
        }
    };
    assert!((k - stride + 1..=k).contains(&writes), "{b}: {writes} writes at {site:?}, to {k}");
    if writes - 1 > k - stride {
        let last = writes - 1;
        assert!(cell(backend, script, site, last).fired, "{b}: {site:?} write {last}");
    }
    writes
}

/// The first checkpoint after a recovery, the one that writes back what
/// recovery rewrote (redone PUTs, reconciled headers and NVM index): the
/// script's files killed at its end without `close`, and one clean
/// recovery's reads, to which a recovery after that checkpoint is held.
struct Recovery {
    killed: SimFs,
    /// Each key's history is the one state the clean recovery served.
    exact: Dying,
}

/// Runs `script` to its end, kills the store without `close`, checks one
/// clean recovery of its files against the script's histories, and keeps
/// what that recovery serves.
fn recovery(backend: &Backend, script: &Script) -> Recovery {
    let (cfg, b) = (&backend.cfg, &backend.name);
    let killed = script.fresh.snapshot();
    let store = open(cfg, &killed).expect("open");
    let mut exact = Dying::new(cfg, script, None);
    drive(&store, script, &mut exact, || {});
    drop(store);
    if let Err(why) = reopen(backend, script, &exact, &killed.snapshot()) {
        panic!("{b}: killed at the script's end: {why}");
    }
    let store = open(cfg, &killed.snapshot()).expect("a clean recovery");
    let served = audit(&store, &script.keys(), &exact).expect("audited above");
    let exact_history = |(key, acked)| (key, History { acked, ..History::default() });
    exact.keys = served.into_iter().map(exact_history).collect();
    Recovery { killed, exact }
}

/// Recovers `rec`'s files, then crashes the first checkpoint at write (or
/// sync) `k` of `site`, torn `tear`; when it fired and `check` is set,
/// checks the reopen against the clean recovery, bit-exact. Returns
/// whether it fired.
fn recovery_cell(
    backend: &Backend,
    script: &Script,
    rec: &Recovery,
    crash: Crash,
    check: bool,
) -> bool {
    let (site, k, tear) = crash;
    let fs = rec.killed.snapshot();
    let store = open(&backend.cfg, &fs).expect("the first recovery");
    site.arm(&store, &fs, k, tear);
    let fired = store.checkpoint().is_err();
    drop(store);
    if fired && check {
        if let Err(why) = reopen(backend, script, &rec.exact, &fs.reboot()) {
            let b = &backend.name;
            panic!("{b}: recovered, then the checkpoint's {site:?} write {k} torn {tear:?}: {why}");
        }
    }
    fired
}

/// The sites of the first checkpoint after a recovery: the data file's
/// write-back (its counter pages included), the checkpoint file, the
/// superblock, the WAL replacement, and each sync.
const RECOVERY_SITES: [Site; 5] =
    [WRITE_BACKS[0], CHECKPOINT, SUPERBLOCK, WAL, Site::PowerLoss];

/// Walks each of [`RECOVERY_SITES`] of the first checkpoint after
/// recovering `script`, killed at its end ([`walk_cells`]).
pub fn walk_recovery(backend: &Backend, script: &Script, stride: u64) -> Vec<(Site, u64)> {
    let rec = recovery(backend, script);
    let cell = |crash, check| recovery_cell(backend, script, &rec, crash, check);
    walk_cells(backend, &RECOVERY_SITES, stride, cell)
}

/// Walks each of `sites` in parallel, `cell(crash, check)` running one
/// crash and returning whether it fired: k = 0, `stride`, 2·`stride`, …
/// and the site's last write (or sync), each torn every way, the first
/// unfired k found unchecked. Returns the writes (or syncs) made at each
/// site.
fn walk_cells(
    backend: &Backend,
    sites: &[Site],
    stride: u64,
    cell: impl Fn(Crash, bool) -> bool + Sync,
) -> Vec<(Site, u64)> {
    let cell = &cell;
    std::thread::scope(|scope| {
        let walks: Vec<_> = (sites.iter())
            .map(|&site| {
                scope.spawn(move || {
                    let b = &backend.name;
                    let writes = (0..).find(|&k| !cell((site, k, Tear::Nothing), false)).unwrap();
                    assert!(writes > 0, "{b}: no write at {site:?}");
                    for k in (0..writes).filter(|&k| k % stride == 0 || k == writes - 1) {
                        for &tear in site.tears() {
                            let fired = cell((site, k, tear), true);
                            assert!(fired, "{b}: {site:?} write {k} did not fire");
                        }
                    }
                    (site, writes)
                })
            })
            .collect();
        walks.into_iter().map(joined).collect()
    })
}

/// The writes of a fresh store's creation to every data file: its
/// header, and the first checkpoint's write-back.
pub const DATA_FILES: Site = Site::File("data.");

/// The sites of a fresh store's creation: the data files, the checkpoint
/// file, the superblock, each WAL reset (the WALs of epoch 0, then those of
/// epoch 1), and each sync.
pub const CREATE_SITES: [Site; 5] = [DATA_FILES, CHECKPOINT, SUPERBLOCK, WAL, Site::PowerLoss];

/// Creates `backend`'s store on an empty directory with write (or sync)
/// `k` of `site` torn `tear`. When the crash fired — the open failed — and
/// `check` is set, the next open must give an empty store that runs
/// `script` to a clean close and passes its audit. Returns whether it
/// fired.
fn create_cell(backend: &Backend, script: &Script, crash: Crash, check: bool) -> bool {
    let (site, k, tear) = crash;
    let fs = SimFs::new();
    site.arm_files(&fs, k, tear);
    if open(&backend.cfg, &fs).is_ok() {
        return false;
    }
    if check {
        let (b, fs) = (&backend.name, fs.reboot());
        let cell = format!("{b}: the create's {site:?} write {k} torn {tear:?}");
        let store = open(&backend.cfg, &fs).unwrap_or_else(|e| panic!("{cell}: reopen: {e}"));
        let held = (store.len(), store.scan(0, u64::MAX).map(|s| s.len()));
        assert_eq!(held, (0, Ok(0)), "{cell}: the reopened store is not empty");
        drop(store);
        let (steps, dry_pool) = (script.steps.clone(), script.dry_pool);
        let recreated = Script { steps, dry_pool, fresh: fs, an_hour_out: script.an_hour_out };
        run(backend, &recreated, None, true);
    }
    true
}

/// Walks each of [`CREATE_SITES`] of `backend`'s creation
/// ([`walk_cells`]).
pub fn walk_create(backend: &Backend, script: &Script, stride: u64) -> Vec<(Site, u64)> {
    let cell = |crash, check| create_cell(backend, script, crash, check);
    walk_cells(backend, &CREATE_SITES, stride, cell)
}

/// Every cell: the clean close, and each site's every write, torn each way.
pub fn full(backend: &Backend) -> Vec<(Site, u64)> {
    let script = Script::of(backend);
    run(backend, &script, None, true);
    walk(backend, &script, &sites(backend), 1)
}
