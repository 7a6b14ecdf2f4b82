//! Seedable fault injection for [`BlockStore`]s.
//!
//! [`FaultStore`] interposes on any inner store and misbehaves on demand,
//! in two ways that compose:
//!
//! * **deterministic** — a shared [`FaultPlan`] arms an exact number of
//!   upcoming reads/writes to fail with `Interrupted`, optionally after a
//!   skip count, so a test can land a fault in a specific phase of an
//!   algorithm;
//! * **probabilistic** — a [`FaultSpec`] gives per-operation fault rates
//!   (in permille) driven by a private xorshift stream, so a chaos harness
//!   can storm a whole service reproducibly from one seed.
//!
//! Injected faults come in three flavors: a clean transient
//! (`ErrorKind::Interrupted` stringified into [`ModelError::Io`]), a
//! *short* transfer (the device hands back — or persists — a truncated
//! block before erroring), and a simulated crash (`panic!`), the flavor
//! that exercises `catch_unwind` isolation in callers. Slot bookkeeping
//! stays in the wrapped store, and the machine charges modeled costs
//! *before* touching the store, so fault injection never perturbs modeled
//! costs — a run that happens to dodge every fault is bit-identical to a
//! run on the bare store.
//!
//! Faults fire on the *charged* transfer paths: `read_into`, `write`, and
//! — crucially — `alloc`, because every sort write in this workspace goes
//! through `append_block_from`, which charges the modeled write and then
//! allocates. `alloc` has no `Result` channel, so its injected faults
//! unwind as [`StoreIoPanic`], a typed payload a `catch_unwind` caller can
//! downcast to tell a retryable device fault from a genuine bug. Release
//! and (uncharged) peeks stay fault-free: the model charges transfers, so
//! transfers are where faults teach us anything.

use crate::store::{BlockId, BlockStore};
use asym_model::{ModelError, Record, Result};
use std::cell::Cell;
use std::rc::Rc;

/// SplitMix64 — the seed scrambler behind [`FaultSpec::for_attempt`] and
/// [`FaultSpec::salted`].
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A clean transient: the same error a real `EINTR` would stringify to.
fn interrupted() -> ModelError {
    ModelError::Io(std::io::Error::from(std::io::ErrorKind::Interrupted).to_string())
}

/// A short transfer: part of the block moved, then the device gave up.
fn short(op: &str) -> ModelError {
    ModelError::Io(format!(
        "injected fault: short {op} (unexpected end of block)"
    ))
}

/// The typed panic payload carrying an injected I/O fault up a call path
/// that has no `Result` channel — [`BlockStore::alloc`] (the sink of every
/// `append_block_from`) and the block-cursor fast paths that `.expect`
/// their reads. A supervisor that isolates an attempt with `catch_unwind`
/// downcasts the payload to this type to classify the failure as a
/// retryable device fault; any other payload is a genuine bug.
#[derive(Debug)]
pub struct StoreIoPanic(pub ModelError);

impl std::fmt::Display for StoreIoPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Probabilistic fault rates for a [`FaultStore`], all in permille
/// (0 = never, 1000 = every operation). Plain data: `Copy`, hashable, and
/// carried on the wire by `SortSpec`, so a chaos job can be submitted to a
/// remote service and reproduced from its seed alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Seed of the fault stream. Two stores built from equal specs inject
    /// identical fault schedules.
    pub seed: u64,
    /// Per-read fault probability.
    pub read_permille: u16,
    /// Per-write fault probability.
    pub write_permille: u16,
    /// Given a fault fires, the probability it is the *short* flavor (a
    /// truncated transfer reaches the device/buffer) rather than a clean
    /// `Interrupted`.
    pub short_permille: u16,
    /// Per-operation probability of a simulated crash (`panic!`) — the
    /// flavor that tests `catch_unwind` isolation, not error plumbing.
    pub panic_permille: u16,
}

impl FaultSpec {
    /// A spec with every rate zero: a well-behaved device whose fault
    /// stream is seeded but never consulted.
    pub fn new(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            ..FaultSpec::default()
        }
    }

    /// The spec a retry should run under: `retry` is how many attempts
    /// already failed (0 = first attempt, identity). Each retry re-seeds
    /// the stream *and halves the rates* — the modeled analogue of a
    /// transient storm abating while exponential backoff waits it out.
    /// Because the rates are integers, they reach zero after at most 10
    /// halvings, so any retry budget beyond that is guaranteed to see a
    /// clean device — chaos tests terminate by construction, not by luck.
    pub fn for_attempt(&self, retry: u32) -> FaultSpec {
        if retry == 0 {
            return *self;
        }
        let decay = retry.min(15);
        FaultSpec {
            seed: splitmix(self.seed ^ u64::from(retry)),
            read_permille: self.read_permille >> decay,
            write_permille: self.write_permille >> decay,
            short_permille: self.short_permille,
            panic_permille: self.panic_permille >> decay,
        }
    }

    /// The same rates on an independent stream — used to give each lane of
    /// a parallel machine its own fault schedule.
    pub fn salted(&self, salt: u64) -> FaultSpec {
        FaultSpec {
            seed: splitmix(self.seed ^ salt.rotate_left(32)),
            ..*self
        }
    }
}

/// Counters of what a [`FaultStore`] actually injected (faults that fired,
/// not operations that merely rolled).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Reads that failed by injection.
    pub read_faults: u64,
    /// Writes that failed by injection.
    pub write_faults: u64,
    /// Of those, faults that used the short-transfer flavor.
    pub short_transfers: u64,
}

/// Deterministically armed faults, shared by handle: clone the plan, mount
/// the store, keep arming from the test. Armed faults fire before the
/// probabilistic stream is consulted (and consume no randomness), so a
/// deterministic test stays deterministic even on a seeded store.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Let this many reads through before the armed read faults fire.
    read_skip: Rc<Cell<u32>>,
    /// Fail this many upcoming reads with `Interrupted`, then recover.
    reads: Rc<Cell<u32>>,
    /// Fail this many upcoming writes with `Interrupted`, then recover.
    writes: Rc<Cell<u32>>,
}

impl FaultPlan {
    /// Arm `n` read faults, firing on the very next reads.
    pub fn arm_reads(&self, n: u32) {
        self.read_skip.set(0);
        self.reads.set(n);
    }

    /// Arm `n` read faults that fire only after `skip` successful reads —
    /// used to land a fault in a specific phase of an algorithm.
    pub fn arm_reads_after(&self, skip: u32, n: u32) {
        self.read_skip.set(skip);
        self.reads.set(n);
    }

    /// Arm `n` write faults.
    pub fn arm_writes(&self, n: u32) {
        self.writes.set(n);
    }

    /// Consume one armed read fault (respecting the skip), if any.
    fn take_read(&self) -> bool {
        let skip = self.read_skip.get();
        if skip > 0 && self.reads.get() > 0 {
            self.read_skip.set(skip - 1);
            return false;
        }
        Self::take(&self.reads)
    }

    fn take_write(&self) -> bool {
        Self::take(&self.writes)
    }

    fn take(cell: &Cell<u32>) -> bool {
        let left = cell.get();
        if left > 0 {
            cell.set(left - 1);
            true
        } else {
            false
        }
    }
}

/// A [`BlockStore`] that interposes on any inner store and injects faults
/// per a [`FaultPlan`] (deterministic) and a [`FaultSpec`] (seeded
/// probabilistic). The fault taxonomy is documented in `em-sim/src/fault.rs`.
pub struct FaultStore {
    inner: Box<dyn BlockStore>,
    spec: FaultSpec,
    rng: u64,
    plan: FaultPlan,
    counts: FaultCounts,
}

impl FaultStore {
    /// Wrap `inner`; `spec` drives the probabilistic stream (use
    /// [`FaultSpec::new`] for a store that only fires armed faults).
    pub fn new(inner: Box<dyn BlockStore>, spec: FaultSpec) -> FaultStore {
        let mut rng = splitmix(spec.seed);
        if rng == 0 {
            rng = 0x9E37_79B9_7F4A_7C15;
        }
        FaultStore {
            inner,
            spec,
            rng,
            plan: FaultPlan::default(),
            counts: FaultCounts::default(),
        }
    }

    /// A handle to the deterministic arming plan (clone freely; arming
    /// works after the store is mounted in a machine).
    pub fn plan(&self) -> FaultPlan {
        self.plan.clone()
    }

    /// What has been injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// One Bernoulli(permille/1000) draw. Zero rates consume no randomness,
    /// so mounting a no-op spec perturbs nothing.
    fn roll(&mut self, permille: u16) -> bool {
        if permille == 0 {
            return false;
        }
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x % 1000 < u64::from(permille)
    }

    fn maybe_panic(&mut self, op: &str) {
        if self.roll(self.spec.panic_permille) {
            panic!("injected fault: simulated crash during block {op}");
        }
    }
}

impl BlockStore for FaultStore {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn alloc(&mut self, records: &[Record]) -> BlockId {
        // The write path sorts actually exercise: `append_block_from`
        // charges the modeled write, then lands here. There is no `Result`
        // channel, so injected faults unwind as [`StoreIoPanic`].
        if self.plan.take_write() {
            self.counts.write_faults += 1;
            std::panic::panic_any(StoreIoPanic(interrupted()));
        }
        self.maybe_panic("alloc");
        if self.roll(self.spec.write_permille) {
            self.counts.write_faults += 1;
            if records.len() > 1 && self.roll(self.spec.short_permille) {
                // A torn append: half the block reaches the device before
                // the error surfaces. The leaked partial block is exactly
                // the garbage a crashed append leaves behind.
                self.counts.short_transfers += 1;
                let _ = self.inner.alloc(&records[..records.len() / 2]);
                std::panic::panic_any(StoreIoPanic(short("write")));
            }
            std::panic::panic_any(StoreIoPanic(interrupted()));
        }
        self.inner.alloc(records)
    }

    fn read_into(&mut self, id: BlockId, out: &mut Vec<Record>) -> Result<()> {
        if self.plan.take_read() {
            self.counts.read_faults += 1;
            return Err(interrupted());
        }
        self.maybe_panic("read");
        if self.roll(self.spec.read_permille) {
            self.counts.read_faults += 1;
            if self.roll(self.spec.short_permille) {
                // A genuine short read: the device fills part of the buffer
                // before giving up.
                self.counts.short_transfers += 1;
                let _ = self.inner.read_into(id, out);
                out.pop();
                return Err(short("read"));
            }
            return Err(interrupted());
        }
        self.inner.read_into(id, out)
    }

    fn write(&mut self, id: BlockId, records: &[Record]) -> Result<()> {
        if self.plan.take_write() {
            self.counts.write_faults += 1;
            return Err(interrupted());
        }
        self.maybe_panic("write");
        if self.roll(self.spec.write_permille) {
            self.counts.write_faults += 1;
            if records.len() > 1 && self.roll(self.spec.short_permille) {
                // A torn write: half the block reaches the device, then the
                // error surfaces. The caller sees a failed transfer; the
                // device sees the truncation.
                self.counts.short_transfers += 1;
                let _ = self.inner.write(id, &records[..records.len() / 2]);
                return Err(short("write"));
            }
            return Err(interrupted());
        }
        self.inner.write(id, records)
    }

    fn release(&mut self, id: BlockId) -> Result<()> {
        self.inner.release(id)
    }

    fn live_blocks(&self) -> usize {
        self.inner.live_blocks()
    }

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn peek_into(&mut self, id: BlockId, out: &mut Vec<Record>) -> Result<()> {
        self.inner.peek_into(id, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemStore;

    fn recs(keys: &[u64]) -> Vec<Record> {
        keys.iter().map(|&k| Record::keyed(k)).collect()
    }

    /// Alloc under a storm: retry through injected [`StoreIoPanic`]s, the
    /// way a real supervisor would. Deterministic per seed — the retries
    /// consume randomness from the same stream on every run.
    fn alloc_retry(store: &mut FaultStore, records: &[Record]) -> BlockId {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        loop {
            match catch_unwind(AssertUnwindSafe(|| store.alloc(records))) {
                Ok(id) => return id,
                Err(payload) => {
                    payload
                        .downcast_ref::<StoreIoPanic>()
                        .expect("typed payload");
                }
            }
        }
    }

    fn stormy(seed: u64) -> FaultStore {
        FaultStore::new(
            Box::new(MemStore::new(4)),
            FaultSpec {
                seed,
                read_permille: 400,
                write_permille: 400,
                short_permille: 300,
                panic_permille: 0,
            },
        )
    }

    /// Drive a fixed schedule of operations, recording which ones faulted.
    fn fault_fingerprint(store: &mut FaultStore) -> Vec<bool> {
        let id = alloc_retry(store, &recs(&[1, 2, 3, 4]));
        let mut buf = Vec::new();
        (0..64)
            .map(|i| {
                if i % 2 == 0 {
                    store.read_into(id, &mut buf).is_err()
                } else {
                    store.write(id, &recs(&[9, 9])).is_err()
                }
            })
            .collect()
    }

    #[test]
    fn same_seed_same_storm() {
        let a = fault_fingerprint(&mut stormy(0xC4A05));
        let b = fault_fingerprint(&mut stormy(0xC4A05));
        assert_eq!(a, b, "equal specs must inject identical schedules");
        assert!(a.iter().any(|&f| f), "a 40% storm over 64 ops fires");
        assert!(!a.iter().all(|&f| f), "and lets some ops through");
        let c = fault_fingerprint(&mut stormy(0xC4A06));
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn rates_decay_to_zero_within_the_retry_budget() {
        let f = FaultSpec {
            seed: 7,
            read_permille: 1000,
            write_permille: 1000,
            short_permille: 500,
            panic_permille: 1000,
        };
        assert_eq!(f.for_attempt(0), f, "first attempt is the spec verbatim");
        let once = f.for_attempt(1);
        assert_eq!(once.read_permille, 500);
        assert_ne!(once.seed, f.seed);
        let spent = f.for_attempt(10);
        assert_eq!(
            (
                spent.read_permille,
                spent.write_permille,
                spent.panic_permille
            ),
            (0, 0, 0),
            "even certain faults die within 10 retries"
        );
        // A no-op spec injects nothing at all.
        let mut store = FaultStore::new(Box::new(MemStore::new(4)), spent);
        let fp = fault_fingerprint(&mut store);
        assert!(fp.iter().all(|&f| !f));
        assert_eq!(store.counts(), FaultCounts::default());
    }

    #[test]
    fn lane_salting_changes_the_stream_not_the_rates() {
        let f = FaultSpec {
            seed: 11,
            read_permille: 250,
            ..FaultSpec::new(11)
        };
        let lane = f.salted(3);
        assert_eq!(lane.read_permille, f.read_permille);
        assert_ne!(lane.seed, f.seed);
        assert_eq!(f.salted(3), lane, "salting is deterministic");
    }

    #[test]
    fn armed_faults_fire_before_the_seeded_stream() {
        // Probabilistic rates present, but the armed plan must fire first
        // and consume no randomness: two stores, one with an armed fault,
        // agree on every operation after the armed one clears.
        let mut plain = stormy(99);
        let mut armed = stormy(99);
        let plan = armed.plan();
        plan.arm_reads(1);
        let id_a = alloc_retry(&mut plain, &recs(&[1]));
        let id_b = alloc_retry(&mut armed, &recs(&[1]));
        let mut buf = Vec::new();
        assert!(
            armed.read_into(id_b, &mut buf).is_err(),
            "armed fault fires"
        );
        // From here on the two streams must agree exactly.
        for _ in 0..32 {
            assert_eq!(
                plain.read_into(id_a, &mut buf).is_err(),
                armed.read_into(id_b, &mut buf).is_err()
            );
        }
    }

    #[test]
    fn short_flavors_truncate_but_keep_bookkeeping() {
        let mut store = FaultStore::new(
            Box::new(MemStore::new(4)),
            FaultSpec {
                seed: 5,
                read_permille: 1000,
                write_permille: 0,
                short_permille: 1000,
                panic_permille: 0,
            },
        );
        let id = store.alloc(&recs(&[1, 2, 3, 4]));
        let mut buf = Vec::new();
        let err = store.read_into(id, &mut buf).unwrap_err();
        assert!(
            matches!(err, ModelError::Io(ref m) if m.contains("short read")),
            "{err:?}"
        );
        assert_eq!(buf.len(), 3, "a short read hands back a truncated block");
        assert_eq!(store.live_blocks(), 1, "slot table untouched");
        assert_eq!(store.counts().short_transfers, 1);
    }

    #[test]
    fn alloc_faults_unwind_with_a_typed_payload() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut store = FaultStore::new(
            Box::new(MemStore::new(4)),
            FaultSpec {
                seed: 9,
                write_permille: 1000,
                short_permille: 0,
                ..FaultSpec::new(9)
            },
        );
        let payload = catch_unwind(AssertUnwindSafe(|| store.alloc(&recs(&[1, 2]))))
            .expect_err("a certain write fault fires on alloc");
        let io = payload
            .downcast_ref::<StoreIoPanic>()
            .expect("typed payload");
        assert!(matches!(io.0, ModelError::Io(_)), "{io}");
        assert_eq!(store.counts().write_faults, 1);
        assert_eq!(store.live_blocks(), 0, "clean flavor persists nothing");

        // The short flavor leaks a torn half-block into the device — the
        // garbage a crashed append leaves behind.
        let mut store = FaultStore::new(
            Box::new(MemStore::new(4)),
            FaultSpec {
                seed: 9,
                write_permille: 1000,
                short_permille: 1000,
                ..FaultSpec::new(9)
            },
        );
        let payload = catch_unwind(AssertUnwindSafe(|| store.alloc(&recs(&[1, 2, 3, 4]))))
            .expect_err("a certain write fault fires on alloc");
        let io = payload
            .downcast_ref::<StoreIoPanic>()
            .expect("typed payload");
        assert!(
            matches!(io.0, ModelError::Io(ref m) if m.contains("short write")),
            "{io}"
        );
        assert_eq!(store.counts().short_transfers, 1);
        assert_eq!(store.live_blocks(), 1, "the torn half-block persists");
    }

    #[test]
    #[should_panic(expected = "injected fault: simulated crash")]
    fn panic_flavor_panics() {
        let mut store = FaultStore::new(
            Box::new(MemStore::new(4)),
            FaultSpec {
                seed: 1,
                panic_permille: 1000,
                ..FaultSpec::new(1)
            },
        );
        let id = store.alloc(&recs(&[1]));
        let mut buf = Vec::new();
        let _ = store.read_into(id, &mut buf);
    }
}
