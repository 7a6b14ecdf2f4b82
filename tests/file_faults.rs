//! Fault injection for the file-backed block store: transient I/O errors
//! (`ErrorKind::Interrupted`) and genuine short reads (a truncated backing
//! file) must surface as clean [`ModelError::Io`] values — never panics —
//! and must not corrupt the slot table: live-block accounting still
//! balances and untouched blocks stay readable.
//!
//! The `Interrupted` faults are injected through the workspace's own
//! [`FaultStore`] wrapping a real [`FileStore`], mounted with
//! [`EmMachine::with_store`] (the same extension point an out-of-tree
//! backend would use) and armed through its shared [`FaultPlan`]; the
//! short read is real — the temp file is truncated mid-block through a
//! second handle.

use asym_model::{ModelError, Record};
use em_sim::{BlockStore, EmConfig, EmMachine, EmVec, FaultPlan, FaultSpec, FaultStore, FileStore};

fn recs(keys: &[u64]) -> Vec<Record> {
    keys.iter().map(|&k| Record::keyed(k)).collect()
}

/// A machine on a real temp file behind an armable fault injector. The
/// probabilistic stream is left at zero rates: only armed faults fire, so
/// every test here is exactly deterministic.
fn faulty_machine(m: usize, b: usize) -> (EmMachine, FaultPlan) {
    faulty_machine_cfg(EmConfig::new(m, b, 8))
}

fn faulty_machine_cfg(cfg: EmConfig) -> (EmMachine, FaultPlan) {
    let b = cfg.b;
    let store = FaultStore::new(
        Box::new(FileStore::new(b).expect("temp file")),
        FaultSpec::new(0),
    );
    let plan = store.plan();
    (EmMachine::with_store(cfg, Box::new(store)), plan)
}

#[test]
fn interrupted_reads_propagate_and_clear() {
    let (em, plan) = faulty_machine(32, 4);
    let id = em.append_block_from(&recs(&[1, 2, 3]));
    let live = em.live_blocks();

    plan.arm_reads(2);
    let mut buf = Vec::new();
    for _ in 0..2 {
        let err = em.read_block_into(id, &mut buf).unwrap_err();
        assert!(
            matches!(&err, ModelError::Io(msg) if msg.contains("interrupted")),
            "expected a clean Io(interrupted), got {err:?}"
        );
    }
    // The fault was transient: the very next read succeeds and the slot
    // table never drifted.
    em.read_block_into(id, &mut buf).unwrap();
    assert_eq!(buf, recs(&[1, 2, 3]));
    assert_eq!(em.live_blocks(), live, "a failed read must not leak slots");
    em.release_block(id).unwrap();
    assert_eq!(em.live_blocks(), live - 1);
}

#[test]
fn interrupted_writes_propagate_and_preserve_contents() {
    let (em, plan) = faulty_machine(32, 4);
    let id = em.append_block_from(&recs(&[5, 6]));

    plan.arm_writes(1);
    let err = em.write_block_from(id, &recs(&[9])).unwrap_err();
    assert!(matches!(err, ModelError::Io(_)), "got {err:?}");
    // The injected failure happened before the device was touched, so the
    // old contents — and the old live length — must still be there.
    assert_eq!(em.peek_block(id).unwrap(), recs(&[5, 6]));
    // Retry succeeds and the new length sticks.
    em.write_block_from(id, &recs(&[9])).unwrap();
    assert_eq!(em.peek_block(id).unwrap(), recs(&[9]));
    assert_eq!(em.live_blocks(), 1);
}

#[test]
fn algorithms_survive_a_transient_fault_without_slot_corruption() {
    use asym_core::em::{aem_mergesort, mergesort_slack};
    use asym_model::workload::Workload;

    let (m, b, k) = (32usize, 4usize, 2usize);
    let (em, plan) =
        faulty_machine_cfg(EmConfig::new(m, b, 8).with_slack(mergesort_slack(m, b, k)));
    let input = Workload::UniformRandom.generate(600, 31);
    let v = EmVec::stage(&em, &input);

    // First attempt dies mid-sort on an injected read fault. The skip lands
    // the fault inside the top-level merge (the run performs 634 reads in
    // total), whose transfers propagate `Result`s all the way out.
    plan.arm_reads_after(600, 1);
    let err = aem_mergesort(&em, v, k).unwrap_err();
    assert!(matches!(err, ModelError::Io(_)), "got {err:?}");

    // ...yet the store is not corrupted: accounting still balances (the
    // failed sort leaked only its own intermediates, which we can count),
    // and a fresh machine-wide workload completes correctly.
    let live_after_fault = em.live_blocks();
    assert!(live_after_fault > 0);
    let v2 = EmVec::stage(&em, &input);
    let sorted = aem_mergesort(&em, v2, k).expect("clean retry");
    let mut expect = input.clone();
    expect.sort();
    assert_eq!(sorted.read_all_uncharged(&em), expect);
    sorted.free(&em);
    assert_eq!(
        em.live_blocks(),
        live_after_fault,
        "the retry must release everything it allocated"
    );
}

#[test]
fn truncated_backing_file_yields_io_error_not_corruption() {
    let mut store = FileStore::new(4).expect("temp file");
    let a = store.alloc(&recs(&[1, 2, 3, 4]));
    let b = store.alloc(&recs(&[5, 6, 7, 8]));
    let path = store.path().to_path_buf();

    // A real short read: chop the file mid-way through block b's range via
    // a second handle.
    let len = std::fs::metadata(&path).expect("metadata").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("reopen backing file");
    file.set_len(len - 8).expect("truncate");

    let mut buf = Vec::new();
    let err = store.read_into(b, &mut buf).unwrap_err();
    assert!(matches!(err, ModelError::Io(_)), "got {err:?}");
    // Slot bookkeeping is untouched: block a still reads, live accounting
    // balances, and rewriting block b repairs the device.
    store.read_into(a, &mut buf).expect("block a intact");
    assert_eq!(buf, recs(&[1, 2, 3, 4]));
    assert_eq!(store.live_blocks(), 2);
    store.write(b, &recs(&[9, 10, 11, 12])).expect("rewrite");
    store.read_into(b, &mut buf).expect("repaired");
    assert_eq!(buf, recs(&[9, 10, 11, 12]));
    store.release(a).expect("release a");
    store.release(b).expect("release b");
    assert_eq!(store.live_blocks(), 0);
}

#[test]
fn charges_are_counted_even_when_the_device_faults() {
    // The machine charges costs *before* touching the store (that is what
    // makes EmStats backend-invariant), so an injected fault still counts
    // as an attempted transfer — the model's schedule, not the device's
    // luck, determines the cost.
    let (em, plan) = faulty_machine(16, 2);
    let id = em.append_block_from(&recs(&[1]));
    let before = em.stats();
    plan.arm_reads(1);
    let mut buf = Vec::new();
    assert!(em.read_block_into(id, &mut buf).is_err());
    let after = em.stats();
    assert_eq!(after.block_reads, before.block_reads + 1);
    assert_eq!(after.block_writes, before.block_writes);
}
