//! Differential suite: `asym-kv` against an in-RAM `BTreeMap` reference.
//!
//! Randomized put/overwrite/delete/get/scan streams must produce
//! byte-identical answers from the LSM engine and the reference map, on
//! whichever backend `ASYM_BENCH_BACKEND` selects (the CI `kv-smoke`
//! matrix runs mem and file), under both compaction styles. Along the
//! way, every compaction the engine ran must have been admitted through
//! the sort service with its measured `EmStats` inside the `predict()`
//! envelope — the same bound `tests/predict_bounds.rs` pins for direct
//! sorts, here re-checked at the system boundary.

use asym_kv::{AsymKv, CompactionService, CompactionStyle, KvConfig, Policy};
use asym_serve::{serve, ServiceConfig, SortService};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn small_cfg(style: CompactionStyle, t: usize, omega: u64) -> KvConfig {
    let mut cfg = KvConfig::new(omega);
    cfg.m = 64;
    cfg.b = 4;
    cfg.memtable_cap = 8; // tiny: compactions fire constantly
    cfg.policy = Policy::fixed(style, t);
    cfg.from_env().expect("valid backend env")
}

/// Check every compaction's measured stats against its admission-time
/// prediction (reads/writes are envelopes, peak memory is a hard bound).
fn assert_envelopes(kv: &AsymKv, label: &str) {
    for c in kv.compactions() {
        assert!(
            c.stats.block_reads <= c.predicted.reads,
            "{label}: reads {} > predicted {} in {c:?}",
            c.stats.block_reads,
            c.predicted.reads
        );
        assert!(
            c.stats.block_writes <= c.predicted.writes,
            "{label}: writes {} > predicted {} in {c:?}",
            c.stats.block_writes,
            c.predicted.writes
        );
        assert!(
            c.stats.peak_memory <= c.predicted.peak_memory,
            "{label}: peak {} > predicted {} in {c:?}",
            c.stats.peak_memory,
            c.predicted.peak_memory
        );
    }
}

/// Apply one encoded op to both stores, comparing answers as we go.
fn apply(kv: &mut AsymKv, model: &mut BTreeMap<u64, u64>, op: u8, key: u64, value: u64) {
    match op {
        0 | 1 => {
            kv.put(key, value).expect("put");
            model.insert(key, value);
        }
        2 => {
            kv.delete(key).expect("delete");
            model.remove(&key);
        }
        3 => {
            assert_eq!(kv.get(key).expect("get"), model.get(&key).copied());
        }
        _ => {
            // Scan a window around the key.
            let hi = key.saturating_add(8);
            let got = kv.scan(key, hi).expect("scan");
            let want: Vec<(u64, u64)> = model.range(key..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_matches_btreemap(
        ops in prop::collection::vec((0u8..5, 0u64..48, 0u64..1_000_000), 1..300),
        style_pick in 0u8..2,
        t in 2usize..4,
    ) {
        let style = if style_pick == 0 {
            CompactionStyle::Leveling
        } else {
            CompactionStyle::Tiering
        };
        let mut kv = AsymKv::new(small_cfg(style, t, 8)).expect("engine");
        let mut model = BTreeMap::new();
        for &(op, key, value) in &ops {
            apply(&mut kv, &mut model, op, key, value);
        }
        // Final sweep: every answer byte-identical.
        for key in 0..48u64 {
            prop_assert_eq!(kv.get(key).expect("get"), model.get(&key).copied());
        }
        let got = kv.scan(0, u64::MAX - 1).expect("scan");
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want, "full scans must agree");
        assert_envelopes(&kv, style.name());
    }
}

#[test]
fn long_stream_compacts_within_envelopes_under_both_styles() {
    for (style, t) in [
        (CompactionStyle::Leveling, 2),
        (CompactionStyle::Leveling, 4),
        (CompactionStyle::Tiering, 2),
        (CompactionStyle::Tiering, 4),
    ] {
        for omega in [1, 8, 32] {
            let mut kv = AsymKv::new(small_cfg(style, t, omega)).expect("engine");
            let mut model = BTreeMap::new();
            let mut x = 0x2026_u64;
            for _ in 0..1_500 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let key = x % 97;
                match x % 7 {
                    0 => {
                        kv.delete(key).expect("delete");
                        model.remove(&key);
                    }
                    1..=4 => {
                        kv.put(key, x).expect("put");
                        model.insert(key, x);
                    }
                    _ => {
                        assert_eq!(kv.get(key).expect("get"), model.get(&key).copied())
                    }
                }
            }
            let label = format!("{}/t={t}/omega={omega}", style.name());
            assert!(!kv.compactions().is_empty(), "{label}: stream must compact");
            assert_envelopes(&kv, &label);
            let got = kv.scan(0, u64::MAX - 1).expect("scan");
            let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "{label}");
        }
    }
}

/// The HTTP flag: the same engine pointed at a real sort server over
/// loopback must agree answer-for-answer and stat-for-stat with the
/// embedded-service engine — compactions ride `POST /jobs` and the
/// `GET /jobs/<id>/wait` long-poll through the existing wire codecs.
#[test]
fn http_compactions_match_in_process() {
    let dir = std::env::temp_dir().join(format!("asym-kv-http-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("server dir");
    let service =
        SortService::start(ServiceConfig::new(1, 64 << 20, dir.clone())).expect("service");
    let mut server = serve(service, "127.0.0.1:0").expect("bind loopback");

    let cfg = || small_cfg(CompactionStyle::Tiering, 2, 8);
    let mut local = AsymKv::new(cfg()).expect("local engine");
    let mut remote =
        AsymKv::with_service(cfg(), CompactionService::http(server.addr())).expect("http engine");
    assert_eq!(remote.service_name(), "http");

    let mut x = 7_u64;
    for _ in 0..400 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 53;
        match x % 5 {
            0 => {
                local.delete(key).expect("delete");
                remote.delete(key).expect("delete");
            }
            _ => {
                local.put(key, x).expect("put");
                remote.put(key, x).expect("put");
            }
        }
    }
    assert!(
        !remote.compactions().is_empty(),
        "compactions must have crossed the wire"
    );
    for key in 0..53u64 {
        assert_eq!(
            local.get(key).expect("get"),
            remote.get(key).expect("get"),
            "key {key}"
        );
    }
    assert_eq!(
        local.scan(0, u64::MAX - 1).expect("scan"),
        remote.scan(0, u64::MAX - 1).expect("scan")
    );
    // Same spec, same inputs, same deterministic sorter: the jobs' measured
    // stats must be identical transport to transport.
    assert_eq!(local.compactions().len(), remote.compactions().len());
    for (a, b) in local.compactions().iter().zip(remote.compactions()) {
        assert_eq!(a.stats, b.stats, "modeled I/O is transport-invariant");
        assert_eq!(a.predicted, b.predicted);
        assert_eq!(a.input_records, b.input_records);
        assert_eq!(a.output_records, b.output_records);
    }
    assert_eq!(
        local.total_stats(),
        remote.total_stats(),
        "engine + compaction totals agree"
    );
    assert_envelopes(&remote, "http");
    server.shutdown();
    drop(server);
    std::fs::remove_dir_all(&dir).expect("clean up");
    assert!(!dir.exists(), "the server root outlived the test");
}

/// A compaction bigger than the service budget must surface as a typed
/// rejection, not a hang or a silent skip.
#[test]
fn oversized_compactions_are_rejected_with_both_sides() {
    let mut cfg = small_cfg(CompactionStyle::Tiering, 2, 8);
    cfg.service_budget_bytes = 16; // nothing fits
    let mut kv = AsymKv::new(cfg).expect("engine");
    let mut err = None;
    for i in 0..64u64 {
        if let Err(e) = kv.put(i, i) {
            err = Some(e);
            break;
        }
    }
    match err {
        Some(asym_kv::KvError::Rejected(asym_serve::SubmitError::Rejected(
            asym_serve::Refusal::Budget {
                predicted,
                available,
            },
        ))) => {
            assert!(predicted > 16, "predicted {predicted} B cannot fit");
            assert!(available <= 16);
        }
        other => panic!("expected a peak-bytes rejection, got {other:?}"),
    }
}

/// A refusal on the I/O-cost axis reads the same through either transport:
/// the HTTP client decodes the 429 body back into the service's typed
/// `SubmitError`, and both paths share one conversion to `KvError`.
#[test]
fn io_budget_rejections_match_across_transports() {
    let dir = std::env::temp_dir().join(format!("asym-kv-io-reject-{}", std::process::id()));
    let config = |sub: &str| {
        let mut c = ServiceConfig::new(1, u64::MAX, dir.join(sub));
        c.io_budget = 1; // no compaction's predicted I/O fits
        c
    };
    let first_error = |service| {
        let cfg = small_cfg(CompactionStyle::Tiering, 2, 8);
        let mut kv = AsymKv::with_service(cfg, service).expect("engine");
        (0..64u64)
            .find_map(|i| kv.put(i, i).err())
            .expect("the first compaction must be refused")
    };
    let local = first_error(CompactionService::Local(
        SortService::start(config("local")).expect("service"),
    ));
    let mut server = serve(
        SortService::start(config("http")).expect("service"),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let remote = first_error(CompactionService::http(server.addr()));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(local, remote, "one refusal, one typed error");
}
