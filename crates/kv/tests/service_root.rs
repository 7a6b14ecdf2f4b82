//! Service roots: `AsymKv::new` starts its compaction service on a fresh
//! `asym-kv-svc-<pid>-<n>` temp directory, and the engine must remove that
//! directory once it drops. A service the caller hands in keeps its root,
//! since the caller may still read its audit log.
//!
//! This is its own test binary, so no test running in parallel creates
//! roots under this process id while these tests look.

use asym_kv::{AsymKv, CompactionService, CompactionStyle, KvConfig, Policy};
use asym_serve::{ServiceConfig, SortService};
use std::path::PathBuf;

fn cfg(style: CompactionStyle) -> KvConfig {
    let mut cfg = KvConfig::new(8);
    cfg.m = 64;
    cfg.b = 4;
    cfg.memtable_cap = 8;
    cfg.policy = Policy::fixed(style, 2);
    cfg.from_env().expect("valid backend env")
}

/// Put enough keys that the engine flushes and compacts.
fn compact(kv: &mut AsymKv) {
    for i in 0..200u64 {
        kv.put(i % 50, i).expect("put");
    }
    assert!(!kv.compactions().is_empty(), "the stream must compact");
}

/// The engine-created service roots of this process.
fn own_roots() -> Vec<PathBuf> {
    let prefix = format!("asym-kv-svc-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("read temp dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .map(|e| e.path())
        .collect()
}

#[test]
fn dropped_engines_remove_their_service_roots() {
    for style in [CompactionStyle::Leveling, CompactionStyle::Tiering] {
        let mut kv = AsymKv::new(cfg(style)).expect("engine");
        compact(&mut kv);
        assert_eq!(own_roots().len(), 1, "a live engine keeps its root");
        drop(kv);
    }
    assert_eq!(own_roots(), Vec::<PathBuf>::new());
}

#[test]
fn a_caller_supplied_service_keeps_its_root() {
    let root = std::env::temp_dir().join(format!("asym-kv-caller-root-{}", std::process::id()));
    let service = SortService::start(ServiceConfig::new(1, 64 << 20, &root)).expect("service");
    let mut kv = AsymKv::with_service(
        cfg(CompactionStyle::Leveling),
        CompactionService::Local(service),
    )
    .expect("engine");
    compact(&mut kv);
    drop(kv);
    assert!(root.join("audit.jsonl").is_file(), "the caller's log stays");
    std::fs::remove_dir_all(&root).expect("clean up");
}
