//! Backend-parity suite: `MemStore` and `FileStore` must be observationally
//! identical through the whole algorithm stack.
//!
//! The machine counts costs *before* touching the store, so `EmStats`
//! equality is by construction — what these tests actually pin down is that
//! the file backend stores and returns the same bytes under the same slot
//! schedule. Every algorithm in `Algorithm::ALL` (mergesort,
//! sample sort, buffer-tree heapsort, and the parallel sample sort) runs
//! through `asym_core::sort::run` at smoke scale on both backends and must produce
//! byte-identical sorted output and identical `(reads, writes,
//! peak_memory)`. Slot-reuse semantics get a dedicated release-heavy check
//! (the sorts free their intermediate runs, so any LIFO/ordering divergence
//! between the backends' free lists would surface as different output).

use asym_core::sort::{self, Algorithm, SortSpec};
use asym_model::record::assert_sorted_permutation;
use asym_model::workload::Workload;
use asym_model::Record;
use em_sim::{Backend, EmConfig, EmMachine, EmVec};

/// The per-algorithm smoke geometry (matching the legacy suite's E3/E5/E6
/// configurations, so the exercised schedules stay the frozen ones).
fn geometry(algorithm: Algorithm) -> (usize, usize, usize, usize) {
    // (m, b, n, lanes)
    match algorithm {
        Algorithm::Heapsort => (16, 2, 800, 1),
        Algorithm::ParSamplesort => (32, 4, 600, 4),
        _ => (32, 4, 600, 1),
    }
}

/// Run one algorithm on one backend; return (sorted output, stats).
fn run_on(
    algorithm: Algorithm,
    backend: Backend,
    k: usize,
    input: &[Record],
) -> (Vec<Record>, em_sim::EmStats) {
    let (m, b, _, lanes) = geometry(algorithm);
    let spec = SortSpec::builder(algorithm, m, b, 8)
        .k(k)
        .lanes(lanes)
        .seed(0xE5)
        .backend(backend)
        .build()
        .expect("valid spec");
    let outcome = sort::run(&spec, input).expect("run");
    assert_sorted_permutation(input, &outcome.output);
    (outcome.output, outcome.stats)
}

#[test]
fn every_registered_sorter_is_backend_invariant() {
    for algorithm in Algorithm::ALL {
        let (_, _, n, _) = geometry(algorithm);
        let input = Workload::UniformRandom.generate(n, 0x60_1D);
        for k in [1usize, 2] {
            let (out_mem, stats_mem) = run_on(algorithm, Backend::Mem, k, &input);
            let (out_file, stats_file) = run_on(algorithm, Backend::File, k, &input);
            let label = format!("{algorithm} k={k}");
            assert_eq!(out_mem, out_file, "{label}: sorted output differs");
            assert_eq!(stats_mem, stats_file, "{label}: EmStats differ");
        }
    }
}

#[test]
fn adversarial_workloads_are_backend_invariant() {
    // Sorted / reversed / few-distinct inputs drive different merge and
    // bucket paths (and different release orders) than uniform-random.
    for wl in [Workload::Sorted, Workload::Reversed, Workload::FewDistinct] {
        let input = wl.generate(300, 0xBEEF);
        let (out_mem, stats_mem) = run_on(Algorithm::Mergesort, Backend::Mem, 2, &input);
        let (out_file, stats_file) = run_on(Algorithm::Mergesort, Backend::File, 2, &input);
        assert_eq!(out_mem, out_file, "{wl:?}: sorted output differs");
        assert_eq!(stats_mem, stats_file, "{wl:?}: EmStats differ");
    }
}

// The heapsort's priority queue releases its β blocks and tree runs when
// it is dropped. This check runs the engine's free function on a visible
// machine: after the output is freed, neither backend may hold a block — a
// FileStore alloc/release accounting bug that diverges without corrupting
// bytes or modeled stats would surface here.
#[test]
fn heapsort_residual_blocks_match_across_backends() {
    use asym_core::em::aem_heapsort;
    use asym_core::em::pq::pq_slack;
    let (m, b, k) = (16usize, 2usize, 2usize);
    let input = Workload::UniformRandom.generate(800, 0x60_1D);
    let residual: Vec<usize> = [Backend::Mem, Backend::File]
        .into_iter()
        .map(|backend| {
            let cfg = EmConfig::new(m, b, 8).with_slack(pq_slack(m, b, k));
            let em = EmMachine::with_backend(cfg, backend).expect("create backend");
            let v = EmVec::stage(&em, &input);
            let sorted = aem_heapsort(&em, v, k).expect("heapsort");
            assert_sorted_permutation(&input, &sorted.read_all_uncharged(&em));
            sorted.free(&em);
            em.live_blocks()
        })
        .collect();
    assert_eq!(residual, [0, 0], "residual blocks on [mem, file]");
}

// The job server runs file-backed jobs concurrently, each in its own
// `file_dir` — N simultaneous FileStores doing real `std::fs` I/O. Parity
// must survive that: every concurrent file-backed job must produce the
// same bytes and the same modeled `EmStats` as a serial in-memory run of
// the identical spec.
#[test]
fn concurrent_file_jobs_match_serial_mem_runs() {
    const JOBS: usize = 6;
    let base = std::env::temp_dir().join(format!("asym-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    // Serial reference runs, one distinct workload per job slot.
    let inputs: Vec<Vec<Record>> = (0..JOBS)
        .map(|i| Workload::ALL[i % Workload::ALL.len()].generate(600, i as u64))
        .collect();
    let spec_on = |backend: Backend, dir: Option<std::path::PathBuf>| {
        let mut builder = SortSpec::builder(Algorithm::Samplesort, 32, 4, 8)
            .k(2)
            .seed(0xE5)
            .backend(backend);
        if let Some(dir) = dir {
            builder = builder.file_dir(dir);
        }
        builder.build().expect("valid spec")
    };
    let serial: Vec<_> = inputs
        .iter()
        .map(|input| sort::run(&spec_on(Backend::Mem, None), input).expect("serial run"))
        .collect();
    // The same jobs, file-backed, all running at once in distinct dirs.
    let concurrent: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let dir = base.join(format!("job-{i}"));
                let spec = {
                    std::fs::create_dir_all(&dir).expect("job dir");
                    spec_on(Backend::File, Some(dir))
                };
                s.spawn(move || sort::run(&spec, input).expect("file run"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    for (i, (mem, file)) in serial.iter().zip(&concurrent).enumerate() {
        assert_eq!(mem.output, file.output, "job {i}: sorted output differs");
        assert_eq!(mem.stats, file.stats, "job {i}: EmStats differ");
        assert_sorted_permutation(&inputs[i], &file.output);
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn slot_reuse_schedule_matches_across_backends() {
    // Release-heavy cursor traffic: write runs, free them, write again. If
    // the file backend recycled slots in a different order than the slab
    // arena, block ids (and the final bytes) would diverge.
    let cfg = EmConfig::new(32, 4, 8).with_slack(64);
    let mem = EmMachine::with_backend(cfg, Backend::Mem).unwrap();
    let file = EmMachine::with_backend(cfg, Backend::File).unwrap();
    for em in [&mem, &file] {
        let a = EmVec::stage(em, &Workload::UniformRandom.generate(40, 1));
        let b = EmVec::stage(em, &Workload::UniformRandom.generate(24, 2));
        a.free(em);
        let c = EmVec::stage(em, &Workload::UniformRandom.generate(40, 3));
        b.free(em);
        let d = EmVec::stage(em, &Workload::UniformRandom.generate(16, 4));
        assert_eq!(em.live_blocks(), c.num_blocks() + d.num_blocks());
    }
    // Same allocation history => same slot arithmetic on both backends.
    assert_eq!(mem.live_blocks(), file.live_blocks());
}

// Every machine of a spec comes from one store builder: the backend's store
// (in `file_dir` when one is given), wrapped per lane in a salted
// `FaultStore` when the spec names a fault. A zero-rate fault never fires,
// so on every store the faulted spec must sort exactly like the plain one —
// for a single machine and for each lane of a parallel one.
#[test]
fn zero_rate_faults_are_transparent_on_every_store() {
    use em_sim::FaultSpec;
    let base = std::env::temp_dir().join(format!("asym-parity-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("file dir");
    let stores = [
        (Backend::Mem, None),
        (Backend::File, None),
        (Backend::File, Some(base.clone())),
    ];
    for algorithm in [Algorithm::Mergesort, Algorithm::ParSamplesort] {
        let (m, b, n, _) = geometry(algorithm);
        let input = Workload::UniformRandom.generate(n, 0xFA17);
        for (backend, dir) in &stores {
            let spec = |fault: Option<FaultSpec>| {
                let mut builder = SortSpec::builder(algorithm, m, b, 8)
                    .k(2)
                    .lanes(if algorithm == Algorithm::ParSamplesort {
                        2
                    } else {
                        1
                    })
                    .seed(0xE5)
                    .backend(*backend)
                    .fault(fault);
                if let Some(dir) = dir {
                    builder = builder.file_dir(dir.clone());
                }
                builder.build().expect("valid spec")
            };
            let plain = sort::run(&spec(None), &input).expect("plain run");
            let faulted = sort::run(&spec(Some(FaultSpec::new(7))), &input).expect("faulted run");
            let label = format!("{algorithm} on {backend} (file_dir {dir:?})");
            assert_sorted_permutation(&input, &faulted.output);
            assert_eq!(
                plain.output, faulted.output,
                "{label}: sorted output differs"
            );
            assert_eq!(plain.stats, faulted.stats, "{label}: EmStats differ");
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
