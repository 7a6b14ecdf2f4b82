//! End-to-end agreement: every sorting algorithm in the workspace, on every
//! workload, produces the same answer as the standard library sort. The
//! AEM sorts are enumerated generically through `Algorithm::ALL` and
//! `asym_core::sort::run` — no per-algorithm call sites.

use asym_core::co::{co_asym_sort, co_mergesort};
use asym_core::par::par_sample_sort;
use asym_core::pram::pram_sample_sort;
use asym_core::ram::tree_sort::tree_sort;
use asym_core::sort::{self, Algorithm, SortSpec};
use asym_model::record::assert_sorted_permutation;
use asym_model::workload::Workload;
use asym_model::Record;
use cache_sim::{SimArray, Tracker};
use em_sim::Backend;
use rand::SeedableRng;

fn all_inputs() -> Vec<(String, Vec<Record>)> {
    let mut inputs = Vec::new();
    for wl in Workload::ALL {
        for n in [257usize, 1000] {
            inputs.push((format!("{}:{}", wl.name(), n), wl.generate(n, 0xBEEF)));
        }
    }
    inputs
}

/// A suite-sized spec: geometry per algorithm (the heapsort's buffer
/// tree is exercised deeper on a smaller machine, matching the legacy
/// suite's choices), lanes only for the parallel sort.
fn spec_for(algorithm: Algorithm, k: usize) -> SortSpec {
    let (m, b) = match algorithm {
        Algorithm::Heapsort => (16usize, 2usize),
        _ => (32usize, 4usize),
    };
    SortSpec::builder(algorithm, m, b, 8)
        .k(k)
        .lanes(if algorithm.is_parallel() { 4 } else { 1 })
        .seed(2)
        .build()
        .expect("valid spec")
}

#[test]
fn ram_tree_sort_agrees() {
    for (name, input) in all_inputs() {
        let out = tree_sort(&input);
        assert_sorted_permutation(&input, &out);
        let _ = name;
    }
}

#[test]
fn pram_sample_sort_agrees() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for (name, input) in all_inputs() {
        for step6 in [false, true] {
            let (out, report) = pram_sample_sort(&input, 8, &mut rng, step6);
            assert_sorted_permutation(&input, &out);
            assert!(report.total.depth > 0, "{name}");
        }
    }
}

#[test]
fn every_registered_aem_sort_agrees() {
    for algorithm in Algorithm::ALL {
        // Per-algorithm write-saving sweep matching the legacy suite's
        // coverage: deeper k changes the fan-in l = kM/B and the round
        // structure, so k > 2 is not redundant with k ∈ {1, 2}.
        let ks: &[usize] = match algorithm {
            Algorithm::Mergesort => &[1, 2, 4],
            Algorithm::Samplesort => &[1, 3],
            _ => &[1, 2],
        };
        for &k in ks {
            let spec = spec_for(algorithm, k);
            for (name, input) in all_inputs() {
                let outcome = sort::run(&spec, &input)
                    .unwrap_or_else(|e| panic!("{name} via {algorithm}: {e}"));
                assert_sorted_permutation(&input, &outcome.output);
            }
        }
    }
}

#[test]
fn duplicate_adversaries_agree_on_every_registered_sorter() {
    // The duplicate battery: all-identical and 90%-duplicate inputs through
    // every algorithm, on both backends, across lane counts for the
    // parallel sort. Output must be byte-identical to the RAM stable sort
    // (duplicates make "sorted permutation" too weak a check on its own),
    // and for the parallel sort the merged write totals must not depend on
    // the lane count.
    for algorithm in Algorithm::ALL {
        let lane_set: &[usize] = if algorithm.is_parallel() {
            &[1, 2, 4, 8]
        } else {
            &[1]
        };
        for wl in Workload::DUPLICATE_ADVERSARIES {
            for n in [257usize, 1000] {
                let input = wl.generate(n, 0xBEEF);
                let mut expect = input.clone();
                expect.sort(); // std stable sort: the RAM reference
                for backend in [Backend::Mem, Backend::File] {
                    let mut write_total: Option<u64> = None;
                    for &lanes in lane_set {
                        let (m, b) = match algorithm {
                            Algorithm::Heapsort => (16usize, 2usize),
                            _ => (32usize, 4usize),
                        };
                        let spec = SortSpec::builder(algorithm, m, b, 8)
                            .k(2)
                            .lanes(lanes)
                            .seed(2)
                            .backend(backend)
                            .build()
                            .expect("valid spec");
                        let ctx = format!(
                            "{}:{n} via {algorithm} ({backend:?}, {lanes} lanes)",
                            wl.name()
                        );
                        let outcome =
                            sort::run(&spec, &input).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert_eq!(outcome.output, expect, "{ctx}: output differs");
                        match write_total {
                            None => write_total = Some(outcome.stats.block_writes),
                            Some(w) => assert_eq!(
                                outcome.stats.block_writes, w,
                                "{ctx}: write total not lane-invariant"
                            ),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn cache_oblivious_sorts_agree() {
    for (_, input) in all_inputs() {
        let t = Tracker::null();
        let mut a = SimArray::from_vec(&t, input.clone());
        co_mergesort(&mut a, 0, input.len());
        assert_sorted_permutation(&input, a.peek_slice());

        for omega in [1usize, 4, 16] {
            let t = Tracker::null();
            let mut a = SimArray::from_vec(&t, input.clone());
            co_asym_sort(&mut a, 0, input.len(), omega, 64);
            assert_sorted_permutation(&input, a.peek_slice());
        }
    }
}

#[test]
fn threaded_sort_agrees() {
    for (_, input) in all_inputs() {
        for threads in [2usize, 4] {
            let out = par_sample_sort(&input, threads, 77);
            assert_sorted_permutation(&input, &out);
        }
    }
}

#[test]
fn all_sorts_agree_pairwise_on_one_input() {
    // One shared input through every algorithm; all outputs must be equal.
    let input = Workload::UniformRandom.generate(1200, 0xABCD);
    let mut expect = input.clone();
    expect.sort();

    assert_eq!(tree_sort(&input), expect);

    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    assert_eq!(pram_sample_sort(&input, 4, &mut rng, true).0, expect);

    // Every AEM sort through the one front door.
    for algorithm in Algorithm::ALL {
        let outcome = sort::run(&spec_for(algorithm, 2), &input).expect("sort");
        assert_eq!(outcome.output, expect, "{algorithm} disagrees");
    }

    let t = Tracker::null();
    let mut a = SimArray::from_vec(&t, input.clone());
    co_asym_sort(&mut a, 0, input.len(), 8, 64);
    assert_eq!(a.peek_slice(), expect.as_slice());

    assert_eq!(par_sample_sort(&input, 4, 5), expect);
}
