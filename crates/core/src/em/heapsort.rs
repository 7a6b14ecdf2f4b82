//! §4.3 — AEM heapsort: n inserts + n delete-mins on the buffer-tree
//! priority queue, for a total of O((kn/B)(1 + log_{kM/B} n)) reads and
//! O((n/B)(1 + log_{kM/B} n)) writes, matching the other two sorts.

use super::pq::AemPriorityQueue;
use asym_model::Result;
use em_sim::{EmMachine, EmVec, EmWriter};

/// Sort `input` by streaming it through the §4.3.3 priority queue.
/// Consumes and frees the input. `sort::run` dispatches `aem-heapsort`
/// specs to this engine.
pub fn aem_heapsort(machine: &EmMachine, input: EmVec, k: usize) -> Result<EmVec> {
    let mut pq = AemPriorityQueue::new(machine.clone(), k)?;
    {
        let mut reader = input.reader(machine)?;
        while let Some(r) = reader.next() {
            pq.insert(r)?;
        }
    }
    input.free(machine);
    let mut writer = EmWriter::new(machine)?;
    while let Some(r) = pq.delete_min()? {
        writer.push(r);
    }
    Ok(writer.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::pq::pq_slack;
    use asym_model::record::assert_sorted_permutation;
    use asym_model::stats::ceil_log_base;
    use asym_model::workload::Workload;
    use em_sim::EmConfig;

    fn machine(m: usize, b: usize, k: usize) -> EmMachine {
        EmMachine::new(EmConfig::new(m, b, 8).with_slack(pq_slack(m, b, k)))
    }

    #[test]
    fn sorts_all_workloads() {
        let em = machine(16, 2, 1);
        for wl in Workload::ALL {
            let input = wl.generate(700, 21);
            let v = EmVec::stage(&em, &input);
            let sorted = aem_heapsort(&em, v, 1).unwrap();
            assert_sorted_permutation(&input, &sorted.read_all_uncharged(&em));
            sorted.free(&em);
        }
    }

    #[test]
    fn k2_sorts_and_writes_match_theorem_shape() {
        let (m, b, k, n) = (16usize, 2usize, 2usize, 5000usize);
        let em = machine(m, b, k);
        let input = Workload::UniformRandom.generate(n, 31);
        let v = EmVec::stage(&em, &input);
        em.reset_stats();
        let sorted = aem_heapsort(&em, v, k).unwrap();
        assert_sorted_permutation(&input, &sorted.read_all_uncharged(&em));
        let s = em.stats();
        let blocks = n.div_ceil(b) as u64;
        let levels = ceil_log_base((k * m) as f64 / b as f64, n as f64);
        // The buffer tree has larger constants than mergesort (Theorem 4.10);
        // allow a 12x envelope on the O((n/B)(1+levels)) write bound.
        let bound = 12 * blocks * (1 + levels);
        assert!(
            s.block_writes <= bound,
            "writes {} > envelope {bound}",
            s.block_writes
        );
    }

    #[test]
    fn empty_input() {
        let em = machine(16, 2, 1);
        let v = EmVec::stage(&em, &[]);
        let sorted = aem_heapsort(&em, v, 1).unwrap();
        assert!(sorted.is_empty());
    }

    #[test]
    fn tiny_input() {
        let em = machine(16, 2, 1);
        let input = Workload::Reversed.generate(5, 2);
        let v = EmVec::stage(&em, &input);
        let sorted = aem_heapsort(&em, v, 1).unwrap();
        assert_sorted_permutation(&input, &sorted.read_all_uncharged(&em));
    }
}
