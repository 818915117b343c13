//! The FIFO rows of the side-list and coupler tests: [`FifoOracle`] and a
//! [`MeasuredQueue`](crate::MeasuredQueue) over an elastic `Queue2D`. The
//! coupler checks are the ones the stack rows in `segmented` run; the
//! module keeps the `segmented_queue` path its tests have always been
//! named under.

mod tests {
    use crate::oracle::tests::agree_with_naive;
    use crate::oracle::{Fifo, FifoOracle, Label, MeasuredQueue};
    use crate::segmented::tests::{
        churn, p, single_thread_respects_segment_bounds, strict_is_exact_per_segment,
    };
    use stack2d::{Params, Queue2D};

    fn elastic_queue(params: Params, capacity: usize) -> Queue2D<Label> {
        Queue2D::builder().params(params).elastic_capacity(capacity).build().unwrap()
    }

    #[test]
    fn fifo_oracle_strict_fifo_has_zero_distance() {
        let mut o = FifoOracle::new();
        for l in 0..100 {
            o.insert(l);
        }
        for l in 0..100 {
            assert_eq!(o.delete(l), Some(0), "strict FIFO dequeues overtake nothing");
        }
        assert!(o.is_empty());
    }

    #[test]
    fn fifo_oracle_lifo_removal_has_maximal_distance() {
        let mut o = FifoOracle::new();
        for l in 0..10 {
            o.insert(l);
        }
        // LIFO removal: the newest item overtakes all 9 older ones, ...
        for (i, l) in (0..10).rev().enumerate() {
            assert_eq!(o.delete(l), Some((9 - i) as u32));
        }
    }

    #[test]
    fn fifo_oracle_matches_a_naive_list() {
        agree_with_naive::<Fifo>(23);
    }

    #[test]
    fn fifo_oracle_delete_unknown_is_none() {
        let mut o = FifoOracle::new();
        o.insert(1);
        assert_eq!(o.delete(99), None);
        assert_eq!(o.len(), 1);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn fifo_oracle_duplicate_insert_panics() {
        let mut o = FifoOracle::new();
        o.insert(1);
        o.insert(1);
    }

    #[test]
    fn measured_strict_queue_is_exact_per_segment() {
        strict_is_exact_per_segment(&MeasuredQueue::elastic(&elastic_queue(p(1, 1, 1), 4)));
    }

    #[test]
    fn measured_queue_single_thread_respects_segment_bounds() {
        single_thread_respects_segment_bounds(&MeasuredQueue::elastic(&elastic_queue(
            p(2, 1, 1),
            16,
        )));
    }

    #[test]
    fn oracle_and_queue_agree_on_residency() {
        let queue = elastic_queue(p(4, 2, 1), 8);
        assert_eq!(churn(&MeasuredQueue::elastic(&queue)), 70);
        assert_eq!(queue.len(), 70);
    }
}
