//! Conservation accounting: every produced value must be consumed exactly
//! once or drained at the end.
//!
//! Keeping every value would cost the hot loop an allocation per op, so a
//! [`Ledger`] keeps a multiset fingerprint instead: the count of values and
//! the wrapping sum of a strong 64-bit mix of each. Dropping, duplicating
//! or altering a value changes the fingerprint (a collision needs a sum of
//! mixed values to vanish mod 2^64).

/// Multiset fingerprint of the values that passed one side of a structure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    count: u64,
    sum: u64,
}

impl Ledger {
    /// Records one value.
    #[inline]
    pub fn add(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix(value));
    }

    /// Folds another ledger in (per-thread ledgers into one total).
    pub fn merge(&mut self, other: &Ledger) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Number of values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// The produced and consumed sides of one structure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Flow {
    /// Everything put in (prefill, warm-up and measured phase).
    pub produced: Ledger,
    /// Everything taken out, including the final drain.
    pub consumed: Ledger,
}

impl Flow {
    /// Folds another flow in.
    pub fn merge(&mut self, other: &Flow) {
        self.produced.merge(&other.produced);
        self.consumed.merge(&other.consumed);
    }

    /// Checks conservation after the final drain: the consumed multiset
    /// equals the produced one.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check(&self) -> Result<(), String> {
        if self.produced == self.consumed {
            Ok(())
        } else {
            Err(format!(
                "conservation broken: produced {} values, consumed {} (fingerprints {:#x} vs {:#x})",
                self.produced.count, self.consumed.count, self.produced.sum, self.consumed.sum
            ))
        }
    }
}

/// SplitMix64 finalizer: a bijective 64-bit mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(produced: &[u64], consumed: &[u64]) -> Flow {
        let mut f = Flow::default();
        produced.iter().for_each(|&v| f.produced.add(v));
        consumed.iter().for_each(|&v| f.consumed.add(v));
        f
    }

    #[test]
    fn any_order_conserves() {
        assert!(flow(&[1, 2, 3, 4], &[4, 2, 1, 3]).check().is_ok());
        assert!(flow(&[], &[]).check().is_ok());
    }

    #[test]
    fn a_dropped_item_is_caught() {
        assert!(flow(&[1, 2, 3, 4], &[4, 2, 1]).check().is_err());
    }

    #[test]
    fn a_duplicated_or_swapped_item_is_caught() {
        assert!(flow(&[1, 2, 3], &[1, 2, 3, 3]).check().is_err());
        // Same count, different value: the fingerprint sum differs.
        assert!(flow(&[1, 2, 3], &[1, 2, 5]).check().is_err());
        // Values whose plain sums agree still differ after mixing.
        assert!(flow(&[1, 4], &[2, 3]).check().is_err());
    }

    #[test]
    fn merged_per_thread_flows_conserve() {
        let mut total = flow(&[1, 2], &[3]);
        total.merge(&flow(&[3], &[2, 1]));
        assert!(total.check().is_ok());
    }
}
