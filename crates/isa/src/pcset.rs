//! Dense PC sets: constant-time membership for per-instruction tests.
//!
//! The MSSP executors ask "is this PC a task boundary?" once per
//! interpreted instruction. A [`PcSet`] answers with one subtraction, one
//! shift and one bit test: it keeps a bitmap with one bit per
//! instruction slot between its smallest and largest member.

use std::collections::BTreeSet;

use crate::INSTR_BYTES;

/// A set of instruction addresses with an O(1) membership test.
///
/// Memory is one bit per slot of the span the members cover. A slot is
/// one instruction wide when every member sits a whole number of
/// instructions away from the smallest; otherwise (a member at an
/// unaligned offset, which no fetch can reach) it is one byte wide.
///
/// # Examples
///
/// ```
/// use mssp_isa::PcSet;
///
/// let s = PcSet::new([0x100, 0x10C]);
/// assert!(s.contains(0x100));
/// assert!(s.contains(0x10C));
/// assert!(!s.contains(0x104));
/// assert!(!s.contains(0x10D));
/// assert!(!s.contains(0xFC));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PcSet {
    /// Smallest member (slot 0).
    lo: u64,
    /// log2 of the slot width in bytes.
    shift: u32,
    /// Slot count covered by `bits`.
    slots: u64,
    bits: Vec<u64>,
}

impl PcSet {
    /// Builds the set of `pcs`.
    #[must_use]
    pub fn new(pcs: impl IntoIterator<Item = u64>) -> PcSet {
        let pcs: BTreeSet<u64> = pcs.into_iter().collect();
        let (Some(&lo), Some(&hi)) = (pcs.first(), pcs.last()) else {
            return PcSet::default();
        };
        let aligned = pcs.iter().all(|&pc| (pc - lo) % INSTR_BYTES == 0);
        let shift = if aligned {
            INSTR_BYTES.trailing_zeros()
        } else {
            0
        };
        let slots = ((hi - lo) >> shift) + 1;
        let mut bits = vec![0u64; slots.div_ceil(64) as usize];
        for pc in pcs {
            let slot = (pc - lo) >> shift;
            bits[(slot / 64) as usize] |= 1 << (slot % 64);
        }
        PcSet {
            lo,
            shift,
            slots,
            bits,
        }
    }

    /// Whether `pc` is a member.
    #[inline]
    #[must_use]
    pub fn contains(&self, pc: u64) -> bool {
        let off = pc.wrapping_sub(self.lo);
        if off & ((1 << self.shift) - 1) != 0 {
            return false;
        }
        let slot = off >> self.shift;
        slot < self.slots && self.bits[(slot / 64) as usize] & (1 << (slot % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_contains_nothing() {
        let s = PcSet::new([]);
        assert!(!s.contains(0));
        assert!(!s.contains(u64::MAX));
    }

    #[test]
    fn unaligned_members_fall_back_to_byte_slots() {
        let s = PcSet::new([0x100, 0x102, 0x1000]);
        assert!(s.contains(0x102));
        assert!(s.contains(0x1000));
        assert!(!s.contains(0x101));
        assert!(!s.contains(0x104));
    }

    #[test]
    fn membership_matches_a_btree_set() {
        let members: BTreeSet<u64> = [0x1000, 0x1004, 0x1040, 0x1100, 0x2000].into();
        let s = PcSet::new(members.iter().copied());
        for pc in (0xF00..0x2100).chain([0, u64::MAX, u64::MAX - 3]) {
            assert_eq!(s.contains(pc), members.contains(&pc), "{pc:#x}");
        }
    }
}
