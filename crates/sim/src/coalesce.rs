//! Memory-access coalescing and shared-memory bank-conflict modeling.
//!
//! Global accesses: the 32 lanes of a warp are merged into the minimal set
//! of 128-byte line transactions (Fermi-style). A fully coalesced warp
//! load of 4-byte elements produces one transaction; a strided or random
//! pattern produces up to 32.
//!
//! Shared accesses: 32 banks, 4 bytes wide. The access replays once per
//! maximum number of distinct addresses mapping to the same bank
//! (broadcast of an identical address is conflict-free).

use crate::simt::LaneMask;
use gpgpu_isa::WARP_SIZE;

/// The line transactions one warp access coalesces into: at most two lines
/// per lane (when an access straddles a line boundary), held inline so the
/// issue path never touches the heap.
#[derive(Debug, Clone, Copy)]
pub struct LineSet {
    lines: [u64; 2 * WARP_SIZE],
    len: u8,
}

impl LineSet {
    /// The distinct line addresses, ascending.
    pub fn as_slice(&self) -> &[u64] {
        &self.lines[..self.len as usize]
    }

    /// Number of distinct lines.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no lane produced a transaction.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<'a> IntoIterator for &'a LineSet {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Coalesces the active lanes' byte addresses into distinct line
/// transactions. Returns line-aligned addresses in ascending order
/// (deterministic).
///
/// `width` is the per-lane access size in bytes; an access straddling a
/// line boundary contributes both lines.
pub fn coalesce(
    addrs: &[u64; WARP_SIZE],
    mask: LaneMask,
    width: u64,
    line_bytes: u64,
) -> LineSet {
    debug_assert!(line_bytes.is_power_of_two());
    let mut buf = [0u64; 2 * WARP_SIZE];
    let mut n = 0;
    for lane in 0..WARP_SIZE {
        if mask & (1 << lane) == 0 {
            continue;
        }
        let first = addrs[lane] & !(line_bytes - 1);
        let last = (addrs[lane] + width - 1) & !(line_bytes - 1);
        buf[n] = first;
        n += 1;
        if last != first {
            buf[n] = last;
            n += 1;
        }
    }
    buf[..n].sort_unstable();
    // Dedup in place (reads stay ahead of writes).
    let mut m = 0;
    for i in 0..n {
        if m == 0 || buf[m - 1] != buf[i] {
            buf[m] = buf[i];
            m += 1;
        }
    }
    LineSet {
        lines: buf,
        len: m as u8,
    }
}

/// Number of shared-memory banks (Fermi: 32, 4 bytes wide).
pub const SHARED_BANKS: u64 = 32;
/// Bank width in bytes.
pub const SHARED_BANK_BYTES: u64 = 4;

/// Number of serialized passes a shared-memory warp access needs: the
/// maximum, over banks, of the number of *distinct* words the active lanes
/// address in that bank. Identical addresses broadcast in one pass.
/// Returns 0 when no lane is active.
///
/// When every active lane opens a new bank or repeats its bank's first
/// word (any conflict-free or broadcast warp), the answer is 1 without a
/// sort.
pub fn shared_conflict_passes(addrs: &[u64; WARP_SIZE], mask: LaneMask) -> u32 {
    // Collect the active lanes' word addresses, noting each bank's first
    // word on the way; on a second distinct word in a bank, order them by
    // (bank, word) and count the longest run of distinct words within one
    // bank — all on the stack, since this runs on the issue hot path.
    let mut words = [0u64; WARP_SIZE];
    let mut bank_first = [0u64; SHARED_BANKS as usize];
    let mut opened = 0u32;
    let mut conflict = false;
    let mut n = 0;
    for lane in 0..WARP_SIZE {
        if mask & (1 << lane) == 0 {
            continue;
        }
        let w = addrs[lane] / SHARED_BANK_BYTES;
        let bank = (w % SHARED_BANKS) as usize;
        if opened & (1 << bank) == 0 {
            opened |= 1 << bank;
            bank_first[bank] = w;
        } else {
            conflict |= bank_first[bank] != w;
        }
        words[n] = w;
        n += 1;
    }
    if !conflict {
        return u32::from(n > 0);
    }
    let words = &mut words[..n];
    words.sort_unstable_by_key(|&w| (w % SHARED_BANKS, w));
    let mut max = 0u32;
    let mut run = 0u32;
    let mut prev = None;
    for &w in words.iter() {
        match prev {
            Some(p) if p % SHARED_BANKS == w % SHARED_BANKS => {
                if p != w {
                    run += 1;
                }
            }
            _ => run = 1,
        }
        prev = Some(w);
        max = max.max(run);
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs_from(f: impl Fn(usize) -> u64) -> [u64; WARP_SIZE] {
        std::array::from_fn(f)
    }

    #[test]
    fn unit_stride_coalesces_to_one_line() {
        let a = addrs_from(|l| 0x1000 + 4 * l as u64);
        let lines = coalesce(&a, u32::MAX, 4, 128);
        assert_eq!(lines.as_slice(), &[0x1000]);
    }

    #[test]
    fn unit_stride_u64_spans_two_lines() {
        let a = addrs_from(|l| 0x1000 + 8 * l as u64);
        let lines = coalesce(&a, u32::MAX, 8, 128);
        assert_eq!(lines.as_slice(), &[0x1000, 0x1080]);
    }

    #[test]
    fn misaligned_warp_touches_two_lines() {
        let a = addrs_from(|l| 0x1010 + 4 * l as u64);
        let lines = coalesce(&a, u32::MAX, 4, 128);
        assert_eq!(lines.as_slice(), &[0x1000, 0x1080]);
    }

    #[test]
    fn large_stride_serializes() {
        let a = addrs_from(|l| 0x0 + 128 * l as u64);
        let lines = coalesce(&a, u32::MAX, 4, 128);
        assert_eq!(lines.len(), 32);
    }

    #[test]
    fn inactive_lanes_ignored() {
        let a = addrs_from(|l| 128 * l as u64);
        let lines = coalesce(&a, 0b1, 4, 128);
        assert_eq!(lines.as_slice(), &[0]);
        assert!(coalesce(&a, 0, 4, 128).is_empty());
    }

    #[test]
    fn straddling_access_takes_both_lines() {
        let mut a = [0u64; WARP_SIZE];
        a[0] = 126; // 4-byte access crossing the 128B boundary
        let lines = coalesce(&a, 0b1, 4, 128);
        assert_eq!(lines.as_slice(), &[0, 128]);
    }

    #[test]
    fn same_line_lanes_merge() {
        let a = addrs_from(|_| 0x2004);
        let lines = coalesce(&a, u32::MAX, 4, 128);
        assert_eq!(lines.as_slice(), &[0x2000]);
    }

    #[test]
    fn shared_conflict_free_unit_stride() {
        let a = addrs_from(|l| 4 * l as u64);
        assert_eq!(shared_conflict_passes(&a, u32::MAX), 1);
    }

    #[test]
    fn shared_broadcast_is_one_pass() {
        let a = addrs_from(|_| 16);
        assert_eq!(shared_conflict_passes(&a, u32::MAX), 1);
    }

    #[test]
    fn shared_two_way_conflict() {
        // Stride of 2 words: lanes 0 and 16 hit bank 0 with distinct words.
        let a = addrs_from(|l| 8 * l as u64);
        assert_eq!(shared_conflict_passes(&a, u32::MAX), 2);
    }

    #[test]
    fn shared_worst_case_32_way() {
        // All lanes hit bank 0 with distinct words.
        let a = addrs_from(|l| 128 * l as u64);
        assert_eq!(shared_conflict_passes(&a, u32::MAX), 32);
    }

    #[test]
    fn shared_empty_mask_is_zero_passes() {
        let a = [0u64; WARP_SIZE];
        assert_eq!(shared_conflict_passes(&a, 0), 0);
    }

    /// The sorting bank-conflict count: the most distinct words any one
    /// bank holds.
    fn passes_by_sorting(addrs: &[u64; WARP_SIZE], mask: LaneMask) -> u32 {
        let mut words: Vec<u64> = (0..WARP_SIZE)
            .filter(|l| mask >> l & 1 != 0)
            .map(|l| addrs[l] / SHARED_BANK_BYTES)
            .collect();
        words.sort_unstable_by_key(|&w| (w % SHARED_BANKS, w));
        words.dedup();
        (0..SHARED_BANKS)
            .map(|b| words.iter().filter(|&&w| w % SHARED_BANKS == b).count() as u32)
            .max()
            .unwrap_or(0)
    }

    /// Random warp accesses in the shapes kernels issue — unit and wide
    /// strides up and down, broadcasts, a few hot words, random scatter —
    /// under random masks, so both the sort-free path and the sorting
    /// fallback run.
    fn random_access(g: &mut gpgpu_testkit::Gen) -> ([u64; WARP_SIZE], LaneMask) {
        let base = g.range(0, 1 << 20) * 4;
        let stride = *g.choose(&[0u64, 4, 8, 12, 16, 128, 132, 4096]);
        let addrs = match g.index(4) {
            0 => addrs_from(|l| base + stride * l as u64),
            1 => addrs_from(|l| base + stride * (WARP_SIZE - 1 - l) as u64),
            2 => {
                let hot: Vec<u64> = (0..g.range(1, 4)).map(|_| g.range(0, 64) * 4).collect();
                std::array::from_fn(|_| base + *g.choose(&hot))
            }
            _ => std::array::from_fn(|_| base + g.range(0, 1024)),
        };
        let mask = match g.index(3) {
            0 => u32::MAX,
            1 => g.next_u32(),
            _ => u32::MAX >> g.index(32),
        };
        (addrs, mask)
    }

    #[test]
    fn sort_free_conflict_count_matches_sorting() {
        let mut g = gpgpu_testkit::Gen::new(0xBA4C);
        // Conflict-free (1 pass) and conflicting (2+) warps, both common.
        let mut counts = [0u32; 2];
        for case in 0..20_000 {
            let (addrs, mask) = random_access(&mut g);
            let want = passes_by_sorting(&addrs, mask);
            assert_eq!(shared_conflict_passes(&addrs, mask), want, "case {case}");
            if want > 0 {
                counts[usize::from(want > 1)] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c > 1_000), "a path is rarely taken: {counts:?}");
    }
}
