//! The AVX2 chunk test of [`super::each_match`]: sixteen `i64` keys
//! against one in four 4-lane compares.
//!
//! Baseline x86-64 has no packed 64-bit compare (`pcmpeqq` is SSE4.1,
//! `pcmpgtq` SSE4.2), and the scalar `fold` stays a chain of sixteen
//! compare-and-branch pairs even when built for a wider target. So this
//! module spells the compare out with intrinsics, behind a run-time
//! check: an [`Avx2`] exists only once [`Avx2::detect`] has seen the
//! feature, and it is the only way into the `target_feature` code. Each
//! chunk is four `_mm256_cmpeq_epi64` (`Eq`, `Ne`) or `_mm256_cmpgt_epi64`
//! (the four orderings; `Lt` and `Ge` put the chunk's keys on the left).
//! `Ne`, `Le` and `Ge` are the complements of `Eq`, `Gt` and `Lt`, so their
//! masks are inverted. A chunk with no match costs the four compares, one
//! `or` (an `and` when inverted) and one `vptest`; a chunk with a match is
//! walked bit by bit in ascending order, so hits keep slot order.
//!
//! This and `df-serve`'s `sys.rs` are the only modules allowed `unsafe`.

use super::CHUNK;
use df_relalg::CmpOp;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m256i, _mm256_and_si256, _mm256_castsi256_pd, _mm256_cmpeq_epi64, _mm256_cmpgt_epi64,
    _mm256_loadu_si256, _mm256_movemask_pd, _mm256_or_si256, _mm256_set1_epi64x,
    _mm256_setzero_si256, _mm256_testc_si256, _mm256_testz_si256,
};

/// Proof that this CPU runs AVX2: the only way to reach the intrinsics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Avx2(Proof);

#[cfg(target_arch = "x86_64")]
type Proof = ();
/// Off x86-64 there is no AVX2, and no value of this type.
#[cfg(not(target_arch = "x86_64"))]
type Proof = std::convert::Infallible;

impl Avx2 {
    /// `Some` when this CPU runs AVX2.
    pub(super) fn detect() -> Option<Avx2> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Avx2(()));
        }
        None
    }

    /// Test the whole [`CHUNK`]s at the front of `keys` against
    /// `key op k`, calling `hit` with each matching position in ascending
    /// order; returns how many keys that covered.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub(super) fn chunks(
        self,
        op: CmpOp,
        key: i64,
        keys: &[i64],
        hit: &mut impl FnMut(usize),
    ) -> usize {
        // SAFETY: `self` exists only once `detect` has seen AVX2 on this
        // CPU, the one feature `chunks_avx2` is compiled for.
        unsafe {
            match op {
                CmpOp::Eq => chunks_avx2::<false, false, false>(key, keys, hit),
                CmpOp::Ne => chunks_avx2::<false, false, true>(key, keys, hit),
                CmpOp::Gt => chunks_avx2::<true, false, false>(key, keys, hit),
                CmpOp::Le => chunks_avx2::<true, false, true>(key, keys, hit),
                CmpOp::Lt => chunks_avx2::<true, true, false>(key, keys, hit),
                CmpOp::Ge => chunks_avx2::<true, true, true>(key, keys, hit),
            }
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(super) fn chunks(self, _: CmpOp, _: i64, _: &[i64], _: &mut impl FnMut(usize)) -> usize {
        match self.0 {}
    }
}

/// The chunk loop for one operator: `GT` picks `cmpgt` over `cmpeq`, `SWAP`
/// puts the chunk's keys on the left (`k > key`), and `NOT` complements the
/// result.
///
/// # Safety
/// The CPU must run AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chunks_avx2<const GT: bool, const SWAP: bool, const NOT: bool>(
    key: i64,
    keys: &[i64],
    hit: &mut impl FnMut(usize),
) -> usize {
    let fixed = _mm256_set1_epi64x(key);
    let whole = keys.len() / CHUNK * CHUNK;
    for (c, chunk) in keys[..whole].chunks_exact(CHUNK).enumerate() {
        let at = chunk.as_ptr().cast::<__m256i>();
        let mut m = [_mm256_setzero_si256(); 4];
        for (j, m) in m.iter_mut().enumerate() {
            // SAFETY: a chunk is sixteen keys, four 32-byte lanes, so lane
            // `j < 4` is inside it; `loadu` takes any alignment.
            let lane = unsafe { _mm256_loadu_si256(at.add(j)) };
            *m = match (GT, SWAP) {
                (false, _) => _mm256_cmpeq_epi64(fixed, lane),
                (true, false) => _mm256_cmpgt_epi64(fixed, lane),
                (true, true) => _mm256_cmpgt_epi64(lane, fixed),
            };
        }
        let none = if NOT {
            // No complement hit: every lane compared true.
            let all = _mm256_and_si256(_mm256_and_si256(m[0], m[1]), _mm256_and_si256(m[2], m[3]));
            _mm256_testc_si256(all, _mm256_set1_epi64x(-1)) == 1
        } else {
            let any = _mm256_or_si256(_mm256_or_si256(m[0], m[1]), _mm256_or_si256(m[2], m[3]));
            _mm256_testz_si256(any, any) == 1
        };
        if none {
            continue;
        }
        let mut bits = 0u32;
        for (j, &m) in m.iter().enumerate() {
            bits |= (_mm256_movemask_pd(_mm256_castsi256_pd(m)) as u32) << (4 * j);
        }
        if NOT {
            bits ^= (1 << CHUNK) - 1;
        }
        while bits != 0 {
            hit(c * CHUNK + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
    whole
}
