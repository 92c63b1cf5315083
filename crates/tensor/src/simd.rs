//! Runtime-dispatched SIMD kernels for the wire-codec hot loops.
//!
//! Every kernel here has two implementations: an explicit `std::arch` AVX2
//! pipeline and a portable scalar reference. Dispatch is decided once per
//! process by [`active`]: the vector path runs only when the CPU reports
//! AVX2 (`is_x86_feature_detected!`) *and* `RNA_FORCE_SCALAR` is unset —
//! exporting `RNA_FORCE_SCALAR=1` pins the scalar reference, which CI uses
//! to keep the fallback covered. [`set_forced_scalar`] is the programmatic
//! override benches use to measure both paths in one process.
//!
//! The contract is **bit-identity**: for the same inputs (and the same
//! stochastic-rounding draw stream) the vector and scalar paths produce
//! byte-identical frames, so same-seed replays do not depend on the host
//! CPU. The paper's CUDA kernels become these runtime-detected host
//! kernels; the property tests in `tensor/tests/simd_codecs.rs` pin the
//! identity across lane-remainder lengths.
//!
//! Inputs are expected to be finite (gradients with NaN/∞ have already
//! diverged); the fp16 kernels are nevertheless total and bit-exact for
//! every input including NaN payloads.

// The one module allowed to use `unsafe`: `std::arch` intrinsics behind
// runtime feature detection, and byte-view casts over `f32` slices.
#![allow(unsafe_code)]

use crate::codec::{f16_bits_to_f32, f32_to_f16_bits, round_i8_sr};
use std::sync::atomic::{AtomicU8, Ordering};

/// Dispatch mode: 0 = undecided, 1 = auto (use SIMD when detected),
/// 2 = forced scalar.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Whether the scalar reference path is forced, by `RNA_FORCE_SCALAR` in
/// the environment (any value other than empty or `0`) or by
/// [`set_forced_scalar`]. Decided once and cached.
pub fn forced_scalar() -> bool {
    match MODE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let forced = std::env::var("RNA_FORCE_SCALAR")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            MODE.store(if forced { 2 } else { 1 }, Ordering::Relaxed);
            forced
        }
    }
}

/// Programmatically forces (or un-forces) the scalar path, overriding the
/// environment. Benches use this to time scalar vs SIMD in one process and
/// tests use it to pin bit-identity across both paths.
pub fn set_forced_scalar(on: bool) {
    MODE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Whether the AVX2 kernels are compiled in and the CPU supports them
/// (regardless of the force-scalar override).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the vector path will actually run: AVX2 detected and the scalar
/// override not engaged.
pub fn active() -> bool {
    avx2_available() && !forced_scalar()
}

/// Detected CPU features relevant to the codec kernels, for bench-report
/// headers (floors are only comparable across machines with the same
/// vector width).
pub fn detected_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("sse4.1", std::arch::is_x86_feature_detected!("sse4.1")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        vec![("avx2", false), ("sse4.1", false)]
    }
}

// ---------------------------------------------------------------------------
// fp16
// ---------------------------------------------------------------------------

/// Encodes `xs` as little-endian IEEE binary16 into `out`
/// (`out.len() == 2 * xs.len()`), round-to-nearest-even, bit-identical to
/// [`f32_to_f16_bits`] per element.
///
/// # Panics
///
/// Panics if `out.len() != 2 * xs.len()`.
pub fn fp16_encode(xs: &[f32], out: &mut [u8]) {
    assert_eq!(out.len(), xs.len() * 2, "fp16 output length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        unsafe { avx2::fp16_encode(xs, out) };
        return;
    }
    fp16_encode_scalar(xs, out);
}

/// The portable reference for [`fp16_encode`].
pub fn fp16_encode_scalar(xs: &[f32], out: &mut [u8]) {
    for (o, &x) in out.chunks_exact_mut(2).zip(xs) {
        o.copy_from_slice(&f32_to_f16_bits(x).to_le_bytes());
    }
}

/// Decodes little-endian IEEE binary16 `bytes` (`bytes.len() == 2 *
/// out.len()`) into `out`, bit-identical to [`f16_bits_to_f32`] per
/// element.
///
/// # Panics
///
/// Panics if `bytes.len() != 2 * out.len()`.
pub fn fp16_decode(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(bytes.len(), out.len() * 2, "fp16 payload length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        unsafe { avx2::fp16_decode(bytes, out) };
        return;
    }
    fp16_decode_scalar(bytes, out);
}

/// The portable reference for [`fp16_decode`].
pub fn fp16_decode_scalar(bytes: &[u8], out: &mut [f32]) {
    for (o, b) in out.iter_mut().zip(bytes.chunks_exact(2)) {
        *o = f16_bits_to_f32(u16::from_le_bytes([b[0], b[1]]));
    }
}

// ---------------------------------------------------------------------------
// int8 stochastic rounding
// ---------------------------------------------------------------------------

/// Largest finite magnitude in `xs` (`0.0` for an empty slice), matching
/// the scalar fold `m.max(x.abs())` bit-for-bit on finite inputs.
pub fn abs_max(xs: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        return unsafe { avx2::abs_max(xs) };
    }
    abs_max_scalar(xs)
}

/// The portable reference for [`abs_max`].
pub fn abs_max_scalar(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Divides `xs` by `scale` into `quotients` — the values the int8 codec
/// rounds, bit-identical to the scalar `x / scale` — and returns how many
/// have a strictly positive fractional part: the number of draws
/// [`int8_round`] consumes for them. The count sizes the draw slice before
/// rounding starts, so any draw source can be buffered.
///
/// # Panics
///
/// Panics if `quotients.len() != xs.len()`.
pub fn int8_quotients(xs: &[f32], scale: f32, quotients: &mut [f32]) -> usize {
    assert_eq!(quotients.len(), xs.len(), "int8 quotient length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        return unsafe { avx2::int8_quotients(xs, scale, quotients) };
    }
    int8_quotients_scalar(xs, scale, quotients)
}

/// The portable reference for [`int8_quotients`].
pub fn int8_quotients_scalar(xs: &[f32], scale: f32, quotients: &mut [f32]) -> usize {
    let mut need = 0;
    for (v, &x) in quotients.iter_mut().zip(xs) {
        *v = x / scale;
        need += usize::from(*v - v.floor() > 0.0);
    }
    need
}

/// Rounds int8 `quotients` to signed bytes (stored as `u8`) with
/// stochastic rounding, clamped to ±127.
///
/// `draws` holds the uniform `u32`s, one per quotient whose fractional part
/// is strictly positive, consumed in element order — the order in which
/// the per-element reference pulls them from a stream, so a buffered draw
/// slice and a draw-at-a-time stream produce the same bytes. The vector
/// path rounds eight lanes at a time and, for a block whose eight lanes
/// all need a draw, loads the eight draws as one vector.
///
/// # Panics
///
/// Panics if `out.len() != quotients.len()` or `draws` is shorter than the
/// count [`int8_quotients`] returned.
pub fn int8_round(quotients: &[f32], out: &mut [u8], draws: &[u32]) {
    assert_eq!(out.len(), quotients.len(), "int8 output length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        unsafe { avx2::int8_round(quotients, out, draws) };
        return;
    }
    int8_round_scalar(quotients, out, draws);
}

/// The portable reference for [`int8_round`].
///
/// # Panics
///
/// Panics if `draws` runs out before the last quotient that needs one.
pub fn int8_round_scalar(quotients: &[f32], out: &mut [u8], draws: &[u32]) {
    let mut next = draws.iter();
    for (o, &v) in out.iter_mut().zip(quotients) {
        let mut draw = || *next.next().expect("int8 draw slice too short");
        *o = round_i8_sr(v, &mut draw) as u8;
    }
}

/// Dequantizes signed bytes back to `f32`
/// (`out[i] = bytes[i] as i8 as f32 * scale`), bit-identical to the scalar
/// loop.
///
/// # Panics
///
/// Panics if `bytes.len() != out.len()`.
pub fn int8_dequantize(bytes: &[u8], scale: f32, out: &mut [f32]) {
    assert_eq!(bytes.len(), out.len(), "int8 payload length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        unsafe { avx2::int8_dequantize(bytes, scale, out) };
        return;
    }
    int8_dequantize_scalar(bytes, scale, out);
}

/// The portable reference for [`int8_dequantize`].
pub fn int8_dequantize_scalar(bytes: &[u8], scale: f32, out: &mut [f32]) {
    for (o, &b) in out.iter_mut().zip(bytes) {
        *o = f32::from(b as i8) * scale;
    }
}

// ---------------------------------------------------------------------------
// top-k threshold scan
// ---------------------------------------------------------------------------

/// Magnitude sort keys for a top-k scan: `x.to_bits() & 0x7FFF_FFFF`.
///
/// For sign-cleared floats the IEEE total order coincides with unsigned
/// integer order on the bit patterns (NaN payloads sort above infinity,
/// exactly like `f32::total_cmp` on magnitudes), so selection and scanning
/// run on plain `u32`s.
pub fn magnitude_keys(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits() & 0x7FFF_FFFF).collect()
}

/// Threshold scan for top-k selection: appends to `gt` every index whose
/// key is strictly above `t` and to `ties` the first (lowest-index)
/// `tie_cap` indices whose key equals `t`, both in ascending index order.
///
/// The vector path compares eight keys per step and falls into per-lane
/// classification only when a block contains a candidate — for small keep
/// fractions almost every block is skipped with one compare.
pub fn topk_scan(keys: &[u32], t: u32, tie_cap: usize, gt: &mut Vec<u32>, ties: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        unsafe { avx2::topk_scan(keys, t, tie_cap, gt, ties) };
        return;
    }
    topk_scan_scalar(keys, t, tie_cap, gt, ties);
}

/// The portable reference for [`topk_scan`].
pub fn topk_scan_scalar(
    keys: &[u32],
    t: u32,
    tie_cap: usize,
    gt: &mut Vec<u32>,
    ties: &mut Vec<u32>,
) {
    for (i, &k) in keys.iter().enumerate() {
        if k > t {
            gt.push(i as u32);
        } else if k == t && ties.len() < tie_cap {
            ties.push(i as u32);
        }
    }
}

// ---------------------------------------------------------------------------
// ChaCha8 keystream
// ---------------------------------------------------------------------------

/// ChaCha block words of one 64-byte block.
pub type ChaChaBlock = [u32; 16];

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// The ChaCha input state for block `counter` under `key`: RFC 7539 layout
/// (constants, 256-bit key, 64-bit block counter, zero 64-bit nonce).
fn chacha_input(key: &[u32; 8], counter: u64) -> ChaChaBlock {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CHACHA_CONSTANTS);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    state
}

#[inline]
fn quarter_round(state: &mut ChaChaBlock, a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// One ChaCha8 keystream block (8 rounds, as `rand_chacha::ChaCha8Rng`):
/// the scalar reference for [`chacha8_blocks`].
pub fn chacha8_block(key: &[u32; 8], counter: u64) -> ChaChaBlock {
    let input = chacha_input(key, counter);
    let mut x = input;
    for _ in 0..4 {
        // One double round: column round + diagonal round.
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (w, i) in x.iter_mut().zip(input) {
        *w = w.wrapping_add(i);
    }
    x
}

/// Fills `out` with consecutive ChaCha8 keystream blocks: `out[i]` is block
/// `counter + i` (the 64-bit counter wraps), bit-identical to
/// [`chacha8_block`] per block. The vector path runs eight blocks at once,
/// one block per lane.
pub fn chacha8_blocks(key: &[u32; 8], counter: u64, out: &mut [ChaChaBlock]) {
    #[cfg(target_arch = "x86_64")]
    if active() {
        let whole = out.len() / 8 * 8;
        let (groups, rest) = out.split_at_mut(whole);
        for (g, group) in groups.chunks_exact_mut(8).enumerate() {
            // SAFETY: `active()` verified AVX2 support at runtime.
            unsafe { avx2::chacha8_blocks8(key, counter.wrapping_add(8 * g as u64), group) };
        }
        chacha8_blocks_scalar(key, counter.wrapping_add(whole as u64), rest);
        return;
    }
    chacha8_blocks_scalar(key, counter, out);
}

/// The portable reference for [`chacha8_blocks`].
pub fn chacha8_blocks_scalar(key: &[u32; 8], counter: u64, out: &mut [ChaChaBlock]) {
    for (i, block) in out.iter_mut().enumerate() {
        *block = chacha8_block(key, counter.wrapping_add(i as u64));
    }
}

// ---------------------------------------------------------------------------
// lossless byte views
// ---------------------------------------------------------------------------

/// Appends the little-endian byte image of `xs` to `out` — the lossless
/// wire payload — at memcpy speed on little-endian hosts.
pub fn f32s_to_le_bytes(xs: &[f32], out: &mut Vec<u8>) {
    #[cfg(target_endian = "little")]
    {
        out.extend_from_slice(raw::f32s_as_bytes(xs));
    }
    #[cfg(not(target_endian = "little"))]
    {
        out.reserve(xs.len() * 4);
        for &x in xs {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Reads little-endian `f32` bit patterns from `bytes`
/// (`bytes.len() == 4 * out.len()`) into `out` at memcpy speed.
///
/// # Panics
///
/// Panics if `bytes.len() != 4 * out.len()`.
pub fn le_bytes_to_f32s(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(
        bytes.len(),
        out.len() * 4,
        "lossless payload length mismatch"
    );
    #[cfg(target_endian = "little")]
    {
        raw::bytes_into_f32s(bytes, out);
    }
    #[cfg(not(target_endian = "little"))]
    {
        for (o, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *o = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
}

/// Byte-view casts for the lossless payload path. `f32` has no invalid bit
/// patterns and no padding, so viewing a float slice as bytes (and copying
/// bytes over floats) is sound; endianness is handled by the callers.
#[cfg(target_endian = "little")]
mod raw {
    /// The raw little-endian byte image of a float slice.
    pub fn f32s_as_bytes(xs: &[f32]) -> &[u8] {
        // SAFETY: f32 and u8 have no padding or invalid representations;
        // the length covers exactly the same memory.
        unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), xs.len() * 4) }
    }

    /// Copies a byte image over a float slice (lengths already checked).
    pub fn bytes_into_f32s(bytes: &[u8], out: &mut [f32]) {
        debug_assert_eq!(bytes.len(), out.len() * 4);
        // SAFETY: every 4-byte pattern is a valid f32; regions cannot
        // overlap (&mut out is exclusive).
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                out.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels
// ---------------------------------------------------------------------------

/// Explicit AVX2 pipelines. Every function is `unsafe fn` gated on the
/// caller having verified `avx2` at runtime; all are bit-identical to the
/// scalar references above (pinned by the crate's property tests).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// 8-lane fp16 encode: the scalar bit-twiddling of
    /// [`crate::codec::f32_to_f16_bits`] as a shift/blend pipeline.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fp16_encode(xs: &[f32], out: &mut [u8]) {
        let n = xs.len();
        let mut i = 0;
        while i + 8 <= n {
            let bits = _mm256_castps_si256(_mm256_loadu_ps(xs.as_ptr().add(i)));
            let sign = _mm256_and_si256(_mm256_srli_epi32(bits, 16), _mm256_set1_epi32(0x8000));
            let abs = _mm256_and_si256(bits, _mm256_set1_epi32(0x7FFF_FFFF));
            let exp = _mm256_srli_epi32(abs, 23);
            let mant = _mm256_and_si256(abs, _mm256_set1_epi32(0x007F_FFFF));
            let half_exp = _mm256_sub_epi32(exp, _mm256_set1_epi32(112));

            // Normal path: drop 13 mantissa bits with RNE (carry may bump
            // the exponent, possibly into infinity — same as scalar).
            let kept_n = _mm256_srli_epi32(mant, 13);
            let rem_n = _mm256_and_si256(mant, _mm256_set1_epi32(0x1FFF));
            let h_n = _mm256_or_si256(_mm256_slli_epi32(half_exp, 10), kept_n);
            let rem_gt = _mm256_cmpgt_epi32(rem_n, _mm256_set1_epi32(0x1000));
            let rem_eq = _mm256_cmpeq_epi32(rem_n, _mm256_set1_epi32(0x1000));
            let odd_n = _mm256_cmpeq_epi32(
                _mm256_and_si256(h_n, _mm256_set1_epi32(1)),
                _mm256_set1_epi32(1),
            );
            let round_n = _mm256_or_si256(rem_gt, _mm256_and_si256(rem_eq, odd_n));
            // A compare mask is -1 per rounding lane; subtracting adds 1.
            let h_n = _mm256_sub_epi32(h_n, round_n);

            // Subnormal path: implicit leading 1, variable right shift
            // (14..=24), RNE on the shifted-out remainder.
            let m_s = _mm256_or_si256(mant, _mm256_set1_epi32(0x0080_0000));
            let shift = _mm256_sub_epi32(_mm256_set1_epi32(14), half_exp);
            let kept_s = _mm256_srlv_epi32(m_s, shift);
            let pow = _mm256_sllv_epi32(_mm256_set1_epi32(1), shift);
            let rem_s = _mm256_and_si256(m_s, _mm256_sub_epi32(pow, _mm256_set1_epi32(1)));
            let halfway = _mm256_srli_epi32(pow, 1);
            let srem_gt = _mm256_cmpgt_epi32(rem_s, halfway);
            let srem_eq = _mm256_cmpeq_epi32(rem_s, halfway);
            let odd_s = _mm256_cmpeq_epi32(
                _mm256_and_si256(kept_s, _mm256_set1_epi32(1)),
                _mm256_set1_epi32(1),
            );
            let round_s = _mm256_or_si256(srem_gt, _mm256_and_si256(srem_eq, odd_s));
            let h_s = _mm256_sub_epi32(kept_s, round_s);

            // Select: normal, then subnormal (half_exp <= 0), then flush to
            // zero (half_exp < -10), then overflow to infinity
            // (half_exp >= 0x1F), then NaN/∞ passthrough (which must win
            // over the overflow blend — their half_exp is also >= 0x1F).
            let is_sub = _mm256_cmpgt_epi32(_mm256_set1_epi32(1), half_exp);
            let mut h = _mm256_blendv_epi8(h_n, h_s, is_sub);
            let is_tiny = _mm256_cmpgt_epi32(_mm256_set1_epi32(-10), half_exp);
            h = _mm256_andnot_si256(is_tiny, h);
            let is_ovf = _mm256_cmpgt_epi32(half_exp, _mm256_set1_epi32(0x1E));
            h = _mm256_blendv_epi8(h, _mm256_set1_epi32(0x7C00), is_ovf);
            let is_naninf = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(0x7F7F_FFFF));
            let is_nan = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(0x7F80_0000));
            let naninf_h =
                _mm256_blendv_epi8(_mm256_set1_epi32(0x7C00), _mm256_set1_epi32(0x7E00), is_nan);
            h = _mm256_blendv_epi8(h, naninf_h, is_naninf);
            h = _mm256_or_si256(h, sign);

            // Pack 8 dwords (each <= 0xFFFF) to 8 words, fixing the 128-bit
            // lane interleave of packus.
            let packed = _mm256_packus_epi32(h, h);
            let ordered = _mm256_permute4x64_epi64(packed, 0b11_01_10_00);
            let low = _mm256_castsi256_si128(ordered);
            _mm_storeu_si128(out.as_mut_ptr().add(2 * i).cast::<__m128i>(), low);
            i += 8;
        }
        super::fp16_encode_scalar(&xs[i..], &mut out[2 * i..]);
    }

    /// 8-lane fp16 decode. Subnormal halves decode as `mantissa × 2⁻²⁴`
    /// (exact in f32, identical to the scalar renormalization loop).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fp16_decode(bytes: &[u8], out: &mut [f32]) {
        let n = out.len();
        let mut i = 0;
        while i + 8 <= n {
            let h16 = _mm_loadu_si128(bytes.as_ptr().add(2 * i).cast::<__m128i>());
            let h = _mm256_cvtepu16_epi32(h16);
            let sign = _mm256_slli_epi32(_mm256_and_si256(h, _mm256_set1_epi32(0x8000)), 16);
            let e = _mm256_and_si256(_mm256_srli_epi32(h, 10), _mm256_set1_epi32(0x1F));
            let m = _mm256_and_si256(h, _mm256_set1_epi32(0x03FF));
            let m13 = _mm256_slli_epi32(m, 13);
            let norm = _mm256_or_si256(
                _mm256_slli_epi32(_mm256_add_epi32(e, _mm256_set1_epi32(112)), 23),
                m13,
            );
            let inf_nan = _mm256_or_si256(_mm256_set1_epi32(0x7F80_0000), m13);
            // Subnormal: m × 2⁻²⁴, both steps exact.
            let fsub = _mm256_mul_ps(
                _mm256_cvtepi32_ps(m),
                _mm256_set1_ps(f32::from_bits(0x3380_0000)),
            );
            let sub_bits = _mm256_castps_si256(fsub);
            let is_e0 = _mm256_cmpeq_epi32(e, _mm256_setzero_si256());
            let is_e31 = _mm256_cmpeq_epi32(e, _mm256_set1_epi32(0x1F));
            let mut bits = _mm256_blendv_epi8(norm, sub_bits, is_e0);
            bits = _mm256_blendv_epi8(bits, inf_nan, is_e31);
            bits = _mm256_or_si256(bits, sign);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_castsi256_ps(bits));
            i += 8;
        }
        super::fp16_decode_scalar(&bytes[2 * i..], &mut out[i..]);
    }

    /// Vector absolute maximum (finite inputs).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn abs_max(xs: &[f32]) -> f32 {
        let n = xs.len();
        let mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(xs.as_ptr().add(i));
            acc = _mm256_max_ps(acc, _mm256_and_ps(x, mask));
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut m = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
        for &x in &xs[i..] {
            m = m.max(x.abs());
        }
        m
    }

    /// Vector quotients and the count of lanes whose fractional part is
    /// positive.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn int8_quotients(xs: &[f32], scale: f32, quotients: &mut [f32]) -> usize {
        let n = xs.len();
        let vscale = _mm256_set1_ps(scale);
        let mut count = 0usize;
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_div_ps(_mm256_loadu_ps(xs.as_ptr().add(i)), vscale);
            _mm256_storeu_ps(quotients[i..i + 8].as_mut_ptr(), v);
            let frac = _mm256_sub_ps(v, _mm256_floor_ps(v));
            let need = _mm256_cmp_ps::<_CMP_GT_OQ>(frac, _mm256_setzero_ps());
            count += (_mm256_movemask_ps(need) as u32).count_ones() as usize;
            i += 8;
        }
        count + super::int8_quotients_scalar(&xs[i..], scale, &mut quotients[i..])
    }

    /// 8-lane stochastic rounding over a draw slice. A block whose eight
    /// lanes all need a draw (the common case for a gradient) takes its
    /// eight draws as one vector load; a partial block places its draws
    /// lane by lane, in lane order, so the slice is consumed exactly as the
    /// scalar reference consumes it.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn int8_round(quotients: &[f32], out: &mut [u8], draws: &[u32]) {
        let n = quotients.len();
        // 2⁻²⁴ as a multiply: exact for 24-bit draws, same result as the
        // scalar division by 2²⁴.
        let inv24 = _mm256_set1_ps(f32::from_bits(0x3380_0000));
        let mut us = [0u32; 8];
        let mut k = 0;
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(quotients.as_ptr().add(i));
            let lo = _mm256_floor_ps(v);
            let frac = _mm256_sub_ps(v, lo);
            let mut q = _mm256_cvttps_epi32(lo);
            let need = _mm256_cmp_ps::<_CMP_GT_OQ>(frac, _mm256_setzero_ps());
            let mask = _mm256_movemask_ps(need) as u32 & 0xFF;
            if mask != 0 {
                let raw = if mask == 0xFF {
                    let block = &draws[k..k + 8];
                    k += 8;
                    _mm256_loadu_si256(block.as_ptr().cast::<__m256i>())
                } else {
                    for (lane, u) in us.iter_mut().enumerate() {
                        // Lanes without a draw are masked off by `need`.
                        *u = if mask & (1 << lane) != 0 {
                            k += 1;
                            draws[k - 1]
                        } else {
                            0
                        };
                    }
                    _mm256_loadu_si256(us.as_ptr().cast::<__m256i>())
                };
                // Draws >> 8 are below 2²⁴: exact as i32 and as f32.
                let u = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_srli_epi32(raw, 8)), inv24);
                let up = _mm256_and_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(u, frac), need);
                q = _mm256_sub_epi32(q, _mm256_castps_si256(up));
            }
            q = _mm256_min_epi32(q, _mm256_set1_epi32(127));
            q = _mm256_max_epi32(q, _mm256_set1_epi32(-127));
            // Narrow the clamped i32 lanes to bytes (saturation is a no-op
            // in ±127): packs work per 128-bit half, leaving lanes 0..4 in
            // dword 0 and lanes 4..8 in dword 4; gather those two dwords.
            let words = _mm256_packs_epi32(q, q);
            let bytes = _mm256_packs_epi16(words, words);
            let ordered =
                _mm256_permutevar8x32_epi32(bytes, _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0));
            let dst = &mut out[i..i + 8];
            _mm_storel_epi64(
                dst.as_mut_ptr().cast::<__m128i>(),
                _mm256_castsi256_si128(ordered),
            );
            i += 8;
        }
        super::int8_round_scalar(&quotients[i..], &mut out[i..], &draws[k..]);
    }

    /// Rotates each 32-bit lane left by `L` bits (`R` = 32 − `L`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn rotl<const L: i32, const R: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<L>(x), _mm256_srli_epi32::<R>(x))
    }

    /// One ChaCha quarter round across eight blocks; the 16- and 8-bit
    /// rotates are byte shuffles by `rot16` and `rot8`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quarter_round(
        x: &mut [__m256i; 16],
        (a, b, c, d): (usize, usize, usize, usize),
        rot16: __m256i,
        rot8: __m256i,
    ) {
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<12, 20>(_mm256_xor_si256(x[b], x[c]));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<7, 25>(_mm256_xor_si256(x[b], x[c]));
    }

    /// Transposes an 8×8 matrix of `u32`s held as eight row vectors, so
    /// that `rows[j]` afterwards holds what was column `j`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8(rows: &mut [__m256i]) {
        let r = |i: usize| rows[i];
        let t0 = _mm256_unpacklo_epi32(r(0), r(1));
        let t1 = _mm256_unpackhi_epi32(r(0), r(1));
        let t2 = _mm256_unpacklo_epi32(r(2), r(3));
        let t3 = _mm256_unpackhi_epi32(r(2), r(3));
        let t4 = _mm256_unpacklo_epi32(r(4), r(5));
        let t5 = _mm256_unpackhi_epi32(r(4), r(5));
        let t6 = _mm256_unpacklo_epi32(r(6), r(7));
        let t7 = _mm256_unpackhi_epi32(r(6), r(7));
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        rows[0] = _mm256_permute2x128_si256::<0x20>(u0, u4);
        rows[1] = _mm256_permute2x128_si256::<0x20>(u1, u5);
        rows[2] = _mm256_permute2x128_si256::<0x20>(u2, u6);
        rows[3] = _mm256_permute2x128_si256::<0x20>(u3, u7);
        rows[4] = _mm256_permute2x128_si256::<0x31>(u0, u4);
        rows[5] = _mm256_permute2x128_si256::<0x31>(u1, u5);
        rows[6] = _mm256_permute2x128_si256::<0x31>(u2, u6);
        rows[7] = _mm256_permute2x128_si256::<0x31>(u3, u7);
    }

    /// Eight consecutive ChaCha8 blocks, `counter .. counter + 8`, one per
    /// lane: lane `j` of state vector `w` is word `w` of block
    /// `counter + j`. The low counter word adds the lane index and carries
    /// into the high word, so a group may straddle a 2³² boundary.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != 8`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn chacha8_blocks8(key: &[u32; 8], counter: u64, out: &mut [super::ChaChaBlock]) {
        assert_eq!(out.len(), 8, "chacha8 AVX2 group is eight blocks");
        let input = super::chacha_input(key, counter);
        let mut init = [_mm256_setzero_si256(); 16];
        for (v, &w) in init.iter_mut().zip(&input) {
            *v = _mm256_set1_epi32(w as i32);
        }
        let lo = _mm256_add_epi32(init[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        // Unsigned `lo < base` marks the lanes that wrapped: flip the sign
        // bits so the signed compare orders them as unsigned. The mask is
        // −1 per carrying lane, so subtracting it adds the carry.
        let bias = _mm256_set1_epi32(i32::MIN);
        let carry =
            _mm256_cmpgt_epi32(_mm256_xor_si256(init[12], bias), _mm256_xor_si256(lo, bias));
        init[12] = lo;
        init[13] = _mm256_sub_epi32(init[13], carry);

        let rot16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        let rot8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        );
        let mut x = init;
        for _ in 0..4 {
            quarter_round(&mut x, (0, 4, 8, 12), rot16, rot8);
            quarter_round(&mut x, (1, 5, 9, 13), rot16, rot8);
            quarter_round(&mut x, (2, 6, 10, 14), rot16, rot8);
            quarter_round(&mut x, (3, 7, 11, 15), rot16, rot8);
            quarter_round(&mut x, (0, 5, 10, 15), rot16, rot8);
            quarter_round(&mut x, (1, 6, 11, 12), rot16, rot8);
            quarter_round(&mut x, (2, 7, 8, 13), rot16, rot8);
            quarter_round(&mut x, (3, 4, 9, 14), rot16, rot8);
        }
        for (v, i) in x.iter_mut().zip(init) {
            *v = _mm256_add_epi32(*v, i);
        }
        // Words 0..8 and 8..16 of the eight blocks are two 8×8 matrices;
        // transposed, row `j` of each is block `j`'s half.
        transpose8(&mut x[..8]);
        transpose8(&mut x[8..]);
        for (j, block) in out.iter_mut().enumerate() {
            // A block is sixteen u32s: two unaligned 8-lane stores fill it.
            let p = block.as_mut_ptr().cast::<__m256i>();
            _mm256_storeu_si256(p, x[j]);
            _mm256_storeu_si256(p.add(1), x[8 + j]);
        }
    }

    /// 8-lane dequantizer: `out[i] = bytes[i] as i8 as f32 * scale`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn int8_dequantize(bytes: &[u8], scale: f32, out: &mut [f32]) {
        let n = out.len();
        let vscale = _mm256_set1_ps(scale);
        let mut i = 0;
        while i + 8 <= n {
            let b = _mm_loadl_epi64(bytes.as_ptr().add(i).cast::<__m128i>());
            let q = _mm256_cvtepi8_epi32(b);
            let f = _mm256_mul_ps(_mm256_cvtepi32_ps(q), vscale);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), f);
            i += 8;
        }
        super::int8_dequantize_scalar(&bytes[i..], scale, &mut out[i..]);
    }

    /// Vectorized threshold scan: one compare rejects eight keys at a time;
    /// only blocks containing a candidate fall into per-lane classification.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn topk_scan(
        keys: &[u32],
        t: u32,
        tie_cap: usize,
        gt: &mut Vec<u32>,
        ties: &mut Vec<u32>,
    ) {
        let n = keys.len();
        // Keys are sign-cleared (≤ 0x7FFF_FFFF), so signed compares agree
        // with unsigned order; `t - 1` makes `> t-1` mean `>= t`, and for
        // t = 0 the wrap to -1 correctly flags every lane.
        let ge_bound = _mm256_set1_epi32((t as i32).wrapping_sub(1));
        let mut i = 0;
        while i + 8 <= n {
            let k = _mm256_loadu_si256(keys.as_ptr().add(i).cast::<__m256i>());
            let ge = _mm256_cmpgt_epi32(k, ge_bound);
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(ge)) as u32 & 0xFF;
            if mask != 0 {
                for lane in 0..8 {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let key = *keys.get_unchecked(i + lane);
                    if key > t {
                        gt.push((i + lane) as u32);
                    } else if ties.len() < tie_cap {
                        ties.push((i + lane) as u32);
                    }
                }
            }
            i += 8;
        }
        for (off, &key) in keys[i..].iter().enumerate() {
            if key > t {
                gt.push((i + off) as u32);
            } else if key == t && ties.len() < tie_cap {
                ties.push((i + off) as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 32) as u32
        }
    }

    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        let mut d = lcg(seed);
        (0..len)
            .map(|_| (d() as f32 / (1u32 << 24) as f32) - 128.0)
            .collect()
    }

    #[test]
    fn force_scalar_override_roundtrips() {
        let was = forced_scalar();
        set_forced_scalar(true);
        assert!(forced_scalar());
        assert!(!active());
        set_forced_scalar(false);
        assert!(!forced_scalar());
        set_forced_scalar(was);
    }

    #[test]
    fn detected_features_names_are_stable() {
        let names: Vec<&str> = detected_features().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["avx2", "sse4.1"]);
    }

    #[test]
    fn lossless_byte_views_roundtrip() {
        let xs = pseudo(37, 5);
        let mut buf = Vec::new();
        f32s_to_le_bytes(&xs, &mut buf);
        assert_eq!(buf.len(), xs.len() * 4);
        let mut back = vec![0.0f32; xs.len()];
        le_bytes_to_f32s(&buf, &mut back);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&xs), bits(&back));
    }

    #[test]
    fn chacha8_bulk_blocks_match_the_scalar_block() {
        let key = [0x0123_4567, 0x89ab_cdef, 7, 0, u32::MAX, 42, 0xdead_beef, 1];
        // Counters crossing 2³² and wrapping 2⁶⁴ inside one 8-block group.
        for counter in [0u64, 5, (1 << 32) - 3, u64::MAX - 4] {
            for len in 0..=17 {
                let mut bulk = vec![[0u32; 16]; len];
                chacha8_blocks(&key, counter, &mut bulk);
                for (i, block) in bulk.iter().enumerate() {
                    let expected = chacha8_block(&key, counter.wrapping_add(i as u64));
                    assert_eq!(*block, expected, "counter={counter:#x} len={len} block={i}");
                }
            }
        }
    }

    /// Inputs whose int8 blocks mix lanes that need a draw with exact
    /// quanta (zeros and multiples of the scale) that do not.
    fn partial_draw_inputs(len: usize) -> (Vec<f32>, f32) {
        let scale = 0.5f32;
        let xs = pseudo(len, 3)
            .into_iter()
            .enumerate()
            .map(|(i, x)| match i % 5 {
                0 => 0.0,
                3 => (i % 9) as f32 * scale,
                _ => x / 2.0,
            })
            .collect();
        (xs, scale)
    }

    #[test]
    fn int8_slice_rounding_matches_the_scalar_reference() {
        for len in 0..=41 {
            let (xs, scale) = partial_draw_inputs(len);
            let mut v = vec![0.0f32; len];
            let mut v_ref = vec![0.0f32; len];
            let need = int8_quotients(&xs, scale, &mut v);
            assert_eq!(
                need,
                int8_quotients_scalar(&xs, scale, &mut v_ref),
                "len={len}"
            );
            assert_eq!(v, v_ref, "len={len}: quotients");
            let mut d = lcg(len as u64);
            let draws: Vec<u32> = (0..need).map(|_| d()).collect();
            let mut fast = vec![0u8; len];
            let mut reference = vec![0u8; len];
            int8_round(&v, &mut fast, &draws);
            int8_round_scalar(&v, &mut reference, &draws);
            assert_eq!(fast, reference, "len={len}");
        }
    }

    #[test]
    fn magnitude_keys_order_matches_total_cmp() {
        let xs = [0.0f32, -0.0, 1.5, -1.5, f32::INFINITY, f32::NAN, 1e-40];
        let keys = magnitude_keys(&xs);
        for (i, a) in xs.iter().enumerate() {
            for (j, b) in xs.iter().enumerate() {
                assert_eq!(
                    a.abs().total_cmp(&b.abs()),
                    keys[i].cmp(&keys[j]),
                    "key order must mirror magnitude total order ({a} vs {b})"
                );
            }
        }
    }
}
