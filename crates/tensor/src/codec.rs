//! Pluggable gradient wire codecs: lossless fp32, fp16, int8 with
//! stochastic rounding, and top-k sparsification.
//!
//! Every frame a codec produces is self-describing: a fixed
//! [`FRAME_HEADER_BYTES`]-byte header (codec tag, codec parameter, element
//! count) followed by the codec-specific payload. The header is what the
//! cost model charges per message on top of the payload (latency α covers
//! propagation, not framing), and [`Compression::frame_bytes`] is the exact
//! size [`Compression::encode`] emits — the discrete-event simulator charges
//! that same figure, so virtual-time savings and measured savings agree to
//! the byte.
//!
//! Lossy codecs are made convergent by the *error-feedback* recurrence
//! ([`encode_with_feedback`]): the quantization error of round `t` is
//! carried into round `t+1`'s input, so the bias of repeated rounding
//! cancels instead of accumulating. `Int8` additionally uses stochastic
//! rounding, whose random draws come from a caller-supplied stream — in the
//! simulator that is a forked, namespaced ChaCha stream, which keeps
//! same-seed replays bit-identical.
//!
//! Decoders never panic on malformed input: they return a typed
//! [`CodecError`] naming what was wrong — and they never size an
//! allocation from an unvalidated frame field (the caller owns the output
//! buffer; counts inside the frame are checked against it). This matters
//! now that frames can arrive over a socket from another process, not
//! just from locally-produced bytes.

use crate::simd;
use crate::wire::{self, Reader};
use crate::Tensor;

/// Why a codec frame could not be decoded. Carries enough to log a
/// useful diagnostic without echoing attacker-controlled bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The frame ended before the field named here was complete.
    Truncated {
        /// The field being decoded when the bytes ran out.
        what: &'static str,
    },
    /// The frame's header names a different codec than the decoder.
    WrongCodec {
        /// The tag found in the header.
        got: u32,
        /// The tag the decoding codec expected.
        expected: u32,
    },
    /// The frame's codec parameter (e.g. top-k permille) disagrees with
    /// the decoder's.
    WrongParam {
        /// The parameter found in the header.
        got: u32,
        /// The parameter the decoding codec expected.
        expected: u32,
    },
    /// The frame's element count does not match the output buffer.
    LengthMismatch {
        /// Elements the frame claims to carry.
        got: u64,
        /// Elements the output buffer holds.
        expected: u64,
    },
    /// A top-k frame's kept count disagrees with the codec's `keep_count`
    /// for this tensor size.
    KeepCountMismatch {
        /// Kept-element count in the frame.
        got: u64,
        /// The count the codec prescribes.
        expected: u64,
    },
    /// A top-k index points outside the output tensor.
    IndexOutOfRange {
        /// The offending index.
        index: u64,
        /// The output tensor's length.
        len: u64,
    },
    /// Bytes remained after the last field of a structurally-complete
    /// frame.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CodecError::Truncated { what } => write!(f, "frame truncated while reading {what}"),
            CodecError::WrongCodec { got, expected } => {
                write!(
                    f,
                    "frame carries codec tag {got}, decoder expected {expected}"
                )
            }
            CodecError::WrongParam { got, expected } => {
                write!(
                    f,
                    "frame codec parameter {got}, decoder expected {expected}"
                )
            }
            CodecError::LengthMismatch { got, expected } => {
                write!(f, "frame carries {got} elements, output holds {expected}")
            }
            CodecError::KeepCountMismatch { got, expected } => {
                write!(
                    f,
                    "top-k frame keeps {got} elements, codec prescribes {expected}"
                )
            }
            CodecError::IndexOutOfRange { index, len } => {
                write!(f, "top-k index {index} outside tensor of {len} elements")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete frame")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Fixed per-frame header size in bytes: `u32` codec tag, `u32` codec
/// parameter, `u64` element count.
pub const FRAME_HEADER_BYTES: u64 = 16;

/// A stream of uniform `u32` draws for stochastic rounding.
///
/// Every `FnMut() -> u32` closure is a source (one call per draw); a
/// generator with a bulk path — the simulator's ChaCha `SimRng` — fills a
/// whole slice at once. Either way the encoder sees the same words in the
/// same order, so frames do not depend on which kind of source produced
/// them.
pub trait DrawSource {
    /// Writes the next `out.len()` draws of the stream into `out`, in order.
    fn fill_draws(&mut self, out: &mut [u32]);
}

impl<F: FnMut() -> u32> DrawSource for F {
    fn fill_draws(&mut self, out: &mut [u32]) {
        for o in out {
            *o = self();
        }
    }
}

/// The gradient wire codec selected for a run.
///
/// `Lossless` is the default and is bit-identical (in values, bytes and
/// cost accounting) to the pre-codec wire path. The lossy codecs trade
/// per-round precision for wire bytes and rely on error feedback (carried
/// by the protocol layer) to stay convergent.
///
/// # Examples
///
/// ```
/// use rna_tensor::codec::Compression;
/// use rna_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, -2.5, 0.25, 8.0]);
/// let mut frame = Vec::new();
/// Compression::Fp16.encode(&t, &mut frame, &mut || 0);
/// assert_eq!(frame.len() as u64, Compression::Fp16.frame_bytes(4));
/// let mut out = Tensor::zeros(4);
/// Compression::Fp16.decode(&frame, &mut out).unwrap();
/// assert_eq!(out.as_slice(), t.as_slice()); // these values are f16-exact
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Compression {
    /// Raw little-endian f32 bit patterns: 4 bytes/element, bit-exact.
    #[default]
    Lossless,
    /// IEEE-754 binary16 with round-to-nearest-even: 2 bytes/element.
    Fp16,
    /// Per-frame absmax scale plus one signed byte per element, quantized
    /// with *stochastic* rounding (unbiased): `4 + 1·elements` bytes.
    Int8,
    /// Keeps the `permille/1000` fraction of elements with the largest
    /// magnitudes (at least one), framed as `(index, value)` pairs:
    /// `4 + 8·k` bytes.
    TopK {
        /// Kept fraction in permille; must be in `1..=1000`.
        permille: u16,
    },
}

impl Compression {
    /// `TopK` with `k = 10%` of elements, the paper-adjacent default.
    pub fn top_k_10pct() -> Self {
        Compression::TopK { permille: 100 }
    }

    /// Whether this codec reproduces its input bit-for-bit.
    pub fn is_lossless(&self) -> bool {
        matches!(self, Compression::Lossless)
    }

    /// Stable display name for benches and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Compression::Lossless => "lossless",
            Compression::Fp16 => "fp16",
            Compression::Int8 => "int8-sr",
            Compression::TopK { .. } => "topk",
        }
    }

    /// The wire tag written into frame headers.
    fn tag(&self) -> u32 {
        match self {
            Compression::Lossless => 0,
            Compression::Fp16 => 1,
            Compression::Int8 => 2,
            Compression::TopK { .. } => 3,
        }
    }

    /// The codec parameter written into frame headers (`permille` for
    /// `TopK`, 0 otherwise).
    fn param(&self) -> u32 {
        match self {
            Compression::TopK { permille } => u32::from(*permille),
            _ => 0,
        }
    }

    /// Number of elements `TopK` keeps for a tensor of `elems` elements.
    ///
    /// # Panics
    ///
    /// Panics if the codec is `TopK` with `permille` outside `1..=1000`.
    pub fn keep_count(&self, elems: usize) -> usize {
        match self {
            Compression::TopK { permille } => {
                assert!(
                    (1..=1000).contains(permille),
                    "TopK permille must be in 1..=1000, got {permille}"
                );
                if elems == 0 {
                    0
                } else {
                    (((elems as u64) * u64::from(*permille) / 1000).max(1)) as usize
                }
            }
            _ => elems,
        }
    }

    /// Payload bytes (header excluded) for a tensor of `elems` elements.
    ///
    /// This is a pure size model equal to what [`Compression::encode`]
    /// emits, so the cost model can charge encoded bytes without encoding.
    pub fn payload_bytes(&self, elems: usize) -> u64 {
        let e = elems as u64;
        match self {
            Compression::Lossless => 4 * e,
            Compression::Fp16 => 2 * e,
            Compression::Int8 => 4 + e,
            Compression::TopK { .. } => 4 + 8 * self.keep_count(elems) as u64,
        }
    }

    /// Total frame bytes (header included) for `elems` elements.
    pub fn frame_bytes(&self, elems: usize) -> u64 {
        FRAME_HEADER_BYTES + self.payload_bytes(elems)
    }

    /// The stable `(tag, parameter)` wire identity of this codec — the same
    /// pair every frame header carries. Transport layers use it to name the
    /// run's codec inside setup messages without inventing a second
    /// encoding.
    pub fn wire_id(&self) -> (u32, u32) {
        (self.tag(), self.param())
    }

    /// Reconstructs a codec from its [`Compression::wire_id`]. Returns
    /// `None` for unknown tags or out-of-range parameters (a `TopK`
    /// permille outside `1..=1000`, or a nonzero parameter on a codec that
    /// takes none) — socket-fed setup paths must reject, not panic.
    pub fn from_wire_id(tag: u32, param: u32) -> Option<Compression> {
        match tag {
            0 => (param == 0).then_some(Compression::Lossless),
            1 => (param == 0).then_some(Compression::Fp16),
            2 => (param == 0).then_some(Compression::Int8),
            3 => u16::try_from(param)
                .ok()
                .filter(|p| (1..=1000).contains(p))
                .map(|permille| Compression::TopK { permille }),
            _ => None,
        }
    }

    /// Encodes `xs` into `out` (cleared first): header then payload.
    ///
    /// `draw` supplies uniform `u32` draws for stochastic rounding; codecs
    /// that do not round stochastically never call it.
    pub fn encode_slice(&self, xs: &[f32], out: &mut Vec<u8>, draw: &mut impl DrawSource) {
        out.clear();
        self.encode_slice_append(xs, out, draw);
    }

    /// [`Compression::encode_slice`] without the clear: the codec frame is
    /// appended at `out`'s current end. This is the zero-copy framing entry
    /// point — a caller that has already written a transport header into
    /// `out` gets the codec payload laid down directly behind it, with no
    /// intermediate frame buffer or copy.
    pub fn encode_slice_append(&self, xs: &[f32], out: &mut Vec<u8>, draw: &mut impl DrawSource) {
        let frame_start = out.len();
        wire::put_u32(out, self.tag());
        wire::put_u32(out, self.param());
        wire::put_u64(out, xs.len() as u64);
        match self {
            Compression::Lossless => {
                simd::f32s_to_le_bytes(xs, out);
            }
            Compression::Fp16 => {
                let start = out.len();
                out.resize(start + 2 * xs.len(), 0);
                simd::fp16_encode(xs, &mut out[start..]);
            }
            Compression::Int8 => {
                let max_abs = simd::abs_max(xs);
                let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 0.0 };
                wire::put_f32(out, scale);
                let start = out.len();
                out.resize(start + xs.len(), 0);
                quantize_int8(xs, scale, &mut out[start..], draw);
            }
            Compression::TopK { .. } => {
                let k = self.keep_count(xs.len());
                let idx = top_k_indices(xs, k);
                wire::put_u32(out, k as u32);
                for &i in &idx {
                    wire::put_u32(out, i);
                    wire::put_f32(out, xs[i as usize]);
                }
            }
        }
        debug_assert_eq!((out.len() - frame_start) as u64, self.frame_bytes(xs.len()));
    }

    /// Decodes a frame produced by [`Compression::encode_slice`] into
    /// `out`, overwriting every element (`TopK` zero-fills the rest).
    ///
    /// Never panics and never allocates based on frame contents: every
    /// count inside the frame is validated against the caller-provided
    /// `out`, so a hostile frame cannot force a giant allocation.
    ///
    /// # Errors
    ///
    /// [`CodecError`] naming what was malformed: truncation, a foreign
    /// codec tag or parameter, an element-count mismatch against `out`,
    /// out-of-range top-k indices, or trailing bytes.
    pub fn decode_slice(&self, frame: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
        let mut r = Reader::new(frame);
        self.check_header(&mut r, out.len())?;
        match self {
            Compression::Lossless => {
                let payload = r.bytes_exact(4 * out.len()).ok_or(CodecError::Truncated {
                    what: "f32 payload",
                })?;
                simd::le_bytes_to_f32s(payload, out);
            }
            Compression::Fp16 => {
                let payload = r.bytes_exact(2 * out.len()).ok_or(CodecError::Truncated {
                    what: "f16 payload",
                })?;
                simd::fp16_decode(payload, out);
            }
            Compression::Int8 => {
                let scale = r
                    .f32()
                    .ok_or(CodecError::Truncated { what: "int8 scale" })?;
                let payload = r.bytes_exact(out.len()).ok_or(CodecError::Truncated {
                    what: "int8 payload",
                })?;
                simd::int8_dequantize(payload, scale, out);
            }
            Compression::TopK { .. } => {
                let k = r.u32().ok_or(CodecError::Truncated {
                    what: "top-k keep count",
                })? as u64;
                let expected = self.keep_count(out.len()) as u64;
                if k != expected {
                    return Err(CodecError::KeepCountMismatch { got: k, expected });
                }
                out.fill(0.0);
                for _ in 0..k {
                    let i = r.u32().ok_or(CodecError::Truncated {
                        what: "top-k index",
                    })? as usize;
                    let v = r.f32().ok_or(CodecError::Truncated {
                        what: "top-k value",
                    })?;
                    if i >= out.len() {
                        return Err(CodecError::IndexOutOfRange {
                            index: i as u64,
                            len: out.len() as u64,
                        });
                    }
                    out[i] = v;
                }
            }
        }
        if r.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                remaining: r.remaining() as u64,
            });
        }
        Ok(())
    }

    /// Validates a frame header (tag, parameter, element count) against
    /// this codec and an output buffer of `out_len` elements, leaving the
    /// reader positioned at the payload.
    fn check_header(&self, r: &mut Reader<'_>, out_len: usize) -> Result<(), CodecError> {
        let tag = r.u32().ok_or(CodecError::Truncated { what: "codec tag" })?;
        if tag != self.tag() {
            return Err(CodecError::WrongCodec {
                got: tag,
                expected: self.tag(),
            });
        }
        let param = r.u32().ok_or(CodecError::Truncated {
            what: "codec parameter",
        })?;
        if param != self.param() {
            return Err(CodecError::WrongParam {
                got: param,
                expected: self.param(),
            });
        }
        let count = r.u64().ok_or(CodecError::Truncated {
            what: "element count",
        })?;
        if count != out_len as u64 {
            return Err(CodecError::LengthMismatch {
                got: count,
                expected: out_len as u64,
            });
        }
        Ok(())
    }

    /// [`Compression::encode_slice`] over a whole tensor.
    pub fn encode(&self, t: &Tensor, out: &mut Vec<u8>, draw: &mut impl DrawSource) {
        self.encode_slice(t.as_slice(), out, draw);
    }

    /// [`Compression::decode_slice`] into a whole tensor.
    ///
    /// # Errors
    ///
    /// See [`Compression::decode_slice`].
    pub fn decode(&self, frame: &[u8], out: &mut Tensor) -> Result<(), CodecError> {
        self.decode_slice(frame, out.as_mut_slice())
    }
}

/// Applies the error-feedback recurrence around one encode/decode:
///
/// ```text
/// compensated = grad + residual
/// wire        = decode(encode(compensated))
/// residual'   = compensated − wire
/// ```
///
/// On return `grad` holds the decoded (wire) gradient, `residual` holds the
/// updated carry, and `scratch` holds the emitted frame. Returns
/// `(frame_bytes, residual_l2)` — the bytes that crossed the wire and the
/// L2 norm of the error carried into the next round (zero for `Lossless`).
///
/// With a warm `residual` of the right length the call performs zero tensor
/// allocations: the frame buffer reuses `scratch`'s capacity and both
/// tensors are rewritten in place.
///
/// # Panics
///
/// Panics if `residual.len() != grad.len()` (callers own residual setup) or
/// if a frame this function just encoded fails to decode (impossible absent
/// memory corruption).
pub fn encode_with_feedback(
    codec: Compression,
    grad: &mut Tensor,
    residual: &mut Tensor,
    scratch: &mut Vec<u8>,
    draw: &mut impl DrawSource,
) -> (u64, f64) {
    assert_eq!(
        residual.len(),
        grad.len(),
        "error-feedback residual length mismatch"
    );
    grad.add_assign(residual); // compensated
    codec.encode(grad, scratch, draw);
    residual.copy_from(grad); // residual := compensated (for now)
    codec
        .decode(scratch, grad) // grad := wire value
        .expect("self-produced frame must decode");
    residual.sub_assign(grad); // residual := compensated − wire
    (scratch.len() as u64, f64::from(residual.norm_l2()))
}

/// Minimum elements each wire-codec thread must own before chunk-parallel
/// encode/decode pays for itself; [`wire_threads`] caps fan-out so no
/// thread gets less. Below one thread's worth the serial path runs.
///
/// Set from measurement (DESIGN.md, "SIMD data path"): spawning the scoped
/// threads costs 40–120 µs per call on a 2-vCPU host, so fan-out first
/// beats the serial kernels between 1 Mi and 4 Mi elements.
pub const PAR_MIN_ELEMS: usize = 1 << 20;

/// Thread count the chunk-parallel wire path should use for `elems`
/// elements on this host: one per available core, capped so every thread
/// owns at least [`PAR_MIN_ELEMS`] elements. Always at least 1 (and exactly
/// 1 on single-core hosts, where fan-out can only lose).
pub fn wire_threads(elems: usize) -> usize {
    crate::available_cores().min(elems / PAR_MIN_ELEMS).max(1)
}

/// Elements per chunk of the int8 encoder: its quotient and draw buffers
/// (32 KiB together) live on the stack, so the encoder never touches the
/// heap.
const INT8_CHUNK: usize = 4096;

/// Quantizes `xs` under `scale` into `out` with stochastic rounding, chunk
/// by chunk: the vector divide counts the quotients with a fractional part,
/// that count sizes the chunk's draw slice, `draw` fills it in one call (a
/// bulk ChaCha fill for `SimRng`), and the rounding pass consumes it — the
/// same draws, in the same order, as a draw per element.
fn quantize_int8(xs: &[f32], scale: f32, out: &mut [u8], draw: &mut impl DrawSource) {
    if scale == 0.0 {
        // An all-zero tensor: the payload is zeros and nothing is rounded.
        out.fill(0);
        return;
    }
    let mut quotients = [0.0f32; INT8_CHUNK];
    let mut draws = [0u32; INT8_CHUNK];
    for (xc, oc) in xs.chunks(INT8_CHUNK).zip(out.chunks_mut(INT8_CHUNK)) {
        let v = &mut quotients[..xc.len()];
        let draws = &mut draws[..simd::int8_quotients(xc, scale, v)];
        draw.fill_draws(draws);
        simd::int8_round(v, oc, draws);
    }
}

impl Compression {
    /// Chunk-parallel [`Compression::encode_slice`]: the fp16 payload is
    /// split on element boundaries across `threads` scoped threads (the
    /// idiom the threaded controller uses for its reduce region).
    ///
    /// Bit-identical to the serial path for every thread count: fp16 lanes
    /// are independent. The other codecs always encode serially: lossless
    /// is a memcpy that fan-out never beat (measured up to 16 Mi
    /// elements), int8 consumes its stochastic-rounding draws in element
    /// order, and top-k is dominated by threshold selection. Callers pick
    /// `threads` with [`wire_threads`]; passing `threads <= 1` is the
    /// serial path.
    pub fn encode_slice_mt(
        &self,
        xs: &[f32],
        out: &mut Vec<u8>,
        draw: &mut impl DrawSource,
        threads: usize,
    ) {
        out.clear();
        self.encode_slice_append_mt(xs, out, draw, threads);
    }

    /// [`Compression::encode_slice_mt`] without the clear: the frame is
    /// appended at `out`'s current end, bit-identical to the serial append
    /// path for every thread count. See [`Compression::encode_slice_append`]
    /// for the zero-copy framing contract.
    pub fn encode_slice_append_mt(
        &self,
        xs: &[f32],
        out: &mut Vec<u8>,
        draw: &mut impl DrawSource,
        threads: usize,
    ) {
        if threads <= 1 || xs.is_empty() || !matches!(self, Compression::Fp16) {
            return self.encode_slice_append(xs, out, draw);
        }
        let frame_start = out.len();
        wire::put_u32(out, self.tag());
        wire::put_u32(out, self.param());
        wire::put_u64(out, xs.len() as u64);
        let chunk = xs.len().div_ceil(threads);
        let start = out.len();
        out.resize(start + 2 * xs.len(), 0);
        let payload = &mut out[start..];
        std::thread::scope(|s| {
            for (xc, oc) in xs.chunks(chunk).zip(payload.chunks_mut(2 * chunk)) {
                s.spawn(move || simd::fp16_encode(xc, oc));
            }
        });
        debug_assert_eq!((out.len() - frame_start) as u64, self.frame_bytes(xs.len()));
    }

    /// Chunk-parallel [`Compression::decode_slice`], bit-identical to the
    /// serial path for every thread count (decode has no cross-element
    /// state at all). Top-k and `threads <= 1` fall through to serial.
    ///
    /// # Errors
    ///
    /// See [`Compression::decode_slice`].
    pub fn decode_slice_mt(
        &self,
        frame: &[u8],
        out: &mut [f32],
        threads: usize,
    ) -> Result<(), CodecError> {
        if threads <= 1 || out.is_empty() || matches!(self, Compression::TopK { .. }) {
            return self.decode_slice(frame, out);
        }
        let mut r = Reader::new(frame);
        self.check_header(&mut r, out.len())?;
        let chunk = out.len().div_ceil(threads);
        match self {
            Compression::Lossless => {
                let payload = r.bytes_exact(4 * out.len()).ok_or(CodecError::Truncated {
                    what: "f32 payload",
                })?;
                std::thread::scope(|s| {
                    for (bc, oc) in payload.chunks(4 * chunk).zip(out.chunks_mut(chunk)) {
                        s.spawn(move || simd::le_bytes_to_f32s(bc, oc));
                    }
                });
            }
            Compression::Fp16 => {
                let payload = r.bytes_exact(2 * out.len()).ok_or(CodecError::Truncated {
                    what: "f16 payload",
                })?;
                std::thread::scope(|s| {
                    for (bc, oc) in payload.chunks(2 * chunk).zip(out.chunks_mut(chunk)) {
                        s.spawn(move || simd::fp16_decode(bc, oc));
                    }
                });
            }
            Compression::Int8 => {
                let scale = r
                    .f32()
                    .ok_or(CodecError::Truncated { what: "int8 scale" })?;
                let payload = r.bytes_exact(out.len()).ok_or(CodecError::Truncated {
                    what: "int8 payload",
                })?;
                std::thread::scope(|s| {
                    for (bc, oc) in payload.chunks(chunk).zip(out.chunks_mut(chunk)) {
                        s.spawn(move || simd::int8_dequantize(bc, scale, oc));
                    }
                });
            }
            Compression::TopK { .. } => unreachable!("top-k handled serially above"),
        }
        if r.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                remaining: r.remaining() as u64,
            });
        }
        Ok(())
    }
}

/// [`encode_with_feedback`] with the encode and decode legs running
/// chunk-parallel across `threads` scoped threads. Bit-identical to the
/// serial recurrence for every thread count (see
/// [`Compression::encode_slice_mt`] for why); callers pick `threads` with
/// [`wire_threads`].
///
/// # Panics
///
/// Same contract as [`encode_with_feedback`].
pub fn encode_with_feedback_mt(
    codec: Compression,
    grad: &mut Tensor,
    residual: &mut Tensor,
    scratch: &mut Vec<u8>,
    draw: &mut impl DrawSource,
    threads: usize,
) -> (u64, f64) {
    assert_eq!(
        residual.len(),
        grad.len(),
        "error-feedback residual length mismatch"
    );
    grad.add_assign(residual); // compensated
    codec.encode_slice_mt(grad.as_slice(), scratch, draw, threads);
    residual.copy_from(grad); // residual := compensated (for now)
    codec
        .decode_slice_mt(scratch, grad.as_mut_slice(), threads) // grad := wire value
        .expect("self-produced frame must decode");
    residual.sub_assign(grad); // residual := compensated − wire
    (scratch.len() as u64, f64::from(residual.norm_l2()))
}

/// [`encode_with_feedback_mt`] in append mode: the codec frame is laid down
/// at `out`'s current end — directly behind whatever transport header the
/// caller already wrote — instead of into a dedicated scratch buffer. This
/// is the worker-side wire path: one buffer holds the whole outgoing
/// message, so framing costs zero intermediate copies.
///
/// On return `grad` holds the decoded (wire) gradient, `residual` the
/// updated carry, and `out` has grown by exactly the returned frame length.
/// With a warm `residual` and a warm `out` capacity the call performs zero
/// allocations in steady state. Bit-identical to [`encode_with_feedback`]
/// for every thread count.
///
/// # Panics
///
/// Same contract as [`encode_with_feedback`].
pub fn encode_with_feedback_append(
    codec: Compression,
    grad: &mut Tensor,
    residual: &mut Tensor,
    out: &mut Vec<u8>,
    draw: &mut impl DrawSource,
    threads: usize,
) -> (u64, f64) {
    assert_eq!(
        residual.len(),
        grad.len(),
        "error-feedback residual length mismatch"
    );
    let frame_start = out.len();
    grad.add_assign(residual); // compensated
    codec.encode_slice_append_mt(grad.as_slice(), out, draw, threads);
    residual.copy_from(grad); // residual := compensated (for now)
    codec
        .decode_slice_mt(&out[frame_start..], grad.as_mut_slice(), threads) // grad := wire
        .expect("self-produced frame must decode");
    residual.sub_assign(grad); // residual := compensated − wire
    (
        (out.len() - frame_start) as u64,
        f64::from(residual.norm_l2()),
    )
}

/// Converts an `f32` to IEEE-754 binary16 bits with round-to-nearest-even.
///
/// Overflow saturates to infinity (as IEEE rounding prescribes), NaN is
/// preserved as a quiet NaN, and subnormal halves are produced for small
/// magnitudes.
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7FFF_FFFF;
    if abs >= 0x7F80_0000 {
        // Infinity maps to infinity; NaN keeps a quiet payload bit.
        return if abs > 0x7F80_0000 {
            sign | 0x7E00
        } else {
            sign | 0x7C00
        };
    }
    let exp = (abs >> 23) as i32; // biased f32 exponent
    let mant = abs & 0x007F_FFFF;
    let half_exp = exp - 112; // rebias 127 → 15
    if half_exp >= 0x1F {
        return sign | 0x7C00; // |x| ≥ 2^16: overflow to infinity
    }
    if half_exp <= 0 {
        if half_exp < -10 {
            return sign; // too small for even a subnormal: round to zero
        }
        // Subnormal: add the implicit leading 1, shift into place, RNE.
        let m = mant | 0x0080_0000;
        let shift = (14 - half_exp) as u32; // 14..=24
        let kept = m >> shift;
        let rem = m & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let round_up = rem > halfway || (rem == halfway && (kept & 1) == 1);
        return sign | (kept + u32::from(round_up)) as u16;
    }
    // Normal: drop 13 mantissa bits with RNE; a rounding carry that
    // overflows the mantissa correctly bumps the exponent (possibly to inf).
    let kept = mant >> 13;
    let rem = mant & 0x1FFF;
    let mut h = ((half_exp as u32) << 10) | kept;
    if rem > 0x1000 || (rem == 0x1000 && (h & 1) == 1) {
        h += 1;
    }
    sign | h as u16
}

/// Converts IEEE-754 binary16 bits back to `f32` (exact — every half value
/// is representable in single precision).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = (u32::from(h) & 0x8000) << 16;
    let exp = u32::from(h >> 10) & 0x1F;
    let mant = u32::from(h) & 0x03FF;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal half: renormalize into f32's wider exponent range.
            let mut e = 113u32;
            let mut m = m << 13;
            while m & 0x0080_0000 == 0 {
                m <<= 1;
                e -= 1;
            }
            sign | (e << 23) | (m & 0x007F_FFFF)
        }
        (0x1F, 0) => sign | 0x7F80_0000,
        (0x1F, m) => sign | 0x7F80_0000 | (m << 13),
        (e, m) => sign | ((e + 112) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// Rounds the int8 quotient `v = x / scale` to a signed byte with
/// stochastic rounding — `E[result] = v` for in-range finite inputs — taking
/// one draw exactly when `v` has a strictly positive fractional part.
///
/// This is the portable per-element reference; [`crate::simd`] batches the
/// arithmetic but routes every draw through the identical `frac > 0`
/// condition in element order, so both paths consume the same stream.
pub(crate) fn round_i8_sr(v: f32, draw: &mut impl FnMut() -> u32) -> i8 {
    let lo = v.floor();
    let frac = v - lo;
    let mut q = lo as i32;
    if frac > 0.0 {
        // 24-bit uniform in [0, 1): exactly representable in f32.
        let u = (draw() >> 8) as f32 / (1u32 << 24) as f32;
        if u < frac {
            q += 1;
        }
    }
    q.clamp(-127, 127) as i8
}

/// Indices of the `k` largest-magnitude elements, in ascending index order.
///
/// Selection uses a total order (magnitude descending, index ascending) so
/// the kept set — and therefore the frame — is deterministic even with tied
/// magnitudes.
fn top_k_indices(xs: &[f32], k: usize) -> Vec<u32> {
    debug_assert!(k <= xs.len());
    if k == 0 {
        return Vec::new();
    }
    if k >= xs.len() {
        return (0..xs.len() as u32).collect();
    }
    // Magnitude total order on bit keys: for sign-cleared floats, unsigned
    // integer order on the bits *is* `total_cmp` on the magnitudes, so the
    // k-th largest key is a plain integer selection and membership becomes
    // a threshold scan the SIMD path can vectorize.
    let keys = simd::magnitude_keys(xs);
    let t = kth_largest_key(&keys, k);
    let mut gt = Vec::with_capacity(k);
    let mut ties = Vec::new();
    simd::topk_scan(&keys, t, k, &mut gt, &mut ties);
    // Everything strictly above the threshold is kept; ties at the
    // threshold fill the remaining slots lowest-index-first — exactly the
    // (magnitude desc, index asc) selection order. Both lists arrive in
    // ascending index order, so a linear merge restores the sorted output.
    let need = k - gt.len();
    let mut idx = Vec::with_capacity(k);
    let mut ti = ties[..need].iter().peekable();
    for g in gt {
        while let Some(&&tie) = ti.peek() {
            if tie < g {
                idx.push(tie);
                ti.next();
            } else {
                break;
            }
        }
        idx.push(g);
    }
    idx.extend(ti);
    idx
}

/// Keys below this length take the clone-and-`select_nth` route; the radix
/// scan's fixed histogram cost (4 × 256 counters) only pays for itself on
/// larger inputs.
const RADIX_SELECT_MIN: usize = 2048;

/// Exact value of the `k`-th largest key (rank counts duplicates), i.e. the
/// top-k magnitude threshold.
///
/// The fast path is a byte-wise radix *scan*: four read-only histogram
/// passes (high byte first) narrow the rank into one 256-bucket digit at a
/// time, reconstructing the threshold without sorting, partitioning, or
/// cloning the keys — `select_nth_unstable` on a clone is what capped the
/// top-k encode at ~1.1 GB/s (its partition passes are cache-hostile random
/// writes; the histogram passes are pure sequential reads). Passes after
/// the first only count keys matching the already-fixed high bytes, so
/// their predicated bodies touch a shrinking fraction of the data.
///
/// Small inputs keep the `select_nth` route: correctness is identical (both
/// compute the same order statistic), so the split is purely a performance
/// gate.
fn kth_largest_key(keys: &[u32], k: usize) -> u32 {
    debug_assert!(k >= 1 && k <= keys.len());
    if keys.len() < RADIX_SELECT_MIN {
        let mut scratch = keys.to_vec();
        let (_, &mut t, _) = scratch.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
        return t;
    }
    let mut prefix = 0u32; // high bytes fixed so far
    let mut rank = k; // rank of the target within the matching set
    for shift in [24u32, 16, 8, 0] {
        // Mask selecting the bytes already fixed (empty on the first pass:
        // the low byte of the constant shifts out entirely).
        let mask = 0xFFFF_FF00u32 << shift;
        let mut hist = [0usize; 256];
        for &key in keys {
            if key & mask == prefix {
                hist[((key >> shift) & 0xFF) as usize] += 1;
            }
        }
        // Walk the digit buckets from the top until the rank lands.
        let mut b = 255usize;
        while hist[b] < rank {
            rank -= hist[b];
            debug_assert!(b > 0, "rank exceeded matching keys");
            b -= 1;
        }
        prefix |= (b as u32) << shift;
    }
    prefix
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic draw stream for tests (SplitMix-ish LCG).
    fn lcg_draws(seed: u64) -> impl FnMut() -> u32 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 32) as u32
        }
    }

    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        let mut d = lcg_draws(seed);
        (0..len)
            .map(|_| (d() as f32 / (1u32 << 24) as f32) - 128.0)
            .collect()
    }

    fn roundtrip(codec: Compression, xs: &[f32], seed: u64) -> Vec<f32> {
        let mut frame = Vec::new();
        codec.encode_slice(xs, &mut frame, &mut lcg_draws(seed));
        assert_eq!(frame.len() as u64, codec.frame_bytes(xs.len()));
        let mut out = vec![f32::NAN; xs.len()];
        codec.decode_slice(&frame, &mut out).expect("decode");
        out
    }

    #[test]
    fn lossless_roundtrip_is_bit_exact() {
        let xs = vec![0.0, -0.0, 1.5, f32::MIN_POSITIVE, -3.25e7];
        let out = roundtrip(Compression::Lossless, &xs, 1);
        for (a, b) in xs.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fp16_known_values_are_exact() {
        // Values exactly representable in binary16 roundtrip unchanged.
        for &x in &[0.0f32, 1.0, -2.0, 0.5, 65504.0, -0.25, 6.103_515_6e-5] {
            assert_eq!(roundtrip(Compression::Fp16, &[x], 0)[0], x, "x={x}");
        }
    }

    #[test]
    fn fp16_specials() {
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xFC00);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        assert_eq!(f32_to_f16_bits(65520.0), 0x7C00, "RNE rounds 65520 to inf");
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(65504.0)), 65504.0);
        assert_eq!(f32_to_f16_bits(1e-10), 0, "underflow to signed zero");
        assert_eq!(f32_to_f16_bits(-1e-10), 0x8000);
    }

    #[test]
    fn int8_zero_tensor_roundtrips_to_zero() {
        let out = roundtrip(Compression::Int8, &[0.0; 9], 3);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn int8_stochastic_rounding_is_unbiased() {
        // Quantize the same awkward value many times with fresh draws; the
        // mean must approach the true value (SR is unbiased, unlike RNE).
        let xs = [0.3f32, 1.0];
        let mut sum = 0.0f64;
        let trials = 4000;
        for t in 0..trials {
            let out = roundtrip(Compression::Int8, &xs, t as u64 + 1);
            sum += f64::from(out[0]);
        }
        let mean = sum / f64::from(trials);
        assert!((mean - 0.3).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn int8_same_draws_same_bytes() {
        let xs = pseudo(257, 5);
        let mut a = Vec::new();
        let mut b = Vec::new();
        Compression::Int8.encode_slice(&xs, &mut a, &mut lcg_draws(9));
        Compression::Int8.encode_slice(&xs, &mut b, &mut lcg_draws(9));
        assert_eq!(a, b);
    }

    #[test]
    fn topk_keeps_largest_magnitudes() {
        let xs = vec![0.1, -9.0, 0.2, 7.0, -0.3, 0.05, 3.0, -1.0, 0.0, 0.4];
        let codec = Compression::TopK { permille: 300 }; // k = 3
        let out = roundtrip(codec, &xs, 0);
        assert_eq!(out[1], -9.0);
        assert_eq!(out[3], 7.0);
        assert_eq!(out[6], 3.0);
        let kept: usize = out.iter().filter(|&&x| x != 0.0).count();
        assert_eq!(kept, 3);
    }

    #[test]
    fn topk_ties_are_deterministic() {
        let xs = vec![1.0f32; 8];
        let codec = Compression::TopK { permille: 250 }; // k = 2 of 8 equal mags
        let a = roundtrip(codec, &xs, 0);
        let b = roundtrip(codec, &xs, 1);
        assert_eq!(a, b);
        // Lowest indices win ties.
        assert_eq!(&a[..2], &[1.0, 1.0]);
        assert!(a[2..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn topk_keeps_at_least_one_element() {
        let codec = Compression::TopK { permille: 1 };
        assert_eq!(codec.keep_count(5), 1);
        assert_eq!(codec.keep_count(0), 0);
        let out = roundtrip(codec, &[0.0, 2.0, -1.0], 0);
        assert_eq!(out, vec![0.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "permille")]
    fn topk_rejects_zero_permille() {
        Compression::TopK { permille: 0 }.keep_count(10);
    }

    #[test]
    fn empty_tensors_roundtrip_under_every_codec() {
        for codec in [
            Compression::Lossless,
            Compression::Fp16,
            Compression::Int8,
            Compression::top_k_10pct(),
        ] {
            let out = roundtrip(codec, &[], 0);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn frames_are_rejected_on_mismatch_and_truncation() {
        let xs = pseudo(33, 7);
        let mut frame = Vec::new();
        Compression::Fp16.encode_slice(&xs, &mut frame, &mut lcg_draws(0));
        let mut out = vec![0.0; 33];
        // Wrong codec.
        assert_eq!(
            Compression::Int8.decode_slice(&frame, &mut out),
            Err(CodecError::WrongCodec {
                got: 1,
                expected: 2
            })
        );
        // Wrong length.
        let mut short = vec![0.0; 32];
        assert_eq!(
            Compression::Fp16.decode_slice(&frame, &mut short),
            Err(CodecError::LengthMismatch {
                got: 33,
                expected: 32
            })
        );
        // Truncation at every cut point.
        for cut in 0..frame.len() {
            assert!(
                matches!(
                    Compression::Fp16.decode_slice(&frame[..cut], &mut out),
                    Err(CodecError::Truncated { .. })
                ),
                "cut={cut}"
            );
        }
        // Trailing garbage.
        frame.push(0);
        assert_eq!(
            Compression::Fp16.decode_slice(&frame, &mut out),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn topk_out_of_range_index_is_rejected() {
        let xs = [5.0f32, 1.0];
        let codec = Compression::TopK { permille: 500 };
        let mut frame = Vec::new();
        codec.encode_slice(&xs, &mut frame, &mut lcg_draws(0));
        // Corrupt the kept index (first u32 after the 4-byte count).
        let base = FRAME_HEADER_BYTES as usize + 4;
        frame[base..base + 4].copy_from_slice(&99u32.to_le_bytes());
        let mut out = [0.0f32; 2];
        assert_eq!(
            codec.decode_slice(&frame, &mut out),
            Err(CodecError::IndexOutOfRange { index: 99, len: 2 })
        );
    }

    #[test]
    fn error_feedback_recurrence_carries_the_quantization_error() {
        // The recurrence telescopes: across any horizon, what the wire
        // delivered plus the final residual equals the sum of the inputs —
        // no gradient signal is ever dropped, only deferred. Check it for
        // every lossy codec, including a coordinate (0.01) that TopK would
        // silently starve without feedback.
        for codec in [
            Compression::Fp16,
            Compression::Int8,
            Compression::TopK { permille: 500 },
        ] {
            let mut residual = Tensor::zeros(4);
            let mut scratch = Vec::new();
            let mut delivered = Tensor::zeros(4);
            let rounds = 64u64;
            for round in 0..rounds {
                let mut grad = Tensor::from_vec(vec![0.01, 1.0, 0.02, 2.0]);
                let (bytes, err) = encode_with_feedback(
                    codec,
                    &mut grad,
                    &mut residual,
                    &mut scratch,
                    &mut lcg_draws(round),
                );
                assert_eq!(bytes, codec.frame_bytes(4), "{}", codec.name());
                assert!(err.is_finite());
                delivered.add_assign(&grad);
            }
            let expect = [0.01f32, 1.0, 0.02, 2.0].map(|x| x * rounds as f32);
            for (i, &want) in expect.iter().enumerate() {
                let got = delivered.as_slice()[i] + residual.as_slice()[i];
                assert!(
                    (got - want).abs() < 2e-2,
                    "{} coord {i}: delivered+residual {got} vs {want}",
                    codec.name(),
                );
            }
            // And the deferral is bounded: the residual never exceeds a few
            // quanta, so small coordinates do get through (TopK's residual
            // for coordinate 0 is at most the largest competing magnitude).
            assert!(
                f64::from(residual.norm_l2()) < 4.0,
                "{} residual diverged",
                codec.name()
            );
        }
    }

    #[test]
    fn error_feedback_is_a_noop_for_lossless() {
        let mut grad = Tensor::from_vec(vec![1.25, -3.5]);
        let mut residual = Tensor::zeros(2);
        let mut scratch = Vec::new();
        let (bytes, err) = encode_with_feedback(
            Compression::Lossless,
            &mut grad,
            &mut residual,
            &mut scratch,
            &mut lcg_draws(0),
        );
        assert_eq!(bytes, FRAME_HEADER_BYTES + 8);
        assert_eq!(err, 0.0);
        assert_eq!(grad.as_slice(), &[1.25, -3.5]);
        assert_eq!(residual.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn payload_model_matches_real_encodes() {
        for codec in [
            Compression::Lossless,
            Compression::Fp16,
            Compression::Int8,
            Compression::TopK { permille: 100 },
            Compression::TopK { permille: 1000 },
        ] {
            for len in [0usize, 1, 7, 100, 1000] {
                let xs = pseudo(len, len as u64 + 1);
                let mut frame = Vec::new();
                codec.encode_slice(&xs, &mut frame, &mut lcg_draws(3));
                assert_eq!(
                    frame.len() as u64,
                    codec.frame_bytes(len),
                    "{} len={len}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn append_mode_lays_the_frame_behind_existing_bytes() {
        for codec in [
            Compression::Lossless,
            Compression::Fp16,
            Compression::Int8,
            Compression::top_k_10pct(),
        ] {
            let xs = pseudo(100, 9);
            let mut plain = Vec::new();
            codec.encode_slice(&xs, &mut plain, &mut lcg_draws(4));
            let mut framed = vec![0xAB_u8; 7];
            codec.encode_slice_append(&xs, &mut framed, &mut lcg_draws(4));
            assert_eq!(&framed[..7], &[0xAB; 7], "{}", codec.name());
            assert_eq!(&framed[7..], &plain[..], "{}", codec.name());
            // The MT append path is bit-identical too.
            let mut framed_mt = vec![0xAB_u8; 7];
            codec.encode_slice_append_mt(&xs, &mut framed_mt, &mut lcg_draws(4), 4);
            assert_eq!(framed_mt, framed, "{} mt", codec.name());
        }
    }

    #[test]
    fn feedback_append_matches_the_scratch_buffer_recurrence() {
        for codec in [
            Compression::Fp16,
            Compression::Int8,
            Compression::TopK { permille: 500 },
        ] {
            let mut res_a = Tensor::zeros(6);
            let mut res_b = Tensor::zeros(6);
            let mut scratch = Vec::new();
            let mut msg = Vec::new();
            for round in 0..32u64 {
                let grad = pseudo(6, round + 1);
                let mut ga = Tensor::from_vec(grad.clone());
                let mut gb = Tensor::from_vec(grad);
                let (bytes_a, err_a) = encode_with_feedback(
                    codec,
                    &mut ga,
                    &mut res_a,
                    &mut scratch,
                    &mut lcg_draws(round),
                );
                msg.clear();
                msg.extend_from_slice(b"hdr");
                let (bytes_b, err_b) = encode_with_feedback_append(
                    codec,
                    &mut gb,
                    &mut res_b,
                    &mut msg,
                    &mut lcg_draws(round),
                    1,
                );
                assert_eq!(bytes_a, bytes_b, "{}", codec.name());
                assert_eq!(err_a.to_bits(), err_b.to_bits(), "{}", codec.name());
                assert_eq!(&msg[3..], &scratch[..], "{} frame bytes", codec.name());
                assert_eq!(ga.as_slice(), gb.as_slice(), "{} wire grad", codec.name());
                assert_eq!(
                    res_a.as_slice(),
                    res_b.as_slice(),
                    "{} residual",
                    codec.name()
                );
            }
        }
    }

    /// Reference order statistic: sort descending, take the k-th.
    fn kth_by_sort(keys: &[u32], k: usize) -> u32 {
        let mut s = keys.to_vec();
        s.sort_unstable_by(|a, b| b.cmp(a));
        s[k - 1]
    }

    #[test]
    fn radix_select_matches_sorting_including_ties() {
        let n = RADIX_SELECT_MIN * 2; // force the radix path
        let mut d = lcg_draws(17);
        // Heavy ties: keys drawn from a handful of clustered values, which
        // is exactly what same-exponent gradients look like in bit-key
        // space. Plus a uniform tail.
        let keys: Vec<u32> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    0x3F00_0000 + (d() % 4)
                } else {
                    d() & 0x7FFF_FFFF
                }
            })
            .collect();
        for k in [1, 2, 7, n / 100, n / 10, n / 2, n - 1, n] {
            assert_eq!(kth_largest_key(&keys, k), kth_by_sort(&keys, k), "k={k}");
        }
        // All-equal keys: every rank must return the single value.
        let flat = vec![0x1234_5678u32; n];
        for k in [1, n / 2, n] {
            assert_eq!(kth_largest_key(&flat, k), 0x1234_5678, "flat k={k}");
        }
    }

    #[test]
    fn topk_on_large_tensors_uses_the_radix_path_correctly() {
        let n = RADIX_SELECT_MIN * 2;
        let xs = pseudo(n, 23);
        let codec = Compression::TopK { permille: 100 };
        let out = roundtrip(codec, &xs, 0);
        let kept: Vec<usize> = (0..n).filter(|&i| out[i] != 0.0).collect();
        assert_eq!(kept.len(), codec.keep_count(n));
        let kept_min = kept
            .iter()
            .map(|&i| xs[i].abs())
            .fold(f32::INFINITY, f32::min);
        for i in 0..n {
            if out[i] == 0.0 && xs[i] != 0.0 {
                assert!(xs[i].abs() <= kept_min, "dropped {} vs kept min", xs[i]);
            }
        }
    }

    #[test]
    fn wire_id_roundtrips_and_rejects_garbage() {
        for codec in [
            Compression::Lossless,
            Compression::Fp16,
            Compression::Int8,
            Compression::TopK { permille: 1 },
            Compression::TopK { permille: 1000 },
        ] {
            let (tag, param) = codec.wire_id();
            assert_eq!(Compression::from_wire_id(tag, param), Some(codec));
        }
        assert_eq!(Compression::from_wire_id(4, 0), None, "unknown tag");
        assert_eq!(Compression::from_wire_id(0, 7), None, "param on lossless");
        assert_eq!(Compression::from_wire_id(3, 0), None, "zero permille");
        assert_eq!(Compression::from_wire_id(3, 1001), None, "permille > 1000");
        assert_eq!(Compression::from_wire_id(3, 70000), None, "permille > u16");
    }

    proptest! {
        #[test]
        fn fp16_error_within_half_ulp(seed: u64, len in 1usize..80) {
            let xs = pseudo(len, seed | 1);
            let out = roundtrip(Compression::Fp16, &xs, seed);
            for (a, b) in xs.iter().zip(&out) {
                // RNE error ≤ 2^-11 relative for normals, ≤ 2^-25 absolute
                // in the subnormal range.
                let bound = (a.abs() * (1.0 / 2048.0)).max(3.0e-8);
                prop_assert!((a - b).abs() <= bound, "a={a} b={b}");
            }
        }

        #[test]
        fn int8_error_within_one_scale_quantum(seed: u64, len in 1usize..80) {
            let xs = pseudo(len, seed | 1);
            let max_abs = xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let scale = max_abs / 127.0;
            let out = roundtrip(Compression::Int8, &xs, seed);
            for (a, b) in xs.iter().zip(&out) {
                prop_assert!((a - b).abs() <= scale * 1.0001 + 1e-6, "a={a} b={b}");
            }
        }

        #[test]
        fn topk_kept_set_dominates_dropped(seed: u64, len in 1usize..120, permille in 1u16..=1000) {
            let xs = pseudo(len, seed | 1);
            let codec = Compression::TopK { permille };
            let out = roundtrip(codec, &xs, seed);
            let kept_min = out
                .iter()
                .zip(&xs)
                .filter(|(o, _)| **o != 0.0)
                .map(|(_, x)| x.abs())
                .fold(f32::INFINITY, f32::min);
            for (o, x) in out.iter().zip(&xs) {
                if *o == 0.0 && *x != 0.0 {
                    // Every dropped element is no larger than every kept one.
                    prop_assert!(x.abs() <= kept_min, "dropped {x} vs kept min {kept_min}");
                }
            }
        }

        #[test]
        fn lossless_roundtrip_bit_exact_prop(seed: u64, len in 0usize..120) {
            let xs = pseudo(len, seed | 1);
            let out = roundtrip(Compression::Lossless, &xs, seed);
            for (a, b) in xs.iter().zip(&out) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn fp16_roundtrip_is_idempotent(seed: u64, len in 1usize..60) {
            // decode(encode(x)) is a fixed point: encoding again is exact.
            let xs = pseudo(len, seed | 1);
            let once = roundtrip(Compression::Fp16, &xs, seed);
            let twice = roundtrip(Compression::Fp16, &once, seed);
            for (a, b) in once.iter().zip(&twice) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
