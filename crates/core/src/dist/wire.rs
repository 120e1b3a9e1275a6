//! Byte-level wire format for the distributed data plane.
//!
//! Two layers live here:
//!
//! * [`WireValue`] — the closed universe of values that can cross a
//!   process boundary, with a deterministic little-endian byte encoding.
//!   Rust closures cannot be serialized, so the distributed executor
//!   ships *data* only; behaviour travels as registered task-kind names
//!   (see [`crate::dist::KindRegistry`]). The encoding is pinned to
//!   [`crate::Payload::approx_bytes`]: a value's encoded length **is**
//!   its `approx_bytes()`, so the DES transfer model and the real data
//!   plane count the same bytes.
//! * Length-prefixed **frames** — every message on a Unix-domain socket
//!   is `u32-LE length ‖ body`. A reader either gets the whole body or
//!   an error; a peer that dies mid-write can never hand a consumer a
//!   half-message (the driver treats the short read as a worker death).
//!   A frame that carries a value can also be written from the value
//!   and read into it through one fixed 64 KiB buffer
//!   (`write_value_frame`, `FrameReader`): the same bytes on the
//!   wire, but no whole-frame buffer on either side, and the decoded
//!   `f64` arrays come from `linalg::pool`.

use crate::payload::Payload;
use linalg::Matrix;
use std::io::{self, Read, Write};

/// Refuse frames larger than this (1 GiB): a corrupt or hostile length
/// prefix must not turn into an unbounded allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// Bytes a streamed frame moves per socket write or read.
const CHUNK: usize = 64 << 10;

/// Deepest [`WireValue::List`] nesting the decoder accepts. Decoding
/// recurses once per level, so an unbounded depth lets a frame far
/// under [`MAX_FRAME_BYTES`] (9 bytes a level) overflow the stack and
/// abort the process. The workloads nest one level deep at most.
pub const MAX_LIST_DEPTH: usize = 64;

/// Errors from decoding bytes or reading frames.
#[derive(Debug)]
pub enum WireError {
    /// Body ended before the announced structure did.
    Truncated,
    /// Unknown value or message tag.
    BadTag(u8),
    /// Frame length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// Lists nest deeper than [`MAX_LIST_DEPTH`].
    TooDeep,
    /// A field carried on the wire as `u64` does not fit its `u32`.
    OutOfRange { field: &'static str, value: u64 },
    /// Underlying socket error (includes EOF mid-frame).
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire value"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            WireError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
            WireError::TooDeep => write!(f, "lists nest deeper than {MAX_LIST_DEPTH} levels"),
            WireError::OutOfRange { field, value } => {
                write!(f, "{field} = {value} exceeds u32::MAX")
            }
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A value that can cross a process boundary. The closed-universe
/// mirror of the in-process [`Payload`] types the ML pipelines use
/// (scalars, vectors, matrices, and nested containers of those).
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// The unit value (tasks run for effect / markers).
    Unit,
    Bool(bool),
    U64(u64),
    I64(i64),
    /// Encoded via `to_bits`, so NaN payloads and `-0.0` round-trip
    /// bit-identically.
    F64(f64),
    Str(String),
    Bytes(Vec<u8>),
    /// Dense `f64` vector (column sums, means, explained variance...).
    VecF64(Vec<f64>),
    /// Row-major dense matrix (the ds-array block currency).
    Matrix(Matrix),
    /// Heterogeneous sequence, so model bundles like
    /// `(components, explained_variance)` travel as one value. Lists
    /// may nest up to [`MAX_LIST_DEPTH`] levels; the decoder refuses
    /// deeper ones with [`WireError::TooDeep`].
    List(Vec<WireValue>),
}

mod tag {
    pub const UNIT: u8 = 0;
    pub const BOOL: u8 = 1;
    pub const U64: u8 = 2;
    pub const I64: u8 = 3;
    pub const F64: u8 = 4;
    pub const STR: u8 = 5;
    pub const BYTES: u8 = 6;
    pub const VEC_F64: u8 = 7;
    pub const MATRIX: u8 = 8;
    pub const LIST: u8 = 9;
}

impl WireValue {
    /// Convenience accessor: the matrix inside, or a panic naming what
    /// was found (task-kind bodies use these to destructure inputs).
    pub fn as_matrix(&self) -> &Matrix {
        match self {
            WireValue::Matrix(m) => m,
            other => panic!("expected WireValue::Matrix, got {other:?}"),
        }
    }

    /// The `f64` vector inside, or a panic.
    pub fn as_vec_f64(&self) -> &[f64] {
        match self {
            WireValue::VecF64(v) => v,
            other => panic!("expected WireValue::VecF64, got {other:?}"),
        }
    }

    /// The `f64` inside, or a panic.
    pub fn as_f64(&self) -> f64 {
        match self {
            WireValue::F64(v) => *v,
            other => panic!("expected WireValue::F64, got {other:?}"),
        }
    }

    /// The `u64` inside, or a panic.
    pub fn as_u64(&self) -> u64 {
        match self {
            WireValue::U64(v) => *v,
            other => panic!("expected WireValue::U64, got {other:?}"),
        }
    }

    /// The list inside, or a panic.
    pub fn as_list(&self) -> &[WireValue] {
        match self {
            WireValue::List(v) => v,
            other => panic!("expected WireValue::List, got {other:?}"),
        }
    }

    /// Appends the canonical encoding of `self` to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_to(out).expect("a Vec sink cannot fail");
    }

    /// Writes the canonical encoding of `self` to `out`.
    fn encode_to(&self, out: &mut impl Sink) -> io::Result<()> {
        match self {
            WireValue::Unit => out.put(&[tag::UNIT]),
            WireValue::Bool(b) => out.put(&[tag::BOOL, u8::from(*b)]),
            WireValue::U64(v) => {
                out.put(&[tag::U64])?;
                out.put(&v.to_le_bytes())
            }
            WireValue::I64(v) => {
                out.put(&[tag::I64])?;
                out.put(&v.to_le_bytes())
            }
            WireValue::F64(v) => {
                out.put(&[tag::F64])?;
                out.put(&v.to_bits().to_le_bytes())
            }
            WireValue::Str(s) => {
                out.put(&[tag::STR])?;
                out.put(&(s.len() as u64).to_le_bytes())?;
                out.put(s.as_bytes())
            }
            WireValue::Bytes(b) => {
                out.put(&[tag::BYTES])?;
                out.put(&(b.len() as u64).to_le_bytes())?;
                out.put(b)
            }
            WireValue::VecF64(v) => {
                out.put(&[tag::VEC_F64])?;
                out.put(&(v.len() as u64).to_le_bytes())?;
                out.put_f64s(v)
            }
            WireValue::Matrix(m) => {
                out.put(&[tag::MATRIX])?;
                out.put(&(m.rows() as u64).to_le_bytes())?;
                out.put(&(m.cols() as u64).to_le_bytes())?;
                out.put_f64s(m.as_slice())
            }
            WireValue::List(items) => {
                out.put(&[tag::LIST])?;
                out.put(&(items.len() as u64).to_le_bytes())?;
                items.iter().try_for_each(|it| it.encode_to(out))
            }
        }
    }

    /// The canonical encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Exact length [`Self::encode`] will produce, computed without
    /// encoding. This is also the [`Payload::approx_bytes`] of the
    /// value — the wire format and the simulator's transfer model are
    /// pinned to each other byte for byte.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            WireValue::Unit => 0,
            WireValue::Bool(_) => 1,
            WireValue::U64(_) | WireValue::I64(_) | WireValue::F64(_) => 8,
            WireValue::Str(s) => 8 + s.len(),
            WireValue::Bytes(b) => 8 + b.len(),
            WireValue::VecF64(v) => 8 + 8 * v.len(),
            WireValue::Matrix(m) => 16 + 8 * m.rows() * m.cols(),
            WireValue::List(items) => 8 + items.iter().map(WireValue::encoded_len).sum::<usize>(),
        }
    }

    /// Decodes one value from the front of `buf`, advancing it.
    pub fn decode_from(buf: &mut &[u8]) -> Result<WireValue, WireError> {
        WireValue::decode_nested(buf, 0)
    }

    /// Decodes one value from `src` inside `depth` enclosing lists.
    /// Nothing is allocated for more bytes than `src` has left.
    fn decode_nested(src: &mut impl Source, depth: usize) -> Result<WireValue, WireError> {
        let t = take_u8(src)?;
        Ok(match t {
            tag::UNIT => WireValue::Unit,
            tag::BOOL => WireValue::Bool(take_u8(src)? != 0),
            tag::U64 => WireValue::U64(take_u64(src)?),
            tag::I64 => WireValue::I64(take_u64(src)? as i64),
            tag::F64 => WireValue::F64(f64::from_bits(take_u64(src)?)),
            tag::STR => {
                let n = take_len(src)?;
                WireValue::Str(
                    String::from_utf8(take_bytes(src, n)?).map_err(|_| WireError::Truncated)?,
                )
            }
            tag::BYTES => {
                let n = take_len(src)?;
                WireValue::Bytes(take_bytes(src, n)?)
            }
            tag::VEC_F64 => {
                let n = take_len(src)?;
                WireValue::VecF64(src.take_f64s(n)?)
            }
            tag::MATRIX => {
                let rows = take_len(src)?;
                let cols = take_len(src)?;
                let n = rows.checked_mul(cols).ok_or(WireError::Truncated)?;
                WireValue::Matrix(Matrix::from_vec(rows, cols, src.take_f64s(n)?))
            }
            tag::LIST => {
                if depth == MAX_LIST_DEPTH {
                    return Err(WireError::TooDeep);
                }
                let n = take_len(src)?;
                // Each element is at least 1 byte; reject absurd counts,
                // and reserve no more memory than the bytes left.
                if n > src.left() {
                    return Err(WireError::Truncated);
                }
                let mut items =
                    Vec::with_capacity(n.min(src.left() / std::mem::size_of::<WireValue>()));
                for _ in 0..n {
                    items.push(WireValue::decode_nested(src, depth + 1)?);
                }
                WireValue::List(items)
            }
            other => return Err(WireError::BadTag(other)),
        })
    }

    /// Decodes a value that must occupy the whole buffer.
    pub fn decode(mut buf: &[u8]) -> Result<WireValue, WireError> {
        let v = WireValue::decode_from(&mut buf)?;
        if !buf.is_empty() {
            return Err(WireError::Truncated);
        }
        Ok(v)
    }

    /// Hands every `f64` buffer inside to the calling thread's
    /// `linalg::pool`, where the next decode or `Matrix` clone of a
    /// like size finds it warm instead of faulting in fresh pages.
    pub(crate) fn recycle(self) {
        match self {
            WireValue::Matrix(m) => m.into_pool(),
            WireValue::VecF64(v) => linalg::pool::release(v),
            WireValue::List(items) => items.into_iter().for_each(WireValue::recycle),
            _ => {}
        }
    }
}

/// The wire size of a value *is* its payload size: the DES transfer
/// model and the real socket move the same byte counts.
impl Payload for WireValue {
    fn approx_bytes(&self) -> usize {
        self.encoded_len()
    }
}

/// Where an encoding goes: a growing buffer, or a socket through a
/// fixed chunk ([`Chunked`]).
trait Sink {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Puts `xs` as little-endian `f64` bits.
    fn put_f64s(&mut self, xs: &[f64]) -> io::Result<()>;
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.extend_from_slice(bytes);
        Ok(())
    }

    /// One resize, then a copy per element into its fixed 8-byte slot.
    fn put_f64s(&mut self, xs: &[f64]) -> io::Result<()> {
        let start = self.len();
        self.resize(start + 8 * xs.len(), 0);
        put_f64_bits(&mut self[start..], xs);
        Ok(())
    }
}

/// Writes `xs` into `out`, which holds exactly `8 * xs.len()` bytes.
fn put_f64_bits(out: &mut [u8], xs: &[f64]) {
    for (slot, x) in out.chunks_exact_mut(8).zip(xs) {
        slot.copy_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// A socket writer behind one fixed 64 KiB buffer: a frame of
/// any size costs no allocation.
struct Chunked<'a, W> {
    w: &'a mut W,
    buf: [u8; CHUNK],
    len: usize,
}

impl<W: Write> Chunked<'_, W> {
    fn drain(&mut self) -> io::Result<()> {
        self.w.write_all(&self.buf[..self.len])?;
        self.len = 0;
        Ok(())
    }
}

impl<W: Write> Sink for Chunked<'_, W> {
    fn put(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            if self.len == CHUNK {
                self.drain()?;
            }
            let n = bytes.len().min(CHUNK - self.len);
            self.buf[self.len..self.len + n].copy_from_slice(&bytes[..n]);
            self.len += n;
            bytes = &bytes[n..];
        }
        Ok(())
    }

    fn put_f64s(&mut self, mut xs: &[f64]) -> io::Result<()> {
        while !xs.is_empty() {
            let room = (CHUNK - self.len) / 8;
            if room == 0 {
                self.drain()?;
                continue;
            }
            let (now, rest) = xs.split_at(xs.len().min(room));
            put_f64_bits(&mut self.buf[self.len..self.len + 8 * now.len()], now);
            self.len += 8 * now.len();
            xs = rest;
        }
        Ok(())
    }
}

/// Where a decoder reads from: the rest of a buffered body, or the rest
/// of a frame still on the socket ([`FrameReader`]).
trait Source {
    /// Bytes left: what the buffer holds, or what the frame still
    /// announces. Every allocation is checked against it first.
    fn left(&self) -> usize;
    /// Fills `out`, or `Truncated` when fewer bytes are left.
    fn take_into(&mut self, out: &mut [u8]) -> Result<(), WireError>;
    /// Takes `n` little-endian `f64`s, or `Truncated` when fewer than
    /// `8 * n` bytes are left — checked before anything is allocated, so
    /// a short body announcing a huge `n` costs nothing.
    fn take_f64s(&mut self, n: usize) -> Result<Vec<f64>, WireError>;
}

impl Source for &[u8] {
    fn left(&self) -> usize {
        self.len()
    }

    fn take_into(&mut self, out: &mut [u8]) -> Result<(), WireError> {
        if self.len() < out.len() {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.split_at(out.len());
        out.copy_from_slice(head);
        *self = rest;
        Ok(())
    }

    fn take_f64s(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        let len = n.checked_mul(8).ok_or(WireError::Truncated)?;
        if self.len() < len {
            return Err(WireError::Truncated);
        }
        let (bytes, rest) = self.split_at(len);
        *self = rest;
        Ok(bytes.chunks_exact(8).map(f64_of_bits).collect())
    }
}

fn f64_of_bits(b: &[u8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
}

fn take_u8(src: &mut impl Source) -> Result<u8, WireError> {
    let mut b = [0u8; 1];
    src.take_into(&mut b)?;
    Ok(b[0])
}

fn take_u64(src: &mut impl Source) -> Result<u64, WireError> {
    let mut b = [0u8; 8];
    src.take_into(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn take_len(src: &mut impl Source) -> Result<usize, WireError> {
    let n = take_u64(src)?;
    if n > MAX_FRAME_BYTES as u64 {
        return Err(WireError::Oversized(n as usize));
    }
    Ok(n as usize)
}

fn take_bytes(src: &mut impl Source, n: usize) -> Result<Vec<u8>, WireError> {
    if src.left() < n {
        return Err(WireError::Truncated);
    }
    let mut bytes = vec![0; n];
    src.take_into(&mut bytes)?;
    Ok(bytes)
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame. The body is flushed as a unit;
/// callers serialize concurrent writers with a mutex so frames never
/// interleave.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), WireError> {
    if body.len() > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(body.len()));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Writes one frame whose body is `head` followed by the encoding of
/// `value`, through one fixed 64 KiB buffer: the bytes of
/// [`write_frame`] over `head ‖ value.encode()`, without building
/// either.
pub(crate) fn write_value_frame(
    w: &mut impl Write,
    head: &[u8],
    value: &WireValue,
) -> Result<(), WireError> {
    let len = head.len() + value.encoded_len();
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len));
    }
    let mut out = Chunked {
        w,
        buf: [0; CHUNK],
        len: 0,
    };
    out.put(&(len as u32).to_le_bytes())?;
    out.put(head)?;
    value.encode_to(&mut out)?;
    out.drain()?;
    out.w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame. Returns `Err` on EOF, a short
/// read (peer died mid-write), or an oversized prefix — never a
/// partial body.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut frame = FrameReader::open(r)?;
    let mut body = vec![0u8; frame.left];
    frame.read_exact(&mut body)?;
    Ok(body)
}

/// One frame's body, read off the socket piece by piece: what
/// [`read_frame`] reads, without a whole-frame buffer. Nothing is read
/// past the length prefix's announcement, and a short read is an error.
pub(crate) struct FrameReader<'a, R> {
    r: &'a mut R,
    /// Body bytes not read yet.
    left: usize,
}

impl<'a, R: Read> FrameReader<'a, R> {
    /// Reads the next frame's length prefix.
    pub(crate) fn open(r: &'a mut R) -> Result<Self, WireError> {
        let mut len = [0u8; 4];
        r.read_exact(&mut len)?;
        let left = u32::from_le_bytes(len) as usize;
        if left > MAX_FRAME_BYTES {
            return Err(WireError::Oversized(left));
        }
        Ok(FrameReader { r, left })
    }

    /// Body bytes not read yet.
    pub(crate) fn left(&self) -> usize {
        self.left
    }

    /// Reads the next `out.len()` body bytes.
    pub(crate) fn read_exact(&mut self, out: &mut [u8]) -> Result<(), WireError> {
        self.take_into(out)
    }

    /// Decodes the value that ends the body straight into its own
    /// buffers: `f64` arrays come from `linalg::pool` and are filled
    /// through one 64 KiB buffer. Refuses what
    /// [`WireValue::decode`] refuses.
    pub(crate) fn read_value(mut self) -> Result<WireValue, WireError> {
        let v = WireValue::decode_nested(&mut self, 0)?;
        if self.left != 0 {
            return Err(WireError::Truncated);
        }
        Ok(v)
    }
}

impl<R: Read> Source for FrameReader<'_, R> {
    fn left(&self) -> usize {
        self.left
    }

    fn take_into(&mut self, out: &mut [u8]) -> Result<(), WireError> {
        if self.left < out.len() {
            return Err(WireError::Truncated);
        }
        self.r.read_exact(out)?;
        self.left -= out.len();
        Ok(())
    }

    fn take_f64s(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        let len = n.checked_mul(8).ok_or(WireError::Truncated)?;
        if self.left < len {
            return Err(WireError::Truncated);
        }
        // Every element is written below, so the pool's stale values
        // never show.
        let mut out = linalg::pool::acquire_full_overwrite(n);
        let mut chunk = [0u8; CHUNK];
        for xs in out.chunks_mut(CHUNK / 8) {
            let bytes = &mut chunk[..8 * xs.len()];
            self.take_into(bytes)?;
            for (x, b) in xs.iter_mut().zip(bytes.chunks_exact(8)) {
                *x = f64_of_bits(b);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<WireValue> {
        vec![
            WireValue::Unit,
            WireValue::Bool(true),
            WireValue::U64(u64::MAX),
            WireValue::I64(-42),
            WireValue::F64(-0.0),
            WireValue::F64(f64::NAN),
            WireValue::Str("αβ task".into()),
            WireValue::Bytes(vec![0, 255, 7]),
            WireValue::VecF64(vec![1.5, -2.25, f64::INFINITY]),
            WireValue::Matrix(Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64 / 7.0)),
            WireValue::List(vec![
                WireValue::U64(3),
                WireValue::List(vec![WireValue::VecF64(vec![1.0]), WireValue::Unit]),
            ]),
        ]
    }

    #[test]
    fn roundtrip_every_variant_bit_identically() {
        for v in samples() {
            let bytes = v.encode();
            let back = WireValue::decode(&bytes).unwrap();
            // PartialEq fails on NaN; compare re-encodings bit for bit.
            assert_eq!(bytes, back.encode(), "variant {v:?}");
        }
    }

    #[test]
    fn encoded_len_is_exact_and_is_approx_bytes() {
        for v in samples() {
            let bytes = v.encode();
            assert_eq!(bytes.len(), v.encoded_len(), "variant {v:?}");
            assert_eq!(bytes.len(), Payload::approx_bytes(&v), "variant {v:?}");
        }
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        for v in samples() {
            let bytes = v.encode();
            for cut in 0..bytes.len() {
                assert!(
                    WireValue::decode(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes of {v:?} decoded"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = WireValue::U64(7).encode();
        bytes.push(0);
        assert!(WireValue::decode(&bytes).is_err());
    }

    /// `depth` nested one-element lists around a unit.
    fn nested_lists(depth: usize) -> Vec<u8> {
        let level = [&[tag::LIST][..], &1u64.to_le_bytes()].concat();
        [level.repeat(depth), vec![tag::UNIT]].concat()
    }

    #[test]
    fn list_nesting_is_capped_instead_of_overflowing_the_stack() {
        let deepest = WireValue::decode(&nested_lists(MAX_LIST_DEPTH)).unwrap();
        assert_eq!(deepest.encode(), nested_lists(MAX_LIST_DEPTH));
        for depth in [MAX_LIST_DEPTH + 1, 100_000] {
            assert!(matches!(
                WireValue::decode(&nested_lists(depth)),
                Err(WireError::TooDeep)
            ));
        }
    }

    #[test]
    fn bad_tag_is_rejected() {
        assert!(matches!(
            WireValue::decode(&[200]),
            Err(WireError::BadTag(200))
        ));
    }

    /// Peak virtual memory of this process in KiB (`VmPeak`).
    fn vm_peak_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmPeak:")).unwrap();
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    /// A short body whose `f64` count is the largest `take_len` admits
    /// (2^30 elements, 8 GiB) must be refused before that much is
    /// reserved: the process's peak address space must not jump by GiBs.
    #[test]
    fn short_f64_payloads_are_refused_before_reserving() {
        let n = (MAX_FRAME_BYTES as u64).to_le_bytes();
        let vec_f64 = [&[tag::VEC_F64][..], &n, &[0; 64]].concat();
        let matrix = [&[tag::MATRIX][..], &n, &1u64.to_le_bytes(), &[0; 64]].concat();
        let before = vm_peak_kib();
        for bytes in [vec_f64, matrix] {
            assert!(matches!(
                WireValue::decode(&bytes),
                Err(WireError::Truncated)
            ));
        }
        let grown_gib = (vm_peak_kib() - before) as f64 / (1 << 20) as f64;
        assert!(grown_gib < 4.0, "decoding reserved {grown_gib:.1} GiB");
    }

    #[test]
    fn frame_roundtrip_over_socketpair() {
        let (mut a, mut b) = std::os::unix::net::UnixStream::pair().unwrap();
        let body = WireValue::VecF64(vec![1.0, 2.0]).encode();
        write_frame(&mut a, &body).unwrap();
        assert_eq!(read_frame(&mut b).unwrap(), body);
    }

    #[test]
    fn value_frames_stream_the_buffered_bytes_and_read_back() {
        let big = WireValue::Matrix(Matrix::from_fn(100, 97, |r, c| (r * 97 + c) as f64));
        for v in samples().into_iter().chain([big]) {
            let mut sent = Vec::new();
            write_value_frame(&mut sent, b"head", &v).unwrap();
            let mut body = b"head".to_vec();
            v.encode_into(&mut body);
            let mut want = Vec::new();
            write_frame(&mut want, &body).unwrap();
            assert_eq!(sent, want, "variant {v:?}");
            let mut r = sent.as_slice();
            let mut frame = FrameReader::open(&mut r).unwrap();
            let mut head = [0u8; 4];
            frame.read_exact(&mut head).unwrap();
            assert_eq!(frame.read_value().unwrap().encode(), v.encode());
            // One byte short: the reader errs instead of reading past.
            let mut r = &sent[..sent.len() - 1];
            let mut frame = FrameReader::open(&mut r).unwrap();
            frame.read_exact(&mut head).unwrap();
            assert!(frame.read_value().is_err(), "variant {v:?}");
        }
    }

    #[test]
    fn recycle_hands_every_f64_buffer_to_the_pool() {
        linalg::pool::clear();
        let v = WireValue::List(vec![
            WireValue::Matrix(Matrix::from_fn(4, 4, |r, c| (r + c) as f64)),
            WireValue::List(vec![WireValue::VecF64(vec![1.0; 8]), WireValue::Unit]),
        ]);
        v.recycle();
        let (_, _, retained) = linalg::pool::stats();
        assert_eq!(retained, 8 * (16 + 8));
        linalg::pool::clear();
    }

    #[test]
    fn partial_frame_is_an_error_never_a_short_body() {
        let (mut a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        // Announce 100 bytes, deliver 3, then die.
        a.write_all(&100u32.to_le_bytes()).unwrap();
        a.write_all(&[1, 2, 3]).unwrap();
        drop(a);
        let mut b = b;
        assert!(matches!(read_frame(&mut b), Err(WireError::Io(_))));
    }

    #[test]
    fn oversized_frame_prefix_is_rejected_before_allocating() {
        let (mut a, mut b) = std::os::unix::net::UnixStream::pair().unwrap();
        a.write_all(&u32::MAX.to_le_bytes()).unwrap();
        assert!(matches!(read_frame(&mut b), Err(WireError::Oversized(_))));
    }
}
