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
//!
//! A type's bytes are one encoding walk over a `Sink` (`Encode`) and
//! one decoding walk over a `Source`, made of the primitives here; no
//! other module spells out a layout. A counting sink (`Count`) gives
//! [`WireValue::encoded_len`] and every frame's prefix. `write_frame`
//! puts prefix and body through one buffer of at most 64 KiB, one
//! `write` for a frame that fits; `FrameReader` decodes off the
//! socket, filling its 64 KiB read-ahead `min(bytes left in the frame,
//! 64 KiB)` at a time — never past the frame, so a control frame is one
//! read after its prefix — and draws decoded `f64` arrays from
//! `linalg::pool`.

use crate::payload::Payload;
use linalg::Matrix;
use std::io::{self, Read, Write};

/// Refuse frames larger than this (1 GiB): a corrupt or hostile length
/// prefix must not turn into an unbounded allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// Bytes a frame moves per socket write, and at most per read.
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
    U64(u64),
    /// Encoded via `to_bits`, so NaN payloads and `-0.0` round-trip
    /// bit-identically.
    F64(f64),
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

/// Value tags. 1, 3, 5 and 6 belonged to variants no kind sent (bool,
/// i64, string, bytes); they decode as [`WireError::BadTag`] now.
mod tag {
    pub(super) const UNIT: u8 = 0;
    pub(super) const U64: u8 = 2;
    pub(super) const F64: u8 = 4;
    pub(super) const VEC_F64: u8 = 7;
    pub(super) const MATRIX: u8 = 8;
    pub(super) const LIST: u8 = 9;
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

    /// The canonical encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        bytes_of(self)
    }

    /// Exact length [`Self::encode`] will produce, counted by the same
    /// walk. This is also the [`Payload::approx_bytes`] of the value —
    /// the wire format and the simulator's transfer model are pinned to
    /// each other byte for byte.
    pub fn encoded_len(&self) -> usize {
        len_of(self)
    }

    /// Decodes one value from the front of `src`, advancing it.
    pub(crate) fn decode_from(src: &mut impl Source) -> Result<WireValue, WireError> {
        WireValue::decode_nested(src, 0)
    }

    /// Decodes one value from `src` inside `depth` enclosing lists.
    /// Nothing is allocated for more bytes than `src` has left.
    fn decode_nested(src: &mut impl Source, depth: usize) -> Result<WireValue, WireError> {
        Ok(match src.take_u8()? {
            tag::UNIT => WireValue::Unit,
            tag::U64 => WireValue::U64(src.take_u64()?),
            tag::F64 => WireValue::F64(src.take_f64()?),
            tag::VEC_F64 => {
                let n = src.take_len()?;
                WireValue::VecF64(src.take_f64s(n)?)
            }
            tag::MATRIX => {
                let rows = src.take_len()?;
                let cols = src.take_len()?;
                let n = rows.checked_mul(cols).ok_or(WireError::Truncated)?;
                WireValue::Matrix(Matrix::from_vec(rows, cols, src.take_f64s(n)?))
            }
            tag::LIST => {
                if depth == MAX_LIST_DEPTH {
                    return Err(WireError::TooDeep);
                }
                let n = src.take_len()?;
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
        whole(&mut buf, WireValue::decode_from)
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

impl Encode for WireValue {
    fn encode_to(&self, out: &mut impl Sink) -> io::Result<()> {
        let t = match self {
            WireValue::Unit => tag::UNIT,
            WireValue::U64(_) => tag::U64,
            WireValue::F64(_) => tag::F64,
            WireValue::VecF64(_) => tag::VEC_F64,
            WireValue::Matrix(_) => tag::MATRIX,
            WireValue::List(_) => tag::LIST,
        };
        out.put_u8(t)?;
        match self {
            WireValue::Unit => Ok(()),
            WireValue::U64(v) => out.put_u64(*v),
            WireValue::F64(v) => out.put_f64(*v),
            WireValue::VecF64(v) => {
                out.put_u64(v.len() as u64)?;
                out.put_f64s(v)
            }
            WireValue::Matrix(m) => {
                out.put_u64(m.rows() as u64)?;
                out.put_u64(m.cols() as u64)?;
                out.put_f64s(m.as_slice())
            }
            WireValue::List(items) => {
                out.put_u64(items.len() as u64)?;
                items.iter().try_for_each(|it| it.encode_to(out))
            }
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

/// A type whose bytes are one walk over a [`Sink`]: the buffer, the
/// counter and the socket all run the same `encode_to`.
pub(crate) trait Encode {
    fn encode_to(&self, out: &mut impl Sink) -> io::Result<()>;
}

/// Exact length of `x`'s encoding: its walk over a [`Count`].
fn len_of(x: &impl Encode) -> usize {
    let mut n = Count(0);
    x.encode_to(&mut n).expect("a counter cannot fail");
    n.0
}

/// `x`'s encoding as a fresh buffer of exactly that length.
pub(crate) fn bytes_of(x: &impl Encode) -> Vec<u8> {
    let mut out = Vec::with_capacity(len_of(x));
    x.encode_to(&mut out).expect("a Vec sink cannot fail");
    out
}

/// Where an encoding goes: a growing buffer, a [`Count`], or a socket
/// through a bounded chunk ([`Chunked`]). The provided methods are the
/// format's primitives; every integer is little-endian.
pub(crate) trait Sink {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Puts `xs` as little-endian `f64` bits.
    fn put_f64s(&mut self, xs: &[f64]) -> io::Result<()>;

    fn put_u8(&mut self, v: u8) -> io::Result<()> {
        self.put(&[v])
    }

    fn put_u32(&mut self, v: u32) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    /// Via `to_bits`, so NaN payloads and `-0.0` keep every bit.
    fn put_f64(&mut self, v: f64) -> io::Result<()> {
        self.put_u64(v.to_bits())
    }

    /// Its byte length, then its UTF-8 bytes.
    fn put_str(&mut self, s: &str) -> io::Result<()> {
        self.put_u64(s.len() as u64)?;
        self.put(s.as_bytes())
    }

    /// A count, then each id.
    fn put_ids(&mut self, ids: &[u64]) -> io::Result<()> {
        self.put_u64(ids.len() as u64)?;
        ids.iter().try_for_each(|&id| self.put_u64(id))
    }
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

/// A sink that keeps only the number of bytes put into it.
struct Count(usize);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0 += bytes.len();
        Ok(())
    }

    fn put_f64s(&mut self, xs: &[f64]) -> io::Result<()> {
        self.0 += 8 * xs.len();
        Ok(())
    }
}

/// Writes `xs` into `out`, which holds exactly `8 * xs.len()` bytes.
fn put_f64_bits(out: &mut [u8], xs: &[f64]) {
    for (slot, x) in out.chunks_exact_mut(8).zip(xs) {
        slot.copy_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// A socket writer behind one buffer of at most 64 KiB, sized to the
/// frame when it is smaller and never grown: any frame costs one
/// allocation, and one that fits costs one `write`.
struct Chunked<'a, W> {
    w: &'a mut W,
    buf: Vec<u8>,
}

impl<W: Write> Chunked<'_, W> {
    fn drain(&mut self) -> io::Result<()> {
        self.w.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Bytes the buffer takes before it must drain.
    fn room(&self) -> usize {
        self.buf.capacity() - self.buf.len()
    }
}

impl<W: Write> Sink for Chunked<'_, W> {
    fn put(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            if self.room() == 0 {
                self.drain()?;
            }
            let n = bytes.len().min(self.room());
            self.buf.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
        }
        Ok(())
    }

    fn put_f64s(&mut self, mut xs: &[f64]) -> io::Result<()> {
        while !xs.is_empty() {
            let room = self.room() / 8;
            if room == 0 {
                self.drain()?;
                continue;
            }
            let (now, rest) = xs.split_at(xs.len().min(room));
            let start = self.buf.len();
            self.buf.resize(start + 8 * now.len(), 0);
            put_f64_bits(&mut self.buf[start..], now);
            xs = rest;
        }
        Ok(())
    }
}

/// Where a decoder reads from: the rest of a buffered body, or the rest
/// of a frame still on the socket ([`FrameReader`]). The provided
/// methods are the format's primitives, the mirror of [`Sink`]'s.
pub(crate) trait Source {
    /// Bytes left: what the buffer holds, or what the frame still
    /// announces. Every allocation is checked against it first.
    fn left(&self) -> usize;
    /// Fills `out`, or `Truncated` when fewer bytes are left.
    fn take_into(&mut self, out: &mut [u8]) -> Result<(), WireError>;
    /// Takes `n` little-endian `f64`s, or `Truncated` when fewer than
    /// `8 * n` bytes are left — checked before anything is allocated, so
    /// a short body announcing a huge `n` costs nothing.
    fn take_f64s(&mut self, n: usize) -> Result<Vec<f64>, WireError>;

    fn take_u8(&mut self) -> Result<u8, WireError> {
        let mut b = [0u8; 1];
        self.take_into(&mut b)?;
        Ok(b[0])
    }

    fn take_u64(&mut self) -> Result<u64, WireError> {
        let mut b = [0u8; 8];
        self.take_into(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// A `u32` id sent as `u64`; a value past `u32::MAX` is refused as
    /// `OutOfRange` naming `field`, not truncated.
    fn take_u32(&mut self, field: &'static str) -> Result<u32, WireError> {
        let value = self.take_u64()?;
        u32::try_from(value).map_err(|_| WireError::OutOfRange { field, value })
    }

    fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// A length or count; one past [`MAX_FRAME_BYTES`] is `Oversized`.
    fn take_len(&mut self) -> Result<usize, WireError> {
        let n = self.take_u64()?;
        if n > MAX_FRAME_BYTES as u64 {
            return Err(WireError::Oversized(n as usize));
        }
        Ok(n as usize)
    }

    /// A length, then that many UTF-8 bytes (anything else is
    /// `Truncated`), refused before allocating when fewer are left.
    fn take_str(&mut self) -> Result<String, WireError> {
        let n = self.take_len()?;
        if self.left() < n {
            return Err(WireError::Truncated);
        }
        let mut bytes = vec![0; n];
        self.take_into(&mut bytes)?;
        String::from_utf8(bytes).map_err(|_| WireError::Truncated)
    }

    /// A count, then that many ids; a count the bytes left cannot hold
    /// is refused before anything is reserved.
    fn take_ids(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.take_u64()? as usize;
        if n > self.left() / 8 {
            return Err(WireError::Truncated);
        }
        (0..n).map(|_| self.take_u64()).collect()
    }
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

/// Runs `decode` over `src`, which it must use up: a body is one value
/// or message, and a byte left after it is `Truncated`.
pub(crate) fn whole<S: Source, T>(
    src: &mut S,
    decode: impl FnOnce(&mut S) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let v = decode(src)?;
    if src.left() != 0 {
        return Err(WireError::Truncated);
    }
    Ok(v)
}

/// Writes `body` as one length-prefixed frame: the walk over a
/// [`Count`] gives the prefix, then the same walk runs through one
/// [`Chunked`] buffer. Callers serialize concurrent writers with a
/// mutex so frames never interleave.
pub(crate) fn write_frame(w: &mut impl Write, body: &impl Encode) -> Result<(), WireError> {
    let len = len_of(body);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len));
    }
    let mut out = Chunked {
        w,
        buf: Vec::with_capacity((4 + len).min(CHUNK)),
    };
    out.put_u32(len as u32)?;
    body.encode_to(&mut out)?;
    out.drain()?;
    out.w.flush()?;
    Ok(())
}

/// One frame's body, decoded off the socket as a [`Source`]. `open`
/// reads the length prefix; after it nothing is read past what the
/// prefix announced, and a short read is an error, never a short body.
pub(crate) struct FrameReader<'a, R> {
    r: &'a mut R,
    /// Body bytes still on the socket.
    unread: usize,
    /// Read-ahead: `buf[at..end]` is read but not taken yet.
    buf: [u8; CHUNK],
    at: usize,
    end: usize,
}

impl<'a, R: Read> FrameReader<'a, R> {
    /// Reads the next frame's length prefix.
    pub(crate) fn open(r: &'a mut R) -> Result<Self, WireError> {
        let mut len = [0u8; 4];
        r.read_exact(&mut len)?;
        let unread = u32::from_le_bytes(len) as usize;
        if unread > MAX_FRAME_BYTES {
            return Err(WireError::Oversized(unread));
        }
        Ok(FrameReader {
            r,
            unread,
            buf: [0; CHUNK],
            at: 0,
            end: 0,
        })
    }

    /// Refills the drained read-ahead with the next `min(unread,
    /// 64 KiB)` bytes of the frame.
    fn fill(&mut self) -> Result<(), WireError> {
        let n = self.unread.min(CHUNK);
        self.r.read_exact(&mut self.buf[..n])?;
        self.unread -= n;
        self.at = 0;
        self.end = n;
        Ok(())
    }
}

impl<R: Read> Source for FrameReader<'_, R> {
    fn left(&self) -> usize {
        self.unread + (self.end - self.at)
    }

    fn take_into(&mut self, out: &mut [u8]) -> Result<(), WireError> {
        if self.left() < out.len() {
            return Err(WireError::Truncated);
        }
        let mut done = 0;
        while done < out.len() {
            if self.at == self.end {
                self.fill()?;
            }
            let n = (self.end - self.at).min(out.len() - done);
            out[done..done + n].copy_from_slice(&self.buf[self.at..self.at + n]);
            self.at += n;
            done += n;
        }
        Ok(())
    }

    /// Decodes straight from the read-ahead into a pooled array.
    fn take_f64s(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        let len = n.checked_mul(8).ok_or(WireError::Truncated)?;
        if self.left() < len {
            return Err(WireError::Truncated);
        }
        // Every element is written below, so the pool's stale values
        // never show.
        let mut out = linalg::pool::acquire_full_overwrite(n);
        let mut i = 0;
        while i < n {
            let whole = ((self.end - self.at) / 8).min(n - i);
            if whole == 0 {
                // The next element straddles the read-ahead's end.
                out[i] = self.take_f64()?;
                i += 1;
                continue;
            }
            let bytes = &self.buf[self.at..self.at + 8 * whole];
            for (x, b) in out[i..i + whole].iter_mut().zip(bytes.chunks_exact(8)) {
                *x = f64_of_bits(b);
            }
            self.at += 8 * whole;
            i += whole;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::proto::{recv, send, Msg};
    use std::sync::Arc;

    fn samples() -> Vec<WireValue> {
        vec![
            WireValue::Unit,
            WireValue::U64(u64::MAX),
            WireValue::F64(-0.0),
            WireValue::F64(f64::NAN),
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
        // The tags of the deleted bool, i64, string and bytes variants.
        for t in [1, 3, 5, 6] {
            let mut bytes = vec![t];
            bytes.extend_from_slice(&[0; 16]);
            assert!(matches!(WireValue::decode(&bytes), Err(WireError::BadTag(b)) if b == t));
        }
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
        let msg = Msg::Data {
            data: 1,
            value: Arc::new(WireValue::VecF64(vec![1.0, 2.0])),
        };
        send(&mut a, &msg).unwrap();
        assert_eq!(recv(&mut b).unwrap(), msg);
    }

    #[test]
    fn value_frames_stream_the_buffered_bytes_and_read_back() {
        let big = WireValue::Matrix(Matrix::from_fn(100, 97, |r, c| (r * 97 + c) as f64));
        for v in samples().into_iter().chain([big]) {
            let msg = Msg::Data {
                data: 7,
                value: Arc::new(v.clone()),
            };
            let mut sent = Vec::new();
            send(&mut sent, &msg).unwrap();
            let body = msg.encode();
            let want = [&(body.len() as u32).to_le_bytes()[..], &body].concat();
            assert_eq!(sent, want, "variant {v:?}");
            let Msg::Data { value, .. } = recv(&mut sent.as_slice()).unwrap() else {
                panic!("not a Data frame");
            };
            assert_eq!(value.encode(), v.encode());
            // One byte short: the reader errs instead of reading past.
            assert!(recv(&mut &sent[..sent.len() - 1]).is_err(), "variant {v:?}");
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
        assert!(matches!(recv(&mut b), Err(WireError::Io(_))));
    }

    #[test]
    fn oversized_frame_prefix_is_rejected_before_allocating() {
        let (mut a, mut b) = std::os::unix::net::UnixStream::pair().unwrap();
        a.write_all(&u32::MAX.to_le_bytes()).unwrap();
        assert!(matches!(recv(&mut b), Err(WireError::Oversized(_))));
    }
}
