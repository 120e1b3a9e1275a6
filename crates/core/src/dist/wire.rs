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

use crate::payload::Payload;
use linalg::Matrix;
use std::io::{Read, Write};

/// Refuse frames larger than this (1 GiB): a corrupt or hostile length
/// prefix must not turn into an unbounded allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// Errors from decoding bytes or reading frames.
#[derive(Debug)]
pub enum WireError {
    /// Body ended before the announced structure did.
    Truncated,
    /// Unknown value or message tag.
    BadTag(u8),
    /// Frame length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// Underlying socket error (includes EOF mid-frame).
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire value"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            WireError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
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
    /// Heterogeneous sequence — nesting is arbitrary, so model bundles
    /// like `(components, explained_variance)` travel as one value.
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
        match self {
            WireValue::Unit => out.push(tag::UNIT),
            WireValue::Bool(b) => {
                out.push(tag::BOOL);
                out.push(u8::from(*b));
            }
            WireValue::U64(v) => {
                out.push(tag::U64);
                out.extend_from_slice(&v.to_le_bytes());
            }
            WireValue::I64(v) => {
                out.push(tag::I64);
                out.extend_from_slice(&v.to_le_bytes());
            }
            WireValue::F64(v) => {
                out.push(tag::F64);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            WireValue::Str(s) => {
                out.push(tag::STR);
                out.extend_from_slice(&(s.len() as u64).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            WireValue::Bytes(b) => {
                out.push(tag::BYTES);
                out.extend_from_slice(&(b.len() as u64).to_le_bytes());
                out.extend_from_slice(b);
            }
            WireValue::VecF64(v) => {
                out.push(tag::VEC_F64);
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                put_f64s(out, v);
            }
            WireValue::Matrix(m) => {
                out.push(tag::MATRIX);
                out.extend_from_slice(&(m.rows() as u64).to_le_bytes());
                out.extend_from_slice(&(m.cols() as u64).to_le_bytes());
                put_f64s(out, m.as_slice());
            }
            WireValue::List(items) => {
                out.push(tag::LIST);
                out.extend_from_slice(&(items.len() as u64).to_le_bytes());
                for it in items {
                    it.encode_into(out);
                }
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
        let t = take_u8(buf)?;
        Ok(match t {
            tag::UNIT => WireValue::Unit,
            tag::BOOL => WireValue::Bool(take_u8(buf)? != 0),
            tag::U64 => WireValue::U64(take_u64(buf)?),
            tag::I64 => WireValue::I64(take_u64(buf)? as i64),
            tag::F64 => WireValue::F64(f64::from_bits(take_u64(buf)?)),
            tag::STR => {
                let n = take_len(buf)?;
                let bytes = take_bytes(buf, n)?;
                WireValue::Str(String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Truncated)?)
            }
            tag::BYTES => {
                let n = take_len(buf)?;
                WireValue::Bytes(take_bytes(buf, n)?.to_vec())
            }
            tag::VEC_F64 => {
                let n = take_len(buf)?;
                WireValue::VecF64(take_f64s(buf, n)?)
            }
            tag::MATRIX => {
                let rows = take_len(buf)?;
                let cols = take_len(buf)?;
                let n = rows.checked_mul(cols).ok_or(WireError::Truncated)?;
                WireValue::Matrix(Matrix::from_vec(rows, cols, take_f64s(buf, n)?))
            }
            tag::LIST => {
                let n = take_len(buf)?;
                // Each element is at least 1 byte; reject absurd counts
                // before reserving.
                if n > buf.len() {
                    return Err(WireError::Truncated);
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(WireValue::decode_from(buf)?);
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
}

/// The wire size of a value *is* its payload size: the DES transfer
/// model and the real socket move the same byte counts.
impl Payload for WireValue {
    fn approx_bytes(&self) -> usize {
        self.encoded_len()
    }
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    let (&b, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(b)
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    if buf.len() < 8 {
        return Err(WireError::Truncated);
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    Ok(u64::from_le_bytes(head.try_into().unwrap()))
}

fn take_len(buf: &mut &[u8]) -> Result<usize, WireError> {
    let n = take_u64(buf)?;
    if n > MAX_FRAME_BYTES as u64 {
        return Err(WireError::Oversized(n as usize));
    }
    Ok(n as usize)
}

fn take_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Appends `xs` as little-endian `f64` bits: one resize, then a copy
/// per element into its fixed 8-byte slot.
fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    let start = out.len();
    out.resize(start + 8 * xs.len(), 0);
    for (slot, x) in out[start..].chunks_exact_mut(8).zip(xs) {
        slot.copy_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// Takes `n` little-endian `f64`s. The `8 * n` bytes must all be there
/// before anything is allocated, so a short body announcing a huge `n`
/// costs nothing.
fn take_f64s(buf: &mut &[u8], n: usize) -> Result<Vec<f64>, WireError> {
    let bytes = take_bytes(buf, n.checked_mul(8).ok_or(WireError::Truncated)?)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk"))))
        .collect())
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

/// Reads one length-prefixed frame. Returns `Err` on EOF, a short
/// read (peer died mid-write), or an oversized prefix — never a
/// partial body.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(n));
    }
    let mut body = vec![0u8; n];
    r.read_exact(&mut body)?;
    Ok(body)
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
