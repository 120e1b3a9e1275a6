//! Driver ⇄ worker message protocol.
//!
//! Every message travels as one length-prefixed frame
//! ([`crate::dist::wire`]); the first body byte is the message tag.
//! Two connection roles share the format:
//!
//! * **Control** — a worker connects to the driver's listener and opens
//!   with [`Msg::Hello`]; the stream then carries driver→worker
//!   [`Msg::Run`]/[`Msg::Release`]/[`Msg::Shutdown`] and worker→driver
//!   [`Msg::Heartbeat`]/[`Msg::Done`]/[`Msg::Failed`]/[`Msg::FetchFailed`].
//! * **Pull** — a one-shot connection opening with [`Msg::Pull`],
//!   answered with [`Msg::Data`] or [`Msg::NotFound`] before it closes.
//!   A worker's listener serves its store (a *peer pull*: consumers fetch
//!   inputs from the owning worker instead of round-tripping payloads
//!   through the driver); the driver's listener serves the seeds and the
//!   outputs it fetched back (a *relay*). Which one answered is told by
//!   the address that was dialled, not by the frames.
//!
//! [`send`] and [`recv`] stream a `Data` frame between the socket and
//! the value: the bytes are those of [`Msg::encode`], but neither side
//! builds a whole-frame buffer.

use super::wire::{self, FrameReader, WireError, WireValue};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;

/// Where a consumer can find an input: the data id plus the peer
/// socket paths of workers currently holding a replica (driver-held
/// seeds ship an empty owner list — the consumer falls back to the
/// driver relay).
#[derive(Debug, Clone, PartialEq)]
pub struct InputSpec {
    pub data: u64,
    /// `(worker id, peer socket path)` for each replica holder.
    pub owners: Vec<(u32, String)>,
}

/// One protocol message. See the module docs for which role sends what.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Control-stream opener: `worker` identifies the connecting process.
    Hello { worker: u32 },
    /// Periodic liveness beacon (`seq` increments per beat).
    Heartbeat { seq: u64 },
    /// Task finished. `start_rel_s` is seconds since the worker's own
    /// connection epoch. `pulled` lists the input data ids the worker
    /// fetched from a peer and `relayed` those it fetched through the
    /// driver relay; it now holds a replica of both.
    Done {
        task: u64,
        out: u64,
        bytes: u64,
        start_rel_s: f64,
        duration_s: f64,
        pulled: Vec<u64>,
        relayed: Vec<u64>,
    },
    /// Task body returned an error or panicked.
    Failed { task: u64, error: String },
    /// The worker could not *fetch* input `data` (every named owner and
    /// the driver relay failed) — not a body failure: the driver
    /// requeues the task and lets replica/lineage recovery resupply the
    /// input instead of burning a retry attempt.
    FetchFailed { task: u64, data: u64 },
    /// Driver → worker: execute `kind` over `inputs`, store the result
    /// as `out`. `attempt` is 1-based; the worker runs every attempt the
    /// same way and ignores it — it is on the wire so that a captured
    /// stream tells a retry from a first run.
    Run {
        task: u64,
        attempt: u32,
        kind: String,
        out: u64,
        inputs: Vec<InputSpec>,
    },
    /// Driver → worker: drain and exit cleanly.
    Shutdown,
    /// Driver → worker: no unfinished task reads `data` and it is not a
    /// marked output, so drop the replica and recycle its buffers.
    Release { data: u64 },
    /// One-shot pull request, to a peer worker or to the driver.
    Pull { data: u64 },
    /// Reply carrying a payload. Shared, so serving a datum out of a
    /// store never copies it.
    Data { data: u64, value: Arc<WireValue> },
    /// Reply: the responder no longer holds that datum.
    NotFound { data: u64 },
}

mod tag {
    pub const HELLO: u8 = 0;
    pub const HEARTBEAT: u8 = 1;
    pub const DONE: u8 = 2;
    pub const FAILED: u8 = 3;
    pub const RUN: u8 = 4;
    pub const SHUTDOWN: u8 = 5;
    pub const PULL: u8 = 7;
    pub const DATA: u8 = 8;
    pub const NOT_FOUND: u8 = 9;
    pub const FETCH_FAILED: u8 = 10;
    pub const RELEASE: u8 = 11;
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_ids(out: &mut Vec<u8>, ids: &[u64]) {
    put_u64(out, ids.len() as u64);
    for d in ids {
        put_u64(out, *d);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    if buf.len() < 8 {
        return Err(WireError::Truncated);
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    Ok(u64::from_le_bytes(head.try_into().unwrap()))
}

/// A `u32` id sent as `u64`; a value past `u32::MAX` is refused, not
/// truncated.
fn take_u32(buf: &mut &[u8], field: &'static str) -> Result<u32, WireError> {
    let value = take_u64(buf)?;
    u32::try_from(value).map_err(|_| WireError::OutOfRange { field, value })
}

fn take_f64(buf: &mut &[u8]) -> Result<f64, WireError> {
    Ok(f64::from_bits(take_u64(buf)?))
}

fn take_ids(buf: &mut &[u8]) -> Result<Vec<u64>, WireError> {
    let n = take_u64(buf)? as usize;
    if n > buf.len() {
        return Err(WireError::Truncated);
    }
    (0..n).map(|_| take_u64(buf)).collect()
}

/// The fewest wire bytes an [`InputSpec`] or an owner takes: two `u64`s
/// (data id and owner count; worker id and path length).
const MIN_SPEC_BYTES: usize = 16;

fn take_str(buf: &mut &[u8]) -> Result<String, WireError> {
    let n = take_u64(buf)? as usize;
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    String::from_utf8(head.to_vec()).map_err(|_| WireError::Truncated)
}

impl Msg {
    /// Encodes the message as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Msg::Hello { worker } => {
                out.push(tag::HELLO);
                put_u64(&mut out, u64::from(*worker));
            }
            Msg::Heartbeat { seq } => {
                out.push(tag::HEARTBEAT);
                put_u64(&mut out, *seq);
            }
            Msg::Done {
                task,
                out: o,
                bytes,
                start_rel_s,
                duration_s,
                pulled,
                relayed,
            } => {
                out.push(tag::DONE);
                put_u64(&mut out, *task);
                put_u64(&mut out, *o);
                put_u64(&mut out, *bytes);
                put_f64(&mut out, *start_rel_s);
                put_f64(&mut out, *duration_s);
                put_ids(&mut out, pulled);
                put_ids(&mut out, relayed);
            }
            Msg::Failed { task, error } => {
                out.push(tag::FAILED);
                put_u64(&mut out, *task);
                put_str(&mut out, error);
            }
            Msg::Run {
                task,
                attempt,
                kind,
                out: o,
                inputs,
            } => {
                out.push(tag::RUN);
                put_u64(&mut out, *task);
                put_u64(&mut out, u64::from(*attempt));
                put_str(&mut out, kind);
                put_u64(&mut out, *o);
                put_u64(&mut out, inputs.len() as u64);
                for i in inputs {
                    put_u64(&mut out, i.data);
                    put_u64(&mut out, i.owners.len() as u64);
                    for (w, path) in &i.owners {
                        put_u64(&mut out, u64::from(*w));
                        put_str(&mut out, path);
                    }
                }
            }
            Msg::Shutdown => out.push(tag::SHUTDOWN),
            Msg::Release { data } => {
                out.push(tag::RELEASE);
                put_u64(&mut out, *data);
            }
            Msg::Pull { data } => {
                out.push(tag::PULL);
                put_u64(&mut out, *data);
            }
            Msg::Data { data, value } => {
                out.reserve(9 + value.encoded_len());
                out.push(tag::DATA);
                put_u64(&mut out, *data);
                value.encode_into(&mut out);
            }
            Msg::NotFound { data } => {
                out.push(tag::NOT_FOUND);
                put_u64(&mut out, *data);
            }
            Msg::FetchFailed { task, data } => {
                out.push(tag::FETCH_FAILED);
                put_u64(&mut out, *task);
                put_u64(&mut out, *data);
            }
        }
        out
    }

    /// Decodes a frame body. The whole body must be consumed.
    pub fn decode(body: &[u8]) -> Result<Msg, WireError> {
        let mut buf = body;
        let t = {
            let (&b, rest) = buf.split_first().ok_or(WireError::Truncated)?;
            buf = rest;
            b
        };
        let msg = match t {
            tag::HELLO => Msg::Hello {
                worker: take_u32(&mut buf, "Hello.worker")?,
            },
            tag::HEARTBEAT => Msg::Heartbeat {
                seq: take_u64(&mut buf)?,
            },
            tag::DONE => {
                let task = take_u64(&mut buf)?;
                let out = take_u64(&mut buf)?;
                let bytes = take_u64(&mut buf)?;
                let start_rel_s = take_f64(&mut buf)?;
                let duration_s = take_f64(&mut buf)?;
                let pulled = take_ids(&mut buf)?;
                let relayed = take_ids(&mut buf)?;
                Msg::Done {
                    task,
                    out,
                    bytes,
                    start_rel_s,
                    duration_s,
                    pulled,
                    relayed,
                }
            }
            tag::FAILED => Msg::Failed {
                task: take_u64(&mut buf)?,
                error: take_str(&mut buf)?,
            },
            tag::RUN => {
                let task = take_u64(&mut buf)?;
                let attempt = take_u32(&mut buf, "Run.attempt")?;
                let kind = take_str(&mut buf)?;
                let out = take_u64(&mut buf)?;
                // Reserve no more entries than the bytes left can hold:
                // an `InputSpec` takes 16 bytes on the wire, 32 in memory.
                let n = take_u64(&mut buf)? as usize;
                let mut inputs = Vec::with_capacity(n.min(buf.len() / MIN_SPEC_BYTES));
                for _ in 0..n {
                    let data = take_u64(&mut buf)?;
                    let n_owners = take_u64(&mut buf)? as usize;
                    let mut owners = Vec::with_capacity(n_owners.min(buf.len() / MIN_SPEC_BYTES));
                    for _ in 0..n_owners {
                        let w = take_u32(&mut buf, "Run owner")?;
                        owners.push((w, take_str(&mut buf)?));
                    }
                    inputs.push(InputSpec { data, owners });
                }
                Msg::Run {
                    task,
                    attempt,
                    kind,
                    out,
                    inputs,
                }
            }
            tag::SHUTDOWN => Msg::Shutdown,
            tag::RELEASE => Msg::Release {
                data: take_u64(&mut buf)?,
            },
            tag::PULL => Msg::Pull {
                data: take_u64(&mut buf)?,
            },
            tag::DATA => {
                let data = take_u64(&mut buf)?;
                let value = Arc::new(WireValue::decode_from(&mut buf)?);
                Msg::Data { data, value }
            }
            tag::NOT_FOUND => Msg::NotFound {
                data: take_u64(&mut buf)?,
            },
            tag::FETCH_FAILED => Msg::FetchFailed {
                task: take_u64(&mut buf)?,
                data: take_u64(&mut buf)?,
            },
            other => return Err(WireError::BadTag(other)),
        };
        if !buf.is_empty() {
            return Err(WireError::Truncated);
        }
        Ok(msg)
    }
}

/// Sends one message as a frame. A `Data` frame is written straight
/// from its value.
pub fn send(w: &mut impl std::io::Write, msg: &Msg) -> Result<(), WireError> {
    match msg {
        Msg::Data { data, value } => {
            let mut head = [tag::DATA; 9];
            head[1..].copy_from_slice(&data.to_le_bytes());
            wire::write_value_frame(w, &head, value)
        }
        _ => wire::write_frame(w, &msg.encode()),
    }
}

/// Receives one message frame: what [`Msg::decode`] makes of the body,
/// value for value and error for error. A `Data` frame's value is
/// decoded straight off the socket into its own buffers.
pub fn recv(r: &mut impl std::io::Read) -> Result<Msg, WireError> {
    let mut frame = FrameReader::open(r)?;
    let mut head = [0u8; 9];
    let n = frame.left().min(head.len());
    frame.read_exact(&mut head[..n])?;
    if n == head.len() && head[0] == tag::DATA {
        let data = u64::from_le_bytes(head[1..].try_into().expect("8-byte id"));
        let value = Arc::new(frame.read_value()?);
        return Ok(Msg::Data { data, value });
    }
    let mut body = vec![0u8; n + frame.left()];
    body[..n].copy_from_slice(&head[..n]);
    frame.read_exact(&mut body[n..])?;
    Msg::decode(&body)
}

/// One pull connection: dials `addr`, asks for `data`, and returns the
/// value if whoever listens there holds it.
pub(super) fn pull(addr: &Path, data: u64) -> Option<Arc<WireValue>> {
    let mut conn = UnixStream::connect(addr).ok()?;
    send(&mut conn, &Msg::Pull { data }).ok()?;
    match recv(&mut conn) {
        Ok(Msg::Data { value, .. }) => Some(value),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::Matrix;

    #[test]
    fn every_message_roundtrips() {
        let msgs = vec![
            Msg::Hello { worker: 3 },
            Msg::Heartbeat { seq: 17 },
            Msg::Done {
                task: 5,
                out: 9,
                bytes: 128,
                start_rel_s: 0.25,
                duration_s: 0.0625,
                pulled: vec![1, 2],
                relayed: vec![3],
            },
            Msg::Failed {
                task: 5,
                error: "kind 'x' panicked".into(),
            },
            Msg::Run {
                task: 7,
                attempt: 2,
                kind: "dpca_gram".into(),
                out: 11,
                inputs: vec![InputSpec {
                    data: 4,
                    owners: vec![(0, "/tmp/w0.sock".into()), (2, "/tmp/w2.sock".into())],
                }],
            },
            Msg::Shutdown,
            Msg::Pull { data: 4 },
            Msg::Data {
                data: 4,
                value: Arc::new(WireValue::Matrix(Matrix::from_fn(2, 2, |r, c| {
                    (r + c) as f64
                }))),
            },
            Msg::NotFound { data: 4 },
            Msg::FetchFailed { task: 5, data: 4 },
            Msg::Release { data: 4 },
        ];
        for m in msgs {
            let body = m.encode();
            assert_eq!(Msg::decode(&body).unwrap(), m);
        }
    }

    #[test]
    fn ids_past_u32_are_refused_not_truncated() {
        let too_big = (1u64 << 32) + 1;
        let hello = [&[tag::HELLO][..], &too_big.to_le_bytes()].concat();
        assert!(matches!(
            Msg::decode(&hello),
            Err(WireError::OutOfRange { field: "Hello.worker", value }) if value == too_big
        ));
        let run = |attempt: u64, owner: u64| {
            let mut body = vec![tag::RUN];
            put_u64(&mut body, 7);
            put_u64(&mut body, attempt);
            put_str(&mut body, "k");
            put_u64(&mut body, 1);
            put_u64(&mut body, 1);
            put_u64(&mut body, 0);
            put_u64(&mut body, 1);
            put_u64(&mut body, owner);
            put_str(&mut body, "p");
            body
        };
        assert!(Msg::decode(&run(1, u64::from(u32::MAX))).is_ok());
        for (body, field) in [
            (run(too_big, 0), "Run.attempt"),
            (run(1, too_big), "Run owner"),
        ] {
            assert!(matches!(
                Msg::decode(&body),
                Err(WireError::OutOfRange { field: f, .. }) if f == field
            ));
        }
    }

    #[test]
    fn a_deeply_nested_data_frame_is_refused() {
        // A one-element list is its 9-byte header followed by the element.
        let list_of_unit = WireValue::List(vec![WireValue::Unit]).encode();
        let (header, unit) = list_of_unit.split_at(9);
        let mut body = vec![tag::DATA];
        put_u64(&mut body, 4);
        body.extend(header.repeat(200_000));
        body.extend_from_slice(unit);
        assert!(matches!(Msg::decode(&body), Err(WireError::TooDeep)));
    }

    #[test]
    fn truncated_message_bodies_error() {
        let body = Msg::Run {
            task: 7,
            attempt: 1,
            kind: "k".into(),
            out: 1,
            inputs: vec![InputSpec {
                data: 0,
                owners: vec![(0, "p".into())],
            }],
        }
        .encode();
        for cut in 0..body.len() {
            assert!(Msg::decode(&body[..cut]).is_err(), "prefix {cut} decoded");
        }
    }
}
