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
//! A message's bytes are one `wire` walk each way (`encode_to`,
//! `decode_from`): [`send`]/[`recv`] run them on the socket, a heartbeat
//! and a 1 MiB `Data` alike, and [`Msg::encode`]/[`Msg::decode`] on a
//! buffer. Neither side builds a whole-frame buffer.

use super::wire::{self, Encode, FrameReader, Sink, Source, WireError, WireValue};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{Arc, Mutex};

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
    pub(super) const HELLO: u8 = 0;
    pub(super) const HEARTBEAT: u8 = 1;
    pub(super) const DONE: u8 = 2;
    pub(super) const FAILED: u8 = 3;
    pub(super) const RUN: u8 = 4;
    pub(super) const SHUTDOWN: u8 = 5;
    pub(super) const PULL: u8 = 7;
    pub(super) const DATA: u8 = 8;
    pub(super) const NOT_FOUND: u8 = 9;
    pub(super) const FETCH_FAILED: u8 = 10;
    pub(super) const RELEASE: u8 = 11;
}

/// The fewest wire bytes an [`InputSpec`] or an owner takes: two `u64`s
/// (data id and owner count; worker id and path length).
const MIN_SPEC_BYTES: usize = 16;

impl Encode for Msg {
    fn encode_to(&self, out: &mut impl Sink) -> io::Result<()> {
        let t = match self {
            Msg::Hello { .. } => tag::HELLO,
            Msg::Heartbeat { .. } => tag::HEARTBEAT,
            Msg::Done { .. } => tag::DONE,
            Msg::Failed { .. } => tag::FAILED,
            Msg::FetchFailed { .. } => tag::FETCH_FAILED,
            Msg::Run { .. } => tag::RUN,
            Msg::Shutdown => tag::SHUTDOWN,
            Msg::Release { .. } => tag::RELEASE,
            Msg::Pull { .. } => tag::PULL,
            Msg::Data { .. } => tag::DATA,
            Msg::NotFound { .. } => tag::NOT_FOUND,
        };
        out.put_u8(t)?;
        match self {
            Msg::Hello { worker } => out.put_u64(u64::from(*worker)),
            Msg::Heartbeat { seq } => out.put_u64(*seq),
            Msg::Done {
                task,
                out: o,
                bytes,
                start_rel_s,
                duration_s,
                pulled,
                relayed,
            } => {
                out.put_u64(*task)?;
                out.put_u64(*o)?;
                out.put_u64(*bytes)?;
                out.put_f64(*start_rel_s)?;
                out.put_f64(*duration_s)?;
                out.put_ids(pulled)?;
                out.put_ids(relayed)
            }
            Msg::Failed { task, error } => {
                out.put_u64(*task)?;
                out.put_str(error)
            }
            Msg::FetchFailed { task, data } => {
                out.put_u64(*task)?;
                out.put_u64(*data)
            }
            Msg::Run {
                task,
                attempt,
                kind,
                out: o,
                inputs,
            } => {
                out.put_u64(*task)?;
                out.put_u64(u64::from(*attempt))?;
                out.put_str(kind)?;
                out.put_u64(*o)?;
                out.put_u64(inputs.len() as u64)?;
                for i in inputs {
                    out.put_u64(i.data)?;
                    out.put_u64(i.owners.len() as u64)?;
                    for (w, path) in &i.owners {
                        out.put_u64(u64::from(*w))?;
                        out.put_str(path)?;
                    }
                }
                Ok(())
            }
            Msg::Shutdown => Ok(()),
            Msg::Release { data } | Msg::Pull { data } | Msg::NotFound { data } => {
                out.put_u64(*data)
            }
            Msg::Data { data, value } => {
                out.put_u64(*data)?;
                value.encode_to(out)
            }
        }
    }
}

impl Msg {
    /// Encodes the message as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        wire::bytes_of(self)
    }

    /// Decodes a frame body. The whole body must be consumed.
    pub fn decode(mut body: &[u8]) -> Result<Msg, WireError> {
        wire::whole(&mut body, Msg::decode_from)
    }

    /// Decodes one message from the front of `src`.
    /// Fields are read in the order written: the wire order.
    fn decode_from(src: &mut impl Source) -> Result<Msg, WireError> {
        Ok(match src.take_u8()? {
            tag::HELLO => Msg::Hello {
                worker: src.take_u32("Hello.worker")?,
            },
            tag::HEARTBEAT => Msg::Heartbeat {
                seq: src.take_u64()?,
            },
            tag::DONE => Msg::Done {
                task: src.take_u64()?,
                out: src.take_u64()?,
                bytes: src.take_u64()?,
                start_rel_s: src.take_f64()?,
                duration_s: src.take_f64()?,
                pulled: src.take_ids()?,
                relayed: src.take_ids()?,
            },
            tag::FAILED => Msg::Failed {
                task: src.take_u64()?,
                error: src.take_str()?,
            },
            tag::RUN => {
                let task = src.take_u64()?;
                let attempt = src.take_u32("Run.attempt")?;
                let kind = src.take_str()?;
                let out = src.take_u64()?;
                // Reserve no more entries than the bytes left can hold:
                // an `InputSpec` takes 16 bytes on the wire, 32 in memory.
                let n = src.take_u64()? as usize;
                let mut inputs = Vec::with_capacity(n.min(src.left() / MIN_SPEC_BYTES));
                for _ in 0..n {
                    let data = src.take_u64()?;
                    let n_owners = src.take_u64()? as usize;
                    let mut owners = Vec::with_capacity(n_owners.min(src.left() / MIN_SPEC_BYTES));
                    for _ in 0..n_owners {
                        let w = src.take_u32("Run owner")?;
                        owners.push((w, src.take_str()?));
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
                data: src.take_u64()?,
            },
            tag::PULL => Msg::Pull {
                data: src.take_u64()?,
            },
            tag::DATA => Msg::Data {
                data: src.take_u64()?,
                value: Arc::new(WireValue::decode_from(src)?),
            },
            tag::NOT_FOUND => Msg::NotFound {
                data: src.take_u64()?,
            },
            tag::FETCH_FAILED => Msg::FetchFailed {
                task: src.take_u64()?,
                data: src.take_u64()?,
            },
            other => return Err(WireError::BadTag(other)),
        })
    }
}

/// Sends one message as a frame: the bytes of [`Msg::encode`] behind
/// their length, in one `write` when they fit 64 KiB.
pub fn send(w: &mut impl Write, msg: &Msg) -> Result<(), WireError> {
    wire::write_frame(w, msg)
}

/// Receives one message frame: what [`Msg::decode`] makes of the body,
/// value for value and error for error, decoded straight off the
/// socket.
pub fn recv(r: &mut impl Read) -> Result<Msg, WireError> {
    let mut frame = FrameReader::open(r)?;
    wire::whole(&mut frame, Msg::decode_from)
}

/// A store of shared values by data id: a worker's replicas, or the
/// driver's seeds and fetched outputs.
pub(super) type Store = Arc<Mutex<HashMap<u64, Arc<WireValue>>>>;

pub(super) const STORE_POISONED: &str = "a thread panicked holding a store";

/// Answers a pull for `data` from `store` with `Data` or `NotFound`,
/// and returns the payload bytes it served (0 for `NotFound`). A
/// worker's peer server and the driver's relay both answer with it.
pub(super) fn serve_pull(conn: &mut impl Write, data: u64, store: &Store) -> u64 {
    let held = store.lock().expect(STORE_POISONED).get(&data).cloned();
    let (reply, served) = match held {
        Some(value) => {
            let bytes = value.encoded_len() as u64;
            (Msg::Data { data, value }, bytes)
        }
        None => (Msg::NotFound { data }, 0),
    };
    let _ = send(conn, &reply);
    served
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

    /// `body` behind its `u32` length: the frame [`send`] must write.
    fn frame(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u32(body.len() as u32).unwrap();
        out.extend_from_slice(body);
        out
    }

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
            let mut sent = Vec::new();
            send(&mut sent, &m).unwrap();
            assert_eq!(sent, frame(&body), "{m:?}");
            assert_eq!(recv(&mut sent.as_slice()).unwrap(), m);
        }
    }

    #[test]
    fn ids_past_u32_are_refused_not_truncated() {
        let too_big = (1u64 << 32) + 1;
        let mut hello = vec![tag::HELLO];
        hello.put_u64(too_big).unwrap();
        assert!(matches!(
            Msg::decode(&hello),
            Err(WireError::OutOfRange { field: "Hello.worker", value }) if value == too_big
        ));
        let run = |attempt: u64, owner: u64| {
            let mut body = vec![tag::RUN];
            body.put_u64(7).unwrap();
            body.put_u64(attempt).unwrap();
            body.put_str("k").unwrap();
            body.put_u64(1).unwrap();
            body.put_u64(1).unwrap();
            body.put_u64(0).unwrap();
            body.put_u64(1).unwrap();
            body.put_u64(owner).unwrap();
            body.put_str("p").unwrap();
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
        let (header, unit) = (&list_of_unit[..9], &list_of_unit[9..]);
        let mut body = vec![tag::DATA];
        body.put_u64(4).unwrap();
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

    /// Counts the `read` or `write` calls made through it.
    struct Calls<T> {
        inner: T,
        calls: usize,
    }

    impl<T: Write> Write for Calls<T> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl<T: Read> Read for Calls<T> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.read(buf)
        }
    }

    #[test]
    fn a_control_frame_costs_one_write_and_at_most_two_reads() {
        let msgs = [
            Msg::Run {
                task: 7,
                attempt: 1,
                kind: "dpca_gram".into(),
                out: 11,
                inputs: vec![InputSpec {
                    data: 4,
                    owners: vec![(0, "/tmp/w0.sock".into())],
                }],
            },
            Msg::Done {
                task: 7,
                out: 11,
                bytes: 4096,
                start_rel_s: 0.5,
                duration_s: 0.001,
                pulled: vec![4],
                relayed: vec![],
            },
            Msg::Heartbeat { seq: 3 },
        ];
        let (a, b) = UnixStream::pair().unwrap();
        let mut tx = Calls { inner: a, calls: 0 };
        let mut rx = Calls { inner: b, calls: 0 };
        for m in msgs {
            tx.calls = 0;
            send(&mut tx, &m).unwrap();
            assert_eq!(tx.calls, 1, "writes for {m:?}");
            rx.calls = 0;
            assert_eq!(recv(&mut rx).unwrap(), m);
            assert!(rx.calls <= 2, "{} reads for {m:?}", rx.calls);
        }
    }
}
