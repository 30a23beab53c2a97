//! The df-serve wire protocol.
//!
//! Every message is one length-prefixed frame: a 4-byte big-endian payload
//! length followed by that many payload bytes. Inside a frame the first
//! byte is a message tag; the rest is tag-specific, built from three
//! primitives (`u8`, big-endian `u32`/`u64`, and length-prefixed byte
//! strings). The encoding is hand-rolled for the same reason `df-obs`
//! writes its own JSON: the build environment is offline (see
//! `shims/README.md`), so no serde.
//!
//! Responses to queries carry the request's client-chosen `id`, so a
//! client may pipeline many requests on one connection and match
//! responses out of order (the engine reorders across priority classes).
//! Errors travel as [`ServeError`], which embeds the df-host
//! [`df_host::HostError`] taxonomy from PR 4 as a stable
//! [`HostErrorKind`] code plus its rendered detail.
//!
//! The server sends a result as one frame encoded once: `result_frame`
//! writes the length prefix and the [`Response::Result`] payload straight
//! from the result's images into a buffer sized up front, through the
//! same encoder [`Response::encode`] uses, and refuses with
//! [`ServeError::ResultTooLarge`] a result past [`MAX_FRAME`] before
//! reading any of it.

use std::fmt;
use std::io::{self, Read, Write};
use std::str::FromStr;

use df_host::HostError;

/// Largest accepted frame payload (64 MiB). A malformed or hostile length
/// prefix fails the connection instead of allocating unbounded memory.
pub const MAX_FRAME: usize = 64 << 20;

/// Write one length-prefixed frame.
///
/// # Errors
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    // One coalesced write, not prefix-then-payload: two small writes on
    // a TCP stream interact with Nagle + delayed ACK — the payload sits
    // in the kernel until the peer acknowledges the 4-byte prefix, a
    // ~40 ms stall per frame on Linux defaults.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary.
///
/// # Errors
/// Propagates I/O errors; rejects length prefixes over [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// One whole frame — length prefix and payload in one buffer, the shape
/// the server hands to a single `write_all` — for a response that is not
/// a served result (those come from [`result_frame`]). The bytes are
/// exactly what [`write_frame`] puts on the wire for
/// `response.encode()`.
pub(crate) fn response_frame(response: &Response) -> Vec<u8> {
    let mut frame = vec![0; 4];
    response.encode_into(&mut frame);
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    frame
}

/// Payload bytes of a result: tag, id, fan-out, the length-prefixed
/// schema text, the tuple count, and `count` length-prefixed images
/// totalling `image_bytes`. Saturates instead of wrapping, so an absurd
/// count still reads as past [`MAX_FRAME`].
fn result_len(schema: &str, count: usize, image_bytes: usize) -> usize {
    (1 + 8 + 4 + 4 + 4 + schema.len())
        .saturating_add(count.saturating_mul(4))
        .saturating_add(image_bytes)
}

/// The one result encoder: append the [`Response::Result`] payload for
/// `count` tuple images to `out`. [`Response::encode`] and the served
/// frame ([`result_frame`]) both write through it, so a result has one
/// byte layout whichever way it is built.
fn put_result<'a>(
    out: &mut Vec<u8>,
    id: u64,
    fan_out: u32,
    schema: &str,
    count: usize,
    images: impl IntoIterator<Item = &'a [u8]>,
) {
    out.push(0);
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&fan_out.to_be_bytes());
    put_bytes(out, schema.as_bytes());
    out.extend_from_slice(&(count as u32).to_be_bytes());
    for image in images {
        put_bytes(out, image);
    }
}

/// A served result as one whole frame: the length prefix, then the
/// [`Response::Result`] payload of `count` images of exactly `width`
/// bytes each, encoded once from wherever they live (a relation's page
/// rows, a view's counted multiset) into a buffer sized up front.
///
/// # Errors
/// [`ServeError::ResultTooLarge`] when the payload would exceed
/// [`MAX_FRAME`] — decided from the sizes alone, before `images` is read
/// or any buffer is allocated.
///
/// # Panics
/// If the images do not add up to `count` × `width` bytes.
pub(crate) fn result_frame<'a>(
    id: u64,
    fan_out: u32,
    schema: &str,
    count: usize,
    width: usize,
    images: impl IntoIterator<Item = &'a [u8]>,
) -> Result<Vec<u8>, ServeError> {
    let len = result_len(schema, count, count.saturating_mul(width));
    if len > MAX_FRAME {
        return Err(ServeError::ResultTooLarge {
            bytes: len as u64,
            limit: MAX_FRAME as u64,
        });
    }
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    put_result(&mut frame, id, fan_out, schema, count, images);
    assert_eq!(frame.len(), 4 + len, "result images are not {width} bytes");
    Ok(frame)
}

/// Stamp `id` into a [`result_frame`]: the 8 bytes after the length
/// prefix and the tag. A fused read's frames differ only there.
pub(crate) fn set_result_id(frame: &mut [u8], id: u64) {
    frame[5..13].copy_from_slice(&id.to_be_bytes());
}

// ---------------------------------------------------------------- priority

/// Admission priority class of a query request. The engine drains classes
/// strictly high → normal → low, round-robin across clients within each
/// class (DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum Priority {
    /// Served before everything else.
    High = 0,
    /// The default class.
    #[default]
    Normal = 1,
    /// Served only when no higher class has pending work.
    Low = 2,
}

impl Priority {
    /// All classes, highest first (drain order).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    fn from_wire(b: u8) -> Result<Priority, DecodeError> {
        match b {
            0 => Ok(Priority::High),
            1 => Ok(Priority::Normal),
            2 => Ok(Priority::Low),
            other => Err(DecodeError::new(format!("bad priority byte {other}"))),
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        })
    }
}

impl FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Priority, String> {
        match s {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!(
                "unknown priority `{other}` (expected high, normal, or low)"
            )),
        }
    }
}

// ---------------------------------------------------------------- requests

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a query, given as s-expression text (`df_query::parse_query`
    /// grammar), under a priority class. `id` is chosen by the client and
    /// echoed in the matching [`Response::Result`]/[`Response::Error`].
    Query {
        /// Client-chosen correlation id.
        id: u64,
        /// Admission class.
        priority: Priority,
        /// Run `df-opt` on the parsed tree before execution.
        optimize: bool,
        /// The query text.
        text: String,
    },
    /// Fetch the server's cumulative counters.
    Stats,
    /// List the served relations.
    Relations,
    /// Liveness probe; answered with [`Response::Ok`].
    Ping,
    /// Ask the server to finish in-flight work and exit.
    Shutdown,
    /// Install a standing view: materialize `text` once, then maintain
    /// the result incrementally from every write to its base relations.
    /// Answered with a [`Response::Result`] carrying the view's schema
    /// and no tuples, or a [`Response::Error`].
    InstallView {
        /// Client-chosen correlation id.
        id: u64,
        /// View name (the handle for `ReadView`/`DropView`).
        name: String,
        /// The read-only defining query.
        text: String,
    },
    /// Uninstall a standing view.
    DropView {
        /// Client-chosen correlation id.
        id: u64,
        /// The view to drop.
        name: String,
    },
    /// Read a maintained view's current result — served from the
    /// standing dataflow's state, never by re-executing the definition.
    ReadView {
        /// Client-chosen correlation id.
        id: u64,
        /// The view to read.
        name: String,
    },
}

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Query {
                id,
                priority,
                optimize,
                text,
            } => {
                out.push(0);
                out.extend_from_slice(&id.to_be_bytes());
                out.push(*priority as u8);
                out.push(u8::from(*optimize));
                put_bytes(&mut out, text.as_bytes());
            }
            Request::Stats => out.push(1),
            Request::Relations => out.push(2),
            Request::Ping => out.push(3),
            Request::Shutdown => out.push(4),
            Request::InstallView { id, name, text } => {
                out.push(5);
                out.extend_from_slice(&id.to_be_bytes());
                put_bytes(&mut out, name.as_bytes());
                put_bytes(&mut out, text.as_bytes());
            }
            Request::DropView { id, name } => {
                out.push(6);
                out.extend_from_slice(&id.to_be_bytes());
                put_bytes(&mut out, name.as_bytes());
            }
            Request::ReadView { id, name } => {
                out.push(7);
                out.extend_from_slice(&id.to_be_bytes());
                put_bytes(&mut out, name.as_bytes());
            }
        }
        out
    }

    /// Decode from a frame payload.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncated or malformed payloads.
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeError> {
        let mut r = Cursor::new(payload);
        let req = match r.u8()? {
            0 => Request::Query {
                id: r.u64()?,
                priority: Priority::from_wire(r.u8()?)?,
                optimize: r.u8()? != 0,
                text: r.string()?,
            },
            1 => Request::Stats,
            2 => Request::Relations,
            3 => Request::Ping,
            4 => Request::Shutdown,
            5 => Request::InstallView {
                id: r.u64()?,
                name: r.string()?,
                text: r.string()?,
            },
            6 => Request::DropView {
                id: r.u64()?,
                name: r.string()?,
            },
            7 => Request::ReadView {
                id: r.u64()?,
                name: r.string()?,
            },
            other => return Err(DecodeError::new(format!("bad request tag {other}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

// --------------------------------------------------------------- responses

/// One query's result set as it travels the wire: the canonical tuple
/// images of the (deterministically ordered) result relation plus enough
/// schema text to print them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Echo of the request id.
    pub id: u64,
    /// How many concurrent identical requests this execution served
    /// (≥ 1; > 1 means the request was fused with others).
    pub fan_out: u32,
    /// Rendered result schema, e.g. `key:int fk:int val:int pad:str(76)`.
    pub schema: String,
    /// Raw canonical tuple images, in result order.
    pub tuples: Vec<Vec<u8>>,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A query completed.
    Result(QueryResult),
    /// A query failed (or was rejected); `id` echoes the request.
    Error {
        /// Echo of the request id.
        id: u64,
        /// What went wrong.
        error: ServeError,
    },
    /// Cumulative server counters, name → value.
    Stats(Vec<(String, u64)>),
    /// Served relations, one description per line.
    Relations(Vec<String>),
    /// Acknowledgement of [`Request::Ping`]/[`Request::Shutdown`].
    Ok,
}

impl Response {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the frame payload to `out`; a result reserves its exact size
    /// first, so the buffer grows once.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Result(r) => {
                let image_bytes = r.tuples.iter().map(Vec::len).sum();
                out.reserve_exact(result_len(&r.schema, r.tuples.len(), image_bytes));
                let images = r.tuples.iter().map(Vec::as_slice);
                put_result(out, r.id, r.fan_out, &r.schema, r.tuples.len(), images);
            }
            Response::Error { id, error } => {
                out.push(1);
                out.extend_from_slice(&id.to_be_bytes());
                error.encode(out);
            }
            Response::Stats(rows) => {
                out.push(2);
                out.extend_from_slice(&(rows.len() as u32).to_be_bytes());
                for (k, v) in rows {
                    put_bytes(out, k.as_bytes());
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
            Response::Relations(rows) => {
                out.push(3);
                out.extend_from_slice(&(rows.len() as u32).to_be_bytes());
                for r in rows {
                    put_bytes(out, r.as_bytes());
                }
            }
            Response::Ok => out.push(4),
        }
    }

    /// Decode from a frame payload.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncated or malformed payloads.
    pub fn decode(payload: &[u8]) -> Result<Response, DecodeError> {
        let mut r = Cursor::new(payload);
        let resp = match r.u8()? {
            0 => {
                let id = r.u64()?;
                let fan_out = r.u32()?;
                let schema = r.string()?;
                let (n, mut tuples) = r.counted()?;
                for _ in 0..n {
                    tuples.push(r.bytes()?);
                }
                Response::Result(QueryResult {
                    id,
                    fan_out,
                    schema,
                    tuples,
                })
            }
            1 => Response::Error {
                id: r.u64()?,
                error: ServeError::decode(&mut r)?,
            },
            2 => {
                let (n, mut rows) = r.counted()?;
                for _ in 0..n {
                    let k = r.string()?;
                    let v = r.u64()?;
                    rows.push((k, v));
                }
                Response::Stats(rows)
            }
            3 => {
                let (n, mut rows) = r.counted()?;
                for _ in 0..n {
                    rows.push(r.string()?);
                }
                Response::Relations(rows)
            }
            4 => Response::Ok,
            other => return Err(DecodeError::new(format!("bad response tag {other}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

// ------------------------------------------------------------ error model

/// Stable wire code for each [`HostError`] variant. Codes appear on the
/// wire and must not be reused; 3 is retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum HostErrorKind {
    /// [`HostError::InvalidParams`].
    InvalidParams = 0,
    /// [`HostError::ReadOnlyExecutor`].
    ReadOnlyExecutor = 1,
    /// [`HostError::UnitPanicked`].
    UnitPanicked = 2,
    /// [`HostError::Stalled`].
    Stalled = 4,
    /// [`HostError::Data`].
    Data = 5,
    /// A variant this protocol version does not know (`HostError` is
    /// `#[non_exhaustive]`).
    Other = 6,
}

impl HostErrorKind {
    /// Stable lower-snake name.
    pub fn name(self) -> &'static str {
        match self {
            HostErrorKind::InvalidParams => "invalid_params",
            HostErrorKind::ReadOnlyExecutor => "read_only_executor",
            HostErrorKind::UnitPanicked => "unit_panicked",
            HostErrorKind::Stalled => "stalled",
            HostErrorKind::Data => "data",
            HostErrorKind::Other => "other",
        }
    }

    fn from_wire(b: u8) -> Result<HostErrorKind, DecodeError> {
        Ok(match b {
            0 => HostErrorKind::InvalidParams,
            1 => HostErrorKind::ReadOnlyExecutor,
            2 => HostErrorKind::UnitPanicked,
            4 => HostErrorKind::Stalled,
            5 => HostErrorKind::Data,
            6 => HostErrorKind::Other,
            other => return Err(DecodeError::new(format!("bad host error kind {other}"))),
        })
    }
}

impl From<&HostError> for HostErrorKind {
    fn from(e: &HostError) -> HostErrorKind {
        match e {
            HostError::InvalidParams { .. } => HostErrorKind::InvalidParams,
            HostError::ReadOnlyExecutor { .. } => HostErrorKind::ReadOnlyExecutor,
            HostError::UnitPanicked { .. } => HostErrorKind::UnitPanicked,
            HostError::Stalled { .. } => HostErrorKind::Stalled,
            HostError::Data(_) => HostErrorKind::Data,
            _ => HostErrorKind::Other,
        }
    }
}

/// Everything the server can report back instead of a result. Carried in
/// [`Response::Error`]; the executor-side variants embed the PR-4
/// [`HostError`] taxonomy as a [`HostErrorKind`] plus rendered detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The client's bounded admission queue is full. Backpressure, not
    /// failure: retry after draining some in-flight requests.
    Busy {
        /// The queue capacity that was exceeded.
        capacity: u64,
    },
    /// The query text did not parse or validate against the catalog.
    Parse {
        /// Rendered parse/validation error.
        detail: String,
    },
    /// The executor failed this query with a structured [`HostError`].
    Host {
        /// Which taxonomy variant.
        kind: HostErrorKind,
        /// The rendered `HostError`.
        detail: String,
    },
    /// The request violated the wire protocol.
    Protocol {
        /// What was malformed.
        detail: String,
    },
    /// The server is shutting down and no longer admits queries.
    ShuttingDown,
    /// A standing-view request failed: duplicate install, unknown view
    /// name, or a definition the maintenance planner rejects.
    View {
        /// What went wrong.
        detail: String,
    },
    /// The request ran, but its result does not fit one frame: the
    /// payload would be `bytes` long, past the `limit` of [`MAX_FRAME`].
    /// Refused before any of it is encoded.
    ResultTooLarge {
        /// The result payload's size.
        bytes: u64,
        /// [`MAX_FRAME`].
        limit: u64,
    },
}

impl ServeError {
    /// Build the executor-failure variant from a [`HostError`].
    pub fn host(e: &HostError) -> ServeError {
        ServeError::Host {
            kind: e.into(),
            detail: e.to_string(),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServeError::Busy { capacity } => {
                out.push(0);
                out.extend_from_slice(&capacity.to_be_bytes());
            }
            ServeError::Parse { detail } => {
                out.push(1);
                put_bytes(out, detail.as_bytes());
            }
            ServeError::Host { kind, detail } => {
                out.push(2);
                out.push(*kind as u8);
                put_bytes(out, detail.as_bytes());
            }
            ServeError::Protocol { detail } => {
                out.push(3);
                put_bytes(out, detail.as_bytes());
            }
            ServeError::ShuttingDown => out.push(4),
            ServeError::View { detail } => {
                out.push(5);
                put_bytes(out, detail.as_bytes());
            }
            ServeError::ResultTooLarge { bytes, limit } => {
                out.push(6);
                out.extend_from_slice(&bytes.to_be_bytes());
                out.extend_from_slice(&limit.to_be_bytes());
            }
        }
    }

    fn decode(r: &mut Cursor<'_>) -> Result<ServeError, DecodeError> {
        Ok(match r.u8()? {
            0 => ServeError::Busy { capacity: r.u64()? },
            1 => ServeError::Parse {
                detail: r.string()?,
            },
            2 => ServeError::Host {
                kind: HostErrorKind::from_wire(r.u8()?)?,
                detail: r.string()?,
            },
            3 => ServeError::Protocol {
                detail: r.string()?,
            },
            4 => ServeError::ShuttingDown,
            5 => ServeError::View {
                detail: r.string()?,
            },
            6 => ServeError::ResultTooLarge {
                bytes: r.u64()?,
                limit: r.u64()?,
            },
            other => return Err(DecodeError::new(format!("bad serve error code {other}"))),
        })
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Busy { capacity } => {
                write!(f, "busy: admission queue full ({capacity} slots)")
            }
            ServeError::Parse { detail } => write!(f, "parse error: {detail}"),
            ServeError::Host { kind, detail } => {
                write!(f, "execution failed ({}): {detail}", kind.name())
            }
            ServeError::Protocol { detail } => write!(f, "protocol error: {detail}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::View { detail } => write!(f, "view error: {detail}"),
            ServeError::ResultTooLarge { bytes, limit } => write!(
                f,
                "result too large: a {bytes}-byte payload exceeds the {limit}-byte frame limit"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// A malformed frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was malformed.
    pub detail: String,
}

impl DecodeError {
    fn new(detail: String) -> DecodeError {
        DecodeError { detail }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed frame: {}", self.detail)
    }
}

impl std::error::Error for DecodeError {}

// ----------------------------------------------------------- byte cursors

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::new(format!(
                "need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// An element count and a `Vec` reserved for it. Every element starts
    /// with at least a 4-byte length prefix, so the reservation is capped
    /// at what the bytes left could hold, whatever count the frame claims.
    fn counted<T>(&mut self) -> Result<(usize, Vec<T>), DecodeError> {
        let n = self.u32()? as usize;
        Ok((n, Vec::with_capacity(n.min(self.remaining() / 4))))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes()?)
            .map_err(|e| DecodeError::new(format!("invalid utf-8 string: {e}")))
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError::new(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let decoded = Request::decode(&req.encode()).expect("decodes");
        assert_eq!(decoded, req);
    }

    fn round_trip_response(resp: Response) {
        let decoded = Response::decode(&resp.encode()).expect("decodes");
        assert_eq!(decoded, resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Query {
            id: 77,
            priority: Priority::Low,
            optimize: true,
            text: "(restrict (scan r00) (< val 100))".into(),
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Relations);
        round_trip_request(Request::Ping);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::InstallView {
            id: 11,
            name: "hot".into(),
            text: "(join (scan r00) (scan r02) (= key key))".into(),
        });
        round_trip_request(Request::DropView {
            id: 12,
            name: "hot".into(),
        });
        round_trip_request(Request::ReadView {
            id: 13,
            name: "hot".into(),
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Result(QueryResult {
            id: 9,
            fan_out: 3,
            schema: "key:int val:int".into(),
            tuples: vec![vec![1, 2, 3], vec![], vec![255; 100]],
        }));
        round_trip_response(Response::Error {
            id: 1,
            error: ServeError::Busy { capacity: 32 },
        });
        round_trip_response(Response::Error {
            id: 2,
            error: ServeError::Parse {
                detail: "unbalanced parens".into(),
            },
        });
        round_trip_response(Response::Error {
            id: 3,
            error: ServeError::Host {
                kind: HostErrorKind::UnitPanicked,
                detail: "work unit of query 0, cell 1 (`join`) panicked: boom".into(),
            },
        });
        round_trip_response(Response::Error {
            id: 4,
            error: ServeError::Protocol {
                detail: "bad tag".into(),
            },
        });
        round_trip_response(Response::Error {
            id: 5,
            error: ServeError::ShuttingDown,
        });
        round_trip_response(Response::Error {
            id: 6,
            error: ServeError::View {
                detail: "view `hot` is not installed".into(),
            },
        });
        round_trip_response(Response::Error {
            id: 7,
            error: ServeError::ResultTooLarge {
                bytes: MAX_FRAME as u64 + 1,
                limit: MAX_FRAME as u64,
            },
        });
        round_trip_response(Response::Stats(vec![
            ("submitted".into(), 10),
            ("fused".into(), 4),
        ]));
        round_trip_response(Response::Relations(vec!["r00 (100 tuples)".into()]));
        round_trip_response(Response::Ok);
    }

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn one_encoder_writes_results_and_frames() {
        let tuples = vec![vec![1, 2, 3, 4], vec![0; 4], vec![9; 4]];
        let response = Response::Result(QueryResult {
            id: 5,
            fan_out: 2,
            schema: "k:int".into(),
            tuples: tuples.clone(),
        });
        let mut want = Vec::new();
        write_frame(&mut want, &response.encode()).unwrap();
        let images = tuples.iter().map(Vec::as_slice);
        let frame = result_frame(5, 2, "k:int", 3, 4, images).unwrap();
        assert_eq!(frame, want, "served frame = write_frame(encode)");
        assert_eq!(frame.capacity(), frame.len(), "sized once");
        assert_eq!(response_frame(&response), want);
        let mut stamped = frame.clone();
        set_result_id(&mut stamped, 6);
        match Response::decode(&stamped[4..]).unwrap() {
            Response::Result(r) => assert_eq!((r.id, r.tuples), (6, tuples)),
            other => panic!("{other:?}"),
        }
        let empty = result_frame(0, 1, "", 0, 0, []).unwrap();
        assert_eq!(Response::decode(&empty[4..]).unwrap().encode(), empty[4..]);
    }

    #[test]
    fn oversized_results_are_refused_before_any_image_is_read() {
        let untouched = std::iter::repeat_with(|| -> &[u8] { panic!("an image was read") });
        // One past the cap: 21 fixed bytes + the 7-byte schema + 4 per
        // image.
        let count = (MAX_FRAME - 21 - 7) / 4 + 1;
        match result_frame(1, 1, "key:int", count, 0, untouched) {
            Err(ServeError::ResultTooLarge { bytes, limit }) => {
                assert_eq!(bytes, MAX_FRAME as u64 + 4);
                assert_eq!(limit, MAX_FRAME as u64);
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        // A count no frame could hold saturates instead of wrapping.
        let untouched = std::iter::repeat_with(|| -> &[u8] { panic!("an image was read") });
        let refused = result_frame(1, 1, "key:int", usize::MAX, usize::MAX, untouched);
        assert!(matches!(refused, Err(ServeError::ResultTooLarge { .. })));
        // Exactly at the cap still encodes.
        let count = (MAX_FRAME - 21 - 7) / 4;
        let frame = result_frame(
            1,
            1,
            "key:int",
            count,
            0,
            std::iter::repeat(&[][..]).take(count),
        );
        assert_eq!(frame.unwrap().len(), 4 + MAX_FRAME);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut len = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        len.extend_from_slice(&[0; 16]);
        let mut r = &len[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn truncated_payloads_fail_cleanly() {
        let full = Request::Query {
            id: 1,
            priority: Priority::Normal,
            optimize: false,
            text: "(scan r00)".into(),
        }
        .encode();
        for cut in 0..full.len() {
            assert!(
                Request::decode(&full[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = full.clone();
        padded.push(0);
        assert!(Request::decode(&padded).is_err());
        // The view requests fail truncation just as cleanly.
        let install = Request::InstallView {
            id: 2,
            name: "v".into(),
            text: "(scan r00)".into(),
        }
        .encode();
        for cut in 0..install.len() {
            assert!(
                Request::decode(&install[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn host_error_kinds_map_the_taxonomy() {
        let e = HostError::UnitPanicked {
            query: 0,
            cell: 1,
            op: "join".into(),
            payload: "boom".into(),
        };
        let se = ServeError::host(&e);
        match &se {
            ServeError::Host { kind, detail } => {
                assert_eq!(*kind, HostErrorKind::UnitPanicked);
                assert!(detail.contains("boom"));
            }
            other => panic!("wrong variant {other:?}"),
        }
        assert!(HostErrorKind::from_wire(3).is_err(), "code 3 is retired");
        assert_eq!(
            HostErrorKind::from(&HostError::Stalled {
                in_flight: 1,
                waited: std::time::Duration::from_secs(1),
                detail: String::new(),
            }),
            HostErrorKind::Stalled
        );
    }

    #[test]
    fn priority_round_trips_from_str() {
        for p in Priority::ALL {
            let rendered = p.to_string();
            assert_eq!(rendered.parse::<Priority>().unwrap(), p);
        }
        assert!("urgent".parse::<Priority>().is_err());
        assert_eq!(Priority::default(), Priority::Normal);
    }
}
