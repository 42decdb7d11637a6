//! The fmm-serve wire protocol: length-prefixed binary frames over a
//! byte stream (Unix-domain sockets in practice, anything `Read +
//! Write` in tests).
//!
//! Layout of one frame, all integers little-endian:
//!
//! ```text
//! u32 payload_len | payload
//! payload := u8 version (=1) | u8 kind | u64 request_id | body
//! ```
//!
//! The body depends on the kind (see [`Frame`]); matrix operands
//! travel as row-major scalar runs in their IEEE-754 little-endian
//! byte form, tagged with a [`WireDtype`] (0 for f64, 1 for f32; no
//! other tag is valid). Decoding is total: any malformed input —
//! truncated frame, oversized length prefix, unknown
//! version/kind/dtype, body length that disagrees with the declared
//! shape — yields a typed [`WireError`], never a panic and (because
//! every read goes through a socket timeout) never a hang.

use fmm_gemm::GemmScalar;
use fmm_matrix::DenseMatrix;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Protocol version emitted and accepted by this build.
pub const WIRE_VERSION: u8 = 1;

/// Hard cap on one frame's payload, bytes. A length prefix beyond this
/// is rejected *before* any buffer is allocated, so a corrupt or
/// hostile prefix cannot OOM a shard.
pub const MAX_FRAME: usize = 1 << 28; // 256 MiB

/// Fixed header bytes in every payload: version, kind, request id.
const HEADER: usize = 1 + 1 + 8;

/// How long a peer may go without sending a byte once a frame has
/// started. Routers and shards read with their 50 ms poll tick as the
/// socket timeout; a sender descheduled for longer than one tick
/// mid-frame is waited for, so that only a wedged peer truncates a
/// frame (30 s, the client's default I/O timeout).
const FRAME_STALL: Duration = Duration::from_secs(30);

/// Payload bytes ahead of the operands of a multiply request: header,
/// dtype, `m`, `k`, `n`.
const MULTIPLY_REQ_HEADER: usize = HEADER + 1 + 3 * 4;

/// Payload bytes ahead of the product of a multiply response: header,
/// dtype, `m`, `n`.
const MULTIPLY_OK_HEADER: usize = HEADER + 1 + 2 * 4;

/// Element type of a matrix travelling on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireDtype {
    /// IEEE-754 binary64.
    F64,
    /// IEEE-754 binary32.
    F32,
}

impl WireDtype {
    /// Wire tag byte.
    pub fn tag(self) -> u8 {
        match self {
            WireDtype::F64 => 0,
            WireDtype::F32 => 1,
        }
    }

    /// Parse a wire tag byte.
    pub fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(WireDtype::F64),
            1 => Ok(WireDtype::F32),
            other => Err(WireError::BadDtype(other)),
        }
    }

    /// Bytes per scalar element.
    pub fn element_size(self) -> usize {
        match self {
            WireDtype::F64 => 8,
            WireDtype::F32 => 4,
        }
    }

    /// Lowercase dtype label, matching `Scalar::NAME` — used as the
    /// dtype half of histogram-row labels.
    pub fn name(self) -> &'static str {
        match self {
            WireDtype::F64 => "f64",
            WireDtype::F32 => "f32",
        }
    }
}

/// Scalars that can travel on the wire: a dtype tag plus lossless
/// little-endian byte conversion. Implemented for every dtype the
/// shard engines host.
pub trait WireScalar: GemmScalar {
    /// The wire tag for this element type.
    const DTYPE: WireDtype;
    /// Append `self` in little-endian byte order.
    fn put_le(self, out: &mut Vec<u8>);
    /// Read one scalar from exactly `size_of::<Self>()` bytes.
    fn get_le(bytes: &[u8]) -> Self;
}

impl WireScalar for f64 {
    const DTYPE: WireDtype = WireDtype::F64;
    fn put_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get_le(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes.try_into().expect("8-byte f64 run"))
    }
}

impl WireScalar for f32 {
    const DTYPE: WireDtype = WireDtype::F32;
    fn put_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get_le(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes.try_into().expect("4-byte f32 run"))
    }
}

/// Typed error codes a shard or router reports in an [`Frame::Error`]
/// response. The numeric tag is the wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control: the shard's inflight bound is full. Back off
    /// and retry (the router does this for you, onto a sibling shard).
    Busy,
    /// Operand shapes are inconsistent (`A.cols != B.rows`).
    Shape,
    /// Planning failed for this shape/configuration.
    Plan,
    /// The request frame could not be decoded.
    Malformed,
    /// The serving process hit an internal error.
    Internal,
    /// The shard is draining and admits no new work.
    Draining,
    /// Router: every retry was exhausted; no shard could serve.
    Unavailable,
}

impl ErrorCode {
    /// Wire tag byte.
    pub fn tag(self) -> u8 {
        match self {
            ErrorCode::Busy => 1,
            ErrorCode::Shape => 2,
            ErrorCode::Plan => 3,
            ErrorCode::Malformed => 5,
            ErrorCode::Internal => 6,
            ErrorCode::Draining => 7,
            ErrorCode::Unavailable => 8,
        }
    }

    /// Parse a wire tag byte.
    pub fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            1 => ErrorCode::Busy,
            2 => ErrorCode::Shape,
            3 => ErrorCode::Plan,
            5 => ErrorCode::Malformed,
            6 => ErrorCode::Internal,
            7 => ErrorCode::Draining,
            8 => ErrorCode::Unavailable,
            other => return Err(WireError::BadErrorCode(other)),
        })
    }

    /// Should a router try this request again on a sibling shard?
    /// Load/lifecycle conditions are retryable; deterministic request
    /// errors (shape, plan, malformed) would fail anywhere.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Busy | ErrorCode::Draining | ErrorCode::Unavailable
        )
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Busy => "busy",
            ErrorCode::Shape => "shape",
            ErrorCode::Plan => "plan",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Internal => "internal",
            ErrorCode::Draining => "draining",
            ErrorCode::Unavailable => "unavailable",
        };
        f.write_str(name)
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// The stream ended mid-frame (or mid-length-prefix).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Unknown dtype tag.
    BadDtype(u8),
    /// Unknown error-code tag.
    BadErrorCode(u8),
    /// The body length disagrees with the declared shape/lengths.
    BadLength {
        /// Bytes the declared shape requires.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// A declared dimension product overflows addressable memory.
    ShapeOverflow,
    /// An embedded string was not UTF-8.
    BadUtf8,
    /// No frame arrived within the socket's read timeout. On a shard's
    /// idle connection this is a poll tick, not a failure.
    IdleTimeout,
    /// Underlying transport error.
    Io(io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Oversized(len) => {
                write!(f, "length prefix {len} exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadDtype(d) => write!(f, "unknown dtype tag {d}"),
            WireError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
            WireError::BadLength { expected, got } => {
                write!(f, "body length {got} disagrees with declared {expected}")
            }
            WireError::ShapeOverflow => write!(f, "declared shape overflows memory"),
            WireError::BadUtf8 => write!(f, "embedded string is not UTF-8"),
            WireError::IdleTimeout => write!(f, "no frame within the read timeout"),
            WireError::Io(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One protocol message. Matrix payloads stay as raw little-endian
/// bytes here (`a`, `b`, `c`) so the frame type is dtype-agnostic;
/// [`encode_matrix`]/[`decode_matrix`] convert at the boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → shard: compute `C = A · B`.
    MultiplyReq {
        /// Request id, echoed in the response.
        id: u64,
        /// Element type of both operand payloads.
        dtype: WireDtype,
        /// Rows of A (and C).
        m: u32,
        /// Cols of A == rows of B.
        k: u32,
        /// Cols of B (and C).
        n: u32,
        /// A, row-major, `m·k` scalars.
        a: Vec<u8>,
        /// B, row-major, `k·n` scalars.
        b: Vec<u8>,
    },
    /// Shard → client: the product.
    MultiplyOk {
        /// Echoed request id.
        id: u64,
        /// Element type of the product payload.
        dtype: WireDtype,
        /// Rows of C.
        m: u32,
        /// Cols of C.
        n: u32,
        /// C, row-major, `m·n` scalars.
        c: Vec<u8>,
    },
    /// Any → any: the request identified by `id` failed.
    Error {
        /// Echoed request id (0 when no request could be attributed).
        id: u64,
        /// Typed failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Client/router → shard: report statistics.
    StatsReq {
        /// Request id.
        id: u64,
    },
    /// Shard → client/router: statistics snapshot as JSON
    /// (see `fmm_serve::stats::ShardStatsReport`).
    StatsOk {
        /// Echoed request id.
        id: u64,
        /// JSON text.
        json: String,
    },
    /// Router → shard: liveness probe.
    HealthReq {
        /// Request id.
        id: u64,
    },
    /// Shard → router: alive, with instantaneous load.
    HealthOk {
        /// Echoed request id.
        id: u64,
        /// Multiplies currently inflight.
        queue_depth: u32,
        /// True once a drain has been requested.
        draining: bool,
    },
    /// Router → shard: stop admitting work, finish inflight, exit.
    DrainReq {
        /// Request id.
        id: u64,
    },
    /// Shard → router: drained; the process will now exit.
    DrainOk {
        /// Echoed request id.
        id: u64,
    },
}

impl Frame {
    /// Kind tag byte.
    fn kind(&self) -> u8 {
        match self {
            Frame::MultiplyReq { .. } => 1,
            Frame::MultiplyOk { .. } => 2,
            Frame::Error { .. } => 3,
            Frame::StatsReq { .. } => 4,
            Frame::StatsOk { .. } => 5,
            Frame::HealthReq { .. } => 6,
            Frame::HealthOk { .. } => 7,
            Frame::DrainReq { .. } => 8,
            Frame::DrainOk { .. } => 9,
        }
    }

    /// Request id carried by any frame.
    pub fn id(&self) -> u64 {
        match self {
            Frame::MultiplyReq { id, .. }
            | Frame::MultiplyOk { id, .. }
            | Frame::Error { id, .. }
            | Frame::StatsReq { id }
            | Frame::StatsOk { id, .. }
            | Frame::HealthReq { id }
            | Frame::HealthOk { id, .. }
            | Frame::DrainReq { id }
            | Frame::DrainOk { id } => *id,
        }
    }

    /// Serialize to a payload (header + body, *without* the length
    /// prefix — [`write_frame`] adds it).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER + 16);
        out.push(WIRE_VERSION);
        out.push(self.kind());
        out.extend_from_slice(&self.id().to_le_bytes());
        match self {
            Frame::MultiplyReq {
                dtype,
                m,
                k,
                n,
                a,
                b,
                ..
            } => {
                out.push(dtype.tag());
                out.extend_from_slice(&m.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&n.to_le_bytes());
                out.extend_from_slice(a);
                out.extend_from_slice(b);
            }
            Frame::MultiplyOk { dtype, m, n, c, .. } => {
                out.push(dtype.tag());
                out.extend_from_slice(&m.to_le_bytes());
                out.extend_from_slice(&n.to_le_bytes());
                out.extend_from_slice(c);
            }
            Frame::Error { code, message, .. } => {
                out.push(code.tag());
                out.extend_from_slice(&(message.len() as u32).to_le_bytes());
                out.extend_from_slice(message.as_bytes());
            }
            Frame::StatsOk { json, .. } => {
                out.extend_from_slice(&(json.len() as u32).to_le_bytes());
                out.extend_from_slice(json.as_bytes());
            }
            Frame::HealthOk {
                queue_depth,
                draining,
                ..
            } => {
                out.extend_from_slice(&queue_depth.to_le_bytes());
                out.push(u8::from(*draining));
            }
            Frame::StatsReq { .. }
            | Frame::HealthReq { .. }
            | Frame::DrainReq { .. }
            | Frame::DrainOk { .. } => {}
        }
        out
    }

    /// Decode a payload previously produced by [`Frame::encode`].
    /// Total: every malformed input maps to a [`WireError`].
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader { buf: payload };
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = r.u8()?;
        let id = r.u64()?;
        let frame = match kind {
            1 => {
                let dtype = WireDtype::from_tag(r.u8()?)?;
                let m = r.u32()?;
                let k = r.u32()?;
                let n = r.u32()?;
                let a_bytes = checked_bytes(m, k, dtype)?;
                let b_bytes = checked_bytes(k, n, dtype)?;
                r.expect_remaining(a_bytes + b_bytes)?;
                let a = r.take(a_bytes)?.to_vec();
                let b = r.take(b_bytes)?.to_vec();
                Frame::MultiplyReq {
                    id,
                    dtype,
                    m,
                    k,
                    n,
                    a,
                    b,
                }
            }
            2 => {
                let dtype = WireDtype::from_tag(r.u8()?)?;
                let m = r.u32()?;
                let n = r.u32()?;
                let c_bytes = checked_bytes(m, n, dtype)?;
                r.expect_remaining(c_bytes)?;
                let c = r.take(c_bytes)?.to_vec();
                Frame::MultiplyOk { id, dtype, m, n, c }
            }
            3 => {
                let code = ErrorCode::from_tag(r.u8()?)?;
                let len = r.u32()? as usize;
                r.expect_remaining(len)?;
                let message =
                    String::from_utf8(r.take(len)?.to_vec()).map_err(|_| WireError::BadUtf8)?;
                Frame::Error { id, code, message }
            }
            4 => {
                r.expect_remaining(0)?;
                Frame::StatsReq { id }
            }
            5 => {
                let len = r.u32()? as usize;
                r.expect_remaining(len)?;
                let json =
                    String::from_utf8(r.take(len)?.to_vec()).map_err(|_| WireError::BadUtf8)?;
                Frame::StatsOk { id, json }
            }
            6 => {
                r.expect_remaining(0)?;
                Frame::HealthReq { id }
            }
            7 => {
                let queue_depth = r.u32()?;
                let draining = r.u8()? != 0;
                r.expect_remaining(0)?;
                Frame::HealthOk {
                    id,
                    queue_depth,
                    draining,
                }
            }
            8 => {
                r.expect_remaining(0)?;
                Frame::DrainReq { id }
            }
            9 => {
                r.expect_remaining(0)?;
                Frame::DrainOk { id }
            }
            other => return Err(WireError::BadKind(other)),
        };
        Ok(frame)
    }
}

/// Payload lengths in bytes of the multiply request for an `m × k × n`
/// product of `dtype` (both operands behind their header) and of its
/// response (the product behind its header). A product can be served
/// only when both are at most [`MAX_FRAME`]. `None` when a length does
/// not fit in `usize`.
pub fn multiply_payload_lens(
    m: usize,
    k: usize,
    n: usize,
    dtype: WireDtype,
) -> Option<(usize, usize)> {
    let elem = dtype.element_size();
    let bytes = |rows: usize, cols: usize| rows.checked_mul(cols)?.checked_mul(elem);
    let request = bytes(m, k)?
        .checked_add(bytes(k, n)?)?
        .checked_add(MULTIPLY_REQ_HEADER)?;
    let response = bytes(m, n)?.checked_add(MULTIPLY_OK_HEADER)?;
    Some((request, response))
}

/// Byte count of an `rows × cols` matrix of `dtype`, rejecting
/// products that overflow or exceed the frame cap.
fn checked_bytes(rows: u32, cols: u32, dtype: WireDtype) -> Result<usize, WireError> {
    let elem = dtype.element_size();
    let elems = (rows as u64)
        .checked_mul(cols as u64)
        .ok_or(WireError::ShapeOverflow)?;
    let bytes = elems
        .checked_mul(elem as u64)
        .ok_or(WireError::ShapeOverflow)?;
    if bytes > MAX_FRAME as u64 {
        return Err(WireError::Oversized(bytes as usize));
    }
    Ok(bytes as usize)
}

/// Cursor over a payload with totalizing accessors.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::BadLength {
                expected: n,
                got: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The body must hold exactly `n` more bytes — trailing garbage is
    /// as malformed as a short body.
    fn expect_remaining(&self, n: usize) -> Result<(), WireError> {
        if self.buf.len() != n {
            return Err(WireError::BadLength {
                expected: n,
                got: self.buf.len(),
            });
        }
        Ok(())
    }
}

/// Write one frame (length prefix + payload) to the stream.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    let payload = frame.encode();
    debug_assert!(payload.len() <= MAX_FRAME, "encoder respects MAX_FRAME");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame from the stream.
///
/// * `Ok(None)` — the peer closed the connection cleanly at a frame
///   boundary.
/// * `Err(IdleTimeout)` — the socket's read timeout elapsed with *no*
///   bytes of a new frame seen; the connection is still healthy (a
///   shard uses this as its drain-poll tick).
/// * `Err(Truncated)` — the peer closed mid-frame, or sent nothing
///   for 30 s once the frame had started (socket timeouts in between
///   are waited through).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, WireError> {
    // First byte separately: distinguishes clean close / idle timeout
    // from a mid-frame truncation.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(WireError::IdleTimeout)
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let mut rest = [0u8; 3];
    read_exactly(r, &mut rest)?;
    let len = u32::from_le_bytes([first[0], rest[0], rest[1], rest[2]]) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    read_exactly(r, &mut payload)?;
    Frame::decode(&payload).map(Some)
}

/// `read_exact` that folds EOF into [`WireError::Truncated`] and reads
/// through socket timeouts until the peer has sent nothing for
/// [`FRAME_STALL`], which is a truncation too: once a frame has
/// started, a poll-tick timeout only means the sender is slow.
fn read_exactly<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), WireError> {
    let mut filled = 0;
    let mut last_byte = Instant::now();
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => {
                filled += n;
                last_byte = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_byte.elapsed() >= FRAME_STALL {
                    return Err(WireError::Truncated);
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Serialize a matrix into its row-major little-endian wire form.
pub fn encode_matrix<T: WireScalar>(m: &DenseMatrix<T>) -> Vec<u8> {
    let mut out = Vec::with_capacity(std::mem::size_of_val(m.as_slice()));
    for &x in m.as_slice() {
        x.put_le(&mut out);
    }
    out
}

/// Reassemble a matrix from its wire form. The byte length must match
/// the shape exactly (frame decoding already guarantees this for
/// frames it produced).
pub fn decode_matrix<T: WireScalar>(
    rows: usize,
    cols: usize,
    bytes: &[u8],
) -> Result<DenseMatrix<T>, WireError> {
    let size = std::mem::size_of::<T>();
    let expected = rows
        .checked_mul(cols)
        .and_then(|e| e.checked_mul(size))
        .ok_or(WireError::ShapeOverflow)?;
    if bytes.len() != expected {
        return Err(WireError::BadLength {
            expected,
            got: bytes.len(),
        });
    }
    let data: Vec<T> = bytes.chunks_exact(size).map(T::get_le).collect();
    Ok(DenseMatrix::from_vec(rows, cols, data))
}

/// Deterministic 64-bit FNV-1a over the request shape — the router's
/// shard-placement hash. Spelled out (rather than `DefaultHasher`) so
/// placement is stable across processes, builds, and std versions:
/// every request of one shape lands on the same shard, which is what
/// keeps that shard's plan cache and workspace pool hot.
pub fn shape_hash(m: usize, k: usize, n: usize, dtype: WireDtype) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [m as u64, k as u64, n as u64, dtype.tag() as u64] {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // FNV-1a's lowest bit is the parity of the input bytes' lowest
    // bits, so `hash % 2^k` placement would depend only on dimension
    // parity (an all-even-dims workload would pile onto one shard of
    // two). A splitmix64-style finalizer avalanches the low bits.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let payload = frame.encode();
        let back = Frame::decode(&payload).expect("decode");
        assert_eq!(frame, back);
    }

    #[test]
    fn every_kind_roundtrips() {
        roundtrip(Frame::MultiplyReq {
            id: 7,
            dtype: WireDtype::F64,
            m: 2,
            k: 3,
            n: 1,
            a: vec![0u8; 2 * 3 * 8],
            b: vec![1u8; 3 * 8],
        });
        roundtrip(Frame::MultiplyOk {
            id: 7,
            dtype: WireDtype::F32,
            m: 2,
            n: 2,
            c: vec![9u8; 16],
        });
        roundtrip(Frame::Error {
            id: 3,
            code: ErrorCode::Busy,
            message: "inflight bound reached".into(),
        });
        roundtrip(Frame::StatsReq { id: 1 });
        roundtrip(Frame::StatsOk {
            id: 1,
            json: "{\"ok\":true}".into(),
        });
        roundtrip(Frame::HealthReq { id: 2 });
        roundtrip(Frame::HealthOk {
            id: 2,
            queue_depth: 5,
            draining: true,
        });
        roundtrip(Frame::DrainReq { id: 4 });
        roundtrip(Frame::DrainOk { id: 4 });
    }

    #[test]
    fn matrix_encoding_roundtrips_bitwise() {
        let m = DenseMatrix::<f64>::from_fn(3, 5, |i, j| (i * 5 + j) as f64 * 0.1 - 0.7);
        let bytes = encode_matrix(&m);
        let back = decode_matrix::<f64>(3, 5, &bytes).unwrap();
        assert_eq!(m, back);
        let s = DenseMatrix::<f32>::from_fn(4, 2, |i, j| (i as f32) - (j as f32) * 1.5);
        let back32 = decode_matrix::<f32>(4, 2, &encode_matrix(&s)).unwrap();
        assert_eq!(s, back32);
    }

    #[test]
    fn malformed_inputs_yield_typed_errors() {
        assert!(matches!(
            Frame::decode(&[]),
            Err(WireError::BadLength { .. })
        ));
        assert!(matches!(
            Frame::decode(&[99, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(WireError::BadVersion(99))
        ));
        assert!(matches!(
            Frame::decode(&[WIRE_VERSION, 42, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(WireError::BadKind(42))
        ));
        // A MultiplyReq whose body is shorter than its declared shape.
        let mut payload = Frame::MultiplyReq {
            id: 1,
            dtype: WireDtype::F64,
            m: 2,
            k: 2,
            n: 2,
            a: vec![0; 32],
            b: vec![0; 32],
        }
        .encode();
        payload.truncate(payload.len() - 5);
        assert!(matches!(
            Frame::decode(&payload),
            Err(WireError::BadLength { .. })
        ));
        // Trailing garbage is malformed too.
        let mut long = Frame::DrainOk { id: 1 }.encode();
        long.push(0);
        assert!(matches!(
            Frame::decode(&long),
            Err(WireError::BadLength { .. })
        ));
        // Only tags 0 (f64) and 1 (f32) are dtypes, and 1..=3 and 5..=8
        // error codes. The tag byte sits right after the 10-byte header.
        let request = Frame::MultiplyReq {
            id: 5,
            dtype: WireDtype::F64,
            m: 2,
            k: 2,
            n: 2,
            a: vec![0; 32],
            b: vec![0; 32],
        }
        .encode();
        for tag in [2, 3] {
            assert!(matches!(WireDtype::from_tag(tag), Err(WireError::BadDtype(t)) if t == tag));
            let mut payload = request.clone();
            payload[HEADER] = tag;
            assert!(matches!(
                Frame::decode(&payload),
                Err(WireError::BadDtype(t)) if t == tag
            ));
        }
        let mut payload = Frame::Error {
            id: 5,
            code: ErrorCode::Plan,
            message: "no plan".into(),
        }
        .encode();
        payload[HEADER] = 4;
        assert!(matches!(
            Frame::decode(&payload),
            Err(WireError::BadErrorCode(4))
        ));
    }

    #[test]
    fn multiply_payload_lens_count_the_headers() {
        // Two 128 MiB operands each fit under the cap, but one request
        // carries both plus its header.
        let (request, response) = multiply_payload_lens(4096, 4096, 4096, WireDtype::F64).unwrap();
        assert_eq!(request, MAX_FRAME + MULTIPLY_REQ_HEADER);
        assert_eq!(response, MAX_FRAME / 2 + MULTIPLY_OK_HEADER);
        // The lengths are what the encoder emits.
        let req = Frame::MultiplyReq {
            id: 1,
            dtype: WireDtype::F32,
            m: 3,
            k: 4,
            n: 5,
            a: vec![0; 3 * 4 * 4],
            b: vec![0; 4 * 5 * 4],
        };
        let ok = Frame::MultiplyOk {
            id: 1,
            dtype: WireDtype::F32,
            m: 3,
            n: 5,
            c: vec![0; 3 * 5 * 4],
        };
        let encoded = (req.encode().len(), ok.encode().len());
        assert_eq!(
            multiply_payload_lens(3, 4, 5, WireDtype::F32),
            Some(encoded)
        );
        // Lengths past usize have none.
        let overflow = multiply_payload_lens(usize::MAX, 2, 1, WireDtype::F64);
        assert_eq!(overflow, None);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf: &[u8] = &[0xff, 0xff, 0xff, 0xff, 1, 2, 3];
        match read_frame(&mut buf) {
            Err(WireError::Oversized(len)) => assert_eq!(len, 0xffff_ffff),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_stream_is_truncated_not_a_hang() {
        // A valid prefix announcing 100 bytes, but only 3 arrive.
        let mut data = (100u32).to_le_bytes().to_vec();
        data.extend_from_slice(&[1, 2, 3]);
        let mut cursor: &[u8] = &data;
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Truncated)));
    }

    #[test]
    fn clean_close_reads_as_none() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
    }

    #[test]
    fn shape_hash_is_deterministic_and_spreads() {
        let h1 = shape_hash(64, 64, 64, WireDtype::F64);
        assert_eq!(h1, shape_hash(64, 64, 64, WireDtype::F64));
        assert_ne!(h1, shape_hash(64, 64, 64, WireDtype::F32));
        assert_ne!(h1, shape_hash(64, 64, 65, WireDtype::F64));
        // Transposed shapes must not collide (hash covers position).
        assert_ne!(
            shape_hash(32, 64, 16, WireDtype::F64),
            shape_hash(16, 64, 32, WireDtype::F64)
        );
        // Placement onto a power-of-two fleet must not collapse onto
        // dimension parity: all-even-dims shapes cover both slots.
        let slots: std::collections::BTreeSet<u64> = (1..=16)
            .map(|i| shape_hash(2 * i, 48, 64, WireDtype::F64) % 2)
            .collect();
        assert_eq!(slots.len(), 2, "even-dims shapes piled onto one shard");
    }
}
