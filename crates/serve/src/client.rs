//! [`ServeClient`]: the typed client side of the wire protocol.
//!
//! One client owns one Unix-domain socket connection to a router (or
//! directly to a shard — the protocol is identical). The sync
//! [`ServeClient::multiply`] round-trips one request;
//! [`ServeClient::multiply_batch`] pipelines a whole batch — every
//! request is written before the first response is read, so the
//! connection never idles on a round trip between consecutive
//! products.

use crate::wire::{
    decode_matrix, encode_matrix, multiply_payload_lens, read_frame, write_frame, ErrorCode, Frame,
    WireError, WireScalar, MAX_FRAME,
};
use fmm_matrix::DenseMatrix;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Why a serve request failed, client-side view.
#[derive(Debug)]
pub enum ServeError {
    /// Could not connect to the serving socket.
    Connect(io::Error),
    /// Transport or framing failure on an established connection.
    Wire(WireError),
    /// The remote reported a typed failure.
    Remote {
        /// Typed failure class from the wire.
        code: ErrorCode,
        /// Remote detail message.
        message: String,
    },
    /// The remote sent a frame that does not answer the request.
    Protocol(String),
    /// `A.cols != B.rows` — rejected before anything hits the wire.
    ShapeMismatch {
        /// Columns of A.
        a_cols: usize,
        /// Rows of B.
        b_rows: usize,
    },
    /// The request (both operands) or its response (the product) would
    /// exceed what one frame may carry ([`MAX_FRAME`]).
    TooLarge,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Connect(e) => write!(f, "connect: {e}"),
            ServeError::Wire(e) => write!(f, "wire: {e}"),
            ServeError::Remote { code, message } => write!(f, "remote [{code}]: {message}"),
            ServeError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ServeError::ShapeMismatch { a_cols, b_rows } => {
                write!(
                    f,
                    "inner dimension mismatch: A has {a_cols} cols, B has {b_rows} rows"
                )
            }
            ServeError::TooLarge => {
                write!(
                    f,
                    "operands or product exceed the {MAX_FRAME}-byte frame cap"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

/// Instantaneous liveness info from a [`Frame::HealthOk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthInfo {
    /// Multiplies currently inflight at the responder.
    pub queue_depth: u32,
    /// True once the responder is draining.
    pub draining: bool,
}

/// A connection to a serving socket (router or shard).
#[derive(Debug)]
pub struct ServeClient {
    stream: UnixStream,
    next_id: u64,
}

impl ServeClient {
    /// Connect with the default 30-second I/O timeout.
    pub fn connect(path: impl AsRef<Path>) -> Result<Self, ServeError> {
        Self::connect_with_timeout(path, Duration::from_secs(30))
    }

    /// Connect; `io_timeout` bounds every read and write, so a dead or
    /// wedged server surfaces as an error instead of a hang.
    pub fn connect_with_timeout(
        path: impl AsRef<Path>,
        io_timeout: Duration,
    ) -> Result<Self, ServeError> {
        let stream = UnixStream::connect(path.as_ref()).map_err(ServeError::Connect)?;
        stream
            .set_read_timeout(Some(io_timeout))
            .map_err(ServeError::Connect)?;
        stream
            .set_write_timeout(Some(io_timeout))
            .map_err(ServeError::Connect)?;
        Ok(ServeClient { stream, next_id: 1 })
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Read the response to request `id`. Responses on one connection
    /// arrive in request order; an unexpected id is a protocol error.
    fn read_response(&mut self, id: u64) -> Result<Frame, ServeError> {
        let frame = match read_frame(&mut self.stream)? {
            Some(f) => f,
            None => {
                return Err(ServeError::Wire(WireError::Truncated));
            }
        };
        if frame.id() != id {
            return Err(ServeError::Protocol(format!(
                "response id {} does not match request id {id}",
                frame.id()
            )));
        }
        Ok(frame)
    }

    fn request(&mut self, frame: &Frame) -> Result<Frame, ServeError> {
        write_frame(&mut self.stream, frame)?;
        self.read_response(frame.id())
    }

    /// Build (and validate) one multiply request frame.
    fn multiply_frame<T: WireScalar>(
        &mut self,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
    ) -> Result<Frame, ServeError> {
        let (m, ka) = a.shape();
        let (kb, n) = b.shape();
        if ka != kb {
            return Err(ServeError::ShapeMismatch {
                a_cols: ka,
                b_rows: kb,
            });
        }
        // One request carries both operands and one response the
        // product, each behind its header.
        let fits = [m, ka, n].iter().all(|&d| d <= u32::MAX as usize)
            && multiply_payload_lens(m, ka, n, T::DTYPE)
                .is_some_and(|(request, response)| request.max(response) <= MAX_FRAME);
        if !fits {
            return Err(ServeError::TooLarge);
        }
        Ok(Frame::MultiplyReq {
            id: self.fresh_id(),
            dtype: T::DTYPE,
            m: m as u32,
            k: ka as u32,
            n: n as u32,
            a: encode_matrix(a),
            b: encode_matrix(b),
        })
    }

    /// Turn a multiply response frame into the product matrix.
    fn multiply_result<T: WireScalar>(
        expected: (usize, usize),
        frame: Frame,
    ) -> Result<DenseMatrix<T>, ServeError> {
        match frame {
            Frame::MultiplyOk { dtype, m, n, c, .. } => {
                if dtype != T::DTYPE || (m as usize, n as usize) != expected {
                    return Err(ServeError::Protocol(format!(
                        "product shape/dtype {m}x{n}/{dtype:?} does not match request"
                    )));
                }
                Ok(decode_matrix::<T>(m as usize, n as usize, &c)?)
            }
            Frame::Error { code, message, .. } => Err(ServeError::Remote { code, message }),
            other => Err(ServeError::Protocol(format!(
                "expected a multiply response, got frame kind {other:?}"
            ))),
        }
    }

    /// `C = A · B`, served remotely. Blocks for one round trip.
    pub fn multiply<T: WireScalar>(
        &mut self,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
    ) -> Result<DenseMatrix<T>, ServeError> {
        let frame = self.multiply_frame(a, b)?;
        let expected = (a.rows(), b.cols());
        let resp = self.request(&frame)?;
        Self::multiply_result(expected, resp)
    }

    /// Pipelined batch: write every request, then read every response.
    /// Per-product failures (e.g. one `Busy`) come back as per-slot
    /// `Err`; a transport failure aborts the whole batch since the
    /// stream can no longer be trusted to be aligned.
    #[allow(clippy::type_complexity)]
    pub fn multiply_batch<T: WireScalar>(
        &mut self,
        batch: &[(DenseMatrix<T>, DenseMatrix<T>)],
    ) -> Result<Vec<Result<DenseMatrix<T>, ServeError>>, ServeError> {
        let mut ids = Vec::with_capacity(batch.len());
        for (a, b) in batch {
            let frame = self.multiply_frame(a, b)?;
            ids.push((frame.id(), (a.rows(), b.cols())));
            write_frame(&mut self.stream, &frame)?;
        }
        let mut out = Vec::with_capacity(batch.len());
        for (id, expected) in ids {
            let resp = self.read_response(id)?;
            out.push(Self::multiply_result(expected, resp));
        }
        Ok(out)
    }

    /// Statistics snapshot: a shard answers with its
    /// `ShardStatsReport` JSON, a router with its aggregated
    /// `FleetStats` JSON.
    pub fn stats_json(&mut self) -> Result<String, ServeError> {
        let id = self.fresh_id();
        match self.request(&Frame::StatsReq { id })? {
            Frame::StatsOk { json, .. } => Ok(json),
            Frame::Error { code, message, .. } => Err(ServeError::Remote { code, message }),
            other => Err(ServeError::Protocol(format!(
                "expected StatsOk, got {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    pub fn health(&mut self) -> Result<HealthInfo, ServeError> {
        let id = self.fresh_id();
        match self.request(&Frame::HealthReq { id })? {
            Frame::HealthOk {
                queue_depth,
                draining,
                ..
            } => Ok(HealthInfo {
                queue_depth,
                draining,
            }),
            Frame::Error { code, message, .. } => Err(ServeError::Remote { code, message }),
            other => Err(ServeError::Protocol(format!(
                "expected HealthOk, got {other:?}"
            ))),
        }
    }

    /// Ask the server to drain: finish inflight work, refuse new work,
    /// and (for a shard) exit. Returns once the drain is acknowledged.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        let id = self.fresh_id();
        match self.request(&Frame::DrainReq { id })? {
            Frame::DrainOk { .. } => Ok(()),
            Frame::Error { code, message, .. } => Err(ServeError::Remote { code, message }),
            other => Err(ServeError::Protocol(format!(
                "expected DrainOk, got {other:?}"
            ))),
        }
    }
}
