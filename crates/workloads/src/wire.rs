//! The `rayflex-server` wire protocol: a small length-prefixed binary framing for trace /
//! any-hit / kNN / radius requests against named preloaded scenes, shared by the server's
//! ingress, its clients (the tests and the `perfbench` load generator) and the protocol
//! proptests.
//!
//! # Frame layout
//!
//! Every frame on the wire is a 4-byte little-endian payload length followed by the payload.
//! Payloads open with a fixed header — magic `0x5246` (`"RF"` little-endian), protocol version,
//! one opcode byte — then opcode-specific fields, all little-endian, all `f32` values as their
//! IEEE-754 bit patterns (the protocol is **bit-exact**: a value decodes to the identical bits
//! that were encoded, which is what lets the server's responses be compared byte-for-byte
//! against direct library calls):
//!
//! ```text
//! request  := magic:u16 version:u8 opcode:u8 request_id:u64 tenant:u32 deadline_us:u64
//!             scene_len:u16 scene:utf8[..]  body
//!   trace/any-hit body := ray_count:u32 { origin:f32x3 dir:f32x3 t_beg:f32 t_end:f32 }*
//!   knn body           := k:u32 dim:u32 query:f32[dim]
//!   radius body        := center:f32x3 radius:f32
//!   shutdown body      := (empty; scene is ignored)
//! response := magic:u16 version:u8 opcode:u8 request_id:u64  body
//!   hits body          := count:u32 { tag:u8 (0 = miss | 1 = hit primitive:u64 t:f32) }*
//!   partial-hits body  := total:u32 count:u32 { hit as above }*   (count ≤ total)
//!   neighbors body     := count:u32 { index:u64 distance:f32 }*
//!   error body         := code:u8 reason_len:u16 reason:utf8[..]
//!   shutdown-ack body  := (empty)
//! ```
//!
//! Decoding is total: every read is bounds-checked, counts are sanity-checked against the bytes
//! actually present, strings must be UTF-8, trailing bytes are rejected, and a declared length
//! above [`MAX_FRAME_BYTES`] is refused before any allocation — arbitrary bytes (including the
//! bit-flipped frames of the chaos harness) decode to a structured [`WireError`], never a panic
//! and never an attempt to trust a lying header.

use std::io::{Read, Write};
use std::net::TcpStream;

use rayflex_geometry::Ray;

/// Frame magic: `"RF"` as a little-endian `u16`.
pub const MAGIC: u16 = 0x5246;
/// Protocol version this module speaks.
pub const VERSION: u8 = 1;
/// Upper bound on a frame payload; larger declared lengths are refused before allocating.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

/// Error codes carried by [`ResponseBody::Error`].
pub mod code {
    /// The request itself was malformed (non-finite ray, zero direction, bad dimension, …).
    pub const INVALID_REQUEST: u8 = 1;
    /// The named scene failed validation at admission (should not happen for preloaded scenes).
    pub const INVALID_SCENE: u8 = 2;
    /// The cooperative beat deadline fired and no partial answer was salvageable.
    pub const DEADLINE_EXCEEDED: u8 = 3;
    /// The beat budget ran out before a single item retired.
    pub const BUDGET_EXHAUSTED: u8 = 4;
    /// A worker shard died and its retry died too.
    pub const SHARD_PANICKED: u8 = 5;
    /// The request named a scene / dataset / cloud the server has not preloaded.
    pub const UNKNOWN_SCENE: u8 = 6;
    /// The request kind is not servable against the named target (e.g. kNN against a triangle
    /// scene).
    pub const UNSUPPORTED: u8 = 7;
    /// The server is draining and admits no new work.
    pub const SHUTTING_DOWN: u8 = 8;
    /// The batch executor failed in an unforeseen way; the connection survives.
    pub const INTERNAL: u8 = 9;
}

/// A decoding / transport failure.  Every malformed input lands here — the protocol layer never
/// panics on wire bytes.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes clean EOF mid-frame).
    Io(std::io::Error),
    /// The payload failed structural validation.
    Malformed {
        /// What was wrong, for the structured error response.
        reason: String,
    },
    /// The length prefix declared more than [`MAX_FRAME_BYTES`].
    Oversized {
        /// The declared payload length.
        declared: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(err) => write!(f, "transport failed: {err}"),
            WireError::Malformed { reason } => write!(f, "malformed frame: {reason}"),
            WireError::Oversized { declared } => {
                write!(
                    f,
                    "frame declares {declared} bytes (limit {MAX_FRAME_BYTES})"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(err: std::io::Error) -> Self {
        WireError::Io(err)
    }
}

fn malformed(reason: impl Into<String>) -> WireError {
    WireError::Malformed {
        reason: reason.into(),
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub request_id: u64,
    /// Tenant id for per-tenant QoS accounting.
    pub tenant: u32,
    /// Soft deadline in microseconds from arrival (`0` = none); drives earliest-deadline-first
    /// admission and the batch flush timer.
    pub deadline_us: u64,
    /// Name of the preloaded scene / dataset / point cloud the request runs against.
    pub scene: String,
    /// The query itself.
    pub body: RequestBody,
}

/// The query kinds the server understands.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Closest-hit traversal of a ray batch.
    Trace {
        /// The rays to trace.
        rays: Vec<Ray>,
    },
    /// Any-hit (occlusion) traversal of a ray batch.
    AnyHit {
        /// The rays to test.
        rays: Vec<Ray>,
    },
    /// k-nearest-neighbour search of one query vector against a named dataset.
    Knn {
        /// How many neighbours to return.
        k: u32,
        /// The query vector (dimension must match the dataset's).
        query: Vec<f32>,
    },
    /// Radius query of one centre against a named point cloud.
    Radius {
        /// Query centre.
        center: [f32; 3],
        /// Query radius.
        radius: f32,
    },
    /// Ask the server to drain and exit cleanly (the SIGTERM equivalent of the protocol).
    Shutdown,
}

/// One hit on the wire (mirrors `rayflex_rtunit::TraversalHit` with a fixed-width index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireHit {
    /// Index of the hit primitive.
    pub primitive: u64,
    /// Parametric hit distance.
    pub t: f32,
}

/// One neighbour on the wire (mirrors `rayflex_rtunit::Neighbor` with a fixed-width index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireNeighbor {
    /// Index of the neighbour in the dataset.
    pub index: u64,
    /// Distance to the query.
    pub distance: f32,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The request's correlation id, echoed verbatim.
    pub request_id: u64,
    /// The answer.
    pub body: ResponseBody,
}

/// The response kinds the server produces.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Complete per-ray hits (trace and any-hit requests), in request ray order.
    Hits {
        /// One optional hit per requested ray.
        hits: Vec<Option<WireHit>>,
    },
    /// A deadline fired mid-run: the completed prefix of the per-ray hits.
    PartialHits {
        /// How many rays the request carried in total.
        total: u32,
        /// The completed prefix (shorter than `total`).
        hits: Vec<Option<WireHit>>,
    },
    /// Neighbour lists (kNN and radius requests), nearest first.
    Neighbors {
        /// The neighbours found.
        neighbors: Vec<WireNeighbor>,
    },
    /// A structured failure; the connection stays up.
    Error {
        /// One of the [`code`] constants.
        code: u8,
        /// Human-readable detail.
        reason: String,
    },
    /// Acknowledges a [`RequestBody::Shutdown`]; the server drains and exits after sending it.
    ShutdownAck,
}

// --- Byte-level reader / writer ----------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn short_str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let len = bytes.len().min(u16::MAX as usize);
        self.u16(len as u16);
        self.buf.extend_from_slice(&bytes[..len]);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(malformed(format!(
                "{what}: needs {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }
    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }
    fn f32(&mut self, what: &str) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32(what)?))
    }
    fn short_str(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed(format!("{what}: not valid UTF-8")))
    }
    /// A count of fixed-size records must fit in the bytes that are actually present — a lying
    /// count is rejected before any allocation sized by it.
    fn checked_count(&mut self, record_bytes: usize, what: &str) -> Result<usize, WireError> {
        let count = self.u32(what)? as usize;
        if count.saturating_mul(record_bytes) > self.remaining() {
            return Err(malformed(format!(
                "{what}: {count} records of {record_bytes} bytes exceed the {} bytes present",
                self.remaining()
            )));
        }
        Ok(count)
    }
    fn finish(self, what: &str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(malformed(format!(
                "{what}: {} trailing bytes after the payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn write_header(w: &mut Writer, opcode: u8) {
    w.u16(MAGIC);
    w.u8(VERSION);
    w.u8(opcode);
}

fn read_header(r: &mut Reader<'_>) -> Result<u8, WireError> {
    let magic = r.u16("magic")?;
    if magic != MAGIC {
        return Err(malformed(format!("bad magic {magic:#06x}")));
    }
    let version = r.u8("version")?;
    if version != VERSION {
        return Err(malformed(format!("unsupported protocol version {version}")));
    }
    r.u8("opcode")
}

const RAY_BYTES: usize = 8 * 4;

fn write_ray(w: &mut Writer, ray: &Ray) {
    w.f32(ray.origin.x);
    w.f32(ray.origin.y);
    w.f32(ray.origin.z);
    w.f32(ray.dir.x);
    w.f32(ray.dir.y);
    w.f32(ray.dir.z);
    w.f32(ray.t_beg);
    w.f32(ray.t_end);
}

/// Reconstructs a ray from its eight wire floats.  `Ray::with_extent` recomputes the derived
/// `inv_dir` / shear fields deterministically from the direction bits, so an encode → decode
/// round trip is bit-exact.  A zero direction would make the constructor panic, so that case is
/// rebuilt around a unit dummy direction and patched afterwards — the ray decodes (keeping
/// decode total) and the engines' request validation rejects it with a structured error.
fn read_ray(r: &mut Reader<'_>, what: &str) -> Result<Ray, WireError> {
    use rayflex_geometry::Vec3;
    let origin = Vec3::new(r.f32(what)?, r.f32(what)?, r.f32(what)?);
    let dir = Vec3::new(r.f32(what)?, r.f32(what)?, r.f32(what)?);
    let t_beg = r.f32(what)?;
    let t_end = r.f32(what)?;
    if dir.x == 0.0 && dir.y == 0.0 && dir.z == 0.0 {
        let mut ray = Ray::with_extent(origin, Vec3::new(0.0, 0.0, 1.0), 0.0, f32::INFINITY);
        ray.dir = dir;
        ray.inv_dir = dir.recip();
        ray.t_beg = t_beg;
        ray.t_end = t_end;
        return Ok(ray);
    }
    Ok(Ray::with_extent(origin, dir, t_beg, t_end))
}

// Request opcodes.
const OP_TRACE: u8 = 1;
const OP_ANY_HIT: u8 = 2;
const OP_KNN: u8 = 3;
const OP_RADIUS: u8 = 4;
const OP_SHUTDOWN: u8 = 5;

// Response opcodes.
const OP_HITS: u8 = 1;
const OP_PARTIAL_HITS: u8 = 2;
const OP_NEIGHBORS: u8 = 3;
const OP_ERROR: u8 = 4;
const OP_SHUTDOWN_ACK: u8 = 5;

/// Encodes a request into a frame payload (no length prefix; see [`write_frame`]).
#[must_use]
pub fn encode_request(request: &RequestFrame) -> Vec<u8> {
    let mut w = Writer::new();
    let opcode = match &request.body {
        RequestBody::Trace { .. } => OP_TRACE,
        RequestBody::AnyHit { .. } => OP_ANY_HIT,
        RequestBody::Knn { .. } => OP_KNN,
        RequestBody::Radius { .. } => OP_RADIUS,
        RequestBody::Shutdown => OP_SHUTDOWN,
    };
    write_header(&mut w, opcode);
    w.u64(request.request_id);
    w.u32(request.tenant);
    w.u64(request.deadline_us);
    w.short_str(&request.scene);
    match &request.body {
        RequestBody::Trace { rays } | RequestBody::AnyHit { rays } => {
            w.u32(rays.len() as u32);
            for ray in rays {
                write_ray(&mut w, ray);
            }
        }
        RequestBody::Knn { k, query } => {
            w.u32(*k);
            w.u32(query.len() as u32);
            for &v in query {
                w.f32(v);
            }
        }
        RequestBody::Radius { center, radius } => {
            for &c in center {
                w.f32(c);
            }
            w.f32(*radius);
        }
        RequestBody::Shutdown => {}
    }
    w.buf
}

/// Decodes a request frame payload.
///
/// # Errors
///
/// [`WireError::Malformed`] on any structural violation — short payloads, bad magic / version /
/// opcode, lying counts, non-UTF-8 strings or trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<RequestFrame, WireError> {
    let mut r = Reader::new(payload);
    let opcode = read_header(&mut r)?;
    let request_id = r.u64("request id")?;
    let tenant = r.u32("tenant")?;
    let deadline_us = r.u64("deadline")?;
    let scene = r.short_str("scene name")?;
    let body = match opcode {
        OP_TRACE | OP_ANY_HIT => {
            let count = r.checked_count(RAY_BYTES, "ray stream")?;
            let mut rays = Vec::with_capacity(count);
            for _ in 0..count {
                rays.push(read_ray(&mut r, "ray")?);
            }
            if opcode == OP_TRACE {
                RequestBody::Trace { rays }
            } else {
                RequestBody::AnyHit { rays }
            }
        }
        OP_KNN => {
            let k = r.u32("k")?;
            let dim = r.checked_count(4, "query vector")?;
            let mut query = Vec::with_capacity(dim);
            for _ in 0..dim {
                query.push(r.f32("query component")?);
            }
            RequestBody::Knn { k, query }
        }
        OP_RADIUS => {
            let center = [r.f32("centre x")?, r.f32("centre y")?, r.f32("centre z")?];
            let radius = r.f32("radius")?;
            RequestBody::Radius { center, radius }
        }
        OP_SHUTDOWN => RequestBody::Shutdown,
        other => return Err(malformed(format!("unknown request opcode {other}"))),
    };
    r.finish("request")?;
    Ok(RequestFrame {
        request_id,
        tenant,
        deadline_us,
        scene,
        body,
    })
}

/// Encodes a response into a frame payload (no length prefix; see [`write_frame`]).
#[must_use]
pub fn encode_response(response: &ResponseFrame) -> Vec<u8> {
    let mut w = Writer::new();
    let opcode = match &response.body {
        ResponseBody::Hits { .. } => OP_HITS,
        ResponseBody::PartialHits { .. } => OP_PARTIAL_HITS,
        ResponseBody::Neighbors { .. } => OP_NEIGHBORS,
        ResponseBody::Error { .. } => OP_ERROR,
        ResponseBody::ShutdownAck => OP_SHUTDOWN_ACK,
    };
    write_header(&mut w, opcode);
    w.u64(response.request_id);
    let write_hits = |w: &mut Writer, hits: &[Option<WireHit>]| {
        w.u32(hits.len() as u32);
        for hit in hits {
            match hit {
                None => w.u8(0),
                Some(hit) => {
                    w.u8(1);
                    w.u64(hit.primitive);
                    w.f32(hit.t);
                }
            }
        }
    };
    match &response.body {
        ResponseBody::Hits { hits } => write_hits(&mut w, hits),
        ResponseBody::PartialHits { total, hits } => {
            w.u32(*total);
            write_hits(&mut w, hits);
        }
        ResponseBody::Neighbors { neighbors } => {
            w.u32(neighbors.len() as u32);
            for n in neighbors {
                w.u64(n.index);
                w.f32(n.distance);
            }
        }
        ResponseBody::Error { code, reason } => {
            w.u8(*code);
            w.short_str(reason);
        }
        ResponseBody::ShutdownAck => {}
    }
    w.buf
}

/// Decodes a response frame payload.
///
/// # Errors
///
/// [`WireError::Malformed`] on any structural violation, exactly as [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<ResponseFrame, WireError> {
    let mut r = Reader::new(payload);
    let opcode = read_header(&mut r)?;
    let request_id = r.u64("request id")?;
    fn read_hits(r: &mut Reader<'_>) -> Result<Vec<Option<WireHit>>, WireError> {
        // A miss is the 1-byte minimum record.
        let count = r.checked_count(1, "hit list")?;
        let mut hits = Vec::with_capacity(count);
        for _ in 0..count {
            hits.push(match r.u8("hit tag")? {
                0 => None,
                1 => Some(WireHit {
                    primitive: r.u64("hit primitive")?,
                    t: r.f32("hit distance")?,
                }),
                other => return Err(malformed(format!("unknown hit tag {other}"))),
            });
        }
        Ok(hits)
    }
    let body = match opcode {
        OP_HITS => ResponseBody::Hits {
            hits: read_hits(&mut r)?,
        },
        OP_PARTIAL_HITS => {
            let total = r.u32("total")?;
            let hits = read_hits(&mut r)?;
            if hits.len() > total as usize {
                return Err(malformed(format!(
                    "partial response carries {} hits but claims only {total} rays",
                    hits.len()
                )));
            }
            ResponseBody::PartialHits { total, hits }
        }
        OP_NEIGHBORS => {
            let count = r.checked_count(12, "neighbour list")?;
            let mut neighbors = Vec::with_capacity(count);
            for _ in 0..count {
                neighbors.push(WireNeighbor {
                    index: r.u64("neighbour index")?,
                    distance: r.f32("neighbour distance")?,
                });
            }
            ResponseBody::Neighbors { neighbors }
        }
        OP_ERROR => ResponseBody::Error {
            code: r.u8("error code")?,
            reason: r.short_str("error reason")?,
        },
        OP_SHUTDOWN_ACK => ResponseBody::ShutdownAck,
        other => return Err(malformed(format!("unknown response opcode {other}"))),
    };
    r.finish("response")?;
    Ok(ResponseFrame { request_id, body })
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// [`WireError::Io`] if the socket write fails, [`WireError::Oversized`] for payloads above
/// [`MAX_FRAME_BYTES`].
pub fn write_frame(to: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(WireError::Oversized {
            declared: payload.len(),
        });
    }
    to.write_all(&(payload.len() as u32).to_le_bytes())?;
    to.write_all(payload)?;
    Ok(())
}

/// Reads one length-prefixed frame, refusing oversized declarations before allocating.
///
/// # Errors
///
/// [`WireError::Io`] on transport failure (including EOF mid-frame — a peer dying mid-write
/// surfaces here, not as garbage), [`WireError::Oversized`] for lying length prefixes.
pub fn read_frame(from: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut prefix = [0u8; 4];
    from.read_exact(&mut prefix)?;
    let declared = u32::from_le_bytes(prefix) as usize;
    if declared > MAX_FRAME_BYTES {
        return Err(WireError::Oversized { declared });
    }
    let mut payload = vec![0u8; declared];
    from.read_exact(&mut payload)?;
    Ok(payload)
}

/// A blocking protocol client over one TCP connection — what the server's own tests and the
/// `perfbench` load generator speak through.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
}

impl WireClient {
    /// Connects to a server address.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the connection fails.
    pub fn connect(addr: &str) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        // Frames are small and latency-bound: Nagle + delayed ACK would add ~40ms per round
        // trip, swamping every serving-policy effect a benchmark wants to observe.
        stream.set_nodelay(true)?;
        Ok(WireClient { stream })
    }

    /// Wraps an already-connected stream.
    #[must_use]
    pub fn from_stream(stream: TcpStream) -> Self {
        WireClient { stream }
    }

    /// Sends a request frame without waiting for the response.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on transport failure.
    pub fn send(&mut self, request: &RequestFrame) -> Result<(), WireError> {
        write_frame(&mut self.stream, &encode_request(request))
    }

    /// Receives and decodes one response frame.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]: transport failure or a malformed response.
    pub fn receive(&mut self) -> Result<ResponseFrame, WireError> {
        decode_response(&read_frame(&mut self.stream)?)
    }

    /// One round trip: send, then block for the response.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from [`WireClient::send`] or [`WireClient::receive`].
    pub fn request(&mut self, request: &RequestFrame) -> Result<ResponseFrame, WireError> {
        self.send(request)?;
        self.receive()
    }

    /// The raw stream, for tests that need to write broken bytes.
    #[must_use]
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

pub mod catalog {
    //! The named workload catalog both ends of the protocol agree on: the server preloads every
    //! entry at startup, clients generate requests against the same names, and the
    //! bit-identity tests rebuild the identical inputs library-side.  Everything is
    //! deterministic — same name, same geometry, bit for bit.

    use rayflex_geometry::{Aabb, Ray, Triangle, Vec3};

    /// The triangle scenes the server preloads, servable by trace / any-hit requests.
    pub const SCENES: [&str; 3] = ["wall", "lit", "soup"];
    /// The vector datasets the server preloads, servable by kNN requests.
    pub const DATASETS: [&str; 1] = ["clusters"];
    /// The point clouds the server preloads, servable by radius requests.
    pub const CLOUDS: [&str; 1] = ["cloud"];
    /// Dimension of every vector in the [`DATASETS`] entries.
    pub const KNN_DIMENSION: usize = 16;

    /// The triangles of a named scene, or `None` for names outside [`SCENES`].
    #[must_use]
    pub fn scene_triangles(name: &str) -> Option<Vec<Triangle>> {
        match name {
            "wall" => Some(crate::scenes::quad_wall(12, 1.5, 6.0)),
            "lit" => Some(crate::scenes::lit_scene(2, 10.0).triangles),
            "soup" => Some(crate::scenes::random_triangle_soup(41, 256, 12.0)),
            _ => None,
        }
    }

    /// The bounds rays of a named scene are generated inside (a box that comfortably contains
    /// the geometry, so streams mix hits and misses).
    #[must_use]
    pub fn scene_bounds(name: &str) -> Option<Aabb> {
        let extent = match name {
            "wall" => 12.0,
            "lit" => 12.0,
            "soup" => 14.0,
            _ => return None,
        };
        Some(Aabb::new(Vec3::splat(-extent), Vec3::splat(extent)))
    }

    /// A deterministic ray batch aimed at a named scene, or `None` for unknown names.
    #[must_use]
    pub fn sample_rays(name: &str, seed: u64, count: usize) -> Option<Vec<Ray>> {
        Some(crate::rays::random_rays(seed, count, &scene_bounds(name)?))
    }

    /// The vectors of a named kNN dataset, or `None` for names outside [`DATASETS`].
    #[must_use]
    pub fn dataset_vectors(name: &str) -> Option<Vec<Vec<f32>>> {
        match name {
            "clusters" => {
                Some(crate::vectors::clustered_dataset(17, 256, KNN_DIMENSION, 6, 0.4).vectors)
            }
            _ => None,
        }
    }

    /// A deterministic query-vector batch near a named dataset's clusters.
    #[must_use]
    pub fn sample_queries(name: &str, seed: u64, count: usize) -> Option<Vec<Vec<f32>>> {
        match name {
            "clusters" => {
                let dataset = crate::vectors::clustered_dataset(17, 256, KNN_DIMENSION, 6, 0.4);
                Some(crate::vectors::queries_near_dataset(
                    seed, &dataset, count, 0.3,
                ))
            }
            _ => None,
        }
    }

    /// The points of a named cloud, or `None` for names outside [`CLOUDS`].
    #[must_use]
    pub fn cloud_points(name: &str) -> Option<Vec<Vec3>> {
        match name {
            "cloud" => Some(
                crate::vectors::clustered_dataset(23, 192, 3, 5, 2.5)
                    .vectors
                    .iter()
                    .map(|v| Vec3::new(v[0], v[1], v[2]))
                    .collect(),
            ),
            _ => None,
        }
    }

    /// Deterministic radius-query centres near a named cloud.
    #[must_use]
    pub fn sample_centers(name: &str, seed: u64, count: usize) -> Option<Vec<(Vec3, f32)>> {
        let points = cloud_points(name)?;
        let rays =
            crate::rays::random_rays(seed, count, &Aabb::new(Vec3::splat(-8.0), Vec3::splat(8.0)));
        Some(
            rays.iter()
                .enumerate()
                .map(|(i, ray)| {
                    // Anchor half the centres on real points so queries actually find
                    // neighbours.
                    let center = if i % 2 == 0 {
                        points[i % points.len()] + ray.dir * 0.05
                    } else {
                        ray.origin
                    };
                    (center, 1.0 + (i % 7) as f32 * 0.5)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_geometry::Vec3;

    fn sample_request() -> RequestFrame {
        RequestFrame {
            request_id: 42,
            tenant: 7,
            deadline_us: 1500,
            scene: "wall".into(),
            body: RequestBody::Trace {
                rays: catalog::sample_rays("wall", 3, 5).unwrap(),
            },
        }
    }

    #[test]
    fn request_round_trips_bit_exactly() {
        let request = sample_request();
        let decoded = decode_request(&encode_request(&request)).unwrap();
        assert_eq!(decoded, request);
        // Bit-exactness beyond PartialEq: re-encoding reproduces the same bytes.
        assert_eq!(encode_request(&decoded), encode_request(&request));
    }

    #[test]
    fn every_request_kind_round_trips() {
        let bodies = [
            RequestBody::AnyHit {
                rays: catalog::sample_rays("soup", 9, 3).unwrap(),
            },
            RequestBody::Knn {
                k: 4,
                query: vec![0.5; catalog::KNN_DIMENSION],
            },
            RequestBody::Radius {
                center: [1.0, -2.0, 0.5],
                radius: 3.0,
            },
            RequestBody::Shutdown,
        ];
        for body in bodies {
            let request = RequestFrame {
                request_id: 9,
                tenant: 0,
                deadline_us: 0,
                scene: "clusters".into(),
                body,
            };
            assert_eq!(decode_request(&encode_request(&request)).unwrap(), request);
        }
    }

    #[test]
    fn every_response_kind_round_trips() {
        let bodies = [
            ResponseBody::Hits {
                hits: vec![
                    None,
                    Some(WireHit {
                        primitive: 12,
                        t: 3.25,
                    }),
                ],
            },
            ResponseBody::PartialHits {
                total: 8,
                hits: vec![Some(WireHit {
                    primitive: 1,
                    t: 0.5,
                })],
            },
            ResponseBody::Neighbors {
                neighbors: vec![WireNeighbor {
                    index: 3,
                    distance: 1.75,
                }],
            },
            ResponseBody::Error {
                code: code::DEADLINE_EXCEEDED,
                reason: "beat budget exhausted".into(),
            },
            ResponseBody::ShutdownAck,
        ];
        for body in bodies {
            let response = ResponseFrame {
                request_id: 77,
                body,
            };
            assert_eq!(
                decode_response(&encode_response(&response)).unwrap(),
                response
            );
        }
    }

    #[test]
    fn zero_direction_rays_decode_without_panicking() {
        // Hand-build the wire bytes of a zero-direction ray — the constructor would panic on
        // it, so decode must route around that while preserving the bits.
        let mut w = Writer::new();
        write_header(&mut w, OP_TRACE);
        w.u64(1);
        w.u32(0);
        w.u64(0);
        w.short_str("wall");
        w.u32(1);
        for v in [1.0f32, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, f32::INFINITY] {
            w.f32(v);
        }
        let decoded = decode_request(&w.buf).unwrap();
        let RequestBody::Trace { rays } = &decoded.body else {
            panic!("wrong body kind");
        };
        assert_eq!(rays[0].origin, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(rays[0].dir, Vec3::ZERO);
    }

    #[test]
    fn structural_violations_are_rejected_not_panicked() {
        let good = encode_request(&sample_request());

        // Truncations at every length decode to an error, never a panic.
        for len in 0..good.len() {
            assert!(decode_request(&good[..len]).is_err(), "prefix {len}");
        }

        // Trailing garbage is rejected.
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_request(&padded).is_err());

        // Bad magic, version, opcode.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(decode_request(&bad).is_err());
        let mut bad = good.clone();
        bad[2] = 99;
        assert!(decode_request(&bad).is_err());
        let mut bad = good.clone();
        bad[3] = 200;
        assert!(decode_request(&bad).is_err());

        // A lying ray count cannot force an allocation or an over-read.
        let mut lying = good.clone();
        let count_at = 2 + 2 + 8 + 4 + 8 + 2 + "wall".len();
        lying[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&lying).is_err());
    }

    #[test]
    fn every_single_bit_flip_decodes_or_rejects_without_panicking() {
        let good = encode_request(&sample_request());
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut flipped = good.clone();
                flipped[byte] ^= 1 << bit;
                // Either outcome is fine; what matters is that it *returns*.
                let _ = decode_request(&flipped);
            }
        }
    }

    #[test]
    fn the_catalog_is_deterministic_and_complete() {
        for name in catalog::SCENES {
            assert!(
                !catalog::scene_triangles(name).unwrap().is_empty(),
                "{name}"
            );
            let a = catalog::sample_rays(name, 5, 8).unwrap();
            let b = catalog::sample_rays(name, 5, 8).unwrap();
            assert_eq!(a, b, "{name}: same seed, same rays");
        }
        for name in catalog::DATASETS {
            let vectors = catalog::dataset_vectors(name).unwrap();
            assert!(!vectors.is_empty());
            assert!(vectors.iter().all(|v| v.len() == catalog::KNN_DIMENSION));
            assert_eq!(
                catalog::sample_queries(name, 2, 4).unwrap(),
                catalog::sample_queries(name, 2, 4).unwrap()
            );
        }
        for name in catalog::CLOUDS {
            assert!(!catalog::cloud_points(name).unwrap().is_empty());
            assert_eq!(
                catalog::sample_centers(name, 4, 6).unwrap(),
                catalog::sample_centers(name, 4, 6).unwrap()
            );
        }
        assert!(catalog::scene_triangles("nope").is_none());
        assert!(catalog::dataset_vectors("nope").is_none());
        assert!(catalog::cloud_points("nope").is_none());
    }

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let payload = encode_request(&sample_request());
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let got = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(got, payload);

        // An oversized declared length is refused before allocation.
        let mut lying = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        lying.extend_from_slice(&[0; 8]);
        assert!(matches!(
            read_frame(&mut lying.as_slice()),
            Err(WireError::Oversized { .. })
        ));

        // A frame cut off mid-payload is an I/O error (EOF), not garbage.
        let mut short = wire.clone();
        short.truncate(wire.len() - 3);
        assert!(matches!(
            read_frame(&mut short.as_slice()),
            Err(WireError::Io(_))
        ));
    }
}
