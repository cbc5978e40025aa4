//! The wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! +----------------+---------------------------+
//! | u32 big-endian |  UTF-8 JSON, `len` bytes  |
//! |     `len`      |  (compact or pretty)      |
//! +----------------+---------------------------+
//! ```
//!
//! The length prefix makes message boundaries explicit (no sniffing for
//! balanced braces on a stream), and the JSON payload goes through the
//! hardened [`shell_util::Json::parse`] — depth-limited and
//! trailing-garbage-rejecting — because the bytes come from an untrusted
//! peer. Frames above [`MAX_FRAME_BYTES`] are refused before any allocation
//! so a hostile 4-byte header cannot reserve gigabytes.
//!
//! Connections are persistent: a client writes any number of request
//! frames and reads one response frame per request, in order. A clean EOF
//! between frames ends the conversation.

use shell_util::Json;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Upper bound on a single frame. Generous for inline-Verilog lock
/// requests (megabytes at most) while bounding what a malicious header can
/// make the server allocate.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates transport errors; refuses payloads above [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, json: &Json) -> io::Result<()> {
    let payload = json.to_string_compact();
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            invalid(format!(
                "frame of {} bytes exceeds the maximum",
                payload.len()
            ))
        })?;
    // One write per frame: a separate 4-byte header write would interact
    // with Nagle's algorithm + delayed ACKs and stall every message by tens
    // of milliseconds on a real TCP socket.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF **at a frame boundary**; EOF
/// mid-frame, an oversized length, non-UTF-8 bytes, or malformed JSON are
/// all [`io::ErrorKind::InvalidData`] errors (except the mid-frame EOF,
/// which keeps [`io::ErrorKind::UnexpectedEof`]).
///
/// # Errors
///
/// See above.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Json>> {
    let mut header = [0u8; 4];
    // Hand-rolled read_exact for the header so a clean EOF before any byte
    // is distinguishable from a truncated header.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!("frame length {len} exceeds the maximum")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let text = String::from_utf8(payload).map_err(|e| invalid(format!("frame not UTF-8: {e}")))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| invalid(format!("frame not valid JSON: {e}")))
}

/// One observation from [`FrameReader::step`].
#[derive(Debug)]
pub enum FrameStep {
    /// A complete frame arrived.
    Frame(Json),
    /// Clean EOF at a frame boundary.
    Eof,
    /// No new bytes this tick (socket timeout); partial-frame state is
    /// preserved for the next tick.
    Idle,
}

/// Incremental frame reader for the server side of a connection.
///
/// The plain [`read_frame`] assumes it can block until a whole frame is
/// present, which makes a non-blocking server loop lose partial-frame bytes
/// on every socket timeout — a slow or hostile client (slow-loris) could
/// corrupt framing or pin a worker forever. `FrameReader` buffers partial
/// bytes across timeouts and enforces a **per-frame deadline**: the clock
/// starts at the first byte of a frame, and a frame that is still
/// incomplete when the deadline lapses fails the connection with a typed
/// `[stalled]` error. Pipelined bytes beyond a completed frame stay in the
/// buffer.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// When the current (incomplete) frame's first byte arrived.
    started_at: Option<Instant>,
    deadline: Duration,
}

impl FrameReader {
    /// A reader whose frames must complete within `deadline` of their first
    /// byte.
    pub fn new(deadline: Duration) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            started_at: None,
            deadline,
        }
    }

    /// Performs at most one socket read and returns what it amounted to.
    /// Call in a loop; `Idle` means "nothing yet, check shutdown and call
    /// again".
    ///
    /// # Errors
    ///
    /// Transport errors, EOF mid-frame ([`io::ErrorKind::UnexpectedEof`]),
    /// oversized or malformed frames ([`io::ErrorKind::InvalidData`]), and
    /// the per-frame deadline ([`io::ErrorKind::TimedOut`], message
    /// prefixed `[stalled]`).
    pub fn step(&mut self, r: &mut impl Read) -> io::Result<FrameStep> {
        // A pipelined frame may already be complete in the buffer.
        if let Some(frame) = self.try_extract()? {
            return Ok(FrameStep::Frame(frame));
        }
        let mut chunk = [0u8; 4096];
        match r.read(&mut chunk) {
            Ok(0) => {
                if self.buf.is_empty() {
                    Ok(FrameStep::Eof)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
            }
            Ok(n) => {
                if self.buf.is_empty() {
                    self.started_at = Some(Instant::now());
                }
                self.buf.extend_from_slice(&chunk[..n]);
                match self.try_extract()? {
                    Some(frame) => Ok(FrameStep::Frame(frame)),
                    None => self.check_stalled().map(|()| FrameStep::Idle),
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                self.check_stalled().map(|()| FrameStep::Idle)
            }
            Err(e) => Err(e),
        }
    }

    fn check_stalled(&self) -> io::Result<()> {
        match self.started_at {
            Some(t0) if !self.buf.is_empty() && t0.elapsed() > self.deadline => {
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "[stalled] frame incomplete after {}ms",
                        self.deadline.as_millis()
                    ),
                ))
            }
            _ => Ok(()),
        }
    }

    /// Pops one complete frame off the front of the buffer, if present.
    /// The length cap is checked as soon as the header is readable, before
    /// any payload accumulates.
    fn try_extract(&mut self) -> io::Result<Option<Json>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len > MAX_FRAME_BYTES {
            return Err(invalid(format!("frame length {len} exceeds the maximum")));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[4..total].to_vec();
        self.buf.drain(..total);
        // Any leftover bytes begin the next frame; restart its clock.
        self.started_at = (!self.buf.is_empty()).then(Instant::now);
        let text =
            String::from_utf8(payload).map_err(|e| invalid(format!("frame not UTF-8: {e}")))?;
        Json::parse(&text)
            .map(Some)
            .map_err(|e| invalid(format!("frame not valid JSON: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        let a = Json::obj([("cmd", Json::from("ping"))]);
        let b = Json::arr([Json::from(1u64), Json::from("héllo ☃")]);
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some(a));
        assert_eq!(read_frame(&mut r).unwrap(), Some(b));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at boundary");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"whatever");
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_is_an_error_not_a_clean_eof() {
        let mut full = Vec::new();
        write_frame(&mut full, &Json::obj([("k", Json::from(1u64))])).unwrap();
        // Cut inside the header and inside the payload.
        for cut in [2, full.len() - 3] {
            let err = read_frame(&mut &full[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn malformed_payloads_are_invalid_data() {
        // Bad JSON (trailing garbage) and bad UTF-8, each with a correct
        // length prefix.
        for payload in [&b"{} {}"[..], &[0xff, 0xfe, 0x00][..]] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            buf.extend_from_slice(payload);
            let err = read_frame(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn depth_bomb_is_refused_by_the_hardened_parser() {
        let bomb = "[".repeat(4096);
        let mut buf = Vec::new();
        buf.extend_from_slice(&(bomb.len() as u32).to_be_bytes());
        buf.extend_from_slice(bomb.as_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    /// A reader that yields its script one item per call: `Ok(bytes)`
    /// delivers bytes, `Err(WouldBlock)` simulates a socket timeout tick.
    struct Scripted(std::collections::VecDeque<io::Result<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                Some(Ok(bytes)) => {
                    out[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(e)) => Err(e),
                None => Ok(0), // EOF
            }
        }
    }

    fn scripted(items: Vec<io::Result<Vec<u8>>>) -> Scripted {
        Scripted(items.into())
    }

    fn would_block() -> io::Error {
        io::Error::new(io::ErrorKind::WouldBlock, "tick")
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let mut full = Vec::new();
        let msg = Json::obj([("cmd", Json::from("ping"))]);
        write_frame(&mut full, &msg).unwrap();
        // Byte dribble: header split across ticks, WouldBlock between every
        // chunk — the old `continue`-on-timeout loop lost exactly this.
        let mut r = scripted(vec![
            Ok(full[..2].to_vec()),
            Err(would_block()),
            Ok(full[2..5].to_vec()),
            Err(would_block()),
            Ok(full[5..].to_vec()),
        ]);
        let mut reader = FrameReader::new(Duration::from_secs(10));
        let mut got = None;
        for _ in 0..8 {
            match reader.step(&mut r).unwrap() {
                FrameStep::Frame(f) => {
                    got = Some(f);
                    break;
                }
                FrameStep::Idle => continue,
                FrameStep::Eof => panic!("EOF before the frame completed"),
            }
        }
        assert_eq!(got, Some(msg));
        assert!(matches!(reader.step(&mut r).unwrap(), FrameStep::Eof));
    }

    #[test]
    fn frame_reader_handles_pipelined_frames() {
        let mut full = Vec::new();
        let a = Json::obj([("n", Json::from(1u64))]);
        let b = Json::obj([("n", Json::from(2u64))]);
        write_frame(&mut full, &a).unwrap();
        write_frame(&mut full, &b).unwrap();
        let mut r = scripted(vec![Ok(full)]);
        let mut reader = FrameReader::new(Duration::from_secs(10));
        assert!(matches!(reader.step(&mut r).unwrap(), FrameStep::Frame(f) if f == a));
        assert!(matches!(reader.step(&mut r).unwrap(), FrameStep::Frame(f) if f == b));
        assert!(matches!(reader.step(&mut r).unwrap(), FrameStep::Eof));
    }

    #[test]
    fn frame_reader_rejects_oversized_header_before_payload() {
        let mut bytes = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        bytes.extend_from_slice(b"xx");
        let mut r = scripted(vec![Ok(bytes)]);
        let mut reader = FrameReader::new(Duration::from_secs(10));
        let err = reader.step(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_reader_flags_mid_frame_disconnect() {
        let mut full = Vec::new();
        write_frame(&mut full, &Json::obj([("k", Json::from(1u64))])).unwrap();
        let mut r = scripted(vec![Ok(full[..full.len() - 2].to_vec())]);
        let mut reader = FrameReader::new(Duration::from_secs(10));
        assert!(matches!(reader.step(&mut r).unwrap(), FrameStep::Idle));
        let err = reader.step(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_reader_stalls_out_a_slow_loris() {
        let mut full = Vec::new();
        write_frame(&mut full, &Json::obj([("k", Json::from(1u64))])).unwrap();
        let mut r = scripted(vec![
            Ok(full[..3].to_vec()),
            Err(would_block()),
            Err(would_block()),
        ]);
        let mut reader = FrameReader::new(Duration::from_millis(1));
        assert!(matches!(reader.step(&mut r).unwrap(), FrameStep::Idle));
        std::thread::sleep(Duration::from_millis(5));
        let err = loop {
            match reader.step(&mut r) {
                Ok(FrameStep::Idle) => continue,
                Ok(other) => panic!("expected stall, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().starts_with("[stalled]"), "{err}");
    }
}
