//! Incremental, buffer-pooled framing for nonblocking sockets.
//!
//! A blocking reader (the client's `read_envelope`) can park a thread
//! until a frame completes; an event loop cannot. [`FrameAssembler`] is the wire protocol's
//! length-prefix layer restated as a resumable state machine: bytes
//! are read straight off the socket **into the frame's final payload
//! buffer** (no staging buffer, no memmove when a frame arrives torn
//! across wakeups — resuming just continues filling at the saved
//! offset), and a completed payload is handed out as an owned `Vec`
//! for in-place [`awsad_serve::wire::Frame::decode_enveloped`].
//!
//! Payload buffers come from a per-shard [`BufferPool`] and return to
//! it after the frame is handled, so a steady-state connection churns
//! zero allocations on the read path.
//!
//! [`WriteQueue`] is the mirror image for replies: encoded frames are
//! queued as (length-prefix, payload) pairs and flushed with a single
//! vectored write (`writev(2)` via
//! [`std::io::Write::write_vectored`]), so a burst of pipelined
//! replies coalesces into one syscall without copying payloads into a
//! contiguous staging buffer.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::time::Instant;

use awsad_serve::wire::WireError;

/// Recycles payload buffers between frames.
///
/// `get` hands out a zeroed buffer of exactly the requested length
/// (reusing capacity when available); `put` takes a handled payload
/// back. Both the pooled-buffer count and the retained capacity are
/// bounded, so a single huge frame cannot pin its allocation forever.
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    max_pooled: usize,
    max_retained_capacity: usize,
}

impl BufferPool {
    /// A pool keeping at most `max_pooled` buffers of at most
    /// `max_retained_capacity` bytes each.
    pub fn new(max_pooled: usize, max_retained_capacity: usize) -> BufferPool {
        BufferPool {
            free: Vec::new(),
            max_pooled,
            max_retained_capacity,
        }
    }

    /// A buffer of exactly `len` zeroed bytes.
    pub fn get(&mut self, len: usize) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0);
                buf
            }
            None => vec![0; len],
        }
    }

    /// Returns a handled payload for reuse.
    pub fn put(&mut self, buf: Vec<u8>) {
        if self.free.len() < self.max_pooled && buf.capacity() <= self.max_retained_capacity {
            self.free.push(buf);
        }
    }

    /// Buffers currently idle in the pool.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

impl Default for BufferPool {
    /// 32 buffers of at most 64 KiB retained — enough to absorb a
    /// burst of typical frames without holding megabytes per shard.
    fn default() -> BufferPool {
        BufferPool::new(32, 64 * 1024)
    }
}

/// Where the assembler is within the current frame.
#[derive(Debug)]
enum ReadState {
    /// Accumulating the 4-byte big-endian length prefix.
    Prefix { buf: [u8; 4], got: usize },
    /// Filling the payload buffer (already validated against the
    /// frame-size limit and allocated at final size).
    Payload { buf: Vec<u8>, got: usize },
}

/// Why [`FrameAssembler::read_available`] stopped.
#[derive(Debug)]
pub enum ReadStatus {
    /// The socket has no more bytes right now (`EAGAIN`); resume on
    /// the next readiness event.
    WouldBlock,
    /// The peer closed cleanly **at a frame boundary**.
    Closed,
    /// The peer closed mid-frame or violated the framing layer
    /// (oversized declared length). The connection is poisoned.
    Protocol(WireError),
    /// Transport error from the socket itself.
    Io(io::Error),
}

/// Resumable frame accumulation for one connection.
///
/// Invariants the torn-frame fuzzer holds this to:
///
/// * a frame split at **any** byte boundary across any number of
///   reads yields payload bytes identical to a single-shot read;
/// * all partial-frame state lives inside this per-connection value —
///   nothing is shared, so garbage on one connection cannot perturb
///   another's decode;
/// * the size limit is enforced on the declared length **before** the
///   payload allocation, exactly like the blocking
///   `awsad_serve::wire::read_envelope`.
#[derive(Debug)]
pub struct FrameAssembler {
    max_frame_len: u32,
    state: ReadState,
    /// When the first byte of the in-progress frame arrived; `None`
    /// between frames. Drives the slow-loris `frame_deadline` sweep.
    frame_started: Option<Instant>,
    /// Wakeup generation at the current frame's first byte, used to
    /// detect frames spanning multiple readiness events.
    started_generation: u64,
    generation: u64,
    resumed_frames: u64,
}

impl FrameAssembler {
    /// An assembler enforcing `max_frame_len` on declared payload
    /// lengths.
    pub fn new(max_frame_len: u32) -> FrameAssembler {
        FrameAssembler {
            max_frame_len,
            state: ReadState::Prefix {
                buf: [0; 4],
                got: 0,
            },
            frame_started: None,
            started_generation: 0,
            generation: 0,
            resumed_frames: 0,
        }
    }

    /// When the in-progress frame's first byte arrived (`None` at a
    /// frame boundary). The caller's sweep compares this against the
    /// configured `frame_deadline`.
    pub fn mid_frame_since(&self) -> Option<Instant> {
        self.frame_started
    }

    /// Completed frames whose bytes spanned more than one call to
    /// [`FrameAssembler::read_available`] — i.e. frames that arrived
    /// torn across readiness wakeups and were resumed mid-frame.
    pub fn resumed_frames(&self) -> u64 {
        self.resumed_frames
    }

    /// Reads whatever the socket has, appending every completed
    /// payload to `out` (buffers drawn from `pool`; the caller returns
    /// them after decoding). Stops at `EAGAIN`, clean close, protocol
    /// violation, or transport error — never blocks, never panics on
    /// hostile lengths.
    pub fn read_available(
        &mut self,
        stream: &mut impl Read,
        pool: &mut BufferPool,
        out: &mut Vec<Vec<u8>>,
    ) -> ReadStatus {
        self.generation = self.generation.wrapping_add(1);
        loop {
            match &mut self.state {
                ReadState::Prefix { buf, got } => {
                    debug_assert!(*got < 4);
                    match stream.read(&mut buf[*got..]) {
                        Ok(0) => {
                            return if *got == 0 && self.frame_started.is_none() {
                                ReadStatus::Closed
                            } else {
                                ReadStatus::Protocol(WireError::Truncated)
                            };
                        }
                        Ok(n) => {
                            if *got == 0 && self.frame_started.is_none() {
                                self.frame_started = Some(Instant::now());
                                self.started_generation = self.generation;
                            }
                            *got += n;
                            if *got == 4 {
                                let len = u32::from_be_bytes(*buf);
                                if len > self.max_frame_len {
                                    return ReadStatus::Protocol(WireError::FrameTooLarge {
                                        len,
                                        max: self.max_frame_len,
                                    });
                                }
                                self.state = ReadState::Payload {
                                    buf: pool.get(len as usize),
                                    got: 0,
                                };
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return ReadStatus::WouldBlock
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return ReadStatus::Io(e),
                    }
                }
                ReadState::Payload { buf, got } => {
                    if *got == buf.len() {
                        self.complete(out);
                        continue;
                    }
                    match stream.read(&mut buf[*got..]) {
                        Ok(0) => return ReadStatus::Protocol(WireError::Truncated),
                        Ok(n) => {
                            *got += n;
                            if *got == buf.len() {
                                self.complete(out);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return ReadStatus::WouldBlock
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return ReadStatus::Io(e),
                    }
                }
            }
        }
    }

    /// Finishes the current frame: moves the payload out, resets to
    /// prefix accumulation, and accounts a mid-frame resume if the
    /// frame's bytes spanned multiple wakeups.
    fn complete(&mut self, out: &mut Vec<Vec<u8>>) {
        let ReadState::Payload { buf, .. } = std::mem::replace(
            &mut self.state,
            ReadState::Prefix {
                buf: [0; 4],
                got: 0,
            },
        ) else {
            unreachable!("complete() is only reached from the payload state");
        };
        if self.started_generation != self.generation {
            self.resumed_frames += 1;
        }
        self.frame_started = None;
        out.push(buf);
    }
}

/// Pending reply bytes for one connection: a queue of buffers plus a
/// cursor into the head buffer, flushed with vectored writes.
#[derive(Debug, Default)]
pub struct WriteQueue {
    bufs: VecDeque<Vec<u8>>,
    /// Bytes of the head buffer already written.
    head_off: usize,
    queued_bytes: usize,
}

/// Cap on iovecs per `writev` — Linux's `UIO_MAXIOV` is 1024; 64
/// already amortizes the syscall completely for reply bursts.
const MAX_IOV: usize = 64;

impl WriteQueue {
    /// Queues one encoded frame as its 4-byte length prefix plus the
    /// payload, as two iovec entries — the payload is never copied
    /// into a staging buffer.
    pub fn push_frame(&mut self, payload: Vec<u8>) {
        let prefix = (payload.len() as u32).to_be_bytes().to_vec();
        self.queued_bytes += prefix.len() + payload.len();
        self.bufs.push_back(prefix);
        self.bufs.push_back(payload);
    }

    /// Bytes not yet accepted by the socket.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Whether everything has been flushed.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Writes as much as the socket will take, vectored. Returns
    /// `Ok(true)` when the queue drained, `Ok(false)` when the socket
    /// filled up (`EAGAIN` — caller should watch for writability),
    /// and any real transport error verbatim.
    pub fn flush(&mut self, stream: &mut impl Write) -> io::Result<bool> {
        while !self.bufs.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.bufs.len().min(MAX_IOV));
            for (i, buf) in self.bufs.iter().take(MAX_IOV).enumerate() {
                let from = if i == 0 { self.head_off } else { 0 };
                slices.push(IoSlice::new(&buf[from..]));
            }
            match stream.write_vectored(&slices) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(mut n) => {
                    self.queued_bytes -= n;
                    while n > 0 {
                        let head_len = self.bufs[0].len() - self.head_off;
                        if n >= head_len {
                            n -= head_len;
                            self.head_off = 0;
                            self.bufs.pop_front();
                        } else {
                            self.head_off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awsad_serve::wire::Frame;

    /// A socket simulator delivering the byte stream as "wakeup
    /// segments": all bytes of one segment are available within one
    /// readiness window (possibly over several `read` calls, as real
    /// sockets do), with exactly one `WouldBlock` between segments —
    /// so segment boundaries model frames torn across wakeups.
    struct ChunkedReader {
        data: Vec<u8>,
        pos: usize,
        /// Segment lengths; the remainder after the list forms one
        /// final implicit segment.
        segments: Vec<usize>,
        seg_idx: usize,
        /// Bytes still deliverable in the current segment.
        seg_left: usize,
        /// `WouldBlock` pending before the next segment starts.
        gated: bool,
    }

    impl ChunkedReader {
        fn new(data: Vec<u8>, segments: Vec<usize>) -> ChunkedReader {
            let seg_left = segments.first().copied().unwrap_or(data.len());
            ChunkedReader {
                data,
                pos: 0,
                segments,
                seg_idx: 0,
                seg_left,
                gated: true, // the first segment needs its wakeup too
            }
        }
    }

    impl Read for ChunkedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.data.len() {
                return Ok(0);
            }
            if self.gated {
                self.gated = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "next wakeup"));
            }
            if self.seg_left == 0 {
                // Segment exhausted: arm the gate and advance.
                self.seg_idx += 1;
                self.seg_left = self
                    .segments
                    .get(self.seg_idx)
                    .copied()
                    .unwrap_or(self.data.len() - self.pos);
                self.gated = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "next wakeup"));
            }
            let n = self.seg_left.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            self.seg_left -= n;
            Ok(n)
        }
    }

    fn frame_bytes(frame: &Frame) -> Vec<u8> {
        let payload = frame.encode();
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        bytes
    }

    /// Drives the assembler over `reader` until close, collecting
    /// every completed payload.
    fn collect_all(reader: &mut ChunkedReader, assembler: &mut FrameAssembler) -> Vec<Vec<u8>> {
        let mut pool = BufferPool::default();
        let mut out = Vec::new();
        loop {
            match assembler.read_available(reader, &mut pool, &mut out) {
                ReadStatus::WouldBlock => continue,
                ReadStatus::Closed => return out,
                other => panic!("unexpected status {other:?}"),
            }
        }
    }

    #[test]
    fn every_split_point_yields_identical_payloads() {
        let frame = Frame::Hello {
            client: "torn-frame probe".into(),
        };
        let bytes = frame_bytes(&frame);
        let reference = frame.encode();
        for split in 1..bytes.len() {
            let mut reader = ChunkedReader::new(bytes.clone(), vec![split]);
            let mut assembler = FrameAssembler::new(1 << 20);
            let payloads = collect_all(&mut reader, &mut assembler);
            assert_eq!(payloads.len(), 1, "split at {split}");
            assert_eq!(payloads[0], reference, "split at {split}");
            // Torn across two wakeups: exactly one resume accounted
            // (WouldBlock between the two chunks forces a new
            // read_available call).
            assert_eq!(assembler.resumed_frames(), 1, "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_delivery_matches_single_shot() {
        let frame = Frame::Tick {
            session: 3,
            ticks: vec![awsad_serve::wire::WireTick {
                estimate: vec![0.25, -1.5],
                input: vec![0.125],
            }],
        };
        let bytes = frame_bytes(&frame);
        let chunks = vec![1; bytes.len()];
        let mut reader = ChunkedReader::new(bytes, chunks);
        let mut assembler = FrameAssembler::new(1 << 20);
        let payloads = collect_all(&mut reader, &mut assembler);
        assert_eq!(payloads, vec![frame.encode()]);
        assert_eq!(assembler.resumed_frames(), 1);
    }

    #[test]
    fn back_to_back_frames_in_one_read_all_complete() {
        let frames = [
            Frame::MetricsQuery,
            Frame::Hello { client: "a".into() },
            Frame::CloseSession { session: 9 },
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&frame_bytes(f));
        }
        let mut reader = ChunkedReader::new(bytes, vec![]);
        let mut assembler = FrameAssembler::new(1 << 20);
        let payloads = collect_all(&mut reader, &mut assembler);
        assert_eq!(
            payloads,
            frames.iter().map(|f| f.encode()).collect::<Vec<_>>()
        );
        // One wakeup delivered everything: nothing was resumed.
        assert_eq!(assembler.resumed_frames(), 0);
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut bytes = u32::MAX.to_be_bytes().to_vec();
        bytes.push(0xaa);
        let mut reader = ChunkedReader::new(bytes, vec![]);
        let mut assembler = FrameAssembler::new(1 << 20);
        let mut pool = BufferPool::default();
        let mut out = Vec::new();
        loop {
            match assembler.read_available(&mut reader, &mut pool, &mut out) {
                ReadStatus::WouldBlock => continue,
                ReadStatus::Protocol(WireError::FrameTooLarge { len, max }) => {
                    assert_eq!(len, u32::MAX);
                    assert_eq!(max, 1 << 20);
                    break;
                }
                other => panic!("expected FrameTooLarge, got {other:?}"),
            }
        }
        assert!(out.is_empty());
    }

    #[test]
    fn eof_mid_frame_is_truncation_not_clean_close() {
        let bytes = frame_bytes(&Frame::MetricsQuery);
        for cut in 1..bytes.len() {
            let mut reader = ChunkedReader::new(bytes[..cut].to_vec(), vec![]);
            let mut assembler = FrameAssembler::new(1 << 20);
            let mut pool = BufferPool::default();
            let mut out = Vec::new();
            loop {
                match assembler.read_available(&mut reader, &mut pool, &mut out) {
                    ReadStatus::WouldBlock => continue,
                    ReadStatus::Protocol(WireError::Truncated) => break,
                    other => panic!("cut {cut}: expected Truncated, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn mid_frame_timer_arms_on_first_byte_and_clears_on_completion() {
        let bytes = frame_bytes(&Frame::MetricsQuery);
        let mut assembler = FrameAssembler::new(1 << 20);
        assert!(assembler.mid_frame_since().is_none());
        let mut reader = ChunkedReader::new(bytes.clone(), vec![2]);
        let mut pool = BufferPool::default();
        let mut out = Vec::new();
        // First wakeup: two bytes of prefix — timer armed.
        loop {
            match assembler.read_available(&mut reader, &mut pool, &mut out) {
                ReadStatus::WouldBlock if out.is_empty() && reader.pos > 0 => break,
                ReadStatus::WouldBlock => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(assembler.mid_frame_since().is_some());
        // Remaining bytes: frame completes — timer disarmed.
        loop {
            match assembler.read_available(&mut reader, &mut pool, &mut out) {
                ReadStatus::WouldBlock if !out.is_empty() => break,
                ReadStatus::Closed => break,
                ReadStatus::WouldBlock => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(out.len(), 1);
        assert!(assembler.mid_frame_since().is_none());
    }

    #[test]
    fn write_queue_vectored_flush_preserves_byte_order() {
        // A "socket" accepting at most 7 bytes per write: exercises
        // partial-iovec advancement across flush calls.
        struct Throttled {
            accepted: Vec<u8>,
            budget_per_call: usize,
        }
        impl Write for Throttled {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(self.budget_per_call);
                self.accepted.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                let mut budget = self.budget_per_call;
                let mut wrote = 0;
                for b in bufs {
                    if budget == 0 {
                        break;
                    }
                    let n = b.len().min(budget);
                    self.accepted.extend_from_slice(&b[..n]);
                    wrote += n;
                    budget -= n;
                }
                Ok(wrote)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let frames = [
            Frame::SessionClosed { session: 1 },
            Frame::Hello {
                client: "burst".into(),
            },
            Frame::MetricsQuery,
        ];
        let mut queue = WriteQueue::default();
        let mut expected = Vec::new();
        for f in &frames {
            let payload = f.encode();
            expected.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            expected.extend_from_slice(&payload);
            queue.push_frame(payload);
        }
        assert_eq!(queue.queued_bytes(), expected.len());

        let mut sink = Throttled {
            accepted: Vec::new(),
            budget_per_call: 7,
        };
        while !queue.flush(&mut sink).unwrap() || !queue.is_empty() {}
        assert_eq!(sink.accepted, expected);
        assert_eq!(queue.queued_bytes(), 0);
    }

    #[test]
    fn buffer_pool_reuses_and_bounds() {
        let mut pool = BufferPool::new(2, 16);
        let a = pool.get(8);
        let ptr = a.as_ptr() as usize;
        pool.put(a);
        assert_eq!(pool.pooled(), 1);
        let b = pool.get(4);
        assert_eq!(b.as_ptr() as usize, ptr, "capacity was reused");
        assert_eq!(b, vec![0; 4], "reused buffer is re-zeroed");
        pool.put(b);
        pool.put(vec![0; 8]);
        pool.put(vec![0; 8]); // over the count bound: dropped
        assert_eq!(pool.pooled(), 2);
        pool.put(vec![0; 64]); // over the capacity bound: dropped
        assert_eq!(pool.pooled(), 2);
    }
}
