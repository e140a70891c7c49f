//! `oa_net`: the router's blocking socket halves.
//!
//! Every router connection — client or shard link — is a blocking
//! socket with a thread parked in `read` on it, so a frame is handled
//! the moment it arrives and an idle connection costs a sleeping thread
//! instead of a poll. The read half is `oa-serve`'s
//! [`oa_serve::FrameReader`], the one framing the shards use too; the
//! write half is an `Outbound` queue, which never writes while holding
//! its lock.
//!
//! Read frames are capped at [`oa_serve::MAX_FRAME`] and a connection's
//! unsent bytes at [`MAX_WRITE_BUFFER`]; a peer exceeding either is
//! dropped (oversized-frame and slow-consumer protection).

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;
use std::time::Duration;

/// Hard cap on unsent bytes per connection (8 MiB); beyond it the peer
/// is considered a non-consuming client and dropped.
pub const MAX_WRITE_BUFFER: usize = 8 << 20;

/// Bound on one shard dial, so a blackholed backend cannot hold its
/// link thread (and therefore [`crate::Router::shutdown`]) for the
/// kernel's connect timeout.
const DIAL_TIMEOUT: Duration = Duration::from_secs(1);

/// Dials `addr_text` (fresh resolution via [`oa_serve::resolve`]), with
/// Nagle off: every write is one whole frame.
///
/// # Errors
///
/// Resolution or connection failures (the last one when several
/// addresses resolve).
pub(crate) fn dial(addr_text: &str) -> std::io::Result<TcpStream> {
    let mut last = None;
    for addr in oa_serve::resolve(addr_text)? {
        match TcpStream::connect_timeout(&addr, DIAL_TIMEOUT) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("no address to dial")))
}

/// Bytes queued on one connection and not yet handed to the kernel.
#[derive(Debug, Default)]
struct Queue {
    bytes: Vec<u8>,
    /// Bytes taken by the writer and not yet fully written.
    in_flight: usize,
    closed: bool,
}

/// The write half of a connection. Frames are appended under a short
/// lock; the bytes are written outside it by whichever thread holds the
/// write token, so frames stay whole and in queue order without any
/// thread blocking on a peer while it holds a lock. A connection with a
/// writer thread ([`Outbound::set_writer`]) is written only by that
/// thread, so a peer that stops reading stalls nothing but its own
/// writer; without one, the queuing thread writes itself.
#[derive(Debug)]
pub(crate) struct Outbound {
    stream: TcpStream,
    queue: Mutex<Queue>,
    /// The write token: taken with `Acquire` and released with
    /// `Release`, so one thread at a time writes the stream.
    writing: AtomicBool,
    writer: OnceLock<Thread>,
}

impl Outbound {
    /// Wraps the write half of a stream.
    pub(crate) fn new(stream: TcpStream) -> Outbound {
        Outbound {
            stream,
            queue: Mutex::new(Queue::default()),
            writing: AtomicBool::new(false),
            writer: OnceLock::new(),
        }
    }

    /// Hands every write on this connection to `writer`, a thread
    /// running [`Outbound::write_loop`].
    pub(crate) fn set_writer(&self, writer: Thread) {
        let _ = self.writer.set(writer);
    }

    /// Queues one frame (the caller appends the newline) and gets it
    /// written. A connection whose unsent bytes would pass
    /// [`MAX_WRITE_BUFFER`] is closed instead; frames queued after a
    /// close are discarded.
    pub(crate) fn enqueue(&self, frame: &[u8]) {
        {
            let mut queue = self.queue.lock().unwrap_or_else(|p| p.into_inner());
            if queue.closed {
                return;
            }
            if queue.bytes.len() + queue.in_flight + frame.len() > MAX_WRITE_BUFFER {
                drop(queue);
                self.close();
                return;
            }
            queue.bytes.extend_from_slice(frame);
        }
        match self.writer.get() {
            Some(writer) => writer.unpark(),
            None => self.write_queued(),
        }
    }

    /// Closes the connection in both directions: its reader sees EOF,
    /// a write in progress fails, and nothing more is queued.
    pub(crate) fn close(&self) {
        self.queue.lock().unwrap_or_else(|p| p.into_inner()).closed = true;
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(writer) = self.writer.get() {
            writer.unpark();
        }
    }

    /// Writes queued bytes until the queue is empty, unless another
    /// thread holds the write token — it then writes them instead. A
    /// write error closes the connection.
    fn write_queued(&self) {
        while self
            .writing
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            loop {
                let bytes = {
                    let mut queue = self.queue.lock().unwrap_or_else(|p| p.into_inner());
                    let bytes = std::mem::take(&mut queue.bytes);
                    queue.in_flight = bytes.len();
                    bytes
                };
                if bytes.is_empty() {
                    break;
                }
                let written = (&self.stream).write_all(&bytes);
                self.queue
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .in_flight = 0;
                if written.is_err() {
                    self.close();
                }
            }
            self.writing.store(false, Ordering::Release);
            // A frame queued between the last take and the release saw
            // the token held and left its bytes for us.
            if self
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .bytes
                .is_empty()
            {
                return;
            }
        }
    }

    /// The writer thread's body: write whatever is queued, park until
    /// [`Outbound::enqueue`] or [`Outbound::close`] unparks it, and return
    /// once the connection is closed.
    pub(crate) fn write_loop(&self) {
        loop {
            self.write_queued();
            if self.queue.lock().unwrap_or_else(|p| p.into_inner()).closed {
                return;
            }
            std::thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_serve::FrameReader;
    use std::net::TcpListener;

    /// A connected pair: the test's sending end and the accepted end
    /// wrapped in a reader.
    fn pair() -> (TcpStream, FrameReader) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (sender, FrameReader::new(accepted))
    }

    /// Reads until at least one frame completes (a read may end
    /// mid-frame) or the connection finishes.
    fn next_frames(reader: &mut FrameReader) -> Option<Vec<String>> {
        loop {
            let frames = reader.read_frames()?;
            if !frames.is_empty() {
                return Some(frames);
            }
        }
    }

    #[test]
    fn outbound_writes_frames_in_order_and_refuses_overflow() {
        let (sender, mut reader) = pair();
        let out = Outbound::new(sender);
        out.enqueue(b"{\"id\":1}\n");
        out.enqueue(b"{\"id\":2}\n");
        let mut frames = Vec::new();
        while frames.len() < 2 {
            frames.extend(next_frames(&mut reader).unwrap());
        }
        assert_eq!(frames, vec!["{\"id\":1}", "{\"id\":2}"]);

        // A frame that would pass the unsent-bytes cap closes the
        // connection instead of queuing.
        out.enqueue(&vec![b'x'; MAX_WRITE_BUFFER + 1]);
        assert!(next_frames(&mut reader).is_none());
        out.enqueue(b"{\"id\":3}\n");
        assert!(
            out.queue.lock().unwrap().bytes.is_empty(),
            "closed connections queue nothing"
        );
    }
}
