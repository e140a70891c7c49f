//! Newline-delimited framing over a blocking socket, shared by
//! `oa-serve`'s connection threads and `oa-router`'s client and shard
//! links, so both ends of every fabric hop split frames the same way.
//!
//! A frame is the bytes before a `\n`, with trailing `\r`s stripped and
//! invalid UTF-8 replaced; blank frames are skipped. A partial frame
//! stays buffered until its newline arrives, up to [`MAX_FRAME`] bytes.

use std::io::{ErrorKind, Read};
use std::net::TcpStream;

/// Hard cap on one request/response frame (1 MiB). A peer whose partial
/// frame grows past it is dropped: the frame can never complete, and the
/// stream cannot be resynchronized.
pub const MAX_FRAME: usize = 1 << 20;

/// A reader's starting buffer, and so the most one `read` asks for
/// while no long partial frame is buffered.
const READ_CHUNK: usize = 64 * 1024;

/// The read half of a connection: blocking reads reassembled into
/// frames, in one buffer that lives as long as the reader.
#[derive(Debug)]
pub struct FrameReader {
    stream: TcpStream,
    /// Read bytes live in `buf[..filled]`; between calls that is at most
    /// one partial frame, holding no newline, so each read searches only
    /// its own bytes and a frame trickled in byte by byte costs linear
    /// time. The buffer doubles only when a partial frame fills it, so
    /// it stays within twice [`MAX_FRAME`].
    buf: Vec<u8>,
    filled: usize,
}

impl FrameReader {
    /// Wraps the read half of a stream.
    pub fn new(stream: TcpStream) -> FrameReader {
        FrameReader {
            stream,
            buf: vec![0; READ_CHUNK],
            filled: 0,
        }
    }

    /// Blocks for the next read and returns the frames it completed
    /// (newline stripped, trailing `\r` removed, blank lines skipped,
    /// invalid UTF-8 replaced) — possibly none when the read ended
    /// mid-frame. `None` means the connection is finished: EOF, a read
    /// error, or a partial frame beyond [`MAX_FRAME`].
    pub fn read_frames(&mut self) -> Option<Vec<String>> {
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = loop {
            match self.stream.read(self.buf.get_mut(self.filled..)?) {
                Ok(0) => return None,
                Ok(n) => break n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        };
        let mut unsearched = self.filled;
        self.filled += n;
        let read = self.buf.get(..self.filled)?;
        let mut frames = Vec::new();
        let mut start = 0usize;
        while let Some(nl) = read
            .get(unsearched..)
            .and_then(|rest| rest.iter().position(|&b| b == b'\n'))
        {
            let end = unsearched + nl;
            let frame = read.get(start..end).unwrap_or_default();
            let mut text = String::from_utf8_lossy(frame).into_owned();
            while text.ends_with('\r') {
                text.pop();
            }
            if !text.trim().is_empty() {
                frames.push(text);
            }
            start = end + 1;
            unsearched = start;
        }
        self.buf.copy_within(start..self.filled, 0);
        self.filled -= start;
        (self.filled <= MAX_FRAME).then_some(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
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
    fn frames_reassemble_across_chunk_boundaries() {
        let (mut sender, mut reader) = pair();
        sender.write_all(b"{\"id\":1}\n{\"id\"").unwrap();
        assert_eq!(next_frames(&mut reader).unwrap(), vec!["{\"id\":1}"]);

        // The tail half-frame completes on the next bytes; the trailing
        // `\r` is stripped, blank lines are skipped and invalid UTF-8 is
        // replaced rather than rejected.
        sender.write_all(b":2}\r\n\n \r\nx\xffy\n").unwrap();
        let mut frames = Vec::new();
        while frames.len() < 2 {
            frames.extend(next_frames(&mut reader).unwrap());
        }
        assert_eq!(frames, vec!["{\"id\":2}", "x\u{fffd}y"]);

        // A frame longer than the starting buffer completes too (written
        // from a thread: it may not fit the socket buffers at once).
        let long = "y".repeat(3 * READ_CHUNK);
        let line = format!("{long}\n");
        let writer = std::thread::spawn(move || {
            sender.write_all(line.as_bytes()).unwrap();
            sender
        });
        assert_eq!(next_frames(&mut reader).unwrap(), vec![long]);

        // Peer disconnect finishes the reader.
        drop(writer.join().unwrap());
        assert!(next_frames(&mut reader).is_none());
    }

    #[test]
    fn oversized_frames_close_the_connection() {
        let (mut sender, mut reader) = pair();
        let writer = std::thread::spawn(move || {
            // The reader stops reading once it gives up, so the write
            // may fail partway; either way the frame never completes.
            let _ = sender.write_all(&vec![b'x'; MAX_FRAME + 2]);
            sender
        });
        assert!(
            next_frames(&mut reader).is_none(),
            "a frame beyond MAX_FRAME must close the conn"
        );
        drop(reader);
        drop(writer.join().unwrap());
    }
}
