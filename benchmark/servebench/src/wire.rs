//! A blocking client connection: newline-delimited frames over TCP.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// An answer later than this counts as a failed op.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect with `TCP_NODELAY` and the reply timeout set.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Allow one reply to take up to `timeout` (set-up loads, recovery).
    pub fn set_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }

    /// Send request frames in one write (more than one pipelines them).
    pub fn send(&mut self, frames: &[&str]) -> io::Result<()> {
        let mut buf = String::with_capacity(frames.iter().map(|f| f.len() + 1).sum());
        for frame in frames {
            buf.push_str(frame);
            buf.push('\n');
        }
        self.stream.write_all(buf.as_bytes())
    }

    /// Read one response frame, without its newline. A closed connection
    /// and a timeout are both errors.
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        if !line.ends_with('\n') {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        line.pop();
        Ok(line)
    }

    /// Read one answer of up to `frames` frames. An `ERR` frame is a whole
    /// answer by itself, so reading stops there.
    pub fn recv_answer(&mut self, frames: usize) -> io::Result<Vec<String>> {
        let mut answer = Vec::with_capacity(frames);
        while answer.len() < frames {
            let frame = self.recv()?;
            let err = frame.starts_with("ERR ");
            answer.push(frame);
            if err {
                break;
            }
        }
        Ok(answer)
    }

    /// Send one request and read its answer of up to `frames` frames.
    pub fn call(&mut self, request: &str, frames: usize) -> io::Result<Vec<String>> {
        self.send(&[request])?;
        self.recv_answer(frames)
    }
}
