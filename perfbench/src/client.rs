//! A minimal HTTP/1.1 client with a deadline on every call, and a bounded
//! join for threads, so the benchmark cannot hang on a stuck gateway.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One response: status and the full (de-chunked) body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

fn io_err(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Send `method path` with `body` and read the whole response within
/// `deadline` (connect, write and every read are bounded by it).
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    deadline: Duration,
) -> std::io::Result<Response> {
    let end = Instant::now() + deadline;
    let left = || {
        end.checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::TimedOut, "deadline passed"))
    };
    let mut stream = TcpStream::connect_timeout(&addr, left()?)?;
    stream.set_write_timeout(Some(left()?))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let read_line = |reader: &mut BufReader<TcpStream>, line: &mut String| {
        reader.get_ref().set_read_timeout(Some(left()?))?;
        line.clear();
        reader.read_line(line)
    };
    read_line(&mut reader, &mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io_err(format!("bad status line {line:?}")))?;
    let (mut len, mut chunked) = (0usize, false);
    loop {
        read_line(&mut reader, &mut line)?;
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
            if k == "content-length" {
                len = v.parse().map_err(|_| io_err(format!("bad content-length {v:?}")))?;
            } else if k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked") {
                chunked = true;
            }
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            read_line(&mut reader, &mut line)?;
            let size = usize::from_str_radix(line.trim(), 16)
                .map_err(|_| io_err(format!("bad chunk size {line:?}")))?;
            reader.get_ref().set_read_timeout(Some(left()?))?;
            let mut chunk = vec![0u8; size + 2];
            reader.read_exact(&mut chunk)?;
            if size == 0 {
                break;
            }
            body.extend_from_slice(&chunk[..size]);
        }
    } else {
        reader.get_ref().set_read_timeout(Some(left()?))?;
        body.resize(len, 0);
        reader.read_exact(&mut body)?;
    }
    Ok(Response { status, body })
}

/// Join `handle` if it finishes within `deadline`; `None` if it does not
/// (the thread is left to die with the process).
pub fn join_within<T>(handle: JoinHandle<T>, deadline: Duration) -> Option<std::thread::Result<T>> {
    let end = Instant::now() + deadline;
    while !handle.is_finished() {
        if Instant::now() >= end {
            return None;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Some(handle.join())
}
