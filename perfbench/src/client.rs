//! The benchmark's HTTP client: `shil::serve::client::request`, one
//! request per connection, except that each connection ends with a reset.
//!
//! The server closes first (`Connection: close`), so an orderly close
//! leaves its side of every connection in TIME_WAIT for a minute. A serve
//! run opens about 15 000 connections, and a run that starts among the
//! 20 000–30 000 sockets its predecessors left completes a third fewer
//! jobs per second than one that starts among none. Closing with
//! `SO_LINGER` 0 after the server's FIN has arrived removes the server's
//! socket at once, so no run inherits the state of the runs before it.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use shil::serve::client::Response;

/// Performs one request against `addr`, like the program's client.
pub fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    reset_on_close(&stream)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    // Read to the server's FIN before the reset, so no response byte is lost.
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse(&raw)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparseable HTTP response"))
}

fn parse(raw: &str) -> Option<Response> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()?
        .split_ascii_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Some(Response {
        status,
        headers,
        body: body.to_string(),
    })
}

/// Sets `SO_LINGER` to zero, so closing the socket sends a reset.
#[cfg(target_os = "linux")]
fn reset_on_close(stream: &TcpStream) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    // Linux values of the option's level and name.
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    let len = std::mem::size_of::<Linger>() as u32;
    // SAFETY: the descriptor is open for the borrow of `stream`, and the
    // option value is a live `struct linger` of the length passed.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_LINGER, &linger, len) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Elsewhere the connection closes in order.
#[cfg(not(target_os = "linux"))]
fn reset_on_close(_stream: &TcpStream) -> io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_status_headers_and_body() {
        let r = parse(
            "HTTP/1.1 202 Accepted\r\nContent-Type: a/b\r\nX-Shil-Partial: 1\r\n\r\n{\"id\":3}",
        )
        .expect("parses");
        assert_eq!(r.status, 202);
        assert_eq!(r.header("x-shil-partial"), Some("1"));
        assert_eq!(r.body, "{\"id\":3}");
        assert!(parse("HTTP/1.1 200 OK\r\n").is_none());
    }

    #[test]
    fn a_reset_close_still_delivers_the_whole_response() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf).expect("request");
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
                .expect("response");
        });
        let r = request(&addr, "GET", "/x", None).expect("request");
        server.join().expect("server thread");
        assert_eq!((r.status, r.body.as_str()), (200, "hello"));
    }
}
