//! A minimal HTTP/1.1 client with connection reuse.
//!
//! It frames every response by `Content-Length` and keeps the socket open
//! unless the response says `Connection: close`, so a server that starts
//! honouring keep-alive shows its gain here without a change to the
//! benchmark.  Nothing is retried: a refused connection or a broken
//! exchange is returned as an error and counted as a failed operation.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened.
    pub connects: u64,
    /// Exchanges attempted.
    pub requests: u64,
}

/// Longest a single exchange may stall before it counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connects: 0,
            requests: 0,
        }
    }

    /// Sends one request and reads its response.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        self.requests += 1;
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        // Head and body in one write: no small-segment delay between them.
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        conn.get_mut().write_all(request.as_bytes())?;

        let mut line = String::new();
        conn.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("malformed status line {line:?}")))?;
        let mut length = None;
        let mut close = false;
        loop {
            line.clear();
            if conn.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the response head".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| bad(format!("bad Content-Length {value:?}")))?,
                    );
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length".into()))?;
        let mut body = vec![0u8; length];
        conn.read_exact(&mut body)?;
        if close {
            self.conn = None;
        }
        let body = String::from_utf8(body).map_err(|_| bad("response body is not UTF-8".into()))?;
        Ok(Reply { status, body })
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves `replies` canned responses on one connection each, or on one
    /// shared connection when `keep_alive`.
    fn serve(replies: usize, keep_alive: bool) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut served = 0;
            while served < replies {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream);
                loop {
                    let mut length = 0;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap() == 0 {
                            return;
                        }
                        if line.trim_end().is_empty() {
                            break;
                        }
                        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                            length = v.trim().parse().unwrap();
                        }
                    }
                    let mut body = vec![0u8; length];
                    reader.read_exact(&mut body).unwrap();
                    let connection = if keep_alive { "keep-alive" } else { "close" };
                    let reply = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
                        body.len()
                    );
                    let stream = reader.get_mut();
                    stream.write_all(reply.as_bytes()).unwrap();
                    stream.write_all(&body).unwrap();
                    served += 1;
                    if !keep_alive || served == replies {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn reuses_the_connection_only_when_allowed() {
        for keep_alive in [false, true] {
            let (addr, server) = serve(3, keep_alive);
            let mut client = Client::new(addr);
            for body in ["{\"a\":1}", "", "xyz"] {
                let reply = client.send("POST", "/echo", body).unwrap();
                assert_eq!(reply.status, 200);
                assert_eq!(reply.body, body);
            }
            assert_eq!(client.connects, if keep_alive { 1 } else { 3 });
            assert_eq!(client.requests, 3);
            drop(client);
            server.join().unwrap();
        }
    }
}
