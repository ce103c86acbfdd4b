//! Transport: one [`Conn`] type over TCP and Unix-domain sockets, and the
//! [`ServerAddr`] spelling (`tcp://host:port` / `unix:///path`) shared by
//! the server binary, the client library and the load generator.

use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// Where a server listens / a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerAddr {
    /// A TCP address (`host:port`). Port 0 lets the OS pick; the server
    /// reports the bound port.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl ServerAddr {
    /// Parses `tcp://host:port` or `unix:///path`.
    pub fn parse(s: &str) -> Result<ServerAddr, String> {
        if let Some(rest) = s.strip_prefix("tcp://") {
            if rest.is_empty() {
                return Err("tcp:// needs host:port".into());
            }
            Ok(ServerAddr::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("unix://") {
            if rest.is_empty() {
                return Err("unix:// needs a path".into());
            }
            Ok(ServerAddr::Unix(PathBuf::from(rest)))
        } else {
            Err(format!("address '{s}' must start with tcp:// or unix://"))
        }
    }

    /// Connects a client stream to this address.
    pub fn connect(&self) -> std::io::Result<Conn> {
        match self {
            ServerAddr::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            ServerAddr::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        }
    }
}

impl std::fmt::Display for ServerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerAddr::Tcp(a) => write!(f, "tcp://{a}"),
            ServerAddr::Unix(p) => write!(f, "unix://{}", p.display()),
        }
    }
}

/// One bidirectional byte stream: a TCP or Unix-domain socket.
#[derive(Debug)]
pub enum Conn {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl Conn {
    /// Sets (or clears) the read timeout.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }

    /// Sets (or clears) the write timeout.
    pub fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(d),
            Conn::Unix(s) => s.set_write_timeout(d),
        }
    }

    /// Shuts down both directions (a hard close the peer observes as EOF).
    pub fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    /// Forwarded, not defaulted: the default writes only the first
    /// buffer, which would split every frame in two.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write_vectored(bufs),
            Conn::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parsing() {
        assert_eq!(
            ServerAddr::parse("tcp://127.0.0.1:9000").unwrap(),
            ServerAddr::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(
            ServerAddr::parse("unix:///tmp/pnw.sock").unwrap(),
            ServerAddr::Unix(PathBuf::from("/tmp/pnw.sock"))
        );
        assert!(ServerAddr::parse("http://x").is_err());
        assert!(ServerAddr::parse("tcp://").is_err());
        assert!(ServerAddr::parse("unix://").is_err());
        assert_eq!(
            ServerAddr::parse("unix:///a/b.sock").unwrap().to_string(),
            "unix:///a/b.sock"
        );
    }
}
