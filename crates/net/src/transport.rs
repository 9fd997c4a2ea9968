//! Transport abstraction: the same framed protocol over TCP or Unix
//! domain sockets.
//!
//! Endpoints are written `tcp:host:port` (or bare `host:port`) and
//! `unix:/path/to.sock`; [`Endpoint::parse`] accepts both spellings so
//! CLI flags and test harnesses share one grammar. [`Listener`] and
//! [`Conn`] are thin enums over the two std socket families — just
//! enough surface (accept, connect, clone, timeouts, shutdown) for the
//! agent and collector, with `Read`/`Write` passing straight through to
//! the underlying stream.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::time::Duration;

/// Where a collector listens / an agent dials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, `host:port`.
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    /// Parse an endpoint spec: `unix:/path`, `tcp:host:port`, or bare
    /// `host:port`.
    pub fn parse(spec: &str) -> io::Result<Endpoint> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                return Ok(Endpoint::Unix(PathBuf::from(path)));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix: endpoints are not available on this platform",
                ));
            }
        }
        let addr = spec.strip_prefix("tcp:").unwrap_or(spec);
        if addr.rsplit_once(':').is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("endpoint {spec:?} is neither unix:<path> nor host:port"),
            ));
        }
        Ok(Endpoint::Tcp(addr.to_string()))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A bound listening socket of either family.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Bind to an endpoint. A stale Unix socket file left by a previous
    /// process is removed first — agents dial fresh, so an unbindable
    /// leftover path would otherwise require manual cleanup after every
    /// unclean shutdown. Only a socket is ever removed: any other file
    /// at the path stays, and the bind fails with the OS's `AddrInUse`.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr.as_str())?)),
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                use std::os::unix::fs::FileTypeExt;
                if std::fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_socket()) {
                    let _ = std::fs::remove_file(path);
                }
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
        }
    }

    /// The bound endpoint — for TCP this resolves `port 0` to the actual
    /// port, which the loopback harness dials.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("unnamed unix listener"))?;
                Ok(Endpoint::Unix(path.to_path_buf()))
            }
        }
    }

    /// Toggle non-blocking accept (the collector's pump accepts between
    /// service rounds and must not wait for a dial).
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// Accept one connection.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Unix(s))
            }
        }
    }
}

/// A connected stream of either family.
#[derive(Debug)]
pub enum Conn {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Dial an endpoint.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Conn> {
        match endpoint {
            Endpoint::Tcp(addr) => Ok(Conn::Tcp(TcpStream::connect(addr.as_str())?)),
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        }
    }

    /// Force blocking (or non-blocking) mode. A stream accepted from a
    /// non-blocking listener may inherit the listener's mode on some
    /// platforms; the collector pins accepted streams back to blocking
    /// so read timeouts behave.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Bound the time a blocking read may wait.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Shut down both directions.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }

    /// Half-close: send end-of-stream and keep the read direction open,
    /// so what the peer already sent can still be read to its EOF.
    pub fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Write),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(Shutdown::Write),
        }
    }
}

/// Whether an I/O error is a read-timeout expiry rather than a dead
/// peer. Unix sockets report `WouldBlock`, TCP on some platforms
/// `TimedOut`.
pub fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, Frame};

    #[test]
    fn endpoint_grammar() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:9000").unwrap(),
            Endpoint::Tcp("127.0.0.1:9000".to_string())
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:9000").unwrap(),
            Endpoint::Tcp("127.0.0.1:9000".to_string())
        );
        assert!(Endpoint::parse("just-a-host").is_err());
        #[cfg(unix)]
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/x.sock"))
        );
    }

    #[test]
    fn endpoint_display_round_trips() {
        let ep = Endpoint::parse("tcp:127.0.0.1:9000").unwrap();
        assert_eq!(Endpoint::parse(&ep.to_string()).unwrap(), ep);
    }

    #[test]
    fn tcp_frames_cross_a_real_socket() {
        let listener =
            Listener::bind(&Endpoint::parse("127.0.0.1:0").unwrap()).expect("bind ephemeral");
        let ep = listener.local_endpoint().unwrap();
        let t = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let f = read_frame(&mut conn).unwrap();
            write_frame(&mut conn, &Frame::Ack { seq: 5 }).unwrap();
            f
        });
        let mut conn = Conn::connect(&ep).unwrap();
        write_frame(&mut conn, &Frame::Heartbeat { seq: 5 }).unwrap();
        assert_eq!(read_frame(&mut conn).unwrap(), Frame::Ack { seq: 5 });
        assert_eq!(t.join().unwrap(), Frame::Heartbeat { seq: 5 });
    }

    #[cfg(unix)]
    #[test]
    fn unix_frames_cross_a_real_socket() {
        let dir = std::env::temp_dir().join(format!("webcap-net-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("transport-test.sock");
        let ep = Endpoint::Unix(path.clone());
        let listener = Listener::bind(&ep).expect("bind unix");
        let t = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            read_frame(&mut conn).unwrap()
        });
        let mut conn = Conn::connect(&ep).unwrap();
        write_frame(&mut conn, &Frame::Bye { last_seq: 1 }).unwrap();
        assert_eq!(t.join().unwrap(), Frame::Bye { last_seq: 1 });
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn a_unix_bind_replaces_a_stale_socket_but_never_another_file() {
        let dir = std::env::temp_dir().join(format!("webcap-net-bind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // A regular file at the path is somebody's data: the bind fails
        // and the bytes stay.
        let file = dir.join("not-a-socket");
        std::fs::write(&file, b"operator data").unwrap();
        let err = Listener::bind(&Endpoint::Unix(file.clone())).expect_err("path is taken");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        assert_eq!(std::fs::read(&file).unwrap(), b"operator data");

        // A socket file whose listener is gone is stale: bind over it.
        let sock = dir.join("stale.sock");
        drop(Listener::bind(&Endpoint::Unix(sock.clone())).expect("first bind"));
        assert!(sock.exists(), "dropping a listener leaves its file");
        Listener::bind(&Endpoint::Unix(sock)).expect("bind over the stale socket");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
