//! A real-socket byte interposer for the telemetry plane.
//!
//! [`spawn_chaos_proxy`] listens on an ephemeral TCP port and forwards
//! every accepted connection to an upstream collector endpoint,
//! applying *pacing* faults — deterministic split writes and stalls —
//! to the client→upstream byte stream. Bytes are never altered,
//! reordered, or dropped, so the interposition is outcome-neutral by
//! construction: the proxied deployment must produce byte-identical
//! decisions to a direct connection, while the collector's readiness
//! polling and incremental frame reassembly get exercised at every
//! possible split point of a real socket.
//!
//! Destructive faults (corruption, truncation, drops, partitions) are
//! deliberately excluded here: over a live socket their timing would
//! interact with the agent's reconnect loop nondeterministically. They
//! are exercised instead by the in-process mesh
//! ([`crate::mesh::run_net_mesh`]), where delivery order is scripted.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use webcap_net::Endpoint;

use crate::schedule::{ChaosSchedule, FrameFault};

/// Handle to a running chaos proxy; stopping (or dropping) it shuts the
/// accept loop down.
#[derive(Debug)]
pub struct ProxyHandle {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ProxyHandle {
    /// The endpoint agents should dial instead of the collector.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Stop the accept loop and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProxyHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a chaos proxy in front of `upstream` (TCP only).
///
/// Each accepted connection gets a deterministic connection index in
/// accept order; the chaos schedule's `Split`/`Stall` rolls for
/// `(conn, read-event)` drive the pacing of the client→upstream pump.
pub fn spawn_chaos_proxy(upstream: &Endpoint, chaos: ChaosSchedule) -> io::Result<ProxyHandle> {
    let upstream_addr = match upstream {
        Endpoint::Tcp(addr) => addr.clone(),
        #[cfg(unix)]
        Endpoint::Unix(_) => {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "chaos proxy supports tcp endpoints only",
            ))
        }
    };
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let endpoint = Endpoint::Tcp(listener.local_addr()?.to_string());
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut conn_idx: u32 = 0;
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((client, _)) => {
                        let idx = conn_idx;
                        conn_idx = conn_idx.wrapping_add(1);
                        match TcpStream::connect(upstream_addr.as_str()) {
                            Ok(up) => {
                                spawn_pumps(client, up, chaos.clone(), idx, Arc::clone(&stop))
                            }
                            Err(_) => {
                                let _ = client.shutdown(Shutdown::Both);
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        })
    };
    Ok(ProxyHandle {
        endpoint,
        stop,
        accept: Some(accept),
    })
}

/// Wire up the two pump threads for one proxied connection. The pumps
/// run detached; they exit on EOF, error, or the stop flag.
fn spawn_pumps(
    client: TcpStream,
    upstream: TcpStream,
    chaos: ChaosSchedule,
    conn: u32,
    stop: Arc<AtomicBool>,
) {
    let (client_r, upstream_w) = match (client.try_clone(), upstream.try_clone()) {
        (Ok(c), Ok(u)) => (c, u),
        _ => {
            let _ = client.shutdown(Shutdown::Both);
            let _ = upstream.shutdown(Shutdown::Both);
            return;
        }
    };
    {
        let stop = Arc::clone(&stop);
        thread::spawn(move || pump_chaotic(client_r, upstream_w, chaos, conn, stop));
    }
    thread::spawn(move || pump_plain(upstream, client, stop));
}

/// Client→upstream pump with deterministic pacing faults.
fn pump_chaotic(
    mut from: TcpStream,
    mut to: TcpStream,
    chaos: ChaosSchedule,
    conn: u32,
    stop: Arc<AtomicBool>,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    let mut event: u64 = 0;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let Some(data) = buf.get(..n) else { break };
                let fault = chaos.roll_fault(conn, event);
                let done = match fault {
                    FrameFault::Stall => {
                        thread::sleep(Duration::from_millis(5));
                        to.write_all(data)
                    }
                    FrameFault::Split => write_split(&mut to, &chaos, conn, event, data),
                    // All destructive faults pass through intact: the
                    // real-socket plane is pacing-only.
                    FrameFault::None
                    | FrameFault::Corrupt
                    | FrameFault::Truncate
                    | FrameFault::Drop
                    | FrameFault::Duplicate
                    | FrameFault::Reorder
                    | FrameFault::Partitioned => to.write_all(data),
                };
                event = event.wrapping_add(1);
                if done.is_err() {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// Upstream→client pump: a plain copy.
fn pump_plain(mut from: TcpStream, mut to: TcpStream, stop: Arc<AtomicBool>) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let Some(data) = buf.get(..n) else { break };
                if to.write_all(data).is_err() {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// Write `data` in deterministic chunk sizes drawn from the schedule,
/// flushing between chunks so each lands as its own TCP segment where
/// the stack allows.
fn write_split(
    to: &mut TcpStream,
    chaos: &ChaosSchedule,
    conn: u32,
    event: u64,
    data: &[u8],
) -> io::Result<()> {
    let mut rest = data;
    let mut piece: u64 = 0;
    while !rest.is_empty() {
        let k = chaos.chunk_len(conn, event, piece).min(rest.len());
        let (head, tail) = rest.split_at(k);
        to.write_all(head)?;
        to.flush()?;
        rest = tail;
        piece = piece.wrapping_add(1);
    }
    Ok(())
}
