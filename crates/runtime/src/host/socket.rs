//! The socket layer of the host core, written once for every backend:
//! listeners, one [`Socket`] per open endpoint (the host's open-socket
//! index), descriptors that live exactly while their endpoint is open,
//! send accounting, and one teardown path for close, exit and crash. The
//! backend keeps only its wire, behind the wire hooks of [`Policy`], and
//! reports back through [`accepted`], [`established`], [`conn_failed`]
//! and [`peer_closed`]. DESIGN.md §12 states the rules.

use bytes::Bytes;

use super::{dispatch, emit, Callback, HostCore, Policy};
use crate::events::KernelEvent;
use crate::fd::FdKind;
use crate::ids::{ConnId, HostId, Pid, Port};
use crate::program::{ConnEvent, ProcKey, SysError};
use crate::sys::CRASHED_AT_KEY;
use crate::trace::TraceCategory;

/// Where an open endpoint stands (a closed one leaves the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockState {
    /// An outgoing handshake in flight, or an incoming connection waiting
    /// in the listen queue. Sends are refused with `NotConnected`.
    Connecting,
    /// Open both ways.
    Established,
}

/// One open endpoint of a stream connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Socket {
    /// Where the endpoint stands.
    pub state: SockState,
    /// Its descriptor; `None` until an incoming connection is accepted.
    pub fd: Option<crate::ids::Fd>,
}

/// What the wire made of a connection attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dial {
    /// The handshake is in flight.
    Pending {
        /// The listening process, when the backend sees both ends; its
        /// endpoint waits in the listen queue until [`accepted`].
        server: Option<ProcKey>,
    },
    /// Already failed: the caller's endpoint is born closed and the wire
    /// reports why later through [`conn_failed`].
    Doomed,
}

/// Why an endpoint is being torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Teardown {
    /// The owner closed it or exited.
    Close,
    /// The owner's host crashed.
    Crash,
}

impl HostCore {
    /// The process listening on `port`, if any.
    pub fn listener(&self, port: Port) -> Option<Pid> {
        self.listeners.get(&port).copied()
    }

    /// The listener table, in port order.
    pub fn listeners(&self) -> impl Iterator<Item = (Port, Pid)> + '_ {
        self.listeners.iter().map(|(&port, &pid)| (port, pid))
    }

    /// `pid`'s open endpoint of `conn`, if it has one.
    pub fn socket(&self, conn: ConnId, pid: Pid) -> Option<Socket> {
        self.sockets.get(&(conn, pid)).copied()
    }

    /// The open endpoints on this host, in ascending (connection id,
    /// owner) order.
    pub fn sockets(&self) -> impl Iterator<Item = (ConnId, Pid, Socket)> + '_ {
        self.sockets
            .iter()
            .map(|(&(conn, pid), &sock)| (conn, pid, sock))
    }

    /// The owner of the first open endpoint of `conn` on this host.
    pub fn socket_owner(&self, conn: ConnId) -> Option<Pid> {
        let (&(c, pid), _) = self.sockets.range((conn, Pid(0))..).next()?;
        (c == conn).then_some(pid)
    }

    /// Closes `pid`'s endpoint of `conn`, the one place an endpoint
    /// closes: it leaves the index, its descriptor is released, and a live
    /// owner remembers it (so its later calls read `ConnectionClosed`).
    /// Returns whether the endpoint was open.
    pub fn close_socket(&mut self, conn: ConnId, pid: Pid) -> bool {
        let Some(sock) = self.sockets.remove(&(conn, pid)) else {
            return false;
        };
        if let Some(p) = self.kernel.get_mut(pid) {
            if let Some(fd) = sock.fd {
                p.fds.release(fd);
            }
            if p.is_alive() {
                self.closed_sockets.insert((pid, conn));
            }
        }
        true
    }

    /// The error for a call on an endpoint that is not open.
    fn not_open(&self, conn: ConnId, pid: Pid) -> SysError {
        if self.closed_sockets.contains(&(pid, conn)) {
            SysError::ConnectionClosed
        } else {
            SysError::NotConnected
        }
    }

    /// Opens (or moves) the live `pid`'s endpoint to `state`; `with_fd`
    /// gives it a descriptor if it has none.
    fn open_socket(&mut self, conn: ConnId, pid: Pid, state: SockState, with_fd: bool) {
        let Ok(p) = self.kernel.live_mut(pid) else {
            return;
        };
        let held = self.sockets.get(&(conn, pid)).and_then(|s| s.fd);
        let fd = held.or_else(|| with_fd.then(|| p.fds.alloc(FdKind::Socket { conn })));
        self.sockets.insert((conn, pid), Socket { state, fd });
    }
}

/// The `listen` syscall: `key` binds `port` on its host.
///
/// # Errors
///
/// [`SysError::HostDown`], [`SysError::PortInUse`], or whatever the
/// backend's [`Policy::listen_wire`] reports.
pub fn listen<P: Policy>(w: &mut P, key: ProcKey, port: Port) -> Result<(), SysError> {
    let (host, pid) = key;
    if !w.host_up(host) {
        return Err(SysError::HostDown);
    }
    if w.host(host).listener(port).is_some() {
        return Err(SysError::PortInUse);
    }
    w.listen_wire(key, port)?;
    let hc = w.host_mut(host);
    hc.listeners.insert(port, pid);
    if let Ok(p) = hc.kernel.live_mut(pid) {
        p.fds.alloc(FdKind::Listener { port });
    }
    w.trace(
        host,
        TraceCategory::Net,
        format!("pid {pid} listening on {port}"),
    );
    Ok(())
}

/// The `connect` syscall. A pending attempt gets its descriptor now; the
/// outcome arrives later as a [`ConnEvent`].
///
/// # Errors
///
/// Whatever the backend's [`Policy::dial`] reports
/// ([`SysError::NoSuchHost`] for an invalid host id).
pub fn connect<P: Policy>(
    w: &mut P,
    from: ProcKey,
    host: HostId,
    port: Port,
) -> Result<ConnId, SysError> {
    let (conn, dial) = w.dial(from, host, port)?;
    match dial {
        Dial::Pending { server } => {
            let hc = w.host_mut(from.0);
            hc.open_socket(conn, from.1, SockState::Connecting, true);
            if let Some((h, pid)) = server {
                w.host_mut(h)
                    .open_socket(conn, pid, SockState::Connecting, false);
            }
        }
        Dial::Doomed => {
            w.host_mut(from.0).closed_sockets.insert((from.1, conn));
        }
    }
    Ok(conn)
}

/// The wire accepted `conn` for the listener `key`: unless already
/// closed, its endpoint is established with a descriptor; then the
/// program hears `Accepted`.
pub fn accepted<P: Policy>(w: &mut P, key: ProcKey, conn: ConnId, peer: ProcKey, port: Port) {
    let hc = w.host_mut(key.0);
    if !hc.closed_sockets.contains(&(key.1, conn)) {
        hc.open_socket(conn, key.1, SockState::Established, true);
    }
    let event = ConnEvent::Accepted { peer, port };
    dispatch(w, key, Callback::Conn(conn, event));
}

/// The wire completed `key`'s handshake: an open endpoint is established,
/// then the program hears `Established`.
pub fn established<P: Policy>(w: &mut P, key: ProcKey, conn: ConnId) {
    let (host, pid) = key;
    if let Some(sock) = w.host_mut(host).sockets.get_mut(&(conn, pid)) {
        sock.state = SockState::Established;
    }
    dispatch(w, key, Callback::Conn(conn, ConnEvent::Established));
}

/// The wire failed `key`'s attempt: the endpoint closes, then the program
/// hears `Failed`.
pub fn conn_failed<P: Policy>(w: &mut P, key: ProcKey, conn: ConnId, reason: SysError) {
    w.host_mut(key.0).close_socket(conn, key.1);
    dispatch(w, key, Callback::Conn(conn, ConnEvent::Failed(reason)));
}

/// The wire reports the far side gone: the endpoint closes, then the
/// program hears `Closed`.
pub fn peer_closed<P: Policy>(w: &mut P, key: ProcKey, conn: ConnId) {
    w.host_mut(key.0).close_socket(conn, key.1);
    dispatch(w, key, Callback::Conn(conn, ConnEvent::Closed));
}

/// The `send` syscall. The sender is charged and its tracer hears
/// `MsgSent` before the wire takes the data, so a write the wire later
/// loses still counts (TCP semantics).
///
/// # Errors
///
/// [`SysError::NotConnected`] unless the caller's endpoint is
/// established, [`SysError::ConnectionClosed`] once it has closed, or
/// what [`Policy::transmit`] reports.
pub fn send<P: Policy>(
    w: &mut P,
    from: ProcKey,
    conn: ConnId,
    data: Bytes,
) -> Result<(), SysError> {
    let (host, pid) = from;
    let hc = w.host_mut(host);
    match hc.socket(conn, pid) {
        Some(sock) if sock.state == SockState::Established => {}
        Some(_) => return Err(SysError::NotConnected),
        None => return Err(hc.not_open(conn, pid)),
    }
    let bytes = data.len();
    if let Ok(p) = hc.kernel.live_mut(pid) {
        p.rusage.msgs_sent += 1;
        p.rusage.bytes_sent += bytes as u64;
    }
    emit(w, host, KernelEvent::MsgSent { pid, bytes });
    w.transmit(from, conn, data)
}

/// The `close` syscall: the endpoint closes and the peer is told. Closing
/// a closed endpoint is a no-op.
///
/// # Errors
///
/// [`SysError::NotConnected`] if the caller never had the endpoint.
pub fn close<P: Policy>(w: &mut P, key: ProcKey, conn: ConnId) -> Result<(), SysError> {
    let hc = w.host_mut(key.0);
    if hc.close_socket(conn, key.1) {
        w.hang_up(key, conn, Teardown::Close);
        return Ok(());
    }
    match hc.not_open(conn, key.1) {
        SysError::ConnectionClosed => Ok(()),
        e => Err(e),
    }
}

/// Whether `key`'s endpoint is established and its route is up.
pub fn conn_alive<P: Policy>(w: &P, key: ProcKey, conn: ConnId) -> bool {
    w.host(key.0)
        .socket(conn, key.1)
        .is_some_and(|s| s.state == SockState::Established)
        && w.route_alive(key, conn)
}

/// Process exit: the owner's listeners go and its endpoints close in
/// ascending connection id, each peer told.
pub(super) fn release<P: Policy>(w: &mut P, key: ProcKey) {
    let (host, pid) = key;
    let hc = w.host_mut(host);
    hc.listeners.retain(|_, owner| *owner != pid);
    let mine: Vec<ConnId> = hc
        .sockets
        .keys()
        .filter(|&&(_, owner)| owner == pid)
        .map(|&(conn, _)| conn)
        .collect();
    let forgotten: Vec<(Pid, ConnId)> = hc
        .closed_sockets
        .range((pid, ConnId(0))..=(pid, ConnId(u64::MAX)))
        .copied()
        .collect();
    for end in forgotten {
        hc.closed_sockets.remove(&end);
    }
    for conn in mine {
        if w.host_mut(host).close_socket(conn, pid) {
            w.hang_up(key, conn, Teardown::Close);
        }
    }
}

/// A host crash: every endpoint closes in ascending connection id, each
/// peer told; programs, held callbacks, services and listeners go; the
/// instant is stamped into stable storage under [`CRASHED_AT_KEY`]. The
/// process table stays until the reboot wipes it.
pub fn crash<P: Policy>(w: &mut P, host: HostId) {
    let ends: Vec<(ConnId, Pid)> = w.host(host).sockets.keys().copied().collect();
    for (conn, pid) in ends {
        if w.host_mut(host).close_socket(conn, pid) {
            w.hang_up((host, pid), conn, Teardown::Crash);
        }
    }
    let now = w.now();
    let hc = w.host_mut(host);
    let stamp = Bytes::copy_from_slice(&now.as_micros().to_be_bytes());
    hc.stable.insert(CRASHED_AT_KEY.to_string(), stamp);
    hc.crashed_services = hc.service_names();
    hc.programs.clear();
    hc.held.clear();
    hc.services.clear();
    hc.listeners.clear();
    hc.closed_sockets.clear();
}
