//! Reliable stream connections (simulated TCP virtual circuits).
//!
//! The PPM's sibling LPMs and tools communicate over "private reliable
//! stream communication channels" — 4.3BSD TCP connections. This module
//! holds the wire's record of each connection; the endpoints' states and
//! descriptors are the host core's (`ppm_runtime::host::socket`), and
//! delivery scheduling lives in [`crate::world::World`]. Guarantees preserved: in-order delivery per
//! direction, connection-oriented failure reporting (a break is observed
//! by the sender), and per-connection statistics for the IPC-tracing tool.

use ppm_simnet::time::SimTime;
use ppm_simnet::topology::HostId;

use crate::ids::{ConnId, Port};
use crate::program::ProcKey;

/// One endpoint of a connection.
pub type Endpoint = ProcKey;

/// Lifecycle of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// SYN in flight.
    Connecting,
    /// Open in both directions.
    Established,
    /// Broken or closed; no further traffic.
    Closed,
}

/// Per-connection counters, the raw material of the paper's planned
/// "IPC activity tracing and analysis" tool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Messages sent client→server.
    pub msgs_to_server: u64,
    /// Messages sent server→client.
    pub msgs_to_client: u64,
    /// Bytes sent client→server.
    pub bytes_to_server: u64,
    /// Bytes sent server→client.
    pub bytes_to_client: u64,
    /// When the connection was opened.
    pub opened_at: SimTime,
    /// When it was established (handshake complete).
    pub established_at: Option<SimTime>,
    /// When it closed, if it has.
    pub closed_at: Option<SimTime>,
}

/// A stream connection between two processes, possibly on different hosts.
#[derive(Debug, Clone)]
pub struct Connection {
    /// Identifier.
    pub id: ConnId,
    /// The initiating endpoint.
    pub client: Endpoint,
    /// The accepting endpoint.
    pub server: Endpoint,
    /// The server port connected to.
    pub port: Port,
    /// Earliest admissible arrival time of the next message, per
    /// direction, enforcing FIFO despite jittered latencies.
    /// Index 0: messages arriving at the client; 1: at the server.
    pub next_arrival: [SimTime; 2],
    /// Counters.
    pub stats: ConnStats,
}

impl Connection {
    /// Creates a connection in the `Connecting` state.
    pub fn new(id: ConnId, client: Endpoint, server: Endpoint, port: Port, now: SimTime) -> Self {
        Connection {
            id,
            client,
            server,
            port,
            next_arrival: [SimTime::ZERO; 2],
            stats: ConnStats {
                opened_at: now,
                ..Default::default()
            },
        }
    }

    /// Where the connection stands on the wire, read from its timestamps:
    /// `Closed` once it has a close time, `Established` once it has an
    /// establishment time. (Each endpoint's own state is the host core's.)
    pub fn state(&self) -> ConnState {
        match (self.stats.established_at, self.stats.closed_at) {
            (_, Some(_)) => ConnState::Closed,
            (Some(_), None) => ConnState::Established,
            (None, None) => ConnState::Connecting,
        }
    }

    /// The peer of `end`, or `None` if `end` is not an endpoint.
    pub fn peer_of(&self, end: Endpoint) -> Option<Endpoint> {
        if end == self.client {
            Some(self.server)
        } else if end == self.server {
            Some(self.client)
        } else {
            None
        }
    }

    /// True when `end` is one of the two endpoints.
    pub fn has_endpoint(&self, end: Endpoint) -> bool {
        self.peer_of(end).is_some()
    }

    /// True when either endpoint lives on `host`.
    pub fn touches_host(&self, host: HostId) -> bool {
        self.client.0 == host || self.server.0 == host
    }

    /// Records a send from `from` of `bytes` bytes and returns the index
    /// into [`Connection::next_arrival`] for the receiving side.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint.
    pub fn record_send(&mut self, from: Endpoint, bytes: usize) -> usize {
        if from == self.client {
            self.stats.msgs_to_server += 1;
            self.stats.bytes_to_server += bytes as u64;
            1
        } else if from == self.server {
            self.stats.msgs_to_client += 1;
            self.stats.bytes_to_client += bytes as u64;
            0
        } else {
            panic!("record_send from non-endpoint");
        }
    }

    /// Total messages in both directions.
    pub fn total_msgs(&self) -> u64 {
        self.stats.msgs_to_server + self.stats.msgs_to_client
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.stats.bytes_to_server + self.stats.bytes_to_client
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Pid;

    fn conn() -> Connection {
        Connection::new(
            ConnId(1),
            (HostId(0), Pid(10)),
            (HostId(1), Pid(20)),
            Port(3),
            SimTime::from_millis(2),
        )
    }

    #[test]
    fn starts_connecting_with_open_timestamp() {
        let c = conn();
        assert_eq!(c.state(), ConnState::Connecting);
        assert_eq!(c.stats.opened_at, SimTime::from_millis(2));
        assert_eq!(c.stats.established_at, None);
    }

    #[test]
    fn peer_resolution() {
        let c = conn();
        assert_eq!(c.peer_of((HostId(0), Pid(10))), Some((HostId(1), Pid(20))));
        assert_eq!(c.peer_of((HostId(1), Pid(20))), Some((HostId(0), Pid(10))));
        assert_eq!(c.peer_of((HostId(2), Pid(1))), None);
        assert!(c.has_endpoint((HostId(0), Pid(10))));
        assert!(!c.has_endpoint((HostId(0), Pid(11))));
    }

    #[test]
    fn host_touch_tests() {
        let c = conn();
        assert!(c.touches_host(HostId(0)));
        assert!(c.touches_host(HostId(1)));
        assert!(!c.touches_host(HostId(2)));
    }

    #[test]
    fn record_send_updates_direction_stats() {
        let mut c = conn();
        let dir = c.record_send((HostId(0), Pid(10)), 100);
        assert_eq!(dir, 1, "client send arrives at server side");
        let dir = c.record_send((HostId(1), Pid(20)), 40);
        assert_eq!(dir, 0);
        assert_eq!(c.stats.msgs_to_server, 1);
        assert_eq!(c.stats.bytes_to_server, 100);
        assert_eq!(c.stats.msgs_to_client, 1);
        assert_eq!(c.stats.bytes_to_client, 40);
        assert_eq!(c.total_msgs(), 2);
        assert_eq!(c.total_bytes(), 140);
    }

    #[test]
    #[should_panic(expected = "non-endpoint")]
    fn record_send_from_stranger_panics() {
        let mut c = conn();
        c.record_send((HostId(9), Pid(9)), 1);
    }
}
