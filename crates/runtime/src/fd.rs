//! Per-process file descriptor tables.
//!
//! Section 7 of the paper plans "a tool for displaying the open and closed
//! files of processes, a tool for displaying file descriptors". The
//! simulated kernel keeps enough descriptor state for those tools to work.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{ConnId, Fd, Port};

/// How a file was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpenMode {
    /// Read only.
    Read,
    /// Write only.
    Write,
    /// Read and write.
    ReadWrite,
}

impl fmt::Display for OpenMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpenMode::Read => "r",
            OpenMode::Write => "w",
            OpenMode::ReadWrite => "rw",
        })
    }
}

/// What a descriptor refers to.
#[derive(Debug, Clone, PartialEq)]
pub enum FdKind {
    /// A regular file.
    File {
        /// Path opened.
        path: String,
        /// Open mode.
        mode: OpenMode,
    },
    /// One end of a stream connection (socket).
    Socket {
        /// The connection.
        conn: ConnId,
    },
    /// A listening socket.
    Listener {
        /// The bound port.
        port: Port,
    },
    /// The LPM's kernel socket, where the kernel deposits event messages.
    KernelSocket,
}

impl FdKind {
    /// Short classification for display tools.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FdKind::File { .. } => "file",
            FdKind::Socket { .. } => "socket",
            FdKind::Listener { .. } => "listener",
            FdKind::KernelSocket => "kernel",
        }
    }
}

/// A process's descriptor table.
#[derive(Debug, Clone, Default)]
pub struct FdTable {
    entries: BTreeMap<Fd, FdKind>,
    next: u32,
}

impl FdTable {
    /// Creates an empty table. Descriptors start at 3, as if stdin,
    /// stdout and stderr were already taken.
    pub fn new() -> Self {
        FdTable {
            entries: BTreeMap::new(),
            next: 3,
        }
    }

    /// Allocates a descriptor for `kind`.
    pub fn alloc(&mut self, kind: FdKind) -> Fd {
        let fd = Fd(self.next);
        self.next += 1;
        self.entries.insert(fd, kind);
        fd
    }

    /// Releases a descriptor, returning what it referred to.
    pub fn release(&mut self, fd: Fd) -> Option<FdKind> {
        self.entries.remove(&fd)
    }

    /// Looks a descriptor up.
    pub fn get(&self, fd: Fd) -> Option<&FdKind> {
        self.entries.get(&fd)
    }

    /// All entries in descriptor order.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, &FdKind)> {
        self.entries.iter().map(|(fd, k)| (*fd, k))
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no descriptors are open.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_start_at_three_and_increment() {
        let mut t = FdTable::new();
        let a = t.alloc(FdKind::KernelSocket);
        let b = t.alloc(FdKind::Listener { port: Port(3) });
        assert_eq!(a, Fd(3));
        assert_eq!(b, Fd(4));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn release_removes_and_returns() {
        let mut t = FdTable::new();
        let fd = t.alloc(FdKind::File {
            path: "/etc/passwd".into(),
            mode: OpenMode::Read,
        });
        let k = t.release(fd).unwrap();
        assert!(matches!(k, FdKind::File { .. }));
        assert!(t.release(fd).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn descriptors_are_not_reused() {
        let mut t = FdTable::new();
        let a = t.alloc(FdKind::KernelSocket);
        t.release(a);
        let b = t.alloc(FdKind::KernelSocket);
        assert_ne!(a, b, "descriptor ids are never recycled in the sim");
    }

    #[test]
    fn kind_names_cover_all_variants() {
        assert_eq!(FdKind::KernelSocket.kind_name(), "kernel");
        assert_eq!(FdKind::Listener { port: Port(1) }.kind_name(), "listener");
        assert_eq!(FdKind::Socket { conn: ConnId(1) }.kind_name(), "socket");
        assert_eq!(
            FdKind::File {
                path: "x".into(),
                mode: OpenMode::ReadWrite
            }
            .kind_name(),
            "file"
        );
    }

    #[test]
    fn open_mode_display() {
        assert_eq!(OpenMode::Read.to_string(), "r");
        assert_eq!(OpenMode::Write.to_string(), "w");
        assert_eq!(OpenMode::ReadWrite.to_string(), "rw");
    }
}
