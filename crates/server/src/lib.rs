//! Serving the Predict-and-Write store over a socket.
//!
//! The store crates reproduce the ICDE 2021 "Predict and Write" design:
//! a K-means model steers each PUT to a cluster-affine free bucket so NVM
//! cells flip fewer bits. This crate puts a process boundary in front of
//! it — the piece every real deployment has and most reproductions skip —
//! without changing a single store-side invariant:
//!
//! * [`protocol`] — length-prefixed, CRC-framed binary messages
//!   (PUT/GET/DELETE/BATCH/PING) with typed errors; pure encode/decode
//!   shared by server, client, tests, and benchmarks.
//! * [`Server`] — TCP or Unix-socket front end: per-connection
//!   pipelining, a bounded admission gate surfacing
//!   [`WireError::Overloaded`](protocol::WireError), store-level
//!   [`Backpressure`](protocol::WireError::Backpressure) forwarded with
//!   shard id and queue depth, per-request deadlines, idle timeouts,
//!   malformed-frame quarantine, and a graceful drain that checkpoints
//!   the store on the way out.
//! * [`Client`] — synchronous calls, explicit pipelining, and the
//!   fault-injection hooks (killed connections, torn frames, corrupt
//!   frames) the robustness tests drive the server with.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use pnw_core::{PnwConfig, PnwStore, Store};
//! use pnw_server::{Client, Server, ServerAddr, ServerConfig};
//!
//! let store: Arc<dyn Store> =
//!     Arc::new(PnwStore::new(PnwConfig::new(1024, 16).with_clusters(4)));
//! let server = Server::start(
//!     store,
//!     &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.put(7, &[0xAB; 16]).unwrap();
//! assert_eq!(client.get(7).unwrap(), Some(vec![0xAB; 16]));
//!
//! drop(client);
//! let report = server.drain().unwrap(); // graceful: flush, checkpoint, close
//! assert!(report.clean);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod net;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use net::{Conn, ServerAddr};
pub use protocol::{Request, Response, WireError, WireOp};
pub use server::{DrainReport, Server, ServerConfig, ServerStats};

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn note_shutdown(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that set a flag readable via
/// [`shutdown_requested`] — the process-level trigger for
/// [`Server::drain`]. Uses the C `signal(2)` the standard library already
/// links rather than pulling in a signals crate; storing to an atomic is
/// async-signal-safe.
pub fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, note_shutdown as *const () as usize);
        signal(SIGINT, note_shutdown as *const () as usize);
    }
}

/// Whether a shutdown signal has arrived since
/// [`install_shutdown_handler`] ran.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}
