//! # cbrain-serve
//!
//! `cbrand`: a long-lived serving daemon for the C-Brain reproduction.
//!
//! Compiling a layer is a pure function of its [`cbrain::LayerKey`], so
//! a process that stays alive can amortize compilation across every
//! request it ever serves — and across restarts, via the persisted cache
//! file ([`cbrain::persist`]). The daemon speaks a newline-delimited
//! JSON protocol (in-tree [`json`] codec; the workspace takes no
//! external dependencies) with nine requests: `hello`, `compile`,
//! `simulate`, `forward`, `stats`, `progress`, `metrics`, `evict`,
//! `shutdown`.
//!
//! * [`daemon`] — a single-threaded [`cbrain_reactor`] event loop that
//!   owns every socket (idle connections cost a descriptor, not a
//!   thread) and feeds parsed compute requests as tickets into a
//!   bounded worker pool (overload is shed at accept with a protocol
//!   v2.1 `busy` answer), all connections sharing one
//!   [`cbrain::CompiledLayerCache`];
//! * [`batch`] — the [`cbrain::CompileBackend`] that merges compile
//!   work-lists from concurrent connections into deterministic pool
//!   batches;
//! * [`wire`] — request/event types and their JSON framing;
//! * [`client`] — the client half, which rebuilds a
//!   [`cbrain::NetworkReport`] from the stream so its rendering is
//!   byte-identical to a single-process `cbrain run`.
//!
//! # Quick start
//!
//! ```
//! use cbrain_serve::daemon::{Daemon, DaemonOptions};
//! use cbrain_serve::client::Client;
//! use cbrain_serve::wire::RunRequest;
//!
//! let daemon = Daemon::bind("127.0.0.1:0", DaemonOptions::default())?;
//! let addr = daemon.local_addr().to_string();
//! let server = std::thread::spawn(move || daemon.run());
//!
//! let mut client = Client::builder(&addr).connect()?;
//! let report = client.simulate(&RunRequest::default(), |_layer| {})?;
//! assert!(report.cycles() > 0);
//!
//! client.submit(&cbrain_serve::wire::Request::Shutdown, |_| {})?;
//! server.join().unwrap()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod client;
pub mod daemon;
pub mod json;
pub mod wire;

pub use batch::CompileBatcher;
pub use client::{Client, ClientBuilder, ClientError};
pub use daemon::{Daemon, DaemonOptions};
pub use wire::{
    Event, NetworkSource, Request, RunRequest, WireError, PROTOCOL_MINOR, PROTOCOL_VERSION,
};
