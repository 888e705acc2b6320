//! Wire-level serving: a dependency-free HTTP/1.1 + JSON front end over
//! [`crate::service::SirumService`], built on `std::net` only so the build
//! stays offline.
//!
//! The subsystem splits into:
//!
//! - [`metrics`] — log-bucket latency histograms and the per-endpoint
//!   counters behind `GET /metrics` (also reused by the service layer for
//!   job-latency stats);
//! - [`http`] — request parsing and response writing for a deliberately
//!   small, hostile-input-hardened slice of HTTP/1.1 (keep-alive,
//!   pipelining, size caps, read timeouts);
//! - [`router`] — endpoint dispatch mapping the HTTP surface onto the
//!   in-process service API;
//! - [`server`] — the accept loop, connection cap, and graceful drain;
//! - [`client`] — a minimal blocking client used by the integration tests
//!   and the `sirum-bench` workloads.

pub mod client;
pub mod http;
pub mod metrics;
pub mod router;
pub mod server;
