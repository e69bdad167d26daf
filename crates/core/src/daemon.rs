//! Synchronous HTTP/JSON front end for the [`CoverageEngine`].
//!
//! A deliberately small, dependency-free server: a blocking accept loop
//! over [`std::net::TcpListener`], one request per connection
//! (`Connection: close`), hand-rolled HTTP/1.1 framing, and
//! [`netobs::json`] for request bodies. No async runtime — coverage
//! queries are CPU-bound BDD work on the engine's one manager, which is
//! `&mut` for every operation, so a thread pool would only serialise.
//!
//! Endpoints:
//!
//! | method | path | query/body | answer |
//! |--------|------|------------|--------|
//! | GET  | `/covers`      | `rule=<dev>.<idx>`          | coverage of one rule (LRU-cached) |
//! | GET  | `/config-coverage` | optional `construct=<wire id>` | config-level coverage summary, or one construct's drill-down |
//! | GET  | `/metrics`     | —                           | headline metrics (memoised per engine version), engine state, netobs snapshots |
//! | GET  | `/delta-since` | `trace=<version>`           | deltas applied after that engine version; `410` with `oldest` once they left the bounded log |
//! | POST | `/delta`       | JSON delta document         | applies a rule/test/topology delta |
//! | POST | `/autogen`     | optional `{"seed","budget"}` | runs one coverage-guided generation round |
//! | POST | `/shutdown`    | —                           | acknowledges, then the serve loop exits |
//!
//! The parsing and handling layers are pure functions over [`Request`]
//! and [`Response`] so they are testable without sockets; only
//! [`serve`] and the [`http_get`]/[`http_post`] client helpers touch
//! the network.
//!
//! [`CoverageEngine`]: crate::engine::CoverageEngine

mod codec;
mod framing;
mod handlers;
mod tests;

pub use codec::{decode_rule, decode_trace, parse_rule_id, trace_to_json};
pub use framing::{
    http_get, http_post, http_request, read_request, serve, write_response, Request, Response,
};
pub use handlers::handle;
