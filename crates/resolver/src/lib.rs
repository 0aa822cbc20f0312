//! # dnhunter-resolver
//!
//! The **DNS Resolver** of DN-Hunter (paper §3.1.1, Fig. 2, Algorithm 1):
//! a replica of the monitored clients' DNS caches built by sniffing DNS
//! responses.
//!
//! * FQDN entries live in a FIFO circular list (*Clist*) of size `L`
//!   ([`clist`]), which bounds entry lifetime without garbage collection.
//! * Lookup goes `clientIP → serverIP → FQDN` through two levels of maps
//!   ([`maps`]); the paper uses ordered C++ `map`s and notes hash tables as
//!   an alternative — both are provided and benchmarked.
//! * When a Clist slot is overwritten, its back-references are removed from
//!   the maps (Algorithm 1 lines 23–25).
//! * [`DnsResolver::lookup`] implements lines 27–34: given the
//!   `(clientIP, serverIP)` of a new flow, return the FQDN the client
//!   resolved most recently for that server.
//!
//! Extensions evaluated in the paper's §6 are included: a multi-label mode
//! (return *all* recent FQDNs for a pair, quantifying label confusion). For
//! larger client populations the parallel pipeline (`dnhunter::pipeline`)
//! gives each worker shard its own plain [`DnsResolver`], §3.1.1-style.

#![forbid(unsafe_code)]

/// Shadow-model self-checking of the §3.1 resolver semantics.
pub mod check;
/// The paper's §3.1 FIFO circular list (*Clist*).
pub mod clist;
/// The paper's §6 Clist-sizing replay harness.
pub mod dimensioning;
/// FQDN interning: the §3.2 real-time allocation diet for Algorithm 1.
pub mod intern;
/// Map implementations backing the §3.1 two-level lookup.
pub mod maps;
/// The single-threaded DNS resolver of the paper's §3.1 / Algorithm 1.
pub mod resolver;
/// Hit/miss/confusion counters for the paper's §6 efficiency numbers.
pub mod stats;

pub use check::{CheckedResolver, ShadowModel};
pub use intern::{InternStats, NameInterner};
pub use maps::{HashedTables, OrderedTables, TableFamily};
pub use resolver::{DnsResolver, InsertOutcome, ResolverConfig};
pub use stats::ResolverStats;
