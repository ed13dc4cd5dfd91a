//! aide-store: the crash-safe persistent storage engine.
//!
//! This crate puts the tracker's archive store on disk. It implements
//! the same all-`&self` [`Repository`](aide_rcs::repo::Repository)
//! trait that `MemRepository` does, so every layer above it — the
//! snapshot service, the engine, the experiment drivers — runs
//! unchanged over either backend; `MemRepository` stays as the
//! reference implementation the equivalence suite compares against.
//!
//! The moving parts, bottom-up:
//!
//! - [`frame`] — the checksummed record codec shared by the WAL and
//!   segment files; detects torn tails at the exact byte they begin.
//! - [`wal`] — the write-ahead log with group commit: concurrent
//!   committers batch into shared fsyncs, and a shared/exclusive gate
//!   lets checkpoints observe a quiescent log.
//! - [`repo`] — [`DiskRepository`]: sharded in-memory index over
//!   append-only files, checkpointing, compaction, recovery-on-open,
//!   and the optional background compactor thread.
//! - [`vfs`] — [`RealVfs`], the only module in the workspace that
//!   touches the real filesystem (clippy's `disallowed_methods` and
//!   `disallowed_types` lists enforce the scope; see LINTS.md). The
//!   engine itself speaks only `aide_util::vfs::Vfs`, so the entire
//!   stack — recovery included — runs deterministically over `MemVfs`
//!   and under injected faults over `FaultVfs`.
//!
//! Durability contract: a `store` or `remove` returns `Ok` only after
//! its WAL frame is fsynced; recovery after any crash yields a state
//! that is a prefix of acknowledged history (never a torn record, never
//! a resurrected delete). The crash suite drives a workload over
//! `FaultVfs`, kills it at every injected durability point, reopens,
//! and checks exactly that.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type
)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod frame;
pub mod repo;
pub mod vfs;
pub mod wal;

pub use repo::{spawn_compactor, CompactorHandle, DiskRepository, StoreOptions, STORE_SHARDS};
pub use vfs::RealVfs;
