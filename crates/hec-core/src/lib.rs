//! hec-core — the std-only support layer of the workspace.
//!
//! The offline build environment resolves no external crates, so every
//! capability the suite previously pulled from crates.io lives here,
//! implemented on `std` alone:
//!
//! * [`rng`] — a small deterministic generator (splitmix64-seeded
//!   xoshiro256++) with uniform/normal helpers, replacing `rand`;
//! * [`json`] — a minimal JSON value type with emit and parse, replacing
//!   `serde`/`serde_json` (types provide hand-written `to_json` /
//!   `from_json` via [`json::ToJson`] / [`json::FromJson`]);
//! * [`sync`] — poison-tolerant `Mutex`/`Condvar` wrappers, replacing
//!   `parking_lot` (msim ranks unwind through held locks by design);
//! * [`pool`] — [`pool::Threads`], a worker-count handle whose
//!   scoped-thread `par_map`/`par_chunks_mut`/`par_tasks` replace
//!   `rayon` for the OpenMP-style loops of the mini-apps, and the
//!   bounded [`pool::WorkerPool`] the serving tier admits requests to;
//! * [`probe`] — phase-scoped event counters and wall-clock spans: the
//!   capture layer the kernels and apps report measured workload
//!   characteristics through (deterministic `u64` event sums, free when
//!   disabled);
//! * [`retry`] — seeded exponential backoff with jitter, so the cluster
//!   router retries transient failures on a delay sequence tests can
//!   replay exactly.
//!
//! Everything is deliberately small: the suite needs determinism and
//! hermeticity, not feature breadth.

pub mod json;
pub mod pool;
pub mod probe;
pub mod retry;
pub mod rng;
pub mod sync;

pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::Rng;
