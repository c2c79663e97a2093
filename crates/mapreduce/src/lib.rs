//! # edison-mapreduce
//!
//! The Section-5.2 substrate: everything Hadoop 2.5.0 provided to the
//! paper's MapReduce experiments, rebuilt over the simulation kernel.
//!
//! * [`hdfs`] — block-level distributed filesystem: placement, replication,
//!   data-locality queries (the paper tunes replication 2 on Edison / 1 on
//!   Dell so both clusters see ≈95 % data-local maps).
//! * [`yarn`] — the RM/NM/AM container machinery: memory-bounded container
//!   scheduling on 1 s heartbeats, JVM start-up cost per container, an
//!   application master that occupies its own container. Container
//!   allocation overhead — the effect the paper's wordcount-vs-wordcount2
//!   comparison isolates — falls out of these mechanics.
//! * [`engine`] — the job executor: map (read → map → sort/spill),
//!   shuffle (per-fetch network flows), reduce (merge → reduce → replicated
//!   HDFS write), driven as one discrete-event world per job.
//! * [`jobs`] — wordcount(+2), logcount(+2), pi and terasort. Each job is
//!   **executable**: real `Mapper`/`Reducer` logic runs on real bytes in
//!   tests (and a local runner verifies output against an oracle), and a
//!   fitted [`jobs::JobProfile`] drives the same job at paper scale.
//! * [`datagen`] — synthetic corpus / YARN-log / teragen generators with
//!   the paper's file counts and sizes.
//!
//! The experiment entry point is [`engine::run_job_checked`], which returns
//! wall time, energy and the Figure 12–17 utilisation timelines, or a
//! typed error when a fault leaves the job unable to finish.

pub mod datagen;
pub mod engine;
pub mod hdfs;
pub mod jobs;
pub mod local;
pub mod yarn;

pub use engine::{run_job_checked, run_job_traced_checked, ClusterSetup, JobOutcome};
pub use jobs::JobProfile;
