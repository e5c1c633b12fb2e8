//! The SES benchmark: four workloads over the matcher, the pattern bank
//! and the match server, with output checks that do not rely on the
//! engine under test. See `perfbench/README.md`.

pub mod args;
pub mod check;
pub mod inputs;
pub mod stats;
pub mod wire;
pub mod workloads;
