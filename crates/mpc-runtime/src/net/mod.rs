//! Network pricing: a [`NetworkModel`] turns a run's [`crate::Metrics`]
//! into a [`NetReport`] of simulated cluster seconds.

pub mod model;
pub mod report;

pub use model::{NetworkModel, WORD_BYTES};
pub use report::NetReport;
