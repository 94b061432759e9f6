//! The typed errors of the resilient flow driver.
//!
//! Every failure [`run`](super::run) and [`run_resumed`](super::run_resumed)
//! meet maps into one [`FlowError`] variant instead of panicking. They
//! return `Err` only for an invalid netlist, a seed design that does not
//! fit its own floorplan, or a checkpoint that does not match the run:
//! each follows from the input alone, so a retry would reproduce it.
//! Failures after the seed analysis (a checkpoint write, a panic in the
//! loop) are absorbed into
//! [`FlowReport::recovered`](super::FlowReport::recovered).

use std::error::Error;
use std::fmt;

/// A typed flow failure.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowError {
    /// The netlist violates a structural invariant (floating net,
    /// combinational loop, unknown cell, pin mismatch).
    InvalidNetlist {
        /// Description of the violated invariant.
        message: String,
    },
    /// `PDesign()` rejected the design: it no longer fits the fixed
    /// floorplan (the paper's hard die-area constraint).
    Placement {
        /// Sites required by the unplaced gates.
        needed_sites: usize,
        /// Free sites remaining in the floorplan.
        free_sites: usize,
    },
    /// A checkpoint could not be written, read, or validated.
    Checkpoint {
        /// The checkpoint path or identifier.
        path: String,
        /// What went wrong.
        message: String,
    },
    /// A flow stage panicked or failed internally; the flow recovered and
    /// reports what it had.
    Internal {
        /// The stage that failed (`"resynth"`, `"server.worker"`, …).
        stage: String,
        /// The panic payload or failure description.
        message: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::InvalidNetlist { message } => write!(f, "invalid netlist: {message}"),
            FlowError::Placement { needed_sites, free_sites } => write!(
                f,
                "placement rejected: needs {needed_sites} sites, {free_sites} free in the fixed floorplan"
            ),
            FlowError::Checkpoint { path, message } => {
                write!(f, "checkpoint {path}: {message}")
            }
            FlowError::Internal { stage, message } => {
                write!(f, "internal failure in {stage}: {message}")
            }
        }
    }
}

impl Error for FlowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let placement = FlowError::Placement { needed_sites: 10, free_sites: 4 };
        let s = placement.to_string();
        assert!(s.contains("needs 10 sites, 4 free"), "{s}");
        let checkpoint =
            FlowError::Checkpoint { path: "ck.json".into(), message: "read failed".into() };
        assert_eq!(checkpoint.to_string(), "checkpoint ck.json: read failed");
    }
}
