//! Netlist structural validation and the crate error type.

use std::error::Error;
use std::fmt;

use crate::netlist::{Driver, Netlist};

/// Errors produced by netlist construction and validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate was instantiated with the wrong number of pins.
    PinCountMismatch {
        /// Cell name.
        cell: String,
        /// Expected input pin count.
        expected_inputs: usize,
        /// Provided input pin count.
        got_inputs: usize,
        /// Expected output pin count.
        expected_outputs: usize,
        /// Provided output pin count.
        got_outputs: usize,
    },
    /// A net would be driven by two sources.
    MultipleDrivers {
        /// Net name.
        net: String,
    },
    /// A net has sinks (or is a primary output) but no driver.
    FloatingNet {
        /// Net name.
        net: String,
    },
    /// The combinational part of the netlist is cyclic.
    CombinationalLoop {
        /// Number of gates that could not be ordered.
        gates_in_loop: usize,
    },
    /// A cell name was not found in the library.
    UnknownCell {
        /// The offending name.
        name: String,
    },
    /// Verilog-subset parse failure, with the position and source fragment
    /// needed to act on it.
    Parse {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the offending token (0 when unknown).
        col: usize,
        /// The offending source fragment, truncated.
        context: String,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::PinCountMismatch {
                cell,
                expected_inputs,
                got_inputs,
                expected_outputs,
                got_outputs,
            } => write!(
                f,
                "cell {cell} expects {expected_inputs} inputs / {expected_outputs} outputs, \
                 got {got_inputs} / {got_outputs}"
            ),
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net {net} has multiple drivers")
            }
            NetlistError::FloatingNet { net } => write!(f, "net {net} has loads but no driver"),
            NetlistError::CombinationalLoop { gates_in_loop } => {
                write!(f, "combinational loop involving {gates_in_loop} gates")
            }
            NetlistError::UnknownCell { name } => write!(f, "unknown cell {name}"),
            NetlistError::Parse { line, col, context, message } => {
                write!(f, "parse error at {line}:{col}: {message}")?;
                if !context.is_empty() {
                    write!(f, " (near `{context}`)")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for NetlistError {}

/// Truncates a source fragment for use as [`NetlistError::Parse`] context.
pub(crate) fn parse_context(fragment: &str) -> String {
    const MAX: usize = 48;
    let t = fragment.trim();
    if t.len() <= MAX {
        t.to_string()
    } else {
        let mut end = MAX;
        while !t.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &t[..end])
    }
}

/// 1-based column where `fragment` starts on 1-based line `line` of `text`;
/// falls back to the first non-blank column (or 1) when the fragment spans
/// lines or was rewritten during statement joining.
pub(crate) fn column_of(text: &str, line: usize, fragment: &str) -> usize {
    let Some(raw) = text.lines().nth(line.saturating_sub(1)) else {
        return 1;
    };
    let probe = fragment.split_whitespace().next().unwrap_or("");
    if !probe.is_empty() {
        if let Some(pos) = raw.find(probe) {
            return pos + 1;
        }
    }
    raw.find(|c: char| !c.is_whitespace()).map_or(1, |p| p + 1)
}

/// Checks structural invariants of a netlist:
///
/// 1. every net with loads (or marked as a primary output) has a driver;
/// 2. the combinational portion is acyclic.
///
/// Driver uniqueness and pin-count correctness are enforced at construction
/// time by [`Netlist::add_gate`].
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn validate(nl: &Netlist) -> Result<(), NetlistError> {
    for (_, net) in nl.nets() {
        let is_po = nl.primary_outputs().iter().any(|&o| nl.net(o).name == net.name);
        if (is_po || !net.loads.is_empty()) && net.driver.is_none() {
            return Err(NetlistError::FloatingNet { net: net.name.clone() });
        }
        if let Some(Driver::Gate(g, _)) = net.driver {
            if nl.gate(g).is_none() {
                return Err(NetlistError::FloatingNet { net: net.name.clone() });
            }
        }
    }
    nl.comb_view()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;

    #[test]
    fn floating_net_detected() {
        let lib = Library::osu018();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let dangling = nl.add_named_net("dangling");
        let n1 = nl.add_net();
        let nand = nl.lib().cell_id("NAND2X1").unwrap();
        nl.add_gate("g", nand, &[a, dangling], &[n1]).unwrap();
        nl.mark_output(n1);
        let err = nl.validate().unwrap_err();
        assert!(matches!(err, NetlistError::FloatingNet { .. }));
    }

    #[test]
    fn valid_netlist_passes() {
        let lib = Library::osu018();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let y = nl.add_named_net("y");
        let inv = nl.lib().cell_id("INVX1").unwrap();
        nl.add_gate("g", inv, &[a], &[y]).unwrap();
        nl.mark_output(y);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn error_messages_are_lowercase_sentences() {
        let e = NetlistError::MultipleDrivers { net: "x".into() };
        let msg = e.to_string();
        assert!(msg.starts_with("net"));
        assert!(!msg.ends_with('.'));
    }
}
