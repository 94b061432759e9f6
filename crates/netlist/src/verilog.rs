//! Structural Verilog subset writer and parser.
//!
//! The dialect is the flat gate-level netlist form that logic synthesis
//! tools emit: one module, `input`/`output`/`wire` declarations, and named
//! port-connection instances of library cells. Constants may be written as
//! `1'b0` / `1'b1`.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ids::NetId;
use crate::library::Library;
use crate::netlist::Netlist;
use crate::validate::{column_of, parse_context, NetlistError};

/// Serialises a netlist as structural Verilog.
pub fn write_verilog(nl: &Netlist) -> String {
    let mut s = String::new();
    let ports: Vec<&str> = nl
        .primary_inputs()
        .iter()
        .chain(nl.primary_outputs().iter())
        .map(|&n| nl.net(n).name.as_str())
        .collect();
    s.push_str(&format!("module {} ({});\n", nl.name(), ports.join(", ")));
    for &pi in nl.primary_inputs() {
        s.push_str(&format!("  input {};\n", nl.net(pi).name));
    }
    for &po in nl.primary_outputs() {
        s.push_str(&format!("  output {};\n", nl.net(po).name));
    }
    for (id, net) in nl.nets() {
        let is_port = nl.primary_inputs().contains(&id) || nl.primary_outputs().contains(&id);
        let is_const = matches!(net.driver, Some(crate::netlist::Driver::Const(_)));
        let connected = net.driver.is_some() || !net.loads.is_empty();
        if !is_port && !is_const && connected {
            s.push_str(&format!("  wire {};\n", net.name));
        }
    }
    for (_, gate) in nl.gates() {
        let cell = nl.lib().cell(gate.cell);
        let mut conns = Vec::new();
        for (i, pin) in cell.inputs.iter().enumerate() {
            conns.push(format!(".{}({})", pin, net_ref(nl, gate.inputs[i])));
        }
        for (i, out) in cell.outputs.iter().enumerate() {
            conns.push(format!(".{}({})", out.name, net_ref(nl, gate.outputs[i])));
        }
        s.push_str(&format!("  {} {} ({});\n", cell.name, gate.name, conns.join(", ")));
    }
    s.push_str("endmodule\n");
    s
}

fn net_ref(nl: &Netlist, id: NetId) -> String {
    match nl.net(id).driver {
        Some(crate::netlist::Driver::Const(false)) => "1'b0".to_string(),
        Some(crate::netlist::Driver::Const(true)) => "1'b1".to_string(),
        _ => nl.net(id).name.clone(),
    }
}

/// Parses the structural Verilog subset produced by [`write_verilog`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on syntax the subset does not cover,
/// [`NetlistError::UnknownCell`] for instances of cells missing from `lib`,
/// and construction errors for malformed connectivity.
pub fn parse_verilog(text: &str, lib: Arc<Library>) -> Result<Netlist, NetlistError> {
    let mut nl: Option<Netlist> = None;
    let mut nets: HashMap<String, NetId> = HashMap::new();
    let mut pending_outputs: Vec<String> = Vec::new();

    // Join statements: a statement ends with ';' or is module/endmodule.
    let mut statements: Vec<(usize, String)> = Vec::new();
    let mut acc = String::new();
    let mut acc_line = 1usize;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if acc.is_empty() {
            acc_line = lineno + 1;
        }
        acc.push(' ');
        acc.push_str(line);
        while let Some(pos) = acc.find(';') {
            let stmt: String = acc[..pos].trim().to_string();
            acc = acc[pos + 1..].to_string();
            if !stmt.is_empty() {
                statements.push((acc_line, stmt));
            }
        }
        if acc.trim() == "endmodule" {
            statements.push((lineno + 1, "endmodule".to_string()));
            acc.clear();
        }
    }
    if !acc.trim().is_empty() {
        return Err(NetlistError::Parse {
            line: acc_line,
            col: 1,
            context: parse_context(&acc),
            message: "unterminated statement".into(),
        });
    }

    // Statement-level errors point at the statement's first line; the
    // column is where the statement text begins on that line.
    let err = |line: usize, stmt: &str, message: &str| NetlistError::Parse {
        line,
        col: column_of(text, line, stmt),
        context: parse_context(stmt),
        message: message.to_string(),
    };

    for (line, stmt) in statements {
        if let Some(rest) = stmt.strip_prefix("module") {
            let (name, _) =
                rest.trim().split_once('(').ok_or_else(|| err(line, &stmt, "missing port list"))?;
            nl = Some(Netlist::new(name.trim(), lib.clone()));
            continue;
        }
        if stmt == "endmodule" {
            break;
        }
        let nl_ref = nl.as_mut().ok_or_else(|| err(line, &stmt, "statement before module"))?;
        if let Some(rest) = stmt.strip_prefix("input") {
            for name in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let id = nl_ref.add_input(name);
                nets.insert(name.to_string(), id);
            }
        } else if let Some(rest) = stmt.strip_prefix("output") {
            for name in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let id = nl_ref.add_named_net(name);
                nets.insert(name.to_string(), id);
                pending_outputs.push(name.to_string());
            }
        } else if let Some(rest) = stmt.strip_prefix("wire") {
            for name in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let id = nl_ref.add_named_net(name);
                nets.insert(name.to_string(), id);
            }
        } else {
            // Cell instance: CELL inst ( .PIN(net), ... )
            let open = stmt.find('(').ok_or_else(|| err(line, &stmt, "expected instance ports"))?;
            let head: Vec<&str> = stmt[..open].split_whitespace().collect();
            if head.len() != 2 {
                return Err(err(line, &stmt, "expected `CELL instance (...)`"));
            }
            let cell_id = lib
                .cell_id(head[0])
                .ok_or_else(|| NetlistError::UnknownCell { name: head[0].to_string() })?;
            let close = stmt.rfind(')').ok_or_else(|| err(line, &stmt, "unclosed port list"))?;
            let body = &stmt[open + 1..close];
            let mut pin_map: HashMap<String, String> = HashMap::new();
            for conn in split_top_level(body) {
                let conn = conn.trim();
                if conn.is_empty() {
                    continue;
                }
                let conn = conn
                    .strip_prefix('.')
                    .ok_or_else(|| err(line, conn, "expected named port connection"))?;
                let (pin, rest) =
                    conn.split_once('(').ok_or_else(|| err(line, conn, "malformed port"))?;
                let net = rest.trim_end_matches(')').trim();
                pin_map.insert(pin.trim().to_string(), net.to_string());
            }
            let cell = lib.cell(cell_id).clone();
            let mut resolve = |nl_ref: &mut Netlist, name: &str| -> NetId {
                match name {
                    "1'b0" => nl_ref.const0(),
                    "1'b1" => nl_ref.const1(),
                    _ => {
                        *nets.entry(name.to_string()).or_insert_with(|| nl_ref.add_named_net(name))
                    }
                }
            };
            let mut ins = Vec::new();
            for pin in &cell.inputs {
                let net = pin_map
                    .get(pin)
                    .ok_or_else(|| err(line, &stmt, &format!("missing connection for pin {pin}")))?
                    .clone();
                ins.push(resolve(nl_ref, &net));
            }
            let mut outs = Vec::new();
            for out in &cell.outputs {
                let net = pin_map
                    .get(&out.name)
                    .ok_or_else(|| {
                        err(line, &stmt, &format!("missing connection for pin {}", out.name))
                    })?
                    .clone();
                outs.push(resolve(nl_ref, &net));
            }
            nl_ref.add_gate(head[1], cell_id, &ins, &outs)?;
        }
    }

    let mut nl = nl.ok_or_else(|| err(1, "", "no module found"))?;
    for name in pending_outputs {
        let id = nets[&name];
        nl.mark_output(id);
    }
    Ok(nl)
}

/// Splits on commas that are not inside parentheses.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Netlist {
        let lib = Library::osu018();
        let mut nl = Netlist::new("top", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n1 = nl.add_named_net("n1");
        let y = nl.add_named_net("y");
        let nand = nl.lib().cell_id("NAND2X1").unwrap();
        let inv = nl.lib().cell_id("INVX1").unwrap();
        nl.add_gate("u0", nand, &[a, b], &[n1]).unwrap();
        nl.add_gate("u1", inv, &[n1], &[y]).unwrap();
        nl.mark_output(y);
        nl
    }

    #[test]
    fn round_trip() {
        let nl = sample();
        let text = write_verilog(&nl);
        let lib = Library::osu018();
        let parsed = parse_verilog(&text, lib).expect("parse back");
        assert_eq!(parsed.name(), "top");
        assert_eq!(parsed.gate_count(), 2);
        assert_eq!(parsed.primary_inputs().len(), 2);
        assert_eq!(parsed.primary_outputs().len(), 1);
        parsed.validate().expect("valid");
        // Same function: simulate both.
        let v1 = nl.comb_view().unwrap();
        let v2 = parsed.comb_view().unwrap();
        for m in 0..4u64 {
            let pis = [m & 1 == 1, m >> 1 & 1 == 1];
            let o1 = crate::sim::simulate_one(&nl, &v1, &pis);
            let o2 = crate::sim::simulate_one(&parsed, &v2, &pis);
            assert_eq!(o1, o2, "m={m}");
        }
    }

    #[test]
    fn parses_constants() {
        let lib = Library::osu018();
        let text = "module t (a, y);\n  input a;\n  output y;\n  NAND2X1 u0 (.A(a), .B(1'b1), .Y(y));\nendmodule\n";
        let nl = parse_verilog(text, lib).expect("parse");
        assert_eq!(nl.gate_count(), 1);
        nl.validate().expect("valid");
    }

    #[test]
    fn unknown_cell_is_reported() {
        let lib = Library::osu018();
        let text = "module t (y);\n  output y;\n  MYSTERY u0 (.Y(y));\nendmodule\n";
        let err = parse_verilog(text, lib).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownCell { .. }));
    }

    fn parse_error(text: &str) -> (usize, usize, String, String) {
        match parse_verilog(text, Library::osu018()) {
            Err(NetlistError::Parse { line, col, context, message }) => {
                (line, col, context, message)
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_pin_is_reported() {
        // The error names the instance's line, the column where it starts
        // and its text.
        let text =
            "module t (a, y);\n  input a;\n  output y;\n  NAND2X1 u0 (.A(a), .Y(y));\nendmodule\n";
        let (line, col, context, message) = parse_error(text);
        assert_eq!((line, col), (4, 3));
        assert_eq!(context, "NAND2X1 u0 (.A(a), .Y(y))");
        assert_eq!(message, "missing connection for pin B");

        // A last statement without its `;` points at the line it starts on.
        let (line, col, _, message) = parse_error("module t (a, y);\n  input a;\n  output y\n");
        assert_eq!((line, col), (3, 1));
        assert_eq!(message, "unterminated statement");
    }

    #[test]
    fn multiline_instances_parse() {
        let lib = Library::osu018();
        let text = "module t (a, b,\n          y);\n  input a, b;\n  output y;\n  NAND2X1 u0 (.A(a),\n    .B(b),\n    .Y(y));\nendmodule\n";
        let nl = parse_verilog(text, lib).expect("parse");
        assert_eq!(nl.gate_count(), 1);
    }

    #[test]
    fn comments_are_ignored() {
        let lib = Library::osu018();
        let text = "// header\nmodule t (a, y); // ports\n  input a;\n  output y;\n  INVX1 u0 (.A(a), .Y(y));\nendmodule\n";
        let nl = parse_verilog(text, lib).expect("parse");
        assert_eq!(nl.gate_count(), 1);
    }
}
