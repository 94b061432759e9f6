//! Directly-instantiated arithmetic macros.
//!
//! Real synthesis flows instantiate full-adder standard cells (`FAX1`) for
//! carry chains instead of decomposing them into NAND logic; the paper's
//! cell-usage statistics (and the resynthesis ordering, which starts from
//! the cell with the most internal faults — the full adder) depend on this.
//! These helpers build such macros straight into the netlist.

use rsyn_netlist::{NetId, Netlist, NetlistError};

/// Builds a ripple-carry adder from `FAX1` cells: returns (sum bits,
/// carry-out). Inputs are LSB-first and must have equal width.
///
/// # Errors
///
/// Propagates netlist construction errors.
///
/// # Panics
///
/// Panics if widths differ or the library has no `FAX1`.
pub fn ripple_add(
    nl: &mut Netlist,
    a: &[NetId],
    b: &[NetId],
    cin: NetId,
    prefix: &str,
) -> Result<(Vec<NetId>, NetId), NetlistError> {
    assert_eq!(a.len(), b.len(), "adder operand widths differ");
    let fax = nl.lib().cell_id("FAX1").expect("library has FAX1");
    let mut carry = cin;
    let mut sums = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let s = nl.add_named_net(format!("{prefix}_s{i}"));
        let c = nl.add_named_net(format!("{prefix}_c{i}"));
        nl.add_gate(format!("{prefix}_fa{i}"), fax, &[a[i], b[i], carry], &[s, c])?;
        sums.push(s);
        carry = c;
    }
    Ok((sums, carry))
}

/// Builds a carry-select adder: 4-bit `FAX1` ripple blocks, where every
/// block after the first computes both carry polarities and selects with
/// `MUX2X1` cells — the fast-adder structure real datapaths use, which
/// keeps the carry chain off the critical path (depth ≈ one block plus one
/// mux per block instead of one full adder per bit).
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn carry_select_add(
    nl: &mut Netlist,
    a: &[NetId],
    b: &[NetId],
    cin: NetId,
    prefix: &str,
) -> Result<(Vec<NetId>, NetId), NetlistError> {
    assert_eq!(a.len(), b.len(), "adder operand widths differ");
    const BLOCK: usize = 4;
    let mux = nl.lib().cell_id("MUX2X1").expect("library has MUX2X1");
    let mut sums = Vec::with_capacity(a.len());
    let mut carry = cin;
    let mut block = 0usize;
    let mut lo = 0usize;
    while lo < a.len() {
        let hi = (lo + BLOCK).min(a.len());
        let aa = &a[lo..hi];
        let bb = &b[lo..hi];
        if block == 0 {
            let (s, c) = ripple_add(nl, aa, bb, carry, &format!("{prefix}_b0"))?;
            sums.extend(s);
            carry = c;
        } else {
            let c0 = nl.const0();
            let c1 = nl.const1();
            let (s0, co0) = ripple_add(nl, aa, bb, c0, &format!("{prefix}_b{block}l"))?;
            let (s1, co1) = ripple_add(nl, aa, bb, c1, &format!("{prefix}_b{block}h"))?;
            for (k, (&x0, &x1)) in s0.iter().zip(&s1).enumerate() {
                let s = nl.add_named_net(format!("{prefix}_b{block}s{k}"));
                nl.add_gate(format!("{prefix}_b{block}m{k}"), mux, &[x0, x1, carry], &[s])?;
                sums.push(s);
            }
            let c = nl.add_named_net(format!("{prefix}_b{block}c"));
            nl.add_gate(format!("{prefix}_b{block}mc"), mux, &[co0, co1, carry], &[c])?;
            carry = c;
        }
        lo = hi;
        block += 1;
    }
    Ok((sums, carry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsyn_netlist::{sim::simulate_one, Library};

    #[test]
    fn fax_ripple_adds_correctly() {
        let lib = Library::osu018();
        let mut nl = Netlist::new("add", lib.clone());
        let a: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("b{i}"))).collect();
        let cin = nl.const0();
        let (s, co) = ripple_add(&mut nl, &a, &b, cin, "u").unwrap();
        for &n in &s {
            nl.mark_output(n);
        }
        nl.mark_output(co);
        nl.validate().unwrap();
        let view = nl.comb_view().unwrap();
        for av in 0..16u64 {
            for bv in 0..16u64 {
                let mut pis = Vec::new();
                for i in 0..4 {
                    pis.push((av >> i) & 1 == 1);
                }
                for i in 0..4 {
                    pis.push((bv >> i) & 1 == 1);
                }
                let out = simulate_one(&nl, &view, &pis);
                let mut got = 0u64;
                for (i, &o) in out.iter().enumerate() {
                    if o {
                        got |= 1 << i;
                    }
                }
                assert_eq!(got, av + bv, "a={av} b={bv}");
            }
        }
        // Uses real FAX1 cells.
        assert!(nl.gates().all(|(_, g)| nl.lib().cell(g.cell).name == "FAX1"));
        assert_eq!(nl.gate_count(), 4);
    }
}
