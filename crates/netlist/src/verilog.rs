//! Structural Verilog export.
//!
//! Emits a synthesizable Verilog-2001 module for a [`Netlist`] (gate
//! level) or a [`MappedNetlist`] (LUT level, one `assign` per LUT with
//! an inlined truth-table expression), so designs built with this crate
//! can be taken into a real FPGA flow.

use crate::ir::{Gate, Netlist, SignalId};
use crate::map::MappedNetlist;
use std::fmt::Write as _;

/// Sanitizes a port name into a Verilog identifier (`a[3]` → `a_3`).
fn ident(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, 'n');
    }
    out
}

fn wire(id: SignalId) -> String {
    format!("w{}", id.index())
}

/// Emits gate-level structural Verilog for a netlist.
///
/// Each gate becomes a continuous assignment; primary inputs/outputs use
/// their (sanitized) port names.
///
/// # Examples
///
/// ```
/// use clapped_netlist::{verilog::to_verilog, Netlist};
///
/// let mut n = Netlist::new("xor2");
/// let a = n.input("a");
/// let b = n.input("b");
/// let y = n.xor(a, b);
/// n.output("y", y);
/// let v = to_verilog(&n);
/// assert!(v.contains("module xor2"));
/// assert!(v.contains('^'));
/// ```
pub fn to_verilog(netlist: &Netlist) -> String {
    let mut v = String::new();
    let inputs: Vec<String> = netlist
        .inputs()
        .iter()
        .map(|&s| match netlist.gate(s) {
            Gate::Input { name } => ident(name),
            _ => unreachable!("inputs are Input gates"),
        })
        .collect();
    let outputs: Vec<String> = netlist
        .outputs()
        .iter()
        .map(|(name, _)| ident(name))
        .collect();
    let module = ident(netlist.name());
    let mut ports: Vec<String> = inputs.clone();
    ports.extend(outputs.iter().cloned());
    writeln!(v, "module {module} ({});", ports.join(", ")).expect("string write");
    for i in &inputs {
        writeln!(v, "  input {i};").expect("string write");
    }
    for o in &outputs {
        writeln!(v, "  output {o};").expect("string write");
    }
    // Wires for all non-input gates.
    let mut next_input = 0usize;
    let mut names: Vec<String> = Vec::with_capacity(netlist.len());
    for (idx, gate) in netlist.gates().iter().enumerate() {
        match gate {
            Gate::Input { .. } => {
                names.push(inputs[next_input].clone());
                next_input += 1;
            }
            _ => {
                let w = wire(SignalId::from_index(idx));
                writeln!(v, "  wire {w};").expect("string write");
                names.push(w);
            }
        }
    }
    for (idx, gate) in netlist.gates().iter().enumerate() {
        let lhs = &names[idx];
        let expr = match gate {
            Gate::Input { .. } => continue,
            Gate::Const(c) => format!("1'b{}", u8::from(*c)),
            Gate::Buf(a) => names[a.index()].clone(),
            Gate::Not(a) => format!("~{}", names[a.index()]),
            Gate::And(a, b) => format!("{} & {}", names[a.index()], names[b.index()]),
            Gate::Or(a, b) => format!("{} | {}", names[a.index()], names[b.index()]),
            Gate::Xor(a, b) => format!("{} ^ {}", names[a.index()], names[b.index()]),
            Gate::Nand(a, b) => format!("~({} & {})", names[a.index()], names[b.index()]),
            Gate::Nor(a, b) => format!("~({} | {})", names[a.index()], names[b.index()]),
            Gate::Xnor(a, b) => format!("~({} ^ {})", names[a.index()], names[b.index()]),
            Gate::Mux { sel, t, f } => format!(
                "{} ? {} : {}",
                names[sel.index()],
                names[t.index()],
                names[f.index()]
            ),
            Gate::Maj(a, b, c) => {
                let (x, y, z) = (&names[a.index()], &names[b.index()], &names[c.index()]);
                format!("({x} & {y}) | ({x} & {z}) | ({y} & {z})")
            }
        };
        writeln!(v, "  assign {lhs} = {expr};").expect("string write");
    }
    for ((oname, sig), o) in netlist.outputs().iter().zip(&outputs) {
        let _ = oname;
        writeln!(v, "  assign {o} = {};", names[sig.index()]).expect("string write");
    }
    writeln!(v, "endmodule").expect("string write");
    v
}

/// Emits LUT-level Verilog for a mapped netlist: one `assign` per LUT
/// whose right-hand side is the truth table expanded into sum-of-
/// products form over the LUT inputs.
pub fn mapped_to_verilog(mapped: &MappedNetlist, module_name: &str) -> String {
    let mut v = String::new();
    let inputs: Vec<String> = (0..mapped.inputs.len()).map(|i| format!("pi{i}")).collect();
    let outputs: Vec<String> = (0..mapped.outputs.len()).map(|i| format!("po{i}")).collect();
    let mut ports = inputs.clone();
    ports.extend(outputs.iter().cloned());
    writeln!(v, "module {} ({});", ident(module_name), ports.join(", ")).expect("string write");
    for i in &inputs {
        writeln!(v, "  input {i};").expect("string write");
    }
    for o in &outputs {
        writeln!(v, "  output {o};").expect("string write");
    }
    let name_of = |sig: SignalId| -> String {
        if let Some(pos) = mapped.inputs.iter().position(|&s| s == sig) {
            format!("pi{pos}")
        } else if let Some(&c) = mapped.constants.get(&sig) {
            format!("1'b{}", u8::from(c))
        } else {
            wire(sig)
        }
    };
    for lut in &mapped.luts {
        writeln!(v, "  wire {};", wire(lut.root)).expect("string write");
    }
    for lut in &mapped.luts {
        let k = lut.inputs.len();
        let mut terms = Vec::new();
        for row in 0..(1usize << k) {
            if (lut.truth >> row) & 1 == 1 {
                let product: Vec<String> = lut
                    .inputs
                    .iter()
                    .enumerate()
                    .map(|(j, &inp)| {
                        let n = name_of(inp);
                        if (row >> j) & 1 == 1 {
                            n
                        } else {
                            format!("~{n}")
                        }
                    })
                    .collect();
                terms.push(format!("({})", product.join(" & ")));
            }
        }
        let expr = if terms.is_empty() {
            "1'b0".to_string()
        } else {
            terms.join(" | ")
        };
        writeln!(v, "  assign {} = {expr};", wire(lut.root)).expect("string write");
    }
    for ((_, sig), o) in mapped.outputs.iter().zip(&outputs) {
        writeln!(v, "  assign {o} = {};", name_of(*sig)).expect("string write");
    }
    writeln!(v, "endmodule").expect("string write");
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bus, map_luts, optimize, MapStrategy, Netlist};

    fn adder4() -> Netlist {
        let mut n = Netlist::new("add4");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let (s, c) = bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &s);
        n.output("cout", c);
        n
    }

    #[test]
    fn gate_level_export_mentions_every_port() {
        let n = adder4();
        let v = to_verilog(&n);
        assert!(v.starts_with("module add4"));
        for p in ["a_0", "a_3", "b_0", "s_0", "s_3", "cout"] {
            assert!(v.contains(p), "missing port {p}");
        }
        assert!(v.ends_with("endmodule\n"));
        // One assign per logic gate plus output aliases.
        let assigns = v.matches("assign").count();
        assert!(assigns >= n.logic_gate_count());
    }

    #[test]
    fn identifiers_are_sanitized() {
        assert_eq!(ident("a[3]"), "a_3_");
        assert_eq!(ident("3x"), "n3x");
        assert_eq!(ident("ok_name"), "ok_name");
    }

    #[test]
    fn lut_level_export_covers_all_luts() {
        let n = adder4();
        let mapped = map_luts(&optimize(&n), 4, MapStrategy::Depth).expect("maps");
        let v = mapped_to_verilog(&mapped, "add4_lut");
        assert!(v.contains("module add4_lut"));
        let assigns = v.matches("assign").count();
        assert_eq!(assigns, mapped.lut_count() + mapped.outputs.len());
    }

    #[test]
    fn constant_outputs_are_emitted_as_literals() {
        let mut n = Netlist::new("konst");
        let _ = n.input("a");
        let c = n.constant(true);
        n.output("y", c);
        let mapped = map_luts(&optimize(&n), 6, MapStrategy::Depth).expect("maps");
        let v = mapped_to_verilog(&mapped, "konst");
        assert!(v.contains("assign po0 = 1'b1;"), "{v}");
    }
}
