//! Structural-Verilog subset writer and parser.
//!
//! The paper's flow shuttles circuits between tools as Verilog (PyVerilog
//! scripting, Yosys input/output). This module provides the same
//! interchange for the reproduction: [`write_verilog`] emits a flat netlist
//! as gate-level Verilog, [`parse_verilog`] reads the same subset back.
//!
//! The subset: one module per source, port list, `input`/`output`/`wire`
//! declarations (scalars only — the writer sanitizes bus names like `x\[3\]`
//! into `x_3`), and primitive instantiations of the form
//! `<prim> <name> (out, in...);` where `<prim>` is one of the [`CellKind`]
//! mnemonics, `lut_<k>_<hexmask>`, or `const_0`/`const_1`. Key inputs carry
//! a `(* key *)` attribute.

use crate::cell::{CellKind, LutMask};
use crate::netlist::{NetId, Netlist, NetlistError};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Errors produced while parsing Verilog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Lexical or syntactic problem with location info.
    Syntax {
        /// Approximate line number (1-based).
        line: usize,
        /// Explanation.
        message: String,
    },
    /// The netlist constructed from the source was ill-formed.
    Semantic(NetlistError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Syntax { line, message } => {
                write!(f, "syntax error at line {line}: {message}")
            }
            ParseError::Semantic(e) => write!(f, "semantic error: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<NetlistError> for ParseError {
    fn from(e: NetlistError) -> Self {
        ParseError::Semantic(e)
    }
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '$' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

/// Serializes a flat netlist to the structural-Verilog subset.
///
/// Net and cell names are sanitized (non-identifier characters become `_`)
/// and uniquified; functional round-tripping through [`parse_verilog`] is
/// exact even when names change.
pub fn write_verilog(netlist: &Netlist) -> String {
    let mut out = String::new();
    let mut used: HashMap<String, usize> = HashMap::new();
    let mut net_names: Vec<String> = Vec::with_capacity(netlist.net_count());
    for (_, net) in netlist.nets() {
        let base = sanitize(&net.name);
        let count = used.entry(base.clone()).or_insert(0);
        let name = if *count == 0 {
            base.clone()
        } else {
            format!("{base}__{count}")
        };
        *count += 1;
        net_names.push(name);
    }
    let nn = |id: NetId| net_names[id.index()].clone();

    let module_name = sanitize(netlist.name());
    let mut ports: Vec<String> = Vec::new();
    for &i in netlist.inputs() {
        ports.push(nn(i));
    }
    for &k in netlist.key_inputs() {
        ports.push(nn(k));
    }
    // Output ports get dedicated names: `o_<name>` if the net also has other
    // roles we still emit an `assign`-free buffer — simplest is a distinct
    // port wire driven by a buf when the output net is also an input.
    let mut output_ports: Vec<(String, NetId)> = Vec::new();
    for (idx, (name, net)) in netlist.outputs().iter().enumerate() {
        let base = sanitize(name);
        let count = used.entry(base.clone()).or_insert(0);
        let pname = if *count == 0 {
            base.clone()
        } else {
            format!("{base}__o{idx}")
        };
        *count += 1;
        ports.push(pname.clone());
        output_ports.push((pname, *net));
    }

    let _ = writeln!(out, "// generated by shell-netlist");
    let _ = writeln!(out, "module {module_name} ({});", ports.join(", "));
    for &i in netlist.inputs() {
        let _ = writeln!(out, "  input {};", nn(i));
    }
    for &k in netlist.key_inputs() {
        let _ = writeln!(out, "  (* key *) input {};", nn(k));
    }
    for (pname, _) in &output_ports {
        let _ = writeln!(out, "  output {pname};");
    }
    // Wires: every net that is not a port.
    let port_nets: Vec<NetId> = netlist
        .inputs()
        .iter()
        .chain(netlist.key_inputs())
        .copied()
        .collect();
    for (id, _) in netlist.nets() {
        if !port_nets.contains(&id) {
            let _ = writeln!(out, "  wire {};", nn(id));
        }
    }
    // Cells.
    for (idx, (_, c)) in netlist.cells().enumerate() {
        let prim = match c.kind {
            CellKind::Lut(m) => format!("lut_{}_{:#x}", m.arity(), m.mask()),
            CellKind::Const(v) => format!("const_{}", v as u8),
            other => other.mnemonic().to_string(),
        };
        let cname = format!("{}__g{idx}", sanitize(&c.name));
        let mut args = vec![nn(c.output)];
        args.extend(c.inputs.iter().map(|&n| nn(n)));
        let _ = writeln!(out, "  {prim} {cname} ({});", args.join(", "));
    }
    // Output stitching.
    for (i, (pname, net)) in output_ports.iter().enumerate() {
        let _ = writeln!(out, "  buf __obuf{i} ({pname}, {});", nn(*net));
    }
    let _ = writeln!(out, "endmodule");
    out
}

// ----------------------------------------------------------------------
// Parser
// ----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    LParen,
    RParen,
    Comma,
    Semi,
    AttrKey,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            line: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::Syntax {
            line: self.line,
            message: message.into(),
        }
    }

    fn next_token(&mut self) -> Result<Option<(Token, usize)>, ParseError> {
        let bytes = self.src.as_bytes();
        loop {
            // Skip whitespace and comments.
            while self.pos < bytes.len() {
                match bytes[self.pos] {
                    b'\n' => {
                        self.line += 1;
                        self.pos += 1;
                    }
                    b' ' | b'\t' | b'\r' => self.pos += 1,
                    b'/' if self.pos + 1 < bytes.len() && bytes[self.pos + 1] == b'/' => {
                        while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                            self.pos += 1;
                        }
                    }
                    _ => break,
                }
            }
            if self.pos >= bytes.len() {
                return Ok(None);
            }
            let line = self.line;
            match bytes[self.pos] {
                b'(' => {
                    // Attribute `(* key *)`.
                    if self.src[self.pos..].starts_with("(*") {
                        let end = self.src[self.pos..]
                            .find("*)")
                            .ok_or_else(|| self.error("unterminated attribute"))?;
                        let body = &self.src[self.pos + 2..self.pos + end];
                        self.pos += end + 2;
                        if body.trim() == "key" {
                            return Ok(Some((Token::AttrKey, line)));
                        }
                        continue; // unknown attribute: skip
                    }
                    self.pos += 1;
                    return Ok(Some((Token::LParen, line)));
                }
                b')' => {
                    self.pos += 1;
                    return Ok(Some((Token::RParen, line)));
                }
                b',' => {
                    self.pos += 1;
                    return Ok(Some((Token::Comma, line)));
                }
                b';' => {
                    self.pos += 1;
                    return Ok(Some((Token::Semi, line)));
                }
                c if c.is_ascii_alphanumeric() || c == b'_' || c == b'$' => {
                    let start = self.pos;
                    while self.pos < bytes.len() {
                        let c = bytes[self.pos];
                        if c.is_ascii_alphanumeric() || c == b'_' || c == b'$' {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    return Ok(Some((
                        Token::Ident(self.src[start..self.pos].to_string()),
                        line,
                    )));
                }
                other => {
                    return Err(self.error(format!("unexpected character `{}`", other as char)))
                }
            }
        }
    }
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(0)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::Syntax {
            line: self.line(),
            message: message.into(),
        }
    }

    fn next(&mut self) -> Result<Token, ParseError> {
        let t = self
            .tokens
            .get(self.pos)
            .map(|(t, _)| t.clone())
            .ok_or_else(|| self.error("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect(&mut self, tok: Token) -> Result<(), ParseError> {
        let got = self.next()?;
        if got == tok {
            Ok(())
        } else {
            Err(self.error(format!("expected {tok:?}, found {got:?}")))
        }
    }

    fn ident_list_parens(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect(Token::LParen)?;
        let mut items = Vec::new();
        if self.peek() == Some(&Token::RParen) {
            self.next()?;
            return Ok(items);
        }
        loop {
            items.push(self.expect_ident()?);
            match self.next()? {
                Token::Comma => continue,
                Token::RParen => break,
                other => return Err(self.error(format!("expected `,` or `)`, found {other:?}"))),
            }
        }
        Ok(items)
    }
}

fn prim_kind(name: &str, line: usize) -> Result<Option<CellKind>, ParseError> {
    let kind = match name {
        "and" => CellKind::And,
        "or" => CellKind::Or,
        "nand" => CellKind::Nand,
        "nor" => CellKind::Nor,
        "xor" => CellKind::Xor,
        "xnor" => CellKind::Xnor,
        "not" => CellKind::Not,
        "buf" => CellKind::Buf,
        "mux2" => CellKind::Mux2,
        "mux4" => CellKind::Mux4,
        "dff" => CellKind::Dff,
        "latch" => CellKind::Latch,
        "const_0" => CellKind::Const(false),
        "const_1" => CellKind::Const(true),
        _ => {
            if let Some(rest) = name.strip_prefix("lut_") {
                let mut parts = rest.splitn(2, '_');
                let k: usize =
                    parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or(ParseError::Syntax {
                            line,
                            message: format!("malformed LUT primitive `{name}`"),
                        })?;
                let mask_str = parts.next().ok_or(ParseError::Syntax {
                    line,
                    message: format!("malformed LUT primitive `{name}`"),
                })?;
                let mask_str = mask_str.trim_start_matches("0x");
                let mask = u64::from_str_radix(mask_str, 16).map_err(|_| ParseError::Syntax {
                    line,
                    message: format!("bad LUT mask in `{name}`"),
                })?;
                if k > LutMask::MAX_K {
                    return Err(ParseError::Syntax {
                        line,
                        message: format!("LUT arity {k} too large"),
                    });
                }
                CellKind::Lut(LutMask::new(mask, k))
            } else {
                return Ok(None);
            }
        }
    };
    Ok(Some(kind))
}

/// Parses the structural-Verilog subset emitted by [`write_verilog`].
///
/// # Errors
///
/// Returns [`ParseError::Syntax`] for lexical/grammar problems and
/// [`ParseError::Semantic`] when the described netlist is ill-formed
/// (multiple drivers, bad arity, undriven nets, combinational cycles).
pub fn parse_verilog(src: &str) -> Result<Netlist, ParseError> {
    let mut lexer = Lexer::new(src);
    let mut tokens = Vec::new();
    while let Some(t) = lexer.next_token()? {
        tokens.push(t);
    }
    let mut p = Parser { tokens, pos: 0 };

    // module <name> ( ports ) ;
    let kw = p.expect_ident()?;
    if kw != "module" {
        return Err(p.error("expected `module`"));
    }
    let mod_name = p.expect_ident()?;
    let _port_order = p.ident_list_parens()?;
    p.expect(Token::Semi)?;

    let mut netlist = Netlist::new(mod_name);
    let mut nets: HashMap<String, NetId> = HashMap::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut cell_idx = 0usize;

    loop {
        let is_key = if p.peek() == Some(&Token::AttrKey) {
            p.next()?;
            true
        } else {
            false
        };
        let word = p.expect_ident()?;
        match word.as_str() {
            "endmodule" => break,
            "input" => {
                let name = p.expect_ident()?;
                p.expect(Token::Semi)?;
                let id = if is_key {
                    netlist.add_key_input(&name)
                } else {
                    netlist.add_input(&name)
                };
                nets.insert(name, id);
            }
            "output" => {
                let name = p.expect_ident()?;
                p.expect(Token::Semi)?;
                let id = netlist.add_net(&name);
                nets.insert(name.clone(), id);
                outputs.push(name);
            }
            "wire" => {
                let name = p.expect_ident()?;
                p.expect(Token::Semi)?;
                let id = netlist.add_net(&name);
                nets.insert(name, id);
            }
            prim => {
                if is_key {
                    return Err(p.error("(* key *) only applies to inputs"));
                }
                let line = p.line();
                let kind = prim_kind(prim, line)?
                    .ok_or_else(|| p.error(format!("unknown primitive `{prim}`")))?;
                let inst_name = p.expect_ident()?;
                let args = p.ident_list_parens()?;
                p.expect(Token::Semi)?;
                if args.is_empty() {
                    return Err(p.error(format!("primitive `{inst_name}` has no output")));
                }
                let resolve = |nets: &mut HashMap<String, NetId>,
                               netlist: &mut Netlist,
                               name: &str|
                 -> NetId {
                    *nets
                        .entry(name.to_string())
                        .or_insert_with(|| netlist.add_net(name))
                };
                let out = resolve(&mut nets, &mut netlist, &args[0]);
                let ins: Vec<NetId> = args[1..]
                    .iter()
                    .map(|a| resolve(&mut nets, &mut netlist, a))
                    .collect();
                netlist.add_cell_driving(format!("{inst_name}__{cell_idx}"), kind, ins, out)?;
                cell_idx += 1;
            }
        }
    }
    for out in outputs {
        let id = *nets
            .get(&out)
            .ok_or_else(|| p.error(format!("output `{out}` is never driven")))?;
        netlist.add_output(out, id);
    }
    netlist.validate()?;
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::{equiv_exhaustive, EquivResult};

    fn sample() -> Netlist {
        let mut n = Netlist::new("samp le"); // deliberately awkward name
        let a = n.add_input("a[0]");
        let b = n.add_input("b.x");
        let k = n.add_key_input("k0");
        let m = n.add_cell("m", CellKind::Mux2, vec![k, a, b]);
        let l = n.add_cell("l", CellKind::Lut(LutMask::new(0b0110, 2)), vec![m, a]);
        n.add_output("f", l);
        n
    }

    #[test]
    fn write_emits_module() {
        let text = write_verilog(&sample());
        assert!(text.contains("module samp_le"));
        assert!(text.contains("(* key *) input k0;"));
        assert!(text.contains("mux2"));
        assert!(text.contains("lut_2_0x6"));
        assert!(text.contains("endmodule"));
    }

    #[test]
    fn roundtrip_preserves_function() {
        let original = sample();
        let text = write_verilog(&original);
        let parsed = parse_verilog(&text).expect("parse back");
        for key in [false, true] {
            match equiv_exhaustive(&original, &parsed, &[key], &[key]) {
                EquivResult::Equivalent => {}
                other => panic!("round trip diverged with key={key}: {other:?}"),
            }
        }
    }

    #[test]
    fn roundtrip_sequential() {
        let mut n = Netlist::new("seq");
        let d = n.add_input("d");
        let q = n.add_cell("ff", CellKind::Dff, vec![d]);
        n.add_output("q", q);
        let parsed = parse_verilog(&write_verilog(&n)).unwrap();
        assert_eq!(parsed.sequential_cells().len(), 1);
    }

    #[test]
    fn parse_handcrafted() {
        let src = "
            // a tiny circuit
            module tiny (a, b, f);
              input a;
              input b;
              output f;
              wire w;
              nand g0 (w, a, b);
              not g1 (f, w);
            endmodule
        ";
        let n = parse_verilog(src).unwrap();
        assert_eq!(n.cell_count(), 2);
        assert_eq!(n.eval_comb(&[true, true]), vec![true]);
        assert_eq!(n.eval_comb(&[true, false]), vec![false]);
    }

    #[test]
    fn parse_const_primitives() {
        let src = "module c (f); output f; const_1 g (f); endmodule";
        let n = parse_verilog(src).unwrap();
        assert_eq!(n.eval_comb(&[]), vec![true]);
    }

    #[test]
    fn parse_error_unknown_primitive() {
        let src = "module c (f); output f; frobnicate g (f); endmodule";
        assert!(matches!(parse_verilog(src), Err(ParseError::Syntax { .. })));
    }

    #[test]
    fn parse_error_multiple_drivers() {
        let src = "
            module c (a, f);
              input a; output f;
              buf g0 (f, a);
              not g1 (f, a);
            endmodule";
        assert!(matches!(
            parse_verilog(src),
            Err(ParseError::Semantic(NetlistError::MultipleDrivers { .. }))
        ));
    }

    #[test]
    fn undriven_output_is_a_typed_error() {
        let src = "module m (a, f);\ninput a;\noutput f;\nendmodule\n";
        assert!(matches!(
            parse_verilog(src),
            Err(ParseError::Semantic(NetlistError::UndrivenNet { .. }))
        ));
    }

    #[test]
    fn parse_error_reports_line() {
        let src = "module c (f);\n output f;\n ???\nendmodule";
        match parse_verilog(src) {
            Err(ParseError::Syntax { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn lut_mask_roundtrip_wide() {
        let mut n = Netlist::new("w");
        let ins: Vec<NetId> = (0..6).map(|i| n.add_input(format!("i{i}"))).collect();
        let mask = 0xDEAD_BEEF_CAFE_F00D;
        let f = n.add_cell("l", CellKind::Lut(LutMask::new(mask, 6)), ins);
        n.add_output("f", f);
        let parsed = parse_verilog(&write_verilog(&n)).unwrap();
        let lut = parsed
            .cells()
            .find_map(|(_, c)| match c.kind {
                CellKind::Lut(m) => Some(m),
                _ => None,
            })
            .expect("lut survived");
        assert_eq!(lut.mask(), mask);
        assert_eq!(lut.arity(), 6);
    }
}
