//! The five Table III benchmark generators.
//!
//! Each generator produces a flat netlist whose *block names* carry the
//! sub-circuit identifiers the paper's TfR columns refer to. The designs are
//! scaled-down but structurally faithful: datapaths with registers, named
//! functional blocks, and one-hot mux ROUTE between blocks.

use crate::common::{
    adder, eq_const, gate, one_hot_decode, one_hot_route, reduce, reg_word, sbox_layer,
    select_bits, ternary_add, xor_bank,
};
use shell_netlist::{CellKind, NetId, Netlist};

/// Which benchmark to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Size-optimized RISC-V CPU platform (PicoSoC-like).
    PicoSoc,
    /// AES encryption/decryption core.
    Aes,
    /// Finite impulse response filter.
    Fir,
    /// Sparse matrix-vector multiplication.
    Spmv,
    /// Lightweight DLA-like accelerator.
    Dla,
}

impl Benchmark {
    /// All five benchmarks in Table III order.
    pub fn all() -> [Benchmark; 5] {
        [
            Benchmark::PicoSoc,
            Benchmark::Aes,
            Benchmark::Fir,
            Benchmark::Spmv,
            Benchmark::Dla,
        ]
    }

    /// The benchmark's display name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::PicoSoc => "PicoSoC",
            Benchmark::Aes => "AES",
            Benchmark::Fir => "FIR",
            Benchmark::Spmv => "SPMV",
            Benchmark::Dla => "DLA",
        }
    }

    /// Table III metadata of the modeled original.
    pub fn info(self) -> BenchmarkInfo {
        match self {
            Benchmark::PicoSoc => BenchmarkInfo {
                name: "PicoSoC",
                description: "Size-Optimized RISC-V CPU",
                modules: 12,
                input_pins: (8, 64),
                output_pins: (8, 96),
            },
            Benchmark::Aes => BenchmarkInfo {
                name: "AES",
                description: "AES Encryption/Decryption",
                modules: 11,
                input_pins: (16, 128),
                output_pins: (16, 128),
            },
            Benchmark::Fir => BenchmarkInfo {
                name: "FIR",
                description: "Finite Impulse Response Filter",
                modules: 7,
                input_pins: (32, 128),
                output_pins: (16, 128),
            },
            Benchmark::Spmv => BenchmarkInfo {
                name: "SPMV",
                description: "Sparse Matrix Vector Multiplication",
                modules: 16,
                input_pins: (8, 32),
                output_pins: (8, 64),
            },
            Benchmark::Dla => BenchmarkInfo {
                name: "DLA",
                description: "Lightweight DLA-like Accelerator",
                modules: 4,
                input_pins: (64, 256),
                output_pins: (64, 256),
            },
        }
    }

    /// The redaction target blocks the paper's cases use for this
    /// benchmark: `(no_strategy, filtering_extra, shell_route, shell_lgc)`.
    ///
    /// * Case 1 targets `no_strategy`,
    /// * Case 2 adds `filtering_extra`,
    /// * Case 4 (SheLL) targets the ROUTE block `shell_route` plus the
    ///   neighboring LGC block `shell_lgc`.
    pub fn redaction_targets(self) -> RedactionTargets {
        match self {
            Benchmark::PicoSoc => RedactionTargets {
                no_strategy: "mem_wr",
                filtering_extra: "regs_rdata",
                shell_route: "mem_wr_route",
                shell_lgc: "mem_wr_en",
            },
            Benchmark::Aes => RedactionTargets {
                no_strategy: "addround_last",
                filtering_extra: "shrow_last",
                shell_route: "key_sch_route",
                shell_lgc: "addround_xor",
            },
            Benchmark::Fir => RedactionTargets {
                no_strategy: "ternary_add",
                filtering_extra: "ctrl_valid",
                shell_route: "tap_route",
                shell_lgc: "ctrl_valid",
            },
            Benchmark::Spmv => RedactionTargets {
                no_strategy: "ind_array_inc",
                filtering_extra: "len_check",
                shell_route: "mult_route",
                shell_lgc: "len_check",
            },
            Benchmark::Dla => RedactionTargets {
                no_strategy: "active_check",
                filtering_extra: "drain_PE",
                shell_route: "ddr_route",
                shell_lgc: "max_pool_valid",
            },
        }
    }
}

/// Named redaction targets of a benchmark (block-name prefixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedactionTargets {
    /// Case 1's target (a LGC block).
    pub no_strategy: &'static str,
    /// Case 2's additional filtered target.
    pub filtering_extra: &'static str,
    /// SheLL's ROUTE target (a one-hot mux block).
    pub shell_route: &'static str,
    /// SheLL's neighboring LGC target.
    pub shell_lgc: &'static str,
}

/// Static metadata mirroring Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchmarkInfo {
    /// Benchmark name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Module count of the modeled original.
    pub modules: usize,
    /// `(min, max)` input pins across modules.
    pub input_pins: (usize, usize),
    /// `(min, max)` output pins across modules.
    pub output_pins: (usize, usize),
}

/// Generation scale. `width` sets datapath width, `units` replication
/// (taps, PEs, round blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Datapath width in bits.
    pub width: usize,
    /// Number of replicated functional units.
    pub units: usize,
}

impl Scale {
    /// Small scale for tests and attack experiments (fast SAT/PnR).
    pub fn small() -> Self {
        Self { width: 4, units: 3 }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::small()
    }
}

/// Generates `bench` at `scale`.
pub fn generate(bench: Benchmark, scale: Scale) -> Netlist {
    match bench {
        Benchmark::PicoSoc => picosoc(scale),
        Benchmark::Aes => aes(scale),
        Benchmark::Fir => fir(scale),
        Benchmark::Spmv => spmv(scale),
        Benchmark::Dla => dla(scale),
    }
}

fn input_bus(n: &mut Netlist, name: &str, width: usize) -> Vec<NetId> {
    (0..width)
        .map(|i| n.add_input(format!("{name}[{i}]")))
        .collect()
}

fn output_bus(n: &mut Netlist, name: &str, bus: &[NetId]) {
    for (i, &net) in bus.iter().enumerate() {
        n.add_output(format!("{name}[{i}]"), net);
    }
}

/// PicoSoC-like platform: instruction word in, register file with one-hot
/// read routing (`regs_rdata`), ALU, and a memory-write port (`mem_wr`)
/// whose data path runs through the `mem_wr_route` one-hot selector into
/// the `picorv32.mem_wr` consumer — the exact connection Case 4 redacts.
fn picosoc(scale: Scale) -> Netlist {
    let w = scale.width;
    let mut n = Netlist::new("picosoc");
    let instr = input_bus(&mut n, "instr", w + 4);
    let mem_rdata = input_bus(&mut n, "mem_rdata", w);

    // Register file: `units + 1` registers, written with decoded one-hot
    // enables, read through a one-hot mux route (`regs_rdata`).
    let regs = scale.units + 1;
    let wsel = &instr[0..select_bits(regs).max(1)];
    let rsel = &instr[2..2 + select_bits(regs).max(1)];
    let wr_hot = one_hot_decode(&mut n, "regs_wsel", wsel, regs);
    let mut reg_outs: Vec<Vec<NetId>> = Vec::new();
    for (r, &en) in wr_hot.iter().enumerate() {
        let block = format!("regs.r{r}");
        // q' = en ? mem_rdata : q
        let mut qs = Vec::with_capacity(w);
        for (b, &d) in mem_rdata.iter().enumerate() {
            let q = n.add_net(format!("{block}.q{b}"));
            let next = n.add_cell(format!("{block}.sel{b}"), CellKind::Mux2, vec![en, q, d]);
            n.add_cell_driving(format!("{block}.ff{b}"), CellKind::Dff, vec![next], q)
                .expect("fresh reg net");
            qs.push(q);
        }
        reg_outs.push(qs);
    }
    let rd_hot = one_hot_decode(&mut n, "regs_rsel", rsel, regs);
    let rdata = one_hot_route(&mut n, "regs_rdata", &rd_hot[1..], &reg_outs);

    // ALU: add / xor selected by an instruction bit.
    let (alu_add, _) = adder(&mut n, "alu.add", &rdata, &mem_rdata);
    let alu_xor = xor_bank(&mut n, "alu.xor", &rdata, &mem_rdata);
    let alu_sel = instr[w + 3];
    let alu: Vec<NetId> = alu_add
        .iter()
        .zip(&alu_xor)
        .enumerate()
        .map(|(i, (&a, &x))| {
            gate(
                &mut n,
                "alu",
                &format!("mux{i}"),
                CellKind::Mux2,
                vec![alu_sel, a, x],
            )
        })
        .collect();

    // mem_wr block: computes write data and enable.
    let wdata = xor_bank(&mut n, "mem_wr", &alu, &rdata);
    let wen = eq_const(&mut n, "mem_wr_en", &instr[0..4], 0b1011);

    // The inter-block ROUTE Case 4 targets: a one-hot selector deciding
    // whether the core consumes ALU results, write data, or rdata —
    // feeding the `picorv32.mem_wr` register port.
    let route_hot = one_hot_decode(&mut n, "mem_wr_sel", &instr[4..6], 3);
    let routed = one_hot_route(
        &mut n,
        "mem_wr_route",
        &route_hot[1..],
        &[alu.clone(), wdata.clone(), rdata.clone()],
    );
    let core_regs = reg_word(&mut n, "picorv32.mem_wr", &routed);

    output_bus(&mut n, "mem_wdata", &core_regs);
    output_bus(&mut n, "alu_out", &alu);
    n.add_output("mem_wr_en", wen);
    n
}

/// AES-like core: round structure of add-round-key XOR banks, an S-box
/// substitution layer, a shift-rows permutation, and a key-schedule route
/// (`key_sch_route`) distributing round keys — Case 4 redacts the key
/// schedule connection into `top.addround` plus the `addround_xor` bank.
fn aes(scale: Scale) -> Netlist {
    let w = (scale.width * 4).max(8);
    let mut n = Netlist::new("aes");
    let state_in = input_bus(&mut n, "state", w);
    let key = input_bus(&mut n, "key", w);
    let round_sel = input_bus(&mut n, "round", select_bits(scale.units).max(1));

    // Key schedule: `units` round keys derived by rotating XOR mixes.
    let mut round_keys: Vec<Vec<NetId>> = vec![key.clone()];
    for r in 1..scale.units {
        let prev = &round_keys[r - 1];
        let rotated: Vec<NetId> = (0..w).map(|i| prev[(i + 3) % w]).collect();
        let mixed = xor_bank(&mut n, &format!("key_sch.r{r}"), prev, &rotated);
        round_keys.push(mixed);
    }
    // The ROUTE: select the active round key (one-hot on round counter).
    let hot = one_hot_decode(&mut n, "key_sch_sel", &round_sel, scale.units);
    let active_key = one_hot_route(&mut n, "key_sch_route", &hot[1..], &round_keys);

    // top.addround: the consuming XOR bank (plus the dedicated
    // `addround_xor` LGC the SheLL case pairs with the route).
    let ark = xor_bank(&mut n, "top.addround", &state_in, &active_key);
    let ark2 = xor_bank(&mut n, "addround_xor", &ark, &key);

    // Middle rounds: sbox + shiftrows-like rewire per unit.
    let mut state = ark2;
    for r in 0..scale.units {
        let sub = sbox_layer(&mut n, &format!("sbox.r{r}"), &state, 0xAE5 + r as u64);
        // shift-rows flavored permutation.
        let shifted: Vec<NetId> = (0..sub.len())
            .map(|i| sub[(i * 5 + 1) % sub.len()])
            .collect();
        state = shifted;
        if r == scale.units - 1 {
            // The named last-round blocks Cases 1/2 target.
            let last = xor_bank(&mut n, "addround_last", &state, &active_key);
            let shrow: Vec<NetId> = (0..last.len())
                .map(|i| last[(i * 3 + 2) % last.len()])
                .collect();
            let shrow_named: Vec<NetId> = shrow
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    gate(
                        &mut n,
                        "shrow_last",
                        &format!("b{i}"),
                        CellKind::Buf,
                        vec![b],
                    )
                })
                .collect();
            state = shrow_named;
        }
    }
    let state_reg = reg_word(&mut n, "state_reg", &state);
    output_bus(&mut n, "cipher", &state_reg);
    n
}

/// FIR filter: tap registers, coefficient multiplies (shift-add), the
/// `ternary_add` reduction the baselines target, a `tap_route` one-hot
/// selector (SheLL's ROUTE), and a `ctrl_valid` comparator (the LGC).
fn fir(scale: Scale) -> Netlist {
    let w = scale.width;
    let taps = scale.units.max(3);
    let mut n = Netlist::new("fir");
    let sample = input_bus(&mut n, "sample", w);
    let tap_sel = input_bus(&mut n, "tap_sel", select_bits(taps).max(1));
    let count = input_bus(&mut n, "count", 4);

    // Delay line.
    let mut line: Vec<Vec<NetId>> = Vec::with_capacity(taps);
    let mut cur = sample.clone();
    for t in 0..taps {
        cur = reg_word(&mut n, &format!("delay.t{t}"), &cur);
        line.push(cur.clone());
    }
    // "Multiplies": coefficient-specific shift-and-xor mixes.
    let prods: Vec<Vec<NetId>> = line
        .iter()
        .enumerate()
        .map(|(t, tap)| {
            let shifted: Vec<NetId> = (0..w).map(|i| tap[(i + t + 1) % w]).collect();
            xor_bank(&mut n, &format!("coeff_mult.t{t}"), tap, &shifted)
        })
        .collect();
    // Ternary adder tree over the first three products (named target).
    let acc = ternary_add(&mut n, "ternary_add", &prods[0], &prods[1], &prods[2]);
    // SheLL ROUTE: one-hot tap observation port.
    let hot = one_hot_decode(&mut n, "tap_sel_dec", &tap_sel, taps);
    let observed = one_hot_route(&mut n, "tap_route", &hot[1..], &prods);
    // Control valid comparator (the paired LGC).
    let valid = eq_const(&mut n, "ctrl_valid", &count, 0b1010);
    let gated: Vec<NetId> = observed
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            gate(
                &mut n,
                "ctrl_gate",
                &format!("g{i}"),
                CellKind::And,
                vec![b, valid],
            )
        })
        .collect();
    let (out, _) = adder(&mut n, "acc_add", &acc, &gated);
    output_bus(&mut n, "y", &out);
    n.add_output("valid", valid);
    n
}

/// SPMV: index-array incrementer (`ind_array_inc`), a length check
/// (`len_check`), per-lane multiplies routed through `mult_route` into the
/// `_sum` accumulator — Case 4 redacts `mult → sum`.
fn spmv(scale: Scale) -> Netlist {
    let w = scale.width;
    let lanes = scale.units.max(2);
    let mut n = Netlist::new("spmv");
    let val = input_bus(&mut n, "val", w);
    let vecv = input_bus(&mut n, "vec", w);
    let idx = input_bus(&mut n, "idx", 4);
    let len = input_bus(&mut n, "len", 4);
    let lane_sel = input_bus(&mut n, "lane", select_bits(lanes).max(1));

    // Index incrementer (named target): idx + 1 registered.
    let one = gate(
        &mut n,
        "ind_array_inc",
        "one",
        CellKind::Const(true),
        vec![],
    );
    let mut carry = one;
    let mut next_idx = Vec::with_capacity(4);
    for (i, &b) in idx.iter().enumerate() {
        let s = gate(
            &mut n,
            "ind_array_inc",
            &format!("s{i}"),
            CellKind::Xor,
            vec![b, carry],
        );
        carry = gate(
            &mut n,
            "ind_array_inc",
            &format!("c{i}"),
            CellKind::And,
            vec![b, carry],
        );
        next_idx.push(s);
    }
    let idx_reg = reg_word(&mut n, "ind_array_inc.reg", &next_idx);
    // Length check.
    let done = eq_const(&mut n, "len_check", &len, 0b1111);
    // Lane multiplies (shift-add mixes of val×vec slices).
    let lanes_out: Vec<Vec<NetId>> = (0..lanes)
        .map(|l| {
            let shifted: Vec<NetId> = (0..w).map(|i| vecv[(i + l) % w]).collect();
            let ands: Vec<NetId> = val
                .iter()
                .zip(&shifted)
                .enumerate()
                .map(|(i, (&a, &b))| {
                    gate(
                        &mut n,
                        &format!("mult.l{l}"),
                        &format!("a{i}"),
                        CellKind::And,
                        vec![a, b],
                    )
                })
                .collect();
            ands
        })
        .collect();
    // ROUTE into the accumulator.
    let hot = one_hot_decode(&mut n, "lane_dec", &lane_sel, lanes);
    let routed = one_hot_route(&mut n, "mult_route", &hot[1..], &lanes_out);
    let sum_reg = reg_word(&mut n, "sum", &routed);
    let gated: Vec<NetId> = sum_reg
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            gate(
                &mut n,
                "sum_gate",
                &format!("g{i}"),
                CellKind::And,
                vec![b, done],
            )
        })
        .collect();
    output_bus(&mut n, "acc", &gated);
    output_bus(&mut n, "idx_next", &idx_reg);
    n.add_output("done", done);
    n
}

/// DLA-like accelerator: DDR ingress words routed one-hot to processing
/// elements (`ddr_route` → `PE`), an activity comparator (`active_check`),
/// PE drain logic (`drain_PE`) and a max-pool valid reducer
/// (`max_pool_valid`).
fn dla(scale: Scale) -> Netlist {
    let w = scale.width;
    let pes = scale.units.max(2);
    let mut n = Netlist::new("dla");
    let ddr: Vec<Vec<NetId>> = (0..pes)
        .map(|p| input_bus(&mut n, &format!("ddr{p}"), w))
        .collect();
    let pe_sel = input_bus(&mut n, "pe_sel", select_bits(pes).max(1));
    let status = input_bus(&mut n, "status", 4);

    // The ROUTE Case 4 targets: DDR word → PE input.
    let hot = one_hot_decode(&mut n, "pe_dec", &pe_sel, pes);
    let routed = one_hot_route(&mut n, "ddr_route", &hot[1..], &ddr);

    // PEs: multiply-accumulate flavored mixes, registered. The local DDR
    // word is rotated before mixing so the selected PE's XOR does not
    // cancel against its own routed copy.
    let mut pe_outs: Vec<Vec<NetId>> = Vec::new();
    for p in 0..pes {
        let block = format!("PE{p}");
        let rotated: Vec<NetId> = (0..w).map(|i| ddr[p][(i + 1 + p) % w]).collect();
        let mixed = xor_bank(&mut n, &block, &routed, &rotated);
        let acc = reg_word(&mut n, &format!("{block}.acc"), &mixed);
        pe_outs.push(acc);
    }
    // active_check (Cases 1–3 target) and drain logic.
    let active = eq_const(&mut n, "active_check", &status, 0b0110);
    let drain: Vec<NetId> = pe_outs
        .iter()
        .enumerate()
        .map(|(p, pe)| reduce(&mut n, "drain_PE", &format!("p{p}"), CellKind::Or, pe))
        .collect();
    let pool_valid = reduce(&mut n, "max_pool_valid", "v", CellKind::And, &drain);
    let gated = pool_valid;
    for (p, pe) in pe_outs.iter().enumerate() {
        let out: Vec<NetId> = pe
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                gate(
                    &mut n,
                    "out_gate",
                    &format!("p{p}_{i}"),
                    CellKind::And,
                    vec![b, active],
                )
            })
            .collect();
        output_bus(&mut n, &format!("fm{p}"), &out);
    }
    n.add_output("pool_valid", gated);
    n.add_output("active", active);
    // Ungated observation port for the routed ingress word (the DLA's
    // streaming output path; also keeps the design observable when the
    // activity comparator is idle).
    output_bus(&mut n, "route_out", &routed);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::cells_of_block;
    use shell_netlist::{NetlistStats, Simulator};

    #[test]
    fn all_benchmarks_generate_and_validate() {
        for bench in Benchmark::all() {
            let n = generate(bench, Scale::small());
            n.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
            assert!(n.cell_count() > 40, "{} too small", bench.name());
            assert!(!n.inputs().is_empty());
            assert!(!n.outputs().is_empty());
        }
    }

    #[test]
    fn benchmarks_simulate() {
        for bench in Benchmark::all() {
            let n = generate(bench, Scale::small());
            let mut sim = Simulator::new(&n);
            let width = n.inputs().len();
            let mut seen = std::collections::HashSet::new();
            for cycle in 0..10u64 {
                // Varied, deterministic stimulus (uniform patterns cancel
                // through XOR-heavy datapaths).
                let pattern: Vec<bool> = (0..width)
                    .map(|i| ((cycle * 2654435761 + 0x9E37) >> (i % 31)) & 1 == 1)
                    .collect();
                let out = sim.step(&pattern, &[]);
                assert_eq!(out.len(), n.outputs().len());
                seen.insert(out);
            }
            assert!(seen.len() > 1, "{} looks constant", bench.name());
        }
    }

    #[test]
    fn redaction_target_blocks_exist() {
        for bench in Benchmark::all() {
            let n = generate(bench, Scale::small());
            let t = bench.redaction_targets();
            for block in [t.no_strategy, t.filtering_extra, t.shell_route, t.shell_lgc] {
                assert!(
                    !cells_of_block(&n, block).is_empty(),
                    "{}: block `{block}` missing",
                    bench.name()
                );
            }
        }
    }

    #[test]
    fn shell_route_targets_are_mux_chains() {
        for bench in Benchmark::all() {
            let n = generate(bench, Scale::small());
            let t = bench.redaction_targets();
            let cells = cells_of_block(&n, t.shell_route);
            let muxes = cells.iter().filter(|&&c| n.cell(c).kind.is_mux()).count();
            assert!(
                muxes * 2 >= cells.len(),
                "{}: route block not mux-dominated ({muxes}/{})",
                bench.name(),
                cells.len()
            );
        }
    }

    #[test]
    fn scale_grows_circuits() {
        for bench in Benchmark::all() {
            let small = generate(bench, Scale::small());
            let big = generate(bench, Scale { width: 8, units: 6 });
            assert!(
                big.cell_count() > small.cell_count(),
                "{}: scale had no effect",
                bench.name()
            );
        }
    }

    #[test]
    fn deterministic_generation() {
        for bench in Benchmark::all() {
            let a = generate(bench, Scale::small());
            let b = generate(bench, Scale::small());
            assert_eq!(a.cell_count(), b.cell_count());
            use shell_netlist::equiv::equiv_sequential_random;
            assert!(
                equiv_sequential_random(&a, &b, &[], &[], 16, 7).is_equivalent(),
                "{} not deterministic",
                bench.name()
            );
        }
    }

    #[test]
    fn info_matches_table_iii() {
        assert_eq!(Benchmark::PicoSoc.info().modules, 12);
        assert_eq!(Benchmark::Aes.info().modules, 11);
        assert_eq!(Benchmark::Fir.info().modules, 7);
        assert_eq!(Benchmark::Spmv.info().modules, 16);
        assert_eq!(Benchmark::Dla.info().modules, 4);
        for b in Benchmark::all() {
            let i = b.info();
            assert!(i.input_pins.0 <= i.input_pins.1);
            assert!(i.output_pins.0 <= i.output_pins.1);
        }
    }

    #[test]
    fn benchmarks_have_sequential_state() {
        for bench in Benchmark::all() {
            let n = generate(bench, Scale::small());
            let stats = NetlistStats::of(&n);
            assert!(
                stats.sequential > 0,
                "{} is purely combinational",
                bench.name()
            );
        }
    }
}
