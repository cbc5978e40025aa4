//! Golden-file regression tests for the interchange formats and for what
//! the lock flow produces.
//!
//! The Verilog writer and the JSON interchange forms (fabric architecture,
//! bitstream) are consumed outside this workspace — by reference EDA tools
//! in the paper's flow and by the replayable fuzz artifacts — so their
//! *exact bytes* are part of the contract, not just their parse result.
//! Each format test renders a small deterministic artifact and compares it
//! to a fixture under `tests/golden/`, then proves the round trip is
//! lossless. The lock-corpus and baseline-case tests pin the flow's output
//! digests instead.
//!
//! After an intentional change, regenerate with `UPDATE_GOLDEN=1 cargo
//! test --release -p xtests --test golden -- --include-ignored` and review
//! the fixture diff like any other code change.

use shell_circuits::{axi_xbar, c17, generate, Benchmark, Scale};
use shell_fabric::{Bitstream, Fabric, FabricConfig};
use shell_lock::{redact_baseline, shell_lock, BaselineCase, RedactionOutcome, ShellOptions};
use shell_netlist::verilog::{parse_verilog, write_verilog};
use shell_netlist::{equiv_exhaustive, Netlist};
use shell_serve::ContentHash;
use shell_util::Json;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read fixture {}: {e}\n(regenerate with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "`{name}` drifted from its fixture — if the format change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn verilog_export_matches_golden_and_reparses() {
    let design = c17();
    let text = write_verilog(&design);
    check_golden("c17.v", &text);
    let parsed = parse_verilog(&text).expect("golden Verilog parses");
    assert!(
        equiv_exhaustive(&design, &parsed, &[], &[]).is_equivalent(),
        "c17 Verilog round trip diverged"
    );
}

#[test]
fn fabric_arch_json_matches_golden_and_round_trips() {
    let fabric = Fabric::generate(FabricConfig::fabulous_style(true), 2, 2);
    let text = fabric.to_arch_json().to_string_pretty();
    check_golden("fabric_fabulous_2x2.arch.json", &text);
    let parsed = Json::parse(&text).expect("fixture is valid JSON");
    let rebuilt = Fabric::from_arch_json(&parsed).expect("arch JSON loads");
    assert_eq!(
        rebuilt.to_arch_json().to_string_pretty(),
        text,
        "arch JSON round trip must be byte-identical"
    );
}

#[test]
fn bitstream_json_matches_golden_and_round_trips() {
    // A deterministic sparse pattern exercising used and unused bits.
    let mut bs = Bitstream::zeros(24);
    for i in (0..24).step_by(3) {
        bs.set(i, i % 2 == 0);
    }
    bs.set(5, true);
    let text = bs.to_json().to_string_pretty();
    check_golden("bitstream_24.json", &text);
    let parsed = Json::parse(&text).expect("fixture is valid JSON");
    let rebuilt = Bitstream::from_json(&parsed).expect("bitstream JSON loads");
    assert_eq!(rebuilt.len(), bs.len());
    assert_eq!(rebuilt.as_bools(), bs.as_bools());
    assert_eq!(rebuilt.used_mask(), bs.used_mask());
    assert_eq!(
        rebuilt.to_json().to_string_pretty(),
        text,
        "bitstream JSON round trip must be byte-identical"
    );
}

/// What place and route produce on the benchmark's lock corpus (the five
/// paper circuits at `Scale::small()` plus `axi_xbar(4, 1)`): per design,
/// the post-shrink key width and the SHA-256 of the framed bitstream's
/// compact JSON and of the locked netlist's Verilog. Any change to packing,
/// placement, routing or shrinking that moves one configuration bit shows
/// here. Too slow for a debug build, so run it in release: `cargo test
/// --release -p xtests --test golden -- --include-ignored`.
#[test]
#[ignore = "release only"]
fn lock_corpus_matches_golden() {
    let mut designs: Vec<Netlist> = Benchmark::all()
        .into_iter()
        .map(|b| generate(b, Scale::small()))
        .collect();
    designs.push(axi_xbar(4, 1));
    let options = ShellOptions::default();
    let mut text = String::new();
    for design in &designs {
        let outcome =
            shell_lock(design, &options).unwrap_or_else(|e| panic!("{}: {e}", design.name()));
        writeln!(text, "{} {}", design.name(), digest_line(&outcome)).unwrap();
    }
    check_golden("lock_corpus.txt", &text);
}

/// What place and route produce for the four redaction cases of Tables
/// IV/V (square OpenFPGA, FABulous without chains, and the SheLL chain
/// flow) on the five paper circuits at `Scale::small()`: per (circuit,
/// case), the key width and the framed-bitstream and locked-netlist
/// digests of [`redact_baseline`]. Release only, like the lock corpus.
#[test]
#[ignore = "release only"]
fn baseline_cases_match_golden() {
    let options = ShellOptions::default();
    let mut text = String::new();
    for bench in Benchmark::all() {
        let design = generate(bench, Scale::small());
        for (i, case) in BaselineCase::all().into_iter().enumerate() {
            let cells = case.target_cells(bench, &design);
            let outcome = redact_baseline(&design, &cells, case, &options)
                .unwrap_or_else(|e| panic!("{} {}: {e}", design.name(), case.label()));
            let line = digest_line(&outcome);
            writeln!(text, "{} case{} {line}", design.name(), i + 1).unwrap();
        }
    }
    check_golden("baseline_cases.txt", &text);
}

/// The key width and the SHA-256 of the framed bitstream's compact JSON
/// and of the locked netlist's Verilog.
fn digest_line(outcome: &RedactionOutcome) -> String {
    format!(
        "key_bits={} framed={} locked={}",
        outcome.key_bits(),
        ContentHash::of_json(&outcome.framed.to_json()).as_hex(),
        ContentHash::of_bytes(write_verilog(&outcome.locked).as_bytes()).as_hex(),
    )
}
