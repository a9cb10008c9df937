//! The MiniC concrete syntax is a faithful exchange format: every program
//! the automatic code generator emits pretty-prints to C that parses back
//! to the identical AST — so generated sources can be reviewed, stored and
//! re-ingested like the paper's C files.

use vericomp::dataflow::fleet;
use vericomp::minic::{parse, pretty, typeck};
use vericomp_testkit::fleet::{random_fleet, FleetConfig};

#[test]
fn named_suite_pretty_parse_identity() {
    for node in fleet::named_suite() {
        let p1 = node.to_minic();
        let text = pretty::program_to_c(&p1);
        let p2 = parse::parse(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", node.name()));
        assert_eq!(p1, p2, "{} does not round-trip", node.name());
        typeck::check(&p2).unwrap_or_else(|e| panic!("{}: {e}", node.name()));
    }
}

#[test]
fn random_fleet_pretty_parse_identity() {
    let cfg = FleetConfig {
        nodes: 25,
        min_symbols: 10,
        max_symbols: 60,
        seed: 2024,
    };
    for node in random_fleet(&cfg) {
        let p1 = node.to_minic();
        let text = pretty::program_to_c(&p1);
        let p2 = parse::parse(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", node.name()));
        assert_eq!(p1, p2, "{} does not round-trip", node.name());
    }
}

#[test]
fn large_integral_double_literals_pretty_parse_identity() {
    // integral doubles at or above 1e15 in magnitude print in exponent
    // form; a bare digit string would lex back as an (out-of-range) int.
    // Global initializers do so from 2^63 up: smaller integral ones keep
    // their digit string, so no existing canonical text moves
    use vericomp::minic::ast::{Expr, Function, Global, GlobalDef, Program, Stmt};
    let literals = [
        1e15,
        -1e15,
        1e20,
        -1e20,
        9_007_199_254_740_992.0, // 2^53
        -1e300,
    ];
    let global = |name: &str, def| Global {
        name: name.into(),
        def,
    };
    let p1 = Program {
        globals: vec![
            global("y", GlobalDef::ScalarF64(None)),
            global("g", GlobalDef::ScalarF64(Some(1e20))),
            global(
                "h",
                GlobalDef::ArrayF64(vec![
                    9_223_372_036_854_775_808.0, // 2^63
                    -9_223_372_036_854_775_808.0,
                    -1e300,
                    4_611_686_018_427_387_904.0, // 2^62
                    0.5,
                    -3.0,
                ]),
            ),
        ],
        functions: vec![Function {
            name: "step".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: literals
                .iter()
                .map(|&v| Stmt::Assign("y".into(), Expr::FloatLit(v)))
                .collect(),
        }],
    };
    let text = pretty::program_to_c(&p1);
    assert!(text.contains("y = 1e20;"), "{text}");
    assert!(text.contains("y = -1e300;"), "{text}");
    assert!(text.contains("double g = 1e20;"), "{text}");
    let h = "{9.223372036854776e18, -9.223372036854776e18, -1e300, 4611686018427388000, 0.5, -3}";
    assert!(text.contains(h), "{text}");
    let p2 = parse::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(p1, p2, "large literals do not round-trip:\n{text}");
    typeck::check(&p2).expect("typechecks");
}

#[test]
fn annotation_strings_pretty_parse_identity() {
    // the printer escapes exactly what the lexer reads (`"`, `\`,
    // newline) and the lexer decodes UTF-8, so control characters and
    // non-ASCII text survive the round trip
    use vericomp::minic::ast::{Expr, Function, Program, Stmt};
    let strings = [
        "tab\there",
        "cr\rhere",
        "quote\"here",
        "back\\slash",
        "new\nline",
        "caf\u{e9} %1",
        "a \u{2192} b",
        "all\t\r\"\\\n\u{e9}\u{2192}",
    ];
    let p1 = Program {
        globals: vec![],
        functions: vec![Function {
            name: "step".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: strings
                .iter()
                .map(|s| Stmt::Annot((*s).into(), vec![Expr::IntLit(1)]))
                .collect(),
        }],
    };
    let text = pretty::program_to_c(&p1);
    let p2 = parse::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(p1, p2, "annotation strings do not round-trip:\n{text}");
    // strings whose printed text already parsed print unchanged, so no
    // canonical text or source digest moves
    for s in &strings[2..7] {
        assert!(
            text.contains(&format!("__builtin_annotation({s:?}, 1);")),
            "{text}"
        );
    }
}

#[test]
fn hand_written_source_compiles_and_runs() {
    // The full path from C text: parse → typecheck → compile → simulate.
    let src = r#"
        double target;
        double position;
        double integ;
        void step() {
            double err;
            err = (target - position);
            integ = (integ + (0.1 * err));
            if (integ > 5.0) { integ = 5.0; }
            if (integ < -5.0) { integ = -5.0; }
            position = (position + ((0.5 * err) + integ));
            __io_write(3, position);
        }
    "#;
    let prog = parse::parse(src).expect("parses");
    typeck::check(&prog).expect("typechecks");
    let binary = vericomp::core::Compiler::new(vericomp::core::OptLevel::Verified)
        .compile(&prog, "step")
        .expect("compiles");
    let mut sim = vericomp::mach::Simulator::new(binary);
    sim.set_global_f64("target", 0, 4.0).expect("global exists");
    for _ in 0..50 {
        sim.run(1_000_000).expect("runs");
    }
    let pos = sim.global_f64("position", 0).expect("global exists");
    assert!(
        (pos - 4.0).abs() < 0.5,
        "controller should approach the target, got {pos}"
    );
}
