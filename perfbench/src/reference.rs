//! Reference outputs for the 20 × 14 paper sweep.
//!
//! The reference is generated with the tree-walking VM (`VmBackend::Walk`,
//! the reference semantics), never with the bytecode path the workloads
//! time. Regenerate it with
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --regen-reference
//! ```
//!
//! Each line holds one cell: program, configuration label, and either the
//! return value and printed lines, or the trap kind.

use std::collections::HashMap;
use std::fmt::Write as _;

use bench::driver::{benchmark_programs, paper_sweep_configs, CellOk, CellTrap, Driver};
use bench::json::{json_str, json_str_array, Json};
use memvm::{VmBackend, VmConfig};

/// The committed reference file, relative to the package root.
pub const FILE: &str = "reference/sweep-cells.jsonl";

const TEXT: &str = include_str!("../reference/sweep-cells.jsonl");

/// What one cell must produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expected {
    Ok { ret: Option<i64>, output: Vec<String> },
    Trap { kind: String },
}

/// Expected outcome per (program, config label).
pub struct Reference {
    cells: HashMap<(String, String), Expected>,
}

fn line_for(program: &str, config: &str, e: &Expected) -> String {
    let mut s = format!("{{\"program\":{},\"config\":{}", json_str(program), json_str(config));
    match e {
        Expected::Ok { ret, output } => {
            let ret = ret.map_or("null".to_string(), |r| r.to_string());
            let _ = write!(s, ",\"ok\":true,\"ret\":{ret},\"output\":{}", json_str_array(output));
        }
        Expected::Trap { kind } => {
            let _ = write!(s, ",\"ok\":false,\"trap_kind\":{}", json_str(kind));
        }
    }
    s.push('}');
    s
}

/// Parses a cell object as the reference file and `mi-serve/1` run
/// results both render it (`ok`, `ret`, `output` or `trap_kind`).
pub fn parse_cell(v: &Json) -> Result<((String, String), Expected), String> {
    let field = |k: &str| v.get(k).ok_or_else(|| format!("cell missing {k:?}"));
    let program = field("program")?.as_str().ok_or("bad program")?.to_string();
    let config = field("config")?.as_str().ok_or("bad config")?.to_string();
    let e = if field("ok")?.as_bool().ok_or("bad ok")? {
        let ret = match field("ret")? {
            Json::Null => None,
            r => Some(r.as_i64().ok_or("bad ret")?),
        };
        let output = field("output")?
            .as_arr()
            .ok_or("bad output")?
            .iter()
            .map(|l| l.as_str().map(str::to_string).ok_or("bad output line"))
            .collect::<Result<_, _>>()?;
        Expected::Ok { ret, output }
    } else {
        Expected::Trap { kind: field("trap_kind")?.as_str().ok_or("bad trap_kind")?.to_string() }
    };
    Ok(((program, config), e))
}

/// The outcome of a driver cell in reference form.
pub fn expected_of(outcome: &Result<CellOk, CellTrap>) -> Expected {
    match outcome {
        Ok(ok) => Expected::Ok { ret: ok.ret, output: ok.output.clone() },
        Err(t) => Expected::Trap { kind: t.kind.name().to_string() },
    }
}

impl Reference {
    /// Loads the committed reference.
    pub fn load() -> Result<Reference, String> {
        let mut cells = HashMap::new();
        for (i, line) in TEXT.lines().enumerate() {
            let v = Json::parse(line).map_err(|e| format!("{FILE}:{}: {e}", i + 1))?;
            let (key, e) = parse_cell(&v).map_err(|e| format!("{FILE}:{}: {e}", i + 1))?;
            cells.insert(key, e);
        }
        Ok(Reference { cells })
    }

    /// Whether `got` is the reference outcome of (`program`, `config`).
    pub fn matches(&self, program: &str, config: &str, got: &Expected) -> bool {
        self.cells.get(&(program.to_string(), config.to_string())) == Some(got)
    }
}

/// Runs the full sweep on the tree-walking VM and renders the reference.
pub fn generate() -> String {
    let walk = VmConfig { backend: VmBackend::Walk, ..VmConfig::default() };
    let report =
        Driver::new(benchmark_programs(), paper_sweep_configs()).with_jobs(1).with_vm(walk).run();
    let mut out = String::new();
    for cell in &report.cells {
        out.push_str(&line_for(&cell.program, &cell.config, &expected_of(&cell.outcome)));
        out.push('\n');
    }
    out
}
