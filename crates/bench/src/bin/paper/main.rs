//! Reproduces the paper: Figures 1-4, the optimality tables behind
//! Theorems 6.1 and 6.2, the ablations and the measured-vs-modeled sweep,
//! one module per section. Each section returns its text and its claims: a
//! claim is a sentence about the section's own numbers, computed from them.
//! `paper` takes no options: it prints every section, then each false claim
//! by name, and exits non-zero when there is one.
//!
//! Run with: `cargo run --release -p mttkrp-bench --bin paper`

mod ablation;
mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod table_par;
mod table_seq;
mod validate;

use std::process::ExitCode;

/// One section's output: its text and its named claims.
#[derive(Default)]
struct Section {
    text: String,
    claims: Vec<(String, bool)>,
}

impl Section {
    fn line(&mut self, line: impl AsRef<str>) {
        self.text += line.as_ref();
        self.text += "\n";
    }

    /// Records a claim: `name` states a result, `holds` whether it is true.
    fn claim(&mut self, name: impl Into<String>, holds: bool) {
        self.claims.push((name.into(), holds));
    }

    /// Claims that `values` read `expect` to two decimals; the name lists
    /// `expect`, and what was read when it differs.
    fn pin(&mut self, what: &str, values: &[f64], expect: &[f64]) {
        let near = |(v, e): (&f64, &f64)| (v - e).abs() < 0.005;
        let holds = values.len() == expect.len() && values.iter().zip(expect).all(near);
        let read = (!holds).then(|| format!(" (reads {values:.2?})"));
        let name = format!("{what}: {expect:.2?}{}", read.unwrap_or_default());
        self.claim(name, holds);
    }
}

/// Runs every section in the paper's order; returns the whole report and
/// its false claims, each named `section: claim`.
fn run() -> (String, Vec<String>) {
    let sections = [
        ("fig1", fig1::section as fn() -> Section),
        ("fig2", fig2::section),
        ("fig3", fig3::section),
        ("fig4", fig4::section),
        ("table_seq", table_seq::section),
        ("table_par", table_par::section),
        ("ablation", ablation::section),
        ("validate", validate::section),
    ];
    let (mut out, mut wrong, mut total) = (String::new(), Vec::new(), 0);
    for (key, section) in sections {
        let s = section();
        out += &format!("{}\nClaims ({key}):\n", s.text);
        for (name, holds) in s.claims {
            out += &format!("- [{}] {name}\n", if holds { "x" } else { " " });
            total += 1;
            if !holds {
                wrong.push(format!("{key}: {name}"));
            }
        }
        out += "\n";
    }
    out += &format!("{total} claims checked, {} false\n", wrong.len());
    (out, wrong)
}

fn main() -> ExitCode {
    let (report, wrong) = run();
    print!("{report}");
    for name in &wrong {
        println!("FALSE: {name}");
    }
    ExitCode::from(u8::from(!wrong.is_empty()))
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_claim_holds() {
        let (_, wrong) = super::run();
        assert!(wrong.is_empty(), "false claims:\n{}", wrong.join("\n"));
    }
}
