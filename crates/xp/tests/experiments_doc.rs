//! EXPERIMENTS.md's Figure 9 headline cells must match the full-mode
//! goldens at the table's one-decimal rounding: a golden that moves
//! without the document following it fails here.

use gpm_xp::registry::golden_for;
use gpm_xp::Mode;

const DOC: &str = include_str!("../../../EXPERIMENTS.md");

/// The number in the first bold span of the Measured (third) cell of
/// the table row labelled `label`, e.g. `**+2.2%**` → 2.2.
fn measured_cell(label: &str) -> f64 {
    let row = DOC
        .lines()
        .find(|l| l.starts_with(&format!("| {label} |")))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{label}` row"));
    let cell = row.split('|').nth(3).expect("row has a Measured cell");
    let bold = cell
        .split("**")
        .nth(1)
        .unwrap_or_else(|| panic!("`{label}` Measured cell has no bold value: {cell:?}"));
    bold.trim_end_matches('%')
        .replace('−', "-")
        .parse()
        .unwrap_or_else(|e| panic!("`{label}` Measured value {bold:?}: {e}"))
}

fn fig9_golden(metric: &str) -> f64 {
    golden_for("fig9", Mode::Full)
        .iter()
        .find(|e| e.metric == metric)
        .unwrap_or_else(|| panic!("no full-mode fig9 golden for {metric}"))
        .expected
}

#[test]
fn fig9_headline_cells_match_the_full_mode_goldens() {
    let perf_pct = (fig9_golden("rel_speedup") - 1.0) * 100.0;
    let energy_pct = fig9_golden("rel_energy_savings_pct");
    for (label, golden) in [
        ("MPC performance over PPK", perf_pct),
        ("MPC energy over PPK", energy_pct),
    ] {
        let cell = measured_cell(label);
        assert_eq!(
            format!("{cell:.1}"),
            format!("{golden:.1}"),
            "EXPERIMENTS.md `{label}` reads {cell}%, the golden rounds to {golden:.1}%"
        );
    }
}
