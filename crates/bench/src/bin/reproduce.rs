//! One command for the whole paper reproduction: runs every registered
//! experiment work-stealing-parallel over a shared evaluation context,
//! writes one schema-versioned JSON record per experiment (to
//! `results/xp`, or `results/fast/xp` with `--fast`) plus an aggregate
//! report, and exits nonzero when any metric leaves its tolerance band.
//! Golden bands are the metrics of the mode's committed records.
//!
//! ```text
//! reproduce [--fast | --full] [--filter SUBSTR]... [--jobs N]
//!           [--resume] [--out DIR] [--aggregate PATH]
//!           [--list]
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    gpm_xp::cli::reproduce_main()
}
