//! Regenerates Table 1 of the paper: average latency (ms) ± 95 % CI in
//! a failure-free 802.11b network, for n ∈ {4, 7, 10, 13, 16},
//! unanimous and divergent proposals, Turquois vs ABBA vs Bracha.
//!
//! Usage: `table1 [reps]` (default 50). The knobs, supervision and exit
//! status are the grid driver's ([`turquois_harness::grid`]).

use turquois_harness::experiment::paper_table_main;
use turquois_harness::FaultLoad;

fn main() {
    paper_table_main("table1", "Table 1", FaultLoad::FailureFree);
}
