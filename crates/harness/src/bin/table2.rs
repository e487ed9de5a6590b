//! Regenerates Table 2 of the paper: average latency with
//! `f = ⌊(n−1)/3⌋` processes crashed before the run (fail-stop).
//!
//! Usage: `table2 [reps]` (default 50). The knobs, supervision and exit
//! status are the grid driver's ([`turquois_harness::grid`]).

use turquois_harness::experiment::paper_table_main;
use turquois_harness::FaultLoad;

fn main() {
    paper_table_main("table2", "Table 2", FaultLoad::FailStop);
}
