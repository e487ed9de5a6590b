//! Regenerates Table 3 of the paper: average latency with
//! `f = ⌊(n−1)/3⌋` Byzantine processes following the §7.2 attack
//! strategies.
//!
//! Usage: `table3 [reps]` (default 50). The knobs, supervision and exit
//! status are the grid driver's ([`turquois_harness::grid`]).

use turquois_harness::experiment::paper_table_main;
use turquois_harness::FaultLoad;

fn main() {
    paper_table_main("table3", "Table 3", FaultLoad::Byzantine);
}
