//! Ablation A4 (see [`turquois_harness::calibrate`]). Usage: `calibrate`,
//! no arguments: the SHA-256 engine, then each primitive's median and
//! minimum ns per operation, in about a second.

fn main() {
    println!("sha256 engine: {}", turquois_crypto::sha256::engine());
    for row in turquois_harness::calibrate::table(turquois_harness::calibrate::ROW_BUDGET) {
        println!("{:<26}{:>12.1} ns median{:>12.1} ns min", row.name, row.median_ns, row.min_ns);
    }
}
