//! Regenerates **Table 6**: zero-shot text-to-code search MRR on the
//! CosQA-like and CSN-like datasets for unixcoder-base vs the fine-tuned
//! unixcoder-code-search. Exits 1 when the shape is violated.
//!
//! ```text
//! cargo run -p laminar-bench --bin table6 --release
//! ```

use laminar_bench::{table6, Verdict};

fn main() {
    println!("== Table 6: Results on zero-shot text-to-code search (MRR x100) ==");
    println!("(paper: unixcoder-base 43.1 / 44.7 ; unixcoder-code-search 58.8 / 72.2)");
    println!("(shape target: fine-tuned > base on both; CSN > CosQA for fine-tuned)\n");
    println!("{:<28} {:>10} {:>10}", "Model", "CosQA", "CSN");

    let table = table6();
    for (model, cosqa, csn) in &table.rows {
        println!("{model:<28} {cosqa:>10.1} {csn:>10.1}");
    }
    println!("\nshape {}", table.verdict.as_str());
    if table.verdict == Verdict::Violated {
        std::process::exit(1);
    }
}
