//! Regenerates **Table 7**: zero-shot clone detection (MAP@100 and
//! Precision@1) for the seven candidate models on the CodeNet-like clone
//! corpus. Exits 1 when the shape is violated.
//!
//! ```text
//! cargo run -p laminar-bench --bin table7 --release
//! ```

use laminar_bench::{table7, Verdict, TABLE7_CORPUS};

fn main() {
    let (problems, variants, _) = TABLE7_CORPUS;
    println!("== Table 7: Zero-shot clone detection evaluation results ==");
    println!("(measured on the synthetic CodeNet-like corpus: {problems} problems x {variants} variants)");
    println!("(shape targets: ReACC best P@1; CodeBERT & gte worst; structure models strong MAP)\n");
    println!("{:<28} {:>9} {:>7}   {:>11} {:>9}", "Model", "MAP@100", "P@1", "paper MAP", "paper P@1");

    let table = table7();
    for r in &table.rows {
        println!("{:<28} {:>9.2} {:>7.2}   {:>11.2} {:>9.2}", r.model, r.map, r.p1, r.paper_map, r.paper_p1);
    }
    let yes = |ok: bool| if ok { "yes" } else { "NO" };
    println!("\nReACC has best Precision@1: {}", yes(table.reacc_best_p1));
    println!("CodeBERT/gte-large weakest MAP: {}", yes(table.weakest_map));
    println!("\nshape {}", table.verdict.as_str());
    if table.verdict == Verdict::Violated {
        std::process::exit(1);
    }
}
