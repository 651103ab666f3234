//! Tables 6 and 7 are seeded and CPU-only, so every figure their bins
//! print is pinned here at the precision printed, beside the shape
//! verdict. A change to the tokenizer, the script parser, a model's
//! channels or the ranking kernel that moves a figure fails this suite, and
//! must update the pin it moves and say why.

use laminar_bench::{table6, table7, Verdict};

#[test]
fn table6_figures_and_shape() {
    let table = table6();
    let printed: Vec<String> =
        table.rows.iter().map(|(model, cosqa, csn)| format!("{model} {cosqa:.1} {csn:.1}")).collect();
    assert_eq!(printed, ["unixcoder-base 18.6 27.8", "unixcoder-code-search 26.5 47.1"]);
    assert_eq!(table.verdict, Verdict::Holds);
}

#[test]
fn table7_figures_and_shape() {
    let table = table7();
    let printed: Vec<String> =
        table.rows.iter().map(|r| format!("{} {:.2} {:.2}", r.model, r.map, r.p1)).collect();
    // Two MAPs moved by tie order when cosine became the sparse
    // ascending-bucket sum (its norms no longer come from an 8-lane dense
    // kernel): CodeBERT 35.68 -> 35.67, gte-large 37.38 -> 37.43.
    assert_eq!(
        printed,
        [
            "CodeBERT 35.67 81.67",
            "GraphCodeBERT 36.58 91.67",
            "ReACC-retriever-py 40.64 100.00",
            "thenlper/gte-large 37.43 93.33",
            "BAAI/bge-large-en 39.52 99.17",
            "unixcoder-clone-detection 51.00 86.67",
            "unixcoder-code-search 48.95 97.50",
        ]
    );
    assert!(table.reacc_best_p1 && table.weakest_map);
    assert_eq!(table.verdict, Verdict::Holds);
}
