//! The index and the linear scan both rank only the vectors of the query's
//! dimension; `proptest_search` checks the same over generated histories.

use laminar_embed::Embedding;
use laminar_oracle::scan;
use laminar_registry::{
    ranked_pe_hits, Dao, PeEntity, SearchOptions, Store, VecField, WalStore, DEFAULT_SEARCH_LIMIT,
};

#[test]
fn mixed_dimensions_rank_the_query_dimension_on_both_paths() {
    let pe = |id: i64, desc: &[f32]| PeEntity {
        pe_id: 0,
        pe_name: format!("P{id}"),
        description: String::new(),
        description_generated: false,
        pe_code: String::new(),
        pe_imports: vec![],
        code_embedding: Embedding::from_dense(&[1.0, 0.0]),
        desc_embedding: Embedding::from_dense(desc),
    };
    let mut dao = Dao::new(Store::new(), WalStore::ephemeral());
    dao.insert_pe(pe(1, &[1.0, 0.0]), 1).unwrap();
    dao.insert_pe(pe(2, &[1.0, 0.0, 0.0]), 1).unwrap();
    let (two_d, one_d) = (Embedding::from_dense(&[1.0, 0.0]), Embedding::from_dense(&[1.0]));
    // `cosine` over the whole mixed description space would panic.
    let cases: [(VecField, &Embedding, &[&str]); 3] = [
        (VecField::Code, &two_d, &["P1", "P2"]),
        (VecField::Desc, &two_d, &["P1"]),
        (VecField::Code, &one_d, &[]),
    ];
    for (field, q, expected) in cases {
        let indexed = ranked_pe_hits(&dao, 1, q, field, &SearchOptions::default());
        let scanned = scan::ranked_pe_hits(&dao, 1, q, field, DEFAULT_SEARCH_LIMIT);
        for (path, hits) in [("index", indexed), ("scan", scanned)] {
            let names: Vec<String> = hits.into_iter().map(|h| h.name).collect();
            assert_eq!(names, expected, "{field:?} at dim {}, {path}", q.dim());
        }
    }
}
