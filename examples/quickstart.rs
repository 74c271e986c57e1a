//! Quickstart: build a k-reach index on the paper's running example, answer
//! the queries of Example 2, and round-trip the index through its on-disk
//! format.
//!
//! Run with `cargo run --example quickstart`.

use kreach::core::paper_example::{self, label};
use kreach::prelude::*;

fn main() {
    // The ten-vertex graph of Figure 1.
    let g = paper_example::paper_example_graph();
    println!(
        "example graph: {} vertices, {} edges",
        g.vertex_count(),
        g.edge_count()
    );

    // Build a 3-reach index with the degree-prioritized vertex cover.
    let index = KReachIndex::build(&g, 3, BuildOptions::default());
    println!(
        "3-reach index: cover of {} vertices, {} index edges, {} bytes",
        index.cover_size(),
        index.index_edge_count(),
        index.size_bytes()
    );

    // The eight queries of Example 2 (two per case of Algorithm 2).
    let queries = [
        (paper_example::B, paper_example::G),
        (paper_example::B, paper_example::I),
        (paper_example::D, paper_example::H),
        (paper_example::D, paper_example::J),
        (paper_example::A, paper_example::D),
        (paper_example::A, paper_example::G),
        (paper_example::C, paper_example::F),
        (paper_example::C, paper_example::H),
    ];
    for (s, t) in queries {
        let (answer, case) = index.query_with_case(&g, s, t);
        println!(
            "  {} ->3 {} ?  {}  (case {})",
            label(s),
            label(t),
            if answer { "yes" } else { "no " },
            case.number()
        );
    }

    // Indexes are meant to be built once and stored on disk (Section 4.1.3).
    let path = std::env::temp_dir().join("kreach-quickstart.idx");
    kreach::store::save_index_v3(&index, &path).expect("save index");
    let restored = kreach::store::load_index(&path).expect("load index");
    assert_eq!(restored.k(), index.k());
    assert!(restored.query(&g, paper_example::B, paper_example::G));
    println!("index round-tripped through {}", path.display());
    std::fs::remove_file(&path).ok();

    // Classic reachability is just k = n.
    let nreach = KReachIndex::for_classic_reachability(&g, BuildOptions::default());
    println!(
        "classic reachability: a -> j ? {}",
        nreach.query(&g, paper_example::A, paper_example::J)
    );
}
