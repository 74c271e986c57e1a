//! # kreach-bench
//!
//! Benchmark harness reproducing the evaluation of the K-Reach paper
//! (Section 6). Every table of the paper has a dedicated binary:
//!
//! | Paper table | Binary | What it prints |
//! |---|---|---|
//! | Table 2 | `table2` | dataset statistics (paper vs generated stand-in) |
//! | Table 3 | `table3` | index construction time for n-reach and the baselines |
//! | Table 4 | `table4` | index sizes |
//! | Table 5 | `table5` | total time for the random reachability workload |
//! | Table 6 | `table6` | performance ranking derived from Tables 3–5 |
//! | Table 7 | `table7` | k-reach for k = 2, 4, 6, µ, n vs µ-BFS and µ-dist |
//! | Table 8 | `table8` | query-case distribution of the random workload |
//! | Table 9 | `table9` | vertex cover vs 2-hop cover, µ-reach vs (2,µ)-reach |
//! | §4.3 / §4.4 | `ablation_cover`, `ablation_general_k` | design-choice ablations |
//!
//! All binaries accept `--scale F` (divide dataset sizes by `F`),
//! `--queries N` (workload size), `--datasets a,b,c` (subset by name) and
//! `--seed S`, so the full paper-scale run and a quick smoke run use the same
//! code path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod suite;
pub mod table;

pub use config::BenchConfig;
pub use suite::{IndexReport, NReachAdapter};
pub use table::Table;
