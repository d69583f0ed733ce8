//! The paper's five claims as a gate, on the full seed-42 workload.
//!
//! Written at the commit *before* the estimator stopped expanding its
//! generating function and shown green there; the inequality tests are
//! what any later change to the estimator must keep passing unedited.
//! Every tolerance below is stated next to the seed-42 reading it was
//! taken from, so a failure says how far a claim moved, not only that
//! it did.
//!
//! The golden (`golden/tables_1_12_seed42.txt`) is Tables 1–12 as
//! `repro tables-1-6`, `tables-7-9` and `tables-10-12` print them. It
//! may be regenerated only when every match/mismatch cell is identical
//! and every moved d-N / d-S cell moved by one unit of its last printed
//! digit; a failing run leaves the text it computed in
//! `$CARGO_TARGET_TMPDIR/tables_1_12_seed42.actual.txt` to diff against.
//!
//! `threads: 2` is fixed, not "all cores": the runner adds the d-S
//! terms per worker chunk, so the chunking is part of the printed bits.

use seu_corpus::{paper_datasets, PaperDatasets};
use seu_eval::experiments::{
    run_guarantee, run_main_tables, run_quantized_tables, run_scalability, run_triplet_tables,
    ExperimentOutput,
};
use seu_eval::{EvalConfig, MethodResult, ThresholdRow};
use std::sync::OnceLock;

const SEED: u64 = 42;

fn datasets() -> &'static PaperDatasets {
    static DS: OnceLock<PaperDatasets> = OnceLock::new();
    DS.get_or_init(|| paper_datasets(SEED))
}

fn config() -> EvalConfig {
    EvalConfig {
        threads: 2,
        ..EvalConfig::default()
    }
}

fn main_tables() -> &'static ExperimentOutput {
    static OUT: OnceLock<ExperimentOutput> = OnceLock::new();
    OUT.get_or_init(|| run_main_tables(datasets(), &config()))
}

fn quantized_tables() -> &'static ExperimentOutput {
    static OUT: OnceLock<ExperimentOutput> = OnceLock::new();
    OUT.get_or_init(|| run_quantized_tables(datasets(), &config()))
}

fn triplet_tables() -> &'static ExperimentOutput {
    static OUT: OnceLock<ExperimentOutput> = OnceLock::new();
    OUT.get_or_init(|| run_triplet_tables(datasets(), &config()))
}

/// The subrange method's rows of Tables 1–6, per database.
fn full_subrange() -> Vec<(&'static str, &'static MethodResult)> {
    main_tables()
        .results
        .iter()
        .map(|(db, methods)| (db.as_str(), &methods[2]))
        .collect()
}

fn rows<'a>(
    a: &'a MethodResult,
    b: &'a MethodResult,
) -> impl Iterator<Item = (&'a ThresholdRow, &'a ThresholdRow)> {
    assert_eq!(a.rows.len(), 6, "thresholds 0.1 … 0.6");
    assert_eq!(a.rows.len(), b.rows.len());
    a.rows.iter().zip(&b.rows)
}

/// Claim 1 (Tables 1–6): subrange ≫ previous ≫ high-correlation on
/// match, mismatch, d-N and d-S, for D1′–D3′ at every threshold.
#[test]
fn claim_1_subrange_beats_previous_beats_high_correlation() {
    let out = main_tables();
    assert_eq!(out.results.len(), 3);
    for (db, methods) in &out.results {
        let [high, prev, sub] = &methods[..] else {
            panic!("{db}: three methods expected");
        };
        assert_eq!(
            (
                high.method.as_str(),
                prev.method.as_str(),
                sub.method.as_str()
            ),
            ("high-correlation", "prev", "subrange")
        );
        let mut mismatches = [0u64; 3];
        for ((h, p), (_, s)) in rows(high, prev).zip(rows(prev, sub)) {
            let at = format!("{db} T={}", s.threshold);
            assert!(s.u >= 100, "{at}: U = {} is too few to order methods", s.u);
            // Match: subrange strictly ahead everywhere (closest: D3′
            // T=0.1, 3055 against 2256); previous ahead of
            // high-correlation, strictly wherever either has ten
            // matches to its name (D1′ T=0.6 reads 0 against 0).
            assert!(
                s.matches > p.matches,
                "{at}: {} !> {}",
                s.matches,
                p.matches
            );
            assert!(
                p.matches >= h.matches,
                "{at}: {} !>= {}",
                p.matches,
                h.matches
            );
            if p.matches + h.matches >= 10 {
                assert!(
                    p.matches > h.matches,
                    "{at}: {} !> {}",
                    p.matches,
                    h.matches
                );
            }
            // The subrange method finds nearly every useful query
            // (lowest reading: D3′ T=0.3, 1415 of 1451 = 0.975).
            assert!(
                s.match_rate() >= 0.97,
                "{at}: match rate {}",
                s.match_rate()
            );
            // Mismatch: at most one per cell for subrange (D1′ T=0.3
            // reads 1 where previous reads 0, so the per-cell order is
            // not strict; the per-database totals below are).
            assert!(s.mismatches <= 1, "{at}: {} mismatches", s.mismatches);
            for (total, row) in mismatches.iter_mut().zip([h, p, s]) {
                *total += row.mismatches;
            }
            // d-N: previous never behind high-correlation; subrange
            // strictly ahead of previous from T=0.2 up. At T=0.1 the
            // two are within a few percent either way (D2′: 20.55
            // against 20.02 — as in the paper's own Table 2, where
            // subrange reads 3.77 against 3.70 at T=0.5).
            assert!(p.d_n() <= h.d_n(), "{at}: d-N {} !<= {}", p.d_n(), h.d_n());
            if s.threshold >= 0.15 {
                assert!(s.d_n() < p.d_n(), "{at}: d-N {} !< {}", s.d_n(), p.d_n());
            } else {
                assert!(
                    s.d_n() <= 1.05 * p.d_n(),
                    "{at}: d-N {} vs {}",
                    s.d_n(),
                    p.d_n()
                );
            }
            // d-S: strict, everywhere.
            assert!(s.d_s() < p.d_s(), "{at}: d-S {} !< {}", s.d_s(), p.d_s());
            assert!(p.d_s() < h.d_s(), "{at}: d-S {} !< {}", p.d_s(), h.d_s());
        }
        let [high_mis, prev_mis, sub_mis] = mismatches;
        assert!(
            sub_mis <= prev_mis && prev_mis < high_mis,
            "{db}: mismatches over all thresholds {sub_mis} / {prev_mis} / {high_mis}"
        );
    }
}

/// Claim 2 (Tables 7–9): one byte a number changes essentially nothing.
#[test]
fn claim_2_one_byte_quantization_is_essentially_free() {
    for ((db, full), (qdb, quantized)) in
        full_subrange().into_iter().zip(&quantized_tables().results)
    {
        assert_eq!(db, qdb);
        for (f, q) in rows(full, &quantized[0]) {
            let at = format!("{db} T={}", f.threshold);
            assert_eq!(f.u, q.u, "{at}: U is the truth's, not the estimator's");
            // Widest readings: matches D1′ T=0.1 2455 → 2439 (0.65 % of
            // U); mismatches D3′ T=0.2 0 → 8; d-N D2′ T=0.1 20.55 →
            // 20.33 (1.1 %) and D1′ T=0.4 0.57 → 0.58; d-S 0.001.
            let moved = f.matches.abs_diff(q.matches) as f64;
            assert!(
                moved <= 0.01 * f.u as f64,
                "{at}: matches {} → {}",
                f.matches,
                q.matches
            );
            assert!(
                q.mismatches <= f.mismatches + 10,
                "{at}: mismatches {} → {}",
                f.mismatches,
                q.mismatches
            );
            assert!(
                (f.d_n() - q.d_n()).abs() <= 0.03 + 0.02 * f.d_n(),
                "{at}: d-N {} → {}",
                f.d_n(),
                q.d_n()
            );
            assert!(
                (f.d_s() - q.d_s()).abs() <= 0.003,
                "{at}: d-S {} → {}",
                f.d_s(),
                q.d_s()
            );
        }
    }
}

/// Claim 3 (Tables 10–12): without the stored maximum normalized weight
/// (triplets) mismatches balloon at every threshold and matches, d-N and
/// d-S collapse where the threshold is high.
#[test]
fn claim_3_triplets_are_far_worse_than_quadruplets() {
    for ((db, quad), (tdb, triplet)) in full_subrange().into_iter().zip(&triplet_tables().results) {
        assert_eq!(db, tdb);
        for (q, t) in rows(quad, &triplet[0]) {
            let at = format!("{db} T={}", q.threshold);
            // Fewest extra mismatches: D1′ T=0.6, 0 → 11.
            assert!(
                t.mismatches >= q.mismatches + 10,
                "{at}: mismatches {} → {}",
                q.mismatches,
                t.mismatches
            );
            // d-N is never better (closest: T=0.1, e.g. D3′ 10.69 →
            // 10.71, where rounding can cost a hundredth).
            assert!(
                t.d_n() >= q.d_n() - 0.005,
                "{at}: d-N {} → {}",
                q.d_n(),
                t.d_n()
            );
            if q.threshold >= 0.25 {
                // Closest: D1′ T=0.3, matches 1322 → 500; d-S 0.070 → 0.214.
                assert!(
                    (t.matches as f64) < 0.5 * q.matches as f64,
                    "{at}: matches {} → {}",
                    q.matches,
                    t.matches
                );
                assert!(
                    t.d_s() >= 2.0 * q.d_s(),
                    "{at}: d-S {} → {}",
                    q.d_s(),
                    t.d_s()
                );
            }
            if q.threshold >= 0.35 {
                // Closest: D2′ T=0.4, d-N 1.16 → 2.08.
                assert!(
                    t.d_n() >= 1.5 * q.d_n(),
                    "{at}: d-N {} → {}",
                    q.d_n(),
                    t.d_n()
                );
            }
        }
    }
}

/// Claim 4 (§3.1): single-term queries select exactly the databases whose
/// maximum normalized weight exceeds the threshold.
#[test]
fn claim_4_single_term_selection_is_exact() {
    let text = run_guarantee(datasets(), &config().thresholds).text;
    assert!(!text.contains("VIOLATION"), "{text}");
    let counts = text
        .strip_prefix("Single-term guarantee: ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|pair| pair.split_once('/'))
        .unwrap_or_else(|| panic!("unexpected report: {text}"));
    let (exact, checked): (u64, u64) = (counts.0.parse().unwrap(), counts.1.parse().unwrap());
    assert_eq!(exact, checked, "{text}");
    // 1 869 single-term queries × 6 thresholds at seed 42.
    assert!(checked >= 10_000, "{text}");
}

/// Claim 5 (§3.2): the representative is a few percent of its collection
/// and one byte a number makes it about 2.5 × smaller. The paper reads
/// 3.79–7.40 % (WSJ, FR, DOE) and "about 1.5 % to 3 %"; the synthetic
/// TREC-scale stand-ins, with their shorter documents, read 6.37 / 7.33 /
/// 9.06 % and 2.55 / 2.94 / 3.62 % — the paper's band stretched by the
/// quarter DOE′ overshoots it, not the band itself.
#[test]
fn claim_5_representative_is_a_few_percent_of_the_collection() {
    let text = run_scalability(datasets(), SEED).text;
    let mut seen = 0;
    for line in text.lines() {
        let cells: Vec<&str> = line.split_whitespace().collect();
        if !matches!(cells.first(), Some(&"WSJ'" | &"FR'" | &"DOE'")) {
            continue;
        }
        seen += 1;
        let percent: f64 = cells[4].parse().unwrap();
        let quantized_percent: f64 = cells[6].parse().unwrap();
        assert!((3.8..=7.4 * 1.25).contains(&percent), "{line}");
        assert!((1.5..=3.0 * 1.25).contains(&quantized_percent), "{line}");
        let shrink = percent / quantized_percent;
        assert!(
            (2.4..=2.6).contains(&shrink),
            "{line}: 20 B → 8 B a term is 2.5 ×"
        );
    }
    assert_eq!(seen, 3, "{text}");
}

/// Tables 1–12 at printed precision.
#[test]
fn tables_1_to_12_match_the_golden() {
    let actual = [main_tables(), quantized_tables(), triplet_tables()]
        .map(|out| out.text.as_str())
        .concat();
    let golden = include_str!("golden/tables_1_12_seed42.txt");
    if actual == golden {
        return;
    }
    let dump =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tables_1_12_seed42.actual.txt");
    std::fs::write(&dump, &actual).expect("writing the computed tables");
    let moved: Vec<String> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("- {want}\n+ {got}"))
        .collect();
    panic!(
        "Tables 1–12 differ from the golden in {} line(s) ({} vs {} lines); computed text in {}:\n{}",
        moved.len(),
        golden.lines().count(),
        actual.lines().count(),
        dump.display(),
        moved.join("\n")
    );
}
