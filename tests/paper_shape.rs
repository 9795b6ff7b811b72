//! Paper-shape regression tests: the headline quantitative claims of the
//! paper, asserted against the simulated fleet at moderate scale. These
//! are the numbers EXPERIMENTS.md reports; if a model change breaks the
//! shape, this suite catches it.

use vrd::bender::estimate::single_row_test_time_s;
use vrd::core::campaign::{foundational_campaign, FoundationalConfig};
use vrd::core::exec::ExecConfig;
use vrd::core::metrics::SeriesMetrics;
use vrd::core::montecarlo::exact_stats;
use vrd::core::run::RunOptions;
use vrd::dram::ModuleSpec;
use vrd::ecc::analysis;

fn foundational_series(module: &str, measurements: u32) -> vrd::core::RdtSeries {
    let spec = ModuleSpec::by_name(module).expect("Table-1 module");
    let cfg = FoundationalConfig {
        measurements,
        row_bytes: 512,
        scan_rows: 20_000,
        ..FoundationalConfig::default()
    };
    let opts = RunOptions::new(ExecConfig::new(1, cfg.seed));
    foundational_campaign(&[spec], &cfg, &opts)
        .expect("plain run cannot fail")
        .remove(0)
        .expect("module has vulnerable rows")
        .series
}

#[test]
fn finding3_immediate_change_fraction_near_paper() {
    // Paper: 79.0% of state changes happen after a single measurement.
    let mut weighted = 0.0;
    let mut weight = 0.0;
    for module in ["M1", "S0", "H3"] {
        let series = foundational_series(module, 2_000);
        if let Some(frac) = SeriesMetrics::of(&series).immediate_change_fraction {
            weighted += frac * series.len() as f64;
            weight += series.len() as f64;
        }
    }
    let frac = weighted / weight;
    assert!(
        (0.55..=0.97).contains(&frac),
        "immediate-change fraction {frac} out of the paper-shape band (paper: 0.79)"
    );
}

#[test]
fn finding7_minimum_is_rare_at_n1() {
    // Paper: the median row's single measurement has ~0.2% probability
    // of hitting the 1000-measurement minimum; our band allows up to a
    // few percent.
    let mut ps = Vec::new();
    for module in ["M1", "S2", "H4"] {
        let series = foundational_series(module, 1_000);
        ps.push(exact_stats(&series, 1).p_find_min);
    }
    ps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = ps[ps.len() / 2];
    assert!(median < 0.08, "P(find min | N=1) median {median} too high — the minimum must be rare");
}

#[test]
fn finding9_more_measurements_find_the_minimum() {
    let series = foundational_series("M4", 1_000);
    let p1 = exact_stats(&series, 1).p_find_min;
    let p50 = exact_stats(&series, 50).p_find_min;
    let p500 = exact_stats(&series, 500).p_find_min;
    assert!(p1 < p50 && p50 < p500, "({p1}, {p50}, {p500}) must increase");
    assert!(p500 < 1.0 - 1e-12 || series.min_count() > 1, "even 500 draws may miss a unique min");
}

#[test]
fn headline_rdt_test_time_matches_paper() {
    // Paper §1: 94,467 measurements of one row at mean RDT 1,000 take
    // ≈ 9.5 seconds.
    let s = single_row_test_time_s(94_467, 1_000);
    assert!((s - 9.5).abs() < 2.0, "got {s} s, paper says ≈ 9.5 s");
}

#[test]
fn table3_values_match_paper() {
    let (sec, secded, ssc) = analysis::table3(analysis::PAPER_WORST_BER);
    let close = |a: f64, b: f64| (a / b - 1.0).abs() < 0.05;
    assert!(close(sec.uncorrectable, 1.48e-5));
    assert!(close(secded.undetectable, 2.64e-8));
    assert!(close(ssc.uncorrectable, 5.66e-5));
}

#[test]
fn fig14_shape_probabilistic_mitigations_pay_for_guardbands() {
    use vrd::memsim::system::{SimConfig, System};
    use vrd::memsim::workload::WorkloadParams;
    use vrd::memsim::MitigationKind;

    let cfg = SimConfig { cycles: 300_000, banks: 16, mix: WorkloadParams::paper_mixes()[0] };
    let norm = |kind: MitigationKind, threshold: u32| -> f64 {
        let baseline = System::run_mix(&cfg, MitigationKind::None, threshold, 4);
        System::run_mix(&cfg, kind, threshold, 4).weighted_ipc(&baseline)
    };
    // The paper's Fig.-14 shape at RDT 128 with a 50% guardband
    // (effective 64): PARA loses roughly a third, MINT collapses past
    // its per-tREFI cliff, Graphene and PRAC stay comparatively cheap.
    let para = norm(MitigationKind::Para, 64);
    let mint = norm(MitigationKind::Mint, 64);
    let graphene = norm(MitigationKind::Graphene, 64);
    let prac = norm(MitigationKind::Prac, 64);
    assert!(para < 0.85, "PARA at effective RDT 64 must pay heavily, got {para}");
    assert!(mint < 0.7, "MINT past its cliff must collapse, got {mint}");
    assert!(graphene > 0.9, "Graphene stays cheap, got {graphene}");
    assert!(prac > 0.8, "PRAC stays comparatively cheap, got {prac}");
    // And at RDT 1024 everything is near-free (paper's left panel).
    for kind in MitigationKind::EVALUATED {
        let ws = norm(kind, 1024);
        assert!(ws > 0.93, "{} at RDT 1024 must be near-free, got {ws}", kind.name());
    }
}

#[test]
fn takeaway2_even_many_measurements_can_miss_the_minimum() {
    // Find at least one module/row where the minimum appears exactly
    // once in 1,000 measurements (paper: "only 1 out of 1,000
    // measurements yields the minimum RDT value" for some rows).
    let mut found_rare = false;
    for module in ["S0", "M1", "H6", "S6"] {
        let series = foundational_series(module, 1_000);
        if series.min_count() <= 2 {
            found_rare = true;
            break;
        }
    }
    assert!(found_rare, "some row must have a (nearly) unique minimum");
}
