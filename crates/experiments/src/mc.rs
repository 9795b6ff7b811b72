//! §5.1 subsampling analysis (Figs. 8, 15, 25), in the exact forms of
//! [`vrd_core::montecarlo`].

use serde::{Deserialize, Serialize};

use vrd_core::montecarlo::{
    exact_p_within_margin, exact_stats, MinRdtStats, PAPER_MARGINS, PAPER_N_VALUES,
};
use vrd_stats::BoxSummary;

use crate::indepth::InDepthStudy;
use crate::render::{f, sci, Table};

/// All per-row subsampling statistics for one N.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerNStats {
    /// Subsample size.
    pub n: usize,
    /// Distribution of P(find min) across rows/conditions.
    pub p_find_min: BoxSummary,
    /// Distribution of the expected normalized min RDT.
    pub expected_norm_min: BoxSummary,
    /// The raw per-row points `(p_find_min, expected_norm_min)` for the
    /// Fig. 8-bottom / Fig. 25 scatter.
    pub scatter: Vec<(f64, f64)>,
}

/// Computes the Fig. 8 statistics from the in-depth study.
pub fn fig8_stats(study: &InDepthStudy) -> Vec<PerNStats> {
    let mut out = Vec::new();
    for &n in PAPER_N_VALUES.iter() {
        let points: Vec<MinRdtStats> = study
            .cells()
            .filter(|(_, cs)| cs.series.len() >= n.max(2))
            .map(|(_, cs)| exact_stats(&cs.series, n))
            .collect();
        if points.is_empty() {
            continue;
        }
        let p_values: Vec<f64> = points.iter().map(|p| p.p_find_min).collect();
        let e_values: Vec<f64> = points.iter().map(|p| p.expected_normalized_min).collect();
        out.push(PerNStats {
            n,
            p_find_min: BoxSummary::from_values(&p_values).expect("non-empty"),
            expected_norm_min: BoxSummary::from_values(&e_values).expect("non-empty"),
            scatter: points.iter().map(|p| (p.p_find_min, p.expected_normalized_min)).collect(),
        });
    }
    out
}

/// Renders Fig. 8 (top + middle as tables; bottom as percentile rows).
pub fn render_fig8(study: &InDepthStudy) -> String {
    let stats = fig8_stats(study);
    let mut top = Table::new(["N", "P(find min): min", "median", "max"]);
    let mut mid = Table::new(["N", "E[norm min]: min", "median", "max"]);
    for s in &stats {
        top.row([
            s.n.to_string(),
            sci(s.p_find_min.min),
            sci(s.p_find_min.median),
            sci(s.p_find_min.max),
        ]);
        mid.row([
            s.n.to_string(),
            f(s.expected_norm_min.min, 3),
            f(s.expected_norm_min.median, 3),
            f(s.expected_norm_min.max, 3),
        ]);
    }
    format!(
        "Fig. 8 (top) — probability of finding the minimum RDT with N measurements:\n{}\n\
         Fig. 8 (middle) — expected normalized value of the minimum RDT:\n{}",
        top.render(),
        mid.render()
    )
}

/// Renders the Fig. 25 scatter (expanded Fig. 8 bottom): worst rows per N.
pub fn render_fig25(study: &InDepthStudy) -> String {
    let stats = fig8_stats(study);
    let mut table = Table::new(["N", "worst rows (P(find min), E[norm min])"]);
    for s in &stats {
        let mut worst = s.scatter.clone();
        worst.sort_by(|a, b| {
            (b.1 / (a.0 + 1e-12)).partial_cmp(&(a.1 / (b.0 + 1e-12))).expect("finite")
        });
        let head: Vec<String> =
            worst.iter().take(5).map(|(p, e)| format!("({}, {})", sci(*p), f(*e, 3))).collect();
        table.row([s.n.to_string(), head.join("  ")]);
    }
    format!(
        "Fig. 25 — expected normalized min RDT over P(find min); the top-left \
         corner (low probability, high expectation) is the worst VRD:\n{}",
        table.render()
    )
}

/// Fig. 15: mean and minimum probability of finding the minimum within a
/// safety margin, per N and margin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarginStats {
    /// Subsample size.
    pub n: usize,
    /// `(margin, mean probability, min probability)` rows.
    pub per_margin: Vec<(f64, f64, f64)>,
}

/// Computes the Fig. 15 statistics.
pub fn fig15_stats(study: &InDepthStudy) -> Vec<MarginStats> {
    let mut out = Vec::new();
    for &n in PAPER_N_VALUES.iter() {
        let mut per_margin = Vec::new();
        for &margin in PAPER_MARGINS.iter() {
            let mut sum = 0.0;
            let mut min = f64::INFINITY;
            let mut count = 0usize;
            for (_, cs) in study.cells().filter(|(_, cs)| cs.series.len() >= n.max(2)) {
                let p = exact_p_within_margin(&cs.series, n, margin);
                sum += p;
                min = min.min(p);
                count += 1;
            }
            if count > 0 {
                per_margin.push((margin, sum / count as f64, min));
            }
        }
        if !per_margin.is_empty() {
            out.push(MarginStats { n, per_margin });
        }
    }
    out
}

/// Renders Fig. 15.
pub fn render_fig15(study: &InDepthStudy) -> String {
    let stats = fig15_stats(study);
    let mut table = Table::new(["N", "margin", "mean P(within)", "min P(within)"]);
    for s in &stats {
        for (margin, mean, min) in &s.per_margin {
            table.row([
                s.n.to_string(),
                format!("{:.0}%", margin * 100.0),
                f(*mean, 4),
                f(*min, 4),
            ]);
        }
    }
    format!(
        "Fig. 15 — probability of finding the minimum RDT within a safety margin:\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Options;
    use std::sync::OnceLock;

    fn smoke_study() -> &'static InDepthStudy {
        static STUDY: OnceLock<InDepthStudy> = OnceLock::new();
        STUDY.get_or_init(|| {
            let mut opts = Options::smoke();
            opts.modules = vec!["M1".into(), "S2".into()];
            opts.indepth_measurements = 100;
            opts.picks_per_segment = 3;
            crate::studies::Studies::new(&opts).indepth().clone()
        })
    }

    #[test]
    fn fig8_probability_monotone_in_n() {
        let stats = fig8_stats(smoke_study());
        assert!(stats.len() >= 3);
        for pair in stats.windows(2) {
            assert!(
                pair[1].p_find_min.median >= pair[0].p_find_min.median - 1e-9,
                "P(find min) must grow with N"
            );
            assert!(
                pair[1].expected_norm_min.median <= pair[0].expected_norm_min.median + 1e-9,
                "E[norm min] must shrink with N"
            );
        }
    }

    #[test]
    fn fig8_expected_min_at_least_one() {
        for s in fig8_stats(smoke_study()) {
            assert!(s.expected_norm_min.min >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn fig15_margin_widens_probability() {
        let stats = fig15_stats(smoke_study());
        for s in &stats {
            for pair in s.per_margin.windows(2) {
                assert!(pair[1].1 >= pair[0].1 - 1e-9, "wider margin ⇒ higher mean P");
            }
        }
    }

    #[test]
    fn renders_nonempty() {
        let study = smoke_study();
        assert!(render_fig8(study).contains("Fig. 8"));
        assert!(render_fig15(study).contains("margin"));
        assert!(render_fig25(study).contains("Fig. 25"));
    }
}
