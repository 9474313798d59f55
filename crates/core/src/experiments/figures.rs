//! Renderers for the paper's fifteen figures (ASCII charts + data access).

use crate::experiments::nat::NatRun;
use crate::pipeline::MainRun;
use csprov_analysis::plot::{bar_chart, line_chart};
use csprov_analysis::report::fmt_f64;
use csprov_analysis::{LineFit, VtPoint};
use csprov_net::Direction;
use csprov_sim::SimDuration;
use std::fmt::Write as _;

const CHART_W: usize = 72;
const CHART_H: usize = 12;

/// Figure 1: per-minute bandwidth of the server for the entire trace.
pub fn fig1(run: &MainRun) -> String {
    line_chart(
        "Figure 1: per-minute bandwidth (kbps)",
        &run.analysis.per_minute.kbps(),
        CHART_W,
        CHART_H,
    )
}

/// Figure 2: per-minute packet load for the entire trace.
pub fn fig2(run: &MainRun) -> String {
    line_chart(
        "Figure 2: per-minute packet load (pps)",
        &run.analysis.per_minute.pps(),
        CHART_W,
        CHART_H,
    )
}

/// Figure 3: per-minute number of players.
pub fn fig3(run: &MainRun) -> String {
    let players: Vec<f64> = run
        .outcome
        .players_per_minute
        .iter()
        .map(|&p| f64::from(p))
        .collect();
    let mut s = line_chart(
        "Figure 3: players seen per minute",
        &players,
        CHART_W,
        CHART_H,
    );
    let over = players.iter().filter(|&&p| p > 22.0).count();
    let _ = writeln!(
        s,
        "mean players {:.1}; minutes exceeding the 22-slot cap (churn): {over}",
        run.outcome.mean_players
    );
    s
}

/// Figure 4: per-minute incoming/outgoing bandwidth and packet load.
pub fn fig4(run: &MainRun) -> String {
    let a = &run.analysis;
    let mut s = String::new();
    s += &line_chart(
        "Figure 4a: incoming bandwidth (kbps)",
        &a.per_minute_in.kbps(),
        CHART_W,
        CHART_H,
    );
    s += &line_chart(
        "Figure 4b: outgoing bandwidth (kbps)",
        &a.per_minute_out.kbps(),
        CHART_W,
        CHART_H,
    );
    s += &line_chart(
        "Figure 4c: incoming packet load (pps)",
        &a.per_minute_in.pps(),
        CHART_W,
        CHART_H,
    );
    s += &line_chart(
        "Figure 4d: outgoing packet load (pps)",
        &a.per_minute_out.pps(),
        CHART_W,
        CHART_H,
    );
    s
}

/// The three regions the paper reads off Figure 5, in 10 ms blocks.
pub struct HurstSummary {
    /// All variance-time points.
    pub points: Vec<VtPoint>,
    /// H and fit for m < 50 ms.
    pub sub_tick: Option<(f64, LineFit)>,
    /// H and fit for 50 ms ≤ m ≤ 30 min.
    pub mid: Option<(f64, LineFit)>,
    /// H and fit for m > 30 min (needs a long trace).
    pub long: Option<(f64, LineFit)>,
}

/// Computes the Figure 5 variance-time summary.
pub fn fig5_data(run: &MainRun) -> HurstSummary {
    let vt = &run.analysis.variance_time;
    HurstSummary {
        points: vt.points(),
        sub_tick: vt.hurst(1, 5),
        mid: vt.hurst(5, 180_000),
        long: vt.hurst(180_000, u64::MAX),
    }
}

/// Figure 5: the variance-time plot and the Hurst estimates per region.
pub fn fig5(run: &MainRun) -> String {
    let h = fig5_data(run);
    let mut s = String::new();
    let _ = writeln!(s, "Figure 5: variance-time plot (base m = 10 ms)");
    let _ = writeln!(
        s,
        "{:>12} {:>12} {:>16} {:>10}",
        "blocks", "interval", "log10(norm var)", "blocks#"
    );
    for p in &h.points {
        let _ = writeln!(
            s,
            "{:>12} {:>12} {:>16.4} {:>10}",
            p.block,
            p.interval.to_string(),
            p.log_variance(),
            p.blocks_seen
        );
    }
    let region = |name: &str, r: &Option<(f64, LineFit)>| -> String {
        match r {
            Some((h, fit)) => format!(
                "{name}: H = {} (slope {}, r^2 {})",
                fmt_f64(*h, 3),
                fmt_f64(fit.slope, 3),
                fmt_f64(fit.r_squared, 3)
            ),
            None => format!("{name}: (not enough data at this scale)"),
        }
    };
    let _ = writeln!(s, "{}", region("m < 50ms          ", &h.sub_tick));
    let _ = writeln!(s, "{}", region("50ms <= m <= 30min", &h.mid));
    let _ = writeln!(s, "{}", region("m > 30min         ", &h.long));
    // Cross-check with the classic rescaled-range estimator on the
    // per-minute count series (coarse scales).
    let per_min = run.analysis.per_minute.pps();
    let _ = match csprov_analysis::rs_hurst(&per_min, 8) {
        Some((h, fit)) => writeln!(
            s,
            "cross-check (R/S on per-minute counts): H = {} (r^2 {})",
            fmt_f64(h, 3),
            fmt_f64(fit.r_squared, 3)
        ),
        None => writeln!(s, "cross-check (R/S): trace too short"),
    };
    let _ = writeln!(
        s,
        "paper: H < 1/2 below 50ms; high variability 50ms-30min; H ~= 1/2 beyond 30min"
    );
    s
}

/// Figure 6: total packet load, first 200 bins at m = 10 ms.
pub fn fig6(run: &MainRun) -> String {
    line_chart(
        "Figure 6: total packet load, m = 10 ms (first 200 intervals, pps)",
        &run.analysis.ms10_total.pps(),
        CHART_W,
        CHART_H,
    )
}

/// Figure 7: incoming and outgoing packet load at m = 10 ms.
pub fn fig7(run: &MainRun) -> String {
    let mut s = line_chart(
        "Figure 7a: incoming packet load, m = 10 ms (pps)",
        &run.analysis.ms10_in.pps(),
        CHART_W,
        CHART_H,
    );
    s += &line_chart(
        "Figure 7b: outgoing packet load, m = 10 ms (pps)",
        &run.analysis.ms10_out.pps(),
        CHART_W,
        CHART_H,
    );
    let burst = burstiness(&run.analysis.ms10_out.pps());
    let smooth = burstiness(&run.analysis.ms10_in.pps());
    let _ = writeln!(
        s,
        "peak-to-mean: outgoing {:.1}x, incoming {:.1}x (server tick bursts vs diverse client paths)",
        burst, smooth
    );
    let tick_bins = run.config.server.tick.as_millis() / 10;
    let _ = match csprov_analysis::dominant_period(&run.analysis.ms10_out.pps(), 40) {
        Some(p) => writeln!(
            s,
            "dominant outgoing period: {p} x 10 ms (server tick = {} x 10 ms)",
            tick_bins
        ),
        None => writeln!(s, "no dominant outgoing period detected"),
    };
    s
}

fn burstiness(pps: &[f64]) -> f64 {
    let mean = pps.iter().sum::<f64>() / pps.len().max(1) as f64;
    let peak = pps.iter().cloned().fold(0.0, f64::max);
    if mean > 0.0 {
        peak / mean
    } else {
        0.0
    }
}

/// Figure 8: total packet load at m = 50 ms.
pub fn fig8(run: &MainRun) -> String {
    line_chart(
        "Figure 8: total packet load, m = 50 ms (first 200 intervals, pps)",
        &run.analysis.ms50_total.pps(),
        CHART_W,
        CHART_H,
    )
}

/// Figure 9: total packet load at m = 1 s (map-change dips every 1800 s).
pub fn fig9(run: &MainRun) -> String {
    let mut s = line_chart(
        "Figure 9: total packet load, m = 1 s (pps)",
        &run.analysis.sec1_total.pps(),
        CHART_W,
        CHART_H,
    );
    let dips = map_change_dips(run);
    let _ = writeln!(
        s,
        "map-change dips detected at (s): {:?} (every {} s by config)",
        dips,
        run.config.server.map_time.as_secs()
    );
    s
}

/// Seconds where the per-second load fell below 25% of the trace mean —
/// the Figure 9 map-change signature.
pub fn map_change_dips(run: &MainRun) -> Vec<usize> {
    let pps = run.analysis.sec1_total.pps();
    let mean = pps.iter().sum::<f64>() / pps.len().max(1) as f64;
    let mut dips = Vec::new();
    let mut in_dip = false;
    for (i, &v) in pps.iter().enumerate() {
        if v < mean * 0.25 {
            if !in_dip {
                dips.push(i);
                in_dip = true;
            }
        } else {
            in_dip = false;
        }
    }
    dips
}

/// Figure 10: total packet load at m = 30 min.
pub fn fig10(run: &MainRun) -> String {
    line_chart(
        "Figure 10: total packet load, m = 30 min (pps)",
        &run.analysis.min30_total.pps(),
        CHART_W,
        CHART_H,
    )
}

/// Figure 11: client bandwidth histogram (sessions longer than 30 s).
pub fn fig11(run: &MainRun) -> String {
    let h = run
        .analysis
        .flows
        .bandwidth_histogram(SimDuration::from_secs(30), 150_000.0, 30);
    let bars: Vec<(String, u64)> = h
        .bins()
        .map(|(edge, count)| (format!("{:>3.0}k", edge / 1000.0), count))
        .collect();
    let mut s = bar_chart(
        "Figure 11: client bandwidth histogram (bps, 5 kbps bins)",
        &bars,
        48,
    );
    let over56k: u64 = h
        .bins()
        .filter(|&(edge, _)| edge >= 56_000.0)
        .map(|(_, c)| c)
        .sum::<u64>()
        + h.overflow();
    let _ = writeln!(
        s,
        "flows above the 56k barrier: {over56k} of {} ('l337' players on fast links)",
        h.total()
    );
    s
}

/// Figure 12: packet-size PDFs (total, and inbound vs outbound).
pub fn fig12(run: &MainRun) -> String {
    let sizes = &run.analysis.sizes;
    let mut s = line_chart(
        "Figure 12a: packet size PDF, all packets (0..500 B)",
        &sizes.pdf_total(),
        CHART_W,
        CHART_H,
    );
    s += &line_chart(
        "Figure 12b-in: packet size PDF, inbound",
        &sizes.pdf(Direction::Inbound),
        CHART_W,
        CHART_H,
    );
    s += &line_chart(
        "Figure 12b-out: packet size PDF, outbound",
        &sizes.pdf(Direction::Outbound),
        CHART_W,
        CHART_H,
    );
    let _ = writeln!(
        s,
        "mean sizes: in {:.2} B (narrow), out {:.2} B (wide); paper: 39.72 / 129.51",
        sizes.mean(Direction::Inbound),
        sizes.mean(Direction::Outbound)
    );
    s
}

/// Figure 13: packet-size CDFs with the paper's headline quantiles.
pub fn fig13(run: &MainRun) -> String {
    let sizes = &run.analysis.sizes;
    let mut s = line_chart(
        "Figure 13: packet size CDFs (total)",
        &sizes.cdf_total(),
        CHART_W,
        CHART_H,
    );
    let in_under_60 = sizes.cdf(Direction::Inbound)[60];
    let out_under_300 = sizes.cdf(Direction::Outbound)[300];
    let _ = writeln!(
        s,
        "inbound P(size < 60 B) = {:.3} (paper: 'almost all'); outbound P(size < 300 B) = {:.3}",
        in_under_60, out_under_300
    );
    let _ = writeln!(
        s,
        "quantiles (B): in p50 {} p99 {}; out p50 {} p99 {}",
        sizes.quantile(Direction::Inbound, 0.5),
        sizes.quantile(Direction::Inbound, 0.99),
        sizes.quantile(Direction::Outbound, 0.5),
        sizes.quantile(Direction::Outbound, 0.99),
    );
    s
}

/// Figure 14: per-second incoming packet load around the NAT.
pub fn fig14(run: &NatRun) -> String {
    let mut s = line_chart(
        "Figure 14a: packet load, clients -> NAT (pps)",
        &run.clients_to_nat.pps(),
        CHART_W,
        CHART_H,
    );
    s += &line_chart(
        "Figure 14b: packet load, NAT -> server (pps)",
        &run.nat_to_server.pps(),
        CHART_W,
        CHART_H,
    );
    let (in_loss, _) = run.loss_rates();
    let _ = writeln!(
        s,
        "incoming loss through device: {:.3}% (paper 1.3%)",
        in_loss * 100.0
    );
    s
}

/// Figure 15: per-second outgoing packet load around the NAT.
pub fn fig15(run: &NatRun) -> String {
    let mut s = line_chart(
        "Figure 15a: packet load, server -> NAT (pps)",
        &run.server_to_nat.pps(),
        CHART_W,
        CHART_H,
    );
    s += &line_chart(
        "Figure 15b: packet load, NAT -> clients (pps)",
        &run.nat_to_clients.pps(),
        CHART_W,
        CHART_H,
    );
    let (_, out_loss) = run.loss_rates();
    let _ = writeln!(
        s,
        "outgoing loss through device: {:.3}% (paper 0.046%)",
        out_loss * 100.0
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use csprov_game::ScenarioConfig;

    fn run() -> MainRun {
        MainRun::execute(ScenarioConfig::new(31, SimDuration::from_mins(10)))
    }

    #[test]
    fn all_main_figures_render() {
        let r = run();
        for (i, s) in [
            fig1(&r),
            fig2(&r),
            fig3(&r),
            fig4(&r),
            fig5(&r),
            fig6(&r),
            fig7(&r),
            fig8(&r),
            fig9(&r),
            fig10(&r),
            fig11(&r),
            fig12(&r),
            fig13(&r),
        ]
        .iter()
        .enumerate()
        {
            assert!(s.contains("Figure"), "figure {} must be labelled", i + 1);
            assert!(s.len() > 100, "figure {} suspiciously small", i + 1);
        }
    }

    #[test]
    fn fig7_outgoing_burstier_than_incoming() {
        let r = run();
        let out_burst = burstiness(&r.analysis.ms10_out.pps());
        let in_burst = burstiness(&r.analysis.ms10_in.pps());
        assert!(
            out_burst > in_burst * 1.5,
            "tick bursts: out {out_burst} vs in {in_burst}"
        );
    }

    #[test]
    fn fig5_regions_match_paper_shape() {
        // 10 minutes gives enough 10 ms bins for the first two regions.
        let r = run();
        let h = fig5_data(&r);
        let (h_sub, _) = h.sub_tick.expect("sub-tick region");
        assert!(
            h_sub < 0.5,
            "aggressive smoothing below the tick: H = {h_sub}"
        );
        let (h_mid, _) = h.mid.expect("mid region");
        assert!(h_mid > h_sub, "mid region retains more variability");
    }

    #[test]
    fn fig9_dips_align_with_map_time() {
        // Need > 30 min to see a dip.
        let r = MainRun::execute(ScenarioConfig::new(33, SimDuration::from_mins(65)));
        let dips = map_change_dips(&r);
        assert!(
            dips.iter().any(|&d| (1795..1830).contains(&d)),
            "expected a dip near 1800 s, got {dips:?}"
        );
        assert!(
            dips.iter().any(|&d| (3595..3630).contains(&d)),
            "expected a dip near 3600 s, got {dips:?}"
        );
    }

    #[test]
    fn fig11_mode_at_modem_rates() {
        let r = MainRun::execute(ScenarioConfig::new(35, SimDuration::from_mins(20)));
        let h = r
            .analysis
            .flows
            .bandwidth_histogram(SimDuration::from_secs(30), 150_000.0, 30);
        let mode = h.mode_bin().expect("flows recorded");
        assert!(
            (20_000.0..60_000.0).contains(&mode),
            "mode bin {mode} should sit at modem rates"
        );
    }
}
