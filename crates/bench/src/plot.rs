//! Minimal SVG plotting — regenerates the paper's figures as actual
//! graphics, not just tables. Pure std: no plotting crate dependencies.
//!
//! Two chart types cover every figure in the paper: grouped bar charts
//! (Figs. 5–11) and multi-series line charts (Figs. 1, 2a). The registry
//! describes each figure as a [`Chart`]; [`render`] draws it.

use std::fmt::Write as _;

use coaxial_system::table::{Chart, ChartKind, Series};

const WIDTH: u32 = 1100;
const HEIGHT: u32 = 420;
const PALETTE: [&str; 6] = ["#4878a8", "#e1975c", "#6aa66a", "#c86464", "#8d7bb8", "#937860"];
const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 16.0;
const MARGIN_T: f64 = 36.0;
const MARGIN_B: f64 = 96.0;

fn y_transform(v: f64, log_y: bool) -> f64 {
    if log_y {
        v.max(1e-12).log10()
    } else {
        v
    }
}

/// Escape a string for SVG text content.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Shared frame: axes, title, y-ticks. Returns (svg-so-far, map from data-y
/// to pixel-y, plot area rect).
struct Frame {
    svg: String,
    x0: f64,
    x1: f64,
    y_px: Box<dyn Fn(f64) -> f64>,
}

fn frame(opts: &Chart, y_min: f64, y_max: f64) -> Frame {
    let w = f64::from(WIDTH);
    let h = f64::from(HEIGHT);
    let (x0, x1) = (MARGIN_L, w - MARGIN_R);
    let (py0, py1) = (h - MARGIN_B, MARGIN_T);
    let (ty_min, ty_max) = (y_transform(y_min, opts.log_y), y_transform(y_max, opts.log_y));
    let span = (ty_max - ty_min).max(1e-12);
    let log_y = opts.log_y;
    let y_px = Box::new(move |v: f64| {
        let t = (y_transform(v, log_y) - ty_min) / span;
        py0 + (py1 - py0) * t
    });

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" font-family="Helvetica,Arial,sans-serif" font-size="12">"#
    );
    let _ = write!(svg, r#"<rect width="{w}" height="{h}" fill="white"/>"#);
    let _ = write!(
        svg,
        r#"<text x="{}" y="20" font-size="15" font-weight="bold">{}</text>"#,
        MARGIN_L,
        esc(&opts.title)
    );
    // y axis + ticks.
    let _ = write!(svg, r#"<line x1="{x0}" y1="{py0}" x2="{x0}" y2="{py1}" stroke='#333'/>"#);
    let _ = write!(svg, r#"<line x1="{x0}" y1="{py0}" x2="{x1}" y2="{py0}" stroke='#333'/>"#);
    let ticks = 5;
    for i in 0..=ticks {
        let v = if opts.log_y {
            10f64.powf(ty_min + (ty_max - ty_min) * i as f64 / ticks as f64)
        } else {
            y_min + (y_max - y_min) * i as f64 / ticks as f64
        };
        let y = y_px(v);
        let label = if v.abs() >= 100.0 { format!("{v:.0}") } else { format!("{v:.2}") };
        let _ = write!(
            svg,
            r#"<line x1="{}" y1="{y}" x2="{x1}" y2="{y}" stroke='#ddd'/><text x="{}" y="{}" text-anchor="end">{label}</text>"#,
            x0 - 4.0,
            x0 - 8.0,
            y + 4.0
        );
    }
    let _ = write!(
        svg,
        r#"<text x="14" y="{}" transform="rotate(-90 14 {})" text-anchor="middle">{}</text>"#,
        (py0 + py1) / 2.0,
        (py0 + py1) / 2.0,
        esc(&opts.y_label)
    );
    if let Some(r) = opts.reference_line {
        let y = y_px(r);
        let _ = write!(
            svg,
            r#"<line x1="{x0}" y1="{y}" x2="{x1}" y2="{y}" stroke='#888' stroke-dasharray="5,4"/>"#
        );
    }
    Frame { svg, x0, x1, y_px }
}

fn legend(svg: &mut String, series: &[Series], x: f64) {
    for (i, s) in series.iter().enumerate() {
        let lx = x + 130.0 * i as f64;
        let color = PALETTE[i % PALETTE.len()];
        let _ = write!(
            svg,
            r#"<rect x="{lx}" y="26" width="10" height="10" fill="{color}"/><text x="{}" y="35">{}</text>"#,
            lx + 14.0,
            esc(&s.name)
        );
    }
}

/// Draw a chart as a standalone SVG document.
pub fn render(chart: &Chart) -> String {
    match &chart.kind {
        ChartKind::Bar(categories) => bar_chart(categories, chart),
        ChartKind::Line(xs) => line_chart(xs, chart),
    }
}

/// Render a grouped bar chart: one cluster per category, one bar per series.
fn bar_chart(categories: &[String], opts: &Chart) -> String {
    let series = &opts.series;
    assert!(!categories.is_empty() && !series.is_empty());
    for s in series {
        assert_eq!(s.values.len(), categories.len(), "series '{}' arity", s.name);
    }
    let y_max = series
        .iter()
        .flat_map(|s| s.values.iter().copied())
        .fold(opts.reference_line.unwrap_or(0.0), f64::max)
        * 1.08;
    let y_min = if opts.log_y {
        series.iter().flat_map(|s| s.values.iter().copied()).fold(f64::INFINITY, f64::min) / 1.5
    } else {
        0.0
    };
    let mut f = frame(opts, y_min, y_max);
    let h = f64::from(HEIGHT);
    let py0 = h - MARGIN_B;
    let cluster_w = (f.x1 - f.x0) / categories.len() as f64;
    let bar_w = (cluster_w * 0.8) / series.len() as f64;
    for (ci, cat) in categories.iter().enumerate() {
        let cx = f.x0 + cluster_w * (ci as f64 + 0.5);
        for (si, s) in series.iter().enumerate() {
            let v = s.values[ci];
            let x = cx - cluster_w * 0.4 + bar_w * si as f64;
            let y = (f.y_px)(v);
            let color = PALETTE[si % PALETTE.len()];
            let _ = write!(
                f.svg,
                r#"<rect x="{x:.1}" y="{:.1}" width="{bar_w:.1}" height="{:.1}" fill="{color}"/>"#,
                y.min(py0),
                (py0 - y).abs()
            );
        }
        // Rotated category label.
        let _ = write!(
            f.svg,
            r#"<text x="{cx:.1}" y="{:.1}" transform="rotate(-45 {cx:.1} {:.1})" text-anchor="end" font-size="10">{}</text>"#,
            py0 + 14.0,
            py0 + 14.0,
            esc(cat)
        );
    }
    legend(&mut f.svg, series, f.x0);
    f.svg.push_str("</svg>");
    f.svg
}

/// Render a multi-series line chart over shared x-values.
fn line_chart(xs: &[f64], opts: &Chart) -> String {
    let series = &opts.series;
    assert!(xs.len() >= 2 && !series.is_empty());
    for s in series {
        assert_eq!(s.values.len(), xs.len(), "series '{}' arity", s.name);
    }
    let y_max =
        series.iter().flat_map(|s| s.values.iter().copied()).fold(f64::NEG_INFINITY, f64::max)
            * 1.08;
    let y_min = if opts.log_y {
        series.iter().flat_map(|s| s.values.iter().copied()).fold(f64::INFINITY, f64::min) / 1.5
    } else {
        0.0
    };
    let mut f = frame(opts, y_min, y_max);
    let (x_lo, x_hi) = (xs[0], xs[xs.len() - 1]);
    let x_px = |x: f64| f.x0 + (f.x1 - f.x0) * (x - x_lo) / (x_hi - x_lo).max(1e-12);
    let h = f64::from(HEIGHT);
    let py0 = h - MARGIN_B;
    // x tick labels.
    for (i, &x) in xs.iter().enumerate() {
        if xs.len() > 10 && i % 2 == 1 {
            continue;
        }
        let px = x_px(x);
        let _ = write!(
            f.svg,
            r#"<text x="{px:.1}" y="{:.1}" text-anchor="middle" font-size="10">{x:.2}</text>"#,
            py0 + 16.0
        );
    }
    for (si, s) in series.iter().enumerate() {
        let color = PALETTE[si % PALETTE.len()];
        let pts: Vec<String> = xs
            .iter()
            .zip(&s.values)
            .map(|(&x, &v)| format!("{:.1},{:.1}", x_px(x), (f.y_px)(v)))
            .collect();
        let _ = write!(
            f.svg,
            r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
            pts.join(" ")
        );
        for p in &pts {
            let mut it = p.split(',');
            let (cx, cy) = (it.next().unwrap(), it.next().unwrap());
            let _ = write!(f.svg, r#"<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>"#);
        }
    }
    legend(&mut f.svg, series, f.x0);
    f.svg.push_str("</svg>");
    f.svg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bars(n: usize, series: Vec<Series>) -> Chart {
        let cats = (0..n).map(|i| format!("w{i}")).collect();
        Chart::speedup_bars("t", "test", cats, series)
    }

    #[test]
    fn bar_chart_emits_expected_structure() {
        let svg = render(&bars(
            3,
            vec![Series::new("a", vec![1.0, 2.0, 3.0]), Series::new("b", vec![0.5, 1.5, 2.5])],
        ));
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        // 3 clusters × 2 series bars + background + legend swatches.
        let bars = svg.matches("<rect").count();
        assert!(bars > 3 * 2, "bars = {bars}");
        assert!(svg.contains("stroke-dasharray"), "reference line drawn");
    }

    #[test]
    fn line_chart_emits_one_polyline_per_series() {
        let mut c = Chart::log_lines(
            "t",
            "",
            "",
            vec![0.0, 1.0, 2.0, 3.0],
            vec![
                Series::new("avg", vec![1.0, 2.0, 4.0, 9.0]),
                Series::new("p90", vec![2.0, 3.0, 8.0, 20.0]),
            ],
        );
        c.log_y = false;
        let svg = render(&c);
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 8);
    }

    #[test]
    fn log_axis_handles_wide_ranges() {
        let svg = render(&Chart::log_lines(
            "t",
            "",
            "",
            vec![1.0, 2.0, 3.0],
            vec![Series::new("x", vec![0.02, 1.0, 32.0])],
        ));
        assert!(svg.contains("<polyline"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn mismatched_series_length_panics() {
        let _ = render(&bars(3, vec![Series::new("bad", vec![1.0])]));
    }

    #[test]
    fn titles_are_escaped() {
        let mut c = bars(1, vec![Series::new("a", vec![1.0])]);
        c.title = "a<b&c".into();
        let svg = render(&c);
        assert!(svg.contains("a&lt;b&amp;c"));
        assert!(!svg.contains("a<b&c"));
    }
}
