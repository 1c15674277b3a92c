//! Minimal SVG rendering of fields and deployments.
//!
//! The paper's Figs. 4–6 are pictures; the ASCII renders in
//! [`crate::ascii_plot`] work in a terminal, and this module produces
//! publication-style SVGs (hand-assembled strings — no dependencies).
//! `decor-figures` writes them next to the CSVs.

use decor_geom::{Aabb, Point};

/// Styling for one point layer.
#[derive(Clone, Debug)]
pub struct Layer<'a> {
    /// Points to draw (field coordinates).
    pub points: &'a [Point],
    /// Circle radius in field units.
    pub radius: f64,
    /// Fill color (any SVG color string).
    pub fill: &'a str,
    /// Fill opacity 0..1.
    pub opacity: f64,
}

/// Renders layered point sets over a field into a standalone SVG string.
///
/// The viewport maps the field to `size × size` pixels with a small
/// margin; the y-axis is flipped so larger `y` is up, matching the math
/// convention of the rest of the workspace.
pub fn render_svg(field: &Aabb, layers: &[Layer<'_>], size: u32) -> String {
    assert!(size >= 64, "svg size too small to be useful");
    let margin = size as f64 * 0.04;
    let span = size as f64 - 2.0 * margin;
    let sx = span / field.width();
    let sy = span / field.height();
    let map_x = |x: f64| margin + (x - field.min.x) * sx;
    let map_y = |y: f64| margin + (field.max.y - y) * sy;
    let mut s = String::with_capacity(4096);
    s.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">"#
    ));
    s.push('\n');
    s.push_str(&format!(
        r#"<rect x="{m}" y="{m}" width="{w}" height="{h}" fill="white" stroke="black" stroke-width="1"/>"#,
        m = margin,
        w = span,
        h = span
    ));
    s.push('\n');
    for layer in layers {
        let r = (layer.radius * sx).max(0.5);
        for p in layer.points {
            s.push_str(&format!(
                r#"<circle cx="{:.2}" cy="{:.2}" r="{:.2}" fill="{}" fill-opacity="{}"/>"#,
                map_x(p.x),
                map_y(p.y),
                r,
                layer.fill,
                layer.opacity
            ));
            s.push('\n');
        }
    }
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> Aabb {
        Aabb::square(100.0)
    }

    #[test]
    fn svg_structure_is_well_formed() {
        let pts = vec![Point::new(10.0, 10.0), Point::new(90.0, 90.0)];
        let svg = render_svg(
            &field(),
            &[Layer {
                points: &pts,
                radius: 4.0,
                fill: "steelblue",
                opacity: 0.4,
            }],
            512,
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<circle").count(), 2);
        assert_eq!(svg.matches("<rect").count(), 1);
    }

    #[test]
    fn y_axis_is_flipped() {
        // A point with a large y must render with a small cy.
        let hi = vec![Point::new(50.0, 95.0)];
        let lo = vec![Point::new(50.0, 5.0)];
        let layer = |pts: &'static [Point]| Layer {
            points: pts,
            radius: 1.0,
            fill: "red",
            opacity: 1.0,
        };
        let hi_pts: &'static [Point] = Box::leak(hi.into_boxed_slice());
        let lo_pts: &'static [Point] = Box::leak(lo.into_boxed_slice());
        let svg_hi = render_svg(&field(), &[layer(hi_pts)], 512);
        let svg_lo = render_svg(&field(), &[layer(lo_pts)], 512);
        let cy = |s: &str| -> f64 {
            let i = s.find("cy=\"").unwrap() + 4;
            s[i..].split('"').next().unwrap().parse().unwrap()
        };
        assert!(cy(&svg_hi) < cy(&svg_lo));
    }

    #[test]
    fn multiple_layers_stack_in_order() {
        let a = vec![Point::new(50.0, 50.0)];
        let b = vec![Point::new(60.0, 60.0)];
        let svg = render_svg(
            &field(),
            &[
                Layer {
                    points: &a,
                    radius: 4.0,
                    fill: "blue",
                    opacity: 0.3,
                },
                Layer {
                    points: &b,
                    radius: 2.0,
                    fill: "red",
                    opacity: 1.0,
                },
            ],
            256,
        );
        let blue = svg.find("blue").unwrap();
        let red = svg.find("red").unwrap();
        assert!(blue < red, "later layers render on top");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_canvas_panics() {
        let _ = render_svg(&field(), &[], 16);
    }
}
