//! The layout database: placed cells, routed nets, vias, and density —
//! the geometry the DFM guideline scanner inspects.

use rsyn_netlist::{CellId, GateId, NetId};

use crate::floorplan::Floorplan;

/// Routing layer. `M1` is the in-cell/pin layer, `M2` routes horizontally,
/// `M3` vertically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// Pin/landing layer.
    M1,
    /// Horizontal routing layer.
    M2,
    /// Vertical routing layer.
    M3,
}

/// A point in µm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// X coordinate (µm).
    pub x: f64,
    /// Y coordinate (µm).
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Manhattan distance to another point.
    pub fn manhattan(&self, other: &Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

/// An axis-aligned wire segment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Routing layer.
    pub layer: Layer,
    /// Start point (min coordinate along the axis).
    pub a: Point,
    /// End point.
    pub b: Point,
    /// Owning net.
    pub net: NetId,
}

impl Segment {
    /// Segment length in µm.
    pub fn length(&self) -> f64 {
        self.a.manhattan(&self.b)
    }

    /// True for horizontal segments.
    pub fn is_horizontal(&self) -> bool {
        (self.a.y - self.b.y).abs() < 1e-9
    }
}

/// A via connecting two layers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Via {
    /// Location.
    pub at: Point,
    /// Lower layer.
    pub from: Layer,
    /// Upper layer.
    pub to: Layer,
    /// Owning net.
    pub net: NetId,
}

/// A placed standard cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlacedCell {
    /// The gate instance.
    pub gate: GateId,
    /// The library cell.
    pub cell: CellId,
    /// Lower-left x (µm).
    pub x: f64,
    /// Lower-left y (µm).
    pub y: f64,
    /// Width (µm).
    pub w: f64,
    /// Height (µm).
    pub h: f64,
}

/// One routed net.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutedNet {
    /// The net.
    pub net: NetId,
    /// Wire segments.
    pub segments: Vec<Segment>,
    /// Vias.
    pub vias: Vec<Via>,
}

impl RoutedNet {
    /// Total routed wirelength in µm.
    pub fn wirelength(&self) -> f64 {
        self.segments.iter().map(Segment::length).sum()
    }
}

/// A complete layout.
#[derive(Clone, Debug)]
pub struct Layout {
    /// The fixed floorplan.
    pub floorplan: Floorplan,
    /// Placed cells.
    pub cells: Vec<PlacedCell>,
    /// Routed nets.
    pub nets: Vec<RoutedNet>,
}

impl Layout {
    /// Total wirelength in µm.
    pub fn total_wirelength(&self) -> f64 {
        self.nets.iter().map(RoutedNet::wirelength).sum()
    }

    /// Total via count.
    pub fn total_vias(&self) -> usize {
        self.nets.iter().map(|n| n.vias.len()).sum()
    }

    /// Routed wirelength in µm of each net id below `nets` (0 if
    /// unrouted), in one pass: a net routed twice counts its first entry.
    pub fn net_wirelengths(&self, nets: usize) -> Vec<f64> {
        let mut out = vec![0.0; nets];
        for rn in self.nets.iter().rev() {
            if let Some(w) = out.get_mut(rn.net.index()) {
                *w = rn.wirelength();
            }
        }
        out
    }

    /// Metal density map: fraction of each `window_um`-sized square window
    /// covered by routed metal (wire width `0.3 µm` assumed), row-major
    /// `[y][x]`.
    pub fn density_map(&self, window_um: f64) -> Vec<Vec<f64>> {
        const WIRE_WIDTH_UM: f64 = 0.3;
        let nx = (self.floorplan.width_um() / window_um).ceil().max(1.0) as usize;
        let ny = (self.floorplan.height_um() / window_um).ceil().max(1.0) as usize;
        let mut len = vec![vec![0.0f64; nx]; ny];
        for rn in &self.nets {
            for seg in &rn.segments {
                // Walk the segment across windows.
                let steps = (seg.length() / (window_um / 4.0)).ceil().max(1.0) as usize;
                let dl = seg.length() / steps as f64;
                for s in 0..steps {
                    let t = (s as f64 + 0.5) / steps as f64;
                    let x = seg.a.x + (seg.b.x - seg.a.x) * t;
                    let y = seg.a.y + (seg.b.y - seg.a.y) * t;
                    let ix = ((x / window_um) as usize).min(nx - 1);
                    let iy = ((y / window_um) as usize).min(ny - 1);
                    len[iy][ix] += dl;
                }
            }
        }
        let window_area = window_um * window_um;
        len.iter()
            .map(|row| row.iter().map(|l| (l * WIRE_WIDTH_UM / window_area).min(1.0)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_geometry() {
        let s = Segment {
            layer: Layer::M2,
            a: Point::new(0.0, 5.0),
            b: Point::new(10.0, 5.0),
            net: NetId(0),
        };
        assert!((s.length() - 10.0).abs() < 1e-9);
        assert!(s.is_horizontal());
    }

    #[test]
    fn density_map_counts_metal() {
        let fp = Floorplan::for_cell_area(2000.0, 0.7);
        let net = NetId(0);
        let layout = Layout {
            floorplan: fp,
            cells: vec![],
            nets: vec![RoutedNet {
                net,
                segments: vec![Segment {
                    layer: Layer::M2,
                    a: Point::new(0.0, 1.0),
                    b: Point::new(20.0, 1.0),
                    net,
                }],
                vias: vec![],
            }],
        };
        let map = layout.density_map(24.0);
        assert!(map[0][0] > 0.0, "window with wire has density");
        let total: f64 = map.iter().flatten().sum();
        assert!(total > 0.0);
        assert!((layout.total_wirelength() - 20.0).abs() < 1e-9);
    }
}
