//! 2-D geometry for topologies and propagation distances.
//!
//! The paper's large-scale evaluation places base stations uniformly at
//! random in a 2 km × 2 km area (§6.3.4); clients are dropped around their
//! access point. All of that needs is points, distances and bearings, which
//! live here so the propagation and simulation crates agree on conventions
//! (x east, y north, bearings in radians counter-clockwise from east).

use crate::units::Meters;
use std::fmt;
use std::ops::{Add, Sub};

/// A point in the simulation plane, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East coordinate in metres.
    pub x: f64,
    /// North coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Origin.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Construct from coordinates in metres.
    pub const fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point) -> Meters {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        Meters((dx * dx + dy * dy).sqrt())
    }

    /// Bearing from this point towards another, radians CCW from east,
    /// in `(-π, π]`. Zero vector yields 0.
    pub fn bearing_to(self, other: Point) -> f64 {
        (other.y - self.y).atan2(other.x - self.x)
    }

    /// The point at `distance` along `bearing` (radians CCW from east).
    pub fn offset(self, bearing: f64, distance: Meters) -> Point {
        Point {
            x: self.x + distance.value() * bearing.cos(),
            y: self.y + distance.value() * bearing.sin(),
        }
    }

    /// True when the point lies inside the axis-aligned rectangle
    /// `[0, width] × [0, height]`.
    pub fn within(self, width: f64, height: f64) -> bool {
        self.x >= 0.0 && self.x <= width && self.y >= 0.0 && self.y <= height
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
        }
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.0}, {:.0})", self.x, self.y)
    }
}

/// Normalize an angle difference into `(-π, π]`. Used by the sector-antenna
/// pattern to compare a client bearing with a boresight direction.
pub fn wrap_angle(angle: f64) -> f64 {
    let mut a = angle % (2.0 * std::f64::consts::PI);
    if a <= -std::f64::consts::PI {
        a += 2.0 * std::f64::consts::PI;
    } else if a > std::f64::consts::PI {
        a -= 2.0 * std::f64::consts::PI;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn distance_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(300.0, 400.0);
        assert!(close(a.distance(b).value(), 500.0));
        assert!(close(b.distance(a).value(), 500.0));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point::new(12.0, -7.0);
        assert!(close(p.distance(p).value(), 0.0));
    }

    #[test]
    fn bearing_cardinal_directions() {
        let o = Point::ORIGIN;
        assert!(close(o.bearing_to(Point::new(1.0, 0.0)), 0.0));
        assert!(close(o.bearing_to(Point::new(0.0, 1.0)), FRAC_PI_2));
        assert!(close(o.bearing_to(Point::new(-1.0, 0.0)), PI));
        assert!(close(o.bearing_to(Point::new(0.0, -1.0)), -FRAC_PI_2));
    }

    #[test]
    fn offset_inverts_bearing_and_distance() {
        let start = Point::new(100.0, 200.0);
        let end = start.offset(0.7, Meters(850.0));
        assert!(close(start.distance(end).value(), 850.0));
        assert!(close(start.bearing_to(end), 0.7));
    }

    #[test]
    fn within_bounds() {
        assert!(Point::new(500.0, 1999.0).within(2000.0, 2000.0));
        assert!(!Point::new(-1.0, 3.0).within(2000.0, 2000.0));
        assert!(!Point::new(3.0, 2000.5).within(2000.0, 2000.0));
    }

    #[test]
    fn wrap_angle_into_range() {
        assert!(close(wrap_angle(3.0 * PI), PI));
        assert!(close(wrap_angle(-3.0 * PI), PI));
        assert!(close(wrap_angle(0.5), 0.5));
        assert!(close(wrap_angle(2.0 * PI + 0.25), 0.25));
    }

    #[test]
    fn point_arithmetic() {
        let p = Point::new(1.0, 2.0) + Point::new(3.0, 4.0);
        assert!(close(p.x, 4.0) && close(p.y, 6.0));
        let q = p - Point::new(1.0, 1.0);
        assert!(close(q.x, 3.0) && close(q.y, 5.0));
    }
}
