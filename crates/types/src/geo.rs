//! Planar geometry primitives.
//!
//! All spatial computation in the workspace happens on a local planar
//! projection measured in kilometres. City-scale check-in data (the paper
//! uses Los Angeles and New York, diameters below ~100 km) is accurately
//! represented by an equirectangular projection onto a plane, and Euclidean
//! distance on that plane approximates great-circle distance to well under
//! one percent at these extents. [`GeoPoint::project`] performs that
//! projection for callers importing raw latitude/longitude check-ins.

use std::fmt;

/// A point on the planar (kilometre) coordinate system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East-west coordinate in kilometres.
    pub x: f64,
    /// North-south coordinate in kilometres.
    pub y: f64,
}

impl Point {
    /// Creates a point from planar kilometre coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in kilometres.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Useful for comparisons where the monotone square root can be
    /// skipped (e.g. nearest-neighbour orderings).
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// An axis-aligned rectangle, closed on all sides.
///
/// Used both as R-tree bounding boxes and as grid-cell extents. The empty
/// rectangle (used as the identity for unions) has `min > max` on both
/// axes and is produced by [`Rect::empty`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Default for Rect {
    /// The default rectangle is the empty rectangle, the identity for
    /// [`Rect::union`].
    fn default() -> Self {
        Rect::empty()
    }
}

impl Rect {
    /// Creates a rectangle from two corner points, normalising the order.
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates the rectangle spanning `[min_x, max_x] × [min_y, max_y]`.
    pub fn from_bounds(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Rect::new(Point::new(min_x, min_y), Point::new(max_x, max_y))
    }

    /// The empty rectangle: the identity element for [`Rect::union`].
    pub fn empty() -> Self {
        Rect {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// The degenerate rectangle covering a single point.
    pub fn from_point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    /// Whether this rectangle is the empty rectangle.
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Width along the x axis (zero for the empty rectangle).
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height along the y axis (zero for the empty rectangle).
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Area of the rectangle (zero for the empty rectangle).
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half the perimeter; the classic R-tree "margin" measure.
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Centre point of the rectangle.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Whether `p` lies inside the closed rectangle.
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether `other` lies entirely inside this rectangle.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (other.min.x >= self.min.x
                && other.max.x <= self.max.x
                && other.min.y >= self.min.y
                && other.max.y <= self.max.y)
    }

    /// Whether the two closed rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        !(self.is_empty()
            || other.is_empty()
            || self.min.x > other.max.x
            || other.min.x > self.max.x
            || self.min.y > other.max.y
            || other.min.y > self.max.y)
    }

    /// Smallest rectangle covering both operands.
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Grows the rectangle in place to cover `p`.
    pub fn extend_point(&mut self, p: &Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// How much the area would grow if `other` were unioned in.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Minimum distance from `p` to this rectangle (zero if inside).
    pub fn min_dist(&self, p: &Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum distance from `p` to any point of this rectangle.
    pub fn max_dist(&self, p: &Point) -> f64 {
        let dx = (p.x - self.min.x).abs().max((p.x - self.max.x).abs());
        let dy = (p.y - self.min.y).abs().max((p.y - self.max.y).abs());
        (dx * dx + dy * dy).sqrt()
    }
}

/// Mean Earth radius in kilometres, used by [`GeoPoint::project`].
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A raw WGS-84 coordinate, for importing real check-in data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a geographic point from degrees.
    pub const fn new(lat: f64, lon: f64) -> Self {
        GeoPoint { lat, lon }
    }

    /// Equirectangular projection onto a kilometre plane anchored at
    /// `origin`. Accurate to a fraction of a percent at city scale.
    pub fn project(&self, origin: &GeoPoint) -> Point {
        let mean_lat = ((self.lat + origin.lat) / 2.0).to_radians();
        let x = (self.lon - origin.lon).to_radians() * mean_lat.cos() * EARTH_RADIUS_KM;
        let y = (self.lat - origin.lat).to_radians() * EARTH_RADIUS_KM;
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist_sq(&b), 25.0);
        assert_eq!(b.dist(&a), 5.0);
    }

    #[test]
    fn point_distance_to_self_is_zero() {
        let a = Point::new(1.5, -2.5);
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn rect_normalises_corners() {
        let r = Rect::new(Point::new(5.0, 1.0), Point::new(2.0, 7.0));
        assert_eq!(r.min, Point::new(2.0, 1.0));
        assert_eq!(r.max, Point::new(5.0, 7.0));
    }

    #[test]
    fn empty_rect_properties() {
        let e = Rect::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert_eq!(e.width(), 0.0);
        assert_eq!(e.height(), 0.0);
        let r = Rect::from_bounds(0.0, 0.0, 1.0, 1.0);
        assert_eq!(e.union(&r), r);
        assert_eq!(r.union(&e), r);
        assert!(!e.intersects(&r));
        assert!(r.contains_rect(&e));
    }

    #[test]
    fn rect_contains_and_intersects() {
        let r = Rect::from_bounds(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains_point(&Point::new(0.0, 0.0)));
        assert!(r.contains_point(&Point::new(10.0, 10.0)));
        assert!(!r.contains_point(&Point::new(10.01, 5.0)));
        let inner = Rect::from_bounds(2.0, 2.0, 3.0, 3.0);
        assert!(r.contains_rect(&inner));
        assert!(!inner.contains_rect(&r));
        assert!(r.intersects(&inner));
        let disjoint = Rect::from_bounds(11.0, 11.0, 12.0, 12.0);
        assert!(!r.intersects(&disjoint));
        // Touching edges count as intersecting (closed rectangles).
        let touching = Rect::from_bounds(10.0, 0.0, 12.0, 10.0);
        assert!(r.intersects(&touching));
    }

    #[test]
    fn rect_union_and_enlargement() {
        let a = Rect::from_bounds(0.0, 0.0, 1.0, 1.0);
        let b = Rect::from_bounds(2.0, 2.0, 3.0, 3.0);
        let u = a.union(&b);
        assert_eq!(u, Rect::from_bounds(0.0, 0.0, 3.0, 3.0));
        assert_eq!(a.enlargement(&b), 9.0 - 1.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn rect_min_dist() {
        let r = Rect::from_bounds(0.0, 0.0, 2.0, 2.0);
        // Inside -> 0.
        assert_eq!(r.min_dist(&Point::new(1.0, 1.0)), 0.0);
        // Directly right of the rectangle.
        assert_eq!(r.min_dist(&Point::new(5.0, 1.0)), 3.0);
        // Diagonal from the corner.
        let d = r.min_dist(&Point::new(5.0, 6.0));
        assert!((d - 5.0).abs() < 1e-12);
        // On the boundary -> 0.
        assert_eq!(r.min_dist(&Point::new(2.0, 2.0)), 0.0);
    }

    #[test]
    fn rect_max_dist_bounds_min_dist() {
        let r = Rect::from_bounds(0.0, 0.0, 2.0, 3.0);
        let p = Point::new(4.0, 4.0);
        assert!(r.max_dist(&p) >= r.min_dist(&p));
        let corner = Point::new(0.0, 0.0);
        let d = r.max_dist(&corner);
        assert!((d - (4.0 + 9.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn extend_point_grows() {
        let mut r = Rect::empty();
        r.extend_point(&Point::new(1.0, 2.0));
        assert!(!r.is_empty());
        assert_eq!(r, Rect::from_point(Point::new(1.0, 2.0)));
        r.extend_point(&Point::new(-1.0, 5.0));
        assert_eq!(r, Rect::from_bounds(-1.0, 2.0, 1.0, 5.0));
    }

    /// Great-circle (haversine) distance, the oracle the projection is
    /// measured against.
    fn haversine_km(a: &GeoPoint, b: &GeoPoint) -> f64 {
        let (lat1, lat2) = (a.lat.to_radians(), b.lat.to_radians());
        let dlat = lat2 - lat1;
        let dlon = (b.lon - a.lon).to_radians();
        let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
    }

    #[test]
    fn projection_preserves_local_distance() {
        let origin = GeoPoint::new(34.0, -118.3);
        let a = GeoPoint::new(34.05, -118.25);
        let b = GeoPoint::new(34.10, -118.20);
        let planar = a.project(&origin).dist(&b.project(&origin));
        let sphere = haversine_km(&a, &b);
        assert!(
            (planar - sphere).abs() / sphere < 0.01,
            "planar {planar} vs sphere {sphere}"
        );
    }
}
