//! Minimum Bounding Rectangles (MBRs) with runtime dimensionality.
//!
//! The paper: "An MBR represents the minimal approximation of the
//! enclosed data set by using multi-dimensional intervals of the
//! attribute space, showing the lower and the upper bounds of each
//! dimension" (§2.2). Every semantic R-tree node carries one.

/// An axis-aligned box in D-dimensional attribute space.
///
/// Degenerate boxes (a point) are valid; `lo[i] == hi[i]` is allowed,
/// `lo[i] > hi[i]` is not.
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Rect {
    /// Creates a rectangle from per-dimension bounds.
    ///
    /// # Panics
    /// If lengths differ, bounds are inverted, or any bound is NaN.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "Rect::new: dimension mismatch");
        for (i, (&l, &h)) in lo.iter().zip(hi.iter()).enumerate() {
            assert!(
                !l.is_nan() && !h.is_nan(),
                "Rect::new: NaN bound in dim {i}"
            );
            assert!(l <= h, "Rect::new: inverted bounds in dim {i}: {l} > {h}");
        }
        Self { lo, hi }
    }

    /// A degenerate rectangle containing exactly `point`.
    pub fn point(point: &[f64]) -> Self {
        Self::new(point.to_vec(), point.to_vec())
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower bounds.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Hyper-volume (product of side lengths). Zero for degenerate boxes.
    pub fn area(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(&l, &h)| h - l).product()
    }

    /// Geometric center.
    pub fn center(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| 0.5 * (l + h))
            .collect()
    }

    /// True if the two rectangles overlap (closed intervals — touching
    /// boundaries count as intersecting).
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((&l, &h), (&ol, &oh))| l <= oh && ol <= h)
    }

    /// True if `other` lies entirely within `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((&l, &h), (&ol, &oh))| l <= ol && oh <= h)
    }

    /// True if the point lies within the rectangle (boundaries included).
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(self.dim(), p.len());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(p)
            .all(|((&l, &h), &x)| l <= x && x <= h)
    }

    /// Smallest rectangle covering both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        debug_assert_eq!(self.dim(), other.dim());
        let lo = self
            .lo
            .iter()
            .zip(&other.lo)
            .map(|(&a, &b)| a.min(b))
            .collect();
        let hi = self
            .hi
            .iter()
            .zip(&other.hi)
            .map(|(&a, &b)| a.max(b))
            .collect();
        Rect { lo, hi }
    }

    /// Grows `self` in place to cover `other`.
    pub fn union_in_place(&mut self, other: &Rect) {
        debug_assert_eq!(self.dim(), other.dim());
        for i in 0..self.lo.len() {
            if other.lo[i] < self.lo[i] {
                self.lo[i] = other.lo[i];
            }
            if other.hi[i] > self.hi[i] {
                self.hi[i] = other.hi[i];
            }
        }
    }

    /// Area increase needed to absorb `other` (Guttman's ChooseLeaf
    /// criterion).
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Squared minimum distance from `point` to this rectangle (0 if the
    /// point is inside). This is the `MINDIST` lower bound of
    /// Roussopoulos et al., used by best-first k-NN search.
    pub fn min_sq_dist(&self, point: &[f64]) -> f64 {
        debug_assert_eq!(self.dim(), point.len());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(point)
            .map(|((&l, &h), &x)| {
                let d = if x < l {
                    l - x
                } else if x > h {
                    x - h
                } else {
                    0.0
                };
                d * d
            })
            .sum()
    }

    /// MBR of a non-empty set of rectangles.
    ///
    /// # Panics
    /// If `rects` is empty.
    pub fn union_all<'a, I: IntoIterator<Item = &'a Rect>>(rects: I) -> Rect {
        let mut it = rects.into_iter();
        let mut acc = it.next().expect("union_all: empty input").clone();
        for r in it {
            acc.union_in_place(r);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r2(lo: [f64; 2], hi: [f64; 2]) -> Rect {
        Rect::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn area_and_center() {
        let r = r2([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(r.area(), 6.0);
        assert_eq!(r.center(), vec![1.0, 1.5]);
    }

    #[test]
    fn point_rect_has_zero_area() {
        let r = Rect::point(&[1.0, 2.0, 3.0]);
        assert_eq!(r.area(), 0.0);
        assert!(r.contains_point(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn intersection_cases() {
        let a = r2([0.0, 0.0], [2.0, 2.0]);
        let b = r2([1.0, 1.0], [3.0, 3.0]);
        let c = r2([2.0, 2.0], [4.0, 4.0]); // touches a at a corner
        let d = r2([5.0, 5.0], [6.0, 6.0]);
        assert!(a.intersects(&b));
        assert!(a.intersects(&c));
        assert!(!a.intersects(&d));
        assert!(b.intersects(&a));
    }

    #[test]
    fn containment() {
        let outer = r2([0.0, 0.0], [10.0, 10.0]);
        let inner = r2([1.0, 1.0], [2.0, 2.0]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
        assert!(outer.contains_point(&[10.0, 10.0]));
        assert!(!outer.contains_point(&[10.0, 10.1]));
    }

    #[test]
    fn union_covers_both() {
        let a = r2([0.0, 0.0], [1.0, 1.0]);
        let b = r2([2.0, -1.0], [3.0, 0.5]);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r2([0.0, -1.0], [3.0, 1.0]));
    }

    #[test]
    fn enlargement_zero_for_contained() {
        let a = r2([0.0, 0.0], [4.0, 4.0]);
        let b = r2([1.0, 1.0], [2.0, 2.0]);
        assert_eq!(a.enlargement(&b), 0.0);
        assert!(b.enlargement(&a) > 0.0);
    }

    #[test]
    fn min_sq_dist_inside_is_zero() {
        let a = r2([0.0, 0.0], [2.0, 2.0]);
        assert_eq!(a.min_sq_dist(&[1.0, 1.0]), 0.0);
        assert_eq!(a.min_sq_dist(&[2.0, 2.0]), 0.0);
    }

    #[test]
    fn min_sq_dist_outside_matches_geometry() {
        let a = r2([0.0, 0.0], [2.0, 2.0]);
        // Point (5, 6): dx = 3, dy = 4 ⇒ squared distance 25.
        assert_eq!(a.min_sq_dist(&[5.0, 6.0]), 25.0);
        // Point aligned with one axis.
        assert_eq!(a.min_sq_dist(&[1.0, 5.0]), 9.0);
    }

    #[test]
    fn union_all_of_three() {
        let rects = vec![
            r2([0.0, 0.0], [1.0, 1.0]),
            r2([-1.0, 2.0], [0.0, 3.0]),
            r2([4.0, 0.5], [5.0, 0.6]),
        ];
        let u = Rect::union_all(&rects);
        assert_eq!(u, r2([-1.0, 0.0], [5.0, 3.0]));
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        Rect::new(vec![1.0], vec![0.0]);
    }

    #[test]
    #[should_panic]
    fn union_all_empty_panics() {
        Rect::union_all(&[]);
    }
}
