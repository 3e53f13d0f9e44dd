//! Dense `d`-dimensional data points.
//!
//! The paper treats the dataset as `N` `d`-dimensional points in a Euclidean
//! vector space (§3). [`Point`] is a thin owning wrapper over `Box<[f64]>`
//! — two words on the stack, one allocation — with the handful of vector
//! operations the algorithm needs. Points can carry an optional weight
//! (§1: *"optionally … a weighted function"*; §6.8 weights image bands).

use std::fmt;
use std::ops::{Deref, Index};

/// An immutable `d`-dimensional data point.
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Box<[f64]>,
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty or contains a non-finite value — BIRCH's
    /// distance algebra is meaningless for NaN/∞ inputs, and catching them at
    /// the boundary keeps every downstream invariant simple. Use
    /// [`Point::try_new`] for untrusted input.
    #[must_use]
    pub fn new(coords: Vec<f64>) -> Self {
        match Self::try_new(coords) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a point from its coordinates, or says why they cannot form
    /// one: [`Point::new`]'s checks as a typed error.
    ///
    /// # Errors
    ///
    /// [`PointError::Empty`] for no coordinates; [`PointError::NonFinite`]
    /// naming the first NaN or infinite coordinate.
    pub fn try_new(coords: Vec<f64>) -> Result<Self, PointError> {
        if coords.is_empty() {
            return Err(PointError::Empty);
        }
        if let Some(axis) = coords.iter().position(|c| !c.is_finite()) {
            return Err(PointError::NonFinite {
                axis,
                value: coords[axis],
            });
        }
        Ok(Self {
            coords: coords.into_boxed_slice(),
        })
    }

    /// Convenience constructor for 2-d points (the paper's workloads).
    #[must_use]
    pub fn xy(x: f64, y: f64) -> Self {
        Self::new(vec![x, y])
    }

    /// Dimensionality `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Coordinates as a slice.
    #[must_use]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Squared Euclidean distance to another point.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn sq_dist(&self, other: &Point) -> f64 {
        sq_dist(&self.coords, &other.coords)
    }

    /// Euclidean distance to another point.
    #[must_use]
    pub fn dist(&self, other: &Point) -> f64 {
        self.sq_dist(other).sqrt()
    }
}

/// Why coordinates cannot form a [`Point`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointError {
    /// No coordinates at all.
    Empty,
    /// A coordinate is NaN or infinite.
    NonFinite {
        /// Index of the first such coordinate.
        axis: usize,
        /// Its value.
        value: f64,
    },
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Empty => write!(f, "a point must have at least 1 dimension"),
            PointError::NonFinite { axis, value } => {
                write!(
                    f,
                    "point coordinates must be finite, got {value} at axis {axis}"
                )
            }
        }
    }
}

impl std::error::Error for PointError {}

/// Squared Euclidean distance between two coordinate slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dimension mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Manhattan (L1) distance between two coordinate slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn manhattan_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dimension mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Dot product of two coordinate slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dimension mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl Deref for Point {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.coords
    }
}

impl Index<usize> for Point {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Self::new(coords)
    }
}

impl From<&[f64]> for Point {
    fn from(coords: &[f64]) -> Self {
        Self::new(coords.to_vec())
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.4}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
        assert_eq!(p[1], 2.0);
        let q = Point::xy(3.0, 4.0);
        assert_eq!(q.dim(), 2);
    }

    #[test]
    fn euclidean_distance_345() {
        let a = Point::xy(0.0, 0.0);
        let b = Point::xy(3.0, 4.0);
        assert_eq!(a.sq_dist(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(b.dist(&a), 5.0);
    }

    #[test]
    fn manhattan_and_dot() {
        assert_eq!(manhattan_dist(&[1.0, -2.0], &[4.0, 2.0]), 7.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point::new(vec![0.5, -1.5, 2.5]);
        assert_eq!(p.dist(&p), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 1 dimension")]
    fn empty_point_rejected() {
        let _ = Point::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = Point::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn try_new_names_what_is_wrong() {
        assert_eq!(Point::try_new(vec![]), Err(PointError::Empty));
        assert_eq!(
            Point::try_new(vec![1.0, 2.0, f64::INFINITY, f64::NAN]),
            Err(PointError::NonFinite {
                axis: 2,
                value: f64::INFINITY
            })
        );
        assert_eq!(Point::try_new(vec![1.0, 2.0]), Ok(Point::xy(1.0, 2.0)));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = Point::new(vec![1.0]);
        let b = Point::xy(1.0, 2.0);
        let _ = a.dist(&b);
    }

    #[test]
    fn deref_gives_slice_ops() {
        let p = Point::new(vec![2.0, 8.0]);
        assert_eq!(p.iter().sum::<f64>(), 10.0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn from_conversions() {
        let p: Point = vec![1.0, 2.0].into();
        assert_eq!(p.dim(), 2);
        let q: Point = [3.0, 4.0].as_slice().into();
        assert_eq!(q.coords(), &[3.0, 4.0]);
    }

    #[test]
    fn debug_format_compact() {
        let p = Point::xy(1.0, 2.5);
        assert_eq!(format!("{p:?}"), "Point(1.0000, 2.5000)");
    }
}
