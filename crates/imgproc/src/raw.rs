//! Flat row-major buffer for raw (unclamped) convolution accumulators.

/// A row-major `i32` accumulator grid, as returned by
/// [`crate::ConvEngine::convolve_raw`]: one contiguous allocation with
/// row accessors, replacing the old `Vec<Vec<i32>>` shape (which paid
/// one heap allocation per row and scattered rows across the heap).
///
/// # Examples
///
/// ```
/// use clapped_imgproc::RawBuf;
///
/// let buf = RawBuf::from_vec(3, 2, vec![1, 2, 3, 4, 5, 6]);
/// assert_eq!(buf.get(2, 1), 6);
/// assert_eq!(buf.row(0), &[1, 2, 3]);
/// assert_eq!(buf.rows().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawBuf {
    width: usize,
    height: usize,
    data: Vec<i32>,
}

impl RawBuf {
    /// Wraps raw row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height` or a dimension is zero.
    pub fn from_vec(width: usize, height: usize, data: Vec<i32>) -> RawBuf {
        assert!(width > 0 && height > 0, "buffer dimensions must be positive");
        assert_eq!(data.len(), width * height, "data length mismatch");
        RawBuf { width, height, data }
    }

    /// Width in grid points.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in grid points.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The whole buffer, row-major.
    pub(crate) fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// One row as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    pub fn row(&self, y: usize) -> &[i32] {
        assert!(y < self.height, "row out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Iterates over rows top to bottom.
    pub fn rows(&self) -> impl Iterator<Item = &[i32]> {
        self.data.chunks_exact(self.width)
    }

    /// Value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: usize, y: usize) -> i32 {
        assert!(x < self.width && y < self.height, "value out of bounds");
        self.data[y * self.width + x]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_agree() {
        let buf = RawBuf::from_vec(2, 3, vec![10, 20, 30, 40, 50, 60]);
        assert_eq!(buf.width(), 2);
        assert_eq!(buf.height(), 3);
        assert_eq!(buf.get(1, 2), 60);
        assert_eq!(buf.row(1), &[30, 40]);
        let rows: Vec<&[i32]> = buf.rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[50, 60]);
        assert_eq!(buf.as_slice().len(), 6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_rejected() {
        let _ = RawBuf::from_vec(2, 2, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let buf = RawBuf::from_vec(1, 1, vec![5]);
        let _ = buf.get(1, 0);
    }
}
