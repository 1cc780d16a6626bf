//! Grayscale image type and quality metrics.

use std::fmt;

/// An 8-bit grayscale image.
///
/// # Examples
///
/// ```
/// use clapped_imgproc::Image;
///
/// let mut img = Image::filled(4, 4, 128);
/// img.set(1, 2, 200);
/// assert_eq!(img.get(1, 2), 200);
/// assert_eq!(img.get_clamped(-5, 100), img.get(0, 3));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Image {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Image {
    /// Creates an image filled with a constant value.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: usize, height: usize, value: u8) -> Image {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Image {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates an image from a closure evaluated at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Image {
        let mut img = Image::filled(width, height, 0);
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, f(x, y));
            }
        }
        img
    }

    /// Creates an image from raw row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height` or a dimension is zero.
    pub(crate) fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Image {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        assert_eq!(data.len(), width * height, "data length mismatch");
        Image {
            width,
            height,
            data,
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw row-major pixel data.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Pixel with clamp-to-edge semantics for out-of-range coordinates.
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let xc = x.clamp(0, self.width as isize - 1) as usize;
        let yc = y.clamp(0, self.height as isize - 1) as usize;
        self.data[yc * self.width + xc]
    }

    /// Sets pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = value;
    }

    /// Mean pixel value.
    pub(crate) fn mean(&self) -> f64 {
        self.data.iter().map(|&v| f64::from(v)).sum::<f64>() / self.data.len() as f64
    }

    /// Downscales by integer factor `s` using `s × s` average pooling
    /// (the DATA-scaling DoF). A factor of 1 returns a clone.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0` or the image is smaller than `s`.
    pub fn downscale(&self, s: usize) -> Image {
        assert!(s > 0, "scale factor must be positive");
        if s == 1 {
            return self.clone();
        }
        assert!(
            self.width >= s && self.height >= s,
            "image smaller than the scale factor"
        );
        let w = self.width / s;
        let h = self.height / s;
        Image::from_fn(w, h, |x, y| {
            let mut acc = 0u32;
            for dy in 0..s {
                for dx in 0..s {
                    acc += u32::from(self.get(x * s + dx, y * s + dy));
                }
            }
            (acc / (s * s) as u32) as u8
        })
    }

    /// Upscales by integer factor `s` with pixel replication, then crops
    /// or edge-pads to exactly `(width, height)`.
    pub fn upscale_to(&self, s: usize, width: usize, height: usize) -> Image {
        Image::from_fn(width, height, |x, y| {
            let sx = (x / s).min(self.width - 1);
            let sy = (y / s).min(self.height - 1);
            self.get(sx, sy)
        })
    }
}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Image {}x{} (mean {:.1})",
            self.width,
            self.height,
            self.mean()
        )
    }
}

/// Peak signal-to-noise ratio between two same-sized images, in dB.
/// Returns `f64::INFINITY` for identical images.
///
/// # Panics
///
/// Panics if the dimensions differ.
pub fn psnr(a: &Image, b: &Image) -> f64 {
    assert_eq!(a.width(), b.width(), "width mismatch");
    assert_eq!(a.height(), b.height(), "height mismatch");
    let mse: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        / a.as_slice().len() as f64;
    if mse == 0.0 {
        return f64::INFINITY;
    }
    20.0 * (255.0 / mse.sqrt()).log10()
}

/// PSNR capped at 99 dB, for averaging across images where some outputs
/// may be identical to the reference (infinite raw PSNR).
///
/// # Panics
///
/// Panics if the dimensions differ.
pub(crate) fn psnr_capped(a: &Image, b: &Image) -> f64 {
    psnr(a, b).min(99.0)
}

/// Application-level error in percent: mean absolute pixel difference
/// normalized by the full 8-bit range (the x-axis of paper Fig. 12b).
///
/// # Panics
///
/// Panics if the dimensions differ.
pub fn app_error_percent(out: &Image, golden: &Image) -> f64 {
    assert_eq!(out.width(), golden.width(), "width mismatch");
    assert_eq!(out.height(), golden.height(), "height mismatch");
    let mad: f64 = out
        .as_slice()
        .iter()
        .zip(golden.as_slice())
        .map(|(&x, &y)| (f64::from(x) - f64::from(y)).abs())
        .sum::<f64>()
        / out.as_slice().len() as f64;
    100.0 * mad / 255.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let img = Image::from_fn(3, 2, |x, y| (x + 10 * y) as u8);
        assert_eq!(img.get(2, 1), 12);
        assert_eq!(img.width(), 3);
        assert_eq!(img.height(), 2);
        assert_eq!(img.as_slice(), &[0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn clamped_access() {
        let img = Image::from_fn(2, 2, |x, y| (x + 2 * y) as u8);
        assert_eq!(img.get_clamped(-1, -1), img.get(0, 0));
        assert_eq!(img.get_clamped(5, 5), img.get(1, 1));
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let img = Image::filled(4, 4, 100);
        assert!(psnr(&img, &img).is_infinite());
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let a = Image::filled(8, 8, 100);
        let slightly = Image::filled(8, 8, 102);
        let very = Image::filled(8, 8, 150);
        assert!(psnr(&a, &slightly) > psnr(&a, &very));
    }

    #[test]
    fn psnr_capped_bounds_identical_images() {
        let img = Image::filled(4, 4, 7);
        assert_eq!(psnr_capped(&img, &img), 99.0);
        let other = Image::filled(4, 4, 200);
        assert_eq!(psnr(&img, &other), psnr_capped(&img, &other));
    }

    #[test]
    fn app_error_percent_scales() {
        let a = Image::filled(4, 4, 0);
        let b = Image::filled(4, 4, 255);
        assert!((app_error_percent(&a, &b) - 100.0).abs() < 1e-12);
        assert_eq!(app_error_percent(&a, &a), 0.0);
    }

    #[test]
    fn downscale_averages() {
        let img = Image::from_vec(2, 2, vec![0, 100, 100, 200]);
        let down = img.downscale(2);
        assert_eq!(down.width(), 1);
        assert_eq!(down.get(0, 0), 100);
    }

    #[test]
    fn upscale_replicates_and_pads() {
        let img = Image::from_vec(2, 1, vec![10, 20]);
        let up = img.upscale_to(2, 5, 2);
        assert_eq!(up.get(0, 0), 10);
        assert_eq!(up.get(1, 0), 10);
        assert_eq!(up.get(2, 0), 20);
        assert_eq!(up.get(4, 1), 20); // clamped beyond source
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_size_rejected() {
        let _ = Image::filled(0, 4, 0);
    }
}
