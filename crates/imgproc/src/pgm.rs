//! Plain PGM (P2/P5) image I/O, so workloads and results can be
//! exchanged with standard tools.

use crate::Image;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

impl Image {
    /// Serializes the image as binary PGM (P5, maxval 255).
    pub fn to_pgm(&self) -> Vec<u8> {
        let mut header = String::new();
        write!(header, "P5\n{} {}\n255\n", self.width(), self.height()).expect("string write");
        let mut out = header.into_bytes();
        out.extend_from_slice(self.as_slice());
        out
    }

    /// Writes the image to a PGM file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_pgm(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_pgm())
    }

    /// Parses a PGM image (binary P5 or ASCII P2, maxval ≤ 255).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on malformed input.
    pub fn from_pgm(bytes: &[u8]) -> io::Result<Image> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        // Tokenize the header: magic, width, height, maxval, skipping
        // comments.
        let mut pos = 0usize;
        let mut tokens: Vec<String> = Vec::new();
        while tokens.len() < 4 && pos < bytes.len() {
            let b = bytes[pos];
            if b == b'#' {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            } else if b.is_ascii_whitespace() {
                pos += 1;
            } else {
                let start = pos;
                while pos < bytes.len()
                    && !bytes[pos].is_ascii_whitespace()
                    && bytes[pos] != b'#'
                {
                    pos += 1;
                }
                tokens.push(String::from_utf8_lossy(&bytes[start..pos]).into_owned());
            }
        }
        if tokens.len() < 4 {
            return Err(bad("truncated PGM header"));
        }
        let magic = tokens[0].as_str();
        let width: usize = tokens[1].parse().map_err(|_| bad("bad width"))?;
        let height: usize = tokens[2].parse().map_err(|_| bad("bad height"))?;
        let maxval: usize = tokens[3].parse().map_err(|_| bad("bad maxval"))?;
        if width == 0 || height == 0 {
            return Err(bad("zero dimension"));
        }
        if maxval == 0 || maxval > 255 {
            return Err(bad("unsupported maxval"));
        }
        let scale = 255.0 / maxval as f64;
        let data: Vec<u8> = match magic {
            "P5" => {
                // One whitespace byte after maxval, then raw bytes.
                pos += 1;
                let need = width * height;
                if bytes.len() < pos + need {
                    return Err(bad("truncated P5 payload"));
                }
                bytes[pos..pos + need]
                    .iter()
                    .map(|&v| (f64::from(v) * scale).round().min(255.0) as u8)
                    .collect()
            }
            "P2" => {
                let text = String::from_utf8_lossy(&bytes[pos..]);
                let vals: Vec<u8> = text
                    .split_whitespace()
                    .take(width * height)
                    .map(|t| {
                        t.parse::<usize>()
                            .map(|v| ((v as f64) * scale).round().min(255.0) as u8)
                    })
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("bad P2 sample"))?;
                if vals.len() != width * height {
                    return Err(bad("truncated P2 payload"));
                }
                vals
            }
            _ => return Err(bad("not a PGM (P2/P5) file")),
        };
        Ok(Image::from_vec(width, height, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthKind;

    #[test]
    fn p5_roundtrip() {
        let img = Image::synthetic(SynthKind::SmoothField, 17, 9, 4);
        let back = Image::from_pgm(&img.to_pgm()).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn p2_parsing_with_comments() {
        let text = b"P2\n# a comment\n3 2\n255\n0 128 255\n64 32 16\n";
        let img = Image::from_pgm(text).unwrap();
        assert_eq!(img.width(), 3);
        assert_eq!(img.height(), 2);
        assert_eq!(img.get(1, 0), 128);
        assert_eq!(img.get(2, 1), 16);
    }

    #[test]
    fn maxval_rescaling() {
        let text = b"P2\n2 1\n15\n0 15\n";
        let img = Image::from_pgm(text).unwrap();
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(1, 0), 255);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(Image::from_pgm(b"P6\n2 2\n255\n....").is_err());
        assert!(Image::from_pgm(b"P5\n2 2\n255\nab").is_err()); // truncated
        assert!(Image::from_pgm(b"P2\n0 2\n255\n").is_err());
        assert!(Image::from_pgm(b"P2\n2 2\n70000\n1 2 3 4").is_err());
        assert!(Image::from_pgm(b"").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("clapped_pgm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pgm");
        let img = Image::synthetic(SynthKind::Blobs, 8, 8, 1);
        img.save_pgm(&path).unwrap();
        let back = Image::from_pgm(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(img, back);
    }
}
