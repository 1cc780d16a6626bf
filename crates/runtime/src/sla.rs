//! The per-stream service-level agreement.

use crate::{Result, RuntimeError};

/// The quality/latency contract a stream must hold.
///
/// Quality is the application-level error convention used everywhere in
/// this workspace: mean absolute pixel deviation from the exact-operator
/// pipeline on the *same* input frame, as a percentage of full scale
/// (`clapped_imgproc::app_error_percent`). Latency is the accelerator
/// model's frame time — cycles to stream the frame divided by the
/// achieved clock — so a rung that cannot keep up is excluded from the
/// ladder at construction time rather than discovered in production.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaSpec {
    /// Per-frame error ceiling (percent, `> 0`).
    pub max_error_percent: f64,
    /// Per-frame latency ceiling (microseconds, `> 0`).
    pub max_frame_time_us: f64,
}

impl SlaSpec {
    /// Validates the contract.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] unless both ceilings are
    /// finite and positive.
    pub(crate) fn validate(&self) -> Result<()> {
        if !(self.max_error_percent.is_finite() && self.max_error_percent > 0.0) {
            return Err(RuntimeError::BadConfig {
                reason: format!(
                    "SLA error ceiling must be finite and positive, got {}",
                    self.max_error_percent
                ),
            });
        }
        if !(self.max_frame_time_us.is_finite() && self.max_frame_time_us > 0.0) {
            return Err(RuntimeError::BadConfig {
                reason: format!(
                    "SLA frame-time ceiling must be finite and positive, got {}",
                    self.max_frame_time_us
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_nonpositive_ceilings() {
        let ok = SlaSpec { max_error_percent: 2.0, max_frame_time_us: 50.0 };
        assert!(ok.validate().is_ok());
        for bad in [
            SlaSpec { max_error_percent: 0.0, ..ok },
            SlaSpec { max_error_percent: f64::NAN, ..ok },
            SlaSpec { max_frame_time_us: -1.0, ..ok },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
