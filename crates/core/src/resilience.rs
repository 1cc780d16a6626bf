//! Application-level fault-injection campaigns.
//!
//! This is the cross-layer counterpart of `clapped-netlist`'s gate-level
//! campaigns: instead of asking *how often* a stuck-at fault corrupts an
//! operator's outputs, it asks *how much the application cares*. The
//! two-stage flow keeps that tractable:
//!
//! 1. **Netlist pre-screening** — every stuck-at site of the target
//!    multiplier is ranked by positional output corruption under random
//!    stimulus (cheap: two bitwise ops per site per 64-lane pass).
//! 2. **Application evaluation** — only the `top_k` most suspicious
//!    sites get the expensive treatment: the operator's behavioural
//!    table is rebuilt under the fault ([`FaultedMul`]), substituted
//!    into the configuration's taps, and the full application model is
//!    re-run to measure true quality degradation.
//!
//! The result ranks nets by application-level impact — the list a
//! hardening pass (TMR, voting, guard gates) would consume.

use crate::framework::Clapped;
use crate::{ClappedError, Result};
use clapped_axops::{FaultedMul, Mul8s};
use clapped_dse::Configuration;
use clapped_netlist::{Fault, FaultSet};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Parameters of an application-level fault campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCampaignConfig {
    /// Catalog index of the multiplier whose netlist is injured.
    pub mul_index: usize,
    /// Number of pre-screened sites promoted to full application
    /// evaluation (each costs one exhaustive table rebuild plus one
    /// application run).
    pub top_k: usize,
    /// Random 64-lane input batches used for netlist pre-screening.
    pub prescreen_batches: usize,
    /// Seed for the pre-screening stimulus.
    pub seed: u64,
}

/// One fault site's measured impact across both layers.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultImpact {
    /// The injected stuck-at fault.
    pub fault: Fault,
    /// Pre-screening: fraction of random samples with corrupted
    /// operator outputs.
    pub netlist_mismatch_rate: f64,
    /// Pre-screening: positionally weighted operator output error.
    pub netlist_weighted_error: f64,
    /// Application error (%) with the fault injected.
    pub app_error_percent: f64,
    /// `app_error_percent` minus the fault-free baseline — the
    /// application-level quality cost of this net failing.
    pub degradation: f64,
}

/// Outcome of [`Clapped::fault_campaign`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignReport {
    /// Name of the injured operator.
    pub operator: String,
    /// Fault-free application error (%) of the campaign configuration.
    pub baseline_error_percent: f64,
    /// Stuck-at sites ranked in the pre-screening stage (both
    /// polarities of every net).
    pub sites_screened: usize,
    /// Promoted sites with measured application impact, sorted by
    /// decreasing [`FaultImpact::degradation`].
    pub impacts: Vec<FaultImpact>,
}

impl FaultCampaignReport {
    /// Sites whose application degradation exceeds `threshold` percent —
    /// the nets worth hardening.
    pub fn critical(&self, threshold: f64) -> Vec<&FaultImpact> {
        self.impacts.iter().filter(|i| i.degradation > threshold).collect()
    }
}

impl Clapped {
    /// Runs a two-stage fault campaign: ranks every stuck-at site of the
    /// catalog multiplier `campaign.mul_index` by netlist-level impact,
    /// then measures true application-quality degradation for the
    /// `top_k` worst sites by substituting a [`FaultedMul`] into
    /// `config`'s taps.
    ///
    /// Taps of `config` that reference other catalog operators are left
    /// healthy; if `config` never uses the injured operator, all
    /// degradations are zero.
    ///
    /// # Errors
    ///
    /// Returns [`ClappedError::BadConfiguration`] when `campaign`
    /// references an operator outside the catalog, and propagates
    /// simulation and application-evaluation failures.
    pub fn fault_campaign(
        &self,
        config: &Configuration,
        campaign: &FaultCampaignConfig,
    ) -> Result<FaultCampaignReport> {
        let _campaign_span = clapped_obs::span("fault.campaign");
        let base = self.catalog().at(campaign.mul_index).ok_or_else(|| {
            ClappedError::BadConfiguration {
                reason: format!(
                    "campaign operator index {} outside catalog of {} operators",
                    campaign.mul_index,
                    self.catalog().len()
                ),
            }
        })?;
        let baseline = self.evaluate_error(config)?;

        // Stage 1: netlist-level pre-screening under random stimulus.
        let netlist = base.netlist();
        let mut rng = ChaCha8Rng::seed_from_u64(campaign.seed);
        let batches: Vec<Vec<u64>> = (0..campaign.prescreen_batches.max(1))
            .map(|_| (0..netlist.inputs().len()).map(|_| rng.next_u64()).collect())
            .collect();
        let sites = netlist.fault_sites();
        let screened = {
            let _span = clapped_obs::span("fault.prescreen");
            netlist.stuck_at_campaign(&sites, &batches, 64, self.engine())?
        };
        clapped_obs::count("fault.sites_screened", sites.len() as u64);

        // Stage 2: application evaluation of the worst sites, fanned
        // over the engine (each job rebuilds the faulted behavioural
        // table — memoized per fault — and re-runs the application).
        let healthy_taps = self.try_taps_for(config)?;
        let tap_indices = config.active_mul_indices();
        let promoted: Vec<usize> =
            screened.ranked_sites().into_iter().take(campaign.top_k).collect();
        clapped_obs::count("fault.sites_promoted", promoted.len() as u64);
        let eval_span = clapped_obs::span("fault.evaluate");
        let impacts = self.engine().try_evaluate_many(&promoted, |_, &site_idx| {
            let site = &screened.sites[site_idx];
            let faults = FaultSet::from(site.fault);
            let faulted: Arc<dyn Mul8s> = Arc::new(FaultedMul::new(&base, &faults)?);
            let taps: Vec<Arc<dyn Mul8s>> = healthy_taps
                .iter()
                .zip(tap_indices.iter())
                .map(|(m, &i)| {
                    if i == campaign.mul_index {
                        faulted.clone()
                    } else {
                        m.clone()
                    }
                })
                .collect();
            let r = self.evaluate_error_with(config, &taps)?;
            Ok::<FaultImpact, ClappedError>(FaultImpact {
                fault: site.fault,
                netlist_mismatch_rate: site.mismatch_rate,
                netlist_weighted_error: site.weighted_error,
                app_error_percent: r.error_percent,
                degradation: r.error_percent - baseline.error_percent,
            })
        });
        drop(eval_span);
        // A failed site evaluation aborts the campaign (try_evaluate_many
        // reports the lowest-indexed error); count it before propagating.
        let mut impacts = impacts.inspect_err(|_| {
            clapped_obs::count("fault.sites_quarantined", 1);
        })?;
        impacts.sort_by(|a, b| b.degradation.total_cmp(&a.degradation));

        Ok(FaultCampaignReport {
            operator: base.name().to_string(),
            baseline_error_percent: baseline.error_percent,
            sites_screened: sites.len(),
            impacts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_netlist::FaultKind;

    #[test]
    fn campaign_over_golden_config_measures_degradation() {
        let fw = Clapped::builder().image_size(32).build().unwrap();
        let golden = Configuration::golden(3);
        let campaign = FaultCampaignConfig {
            mul_index: 0,
            top_k: 3,
            prescreen_batches: 2,
            seed: 11,
        };
        let report = fw.fault_campaign(&golden, &campaign).unwrap();
        assert_eq!(report.baseline_error_percent, 0.0);
        assert_eq!(report.impacts.len(), 3);
        assert!(report.sites_screened > 0);
        // Promoted sites were ranked worst at the netlist level; the
        // golden configuration uses the injured operator on every tap,
        // so they must hurt the application too.
        assert!(report.impacts[0].degradation > 0.0);
        for w in report.impacts.windows(2) {
            assert!(w[0].degradation >= w[1].degradation);
        }
        for i in &report.impacts {
            assert!(matches!(i.fault.kind, FaultKind::StuckAt0 | FaultKind::StuckAt1));
            assert!(i.netlist_mismatch_rate > 0.0);
            assert_eq!(i.app_error_percent, i.degradation);
        }
        assert!(!report.critical(0.0).is_empty());
    }

    #[test]
    fn unused_operator_degrades_nothing() {
        let fw = Clapped::builder().image_size(32).build().unwrap();
        // Golden uses operator 0 everywhere; injure operator 1 instead.
        let golden = Configuration::golden(3);
        let campaign = FaultCampaignConfig {
            mul_index: 1,
            top_k: 2,
            prescreen_batches: 1,
            seed: 5,
        };
        let report = fw.fault_campaign(&golden, &campaign).unwrap();
        assert!(report.impacts.iter().all(|i| i.degradation == 0.0));
    }

    #[test]
    fn out_of_catalog_operator_is_rejected() {
        let fw = Clapped::builder().image_size(32).build().unwrap();
        let campaign = FaultCampaignConfig {
            mul_index: 10_000,
            top_k: 1,
            prescreen_batches: 1,
            seed: 5,
        };
        let r = fw.fault_campaign(&Configuration::golden(3), &campaign);
        assert!(matches!(r, Err(ClappedError::BadConfiguration { .. })));
    }
}
