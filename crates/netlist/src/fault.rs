//! Gate-level fault injection and fault campaigns.
//!
//! CLAppED treats synthesized netlists as the hardware ground truth; this
//! module asks the robustness question on top of that substrate: *which
//! nets of an (approximate) operator actually matter when silicon
//! misbehaves?* It supports
//!
//! - **permanent faults** — stuck-at-0 / stuck-at-1 on any net, applied
//!   as per-signal masks inside the bit-parallel evaluation kernel, and
//! - **transient faults** — per-lane bit-flip (XOR) masks modelling SEU
//!   style upsets,
//!
//! plus campaign runners that sweep every injectable site, compare
//! against the fault-free simulation, and rank nets by how often (and
//! how badly, under a positional weighting) they corrupt the outputs.
//! Application-level quality impact of these sites is measured one layer
//! up, in `clapped-core`.

use crate::ir::{Netlist, SignalId};
use crate::NetlistError;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Words per simulation block in the sharded stuck-at campaign: each
/// wide evaluation pass carries `64 × CAMPAIGN_BLOCK_WORDS` lanes.
pub const CAMPAIGN_BLOCK_WORDS: usize = 8;

/// Input-block groups per `(site, batch-chunk)` shard handed to the
/// execution engine — small enough that campaigns with few sites still
/// fan out over batches, large enough to amortize dispatch.
const CAMPAIGN_GROUPS_PER_SHARD: usize = 16;

/// Integer mismatch statistics from one campaign shard. Folding these
/// across shards is exact in any order, which is what makes the sharded
/// campaign bit-identical to the serial reference.
struct ShardStats {
    /// Lanes with at least one wrong output bit.
    mismatched_lanes: u64,
    /// Wrong-lane count per output bit position.
    bit_mismatches: Vec<u64>,
}

/// Checks a campaign's stimulus and returns the mask of the meaningful
/// lanes of each batch. A batch word carries `1..=64` lanes, and a
/// campaign over no batches has no samples to divide its counts by.
fn campaign_lane_mask(lanes_per_batch: usize, batches: usize) -> crate::Result<u64> {
    if !(1..=64).contains(&lanes_per_batch) || batches == 0 {
        return Err(NetlistError::InvalidStimulus { lanes_per_batch, batches });
    }
    Ok(!0u64 >> (64 - lanes_per_batch))
}

/// The normalizer of a site's weighted error: the sum of every output
/// bit's weight `2^k`, at least 1 so an output-less netlist reports
/// zero error instead of `NaN`.
fn max_output_weight(out_bits: usize) -> f64 {
    (0..out_bits).map(|k| (k as f64).exp2()).sum::<f64>().max(1.0)
}

/// The permanent fault models supported on a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The net always reads logic 0.
    StuckAt0,
    /// The net always reads logic 1.
    StuckAt1,
}

/// One permanent fault: a net forced to a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The faulted net.
    pub signal: SignalId,
    /// Stuck-at polarity.
    pub kind: FaultKind,
}

/// A set of faults to inject in one simulation, stored as per-signal
/// masks so injection costs two bitwise ops per faulted net per pass.
///
/// For every signal the simulator computes
/// `value = (value & and_mask) | or_mask` followed by `value ^= xor_mask`
/// (transient flips), so stuck-ats and transients compose.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    /// `(signal index, and-mask, or-mask, xor-mask)` — sparse, typically
    /// one or two entries.
    entries: Vec<(usize, u64, u64, u64)>,
}

impl FaultSet {
    /// An empty fault set (simulation is bit-identical to fault-free).
    pub fn empty() -> FaultSet {
        FaultSet::default()
    }

    /// The number of faulted nets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no fault is injected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds a permanent stuck-at fault.
    pub fn stuck_at(mut self, signal: SignalId, kind: FaultKind) -> FaultSet {
        let (and_mask, or_mask) = match kind {
            FaultKind::StuckAt0 => (0u64, 0u64),
            FaultKind::StuckAt1 => (!0u64, !0u64),
        };
        self.push(signal.index(), and_mask, or_mask, 0);
        self
    }

    /// Adds a transient fault: lanes set in `lanes` read the net
    /// inverted (a bit-flip in those simulation lanes).
    pub fn transient(mut self, signal: SignalId, lanes: u64) -> FaultSet {
        self.push(signal.index(), !0, 0, lanes);
        self
    }

    fn push(&mut self, index: usize, and_mask: u64, or_mask: u64, xor_mask: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == index) {
            // Compose with any fault already on this net: stuck-ats
            // override, transients accumulate.
            e.1 &= and_mask;
            e.2 = (e.2 & and_mask) | or_mask;
            e.3 ^= xor_mask;
        } else {
            self.entries.push((index, and_mask, or_mask, xor_mask));
        }
    }

    /// The mask entries in the form the evaluation kernel takes: sorted
    /// by signal index.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidFaultSite`] if an entry references
    /// a signal at or beyond `signals`.
    pub(crate) fn sorted_masks(
        &self,
        signals: usize,
    ) -> crate::Result<Vec<(usize, u64, u64, u64)>> {
        if let Some(index) = self.entries.iter().map(|e| e.0).max().filter(|&i| i >= signals) {
            return Err(NetlistError::InvalidFaultSite { index, signals });
        }
        let mut masks = self.entries.clone();
        masks.sort_unstable_by_key(|e| e.0);
        Ok(masks)
    }

    /// The raw `(signal index, and, or, xor)` mask entries, for content
    /// digesting.
    pub(crate) fn entries(&self) -> &[(usize, u64, u64, u64)] {
        &self.entries
    }
}

impl From<Fault> for FaultSet {
    fn from(f: Fault) -> FaultSet {
        FaultSet::empty().stuck_at(f.signal, f.kind)
    }
}

/// Per-site outcome of a campaign, comparable across sites.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSiteReport {
    /// The injected fault.
    pub fault: Fault,
    /// Fraction of simulated samples with at least one wrong output bit.
    pub mismatch_rate: f64,
    /// Mean weighted output error per sample: wrong bits weighted by
    /// `2^position` within each output word (so MSB corruption counts
    /// more, matching arithmetic-bus intuition), normalized by the
    /// maximum weight.
    pub weighted_error: f64,
}

/// Result of sweeping faults over a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// One report per injected fault, in injection order.
    pub sites: Vec<FaultSiteReport>,
    /// Total samples (lanes) simulated per site.
    pub samples: usize,
}

impl CampaignReport {
    /// Site indices sorted by decreasing impact (weighted error first,
    /// mismatch rate as tie-break). NaN cannot occur: both metrics are
    /// ratios of finite counts over positive denominators.
    pub fn ranked_sites(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.sites.len()).collect();
        idx.sort_by(|&a, &b| {
            let (sa, sb) = (&self.sites[a], &self.sites[b]);
            sb.weighted_error
                .total_cmp(&sa.weighted_error)
                .then(sb.mismatch_rate.total_cmp(&sa.mismatch_rate))
        });
        idx
    }

    /// The most critical sites: ranked, truncated to `k`.
    pub fn critical_sites(&self, k: usize) -> Vec<&FaultSiteReport> {
        self.ranked_sites()
            .into_iter()
            .take(k)
            .map(|i| &self.sites[i])
            .collect()
    }

    /// Fraction of sites that never corrupted an output (logic masking).
    pub fn masked_fraction(&self) -> f64 {
        if self.sites.is_empty() {
            return 0.0;
        }
        let masked = self.sites.iter().filter(|s| s.mismatch_rate == 0.0).count();
        masked as f64 / self.sites.len() as f64
    }
}

impl Netlist {
    /// [`Netlist::eval_words`] with a set of injected faults.
    ///
    /// The fault masks are applied to each net's value immediately after
    /// it is computed, so downstream gates see the faulted value —
    /// exactly the semantics of a defective physical net. An empty fault
    /// set yields bit-identical results to the fault-free evaluator.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidFaultSite`] if a fault references
    /// a signal outside this netlist, and propagates
    /// [`NetlistError::InputCountMismatch`] from the underlying
    /// evaluator.
    pub fn eval_words_with_faults(
        &self,
        input_words: &[u64],
        faults: &FaultSet,
    ) -> crate::Result<Vec<u64>> {
        self.eval_words_masked(input_words, &faults.sorted_masks(self.len())?)
    }

    /// Primary outputs under injected faults, 64 lanes at a time.
    ///
    /// # Errors
    ///
    /// See [`Netlist::eval_words_with_faults`].
    pub fn simulate_words_with_faults(
        &self,
        input_words: &[u64],
        faults: &FaultSet,
    ) -> crate::Result<Vec<u64>> {
        Ok(self.output_words(&self.eval_words_with_faults(input_words, faults)?))
    }

    /// All injectable fault sites: every signal with both stuck-at
    /// polarities. Primary inputs are included (a stuck input models a
    /// broken bond/pin).
    pub fn fault_sites(&self) -> Vec<Fault> {
        let mut sites = Vec::with_capacity(self.len() * 2);
        for i in 0..self.len() {
            let signal = SignalId::from_index(i);
            sites.push(Fault { signal, kind: FaultKind::StuckAt0 });
            sites.push(Fault { signal, kind: FaultKind::StuckAt1 });
        }
        sites
    }

    /// Runs a stuck-at campaign over `sites`, driving every batch in
    /// `input_batches` (each batch is one `eval_words` input vector
    /// carrying up to 64 lane samples; `lanes_per_batch` says how many
    /// lanes of each batch are meaningful), with the per-site sweep
    /// fanned out over `engine`'s thread pool. Pass
    /// [`clapped_exec::Engine::serial`] to run the sweep inline.
    ///
    /// Every site is simulated: the sweep runs on the wide-word
    /// simulator ([`Netlist::simulate_blocks_with_faults`]), with the
    /// batches packed into [`CAMPAIGN_BLOCK_WORDS`]-word blocks once,
    /// shared by every site, and the work fanned out over `engine` as
    /// `(site, batch-chunk)` shards. All mismatch statistics are
    /// accumulated as exact integers and folded in a fixed order, so
    /// the report is bit-identical to [`Netlist::stuck_at_campaign_ref`]
    /// at any thread count and any chunking.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidStimulus`] unless
    /// `lanes_per_batch` is in `1..=64` and `input_batches` is
    /// non-empty; otherwise see [`Netlist::eval_words_with_faults`].
    pub fn stuck_at_campaign(
        &self,
        sites: &[Fault],
        input_batches: &[Vec<u64>],
        lanes_per_batch: usize,
        engine: &clapped_exec::Engine,
    ) -> crate::Result<CampaignReport> {
        const W: usize = CAMPAIGN_BLOCK_WORDS;
        let lane_mask = campaign_lane_mask(lanes_per_batch, input_batches.len())?;
        let n_inputs = self.inputs().len();
        // Validate batches in order (the reference's golden pass
        // surfaces the first bad batch), then sites in order (the
        // reference's per-site sweep surfaces the lowest-indexed bad
        // site).
        for batch in input_batches {
            if batch.len() != n_inputs {
                return Err(NetlistError::InputCountMismatch {
                    expected: n_inputs,
                    found: batch.len(),
                });
            }
        }
        for fault in sites {
            if fault.signal.index() >= self.len() {
                return Err(NetlistError::InvalidFaultSite {
                    index: fault.signal.index(),
                    signals: self.len(),
                });
            }
        }
        // Pack the batches into W-word blocks once; padding words of a
        // partial final block stay zero and are masked out of every
        // mismatch count below.
        let n_groups = input_batches.len().div_ceil(W);
        let grouped: Vec<Vec<[u64; W]>> = (0..n_groups)
            .map(|g| {
                (0..n_inputs)
                    .map(|k| {
                        let mut block = [0u64; W];
                        for (w, slot) in block.iter_mut().enumerate() {
                            if let Some(batch) = input_batches.get(g * W + w) {
                                *slot = batch[k];
                            }
                        }
                        block
                    })
                    .collect()
            })
            .collect();
        // Meaningful-lane masks per block word (zero on padding words).
        let word_masks: Vec<[u64; W]> = (0..n_groups)
            .map(|g| {
                let mut m = [0u64; W];
                for (w, slot) in m.iter_mut().enumerate() {
                    if g * W + w < input_batches.len() {
                        *slot = lane_mask;
                    }
                }
                m
            })
            .collect();
        // Wide golden outputs, computed once and shared by all shards.
        let golden: Vec<Vec<[u64; W]>> = grouped
            .iter()
            .map(|blocks| self.simulate_blocks::<W>(blocks))
            .collect::<crate::Result<_>>()?;
        let out_bits = self.outputs().len();
        let max_weight = max_output_weight(out_bits);
        let samples = input_batches.len() * lanes_per_batch;

        // Shard the sweep over (site, batch-chunk) jobs so both many
        // sites and many batches feed the thread pool.
        let shards_per_site = n_groups.div_ceil(CAMPAIGN_GROUPS_PER_SHARD).max(1);
        let jobs: Vec<(usize, usize, usize)> = (0..sites.len())
            .flat_map(|si| {
                (0..shards_per_site).map(move |s| {
                    let g0 = (s * CAMPAIGN_GROUPS_PER_SHARD).min(n_groups);
                    let g1 = ((s + 1) * CAMPAIGN_GROUPS_PER_SHARD).min(n_groups);
                    (si, g0, g1)
                })
            })
            .collect();
        let partials = engine.try_evaluate_many(&jobs, |_, &(si, g0, g1)| {
            self.sweep_shard(
                sites[si],
                &grouped[g0..g1],
                &golden[g0..g1],
                &word_masks[g0..g1],
                out_bits,
            )
        })?;

        // Fold the shards per site in shard order. Both counters are
        // integers, so the fold is exact and order-insensitive; the
        // weighted sum below adds integer-valued f64 terms (count·2^k,
        // all below 2^53), which is exactly how the reference's
        // per-batch accumulation rounds — bit-identical results.
        let mut site_reports = Vec::with_capacity(sites.len());
        for (si, fault) in sites.iter().enumerate() {
            let mut mismatched: u64 = 0;
            let mut bit_counts = vec![0u64; out_bits];
            for partial in &partials[si * shards_per_site..(si + 1) * shards_per_site] {
                mismatched += partial.mismatched_lanes;
                for (acc, c) in bit_counts.iter_mut().zip(&partial.bit_mismatches) {
                    *acc += c;
                }
            }
            let mut weighted = 0.0f64;
            for (k, &c) in bit_counts.iter().enumerate() {
                weighted += c as f64 * (k as f64).exp2();
            }
            site_reports.push(FaultSiteReport {
                fault: *fault,
                mismatch_rate: mismatched as f64 / samples as f64,
                weighted_error: weighted / (samples as f64 * max_weight),
            });
        }
        Ok(CampaignReport { sites: site_reports, samples })
    }

    /// The retained 64-way serial reference campaign: one
    /// [`Netlist::simulate_words_with_faults`] pass per site per batch,
    /// statistics accumulated batch by batch. The wide sharded
    /// campaign above is pinned bit-identical to this path by the
    /// property tests and benchmarked against it in `bench_sim`.
    ///
    /// # Errors
    ///
    /// As [`Netlist::stuck_at_campaign`].
    pub fn stuck_at_campaign_ref(
        &self,
        sites: &[Fault],
        input_batches: &[Vec<u64>],
        lanes_per_batch: usize,
    ) -> crate::Result<CampaignReport> {
        let lane_mask = campaign_lane_mask(lanes_per_batch, input_batches.len())?;
        let golden: Vec<Vec<u64>> = input_batches
            .iter()
            .map(|b| self.simulate_words_with_faults(b, &FaultSet::empty()))
            .collect::<crate::Result<_>>()?;
        let out_bits = self.outputs().len();
        let max_weight = max_output_weight(out_bits);
        let samples = input_batches.len() * lanes_per_batch;
        let sites_out = sites
            .iter()
            .map(|&fault| {
                self.sweep_one_site(fault, input_batches, &golden, lane_mask, max_weight, samples)
            })
            .collect::<crate::Result<Vec<_>>>()?;
        Ok(CampaignReport { sites: sites_out, samples })
    }

    /// One unit of sharded campaign work: simulates a chunk of input
    /// blocks under one injected fault and counts mismatches as exact
    /// integers.
    fn sweep_shard<const W: usize>(
        &self,
        fault: Fault,
        groups: &[Vec<[u64; W]>],
        golden: &[Vec<[u64; W]>],
        word_masks: &[[u64; W]],
        out_bits: usize,
    ) -> crate::Result<ShardStats> {
        let set = FaultSet::from(fault);
        let masks = set.entries().to_vec();
        let mut vals: Vec<[u64; W]> = Vec::new();
        let mut mismatched = 0u64;
        let mut bit_mismatches = vec![0u64; out_bits];
        for ((blocks, gold), wmask) in groups.iter().zip(golden).zip(word_masks) {
            self.eval_blocks_masked(blocks, &masks, &mut vals)?;
            let mut any_diff = [0u64; W];
            for (k, (_, s)) in self.outputs().iter().enumerate() {
                let o = vals[s.index()];
                let mut count = 0u64;
                for w in 0..W {
                    let diff = (o[w] ^ gold[k][w]) & wmask[w];
                    any_diff[w] |= diff;
                    count += u64::from(diff.count_ones());
                }
                bit_mismatches[k] += count;
            }
            for d in any_diff {
                mismatched += u64::from(d.count_ones());
            }
        }
        Ok(ShardStats { mismatched_lanes: mismatched, bit_mismatches })
    }

    /// Simulates every input batch under one injected fault and folds
    /// the mismatch statistics — the unit of work a campaign fans out.
    fn sweep_one_site(
        &self,
        fault: Fault,
        input_batches: &[Vec<u64>],
        golden: &[Vec<u64>],
        lane_mask: u64,
        max_weight: f64,
        samples: usize,
    ) -> crate::Result<FaultSiteReport> {
        let set = FaultSet::from(fault);
        let mut mismatched_lanes = 0usize;
        let mut weighted = 0.0f64;
        for (batch, gold) in input_batches.iter().zip(golden) {
            let outs = self.simulate_words_with_faults(batch, &set)?;
            let mut any_diff = 0u64;
            for (k, (o, g)) in outs.iter().zip(gold).enumerate() {
                let diff = (o ^ g) & lane_mask;
                any_diff |= diff;
                weighted += diff.count_ones() as f64 * (k as f64).exp2();
            }
            mismatched_lanes += any_diff.count_ones() as usize;
        }
        Ok(FaultSiteReport {
            fault,
            mismatch_rate: mismatched_lanes as f64 / samples as f64,
            weighted_error: weighted / (samples as f64 * max_weight),
        })
    }

    /// Runs a transient (bit-flip) campaign: `rounds` random single-net
    /// upsets per batch, each flipping the chosen net in a random subset
    /// of lanes with density ~1/2. Returns, per signal, the fraction of
    /// flipped lanes whose outputs were corrupted — the net's
    /// *propagation probability* (1 − logic masking).
    ///
    /// Deterministic for a given `seed`.
    ///
    /// # Errors
    ///
    /// See [`Netlist::eval_words_with_faults`].
    pub fn transient_campaign(
        &self,
        input_batches: &[Vec<u64>],
        rounds: usize,
        seed: u64,
    ) -> crate::Result<Vec<f64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut corrupted = vec![0u64; self.len()];
        let mut flipped = vec![0u64; self.len()];
        let golden: Vec<Vec<u64>> = input_batches
            .iter()
            .map(|b| self.simulate_words_with_faults(b, &FaultSet::empty()))
            .collect::<crate::Result<_>>()?;
        if self.is_empty() {
            // No net to upset.
            return Ok(Vec::new());
        }
        for _ in 0..rounds {
            for (batch, gold) in input_batches.iter().zip(&golden) {
                let target = (rng.next_u64() % self.len() as u64) as usize;
                let lanes = rng.next_u64();
                if lanes == 0 {
                    continue;
                }
                let set = FaultSet::empty().transient(SignalId::from_index(target), lanes);
                let outs = self.simulate_words_with_faults(batch, &set)?;
                let mut any_diff = 0u64;
                for (o, g) in outs.iter().zip(gold) {
                    any_diff |= o ^ g;
                }
                flipped[target] += lanes.count_ones() as u64;
                corrupted[target] += (any_diff & lanes).count_ones() as u64;
            }
        }
        Ok(corrupted
            .iter()
            .zip(&flipped)
            .map(|(&c, &f)| if f == 0 { 0.0 } else { c as f64 / f as f64 })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pack_bus_samples, Netlist};

    fn xor_chain() -> Netlist {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor(a, b);
        let y = n.not(x);
        n.output("x", x);
        n.output("y", y);
        n
    }

    #[test]
    fn empty_fault_set_is_identity() {
        let n = xor_chain();
        let inputs = [0b1010u64, 0b0110u64];
        let plain = n.eval_words(&inputs).unwrap();
        let faulted = n.eval_words_with_faults(&inputs, &FaultSet::empty()).unwrap();
        assert_eq!(plain, faulted);
    }

    #[test]
    fn stuck_at_forces_net() {
        let n = xor_chain();
        // Fault the xor output (signal index 2) to 1: x reads all-ones,
        // y (its inverse computed downstream) reads all-zeros.
        let sid = SignalId::from_index(2);
        let set = FaultSet::empty().stuck_at(sid, FaultKind::StuckAt1);
        let outs = n.simulate_words_with_faults(&[0b1010, 0b0110], &set).unwrap();
        assert_eq!(outs[0], !0u64);
        assert_eq!(outs[1], 0u64);
    }

    #[test]
    fn transient_flips_only_selected_lanes() {
        let n = xor_chain();
        let lanes = 0b1001u64;
        let set = FaultSet::empty().transient(SignalId::from_index(2), lanes);
        let gold = n.simulate_words_with_faults(&[0b1010, 0b0110], &FaultSet::empty()).unwrap();
        let outs = n.simulate_words_with_faults(&[0b1010, 0b0110], &set).unwrap();
        assert_eq!(outs[0] ^ gold[0], lanes);
        assert_eq!(outs[1] ^ gold[1], lanes);
    }

    #[test]
    fn invalid_site_is_reported() {
        let n = xor_chain();
        let set = FaultSet::empty().stuck_at(SignalId::from_index(99), FaultKind::StuckAt0);
        let err = n.eval_words_with_faults(&[0, 0], &set).unwrap_err();
        assert!(matches!(err, NetlistError::InvalidFaultSite { index: 99, .. }));
    }

    #[test]
    fn faults_compose_on_one_net() {
        let n = xor_chain();
        let sid = SignalId::from_index(2);
        // Stuck-at-0 then a transient flip in lane 0: lane 0 reads 1.
        let set = FaultSet::empty()
            .stuck_at(sid, FaultKind::StuckAt0)
            .transient(sid, 0b1);
        let outs = n.simulate_words_with_faults(&[0b1010, 0b0110], &set).unwrap();
        assert_eq!(outs[0], 0b1);
    }

    #[test]
    fn campaign_ranks_live_nets_over_masked_ones() {
        // y = (a & b) | c  — a fault on c propagates whenever a&b is 0;
        // a fault on the dead-end buffer never reaches the output.
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let ab = n.and(a, b);
        let y = n.or(ab, c);
        n.output("y", y);
        let sites = n.fault_sites();
        // Exhaustive 8-combination batch.
        let batch = vec![0b11110000u64, 0b11001100, 0b10101010];
        let report =
            n.stuck_at_campaign(&sites, &[batch], 8, &clapped_exec::Engine::serial()).unwrap();
        assert_eq!(report.samples, 8);
        // The output net stuck at the wrong polarity must corrupt at
        // least as much as any single input fault.
        let rank = report.ranked_sites();
        let top = &report.sites[rank[0]];
        assert!(top.mismatch_rate > 0.0);
        for s in &report.sites {
            assert!(top.weighted_error >= s.weighted_error);
        }
    }

    #[test]
    fn campaign_on_adder_flags_msb_as_critical() {
        let mut n = Netlist::new("add2");
        let a = n.input_bus("a", 2);
        let b = n.input_bus("b", 2);
        let (sum, carry) = crate::bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &sum);
        n.output("cout", carry);
        // Drive all 16 input combinations in one batch.
        let pairs: Vec<(i64, i64)> = (0..4).flat_map(|x| (0..4).map(move |y| (x, y))).collect();
        let a_words = pack_bus_samples(&pairs.iter().map(|p| p.0).collect::<Vec<_>>(), 2);
        let b_words = pack_bus_samples(&pairs.iter().map(|p| p.1).collect::<Vec<_>>(), 2);
        let mut batch = a_words;
        batch.extend(b_words);
        let report = n
            .stuck_at_campaign(&n.fault_sites(), &[batch], 16, &clapped_exec::Engine::serial())
            .unwrap();
        // Faulting the carry-out (highest-weight output) must outrank
        // faulting the LSB sum bit.
        let cout_sig = n.outputs().last().unwrap().1;
        let lsb_sig = n.outputs()[0].1;
        let find = |sig: SignalId, kind: FaultKind| {
            report
                .sites
                .iter()
                .find(|s| s.fault.signal == sig && s.fault.kind == kind)
                .unwrap()
                .weighted_error
        };
        assert!(find(cout_sig, FaultKind::StuckAt1) > find(lsb_sig, FaultKind::StuckAt1));
    }

    #[test]
    fn parallel_campaign_matches_serial_bit_for_bit() {
        let mut n = Netlist::new("add2");
        let a = n.input_bus("a", 2);
        let b = n.input_bus("b", 2);
        let (sum, carry) = crate::bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &sum);
        n.output("cout", carry);
        let pairs: Vec<(i64, i64)> = (0..4).flat_map(|x| (0..4).map(move |y| (x, y))).collect();
        let a_words = pack_bus_samples(&pairs.iter().map(|p| p.0).collect::<Vec<_>>(), 2);
        let b_words = pack_bus_samples(&pairs.iter().map(|p| p.1).collect::<Vec<_>>(), 2);
        let mut batch = a_words;
        batch.extend(b_words);
        let sites = n.fault_sites();
        let serial = n
            .stuck_at_campaign(&sites, &[batch.clone()], 16, &clapped_exec::Engine::serial())
            .unwrap();
        for jobs in [2, 8] {
            let engine = clapped_exec::Engine::new(clapped_exec::ExecConfig::with_jobs(jobs));
            let par = n.stuck_at_campaign(&sites, &[batch.clone()], 16, &engine).unwrap();
            assert_eq!(serial, par, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_campaign_reports_deterministic_error() {
        let n = xor_chain();
        // An out-of-range site mixed into valid ones: the reported error
        // must be the same regardless of thread interleaving.
        let mut sites = n.fault_sites();
        sites.insert(1, Fault { signal: SignalId::from_index(99), kind: FaultKind::StuckAt0 });
        let engine = clapped_exec::Engine::new(clapped_exec::ExecConfig::with_jobs(4));
        let err = n.stuck_at_campaign(&sites, &[vec![0b1010, 0b0110]], 4, &engine).unwrap_err();
        assert!(matches!(err, NetlistError::InvalidFaultSite { index: 99, .. }));
    }

    #[test]
    fn campaigns_reject_unusable_stimulus() {
        let n = xor_chain();
        let sites = n.fault_sites();
        let batch = [vec![0b1010u64, 0b0110u64]];
        let engine = clapped_exec::Engine::serial();
        for (batches, lanes) in [(&batch[..], 0), (&batch[..], 65), (&[][..], 64)] {
            let want = Err(NetlistError::InvalidStimulus {
                lanes_per_batch: lanes,
                batches: batches.len(),
            });
            assert_eq!(n.stuck_at_campaign(&sites, batches, lanes, &engine), want);
            assert_eq!(n.stuck_at_campaign_ref(&sites, batches, lanes), want);
        }
        // An output-less netlist has nothing to corrupt: zero, not NaN.
        let mut dangling = Netlist::new("dangling");
        let a = dangling.input("a");
        dangling.not(a);
        let report =
            dangling.stuck_at_campaign(&dangling.fault_sites(), &[vec![0b10]], 2, &engine).unwrap();
        assert!(report.sites.iter().all(|s| s.mismatch_rate == 0.0 && s.weighted_error == 0.0));
    }

    #[test]
    fn transient_campaign_on_empty_netlist_is_empty() {
        let n = Netlist::new("empty");
        assert_eq!(n.transient_campaign(&[vec![], vec![]], 4, 7).unwrap(), Vec::<f64>::new());
        assert!(n.transient_campaign(&[vec![0]], 4, 7).is_err(), "batch arity still checked");
    }

    #[test]
    fn transient_campaign_is_deterministic_and_bounded() {
        let n = xor_chain();
        let batches = vec![vec![0b1010u64, 0b0110u64]];
        let p1 = n.transient_campaign(&batches, 32, 7).unwrap();
        let p2 = n.transient_campaign(&batches, 32, 7).unwrap();
        assert_eq!(p1, p2);
        assert!(p1.iter().all(|&p| (0.0..=1.0).contains(&p)));
        // The xor-chain has no logic masking: every exercised net
        // propagates every flip.
        assert!(p1.contains(&1.0));
    }
}
