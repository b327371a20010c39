//! Applying a transfer plan: copy provider checkpoint tensors into a freshly
//! initialised receiver model.

use crate::plan::TransferPlan;
use std::collections::HashMap;
use swt_nn::Model;
use swt_tensor::Tensor;

swt_wire::wire_struct! {
    /// Outcome of applying a plan (reported in traces and the Fig. 10 overhead
    /// accounting).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct TransferStats {
        /// Tensors actually copied.
        pub tensors: usize,
        /// Bytes copied.
        pub bytes: usize,
        /// Plan entries that could not be applied (name missing from the
        /// checkpoint or shape mismatch — indicates a stale checkpoint).
        pub skipped: usize,
    }
}

/// Initialise `receiver`'s matched parameters from `provider_checkpoint`
/// (the provider's `state_dict` as loaded from a checkpoint store). All
/// other receiver parameters keep their random initialisation, exactly as in
/// Section IV: "starting from the weights of the provider model for the
/// layers that are included in LP and LCS, and from random weights for the
/// rest".
pub fn apply_transfer(
    plan: &TransferPlan,
    provider_checkpoint: &[(String, Tensor)],
    receiver: &mut Model,
) -> TransferStats {
    let by_name: HashMap<&str, &Tensor> =
        provider_checkpoint.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let mut stats = TransferStats::default();
    for (provider_name, receiver_name) in plan.pairs() {
        match by_name.get(provider_name.as_str()) {
            Some(tensor) if receiver.set_param(receiver_name, tensor) => {
                stats.tensors += 1;
                stats.bytes += tensor.numel() * 4;
            }
            _ => stats.skipped += 1,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::Matcher;
    use crate::shape_seq::ShapeSeq;
    use swt_nn::{Activation, LayerSpec, ModelSpec};
    use swt_tensor::Padding;

    fn conv_net(extra_mid_layer: bool) -> ModelSpec {
        let mut ops = vec![
            LayerSpec::Conv2D { filters: 4, kernel: 3, padding: Padding::Same, l2: 0.0 },
            LayerSpec::Activation(Activation::Relu),
        ];
        if extra_mid_layer {
            // Extra conv with different filter count: its params match
            // nothing in the provider.
            ops.push(LayerSpec::Conv2D { filters: 6, kernel: 1, padding: Padding::Same, l2: 0.0 });
            ops.push(LayerSpec::Conv2D { filters: 4, kernel: 1, padding: Padding::Same, l2: 0.0 });
        }
        ops.extend([LayerSpec::Flatten, LayerSpec::Dense { units: 10, activation: None }]);
        ModelSpec::chain(vec![5, 5, 2], ops).unwrap()
    }

    #[test]
    fn identical_specs_transfer_everything() {
        let spec = conv_net(false);
        let provider = Model::build(&spec, 1).unwrap();
        let mut receiver = Model::build(&spec, 2).unwrap();
        // Sanity: different seeds -> different weights.
        assert!(!provider.named_params()[0].1.approx_eq(&receiver.named_params()[0].1, 0.0));

        let seq = ShapeSeq::of(&spec).unwrap();
        let plan = TransferPlan::build(Matcher::Lp, &seq, &seq);
        let stats = apply_transfer(&plan, &provider.state_dict(), &mut receiver);
        assert_eq!(plan.matched_layers(), seq.len());
        assert_eq!(stats.tensors, plan.tensors());
        assert_eq!(stats.tensors, provider.named_params().len());
        assert_eq!(stats.skipped, 0);
        for ((_, a), (_, b)) in provider.named_params().iter().zip(receiver.named_params().iter()) {
            assert!(a.approx_eq(b, 0.0));
        }
    }

    #[test]
    fn lcs_transfers_across_insertion_lp_does_not() {
        let pspec = conv_net(false);
        let rspec = conv_net(true);
        let provider = Model::build(&pspec, 3).unwrap();
        let pseq = ShapeSeq::of(&pspec).unwrap();
        let rseq = ShapeSeq::of(&rspec).unwrap();

        // LP: only the first conv transfers (flattened dense dims match here
        // because `Same` padding keeps spatial size, so check precisely).
        let lp_plan = TransferPlan::build(Matcher::Lp, &pseq, &rseq);
        let lcs_plan = TransferPlan::build(Matcher::Lcs, &pseq, &rseq);
        assert!(lcs_plan.tensors() >= lp_plan.tensors());
        assert!(lcs_plan.tensors() > 0);

        let mut receiver = Model::build(&rspec, 4).unwrap();
        let before = receiver.named_params();
        let stats = apply_transfer(&lcs_plan, &provider.state_dict(), &mut receiver);
        assert_eq!(stats.tensors, lcs_plan.tensors());
        assert_eq!(stats.skipped, 0);

        // Matched receiver tensors now equal provider values; unmatched ones
        // keep their random init.
        let after = receiver.named_params();
        let provider_params: HashMap<String, Tensor> =
            provider.named_params().into_iter().collect();
        let matched: std::collections::HashSet<&str> =
            lcs_plan.pairs().iter().map(|(_, r)| r.as_str()).collect();
        for ((name, now), (_, was)) in after.iter().zip(before.iter()) {
            if matched.contains(name.as_str()) {
                let src = lcs_plan
                    .pairs()
                    .iter()
                    .find(|(_, r)| r == name)
                    .map(|(p, _)| &provider_params[p])
                    .unwrap();
                assert!(now.approx_eq(src, 0.0), "{name} should hold provider weights");
            } else {
                assert!(now.approx_eq(was, 0.0), "{name} should keep its random init");
            }
        }
    }

    #[test]
    fn missing_checkpoint_entries_are_skipped_not_fatal() {
        let spec = conv_net(false);
        let provider = Model::build(&spec, 5).unwrap();
        let mut receiver = Model::build(&spec, 6).unwrap();
        let seq = ShapeSeq::of(&spec).unwrap();
        let plan = TransferPlan::build(Matcher::Lcs, &seq, &seq);
        // Drop half the checkpoint.
        let mut ckpt = provider.state_dict();
        ckpt.truncate(2);
        let stats = apply_transfer(&plan, &ckpt, &mut receiver);
        assert_eq!(stats.tensors, 2);
        assert_eq!(stats.skipped, plan.tensors() - 2);
        let _ = seq;
    }

    #[test]
    fn transferred_model_predicts_like_provider_when_identical() {
        let spec = conv_net(false);
        let mut provider = Model::build(&spec, 7).unwrap();
        let mut receiver = Model::build(&spec, 8).unwrap();
        let seq = ShapeSeq::of(&spec).unwrap();
        let plan = TransferPlan::build(Matcher::Lcs, &seq, &seq);
        apply_transfer(&plan, &provider.state_dict(), &mut receiver);
        let mut rng = swt_tensor::Rng::seed(9);
        let x = Tensor::rand_normal([3, 5, 5, 2], 0.0, 1.0, &mut rng);
        let yp = provider.forward(&[&x], false);
        let yr = receiver.forward(&[&x], false);
        assert!(yp.approx_eq(&yr, 1e-6), "full transfer must reproduce the provider exactly");
    }

    use std::collections::HashMap;
}
