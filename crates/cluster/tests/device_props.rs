//! The shared device has one slowdown path, and it must agree bit for bit
//! with the reference interference model: `paldia_hw::mps_slowdown` over
//! the active shares (in admission order), times the host-contention
//! factor, times the degradation factor when a degradation fault is open.

use paldia_cluster::device::SharedDevice;
use paldia_cluster::BatchId;
use paldia_sim::SimTime;
use paldia_workloads::MlModel;
use proptest::prelude::*;

proptest! {
    #[test]
    fn slowdown_matches_the_reference_model_bit_for_bit(
        fbrs in proptest::collection::vec(0.0f64..1.5, 0..12),
        host in 0.0f64..2.0,
        degrade in (0u64..3, 0.0f64..3.0),
    ) {
        let mut device = SharedDevice::new(SimTime::ZERO, host);
        for (i, &fbr) in fbrs.iter().enumerate() {
            device.admit(SimTime::ZERO, BatchId(i as u64), MlModel::ResNet50, fbr, 0.5);
        }
        // A third of the cases stay healthy (no degradation fault open).
        let severity = if degrade.0 == 0 { 0.0 } else { degrade.1 };
        device.set_degradation(SimTime::ZERO, severity);
        let mut expected = paldia_hw::mps_slowdown(&fbrs) * (1.0 + host);
        if severity > 0.0 {
            expected *= 1.0 + severity;
        }
        prop_assert_eq!(device.slowdown().to_bits(), expected.to_bits());
    }
}
