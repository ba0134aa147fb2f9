//! Arrival sampling: one generator fork per `(tenant, workload)` stream,
//! drawn either in full ([`sample_arrivals`], for recorded traces and
//! reference runs) or one trace bin at a time while a partition consumes
//! them (`ArrivalMerge`).
//!
//! Both paths give every arrival the same time, request id and calendar
//! sequence number. Streams are forked tenant-major, then in workload
//! order, under the fork key `(tenant << 8) | (model index + 1)`; request
//! ids count from 1 across all tenants in that order, so an arrival's
//! calendar seq is its id − 1.

use crate::harness::{trace_end, Ev, WorkloadSpec};
use crate::request::{Request, RequestId};
use paldia_sim::{ArrivalFeed, SimRng, SimTime};
use paldia_traces::{count_arrivals, generate_arrivals, ArrivalStream};
use paldia_workloads::MlModel;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// One pre-sampled arrival, in generation (tenant-major, then model-major)
/// order.
///
/// `seq` is the calendar sequence number the arrival owns in the batch
/// engines (arrivals are scheduled before anything else, so generation
/// index == seq); `id` is the request id the harness assigns it. Recording
/// both lets a replayed trace reproduce the batch run's `(time, seq)`
/// total order — and therefore its every tie-break — bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampledArrival {
    /// Calendar sequence number (generation index) of this arrival.
    pub seq: u64,
    /// Request id the harness assigns (1-based, generation order).
    pub id: RequestId,
    /// Absolute arrival time.
    pub at: SimTime,
    /// Model invoked.
    pub model: MlModel,
}

/// Sample every arrival for `workloads` under `seed`, exactly as the batch
/// entry points do (as tenant 0 of a fleet, whose fork key reduces to
/// `model index + 1`). `crate::replay` records these to disk, so a recorded
/// trace can never drift from what the simulator would have sampled.
///
/// Returns the arrivals and the trace end (max workload duration).
pub fn sample_arrivals(workloads: &[WorkloadSpec], seed: u64) -> (Vec<SampledArrival>, SimTime) {
    let mut out = Vec::new();
    Sampler::new(seed).tenant(0, workloads, |r| {
        out.push(SampledArrival {
            seq: r.id.0 - 1,
            id: r.id,
            at: r.arrival,
            model: r.model,
        })
    });
    (out, trace_end([workloads]))
}

/// The arrival sampler: the root generator every stream forks from, plus
/// the next unassigned request id. Forking consumes entropy from the root,
/// so tenants must be sampled in order through one sampler — fleets fork
/// every shard's streams on the coordinator, then generate inside the
/// shards.
pub(crate) struct Sampler {
    rng: SimRng,
    next_id: u64,
}

impl Sampler {
    pub(crate) fn new(seed: u64) -> Self {
        Sampler {
            rng: SimRng::new(seed),
            next_id: 1,
        }
    }

    /// The generator of tenant `dep`'s stream for `spec`.
    fn fork(&mut self, dep: usize, spec: &WorkloadSpec) -> SimRng {
        self.rng
            .fork(((dep as u64) << 8) | (spec.model.index() as u64 + 1))
    }

    /// Sample tenant `dep`'s arrivals in full (tenants must come in order).
    pub(crate) fn tenant(
        &mut self,
        dep: usize,
        workloads: &[WorkloadSpec],
        mut push: impl FnMut(Request),
    ) {
        for spec in workloads {
            let mut rng = self.fork(dep, spec);
            for at in generate_arrivals(&spec.trace, &mut rng) {
                push(Request {
                    id: RequestId(self.next_id),
                    model: spec.model,
                    arrival: at,
                });
                self.next_id += 1;
            }
        }
    }

    /// The streaming arrivals of tenants `base..` (global indices;
    /// `workloads[i]` belongs to tenant `base + i`) for a harness holding
    /// exactly those tenants. A draw-only count pass over each stream
    /// assigns its id block; the arrivals themselves are sampled as the
    /// merge is consumed.
    pub(crate) fn streams<'w>(
        &mut self,
        base: usize,
        workloads: &[&'w [WorkloadSpec]],
    ) -> ArrivalMerge<'w> {
        let mut streams = Vec::new();
        let first_id = self.next_id;
        for (local, specs) in workloads.iter().enumerate() {
            for spec in specs.iter() {
                let rng = self.fork(base + local, spec);
                let count = count_arrivals(&spec.trace, rng.clone());
                streams.push(Stream {
                    arrivals: ArrivalStream::new(&spec.trace, rng),
                    tenant: local as u32,
                    model: spec.model,
                    next_id: self.next_id,
                });
                self.next_id += count;
            }
        }
        ArrivalMerge::new(streams, self.next_id - first_id)
    }
}

/// One `(tenant, workload)` arrival stream and the id of its next arrival.
struct Stream<'w> {
    arrivals: ArrivalStream<'w>,
    /// Tenant index local to the partition's harness.
    tenant: u32,
    model: MlModel,
    next_id: u64,
}

/// A partition's arrivals, merged from its streams in `(time, stream
/// index)` order — exactly the order a stable time sort of the streams'
/// concatenation gives, since streams are indexed in generation order and
/// each is time-sorted. At most one trace bin per stream is held at once.
pub(crate) struct ArrivalMerge<'w> {
    streams: Vec<Stream<'w>>,
    /// Head time of every non-empty stream, keyed `(time, stream index)`.
    heads: BinaryHeap<Reverse<(SimTime, usize)>>,
    total: u64,
}

impl<'w> ArrivalMerge<'w> {
    fn new(mut streams: Vec<Stream<'w>>, total: u64) -> Self {
        let heads = (streams.iter_mut().enumerate())
            .filter_map(|(i, s)| s.arrivals.peek().map(|at| Reverse((at, i))))
            .collect();
        ArrivalMerge {
            streams,
            heads,
            total,
        }
    }

    /// Arrivals across all streams, consumed or not: the calendar
    /// sequence numbers the partition reserves for them.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    #[cfg(test)]
    fn buffered(&self) -> impl Iterator<Item = usize> + '_ {
        self.streams.iter().map(|s| s.arrivals.buffered())
    }
}

impl ArrivalFeed<Ev> for ArrivalMerge<'_> {
    fn peek_time(&mut self) -> Option<SimTime> {
        self.heads.peek().map(|&Reverse((at, _))| at)
    }

    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        let mut head = self.heads.peek_mut()?;
        let Reverse((at, i)) = *head;
        let s = &mut self.streams[i];
        s.arrivals.next();
        let ev = Ev::Arrival {
            tenant: s.tenant,
            id: RequestId(s.next_id),
            model: s.model,
        };
        s.next_id += 1;
        match s.arrivals.peek() {
            Some(next) => *head = Reverse((next, i)),
            None => {
                PeekMut::pop(head);
            }
        }
        Some((at, ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_sim::{Rail, SimDuration};
    use paldia_traces::RateTrace;
    use proptest::prelude::*;

    /// The reference order: every arrival of tenants `base..`, sampled in
    /// full, stable-sorted by time on a `Rail`.
    fn materialized_rail(seed: u64, base: usize, tenants: &[Vec<WorkloadSpec>]) -> Rail<Ev> {
        let mut sampler = Sampler::new(seed);
        // Earlier tenants consume root entropy and ids first.
        for (dep, w) in tenants[..base].iter().enumerate() {
            sampler.tenant(dep, w, |_| {});
        }
        let mut items = Vec::new();
        for (local, w) in tenants[base..].iter().enumerate() {
            sampler.tenant(base + local, w, |r| {
                let ev = Ev::Arrival {
                    tenant: local as u32,
                    id: r.id,
                    model: r.model,
                };
                items.push((r.arrival, ev));
            });
        }
        Rail::from_schedule_order(items)
    }

    fn key(item: Option<(SimTime, Ev)>) -> Option<(SimTime, u32, u64, MlModel)> {
        item.map(|(at, ev)| match ev {
            Ev::Arrival { tenant, id, model } => (at, tenant, id.0, model),
            _ => unreachable!("arrival feeds carry arrivals only"),
        })
    }

    /// Tenants with 1–3 workloads each over `bin_us`-wide bins averaging
    /// `per_bin` arrivals (every fourth entry silent; an all-silent
    /// workload is an empty stream). Bins of 1–3 µs force same-µs ties
    /// within and across streams.
    fn tenants(bin_us: u64, shapes: &[(u8, u32)]) -> Vec<Vec<WorkloadSpec>> {
        let width_s = bin_us as f64 / 1e6;
        let models = [
            MlModel::ResNet50,
            MlModel::GoogleNet,
            MlModel::SeNet18,
            MlModel::MobileNet,
        ];
        shapes
            .iter()
            .map(|&(n, per_bin)| {
                (0..1 + usize::from(n % 3))
                    .map(|m| {
                        let rates = (0..6u32)
                            .map(|b| {
                                let mean = (per_bin + b * 3 + m as u32) % 12;
                                match mean % 4 {
                                    0 => 0.0,
                                    _ => f64::from(mean) / width_s,
                                }
                            })
                            .collect();
                        let trace = RateTrace::from_rates(SimDuration::from_micros(bin_us), rates);
                        WorkloadSpec::new(models[(m + usize::from(n)) % models.len()], trace)
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #[test]
        fn merge_equals_the_stable_sorted_rail(
            seed in 0u64..5_000,
            bin_us in prop::sample::select(vec![1u64, 2, 3, 250_000]),
            shapes in prop::collection::vec((0u8..9, 0u32..12), 1..5),
            base_pick in 0usize..4,
        ) {
            let tenants = tenants(bin_us, &shapes);
            let base = base_pick % tenants.len();
            let mut rail = materialized_rail(seed, base, &tenants);

            let mut sampler = Sampler::new(seed);
            for (dep, w) in tenants[..base].iter().enumerate() {
                sampler.tenant(dep, w, |_| {});
            }
            let own: Vec<&[WorkloadSpec]> = tenants[base..].iter().map(Vec::as_slice).collect();
            let mut merge = sampler.streams(base, &own);
            prop_assert_eq!(merge.total(), rail.len() as u64);
            loop {
                let (a, b) = (ArrivalFeed::peek_time(&mut merge), rail.peek_time());
                prop_assert_eq!(a, b);
                let (a, b) = (key(ArrivalFeed::pop(&mut merge)), key(rail.pop()));
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        #[test]
        fn merge_buffers_at_most_one_bin_per_stream(
            seed in 0u64..5_000,
            shapes in prop::collection::vec((0u8..9, 0u32..12), 1..4),
        ) {
            let bin_us = 2;
            let tenants = tenants(bin_us, &shapes);
            let own: Vec<&[WorkloadSpec]> = tenants.iter().map(Vec::as_slice).collect();
            // The largest bin of each stream, from the materialized sample.
            let mut sampler = Sampler::new(seed);
            let mut bound = Vec::new();
            for (dep, w) in tenants.iter().enumerate() {
                for spec in w {
                    let mut per_bin = std::collections::BTreeMap::<u64, usize>::new();
                    sampler.tenant(dep, std::slice::from_ref(spec), |r| {
                        *per_bin.entry(r.arrival.as_micros() / bin_us).or_default() += 1;
                    });
                    bound.push(per_bin.values().copied().max().unwrap_or(0));
                }
            }
            let mut merge = Sampler::new(seed).streams(0, &own);
            loop {
                for (held, &max) in merge.buffered().zip(&bound) {
                    prop_assert!(held <= max, "a stream holds {} > one bin ({})", held, max);
                }
                if ArrivalFeed::pop(&mut merge).is_none() {
                    break;
                }
            }
        }
    }
}
