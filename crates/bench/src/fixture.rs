//! Shared experiment fixtures: populations, systems, query workloads.

use smartstore::{HashFamily, SmartStoreConfig, SmartStoreSystem};
use smartstore_trace::query_gen::QueryGenConfig;
use smartstore_trace::{
    MetadataPopulation, QueryDistribution, QueryWorkload, TraceKind, WorkloadModel,
};

/// Builds a population for a trace at a simulation size.
pub fn population(kind: TraceKind, n_files: usize, seed: u64) -> MetadataPopulation {
    WorkloadModel::new(kind).generate(n_files, seed)
}

/// Builds a SmartStore system over a population.
pub fn system(pop: &MetadataPopulation, n_units: usize, seed: u64) -> SmartStoreSystem {
    SmartStoreSystem::build(
        pop.files.clone(),
        n_units,
        SmartStoreConfig::default(),
        seed,
    )
}

/// Builds a SmartStore system with an explicit Bloom hash family —
/// grouping is attribute-driven, so two systems built from the same
/// population and seed differ only in their filters.
pub fn system_with_family(
    pop: &MetadataPopulation,
    n_units: usize,
    seed: u64,
    family: HashFamily,
) -> SmartStoreSystem {
    let cfg = SmartStoreConfig {
        bloom_family: family,
        ..SmartStoreConfig::default()
    };
    SmartStoreSystem::build(pop.files.clone(), n_units, cfg, seed)
}

/// Builds a query workload with the paper's defaults (k = 8).
pub fn workload(
    pop: &MetadataPopulation,
    dist: QueryDistribution,
    n_each: usize,
    seed: u64,
) -> QueryWorkload {
    QueryWorkload::generate(
        pop,
        &QueryGenConfig {
            n_range: n_each,
            n_topk: n_each,
            n_point: n_each,
            k: 8,
            range_width: 0.02,
            distribution: dist,
            seed,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_compose() {
        let pop = population(TraceKind::Msn, 600, 1);
        let sys = system(&pop, 10, 1);
        assert_eq!(sys.units().len(), 10);
        let w = workload(&pop, QueryDistribution::Zipf, 5, 1);
        assert_eq!(w.ranges.len(), 5);
        assert_eq!(w.topks[0].k, 8);
    }
}
