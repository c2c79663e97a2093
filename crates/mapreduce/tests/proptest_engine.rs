//! Property tests over the MapReduce substrate: jobs terminate and conserve
//! work for arbitrary cluster sizes and job shapes; the YARN heartbeat's
//! early exit grants what the full two-pass placement grants; the local
//! executor agrees with oracles under random data.

use edison_mapreduce::engine::{run_job_checked, ClusterSetup};
use edison_mapreduce::jobs::{JobProfile, SumReducer, Tune, WordCountMapper};
use edison_mapreduce::local::run_local;
use edison_mapreduce::yarn::{heartbeat, Grant, NodeCapacity, PendingTask};
use proptest::prelude::*;

const MIB: u64 = 1024 * 1024;

/// The two-pass placement without the early exit: both passes walk every
/// pending task and every node. `yarn::heartbeat` must grant exactly
/// what this grants and leave the same capacities.
fn full_scan_heartbeat(
    pending: &[PendingTask],
    capacity: &mut [NodeCapacity],
    reduce_mem_allowance: u64,
    is_local: impl Fn(usize, usize) -> bool,
) -> Vec<Grant> {
    let mut grants = Vec::new();
    let mut taken = vec![false; pending.len()];
    let mut reduce_budget = reduce_mem_allowance;
    for want_map in [false, true] {
        for (pi, p) in pending.iter().enumerate() {
            if taken[pi] || p.is_map != want_map || !want_map {
                continue;
            }
            for (ni, cap) in capacity.iter_mut().enumerate() {
                if cap.fits(p.mem) && is_local(p.task, ni) {
                    cap.claim(p.mem);
                    grants.push(Grant { task: p.task, node: ni, local: true });
                    taken[pi] = true;
                    break;
                }
            }
        }
        for (pi, p) in pending.iter().enumerate() {
            if taken[pi] || p.is_map != want_map {
                continue;
            }
            if !p.is_map && p.mem > reduce_budget {
                continue;
            }
            let best = capacity
                .iter()
                .enumerate()
                .filter(|(_, c)| c.fits(p.mem))
                .min_by_key(|(ni, c)| (c.running, *ni))
                .map(|(ni, _)| ni);
            if let Some(ni) = best {
                capacity[ni].claim(p.mem);
                let local = want_map && is_local(p.task, ni);
                grants.push(Grant { task: p.task, node: ni, local });
                taken[pi] = true;
                if !p.is_map {
                    reduce_budget = reduce_budget.saturating_sub(p.mem);
                }
            }
        }
    }
    grants
}

fn arb_profile(
    input_mib: u64,
    maps: u32,
    reduces: u32,
    shuffle_ratio: f64,
    combiner: bool,
) -> JobProfile {
    JobProfile {
        name: "prop",
        input_files: maps,
        input_bytes: input_mib * MIB,
        map_tasks: maps,
        reduce_tasks: reduces,
        map_mi_per_mib: 500.0,
        map_compute_mi: 10.0,
        shuffle_ratio,
        combiner,
        reduce_mi_per_mib: 400.0,
        spill_mi_per_mib: 50.0,
        container_startup_mi: 2_000.0,
        task_setup_mi: 500.0,
        output_ratio: shuffle_ratio * 0.5,
        map_container: 150 * MIB,
        reduce_container: 300 * MIB,
        merge_passes: 1,
        mem_hungry: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any well-formed job on any cluster size terminates, with locality
    /// within [0,1], positive energy, and more nodes never slower by more
    /// than scheduling noise.
    #[test]
    fn jobs_terminate_on_any_cluster(
        workers in 2usize..12,
        maps in 4u32..60,
        reduces in 1u32..16,
        input_mib in 16u64..256,
        shuffle_ratio in 0.01f64..1.2,
        combiner in any::<bool>(),
    ) {
        let profile = arb_profile(input_mib, maps, reduces, shuffle_ratio, combiner);
        let out = run_job_checked(&profile, &ClusterSetup::edison(workers)).expect("job finishes");
        prop_assert!(out.finish_time_s > 0.0);
        prop_assert!(out.energy_j > 0.0);
        prop_assert!((0.0..=1.0).contains(&out.data_local_fraction));
        // timeline progress ends at 100 %
        let last_map = out.timeline.map_pct.points().last().unwrap().1;
        prop_assert!((last_map - 100.0).abs() < 1e-6);
        // energy consistent with power band: between idle and busy cluster
        // power times runtime
        let idle = workers as f64 * 1.40 * out.finish_time_s;
        let busy = workers as f64 * 1.68 * out.finish_time_s * 1.01;
        prop_assert!(out.energy_j >= idle * 0.99, "energy {} < idle bound {idle}", out.energy_j);
        prop_assert!(out.energy_j <= busy, "energy {} > busy bound {busy}", out.energy_j);
    }

    /// Doubling the cluster never increases runtime (work-conserving
    /// scheduler; same job).
    #[test]
    fn more_nodes_is_never_slower(
        maps in 8u32..40,
        input_mib in 32u64..128,
    ) {
        let profile = arb_profile(input_mib, maps, 4, 0.2, false);
        let small = run_job_checked(&profile, &ClusterSetup::edison(4)).expect("job finishes");
        let large = run_job_checked(&profile, &ClusterSetup::edison(8)).expect("job finishes");
        prop_assert!(
            large.finish_time_s <= small.finish_time_s * 1.05,
            "4 nodes: {}s, 8 nodes: {}s",
            small.finish_time_s,
            large.finish_time_s
        );
    }

    /// The local executor's wordcount output always totals the number of
    /// input tokens, with and without a combiner, for arbitrary text.
    #[test]
    fn local_wordcount_total_matches_tokens(
        text in "[a-c ]{0,2000}",
        n_reduce in 1usize..9,
        use_combiner in any::<bool>(),
    ) {
        let tokens = text.split_whitespace().count() as u64;
        let splits = vec![text.clone().into_bytes()];
        let combiner: Option<&SumReducer> = if use_combiner { Some(&SumReducer) } else { None };
        let (outputs, stats) = run_local(
            &WordCountMapper,
            &SumReducer,
            combiner.map(|c| c as &dyn edison_mapreduce::jobs::Reducer),
            &splits,
            n_reduce,
        );
        let total: u64 = outputs
            .iter()
            .flatten()
            .map(|(_, v)| {
                let mut b = [0u8; 8];
                b.copy_from_slice(v);
                u64::from_be_bytes(b)
            })
            .sum();
        prop_assert_eq!(total, tokens);
        prop_assert_eq!(stats.map_output_records, tokens);
    }
}

proptest! {
    // a pure function of its inputs: cheap enough for many cases
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On random pending lists (sizes in units of 100 MiB, maps and
    /// reduces mixed), node capacities (free memory, running and maximum
    /// containers), reduce allowances and locality, the heartbeat that
    /// stops once no node fits the smallest pending container returns the
    /// full scan's grants and capacities.
    #[test]
    fn heartbeat_early_exit_matches_the_full_scan(
        tasks in proptest::collection::vec((1u64..5, any::<bool>()), 0..40),
        nodes in proptest::collection::vec((0u64..13, 0u32..4, 1u32..5), 1..9),
        allowance in (0u64..16, any::<bool>()),
        locality in (1u64..5, any::<u64>()),
    ) {
        let unit = 100 * MIB;
        let pending: Vec<PendingTask> = tasks
            .iter()
            .enumerate()
            .map(|(i, &(units, is_map))| PendingTask { task: i, mem: units * unit, is_map })
            .collect();
        let capacity: Vec<NodeCapacity> = nodes
            .iter()
            .map(|&(free, running, max)| NodeCapacity { free_mem: free * unit, running, max_containers: max })
            .collect();
        let allowance = if allowance.1 { u64::MAX } else { allowance.0 * unit };
        let (modulus, salt) = locality;
        let is_local = |task: usize, node: usize| {
            (task as u64 * 7 + node as u64 * 13).wrapping_add(salt) % modulus == 0
        };
        let (mut early, mut full) = (capacity.clone(), capacity);
        let got = heartbeat(&pending, &mut early, allowance, is_local);
        let want = full_scan_heartbeat(&pending, &mut full, allowance, is_local);
        prop_assert_eq!(got, want);
        let state = |c: &[NodeCapacity]| c.iter().map(|n| (n.free_mem, n.running)).collect::<Vec<_>>();
        prop_assert_eq!(state(&early), state(&full));
    }
}

/// The paper's six real jobs terminate on every Table 8 cluster size
/// (smoke, not timing).
#[test]
fn table8_grid_terminates() {
    use edison_mapreduce::jobs;
    for setup in [ClusterSetup::edison(4), ClusterSetup::dell(1)] {
        let tune = setup.tune;
        for mut p in jobs::table8_jobs(tune) {
            // shrink the heavy jobs for smoke-test speed
            p.input_bytes = (p.input_bytes / 8).max(MIB);
            if tune == Tune::Edison {
                p.map_tasks = p.map_tasks.min(24);
            }
            let out = run_job_checked(&p, &setup).expect("job finishes");
            assert!(out.finish_time_s > 0.0, "{} did not run", p.name);
        }
    }
}
