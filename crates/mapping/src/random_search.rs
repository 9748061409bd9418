//! Tests of the random-sampling baseline ([`noc_search::random`],
//! re-exported as [`crate::random_search`]) against the real objectives.

mod tests {
    use crate::exhaustive::exhaustive;
    use crate::objective::CwmObjective;
    use crate::random_search;
    use noc_energy::Technology;
    use noc_model::{Cwg, Mesh};

    fn small_instance() -> (Cwg, Mesh, Technology) {
        let mut cwg = Cwg::new();
        let a = cwg.add_core("A");
        let b = cwg.add_core("B");
        let c = cwg.add_core("C");
        cwg.add_communication(a, b, 50).unwrap();
        cwg.add_communication(b, c, 30).unwrap();
        cwg.add_communication(a, c, 10).unwrap();
        (cwg, Mesh::new(2, 2).unwrap(), Technology::paper_example())
    }

    #[test]
    fn never_beats_exhaustive() {
        let (cwg, mesh, tech) = small_instance();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let optimum = exhaustive(&obj, &mesh, 3);
        for seed in 0..5 {
            let rnd = random_search(&obj, &mesh, 3, 50, seed);
            assert!(rnd.cost >= optimum.cost - 1e-9);
        }
    }

    #[test]
    fn enough_samples_find_the_optimum_on_tiny_spaces() {
        let (cwg, mesh, tech) = small_instance();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let optimum = exhaustive(&obj, &mesh, 3);
        // 24 placements only; 500 samples all but surely hit the optimum.
        let rnd = random_search(&obj, &mesh, 3, 500, 123);
        assert_eq!(rnd.cost, optimum.cost);
    }

    #[test]
    fn deterministic_per_seed() {
        let (cwg, mesh, tech) = small_instance();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let a = random_search(&obj, &mesh, 3, 20, 9);
        let b = random_search(&obj, &mesh, 3, 20, 9);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let (cwg, mesh, tech) = small_instance();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let _ = random_search(&obj, &mesh, 3, 0, 0);
    }
}
