//! Tests of [`SearchOutcome`](crate::SearchOutcome), the shared outcome
//! type of every engine (defined in `noc-search`).

mod tests {
    use crate::SearchOutcome;
    use noc_model::{Mapping, Mesh};
    use std::time::Duration;

    #[test]
    fn throughput_handles_zero_time() {
        let mesh = Mesh::new(2, 2).unwrap();
        let outcome = SearchOutcome {
            mapping: Mapping::identity(&mesh, 2).unwrap(),
            cost: 1.0,
            evaluations: 10,
            elapsed: Duration::ZERO,
            method: "test".into(),
            objective: "CWM".into(),
        };
        assert_eq!(outcome.throughput(), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let mesh = Mesh::new(2, 2).unwrap();
        let outcome = SearchOutcome {
            mapping: Mapping::identity(&mesh, 3).unwrap(),
            cost: 42.0,
            evaluations: 7,
            elapsed: Duration::from_millis(1500),
            method: "SA".into(),
            objective: "CDCM".into(),
        };
        let json = serde_json::to_string(&outcome).unwrap();
        let back: SearchOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cost, 42.0);
        assert_eq!(back.elapsed, Duration::from_millis(1500));
    }
}
