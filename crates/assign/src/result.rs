use crate::CostMatrix;

/// A complete assignment of cores to TAMs with its derived testing
/// times — the solution form of problem *P_AW*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignResult {
    assignment: Vec<usize>,
    tam_times: Vec<u64>,
    soc_time: u64,
}

impl AssignResult {
    /// Builds the result from an assignment vector (`assignment[core] =
    /// tam`) and the cost matrix, computing per-TAM and SOC times.
    ///
    /// # Panics
    ///
    /// Panics if the assignment's length disagrees with the matrix or an
    /// entry indexes a non-existent TAM.
    pub fn from_assignment(assignment: Vec<usize>, costs: &CostMatrix) -> Self {
        assert_eq!(
            assignment.len(),
            costs.num_cores(),
            "assignment covers every core"
        );
        let mut tam_times = vec![0u64; costs.num_tams()];
        for (core, &tam) in assignment.iter().enumerate() {
            assert!(
                tam < costs.num_tams(),
                "core {core} assigned to non-existent tam {tam}"
            );
            tam_times[tam] += costs.time(core, tam);
        }
        let soc_time = tam_times.iter().copied().max().unwrap_or(0);
        AssignResult {
            assignment,
            tam_times,
            soc_time,
        }
    }

    /// Wraps an assignment and the per-TAM times it sums to, as the
    /// `Core_assign` kernel accumulated them.
    pub(crate) fn from_parts(assignment: Vec<usize>, tam_times: Vec<u64>) -> Self {
        let soc_time = tam_times.iter().copied().max().unwrap_or(0);
        AssignResult {
            assignment,
            tam_times,
            soc_time,
        }
    }

    /// The assignment vector: `assignment()[core]` is the TAM index the
    /// core is assigned to (0-based; the paper's vectors are 1-based).
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Summed testing time per TAM.
    pub fn tam_times(&self) -> &[u64] {
        &self.tam_times
    }

    /// SOC testing time: the maximum per-TAM time (TAMs run in
    /// parallel).
    pub fn soc_time(&self) -> u64 {
        self.soc_time
    }

    /// The assignment in the paper's 1-based vector notation, e.g.
    /// `(2,1,2,1,1)`.
    pub fn assignment_vector(&self) -> String {
        let parts: Vec<String> = self
            .assignment
            .iter()
            .map(|&t| (t + 1).to_string())
            .collect();
        format!("({})", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> CostMatrix {
        CostMatrix::from_raw(vec![vec![5, 9], vec![7, 3], vec![4, 4]], vec![16, 8]).unwrap()
    }

    #[test]
    fn derives_times() {
        let r = AssignResult::from_assignment(vec![0, 1, 0], &matrix());
        assert_eq!(r.tam_times(), &[9, 3]);
        assert_eq!(r.soc_time(), 9);
        assert_eq!(r.assignment(), &[0, 1, 0]);
    }

    #[test]
    fn vector_notation_is_one_based() {
        let r = AssignResult::from_assignment(vec![0, 1, 0], &matrix());
        assert_eq!(r.assignment_vector(), "(1,2,1)");
    }

    #[test]
    #[should_panic(expected = "every core")]
    fn rejects_short_assignment() {
        let _ = AssignResult::from_assignment(vec![0, 1], &matrix());
    }

    #[test]
    #[should_panic(expected = "non-existent tam")]
    fn rejects_bad_tam_index() {
        let _ = AssignResult::from_assignment(vec![0, 1, 7], &matrix());
    }
}
