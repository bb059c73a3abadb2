package passivity

import "repro/internal/rational"

// HamiltonianCrossings returns the frequencies ω ≥ 0 (rad/s) at which some
// singular value of the model's scattering matrix crosses 1, found as the
// imaginary eigenvalues of the Hamiltonian matrix. An empty result together
// with σmax(D) < 1 and a sub-unit spot check certifies passivity.
func HamiltonianCrossings(model *rational.Model) ([]float64, error) {
	return HamiltonianCrossingsLevel(model, 1)
}

// HamiltonianCrossingsLevel returns the frequencies ω ≥ 0 (rad/s) at which
// some singular value of the model's scattering matrix crosses the level γ
// (see HamiltonianMatrixLevel).
func HamiltonianCrossingsLevel(model *rational.Model, gamma float64) ([]float64, error) {
	return crossingsLevel(nil, model, gamma)
}
