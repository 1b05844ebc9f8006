package core

import "repro/internal/dataset"

// ObjectiveValue decomposes the FairKM objective evaluated on a given
// assignment.
type ObjectiveValue struct {
	KMeansTerm   float64
	FairnessTerm float64
	// Objective is KMeansTerm + Lambda·FairnessTerm.
	Objective float64
	Lambda    float64
}

// EvaluateObjective computes the FairKM objective for an arbitrary
// assignment from scratch, literally following Eqs. 1, 7 and 22 with no
// incremental bookkeeping. It exists so tests and benchmarks can verify
// the optimized sufficient-statistic implementation against a direct
// transcription of the paper, and so external callers can score
// clusterings produced by other algorithms. It is
// EvaluateObjectiveWeighted with unit row weights.
//
// weights maps sensitive attribute names to w_S (Eq. 23); nil means all
// ones.
func EvaluateObjective(ds *dataset.Dataset, assign []int, k int, lambda float64, weights map[string]float64) (ObjectiveValue, error) {
	return EvaluateObjectiveWeighted(ds, nil, assign, k, lambda, weights)
}
