package experiments

import (
	"context"

	"spire/internal/core"
	"spire/internal/engine"
)

// estimate runs one Eq. 1 evaluation on the process-wide shared engine —
// the single estimation path every experiment (cross-validation, tables,
// ablations, microbenchmarks) goes through. The shared index cache pays
// off here: ablations re-estimate the same workload datasets against many
// model variants, and the engine rebuilds each index only once.
func estimate(ens *core.Ensemble, d core.Dataset) (*core.Estimation, error) {
	return engine.Default().Estimate(context.Background(), ens, d)
}
